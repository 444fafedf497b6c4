//! Micro-benchmarks of the disk-path primitive every node access goes
//! through: buffer-pool hit and miss service time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nwc_store::{BufferPool, StoreError};
use std::sync::Arc;
use std::time::Duration;

/// The loader a miss runs: one small allocation standing in for a
/// decoded node.
fn load() -> Result<Arc<u64>, StoreError> {
    Ok(Arc::new(1))
}

/// Steady-state pool service time: a hit on a resident page, and the
/// miss + eviction path when the working set is twice the pool.
fn pool_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool");

    let pool = BufferPool::new(64);
    pool.get(7, load).unwrap();
    g.bench_function("get_hit", |b| {
        b.iter(|| pool.get(black_box(7), load).unwrap())
    });

    let pool = BufferPool::new(64);
    let mut next = 0u32;
    g.bench_function("get_miss_evict", |b| {
        b.iter(|| {
            next = (next + 1) % 128; // 2x capacity: every access evicts
            pool.get(black_box(next), load).unwrap()
        })
    });
    g.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .without_plots()
        .nresamples(1_000)
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! {
    name = micro;
    config = fast_config();
    targets = pool_paths
}
criterion_main!(micro);
