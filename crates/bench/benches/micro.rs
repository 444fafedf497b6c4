//! Micro-benchmarks of the disk-path primitives: buffer-pool hit/miss
//! service time and the MINDIST kernel every best-first descent runs
//! per branch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nwc_geom::{MbrSoa, Point, Rect};
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

/// The MINDIST kernel: per-branch work of every best-first expansion —
/// scalar loop vs the batched SoA kernel.
fn mindist_kernel(c: &mut Criterion) {
    let rects: Vec<Rect> = (0..256)
        .map(|i| {
            let x = ((i * 37) % 1000) as f64;
            let y = ((i * 73) % 1000) as f64;
            Rect::new(Point::new(x, y), Point::new(x + 40.0, y + 25.0))
        })
        .collect();
    let q = Point::new(481.0, 517.0);
    let mut g = c.benchmark_group("mindist");
    g.bench_function("kernel_256_rects", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for r in &rects {
                acc += black_box(r).mindist(black_box(&q));
            }
            acc
        })
    });

    let soa: MbrSoa = rects.iter().copied().collect();
    let mut out = vec![0.0f64; rects.len()];
    g.bench_function("batched_256_rects", |b| {
        b.iter(|| {
            black_box(&soa).mindist_into(black_box(&q), &mut out);
            out[0]
        })
    });

    let w = Rect::new(Point::new(200.0, 200.0), Point::new(700.0, 650.0));
    g.bench_function("intersects_scalar_256", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for r in &rects {
                n += usize::from(black_box(r).intersects(black_box(&w)));
            }
            n
        })
    });
    let mut mask = vec![false; rects.len()];
    g.bench_function("intersects_batched_256", |b| {
        b.iter(|| {
            black_box(&soa).intersects_into(black_box(&w), &mut mask);
            mask[0]
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
    targets = pool_paths, mindist_kernel
}
criterion_main!(micro);
