//! Concurrent query throughput: one shared index, one `QueryEngine`.
//!
//! The index is immutable during querying and its I/O counters are
//! relaxed atomics, so `NwcIndex` is `Sync` — a server can answer NWC
//! requests from a thread pool over a single shared instance. The
//! [`QueryEngine`] packages that pattern: scoped workers pull requests
//! from an atomic cursor, each reuses one [`QueryScratch`] (the
//! zero-allocation warm path), and outcomes come back in input order.
//!
//! This example verifies answer stability across thread counts and
//! reports the aggregate throughput per count (speedup appears only on
//! multi-core machines, of course).
//!
//! Run with: `cargo run --release --example parallel_queries`

use nwc::prelude::*;
use std::time::Instant;

fn main() -> Result<(), QueryError> {
    let city = Dataset::clustered(10_000, 25, 15.0, 70.0, 0.1, 7);
    let index = NwcIndex::build(city.points.clone());
    let spec = WindowSpec::square(80.0);
    let requests: Vec<SearchRequest> = Dataset::query_points(128, 99)
        .into_iter()
        .map(|q| SearchRequest::nwc(NwcQuery::new(q, spec, 8), Scheme::NWC_STAR))
        .collect();

    // Sequential reference, one fresh scratch per request.
    let mut reference = Vec::new();
    for req in &requests {
        let outcome = index.search(req, &mut QueryScratch::new())?;
        reference.push(outcome.nwc().map(|r| (r.distance * 1e6) as u64));
    }

    let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1usize, 2, hw.min(8)];
    counts.sort_unstable();
    counts.dedup();
    for threads in counts {
        let engine = QueryEngine::new(&index).with_threads(threads);
        let t0 = Instant::now();
        let batch = engine.search_batch(&requests);
        let secs = t0.elapsed().as_secs_f64();

        // Batch answers (and their attributed I/O counts) must be
        // exactly what the sequential searches produced.
        for (i, outcome) in batch.into_iter().enumerate() {
            let outcome = outcome?;
            let got = outcome.nwc().map(|r| (r.distance * 1e6) as u64);
            assert_eq!(got, reference[i], "answer diverged at query {i}");
            assert!(outcome.stats.io_total > 0, "missing I/O accounting at query {i}");
        }
        println!(
            "{threads:>2} thread(s): {:>7.0} queries/s  ({} queries in {:.2}s)",
            requests.len() as f64 / secs,
            requests.len(),
            secs
        );
    }
    println!("\nShared-index concurrency verified: identical answers on every thread count.");
    Ok(())
}
