//! Compares the I/O cost of all seven schemes of the paper's Table 3 on
//! scaled-down versions of the three evaluation datasets.
//!
//! This is a miniature of the full experiment harness
//! (`cargo run --release -p nwc-bench --bin experiments`), sized to run
//! in seconds as an example.
//!
//! Run with: `cargo run --release --example scheme_comparison`

use nwc::core::SearchStats;
use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    let datasets = Dataset::paper_trio_scaled(8_000, 12_000, 10_000, 42);
    let queries = Dataset::query_points(10, 7);
    let spec = WindowSpec::square(64.0);
    let n = 8;

    println!("NWC(q, {}x{}, n={n}), {} queries averaged\n", spec.l, spec.w, queries.len());
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "dataset", "scheme", "avg I/O", "traversal", "window I/O", "found"
    );

    let mut scratch = QueryScratch::new();
    for ds in &datasets {
        let index = NwcIndex::build(ds.points.clone());
        for scheme in Scheme::TABLE3 {
            let mut acc = SearchStats::default();
            let mut found = 0usize;
            for &q in &queries {
                let req = SearchRequest::nwc(NwcQuery::new(q, spec, n), scheme);
                let outcome = index.search(&req, &mut scratch)?;
                acc.accumulate(&outcome.stats);
                found += usize::from(outcome.nwc().is_some());
            }
            let avg = |v: u64| v as f64 / queries.len() as f64;
            println!(
                "{:<10} {:>10} {:>10.0} {:>10.0} {:>12.0} {:>7}/{}",
                ds.name,
                scheme.label(),
                avg(acc.io_total),
                avg(acc.io_traversal),
                avg(acc.io_window_queries),
                found,
                queries.len()
            );
        }
        println!();
    }
    println!("Expected shape: every optimization beats the baseline; NWC* wins overall.");
    Ok(())
}
