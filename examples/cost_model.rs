//! Validates the paper's §4 analytical cost model against measurement.
//!
//! The model predicts the expected I/O of the (DIP-pruned) NWC search on
//! Poisson-distributed data from closed-form level probabilities. This
//! example measures the real NWC+ scheme on uniform data and prints the
//! model's prediction next to it for a sweep of window sizes.
//!
//! Run with: `cargo run --release --example cost_model`

use nwc::analysis::{NwcCostModel, TreeModel};
use nwc::core::SearchStats;
use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    let n_objects = 40_000;
    // Uniform data matches the model's Poisson assumption best.
    let data = Dataset::uniform(n_objects, 31);
    let index = NwcIndex::build(data.points.clone());
    let queries = Dataset::query_points(10, 3);
    let n = 8;
    let area = 10_000.0f64 * 10_000.0;

    // Effective fanout of the bulk-loaded tree (STR packs ~100%).
    let tree_model = TreeModel {
        n_objects: n_objects as f64,
        fanout: 50.0,
        area,
    };

    println!("{:>8} {:>14} {:>14} {:>8}", "window", "model I/O", "measured I/O", "ratio");
    let mut scratch = QueryScratch::new();
    for wsize in [64.0, 96.0, 128.0, 192.0, 256.0] {
        let model = NwcCostModel::new(n_objects, area, wsize, wsize, n);
        let predicted = model.expected_io(&tree_model);

        let mut acc = SearchStats::default();
        for &q in &queries {
            let query = NwcQuery::new(q, WindowSpec::new(wsize, wsize), n);
            let req = SearchRequest::nwc(query, Scheme::NWC_PLUS);
            acc.accumulate(&index.search(&req, &mut scratch)?.stats);
        }
        let measured = acc.io_total as f64 / queries.len() as f64;
        println!(
            "{:>8.0} {:>14.0} {:>14.0} {:>8.2}",
            wsize,
            predicted,
            measured,
            predicted / measured
        );
    }
    println!("\nThe model tracks the measured cost within an order of magnitude and");
    println!("reproduces the trend (larger windows qualify sooner but cost more per");
    println!("window query) — the same fidelity the paper claims for its analysis.");
    Ok(())
}
