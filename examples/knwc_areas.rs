//! kNWC: retrieving several alternative shopping areas (paper §3.4).
//!
//! A user rarely wants a single suggestion — kNWC returns `k` object
//! groups ordered by distance, with at most `m` shared objects between
//! any two groups, so each group is a genuinely different "place to go".
//! This example shows how `m` trades diversity against proximity.
//!
//! Run with: `cargo run --release --example knwc_areas`

use nwc::core::KnwcQuery;
use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    // A synthetic city: shops clustered around a handful of districts.
    let city = Dataset::clustered(4_000, 12, 15.0, 60.0, 0.1, 2024);
    let index = NwcIndex::build(city.points.clone());

    let home = Point::new(5_000.0, 5_000.0);
    let spec = WindowSpec::square(80.0);
    let n = 6;
    let k = 4;

    for m in [0usize, 2, 5] {
        let query = KnwcQuery::new(home, spec, n, k, m);
        let req = SearchRequest::knwc(query, Scheme::NWC_STAR);
        let result = index.search(&req, &mut QueryScratch::new())?.into_knwc();
        println!(
            "kNWC(k={k}, n={n}, m={m}): {} groups, {} node accesses",
            result.groups.len(),
            result.stats.io_total
        );
        for (rank, group) in result.groups.iter().enumerate() {
            let center = group.window.center();
            println!(
                "  #{rank}: distance {:>7.1}, window centered at ({:>6.0}, {:>6.0}), shops {:?}",
                group.distance,
                center.x,
                center.y,
                group.id_set()
            );
        }
        // Verify the diversity contract.
        for a in 0..result.groups.len() {
            for b in a + 1..result.groups.len() {
                let ia = result.groups[a].id_set();
                let ib = result.groups[b].id_set();
                let shared = ia.iter().filter(|id| ib.binary_search(id).is_ok()).count();
                assert!(shared <= m, "groups {a},{b} share {shared} > m = {m}");
            }
        }
        println!();
    }
    println!("Larger m admits closer-but-overlapping areas; m = 0 forces disjoint districts.");
    Ok(())
}
