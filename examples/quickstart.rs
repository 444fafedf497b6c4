//! Quickstart: the paper's motivating scenario at toy scale.
//!
//! Bob is at a business meeting and wants `n = 3` clothes shops close to
//! each other — a window of 8 × 8 blocks — as near to his hotel as
//! possible, so he can stroll between them comparing souvenirs.
//!
//! Run with: `cargo run --example quickstart`

use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    // A downtown with two shopping areas and a few scattered shops.
    let shops = vec![
        // A tight arcade three blocks north-east of the hotel.
        Point::new(53.0, 55.0),
        Point::new(55.0, 56.5),
        Point::new(54.0, 58.0),
        // A bigger mall, but much farther away.
        Point::new(91.0, 88.0),
        Point::new(92.5, 89.0),
        Point::new(90.0, 90.5),
        Point::new(93.0, 91.0),
        // Scattered singles that never form a cluster.
        Point::new(20.0, 80.0),
        Point::new(75.0, 20.0),
    ];

    let index = NwcIndex::build(shops);
    let hotel = Point::new(50.0, 50.0);
    let query = NwcQuery::new(hotel, WindowSpec::square(8.0), 3);

    let outcome = index.search(&SearchRequest::nwc(query, Scheme::NWC_STAR), &mut QueryScratch::new())?;
    let result = outcome.nwc().expect("three clustered shops exist");

    println!("Bob's hotel is at {hotel}");
    println!(
        "Nearest window cluster of {} shops (walking radius {:.1}):",
        result.objects.len(),
        result.distance
    );
    for entry in &result.objects {
        println!(
            "  shop #{} at {}  (distance {:.1})",
            entry.id,
            entry.point,
            entry.point.dist(&hotel)
        );
    }
    println!(
        "All fit inside the {:.0} × {:.0} window {:?}",
        query.spec.l, query.spec.w, result.window
    );
    println!(
        "Search cost: {} R*-tree node accesses ({} window queries)",
        result.stats.io_total, result.stats.window_queries
    );

    // The arcade wins; the mall is a valid cluster but farther away.
    assert!(result.objects.iter().all(|e| e.point.x < 60.0));
    Ok(())
}
