//! Weighted NWC: "the nearest block with at least 60 restaurant seats".
//!
//! Objects carry weights (seats); a window qualifies when its total
//! weight reaches the threshold. One big restaurant nearby can beat a
//! food court far away — something plain count-based NWC cannot express.
//!
//! Run with: `cargo run --release --example weighted_seats`

use nwc::core::weighted::{WeightedNwcIndex, WeightedQuery};
use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    // A city of restaurants: mostly small, a few large venues.
    let city = Dataset::clustered(5_000, 15, 20.0, 70.0, 0.1, 31);
    let seats: Vec<f64> = (0..city.len())
        .map(|i| match i % 17 {
            0 => 120.0,         // a big venue every 17th restaurant
            1..=4 => 40.0,      // mid-size
            _ => 12.0,          // small
        })
        .collect();
    let index = WeightedNwcIndex::build(city.points.clone(), seats.clone());

    let home = Point::new(5_000.0, 5_000.0);
    let spec = WindowSpec::square(120.0);

    for need in [60.0, 200.0, 600.0] {
        let query = WeightedQuery::new(home, spec, need);
        match index.query(&query, Scheme::NWC_STAR)? {
            Some((r, total)) => {
                println!(
                    "need {need:>4.0} seats → {} venue(s), {total:>5.0} seats, distance {:>6.0}, {} node accesses",
                    r.objects.len(),
                    r.distance,
                    r.stats.io_total
                );
                for e in &r.objects {
                    println!(
                        "    venue #{:<5} {:>4.0} seats at {}",
                        e.id,
                        seats[e.id as usize],
                        e.point
                    );
                }
            }
            None => println!("need {need:>4.0} seats → no window has that many"),
        }
    }
    println!("\nHigher thresholds pull the answer toward big venues and dense blocks.");
    Ok(())
}
