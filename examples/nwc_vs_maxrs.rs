//! NWC vs MaxRS: why the query point matters (paper §2.2).
//!
//! MaxRS (Choi, Chung & Tao, PVLDB 2012) finds the `l × w` window
//! covering the *most* objects anywhere; NWC finds the *nearest* window
//! covering *enough* objects. This example runs both over the same city
//! and shows that MaxRS sends you downtown no matter where you are,
//! while NWC adapts to your location.
//!
//! Run with: `cargo run --release --example nwc_vs_maxrs`

use nwc::core::maxrs::maxrs;
use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    // A dominant downtown plus several neighbourhood centers.
    let mut pts = Dataset::clustered(3_000, 1, 40.0, 40.0, 0.0, 11).points; // downtown blob
    pts.extend(Dataset::clustered(2_000, 8, 25.0, 60.0, 0.05, 12).points); // neighbourhoods
    let index = NwcIndex::build(pts.clone());

    let spec = WindowSpec::square(100.0);
    let n = 12;
    let mut scratch = QueryScratch::new();

    let dense = maxrs(&pts, &spec).expect("non-empty");
    println!(
        "MaxRS: densest {}x{} window holds {} shops, centered at ({:.0}, {:.0})\n",
        spec.l,
        spec.w,
        dense.count,
        dense.window.center().x,
        dense.window.center().y
    );

    for (label, q) in [
        ("near downtown", dense.window.center().translate(300.0, 0.0)),
        ("far suburb", Point::new(9_000.0, 1_000.0)),
        ("opposite corner", Point::new(500.0, 9_500.0)),
    ] {
        let req = SearchRequest::nwc(NwcQuery::new(q, spec, n), Scheme::NWC_STAR);
        match index.search(&req, &mut scratch)?.into_nwc() {
            Some(r) => {
                let c = r.window.center();
                let to_nwc = q.dist(&c);
                let to_maxrs = q.dist(&dense.window.center());
                println!(
                    "{label:>16}: NWC cluster at ({:>5.0}, {:>5.0}) — {:>6.0} away \
                     (MaxRS window is {:>6.0} away)",
                    c.x, c.y, to_nwc, to_maxrs
                );
                assert!(to_nwc <= to_maxrs + 1e-6, "NWC must never be farther");
            }
            None => println!("{label:>16}: no window with {n} shops exists"),
        }
    }
    println!("\nNWC answers adapt to the query location; MaxRS is location-blind.");
    Ok(())
}
