//! Visual walkthrough: render the dataset as an ASCII density map, drop
//! a query point in, and mark where the nearest window cluster landed.
//!
//! Run with: `cargo run --release --example city_map`

use nwc::prelude::*;

fn main() -> Result<(), QueryError> {
    let city = Dataset::clustered(6_000, 8, 20.0, 80.0, 0.08, 99);
    let index = NwcIndex::build(city.points.clone());

    let q = Point::new(3_000.0, 6_500.0);
    let query = NwcQuery::new(q, WindowSpec::square(120.0), 10);
    let outcome = index.search(&SearchRequest::nwc(query, Scheme::NWC_STAR), &mut QueryScratch::new())?;
    let result = outcome.nwc().expect("clusters exist");

    const COLS: usize = 72;
    const ROWS: usize = 30;
    let mut map: Vec<Vec<char>> = city
        .density_map(COLS, ROWS)
        .lines()
        .map(|l| l.chars().collect())
        .collect();

    let mark = |map: &mut Vec<Vec<char>>, p: &Point, glyph: char| {
        let col = ((p.x / 10_000.0) * COLS as f64).clamp(0.0, COLS as f64 - 1.0) as usize;
        // Row 0 renders the top of the space.
        let row = ROWS - 1 - ((p.y / 10_000.0) * ROWS as f64).clamp(0.0, ROWS as f64 - 1.0) as usize;
        map[row][col] = glyph;
    };
    mark(&mut map, &q, 'Q');
    mark(&mut map, &result.window.center(), 'X');

    println!("Density map (Q = you, X = nearest 10-shop window):\n");
    for row in &map {
        println!("{}", row.iter().collect::<String>());
    }
    println!(
        "\nNWC found {} shops at distance {:.0} using {} node accesses",
        result.objects.len(),
        result.distance,
        result.stats.io_total
    );
    println!(
        "Window: x ∈ [{:.0}, {:.0}], y ∈ [{:.0}, {:.0}]",
        result.window.min.x, result.window.max.x, result.window.min.y, result.window.max.y
    );
    Ok(())
}
