//! Property tests for the MaxRS baseline and the density grid.

use nwc::core::maxrs::{maxrs, maxrs_brute_force};
use nwc::geom::{window::WindowSpec, Point, Rect};
use nwc::grid::DensityGrid;
use proptest::prelude::*;

fn lattice_point() -> impl Strategy<Value = Point> {
    // Integer-ish coordinates provoke boundary coincidences.
    (0u32..60, 0u32..60, 0u32..2, 0u32..2)
        .prop_map(|(x, y, jx, jy)| Point::new(x as f64 + jx as f64 * 0.5, y as f64 + jy as f64 * 0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn maxrs_matches_brute_force(
        points in proptest::collection::vec(lattice_point(), 1..60),
        l in 1.0f64..20.0,
        w in 1.0f64..20.0,
    ) {
        let spec = WindowSpec::new(l, w);
        let fast = maxrs(&points, &spec).unwrap();
        let slow = maxrs_brute_force(&points, &spec).unwrap();
        prop_assert_eq!(fast.count, slow.count);
        // The reported window must achieve the reported count.
        let achieved = points.iter().filter(|p| fast.window.contains_point(p)).count();
        prop_assert_eq!(achieved, fast.count);
        // And have the right dimensions.
        prop_assert!((fast.window.width() - l).abs() < 1e-9);
        prop_assert!((fast.window.height() - w).abs() < 1e-9);
    }

    #[test]
    fn maxrs_count_is_monotone_in_window_size(
        points in proptest::collection::vec(lattice_point(), 1..60),
        l in 1.0f64..15.0,
        w in 1.0f64..15.0,
        grow in 1.0f64..10.0,
    ) {
        let small = maxrs(&points, &WindowSpec::new(l, w)).unwrap();
        let large = maxrs(&points, &WindowSpec::new(l + grow, w + grow)).unwrap();
        prop_assert!(large.count >= small.count);
    }

    #[test]
    fn grid_bound_is_safe_and_exact_on_whole_space(
        points in proptest::collection::vec(lattice_point(), 0..200),
        cells in 1usize..50,
        qx in 0.0f64..60.0,
        qy in 0.0f64..60.0,
        qw in 0.0f64..30.0,
        qh in 0.0f64..30.0,
    ) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(61.0, 61.0));
        let grid = DensityGrid::build(bounds, cells, &points);
        prop_assert_eq!(grid.count_upper_bound(&bounds), points.len());
        let query = Rect::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let actual = points.iter().filter(|p| query.contains_point(p)).count();
        prop_assert!(grid.count_upper_bound(&query) >= actual);
    }

    #[test]
    fn finer_grid_never_looser(
        points in proptest::collection::vec(lattice_point(), 0..150),
        qx in 0.0f64..50.0,
        qy in 0.0f64..50.0,
    ) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(61.0, 61.0));
        let query = Rect::new(Point::new(qx, qy), Point::new(qx + 8.0, qy + 8.0));
        // A 2x-refined grid whose cell boundaries nest inside the coarse
        // ones can only tighten the bound.
        let coarse = DensityGrid::build(bounds, 8, &points);
        let fine = DensityGrid::build(bounds, 16, &points);
        prop_assert!(fine.count_upper_bound(&query) <= coarse.count_upper_bound(&query));
    }

    #[test]
    fn grid_bound_is_safe_after_every_update(
        cells in 1usize..50,
        initial in proptest::collection::vec(lattice_point(), 0..100),
        script in proptest::collection::vec(
            (0u8..5, -10.0f64..71.0, -10.0f64..71.0, any::<prop::sample::Index>()),
            0..900,
        ),
        queries in proptest::collection::vec(
            (-10.0f64..65.0, -10.0f64..65.0, 0.0f64..70.0, 0.0f64..70.0),
            1..6,
        ),
    ) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(61.0, 61.0));
        let mut grid = DensityGrid::build(bounds, cells, &initial);
        let mut live = initial;
        let queries: Vec<Rect> = queries
            .into_iter()
            .map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
            .collect();
        for (kind, x, y, pick) in script {
            let added = match kind {
                // Most inserts hit one spot, so its cell often passes
                // 255 and is later drained by removals.
                0..=2 => Some(Point::new(30.5, 30.5)),
                // Others land anywhere, beyond the bounds included
                // (clamped into border cells).
                3 => Some(Point::new(x, y)),
                _ => None,
            };
            match added {
                Some(p) => {
                    grid.add_point(&p);
                    live.push(p);
                }
                None if !live.is_empty() => {
                    let gone = live.swap_remove(pick.index(live.len()));
                    grid.remove_point(&gone);
                }
                None => {}
            }
            for q in &queries {
                let actual = live.iter().filter(|p| q.contains_point(p)).count();
                prop_assert!(grid.count_upper_bound(q) >= actual);
            }
        }
    }
}
