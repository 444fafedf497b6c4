//! Dynamic index updates: inserts and removals must leave the index
//! answering exactly like one rebuilt from scratch over the live set.

use nwc::prelude::*;
use proptest::prelude::*;

/// `(answer, stats)` of an exact NWC request, all or nothing.
fn nwc_full(
    index: &NwcIndex,
    query: &NwcQuery,
    scheme: Scheme,
) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
    let req = SearchRequest::nwc(*query, scheme);
    let out = index.search(&req, &mut QueryScratch::new())?.complete()?;
    let stats = out.stats;
    Ok((out.into_nwc(), stats))
}

fn point_strategy() -> impl Strategy<Value = Point> {
    (0u32..100, 0u32..100).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

/// An update script: initial points, extra inserts, and removal picks.
fn script() -> impl Strategy<Value = (Vec<Point>, Vec<Point>, Vec<prop::sample::Index>)> {
    (
        proptest::collection::vec(point_strategy(), 5..40),
        proptest::collection::vec(point_strategy(), 0..15),
        proptest::collection::vec(any::<prop::sample::Index>(), 0..15),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn updated_index_matches_fresh_rebuild(
        (initial, inserts, removals) in script(),
        q in point_strategy(),
        size in 4.0f64..25.0,
        n in 1usize..5,
    ) {
        let mut index = NwcIndex::build(initial.clone());
        let mut live: Vec<(u32, Point)> =
            initial.iter().enumerate().map(|(i, &p)| (i as u32, p)).collect();

        for &p in &inserts {
            let id = index.insert(p).unwrap();
            live.push((id, p));
        }
        for pick in &removals {
            if live.len() <= n {
                break; // keep enough objects for the query to make sense
            }
            let (id, _) = live.remove(pick.index(live.len()));
            prop_assert!(index.remove(id).unwrap());
            prop_assert!(!index.is_live(id));
            prop_assert!(!index.remove(id).unwrap(), "double-remove must fail");
        }
        prop_assert_eq!(index.len(), live.len());
        nwc::rtree::validate::check_invariants(index.tree()).unwrap();

        // Fresh index over the surviving points.
        let fresh_points: Vec<Point> = live.iter().map(|&(_, p)| p).collect();
        let fresh = NwcIndex::build(fresh_points.clone());

        let query = NwcQuery::new(q, WindowSpec::square(size), n);
        let updated = nwc_full(&index, &query, Scheme::NWC_STAR).unwrap().0.map(|r| r.distance);
        let rebuilt = nwc_full(&fresh, &query, Scheme::NWC_STAR).unwrap().0.map(|r| r.distance);
        match (updated, rebuilt) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            other => prop_assert!(false, "updated vs rebuilt: {other:?}"),
        }

        // The brute-force oracle over the live set agrees too.
        let oracle = nwc::core::oracle::nwc_brute_force(&fresh_points, &query)
            .map(|g| g.distance);
        match (updated, oracle) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            other => prop_assert!(false, "updated vs oracle: {other:?}"),
        }
    }

    #[test]
    fn grid_counts_track_updates(
        (initial, inserts, removals) in script(),
    ) {
        let mut index = NwcIndex::build(initial.clone());
        let mut ids: Vec<u32> = (0..initial.len() as u32).collect();
        for &p in &inserts {
            ids.push(index.insert(p).unwrap());
        }
        for pick in &removals {
            if ids.len() <= 1 {
                break;
            }
            let id = ids.remove(pick.index(ids.len()));
            index.remove(id).unwrap();
        }
        let grid = index.grid().expect("grid built by default");
        prop_assert_eq!(grid.total_objects(), index.len());
        // The grid bound over the whole space equals the live count.
        prop_assert_eq!(grid.count_upper_bound(&grid.bounds()), index.len());
    }
}

#[test]
fn removed_objects_never_appear_in_results() {
    // Remove the entire near cluster; answers must shift to the far one.
    let mut pts = vec![
        Point::new(10.0, 10.0),
        Point::new(11.0, 11.0),
        Point::new(12.0, 10.5),
    ];
    pts.extend([
        Point::new(70.0, 70.0),
        Point::new(71.0, 71.0),
        Point::new(72.0, 70.5),
    ]);
    let mut index = NwcIndex::build(pts);
    let query = NwcQuery::new(Point::new(0.0, 0.0), WindowSpec::square(6.0), 3);
    let before = nwc_full(&index, &query, Scheme::NWC_PLUS).unwrap().0.unwrap();
    assert_eq!(before.ids().iter().max().copied().unwrap(), 2);

    for id in 0..3 {
        assert!(index.remove(id).unwrap());
    }
    let after = nwc_full(&index, &query, Scheme::NWC_PLUS).unwrap().0.unwrap();
    let mut ids = after.ids();
    ids.sort_unstable();
    assert_eq!(ids, vec![3, 4, 5]);
}

#[test]
fn iwp_scheme_answers_right_after_an_update() {
    let pts: Vec<Point> = (0..100)
        .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
        .collect();
    let mut index = NwcIndex::build(pts);
    index.insert(Point::new(50.0, 50.0)).unwrap();
    let query = NwcQuery::new(Point::new(0.0, 0.0), WindowSpec::square(4.0), 2);
    // IWP keeps no structure a write could invalidate: right after the
    // insert, with nothing rebuilt, NWC* answers exactly like NWC+.
    let star = nwc_full(&index, &query, Scheme::NWC_STAR).map(|(r, _)| r).unwrap().expect("pair exists");
    let reference = nwc_full(&index, &query, Scheme::NWC_PLUS).unwrap().0.expect("pair exists");
    assert_eq!(star.ids(), reference.ids());
    assert_eq!(star.distance, reference.distance);
}

#[test]
fn dep_stays_correct_for_inserts_outside_the_original_space() {
    // Regression: out-of-bounds points clamp into the grid's border
    // cells; the grid bound must still see them for rects beyond the
    // bounds, or DEP would prune a qualified far-away window.
    let base: Vec<Point> = (0..50)
        .map(|i| Point::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0))
        .collect();
    let mut index = NwcIndex::build(base);
    // A tight cluster far outside the original bounding box.
    for d in 0..3 {
        index.insert(Point::new(500.0 + d as f64, 500.0 + d as f64)).unwrap();
    }
    let query = NwcQuery::new(Point::new(400.0, 400.0), WindowSpec::square(8.0), 3);
    let with_dep = nwc_full(&index, &query, Scheme::NWC_STAR).unwrap().0.expect("cluster must be found");
    let without_dep = nwc_full(&index, &query, Scheme::NWC_PLUS).unwrap().0.expect("cluster must be found");
    assert!((with_dep.distance - without_dep.distance).abs() < 1e-9);
    let mut ids = with_dep.ids();
    ids.sort_unstable();
    assert_eq!(ids, vec![50, 51, 52]);
}

#[test]
fn nwc_star_after_a_write_matches_the_oracle_and_beats_nwc_plus() {
    // Right after an insert NWC* fetches each leaf's shared
    // neighbourhood from the root through its node memo: exact, and far
    // cheaper than NWC+'s root window query per visited object.
    use nwc::core::oracle;
    use nwc::datagen::CA_CARDINALITY;
    let mut points = Dataset::paper_trio_scaled(CA_CARDINALITY / 20, 100, 100, 2016)
        .swap_remove(0)
        .points;
    let mut index = NwcIndex::build(points.clone());
    let extra = Point::new(5_000.0, 5_000.0);
    index.insert(extra).unwrap();
    points.push(extra);
    let (mut star_io, mut plus_io) = (0, 0);
    for (i, q) in Dataset::query_points(25, 2016).into_iter().enumerate() {
        let query = NwcQuery::new(q, WindowSpec::square(64.0), 8);
        let (star, star_stats) = nwc_full(&index, &query, Scheme::NWC_STAR).unwrap();
        let (plus, plus_stats) = nwc_full(&index, &query, Scheme::NWC_PLUS).unwrap();
        star_io += star_stats.io_total;
        plus_io += plus_stats.io_total;
        let ids = |r: &Option<NwcResult>| {
            r.as_ref().map(|g| {
                let mut ids = g.ids();
                ids.sort_unstable();
                (g.distance, ids)
            })
        };
        assert_eq!(ids(&star), ids(&plus), "q={q:?}");
        // The brute-force oracle is quadratic in the data: check the
        // first few queries against it.
        if i < 4 {
            let want = oracle::nwc_brute_force(&points, &query);
            assert_eq!(
                ids(&star),
                want.map(|o| (o.distance, o.id_set())),
                "q={q:?}"
            );
        }
    }
    assert!(
        star_io < plus_io,
        "NWC* {star_io} node accesses, NWC+ {plus_io}"
    );
}
