//! Property tests for kNWC queries (paper Definition 3).
//!
//! The kNWC insertion procedure (§3.4 Steps 1–5) is order-sensitive in
//! rare eviction cascades, so these tests verify the *contract* of
//! Definition 3 — group feasibility, ascending order, pairwise overlap,
//! and optimality of the first group — rather than exact set equality
//! with a particular greedy tie-breaking.

use nwc::core::{oracle, KnwcQuery, QueryError};
use nwc::prelude::*;
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (0u32..80, 0u32..80).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

fn scenario() -> impl Strategy<Value = (Vec<Point>, Point, f64, usize, usize, usize)> {
    (
        proptest::collection::vec(point_strategy(), 10..40),
        point_strategy(),
        4.0f64..20.0,
        2usize..5, // n
        1usize..5, // k
        0usize..3, // m (validated against n below)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn knwc_satisfies_definition3((points, q, size, n, k, m) in scenario()) {
        prop_assume!(m < n);
        let index = NwcIndex::build(points.clone());
        let query = KnwcQuery::new(q, WindowSpec::square(size), n, k, m);
        for scheme in [Scheme::NWC, Scheme::NWC_PLUS, Scheme::NWC_STAR] {
            let r = index.knwc(&query, scheme);
            prop_assert!(r.groups.len() <= k);
            // (1) every group: n distinct objects inside an l×w window.
            for g in &r.groups {
                prop_assert_eq!(g.objects.len(), n);
                let ids = g.id_set();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "duplicate ids");
                prop_assert!(g.window.width() <= size + 1e-9);
                prop_assert!(g.window.height() <= size + 1e-9);
                for e in &g.objects {
                    prop_assert!(g.window.contains_point(&e.point));
                }
            }
            // (3) ascending distances.
            let d: Vec<f64> = r.groups.iter().map(|g| g.distance).collect();
            prop_assert!(d.windows(2).all(|p| p[0] <= p[1]), "{scheme}: {d:?}");
            // (2) pairwise overlap ≤ m.
            for a in 0..r.groups.len() {
                for b in a + 1..r.groups.len() {
                    let ia = r.groups[a].id_set();
                    let ib = r.groups[b].id_set();
                    let shared = ia.iter().filter(|x| ib.binary_search(x).is_ok()).count();
                    prop_assert!(shared <= m, "{scheme}: groups {a},{b} share {shared}");
                }
            }
        }
    }

    #[test]
    fn first_group_is_the_nwc_optimum((points, q, size, n, k, m) in scenario()) {
        prop_assume!(m < n);
        let index = NwcIndex::build(points.clone());
        let query = KnwcQuery::new(q, WindowSpec::square(size), n, k, m);
        let r = index.knwc(&query, Scheme::NWC_STAR);
        let nwc = index.nwc(&query.base, Scheme::NWC_STAR);
        match (r.groups.first(), nwc) {
            (None, None) => {}
            (Some(g), Some(best)) => {
                prop_assert!((g.distance - best.distance).abs() < 1e-9,
                    "kNWC first group {} vs NWC {}", g.distance, best.distance);
            }
            (a, b) => prop_assert!(false, "{:?} vs {:?}",
                a.map(|g| g.distance), b.map(|r| r.distance)),
        }
    }

    #[test]
    fn exact_mode_equals_brute_force_greedy((points, q, size, n, k, m) in scenario()) {
        prop_assume!(m < n);
        let index = NwcIndex::build(points.clone());
        let query = KnwcQuery::new(q, WindowSpec::square(size), n, k, m);
        let greedy = oracle::knwc_brute_force(&points, &query);
        // knwc_exact disables distance pruning and must reproduce the
        // brute-force greedy selection set-for-set, under every scheme
        // (DEP/IWP never drop qualified windows).
        for scheme in [Scheme::NWC, Scheme::DEP, Scheme::IWP, Scheme::NWC_STAR] {
            let r = index.knwc_exact(&query, scheme);
            prop_assert_eq!(r.groups.len(), greedy.len(), "{}", scheme);
            for (g, o) in r.groups.iter().zip(&greedy) {
                prop_assert!((g.distance - o.distance).abs() < 1e-9, "{}", scheme);
                prop_assert_eq!(g.id_set(), o.id_set(), "{}", scheme);
            }
        }
        // The pruned variant keeps the optimal first group and never
        // violates Definition 3's structural conditions (checked in
        // knwc_satisfies_definition3); its first group must agree.
        let pruned = index.knwc(&query, Scheme::NWC_STAR);
        if let (Some(g), Some(o)) = (pruned.groups.first(), greedy.first()) {
            prop_assert!((g.distance - o.distance).abs() < 1e-9);
        }
        prop_assert_eq!(pruned.groups.is_empty(), greedy.is_empty());
    }

    #[test]
    fn knwc_with_k1_equals_nwc((points, q, size, n, _k, m) in scenario()) {
        prop_assume!(m < n);
        let index = NwcIndex::build(points.clone());
        let query = KnwcQuery::new(q, WindowSpec::square(size), n, 1, m);
        let r = index.knwc(&query, Scheme::NWC_PLUS);
        let nwc = index.nwc(&query.base, Scheme::NWC_PLUS);
        match (r.groups.first(), nwc) {
            (None, None) => {}
            (Some(g), Some(best)) => prop_assert!((g.distance - best.distance).abs() < 1e-9),
            (a, b) => prop_assert!(false, "{:?} vs {:?}",
                a.map(|g| g.distance), b.map(|r| r.distance)),
        }
    }
}

/// A struct literal bypasses `KnwcQuery::try_new`; `k = 0` must still be
/// a typed error on every fallible path, not a panic in the top-k sink.
fn zero_k_literal() -> (Vec<Point>, KnwcQuery) {
    let points: Vec<Point> = (0..200)
        .map(|i| Point::new((i % 20) as f64 * 3.0, (i / 20) as f64 * 7.0))
        .collect();
    let valid = KnwcQuery::new(Point::new(30.0, 30.0), WindowSpec::square(10.0), 4, 2, 1);
    (points, KnwcQuery { k: 0, ..valid })
}

#[test]
fn zero_k_literal_is_a_typed_error_unsharded() {
    let (points, query) = zero_k_literal();
    let index = NwcIndex::build(points);
    for scheme in [Scheme::NWC, Scheme::NWC_PLUS, Scheme::NWC_STAR] {
        assert_eq!(index.try_knwc(&query, scheme).unwrap_err(), QueryError::ZeroCount("k"));
    }
    let overlap = KnwcQuery { k: 2, m: 4, ..query };
    assert_eq!(
        index.try_knwc(&overlap, Scheme::NWC_STAR).unwrap_err(),
        QueryError::OverlapBoundTooLarge { m: 4, n: 4 }
    );
}

#[test]
fn zero_k_literal_is_a_typed_error_sharded() {
    let (points, query) = zero_k_literal();
    for shards in [1, 4] {
        let index = ShardedNwcIndex::build(points.clone(), shards);
        let got = index.try_knwc(&query, Scheme::NWC_STAR).unwrap_err();
        assert_eq!(got, QueryError::ZeroCount("k"), "K = {shards}");
        let got = index.try_knwc_exact(&query, Scheme::NWC_STAR).unwrap_err();
        assert_eq!(got, QueryError::ZeroCount("k"), "K = {shards} exact");
    }
}

#[test]
fn zero_k_literal_is_a_typed_error_anytime() {
    let (points, query) = zero_k_literal();
    let index = NwcIndex::build(points.clone());
    let got = index
        .try_knwc_anytime(&query, Scheme::NWC_STAR, &Budget::none(), Approx::exact())
        .unwrap_err();
    assert_eq!(got, QueryError::ZeroCount("k"));
    for shards in [1, 4] {
        let sharded = ShardedNwcIndex::build(points.clone(), shards);
        let got = sharded
            .try_knwc_anytime(&query, Scheme::NWC_STAR, &Budget::none(), Approx::exact())
            .unwrap_err();
        assert_eq!(got, QueryError::ZeroCount("k"), "K = {shards}");
    }
}
