//! Property tests: every optimization scheme returns the optimal group
//! score, matching an exhaustive brute-force oracle, under every
//! distance measure.
//!
//! This is the central correctness claim of the paper — the
//! optimizations are *pruning-only* and must never change the answer
//! (only the I/O cost).

use nwc::core::oracle;
use nwc::core::DistanceMeasure;
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
    // A coarse lattice plus jitter provokes boundary ties (objects
    // exactly on window edges) that uniform floats almost never hit.
    (0u32..100, 0u32..100, 0u32..4, 0u32..4)
        .prop_map(|(x, y, jx, jy)| Point::new(x as f64 + jx as f64 * 0.25, y as f64 + jy as f64 * 0.25))
}

fn scenario() -> impl Strategy<Value = (Vec<Point>, Point, f64, f64, usize)> {
    (
        proptest::collection::vec(point_strategy(), 8..48),
        point_strategy(),
        2.0f64..24.0,
        2.0f64..24.0,
        1usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schemes_match_oracle((points, q, l, w, n) in scenario()) {
        let index = NwcIndex::build(points.clone());
        for measure in DistanceMeasure::ALL {
            let query = NwcQuery::new(q, WindowSpec::new(l, w), n).with_measure(measure);
            let want = oracle::nwc_brute_force(&points, &query);
            for scheme in Scheme::TABLE3 {
                let got = nwc_full(&index, &query, scheme).unwrap().0;
                match (&want, &got) {
                    (None, None) => {}
                    (Some(w_), Some(g)) => {
                        prop_assert!(
                            (w_.distance - g.distance).abs() < 1e-9,
                            "{scheme} {measure:?}: oracle {} vs algo {} (n={n})",
                            w_.distance, g.distance
                        );
                        // The returned group must actually fit a window
                        // and have the claimed score.
                        let rescore = measure.score(&q, &g.objects, &query.spec);
                        prop_assert!((rescore - g.distance).abs() < 1e-9);
                    }
                    _ => prop_assert!(
                        false,
                        "{scheme} {measure:?}: oracle {:?} vs algo {:?}",
                        want.as_ref().map(|x| x.distance),
                        got.as_ref().map(|x| x.distance)
                    ),
                }
            }
        }
    }

    #[test]
    fn result_groups_are_feasible((points, q, l, w, n) in scenario()) {
        let index = NwcIndex::build(points.clone());
        let query = NwcQuery::new(q, WindowSpec::new(l, w), n);
        if let Some(r) = nwc_full(&index, &query, Scheme::NWC_STAR).unwrap().0 {
            prop_assert_eq!(r.objects.len(), n);
            // Distinct objects.
            let mut ids = r.ids();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), n);
            // All inside the reported window, which has legal dimensions.
            prop_assert!(r.window.width() <= l + 1e-9);
            prop_assert!(r.window.height() <= w + 1e-9);
            for e in &r.objects {
                prop_assert!(r.window.contains_point(&e.point));
            }
            // Ordered by ascending distance to q.
            let d: Vec<f64> = r.objects.iter().map(|e| e.point.dist(&q)).collect();
            prop_assert!(d.windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn none_only_when_nothing_qualifies((points, q, l, w, n) in scenario()) {
        let index = NwcIndex::build(points.clone());
        let query = NwcQuery::new(q, WindowSpec::new(l, w), n);
        let got = nwc_full(&index, &query, Scheme::NWC_STAR).unwrap().0;
        let want = oracle::nwc_brute_force(&points, &query);
        prop_assert_eq!(got.is_some(), want.is_some());
    }

    #[test]
    fn exact_anytime_is_bit_identical((points, q, l, w, n) in scenario()) {
        // ε = 0 with an unarmed budget is not "approximately exact": the
        // anytime path must reproduce the exact search bit for bit —
        // same group, same distance bits, same logical I/O profile.
        let index = NwcIndex::build(points);
        let mut scratch = QueryScratch::new();
        for measure in DistanceMeasure::ALL {
            let query = NwcQuery::new(q, WindowSpec::new(l, w), n).with_measure(measure);
            for scheme in Scheme::TABLE3 {
                let req = SearchRequest::nwc(query, scheme);
                let exact = index
                    .search(&req, &mut scratch)
                    .and_then(Outcome::complete)
                    .expect("arena query cannot fail");
                let exact_stats = exact.stats;
                let exact = exact.into_nwc();
                let req = req.with_budget(Budget::none()).with_approx(Approx::exact());
                let a = index.search(&req, &mut scratch).expect("arena query cannot fail");
                prop_assert!(a.exhausted.is_none(), "{scheme} {measure:?}: unarmed budget expired");
                prop_assert_eq!(
                    a.stats, exact_stats,
                    "{} {:?}: anytime did different work than exact", scheme, measure
                );
                match (&exact, a.nwc()) {
                    (None, None) => {
                        prop_assert_eq!(a.error_bound, 0.0);
                    }
                    (Some(e), Some(g)) => {
                        prop_assert_eq!(e.distance.to_bits(), g.distance.to_bits());
                        prop_assert_eq!(e.ids(), g.ids());
                        prop_assert_eq!(e.window, g.window);
                        // A complete exact run has nothing left to bound.
                        prop_assert_eq!(a.error_bound, 0.0);
                        prop_assert!(a.lower_bound >= e.distance - 1e-12);
                    }
                    _ => prop_assert!(
                        false,
                        "{scheme} {measure:?}: exact {:?} vs anytime {:?}",
                        exact.as_ref().map(|x| x.distance),
                        a.nwc().map(|x| x.distance)
                    ),
                }
            }
        }
    }

    #[test]
    fn budgeted_anytime_brackets_the_oracle((points, q, l, w, n) in scenario()) {
        // Under any (ε, I/O budget) cell the returned bounds must
        // bracket the true optimum d*: lower_bound ≤ d*, and any
        // returned answer scores ≥ d* with distance − error_bound ≤ d*.
        let index = NwcIndex::build(points.clone());
        let mut scratch = QueryScratch::new();
        let query = NwcQuery::new(q, WindowSpec::new(l, w), n);
        let oracle_best = oracle::nwc_brute_force(&points, &query).map(|r| r.distance);
        for scheme in Scheme::TABLE3 {
            for epsilon in [0.0, 0.25, 1.0] {
                let approx = Approx::new(epsilon).expect("valid sweep epsilon");
                for io in [0u64, 2, 8, 32, u64::MAX] {
                    let budget = if io == u64::MAX { Budget::none() } else { Budget::none().io_limit(io) };
                    let req = SearchRequest::nwc(query, scheme).with_budget(budget.clone()).with_approx(approx);
                    let a = index
                        .search(&req, &mut scratch)
                        .expect("budget expiry is a typed partial, not an error");
                    prop_assert!(a.error_bound >= 0.0);
                    prop_assert!(a.lower_bound >= 0.0);
                    if let Some(lim) = budget.io_allowance() {
                        prop_assert!(
                            a.exhausted.is_some() || a.stats.io_total <= lim,
                            "ε={epsilon} io={io}: ran past the allowance without reporting exhaustion"
                        );
                    }
                    match oracle_best {
                        None => prop_assert!(
                            a.nwc().is_none(),
                            "ε={epsilon} io={io}: invented a group the oracle says cannot exist"
                        ),
                        Some(d_star) => {
                            let tol = 1e-9 * d_star.abs().max(1.0);
                            prop_assert!(
                                a.lower_bound <= d_star + tol,
                                "ε={epsilon} io={io}: lower bound {} exceeds optimum {}",
                                a.lower_bound, d_star
                            );
                            if let Some(r) = a.nwc() {
                                prop_assert!(r.distance >= d_star - tol, "answer beat the oracle");
                                prop_assert!(
                                    r.distance - a.error_bound <= d_star + tol,
                                    "ε={epsilon} io={io}: error bound {} does not bracket {} vs {}",
                                    a.error_bound, r.distance, d_star
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn insertion_built_index_agrees((points, q, l, w, n) in scenario()) {
        // The answer must not depend on how the tree was built.
        let bulk = NwcIndex::build(points.clone());
        let incremental = NwcIndex::build_with(
            points,
            nwc::core::IndexConfig { bulk_load: false, ..Default::default() },
        );
        let query = NwcQuery::new(q, WindowSpec::new(l, w), n);
        let a = nwc_full(&bulk, &query, Scheme::NWC_STAR).unwrap().0.map(|r| r.distance);
        let b = nwc_full(&incremental, &query, Scheme::NWC_STAR).unwrap().0.map(|r| r.distance);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            _ => prop_assert!(false, "bulk {a:?} vs incremental {b:?}"),
        }
    }
}
