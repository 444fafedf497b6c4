//! Property tests for the weighted NWC extension.

use nwc::core::weighted::{weighted_brute_force, WeightedNwcIndex, WeightedQuery};
use nwc::prelude::*;
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (0u32..80, 0u32..80).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

fn scenario() -> impl Strategy<Value = (Vec<Point>, Vec<f64>, Point, f64, f64)> {
    (proptest::collection::vec(point_strategy(), 5..40)).prop_flat_map(|points| {
        let n = points.len();
        (
            Just(points),
            proptest::collection::vec(0.25f64..5.0, n..=n),
            point_strategy(),
            3.0f64..20.0,  // window size
            1.0f64..15.0,  // weight threshold
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_schemes_match_oracle((points, weights, q, size, min_w) in scenario()) {
        let index = WeightedNwcIndex::build(points.clone(), weights.clone());
        let query = WeightedQuery::new(q, WindowSpec::square(size), min_w);
        let want = weighted_brute_force(&points, &weights, &query).map(|(_, s)| s);
        for scheme in Scheme::TABLE3 {
            let got = index.query(&query, scheme).expect("arena query cannot fail");
            match (&got, want) {
                (None, None) => {}
                (Some((r, total)), Some(s)) => {
                    prop_assert!((r.distance - s).abs() < 1e-9,
                        "{scheme}: {} vs oracle {s}", r.distance);
                    // The group truly reaches the threshold and is minimal
                    // under the greedy rule (dropping the farthest member
                    // goes below the threshold).
                    prop_assert!(*total >= min_w);
                    let without_last: f64 = r.objects[..r.objects.len() - 1]
                        .iter()
                        .map(|e| index.weight(e.id))
                        .sum();
                    prop_assert!(without_last < min_w);
                    // All inside a legal window.
                    prop_assert!(r.window.width() <= size + 1e-9);
                    for e in &r.objects {
                        prop_assert!(r.window.contains_point(&e.point));
                    }
                }
                other => prop_assert!(false, "{scheme}: {other:?}"),
            }
        }
    }

    #[test]
    fn unit_weights_reduce_to_plain_nwc((points, _w, q, size, _mw) in scenario()) {
        let n = 3usize.min(points.len());
        let widx = WeightedNwcIndex::build(points.clone(), vec![1.0; points.len()]);
        let idx = NwcIndex::build(points);
        let wq = WeightedQuery::new(q, WindowSpec::square(size), n as f64);
        let nq = NwcQuery::new(q, WindowSpec::square(size), n);
        let a = widx.query(&wq, Scheme::NWC_STAR).unwrap().map(|(r, _)| r.distance);
        let req = SearchRequest::nwc(nq, Scheme::NWC_STAR);
        let b = idx.search(&req, &mut QueryScratch::new()).unwrap().nwc().map(|r| r.distance);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}"),
            other => prop_assert!(false, "{other:?}"),
        }
    }

    #[test]
    fn raising_threshold_never_brings_result_closer(
        (points, weights, q, size, min_w) in scenario(),
        extra in 0.5f64..10.0,
    ) {
        let index = WeightedNwcIndex::build(points, weights);
        let lo = index.query(
            &WeightedQuery::new(q, WindowSpec::square(size), min_w),
            Scheme::NWC_STAR,
        ).unwrap();
        let hi = index.query(
            &WeightedQuery::new(q, WindowSpec::square(size), min_w + extra),
            Scheme::NWC_STAR,
        ).unwrap();
        match (lo, hi) {
            (_, None) => {}
            (Some((a, _)), Some((b, _))) => {
                prop_assert!(b.distance + 1e-9 >= a.distance,
                    "harder threshold got closer: {} < {}", b.distance, a.distance);
            }
            (None, Some(_)) => prop_assert!(false, "harder threshold found a result"),
        }
    }
}
