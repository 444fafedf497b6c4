//! Property tests: the zero-allocation warm path (`nwc_with` with a
//! reused `QueryScratch`) and the parallel `QueryEngine` batch path are
//! result- and I/O-count-identical to the plain sequential API, under
//! every optimization scheme.
//!
//! This is the safety claim of the scratch/engine layer: reusing
//! buffers or distributing queries across workers changes *when and
//! where* memory lives, never what the search does — the attributed
//! `SearchStats` (a field-for-field `Eq` comparison, including every
//! I/O counter) must come out identical.

use nwc::core::{CancelFlag, CancelKind, QueryScratch};
use nwc::prelude::*;
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    // Lattice plus jitter, as in oracle_equivalence: provokes boundary
    // ties that uniform floats almost never hit.
    (0u32..100, 0u32..100, 0u32..4, 0u32..4)
        .prop_map(|(x, y, jx, jy)| Point::new(x as f64 + jx as f64 * 0.25, y as f64 + jy as f64 * 0.25))
}

fn scenario() -> impl Strategy<Value = (Vec<Point>, Vec<Point>, f64, f64, usize)> {
    (
        proptest::collection::vec(point_strategy(), 8..48),
        proptest::collection::vec(point_strategy(), 2..8),
        2.0f64..24.0,
        2.0f64..24.0,
        1usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One scratch reused across many queries (warm path) must behave
    /// exactly like a fresh allocation per query, for every scheme.
    #[test]
    fn warm_scratch_matches_plain_nwc((points, qs, l, w, n) in scenario()) {
        let index = NwcIndex::build(points);
        let spec = WindowSpec::new(l, w);
        for scheme in Scheme::TABLE3 {
            let mut scratch = QueryScratch::new();
            for &q in &qs {
                let query = NwcQuery::new(q, spec, n);
                let (want, want_stats) = index.nwc_full(&query, scheme);
                let (got, got_stats) = index.nwc_full_with(&query, scheme, &mut scratch);
                // I/O counts (and every other counter) must be unchanged
                // by scratch reuse.
                prop_assert_eq!(got_stats, want_stats, "{} stats diverged", scheme);
                match (&want, &got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.ids(), b.ids(), "{} group diverged", scheme);
                        prop_assert!((a.distance - b.distance).abs() < 1e-12);
                    }
                    _ => prop_assert!(false, "{scheme}: hit/miss diverged"),
                }
            }
        }
    }

    /// Engine batches must equal the sequential API query-for-query, at
    /// several thread counts, for every scheme.
    #[test]
    fn engine_batch_matches_plain_nwc((points, qs, l, w, n) in scenario()) {
        let index = NwcIndex::build(points);
        let spec = WindowSpec::new(l, w);
        let queries: Vec<NwcQuery> = qs.iter().map(|&q| NwcQuery::new(q, spec, n)).collect();
        for scheme in Scheme::TABLE3 {
            let want: Vec<_> = queries.iter().map(|q| index.nwc_full(q, scheme)).collect();
            for threads in [1usize, 3] {
                let engine = QueryEngine::new(&index).with_threads(threads);
                let got = engine.nwc_batch(&queries, scheme);
                prop_assert_eq!(got.len(), want.len());
                for (i, ((gr, gs), (wr, ws))) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(gs, ws, "{} t={} stats diverged at {}", scheme, threads, i);
                    prop_assert_eq!(
                        gr.as_ref().map(|r| r.ids()),
                        wr.as_ref().map(|r| r.ids()),
                        "{} t={} group diverged at {}", scheme, threads, i
                    );
                }
            }
        }
    }

    /// The anytime batch path in exact mode is the plain batch path,
    /// slot for slot — and a pre-tripped cancel flag turns every slot
    /// into a typed partial with an individually valid bound, never a
    /// blanket error.
    #[test]
    fn engine_anytime_batches_match_and_trip_per_query((points, qs, l, w, n) in scenario()) {
        let index = NwcIndex::build(points);
        let spec = WindowSpec::new(l, w);
        let queries: Vec<NwcQuery> = qs.iter().map(|&q| NwcQuery::new(q, spec, n)).collect();
        let want: Vec<_> = queries.iter().map(|q| index.nwc_full(q, Scheme::NWC_STAR)).collect();
        let engine = QueryEngine::new(&index).with_threads(3);

        // Exact mode, unarmed budget: bit-identical to the plain batch.
        let exact = engine.try_nwc_batch_cancel(&queries, Scheme::NWC_STAR, &Budget::none());
        prop_assert_eq!(exact.len(), want.len());
        for (i, (slot, (wr, ws))) in exact.iter().zip(&want).enumerate() {
            let a = slot.as_ref().expect("arena batches cannot fail");
            prop_assert!(a.exhausted.is_none(), "slot {}: unarmed token fired", i);
            prop_assert_eq!(&a.stats, ws, "slot {} stats diverged", i);
            prop_assert_eq!(
                a.answer.as_ref().map(|r| (r.ids(), r.distance.to_bits())),
                wr.as_ref().map(|r| (r.ids(), r.distance.to_bits())),
                "slot {} diverged", i
            );
        }

        // Pre-tripped flag: every slot is its own typed partial whose
        // bound brackets that query's true optimum from below.
        let flag = CancelFlag::new();
        flag.stop();
        let tripped =
            engine.try_nwc_batch_cancel(&queries, Scheme::NWC_STAR, &Budget::with_flag(&flag));
        prop_assert_eq!(tripped.len(), want.len());
        for (i, (slot, (wr, _))) in tripped.iter().zip(&want).enumerate() {
            let a = slot.as_ref().expect("a tripped flag is a partial, not an error");
            prop_assert_eq!(a.exhausted, Some(CancelKind::Stopped), "slot {}", i);
            prop_assert!(a.error_bound >= 0.0);
            match wr {
                None => prop_assert!(a.answer.is_none(), "slot {}: invented a group", i),
                Some(w_) => {
                    let tol = 1e-9 * w_.distance.abs().max(1.0);
                    prop_assert!(
                        a.lower_bound <= w_.distance + tol,
                        "slot {}: lower bound {} above optimum {}", i, a.lower_bound, w_.distance
                    );
                    if let Some(r) = &a.answer {
                        prop_assert!(r.distance >= w_.distance - tol);
                        prop_assert!(r.distance - a.error_bound <= w_.distance + tol);
                    }
                }
            }
        }

        // A per-query I/O allowance applies to each slot separately.
        let budget = Budget::none().io_limit(2);
        for (i, slot) in engine
            .try_nwc_batch_budget(&queries, Scheme::NWC_STAR, &budget, Approx::exact())
            .iter()
            .enumerate()
        {
            let a = slot.as_ref().expect("budget trips are partials");
            prop_assert!(
                a.exhausted.is_some() || a.stats.io_total <= 2,
                "slot {}: ran past its own allowance silently", i
            );
        }
    }

    /// Same for kNWC: warm scratch and engine batches agree with the
    /// plain `knwc` on groups, scores, and stats.
    #[test]
    fn knwc_warm_and_batch_match((points, qs, l, w, n) in scenario()) {
        let index = NwcIndex::build(points);
        let spec = WindowSpec::new(l, w);
        let queries: Vec<KnwcQuery> = qs
            .iter()
            .map(|&q| KnwcQuery::new(q, spec, n, 3, n.saturating_sub(1).min(1)))
            .collect();
        for scheme in [Scheme::NWC_PLUS, Scheme::NWC_STAR] {
            let want: Vec<KnwcResult> = queries.iter().map(|q| index.knwc(q, scheme)).collect();

            let mut scratch = QueryScratch::new();
            for (q, w_) in queries.iter().zip(&want) {
                let got = index.knwc_with(q, scheme, &mut scratch);
                prop_assert_eq!(got.stats, w_.stats, "{} warm stats diverged", scheme);
                prop_assert_eq!(got.groups.len(), w_.groups.len());
                for (a, b) in got.groups.iter().zip(&w_.groups) {
                    prop_assert_eq!(a.id_set(), b.id_set());
                    prop_assert!((a.distance - b.distance).abs() < 1e-12);
                }
            }

            let batch = QueryEngine::new(&index)
                .with_threads(2)
                .knwc_batch(&queries, scheme);
            for (got, w_) in batch.iter().zip(&want) {
                prop_assert_eq!(got.stats, w_.stats, "{} batch stats diverged", scheme);
                prop_assert_eq!(got.groups.len(), w_.groups.len());
                for (a, b) in got.groups.iter().zip(&w_.groups) {
                    prop_assert_eq!(a.id_set(), b.id_set());
                }
            }
        }
    }
}
