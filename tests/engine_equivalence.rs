//! Property tests over one table of requests, each answered four ways
//! — by `QueryEngine::search_batch`, by sequential `search` on a fresh
//! and on a warm `QueryScratch`, and by the benchmark adapter's wrapper
//! — on the unsharded index and on K ∈ {1, 4} shards, under every
//! optimization scheme. Each test runs the table's checks over its own
//! rows.
//!
//! This is the safety claim of the request/scratch/engine layer:
//! reusing buffers or distributing requests across workers changes
//! *when and where* memory lives, never what the search does — the
//! attributed `SearchStats` (a field-for-field `Eq` comparison,
//! including every I/O counter), the groups and, for a budgeted or
//! approximate request, its bound and stop reason must come out
//! identical. K = 1 must also equal the unsharded outcome bit for bit.

use nwc::core::{AnytimeNwc, CancelFlag, CancelKind, Query, QueryScratch};
use nwc::prelude::*;
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    // Lattice plus jitter, as in oracle_equivalence: provokes boundary
    // ties that uniform floats almost never hit.
    (0u32..100, 0u32..100, 0u32..4, 0u32..4).prop_map(|(x, y, jx, jy)| {
        Point::new(x as f64 + jx as f64 * 0.25, y as f64 + jy as f64 * 0.25)
    })
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

/// One row of the table: a name, how to build its request from an NWC
/// query and a scheme, and whether it is anytime (its outcome's bound
/// and stop reason are part of the answer) or all or nothing.
type Row = (
    &'static str,
    Box<dyn Fn(NwcQuery, Scheme) -> SearchRequest>,
    bool,
);

fn rows(stopped: &CancelFlag) -> Vec<Row> {
    let stopped = stopped.clone();
    vec![
        ("nwc", Box::new(SearchRequest::nwc), false),
        (
            "unarmed",
            Box::new(|q, scheme| SearchRequest::nwc(q, scheme).with_budget(Budget::none())),
            true,
        ),
        (
            "knwc",
            Box::new(|q: NwcQuery, scheme| {
                let m = q.n.saturating_sub(1).min(1);
                SearchRequest::knwc(KnwcQuery { base: q, k: 3, m }, scheme)
            }),
            false,
        ),
        (
            "io-limited",
            Box::new(|q, scheme| {
                SearchRequest::nwc(q, scheme).with_budget(Budget::with_io_limit(2))
            }),
            true,
        ),
        (
            "epsilon-0.1",
            Box::new(|q, scheme| {
                SearchRequest::nwc(q, scheme).with_approx(Approx::new(0.1).expect("valid epsilon"))
            }),
            true,
        ),
        (
            "stopped",
            Box::new(move |q, scheme| {
                SearchRequest::nwc(q, scheme).with_budget(Budget::with_flag(&stopped))
            }),
            true,
        ),
    ]
}

/// What a request returned, down to the bits: each group's ids in
/// result order with its distance, the search's counters, and — for an
/// anytime row — its bound and why it stopped.
#[derive(Debug, PartialEq)]
struct Key {
    groups: Vec<(Vec<u32>, u64)>,
    stats: SearchStats,
    bound: Option<(u64, u64, Option<CancelKind>)>,
}

fn group_key(objects: &[nwc::core::Entry], distance: f64) -> (Vec<u32>, u64) {
    (objects.iter().map(|e| e.id).collect(), distance.to_bits())
}

fn key(out: &Outcome, anytime: bool) -> Key {
    let groups = out.clone().into_knwc().groups;
    Key {
        groups: groups
            .iter()
            .map(|g| group_key(&g.objects, g.distance))
            .collect(),
        stats: out.stats,
        bound: anytime.then_some((
            out.lower_bound.to_bits(),
            out.error_bound.to_bits(),
            out.exhausted,
        )),
    }
}

fn nwc_key(result: Option<NwcResult>, stats: SearchStats) -> Key {
    Key {
        groups: result
            .iter()
            .map(|r| group_key(&r.objects, r.distance))
            .collect(),
        stats,
        bound: None,
    }
}

fn knwc_key(result: KnwcResult) -> Key {
    Key {
        groups: result
            .groups
            .iter()
            .map(|g| group_key(&g.objects, g.distance))
            .collect(),
        stats: result.stats,
        bound: None,
    }
}

fn anytime_key(a: AnytimeNwc) -> Key {
    let bound = Some((
        a.lower_bound.to_bits(),
        a.error_bound.to_bits(),
        a.exhausted,
    ));
    Key {
        bound,
        ..nwc_key(a.answer, a.stats)
    }
}

/// `req` through the unsharded index's benchmark wrapper.
fn wrapper_key(
    index: &NwcIndex,
    req: &SearchRequest,
    anytime: bool,
    scratch: &mut QueryScratch,
) -> Key {
    let scheme = req.scheme;
    let result = match (&req.query, anytime) {
        (Query::Knwc(q), _) => index.try_knwc_with(q, scheme, scratch).map(knwc_key),
        (Query::Nwc(q), false) => index
            .try_nwc_full_with(q, scheme, scratch)
            .map(|(r, s)| nwc_key(r, s)),
        (Query::Nwc(q), true) => index
            .try_nwc_anytime_with(q, scheme, scratch, &req.budget, req.approx)
            .map(anytime_key),
    };
    result.expect("arena searches cannot fail")
}

/// `req` through the sharded index's benchmark wrapper.
fn sharded_wrapper_key(
    index: &ShardedNwcIndex,
    req: &SearchRequest,
    anytime: bool,
    scratch: &mut QueryScratch,
) -> Key {
    let scheme = req.scheme;
    let result = match (&req.query, anytime) {
        (Query::Knwc(q), _) => index
            .try_knwc_cancel(q, scheme, scratch, &req.budget)
            .map(knwc_key),
        (Query::Nwc(q), false) => index
            .try_nwc_full_cancel(q, scheme, scratch, &req.budget)
            .map(|(r, s)| nwc_key(r, s)),
        (Query::Nwc(q), true) => index
            .try_nwc_anytime(q, scheme, &req.budget, req.approx)
            .map(|a| anytime_key(a.anytime)),
    };
    result.expect("arena scatters cannot fail")
}

/// Which of the table's comparisons a test makes.
#[derive(Clone, Copy)]
struct Checks {
    /// Sequential `search` on one reused scratch, and the unsharded
    /// benchmark wrapper, against a fresh scratch per request.
    warm: bool,
    /// `search_batch` at 1 and 3 threads against sequential `search`.
    batch: bool,
    /// K ∈ {1, 4}: each sharded search against its wrapper, K = 1
    /// against the unsharded outcome.
    sharded: bool,
}

const ALL: Checks = Checks {
    warm: true,
    batch: true,
    sharded: true,
};

/// Runs `checks` over the table rows named in `names`, for every
/// Table-3 scheme, plus what each row promises of its own outcomes.
/// A failed check panics, as `prop_assert!` does in this workspace.
fn check_rows(
    (points, qs, l, w, n): (Vec<Point>, Vec<Point>, f64, f64, usize),
    names: &[&str],
    checks: Checks,
) {
    let index = NwcIndex::build(points.clone());
    // One worker: a pruned K > 1 scatter is deterministic only then.
    let sharded: Vec<ShardedNwcIndex> = if checks.sharded {
        [1usize, 4]
            .iter()
            .map(|&k| ShardedNwcIndex::build(points.clone(), k).with_threads(1))
            .collect()
    } else {
        Vec::new()
    };
    let spec = WindowSpec::new(l, w);
    let queries: Vec<NwcQuery> = qs.iter().map(|&q| NwcQuery::new(q, spec, n)).collect();
    let flag = CancelFlag::new();
    flag.stop();
    let table = rows(&flag);
    assert!(
        names.iter().all(|n| table.iter().any(|row| row.0 == *n)),
        "{names:?} names a row the table lacks"
    );
    for scheme in Scheme::TABLE3 {
        for (name, row, anytime) in rows(&flag) {
            if !names.contains(&name) {
                continue;
            }
            let reqs: Vec<SearchRequest> = queries.iter().map(|q| row(*q, scheme)).collect();
            // The reference: sequential search, a fresh scratch each.
            let want: Vec<Outcome> = reqs
                .iter()
                .map(|r| {
                    index
                        .search(r, &mut QueryScratch::new())
                        .expect("arena searches cannot fail")
                })
                .collect();
            let mut scratch = QueryScratch::new();

            // One scratch reused across every request (the warm path)
            // and the benchmark wrapper both match it.
            if checks.warm {
                for (i, (req, w_)) in reqs.iter().zip(&want).enumerate() {
                    let got = index
                        .search(req, &mut scratch)
                        .expect("arena searches cannot fail");
                    prop_assert_eq!(
                        key(&got, true),
                        key(w_, true),
                        "{} {}: warm scratch diverged at {}",
                        name,
                        scheme,
                        i
                    );
                    prop_assert_eq!(
                        wrapper_key(&index, req, anytime, &mut scratch),
                        key(w_, anytime),
                        "{} {}: wrapper diverged at {}",
                        name,
                        scheme,
                        i
                    );
                }
            }

            // Engine batches match query for query, at several thread
            // counts.
            if checks.batch {
                for threads in [1usize, 3] {
                    let batch = QueryEngine::new(&index)
                        .with_threads(threads)
                        .search_batch(&reqs);
                    prop_assert_eq!(batch.len(), want.len());
                    for (i, (got, w_)) in batch.iter().zip(&want).enumerate() {
                        let got = got.as_ref().expect("arena batches cannot fail");
                        prop_assert_eq!(
                            key(got, true),
                            key(w_, true),
                            "{} {} t={}: batch diverged at {}",
                            name,
                            scheme,
                            threads,
                            i
                        );
                    }
                }
            }

            // Sharded: the search matches its benchmark wrapper, and
            // K = 1 matches the unsharded outcome, stats included.
            for index_k in &sharded {
                let k = index_k.shard_count();
                for (i, (req, w_)) in reqs.iter().zip(&want).enumerate() {
                    let got = index_k
                        .search(req, &mut scratch)
                        .expect("arena scatters cannot fail");
                    prop_assert!(
                        got.degraded.is_empty(),
                        "{} {} K={}: a healthy shard degraded",
                        name,
                        scheme,
                        k
                    );
                    prop_assert_eq!(got.per_shard.len(), k);
                    if k == 1 {
                        prop_assert_eq!(
                            key(&got, true),
                            key(w_, true),
                            "{} {} K=1 diverged at {}",
                            name,
                            scheme,
                            i
                        );
                    }
                    prop_assert_eq!(
                        sharded_wrapper_key(index_k, req, anytime, &mut scratch),
                        key(&got, anytime),
                        "{} {} K={}: wrapper diverged at {}",
                        name,
                        scheme,
                        k,
                        i
                    );
                }
            }

            // What each row promises of its own outcomes.
            for (i, (q, w_)) in queries.iter().zip(&want).enumerate() {
                if !anytime {
                    prop_assert!(
                        w_.is_complete(),
                        "{} {}: unarmed budget fired at {}",
                        name,
                        scheme,
                        i
                    );
                    continue;
                }
                let exact = index
                    .search(&SearchRequest::nwc(*q, scheme), &mut QueryScratch::new())
                    .expect("arena searches cannot fail");
                match name {
                    "unarmed" => {
                        prop_assert!(
                            w_.is_complete(),
                            "{} {}: unarmed budget fired at {}",
                            name,
                            scheme,
                            i
                        );
                        prop_assert_eq!(
                            key(w_, true),
                            key(&exact, true),
                            "{} {}: exact mode diverged at {}",
                            name,
                            scheme,
                            i
                        );
                    }
                    "stopped" => {
                        prop_assert_eq!(w_.exhausted, Some(CancelKind::Stopped), "slot {}", i)
                    }
                    "io-limited" => prop_assert!(
                        w_.exhausted.is_some() || w_.stats.io_total <= 2,
                        "slot {}: ran past its own allowance silently",
                        i
                    ),
                    _ => {}
                }
                // Every partial's bound brackets the exact optimum.
                prop_assert!(w_.error_bound >= 0.0);
                match exact.nwc() {
                    None => {
                        prop_assert!(w_.nwc().is_none(), "{} slot {}: invented a group", name, i)
                    }
                    Some(opt) => {
                        let tol = 1e-9 * opt.distance.abs().max(1.0);
                        prop_assert!(
                            w_.lower_bound <= opt.distance + tol,
                            "{} slot {}: lower bound {} above optimum {}",
                            name,
                            i,
                            w_.lower_bound,
                            opt.distance
                        );
                        if let Some(r) = w_.nwc() {
                            prop_assert!(r.distance >= opt.distance - tol);
                            prop_assert!(r.distance - w_.error_bound <= opt.distance + tol);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One scratch reused across many NWC queries (warm path) behaves
    /// exactly like a fresh scratch per query, through `search`, the
    /// benchmark wrappers and the sharded index.
    #[test]
    fn warm_scratch_matches_plain_nwc(case in scenario()) {
        check_rows(case, &["nwc"], Checks { batch: false, ..ALL });
    }

    /// Engine batches of NWC requests equal sequential `search` request
    /// for request, at several thread counts.
    #[test]
    fn engine_batch_matches_plain_nwc(case in scenario()) {
        check_rows(case, &["nwc"], Checks { warm: false, sharded: false, ..ALL });
    }

    /// Anytime requests: an unarmed budget is the exact search bit for
    /// bit; a pre-stopped flag, a per-request I/O allowance and ε = 0.1
    /// give each slot its own typed partial with a valid bound, the
    /// same in a batch, warm, through the wrappers and sharded.
    #[test]
    fn engine_anytime_batches_match_and_trip_per_query(case in scenario()) {
        check_rows(case, &["unarmed", "io-limited", "epsilon-0.1", "stopped"], ALL);
    }

    /// Same for kNWC: warm scratch, engine batches, the wrappers and
    /// the sharded index agree with fresh-scratch `search` on groups,
    /// scores and stats.
    #[test]
    fn knwc_warm_and_batch_match(case in scenario()) {
        check_rows(case, &["knwc"], ALL);
    }
}
