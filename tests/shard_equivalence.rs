//! The sharded scatter-gather planner's contract, end to end:
//!
//! 1. **Equivalence** — a K-shard index answers every Table-3 scheme
//!    (and kNWC) identically to the single-tree oracle on the same
//!    dataset, for K ∈ {1, 2, 4}, on arena and disk backends, at 1 and
//!    4 scatter threads. Ties resolve canonically, so equality covers
//!    ids, distance *and* window, independent of shard interleaving.
//! 2. **K = 1 fast path** — answers *and* `SearchStats` bit-identical
//!    to the unsharded index.
//! 3. **Degenerate cuts** — more shards than objects, and all points on
//!    one spot (every tile boundary coincides).
//! 4. **Partial-shard failures** — a shard hitting a permanent page
//!    fault mid-scatter surfaces a typed per-shard error, the healthy
//!    shards' counters survive, no page pin leaks anywhere, and the
//!    index keeps answering (the `Browser::try_expand` release
//!    guarantees, exercised through the scatter path).
//! 5. **Missing structures** — after insert, remove and a dirty commit
//!    (which drop IWP), and on a build without grid and IWP, every
//!    scheme still answers exactly like the oracle, unsharded and K = 1
//!    alike.
//! 6. **I/O overhead** — K = 4 costs at most 1.25× the logical I/O of
//!    K = 1 over the CA-like set at 5 % of the paper's size.

use nwc::core::{IndexConfig, ShardScatterError, ShardedNwcIndex};
use nwc::datagen::CA_CARDINALITY;
use nwc::prelude::*;
use nwc::rtree::BrowseItem;
use nwc::store::{FaultPlan, FaultStore, FileStore, RetryPolicy};
use nwc_core::QueryError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nwc-shard-{tag}-{}-{n}", std::process::id()))
}

fn seeded_points(n: usize, seed: u64) -> Vec<Point> {
    // Lattice + deterministic jitter: duplicates and boundary ties
    // included, no RNG dependency.
    (0..n)
        .map(|i| {
            let s = (i as u64).wrapping_mul(seed | 1);
            Point::new(
                ((s % 97) * 10) as f64 + ((s >> 8) % 4) as f64 * 0.25,
                (((s >> 16) % 89) * 10) as f64 + ((s >> 24) % 4) as f64 * 0.25,
            )
        })
        .collect()
}

/// Asserts two optional NWC answers are identical, tie-break included.
fn assert_same(
    want: &Option<NwcResult>,
    got: &Option<NwcResult>,
    ctx: &str,
) {
    match (want, got) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.ids(), b.ids(), "{ctx}: object sets differ");
            assert_eq!(a.distance, b.distance, "{ctx}: distances differ");
            assert_eq!(a.window, b.window, "{ctx}: windows differ");
        }
        _ => panic!("{ctx}: one side found a result, one did not"),
    }
}

#[test]
fn sharded_matches_single_tree_for_all_schemes_arena() {
    for (ds, n_pts, seed) in [("a", 400usize, 11u64), ("b", 1200, 29)] {
        let points = seeded_points(n_pts, seed);
        let single = NwcIndex::build(points.clone());
        let queries = Dataset::query_points(5, seed);
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let sharded =
                    ShardedNwcIndex::build(points.clone(), shards).with_threads(threads);
                for scheme in Scheme::TABLE3 {
                    for (qi, &q) in queries.iter().enumerate() {
                        for spec in [WindowSpec::square(60.0), WindowSpec::new(120.0, 40.0)] {
                            let query = NwcQuery::new(q, spec, 4);
                            let want = single.nwc(&query, scheme);
                            let got = sharded.try_nwc(&query, scheme).expect("healthy scatter");
                            assert_same(
                                &want,
                                &got,
                                &format!("{ds}/K{shards}/t{threads}/{scheme}/q{qi}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn k1_is_bit_identical_including_stats() {
    let points = seeded_points(900, 43);
    let single = NwcIndex::build(points.clone());
    let sharded = ShardedNwcIndex::build(points, 1);
    assert_eq!(sharded.shard_count(), 1);
    let queries = Dataset::query_points(6, 43);
    for scheme in Scheme::TABLE3 {
        for &q in &queries {
            let query = NwcQuery::new(q, WindowSpec::square(70.0), 4);
            let (want, want_stats) = single.nwc_full(&query, scheme);
            let (got, got_stats) = sharded.try_nwc_full(&query, scheme).expect("K=1");
            assert_same(&want, &got, &format!("K1/{scheme}"));
            assert_eq!(want_stats, got_stats, "K1/{scheme}: stats must be bit-identical");
        }
    }
    // kNWC too: the fast path delegates wholesale.
    for &q in &queries {
        let query = KnwcQuery::new(q, WindowSpec::square(80.0), 4, 3, 1);
        let want = single.knwc(&query, Scheme::NWC_STAR);
        let got = sharded.try_knwc(&query, Scheme::NWC_STAR).expect("K=1 knwc");
        assert_eq!(want.stats, got.stats, "K1 kNWC stats must be bit-identical");
        assert_eq!(want.groups.len(), got.groups.len());
        for (a, b) in want.groups.iter().zip(&got.groups) {
            assert_eq!(a.id_set(), b.id_set());
            assert_eq!(a.distance, b.distance);
        }
    }
}

#[test]
fn k4_logical_io_stays_within_a_quarter_of_unsharded() {
    // A query near a tile seam re-descends the neighbouring shards'
    // roots, so K = 4 may pay more node accesses than one tree; the
    // bar is 1.25× summed over 25 NWC* queries. Logical I/O does not
    // depend on the backend or the pool, so an arena build measures it.
    let ca = Dataset::paper_trio_scaled(CA_CARDINALITY / 20, 100, 100, 2016).swap_remove(0);
    assert_eq!(ca.name, "CA");
    let queries: Vec<NwcQuery> = Dataset::query_points(25, 2016)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(200.0), 8))
        .collect();
    let io_total = |shards: usize| -> u64 {
        let index = ShardedNwcIndex::build(ca.points.clone(), shards).with_threads(1);
        assert_eq!(index.shard_count(), shards);
        queries
            .iter()
            .map(|q| index.try_nwc_full(q, Scheme::NWC_STAR).expect("arena scatter").1.io_total)
            .sum()
    };
    let (k1, k4) = (io_total(1), io_total(4));
    assert!(
        k4 as f64 <= 1.25 * k1 as f64,
        "K=4 logical I/O {k4} exceeds 1.25× the K=1 total {k1} ({:.3}×)",
        k4 as f64 / k1 as f64
    );
}

#[test]
fn sharded_matches_single_tree_on_disk_backends() {
    let points = seeded_points(1000, 71);
    let single = NwcIndex::build(points.clone());
    let queries = Dataset::query_points(4, 71);
    for shards in [1usize, 2, 4] {
        let built = ShardedNwcIndex::build(points.clone(), shards);
        let dir = temp_dir(&format!("disk-k{shards}"));
        built.save_to_dir(&dir).expect("save sharded dir");
        // One *total* pool budget split across the shard pools.
        let disk = ShardedNwcIndex::open_dir(
            &dir,
            DiskIndexConfig {
                pool_capacity: Some(96),
                ..DiskIndexConfig::default()
            },
        )
        .expect("open sharded dir")
        .with_threads(2);
        assert_eq!(disk.shard_count(), built.shard_count());
        assert_eq!(disk.len(), built.len());
        for scheme in Scheme::TABLE3 {
            for (qi, &q) in queries.iter().enumerate() {
                let query = NwcQuery::new(q, WindowSpec::square(60.0), 4);
                let want = single.nwc(&query, scheme);
                let got = disk.try_nwc(&query, scheme).expect("disk scatter");
                assert_same(&want, &got, &format!("disk/K{shards}/{scheme}/q{qi}"));
            }
        }
        // No query path may leak a pin on any shard pool.
        for (si, shard) in disk.shards().iter().enumerate() {
            if let Some(storage) = shard.tree().storage() {
                assert_eq!(
                    storage.pool_stats().pinned,
                    0,
                    "disk/K{shards}: shard {si} leaked a pin"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sharded_knwc_exact_matches_single_tree() {
    // The unpruned variant is rigorously order-independent, so equality
    // must hold for any K at any thread count.
    let points = seeded_points(700, 97);
    let single = NwcIndex::build(points.clone());
    let queries = Dataset::query_points(3, 97);
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let sharded = ShardedNwcIndex::build(points.clone(), shards).with_threads(threads);
            for &q in &queries {
                let query = KnwcQuery::new(q, WindowSpec::square(80.0), 4, 3, 1);
                let want = single.knwc_exact(&query, Scheme::NWC_STAR);
                let got = sharded
                    .try_knwc_exact(&query, Scheme::NWC_STAR)
                    .expect("exact scatter");
                assert_eq!(
                    want.groups.len(),
                    got.groups.len(),
                    "K{shards}/t{threads}: group counts differ"
                );
                for (a, b) in want.groups.iter().zip(&got.groups) {
                    assert_eq!(a.id_set(), b.id_set(), "K{shards}/t{threads}");
                    assert_eq!(a.distance, b.distance, "K{shards}/t{threads}");
                }
            }
        }
    }
}

#[test]
fn sharded_pruned_knwc_matches_on_separated_clusters() {
    // Pruned kNWC inherits the §3.4 cascade caveat, which is only
    // observable on adversarial conflict structures; on well-separated
    // clusters the pruned scatter must agree with the single tree.
    let mut points = Vec::new();
    for (cx, cy) in [
        (50.0, 50.0),
        (450.0, 60.0),
        (70.0, 470.0),
        (480.0, 480.0),
        (250.0, 250.0),
    ] {
        for i in 0..8 {
            points.push(Point::new(cx + (i % 4) as f64 * 1.5, cy + (i / 4) as f64 * 1.5));
        }
    }
    let single = NwcIndex::build(points.clone());
    let query = KnwcQuery::new(Point::new(0.0, 0.0), WindowSpec::square(8.0), 4, 4, 0);
    let want = single.knwc(&query, Scheme::NWC_STAR);
    assert_eq!(want.groups.len(), 4, "workload must actually yield 4 groups");
    for shards in [2usize, 4] {
        for threads in [1usize, 4] {
            let sharded = ShardedNwcIndex::build(points.clone(), shards).with_threads(threads);
            let got = sharded.try_knwc(&query, Scheme::NWC_STAR).expect("scatter");
            assert_eq!(want.groups.len(), got.groups.len(), "K{shards}/t{threads}");
            for (a, b) in want.groups.iter().zip(&got.groups) {
                assert_eq!(a.id_set(), b.id_set(), "K{shards}/t{threads}");
                assert_eq!(a.distance, b.distance, "K{shards}/t{threads}");
            }
        }
    }
}

#[test]
fn more_shards_than_objects_degrades_to_fewer_tiles() {
    let points = seeded_points(3, 7);
    let single = NwcIndex::build(points.clone());
    let sharded = ShardedNwcIndex::build(points, 64);
    assert!(sharded.shard_count() <= 3, "tiles are never empty");
    assert_eq!(sharded.len(), 3);
    let query = NwcQuery::new(Point::new(0.0, 0.0), WindowSpec::square(2000.0), 2);
    for scheme in Scheme::TABLE3 {
        let want = single.nwc(&query, scheme);
        let got = sharded.try_nwc(&query, scheme).expect("tiny scatter");
        assert_same(&want, &got, &format!("tiny/{scheme}"));
    }
}

#[test]
fn all_points_on_one_spot_survives_degenerate_cuts() {
    // Every STR cut boundary coincides: the partitioner must still
    // produce non-empty tiles and the scatter must still agree.
    let points: Vec<Point> = (0..120).map(|_| Point::new(55.0, 55.0)).collect();
    let single = NwcIndex::build(points.clone());
    let sharded = ShardedNwcIndex::build(points, 4).with_threads(2);
    assert_eq!(sharded.len(), 120);
    let query = NwcQuery::new(Point::new(50.0, 50.0), WindowSpec::square(5.0), 10);
    for scheme in Scheme::TABLE3 {
        let want = single.nwc(&query, scheme);
        let got = sharded.try_nwc(&query, scheme).expect("degenerate scatter");
        match (&want, &got) {
            (Some(a), Some(b)) => {
                // 120 identical points: any 10 ids are optimal, but the
                // canonical tie-break must make both sides agree.
                assert_eq!(a.distance, b.distance);
                assert_eq!(a.ids().len(), 10);
                assert_eq!(b.ids().len(), 10);
            }
            other => panic!("degenerate/{scheme}: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Anytime scatter-gather.
// ---------------------------------------------------------------------

#[test]
fn sharded_anytime_exact_mode_matches_the_scatter_path() {
    // ε = 0 with an unarmed budget must collapse to the exact scatter:
    // same merged answer, no degradation, nothing left to bound.
    let points = seeded_points(900, 53);
    let queries = Dataset::query_points(4, 53);
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let sharded = ShardedNwcIndex::build(points.clone(), shards).with_threads(threads);
            for scheme in Scheme::TABLE3 {
                for &q in &queries {
                    let query = NwcQuery::new(q, WindowSpec::square(70.0), 4);
                    let want = sharded.try_nwc(&query, scheme).expect("exact scatter");
                    let got = sharded
                        .try_nwc_anytime(&query, scheme, &Budget::none(), Approx::exact())
                        .expect("anytime scatter");
                    assert!(got.degraded.is_empty(), "K{shards}: healthy shards degraded");
                    assert!(
                        got.anytime.exhausted.is_none(),
                        "K{shards}: unarmed budget expired"
                    );
                    assert_same(&want, &got.anytime.answer, &format!("anytime/K{shards}/{scheme}"));
                    assert_eq!(
                        got.anytime.error_bound, 0.0,
                        "K{shards}/{scheme}: a complete exact scatter has nothing left to bound"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_anytime_knwc_exact_mode_matches_the_scatter_path() {
    let points = seeded_points(700, 59);
    let queries = Dataset::query_points(3, 59);
    for shards in [1usize, 2, 4] {
        let sharded = ShardedNwcIndex::build(points.clone(), shards).with_threads(2);
        for &q in &queries {
            let query = KnwcQuery::new(q, WindowSpec::square(80.0), 4, 3, 1);
            let want = sharded.try_knwc(&query, Scheme::NWC_STAR).expect("scatter");
            let got = sharded
                .try_knwc_anytime(&query, Scheme::NWC_STAR, &Budget::none(), Approx::exact())
                .expect("anytime scatter");
            assert!(got.degraded.is_empty());
            assert!(got.anytime.exhausted.is_none());
            assert_eq!(want.groups.len(), got.anytime.result.groups.len(), "K{shards}");
            for (a, b) in want.groups.iter().zip(&got.anytime.result.groups) {
                assert_eq!(a.id_set(), b.id_set(), "K{shards}");
                assert_eq!(a.distance, b.distance, "K{shards}");
            }
        }
    }
}

#[test]
fn sharded_anytime_budget_grid_brackets_the_exact_answer() {
    // Across an (ε, io-budget) grid every merged partial must bracket
    // the exact scatter's answer: lower_bound ≤ d* ≤ any returned
    // answer's score, with distance − error_bound ≤ d*.
    let points = seeded_points(1100, 61);
    let queries = Dataset::query_points(4, 61);
    for shards in [2usize, 4] {
        let sharded = ShardedNwcIndex::build(points.clone(), shards).with_threads(2);
        for &q in &queries {
            let query = NwcQuery::new(q, WindowSpec::square(70.0), 4);
            let exact = sharded
                .try_nwc(&query, Scheme::NWC_STAR)
                .expect("exact scatter")
                .map(|r| r.distance);
            for epsilon in [0.0, 0.5] {
                let approx = Approx::new(epsilon).expect("valid epsilon");
                for io in [0u64, 4, 16, 64] {
                    let budget = Budget::none().io_limit(io);
                    let a = sharded
                        .try_nwc_anytime(&query, Scheme::NWC_STAR, &budget, approx)
                        .expect("budget expiry degrades, never errors")
                        .anytime;
                    assert!(a.error_bound >= 0.0);
                    assert!(a.lower_bound >= 0.0);
                    match exact {
                        None => assert!(
                            a.answer.is_none(),
                            "K{shards} ε={epsilon} io={io}: invented a group"
                        ),
                        Some(d_star) => {
                            let tol = 1e-9 * d_star.abs().max(1.0);
                            assert!(
                                a.lower_bound <= d_star + tol,
                                "K{shards} ε={epsilon} io={io}: lower bound {} above optimum {}",
                                a.lower_bound,
                                d_star
                            );
                            if let Some(r) = &a.answer {
                                assert!(r.distance >= d_star - tol, "answer beat the scatter");
                                assert!(
                                    r.distance - a.error_bound <= d_star + tol,
                                    "K{shards} ε={epsilon} io={io}: bound {} fails {} vs {}",
                                    a.error_bound,
                                    r.distance,
                                    d_star
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Partial-shard failures through the scatter path.
// ---------------------------------------------------------------------

/// Rebuilds a built sharded index with every shard disk-backed, shard 0
/// routed through a scripting [`FaultStore`].
fn fault_backed_sharded(
    built: &ShardedNwcIndex,
    tag: &str,
) -> (ShardedNwcIndex, Arc<FaultStore<FileStore>>) {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let no_retry = DiskIndexConfig {
        retry: RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        ..DiskIndexConfig::default()
    };
    let mut shards = Vec::new();
    let mut fault = None;
    for (i, shard) in built.shards().iter().enumerate() {
        let path = dir.join(format!("shard-{i}.pages"));
        shard.save_tree(&path).expect("save shard");
        if i == 0 {
            let store = FileStore::open(&path).expect("reopen shard 0");
            let f = Arc::new(FaultStore::new(store, FaultPlan::default()));
            shards.push(
                NwcIndex::open_disk_from_store(Box::new(Arc::clone(&f)), no_retry)
                    .expect("open shard 0 through fault store"),
            );
            fault = Some(f);
        } else {
            shards.push(NwcIndex::open_disk(&path, no_retry).expect("open shard"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let sharded = ShardedNwcIndex::from_shards(shards, None).expect("assemble");
    (sharded, fault.expect("shard 0 is fault-backed"))
}

/// A leaf page id inside shard 0, found by browsing (then the counters
/// no longer matter — the test only asserts typed behavior).
fn leaf_page_in_shard0(sharded: &ShardedNwcIndex, q: Point) -> u32 {
    let shard = &sharded.shards()[0];
    let mut browser = shard.tree().browse(q);
    let leaf = loop {
        match browser.next() {
            Some(BrowseItem::Node { id, .. }) => browser.expand(id),
            Some(BrowseItem::Object { leaf, .. }) => break leaf,
            None => panic!("shard 0 browsed dry without yielding an object"),
        }
    };
    leaf.raw()
}

#[test]
fn dead_page_in_one_shard_is_a_typed_partial_failure_with_no_pin_leaks() {
    let points = seeded_points(1000, 29);
    let built = ShardedNwcIndex::build(points, 4);
    let (sharded, fault) = fault_backed_sharded(&built, "fault");
    let sharded = sharded.with_threads(2);
    let q = Point::new(300.0, 300.0);
    let query = NwcQuery::new(q, WindowSpec::square(60.0), 4);

    // Healthy first: the scatter works end to end through fault stores.
    let healthy = sharded
        .try_nwc_scatter(&query, Scheme::NWC)
        .expect("healthy scatter");
    assert_eq!(healthy.per_shard.len(), sharded.shard_count());

    // Kill a leaf in shard 0 permanently, and clear shard 0's pool so
    // the next touch goes to the (now failing) store instead of being
    // served from a warm frame.
    let dead = leaf_page_in_shard0(&sharded, q);
    fault.fail_page_permanently(dead);
    let storage0 = sharded.shards()[0].tree().storage().expect("disk-backed");
    storage0.reset();
    // A wide query that must touch the dead leaf (it covers the world).
    let wide = NwcQuery::new(q, WindowSpec::square(2000.0), 900);
    match sharded.try_nwc_scatter(&wide, Scheme::NWC) {
        Err(ShardScatterError { failures, completed }) => {
            assert!(
                failures.iter().any(|(s, e)| *s == 0 && matches!(e, QueryError::Io(_))),
                "shard 0 must fail with a typed I/O error, got {failures:?}"
            );
            // Healthy shards completed and kept their counters.
            assert_eq!(failures.len() + completed.len(), sharded.shard_count());
            for (s, stats) in &completed {
                assert_ne!(*s, 0);
                assert!(stats.io_total > 0, "healthy shard {s} reported no work");
            }
        }
        Ok(_) => panic!("a permanently dead leaf cannot yield an answer"),
    }
    // The convenience wrapper collapses to the first typed error.
    match sharded.try_nwc(&wide, Scheme::NWC) {
        Err(QueryError::Io(_)) => {}
        other => panic!("expected Io, got {other:?}"),
    }
    // No shard pool may hold a pin after the failed scatter: try_expand
    // and try_window_query_into release on error, across all shards.
    for (si, shard) in sharded.shards().iter().enumerate() {
        let storage = shard.tree().storage().expect("disk-backed");
        assert_eq!(storage.pool_stats().pinned, 0, "shard {si} leaked a pin");
    }
    // Lifting the fault and resetting the shard's store restores full
    // service — nothing in the scatter state was poisoned by the
    // partial failure.
    fault.clear_faults();
    storage0.reset();
    sharded.shards()[0].tree().stats().reset();
    let recovered = sharded
        .try_nwc_scatter(&query, Scheme::NWC)
        .expect("healthy again after clearing faults");
    assert_eq!(
        healthy.result.as_ref().map(|r| r.ids()),
        recovered.result.as_ref().map(|r| r.ids()),
        "recovered scatter must answer like the original"
    );
}

// ---------------------------------------------------------------------
// Missing structures after writes.
// ---------------------------------------------------------------------

/// A lean build has no density grid, and writes move nodes around. DEP
/// and IWP only prune I/O, so under every Table-3 scheme the unsharded
/// index and its K = 1 twin must keep answering — exactly the oracle's
/// answer over the live set, with bit-identical `SearchStats`.
fn assert_write_state_answers(single: &NwcIndex, k1: &ShardedNwcIndex, ctx: &str) {
    let live: Vec<u32> = (0..single.points().len() as u32)
        .filter(|&id| single.is_live(id))
        .collect();
    let live_points: Vec<Point> = live.iter().map(|&id| single.points()[id as usize]).collect();
    assert_eq!(k1.len(), live.len(), "{ctx}: K = 1 twin diverged");
    for (qi, &q) in Dataset::query_points(3, 83).iter().enumerate() {
        let query = NwcQuery::new(q, WindowSpec::square(70.0), 3);
        let kquery = KnwcQuery::new(q, WindowSpec::square(70.0), 3, 2, 1);
        // Oracle ids are positions in `live`, which ascends with the
        // object id, so the canonical tie-break order carries over.
        let want = nwc::core::oracle::nwc_brute_force(&live_points, &query).map(|g| {
            let mut ids: Vec<u32> = g.id_set().iter().map(|&pos| live[pos as usize]).collect();
            ids.sort_unstable();
            (ids, g.distance)
        });
        for scheme in Scheme::TABLE3 {
            let ctx = format!("{ctx}/{scheme}/q{qi}");
            let (got, stats) = single.try_nwc_full(&query, scheme).expect("unsharded answers");
            let (got1, stats1) = k1.try_nwc_full(&query, scheme).expect("K = 1 answers");
            let got_key = got.as_ref().map(|r| {
                let mut ids = r.ids();
                ids.sort_unstable();
                (ids, r.distance)
            });
            assert_eq!(got_key, want, "{ctx}: unsharded answer differs from the oracle");
            assert_same(&got, &got1, &ctx);
            assert_eq!(stats, stats1, "{ctx}: K = 1 stats must be bit-identical");

            let groups = single.try_knwc(&kquery, scheme).expect("unsharded kNWC answers");
            let groups1 = k1.try_knwc(&kquery, scheme).expect("K = 1 kNWC answers");
            assert_eq!(
                groups.groups.first().map(|g| g.distance),
                want.as_ref().map(|w| w.1),
                "{ctx}: the first kNWC group must be the NWC optimum"
            );
            assert_eq!(groups.stats, groups1.stats, "{ctx}: K = 1 kNWC stats differ");
            assert_eq!(groups.groups.len(), groups1.groups.len(), "{ctx}");
            for (a, b) in groups.groups.iter().zip(&groups1.groups) {
                assert_eq!(a.id_set(), b.id_set(), "{ctx}");
                assert_eq!(a.distance, b.distance, "{ctx}");
            }
        }
    }
}

/// Drives an index and its K = 1 twin through insert, remove and a
/// dirty commit, checking every scheme after each write: no write
/// leaves any scheme short of what it prunes with.
fn check_writes(mut single: NwcIndex, mut k1: ShardedNwcIndex, backend: &str) {
    let near = Dataset::query_points(3, 83)[0];
    // Insert: a tight cluster near the first query point.
    for i in 0..3 {
        let p = Point::new(near.x + i as f64, near.y + 0.5 * i as f64);
        let id = single.insert(p).expect("insert");
        assert_eq!(k1.insert(p), Ok(id), "{backend}: twins assign the same id");
    }
    assert_write_state_answers(&single, &k1, &format!("{backend}/insert"));

    for id in [1u32, 5, 9] {
        assert!(single.remove(id).expect("remove"));
        assert!(k1.remove(id).expect("remove"));
    }
    assert_write_state_answers(&single, &k1, &format!("{backend}/remove"));

    // Commit of a dirty overlay: on disk the flush moves the written
    // nodes to fresh pages; in memory the commit is a no-op.
    let p = Point::new(near.x + 3.0, near.y + 2.0);
    let id = single.insert(p).expect("insert");
    assert_eq!(k1.insert(p), Ok(id));
    single.commit().expect("commit");
    k1.commit_all().expect("commit");
    assert_write_state_answers(&single, &k1, &format!("{backend}/commit"));
}

#[test]
fn missing_structures_keep_every_scheme_answering() {
    let points = seeded_points(400, 83);
    // Built without a grid: DEP has nothing to prune with.
    let lean = IndexConfig {
        grid_cell_size: None,
        ..IndexConfig::default()
    };
    assert_write_state_answers(
        &NwcIndex::build_with(points.clone(), lean),
        &ShardedNwcIndex::build_with(points.clone(), 1, lean),
        "lean",
    );

    check_writes(
        NwcIndex::build(points.clone()),
        ShardedNwcIndex::build(points.clone(), 1),
        "arena",
    );

    // Writable page files: one per twin, so each has its own pool and
    // overlay and both see the same access history.
    let dir = temp_dir("writes");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let built = NwcIndex::build(points);
    let (a, b) = (dir.join("single.pages"), dir.join("k1.pages"));
    built.save_tree_writable(&a).expect("save");
    built.save_tree_writable(&b).expect("save");
    let single = NwcIndex::open_disk(&a, DiskIndexConfig::default()).expect("open");
    let twin = NwcIndex::open_disk(&b, DiskIndexConfig::default()).expect("open");
    let k1 = ShardedNwcIndex::from_shards(vec![twin], None).expect("K = 1");
    check_writes(single, k1, "disk");
    std::fs::remove_dir_all(&dir).ok();
}
