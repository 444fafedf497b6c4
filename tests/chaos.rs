//! Chaos tests: the Table-3 schemes under injected disk faults.
//!
//! Under **transient-only** faults every scheme must return answers and
//! logical I/O bit-identical to the in-memory arena baseline — retries
//! are invisible to the paper's metric, they only show up in the new
//! `retries`/`transient_errors` counters. Under **permanent** faults a
//! search must surface typed errors (no panic, no poisoned state):
//! the failing page is quarantined, every pin is released, and the index
//! keeps answering queries that avoid the dead page — including from the
//! 4-thread batch engine, where one bad page must never tear down the
//! worker scope.

use nwc::core::{oracle, CancelFlag, CancelKind, ShardedNwcIndex};
use nwc::prelude::*;
use nwc_core::QueryError;
use nwc_rtree::BrowseItem;
use nwc_store::{
    FaultPlan, FaultStats, FaultStore, FileStore, PageStore, RetryPolicy, StoreError, StoreMeta,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn temp_pages(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nwc-chaos-{tag}-{}.pages", std::process::id()))
}

fn chaos_points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Point::new((s % 9_000) as f64 + 500.0, ((s >> 13) % 9_000) as f64 + 500.0)
        })
        .collect()
}

/// A zero-backoff retry policy so fault-heavy tests don't sleep.
fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

/// Saves `arena`'s tree and reopens it through a [`FaultStore`] the test
/// keeps a scripting handle to. The store starts transparent (the open
/// path has no retry in front of it); arm a plan with
/// [`FaultStore::set_plan`] or script pages after open.
fn fault_backed(
    arena: &NwcIndex,
    tag: &str,
    config: DiskIndexConfig,
) -> (NwcIndex, Arc<FaultStore<FileStore>>) {
    let path = temp_pages(tag);
    arena
        .save_tree_with_layout(&path, PageLayout::Clustered)
        .expect("save clustered");
    let store = FileStore::open(&path).expect("reopen page file");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let disk = NwcIndex::open_disk_from_store(Box::new(Arc::clone(&fault)), config)
        .expect("open through a transparent fault store");
    std::fs::remove_file(&path).ok();
    (disk, fault)
}

/// Exact NWC* requests for `queries`.
fn requests(queries: &[NwcQuery]) -> Vec<SearchRequest> {
    queries.iter().map(|q| SearchRequest::nwc(*q, Scheme::NWC_STAR)).collect()
}

fn chaos_queries() -> Vec<NwcQuery> {
    Dataset::query_points(12, 11)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(400.0), 4))
        .collect()
}

/// The page id of the leaf holding the entry nearest to `q` (found by
/// browsing, which charges I/O — reset counters afterwards).
fn leaf_page_near(disk: &NwcIndex, q: Point) -> u32 {
    let mut browser = disk.tree().browse(q);
    let leaf = loop {
        match browser.next() {
            Some(BrowseItem::Node { id, .. }) => browser.expand(id),
            Some(BrowseItem::Object { leaf, .. }) => break leaf,
            None => panic!("non-empty tree browsed dry without yielding an object"),
        }
    };
    disk.tree().stats().reset();
    disk.tree().storage().expect("disk-backed").reset();
    leaf.raw()
}

#[test]
fn transient_faults_keep_every_scheme_bit_identical_to_arena() {
    let arena = NwcIndex::build(chaos_points(4_000));
    let queries = chaos_queries();
    // Rate 0 is the fault-free control: the same store wrapper, armed
    // with a plan that never fires, must cost no retry at all.
    for rate in [0.0, 0.02] {
        let (disk, fault) = fault_backed(
            &arena,
            &format!("transient{rate}"),
            DiskIndexConfig {
                pool_capacity: Some(64),
                retry: fast_retry(12),
                ..DiskIndexConfig::default()
            },
        );
        // 2% of reads start a 2-failure burst; the 12-attempt budget
        // makes non-recovery astronomically unlikely and the seed makes
        // the sequential schedule reproducible.
        fault.set_plan(FaultPlan {
            transient_rate: rate,
            transient_burst: 2,
            seed: 0xDEC0_DE5E,
            ..FaultPlan::default()
        });

        let mut total_retries = 0;
        let mut total_transient = 0;
        for &scheme in Scheme::TABLE3.iter() {
            for (qi, q) in queries.iter().enumerate() {
                let (want, ws) = nwc_full(&arena, q, scheme).unwrap();
                let (got, gs) = nwc_full(&disk, q, scheme).unwrap_or_else(|e| {
                    panic!("rate {rate}/{scheme} q{qi}: transient fault leaked: {e}")
                });
                match (&want, &got) {
                    (None, None) => {}
                    (Some(a), Some(d)) => {
                        assert_eq!(a.ids(), d.ids(), "rate {rate}/{scheme} q{qi}");
                        assert_eq!(a.distance, d.distance, "rate {rate}/{scheme} q{qi}");
                    }
                    _ => panic!("rate {rate}/{scheme} q{qi}: one mode found a result, one did not"),
                }
                // Logical I/O is bit-identical: faults and retries live
                // entirely outside the paper's metric.
                assert_eq!(
                    SearchStats { buffer_hits: 0, retries: 0, transient_errors: 0, ..gs },
                    ws,
                    "rate {rate}/{scheme} q{qi}: logical I/O diverged under transient faults"
                );
                total_retries += gs.retries;
                total_transient += gs.transient_errors;
            }
        }
        let storage = disk.tree().storage().expect("disk-backed");
        if rate == 0.0 {
            assert_eq!(
                (total_retries, total_transient),
                (0, 0),
                "fault-free run retried"
            );
            assert_eq!(
                fault.stats(),
                FaultStats::default(),
                "rate 0 injected a fault"
            );
            assert_eq!(storage.io_errors(), 0);
        } else {
            assert!(total_retries > 0, "the fault schedule never fired");
            assert!(total_transient > 0, "no failure was attributed to a query");
            assert!(fault.stats().transient > 0, "the store never injected");
        }
        assert!(
            storage.quarantine().is_empty(),
            "rate {rate}: transient faults must never quarantine a page"
        );

        // Same index, same plan, 4-thread engine: every slot still Ok
        // and identical to the arena (which reads fail now depends on
        // thread interleaving; answers and logical I/O must not).
        let engine = QueryEngine::new(&disk).with_threads(4);
        let batch = engine.search_batch(&requests(&queries));
        for (qi, (q, slot)) in queries.iter().zip(&batch).enumerate() {
            let got = slot.as_ref().unwrap_or_else(|e| {
                panic!("rate {rate}/engine q{qi}: transient fault leaked: {e}")
            });
            let (want, ws) = nwc_full(&arena, q, Scheme::NWC_STAR).unwrap();
            assert_eq!(
                want.map(|r| r.ids()),
                got.nwc().map(|r| r.ids()),
                "rate {rate}/engine q{qi}"
            );
            assert_eq!(
                SearchStats { buffer_hits: 0, retries: 0, transient_errors: 0, ..got.stats },
                ws,
                "rate {rate}/engine q{qi}: logical I/O diverged"
            );
        }
        assert_eq!(storage.pool_stats().pinned, 0, "rate {rate}: leaked a pin");
        if rate == 0.0 {
            assert_eq!(
                fault.stats(),
                FaultStats::default(),
                "rate 0 engine run injected a fault"
            );
            assert_eq!(disk.tree().stats().retries(), 0);
            assert_eq!(disk.tree().stats().transient_errors(), 0);
        }
    }
}

#[test]
fn permanent_fault_returns_typed_errors_and_leaves_the_index_usable() {
    let arena = NwcIndex::build(chaos_points(3_000));
    let (disk, fault) = fault_backed(
        &arena,
        "permanent",
        DiskIndexConfig {
            pool_capacity: Some(64),
            retry: fast_retry(3),
            ..DiskIndexConfig::default()
        },
    );
    let root = disk.tree().root().raw();
    fault.fail_page_permanently(root);

    let queries = chaos_queries();
    for &scheme in Scheme::TABLE3.iter() {
        match nwc_full(&disk, &queries[0], scheme).map(|(r, _)| r) {
            Err(QueryError::Io(e)) => assert_eq!(e.page, root, "{scheme}"),
            other => panic!("{scheme}: expected Io error, got {other:?}"),
        }
    }
    let storage = disk.tree().storage().expect("disk-backed");
    let quarantined = storage.quarantine();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, root);
    // Invariants intact after every failed descent: nothing left pinned,
    // quarantined re-queries fail fast without touching the device.
    assert_eq!(storage.pool_stats().pinned, 0, "error path leaked a pin");
    let device_errors = fault.stats().errors();
    assert!(nwc_full(&disk, &queries[1], Scheme::NWC_STAR).map(|(r, _)| r).is_err());
    assert_eq!(fault.stats().errors(), device_errors, "quarantine must fail fast");

    // Lifting the fault and resetting restores full service.
    fault.clear_faults();
    storage.reset();
    disk.tree().stats().reset();
    for (qi, q) in queries.iter().enumerate() {
        let want = nwc_full(&arena, q, Scheme::NWC_STAR).unwrap().0;
        let got = nwc_full(&disk, q, Scheme::NWC_STAR).map(|(r, _)| r).expect("healthy again");
        assert_eq!(want.map(|r| r.ids()), got.map(|r| r.ids()), "q{qi} after recovery");
    }
}

#[test]
fn budget_exhaustion_mid_descent_under_faults_returns_sound_partials() {
    // A budget tripping mid-descent on a fault-injected disk index must
    // come back as a typed partial whose bounds bracket the brute-force
    // optimum — with every pin released, and the index healthy enough to
    // answer the exact query right afterwards. The point set is small so
    // the O(n²)-ish oracle stays cheap.
    let points = chaos_points(400);
    let arena = NwcIndex::build(points.clone());
    let (disk, fault) = fault_backed(
        &arena,
        "budget",
        DiskIndexConfig {
            pool_capacity: Some(16),
            retry: fast_retry(8),
            ..DiskIndexConfig::default()
        },
    );
    // Transient bursts on 5% of reads plus 50 µs of device latency, so
    // both the I/O allowance and the wall-clock deadline genuinely trip
    // in the middle of faulted descents.
    fault.set_plan(FaultPlan {
        transient_rate: 0.05,
        transient_burst: 2,
        latency: Some(Duration::from_micros(50)),
        seed: 0xBAD_B0DE,
        ..FaultPlan::default()
    });
    let storage = disk.tree().storage().expect("disk-backed");

    let queries = Dataset::query_points(6, 17)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(2_000.0), 4))
        .collect::<Vec<_>>();
    let mut scratch = QueryScratch::new();
    let mut exhausted_runs = 0;
    for (qi, query) in queries.iter().enumerate() {
        let d_star = oracle::nwc_brute_force(&points, query).map(|r| r.distance);
        let budgets: Vec<Budget> = vec![
            Budget::none().io_limit(0),
            Budget::none().io_limit(4),
            Budget::none().io_limit(16),
            Budget::with_deadline(Instant::now() + Duration::from_micros(120)),
        ];
        for (bi, budget) in budgets.iter().enumerate() {
            let req = SearchRequest::nwc(*query, Scheme::NWC_STAR).with_budget(budget.clone());
            let a = disk
                .search(&req, &mut scratch)
                .unwrap_or_else(|e| panic!("q{qi}/b{bi}: budget trip leaked as an error: {e}"));
            if a.exhausted.is_some() {
                exhausted_runs += 1;
            }
            assert!(a.error_bound >= 0.0, "q{qi}/b{bi}");
            assert!(a.lower_bound >= 0.0, "q{qi}/b{bi}");
            match d_star {
                None => assert!(a.nwc().is_none(), "q{qi}/b{bi}: invented a group"),
                Some(d_star) => {
                    let tol = 1e-9 * d_star.abs().max(1.0);
                    assert!(
                        a.lower_bound <= d_star + tol,
                        "q{qi}/b{bi}: lower bound {} above the oracle optimum {}",
                        a.lower_bound,
                        d_star
                    );
                    if let Some(r) = a.nwc() {
                        assert!(r.distance >= d_star - tol, "q{qi}/b{bi}: beat the oracle");
                        assert!(
                            r.distance - a.error_bound <= d_star + tol,
                            "q{qi}/b{bi}: error bound {} fails {} vs {}",
                            a.error_bound,
                            r.distance,
                            d_star
                        );
                    }
                }
            }
            // Every cut-off descent released its frames.
            assert_eq!(
                storage.pool_stats().pinned,
                0,
                "q{qi}/b{bi}: budget exhaustion leaked a pin"
            );
        }
    }
    assert!(exhausted_runs > 0, "no budget ever tripped — the test is vacuous");
    assert!(
        storage.quarantine().is_empty(),
        "budget trips and transient faults must never quarantine"
    );

    // Clean re-run: lift the fault plan and the same index answers the
    // exact query bit-identically to the arena, budget machinery gone.
    fault.set_plan(FaultPlan::default());
    storage.reset();
    disk.tree().stats().reset();
    for (qi, query) in queries.iter().enumerate() {
        let (want, ws) = nwc_full(&arena, query, Scheme::NWC_STAR).unwrap();
        let req = SearchRequest::nwc(*query, Scheme::NWC_STAR)
            .with_budget(Budget::none())
            .with_approx(Approx::exact());
        let a = disk
            .search(&req, &mut scratch)
            .unwrap_or_else(|e| panic!("q{qi}: clean re-run failed: {e}"));
        assert!(a.exhausted.is_none(), "q{qi}: unarmed budget expired");
        assert_eq!(
            want.map(|r| (r.ids(), r.distance.to_bits())),
            a.nwc().map(|r| (r.ids(), r.distance.to_bits())),
            "q{qi}: clean re-run diverged from the arena"
        );
        assert_eq!(
            SearchStats { buffer_hits: 0, retries: 0, transient_errors: 0, ..a.stats },
            ws,
            "q{qi}: clean re-run did different logical work"
        );
    }
}

#[test]
fn budget_exhaustion_mid_scatter_degrades_the_merged_bound() {
    // Sharded scatter with shard 0 behind a fault store: a budget trip
    // or a dead page mid-scatter must degrade the merged answer's bound
    // (typed partial, shard listed in `degraded`) instead of failing the
    // query, with no pins left on any shard pool and a clean recovery.
    let points = chaos_points(400);
    let built = ShardedNwcIndex::build(points.clone(), 4);
    let dir = std::env::temp_dir().join(format!("nwc-chaos-scatter-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let no_retry = DiskIndexConfig {
        retry: fast_retry(1),
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
    let fault = fault.expect("shard 0 is fault-backed");
    let sharded = ShardedNwcIndex::from_shards(shards, None)
        .expect("assemble")
        .with_threads(2);

    let query = NwcQuery::new(Point::new(4_000.0, 4_000.0), WindowSpec::square(2_000.0), 4);
    let d_star = oracle::nwc_brute_force(&points, &query)
        .map(|r| r.distance)
        .expect("the wide chaos query always has an answer");
    let tol = 1e-9 * d_star.abs().max(1.0);
    let check_bounds = |a: &Outcome, ctx: &str| {
        assert!(a.error_bound >= 0.0, "{ctx}");
        assert!(
            a.lower_bound <= d_star + tol,
            "{ctx}: lower bound {} above the oracle optimum {d_star}",
            a.lower_bound
        );
        if let Some(r) = a.nwc() {
            assert!(r.distance >= d_star - tol, "{ctx}: beat the oracle");
            assert!(
                r.distance - a.error_bound <= d_star + tol,
                "{ctx}: error bound {} fails {} vs {d_star}",
                a.error_bound,
                r.distance
            );
        }
    };
    let assert_no_pins = |ctx: &str| {
        for (si, shard) in sharded.shards().iter().enumerate() {
            let storage = shard.tree().storage().expect("disk-backed");
            assert_eq!(storage.pool_stats().pinned, 0, "{ctx}: shard {si} leaked a pin");
        }
    };

    // Tiny I/O allowance: some shard trips mid-scatter; the merge still
    // produces a typed partial with sound bounds.
    let exact = SearchRequest::nwc(query, Scheme::NWC_STAR)
        .with_budget(Budget::none())
        .with_approx(Approx::exact());
    let tight = sharded
        .search(&exact.clone().with_budget(Budget::none().io_limit(3)), &mut QueryScratch::new())
        .expect("budget trip mid-scatter must not fail the query");
    assert!(
        tight.exhausted.is_some(),
        "a 3-node allowance cannot cover a 4-shard scatter"
    );
    check_bounds(&tight, "tight budget");
    assert_no_pins("tight budget");

    // Kill a page in shard 0 outright: the scatter degrades around it —
    // shard 0 shows up in `degraded`, the other shards' answer merges,
    // and the bound accounts for everything shard 0 could still hide.
    let dead_leaf = {
        let shard0 = &sharded.shards()[0];
        let mut browser = shard0.tree().browse(query.q);
        let leaf = loop {
            match browser.next() {
                Some(BrowseItem::Node { id, .. }) => browser.expand(id),
                Some(BrowseItem::Object { leaf, .. }) => break leaf,
                None => panic!("shard 0 browsed dry"),
            }
        };
        shard0.tree().stats().reset();
        shard0.tree().storage().expect("disk-backed").reset();
        leaf.raw()
    };
    fault.fail_page_permanently(dead_leaf);
    let degraded = sharded
        .search(&exact, &mut QueryScratch::new())
        .expect("a dead shard degrades the bound, it does not fail the query");
    assert!(
        degraded
            .degraded
            .iter()
            .any(|(s, e)| *s == 0 && matches!(e, QueryError::Io(_))),
        "shard 0 must be listed as degraded with a typed I/O error, got {:?}",
        degraded.degraded
    );
    check_bounds(&degraded, "dead shard");
    assert_no_pins("dead shard");

    // Clean recovery: lift the fault and the exact anytime scatter
    // agrees with the exact scatter path again.
    fault.clear_faults();
    sharded.shards()[0].tree().storage().expect("disk-backed").reset();
    sharded.shards()[0].tree().stats().reset();
    let want = sharded
        .search(&SearchRequest::nwc(query, Scheme::NWC_STAR), &mut QueryScratch::new())
        .and_then(Outcome::complete)
        .expect("healthy scatter")
        .into_nwc();
    let got = sharded
        .search(&exact, &mut QueryScratch::new())
        .expect("healthy anytime scatter");
    assert!(got.degraded.is_empty(), "recovered scatter still degraded");
    assert_eq!(
        want.map(|r| r.ids()),
        got.nwc().map(|r| r.ids()),
        "recovered anytime scatter diverged"
    );
    assert!((got.lower_bound - d_star).abs() <= tol || got.lower_bound >= d_star - tol);
}

#[test]
fn engine_collects_per_query_errors_without_tearing_down_the_batch() {
    let arena = NwcIndex::build(chaos_points(5_000));
    let (disk, fault) = fault_backed(
        &arena,
        "engine",
        DiskIndexConfig {
            pool_capacity: Some(48),
            retry: fast_retry(3),
            ..DiskIndexConfig::default()
        },
    );
    // Kill the leaf under one corner of the space: queries aimed there
    // must fail, queries in the opposite corner never read that page.
    let near = Point::new(700.0, 700.0);
    let far = Point::new(9_200.0, 9_200.0);
    let dead_leaf = leaf_page_near(&disk, near);
    fault.fail_page_permanently(dead_leaf);

    let queries: Vec<NwcQuery> = (0..8)
        .map(|i| {
            let q = if i % 2 == 0 { near } else { far };
            NwcQuery::new(q, WindowSpec::square(300.0), 3)
        })
        .collect();
    let engine = QueryEngine::new(&disk).with_threads(4);
    let batch = engine.search_batch(&requests(&queries));
    assert_eq!(batch.len(), queries.len());

    let (mut failed, mut served) = (0, 0);
    for (qi, (q, slot)) in queries.iter().zip(&batch).enumerate() {
        match slot {
            Err(QueryError::Io(e)) => {
                assert_eq!(e.page, dead_leaf, "q{qi} failed on an unexpected page");
                failed += 1;
            }
            Err(other) => panic!("q{qi}: expected Io, got {other}"),
            Ok(got) => {
                let want = nwc_full(&arena, q, Scheme::NWC_STAR).unwrap().0;
                assert_eq!(
                    want.map(|r| r.ids()),
                    got.nwc().map(|r| r.ids()),
                    "q{qi} served a wrong answer next to a dead page"
                );
                served += 1;
            }
        }
    }
    assert_eq!(failed, 4, "every near-corner query descends into the dead leaf");
    assert_eq!(served, 4, "far-corner queries never touch it");

    // The failures left the shared pool coherent under 4 threads.
    let storage = disk.tree().storage().expect("disk-backed");
    assert_eq!(storage.pool_stats().pinned, 0, "a worker leaked a pin");
    let io = disk.tree().stats();
    assert_eq!(
        io.accesses(),
        io.node_reads() + io.buffer_hits(),
        "logical accesses must still decompose exactly"
    );

    // kNWC error collection rides the same machinery.
    let kq = KnwcQuery::new(near, WindowSpec::square(300.0), 3, 2, 1);
    match engine.search_batch(&[SearchRequest::knwc(kq, Scheme::NWC_STAR)]).remove(0) {
        Err(QueryError::Io(e)) => assert_eq!(e.page, dead_leaf),
        other => panic!("expected Io, got {other:?}"),
    }
}

/// A store that runs an armed action whenever page `page` is read,
/// before the read itself (which the inner store may then fail).
struct Tripwire<S> {
    inner: S,
    page: std::sync::atomic::AtomicU32,
    action: std::sync::Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl<S> Tripwire<S> {
    fn arm(&self, page: u32, action: impl Fn() + Send + Sync + 'static) {
        *self.action.lock().expect("tripwire lock") = Some(Box::new(action));
        self.page.store(page, std::sync::atomic::Ordering::SeqCst);
    }

    fn check(&self, page: u32) {
        if page == self.page.load(std::sync::atomic::Ordering::SeqCst) {
            if let Some(action) = &*self.action.lock().expect("tripwire lock") {
                action();
            }
        }
    }
}

impl<S: PageStore> PageStore for Tripwire<S> {
    fn meta(&self) -> StoreMeta {
        self.inner.meta()
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check(page);
        self.inner.read_page(page, buf)
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check(page);
        self.inner.read_page_uncounted(page, buf)
    }

    fn physical_reads(&self) -> u64 {
        self.inner.physical_reads()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
}

#[test]
fn complete_reports_a_budget_trip_over_a_failed_shard() {
    // K = 4 on disk, shard 0 behind a fault store whose root page is
    // dead. Shard 0 is searched first (the query point lies in its tile,
    // one worker); reading its root first trips the budget, then fails.
    // Every later shard stops at its first expansion. So the outcome
    // holds both a budget trip and a shard degraded by an I/O error, and
    // the all-or-nothing contract must report the trip: a shed or
    // cancelled query never passes for a disk fault.
    let built = ShardedNwcIndex::build(chaos_points(2_000), 4);
    let dir = std::env::temp_dir().join(format!("nwc-chaos-complete-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let no_retry = DiskIndexConfig {
        retry: fast_retry(1),
        ..DiskIndexConfig::default()
    };
    let mut shards = Vec::new();
    let mut wire = None;
    for (i, shard) in built.shards().iter().enumerate() {
        let path = dir.join(format!("shard-{i}.pages"));
        shard.save_tree(&path).expect("save shard");
        if i == 0 {
            let store = FileStore::open(&path).expect("reopen shard 0");
            let w = Arc::new(Tripwire {
                inner: FaultStore::new(store, FaultPlan::default()),
                page: std::sync::atomic::AtomicU32::new(u32::MAX),
                action: std::sync::Mutex::new(None),
            });
            shards.push(
                NwcIndex::open_disk_from_store(Box::new(Arc::clone(&w)), no_retry)
                    .expect("open shard 0 through the tripwire"),
            );
            wire = Some(w);
        } else {
            shards.push(NwcIndex::open_disk(&path, no_retry).expect("open shard"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let wire = wire.expect("shard 0 is wired");
    let sharded = ShardedNwcIndex::from_shards(shards, None)
        .expect("assemble")
        .with_threads(1);
    assert_eq!(sharded.shard_count(), 4);
    let shard0 = &sharded.shards()[0];
    let root = shard0.tree().root().raw();
    wire.inner.fail_page_permanently(root);
    let query = NwcQuery::new(shard0.bounds().center(), WindowSpec::square(400.0), 4);

    let run = |budget: Budget, action: Box<dyn Fn() + Send + Sync>| {
        // A cold pool with an empty quarantine: the root read reaches
        // the store, so the tripwire fires.
        shard0.tree().storage().expect("disk-backed").reset();
        wire.arm(root, action);
        let req = SearchRequest::nwc(query, Scheme::NWC_STAR).with_budget(budget);
        let outcome = sharded.search(&req, &mut QueryScratch::new()).expect("a scatter degrades");
        assert!(
            matches!(outcome.degraded.as_slice(), [(0, QueryError::Io(e))] if e.page == root),
            "shard 0 must fail with its I/O error: {:?}",
            outcome.degraded
        );
        outcome
    };

    let deadline = Instant::now() + Duration::from_millis(200);
    let wait_out = move || {
        while Instant::now() <= deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let outcome = run(Budget::with_deadline(deadline), Box::new(wait_out));
    assert_eq!(outcome.exhausted, Some(CancelKind::Deadline));
    assert_eq!(outcome.complete().unwrap_err(), QueryError::Deadline);

    let flag = CancelFlag::new();
    let raise = {
        let flag = flag.clone();
        move || flag.stop()
    };
    let outcome = run(Budget::with_flag(&flag), Box::new(raise));
    assert_eq!(outcome.exhausted, Some(CancelKind::Stopped));
    assert_eq!(outcome.complete().unwrap_err(), QueryError::Cancelled);
}
