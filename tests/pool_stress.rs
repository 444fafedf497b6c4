//! Concurrency stress for the sharded buffer pool: parallel
//! [`QueryEngine`] batches hammer one shared disk-backed tree (clustered
//! layout, bounded sharded pool) and every answer must match the
//! in-memory arena, with the aggregate pool / I/O accounting exact
//! afterwards — no access lost or double-counted across threads or
//! shards.

use nwc::prelude::*;
use nwc_store::{FaultPlan, FaultStore, FileStore, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    std::env::temp_dir().join(format!("nwc-stress-{tag}-{}.pages", std::process::id()))
}

fn stress_points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Point::new((s % 9_000) as f64 + 500.0, ((s >> 13) % 9_000) as f64 + 500.0)
        })
        .collect()
}

#[test]
fn concurrent_engine_batches_on_a_shared_disk_tree_stay_consistent() {
    let points = stress_points(6_000);
    let arena = NwcIndex::build(points);
    let path = temp_pages("engine");
    arena
        .save_tree_with_layout(&path, PageLayout::Clustered)
        .expect("save clustered");
    let disk = NwcIndex::open_disk(
        &path,
        DiskIndexConfig {
            pool_capacity: Some(48),
            pool_shards: Some(4),
            ..DiskIndexConfig::default()
        },
    )
    .expect("open");
    std::fs::remove_file(&path).ok();

    let queries: Vec<NwcQuery> = Dataset::query_points(24, 7)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(400.0), 4))
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| nwc_full(&arena, q, Scheme::NWC_STAR).unwrap())
        .collect();

    // Several rounds so later ones run against a warm, already-churned
    // pool — eviction and demand faulting interleave across the 4
    // worker threads.
    let requests: Vec<SearchRequest> =
        queries.iter().map(|q| SearchRequest::nwc(*q, Scheme::NWC_STAR)).collect();
    let engine = QueryEngine::new(&disk).with_threads(4);
    for round in 0..3 {
        let batch = engine.search_batch(&requests);
        assert_eq!(batch.len(), queries.len());
        for (qi, ((want, ws), got)) in expected.iter().zip(&batch).enumerate() {
            let got = got.as_ref().expect("a healthy disk answers");
            let gs = &got.stats;
            match (want, got.nwc()) {
                (None, None) => {}
                (Some(a), Some(d)) => {
                    assert_eq!(a.ids(), d.ids(), "round {round} q{qi}");
                    assert_eq!(a.distance, d.distance, "round {round} q{qi}");
                }
                _ => panic!("round {round} q{qi}: one mode found a result, one did not"),
            }
            // Per-query logical I/O attribution survives the thread
            // pool.
            assert_eq!(
                SearchStats { buffer_hits: 0, ..*gs },
                *ws,
                "round {round} q{qi}: stats diverge"
            );
        }
    }

    // Aggregate accounting after all the concurrency.
    let io = disk.tree().stats();
    let storage = disk.tree().storage().expect("disk-backed");
    let pool = storage.pool_stats();
    assert_eq!(
        io.accesses(),
        io.node_reads() + io.buffer_hits(),
        "logical accesses must decompose exactly"
    );
    assert_eq!(pool.hits, io.buffer_hits(), "pool and stats disagree on hits");
    assert_eq!(pool.misses, io.node_reads(), "pool and stats disagree on misses");
    assert_eq!(
        storage.physical_reads(),
        pool.misses,
        "every pool miss is exactly one physical read"
    );
    assert!(pool.evictions > 0, "a 48-frame pool over this tree must churn");
    // Decoded-node residency stays bounded: pool capacity plus, at
    // worst, one transient (all-frames-pinned fallback) decode per
    // concurrently descending thread and level.
    let height = disk.tree().height();
    assert!(
        storage.peak_resident_nodes() <= 48 + 4 * height,
        "peak resident {} far exceeds the pool bound",
        storage.peak_resident_nodes()
    );
    assert_eq!(storage.io_errors(), 0);
}

/// Mid-descent faults must not poison the sharded pool: after a round in
/// which ~half the 4-thread batch dies on a permanently bad page, the
/// pool holds no leaked pins, the accounting still decomposes exactly,
/// and — once the fault is lifted and counters reset — a healthy re-run
/// restores the strict pool/stats equalities of the test above.
#[test]
fn pool_survives_mid_descent_faults_under_concurrency() {
    let arena = NwcIndex::build(stress_points(6_000));
    let path = temp_pages("faulted");
    arena
        .save_tree_with_layout(&path, PageLayout::Clustered)
        .expect("save clustered");
    let fault = Arc::new(FaultStore::new(
        FileStore::open(&path).expect("reopen page file"),
        FaultPlan::default(),
    ));
    let disk = NwcIndex::open_disk_from_store(
        Box::new(Arc::clone(&fault)),
        DiskIndexConfig {
            pool_capacity: Some(48),
            pool_shards: Some(4),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            ..DiskIndexConfig::default()
        },
    )
    .expect("open");
    std::fs::remove_file(&path).ok();

    let queries: Vec<NwcQuery> = Dataset::query_points(24, 7)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(400.0), 4))
        .collect();
    let requests: Vec<SearchRequest> =
        queries.iter().map(|q| SearchRequest::nwc(*q, Scheme::NWC_STAR)).collect();
    let engine = QueryEngine::new(&disk).with_threads(4);
    let storage = disk.tree().storage().expect("disk-backed");

    // Round 1: kill the root — every query errors, across all 4 workers.
    let root = disk.tree().root().raw();
    fault.fail_page_permanently(root);
    let batch = engine.search_batch(&requests);
    assert!(batch.iter().all(|r| r.is_err()), "root is unreadable");
    assert_eq!(storage.pool_stats().pinned, 0, "a failed descent leaked a pin");
    let io = disk.tree().stats();
    // Failed load attempts bump pool misses but never logical accesses,
    // so the decomposition must still hold (the strict pool == stats
    // equalities intentionally don't during a faulted round).
    assert_eq!(io.accesses(), io.node_reads() + io.buffer_hits());
    assert!(storage.io_errors() > 0, "the fault never reached the device");

    // Round 2: lift the fault, reset, and demand the healthy-run
    // invariants — the failed round must leave no residue behind.
    fault.clear_faults();
    storage.reset();
    io.reset();
    for q in &queries {
        let want = nwc_full(&arena, q, Scheme::NWC_STAR).unwrap().0;
        let got = nwc_full(&disk, q, Scheme::NWC_STAR).map(|(r, _)| r).expect("healthy again");
        assert_eq!(want.map(|r| r.ids()), got.map(|r| r.ids()));
    }
    let batch = engine.search_batch(&requests);
    assert!(batch.iter().all(|r| r.is_ok()));
    let pool = storage.pool_stats();
    assert_eq!(pool.hits, io.buffer_hits(), "pool/stats hit accounting diverged");
    assert_eq!(pool.misses, io.node_reads(), "pool/stats miss accounting diverged");
    assert_eq!(storage.physical_reads(), pool.misses);
    assert_eq!(pool.pinned, 0);
    assert_eq!(storage.io_errors(), 0);
    assert_eq!(io.retries(), 0);
    assert!(storage.quarantine().is_empty());
}
