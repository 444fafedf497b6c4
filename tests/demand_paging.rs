//! Demand paging end to end: with a pool of `C` frames, at most `C`
//! decoded nodes are ever resident while the Table-3 schemes run — and
//! the answers and logical I/O counters stay identical to the
//! in-memory arena, eviction or not.

use nwc::prelude::*;
use nwc::rtree::PAGE_SIZE;
use nwc::store::{FileStore, MemStore, PageStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

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

/// A unique temp path per call (tests run concurrently).
fn temp_pages(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nwc-paging-{tag}-{}-{n}.pages",
        std::process::id()
    ))
}

fn seeded_points(n: usize, seed: u64) -> Vec<Point> {
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

/// Saves the arena index and reopens it with the given pool bound.
fn reopen_with(arena: &NwcIndex, tag: &str, config: DiskIndexConfig) -> NwcIndex {
    let path = temp_pages(tag);
    arena.save_tree(&path).expect("save");
    let disk = NwcIndex::open_disk(&path, config).expect("open");
    std::fs::remove_file(&path).ok();
    disk
}

/// Saves the arena index and reopens it read-only: its pages served by
/// a `MemStore` with no write path.
fn reopen_read_only(arena: &NwcIndex, tag: &str) -> NwcIndex {
    let path = temp_pages(tag);
    arena.save_tree(&path).expect("save");
    let file = FileStore::open(&path).expect("open");
    let meta = file.meta();
    let pages = (0..meta.page_count)
        .map(|p| {
            let mut page = [0u8; PAGE_SIZE];
            file.read_page_uncounted(p, &mut page).expect("read page");
            page
        })
        .collect();
    drop(file);
    std::fs::remove_file(&path).ok();
    let store = MemStore::new(pages, meta.root_page, meta.user).expect("store");
    NwcIndex::open_disk_from_store(Box::new(store), DiskIndexConfig::default()).expect("open")
}

/// Runs every Table-3 scheme on both indexes and asserts identical
/// answers and identical logical I/O (only the hit/miss split differs).
fn assert_equivalent_under_pressure(arena: &NwcIndex, disk: &NwcIndex, seed: u64) {
    for scheme in Scheme::TABLE3 {
        for (qi, &q) in Dataset::query_points(2, seed).iter().enumerate() {
            for spec in [WindowSpec::square(60.0), WindowSpec::new(120.0, 40.0)] {
                let query = NwcQuery::new(q, spec, 4);
                let (ra, sa) = nwc_full(arena, &query, scheme).unwrap();
                let (rd, sd) = nwc_full(disk, &query, scheme).unwrap();
                match (&ra, &rd) {
                    (None, None) => {}
                    (Some(a), Some(d)) => {
                        assert_eq!(a.ids(), d.ids(), "{scheme}/q{qi}");
                        assert_eq!(a.distance, d.distance, "{scheme}/q{qi}");
                    }
                    _ => panic!("{scheme}/q{qi}: one mode found a result, one did not"),
                }
                assert_eq!(
                    SearchStats { buffer_hits: 0, ..sd },
                    sa,
                    "{scheme}/q{qi}: logical I/O diverges under a tiny pool"
                );
            }
        }
    }
}

#[test]
fn pool_capacity_bounds_resident_nodes_across_schemes() {
    let arena = NwcIndex::build(seeded_points(1500, 13));
    // A few frames above the height: enough to pin a root-to-leaf path
    // during descent, far below the node count, so eviction is constant.
    let cap = arena.tree().height() + 2;
    let disk = reopen_with(
        &arena,
        "bound",
        DiskIndexConfig {
            pool_capacity: Some(cap),
            ..DiskIndexConfig::default()
        },
    );
    assert!(
        disk.tree().node_count() > 4 * cap,
        "tree too small to exercise eviction: {} nodes vs {cap} frames",
        disk.tree().node_count()
    );

    assert_equivalent_under_pressure(&arena, &disk, 13);

    let storage = disk.tree().storage().expect("disk-backed");
    let peak = storage.peak_resident_nodes();
    assert!(peak > 0, "queries must have faulted nodes in");
    assert!(
        peak <= cap,
        "peak resident decoded nodes {peak} exceeds pool capacity {cap}"
    );
    let pool = storage.pool_stats();
    assert!(pool.evictions > 0, "a {cap}-frame pool over this tree must evict");
    assert_eq!(storage.io_errors(), 0);
    // Every logical access decomposes into a physical read or a hit.
    let io = disk.tree().stats();
    assert_eq!(io.accesses(), io.node_reads() + io.buffer_hits());
    assert_eq!(storage.physical_reads(), pool.misses);
}

/// Pool capacities swept, as fractions of the page file's page count.
const CAPACITY_FRACTIONS: [f64; 5] = [0.01, 0.05, 0.10, 0.25, 1.0];

#[test]
fn pool_capacity_sweep_keeps_logical_io_and_lru_monotone() {
    let ca = Dataset::paper_trio_scaled(1240, 100, 100, 2016)
        .into_iter()
        .find(|d| d.name == "CA")
        .expect("CA dataset");
    let arena = NwcIndex::build(ca.points);
    let pages = arena.tree().node_count();
    let queries: Vec<NwcQuery> = Dataset::query_points(3, 2016)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(200.0), 8))
        .collect();
    let run = |index: &NwcIndex, scheme: Scheme| -> u64 {
        queries
            .iter()
            .map(|q| nwc_full(index, q, scheme).unwrap().1.io_total)
            .sum()
    };
    let arena_io: Vec<u64> = Scheme::TABLE3.iter().map(|&s| run(&arena, s)).collect();

    let path = temp_pages("sweep");
    arena.save_tree(&path).expect("save");
    // Per scheme, the pool counters of the previous (smaller) cell.
    let mut prev: Vec<Option<nwc::store::PoolStats>> = vec![None; Scheme::TABLE3.len()];
    for frac in CAPACITY_FRACTIONS {
        let frames = ((pages as f64 * frac).ceil() as usize).max(1);
        let config = DiskIndexConfig {
            pool_capacity: Some(frames),
            ..DiskIndexConfig::default()
        };
        let disk = NwcIndex::open_disk(&path, config).expect("open");
        let storage = disk.tree().storage().expect("disk-backed");
        for (si, &scheme) in Scheme::TABLE3.iter().enumerate() {
            let name = format!("{scheme}/{frames} frames");
            // Each scheme measures from a cold pool.
            storage.reset();
            assert_eq!(
                run(&disk, scheme),
                arena_io[si],
                "{name}: logical I/O differs"
            );
            let pool = storage.pool_stats();
            assert_eq!(pool.hits + pool.misses, arena_io[si], "{name}");
            let peak = storage.peak_resident_nodes();
            assert!(peak > 0, "{name}: gauge never moved");
            if let Some(p) = prev[si] {
                assert!(pool.misses <= p.misses, "{name}: physical reads rose");
                assert!(pool.hits >= p.hits, "{name}: hits fell");
            }
            if frac == 1.0 {
                // The whole file fits: no eviction, and residency
                // stays within the frames.
                assert_eq!(pool.evictions, 0, "{name}");
                assert!(storage.physical_reads() as usize <= pages, "{name}");
                assert!(peak <= frames, "{name}: {peak} resident nodes");
            }
            prev[si] = Some(pool);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn memory_budget_knob_translates_to_frames() {
    let frame = 2 * PAGE_SIZE as u64; // the budget of one decoded node
    let budget_only = DiskIndexConfig {
        memory_budget_bytes: Some(6 * frame),
        ..DiskIndexConfig::default()
    };
    assert_eq!(budget_only.effective_pool_capacity(), Some(6));

    // The stricter of the two bounds wins.
    let both = DiskIndexConfig {
        pool_capacity: Some(4),
        memory_budget_bytes: Some(100 * frame),
        ..DiskIndexConfig::default()
    };
    assert_eq!(both.effective_pool_capacity(), Some(4));

    // A budget below one frame still leaves a working (1-frame) pool.
    let tiny = DiskIndexConfig {
        memory_budget_bytes: Some(1),
        ..DiskIndexConfig::default()
    };
    assert_eq!(tiny.effective_pool_capacity(), Some(1));

    assert_eq!(DiskIndexConfig::default().effective_pool_capacity(), None);
}

#[test]
fn memory_budget_bounds_resident_nodes_end_to_end() {
    let arena = NwcIndex::build(seeded_points(1000, 29));
    let frames = arena.tree().height() + 2;
    let disk = reopen_with(
        &arena,
        "budget",
        DiskIndexConfig {
            memory_budget_bytes: Some(frames as u64 * 2 * PAGE_SIZE as u64),
            ..DiskIndexConfig::default()
        },
    );

    assert_equivalent_under_pressure(&arena, &disk, 29);

    let storage = disk.tree().storage().expect("disk-backed");
    assert!(storage.peak_resident_nodes() > 0);
    assert!(
        storage.peak_resident_nodes() <= frames,
        "budget of {frames} frames exceeded: peak {}",
        storage.peak_resident_nodes()
    );
}

#[test]
fn disk_backed_index_rejects_updates_with_typed_errors() {
    let arena = NwcIndex::build(seeded_points(400, 7));
    let mut disk = reopen_read_only(&arena, "readonly");
    let len = disk.len();

    assert_eq!(
        disk.insert(Point::new(1.0, 1.0)),
        Err(IndexUpdateError::ReadOnly)
    );
    assert_eq!(disk.remove(0), Err(IndexUpdateError::ReadOnly));
    assert_eq!(disk.len(), len, "failed updates must leave the index unchanged");

    // The error carries actionable wording, not a panic message.
    let msg = IndexUpdateError::ReadOnly.to_string();
    assert!(msg.contains("read-only"), "unhelpful message: {msg}");

    // And the index still answers queries afterwards.
    let query = NwcQuery::new(Point::new(50.0, 50.0), WindowSpec::square(80.0), 3);
    assert!(nwc_full(&disk, &query, Scheme::NWC_STAR).unwrap().0.is_some());
}
