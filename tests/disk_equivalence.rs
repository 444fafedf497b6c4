//! The disk mode's contract, end to end:
//!
//! 1. **Equivalence** — a FileStore-backed index with an unbounded pool
//!    answers every Table-3 scheme with the *same results and the same
//!    per-query `SearchStats` I/O counts* as the in-memory arena; the
//!    arena's node reads equal the disk tree's physical reads + buffer
//!    hits.
//! 2. **Round-trip edges** — empty tree, single point, duplicate
//!    points, nodes at exactly `max_entries`, height ≥ 3 trees.
//! 3. **Corruption** — cycles, dangling children, bad tags/counts,
//!    bit flips and truncation are rejected with typed errors, never
//!    panics.
//! 4. **Writable mode** — mutations and a sliding-window
//!    `StreamingIngestor` agree with the arena while uncommitted, after
//!    commit, and after a cold reopen.

use nwc::core::{IndexOpenError, IngestConfig, StreamingIngestor};
use nwc::prelude::*;
use nwc::rtree::{validate, DiskError, PageError, RStarTree, TreeParams};
use nwc::store::StoreError;
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

/// The groups of an exact kNWC request, all or nothing.
fn knwc(index: &NwcIndex, query: &KnwcQuery, scheme: Scheme) -> Result<KnwcResult, QueryError> {
    let req = SearchRequest::knwc(*query, scheme);
    Ok(index.search(&req, &mut QueryScratch::new())?.complete()?.into_knwc())
}

/// A unique temp path per call (tests run concurrently).
fn temp_pages(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nwc-test-{tag}-{}-{n}.pages",
        std::process::id()
    ))
}

/// Saves `index`'s tree and reopens it disk-backed with an unbounded
/// pool, grid and IWP rebuilt (so every scheme runs).
fn reopen_disk(index: &NwcIndex, tag: &str) -> NwcIndex {
    let path = temp_pages(tag);
    index.save_tree(&path).expect("save");
    let disk = NwcIndex::open_disk(&path, DiskIndexConfig::default()).expect("open");
    std::fs::remove_file(&path).ok();
    disk
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

#[test]
fn disk_results_and_io_match_arena_for_all_schemes() {
    for (ds, n_pts, seed) in [("a", 350usize, 11u64), ("b", 900, 29), ("c", 2000, 71)] {
        let points = seeded_points(n_pts, seed);
        let arena = NwcIndex::build(points);
        let disk = reopen_disk(&arena, "equiv");
        let queries = Dataset::query_points(5, seed);
        for scheme in Scheme::TABLE3 {
            for (qi, &q) in queries.iter().enumerate() {
                for spec in [WindowSpec::square(60.0), WindowSpec::new(120.0, 40.0)] {
                    let query = NwcQuery::new(q, spec, 4);
                    let (ra, sa) = nwc_full(&arena, &query, scheme).unwrap();
                    let (rd, sd) = nwc_full(&disk, &query, scheme).unwrap();
                    // Identical answers...
                    match (&ra, &rd) {
                        (None, None) => {}
                        (Some(a), Some(d)) => {
                            assert_eq!(a.ids(), d.ids(), "{ds}/{scheme}/q{qi}");
                            assert_eq!(a.distance, d.distance, "{ds}/{scheme}/q{qi}");
                            assert_eq!(a.window, d.window, "{ds}/{scheme}/q{qi}");
                        }
                        _ => panic!("{ds}/{scheme}/q{qi}: one mode found a result, one did not"),
                    }
                    // ...and identical I/O counts: only the physical/hit
                    // split may differ, never the logical counters.
                    assert_eq!(sa.buffer_hits, 0, "arena tree must never hit a buffer");
                    assert_eq!(
                        SearchStats { buffer_hits: 0, ..sd },
                        sa,
                        "{ds}/{scheme}/q{qi}: stats diverge"
                    );
                }
            }
        }
        // Tree-level accounting: every logical access on the disk tree is
        // either a physical read or a buffer hit, and the logical total
        // matches the arena exactly.
        let io = disk.tree().stats();
        assert_eq!(
            io.accesses(),
            io.node_reads() + io.buffer_hits(),
            "accesses must decompose exactly"
        );
        let storage = disk.tree().storage().expect("disk-backed");
        let pool = storage.pool_stats();
        assert_eq!(pool.hits, io.buffer_hits(), "pool and stats disagree on hits");
        assert_eq!(pool.misses, io.node_reads(), "pool and stats disagree on misses");
        assert_eq!(storage.physical_reads(), pool.misses);
        assert_eq!(storage.io_errors(), 0);
        assert_eq!(pool.evictions, 0, "unbounded pool must not evict");
    }
}

#[test]
fn clustered_layout_keeps_answers_and_logical_io_bit_identical() {
    // The clustered page layout only relabels pages. Saved clustered,
    // reopened with an unbounded pool and with a bounded one,
    // every scheme must return the same answers and the same per-query
    // logical I/O as the arena.
    let points = seeded_points(1500, 59);
    let arena = NwcIndex::build(points);
    let path = temp_pages("clustered");
    arena
        .save_tree_with_layout(&path, PageLayout::Clustered)
        .expect("save clustered");
    let configs = [
        ("plain", DiskIndexConfig::default()),
        (
            "bounded",
            DiskIndexConfig {
                pool_capacity: Some(64),
                ..DiskIndexConfig::default()
            },
        ),
    ];
    for (tag, config) in configs {
        let disk = NwcIndex::open_disk(&path, config).expect("open clustered");
        assert_eq!(
            disk.tree().storage().expect("disk-backed").layout(),
            PageLayout::Clustered,
            "{tag}: layout must round-trip through the header"
        );
        let queries = Dataset::query_points(4, 59);
        for scheme in Scheme::TABLE3 {
            for (qi, &q) in queries.iter().enumerate() {
                let query = NwcQuery::new(q, WindowSpec::square(70.0), 4);
                let (ra, sa) = nwc_full(&arena, &query, scheme).unwrap();
                let (rd, sd) = nwc_full(&disk, &query, scheme).unwrap();
                match (&ra, &rd) {
                    (None, None) => {}
                    (Some(a), Some(d)) => {
                        assert_eq!(a.ids(), d.ids(), "{tag}/{scheme}/q{qi}");
                        assert_eq!(a.distance, d.distance, "{tag}/{scheme}/q{qi}");
                    }
                    _ => panic!("{tag}/{scheme}/q{qi}: one mode found a result, one did not"),
                }
                assert_eq!(
                    SearchStats { buffer_hits: 0, ..sd },
                    sa,
                    "{tag}/{scheme}/q{qi}: logical stats diverge"
                );
            }
        }
        // Physical demand reads equal pool misses exactly.
        let storage = disk.tree().storage().expect("disk-backed");
        let io = disk.tree().stats();
        let pool = storage.pool_stats();
        assert_eq!(pool.hits, io.buffer_hits(), "{tag}");
        assert_eq!(pool.misses, io.node_reads(), "{tag}");
        assert_eq!(storage.physical_reads(), pool.misses, "{tag}");
        assert_eq!(pool.pinned, 0, "{tag}: query path leaked a pin");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn writable_disk_mutations_commit_and_reopen_match_the_mutated_arena() {
    // The writable-mode acceptance bar: an identical insert/delete
    // script applied to an in-memory index and a shadow-paged disk
    // index must agree — while the disk overlay is still uncommitted,
    // and again after commit + cold reopen — on every Table-3 scheme's
    // answers *and* logical I/O, bit for bit.
    let base = seeded_points(900, 29);
    let mut arena = NwcIndex::build(base);
    let path = temp_pages("writable");
    arena.save_tree_writable(&path).expect("save writable");
    let mut disk =
        NwcIndex::open_disk(&path, DiskIndexConfig::default()).expect("open writable");

    for (i, &p) in seeded_points(150, 101).iter().enumerate() {
        let fresh = Point::new(p.x + 0.5, p.y + 0.5);
        let ia = arena.insert(fresh).expect("arena insert");
        let id = disk.insert(fresh).expect("disk insert");
        assert_eq!(ia, id, "backends must assign identical ids");
        if i % 3 == 0 {
            let victim = (i * 37 % 900) as u32;
            let ra = arena.remove(victim).expect("arena remove");
            let rd = disk.remove(victim).expect("disk remove");
            assert_eq!(ra, rd, "backends disagree on liveness of {victim}");
        }
    }
    assert_eq!(arena.len(), disk.len());

    let sweep = |disk: &NwcIndex, stage: &str| {
        let queries = Dataset::query_points(5, 29);
        for scheme in Scheme::TABLE3 {
            for (qi, &q) in queries.iter().enumerate() {
                let query = NwcQuery::new(q, WindowSpec::square(60.0), 4);
                let (ra, sa) = nwc_full(&arena, &query, scheme).unwrap();
                let (rd, sd) = nwc_full(disk, &query, scheme).unwrap();
                match (&ra, &rd) {
                    (None, None) => {}
                    (Some(a), Some(d)) => {
                        assert_eq!(a.ids(), d.ids(), "{stage}/{scheme}/q{qi}");
                        assert_eq!(a.distance, d.distance, "{stage}/{scheme}/q{qi}");
                        assert_eq!(a.window, d.window, "{stage}/{scheme}/q{qi}");
                    }
                    _ => panic!("{stage}/{scheme}/q{qi}: one mode found a result, one did not"),
                }
                assert_eq!(
                    SearchStats { buffer_hits: 0, ..sd },
                    sa,
                    "{stage}/{scheme}/q{qi}: logical I/O diverges"
                );
            }
        }
    };

    // Uncommitted: queries read through the dirty overlay.
    sweep(&disk, "overlay");
    let storage = disk.tree().storage().expect("disk-backed");
    assert!(storage.dirty_nodes() > 0, "the script never dirtied a node");

    disk.commit().expect("commit");
    assert_eq!(
        disk.tree().storage().expect("disk-backed").dirty_nodes(),
        0,
        "commit must drain the overlay"
    );
    // Shadow paging renumbered the flushed nodes; NWC* runs on the
    // durable page ids with nothing to rebuild.
    sweep(&disk, "committed");

    // Cold reopen from the committed file: same contract, fresh pool,
    // grid rebuilt from the durable pages alone.
    drop(disk);
    let disk = NwcIndex::open_disk(&path, DiskIndexConfig::default()).expect("reopen committed");
    std::fs::remove_file(&path).ok();
    assert_eq!(arena.len(), disk.len());
    sweep(&disk, "reopened");
}

#[test]
fn streaming_ingest_on_a_writable_disk_index_matches_the_arena_and_reopens() {
    // Two sliding-window ingestors fed the same stream — one over the
    // arena, one over a shadow-paged file that commits every 64 pushes
    // behind an 8-frame pool (the tree has ~40 nodes, so the pool keeps
    // evicting) — must give the same NWC+ answers while their windows
    // slide, and the committed file must reopen cold holding the window
    // and answering like the arena.
    let base = seeded_points(1500, 29);
    let arena = NwcIndex::build(base);
    let path = temp_pages("ingest");
    arena.save_tree_writable(&path).expect("save writable");
    let config = DiskIndexConfig {
        pool_capacity: Some(8),
        ..DiskIndexConfig::default()
    };
    let disk = NwcIndex::open_disk(&path, config).expect("open writable");
    let ingest = IngestConfig {
        capacity: 1200,
        commit_every: 64,
    };
    let mut on_arena = StreamingIngestor::new(arena, ingest);
    let mut on_disk = StreamingIngestor::new(disk, ingest);

    let probe = |q: Point| NwcQuery::new(q, WindowSpec::square(60.0), 4);
    let assert_same = |a: &NwcIndex, d: &NwcIndex, q: Point, stage: &str| {
        let ra = nwc_full(a, &probe(q), Scheme::NWC_PLUS).unwrap().0;
        let rd = nwc_full(d, &probe(q), Scheme::NWC_PLUS).unwrap().0;
        match (&ra, &rd) {
            (None, None) => {}
            (Some(a), Some(d)) => {
                assert_eq!(a.ids(), d.ids(), "{stage}: object sets differ");
                assert_eq!(a.distance.to_bits(), d.distance.to_bits(), "{stage}");
            }
            _ => panic!("{stage}: one backend found a result, one did not"),
        }
    };

    let mut probes = Vec::new();
    for (i, &p) in seeded_points(600, 101).iter().enumerate() {
        let fresh = Point::new(p.x + 0.5, p.y + 0.5);
        let ia = on_arena.push(fresh).expect("arena push");
        let id = on_disk.push(fresh).expect("disk push");
        assert_eq!(ia, id, "backends must assign identical ids");
        if i % 32 == 0 {
            probes.push(fresh);
            assert_same(on_arena.index(), on_disk.index(), fresh, &format!("push {i}"));
        }
    }
    assert_eq!(on_arena.window_len(), on_disk.window_len());
    assert!(on_arena.evicted() > 0, "the arena window never slid");
    assert!(on_disk.evicted() > 0, "the disk window never slid");
    assert!(on_disk.commits() > 0, "the disk ingestor never committed");

    on_disk.commit().expect("final commit");
    let window = on_disk.window_len();
    drop(on_disk.into_index());
    let reopened = NwcIndex::open_disk(&path, config).expect("reopen committed");
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.len(), window, "reopen lost objects");
    for (pi, &q) in probes.iter().enumerate() {
        assert_same(on_arena.index(), &reopened, q, &format!("reopened probe {pi}"));
    }
}

#[test]
fn disk_knwc_matches_arena() {
    let arena = NwcIndex::build(seeded_points(700, 43));
    let disk = reopen_disk(&arena, "knwc");
    for &q in &Dataset::query_points(3, 43) {
        let query = KnwcQuery::new(q, WindowSpec::square(80.0), 4, 3, 1);
        let ka = knwc(&arena, &query, Scheme::NWC_STAR).unwrap();
        let kd = knwc(&disk, &query, Scheme::NWC_STAR).unwrap();
        assert_eq!(ka.groups.len(), kd.groups.len());
        for (ga, gd) in ka.groups.iter().zip(&kd.groups) {
            assert_eq!(ga.id_set(), gd.id_set());
            assert_eq!(ga.distance, gd.distance);
        }
        assert_eq!(
            SearchStats { buffer_hits: 0, ..kd.stats },
            ka.stats,
            "kNWC stats diverge"
        );
    }
}

#[test]
fn disk_engine_batch_matches_sequential() {
    let arena = NwcIndex::build(seeded_points(600, 17));
    let disk = reopen_disk(&arena, "engine");
    let queries: Vec<NwcQuery> = Dataset::query_points(6, 17)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(70.0), 3))
        .collect();
    let requests: Vec<SearchRequest> =
        queries.iter().map(|q| SearchRequest::nwc(*q, Scheme::NWC_STAR)).collect();
    let batch = QueryEngine::new(&disk).with_threads(2).search_batch(&requests);
    for (q, got) in queries.iter().zip(&batch) {
        let got = got.as_ref().expect("a healthy disk answers");
        let gs = &got.stats;
        let (want, ws) = nwc_full(&arena, q, Scheme::NWC_STAR).unwrap();
        match (&want, got.nwc()) {
            (None, None) => {}
            (Some(a), Some(d)) => assert_eq!(a.ids(), d.ids()),
            _ => panic!("engine/sequential disagree"),
        }
        assert_eq!(SearchStats { buffer_hits: 0, ..*gs }, ws);
    }
}

// ---------------------------------------------------------------------
// Round-trip edge cases.
// ---------------------------------------------------------------------

/// Serialize → deserialize → structural check + full content equality.
fn roundtrip(tree: &RStarTree) -> RStarTree {
    let back = RStarTree::from_page_file(&tree.to_page_file()).expect("roundtrip");
    validate::check_invariants(&back).expect("invariants");
    assert_eq!(back.len(), tree.len());
    assert_eq!(back.height(), tree.height());
    let mut a: Vec<(u32, (u64, u64))> = tree
        .iter_entries()
        .map(|e| (e.id, (e.point.x.to_bits(), e.point.y.to_bits())))
        .collect();
    let mut b: Vec<(u32, (u64, u64))> = back
        .iter_entries()
        .map(|e| (e.id, (e.point.x.to_bits(), e.point.y.to_bits())))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "entry sets differ after round-trip");
    back
}

#[test]
fn roundtrip_empty_tree() {
    let tree = RStarTree::new();
    let back = roundtrip(&tree);
    assert!(back.is_empty());
    assert!(back.window_query(&Rect::new(Point::new(-1e9, -1e9), Point::new(1e9, 1e9))).is_empty());
}

#[test]
fn roundtrip_empty_tree_on_disk_but_index_rejects_it() {
    let tree = RStarTree::new();
    let path = temp_pages("empty");
    tree.save_to_path(&path).unwrap();
    let back = RStarTree::open_from_path(&path, None).unwrap();
    assert!(back.is_empty());
    // Release the advisory lock before reopening the same file.
    drop(back);
    // An index over zero objects is meaningless: typed error, no panic.
    match NwcIndex::open_disk(&path, DiskIndexConfig::default()) {
        Err(IndexOpenError::EmptyDataset) => {}
        other => panic!("expected EmptyDataset, got {:?}", other.err()),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn roundtrip_single_point() {
    let mut tree = RStarTree::new();
    tree.insert(7, Point::new(3.5, -2.25)).unwrap();
    let back = roundtrip(&tree);
    let hits = back.window_query(&Rect::new(Point::new(3.0, -3.0), Point::new(4.0, -2.0)));
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id, 7);
}

#[test]
fn roundtrip_duplicate_points() {
    // 120 objects on 3 distinct locations: leaves full of duplicates.
    let p = [Point::new(5.0, 5.0), Point::new(5.0, 5.0), Point::new(-1.0, 2.0)];
    let points: Vec<Point> = (0..120).map(|i| p[i % 3]).collect();
    let tree = RStarTree::bulk_load(&points);
    let back = roundtrip(&tree);
    let hits = back.window_query(&Rect::new(Point::new(4.9, 4.9), Point::new(5.1, 5.1)));
    assert_eq!(hits.len(), 80);
}

#[test]
fn roundtrip_node_at_exactly_max_entries() {
    let params = TreeParams::default();
    for n in [params.max_entries, params.max_entries * 3] {
        let points: Vec<Point> =
            (0..n).map(|i| Point::new(i as f64, (i * i % 31) as f64)).collect();
        let tree = RStarTree::bulk_load_with_params(&points, params);
        roundtrip(&tree);
    }
}

#[test]
fn roundtrip_height_three_and_four() {
    // Fanout 4 forces tall trees with few points.
    let params = TreeParams::with_max_entries(4);
    for n in [40usize, 300] {
        let points: Vec<Point> =
            (0..n).map(|i| Point::new(((i * 37) % 211) as f64, ((i * 53) % 199) as f64)).collect();
        let tree = RStarTree::bulk_load_with_params(&points, params);
        assert!(tree.height() >= 3, "n={n} gave height {}", tree.height());
        roundtrip(&tree);
    }
}

// ---------------------------------------------------------------------
// Corruption: typed rejection, never a panic or a hang.
// ---------------------------------------------------------------------

/// Builds a height-≥2 page file to corrupt. Internal page layout:
/// tag(1) level(4) count(4) mbr(32), then 36-byte child entries, child
/// page id first — so the root's first child pointer is bytes 41..45.
fn corruptible() -> (nwc::rtree::PageFile, u32) {
    let points: Vec<Point> =
        (0..900).map(|i| Point::new(((i * 31) % 499) as f64, ((i * 57) % 491) as f64)).collect();
    let tree = RStarTree::bulk_load(&points);
    assert!(tree.height() >= 2);
    let file = tree.to_page_file();
    let root = file.root_page();
    (file, root)
}

#[test]
fn cycle_in_child_pointers_rejected() {
    let (mut file, root) = corruptible();
    // Root's first child now points back at the root: a cycle.
    file.page_mut(root)[41..45].copy_from_slice(&root.to_le_bytes());
    assert_eq!(
        RStarTree::from_page_file(&file).unwrap_err(),
        PageError::Cycle(root)
    );
}

#[test]
fn dangling_child_rejected() {
    let (mut file, root) = corruptible();
    file.page_mut(root)[41..45].copy_from_slice(&0xDEAD_u32.to_le_bytes());
    assert_eq!(
        RStarTree::from_page_file(&file).unwrap_err(),
        PageError::DanglingChild(0xDEAD)
    );
}

#[test]
fn level_mismatch_rejected() {
    let (mut file, root) = corruptible();
    // Claim the root sits at level 9: its leaf children no longer match.
    file.page_mut(root)[1..5].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        RStarTree::from_page_file(&file).unwrap_err(),
        PageError::Invalid(_)
    ));
}

#[test]
fn bad_tag_and_overflow_rejected() {
    let (mut file, root) = corruptible();
    file.page_mut(root)[0] = 42;
    assert_eq!(RStarTree::from_page_file(&file).unwrap_err(), PageError::BadTag(42));

    let (mut file, root) = corruptible();
    file.page_mut(root)[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        RStarTree::from_page_file(&file).unwrap_err(),
        PageError::Overflow(u32::MAX)
    );
}

#[test]
fn on_disk_bit_flip_truncation_and_garbage_rejected() {
    let points = seeded_points(500, 5);
    let tree = RStarTree::bulk_load(&points);
    let path = temp_pages("corrupt");
    tree.save_to_path(&path).unwrap();

    // Flip one data byte: the per-page checksum catches it at open.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 100;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match RStarTree::open_from_path(&path, None) {
        Err(DiskError::Store(StoreError::PageChecksum { .. })) => {}
        other => panic!("expected PageChecksum, got {:?}", other.err()),
    }

    // Truncate mid-page.
    bytes[mid] ^= 0x40; // restore
    let cut = bytes.len() - 2000;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    match RStarTree::open_from_path(&path, None) {
        Err(DiskError::Store(StoreError::Truncated { .. })) => {}
        other => panic!("expected Truncated, got {:?}", other.err()),
    }

    // Not a page file at all.
    std::fs::write(&path, b"definitely not a page file").unwrap();
    match RStarTree::open_from_path(&path, None) {
        Err(DiskError::Store(StoreError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {:?}", other.err()),
    }
    std::fs::remove_file(&path).ok();
}
