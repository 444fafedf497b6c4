//! Shared leaf neighbourhoods, the way IWP answers search regions: the
//! first object of a leaf that needs its region answered fetches every
//! entry inside the DEP extension of the leaf's MBR, and each object of
//! the leaf slices its search region out of that list.
//!
//! 1. **Boundaries** — trees of fanout 8, so search regions cross many
//!    leaves, over data with objects on the query point's vertical and
//!    horizontal lines, on leaf MBR edges (a lattice, so edges are
//!    shared by many objects) and at duplicate positions. IWP, NWC\* and
//!    kNWC\* must equal the brute-force oracle on an arena index, on a
//!    disk index with an 8-frame pool, and at K ∈ {1, 4} shards.
//! 2. **Memory** — a leaf's neighbourhood goes back to the scratch pool
//!    once the leaf's last object has been popped, so after a query
//!    that window-queries every object the scratch retains far less
//!    neighbourhood storage than the query fetched in total. The node
//!    memo the fetches descend through holds decoded nodes, never page
//!    guards, and drops them all whenever a query returns.

use nwc::core::oracle;
use nwc::core::{IndexConfig, ShardedNwcIndex};
use nwc::geom::window::extended_mbr;
use nwc::prelude::*;
use nwc::rtree::{BrowseItem, TreeParams};
use std::sync::atomic::{AtomicU32, Ordering};

fn fanout8() -> IndexConfig {
    IndexConfig {
        tree_params: TreeParams::with_max_entries(8),
        ..IndexConfig::default()
    }
}

/// Query points: on the lattice (objects share both of its axes), off
/// it, and outside the data's bounds.
const QUERIES: [(f64, f64); 3] = [(16.5, 13.5), (7.25, 22.0), (-4.0, 30.0)];

/// Window sizes that are multiples of the lattice step, so window edges
/// land on lattice lines: objects sit exactly on search-region and
/// neighbourhood edges.
const SPECS: [(f64, f64); 2] = [(3.0, 4.5), (6.0, 3.0)];

/// A 1.5-step lattice with duplicates, plus objects on the vertical and
/// horizontal lines through every query point and at `q ± (l, w)`.
fn boundary_points() -> Vec<Point> {
    let mut pts: Vec<Point> = (0..120)
        .map(|i| Point::new((i * 7 % 23) as f64 * 1.5, (i * 11 % 19) as f64 * 1.5))
        .collect();
    // Duplicates of every tenth lattice point.
    let dups: Vec<Point> = pts.iter().step_by(10).copied().collect();
    pts.extend(dups);
    for &(qx, qy) in &QUERIES {
        for k in 0..6 {
            let off = k as f64 * 1.5 - 4.5;
            pts.push(Point::new(qx, qy + off));
            pts.push(Point::new(qx + off, qy));
        }
        for &(l, w) in &SPECS {
            pts.push(Point::new(qx + l, qy + w));
            pts.push(Point::new(qx - l, qy - w));
        }
    }
    pts
}

fn temp_pages(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nwc-nbhd-{tag}-{}-{n}.pages", std::process::id()))
}

/// One index under test, answering through the public fallible APIs.
enum Backend {
    Single(Box<NwcIndex>),
    Sharded(Box<ShardedNwcIndex>),
}

impl Backend {
    /// The complete outcome of an unbudgeted request.
    fn search(&self, req: &SearchRequest) -> Outcome {
        let mut scratch = QueryScratch::new();
        match self {
            Backend::Single(i) => i.search(req, &mut scratch),
            Backend::Sharded(s) => s.search(req, &mut scratch),
        }
        .and_then(Outcome::complete)
        .expect("query")
    }

    fn nwc(&self, query: &NwcQuery, scheme: Scheme) -> Option<NwcResult> {
        self.search(&SearchRequest::nwc(*query, scheme)).into_nwc()
    }

    fn knwc(&self, query: &KnwcQuery, scheme: Scheme) -> KnwcResult {
        self.search(&SearchRequest::knwc(*query, scheme)).into_knwc()
    }

    fn knwc_exact(&self, query: &KnwcQuery, scheme: Scheme) -> KnwcResult {
        match self {
            Backend::Single(i) => i.knwc_exact(query, scheme),
            Backend::Sharded(s) => s.try_knwc_exact(query, scheme),
        }
        .expect("exact kNWC query")
    }
}

fn backends(points: &[Point]) -> Vec<(&'static str, Backend)> {
    let arena = NwcIndex::build_with(points.to_vec(), fanout8());
    assert!(arena.tree().height() >= 3, "fanout 8 must give a deep tree");
    let path = temp_pages("boundary");
    arena.save_tree(&path).expect("save");
    let config = DiskIndexConfig {
        pool_capacity: Some(8),
        ..DiskIndexConfig::default()
    };
    let disk = NwcIndex::open_disk(&path, config).expect("open");
    std::fs::remove_file(&path).ok();
    let sharded = |k| Box::new(ShardedNwcIndex::build_with(points.to_vec(), k, fanout8()));
    vec![
        ("arena", Backend::Single(Box::new(arena))),
        ("disk, 8 frames", Backend::Single(Box::new(disk))),
        ("K=1", Backend::Sharded(sharded(1))),
        ("K=4", Backend::Sharded(sharded(4))),
    ]
}

#[test]
fn shared_neighbourhoods_match_the_oracle_across_leaf_boundaries() {
    let points = boundary_points();
    let backends = backends(&points);
    let mut compared = 0;
    for &(qx, qy) in &QUERIES {
        for &(l, w) in &SPECS {
            for n in [2usize, 3, 5] {
                let q = Point::new(qx, qy);
                let query = NwcQuery::new(q, WindowSpec::new(l, w), n);
                let want = oracle::nwc_brute_force(&points, &query);
                let kquery = KnwcQuery::new(q, WindowSpec::new(l, w), n, 3, n - 1);
                let greedy = oracle::knwc_brute_force(&points, &kquery);
                for (name, backend) in &backends {
                    let ctx = format!("{name} q=({qx},{qy}) l={l} w={w} n={n}");
                    for scheme in [Scheme::IWP, Scheme::NWC_STAR] {
                        let got = backend.nwc(&query, scheme);
                        match (&want, &got) {
                            (None, None) => {}
                            (Some(o), Some(g)) => {
                                assert_eq!(g.distance, o.distance, "{scheme} {ctx}");
                                let mut ids = g.ids();
                                ids.sort_unstable();
                                assert_eq!(ids, o.id_set(), "{scheme} {ctx}");
                            }
                            _ => panic!(
                                "{scheme} {ctx}: oracle {:?}, index {:?}",
                                want.as_ref().map(|o| o.distance),
                                got.as_ref().map(|g| g.distance)
                            ),
                        }
                    }
                    // kNWC*: the pruned search's first group is the NWC
                    // optimum; the exact search is the greedy oracle
                    // set for set.
                    let pruned = backend.knwc(&kquery, Scheme::NWC_STAR);
                    assert_eq!(
                        pruned.groups.first().map(|g| (g.distance, g.id_set())),
                        want.as_ref().map(|o| (o.distance, o.id_set())),
                        "kNWC* {ctx}"
                    );
                    let exact = backend.knwc_exact(&kquery, Scheme::NWC_STAR);
                    let got: Vec<(f64, Vec<u32>)> = exact
                        .groups
                        .iter()
                        .map(|g| (g.distance, g.id_set()))
                        .collect();
                    let wanted: Vec<(f64, Vec<u32>)> =
                        greedy.iter().map(|o| (o.distance, o.id_set())).collect();
                    assert_eq!(got, wanted, "exact kNWC* {ctx}");
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, QUERIES.len() * SPECS.len() * 3 * 4);
}

#[test]
fn released_neighbourhoods_keep_the_scratch_small() {
    // A spread-out set of fanout-8 leaves, queried from a corner.
    let points: Vec<Point> = (0..12_000)
        .map(|i| Point::new(((i * 37) % 211) as f64 * 4.0, ((i * 53) % 197) as f64 * 4.0))
        .collect();
    let index = NwcIndex::build_with(points.clone(), fanout8());
    let q = Point::new(10.0, 10.0);
    let spec = WindowSpec::square(24.0);
    // More objects than any window holds: nothing prunes, so under IWP
    // alone every leaf is expanded and every object window-queried.
    let query = NwcQuery::new(q, spec, 50);

    // The same search without IWP grows every other buffer to the same
    // high-water mark: the difference is the neighbourhood storage.
    let mut plain = QueryScratch::new();
    let plain_stats = index
        .search(&SearchRequest::nwc(query, Scheme::NWC), &mut plain)
        .expect("query")
        .stats;
    let mut shared = QueryScratch::new();
    let out = index
        .search(&SearchRequest::nwc(query, Scheme::IWP), &mut shared)
        .expect("query");
    let stats = out.stats;
    assert!(out.nwc().is_none());
    assert_eq!(stats.window_queries, points.len() as u64, "{stats:?}");
    assert_eq!(stats.io_traversal, plain_stats.io_traversal);
    // The IWP search's node memo keeps its map's slots too, so this
    // bounds the neighbourhoods and the memo together.
    let retained = shared
        .retained_capacity()
        .saturating_sub(plain.retained_capacity());

    // Every leaf's neighbourhood was fetched exactly once.
    let mut fetched = 0usize;
    let mut browser = index.tree().browse(q);
    while let Some(item) = browser.next() {
        if let BrowseItem::Node { id, level, mbr, .. } = item {
            if level == 0 {
                let region = extended_mbr(&q, &mbr, &spec);
                fetched += points.iter().filter(|p| region.contains_point(p)).count();
            }
            browser.expand(id);
        }
    }
    assert!(fetched > 2 * points.len(), "fetched {fetched}");
    assert!(
        retained * 5 < fetched,
        "scratch retains {retained} neighbourhood slots of {fetched} fetched"
    );
}

#[test]
fn the_node_memo_is_empty_whenever_a_query_returns() {
    // A disk index behind a 4-frame pool: a search reads far more nodes
    // than the pool holds, so the memo must hold decoded nodes, never
    // page guards, and must let go of them all when the query returns —
    // answered, cut short by its budget, or a kNWC.
    let points: Vec<Point> = (0..6_000)
        .map(|i| Point::new(((i * 37) % 211) as f64 * 4.0, ((i * 53) % 197) as f64 * 4.0))
        .collect();
    let arena = NwcIndex::build_with(points, fanout8());
    let path = temp_pages("memo");
    arena.save_tree(&path).expect("save");
    let config = DiskIndexConfig {
        pool_capacity: Some(4),
        ..DiskIndexConfig::default()
    };
    let disk = NwcIndex::open_disk(&path, config).expect("open");
    std::fs::remove_file(&path).ok();
    let storage = disk.tree().storage().expect("disk-backed");
    let nodes = disk.tree().node_count();

    let mut scratch = QueryScratch::new();
    let mut read = 0;
    for (qi, q) in Dataset::query_points(6, 5).into_iter().enumerate() {
        let q = Point::new(q.x * 0.085, q.y * 0.08);
        let req = SearchRequest::nwc(NwcQuery::new(q, WindowSpec::square(24.0), 12), Scheme::NWC_STAR);
        let stats = disk
            .search(&req, &mut scratch)
            .and_then(Outcome::complete)
            .expect("query")
            .stats;
        let want = arena
            .search(&req, &mut QueryScratch::new())
            .and_then(Outcome::complete)
            .expect("query")
            .stats;
        assert_eq!(
            SearchStats {
                buffer_hits: 0,
                ..stats
            },
            want,
            "q{qi}"
        );
        assert!(
            stats.io_total > 4,
            "q{qi}: the search must outgrow the pool"
        );
        read = read.max(stats.io_total);
        assert_eq!(scratch.held_nodes(), 0, "q{qi}: answered query kept nodes");
        assert_eq!(storage.pool_stats().pinned, 0, "q{qi}: pin leaked");

        let tripped = disk
            .search(&req.clone().with_budget(Budget::with_io_limit(stats.io_total / 2)), &mut scratch)
            .and_then(Outcome::complete);
        assert!(
            tripped.is_err(),
            "q{qi}: half the I/O cannot finish the search"
        );
        assert_eq!(scratch.held_nodes(), 0, "q{qi}: tripped query kept nodes");

        let kquery = KnwcQuery::new(q, WindowSpec::square(24.0), 12, 3, 4);
        disk.search(&SearchRequest::knwc(kquery, Scheme::NWC_STAR), &mut scratch)
            .and_then(Outcome::complete)
            .expect("kNWC");
        assert_eq!(scratch.held_nodes(), 0, "q{qi}: kNWC kept nodes");
        assert_eq!(storage.pool_stats().pinned, 0, "q{qi}: pin leaked");
    }
    assert!(
        read > 4 * 4,
        "searches read {read} of {nodes} nodes: four pools' worth"
    );
}
