//! Proves the warm-path allocation claim: once a `QueryScratch` has
//! been warmed on a workload, `NwcIndex::search` performs **zero** heap
//! allocations for a query with no qualifying group (pure traversal +
//! window queries + candidate scan), and a steady bounded number —
//! only the offered result groups — for a query with a hit.
//!
//! Uses a counting global allocator, so everything runs inside one
//! `#[test]` (parallel tests would pollute the counter).

use nwc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_queries_do_not_allocate() {
    // A spread-out dataset: plenty of objects to visit and window-query,
    // never 30 of them inside one 12×12 window.
    let mut pts: Vec<Point> = (0..800)
        .map(|i| Point::new(((i * 37) % 211) as f64 * 5.0, ((i * 53) % 197) as f64 * 5.0))
        .collect();
    // A deliberate tight cluster so the hit query actually hits.
    pts.extend([
        Point::new(540.0, 510.0),
        Point::new(543.0, 512.0),
        Point::new(546.0, 509.0),
    ]);
    let index = NwcIndex::build(pts);
    let spec = WindowSpec::square(12.0);
    let scheme = Scheme::NWC_STAR;

    let miss = NwcQuery::new(Point::new(500.0, 480.0), spec, 30);
    let hit = NwcQuery::new(Point::new(500.0, 480.0), spec, 2);
    let miss_plain = SearchRequest::nwc(miss, Scheme::NWC);
    let miss_opt = SearchRequest::nwc(miss, scheme);
    let hit_opt = SearchRequest::nwc(hit, scheme);
    let search = |req: &SearchRequest, scratch: &mut QueryScratch| {
        index.search(req, scratch).expect("arena query cannot fail")
    };

    let mut scratch = QueryScratch::new();
    // Warm the scratch buffers to their workload high-water mark. The
    // baseline scheme runs a window query per visited object (nothing
    // pruned), so it drives the buffers hardest.
    for _ in 0..3 {
        let out = search(&miss_plain, &mut scratch);
        let (r, stats) = (out.nwc(), out.stats);
        assert!(r.is_none() && stats.objects_visited > 100, "{stats:?}");
        search(&miss_opt, &mut scratch);
        search(&hit_opt, &mut scratch);
    }

    // A warm no-hit query exercises the whole hot path — traversal,
    // window queries, candidate scans — and must not allocate at all.
    let before = allocs();
    let out = search(&miss_plain, &mut scratch);
    let during = allocs() - before;
    let (r, stats) = (out.nwc(), out.stats);
    assert!(r.is_none());
    assert!(stats.window_queries > 0, "{stats:?}");
    assert_eq!(during, 0, "warm miss query (baseline) allocated {during} times");

    // Same under the fully-optimized scheme (DEP prunes the window
    // queries here; the traversal itself must still be allocation-free).
    let before = allocs();
    let out = search(&miss_opt, &mut scratch);
    let during = allocs() - before;
    let r = out.nwc();
    assert!(r.is_none());
    assert_eq!(during, 0, "warm miss query (NWC*) allocated {during} times");

    // A warm hit query allocates only for offered result groups: the
    // count is steady across repeats (no hidden per-visit growth).
    let before = allocs();
    let r1 = search(&hit_opt, &mut scratch);
    let first = allocs() - before;
    drop(r1);
    let before = allocs();
    let r2 = search(&hit_opt, &mut scratch);
    let second = allocs() - before;
    assert!(r2.nwc().is_some());
    assert_eq!(first, second, "warm hit query allocation count not steady");
    assert!(
        second <= 16,
        "warm hit query allocated {second} times; expected only offered groups"
    );

    // A warm search under an armed budget that never trips: the
    // outcome's bound and spend are inline, and on an unsharded index
    // its per-shard and degraded lists stay empty and allocate nothing.
    let budgeted = miss_opt.clone().with_budget(Budget::with_io_limit(u64::MAX / 2));
    let before = allocs();
    let out = search(&budgeted, &mut scratch);
    let during = allocs() - before;
    assert!(out.is_complete() && out.nwc().is_none());
    assert!(out.per_shard.is_empty() && out.degraded.is_empty());
    assert_eq!(during, 0, "warm budgeted search allocated {during} times");
}
