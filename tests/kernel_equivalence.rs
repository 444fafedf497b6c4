//! The batched geometry kernels' contract: for every input the SIMD /
//! autovectorized paths must return *bit-identical* results to the
//! scalar `Rect::mindist` and (closed) `Rect::intersects` they replace.
//! Anything less would silently change heap orderings and window
//! pruning, which PR 4/5's equivalence suites treat as corruption.
//!
//! Covered here:
//! - every slice length 0..=130 (remainder lanes: fanout not divisible
//!   by the lane width, plus the disk fanout ≤ 112 region);
//! - window shapes used by the Table-3 schemes (squares and elongated
//!   rectangles via `search_region` over all four quadrants);
//! - touching boundaries — the closed-window semantics of Lemma 1
//!   demand `<=`, so a window edge grazing an MBR edge must batch to
//!   `true` exactly like the scalar predicate;
//! - NaN-free extreme coordinates (huge magnitudes, subnormals, signed
//!   zeros, asymmetric ranges) where a fused-multiply-add or an
//!   unordered compare would diverge from the scalar op sequence;
//! - whole window queries: the arena tree (scalar branch predicate) and
//!   the disk-backed tree (batched SoA kernel) return the same entries
//!   in the same order through the chunked, branch-free leaf scan.

use nwc::core::{DiskIndexConfig, IndexConfig, NwcIndex};
use nwc::geom::window::{search_region, WindowSpec};
use nwc::geom::{intersects_window_batch, kernel_backend, mindist_batch, MbrSoa, Point, Quadrant, Rect};
use nwc::rtree::TreeParams;

/// Deterministic, NaN-free MBR soup: jittered lattice boxes, degenerate
/// point-boxes, thin slivers — the population a branch array really holds.
fn mbr_population(n: usize, seed: u64) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let s = (i as u64).wrapping_mul(seed | 1).wrapping_add(0x9E37_79B9);
            let x = ((s % 1009) as f64) - 500.0;
            let y = (((s >> 10) % 997) as f64) - 500.0;
            match s % 5 {
                0 => Rect::from_point(Point::new(x, y)), // degenerate
                1 => Rect::new(Point::new(x, y), Point::new(x + 0.001, y + 400.0)), // sliver
                _ => Rect::new(
                    Point::new(x, y),
                    Point::new(x + ((s >> 20) % 64) as f64, y + ((s >> 26) % 64) as f64),
                ),
            }
        })
        .collect()
}

fn soa_of(rects: &[Rect]) -> MbrSoa {
    rects.iter().copied().collect()
}

/// Asserts both batch kernels agree bit-for-bit with the scalar ops on
/// this population/query pair, through both the free functions and the
/// `MbrSoa` convenience wrappers.
fn assert_batches_match(rects: &[Rect], q: &Point, w: &Rect, tag: &str) {
    let soa = soa_of(rects);
    let mut dists = vec![0.0f64; rects.len()];
    let mut mask = vec![false; rects.len()];
    soa.mindist_into(q, &mut dists);
    soa.intersects_into(w, &mut mask);
    for (i, r) in rects.iter().enumerate() {
        assert_eq!(
            dists[i].to_bits(),
            r.mindist(q).to_bits(),
            "{tag}: mindist diverged at {i} for {r:?} q={q:?} (backend {})",
            kernel_backend()
        );
        assert_eq!(
            mask[i],
            r.intersects(w),
            "{tag}: intersects diverged at {i} for {r:?} w={w:?} (backend {})",
            kernel_backend()
        );
    }
    // The free functions see the same columns.
    let mut dists2 = vec![0.0f64; rects.len()];
    let mut mask2 = vec![false; rects.len()];
    mindist_batch(soa.min_xs(), soa.min_ys(), soa.max_xs(), soa.max_ys(), q, &mut dists2);
    intersects_window_batch(soa.min_xs(), soa.min_ys(), soa.max_xs(), soa.max_ys(), w, &mut mask2);
    assert_eq!(
        dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        dists2.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        "{tag}: free fn and SoA wrapper disagree"
    );
    assert_eq!(mask, mask2, "{tag}: free fn and SoA wrapper disagree on masks");
}

#[test]
fn every_length_matches_scalar_including_remainder_lanes() {
    // 0..=130 crosses every remainder class of the 4-wide lanes several
    // times and covers the disk fanout (≤ 112) with slack.
    let q = Point::new(13.5, -7.25);
    let w = Rect::new(Point::new(-50.0, -50.0), Point::new(120.0, 90.0));
    for n in 0..=130usize {
        let rects = mbr_population(n, 0xA5A5 + n as u64);
        assert_batches_match(&rects, &q, &w, &format!("len {n}"));
    }
}

#[test]
fn table3_window_shapes_match_scalar() {
    // The Table-3 schemes prune with squares, elongated windows, and the
    // quadrant search regions derived from them. Exercise each shape
    // over each quadrant against a mixed population.
    let rects = mbr_population(113, 0xBEEF); // odd length: remainder lane
    let anchors = [Point::new(0.0, 0.0), Point::new(250.25, -311.5), Point::new(-499.0, 488.0)];
    let specs = [
        WindowSpec::square(60.0),
        WindowSpec::new(120.0, 40.0),
        WindowSpec::new(7.5, 400.0),
    ];
    for (ai, q) in anchors.iter().enumerate() {
        for (si, spec) in specs.iter().enumerate() {
            for quad in [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV] {
                let w = search_region(q, quad, spec);
                assert_batches_match(&rects, q, &w, &format!("anchor{ai}/spec{si}/{quad:?}"));
            }
        }
    }
}

#[test]
fn touching_boundaries_batch_as_inside() {
    // Lemma 1 windows are closed: an MBR whose edge exactly meets the
    // window edge intersects it, and a query point on an MBR face has
    // MINDIST exactly 0. The batch kernels must preserve both.
    let w = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let rects = vec![
        // Each face and corner of the window, grazing from outside.
        Rect::new(Point::new(-5.0, 2.0), Point::new(0.0, 4.0)), // left edge
        Rect::new(Point::new(10.0, 2.0), Point::new(15.0, 4.0)), // right edge
        Rect::new(Point::new(2.0, -5.0), Point::new(4.0, 0.0)), // bottom edge
        Rect::new(Point::new(2.0, 10.0), Point::new(4.0, 15.0)), // top edge
        Rect::from_point(Point::new(10.0, 10.0)),               // corner point
        Rect::from_point(Point::new(0.0, 0.0)),                 // corner point
        // Just past the boundary by one ULP: must be *outside*.
        Rect::new(
            Point::new(f64::from_bits(10.0f64.to_bits() + 1), 2.0),
            Point::new(15.0, 4.0),
        ),
        // Strictly inside and strictly outside for contrast.
        Rect::new(Point::new(3.0, 3.0), Point::new(7.0, 7.0)),
        Rect::new(Point::new(20.0, 20.0), Point::new(30.0, 30.0)),
    ];
    let soa = soa_of(&rects);
    let mut mask = vec![false; rects.len()];
    soa.intersects_into(&w, &mut mask);
    let want: Vec<bool> = rects.iter().map(|r| r.intersects(&w)).collect();
    assert_eq!(mask, want, "closed-boundary semantics broke (backend {})", kernel_backend());
    // The six grazing boxes are all inside; the ULP-shifted one is not.
    assert_eq!(&mask[..6], &[true; 6]);
    assert!(!mask[6], "one-ULP separation must read as disjoint");

    // MINDIST from points sitting exactly on faces is exactly +0.0.
    let on_face = Point::new(0.0, 5.0);
    let mut dists = vec![0.0f64; rects.len()];
    soa.mindist_into(&on_face, &mut dists);
    for (i, r) in rects.iter().enumerate() {
        assert_eq!(dists[i].to_bits(), r.mindist(&on_face).to_bits(), "face point at {i}");
    }
}

#[test]
fn extreme_coordinates_stay_bit_identical() {
    // NaN-free extremes: magnitudes near overflow, subnormals, signed
    // zeros, and mixed-scale boxes. Squaring 1e300 overflows to +inf in
    // both scalar and vector lanes — identically — and -0.0 vs 0.0 must
    // wash out through the max(0.0) clamp exactly as the scalar does.
    let rects = vec![
        Rect::new(Point::new(-1e300, -1e300), Point::new(1e300, 1e300)),
        Rect::new(Point::new(1e300, 1e300), Point::new(1.5e300, 1.5e300)),
        Rect::new(Point::new(-1.5e300, -1e300), Point::new(-1e300, -0.5e300)),
        Rect::new(Point::new(-0.0, -0.0), Point::new(0.0, 0.0)),
        Rect::new(Point::new(5e-324, 5e-324), Point::new(1e-300, 1e-300)),
        Rect::new(Point::new(-1e-308, -2.2250738585072014e-308), Point::new(0.0, 0.0)),
        Rect::new(Point::new(-1e16, 1e-16), Point::new(1e16, 2e-16)),
        Rect::from_point(Point::new(f64::MAX, f64::MIN)),
        Rect::new(Point::new(f64::MIN, -1.0), Point::new(f64::MAX, 1.0)),
    ];
    let queries = [
        Point::new(0.0, 0.0),
        Point::new(-0.0, -0.0),
        Point::new(1e300, -1e300),
        Point::new(5e-324, -5e-324),
        Point::new(f64::MAX, f64::MIN),
        Point::new(123.456, -654.321),
    ];
    let windows = [
        Rect::new(Point::new(-1e300, -1e300), Point::new(1e300, 1e300)),
        Rect::new(Point::new(-0.0, -0.0), Point::new(0.0, 0.0)),
        Rect::new(Point::new(1e299, 1e299), Point::new(2e300, 2e300)),
    ];
    for (qi, q) in queries.iter().enumerate() {
        for (wi, w) in windows.iter().enumerate() {
            assert_batches_match(&rects, q, w, &format!("extreme q{qi}/w{wi}"));
        }
    }
    // Pad to force full lanes *and* a remainder over the extreme values.
    let mut padded = rects.clone();
    while padded.len() < 21 {
        let r = padded[padded.len() % rects.len()];
        padded.push(r);
    }
    assert_batches_match(&padded, &queries[2], &windows[0], "extreme padded");
}

#[test]
fn range_kernels_agree_with_full_pass() {
    // The chunked traversal paths call the `_range_into` forms; any
    // offset drift would misattribute distances to the wrong branch.
    let rects = mbr_population(100, 0x1CEB00DA);
    let soa = soa_of(&rects);
    let q = Point::new(40.0, -12.5);
    let w = Rect::new(Point::new(-100.0, -100.0), Point::new(200.0, 150.0));
    let mut full_d = vec![0.0f64; rects.len()];
    let mut full_m = vec![false; rects.len()];
    soa.mindist_into(&q, &mut full_d);
    soa.intersects_into(&w, &mut full_m);
    for chunk in [1usize, 3, 4, 7, 64, 100] {
        let mut base = 0;
        while base < rects.len() {
            let len = chunk.min(rects.len() - base);
            let mut d = vec![0.0f64; len];
            let mut m = vec![false; len];
            soa.mindist_range_into(base, &q, &mut d);
            soa.intersects_range_into(base, &w, &mut m);
            for i in 0..len {
                assert_eq!(d[i].to_bits(), full_d[base + i].to_bits(), "chunk {chunk} at {}", base + i);
                assert_eq!(m[i], full_m[base + i], "chunk {chunk} at {}", base + i);
            }
            base += len;
        }
    }
}

#[test]
fn arena_and_disk_window_queries_return_identical_sequences() {
    // 100-entry nodes: leaves straddle the 64-entry scan chunks, and the
    // disk tree's internal nodes take the batched kernel while the
    // arena's take the scalar predicate.
    let points: Vec<Point> = (0..6000u64)
        .map(|i| {
            let s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            // Quarter-unit lattice: window edges land exactly on points.
            Point::new((s % 2000) as f64 * 0.25, ((s >> 16) % 1600) as f64 * 0.25)
        })
        .collect();
    let config = IndexConfig {
        tree_params: TreeParams::with_max_entries(100),
        ..IndexConfig::default()
    };
    let arena = NwcIndex::build_with(points.clone(), config);
    let path = std::env::temp_dir().join(format!("nwc-kernel-eq-{}.pages", std::process::id()));
    arena.save_tree(&path).expect("save");
    let disk = NwcIndex::open_disk(&path, DiskIndexConfig::default()).expect("open");
    std::fs::remove_file(&path).ok();

    let anchors = [Point::new(0.0, 0.0), Point::new(250.25, 200.0), Point::new(499.75, 399.75)];
    let specs = [
        WindowSpec::square(8.0),
        WindowSpec::square(60.0),
        WindowSpec::new(120.0, 40.0),
        WindowSpec::new(7.5, 400.0),
    ];
    for (ai, q) in anchors.iter().enumerate() {
        for (si, spec) in specs.iter().enumerate() {
            for quad in [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV] {
                let w = search_region(q, quad, spec);
                let tag = format!("anchor{ai}/spec{si}/{quad:?}");
                let a: Vec<u32> = arena.tree().window_query(&w).iter().map(|e| e.id).collect();
                let d: Vec<u32> = disk.tree().window_query(&w).iter().map(|e| e.id).collect();
                assert_eq!(a, d, "{tag}: arena and disk id sequences differ");
                let brute = points.iter().filter(|p| w.contains_point(p)).count();
                assert_eq!(a.len(), brute, "{tag}: wrong answer size");
                assert_eq!(disk.tree().window_count(&w), brute, "{tag}: count differs");
            }
        }
    }
}

#[test]
fn backend_override_is_honored() {
    // Whatever backend the dispatcher picked, it must report a known
    // name; the NWC_KERNELS=portable escape hatch is exercised in the
    // geom crate's own unit tests (env vars are process-global, so an
    // integration test can't safely toggle it here).
    assert!(matches!(kernel_backend(), "avx2" | "portable"));
}
