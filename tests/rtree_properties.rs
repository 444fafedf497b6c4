//! Property tests for the R\*-tree substrate: structural invariants and
//! query equivalence against linear scans, across build paths and
//! mutation sequences.

use nwc::geom::{Point, Rect};
use nwc::rtree::{validate, BrowseItem, NodeMemo, RStarTree, TreeParams};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique temp page-file path per call (cases run concurrently).
fn temp_pages() -> std::path::PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nwc-rtree-prop-{}-{n}.pages", std::process::id()))
}

fn point_strategy() -> impl Strategy<Value = Point> {
    (0u32..1000, 0u32..1000).prop_map(|(x, y)| Point::new(x as f64 * 0.5, y as f64 * 0.5))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (point_strategy(), 0.0f64..200.0, 0.0f64..200.0)
        .prop_map(|(p, w, h)| Rect::new(p, Point::new(p.x + w, p.y + h)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_and_insert_build_valid_trees(
        points in proptest::collection::vec(point_strategy(), 1..400),
        fanout in 4usize..16,
    ) {
        let params = TreeParams::with_max_entries(fanout);
        let bulk = RStarTree::bulk_load_with_params(&points, params);
        validate::check_invariants(&bulk).unwrap();
        prop_assert_eq!(bulk.len(), points.len());

        let mut inc = RStarTree::with_params(params);
        for (i, &p) in points.iter().enumerate() {
            inc.insert(i as u32, p).unwrap();
        }
        validate::check_invariants(&inc).unwrap();
        validate::check_fill(&inc).unwrap();
        prop_assert_eq!(inc.len(), points.len());
    }

    #[test]
    fn window_query_equals_linear_scan(
        points in proptest::collection::vec(point_strategy(), 1..300),
        window in rect_strategy(),
    ) {
        let tree = RStarTree::bulk_load(&points);
        let mut got: Vec<u32> = tree.window_query(&window).iter().map(|e| e.id).collect();
        got.sort_unstable();
        let want: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains_point(p))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(tree.window_count(&window), want.len());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn knn_distances_match_sorted_scan(
        points in proptest::collection::vec(point_strategy(), 1..300),
        q in point_strategy(),
        k in 1usize..20,
    ) {
        let tree = RStarTree::bulk_load(&points);
        let got: Vec<f64> = tree.knn(q, k).iter().map(|&(d, _)| d).collect();
        let mut want: Vec<f64> = points.iter().map(|p| p.dist(&q)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn browse_order_is_nondecreasing(
        points in proptest::collection::vec(point_strategy(), 1..300),
        q in point_strategy(),
    ) {
        let tree = RStarTree::bulk_load(&points);
        let mut last = -1.0f64;
        let mut count = 0usize;
        for (d, _) in tree.browse(q).objects() {
            prop_assert!(d >= last);
            last = d;
            count += 1;
        }
        prop_assert_eq!(count, points.len());
    }

    #[test]
    fn deletion_preserves_invariants_and_contents(
        points in proptest::collection::vec(point_strategy(), 2..200),
        selector in proptest::collection::vec(any::<bool>(), 2..200),
    ) {
        let mut tree = RStarTree::bulk_load_with_params(
            &points,
            TreeParams::with_max_entries(6),
        );
        let mut expected: Vec<(u32, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, p))
            .collect();
        for (i, &del) in selector.iter().enumerate() {
            if del && i < points.len() {
                prop_assert!(tree.delete(i as u32, points[i]).unwrap());
                expected.retain(|&(id, _)| id != i as u32);
            }
        }
        validate::check_invariants(&tree).unwrap();
        prop_assert_eq!(tree.len(), expected.len());
        let mut got: Vec<u32> = tree.iter_entries().map(|e| e.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = expected.iter().map(|&(id, _)| id).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn page_file_roundtrip_preserves_tree(
        points in proptest::collection::vec(point_strategy(), 1..400),
        probe in any::<prop::sample::Index>(),
    ) {
        let tree = RStarTree::bulk_load(&points);
        let path = temp_pages();
        tree.save_to_path(&path).unwrap();
        let back = RStarTree::open_from_path(&path, None).unwrap();
        // The open store keeps its handle; the path is no longer needed.
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.node_count(), tree.node_count());
        validate::check_invariants(&back).unwrap();
        prop_assert_eq!(back.len(), tree.len());
        prop_assert_eq!(back.height(), tree.height());
        // Same answers around a random probe point.
        let p = points[probe.index(points.len())];
        let window = Rect::new(
            Point::new(p.x - 30.0, p.y - 30.0),
            Point::new(p.x + 30.0, p.y + 30.0),
        );
        let mut a: Vec<u32> = tree.window_query(&window).iter().map(|e| e.id).collect();
        let mut b: Vec<u32> = back.window_query(&window).iter().map(|e| e.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn memoised_root_fetch_equals_plain(
        points in proptest::collection::vec(point_strategy(), 30..300),
        fanout in 4usize..12,
        rects in proptest::collection::vec(rect_strategy(), 1..6),
        expanded in 0usize..40,
    ) {
        let tree = RStarTree::bulk_load_with_params(&points, TreeParams::with_max_entries(fanout));
        let mut memo = NodeMemo::new();
        // Seed the memo the way a search does: with the nodes its
        // best-first traversal expanded.
        let mut browser = tree.browse(points[0]);
        let mut left = expanded;
        while left > 0 {
            match browser.next() {
                Some(BrowseItem::Node { id, .. }) => {
                    browser.try_expand_remembering(id, &mut memo).unwrap();
                    left -= 1;
                }
                Some(BrowseItem::Object { .. }) => {}
                None => break,
            }
        }
        for rect in &rects {
            let before = tree.stats().node_reads();
            let mut plain = Vec::new();
            tree.try_window_query_into(rect, &mut plain).unwrap();
            let plain_io = tree.stats().node_reads() - before;

            let before = tree.stats().node_reads();
            let mut memoised = Vec::new();
            tree.try_window_query_memo_into(rect, &mut memo, &mut memoised).unwrap();
            let memo_io = tree.stats().node_reads() - before;
            prop_assert_eq!(&memoised, &plain);
            prop_assert!(memo_io <= plain_io, "{} > {}", memo_io, plain_io);

            let before = tree.stats().node_reads();
            let mut again = Vec::new();
            tree.try_window_query_memo_into(rect, &mut memo, &mut again).unwrap();
            prop_assert_eq!(tree.stats().node_reads() - before, 0);
            prop_assert_eq!(&again, &plain);
        }
    }
}
