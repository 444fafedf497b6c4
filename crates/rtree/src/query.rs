//! Window (range) queries and point lookups.
//!
//! Every query comes in two flavors: the legacy infallible form (the
//! right call on arena trees, where reads cannot fail) and a `try_*`
//! form that surfaces disk read failures as
//! [`TreeError::Io`](crate::TreeError) instead of panicking. The
//! infallible forms are thin wrappers that funnel any error through one
//! crate-level abort adapter — this module itself contains no panics.

use crate::node::{Branch, Node, NodeKind};
use crate::memo::{read_through, NodeMemo};
use crate::tree::{read_failure, RStarTree, TreeError};
use crate::{Entry, NodeId};
use nwc_geom::{Point, Rect};

/// Stack-buffer width for batched per-node intersection tests. A disk
/// page holds at most 112 branches, so one chunk covers a whole page.
const MASK_CHUNK: usize = 128;

/// Leaf-scan chunk width: one bit of a `u64` inside-mask per entry.
const LEAF_CHUNK: usize = 64;

/// Bit `i` is set iff `chunk[i]` lies inside `rect` (`chunk.len() ≤ 64`).
///
/// Built with no data-dependent branch: a window query's leaf scan hits
/// only a few percent of the entries it tests, so a short-circuit
/// `filter` mispredicts on nearly every hit. The set bits are then
/// walked in ascending order, which preserves entry order.
#[inline]
fn leaf_inside_mask(chunk: &[Entry], rect: &Rect) -> u64 {
    chunk.iter().enumerate().fold(0, |mask, (i, e)| {
        mask | (u64::from(rect.contains_point(&e.point)) << i)
    })
}

/// Window-intersection flags for `branches[base..base + mask.len()]`,
/// written into `mask`: one batched kernel call over the node's SoA MBR
/// view when present (disk nodes), the scalar predicate otherwise.
/// Bit-identical either way, so traversal order and logical I/O never
/// depend on which path ran.
#[inline]
fn fill_intersect_mask(node: &Node, branches: &[Branch], base: usize, rect: &Rect, mask: &mut [bool]) {
    match &node.soa {
        Some(soa) => soa.intersects_range_into(base, rect, mask),
        None => {
            for (i, b) in branches[base..base + mask.len()].iter().enumerate() {
                mask[i] = b.mbr.intersects(rect);
            }
        }
    }
}

/// Appends the entries of `entries` whose point lies inside the closed
/// window `rect` to `out`, in entry order: a window query's leaf scan,
/// also usable on any entry list (a leaf neighbourhood, say).
pub fn entries_inside_into(entries: &[Entry], rect: &Rect, out: &mut Vec<Entry>) {
    for chunk in entries.chunks(LEAF_CHUNK) {
        let mut mask = leaf_inside_mask(chunk, rect);
        out.reserve(mask.count_ones() as usize);
        while mask != 0 {
            out.extend(chunk.get(mask.trailing_zeros() as usize));
            mask &= mask - 1;
        }
    }
}

impl RStarTree {
    /// Returns every entry whose point lies inside the (closed) window
    /// `rect`, visiting the tree top-down and charging one node access
    /// per visited node.
    pub fn window_query(&self, rect: &Rect) -> Vec<Entry> {
        match self.try_window_query(rect) {
            Ok(out) => out,
            Err(e) => read_failure(e),
        }
    }

    /// As [`RStarTree::window_query`], surfacing disk read failures as
    /// a typed error instead of panicking.
    pub fn try_window_query(&self, rect: &Rect) -> Result<Vec<Entry>, TreeError> {
        let mut out = Vec::new();
        self.try_window_query_into(rect, &mut out)?;
        Ok(out)
    }

    /// As [`RStarTree::window_query`], appending into a reusable buffer.
    pub fn window_query_into(&self, rect: &Rect, out: &mut Vec<Entry>) {
        if let Err(e) = self.try_window_query_into(rect, out) {
            read_failure(e)
        }
    }

    /// As [`RStarTree::window_query_into`], surfacing disk read
    /// failures as a typed error. On `Err`, `out` may hold a partial
    /// result (the entries found before the failed page); every page
    /// pin taken by the descent has been released.
    pub fn try_window_query_into(&self, rect: &Rect, out: &mut Vec<Entry>) -> Result<(), TreeError> {
        if self.is_empty() {
            return Ok(());
        }
        self.window_from(self.root, rect, None, out)
    }

    /// The one window-query descent below `start`, through `memo` when
    /// given (see [`NodeMemo`]). The starting node is read even when its
    /// MBR misses `rect`, like a page read that turns out empty.
    ///
    /// Recursive descent instead of an explicit stack: window queries
    /// run once per visited object on the NWC hot path, and a per-call
    /// stack allocation there would dominate the allocation profile.
    /// The tree is shallow (fan-out ≥ 25), so recursion depth is tiny.
    /// A node read from the tree keeps its guard live across the child
    /// recursion, so on a disk-backed tree the parent's page is pinned
    /// while its children are visited — and dropped on unwind, so an
    /// `Err` from a child leaves no pin behind.
    pub(crate) fn window_from(
        &self,
        start: NodeId,
        rect: &Rect,
        mut memo: Option<&mut NodeMemo>,
        out: &mut Vec<Entry>,
    ) -> Result<(), TreeError> {
        let node = read_through(self, memo.as_deref_mut(), start)?;
        match &node.kind {
            NodeKind::Leaf(entries) => entries_inside_into(entries, rect, out),
            NodeKind::Internal(branches) => {
                let mut mask = [false; MASK_CHUNK];
                let mut base = 0;
                while base < branches.len() {
                    let len = MASK_CHUNK.min(branches.len() - base);
                    fill_intersect_mask(&node, branches, base, rect, &mut mask[..len]);
                    for (i, b) in branches[base..base + len].iter().enumerate() {
                        if mask[i] {
                            self.window_from(b.child, rect, memo.as_deref_mut(), out)?;
                        }
                    }
                    base += len;
                }
            }
        }
        Ok(())
    }

    /// Counts the entries inside `rect` without materializing them.
    /// Charges the same node accesses as a full window query.
    pub fn window_count(&self, rect: &Rect) -> usize {
        match self.try_window_count(rect) {
            Ok(n) => n,
            Err(e) => read_failure(e),
        }
    }

    /// As [`RStarTree::window_count`], surfacing disk read failures as
    /// a typed error instead of panicking.
    pub fn try_window_count(&self, rect: &Rect) -> Result<usize, TreeError> {
        if self.is_empty() {
            return Ok(0);
        }
        self.window_count_under(self.root, rect)
    }

    fn window_count_under(&self, id: NodeId, rect: &Rect) -> Result<usize, TreeError> {
        let node = self.try_read_node(id)?;
        match &node.kind {
            NodeKind::Leaf(entries) => Ok(entries
                .chunks(LEAF_CHUNK)
                .map(|chunk| leaf_inside_mask(chunk, rect).count_ones() as usize)
                .sum()),
            NodeKind::Internal(branches) => {
                let mut mask = [false; MASK_CHUNK];
                let mut total = 0;
                let mut base = 0;
                while base < branches.len() {
                    let len = MASK_CHUNK.min(branches.len() - base);
                    fill_intersect_mask(&node, branches, base, rect, &mut mask[..len]);
                    for (i, b) in branches[base..base + len].iter().enumerate() {
                        if mask[i] {
                            total += self.window_count_under(b.child, rect)?;
                        }
                    }
                    base += len;
                }
                Ok(total)
            }
        }
    }

    /// Whether any stored entry has exactly this point (ids ignored).
    ///
    /// Early-exit traversal: descends only into subtrees whose MBR
    /// contains `p`, stops at the first hit, and allocates nothing
    /// (recursion instead of an explicit stack; the tree is shallow).
    /// Only the nodes actually read are charged.
    pub fn contains_point(&self, p: &Point) -> bool {
        match self.try_contains_point(p) {
            Ok(hit) => hit,
            Err(e) => read_failure(e),
        }
    }

    /// As [`RStarTree::contains_point`], surfacing disk read failures
    /// as a typed error instead of panicking.
    pub fn try_contains_point(&self, p: &Point) -> Result<bool, TreeError> {
        if self.is_empty() {
            return Ok(false);
        }
        self.contains_point_under(self.root, p)
    }

    fn contains_point_under(&self, id: NodeId, p: &Point) -> Result<bool, TreeError> {
        let node = self.try_read_node(id)?;
        match &node.kind {
            NodeKind::Leaf(entries) => Ok(entries.iter().any(|e| e.point == *p)),
            NodeKind::Internal(branches) => {
                for b in branches {
                    if b.mbr.contains_point(p) && self.contains_point_under(b.child, p)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeParams;
    use nwc_geom::{pt, rect};

    fn sample_tree() -> (RStarTree, Vec<Point>) {
        let pts: Vec<Point> = (0..400)
            .map(|i| pt((i % 20) as f64, (i / 20) as f64))
            .collect();
        (RStarTree::bulk_load(&pts), pts)
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let (t, pts) = sample_tree();
        let windows = [
            rect(0.0, 0.0, 5.0, 5.0),
            rect(3.5, 3.5, 3.6, 3.6),
            rect(-10.0, -10.0, -1.0, -1.0),
            rect(0.0, 0.0, 19.0, 19.0),
            rect(7.0, 7.0, 7.0, 7.0),
        ];
        for wq in windows {
            let mut got: Vec<u32> = t.window_query(&wq).iter().map(|e| e.id).collect();
            got.sort_unstable();
            let want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| wq.contains_point(p))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "window {wq:?}");
        }
    }

    /// The top-down descent with an entry-order, short-circuit
    /// `filter(contains_point)` leaf scan: the sequence the chunked,
    /// branch-free scan must reproduce exactly.
    fn reference_window(t: &RStarTree, id: NodeId, wq: &Rect, out: &mut Vec<Entry>) {
        let node = t.peek_node(id);
        match &node.kind {
            NodeKind::Leaf(entries) => {
                out.extend(entries.iter().filter(|e| wq.contains_point(&e.point)));
            }
            NodeKind::Internal(branches) => {
                for b in branches.iter().filter(|b| b.mbr.intersects(wq)) {
                    reference_window(t, b.child, wq, out);
                }
            }
        }
    }

    /// `n` points on a 9-wide integer lattice with repeated rows, so
    /// windows with integer corners put points on every edge and corner
    /// and some locations hold duplicates.
    fn lattice(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| pt((i % 9) as f64, ((i / 9) % 12) as f64))
            .collect()
    }

    #[test]
    fn chunked_leaf_scan_preserves_entry_order_across_chunk_boundaries() {
        let windows = [
            rect(2.0, 3.0, 6.0, 7.0),     // lattice points on all four edges
            rect(0.0, 0.0, 8.0, 11.0),    // the full extent, corners included
            rect(0.0, 0.0, 0.0, 0.0),     // degenerate: one corner point
            rect(4.0, 5.0, 4.0, 5.0),     // degenerate: an interior point
            rect(3.0, 0.0, 3.0, 11.0),    // zero width, along a column
            rect(0.0, 6.0, 8.0, 6.0),     // zero height, along a row
            rect(2.5, 2.5, 2.75, 2.75),   // between lattice points
            rect(-5.0, -5.0, -1.0, -1.0), // outside
            rect(8.0, 11.0, 20.0, 20.0),  // touches only the far corner
        ];
        // 1..128 are single-leaf trees whose leaf straddles (or exactly
        // fills) the 64-entry chunks; the larger ones add internal nodes
        // above partially and fully packed leaves.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 1000] {
            let pts = lattice(n);
            let t = RStarTree::bulk_load_with_params(&pts, TreeParams::with_max_entries(128));
            if n <= 128 {
                assert_eq!(t.node_count(), 1, "n = {n} must fit one leaf");
            }
            for wq in windows {
                let mut want = Vec::new();
                reference_window(&t, t.root(), &wq, &mut want);
                let got = t.window_query(&wq);
                assert_eq!(got, want, "n = {n}, window {wq:?}");
                assert_eq!(t.window_count(&wq), got.len(), "n = {n}, window {wq:?}");
                let brute = pts.iter().filter(|p| wq.contains_point(p)).count();
                assert_eq!(got.len(), brute, "n = {n}, window {wq:?}");
            }
        }
    }

    #[test]
    fn window_count_matches_query_len() {
        let (t, _) = sample_tree();
        for wq in [
            rect(1.0, 1.0, 8.0, 4.0),
            rect(0.0, 0.0, 19.0, 19.0),
            rect(100.0, 100.0, 101.0, 101.0),
        ] {
            assert_eq!(t.window_count(&wq), t.window_query(&wq).len());
        }
    }

    #[test]
    fn boundary_points_included() {
        let (t, _) = sample_tree();
        let hits = t.window_query(&rect(5.0, 5.0, 6.0, 6.0));
        assert_eq!(hits.len(), 4); // (5,5), (5,6), (6,5), (6,6)
    }

    #[test]
    fn io_is_charged() {
        let (t, _) = sample_tree();
        t.stats().reset();
        t.window_query(&rect(0.0, 0.0, 2.0, 2.0));
        let small = t.stats().node_reads();
        assert!(small >= 1);
        t.stats().reset();
        t.window_query(&rect(0.0, 0.0, 19.0, 19.0));
        let full = t.stats().node_reads();
        assert!(full > small, "full scan {full} should cost more than {small}");
        assert_eq!(full as usize, t.node_count());
    }

    #[test]
    fn empty_tree_queries() {
        let t = RStarTree::new();
        assert!(t.window_query(&rect(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert_eq!(t.window_count(&rect(0.0, 0.0, 1.0, 1.0)), 0);
        assert!(!t.contains_point(&pt(0.0, 0.0)));
    }

    #[test]
    fn contains_point_exact() {
        let (t, _) = sample_tree();
        assert!(t.contains_point(&pt(3.0, 3.0)));
        assert!(!t.contains_point(&pt(3.5, 3.0)));
    }

    #[test]
    fn contains_point_costs_no_more_than_window_query() {
        let (t, pts) = sample_tree();
        for p in [pts[0], pts[123], pt(-5.0, 2.0), pt(9.25, 9.25)] {
            t.stats().reset();
            let hit = t.contains_point(&p);
            let direct = t.stats().node_reads();
            t.stats().reset();
            let via_window = !t.window_query(&rect(p.x, p.y, p.x, p.y)).is_empty();
            let window = t.stats().node_reads();
            assert_eq!(hit, via_window, "{p:?}");
            assert!(direct <= window, "{p:?}: {direct} > {window}");
        }
    }
}
