//! IWP — Incremental Window query Processing (paper §3.3.4).
//!
//! A window query issued by the NWC algorithm for the search region of an
//! object `p` is almost always covered by an intermediate node close to
//! the leaf that stores `p`. IWP exploits this by augmenting the tree:
//!
//! - every **leaf** gets `r` *backward pointers* `bp_1..bp_r` to selected
//!   ancestors, spaced exponentially like the Exponential Index: `bp_1`
//!   is the leaf itself, `bp_i` (1 < i < r) points to the ancestor at
//!   depth `h − 2^{i−2}` (leaf depth `h`), and `bp_r` is the root, with
//!   `r = ⌈log₂ h⌉ + 2`;
//! - every node pointed to by a backward pointer (except the root) gets
//!   *overlapping pointers* to the same-depth nodes whose MBRs overlap
//!   its own, because R-tree siblings may overlap and starting a window
//!   query below the root would otherwise miss results.
//!
//! An incremental window query then starts from the lowest backward
//! pointer whose MBR covers the query rectangle — plus the overlap
//! targets intersecting the rectangle — instead of the root.
//!
//! The NWC search (`nwc-core`) issues one such query per leaf, not per
//! object: its rectangle is the leaf's *neighbourhood*, the DEP
//! extension of the leaf MBR, which contains the search region of every
//! object in the leaf. On clustered data a leaf's MBR rarely covers a
//! search region, so a per-object query starts above the leaf anyway;
//! per leaf, one such start serves all of the leaf's objects.
//!
//! The index is built once over a static tree; mutating the tree
//! invalidates it (rebuild after updates).

use crate::node::NodeKind;
use crate::tree::RStarTree;
use crate::{Entry, NodeId};
use nwc_geom::{MbrSoa, Rect};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Stack-buffer width for the batched overlap-target intersection test
/// (matches the chunk width of the window-query kernels).
const MASK_CHUNK: usize = 128;

/// Multiplicative (Fibonacci) hasher for [`NodeId`] keys. The IWP
/// tables are probed once per window query, where SipHash showed up in
/// profiles. Node ids are assigned by the tree itself (arena slots and
/// page numbers, never query input), so one multiply spreads them well
/// enough and collision resistance buys nothing.
#[derive(Clone, Copy, Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by node id, hashed with [`NodeIdHasher`].
type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// The overlapping pointers of one pointed node, stored as a
/// structure-of-arrays pair so the per-query "which overlap targets
/// intersect the window?" test runs as one batched kernel call.
struct OverlapList {
    /// Overlap targets (`op_j`), in sweep order.
    targets: Vec<NodeId>,
    /// The targets' MBRs (`mbr_j^o`), SoA-indexed in step with `targets`.
    mbrs: MbrSoa,
}

/// Storage overhead of the IWP augmentation, mirroring the paper's §5.2
/// accounting (4 bytes per pointer plus an MBR per pointer entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IwpStorage {
    /// Total number of backward pointers across all leaves.
    pub backward_pointers: usize,
    /// Total number of overlapping pointers across pointed nodes.
    pub overlapping_pointers: usize,
}

impl IwpStorage {
    /// Total pointers.
    pub fn total_pointers(&self) -> usize {
        self.backward_pointers + self.overlapping_pointers
    }

    /// Approximate bytes at the paper's 4 bytes/pointer accounting.
    pub fn bytes(&self) -> usize {
        self.total_pointers() * 4
    }
}

/// The IWP pointer augmentation of a (static) [`RStarTree`].
pub struct IwpIndex {
    /// `bp_1..bp_r` per leaf, ordered leaf-first, root-last; each entry
    /// carries the pointed node's MBR (the `mbr_i^b` of the paper).
    backward: NodeMap<Vec<(NodeId, Rect)>>,
    /// Overlapping pointers per pointed node (the `(op_j, mbr_j^o)`).
    overlaps: NodeMap<OverlapList>,
    storage: IwpStorage,
}

impl IwpIndex {
    /// Builds the augmentation over `tree`. Construction walks the whole
    /// tree but charges no query I/O (it models an offline index build),
    /// reading nodes through the uncharged peek path so a disk-backed
    /// tree's buffer counters stay untouched.
    pub fn build(tree: &RStarTree) -> Self {
        let h = tree.node_level(tree.root()) as usize; // leaf depth
        let depths = backward_depths(h);

        // Collect root-to-leaf paths (path[d] = ancestor at depth d) and
        // per-level node lists for overlap computation. The path carries
        // each ancestor's MBR so backward pointers need no second read;
        // pointed nodes remember (level, mbr) for the overlap phase (the
        // ancestor at depth d sits at level h − d).
        let mut backward: NodeMap<Vec<(NodeId, Rect)>> = NodeMap::default();
        let mut pointed: Vec<NodeId> = Vec::new();
        let mut pointed_info: NodeMap<(u32, Rect)> = NodeMap::default();
        let mut by_level: HashMap<u32, Vec<(NodeId, Rect)>> = HashMap::new();

        let mut path: Vec<(NodeId, Rect)> = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        while let Some((id, depth)) = stack.pop() {
            path.truncate(depth);
            let node = tree.peek_node(id);
            path.push((id, node.mbr));
            by_level
                .entry(node.level)
                .or_default()
                .push((id, node.mbr));
            match &node.kind {
                NodeKind::Internal(branches) => {
                    for b in branches {
                        stack.push((b.child, depth + 1));
                    }
                }
                NodeKind::Leaf(_) => {
                    debug_assert_eq!(depth, h, "leaf at unexpected depth");
                    let bps: Vec<(NodeId, Rect)> = depths.iter().map(|&d| path[d]).collect();
                    for (&d, &(n, mbr)) in depths.iter().zip(&bps) {
                        if n != tree.root() {
                            pointed.push(n);
                            pointed_info.insert(n, ((h - d) as u32, mbr));
                        }
                    }
                    backward.insert(id, bps);
                }
            }
        }

        pointed.sort_unstable();
        pointed.dedup();

        // Overlapping pointers: same-level nodes with intersecting MBRs.
        // A per-level x-interval sweep keeps this near-linear.
        let mut overlaps: NodeMap<OverlapList> = NodeMap::default();
        let mut overlap_count = 0usize;
        for level_nodes in by_level.values_mut() {
            level_nodes.sort_by(|a, b| a.1.min.x.total_cmp(&b.1.min.x));
        }
        for &n in &pointed {
            let (level, mbr) = pointed_info[&n];
            let peers = &by_level[&level];
            // Candidates: peers whose min.x ≤ mbr.max.x, scanned from the
            // first index; early-exit once min.x exceeds mbr.max.x.
            let mut ops = OverlapList {
                targets: Vec::new(),
                mbrs: MbrSoa::default(),
            };
            for &(peer, peer_mbr) in peers {
                if peer_mbr.min.x > mbr.max.x {
                    break;
                }
                if peer != n && peer_mbr.intersects(&mbr) {
                    ops.targets.push(peer);
                    ops.mbrs.push(&peer_mbr);
                }
            }
            overlap_count += ops.targets.len();
            overlaps.insert(n, ops);
        }

        let storage = IwpStorage {
            backward_pointers: backward.values().map(Vec::len).sum(),
            overlapping_pointers: overlap_count,
        };
        IwpIndex {
            backward,
            overlaps,
            storage,
        }
    }

    /// The storage overhead of the augmentation.
    pub fn storage(&self) -> IwpStorage {
        self.storage
    }

    /// Number of backward pointers per leaf (the paper's `r`), taken from
    /// an arbitrary leaf (all leaves share the same depth).
    pub fn pointers_per_leaf(&self) -> usize {
        self.backward.values().next().map_or(0, Vec::len)
    }

    /// Incremental window query (paper Algorithm 3): answers `rect`
    /// starting from the lowest backward pointer of `leaf` whose MBR
    /// covers `rect`, plus the overlap targets intersecting `rect`.
    ///
    /// `leaf` must be the leaf that stored the object whose search region
    /// is being queried (available from
    /// [`BrowseItem::Object::leaf`](crate::BrowseItem)).
    pub fn window_query_into(
        &self,
        tree: &RStarTree,
        leaf: NodeId,
        rect: &Rect,
        out: &mut Vec<Entry>,
    ) {
        if let Err(e) = self.try_window_query_into(tree, leaf, rect, out) {
            crate::tree::read_failure(e)
        }
    }

    /// As [`IwpIndex::window_query_into`], surfacing disk read failures
    /// as a typed error instead of panicking. On `Err`, `out` may hold
    /// a partial result; every page pin the traversal took has been
    /// released.
    pub fn try_window_query_into(
        &self,
        tree: &RStarTree,
        leaf: NodeId,
        rect: &Rect,
        out: &mut Vec<Entry>,
    ) -> Result<(), crate::TreeError> {
        let Some(bps) = self.backward.get(&leaf).filter(|b| !b.is_empty()) else {
            crate::tree::stale_iwp(leaf)
        };
        // Smallest i whose MBR covers the query; the root (always last)
        // covers everything by convention (objects outside it do not
        // exist).
        let mut start = bps[bps.len() - 1].0;
        for &(n, mbr) in bps {
            if mbr.contains_rect(rect) {
                start = n;
                break;
            }
        }

        tree.try_window_query_from_into(start, rect, out)?;
        if let Some(ops) = self.overlaps.get(&start) {
            // One batched kernel call per chunk decides which overlap
            // targets the window reaches; only those are traversed.
            let mut mask = [false; MASK_CHUNK];
            let mut base = 0;
            while base < ops.targets.len() {
                let len = MASK_CHUNK.min(ops.targets.len() - base);
                ops.mbrs.intersects_range_into(base, rect, &mut mask[..len]);
                for (i, &op) in ops.targets[base..base + len].iter().enumerate() {
                    if mask[i] {
                        tree.try_window_query_from_into(op, rect, out)?;
                    }
                }
                base += len;
            }
        }
        Ok(())
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn window_query(&self, tree: &RStarTree, leaf: NodeId, rect: &Rect) -> Vec<Entry> {
        let mut out = Vec::new();
        self.window_query_into(tree, leaf, rect, &mut out);
        out
    }
}

/// The depths of the backward pointers for leaf depth `h`, ordered
/// leaf-first (depth `h`) to root-last (depth 0), deduplicated.
fn backward_depths(h: usize) -> Vec<usize> {
    let mut depths = vec![h];
    let mut i = 2usize;
    loop {
        let step = 1usize << (i - 2);
        if step >= h {
            break;
        }
        depths.push(h - step);
        i += 1;
    }
    if h > 0 {
        depths.push(0);
    }
    depths.dedup();
    depths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RStarTree, TreeParams};
    use nwc_geom::{pt, rect, Point};

    fn clustered_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let cluster = (i % 10) as f64;
                pt(
                    cluster * 100.0 + ((i * 17) % 23) as f64,
                    cluster * 80.0 + ((i * 31) % 29) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn backward_depths_match_paper_example() {
        // Paper Figure 5: height-8 tree (leaf depth 8) has r = 5 pointers
        // at depths 8 (self), 7, 6, 4 and 0 (root).
        assert_eq!(backward_depths(8), vec![8, 7, 6, 4, 0]);
    }

    #[test]
    fn backward_depths_small_trees() {
        assert_eq!(backward_depths(0), vec![0]); // root is the leaf
        assert_eq!(backward_depths(1), vec![1, 0]);
        assert_eq!(backward_depths(2), vec![2, 1, 0]);
        assert_eq!(backward_depths(3), vec![3, 2, 1, 0]);
        assert_eq!(backward_depths(4), vec![4, 3, 2, 0]);
    }

    #[test]
    fn r_matches_formula() {
        // r = ⌈log₂ h⌉ + 2 for h ≥ 2 a power of two.
        for (h, r) in [(2usize, 3usize), (4, 4), (8, 5), (16, 6)] {
            assert_eq!(backward_depths(h).len(), r, "h={h}");
        }
    }

    #[test]
    fn iwp_query_matches_plain_window_query() {
        let points = clustered_points(3000);
        let tree =
            RStarTree::bulk_load_with_params(&points, TreeParams::with_max_entries(8));
        let iwp = IwpIndex::build(&tree);
        // For each of several objects, query its neighbourhood through the
        // object's own leaf, as the NWC algorithm does.
        for &probe in &[0usize, 57, 123, 999, 2500] {
            let p = points[probe];
            let (_, entry_leaf) = find_leaf_of(&tree, p);
            for size in [5.0, 50.0, 500.0] {
                let wq = rect(p.x - size, p.y - size, p.x + size, p.y + size);
                let mut got: Vec<u32> =
                    iwp.window_query(&tree, entry_leaf, &wq).iter().map(|e| e.id).collect();
                got.sort_unstable();
                let mut want: Vec<u32> =
                    tree.window_query(&wq).iter().map(|e| e.id).collect();
                want.sort_unstable();
                assert_eq!(got, want, "probe {probe} size {size}");
            }
        }
    }

    #[test]
    fn iwp_saves_io_for_local_queries() {
        let points = clustered_points(5000);
        let tree =
            RStarTree::bulk_load_with_params(&points, TreeParams::with_max_entries(8));
        let iwp = IwpIndex::build(&tree);
        let mut plain = 0u64;
        let mut incremental = 0u64;
        for probe in (0..5000).step_by(97) {
            let p = points[probe];
            let (_, leaf) = find_leaf_of(&tree, p);
            let wq = rect(p.x - 2.0, p.y - 2.0, p.x + 2.0, p.y + 2.0);

            tree.stats().reset();
            tree.window_query(&wq);
            plain += tree.stats().node_reads();

            tree.stats().reset();
            iwp.window_query(&tree, leaf, &wq);
            incremental += tree.stats().node_reads();
        }
        assert!(
            incremental < plain,
            "IWP total {incremental} should beat root descent total {plain}"
        );
    }

    #[test]
    fn storage_accounting_is_positive() {
        let points = clustered_points(2000);
        let tree =
            RStarTree::bulk_load_with_params(&points, TreeParams::with_max_entries(8));
        let iwp = IwpIndex::build(&tree);
        let s = iwp.storage();
        assert!(s.backward_pointers > 0);
        assert_eq!(s.bytes(), s.total_pointers() * 4);
        assert_eq!(iwp.pointers_per_leaf(), backward_depths(tree.height() - 1).len());
    }

    #[test]
    fn single_leaf_tree() {
        let points = clustered_points(10);
        let tree = RStarTree::bulk_load(&points);
        assert_eq!(tree.height(), 1);
        let iwp = IwpIndex::build(&tree);
        let wq = rect(0.0, 0.0, 1000.0, 1000.0);
        let got = iwp.window_query(&tree, tree.root(), &wq);
        assert_eq!(got.len(), 10);
    }

    /// Locates the leaf storing an exact point via root descent.
    fn find_leaf_of(tree: &RStarTree, p: Point) -> (u32, NodeId) {
        let mut browser = tree.browse(p);
        loop {
            match browser.next().expect("point must be found") {
                crate::BrowseItem::Node { id, .. } => browser.expand(id),
                crate::BrowseItem::Object { entry, dist, leaf, .. } => {
                    if dist == 0.0 {
                        return (entry.id, leaf);
                    }
                }
            }
        }
    }
}
