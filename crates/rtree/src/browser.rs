//! Best-first incremental distance browsing (Hjaltason & Samet).
//!
//! The NWC algorithm "visits all data objects based on their distance to
//! the query location q in ascending order" while interleaving its own
//! node pruning (DIP/DEP) with the traversal. [`Browser`] exposes exactly
//! that control point: popping yields nodes *and* objects in ascending
//! `MINDIST` order, and the caller decides per node whether to
//! [`Browser::expand`] it (one charged node access) or drop it.
//!
//! The convenience kNN and full-ordering APIs are built on top.

use crate::node::NodeKind;
use crate::tree::RStarTree;
use crate::{Entry, NodeId, NodeMemo};
use nwc_geom::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Stack-buffer width for batched per-node MINDIST evaluation. A disk
/// page holds at most 112 branches, so one chunk covers a whole page;
/// wider arena nodes simply take several chunks.
const MINDIST_CHUNK: usize = 128;

/// An item popped from the best-first priority queue.
#[derive(Clone, Copy, Debug)]
pub enum BrowseItem {
    /// An index node, with its MBR's `MINDIST` to the query point. The
    /// caller must call [`Browser::expand`] to descend into it.
    Node {
        /// Node id, usable with the tree's `node_*` accessors.
        id: NodeId,
        /// Node level (0 = leaf).
        level: u32,
        /// Node MBR.
        mbr: Rect,
        /// `MINDIST(q, mbr)`.
        mindist: f64,
    },
    /// A data object, with its distance to the query point and the leaf
    /// it was read from.
    Object {
        /// The object entry.
        entry: Entry,
        /// `dist(q, entry.point)`.
        dist: f64,
        /// The leaf node that stored the entry.
        leaf: NodeId,
        /// The leaf's position among the leaves this traversal expanded,
        /// in expansion order (0 = first); see
        /// [`Browser::leaf_pending`].
        leaf_visit: u32,
    },
}

impl BrowseItem {
    /// The priority-queue key of this item.
    pub fn key(&self) -> f64 {
        match self {
            BrowseItem::Node { mindist, .. } => *mindist,
            BrowseItem::Object { dist, .. } => *dist,
        }
    }
}

/// Heap wrapper ordering items by ascending key. Ties prefer objects over
/// nodes so an object at distance d surfaces before a node whose MINDIST
/// is also d (matching the classic incremental-NN formulation).
struct HeapItem {
    key: f64,
    object_first: bool,
    item: BrowseItem,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for ascending keys.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| self.object_first.cmp(&other.object_first))
    }
}

/// Reusable storage for a [`Browser`]'s priority queue.
///
/// A best-first search grows its frontier heap to hundreds of entries;
/// allocating it anew per query dominates the allocation profile of
/// query-heavy workloads. A `BrowserScratch` keeps the heap's backing
/// buffer alive between searches: start each search with
/// [`RStarTree::browse_with`] and return the storage afterwards with
/// [`Browser::recycle`]. A warm scratch makes the whole traversal
/// allocation-free (until the frontier outgrows its previous high-water
/// mark). Forgetting to recycle only loses the retained capacity — it
/// never affects correctness.
#[derive(Default)]
pub struct BrowserScratch {
    heap: BinaryHeap<HeapItem>,
    leaf_pending: Vec<u32>,
}

impl BrowserScratch {
    /// An empty scratch. The first search through it allocates; later
    /// ones reuse the grown buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap and leaf-bookkeeping slots currently retained (diagnostics /
    /// tests).
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity() + self.leaf_pending.capacity()
    }
}

/// A best-first traversal cursor over an [`RStarTree`].
pub struct Browser<'t> {
    tree: &'t RStarTree,
    query: Point,
    heap: BinaryHeap<HeapItem>,
    /// Cooperative budget (deadline / stop flag / logical-I/O
    /// allowance), checked at every [`Browser::try_expand`] (the
    /// traversal's I/O boundary). Unarmed by default.
    budget: crate::Budget,
    /// The calling thread's access tally when the budget was armed; the
    /// I/O allowance is measured as accesses since this point.
    io_base: u64,
    /// Per expanded leaf, indexed by `leaf_visit`: how many of its
    /// objects are still in the frontier.
    leaf_pending: Vec<u32>,
}

impl<'t> Browser<'t> {
    /// Starts a traversal from the root. The root node itself is the
    /// first item popped (unless the tree is empty).
    pub fn new(tree: &'t RStarTree, query: Point) -> Self {
        Self::new_with(tree, query, &mut BrowserScratch::default())
    }

    /// As [`Browser::new`], but the frontier heap takes its backing
    /// buffer from `scratch` instead of allocating. The scratch is left
    /// empty; hand the storage back with [`Browser::recycle`] when the
    /// search is over.
    pub fn new_with(tree: &'t RStarTree, query: Point, scratch: &mut BrowserScratch) -> Self {
        let mut heap = std::mem::take(&mut scratch.heap);
        heap.clear();
        let mut leaf_pending = std::mem::take(&mut scratch.leaf_pending);
        leaf_pending.clear();
        if !tree.is_empty() {
            let root = tree.root();
            let mbr = tree.node_mbr(root);
            let mindist = mbr.mindist(&query);
            heap.push(HeapItem {
                key: mindist,
                object_first: false,
                item: BrowseItem::Node {
                    id: root,
                    level: tree.node_level(root),
                    mbr,
                    mindist,
                },
            });
        }
        Browser {
            tree,
            query,
            heap,
            budget: crate::Budget::none(),
            io_base: 0,
            leaf_pending,
        }
    }

    /// Arms a cooperative [`Budget`](crate::Budget): deadline, stop
    /// flag, and/or logical-I/O allowance. Every subsequent
    /// [`Browser::try_expand`] first checks it and returns
    /// [`TreeError`](crate::TreeError)`::Cancelled` — with no pin held
    /// and the frontier intact — once it expires. The allowance is
    /// measured from this call (the calling thread's access tally), so
    /// arm the budget on the thread that runs the traversal, before it
    /// starts charging I/O.
    pub fn set_budget(&mut self, budget: crate::Budget) {
        self.io_base = self.tree.stats().snapshot();
        self.budget = budget;
    }

    /// Ends the traversal and returns the heap's storage to `scratch`
    /// for the next search.
    pub fn recycle(mut self, scratch: &mut BrowserScratch) {
        self.heap.clear();
        scratch.heap = self.heap;
        scratch.leaf_pending = self.leaf_pending;
    }

    /// The query point this browser orders by.
    pub fn query(&self) -> Point {
        self.query
    }

    /// Pops the next item in ascending distance order, or `None` when the
    /// frontier is exhausted. Popping charges no I/O by itself; node
    /// contents are only read by [`Browser::expand`].
    #[allow(clippy::should_implement_trait)] // cursor, deliberately not an Iterator (expand() interleaves)
    pub fn next(&mut self) -> Option<BrowseItem> {
        let item = self.heap.pop()?.item;
        if let BrowseItem::Object { leaf_visit, .. } = item {
            if let Some(pending) = self.leaf_pending.get_mut(leaf_visit as usize) {
                *pending = pending.saturating_sub(1);
            }
        }
        Some(item)
    }

    /// How many objects of the leaf expanded as `leaf_visit` (see
    /// [`BrowseItem::Object`]) are still in the frontier. Once it reads 0
    /// after popping one of them, that object was the leaf's last: state
    /// the caller keeps per leaf can be released.
    pub fn leaf_pending(&self, leaf_visit: u32) -> u32 {
        self.leaf_pending
            .get(leaf_visit as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Key of the next item without popping it.
    pub fn peek_key(&self) -> Option<f64> {
        self.heap.peek().map(|h| h.key)
    }

    /// Reads a node's children into the frontier, charging one node
    /// access. Call after popping a `BrowseItem::Node` the caller chose
    /// not to prune. The parent's guard (and, disk-backed, its page pin)
    /// is held until all children are enqueued.
    pub fn expand(&mut self, id: NodeId) {
        if let Err(e) = self.try_expand(id) {
            crate::tree::read_failure(e)
        }
    }

    /// As [`Browser::expand`], surfacing a disk read failure as a typed
    /// error instead of panicking. On `Err`, no child was enqueued, no
    /// pin is held, and the browser remains usable — the caller can
    /// drop the failed subtree and keep draining the frontier, or abort
    /// the whole search.
    pub fn try_expand(&mut self, id: NodeId) -> Result<(), crate::TreeError> {
        self.expand_into(id, None)
    }

    /// As [`Browser::try_expand`], also recording the read node in
    /// `memo`, so window queries run through the memo later in the same
    /// search read it uncharged (see [`NodeMemo`]).
    pub fn try_expand_remembering(
        &mut self,
        id: NodeId,
        memo: &mut NodeMemo,
    ) -> Result<(), crate::TreeError> {
        self.expand_into(id, Some(memo))
    }

    fn expand_into(
        &mut self,
        id: NodeId,
        memo: Option<&mut NodeMemo>,
    ) -> Result<(), crate::TreeError> {
        if let Some(kind) = self.budget.exceeded(|| self.tree.stats().since(self.io_base)) {
            return Err(crate::TreeError::Cancelled(kind));
        }
        let node = self.tree.try_read_node(id)?;
        if let Some(memo) = memo {
            memo.remember(self.tree, id, &node);
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                let leaf_visit = self.leaf_pending.len() as u32;
                self.leaf_pending.push(entries.len() as u32);
                for &e in entries {
                    self.heap.push(HeapItem {
                        key: e.point.dist(&self.query),
                        object_first: true,
                        item: BrowseItem::Object {
                            entry: e,
                            dist: e.point.dist(&self.query),
                            leaf: id,
                            leaf_visit,
                        },
                    });
                }
            }
            NodeKind::Internal(branches) => {
                let child_level = node.level - 1;
                // MINDIST for the whole node in chunked batches: the
                // kernel runs over the page's SoA MBR view when present
                // (disk nodes build one at decode time), falling back to
                // the scalar predicate on arena nodes. The chunk buffer
                // lives on the stack so traversals stay allocation-free.
                let mut dists = [0.0f64; MINDIST_CHUNK];
                let mut base = 0;
                while base < branches.len() {
                    let len = MINDIST_CHUNK.min(branches.len() - base);
                    match &node.soa {
                        Some(soa) => {
                            soa.mindist_range_into(base, &self.query, &mut dists[..len])
                        }
                        None => {
                            for (i, b) in branches[base..base + len].iter().enumerate() {
                                dists[i] = b.mbr.mindist(&self.query);
                            }
                        }
                    }
                    for (i, b) in branches[base..base + len].iter().enumerate() {
                        let mindist = dists[i];
                        self.heap.push(HeapItem {
                            key: mindist,
                            object_first: false,
                            item: BrowseItem::Node {
                                id: b.child,
                                level: child_level,
                                mbr: b.mbr,
                                mindist,
                            },
                        });
                    }
                    base += len;
                }
            }
        }
        Ok(())
    }

    /// Drains the browser into a plain object stream, expanding every
    /// node (no pruning). Equivalent to Hjaltason–Samet incremental NN.
    pub fn objects(mut self) -> impl Iterator<Item = (f64, Entry)> + 't {
        std::iter::from_fn(move || loop {
            match self.next()? {
                BrowseItem::Node { id, .. } => self.expand(id),
                BrowseItem::Object { entry, dist, .. } => return Some((dist, entry)),
            }
        })
    }
}

impl RStarTree {
    /// Starts a best-first traversal ordered by distance from `query`.
    pub fn browse(&self, query: Point) -> Browser<'_> {
        Browser::new(self, query)
    }

    /// As [`RStarTree::browse`], reusing the heap storage held by
    /// `scratch` (see [`BrowserScratch`]).
    pub fn browse_with(&self, query: Point, scratch: &mut BrowserScratch) -> Browser<'_> {
        Browser::new_with(self, query, scratch)
    }

    /// The `k` nearest entries to `query` in ascending distance order
    /// (fewer when the tree is smaller). Charges the accesses of the
    /// best-first search.
    pub fn knn(&self, query: Point, k: usize) -> Vec<(f64, Entry)> {
        self.browse(query).objects().take(k).collect()
    }

    /// The nearest entry to `query`, if any.
    pub fn nearest(&self, query: Point) -> Option<(f64, Entry)> {
        self.browse(query).objects().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    fn sample() -> (RStarTree, Vec<Point>) {
        let pts: Vec<Point> = (0..500)
            .map(|i| pt(((i * 37) % 101) as f64, ((i * 61) % 97) as f64))
            .collect();
        (RStarTree::bulk_load(&pts), pts)
    }

    #[test]
    fn knn_matches_sorting() {
        let (t, pts) = sample();
        let q = pt(40.0, 40.0);
        let got: Vec<u32> = t.knn(q, 10).iter().map(|(_, e)| e.id).collect();
        let mut want: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist(&q), i as u32))
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Distances must agree even when equidistant ids permute.
        let want_d: Vec<f64> = want[..10].iter().map(|&(d, _)| d).collect();
        let got_d: Vec<f64> = t.knn(q, 10).iter().map(|&(d, _)| d).collect();
        assert_eq!(got_d, want_d);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn browse_yields_ascending_distances() {
        let (t, _) = sample();
        let q = pt(13.0, 77.0);
        let mut last = 0.0;
        let mut count = 0;
        for (d, _) in t.browse(q).objects() {
            assert!(d >= last, "distance order violated: {d} < {last}");
            last = d;
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn nearest_on_exact_hit() {
        let (t, pts) = sample();
        let (d, e) = t.nearest(pts[42]).unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(e.point, pts[42]);
    }

    #[test]
    fn knn_more_than_len_returns_all() {
        let (t, _) = sample();
        assert_eq!(t.knn(pt(0.0, 0.0), 10_000).len(), 500);
    }

    #[test]
    fn empty_tree_browse() {
        let t = RStarTree::new();
        assert!(t.nearest(pt(0.0, 0.0)).is_none());
        assert!(t.browse(pt(0.0, 0.0)).next().is_none());
    }

    #[test]
    fn pruned_nodes_cost_nothing() {
        let (t, _) = sample();
        t.stats().reset();
        let mut b = t.browse(pt(0.0, 0.0));
        // Expand only the root, prune everything else.
        let mut expanded = 0;
        while let Some(item) = b.next() {
            if let BrowseItem::Node { id, .. } = item {
                if expanded == 0 {
                    b.expand(id);
                    expanded += 1;
                }
            }
        }
        assert_eq!(t.stats().node_reads(), 1);
    }

    #[test]
    fn scratch_reuse_keeps_results_and_capacity() {
        let (t, _) = sample();
        let q = pt(40.0, 40.0);
        let plain: Vec<(f64, u32)> = t.browse(q).objects().map(|(d, e)| (d, e.id)).collect();

        let mut scratch = BrowserScratch::new();
        for _ in 0..3 {
            let mut got = Vec::new();
            let mut b = t.browse_with(q, &mut scratch);
            loop {
                match b.next() {
                    Some(BrowseItem::Node { id, .. }) => b.expand(id),
                    Some(BrowseItem::Object { entry, dist, .. }) => got.push((dist, entry.id)),
                    None => break,
                }
            }
            b.recycle(&mut scratch);
            assert_eq!(got.len(), plain.len());
            let gd: Vec<f64> = got.iter().map(|&(d, _)| d).collect();
            let pd: Vec<f64> = plain.iter().map(|&(d, _)| d).collect();
            assert_eq!(gd, pd);
            assert!(scratch.heap_capacity() > 0, "storage must be recycled");
        }
    }

    #[test]
    fn leaf_pending_counts_each_leafs_objects_left_in_the_frontier() {
        let (t, pts) = sample();
        let mut b = t.browse(pt(50.0, 50.0));
        // Per leaf_visit: entries pushed, objects popped so far.
        let mut leaves: Vec<(u32, u32)> = Vec::new();
        while let Some(item) = b.next() {
            match item {
                BrowseItem::Node { id, level, .. } => {
                    b.expand(id);
                    if level == 0 {
                        let NodeKind::Leaf(entries) = &t.peek_node(id).kind else {
                            panic!("level-0 node is not a leaf");
                        };
                        leaves.push((entries.len() as u32, 0));
                    }
                }
                BrowseItem::Object { leaf_visit, .. } => {
                    let leaf = &mut leaves[leaf_visit as usize];
                    leaf.1 += 1;
                    assert_eq!(b.leaf_pending(leaf_visit), leaf.0 - leaf.1);
                }
            }
        }
        assert!(leaves.len() > 1);
        assert!(leaves.iter().all(|&(pushed, popped)| pushed == popped));
        let popped: u32 = leaves.iter().map(|l| l.1).sum();
        assert_eq!(popped as usize, pts.len());
    }

    #[test]
    fn object_leaf_ids_are_correct() {
        let (t, _) = sample();
        let mut b = t.browse(pt(50.0, 50.0));
        let mut seen = 0;
        while let Some(item) = b.next() {
            match item {
                BrowseItem::Node { id, .. } => b.expand(id),
                BrowseItem::Object { entry, leaf, .. } => {
                    assert!(t.node_mbr(leaf).contains_point(&entry.point));
                    assert_eq!(t.node_level(leaf), 0);
                    seen += 1;
                    if seen > 20 {
                        break;
                    }
                }
            }
        }
    }
}
