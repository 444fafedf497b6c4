//! The tree structure itself: arena management and shared plumbing.

use crate::node::{Node, NodeKind};
use crate::{Entry, IoStats, NodeId, TreeParams};
use nwc_geom::{Point, Rect};
use std::ops::Deref;

/// An error from an [`RStarTree`] operation that could not proceed: a
/// mutation of a read-only tree, or a disk-backed read that failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The tree is disk-backed over a store with no write path (a
    /// version-1 page file, a read-only backend, or a file opened
    /// without write permission): mutating the cached nodes would
    /// silently diverge from the page file. Save a writable file with
    /// [`RStarTree::save_to_path_writable`] and reopen it, or rebuild
    /// in memory.
    ReadOnly,
    /// A disk-backed page read failed after open (retry budget
    /// exhausted, corruption, or a quarantined page). Returned by the
    /// fallible `try_*` query APIs; never produced by an arena tree.
    Io(crate::disk::DiskReadError),
    /// The traversal's [`Budget`](crate::Budget) expired: its deadline
    /// passed, its stop flag was raised or its I/O allowance was spent.
    /// The tree is untouched — no pin is held, the traversal simply
    /// stopped at a cancellation point.
    Cancelled(crate::CancelKind),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::ReadOnly => write!(
                f,
                "disk-backed tree is read-only (reopen from a writable page file \
                 written by save_to_path_writable to mutate it)"
            ),
            TreeError::Io(e) => write!(f, "disk read failed: {e}"),
            TreeError::Cancelled(kind) => write!(f, "traversal cancelled: {kind}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<crate::disk::DiskReadError> for TreeError {
    fn from(e: crate::disk::DiskReadError) -> Self {
        TreeError::Io(e)
    }
}

/// The one funnel through which the legacy *infallible* query APIs
/// (`window_query`, `Browser::expand`, …) abort on a disk read failure
/// the fallible `try_*` variants would have returned. Keeping the
/// `panic!` here — and only here — means the disk query read path
/// (`disk.rs`, `query.rs`, `browser.rs`, `memo.rs`) contains no panics
/// at all, which `scripts/verify.sh` enforces by grep.
#[cold]
#[inline(never)]
pub(crate) fn read_failure(e: impl std::fmt::Display) -> ! {
    panic!("unrecoverable tree read failure (use the try_* APIs to handle this): {e}")
}

/// A guard over one node's contents, returned by the tree's internal
/// `read_node`/`peek_node`.
///
/// On an arena tree this is a plain borrow (no allocation — the warm
/// query path stays allocation-free). On a disk-backed tree it holds the
/// decoded node alive (`Arc`) and — for charged reads — keeps the
/// backing page **pinned** in the buffer pool until the guard drops, so
/// a parent's page cannot be evicted while a query still descends
/// through its children. Dereferences to [`Node`].
pub(crate) enum NodeRef<'t> {
    /// Direct arena borrow (in-memory tree).
    Arena(&'t Node),
    /// Demand-paged node (disk-backed tree); see
    /// [`crate::disk::PagedNode`].
    Paged(crate::disk::PagedNode<'t>),
}

impl Deref for NodeRef<'_> {
    type Target = Node;
    #[inline]
    fn deref(&self) -> &Node {
        match self {
            NodeRef::Arena(n) => n,
            NodeRef::Paged(p) => p.node(),
        }
    }
}

/// An in-memory R\*-tree over 2-D point objects with node-access
/// accounting.
///
/// Build one with [`RStarTree::bulk_load`] (STR packing, what the
/// experiments use) or incrementally via [`RStarTree::new`] +
/// [`RStarTree::insert`] (full R\* insertion with forced reinsert).
///
/// All query methods take `&self` and charge visited nodes to
/// [`RStarTree::stats`].
pub struct RStarTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) len: usize,
    pub(crate) params: TreeParams,
    pub(crate) stats: IoStats,
    /// `Some` for a disk-backed tree (see [`crate::disk`]): the arena is
    /// empty, node ids are page ids, node accesses fault pages in
    /// through the buffer pool, and mutations require a writable store
    /// (rejected with [`TreeError::ReadOnly`] otherwise).
    pub(crate) storage: Option<Box<crate::disk::TreeStorage>>,
}

impl RStarTree {
    /// Creates an empty tree with the given parameters.
    pub fn with_params(params: TreeParams) -> Self {
        params.validate();
        let mut tree = RStarTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NodeId(0),
            len: 0,
            params,
            stats: IoStats::new(),
            storage: None,
        };
        tree.root = tree.alloc(Node::new_leaf());
        tree
    }

    /// Creates an empty tree with the paper's default parameters
    /// (max 50 entries per node).
    pub fn new() -> Self {
        RStarTree::with_params(TreeParams::default())
    }

    /// Number of objects stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree's shape parameters.
    #[inline]
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// The I/O counters of this tree.
    #[inline]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The root node id (exposed for traversals layered on this crate).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Height of the tree in levels: 1 for a lone leaf root, 2 when the
    /// root's children are leaves, and so on.
    #[inline]
    pub fn height(&self) -> usize {
        match &self.storage {
            Some(s) => s.root_level() as usize + 1,
            None => self.node(self.root).level as usize + 1,
        }
    }

    /// The MBR of the whole dataset, or `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            match &self.storage {
                Some(s) => Some(s.root_mbr()),
                None => Some(self.node(self.root).mbr),
            }
        }
    }

    /// Level of a node: 0 for leaves, increasing toward the root.
    /// Charges no I/O (bookkeeping read, like the arena's).
    #[inline]
    pub fn node_level(&self, id: NodeId) -> u32 {
        match &self.storage {
            Some(s) if id == self.root => s.root_level(),
            _ => self.peek_node(id).level,
        }
    }

    /// MBR of a node. Charges no I/O.
    #[inline]
    pub fn node_mbr(&self, id: NodeId) -> Rect {
        match &self.storage {
            Some(s) if id == self.root => s.root_mbr(),
            _ => self.peek_node(id).mbr,
        }
    }

    /// Number of direct children (entries or nodes) of a node. Charges
    /// no I/O.
    #[inline]
    pub fn node_len(&self, id: NodeId) -> usize {
        self.peek_node(id).len()
    }

    /// Total number of nodes currently allocated (for storage accounting).
    pub fn node_count(&self) -> usize {
        match &self.storage {
            Some(s) => s.node_count(),
            None => self.nodes.len() - self.free.len(),
        }
    }

    /// Iterates over every stored entry (no I/O is charged; this is a
    /// debugging/testing aid, not a simulated disk access path).
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        let mut stack = vec![self.root];
        let mut buf: Vec<Entry> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(e) = buf.pop() {
                return Some(e);
            }
            let id = stack.pop()?;
            match &self.peek_node(id).kind {
                NodeKind::Leaf(entries) => buf.extend(entries.iter().copied()),
                NodeKind::Internal(branches) => stack.extend(branches.iter().map(|b| b.child)),
            }
        })
    }

    // ------------------------------------------------------------------
    // Arena plumbing (crate-internal).
    // ------------------------------------------------------------------

    /// Direct mutable-path access to a node: the arena slot on an
    /// in-memory tree, the *write overlay* on a writable disk-backed
    /// tree. Mutation code must fault a disk node with
    /// [`RStarTree::fault_for_write`] before reaching it through here —
    /// an unfaulted id aborts through the crate's read-failure funnel.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        match &self.storage {
            Some(s) => s.overlay_ref(id.0),
            None => &self.nodes[id.index()],
        }
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        match &mut self.storage {
            Some(s) => s.overlay_mut(id.0),
            None => &mut self.nodes[id.index()],
        }
    }

    /// Ensures `id` is mutable in place: a no-op on an arena tree or an
    /// already-dirty node, otherwise faults the committed node into the
    /// write overlay as a clone-on-write copy (see [`crate::disk`],
    /// "Writable mode").
    pub(crate) fn fault_for_write(&mut self, id: NodeId) -> Result<(), TreeError> {
        let Some(s) = self.storage.as_deref() else {
            return Ok(());
        };
        if s.overlay_contains(id.0) {
            return Ok(());
        }
        let arc = match self.try_peek_node(id)? {
            NodeRef::Paged(p) => p.arc(),
            NodeRef::Arena(_) => return Ok(()),
        };
        if let Some(s) = self.storage.as_deref_mut() {
            s.fault_node(id.0, arc);
        }
        Ok(())
    }

    /// Current MBR of a branch's child during mutation, without
    /// requiring the child to be resident: the overlay copy when the
    /// child is dirty, else the branch's stored MBR (exact for clean
    /// children — clean nodes never point at dirty ones, and every
    /// mutation sync point refreshes the branch copies).
    #[inline]
    pub(crate) fn child_mbr(&self, b: &crate::node::Branch) -> Rect {
        match &self.storage {
            Some(s) => s.overlay_mbr(b.child.0).unwrap_or(b.mbr),
            None => self.nodes[b.child.index()].mbr,
        }
    }

    /// Post-mutation sync point: rebuilds the SoA pruning views of
    /// dirty internal nodes and refreshes the cached root metadata of a
    /// disk-backed tree (queries read both). A no-op on arena trees.
    pub(crate) fn finish_mutation(&mut self) -> Result<(), TreeError> {
        if self.storage.is_none() {
            return Ok(());
        }
        let (level, mbr) = {
            let root = self.try_peek_node(self.root)?;
            (root.level, root.mbr)
        };
        if let Some(s) = self.storage.as_deref_mut() {
            s.rebuild_dirty_soa();
            s.set_root_meta(level, mbr);
        }
        Ok(())
    }

    /// Reads a node's contents for query purposes, charging one node
    /// access to the stats. On a disk-backed tree the access faults the
    /// node's page in through the buffer pool — a miss performs (and
    /// charges) a real page read plus a decode, a hit charges
    /// [`IoStats::record_buffer_hit`] and reuses the already-decoded
    /// node — and the returned guard pins the page until dropped. A
    /// disk read failure (retry budget exhausted, corruption, or a
    /// quarantined page) surfaces as [`TreeError::Io`]; arena reads are
    /// infallible and always return `Ok`.
    #[inline]
    pub(crate) fn try_read_node(&self, id: NodeId) -> Result<NodeRef<'_>, TreeError> {
        match &self.storage {
            Some(storage) => Ok(NodeRef::Paged(storage.try_fetch(id.0, &self.stats)?)),
            None => {
                self.stats.record_node_read();
                Ok(NodeRef::Arena(&self.nodes[id.index()]))
            }
        }
    }

    /// Reads a node's contents for bookkeeping purposes — builds,
    /// validation, entry iteration — charging **no** I/O, pinning
    /// nothing, and never touching the buffer pool counters. On a
    /// disk-backed tree a non-resident node is decoded from an uncounted
    /// store read; resident nodes are reused.
    #[inline]
    pub(crate) fn peek_node(&self, id: NodeId) -> NodeRef<'_> {
        match self.try_peek_node(id) {
            Ok(node) => node,
            Err(e) => read_failure(e),
        }
    }

    /// Fallible twin of `peek_node`: still uncharged and unpinned, but
    /// a disk-backed read failure surfaces as [`TreeError::Io`] after
    /// the storage layer's retry budget instead of panicking.
    #[inline]
    pub(crate) fn try_peek_node(&self, id: NodeId) -> Result<NodeRef<'_>, TreeError> {
        match &self.storage {
            Some(storage) => Ok(NodeRef::Paged(storage.try_peek(id.0, &self.stats)?)),
            None => Ok(NodeRef::Arena(&self.nodes[id.index()])),
        }
    }

    /// `Err(TreeError::ReadOnly)` when this tree is disk-backed over a
    /// store with no write path (see [`crate::disk`], "Writable mode").
    #[inline]
    pub(crate) fn check_mutable(&self) -> Result<(), TreeError> {
        match &self.storage {
            Some(s) if !s.is_writable() => Err(TreeError::ReadOnly),
            _ => Ok(()),
        }
    }

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(s) = self.storage.as_deref_mut() {
            return NodeId(s.alloc_temp(node));
        }
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow"));
            self.nodes.push(node);
            id
        }
    }

    pub(crate) fn dealloc(&mut self, id: NodeId) {
        if let Some(s) = self.storage.as_deref_mut() {
            s.free_node(id.0);
            return;
        }
        // Leave a recognizably-empty husk; the slot is recycled later.
        self.nodes[id.index()] = Node::new_leaf();
        self.free.push(id);
    }

    /// Recomputes a node's MBR from its children, refreshing the child
    /// MBR stored in each branch on the way (the branch copies are the
    /// ones queries prune on, so every mutation sync point must keep
    /// them exact). Panics on an empty non-root node (mutations must not
    /// leave those behind).
    pub(crate) fn recompute_mbr(&mut self, id: NodeId) {
        let mbr = match &self.node(id).kind {
            NodeKind::Leaf(entries) => Rect::bounding(entries.iter().map(|e| e.point)),
            NodeKind::Internal(branches) => {
                let fresh: Vec<Rect> = branches.iter().map(|b| self.child_mbr(b)).collect();
                let union = fresh.iter().skip(1).fold(fresh.first().copied(), |acc, r| {
                    acc.map(|u| u.union(r))
                });
                for (b, m) in self.node_mut(id).branches_mut().iter_mut().zip(&fresh) {
                    b.mbr = *m;
                }
                union
            }
        };
        match mbr {
            Some(r) => self.node_mut(id).mbr = r,
            None => {
                assert_eq!(id, self.root, "non-root node left empty");
                self.node_mut(id).mbr = Rect::from_point(Point::ORIGIN);
            }
        }
    }
}

impl Default for RStarTree {
    fn default() -> Self {
        RStarTree::new()
    }
}

impl std::fmt::Debug for RStarTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RStarTree")
            .field("len", &self.len)
            .field("height", &self.height())
            .field("nodes", &self.node_count())
            .field("params", &self.params)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    #[test]
    fn empty_tree_shape() {
        let t = RStarTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.mbr().is_none());
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn iter_entries_covers_everything() {
        let pts: Vec<_> = (0..300).map(|i| pt(i as f64, (i * 7 % 50) as f64)).collect();
        let t = RStarTree::bulk_load(&pts);
        let mut ids: Vec<_> = t.iter_entries().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn read_only_error_displays_usefully() {
        let msg = TreeError::ReadOnly.to_string();
        assert!(msg.contains("read-only"), "{msg}");
    }
}
