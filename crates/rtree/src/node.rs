//! Arena-allocated tree nodes.

use crate::Entry;
use nwc_geom::{Point, Rect};

/// Index of a node in the tree's arena. Stable across queries; recycled
/// by mutations through a free list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw identifier: on a disk-backed tree this is the page id
    /// backing the node (usable with a page store's fault-injection
    /// hooks); on an arena tree, the arena slot index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One routing entry of an internal node: the child id plus the child's
/// MBR, exactly as a real R-tree page stores them. Keeping the MBR in
/// the parent means query descent can prune children without touching
/// (or charging) the child node itself — and on a disk-backed tree,
/// without faulting the child's page in at all.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Branch {
    pub child: NodeId,
    pub mbr: Rect,
}

/// The children of a node: leaf entries or child branches.
#[derive(Clone, Debug)]
pub(crate) enum NodeKind {
    /// Level-0 node holding point entries.
    Leaf(Vec<Entry>),
    /// Internal node holding child branches (children live one level
    /// below this node).
    Internal(Vec<Branch>),
}

/// A tree node. `level` is 0 for leaves and increases toward the root, so
/// every leaf sits at the same level by construction (the R-tree
/// balance invariant).
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub level: u32,
    pub mbr: Rect,
    pub kind: NodeKind,
}

/// Statically-dead arm filler for the mutable kind accessors: both
/// normalize `kind` immediately before matching, so this can never run.
/// It exists only because the borrow checker cannot prove the match
/// total after the normalization; abort (not unwind) keeps the file's
/// no-panic guarantee literal.
#[cold]
fn kind_mismatch() -> ! {
    std::process::abort()
}

impl Node {
    pub fn new_leaf() -> Self {
        Node {
            level: 0,
            mbr: Rect::from_point(Point::ORIGIN),
            kind: NodeKind::Leaf(Vec::new()),
        }
    }

    pub fn new_internal(level: u32) -> Self {
        Node {
            level,
            mbr: Rect::from_point(Point::ORIGIN),
            kind: NodeKind::Internal(Vec::new()),
        }
    }

    /// Number of direct children (entries or child nodes).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }

    // The four kind accessors below are unreachable-by-construction on
    // the wrong kind: every caller dispatches on `level` (0 = leaf)
    // first, and `level`/`kind` are set together at construction and
    // decode. A mismatch is still asserted in debug builds; release
    // builds degrade — empty slice for the shared accessors, kind
    // normalization for the mutable ones — instead of aborting a
    // query-reachable path over decoded disk nodes.

    #[allow(dead_code)] // node API symmetry; exercised indirectly
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        debug_assert!(matches!(self.kind, NodeKind::Leaf(_)), "entries() on internal node");
        match &self.kind {
            NodeKind::Leaf(e) => e,
            NodeKind::Internal(_) => &[],
        }
    }

    #[inline]
    pub fn entries_mut(&mut self) -> &mut Vec<Entry> {
        debug_assert!(
            matches!(self.kind, NodeKind::Leaf(_)),
            "entries_mut() on internal node"
        );
        if !matches!(self.kind, NodeKind::Leaf(_)) {
            self.kind = NodeKind::Leaf(Vec::new());
        }
        match &mut self.kind {
            NodeKind::Leaf(e) => e,
            NodeKind::Internal(_) => kind_mismatch(),
        }
    }

    #[inline]
    pub fn branches(&self) -> &[Branch] {
        debug_assert!(
            matches!(self.kind, NodeKind::Internal(_)),
            "branches() on leaf node"
        );
        match &self.kind {
            NodeKind::Internal(b) => b,
            NodeKind::Leaf(_) => &[],
        }
    }

    #[inline]
    pub fn branches_mut(&mut self) -> &mut Vec<Branch> {
        debug_assert!(
            matches!(self.kind, NodeKind::Internal(_)),
            "branches_mut() on leaf node"
        );
        if !matches!(self.kind, NodeKind::Internal(_)) {
            self.kind = NodeKind::Internal(Vec::new());
        }
        match &mut self.kind {
            NodeKind::Internal(b) => b,
            NodeKind::Leaf(_) => kind_mismatch(),
        }
    }
}
