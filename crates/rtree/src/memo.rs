//! The per-query node memo: the nodes one search has already read.
//!
//! A best-first NWC search reads most nodes near the query twice: once
//! when the traversal expands them, and again when a window query
//! descends through them to collect a search region's neighbours. A
//! [`NodeMemo`] keeps a handle on every node the search has read at a
//! charged access, and a window query run through it
//! ([`RStarTree::try_window_query_memo_into`]) reads a memoised node
//! from the memo instead of the tree: no node access is charged and, on
//! a disk-backed tree, the buffer pool is not consulted at all.
//!
//! What the memo holds depends on the backend:
//!
//! - on an arena tree, only the node id: the node itself stays where the
//!   tree keeps it;
//! - on a disk-backed tree, the decoded node (`Arc`), never the page
//!   guard. A guard pins its frame, and a search reads far more nodes
//!   than a small pool has frames; the decoded node outlives eviction
//!   of its page instead.
//!
//! A memo serves one tree for one search. Clear it when the search
//! ends: that drops every node handle (decoded nodes would otherwise pile
//! up beyond the pool) and keeps the map's storage for the next search,
//! so a warm search allocates nothing. Used with another tree, a memo
//! forgets what it held first.

use crate::node::Node;
use crate::tree::{NodeRef, RStarTree, TreeError};
use crate::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Multiplicative (Fibonacci) hasher for [`NodeId`] keys. The memo is
/// probed once per node a window query reaches, where SipHash would
/// show in profiles. Node ids are assigned by the tree itself (arena
/// slots and page numbers, never query input), so one multiply spreads
/// them well enough and collision resistance buys nothing.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
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

/// The nodes one search has read, by id (see the module docs).
#[derive(Default)]
pub struct NodeMemo {
    /// Address of the tree the held nodes belong to; 0 while empty.
    tree: usize,
    /// Per read node: its decoded node on a disk-backed tree, `None` on
    /// an arena tree (which holds the node itself).
    nodes: HashMap<NodeId, Option<Arc<Node>>, BuildHasherDefault<IdHasher>>,
}

impl NodeMemo {
    /// An empty memo. The first search through it allocates; later ones
    /// reuse the grown map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every node and drops every node handle, keeping the
    /// map's storage.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.tree = 0;
    }

    /// Number of nodes held.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the memo holds no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node slots the map retains (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Binds the memo to `tree`, forgetting the nodes of any other tree.
    fn bind(&mut self, tree: &RStarTree) {
        let addr = std::ptr::from_ref(tree) as usize;
        if self.tree != addr {
            self.nodes.clear();
            self.tree = addr;
        }
    }

    /// Records a node `tree` has just read at a charged access.
    pub(crate) fn remember(&mut self, tree: &RStarTree, id: NodeId, node: &NodeRef<'_>) {
        self.bind(tree);
        let held = match node {
            NodeRef::Arena(_) => None,
            NodeRef::Paged(paged) => Some(paged.arc()),
        };
        self.nodes.insert(id, held);
    }

    /// Node `id` of the bound tree: from the memo, uncharged, when held;
    /// else read from the tree at a charged access and remembered.
    fn read<'t>(&mut self, tree: &'t RStarTree, id: NodeId) -> Result<Held<'t>, TreeError> {
        match self.nodes.get(&id) {
            Some(Some(node)) => return Ok(Held::Memo(Arc::clone(node))),
            Some(None) => return Ok(Held::Tree(tree.try_peek_node(id)?)),
            None => {}
        }
        let node = tree.try_read_node(id)?;
        self.remember(tree, id, &node);
        Ok(Held::Tree(node))
    }
}

/// A node a window query descends through: the tree's own guard, or a
/// decoded node handed out by a memo.
pub(crate) enum Held<'t> {
    /// Read from the tree (arena borrow or pinned page).
    Tree(NodeRef<'t>),
    /// Held by a memo (disk-backed tree).
    Memo(Arc<Node>),
}

impl Deref for Held<'_> {
    type Target = Node;
    #[inline]
    fn deref(&self) -> &Node {
        match self {
            Held::Tree(node) => node,
            Held::Memo(node) => node,
        }
    }
}

/// Reads node `id` of `tree` through `memo` when one is given, else
/// straight from the tree at a charged access.
#[inline]
pub(crate) fn read_through<'t>(
    tree: &'t RStarTree,
    memo: Option<&mut NodeMemo>,
    id: NodeId,
) -> Result<Held<'t>, TreeError> {
    match memo {
        Some(memo) => memo.read(tree, id),
        None => Ok(Held::Tree(tree.try_read_node(id)?)),
    }
}

impl RStarTree {
    /// As [`RStarTree::try_window_query_into`] — the same entries in the
    /// same order — but descending through `memo`: a node the memo holds
    /// is read from it, uncharged and without a pool lookup; every other
    /// node is read (and charged) as usual and enters the memo. Repeated
    /// with the same memo, a query therefore charges nothing.
    pub fn try_window_query_memo_into(
        &self,
        rect: &nwc_geom::Rect,
        memo: &mut NodeMemo,
        out: &mut Vec<crate::Entry>,
    ) -> Result<(), TreeError> {
        if self.is_empty() {
            return Ok(());
        }
        memo.bind(self);
        self.window_from(self.root, rect, Some(memo), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeParams;
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
    fn memoised_query_matches_plain_and_charges_each_node_once() {
        let points = clustered_points(3000);
        let tree = RStarTree::bulk_load_with_params(&points, TreeParams::with_max_entries(8));
        let mut memo = NodeMemo::new();
        for size in [5.0, 50.0, 500.0] {
            let p = points[123];
            let wq = rect(p.x - size, p.y - size, p.x + size, p.y + size);
            let before = tree.stats().node_reads();
            let plain = tree.window_query(&wq);
            let plain_io = tree.stats().node_reads() - before;

            memo.clear();
            let mut first = Vec::new();
            let before = tree.stats().node_reads();
            tree.try_window_query_memo_into(&wq, &mut memo, &mut first)
                .unwrap();
            assert_eq!(first, plain, "size {size}");
            assert_eq!(tree.stats().node_reads() - before, plain_io, "size {size}");
            assert_eq!(memo.len() as u64, plain_io);
            assert!(
                memo.nodes.values().all(Option::is_none),
                "an arena memo holds ids only"
            );

            let mut again = Vec::new();
            let before = tree.stats().node_reads();
            tree.try_window_query_memo_into(&wq, &mut memo, &mut again)
                .unwrap();
            assert_eq!(again, plain, "size {size}");
            assert_eq!(
                tree.stats().node_reads(),
                before,
                "a repeat charges nothing"
            );
        }
    }

    #[test]
    fn a_memo_forgets_another_trees_nodes() {
        let a = RStarTree::bulk_load(&clustered_points(500));
        let b = RStarTree::bulk_load(&clustered_points(40));
        let all = rect(-1.0, -1.0, 2000.0, 2000.0);
        let mut memo = NodeMemo::new();
        let mut out = Vec::new();
        a.try_window_query_memo_into(&all, &mut memo, &mut out)
            .unwrap();
        assert_eq!(out.len(), 500);
        out.clear();
        let before = b.stats().node_reads();
        b.try_window_query_memo_into(&all, &mut memo, &mut out)
            .unwrap();
        assert_eq!(out.len(), 40);
        assert_eq!(b.stats().node_reads() - before, b.node_count() as u64);
        assert_eq!(memo.len(), b.node_count());
    }
}
