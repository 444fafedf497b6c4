//! Fixed-size disk-page serialization of the tree.
//!
//! The paper configures its R\*-tree with "the page size set to 4096
//! bytes" and at most 50 entries per node, and measures I/O as page
//! reads. Every node serializes into one fixed [`PAGE_SIZE`]-byte page;
//! [`RStarTree::save_to_path`](crate::RStarTree::save_to_path) writes
//! the pages in clustered order and the open scan in [`crate::disk`]
//! decodes them one at a time with the same per-page decoder the
//! buffer pool uses.
//!
//! # Page layout (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       1     tag: 0 = leaf, 1 = internal
//! 1       4     level (u32)
//! 5       4     entry count (u32)
//! 9       32    node MBR (4 × f64: min.x, min.y, max.x, max.y)
//! 41      …     entries
//! ```
//!
//! Leaf entries are 20 bytes (`u32` id + 2 × `f64`); internal entries
//! are 36 bytes (`u32` child page + 4 × `f64` child MBR). 50 internal
//! entries need `41 + 50·36 = 1841 ≤ 4096` bytes, so the paper's fanout
//! fits with room to spare; a full page of either kind still leaves the
//! last 4 bytes free for the page store's CRC trailer.
//!
//! # Page order
//!
//! Page ids are assigned by a pre-order walk from the root that visits
//! each node's children in Hilbert-curve order of their MBR centers: a
//! level-1 node's leaves occupy the consecutive page ids right after
//! it, and spatially nearby subtrees land on nearby page ranges. The
//! order only relabels pages — every node's branch array keeps its
//! arena order — so traversal order, logical I/O and LRU behavior do
//! not depend on it.

use crate::node::{Branch, Node, NodeKind};
use crate::tree::RStarTree;
use crate::{Entry, NodeId};
use nwc_geom::{Point, Rect};
use std::collections::HashMap;

/// The simulated disk page size (bytes), as in the paper.
pub const PAGE_SIZE: usize = 4096;

// The page codec here and the page store underneath must agree on the
// page size; a drift would corrupt every file.
const _: () = assert!(PAGE_SIZE == nwc_store::PAGE_SIZE);

const HEADER: usize = 1 + 4 + 4 + 32;
const LEAF_ENTRY: usize = 4 + 16;
const INTERNAL_ENTRY: usize = 4 + 32;

/// Maximum entries per page for each node kind at [`PAGE_SIZE`].
pub fn page_capacity_leaf() -> usize {
    (PAGE_SIZE - HEADER) / LEAF_ENTRY
}
/// See [`page_capacity_leaf`].
pub fn page_capacity_internal() -> usize {
    (PAGE_SIZE - HEADER) / INTERNAL_ENTRY
}

/// An error produced while reading a page file.
///
/// Decoding is total: any byte sequence either reconstructs a valid
/// tree or returns one of these variants. In particular a corrupt file
/// can never send the open scan into unbounded recursion or allocation
/// — child pointers forming a cycle (or a DAG: two parents sharing a
/// page) are rejected via [`PageError::Cycle`].
#[derive(Debug, PartialEq, Eq)]
pub enum PageError {
    /// The page tag byte was neither 0 nor 1.
    BadTag(u8),
    /// A child pointer referenced a page beyond the file.
    DanglingChild(u32),
    /// The file is empty or the root page id is out of range.
    BadRoot,
    /// Entry count exceeds what fits in a page.
    Overflow(u32),
    /// A page was referenced as a child more than once: the pointer
    /// graph is not a tree.
    Cycle(u32),
    /// A structural invariant does not hold (level mismatch, leaf at a
    /// nonzero level, childless internal node, …).
    Invalid(&'static str),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::BadTag(t) => write!(f, "invalid page tag {t}"),
            PageError::DanglingChild(p) => write!(f, "dangling child page {p}"),
            PageError::BadRoot => write!(f, "invalid root page"),
            PageError::Overflow(n) => write!(f, "page entry count {n} exceeds capacity"),
            PageError::Cycle(p) => write!(f, "page {p} referenced by more than one parent"),
            PageError::Invalid(what) => write!(f, "structurally invalid page file: {what}"),
        }
    }
}

impl std::error::Error for PageError {}

impl RStarTree {
    /// Encodes every node into one page, in clustered page order (see
    /// the module docs). Returns the root's page id and the pages.
    /// Node access goes through `peek_node` (uncharged), so a
    /// disk-backed tree can be re-serialized too. The caller checks
    /// that the fanout fits a page.
    pub(crate) fn encode_pages(&self) -> (u32, Vec<[u8; PAGE_SIZE]>) {
        // Pre-assign every node's page id, then encode: parents embed
        // child page ids, so ids must be known before any encoding.
        let order = self.clustered_order();
        let page_of: HashMap<NodeId, u32> =
            order.iter().zip(0u32..).map(|(&id, page)| (id, page)).collect();
        // Every reachable node got a page above, so the fallback (a
        // dangling pointer the open scan would reject) is never taken.
        let child_page = |child: NodeId| page_of.get(&child).copied().unwrap_or(u32::MAX);
        let pages = order
            .iter()
            .map(|&id| encode_node(&self.peek_node(id), child_page))
            .collect();
        (0, pages)
    }

    /// The nodes in page order: pre-order DFS from the root, visiting
    /// each node's children in Hilbert-curve order of their MBR centers
    /// (normalized to the root MBR). The root is page 0, a level-1
    /// node's leaves land on consecutive page ids, and spatially
    /// adjacent subtrees land on adjacent page ranges.
    fn clustered_order(&self) -> Vec<NodeId> {
        let root = self.root();
        let frame = self.peek_node(root).mbr;
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = vec![root];
        while let Some(id) = stack.pop() {
            order.push(id);
            if let NodeKind::Internal(branches) = &self.peek_node(id).kind {
                let mut kids: Vec<(u64, NodeId)> = branches
                    .iter()
                    .map(|b| (hilbert_key(&frame, &b.mbr), b.child))
                    .collect();
                // Descending sort: the stack pops the smallest key —
                // i.e. the curve-first child and its subtree — next.
                kids.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.index().cmp(&a.1.index())));
                stack.extend(kids.into_iter().map(|(_, child)| child));
            }
        }
        order
    }
}

/// Bits per axis of the Hilbert grid: 2^16 cells per side is far finer
/// than any fanout-50 tree's MBR population, so ties are rare and the
/// curve order is effectively exact.
const HILBERT_ORDER: u32 = 16;

/// The Hilbert-curve index of `r`'s center within `frame` (normalized
/// to a `2^HILBERT_ORDER`-per-side grid). Degenerate frames (zero
/// extent, or the inverted MBR of an empty node) collapse an axis to
/// the grid midline rather than producing garbage.
fn hilbert_key(frame: &Rect, r: &Rect) -> u64 {
    let side = 1u32 << HILBERT_ORDER;
    let cell = |lo: f64, extent: f64, v: f64| -> u32 {
        let f = if extent > 0.0 && extent.is_finite() {
            ((v - lo) / extent).clamp(0.0, 1.0)
        } else {
            0.5
        };
        // `as` saturates, and NaN maps to 0 — both acceptable here: the
        // key only orders siblings.
        (f * (side - 1) as f64) as u32
    };
    let c = r.center();
    let x = cell(frame.min.x, frame.width(), c.x);
    let y = cell(frame.min.y, frame.height(), c.y);
    hilbert_d(side, x, y)
}

/// Classic xy→d Hilbert mapping for an `n × n` grid (`n` a power of
/// two): the index of cell `(x, y)` along the curve.
fn hilbert_d(n: u32, mut x: u32, mut y: u32) -> u64 {
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant so the curve stays continuous.
        if ry == 0 {
            if rx == 1 {
                x = (n - 1).wrapping_sub(x);
                y = (n - 1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

fn put_f64(buf: &mut [u8], off: &mut usize, v: f64) {
    buf[*off..*off + 8].copy_from_slice(&v.to_le_bytes());
    *off += 8;
}
fn put_u32(buf: &mut [u8], off: &mut usize, v: u32) {
    buf[*off..*off + 4].copy_from_slice(&v.to_le_bytes());
    *off += 4;
}
fn put_rect(buf: &mut [u8], off: &mut usize, r: &Rect) {
    put_f64(buf, off, r.min.x);
    put_f64(buf, off, r.min.y);
    put_f64(buf, off, r.max.x);
    put_f64(buf, off, r.max.y);
}

/// The error for a read past the end of the page buffer. Unreachable
/// for a whole page (counts are capped at the page capacity first);
/// a short buffer is rejected rather than indexed out of bounds.
const SHORT_PAGE: PageError = PageError::Invalid("page buffer shorter than its entries");

fn get_bytes<const N: usize>(buf: &[u8], off: &mut usize) -> Result<[u8; N], PageError> {
    let bytes = buf
        .get(*off..*off + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(SHORT_PAGE)?;
    *off += N;
    Ok(bytes)
}
fn get_f64(buf: &[u8], off: &mut usize) -> Result<f64, PageError> {
    get_bytes(buf, off).map(f64::from_le_bytes)
}
fn get_u32(buf: &[u8], off: &mut usize) -> Result<u32, PageError> {
    get_bytes(buf, off).map(u32::from_le_bytes)
}
fn get_rect(buf: &[u8], off: &mut usize) -> Result<Rect, PageError> {
    let min_x = get_f64(buf, off)?;
    let min_y = get_f64(buf, off)?;
    let max_x = get_f64(buf, off)?;
    let max_y = get_f64(buf, off)?;
    Ok(Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y)))
}

/// Encodes `node` into one page; `child_page` maps each branch's child
/// to the page id the parent must point at.
pub(crate) fn encode_node(node: &Node, child_page: impl Fn(NodeId) -> u32) -> [u8; PAGE_SIZE] {
    let mut buf = [0u8; PAGE_SIZE];
    let mut off = 1;
    match &node.kind {
        NodeKind::Leaf(entries) => {
            buf[0] = 0;
            put_u32(&mut buf, &mut off, node.level);
            put_u32(&mut buf, &mut off, entries.len() as u32);
            put_rect(&mut buf, &mut off, &node.mbr);
            for e in entries {
                put_u32(&mut buf, &mut off, e.id);
                put_f64(&mut buf, &mut off, e.point.x);
                put_f64(&mut buf, &mut off, e.point.y);
            }
        }
        NodeKind::Internal(branches) => {
            buf[0] = 1;
            put_u32(&mut buf, &mut off, node.level);
            put_u32(&mut buf, &mut off, branches.len() as u32);
            put_rect(&mut buf, &mut off, &node.mbr);
            for b in branches {
                put_u32(&mut buf, &mut off, child_page(b.child));
                // Child MBR kept in the parent page, as real R-trees
                // do, so a parent fetch suffices to route queries.
                put_rect(&mut buf, &mut off, &b.mbr);
            }
        }
    }
    debug_assert!(off <= PAGE_SIZE - 4, "the page store's CRC trailer must stay free");
    buf
}

/// Decodes a single page into a [`Node`] whose branches reference child
/// **pages** (`NodeId` ≡ page id — the identity a demand-paged tree
/// runs on). Validation is per-page only: tag, level/kind consistency,
/// capacity, and child pointers in `0..n_pages`. Cross-page invariants
/// (acyclicity, level succession, parent-declared MBRs matching child
/// headers) are enforced by the open-time scan in [`crate::disk`].
pub(crate) fn decode_node(buf: &[u8], n_pages: u32) -> Result<Node, PageError> {
    let tag = *buf.first().ok_or(SHORT_PAGE)?;
    let mut off = 1usize;
    let level = get_u32(buf, &mut off)?;
    let count = get_u32(buf, &mut off)?;
    let mbr = get_rect(buf, &mut off)?;
    match tag {
        0 => {
            if level != 0 {
                return Err(PageError::Invalid("leaf page at nonzero level"));
            }
            if count as usize > page_capacity_leaf() {
                return Err(PageError::Overflow(count));
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let id = get_u32(buf, &mut off)?;
                let x = get_f64(buf, &mut off)?;
                let y = get_f64(buf, &mut off)?;
                entries.push(Entry::new(id, Point::new(x, y)));
            }
            let mut node = Node::new_leaf();
            node.kind = NodeKind::Leaf(entries);
            node.mbr = mbr;
            Ok(node)
        }
        1 => {
            if level == 0 {
                return Err(PageError::Invalid("internal page at level 0"));
            }
            if count == 0 {
                return Err(PageError::Invalid("internal page with no children"));
            }
            if count as usize > page_capacity_internal() {
                return Err(PageError::Overflow(count));
            }
            let mut branches = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let child_page = get_u32(buf, &mut off)?;
                let child_mbr = get_rect(buf, &mut off)?;
                if child_page >= n_pages {
                    return Err(PageError::DanglingChild(child_page));
                }
                branches.push(Branch {
                    child: NodeId(child_page),
                    mbr: child_mbr,
                });
            }
            let mut node = Node::new_internal(level);
            node.kind = NodeKind::Internal(branches);
            node.mbr = mbr;
            Ok(node)
        }
        t => Err(PageError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    fn sample_tree(n: usize) -> RStarTree {
        let pts: Vec<Point> = (0..n)
            .map(|i| pt(((i * 31) % 499) as f64, ((i * 57) % 491) as f64))
            .collect();
        RStarTree::bulk_load(&pts)
    }

    #[test]
    fn capacities_admit_paper_fanout() {
        assert!(page_capacity_leaf() >= 50, "{}", page_capacity_leaf());
        assert!(page_capacity_internal() >= 50, "{}", page_capacity_internal());
    }

    #[test]
    fn full_pages_leave_the_crc_trailer_free() {
        assert!(HEADER + page_capacity_leaf() * LEAF_ENTRY <= PAGE_SIZE - 4);
        assert!(HEADER + page_capacity_internal() * INTERNAL_ENTRY <= PAGE_SIZE - 4);
    }

    #[test]
    fn hilbert_curve_is_a_bijective_unit_step_walk() {
        let n = 8u32;
        let mut cells = vec![None; (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                let d = hilbert_d(n, x, y) as usize;
                assert!(cells[d].is_none(), "index {d} assigned twice");
                cells[d] = Some((x, y));
            }
        }
        for w in cells.windows(2) {
            let (x0, y0) = w[0].unwrap();
            let (x1, y1) = w[1].unwrap();
            assert_eq!(
                x0.abs_diff(x1) + y0.abs_diff(y1),
                1,
                "consecutive curve cells must be grid neighbors"
            );
        }
    }

    #[test]
    fn clustered_order_packs_sibling_leaves() {
        let tree = sample_tree(3000);
        assert!(tree.height() >= 2, "need internal levels to exercise the order");
        let (root, pages) = tree.encode_pages();
        assert_eq!(pages.len(), tree.node_count());
        assert_eq!(root, 0, "pre-order assigns the root page 0");

        // A level-1 node's leaves occupy the consecutive page-id range
        // right after their parent.
        let n_pages = pages.len() as u32;
        let mut level1 = 0;
        for (page, bytes) in (0u32..).zip(&pages) {
            let node = decode_node(bytes, n_pages).unwrap();
            if node.level != 1 {
                continue;
            }
            level1 += 1;
            if let NodeKind::Internal(branches) = &node.kind {
                let mut kids: Vec<u32> = branches.iter().map(|b| b.child.index() as u32).collect();
                kids.sort_unstable();
                assert_eq!(kids[0], page + 1, "first leaf follows its parent");
                for w in kids.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "sibling leaves must be contiguous");
                }
            }
        }
        assert!(level1 > 1, "tree too small to check clustering");
    }

    #[test]
    fn decoded_pages_match_the_encoded_nodes() {
        let tree = sample_tree(500);
        let (root, pages) = tree.encode_pages();
        let n_pages = pages.len() as u32;
        let node = decode_node(&pages[root as usize], n_pages).unwrap();
        assert_eq!(node.level, tree.height() as u32 - 1);
        assert_eq!(node.mbr, tree.peek_node(tree.root()).mbr);
        let leaves = pages
            .iter()
            .map(|p| decode_node(p, n_pages).unwrap())
            .filter_map(|n| match n.kind {
                NodeKind::Leaf(entries) => Some(entries.len()),
                NodeKind::Internal(_) => None,
            })
            .sum::<usize>();
        assert_eq!(leaves, tree.len());
    }

    #[test]
    fn corrupted_tag_and_count_detected() {
        let tree = sample_tree(500);
        let (root, pages) = tree.encode_pages();
        let n_pages = pages.len() as u32;
        let mut bad = pages[root as usize];
        bad[0] = 7;
        assert_eq!(decode_node(&bad, n_pages).unwrap_err(), PageError::BadTag(7));
        let mut bad = pages[root as usize];
        // Overwrite the entry count with an impossible value.
        bad[5..9].copy_from_slice(&10_000u32.to_le_bytes());
        assert_eq!(decode_node(&bad, n_pages).unwrap_err(), PageError::Overflow(10_000));
    }

    #[test]
    fn short_buffers_are_typed_errors() {
        let tree = sample_tree(500);
        let (root, pages) = tree.encode_pages();
        let page = &pages[root as usize];
        for len in [0, 1, 20, HEADER, HEADER + 10] {
            assert_eq!(decode_node(&page[..len], 1000).unwrap_err(), SHORT_PAGE, "len {len}");
        }
    }
}
