//! Fixed-size disk-page serialization of the tree.
//!
//! The paper configures its R\*-tree with "the page size set to 4096
//! bytes" and at most 50 entries per node, and measures I/O as page
//! reads. The in-memory arena stands in for the buffer pool during
//! query processing; this module makes the disk layout itself concrete:
//! every node serializes into one fixed [`PAGE_SIZE`]-byte page, and a
//! whole tree round-trips through a [`PageFile`].
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
//! fits with room to spare (checked by [`TreeParams`]-aware asserts at
//! write time).

use crate::node::{Branch, Node, NodeKind};
use crate::tree::RStarTree;
use crate::{Entry, NodeId, TreeParams};
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
/// can never send the decoder into unbounded recursion or allocation —
/// child pointers forming a cycle (or a DAG: two parents sharing a
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

/// How page ids are assigned to nodes when a tree is serialized.
///
/// The choice relabels pages only: the branch arrays inside every node
/// keep their arena order, so traversal order — and with it the logical
/// I/O reference string — is bit-identical across layouts. What changes
/// is *where* on disk the pages a traversal touches together sit:
/// [`PageLayout::Clustered`] makes the children of one parent occupy
/// consecutive page ids, so the pages a traversal faults in together
/// sit close on disk. (Exactly contiguous for the leaf level, where
/// most faults land — a pre-order DFS places a level-1 node's leaves
/// back to back; higher siblings sit one subtree apart but stay
/// Hilbert-local.)
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PageLayout {
    /// The legacy bottom-up (post-order) assignment: children get lower
    /// ids than their parents, siblings are separated by whole subtrees.
    #[default]
    BottomUp,
    /// Locality-preserving: pre-order DFS from the root, visiting each
    /// node's children in Hilbert-curve order of their MBR centers.
    /// Siblings become consecutive pages, and spatially nearby subtrees
    /// become nearby page ranges.
    Clustered,
}

impl PageLayout {
    /// The on-disk tag persisted in the file header (0 = bottom-up,
    /// matching pre-layout files; 1 = clustered).
    pub fn tag(self) -> u8 {
        match self {
            PageLayout::BottomUp => 0,
            PageLayout::Clustered => 1,
        }
    }

    /// Decodes a persisted tag; `None` for tags from the future.
    pub fn from_tag(tag: u8) -> Option<PageLayout> {
        match tag {
            0 => Some(PageLayout::BottomUp),
            1 => Some(PageLayout::Clustered),
            _ => None,
        }
    }
}

/// A serialized tree: fixed-size pages plus the root page id.
pub struct PageFile {
    pages: Vec<[u8; PAGE_SIZE]>,
    root: u32,
    params: TreeParams,
    layout: PageLayout,
}

impl PageFile {
    /// Wraps raw pages (e.g. read back from a
    /// [`PageStore`](nwc_store::PageStore)) as a decodable page file.
    /// No validation happens here; [`RStarTree::from_page_file`]
    /// rejects corrupt content. The layout is assumed bottom-up; it is
    /// metadata only and does not affect decoding.
    pub fn from_raw_pages(pages: Vec<[u8; PAGE_SIZE]>, root: u32, params: TreeParams) -> PageFile {
        PageFile {
            pages,
            root,
            params,
            layout: PageLayout::BottomUp,
        }
    }

    /// The id-assignment order the file was serialized with.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes of the simulated file.
    pub fn bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// The root page id.
    pub fn root_page(&self) -> u32 {
        self.root
    }

    /// Raw access to one page (for inspection/corruption tests).
    pub fn page(&self, id: u32) -> &[u8; PAGE_SIZE] {
        &self.pages[id as usize]
    }

    /// Mutable raw access (corruption-injection in tests).
    pub fn page_mut(&mut self, id: u32) -> &mut [u8; PAGE_SIZE] {
        &mut self.pages[id as usize]
    }
}

impl RStarTree {
    /// Serializes the tree into fixed-size pages.
    ///
    /// # Panics
    ///
    /// Panics when the tree's `max_entries` exceeds the page capacity
    /// (the paper's 50 always fits).
    pub fn to_page_file(&self) -> PageFile {
        self.to_page_file_with_layout(PageLayout::BottomUp)
    }

    /// As [`RStarTree::to_page_file`], assigning page ids according to
    /// `layout`. Only the id assignment differs between layouts — every
    /// node's content (branch order included) is byte-identical modulo
    /// the embedded child page ids, so queries traverse both files in
    /// the same order.
    ///
    /// # Panics
    ///
    /// Panics when the tree's `max_entries` exceeds the page capacity
    /// (the paper's 50 always fits).
    pub fn to_page_file_with_layout(&self, layout: PageLayout) -> PageFile {
        assert!(
            self.params.max_entries <= page_capacity_leaf().min(page_capacity_internal()),
            "fanout {} does not fit a {PAGE_SIZE}-byte page",
            self.params.max_entries
        );
        // Pre-assign every node's page id, then encode: parents embed
        // child page ids, so ids must be known before any encoding.
        // Node access goes through `peek_node` (uncharged) so a
        // disk-backed tree can be re-serialized too.
        let page_of = match layout {
            PageLayout::BottomUp => self.assign_pages_bottom_up(),
            PageLayout::Clustered => self.assign_pages_clustered(),
        };
        let mut pages: Vec<[u8; PAGE_SIZE]> = vec![[0u8; PAGE_SIZE]; page_of.len()];
        for (&id, &page_id) in &page_of {
            pages[page_id as usize] = encode_node(&self.peek_node(id), &page_of);
        }
        PageFile {
            root: page_of[&self.root()],
            pages,
            params: self.params,
            layout,
        }
    }

    /// Post-order DFS: children get lower page ids than their parents.
    /// This reproduces the pre-layout serialization order exactly, so
    /// old files and [`PageLayout::BottomUp`] files are byte-identical.
    fn assign_pages_bottom_up(&self) -> HashMap<NodeId, u32> {
        let mut page_of: HashMap<NodeId, u32> = HashMap::new();
        let mut next = 0u32;
        let mut stack: Vec<(NodeId, bool)> = vec![(self.root(), false)];
        while let Some((id, expanded)) = stack.pop() {
            if !expanded {
                stack.push((id, true));
                if let NodeKind::Internal(branches) = &self.peek_node(id).kind {
                    for b in branches {
                        stack.push((b.child, false));
                    }
                }
                continue;
            }
            page_of.insert(id, next);
            next += 1;
        }
        page_of
    }

    /// Pre-order DFS from the root, visiting each node's children in
    /// Hilbert-curve order of their MBR centers (normalized to the root
    /// MBR). A level-1 node's leaves land on consecutive page ids, and
    /// spatially adjacent subtrees land on adjacent page ranges.
    fn assign_pages_clustered(&self) -> HashMap<NodeId, u32> {
        let root = self.root();
        let frame = self.peek_node(root).mbr;
        let mut page_of: HashMap<NodeId, u32> = HashMap::new();
        let mut next = 0u32;
        let mut stack: Vec<NodeId> = vec![root];
        while let Some(id) = stack.pop() {
            page_of.insert(id, next);
            next += 1;
            if let NodeKind::Internal(branches) = &self.peek_node(id).kind {
                let mut order: Vec<(u64, NodeId)> = branches
                    .iter()
                    .map(|b| (hilbert_key(&frame, &b.mbr), b.child))
                    .collect();
                // Descending sort: the stack pops the smallest key —
                // i.e. the curve-first child and its subtree — next.
                order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.index().cmp(&a.1.index())));
                for (_, child) in order {
                    stack.push(child);
                }
            }
        }
        page_of
    }

    /// Reconstructs a tree from a page file, rejecting corrupt content
    /// with a typed [`PageError`].
    pub fn from_page_file(file: &PageFile) -> Result<RStarTree, PageError> {
        decode_page_file(file).map(|(tree, _)| tree)
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
fn get_f64(buf: &[u8], off: &mut usize) -> f64 {
    let v = f64::from_le_bytes(buf[*off..*off + 8].try_into().unwrap());
    *off += 8;
    v
}
fn get_u32(buf: &[u8], off: &mut usize) -> u32 {
    let v = u32::from_le_bytes(buf[*off..*off + 4].try_into().unwrap());
    *off += 4;
    v
}

fn put_rect(buf: &mut [u8], off: &mut usize, r: &Rect) {
    put_f64(buf, off, r.min.x);
    put_f64(buf, off, r.min.y);
    put_f64(buf, off, r.max.x);
    put_f64(buf, off, r.max.y);
}
fn get_rect(buf: &[u8], off: &mut usize) -> Rect {
    let min_x = get_f64(buf, off);
    let min_y = get_f64(buf, off);
    let max_x = get_f64(buf, off);
    let max_y = get_f64(buf, off);
    Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y))
}

pub(crate) fn encode_node(node: &Node, page_of: &HashMap<NodeId, u32>) -> [u8; PAGE_SIZE] {
    let mut buf = [0u8; PAGE_SIZE];
    let mut off;
    match &node.kind {
        NodeKind::Leaf(entries) => {
            buf[0] = 0;
            off = 1;
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
            off = 1;
            put_u32(&mut buf, &mut off, node.level);
            put_u32(&mut buf, &mut off, branches.len() as u32);
            put_rect(&mut buf, &mut off, &node.mbr);
            for b in branches {
                put_u32(&mut buf, &mut off, page_of[&b.child]);
                // Child MBR kept in the parent page, as real R-trees
                // do, so a parent fetch suffices to route queries.
                put_rect(&mut buf, &mut off, &b.mbr);
            }
        }
    }
    debug_assert!(off <= PAGE_SIZE);
    buf
}

/// Decodes a single page into a [`Node`] whose branches reference child
/// **pages** (`NodeId` ≡ page id — the identity a demand-paged tree
/// runs on). Validation is per-page only: tag, level/kind consistency,
/// capacity, and child pointers in `0..n_pages`. Cross-page invariants
/// (acyclicity, level succession, parent-declared MBRs matching child
/// headers) are enforced by the open-time scan in [`crate::disk`].
pub(crate) fn decode_node(buf: &[u8], n_pages: u32) -> Result<Node, PageError> {
    let tag = buf[0];
    let mut off = 1usize;
    let level = get_u32(buf, &mut off);
    let count = get_u32(buf, &mut off);
    let mbr = get_rect(buf, &mut off);
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
                let id = get_u32(buf, &mut off);
                let x = get_f64(buf, &mut off);
                let y = get_f64(buf, &mut off);
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
                let child_page = get_u32(buf, &mut off);
                let child_mbr = get_rect(buf, &mut off);
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
            // Disk nodes are immutable after decode: build the SoA MBR
            // view once here so query-time pruning is one kernel call.
            node.build_branch_soa();
            Ok(node)
        }
        t => Err(PageError::BadTag(t)),
    }
}

/// Decodes a whole page file into a fresh tree, additionally returning
/// the `NodeId`-indexed page map (`page_of[node.index()]` = the page the
/// node was decoded from) that disk-backed trees use to route buffer
/// pool requests.
///
/// The walk is iterative — an explicit stack, one placeholder arena slot
/// allocated per discovered child — so adversarial pointer graphs cannot
/// overflow the call stack, and a `node_of` occupancy map rejects any
/// page reachable through two parents (cycles and DAGs) before the walk
/// would revisit it. Entry totals are recomputed from the leaves rather
/// than trusted from a header.
pub(crate) fn decode_page_file(file: &PageFile) -> Result<(RStarTree, Vec<u32>), PageError> {
    let n_pages = file.pages.len();
    if n_pages == 0 || file.root as usize >= n_pages {
        return Err(PageError::BadRoot);
    }
    let mut tree = RStarTree::with_params(file.params);
    // The constructor's empty root leaf doubles as the placeholder for
    // the root page, so the arena ends up with no dead slots.
    let root_id = tree.root();
    let mut node_of: Vec<Option<NodeId>> = vec![None; n_pages];
    node_of[file.root as usize] = Some(root_id);
    let mut len = 0usize;
    // (page to decode, its pre-allocated arena slot, level the parent
    // says it must have — `None` only for the root).
    let mut stack: Vec<(u32, NodeId, Option<u32>)> = vec![(file.root, root_id, None)];
    while let Some((page_id, nid, expected_level)) = stack.pop() {
        let buf = &file.pages[page_id as usize];
        let tag = buf[0];
        let mut off = 1usize;
        let level = get_u32(buf, &mut off);
        let count = get_u32(buf, &mut off);
        let mbr = get_rect(buf, &mut off);
        if expected_level.is_some_and(|exp| exp != level) {
            return Err(PageError::Invalid("child level is not parent level - 1"));
        }
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
                    let id = get_u32(buf, &mut off);
                    let x = get_f64(buf, &mut off);
                    let y = get_f64(buf, &mut off);
                    entries.push(Entry::new(id, Point::new(x, y)));
                }
                len += entries.len();
                let mut node = Node::new_leaf();
                node.kind = NodeKind::Leaf(entries);
                node.mbr = mbr;
                *tree.node_mut(nid) = node;
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
                    let child_page = get_u32(buf, &mut off);
                    let child_mbr = get_rect(buf, &mut off);
                    if child_page as usize >= n_pages {
                        return Err(PageError::DanglingChild(child_page));
                    }
                    if node_of[child_page as usize].is_some() {
                        return Err(PageError::Cycle(child_page));
                    }
                    let child_id = tree.alloc(Node::new_leaf());
                    node_of[child_page as usize] = Some(child_id);
                    stack.push((child_page, child_id, Some(level - 1)));
                    branches.push(Branch {
                        child: child_id,
                        mbr: child_mbr,
                    });
                }
                let mut node = Node::new_internal(level);
                node.kind = NodeKind::Internal(branches);
                node.mbr = mbr;
                *tree.node_mut(nid) = node;
            }
            t => return Err(PageError::BadTag(t)),
        }
    }
    // Every child is decoded by now: the MBR each parent declared for a
    // branch must be the child's own header MBR, or routing decisions
    // made from the parent would diverge from the child's contents.
    for node in &tree.nodes {
        if let NodeKind::Internal(branches) = &node.kind {
            for b in branches {
                if tree.nodes[b.child.index()].mbr != b.mbr {
                    return Err(PageError::Invalid("parent-declared child MBR mismatch"));
                }
            }
        }
    }
    tree.len = len;
    let mut page_of = vec![u32::MAX; tree.nodes.len()];
    for (page, nid) in node_of.iter().enumerate() {
        if let Some(nid) = nid {
            page_of[nid.index()] = page as u32;
        }
    }
    Ok((tree, page_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_invariants;
    use nwc_geom::{pt, rect};

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
    fn roundtrip_preserves_queries() {
        let tree = sample_tree(3000);
        let file = tree.to_page_file();
        assert_eq!(file.page_count(), tree.node_count());
        let back = RStarTree::from_page_file(&file).unwrap();
        check_invariants(&back).unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.height(), tree.height());
        for wq in [
            rect(0.0, 0.0, 100.0, 100.0),
            rect(250.0, 250.0, 260.0, 300.0),
            rect(-5.0, -5.0, 1000.0, 1000.0),
        ] {
            let mut a: Vec<u32> = tree.window_query(&wq).iter().map(|e| e.id).collect();
            let mut b: Vec<u32> = back.window_query(&wq).iter().map(|e| e.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_single_leaf() {
        let tree = sample_tree(5);
        let back = RStarTree::from_page_file(&tree.to_page_file()).unwrap();
        assert_eq!(back.len(), 5);
        check_invariants(&back).unwrap();
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
    fn clustered_layout_roundtrips_and_packs_sibling_leaves() {
        let tree = sample_tree(3000);
        assert!(tree.height() >= 2, "need internal levels to exercise the layout");
        let file = tree.to_page_file_with_layout(PageLayout::Clustered);
        assert_eq!(file.layout(), PageLayout::Clustered);
        assert_eq!(file.page_count(), tree.node_count());
        assert_eq!(file.root_page(), 0, "pre-order assigns the root page 0");

        let back = RStarTree::from_page_file(&file).unwrap();
        check_invariants(&back).unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.height(), tree.height());
        for wq in [
            rect(0.0, 0.0, 100.0, 100.0),
            rect(250.0, 250.0, 260.0, 300.0),
        ] {
            let mut a: Vec<u32> = tree.window_query(&wq).iter().map(|e| e.id).collect();
            let mut b: Vec<u32> = back.window_query(&wq).iter().map(|e| e.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // The layout's promise: a level-1 node's leaves occupy the
        // consecutive page-id range right after their parent.
        let n_pages = file.page_count() as u32;
        let mut level1 = 0;
        for page in 0..n_pages {
            let node = decode_node(file.page(page), n_pages).unwrap();
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
    fn bottom_up_layout_is_unchanged_by_the_layout_seam() {
        // `to_page_file()` must keep producing the exact legacy bytes.
        let tree = sample_tree(700);
        let legacy = tree.to_page_file();
        assert_eq!(legacy.layout(), PageLayout::BottomUp);
        let explicit = tree.to_page_file_with_layout(PageLayout::BottomUp);
        assert_eq!(legacy.root_page(), explicit.root_page());
        assert_eq!(legacy.page_count(), explicit.page_count());
        for p in 0..legacy.page_count() as u32 {
            assert_eq!(legacy.page(p)[..], explicit.page(p)[..], "page {p}");
        }
    }

    #[test]
    fn layout_tags_roundtrip_and_reject_the_future() {
        for layout in [PageLayout::BottomUp, PageLayout::Clustered] {
            assert_eq!(PageLayout::from_tag(layout.tag()), Some(layout));
        }
        assert_eq!(PageLayout::from_tag(2), None);
        assert_eq!(PageLayout::from_tag(255), None);
    }

    #[test]
    fn corrupted_tag_detected() {
        let tree = sample_tree(500);
        let mut file = tree.to_page_file();
        file.page_mut(file.root_page())[0] = 7;
        assert_eq!(
            RStarTree::from_page_file(&file).unwrap_err(),
            PageError::BadTag(7)
        );
    }

    #[test]
    fn corrupted_count_detected() {
        let tree = sample_tree(500);
        let mut file = tree.to_page_file();
        let root = file.root_page();
        // Overwrite the entry count with an impossible value.
        file.page_mut(root)[5..9].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(matches!(
            RStarTree::from_page_file(&file).unwrap_err(),
            PageError::Overflow(10_000)
        ));
    }

    #[test]
    fn file_size_accounting() {
        let tree = sample_tree(3000);
        let file = tree.to_page_file();
        assert_eq!(file.bytes(), file.page_count() * PAGE_SIZE);
        // ~3000 points at 50/leaf ⇒ ~62 pages ≈ 254 KB.
        assert!(file.page_count() >= 60 && file.page_count() <= 75);
    }
}
