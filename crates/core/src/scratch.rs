//! Reusable per-query working memory.
//!
//! A single NWC search allocates in six places: the best-first frontier
//! heap, the window-query neighbor buffer, the shared leaf neighbourhoods
//! and the node memo of an IWP search, the per-object distance ranking
//! built by the candidate scan, and (for kNWC) the sorted id buffer used
//! to check group identity. All six are sized by the data around the
//! query, not by the answer, so across a query workload the same few
//! buffers are allocated and dropped thousands of times.
//!
//! [`QueryScratch`] owns all of them. Lend one to every
//! [`NwcIndex::search`](crate::NwcIndex::search) and a *warm* query — one whose buffers have reached their workload high-water mark
//! — performs no per-node or per-visited-object heap allocation; the
//! only remaining allocations build the returned result itself.
//!
//! Scratches are cheap to create but meant to live long: one per worker
//! thread (as the [`engine`](crate::engine) does), or one per query loop.
//! A scratch carries no query state between runs — reusing one never
//! changes results or I/O counts, which `tests/engine_equivalence.rs`
//! asserts across every scheme.

use nwc_geom::Rect;
use nwc_rtree::{entries_inside_into, BrowserScratch, Entry, NodeMemo, ObjectId};

/// Reusable buffers for the NWC/kNWC query hot path. See the module
/// docs; obtain one with [`QueryScratch::new`] and pass it to every
/// `search`.
#[derive(Default)]
pub struct QueryScratch {
    /// Best-first frontier heap storage (lives in `nwc-rtree`).
    pub(crate) browser: BrowserScratch,
    /// Window-query results for the object currently being scanned.
    pub(crate) neighbors: Vec<Entry>,
    /// The shared leaf neighbourhoods of an IWP search.
    pub(crate) leaves: Neighbourhoods,
    /// Per tree slot, the nodes an IWP search has read (empty between
    /// searches).
    pub(crate) memos: Vec<NodeMemo>,
    /// Distance ranking `(dist², id, entry)` of the current neighbors.
    pub(crate) by_dist: Vec<(f64, u32, Entry)>,
    /// Sorted object-id buffer for group set-identity checks (kNWC).
    pub(crate) ids: Vec<ObjectId>,
}

impl QueryScratch {
    /// An empty scratch. The first query through it allocates; later
    /// queries reuse the grown buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tree nodes the scratch holds a handle on. Only an IWP search
    /// holds any, and it drops them all when it returns, so between
    /// queries this is 0 (diagnostics / tests).
    pub fn held_nodes(&self) -> usize {
        self.memos.iter().map(NodeMemo::len).sum()
    }

    /// Total buffer slots currently retained across all buffers
    /// (diagnostics / tests; counts capacity, not live contents).
    pub fn retained_capacity(&self) -> usize {
        self.browser.heap_capacity()
            + self.neighbors.capacity()
            + self.leaves.retained_capacity()
            + self.memos.iter().map(NodeMemo::capacity).sum::<usize>()
            + self.by_dist.capacity()
            + self.ids.capacity()
    }
}

/// Marks a leaf whose neighbourhood is not held in the pool.
const UNFETCHED: u32 = u32::MAX;

/// The shared leaf neighbourhoods of one IWP search (DESIGN.md §4m).
///
/// Per leaf the search expanded, in the browser's `leaf_visit` order, it
/// keeps the leaf's MBR and, once the first of the leaf's objects needs
/// its search region answered, the leaf's *neighbourhood*: every entry
/// inside the DEP extension of the leaf MBR, sorted by `(y, id)`. That
/// region contains the search region of every object of the leaf, so
/// each later object of the leaf slices its region out of the list
/// instead of running a window query. A neighbourhood goes back to the
/// pool once the leaf's last object has been popped, so the pool holds
/// only the neighbourhoods of leaves still on the search frontier.
#[derive(Default)]
pub(crate) struct Neighbourhoods {
    /// Per expanded leaf: its MBR and the pool buffer holding its
    /// neighbourhood (`UNFETCHED` before the fetch and after release).
    leaves: Vec<(Rect, u32)>,
    /// Neighbourhood buffers, each bound to one leaf or free.
    pool: Vec<Vec<Entry>>,
    /// Indices of the free buffers in `pool`.
    free: Vec<u32>,
}

impl Neighbourhoods {
    /// Starts a search: forgets every leaf and frees every buffer.
    pub(crate) fn begin(&mut self) {
        self.leaves.clear();
        self.free.clear();
        self.free.extend((0..self.pool.len() as u32).rev());
    }

    /// Records the next expanded leaf and its MBR.
    pub(crate) fn expanded(&mut self, mbr: Rect) {
        self.leaves.push((mbr, UNFETCHED));
    }

    /// The neighbourhood of the leaf expanded as `visit`. The first call
    /// for a leaf fills a free pool buffer with `fetch(leaf_mbr, buffer)`
    /// and sorts it. `None` when `visit` names no recorded leaf.
    pub(crate) fn get_or_fetch<E>(
        &mut self,
        visit: u32,
        fetch: impl FnOnce(&Rect, &mut Vec<Entry>) -> Result<(), E>,
    ) -> Result<Option<&[Entry]>, E> {
        let Some(leaf) = self.leaves.get_mut(visit as usize) else {
            return Ok(None);
        };
        if leaf.1 == UNFETCHED {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.pool.push(Vec::new());
                self.pool.len() as u32 - 1
            });
            let out = &mut self.pool[slot as usize];
            out.clear();
            fetch(&leaf.0, out)?;
            out.sort_unstable_by(|a, b| a.point.y.total_cmp(&b.point.y).then(a.id.cmp(&b.id)));
            leaf.1 = slot;
        }
        Ok(Some(&self.pool[leaf.1 as usize]))
    }

    /// Returns the neighbourhood of the leaf expanded as `visit` to the
    /// pool; no object of the leaf will ask for it again.
    pub(crate) fn release(&mut self, visit: u32) {
        if let Some(leaf) = self.leaves.get_mut(visit as usize) {
            if leaf.1 != UNFETCHED {
                self.free.push(leaf.1);
                leaf.1 = UNFETCHED;
            }
        }
    }

    fn retained_capacity(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum::<usize>()
            + self.leaves.capacity()
            + self.free.capacity()
    }
}

/// Appends the entries of the `(y, id)`-sorted `neighbourhood` that lie
/// inside the closed rectangle `region`: the window query of `region`
/// whenever the neighbourhood's region contains it. The output stays
/// sorted by `y`.
pub(crate) fn slice_region(neighbourhood: &[Entry], region: &Rect, out: &mut Vec<Entry>) {
    let lo = neighbourhood.partition_point(|e| e.point.y < region.min.y);
    let band = &neighbourhood[lo..];
    let hi = band.partition_point(|e| e.point.y <= region.max.y);
    entries_inside_into(&band[..hi], region, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_reports_capacity() {
        let mut s = QueryScratch::new();
        assert_eq!(s.retained_capacity(), 0);
        s.neighbors.reserve(16);
        assert!(s.retained_capacity() >= 16);
    }
}
