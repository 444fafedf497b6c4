//! The query index: R\*-tree + density grid.

use nwc_geom::{Point, Rect};
use nwc_grid::{DensityGrid, DEFAULT_GRID_CELL};
use nwc_rtree::{
    DiskError, DiskOptions, DiskReadError, PageStore, RStarTree, RetryPolicy, TreeError,
    TreeParams, PAGE_SIZE,
};
use std::path::Path;

/// Construction options for an [`NwcIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// R\*-tree shape (default: the paper's 50 entries per node).
    pub tree_params: TreeParams,
    /// Density-grid cell size (default [`DEFAULT_GRID_CELL`], 12.5 / 3).
    /// In the normalized 10,000-wide space the default builds a dense
    /// grid of 12.5-unit cells, half the paper's 25 (see
    /// [`nwc_grid::PAPER_GRID_CELL`]), so each nests in a paper cell and
    /// DEP's node bounds are never looser; each occupied cell is refined
    /// into 3 × 3 sub-cells for the search-region bound. Any cell of 12.5
    /// or more builds no refined level, and a cell finer than the
    /// refinement reaches is clamped to it
    /// ([`DensityGrid::from_cell_size`]). `None`, or a cell that is not
    /// a positive finite number, skips building the grid (DEP then
    /// prunes nothing).
    pub grid_cell_size: Option<f64>,
    /// `true` (default) bulk-loads with STR; `false` builds by repeated
    /// R\* insertion, as the original Java implementation would.
    pub bulk_load: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            tree_params: TreeParams::default(),
            grid_cell_size: Some(DEFAULT_GRID_CELL),
            bulk_load: true,
        }
    }
}

/// Options for opening a disk-backed index ([`NwcIndex::open_disk`]).
#[derive(Clone, Copy, Debug)]
pub struct DiskIndexConfig {
    /// Buffer pool capacity in pages; `None` = unbounded (every page
    /// faults in once and stays resident). `Some(0)` is raised to one
    /// frame.
    pub pool_capacity: Option<usize>,
    /// Upper bound on the tree's resident memory, in bytes; `None` =
    /// no budget. Converted into a pool capacity at 2 × [`PAGE_SIZE`]
    /// per frame (a frame holds one decoded node; its in-memory size is
    /// budgeted at two pages) and combined with
    /// [`DiskIndexConfig::pool_capacity`] by taking the smaller, never
    /// below one frame.
    pub memory_budget_bytes: Option<u64>,
    /// Density-grid cell size, as in [`IndexConfig::grid_cell_size`].
    /// The grid is rebuilt in memory from the stored points.
    pub grid_cell_size: Option<f64>,
    /// How page reads behave under transient failures (default: 4
    /// attempts with bounded exponential backoff; see [`RetryPolicy`]).
    /// Exhausting the budget quarantines the page and surfaces a typed
    /// error through the `try_*` query APIs.
    pub retry: RetryPolicy,
}

impl Default for DiskIndexConfig {
    fn default() -> Self {
        DiskIndexConfig {
            pool_capacity: None,
            memory_budget_bytes: None,
            grid_cell_size: Some(DEFAULT_GRID_CELL),
            retry: RetryPolicy::default(),
        }
    }
}

impl DiskIndexConfig {
    /// The pool capacity actually used: the stricter of the explicit
    /// capacity and the memory budget (at 2 × [`PAGE_SIZE`] resident
    /// bytes per frame), never below one frame; `None` when neither
    /// bounds the pool.
    pub fn effective_pool_capacity(&self) -> Option<usize> {
        let budget_frames = self
            .memory_budget_bytes
            .map(|bytes| usize::try_from(bytes / (2 * PAGE_SIZE as u64)).unwrap_or(usize::MAX));
        match (self.pool_capacity, budget_frames) {
            (None, None) => None,
            (cap, budget) => {
                Some(cap.unwrap_or(usize::MAX).min(budget.unwrap_or(usize::MAX)).max(1))
            }
        }
    }

    /// The tree-layer options this configuration resolves to.
    fn disk_options(&self) -> DiskOptions {
        DiskOptions {
            pool_capacity: self.effective_pool_capacity(),
            retry: self.retry,
        }
    }
}

/// An error produced by [`NwcIndex::open_disk`].
#[derive(Debug)]
pub enum IndexOpenError {
    /// The page file could not be opened or decoded.
    Disk(DiskError),
    /// The file holds a valid but empty tree; an index needs at least
    /// one object.
    EmptyDataset,
}

impl std::fmt::Display for IndexOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexOpenError::Disk(e) => write!(f, "{e}"),
            IndexOpenError::EmptyDataset => write!(f, "page file holds an empty tree"),
        }
    }
}

impl std::error::Error for IndexOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexOpenError::Disk(e) => Some(e),
            IndexOpenError::EmptyDataset => None,
        }
    }
}

impl From<DiskError> for IndexOpenError {
    fn from(e: DiskError) -> Self {
        IndexOpenError::Disk(e)
    }
}

/// An error produced by [`NwcIndex::insert`] / [`NwcIndex::remove`].
#[derive(Debug, PartialEq, Eq)]
pub enum IndexUpdateError {
    /// The index is disk-backed over a store with no write path (a
    /// read-only backend, or a page file opened without write
    /// permission). Reopen the file with write permission to mutate it
    /// on disk, or rebuild in memory. The index is unchanged.
    ReadOnly,
    /// A page read failed during the update (a writable disk-backed
    /// index faults tree nodes in while descending). The overlay may be
    /// partially updated: drop the index without committing — the page
    /// file still holds the last committed state — and reopen.
    Io(DiskReadError),
    /// The point to insert has a NaN or infinite coordinate. The index
    /// is unchanged.
    NonFinitePoint,
    /// Every `u32` object id has been handed out. The index is
    /// unchanged.
    IdsExhausted,
}

impl std::fmt::Display for IndexUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexUpdateError::ReadOnly => {
                write!(
                    f,
                    "disk-backed index is read-only (its page store has no write path; \
                     reopen the page file with write permission to mutate it)"
                )
            }
            IndexUpdateError::Io(e) => write!(f, "disk read failed: {e}"),
            IndexUpdateError::NonFinitePoint => {
                write!(f, "cannot index a point with a non-finite coordinate")
            }
            IndexUpdateError::IdsExhausted => write!(f, "every u32 object id is in use"),
        }
    }
}

impl std::error::Error for IndexUpdateError {}

impl From<TreeError> for IndexUpdateError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::ReadOnly => IndexUpdateError::ReadOnly,
            TreeError::Io(e) => IndexUpdateError::Io(e),
            // Updates never arm a budget; keep the conversion total by
            // reporting the cancellation as a page-less read failure
            // rather than panicking.
            TreeError::Cancelled(kind) => IndexUpdateError::Io(nwc_rtree::DiskReadError {
                page: u32::MAX,
                detail: kind.to_string(),
            }),
        }
    }
}

/// The page order of a saved tree. Every save writes one order —
/// clustered, see [`nwc_rtree::page`] — so this type has one value; it
/// stays only as the argument of [`NwcIndex::save_tree_with_layout`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PageLayout {
    /// Pre-order from the root, children in Hilbert-curve order:
    /// sibling leaves on consecutive pages.
    #[default]
    Clustered,
}

/// An immutable index over a point dataset, ready to answer NWC and kNWC
/// queries under any [`Scheme`](crate::Scheme).
///
/// Owns the paper's R\*-tree `T_P` and the `g × g` density grid of DEP.
/// IWP needs no structure of its own: a search shares what it has
/// already read (DESIGN.md §4m), so the paper's backward and
/// overlapping pointers are not built.
pub struct NwcIndex {
    points: Vec<Point>,
    /// Liveness per id — `false` marks objects removed after build.
    live: Vec<bool>,
    live_count: usize,
    bounds: Rect,
    tree: RStarTree,
    grid: Option<DensityGrid>,
}

impl NwcIndex {
    /// Builds the index with default configuration (all structures, so
    /// every scheme is available).
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty or contains non-finite coordinates.
    pub fn build(points: Vec<Point>) -> Self {
        NwcIndex::build_with(points, IndexConfig::default())
    }

    /// Builds with explicit configuration.
    pub fn build_with(points: Vec<Point>, config: IndexConfig) -> Self {
        assert!(!points.is_empty(), "cannot index an empty dataset");
        let bounds = Rect::bounding(points.iter().copied()).expect("non-empty");
        let tree = if config.bulk_load {
            RStarTree::bulk_load_with_params(&points, config.tree_params)
        } else {
            let mut t = RStarTree::with_params(config.tree_params);
            for (i, &p) in points.iter().enumerate() {
                t.insert(i as u32, p)
                    .expect("fresh in-memory tree is never read-only");
            }
            t
        };
        let grid = density_grid(config.grid_cell_size, &bounds, &points);
        NwcIndex {
            live: vec![true; points.len()],
            live_count: points.len(),
            points,
            bounds,
            tree,
            grid,
        }
    }

    /// Builds an index over pre-built entries whose object ids are
    /// assigned by the caller (the sharded index stores **global** ids
    /// in every shard tree, so cross-shard candidate groups merge
    /// without translation). The id → location table is sized by the
    /// largest id; ids absent from `entries` are dead slots, exactly as
    /// after [`NwcIndex::open_disk`] on a tree with removals.
    ///
    /// `config.bulk_load` is ignored (entries always bulk-load: STR's
    /// stable sorts make the result a pure function of the entry
    /// sequence, which the sharded K=1 fast path relies on).
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty or contains non-finite points.
    pub(crate) fn from_entries(entries: Vec<nwc_rtree::Entry>, config: IndexConfig) -> Self {
        assert!(!entries.is_empty(), "cannot index an empty entry set");
        let max_id = entries.iter().map(|e| e.id).max().expect("non-empty") as usize;
        let mut points = vec![Point::new(0.0, 0.0); max_id + 1];
        let mut live = vec![false; max_id + 1];
        for e in &entries {
            assert!(e.point.is_finite(), "cannot index non-finite point {:?}", e.point);
            points[e.id as usize] = e.point;
            live[e.id as usize] = true;
        }
        let live_points: Vec<Point> = entries.iter().map(|e| e.point).collect();
        let bounds = Rect::bounding(live_points.iter().copied()).expect("non-empty");
        let live_count = entries.len();
        let tree = RStarTree::bulk_load_entries(entries, config.tree_params);
        let grid = density_grid(config.grid_cell_size, &bounds, &live_points);
        NwcIndex {
            points,
            live,
            live_count,
            bounds,
            tree,
            grid,
        }
    }

    /// Saves the R\*-tree to an on-disk page file (see
    /// [`RStarTree::save_to_path`]). The density grid is a derived
    /// structure and is rebuilt at open.
    pub fn save_tree(&self, path: impl AsRef<Path>) -> Result<(), DiskError> {
        self.tree.save_to_path(path)
    }

    /// [`NwcIndex::save_tree`]; `layout` has one value. A one-line
    /// adapter wrapper kept for the benchmark, which names it.
    pub fn save_tree_with_layout(
        &self,
        path: impl AsRef<Path>,
        _layout: PageLayout,
    ) -> Result<(), DiskError> {
        self.save_tree(path)
    }

    /// [`NwcIndex::save_tree`]: every saved file is writable. A
    /// one-line adapter wrapper kept for the benchmark, which names it.
    pub fn save_tree_writable(&self, path: impl AsRef<Path>) -> Result<(), DiskError> {
        self.save_tree(path)
    }

    /// Opens a page file written by [`NwcIndex::save_tree`] as a
    /// disk-backed index: node accesses fault pages in through a buffer
    /// pool (misses are physical, checksum-verified page reads; the
    /// pool capacity — possibly tightened by
    /// [`DiskIndexConfig::memory_budget_bytes`] — bounds the resident
    /// decoded nodes). A file opened with write permission accepts
    /// [`NwcIndex::insert`] / [`NwcIndex::remove`], committed durably
    /// through [`NwcIndex::commit`]'s copy-on-write shadow paging (see
    /// [`nwc_rtree::disk`], "Writable mode"); without it they return
    /// [`IndexUpdateError::ReadOnly`].
    ///
    /// The point table, bounds and density grid are reconstructed from the stored tree; none of that setup work is
    /// charged — the index is returned with cold, zeroed I/O and buffer
    /// counters.
    pub fn open_disk(
        path: impl AsRef<Path>,
        config: DiskIndexConfig,
    ) -> Result<NwcIndex, IndexOpenError> {
        let tree = RStarTree::open_from_path_with(path, config.disk_options())?;
        Self::finish_open(tree, config)
    }

    /// As [`NwcIndex::open_disk`], over any [`PageStore`] implementation
    /// — an in-memory store in tests, or a fault-injecting wrapper in
    /// chaos suites. The open path itself has no retry machinery in
    /// front of it; arm rate-based fault plans only after the index is
    /// open.
    pub fn open_disk_from_store(
        store: Box<dyn PageStore>,
        config: DiskIndexConfig,
    ) -> Result<NwcIndex, IndexOpenError> {
        let tree = RStarTree::open_from_store_with(store, config.disk_options())?;
        Self::finish_open(tree, config)
    }

    fn finish_open(tree: RStarTree, config: DiskIndexConfig) -> Result<NwcIndex, IndexOpenError> {
        if tree.is_empty() {
            return Err(IndexOpenError::EmptyDataset);
        }
        // Rebuild the id → location table from the leaves (uncharged).
        let entries: Vec<_> = tree.iter_entries().collect();
        let max_id = entries.iter().map(|e| e.id).max().expect("non-empty") as usize;
        let mut points = vec![Point::new(0.0, 0.0); max_id + 1];
        let mut live = vec![false; max_id + 1];
        for e in &entries {
            points[e.id as usize] = e.point;
            live[e.id as usize] = true;
        }
        let live_points: Vec<Point> = entries.iter().map(|e| e.point).collect();
        let bounds = tree.mbr().expect("non-empty tree has an MBR");
        let grid = density_grid(config.grid_cell_size, &bounds, &live_points);
        // Whatever the derived-structure builds touched, the caller gets
        // a cold index: zero I/O charged, empty buffer pool.
        tree.stats().reset();
        if let Some(storage) = tree.storage() {
            storage.reset();
        }
        Ok(NwcIndex {
            live_count: entries.len(),
            points,
            live,
            bounds,
            tree,
            grid,
        })
    }

    /// The id → location table (object id = position). After removals
    /// this still contains the removed locations; see
    /// [`NwcIndex::is_live`].
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Whether the object with this id is currently indexed.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// Number of live indexed objects.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the index is empty (never true — construction rejects
    /// empty datasets — but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Tight bounding box of the dataset.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The underlying instrumented R\*-tree.
    pub fn tree(&self) -> &RStarTree {
        &self.tree
    }

    /// The DEP density grid, when built.
    pub fn grid(&self) -> Option<&DensityGrid> {
        self.grid.as_ref()
    }

    /// Replaces the density grid with one of a different cell size,
    /// keeping the tree (used by the Figure 9
    /// grid-size sweep, which varies only the grid). The refined level,
    /// if the cell size asks for one, is built afresh too; a cell size
    /// that is not a positive finite number drops the grid.
    pub fn rebuild_grid(&mut self, cell_size: f64) {
        let live_points: Vec<Point> = self
            .points
            .iter()
            .zip(&self.live)
            .filter(|&(_, &alive)| alive)
            .map(|(&p, _)| p)
            .collect();
        self.grid = density_grid(Some(cell_size), &self.bounds, &live_points);
    }

    // ------------------------------------------------------------------
    // Dynamic updates.
    //
    // The NWC paper works over static datasets, but a deployed index
    // must absorb churn (shops open and close). Updates keep the tree
    // (R* insert/delete) and the density grid in sync; every scheme,
    // IWP included, answers from them directly after any write.
    // ------------------------------------------------------------------

    /// Adds an object, returning its id. On a *writable* disk-backed index the tree mutation lands in the
    /// in-memory overlay — call [`NwcIndex::commit`] to make it
    /// durable; on a read-only one this returns
    /// [`IndexUpdateError::ReadOnly`] with every structure untouched.
    /// A non-finite point returns [`IndexUpdateError::NonFinitePoint`]
    /// and a full id space [`IndexUpdateError::IdsExhausted`], both
    /// with the index unchanged.
    pub fn insert(&mut self, point: Point) -> Result<u32, IndexUpdateError> {
        let id = self.check_insert(point)?;
        // The tree mutates first: if it refuses, no derived structure
        // has been touched and the index stays consistent.
        self.tree.insert(id, point)?;
        self.points.push(point);
        self.live.push(true);
        self.live_count += 1;
        self.bounds = self.bounds.expand_to(point);
        if let Some(grid) = &mut self.grid {
            grid.add_point(&point);
        }
        Ok(id)
    }

    /// The id [`NwcIndex::insert`] would give `point`, or the typed
    /// reason it would refuse it — checked before anything mutates.
    pub(crate) fn check_insert(&self, point: Point) -> Result<u32, IndexUpdateError> {
        if !point.is_finite() {
            return Err(IndexUpdateError::NonFinitePoint);
        }
        u32::try_from(self.points.len()).map_err(|_| IndexUpdateError::IdsExhausted)
    }

    /// As [`NwcIndex::insert`], but the object id is assigned by the
    /// caller (the sharded index allocates ids globally so shards never
    /// collide). The id must not be live in this index. The id → point
    /// table grows to cover `id`, leaving any intervening ids dead.
    pub(crate) fn insert_assigned(
        &mut self,
        id: u32,
        point: Point,
    ) -> Result<(), IndexUpdateError> {
        if !point.is_finite() {
            return Err(IndexUpdateError::NonFinitePoint);
        }
        assert!(!self.is_live(id), "id {id} is already live in this shard");
        self.tree.insert(id, point)?;
        if self.points.len() <= id as usize {
            self.points.resize(id as usize + 1, Point::new(0.0, 0.0));
            self.live.resize(id as usize + 1, false);
        }
        self.points[id as usize] = point;
        self.live[id as usize] = true;
        self.live_count += 1;
        self.bounds = self.bounds.expand_to(point);
        if let Some(grid) = &mut self.grid {
            grid.add_point(&point);
        }
        Ok(())
    }

    /// Removes the object with the given id. Returns `Ok(false)` when
    /// the id is unknown or was already removed, and
    /// [`IndexUpdateError::ReadOnly`] — with every structure untouched —
    /// on a read-only disk-backed index (a writable one mutates its
    /// overlay, like [`NwcIndex::insert`]).
    pub fn remove(&mut self, id: u32) -> Result<bool, IndexUpdateError> {
        let Some(&point) = self.points.get(id as usize) else {
            return Ok(false);
        };
        if !self.live[id as usize] {
            return Ok(false);
        }
        if !self.tree.delete(id, point)? {
            return Ok(false); // should not happen for a live id
        }
        self.live[id as usize] = false;
        self.live_count -= 1;
        if let Some(grid) = &mut self.grid {
            grid.remove_point(&point);
        }
        Ok(true)
    }

    /// Durably commits every pending [`NwcIndex::insert`] /
    /// [`NwcIndex::remove`] of a *writable* disk-backed index: dirty
    /// tree nodes are shadow-paged to disk and the committed root flips
    /// atomically (see [`nwc_rtree::RStarTree::commit`]). A crash at
    /// any point leaves the page file opening as exactly the old or the
    /// new tree. No-op `Ok` on an in-memory index and on a clean tree;
    /// [`IndexUpdateError::ReadOnly`] on a read-only disk-backed index.
    pub fn commit(&mut self) -> Result<(), IndexUpdateError> {
        self.tree.commit().map_err(IndexUpdateError::from)
    }
}

impl std::fmt::Debug for NwcIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NwcIndex")
            .field("len", &self.len())
            .field("tree_height", &self.tree.height())
            .field("grid", &self.grid.as_ref().map(|g| g.cells_per_side()))
            .finish()
    }
}

/// The density grid over `points` at cell size `cell`, covering
/// [`grid_bounds`] of `data_bounds`: `None` when `cell` is `None` or not
/// a positive finite number (DEP is then skipped). Every index kind
/// builds its grid here.
pub(crate) fn density_grid(
    cell: Option<f64>,
    data_bounds: &Rect,
    points: &[Point],
) -> Option<DensityGrid> {
    cell.and_then(|cell| DensityGrid::from_cell_size(grid_bounds(data_bounds), cell, points))
}

/// The grid covers the paper's normalized space when the data fits in
/// it, else the data's own bounding box (slightly inflated so border
/// points fall inside cells, not on the open edge). `pub(crate)` so the
/// sharded index builds its *global* density grid with the same rule.
pub(crate) fn grid_bounds(data_bounds: &Rect) -> Rect {
    let space = Rect::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0));
    if space.contains_rect(data_bounds) {
        space
    } else {
        let pad_x = (data_bounds.width() * 1e-9).max(1e-9);
        let pad_y = (data_bounds.height() * 1e-9).max(1e-9);
        data_bounds.inflate(pad_x, pad_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    fn pts() -> Vec<Point> {
        (0..300)
            .map(|i| pt(((i * 97) % 1000) as f64, ((i * 71) % 1000) as f64))
            .collect()
    }

    #[test]
    fn default_build_has_everything() {
        let idx = NwcIndex::build(pts());
        assert_eq!(idx.len(), 300);
        assert!(idx.grid().is_some());
        nwc_rtree::validate::check_invariants(idx.tree()).unwrap();
    }

    #[test]
    fn lean_build_skips_structures() {
        let cfg = IndexConfig {
            grid_cell_size: None,
            ..Default::default()
        };
        let idx = NwcIndex::build_with(pts(), cfg);
        assert!(idx.grid().is_none());
    }

    #[test]
    fn insertion_build_matches_bulk_contents() {
        let cfg = IndexConfig {
            bulk_load: false,
            ..Default::default()
        };
        let idx = NwcIndex::build_with(pts(), cfg);
        assert_eq!(idx.tree().len(), 300);
        nwc_rtree::validate::check_invariants(idx.tree()).unwrap();
        nwc_rtree::validate::check_fill(idx.tree()).unwrap();
    }

    #[test]
    fn grid_covers_out_of_space_data() {
        let points = vec![pt(-50.0, 0.0), pt(20_000.0, 30_000.0), pt(5.0, 5.0)];
        let idx = NwcIndex::build(points);
        let g = idx.grid().unwrap();
        assert_eq!(g.total_objects(), 3);
        assert_eq!(g.count_upper_bound(&idx.bounds()), 3);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        NwcIndex::build(Vec::new());
    }
}
