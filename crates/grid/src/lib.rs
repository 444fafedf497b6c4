//! The density grid behind density-based pruning (DEP, paper §3.3.3).
//!
//! The object space is divided into a `g × g` grid and each cell stores
//! the number of objects inside it. DEP then upper-bounds the number of
//! objects inside any rectangle by summing the cells the rectangle
//! intersects — if the bound is below the query's `n`, no window inside
//! the rectangle can be qualified, so index nodes can be pruned and
//! window queries cancelled without touching the R\*-tree.
//!
//! The grid keeps two dense levels (DESIGN.md, "Two-level density
//! grid"), plus an optional refined one:
//!
//! - **fine**: one saturating `u8` count per `g × g` cell, summed for
//!   rectangles covering at most 64 cells — every search region at the
//!   paper's windows;
//! - **coarse**: exact `u32` per-row prefix sums over 4 × 4 blocks of
//!   fine cells. A larger rectangle (an extended node MBR) takes its
//!   whole blocks from them, one subtraction per block row, and sums
//!   fine cells only along its edges;
//! - **refined**: the dense levels stop at 800 cells per side.
//!   A finer cell size splits every fine cell into `R × R` saturating
//!   `u8` sub-cells, stored only for the cells occupied at build time
//!   and read only by the search-region bound
//!   ([`DensityGrid::window_upper_bound`]).
//!
//! The paper's cell size is 25 in the normalized `10,000 × 10,000`
//! space (a `400 × 400` grid, ~312 KB at its 2 bytes per cell; see
//! [`PAPER_GRID_CELL`]); Figure 9 sweeps the cell size from 25 to 400.
//! Those grids have no refined level. The library default
//! ([`DEFAULT_GRID_CELL`]) is an `800 × 800` dense grid refined by 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod weight;

pub use weight::WeightGrid;

use nwc_geom::{Point, Rect};
use std::ops::Range;

/// The paper's grid cell size (§5: "the grid cell size is set to 25").
/// The paper-reproduction experiments pin it; the library default is
/// finer.
pub const PAPER_GRID_CELL: f64 = 25.0;

/// The library's default cell size: in the normalized 10,000-wide
/// space, a dense grid of 12.5-unit cells (half the paper's), each
/// refined into 3 × 3 sub-cells.
pub const DEFAULT_GRID_CELL: f64 = 12.5 / 3.0;

/// Most dense cells per side ([`DensityGrid::from_cell_size`]); a finer
/// cell size refines the occupied cells instead.
const MAX_DENSE_CELLS: usize = 800;

/// Largest refinement factor `R`. A finer cell size is clamped to it: the
/// bound gets coarser, the answers stay the same.
pub const MAX_REFINE: usize = 4;

/// Fine cells per side of one coarse block.
const BLOCK: usize = 4;

/// Rectangles covering at most this many fine cells are bounded by
/// summing fine cells; larger ones take their whole blocks from the
/// coarse prefix sums.
const FINE_PATH_CELLS: usize = 64;

/// A fine count at this value means "this many or more": it no longer
/// tracks the cell's exact count.
const SATURATED: u8 = u8::MAX;

/// Longest run of sub-rows [`DensityGrid::window_upper_bound`] slides
/// over; taller windows are bounded by the whole region.
const RUN_ROWS: usize = 128;

/// 64 fine cells' slab flags and the number of slabs before them.
#[derive(Clone, Copy, Debug, Default)]
struct SlabWord {
    bits: u64,
    rank: u32,
}

/// A `g × g` count grid over a bounded object space.
#[derive(Clone, Debug)]
pub struct DensityGrid {
    bounds: Rect,
    cells_per_side: usize,
    /// Refinement factor `R`: sub-cells per fine cell side.
    refine: usize,
    sub_w: f64,
    sub_h: f64,
    /// The last sub-cell index per side, `g·R − 1`, for clamping.
    sub_max: f64,
    /// Row-major fine counts, saturating at [`SATURATED`].
    fine: Vec<u8>,
    /// Coarse blocks per side, `⌈g / BLOCK⌉`.
    blocks_per_side: usize,
    /// Per block row, `blocks_per_side + 1` exclusive prefix sums of
    /// exact block counts: entry `j` holds the objects in blocks `0..j`.
    prefix: Vec<u32>,
    /// One word per 64 fine cells (row-major), flagging the cells that
    /// own a slab; empty when `R = 1`.
    slab_words: Vec<SlabWord>,
    /// Per slab-owning fine cell, in cell order, `R × R` row-major
    /// sub-cell counts saturating at [`SATURATED`].
    slabs: Vec<u8>,
    total: usize,
}

impl DensityGrid {
    /// Builds a grid with `cells_per_side × cells_per_side` cells over
    /// `bounds`, counting `points`, with no refined level.
    ///
    /// Points outside `bounds` are clamped into the border cells, keeping
    /// the grid's counts a valid upper bound for rectangles clipped to
    /// the bounds (the generators in `nwc-datagen` already clamp, so this
    /// is belt-and-braces).
    ///
    /// # Panics
    ///
    /// Panics when `cells_per_side == 0` or `bounds` is degenerate.
    pub fn build(bounds: Rect, cells_per_side: usize, points: &[Point]) -> Self {
        DensityGrid::build_refined(bounds, cells_per_side, 1, points)
    }

    /// As [`build`](Self::build), refining every fine cell that holds a
    /// point into `refine × refine` sub-cells (`refine` is clamped into
    /// `1..=MAX_REFINE`; 1 builds no refined level).
    ///
    /// # Panics
    ///
    /// Panics when `cells_per_side == 0` or `bounds` is degenerate.
    fn build_refined(
        bounds: Rect,
        cells_per_side: usize,
        refine: usize,
        points: &[Point],
    ) -> Self {
        assert!(cells_per_side > 0, "grid needs at least one cell");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid bounds must have positive area"
        );
        let refine = refine.clamp(1, MAX_REFINE);
        let subs = cells_per_side * refine;
        let blocks_per_side = cells_per_side.div_ceil(BLOCK);
        let stride = blocks_per_side + 1;
        let mut grid = DensityGrid {
            bounds,
            cells_per_side,
            refine,
            sub_w: bounds.width() / subs as f64,
            sub_h: bounds.height() / subs as f64,
            sub_max: (subs - 1) as f64,
            fine: vec![0; cells_per_side * cells_per_side],
            blocks_per_side,
            prefix: vec![0; blocks_per_side * stride],
            slab_words: Vec::new(),
            slabs: Vec::new(),
            total: points.len(),
        };
        if refine > 1 {
            grid.slab_words = vec![SlabWord::default(); grid.fine.len().div_ceil(64)];
        }
        // Per point, when refining: its fine cell and its sub-cell's
        // offset in that cell's slab, `cell · 16 + offset` (R² ≤ 16). A
        // refined grid has at most 800² cells, so this fits a `u32`.
        debug_assert!(refine == 1 || cells_per_side <= MAX_DENSE_CELLS);
        let mut placed = Vec::with_capacity(if refine > 1 { points.len() } else { 0 });
        // Block counts go one slot right of their block, so an in-place
        // running sum per row turns them into exclusive prefixes.
        for p in points {
            let (sx, sy) = grid.sub_cell_of(p);
            let (cx, cy) = grid.cell_of((sx, sy));
            let cell = cy * cells_per_side + cx;
            let slot = &mut grid.fine[cell];
            *slot = slot.saturating_add(1);
            grid.prefix[cy / BLOCK * stride + cx / BLOCK + 1] += 1;
            if let Some(word) = grid.slab_words.get_mut(cell / 64) {
                word.bits |= 1 << (cell % 64);
                let offset = (sy - cy * refine) * refine + (sx - cx * refine);
                placed.push((cell * 16 + offset) as u32);
            }
        }
        for row in grid.prefix.chunks_exact_mut(stride) {
            for j in 1..stride {
                row[j] += row[j - 1];
            }
        }
        if refine > 1 {
            grid.fill_slabs(&placed);
        }
        grid
    }

    /// Ranks the slab-owning cells flagged in `slab_words`, then counts
    /// the `placed` points (see [`build_refined`](Self::build_refined))
    /// into their slabs.
    fn fill_slabs(&mut self, placed: &[u32]) {
        let mut slabs = 0u32;
        for word in &mut self.slab_words {
            word.rank = slabs;
            slabs += word.bits.count_ones();
        }
        self.slabs = vec![0; slabs as usize * self.refine * self.refine];
        for &at in placed {
            let at = at as usize;
            if let Some(start) = self.slab_start(at / 16) {
                let i = start + at % 16;
                self.slabs[i] = self.slabs[i].saturating_add(1);
            }
        }
    }

    /// Builds a grid whose cells are `cell_size × cell_size` (the paper's
    /// parameterization: "the grid cell size is set to 25"), or `None`
    /// when `cell_size` is not a positive finite number.
    ///
    /// The requested grid has `g = ⌈side / cell_size⌉` cells per side
    /// over the wider axis. Up to 800 that is the whole grid. Past it,
    /// `R = ⌈g / 800⌉` (at most [`MAX_REFINE`]) and the dense levels have
    /// `⌈g / R⌉` cells per side (at most 800), each occupied one refined into
    /// `R × R` sub-cells. A request finer than that reach is clamped to
    /// it: a coarser bound, the same answers.
    pub fn from_cell_size(bounds: Rect, cell_size: f64, points: &[Point]) -> Option<Self> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return None;
        }
        let side = bounds.width().max(bounds.height());
        // `as` saturates, so an absurdly fine cell stays a large count.
        let cells = (side / cell_size).ceil().max(1.0) as usize;
        let refine = cells.div_ceil(MAX_DENSE_CELLS).clamp(1, MAX_REFINE);
        let dense = cells.div_ceil(refine).min(MAX_DENSE_CELLS);
        Some(DensityGrid::build_refined(bounds, dense, refine, points))
    }

    /// The grid's spatial bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cells per side (`g`) of the dense levels.
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Refinement factor `R` (1 when the grid has no refined level).
    pub fn refinement(&self) -> usize {
        self.refine
    }

    /// Total number of cells (`g²`).
    pub fn cell_count(&self) -> usize {
        self.fine.len()
    }

    /// Total number of counted objects.
    pub fn total_objects(&self) -> usize {
        self.total
    }

    /// Heap footprint in bytes: one byte per fine cell, the coarse
    /// level's `u32` prefix sums, and the refined level — 16 bytes per 64
    /// fine cells for the slab index plus `R²` bytes per slab.
    pub fn bytes(&self) -> usize {
        self.fine.len()
            + self.prefix.len() * std::mem::size_of::<u32>()
            + self.slab_words.len() * std::mem::size_of::<SlabWord>()
            + self.slabs.len()
    }

    /// The sub-cell indices containing point `p` (clamped into the grid).
    fn sub_cell_of(&self, p: &Point) -> (usize, usize) {
        (self.sub_col(p.x), self.sub_row(p.y))
    }

    /// Every fine and sub-cell index derives from these two, so a point
    /// and a rectangle edge at the same coordinate always land in the
    /// same sub-cell and the same fine cell (`sub / R`). Truncation after
    /// clamping is `floor` for the non-negative quotient, without a libm
    /// call.
    fn sub_col(&self, x: f64) -> usize {
        ((x - self.bounds.min.x) / self.sub_w).clamp(0.0, self.sub_max) as usize
    }

    fn sub_row(&self, y: f64) -> usize {
        ((y - self.bounds.min.y) / self.sub_h).clamp(0.0, self.sub_max) as usize
    }

    /// The fine cell holding sub-cell index `sub`, along one axis:
    /// `sub / R`, with each possible `R` a constant divisor.
    fn fine_of(&self, sub: usize) -> usize {
        match self.refine {
            1 => sub,
            2 => sub / 2,
            3 => sub / 3,
            4 => sub / 4,
            r => sub / r,
        }
    }

    /// The fine cell holding sub-cell `(sx, sy)`.
    fn cell_of(&self, (sx, sy): (usize, usize)) -> (usize, usize) {
        (self.fine_of(sx), self.fine_of(sy))
    }

    fn col_of(&self, x: f64) -> usize {
        self.fine_of(self.sub_col(x))
    }

    fn row_of(&self, y: f64) -> usize {
        self.fine_of(self.sub_row(y))
    }

    /// Where fine cell `cell`'s slab starts in `slabs`, when it has one.
    fn slab_start(&self, cell: usize) -> Option<usize> {
        let word = self.slab_words.get(cell / 64)?;
        let bit = cell % 64;
        if word.bits >> bit & 1 == 0 {
            return None;
        }
        let rank = word.rank as usize + (word.bits & ((1u64 << bit) - 1)).count_ones() as usize;
        Some(rank * self.refine * self.refine)
    }

    /// The `slabs` entry of sub-cell `(sx, sy)`, when its fine cell has a
    /// slab.
    fn slab_index(&self, (sx, sy): (usize, usize)) -> Option<usize> {
        let (cx, cy) = self.cell_of((sx, sy));
        let start = self.slab_start(cy * self.cells_per_side + cx)?;
        let r = self.refine;
        Some(start + (sy - cy * r) * r + (sx - cx * r))
    }

    /// Upper bound on the number of objects inside the (closed)
    /// rectangle `rect`: the sum of counts of every cell intersecting it
    /// (paper Algorithm 2), or `usize::MAX` when one of those cells is
    /// saturated.
    ///
    /// A rectangle covering at most 64 cells sums them directly. A
    /// larger one takes its whole 4 × 4 blocks from the coarse prefix
    /// sums, one subtraction per block row, and sums only the cells of
    /// the partial blocks along its edges.
    ///
    /// The bound is *safe*: it never undercounts, because every object in
    /// `rect` lies in some intersecting cell. It may overcount objects in
    /// partially-covered border cells — a finer grid tightens it, which
    /// is exactly the trade-off Figure 9 measures. For a query's
    /// `n ≤ 255`, saturation never changes a DEP verdict: a saturated
    /// cell alone holds at least `n` objects.
    pub fn count_upper_bound(&self, rect: &Rect) -> usize {
        // No early-out for rects beyond the bounds: points outside the
        // bounds are clamped into border cells at registration, so such
        // rects must still see the border-cell counts to stay an upper
        // bound (this matters after dynamic inserts outside the
        // original space).
        let cols = self.col_of(rect.min.x)..self.col_of(rect.max.x) + 1;
        let rows = self.row_of(rect.min.y)..self.row_of(rect.max.y) + 1;
        if cols.len() * rows.len() <= FINE_PATH_CELLS {
            return self.fine_sum(cols, rows);
        }
        let block_cols = self.whole_blocks(&cols);
        let block_rows = self.whole_blocks(&rows);
        if block_cols.is_empty() || block_rows.is_empty() {
            return self.fine_sum(cols, rows);
        }
        let stride = self.blocks_per_side + 1;
        let whole: usize = self.prefix[block_rows.start * stride..block_rows.end * stride]
            .chunks_exact(stride)
            .map(|row| (row[block_cols.end] - row[block_cols.start]) as usize)
            .sum();
        let (x0, x1) = (block_cols.start * BLOCK, (block_cols.end * BLOCK).min(cols.end));
        let (y0, y1) = (block_rows.start * BLOCK, (block_rows.end * BLOCK).min(rows.end));
        [
            self.fine_sum(cols.clone(), rows.start..y0),
            self.fine_sum(cols.clone(), y1..rows.end),
            self.fine_sum(cols.start..x0, y0..y1),
            self.fine_sum(x1..cols.end, y0..y1),
        ]
        .into_iter()
        .fold(whole, usize::saturating_add)
    }

    /// Upper bound on the number of objects inside any window that is
    /// `h` tall, spans `rect`'s full width and lies inside `rect`, or
    /// `usize::MAX` when a sub-cell it reads is saturated. On a grid
    /// with no refined level (`R = 1`) it is
    /// [`count_upper_bound`](Self::count_upper_bound).
    ///
    /// DEP's search-region test runs it when the dense bound fails to
    /// prune. Every candidate window an object `p` generates spans its
    /// search region `SR_p`'s x-extent `l`, is `w` tall and lies inside
    /// `SR_p`; so does every window of SRR's reduced region, which only
    /// trims the partner range. Such a window's objects lie in the
    /// region's sub-columns and, as a span of `h` touches at most
    /// `⌈h / sub_h⌉ + 1` sub-rows, in at most `k = ⌊h / sub_h⌋ + 2`
    /// consecutive sub-rows of the region (`h` is widened by 10⁻⁹ of the
    /// coordinates' magnitude first, which covers float rounding in the
    /// row indices). The bound is therefore the largest sum of the
    /// region's sub-cells over `k` consecutive sub-rows; a region of `k`
    /// rows or fewer (or a `k` past 128) is summed whole.
    ///
    /// Sub-cell counts are exact below saturation. A fine cell with no
    /// slab — empty at build, occupied since — counts its fine count in
    /// each of its sub-rows: looser, still sound.
    pub fn window_upper_bound(&self, rect: &Rect, h: f64) -> usize {
        if self.refine == 1 {
            return self.count_upper_bound(rect);
        }
        let r = self.refine;
        let (sx0, sx1) = (self.sub_col(rect.min.x), self.sub_col(rect.max.x));
        let (sy0, sy1) = (self.sub_row(rect.min.y), self.sub_row(rect.max.y));
        let rows = sy1 - sy0 + 1;
        let slack = 1e-9 * (h.abs() + self.bounds.min.y.abs() + self.bounds.max.y.abs());
        let k = (((h + slack) / self.sub_h) as usize).saturating_add(2);
        let sliding = k < rows && k <= RUN_ROWS;
        // The last `k` sub-row sums, when sliding.
        let mut ring = [0u32; RUN_ROWS];
        let (mut run, mut best, mut seen, mut slot) = (0usize, 0usize, 0usize, 0usize);
        for cy in self.fine_of(sy0)..=self.fine_of(sy1) {
            let sub_rows = sy0.max(cy * r) - cy * r..sy1.min(cy * r + r - 1) + 1 - cy * r;
            let mut sums = [0u32; MAX_REFINE];
            for cx in self.fine_of(sx0)..=self.fine_of(sx1) {
                let cell = cy * self.cells_per_side + cx;
                let count = self.fine[cell];
                if count == 0 {
                    continue;
                }
                let Some(start) = self.slab_start(cell) else {
                    if count == SATURATED {
                        return usize::MAX;
                    }
                    for sum in &mut sums[sub_rows.clone()] {
                        *sum += u32::from(count);
                    }
                    continue;
                };
                let cols = sx0.max(cx * r) - cx * r..sx1.min(cx * r + r - 1) + 1 - cx * r;
                for sy in sub_rows.clone() {
                    let row = start + sy * r;
                    for &c in &self.slabs[row + cols.start..row + cols.end] {
                        if c == SATURATED {
                            return usize::MAX;
                        }
                        sums[sy] += u32::from(c);
                    }
                }
            }
            for &sum in &sums[sub_rows] {
                run += sum as usize;
                if sliding {
                    if seen >= k {
                        run -= ring[slot] as usize;
                    }
                    ring[slot] = sum;
                    slot = if slot + 1 == k { 0 } else { slot + 1 };
                }
                seen += 1;
                best = best.max(run);
            }
        }
        best
    }

    /// The blocks, along one axis, whose cells all lie in `cells`. The
    /// last block, cut short by the grid's edge, is whole when `cells`
    /// reaches that edge.
    fn whole_blocks(&self, cells: &Range<usize>) -> Range<usize> {
        let end = if cells.end == self.cells_per_side {
            self.blocks_per_side
        } else {
            cells.end / BLOCK
        };
        cells.start.div_ceil(BLOCK)..end
    }

    /// Sum of the fine cells in `cols × rows`, or `usize::MAX` when one
    /// of them is saturated.
    fn fine_sum(&self, cols: Range<usize>, rows: Range<usize>) -> usize {
        let g = self.cells_per_side;
        let mut sum = 0usize;
        let mut saturated = false;
        for cy in rows {
            for &c in &self.fine[cy * g + cols.start..cy * g + cols.end] {
                sum += c as usize;
                saturated |= c == SATURATED;
            }
        }
        if saturated {
            usize::MAX
        } else {
            sum
        }
    }

    /// Fine count of one cell, for inspection and rendering (`(col, row)`
    /// with the origin at the bounds' bottom-left corner). Counts
    /// saturate: 255 means "255 or more", and a saturated cell stays at
    /// 255 under [`remove_point`](Self::remove_point) until the grid is
    /// rebuilt.
    pub fn cell(&self, col: usize, row: usize) -> u32 {
        u32::from(self.fine[row * self.cells_per_side + col])
    }

    /// Registers one more object at `p` (dynamic datasets). Points
    /// outside the bounds clamp into border cells, as at build time. A
    /// fine cell that had no slab at build gets none now.
    pub fn add_point(&mut self, p: &Point) {
        let sub = self.sub_cell_of(p);
        let (cx, cy) = self.cell_of(sub);
        let slot = &mut self.fine[cy * self.cells_per_side + cx];
        *slot = slot.saturating_add(1);
        if let Some(i) = self.slab_index(sub) {
            self.slabs[i] = self.slabs[i].saturating_add(1);
        }
        let suffix = self.block_suffix(cx, cy);
        for c in &mut self.prefix[suffix] {
            *c += 1;
        }
        self.total += 1;
    }

    /// Unregisters one object at `p`. A saturated cell or sub-cell stays
    /// saturated.
    ///
    /// # Panics
    ///
    /// Panics when the cell, sub-cell or block containing `p` has no
    /// objects recorded — removing a point that was never added corrupts
    /// the upper-bound guarantee, so it is refused loudly.
    pub fn remove_point(&mut self, p: &Point) {
        let sub = self.sub_cell_of(p);
        let (cx, cy) = self.cell_of(sub);
        let i = cy * self.cells_per_side + cx;
        let slab = self.slab_index(sub);
        let suffix = self.block_suffix(cx, cy);
        let block = self.prefix[suffix.start] - self.prefix[suffix.start - 1];
        assert!(
            self.fine[i] > 0 && block > 0 && slab.is_none_or(|s| self.slabs[s] > 0),
            "removing {p:?} from an empty grid cell"
        );
        for c in &mut self.prefix[suffix] {
            *c -= 1;
        }
        if self.fine[i] != SATURATED {
            self.fine[i] -= 1;
        }
        if let Some(s) = slab.filter(|&s| self.slabs[s] != SATURATED) {
            self.slabs[s] -= 1;
        }
        self.total -= 1;
    }

    /// The prefix entries that count cell `(cx, cy)`'s block: from the
    /// block's own entry to the end of its block row.
    fn block_suffix(&self, cx: usize, cy: usize) -> Range<usize> {
        let stride = self.blocks_per_side + 1;
        let row = cy / BLOCK * stride;
        row + cx / BLOCK + 1..row + stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::{pt, rect};
    use proptest::prelude::*;

    fn space() -> Rect {
        rect(0.0, 0.0, 100.0, 100.0)
    }

    fn scatter() -> Vec<Point> {
        (0..500)
            .map(|i| pt(((i * 37) % 1000) as f64 / 10.0, ((i * 73) % 1000) as f64 / 10.0))
            .collect()
    }

    #[test]
    fn total_preserved() {
        let pts = scatter();
        let g = DensityGrid::build(space(), 10, &pts);
        assert_eq!(g.total_objects(), 500);
        assert_eq!(g.count_upper_bound(&space()), 500);
    }

    #[test]
    fn upper_bound_is_safe() {
        let pts = scatter();
        for cells in [1usize, 3, 10, 40, 100] {
            let g = DensityGrid::build(space(), cells, &pts);
            for i in 0..50 {
                let x = ((i * 13) % 90) as f64;
                let y = ((i * 31) % 90) as f64;
                // Small rects take the fine path on every grid; the wide
                // ones take the coarse path on the finer grids.
                let (w, h) = if i % 2 == 0 {
                    (((i % 7) + 1) as f64, ((i % 5) + 1) as f64)
                } else {
                    (((i * 7) % 60 + 10) as f64, ((i * 11) % 50 + 10) as f64)
                };
                let r = rect(x, y, x + w, y + h);
                let actual = pts.iter().filter(|p| r.contains_point(p)).count();
                let bound = g.count_upper_bound(&r);
                assert!(
                    bound >= actual,
                    "grid {cells}: bound {bound} < actual {actual} for {r:?}"
                );
            }
        }
    }

    /// One step of an update script: add a point near a hot spot (so
    /// cells fill up), add one anywhere — out of bounds included — or
    /// remove a live point.
    fn op() -> impl Strategy<Value = (u8, f64, f64, prop::sample::Index)> {
        (0u8..4, -20.0f64..120.0, -20.0f64..120.0, any::<prop::sample::Index>())
    }

    fn query_rect() -> impl Strategy<Value = Rect> {
        (-30.0f64..110.0, -30.0f64..110.0, 0.0f64..120.0, 0.0f64..120.0)
            .prop_map(|(x, y, w, h)| rect(x, y, x + w, y + h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn upper_bound_is_safe_under_updates(
            cells in 1usize..60,
            ops in proptest::collection::vec(op(), 0..700),
            rects in proptest::collection::vec(query_rect(), 1..6),
        ) {
            let mut g = DensityGrid::build(space(), cells, &[]);
            let mut live: Vec<Point> = Vec::new();
            for (kind, x, y, pick) in ops {
                match kind {
                    0 | 1 => {
                        let p = pt(37.0 + x.rem_euclid(0.5), 61.0 + y.rem_euclid(0.5));
                        g.add_point(&p);
                        live.push(p);
                    }
                    2 => {
                        g.add_point(&pt(x, y));
                        live.push(pt(x, y));
                    }
                    _ if !live.is_empty() => {
                        let p = live.swap_remove(pick.index(live.len()));
                        g.remove_point(&p);
                    }
                    _ => {}
                }
                prop_assert_eq!(g.total_objects(), live.len());
                for r in &rects {
                    let actual = live.iter().filter(|p| r.contains_point(p)).count();
                    let bound = g.count_upper_bound(r);
                    prop_assert!(bound >= actual, "grid {cells}: bound {bound} < {actual} in {r:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Below saturation both paths give exactly the sum of the
        /// intersected cells, so DEP prunes as an exact grid would.
        #[test]
        fn unsaturated_bound_is_the_cell_sum(
            cells in 1usize..70,
            points in proptest::collection::vec((-5.0f64..105.0, -5.0f64..105.0), 0..250),
            rects in proptest::collection::vec(query_rect(), 1..8),
        ) {
            let points: Vec<Point> = points.into_iter().map(|(x, y)| pt(x, y)).collect();
            let g = DensityGrid::build(space(), cells, &points);
            for r in &rects {
                let mut sum = 0usize;
                for row in g.row_of(r.min.y)..=g.row_of(r.max.y) {
                    for col in g.col_of(r.min.x)..=g.col_of(r.max.x) {
                        sum += g.cell(col, row) as usize;
                    }
                }
                prop_assert_eq!(g.count_upper_bound(r), sum, "grid {} rect {:?}", cells, r);
            }
        }
    }

    /// A point at one hot spot (so a fine cell can pass 255) or anywhere
    /// in `0..side`.
    fn hot_or_uniform(side: f64) -> impl Strategy<Value = Point> {
        (any::<bool>(), 0.0f64..side, 0.0f64..side).prop_map(move |(hot, x, y)| {
            if hot {
                pt(side / 2.0 + x / 1e3, side / 2.0 + y / 1e3)
            } else {
                pt(x, y)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn half_cell_grid_never_looser_on_fine_path_rects(
            points in proptest::collection::vec(hot_or_uniform(200.0), 0..900),
            qx in -10.0f64..200.0,
            qy in -10.0f64..200.0,
            qw in 0.0f64..110.0,
            qh in 0.0f64..110.0,
        ) {
            // 200 / 12.5 = 16 and 200 / 25 = 8 cells per side: every 12.5
            // cell nests in one paper-sized cell, as in the 10,000 space.
            let bounds = rect(0.0, 0.0, 200.0, 200.0);
            let query = rect(qx, qy, qx + qw, qy + qh);
            let fine = DensityGrid::from_cell_size(bounds, 12.5, &points).unwrap();
            let cols = fine.col_of(query.max.x) - fine.col_of(query.min.x) + 1;
            let rows = fine.row_of(query.max.y) - fine.row_of(query.min.y) + 1;
            prop_assume!(cols * rows <= FINE_PATH_CELLS);
            let paper = DensityGrid::from_cell_size(bounds, PAPER_GRID_CELL, &points).unwrap();
            prop_assert!(fine.count_upper_bound(&query) <= paper.count_upper_bound(&query));
            let actual = points.iter().filter(|p| query.contains_point(p)).count();
            prop_assert!(fine.count_upper_bound(&query) >= actual);
        }
    }

    #[test]
    fn saturated_cell_bounds_to_max_until_rebuilt() {
        let hot = pt(12.3, 45.6);
        let mut g = DensityGrid::build(space(), 40, &[]);
        for _ in 0..300 {
            g.add_point(&hot);
        }
        let (col, row) = (4, 18);
        assert_eq!(g.cell(col, row), 255, "fine counts saturate");
        // Fine path: the saturated cell makes the bound unbounded, so a
        // query with n = 300 is never pruned there.
        let small = rect(12.0, 45.0, 13.0, 46.0);
        assert_eq!(g.count_upper_bound(&small), usize::MAX);
        // Coarse path: block counts stay exact.
        assert_eq!(g.count_upper_bound(&space()), 300);
        for left in (0..300).rev() {
            g.remove_point(&hot);
            assert!(g.count_upper_bound(&small) >= left);
            assert_eq!(g.count_upper_bound(&space()), left);
        }
        assert_eq!(g.cell(col, row), 255, "saturation is sticky under removal");
        // A block cut short by the grid's edge (42 = 10 × 4 + 2 cells per
        // side) is still whole for a rectangle reaching that edge.
        let edge = DensityGrid::build(space(), 42, &vec![pt(99.9, 99.9); 300]);
        assert_eq!(edge.count_upper_bound(&space()), 300);
        assert_eq!(edge.count_upper_bound(&rect(99.0, 99.0, 99.9, 99.9)), usize::MAX);
        assert_eq!(g.total_objects(), 0);
        let rebuilt = DensityGrid::build(space(), 40, &[]);
        assert_eq!(rebuilt.count_upper_bound(&small), 0);
    }

    #[test]
    fn finer_grids_are_tighter() {
        let pts = scatter();
        let coarse = DensityGrid::build(space(), 4, &pts);
        let fine = DensityGrid::build(space(), 100, &pts);
        let r = rect(10.0, 10.0, 12.0, 12.0);
        assert!(fine.count_upper_bound(&r) <= coarse.count_upper_bound(&r));
    }

    #[test]
    fn rect_outside_bounds_sees_border_cells() {
        // Out-of-bounds rects clamp onto the border cells, because
        // out-of-bounds points are clamped there at registration — the
        // bound must stay safe for them. With no points near the border
        // the bound is 0; with border mass it reflects it.
        let g = DensityGrid::build(space(), 10, &[pt(50.0, 50.0)]);
        assert_eq!(g.count_upper_bound(&rect(200.0, 200.0, 300.0, 300.0)), 0);
        let mut g2 = g.clone();
        g2.add_point(&pt(250.0, 250.0)); // clamped into cell (9, 9)
        assert_eq!(g2.count_upper_bound(&rect(200.0, 200.0, 300.0, 300.0)), 1);
    }

    #[test]
    fn rect_straddling_bounds_clamps() {
        let pts = vec![pt(0.5, 0.5), pt(99.5, 99.5)];
        let g = DensityGrid::build(space(), 10, &pts);
        assert_eq!(g.count_upper_bound(&rect(-50.0, -50.0, 5.0, 5.0)), 1);
        assert_eq!(g.count_upper_bound(&rect(95.0, 95.0, 500.0, 500.0)), 1);
    }

    #[test]
    fn boundary_points_counted_once() {
        let pts = vec![pt(50.0, 50.0), pt(10.0, 50.0), pt(50.0, 10.0)];
        let g = DensityGrid::build(space(), 10, &pts);
        assert_eq!(g.count_upper_bound(&space()), 3);
    }

    #[test]
    fn top_edge_points_clamped_into_grid() {
        let pts = vec![pt(100.0, 100.0)];
        let g = DensityGrid::build(space(), 10, &pts);
        assert_eq!(g.cell(9, 9), 1);
        assert_eq!(g.count_upper_bound(&rect(99.0, 99.0, 100.0, 100.0)), 1);
    }

    #[test]
    fn from_cell_size_matches_paper_config() {
        // Cell size 25 in a 10,000-wide space ⇒ 400 × 400 = 160,000 cells,
        // as in §5.2. The paper stores 2 bytes per cell (320,000 B); the
        // two-level grid stays below that: 160,000 fine bytes plus
        // 100 × 101 coarse `u32` prefix sums.
        let bounds = rect(0.0, 0.0, 10_000.0, 10_000.0);
        let g = DensityGrid::from_cell_size(bounds, PAPER_GRID_CELL, &[]).unwrap();
        assert_eq!(g.cells_per_side(), 400);
        assert_eq!(g.cell_count(), 160_000);
        assert_eq!(g.bytes(), 160_000 + 100 * 101 * 4);
        assert!(g.bytes() <= 320_000);
    }

    /// The most objects any `h`-tall window spanning `r`'s width and
    /// lying inside `r` holds: every window whose bottom edge is at
    /// `r.min.y`, at `r.max.y − h`, or whose bottom or top edge is at a
    /// point's `y`, clamped into `r`.
    fn best_window(points: &[Point], r: &Rect, h: f64) -> usize {
        let (lo, hi) = (r.min.y, r.max.y - h);
        [lo, hi]
            .into_iter()
            .chain(points.iter().flat_map(|p| [p.y, p.y - h]))
            .map(|y0| {
                let y0 = y0.clamp(lo, hi);
                let window = rect(r.min.x, y0, r.max.x, (y0 + h).min(r.max.y));
                points.iter().filter(|p| window.contains_point(p)).count()
            })
            .max()
            .unwrap_or(0)
    }

    /// A point at one hot spot (so sub-cells saturate), anywhere in the
    /// space, or past its edges.
    fn hot_or_spread() -> impl Strategy<Value = Point> {
        (0u8..3, -20.0f64..120.0, -20.0f64..120.0).prop_map(|(kind, x, y)| match kind {
            0 => pt(41.0 + x / 1e3, 58.0 + y / 1e3),
            1 => pt(x.clamp(0.0, 100.0), y.clamp(0.0, 100.0)),
            _ => pt(x, y),
        })
    }

    /// A query rectangle, possibly past the bounds, with a window height
    /// that fits in it.
    fn region_and_height() -> impl Strategy<Value = (Rect, f64)> {
        (query_rect(), 0.0f64..=1.0).prop_map(|(r, f)| (r, f * r.height()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn window_bound_covers_every_full_width_window(
            cells in 1usize..40,
            refine in 1usize..=MAX_REFINE,
            points in proptest::collection::vec(hot_or_spread(), 0..400),
            regions in proptest::collection::vec(region_and_height(), 1..8),
        ) {
            let g = DensityGrid::build_refined(space(), cells, refine, &points);
            prop_assert_eq!(g.refinement(), refine);
            for (r, h) in &regions {
                let dense = g.count_upper_bound(r);
                let bound = g.window_upper_bound(r, *h);
                let best = best_window(&points, r, *h);
                prop_assert!(bound >= best, "R {refine}, {cells} cells: {bound} < {best} in {r:?}, h {h}");
                prop_assert!(dense >= points.iter().filter(|p| r.contains_point(p)).count());
                if refine == 1 {
                    prop_assert_eq!(bound, dense);
                }
            }
        }

        #[test]
        fn window_bound_is_safe_under_updates(
            cells in 1usize..30,
            refine in 1usize..=MAX_REFINE,
            initial in proptest::collection::vec(hot_or_spread(), 0..150),
            ops in proptest::collection::vec(op(), 0..400),
            regions in proptest::collection::vec(region_and_height(), 1..5),
        ) {
            let mut g = DensityGrid::build_refined(space(), cells, refine, &initial);
            let mut live = initial;
            let last = ops.len().saturating_sub(1);
            for (step, (kind, x, y, pick)) in ops.into_iter().enumerate() {
                match kind {
                    0 => {
                        let p = pt(41.0 + x.rem_euclid(0.01), 58.0 + y.rem_euclid(0.01));
                        g.add_point(&p);
                        live.push(p);
                    }
                    // Anywhere, out of bounds and cells empty at build included.
                    1 | 2 => {
                        g.add_point(&pt(x, y));
                        live.push(pt(x, y));
                    }
                    _ if !live.is_empty() => {
                        let p = live.swap_remove(pick.index(live.len()));
                        g.remove_point(&p);
                    }
                    _ => {}
                }
                prop_assert_eq!(g.total_objects(), live.len());
                // The brute force is quadratic: check every 8th state.
                if step % 8 != 7 && step != last {
                    continue;
                }
                for (r, h) in &regions {
                    let bound = g.window_upper_bound(r, *h);
                    let best = best_window(&live, r, *h);
                    prop_assert!(bound >= best, "R {refine}, {cells} cells: {bound} < {best} in {r:?}, h {h}");
                    let actual = live.iter().filter(|p| r.contains_point(p)).count();
                    prop_assert!(g.count_upper_bound(r) >= actual);
                }
            }
        }
    }

    #[test]
    fn unrefined_grid_keeps_its_bytes_and_floor_cell_sums() {
        let pts: Vec<Point> = scatter()
            .into_iter()
            .chain([pt(-5.0, 30.0), pt(100.0, 100.0)])
            .collect();
        for cells in [3usize, 7, 10, 42] {
            let g = DensityGrid::build_refined(space(), cells, 1, &pts);
            let blocks = cells.div_ceil(BLOCK);
            assert_eq!(g.bytes(), cells * cells + blocks * (blocks + 1) * 4);
            // The cell rule before the refined level existed: floor, clamped.
            let cell_w = 100.0 / cells as f64;
            let index = |v: f64| ((v / cell_w).floor() as i64).clamp(0, cells as i64 - 1) as usize;
            for i in 0..40 {
                let (x, y) = (((i * 17) % 110) as f64 - 5.0, ((i * 29) % 110) as f64 - 5.0);
                let r = rect(x, y, x + ((i * 7) % 60) as f64, y + ((i * 11) % 45) as f64);
                let expected = pts
                    .iter()
                    .filter(|p| {
                        (index(r.min.x)..=index(r.max.x)).contains(&index(p.x))
                            && (index(r.min.y)..=index(r.max.y)).contains(&index(p.y))
                    })
                    .count();
                assert_eq!(g.count_upper_bound(&r), expected, "{cells} cells, {r:?}");
                assert_eq!(g.window_upper_bound(&r, 3.0), expected);
            }
        }
    }

    #[test]
    fn from_cell_size_bounds_every_request() {
        let bounds = rect(0.0, 0.0, 10_000.0, 10_000.0);
        let shape = |cell: f64| {
            DensityGrid::from_cell_size(bounds, cell, &[])
                .map(|g| (g.cells_per_side(), g.refinement()))
        };
        assert_eq!(shape(PAPER_GRID_CELL), Some((400, 1)));
        assert_eq!(shape(12.5), Some((800, 1)));
        assert_eq!(shape(10.0), Some((500, 2)));
        assert_eq!(shape(DEFAULT_GRID_CELL), Some((800, 3)));
        // Finer than the refinement reaches: clamped, not a 10⁶-cell grid.
        assert_eq!(shape(0.01), Some((800, MAX_REFINE)));
        assert_eq!(shape(f64::MIN_POSITIVE), Some((800, MAX_REFINE)));
        for bad in [0.0, -25.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(shape(bad), None, "cell {bad}");
        }
        // The refined level's memory: 16 B per 64 cells plus R² per slab.
        let g = DensityGrid::from_cell_size(
            bounds,
            DEFAULT_GRID_CELL,
            &[pt(1.0, 1.0), pt(2.0, 2.0), pt(20.0, 1.0)],
        )
        .unwrap();
        assert_eq!(g.bytes(), 640_000 + 200 * 201 * 4 + 10_000 * 16 + 2 * 9);
    }

    #[test]
    fn refined_bound_is_tighter_and_exact_below_saturation() {
        // Nine points in the bottom-left sub-cell of fine cell (0, 0) and
        // nine in the top-right sub-cell of cell (1, 1): a 3-unit window
        // can never hold both groups, and the dense bound counts them all.
        let mut pts = vec![pt(0.5, 0.5); 9];
        pts.extend(vec![pt(19.5, 19.5); 9]);
        let g = DensityGrid::build_refined(space(), 10, 3, &pts);
        let region = rect(0.0, 0.0, 20.0, 20.0);
        assert_eq!(g.count_upper_bound(&region), 18);
        assert_eq!(g.window_upper_bound(&region, 3.0), 9);
        assert_eq!(g.window_upper_bound(&region, 20.0), 18);
        // A cell occupied only after the build has no slab: its fine
        // count stands in for each of its sub-rows, so a 3-unit window
        // (k = 2 sub-rows) sees it twice.
        let mut g = g;
        g.add_point(&pt(50.5, 10.5));
        assert_eq!(g.window_upper_bound(&rect(40.0, 0.0, 60.0, 20.0), 3.0), 2);
        g.add_point(&pt(59.5, 19.5));
        assert_eq!(g.window_upper_bound(&rect(50.0, 10.0, 60.0, 20.0), 3.0), 4);
        // Saturating a sub-cell makes the bound unbounded.
        for _ in 0..250 {
            g.add_point(&pt(0.5, 0.5));
        }
        assert_eq!(g.window_upper_bound(&region, 3.0), usize::MAX);
    }

    #[test]
    #[should_panic]
    fn zero_cells_rejected() {
        DensityGrid::build(space(), 0, &[]);
    }
}
