//! The density grid behind density-based pruning (DEP, paper §3.3.3).
//!
//! The object space is divided into a `g × g` grid and each cell stores
//! the number of objects inside it. DEP then upper-bounds the number of
//! objects inside any rectangle by summing the cells the rectangle
//! intersects — if the bound is below the query's `n`, no window inside
//! the rectangle can be qualified, so index nodes can be pruned and
//! window queries cancelled without touching the R\*-tree.
//!
//! The grid keeps two levels (DESIGN.md, "Two-level density grid"):
//!
//! - **fine**: one saturating `u8` count per `g × g` cell, summed for
//!   rectangles covering at most 64 cells — every search region at the
//!   paper's windows;
//! - **coarse**: exact `u32` per-row prefix sums over 4 × 4 blocks of
//!   fine cells. A larger rectangle (an extended node MBR) takes its
//!   whole blocks from them, one subtraction per block row, and sums
//!   fine cells only along its edges.
//!
//! The paper's cell size is 25 in the normalized `10,000 × 10,000`
//! space (a `400 × 400` grid, ~312 KB at its 2 bytes per cell; see
//! [`PAPER_GRID_CELL`]); Figure 9 sweeps the cell size from 25 to 400.

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

/// Fine cells per side of one coarse block.
const BLOCK: usize = 4;

/// Rectangles covering at most this many fine cells are bounded by
/// summing fine cells; larger ones take their whole blocks from the
/// coarse prefix sums.
const FINE_PATH_CELLS: usize = 64;

/// A fine count at this value means "this many or more": it no longer
/// tracks the cell's exact count.
const SATURATED: u8 = u8::MAX;

/// A `g × g` count grid over a bounded object space.
#[derive(Clone, Debug)]
pub struct DensityGrid {
    bounds: Rect,
    cells_per_side: usize,
    cell_w: f64,
    cell_h: f64,
    /// Row-major fine counts, saturating at [`SATURATED`].
    fine: Vec<u8>,
    /// Coarse blocks per side, `⌈g / BLOCK⌉`.
    blocks_per_side: usize,
    /// Per block row, `blocks_per_side + 1` exclusive prefix sums of
    /// exact block counts: entry `j` holds the objects in blocks `0..j`.
    prefix: Vec<u32>,
    total: usize,
}

impl DensityGrid {
    /// Builds a grid with `cells_per_side × cells_per_side` cells over
    /// `bounds`, counting `points`.
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
        assert!(cells_per_side > 0, "grid needs at least one cell");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid bounds must have positive area"
        );
        let blocks_per_side = cells_per_side.div_ceil(BLOCK);
        let stride = blocks_per_side + 1;
        let mut grid = DensityGrid {
            bounds,
            cells_per_side,
            cell_w: bounds.width() / cells_per_side as f64,
            cell_h: bounds.height() / cells_per_side as f64,
            fine: vec![0; cells_per_side * cells_per_side],
            blocks_per_side,
            prefix: vec![0; blocks_per_side * stride],
            total: points.len(),
        };
        // Block counts go one slot right of their block, so an in-place
        // running sum per row turns them into exclusive prefixes.
        for p in points {
            let (cx, cy) = grid.cell_of(p);
            let slot = &mut grid.fine[cy * cells_per_side + cx];
            *slot = slot.saturating_add(1);
            grid.prefix[cy / BLOCK * stride + cx / BLOCK + 1] += 1;
        }
        for row in grid.prefix.chunks_exact_mut(stride) {
            for j in 1..stride {
                row[j] += row[j - 1];
            }
        }
        grid
    }

    /// Builds a grid whose cells are `cell_size × cell_size` (the paper's
    /// parameterization: "the grid cell size is set to 25"). The number
    /// of cells per side is `⌈side / cell_size⌉` over the wider axis.
    pub fn from_cell_size(bounds: Rect, cell_size: f64, points: &[Point]) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let side = bounds.width().max(bounds.height());
        let cells = (side / cell_size).ceil().max(1.0) as usize;
        DensityGrid::build(bounds, cells, points)
    }

    /// The grid's spatial bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cells per side (`g`).
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Total number of cells (`g²`).
    pub fn cell_count(&self) -> usize {
        self.fine.len()
    }

    /// Total number of counted objects.
    pub fn total_objects(&self) -> usize {
        self.total
    }

    /// Heap footprint in bytes: one byte per fine cell plus the coarse
    /// level's `u32` prefix sums.
    pub fn bytes(&self) -> usize {
        self.fine.len() + self.prefix.len() * std::mem::size_of::<u32>()
    }

    /// The cell indices containing point `p` (clamped into the grid).
    fn cell_of(&self, p: &Point) -> (usize, usize) {
        (self.col_of(p.x), self.row_of(p.y))
    }

    fn col_of(&self, x: f64) -> usize {
        let max = self.cells_per_side as i64 - 1;
        (((x - self.bounds.min.x) / self.cell_w).floor() as i64).clamp(0, max) as usize
    }

    fn row_of(&self, y: f64) -> usize {
        let max = self.cells_per_side as i64 - 1;
        (((y - self.bounds.min.y) / self.cell_h).floor() as i64).clamp(0, max) as usize
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
    /// outside the bounds clamp into border cells, as at build time.
    pub fn add_point(&mut self, p: &Point) {
        let (cx, cy) = self.cell_of(p);
        let slot = &mut self.fine[cy * self.cells_per_side + cx];
        *slot = slot.saturating_add(1);
        let suffix = self.block_suffix(cx, cy);
        for c in &mut self.prefix[suffix] {
            *c += 1;
        }
        self.total += 1;
    }

    /// Unregisters one object at `p`. A saturated cell stays saturated.
    ///
    /// # Panics
    ///
    /// Panics when the cell or block containing `p` has no objects
    /// recorded — removing a point that was never added corrupts the
    /// upper-bound guarantee, so it is refused loudly.
    pub fn remove_point(&mut self, p: &Point) {
        let (cx, cy) = self.cell_of(p);
        let i = cy * self.cells_per_side + cx;
        let suffix = self.block_suffix(cx, cy);
        let block = self.prefix[suffix.start] - self.prefix[suffix.start - 1];
        assert!(
            self.fine[i] > 0 && block > 0,
            "removing {p:?} from an empty grid cell"
        );
        for c in &mut self.prefix[suffix] {
            *c -= 1;
        }
        if self.fine[i] != SATURATED {
            self.fine[i] -= 1;
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
            let fine = DensityGrid::from_cell_size(bounds, 12.5, &points);
            let cols = fine.col_of(query.max.x) - fine.col_of(query.min.x) + 1;
            let rows = fine.row_of(query.max.y) - fine.row_of(query.min.y) + 1;
            prop_assume!(cols * rows <= FINE_PATH_CELLS);
            let paper = DensityGrid::from_cell_size(bounds, PAPER_GRID_CELL, &points);
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
        let g = DensityGrid::from_cell_size(bounds, PAPER_GRID_CELL, &[]);
        assert_eq!(g.cells_per_side(), 400);
        assert_eq!(g.cell_count(), 160_000);
        assert_eq!(g.bytes(), 160_000 + 100 * 101 * 4);
        assert!(g.bytes() <= 320_000);
    }

    #[test]
    #[should_panic]
    fn zero_cells_rejected() {
        DensityGrid::build(space(), 0, &[]);
    }
}
