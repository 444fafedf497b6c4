//! 2-D computational geometry primitives shared by every crate in the
//! Nearest Window Cluster (NWC) workspace.
//!
//! The NWC paper (Huang et al., EDBT 2016) works in two-dimensional
//! Euclidean space with axis-aligned rectangles throughout: data objects
//! are points, R\*-tree nodes carry minimum bounding rectangles (MBRs),
//! query windows are `l × w` rectangles, and the search regions and
//! pruning regions of the optimization techniques are all rectangle
//! (or rectangle-plus-quarter-disc) constructions.
//!
//! This crate provides those primitives:
//!
//! - [`Point`] — a 2-D point with distance helpers,
//! - [`Rect`] — a closed axis-aligned rectangle with the MBR algebra an
//!   R-tree needs (union, enlargement, overlap, margin) and the
//!   `MINDIST`/`MAXDIST` metrics spatial search needs,
//! - [`Quadrant`] — the lying quadrant of an object with respect to the
//!   query point, which the NWC algorithm uses to decide on which window
//!   edge an object must sit (paper §3.1),
//! - [`window`] — the search-region and candidate-window constructions of
//!   the NWC algorithm itself (paper §3.2–3.3).
//!
//! Everything is `f64`-based, allocation-free and `Copy` where possible.
//! The two per-branch predicates of a tree descent, [`Rect::mindist`]
//! and [`Rect::intersects`], are branch-free scalar code; there is no
//! batched or SIMD variant (DESIGN.md §4g says why).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod quadrant;
mod rect;
pub mod window;

pub use point::Point;
pub use quadrant::Quadrant;
pub use rect::Rect;

/// Always `"scalar"`: every node takes the one scalar geometry path.
/// This exists only for the `kernel_backend` field of the benchmark
/// header, which still reads it.
pub fn kernel_backend() -> &'static str {
    "scalar"
}

/// Convenience constructor for a [`Point`].
#[inline]
pub fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Convenience constructor for a [`Rect`] from min/max corner coordinates.
#[inline]
pub fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Rect {
    Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y))
}
