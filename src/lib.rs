//! # nwc — Nearest Window Cluster queries
//!
//! A production-quality Rust reproduction of *"Nearest Window Cluster
//! Queries"* (Huang, Huang, Liang, Wang, Shih, Lee — EDBT 2016).
//!
//! Given a query point `q`, a window of length `l` and width `w`, and a
//! count `n`, an **NWC query** returns the `n` data objects that fit in
//! some `l × w` axis-aligned window and minimize a distance measure to
//! `q`. The **kNWC** extension returns `k` such groups with pairwise
//! overlap bounded by `m`.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`geom`] — points, rectangles, quadrants, window geometry,
//! - [`rtree`] — an instrumented R\*-tree with node-access accounting and
//!   the per-query node memo behind IWP,
//! - [`store`] — the disk layer: page files with per-page checksums and
//!   the LRU buffer pool behind disk-backed trees,
//! - [`grid`] — the density grid behind density-based pruning,
//! - [`datagen`] — seeded dataset generators (Gaussian, CA-like, NY-like),
//! - [`core`] — the NWC/kNWC algorithms with all optimization schemes,
//! - [`analysis`] — the paper's §4 analytical I/O cost model.
//!
//! ## Quickstart
//!
//! ```
//! use nwc::prelude::*;
//!
//! // A handful of shops; Bob stands at (50, 50).
//! let shops = vec![
//!     Point::new(52.0, 55.0),
//!     Point::new(53.0, 56.0),
//!     Point::new(54.0, 54.0),
//!     Point::new(90.0, 90.0),
//! ];
//! let index = NwcIndex::build(shops);
//! let query = NwcQuery::new(Point::new(50.0, 50.0), WindowSpec::square(8.0), 3);
//! let result = index.nwc(&query, Scheme::NWC_STAR).expect("3 shops fit in a window");
//! assert_eq!(result.objects.len(), 3);
//! ```

pub use nwc_analysis as analysis;
pub use nwc_core as core;
pub use nwc_datagen as datagen;
pub use nwc_geom as geom;
pub use nwc_grid as grid;
pub use nwc_rtree as rtree;
pub use nwc_store as store;

/// One-stop imports for typical library use.
pub mod prelude {
    pub use nwc_core::weighted::{WeightedNwcIndex, WeightedQuery};
    pub use nwc_core::{
        AnytimeKnwc, AnytimeNwc, Approx, Budget, DiskIndexConfig, DistanceMeasure,
        IndexUpdateError, KnwcQuery, KnwcResult, NwcIndex, NwcQuery, NwcResult, QueryEngine,
        QueryScratch, Scheme, SearchStats, ShardedNwcIndex,
    };
    pub use nwc_datagen::Dataset;
    pub use nwc_geom::{window::WindowSpec, Point, Rect};
    pub use nwc_rtree::{PageLayout, RStarTree, TreeError};
}
