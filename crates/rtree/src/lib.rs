//! An instrumented, in-memory R\*-tree built for reproducing the NWC
//! paper's experiments.
//!
//! The paper evaluates every algorithm by **I/O cost — the number of
//! R\*-tree nodes visited** — and its algorithms interleave their own
//! pruning with the tree traversal, which an off-the-shelf spatial index
//! neither counts nor allows. So this crate implements the R\*-tree of
//! Beckmann et al. (SIGMOD 1990) from scratch:
//!
//! - arena-based nodes with a configurable branching factor
//!   ([`TreeParams`]; the paper uses max 50 entries per 4096-byte page),
//! - R\* insertion: overlap-minimizing `ChooseSubtree`, forced reinsert,
//!   and the margin/overlap-driven R\* split,
//! - deletion with tree condensation,
//! - Sort-Tile-Recursive (STR) bulk loading,
//! - window (range) queries, point queries and window counting,
//! - best-first **incremental distance browsing** (Hjaltason & Samet,
//!   TODS 1999) exposed both as a kNN convenience and as the low-level
//!   [`Browser`] cursor that lets the NWC algorithm interleave its own
//!   pruning (DIP/DEP) with the traversal,
//! - per-tree [`IoStats`] counters that stand in for page reads,
//! - the per-query [`NodeMemo`], through which a window query reads the
//!   nodes its search already read without charging them again (how the
//!   NWC search realises the paper's IWP, §3.3.4).
//!
//! # Example
//!
//! ```
//! use nwc_geom::{pt, rect};
//! use nwc_rtree::RStarTree;
//!
//! let points = vec![pt(1.0, 1.0), pt(2.0, 2.0), pt(8.0, 8.0)];
//! let tree = RStarTree::bulk_load(&points);
//! let hits = tree.window_query(&rect(0.0, 0.0, 3.0, 3.0));
//! assert_eq!(hits.len(), 2);
//! assert!(tree.stats().node_reads() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod browser;
mod bulk;
mod cancel;
mod delete;
pub mod disk;
mod entry;
mod insert;
mod memo;
mod node;
pub mod page;
mod params;
mod query;
mod split;
mod stats;
mod tree;
pub mod validate;

pub use browser::{BrowseItem, Browser, BrowserScratch};
pub use bulk::str_partition;
pub use cancel::{Budget, CancelFlag, CancelKind, CancelToken};
pub use disk::{DiskError, DiskOptions, DiskReadError, TreeStorage};
pub use entry::{Entry, ObjectId};
pub use memo::NodeMemo;
pub use node::NodeId;
pub use page::{PageError, PageFile, PageLayout, PAGE_SIZE};
pub use params::TreeParams;
pub use query::entries_inside_into;
pub use stats::{ErrorCounters, IoStats};
pub use tree::{RStarTree, TreeError};

// Re-exported so downstream crates can configure [`DiskOptions::retry`]
// and supply custom page stores (fault injection, in-memory tests)
// without depending on `nwc-store` directly.
pub use nwc_store::{PageStore, RetryPolicy};
