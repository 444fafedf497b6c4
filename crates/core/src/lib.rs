//! Nearest Window Cluster (NWC) query processing — the primary
//! contribution of Huang et al., *"Nearest Window Cluster Queries"*
//! (EDBT 2016).
//!
//! Given a query location `q`, a window of length `l` and width `w`, and
//! a count `n`, `NWC(q, l, w, n)` returns the `n` data objects that fit
//! inside some `l × w` axis-aligned window and minimize a distance
//! measure to `q` — "the nearest place where `n` clustered choices
//! exist". The `kNWC(k, q, l, w, n, m)` extension returns `k` such object
//! groups with at most `m` shared objects between any pair.
//!
//! # Architecture
//!
//! - [`NwcIndex`] owns the data: an instrumented R\*-tree
//!   (`nwc-rtree`) and the DEP density grid (`nwc-grid`), built once
//!   over a point set and kept in sync by inserts and removals.
//! - [`NwcIndex::search`] answers a [`SearchRequest`] — NWC or the kNWC
//!   extension of §3.4 — with Algorithm 1: a best-first traversal
//!   visiting objects in ascending distance, generating candidate
//!   windows per object (Lemma 1 + the quadrant observations of §3.1)
//!   and keeping the best object group(s) found. The [`Outcome`] is
//!   complete, or partial with a proven bound when the request's
//!   [`Budget`] expired.
//! - [`Scheme`] toggles the four optimizations — SRR, DIP, DEP, IWP —
//!   individually or in the paper's named combinations
//!   ([`Scheme::NWC_PLUS`], [`Scheme::NWC_STAR`]).
//! - [`ShardedNwcIndex::search`] answers the same request by
//!   scatter-gather over K spatial shards.
//! - [`oracle`] holds brute-force reference implementations used by the
//!   test suites to verify every scheme returns the optimum.
//!
//! # Example
//!
//! ```
//! use nwc_core::{NwcIndex, NwcQuery, QueryScratch, Scheme, SearchRequest};
//! use nwc_geom::{pt, window::WindowSpec};
//!
//! let shops = vec![
//!     pt(52.0, 55.0), pt(53.0, 56.0), pt(54.0, 54.0), // a walkable cluster
//!     pt(90.0, 90.0),                                  // a lone shop far away
//! ];
//! let index = NwcIndex::build(shops);
//! let query = NwcQuery::new(pt(50.0, 50.0), WindowSpec::square(8.0), 3);
//! let req = SearchRequest::nwc(query, Scheme::NWC_STAR);
//! let outcome = index.search(&req, &mut QueryScratch::new())?;
//! let hit = outcome.nwc().expect("cluster exists");
//! assert_eq!(hit.objects.len(), 3);
//! assert!(hit.objects.iter().all(|e| e.point.x < 60.0));
//! # Ok::<(), nwc_core::QueryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod anytime;
mod candidates;
mod constrained;
pub mod engine;
mod index;
pub mod ingest;
mod knwc;
pub mod maxrs;
mod measure;
pub mod metrics;
pub mod oracle;
mod query;
mod request;
mod result;
mod scheme;
mod scratch;
pub mod shard;
pub mod weighted;

pub use anytime::{frontier_slack, AnytimeNwc, Approx, BudgetSpent};
pub use engine::QueryEngine;
pub use index::{
    DiskIndexConfig, IndexConfig, IndexOpenError, IndexUpdateError, NwcIndex, PageLayout,
};
pub use ingest::{IngestConfig, StreamingIngestor};
pub use knwc::{KnwcGroup, KnwcResult};
pub use measure::DistanceMeasure;
pub use metrics::MetricsSnapshot;
pub use query::{KnwcQuery, NwcQuery, QueryError};
pub use request::{Answer, Outcome, Query, SearchRequest};
pub use result::{NwcResult, SearchStats};
pub use scheme::Scheme;
pub use scratch::QueryScratch;
pub use shard::{ShardAssemblyError, ShardedAnytimeNwc, ShardedNwcIndex, ShardedStoreError};

// Re-export the vocabulary types callers need to use the API.
pub use nwc_geom::{window::WindowSpec, Point, Rect};
pub use nwc_rtree::{
    Budget, CancelFlag, CancelKind, CancelToken, DiskError, DiskReadError, Entry, ObjectId,
    PageStore, RetryPolicy,
};
