//! `nwc-serve`: a query service layer over [`nwc_core`]'s NWC/kNWC
//! engine.
//!
//! The crate turns the in-process index into a long-running service
//! with the operational properties a serving path needs:
//!
//! - **[`protocol`]** — a length-prefixed binary wire protocol
//!   (queries, stats scrape, hot-swap, shutdown), decoded defensively
//!   on both sides;
//! - **[`server`]** — a `std`-only TCP server: per-connection readers,
//!   a bounded admission queue that sheds load with a typed
//!   retry-after, and a fixed worker pool running queries under
//!   cooperative [`Budget`](nwc_core::Budget) deadlines, so
//!   a slow query costs its caller a typed `Deadline` response, never
//!   a worker;
//! - **[`handle`]** — the epoch handle behind zero-downtime index
//!   hot-swap: readers pin a generation per query, a swap flips the
//!   `Arc` and drains the old generation before closing its store;
//! - **[`histogram`]** — lock-free log-bucketed latency histograms,
//!   one per worker, merged at scrape time;
//! - **[`client`]** — a blocking protocol client used by the examples,
//!   the load generator in `nwc-bench`, and the self-test.
//!
//! Everything outside `#[cfg(test)]` in this crate is panic-free by
//! policy (checked by `scripts/verify.sh`): the server's failure modes
//! are typed wire responses and dropped connections.

#![forbid(unsafe_code)]

pub mod client;
pub mod handle;
pub mod histogram;
pub mod protocol;
pub mod server;

pub use client::{ClientError, QueryOutcome, ServeClient, SwapOutcome};
pub use handle::{Generation, IndexHandle, ServedIndex, SwapOpenError, SwapReport};
pub use histogram::{LatencyHistogram, MergedHistogram};
pub use protocol::{
    AnytimeSpec, FrameReader, OkShape, PartialReason, ProtoError, QuerySpec, Request, Response,
    WireGroup, WireObject,
};
pub use server::{Server, ServerConfig};
