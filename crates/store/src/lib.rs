//! `nwc-store`: a disk-backed page store and buffer pool for the NWC
//! R\*-tree.
//!
//! The paper measures query cost in R\*-tree node reads — each node is
//! one 4 KiB page. This crate supplies the storage layer that makes
//! that metric physical:
//!
//! - [`PageStore`] — the backend trait: read a page, report physical
//!   reads, sync. Two implementations:
//!   - [`MemStore`] — pages in a `Vec`; for tests and corruption
//!     injection.
//!   - [`FileStore`] — a real on-disk page file with a magic/version
//!     header and a per-page CRC-32 checksum table; corrupt or
//!     truncated files are rejected with typed [`StoreError`]s, never
//!     panics.
//! - [`FaultStore`] — a seeded, scriptable fault-injection wrapper over
//!   any backend (transient errors, dead pages, bit-rot, torn reads,
//!   latency) with exact injected-fault counters, plus [`RetryPolicy`]:
//!   the bounded, deterministically-jittered retry budget the tree's
//!   read path consumes.
//! - [`BufferPool`] — a fixed-capacity cache of one caller value per
//!   resident page (the tree's decoded node) with **exact LRU**
//!   eviction, pin/unpin, and hit/miss/eviction counters. LRU (a stack
//!   algorithm) makes hit rate provably non-decreasing in capacity.
//!
//! The crate is deliberately free-standing (no dependency on the tree
//! crates): it stores opaque [`PAGE_SIZE`]-byte pages plus four `u64`
//! words of caller metadata, and the pool is generic over what a frame
//! holds. `nwc-rtree` layers node encoding and the query-time charging
//! discipline on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod error;
mod fault;
mod pool;
mod retry;
mod store;

/// Bytes per page. Matches the paper's 4 KiB R\*-tree page size and the
/// `nwc-rtree` page codec.
pub const PAGE_SIZE: usize = 4096;

pub use checksum::crc32;
pub use error::StoreError;
pub use fault::{FaultPlan, FaultStats, FaultStore};
pub use pool::{split_capacity, Access, BufferPool, PoolStats};
pub use retry::RetryPolicy;
pub use store::{FileStore, MemStore, PageStore, StoreMeta};
