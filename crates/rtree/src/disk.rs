//! Disk-backed storage mode: a [`PageStore`] + [`BufferPool`] under the
//! tree.
//!
//! [`RStarTree::save_to_path`] serializes a tree into an on-disk page
//! file ([`nwc_store::FileStore`] format: two checksummed header slots,
//! a CRC-32 embedded in every page). [`RStarTree::open_from_path`]
//! opens such a file and returns a tree whose node accesses run through
//! a buffer pool:
//!
//! - a **pool miss** performs a real, checksum-verified page read from
//!   the store and is charged to [`IoStats::node_reads`] — physical I/O;
//! - a **pool hit** costs no I/O and is charged to
//!   [`IoStats::buffer_hits`].
//!
//! Both count as one *logical* node access, so per-query I/O
//! attribution (`snapshot`/`since` diffs) — and therefore every
//! algorithm's "nodes visited" figure — is identical to the in-memory
//! arena's. With an unbounded pool the physical + hit split is the only
//! observable difference.
//!
//! # Residency model: demand paging
//!
//! The arena of a disk-backed tree is **empty**. Node ids are page ids
//! (the identity map), and a node access faults its page in through the
//! buffer pool and decodes the node *on the fault*. The pool's frames
//! hold the decoded nodes themselves (`BufferPool<Arc<Node>>`); the raw
//! page bytes live only on the stack of the read that decoded them:
//!
//! - a pool **hit** returns the resident decoded node;
//! - a pool **miss** reads + decodes under the pool lock and caches the
//!   node in the claimed frame;
//! - **eviction** drops the frame's node, so `pool capacity × decoded
//!   node` bounds resident memory.
//!   [`TreeStorage::peak_resident_nodes`] reports the high-water mark.
//!
//! ## Pin protocol
//!
//! Query descent holds a parent's node while visiting its children
//! (recursion, browser frontier expansion). Each charged node access
//! therefore returns a guard ([`PagedNode`]) that **pins** the page
//! until dropped; the decoded node is additionally kept alive by an
//! `Arc`, so even a page dropped by [`BufferPool::clear`] cannot
//! invalidate a live reference. When every frame is pinned (possible
//! only when the pool capacity is below the tree height), the access
//! falls back to an uncached read ([`Access::Uncached`]): the node is
//! decoded, used, and dropped — counted as *transient* residency in the
//! peak gauge, never cached.
//!
//! Uncharged bookkeeping reads (validation, entry iteration,
//! re-serialization, index opens) bypass the pool's LRU and counters:
//! they reuse a resident node ([`BufferPool::peek`]) and otherwise
//! decode from an **uncounted** store read, leaving every pool and I/O
//! counter untouched.
//!
//! ## Error policy after open
//!
//! The open-time scan is the integrity gate: it reads and
//! checksum-verifies every page reachable from the committed root and
//! validates the whole tree structure. Unreachable pages are the free
//! list (see "Writable mode"): they are never read, only overwritten.
//! After a successful open, a failed page read (device error, file
//! truncated behind our back) is handled by the configured
//! [`RetryPolicy`] ([`DiskOptions::retry`]): the read is re-attempted
//! with bounded, deterministically-jittered backoff, and every failed
//! attempt is counted in [`TreeStorage::io_errors`]. A read that
//! eventually succeeds records its failures as *transient*
//! ([`IoStats::transient_errors`], with the re-attempts in
//! [`IoStats::retries`]); failed attempts are **not** charged as node
//! accesses, so a query's logical I/O stays bit-identical to a
//! fault-free run. A read that exhausts its budget — or bytes that pass
//! their checksum but no longer decode (corruption, never retried) —
//! **quarantines** the page (id + last error, see
//! [`TreeStorage::quarantine`]) and surfaces as a typed
//! [`DiskReadError`] through the fallible `try_*` query APIs; later
//! accesses to a quarantined page fail fast without touching the
//! device. Nothing on this path panics: error returns release their
//! pins as the guards unwind, so the pool stays exact and concurrent
//! queries continue unharmed. The legacy infallible query
//! APIs funnel any surviving [`DiskReadError`] through one crate-level
//! adapter that panics — code that must keep serving under faults uses
//! the `try_*` variants instead.
//!
//! # Writable mode: dirty-node overlay + shadow paging
//!
//! A tree opened over a *writable* store (a page file opened with write
//! permission, or [`nwc_store::MemStore::new_writable`])
//! supports [`RStarTree::insert`] and [`RStarTree::delete`] through a
//! **dirty-node overlay** in [`TreeStorage`]:
//!
//! - the first mutation touching a node *faults* it into the overlay
//!   (an `Arc<Node>` clone-on-write of the decoded page — resident
//!   decodes are reused, nothing is copied until actually mutated);
//! - every read — charged fetch or bookkeeping peek — checks the
//!   overlay **first**, so uncommitted mutations are immediately
//!   visible to queries on the same tree, exactly like the arena;
//! - fresh nodes (splits, root growth) get temporary ids counted down
//!   from `u32::MAX`, which can never collide with committed page ids;
//! - [`RStarTree::commit`] writes each dirty node to a **shadow page**
//!   (a page id unreachable from the committed root, recycled from the
//!   free list or grown at the file tail), then atomically flips the
//!   store's header root. A crash at any point leaves the previous
//!   committed tree intact — see `nwc_store`'s dual-slot header format.
//!   After the flip, the pages the dirty nodes used to live on become
//!   free, their stale buffer-pool frames are evicted, and any page quarantine is dropped (the flip may recycle
//!   quarantined ids).
//!
//! Uncommitted mutations are **lost** on drop or crash: reopening the
//! file yields the last committed tree. A mutation that fails mid-way
//! with [`TreeError::Io`](crate::TreeError) may leave the overlay
//! logically inconsistent — discard the tree (reopen) rather than
//! commit after such an error.
//!
//! Trees over read-only stores (a file opened without write permission,
//! or a read-only backend such as [`nwc_store::MemStore::new`]) return
//! [`TreeError`](crate::TreeError)`::ReadOnly` from `insert`/`delete`
//! rather than silently diverge from the file.

use crate::node::{Node, NodeKind};
use crate::page::{decode_node, encode_node, page_capacity_internal, page_capacity_leaf};
use crate::tree::{RStarTree, TreeError};
use crate::{IoStats, NodeId, PageError, TreeParams, PAGE_SIZE};
use nwc_geom::{Point, Rect};
use nwc_store::{Access, BufferPool, FileStore, PageStore, PoolStats, RetryPolicy, StoreError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An error produced while saving or opening a disk-backed tree.
#[derive(Debug)]
pub enum DiskError {
    /// The page store rejected the file (I/O failure, bad magic or
    /// version, checksum mismatch, truncation, …).
    Store(StoreError),
    /// The pages were readable but do not decode into a valid tree.
    Page(PageError),
    /// The file header or the open options carry parameters this
    /// build rejects.
    BadParams(&'static str),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Store(e) => write!(f, "page store error: {e}"),
            DiskError::Page(e) => write!(f, "page decode error: {e}"),
            DiskError::BadParams(what) => write!(f, "invalid parameters: {what}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Store(e) => Some(e),
            DiskError::Page(e) => Some(e),
            DiskError::BadParams(_) => None,
        }
    }
}

impl From<StoreError> for DiskError {
    fn from(e: StoreError) -> Self {
        DiskError::Store(e)
    }
}

impl From<PageError> for DiskError {
    fn from(e: PageError) -> Self {
        DiskError::Page(e)
    }
}

/// A page read that failed *after* a successful open: the retry budget
/// was exhausted, the page is corrupt, or it was already quarantined by
/// an earlier failure.
///
/// Carries the page id and a rendered description of the last
/// underlying error (a `String` rather than the source error, so the
/// type stays `Clone + Eq` and can ride inside query errors that batch
/// engines collect and compare). Surfaced by the tree's fallible
/// `try_*` query APIs via [`TreeError::Io`](crate::TreeError).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskReadError {
    /// The page (= node id) that could not be read.
    pub page: u32,
    /// Human-readable description of the last failure.
    pub detail: String,
}

impl std::fmt::Display for DiskReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {}: {}", self.page, self.detail)
    }
}

impl std::error::Error for DiskReadError {}

/// Configuration for opening a disk-backed tree. The `Default` value
/// reproduces `open_from_path(path, None)`: an unbounded pool with the
/// default retry policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskOptions {
    /// Buffer pool capacity in pages; `None` = unbounded (every page
    /// misses once, then always hits).
    /// `Some(0)` is rejected at open with [`DiskError::BadParams`].
    pub pool_capacity: Option<usize>,
    /// Retry budget and backoff shape for post-open page reads (see the
    /// module docs, "Error policy after open"). The default retries
    /// transient failures a few times with capped backoff;
    /// [`RetryPolicy::no_retries`] restores fail-on-first-error.
    pub retry: RetryPolicy,
}

/// What dropping a [`PagedNode`] must release.
enum Release {
    /// A charged access pinned the page: unpin it.
    Unpin,
    /// Uncached fallback (all frames pinned): decrement the transient
    /// residency counter.
    Transient,
    /// Uncharged peek: nothing to release.
    None,
}

/// A guard over one decoded node of a disk-backed tree.
///
/// Keeps the node alive (`Arc`) and — for charged accesses — the
/// backing page pinned in the buffer pool, so a parent's page cannot be
/// evicted mid-descent while children are visited.
pub(crate) struct PagedNode<'t> {
    storage: &'t TreeStorage,
    page: u32,
    node: Arc<Node>,
    release: Release,
}

impl PagedNode<'_> {
    #[inline]
    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    /// A shared handle to the decoded node, for faulting it into the
    /// write overlay without re-decoding.
    #[inline]
    pub(crate) fn arc(&self) -> Arc<Node> {
        Arc::clone(&self.node)
    }
}

impl Drop for PagedNode<'_> {
    fn drop(&mut self) {
        match self.release {
            Release::Unpin => {
                self.storage.pool.unpin(self.page);
            }
            Release::Transient => {
                self.storage.transient.fetch_sub(1, Ordering::Relaxed);
            }
            Release::None => {}
        }
    }
}

/// Why a pool miss produced no node: the read failed (retried), or
/// the bytes passed their checksum but do not decode (quarantined).
enum LoadError {
    Read(StoreError),
    Decode(PageError),
}

/// Copy-on-write mutation state of a *writable* disk-backed tree: the
/// dirty-node overlay plus the shadow allocator's free lists. `None`
/// when the underlying store is read-only. Mutated only through
/// `&mut RStarTree`, read (overlay-first) by the `&self` fetch/peek
/// paths.
struct WriteState {
    /// Dirty nodes by node id: clone-on-write copies of committed
    /// pages (ids `< n_pages`) and freshly allocated nodes (temp ids
    /// counted down from `u32::MAX`). Checked before the pool and the
    /// store on every read.
    overlay: HashMap<u32, Arc<Node>>,
    /// Next temporary node id, allocated downward so temps can never
    /// collide with committed page ids.
    next_temp: u32,
    /// Page ids unreachable from the *committed* root: writable now.
    free_now: Vec<u32>,
    /// Pages vacated by uncommitted mutations. Still reachable from
    /// the committed root, so they join `free_now` only after the next
    /// successful commit.
    freed_pending: Vec<u32>,
}

impl WriteState {
    fn new(free_now: Vec<u32>) -> Self {
        WriteState {
            overlay: HashMap::new(),
            next_temp: u32::MAX,
            free_now,
            freed_pending: Vec::new(),
        }
    }
}

/// The storage half of a disk-backed tree: the page store, the buffer
/// pool of decoded nodes in front of it, and the root metadata captured
/// by the open scan.
pub struct TreeStorage {
    store: Box<dyn PageStore>,
    pool: BufferPool<Arc<Node>>,
    /// High-water mark of pool-resident plus transient decoded nodes.
    resident_peak: AtomicUsize,
    /// Live decoded nodes the pool could not cache (all frames pinned).
    transient: AtomicUsize,
    n_pages: u32,
    root_level: u32,
    root_mbr: Rect,
    node_count: usize,
    /// Page reads that failed *after* a successful open (device errors,
    /// post-open truncation). Counts every failed attempt, whether or
    /// not a retry later recovered it. Failed attempts are *not*
    /// charged as node accesses — logical I/O stays fault-independent.
    io_errors: AtomicU64,
    /// Retry budget for post-open page reads.
    retry: RetryPolicy,
    /// Pages that exhausted their retry budget or failed to decode,
    /// with the rendered last error. Accesses fail fast here without
    /// touching the device; cleared by [`TreeStorage::reset`] and by a
    /// successful commit (the root flip can recycle quarantined ids).
    quarantine: Mutex<HashMap<u32, String>>,
    /// Copy-on-write mutation state; `Some` iff the store is writable
    /// (see the module docs, "Writable mode").
    write: Option<WriteState>,
}

impl TreeStorage {
    /// Faults one node in for a charged query access: a pool hit
    /// returns the resident decode, a miss reads + decodes + caches, and
    /// the returned guard pins the page (see the module docs).
    ///
    /// Read failures follow the configured [`RetryPolicy`]: transient
    /// errors are re-attempted with backoff (counted in
    /// [`IoStats::retries`] / [`IoStats::transient_errors`], never as
    /// node accesses); a read that exhausts its budget — or a page that
    /// passes its checksum but no longer decodes, which is corruption
    /// and never retried — quarantines the page and returns a typed
    /// error with no pin held.
    pub(crate) fn try_fetch(
        &self,
        page: u32,
        stats: &IoStats,
    ) -> Result<PagedNode<'_>, DiskReadError> {
        // Dirty nodes shadow their committed page (and any quarantine
        // entry for it): the overlay is the truth until commit. An
        // overlay hit is a logical access like any other; it is charged
        // as a buffer hit since no physical I/O can back it.
        if let Some(node) = self.overlay_node(page) {
            stats.record_buffer_hit();
            return Ok(PagedNode {
                storage: self,
                page,
                node,
                release: Release::None,
            });
        }
        if let Some(detail) = self.quarantined_detail(page) {
            return Err(DiskReadError { page, detail });
        }
        let attempts = self.retry.attempts();
        let mut failed = 0u64;
        let mut last_error = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                stats.record_retry();
                let wait = self.retry.backoff(attempt - 1, u64::from(page));
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            match self.pool.pin(page, || self.load(page)) {
                Ok((access, node)) => {
                    let release = match access {
                        Access::Hit => {
                            stats.record_buffer_hit();
                            Release::Unpin
                        }
                        Access::Miss => {
                            stats.record_node_read();
                            let transient = self.transient.load(Ordering::Relaxed);
                            self.note_peak(self.pool.resident() + transient);
                            Release::Unpin
                        }
                        Access::Uncached => {
                            stats.record_node_read();
                            let transient = self.transient.fetch_add(1, Ordering::Relaxed) + 1;
                            self.note_peak(self.pool.resident() + transient);
                            Release::Transient
                        }
                    };
                    stats.record_transient_errors(failed);
                    return Ok(PagedNode {
                        storage: self,
                        page,
                        node,
                        release,
                    });
                }
                Err(LoadError::Decode(e)) => {
                    // The bytes passed their checksum but do not decode:
                    // corruption, not transient I/O. Nothing was cached
                    // or pinned; quarantine and refuse further attempts
                    // (retrying a deterministic decode cannot help).
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    let detail = format!("passed its checksum but does not decode: {e}");
                    self.quarantine_page(page, &detail, stats);
                    return Err(DiskReadError { page, detail });
                }
                Err(LoadError::Read(e)) => {
                    // Physical read failure after open. The pool counted
                    // its miss but cached nothing; no pin is held and
                    // nothing was charged to the stats — failed attempts
                    // are not node accesses.
                    failed += 1;
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    last_error = e.to_string();
                }
            }
        }
        let detail = format!("unreadable after {attempts} attempts: {last_error}");
        self.quarantine_page(page, &detail, stats);
        Err(DiskReadError { page, detail })
    }

    /// The pool's loader: one counted, checksum-verified page read and
    /// its decode. Runs under the pool lock.
    fn load(&self, page: u32) -> Result<Arc<Node>, LoadError> {
        let mut buf = [0u8; PAGE_SIZE];
        self.store.read_page(page, &mut buf).map_err(LoadError::Read)?;
        decode_node(&buf, self.n_pages)
            .map(Arc::new)
            .map_err(LoadError::Decode)
    }

    /// Raises the resident-node high-water mark to `resident`.
    fn note_peak(&self, resident: usize) {
        self.resident_peak.fetch_max(resident, Ordering::Relaxed);
    }

    /// Reads a node for bookkeeping (uncharged, unpinned): reuses a
    /// resident decode, otherwise decodes from an uncounted store read
    /// without touching the pool.
    ///
    /// Failures follow the same [`RetryPolicy`] + quarantine discipline
    /// as [`TreeStorage::try_fetch`]: uncharged does not mean
    /// unprotected — a transient blip during validation or an index open
    /// is retried, and a dead page surfaces as a typed error, never a
    /// panic. Retries are tallied in `stats` (the error counters sit
    /// outside the logical-access accounting, so the peek stays
    /// uncharged).
    pub(crate) fn try_peek(
        &self,
        page: u32,
        stats: &IoStats,
    ) -> Result<PagedNode<'_>, DiskReadError> {
        if let Some(node) = self.overlay_node(page) {
            return Ok(PagedNode {
                storage: self,
                page,
                node,
                release: Release::None,
            });
        }
        if let Some(node) = self.pool.peek(page) {
            return Ok(PagedNode {
                storage: self,
                page,
                node,
                release: Release::None,
            });
        }
        if let Some(detail) = self.quarantined_detail(page) {
            return Err(DiskReadError { page, detail });
        }
        let attempts = self.retry.attempts();
        let mut failed = 0u64;
        let mut last_error = String::new();
        let mut buf = [0u8; PAGE_SIZE];
        for attempt in 0..attempts {
            if attempt > 0 {
                stats.record_retry();
                let wait = self.retry.backoff(attempt - 1, u64::from(page));
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            match self.store.read_page_uncounted(page, &mut buf) {
                Ok(()) => {
                    let node = match decode_node(&buf, self.n_pages) {
                        Ok(node) => node,
                        Err(e) => {
                            self.io_errors.fetch_add(1, Ordering::Relaxed);
                            let detail =
                                format!("passed its checksum but does not decode: {e}");
                            self.quarantine_page(page, &detail, stats);
                            return Err(DiskReadError { page, detail });
                        }
                    };
                    stats.record_transient_errors(failed);
                    return Ok(PagedNode {
                        storage: self,
                        page,
                        node: Arc::new(node),
                        release: Release::None,
                    });
                }
                Err(e) => {
                    failed += 1;
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    last_error = e.to_string();
                }
            }
        }
        let detail = format!("unreadable after {attempts} attempts: {last_error}");
        self.quarantine_page(page, &detail, stats);
        Err(DiskReadError { page, detail })
    }

    /// Locks the quarantine map, recovering from poisoning (entries are
    /// only ever whole inserts).
    fn lock_quarantine(&self) -> MutexGuard<'_, HashMap<u32, String>> {
        self.quarantine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The quarantine entry for `page`, if any.
    fn quarantined_detail(&self, page: u32) -> Option<String> {
        self.lock_quarantine().get(&page).cloned()
    }

    /// Quarantines `page` with its last error, counting the page in
    /// [`IoStats::quarantined_pages`] on first entry only.
    fn quarantine_page(&self, page: u32, detail: &str, stats: &IoStats) {
        if self.lock_quarantine().insert(page, detail.to_string()).is_none() {
            stats.record_quarantined();
        }
    }

    /// The quarantined pages (id + last error), sorted by page id.
    /// Empty on a healthy store; cleared by [`TreeStorage::reset`].
    pub fn quarantine(&self) -> Vec<(u32, String)> {
        let mut q: Vec<(u32, String)> =
            self.lock_quarantine().iter().map(|(&p, d)| (p, d.clone())).collect();
        q.sort_unstable_by_key(|&(p, _)| p);
        q
    }

    /// Level of the root node (captured at open; leaves are level 0).
    pub(crate) fn root_level(&self) -> u32 {
        self.root_level
    }

    /// MBR of the root node (captured at open).
    pub(crate) fn root_mbr(&self) -> Rect {
        self.root_mbr
    }

    /// Number of pages = nodes in the file (captured at open).
    pub(crate) fn node_count(&self) -> usize {
        self.node_count
    }

    /// Buffer pool counters and occupancy.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// High-water mark of simultaneously resident decoded nodes (one
    /// per pool frame + live transient decodes). With a pool of `C`
    /// frames and `C ≥` tree height this never exceeds `C` — the bound
    /// the demand pager exists to provide.
    ///
    /// It does not count decoded nodes a query's
    /// [`NodeMemo`](crate::NodeMemo) keeps alive after the pool evicted
    /// their page: an IWP search behind a small pool holds up to one
    /// such node per node it read, until it returns. No counter tracks
    /// those (DESIGN.md §4m).
    pub fn peak_resident_nodes(&self) -> usize {
        self.resident_peak.load(Ordering::Relaxed)
    }

    /// Physical page reads issued to the backing store (page fetches on
    /// pool misses; the open-time scan and bookkeeping reads are
    /// excluded).
    pub fn physical_reads(&self) -> u64 {
        self.store.physical_reads()
    }

    /// Page reads that failed after open (0 on a healthy store).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Drops every buffered node and zeroes the pool, store and
    /// residency counters: the next access sequence measures from a
    /// cold buffer.
    pub fn reset(&self) {
        self.pool.clear();
        self.pool.reset_stats();
        self.store.reset_counters();
        self.io_errors.store(0, Ordering::Relaxed);
        self.resident_peak.store(0, Ordering::Relaxed);
        self.lock_quarantine().clear();
    }

    // ------------------------------------------------------------------
    // Writable mode: dirty-node overlay + shadow commit.
    // ------------------------------------------------------------------

    /// Whether this tree supports the mutation + commit path (the
    /// backing store is writable; see the module docs, "Writable
    /// mode").
    pub fn is_writable(&self) -> bool {
        self.write.is_some()
    }

    /// Dirty nodes awaiting [`RStarTree::commit`] (0 on a clean or
    /// read-only tree).
    pub fn dirty_nodes(&self) -> usize {
        self.write.as_ref().map_or(0, |w| w.overlay.len())
    }

    /// Pages recyclable by the next commit without growing the file.
    pub fn free_pages(&self) -> usize {
        self.write.as_ref().map_or(0, |w| w.free_now.len())
    }

    /// The overlay's copy of a node, if dirty.
    fn overlay_node(&self, page: u32) -> Option<Arc<Node>> {
        self.write.as_ref().and_then(|w| w.overlay.get(&page).cloned())
    }

    /// Whether `page` is dirty (overlay-resident).
    pub(crate) fn overlay_contains(&self, page: u32) -> bool {
        self.write.as_ref().is_some_and(|w| w.overlay.contains_key(&page))
    }

    /// MBR of a dirty node; `None` when the node is clean (its exact
    /// MBR then lives in the parent's branch, kept fresh by every
    /// mutation sync point).
    pub(crate) fn overlay_mbr(&self, page: u32) -> Option<Rect> {
        self.write
            .as_ref()
            .and_then(|w| w.overlay.get(&page).map(|n| n.mbr))
    }

    /// Borrows a dirty node. The mutation layer faults every node it
    /// touches *before* reading it through here; a miss is a bug in
    /// that discipline, funneled through the crate's read-failure
    /// adapter (this file stays panic-free).
    pub(crate) fn overlay_ref(&self, page: u32) -> &Node {
        match self.write.as_ref().and_then(|w| w.overlay.get(&page)) {
            Some(node) => node,
            None => crate::tree::read_failure(format!("node {page} was not faulted for write")),
        }
    }

    /// Mutably borrows a dirty node, cloning on first write while the
    /// decode is still shared with the buffer pool (clone-on-write).
    pub(crate) fn overlay_mut(&mut self, page: u32) -> &mut Node {
        match self.write.as_mut().and_then(|w| w.overlay.get_mut(&page)) {
            Some(arc) => Arc::make_mut(arc),
            None => crate::tree::read_failure(format!("node {page} was not faulted for write")),
        }
    }

    /// Admits a committed node into the overlay. The `Arc` stays
    /// shared with the buffer pool until the first real mutation; the
    /// node's committed page is marked for recycling after the next
    /// commit (shadow paging never overwrites it in place).
    pub(crate) fn fault_node(&mut self, page: u32, node: Arc<Node>) {
        if let Some(w) = self.write.as_mut() {
            debug_assert!(!w.overlay.contains_key(&page), "double fault of node {page}");
            w.overlay.insert(page, node);
            w.freed_pending.push(page);
        }
    }

    /// Allocates a fresh dirty node under a temporary id (counted down
    /// from `u32::MAX`; committed page ids can never reach it).
    pub(crate) fn alloc_temp(&mut self, node: Node) -> u32 {
        self.node_count += 1;
        match self.write.as_mut() {
            Some(w) => {
                let id = w.next_temp;
                w.next_temp -= 1;
                w.overlay.insert(id, Arc::new(node));
                id
            }
            None => crate::tree::read_failure("node allocation on a read-only disk tree"),
        }
    }

    /// Releases a node removed from the tree: a temp node vanishes, a
    /// committed page joins the pending free list.
    pub(crate) fn free_node(&mut self, page: u32) {
        self.node_count -= 1;
        let n_pages = self.n_pages;
        if let Some(w) = self.write.as_mut() {
            // A faulted page is already in `freed_pending` (pushed at
            // fault time); a clean page freed wholesale gets added now.
            if w.overlay.remove(&page).is_none() && page < n_pages {
                w.freed_pending.push(page);
            }
        }
    }

    /// Refreshes the cached root metadata after a mutation (the root
    /// id, level, and MBR can all change).
    pub(crate) fn set_root_meta(&mut self, level: u32, mbr: Rect) {
        self.root_level = level;
        self.root_mbr = mbr;
    }

    /// Writes every dirty node to a shadow page, atomically flips the
    /// store's committed root, and reconciles the caches. Returns the
    /// new root page id.
    ///
    /// On error nothing is lost: the committed tree on disk is intact,
    /// the overlay is untouched, and every shadow page written so far
    /// is unreachable from the committed root — the commit can simply
    /// be retried (or the tree discarded).
    pub(crate) fn commit_overlay(
        &mut self,
        root: u32,
        user: [u64; 4],
    ) -> Result<u32, DiskReadError> {
        if self.write.is_none() {
            return Err(DiskReadError {
                page: root,
                detail: "tree is not writable".to_string(),
            });
        }
        if self.write.as_ref().is_some_and(|w| w.overlay.is_empty()) {
            return Ok(root); // clean tree: nothing to flip
        }
        // Assign a shadow page to every dirty node: recycle the free
        // list first, grow the file tail for the shortfall. Both sides
        // sorted, so the assignment is deterministic for a given
        // mutation history.
        let mut ids: Vec<u32> = Vec::new();
        let mut pool: Vec<u32> = Vec::new();
        if let Some(w) = self.write.as_mut() {
            debug_assert!(w.overlay.contains_key(&root), "dirty tree with a clean root");
            ids.extend(w.overlay.keys().copied());
            pool = std::mem::take(&mut w.free_now);
        }
        ids.sort_unstable();
        pool.sort_unstable();
        let shortfall = ids.len().saturating_sub(pool.len());
        if shortfall > 0 {
            match self.store.grow(shortfall as u32) {
                Ok(first) => pool.extend(first..first + shortfall as u32),
                Err(e) => {
                    if let Some(w) = self.write.as_mut() {
                        w.free_now = pool;
                    }
                    return Err(DiskReadError {
                        page: root,
                        detail: format!("growing the file by {shortfall} pages: {e}"),
                    });
                }
            }
        }
        let remap: HashMap<u32, u32> = ids.iter().copied().zip(pool.iter().copied()).collect();
        let mut failed: Option<DiskReadError> = None;
        let mut new_root = root;
        if let Some(w) = self.write.as_ref() {
            // Dirty children point at their shadow page, clean
            // children at the page they already live on.
            let child_page = |child: NodeId| remap.get(&child.0).copied().unwrap_or(child.0);
            for &old in &ids {
                let (Some(node), Some(&dest)) = (w.overlay.get(&old), remap.get(&old)) else {
                    continue;
                };
                let buf = encode_node(node, child_page);
                if let Err(e) = self.store.write_page(dest, &buf) {
                    failed = Some(DiskReadError {
                        page: dest,
                        detail: format!("shadow page write: {e}"),
                    });
                    break;
                }
            }
            if failed.is_none() {
                new_root = remap.get(&root).copied().unwrap_or(root);
                if let Err(e) = self.store.commit(new_root, user) {
                    failed = Some(DiskReadError {
                        page: new_root,
                        detail: format!("root flip: {e}"),
                    });
                }
            }
        }
        if let Some(err) = failed {
            // Restore the allocator: the grown and already-written
            // shadow pages are unreachable from the committed root, so
            // all of them stay recyclable. The overlay is untouched.
            if let Some(w) = self.write.as_mut() {
                w.free_now = pool;
            }
            return Err(err);
        }
        // The flip is durable; reconcile the in-memory state.
        self.n_pages = self.store.meta().page_count;
        let leftover = pool.split_off(ids.len()); // unused allocations
        let mut freed: Vec<u32> = Vec::new();
        if let Some(w) = self.write.as_mut() {
            freed = std::mem::take(&mut w.freed_pending);
            w.free_now = leftover;
            w.free_now.extend(freed.iter().copied());
            w.overlay.clear();
            w.next_temp = u32::MAX;
        }
        // Cache coherence: frames for the vacated pages describe the
        // pre-commit tree — drop them. Shadow pages were written behind the pool, so recycled ids
        // must not survive there either.
        for &p in freed.iter().chain(pool.iter()) {
            self.pool.evict_page(p);
        }
        // A durable flip also invalidates the quarantine: vacated ids
        // can come back with fresh content (see ISSUE: recycled ids
        // must not fail fast on a stale entry).
        self.lock_quarantine().clear();
        Ok(new_root)
    }
}

/// The four header words a tree file carries: its `TreeParams` and
/// its object count.
fn header_words(params: &TreeParams, len: usize) -> [u64; 4] {
    [
        params.max_entries as u64,
        params.min_entries as u64,
        params.reinsert_count as u64,
        len as u64,
    ]
}

/// Rejects a fanout whose full node would not fit one page: saving it
/// would overrun the page, and so would committing a node after an
/// insert into a tree opened from a header that claims it.
fn check_fanout_fits_a_page(params: &TreeParams) -> Result<(), DiskError> {
    if params.max_entries > page_capacity_leaf().min(page_capacity_internal()) {
        return Err(DiskError::BadParams("fanout does not fit a 4096-byte page"));
    }
    Ok(())
}

impl RStarTree {
    /// Serializes this tree into an on-disk page file at `path`, one
    /// page per node in clustered order (see [`crate::page`]), and
    /// syncs it to stable storage. The replacement is atomic: the pages
    /// are staged in a sibling temp file and renamed over `path` only
    /// after a full sync, so a crash mid-save leaves any previous file
    /// intact. Reopened with write permission, the file supports
    /// in-place mutation through shadow-paged commits (see the module
    /// docs, "Writable mode"); on a writable disk-backed tree the save
    /// also snapshots any uncommitted overlay state.
    ///
    /// Returns [`DiskError::BadParams`] when the tree's fanout does not
    /// fit a page (the paper's 50 always fits); the open refuses such a
    /// header the same way.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), DiskError> {
        check_fanout_fits_a_page(&self.params)?;
        let (root, pages) = self.encode_pages();
        FileStore::create(path.as_ref(), root, header_words(&self.params, self.len()), &pages)?;
        Ok(())
    }

    /// Durably commits every pending mutation of a writable disk-backed
    /// tree: dirty nodes are written to freshly allocated shadow pages,
    /// the committed root flips atomically in the file header, and the
    /// vacated pages become recyclable by the next commit. A crash at
    /// any point leaves the file opening as exactly the old or the new
    /// tree, never a torn mix.
    ///
    /// No-op `Ok` on an arena tree (arena mutations need no commit) and
    /// on a clean tree; [`TreeError::ReadOnly`] on a read-only
    /// disk-backed tree. On `Err(Io)` the on-disk tree and the
    /// in-memory overlay are both intact: the commit can be retried, or
    /// the tree dropped and reopened at the last committed state.
    pub fn commit(&mut self) -> Result<(), TreeError> {
        let root = self.root.0;
        let user = header_words(&self.params, self.len);
        match self.storage.as_deref_mut() {
            None => Ok(()),
            Some(s) if !s.is_writable() => Err(TreeError::ReadOnly),
            Some(s) => {
                let new_root = s.commit_overlay(root, user).map_err(TreeError::Io)?;
                self.root = NodeId(new_root);
                Ok(())
            }
        }
    }

    /// Opens a page file written by [`RStarTree::save_to_path`] as a
    /// disk-backed, demand-paged tree — writable when the file opens
    /// with write permission (see the module docs, "Writable mode").
    ///
    /// `pool_capacity` bounds the buffer pool in pages — and with it
    /// the resident decoded nodes (see the module docs); `None` means
    /// unbounded (every page misses once, then always hits). The open
    /// itself reads and checksum-verifies every page reachable from the
    /// root and validates the tree structure; those reads are *not*
    /// counted — the store and pool counters start at zero so the first
    /// query measures a cold buffer.
    pub fn open_from_path(
        path: impl AsRef<Path>,
        pool_capacity: Option<usize>,
    ) -> Result<RStarTree, DiskError> {
        RStarTree::open_from_path_with(
            path,
            DiskOptions {
                pool_capacity,
                ..DiskOptions::default()
            },
        )
    }

    /// As [`RStarTree::open_from_path`], with full control over the
    /// buffer pool and retry policy (see [`DiskOptions`]).
    pub fn open_from_path_with(
        path: impl AsRef<Path>,
        options: DiskOptions,
    ) -> Result<RStarTree, DiskError> {
        let store = FileStore::open(path.as_ref())?;
        RStarTree::open_from_store_with(Box::new(store), options)
    }

    /// As [`RStarTree::open_from_path`], over any [`PageStore`]
    /// implementation (e.g. a [`nwc_store::MemStore`] in tests).
    pub fn open_from_store(
        store: Box<dyn PageStore>,
        pool_capacity: Option<usize>,
    ) -> Result<RStarTree, DiskError> {
        RStarTree::open_from_store_with(
            store,
            DiskOptions {
                pool_capacity,
                ..DiskOptions::default()
            },
        )
    }

    /// As [`RStarTree::open_from_store`], with full control over the
    /// buffer pool and retry policy (see [`DiskOptions`]).
    pub fn open_from_store_with(
        store: Box<dyn PageStore>,
        options: DiskOptions,
    ) -> Result<RStarTree, DiskError> {
        let capacity = options.pool_capacity.unwrap_or(usize::MAX);
        if capacity == 0 {
            return Err(DiskError::BadParams("pool capacity must be at least one frame"));
        }
        let meta = store.meta();
        let [max_entries, min_entries, packed_reinsert, stored_len] = meta.user;
        // Files from earlier builds carry a page-order tag in the top
        // byte of this word; it never affected decoding.
        let reinsert_count = packed_reinsert & ((1u64 << 56) - 1);
        let params = TreeParams {
            max_entries: usize::try_from(max_entries)
                .map_err(|_| DiskError::BadParams("max_entries overflows usize"))?,
            min_entries: usize::try_from(min_entries)
                .map_err(|_| DiskError::BadParams("min_entries overflows usize"))?,
            reinsert_count: usize::try_from(reinsert_count)
                .map_err(|_| DiskError::BadParams("reinsert_count overflows usize"))?,
        };
        params.check().map_err(DiskError::BadParams)?;
        check_fanout_fits_a_page(&params)?;

        let n_pages = meta.page_count;
        if n_pages == 0 || meta.root_page >= n_pages {
            return Err(DiskError::Page(PageError::BadRoot));
        }

        // Validation scan: decode every reachable page once (checksummed
        // read), checking the cross-page invariants the per-page decoder
        // cannot — level succession, parent-declared child MBRs matching
        // the child's header, acyclicity — and capturing the root
        // metadata + entry count. Nothing is retained: the tree starts
        // with zero resident nodes.
        let mut seen = vec![false; n_pages as usize];
        let mut buf = [0u8; PAGE_SIZE];
        let mut len = 0usize;
        let mut node_count = 0usize;
        let mut root_level = 0u32;
        let mut root_mbr = Rect::from_point(Point::ORIGIN);
        // (page, what the parent's branch declared: level and MBR).
        let mut stack: Vec<(u32, Option<(u32, Rect)>)> = vec![(meta.root_page, None)];
        while let Some((page, declared)) = stack.pop() {
            if seen[page as usize] {
                return Err(DiskError::Page(PageError::Cycle(page)));
            }
            seen[page as usize] = true;
            store.read_page(page, &mut buf)?;
            let node = decode_node(&buf, n_pages)?;
            match declared {
                Some((level, mbr)) => {
                    if node.level != level {
                        return Err(DiskError::Page(PageError::Invalid(
                            "child level is not parent level - 1",
                        )));
                    }
                    if node.mbr != mbr {
                        return Err(DiskError::Page(PageError::Invalid(
                            "parent-declared child MBR mismatch",
                        )));
                    }
                }
                None => {
                    root_level = node.level;
                    root_mbr = node.mbr;
                }
            }
            node_count += 1;
            match &node.kind {
                NodeKind::Leaf(entries) => len += entries.len(),
                NodeKind::Internal(branches) => {
                    for b in branches {
                        stack.push((b.child.0, Some((node.level - 1, b.mbr))));
                    }
                }
            }
        }
        // Unreachable pages are the *free list*: recyclable slack that
        // may hold torn bytes from a crashed shadow commit. They are
        // never read, only overwritten, so they are exempt from the
        // integrity gate whether or not this store can write.
        if stored_len != len as u64 {
            return Err(DiskError::Page(PageError::Invalid(
                "stored object count does not match leaf entries",
            )));
        }
        // The open scan is setup cost, not query I/O.
        store.reset_counters();

        let mut tree = RStarTree::with_params(params);
        tree.nodes.clear();
        tree.free.clear();
        tree.root = NodeId(meta.root_page);
        tree.len = len;
        let writable = store.is_writable();
        tree.storage = Some(Box::new(TreeStorage {
            store,
            pool: BufferPool::new(capacity),
            resident_peak: AtomicUsize::new(0),
            transient: AtomicUsize::new(0),
            n_pages,
            root_level,
            root_mbr,
            node_count,
            io_errors: AtomicU64::new(0),
            retry: options.retry,
            quarantine: Mutex::new(HashMap::new()),
            write: writable.then(|| {
                WriteState::new((0..n_pages).filter(|&p| !seen[p as usize]).collect())
            }),
        }));
        Ok(tree)
    }

    /// The storage layer of a disk-backed tree, or `None` for an
    /// arena-only tree.
    pub fn storage(&self) -> Option<&TreeStorage> {
        self.storage.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeError;
    use nwc_geom::{pt, rect};
    use nwc_store::MemStore;

    fn sample_tree(n: usize) -> RStarTree {
        let pts: Vec<_> = (0..n)
            .map(|i| pt(((i * 31) % 499) as f64, ((i * 57) % 491) as f64))
            .collect();
        RStarTree::bulk_load(&pts)
    }

    /// A read-only store holding the pages `save_to_path` would write.
    fn mem_store_of(tree: &RStarTree) -> MemStore {
        let (root, pages) = tree.encode_pages();
        MemStore::new(pages, root, header_words(tree.params(), tree.len())).unwrap()
    }

    #[test]
    fn save_open_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("nwc-disk-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.nwc");
        let tree = sample_tree(2000);
        tree.save_to_path(&path).unwrap();
        let disk = RStarTree::open_from_path(&path, None).unwrap();
        assert_eq!(disk.len(), tree.len());
        assert_eq!(disk.height(), tree.height());
        crate::validate::check_invariants(&disk).unwrap();
        // Validation peeks charge nothing: counters still pristine.
        let s = disk.storage().unwrap().pool_stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(disk.storage().unwrap().physical_reads(), 0);
        let w = rect(100.0, 100.0, 300.0, 280.0);
        let mut a: Vec<u32> = tree.window_query(&w).iter().map(|e| e.id).collect();
        let mut b: Vec<u32> = disk.window_query(&w).iter().map(|e| e.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbounded_pool_misses_each_page_once() {
        let tree = sample_tree(3000);
        let pages = tree.node_count();
        let disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), None).unwrap();
        // Open-time scan must not pollute the counters.
        assert_eq!(disk.storage().unwrap().physical_reads(), 0);
        let w = rect(0.0, 0.0, 499.0, 491.0); // covers everything
        disk.window_query(&w);
        disk.window_query(&w);
        let s = disk.storage().unwrap().pool_stats();
        assert_eq!(s.misses as usize, pages, "each page faults exactly once");
        assert_eq!(s.hits as usize, pages, "second pass all hits");
        assert_eq!(disk.storage().unwrap().physical_reads(), s.misses);
        // Logical access counts match the arena tree's.
        tree.stats().reset();
        tree.window_query(&w);
        tree.window_query(&w);
        assert_eq!(disk.stats().accesses(), tree.stats().node_reads());
    }

    #[test]
    fn tiny_pool_thrashes_but_answers_identically() {
        // Capacity 2: the pinned root occupies one frame, the second
        // churns through the rest of this height-3 tree.
        let tree = sample_tree(3000);
        let disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), Some(2)).unwrap();
        for w in [
            rect(0.0, 0.0, 120.0, 120.0),
            rect(200.0, 150.0, 340.0, 400.0),
        ] {
            let mut a: Vec<u32> = tree.window_query(&w).iter().map(|e| e.id).collect();
            let mut b: Vec<u32> = disk.window_query(&w).iter().map(|e| e.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let s = disk.storage().unwrap().pool_stats();
        assert!(s.evictions > 0, "capacity 2 on a deep descent must evict");
        assert_eq!(disk.storage().unwrap().io_errors(), 0);
    }

    #[test]
    fn pool_capacity_bounds_resident_nodes() {
        let tree = sample_tree(3000);
        assert!(tree.height() <= 4, "test assumes capacity >= height");
        let cap = 4usize;
        let disk =
            RStarTree::open_from_store(Box::new(mem_store_of(&tree)), Some(cap)).unwrap();
        for w in [
            rect(0.0, 0.0, 499.0, 491.0),
            rect(10.0, 10.0, 250.0, 250.0),
            rect(300.0, 5.0, 480.0, 470.0),
        ] {
            disk.window_query(&w);
        }
        let storage = disk.storage().unwrap();
        let peak = storage.peak_resident_nodes();
        assert!(peak > 0, "queries must have decoded something");
        assert!(peak <= cap, "peak resident nodes {peak} exceeds pool capacity {cap}");
        assert!(storage.pool_stats().evictions > 0, "the tree outsizes the pool");
    }

    #[test]
    fn reset_restores_cold_buffer() {
        let tree = sample_tree(1000);
        let disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), None).unwrap();
        let w = rect(0.0, 0.0, 499.0, 491.0);
        disk.window_query(&w);
        let storage = disk.storage().unwrap();
        let warm = storage.pool_stats();
        assert!(warm.misses > 0);
        assert!(storage.peak_resident_nodes() > 0);
        storage.reset();
        let cold = storage.pool_stats();
        assert_eq!((cold.hits, cold.misses, cold.resident), (0, 0, 0));
        assert_eq!(storage.peak_resident_nodes(), 0);
        disk.window_query(&w);
        assert_eq!(storage.pool_stats().misses, warm.misses, "cold again");
    }

    #[test]
    fn bad_params_in_header_rejected() {
        let (root, pages) = sample_tree(100).encode_pages();
        // max_entries = 1 is not a legal R*-tree fanout.
        let store = MemStore::new(pages, root, [1, 0, 0, 0]).unwrap();
        match RStarTree::open_from_store(Box::new(store), None) {
            Err(DiskError::BadParams(_)) => {}
            other => panic!("expected BadParams, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn fanout_beyond_a_page_is_rejected_at_save_and_open() {
        let params = TreeParams::with_max_entries(page_capacity_internal() + 1);
        let pts: Vec<_> = (0..10).map(|i| pt(i as f64, i as f64)).collect();
        let tree = RStarTree::bulk_load_with_params(&pts, params);
        let path = std::env::temp_dir()
            .join(format!("nwc-disk-fanout-too-wide-{}", std::process::id()));
        match tree.save_to_path(&path) {
            Err(DiskError::BadParams(_)) => {}
            other => panic!("expected BadParams, got {other:?}"),
        }
        assert!(!path.exists(), "a refused save writes nothing");

        // A header claiming that fanout over valid pages: a later
        // insert could fill a node past the page, so the open refuses.
        let small = sample_tree(100);
        let (root, pages) = small.encode_pages();
        let store = MemStore::new(pages, root, header_words(&params, small.len())).unwrap();
        match RStarTree::open_from_store(Box::new(store), None) {
            Err(DiskError::BadParams(_)) => {}
            other => panic!("expected BadParams, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn zero_pool_capacity_rejected_at_open() {
        let store = mem_store_of(&sample_tree(100));
        match RStarTree::open_from_store(Box::new(store), Some(0)) {
            Err(DiskError::BadParams(_)) => {}
            other => panic!("expected BadParams, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn corrupt_page_rejected_at_open() {
        let tree = sample_tree(500);
        let mut store = mem_store_of(&tree);
        store.page_mut(0).unwrap()[0] = 9; // neither leaf nor internal
        match RStarTree::open_from_store(Box::new(store), None) {
            Err(DiskError::Page(PageError::BadTag(9))) => {}
            other => panic!("expected BadTag, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn wrong_stored_len_rejected_at_open() {
        let tree = sample_tree(300);
        let (root, pages) = tree.encode_pages();
        let store = MemStore::new(pages, root, header_words(tree.params(), tree.len() + 1)).unwrap();
        match RStarTree::open_from_store(Box::new(store), None) {
            Err(DiskError::Page(PageError::Invalid(_))) => {}
            other => panic!("expected Invalid, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn clustered_pages_roundtrip_through_store() {
        let tree = sample_tree(3000);
        let disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), None).unwrap();
        crate::validate::check_invariants(&disk).unwrap();
        let w = rect(50.0, 40.0, 350.0, 300.0);
        let mut a: Vec<u32> = tree.window_query(&w).iter().map(|e| e.id).collect();
        let mut b: Vec<u32> = disk.window_query(&w).iter().map(|e| e.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Relabeling pages must not change logical I/O.
        tree.stats().reset();
        tree.window_query(&w);
        assert_eq!(disk.stats().accesses(), tree.stats().node_reads());
    }

    #[test]
    fn transient_fault_is_retried_and_recovered() {
        use nwc_store::{FaultPlan, FaultStore, RetryPolicy};
        let tree = sample_tree(2000);
        let fault = std::sync::Arc::new(FaultStore::new(mem_store_of(&tree), FaultPlan::default()));
        let disk = RStarTree::open_from_store_with(
            Box::new(std::sync::Arc::clone(&fault)),
            DiskOptions {
                retry: RetryPolicy { base_backoff: std::time::Duration::ZERO, ..RetryPolicy::default() },
                ..DiskOptions::default()
            },
        )
        .unwrap();
        // Fail the root page twice: attempts 1 and 2 error, attempt 3
        // succeeds within the default budget of 4.
        let root = disk.root().0;
        fault.fail_page_transiently(root, 2);
        let w = rect(0.0, 0.0, 499.0, 491.0);
        let mut got: Vec<u32> = disk.window_query(&w).iter().map(|e| e.id).collect();
        got.sort_unstable();
        assert_eq!(got.len(), tree.len(), "answers survive transient faults");
        assert_eq!(disk.stats().retries(), 2);
        assert_eq!(disk.stats().transient_errors(), 2);
        assert_eq!(disk.stats().quarantined_pages(), 0);
        assert_eq!(disk.storage().unwrap().io_errors(), 2);
        assert!(disk.storage().unwrap().quarantine().is_empty());
        // Logical I/O is what the arena charges — failed attempts are
        // not node accesses.
        tree.stats().reset();
        tree.window_query(&w);
        assert_eq!(disk.stats().accesses(), tree.stats().node_reads());
    }

    #[test]
    fn permanent_fault_returns_typed_error_and_quarantines() {
        use nwc_store::{FaultPlan, FaultStore, RetryPolicy};
        let tree = sample_tree(2000);
        let fault = std::sync::Arc::new(FaultStore::new(mem_store_of(&tree), FaultPlan::default()));
        let disk = RStarTree::open_from_store_with(
            Box::new(std::sync::Arc::clone(&fault)),
            DiskOptions {
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: std::time::Duration::ZERO,
                    max_backoff: std::time::Duration::ZERO,
                },
                ..DiskOptions::default()
            },
        )
        .unwrap();
        let root = disk.root().0;
        fault.fail_page_permanently(root);
        let w = rect(0.0, 0.0, 499.0, 491.0);
        let err = disk.try_window_query(&w).unwrap_err();
        match &err {
            TreeError::Io(e) => {
                assert_eq!(e.page, root);
                assert!(e.detail.contains("after 3 attempts"), "{}", e.detail);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        // Budget: 1 first attempt + 2 retries, all failed, none
        // recovered; the page is quarantined.
        assert_eq!(disk.stats().retries(), 2);
        assert_eq!(disk.stats().transient_errors(), 0);
        assert_eq!(disk.stats().quarantined_pages(), 1);
        assert_eq!(disk.storage().unwrap().io_errors(), 3);
        let q = disk.storage().unwrap().quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, root);
        // A second query fails fast: no new device attempts, no new
        // quarantine tick.
        let before = fault.stats().errors();
        assert!(disk.try_window_query(&w).is_err());
        assert_eq!(fault.stats().errors(), before, "quarantine fails fast");
        assert_eq!(disk.stats().quarantined_pages(), 1);
        // No pins leaked on the error path.
        assert_eq!(disk.storage().unwrap().pool_stats().pinned, 0);
        // reset() lifts the quarantine; with the fault cleared the tree
        // serves again.
        fault.clear_faults();
        disk.storage().unwrap().reset();
        disk.stats().reset();
        assert!(disk.storage().unwrap().quarantine().is_empty());
        let mut got: Vec<u32> = disk.window_query(&w).iter().map(|e| e.id).collect();
        got.sort_unstable();
        assert_eq!(got.len(), tree.len());
    }

    #[test]
    fn bit_rot_is_quarantined_without_retry() {
        use nwc_store::{FaultPlan, FaultStore, RetryPolicy};
        let tree = sample_tree(2000);
        let fault = std::sync::Arc::new(FaultStore::new(mem_store_of(&tree), FaultPlan::default()));
        let disk = RStarTree::open_from_store_with(
            Box::new(std::sync::Arc::clone(&fault)),
            DiskOptions {
                retry: RetryPolicy { base_backoff: std::time::Duration::ZERO, ..RetryPolicy::default() },
                ..DiskOptions::default()
            },
        )
        .unwrap();
        let root = disk.root().0;
        fault.rot_page(root);
        let err = disk.try_window_query(&rect(0.0, 0.0, 499.0, 491.0)).unwrap_err();
        match &err {
            TreeError::Io(e) => {
                assert_eq!(e.page, root);
                assert!(e.detail.contains("does not decode"), "{}", e.detail);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        // Corruption is deterministic: no retry spent on it.
        assert_eq!(disk.stats().retries(), 0);
        assert_eq!(disk.stats().quarantined_pages(), 1);
        assert_eq!(disk.storage().unwrap().pool_stats().pinned, 0, "pin released");
    }

    #[test]
    fn bookkeeping_peek_retries_instead_of_panicking() {
        // Regression: the peek path used to fail on the first error with
        // no retry. Index opens and validation go through peek, so a
        // single transient blip would have killed them.
        use nwc_store::{FaultPlan, FaultStore, RetryPolicy};
        let tree = sample_tree(2000);
        let fault = std::sync::Arc::new(FaultStore::new(mem_store_of(&tree), FaultPlan::default()));
        let disk = RStarTree::open_from_store_with(
            Box::new(std::sync::Arc::clone(&fault)),
            DiskOptions {
                retry: RetryPolicy { base_backoff: std::time::Duration::ZERO, ..RetryPolicy::default() },
                ..DiskOptions::default()
            },
        )
        .unwrap();
        let root = disk.root().0;
        // Nothing is resident (no query ran), so the peek must hit the
        // store — and survive two transient failures.
        fault.fail_page_transiently(root, 2);
        // `node_len` always goes through the peek path (unlike
        // `node_level`, which answers for the root from bookkeeping).
        assert!(disk.node_len(disk.root()) > 0);
        assert_eq!(disk.stats().retries(), 2);
        assert_eq!(disk.stats().transient_errors(), 2);
        // Peeks stay uncharged even when they retry.
        assert_eq!(disk.stats().accesses(), 0);
    }

    #[test]
    fn disk_backed_tree_rejects_insert_with_typed_error() {
        let tree = sample_tree(100);
        let mut disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), None).unwrap();
        assert_eq!(disk.insert(999, pt(1.0, 1.0)), Err(TreeError::ReadOnly));
        assert_eq!(disk.len(), 100, "failed insert must not change the tree");
    }

    #[test]
    fn disk_backed_tree_rejects_delete_with_typed_error() {
        let tree = sample_tree(100);
        let mut disk = RStarTree::open_from_store(Box::new(mem_store_of(&tree)), None).unwrap();
        assert_eq!(disk.delete(0, pt(0.0, 0.0)), Err(TreeError::ReadOnly));
        assert_eq!(disk.len(), 100, "failed delete must not change the tree");
    }

    /// A writable `MemStore` sharing the committed pages of `tree`,
    /// wrapped in `Arc` so tests can reopen the same store after a
    /// commit (simulating a process restart without a filesystem).
    fn writable_store_of(tree: &RStarTree) -> Arc<MemStore> {
        let (root, pages) = tree.encode_pages();
        let user = header_words(tree.params(), tree.len());
        Arc::new(MemStore::new_writable(pages, root, user).unwrap())
    }

    fn ids_in(tree: &RStarTree, w: &Rect) -> Vec<u32> {
        let mut ids: Vec<u32> = tree.window_query(w).iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn writable_tree_insert_delete_commit_reopen() {
        let base = sample_tree(400);
        let store = writable_store_of(&base);
        let mut disk =
            RStarTree::open_from_store(Box::new(Arc::clone(&store)), None).unwrap();
        assert!(disk.storage().unwrap().is_writable());

        // Mirror every mutation on an arena twin built from the same
        // base so answers can be compared against ground truth.
        let mut twin = RStarTree::bulk_load(
            &(0..400)
                .map(|i| pt(((i * 31) % 499) as f64, ((i * 57) % 491) as f64))
                .collect::<Vec<_>>(),
        );
        for i in 0..80u32 {
            let p = pt(600.0 + i as f64, 600.0 + ((i * 7) % 50) as f64);
            disk.insert(10_000 + i, p).unwrap();
            twin.insert(10_000 + i, p).unwrap();
        }
        for i in 0..40u32 {
            let p = pt(((i * 31) % 499) as f64, ((i * 57) % 491) as f64);
            assert!(disk.delete(i, p).unwrap());
            assert!(twin.delete(i, p).unwrap());
        }
        crate::validate::check_invariants(&disk).unwrap();
        let everything = rect(-10.0, -10.0, 1000.0, 1000.0);
        assert_eq!(ids_in(&disk, &everything), ids_in(&twin, &everything));

        disk.commit().unwrap();
        crate::validate::check_invariants(&disk).unwrap();
        assert_eq!(disk.storage().unwrap().dirty_nodes(), 0, "commit clears the overlay");
        assert_eq!(ids_in(&disk, &everything), ids_in(&twin, &everything));

        // "Restart": reopen the committed store from scratch.
        drop(disk);
        let reopened =
            RStarTree::open_from_store(Box::new(Arc::clone(&store)), None).unwrap();
        assert_eq!(reopened.len(), twin.len());
        crate::validate::check_invariants(&reopened).unwrap();
        assert_eq!(ids_in(&reopened, &everything), ids_in(&twin, &everything));
        for w in [
            rect(0.0, 0.0, 120.0, 120.0),
            rect(200.0, 150.0, 340.0, 400.0),
            rect(590.0, 590.0, 700.0, 700.0),
        ] {
            assert_eq!(ids_in(&reopened, &w), ids_in(&twin, &w));
        }
    }

    #[test]
    fn uncommitted_mutations_are_invisible_after_reopen() {
        let base = sample_tree(300);
        let store = writable_store_of(&base);
        let mut disk =
            RStarTree::open_from_store(Box::new(Arc::clone(&store)), None).unwrap();
        disk.insert(9999, pt(777.0, 777.0)).unwrap();
        assert!(disk.storage().unwrap().dirty_nodes() > 0);
        drop(disk); // no commit

        let reopened = RStarTree::open_from_store(Box::new(store), None).unwrap();
        assert_eq!(reopened.len(), 300, "uncommitted insert must vanish");
        assert!(ids_in(&reopened, &rect(770.0, 770.0, 780.0, 780.0)).is_empty());
        crate::validate::check_invariants(&reopened).unwrap();
    }

    #[test]
    fn commit_on_clean_tree_is_a_noop_and_read_only_rejects() {
        let base = sample_tree(120);
        let store = writable_store_of(&base);
        let mut disk = RStarTree::open_from_store(Box::new(store), None).unwrap();
        disk.commit().unwrap();
        disk.commit().unwrap();

        let mut ro = RStarTree::open_from_store(Box::new(mem_store_of(&base)), None).unwrap();
        assert!(!ro.storage().unwrap().is_writable());
        assert_eq!(ro.commit(), Err(TreeError::ReadOnly));

        // Arena trees accept commit as a no-op (mutations are always
        // live), so generic code can call it unconditionally.
        let mut arena = sample_tree(10);
        arena.commit().unwrap();
    }

    #[test]
    fn commit_recycles_pages_instead_of_growing_forever() {
        let base = sample_tree(500);
        let store = writable_store_of(&base);
        let mut disk =
            RStarTree::open_from_store(Box::new(Arc::clone(&store)), None).unwrap();
        let mut peak = 0u32;
        for round in 0..6u32 {
            for i in 0..20u32 {
                let p = pt(900.0 + i as f64, 900.0 + round as f64);
                disk.insert(50_000 + round * 100 + i, p).unwrap();
            }
            for i in 0..20u32 {
                let p = pt(900.0 + i as f64, 900.0 + round as f64);
                assert!(disk.delete(50_000 + round * 100 + i, p).unwrap());
            }
            disk.commit().unwrap();
            peak = peak.max(store.meta().page_count);
        }
        // Every round ends at the same logical tree; shadow paging may
        // grow the file once to double-buffer the dirty set, but the
        // free list must absorb later rounds instead of growing again.
        assert_eq!(store.meta().page_count, peak, "file stopped growing");
        assert!(disk.storage().unwrap().free_pages() > 0);
        assert_eq!(disk.len(), 500);
        crate::validate::check_invariants(&disk).unwrap();
    }
}
