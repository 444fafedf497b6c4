//! Node-access accounting.
//!
//! The paper's performance metric is "the number of R\*-tree nodes
//! visited, since I/O cost dominates the total execution time". Every
//! read of a node's contents during a query — by a window query or the
//! best-first traversal — bumps the counter here; a node a window query
//! takes from a search's [`NodeMemo`](crate::NodeMemo) was already
//! charged when the search first read it and bumps nothing. Queries
//! take `&self` and may run from several
//! threads at once, so the counters are relaxed atomics (the counter is
//! a tally, not a synchronization point).
//!
//! # Physical reads vs. buffer hits
//!
//! With a disk-backed tree (see [`crate::disk`]) a node access either
//! misses the buffer pool — a *physical* page read, recorded with
//! [`IoStats::record_node_read`] — or hits it, recorded with
//! [`IoStats::record_buffer_hit`]. The two are tallied separately at the
//! tree level ([`IoStats::node_reads`] / [`IoStats::buffer_hits`]), but
//! the per-thread attribution tallies ([`IoStats::snapshot`] /
//! [`IoStats::since`]) count **logical accesses** (physical + hits), so
//! a query's per-phase I/O breakdown is identical whether the tree runs
//! from the in-memory arena (where every access counts as a read) or
//! from disk — only the physical/hit split differs.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// The calling thread's running node-access tally (physical reads
    /// plus buffer hits), across all trees. Never reset — only diffed
    /// via snapshot pairs.
    static THREAD_ACCESSES: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's running buffer-hit tally, across all trees.
    static THREAD_HITS: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's running retry tally (re-attempted page
    /// reads), across all trees.
    static THREAD_RETRIES: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's running recovered-transient-failure tally.
    static THREAD_TRANSIENT: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's running quarantined-page tally.
    static THREAD_QUARANTINED: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time copy of the calling thread's error-path tallies, for
/// diff-based per-query attribution (pair [`IoStats::error_snapshot`]
/// with [`IoStats::errors_since`] on the same thread).
///
/// All three sit *outside* the logical-access accounting: a failed read
/// attempt is not a node visit, so injecting transient faults leaves a
/// query's logical I/O bit-identical to a fault-free run — only these
/// counters (and wall-clock time) move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorCounters {
    /// Re-attempted page reads (attempt 2 and beyond of a retry loop).
    pub retries: u64,
    /// Failed read attempts that a later attempt recovered from.
    pub transient_errors: u64,
    /// Pages newly quarantined (retry budget exhausted, or corruption).
    pub quarantined_pages: u64,
}

/// Per-tree I/O counters standing in for page reads.
///
/// The per-tree totals ([`IoStats::node_reads`],
/// [`IoStats::buffer_hits`]) are relaxed atomics that aggregate across
/// every thread querying the tree. Phase attribution
/// ([`IoStats::snapshot`] / [`IoStats::since`]) instead diffs a
/// *thread-local* tally, so a query attributing its own phases sees
/// exactly the accesses it issued — identical whether it runs alone or
/// concurrently with other queries on the same tree.
#[derive(Debug, Default)]
pub struct IoStats {
    node_reads: AtomicU64,
    buffer_hits: AtomicU64,
    retries: AtomicU64,
    transient_errors: AtomicU64,
    quarantined_pages: AtomicU64,
}

impl IoStats {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records one physical node read (arena access, or a buffer-pool
    /// miss that fetched the page from the store).
    #[inline]
    pub fn record_node_read(&self) {
        self.node_reads.fetch_add(1, Ordering::Relaxed);
        THREAD_ACCESSES.with(|c| c.set(c.get() + 1));
    }

    /// Records one node access satisfied by the buffer pool: a logical
    /// access with no physical I/O behind it.
    #[inline]
    pub fn record_buffer_hit(&self) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
        THREAD_ACCESSES.with(|c| c.set(c.get() + 1));
        THREAD_HITS.with(|c| c.set(c.get() + 1));
    }

    /// Physical node reads since construction or the last reset. For an
    /// arena-only tree every access is counted here.
    #[inline]
    pub fn node_reads(&self) -> u64 {
        self.node_reads.load(Ordering::Relaxed)
    }

    /// Buffer-pool hits since construction or the last reset (always 0
    /// for an arena-only tree).
    #[inline]
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits.load(Ordering::Relaxed)
    }

    /// Records one re-attempted page read (the retry loop going around
    /// again). Not a logical access.
    #[inline]
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        THREAD_RETRIES.with(|c| c.set(c.get() + 1));
    }

    /// Records `n` failed read attempts that a later attempt of the same
    /// read recovered from. Called once, on the eventual success, so the
    /// counter never includes the failures of a read that ultimately
    /// gave up (those end in a quarantine instead).
    #[inline]
    pub fn record_transient_errors(&self, n: u64) {
        if n > 0 {
            self.transient_errors.fetch_add(n, Ordering::Relaxed);
            THREAD_TRANSIENT.with(|c| c.set(c.get() + n));
        }
    }

    /// Records one page entering quarantine (first time only — a
    /// fast-failed access to an already-quarantined page records
    /// nothing).
    #[inline]
    pub fn record_quarantined(&self) {
        self.quarantined_pages.fetch_add(1, Ordering::Relaxed);
        THREAD_QUARANTINED.with(|c| c.set(c.get() + 1));
    }

    /// Re-attempted page reads since construction or the last reset.
    #[inline]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Failed-then-recovered read attempts since construction or the
    /// last reset.
    #[inline]
    pub fn transient_errors(&self) -> u64 {
        self.transient_errors.load(Ordering::Relaxed)
    }

    /// Pages quarantined since construction or the last reset.
    #[inline]
    pub fn quarantined_pages(&self) -> u64 {
        self.quarantined_pages.load(Ordering::Relaxed)
    }

    /// Current values of the calling thread's error-path tallies (pair
    /// with [`IoStats::errors_since`] on this thread).
    #[inline]
    pub fn error_snapshot(&self) -> ErrorCounters {
        ErrorCounters {
            retries: THREAD_RETRIES.with(Cell::get),
            transient_errors: THREAD_TRANSIENT.with(Cell::get),
            quarantined_pages: THREAD_QUARANTINED.with(Cell::get),
        }
    }

    /// Error-path events *by the calling thread* since a previous
    /// [`IoStats::error_snapshot`] taken on this thread.
    #[inline]
    pub fn errors_since(&self, snapshot: ErrorCounters) -> ErrorCounters {
        ErrorCounters {
            retries: THREAD_RETRIES.with(Cell::get) - snapshot.retries,
            transient_errors: THREAD_TRANSIENT.with(Cell::get) - snapshot.transient_errors,
            quarantined_pages: THREAD_QUARANTINED.with(Cell::get) - snapshot.quarantined_pages,
        }
    }

    /// Total logical node accesses: physical reads plus buffer hits.
    /// This is the paper's "nodes visited" metric, independent of
    /// buffering.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.node_reads() + self.buffer_hits()
    }

    /// Current value of the calling thread's access tally, for
    /// diff-based phase attribution (pair with [`IoStats::since`] on
    /// this thread). Counts logical accesses (physical + hits).
    #[inline]
    pub fn snapshot(&self) -> u64 {
        THREAD_ACCESSES.with(Cell::get)
    }

    /// Node accesses *by the calling thread* since a previous
    /// [`IoStats::snapshot`] taken on this thread. Accesses issued by
    /// other threads never leak into the diff.
    #[inline]
    pub fn since(&self, snapshot: u64) -> u64 {
        THREAD_ACCESSES.with(Cell::get) - snapshot
    }

    /// Current value of the calling thread's buffer-hit tally (pair
    /// with [`IoStats::hits_since`] on this thread).
    #[inline]
    pub fn hits_snapshot(&self) -> u64 {
        THREAD_HITS.with(Cell::get)
    }

    /// Buffer hits *by the calling thread* since a previous
    /// [`IoStats::hits_snapshot`] taken on this thread.
    #[inline]
    pub fn hits_since(&self, snapshot: u64) -> u64 {
        THREAD_HITS.with(Cell::get) - snapshot
    }

    /// Rewinds all counters to zero.
    #[inline]
    pub fn reset(&self) {
        self.node_reads.store(0, Ordering::Relaxed);
        self.buffer_hits.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.transient_errors.store(0, Ordering::Relaxed);
        self.quarantined_pages.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_reset() {
        let s = IoStats::new();
        assert_eq!(s.node_reads(), 0);
        s.record_node_read();
        s.record_node_read();
        assert_eq!(s.node_reads(), 2);
        let snap = s.snapshot();
        s.record_node_read();
        assert_eq!(s.since(snap), 1);
        s.reset();
        assert_eq!(s.node_reads(), 0);
    }

    #[test]
    fn hits_and_reads_split_but_attribute_together() {
        let s = IoStats::new();
        let snap = s.snapshot();
        let hits = s.hits_snapshot();
        s.record_node_read();
        s.record_buffer_hit();
        s.record_buffer_hit();
        // Tree-level: split.
        assert_eq!(s.node_reads(), 1);
        assert_eq!(s.buffer_hits(), 2);
        assert_eq!(s.accesses(), 3);
        // Thread-level: since() counts logical accesses; hits_since()
        // isolates the buffered share.
        assert_eq!(s.since(snap), 3);
        assert_eq!(s.hits_since(hits), 2);
        s.reset();
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn error_counters_stay_outside_logical_accounting() {
        let s = IoStats::new();
        let snap = s.snapshot();
        let errs = s.error_snapshot();
        s.record_retry();
        s.record_retry();
        s.record_transient_errors(2);
        s.record_transient_errors(0); // no-op
        s.record_quarantined();
        assert_eq!(s.retries(), 2);
        assert_eq!(s.transient_errors(), 2);
        assert_eq!(s.quarantined_pages(), 1);
        // None of it is a logical access.
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.since(snap), 0);
        let d = s.errors_since(errs);
        assert_eq!(
            d,
            ErrorCounters { retries: 2, transient_errors: 2, quarantined_pages: 1 }
        );
        s.reset();
        assert_eq!((s.retries(), s.transient_errors()), (0, 0));
        assert_eq!(s.quarantined_pages(), 0);
    }

    #[test]
    fn error_attribution_ignores_other_threads() {
        use std::sync::{Arc, Barrier};
        let s = Arc::new(IoStats::new());
        let barrier = Arc::new(Barrier::new(2));
        let (s2, b2) = (s.clone(), barrier.clone());
        let noisy = std::thread::spawn(move || {
            b2.wait();
            for _ in 0..10_000 {
                s2.record_retry();
                s2.record_transient_errors(1);
            }
        });
        barrier.wait();
        let errs = s.error_snapshot();
        for _ in 0..100 {
            s.record_retry();
        }
        assert_eq!(s.errors_since(errs).retries, 100);
        assert_eq!(s.errors_since(errs).transient_errors, 0);
        noisy.join().unwrap();
        assert_eq!(s.retries(), 10_100);
    }

    #[test]
    fn attribution_ignores_other_threads() {
        use std::sync::{Arc, Barrier};
        let s = Arc::new(IoStats::new());
        let barrier = Arc::new(Barrier::new(2));
        let (s2, b2) = (s.clone(), barrier.clone());
        let noisy = std::thread::spawn(move || {
            b2.wait();
            for _ in 0..50_000 {
                s2.record_node_read();
            }
        });
        barrier.wait();
        // While the other thread hammers the shared counter, this
        // thread's snapshot diff must count only its own reads.
        let snap = s.snapshot();
        for _ in 0..1_000 {
            s.record_node_read();
        }
        assert_eq!(s.since(snap), 1_000);
        noisy.join().unwrap();
        assert_eq!(s.node_reads(), 51_000);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let s = std::sync::Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.record_node_read();
                    s.record_buffer_hit();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.node_reads(), 80_000);
        assert_eq!(s.buffer_hits(), 80_000);
        assert_eq!(s.accesses(), 160_000);
    }
}
