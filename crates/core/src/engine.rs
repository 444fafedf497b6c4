//! Parallel batch query engine.
//!
//! An [`NwcIndex`] is immutable during querying and internally `Sync`
//! (the tree's I/O counters are relaxed atomics), so any number of
//! threads can answer queries over one shared index concurrently. The
//! [`QueryEngine`] packages that: it fans a batch of
//! [`SearchRequest`]s out to scoped worker threads, each owning one
//! [`QueryScratch`] so every worker runs the zero-allocation warm path,
//! and returns outcomes in input order.
//!
//! Work distribution is a single atomic cursor the workers pop from
//! (work stealing degenerates to this when tasks come from one queue):
//! expensive queries don't stall the batch behind a static partition.
//! Built entirely on `std::thread::scope` — no extra dependencies, no
//! `unsafe`.
//!
//! # Example
//!
//! ```
//! use nwc_core::{engine::QueryEngine, NwcIndex, NwcQuery, Scheme, SearchRequest, WindowSpec};
//! use nwc_geom::pt;
//!
//! let pts: Vec<_> = (0..400)
//!     .map(|i| pt(((i * 37) % 101) as f64, ((i * 61) % 97) as f64))
//!     .collect();
//! let index = NwcIndex::build(pts);
//! let requests: Vec<_> = (0..8)
//!     .map(|i| NwcQuery::new(pt(i as f64 * 10.0, 50.0), WindowSpec::square(12.0), 4))
//!     .map(|q| SearchRequest::nwc(q, Scheme::NWC_STAR))
//!     .collect();
//!
//! let engine = QueryEngine::new(&index).with_threads(2);
//! let outcomes = engine.search_batch(&requests);
//! assert_eq!(outcomes.len(), requests.len());
//! assert!(outcomes.iter().all(|o| o.as_ref().is_ok_and(|o| o.is_complete())));
//! ```

use crate::index::NwcIndex;
use crate::query::QueryError;
use crate::request::{Outcome, SearchRequest};
use crate::scratch::QueryScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Answers batches of NWC/kNWC queries over one shared index with a
/// pool of scoped worker threads. See the module docs.
#[derive(Clone, Copy)]
pub struct QueryEngine<'i> {
    index: &'i NwcIndex,
    threads: usize,
}

impl<'i> QueryEngine<'i> {
    /// An engine over `index` using one worker per available CPU
    /// (falling back to 1 when parallelism cannot be determined).
    pub fn new(index: &'i NwcIndex) -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        QueryEngine { index, threads }
    }

    /// Sets the worker count. Zero is treated as one; a count above the
    /// batch size spawns only as many workers as there are queries.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The index this engine queries.
    pub fn index(&self) -> &'i NwcIndex {
        self.index
    }

    /// Answers every request in `requests`, returning one slot per
    /// request in input order. Each slot is exactly what
    /// [`NwcIndex::search`] returns for the same request — answers and
    /// attributed I/O counts are unaffected by batching, thread count,
    /// or scratch reuse (asserted by `tests/engine_equivalence.rs`).
    ///
    /// A request that fails gets its own `Err` slot while every other
    /// request completes normally — one bad page never tears down the
    /// worker scope. A budget that expires (a shared deadline or stop
    /// flag, or a request's own I/O allowance) gives each request its
    /// own partial [`Outcome`] with an individually valid bound. A
    /// worker that panics leaves [`QueryError::WorkerPanicked`] in every
    /// slot it had not returned.
    pub fn search_batch(&self, requests: &[SearchRequest]) -> Vec<Result<Outcome, QueryError>> {
        let index = self.index;
        scatter_map(self.threads, requests.len(), |i, scratch| {
            index.search(&requests[i], scratch)
        })
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(QueryError::WorkerPanicked)))
        .collect()
    }
}

/// The engine's scoped-thread work-distribution core, factored out so
/// the sharded scatter-gather planner ([`crate::shard`]) fans its
/// per-shard searches out through exactly the same machinery: an atomic
/// cursor hands out item indices `0..count`, each worker owns one
/// [`QueryScratch`], and results come back in index order. A slot is
/// `None` when the worker that took it panicked: its results are lost
/// with it, and the caller decides what the slot reports.
///
/// With `workers <= 1` (or one item) this degenerates to a sequential
/// in-order loop over one scratch — fully deterministic, no threads
/// spawned.
pub(crate) fn scatter_map<R, F>(workers: usize, count: usize, run: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(usize, &mut QueryScratch) -> R + Sync,
{
    let workers = workers.max(1).min(count);
    if workers <= 1 {
        // Sequential fast path: still one warm scratch for the batch.
        let mut scratch = QueryScratch::new();
        return (0..count).map(|i| Some(run(i, &mut scratch))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = QueryScratch::new();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, run(i, &mut scratch)));
                    }
                    out
                })
            })
            .collect();
        // A panicked worker's join is `Err`: its slots stay `None`.
        for (i, r) in handles.into_iter().filter_map(|h| h.join().ok()).flatten() {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NwcQuery, Scheme, WindowSpec};
    use nwc_geom::pt;

    fn world() -> NwcIndex {
        let pts: Vec<_> = (0..600)
            .map(|i| pt(((i * 37) % 211) as f64, ((i * 53) % 197) as f64))
            .collect();
        NwcIndex::build(pts)
    }

    fn requests(scheme: Scheme) -> Vec<SearchRequest> {
        (0..12)
            .map(|i| {
                let q = pt((i * 17 % 200) as f64, (i * 29 % 190) as f64);
                SearchRequest::nwc(NwcQuery::new(q, WindowSpec::square(14.0), 5), scheme)
            })
            .collect()
    }

    #[test]
    fn thread_counts_agree() {
        let idx = world();
        let reqs = requests(Scheme::NWC_PLUS);
        let one = QueryEngine::new(&idx).with_threads(1).search_batch(&reqs);
        let four = QueryEngine::new(&idx).with_threads(4).search_batch(&reqs);
        for (a, b) in one.iter().zip(&four) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.nwc().map(|r| r.ids()), b.nwc().map(|r| r.ids()));
        }
    }

    #[test]
    fn more_threads_than_requests() {
        let idx = world();
        let reqs = requests(Scheme::NWC)[..2].to_vec();
        let r = QueryEngine::new(&idx).with_threads(64).search_batch(&reqs);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_batch() {
        let idx = world();
        assert!(QueryEngine::new(&idx).search_batch(&[]).is_empty());
    }

    #[test]
    fn a_panicking_worker_leaves_its_slots_empty() {
        let slots = scatter_map(2, 6, |i, _| {
            if i == 3 {
                panic!("worker dies on item 3");
            }
            i
        });
        assert_eq!(slots.len(), 6);
        assert_eq!(slots[3], None);
        // Item 3's worker may have answered others first; every item
        // it did not return is `None`, every other item is its own.
        for (i, slot) in slots.iter().enumerate() {
            assert!(slot.is_none() || *slot == Some(i), "{i}: {slot:?}");
        }
        assert!(slots.iter().filter(|s| s.is_some()).count() >= 1);
    }
}
