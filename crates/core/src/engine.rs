//! Parallel batch query engine.
//!
//! An [`NwcIndex`] is immutable during querying and internally `Sync`
//! (the tree's I/O counters are relaxed atomics), so any number of
//! threads can answer queries over one shared index concurrently. The
//! [`QueryEngine`] packages that: it fans a batch of NWC or kNWC
//! queries out to scoped worker threads, each owning one
//! [`QueryScratch`] so every worker runs the zero-allocation warm path,
//! and returns results in input order.
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
//! use nwc_core::{engine::QueryEngine, NwcIndex, NwcQuery, Scheme, WindowSpec};
//! use nwc_geom::pt;
//!
//! let pts: Vec<_> = (0..400)
//!     .map(|i| pt(((i * 37) % 101) as f64, ((i * 61) % 97) as f64))
//!     .collect();
//! let index = NwcIndex::build(pts);
//! let queries: Vec<_> = (0..8)
//!     .map(|i| NwcQuery::new(pt(i as f64 * 10.0, 50.0), WindowSpec::square(12.0), 4))
//!     .collect();
//!
//! let engine = QueryEngine::new(&index).with_threads(2);
//! let results = engine.nwc_batch(&queries, Scheme::NWC_STAR);
//! assert_eq!(results.len(), queries.len());
//! ```

use crate::anytime::{AnytimeKnwc, AnytimeNwc, Approx};
use crate::index::NwcIndex;
use crate::knwc::KnwcResult;
use crate::query::{KnwcQuery, NwcQuery, QueryError};
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use crate::scratch::QueryScratch;
use nwc_rtree::Budget;
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

    /// Answers every NWC query in `queries` under `scheme`, returning
    /// `(result, stats)` pairs in input order. Each pair is exactly what
    /// [`NwcIndex::nwc_full`] returns for the same query — results and
    /// attributed I/O counts are unaffected by batching, thread count,
    /// or scratch reuse (asserted by `tests/engine_equivalence.rs`).
    pub fn nwc_batch(
        &self,
        queries: &[NwcQuery],
        scheme: Scheme,
    ) -> Vec<(Option<NwcResult>, SearchStats)> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| {
            index.nwc_full_with(q, scheme, scratch)
        })
    }

    /// Answers every kNWC query in `queries` under `scheme`, returning
    /// results in input order (each what [`NwcIndex::knwc`] returns).
    pub fn knwc_batch(&self, queries: &[KnwcQuery], scheme: Scheme) -> Vec<KnwcResult> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| index.knwc_with(q, scheme, scratch))
    }

    /// As [`QueryEngine::nwc_batch`], collecting per-query disk read
    /// failures instead of panicking: a query that hits an unrecoverable
    /// page gets its own `Err` slot while every other query in the batch
    /// completes normally — one bad page never tears down the worker
    /// scope. Slots are in input order.
    pub fn try_nwc_batch(
        &self,
        queries: &[NwcQuery],
        scheme: Scheme,
    ) -> Vec<Result<(Option<NwcResult>, SearchStats), QueryError>> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| {
            index.try_nwc_full_with(q, scheme, scratch)
        })
    }

    /// As [`QueryEngine::knwc_batch`] with per-query error collection
    /// (see [`QueryEngine::try_nwc_batch`]).
    pub fn try_knwc_batch(
        &self,
        queries: &[KnwcQuery],
        scheme: Scheme,
    ) -> Vec<Result<KnwcResult, QueryError>> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| {
            index.try_knwc_with(q, scheme, scratch)
        })
    }

    /// As [`QueryEngine::try_nwc_batch`], additionally observing a
    /// cooperative [`Budget`]. Once it expires, each query —
    /// in-flight or not yet started — stops at its next cancellation
    /// point and reports its own typed [`AnytimeNwc`] partial: the
    /// best-so-far answer it had at that moment with an individually
    /// valid `error_bound`, rather than one blanket error for the whole
    /// batch. Slots finished before the budget expired are complete
    /// (`exhausted == None`) and bit-identical to
    /// [`QueryEngine::try_nwc_batch`]; `Err` slots are reserved for
    /// disk failures. The workers and the index stay fully usable.
    pub fn try_nwc_batch_cancel(
        &self,
        queries: &[NwcQuery],
        scheme: Scheme,
        cancel: &Budget,
    ) -> Vec<Result<AnytimeNwc, QueryError>> {
        self.try_nwc_batch_budget(queries, scheme, cancel, Approx::exact())
    }

    /// As [`QueryEngine::try_nwc_batch_cancel`] with the full anytime
    /// contract: each query runs under `budget` (the wall-clock
    /// deadline and stop flag are shared; an I/O allowance applies to
    /// each query separately) in `(1+ε)` mode `approx`, and every slot
    /// reports its own [`AnytimeNwc`] with a per-query quality bound.
    pub fn try_nwc_batch_budget(
        &self,
        queries: &[NwcQuery],
        scheme: Scheme,
        budget: &Budget,
        approx: Approx,
    ) -> Vec<Result<AnytimeNwc, QueryError>> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| {
            index.try_nwc_anytime_with(q, scheme, scratch, budget, approx)
        })
    }

    /// As [`QueryEngine::try_knwc_batch`] with the per-query partial
    /// contract of [`QueryEngine::try_nwc_batch_cancel`].
    pub fn try_knwc_batch_cancel(
        &self,
        queries: &[KnwcQuery],
        scheme: Scheme,
        cancel: &Budget,
    ) -> Vec<Result<AnytimeKnwc, QueryError>> {
        self.try_knwc_batch_budget(queries, scheme, cancel, Approx::exact())
    }

    /// As [`QueryEngine::try_nwc_batch_budget`] for kNWC queries.
    pub fn try_knwc_batch_budget(
        &self,
        queries: &[KnwcQuery],
        scheme: Scheme,
        budget: &Budget,
        approx: Approx,
    ) -> Vec<Result<AnytimeKnwc, QueryError>> {
        let index = self.index;
        self.run_batch(queries, move |q, scratch| {
            index.try_knwc_anytime_with(q, scheme, scratch, budget, approx)
        })
    }

    /// Shared batch driver: an atomic cursor hands out query indices,
    /// each worker owns one warm [`QueryScratch`], and per-worker
    /// `(index, result)` pairs are merged back into input order.
    fn run_batch<Q, R, F>(&self, queries: &[Q], run: F) -> Vec<R>
    where
        Q: Sync,
        R: Send,
        F: Fn(&Q, &mut QueryScratch) -> R + Sync,
    {
        scatter_map(self.threads, queries.len(), |i, scratch| {
            run(&queries[i], scratch)
        })
    }
}

/// The engine's scoped-thread work-distribution core, factored out so
/// the sharded scatter-gather planner ([`crate::shard`]) fans its
/// per-shard searches out through exactly the same machinery: an atomic
/// cursor hands out item indices `0..count`, each worker owns one
/// [`QueryScratch`], and results come back in index order.
///
/// With `workers <= 1` (or one item) this degenerates to a sequential
/// in-order loop over one scratch — fully deterministic, no threads
/// spawned.
pub(crate) fn scatter_map<R, F>(workers: usize, count: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut QueryScratch) -> R + Sync,
{
    let workers = workers.max(1).min(count);
    if workers <= 1 {
        // Sequential fast path: still one warm scratch for the batch.
        let mut scratch = QueryScratch::new();
        return (0..count).map(|i| run(i, &mut scratch)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut merged: Vec<(usize, R)> = Vec::with_capacity(count);
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
        for h in handles {
            merged.extend(h.join().expect("query worker panicked"));
        }
    });
    merged.sort_unstable_by_key(|&(i, _)| i);
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowSpec;
    use nwc_geom::pt;

    fn world() -> NwcIndex {
        let pts: Vec<_> = (0..600)
            .map(|i| pt(((i * 37) % 211) as f64, ((i * 53) % 197) as f64))
            .collect();
        NwcIndex::build(pts)
    }

    fn queries() -> Vec<NwcQuery> {
        (0..12)
            .map(|i| {
                NwcQuery::new(
                    pt((i * 17 % 200) as f64, (i * 29 % 190) as f64),
                    WindowSpec::square(14.0),
                    5,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_api() {
        let idx = world();
        let qs = queries();
        let engine = QueryEngine::new(&idx).with_threads(4);
        let batch = engine.nwc_batch(&qs, Scheme::NWC_STAR);
        assert_eq!(batch.len(), qs.len());
        for (q, (got, stats)) in qs.iter().zip(&batch) {
            let (want, want_stats) = idx.nwc_full(q, Scheme::NWC_STAR);
            assert_eq!(*stats, want_stats);
            match (got, &want) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.ids(), b.ids());
                    assert!((a.distance - b.distance).abs() < 1e-12);
                }
                _ => panic!("batch/sequential disagreement"),
            }
        }
    }

    #[test]
    fn thread_counts_agree() {
        let idx = world();
        let qs = queries();
        let one = QueryEngine::new(&idx).with_threads(1).nwc_batch(&qs, Scheme::NWC_PLUS);
        let four = QueryEngine::new(&idx).with_threads(4).nwc_batch(&qs, Scheme::NWC_PLUS);
        for ((a, sa), (b, sb)) in one.iter().zip(&four) {
            assert_eq!(sa, sb);
            assert_eq!(a.as_ref().map(|r| r.ids()), b.as_ref().map(|r| r.ids()));
        }
    }

    #[test]
    fn knwc_batch_matches_sequential() {
        let idx = world();
        let qs: Vec<KnwcQuery> = (0..6)
            .map(|i| {
                KnwcQuery::new(
                    pt((i * 31 % 180) as f64, (i * 41 % 180) as f64),
                    WindowSpec::square(16.0),
                    3,
                    4,
                    1,
                )
            })
            .collect();
        let batch = QueryEngine::new(&idx).with_threads(3).knwc_batch(&qs, Scheme::NWC_STAR);
        for (q, got) in qs.iter().zip(&batch) {
            let want = idx.knwc(q, Scheme::NWC_STAR);
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.groups.len(), want.groups.len());
            for (a, b) in got.groups.iter().zip(&want.groups) {
                assert_eq!(a.id_set(), b.id_set());
            }
        }
    }

    #[test]
    fn more_threads_than_queries() {
        let idx = world();
        let qs = queries()[..2].to_vec();
        let r = QueryEngine::new(&idx).with_threads(64).nwc_batch(&qs, Scheme::NWC);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_batch() {
        let idx = world();
        let r = QueryEngine::new(&idx).nwc_batch(&[], Scheme::NWC_STAR);
        assert!(r.is_empty());
    }
}
