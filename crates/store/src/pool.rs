//! A fixed-capacity buffer pool with exact LRU eviction, pinning, and
//! hit/miss/eviction accounting.
//!
//! The pool is the layer that turns the paper's I/O metric physical:
//! query code asks the pool for a page; a resident page is a **buffer
//! hit** (no I/O), a non-resident one is a **miss** that invokes the
//! caller's loader (a real [`PageStore`](crate::PageStore) read) and may
//! **evict** the least-recently-used unpinned frame.
//!
//! A frame holds one value of the caller's type `T` — whatever the
//! loader produced from the page, not the page bytes. The R\*-tree
//! caches the decoded node (`Arc<Node>`), so the pool is the one cache
//! of resident pages: a hit returns a clone of the value, and a value
//! that leaves the pool (LRU eviction, [`BufferPool::evict_page`],
//! [`BufferPool::clear`]) is dropped as soon as no caller holds a clone.
//!
//! Eviction is *exact* LRU — not the CLOCK approximation — because LRU
//! is a stack algorithm: for a fixed reference string its hit count is
//! non-decreasing in capacity (the inclusion property). The pool-capacity
//! tests in `tests/demand_paging.rs` rely on that monotonicity; CLOCK
//! does not guarantee it.
//! (Pinning can perturb the victim choice, but pinned pages are the
//! most recently used ones on a traversal path, which plain LRU would
//! not victimize either except at degenerate capacities.) The LRU
//! victim scan is `O(capacity)` per miss, which is noise next to the
//! page read the miss already pays for.
//!
//! All methods take `&self`: the frame table lives behind one mutex
//! (loads included — misses are serialized, as the metadata of a real
//! pool's latching would be) and the counters are relaxed atomics, so
//! one pool can serve every query thread of a [`QueryEngine`]-style
//! batch runner.
//!
//! # Panic safety
//!
//! A loader that panics unwinds while the mutex is held and poisons it.
//! The loader runs before any frame is touched, so the frame table has
//! no invariant a mid-panic unwind can break; every lock site recovers
//! with [`PoisonError::into_inner`] instead of propagating the panic:
//! one crashing query thread never bricks the pool for the others.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How the pool satisfied a page request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The page was resident: no physical I/O happened.
    Hit,
    /// The page was loaded by the supplied loader (one physical read)
    /// and is now resident.
    Miss,
    /// The page was loaded (one physical read, counted as a miss), but
    /// every frame was pinned: the value was not cached and no pin was
    /// taken.
    Uncached,
}

/// A snapshot of the pool's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests satisfied without I/O.
    pub hits: u64,
    /// Requests that invoked the loader (physical reads).
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Maximum resident pages (`usize::MAX` for an unbounded pool).
    pub capacity: usize,
    /// Pages currently resident.
    pub resident: usize,
    /// Resident pages with at least one outstanding pin. A steady-state
    /// value above zero after all guards have dropped indicates a pin
    /// leak.
    pub pinned: usize,
}

impl PoolStats {
    /// `hits / (hits + misses)`, or 0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame<T> {
    page: u32,
    pins: u32,
    last_used: u64,
    value: T,
}

struct Inner<T> {
    frames: Vec<Frame<T>>,
    /// page id → index into `frames`.
    map: HashMap<u32, usize>,
    /// LRU clock: monotonically increasing use stamp.
    tick: u64,
}

/// Splits a total frame budget of `capacity` pages as evenly as
/// possible into `parts` shares: part `i` receives `capacity / n`
/// frames plus one of the remainder when `i < capacity % n`, where
/// `n = parts.clamp(1, capacity)` (never more parts than frames, so
/// every share is at least 1).
///
/// Every share is **monotone in the total**: growing `capacity` never
/// shrinks any share, which is what lets the LRU inclusion property
/// survive the sharded-index layer that budgets one capacity across
/// several per-shard pools.
///
/// # Panics
///
/// Panics when `capacity` is zero — there is nothing to split.
pub fn split_capacity(capacity: usize, parts: usize) -> Vec<usize> {
    assert!(capacity >= 1, "cannot split a zero frame budget");
    let n = parts.clamp(1, capacity);
    let base = capacity / n;
    let rem = capacity % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// A fixed-capacity page cache holding one `T` per resident page. See
/// the module docs.
pub struct BufferPool<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<T: Clone> BufferPool<T> {
    /// A pool holding at most `capacity` pages under one exact LRU.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a pool that can hold nothing
    /// cannot satisfy even a single load.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool capacity must be at least 1");
        BufferPool {
            capacity,
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A pool that never evicts (capacity `usize::MAX`). Every page
    /// misses exactly once and hits forever after.
    pub fn unbounded() -> Self {
        BufferPool::new(usize::MAX)
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the frame table, recovering from poisoning: a panicking
    /// loader cannot corrupt the table (see the module docs), so the
    /// lock stays usable for every other thread.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Requests `page`, invoking `load` to produce its value on a miss,
    /// and returns how the request was served with a clone of the
    /// value. A failed load caches nothing, evicts nothing and surfaces
    /// the loader's error.
    pub fn get<E>(
        &self,
        page: u32,
        load: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Access, T), E> {
        self.request(page, load, false)
    }

    /// As [`BufferPool::get`], but the page is additionally **pinned**
    /// when it is (or becomes) resident — release with
    /// [`BufferPool::unpin`]. Pins nest; a pinned page is never evicted
    /// by LRU. On [`Access::Uncached`] no pin is taken (there is
    /// nothing resident to pin).
    ///
    /// Hit/miss classification, loading, pinning and eviction happen
    /// in one critical section, so the value a caller receives is
    /// exactly the one the pool holds for the page.
    pub fn pin<E>(
        &self,
        page: u32,
        load: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Access, T), E> {
        self.request(page, load, true)
    }

    /// Shared hit/miss machinery for `get` and `pin`.
    fn request<E>(
        &self,
        page: u32,
        load: impl FnOnce() -> Result<T, E>,
        pin: bool,
    ) -> Result<(Access, T), E> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(&idx) = inner.map.get(&page) {
            let frame = &mut inner.frames[idx];
            frame.last_used = tick;
            frame.pins += u32::from(pin);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Access::Hit, frame.value.clone()));
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = load()?;
        let frame = Frame {
            page,
            pins: u32::from(pin),
            last_used: tick,
            value: value.clone(),
        };
        if inner.frames.len() < self.capacity {
            let idx = inner.frames.len();
            inner.frames.push(frame);
            inner.map.insert(page, idx);
            return Ok((Access::Miss, value));
        }
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pins == 0)
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i);
        let Some(victim) = victim else {
            // Every frame is pinned: hand the value out without caching
            // it (still one physical read, no eviction).
            return Ok((Access::Uncached, value));
        };
        let old = std::mem::replace(&mut inner.frames[victim], frame);
        inner.map.remove(&old.page);
        inner.map.insert(page, victim);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        // The evicted value is dropped after the lock is released.
        drop(inner);
        Ok((Access::Miss, value))
    }

    /// A clone of `page`'s value if it is resident. Touches neither the
    /// LRU order nor any counter, and takes no pin.
    pub fn peek(&self, page: u32) -> Option<T> {
        let inner = self.lock();
        inner.map.get(&page).map(|&idx| inner.frames[idx].value.clone())
    }

    /// Drops `page`'s frame if resident and returns whether a frame was
    /// dropped. This is the writable tree's commit-time invalidation:
    /// page ids freed by a shadow commit may be recycled by a later
    /// commit with different contents, so their stale values must leave
    /// the pool first. Touches no hit/miss/eviction counter —
    /// invalidation is not a capacity eviction. The frame is dropped
    /// even if pinned (the caller guarantees no pins are outstanding; a
    /// stale pin on a recycled id would serve wrong data, which is
    /// strictly worse than an unbalanced unpin).
    pub fn evict_page(&self, page: u32) -> bool {
        let mut inner = self.lock();
        let Some(idx) = inner.map.remove(&page) else {
            return false;
        };
        let gone = inner.frames.swap_remove(idx);
        if let Some(moved) = inner.frames.get(idx).map(|f| f.page) {
            inner.map.insert(moved, idx);
        }
        drop(inner);
        drop(gone);
        true
    }

    /// Releases one pin on `page`. Returns `false` when the page is not
    /// resident or not pinned.
    pub fn unpin(&self, page: u32) -> bool {
        let mut inner = self.lock();
        match inner.map.get(&page).copied() {
            Some(idx) if inner.frames[idx].pins > 0 => {
                inner.frames[idx].pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Drops every resident page (pins included), returning the pool to
    /// a cold state. Counters are unaffected; pair with
    /// [`BufferPool::reset_stats`] for a fully fresh measurement.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.tick = 0;
        let gone = std::mem::take(&mut inner.frames);
        drop(inner);
        drop(gone);
    }

    /// Zeroes the hit/miss/eviction counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Pages currently resident (one lock, no scan).
    pub fn resident(&self) -> usize {
        self.lock().frames.len()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity,
            resident: inner.frames.len(),
            pinned: inner.frames.iter().filter(|f| f.pins > 0).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use std::sync::Arc;

    #[test]
    fn split_capacity_exact_and_monotone() {
        assert_eq!(split_capacity(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_capacity(4, 4), vec![1, 1, 1, 1]);
        // Never more parts than frames.
        assert_eq!(split_capacity(3, 8), vec![1, 1, 1]);
        assert_eq!(split_capacity(7, 1), vec![7]);
        // Shares sum to the total and are monotone in it.
        for parts in 1..9 {
            let mut prev = vec![0usize; parts];
            for cap in 1..64 {
                let shares = split_capacity(cap, parts);
                assert_eq!(shares.iter().sum::<usize>(), cap);
                for (i, &s) in shares.iter().enumerate() {
                    assert!(s >= prev.get(i).copied().unwrap_or(0), "share shrank");
                }
                prev = shares;
            }
        }
    }

    /// Requests `page` with a loader that yields the page id.
    fn touch(pool: &BufferPool<u32>, page: u32) -> Access {
        pool.get(page, || Ok::<_, StoreError>(page)).unwrap().0
    }

    #[test]
    fn hits_after_first_miss() {
        let pool = BufferPool::new(4);
        assert_eq!(touch(&pool, 7), Access::Miss);
        assert_eq!(touch(&pool, 7), Access::Hit);
        assert_eq!(touch(&pool, 7), Access::Hit);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.resident), (2, 1, 0, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hits_return_the_loaded_value_without_reloading() {
        let pool = BufferPool::new(2);
        let loads = std::cell::Cell::new(0u32);
        let load = || {
            loads.set(loads.get() + 1);
            Ok::<_, StoreError>(90u32)
        };
        assert_eq!(pool.get(9, load).unwrap(), (Access::Miss, 90));
        assert_eq!(pool.get(9, load).unwrap(), (Access::Hit, 90));
        assert_eq!(loads.get(), 1, "hit must not reload");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::new(2);
        touch(&pool, 1); // miss
        touch(&pool, 2); // miss
        touch(&pool, 1); // hit — makes 2 the LRU
        touch(&pool, 3); // miss, evicts 2
        assert_eq!(touch(&pool, 1), Access::Hit, "1 was recently used");
        assert_eq!(touch(&pool, 2), Access::Miss, "2 was the LRU victim");
        assert_eq!(pool.stats().evictions, 2); // 3 evicted 2, then 2 evicted 3
    }

    #[test]
    fn unbounded_never_evicts() {
        let pool = BufferPool::unbounded();
        for p in 0..500u32 {
            assert_eq!(touch(&pool, p), Access::Miss);
        }
        for p in 0..500u32 {
            assert_eq!(touch(&pool, p), Access::Hit);
        }
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.evictions, s.resident), (500, 500, 0, 500));
    }

    #[test]
    fn lru_inclusion_property_on_random_trace() {
        // LRU is a stack algorithm: hits must be non-decreasing in
        // capacity over the same reference string.
        let mut x = 0x2545_F491u64;
        let trace: Vec<u32> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Skewed working set over 64 pages.
                ((x % 64) * (x >> 32 & 1) + x % 24) as u32
            })
            .collect();
        let mut last_hits = 0u64;
        for cap in [1usize, 2, 4, 8, 16, 32, 64] {
            let pool = BufferPool::new(cap);
            for &p in &trace {
                touch(&pool, p);
            }
            let hits = pool.stats().hits;
            assert!(
                hits >= last_hits,
                "cap {cap}: hits {hits} dropped below {last_hits}"
            );
            last_hits = hits;
        }
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = BufferPool::new(2);
        pool.pin(1, || Ok::<_, StoreError>(11)).unwrap();
        for p in 2..10u32 {
            touch(&pool, p); // churns the one unpinned frame
        }
        let got = pool
            .get(1, || -> Result<u32, StoreError> { panic!("pinned page must not reload") })
            .unwrap();
        assert_eq!(got, (Access::Hit, 11));
        assert!(pool.unpin(1));
        assert!(!pool.unpin(1), "second unpin has nothing to release");
    }

    #[test]
    fn all_pinned_pool_serves_uncached_misses() {
        let pool = BufferPool::new(1);
        assert_eq!(pool.pin(1, || Ok::<_, StoreError>(1)).unwrap(), (Access::Miss, 1));
        // Frame 1 is pinned: page 2 cannot be cached, but the access
        // must still succeed, and it takes no pin.
        assert_eq!(pool.pin(2, || Ok::<_, StoreError>(22)).unwrap(), (Access::Uncached, 22));
        assert_eq!(touch(&pool, 2), Access::Uncached, "uncacheable: loads again");
        assert!(!pool.unpin(2), "uncached loads take no pin");
        let s = pool.stats();
        assert_eq!((s.misses, s.resident, s.evictions, s.pinned), (3, 1, 0, 1));
        assert!(pool.unpin(1));
    }

    #[test]
    fn failed_load_caches_and_evicts_nothing() {
        let pool = BufferPool::new(1);
        touch(&pool, 1);
        let r = pool.get(5, || Err(StoreError::PageChecksum { page: 5 }));
        assert!(matches!(r, Err(StoreError::PageChecksum { page: 5 })));
        let s = pool.stats();
        assert_eq!((s.misses, s.resident, s.evictions), (2, 1, 0));
        assert_eq!(touch(&pool, 1), Access::Hit, "the resident page stayed");
        // The page is still loadable afterwards.
        assert_eq!(touch(&pool, 5), Access::Miss);
        assert_eq!(touch(&pool, 5), Access::Hit);
    }

    #[test]
    fn peek_touches_neither_lru_nor_counters() {
        let pool = BufferPool::new(2);
        touch(&pool, 1);
        touch(&pool, 2); // 1 is now the LRU page
        assert_eq!(pool.peek(1), Some(1));
        assert_eq!(pool.peek(3), None);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 2), "peeks are not requests");
        touch(&pool, 3);
        assert_eq!(pool.peek(1), None, "the peek did not refresh page 1");
    }

    #[test]
    fn evict_page_keeps_other_frames_addressable() {
        let pool = BufferPool::new(4);
        for p in 1..=3 {
            touch(&pool, p);
        }
        assert!(pool.evict_page(1));
        assert!(!pool.evict_page(1), "already gone");
        assert_eq!(touch(&pool, 3), Access::Hit);
        assert_eq!(touch(&pool, 2), Access::Hit);
        assert_eq!(touch(&pool, 1), Access::Miss);
        let s = pool.stats();
        assert_eq!((s.resident, s.evictions), (3, 0), "invalidation is not eviction");
    }

    #[test]
    fn evicted_values_are_dropped_once_unshared() {
        let pool: BufferPool<Arc<u32>> = BufferPool::new(2);
        let load = |v: u32| move || Ok::<_, StoreError>(Arc::new(v));
        let weak = |pool: &BufferPool<Arc<u32>>, p: u32| {
            Arc::downgrade(&pool.get(p, load(p)).unwrap().1)
        };

        // LRU eviction: a caller's clone outlives the frame, and the
        // value goes with the last clone.
        let one = weak(&pool, 1);
        let held = pool.get(1, load(1)).unwrap().1;
        let two = weak(&pool, 2);
        let _ = weak(&pool, 3); // evicts 1
        assert_eq!(pool.peek(1), None);
        assert!(one.upgrade().is_some(), "a caller still holds page 1");
        drop(held);
        assert!(one.upgrade().is_none(), "evicted value dropped");

        // `evict_page`.
        assert!(two.upgrade().is_some());
        assert!(pool.evict_page(2));
        assert!(two.upgrade().is_none(), "invalidated value dropped");

        // `clear`.
        let three = weak(&pool, 3);
        let four = weak(&pool, 4);
        pool.clear();
        assert!(three.upgrade().is_none() && four.upgrade().is_none());
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn clear_and_reset_stats() {
        let pool = BufferPool::new(4);
        touch(&pool, 1);
        touch(&pool, 1);
        pool.clear();
        assert_eq!(pool.stats().resident, 0);
        assert_eq!(touch(&pool, 1), Access::Miss, "cold after clear");
        pool.reset_stats();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        BufferPool::<u32>::new(0);
    }

    #[test]
    fn panicking_loader_does_not_poison_the_pool() {
        let pool = Arc::new(BufferPool::new(2));
        touch(&pool, 1);
        // A query thread panics *inside* the pool's critical section.
        let p2 = pool.clone();
        let crashed = std::thread::spawn(move || {
            p2.get(9, || -> Result<u32, StoreError> { panic!("simulated decode bug") })
                .ok();
        })
        .join();
        assert!(crashed.is_err(), "the panic must reach the thread join");
        // Every later operation — from this and other threads — still
        // works: the poisoned lock is recovered, not propagated.
        assert_eq!(touch(&pool, 1), Access::Hit, "old page still resident");
        assert_eq!(touch(&pool, 9), Access::Miss, "crashed page loadable");
        assert_eq!(touch(&pool, 9), Access::Hit);
        let p3 = pool.clone();
        std::thread::spawn(move || {
            assert_eq!(touch(&p3, 1), Access::Hit);
        })
        .join()
        .unwrap();
        assert!(pool.stats().resident <= 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let pool = Arc::new(BufferPool::new(8));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let page = (i * (t + 1)) % 16;
                    let (_, value) = pool.get(page, || Ok::<_, StoreError>(page)).unwrap();
                    assert_eq!(value, page, "a frame served another page's value");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8_000);
        assert!(s.resident <= 8);
    }
}
