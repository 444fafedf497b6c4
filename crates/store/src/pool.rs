//! A fixed-capacity buffer pool with LRU eviction, pinning, lock-striped
//! shards, and hit/miss/eviction accounting.
//!
//! The pool is the layer that turns the paper's I/O metric physical:
//! query code asks the pool for a page; a resident page is a **buffer
//! hit** (no I/O), a non-resident one is a **miss** that invokes the
//! caller's loader (a real [`PageStore`](crate::PageStore) read) and may
//! **evict** the least-recently-used unpinned frame.
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
//! # Sharding
//!
//! [`BufferPool::with_shards`] splits the frame table into N lock
//! striped shards. A page maps to a shard by a Fibonacci hash of its id,
//! each shard runs its own exact LRU over its slice of the capacity, and
//! the counters stay global atomics — so aggregate hit/miss/eviction
//! accounting is identical in shape to the single-lock pool while batch
//! query threads no longer serialize on one mutex. Because the reference
//! string seen by each shard is a fixed subsequence of the global one
//! (the page→shard map does not depend on capacity) and the per-shard
//! capacities grow monotonically with the total, the inclusion property
//! holds *per shard* and therefore in aggregate. [`BufferPool::new`]
//! remains exactly the single-shard pool.
//!
//! All methods take `&self`: the frame tables live behind mutexes (loads
//! included — misses on one shard are serialized, as the metadata of a
//! real pool's latching would be) and the counters are relaxed atomics,
//! so one pool can serve every query thread of a
//! [`QueryEngine`]-style batch runner.
//!
//! # Panic safety
//!
//! A caller closure (`load`/`read`) that panics unwinds while a shard
//! mutex is held and poisons it. The frame table has no invariant a
//! mid-panic unwind can break (the worst case is one unmapped frame
//! slot, which a later miss re-victimizes), so every lock site recovers
//! with [`PoisonError::into_inner`] instead of propagating the panic:
//! one crashing query thread never bricks the pool for the others.
//!
//! # Eviction hook
//!
//! [`BufferPool::set_evict_hook`] registers a callback fired — under the
//! owning shard's lock — whenever a page leaves the pool (LRU eviction
//! or [`BufferPool::clear`]). Clients caching state keyed by page id
//! (the R\*-tree's decoded-node cache) use it to drop their entry in the
//! same critical section, so cached state never outlives page residency.

use crate::error::StoreError;
use crate::PAGE_SIZE;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// How the pool satisfied a page request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The page was resident: no physical I/O happened.
    Hit,
    /// The page was loaded by the supplied loader: one physical read.
    Miss,
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

struct Frame {
    page: u32,
    pins: u32,
    last_used: u64,
    data: Box<[u8]>,
}

#[derive(Default)]
struct Inner {
    frames: Vec<Frame>,
    /// page id → index into `frames`.
    map: HashMap<u32, usize>,
    /// Frame slots holding no page (after a failed load or `clear`).
    free: Vec<usize>,
    /// LRU clock: monotonically increasing use stamp.
    tick: u64,
}

/// One lock stripe: a slice of the capacity with its own LRU.
struct Shard {
    capacity: usize,
    inner: Mutex<Inner>,
}

/// Callback invoked (under the owning shard's lock) when a page leaves
/// the pool.
pub type EvictHook = Box<dyn Fn(u32) + Send + Sync>;

/// Splits a total frame budget of `capacity` pages as evenly as
/// possible into `parts` shares: part `i` receives `capacity / n`
/// frames plus one of the remainder when `i < capacity % n`, where
/// `n = parts.clamp(1, capacity)` (never more parts than frames, so
/// every share is at least 1).
///
/// Every share is **monotone in the total**: growing `capacity` never
/// shrinks any share, which is what lets the LRU inclusion property
/// survive both the pool's internal lock striping
/// ([`BufferPool::with_shards`] uses exactly this split) and the
/// sharded-index layer that budgets one capacity across several
/// per-shard pools.
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

/// A fixed-capacity page buffer. See the module docs.
pub struct BufferPool {
    capacity: usize,
    shards: Box<[Shard]>,
    evict_hook: OnceLock<EvictHook>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// A single-shard pool holding at most `capacity` pages — exactly
    /// the classic one-lock exact-LRU pool.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a pool that can hold nothing
    /// cannot satisfy even a single load.
    pub fn new(capacity: usize) -> Self {
        BufferPool::with_shards(capacity, 1)
    }

    /// A pool holding at most `capacity` pages split across `shards`
    /// lock stripes. `shards` is clamped to `[1, capacity]`; the
    /// capacity is divided as evenly as possible (shard `i` gets
    /// `capacity/n`, plus one of the remainder for the first
    /// `capacity % n` shards), which keeps every per-shard capacity
    /// monotone in the total — the inclusion property survives
    /// sharding.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool capacity must be at least 1");
        let shares = split_capacity(capacity, shards);
        let shards: Box<[Shard]> = shares
            .into_iter()
            .map(|cap| Shard {
                capacity: cap,
                inner: Mutex::new(Inner::default()),
            })
            .collect();
        BufferPool {
            capacity,
            shards,
            evict_hook: OnceLock::new(),
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

    /// The configured total capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Registers the eviction callback (at most once, before queries
    /// start). Fired under the owning shard's lock for every page
    /// dropped by LRU eviction or [`BufferPool::clear`]; the hook must
    /// not call back into the pool.
    ///
    /// # Panics
    ///
    /// Panics when a hook was already registered.
    pub fn set_evict_hook(&self, hook: EvictHook) {
        if self.evict_hook.set(hook).is_err() {
            panic!("buffer pool evict hook already set");
        }
    }

    /// The shard owning `page`: identity for a single stripe, a
    /// Fibonacci hash of the page id otherwise (page ids are dense and
    /// sequential, so plain modulo would stripe sibling pages — which a
    /// clustered layout makes *consecutive* — onto the same few shards).
    #[inline]
    fn shard_for(&self, page: u32) -> &Shard {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        let h = (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        &self.shards[(h as usize) % n]
    }

    /// Locks a shard's frame table, recovering from poisoning: a panic
    /// in a caller closure cannot corrupt the table (see the module
    /// docs), so the lock stays usable for every other thread.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, Inner> {
        shard.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn fire_evict_hook(&self, page: u32) {
        if let Some(hook) = self.evict_hook.get() {
            hook(page);
        }
    }

    /// Requests `page`, invoking `load` to fill the frame on a miss.
    /// Returns whether the request was a hit or a [`Access::Miss`]; a
    /// failed load caches nothing and surfaces the loader's error.
    pub fn access(
        &self,
        page: u32,
        load: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
    ) -> Result<Access, StoreError> {
        self.with_page(page, load, |_| ()).map(|(access, ())| access)
    }

    /// As [`BufferPool::access`], additionally running `read` over the
    /// resident page bytes (under the shard lock) and returning its
    /// value.
    pub fn with_page<R>(
        &self,
        page: u32,
        load: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<(Access, R), StoreError> {
        self.request(page, load, |bytes, _cached| read(bytes), false)
            .map(|(access, _cached, r)| (access, r))
    }

    /// As [`BufferPool::with_page`], but the page is additionally
    /// **pinned** when it is (or becomes) resident — release with
    /// [`BufferPool::unpin`]. Pins nest. `read` runs under the shard
    /// lock and receives `cached = false` only on the
    /// all-frames-pinned fallback, where the bytes live in a throwaway
    /// scratch buffer and no pin is taken (there is nothing resident to
    /// pin).
    ///
    /// This is the one-critical-section primitive behind demand paging:
    /// hit/miss classification, loading, pinning and the caller's
    /// decode-and-cache step all happen atomically with respect to
    /// eviction, so a decoded node can never outlive its page's
    /// residency unnoticed.
    pub fn pin_with_page<R>(
        &self,
        page: u32,
        load: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
        read: impl FnOnce(&[u8], bool) -> R,
    ) -> Result<(Access, bool, R), StoreError> {
        self.request(page, load, read, true)
    }

    /// Shared hit/miss/scratch machinery for `with_page` and
    /// `pin_with_page`.
    fn request<R>(
        &self,
        page: u32,
        load: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
        read: impl FnOnce(&[u8], bool) -> R,
        pin: bool,
    ) -> Result<(Access, bool, R), StoreError> {
        let shard = self.shard_for(page);
        let mut inner = self.lock_shard(shard);
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(&idx) = inner.map.get(&page) {
            let frame = &mut inner.frames[idx];
            frame.last_used = tick;
            if pin {
                frame.pins += 1;
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Access::Hit, true, read(&frame.data, true)));
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        match self.claim_frame(shard.capacity, &mut inner) {
            Some(idx) => {
                let frame = &mut inner.frames[idx];
                if let Err(e) = load(&mut frame.data) {
                    // The frame holds partial bytes: leave it unmapped.
                    inner.free.push(idx);
                    return Err(e);
                }
                let frame = &mut inner.frames[idx];
                frame.page = page;
                frame.pins = u32::from(pin);
                frame.last_used = tick;
                inner.map.insert(page, idx);
                let r = read(&inner.frames[idx].data, true);
                Ok((Access::Miss, true, r))
            }
            None => {
                // Every frame is pinned: perform the read without
                // caching it (still one physical read, no eviction).
                let mut scratch = vec![0u8; PAGE_SIZE];
                load(&mut scratch)?;
                Ok((Access::Miss, false, read(&scratch, false)))
            }
        }
    }

    /// Finds a frame for a new page: a free slot, a new allocation under
    /// the shard's capacity, or the LRU unpinned victim (firing the
    /// evict hook). `None` when every frame is pinned.
    fn claim_frame(&self, capacity: usize, inner: &mut Inner) -> Option<usize> {
        if let Some(idx) = inner.free.pop() {
            return Some(idx);
        }
        if inner.frames.len() < capacity {
            inner.frames.push(Frame {
                page: u32::MAX,
                pins: 0,
                last_used: 0,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            });
            return Some(inner.frames.len() - 1);
        }
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pins == 0)
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i)?;
        let old_page = inner.frames[victim].page;
        inner.map.remove(&old_page);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.fire_evict_hook(old_page);
        Some(victim)
    }

    /// Drops `page`'s frame if resident, firing the evict hook, and
    /// returns whether a frame was dropped. This is the writable tree's
    /// commit-time invalidation: page ids freed by a shadow commit may
    /// be recycled by a later commit with different contents, so their
    /// stale frames must leave the pool first. Touches no hit/miss/
    /// eviction counter — invalidation is not a capacity eviction. The
    /// frame is dropped even if pinned (the caller guarantees no pins
    /// are outstanding; a stale pin on a recycled id would serve wrong
    /// data, which is strictly worse than an unbalanced unpin).
    pub fn evict_page(&self, page: u32) -> bool {
        let shard = self.shard_for(page);
        let mut inner = self.lock_shard(shard);
        let Some(idx) = inner.map.remove(&page) else {
            return false;
        };
        inner.frames[idx].pins = 0;
        inner.free.push(idx);
        self.fire_evict_hook(page);
        true
    }

    /// Loads (if needed) and pins `page`: a pinned page is never
    /// evicted until every pin is released with [`BufferPool::unpin`].
    /// Pins nest.
    pub fn pin(
        &self,
        page: u32,
        load: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
    ) -> Result<Access, StoreError> {
        self.pin_with_page(page, load, |_, _| ())
            .map(|(access, _, ())| access)
    }

    /// Releases one pin on `page`. Returns `false` when the page is not
    /// resident or not pinned.
    pub fn unpin(&self, page: u32) -> bool {
        let mut inner = self.lock_shard(self.shard_for(page));
        match inner.map.get(&page).copied() {
            Some(idx) if inner.frames[idx].pins > 0 => {
                inner.frames[idx].pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Drops every resident page (pins included), returning the pool to
    /// a cold state and firing the evict hook for each dropped page.
    /// Counters are unaffected; pair with [`BufferPool::reset_stats`] for a
    /// fully fresh measurement.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut inner = self.lock_shard(shard);
            let dropped: Vec<u32> = inner.map.drain().map(|(page, _)| page).collect();
            inner.free.clear();
            inner.frames.clear();
            inner.tick = 0;
            for page in dropped {
                self.fire_evict_hook(page);
            }
        }
    }

    /// Zeroes the hit/miss/eviction counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Current counters and occupancy (aggregated over every shard).
    pub fn stats(&self) -> PoolStats {
        let (mut resident, mut pinned) = (0usize, 0usize);
        for shard in self.shards.iter() {
            let inner = self.lock_shard(shard);
            resident += inner.map.len();
            pinned += inner
                .map
                .values()
                .filter(|&&idx| inner.frames[idx].pins > 0)
                .count();
        }
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity,
            resident,
            pinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A loader that stamps the page id into the buffer and counts calls.
    fn stamping_loader(count: &std::cell::Cell<u32>, page: u32) -> impl FnOnce(&mut [u8]) -> Result<(), StoreError> + '_ {
        move |buf: &mut [u8]| {
            count.set(count.get() + 1);
            buf[0..4].copy_from_slice(&page.to_le_bytes());
            Ok(())
        }
    }

    fn touch(pool: &BufferPool, page: u32) -> Access {
        pool.access(page, |buf| {
            buf[0..4].copy_from_slice(&page.to_le_bytes());
            Ok(())
        })
        .unwrap()
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
    fn reads_see_loaded_bytes() {
        let pool = BufferPool::new(2);
        let loads = std::cell::Cell::new(0u32);
        let (a, first) = pool
            .with_page(9, stamping_loader(&loads, 9), |b| {
                u32::from_le_bytes(b[0..4].try_into().unwrap())
            })
            .unwrap();
        assert_eq!((a, first, loads.get()), (Access::Miss, 9, 1));
        let (a, again) = pool
            .with_page(9, stamping_loader(&loads, 9), |b| {
                u32::from_le_bytes(b[0..4].try_into().unwrap())
            })
            .unwrap();
        assert_eq!((a, again, loads.get()), (Access::Hit, 9, 1), "hit must not reload");
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
    fn sharded_inclusion_property_on_random_trace() {
        // With a fixed shard count, the page→shard map is capacity
        // independent and every per-shard capacity grows with the
        // total, so aggregate hits stay monotone in capacity.
        let mut x = 0x9E37_79B9u64;
        let trace: Vec<u32> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 64) * (x >> 32 & 1) + x % 24) as u32
            })
            .collect();
        let mut last_hits = 0u64;
        for cap in [4usize, 8, 16, 32, 64] {
            let pool = BufferPool::with_shards(cap, 4);
            assert_eq!(pool.shards(), 4);
            for &p in &trace {
                touch(&pool, p);
            }
            let hits = pool.stats().hits;
            assert!(
                hits >= last_hits,
                "cap {cap} x4 shards: hits {hits} dropped below {last_hits}"
            );
            last_hits = hits;
        }
    }

    #[test]
    fn sharded_pool_aggregates_match_single_shard_when_unbounded() {
        // With no eviction, hit/miss totals are layout-independent:
        // every page misses once and hits thereafter, whatever shard
        // it hashed to.
        for shards in [1usize, 2, 4, 8] {
            let pool = BufferPool::with_shards(usize::MAX, shards);
            for p in 0..300u32 {
                assert_eq!(touch(&pool, p), Access::Miss, "{shards} shards");
            }
            for p in 0..300u32 {
                assert_eq!(touch(&pool, p), Access::Hit, "{shards} shards");
            }
            let s = pool.stats();
            assert_eq!((s.misses, s.hits, s.evictions, s.resident), (300, 300, 0, 300));
        }
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let pool = BufferPool::with_shards(3, 16);
        assert_eq!(pool.shards(), 3);
        let pool = BufferPool::with_shards(5, 0);
        assert_eq!(pool.shards(), 1);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = BufferPool::new(2);
        pool.pin(1, |b| {
            b[0] = 11;
            Ok(())
        })
        .unwrap();
        for p in 2..10u32 {
            touch(&pool, p); // churns the one unpinned frame
        }
        let (access, byte) = pool
            .with_page(1, |_| panic!("pinned page must not reload"), |b| b[0])
            .unwrap();
        assert_eq!((access, byte), (Access::Hit, 11));
        assert!(pool.unpin(1));
        assert!(!pool.unpin(1), "second unpin has nothing to release");
    }

    #[test]
    fn all_pinned_pool_still_serves_misses() {
        let pool = BufferPool::new(1);
        pool.pin(1, |b| {
            b[0] = 1;
            Ok(())
        })
        .unwrap();
        // Page 2 cannot be cached, but the access must still succeed.
        assert_eq!(touch(&pool, 2), Access::Miss);
        assert_eq!(touch(&pool, 2), Access::Miss, "uncacheable: misses again");
        assert_eq!(pool.stats().resident, 1);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn pin_with_page_reports_scratch_fallback() {
        let pool = BufferPool::new(1);
        let (a, cached, ()) = pool
            .pin_with_page(1, |b| { b[0] = 1; Ok(()) }, |_, _| ())
            .unwrap();
        assert_eq!((a, cached), (Access::Miss, true));
        // Frame 1 is pinned: page 2 lands in scratch, uncached, unpinned.
        let (a, cached, byte) = pool
            .pin_with_page(2, |b| { b[0] = 22; Ok(()) }, |b, cached| {
                assert!(!cached);
                b[0]
            })
            .unwrap();
        assert_eq!((a, cached, byte), (Access::Miss, false, 22));
        assert!(!pool.unpin(2), "scratch reads take no pin");
        assert!(pool.unpin(1));
    }

    #[test]
    fn failed_load_caches_nothing() {
        let pool = BufferPool::new(2);
        let r = pool.access(5, |_| Err(StoreError::PageChecksum { page: 5 }));
        assert!(matches!(r, Err(StoreError::PageChecksum { page: 5 })));
        assert_eq!(pool.stats().resident, 0);
        // The page is still loadable afterwards.
        assert_eq!(touch(&pool, 5), Access::Miss);
        assert_eq!(touch(&pool, 5), Access::Hit);
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
    fn evict_hook_sees_every_departure() {
        use std::sync::Arc;
        let evicted = Arc::new(Mutex::new(Vec::new()));
        let pool = BufferPool::new(2);
        let sink = evicted.clone();
        pool.set_evict_hook(Box::new(move |page| {
            sink.lock().unwrap().push(page);
        }));
        touch(&pool, 1);
        touch(&pool, 2);
        touch(&pool, 3); // evicts 1 (LRU)
        assert_eq!(*evicted.lock().unwrap(), vec![1]);
        pool.clear(); // drops 2 and 3, in some order
        let mut rest = evicted.lock().unwrap().clone();
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        BufferPool::new(0);
    }

    #[test]
    fn panicking_loader_does_not_poison_the_pool() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::new(2));
        touch(&pool, 1);
        // A query thread panics *inside* the pool's critical section.
        let p2 = pool.clone();
        let crashed = std::thread::spawn(move || {
            p2.access(9, |_| panic!("simulated decode bug")).ok();
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
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::new(8));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let page = (i * (t + 1)) % 16;
                    pool.access(page, |buf| {
                        buf[0..4].copy_from_slice(&page.to_le_bytes());
                        Ok(())
                    })
                    .unwrap();
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

    #[test]
    fn concurrent_sharded_access_is_consistent() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::with_shards(8, 4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let page = (i * (t + 1)) % 16;
                    pool.access(page, |buf| {
                        buf[0..4].copy_from_slice(&page.to_le_bytes());
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4 * 2_000);
        assert!(s.resident <= 8);
    }
}
