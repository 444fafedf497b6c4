//! The zero-downtime hot-swap epoch handle.
//!
//! A serving process must replace its index (a rebuilt page file, a
//! fresher dataset) without dropping a single in-flight query. The
//! [`IndexHandle`] implements the classic epoch scheme with plain `std`
//! parts (an `ArcSwap` without the dependency):
//!
//! - readers call [`IndexHandle::load`] — a read-lock held only long
//!   enough to clone an `Arc<Generation>` — and run the whole query on
//!   that clone, so a flip mid-query is invisible: the answer is valid
//!   for exactly the generation the query loaded, never a torn mix;
//! - [`IndexHandle::swap_index`] write-locks, flips the `Arc`, releases
//!   the lock, then **drains**: it polls the old generation's reference
//!   count until every in-flight clone has dropped (bounded by
//!   `drain_timeout`), records the pool's pin gauge as evidence that no
//!   query leaked a page pin, and finally drops the old index — which
//!   closes its page store and releases the file's advisory lock.
//!
//! New queries admitted during the drain already load the new
//! generation, so the flip is wait-free for readers and the old store
//! closes exactly when its last query finishes.

use nwc_core::{
    AnytimeKnwc, AnytimeNwc, Approx, DiskIndexConfig, IndexOpenError, KnwcQuery, KnwcResult,
    MetricsSnapshot, NwcIndex, NwcQuery, NwcResult, QueryError, QueryScratch, Scheme, SearchStats,
    ShardedNwcIndex, ShardedStoreError,
};
use nwc_rtree::Budget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The index a generation serves: a single tree or a spatially sharded
/// scatter-gather index — the worker loop and control plane are
/// agnostic, going through this enum's forwarding methods.
// One value per generation behind an Arc, never in collections, so
// the variant size gap costs nothing; boxing would only add a hop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServedIndex {
    /// One R\*-tree (`NwcIndex`).
    Single(NwcIndex),
    /// K spatial shards with the scatter-gather planner.
    Sharded(ShardedNwcIndex),
}

impl From<NwcIndex> for ServedIndex {
    fn from(index: NwcIndex) -> Self {
        ServedIndex::Single(index)
    }
}

impl From<ShardedNwcIndex> for ServedIndex {
    fn from(index: ShardedNwcIndex) -> Self {
        ServedIndex::Sharded(index)
    }
}

impl ServedIndex {
    /// Live objects served.
    pub fn len(&self) -> usize {
        match self {
            ServedIndex::Single(i) => i.len(),
            ServedIndex::Sharded(i) => i.len(),
        }
    }

    /// Whether the index holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard count (1 for a single tree).
    pub fn shard_count(&self) -> usize {
        match self {
            ServedIndex::Single(_) => 1,
            ServedIndex::Sharded(i) => i.shard_count(),
        }
    }

    /// Forwarded [`NwcIndex::try_nwc_full_cancel`] (scatter-gather on a
    /// sharded generation; the scratch serves the single/K=1 path).
    pub fn try_nwc_full_cancel(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        cancel: &Budget,
    ) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
        match self {
            ServedIndex::Single(i) => i.try_nwc_full_cancel(query, scheme, scratch, cancel),
            ServedIndex::Sharded(i) => i.try_nwc_full_cancel(query, scheme, scratch, cancel),
        }
    }

    /// Forwarded [`NwcIndex::try_knwc_cancel`].
    pub fn try_knwc_cancel(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        cancel: &Budget,
    ) -> Result<KnwcResult, QueryError> {
        match self {
            ServedIndex::Single(i) => i.try_knwc_cancel(query, scheme, scratch, cancel),
            ServedIndex::Sharded(i) => i.try_knwc_cancel(query, scheme, scratch, cancel),
        }
    }

    /// Forwarded anytime `NWC`: runs until `budget` expires and returns
    /// the best-so-far answer with a proven bound instead of erroring.
    /// The second value counts shards that failed or tripped and were
    /// merged around (always 0 on a single tree — a single tree's
    /// budget trip is reported in the answer itself, not here).
    pub fn try_nwc_anytime(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        budget: &Budget,
        approx: Approx,
    ) -> Result<(AnytimeNwc, usize), QueryError> {
        match self {
            ServedIndex::Single(i) => i
                .try_nwc_anytime_with(query, scheme, scratch, budget, approx)
                .map(|a| (a, 0)),
            ServedIndex::Sharded(i) => i
                .try_nwc_anytime(query, scheme, budget, approx)
                .map(|s| (s.anytime, s.degraded.len())),
        }
    }

    /// Forwarded anytime `kNWC`; see [`ServedIndex::try_nwc_anytime`].
    pub fn try_knwc_anytime(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        budget: &Budget,
        approx: Approx,
    ) -> Result<(AnytimeKnwc, usize), QueryError> {
        match self {
            ServedIndex::Single(i) => i
                .try_knwc_anytime_with(query, scheme, scratch, budget, approx)
                .map(|a| (a, 0)),
            ServedIndex::Sharded(i) => i
                .try_knwc_anytime(query, scheme, budget, approx)
                .map(|s| (s.anytime, s.degraded.len())),
        }
    }

    /// The metrics snapshot for the `/metrics` surface (per-shard
    /// aggregate on a sharded generation).
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            ServedIndex::Single(i) => MetricsSnapshot::capture(i),
            ServedIndex::Sharded(i) => MetricsSnapshot::capture_sharded(i),
        }
    }

    /// Currently pinned pool frames, summed across shard pools (0 for
    /// arena-backed indexes) — the swap drain's pin-leak evidence.
    pub fn pinned(&self) -> u64 {
        match self {
            ServedIndex::Single(i) => i
                .tree()
                .storage()
                .map_or(0, |s| s.pool_stats().pinned as u64),
            ServedIndex::Sharded(i) => i
                .shards()
                .iter()
                .map(|s| {
                    s.tree()
                        .storage()
                        .map_or(0, |st| st.pool_stats().pinned as u64)
                })
                .sum(),
        }
    }
}

/// One index generation: the index plus its epoch id.
#[derive(Debug)]
pub struct Generation {
    /// Monotonic generation id (the first is 1).
    pub id: u64,
    /// The index this generation serves.
    pub index: ServedIndex,
}

/// What a swap did. Returned by [`IndexHandle::swap_index`].
#[derive(Clone, Copy, Debug)]
pub struct SwapReport {
    /// The generation served before the flip.
    pub old_generation: u64,
    /// The generation serving after the flip.
    pub new_generation: u64,
    /// How long the drain waited for in-flight queries on the old
    /// generation.
    pub drain: Duration,
    /// Whether every in-flight reference dropped before the timeout.
    /// `false` means the old generation (and its store) is still alive
    /// somewhere — a leaked guard or a very slow query.
    pub drained: bool,
    /// The old generation's pool pin gauge at close (disk-backed only;
    /// 0 otherwise). Non-zero indicates a pin leak.
    pub old_pinned: u64,
}

/// An epoch handle over the currently-served [`Generation`]. See the
/// module docs. Cheap to share (`Arc<IndexHandle>`); readers never
/// block writers for longer than one `Arc` clone.
pub struct IndexHandle {
    current: RwLock<Arc<Generation>>,
    next_id: AtomicU64,
    drain_timeout: Duration,
}

impl IndexHandle {
    /// A handle serving `index` (single or sharded) as generation 1,
    /// with a 30 s drain timeout.
    pub fn new(index: impl Into<ServedIndex>) -> Self {
        IndexHandle {
            current: RwLock::new(Arc::new(Generation {
                id: 1,
                index: index.into(),
            })),
            next_id: AtomicU64::new(2),
            drain_timeout: Duration::from_secs(30),
        }
    }

    /// Sets how long [`IndexHandle::swap_index`] waits for in-flight
    /// queries on the old generation before giving up on the drain.
    #[must_use]
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// The generation to run a query on. Hold the returned `Arc` for
    /// the whole query: the generation — and its page store — stays
    /// alive until the last clone drops, even across a concurrent swap.
    pub fn load(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// The id of the currently-served generation.
    pub fn generation(&self) -> u64 {
        self.load().id
    }

    /// Atomically replaces the served index with `index`, then drains
    /// and closes the old generation. In-flight queries keep their
    /// loaded generation and finish normally; queries admitted after
    /// the flip see the new one. Never blocks readers beyond the
    /// write-lock flip itself.
    pub fn swap_index(&self, index: impl Into<ServedIndex>) -> SwapReport {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(Generation {
            id,
            index: index.into(),
        });
        let old = {
            let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *cur, fresh)
        };
        let old_generation = old.id;
        // Drain: wait for every in-flight clone of the old generation
        // to drop. Ours is the last one standing when strong_count == 1.
        let start = Instant::now();
        let mut drained = Arc::strong_count(&old) == 1;
        while !drained && start.elapsed() < self.drain_timeout {
            std::thread::sleep(Duration::from_micros(200));
            drained = Arc::strong_count(&old) == 1;
        }
        let drain = start.elapsed();
        // Pin-leak evidence, captured before the store closes: with the
        // drain complete no query holds a page guard, so the pools must
        // report zero pinned frames (summed across shards).
        let old_pinned = old.index.pinned();
        drop(old); // closes the store, releasing its advisory file lock
        SwapReport {
            old_generation,
            new_generation: id,
            drain,
            drained,
            old_pinned,
        }
    }

    /// Opens the index at `path` as a new generation and swaps to it
    /// (see [`IndexHandle::swap_index`]). A directory holding a sharded
    /// `MANIFEST` (written by `ShardedNwcIndex::save_to_dir`) opens as
    /// a sharded generation; anything else opens as a single page file.
    /// On an open error the served generation is untouched.
    pub fn swap_from_path(
        &self,
        path: impl AsRef<std::path::Path>,
        config: DiskIndexConfig,
    ) -> Result<SwapReport, SwapOpenError> {
        let path = path.as_ref();
        if path.join("MANIFEST").is_file() {
            let index = ShardedNwcIndex::open_dir(path, config).map_err(SwapOpenError::Sharded)?;
            Ok(self.swap_index(index))
        } else {
            let index = NwcIndex::open_disk(path, config).map_err(SwapOpenError::Single)?;
            Ok(self.swap_index(index))
        }
    }
}

/// An error opening the replacement index during
/// [`IndexHandle::swap_from_path`].
#[derive(Debug)]
pub enum SwapOpenError {
    /// A single page file failed to open.
    Single(IndexOpenError),
    /// A sharded index directory failed to open.
    Sharded(ShardedStoreError),
}

impl std::fmt::Display for SwapOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapOpenError::Single(e) => write!(f, "{e}"),
            SwapOpenError::Sharded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SwapOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwapOpenError::Single(e) => Some(e),
            SwapOpenError::Sharded(e) => Some(e),
        }
    }
}

impl std::fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle")
            .field("generation", &self.generation())
            .field("drain_timeout", &self.drain_timeout)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    fn index(offset: f64) -> NwcIndex {
        let pts: Vec<_> = (0..200)
            .map(|i| {
                pt(
                    offset + ((i * 37) % 211) as f64,
                    offset + ((i * 53) % 197) as f64,
                )
            })
            .collect();
        NwcIndex::build(pts)
    }

    #[test]
    fn load_pins_generation_across_swap() {
        let handle = IndexHandle::new(index(0.0)).with_drain_timeout(Duration::from_millis(50));
        let held = handle.load();
        assert_eq!(held.id, 1);
        let report = handle.swap_index(index(1000.0));
        assert_eq!(report.old_generation, 1);
        assert_eq!(report.new_generation, 2);
        // `held` still outstanding: the drain must have timed out.
        assert!(!report.drained);
        // The held generation still answers: its index is untouched.
        assert_eq!(held.index.len(), 200);
        // New loads see the new generation.
        assert_eq!(handle.load().id, 2);
        drop(held);
    }

    #[test]
    fn swap_drains_immediately_when_idle() {
        let handle = IndexHandle::new(index(0.0));
        let report = handle.swap_index(index(50.0));
        assert!(report.drained);
        assert_eq!(report.old_pinned, 0);
        assert_eq!(handle.generation(), 2);
    }

    #[test]
    fn generations_are_monotonic() {
        let handle = IndexHandle::new(index(0.0));
        for want in 2..6u64 {
            let r = handle.swap_index(index(want as f64));
            assert_eq!(r.new_generation, want);
            assert_eq!(r.old_generation, want - 1);
        }
    }

    #[test]
    fn swap_to_a_sharded_generation_from_a_saved_dir() {
        let handle = IndexHandle::new(index(0.0));
        // A sharded index can be swapped in directly...
        let pts: Vec<_> = (0..400)
            .map(|i| pt(((i * 37) % 211) as f64, ((i * 53) % 197) as f64))
            .collect();
        let sharded = ShardedNwcIndex::build(pts.clone(), 4);
        let report = handle.swap_index(sharded);
        assert!(report.drained);
        let generation = handle.load();
        assert_eq!(generation.index.shard_count(), 4);
        assert_eq!(generation.index.len(), 400);
        drop(generation);
        // ...and from a saved directory through the path-based swap
        // (the wire control plane's entry point), pool budget split.
        let dir = std::env::temp_dir().join(format!(
            "nwc-serve-shard-swap-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ShardedNwcIndex::build(pts, 2)
            .save_to_dir(&dir)
            .expect("save sharded dir");
        let report = handle
            .swap_from_path(
                &dir,
                DiskIndexConfig {
                    pool_capacity: Some(64),
                    ..DiskIndexConfig::default()
                },
            )
            .expect("swap from sharded dir");
        assert!(report.drained);
        assert_eq!(report.old_pinned, 0);
        let generation = handle.load();
        assert_eq!(generation.index.shard_count(), 2);
        // The served sharded generation answers queries.
        let query = nwc_core::NwcQuery::new(
            pt(100.0, 100.0),
            nwc_core::WindowSpec::square(40.0),
            4,
        );
        let mut scratch = QueryScratch::new();
        let (result, _) = generation
            .index
            .try_nwc_full_cancel(&query, Scheme::NWC_PLUS, &mut scratch, &Budget::none())
            .expect("sharded generation answers");
        assert!(result.is_some());
        drop(generation);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
