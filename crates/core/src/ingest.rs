//! Streaming ingest with sliding-window retention.
//!
//! The NWC paper evaluates static snapshots, but the motivating data
//! sources (check-ins, listings, sensor sightings) arrive as streams.
//! [`StreamingIngestor`] wraps an [`NwcIndex`] with the standard
//! stream-index discipline:
//!
//! - **Append**: [`StreamingIngestor::push`] inserts the newest point.
//! - **Sliding-window eviction**: when the index holds `capacity` live
//!   objects, the *oldest* live object (FIFO by insertion epoch) is
//!   removed first, so the index always answers queries over the most
//!   recent `capacity` observations.
//! - **Commit cadence**: on a writable disk-backed index, mutations
//!   accumulate in the copy-on-write overlay; every `commit_every`
//!   pushes the ingestor calls [`NwcIndex::commit`], trading durability
//!   lag against commit amortization. In-memory indexes ignore the
//!   cadence (their mutations are always live).
//!
//! The ingestor is backend-agnostic: the same code path drives an
//! in-memory index and a writable disk index, so the same stream gives
//! the same answers on both (`tests/disk_equivalence.rs`).
//!
//! Queries remain available between pushes through
//! [`StreamingIngestor::index`] — the wrapped index is never torn down,
//! and on a disk backend uncommitted mutations are visible to queries
//! immediately (overlay-first reads).

use crate::index::{IndexUpdateError, NwcIndex};
use nwc_geom::Point;
use std::collections::VecDeque;

/// Retention and durability policy for a [`StreamingIngestor`].
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Maximum live objects retained; pushing beyond it evicts the
    /// oldest live object first. Must be ≥ 1.
    pub capacity: usize,
    /// Commit after this many pushes (disk-backed indexes only).
    /// 0 disables automatic commits — the caller owns durability via
    /// [`StreamingIngestor::commit`].
    pub commit_every: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            capacity: usize::MAX,
            commit_every: 0,
        }
    }
}

/// A sliding-window streaming wrapper over an [`NwcIndex`]; see the
/// module docs.
pub struct StreamingIngestor {
    index: NwcIndex,
    config: IngestConfig,
    /// Live object ids, oldest first. Ids of objects present at wrap
    /// time are enqueued in id order (build order = arrival order for
    /// every dataset loader in this repo).
    window: VecDeque<u32>,
    pushes_since_commit: usize,
    evicted: u64,
    commits: u64,
}

impl StreamingIngestor {
    /// Wraps `index`, adopting its current live objects as the initial
    /// window content (oldest = smallest id).
    ///
    /// # Panics
    ///
    /// Panics when `config.capacity` is 0 — a windowed index must be
    /// allowed to hold at least one object.
    pub fn new(index: NwcIndex, config: IngestConfig) -> Self {
        assert!(config.capacity >= 1, "ingest window capacity must be >= 1");
        let window: VecDeque<u32> = (0..index.points().len() as u32)
            .filter(|&id| index.is_live(id))
            .collect();
        StreamingIngestor {
            index,
            config,
            window,
            pushes_since_commit: 0,
            evicted: 0,
            commits: 0,
        }
    }

    /// Inserts `point`, evicting the oldest live object first when the
    /// window is full. Returns the new object's id.
    ///
    /// A point the index would refuse (non-finite, or no id left) is
    /// rejected before anything is evicted, so the window is unchanged.
    /// On a disk-backed index an I/O error mid-update can leave the
    /// uncommitted overlay partially applied; discard the ingestor and
    /// reopen from the last committed state.
    pub fn push(&mut self, point: Point) -> Result<u32, IndexUpdateError> {
        self.index.check_insert(point)?;
        while self.window.len() >= self.config.capacity {
            // Evict before inserting so capacity also bounds the
            // index's transient size.
            if let Some(oldest) = self.window.pop_front() {
                self.index.remove(oldest)?;
                self.evicted += 1;
            }
        }
        let id = self.index.insert(point)?;
        self.window.push_back(id);
        self.pushes_since_commit += 1;
        if self.config.commit_every > 0 && self.pushes_since_commit >= self.config.commit_every {
            self.commit()?;
        }
        Ok(id)
    }

    /// Commits pending mutations of a disk-backed index now (a no-op on
    /// in-memory indexes) and resets the commit cadence counter.
    pub fn commit(&mut self) -> Result<(), IndexUpdateError> {
        self.index.commit()?;
        self.pushes_since_commit = 0;
        self.commits += 1;
        Ok(())
    }

    /// The wrapped index, for running queries between pushes.
    pub fn index(&self) -> &NwcIndex {
        &self.index
    }

    /// Number of live objects currently retained.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Objects evicted by the sliding window so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Commits performed (explicit and cadence-driven).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Consumes the ingestor, returning the wrapped index (pending
    /// mutations are *not* committed — call
    /// [`StreamingIngestor::commit`] first if durability matters).
    pub fn into_index(self) -> NwcIndex {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::testing::*;
    use nwc_geom::pt;

    fn base_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| pt(((i * 37) % 500) as f64, ((i * 91) % 500) as f64))
            .collect()
    }

    #[test]
    fn push_beyond_capacity_evicts_fifo() {
        let idx = NwcIndex::build(base_points(10));
        let mut ing = StreamingIngestor::new(
            idx,
            IngestConfig {
                capacity: 10,
                commit_every: 0,
            },
        );
        // Two pushes must evict ids 0 and 1, the oldest.
        ing.push(pt(600.0, 600.0)).unwrap();
        ing.push(pt(601.0, 601.0)).unwrap();
        assert_eq!(ing.window_len(), 10);
        assert_eq!(ing.evicted(), 2);
        let idx = ing.index();
        assert!(!idx.is_live(0));
        assert!(!idx.is_live(1));
        assert!(idx.is_live(2));
        assert!(idx.is_live(10) && idx.is_live(11));
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn unbounded_config_never_evicts() {
        let idx = NwcIndex::build(base_points(5));
        let mut ing = StreamingIngestor::new(idx, IngestConfig::default());
        for i in 0..50 {
            ing.push(pt(700.0 + i as f64, 700.0)).unwrap();
        }
        assert_eq!(ing.evicted(), 0);
        assert_eq!(ing.window_len(), 55);
        assert_eq!(ing.index().len(), 55);
    }

    #[test]
    fn queries_stay_correct_under_churn() {
        use crate::{NwcQuery, Scheme};
        use nwc_geom::window::WindowSpec;

        let idx = NwcIndex::build(base_points(200));
        let mut ing = StreamingIngestor::new(
            idx,
            IngestConfig {
                capacity: 200,
                commit_every: 0,
            },
        );
        // Stream a tight cluster near (800, 800); the window slides over
        // the old uniform points.
        for i in 0..150u32 {
            ing.push(pt(800.0 + (i % 5) as f64, 800.0 + (i / 5 % 5) as f64))
                .unwrap();
        }
        let q = NwcQuery::new(pt(790.0, 790.0), WindowSpec::square(10.0), 8);
        let hit = nwc(ing.index(), &q, Scheme::NWC).expect("cluster exists");
        assert_eq!(hit.objects.len(), 8);
        assert!(hit.objects.iter().all(|e| e.point.x >= 799.0));
    }

    #[test]
    fn non_finite_push_is_rejected_before_eviction() {
        let idx = NwcIndex::build(base_points(4));
        let mut ing = StreamingIngestor::new(
            idx,
            IngestConfig {
                capacity: 4,
                commit_every: 0,
            },
        );
        for bad in [pt(f64::NAN, 1.0), pt(1.0, f64::INFINITY)] {
            assert_eq!(ing.push(bad), Err(IndexUpdateError::NonFinitePoint));
        }
        // The full window evicted nothing for the rejected pushes.
        assert_eq!(ing.evicted(), 0);
        assert_eq!(ing.window_len(), 4);
        assert!((0..4).all(|id| ing.index().is_live(id)));
        assert_eq!(ing.index().len(), 4);
        // The next valid push evicts the oldest as usual.
        assert_eq!(ing.push(pt(1.0, 1.0)), Ok(4));
        assert!(!ing.index().is_live(0));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let idx = NwcIndex::build(base_points(3));
        let _ = StreamingIngestor::new(
            idx,
            IngestConfig {
                capacity: 0,
                commit_every: 0,
            },
        );
    }
}
