//! Spatial sharding and the scatter-gather NWC/kNWC planner.
//!
//! The single-tree search prunes with one global `dist_best` bound that
//! tightens only as fast as one best-first descent can go. This module
//! cuts the dataset into K spatial tiles (the bulk loader's own STR
//! discipline, [`nwc_rtree::str_partition`]), builds one R\*-tree per
//! tile, and browses **all shards concurrently** while *sharing* the
//! bound: every candidate group any shard scores is published into one
//! atomic `dist_best` (f64-bits CAS-min — for non-negative floats the
//! bit pattern orders exactly like the value), and every shard's
//! SRR/DIP pruning reads the shared bound before each expand. One
//! shard's early answer shrinks every other shard's search region, so
//! the scatter is work-efficient, not just parallel.
//!
//! # Why the answer equals the single-tree oracle
//!
//! - **Traversal**: every object lives in exactly one shard, so the
//!   union of the per-shard best-first streams visits each object once,
//!   exactly like the single tree (order differs; see below).
//! - **Window queries**: a candidate window is evaluated against the
//!   union of all shard trees' window-query results. Window queries
//!   append, shard contents are disjoint, and the candidate scan is
//!   invariant to neighbor *order* given the same neighbor *set* — so
//!   each evaluated window sees exactly the single-tree neighbor set.
//! - **SRR/DIP bounds are shard-agnostic**: both prune against
//!   `dist_best`, a property of the *query answer*, not of any tree.
//!   Sharing the bound can only make pruning earlier, never wrong,
//!   because every published score is the score of a real group.
//! - **DEP**: density counts must cover the *whole* dataset, so a K>1
//!   sharded index keeps one **global** density grid (per-shard grids
//!   would undercount and prune wrongly). IWP needs no structure: a
//!   shard search fetches each leaf neighbourhood from the root of
//!   every shard tree it meets, through one node memo per tree.
//! - **Determinism of the merge**: all sinks are *tie-inclusive*
//!   (pruning thresholds sit one ulp above the bound) and resolve
//!   equal-score groups canonically by `(sorted ids, window)` — the
//!   same canonical order the brute-force oracle sorts by. The merged
//!   answer is therefore a function of the offered group *set*, not of
//!   shard interleaving or thread count.
//!
//! The kNWC scatter shares the buffered greedy top-k state
//! ([`GroupsCore`]) behind a mutex with a lock-free cached threshold.
//! Its §3.4 distance pruning inherits the paper's (documented) cascade
//! caveat, which under K>1 additionally makes the *pruned* variant
//! order-sensitive on adversarial conflict structures; the unpruned
//! [`ShardedNwcIndex::try_knwc_exact`] is exactly order-independent.
//!
//! # K = 1 fast path
//!
//! A 1-shard index is built (or opened) exactly like an unsharded
//! [`NwcIndex`] — STR partitioning with K = 1 returns the input
//! unchanged — and every query delegates to the single-tree code, so
//! answers *and* [`SearchStats`] are bit-identical to the unsharded
//! path.
//!
//! # One buffer-pool budget
//!
//! Disk-backed shards live in per-shard page files under one directory
//! manifest. One total pool capacity is budgeted across the shard pools
//! with [`nwc_store::split_capacity`], a monotone split: growing the
//! total budget never shrinks any shard's share.
//!
//! Everything outside `#[cfg(test)]` in this module is panic-free by
//! policy (same bar as the serving layer): failures surface as typed
//! errors. A DEP scheme on an index without a density grid skips DEP,
//! for every K, exactly as the unsharded index does — the search loop is the same one ([`best_first`]).

use crate::algo::{best_first, canonical_less, tie_inclusive, BestSink, SearchEnd};
use crate::anytime::{AnytimeNwc, Approx, BudgetSpent};
use crate::candidates::{CountTest, GroupSink};
use crate::engine::scatter_map;
use crate::index::{density_grid, DiskIndexConfig, IndexConfig, IndexOpenError, IndexUpdateError};
use crate::knwc::{GroupsCore, KnwcResult};
use crate::query::{KnwcQuery, NwcQuery, QueryError};
use crate::request::{Answer, Outcome, Query, SearchRequest};
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use crate::scratch::QueryScratch;
use crate::NwcIndex;
use nwc_geom::{Point, Rect};
use nwc_grid::DensityGrid;
use nwc_rtree::{str_partition, Budget, CancelKind, DiskError, Entry, ObjectId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Sentinel in the id → shard owner table for dead/unknown ids.
const NO_OWNER: u32 = u32::MAX;

/// Manifest file name inside a sharded index directory.
const MANIFEST: &str = "MANIFEST";

/// A spatially sharded NWC index: K disjoint tiles, one R\*-tree each,
/// queried by the scatter-gather planner with a shared `dist_best`
/// bound. See the module docs.
pub struct ShardedNwcIndex {
    shards: Vec<NwcIndex>,
    /// Global density grid (K > 1 only; a 1-shard index delegates to
    /// its shard's own grid).
    grid: Option<DensityGrid>,
    /// id → owning shard (NO_OWNER = dead).
    owner: Vec<u32>,
    /// Next globally unique object id for [`ShardedNwcIndex::insert`].
    next_id: u32,
    bounds: Rect,
    threads: usize,
}

/// The [`Outcome`] of a sharded NWC search in the shape the benchmark
/// adapter reads: the merged best-so-far answer with its combined
/// quality bound, plus which shards could not finish. A degraded shard
/// never fails the query — its unexplored territory is folded into
/// [`AnytimeNwc::lower_bound`] instead.
#[derive(Clone, Debug)]
pub struct ShardedAnytimeNwc {
    /// The merged answer, bound, and aggregate spend.
    pub anytime: AnytimeNwc,
    /// Per-shard counters, indexed by shard (zeroed for a shard that
    /// failed before reporting).
    pub per_shard: Vec<SearchStats>,
    /// `(shard, error)` for every shard whose search failed outright;
    /// each contributes the `MINDIST` from the query point to its
    /// bounds (minus the window slack) to the merged lower bound.
    pub degraded: Vec<(usize, QueryError)>,
}

impl ShardedAnytimeNwc {
    /// Whether every shard ran its frontier dry: the answer is exact
    /// for `ε = 0`, `(1+ε)`-approximate otherwise.
    pub fn is_complete(&self) -> bool {
        self.anytime.is_complete() && self.degraded.is_empty()
    }
}

impl From<Outcome> for ShardedAnytimeNwc {
    fn from(mut out: Outcome) -> Self {
        let per_shard = std::mem::take(&mut out.per_shard);
        let degraded = std::mem::take(&mut out.degraded);
        ShardedAnytimeNwc {
            anytime: out.into(),
            per_shard,
            degraded,
        }
    }
}

/// An error assembling a sharded index from pre-built shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardAssemblyError {
    /// No shards were given.
    NoShards,
    /// Two shards both hold a live object with this id.
    DuplicateId(u32),
    /// Every given shard is empty.
    Empty,
}

impl std::fmt::Display for ShardAssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardAssemblyError::NoShards => write!(f, "no shards given"),
            ShardAssemblyError::DuplicateId(id) => {
                write!(f, "object id {id} is live in two shards")
            }
            ShardAssemblyError::Empty => write!(f, "every shard is empty"),
        }
    }
}

impl std::error::Error for ShardAssemblyError {}

/// An error opening or saving a sharded index directory.
#[derive(Debug)]
pub enum ShardedStoreError {
    /// Directory or manifest I/O failed.
    Io(std::io::Error),
    /// The manifest exists but does not parse.
    Manifest(String),
    /// One shard's page file failed to open.
    Open {
        /// Shard ordinal.
        shard: usize,
        /// The underlying open failure.
        error: IndexOpenError,
    },
    /// One shard's page file failed to save.
    Save {
        /// Shard ordinal.
        shard: usize,
        /// The underlying save failure.
        error: DiskError,
    },
}

impl std::fmt::Display for ShardedStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedStoreError::Io(e) => write!(f, "sharded index directory I/O failed: {e}"),
            ShardedStoreError::Manifest(what) => write!(f, "bad sharded index manifest: {what}"),
            ShardedStoreError::Open { shard, error } => {
                write!(f, "shard {shard} failed to open: {error}")
            }
            ShardedStoreError::Save { shard, error } => {
                write!(f, "shard {shard} failed to save: {error}")
            }
        }
    }
}

impl std::error::Error for ShardedStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedStoreError::Io(e) => Some(e),
            ShardedStoreError::Manifest(_) => None,
            ShardedStoreError::Open { error, .. } => Some(error),
            ShardedStoreError::Save { error, .. } => Some(error),
        }
    }
}

impl From<std::io::Error> for ShardedStoreError {
    fn from(e: std::io::Error) -> Self {
        ShardedStoreError::Io(e)
    }
}

impl ShardedNwcIndex {
    // ------------------------------------------------------------------
    // Construction.
    // ------------------------------------------------------------------

    /// Builds a sharded index over `points` with at most `shards` tiles
    /// and default per-shard configuration.
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty or contains non-finite coordinates
    /// (construction shares [`NwcIndex::build`]'s contract; queries are
    /// panic-free).
    pub fn build(points: Vec<Point>, shards: usize) -> Self {
        Self::build_with(points, shards, IndexConfig::default())
    }

    /// As [`ShardedNwcIndex::build`] with explicit per-shard
    /// configuration. Fewer than `shards` tiles are built when the
    /// dataset is smaller than the tile count (tiles are never empty).
    /// With `shards <= 1` the single shard is built exactly like an
    /// unsharded [`NwcIndex::build_with`] — bit-identical tree and
    /// grid — and every query delegates to it.
    pub fn build_with(points: Vec<Point>, shards: usize, config: IndexConfig) -> Self {
        let threads = default_threads();
        let n = points.len();
        if shards <= 1 || n <= 1 {
            let single = NwcIndex::build_with(points, config);
            return Self::from_single(single, threads);
        }
        let bounds = Rect::bounding(points.iter().copied()).unwrap_or_else(|| {
            // Unreachable (n >= 2 here); an empty Rect would only arise
            // from an empty iterator, which build_with rejects above.
            Rect::new(Point::new(0.0, 0.0), Point::new(0.0, 0.0))
        });
        let entries: Vec<Entry> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| Entry::new(i as ObjectId, p))
            .collect();
        let tiles = str_partition(entries, shards);
        let shard_cfg = IndexConfig {
            grid_cell_size: None, // the grid is global — see module docs
            ..config
        };
        let mut owner = vec![NO_OWNER; n];
        let shard_indexes: Vec<NwcIndex> = tiles
            .into_iter()
            .enumerate()
            .map(|(s, tile)| {
                for e in &tile {
                    owner[e.id as usize] = s as u32;
                }
                NwcIndex::from_entries(tile, shard_cfg)
            })
            .collect();
        let grid = density_grid(config.grid_cell_size, &bounds, &points);
        ShardedNwcIndex {
            shards: shard_indexes,
            grid,
            owner,
            next_id: n as u32,
            bounds,
            threads,
        }
    }

    /// Assembles a sharded index from pre-built shards — custom tilings,
    /// or shards opened through instrumented stores (the fault-injection
    /// tests use this). Shards must hold pairwise-disjoint object ids.
    /// The global density grid is rebuilt from the shard point tables
    /// when `grid_cell_size` is given (ignored for a single shard,
    /// which delegates to its own structures).
    pub fn from_shards(
        shards: Vec<NwcIndex>,
        grid_cell_size: Option<f64>,
    ) -> Result<Self, ShardAssemblyError> {
        let threads = default_threads();
        if shards.is_empty() {
            return Err(ShardAssemblyError::NoShards);
        }
        if shards.len() == 1 {
            let mut it = shards.into_iter();
            let Some(single) = it.next() else {
                return Err(ShardAssemblyError::NoShards); // unreachable: len checked
            };
            return Ok(Self::from_single(single, threads));
        }
        let mut all_points = Vec::new();
        let mut max_id = 0u32;
        for shard in &shards {
            for (id, &p) in shard.points().iter().enumerate() {
                if shard.is_live(id as u32) {
                    all_points.push(p);
                    max_id = max_id.max(id as u32);
                }
            }
        }
        let Some(bounds) = Rect::bounding(all_points.iter().copied()) else {
            return Err(ShardAssemblyError::Empty);
        };
        let mut owner = vec![NO_OWNER; max_id as usize + 1];
        for (s, shard) in shards.iter().enumerate() {
            for id in 0..shard.points().len() as u32 {
                if shard.is_live(id) {
                    if owner[id as usize] != NO_OWNER {
                        return Err(ShardAssemblyError::DuplicateId(id));
                    }
                    owner[id as usize] = s as u32;
                }
            }
        }
        let grid = density_grid(grid_cell_size, &bounds, &all_points);
        Ok(ShardedNwcIndex {
            next_id: id_after(&owner),
            shards,
            grid,
            owner,
            bounds,
            threads,
        })
    }

    fn from_single(single: NwcIndex, threads: usize) -> Self {
        let bounds = single.bounds();
        let mut owner = vec![NO_OWNER; single.points().len()];
        for (id, slot) in owner.iter_mut().enumerate() {
            if single.is_live(id as u32) {
                *slot = 0;
            }
        }
        let next_id = id_after(&owner);
        ShardedNwcIndex {
            shards: vec![single],
            grid: None,
            owner,
            next_id,
            bounds,
            threads,
        }
    }

    /// Sets the scatter width: how many OS threads browse shards
    /// concurrently (capped at the shard count; 1 = fully sequential
    /// and deterministic even for pruned kNWC). Defaults to the
    /// available parallelism.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Number of shards (tiles actually built — at most the requested
    /// count, fewer on tiny datasets).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard indexes, in tile order.
    pub fn shards(&self) -> &[NwcIndex] {
        &self.shards
    }

    /// Configured scatter width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total live objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the index holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounding box of the full dataset.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The density grid DEP prunes with: the global grid for K > 1, the
    /// single shard's own grid for K = 1. `None` when built without.
    pub fn grid(&self) -> Option<&DensityGrid> {
        match self.grid.as_ref() {
            Some(g) => Some(g),
            None => self.shards.first().and_then(|s| s.grid()),
        }
    }

    /// The shard owning object `id`, if it is live.
    pub fn owner_of(&self, id: u32) -> Option<usize> {
        match self.owner.get(id as usize) {
            Some(&s) if s != NO_OWNER => Some(s as usize),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Answers `req` by scatter-gather: the one query entry point of a
    /// sharded index. Equivalent to [`NwcIndex::search`] on the same
    /// dataset (same answer under the canonical tie-break), differing
    /// only in I/O accounting for K > 1. A 1-shard index delegates to
    /// its shard, so answers *and* [`SearchStats`] are bit-identical to
    /// the unsharded path; `scratch` serves that path, and a K > 1
    /// scatter gives each worker its own.
    ///
    /// Every shard contributes what it found within `req.budget`, and a
    /// shard that ran out of budget — or failed outright, listed in
    /// [`Outcome::degraded`] — **degrades the merged answer's bound
    /// instead of failing the query**. Bound merge: a budget-exhausted
    /// shard contributes its slack-adjusted best-first frontier key; a
    /// failed shard contributes the `MINDIST` from the query point to
    /// its bounds minus the window slack (every group it could still
    /// hide is anchored at least that far away); a completed shard
    /// contributes nothing (`+inf`). The merged lower bound is the
    /// minimum of those contributions and the `(1+ε)` certificate
    /// `score/(1+ε)`, which is sound because every group's anchor object
    /// lives in exactly one shard and that shard's search covers it.
    /// Groups found by a shard that later tripped or failed still merge
    /// into the answer — they are real groups regardless of how their
    /// shard ended. [`Outcome::complete`] turns a degraded shard back
    /// into its error.
    ///
    /// kNWC prunes with the §3.4 k-th distance; see the module docs for
    /// that variant's order-sensitivity caveat under K > 1 (run with
    /// `with_threads(1)` for a fully deterministic pruned search).
    ///
    /// Returns `Err` only for a malformed query or when the lone shard
    /// of a 1-shard index fails (nothing is left to degrade toward).
    pub fn search(
        &self,
        req: &SearchRequest,
        scratch: &mut QueryScratch,
    ) -> Result<Outcome, QueryError> {
        self.search_pruned(req, true, scratch)
    }

    /// [`ShardedNwcIndex::search`] with kNWC's distance pruning
    /// switchable (`prune = false` is [`ShardedNwcIndex::try_knwc_exact`]).
    fn search_pruned(
        &self,
        req: &SearchRequest,
        prune: bool,
        scratch: &mut QueryScratch,
    ) -> Result<Outcome, QueryError> {
        if let [single] = self.shards.as_slice() {
            // K = 1: bit-identical to the unsharded path, stats included.
            let mut out = single.search_pruned(req, prune, scratch)?;
            out.per_shard = vec![out.stats];
            return Ok(out);
        }
        req.query.validate()?;
        let started = Instant::now();
        let shrink = req.approx.shrink();
        let base = req.query.base();
        match &req.query {
            Query::Nwc(_) => {
                // Shared bound: f64 bits under CAS-min. Non-negative
                // doubles order identically to their bit patterns, so
                // fetch_min on the bits IS min on the scores.
                let bound = AtomicU64::new(f64::INFINITY.to_bits());
                let outcomes = self.scatter(base, req.scheme, &req.budget, || SharedBestSink {
                    bound: &bound,
                    shrink,
                    local: BestSink::approx(shrink),
                });
                // Deterministic merge: min score, ties by canonical
                // (sorted ids, window) — independent of shard order.
                let mut best: Option<(f64, Vec<u32>, Vec<Entry>, Rect)> = None;
                let gathered = self.gather(outcomes, base, |sink| {
                    merge_best(&mut best, &sink.local);
                });
                let stats = gathered.stats;
                let answer = best.map(|(distance, _, objects, window)| NwcResult {
                    objects,
                    distance,
                    window,
                    stats,
                });
                Ok(gathered.finish(Answer::Nwc(answer), 1, shrink, started))
            }
            Query::Knwc(q) => {
                let core = Mutex::new(GroupsCore::approx(q.k, q.m, prune, shrink));
                let cached = AtomicU64::new(f64::INFINITY.to_bits());
                let outcomes = self.scatter(base, req.scheme, &req.budget, || SharedGroupsSink {
                    core: &core,
                    cached: &cached,
                    idbuf: Vec::new(),
                });
                let gathered = self.gather(outcomes, base, |_| {});
                let core = core.into_inner().unwrap_or_else(PoisonError::into_inner);
                let answer = KnwcResult {
                    groups: core.groups(),
                    stats: gathered.stats,
                };
                Ok(gathered.finish(Answer::Knwc(answer), q.k, shrink, started))
            }
        }
    }

    /// `search` of an exact NWC request under `cancel`, all or nothing,
    /// as `(answer, stats)`. Kept only for the benchmark adapter
    /// (`nwc-benchmark/src/sut.rs`); new code calls
    /// [`ShardedNwcIndex::search`].
    pub fn try_nwc_full_cancel(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        cancel: &Budget,
    ) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
        let req = SearchRequest::nwc(*query, scheme).with_budget(cancel.clone());
        let out = self.search(&req, scratch)?.complete()?;
        let stats = out.stats;
        Ok((out.into_nwc(), stats))
    }

    /// `search` of an exact kNWC request under `cancel`, all or nothing.
    /// Kept only for the benchmark adapter (`nwc-benchmark/src/sut.rs`);
    /// new code calls [`ShardedNwcIndex::search`].
    pub fn try_knwc_cancel(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        cancel: &Budget,
    ) -> Result<KnwcResult, QueryError> {
        let req = SearchRequest::knwc(*query, scheme).with_budget(cancel.clone());
        Ok(self.search(&req, scratch)?.complete()?.into_knwc())
    }

    /// `search` of an NWC request under `budget` and `approx`, as a
    /// [`ShardedAnytimeNwc`]. Kept only for the benchmark adapter
    /// (`nwc-benchmark/src/sut.rs`); new code calls
    /// [`ShardedNwcIndex::search`].
    pub fn try_nwc_anytime(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        budget: &Budget,
        approx: Approx,
    ) -> Result<ShardedAnytimeNwc, QueryError> {
        let req = SearchRequest::nwc(*query, scheme).with_budget(budget.clone()).with_approx(approx);
        Ok(self.search(&req, &mut QueryScratch::new())?.into())
    }

    /// A kNWC scatter with distance pruning disabled: every qualified
    /// window is considered, so the answer is exactly the greedy
    /// Definition-3 selection — order-independent across any shard count
    /// and thread count (cf. [`NwcIndex::knwc_exact`]).
    pub fn try_knwc_exact(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
    ) -> Result<KnwcResult, QueryError> {
        let req = SearchRequest::knwc(*query, scheme);
        let out = self.search_pruned(&req, false, &mut QueryScratch::new())?;
        Ok(out.complete()?.into_knwc())
    }

    /// Folds scatter outcomes into one ledger, handing every shard's sink
    /// to `merge` first — groups found by a shard that later tripped or
    /// failed are real and still count. Bound merge: a budget-exhausted
    /// shard contributes its slack-adjusted frontier key, a failed shard
    /// its [`ShardedNwcIndex::shard_fallback_bound`], a completed shard
    /// nothing.
    fn gather<S>(
        &self,
        outcomes: Vec<ShardOutcome<S>>,
        query: &NwcQuery,
        mut merge: impl FnMut(&S),
    ) -> Gather {
        let slack = crate::anytime::frontier_slack(query.measure, &query.spec);
        let mut g = Gather {
            per_shard: vec![SearchStats::default(); self.shards.len()],
            stats: SearchStats::default(),
            frontier: f64::INFINITY,
            exhausted: None,
            degraded: Vec::new(),
        };
        for o in outcomes {
            merge(&o.sink);
            match o.result {
                Ok((s, end)) => {
                    if let Some(slot) = g.per_shard.get_mut(o.shard) {
                        *slot = s;
                    }
                    g.stats.accumulate(&s);
                    if let SearchEnd::Exhausted { kind, frontier } = end {
                        g.exhausted = prefer_kind(g.exhausted, kind);
                        g.frontier = g
                            .frontier
                            .min(crate::anytime::frontier_lower_bound(frontier, slack));
                    }
                }
                Err(e) => {
                    let fallback = self.shard_fallback_bound(o.shard, query, slack);
                    g.frontier = g.frontier.min(fallback);
                    g.degraded.push((o.shard, e));
                }
            }
        }
        g
    }

    /// The bound contribution of a shard that failed before reporting a
    /// frontier: every group it could still hide is anchored inside its
    /// bounds, hence scores at least `MINDIST(q, bounds) - slack`.
    /// Falls back to `0` (the vacuous bound) for an out-of-range shard
    /// index — this module never panics.
    fn shard_fallback_bound(&self, shard: usize, query: &NwcQuery, slack: f64) -> f64 {
        self.shards
            .get(shard)
            .map_or(0.0, |s| (s.bounds().mindist(&query.q) - slack).max(0.0))
    }

    // ------------------------------------------------------------------
    // The scatter driver.
    // ------------------------------------------------------------------

    /// Runs one per-shard search per shard through the engine's scoped
    /// worker pool ([`scatter_map`]: atomic-cursor distribution, one
    /// warm [`QueryScratch`] per worker). Nothing aborts the gather:
    /// every shard reports its own outcome — complete, budget-exhausted
    /// at a frontier key, or failed (a panicked worker included) — with
    /// its sink (whose partial contents stay usable either way).
    fn scatter<S, MkS>(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        budget: &Budget,
        mk_sink: MkS,
    ) -> Vec<ShardOutcome<S>>
    where
        S: GroupSink + Send,
        MkS: Fn() -> S + Sync,
    {
        let shards = &self.shards;
        // DEP prunes with the *global* grid only (see the module docs).
        let test = CountTest {
            grid: self.grid.as_ref(),
            n: query.n,
            measure: query.measure,
        };
        // Schedule shards in ascending distance from the query point:
        // the tile containing `q` runs first and establishes a
        // near-final `dist_best`, so farther shards browse under a
        // tight shared bound and SRR/DIP/DEP prune nearly everything.
        // Pure scheduling — the gather merge is canonical, so the
        // answer does not depend on this order. (Under a budget this
        // also spends the allowance nearest-first, where the answer
        // most likely lives.)
        let mindist: Vec<f64> = shards
            .iter()
            .map(|s| s.bounds().mindist2(&query.q))
            .collect();
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by(|&a, &b| mindist[a].total_cmp(&mindist[b]).then(a.cmp(&b)));
        scatter_map(self.threads, shards.len(), |j, scratch| {
            let i = order[j];
            let mut sink = mk_sink();
            let result = best_first(
                shards,
                i,
                query.q,
                &query.spec,
                scheme,
                &test,
                &mut sink,
                scratch,
                budget,
            );
            ShardOutcome {
                shard: i,
                result,
                sink,
            }
        })
        .into_iter()
        .zip(&order)
        .map(|(outcome, &i)| {
            // A worker that panicked left its shards unanswered: each
            // degrades like a failed shard, with an empty sink.
            outcome.unwrap_or_else(|| ShardOutcome {
                shard: i,
                result: Err(QueryError::WorkerPanicked),
                sink: mk_sink(),
            })
        })
        .collect()
    }

    // ------------------------------------------------------------------
    // Persistence: per-shard page files under one directory manifest.
    // ------------------------------------------------------------------

    /// Saves every shard tree as a read-only page file under `dir`
    /// (created if needed), plus a `MANIFEST` naming them. Reopen with
    /// [`ShardedNwcIndex::open_dir`].
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), ShardedStoreError> {
        self.save_dir_impl(dir.as_ref(), false)
    }

    /// As [`ShardedNwcIndex::save_to_dir`], writing *writable* (v2)
    /// page files: the reopened index accepts
    /// [`ShardedNwcIndex::insert`] / [`ShardedNwcIndex::remove`], made
    /// durable per shard by [`ShardedNwcIndex::commit_all`].
    pub fn save_to_dir_writable(&self, dir: impl AsRef<Path>) -> Result<(), ShardedStoreError> {
        self.save_dir_impl(dir.as_ref(), true)
    }

    fn save_dir_impl(&self, dir: &Path, writable: bool) -> Result<(), ShardedStoreError> {
        std::fs::create_dir_all(dir)?;
        let mut manifest = format!(
            "nwc-sharded v1\nshards {}\nwritable {}\n",
            self.shards.len(),
            u8::from(writable)
        );
        for (i, shard) in self.shards.iter().enumerate() {
            let name = shard_file_name(i);
            let path = dir.join(&name);
            let saved = if writable {
                shard.save_tree_writable(&path)
            } else {
                shard.save_tree(&path)
            };
            saved.map_err(|error| ShardedStoreError::Save { shard: i, error })?;
            manifest.push_str(&format!("shard {i} {name}\n"));
        }
        // Manifest last, via rename, so a torn save never yields a
        // manifest naming files that were not fully written.
        let tmp = dir.join(format!("{MANIFEST}.tmp"));
        std::fs::write(&tmp, manifest)?;
        std::fs::rename(&tmp, dir.join(MANIFEST))?;
        Ok(())
    }

    /// Opens a directory written by [`ShardedNwcIndex::save_to_dir`]
    /// (or `_writable`). `config` applies per shard, except the pool
    /// budget: [`DiskIndexConfig::pool_capacity`] /
    /// [`DiskIndexConfig::memory_budget_bytes`] describe the **total**
    /// across all shards, split monotonically with
    /// [`nwc_store::split_capacity`] (one shared frame budget, at least
    /// one frame per shard). The global density grid and the id → shard
    /// table are rebuilt from the stored trees, uncharged. A 1-shard
    /// directory opens bit-identically to [`NwcIndex::open_disk`].
    pub fn open_dir(
        dir: impl AsRef<Path>,
        config: DiskIndexConfig,
    ) -> Result<ShardedNwcIndex, ShardedStoreError> {
        let dir = dir.as_ref();
        let files = read_manifest(dir)?;
        let threads = default_threads();
        if files.len() == 1 {
            let single = NwcIndex::open_disk(&files[0], config)
                .map_err(|error| ShardedStoreError::Open { shard: 0, error })?;
            return Ok(Self::from_single(single, threads));
        }
        let shares: Vec<Option<usize>> = match config.effective_pool_capacity() {
            Some(total) => nwc_store::split_capacity(total.max(files.len()), files.len())
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None; files.len()],
        };
        let mut shards = Vec::with_capacity(files.len());
        for (i, path) in files.iter().enumerate() {
            let shard_cfg = DiskIndexConfig {
                pool_capacity: shares[i],
                memory_budget_bytes: None,
                grid_cell_size: None, // the grid is global
                ..config
            };
            let shard = NwcIndex::open_disk(path, shard_cfg)
                .map_err(|error| ShardedStoreError::Open { shard: i, error })?;
            shards.push(shard);
        }
        // Rebuild the global structures from the shard point tables.
        let mut all_points = Vec::new();
        let mut max_id = 0u32;
        for shard in &shards {
            for (id, &p) in shard.points().iter().enumerate() {
                if shard.is_live(id as u32) {
                    all_points.push(p);
                    max_id = max_id.max(id as u32);
                }
            }
        }
        let mut owner = vec![NO_OWNER; max_id as usize + 1];
        for (s, shard) in shards.iter().enumerate() {
            for (id, slot) in owner.iter_mut().enumerate().take(shard.points().len()) {
                if shard.is_live(id as u32) {
                    *slot = s as u32;
                }
            }
        }
        let bounds = Rect::bounding(all_points.iter().copied()).ok_or_else(|| {
            ShardedStoreError::Manifest("manifest names shards but no shard holds objects".into())
        })?;
        let grid = density_grid(config.grid_cell_size, &bounds, &all_points);
        Ok(ShardedNwcIndex {
            next_id: id_after(&owner),
            shards,
            grid,
            owner,
            bounds,
            threads,
        })
    }

    // ------------------------------------------------------------------
    // Mutation (writable shards).
    // ------------------------------------------------------------------

    /// Adds an object, returning its globally unique id. The point is
    /// routed to the shard whose tile it falls in (nearest shard bounds
    /// on a tie/outside point). Same contract as [`NwcIndex::insert`]:
    /// on writable disk shards the mutation lands in the shard overlay
    /// (call [`ShardedNwcIndex::commit_all`]); read-only shards return
    /// [`IndexUpdateError::ReadOnly`] untouched, and a non-finite point
    /// or a full id space returns its typed error with the index
    /// unchanged.
    pub fn insert(&mut self, point: Point) -> Result<u32, IndexUpdateError> {
        if !point.is_finite() {
            return Err(IndexUpdateError::NonFinitePoint);
        }
        let id = self.next_id;
        let next_id = id.checked_add(1).ok_or(IndexUpdateError::IdsExhausted)?;
        let shard = self.route(point);
        self.shards[shard].insert_assigned(id, point)?;
        self.next_id = next_id;
        if self.owner.len() <= id as usize {
            self.owner.resize(id as usize + 1, NO_OWNER);
        }
        self.owner[id as usize] = shard as u32;
        self.bounds = self.bounds.expand_to(point);
        if let Some(grid) = &mut self.grid {
            grid.add_point(&point);
        }
        Ok(id)
    }

    /// Removes the object with the given id (routed through the
    /// id → shard table). `Ok(false)` for unknown/already-removed ids.
    pub fn remove(&mut self, id: u32) -> Result<bool, IndexUpdateError> {
        let Some(shard) = self.owner_of(id) else {
            return Ok(false);
        };
        let point = self.shards[shard].points().get(id as usize).copied();
        if !self.shards[shard].remove(id)? {
            return Ok(false);
        }
        self.owner[id as usize] = NO_OWNER;
        if let (Some(grid), Some(p)) = (self.grid.as_mut(), point) {
            grid.remove_point(&p);
        }
        Ok(true)
    }

    /// Durably commits every shard's pending mutations (shadow paging
    /// per shard; see [`NwcIndex::commit`]). Shards commit in order;
    /// the first failure stops the walk — already-committed shards stay
    /// committed (each page file is independently crash-consistent).
    pub fn commit_all(&mut self) -> Result<(), IndexUpdateError> {
        for shard in &mut self.shards {
            shard.commit()?;
        }
        Ok(())
    }

    /// The shard an inserted point routes to: the first shard whose
    /// bounds contain it, else the shard with the nearest bounds —
    /// deterministic in shard order.
    fn route(&self, point: Point) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, shard) in self.shards.iter().enumerate() {
            let d = shard.bounds().mindist2(&point);
            if d == 0.0 {
                return i;
            }
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl std::fmt::Debug for ShardedNwcIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNwcIndex")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("threads", &self.threads)
            .field("global_grid", &self.grid.is_some())
            .finish()
    }
}

/// The first id past the id → shard table (`u32::MAX` when the table
/// already spans every id, so the next insert reports exhaustion).
fn id_after(owner: &[u32]) -> u32 {
    u32::try_from(owner.len()).unwrap_or(u32::MAX)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn shard_file_name(i: usize) -> String {
    format!("shard-{i:03}.pages")
}

/// Parses the directory manifest into shard page-file paths, in shard
/// order.
fn read_manifest(dir: &Path) -> Result<Vec<PathBuf>, ShardedStoreError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST))?;
    let mut lines = text.lines();
    match lines.next() {
        Some("nwc-sharded v1") => {}
        other => {
            return Err(ShardedStoreError::Manifest(format!(
                "unrecognized header {other:?}"
            )))
        }
    }
    let mut declared: Option<usize> = None;
    let mut files: Vec<(usize, PathBuf)> = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("shards") => {
                declared = parts.next().and_then(|s| s.parse().ok());
            }
            Some("shard") => {
                let idx: Option<usize> = parts.next().and_then(|s| s.parse().ok());
                let name = parts.next();
                match (idx, name) {
                    (Some(i), Some(name)) => files.push((i, dir.join(name))),
                    _ => {
                        return Err(ShardedStoreError::Manifest(format!(
                            "bad shard line {line:?}"
                        )))
                    }
                }
            }
            // Unknown keys (e.g. `writable`) are informational.
            _ => {}
        }
    }
    files.sort_by_key(|&(i, _)| i);
    if files.is_empty() {
        return Err(ShardedStoreError::Manifest("no shard entries".into()));
    }
    if let Some(n) = declared {
        if n != files.len() {
            return Err(ShardedStoreError::Manifest(format!(
                "declared {n} shards but listed {}",
                files.len()
            )));
        }
    }
    for (want, (got, _)) in files.iter().enumerate() {
        if *got != want {
            return Err(ShardedStoreError::Manifest(format!(
                "shard ordinals not contiguous (expected {want}, found {got})"
            )));
        }
    }
    Ok(files.into_iter().map(|(_, p)| p).collect())
}

// ----------------------------------------------------------------------
// Scatter outcomes and gather helpers.
// ----------------------------------------------------------------------

/// What a scatter found and where it stopped, merged over the shards
/// (see [`ShardedNwcIndex::gather`]).
struct Gather {
    per_shard: Vec<SearchStats>,
    stats: SearchStats,
    /// Lower bound on every group no shard covered.
    frontier: f64,
    /// The strongest budget trip any shard reported.
    exhausted: Option<CancelKind>,
    /// Shards whose search failed outright.
    degraded: Vec<(usize, QueryError)>,
}

impl Gather {
    /// The outcome of a scatter that started at `started` and merged
    /// into `answer` (`k` groups asked; 1 for NWC).
    fn finish(self, answer: Answer, k: usize, shrink: f64, started: Instant) -> Outcome {
        let spent = BudgetSpent::since(started, self.stats.io_total);
        let mut out =
            Outcome::bracket(answer, self.stats, k, shrink, self.frontier, spent, self.exhausted);
        out.per_shard = self.per_shard;
        out.degraded = self.degraded;
        out
    }
}

/// What one shard's search produced: its end state (or failure) plus
/// its sink, whose partial contents stay usable either way.
struct ShardOutcome<S> {
    shard: usize,
    result: Result<(SearchStats, SearchEnd), QueryError>,
    sink: S,
}

/// Folds one shard's local best into the running canonical merge: min
/// score, ties broken by (sorted ids, window) — independent of shard
/// order.
fn merge_best(best: &mut Option<(f64, Vec<u32>, Vec<Entry>, Rect)>, local: &BestSink) {
    if let Some((group, window)) = &local.best {
        let take = match best {
            None => true,
            Some((score, ids, _, win)) => {
                local.dist_best < *score
                    || (local.dist_best == *score
                        && canonical_less(&local.best_ids, window, ids, win))
            }
        };
        if take {
            *best = Some((
                local.dist_best,
                local.best_ids.clone(),
                group.clone(),
                *window,
            ));
        }
    }
}

/// Merge priority for budget-trip kinds across shards: an external stop
/// outranks a deadline, which outranks an I/O allowance.
fn prefer_kind(current: Option<CancelKind>, new: CancelKind) -> Option<CancelKind> {
    fn rank(k: CancelKind) -> u8 {
        match k {
            CancelKind::Stopped => 2,
            CancelKind::Deadline => 1,
            CancelKind::IoBudget => 0,
        }
    }
    match current {
        Some(cur) if rank(cur) >= rank(new) => Some(cur),
        _ => Some(new),
    }
}

// ----------------------------------------------------------------------
// Cross-shard sinks.
// ----------------------------------------------------------------------

/// NWC sink sharing `dist_best` across shards: offers publish their
/// score into the shared CAS-min *before* local bookkeeping (so sibling
/// shards prune on it at their very next threshold read), while the
/// canonical-tie-break local best supplies this shard's contribution to
/// the gather merge. `shrink` applies the `(1+ε)` certificate to the
/// shared pruning threshold (`1.0` in exact mode — the bitwise
/// identity); offers always publish the *raw* score, so the merged
/// answer is the true best of everything any shard saw.
struct SharedBestSink<'a> {
    bound: &'a AtomicU64,
    shrink: f64,
    local: BestSink,
}

impl GroupSink for SharedBestSink<'_> {
    fn threshold(&self) -> f64 {
        tie_inclusive(f64::from_bits(self.bound.load(Ordering::Acquire)) * self.shrink)
    }

    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats) {
        if score >= 0.0 {
            // Non-negative f64 bit patterns order like the values.
            self.bound.fetch_min(score.to_bits(), Ordering::AcqRel);
        }
        self.local.offer(group, score, window, stats);
    }
}

/// kNWC sink sharing one buffered-greedy [`GroupsCore`] across shards.
/// The pruning threshold is cached in a lock-free atomic refreshed on
/// every offer, so the hot threshold reads (every SRR build, every DIP
/// check) never touch the mutex.
struct SharedGroupsSink<'a> {
    core: &'a Mutex<GroupsCore>,
    /// f64 bits of `core.threshold()` (already tie-inclusive).
    cached: &'a AtomicU64,
    idbuf: Vec<ObjectId>,
}

impl GroupSink for SharedGroupsSink<'_> {
    fn threshold(&self) -> f64 {
        f64::from_bits(self.cached.load(Ordering::Acquire))
    }

    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats) {
        let mut core = match self.core.lock() {
            Ok(guard) => guard,
            // The buffer has no invariant a poisoned unwind can break
            // (same recovery policy as the buffer pool).
            Err(poisoned) => poisoned.into_inner(),
        };
        core.offer_group(group, score, window, &mut self.idbuf, stats);
        self.cached
            .store(core.threshold().to_bits(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowSpec;
    use nwc_geom::pt;

    /// The all-or-nothing outcome of an unbudgeted NWC request.
    fn nwc(idx: &ShardedNwcIndex, query: &NwcQuery, scheme: Scheme) -> Outcome {
        let req = SearchRequest::nwc(*query, scheme);
        idx.search(&req, &mut QueryScratch::new()).unwrap().complete().unwrap()
    }

    fn nwc_single(idx: &NwcIndex, query: &NwcQuery, scheme: Scheme) -> Outcome {
        let req = SearchRequest::nwc(*query, scheme);
        idx.search(&req, &mut QueryScratch::new()).unwrap().complete().unwrap()
    }

    fn world(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                pt(
                    ((i * 37) % 211) as f64 * 3.0,
                    ((i * 53) % 197) as f64 * 3.0,
                )
            })
            .collect()
    }

    #[test]
    fn build_covers_all_points() {
        let pts = world(500);
        for k in [1usize, 2, 4, 7] {
            let idx = ShardedNwcIndex::build(pts.clone(), k);
            assert_eq!(idx.len(), 500, "k={k}");
            assert!(idx.shard_count() <= k);
            let mut seen = vec![false; 500];
            for (s, shard) in idx.shards().iter().enumerate() {
                for id in 0..shard.points().len() as u32 {
                    if shard.is_live(id) {
                        assert!(!seen[id as usize], "object {id} in two shards");
                        seen[id as usize] = true;
                        assert_eq!(idx.owner_of(id), Some(s));
                    }
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn k1_matches_unsharded_bit_for_bit() {
        let pts = world(400);
        let single = NwcIndex::build(pts.clone());
        let sharded = ShardedNwcIndex::build(pts, 1);
        let query = NwcQuery::new(pt(200.0, 200.0), WindowSpec::square(40.0), 6);
        for scheme in Scheme::TABLE3 {
            let want = nwc_single(&single, &query, scheme);
            let got = nwc(&sharded, &query, scheme);
            assert_eq!(want.stats, got.stats, "{scheme}");
            assert_eq!(want.nwc().map(|r| r.ids()), got.nwc().map(|r| r.ids()), "{scheme}");
        }
    }

    #[test]
    fn sharded_matches_single_tree_answers() {
        let pts = world(600);
        let single = NwcIndex::build(pts.clone());
        let query = NwcQuery::new(pt(310.0, 280.0), WindowSpec::square(35.0), 5);
        for k in [2usize, 4] {
            for threads in [1usize, 4] {
                let sharded = ShardedNwcIndex::build(pts.clone(), k).with_threads(threads);
                for scheme in Scheme::TABLE3 {
                    let want = nwc_single(&single, &query, scheme).into_nwc();
                    let got = nwc(&sharded, &query, scheme).into_nwc();
                    match (&want, &got) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.ids(), b.ids(), "k={k} t={threads} {scheme}");
                            assert!((a.distance - b.distance).abs() < 1e-12);
                        }
                        _ => panic!("k={k} t={threads} {scheme}: {want:?} vs {got:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn per_shard_stats_sum_to_aggregate() {
        let pts = world(600);
        let sharded = ShardedNwcIndex::build(pts, 4).with_threads(1);
        let query = NwcQuery::new(pt(150.0, 400.0), WindowSpec::square(30.0), 4);
        let answer = nwc(&sharded, &query, Scheme::NWC_STAR);
        let mut sum = SearchStats::default();
        for s in &answer.per_shard {
            sum.accumulate(s);
        }
        assert_eq!(sum, answer.stats);
        assert!(answer.stats.io_total > 0);
    }

    #[test]
    fn knwc_sharded_matches_single_tree() {
        // Well-separated clusters: no pruning-cascade sensitivity.
        let mut pts = Vec::new();
        for (cx, cy) in [(20.0, 20.0), (120.0, 30.0), (60.0, 140.0), (160.0, 160.0)] {
            for i in 0..6 {
                pts.push(pt(cx + (i % 3) as f64, cy + (i / 3) as f64));
            }
        }
        let single = NwcIndex::build(pts.clone());
        let query = KnwcQuery::new(pt(0.0, 0.0), WindowSpec::square(6.0), 4, 3, 0);
        let req = SearchRequest::knwc(query, Scheme::NWC_STAR);
        let mut scratch = QueryScratch::new();
        let want = single.search(&req, &mut scratch).unwrap().complete().unwrap().into_knwc();
        for k in [2usize, 4] {
            let sharded = ShardedNwcIndex::build(pts.clone(), k).with_threads(1);
            let got = sharded.search(&req, &mut scratch).unwrap().complete().unwrap().into_knwc();
            assert_eq!(want.groups.len(), got.groups.len(), "k={k}");
            for (a, b) in want.groups.iter().zip(&got.groups) {
                assert_eq!(a.id_set(), b.id_set(), "k={k}");
                assert!((a.distance - b.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn more_shards_than_objects() {
        let pts = world(3);
        let idx = ShardedNwcIndex::build(pts.clone(), 16);
        assert!(idx.shard_count() <= 3);
        assert_eq!(idx.len(), 3);
        let single = NwcIndex::build(pts);
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(700.0), 2);
        let want = nwc_single(&single, &query, Scheme::NWC).into_nwc();
        let got = nwc(&idx, &query, Scheme::NWC).into_nwc();
        assert_eq!(want.map(|r| r.ids()), got.map(|r| r.ids()));
    }

    #[test]
    fn insert_routes_and_queries_see_it() {
        let pts = world(200);
        let mut idx = ShardedNwcIndex::build(pts, 4);
        let id = idx.insert(pt(90.0, 90.0)).unwrap();
        assert!(idx.owner_of(id).is_some());
        assert_eq!(idx.len(), 201);
        let query = NwcQuery::new(pt(90.0, 90.0), WindowSpec::square(4.0), 1);
        let got = nwc(&idx, &query, Scheme::NWC_STAR).into_nwc().unwrap();
        assert_eq!(got.ids(), vec![id]);
        assert!(idx.remove(id).unwrap());
        assert!(!idx.remove(id).unwrap());
        assert_eq!(idx.owner_of(id), None);
        assert_eq!(idx.len(), 200);
    }

    #[test]
    fn bad_inserts_are_typed_and_leave_the_index_unchanged() {
        for k in [1usize, 4] {
            let mut idx = ShardedNwcIndex::build(world(200), k);
            for bad in [pt(f64::NAN, 1.0), pt(1.0, f64::NEG_INFINITY)] {
                assert_eq!(idx.insert(bad), Err(IndexUpdateError::NonFinitePoint), "k={k}");
            }
            assert_eq!(idx.len(), 200, "k={k}");
            assert_eq!(idx.next_id, 200, "k={k}");
            // The last id is never handed out: exhaustion is reported
            // before any shard is touched.
            idx.next_id = u32::MAX;
            assert_eq!(idx.insert(pt(5.0, 5.0)), Err(IndexUpdateError::IdsExhausted), "k={k}");
            assert_eq!(idx.len(), 200, "k={k}");
            assert_eq!(idx.next_id, u32::MAX, "k={k}");
        }
    }

    #[test]
    fn manifest_round_trip_and_errors() {
        let dir = std::env::temp_dir().join(format!(
            "nwc-shard-manifest-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let idx = ShardedNwcIndex::build(world(300), 3);
        idx.save_to_dir(&dir).unwrap();
        let files = read_manifest(&dir).unwrap();
        assert_eq!(files.len(), idx.shard_count());
        // Corrupt: header
        std::fs::write(dir.join(MANIFEST), "bogus\n").unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ShardedStoreError::Manifest(_))
        ));
        // Corrupt: count mismatch
        std::fs::write(
            dir.join(MANIFEST),
            "nwc-sharded v1\nshards 5\nshard 0 shard-000.pages\n",
        )
        .unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ShardedStoreError::Manifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_pool_capacity_opens_both_index_kinds_with_one_frame_each() {
        let dir = std::env::temp_dir().join(format!(
            "nwc-shard-zero-pool-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let pts = world(600);
        let arena = NwcIndex::build(pts.clone());
        arena.save_tree(dir.join("single.pages")).unwrap();
        ShardedNwcIndex::build(pts, 3).save_to_dir(dir.join("sharded")).unwrap();

        let config = DiskIndexConfig {
            pool_capacity: Some(0),
            ..DiskIndexConfig::default()
        };
        assert_eq!(config.effective_pool_capacity(), Some(1));
        let single = NwcIndex::open_disk(dir.join("single.pages"), config).unwrap();
        let sharded = ShardedNwcIndex::open_dir(dir.join("sharded"), config).unwrap();
        let capacity = |idx: &NwcIndex| idx.tree().storage().unwrap().pool_stats().capacity;
        assert_eq!(capacity(&single), 1);
        assert!(sharded.shards().iter().all(|s| capacity(s) == 1));

        let query = NwcQuery::new(pt(310.0, 280.0), WindowSpec::square(35.0), 5);
        for scheme in Scheme::TABLE3 {
            let want = nwc_single(&arena, &query, scheme).into_nwc();
            for (kind, got) in [
                ("single", nwc_single(&single, &query, scheme).into_nwc()),
                ("sharded", nwc(&sharded, &query, scheme).into_nwc()),
            ] {
                match (&want, &got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.ids(), b.ids(), "{kind} {scheme}");
                        assert!((a.distance - b.distance).abs() < 1e-12, "{kind} {scheme}");
                    }
                    _ => panic!("{kind} {scheme}: {want:?} vs {got:?}"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
