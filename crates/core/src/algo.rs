//! The NWC algorithm (paper Algorithm 1): the crate's one best-first
//! search loop, shared by NWC, kNWC, constrained, weighted and sharded
//! queries.
//!
//! The search is a best-first traversal over the R\*-tree (priority queue
//! holding both index nodes and objects in ascending `MINDIST`/distance
//! order). Nodes are pruned by DIP/DEP before expansion; objects have
//! their search region built (reduced/skipped by SRR, cancelled by DEP),
//! answered (under IWP from their leaf's shared neighbourhood, fetched
//! through the search's node memo), and
//! their candidate windows scanned. Two seams let the same loop serve
//! every query: a [`GroupSink`] decides which offered groups to keep
//! (the single best for NWC, the top-k list for kNWC), and a
//! [`Qualifier`] decides what makes a window qualified (an object count
//! or a weight sum) together with the DEP bound that matches it.

use crate::anytime::{AnytimeNwc, Approx};
use crate::candidates::{CountTest, GroupSink, Qualifier};
use crate::index::NwcIndex;
use crate::query::{unrecoverable, NwcQuery, QueryError};
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use crate::scratch::{slice_region, QueryScratch};
use nwc_geom::window::{
    extended_mbr, node_window_lower_bound, reduced_search_region, search_region, WindowSpec,
};
use nwc_geom::{Point, Quadrant, Rect};
use nwc_rtree::{BrowseItem, Budget, CancelKind, Entry, NodeMemo, TreeError};

/// How the search loop stopped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SearchEnd {
    /// The frontier drained: the sink saw every candidate the scheme's
    /// pruning admits.
    Complete,
    /// The budget expired mid-search. `frontier` is the best-first key
    /// (`MINDIST`/distance) of the item being processed when the budget
    /// tripped — a sound lower bound on the score of every group the
    /// search did not cover, because each such group's nearest object is
    /// anchored at or behind that frontier position.
    Exhausted {
        /// Which limit fired.
        kind: CancelKind,
        /// Lower bound on every uncovered group's score.
        frontier: f64,
    },
}

impl SearchEnd {
    /// The all-or-nothing contract of the non-anytime APIs: a budget
    /// trip is a typed error ([`budget_error`]).
    pub(crate) fn or_error(self) -> Result<(), QueryError> {
        match self {
            SearchEnd::Complete => Ok(()),
            SearchEnd::Exhausted { kind, .. } => Err(budget_error(kind)),
        }
    }
}

/// The best-first search of Algorithm 1, over `trees[owner]`.
///
/// The owner's tree drives the traversal. Every search region is
/// answered from the **union** of all trees: the owner's, then every
/// other tree's whose live-point bounds meet the queried rectangle. An
/// unsharded index passes itself as the only tree; the sharded planner
/// passes its shard slice, and the sink then carries the cross-shard
/// bound.
///
/// Without IWP each search region is one window query from every
/// tree's root. Under IWP the search shares one fetch per leaf
/// ([`Neighbourhoods`](crate::scratch::Neighbourhoods), DESIGN.md §4m):
/// the first object of a leaf that needs its region answered fetches
/// every entry of the leaf MBR's DEP extension, and each of the leaf's
/// objects slices its region out of that list. The fetch descends from
/// every tree's root through the search's node memo
/// ([`NodeMemo`], one per tree slot): a node this search already read —
/// expanded by the browser or reached by an earlier fetch — costs no
/// node access. The memo drops every node handle when the search ends.
///
/// DEP and IWP only prune I/O; neither changes an answer. DEP needs the
/// density grid; an index without one skips DEP on every path instead
/// of failing.
///
/// An expired [`Budget`] is not an error: the search stops where it is
/// (pins released, scratch intact, stats finalized for the covered
/// prefix) and reports [`SearchEnd::Exhausted`] with its best-first
/// frontier key, from which the anytime APIs derive their quality
/// bound. Only disk failures return `Err`, with every pin released.
///
/// I/O attribution relies on the tree I/O counters being *per thread*,
/// not per tree: the `snapshot()`/`since()` window around the union
/// query charges this search's [`SearchStats`] for the accesses it
/// caused on other trees too, so per-shard counters sum to a scatter's
/// exact total. The same property makes an I/O allowance a *per-worker*
/// budget under a scatter — each worker meters the accesses of the
/// searches it runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_first<S: GroupSink, Q: Qualifier>(
    trees: &[NwcIndex],
    owner: usize,
    q: Point,
    spec: &WindowSpec,
    scheme: Scheme,
    qualifier: &Q,
    sink: &mut S,
    scratch: &mut QueryScratch,
    budget: &Budget,
) -> Result<(SearchStats, SearchEnd), QueryError> {
    let shared = scheme.iwp;
    if shared && scratch.memos.len() < trees.len() {
        scratch.memos.resize_with(trees.len(), NodeMemo::default);
    }
    forget_nodes(scratch);
    let searched = search_from(trees, owner, q, spec, scheme, qualifier, sink, scratch, budget);
    forget_nodes(scratch);
    searched
}

/// Drops every node handle the scratch's memos hold (see [`best_first`]).
fn forget_nodes(scratch: &mut QueryScratch) {
    for memo in &mut scratch.memos {
        memo.clear();
    }
}

/// The body of [`best_first`], run between two memo clears.
#[allow(clippy::too_many_arguments)]
fn search_from<S: GroupSink, Q: Qualifier>(
    trees: &[NwcIndex],
    owner: usize,
    q: Point,
    spec: &WindowSpec,
    scheme: Scheme,
    qualifier: &Q,
    sink: &mut S,
    scratch: &mut QueryScratch,
    budget: &Budget,
) -> Result<(SearchStats, SearchEnd), QueryError> {
    let Some(own) = trees.get(owner) else {
        return Ok((SearchStats::default(), SearchEnd::Complete));
    };
    let shared = scheme.iwp;
    let tree = own.tree();
    let io = tree.stats();
    let mut stats = SearchStats::default();
    let hits0 = io.hits_snapshot();
    let errors0 = io.error_snapshot();
    // The loop and the browser each diff this thread's access tally
    // from their own base, so the I/O allowance covers traversal and
    // window queries alike.
    let budget_base = io.snapshot();
    let mut browser = tree.browse_with(q, &mut scratch.browser);
    if budget.is_armed() {
        browser.set_budget(budget.clone());
    }
    let neighbors = &mut scratch.neighbors;
    let leaves = &mut scratch.leaves;
    leaves.begin();
    // Under IWP, one memo per tree slot; empty otherwise, so no fetch
    // and no expansion goes through a memo.
    let memos: &mut [NodeMemo] = if shared { &mut scratch.memos } else { &mut [] };
    let mut end = SearchEnd::Complete;
    'search: while let Some(item) = browser.next() {
        // Best-first key of the item in hand: the frontier lower bound
        // should the budget expire while processing it.
        let key = item.key();
        match item {
            BrowseItem::Node { id, level, mbr, .. } => {
                if scheme.dip && node_window_lower_bound(&q, &mbr, spec) > sink.threshold() {
                    stats.nodes_pruned_by_dip += 1;
                    continue;
                }
                if scheme.dep && qualifier.too_sparse(&extended_mbr(&q, &mbr, spec)) {
                    stats.nodes_pruned_by_dep += 1;
                    continue;
                }
                let snap = io.snapshot();
                let expanded = match memos.get_mut(owner) {
                    Some(memo) => browser.try_expand_remembering(id, memo),
                    None => browser.try_expand(id),
                };
                stats.io_traversal += io.since(snap);
                match expanded {
                    // The browser numbers expanded leaves in this same
                    // order, so `leaf_visit` indexes these records.
                    Ok(()) if shared && level == 0 => leaves.expanded(mbr),
                    Ok(()) => {}
                    Err(TreeError::Cancelled(kind)) => {
                        end = SearchEnd::Exhausted { kind, frontier: key };
                        break 'search;
                    }
                    Err(other) => return Err(other.into()),
                }
            }
            BrowseItem::Object {
                entry, leaf_visit, ..
            } => {
                stats.objects_visited += 1;
                // No object of the leaf remains in the frontier: its
                // neighbourhood goes back to the pool after this one.
                let last_of_leaf = shared && browser.leaf_pending(leaf_visit) == 0;
                let quad = Quadrant::of(&q, &entry.point);
                // Algorithm 1 line 14: build SR_p (reduced when SRR on).
                let sr = if scheme.srr {
                    reduced_search_region(&q, &entry.point, spec, sink.threshold())
                } else {
                    Some(search_region(&entry.point, quad, spec))
                };
                let sr = match sr {
                    None => {
                        stats.skipped_by_srr += 1;
                        None
                    }
                    Some(sr) if scheme.dep && qualifier.region_too_sparse(&sr, spec.w) => {
                        stats.skipped_by_dep += 1;
                        None
                    }
                    sr => sr,
                };
                if let Some(sr) = sr {
                    if let Some(kind) = budget.exceeded(|| io.since(budget_base)) {
                        end = SearchEnd::Exhausted { kind, frontier: key };
                        break 'search;
                    }
                    stats.window_queries += 1;
                    neighbors.clear();
                    let snap = io.snapshot();
                    let neighbourhood = if shared {
                        leaves.get_or_fetch(leaf_visit, |leaf_mbr, out| {
                            let region = extended_mbr(&q, leaf_mbr, spec);
                            union_window_query(trees, owner, memos, &region, out)
                        })?
                    } else {
                        None
                    };
                    match neighbourhood {
                        Some(neighbourhood) => slice_region(neighbourhood, &sr, neighbors),
                        None => union_window_query(trees, owner, &mut [], &sr, neighbors)?,
                    }
                    stats.io_window_queries += io.since(snap);
                    qualifier.scan(
                        &q,
                        spec,
                        &entry,
                        quad,
                        neighbors,
                        &mut scratch.by_dist,
                        sink,
                        &mut stats,
                    );
                }
                if last_of_leaf {
                    leaves.release(leaf_visit);
                }
            }
        }
    }
    browser.recycle(&mut scratch.browser);
    // Attributed accounting: the tree counter is shared across
    // concurrent queries, so the query's own total is the sum of its
    // attributed phases, not a raw counter diff.
    stats.io_total = stats.io_traversal + stats.io_window_queries;
    // On a disk-backed tree some of those accesses were buffer hits (no
    // physical I/O); on an arena tree this is always 0.
    stats.buffer_hits = io.hits_since(hits0);
    // Degradation profile: retries issued and transient failures
    // recovered from, attributed to this query like the I/O split.
    let errors = io.errors_since(errors0);
    stats.retries = errors.retries;
    stats.transient_errors = errors.transient_errors;
    Ok((stats, end))
}

/// Appends every entry of every tree inside `rect` to `out`: the
/// owner's first, then every other tree's, each from its root. Tree `j`
/// descends through `memos[j]` when there is one (an IWP search), else
/// plainly. Tree contents are disjoint, so the append-union has no
/// duplicates and equals the single-tree result set.
///
/// Trees whose live-point bounding box misses `rect` are skipped
/// without touching them: every live point lies inside its tree's
/// bounds (insert expands them, remove never shrinks), so such a tree
/// cannot contribute. STR tiles are near disjoint, so the queried
/// rectangles — much smaller than a tile — cross into other shards only
/// near tile seams.
fn union_window_query(
    trees: &[NwcIndex],
    owner: usize,
    memos: &mut [NodeMemo],
    rect: &Rect,
    out: &mut Vec<Entry>,
) -> Result<(), QueryError> {
    let owner_first = std::iter::once(owner).chain((0..trees.len()).filter(|&j| j != owner));
    for j in owner_first {
        let Some(index) = trees.get(j) else { continue };
        if j != owner && !index.bounds().intersects(rect) {
            continue;
        }
        let tree = index.tree();
        match memos.get_mut(j) {
            Some(memo) => tree.try_window_query_memo_into(rect, memo, out)?,
            None => tree.try_window_query_into(rect, out)?,
        }
    }
    Ok(())
}

impl NwcIndex {
    /// [`best_first`] with this index as the only tree, qualifying
    /// windows by object count against its own density grid.
    pub(crate) fn search<S: GroupSink>(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        sink: &mut S,
        scratch: &mut QueryScratch,
        budget: &Budget,
    ) -> Result<(SearchStats, SearchEnd), QueryError> {
        let test = CountTest {
            grid: self.grid(),
            n: query.n,
            measure: query.measure,
        };
        best_first(
            std::slice::from_ref(self),
            0,
            query.q,
            &query.spec,
            scheme,
            &test,
            sink,
            scratch,
            budget,
        )
    }

    /// Answers `NWC(q, l, w, n)` under the given optimization scheme.
    ///
    /// Returns `None` when no `l × w` window anywhere contains `n`
    /// objects. Every scheme returns a group with the same (optimal)
    /// distance; they differ only in I/O cost.
    ///
    /// # Panics
    ///
    /// Panics on a disk read that fails after every retry; use
    /// [`NwcIndex::try_nwc`] to handle that case.
    pub fn nwc(&self, query: &NwcQuery, scheme: Scheme) -> Option<NwcResult> {
        self.nwc_full(query, scheme).0
    }

    /// As [`NwcIndex::nwc`], reusing the buffers of `scratch` so a warm
    /// query performs no per-node or per-visited-object heap allocation
    /// (see [`QueryScratch`]). Results and I/O counts are identical to
    /// [`NwcIndex::nwc`].
    pub fn nwc_with(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
    ) -> Option<NwcResult> {
        self.nwc_full_with(query, scheme, scratch).0
    }

    /// As [`NwcIndex::nwc`], also returning the search statistics even
    /// when the query has no answer (the experiments need the I/O cost
    /// of fruitless searches — e.g. Figure 12's smallest windows on the
    /// Gaussian dataset).
    pub fn nwc_full(&self, query: &NwcQuery, scheme: Scheme) -> (Option<NwcResult>, SearchStats) {
        self.nwc_full_with(query, scheme, &mut QueryScratch::default())
    }

    /// As [`NwcIndex::nwc_full`] with scratch reuse (see
    /// [`NwcIndex::nwc_with`]).
    pub fn nwc_full_with(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
    ) -> (Option<NwcResult>, SearchStats) {
        match self.try_nwc_full_with(query, scheme, scratch) {
            Ok(r) => r,
            Err(e) => unrecoverable(e),
        }
    }

    /// As [`NwcIndex::nwc`], surfacing disk read failures as
    /// [`QueryError::Io`] instead of panicking. On an arena-backed index
    /// this never errs; on a disk-backed index an error leaves the index
    /// fully usable (pins released, failing page quarantined).
    pub fn try_nwc(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
    ) -> Result<Option<NwcResult>, QueryError> {
        Ok(self.try_nwc_full(query, scheme)?.0)
    }

    /// As [`NwcIndex::try_nwc`] with scratch reuse.
    pub fn try_nwc_with(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
    ) -> Result<Option<NwcResult>, QueryError> {
        Ok(self.try_nwc_full_with(query, scheme, scratch)?.0)
    }

    /// As [`NwcIndex::nwc_full`], surfacing disk read failures as
    /// [`QueryError::Io`] (see [`NwcIndex::try_nwc`]).
    pub fn try_nwc_full(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
    ) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
        self.try_nwc_full_with(query, scheme, &mut QueryScratch::default())
    }

    /// As [`NwcIndex::try_nwc_full`] with scratch reuse.
    pub fn try_nwc_full_with(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
    ) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
        self.try_nwc_full_cancel(query, scheme, scratch, &Budget::none())
    }

    /// As [`NwcIndex::try_nwc_full_with`], additionally observing a
    /// cooperative [`Budget`]. Once it expires the search stops at its
    /// next cancellation point (a node expansion or a window query — so
    /// the latency of a trip is bounded by one node access plus one
    /// window query) and returns [`QueryError::Deadline`] or
    /// [`QueryError::Cancelled`]. The index and the calling thread
    /// remain fully usable afterwards: every page pin is released and
    /// the scratch buffers are intact.
    pub fn try_nwc_full_cancel(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        cancel: &Budget,
    ) -> Result<(Option<NwcResult>, SearchStats), QueryError> {
        let mut sink = BestSink::new();
        let (stats, end) = self.search(query, scheme, &mut sink, scratch, cancel)?;
        end.or_error()?;
        Ok((sink.into_result(stats), stats))
    }

    /// Anytime `NWC(q, l, w, n)`: runs until `budget` expires and
    /// returns the best group found so far with a proven quality bound
    /// (see [`AnytimeNwc`]) instead of erroring. With
    /// [`Approx::exact`] and [`Budget::none`] the answer and logical
    /// I/O are bit-identical to [`NwcIndex::try_nwc_full`].
    pub fn try_nwc_anytime(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        budget: &Budget,
        approx: Approx,
    ) -> Result<AnytimeNwc, QueryError> {
        self.try_nwc_anytime_with(query, scheme, &mut QueryScratch::default(), budget, approx)
    }

    /// As [`NwcIndex::try_nwc_anytime`] with scratch reuse.
    pub fn try_nwc_anytime_with(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
        budget: &Budget,
        approx: Approx,
    ) -> Result<AnytimeNwc, QueryError> {
        let started = std::time::Instant::now();
        let io = self.tree().stats();
        let io0 = io.snapshot();
        let mut sink = BestSink::approx(approx.shrink());
        let (stats, end) = self.search(query, scheme, &mut sink, scratch, budget)?;
        let spent = crate::anytime::BudgetSpent {
            elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            io: io.since(io0),
        };
        let (frontier_key, exhausted) = match end {
            SearchEnd::Complete => (f64::INFINITY, None),
            SearchEnd::Exhausted { kind, frontier } => (frontier, Some(kind)),
        };
        let slack = crate::anytime::frontier_slack(query.measure, &query.spec);
        let frontier = crate::anytime::frontier_lower_bound(frontier_key, slack);
        let dist_best = sink.dist_best;
        let lower_bound = crate::anytime::combine_lower_bound(dist_best, approx.shrink(), frontier);
        let error_bound = crate::anytime::gap(dist_best, lower_bound);
        Ok(AnytimeNwc {
            answer: sink.into_result(stats),
            stats,
            lower_bound,
            error_bound,
            spent,
            exhausted,
        })
    }
}

/// Maps a budget trip to the error the all-or-nothing `try_*_cancel`
/// APIs promise. An I/O allowance plays the role of a spent deadline
/// there.
fn budget_error(kind: CancelKind) -> QueryError {
    match kind {
        CancelKind::Deadline => QueryError::Deadline,
        CancelKind::Stopped => QueryError::Cancelled,
        CancelKind::IoBudget => QueryError::Deadline,
    }
}

/// One ulp above `x` for finite non-negative `x` (identity on `+inf`).
/// Used to make pruning thresholds *tie-inclusive*: pruning with
/// `tie_inclusive(bound)` keeps every candidate that could still **tie**
/// the bound, so the canonical tie-break below sees all tied groups no
/// matter the traversal order — the answer becomes independent of visit
/// order, which the sharded scatter-gather planner relies on (shards
/// interleave arbitrarily) and which pins single-tree answers to the
/// oracle's `(distance, id_set)` canonical order.
pub(crate) fn tie_inclusive(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() + 1)
    } else {
        x
    }
}

/// Canonical order over equal-score groups: ascending sorted-id set,
/// then window coordinates (`total_cmp`, so any bit pattern orders).
/// Matches the oracle's `(distance, id_set)` sort; the window key only
/// disambiguates one set reachable through distinct equal-score windows.
pub(crate) fn canonical_less(
    a_ids: &[u32],
    a_win: &Rect,
    b_ids: &[u32],
    b_win: &Rect,
) -> bool {
    use std::cmp::Ordering;
    match a_ids.cmp(b_ids) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => {
            let key = |w: &Rect| [w.min.x, w.min.y, w.max.x, w.max.y];
            let (ka, kb) = (key(a_win), key(b_win));
            for (x, y) in ka.iter().zip(kb.iter()) {
                match x.total_cmp(y) {
                    Ordering::Less => return true,
                    Ordering::Greater => return false,
                    Ordering::Equal => {}
                }
            }
            false
        }
    }
}

/// Sorted object ids of a candidate group (set identity, tie-break key).
pub(crate) fn sorted_ids(group: &[Entry]) -> Vec<u32> {
    let mut ids: Vec<u32> = group.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids
}

/// Sink keeping the single best group (`objs` / `dist_best` of the
/// problem transformation, §2.1). Ties on the score resolve canonically
/// (smallest sorted-id set, then window) so the answer is a function of
/// the offered *set* of groups, not their discovery order.
pub(crate) struct BestSink {
    pub(crate) dist_best: f64,
    pub(crate) best: Option<(Vec<Entry>, Rect)>,
    /// Sorted ids of `best` (canonical tie-break key).
    pub(crate) best_ids: Vec<u32>,
    /// Pruning-threshold factor `1/(1+ε)`; `1.0` = exact. Only the
    /// threshold shrinks — acceptance in `offer` stays exact, so the
    /// sink always holds the best group actually *seen*.
    pub(crate) shrink: f64,
}

impl BestSink {
    pub(crate) fn new() -> Self {
        BestSink::approx(1.0)
    }

    pub(crate) fn approx(shrink: f64) -> Self {
        BestSink {
            dist_best: f64::INFINITY,
            best: None,
            best_ids: Vec::new(),
            shrink,
        }
    }

    /// The kept group as a query answer carrying `stats`.
    pub(crate) fn into_result(self, stats: SearchStats) -> Option<NwcResult> {
        let distance = self.dist_best;
        self.best.map(|(objects, window)| NwcResult {
            objects,
            distance,
            window,
            stats,
        })
    }
}

impl GroupSink for BestSink {
    fn threshold(&self) -> f64 {
        tie_inclusive(self.dist_best * self.shrink)
    }

    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats) {
        let take = if score < self.dist_best {
            true
        } else if score == self.dist_best {
            match &self.best {
                Some((_, win)) => {
                    let ids = sorted_ids(&group);
                    let better = canonical_less(&ids, &window, &self.best_ids, win);
                    if better {
                        self.best_ids = ids;
                    }
                    better
                }
                None => false, // score == +inf cannot happen for finite groups
            }
        } else {
            false
        };
        if take {
            if score < self.dist_best {
                self.best_ids = sorted_ids(&group);
            }
            self.dist_best = score;
            self.best = Some((group, window));
            stats.best_updates += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceMeasure, WindowSpec};
    use nwc_geom::pt;

    fn cluster_world() -> Vec<nwc_geom::Point> {
        // Near cluster of 2 (too small for n=3), mid cluster of 3, far
        // cluster of 5.
        let mut pts = vec![pt(12.0, 10.0), pt(13.0, 11.0)];
        pts.extend([pt(40.0, 40.0), pt(42.0, 41.0), pt(41.0, 43.0)]);
        pts.extend([
            pt(90.0, 90.0),
            pt(91.0, 91.0),
            pt(92.0, 90.5),
            pt(90.5, 92.0),
            pt(91.5, 89.5),
        ]);
        pts
    }

    #[test]
    fn picks_nearest_sufficient_cluster() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(10.0, 10.0), WindowSpec::square(8.0), 3);
        for scheme in Scheme::TABLE3 {
            let r = idx.nwc(&query, scheme).unwrap_or_else(|| {
                panic!("{scheme} found nothing")
            });
            let mut ids = r.ids();
            ids.sort_unstable();
            assert_eq!(ids, vec![2, 3, 4], "{scheme} picked the wrong cluster");
        }
    }

    #[test]
    fn small_n_uses_near_pair() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(10.0, 10.0), WindowSpec::square(8.0), 2);
        let r = idx.nwc(&query, Scheme::NWC_STAR).unwrap();
        let mut ids = r.ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn n_larger_than_any_window_returns_none() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(10.0, 10.0), WindowSpec::square(8.0), 6);
        for scheme in Scheme::TABLE3 {
            let (r, stats) = idx.nwc_full(&query, scheme);
            assert!(r.is_none(), "{scheme}");
            assert!(stats.io_total > 0);
        }
    }

    #[test]
    fn n_equals_one_degenerates_to_nearest_neighbor() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(39.0, 39.0), WindowSpec::square(4.0), 1);
        let r = idx.nwc(&query, Scheme::NWC_STAR).unwrap();
        assert_eq!(r.ids(), vec![2]); // (40,40) is nearest
        let (d, e) = idx.tree().nearest(pt(39.0, 39.0)).unwrap();
        assert_eq!(e.id, 2);
        assert!((r.distance - d).abs() < 1e-12);
    }

    #[test]
    fn schemes_agree_on_distance() {
        let idx = NwcIndex::build(cluster_world());
        for n in [2usize, 3, 5] {
            for measure in DistanceMeasure::ALL {
                let query = NwcQuery::new(pt(15.0, 20.0), WindowSpec::square(6.0), n)
                    .with_measure(measure);
                let dists: Vec<Option<f64>> = Scheme::TABLE3
                    .iter()
                    .map(|&s| idx.nwc(&query, s).map(|r| r.distance))
                    .collect();
                for d in &dists[1..] {
                    match (dists[0], *d) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert!((a - b).abs() < 1e-9, "{measure:?} n={n}: {dists:?}")
                        }
                        _ => panic!("{measure:?} n={n}: disagreement {dists:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn optimized_schemes_cost_no_more_io() {
        let pts: Vec<_> = (0..3000)
            .map(|i| {
                pt(
                    ((i * 37) % 997) as f64 * 10.0,
                    ((i * 61) % 991) as f64 * 10.0,
                )
            })
            .collect();
        let idx = NwcIndex::build(pts);
        let query = NwcQuery::new(pt(5000.0, 5000.0), WindowSpec::square(200.0), 8);
        let (_, base) = idx.nwc_full(&query, Scheme::NWC);
        let (_, star) = idx.nwc_full(&query, Scheme::NWC_STAR);
        assert!(
            star.io_total < base.io_total,
            "NWC* ({}) should beat NWC ({})",
            star.io_total,
            base.io_total
        );
    }

    #[test]
    fn result_window_contains_group() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(8.0), 3);
        let r = idx.nwc(&query, Scheme::NWC_PLUS).unwrap();
        for e in &r.objects {
            assert!(r.window.contains_point(&e.point));
        }
        assert!(r.window.width() <= query.spec.l + 1e-9);
        assert!(r.window.height() <= query.spec.w + 1e-9);
    }

    #[test]
    fn group_ordered_by_distance() {
        let idx = NwcIndex::build(cluster_world());
        let query = NwcQuery::new(pt(100.0, 100.0), WindowSpec::square(8.0), 4);
        let r = idx.nwc(&query, Scheme::NWC_STAR).unwrap();
        let d: Vec<f64> = r.objects.iter().map(|e| e.point.dist(&query.q)).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
    }

    #[test]
    fn dep_without_grid_answers_like_nwc() {
        let cfg = crate::IndexConfig {
            grid_cell_size: None,
            ..Default::default()
        };
        let idx = NwcIndex::build_with(cluster_world(), cfg);
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(8.0), 3);
        let (dep, dep_stats) = idx.try_nwc_full(&query, Scheme::DEP).unwrap();
        let (plain, plain_stats) = idx.try_nwc_full(&query, Scheme::NWC).unwrap();
        let dep = dep.expect("a 3-cluster exists");
        let plain = plain.expect("a 3-cluster exists");
        assert_eq!(dep.ids(), plain.ids());
        assert_eq!(dep.distance, plain.distance);
        assert_eq!(dep.window, plain.window);
        // Without the grid DEP prunes nothing: the search is plain NWC.
        assert_eq!(dep_stats, plain_stats);
    }
}
