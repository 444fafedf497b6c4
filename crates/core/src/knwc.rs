//! kNWC query processing (paper §3.4).
//!
//! A kNWC query returns `k` object groups of `n` objects each, ordered by
//! ascending distance, with at most `m` identical objects between any two
//! groups (Definition 3). The search reuses the NWC traversal; only the
//! sink differs.
//!
//! # Selection semantics
//!
//! The canonical Definition-3 answer is the *greedy* selection: walk
//! candidate groups in ascending distance and keep each group that
//! shares at most `m` objects with every group already kept. The paper's
//! incremental insertion procedure (§3.4 Steps 1–5) approximates this
//! but is order-sensitive: a late-arriving close group can evict a
//! selected group whose own earlier evictions are never reconsidered.
//! This implementation therefore *buffers* every offered candidate group
//! (deduplicated by object set) and maintains the greedy selection over
//! the buffer, which eliminates the cascade anomaly while keeping the
//! paper's pruning rule (SRR/DIP driven by the current k-th group
//! distance, §3.4).
//!
//! One theoretical caveat remains, inherited from the paper: pruning by
//! the current k-th distance can, in adversarial conflict structures,
//! discard a candidate that the final greedy selection would have used
//! (a close group may *conflict away* selected groups and raise the
//! k-th distance after the candidate was pruned). [`NwcIndex::knwc_exact`]
//! disables distance pruning entirely and is guaranteed to equal the
//! brute-force greedy answer; the experiments use the pruned variant,
//! exactly as the paper does.

use crate::algo::SearchEnd;
use crate::candidates::GroupSink;
use crate::index::NwcIndex;
use crate::query::{KnwcQuery, QueryError};
use crate::request::SearchRequest;
use crate::result::SearchStats;
use crate::scheme::Scheme;
use crate::scratch::QueryScratch;
use nwc_geom::Rect;
use nwc_rtree::{Budget, Entry, ObjectId};

/// One group of a kNWC answer.
#[derive(Clone, Debug)]
pub struct KnwcGroup {
    /// The `n` objects, ordered by ascending distance to the query point.
    pub objects: Vec<Entry>,
    /// The group's score under the query's distance measure.
    pub distance: f64,
    /// The qualified window the group was discovered in.
    pub window: Rect,
}

impl KnwcGroup {
    /// The object ids of this group, sorted ascending (set identity).
    pub fn id_set(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.objects.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }
}

/// The answer to a kNWC query.
#[derive(Clone, Debug)]
pub struct KnwcResult {
    /// Up to `k` groups in ascending distance order. Fewer groups are
    /// returned when the dataset does not contain `k` compatible ones.
    pub groups: Vec<KnwcGroup>,
    /// What the search did.
    pub stats: SearchStats,
}

impl NwcIndex {
    /// `search` of an exact kNWC request under `scheme`, all or nothing.
    /// Kept only for the benchmark adapter (`nwc-benchmark/src/sut.rs`);
    /// new code calls [`NwcIndex::search`].
    pub fn try_knwc_with(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
        scratch: &mut QueryScratch,
    ) -> Result<KnwcResult, QueryError> {
        let req = SearchRequest::knwc(*query, scheme);
        Ok(self.search(&req, scratch)?.complete()?.into_knwc())
    }

    /// A kNWC search with distance pruning disabled: every qualified
    /// window is considered, so the answer is exactly the greedy
    /// Definition-3 selection (matching
    /// [`oracle::knwc_brute_force`](crate::oracle::knwc_brute_force)).
    /// DEP/IWP still apply if the scheme enables them — they never drop
    /// qualified windows.
    pub fn knwc_exact(&self, query: &KnwcQuery, scheme: Scheme) -> Result<KnwcResult, QueryError> {
        let req = SearchRequest::knwc(*query, scheme);
        let out = self.search_pruned(&req, false, &mut QueryScratch::new())?;
        Ok(out.complete()?.into_knwc())
    }

    /// The search loop with the buffered greedy top-k sink over `core`.
    pub(crate) fn knwc_search(
        &self,
        query: &KnwcQuery,
        scheme: Scheme,
        core: GroupsCore,
        scratch: &mut QueryScratch,
        budget: &Budget,
    ) -> Result<(KnwcResult, SearchEnd), QueryError> {
        // The sink borrows the scratch's id buffer for its set-identity
        // checks; the traversal buffers stay with the scratch.
        let mut sink = GroupsSink {
            core,
            idbuf: std::mem::take(&mut scratch.ids),
        };
        let searched = self.traverse(&query.base, scheme, &mut sink, scratch, budget);
        // Failed or not, the id buffer goes back to the scratch so its
        // capacity survives into the next query.
        sink.idbuf.clear();
        scratch.ids = std::mem::take(&mut sink.idbuf);
        let (stats, end) = searched?;
        let result = KnwcResult {
            groups: sink.core.groups(),
            stats,
        };
        Ok((result, end))
    }
}

pub(crate) struct StoredGroup {
    pub(crate) ids: Vec<ObjectId>, // sorted — the group's set identity
    pub(crate) entries: Vec<Entry>,
    pub(crate) score: f64,
    pub(crate) window: Rect,
}

/// The buffered greedy top-k state, factored out of [`GroupsSink`] so
/// the sharded scatter-gather planner can share one instance (behind a
/// mutex) across every shard's traversal. Holds no scratch borrows —
/// callers pass the reusable sorted-id buffer into
/// [`GroupsCore::offer_group`].
pub(crate) struct GroupsCore {
    pub(crate) k: usize,
    pub(crate) m: usize,
    pub(crate) prune: bool,
    /// Pruning-threshold factor `1/(1+ε)`; `1.0` = exact. Only the
    /// §3.4 threshold shrinks — acceptance into the buffer stays exact,
    /// so the selection is the true greedy answer over everything the
    /// (relaxed) traversal actually offered.
    pub(crate) shrink: f64,
    /// All distinct offered groups, ascending by (score, ids).
    pub(crate) buffer: Vec<StoredGroup>,
    /// Indices into `buffer` forming the current greedy selection.
    pub(crate) selected: Vec<usize>,
}

impl GroupsCore {
    pub(crate) fn approx(k: usize, m: usize, prune: bool, shrink: f64) -> Self {
        GroupsCore {
            k,
            m,
            prune,
            shrink,
            buffer: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// Recomputes the greedy selection: scan the buffer in ascending
    /// score order, keep groups compatible with everything kept so far,
    /// stop at k.
    fn reselect(&mut self) {
        self.selected.clear();
        for (i, cand) in self.buffer.iter().enumerate() {
            if self.selected.len() == self.k {
                break;
            }
            let ok = self
                .selected
                .iter()
                .all(|&s| overlap_count(&self.buffer[s].ids, &cand.ids) <= self.m);
            if ok {
                self.selected.push(i);
            }
        }
    }

    /// The §3.4 pruning bound, tie-inclusive: one ulp above the k-th
    /// selected score (∞ until k groups exist or when pruning is off).
    /// Tie-inclusion keeps equal-score groups discoverable so the
    /// canonical `(score, ids)` buffer order — not traversal order —
    /// decides the selection.
    pub(crate) fn threshold(&self) -> f64 {
        match self.pruning_kth() {
            Some(kth) => crate::algo::tie_inclusive(kth * self.shrink),
            None => f64::INFINITY,
        }
    }

    /// The k-th selected score once pruning applies: `None` when pruning
    /// is off or fewer than k groups are selected (always for `k = 0`).
    fn pruning_kth(&self) -> Option<f64> {
        if !self.prune || self.selected.len() != self.k {
            return None;
        }
        let &last = self.selected.last()?;
        self.buffer.get(last).map(|g| g.score)
    }

    /// Offers one candidate group. `idbuf` is the caller's reusable
    /// sorted-id buffer (left holding the group's sorted ids).
    pub(crate) fn offer_group(
        &mut self,
        group: Vec<Entry>,
        score: f64,
        window: Rect,
        idbuf: &mut Vec<ObjectId>,
        stats: &mut SearchStats,
    ) {
        // Fast reject: strictly beyond the k-th score cannot affect the
        // greedy selection; exact ties enter the buffer so the canonical
        // order decides.
        if self.pruning_kth().is_some_and(|kth| score > kth) {
            return;
        }
        // Build the sorted id set in the reused buffer; only clone it
        // into owned storage when the group is actually kept.
        idbuf.clear();
        idbuf.extend(group.iter().map(|e| e.id));
        idbuf.sort_unstable();
        // Deduplicate by set identity (same place rediscovered through a
        // shifted window scores identically). An equal-(score, ids)
        // rediscovery through a different window keeps the canonically
        // smaller window, so the stored window is order-independent too.
        let pos = self
            .buffer
            .partition_point(|g| (g.score, &g.ids) < (score, &*idbuf));
        if let Some(g) = self.buffer.get_mut(pos) {
            if g.ids == *idbuf {
                if crate::algo::canonical_less(idbuf, &window, &g.ids, &g.window) {
                    g.entries = group;
                    g.window = window;
                }
                return;
            }
        }
        self.buffer.insert(
            pos,
            StoredGroup {
                ids: idbuf.clone(),
                entries: group,
                score,
                window,
            },
        );
        self.reselect();
        stats.best_updates += 1;
    }

    /// Materializes the current greedy selection as result groups.
    pub(crate) fn groups(&self) -> Vec<KnwcGroup> {
        self.selected
            .iter()
            .map(|&i| {
                let g = &self.buffer[i];
                KnwcGroup {
                    objects: g.entries.clone(),
                    distance: g.score,
                    window: g.window,
                }
            })
            .collect()
    }
}

/// Sink maintaining the greedy top-k selection over all offered groups.
struct GroupsSink {
    core: GroupsCore,
    /// Reused sorted-id buffer: duplicate offers (the common case near a
    /// hot window) are rejected without allocating.
    idbuf: Vec<ObjectId>,
}

impl GroupSink for GroupsSink {
    fn threshold(&self) -> f64 {
        self.core.threshold()
    }

    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats) {
        self.core.offer_group(group, score, window, &mut self.idbuf, stats);
    }
}

/// `|a ∩ b|` for sorted id slices.
fn overlap_count(a: &[ObjectId], b: &[ObjectId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::testing::*;
    use crate::{KnwcQuery, Scheme, WindowSpec};
    use nwc_geom::pt;

    fn three_clusters() -> Vec<nwc_geom::Point> {
        let mut pts = Vec::new();
        for (cx, cy) in [(20.0, 20.0), (50.0, 50.0), (85.0, 85.0)] {
            for i in 0..4 {
                pts.push(pt(cx + (i % 2) as f64, cy + (i / 2) as f64));
            }
        }
        pts
    }

    #[test]
    fn overlap_count_works() {
        assert_eq!(overlap_count(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(overlap_count(&[], &[1]), 0);
        assert_eq!(overlap_count(&[5, 9], &[1, 2, 3]), 0);
        assert_eq!(overlap_count(&[1, 2], &[1, 2]), 2);
    }

    #[test]
    fn returns_k_disjoint_groups_in_order() {
        let idx = NwcIndex::build(three_clusters());
        let query = KnwcQuery::new(pt(0.0, 0.0), WindowSpec::square(5.0), 3, 3, 0);
        for scheme in [Scheme::NWC_PLUS, Scheme::NWC_STAR] {
            let r = knwc(&idx, &query, scheme);
            assert_eq!(r.groups.len(), 3, "{scheme}");
            let d: Vec<f64> = r.groups.iter().map(|g| g.distance).collect();
            assert!(d.windows(2).all(|w| w[0] <= w[1]), "{scheme}: {d:?}");
            for a in 0..3 {
                for b in a + 1..3 {
                    assert_eq!(
                        overlap_count(&r.groups[a].id_set(), &r.groups[b].id_set()),
                        0
                    );
                }
            }
            let firsts: Vec<f64> = r.groups.iter().map(|g| g.objects[0].point.x).collect();
            assert!(firsts[0] < 25.0 && firsts[1] < 55.0 && firsts[2] > 80.0);
        }
    }

    #[test]
    fn first_group_matches_nwc() {
        let idx = NwcIndex::build(three_clusters());
        let q = pt(47.0, 48.0);
        let spec = WindowSpec::square(5.0);
        let knwc = knwc(&idx, &KnwcQuery::new(q, spec, 3, 2, 0), Scheme::NWC_STAR);
        let nwc = nwc(&idx, &crate::NwcQuery::new(q, spec, 3), Scheme::NWC_STAR)
            .unwrap();
        assert!((knwc.groups[0].distance - nwc.distance).abs() < 1e-9);
    }

    #[test]
    fn m_allows_overlap() {
        // Five objects on a line: windows can slide to exclude either
        // endpoint, so with m = 3 two overlapping 4-groups exist; with
        // m = 0 only one does.
        let pts = vec![
            pt(10.0, 10.0),
            pt(11.0, 10.0),
            pt(12.0, 10.0),
            pt(13.0, 10.0),
            pt(14.5, 10.0),
        ];
        let idx = NwcIndex::build(pts);
        let strict = knwc(
            &idx,
            &KnwcQuery::new(pt(0.0, 0.0), WindowSpec::square(4.0), 4, 2, 0),
            Scheme::NWC_STAR,
        );
        assert_eq!(strict.groups.len(), 1);
        let loose = knwc(
            &idx,
            &KnwcQuery::new(pt(0.0, 0.0), WindowSpec::square(4.0), 4, 2, 3),
            Scheme::NWC_STAR,
        );
        assert_eq!(loose.groups.len(), 2);
        assert!(loose.groups[0].distance <= loose.groups[1].distance);
    }

    #[test]
    fn fewer_groups_than_k_when_data_runs_out() {
        let idx = NwcIndex::build(three_clusters());
        let query = KnwcQuery::new(pt(0.0, 0.0), WindowSpec::square(5.0), 4, 10, 0);
        let r = knwc(&idx, &query, Scheme::NWC_STAR);
        assert_eq!(r.groups.len(), 3, "only three disjoint 4-groups exist");
    }

    #[test]
    fn no_duplicate_groups() {
        let idx = NwcIndex::build(three_clusters());
        let query = KnwcQuery::new(pt(30.0, 30.0), WindowSpec::square(6.0), 2, 8, 1);
        let r = knwc(&idx, &query, Scheme::NWC_STAR);
        let sets: Vec<Vec<u32>> = r.groups.iter().map(|g| g.id_set()).collect();
        for a in 0..sets.len() {
            for b in a + 1..sets.len() {
                assert_ne!(sets[a], sets[b]);
            }
        }
    }

    #[test]
    fn exact_mode_matches_pruned_on_easy_data() {
        let idx = NwcIndex::build(three_clusters());
        let query = KnwcQuery::new(pt(10.0, 90.0), WindowSpec::square(5.0), 3, 3, 0);
        let pruned = knwc(&idx, &query, Scheme::NWC_STAR);
        let exact = idx.knwc_exact(&query, Scheme::NWC).unwrap();
        assert_eq!(pruned.groups.len(), exact.groups.len());
        for (a, b) in pruned.groups.iter().zip(&exact.groups) {
            assert!((a.distance - b.distance).abs() < 1e-9);
            assert_eq!(a.id_set(), b.id_set());
        }
        // Pruning must not cost more I/O than exhaustion.
        assert!(pruned.stats.io_total <= exact.stats.io_total);
    }
}
