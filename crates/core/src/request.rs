//! One request type and one outcome type for every query.
//!
//! The paper defines two queries, NWC (Definition 2) and kNWC
//! (Definition 3, §3.4). Both run on the crate's one best-first search
//! loop, and the Table 3 schemes only switch its pruning rules. So one
//! [`SearchRequest`] describes every query — which one, under which
//! scheme, within which cooperative [`Budget`] and in which `(1+ε)`
//! [`Approx`] mode — and [`NwcIndex::search`](crate::NwcIndex::search)
//! and [`ShardedNwcIndex::search`](crate::ShardedNwcIndex::search)
//! answer it with one [`Outcome`].
//!
//! An outcome is *anytime*: a budget that expires mid-search is not an
//! error. The outcome carries the best answer found so far with a
//! proven bound on the exact optimum (see [`crate::anytime`]), and a
//! sharded search that loses a shard degrades that bound instead of
//! failing. [`Outcome::complete`] turns an outcome back into the
//! all-or-nothing contract: an answer that covered everything, or the
//! typed error that stopped it. Only disk failures on an unsharded
//! index, and invalid queries, make `search` itself return `Err`.

use crate::anytime::{Approx, BudgetSpent};
use crate::knwc::{KnwcGroup, KnwcResult};
use crate::query::{KnwcQuery, NwcQuery, QueryError};
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use nwc_rtree::{Budget, CancelKind};

/// The query a [`SearchRequest`] asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// `NWC(q, l, w, n)`: the best group.
    Nwc(NwcQuery),
    /// `kNWC(k, q, l, w, n, m)`: the top-k groups, pruned by the
    /// current k-th group distance as §3.4 prescribes.
    Knwc(KnwcQuery),
}

impl Query {
    /// The NWC parameters the search runs on.
    pub(crate) fn base(&self) -> &NwcQuery {
        match self {
            Query::Nwc(q) => q,
            Query::Knwc(q) => &q.base,
        }
    }

    /// Rejects a malformed query before any node is read.
    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        match self {
            Query::Nwc(q) => q.validate(),
            Query::Knwc(q) => q.validate(),
        }
    }
}

/// One query with everything that shapes its search.
#[derive(Clone, Debug)]
pub struct SearchRequest {
    /// NWC or kNWC, with its parameters.
    pub query: Query,
    /// Which of the Table 3 pruning rules the search applies. Schemes
    /// only prune; every scheme returns the same answer.
    pub scheme: Scheme,
    /// When to stop: a deadline, a stop flag and a logical-I/O
    /// allowance, checked at every node expansion and window query.
    /// [`Budget::none`] never stops the search.
    pub budget: Budget,
    /// `(1+ε)` mode: shrinks the pruning thresholds by `1/(1+ε)`.
    /// [`Approx::exact`] runs the exact search bit for bit.
    pub approx: Approx,
}

impl SearchRequest {
    /// An exact NWC request with no budget.
    pub fn nwc(query: NwcQuery, scheme: Scheme) -> Self {
        SearchRequest {
            query: Query::Nwc(query),
            scheme,
            budget: Budget::none(),
            approx: Approx::exact(),
        }
    }

    /// An exact kNWC request with no budget.
    pub fn knwc(query: KnwcQuery, scheme: Scheme) -> Self {
        SearchRequest {
            query: Query::Knwc(query),
            ..SearchRequest::nwc(query.base, scheme)
        }
    }

    /// The same request under `budget`.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The same request in `(1+ε)` mode `approx`.
    #[must_use]
    pub fn with_approx(mut self, approx: Approx) -> Self {
        self.approx = approx;
        self
    }
}

/// The groups a search found.
#[derive(Clone, Debug)]
pub enum Answer {
    /// The best NWC group; `None` when no window qualifies (or, for a
    /// partial outcome, none was found before the budget expired).
    Nwc(Option<NwcResult>),
    /// Up to `k` kNWC groups in ascending distance.
    Knwc(KnwcResult),
}

/// What a search returned: the answer, what the search did, and how far
/// the answer may be from the exact optimum.
///
/// Invariants (asserted against the brute-force oracle by the test
/// suites): `lower_bound <= d* <= score`, where `d*` is the exact
/// optimum and `score` is the NWC answer's distance or the k-th kNWC
/// group's; hence `score <= d* + error_bound` and `error_bound >= 0`.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The groups found.
    pub answer: Answer,
    /// What the search did up to its stopping point; under a scatter,
    /// the exact sum of `per_shard`.
    pub stats: SearchStats,
    /// Proven lower bound on the exact optimum score:
    /// `min(max(0, frontier_key - slack), score/(1+ε))` (see
    /// [`frontier_slack`](crate::frontier_slack)), where a failed shard
    /// contributes the `MINDIST` from the query point to its bounds
    /// minus the slack. `+inf` when a complete exact search found
    /// nothing.
    pub lower_bound: f64,
    /// `score - lower_bound`, clamped at 0: `0` for a complete exact
    /// search, `+inf` when the search stopped before it found `k`
    /// groups (one for NWC).
    pub error_bound: f64,
    /// What the search spent.
    pub spent: BudgetSpent,
    /// Why the search stopped early (the strongest trip over the
    /// shards), or `None` when it ran the frontier dry.
    pub exhausted: Option<CancelKind>,
    /// Counters per shard, indexed by shard (zeroed for a shard that
    /// failed). Empty on an unsharded index.
    pub per_shard: Vec<SearchStats>,
    /// `(shard, error)` for every shard whose search failed outright
    /// and was merged around. Empty on an unsharded index, whose
    /// failures are `search`'s own `Err`.
    pub degraded: Vec<(usize, QueryError)>,
}

impl Outcome {
    /// Assembles an outcome and derives its bound from the answer's
    /// score, the `(1+ε)` shrink and the slack-adjusted `frontier`.
    pub(crate) fn bracket(
        answer: Answer,
        stats: SearchStats,
        k: usize,
        shrink: f64,
        frontier: f64,
        spent: BudgetSpent,
        exhausted: Option<CancelKind>,
    ) -> Self {
        let score = answer.bracketed_score(k);
        let lower_bound = crate::anytime::combine_lower_bound(score, shrink, frontier);
        Outcome {
            answer,
            stats,
            lower_bound,
            error_bound: crate::anytime::gap(score, lower_bound),
            spent,
            exhausted,
            per_shard: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// Whether the search covered the whole frontier on every shard:
    /// the answer is exact for `ε = 0`, `(1+ε)`-approximate otherwise.
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none() && self.degraded.is_empty()
    }

    /// Whether a budget trip or a failed shard cut the search short.
    pub fn is_partial(&self) -> bool {
        !self.is_complete()
    }

    /// The all-or-nothing contract: the outcome when it is complete,
    /// else the error that cut it short. A budget trip is
    /// [`QueryError::Deadline`] (an I/O allowance counts as a spent
    /// deadline) or [`QueryError::Cancelled`]; a failed shard is its own
    /// error, where a deadline or cancellation outranks an I/O failure,
    /// so a shed query never passes for a disk fault.
    pub fn complete(self) -> Result<Self, QueryError> {
        if let Some(kind) = self.exhausted {
            return Err(budget_error(kind));
        }
        let first = self
            .degraded
            .iter()
            .map(|(_, e)| e)
            .min_by_key(|e| !matches!(e, QueryError::Deadline | QueryError::Cancelled));
        match first {
            Some(e) => Err(e.clone()),
            None => Ok(self),
        }
    }

    /// The NWC answer; `None` when no group was found or for a kNWC
    /// request.
    pub fn nwc(&self) -> Option<&NwcResult> {
        match &self.answer {
            Answer::Nwc(r) => r.as_ref(),
            Answer::Knwc(_) => None,
        }
    }

    /// The NWC answer, by value (see [`Outcome::nwc`]).
    pub fn into_nwc(self) -> Option<NwcResult> {
        match self.answer {
            Answer::Nwc(r) => r,
            Answer::Knwc(_) => None,
        }
    }

    /// The answer as kNWC groups; an NWC answer is zero or one group.
    pub fn into_knwc(self) -> KnwcResult {
        match self.answer {
            Answer::Knwc(r) => r,
            Answer::Nwc(r) => KnwcResult {
                groups: r
                    .into_iter()
                    .map(|r| KnwcGroup {
                        objects: r.objects,
                        distance: r.distance,
                        window: r.window,
                    })
                    .collect(),
                stats: self.stats,
            },
        }
    }
}

impl Answer {
    /// The score the bound brackets: the NWC answer's distance, or the
    /// k-th kNWC group's; `+inf` while fewer groups were found.
    fn bracketed_score(&self, k: usize) -> f64 {
        match self {
            Answer::Nwc(r) => r.as_ref().map_or(f64::INFINITY, |r| r.distance),
            Answer::Knwc(r) if r.groups.len() == k => {
                r.groups.last().map_or(f64::INFINITY, |g| g.distance)
            }
            Answer::Knwc(_) => f64::INFINITY,
        }
    }
}

/// Maps a budget trip to the error of the all-or-nothing contract. An
/// I/O allowance plays the role of a spent deadline there.
fn budget_error(kind: CancelKind) -> QueryError {
    match kind {
        CancelKind::Deadline | CancelKind::IoBudget => QueryError::Deadline,
        CancelKind::Stopped => QueryError::Cancelled,
    }
}

/// Shorthands for the crate's unit tests: unbudgeted exact requests,
/// all or nothing.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::{NwcIndex, QueryScratch};

    /// The complete outcome of `req` on a fresh scratch.
    pub(crate) fn complete(index: &NwcIndex, req: &SearchRequest) -> Outcome {
        index
            .search(req, &mut QueryScratch::new())
            .and_then(Outcome::complete)
            .unwrap()
    }

    /// The NWC answer and the search's counters.
    pub(crate) fn nwc_full(
        index: &NwcIndex,
        query: &NwcQuery,
        scheme: Scheme,
    ) -> (Option<NwcResult>, SearchStats) {
        let out = complete(index, &SearchRequest::nwc(*query, scheme));
        let stats = out.stats;
        (out.into_nwc(), stats)
    }

    /// The NWC answer.
    pub(crate) fn nwc(index: &NwcIndex, query: &NwcQuery, scheme: Scheme) -> Option<NwcResult> {
        nwc_full(index, query, scheme).0
    }

    /// The kNWC answer.
    pub(crate) fn knwc(index: &NwcIndex, query: &KnwcQuery, scheme: Scheme) -> KnwcResult {
        complete(index, &SearchRequest::knwc(*query, scheme)).into_knwc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_rtree::DiskReadError;

    fn partial(exhausted: Option<CancelKind>, degraded: Vec<(usize, QueryError)>) -> Outcome {
        let mut out = Outcome::bracket(
            Answer::Nwc(None),
            SearchStats::default(),
            1,
            1.0,
            f64::INFINITY,
            BudgetSpent::default(),
            exhausted,
        );
        out.degraded = degraded;
        out
    }

    fn io() -> QueryError {
        QueryError::Io(DiskReadError {
            page: 7,
            detail: "x".into(),
        })
    }

    #[test]
    fn complete_prefers_cancellation_over_io() {
        let out = partial(None, vec![(0, io()), (1, QueryError::Deadline)]);
        assert_eq!(out.complete().unwrap_err(), QueryError::Deadline);
        let out = partial(None, vec![(2, io())]);
        assert_eq!(out.complete().unwrap_err(), io());
        let out = partial(Some(CancelKind::Stopped), vec![(0, io())]);
        assert_eq!(out.complete().unwrap_err(), QueryError::Cancelled);
        let out = partial(Some(CancelKind::IoBudget), Vec::new());
        assert_eq!(out.complete().unwrap_err(), QueryError::Deadline);
        assert!(partial(None, Vec::new()).complete().is_ok());
    }
}
