//! Anytime/budgeted and `(1+ε)`-approximate query results.
//!
//! The all-or-nothing contract ([`Outcome::complete`](crate::Outcome::complete))
//! treats every resource limit as a hard failure: a missed deadline is
//! [`QueryError::Deadline`] and the caller gets nothing, even though the
//! best-first search had usually found a near-optimal group long before
//! the budget ran out. A search itself instead stops cooperatively and
//! returns the **best answer so far together with a proven quality
//! bound** in its [`Outcome`](crate::Outcome):
//!
//! - The best-first frontier pops items in ascending key; every group
//!   the search has not yet covered is anchored at an object still at
//!   or behind the frontier (`dist(q, p) >= key`), and its discovery
//!   window is an `l × w` rectangle containing that anchor, so its
//!   score is at least `key - diagonal(l, w)` (one extra diagonal for
//!   the `NearestWindow` measure, whose minimizing window may slide
//!   one window-size further) — see [`frontier_slack`]. The heap key
//!   at the stopping point therefore yields a sound lower bound for
//!   free.
//! - In `(1+ε)` mode the pruning thresholds shrink by `1/(1+ε)`
//!   ([`Approx`]), so anything pruned had score at least
//!   `dist_best/(1+ε)` at prune time; since `dist_best` only improves,
//!   the final answer is within `(1+ε)` of the exact optimum.
//!
//! Combining the two certificates: the exact optimum `d*` satisfies
//! `d* >= min(max(0, frontier_key - slack), answer/(1+ε))` —
//! [`Outcome::lower_bound`](crate::Outcome::lower_bound).
//! The absolute gap `answer - lower_bound` is
//! [`Outcome::error_bound`](crate::Outcome::error_bound); it is `0` for a
//! completed exact search and `+inf` when the budget expired before any
//! group was found.
//!
//! With `ε = 0` and an unarmed [`Budget`](nwc_rtree::Budget) the
//! search runs the exact loop unchanged — answers *and* logical I/O are
//! bit-identical to an unbudgeted exact search (asserted by
//! `tests/oracle_equivalence.rs`).

use crate::measure::DistanceMeasure;
use crate::query::QueryError;
use crate::request::Outcome;
use crate::result::{NwcResult, SearchStats};
use nwc_geom::window::WindowSpec;
use nwc_rtree::CancelKind;
use std::time::Instant;

/// `(1+ε)`-approximation mode of a [`SearchRequest`](crate::SearchRequest).
///
/// The factor shrinks every distance-driven pruning threshold
/// (SRR/DIP and the kNWC k-th-score bound) by `1/(1+ε)`, letting the
/// search discard regions that could only improve the answer by less
/// than a factor of `(1+ε)`. `ε = 0` ([`Approx::exact`]) multiplies
/// thresholds by exactly `1.0`, which is the identity on every finite
/// score — the exact path, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Approx {
    epsilon: f64,
    shrink: f64,
}

impl Approx {
    /// Exact mode: `ε = 0`, thresholds untouched.
    pub fn exact() -> Self {
        Approx {
            epsilon: 0.0,
            shrink: 1.0,
        }
    }

    /// `(1+ε)` mode. Rejects NaN, infinite, and negative `ε` with
    /// [`QueryError::InvalidEpsilon`].
    pub fn new(epsilon: f64) -> Result<Self, QueryError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(QueryError::InvalidEpsilon);
        }
        if epsilon == 0.0 {
            return Ok(Approx::exact());
        }
        Ok(Approx {
            epsilon,
            shrink: 1.0 / (1.0 + epsilon),
        })
    }

    /// The configured `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The threshold inflation factor `1/(1+ε)` (1.0 in exact mode).
    pub(crate) fn shrink(&self) -> f64 {
        self.shrink
    }
}

impl Default for Approx {
    fn default() -> Self {
        Approx::exact()
    }
}

/// What a budgeted search actually spent before returning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpent {
    /// Wall-clock microseconds from entering the search to returning.
    pub elapsed_us: u64,
    /// Logical node accesses charged by the searching thread(s).
    pub io: u64,
}

impl BudgetSpent {
    /// The spend of a search that started at `started` and charged `io`
    /// logical accesses.
    pub(crate) fn since(started: Instant, io: u64) -> Self {
        BudgetSpent {
            elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            io,
        }
    }
}

/// The [`Outcome`] of an NWC search in the shape the benchmark adapter
/// reads: the best group found so far plus a proven bracket on the
/// exact optimum.
///
/// Invariants (asserted against the brute-force oracle by the test
/// suites): `lower_bound <= d* <= answer.distance` whenever `answer`
/// is `Some` (where `d*` is the exact optimum score), hence
/// `answer.distance <= d* + error_bound` and `error_bound >= 0`.
#[derive(Clone, Debug)]
pub struct AnytimeNwc {
    /// The best group found within the budget (`None` when none was
    /// found yet — always accompanied by an infinite `error_bound`
    /// unless the search completed).
    pub answer: Option<NwcResult>,
    /// What the search did up to the stopping point.
    pub stats: SearchStats,
    /// Proven lower bound on the exact optimum score:
    /// `min(max(0, frontier_key - slack), answer/(1+ε))` — see
    /// [`frontier_slack`]. `+inf` when a completed exact search found
    /// nothing (no group exists at all).
    pub lower_bound: f64,
    /// `answer.distance - lower_bound`, clamped at 0. `0` for a
    /// completed exact search; `+inf` when the budget expired before
    /// any group was found.
    pub error_bound: f64,
    /// What the search spent.
    pub spent: BudgetSpent,
    /// Why the search stopped early, or `None` when it ran the
    /// frontier dry (a complete — possibly `(1+ε)`-approximate —
    /// answer).
    pub exhausted: Option<CancelKind>,
}

impl AnytimeNwc {
    /// Whether the search covered the whole frontier (the answer is
    /// exact for `ε = 0`, `(1+ε)`-approximate otherwise).
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }

    /// Whether the budget expired mid-search (a best-so-far answer).
    pub fn is_partial(&self) -> bool {
        self.exhausted.is_some()
    }
}

impl From<Outcome> for AnytimeNwc {
    fn from(out: Outcome) -> Self {
        AnytimeNwc {
            stats: out.stats,
            lower_bound: out.lower_bound,
            error_bound: out.error_bound,
            spent: out.spent,
            exhausted: out.exhausted,
            answer: out.into_nwc(),
        }
    }
}

/// The slack between the best-first frontier key and the score of a
/// group anchored behind it.
///
/// An uncovered group is anchored at an unvisited object `p` with
/// `dist(q, p) >= key`; every member of the group lies in an `l × w`
/// window containing `p`, hence within `diagonal(l, w)` of `p`, so for
/// the `Min`/`Max`/`Avg` measures its score is at least
/// `key - diagonal`. The `NearestWindow` measure minimizes `MINDIST`
/// over *every* window containing the group, which can slide up to one
/// more window size toward `q` — two diagonals of slack.
pub fn frontier_slack(measure: DistanceMeasure, spec: &WindowSpec) -> f64 {
    match measure {
        DistanceMeasure::NearestWindow => 2.0 * spec.diagonal(),
        _ => spec.diagonal(),
    }
}

/// Converts a raw frontier key into a sound score lower bound by
/// subtracting the window slack (clamped at zero; infinite keys — a
/// drained frontier — stay infinite).
pub(crate) fn frontier_lower_bound(frontier_key: f64, slack: f64) -> f64 {
    if frontier_key.is_finite() {
        (frontier_key - slack).max(0.0)
    } else {
        frontier_key
    }
}

/// Combines the two stop certificates into one sound lower bound on
/// the exact optimum: anything pruned scored at least `best * shrink`
/// (the `(1+ε)` certificate), anything not yet covered scored at least
/// `frontier` (the slack-adjusted best-first certificate, see
/// [`frontier_lower_bound`]).
pub(crate) fn combine_lower_bound(best: f64, shrink: f64, frontier: f64) -> f64 {
    (best * shrink).min(frontier)
}

/// Absolute quality gap for a best score and its lower bound: `0` when
/// nothing was found because nothing exists (both infinite), `+inf`
/// when the search stopped before finding anything, else the clamped
/// difference.
pub(crate) fn gap(best: f64, lower_bound: f64) -> f64 {
    if best.is_finite() {
        (best - lower_bound).max(0.0)
    } else if lower_bound.is_finite() {
        f64::INFINITY
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Approx::new(f64::NAN).is_err());
        assert!(Approx::new(f64::INFINITY).is_err());
        assert!(Approx::new(-0.5).is_err());
        assert_eq!(Approx::new(0.0).unwrap(), Approx::exact());
        let a = Approx::new(0.25).unwrap();
        assert_eq!(a.epsilon(), 0.25);
        assert!((a.shrink() - 0.8).abs() < 1e-15);
    }

    #[test]
    fn exact_shrink_is_the_identity_bitwise() {
        let a = Approx::exact();
        for x in [0.0, 1.5, 1e300, f64::INFINITY] {
            assert_eq!((x * a.shrink()).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bound_arithmetic_covers_every_stop_state() {
        // Complete exact search with an answer: zero gap.
        let lb = combine_lower_bound(5.0, 1.0, f64::INFINITY);
        assert_eq!(lb, 5.0);
        assert_eq!(gap(5.0, lb), 0.0);
        // Complete (1+ε) search: the ε certificate decides.
        let lb = combine_lower_bound(5.0, 0.8, f64::INFINITY);
        assert_eq!(lb, 4.0);
        assert!((gap(5.0, lb) - 1.0).abs() < 1e-12);
        // Exhausted with a shallow frontier: the frontier decides.
        let lb = combine_lower_bound(5.0, 1.0, 2.0);
        assert_eq!(lb, 2.0);
        assert_eq!(gap(5.0, lb), 3.0);
        // Exhausted before anything was found: unbounded gap.
        let lb = combine_lower_bound(f64::INFINITY, 1.0, 2.0);
        assert_eq!(lb, 2.0);
        assert_eq!(gap(f64::INFINITY, lb), f64::INFINITY);
        // Complete with nothing found: nothing exists, zero gap.
        let lb = combine_lower_bound(f64::INFINITY, 1.0, f64::INFINITY);
        assert_eq!(gap(f64::INFINITY, lb), 0.0);
    }

    #[test]
    fn frontier_slack_subtracts_the_window_diagonal() {
        let spec = WindowSpec { l: 3.0, w: 4.0 }; // diagonal 5
        assert_eq!(frontier_slack(DistanceMeasure::Max, &spec), 5.0);
        assert_eq!(frontier_slack(DistanceMeasure::Min, &spec), 5.0);
        assert_eq!(frontier_slack(DistanceMeasure::Avg, &spec), 5.0);
        assert_eq!(frontier_slack(DistanceMeasure::NearestWindow, &spec), 10.0);
        assert_eq!(frontier_lower_bound(12.0, 5.0), 7.0);
        assert_eq!(frontier_lower_bound(2.0, 5.0), 0.0); // clamped
        assert_eq!(frontier_lower_bound(f64::INFINITY, 5.0), f64::INFINITY);
    }

}
