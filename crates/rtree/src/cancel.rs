//! Cooperative budgets for long-running traversals.
//!
//! A query over a disk-backed tree can run for an unbounded time (cold
//! pool, slow device, retry backoff). A serving layer needs ways to
//! stop one without tearing anything down, and the anytime query APIs
//! need to cap what one may spend. A [`Budget`] carries up to three
//! independent limits:
//!
//! - a **deadline** — the per-request latency budget, checked against
//!   the monotonic clock;
//! - a **stop flag** — an external signal (client disconnected, request
//!   shed mid-batch, server draining) shared by any number of queries;
//! - a **logical I/O allowance** — a maximum number of charged node
//!   accesses, measured against the calling thread's access tally
//!   (physical reads and buffer hits alike, the paper's metric).
//!
//! The budget is *cooperative*: nothing is interrupted preemptively.
//! The traversal checks it at its I/O boundaries —
//! [`Browser::try_expand`](crate::Browser::try_expand) checks before
//! every node expansion, and the NWC search loop in `nwc-core`
//! additionally checks before every window query — so the latency of a
//! trip is bounded by one node access plus one window query, and a
//! tripped search unwinds with pins released, pool exact, the worker
//! thread fully reusable. What happens next is the caller's choice: the
//! `try_*_cancel` query APIs turn a trip into a typed error, while the
//! anytime APIs return the best answer found so far with a proven
//! error bound.
//!
//! With nothing armed ([`Budget::none`], the default) a check is three
//! branch-predicted `None` tests, which keeps the budget out of the hot
//! path's way for the in-process batch workloads that never stop early.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which limit of a [`Budget`] stopped a traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelKind {
    /// The deadline passed: the query exceeded its latency budget.
    Deadline,
    /// The stop flag was raised: the caller no longer wants the answer
    /// (disconnect, shed, shutdown).
    Stopped,
    /// The logical-I/O allowance was spent: the query charged as many
    /// node accesses as the caller was willing to pay for.
    IoBudget,
}

impl std::fmt::Display for CancelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelKind::Deadline => write!(f, "deadline exceeded"),
            CancelKind::Stopped => write!(f, "stopped by caller"),
            CancelKind::IoBudget => write!(f, "I/O budget exhausted"),
        }
    }
}

/// A shared, clonable stop signal. Raise it once with
/// [`CancelFlag::stop`] and every [`Budget`] carrying a clone observes
/// it on its next check.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a traversal may spend before it must stop: a deadline, a stop
/// flag and a logical-I/O allowance, each optional. See the module
/// docs. `Budget::default()` (= [`Budget::none`]) never expires.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    flag: Option<CancelFlag>,
    io_limit: Option<u64>,
}

/// The name the pre-anytime cancellation APIs use for a [`Budget`].
pub type CancelToken = Budget;

impl Budget {
    /// A budget that never expires (the default for every in-process
    /// query API).
    pub fn none() -> Self {
        Self::default()
    }

    /// A budget expiring once the monotonic clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget::none().deadline(deadline)
    }

    /// A budget observing an external stop flag.
    pub fn with_flag(flag: &CancelFlag) -> Self {
        Budget::none().flag(flag)
    }

    /// A budget allowing at most `limit` charged logical node accesses.
    /// A limit of 0 expires before the first access: the query returns
    /// an empty bounded answer without touching the tree.
    pub fn with_io_limit(limit: u64) -> Self {
        Budget::none().io_limit(limit)
    }

    /// Adds (or replaces) a deadline on this budget.
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds (or replaces) a stop flag on this budget.
    #[must_use]
    pub fn flag(mut self, flag: &CancelFlag) -> Self {
        self.flag = Some(flag.clone());
        self
    }

    /// Adds (or replaces) a logical-I/O allowance on this budget.
    #[must_use]
    pub fn io_limit(mut self, limit: u64) -> Self {
        self.io_limit = Some(limit);
        self
    }

    /// Whether the budget can ever expire (false for [`Budget::none`]).
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.flag.is_some() || self.io_limit.is_some()
    }

    /// The armed deadline, if any.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// The armed logical-I/O allowance, if any.
    pub fn io_allowance(&self) -> Option<u64> {
        self.io_limit
    }

    /// Checks the budget: `Some(kind)` when the traversal should stop.
    /// `io_spent` reports the logical accesses charged so far; it is a
    /// closure so an unbudgeted check never pays for the tally read.
    /// The stop flag wins over both resource limits (a stop is an
    /// explicit instruction); the I/O check precedes the deadline
    /// because it costs one integer compare versus a clock read.
    #[inline]
    pub fn exceeded<F: FnOnce() -> u64>(&self, io_spent: F) -> Option<CancelKind> {
        if let Some(flag) = &self.flag {
            if flag.is_stopped() {
                return Some(CancelKind::Stopped);
            }
        }
        if let Some(limit) = self.io_limit {
            if io_spent() >= limit {
                return Some(CancelKind::IoBudget);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(CancelKind::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_budget_never_expires_and_never_reads_the_tally() {
        let b = Budget::none();
        assert!(!b.is_armed());
        assert_eq!(b.exceeded(|| panic!("tally read without an I/O limit")), None);
    }

    #[test]
    fn deadline_fires_once_passed() {
        let b = Budget::with_deadline(Instant::now() + Duration::from_secs(600));
        assert!(b.is_armed());
        assert!(b.deadline_at().is_some());
        assert_eq!(b.io_allowance(), None);
        assert_eq!(b.exceeded(|| 0), None);
        let b = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.exceeded(|| 0), Some(CancelKind::Deadline));
    }

    #[test]
    fn flag_fires_for_every_clone_and_wins_over_deadline() {
        let flag = CancelFlag::new();
        let b1 = Budget::with_flag(&flag);
        let b2 = b1.clone().deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b1.exceeded(|| 0), None);
        flag.stop();
        assert_eq!(b1.exceeded(|| 0), Some(CancelKind::Stopped));
        // Both armed and fired: the explicit stop wins.
        assert_eq!(b2.exceeded(|| 0), Some(CancelKind::Stopped));
    }

    #[test]
    fn kinds_render() {
        assert!(CancelKind::Deadline.to_string().contains("deadline"));
        assert!(CancelKind::Stopped.to_string().contains("stopped"));
        assert!(CancelKind::IoBudget.to_string().contains("budget"));
    }

    #[test]
    fn io_budget_trips_at_the_limit() {
        let b = Budget::with_io_limit(10);
        assert!(b.is_armed());
        assert_eq!(b.io_allowance(), Some(10));
        assert_eq!(b.exceeded(|| 9), None);
        assert_eq!(b.exceeded(|| 10), Some(CancelKind::IoBudget));
        // A zero allowance expires before the first access.
        assert_eq!(
            Budget::with_io_limit(0).exceeded(|| 0),
            Some(CancelKind::IoBudget)
        );
    }

    #[test]
    fn budget_composes_all_three_limits_with_flag_priority() {
        let flag = CancelFlag::new();
        let b = Budget::with_io_limit(5)
            .deadline(Instant::now() - Duration::from_millis(1))
            .flag(&flag);
        // Deadline already passed but the I/O check comes first.
        assert_eq!(b.exceeded(|| 5), Some(CancelKind::IoBudget));
        assert_eq!(b.exceeded(|| 0), Some(CancelKind::Deadline));
        flag.stop();
        assert_eq!(b.exceeded(|| 5), Some(CancelKind::Stopped));
    }
}
