//! Query descriptions and validation.

use crate::DistanceMeasure;
use nwc_geom::{window::WindowSpec, Point};
use nwc_rtree::DiskReadError;
use std::fmt;

/// A malformed query, or a query whose evaluation over a disk-backed
/// index hit an unrecoverable disk read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// `n` (or `k`) was zero.
    ZeroCount(&'static str),
    /// The query location is NaN/infinite.
    NonFiniteLocation,
    /// kNWC overlap bound `m` is at least `n`, which makes "distinct
    /// groups" meaningless (any group duplicates are allowed).
    OverlapBoundTooLarge {
        /// Requested overlap bound.
        m: usize,
        /// Group size.
        n: usize,
    },
    /// A page read failed (and exhausted its retry budget) while the
    /// search was running over a disk-backed index. The index remains
    /// usable — the failing page is quarantined, every pin taken by the
    /// search has been released — but this query has no answer.
    Io(DiskReadError),
    /// The query's deadline passed mid-search (cooperative cancellation
    /// via a [`Budget`](nwc_rtree::Budget)). The index and the
    /// calling thread remain fully usable: every pin is released and no
    /// state is torn down — the query simply has no answer.
    Deadline,
    /// The query was stopped by an external
    /// [`CancelFlag`](nwc_rtree::CancelFlag) (client disconnect, load
    /// shed mid-batch, server drain). Same guarantees as
    /// [`QueryError::Deadline`].
    Cancelled,
    /// An approximation factor `ε` was NaN, infinite, or negative
    /// (rejected by [`Approx::new`](crate::Approx::new) and by the wire
    /// protocol at decode time).
    InvalidEpsilon,
    /// The worker thread running this query (or one shard of it)
    /// panicked before returning an answer. The batch and the index
    /// remain usable; the other queries keep their answers.
    WorkerPanicked,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ZeroCount(what) => write!(f, "{what} must be at least 1"),
            QueryError::NonFiniteLocation => write!(f, "query location must be finite"),
            QueryError::OverlapBoundTooLarge { m, n } => {
                write!(f, "overlap bound m = {m} must be smaller than group size n = {n}")
            }
            QueryError::Io(e) => write!(f, "disk read failed during search: {e}"),
            QueryError::Deadline => write!(f, "query deadline exceeded during search"),
            QueryError::Cancelled => write!(f, "query cancelled by caller"),
            QueryError::InvalidEpsilon => {
                write!(f, "approximation factor must be finite and non-negative")
            }
            QueryError::WorkerPanicked => write!(f, "a query worker panicked before answering"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<nwc_rtree::TreeError> for QueryError {
    fn from(e: nwc_rtree::TreeError) -> Self {
        match e {
            nwc_rtree::TreeError::Io(e) => QueryError::Io(e),
            nwc_rtree::TreeError::Cancelled(nwc_rtree::CancelKind::Deadline) => {
                QueryError::Deadline
            }
            nwc_rtree::TreeError::Cancelled(nwc_rtree::CancelKind::Stopped) => {
                QueryError::Cancelled
            }
            // The search loop turns budget trips into partial outcomes
            // before they become errors; should one surface here anyway,
            // "I/O allowance spent" is closest to a spent deadline.
            nwc_rtree::TreeError::Cancelled(nwc_rtree::CancelKind::IoBudget) => {
                QueryError::Deadline
            }
            // The search path never mutates; a ReadOnly refusal cannot
            // reach a query. Map it to its page-less Io shape rather
            // than panicking so the conversion stays total.
            other => QueryError::Io(DiskReadError {
                page: u32::MAX,
                detail: other.to_string(),
            }),
        }
    }
}

/// An `NWC(q, l, w, n)` query (paper Definition 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NwcQuery {
    /// The query location `q`.
    pub q: Point,
    /// The window dimensions `l × w`.
    pub spec: WindowSpec,
    /// The number of objects to retrieve, `n`.
    pub n: usize,
    /// The distance measure scoring object groups (default
    /// [`DistanceMeasure::Max`]).
    pub measure: DistanceMeasure,
}

impl NwcQuery {
    /// Creates a query with the default distance measure. It is not
    /// checked here: a search rejects `n == 0` or a non-finite `q` with
    /// a typed [`QueryError`] ([`NwcQuery::try_new`] checks at once).
    pub fn new(q: Point, spec: WindowSpec, n: usize) -> Self {
        NwcQuery {
            q,
            spec,
            n,
            measure: DistanceMeasure::default(),
        }
    }

    /// Fallible constructor with an explicit measure.
    pub fn try_new(
        q: Point,
        spec: WindowSpec,
        n: usize,
        measure: DistanceMeasure,
    ) -> Result<Self, QueryError> {
        let query = NwcQuery { q, spec, n, measure };
        query.validate()?;
        Ok(query)
    }

    /// Checks `n ≥ 1` and a finite `q`. The fields are public and
    /// [`NwcQuery::new`] does not check, so every query entry point
    /// re-checks with this.
    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        if self.n == 0 {
            return Err(QueryError::ZeroCount("n"));
        }
        if !self.q.is_finite() {
            return Err(QueryError::NonFiniteLocation);
        }
        Ok(())
    }

    /// Returns a copy using `measure` instead of the default.
    pub fn with_measure(mut self, measure: DistanceMeasure) -> Self {
        self.measure = measure;
        self
    }
}

/// A `kNWC(k, q, l, w, n, m)` query (paper Definition 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KnwcQuery {
    /// The underlying NWC parameters.
    pub base: NwcQuery,
    /// Number of object groups to retrieve.
    pub k: usize,
    /// Maximum number of identical objects allowed between any two
    /// returned groups.
    pub m: usize,
}

impl KnwcQuery {
    /// Creates a kNWC query, unchecked like [`NwcQuery::new`]: a search
    /// rejects invalid parameters with a typed [`QueryError`]
    /// ([`KnwcQuery::try_new`] checks at once).
    pub fn new(q: Point, spec: WindowSpec, n: usize, k: usize, m: usize) -> Self {
        KnwcQuery {
            base: NwcQuery::new(q, spec, n),
            k,
            m,
        }
    }

    /// Fallible constructor with an explicit measure.
    pub fn try_new(
        q: Point,
        spec: WindowSpec,
        n: usize,
        k: usize,
        m: usize,
        measure: DistanceMeasure,
    ) -> Result<Self, QueryError> {
        let query = KnwcQuery {
            base: NwcQuery::new(q, spec, n).with_measure(measure),
            k,
            m,
        };
        query.validate()?;
        Ok(query)
    }

    /// Checks the base query, `k ≥ 1` and `m < n`. The fields are
    /// public and [`KnwcQuery::new`] does not check, so every kNWC entry
    /// point re-checks with this and returns the same errors.
    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        self.base.validate()?;
        if self.k == 0 {
            return Err(QueryError::ZeroCount("k"));
        }
        if self.m >= self.base.n {
            return Err(QueryError::OverlapBoundTooLarge {
                m: self.m,
                n: self.base.n,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    #[test]
    fn valid_query() {
        let q = NwcQuery::new(pt(1.0, 2.0), WindowSpec::square(8.0), 8);
        assert_eq!(q.n, 8);
        assert_eq!(q.measure, DistanceMeasure::Max);
        let q2 = q.with_measure(DistanceMeasure::Avg);
        assert_eq!(q2.measure, DistanceMeasure::Avg);
    }

    #[test]
    fn zero_n_rejected() {
        let e = NwcQuery::try_new(pt(0.0, 0.0), WindowSpec::square(1.0), 0, DistanceMeasure::Max);
        assert_eq!(e.unwrap_err(), QueryError::ZeroCount("n"));
    }

    #[test]
    fn non_finite_location_rejected() {
        let e = NwcQuery::try_new(
            pt(f64::NAN, 0.0),
            WindowSpec::square(1.0),
            1,
            DistanceMeasure::Max,
        );
        assert_eq!(e.unwrap_err(), QueryError::NonFiniteLocation);
    }

    #[test]
    fn knwc_overlap_bound() {
        let e = KnwcQuery::try_new(
            pt(0.0, 0.0),
            WindowSpec::square(1.0),
            4,
            2,
            4,
            DistanceMeasure::Max,
        );
        assert!(matches!(
            e.unwrap_err(),
            QueryError::OverlapBoundTooLarge { m: 4, n: 4 }
        ));
        assert!(KnwcQuery::try_new(
            pt(0.0, 0.0),
            WindowSpec::square(1.0),
            4,
            2,
            3,
            DistanceMeasure::Max
        )
        .is_ok());
    }

    #[test]
    fn error_messages_render() {
        assert!(QueryError::ZeroCount("n").to_string().contains('n'));
        assert!(QueryError::NonFiniteLocation.to_string().contains("finite"));
        assert!(QueryError::OverlapBoundTooLarge { m: 5, n: 4 }
            .to_string()
            .contains("m = 5"));
    }
}
