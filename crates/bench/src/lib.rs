//! Experiment harness reproducing every table and figure of the NWC
//! paper's evaluation (§5), shared by the `experiments` binary and the
//! Criterion benchmarks.
//!
//! The paper's metric is I/O cost — R\*-tree node accesses — averaged
//! over 25 random queries. Dataset cardinalities default to a fraction
//! of the paper's (`NWC_SCALE`, default 0.2) so the full suite runs in
//! minutes; the shapes under study are scale-invariant because all
//! datasets scale together. Set `NWC_SCALE=1.0` for the paper's exact
//! cardinalities.

#![forbid(unsafe_code)]

pub mod context;
pub mod figures;
pub mod runner;
pub mod table;

pub use context::ExperimentContext;
pub use table::Table;
