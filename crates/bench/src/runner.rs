//! Measurement helpers: build indexes and average I/O and wall-clock
//! time over query sets.

use nwc_core::{
    IndexConfig, KnwcQuery, NwcIndex, NwcQuery, QueryScratch, Scheme, SearchStats, WindowSpec,
};
use nwc_datagen::Dataset;
use nwc_geom::Point;
use nwc_grid::PAPER_GRID_CELL;
use std::time::Instant;

/// Builds the full index (tree + the paper's 25-unit grid) for a
/// dataset.
pub fn build_index(ds: &Dataset) -> NwcIndex {
    NwcIndex::build_with(
        ds.points.clone(),
        IndexConfig {
            grid_cell_size: Some(PAPER_GRID_CELL),
            ..Default::default()
        },
    )
}

/// Aggregated measurement over a query set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measurement {
    /// Mean node accesses per query (the paper's reported metric).
    pub avg_io: f64,
    /// Mean traversal node accesses.
    pub avg_io_traversal: f64,
    /// Mean window-query node accesses.
    pub avg_io_windows: f64,
    /// Fraction of queries that found a result.
    pub hit_rate: f64,
    /// Mean window queries issued.
    pub avg_window_queries: f64,
    /// Mean wall-clock latency per query, microseconds.
    pub avg_latency_us: f64,
    /// Sequential throughput: queries / wall-clock second.
    pub queries_per_sec: f64,
}

impl Measurement {
    /// Fills the wall-clock fields from a measured run.
    fn with_wall_clock(mut self, elapsed: std::time::Duration, count: usize) -> Self {
        let secs = elapsed.as_secs_f64();
        self.avg_latency_us = secs * 1e6 / count as f64;
        self.queries_per_sec = if secs > 0.0 { count as f64 / secs } else { 0.0 };
        self
    }
}

/// Runs `NWC(q, spec, n)` for every query point and averages the stats.
pub fn measure_nwc(
    index: &NwcIndex,
    queries: &[Point],
    spec: WindowSpec,
    n: usize,
    scheme: Scheme,
) -> Measurement {
    let mut acc = SearchStats::default();
    let mut hits = 0usize;
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for &q in queries {
        let query = NwcQuery::new(q, spec, n);
        let (result, stats) = index.nwc_full_with(&query, scheme, &mut scratch);
        acc.accumulate(&stats);
        hits += usize::from(result.is_some());
    }
    let elapsed = start.elapsed();
    let count = queries.len() as f64;
    Measurement {
        avg_io: acc.io_total as f64 / count,
        avg_io_traversal: acc.io_traversal as f64 / count,
        avg_io_windows: acc.io_window_queries as f64 / count,
        hit_rate: hits as f64 / count,
        avg_window_queries: acc.window_queries as f64 / count,
        ..Default::default()
    }
    .with_wall_clock(elapsed, queries.len())
}

/// Runs `kNWC` for every query point and averages the I/O.
pub fn measure_knwc(
    index: &NwcIndex,
    queries: &[Point],
    spec: WindowSpec,
    n: usize,
    k: usize,
    m: usize,
    scheme: Scheme,
) -> Measurement {
    let mut acc = SearchStats::default();
    let mut hits = 0usize;
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for &q in queries {
        let query = KnwcQuery::new(q, spec, n, k, m);
        let r = index.knwc_with(&query, scheme, &mut scratch);
        acc.accumulate(&r.stats);
        hits += usize::from(!r.groups.is_empty());
    }
    let elapsed = start.elapsed();
    let count = queries.len() as f64;
    Measurement {
        avg_io: acc.io_total as f64 / count,
        avg_io_traversal: acc.io_traversal as f64 / count,
        avg_io_windows: acc.io_window_queries as f64 / count,
        hit_rate: hits as f64 / count,
        avg_window_queries: acc.window_queries as f64 / count,
        ..Default::default()
    }
    .with_wall_clock(elapsed, queries.len())
}

/// `1 − opt/base` as a percentage string, the paper's "I/O cost
/// reduction rate".
pub fn reduction_rate(base: f64, optimized: f64) -> String {
    if base <= 0.0 {
        return "-".into();
    }
    format!("{:.1}%", (1.0 - optimized / base) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_rate_formats() {
        assert_eq!(reduction_rate(100.0, 25.0), "75.0%");
        assert_eq!(reduction_rate(0.0, 10.0), "-");
    }

    #[test]
    fn measure_smoke() {
        let ds = Dataset::clustered(2_000, 10, 10.0, 50.0, 0.1, 1);
        let index = build_index(&ds);
        let queries = Dataset::query_points(3, 1);
        let m = measure_nwc(&index, &queries, WindowSpec::square(100.0), 4, Scheme::NWC_STAR);
        assert!(m.avg_io > 0.0);
        assert!(m.hit_rate > 0.0);
        assert!((m.avg_io - m.avg_io_traversal - m.avg_io_windows).abs() < 1e-9);
        assert!(m.avg_latency_us > 0.0);
        assert!(m.queries_per_sec > 0.0);
    }
}
