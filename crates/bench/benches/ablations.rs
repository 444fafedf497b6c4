//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! distance measures, grid resolution, and per-optimization deltas on
//! top of NWC+.

use criterion::{criterion_group, criterion_main, Criterion};
use nwc_bench::runner::{build_index, measure_nwc, search};
use nwc_bench::ExperimentContext;
use nwc_core::{DistanceMeasure, NwcQuery, QueryScratch, Scheme, SearchRequest, WindowSpec};
use std::time::Duration;

fn quick<'a>(c: &'a mut Criterion, name: &str) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    c.benchmark_group(name)
}

fn fast_config() -> Criterion {
    Criterion::default()
        .without_plots()
        .nresamples(1_000)
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
}


fn ablation_distance_measure(c: &mut Criterion) {
    let ctx = ExperimentContext::tiny();
    let ds = ctx.dataset("CA");
    let index = build_index(&ds);
    let queries = ctx.query_points();
    let mut g = quick(c, "ablation_distance_measure");
    let mut scratch = QueryScratch::new();
    for measure in DistanceMeasure::ALL {
        g.bench_function(format!("{measure:?}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    let query = NwcQuery::new(q, WindowSpec::square(64.0), 8)
                        .with_measure(measure);
                    search(&index, &SearchRequest::nwc(query, Scheme::NWC_STAR), &mut scratch);
                }
            })
        });
    }
    g.finish();
}

fn ablation_grid_resolution(c: &mut Criterion) {
    let ctx = ExperimentContext::tiny();
    let ds = ctx.dataset("Gaussian");
    let queries = ctx.query_points();
    let mut g = quick(c, "ablation_grid_resolution");
    for cell in [25.0, 400.0] {
        let mut index = build_index(&ds);
        index.rebuild_grid(cell);
        g.bench_function(format!("cell{}", cell as u64), |b| {
            b.iter(|| measure_nwc(&index, &queries, WindowSpec::square(8.0), 8, Scheme::DEP))
        });
    }
    g.finish();
}

fn ablation_scheme_increments(c: &mut Criterion) {
    // Each technique added on top of NWC+, isolating its marginal value.
    let ctx = ExperimentContext::tiny();
    let ds = ctx.dataset("NY");
    let index = build_index(&ds);
    let queries = ctx.query_points();
    let mut g = quick(c, "ablation_scheme_increments");
    let variants = [
        ("nwc_plus", Scheme::NWC_PLUS),
        (
            "nwc_plus_dep",
            Scheme {
                dep: true,
                ..Scheme::NWC_PLUS
            },
        ),
        (
            "nwc_plus_iwp",
            Scheme {
                iwp: true,
                ..Scheme::NWC_PLUS
            },
        ),
        ("nwc_star", Scheme::NWC_STAR),
    ];
    for (label, scheme) in variants {
        g.bench_function(label, |b| {
            b.iter(|| measure_nwc(&index, &queries, WindowSpec::square(8.0), 8, scheme))
        });
    }
    g.finish();
}

criterion_group!{
    name = ablations;
    config = fast_config();
    targets =
    ablation_distance_measure,
    ablation_grid_resolution,
    ablation_scheme_increments

}
criterion_main!(ablations);
