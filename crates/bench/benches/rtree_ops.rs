//! Micro-benchmarks of the R\*-tree substrate: construction strategies,
//! window queries (plain vs through a node memo), and distance browsing.
//! These back the ablation entries in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nwc_datagen::Dataset;
use nwc_geom::{Point, Rect};
use nwc_rtree::{NodeMemo, RStarTree};
use std::time::Duration;

fn data(n: usize) -> Vec<Point> {
    Dataset::clustered(n, 40, 10.0, 80.0, 0.1, 7).points
}

fn construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    for n in [2_000usize, 8_000] {
        let pts = data(n);
        g.bench_with_input(BenchmarkId::new("str_bulk_load", n), &pts, |b, pts| {
            b.iter(|| RStarTree::bulk_load(pts))
        });
        g.bench_with_input(BenchmarkId::new("rstar_insert", n), &pts, |b, pts| {
            b.iter(|| RStarTree::insert_all(pts))
        });
    }
    g.finish();
}

fn window_queries(c: &mut Criterion) {
    let pts = data(10_000);
    let tree = RStarTree::bulk_load(&pts);
    // Representative local window around each probe object (the NWC
    // access pattern: nearby probes share most of their descent).
    let probes: Vec<Point> = (0..64).map(|i| pts[i * 311 % pts.len()]).collect();
    let window_of = |p: &Point| {
        Rect::new(
            Point::new(p.x - 8.0, p.y - 8.0),
            Point::new(p.x + 8.0, p.y + 8.0),
        )
    };

    let mut g = c.benchmark_group("window_query");
    g.bench_function("plain_root_descent", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for p in &probes {
                total += tree.window_query(&window_of(p)).len();
            }
            total
        })
    });
    // The 64 probes as one search: every descent goes through the same
    // node memo, cleared once per iteration.
    let mut memo = NodeMemo::new();
    let mut out = Vec::new();
    g.bench_function("memoised_root_descent", |b| {
        b.iter(|| {
            memo.clear();
            let mut total = 0usize;
            for p in &probes {
                out.clear();
                tree.try_window_query_memo_into(&window_of(p), &mut memo, &mut out)
                    .expect("arena reads cannot fail");
                total += out.len();
            }
            total
        })
    });
    g.finish();
}

fn distance_browsing(c: &mut Criterion) {
    let pts = data(10_000);
    let tree = RStarTree::bulk_load(&pts);
    let mut g = c.benchmark_group("distance_browsing");
    for k in [10usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("knn", k), &k, |b, &k| {
            b.iter(|| tree.knn(Point::new(5_000.0, 5_000.0), k))
        });
    }
    g.bench_function("full_browse", |b| {
        b.iter(|| tree.browse(Point::new(5_000.0, 5_000.0)).objects().count())
    });
    g.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .without_plots()
        .nresamples(1_000)
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! {
    name = rtree;
    config = fast_config();
    targets = construction, window_queries, distance_browsing
}
criterion_main!(rtree);
