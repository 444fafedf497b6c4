//! End-to-end integration tests on realistic (scaled) datasets: scheme
//! agreement, I/O orderings the paper's evaluation depends on, and
//! storage accounting.

use nwc::core::{DiskIndexConfig, IndexConfig, SearchStats};
use nwc::datagen::CA_CARDINALITY;
use nwc::grid::{MAX_REFINE, PAPER_GRID_CELL};
use nwc::prelude::*;

fn trio() -> Vec<Dataset> {
    Dataset::paper_trio_scaled(4_000, 6_000, 5_000, 1234)
}

fn avg_io(index: &NwcIndex, queries: &[Point], spec: WindowSpec, n: usize, scheme: Scheme) -> f64 {
    let mut acc = SearchStats::default();
    for &q in queries {
        let query = NwcQuery::new(q, spec, n);
        let (_, stats) = index.nwc_full(&query, scheme);
        acc.accumulate(&stats);
    }
    acc.io_total as f64 / queries.len() as f64
}

#[test]
fn all_schemes_agree_on_real_shaped_data() {
    let queries = Dataset::query_points(5, 99);
    for ds in trio() {
        let index = NwcIndex::build(ds.points.clone());
        for &q in &queries {
            let query = NwcQuery::new(q, WindowSpec::square(64.0), 8);
            let reference = index.nwc(&query, Scheme::NWC).map(|r| r.distance);
            for scheme in &Scheme::TABLE3[1..] {
                let got = index.nwc(&query, *scheme).map(|r| r.distance);
                match (reference, got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-9, "{}: {scheme} {b} vs NWC {a}", ds.name)
                    }
                    (a, b) => panic!("{}: {scheme} {b:?} vs NWC {a:?}", ds.name),
                }
            }
        }
    }
}

#[test]
fn optimizations_beat_baseline_on_average() {
    let queries = Dataset::query_points(8, 7);
    for ds in trio() {
        let index = NwcIndex::build(ds.points.clone());
        // Large enough that even the scaled Gaussian dataset has
        // qualified windows — with none, SRR/DIP degenerate to the
        // baseline by design (paper §5.3).
        let spec = WindowSpec::square(256.0);
        let base = avg_io(&index, &queries, spec, 8, Scheme::NWC);
        let plus = avg_io(&index, &queries, spec, 8, Scheme::NWC_PLUS);
        let star = avg_io(&index, &queries, spec, 8, Scheme::NWC_STAR);
        assert!(plus < base, "{}: NWC+ {plus} !< NWC {base}", ds.name);
        assert!(star < base, "{}: NWC* {star} !< NWC {base}", ds.name);
        assert!(star <= plus * 1.05, "{}: NWC* {star} should be ≈≤ NWC+ {plus}", ds.name);
    }
}

#[test]
fn refined_default_grid_cuts_window_queries_with_the_same_answers() {
    // The library default is the 12.5 dense grid with each occupied cell
    // refined by 3; the refined level only adds the search-region bound,
    // so it may cancel more window queries but never change an answer.
    let ca = Dataset::paper_trio_scaled(CA_CARDINALITY / 20, 100, 100, 2016).swap_remove(0);
    assert_eq!(ca.points.len(), 3_127);
    let refined = NwcIndex::build(ca.points.clone());
    let dense = NwcIndex::build_with(
        ca.points.clone(),
        IndexConfig {
            grid_cell_size: Some(12.5),
            ..IndexConfig::default()
        },
    );
    let shape = |index: &NwcIndex| index.grid().map(|g| (g.cells_per_side(), g.refinement()));
    assert_eq!(shape(&refined), Some((800, 3)));
    assert_eq!(shape(&dense), Some((800, 1)));
    let (mut with_refined, mut without) = (SearchStats::default(), SearchStats::default());
    for q in Dataset::query_points(25, 2016) {
        let query = NwcQuery::new(q, WindowSpec::square(200.0), 8);
        let (a, a_stats) = refined.nwc_full(&query, Scheme::NWC_STAR);
        let (b, b_stats) = dense.nwc_full(&query, Scheme::NWC_STAR);
        let key = |r: Option<NwcResult>| r.map(|r| (r.objects, r.distance.to_bits()));
        assert_eq!(key(a), key(b), "query at {q:?}");
        with_refined.accumulate(&a_stats);
        without.accumulate(&b_stats);
    }
    assert!(
        with_refined.window_queries < without.window_queries,
        "window queries: refined {} vs dense {}",
        with_refined.window_queries,
        without.window_queries
    );
    assert!(with_refined.io_total <= without.io_total);
}

#[test]
fn every_grid_cell_size_builds_a_bounded_grid_or_none() {
    // 0.01 asks for a 10⁶ × 10⁶ grid: it is clamped to the finest
    // refinement. Zero, negative and non-finite cells build no grid, so
    // DEP is skipped as for `None`. Either way the answers are the same.
    let points = Dataset::paper_trio_scaled(1_500, 100, 100, 7).swap_remove(0).points;
    let no_grid = IndexConfig {
        grid_cell_size: None,
        ..IndexConfig::default()
    };
    let reference = NwcIndex::build_with(points.clone(), no_grid);
    let path = std::env::temp_dir().join(format!("nwc-grid-cells-{}.nwc", std::process::id()));
    reference.save_tree(&path).expect("save page file");
    let queries: Vec<NwcQuery> = Dataset::query_points(6, 7)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(64.0), 8))
        .collect();
    let key = |r: Option<NwcResult>| r.map(|r| (r.objects, r.distance.to_bits()));
    for cell in [0.01, 0.0, -25.0, f64::NAN, f64::INFINITY] {
        let config = IndexConfig {
            grid_cell_size: Some(cell),
            ..IndexConfig::default()
        };
        let arena = NwcIndex::build_with(points.clone(), config);
        let disk_config = DiskIndexConfig {
            grid_cell_size: Some(cell),
            ..DiskIndexConfig::default()
        };
        let disk = NwcIndex::open_disk(&path, disk_config).expect("open page file");
        let sharded = ShardedNwcIndex::build_with(points.clone(), 3, config).with_threads(1);
        let expected = (cell == 0.01).then_some((800, MAX_REFINE));
        let shape = |grid: Option<&nwc::grid::DensityGrid>| {
            grid.map(|g| (g.cells_per_side(), g.refinement()))
        };
        assert_eq!(shape(arena.grid()), expected, "cell {cell}");
        assert_eq!(shape(disk.grid()), expected, "cell {cell}");
        assert_eq!(shape(sharded.grid()), expected, "cell {cell}");
        for query in &queries {
            let want = key(reference.nwc(query, Scheme::NWC_STAR));
            assert_eq!(key(arena.nwc(query, Scheme::NWC_STAR)), want);
            assert_eq!(key(disk.nwc(query, Scheme::NWC_STAR)), want);
            let scattered = sharded.try_nwc_full(query, Scheme::NWC_STAR).expect("arena scatter");
            assert_eq!(key(scattered.0), want);
        }
    }
    std::fs::remove_file(&path).expect("remove page file");
}

#[test]
fn baseline_io_is_insensitive_to_n() {
    // Figure 11's flat baseline: NWC visits every object regardless of n.
    let ds = &trio()[0];
    let index = NwcIndex::build(ds.points.clone());
    let queries = Dataset::query_points(4, 5);
    let spec = WindowSpec::square(16.0);
    let io8 = avg_io(&index, &queries, spec, 8, Scheme::NWC);
    let io64 = avg_io(&index, &queries, spec, 64, Scheme::NWC);
    let ratio = io64 / io8;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "baseline should be ~flat in n: {io8} vs {io64}"
    );
}

#[test]
fn dep_is_stronger_on_uniformish_data_than_clustered() {
    // §5.2: "DEP performs well in nearly uniformly distributed datasets,
    // but achieves relatively poor performance when the object
    // distribution is highly clustered."
    let sets = trio();
    let queries = Dataset::query_points(8, 21);
    let spec = WindowSpec::square(64.0);
    let reduction = |ds: &Dataset| {
        let index = NwcIndex::build(ds.points.clone());
        let base = avg_io(&index, &queries, spec, 8, Scheme::NWC);
        let dep = avg_io(&index, &queries, spec, 8, Scheme::DEP);
        1.0 - dep / base
    };
    let ny = reduction(&sets[1]); // highly clustered
    let gauss = reduction(&sets[2]); // near-uniform hump
    assert!(
        gauss > ny,
        "DEP reduction on Gaussian ({gauss:.2}) should exceed NY ({ny:.2})"
    );
}

#[test]
fn storage_overheads_are_reported() {
    let ds = Dataset::gaussian(20_000, 5_000.0, 2_000.0, 3);
    let index = NwcIndex::build_with(
        ds.points.clone(),
        IndexConfig {
            grid_cell_size: Some(PAPER_GRID_CELL),
            ..Default::default()
        },
    );
    // DEP grid: paper reports ~312 KB (2 bytes per cell) for the
    // 400×400 grid; the two-level grid's heap footprint stays below it.
    let grid = index.grid().expect("grid built by default");
    assert_eq!(grid.cell_count(), 160_000);
    assert!(grid.bytes() <= 320_000, "grid heap {} B", grid.bytes());
    // IWP builds no pointers (DESIGN.md §4m): the grid is the only
    // auxiliary structure.
}

#[test]
fn knwc_runs_on_scaled_paper_datasets() {
    use nwc::core::KnwcQuery;
    for ds in &trio()[..2] {
        // CA and NY, as in Figures 13–14.
        let index = NwcIndex::build(ds.points.clone());
        for &q in &Dataset::query_points(3, 17) {
            let query = KnwcQuery::new(q, WindowSpec::square(64.0), 8, 4, 4);
            let plus = index.knwc(&query, Scheme::NWC_PLUS);
            let star = index.knwc(&query, Scheme::NWC_STAR);
            assert_eq!(plus.groups.len(), star.groups.len(), "{}", ds.name);
            for (a, b) in plus.groups.iter().zip(&star.groups) {
                assert!((a.distance - b.distance).abs() < 1e-9, "{}", ds.name);
            }
            assert!(star.stats.io_total <= plus.stats.io_total, "{}", ds.name);
        }
    }
}

#[test]
fn distance_measures_are_ordered() {
    // For any query and group: min ≤ avg ≤ max, nearest-window ≤ min.
    use nwc::core::DistanceMeasure;
    let ds = &trio()[0];
    let index = NwcIndex::build(ds.points.clone());
    for &q in &Dataset::query_points(5, 41) {
        let spec = WindowSpec::square(64.0);
        let score = |m: DistanceMeasure| {
            index
                .nwc(&NwcQuery::new(q, spec, 8).with_measure(m), Scheme::NWC_STAR)
                .map(|r| r.distance)
        };
        if let (Some(min), Some(avg), Some(max), Some(nw)) = (
            score(DistanceMeasure::Min),
            score(DistanceMeasure::Avg),
            score(DistanceMeasure::Max),
            score(DistanceMeasure::NearestWindow),
        ) {
            // Each is the optimum under its own measure, so the optimal
            // min ≤ optimal avg ≤ optimal max, and the nearest-window
            // optimum lower-bounds the min optimum.
            assert!(min <= avg + 1e-9, "min {min} > avg {avg}");
            assert!(avg <= max + 1e-9, "avg {avg} > max {max}");
            assert!(nw <= min + 1e-9, "nearest-window {nw} > min {min}");
        }
    }
}
