//! One generator per table/figure of the paper's evaluation (§5).
//!
//! Each function returns markdown [`Table`]s with the same rows/series
//! the paper plots. Absolute values differ from the paper (different
//! hardware-free I/O accounting, synthetic stand-ins for the CA/NY
//! datasets, scaled cardinalities) but the comparative *shapes* are the
//! reproduction target; `EXPERIMENTS.md` records both.

use crate::context::ExperimentContext;
use crate::runner::{build_index, measure_knwc, measure_nwc, reduction_rate, search};
use crate::table::Table;
use nwc_analysis::{NwcCostModel, TreeModel};
use nwc_core::{IndexConfig, NwcIndex, QueryScratch, Scheme, SearchRequest, WindowSpec};
use nwc_datagen::Dataset;
use nwc_grid::PAPER_GRID_CELL;

/// Default query parameters from §5: `n = 8`, window `8 × 8`.
pub const DEFAULT_N: usize = 8;
/// See [`DEFAULT_N`].
pub const DEFAULT_WINDOW: f64 = 8.0;

fn eprint_progress(what: &str) {
    eprintln!("[experiments] {what}");
}

/// Table 2: dataset descriptions.
pub fn table2(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Table 2",
        format!(
            "Datasets (scale {} of the paper's cardinalities)",
            ctx.scale
        ),
        vec!["Dataset", "Cardinality", "Paper cardinality", "Description"],
    );
    let rows = [
        (
            "CA",
            ctx.ca_n(),
            nwc_datagen::CA_CARDINALITY,
            "CA stand-in: corridor-clustered places (real dataset unavailable)",
        ),
        (
            "NY",
            ctx.ny_n(),
            nwc_datagen::NY_CARDINALITY,
            "NY stand-in: highly clustered places (real dataset unavailable)",
        ),
        (
            "Gaussian",
            ctx.gaussian_n(),
            nwc_datagen::GAUSSIAN_CARDINALITY,
            "Gaussian, mean 5000, sigma 2000 (paper's generator)",
        ),
    ];
    for (name, n, paper_n, desc) in rows {
        t.push_row(vec![
            name.to_string(),
            n.to_string(),
            paper_n.to_string(),
            desc.to_string(),
        ]);
    }
    t
}

/// Table 3: the scheme matrix.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3",
        "Schemes and the optimization techniques they enable",
        vec!["Scheme", "SRR", "DIP", "DEP", "IWP"],
    );
    let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
    for s in Scheme::TABLE3 {
        t.push_row(vec![s.label(), tick(s.srr), tick(s.dip), tick(s.dep), tick(s.iwp)]);
    }
    t
}

/// Figure 8: object distributions as ASCII density maps.
pub fn fig8(ctx: &ExperimentContext) -> String {
    let mut out = String::from("### Figure 8 — Distributions of the used datasets\n\n");
    for ds in ctx.datasets() {
        out.push_str(&format!("{} ({} points):\n\n```\n", ds.name, ds.len()));
        out.push_str(&ds.density_map(64, 24));
        out.push_str("```\n\n");
    }
    out
}

/// Figure 9: effect of the density-grid cell size on scheme DEP.
pub fn fig9(ctx: &ExperimentContext) -> Table {
    let cells = [25.0, 50.0, 100.0, 200.0, 400.0];
    let mut t = Table::new(
        "Figure 9",
        format!(
            "Avg I/O of scheme DEP vs grid cell size (n={DEFAULT_N}, window {DEFAULT_WINDOW})"
        ),
        std::iter::once("dataset".to_string())
            .chain(cells.iter().map(|c| format!("cell {c}")))
            .collect::<Vec<_>>(),
    );
    let queries = ctx.query_points();
    for ds in ctx.datasets() {
        eprint_progress(&format!("fig9: {}", ds.name));
        let mut index = NwcIndex::build_with(
            ds.points.clone(),
            IndexConfig {
                grid_cell_size: Some(PAPER_GRID_CELL),
                ..Default::default()
            },
        );
        let mut row = vec![ds.name.clone()];
        for &cell in &cells {
            index.rebuild_grid(cell);
            let m = measure_nwc(
                &index,
                &queries,
                WindowSpec::square(DEFAULT_WINDOW),
                DEFAULT_N,
                Scheme::DEP,
            );
            row.push(format!("{:.0}", m.avg_io));
        }
        t.push_row(row);
    }
    t
}

/// Figure 10: effect of the object distribution (Gaussian σ sweep) on
/// all seven schemes.
///
/// Uses a `64 × 64` window: with the paper's default `8 × 8` window no
/// qualified window exists anywhere in the Gaussian datasets (the
/// degenerate regime Figures 11c/12c report), which would flatten every
/// series; 64 exposes the behaviour Figure 10 describes.
pub fn fig10(ctx: &ExperimentContext) -> Table {
    let sigmas = [2000.0, 1750.0, 1500.0, 1250.0, 1000.0];
    let window = 64.0;
    let mut t = Table::new(
        "Figure 10",
        format!("Avg I/O vs Gaussian sigma (n={DEFAULT_N}, window {window})"),
        std::iter::once("scheme".to_string())
            .chain(sigmas.iter().map(|s| format!("σ={s}")))
            .collect::<Vec<_>>(),
    );
    let queries = ctx.query_points();
    // Column-major measurement (one index per σ), then transpose.
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for (i, &sigma) in sigmas.iter().enumerate() {
        eprint_progress(&format!("fig10: sigma {sigma}"));
        let ds = Dataset::gaussian(ctx.gaussian_n(), 5000.0, sigma, ctx.seed ^ (i as u64 + 1));
        let index = build_index(&ds);
        let col: Vec<f64> = Scheme::TABLE3
            .iter()
            .map(|&s| {
                measure_nwc(&index, &queries, WindowSpec::square(window), DEFAULT_N, s).avg_io
            })
            .collect();
        cols.push(col);
    }
    for (si, scheme) in Scheme::TABLE3.iter().enumerate() {
        let mut row = vec![scheme.label()];
        for col in &cols {
            row.push(format!("{:.0}", col[si]));
        }
        t.push_row(row);
    }
    t
}

/// Figures 11(a–c): effect of the number of searched objects `n`.
pub fn fig11(ctx: &ExperimentContext) -> Vec<Table> {
    sweep_schemes_per_dataset(
        ctx,
        "Figure 11",
        "Avg I/O vs n (window 8)",
        &[8, 16, 32, 64, 128],
        |&n| (WindowSpec::square(DEFAULT_WINDOW), n),
        |n| format!("n={n}"),
    )
}

/// Figures 12(a–c): effect of the window size.
pub fn fig12(ctx: &ExperimentContext) -> Vec<Table> {
    sweep_schemes_per_dataset(
        ctx,
        "Figure 12",
        "Avg I/O vs window size (n=8)",
        &[8, 16, 32, 64, 128],
        |&w| (WindowSpec::square(w as f64), DEFAULT_N),
        |w| format!("w={w}"),
    )
}

/// Shared sweep: for each dataset, rows = schemes, columns = sweep
/// values. Datasets are measured on parallel threads.
fn sweep_schemes_per_dataset<T: Sync + std::fmt::Display>(
    ctx: &ExperimentContext,
    id_prefix: &str,
    caption: &str,
    values: &[T],
    to_query: impl Fn(&T) -> (WindowSpec, usize) + Sync,
    col_label: impl Fn(&T) -> String,
) -> Vec<Table> {
    let queries = ctx.query_points();
    let datasets = ctx.datasets();
    let mut results: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let queries = &queries;
                let to_query = &to_query;
                scope.spawn(move || {
                    eprint_progress(&format!("{id_prefix}: {}", ds.name));
                    let index = build_index(ds);
                    let cols: Vec<Vec<f64>> = values
                        .iter()
                        .map(|v| {
                            let (spec, n) = to_query(v);
                            Scheme::TABLE3
                                .iter()
                                .map(|&s| measure_nwc(&index, queries, spec, n, s).avg_io)
                                .collect()
                        })
                        .collect();
                    (ds.name.clone(), cols)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("experiment thread panicked"));
        }
    });

    let letters = ["a", "b", "c", "d", "e", "f"];
    results
        .iter()
        .enumerate()
        .map(|(di, (name, cols))| {
            let mut t = Table::new(
                format!("{id_prefix}{}", letters.get(di).copied().unwrap_or("?")),
                format!("{caption} — {name} dataset"),
                std::iter::once("scheme".to_string())
                    .chain(values.iter().map(&col_label))
                    .collect::<Vec<_>>(),
            );
            for (si, scheme) in Scheme::TABLE3.iter().enumerate() {
                let mut row = vec![scheme.label()];
                for col in cols {
                    row.push(format!("{:.0}", col[si]));
                }
                t.push_row(row);
            }
            t
        })
        .collect()
}

/// Figure 13: effect of `k` on kNWC+ vs kNWC* (CA and NY).
pub fn fig13(ctx: &ExperimentContext) -> Table {
    knwc_sweep(
        ctx,
        "Figure 13",
        "Avg I/O vs k (n=8, window 8, m=4)",
        &[2, 4, 8, 16, 32],
        |&k| (k, 4),
        |k| format!("k={k}"),
    )
}

/// Figure 14: effect of `m` on kNWC+ vs kNWC* (CA and NY).
pub fn fig14(ctx: &ExperimentContext) -> Table {
    knwc_sweep(
        ctx,
        "Figure 14",
        "Avg I/O vs m (n=8, window 8, k=4)",
        &[0, 1, 2, 4, 7],
        |&m| (4, m),
        |m| format!("m={m}"),
    )
}

fn knwc_sweep<T: std::fmt::Display>(
    ctx: &ExperimentContext,
    id: &str,
    caption: &str,
    values: &[T],
    to_km: impl Fn(&T) -> (usize, usize),
    col_label: impl Fn(&T) -> String,
) -> Table {
    let mut t = Table::new(
        id,
        caption,
        std::iter::once("series".to_string())
            .chain(values.iter().map(&col_label))
            .collect::<Vec<_>>(),
    );
    let queries = ctx.query_points();
    for name in ["CA", "NY"] {
        eprint_progress(&format!("{id}: {name}"));
        let ds = ctx.dataset(name);
        let index = build_index(&ds);
        for (scheme, label) in [(Scheme::NWC_PLUS, "kNWC+"), (Scheme::NWC_STAR, "kNWC*")] {
            let mut row = vec![format!("{name} {label}")];
            for v in values {
                let (k, m) = to_km(v);
                let meas = measure_knwc(
                    &index,
                    &queries,
                    WindowSpec::square(DEFAULT_WINDOW),
                    DEFAULT_N,
                    k,
                    m,
                    scheme,
                );
                row.push(format!("{:.0}", meas.avg_io));
            }
            t.push_row(row);
        }
    }
    t
}

/// §5.2 storage overheads: the density grid per dataset. IWP builds
/// no pointers here (a search reuses the nodes it has read; DESIGN.md
/// §4m), so the paper's pointer overhead has no counterpart.
pub fn storage(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Storage",
        "Auxiliary structure overheads (paper §5.2)",
        vec!["dataset", "tree nodes", "grid cells", "grid heap KB"],
    );
    for ds in ctx.datasets() {
        eprint_progress(&format!("storage: {}", ds.name));
        let index = build_index(&ds);
        let grid = index.grid().unwrap();
        t.push_row(vec![
            ds.name.clone(),
            index.tree().node_count().to_string(),
            grid.cell_count().to_string(),
            format!("{:.0}", grid.bytes() as f64 / 1024.0),
        ]);
    }
    t
}

/// §4 cost model vs measurement on uniform data (the model's Poisson
/// assumption), sweeping the window size.
pub fn model(ctx: &ExperimentContext) -> Table {
    let n_objects = ctx.gaussian_n();
    let ds = Dataset::uniform(n_objects, ctx.seed);
    let index = build_index(&ds);
    let queries = ctx.query_points();
    let area = 10_000.0f64 * 10_000.0;
    let tree_model = TreeModel {
        n_objects: n_objects as f64,
        fanout: 50.0,
        area,
    };
    let mut t = Table::new(
        "Cost model",
        format!("Paper §4 analytical I/O vs measured NWC+ (uniform, {n_objects} objects, n=8)"),
        vec!["window", "model I/O", "measured I/O"],
    );
    for wsize in [64.0, 128.0, 192.0, 256.0, 384.0] {
        eprint_progress(&format!("model: window {wsize}"));
        let predicted =
            NwcCostModel::new(n_objects, area, wsize, wsize, DEFAULT_N).expected_io(&tree_model);
        let measured = measure_nwc(
            &index,
            &queries,
            WindowSpec::square(wsize),
            DEFAULT_N,
            Scheme::NWC_PLUS,
        );
        t.push_row(vec![
            format!("{wsize:.0}"),
            format!("{predicted:.0}"),
            format!("{:.0}", measured.avg_io),
        ]);
    }
    t
}

/// Ablation: distance measures under NWC* (design-choice table from
/// DESIGN.md — not in the paper).
pub fn ablation_measures(ctx: &ExperimentContext) -> Table {
    use nwc_core::{DistanceMeasure, NwcQuery};
    let ds = ctx.dataset("CA");
    let index = build_index(&ds);
    let queries = ctx.query_points();
    let mut scratch = QueryScratch::new();
    let mut t = Table::new(
        "Ablation: distance measure",
        "Avg I/O and hit rate per distance measure (CA, n=8, window 64)",
        vec!["measure", "avg I/O", "found"],
    );
    for measure in DistanceMeasure::ALL {
        let mut io = 0u64;
        let mut hits = 0usize;
        for &q in &queries {
            let query =
                NwcQuery::new(q, WindowSpec::square(64.0), DEFAULT_N).with_measure(measure);
            let out = search(&index, &SearchRequest::nwc(query, Scheme::NWC_STAR), &mut scratch);
            io += out.stats.io_total;
            hits += usize::from(out.nwc().is_some());
        }
        t.push_row(vec![
            format!("{measure:?}"),
            format!("{:.0}", io as f64 / queries.len() as f64),
            format!("{hits}/{}", queries.len()),
        ]);
    }
    t
}

/// Ablation: STR bulk load vs repeated R* insertion (build cost is not
/// I/O-metered; this compares the *query* I/O on the resulting trees).
pub fn ablation_build(ctx: &ExperimentContext) -> Table {
    let ds = ctx.dataset("CA");
    let queries = ctx.query_points();
    let mut t = Table::new(
        "Ablation: tree construction",
        "Query I/O on STR-bulk-loaded vs insertion-built trees (CA, NWC+, window 64)",
        vec!["build", "tree nodes", "avg I/O"],
    );
    for (label, bulk) in [("STR bulk load", true), ("R* insertion", false)] {
        eprint_progress(&format!("ablation_build: {label}"));
        let index = NwcIndex::build_with(
            ds.points.clone(),
            IndexConfig {
                grid_cell_size: Some(PAPER_GRID_CELL),
                bulk_load: bulk,
                ..Default::default()
            },
        );
        let m = measure_nwc(
            &index,
            &queries,
            WindowSpec::square(64.0),
            DEFAULT_N,
            Scheme::NWC_PLUS,
        );
        t.push_row(vec![
            label.to_string(),
            index.tree().node_count().to_string(),
            format!("{:.0}", m.avg_io),
        ]);
    }
    t
}

/// Ablation: weighted NWC — unit weights must match plain NWC's I/O
/// profile; skewed weights shift answers toward heavy objects.
pub fn ablation_weighted(ctx: &ExperimentContext) -> Table {
    use nwc_core::weighted::{WeightedNwcIndex, WeightedQuery};
    let ds = ctx.dataset("CA");
    let queries = ctx.query_points();
    let mut t = Table::new(
        "Ablation: weighted NWC",
        "Avg I/O and hit rate, weight thresholds on CA (window 64)",
        vec!["variant", "avg I/O", "found"],
    );
    let spec = WindowSpec::square(64.0);
    // Unit weights, W = 8  ≡  plain NWC with n = 8.
    let unit = WeightedNwcIndex::build(ds.points.clone(), vec![1.0; ds.points.len()]);
    // Zipf-ish weights: a few heavy objects.
    let skewed_w: Vec<f64> = (0..ds.points.len())
        .map(|i| if i % 20 == 0 { 10.0 } else { 1.0 })
        .collect();
    let skewed = WeightedNwcIndex::build(ds.points.clone(), skewed_w);
    for (label, index, min_w) in [
        ("unit weights, W=8", &unit, 8.0),
        ("skewed weights, W=8", &skewed, 8.0),
        ("skewed weights, W=32", &skewed, 32.0),
    ] {
        let mut io = 0u64;
        let mut hits = 0usize;
        for &q in &queries {
            let query = WeightedQuery::new(q, spec, min_w);
            let found = index.query(&query, Scheme::NWC_STAR);
            if let Some((r, _)) = found.expect("an in-memory search cannot fail") {
                io += r.stats.io_total;
                hits += 1;
            }
        }
        t.push_row(vec![
            label.to_string(),
            format!("{:.0}", io as f64 / queries.len() as f64),
            format!("{hits}/{}", queries.len()),
        ]);
    }
    t
}

/// Ablation: IWP alone against the baseline — one window query per
/// object from the root, vs one shared neighbourhood fetch per leaf
/// through the search's node memo (DESIGN.md §4m) — per dataset.
pub fn ablation_iwp(ctx: &ExperimentContext) -> Table {
    let queries = ctx.query_points();
    let mut t = Table::new(
        "Ablation: IWP",
        "Window-query I/O with and without IWP (n=8, window 8)",
        vec!["dataset", "plain I/O", "IWP I/O", "reduction"],
    );
    for ds in ctx.datasets() {
        eprint_progress(&format!("ablation_iwp: {}", ds.name));
        let index = build_index(&ds);
        let spec = WindowSpec::square(DEFAULT_WINDOW);
        let plain = measure_nwc(&index, &queries, spec, DEFAULT_N, Scheme::NWC);
        let iwp = measure_nwc(&index, &queries, spec, DEFAULT_N, Scheme::IWP);
        t.push_row(vec![
            ds.name.clone(),
            format!("{:.0}", plain.avg_io),
            format!("{:.0}", iwp.avg_io),
            reduction_rate(plain.avg_io, iwp.avg_io),
        ]);
    }
    t
}
