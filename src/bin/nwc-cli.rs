//! `nwc-cli` — command-line front end for the library.
//!
//! ```text
//! nwc-cli gen <uniform|gaussian|ca|ny> <count> <out.csv> [seed]
//! nwc-cli query <data.csv> <qx> <qy> <window> <n> [scheme] [measure]
//! nwc-cli knwc  <data.csv> <qx> <qy> <window> <n> <k> <m> [scheme]
//! nwc-cli maxrs <data.csv> <window>
//! nwc-cli stats <data.csv>
//! ```
//!
//! Datasets are plain `x,y` CSV files (see `nwc::datagen`). Schemes:
//! nwc, srr, dip, dep, iwp, nwc+, nwc* (default). Measures: min, max
//! (default), avg, nearest.

use nwc::core::{maxrs::maxrs, DistanceMeasure, KnwcQuery};
use nwc::geom::window::WindowSpec as Spec;
use nwc::prelude::*;
use nwc::rtree::PAGE_SIZE;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `nwc-cli` with no arguments for usage");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    println!("nwc-cli — Nearest Window Cluster queries from the command line\n");
    println!("  nwc-cli gen <uniform|gaussian|ca|ny> <count> <out.csv> [seed]");
    println!("  nwc-cli query <data.csv> <qx> <qy> <window> <n> [scheme] [measure]");
    println!("  nwc-cli knwc  <data.csv> <qx> <qy> <window> <n> <k> <m> [scheme]");
    println!("  nwc-cli maxrs <data.csv> <window>");
    println!("  nwc-cli stats <data.csv>");
    println!("\nschemes: nwc srr dip dep iwp nwc+ nwc* (default nwc*)");
    println!("measures: min max avg nearest (default max)");
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        usage();
        return Ok(());
    };
    match cmd.as_str() {
        "gen" => gen(&args[1..]),
        "query" => query(&args[1..]),
        "knwc" => knwc(&args[1..]),
        "maxrs" => maxrs_cmd(&args[1..]),
        "stats" => stats(&args[1..]),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {what}: `{s}`"))
}

fn parse_scheme(s: Option<&String>) -> Result<Scheme, String> {
    match s.map(|v| v.to_lowercase()).as_deref() {
        None | Some("nwc*") | Some("star") => Ok(Scheme::NWC_STAR),
        Some("nwc") => Ok(Scheme::NWC),
        Some("srr") => Ok(Scheme::SRR),
        Some("dip") => Ok(Scheme::DIP),
        Some("dep") => Ok(Scheme::DEP),
        Some("iwp") => Ok(Scheme::IWP),
        Some("nwc+") | Some("plus") => Ok(Scheme::NWC_PLUS),
        Some(other) => Err(format!("unknown scheme `{other}`")),
    }
}

fn parse_measure(s: Option<&String>) -> Result<DistanceMeasure, String> {
    match s.map(|v| v.to_lowercase()).as_deref() {
        None | Some("max") => Ok(DistanceMeasure::Max),
        Some("min") => Ok(DistanceMeasure::Min),
        Some("avg") => Ok(DistanceMeasure::Avg),
        Some("nearest") | Some("nw") => Ok(DistanceMeasure::NearestWindow),
        Some(other) => Err(format!("unknown measure `{other}`")),
    }
}

fn load(path: &str) -> Result<Dataset, String> {
    Dataset::load_csv("cli", path).map_err(|e| format!("reading {path}: {e}"))
}

fn gen(args: &[String]) -> Result<(), String> {
    let [kind, count, out] = args.get(..3).ok_or("gen needs <kind> <count> <out.csv>")? else {
        return Err("gen needs <kind> <count> <out.csv>".into());
    };
    let count: usize = parse(count, "count")?;
    let seed: u64 = args.get(3).map(|s| parse(s, "seed")).transpose()?.unwrap_or(2016);
    let ds = match kind.as_str() {
        "uniform" => Dataset::uniform(count, seed),
        "gaussian" => Dataset::gaussian(count, 5_000.0, 2_000.0, seed),
        "ca" => Dataset::corridor_clustered(count, 60, 25.0, 120.0, 0.20, seed),
        "ny" => Dataset::clustered(count, 300, 8.0, 40.0, 0.05, seed),
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    ds.save_csv(out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} points to {out}", ds.len());
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    if args.len() < 5 {
        return Err("query needs <data.csv> <qx> <qy> <window> <n>".into());
    }
    let ds = load(&args[0])?;
    let q = Point::new(parse(&args[1], "qx")?, parse(&args[2], "qy")?);
    let window: f64 = parse(&args[3], "window")?;
    let n: usize = parse(&args[4], "n")?;
    let scheme = parse_scheme(args.get(5))?;
    let measure = parse_measure(args.get(6))?;

    let index = NwcIndex::build(ds.points.clone());
    let query = NwcQuery::try_new(q, Spec::square(window), n, measure)
        .map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let outcome = index
        .search(&SearchRequest::nwc(query, scheme), &mut QueryScratch::new())
        .map_err(|e| e.to_string())?;
    match outcome.nwc() {
        Some(r) => {
            println!(
                "NWC({q}, {window}x{window}, n={n}) [{scheme}] → distance {:.2}",
                r.distance
            );
            for e in &r.objects {
                println!("  #{:<6} {}  (dist {:.2})", e.id, e.point, e.point.dist(&q));
            }
            println!(
                "window {:?}; {} node accesses, {} window queries, {:.1} ms",
                r.window,
                r.stats.io_total,
                r.stats.window_queries,
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        None => println!("no {window}x{window} window holds {n} objects"),
    }
    Ok(())
}

fn knwc(args: &[String]) -> Result<(), String> {
    if args.len() < 7 {
        return Err("knwc needs <data.csv> <qx> <qy> <window> <n> <k> <m>".into());
    }
    let ds = load(&args[0])?;
    let q = Point::new(parse(&args[1], "qx")?, parse(&args[2], "qy")?);
    let window: f64 = parse(&args[3], "window")?;
    let n: usize = parse(&args[4], "n")?;
    let k: usize = parse(&args[5], "k")?;
    let m: usize = parse(&args[6], "m")?;
    let scheme = parse_scheme(args.get(7))?;

    let index = NwcIndex::build(ds.points.clone());
    let query = KnwcQuery::try_new(q, Spec::square(window), n, k, m, DistanceMeasure::Max)
        .map_err(|e| e.to_string())?;
    let r = index
        .search(&SearchRequest::knwc(query, scheme), &mut QueryScratch::new())
        .map_err(|e| e.to_string())?
        .into_knwc();
    println!(
        "kNWC(k={k}, n={n}, m={m}) [{scheme}] → {} groups, {} node accesses",
        r.groups.len(),
        r.stats.io_total
    );
    for (i, g) in r.groups.iter().enumerate() {
        println!(
            "  #{i}: distance {:.2}, objects {:?}",
            g.distance,
            g.id_set()
        );
    }
    Ok(())
}

fn maxrs_cmd(args: &[String]) -> Result<(), String> {
    if args.len() < 2 {
        return Err("maxrs needs <data.csv> <window>".into());
    }
    let ds = load(&args[0])?;
    let window: f64 = parse(&args[1], "window")?;
    let r = maxrs(&ds.points, &WindowSpec::square(window)).ok_or("empty dataset")?;
    println!(
        "MaxRS({window}x{window}) → {} objects in window {:?}",
        r.count, r.window
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs <data.csv>")?;
    let ds = load(path)?;
    let index = NwcIndex::build(ds.points.clone());
    let tree = index.tree();
    println!("objects:      {}", index.len());
    println!("bounds:       {:?}", index.bounds());
    println!("tree height:  {}", tree.height());
    println!("tree nodes:   {}", tree.node_count());
    // One page per node; the file adds its two header pages.
    println!(
        "page file:    {} pages = {} KB (one {PAGE_SIZE}-byte page per node)",
        tree.node_count(),
        tree.node_count() * PAGE_SIZE / 1024
    );
    if let Some(grid) = index.grid() {
        println!(
            "density grid: {}x{} cells, refinement R = {}, {} KB heap",
            grid.cells_per_side(),
            grid.cells_per_side(),
            grid.refinement(),
            grid.bytes() / 1024
        );
    }
    Ok(())
}
