//! `experiments` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nwc-bench [--] [EXPERIMENT...]
//!
//! EXPERIMENT: all (default) | table2 | table3 | fig8 | fig9 | fig10 |
//!             fig11 | fig12 | fig13 | fig14 | storage | model |
//!             ablations
//!
//! An unknown name exits with status 2 and a one-line error listing
//! the valid names.
//!
//! Environment:
//!   NWC_SCALE    fraction of the paper's dataset cardinalities (0.2)
//!   NWC_QUERIES  queries averaged per configuration (25)
//!   NWC_SEED     RNG seed (2016)
//! ```
//!
//! Output is GitHub-flavored markdown on stdout (progress on stderr), so
//! `cargo run --release -p nwc-bench > EXPERIMENTS-run.md` captures a
//! full report.

use nwc_bench::{figures, ExperimentContext};

/// Every experiment the binary runs, in run order; `all` selects them
/// all.
const EXPERIMENTS: [&str; 12] = [
    "table2",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "storage",
    "model",
    "ablations",
];

/// The experiments named by `args` (all of them when `args` is empty or
/// names `all`), or a one-line error for the first unknown name.
fn select(args: &[String]) -> Result<Vec<&'static str>, String> {
    let mut wanted = Vec::new();
    for arg in args {
        match EXPERIMENTS.iter().find(|&&e| e == arg) {
            Some(&e) => wanted.push(e),
            None if arg == "all" => wanted.extend(EXPERIMENTS),
            None => {
                return Err(format!(
                    "unknown experiment `{arg}`; valid: all, {}",
                    EXPERIMENTS.join(", ")
                ))
            }
        }
    }
    if args.is_empty() {
        wanted.extend(EXPERIMENTS);
    }
    Ok(wanted)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--").collect();
    let wanted = match select(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let want = |name: &str| wanted.contains(&name);
    let ctx = ExperimentContext::from_env();

    println!(
        "# NWC experiment run (scale {}, {} queries, seed {})\n",
        ctx.scale, ctx.queries, ctx.seed
    );

    let t0 = std::time::Instant::now();
    if want("table2") {
        println!("{}", figures::table2(&ctx));
    }
    if want("table3") {
        println!("{}", figures::table3());
    }
    if want("fig8") {
        println!("{}", figures::fig8(&ctx));
    }
    if want("fig9") {
        println!("{}", figures::fig9(&ctx));
    }
    if want("fig10") {
        println!("{}", figures::fig10(&ctx));
    }
    if want("fig11") {
        for t in figures::fig11(&ctx) {
            println!("{t}");
        }
    }
    if want("fig12") {
        for t in figures::fig12(&ctx) {
            println!("{t}");
        }
    }
    if want("fig13") {
        println!("{}", figures::fig13(&ctx));
    }
    if want("fig14") {
        println!("{}", figures::fig14(&ctx));
    }
    if want("storage") {
        println!("{}", figures::storage(&ctx));
    }
    if want("model") {
        println!("{}", figures::model(&ctx));
    }
    if want("ablations") {
        println!("{}", figures::ablation_measures(&ctx));
        println!("{}", figures::ablation_build(&ctx));
        println!("{}", figures::ablation_iwp(&ctx));
        println!("{}", figures::ablation_weighted(&ctx));
    }
    eprintln!("[experiments] done in {:.1}s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn no_arguments_or_all_selects_every_experiment() {
        assert_eq!(select(&[]).unwrap(), EXPERIMENTS);
        assert_eq!(select(&args(&["all"])).unwrap(), EXPERIMENTS);
        assert_eq!(
            select(&args(&["fig9", "table2"])).unwrap(),
            ["fig9", "table2"]
        );
    }

    #[test]
    fn unknown_names_are_an_error_listing_the_valid_ones() {
        for bad in [&["throughput"][..], &["table2", "bogus"]] {
            let err = select(&args(bad)).unwrap_err();
            assert!(err.contains("unknown experiment"), "{err}");
            assert!(err.contains("valid: all, table2"), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }
}
