//! `experiments` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nwc-bench [--] [EXPERIMENT...]
//!
//! EXPERIMENT: all (default) | table2 | table3 | fig8 | fig9 | fig10 |
//!             fig11 | fig12 | fig13 | fig14 | storage | model |
//!             ablations | throughput | serve | ingest | shard | approx
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

use nwc_bench::{approx, figures, ingest, serve, shard, throughput, ExperimentContext};

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--").collect();
    let wanted: Vec<String> = if args.is_empty() {
        vec!["all".into()]
    } else {
        args
    };
    let run_all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| run_all || wanted.iter().any(|w| w == name);

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
    if want("throughput") {
        println!("{}", throughput::throughput(&ctx));
    }
    if want("serve") {
        println!("{}", serve::serve(&ctx));
    }
    if want("ingest") {
        println!("{}", ingest::ingest(&ctx));
    }
    if want("shard") {
        println!("{}", shard::shard(&ctx));
    }
    if want("approx") {
        println!("{}", approx::approx(&ctx));
    }
    if want("ablations") {
        println!("{}", figures::ablation_measures(&ctx));
        println!("{}", figures::ablation_build(&ctx));
        println!("{}", figures::ablation_iwp(&ctx));
        println!("{}", figures::ablation_weighted(&ctx));
    }
    eprintln!("[experiments] done in {:.1}s", t0.elapsed().as_secs_f64());
}
