//! `nwc-benchmark`: the repository's benchmark. Four seeded workloads,
//! each measured end to end with tracing off, and per layer in a
//! separate traced run; every run checks its answers.
//!
//! ```text
//! nwc-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out DIR]
//! nwc-benchmark compare DIR_A DIR_B
//! ```
//!
//! A run prints a header, one `name = value unit` line per metric, and
//! as its last line the result as one JSON object. It writes the result,
//! and in a traced run the spans, under `DIR` (by default
//! `$CARGO_TARGET_DIR/nwc-benchmark`, else `target/nwc-benchmark`), and
//! exits non-zero when any answer is wrong. See `README.md`.

mod metrics;
mod report;
mod serve;
mod sut;
mod trace;
mod workloads;

use metrics::{Decl, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: nwc-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out DIR]\n       \
                     nwc-benchmark compare DIR_A DIR_B";

/// Committed answer digests, one `workload digest` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// Length of the timed phase: `run_seconds` of `BENCHMARK.json`, which
/// every bound was measured with (a unit test keeps the two equal).
const DEFAULT_SECONDS: f64 = 25.0;

/// Length of the timed phase of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.3;

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("nwc-benchmark")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 2016,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: default_out(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {} or all",
            parsed.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => match args.get(1..) {
            Some([a, b]) => match report::compare(Path::new(a), Path::new(b)) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            },
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        _ => match parse_args(&args) {
            Ok(a) if a.workload == "all" => run_all(&a),
            Ok(a) => run_one(&a),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// The commit being measured, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run header: what was measured, where, with which seed.
fn header(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        ("seconds", args.seconds.to_string()),
        ("rev", git_rev()),
        ("nproc", nproc.to_string()),
        ("kernel_backend", sut::kernel_backend().to_string()),
    ]
}

/// What a single-workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: HashMap<&'static str, f64>,
    digest: u64,
}

fn run_one(args: &Args) -> i32 {
    let head = header(args);
    let line: Vec<String> = head.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# nwc-benchmark {}", line.join(" "));
    let work = args.out.join(format!("work-{}", std::process::id()));
    let measured = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| measure(args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match measured {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "# digest {} {} {:016x}",
        args.workload, args.seed, outcome.digest
    );
    for p in outcome.problems.iter().take(20) {
        eprintln!("incorrect: {p}");
    }
    let (text, json, correct) = render(&outcome, declared(args.trace));
    let file = args.out.join("runs").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut doc = String::from("{");
    for (k, v) in &head {
        doc.push_str(&format!("\"{k}\": \"{v}\", "));
    }
    doc.push_str(&format!("\"result\": {json}}}\n"));
    if let Err(e) =
        std::fs::create_dir_all(args.out.join("runs")).and_then(|()| std::fs::write(&file, doc))
    {
        eprintln!("warning: could not write {}: {e}", file.display());
    }
    print!("{text}");
    println!("{json}");
    i32::from(!correct)
}

fn declared(trace: bool) -> &'static [Decl] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs the workload and checks its answers; a traced run first runs it
/// untraced for half the time to price the tracing.
fn measure(args: &Args, work: &Path) -> Result<Outcome, String> {
    let config = workloads::Config {
        seed: args.seed,
        seconds: if args.smoke {
            SMOKE_SECONDS
        } else {
            args.seconds
        },
        smoke: args.smoke,
        work_dir: work.to_path_buf(),
    };
    let committed = committed_digest(&args.workload).filter(|_| !args.smoke);
    let check = |run: &workloads::Run, problems: &mut Vec<String>| {
        problems.extend(run.problems.iter().cloned());
        if let Some(expected) = committed {
            if run.digest != expected {
                problems.push(format!(
                    "answer digest {:016x}, committed {expected:016x}",
                    run.digest
                ));
            }
        }
    };
    let mut problems = Vec::new();
    if !args.trace {
        let run = workloads::run(&args.workload, &config)?;
        check(&run, &mut problems);
        let (samples, rounds, smallest) = metrics::latency_samples(&run);
        println!("# latency samples: {samples} in {rounds} rounds, {smallest} in the smallest");
        return Ok(Outcome {
            attempted: run.attempted,
            failed: run.failed,
            metrics: metrics::end_to_end(&run),
            digest: run.digest,
            problems,
        });
    }
    let half = workloads::Config {
        seconds: config.seconds / 2.0,
        ..config
    };
    let untraced = workloads::run(&args.workload, &half)?;
    trace::enable();
    let traced = workloads::run(&args.workload, &half);
    let spans = trace::take();
    let traced = traced?;
    check(&untraced, &mut problems);
    check(&traced, &mut problems);
    if traced.digest != untraced.digest {
        problems.push("the traced run's answers differ from the untraced run's".into());
    }
    if (traced.search, traced.counted) != (untraced.search, untraced.counted) {
        problems.push("the traced run's search counters differ from the untraced run's".into());
    }
    let path = args.out.join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, trace::to_json(&spans)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let mut m = metrics::per_layer(&traced, &spans);
    let ops_per_s = |r: &workloads::Run| metrics::end_to_end(r)["ops_per_s"];
    m.insert(
        "trace_overhead_pct",
        metrics::trace_overhead_pct(ops_per_s(&untraced), ops_per_s(&traced)),
    );
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: m,
        digest: traced.digest,
        problems,
    })
}

fn committed_digest(workload: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(digest.trim(), 16).ok())
            .flatten()
    })
}

/// The metric lines, the result JSON, and whether the run is correct: a
/// metric that is not finite makes it incorrect too.
fn render(outcome: &Outcome, decls: &[Decl]) -> (String, String, bool) {
    let mut text = String::new();
    let mut fields = Vec::new();
    let mut finite = true;
    for d in decls {
        let value = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        text.push_str(&format!("{} = {value} {}\n", d.name, d.unit));
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    let correct = outcome.problems.is_empty() && finite;
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    (text, json, correct)
}

/// Runs every workload, each in a child process of its own so its peak
/// memory is its own.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for name in workloads::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if !out.status.success() {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("error: cannot run {name}: {e}");
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests share the process-wide span recorder; run them one at a time.
    pub fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The target directory this test binary was built into.
    fn target_dir() -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.ancestors()
            .nth(3)
            .expect("target/<profile>/deps/<binary>")
            .to_path_buf()
    }

    /// A fresh directory under the target directory.
    pub fn scratch_dir(name: &str) -> PathBuf {
        let dir = target_dir()
            .join("nwc-benchmark-test")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list directory")
            .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
            .filter(|n| n != "target")
            .collect();
        names.sort();
        names
    }

    /// Every workload runs at tiny sizes, traced and untraced, with
    /// correct answers and every declared metric printed, finite, with
    /// its unit; nothing is written outside the target directory.
    #[test]
    fn smoke_runs_every_workload_and_prints_every_metric() {
        let _serial = serial();
        let package = Path::new(env!("CARGO_MANIFEST_DIR"));
        let repo = package.parent().expect("repository root");
        let before = (listing(package), listing(repo));
        let out = scratch_dir("smoke");
        for name in workloads::NAMES {
            for traced in [false, true] {
                let args = Args {
                    workload: name.into(),
                    seed: 5,
                    seconds: 1.0,
                    trace: traced,
                    smoke: true,
                    out: out.clone(),
                };
                let work = out.join(format!("work-{name}-{traced}"));
                std::fs::create_dir_all(&work).expect("work dir");
                let outcome = measure(&args, &work).expect("workload runs");
                assert!(
                    outcome.problems.is_empty(),
                    "{name}: {:?}",
                    outcome.problems
                );
                let decls = declared(traced);
                let (text, json, correct) = render(&outcome, decls);
                assert!(correct, "{name}: a metric is not finite");
                let doc = report::parse_json(&json).expect("result is JSON");
                assert_eq!(doc.get("correct"), Some(&report::Json::Bool(true)));
                for d in decls {
                    assert!(
                        text.lines()
                            .any(|l| l.starts_with(&format!("{} = ", d.name))
                                && l.ends_with(&format!(" {}", d.unit))),
                        "{name}: {} not printed with its unit",
                        d.name
                    );
                    let m = doc.get("metrics").and_then(|m| m.get(d.name));
                    let value = m.and_then(|m| m.get("value")).and_then(report::Json::num);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name}: {} missing",
                        d.name
                    );
                    assert_eq!(
                        m.and_then(|m| m.get("unit")).and_then(report::Json::str),
                        Some(d.unit)
                    );
                }
                let get = |metric: &str| outcome.metrics.get(metric).copied().unwrap_or(0.0);
                if traced {
                    assert!(get("core.query_us_p50") > 0.0, "{name}: no core spans");
                    match name {
                        "disk-ny-smallpool" => {
                            assert!(get("store.read_calls_per_query") > 0.0);
                            assert!(get("store.pool_misses_per_query") > 0.0);
                        }
                        "ingest-ca" => assert!(get("store.write_calls_per_push") > 0.0),
                        "serve-shard4" => assert!(get("serve.codec_share") > 0.0),
                        _ => assert_eq!(get("store.read_calls_per_query"), 0.0),
                    }
                } else {
                    for d in END_TO_END {
                        assert!(get(d.name) > 0.0, "{name}: {} is 0", d.name);
                    }
                }
                std::fs::remove_dir_all(&work).expect("remove work dir");
            }
        }
        assert_eq!(
            (listing(package), listing(repo)),
            before,
            "files written outside target/"
        );
        std::fs::remove_dir_all(&out).expect("remove scratch dir");
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = report::parse_json(text).expect("BENCHMARK.json is JSON");
        let check = |key: &str, decls: &[Decl]| {
            let Some(report::Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            assert_eq!(items.len(), decls.len(), "{key}");
            for (item, d) in items.iter().zip(decls) {
                assert_eq!(item.get("name").and_then(report::Json::str), Some(d.name));
                assert_eq!(item.get("unit").and_then(report::Json::str), Some(d.unit));
                let better = match d.better {
                    metrics::Better::Lower => "lower",
                    metrics::Better::Higher => "higher",
                };
                assert_eq!(item.get("better").and_then(report::Json::str), Some(better));
                assert_eq!(item.get("bound").and_then(report::Json::num), d.bound);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        assert_eq!(
            doc.get("run_seconds").and_then(report::Json::num),
            Some(DEFAULT_SECONDS)
        );
        let Some(report::Json::Arr(names)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = names
            .iter()
            .filter_map(|w| w.get("name").and_then(report::Json::str))
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload arena-ca --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = args("").expect("defaults");
        assert_eq!((a.seed, a.seconds, a.trace), (2016, DEFAULT_SECONDS, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace yes").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
    }
}
