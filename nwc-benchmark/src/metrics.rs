//! Every metric the benchmark reports, declared once, and how each is
//! computed from a workload run (end to end) or from its trace (per
//! layer). `BENCHMARK.json` declares the same names, units, directions
//! and bounds; a unit test keeps the two in step.

use crate::report::{median, percentile};
use crate::trace::{self, Span};
use crate::workloads::{Event, Run};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics have none.
#[derive(Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The bound of a metric that repeats exactly in every run: any growth
/// beyond rounding is a regression.
pub const EXACT: f64 = 1e-6;

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p99_ms", "ms", Lower, 0.25),
    e2e("logical_io_per_query", "count", Lower, EXACT),
    e2e("disk_bytes_per_object", "B", Lower, EXACT),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// What each layer did, measured in the traced run. Layers a workload
/// bypasses report 0; times are given only for the layers every
/// workload crosses, and shares of the operation's time otherwise.
pub const PER_LAYER: &[Decl] = &[
    layer("core.query_us_p50", "us", Lower),
    layer("core.query_us_p99", "us", Lower),
    layer("core.self_us_per_query", "us", Lower),
    layer("core.objects_visited_per_query", "count", Lower),
    layer("core.window_queries_per_query", "count", Lower),
    layer("core.candidate_windows_per_query", "count", Lower),
    layer("core.qualified_ratio", "fraction", Higher),
    layer("core.srr_skips_per_query", "count", Higher),
    layer("core.dep_skips_per_query", "count", Higher),
    layer("core.dip_pruned_nodes_per_query", "count", Higher),
    layer("core.best_updates_per_query", "count", Lower),
    layer("core.commit_share", "fraction", Lower),
    layer("rtree.io_traversal_per_query", "count", Lower),
    layer("rtree.io_window_per_query", "count", Lower),
    layer("rtree.buffer_hits_per_query", "count", Higher),
    layer("rtree.peak_resident_nodes", "count", Lower),
    layer("store.read_calls_per_query", "count", Lower),
    layer("store.read_share", "fraction", Lower),
    layer("store.bytes_read_per_query", "B", Lower),
    layer("store.pool_hit_rate", "fraction", Higher),
    layer("store.pool_misses_per_query", "count", Lower),
    layer("store.pool_evictions_per_query", "count", Lower),
    layer("store.write_calls_per_push", "count", Lower),
    layer("store.write_share", "fraction", Lower),
    layer("store.bytes_written_per_push", "B", Lower),
    layer("serve.overhead_share", "fraction", Lower),
    layer("serve.codec_share", "fraction", Lower),
    layer("serve.partial_share", "fraction", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rounds a timed phase is cut into (`ingest-ca`'s rounds are its
/// episodes instead). A time metric is the median of its values over
/// the rounds, so load from elsewhere on the host that spoils one round
/// does not move it. Three keep at least ten samples beyond each
/// round's p99 in every workload.
pub const ROUNDS: usize = 3;

/// The durations of `events`, sorted, in rounds of `phase_s / ROUNDS`
/// by when each ended. A run that goes on past its phase adds rounds; a
/// last round that is less than half over is left out, and so are
/// rounds in which nothing ended.
pub fn rounds(events: &[Event], phase_s: f64) -> Vec<Vec<u64>> {
    let length = ((phase_s * 1e9 / ROUNDS as f64) as u64).max(1);
    let last = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
    let count = ((last + length / 2) / length).max(1) as usize;
    let mut out = vec![Vec::new(); count];
    for e in events {
        if let Some(round) = out.get_mut((e.at_ns / length) as usize) {
            round.push(e.ns);
        }
    }
    out.retain(|r| !r.is_empty());
    for r in &mut out {
        r.sort_unstable();
    }
    out
}

/// The latency samples of a run: in all, in how many rounds, and in its
/// smallest round.
pub fn latency_samples(run: &Run) -> (usize, usize, usize) {
    let smallest = run.latencies.iter().map(Vec::len).min().unwrap_or(0);
    let all = run.latencies.iter().map(Vec::len).sum();
    (all, run.latencies.len(), smallest)
}

/// Median over the latency rounds of their `q`-quantile, in ms.
fn latency_ms(latency_rounds: &[Vec<u64>], q: f64) -> f64 {
    let per_round: Vec<f64> = latency_rounds.iter().map(|r| percentile(r, q)).collect();
    median(&per_round) / 1e6
}

/// The end-to-end metrics of an untraced run. Throughput in a round of
/// a closed loop is the clients times the operations over their summed
/// time (Little's law), which for one client is operations per second
/// spent in them.
pub fn end_to_end(run: &Run) -> HashMap<&'static str, f64> {
    let throughput: Vec<f64> = run
        .work
        .iter()
        .map(|r| run.clients as f64 * ratio(r.len() as f64, r.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    HashMap::from([
        ("setup_s", run.setup_s),
        ("ops_per_s", median(&throughput)),
        ("p50_ms", latency_ms(&run.latencies, 0.50)),
        ("p99_ms", latency_ms(&run.latencies, 0.99)),
        (
            "logical_io_per_query",
            ratio(run.search.io_total as f64, run.counted as f64),
        ),
        (
            "disk_bytes_per_object",
            ratio(run.file_bytes as f64, run.live_objects as f64),
        ),
        ("peak_rss_mb", run.peak_rss_mb),
    ])
}

/// The per-layer metrics of a traced run, from its counters and spans.
pub fn per_layer(run: &Run, spans: &[Span]) -> HashMap<&'static str, f64> {
    let s = &run.search;
    let per_query = |x: u64| ratio(x as f64, run.counted as f64);
    let per_call = |x: u64| ratio(x as f64, run.calls as f64);
    let mut m: HashMap<&'static str, f64> = HashMap::from([
        (
            "core.objects_visited_per_query",
            per_query(s.objects_visited),
        ),
        ("core.window_queries_per_query", per_query(s.window_queries)),
        (
            "core.candidate_windows_per_query",
            per_query(s.candidate_windows),
        ),
        (
            "core.qualified_ratio",
            ratio(s.qualified_windows as f64, s.candidate_windows as f64),
        ),
        ("core.srr_skips_per_query", per_query(s.skipped_by_srr)),
        ("core.dep_skips_per_query", per_query(s.skipped_by_dep)),
        (
            "core.dip_pruned_nodes_per_query",
            per_query(s.nodes_pruned_by_dip),
        ),
        ("core.best_updates_per_query", per_query(s.best_updates)),
        ("rtree.io_traversal_per_query", per_query(s.io_traversal)),
        ("rtree.io_window_per_query", per_query(s.io_window_queries)),
        ("rtree.buffer_hits_per_query", per_query(s.buffer_hits)),
        (
            "rtree.peak_resident_nodes",
            run.store.peak_resident_nodes as f64,
        ),
        (
            "store.pool_hit_rate",
            ratio(
                run.store.pool_hits as f64,
                (run.store.pool_hits + run.store.pool_misses) as f64,
            ),
        ),
        (
            "store.pool_misses_per_query",
            per_call(run.store.pool_misses),
        ),
        (
            "store.pool_evictions_per_query",
            per_call(run.store.pool_evictions),
        ),
    ]);
    m.extend(run.extra.iter().copied());

    // The spans named `name` whose parent span is named `parent`.
    let parent_name = |child: &Span| spans.get(child.parent as usize).map(|p| p.name);
    let under = |name: &str, parent: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|c| c.name == name && parent_name(c) == Some(parent))
            .collect()
    };
    let durations = |name: &str| -> Vec<u64> {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    };
    let total = |d: &[u64]| d.iter().sum::<u64>() as f64;

    let query = durations(trace::CORE_QUERY);
    let query_ns = total(&query);
    let reads_in_queries = under(trace::STORE_READ, trace::CORE_QUERY);
    let read_ns = reads_in_queries
        .iter()
        .map(|s| s.duration_ns())
        .sum::<u64>() as f64;
    let calls = query.len() as f64;
    m.insert("core.query_us_p50", percentile(&query, 0.50) / 1e3);
    m.insert("core.query_us_p99", percentile(&query, 0.99) / 1e3);
    m.insert(
        "core.self_us_per_query",
        ratio(query_ns - read_ns, calls) / 1e3,
    );
    m.insert(
        "store.read_calls_per_query",
        ratio(reads_in_queries.len() as f64, calls),
    );
    m.insert("store.read_share", ratio(read_ns, query_ns));
    m.insert(
        "store.bytes_read_per_query",
        ratio(
            reads_in_queries.iter().map(|s| s.bytes).sum::<u64>() as f64,
            calls,
        ),
    );

    let pushes = durations(trace::CORE_PUSH);
    let writes = under(trace::STORE_WRITE, trace::CORE_PUSH);
    let write_ns = writes.iter().map(|s| s.duration_ns()).sum::<u64>() as f64;
    m.insert(
        "store.write_calls_per_push",
        ratio(writes.len() as f64, pushes.len() as f64),
    );
    m.insert("store.write_share", ratio(write_ns, total(&pushes)));
    m.insert(
        "store.bytes_written_per_push",
        ratio(
            writes.iter().map(|s| s.bytes).sum::<u64>() as f64,
            pushes.len() as f64,
        ),
    );

    let round_trips = durations(trace::SERVE_CALL);
    let codec = durations(trace::SERVE_CODEC);
    let mean = |d: &[u64]| ratio(total(d), d.len() as f64);
    if !round_trips.is_empty() {
        m.insert(
            "serve.overhead_share",
            1.0 - ratio(mean(&query), mean(&round_trips)),
        );
        m.insert("serve.codec_share", ratio(mean(&codec), mean(&round_trips)));
    }
    m
}

/// `trace_overhead_pct`: how much slower the traced run went.
pub fn trace_overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    (ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64, ns: u64) -> Event {
        Event {
            at_ns: ms * 1_000_000,
            ns,
        }
    }

    #[test]
    fn rounds_group_by_end_time_and_drop_a_short_last_round() {
        // A 0.9 s phase cut into rounds of 300 ms; the second round saw
        // nothing end, and the run overran into a fourth round, which is
        // less than half over at its last event.
        let events = [
            at_ms(10, 3),
            at_ms(250, 1),
            at_ms(650, 4),
            at_ms(880, 2),
            at_ms(1_000, 5),
            at_ms(1_040, 6),
        ];
        assert_eq!(rounds(&events, 0.9), vec![vec![1, 3], vec![2, 4]]);
    }

    #[test]
    fn throughput_is_clients_times_operations_over_their_time() {
        // Two clients, each operation 2 ms: 1,000 operations a second.
        let events: Vec<Event> = (0..1_000).map(|ms| at_ms(ms, 2_000_000)).collect();
        let run = Run {
            work: rounds(&events, 1.0),
            clients: 2,
            ..Run::default()
        };
        assert!((end_to_end(&run)["ops_per_s"] - 1_000.0).abs() < 1e-9);
    }
}
