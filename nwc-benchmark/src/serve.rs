//! `serve-shard4`: CA-like data in four shards behind an in-process
//! server, driven over the wire by one client connection.
//!
//! The client is a closed loop: it sends its next request when the
//! previous answer lands, for the whole timed phase, so the round trips
//! give both the throughput and the latencies. This is the only workload
//! on the wire protocol, admission queue, worker pool, epoch handle and
//! cross-shard `dist_best` sharing. The shards are opened with the
//! shipped defaults, so each query scatters over one thread per core and
//! those threads share the best distance found so far.
//!
//! One connection, and no open loop, because on a host whose cores other
//! tenants share, waiting clients and idle cores made the host's
//! scheduler, not the program, set the times (see the README).
//!
//! Which shard lowers the shared `dist_best` first depends on thread
//! timing, and with it how many nodes a query reads. So the logical I/O
//! and the digest come from a replay of the reference requests in
//! process, on the same shards opened with a scatter width of one; every
//! exact answer the wire gave to a reference request must equal the
//! replay's, ids and distance bits.

use crate::metrics::rounds;
use crate::sut::{self, Kind, Op, Outcome, QueryError, QueryScratch, Scheme};
use crate::trace;
use crate::workloads::{
    query_points, timed_setups, Config, Event, Plan, ReferenceDigest, Run, MAP_SEED,
};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Server workers and shards.
const WORKERS: usize = 2;
const SHARDS: usize = 4;
const DEADLINE_MS: u32 = 2_000;
/// Reference requests: every run sends them first.
const REFERENCE_REQUESTS: usize = 1_000;
/// Reference requests replayed on the served index by the traced run.
const REPLAYED: usize = 400;

/// Mix M2: 60 % NWC\* 8 × 8 n = 8, 20 % NWC\* 32 × 32 n = 8, 10 % kNWC\*
/// (k = 4, m = 2), 10 % anytime NWC\* n = 16 with a 64-node budget.
fn m2(queries: &[sut::Point]) -> Vec<Op> {
    queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let (side, n, kind) = match i % 10 {
                2 | 7 => (32.0, 8, Kind::Nwc),
                4 => (8.0, 8, Kind::Knwc { k: 4, m: 2 }),
                9 => (8.0, 16, Kind::Anytime { io_budget: 64 }),
                _ => (8.0, 8, Kind::Nwc),
            };
            Op { q, side, n, kind }
        })
        .collect()
}

/// What the client saw.
#[derive(Default)]
struct Tally {
    requests: u64,
    deadline: u64,
    shed: u64,
    untyped: Vec<String>,
    partial: u64,
    bad_bounds: u64,
    bad_groups: u64,
    answered: u64,
    /// The round trips of the answered requests.
    timed: Vec<Event>,
    /// `(reference position, answer)` of every exact answer to a
    /// reference request.
    kept: Vec<(usize, sut::Answer)>,
}

/// Whether `op` asks for an exact answer, which does not depend on how
/// the scatter was scheduled.
fn exact(op: &Op) -> bool {
    !matches!(op.kind, Kind::Anytime { .. })
}

impl Tally {
    /// Records the outcome of `op`; the answer is kept when `origin`
    /// is the reference position to keep it under.
    fn record(&mut self, op: &Op, outcome: Outcome, origin: Option<usize>) {
        self.requests += 1;
        match outcome {
            Outcome::Answered(answer) => {
                self.answered += 1;
                if let Some(bound) = answer.error_bound {
                    self.partial += 1;
                    // A NaN bound fails this too.
                    if bound.is_nan() || bound < 0.0 {
                        self.bad_bounds += 1;
                    }
                }
                if !well_formed(op, &answer) {
                    self.bad_groups += 1;
                }
                if let Some(r) = origin.filter(|_| exact(op)) {
                    self.kept.push((r, answer));
                }
            }
            Outcome::Deadline => self.deadline += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Untyped(e) => self.untyped.push(e),
        }
    }

    fn failed(&self) -> u64 {
        self.deadline + self.shed + self.untyped.len() as u64
    }
}

/// Groups of an exact answer hold `n` objects each, at most `k` of
/// them, in ascending score order.
fn well_formed(op: &Op, answer: &sut::Answer) -> bool {
    let max_groups = match op.kind {
        Kind::Knwc { k, .. } => k,
        _ => 1,
    };
    answer.groups.len() <= max_groups
        && answer
            .groups
            .windows(2)
            .all(|w| w[0].distance <= w[1].distance)
        && (answer.error_bound.is_some() || answer.groups.iter().all(|g| g.objects.len() == op.n))
}

/// Sends the plan's requests in order, each as soon as the previous
/// answer landed, from `start` until `end` and at least its reference
/// requests.
fn closed_loop(addr: SocketAddr, plan: &Plan, start: Instant, end: Instant) -> Tally {
    let mut tally = Tally::default();
    let mut client = match sut::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.untyped.push(e);
            return tally;
        }
    };
    let mut i = 0;
    while i < plan.reference_len() || Instant::now() < end {
        let op = plan.op(i);
        let t = Instant::now();
        let outcome = {
            let _span = trace::span(trace::SERVE_CALL, i as u32, 0);
            sut::call(&mut client, op, DEADLINE_MS)
        };
        if matches!(outcome, Outcome::Answered(_)) {
            tally.timed.push(Event::since(start, t));
        }
        tally.record(op, outcome, plan.origin(i));
        i += 1;
    }
    tally
}

pub fn serve_shard4(config: &Config) -> Result<Run, String> {
    let points = sut::ca_like(config.size(sut::CA_POINTS, 2_000), MAP_SEED);
    let live = points.len() as u64;
    let dir = config.work_dir.join("shards");
    let (server, setup_s) = timed_setups(
        config,
        || {
            let index = sut::build_save_open_sharded(points.clone(), SHARDS, &dir)?;
            sut::start_server(index, WORKERS).map_err(|e| e.to_string())
        },
        sut::stop_server,
    )?;
    let reference = m2(&query_points(config.size(REFERENCE_REQUESTS, 16), MAP_SEED));
    let measured = drive(&server, &reference, config);
    sut::stop_server(server);
    let (mut run, wire) = measured?;
    check_reference(&dir, &reference, &wire, config, &mut run)?;
    run.setup_s = setup_s;
    run.live_objects = live;
    run.file_bytes = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    Ok(run)
}

/// Runs the timed phase; returns the run and every exact answer the
/// wire gave to a reference request, by reference position.
fn drive(
    server: &sut::Server,
    reference: &[Op],
    config: &Config,
) -> Result<(Run, Vec<(usize, sut::Answer)>), String> {
    let addr = sut::server_addr(server);
    let drawn = m2(&query_points(config.list_len(), config.seed));
    let plan = Plan::new(reference, config.seed, drawn);
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(config.seconds);
    let tally = closed_loop(addr, &plan, started, end);
    let round_trips = rounds(&tally.timed, config.seconds);
    let mut run = Run {
        latencies: round_trips.clone(),
        work: round_trips,
        clients: 1,
        peak_rss_mb: crate::metrics::peak_rss_mb(),
        attempted: tally.requests,
        failed: tally.failed(),
        calls: tally.answered,
        ..Run::default()
    };
    for e in tally.untyped.iter().take(3) {
        run.problems.push(format!("untyped outcome: {e}"));
    }
    if tally.bad_bounds > 0 {
        run.problems.push(format!(
            "{} partial answers with a negative bound",
            tally.bad_bounds
        ));
    }
    if tally.bad_groups > 0 {
        run.problems
            .push(format!("{} malformed answers", tally.bad_groups));
    }
    run.store = sut::with_served(server, sut::counters_sharded).unwrap_or_default();
    check_server_counters(addr, &tally, &mut run);
    if trace::enabled() {
        traced_replay(server, reference, &tally, &mut run)?;
    }
    Ok((run, tally.kept))
}

/// Runs the reference requests in reference order on the shards saved
/// under `dir`, opened again with a scatter width of one: their search
/// counters are the workload's, and their exact answers are what the
/// wire must have returned.
fn check_reference(
    dir: &Path,
    reference: &[Op],
    wire: &[(usize, sut::Answer)],
    config: &Config,
    run: &mut Run,
) -> Result<(), String> {
    let index = sut::open_sharded_sequential(dir)?;
    let mut scratch = QueryScratch::new();
    let replayed: Vec<Result<sut::Answer, QueryError>> = reference
        .iter()
        .map(|op| sut::run_sharded(&index, op, Scheme::NWC_STAR, &mut scratch))
        .collect();
    let mut digest = ReferenceDigest::new(config.digest_ops());
    for (r, answered) in replayed.iter().enumerate() {
        match answered {
            Ok(answer) => {
                run.search.accumulate(&answer.stats);
                run.counted += 1;
                if exact(&reference[r]) {
                    digest.record(r, answer);
                }
            }
            Err(e) => run
                .problems
                .push(format!("reference request {r} failed in process: {e}")),
        }
    }
    run.digest = digest.value();
    for (r, wire) in wire {
        match &replayed[*r] {
            Ok(local) if local.groups == wire.groups => {}
            Ok(local) => run.problems.push(format!(
                "reference request {r}: wire {:?}, in process {:?}",
                crate::workloads::distances(wire),
                crate::workloads::distances(local)
            )),
            Err(_) => {}
        }
    }
    Ok(())
}

/// The server's own counters must agree with what the client saw.
fn check_server_counters(addr: SocketAddr, tally: &Tally, run: &mut Run) {
    let stats = sut::connect(addr).and_then(|mut c| sut::server_stats(&mut c));
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            run.problems.push(format!("stats scrape failed: {e}"));
            return;
        }
    };
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    for (name, seen) in [
        ("server_shed_total", tally.shed),
        ("server_deadline_total", tally.deadline),
        ("server_partial_total", tally.partial),
    ] {
        if get(name) != Some(seen) {
            run.problems.push(format!(
                "server reports {name} {:?}, clients saw {seen}",
                get(name)
            ));
        }
    }
}

/// Traced run only: replays reference requests in process, once through
/// the served index as a worker runs them and once through the wire
/// codec, to split a request's time between the search and the serving
/// layer.
fn traced_replay(
    server: &sut::Server,
    reference: &[Op],
    tally: &Tally,
    run: &mut Run,
) -> Result<(), String> {
    let mut scratch = QueryScratch::new();
    let requests: Vec<(&Op, sut::Answer)> = sut::with_served(server, |index| {
        reference
            .iter()
            .take(REPLAYED)
            .enumerate()
            .filter_map(|(r, op)| {
                let _span = trace::span(trace::CORE_QUERY, r as u32, 0);
                let answered = sut::run_sharded(index, op, Scheme::NWC_STAR, &mut scratch);
                Some((op, answered.ok()?))
            })
            .collect()
    })
    .ok_or("the server does not serve a sharded index")?;
    for (r, (op, answer)) in requests.iter().enumerate() {
        let _span = trace::span(trace::SERVE_CODEC, r as u32, 0);
        if !sut::codec_roundtrip(r as u32, op, answer, DEADLINE_MS) {
            run.problems
                .push(format!("request {r} does not survive the codec"));
        }
    }
    run.extra.push((
        "serve.partial_share",
        tally.partial as f64 / tally.answered.max(1) as f64,
    ));
    Ok(())
}
