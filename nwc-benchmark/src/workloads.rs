//! The four workloads and what each one measures.
//!
//! Every workload sets itself up several times (reporting the median
//! set-up time), then runs its timed phase for the configured
//! number of seconds, then checks its answers. The library only ever
//! sees the generated points and queries, through [`crate::sut`].
//!
//! The datasets stand in for the paper's fixed real datasets (CA, NY),
//! so every run draws them, the ingest stream and the reference
//! operations with one seed, [`MAP_SEED`]. Each run first makes the
//! reference operations, then operations drawn from its own seed (see
//! [`Plan`]); `ingest-ca` instead repeats one fixed episode.

use crate::serve;
use crate::sut::{self, Kind, NwcIndex, Op, Point, QueryScratch, Scheme, SearchStats};
use crate::trace;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["arena-ca", "disk-ny-smallpool", "serve-shard4", "ingest-ca"];

/// Seed of the CA-like and NY-like maps, of the ingest stream and of
/// the reference operations.
pub const MAP_SEED: u64 = 2016;

/// A run sets up at least [`MIN_SETUPS`] times, and keeps setting up
/// until [`SETUP_BUDGET_S`] have passed or it reached [`MAX_SETUPS`];
/// `setup_s` is the median. Cheap set-ups repeat more, so their median
/// is as steady as that of the expensive ones; spreading them over two
/// seconds evens out host load that comes and goes within a second.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 2.0;

/// The answers to the first this many reference operations are digested
/// and checked against the committed digests (fewer in a smoke run).
const DIGEST_OPS: usize = 128;

/// Answers re-checked against another scheme or index after a run.
const CHECKED_ANSWERS: usize = 32;

/// The paper's default window (8 × 8) and group size (n = 8).
const SIDE: f64 = 8.0;
const N: usize = 8;

/// Knobs shared by every workload.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny datasets, for the unit test and a quick check that it runs.
    pub smoke: bool,
    /// Where page files go; created and removed by the caller.
    pub work_dir: PathBuf,
}

impl Config {
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// How many reference answers are digested.
    pub fn digest_ops(&self) -> usize {
        self.size(DIGEST_OPS, 16)
    }

    /// Length of the list of operations drawn from the seed.
    pub fn list_len(&self) -> usize {
        self.size(20_000, 400)
    }
}

/// The operations of a run in the order it makes them: first the
/// reference operations, which are the same in every run, then
/// operations drawn from the run's seed, cycled if a run gets that far.
/// Every run makes all the reference operations, however slow it is,
/// and the search counters and the answer digest are taken over them
/// alone, so both are the same for every seed.
#[derive(Clone, Debug)]
pub struct Plan {
    ops: Vec<Op>,
    /// `origin[i]`: the position in the reference list of `ops[i]`, for
    /// each of the first `origin.len()` operations, the reference ones.
    origin: Vec<usize>,
}

impl Plan {
    /// `reference` in an order shuffled by `seed`, followed by `drawn`.
    pub fn new(reference: &[Op], seed: u64, drawn: Vec<Op>) -> Plan {
        let mut origin: Vec<usize> = (0..reference.len()).collect();
        sut::shuffle(&mut origin, seed);
        let ops = origin.iter().map(|&r| reference[r]).chain(drawn).collect();
        Plan { ops, origin }
    }

    pub fn op(&self, i: usize) -> &Op {
        &self.ops[i % self.ops.len()]
    }

    /// How many reference operations the plan starts with.
    pub fn reference_len(&self) -> usize {
        self.origin.len()
    }

    /// The reference position of operation `i`, if it is one.
    pub fn origin(&self, i: usize) -> Option<usize> {
        self.origin.get(i).copied()
    }
}

/// One timed operation: when it ended, in nanoseconds into its phase,
/// and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub at_ns: u64,
    pub ns: u64,
}

impl Event {
    /// An operation that started at `t`, in a phase that started at
    /// `phase`, and ended now.
    pub fn since(phase: Instant, t: Instant) -> Event {
        Event {
            at_ns: elapsed_ns(phase),
            ns: elapsed_ns(t),
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted and failed (errors, shed, deadline).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems found; empty when every check passed.
    pub problems: Vec<String>,
    pub setup_s: f64,
    /// The durations of the operations in the throughput figure, in
    /// rounds and sorted within each, run by `clients` clients at once,
    /// each one operation after another. A round is an `ingest-ca`
    /// episode, or elsewhere a share of the timed phase (see
    /// [`crate::metrics::rounds`]).
    pub work: Vec<Vec<u64>>,
    pub clients: u64,
    /// One latency per query, request or probe, in rounds as `work`.
    pub latencies: Vec<Vec<u64>>,
    /// `VmHWM` at the end of the timed phase, in MB.
    pub peak_rss_mb: f64,
    /// Search counters summed over the `counted` reference operations
    /// (see [`Plan`]), the same in every run.
    pub search: SearchStats,
    pub counted: u64,
    /// Index calls in the timed phase, and the pool and storage
    /// counters over them.
    pub calls: u64,
    pub store: sut::StoreCounters,
    /// Page-file bytes and the live objects they hold, taken where every
    /// run is in the same state.
    pub file_bytes: u64,
    pub live_objects: u64,
    /// Digest of the first [`Config::digest_ops`] exact reference
    /// answers (see [`ReferenceDigest`]).
    pub digest: u64,
    /// Workload-specific per-layer metrics.
    pub extra: Vec<(&'static str, f64)>,
}

/// Runs workload `name`.
pub fn run(name: &str, config: &Config) -> Result<Run, String> {
    match name {
        "arena-ca" => arena_ca(config),
        "disk-ny-smallpool" => disk_ny_smallpool(config),
        "serve-shard4" => serve::serve_shard4(config),
        "ingest-ca" => ingest_ca(config),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Sets up repeatedly (see [`MIN_SETUPS`]; twice in a smoke run),
/// tearing down all but the last set-up, and returns it with the median
/// set-up time.
pub fn timed_setups<T>(
    config: &Config,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let (min, max) = (config.size(MIN_SETUPS, 2), config.size(MAX_SETUPS, 2));
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET_S) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let state = last.ok_or("no set-up ran")?;
    Ok((state, crate::report::median(&times)))
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest of the answers to the first reference operations: each
/// answer's group ids and distance bits, folded in reference order
/// whatever order the run made them in. An operation never recorded
/// counts as an empty word, so a missing answer changes the digest.
#[derive(Clone, Debug)]
pub struct ReferenceDigest(Vec<u64>);

impl ReferenceDigest {
    pub fn new(len: usize) -> Self {
        ReferenceDigest(vec![0; len])
    }

    /// Records the answer to reference operation `origin`; answers
    /// beyond the digested ones are ignored.
    pub fn record(&mut self, origin: usize, answer: &sut::Answer) {
        let Some(slot) = self.0.get_mut(origin) else {
            return;
        };
        let mut h = Fnv::default();
        h.word(answer.groups.len() as u64);
        for g in &answer.groups {
            h.word(g.distance.to_bits());
            for &(id, _) in &g.objects {
                h.word(u64::from(id));
            }
        }
        *slot = h.0;
    }

    pub fn value(&self) -> u64 {
        let mut h = Fnv::default();
        for &w in &self.0 {
            h.word(w);
        }
        h.0
    }
}

/// `count` query locations, uniform over the paper's 10,000 × 10,000
/// space: the R2 low-discrepancy sequence under a random shift drawn
/// from `seed`. Each location is uniform, and every prefix of the list
/// covers the space evenly.
pub fn query_points(count: usize, seed: u64) -> Vec<Point> {
    // 1/g and 1/g² for the plastic number g, the 2-D golden ratio.
    const A1: f64 = 0.754_877_666_246_692_8;
    const A2: f64 = 0.569_840_290_998_053_3;
    let (u, v) = sut::unit_pair(seed);
    (0..count)
        .map(|i| {
            let i = i as f64;
            Point::new(
                10_000.0 * (u + i * A1).fract(),
                10_000.0 * (v + i * A2).fract(),
            )
        })
        .collect()
}

/// Mix M1, the paper's 8 × 8 window: 50 % NWC\* n = 8, 20 % n = 16,
/// 10 % n = 32, 20 % kNWC\* (n = 8, k = 4, m = 2), interleaved by
/// position.
pub fn m1(queries: &[Point]) -> Vec<Op> {
    queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let (n, kind) = match i % 10 {
                1 | 5 => (16, Kind::Nwc),
                3 => (32, Kind::Nwc),
                7 | 9 => (N, Kind::Knwc { k: 4, m: 2 }),
                _ => (N, Kind::Nwc),
            };
            Op {
                q,
                side: SIDE,
                n,
                kind,
            }
        })
        .collect()
}

/// Calls `step(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_steps` ran; returns the steps run.
fn for_duration(seconds: f64, min_steps: usize, mut step: impl FnMut(usize)) -> usize {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < min_steps || Instant::now() < end {
        step(i);
        i += 1;
    }
    i
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One thread, closed loop: runs `plan` on `index` for the configured
/// time with a warm scratch, then re-checks sampled NWC\* answers
/// against NWC+.
fn closed_loop(index: &NwcIndex, plan: &Plan, config: &Config, run: &mut Run) {
    let mut scratch = QueryScratch::new();
    let mut digest = ReferenceDigest::new(config.digest_ops());
    let mut kept: Vec<(usize, sut::Answer)> = Vec::new();
    let store_before = sut::counters(index);
    let mut events = Vec::new();
    let started = Instant::now();
    let steps = for_duration(config.seconds, plan.reference_len(), |i| {
        let op = plan.op(i);
        let t = Instant::now();
        let answered = {
            let _span = trace::span(trace::CORE_QUERY, i as u32, 0);
            sut::run(index, op, Scheme::NWC_STAR, &mut scratch)
        };
        events.push(Event::since(started, t));
        match answered {
            Ok(answer) => {
                let Some(r) = plan.origin(i) else { return };
                run.search.accumulate(&answer.stats);
                run.counted += 1;
                digest.record(r, &answer);
                if op.kind == Kind::Nwc && kept.len() < CHECKED_ANSWERS {
                    kept.push((i, answer));
                }
            }
            Err(e) => {
                run.failed += 1;
                run.problems.push(format!("query {i} failed: {e}"));
            }
        }
    });
    run.peak_rss_mb = crate::metrics::peak_rss_mb();
    run.work = crate::metrics::rounds(&events, config.seconds);
    run.latencies = run.work.clone();
    run.clients = 1;
    run.attempted = steps as u64;
    run.calls = steps as u64;
    run.store = delta(sut::counters(index), store_before);
    run.digest = digest.value();
    // Schemes only prune, so NWC+ must find the same distance.
    for (i, answer) in &kept {
        match sut::run(index, plan.op(*i), Scheme::NWC_PLUS, &mut scratch) {
            Ok(plus) if same_distances(&plus, answer) => {}
            Ok(plus) => run.problems.push(format!(
                "query {i}: NWC* answered {:?}, NWC+ {:?}",
                distances(answer),
                distances(&plus)
            )),
            Err(e) => run.problems.push(format!("query {i}: NWC+ failed: {e}")),
        }
    }
}

fn delta(after: sut::StoreCounters, before: sut::StoreCounters) -> sut::StoreCounters {
    sut::StoreCounters {
        pool_hits: after.pool_hits - before.pool_hits,
        pool_misses: after.pool_misses - before.pool_misses,
        pool_evictions: after.pool_evictions - before.pool_evictions,
        peak_resident_nodes: after.peak_resident_nodes,
    }
}

fn sum(a: sut::StoreCounters, b: sut::StoreCounters) -> sut::StoreCounters {
    sut::StoreCounters {
        pool_hits: a.pool_hits + b.pool_hits,
        pool_misses: a.pool_misses + b.pool_misses,
        pool_evictions: a.pool_evictions + b.pool_evictions,
        peak_resident_nodes: a.peak_resident_nodes.max(b.peak_resident_nodes),
    }
}

pub fn distances(answer: &sut::Answer) -> Vec<f64> {
    answer.groups.iter().map(|g| g.distance).collect()
}

pub fn same_distances(a: &sut::Answer, b: &sut::Answer) -> bool {
    a.groups.len() == b.groups.len()
        && a.groups
            .iter()
            .zip(&b.groups)
            .all(|(x, y)| x.distance.to_bits() == y.distance.to_bits())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `arena-ca`: the paper's search over an in-memory index of CA-like
/// data — traversal, window queries, SRR/DIP/DEP/IWP, kernels and grid,
/// and nothing of the store, the pool, the server or the write path.
/// Its page-file size is that of the index saved, after the run, as
/// `disk-ny-smallpool` saves its own.
fn arena_ca(config: &Config) -> Result<Run, String> {
    let points = sut::ca_like(config.size(sut::CA_POINTS, 2_000), MAP_SEED);
    let plan = m1_plan(config, config.size(4_000, 16));
    let (index, setup_s) = timed_setups(config, || Ok(sut::build(points.clone())), drop)?;
    let mut run = Run {
        setup_s,
        live_objects: sut::len(&index) as u64,
        ..Run::default()
    };
    closed_loop(&index, &plan, config, &mut run);
    let path = config.work_dir.join("ca.pages");
    sut::save_clustered(&index, &path)?;
    run.file_bytes = file_len(&path)?;
    Ok(run)
}

/// Mix M1 over `reference` reference queries in an order drawn from the
/// seed, then over queries drawn from the seed.
fn m1_plan(config: &Config, reference: usize) -> Plan {
    Plan::new(
        &m1(&query_points(reference, MAP_SEED)),
        config.seed,
        m1(&query_points(config.list_len(), config.seed)),
    )
}

/// `disk-ny-smallpool`: the same search over NY-like data in a
/// read-only clustered page file opened with a pool of 1 % of its
/// pages, so most node accesses miss the pool and go to the store.
fn disk_ny_smallpool(config: &Config) -> Result<Run, String> {
    let points = sut::ny_like(config.size(sut::NY_POINTS, 2_000), MAP_SEED);
    let plan = m1_plan(config, config.size(8_000, 16));
    let path = config.work_dir.join("ny.pages");
    let (index, setup_s) = timed_setups(
        config,
        || {
            sut::save_clustered(&sut::build(points.clone()), &path)?;
            let frames = (sut::page_count(&path)? as usize / 100).max(2);
            open_disk(&path, Some(frames))
        },
        drop,
    )?;
    let mut run = Run {
        setup_s,
        live_objects: sut::len(&index) as u64,
        file_bytes: file_len(&path)?,
        ..Run::default()
    };
    closed_loop(&index, &plan, config, &mut run);
    Ok(run)
}

/// Opens a page file, through the timing store when tracing.
fn open_disk(path: &Path, frames: Option<usize>) -> Result<NwcIndex, String> {
    if trace::enabled() {
        sut::open_timed(path, frames)
    } else {
        sut::open(path, frames)
    }
}

/// Pushes between probes, and pushes between commits.
const PROBE_EVERY: usize = 8;
const COMMIT_EVERY: usize = 64;

/// Probes in an `ingest-ca` episode, each after [`PROBE_EVERY`] pushes;
/// the pushes of an episode make whole commits.
const EPISODE_PROBES: usize = 1_000;
const _: () = assert!((EPISODE_PROBES * PROBE_EVERY).is_multiple_of(COMMIT_EVERY));

/// What one `ingest-ca` episode did.
#[derive(Default)]
struct Episode {
    /// Durations of the pushes and of the probes.
    pushes: Vec<u64>,
    probes: Vec<u64>,
    commit_push_ns: u64,
    failed: u64,
    problems: Vec<String>,
    search: SearchStats,
    digest: u64,
    /// Page-file bytes and live objects after the last push.
    file_bytes: u64,
    live_objects: u64,
    store: sut::StoreCounters,
}

/// `ingest-ca`: a sliding window over a writable CA-like page file with
/// a pool of 25 % of its pages, streaming a second CA-like draw through
/// it with an NWC+ probe every 8 pushes.
/// The only workload on the dirty overlay, shadow-paged commits and
/// page recycling. Probes use NWC+ because NWC\* needs the IWP
/// pointers, which a write invalidates.
///
/// Each push changes the index, so how long a probe takes depends on how
/// far the stream has got. The timed phase is therefore cut into
/// identical episodes, each one round of the time metrics: an episode
/// starts from the saved map and makes the same pushes and probes in the
/// same order, and must give the same answers, counts and file size.
/// Reordering them would change the answers, so the seed does not.
fn ingest_ca(config: &Config) -> Result<Run, String> {
    let capacity = config.size(sut::CA_POINTS, 1_000);
    let points = sut::ca_like(capacity, MAP_SEED);
    let stream = sut::ca_like(capacity, MAP_SEED + 1);
    let probes: Vec<Op> = query_points(config.size(EPISODE_PROBES, 16), MAP_SEED)
        .into_iter()
        .map(|q| Op {
            q,
            side: SIDE,
            n: N,
            kind: Kind::Nwc,
        })
        .collect();
    let path = config.work_dir.join("ingest.pages");
    let setup = || {
        sut::save_writable(&sut::build(points.clone()), &path)?;
        let frames = (sut::page_count(&path)? as usize / 4).max(2);
        let index = open_disk(&path, Some(frames))?;
        Ok((sut::ingestor(index, capacity, COMMIT_EVERY), frames))
    };
    let (first, setup_s) = timed_setups(config, setup, drop)?;
    let mut run = Run {
        setup_s,
        clients: 1,
        ..Run::default()
    };

    // Whole episodes until the time is up: another one only if it would
    // end less than half an episode late.
    let mut scratch = QueryScratch::new();
    let mut push_ns = 0u64;
    let mut commit_push_ns = 0u64;
    let mut ready = Some(first);
    let started = Instant::now();
    let (mut ingest, frames) = loop {
        let (mut ingest, frames) = match ready.take() {
            Some(state) => state,
            None => setup()?,
        };
        let t = Instant::now();
        let e = ingest_episode(&mut ingest, &stream, &probes, &path, config, &mut scratch);
        let episode_s = t.elapsed().as_secs_f64();
        let episode = run.work.len();
        if episode == 0 {
            run.search = e.search;
            run.counted = e.probes.len() as u64;
            run.digest = e.digest;
            run.file_bytes = e.file_bytes;
            run.live_objects = e.live_objects;
        } else if (e.digest, e.search, e.file_bytes) != (run.digest, run.search, run.file_bytes) {
            run.problems.push(format!(
                "episode {episode} differs from the first: digest {:016x}, file {} B",
                e.digest, e.file_bytes
            ));
        }
        push_ns += e.pushes.iter().sum::<u64>();
        commit_push_ns += e.commit_push_ns;
        run.attempted += (e.pushes.len() + e.probes.len()) as u64;
        run.calls += e.probes.len() as u64;
        run.failed += e.failed;
        run.problems.extend(e.problems);
        run.store = sum(run.store, e.store);
        run.work.push(e.pushes);
        run.latencies.push(e.probes);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + episode_s / 2.0 >= config.seconds {
            break (ingest, frames);
        }
    };
    run.peak_rss_mb = crate::metrics::peak_rss_mb();
    if let Err(e) = sut::commit(&mut ingest) {
        run.problems.push(format!("final commit failed: {e}"));
    }
    run.extra.push((
        "core.commit_share",
        commit_push_ns as f64 / push_ns.max(1) as f64,
    ));
    drop(ingest);

    // Reopen after the final commit: the window must be full and its
    // answers those of an in-memory index over the same live objects.
    let reopened = sut::open(&path, Some(frames))?;
    if sut::len(&reopened) != capacity {
        run.problems.push(format!(
            "reopened index holds {} objects, expected {capacity}",
            sut::len(&reopened)
        ));
    }
    let memory = sut::build(sut::live_points(&reopened));
    for (p, probe) in probes.iter().enumerate().take(CHECKED_ANSWERS) {
        let disk = sut::run(&reopened, probe, Scheme::NWC_PLUS, &mut scratch);
        let mem = sut::run(&memory, probe, Scheme::NWC_PLUS, &mut scratch);
        match (disk, mem) {
            (Ok(d), Ok(m)) if same_distances(&d, &m) => {}
            (d, m) => run
                .problems
                .push(format!("probe {p} after reopen: disk {d:?}, memory {m:?}")),
        }
    }
    Ok(run)
}

/// One episode: pushes the stream into `ingest`, probing after every
/// [`PROBE_EVERY`] pushes, until every probe ran.
fn ingest_episode(
    ingest: &mut sut::StreamingIngestor,
    stream: &[Point],
    probes: &[Op],
    path: &Path,
    config: &Config,
    scratch: &mut QueryScratch,
) -> Episode {
    let mut e = Episode::default();
    let mut digest = ReferenceDigest::new(config.digest_ops());
    let store_before = sut::counters(sut::ingest_index(ingest));
    let pushes = probes.len() * PROBE_EVERY;
    for (i, &point) in stream.iter().cycle().take(pushes).enumerate() {
        let t = Instant::now();
        let pushed = {
            let _span = trace::span(trace::CORE_PUSH, i as u32, 0);
            sut::push(ingest, point)
        };
        let ns = elapsed_ns(t);
        e.pushes.push(ns);
        match pushed {
            Ok(true) => e.commit_push_ns += ns,
            Ok(false) => {}
            Err(err) => {
                e.failed += 1;
                e.problems.push(format!("push {i} failed: {err}"));
            }
        }
        if i % PROBE_EVERY != PROBE_EVERY - 1 {
            continue;
        }
        let p = i / PROBE_EVERY;
        let t = Instant::now();
        let answered = {
            let _span = trace::span(trace::CORE_QUERY, p as u32, 0);
            sut::run(
                sut::ingest_index(ingest),
                &probes[p],
                Scheme::NWC_PLUS,
                scratch,
            )
        };
        e.probes.push(elapsed_ns(t));
        match answered {
            Ok(answer) => {
                e.search.accumulate(&answer.stats);
                digest.record(p, &answer);
            }
            Err(err) => {
                e.failed += 1;
                e.problems.push(format!("probe {p} failed: {err}"));
            }
        }
    }
    e.pushes.sort_unstable();
    e.probes.sort_unstable();
    e.digest = digest.value();
    e.file_bytes = file_len(path).unwrap_or_else(|err| {
        e.problems.push(err);
        0
    });
    e.live_objects = sut::len(sut::ingest_index(ingest)) as u64;
    e.store = delta(sut::counters(sut::ingest_index(ingest)), store_before);
    e
}
