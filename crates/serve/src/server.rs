//! The TCP query server: admission control, a fixed worker pool with
//! per-query deadlines, metrics, and hot-swap.
//!
//! # Architecture
//!
//! ```text
//!            ┌────────────┐   bounded queue    ┌──────────┐
//!  accept ──▶│ per-conn   │──▶ (shed when ────▶│ worker 0 │─┐
//!  loop      │ reader     │    deep/slow)      │  ...     │ ├─▶ responses
//!            │ threads    │                    │ worker N │─┘   (write mutex
//!            └────────────┘                    └──────────┘     per conn)
//! ```
//!
//! - **Readers** decode frames resumably (a read timeout mid-frame
//!   keeps partial progress — see [`FrameReader`]), answer
//!   control-plane ops (stats, ping — and swap/shutdown when
//!   [`ServerConfig::allow_control_plane`] is set) inline, validate
//!   queries, and enqueue them. Admission is where load is shed: a
//!   request is rejected with a typed `Shed` + retry-after once the
//!   queue is full or the estimated wait (depth × EMA service time ÷
//!   workers) crosses the configured bound.
//! - **Workers** pop queries, arm a [`Budget`] with the request
//!   deadline plus the server stop flag, and run one `search` on
//!   whatever generation [`IndexHandle::load`] returns. A deadline
//!   firing surfaces as a typed `Deadline` response (or a bounded
//!   `Partial` for an anytime request); the worker, its scratch, and
//!   the index survive.
//! - **Responses** are written under a per-connection mutex, so workers
//!   finish out of order and clients may pipeline (the `request_id`
//!   says which answer is whose).
//!
//! Everything is `std`: `TcpListener` + scoped-ish plain threads +
//! `Mutex`/`Condvar`. The server side of this crate is panic-free by
//! policy (enforced by `scripts/verify.sh`): every failure path is a
//! typed response or a dropped connection, never a worker teardown.

use crate::handle::{IndexHandle, ServedIndex};
use crate::histogram::LatencyHistogram;
use crate::protocol::{
    decode_request, decode_scheme, encode_response, write_frame, AnytimeSpec, FrameReader,
    PartialReason, ProtoError, QuerySpec, Request, Response, WireGroup, WireObject,
};
use nwc_core::{
    Answer, Approx, Budget, CancelFlag, CancelKind, DiskIndexConfig, KnwcGroup, KnwcQuery,
    NwcQuery, Outcome, Query, QueryError, QueryScratch, Scheme, SearchRequest, SearchStats,
    WindowSpec,
};
use nwc_geom::pt;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults suit a test or benchmark instance;
/// production would size `workers` to cores and the queue to the
/// latency budget.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Fixed worker pool size (min 1).
    pub workers: usize,
    /// Maximum queued (admitted, not yet executing) queries before
    /// shedding.
    pub queue_depth: usize,
    /// Shed when `queued × EMA latency ÷ workers` exceeds this.
    pub max_estimated_wait: Duration,
    /// Deadline applied when a request carries `deadline_ms = 0`;
    /// `None` = no default deadline.
    pub default_deadline: Option<Duration>,
    /// How hot-swapped page files are opened.
    pub swap_config: DiskIndexConfig,
    /// Whether the wire control plane (`Swap`, `Shutdown`) is served.
    /// **Off by default**: those opcodes carry no authentication, so
    /// any client that can reach the port could otherwise open an
    /// arbitrary server-side path as the new index or stop the
    /// process. Enable only for test/bench instances or behind a
    /// trusted network boundary; when disabled, both opcodes get a
    /// typed `BadRequest` and the served index is untouched (in-process
    /// swaps via [`IndexHandle`] and [`Server::shutdown`] still work).
    pub allow_control_plane: bool,
    /// Overload degradation: when the *estimated-wait* shed bound
    /// trips (the queue itself is not yet full) and the request opted
    /// into anytime execution, admit it anyway with its `epsilon`
    /// raised to at least this value instead of shedding — the client
    /// gets a `(1+ε)`-bounded answer now rather than a retry-after.
    /// `None` (the default) sheds as before. A hard-full queue always
    /// sheds; legacy requests (no anytime extension) always shed.
    pub shed_degrade_epsilon: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            max_estimated_wait: Duration::from_millis(500),
            default_deadline: None,
            swap_config: DiskIndexConfig::default(),
            allow_control_plane: false,
            shed_degrade_epsilon: None,
        }
    }
}

/// Server-side monotonically increasing counters, exported by the
/// stats endpoint.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    no_answer: AtomicU64,
    deadline: AtomicU64,
    partial: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    stopped: AtomicU64,
    bad_request: AtomicU64,
    io_failed: AtomicU64,
    swaps: AtomicU64,
    connections: AtomicU64,
}

/// Per-worker observability: a lock-free latency histogram, merged at
/// scrape time.
#[derive(Debug, Default)]
struct WorkerStats {
    hist: LatencyHistogram,
}

/// What a query job needs to run: the decoded query, where to write
/// the answer, and its latency budget.
struct Job {
    request_id: u32,
    query: Query,
    scheme: Scheme,
    deadline: Option<Instant>,
    /// The anytime extension the request carried, if any: its presence
    /// licenses `Partial` responses in place of typed budget errors.
    anytime: Option<AnytimeSpec>,
    writer: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

/// The bounded admission queue plus the latency EMA the shed policy
/// reads.
#[derive(Debug, Default)]
struct Queue {
    inner: Mutex<VecDeque<Job>>,
    ready: Condvar,
    /// Exponential moving average of query *execution* time,
    /// microseconds (α = 1/8), measured from worker pop to completion
    /// — queue wait is deliberately excluded, since the shed estimate
    /// multiplies this by the queue depth and folding wait back in
    /// would double-count it (a positive feedback loop that sheds far
    /// below the configured bound). Seeded at 1 ms until real samples
    /// arrive.
    ema_us: AtomicU64,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("request_id", &self.request_id).finish()
    }
}

struct Shared {
    handle: Arc<IndexHandle>,
    config: ServerConfig,
    queue: Queue,
    stop: CancelFlag,
    counters: Counters,
    workers: Vec<WorkerStats>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission: enqueue, or hand the job back with a suggested
    /// retry-after and whether the rejection was *hard* (queue full)
    /// or *soft* (estimated wait over the bound — the queue still has
    /// room, which [`Shared::admit_degraded`] may use).
    #[allow(clippy::result_large_err)] // Err hands the Job back, it is not an error type
    fn admit(&self, job: Job) -> Result<(), (Job, u32, bool)> {
        let workers = self.config.workers.max(1) as u64;
        let ema = self.queue.ema_us.load(Ordering::Relaxed);
        let mut q = self.lock_queue();
        let depth = q.len() as u64;
        let est_wait_us = (depth + 1) * ema / workers;
        let hard = q.len() >= self.config.queue_depth;
        if hard || est_wait_us > self.config.max_estimated_wait.as_micros() as u64 {
            drop(q);
            // Suggested backoff: the estimated wait, at least 1 ms.
            return Err((job, (est_wait_us / 1000).clamp(1, 60_000) as u32, hard));
        }
        q.push_back(job);
        drop(q);
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Second-chance admission for a soft-shed anytime request with a
    /// degraded `epsilon`: only the hard queue-depth cap applies (the
    /// wait estimate was the reason it is here). Returns the job back
    /// when even the hard cap rejects it.
    #[allow(clippy::result_large_err)] // Err hands the Job back, it is not an error type
    fn admit_degraded(&self, job: Job) -> Result<(), Job> {
        let mut q = self.lock_queue();
        if q.len() >= self.config.queue_depth {
            drop(q);
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Folds a completed query's execution time (worker pop →
    /// completion, no queue wait) into the EMA (α = 1/8).
    fn observe_service_time(&self, service: Duration) {
        let us = u64::try_from(service.as_micros()).unwrap_or(u64::MAX);
        // A CAS loop so concurrent workers never lose each other's
        // samples to a torn load/store pair.
        let _ = self
            .queue
            .ema_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old - old / 8 + us / 8).max(1))
            });
    }

    /// The stats-endpoint payload: the unified [`MetricsSnapshot`] of
    /// the serving generation, then the server's own gauges, in a
    /// stable order.
    fn metrics_text(&self) -> String {
        let generation = self.handle.load();
        let mut out = generation.index.metrics().to_text();
        let c = &self.counters;
        let depth = self.lock_queue().len();
        let merged = LatencyHistogram::merge(self.workers.iter().map(|w| &w.hist));
        let (p50, p99, p999) = merged.p50_p99_p999();
        for (name, value) in [
            ("server_generation", generation.id),
            ("server_queue_depth", depth as u64),
            ("server_workers", self.config.workers as u64),
            ("server_connections_total", c.connections.load(Ordering::Relaxed)),
            ("server_accepted_total", c.accepted.load(Ordering::Relaxed)),
            ("server_completed_total", c.completed.load(Ordering::Relaxed)),
            ("server_no_answer_total", c.no_answer.load(Ordering::Relaxed)),
            ("server_deadline_total", c.deadline.load(Ordering::Relaxed)),
            ("server_partial_total", c.partial.load(Ordering::Relaxed)),
            ("server_degraded_total", c.degraded.load(Ordering::Relaxed)),
            ("server_shed_total", c.shed.load(Ordering::Relaxed)),
            ("server_stopped_total", c.stopped.load(Ordering::Relaxed)),
            ("server_bad_request_total", c.bad_request.load(Ordering::Relaxed)),
            ("server_io_failed_total", c.io_failed.load(Ordering::Relaxed)),
            ("server_swaps_total", c.swaps.load(Ordering::Relaxed)),
            ("latency_count", merged.count()),
            ("latency_p50_us", p50),
            ("latency_p99_us", p99),
            ("latency_p999_us", p999),
            ("latency_ema_us", self.queue.ema_us.load(Ordering::Relaxed)),
        ] {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaves
/// the threads running until the process exits; call `shutdown` for an
/// orderly drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop plus the worker pool over `handle`.
    pub fn start(
        handle: Arc<IndexHandle>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            handle,
            config,
            queue: Queue {
                ema_us: AtomicU64::new(1000),
                ..Queue::default()
            },
            stop: CancelFlag::new(),
            counters: Counters::default(),
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for wid in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared, wid)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
        }
        Ok(Server {
            addr: local,
            shared,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The epoch handle this server queries (share it to swap
    /// in-process).
    pub fn handle(&self) -> Arc<IndexHandle> {
        Arc::clone(&self.shared.handle)
    }

    /// The current stats-endpoint payload, scraped in-process.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Parks the caller until the stop flag rises — a client `Shutdown`
    /// opcode, typically — then joins every server thread. This is how
    /// a binary serves "forever".
    pub fn shutdown_when_stopped(self) {
        while !self.shared.stop.is_stopped() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Raises the stop flag: stop accepting, cancel in-flight queries
    /// via their budgets, answer queued-but-unstarted queries with
    /// `Stopped`, and joins every server thread.
    pub fn shutdown(mut self) {
        self.shared.stop.stop();
        self.shared.queue.ready.notify_all();
        for t in self.threads.drain(..) {
            // A panicked thread already tore itself down; joining is
            // only for orderly exit, so a Err(_) is ignored here.
            let _ = t.join();
        }
    }
}

/// Accepts connections until the stop flag rises; each connection gets
/// a reader thread (it exits on disconnect or stop). The readers are
/// joined before returning: each holds the served index, so once
/// [`Server::shutdown`] has joined this loop the index — and the page
/// file locks it holds — is released, and the files can be reopened.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.is_stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                readers.retain(|r| !r.is_finished());
                readers.push(std::thread::spawn(move || reader_loop(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for r in readers {
        // A panicked reader already dropped its connection; the join
        // only waits for the others to notice the stop flag.
        let _ = r.join();
    }
}

/// Sends one response frame; a write failure means the client is gone,
/// which is not the server's problem.
fn respond(writer: &Arc<Mutex<TcpStream>>, request_id: u32, resp: &Response) {
    let payload = encode_response(request_id, resp);
    let mut stream = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = write_frame(&mut *stream, &payload);
}

/// Per-connection reader: decodes frames, handles control ops inline,
/// validates and enqueues queries.
fn reader_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // A read timeout lets the reader notice the stop flag between
    // reads instead of blocking in `read` forever. `FrameReader` keeps
    // partial-frame progress across those timeouts, so a slow peer
    // whose frame straddles a timeout (realistic: the length prefix
    // and payload are separate writes on a TCP_NODELAY socket) is
    // resumed, never desynchronized into garbage frames.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    let mut frames = FrameReader::new();
    loop {
        if shared.stop.is_stopped() {
            return;
        }
        let decoded = match frames.read_frame(&mut reader) {
            Ok(payload) => decode_request(payload),
            Err(ProtoError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle between frames, or a slow peer mid-frame: the
                // reader's progress is intact, poll the stop flag and
                // resume.
                continue;
            }
            // Closed or hopeless: drop the connection.
            Err(_) => return,
        };
        match decoded {
            Ok((request_id, req)) => handle_request(shared, &writer, request_id, req),
            Err(_) => {
                // Without a decodable header there is no request_id to
                // echo; answer on id 0 and drop the connection, since
                // framing may be out of sync.
                shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                respond(&writer, 0, &Response::BadRequest("undecodable request".to_string()));
                return;
            }
        }
    }
}

/// Validates a wire query spec into an engine query + deadline.
fn build_query(
    shared: &Shared,
    spec: &QuerySpec,
) -> Result<(NwcQuery, Scheme, Option<Instant>), Box<Response>> {
    let scheme = decode_scheme(spec.scheme_bits)
        .map_err(|_| Box::new(Response::BadRequest("unknown scheme bits".to_string())))?;
    // Every scheme runs on every generation: DEP on an index without a
    // density grid skips DEP, like the library does.
    // `WindowSpec::new` asserts on bad dimensions; the wire carries
    // arbitrary floats, so gate it here with a typed rejection.
    if !(spec.l > 0.0 && spec.w > 0.0 && spec.l.is_finite() && spec.w.is_finite()) {
        return Err(Box::new(Response::BadRequest(
            "window dimensions must be positive and finite".to_string(),
        )));
    }
    let query = NwcQuery::try_new(
        pt(spec.qx, spec.qy),
        WindowSpec::new(spec.l, spec.w),
        spec.n as usize,
        Default::default(),
    )
    .map_err(|e| Box::new(Response::BadRequest(e.to_string())))?;
    let deadline = if spec.deadline_ms > 0 {
        Some(Instant::now() + Duration::from_millis(u64::from(spec.deadline_ms)))
    } else {
        shared.config.default_deadline.map(|d| Instant::now() + d)
    };
    Ok((query, scheme, deadline))
}

fn handle_request(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    request_id: u32,
    req: Request,
) {
    match req {
        Request::Ping => respond(writer, request_id, &Response::Done),
        Request::Stats => {
            respond(writer, request_id, &Response::Stats(shared.metrics_text()));
        }
        Request::Shutdown => {
            if !control_plane_allowed(shared, writer, request_id) {
                return;
            }
            respond(writer, request_id, &Response::Done);
            shared.stop.stop();
            shared.queue.ready.notify_all();
        }
        Request::Swap(path) => {
            if !control_plane_allowed(shared, writer, request_id) {
                return;
            }
            match shared.handle.swap_from_path(&path, shared.config.swap_config) {
                Ok(report) => {
                    shared.counters.swaps.fetch_add(1, Ordering::Relaxed);
                    respond(
                        writer,
                        request_id,
                        &Response::Swapped {
                            old_generation: report.old_generation,
                            new_generation: report.new_generation,
                            drain_us: u64::try_from(report.drain.as_micros())
                                .unwrap_or(u64::MAX),
                            old_pinned: report.old_pinned,
                            drained: report.drained,
                        },
                    );
                }
                Err(e) => {
                    shared.counters.io_failed.fetch_add(1, Ordering::Relaxed);
                    respond(writer, request_id, &Response::IoFailed(e.to_string()));
                }
            }
        }
        Request::Nwc { spec, anytime } => {
            let (query, scheme, deadline) = match build_query(shared, &spec) {
                Ok(q) => q,
                Err(resp) => {
                    shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                    respond(writer, request_id, &resp);
                    return;
                }
            };
            enqueue(
                shared,
                writer,
                request_id,
                Query::Nwc(query),
                scheme,
                deadline,
                anytime,
            );
        }
        Request::Knwc { spec, k, m, anytime } => {
            let (base, scheme, deadline) = match build_query(shared, &spec) {
                Ok(q) => q,
                Err(resp) => {
                    shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                    respond(writer, request_id, &resp);
                    return;
                }
            };
            let query = match KnwcQuery::try_new(
                base.q,
                base.spec,
                base.n,
                k as usize,
                m as usize,
                base.measure,
            ) {
                Ok(q) => q,
                Err(e) => {
                    shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                    respond(writer, request_id, &Response::BadRequest(e.to_string()));
                    return;
                }
            };
            enqueue(
                shared,
                writer,
                request_id,
                Query::Knwc(query),
                scheme,
                deadline,
                anytime,
            );
        }
    }
}

/// Enforces [`ServerConfig::allow_control_plane`]: when the control
/// plane is disabled, answers with a typed refusal and returns false.
fn control_plane_allowed(
    shared: &Shared,
    writer: &Arc<Mutex<TcpStream>>,
    request_id: u32,
) -> bool {
    if shared.config.allow_control_plane {
        return true;
    }
    shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
    respond(
        writer,
        request_id,
        &Response::BadRequest("control plane disabled on this server".to_string()),
    );
    false
}

#[allow(clippy::too_many_arguments)]
fn enqueue(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    request_id: u32,
    query: Query,
    scheme: Scheme,
    deadline: Option<Instant>,
    anytime: Option<AnytimeSpec>,
) {
    if shared.stop.is_stopped() {
        shared.counters.stopped.fetch_add(1, Ordering::Relaxed);
        respond(writer, request_id, &Response::Stopped);
        return;
    }
    let job = Job {
        request_id,
        query,
        scheme,
        deadline,
        anytime,
        writer: Arc::clone(writer),
        enqueued: Instant::now(),
    };
    let (mut job, retry_after_ms, hard) = match shared.admit(job) {
        Ok(()) => return,
        Err(rejected) => rejected,
    };
    // Overload degradation: a *soft* shed (wait estimate, not a full
    // queue) of an anytime-capable request can be admitted anyway with
    // a coarser epsilon — the client asked for graceful degradation
    // and the server is configured to offer it.
    if !hard {
        if let (Some(floor), Some(any)) =
            (shared.config.shed_degrade_epsilon, job.anytime.as_mut())
        {
            any.epsilon = any.epsilon.max(floor);
            match shared.admit_degraded(job) {
                Ok(()) => return,
                Err(back) => job = back,
            }
        }
    }
    let _ = job;
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    respond(writer, request_id, &Response::Shed { retry_after_ms });
}

/// Converts answer groups into wire groups.
fn wire_groups(groups: Vec<KnwcGroup>) -> Vec<WireGroup> {
    groups
        .into_iter()
        .map(|g| WireGroup {
            objects: g
                .objects
                .iter()
                .map(|e| WireObject {
                    id: e.id,
                    x: e.point.x,
                    y: e.point.y,
                })
                .collect(),
            distance: g.distance,
        })
        .collect()
}

/// The fixed worker: pops queries, runs them with an armed budget on
/// the loaded generation, answers, repeats. Never tears down on a
/// per-query failure.
fn worker_loop(shared: &Arc<Shared>, wid: usize) {
    let mut scratch = QueryScratch::new();
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.stop.is_stopped() {
                    break None;
                }
                let (guard, _) = shared
                    .queue
                    .ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        let Some(job) = job else {
            // Stop flag up and the queue empty: the pool drains out.
            return;
        };
        if shared.stop.is_stopped() {
            // Admitted before the stop but never started: typed refusal.
            shared.counters.stopped.fetch_add(1, Ordering::Relaxed);
            respond(&job.writer, job.request_id, &Response::Stopped);
            continue;
        }
        // Execution starts here: `started` feeds the shed EMA (service
        // time only — folding queue wait in would double-count it in
        // the depth × EMA estimate), while `job.enqueued` feeds the
        // latency histogram (what the client experienced, wait
        // included).
        let started = Instant::now();
        // The generation is loaded *here*, pinned for exactly this
        // query: a concurrent swap flips new admissions, not us.
        let generation = shared.handle.load();
        let resp = run(shared, &generation.index, &job, &mut scratch);
        drop(generation);
        let service = started.elapsed();
        let latency = job.enqueued.elapsed();
        if matches!(resp, Response::Groups { .. }) {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.observe_service_time(service);
        }
        if matches!(resp, Response::Partial { .. }) {
            shared.counters.partial.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(stats) = shared.workers.get(wid) {
            stats.hist.record(latency);
        }
        respond(&job.writer, job.request_id, &resp);
    }
}

/// Maps how a search ended to the wire's partial reason: `None` means
/// it completed (a plain `Groups` answer).
fn partial_reason(exhausted: Option<CancelKind>, degraded_shards: usize) -> Option<PartialReason> {
    match exhausted {
        Some(CancelKind::Deadline) => Some(PartialReason::Deadline),
        Some(CancelKind::IoBudget) => Some(PartialReason::IoBudget),
        Some(CancelKind::Stopped) => Some(PartialReason::Stopped),
        None if degraded_shards > 0 => Some(PartialReason::Degraded),
        None => None,
    }
}

/// Runs one job's search under an armed [`Budget`] and maps the outcome
/// to its response. A request without the anytime extension gets the
/// all-or-nothing contract: a budget trip or a failed shard is a typed
/// `Deadline`, `Stopped` or `IoFailed`. An anytime request gets a
/// bounded `Partial` instead.
fn run(shared: &Shared, index: &ServedIndex, job: &Job, scratch: &mut QueryScratch) -> Response {
    // Arm the budget with the request deadline and the server stop
    // flag; the engine checks it at every expand/window boundary.
    let mut budget = Budget::with_flag(&shared.stop);
    if let Some(deadline) = job.deadline {
        budget = budget.deadline(deadline);
    }
    let mut approx = Approx::exact();
    if let Some(any) = job.anytime {
        // The decoder already rejected NaN/negative epsilon; a second
        // typed gate here keeps this path panic-free even if a future
        // caller bypasses the wire.
        approx = match Approx::new(any.epsilon) {
            Ok(a) => a,
            Err(e) => {
                shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                return Response::BadRequest(e.to_string());
            }
        };
        if any.io_budget == 0 {
            // A zero allowance buys nothing: answer immediately with the
            // vacuous bound rather than spinning up a search that trips
            // at the root.
            return Response::Partial {
                groups: Vec::new(),
                stats: SearchStats::default(),
                error_bound: f64::INFINITY,
                lower_bound: 0.0,
                elapsed_us: 0,
                io: 0,
                reason: PartialReason::IoBudget,
            };
        }
        if any.io_budget != u64::MAX {
            budget = budget.io_limit(any.io_budget);
        }
    }
    let req = SearchRequest {
        query: job.query,
        scheme: job.scheme,
        budget,
        approx,
    };
    let searched = index.search(&req, scratch);
    let outcome = match job.anytime {
        Some(_) => searched,
        None => searched.and_then(Outcome::complete),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return error_response(shared, e),
    };
    let (stats, error_bound, lower_bound, spent) =
        (outcome.stats, outcome.error_bound, outcome.lower_bound, outcome.spent);
    let reason = partial_reason(outcome.exhausted, outcome.degraded.len());
    let no_answer = matches!(outcome.answer, Answer::Nwc(None));
    let groups = wire_groups(outcome.into_knwc().groups);
    match reason {
        None => {
            if no_answer {
                shared.counters.no_answer.fetch_add(1, Ordering::Relaxed);
            }
            Response::Groups { groups, stats }
        }
        Some(reason) => Response::Partial {
            groups,
            stats,
            error_bound,
            lower_bound,
            elapsed_us: spent.elapsed_us,
            io: spent.io,
            reason,
        },
    }
}

/// Maps an engine error to its wire response, counting it.
fn error_response(shared: &Shared, e: QueryError) -> Response {
    match e {
        QueryError::Deadline => {
            shared.counters.deadline.fetch_add(1, Ordering::Relaxed);
            Response::Deadline
        }
        QueryError::Cancelled => {
            shared.counters.stopped.fetch_add(1, Ordering::Relaxed);
            Response::Stopped
        }
        QueryError::Io(e) => {
            shared.counters.io_failed.fetch_add(1, Ordering::Relaxed);
            Response::IoFailed(e.to_string())
        }
        // Validation errors were rejected at admission; anything left
        // (a panicked shard worker included) is still a typed refusal,
        // not a panic.
        other => {
            shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
            Response::BadRequest(other.to_string())
        }
    }
}
