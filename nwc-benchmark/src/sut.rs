//! The benchmark's single adapter into the library: every call the
//! benchmark makes into `nwc-core`, `nwc-serve`, `nwc-store`,
//! `nwc-datagen` and `nwc-geom` is in this file, so an API change is
//! absorbed here and the workloads stay as they are.
//!
//! The entry points the benchmark depends on, which a redesign of the
//! query API should keep (or keep as wrappers):
//!
//! - `nwc_datagen::Dataset::paper_trio_scaled`, `nwc_datagen::SplitMix64`
//!   and `nwc_datagen::{CA_CARDINALITY, NY_CARDINALITY}`;
//! - `NwcIndex::{build, save_tree_with_layout, save_tree_writable,
//!   open_disk, open_disk_from_store, try_nwc_full_with, try_knwc_with,
//!   try_nwc_anytime_with, len, points, is_live}` with
//!   `DiskIndexConfig`, `PageLayout::Clustered`, `NwcQuery`, `KnwcQuery`,
//!   `Scheme::{NWC_STAR, NWC_PLUS}`, `Budget::with_io_limit` and
//!   `Approx::exact`;
//! - `ShardedNwcIndex::{build, save_to_dir, open_dir, with_threads,
//!   try_nwc_full_cancel, try_knwc_cancel, try_nwc_anytime}`;
//! - `StreamingIngestor::{new, push, commit, commits, index}` with
//!   `IngestConfig`;
//! - `Server::{start, local_addr, handle, shutdown}`, `ServerConfig`,
//!   `IndexHandle::{new, load}` and `ServedIndex::Sharded`;
//! - `ServeClient::{connect, nwc, knwc, nwc_anytime, stats}` and
//!   `QueryOutcome`;
//! - the `PageStore` trait (every method, forwarded by [`TimedStore`]),
//!   `FileStore::open` and `StoreMeta`;
//! - `protocol::{encode_request, decode_request, encode_response,
//!   decode_response, encode_scheme}`;
//! - `MetricsSnapshot::{capture, capture_sharded}`;
//! - `nwc_geom::kernel_backend`.

use crate::trace;
use nwc_core::{
    Approx, Budget, CancelToken, DiskIndexConfig, IngestConfig, KnwcQuery, MetricsSnapshot,
    NwcQuery, PageLayout, PageStore, WindowSpec,
};
use nwc_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, encode_scheme,
};
use nwc_serve::{
    AnytimeSpec, IndexHandle, OkShape, QueryOutcome, QuerySpec, Request, Response, ServedIndex,
    ServerConfig, WireGroup, WireObject,
};
use nwc_store::{FileStore, StoreError, StoreMeta};
use std::path::Path;
use std::sync::Arc;

pub use nwc_core::{NwcIndex, Point, QueryError, QueryScratch, Scheme, SearchStats};
pub use nwc_core::{ShardedNwcIndex, StreamingIngestor};
pub use nwc_serve::{ServeClient, Server};

/// The paper's CA and NY cardinalities.
pub const CA_POINTS: usize = nwc_datagen::CA_CARDINALITY;
pub const NY_POINTS: usize = nwc_datagen::NY_CARDINALITY;

/// Which kernel implementation this host runs (`avx2` or `portable`).
pub fn kernel_backend() -> &'static str {
    nwc_geom::kernel_backend()
}

/// `n` points of the CA-like dataset for `seed` (the CA stand-in itself
/// when `n` is the CA cardinality).
pub fn ca_like(n: usize, seed: u64) -> Vec<Point> {
    take_dataset(nwc_datagen::Dataset::paper_trio_scaled(n, 1, 1, seed), 0)
}

/// `n` points of the NY-like dataset for `seed`.
pub fn ny_like(n: usize, seed: u64) -> Vec<Point> {
    take_dataset(nwc_datagen::Dataset::paper_trio_scaled(1, n, 1, seed), 1)
}

fn take_dataset(trio: Vec<nwc_datagen::Dataset>, which: usize) -> Vec<Point> {
    trio.into_iter()
        .nth(which)
        .map(|d| d.points)
        .unwrap_or_default()
}

/// Two numbers in `[0, 1)` drawn from `seed`.
pub fn unit_pair(seed: u64) -> (f64, f64) {
    let mut rng = nwc_datagen::SplitMix64::new(seed);
    (rng.next_f64(), rng.next_f64())
}

/// Shuffles `items` in an order drawn from `seed` (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = nwc_datagen::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_usize(i + 1));
    }
}

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Nwc,
    Knwc {
        k: usize,
        m: usize,
    },
    /// Anytime NWC with ε = 0 and a logical-I/O allowance.
    Anytime {
        io_budget: u64,
    },
}

/// One request: a query location, a square window side, a group size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub q: Point,
    pub side: f64,
    pub n: usize,
    pub kind: Kind,
}

impl Op {
    fn nwc_query(&self) -> NwcQuery {
        NwcQuery::new(self.q, WindowSpec::square(self.side), self.n)
    }

    fn knwc_query(&self, k: usize, m: usize) -> KnwcQuery {
        KnwcQuery::new(self.q, WindowSpec::square(self.side), self.n, k, m)
    }
}

/// One answer group: object ids with their locations, and its score.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    pub objects: Vec<(u32, Point)>,
    pub distance: f64,
}

/// An answer, exact or bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub groups: Vec<Group>,
    pub stats: SearchStats,
    /// `Some(error bound)` when a budget stopped the search early.
    pub error_bound: Option<f64>,
}

fn group(objects: impl Iterator<Item = (u32, Point)>, distance: f64) -> Group {
    Group {
        objects: objects.collect(),
        distance,
    }
}

fn nwc_answer(result: Option<nwc_core::NwcResult>, stats: SearchStats) -> Answer {
    Answer {
        groups: result
            .map(|r| group(r.objects.iter().map(|e| (e.id, e.point)), r.distance))
            .into_iter()
            .collect(),
        stats,
        error_bound: None,
    }
}

fn knwc_answer(result: nwc_core::KnwcResult) -> Answer {
    Answer {
        groups: result
            .groups
            .iter()
            .map(|g| group(g.objects.iter().map(|e| (e.id, e.point)), g.distance))
            .collect(),
        stats: result.stats,
        error_bound: None,
    }
}

fn anytime_answer(a: nwc_core::AnytimeNwc) -> Answer {
    let bound = a.is_partial().then_some(a.error_bound);
    let mut answer = nwc_answer(a.answer, a.stats);
    answer.error_bound = bound;
    answer
}

/// Runs `op` on an unsharded index with a warm scratch.
pub fn run(
    index: &NwcIndex,
    op: &Op,
    scheme: Scheme,
    scratch: &mut QueryScratch,
) -> Result<Answer, QueryError> {
    match op.kind {
        Kind::Nwc => {
            let (result, stats) = index.try_nwc_full_with(&op.nwc_query(), scheme, scratch)?;
            Ok(nwc_answer(result, stats))
        }
        Kind::Knwc { k, m } => Ok(knwc_answer(index.try_knwc_with(
            &op.knwc_query(k, m),
            scheme,
            scratch,
        )?)),
        Kind::Anytime { io_budget } => Ok(anytime_answer(index.try_nwc_anytime_with(
            &op.nwc_query(),
            scheme,
            scratch,
            &Budget::with_io_limit(io_budget),
            Approx::exact(),
        )?)),
    }
}

/// Runs `op` on a sharded index by scatter-gather, as a server worker
/// does.
pub fn run_sharded(
    index: &ShardedNwcIndex,
    op: &Op,
    scheme: Scheme,
    scratch: &mut QueryScratch,
) -> Result<Answer, QueryError> {
    let none = CancelToken::none();
    match op.kind {
        Kind::Nwc => {
            let (result, stats) =
                index.try_nwc_full_cancel(&op.nwc_query(), scheme, scratch, &none)?;
            Ok(nwc_answer(result, stats))
        }
        Kind::Knwc { k, m } => Ok(knwc_answer(index.try_knwc_cancel(
            &op.knwc_query(k, m),
            scheme,
            scratch,
            &none,
        )?)),
        Kind::Anytime { io_budget } => {
            let sharded = index.try_nwc_anytime(
                &op.nwc_query(),
                scheme,
                &Budget::with_io_limit(io_budget),
                Approx::exact(),
            )?;
            let complete = sharded.is_complete();
            let bound = sharded.anytime.error_bound;
            let mut answer = anytime_answer(sharded.anytime);
            answer.error_bound = (!complete).then_some(bound);
            Ok(answer)
        }
    }
}

// ----------------------------------------------------------------------
// Index construction and persistence.
// ----------------------------------------------------------------------

/// Builds an in-memory index with every structure (grid and IWP).
pub fn build(points: Vec<Point>) -> NwcIndex {
    NwcIndex::build(points)
}

/// Saves a read-only page file with sibling leaves on consecutive pages.
pub fn save_clustered(index: &NwcIndex, path: &Path) -> Result<(), String> {
    index
        .save_tree_with_layout(path, PageLayout::Clustered)
        .map_err(|e| e.to_string())
}

/// Saves a writable (version-2) page file.
pub fn save_writable(index: &NwcIndex, path: &Path) -> Result<(), String> {
    index.save_tree_writable(path).map_err(|e| e.to_string())
}

/// Pages in a saved page file.
pub fn page_count(path: &Path) -> Result<u32, String> {
    Ok(FileStore::open(path)
        .map_err(|e| e.to_string())?
        .meta()
        .page_count)
}

fn disk_config(pool_frames: Option<usize>) -> DiskIndexConfig {
    DiskIndexConfig {
        pool_capacity: pool_frames,
        ..DiskIndexConfig::default()
    }
}

/// Opens a page file as a disk-backed index with the shipped defaults
/// and a pool of `pool_frames` pages (`None` = unbounded).
pub fn open(path: &Path, pool_frames: Option<usize>) -> Result<NwcIndex, String> {
    NwcIndex::open_disk(path, disk_config(pool_frames)).map_err(|e| e.to_string())
}

/// As [`open`], with every page-store call timed by a [`TimedStore`].
pub fn open_timed(path: &Path, pool_frames: Option<usize>) -> Result<NwcIndex, String> {
    let store = FileStore::open(path).map_err(|e| e.to_string())?;
    NwcIndex::open_disk_from_store(Box::new(TimedStore::new(store)), disk_config(pool_frames))
        .map_err(|e| e.to_string())
}

/// Live objects in an index.
pub fn len(index: &NwcIndex) -> usize {
    index.len()
}

/// The locations of the live objects of an index.
pub fn live_points(index: &NwcIndex) -> Vec<Point> {
    index
        .points()
        .iter()
        .enumerate()
        .filter(|&(id, _)| u32::try_from(id).is_ok_and(|id| index.is_live(id)))
        .map(|(_, &p)| p)
        .collect()
}

/// Buffer-pool and storage counters of a disk-backed index (all zero
/// for an in-memory one).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreCounters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub peak_resident_nodes: u64,
}

fn store_counters(snapshot: &MetricsSnapshot) -> StoreCounters {
    let pool = snapshot.pool.unwrap_or_default();
    StoreCounters {
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pool_evictions: pool.evictions,
        peak_resident_nodes: snapshot.io.peak_resident_nodes,
    }
}

/// The storage counters of an index.
pub fn counters(index: &NwcIndex) -> StoreCounters {
    store_counters(&MetricsSnapshot::capture(index))
}

/// The storage counters summed over the shards of a sharded index.
pub fn counters_sharded(index: &ShardedNwcIndex) -> StoreCounters {
    store_counters(&MetricsSnapshot::capture_sharded(index))
}

// ----------------------------------------------------------------------
// Sharding.
// ----------------------------------------------------------------------

/// Splits `points` into `shards` STR tiles, saves them under `dir`,
/// and reopens them with the shipped defaults: an unbounded pool and a
/// scatter width of one thread per core.
pub fn build_save_open_sharded(
    points: Vec<Point>,
    shards: usize,
    dir: &Path,
) -> Result<ShardedNwcIndex, String> {
    ShardedNwcIndex::build(points, shards)
        .save_to_dir(dir)
        .map_err(|e| e.to_string())?;
    ShardedNwcIndex::open_dir(dir, DiskIndexConfig::default()).map_err(|e| e.to_string())
}

/// Opens the shards saved under `dir` with a scatter width of one, so
/// the shards are searched one after another in a fixed order and the
/// search counters of a query do not depend on thread timing.
pub fn open_sharded_sequential(dir: &Path) -> Result<ShardedNwcIndex, String> {
    Ok(ShardedNwcIndex::open_dir(dir, DiskIndexConfig::default())
        .map_err(|e| e.to_string())?
        .with_threads(1))
}

// ----------------------------------------------------------------------
// Streaming ingest.
// ----------------------------------------------------------------------

/// A sliding-window ingestor over `index`.
pub fn ingestor(index: NwcIndex, capacity: usize, commit_every: usize) -> StreamingIngestor {
    StreamingIngestor::new(
        index,
        IngestConfig {
            capacity,
            commit_every,
        },
    )
}

/// Pushes one point; returns whether the push committed.
pub fn push(ingest: &mut StreamingIngestor, point: Point) -> Result<bool, String> {
    let commits = ingest.commits();
    ingest.push(point).map_err(|e| e.to_string())?;
    Ok(ingest.commits() > commits)
}

/// Commits pending writes.
pub fn commit(ingest: &mut StreamingIngestor) -> Result<(), String> {
    ingest.commit().map_err(|e| e.to_string())
}

/// The index an ingestor writes to.
pub fn ingest_index(ingest: &StreamingIngestor) -> &NwcIndex {
    ingest.index()
}

// ----------------------------------------------------------------------
// Serving.
// ----------------------------------------------------------------------

/// Serves `index` on an ephemeral localhost port with `workers` workers
/// and otherwise default settings.
pub fn start_server(index: ShardedNwcIndex, workers: usize) -> std::io::Result<Server> {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
}

/// The address a server listens on.
pub fn server_addr(server: &Server) -> std::net::SocketAddr {
    server.local_addr()
}

/// Stops a server and joins its threads.
pub fn stop_server(server: Server) {
    server.shutdown();
}

/// Runs `f` on the sharded index a server currently serves.
pub fn with_served<R>(server: &Server, f: impl FnOnce(&ShardedNwcIndex) -> R) -> Option<R> {
    let generation = server.handle().load();
    match &generation.index {
        ServedIndex::Sharded(index) => Some(f(index)),
        ServedIndex::Single(_) => None,
    }
}

/// Opens a client connection.
pub fn connect(addr: std::net::SocketAddr) -> Result<ServeClient, String> {
    ServeClient::connect(addr).map_err(|e| e.to_string())
}

/// The typed outcome of one request over the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// An exact answer, or a bounded one when `error_bound` is set.
    Answered(Answer),
    Deadline,
    Shed,
    /// Anything the protocol does not type as an answer or a refusal:
    /// a bad request, a failed read, a draining server, a broken socket.
    Untyped(String),
}

fn wire_answer(groups: Vec<WireGroup>, stats: SearchStats, error_bound: Option<f64>) -> Answer {
    Answer {
        groups: groups
            .into_iter()
            .map(|g| {
                group(
                    g.objects.iter().map(|o| (o.id, Point::new(o.x, o.y))),
                    g.distance,
                )
            })
            .collect(),
        stats,
        error_bound,
    }
}

/// Sends `op` (scheme NWC\*) and waits for its outcome.
pub fn call(client: &mut ServeClient, op: &Op, deadline_ms: u32) -> Outcome {
    let (x, y, side, n) = (op.q.x, op.q.y, op.side, op.n as u32);
    let scheme = Scheme::NWC_STAR;
    let sent = match op.kind {
        Kind::Nwc => client.nwc(scheme, x, y, side, side, n, deadline_ms),
        Kind::Knwc { k, m } => {
            client.knwc(scheme, x, y, side, side, n, k as u32, m as u32, deadline_ms)
        }
        Kind::Anytime { io_budget } => {
            client.nwc_anytime(scheme, x, y, side, side, n, deadline_ms, 0.0, io_budget)
        }
    };
    match sent {
        Ok(QueryOutcome::Answer { groups, stats }) => {
            Outcome::Answered(wire_answer(groups, stats, None))
        }
        Ok(QueryOutcome::Partial {
            groups,
            stats,
            error_bound,
            ..
        }) => Outcome::Answered(wire_answer(groups, stats, Some(error_bound))),
        Ok(QueryOutcome::Deadline) => Outcome::Deadline,
        Ok(QueryOutcome::Shed { .. }) => Outcome::Shed,
        Ok(other) => Outcome::Untyped(format!("{other:?}")),
        Err(e) => Outcome::Untyped(e.to_string()),
    }
}

/// Scrapes the server's counters over the Stats opcode.
pub fn server_stats(client: &mut ServeClient) -> Result<Vec<(String, u64)>, String> {
    let text = client.stats().map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Encodes and decodes `op` as a request and `answer` as its response,
/// as client and server do; returns whether both survive the trip.
pub fn codec_roundtrip(request_id: u32, op: &Op, answer: &Answer, deadline_ms: u32) -> bool {
    let spec = QuerySpec {
        scheme_bits: encode_scheme(Scheme::NWC_STAR),
        qx: op.q.x,
        qy: op.q.y,
        l: op.side,
        w: op.side,
        n: op.n as u32,
        deadline_ms,
    };
    let request = match op.kind {
        Kind::Nwc => Request::Nwc {
            spec,
            anytime: None,
        },
        Kind::Knwc { k, m } => Request::Knwc {
            spec,
            k: k as u32,
            m: m as u32,
            anytime: None,
        },
        Kind::Anytime { io_budget } => Request::Nwc {
            spec,
            anytime: Some(AnytimeSpec {
                epsilon: 0.0,
                io_budget,
            }),
        },
    };
    let response = Response::Groups {
        groups: answer
            .groups
            .iter()
            .map(|g| WireGroup {
                objects: g
                    .objects
                    .iter()
                    .map(|&(id, p)| WireObject { id, x: p.x, y: p.y })
                    .collect(),
                distance: g.distance,
            })
            .collect(),
        stats: answer.stats,
    };
    let request_ok = decode_request(&encode_request(request_id, &request))
        .is_ok_and(|(id, back)| id == request_id && back == request);
    let response_ok = decode_response(&encode_response(request_id, &response), OkShape::Groups)
        .is_ok_and(|(id, back)| id == request_id && back == response);
    request_ok && response_ok
}

// ----------------------------------------------------------------------
// Page-store timing.
// ----------------------------------------------------------------------

/// A [`PageStore`] that records a span around every read and write of
/// the store it wraps, and otherwise forwards each call unchanged. It
/// forwards the trait's defaulted methods too: left to their defaults,
/// a writable store would turn read-only and vectored runs would split
/// into single-page reads.
pub struct TimedStore<S> {
    inner: S,
}

impl<S: PageStore> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        TimedStore { inner }
    }
}

fn bytes(len: usize) -> u64 {
    u64::try_from(len).unwrap_or(u64::MAX)
}

impl<S: PageStore> PageStore for TimedStore<S> {
    fn meta(&self) -> StoreMeta {
        self.inner.meta()
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_READ, page, bytes(buf.len()));
        self.inner.read_page(page, buf)
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_READ, page, bytes(buf.len()));
        self.inner.read_page_uncounted(page, buf)
    }

    fn read_run_uncounted(&self, first: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_READ, first, bytes(buf.len()));
        self.inner.read_run_uncounted(first, buf)
    }

    fn physical_reads(&self) -> u64 {
        self.inner.physical_reads()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
    }

    fn sync(&self) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_WRITE, 0, 0);
        self.inner.sync()
    }

    fn is_writable(&self) -> bool {
        self.inner.is_writable()
    }

    fn write_page(&self, page: u32, buf: &[u8]) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_WRITE, page, bytes(buf.len()));
        self.inner.write_page(page, buf)
    }

    fn grow(&self, additional: u32) -> Result<u32, StoreError> {
        let _span = trace::span(trace::STORE_WRITE, additional, 0);
        self.inner.grow(additional)
    }

    fn commit(&self, root_page: u32, user: [u64; 4]) -> Result<(), StoreError> {
        let _span = trace::span(trace::STORE_WRITE, root_page, 0);
        self.inner.commit(root_page, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrapped and the plain store must run the same program:
    /// identical answers, search and pool counters, and file bytes
    /// after a commit.
    #[test]
    fn timed_store_matches_the_plain_store() {
        let _serial = crate::tests::serial();
        let dir = crate::tests::scratch_dir("timed-store");
        let points = ca_like(600, 7);
        let stream = ca_like(200, 8);
        let plain_path = dir.join("plain.pages");
        let timed_path = dir.join("timed.pages");
        let arena = build(points);
        save_writable(&arena, &plain_path).expect("save plain");
        save_writable(&arena, &timed_path).expect("save timed");
        let plain = open(&plain_path, Some(3)).expect("open plain");
        let timed = open_timed(&timed_path, Some(3)).expect("open timed");

        trace::enable();
        let ops: Vec<Op> = crate::workloads::query_points(24, 3)
            .into_iter()
            .enumerate()
            .map(|(i, q)| Op {
                q,
                side: 64.0,
                n: 4,
                kind: match i % 3 {
                    0 => Kind::Nwc,
                    1 => Kind::Knwc { k: 3, m: 1 },
                    _ => Kind::Anytime { io_budget: 16 },
                },
            })
            .collect();
        let mut scratch = QueryScratch::new();
        for op in &ops {
            let a = run(&plain, op, Scheme::NWC_STAR, &mut scratch).expect("plain query");
            let b = run(&timed, op, Scheme::NWC_STAR, &mut scratch).expect("timed query");
            assert_eq!(a, b, "answers differ for {op:?}");
        }
        assert_eq!(counters(&plain), counters(&timed));

        let mut plain = ingestor(plain, 600, 64);
        let mut timed = ingestor(timed, 600, 64);
        for &p in &stream {
            assert_eq!(push(&mut plain, p), push(&mut timed, p));
        }
        commit(&mut plain).expect("commit plain");
        commit(&mut timed).expect("commit timed");
        let probe = Op {
            q: Point::new(5_000.0, 5_000.0),
            side: 64.0,
            n: 4,
            kind: Kind::Nwc,
        };
        assert_eq!(
            run(ingest_index(&plain), &probe, Scheme::NWC_PLUS, &mut scratch),
            run(ingest_index(&timed), &probe, Scheme::NWC_PLUS, &mut scratch),
        );
        assert_eq!(
            counters(ingest_index(&plain)),
            counters(ingest_index(&timed))
        );
        drop((plain, timed));
        let spans = trace::take();
        assert!(spans.iter().any(|s| s.name == trace::STORE_READ));
        assert!(spans
            .iter()
            .any(|s| s.name == trace::STORE_WRITE && s.bytes > 0));
        let plain_bytes = std::fs::read(&plain_path).expect("read plain file");
        let timed_bytes = std::fs::read(&timed_path).expect("read timed file");
        assert!(plain_bytes == timed_bytes, "page files differ after commit");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
