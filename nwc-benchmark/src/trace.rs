//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the trace was
//! enabled), the span that was open on the same thread when it started,
//! a request id and a byte count (store spans only). Recording is off
//! unless [`enable`] was called, and then [`span`] costs one relaxed load.
//! Spans stay in memory until [`take`] hands them to the analysis and the
//! trace file writer.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a span opened with no other span open on its thread.
pub const NO_PARENT: u32 = u32::MAX;

/// Span names: one per layer boundary the benchmark crosses.
pub const CORE_QUERY: &str = "core.query";
pub const CORE_PUSH: &str = "core.push";
pub const STORE_READ: &str = "store.read";
pub const STORE_WRITE: &str = "store.write";
pub const SERVE_CALL: &str = "serve.call";
pub const SERVE_CODEC: &str = "serve.codec";

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is still open.
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    spans: Mutex<Vec<Span>>,
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    epoch: OnceLock::new(),
    spans: Mutex::new(Vec::new()),
};

thread_local! {
    static OPEN: Cell<u32> = const { Cell::new(NO_PARENT) };
}

fn now_ns() -> u64 {
    let epoch = RECORDER.epoch.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panic while holding the lock leaves at worst one span unended,
    // which the analysis tolerates.
    RECORDER
        .spans
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts recording spans (and clears any left from an earlier run).
pub fn enable() {
    now_ns();
    spans().clear();
    RECORDER.enabled.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    RECORDER.enabled.store(false, Ordering::SeqCst);
    std::mem::take(&mut *spans())
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    RECORDER.enabled.load(Ordering::Relaxed)
}

/// Opens a span that ends when the guard drops.
pub fn span(name: &'static str, request: u32, bytes: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: None,
            outer: NO_PARENT,
        };
    }
    let outer = OPEN.with(Cell::get);
    let start_ns = now_ns();
    let id = {
        let mut all = spans();
        let id = u32::try_from(all.len()).unwrap_or(NO_PARENT - 1);
        all.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: outer,
            request,
            bytes,
        });
        id
    };
    OPEN.with(|open| open.set(id));
    SpanGuard {
        id: Some(id),
        outer,
    }
}

/// Ends its span on drop.
pub struct SpanGuard {
    id: Option<u32>,
    outer: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end_ns = now_ns();
        if let Some(span) = spans().get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        OPEN.with(|open| open.set(self.outer));
    }
}

/// The spans as compact JSON: a name table and one
/// `[name, start_ns, end_ns, parent, request, bytes]` row per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::from("{\"names\": [");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\""));
    }
    out.push_str("],\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).unwrap_or(0);
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "[{name}, {}, {}, {parent}, {}, {}]{}\n",
            s.start_ns,
            s.end_ns,
            s.request,
            s.bytes,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}
