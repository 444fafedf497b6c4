//! Deterministic fault injection for page stores.
//!
//! [`FaultStore`] wraps any [`PageStore`] and injects storage failures
//! on a **seeded, scriptable** schedule, so the chaos tests exercise
//! the retry/quarantine machinery reproducibly. The taxonomy mirrors how real disks fail:
//!
//! - **Transient errors** — the read fails, the retry succeeds (a busy
//!   device, an interrupted syscall). Injected at a seeded rate, in
//!   bounded bursts, so any retry budget larger than the burst is
//!   guaranteed to recover.
//! - **Torn / short reads** — the buffer is only partially filled and
//!   the read reports `UnexpectedEof`. One-shot: the retry completes.
//! - **Permanent faults** — a scripted page fails every read (a dead
//!   sector). No retry budget recovers; the caller must surface a typed
//!   error and quarantine the page.
//! - **Bit-rot** — the delegate read *succeeds* but the returned bytes
//!   are flipped after any backend checksum had its chance, modeling
//!   corruption between media and caller (bus, RAM). The page decoder
//!   above must reject the bytes; retrying re-reads the same rot.
//! - **Latency** — an optional fixed delay per physical read, for
//!   measuring retry overhead against slow media.
//!
//! Every injected fault is counted exactly once in [`FaultStats`];
//! tests assert these counters against the reader-side `retries` /
//! `transient_errors` counters to prove no fault is double-counted or
//! silently swallowed.

use crate::error::StoreError;
use crate::store::{PageStore, StoreMeta};
use crate::PAGE_SIZE;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// The fault schedule a [`FaultStore`] injects. Rates are evaluated
/// against a seeded xorshift generator, so a given plan over a given
/// read sequence produces the same faults on every run.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the internal generator; equal seeds replay equal fault
    /// schedules over equal read sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that a read draws a transient-error
    /// burst (the read and the next `transient_burst - 1` attempts on
    /// that page fail, then it recovers).
    pub transient_rate: f64,
    /// Consecutive failures per transient burst (≥ 1). A retry budget
    /// of `transient_burst + 1` attempts always recovers.
    pub transient_burst: u32,
    /// Probability in `[0, 1]` that a read is torn: the buffer is left
    /// partially filled and the read errors. One-shot — independent of
    /// `transient_rate`, recovered by a single retry.
    pub torn_rate: f64,
    /// Fixed extra latency per physical read (models slow media when
    /// measuring retry overhead). `None` = no delay.
    pub latency: Option<Duration>,
}

impl Default for FaultPlan {
    /// No faults, no latency — a transparent wrapper until scripted.
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED_CAFE,
            transient_rate: 0.0,
            transient_burst: 1,
            torn_rate: 0.0,
            latency: None,
        }
    }
}

impl FaultPlan {
    /// A transient-only plan: rate `rate`, single-failure bursts, seeded
    /// with `seed`. Any retry budget of ≥ 2 attempts always recovers.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate,
            ..FaultPlan::default()
        }
    }
}

/// Exact injected-fault counts, one per taxonomy entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected (each failed attempt counts one).
    pub transient: u64,
    /// Torn/short reads injected.
    pub torn: u64,
    /// Reads failed because the page is scripted permanently bad.
    pub permanent: u64,
    /// Successful reads whose returned bytes were rotted.
    pub bitrot: u64,
    /// Reads delayed by the plan's latency.
    pub delayed: u64,
}

impl FaultStats {
    /// Total injected *errors* (faults that surfaced as `Err`; bit-rot
    /// returns `Ok` with bad bytes and is excluded).
    pub fn errors(&self) -> u64 {
        self.transient + self.torn + self.permanent
    }
}

/// Mutable injection state, behind one mutex: the generator plus the
/// scripted page sets.
struct FaultState {
    plan: FaultPlan,
    rng: u64,
    /// Remaining consecutive transient failures per page.
    pending: HashMap<u32, u32>,
    /// Pages that fail every read.
    permanent: HashSet<u32>,
    /// Pages whose bytes are flipped after a successful read.
    bitrot: HashSet<u32>,
}

impl FaultState {
    /// xorshift64 — the repo's seeded-generator idiom. Never yields 0.
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// A uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`PageStore`] wrapper that injects faults per a [`FaultPlan`] —
/// see the module docs for the taxonomy. Wrap it in an `Arc` to keep a
/// scripting/counter handle after handing the store to a tree.
pub struct FaultStore<S: PageStore> {
    inner: S,
    state: Mutex<FaultState>,
    transient: AtomicU64,
    torn: AtomicU64,
    permanent: AtomicU64,
    bitrot: AtomicU64,
    delayed: AtomicU64,
    /// Remaining successful writes before the write path starts
    /// failing (`i64::MAX` = unlimited). Counts `write_page` and
    /// `commit` calls; reads are never charged.
    write_budget: AtomicI64,
    write_faults: AtomicU64,
}

/// What the injection decision said to do with one read.
enum Injection {
    /// Pass through to the delegate.
    None,
    /// Fail with a transient error.
    Transient,
    /// Partially fill the buffer, then fail.
    Torn,
    /// Fail hard — the page is scripted dead.
    Permanent,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner` under `plan`. With the default plan this is a
    /// transparent (but still counting/delaying-capable) wrapper.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        assert!(
            (0.0..=1.0).contains(&plan.transient_rate) && (0.0..=1.0).contains(&plan.torn_rate),
            "fault rates must be probabilities"
        );
        FaultStore {
            inner,
            state: Mutex::new(FaultState {
                // xorshift needs a nonzero state; fold the seed in.
                rng: plan.seed | 1,
                plan,
                pending: HashMap::new(),
                permanent: HashSet::new(),
                bitrot: HashSet::new(),
            }),
            transient: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            permanent: AtomicU64::new(0),
            bitrot: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            write_budget: AtomicI64::new(i64::MAX),
            write_faults: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Replaces the fault schedule and reseeds the generator from the
    /// new plan, so rate-driven injection from this point replays
    /// deterministically. Scripted faults and counters are untouched.
    ///
    /// The intended pattern is open-clean-then-arm: wrap the store with
    /// [`FaultPlan::default`] (transparent), open the index — the open
    /// path has no retry machinery in front of it — then `set_plan` the
    /// real schedule before querying.
    pub fn set_plan(&self, plan: FaultPlan) {
        assert!(
            (0.0..=1.0).contains(&plan.transient_rate) && (0.0..=1.0).contains(&plan.torn_rate),
            "fault rates must be probabilities"
        );
        let mut st = self.lock_state();
        st.rng = plan.seed | 1;
        st.plan = plan;
    }

    /// Scripts the next `times` reads of `page` to fail transiently
    /// (then recover), regardless of `transient_rate`.
    pub fn fail_page_transiently(&self, page: u32, times: u32) {
        let mut st = self.lock_state();
        *st.pending.entry(page).or_insert(0) += times;
    }

    /// Scripts `page` to fail **every** read from now on — a dead
    /// sector no retry budget recovers.
    pub fn fail_page_permanently(&self, page: u32) {
        self.lock_state().permanent.insert(page);
    }

    /// Scripts `page` to *succeed* but return rotted bytes (one byte
    /// flipped after the delegate — and any backend checksum — ran).
    pub fn rot_page(&self, page: u32) {
        self.lock_state().bitrot.insert(page);
    }

    /// Scripts the write path to "die" after `n` more successful
    /// writes: the next `n` [`PageStore::write_page`]/[`PageStore::commit`]
    /// calls pass through, then every later one fails with an injected
    /// I/O error. This is the kill-point lever for crash-consistency
    /// tests — pick `n` to land the failure before the data sync,
    /// between data sync and header flip, and so on.
    pub fn fail_writes_after(&self, n: u64) {
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        self.write_budget.store(n, Ordering::SeqCst);
    }

    /// Injected write failures so far.
    pub fn write_faults(&self) -> u64 {
        self.write_faults.load(Ordering::Relaxed)
    }

    /// One decision per write-path call: consume the budget or fail.
    fn charge_write(&self, what: &str) -> Result<(), StoreError> {
        if self.write_budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            self.write_faults.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Io(io::Error::other(format!(
                "injected write fault ({what})"
            ))));
        }
        Ok(())
    }

    /// Clears every scripted fault (pending bursts, permanent set,
    /// bit-rot set, exhausted write budget). Counters and the
    /// generator are left untouched.
    pub fn clear_faults(&self) {
        let mut st = self.lock_state();
        st.pending.clear();
        st.permanent.clear();
        st.bitrot.clear();
        drop(st);
        self.write_budget.store(i64::MAX, Ordering::SeqCst);
    }

    /// Exact injected-fault counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.transient.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            permanent: self.permanent.load(Ordering::Relaxed),
            bitrot: self.bitrot.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // Injection state is self-consistent after any partial update;
        // recover rather than propagate a poisoned lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One decision per read of `page`: consume a pending burst, then
    /// the permanent set, then the seeded rates.
    fn decide(&self, page: u32) -> Injection {
        let mut st = self.lock_state();
        if let Some(left) = st.pending.get_mut(&page) {
            *left -= 1;
            if *left == 0 {
                st.pending.remove(&page);
            }
            return Injection::Transient;
        }
        if st.permanent.contains(&page) {
            return Injection::Permanent;
        }
        let plan = st.plan;
        if plan.transient_rate > 0.0 && st.unit() < plan.transient_rate {
            // Arm the rest of the burst (this read is failure #1).
            if plan.transient_burst > 1 {
                st.pending.insert(page, plan.transient_burst - 1);
            }
            return Injection::Transient;
        }
        if plan.torn_rate > 0.0 && st.unit() < plan.torn_rate {
            return Injection::Torn;
        }
        Injection::None
    }

    fn delay(&self) {
        let latency = self.lock_state().plan.latency;
        if let Some(latency) = latency {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(latency);
        }
    }

    /// Shared injection wrapper around one single-page read.
    fn read_with_faults(
        &self,
        page: u32,
        buf: &mut [u8],
        read: impl FnOnce(&S, u32, &mut [u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.delay();
        match self.decide(page) {
            Injection::Transient => {
                self.transient.fetch_add(1, Ordering::Relaxed);
                Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient fault reading page {page}"),
                )))
            }
            Injection::Torn => {
                self.torn.fetch_add(1, Ordering::Relaxed);
                // A short read: the first half arrives, the rest is
                // stale, and the syscall reports EOF.
                read(&self.inner, page, buf)?;
                for b in &mut buf[PAGE_SIZE / 2..] {
                    *b = 0;
                }
                Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("injected torn read of page {page}"),
                )))
            }
            Injection::Permanent => {
                self.permanent.fetch_add(1, Ordering::Relaxed);
                Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("injected permanent fault reading page {page}"),
                )))
            }
            Injection::None => {
                read(&self.inner, page, buf)?;
                if self.lock_state().bitrot.contains(&page) {
                    self.bitrot.fetch_add(1, Ordering::Relaxed);
                    // Flip a bit in the page's first byte: past any
                    // backend checksum, and — unlike a mid-page flip,
                    // which can land in unused padding — always inside
                    // the bytes the caller's decoder actually reads.
                    buf[0] ^= 0x40;
                }
                Ok(())
            }
        }
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn meta(&self) -> StoreMeta {
        self.inner.meta()
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_with_faults(page, buf, |s, p, b| s.read_page(p, b))
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_with_faults(page, buf, |s, p, b| s.read_page_uncounted(p, b))
    }

    fn physical_reads(&self) -> u64 {
        self.inner.physical_reads()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }

    fn is_writable(&self) -> bool {
        self.inner.is_writable()
    }

    fn write_page(&self, page: u32, buf: &[u8]) -> Result<(), StoreError> {
        self.charge_write("write_page")?;
        self.inner.write_page(page, buf)
    }

    fn grow(&self, additional: u32) -> Result<u32, StoreError> {
        // Growth is metadata-only until a write lands in the new
        // pages; it does not consume the write budget.
        self.inner.grow(additional)
    }

    fn commit(&self, root_page: u32, user: [u64; 4]) -> Result<(), StoreError> {
        self.charge_write("commit")?;
        self.inner.commit(root_page, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn sample_pages(n: usize) -> Vec<[u8; PAGE_SIZE]> {
        (0..n)
            .map(|i| {
                let mut p = [0u8; PAGE_SIZE];
                for (j, b) in p.iter_mut().enumerate() {
                    *b = ((i * 131 + j * 7) % 251) as u8;
                }
                p
            })
            .collect()
    }

    fn mem(n: usize) -> MemStore {
        MemStore::new(sample_pages(n), 0, [0; 4]).unwrap()
    }

    #[test]
    fn default_plan_is_transparent() {
        let fs = FaultStore::new(mem(3), FaultPlan::default());
        let mut buf = [0u8; PAGE_SIZE];
        for p in 0..3 {
            fs.read_page(p, &mut buf).unwrap();
            assert_eq!(buf[..], sample_pages(3)[p as usize][..]);
        }
        assert_eq!(fs.stats(), FaultStats::default());
        assert_eq!(fs.physical_reads(), 3);
    }

    #[test]
    fn scripted_transient_fails_then_recovers() {
        let fs = FaultStore::new(mem(2), FaultPlan::default());
        fs.fail_page_transiently(1, 2);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(fs.read_page(1, &mut buf).is_err());
        assert!(fs.read_page(1, &mut buf).is_err());
        fs.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[..], sample_pages(2)[1][..]);
        assert_eq!(fs.stats().transient, 2);
        // Other pages were never affected.
        fs.read_page(0, &mut buf).unwrap();
        assert_eq!(fs.stats().transient, 2);
    }

    #[test]
    fn permanent_page_never_recovers() {
        let fs = FaultStore::new(mem(2), FaultPlan::default());
        fs.fail_page_permanently(0);
        let mut buf = [0u8; PAGE_SIZE];
        for _ in 0..5 {
            assert!(fs.read_page(0, &mut buf).is_err());
        }
        assert_eq!(fs.stats().permanent, 5);
        fs.read_page(1, &mut buf).unwrap();
    }

    #[test]
    fn bitrot_returns_ok_with_flipped_byte() {
        let fs = FaultStore::new(mem(2), FaultPlan::default());
        fs.rot_page(1);
        let mut buf = [0u8; PAGE_SIZE];
        fs.read_page(1, &mut buf).unwrap();
        let clean = sample_pages(2)[1];
        assert_ne!(buf[..], clean[..], "bytes arrive corrupted");
        assert_eq!(buf[0], clean[0] ^ 0x40);
        assert_eq!(fs.stats().bitrot, 1);
    }

    #[test]
    fn seeded_rate_is_replayable_and_counted_exactly() {
        let run = |seed| {
            let fs = FaultStore::new(mem(8), FaultPlan::transient(0.3, seed));
            let mut buf = [0u8; PAGE_SIZE];
            let mut outcomes = Vec::new();
            for i in 0..200u32 {
                outcomes.push(fs.read_page(i % 8, &mut buf).is_ok());
            }
            (outcomes, fs.stats())
        };
        let (a_outcomes, a_stats) = run(7);
        let (b_outcomes, b_stats) = run(7);
        assert_eq!(a_outcomes, b_outcomes, "same seed, same schedule");
        assert_eq!(a_stats, b_stats);
        let failures = a_outcomes.iter().filter(|ok| !**ok).count() as u64;
        assert_eq!(a_stats.transient, failures, "every fault counted once");
        assert!(failures > 0, "a 30% rate over 200 reads must fire");
        let (c_outcomes, _) = run(8);
        assert_ne!(a_outcomes, c_outcomes, "different seed, different schedule");
    }

    #[test]
    fn torn_read_partially_fills_and_errors_once() {
        let fs = FaultStore::new(
            mem(1),
            FaultPlan {
                torn_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        let mut buf = [0xAAu8; PAGE_SIZE];
        let err = fs.read_page(0, &mut buf).unwrap_err();
        assert!(err.to_string().contains("torn"));
        let clean = sample_pages(1)[0];
        assert_eq!(buf[..PAGE_SIZE / 2], clean[..PAGE_SIZE / 2], "prefix real");
        assert!(buf[PAGE_SIZE / 2..].iter().all(|&b| b == 0), "tail short");
        assert_eq!(fs.stats().torn, 1);
    }

    #[test]
    fn uncounted_reads_inject_too() {
        let fs = FaultStore::new(mem(2), FaultPlan::default());
        fs.fail_page_transiently(0, 1);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(fs.read_page_uncounted(0, &mut buf).is_err());
        fs.read_page_uncounted(0, &mut buf).unwrap();
        assert_eq!(fs.stats().transient, 1);
        assert_eq!(fs.physical_reads(), 0, "uncounted stays uncounted");
    }

    #[test]
    fn latency_is_applied_and_counted() {
        let fs = FaultStore::new(
            mem(1),
            FaultPlan {
                latency: Some(Duration::from_millis(2)),
                ..FaultPlan::default()
            },
        );
        let mut buf = [0u8; PAGE_SIZE];
        let t0 = std::time::Instant::now();
        fs.read_page(0, &mut buf).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(fs.stats().delayed, 1);
    }
}
