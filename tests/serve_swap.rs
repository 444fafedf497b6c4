//! The serving layer's hard guarantees, end to end:
//!
//! - **generation atomicity** — queries racing a hot-swap return
//!   answers valid for exactly one generation, never a torn mix of
//!   both;
//! - **store lifecycle** — the old generation's page file stays
//!   advisory-locked until its last in-flight query finishes, then the
//!   swap closes it (provably: the file can be reopened) with zero
//!   pinned pool frames;
//! - **resilience** — the flip works while a [`FaultStore`] injects
//!   transient read faults under both generations;
//! - **typed refusals over the wire** — deadline-exceeded and shed
//!   requests produce typed responses, the workers survive, and the
//!   pool shows no pin leaks afterwards;
//! - **batch cancellation** — `QueryEngine`'s `*_cancel` batch APIs
//!   observe an external stop flag without tearing down the scope.

use nwc::prelude::*;
use nwc_core::{Budget, CancelFlag, CancelKind, IndexConfig, QueryEngine, QueryError};
use nwc_serve::{IndexHandle, QueryOutcome, ServeClient, Server, ServerConfig};
use nwc_store::{FaultPlan, FaultStore, FileStore, RetryPolicy, StoreError};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_pages(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nwc-serve-swap-{tag}-{}.pages", std::process::id()))
}

/// `count` deterministic points confined to `[lo, hi)²` — two calls
/// with disjoint ranges make generations whose answers cannot be
/// confused.
fn region_points(count: usize, lo: f64, hi: f64, seed: u64) -> Vec<Point> {
    let span = hi - lo;
    (0..count)
        .map(|i| {
            let s = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Point::new(
                lo + (s % 1_000_000) as f64 / 1_000_000.0 * span,
                lo + ((s >> 20) % 1_000_000) as f64 / 1_000_000.0 * span,
            )
        })
        .collect()
}

fn save_region(tag: &str, lo: f64, hi: f64, seed: u64) -> PathBuf {
    let path = temp_pages(tag);
    NwcIndex::build(region_points(4_000, lo, hi, seed))
        .save_tree(&path)
        .expect("saving page file");
    path
}

/// Queries racing a hot-swap must answer from exactly one generation.
/// Generation 1 lives entirely in `[0, 4500)²`, generation 2 entirely
/// in `[5500, 10000)²`; any group mixing the two regions — or any
/// untyped failure — is a torn swap.
#[test]
fn concurrent_queries_across_flip_answer_from_exactly_one_generation() {
    let gen1 = save_region("atomic-g1", 0.0, 4_500.0, 1);
    let gen2 = save_region("atomic-g2", 5_500.0, 10_000.0, 2);
    // Generous admission bounds: this test races the swap, shedding is
    // covered elsewhere and debug-mode queries are slow.
    let config = ServerConfig {
        workers: 3,
        queue_depth: 1024,
        max_estimated_wait: Duration::from_secs(120),
        allow_control_plane: true, // this test swaps over the wire
        ..ServerConfig::default()
    };
    let index = NwcIndex::open_disk(&gen1, config.swap_config).expect("open generation 1");
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .expect("start server");
    let addr = server.local_addr();

    let verdicts: Vec<Result<(usize, usize), String>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut client =
                        ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let (mut from_g1, mut from_g2) = (0usize, 0usize);
                    // Queries everywhere in the space; the serving
                    // generation decides which region answers (NWC
                    // returns the nearest cluster however far away).
                    for (i, q) in region_points(40, 500.0, 9_500.0, 77 + t).iter().enumerate() {
                        match client
                            .nwc(Scheme::NWC_STAR, q.x, q.y, 1_000.0, 1_000.0, 4, 30_000)
                            .map_err(|e| format!("query {i}: {e}"))?
                        {
                            QueryOutcome::Answer { groups, .. } => {
                                for g in &groups {
                                    let g1 = g.objects.iter().all(|o| o.x < 4_500.0 && o.y < 4_500.0);
                                    let g2 = g.objects.iter().all(|o| o.x >= 5_500.0 && o.y >= 5_500.0);
                                    if g1 {
                                        from_g1 += 1;
                                    } else if g2 {
                                        from_g2 += 1;
                                    } else {
                                        return Err(format!(
                                            "torn group mixes generations: {:?}",
                                            g.objects
                                        ));
                                    }
                                }
                            }
                            other => return Err(format!("untyped outcome: {other:?}")),
                        }
                    }
                    Ok((from_g1, from_g2))
                })
            })
            .collect();
        // Flip mid-load.
        std::thread::sleep(Duration::from_millis(15));
        let mut swapper = ServeClient::connect(addr).expect("swap connect");
        let swap = swapper
            .swap(&gen2.display().to_string())
            .expect("swap request")
            .expect("swap accepted");
        assert_eq!(swap.old_generation, 1);
        assert_eq!(swap.new_generation, 2);
        assert_eq!(swap.old_pinned, 0, "pin leak across hot-swap");
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });

    let (mut g1_total, mut g2_total) = (0, 0);
    for v in verdicts {
        let (g1, g2) = v.expect("every query answers, from one generation");
        g1_total += g1;
        g2_total += g2;
    }
    // After the flip, a fresh query must see generation 2 only.
    let mut client = ServeClient::connect(addr).expect("reconnect");
    match client
        .nwc(Scheme::NWC_STAR, 7_000.0, 7_000.0, 1_000.0, 1_000.0, 4, 30_000)
        .expect("post-swap query")
    {
        QueryOutcome::Answer { groups, .. } => {
            assert!(groups[0].objects.iter().all(|o| o.x >= 5_500.0));
        }
        other => panic!("post-swap query failed: {other:?}"),
    }
    assert!(g2_total > 0, "no query observed the new generation");
    // g1_total may be 0 only if the swap won every race; with a 15 ms
    // head start that would mean no query ran at all.
    assert!(g1_total > 0, "no query observed the old generation");

    server.shutdown();
    std::fs::remove_file(&gen1).ok();
    std::fs::remove_file(&gen2).ok();
}

/// The swap must actually close the old store: its advisory lock is
/// held while serving (a second open fails with `StoreError::Locked`)
/// and released once the drained generation drops.
#[test]
fn swap_closes_old_store_and_releases_its_lock() {
    let gen1 = save_region("lock-g1", 0.0, 4_500.0, 3);
    let gen2 = save_region("lock-g2", 5_500.0, 10_000.0, 4);
    let handle = IndexHandle::new(
        NwcIndex::open_disk(&gen1, DiskIndexConfig::default()).expect("open generation 1"),
    );

    // Serving: the page file is exclusively locked.
    match FileStore::open(&gen1) {
        Err(StoreError::Locked { .. }) => {}
        Err(e) => panic!("expected the served file to be locked, got {e}"),
        Ok(_) => panic!("the served file must be locked"),
    }

    let report = handle.swap_index(
        NwcIndex::open_disk(&gen2, DiskIndexConfig::default()).expect("open generation 2"),
    );
    assert!(report.drained, "idle swap must drain immediately");
    assert_eq!(report.old_pinned, 0);

    // Closed: the old file reopens cleanly; the new one is now locked.
    FileStore::open(&gen1).expect("old store must be closed after the swap");
    match FileStore::open(&gen2) {
        Err(StoreError::Locked { .. }) => {}
        Err(e) => panic!("expected the new file to be locked, got {e}"),
        Ok(_) => panic!("the new file must be locked"),
    }

    drop(handle);
    std::fs::remove_file(&gen1).ok();
    std::fs::remove_file(&gen2).ok();
}

/// Opens a region dataset through a transient-fault-injecting store.
fn fault_backed(tag: &str, lo: f64, hi: f64, seed: u64, rate: f64) -> NwcIndex {
    let path = save_region(tag, lo, hi, seed);
    let store = FileStore::open(&path).expect("reopen page file");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let index = NwcIndex::open_disk_from_store(
        Box::new(Arc::clone(&fault)),
        DiskIndexConfig {
            retry: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            ..DiskIndexConfig::default()
        },
    )
    .expect("open through a transparent fault store");
    fault.set_plan(FaultPlan::transient(rate, 0xFA_17 ^ seed));
    std::fs::remove_file(&path).ok();
    index
}

/// The flip keeps working while both generations absorb injected
/// transient read faults: queries racing the swap still only see typed
/// outcomes and single-generation answers.
#[test]
fn hot_swap_survives_transient_store_faults_under_load() {
    let handle = Arc::new(IndexHandle::new(fault_backed("faulty-g1", 0.0, 4_500.0, 5, 0.05)));
    let flag = CancelFlag::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..3 {
            let handle = Arc::clone(&handle);
            let flag = flag.clone();
            joins.push(scope.spawn(move || {
                let mut scratch = nwc_core::QueryScratch::new();
                let queries = region_points(150, 500.0, 9_500.0, 99 + t);
                let mut answered = 0usize;
                for q in &queries {
                    if flag.is_stopped() {
                        break;
                    }
                    let generation = handle.load();
                    let query = NwcQuery::new(*q, WindowSpec::square(1_000.0), 4);
                    match generation.index.try_nwc_full_cancel(
                        &query,
                        Scheme::NWC_STAR,
                        &mut scratch,
                        &Budget::none(),
                    ) {
                        Ok((Some(result), _)) => {
                            let lo = result.objects.iter().all(|o| o.point.x < 4_500.0);
                            let hi = result.objects.iter().all(|o| o.point.x >= 5_500.0);
                            assert!(
                                lo || hi,
                                "torn group under faults: {:?}",
                                result.objects
                            );
                            answered += 1;
                        }
                        Ok((None, _)) => {}
                        Err(e) => panic!("transient faults must stay invisible: {e}"),
                    }
                }
                answered
            }));
        }
        std::thread::sleep(Duration::from_millis(10));
        let report = handle.swap_index(fault_backed("faulty-g2", 5_500.0, 10_000.0, 6, 0.05));
        assert_eq!(report.old_pinned, 0, "pin leak swapping under faults");
        flag.stop();
        let answered: usize = joins.into_iter().map(|j| j.join().expect("no panic")).sum();
        assert!(answered > 0, "the load never answered anything");
    });
    assert_eq!(handle.generation(), 2);
}

/// Over the wire: tight deadlines produce typed `Deadline`, a full
/// admission queue produces typed `Shed` with a retry hint, the workers
/// keep serving afterwards, and the pool ends with zero pinned frames.
#[test]
fn deadline_and_shed_are_typed_and_leak_no_pins() {
    let path = save_region("typed", 0.0, 10_000.0, 7);
    // One worker, a two-deep queue, and per-read latency injected via
    // the fault store so queries are slow enough to pile up.
    let store = FileStore::open(&path).expect("reopen page file");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let index = NwcIndex::open_disk_from_store(
        Box::new(Arc::clone(&fault)),
        DiskIndexConfig {
            pool_capacity: Some(4),
            ..DiskIndexConfig::default()
        },
    )
    .expect("open");
    fault.set_plan(FaultPlan {
        latency: Some(Duration::from_micros(300)),
        ..FaultPlan::default()
    });
    let config = ServerConfig {
        workers: 1,
        queue_depth: 2,
        max_estimated_wait: Duration::from_secs(10),
        default_deadline: None,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .expect("start server");
    let addr = server.local_addr();

    // A tight deadline on a cold, latency-injected index: typed Deadline.
    let mut client = ServeClient::connect(addr).expect("connect");
    match client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 600.0, 600.0, 6, 1)
        .expect("tight-deadline request")
    {
        QueryOutcome::Deadline | QueryOutcome::Answer { .. } => {}
        other => panic!("expected Deadline (or a very fast answer), got {other:?}"),
    }

    // Flood from 8 connections: with one slow worker and a two-deep
    // queue, some requests must shed — and every shed is typed with a
    // non-zero retry hint.
    let tallies: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let (mut ok, mut shed, mut deadline) = (0, 0, 0);
                    for q in region_points(25, 500.0, 9_500.0, 7_000 + t) {
                        match client
                            .nwc(Scheme::NWC_STAR, q.x, q.y, 600.0, 600.0, 6, 5_000)
                            .expect("request")
                        {
                            QueryOutcome::Answer { .. } => ok += 1,
                            QueryOutcome::Shed { retry_after_ms } => {
                                assert!(retry_after_ms > 0, "shed without a retry hint");
                                shed += 1;
                            }
                            QueryOutcome::Deadline => deadline += 1,
                            other => panic!("untyped outcome: {other:?}"),
                        }
                    }
                    (ok, shed, deadline)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().expect("no panic"))
            .collect()
    });
    let ok: usize = tallies.iter().map(|t| t.0).sum();
    let shed: usize = tallies.iter().map(|t| t.1).sum();
    assert!(ok > 0, "server stopped answering under load");
    assert!(shed > 0, "two-deep queue under 8 connections never shed");

    // The server is healthy afterwards: it answers, and the scrape
    // proves zero pinned frames and typed accounting.
    match client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 600.0, 600.0, 6, 5_000)
        .expect("post-flood request")
    {
        QueryOutcome::Answer { .. } => {}
        other => panic!("post-flood query failed: {other:?}"),
    }
    let stats = client.stats().expect("scrape");
    let field = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("scrape is missing `{name}`:\n{stats}"))
    };
    assert_eq!(field("pool_pinned "), 0, "pin leak after deadline/shed load");
    assert!(field("server_shed_total ") >= shed as u64);
    assert!(field("server_completed_total ") >= ok as u64);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Anytime requests over the wire: a budget expiry delivers a typed
/// `Partial` carrying a valid bound instead of a bare `Deadline`, a
/// zero I/O budget answers immediately with the vacuous bound, an
/// exact unlimited anytime request is indistinguishable from a plain
/// answer — and none of it leaks a pin.
#[test]
fn anytime_requests_deliver_bounded_partials_over_the_wire() {
    use nwc_serve::PartialReason;

    let path = save_region("anytime", 0.0, 10_000.0, 21);
    let store = FileStore::open(&path).expect("reopen page file");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let index = NwcIndex::open_disk_from_store(
        Box::new(Arc::clone(&fault)),
        DiskIndexConfig {
            pool_capacity: Some(4),
            ..DiskIndexConfig::default()
        },
    )
    .expect("open");
    let server = Server::start(
        Arc::new(IndexHandle::new(index)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    // Exact + unlimited: the anytime extension must not change the
    // answer — same groups as the legacy request.
    let exact = client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 600.0, 600.0, 6, 30_000)
        .expect("legacy request");
    let QueryOutcome::Answer { groups: exact_groups, .. } = exact else {
        panic!("legacy request failed: {exact:?}");
    };
    match client
        .nwc_anytime(
            Scheme::NWC_STAR,
            5_000.0,
            5_000.0,
            600.0,
            600.0,
            6,
            30_000,
            0.0,
            u64::MAX,
        )
        .expect("exact anytime request")
    {
        QueryOutcome::Answer { groups, .. } => {
            assert_eq!(groups, exact_groups, "exact anytime answer differs");
        }
        other => panic!("exact unlimited anytime must complete: {other:?}"),
    }
    let exact_distance = exact_groups.first().map(|g| g.distance);

    // A zero I/O budget: an immediate empty Partial with the vacuous
    // bound, never a hang or a panic.
    match client
        .nwc_anytime(
            Scheme::NWC_STAR,
            5_000.0,
            5_000.0,
            600.0,
            600.0,
            6,
            30_000,
            0.0,
            0,
        )
        .expect("zero-budget request")
    {
        QueryOutcome::Partial {
            groups,
            error_bound,
            lower_bound,
            io,
            reason,
            ..
        } => {
            assert!(groups.is_empty(), "zero budget bought an answer?");
            assert_eq!(error_bound, f64::INFINITY);
            assert_eq!(lower_bound, 0.0);
            assert_eq!(io, 0);
            assert_eq!(reason, PartialReason::IoBudget);
        }
        other => panic!("zero budget must yield an empty Partial: {other:?}"),
    }

    // A small-but-positive I/O budget under injected latency: either
    // the query finishes inside the allowance (tiny index in cache) or
    // the Partial's bound arithmetic must hold against the exact
    // answer from above.
    fault.set_plan(FaultPlan {
        latency: Some(Duration::from_micros(200)),
        ..FaultPlan::default()
    });
    for io_budget in [1u64, 2, 4, 8, 16] {
        match client
            .nwc_anytime(
                Scheme::NWC_STAR,
                5_000.0,
                5_000.0,
                600.0,
                600.0,
                6,
                30_000,
                0.0,
                io_budget,
            )
            .expect("budgeted request")
        {
            QueryOutcome::Partial {
                groups,
                error_bound,
                lower_bound,
                io,
                reason,
                ..
            } => {
                assert_eq!(reason, PartialReason::IoBudget);
                // The budget is checked between work units (node
                // expansions, candidate passes), so the unit in flight
                // when the check fires can land a few reads past the
                // allowance — bounded by one candidate evaluation,
                // never a runaway search.
                assert!(
                    io <= io_budget.saturating_add(32),
                    "spent {io} ran away past allowance {io_budget}"
                );
                assert!(lower_bound >= 0.0);
                assert!(error_bound >= 0.0 || error_bound.is_infinite());
                if let Some(d_star) = exact_distance {
                    assert!(
                        lower_bound <= d_star + 1e-9,
                        "lower bound {lower_bound} exceeds optimum {d_star}"
                    );
                    if let Some(g) = groups.first() {
                        assert!(
                            g.distance + 1e-9 >= d_star,
                            "partial answer beats the optimum"
                        );
                        assert!(
                            g.distance - error_bound <= d_star + 1e-9,
                            "error bound fails to bracket the optimum"
                        );
                    }
                }
            }
            QueryOutcome::Answer { groups, .. } => {
                assert_eq!(groups, exact_groups, "budgeted completion differs");
            }
            other => panic!("untyped outcome: {other:?}"),
        }
    }

    // A 1 ms deadline with the extension: a Partial (reason Deadline),
    // or a fast completion — never a bare `Deadline` refusal.
    match client
        .nwc_anytime(
            Scheme::NWC_STAR,
            5_000.0,
            5_000.0,
            600.0,
            600.0,
            6,
            1,
            0.0,
            u64::MAX,
        )
        .expect("tight-deadline anytime request")
    {
        QueryOutcome::Partial { reason, lower_bound, .. } => {
            assert_eq!(reason, PartialReason::Deadline);
            assert!(lower_bound >= 0.0);
        }
        QueryOutcome::Answer { .. } => {}
        other => panic!("anytime deadline must be a bounded Partial: {other:?}"),
    }

    // No pins leaked by any of the partial paths.
    let stats = client.stats().expect("scrape");
    let field = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("scrape is missing `{name}`:\n{stats}"))
    };
    assert_eq!(field("pool_pinned "), 0, "pin leak after anytime load");
    assert!(field("server_partial_total ") >= 6);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The engine's batch APIs observe an external stop flag: a pre-stopped
/// batch yields a typed partial per query (not one blanket error), and
/// an unarmed token reproduces `try_nwc_batch` exactly.
#[test]
fn engine_batches_accept_external_cancel_flag() {
    let index = NwcIndex::build(region_points(3_000, 0.0, 10_000.0, 8));
    let engine = QueryEngine::new(&index).with_threads(3);
    let queries: Vec<NwcQuery> = region_points(24, 500.0, 9_500.0, 9)
        .into_iter()
        .map(|q| NwcQuery::new(q, WindowSpec::square(600.0), 5))
        .collect();

    // Unarmed token ≡ the plain batch API.
    let plain = engine.try_nwc_batch(&queries, Scheme::NWC_STAR);
    let unarmed = engine.try_nwc_batch_cancel(&queries, Scheme::NWC_STAR, &Budget::none());
    assert_eq!(plain.len(), unarmed.len());
    for (a, b) in plain.iter().zip(&unarmed) {
        let a = a.as_ref().expect("in-memory batch cannot fail");
        let b = b.as_ref().expect("unarmed cancel batch cannot fail");
        assert!(b.is_complete(), "unarmed token cannot exhaust");
        assert_eq!(b.error_bound, 0.0, "complete exact search has no gap");
        assert_eq!(
            a.0.as_ref().map(|r| r.ids()),
            b.answer.as_ref().map(|r| r.ids()),
            "unarmed token changed an answer"
        );
    }

    // A flag stopped before the batch starts: every slot is its own
    // typed partial with an individually valid (vacuous) bound, nothing
    // panics, and the engine remains usable.
    let flag = CancelFlag::new();
    flag.stop();
    let cancelled =
        engine.try_nwc_batch_cancel(&queries, Scheme::NWC_STAR, &Budget::with_flag(&flag));
    assert_eq!(cancelled.len(), queries.len());
    for slot in &cancelled {
        let p = slot.as_ref().expect("a tripped flag is not an error");
        assert_eq!(p.exhausted, Some(CancelKind::Stopped));
        assert!(p.answer.is_none(), "nothing ran, nothing found");
        assert_eq!(p.error_bound, f64::INFINITY);
        assert!(p.lower_bound >= 0.0);
    }

    // kNWC path too.
    let kq: Vec<KnwcQuery> = queries
        .iter()
        .take(6)
        .map(|q| KnwcQuery::new(q.q, q.spec, 4, 3, 1))
        .collect();
    let cancelled =
        engine.try_knwc_batch_cancel(&kq, Scheme::NWC_PLUS, &Budget::with_flag(&flag));
    for slot in &cancelled {
        let p = slot.as_ref().expect("a tripped flag is not an error");
        assert_eq!(p.exhausted, Some(CancelKind::Stopped));
        assert!(p.result.groups.is_empty());
        assert_eq!(p.error_bound, f64::INFINITY);
    }
    let fine = engine.try_knwc_batch_cancel(&kq, Scheme::NWC_PLUS, &Budget::none());
    assert!(fine
        .iter()
        .all(|r| r.as_ref().is_ok_and(|p| p.is_complete())));
}

/// A slow client whose frame straddles the server's 100 ms read
/// timeout must not be desynchronized: the bytes of one request,
/// dribbled in segments with inter-segment gaps longer than the
/// timeout, still assemble into that request, and the connection stays
/// framed for the next one. (Regression: the reader used to discard
/// partially-read prefix/body bytes on a timeout and reinterpret
/// mid-frame bytes as a new length prefix.)
#[test]
fn slow_client_frames_straddling_read_timeouts_stay_in_sync() {
    use nwc_serve::protocol::{
        decode_response, encode_request, encode_scheme, read_frame, OkShape, QuerySpec, Request,
        Response,
    };
    use std::io::Write;

    let path = save_region("slow", 0.0, 10_000.0, 13);
    let config = ServerConfig::default();
    let index = NwcIndex::open_disk(&path, config.swap_config).expect("open");
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .expect("start server");
    let addr = server.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let spec = QuerySpec {
        scheme_bits: encode_scheme(Scheme::NWC_STAR),
        qx: 5_000.0,
        qy: 5_000.0,
        l: 600.0,
        w: 600.0,
        n: 6,
        deadline_ms: 30_000,
    };
    let payload = encode_request(1, &Request::Nwc { spec, anytime: None });
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);

    // Dribble the frame: split inside the length prefix AND inside the
    // body, pausing well past the server's 100 ms read timeout at each
    // cut so every segment lands in a different timed-out read.
    for chunk in [&frame[..2], &frame[2..6], &frame[6..20], &frame[20..]] {
        stream.write_all(chunk).expect("segment write");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(150));
    }

    let mut buf = Vec::new();
    read_frame(&mut stream, &mut buf).expect("response frame");
    let (id, resp) = decode_response(&buf, OkShape::Groups).expect("decodable response");
    assert_eq!(id, 1, "response for the dribbled request");
    assert!(
        matches!(resp, Response::Groups { .. }),
        "the dribbled request must execute, got {resp:?}"
    );

    // The connection is still framed: a normally-written second request
    // on the same socket answers too.
    let payload = encode_request(2, &Request::Nwc { spec, anytime: None });
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    stream.write_all(&frame).expect("second request");
    read_frame(&mut stream, &mut buf).expect("second response frame");
    let (id, resp) = decode_response(&buf, OkShape::Groups).expect("second decode");
    assert_eq!(id, 2);
    assert!(matches!(resp, Response::Groups { .. }));

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The wire control plane is **off by default**: `Swap` and `Shutdown`
/// get typed refusals, the served index and the process survive, and
/// queries keep flowing.
#[test]
fn control_plane_disabled_by_default_refuses_swap_and_shutdown() {
    let gen1 = save_region("ctl-g1", 0.0, 10_000.0, 14);
    let gen2 = save_region("ctl-g2", 0.0, 10_000.0, 15);
    let config = ServerConfig::default();
    assert!(!config.allow_control_plane, "gate must default off");
    let index = NwcIndex::open_disk(&gen1, config.swap_config).expect("open generation 1");
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .expect("start server");
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    match client.swap(&gen2.display().to_string()).expect("swap roundtrip") {
        Err(msg) => assert!(msg.contains("control plane"), "unexpected refusal: {msg}"),
        Ok(swap) => panic!("swap must be refused with the gate off, got {swap:?}"),
    }
    // Shutdown is refused too (the one-shot client surfaces the
    // unexpected status as an error) and the server keeps serving.
    assert!(client.shutdown().is_err(), "shutdown must be refused");

    let mut client = ServeClient::connect(addr).expect("reconnect");
    match client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 600.0, 600.0, 6, 30_000)
        .expect("query after refused control ops")
    {
        QueryOutcome::Answer { .. } => {}
        other => panic!("server must still answer after refusals: {other:?}"),
    }
    let stats = client.stats().expect("scrape");
    assert!(
        stats.contains("server_generation 1"),
        "index swapped despite the gate:\n{stats}"
    );
    assert!(stats.contains("server_swaps_total 0"));

    server.shutdown();
    std::fs::remove_file(&gen1).ok();
    std::fs::remove_file(&gen2).ok();
}

/// A generation built without a density grid still answers every
/// scheme over the wire: DEP has nothing to prune with and is skipped,
/// as in the library, so NWC\* returns the library's NWC+ groups.
#[test]
fn a_generation_without_a_grid_answers_dep_schemes_like_the_library() {
    let points = region_points(3_000, 0.0, 10_000.0, 21);
    let lean = IndexConfig {
        grid_cell_size: None,
        ..IndexConfig::default()
    };
    let library = NwcIndex::build_with(points.clone(), lean);
    let served = NwcIndex::build_with(points, lean);
    let server = Server::start(
        Arc::new(IndexHandle::new(served)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let mut found = 0;
    for (qi, q) in Dataset::query_points(4, 21).into_iter().enumerate() {
        let query = NwcQuery::new(q, WindowSpec::square(400.0), 5);
        let want = library.nwc(&query, Scheme::NWC_PLUS).map(|r| (r.ids(), r.distance));
        found += usize::from(want.is_some());
        for scheme in [Scheme::DEP, Scheme::NWC_STAR] {
            let got = match client
                .nwc(scheme, q.x, q.y, 400.0, 400.0, 5, 30_000)
                .expect("roundtrip")
            {
                QueryOutcome::Answer { groups, .. } => groups
                    .first()
                    .map(|g| (g.objects.iter().map(|o| o.id).collect::<Vec<_>>(), g.distance)),
                other => panic!("q{qi}/{scheme}: expected an answer, got {other:?}"),
            };
            assert_eq!(got, want, "q{qi}/{scheme}");
        }
    }
    assert!(found > 0, "no query found a group: the comparison proves nothing");
    server.shutdown();
}

/// A deadline that fires mid-search over a disk-backed index surfaces
/// as `QueryError::Deadline` with every pin released — the index
/// answers the same query again afterwards.
#[test]
fn deadline_mid_search_releases_pins_and_index_survives() {
    let path = save_region("midsearch", 0.0, 10_000.0, 10);
    let store = FileStore::open(&path).expect("reopen");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let index = NwcIndex::open_disk_from_store(
        Box::new(Arc::clone(&fault)),
        DiskIndexConfig {
            pool_capacity: Some(4),
            ..DiskIndexConfig::default()
        },
    )
    .expect("open");
    // 500 µs per physical read guarantees the 1 ms deadline fires
    // mid-traversal, not before the search starts.
    fault.set_plan(FaultPlan {
        latency: Some(Duration::from_micros(500)),
        ..FaultPlan::default()
    });

    let query = NwcQuery::new(Point::new(5_000.0, 5_000.0), WindowSpec::square(600.0), 6);
    let mut scratch = nwc_core::QueryScratch::new();
    let token =
        Budget::with_deadline(std::time::Instant::now() + Duration::from_millis(1));
    match index.try_nwc_full_cancel(&query, Scheme::NWC_STAR, &mut scratch, &token) {
        Err(QueryError::Deadline) => {}
        Ok(_) => panic!("a 1 ms budget at 500 µs/read cannot finish"),
        Err(e) => panic!("expected Deadline, got {e}"),
    }
    let storage = index.tree().storage().expect("disk-backed");
    assert_eq!(storage.pool_stats().pinned, 0, "cancelled search leaked pins");

    // Same query, no deadline: the index is fully usable.
    let (result, _) = index
        .try_nwc_full_cancel(&query, Scheme::NWC_STAR, &mut scratch, &Budget::none())
        .expect("index survives a cancelled search");
    assert!(result.is_some());

    drop(index);
    std::fs::remove_file(&path).ok();
}
