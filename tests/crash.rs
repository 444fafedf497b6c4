//! Kill-point crash-consistency matrix for the shadow-paging commit.
//!
//! The write path promises that a crash at *any* instant leaves the page
//! file openable as exactly one of two trees: the last committed state
//! (the mutation batch is lost) or the new state (the commit landed) —
//! never a decode error, never a hybrid. The commit ordering under test:
//!
//! 1. shadow pages written (never over a page the old root reaches);
//! 2. data `sync_all`;
//! 3. inactive header slot written with the new root + generation;
//! 4. header `sync_all` — the atomic flip.
//!
//! Two attack styles: **byte surgery** (reconstruct the file as a crash
//! at each ordering point would leave it, including torn header slots
//! that must fall back to the sibling slot via the CRC) and **write
//! fault injection** (a [`FaultStore`] kills the real commit at every
//! write index in turn; each aborted commit must be retryable in
//! memory *and* recoverable by reopening from disk).

use nwc::prelude::*;
use nwc::rtree::validate;
use nwc_store::{FaultPlan, FaultStore, FileStore, PageStore, PAGE_SIZE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique temp path per call (tests run concurrently).
fn temp_pages(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nwc-crash-{tag}-{}-{n}.pages", std::process::id()))
}

fn crash_points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Point::new((s % 997) as f64, ((s >> 17) % 983) as f64)
        })
        .collect()
}

/// The full logical content of a tree, in comparable form.
fn contents(tree: &RStarTree) -> Vec<(u32, (u64, u64))> {
    let mut v: Vec<_> = tree
        .iter_entries()
        .map(|e| (e.id, (e.point.x.to_bits(), e.point.y.to_bits())))
        .collect();
    v.sort_unstable();
    v
}

/// The scripted mutation batch separating state A from state B: enough
/// churn to split nodes, dissolve leaves, and allocate shadow pages.
fn mutate(tree: &mut RStarTree) {
    let points = crash_points(500);
    for (i, &p) in points.iter().enumerate().take(60) {
        tree.insert(10_000 + i as u32, Point::new(p.x + 0.125, p.y + 0.125))
            .expect("insert");
    }
    for (i, &p) in points.iter().enumerate().take(30) {
        assert!(tree.delete(i as u32, p).expect("delete"), "object {i} missing");
    }
}

/// Writes state A (a committed writable page file) at `path` and runs
/// the mutation batch + commit on a copy, returning the raw bytes of
/// both states and their expected contents.
#[allow(clippy::type_complexity)]
fn two_states(path: &PathBuf) -> (Vec<u8>, Vec<u8>, Vec<(u32, (u64, u64))>, Vec<(u32, (u64, u64))>) {
    let base = RStarTree::bulk_load(&crash_points(500));
    base.save_to_path(path).expect("save");
    let bytes_a = std::fs::read(path).expect("read state A");
    let contents_a = contents(&base);

    let mut tree = RStarTree::open_from_path(path, None).expect("reopen writable");
    mutate(&mut tree);
    let contents_b = contents(&tree);
    tree.commit().expect("commit");
    drop(tree);
    let bytes_b = std::fs::read(path).expect("read state B");
    assert_ne!(bytes_a, bytes_b, "the commit must have changed the file");
    (bytes_a, bytes_b, contents_a, contents_b)
}

/// Writes `bytes` to `path` and opens it, asserting the reopen decodes
/// cleanly into exactly `want`.
fn reopen_must_equal(path: &PathBuf, bytes: &[u8], want: &[(u32, (u64, u64))], kill: &str) {
    std::fs::write(path, bytes).expect("write crash image");
    let tree = RStarTree::open_from_path(path, None)
        .unwrap_or_else(|e| panic!("{kill}: crash image failed to decode: {e}"));
    validate::check_invariants(&tree).unwrap_or_else(|e| panic!("{kill}: invariants: {e}"));
    assert_eq!(contents(&tree), want, "{kill}: wrong tree state after reopen");
}

#[test]
fn kill_points_yield_old_or_new_tree_never_garbage() {
    let path = temp_pages("surgery");
    let (bytes_a, bytes_b, contents_a, contents_b) = two_states(&path);

    // Kill before the data sync: shadow pages (all beyond state A's
    // extent here — the batch only grows) hit the disk torn or not at
    // all, headers untouched. Garbage-fill the grown tail to model the
    // worst torn write; reopen must trim it and serve state A.
    let mut img = bytes_b.clone();
    img[..2 * PAGE_SIZE].copy_from_slice(&bytes_a[..2 * PAGE_SIZE]);
    for b in &mut img[bytes_a.len().max(2 * PAGE_SIZE)..] {
        *b = 0xAB;
    }
    reopen_must_equal(&path, &img, &contents_a, "before-data-sync (torn shadow pages)");

    // Kill after the data sync, before the header flip: every shadow
    // page is durable but both header slots still describe state A.
    let mut img = bytes_b.clone();
    img[..2 * PAGE_SIZE].copy_from_slice(&bytes_a[..2 * PAGE_SIZE]);
    reopen_must_equal(&path, &img, &contents_a, "after-data-sync-before-flip");

    // Kill mid-flip: the new header slot itself is torn. State A was
    // created at generation 1 (slot 0); its commit wrote generation 2
    // into slot 1. Shred slot 1 at various depths — magic destroyed,
    // CRC-only mismatch, half-written — and the open must fall back to
    // slot 0 every time.
    for (tag, damage) in [
        ("zeroed", 0usize..68),
        ("magic-torn", 0..8),
        ("tail-torn", 34..68),
    ] {
        let mut img = bytes_b.clone();
        for b in &mut img[PAGE_SIZE + damage.start..PAGE_SIZE + damage.end] {
            *b ^= 0x5A;
        }
        reopen_must_equal(&path, &img, &contents_a, &format!("torn-new-slot ({tag})"));
    }

    // The *inactive* slot torn (as the next commit would tear it) with
    // the flip already durable: the newest generation wins, state B.
    let mut img = bytes_b.clone();
    for b in &mut img[0..68] {
        *b ^= 0x5A;
    }
    reopen_must_equal(&path, &img, &contents_b, "torn-inactive-slot");

    // Kill after the flip (a missing directory fsync only delays the
    // rename durability of the *initial* save; the in-place commit is
    // complete once the slot is down): clean state B.
    reopen_must_equal(&path, &bytes_b, &contents_b, "after-flip");

    // The recovered file is not merely readable — it keeps serving
    // writes: mutate and commit on top of the recovered state B.
    let mut tree = RStarTree::open_from_path(&path, None).expect("reopen recovered");
    tree.insert(99_999, Point::new(1.5, 2.5)).expect("insert after recovery");
    tree.commit().expect("commit after recovery");
    drop(tree);
    let back = RStarTree::open_from_path(&path, None).expect("final reopen");
    assert_eq!(back.len(), contents_b.len() + 1);
    drop(back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_write_fault_injection_point_recovers_to_the_old_tree() {
    let path = temp_pages("fault-sweep");
    let (bytes_a, _, contents_a, contents_b) = two_states(&path);

    // Kill the commit at write index n for every n until one survives.
    // write_page and the header-flip commit are budgeted; grow is not
    // (a grown-but-unflipped extent is exactly what open() trims).
    let mut aborted = 0u32;
    for n in 0.. {
        std::fs::write(&path, &bytes_a).expect("restore state A");
        let store = FileStore::open(&path).expect("open state A");
        assert!(store.is_writable(), "v2 file must reopen writable");
        let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
        let mut tree =
            RStarTree::open_from_store(Box::new(Arc::clone(&fault)), None).expect("open tree");
        mutate(&mut tree);
        fault.fail_writes_after(n);
        match tree.commit() {
            Err(TreeError::Io(e)) => {
                assert!(fault.write_faults() > 0, "n={n}: commit failed without a fault: {e}");
                // Crash: drop the tree and store mid-batch, reopen cold.
                drop(tree);
                drop(fault);
                let back = RStarTree::open_from_path(&path, None)
                    .unwrap_or_else(|e| panic!("n={n}: reopen after aborted commit: {e}"));
                assert_eq!(
                    contents(&back),
                    contents_a,
                    "n={n}: aborted commit must leave state A"
                );
                aborted += 1;
            }
            Ok(()) => {
                // The full commit fit under the budget: state B landed.
                drop(tree);
                drop(fault);
                let back = RStarTree::open_from_path(&path, None).expect("reopen committed");
                assert_eq!(contents(&back), contents_b, "n={n}: committed state wrong");
                break;
            }
            Err(other) => panic!("n={n}: unexpected commit error: {other}"),
        }
    }
    assert!(aborted >= 2, "the sweep never exercised a mid-commit kill");
    std::fs::remove_file(&path).ok();
}

#[test]
fn aborted_commit_is_retryable_in_place() {
    let path = temp_pages("retry");
    let (_, _, _, contents_b) = two_states(&path);
    // Rebuild state A fresh (two_states left state B on disk).
    let base = RStarTree::bulk_load(&crash_points(500));
    base.save_to_path(&path).expect("save");

    let store = FileStore::open(&path).expect("open");
    let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
    let mut tree =
        RStarTree::open_from_store(Box::new(Arc::clone(&fault)), None).expect("open tree");
    mutate(&mut tree);

    // First commit dies on its second write; the overlay must survive.
    fault.fail_writes_after(1);
    match tree.commit() {
        Err(TreeError::Io(_)) => {}
        other => panic!("expected an injected Io failure, got {other:?}"),
    }
    assert_eq!(contents(&tree), contents_b, "overlay lost by the failed commit");

    // Clear the fault and retry the same commit on the same handle.
    fault.clear_faults();
    tree.commit().expect("retry after transient write fault");
    drop(tree);
    drop(fault);
    let back = RStarTree::open_from_path(&path, None).expect("reopen");
    assert_eq!(contents(&back), contents_b, "retried commit landed the wrong state");
    drop(back);
    std::fs::remove_file(&path).ok();
}
