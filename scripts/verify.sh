#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, clippy, the benchmark
# package's tests, the no-panic lint, then smokes: the paper
# experiments at tiny scale and the disk, paging, chaos, serving and
# sharding suites in release mode.
#
#   scripts/verify.sh          # full gate (~a few minutes on 1 core)
#   SKIP_SMOKE=1 scripts/verify.sh   # everything but the smokes
#
# Everything runs offline; see README § Offline builds.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test -q"
cargo test -q

# --all-targets: tests, examples and benches compile under the lint
# too, so a bench the gate never runs still cannot rot.
step "lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package lives outside the workspace and calls the
# library only through its adapter (nwc-benchmark/src/sut.rs); its own
# tests prove every API it depends on still compiles and behaves.
step "benchmark: cargo test --manifest-path nwc-benchmark/Cargo.toml"
cargo test -q --offline --manifest-path nwc-benchmark/Cargo.toml

# The disk query read path must stay panic-free: every failure routes
# through TreeError::Io / QueryError::Io (tests below the top-level
# #[cfg(test)] marker are exempt — it is matched at line start, so a
# doc comment naming the attribute does not end the scan early; the
# infallible wrappers in tree.rs are the one deliberate panic site and
# are not query-read-path code). The I/O counters, the retry policy and
# the page checksum join too: every disk read on a query runs through
# all three.
# The serving layer joins the list: a panicking worker or reader thread
# would silently strand client connections, so every serve source file
# must route failures through typed responses instead. node.rs joins
# too: its kind accessors sit under every disk read, so a decode bug
# must degrade (debug assertion + empty view) rather than panic. The
# scatter-gather planner joins too: a panicking shard worker would
# poison the shared kNWC core and strand the gather, so shard.rs is
# panic-free outside tests (missing structures degrade, a failed shard
# is a typed error in the outcome's `degraded` list). The anytime layer
# joins too: cancel.rs sits under every budget check on the hot descent, and
# anytime.rs computes the bounds a partial answer's soundness rests on
# — a panic there would turn graceful degradation into a crash. algo.rs
# joins too: it holds the crate's one search loop, which every query
# path runs. query.rs, request.rs and engine.rs join too, since every
# query method returns a typed error: query.rs validates every query
# and converts every tree error, request.rs builds the one outcome
# every search returns, and engine.rs is the scoped worker pool under
# both the batch engine and the shard scatter — a panicking worker
# there must leave a typed error in the slots it did not answer, not
# re-raise the panic in the caller.
# knwc.rs joins too: its top-k core is shared by the unsharded, sharded
# and anytime kNWC paths, and a panic in it would poison the sharded
# planner's mutex; candidates.rs, weighted.rs, ingest.rs and scratch.rs
# sit on the same query and push paths. The density grids join too:
# DEP's count bound runs once per search region, on every query. So do
# the scheme, result and constrained-query types every query path
# builds, and the geometry beneath every search: window.rs computes the
# search regions and candidate windows, rect.rs and quadrant.rs the
# predicates both are tested with. memo.rs joins too:
# every IWP neighbourhood fetch descends through the query's node memo.
# pool.rs joins too: every disk node access takes the buffer pool's
# lock, and a panic under it would fail every query thread at once.
# store.rs and page.rs join too: every pool miss reads its page through
# the store and decodes it with the page codec, under that same lock.
#
# Runtime `assert!`/`assert_eq!`/`assert_ne!` count as panic paths too.
# `debug_assert*` (compiled out of release builds), comment lines and
# compile-time `const _: () = assert!(..)` checks are not. The sites
# below are still tolerated until they become typed errors; each checks
# input at construction or on the write path, where no query runs. One line
# per site: file | reason | the trimmed source line. A site not listed,
# or one more copy of a listed line in the same file, fails the gate.
assert_allow='crates/grid/src/lib.rs | build: a grid needs at least one cell | assert!(cells_per_side > 0, "grid needs at least one cell");
crates/grid/src/lib.rs | build: degenerate grid bounds | assert!(
crates/grid/src/lib.rs | remove_point: a missing point would break the count bound | assert!(
crates/grid/src/weight.rs | build: parallel point/weight slices | assert_eq!(points.len(), weights.len(), "points/weights length mismatch");
crates/grid/src/weight.rs | build: a grid needs at least one cell | assert!(cells_per_side > 0, "grid needs at least one cell");
crates/grid/src/weight.rs | build: degenerate grid bounds | assert!(
crates/grid/src/weight.rs | build: negative or non-finite weight | assert!(w >= 0.0 && w.is_finite(), "weights must be finite and ≥ 0, got {w}");
crates/grid/src/weight.rs | from_cell_size: non-positive cell size | assert!(cell_size > 0.0, "cell size must be positive");
crates/core/src/weighted.rs | WeightedQuery::new: non-positive min_weight | assert!(
crates/core/src/weighted.rs | WeightedNwcIndex::build: parallel point/weight vectors | assert_eq!(points.len(), weights.len(), "points/weights mismatch");
crates/core/src/ingest.rs | StreamingIngestor::new: zero window capacity | assert!(config.capacity >= 1, "ingest window capacity must be >= 1");
crates/geom/src/window.rs | WindowSpec::new: non-positive window side | assert!('
step "lint: no panic paths in the disk query read path"
for f in crates/rtree/src/disk.rs crates/rtree/src/browser.rs \
         crates/rtree/src/query.rs crates/rtree/src/memo.rs \
         crates/rtree/src/node.rs crates/rtree/src/cancel.rs \
         crates/rtree/src/stats.rs crates/store/src/retry.rs \
         crates/store/src/checksum.rs crates/store/src/pool.rs \
         crates/store/src/store.rs crates/rtree/src/page.rs \
         crates/grid/src/lib.rs crates/grid/src/weight.rs \
         crates/core/src/algo.rs crates/core/src/shard.rs \
         crates/core/src/anytime.rs crates/core/src/knwc.rs \
         crates/core/src/candidates.rs crates/core/src/weighted.rs \
         crates/core/src/ingest.rs crates/core/src/scratch.rs \
         crates/core/src/constrained.rs crates/core/src/result.rs \
         crates/core/src/scheme.rs crates/core/src/query.rs \
         crates/core/src/request.rs crates/core/src/engine.rs \
         crates/geom/src/window.rs crates/geom/src/rect.rs \
         crates/geom/src/quadrant.rs \
         crates/serve/src/protocol.rs crates/serve/src/histogram.rs \
         crates/serve/src/handle.rs crates/serve/src/server.rs \
         crates/serve/src/client.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'panic!|unwrap\(\)|\.expect\(|unreachable!'; then
    echo "error: panic-capable call in non-test section of $f" >&2
    exit 1
  fi
  asserts=$(sed '/^#\[cfg(test)\]/,$d' "$f" \
    | grep -E '(^|[^_[:alnum:]])assert(_eq|_ne)?!' \
    | grep -vE '^[[:space:]]*//|^[[:space:]]*const _: \(\) = assert!' \
    | sed 's/^[[:space:]]*//' | sort || true)
  allowed=$(grep -F "$f | " <<<"$assert_allow" | cut -d'|' -f3- | sed 's/^ //' | sort || true)
  extra=$(comm -23 <(printf '%s\n' "$asserts") <(printf '%s\n' "$allowed") | grep . || true)
  if [[ -n "$extra" ]]; then
    printf '%s\n' "$extra"
    echo "error: runtime assert in non-test section of $f (not on the allow-list)" >&2
    exit 1
  fi
done
echo "ok: disk query read path is panic-free outside tests"

if [[ "${SKIP_SMOKE:-0}" != "1" ]]; then
  # The paper's tables and figures at tiny scale; stdout only, no
  # files written. The names of deleted experiments must be refused.
  step "smoke: paper experiments (tiny scale)"
  cargo test -q --release -p nwc-bench
  out=$(NWC_SCALE=0.02 NWC_QUERIES=3 cargo run -q --release -p nwc-bench -- all)
  grep -q "Table 2" <<<"$out"
  grep -q "Cost model" <<<"$out"
  for gone in throughput serve ingest shard approx; do
    if cargo run -q --release -p nwc-bench -- "$gone" 2>/dev/null; then
      echo "error: experiments accepted the unknown name $gone" >&2
      exit 1
    fi
  done
  echo "ok: every paper experiment ran; unknown names are refused"

  step "smoke: disk mode (persist, reopen)"
  cargo run --release --example persist_and_query

  step "smoke: demand paging (pool capacity sweep, answers match arena)"
  cargo test -q --release --test demand_paging
  echo "ok: logical I/O capacity-invariant, LRU monotone, residency bounded"

  step "smoke: shared buffer pool under concurrent batches"
  cargo test -q --release --test pool_stress
  echo "ok: concurrent pool accounting exact across threads"

  step "smoke: chaos (fault injection, typed errors, recovery)"
  cargo test -q --release --test chaos
  echo "ok: transient faults invisible, permanent faults typed and recoverable"

  step "smoke: serving layer (concurrent clients, deadlines, hot-swap)"
  cargo run --release --bin nwc-serve -- --self-test
  cargo test -q --release --test serve_swap
  echo "ok: serve self-test and hot-swap suite passed"

  # The whole suite: a name filter that matches nothing passes silently.
  step "smoke: disk mode (arena ≡ disk, corruption, mutate, ingest, commit, reopen)"
  cargo test -q --release --test disk_equivalence
  cargo test -q --release --test crash
  echo "ok: disk equivalence, typed corruption errors, writable mode and crash kill-point matrix passed"

  step "smoke: sharded scatter-gather (oracle equivalence, faults, I/O bound)"
  cargo test -q --release --test shard_equivalence
  echo "ok: sharded answers match one tree; K=4 logical I/O within 1.25x of K=1"
fi

step "verify: all checks passed"
