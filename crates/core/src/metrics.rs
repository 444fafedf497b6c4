//! One unified observability snapshot over every stats surface.
//!
//! The stack already counts everything the paper (and a server) needs —
//! per-query [`SearchStats`], the tree's [`IoStats`](nwc_rtree::IoStats),
//! the buffer pool's [`PoolStats`], the injector's [`FaultStats`] — but
//! each experiment used to pluck fields out of each surface by hand.
//! [`MetricsSnapshot`] folds all of them into one plain-data struct with
//! a **stable text serialization** (`name value` lines, fixed order) and
//! a matching JSON object, shared by the `nwc-serve` stats endpoint and
//! the experiment JSON writers.
//!
//! Everything here is a point-in-time copy: capturing never locks more
//! than the pool's own stats path and never perturbs the counters.

use crate::index::NwcIndex;
use crate::result::SearchStats;
use nwc_store::{FaultStats, PoolStats};

/// Declares [`IoCounters`] from one field table. Each row is a field,
/// its doc and its serialized name; the struct, [`IoCounters::accumulate`]
/// and the `io_*` lines of [`MetricsSnapshot::for_each`] all expand from
/// the table, so they cannot drift apart.
macro_rules! io_counters {
    ($($(#[$doc:meta])* $field:ident => $name:literal,)+) => {
        /// Point-in-time copy of the tree/storage I/O counters (logical
        /// and physical sides). On an arena-backed index the
        /// storage-level gauges (`physical_reads`, `io_errors`,
        /// `peak_resident_nodes`) are zero.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct IoCounters {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl IoCounters {
            /// Adds `other`'s counters into `self`, field by field (used
            /// to aggregate per-shard captures).
            pub fn accumulate(&mut self, other: &IoCounters) {
                $(self.$field += other.$field;)+
            }

            /// Visits every counter as a `(name, value)` pair, in table
            /// order.
            fn for_each(&self, f: &mut impl FnMut(&'static str, u64)) {
                $(f($name, self.$field);)+
            }
        }
    };
}

io_counters! {
    /// Logical node accesses (physical reads + buffer hits) — the
    /// paper's "nodes visited" metric.
    accesses => "io_accesses",
    /// Physical node reads (pool misses that hit the store; every
    /// access on an arena tree).
    node_reads => "io_node_reads",
    /// Accesses served by the buffer pool without physical I/O.
    buffer_hits => "io_buffer_hits",
    /// Re-attempted page reads.
    retries => "io_retries",
    /// Failed-then-recovered read attempts.
    transient_errors => "io_transient_errors",
    /// Pages quarantined after exhausting their retry budget.
    quarantined_pages => "io_quarantined_pages",
    /// Store-level physical page reads.
    physical_reads => "io_physical_reads",
    /// Page reads that surfaced a hard error to a query.
    io_errors => "io_errors",
    /// High-water mark of resident decoded nodes.
    peak_resident_nodes => "io_peak_resident_nodes",
}

/// Every stats surface of the stack in one plain-data struct. See the
/// module docs. Build one with [`MetricsSnapshot::capture`], fold
/// accumulated query stats in with [`MetricsSnapshot::with_search`],
/// attach injector counters with [`MetricsSnapshot::with_faults`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Accumulated per-query search counters (zeroed unless the caller
    /// folds its own accumulator in via [`MetricsSnapshot::with_search`]
    /// — the index does not keep per-query history).
    pub search: SearchStats,
    /// The tree/storage I/O counters at capture time.
    pub io: IoCounters,
    /// Buffer-pool gauges; `None` on an arena-backed index.
    pub pool: Option<PoolStats>,
    /// Fault-injection counters; `None` unless the caller queries
    /// through a `FaultStore` and attaches its stats.
    pub faults: Option<FaultStats>,
}

impl MetricsSnapshot {
    /// Captures the index's I/O and (when disk-backed) pool counters.
    pub fn capture(index: &NwcIndex) -> Self {
        let io = index.tree().stats();
        let mut c = IoCounters {
            accesses: io.accesses(),
            node_reads: io.node_reads(),
            buffer_hits: io.buffer_hits(),
            retries: io.retries(),
            transient_errors: io.transient_errors(),
            quarantined_pages: io.quarantined_pages(),
            ..IoCounters::default()
        };
        let pool = index.tree().storage().map(|storage| {
            c.physical_reads = storage.physical_reads();
            c.io_errors = storage.io_errors();
            c.peak_resident_nodes = storage.peak_resident_nodes() as u64;
            storage.pool_stats()
        });
        MetricsSnapshot {
            search: SearchStats::default(),
            io: c,
            pool,
            faults: None,
        }
    }

    /// Captures the aggregate across every shard of a
    /// [`ShardedNwcIndex`](crate::ShardedNwcIndex): I/O counters are
    /// summed per shard (`peak_resident_nodes` sums to an upper bound —
    /// the shard peaks need not coincide), and pool gauges sum across
    /// the shard pools (`Some` when any shard is disk-backed; capacity
    /// saturates so one unbounded shard pool reports an unbounded
    /// total).
    pub fn capture_sharded(index: &crate::ShardedNwcIndex) -> Self {
        let mut agg = MetricsSnapshot::default();
        for shard in index.shards() {
            let snap = Self::capture(shard);
            agg.io.accumulate(&snap.io);
            if let Some(p) = snap.pool {
                let total = agg.pool.get_or_insert_with(PoolStats::default);
                total.hits += p.hits;
                total.misses += p.misses;
                total.evictions += p.evictions;
                total.capacity = total.capacity.saturating_add(p.capacity);
                total.resident += p.resident;
                total.pinned += p.pinned;
            }
        }
        agg
    }

    /// Returns the snapshot with accumulated query counters folded in.
    #[must_use]
    pub fn with_search(mut self, search: SearchStats) -> Self {
        self.search = search;
        self
    }

    /// Returns the snapshot with fault-injection counters attached.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultStats) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Visits every metric as a `(name, value)` pair, in the stable
    /// serialization order. Optional surfaces (pool, faults) are simply
    /// absent when not captured, never emitted as zeros — a scrape can
    /// tell "no pool" from "idle pool".
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        let s = &self.search;
        f("search_io_total", s.io_total);
        f("search_io_traversal", s.io_traversal);
        f("search_io_window_queries", s.io_window_queries);
        f("search_buffer_hits", s.buffer_hits);
        f("search_objects_visited", s.objects_visited);
        f("search_window_queries", s.window_queries);
        f("search_skipped_by_srr", s.skipped_by_srr);
        f("search_skipped_by_dep", s.skipped_by_dep);
        f("search_nodes_pruned_by_dip", s.nodes_pruned_by_dip);
        f("search_nodes_pruned_by_dep", s.nodes_pruned_by_dep);
        f("search_candidate_windows", s.candidate_windows);
        f("search_qualified_windows", s.qualified_windows);
        f("search_best_updates", s.best_updates);
        f("search_retries", s.retries);
        f("search_transient_errors", s.transient_errors);
        self.io.for_each(&mut f);
        if let Some(p) = &self.pool {
            f("pool_hits", p.hits);
            f("pool_misses", p.misses);
            f("pool_evictions", p.evictions);
            f("pool_capacity", pool_gauge(p.capacity));
            f("pool_resident", p.resident as u64);
            f("pool_pinned", p.pinned as u64);
        }
        if let Some(ft) = &self.faults {
            f("fault_transient", ft.transient);
            f("fault_torn", ft.torn);
            f("fault_permanent", ft.permanent);
            f("fault_bitrot", ft.bitrot);
            f("fault_delayed", ft.delayed);
        }
    }

    /// The stable text serialization: one `name value` line per metric,
    /// in [`MetricsSnapshot::for_each`] order. This is what the
    /// `nwc-serve` stats endpoint returns.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.for_each(|name, value| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        });
        out
    }

    /// The same metrics as one JSON object (hand-rolled — the workspace
    /// has no serde), `{"name": value, ...}` in the stable order. Used
    /// by the experiment JSON writers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        self.for_each(|name, value| {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push('"');
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&value.to_string());
        });
        out.push('}');
        out
    }
}

/// An unbounded pool reports `usize::MAX`; clamp the gauge so the text
/// form stays readable and platform-independent.
fn pool_gauge(v: usize) -> u64 {
    if v == usize::MAX {
        0
    } else {
        v as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    fn arena_index() -> NwcIndex {
        let pts: Vec<_> = (0..200)
            .map(|i| pt(((i * 37) % 211) as f64, ((i * 53) % 197) as f64))
            .collect();
        NwcIndex::build(pts)
    }

    #[test]
    fn arena_capture_has_no_pool_or_faults() {
        let idx = arena_index();
        let query = crate::NwcQuery::new(pt(50.0, 50.0), crate::WindowSpec::square(20.0), 4);
        let (_, stats) = idx.nwc_full(&query, crate::Scheme::NWC_STAR);
        let snap = MetricsSnapshot::capture(&idx).with_search(stats);
        assert!(snap.pool.is_none());
        assert!(snap.faults.is_none());
        assert!(snap.io.accesses > 0);
        assert_eq!(snap.io.buffer_hits, 0, "arena trees have no pool");
        assert_eq!(snap.search.io_total, stats.io_total);
        let text = snap.to_text();
        assert!(text.contains("io_accesses "));
        assert!(!text.contains("pool_hits"), "absent surface serialized");
        assert!(!text.contains("fault_transient"));
    }

    #[test]
    fn text_and_json_agree_on_order_and_values() {
        let idx = arena_index();
        let snap = MetricsSnapshot::capture(&idx).with_faults(FaultStats::default());
        let text = snap.to_text();
        let json = snap.to_json();
        // Same metrics, same order, two encodings.
        let text_names: Vec<&str> = text
            .lines()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect();
        let mut json_names = Vec::new();
        snap.for_each(|n, _| json_names.push(n));
        assert_eq!(text_names, json_names);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('"').count(), 2 * json_names.len());
        assert!(text.contains("fault_transient 0"));
    }

    #[test]
    fn sharded_capture_is_the_per_shard_sum_of_every_field() {
        let pts: Vec<_> = (0..1200)
            .map(|i| pt(((i * 37) % 997) as f64, ((i * 53) % 991) as f64))
            .collect();
        let dir = std::env::temp_dir().join(format!("nwc-metrics-sum-{}", std::process::id()));
        crate::ShardedNwcIndex::build(pts, 3)
            .save_to_dir(&dir)
            .unwrap();
        let config = crate::DiskIndexConfig {
            pool_capacity: Some(24),
            ..Default::default()
        };
        let index = crate::ShardedNwcIndex::open_dir(&dir, config).unwrap();
        for q in [pt(100.0, 100.0), pt(500.0, 480.0), pt(900.0, 50.0)] {
            let query = crate::NwcQuery::new(q, crate::WindowSpec::square(40.0), 4);
            index.try_nwc(&query, crate::Scheme::NWC_STAR).unwrap();
        }
        let agg = MetricsSnapshot::capture_sharded(&index);
        let shards: Vec<MetricsSnapshot> = index
            .shards()
            .iter()
            .map(MetricsSnapshot::capture)
            .collect();

        // Every IoCounters field, through the same table the struct
        // is declared from.
        let mut want: Vec<(&str, u64)> = Vec::new();
        for snap in &shards {
            let mut i = 0;
            snap.io.for_each(&mut |name, value| {
                match want.get_mut(i) {
                    Some(slot) => slot.1 += value,
                    None => want.push((name, value)),
                }
                i += 1;
            });
        }
        let mut got = Vec::new();
        agg.io.for_each(&mut |name, value| got.push((name, value)));
        assert_eq!(got, want);
        assert!(agg.io.accesses > 0 && agg.io.physical_reads > 0);

        // Every PoolStats field: the destructuring is exhaustive, so a
        // new field fails to compile here until it is summed.
        let mut sum = PoolStats::default();
        for snap in &shards {
            let PoolStats {
                hits,
                misses,
                evictions,
                capacity,
                resident,
                pinned,
            } = snap.pool.unwrap();
            sum.hits += hits;
            sum.misses += misses;
            sum.evictions += evictions;
            sum.capacity += capacity;
            sum.resident += resident;
            sum.pinned += pinned;
        }
        assert_eq!(agg.pool, Some(sum));
        assert!(sum.misses > 0 && sum.capacity == 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stable_order_is_deterministic() {
        let idx = arena_index();
        let a = MetricsSnapshot::capture(&idx).to_text();
        let b = MetricsSnapshot::capture(&idx).to_text();
        assert_eq!(a, b);
    }
}
