//! Query results and per-query search statistics.

use nwc_geom::Rect;
use nwc_rtree::Entry;

/// The answer to an NWC query: the best object group found.
#[derive(Clone, Debug)]
pub struct NwcResult {
    /// The `n` objects, ordered by ascending distance to the query
    /// location.
    pub objects: Vec<Entry>,
    /// Their score under the query's distance measure (`dist_best`).
    pub distance: f64,
    /// The qualified window the group was discovered in.
    pub window: Rect,
    /// What the search did to find it.
    pub stats: SearchStats,
}

impl NwcResult {
    /// The object ids of the group, in result order.
    pub fn ids(&self) -> Vec<u32> {
        self.objects.iter().map(|e| e.id).collect()
    }
}

/// Counters describing one NWC/kNWC search.
///
/// `io_total` is the paper's metric (R\*-tree nodes visited); the rest
/// break it down and expose the work profile the optimizations target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Total R\*-tree node accesses (the paper's "I/O cost").
    pub io_total: u64,
    /// Node accesses spent expanding the best-first traversal.
    pub io_traversal: u64,
    /// Node accesses spent answering window queries for search regions.
    pub io_window_queries: u64,
    /// Of `io_total`, accesses satisfied by the buffer pool without
    /// physical I/O. Always 0 on an in-memory (arena) tree; on a
    /// disk-backed tree, `io_total - buffer_hits` is the physical page
    /// read count. The io counters themselves are buffering-independent.
    pub buffer_hits: u64,
    /// Objects dequeued from the priority queue.
    pub objects_visited: u64,
    /// Search regions answered: each by its own window query, or under
    /// IWP from its leaf's shared neighbourhood (one window query per
    /// leaf, whose node accesses `io_window_queries` counts — only the
    /// nodes the search had not read yet).
    pub window_queries: u64,
    /// Window queries skipped by SRR (empty reduced region).
    pub skipped_by_srr: u64,
    /// Window queries cancelled by DEP (grid bound below `n`).
    pub skipped_by_dep: u64,
    /// Index nodes pruned by DIP.
    pub nodes_pruned_by_dip: u64,
    /// Index nodes pruned by DEP.
    pub nodes_pruned_by_dep: u64,
    /// Candidate windows evaluated.
    pub candidate_windows: u64,
    /// Candidate windows that were qualified (held ≥ n objects).
    pub qualified_windows: u64,
    /// Times `dist_best` (or the kNWC group set) improved.
    pub best_updates: u64,
    /// Page-read re-attempts this query issued on a disk-backed tree
    /// (always 0 on an arena tree or a healthy store). Retries sit
    /// outside the `io_*` counters: logical I/O is identical with and
    /// without faults.
    pub retries: u64,
    /// Failed page-read attempts this query recovered from by retrying.
    pub transient_errors: u64,
}

impl SearchStats {
    /// Merges another stats record into this one (used when averaging
    /// over the paper's 25 query repetitions).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.io_total += other.io_total;
        self.io_traversal += other.io_traversal;
        self.io_window_queries += other.io_window_queries;
        self.buffer_hits += other.buffer_hits;
        self.objects_visited += other.objects_visited;
        self.window_queries += other.window_queries;
        self.skipped_by_srr += other.skipped_by_srr;
        self.skipped_by_dep += other.skipped_by_dep;
        self.nodes_pruned_by_dip += other.nodes_pruned_by_dip;
        self.nodes_pruned_by_dep += other.nodes_pruned_by_dep;
        self.candidate_windows += other.candidate_windows;
        self.qualified_windows += other.qualified_windows;
        self.best_updates += other.best_updates;
        self.retries += other.retries;
        self.transient_errors += other.transient_errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SearchStats {
            io_total: 10,
            window_queries: 2,
            ..Default::default()
        };
        let b = SearchStats {
            io_total: 5,
            window_queries: 1,
            qualified_windows: 7,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.io_total, 15);
        assert_eq!(a.window_queries, 3);
        assert_eq!(a.qualified_windows, 7);
    }
}
