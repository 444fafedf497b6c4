//! Candidate-window enumeration for one visited object (paper §3.2,
//! Figure 2, and Algorithm 1 lines 16–26).
//!
//! Given the objects inside the (possibly reduced) search region of `p`,
//! the scan sorts them by `y`, walks the partner coordinates on the
//! quadrant-appropriate side of `p`, and for each candidate window:
//!
//! 1. counts the window's objects with two binary searches on the sorted
//!    `y` array (an `O(log |SR|)` improvement over re-scanning; the
//!    equivalence is property-tested),
//! 2. when qualified (`count ≥ n`) and closer than the sink's current
//!    threshold, selects the `n` objects nearest the query point and
//!    offers them to the sink.

use crate::measure::DistanceMeasure;
use crate::result::SearchStats;
use nwc_geom::{window::candidate_window, window::WindowSpec, Point, Quadrant, Rect};
use nwc_grid::DensityGrid;
use nwc_rtree::Entry;

/// Consumer of qualified object groups. NWC keeps the single best group;
/// kNWC maintains the top-k group list.
pub(crate) trait GroupSink {
    /// Candidate windows with `MINDIST ≥ threshold()` are skipped; the
    /// sink tightens this as results improve (`dist_best`, or the k-th
    /// group distance for kNWC).
    fn threshold(&self) -> f64;

    /// Offers a qualified group: `group` is ordered by ascending distance
    /// to the query point, `score` is its measure value, `window` the
    /// discovery window.
    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats);
}

/// What makes a candidate window *qualified*, paired with the DEP bound
/// that matches it: an object count with the density grid (plain NWC),
/// or a weight sum with the weight grid (weighted NWC).
pub(crate) trait Qualifier {
    /// DEP: whether no window inside `region` can qualify. `false` when
    /// the bounding grid is absent — DEP only prunes I/O, so skipping it
    /// never changes an answer.
    fn too_sparse(&self, region: &Rect) -> bool;

    /// DEP for a search region whose every candidate window is `h` tall
    /// and spans the region's full width: whether none of those windows
    /// can qualify. The default is [`too_sparse`](Self::too_sparse).
    fn region_too_sparse(&self, region: &Rect, _h: f64) -> bool {
        self.too_sparse(region)
    }

    /// Scans every candidate window `p` generates over the search region
    /// contents `neighbors` and offers each qualified group to `sink`.
    #[allow(clippy::too_many_arguments)]
    fn scan<S: GroupSink>(
        &self,
        q: &Point,
        spec: &WindowSpec,
        p: &Entry,
        quad: Quadrant,
        neighbors: &mut [Entry],
        by_dist: &mut Vec<(f64, u32, Entry)>,
        sink: &mut S,
        stats: &mut SearchStats,
    );
}

/// The paper's qualification: a window holding at least `n` objects,
/// the group scored by `measure`, DEP bounded by the density grid.
pub(crate) struct CountTest<'a> {
    pub(crate) grid: Option<&'a DensityGrid>,
    pub(crate) n: usize,
    pub(crate) measure: DistanceMeasure,
}

impl Qualifier for CountTest<'_> {
    fn too_sparse(&self, region: &Rect) -> bool {
        self.grid
            .is_some_and(|grid| grid.count_upper_bound(region) < self.n)
    }

    /// Two stages: the dense bound of [`too_sparse`](Self::too_sparse),
    /// then, only if that fails to prune, the refined best-window bound.
    fn region_too_sparse(&self, region: &Rect, h: f64) -> bool {
        self.grid.is_some_and(|grid| {
            grid.count_upper_bound(region) < self.n
                || (grid.refinement() > 1 && grid.window_upper_bound(region, h) < self.n)
        })
    }

    /// `neighbors` must contain `p` itself and every object of the
    /// queried region. `by_dist` is caller-provided working memory for
    /// the distance ranking (cleared and rebuilt here); passing a reused
    /// buffer makes the scan allocation-free when warm.
    fn scan<S: GroupSink>(
        &self,
        q: &Point,
        spec: &WindowSpec,
        p: &Entry,
        quad: Quadrant,
        neighbors: &mut [Entry],
        by_dist: &mut Vec<(f64, u32, Entry)>,
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        let (n, measure) = (self.n, self.measure);
        if neighbors.len() < n {
            return;
        }
        // Sort by y once; all window counting and slicing works off this.
        neighbors.sort_by(|a, b| a.point.y.total_cmp(&b.point.y));
        // Pre-rank neighbors by distance once per object: per-window
        // group selection then scans this ranking and keeps the first n
        // members of the window's y-slice, instead of re-sorting every
        // slice. On dense search regions (hot clusters) this is the
        // difference between O(windows · |SR| log |SR|) and
        // O(windows · n + misses).
        by_dist.clear();
        by_dist.extend(neighbors.iter().map(|&e| (e.point.dist2(q), e.id, e)));
        by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // Windows whose y-slice is identical produce identical groups;
        // skip re-evaluating them once one has been offered.
        let mut last_offered: Option<(usize, usize)> = None;
        for_each_partner(neighbors, p, quad, |partner_y| {
            evaluate_window(
                q, spec, n, measure, p, quad, neighbors, by_dist, partner_y,
                &mut last_offered, sink, stats,
            );
        });
    }
}

/// Calls `visit` once per distinct partner `y` on the side of `p` its
/// quadrant admits, walking away from `p`: at or above it for a
/// top-edge quadrant, at or below it otherwise (Algorithm 1 line 18
/// skips the rest). Equal `y`s yield the same window, so each is
/// visited once. `neighbors` must be sorted by `y`.
pub(crate) fn for_each_partner(
    neighbors: &[Entry],
    p: &Entry,
    quad: Quadrant,
    mut visit: impl FnMut(f64),
) {
    let mut prev_y = f64::NAN;
    let mut step = |y: f64| {
        if y != prev_y {
            prev_y = y;
            visit(y);
        }
    };
    if quad.partner_on_top_edge() {
        let start = neighbors.partition_point(|e| e.point.y < p.point.y);
        neighbors[start..].iter().for_each(|e| step(e.point.y));
    } else {
        let end = neighbors.partition_point(|e| e.point.y <= p.point.y);
        neighbors[..end].iter().rev().for_each(|e| step(e.point.y));
    }
}

#[allow(clippy::too_many_arguments)]
fn evaluate_window<S: GroupSink>(
    q: &Point,
    spec: &WindowSpec,
    n: usize,
    measure: DistanceMeasure,
    p: &Entry,
    quad: Quadrant,
    neighbors: &[Entry],
    by_dist: &[(f64, u32, Entry)],
    partner_y: f64,
    last_offered: &mut Option<(usize, usize)>,
    sink: &mut S,
    stats: &mut SearchStats,
) {
    stats.candidate_windows += 1;
    let win = candidate_window(&p.point, partner_y, quad, spec);
    // Objects of the window: the y-slice [win.min.y, win.max.y] of the
    // sorted neighbor list (the x-extent of the window equals the search
    // region's, so no x-filtering is needed — debug-asserted below).
    let lo = neighbors.partition_point(|e| e.point.y < win.min.y);
    let hi = neighbors.partition_point(|e| e.point.y <= win.max.y);
    let count = hi - lo;
    if count < n {
        return; // not qualified
    }
    stats.qualified_windows += 1;
    if win.mindist(q) >= sink.threshold() {
        return;
    }
    if *last_offered == Some((lo, hi)) {
        return; // identical object set already offered through a twin window
    }
    debug_assert!(
        neighbors[lo..hi].iter().all(|e| win.contains_point(&e.point)),
        "window x-extent must cover the search region slice"
    );
    // Select the n nearest window members by scanning the per-object
    // distance ranking (ties broken by id for determinism).
    let mut group: Vec<Entry> = Vec::with_capacity(n);
    for &(_, _, e) in by_dist {
        if e.point.y >= win.min.y && e.point.y <= win.max.y {
            group.push(e);
            if group.len() == n {
                break;
            }
        }
    }
    debug_assert_eq!(group.len(), n);
    let score = measure.score(q, &group, spec);
    *last_offered = Some((lo, hi));
    sink.offer(group, score, win, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    struct Collect {
        threshold: f64,
        offers: Vec<(Vec<u32>, f64)>,
    }

    impl GroupSink for Collect {
        fn threshold(&self) -> f64 {
            self.threshold
        }
        fn offer(&mut self, group: Vec<Entry>, score: f64, _w: Rect, _s: &mut SearchStats) {
            self.offers.push((group.iter().map(|e| e.id).collect(), score));
        }
    }

    fn count(n: usize) -> CountTest<'static> {
        CountTest {
            grid: None,
            n,
            measure: DistanceMeasure::Max,
        }
    }

    fn entries(pts: &[(f64, f64)]) -> Vec<Entry> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y))| Entry::new(i as u32, pt(x, y)))
            .collect()
    }

    #[test]
    fn figure2_example() {
        // Recreates the paper's Figure 2 narrative: p5 in quadrant I,
        // partners p5, p6, p7 above it, p4 below (skipped as partner but
        // countable inside windows). n = 3.
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::new(6.0, 4.0);
        let p4 = (9.0, 9.0);
        let p5 = (10.0, 10.0); // generator
        let p6 = (7.0, 12.0);
        let p7 = (6.0, 13.9);
        let mut neighbors = entries(&[p4, p5, p6, p7]);
        let p = neighbors[1];
        let mut sink = Collect {
            threshold: f64::INFINITY,
            offers: vec![],
        };
        let mut stats = SearchStats::default();
        count(3).scan(
            &q,
            &spec,
            &p,
            Quadrant::I,
            &mut neighbors,
            &mut Vec::new(),
            &mut sink,
            &mut stats,
        );
        // Window with partner p5 holds {p4, p5} only (p6 is above): not
        // qualified. Partner p6 → window [4,10]×[8,12] holds {p4,p5,p6}:
        // qualified. Partner p7 → [4,10]×[9.9,13.9] holds {p5,p6,p7}.
        assert_eq!(stats.candidate_windows, 3);
        assert_eq!(stats.qualified_windows, 2);
        assert_eq!(sink.offers.len(), 2);
        let ids: Vec<u32> = {
            let mut v = sink.offers[0].0.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(ids, vec![0, 1, 2]); // p4, p5, p6
    }

    #[test]
    fn threshold_suppresses_offers() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(4.0);
        let mut neighbors = entries(&[(50.0, 50.0), (51.0, 51.0)]);
        let p = neighbors[0];
        let mut sink = Collect {
            threshold: 1.0, // windows near (50,50) are ~69 away
            offers: vec![],
        };
        let mut stats = SearchStats::default();
        count(2).scan(
            &q,
            &spec,
            &p,
            Quadrant::I,
            &mut neighbors,
            &mut Vec::new(),
            &mut sink,
            &mut stats,
        );
        assert!(stats.qualified_windows > 0);
        assert!(sink.offers.is_empty());
    }

    #[test]
    fn bottom_partner_quadrants() {
        // p in quadrant IV (below-right of q): partners at or below p.
        let q = pt(0.0, 100.0);
        let spec = WindowSpec::square(5.0);
        let mut neighbors = entries(&[(10.0, 10.0), (9.0, 8.0), (8.0, 7.0)]);
        let p = neighbors[0];
        let mut sink = Collect {
            threshold: f64::INFINITY,
            offers: vec![],
        };
        let mut stats = SearchStats::default();
        count(3).scan(
            &q,
            &spec,
            &p,
            Quadrant::IV,
            &mut neighbors,
            &mut Vec::new(),
            &mut sink,
            &mut stats,
        );
        // Partners walked downward: y = 10 → window [5,10]×[10,15] holds
        // only p (not qualified); y = 8 → [5,10]×[8,13] holds {p, (9,8)};
        // y = 7 → [5,10]×[7,12] holds all three: the only offer.
        assert_eq!(stats.candidate_windows, 3);
        assert_eq!(stats.qualified_windows, 1);
        assert_eq!(sink.offers.len(), 1);
    }

    #[test]
    fn duplicate_partner_y_deduplicated() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(10.0);
        let mut neighbors = entries(&[(5.0, 5.0), (4.0, 7.0), (3.0, 7.0)]);
        let p = neighbors[0];
        let mut sink = Collect {
            threshold: f64::INFINITY,
            offers: vec![],
        };
        let mut stats = SearchStats::default();
        count(1).scan(
            &q,
            &spec,
            &p,
            Quadrant::I,
            &mut neighbors,
            &mut Vec::new(),
            &mut sink,
            &mut stats,
        );
        // Partners: y=5, y=7 (deduplicated from two objects).
        assert_eq!(stats.candidate_windows, 2);
    }

    #[test]
    fn group_is_sorted_by_distance() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(20.0);
        let mut neighbors = entries(&[(10.0, 10.0), (3.0, 9.0), (8.0, 2.0), (9.0, 9.0)]);
        let p = neighbors[0];
        let mut sink = Collect {
            threshold: f64::INFINITY,
            offers: vec![],
        };
        let mut stats = SearchStats::default();
        count(3).scan(
            &q,
            &spec,
            &p,
            Quadrant::I,
            &mut neighbors,
            &mut Vec::new(),
            &mut sink,
            &mut stats,
        );
        assert!(!sink.offers.is_empty());
        // For every offer the ids must be ordered by ascending distance.
        let pts: [(f64, f64); 4] = [(10.0, 10.0), (3.0, 9.0), (8.0, 2.0), (9.0, 9.0)];
        for (ids, _) in &sink.offers {
            let dists: Vec<f64> = ids
                .iter()
                .map(|&i| {
                    let (x, y) = pts[i as usize];
                    (x * x + y * y).sqrt()
                })
                .collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
        }
    }
}
