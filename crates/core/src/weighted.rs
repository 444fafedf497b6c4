//! Weighted NWC queries — "nearest window with total weight ≥ W".
//!
//! A generalization the paper's machinery supports directly: objects
//! carry non-negative weights (seats across restaurants, stock across
//! shops) and a window is *qualified* when its total weight reaches a
//! threshold `W`. Plain NWC is the all-weights-one special case
//! (`W = n`).
//!
//! Everything from §3 carries over:
//!
//! - Lemma 1 and the quadrant rules are purely geometric — unchanged;
//! - SRR and DIP depend only on `dist_best` geometry — unchanged;
//! - DEP prunes with a *weight-sum* grid ([`nwc_grid::WeightGrid`]);
//! - IWP is unchanged.
//!
//! The group returned from a qualified window takes objects in
//! ascending distance until the weight threshold is met (the weighted
//! analogue of "the n objects of the shortest distance"). The default
//! measure is [`DistanceMeasure::Max`]; `Min` is also exactly optimal
//! under this greedy rule, while `Avg`/`NearestWindow` inherit the
//! greedy selection without a per-window optimality claim (same status
//! as in the unweighted paper semantics).

use crate::algo::{best_first, BestSink};
use crate::candidates::{for_each_partner, GroupSink, Qualifier};
use crate::index::{grid_bounds, IndexConfig, NwcIndex};
use crate::measure::DistanceMeasure;
use crate::query::QueryError;
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use crate::scratch::QueryScratch;
use nwc_geom::window::WindowSpec;
use nwc_geom::{Point, Quadrant, Rect};
use nwc_grid::WeightGrid;
use nwc_rtree::{Budget, Entry};

/// A weighted NWC query: `NWC_w(q, l, w, W)`.
#[derive(Clone, Copy, Debug)]
pub struct WeightedQuery {
    /// Query location.
    pub q: Point,
    /// Window dimensions.
    pub spec: WindowSpec,
    /// Minimum total weight a window must hold to qualify.
    pub min_weight: f64,
    /// Distance measure over the selected group.
    pub measure: DistanceMeasure,
}

impl WeightedQuery {
    /// Creates a query with the default (`Max`) measure.
    ///
    /// # Panics
    ///
    /// Panics when `min_weight` is not strictly positive and finite.
    pub fn new(q: Point, spec: WindowSpec, min_weight: f64) -> Self {
        assert!(
            min_weight > 0.0 && min_weight.is_finite(),
            "min_weight must be positive and finite"
        );
        WeightedQuery {
            q,
            spec,
            min_weight,
            measure: DistanceMeasure::Max,
        }
    }
}

/// An index over weighted points answering [`WeightedQuery`]s: an
/// [`NwcIndex`] (the tree, no count grid) plus the weights and the
/// weight-sum grid DEP prunes with.
pub struct WeightedNwcIndex {
    index: NwcIndex,
    weights: Vec<f64>,
    wgrid: WeightGrid,
}

impl WeightedNwcIndex {
    /// Builds the index (STR bulk load, weight grid at the paper's cell
    /// size 25).
    ///
    /// # Panics
    ///
    /// Panics on empty input, length mismatch, non-finite points, or
    /// invalid weights.
    pub fn build(points: Vec<Point>, weights: Vec<f64>) -> Self {
        assert_eq!(points.len(), weights.len(), "points/weights mismatch");
        let config = IndexConfig {
            grid_cell_size: None,
            ..IndexConfig::default()
        };
        let index = NwcIndex::build_with(points, config);
        let wgrid = WeightGrid::from_cell_size(
            grid_bounds(&index.bounds()),
            nwc_grid::PAPER_GRID_CELL,
            index.points(),
            &weights,
        );
        WeightedNwcIndex {
            index,
            weights,
            wgrid,
        }
    }

    /// The weight of one object.
    pub fn weight(&self, id: u32) -> f64 {
        self.weights[id as usize]
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point] {
        self.index.points()
    }

    /// Answers the weighted query under a scheme. Returns the group and
    /// its total weight, `Ok(None)` when no window reaches `min_weight`,
    /// and `Err` for a disk read that fails after every retry.
    pub fn query(
        &self,
        query: &WeightedQuery,
        scheme: Scheme,
    ) -> Result<Option<(NwcResult, f64)>, QueryError> {
        let test = WeightTest {
            grid: &self.wgrid,
            weights: &self.weights,
            min_weight: query.min_weight,
            measure: query.measure,
        };
        let mut sink = BestSink::new();
        let (stats, _) = best_first(
            std::slice::from_ref(&self.index),
            0,
            query.q,
            &query.spec,
            scheme,
            &test,
            &mut sink,
            &mut QueryScratch::new(),
            &Budget::none(),
        )?;
        Ok(sink.into_result(stats).map(|result| {
            let total_weight = result
                .objects
                .iter()
                .fold(0.0, |acc, e| acc + self.weights[e.id as usize]);
            (result, total_weight)
        }))
    }
}

/// Weighted qualification: a window whose objects weigh at least
/// `min_weight` in total, DEP bounded by the weight-sum grid.
struct WeightTest<'a> {
    grid: &'a WeightGrid,
    weights: &'a [f64],
    min_weight: f64,
    measure: DistanceMeasure,
}

impl Qualifier for WeightTest<'_> {
    fn too_sparse(&self, region: &Rect) -> bool {
        self.grid.weight_upper_bound(region) < self.min_weight
    }

    /// Weighted candidate-window scan: prefix weight sums over the
    /// y-sorted search-region contents.
    fn scan<S: GroupSink>(
        &self,
        q: &Point,
        spec: &WindowSpec,
        p: &Entry,
        quad: Quadrant,
        neighbors: &mut [Entry],
        _by_dist: &mut Vec<(f64, u32, Entry)>,
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        let min_w = self.min_weight;
        neighbors.sort_by(|a, b| a.point.y.total_cmp(&b.point.y));
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(neighbors.iter().scan(0.0, |acc, e| {
                *acc += self.weights[e.id as usize];
                Some(*acc)
            }))
            .collect();

        for_each_partner(neighbors, p, quad, |partner_y| {
            stats.candidate_windows += 1;
            let win = nwc_geom::window::candidate_window(&p.point, partner_y, quad, spec);
            let lo = neighbors.partition_point(|e| e.point.y < win.min.y);
            let hi = neighbors.partition_point(|e| e.point.y <= win.max.y);
            if prefix[hi] - prefix[lo] < min_w {
                return;
            }
            stats.qualified_windows += 1;
            if win.mindist(q) >= sink.threshold() {
                return;
            }
            // Greedy: closest objects until the weight threshold is met.
            let mut scored: Vec<(f64, Entry)> = neighbors[lo..hi]
                .iter()
                .map(|&e| (e.point.dist2(q), e))
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.id.cmp(&b.1.id)));
            let mut acc = 0.0;
            let mut group: Vec<Entry> = Vec::new();
            for (_, e) in scored {
                acc += self.weights[e.id as usize];
                group.push(e);
                if acc >= min_w {
                    break;
                }
            }
            debug_assert!(acc >= min_w);
            let score = self.measure.score(q, &group, spec);
            sink.offer(group, score, win, stats);
        });
    }
}

/// Brute-force weighted oracle over the same candidate-window family.
pub fn weighted_brute_force(
    points: &[Point],
    weights: &[f64],
    query: &WeightedQuery,
) -> Option<(Vec<u32>, f64)> {
    let entries: Vec<Entry> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| Entry::new(i as u32, p))
        .collect();
    let mut best: Option<(Vec<u32>, f64)> = None;
    for p in &entries {
        let quad = Quadrant::of(&query.q, &p.point);
        for partner in &entries {
            let dy = partner.point.y - p.point.y;
            let admissible = if quad.partner_on_top_edge() {
                (0.0..=query.spec.w).contains(&dy)
            } else {
                (-query.spec.w..=0.0).contains(&dy)
            };
            if !admissible {
                continue;
            }
            let win =
                nwc_geom::window::candidate_window(&p.point, partner.point.y, quad, &query.spec);
            if !win.contains_point(&partner.point) {
                continue;
            }
            let mut inside: Vec<(f64, Entry)> = entries
                .iter()
                .filter(|e| win.contains_point(&e.point))
                .map(|&e| (e.point.dist2(&query.q), e))
                .collect();
            let total: f64 = inside.iter().map(|(_, e)| weights[e.id as usize]).sum();
            if total < query.min_weight {
                continue;
            }
            inside.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.id.cmp(&b.1.id)));
            let mut acc = 0.0;
            let mut group: Vec<Entry> = Vec::new();
            for (_, e) in inside {
                acc += weights[e.id as usize];
                group.push(e);
                if acc >= query.min_weight {
                    break;
                }
            }
            let score = query.measure.score(&query.q, &group, &query.spec);
            if best.as_ref().is_none_or(|&(_, s)| score < s) {
                best = Some((group.iter().map(|e| e.id).collect(), score));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwc_geom::pt;

    #[test]
    fn unit_weights_match_plain_nwc() {
        let pts: Vec<Point> = (0..80)
            .map(|i| pt(((i * 13) % 60) as f64, ((i * 29) % 55) as f64))
            .collect();
        let widx = WeightedNwcIndex::build(pts.clone(), vec![1.0; pts.len()]);
        let idx = crate::NwcIndex::build(pts.clone());
        for n in [2usize, 4, 8] {
            let wq = WeightedQuery::new(pt(30.0, 30.0), WindowSpec::square(12.0), n as f64);
            let nq = crate::NwcQuery::new(pt(30.0, 30.0), WindowSpec::square(12.0), n);
            let a = widx.query(&wq, Scheme::NWC_STAR).unwrap().map(|(r, _)| r);
            let req = crate::SearchRequest::nwc(nq, Scheme::NWC_STAR);
            let b = idx.search(&req, &mut QueryScratch::new()).unwrap().into_nwc();
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert!((x.distance - y.distance).abs() < 1e-9, "n={n}");
                    // Same loop, same pruning: unit weights cost exactly
                    // the node accesses plain NWC costs (only the scans'
                    // window counts differ — the count scan skips regions
                    // holding fewer than n objects outright).
                    assert_eq!(x.stats.io_total, y.stats.io_total, "n={n}");
                    assert_eq!(x.stats.window_queries, y.stats.window_queries, "n={n}");
                }
                other => panic!("n={n}: {other:?}"),
            }
        }
    }

    #[test]
    fn prefers_one_heavy_object_over_far_cluster() {
        // A single weight-10 restaurant nearby beats five weight-1 ones
        // far away when W = 8.
        let pts = vec![
            pt(10.0, 10.0), // heavy
            pt(80.0, 80.0),
            pt(81.0, 81.0),
            pt(82.0, 80.5),
            pt(80.5, 82.0),
            pt(81.5, 79.5),
        ];
        let ws = vec![10.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let widx = WeightedNwcIndex::build(pts, ws);
        let q = WeightedQuery::new(pt(0.0, 0.0), WindowSpec::square(6.0), 8.0);
        let (r, total) = widx.query(&q, Scheme::NWC_STAR).unwrap().unwrap();
        assert_eq!(r.ids(), vec![0]);
        assert_eq!(total, 10.0);
    }

    #[test]
    fn schemes_agree_weighted() {
        let pts: Vec<Point> = (0..120)
            .map(|i| pt(((i * 17) % 70) as f64, ((i * 41) % 65) as f64))
            .collect();
        let ws: Vec<f64> = (0..120).map(|i| 0.5 + (i % 4) as f64).collect();
        let widx = WeightedNwcIndex::build(pts, ws);
        let q = WeightedQuery::new(pt(35.0, 30.0), WindowSpec::square(10.0), 12.0);
        let dists: Vec<Option<f64>> = Scheme::TABLE3
            .iter()
            .map(|&s| widx.query(&q, s).unwrap().map(|(r, _)| r.distance))
            .collect();
        for d in &dists[1..] {
            match (dists[0], *d) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{dists:?}"),
                _ => panic!("{dists:?}"),
            }
        }
    }

    #[test]
    fn matches_brute_force() {
        let pts: Vec<Point> = (0..50)
            .map(|i| pt(((i * 23) % 45) as f64, ((i * 31) % 40) as f64))
            .collect();
        let ws: Vec<f64> = (0..50).map(|i| 1.0 + (i % 3) as f64).collect();
        let widx = WeightedNwcIndex::build(pts.clone(), ws.clone());
        for min_w in [3.0, 8.0, 20.0] {
            let q = WeightedQuery::new(pt(20.0, 18.0), WindowSpec::square(9.0), min_w);
            let got = widx.query(&q, Scheme::NWC_STAR).unwrap().map(|(r, _)| r.distance);
            let want = weighted_brute_force(&pts, &ws, &q).map(|(_, s)| s);
            match (got, want) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "W={min_w}: {a} vs {b}"),
                other => panic!("W={min_w}: {other:?}"),
            }
        }
    }

    #[test]
    fn unreachable_weight_returns_none() {
        let pts = vec![pt(1.0, 1.0), pt(2.0, 2.0)];
        let widx = WeightedNwcIndex::build(pts, vec![1.0, 1.0]);
        let q = WeightedQuery::new(pt(0.0, 0.0), WindowSpec::square(5.0), 100.0);
        assert!(widx.query(&q, Scheme::NWC_STAR).unwrap().is_none());
    }
}
