//! Brute-force reference implementations.
//!
//! These enumerate the same candidate-window family the paper's
//! algorithm searches (objects on quadrant-determined vertical edges,
//! partner objects on horizontal edges — the family Lemma 1 proves
//! sufficient), with none of the index structures or pruning. They are
//! `O(N³)`-ish and exist purely as ground truth for the test suites.

use crate::query::{KnwcQuery, NwcQuery};
use nwc_geom::window::candidate_window;
use nwc_geom::{Point, Quadrant, Rect};
use nwc_rtree::Entry;

/// A scored group produced by the oracle.
#[derive(Clone, Debug)]
pub struct OracleGroup {
    /// Objects ordered by ascending distance to the query point.
    pub objects: Vec<Entry>,
    /// Measure score.
    pub distance: f64,
    /// Discovery window.
    pub window: Rect,
}

impl OracleGroup {
    /// Sorted object ids (set identity).
    pub fn id_set(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.objects.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }
}

/// Every distinct qualified candidate group, exhaustively enumerated.
///
/// For each object `p` (vertical-edge generator, quadrant rules of §3.1)
/// and each partner object `p'` on the admissible horizontal side, the
/// candidate window is materialized, counted by linear scan, and — when
/// qualified — its `n` nearest objects are scored. Duplicate sets keep
/// their best score.
pub fn enumerate_groups(points: &[Point], query: &NwcQuery) -> Vec<OracleGroup> {
    let q = query.q;
    let spec = query.spec;
    let n = query.n;
    let entries: Vec<Entry> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| Entry::new(i as u32, p))
        .collect();

    let mut best_by_set: std::collections::HashMap<Vec<u32>, OracleGroup> =
        std::collections::HashMap::new();
    for p in &entries {
        let quad = Quadrant::of(&q, &p.point);
        for partner in &entries {
            // Admissible partners sit on the correct side of p and within
            // the ±w band (exactly the objects a search-region query
            // would return to the algorithm).
            let dy = partner.point.y - p.point.y;
            let admissible = if quad.partner_on_top_edge() {
                (0.0..=spec.w).contains(&dy)
            } else {
                (-spec.w..=0.0).contains(&dy)
            };
            if !admissible {
                continue;
            }
            let win = candidate_window(&p.point, partner.point.y, quad, &spec);
            // The window must actually contain the partner's y-edge use
            // case; p is always inside by construction. Partners whose
            // own point is outside the window still define a valid edge
            // only when inside — mirror the algorithm, which only sees
            // partners inside SR_p (hence inside in x too).
            if !win.contains_point(&partner.point) {
                continue;
            }
            let mut inside: Vec<Entry> = entries
                .iter()
                .copied()
                .filter(|e| win.contains_point(&e.point))
                .collect();
            if inside.len() < n {
                continue;
            }
            inside.sort_by(|a, b| {
                a.point
                    .dist2(&q)
                    .total_cmp(&b.point.dist2(&q))
                    .then_with(|| a.id.cmp(&b.id))
            });
            inside.truncate(n);
            let score = query.measure.score(&q, &inside, &spec);
            let mut ids: Vec<u32> = inside.iter().map(|e| e.id).collect();
            ids.sort_unstable();
            let better = best_by_set
                .get(&ids)
                .is_none_or(|g| score < g.distance);
            if better {
                best_by_set.insert(
                    ids,
                    OracleGroup {
                        objects: inside,
                        distance: score,
                        window: win,
                    },
                );
            }
        }
    }
    let mut groups: Vec<OracleGroup> = best_by_set.into_values().collect();
    groups.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.id_set().cmp(&b.id_set()))
    });
    groups
}

/// Brute-force NWC: the best candidate group, or `None` when no window
/// holds `n` objects.
pub fn nwc_brute_force(points: &[Point], query: &NwcQuery) -> Option<OracleGroup> {
    enumerate_groups(points, query).into_iter().next()
}

/// Brute-force kNWC: greedy selection over ascending-distance candidate
/// groups, keeping a group when it shares at most `m` objects with every
/// group already kept.
///
/// Note: the paper's incremental Steps 1–5 can diverge from plain greedy
/// when a late-arriving close group evicts one that had itself evicted
/// others; the integration tests therefore compare postconditions and
/// the first group, not exact set equality (see `tests/knwc_properties`).
pub fn knwc_brute_force(points: &[Point], query: &KnwcQuery) -> Vec<OracleGroup> {
    let candidates = enumerate_groups(points, &query.base);
    let mut picked: Vec<OracleGroup> = Vec::new();
    for cand in candidates {
        if picked.len() == query.k {
            break;
        }
        let ids = cand.id_set();
        let ok = picked.iter().all(|g| {
            let gids = g.id_set();
            let mut i = 0;
            let mut j = 0;
            let mut shared = 0;
            while i < gids.len() && j < ids.len() {
                match gids[i].cmp(&ids[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            shared <= query.m
        });
        if ok {
            picked.push(cand);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::testing::*;
    use crate::{Scheme, WindowSpec};
    use nwc_geom::pt;

    #[test]
    fn oracle_finds_obvious_cluster() {
        let pts = vec![
            pt(10.0, 10.0),
            pt(11.0, 11.0),
            pt(12.0, 10.5),
            pt(90.0, 90.0),
        ];
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(5.0), 3);
        let g = nwc_brute_force(&pts, &query).unwrap();
        assert_eq!(g.id_set(), vec![0, 1, 2]);
    }

    #[test]
    fn oracle_none_when_no_window_qualifies() {
        let pts = vec![pt(0.0, 0.0), pt(100.0, 100.0)];
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(5.0), 2);
        assert!(nwc_brute_force(&pts, &query).is_none());
    }

    #[test]
    fn oracle_matches_algorithm_on_fixed_case() {
        let pts: Vec<_> = (0..60)
            .map(|i| pt(((i * 17) % 97) as f64, ((i * 43) % 89) as f64))
            .collect();
        let idx = crate::NwcIndex::build(pts.clone());
        for n in [2usize, 4, 8] {
            let query = NwcQuery::new(pt(48.0, 44.0), WindowSpec::square(12.0), n);
            let want = nwc_brute_force(&pts, &query);
            let got = nwc(&idx, &query, Scheme::NWC_STAR);
            match (want, got) {
                (None, None) => {}
                (Some(w), Some(g)) => {
                    assert!((w.distance - g.distance).abs() < 1e-9, "n={n}")
                }
                (w, g) => panic!("n={n}: oracle {w:?} vs algo {g:?}"),
            }
        }
    }

    #[test]
    fn knwc_oracle_groups_are_compatible() {
        let pts: Vec<_> = (0..40)
            .map(|i| pt(((i * 29) % 61) as f64, ((i * 13) % 53) as f64))
            .collect();
        let query = crate::KnwcQuery::new(pt(30.0, 25.0), WindowSpec::square(10.0), 3, 4, 1);
        let groups = knwc_brute_force(&pts, &query);
        assert!(!groups.is_empty());
        for w in groups.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
