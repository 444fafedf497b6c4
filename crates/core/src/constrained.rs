//! Region-constrained NWC queries.
//!
//! A natural extension in the spirit of constrained nearest-neighbor
//! queries (Ferhatosmanoglu et al., SSTD 2001 — cited by the paper's
//! related work): answer `NWC(q, l, w, n)` considering only windows that
//! lie entirely inside a constraint region `R`. "Find the nearest
//! cluster of 8 shops *inside the old town*."
//!
//! The constraint is on the *objects*: every object of the returned
//! group lies inside `R` (the discovery window may overhang the region
//! boundary, exactly as a constrained-NN result's Voronoi cell may).
//!
//! Implementation: the unchanged traversal with a sink that rejects
//! groups containing out-of-region objects. Rejection keeps the pruning
//! threshold untouched, so SRR/DIP stay sound — they only ever prune
//! windows farther than the best *accepted* group. Use the monotone
//! measures (min/max/avg) with constrained queries; the nearest-window
//! measure's sliding-window semantics interacts oddly with a region
//! boundary.

use crate::candidates::GroupSink;
use crate::index::NwcIndex;
use crate::query::{unrecoverable, NwcQuery};
use crate::result::{NwcResult, SearchStats};
use crate::scheme::Scheme;
use crate::scratch::QueryScratch;
use nwc_geom::Rect;
use nwc_rtree::{Budget, Entry};

impl NwcIndex {
    /// Answers `NWC(q, l, w, n)` restricted to groups whose objects all
    /// lie inside `region`.
    ///
    /// Returns `None` when no qualifying group exists inside the region.
    pub fn nwc_within(
        &self,
        query: &NwcQuery,
        scheme: Scheme,
        region: &Rect,
    ) -> Option<NwcResult> {
        let mut sink = ConstrainedSink {
            region: *region,
            dist_best: f64::INFINITY,
            best: None,
        };
        let searched = self.search(
            query,
            scheme,
            &mut sink,
            &mut QueryScratch::default(),
            &Budget::none(),
        );
        let stats = match searched {
            Ok((stats, _)) => stats,
            Err(e) => unrecoverable(e),
        };
        sink.best.map(|(objects, window)| NwcResult {
            objects,
            distance: sink.dist_best,
            window,
            stats,
        })
    }
}

struct ConstrainedSink {
    region: Rect,
    dist_best: f64,
    best: Option<(Vec<Entry>, Rect)>,
}

impl GroupSink for ConstrainedSink {
    fn threshold(&self) -> f64 {
        self.dist_best
    }

    fn offer(&mut self, group: Vec<Entry>, score: f64, window: Rect, stats: &mut SearchStats) {
        if !group.iter().all(|e| self.region.contains_point(&e.point)) {
            return;
        }
        if score < self.dist_best {
            self.dist_best = score;
            self.best = Some((group, window));
            stats.best_updates += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowSpec;
    use nwc_geom::{pt, rect};

    fn world() -> Vec<nwc_geom::Point> {
        // Near cluster outside the region, far cluster inside it.
        let mut pts = vec![pt(10.0, 10.0), pt(11.0, 11.0), pt(12.0, 10.5)];
        pts.extend([pt(70.0, 70.0), pt(71.0, 71.0), pt(72.0, 70.5)]);
        pts
    }

    #[test]
    fn region_excludes_nearer_cluster() {
        let idx = NwcIndex::build(world());
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(6.0), 3);
        let region = rect(50.0, 50.0, 100.0, 100.0);
        let r = idx.nwc_within(&query, Scheme::NWC_STAR, &region).unwrap();
        assert!(r.objects.iter().all(|e| region.contains_point(&e.point)));
        let mut ids = r.ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn unbounded_region_matches_plain_nwc() {
        let idx = NwcIndex::build(world());
        let query = NwcQuery::new(pt(5.0, 5.0), WindowSpec::square(6.0), 3);
        let everything = rect(-1e6, -1e6, 1e6, 1e6);
        let constrained = idx
            .nwc_within(&query, Scheme::NWC_PLUS, &everything)
            .unwrap();
        let plain = idx.nwc(&query, Scheme::NWC_PLUS).unwrap();
        assert!((constrained.distance - plain.distance).abs() < 1e-9);
    }

    #[test]
    fn empty_region_returns_none() {
        let idx = NwcIndex::build(world());
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(6.0), 3);
        let region = rect(200.0, 200.0, 300.0, 300.0);
        assert!(idx.nwc_within(&query, Scheme::NWC_STAR, &region).is_none());
    }

    #[test]
    fn all_schemes_agree_constrained() {
        let idx = NwcIndex::build(world());
        let query = NwcQuery::new(pt(0.0, 0.0), WindowSpec::square(6.0), 3);
        let region = rect(60.0, 60.0, 90.0, 90.0);
        let dists: Vec<Option<f64>> = Scheme::TABLE3
            .iter()
            .map(|&s| idx.nwc_within(&query, s, &region).map(|r| r.distance))
            .collect();
        for d in &dists[1..] {
            assert_eq!(
                d.map(|x| (x * 1e9).round()),
                dists[0].map(|x| (x * 1e9).round())
            );
        }
    }
}
