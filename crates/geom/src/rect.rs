//! Closed axis-aligned rectangles with MBR algebra and spatial metrics.

use crate::Point;
use std::fmt;

/// A closed axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// `Rect` doubles as the *minimum bounding rectangle* (MBR) of R-tree
/// nodes and as the *window* / *search region* / *query rectangle* of the
/// NWC algorithm. All predicates treat the boundary as inclusive, matching
/// the paper's closed windows (an object lying exactly on a window edge is
/// inside the window — Lemma 1 depends on this).
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    /// Bottom-left corner.
    pub min: Point,
    /// Top-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `min` is not component-wise ≤ `max`.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y,
            "invalid rect: min {min:?} must be <= max {max:?}"
        );
        Rect { min, max }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// Creates a rectangle from two arbitrary corner points, normalizing
    /// their order.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// The smallest rectangle covering every point in `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r = r.expand_to(p);
        }
        Some(r)
    }

    /// Width (`x` extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (`y` extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (the R\*-tree "margin" heuristic).
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }

    /// Whether `p` lies inside the (closed) rectangle.
    ///
    /// All four comparisons are evaluated (non-short-circuit `&`), so a
    /// scan over many points compiles to a branch-free mask instead of
    /// a chain of data-dependent, poorly predicted branches.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        (self.min.x <= p.x) & (p.x <= self.max.x) & (self.min.y <= p.y) & (p.y <= self.max.y)
    }

    /// Whether `other` is entirely inside `self` (boundaries may touch).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// Whether the two (closed) rectangles share at least one point.
    /// Branch-free like [`Rect::contains_point`].
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        (self.min.x <= other.max.x)
            & (other.min.x <= self.max.x)
            & (self.min.y <= other.max.y)
            & (other.min.y <= self.max.y)
    }

    /// The intersection rectangle, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.min.max(&other.min),
            self.max.min(&other.max),
        ))
    }

    /// Area of overlap with `other` (0 when disjoint). Used by the R\*
    /// split algorithm.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The smallest rectangle covering `self` and the point `p`.
    #[inline]
    pub fn expand_to(&self, p: Point) -> Rect {
        Rect {
            min: self.min.min(&p),
            max: self.max.max(&p),
        }
    }

    /// Area increase needed to absorb `other` (the classic R-tree
    /// *enlargement* criterion for choosing a subtree).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Grows the rectangle by `dx` on both horizontal sides and `dy` on
    /// both vertical sides.
    #[inline]
    pub fn inflate(&self, dx: f64, dy: f64) -> Rect {
        Rect::new(
            Point::new(self.min.x - dx, self.min.y - dy),
            Point::new(self.max.x + dx, self.max.y + dy),
        )
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[inline]
    pub fn translate(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            min: self.min.translate(dx, dy),
            max: self.max.translate(dx, dy),
        }
    }

    /// Squared `MINDIST`: the squared Euclidean distance from `p` to the
    /// closest point of the rectangle (0 when `p` is inside).
    ///
    /// This is the standard R-tree lower bound of Roussopoulos et al. and
    /// the paper's `MINDIST(q, qwin)`.
    #[inline]
    pub fn mindist2(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// `MINDIST(p, self)` — Euclidean distance from `p` to the closest
    /// point of the rectangle.
    #[inline]
    pub fn mindist(&self, p: &Point) -> f64 {
        self.mindist2(p).sqrt()
    }

    /// Squared `MAXDIST`: squared distance from `p` to the farthest point
    /// of the rectangle (always one of the four corners).
    #[inline]
    pub fn maxdist2(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Distance from `p` to the farthest point of the rectangle.
    #[inline]
    pub fn maxdist(&self, p: &Point) -> f64 {
        self.maxdist2(p).sqrt()
    }

    /// The four corner points, counter-clockwise from the bottom-left.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// Whether the rectangle has zero area (degenerate line or point).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.width() == 0.0 || self.height() == 0.0
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}, {}..{}]",
            self.min.x, self.max.x, self.min.y, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect;

    #[test]
    fn basic_measures() {
        let r = rect(1.0, 2.0, 4.0, 8.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 18.0);
        assert_eq!(r.margin(), 9.0);
        assert_eq!(r.center(), Point::new(2.5, 5.0));
    }

    #[test]
    fn containment_is_closed() {
        let r = rect(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains_point(&Point::new(0.0, 0.0)));
        assert!(r.contains_point(&Point::new(10.0, 10.0)));
        assert!(r.contains_point(&Point::new(10.0, 5.0)));
        assert!(!r.contains_point(&Point::new(10.0001, 5.0)));
    }

    #[test]
    fn rect_containment() {
        let outer = rect(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&rect(0.0, 0.0, 10.0, 10.0)));
        assert!(outer.contains_rect(&rect(2.0, 3.0, 4.0, 5.0)));
        assert!(!outer.contains_rect(&rect(2.0, 3.0, 11.0, 5.0)));
    }

    #[test]
    fn intersection_edges_touch() {
        let a = rect(0.0, 0.0, 5.0, 5.0);
        let b = rect(5.0, 5.0, 9.0, 9.0);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert!(i.is_degenerate());
        assert_eq!(i.min, Point::new(5.0, 5.0));
    }

    #[test]
    fn disjoint_rects() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn overlap_area_partial() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.overlap_area(&b), 4.0);
        assert_eq!(b.overlap_area(&a), 4.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        let b = rect(3.0, 3.0, 4.0, 4.0);
        let u = a.union(&b);
        assert_eq!(u, rect(0.0, 0.0, 4.0, 4.0));
        assert_eq!(a.enlargement(&b), 16.0 - 4.0);
        // A contained rect requires no enlargement.
        assert_eq!(u.enlargement(&a), 0.0);
    }

    #[test]
    fn mindist_matches_cases() {
        let r = rect(2.0, 2.0, 4.0, 4.0);
        // Inside → 0.
        assert_eq!(r.mindist(&Point::new(3.0, 3.0)), 0.0);
        // Straight left of the rect → horizontal gap.
        assert_eq!(r.mindist(&Point::new(0.0, 3.0)), 2.0);
        // Below-left corner → diagonal distance to the corner.
        assert_eq!(r.mindist(&Point::new(-1.0, -2.0)), 5.0);
        // On the boundary → 0.
        assert_eq!(r.mindist(&Point::new(2.0, 3.0)), 0.0);
    }

    #[test]
    fn maxdist_is_farthest_corner() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        let p = Point::new(-1.0, -1.0);
        // Farthest corner is (2,2), distance sqrt(9+9).
        assert_eq!(r.maxdist2(&p), 18.0);
        // From the center the corners are equidistant.
        assert_eq!(r.maxdist2(&r.center()), 2.0);
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(3.0, 2.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, rect(-2.0, 0.0, 3.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_and_translate() {
        let r = rect(2.0, 2.0, 4.0, 4.0);
        assert_eq!(r.inflate(1.0, 2.0), rect(1.0, 0.0, 5.0, 6.0));
        assert_eq!(r.translate(1.0, -1.0), rect(3.0, 1.0, 5.0, 3.0));
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(4.0, 1.0), Point::new(1.0, 4.0));
        assert_eq!(r, rect(1.0, 1.0, 4.0, 4.0));
    }

    #[test]
    fn corners_order() {
        let r = rect(0.0, 0.0, 1.0, 2.0);
        let c = r.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(1.0, 0.0));
        assert_eq!(c[2], Point::new(1.0, 2.0));
        assert_eq!(c[3], Point::new(0.0, 2.0));
    }
}
