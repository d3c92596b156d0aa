//! Absolute space (§V.A).
//!
//! "The absolute space is an abstraction of the coordinate system being
//! used. Each coordinate assumes values from the set of real numbers. In
//! addition to the normal operations over reals, the definition of absolute
//! space also includes a distance function and a direction function
//! specific to the coordinate system being used, i.e., polar, Cartesian,
//! universal transverse mercator, etc."
//!
//! Changing coordinate systems "affects only the definition of the absolute
//! space and not the rules of reasoning about spatial properties" — here,
//! swapping the [`CoordinateSystem`] implementation changes how `dist/3`
//! and `direction/3` compute, while every spatial meta-rule stays put.

use gdp_engine::Term;

/// A position in the 2-D absolute space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// First coordinate (x, or the coordinate-system equivalent).
    pub x: f64,
    /// Second coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Encode as the term `pt(x, y)`.
    pub fn to_term(self) -> Term {
        Term::pred("pt", vec![Term::float(self.x), Term::float(self.y)])
    }

    /// Decode from a (resolved, ground) `pt(x, y)` term.
    pub fn from_term(t: &Term) -> Option<Point> {
        if t.functor()?.as_str() != "pt" || t.arity() != Some(2) {
            return None;
        }
        let args = t.args();
        Some(Point {
            x: args[0].as_f64()?,
            y: args[1].as_f64()?,
        })
    }
}

/// A coordinate system: the distance and direction functions of the
/// absolute space.
pub trait CoordinateSystem: Send + Sync {
    /// Name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Distance between two positions.
    fn distance(&self, a: Point, b: Point) -> f64;

    /// Direction from `a` to `b` in degrees, measured counterclockwise from
    /// the positive x-axis (east), normalized to `[0, 360)`.
    fn direction(&self, a: Point, b: Point) -> f64;

    /// A coordinate box `([x_lo, x_hi], [y_lo, y_hi])` that holds every
    /// position `b` with `distance(p, b) <= d`, so a `dist/3` bound can
    /// select by the grid index. `None` (the default) when the system has
    /// no such box in its own coordinates.
    fn dist_box(&self, p: Point, d: f64) -> Option<[(f64, f64); 2]> {
        let _ = (p, d);
        None
    }
}

/// `p`'s coordinates, each widened by `d` and by a relative 1e-9, so that
/// rounding in [`Cartesian::distance`] never puts a position inside the
/// distance but outside the box.
fn square_around(p: Point, d: f64) -> Option<[(f64, f64); 2]> {
    if !(d.is_finite() && p.x.is_finite() && p.y.is_finite()) {
        return None;
    }
    let r = d + 1e-9 * (d.abs() + p.x.abs() + p.y.abs() + 1.0);
    Some([(p.x - r, p.x + r), (p.y - r, p.y + r)])
}

/// Plain Cartesian plane.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cartesian;

impl CoordinateSystem for Cartesian {
    fn name(&self) -> &'static str {
        "cartesian"
    }

    fn distance(&self, a: Point, b: Point) -> f64 {
        ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
    }

    fn direction(&self, a: Point, b: Point) -> f64 {
        let deg = (b.y - a.y).atan2(b.x - a.x).to_degrees();
        deg.rem_euclid(360.0)
    }

    fn dist_box(&self, p: Point, d: f64) -> Option<[(f64, f64); 2]> {
        square_around(p, d)
    }
}

/// Polar coordinates: `x` is the radius, `y` the angle in degrees.
/// Distance/direction are computed by conversion to the plane.
#[derive(Clone, Copy, Debug, Default)]
pub struct Polar;

impl Polar {
    fn to_cartesian(p: Point) -> Point {
        let theta = p.y.to_radians();
        Point::new(p.x * theta.cos(), p.x * theta.sin())
    }
}

impl CoordinateSystem for Polar {
    fn name(&self) -> &'static str {
        "polar"
    }

    fn distance(&self, a: Point, b: Point) -> f64 {
        Cartesian.distance(Self::to_cartesian(a), Self::to_cartesian(b))
    }

    fn direction(&self, a: Point, b: Point) -> f64 {
        Cartesian.direction(Self::to_cartesian(a), Self::to_cartesian(b))
    }
}

/// A simplified universal-transverse-mercator-style system: `x` is an
/// easting and `y` a northing in meters within one zone, so plane geometry
/// applies, but direction is reported as a compass bearing (clockwise from
/// north), as UTM consumers expect.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimplifiedUtm;

impl CoordinateSystem for SimplifiedUtm {
    fn name(&self) -> &'static str {
        "utm"
    }

    fn distance(&self, a: Point, b: Point) -> f64 {
        Cartesian.distance(a, b)
    }

    fn direction(&self, a: Point, b: Point) -> f64 {
        // Compass bearing: 0° = north, 90° = east.
        let deg = (b.x - a.x).atan2(b.y - a.y).to_degrees();
        deg.rem_euclid(360.0)
    }

    fn dist_box(&self, p: Point, d: f64) -> Option<[(f64, f64); 2]> {
        square_around(p, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn point_term_round_trip() {
        let p = Point::new(3.5, -4.25);
        let t = p.to_term();
        assert_eq!(Point::from_term(&t), Some(p));
        assert_eq!(Point::from_term(&Term::atom("elsewhere")), None);
    }

    #[test]
    fn point_from_int_coords() {
        let t = Term::pred("pt", vec![Term::int(3), Term::int(4)]);
        assert_eq!(Point::from_term(&t), Some(Point::new(3.0, 4.0)));
    }

    #[test]
    fn cartesian_distance_is_euclidean() {
        let d = Cartesian.distance(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert!(approx(d, 5.0));
    }

    #[test]
    fn cartesian_direction_quadrants() {
        let o = Point::new(0.0, 0.0);
        assert!(approx(Cartesian.direction(o, Point::new(1.0, 0.0)), 0.0));
        assert!(approx(Cartesian.direction(o, Point::new(0.0, 1.0)), 90.0));
        assert!(approx(Cartesian.direction(o, Point::new(-1.0, 0.0)), 180.0));
        assert!(approx(Cartesian.direction(o, Point::new(0.0, -1.0)), 270.0));
    }

    #[test]
    fn polar_agrees_with_cartesian_geometry() {
        // (r=1, θ=0°) and (r=1, θ=90°) are unit-circle points; chord √2.
        let d = Polar.distance(Point::new(1.0, 0.0), Point::new(1.0, 90.0));
        assert!(approx(d, std::f64::consts::SQRT_2));
    }

    #[test]
    fn dist_boxes_hold_every_point_within_the_distance() {
        let p = Point::new(12.5, -3.25);
        for cs in [&Cartesian as &dyn CoordinateSystem, &SimplifiedUtm] {
            let [(x0, x1), (y0, y1)] = cs.dist_box(p, 2.0).expect("a plane box");
            for k in 0..64 {
                let a = f64::from(k) * std::f64::consts::TAU / 64.0;
                let b = Point::new(p.x + 2.0 * a.cos(), p.y + 2.0 * a.sin());
                assert!(cs.distance(p, b) <= 2.0 + 1e-12);
                assert!(x0 <= b.x && b.x <= x1 && y0 <= b.y && b.y <= y1, "{b:?}");
            }
        }
        // Polar coordinates have no such box.
        assert_eq!(Polar.dist_box(p, 2.0), None);
        assert_eq!(Cartesian.dist_box(p, f64::INFINITY), None);
    }

    #[test]
    fn utm_bearing_is_clockwise_from_north() {
        let o = Point::new(0.0, 0.0);
        assert!(approx(
            SimplifiedUtm.direction(o, Point::new(0.0, 1.0)),
            0.0
        ));
        assert!(approx(
            SimplifiedUtm.direction(o, Point::new(1.0, 0.0)),
            90.0
        ));
        assert!(approx(
            SimplifiedUtm.direction(o, Point::new(0.0, -1.0)),
            180.0
        ));
    }
}
