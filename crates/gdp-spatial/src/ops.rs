//! The spatial operators as activatable meta-models (§V.C).
//!
//! Each constructor returns the rule pack for one operator, a direct
//! transliteration of the paper's defining meta-facts. They are separate
//! meta-models so "the separation … enables the experimentation with
//! different rules of inference without having to change the remainder of
//! the formalization" (§IV.C) — and, pragmatically, because the paper's
//! *acquisition* direction of the area-uniform operator quantifies over
//! every subarea and is only decidable for ground queries; keeping it in
//! its own pack lets users opt in per query mix.

use gdp_core::{MetaModel, Pat, RawClause};
use gdp_engine::{ArgPath, RangeSpec};

use crate::dsl::{a, cons, goal, h, pt, range_call, rc, sa, sat, ss, su, v};

/// Grid range index over patch representative-point coordinates: the `(x,
/// y)` pair inside any `su/ss/sa` spatial qualifier of an `h/5` head. The
/// bucket edge (4.0) is a fixed tuning constant independent of the
/// registered logical grids — it only trades bucket count against bucket
/// size; pruning correctness comes from the KB, not from this choice.
fn patch_grid_spec() -> RangeSpec {
    let coord = |child| {
        ArgPath::arg(1)
            .step_any(&[("su", 2), ("ss", 2), ("sa", 2)], 1)
            .step("pt", 2, child)
    };
    RangeSpec::Grid {
        x: coord(0),
        y: coord(1),
        cell: 4.0,
    }
}

/// Grid range index over the coordinates of simple `@ pt(x, y)` facts:
/// the `(x, y)` pair inside a `sat/1` spatial qualifier of an `h/5` head,
/// bucketed as [`patch_grid_spec`] buckets patches.
fn point_grid_spec() -> RangeSpec {
    let coord = |child| ArgPath::arg(1).step("sat", 1, 0).step("pt", 2, child);
    RangeSpec::Grid {
        x: coord(0),
        y: coord(1),
        cell: 4.0,
    }
}

/// The simple spatial operator `@p` (§V.C).
///
/// * `(∀P,Q,X): Q(X) ⇒ @P Q(X)` — "space-independent facts are true at
///   every point in space". (The converse direction, `@P Q(X) ⇔ Q(P)(X)`,
///   is the reified representation itself.)
///
/// The rule is guarded by `nonvar(P)`: it answers "is Q true at *this*
/// point?" but never enumerates the (infinite) set of points — the paper's
/// own caveat about formulas whose point set is not finite. The guard is
/// also what keeps the spatial-property definitions (§V.D) stratified:
/// they enumerate position-dependent facts with an unbound position, which
/// must not re-derive space-independent facts at fresh points.
pub fn simple_op() -> MetaModel {
    MetaModel::new("spatial_simple")
        .doc("simple spatial operator: space-independent facts hold everywhere")
        .clause(RawClause::build(
            &h(v("M"), sat(v("P")), v("T"), v("Q"), v("A")),
            &[
                goal("nonvar", vec![v("P")]),
                h(v("M"), a("any"), v("T"), v("Q"), v("A")),
            ],
        ))
        .build()
}

/// The area-uniform operator `@u[R]p` (§V.C), inheritance directions:
///
/// * "the property is true for all points in the area":
///   `@u[R]P0 Q(X) ∧ R(P) = P0 ⇒ @P Q(X)`;
/// * "the property is inherited by the higher resolution subareas":
///   `(R2 >> R1) ∧ @u[R1]P1 Q(X) ∧ R1(P2) = R1(P1) ⇒ @u[R2]P2 Q(X)`.
pub fn area_uniform() -> MetaModel {
    MetaModel::new("spatial_uniform")
        .doc("area-uniform operator: patch properties hold at member points and finer subareas")
        // Patch inheritance re-derives the same h/5 instances along many
        // refinement paths; nominate h/5 for answer tabling.
        .table("h", 5)
        // Nominate the coordinate grid index so the `range_call` bounds
        // below actually prune the patch enumeration.
        .range_index("h", 5, patch_grid_spec())
        .clause(RawClause::build(
            &h(v("M"), sat(v("P")), v("T"), v("Q"), v("A")),
            &[
                // One grid at a time: each gets its own box around P, and
                // the patch lookup keys the resolution, so no grid's
                // patches are drawn by another grid's box.
                goal("is_resolution", vec![v("R")]),
                goal("rmap_box", vec![v("R"), v("P"), v("IVX"), v("IVY")]),
                range_call(
                    h(
                        v("M"),
                        su(v("R"), pt(v("X0"), v("Y0"))),
                        v("T"),
                        v("Q"),
                        v("A"),
                    ),
                    vec![rc(v("X0"), v("IVX")), rc(v("Y0"), v("IVY"))],
                ),
                goal("rmap", vec![v("R"), v("P"), pt(v("X0"), v("Y0"))]),
            ],
        ))
        .clause(RawClause::build(
            &h(v("M"), su(v("R2"), v("P2")), v("T"), v("Q"), v("A")),
            &[
                goal("refines", vec![v("R2"), v("R1")]),
                // P2 must be a representative point of R2 …
                goal("rmap", vec![v("R2"), v("P2"), v("P2")]),
                // … and the carrying R1-patch must contain P2, so its
                // representative point lies within one R1-cell of it.
                goal("rmap_box", vec![v("R1"), v("P2"), v("IVX"), v("IVY")]),
                range_call(
                    h(
                        v("M"),
                        su(v("R1"), pt(v("X1"), v("Y1"))),
                        v("T"),
                        v("Q"),
                        v("A"),
                    ),
                    vec![rc(v("X1"), v("IVX")), rc(v("Y1"), v("IVY"))],
                ),
                goal("rmap", vec![v("R1"), v("P2"), pt(v("X1"), v("Y1"))]),
            ],
        ))
        .build()
}

/// The acquisition direction of the area-uniform operator (§V.C):
///
/// * "the property is acquired by a low resolution area if all its high
///   resolution subareas share the same property":
///   `(R2 >> R1) ∧ (∀P2: R1(P2) = R1(P1) → @u[R2]P2 Q(X)) ⇒ @u[R1]P1 Q(X)`.
///
/// Decidable only for ground queries (the paper's note: the quantification
/// works "in a context where the set of values taken by P is finite" — our
/// grids are finite, but the query must fix the target patch).
pub fn area_uniform_acquisition() -> MetaModel {
    MetaModel::new("spatial_uniform_acquisition")
        .doc("area-uniform acquisition: a patch acquires a property all its subpatches share")
        // The bounded-forall over subpatches re-proves each subpatch fact
        // once per enclosing patch; nominate h/5 for answer tabling.
        .table("h", 5)
        .clause(RawClause::build(
            &h(v("M"), su(v("R1"), v("P1")), v("T"), v("Q"), v("A")),
            &[
                goal("refines", vec![v("R2"), v("R1")]),
                goal("cell_points", vec![v("R1"), v("R2"), v("P1"), v("L")]),
                goal("\\=", vec![v("L"), Pat::Term(gdp_engine::Term::nil())]),
                goal(
                    "forall",
                    vec![
                        goal("member", vec![v("P2"), v("L")]),
                        h(v("M"), su(v("R2"), v("P2")), v("T"), v("Q"), v("A")),
                    ],
                ),
            ],
        ))
        .build()
}

/// The transition to a finite-resolution view of the world (§V.C): every
/// point fact becomes a patch fact,
/// `@P Q(X) ∧ R(P) = P0 ⇒ @u[R]P0 Q(X)` — "all that is required to
/// accomplish the transition … for applications where this substitution is
/// appropriate, e.g., when a maximum target resolution may be determined".
pub fn finite_resolution_view() -> MetaModel {
    MetaModel::new("finite_resolution_view")
        .doc("finite-resolution substitution: point facts become patch facts")
        .clause(RawClause::build(
            &h(v("M"), su(v("R"), v("P0")), v("T"), v("Q"), v("A")),
            &[
                h(v("M"), sat(v("P")), v("T"), v("Q"), v("A")),
                goal("rmap", vec![v("R"), v("P"), v("P0")]),
            ],
        ))
        .build()
}

/// The area-sampled operator `@s[R]p` (§V.C):
///
/// * "the area acquires the sample if any point in the area has the
///   property": `@P Q(X) ∧ R(P) = P0 ⇒ @s[R]P0 Q(X)`;
/// * "the area acquires the sample if any subarea has it":
///   `(R2 >> R1) ∧ @s[R2]P2 Q(X) ∧ R1(P2) = R1(P1) ⇒ @s[R1]P1 Q(X)`.
pub fn area_sampled() -> MetaModel {
    MetaModel::new("spatial_sampled")
        .doc("area-sampled operator: a patch holds a sample if any point or subpatch does")
        .table("h", 5)
        .range_index("h", 5, patch_grid_spec())
        // The point rule looks its points up by cell.
        .range_index("h", 5, point_grid_spec())
        .clause(RawClause::build(
            &h(v("M"), ss(v("R"), v("P0")), v("T"), v("Q"), v("A")),
            &[
                // Every point P0's patch samples lies within a cell of
                // P0. When P0's coordinates are still variables (the
                // refinement rule's sub-call below), the box is drawn
                // over their own bounds, so the refinement rule's box
                // reaches this lookup too.
                goal("rmap_box", vec![v("R"), v("P0"), v("IVX"), v("IVY")]),
                // With a box, look up points only (rmap/3 fails on
                // anything else), so the grid index sees the coordinates.
                // Without one P stays open: a `pt(X, Y)` would pass
                // `spatial_simple`'s `nonvar` guard and draw every
                // space-independent fact of Q.
                goal(
                    ";",
                    vec![
                        Pat::app(
                            ",",
                            vec![
                                goal("nonvar", vec![v("IVX")]),
                                goal("=", vec![v("P"), pt(v("X"), v("Y"))]),
                            ],
                        ),
                        goal("var", vec![v("IVX")]),
                    ],
                ),
                range_call(
                    h(v("M"), sat(v("P")), v("T"), v("Q"), v("A")),
                    vec![rc(v("X"), v("IVX")), rc(v("Y"), v("IVY"))],
                ),
                goal("rmap", vec![v("R"), v("P"), v("P0")]),
            ],
        ))
        .clause(RawClause::build(
            &h(v("M"), ss(v("R1"), v("P1")), v("T"), v("Q"), v("A")),
            &[
                goal("refines", vec![v("R2"), v("R1")]),
                // When the target patch P1 is ground, any contributing
                // subpatch representative lies within its R1-cell.
                goal("rmap_box", vec![v("R1"), v("P1"), v("IVX"), v("IVY")]),
                range_call(
                    h(
                        v("M"),
                        ss(v("R2"), pt(v("X2"), v("Y2"))),
                        v("T"),
                        v("Q"),
                        v("A"),
                    ),
                    vec![rc(v("X2"), v("IVX")), rc(v("Y2"), v("IVY"))],
                ),
                goal("rmap", vec![v("R1"), pt(v("X2"), v("Y2")), v("P1")]),
            ],
        ))
        // A uniform patch trivially provides a sample of itself.
        .clause(RawClause::build(
            &h(v("M"), ss(v("R"), v("P0")), v("T"), v("Q"), v("A")),
            &[h(v("M"), su(v("R"), v("P0")), v("T"), v("Q"), v("A"))],
        ))
        .build()
}

/// The area-averaged operator `@a[R]p` (§V.C). The averaged value is, by
/// convention, the **first** argument of the fact (the paper's `Q(Y)(X)`
/// semantic-domain position):
///
/// * "the average may be computed if values are known for each subarea"
///   (from `@u[R2]` values);
/// * "the average may be computed if averages are known for each subarea"
///   (from `@a[R2]` values).
///
/// Both use the paper's `avg` function — here the engine's
/// `aggregate(avg, …)`, which fails (derives nothing) when no subarea
/// value exists.
pub fn area_averaged() -> MetaModel {
    let from = |inner_op: fn(Pat, Pat) -> Pat| {
        RawClause::build(
            &h(
                v("M"),
                sa(v("R1"), v("P1")),
                v("T"),
                v("Q"),
                cons(v("Y0"), v("Rest")),
            ),
            &[
                goal("refines", vec![v("R2"), v("R1")]),
                goal("cell_points", vec![v("R1"), v("R2"), v("P1"), v("L")]),
                goal(
                    "aggregate",
                    vec![
                        a("avg"),
                        v("Y"),
                        Pat::app(
                            ",",
                            vec![
                                goal("member", vec![v("P2"), v("L")]),
                                h(
                                    v("M"),
                                    inner_op(v("R2"), v("P2")),
                                    v("T"),
                                    v("Q"),
                                    cons(v("Y"), v("Rest")),
                                ),
                            ],
                        ),
                        v("Y0"),
                    ],
                ),
            ],
        )
    };
    MetaModel::new("spatial_averaged")
        .doc("area-averaged operator: patch value is the mean of subpatch values")
        // Each enclosing patch's average re-enumerates every subpatch
        // value; nominate h/5 for answer tabling. (Its own lookups arrive
        // with `member/2`-bound positions — exact keys the hash index
        // serves — but the grid nomination keeps the access path uniform
        // across the @u/@s/@a family.)
        .table("h", 5)
        .range_index("h", 5, patch_grid_spec())
        .clause(from(su))
        .clause(from(sa))
        .build()
}

/// Spatial properties of objects (§V.D): `point_type/1`, `overlap/2`, and
/// resolution-relative `adjacent/3`, defined exactly as the paper does —
/// over *position-dependent* properties only ("facts formulated in a space
/// independent manner are true at every point in space … they are excluded
/// from consideration").
pub fn spatial_properties() -> MetaModel {
    let not_space_independent =
        |q: Pat, args: Pat, m: Pat| goal("not", vec![h(m, a("any"), a("any"), q, args)]);
    MetaModel::new("spatial_properties")
        .doc("derived geometric properties: point_type, overlap, adjacent")
        // point_type(X): all position-dependent properties of X are true at
        // a single point (§V.D).
        .clause(RawClause::build(
            &h(
                v("M"),
                a("any"),
                a("any"),
                a("point_type"),
                Pat::app(".", vec![v("X"), Pat::Term(gdp_engine::Term::nil())]),
            ),
            &[
                goal("is_model", vec![v("M")]),
                goal("is_object", vec![v("X")]),
                h(v("M"), sat(v("P1")), v("T1"), v("Q1"), v("A1")),
                goal("member", vec![v("X"), v("A1")]),
                not_space_independent(v("Q1"), v("A1"), v("M")),
                goal(
                    "forall",
                    vec![
                        Pat::app(
                            ",",
                            vec![
                                h(v("M"), sat(v("P2")), v("T2"), v("Q2"), v("A2")),
                                Pat::app(
                                    ",",
                                    vec![
                                        goal("member", vec![v("X"), v("A2")]),
                                        not_space_independent(v("Q2"), v("A2"), v("M")),
                                    ],
                                ),
                            ],
                        ),
                        goal("==", vec![v("P1"), v("P2")]),
                    ],
                ),
            ],
        ))
        // overlap(X, Y): some position carries a position-dependent
        // property of X and one of Y (§V.D).
        .clause(RawClause::build(
            &h(
                v("M"),
                a("any"),
                a("any"),
                a("overlap"),
                Pat::app(
                    ".",
                    vec![
                        v("X"),
                        Pat::app(".", vec![v("Y"), Pat::Term(gdp_engine::Term::nil())]),
                    ],
                ),
            ),
            &[
                goal("is_model", vec![v("M")]),
                goal("is_object", vec![v("X")]),
                goal("is_object", vec![v("Y")]),
                goal("\\==", vec![v("X"), v("Y")]),
                // Both lookups run with *unbound* positions and compare
                // afterwards: a ground-position lookup would re-derive
                // space-independent facts (including `overlap` itself) at
                // that point via the simple operator and loop. With the
                // position unbound, the simple operator's `nonvar` guard
                // keeps the enumeration to genuinely positional facts —
                // which is exactly the paper's exclusion of space-
                // independent facts from the overlap definition.
                h(v("M"), sat(v("P1")), v("T1"), v("Q1"), v("A1")),
                goal("member", vec![v("X"), v("A1")]),
                not_space_independent(v("Q1"), v("A1"), v("M")),
                h(v("M"), sat(v("P2")), v("T2"), v("Q2"), v("A2")),
                goal("member", vec![v("Y"), v("A2")]),
                not_space_independent(v("Q2"), v("A2"), v("M")),
                goal("==", vec![v("P1"), v("P2")]),
            ],
        ))
        // adjacent(X, Y, R): X and Y occupy neighboring patches of the
        // logical space R ("adjacency, usually at some given resolution").
        .clause(RawClause::build(
            &h(
                v("M"),
                a("any"),
                a("any"),
                a("adjacent"),
                Pat::app(
                    ".",
                    vec![
                        v("X"),
                        Pat::app(
                            ".",
                            vec![
                                v("Y"),
                                Pat::app(".", vec![v("R"), Pat::Term(gdp_engine::Term::nil())]),
                            ],
                        ),
                    ],
                ),
            ),
            &[
                goal("is_model", vec![v("M")]),
                h(v("M"), su(v("R"), v("P1")), v("T1"), v("Q1"), v("A1")),
                goal("member", vec![v("X"), v("A1")]),
                h(v("M"), su(v("R"), v("P2")), v("T2"), v("Q2"), v("A2")),
                goal("member", vec![v("Y"), v("A2")]),
                goal("\\==", vec![v("X"), v("Y")]),
                goal("adjacent_cells", vec![v("R"), v("P1"), v("P2")]),
            ],
        ))
        .build()
}

/// Relative orientation between objects (§V.D mentions "relative
/// orientation" among the spatial relations the operators should support):
/// `north_of/3`, `south_of/3`, `east_of/3`, `west_of/3`, each relative to a
/// resolution — `north_of(X, Y, R)` holds when some patch of `X` lies
/// within ±45° of due north of some patch of `Y` at resolution `R`,
/// measured by the registered coordinate system's `direction/3`.
pub fn direction_relations() -> MetaModel {
    let relation = |pred: &str, lo: f64, hi: f64, wraps: bool| {
        let angle_check: Vec<Pat> = if wraps {
            // East spans 315°..360° ∪ 0°..45°.
            vec![goal(
                ";",
                vec![
                    goal(">=", vec![v("D"), Pat::Float(lo)]),
                    goal("=<", vec![v("D"), Pat::Float(hi)]),
                ],
            )]
        } else {
            vec![
                goal(">=", vec![v("D"), Pat::Float(lo)]),
                goal("=<", vec![v("D"), Pat::Float(hi)]),
            ]
        };
        let mut body = vec![
            goal("is_model", vec![v("M")]),
            h(v("M"), su(v("R"), v("P1")), v("T1"), v("Q1"), v("A1")),
            goal("member", vec![v("X"), v("A1")]),
            h(v("M"), su(v("R"), v("P2")), v("T2"), v("Q2"), v("A2")),
            goal("member", vec![v("Y"), v("A2")]),
            goal("\\==", vec![v("X"), v("Y")]),
            goal("\\==", vec![v("P1"), v("P2")]),
            // Direction from Y's patch toward X's patch.
            goal("direction", vec![v("P2"), v("P1"), v("D")]),
        ];
        body.extend(angle_check);
        RawClause::build(
            &h(
                v("M"),
                a("any"),
                a("any"),
                a(pred),
                Pat::app(
                    ".",
                    vec![
                        v("X"),
                        Pat::app(
                            ".",
                            vec![
                                v("Y"),
                                Pat::app(".", vec![v("R"), Pat::Term(gdp_engine::Term::nil())]),
                            ],
                        ),
                    ],
                ),
            ),
            &body,
        )
    };
    MetaModel::new("direction_relations")
        .doc("relative orientation: north_of/south_of/east_of/west_of at a resolution")
        // Cartesian convention: 90° = north, 270° = south, 0/360° = east,
        // 180° = west; each relation accepts a ±45° cone.
        .clause(relation("north_of", 45.0, 135.0, false))
        .clause(relation("south_of", 225.0, 315.0, false))
        .clause(relation("west_of", 135.0, 225.0, false))
        .clause(relation("east_of", 315.0, 45.0, true))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_models_have_expected_shapes() {
        assert_eq!(simple_op().clauses().len(), 1);
        assert_eq!(area_uniform().clauses().len(), 2);
        assert_eq!(area_uniform_acquisition().clauses().len(), 1);
        assert_eq!(area_sampled().clauses().len(), 3);
        assert_eq!(area_averaged().clauses().len(), 2);
        assert_eq!(spatial_properties().clauses().len(), 3);
        assert_eq!(direction_relations().clauses().len(), 4);
    }

    #[test]
    fn uniform_rules_reference_rmap() {
        let mm = area_uniform();
        let rendered: Vec<String> = mm
            .clauses()
            .iter()
            .map(|c| format!("{} :- {}", c.head, c.body))
            .collect();
        assert!(rendered[0].contains("rmap("));
        assert!(rendered[1].contains("refines("));
    }
}
