//! E1–E16: every worked example of the paper, executable.
//!
//! This is the paper's de-facto evaluation (it has no measurement tables);
//! each test is indexed in DESIGN.md §5 and regenerated into
//! EXPERIMENTS.md by `gdp-bench`'s `experiments` binary.

use gdp::fuzzy::ac::{ac_of, derive_accuracies, AcOptions};
use gdp::fuzzy::{threshold_model, unified_fuzzy, unified_threshold_model, UnifyPolicy};
use gdp::lang::{load, query};
use gdp::prelude::*;

fn pt(x: f64, y: f64) -> Pat {
    Pat::app("pt", vec![Pat::Float(x), Pat::Float(y)])
}

fn uniform(res: &str, x: f64, y: f64) -> SpaceQual {
    SpaceQual::AreaUniform {
        res: Pat::atom(res),
        at: pt(x, y),
    }
}

/// E1 (§II.B): basic facts `road(s1)`, `road(s2)`, `road_intersection(s1, s2)`.
#[test]
fn e01_basic_facts() {
    let mut spec = Specification::new();
    load(&mut spec, "road(s1). road(s2). road_intersection(s1, s2).").unwrap();
    assert!(spec.provable(FactPat::new("road").arg("s1")).unwrap());
    assert!(spec
        .provable(FactPat::new("road_intersection").arg("s1").arg("s2"))
        .unwrap());
    // Open world: the unstated fact is undefined, not false (§III.A).
    assert!(!spec.provable(FactPat::new("road").arg("s3")).unwrap());
    assert_eq!(query(&spec, "road(X)").unwrap().len(), 2);
}

/// E2 (§III.A): the three virtual-fact examples — open_road (bounded ∀),
/// closed (negation as failure), known_status (disjunction).
#[test]
fn e02_virtual_facts() {
    let mut spec = Specification::new();
    load(
        &mut spec,
        r#"
        road(s1). road(s2).
        bridge(b1, s1). bridge(b2, s1). bridge(b3, s2).
        open(b1). open(b2).
        open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).
        closed(X) :- bridge(X, R), not(open(X)).
        known_status(X) :- bridge(X, R), (open(X) ; closed(X)).
        "#,
    )
    .unwrap();
    let open_roads = query(&spec, "open_road(X)").unwrap();
    assert_eq!(open_roads.len(), 1);
    assert_eq!(open_roads[0].get("X").unwrap(), &Term::atom("s1"));
    let closed = query(&spec, "closed(B)").unwrap();
    assert_eq!(closed.len(), 1);
    assert_eq!(closed[0].get("B").unwrap(), &Term::atom("b3"));
    // With NAF in play, every bridge has a known status.
    assert_eq!(query(&spec, "known_status(B)").unwrap().len(), 3);
}

/// E3 (§III.B): semantic-domain values as fact arguments —
/// `average_temperature(50)(saint_louis)`.
#[test]
fn e03_semantic_domain_values() {
    let mut spec = Specification::new();
    load(&mut spec, "average_temperature(50)(saint_louis).").unwrap();
    let answers = query(&spec, "average_temperature(T)(saint_louis)").unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].get("T").unwrap(), &Term::int(50));
}

/// E4 (§III.C): many-sorted constraint flags `average_temperature(green)`
/// as `bad_temp`; the two-capitals law.
#[test]
fn e04_constraints() {
    let mut spec = Specification::new();
    spec.set_sort_enforcement(SortEnforcement::Off); // the paper flags, not rejects
    load(
        &mut spec,
        r#"
        #domain temperature float(-100, 200).
        average_temperature(45)(saint_louis).
        average_temperature(green)(saint_louis).
        constraint bad_temp(X) :-
            average_temperature(X)(Y), not(domain(temperature, X)).

        capital_of(jc, missouri).
        capital_of(stl, missouri).
        constraint two_capitals(Z) :-
            capital_of(X, Z), capital_of(Y, Z), X \= Y.
        "#,
    )
    .unwrap();
    let violations = spec.check_consistency().unwrap();
    let types: Vec<String> = violations
        .iter()
        .map(|v| v.error_type.to_string())
        .collect();
    assert!(types.contains(&"bad_temp".to_string()), "{types:?}");
    assert!(types.contains(&"two_capitals".to_string()), "{types:?}");
    // The well-sorted temperature is NOT flagged.
    let bad: Vec<_> = violations
        .iter()
        .filter(|v| v.error_type == Term::atom("bad_temp"))
        .collect();
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].witnesses, vec![Term::atom("green")]);
}

/// E5 (§III.D–E): `celsius'freezing_point(0)(x)`, the default model ω, and
/// world-view-relative visibility.
#[test]
fn e05_models_and_world_views() {
    let mut spec = Specification::new();
    load(
        &mut spec,
        r#"
        celsius'freezing_point(0)(x).
        fahrenheit'freezing_point(32)(x).
        boiling(x).   // unqualified -> default model omega
        "#,
    )
    .unwrap();
    // Only ω active: neither freezing point visible, ω's fact is.
    assert!(query(&spec, "freezing_point(T)(x)").unwrap().is_empty());
    assert!(spec.provable(FactPat::new("boiling").arg("x")).unwrap());
    spec.set_world_view(&["omega", "celsius"]).unwrap();
    let answers = query(&spec, "freezing_point(T)(x)").unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].get("T").unwrap(), &Term::int(0));
    spec.set_world_view(&["omega", "celsius", "fahrenheit"])
        .unwrap();
    assert_eq!(query(&spec, "freezing_point(T)(x)").unwrap().len(), 2);
}

/// E6 (§IV.A–B): the closed-world assumption as a meta-fact, and the
/// "no fact may be both true and false" meta-constraint.
#[test]
fn e06_meta_rules() {
    let mut spec = Specification::new();
    spec.declare_object("b1");
    spec.declare_predicate("open_status", vec![Sort::Any, Sort::Object])
        .unwrap();
    // ω: open_status(true)(b1) asserted; nothing known for b2.
    load(&mut spec, "open_status(true)(b1). #object b2.").unwrap();

    let arg2 = |first: &str| {
        Pat::app(
            ".",
            vec![
                Pat::atom(first),
                Pat::app(".", vec![Pat::var("X"), Pat::Term(Term::nil())]),
            ],
        )
    };
    let h = |m: Pat, q: Pat, args: Pat| {
        Pat::app("h", vec![m, Pat::atom("any"), Pat::atom("any"), q, args])
    };

    // CWA meta-fact (§IV.A): any fact not known true is assumed false —
    // quantifying over predicates and objects via the registry.
    let cwa = MetaModel::new("cwa")
        .clause(RawClause::build(
            &h(Pat::var("M"), Pat::var("Q"), arg2("false")),
            &[
                Pat::app("is_model", vec![Pat::var("M")]),
                Pat::app("is_pred", vec![Pat::var("Q")]),
                Pat::app("is_object", vec![Pat::var("X")]),
                Pat::app("not", vec![h(Pat::var("M"), Pat::var("Q"), arg2("true"))]),
            ],
        ))
        .build();
    spec.register_meta_model(cwa);
    // Without the CWA: open_status(false)(b2) is undefined.
    assert!(!spec
        .provable(FactPat::new("open_status").arg("false").arg("b2"))
        .unwrap());
    spec.activate_meta_model("cwa").unwrap();
    assert!(spec
        .provable(FactPat::new("open_status").arg("false").arg("b2"))
        .unwrap());
    // …but not for b1, whose truth is known.
    assert!(!spec
        .provable(FactPat::new("open_status").arg("false").arg("b1"))
        .unwrap());
    spec.deactivate_meta_model("cwa").unwrap();

    // Meta-constraint (§IV.B): no fact both true and false.
    let err_args = Pat::app(
        ".",
        vec![
            Pat::atom("contradiction"),
            Pat::app(
                ".",
                vec![
                    Pat::var("Q"),
                    Pat::app(".", vec![Pat::var("X"), Pat::Term(Term::nil())]),
                ],
            ),
        ],
    );
    let no_contradiction = MetaModel::new("no_contradiction")
        .clause(RawClause::build(
            &h(
                Pat::var("M"),
                Pat::Term(Term::atom(gdp::core::ERROR_PRED)),
                err_args,
            ),
            &[
                h(Pat::var("M"), Pat::var("Q"), arg2("true")),
                h(Pat::var("M"), Pat::var("Q"), arg2("false")),
            ],
        ))
        .build();
    spec.register_meta_model(no_contradiction);
    spec.activate_meta_model("no_contradiction").unwrap();
    assert!(spec.check_consistency().unwrap().is_empty());
    // Assert an explicit contradiction about b1.
    load(&mut spec, "open_status(false)(b1).").unwrap();
    let violations = spec.check_consistency().unwrap();
    assert!(violations
        .iter()
        .any(|v| v.error_type == Term::atom("contradiction")));
}

/// E7 (§IV.C–D): meta-models activate on demand; deactivation removes the
/// derived inferences.
#[test]
fn e07_meta_view() {
    let mut spec = Specification::new();
    gdp::temporal::install_default(&mut spec).unwrap();
    load(&mut spec, "& 1975 dry(lakebed).").unwrap();
    let claim = FactPat::new("dry")
        .arg("lakebed")
        .time(TimeQual::IntervalUniform(IntervalPat::closed(1970, 1980)));
    assert!(!spec.provable(claim.clone()).unwrap());
    spec.activate_meta_model("comprehension_principle").unwrap();
    assert!(spec.provable(claim.clone()).unwrap());
    assert!(spec
        .meta_view()
        .contains(&"comprehension_principle".to_string()));
    spec.deactivate_meta_model("comprehension_principle")
        .unwrap();
    assert!(!spec.provable(claim).unwrap());
}

/// E8 (§V.C): `@p vegetation(pine)(hill)` and the elevation-peak virtual
/// fact — a peak is a point whose elevation dominates all points within
/// `dist0`.
#[test]
fn e08_simple_spatial_operator() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(
        &mut spec,
        "r",
        GridResolution::square(0.0, 0.0, 1.0, 16, 16),
    )
    .unwrap();
    load(
        &mut spec,
        r#"
        @ pt(3.0, 4.0) vegetation(pine)(hill).
        @ pt(5.5, 5.5) elevation(120)(hill).
        @ pt(5.5, 6.5) elevation(90)(hill).
        @ pt(6.5, 5.5) elevation(80)(hill).

        @ P0 elevation_peak(Z0)(X) :-
            @ P0 elevation(Z0)(X),
            forall((@ P1 elevation(Z1)(X), dist(P0, P1, D), D < 2.0),
                   Z0 >= Z1).
        "#,
    )
    .unwrap();
    assert!(spec
        .provable(
            FactPat::new("vegetation")
                .arg("pine")
                .arg("hill")
                .at(pt(3.0, 4.0))
        )
        .unwrap());
    // The 120 m point is a peak; the 90 m point is not (120 is nearby).
    assert!(spec
        .provable(
            FactPat::new("elevation_peak")
                .arg(Pat::Int(120))
                .arg("hill")
                .at(pt(5.5, 5.5))
        )
        .unwrap());
    assert!(!spec
        .provable(
            FactPat::new("elevation_peak")
                .arg(Pat::Int(90))
                .arg("hill")
                .at(pt(5.5, 6.5))
        )
        .unwrap());
}

/// E9 (§V.C): area-uniform inheritance in both directions across the
/// refinement relation.
#[test]
fn e09_area_uniform() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(
        &mut spec,
        "r1",
        GridResolution::square(0.0, 0.0, 10.0, 4, 4),
    )
    .unwrap();
    reg.add_grid(&mut spec, "r2", GridResolution::square(0.0, 0.0, 5.0, 8, 8))
        .unwrap();
    spec.assert_fact(
        FactPat::new("vegetation")
            .arg("pine")
            .arg("land")
            .space(uniform("r1", 5.0, 5.0)),
    )
    .unwrap();
    // Point inheritance.
    assert!(spec
        .provable(
            FactPat::new("vegetation")
                .arg("pine")
                .arg("land")
                .at(pt(2.0, 8.0))
        )
        .unwrap());
    // Finer-subarea inheritance (r2 >> r1).
    assert!(spec
        .provable(
            FactPat::new("vegetation")
                .arg("pine")
                .arg("land")
                .space(uniform("r2", 7.5, 2.5))
        )
        .unwrap());
    // Acquisition (opt-in): all four r2 subpatches ⇒ the r1 patch.
    spec.activate_meta_model("spatial_uniform_acquisition")
        .unwrap();
    for (x, y) in [(12.5, 2.5), (17.5, 2.5), (12.5, 7.5), (17.5, 7.5)] {
        spec.assert_fact(FactPat::new("soil").arg("clay").space(uniform("r2", x, y)))
            .unwrap();
    }
    assert!(spec
        .provable(
            FactPat::new("soil")
                .arg("clay")
                .space(uniform("r1", 15.0, 5.0))
        )
        .unwrap());
}

/// E10 (§V.C): the area-sampled operator — "a road may still have to be
/// drawn even when its actual thickness is much less than the map
/// resolution".
#[test]
fn e10_area_sampled() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(
        &mut spec,
        "map",
        GridResolution::square(0.0, 0.0, 10.0, 4, 4),
    )
    .unwrap();
    spec.assert_fact(FactPat::new("road").arg("rc").at(pt(13.0, 7.0)))
        .unwrap();
    let sampled = |x: f64, y: f64| {
        FactPat::new("road")
            .arg("rc")
            .space(SpaceQual::AreaSampled {
                res: Pat::atom("map"),
                at: pt(x, y),
            })
    };
    assert!(spec.provable(sampled(15.0, 5.0)).unwrap());
    assert!(!spec.provable(sampled(35.0, 5.0)).unwrap());
}

/// E11 (§V.C): the area-averaged operator, from uniform values.
#[test]
fn e11_area_averaged() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(
        &mut spec,
        "r1",
        GridResolution::square(0.0, 0.0, 20.0, 2, 2),
    )
    .unwrap();
    reg.add_grid(
        &mut spec,
        "r2",
        GridResolution::square(0.0, 0.0, 10.0, 4, 4),
    )
    .unwrap();
    for ((x, y), z) in [(5.0, 5.0), (15.0, 5.0), (5.0, 15.0), (15.0, 15.0)]
        .iter()
        .zip([100.0, 200.0, 300.0, 400.0])
    {
        spec.assert_fact(
            FactPat::new("elevation")
                .arg(Pat::Float(z))
                .arg("land")
                .space(uniform("r2", *x, *y)),
        )
        .unwrap();
    }
    let answers = spec
        .query(
            FactPat::new("elevation")
                .arg("Z")
                .arg("land")
                .space(SpaceQual::AreaAveraged {
                    res: Pat::atom("r1"),
                    at: pt(10.0, 10.0),
                }),
        )
        .unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].get("Z").unwrap().as_f64(), Some(250.0));
}

/// E12 (§V.D): abstraction rules — island thresholding and the shore-line
/// composition rule.
#[test]
fn e12_abstraction_rules() {
    use gdp::spatial::abstraction::{abstraction_meta_model, compose_rule, threshold_copy_rule};
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(
        &mut spec,
        "r1",
        GridResolution::square(0.0, 0.0, 10.0, 4, 4),
    )
    .unwrap();
    reg.add_grid(&mut spec, "r2", GridResolution::square(0.0, 0.0, 5.0, 8, 8))
        .unwrap();
    spec.register_meta_model(abstraction_meta_model(
        "map_gen",
        vec![
            threshold_copy_rule("island", "r2", "r1", 2),
            compose_rule("lake", "shore", "shore_line", "r2", "r1"),
        ],
    ));
    spec.activate_meta_model("map_gen").unwrap();
    // A 3-patch island and a 1-patch island at r2.
    for (x, y) in [(2.5, 2.5), (7.5, 2.5), (2.5, 7.5)] {
        spec.assert_fact(FactPat::new("island").arg("big").space(uniform("r2", x, y)))
            .unwrap();
    }
    spec.assert_fact(
        FactPat::new("island")
            .arg("small")
            .space(uniform("r2", 22.5, 2.5)),
    )
    .unwrap();
    assert!(spec
        .provable(
            FactPat::new("island")
                .arg("big")
                .space(uniform("r1", 5.0, 5.0))
        )
        .unwrap());
    assert!(!spec
        .provable(
            FactPat::new("island")
                .arg("small")
                .space(uniform("r1", 25.0, 5.0))
        )
        .unwrap());
    // Shoreline: lake and shore patches collapsing into one r1 patch.
    spec.assert_fact(
        FactPat::new("lake")
            .arg("erie")
            .space(uniform("r2", 32.5, 32.5)),
    )
    .unwrap();
    spec.assert_fact(
        FactPat::new("shore")
            .arg("erie")
            .space(uniform("r2", 37.5, 32.5)),
    )
    .unwrap();
    assert!(spec
        .provable(
            FactPat::new("shore_line")
                .arg("erie")
                .space(uniform("r1", 35.0, 35.0))
        )
        .unwrap());
}

/// E13 (§VI.B): time intervals — comprehension principle, continuity
/// assumption, and the paper's `past(1971)` example with the year 1990.
#[test]
fn e13_temporal_models() {
    let mut spec = Specification::new();
    gdp::temporal::install_default(&mut spec).unwrap();
    spec.set_now(1990.0);
    // past/present/future (§VI.B).
    assert!(spec
        .prove_goal(Term::pred("past", vec![Term::int(1971)]))
        .unwrap());
    assert!(!spec
        .prove_goal(Term::pred("present", vec![Term::int(1971)]))
        .unwrap());
    assert!(!spec
        .prove_goal(Term::pred("future", vec![Term::int(1971)]))
        .unwrap());

    // Continuity: open at 1970, closed at 1980 ⇒ open throughout [1970,1980).
    spec.activate_meta_model("continuity_assumption").unwrap();
    load(
        &mut spec,
        "& 1970 status(open)(b1). & 1980 status(closed)(b1).",
    )
    .unwrap();
    assert!(spec
        .provable(
            FactPat::new("status")
                .arg("open")
                .arg("b1")
                .time(TimeQual::IntervalUniform(IntervalPat::right_open(
                    1970, 1980
                )))
        )
        .unwrap());
    assert!(spec
        .provable(
            FactPat::new("status")
                .arg("open")
                .arg("b1")
                .time(TimeQual::At(Pat::Int(1975)))
        )
        .unwrap());

    // Comprehension: one sighting makes the decade "uniformly" true.
    spec.activate_meta_model("comprehension_principle").unwrap();
    load(&mut spec, "& 1975 sighted(eagle).").unwrap();
    assert!(spec
        .provable(
            FactPat::new("sighted")
                .arg("eagle")
                .time(TimeQual::IntervalUniform(IntervalPat::closed(1970, 1980)))
        )
        .unwrap());
}

/// E14 (§VII.A–B): the min–max rule on the flooded/frozen example; depth
/// interpolation accuracy; picture clarity via `card`.
#[test]
fn e14_fuzzy_sources() {
    let mut spec = Specification::new();
    // flooded=0.45, frozen=0.65 → conjunction 0.45 (§VII.A).
    spec.assert_fuzzy_fact(FactPat::new("flooded").arg("plain"), 0.45)
        .unwrap();
    spec.assert_fuzzy_fact(FactPat::new("frozen").arg("plain"), 0.65)
        .unwrap();
    let conj = Formula::and(
        Formula::fact(FactPat::new("flooded").arg("plain")),
        Formula::fact(FactPat::new("frozen").arg("plain")),
    );
    assert_eq!(
        ac_of(&spec, &conj, &AcOptions::default()).unwrap(),
        Some(0.45)
    );

    // Depth interpolation (§VII.B): accuracy from the interpolation rule.
    load(
        &mut spec,
        r#"
        depth_sample(10.0)(p1). depth_sample(20.0)(p2).
        %A depth_estimate(Z)(mid) :-
            depth_sample(Z1)(p1), depth_sample(Z2)(p2),
            Z is (Z1 + Z2) / 2,
            A is 1 - (Z2 - Z1) / (Z1 + Z2).
        "#,
    )
    .unwrap();
    let answers = spec
        .satisfy(&Formula::fuzzy_fact(
            FactPat::new("depth_estimate").arg("Z").arg("mid"),
            Pat::var("A"),
        ))
        .unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].get("Z").unwrap().as_f64(), Some(15.0));
    let a = answers[0].get("A").unwrap().as_f64().unwrap();
    assert!((a - (1.0 - 10.0 / 30.0)).abs() < 1e-9);

    // Picture clarity via card (§VII.B): 2 cloudy of 5 pixels → 0.6.
    load(
        &mut spec,
        r#"
        pixel(x1). pixel(x2). pixel(x3). pixel(x4). pixel(x5).
        cloudy(x2). cloudy(x5).
        %A clarity(image) :-
            card(cloudy(P), N), card(pixel(P2), N0), A is 1 - N / N0.
        "#,
    )
    .unwrap();
    let answers = spec
        .satisfy(&Formula::fuzzy_fact(
            FactPat::new("clarity").arg("image"),
            Pat::var("A"),
        ))
        .unwrap();
    assert_eq!(answers[0].get("A").unwrap().as_f64(), Some(0.6));
}

/// E15 (§VII.C–E): ignoring accuracy, threshold promotion, the unified
/// fuzzy operator, fuzzy constraints.
#[test]
fn e15_fuzzy_pragmatics() {
    let mut spec = Specification::new();
    spec.assert_fuzzy_fact(FactPat::new("passable").arg("ford"), 0.9)
        .unwrap();
    spec.assert_fuzzy_fact(FactPat::new("passable").arg("ford"), 0.5)
        .unwrap();
    // Case 1: ignoring accuracy — the crisp fact is simply not provable.
    assert!(!spec.provable(FactPat::new("passable").arg("ford")).unwrap());
    // Case 2: threshold promotion into a model (§VII.C), over the
    // *unified* accuracy (§VII.D): max(0.9, 0.5) = 0.9 > 0.75.
    spec.declare_model("m");
    spec.register_meta_model(unified_fuzzy(UnifyPolicy::Max));
    spec.register_meta_model(unified_threshold_model("ut75", "m", 0.75));
    spec.activate_meta_model("unified_fuzzy_max").unwrap();
    spec.activate_meta_model("ut75").unwrap();
    spec.set_world_view(&["omega", "m"]).unwrap();
    assert!(spec.provable(FactPat::new("passable").arg("ford")).unwrap());

    // Simple (non-unified) threshold on individual qualifications.
    spec.register_meta_model(threshold_model("t95", "m", 0.95));
    spec.activate_meta_model("t95").unwrap();
    assert!(!spec.provable(FactPat::new("sound").arg("ford")).unwrap());

    // Fuzzy constraint (§VII.E): flag images below clarity 0.8.
    spec.assert_fuzzy_fact(FactPat::new("clarity").arg("img7"), 0.6)
        .unwrap();
    spec.constrain(Constraint::new("bad_image").witness("X").when(Formula::and(
        Formula::fuzzy_fact(FactPat::new("clarity").arg("X"), Pat::var("A")),
        Formula::Cmp(CmpOp::Lt, Pat::var("A"), Pat::Float(0.8)),
    )))
    .unwrap();
    let violations = spec.check_consistency().unwrap();
    assert!(violations
        .iter()
        .any(|v| v.error_type == Term::atom("bad_image")));

    // Accuracy-qualified error (§VII.E): %0.15 ERROR(missing_bridge).
    spec.assert_fuzzy_fact(
        FactPat::new(gdp::core::ERROR_PRED).arg("missing_bridge"),
        0.15,
    )
    .unwrap();
    let fuzzy = gdp::fuzzy::fuzzy_violations(&spec).unwrap();
    assert!(fuzzy
        .iter()
        .any(|(v, a)| v.error_type == Term::atom("missing_bridge") && *a == 0.15));
}

/// E16 (§VII.F): AC propagation — derived accuracies match the recursive
/// definition and degenerate to two-valued logic on {0, 1}.
#[test]
fn e16_ac_propagation() {
    let mut spec = Specification::new();
    spec.assert_fuzzy_fact(FactPat::new("flooded").arg("plain"), 0.45)
        .unwrap();
    spec.assert_fuzzy_fact(FactPat::new("frozen").arg("plain"), 0.65)
        .unwrap();
    spec.assert_fuzzy_fact(FactPat::new("flooded").arg("valley"), 1.0)
        .unwrap();
    spec.assert_fuzzy_fact(FactPat::new("frozen").arg("valley"), 0.0)
        .unwrap();
    let rule = Rule::new(
        FactPat::new("hazard").arg("X"),
        Formula::and(
            Formula::fact(FactPat::new("flooded").arg("X")),
            Formula::fact(FactPat::new("frozen").arg("X")),
        ),
    );
    let n = derive_accuracies(&mut spec, &rule, &AcOptions::default()).unwrap();
    assert_eq!(n, 2);
    let get_acc = |spec: &Specification, obj: &str| {
        let answers = spec
            .satisfy(&Formula::fuzzy_fact(
                FactPat::new("hazard").arg(obj),
                Pat::var("A"),
            ))
            .unwrap();
        answers[0].get("A").unwrap().as_f64().unwrap()
    };
    assert_eq!(get_acc(&spec, "plain"), 0.45); // min–max
    assert_eq!(get_acc(&spec, "valley"), 0.0); // two-valued degeneracy: 1 ∧ 0 = 0
                                               // Disjunction takes max; negation-as-failure fails on provable facts.
    let disj = Formula::or(
        Formula::fact(FactPat::new("flooded").arg("plain")),
        Formula::fact(FactPat::new("frozen").arg("plain")),
    );
    assert_eq!(
        ac_of(&spec, &disj, &AcOptions::default()).unwrap(),
        Some(0.65)
    );
    let blocked = Formula::and(
        Formula::fact(FactPat::new("flooded").arg("plain")),
        Formula::not(Formula::fact(FactPat::new("frozen").arg("plain"))),
    );
    assert_eq!(ac_of(&spec, &blocked, &AcOptions::default()).unwrap(), None);
}
