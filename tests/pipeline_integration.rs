//! Cross-crate pipeline tests: specification-language sources driving the
//! full stack (lang → core → engine → spatial/temporal/fuzzy → render) on
//! generated data.

use gdp::datagen::{Network, NetworkConfig, Terrain, TerrainConfig};
use gdp::lang::{query, Loader};
use gdp::prelude::*;
use gdp::render::{Layer, MapRenderer, Rgb};

/// A complete specification written purely in the language, with grids,
/// spatial facts, rules, and queries.
#[test]
fn language_drives_the_full_stack() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    let src = r#"
        #grid fine square(0, 0, 5, 8, 8).
        #grid coarse square(0, 0, 10, 4, 4).

        @u[fine] pt(2.5, 2.5) water(lake_a).
        @u[fine] pt(7.5, 2.5) water(lake_a).
        @u[fine] pt(2.5, 7.5) shore(lake_a).
        @ pt(31.0, 17.0) beacon(nav7).

        // Sampled at the coarse map: thin features survive (§V.C).
        ?- @s[coarse] pt(35.0, 15.0) beacon(nav7).
        // Uniform inheritance downward.
        ?- @ pt(6.0, 4.0) water(lake_a).
    "#;
    let summary = Loader::with_spatial(&mut spec, &reg).load_str(src).unwrap();
    assert_eq!(summary.directives, 2);
    assert_eq!(summary.query_results.len(), 2);
    // Multiple derivation paths (direct sample + via the finer grid) may
    // repeat the answer; what matters is provability.
    assert!(
        !summary.query_results[0].is_empty(),
        "beacon sampled at coarse"
    );
    assert_eq!(
        summary.query_results[1].len(),
        1,
        "point inside water patch"
    );
}

/// Generated network → facts → the paper's road logic, end to end, with
/// results cross-checked against the generator's ground truth.
#[test]
fn network_roundtrip_matches_ground_truth() {
    let terrain = Terrain::generate(TerrainConfig::default());
    let network = Network::generate(&terrain, NetworkConfig::default());
    let mut spec = Specification::new();
    for road in &network.roads {
        let rname = format!("road{}", road.id);
        spec.assert_fact(FactPat::new("road").arg(rname.as_str()))
            .unwrap();
        for bridge in &road.bridges {
            let bname = format!("bridge{}", bridge.id);
            spec.assert_fact(
                FactPat::new("bridge")
                    .arg(bname.as_str())
                    .arg(rname.as_str()),
            )
            .unwrap();
            if bridge.open {
                spec.assert_fact(FactPat::new("open").arg(bname.as_str()))
                    .unwrap();
            }
        }
    }
    gdp::lang::load(
        &mut spec,
        "open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).",
    )
    .unwrap();
    let open_roads: Vec<String> = query(&spec, "open_road(R)")
        .unwrap()
        .iter()
        .map(|a| a.get("R").unwrap().to_string())
        .collect();
    // Ground truth: a road is open iff all its bridges are open.
    for road in &network.roads {
        let expected = road.bridges.iter().all(|b| b.open);
        let got = open_roads.contains(&format!("road{}", road.id));
        assert_eq!(got, expected, "road{}", road.id);
    }
}

/// Terrain → facts → renderer: the rendered ASCII map agrees cell-by-cell
/// with the generator's ground truth (every pixel is a logic query).
#[test]
fn rendering_agrees_with_ground_truth() {
    let terrain = Terrain::generate(TerrainConfig {
        seed: 5,
        width: 8,
        height: 8,
        feature_scale: 4.0,
        octaves: 3,
        water_level: 0.5,
        max_elevation: 100.0,
    });
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    reg.add_grid(&mut spec, "g", GridResolution::square(0.0, 0.0, 1.0, 8, 8))
        .unwrap();
    for j in 0..8 {
        for i in 0..8 {
            if terrain.is_water(i, j) {
                spec.assert_fact(
                    FactPat::new("water")
                        .arg("sea")
                        .space(SpaceQual::AreaUniform {
                            res: Pat::atom("g"),
                            at: Pat::app(
                                "pt",
                                vec![
                                    Pat::Float(f64::from(i) + 0.5),
                                    Pat::Float(f64::from(j) + 0.5),
                                ],
                            ),
                        }),
                )
                .unwrap();
            }
        }
    }
    let ascii = MapRenderer::new("g")
        .layer(Layer::uniform("water", '~', Rgb(0, 0, 255)))
        .render_ascii(&spec, &reg)
        .unwrap();
    let rows: Vec<&str> = ascii.lines().collect();
    for j in 0..8u32 {
        for i in 0..8u32 {
            // Image row 0 is grid row 7.
            let glyph = rows[(7 - j) as usize].as_bytes()[i as usize] as char;
            assert_eq!(
                glyph == '~',
                terrain.is_water(i, j),
                "cell ({i},{j}) disagrees"
            );
        }
    }
}

/// Spatial and temporal qualifiers compose on one fact, loaded from
/// source text.
#[test]
fn spacetime_composition_through_language() {
    let (mut spec, reg) = gdp::standard_spec().unwrap();
    let src = r#"
        #grid g square(0, 0, 10, 4, 4).
        &u[1970, 1980) @u[g] pt(5.0, 5.0) flooded(plain).
        ?- & 1975 @ pt(3.0, 3.0) flooded(plain).
        ?- & 1985 @ pt(3.0, 3.0) flooded(plain).
        ?- & 1975 @ pt(23.0, 3.0) flooded(plain).
    "#;
    let summary = Loader::with_spatial(&mut spec, &reg).load_str(src).unwrap();
    // Two derivation orders (space-then-time, time-then-space) repeat
    // the ground answer; provability is the claim.
    assert!(
        !summary.query_results[0].is_empty(),
        "inside patch & interval"
    );
    assert_eq!(summary.query_results[1].len(), 0, "outside interval");
    assert_eq!(summary.query_results[2].len(), 0, "outside patch");
}

/// `between(1, i64::MAX, _), fail`: a clause body that never ends, tabled
/// or not (SLG closes a cycle such as `loop :- loop` or left recursion).
fn endless_body() -> Term {
    Term::and(
        Term::pred(
            "between",
            vec![Term::int(1), Term::int(i64::MAX), Term::var(0)],
        ),
        Term::atom("fail"),
    )
}

/// The engine's resource budget protects against a non-terminating
/// specification instead of hanging.
#[test]
fn runaway_specification_reports_step_limit() {
    let mut spec = Specification::new();
    spec.set_budget(50_000, 64);
    spec.kb_mut()
        .assert_clause(Term::atom("runaway"), endless_body());
    let result = spec.prove_goal(Term::atom("runaway"));
    assert!(matches!(
        result,
        Err(SpecError::Engine(
            gdp::engine::EngineError::StepLimit { .. }
        ))
    ));
}

/// Budget exhaustion inside one query leaves the specification usable for
/// the next query.
#[test]
fn budget_exhaustion_is_recoverable() {
    let mut spec = Specification::new();
    spec.set_budget(10_000, 32);
    spec.kb_mut()
        .assert_clause(Term::atom("loop"), endless_body());
    spec.assert_fact(FactPat::new("fine").arg("fact")).unwrap();
    assert!(spec.prove_goal(Term::atom("loop")).is_err());
    assert!(spec.provable(FactPat::new("fine").arg("fact")).unwrap());
}
