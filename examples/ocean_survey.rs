//! Ocean survey: accuracy qualification end to end (§VII). Sparse noisy
//! soundings become fuzzy facts; interpolated depths get computed
//! accuracies; picture clarity is defined statistically through `card`;
//! threshold meta-models promote trusted facts into a mission model; and
//! the AC evaluator propagates accuracy through a navigability rule.
//!
//! Run with: `cargo run -p gdp --example ocean_survey`

use gdp::datagen::{DepthSurvey, SurveyConfig, Terrain, TerrainConfig};
use gdp::fuzzy::ac::{derive_accuracies, AcOptions};
use gdp::fuzzy::{fuzzy_violations, threshold_model, unified_fuzzy, UnifyPolicy};
use gdp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let terrain = Terrain::generate(TerrainConfig {
        seed: 3,
        water_level: 0.55,
        ..TerrainConfig::default()
    });
    let survey = DepthSurvey::generate(&terrain, SurveyConfig::default());
    println!("survey: {} soundings", survey.samples.len());

    let mut spec = Specification::new();

    // ----- §VII.B: uncertainty from measurement ------------------------------
    // Each sounding is a fuzzy fact whose accuracy is the instrument
    // confidence — "the accuracy becomes a function of the predicate,
    // semantic domain values, and the objects involved".
    for (idx, s) in survey.samples.iter().enumerate() {
        let site = format!("sounding{idx}");
        spec.assert_fuzzy_fact(
            FactPat::new("depth")
                .arg(Pat::Float((s.depth * 10.0).round() / 10.0))
                .arg(site.as_str()),
            (s.confidence * 100.0).round() / 100.0,
        )?;
    }

    // ----- §VII.B: uncertainty from extrapolation ----------------------------
    // Interpolate the depth midway between the two nearest soundings of a
    // probe point; accuracy decays with the disagreement of the samples.
    let probe = survey.samples[0].cell;
    let probe = (probe.0 + 1, probe.1);
    if let Some((a, b)) = survey.nearest_two(probe) {
        let z = (a.depth + b.depth) / 2.0;
        let disagreement = (a.depth - b.depth).abs() / (a.depth + b.depth).max(1.0);
        let accuracy = (a.confidence.min(b.confidence) * (1.0 - disagreement)).clamp(0.0, 1.0);
        spec.assert_fuzzy_fact(
            FactPat::new("depth")
                .arg(Pat::Float((z * 10.0).round() / 10.0))
                .arg("probe_site"),
            (accuracy * 100.0).round() / 100.0,
        )?;
        println!(
            "interpolated depth at probe: {z:.1} m with accuracy {accuracy:.2} \
             (from soundings {:.1} m and {:.1} m)",
            a.depth, b.depth
        );
    }

    // ----- §VII.B: statistical accuracy via card ------------------------------
    // "Picture clarity may be expressed as one minus the percentage of
    // cloud cover."
    gdp::lang::load(
        &mut spec,
        r#"
        pixel(p1). pixel(p2). pixel(p3). pixel(p4). pixel(p5).
        cloudy(p2). cloudy(p5).
        %A clarity(image) :-
            card(cloudy(P), N),
            card(pixel(P2), N0),
            A is 1 - N / N0.
        "#,
    )?;
    let clarity = spec.satisfy(&Formula::fuzzy_fact(
        FactPat::new("clarity").arg("image"),
        Pat::var("A"),
    ))?;
    println!("picture clarity: {}", clarity[0].get("A").unwrap());

    // ----- §VII.C–D: thresholds and the unified operator ----------------------
    spec.declare_model("trusted");
    spec.register_meta_model(threshold_model("trust85", "trusted", 0.85));
    spec.register_meta_model(unified_fuzzy(UnifyPolicy::Max));
    spec.activate_meta_model("trust85")?;
    spec.activate_meta_model("unified_fuzzy_max")?;
    spec.set_world_view(&["omega", "trusted"])?;
    let trusted = spec.query(FactPat::new("depth").arg("Z").arg("S"))?;
    println!(
        "{} of {} depth facts exceed the 0.85 trust threshold and appear crisp \
         in the `trusted` model",
        trusted.len(),
        survey.samples.len() + 1
    );

    // ----- §VII.E: fuzzy constraints -----------------------------------------
    spec.constrain(
        Constraint::new("low_confidence_datum")
            .witness("S")
            .when(Formula::and(
                Formula::fuzzy_fact(FactPat::new("depth").arg("Z").arg("S"), Pat::var("A")),
                Formula::Cmp(CmpOp::Lt, Pat::var("A"), Pat::Float(0.8)),
            )),
    )?;
    let weak = spec.check_consistency()?;
    println!("{} soundings flagged below confidence 0.8", weak.len());

    // An accuracy-qualified error: 12% of channel markers seem absent.
    spec.assert_fuzzy_fact(
        FactPat::new("error").arg("missing_marker").arg("channel7"),
        0.12,
    )?;
    for (violation, acc) in fuzzy_violations(&spec)? {
        println!("fuzzy violation {violation} with accuracy {acc}");
    }

    // ----- §VII.F: AC propagation ---------------------------------------------
    // navigable(S) :- depth(Z)(S), Z > 15  — how trustworthy is the
    // conclusion? AC = the (unified) accuracy of the premise.
    let rule = Rule::new(
        FactPat::new("navigable").arg("S"),
        Formula::and(
            Formula::fact(FactPat::new("depth").arg("Z").arg("S")),
            Formula::Cmp(CmpOp::Gt, Pat::var("Z"), Pat::Float(15.0)),
        ),
    );
    let derived = derive_accuracies(&mut spec, &rule, &AcOptions::default())?;
    println!("derived {derived} accuracy-qualified navigability conclusions");
    let navigable = spec.satisfy(&Formula::fuzzy_fact(
        FactPat::new("navigable").arg("S"),
        Pat::var("A"),
    ))?;
    for answer in navigable.iter().take(5) {
        println!(
            "  %{} navigable({})",
            answer.get("A").unwrap(),
            answer.get("S").unwrap()
        );
    }

    Ok(())
}
