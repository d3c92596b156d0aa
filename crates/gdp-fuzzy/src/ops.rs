//! Fuzzy-operator meta-models (§VII.B–E).
//!
//! * [`threshold_model`] — "the user chooses to view as true any facts
//!   whose accuracy exceeds a certain threshold" (§VII.C): promotes fuzzy
//!   facts above a cutoff into crisp facts of a designated model, so the
//!   promotion is visible only in world views that include that model.
//! * [`unified_fuzzy`] — the unified fuzzy operator `%[A]` (§VII.D),
//!   resolving conflicting accuracies for the same fact. The default
//!   policy is the paper's ("the highest accuracy assigned to some
//!   fact"); `min` and `avg` cover the paper's "other definitions … may
//!   be needed for specific types of facts".
//! * [`unified_threshold_model`] — the §VII.D example
//!   `%[A]Q(X) ∧ (A > 0.75) ⇒ m'Q(X)`, thresholding over the *unified*
//!   accuracy rather than any single qualification.
//! * [`define_fuzzy`] — install a rule whose conclusion is itself
//!   accuracy-qualified (`… ⇒ %A q(Xk)`), the shape the paper's
//!   interpolation and picture-clarity definitions take (§VII.B).

use gdp_core::{
    FactPat, Formula, MetaModel, Pat, RawClause, SpecError, SpecResult, Specification, Target,
    VarTable,
};
use gdp_engine::GroupId;

fn v(name: &str) -> Pat {
    Pat::var(name)
}

fn goal(name: &str, args: Vec<Pat>) -> Pat {
    Pat::app(name, args)
}

fn h(m: Pat, s: Pat, t: Pat, q: Pat, a: Pat) -> Pat {
    Pat::app("h", vec![m, s, t, q, a])
}

fn fvisible(m: Pat, s: Pat, t: Pat, acc: Pat, q: Pat, a: Pat) -> Pat {
    Pat::app("fvisible", vec![m, s, t, acc, q, a])
}

/// Accuracy-unification policy for the `%[A]` operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnifyPolicy {
    /// The paper's default: the highest accuracy assigned to the fact.
    Max,
    /// The most conservative reading.
    Min,
    /// The consensus reading.
    Avg,
}

impl UnifyPolicy {
    fn atom(self) -> &'static str {
        match self {
            UnifyPolicy::Max => "max",
            UnifyPolicy::Min => "min",
            UnifyPolicy::Avg => "avg",
        }
    }
}

/// Threshold promotion (§VII.C): `%A Q(X) ∧ (A > τ) ⇒ m'Q(X)`.
///
/// "A model must be specified in order to separate the facts of interest
/// from all the other facts" — the promoted facts land in `target_model`,
/// which stays invisible until a world view includes it.
pub fn threshold_model(name: &str, target_model: &str, tau: f64) -> MetaModel {
    MetaModel::new(name)
        .doc("promote fuzzy facts above an accuracy threshold into a designated model")
        .clause(RawClause::build(
            &h(Pat::atom(target_model), v("S"), v("T"), v("Q"), v("A")),
            &[
                fvisible(v("M"), v("S"), v("T"), v("Acc"), v("Q"), v("A")),
                goal(">", vec![v("Acc"), Pat::Float(tau)]),
            ],
        ))
        .build()
}

/// The unified fuzzy operator `%[A]` (§VII.D) under the given policy,
/// exposed as the predicate `unified_acc(S, T, Q, Args, A)`.
pub fn unified_fuzzy(policy: UnifyPolicy) -> MetaModel {
    MetaModel::new(&format!("unified_fuzzy_{}", policy.atom()))
        .doc("the unified fuzzy operator: one accuracy per fact, resolving conflicts")
        .clause(RawClause::build(
            &goal(
                "unified_acc",
                vec![v("S"), v("T"), v("Q"), v("Args"), v("A")],
            ),
            &[goal(
                "aggregate",
                vec![
                    Pat::atom(policy.atom()),
                    v("Acc"),
                    fvisible(v("M"), v("S"), v("T"), v("Acc"), v("Q"), v("Args")),
                    v("A"),
                ],
            )],
        ))
        .build()
}

/// The §VII.D example: `%[A]Q(X) ∧ (A > τ) ⇒ m'Q(X)` — promotion gated on
/// the *unified* accuracy. Requires a `unified_fuzzy_*` meta-model to be
/// active for `unified_acc/5` to resolve.
pub fn unified_threshold_model(name: &str, target_model: &str, tau: f64) -> MetaModel {
    MetaModel::new(name)
        .doc("promote facts whose unified accuracy exceeds a threshold into a model")
        .clause(RawClause::build(
            &h(Pat::atom(target_model), v("S"), v("T"), v("Q"), v("A")),
            &[
                // Ground the fact shape first: unified_acc aggregates over
                // *all* matching fuzzy facts, so the fact must be fixed.
                fvisible(v("M"), v("S"), v("T"), v("AnyAcc"), v("Q"), v("A")),
                goal("unified_acc", vec![v("S"), v("T"), v("Q"), v("A"), v("U")]),
                goal(">", vec![v("U"), Pat::Float(tau)]),
            ],
        ))
        .build()
}

/// Install a rule with an accuracy-qualified conclusion:
/// `(∀Xi): F(Xi) ⇒ %Acc q(Xk)` (§VII.B). The accuracy pattern must be
/// bound by the body (typically through `Formula::Is` computing it, or a
/// `Formula::FuzzyFact` binding it).
pub fn define_fuzzy(
    spec: &mut Specification,
    head: FactPat,
    accuracy: Pat,
    body: Formula,
) -> SpecResult<()> {
    let mut head_vars = Vec::new();
    head.collect_vars(&mut head_vars);
    accuracy.collect_vars(&mut head_vars);
    if let Err(reason) = body.check_safety(&head_vars) {
        return Err(SpecError::UnsafeRule {
            rule: head.pred_name().unwrap_or_else(|| head.pred.to_string()),
            reason,
        });
    }
    let mut vt = VarTable::new();
    let head_term = head.compile_fuzzy(&mut vt, &accuracy, Target::Holds);
    let body_term = body.compile(&mut vt);
    spec.kb_mut()
        .assert_clause_in(GroupId::named("rules"), head_term, body_term);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::CmpOp;

    fn fact(pred: &str, args: &[&str]) -> FactPat {
        let mut f = FactPat::new(pred);
        for a in args {
            f = f.arg(*a);
        }
        f
    }

    #[test]
    fn threshold_promotes_into_model_only() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("passable", &["ford1"]), 0.9)
            .unwrap();
        spec.assert_fuzzy_fact(fact("passable", &["ford2"]), 0.5)
            .unwrap();
        spec.declare_model("trusted");
        spec.register_meta_model(threshold_model("trust80", "trusted", 0.8));
        spec.activate_meta_model("trust80").unwrap();
        // Not visible in the default world view.
        assert!(!spec.provable(fact("passable", &["ford1"])).unwrap());
        spec.set_world_view(&["omega", "trusted"]).unwrap();
        assert!(spec.provable(fact("passable", &["ford1"])).unwrap());
        assert!(!spec.provable(fact("passable", &["ford2"])).unwrap());
    }

    #[test]
    fn ignoring_accuracy_entirely() {
        // §VII.C case 1: definitions that ignore the fuzzy operator never
        // see fuzzy facts at all.
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("clarity", &["image"]), 0.99)
            .unwrap();
        assert!(!spec.provable(fact("clarity", &["image"])).unwrap());
    }

    #[test]
    fn unified_policies_resolve_conflicts() {
        for (policy, expected) in [
            (UnifyPolicy::Max, 0.9),
            (UnifyPolicy::Min, 0.3),
            (UnifyPolicy::Avg, 0.6),
        ] {
            let mut spec = Specification::new();
            spec.assert_fuzzy_fact(fact("depth_ok", &["site"]), 0.3)
                .unwrap();
            spec.assert_fuzzy_fact(fact("depth_ok", &["site"]), 0.9)
                .unwrap();
            let name = format!("unified_fuzzy_{}", policy.atom());
            spec.register_meta_model(unified_fuzzy(policy));
            spec.activate_meta_model(&name).unwrap();
            let answers = spec
                .satisfy(&Formula::Raw(goal(
                    "unified_acc",
                    vec![
                        Pat::atom("any"),
                        Pat::atom("any"),
                        Pat::atom("depth_ok"),
                        Pat::app(
                            ".",
                            vec![Pat::atom("site"), Pat::Term(gdp_engine::Term::nil())],
                        ),
                        v("A"),
                    ],
                )))
                .unwrap();
            assert_eq!(answers.len(), 1, "policy {policy:?}");
            let got = answers[0].get("A").unwrap().as_f64().unwrap();
            assert!((got - expected).abs() < 1e-12, "policy {policy:?}: {got}");
        }
    }

    #[test]
    fn unified_threshold_uses_best_accuracy() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("route_clear", &["r1"]), 0.5)
            .unwrap();
        spec.assert_fuzzy_fact(fact("route_clear", &["r1"]), 0.8)
            .unwrap();
        spec.declare_model("mission");
        spec.register_meta_model(unified_fuzzy(UnifyPolicy::Max));
        spec.register_meta_model(unified_threshold_model("mt75", "mission", 0.75));
        spec.activate_meta_model("unified_fuzzy_max").unwrap();
        spec.activate_meta_model("mt75").unwrap();
        spec.set_world_view(&["omega", "mission"]).unwrap();
        // max(0.5, 0.8) = 0.8 > 0.75 → promoted, even though one
        // qualification alone (0.5) would not pass.
        assert!(spec.provable(fact("route_clear", &["r1"])).unwrap());
    }

    #[test]
    fn define_fuzzy_computes_conclusion_accuracy() {
        // A toy statistical accuracy: %A coverage(region) with
        // A = N/10 where N = card(surveyed cells).
        let mut spec = Specification::new();
        for c in ["c1", "c2", "c3"] {
            spec.assert_fact(fact("surveyed", &[c])).unwrap();
        }
        define_fuzzy(
            &mut spec,
            fact("coverage", &["region"]),
            v("A"),
            Formula::and(
                Formula::Card(Box::new(Formula::fact(fact("surveyed", &["C"]))), v("N")),
                Formula::Is(v("A"), Pat::app("/", vec![v("N"), Pat::Int(10)])),
            ),
        )
        .unwrap();
        let answers = spec
            .satisfy(&Formula::fuzzy_fact(fact("coverage", &["region"]), v("A")))
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("A").unwrap().as_f64(), Some(0.3));
    }

    #[test]
    fn define_fuzzy_rejects_unbound_accuracy() {
        let mut spec = Specification::new();
        let err = define_fuzzy(
            &mut spec,
            fact("coverage", &["region"]),
            v("A"),
            Formula::True,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::UnsafeRule { .. }));
    }

    #[test]
    fn fuzzy_constraint_on_low_accuracy() {
        // §VII.E first case: error triggered by the accuracy of a fact.
        use gdp_core::Constraint;
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("clarity", &["img7"]), 0.6)
            .unwrap();
        spec.constrain(Constraint::new("bad_image").witness("X").when(Formula::and(
            Formula::fuzzy_fact(fact("clarity", &["X"]), v("A")),
            Formula::Cmp(CmpOp::Lt, v("A"), Pat::Float(0.8)),
        )))
        .unwrap();
        let violations = spec.check_consistency().unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].error_type,
            gdp_engine::Term::atom("bad_image")
        );
    }
}
