//! # gdp-fuzzy — accuracy qualification of facts (paper §VII)
//!
//! "Much of the information a GDP system provides to its users ought to be
//! qualified in a manner that indicates the extent to which the
//! information may be viewed as accurate. If this is not done, decisions
//! taken under the assumption that the information is absolutely true may
//! have disastrous consequences."
//!
//! This crate supplies:
//!
//! * [`Truth`]: fuzzy truth values under the min–max rule (§VII.A);
//! * the simple fuzzy operator `%a` — already present in the core as the
//!   separate `fh/6` relation ([`gdp_core::Specification::assert_fuzzy_fact`]),
//!   with the crucial property that `q(x)` is *not* provable from
//!   `%a q(x)` (§VII.C);
//! * threshold promotion and the unified fuzzy operator `%[A]` with
//!   max/min/avg conflict policies ([`ops`], §VII.C–D);
//! * fuzzy constraints (§VII.E) — via ordinary [`gdp_core::Constraint`]s
//!   over [`gdp_core::Formula::FuzzyFact`], plus [`fuzzy_violations`] for
//!   accuracy-qualified errors like `%[A] ERROR(missing_bridge)`;
//! * the `AC` accuracy-propagation evaluator and the mechanical
//!   generation of `F(Xi) ∧ A = AC(F(Xi)) ⇒ %A q(Xk)` ([`ac`], §VII.F).
//!
//! ## Example — deriving the accuracy of a hazard assessment
//!
//! ```
//! use gdp_core::{FactPat, Formula, Pat, Rule, Specification};
//! use gdp_fuzzy::ac::{derive_accuracies, AcOptions};
//!
//! let mut spec = Specification::new();
//! spec.assert_fuzzy_fact(FactPat::new("flooded").arg("plain"), 0.45).unwrap();
//! spec.assert_fuzzy_fact(FactPat::new("frozen").arg("plain"), 0.65).unwrap();
//!
//! let rule = Rule::new(
//!     FactPat::new("hazard").arg("X"),
//!     Formula::and(
//!         Formula::fact(FactPat::new("flooded").arg("X")),
//!         Formula::fact(FactPat::new("frozen").arg("X")),
//!     ),
//! );
//! derive_accuracies(&mut spec, &rule, &AcOptions::default()).unwrap();
//!
//! let a = spec.satisfy(&Formula::FuzzyFact(
//!     FactPat::new("hazard").arg("plain"), Pat::var("A"),
//! )).unwrap();
//! assert_eq!(a[0].get("A").unwrap().as_f64(), Some(0.45)); // min–max
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ac;
pub mod ops;
mod truth;

pub use ops::{define_fuzzy, threshold_model, unified_fuzzy, unified_threshold_model, UnifyPolicy};
pub use truth::Truth;

use gdp_core::{SpecResult, Specification, Violation};
use gdp_engine::Term;

/// Accuracy-qualified constraint violations (§VII.E second case): every
/// `%A ERROR(…)` fact visible in the active world view, with its accuracy.
///
/// "A high accuracy value associated with this error may indicate possible
/// problems with the data being processed."
pub fn fuzzy_violations(spec: &Specification) -> SpecResult<Vec<(Violation, f64)>> {
    let goal = Term::pred(
        "fvisible",
        vec![
            Term::var(0), // model
            Term::var(1), // space
            Term::var(2), // time
            Term::var(3), // accuracy
            Term::atom(gdp_core::ERROR_PRED),
            Term::var(4), // args
        ],
    );
    let sols = spec.solve_goal(goal)?;
    let mut out = Vec::new();
    for sol in sols {
        let get = |i: u32| sol.get(gdp_engine::Var(i)).cloned().unwrap_or(Term::var(i));
        let Some(acc) = get(3).as_f64() else {
            continue;
        };
        let v = Violation::decode(get(0), get(1), get(2), &get(4));
        if !out.iter().any(|(existing, a)| *existing == v && *a == acc) {
            out.push((v, acc));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::FactPat;

    #[test]
    fn fuzzy_errors_reported_with_accuracy() {
        let mut spec = Specification::new();
        // %0.15 ERROR(missing_bridge): 15% of river crossings appear to
        // lack a bridge (§VII.E).
        spec.assert_fuzzy_fact(
            FactPat::new(gdp_core::ERROR_PRED)
                .arg("missing_bridge")
                .arg("river7"),
            0.15,
        )
        .unwrap();
        let vs = fuzzy_violations(&spec).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].0.error_type, Term::atom("missing_bridge"));
        assert_eq!(vs[0].1, 0.15);
        // Crisp consistency checking does NOT see fuzzy errors.
        assert!(spec.check_consistency().unwrap().is_empty());
    }

    #[test]
    fn fuzzy_errors_respect_world_view() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(
            FactPat::new(gdp_core::ERROR_PRED)
                .arg("suspect_datum")
                .model("survey_1962"),
            0.4,
        )
        .unwrap();
        assert!(fuzzy_violations(&spec).unwrap().is_empty());
        spec.set_world_view(&["omega", "survey_1962"]).unwrap();
        assert_eq!(fuzzy_violations(&spec).unwrap().len(), 1);
    }
}
