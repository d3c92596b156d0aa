//! Uncertainty-level propagation via logical inference — the `AC` function
//! (§VII.F).
//!
//! "The question addressed in this section is how to assign automatically
//! an accuracy to facts derived from accuracy qualified facts." The paper
//! assumes rule definitions stay accuracy-free (so accuracy models remain
//! swappable) and gives a recursive definition of `AC` over the formula
//! language, plus the propagation schema
//!
//! ```text
//! (∀Xi): F(Xi) ∧ (A = AC(F(Xi))) ⇒ %A q(Xk)
//! ```
//!
//! noting "these types of formulas may be generated mechanically" —
//! [`derive_accuracies`] is that mechanical generation: it enumerates the
//! rule body's support instantiations (facts provable either crisply or
//! with any accuracy), computes `AC` for each, and asserts the
//! accuracy-qualified conclusions.
//!
//! The `AC` definition implemented (paper's table, §VII.F):
//!
//! * atomic `q1(xi)` — the unified (max) accuracy `%[a] q1(xi)`; *failure*
//!   if no accuracy qualification is provable (configurable: crisp facts
//!   may count as accuracy 1, which is what makes the computation
//!   "consistent with the two-valued logic" when only 0/1 occur);
//! * `F1 ∧ F2` — `min`;  `F1 ∨ F2` — `max`;
//! * `∀Xj: (F2 → F3)` — `min(AC(F1), inf_j max(1 − AC(F2), AC(F3)))`;
//! * `F1 ∧ not(F2)` — `min(AC(F1), 1)` if `F2` is not provable, failure
//!   otherwise.

use gdp_core::{FactPat, Formula, Pat, Rule, SpecResult, Specification, Target, VarTable};
use gdp_engine::{FxHashMap, Term};

/// Options controlling [`ac_of`] / [`derive_accuracies`].
#[derive(Clone, Copy, Debug)]
pub struct AcOptions {
    /// Accuracy attributed to facts that are provable *crisply* but carry
    /// no fuzzy qualification. `Some(1.0)` (the default) makes the
    /// computation degenerate to two-valued logic on crisp data, as §VII.F
    /// requires; `None` is the paper's strict reading, where an atom with
    /// no accuracy qualification simply fails.
    pub crisp_accuracy: Option<f64>,
}

impl Default for AcOptions {
    fn default() -> AcOptions {
        AcOptions {
            crisp_accuracy: Some(1.0),
        }
    }
}

type Bindings = FxHashMap<String, Term>;

fn subst_pat(p: &Pat, b: &Bindings) -> Pat {
    match p {
        Pat::Var(n) => match b.get(n) {
            Some(t) => Pat::Term(t.clone()),
            None => p.clone(),
        },
        Pat::Compound(f, args) => {
            Pat::Compound(f.clone(), args.iter().map(|a| subst_pat(a, b)).collect())
        }
        other => other.clone(),
    }
}

fn subst_fact(f: &FactPat, b: &Bindings) -> FactPat {
    use gdp_core::{ArgsPat, SpaceQual, TimeQual};
    let args = match &f.args {
        ArgsPat::Fixed(items) => ArgsPat::Fixed(items.iter().map(|p| subst_pat(p, b)).collect()),
        ArgsPat::HeadTail(items, tail) => ArgsPat::HeadTail(
            items.iter().map(|p| subst_pat(p, b)).collect(),
            subst_pat(tail, b),
        ),
        ArgsPat::Whole(p) => ArgsPat::Whole(subst_pat(p, b)),
    };
    let space = match &f.space {
        SpaceQual::Any => SpaceQual::Any,
        SpaceQual::At(p) => SpaceQual::At(subst_pat(p, b)),
        SpaceQual::AreaUniform { res, at } => SpaceQual::AreaUniform {
            res: subst_pat(res, b),
            at: subst_pat(at, b),
        },
        SpaceQual::AreaSampled { res, at } => SpaceQual::AreaSampled {
            res: subst_pat(res, b),
            at: subst_pat(at, b),
        },
        SpaceQual::AreaAveraged { res, at } => SpaceQual::AreaAveraged {
            res: subst_pat(res, b),
            at: subst_pat(at, b),
        },
    };
    let subst_iv = |iv: &gdp_core::IntervalPat| gdp_core::IntervalPat {
        lo: subst_pat(&iv.lo, b),
        hi: subst_pat(&iv.hi, b),
        lo_closed: iv.lo_closed,
        hi_closed: iv.hi_closed,
    };
    let time = match &f.time {
        TimeQual::Any => TimeQual::Any,
        TimeQual::Now => TimeQual::Now,
        TimeQual::At(p) => TimeQual::At(subst_pat(p, b)),
        TimeQual::IntervalUniform(iv) => TimeQual::IntervalUniform(subst_iv(iv)),
        TimeQual::IntervalSampled(iv) => TimeQual::IntervalSampled(subst_iv(iv)),
        TimeQual::IntervalAveraged(iv) => TimeQual::IntervalAveraged(subst_iv(iv)),
        TimeQual::Cyclic { period, interval } => TimeQual::Cyclic {
            period: subst_pat(period, b),
            interval: subst_iv(interval),
        },
    };
    FactPat {
        model: f.model.as_ref().map(|m| subst_pat(m, b)),
        space,
        time,
        pred: subst_pat(&f.pred, b),
        args,
    }
}

fn subst_formula(f: &Formula, b: &Bindings) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::Fact(fp) => Formula::fact(subst_fact(fp, b)),
        Formula::FuzzyFact(fp, acc) => Formula::fuzzy_fact(subst_fact(fp, b), subst_pat(acc, b)),
        Formula::And(x, y) => {
            Formula::And(Box::new(subst_formula(x, b)), Box::new(subst_formula(y, b)))
        }
        Formula::Or(x, y) => {
            Formula::Or(Box::new(subst_formula(x, b)), Box::new(subst_formula(y, b)))
        }
        Formula::Not(x) => Formula::Not(Box::new(subst_formula(x, b))),
        Formula::Forall(c, t) => {
            Formula::Forall(Box::new(subst_formula(c, b)), Box::new(subst_formula(t, b)))
        }
        Formula::Cmp(op, x, y) => Formula::Cmp(*op, subst_pat(x, b), subst_pat(y, b)),
        Formula::Unify(x, y) => Formula::Unify(subst_pat(x, b), subst_pat(y, b)),
        Formula::Is(x, y) => Formula::Is(subst_pat(x, b), subst_pat(y, b)),
        Formula::Domain(d, x) => Formula::Domain(d.clone(), subst_pat(x, b)),
        Formula::Card(inner, n) => {
            Formula::Card(Box::new(subst_formula(inner, b)), subst_pat(n, b))
        }
        Formula::Agg(op, t, inner, r) => Formula::Agg(
            *op,
            subst_pat(t, b),
            Box::new(subst_formula(inner, b)),
            subst_pat(r, b),
        ),
        Formula::Raw(p) => Formula::Raw(subst_pat(p, b)),
    }
}

/// Rewrite a formula so that fact atoms are provable through *either* the
/// fuzzy or the crisp relation — the support query used to enumerate
/// instantiations.
fn support(f: &Formula) -> Formula {
    match f {
        Formula::Fact(fp) => Formula::or(
            Formula::Fact(fp.clone()),
            Formula::FuzzyFact(fp.clone(), Pat::Wild),
        ),
        Formula::And(a, b) => Formula::and(support(a), support(b)),
        Formula::Or(a, b) => Formula::or(support(a), support(b)),
        Formula::Not(a) => Formula::not(support(a)),
        Formula::Forall(c, t) => Formula::forall(support(c), support(t)),
        Formula::Card(inner, n) => Formula::Card(Box::new(support(inner)), n.clone()),
        Formula::Agg(op, t, inner, r) => {
            Formula::Agg(*op, t.clone(), Box::new(support(inner)), r.clone())
        }
        other => other.clone(),
    }
}

/// The unified (max) accuracy of one ground fact atom, or the crisp
/// fallback from `opts`. `None` = the paper's "failure".
fn atom_accuracy(
    spec: &Specification,
    fact: &FactPat,
    opts: &AcOptions,
) -> SpecResult<Option<f64>> {
    // max over fvisible accuracies for this fact shape.
    let mut vt = VarTable::new();
    let acc_var = vt.fresh();
    let lookup = fact.compile_fuzzy(&mut vt, &Pat::Term(Term::var(acc_var)), Target::Visible);
    let result_var = vt.fresh();
    let goal = Term::pred(
        "aggregate",
        vec![
            Term::atom("max"),
            Term::var(acc_var),
            lookup,
            Term::var(result_var),
        ],
    );
    let sols = spec.solve_goal(goal)?;
    if let Some(sol) = sols.first() {
        if let Some(a) = sol.get(gdp_engine::Var(result_var)).and_then(Term::as_f64) {
            return Ok(Some(a));
        }
    }
    match opts.crisp_accuracy {
        Some(ca) if spec.provable(fact.clone())? => Ok(Some(ca)),
        _ => Ok(None),
    }
}

/// Compute `AC` for a (substituted) formula instance. `None` is the
/// paper's "failure" outcome.
pub fn ac_of(spec: &Specification, f: &Formula, opts: &AcOptions) -> SpecResult<Option<f64>> {
    match f {
        Formula::True => Ok(Some(1.0)),
        Formula::Fact(fp) => atom_accuracy(spec, fp, opts),
        Formula::FuzzyFact(fp, acc) => {
            // An explicit accuracy reference: if the pattern is a known
            // constant, that is the accuracy; otherwise fall back to the
            // unified lookup.
            let mut vt = VarTable::new();
            if let Term::Float(v) = vt.compile(acc) {
                if spec.satisfiable(&Formula::FuzzyFact(fp.clone(), acc.clone()))? {
                    return Ok(Some(v.get()));
                }
                return Ok(None);
            }
            atom_accuracy(spec, fp, opts)
        }
        Formula::And(a, b) => {
            let (x, y) = (ac_of(spec, a, opts)?, ac_of(spec, b, opts)?);
            Ok(match (x, y) {
                (Some(x), Some(y)) => Some(x.min(y)),
                _ => None,
            })
        }
        Formula::Or(a, b) => {
            let (x, y) = (ac_of(spec, a, opts)?, ac_of(spec, b, opts)?);
            Ok(match (x, y) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            })
        }
        Formula::Not(inner) => {
            // F1 ∧ not(F2): min(AC(F1), 1) if F2 not provable, failure if
            // provable. Provability here means support-provability.
            if spec.satisfiable(&support(inner))? {
                Ok(None)
            } else {
                Ok(Some(1.0))
            }
        }
        Formula::Forall(cond, then) => {
            // inf over the condition's support instances of
            // max(1 − AC(F2), AC(F3)); vacuously 1.
            let answers = spec.satisfy(&support(cond))?;
            let mut inf: f64 = 1.0;
            for ans in answers {
                let b: Bindings = ans
                    .bindings()
                    .iter()
                    .map(|(n, t)| (n.clone(), t.clone()))
                    .collect();
                let ac_cond = ac_of(spec, &subst_formula(cond, &b), opts)?.unwrap_or(1.0);
                let ac_then = ac_of(spec, &subst_formula(then, &b), opts)?.unwrap_or(0.0);
                inf = inf.min((1.0 - ac_cond).max(ac_then));
            }
            Ok(Some(inf))
        }
        // Crisp tests and computations contribute 1 when they hold,
        // failure when they do not.
        other => {
            if spec.satisfiable(other)? {
                Ok(Some(1.0))
            } else {
                Ok(None)
            }
        }
    }
}

/// Mechanically generate the accuracy-qualified conclusions of `rule`:
/// for every support instantiation of the body, compute `AC` and assert
/// `%A head` into the fuzzy relation. Returns the number of fuzzy facts
/// asserted (after deduplication).
pub fn derive_accuracies(
    spec: &mut Specification,
    rule: &Rule,
    opts: &AcOptions,
) -> SpecResult<usize> {
    let answers = spec.satisfy(&support(&rule.body))?;
    let mut seen: Vec<(FactPat, f64)> = Vec::new();
    for ans in answers {
        let b: Bindings = ans
            .bindings()
            .iter()
            .map(|(n, t)| (n.clone(), t.clone()))
            .collect();
        let body = subst_formula(&rule.body, &b);
        let Some(a) = ac_of(spec, &body, opts)? else {
            continue;
        };
        let head = subst_fact(&rule.head, &b);
        let entry = (head, a);
        if seen
            .iter()
            .any(|(h, acc)| *h == entry.0 && (acc - a).abs() < 1e-12)
        {
            continue;
        }
        seen.push(entry);
    }
    let n = seen.len();
    for (head, a) in seen {
        spec.assert_fuzzy_fact(head, a.clamp(0.0, 1.0))?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::Rule;

    fn fact(pred: &str, args: &[&str]) -> FactPat {
        let mut f = FactPat::new(pred);
        for a in args {
            f = f.arg(*a);
        }
        f
    }

    #[test]
    fn conjunction_takes_min() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("flooded", &["plain"]), 0.45)
            .unwrap();
        spec.assert_fuzzy_fact(fact("frozen", &["plain"]), 0.65)
            .unwrap();
        let f = Formula::and(
            Formula::fact(fact("flooded", &["plain"])),
            Formula::fact(fact("frozen", &["plain"])),
        );
        let a = ac_of(&spec, &f, &AcOptions::default()).unwrap();
        assert_eq!(a, Some(0.45));
    }

    #[test]
    fn disjunction_takes_max_and_failure_propagates() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("p", &["x"]), 0.3).unwrap();
        let opts = AcOptions {
            crisp_accuracy: None,
        };
        let f = Formula::or(
            Formula::fact(fact("p", &["x"])),
            Formula::fact(fact("q", &["x"])),
        );
        assert_eq!(ac_of(&spec, &f, &opts).unwrap(), Some(0.3));
        let g = Formula::and(
            Formula::fact(fact("p", &["x"])),
            Formula::fact(fact("q", &["x"])),
        );
        assert_eq!(ac_of(&spec, &g, &opts).unwrap(), None);
    }

    #[test]
    fn crisp_facts_count_as_one_by_default() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        spec.assert_fuzzy_fact(fact("passable", &["s1"]), 0.7)
            .unwrap();
        let f = Formula::and(
            Formula::fact(fact("road", &["s1"])),
            Formula::fact(fact("passable", &["s1"])),
        );
        assert_eq!(ac_of(&spec, &f, &AcOptions::default()).unwrap(), Some(0.7));
        // Strict paper reading: the crisp atom has no accuracy → failure.
        let strict = AcOptions {
            crisp_accuracy: None,
        };
        assert_eq!(ac_of(&spec, &f, &strict).unwrap(), None);
    }

    #[test]
    fn negation_as_failure_semantics() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("wet", &["field"]), 0.8)
            .unwrap();
        let ok = Formula::and(
            Formula::fact(fact("wet", &["field"])),
            Formula::not(Formula::fact(fact("frozen", &["field"]))),
        );
        assert_eq!(ac_of(&spec, &ok, &AcOptions::default()).unwrap(), Some(0.8));
        spec.assert_fuzzy_fact(fact("frozen", &["field"]), 0.2)
            .unwrap();
        // frozen now (fuzzily) provable → the negation fails the formula.
        assert_eq!(ac_of(&spec, &ok, &AcOptions::default()).unwrap(), None);
    }

    #[test]
    fn forall_uses_inf_of_implication() {
        let mut spec = Specification::new();
        for (b, acc) in [("b1", 0.9), ("b2", 0.6)] {
            spec.assert_fact(fact("bridge", &[b])).unwrap();
            spec.assert_fuzzy_fact(fact("open", &[b]), acc).unwrap();
        }
        // forall(bridge(Y), open(Y)): inf over bridges of
        // max(1 − AC(bridge), AC(open)) = max(0, acc) → min(0.9, 0.6).
        let f = Formula::forall(
            Formula::fact(fact("bridge", &["Y"])),
            Formula::fact(fact("open", &["Y"])),
        );
        assert_eq!(ac_of(&spec, &f, &AcOptions::default()).unwrap(), Some(0.6));
    }

    #[test]
    fn derive_accuracies_generates_fuzzy_conclusions() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("flooded", &["plain"]), 0.45)
            .unwrap();
        spec.assert_fuzzy_fact(fact("frozen", &["plain"]), 0.65)
            .unwrap();
        let rule = Rule::new(
            fact("hazard", &["X"]),
            Formula::and(
                Formula::fact(fact("flooded", &["X"])),
                Formula::fact(fact("frozen", &["X"])),
            ),
        );
        let n = derive_accuracies(&mut spec, &rule, &AcOptions::default()).unwrap();
        assert_eq!(n, 1);
        let answers = spec
            .satisfy(&Formula::fuzzy_fact(
                fact("hazard", &["plain"]),
                Pat::var("A"),
            ))
            .unwrap();
        assert_eq!(answers[0].get("A").unwrap().as_f64(), Some(0.45));
        // The crisp conclusion is still not provable (§VII separation).
        assert!(!spec.provable(fact("hazard", &["plain"])).unwrap());
    }

    #[test]
    fn two_valued_degeneracy() {
        // §VII.F: "if the only two accuracies used are 0 (false) and 1
        // (true) the results are consistent with the two-valued logic."
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("a", &["x"]), 1.0).unwrap();
        spec.assert_fuzzy_fact(fact("b", &["x"]), 0.0).unwrap();
        let opts = AcOptions::default();
        let and = Formula::and(
            Formula::fact(fact("a", &["x"])),
            Formula::fact(fact("b", &["x"])),
        );
        assert_eq!(ac_of(&spec, &and, &opts).unwrap(), Some(0.0));
        let or = Formula::or(
            Formula::fact(fact("a", &["x"])),
            Formula::fact(fact("b", &["x"])),
        );
        assert_eq!(ac_of(&spec, &or, &opts).unwrap(), Some(1.0));
    }
}
