//! Proof explanation.
//!
//! The whole point of an *executable* requirements formalism is validation:
//! when a fact is derivable, the requirements engineer needs to see *which
//! rules and raw data* make it so (and when it is not, which branch
//! failed). [`explain`] re-derives a provable goal top-down and returns the
//! proof tree; [`Proof::render`] prints it with reified facts decoded back
//! into the paper's notation (`model'@p q(args)`).

use std::time::Instant;

use gdp_engine::{resolve_deep, symbols, EngineError, GroupId, PredKey, Term};

use crate::error::{SpecError, SpecResult};
use crate::reify::functors;
use crate::spec::Specification;

/// One node of a proof tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Proof {
    /// A stored fact (clause with body `true`).
    Fact {
        /// The proved (ground) goal.
        goal: Term,
        /// The clause group it came from (model, meta-model, kernel, …).
        group: GroupId,
    },
    /// A rule application.
    Rule {
        /// The proved (ground) goal.
        goal: Term,
        /// The group of the applied clause.
        group: GroupId,
        /// Proofs of the (instantiated) body goals.
        children: Vec<Proof>,
    },
    /// A builtin or native predicate that held.
    Builtin {
        /// The goal.
        goal: Term,
    },
    /// Negation as failure: the inner goal was not provable.
    Naf {
        /// The unprovable inner goal.
        goal: Term,
    },
    /// Bounded universal quantification that held; children are proofs of
    /// the conclusion for each condition instance.
    Forall {
        /// The forall goal.
        goal: Term,
        /// One conclusion proof per condition solution.
        children: Vec<Proof>,
    },
}

impl Proof {
    /// The goal this node proves.
    pub fn goal(&self) -> &Term {
        match self {
            Proof::Fact { goal, .. }
            | Proof::Rule { goal, .. }
            | Proof::Builtin { goal }
            | Proof::Naf { goal }
            | Proof::Forall { goal, .. } => goal,
        }
    }

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + match self {
            Proof::Rule { children, .. } | Proof::Forall { children, .. } => {
                children.iter().map(Proof::size).sum()
            }
            _ => 0,
        }
    }

    /// Render as an indented tree, decoding reified facts into the paper's
    /// notation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        match self {
            Proof::Fact { goal, group } => {
                out.push_str(&format!(
                    "{indent}{}   [fact in {}]\n",
                    decode(goal),
                    group.name()
                ));
            }
            Proof::Rule {
                goal,
                group,
                children,
            } => {
                out.push_str(&format!(
                    "{indent}{}   [rule in {}]\n",
                    decode(goal),
                    group.name()
                ));
                for child in children {
                    child.render_into(out, depth + 1);
                }
            }
            Proof::Builtin { goal } => {
                out.push_str(&format!("{indent}{}   [builtin]\n", decode(goal)));
            }
            Proof::Naf { goal } => {
                out.push_str(&format!("{indent}not {}   [unprovable]\n", decode(goal)));
            }
            Proof::Forall { goal, children } => {
                out.push_str(&format!(
                    "{indent}{}   [forall, {} instances]\n",
                    decode(goal),
                    children.len()
                ));
                for child in children {
                    child.render_into(out, depth + 1);
                }
            }
        }
    }
}

/// Decode a reified `h/5`, `fh/6`, `visible/5`, or `fvisible/6` term back
/// into the paper's surface notation; other terms render as-is.
pub fn decode(t: &Term) -> String {
    let Some(functor) = t.functor() else {
        return t.to_string();
    };
    let args = t.args();
    let (model, space, time, acc, pred, fact_args) =
        if (functor == functors::holds() || functor == functors::visible()) && args.len() == 5 {
            (&args[0], &args[1], &args[2], None, &args[3], &args[4])
        } else if (functor == functors::fuzzy_holds() || functor == functors::fuzzy_visible())
            && args.len() == 6
        {
            (
                &args[0],
                &args[1],
                &args[2],
                Some(&args[3]),
                &args[4],
                &args[5],
            )
        } else {
            return t.to_string();
        };
    let mut out = String::new();
    if let Some(a) = acc {
        out.push_str(&format!("%{a} "));
    }
    let any = Term::Atom(functors::any());
    if *space != any {
        out.push_str(&format!("{} ", decode_qual(space, "@")));
    }
    if *time != any {
        out.push_str(&format!("{} ", decode_qual(time, "&")));
    }
    // An unbound model variable means "any active model"; the default
    // model ω is implicit. Everything else is shown as a qualifier.
    if !matches!(model, Term::Var(_))
        && model.as_atom() != Some(gdp_engine::Sym::new(crate::DEFAULT_MODEL))
    {
        out.push_str(&format!("{model}'"));
    }
    out.push_str(&pred.to_string());
    match gdp_engine::list_to_vec(fact_args) {
        Some(items) if !items.is_empty() => {
            let rendered: Vec<String> = items.iter().map(Term::to_string).collect();
            out.push_str(&format!("({})", rendered.join(", ")));
        }
        Some(_) => {}
        None => out.push_str(&format!("({fact_args})")),
    }
    out
}

fn decode_qual(q: &Term, sigil: &str) -> String {
    let Some(f) = q.functor() else {
        return q.to_string();
    };
    let name = f.as_str();
    let args = q.args();
    match (name.as_str(), args.len()) {
        ("sat", 1) => format!("{sigil} {}", args[0]),
        ("tat", 1) => format!("{sigil} {}", args[0]),
        ("su", 2) => format!("{sigil}u[{}] {}", args[0], args[1]),
        ("ss", 2) => format!("{sigil}s[{}] {}", args[0], args[1]),
        ("sa", 2) => format!("{sigil}a[{}] {}", args[0], args[1]),
        ("tu", 1) => format!("{sigil}u{}", args[0]),
        ("ts", 1) => format!("{sigil}s{}", args[0]),
        ("ta", 1) => format!("{sigil}a{}", args[0]),
        _ => q.to_string(),
    }
}

/// Maximum explanation recursion depth (proof trees deeper than this are
/// truncated into a `Builtin`-style leaf).
const MAX_DEPTH: usize = 64;

/// Explain why `goal` (an engine-level term, e.g. a compiled fact pattern)
/// is provable. Returns `None` when it is not provable at all.
///
/// If the goal has variables, the explanation covers its *first* solution.
/// Every sub-solve runs through the specification's session: under its
/// step and depth limits and cancel token, counted in its stats, and with
/// one deadline instant for the whole explanation.
pub fn explain(spec: &Specification, goal: Term) -> SpecResult<Option<Proof>> {
    let started = Instant::now();
    let solutions = spec.solve_since(goal.clone(), 1, started)?;
    if solutions.is_empty() {
        return Ok(None);
    }
    // Ground the goal with its first solution.
    let mut grounded = goal.clone();
    for (var, value) in solutions[0].bindings() {
        grounded = substitute(&grounded, *var, value);
    }
    Ok(Some(explain_ground(spec, &grounded, 0, started)?))
}

fn substitute(t: &Term, var: gdp_engine::Var, value: &Term) -> Term {
    match t {
        Term::Var(v) if *v == var => value.clone(),
        Term::Compound(f, args) => {
            let new_args: Vec<Term> = args.iter().map(|a| substitute(a, var, value)).collect();
            Term::Compound(*f, new_args.into())
        }
        other => other.clone(),
    }
}

fn explain_ground(
    spec: &Specification,
    goal: &Term,
    depth: usize,
    started: Instant,
) -> SpecResult<Proof> {
    if depth > MAX_DEPTH {
        return Ok(Proof::Builtin { goal: goal.clone() });
    }
    let functor = goal.functor();
    let args = goal.args();

    // Control constructs.
    if let Some(f) = functor {
        if f == symbols::and() && args.len() == 2 {
            // Flatten conjunctions into one Rule-less list by explaining
            // both sides and merging (callers wrap them).
            let left = explain_ground(spec, &args[0], depth + 1, started)?;
            let right = explain_ground(spec, &args[1], depth + 1, started)?;
            return Ok(Proof::Rule {
                goal: goal.clone(),
                group: GroupId::named("conjunction"),
                children: vec![left, right],
            });
        }
        if f == symbols::or() && args.len() == 2 {
            // Explain whichever branch holds (prefer the left).
            let held = !spec.solve_since(args[0].clone(), 1, started)?.is_empty();
            let branch = if held { &args[0] } else { &args[1] };
            return explain_ground(spec, branch, depth + 1, started);
        }
        if (f == symbols::not() || f == symbols::absent()) && args.len() == 1 {
            // `absent((C, absent(T)))` is the compiled form of
            // `forall(C, T)`; decode it back into the quantifier so the
            // proof tree shows one conclusion proof per condition instance.
            if f == symbols::absent() {
                if let Term::Compound(c, conj) = &args[0] {
                    if *c == symbols::and() && conj.len() == 2 {
                        if let Term::Compound(inner, t) = &conj[1] {
                            if *inner == symbols::absent() && t.len() == 1 {
                                return explain_forall(spec, goal, &conj[0], &t[0], depth, started);
                            }
                        }
                    }
                }
            }
            return Ok(Proof::Naf {
                goal: args[0].clone(),
            });
        }
        if f == symbols::forall() && args.len() == 2 {
            return explain_forall(spec, goal, &args[0], &args[1], depth, started);
        }
    }

    // User predicates: find the first applicable clause and recurse.
    if let Some(key) = PredKey::of_term(goal) {
        if spec.kb().native(key).is_none() {
            let store = gdp_engine::BindStore::new();
            let candidates =
                spec.kb()
                    .candidates(key, &store, args, &gdp_engine::BoundSet::default());
            for clause in candidates.iter() {
                let mut store = gdp_engine::BindStore::new();
                if let Some(max) = goal.max_var() {
                    store.ensure(max);
                }
                let base = store.alloc_block(clause.n_vars);
                let head = clause.head.offset_vars(base);
                if !store.unify(goal, &head) {
                    continue;
                }
                let body = resolve_deep(&store, &clause.body.offset_vars(base));
                if body == Term::atom("true") {
                    return Ok(Proof::Fact {
                        goal: goal.clone(),
                        group: clause.group,
                    });
                }
                // The body may still have free variables; take its first
                // solution and ground it before recursing.
                let solutions = match spec.solve_since(body.clone(), 1, started) {
                    Ok(s) => s,
                    Err(SpecError::Engine(
                        EngineError::StepLimit { .. } | EngineError::DepthLimit { .. },
                    )) => continue,
                    Err(e) => return Err(e),
                };
                let Some(solution) = solutions.first() else {
                    continue;
                };
                let mut grounded = body.clone();
                for (var, value) in solution.bindings() {
                    grounded = substitute(&grounded, *var, value);
                }
                let children = explain_conjuncts(spec, &grounded, depth + 1, started)?;
                return Ok(Proof::Rule {
                    goal: goal.clone(),
                    group: clause.group,
                    children,
                });
            }
        }
    }

    // Builtins, natives, or anything we could not decompose.
    Ok(Proof::Builtin { goal: goal.clone() })
}

/// Explain a held universal quantifier (`forall(C, T)` or its compiled
/// `absent((C, absent(T)))` form): one child proof of the conclusion per
/// condition instance.
fn explain_forall(
    spec: &Specification,
    goal: &Term,
    cond: &Term,
    then_tpl: &Term,
    depth: usize,
    started: Instant,
) -> SpecResult<Proof> {
    let cond_solutions = spec.solve_since(cond.clone(), usize::MAX, started)?;
    let mut children = Vec::new();
    for sol in cond_solutions {
        let mut then = then_tpl.clone();
        for (var, value) in sol.bindings() {
            then = substitute(&then, *var, value);
        }
        // Residual variables in the conclusion (e.g. the fresh model
        // variable of a `visible` lookup) are grounded by its own first
        // solution before recursing.
        if !then.is_ground() {
            let sols = spec.solve_since(then.clone(), 1, started)?;
            if let Some(sol) = sols.first() {
                for (var, value) in sol.bindings() {
                    then = substitute(&then, *var, value);
                }
            }
        }
        if then.is_ground() {
            children.push(explain_ground(spec, &then, depth + 1, started)?);
        }
    }
    Ok(Proof::Forall {
        goal: goal.clone(),
        children,
    })
}

/// Explain a (ground) conjunction as a flat list of child proofs.
fn explain_conjuncts(
    spec: &Specification,
    body: &Term,
    depth: usize,
    started: Instant,
) -> SpecResult<Vec<Proof>> {
    if let Some(f) = body.functor() {
        if f == symbols::and() && body.args().len() == 2 {
            let mut left = explain_conjuncts(spec, &body.args()[0], depth, started)?;
            let right = explain_conjuncts(spec, &body.args()[1], depth, started)?;
            left.extend(right);
            return Ok(left);
        }
    }
    Ok(vec![explain_ground(spec, body, depth, started)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{FactPat, Target};
    use crate::formula::Formula;
    use crate::pattern::VarTable;
    use crate::rule::Rule;

    fn fact(pred: &str, args: &[&str]) -> FactPat {
        let mut f = FactPat::new(pred);
        for a in args {
            f = f.arg(*a);
        }
        f
    }

    fn compile_goal(pat: FactPat) -> Term {
        let mut vt = VarTable::new();
        pat.compile(&mut vt, Target::Visible)
    }

    fn bridge_spec() -> Specification {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        spec.assert_fact(fact("bridge", &["b1", "s1"])).unwrap();
        spec.assert_fact(fact("bridge", &["b2", "s1"])).unwrap();
        spec.assert_fact(fact("open", &["b1"])).unwrap();
        spec.assert_fact(fact("open", &["b2"])).unwrap();
        spec.define(Rule::new(
            fact("open_road", &["X"]),
            Formula::and(
                Formula::fact(fact("road", &["X"])),
                Formula::forall(
                    Formula::fact(fact("bridge", &["Y", "X"])),
                    Formula::fact(fact("open", &["Y"])),
                ),
            ),
        ))
        .unwrap();
        spec
    }

    #[test]
    fn explains_a_stored_fact() {
        let spec = bridge_spec();
        let proof = explain(&spec, compile_goal(fact("road", &["s1"])))
            .unwrap()
            .expect("provable");
        // visible → kernel rule → stored h fact.
        let rendered = proof.render();
        assert!(rendered.contains("[fact"), "{rendered}");
        assert!(rendered.contains("road(s1)"), "{rendered}");
    }

    #[test]
    fn explains_a_rule_with_forall() {
        let spec = bridge_spec();
        let proof = explain(&spec, compile_goal(fact("open_road", &["s1"])))
            .unwrap()
            .expect("provable");
        let rendered = proof.render();
        assert!(rendered.contains("open_road(s1)"), "{rendered}");
        assert!(rendered.contains("forall"), "{rendered}");
        // Both bridges appear as instances of the quantifier.
        assert!(rendered.contains("open(b1)"), "{rendered}");
        assert!(rendered.contains("open(b2)"), "{rendered}");
        assert!(proof.size() >= 5);
    }

    #[test]
    fn unprovable_goals_have_no_proof() {
        let spec = bridge_spec();
        let proof = explain(&spec, compile_goal(fact("open_road", &["s9"]))).unwrap();
        assert!(proof.is_none());
    }

    #[test]
    fn explains_negation_as_failure() {
        let mut spec = bridge_spec();
        spec.assert_fact(fact("bridge", &["b3", "s1"])).unwrap();
        spec.define(Rule::new(
            fact("closed", &["X"]),
            Formula::and(
                Formula::fact(fact("bridge", &["X", "R"])),
                Formula::not(Formula::fact(fact("open", &["X"]))),
            ),
        ))
        .unwrap();
        let proof = explain(&spec, compile_goal(fact("closed", &["b3"])))
            .unwrap()
            .expect("provable");
        let rendered = proof.render();
        assert!(rendered.contains("[unprovable]"), "{rendered}");
    }

    #[test]
    fn explains_first_solution_of_open_query() {
        let spec = bridge_spec();
        let proof = explain(&spec, compile_goal(fact("bridge", &["B", "S"])))
            .unwrap()
            .expect("provable");
        assert!(proof.render().contains("bridge(b1, s1)"));
    }

    #[test]
    fn decode_renders_paper_notation() {
        let h = crate::reify::holds(
            Term::atom("celsius"),
            crate::reify::space_at(Term::pred("pt", vec![Term::float(3.0), Term::float(4.0)])),
            Term::Atom(functors::any()),
            Term::atom("vegetation"),
            Term::list(vec![Term::atom("pine"), Term::atom("hill")]),
        );
        assert_eq!(decode(&h), "@ pt(3.0, 4.0) celsius'vegetation(pine, hill)");
        let fh = crate::reify::fuzzy_holds(
            Term::atom(crate::DEFAULT_MODEL),
            Term::Atom(functors::any()),
            Term::Atom(functors::any()),
            Term::float(0.85),
            Term::atom("clarity"),
            Term::list(vec![Term::atom("image")]),
        );
        assert_eq!(decode(&fh), "%0.85 clarity(image)");
        // Non-reified terms render as-is.
        assert_eq!(decode(&Term::atom("plain")), "plain");
    }
}
