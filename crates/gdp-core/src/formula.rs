//! The formula language `F` (§III.A).
//!
//! The paper restricts rule bodies to a grammar chosen for Prolog
//! executability: atomic facts, conjunction, disjunction, bounded universal
//! quantification `∀Xj:(F2 → F3)`, and `not` — which "is not the logical
//! negation but a test that a formula may not be shown to be true".
//! Semantic-domain operations returning Booleans are admitted as if they
//! were facts (§III.B); here that means arithmetic comparison, explicit
//! unification, `is`, domain-membership tests, and aggregation.
//!
//! [`Formula::check_safety`] enforces the paper's range restrictions: the
//! variables of a negated subformula must already be bound by an enclosing
//! positive context (the `I2 ⊆ I` side conditions), and every head variable
//! must be bound by the body (`K ⊆ I`).

use gdp_engine::{FxHashMap, Term};

use crate::fact::{FactPat, Target};
use crate::pattern::{Pat, VarTable};
use crate::qualifiers::SpaceQual;

/// Arithmetic/structural comparison operators usable in formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<` numeric.
    Lt,
    /// `=<` numeric.
    Le,
    /// `>` numeric.
    Gt,
    /// `>=` numeric.
    Ge,
    /// `=:=` numeric equality.
    NumEq,
    /// `=\=` numeric inequality.
    NumNe,
    /// `\=` non-unifiability — the paper's `≠` (e.g. the two-capitals
    /// constraint, §III.C).
    NotUnify,
}

impl CmpOp {
    fn functor(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "=<",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::NumEq => "=:=",
            CmpOp::NumNe => "=\\=",
            CmpOp::NotUnify => "\\=",
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`);
    /// `None` when the operator carries no range information.
    fn flipped(self) -> Option<CmpOp> {
        match self {
            CmpOp::Lt => Some(CmpOp::Gt),
            CmpOp::Le => Some(CmpOp::Ge),
            CmpOp::Gt => Some(CmpOp::Lt),
            CmpOp::Ge => Some(CmpOp::Le),
            CmpOp::NumEq => Some(CmpOp::NumEq),
            CmpOp::NumNe | CmpOp::NotUnify => None,
        }
    }
}

/// One planned bound pushdown: variable `var`, introduced by a fact lookup,
/// is later compared against an expression evaluable *before* that lookup,
/// so the lookup can be wrapped in `range_call(Goal, [rc(Var, iv(..))])`
/// and the KB's range indexes can prune clauses at dispatch time. The
/// comparison goal itself stays in place — the wrapper only *narrows
/// enumeration*, it never decides truth, so compiled semantics are
/// unchanged even when the bound expression fails to evaluate.
#[derive(Clone, Debug)]
struct PlannedRc {
    var: String,
    lo: Option<Pat>,
    lo_open: bool,
    hi: Option<Pat>,
    hi_open: bool,
}

impl PlannedRc {
    /// `rc(V, iv(Lo, Hi, LoEnd, HiEnd))` with `minf`/`inf` for missing
    /// bounds and `open`/`closed` end markers — the shape `range_call/2`
    /// parses in the solver.
    fn compile(&self, vt: &mut VarTable) -> Term {
        let lo = match &self.lo {
            Some(p) => vt.compile(p),
            None => Term::atom("minf"),
        };
        let hi = match &self.hi {
            Some(p) => vt.compile(p),
            None => Term::atom("inf"),
        };
        let end = |open: bool| Term::atom(if open { "open" } else { "closed" });
        Term::pred(
            "rc",
            vec![
                vt.compile(&Pat::Var(self.var.clone())),
                Term::pred("iv", vec![lo, hi, end(self.lo_open), end(self.hi_open)]),
            ],
        )
    }

    /// Constraint `v OP e` (variable on the left) as a half-open interval.
    fn from_cmp(op: CmpOp, var: &str, expr: &Pat) -> Option<PlannedRc> {
        let (lo, lo_open, hi, hi_open) = match op {
            CmpOp::Lt => (None, false, Some(expr.clone()), true),
            CmpOp::Le => (None, false, Some(expr.clone()), false),
            CmpOp::Gt => (Some(expr.clone()), true, None, false),
            CmpOp::Ge => (Some(expr.clone()), false, None, false),
            CmpOp::NumEq => (Some(expr.clone()), false, Some(expr.clone()), false),
            CmpOp::NumNe | CmpOp::NotUnify => return None,
        };
        Some(PlannedRc {
            var: var.to_string(),
            lo,
            lo_open,
            hi,
            hi_open,
        })
    }
}

/// One planned distance box: the fact lookup that first binds `pos` as
/// its `@ pos` position is followed by `dist(center, pos, D)` and
/// `D < radius` (or `=<`), with `center` and `radius` bound before the
/// lookup. Every answer then lies within `radius` of `center`, so the
/// lookup is wrapped in the box the `dist_box/4` native draws around
/// `center` — `rc(X, IVX)`, `rc(Y, IVY)` — and, when it draws one, binds
/// `pos` to `pt(X, Y)` first, so the grid index sees the coordinates.
/// `dist/3` fails on anything but a ground point, so the shape drops
/// nothing an answer could use, and `dist` and the comparison stay in
/// place.
#[derive(Clone, Debug)]
struct PlannedBox {
    pos: String,
    center: Pat,
    radius: Pat,
}

impl PlannedBox {
    /// `dist_box(Center, Radius, IVX, IVY), (nonvar(IVX), Pos = pt(X, Y)
    /// ; var(IVX))`, which goes before the wrapped lookup, and the two
    /// `rc` terms for its wrapper. Without a box `Pos` stays open: a
    /// `pt(X, Y)` would pass the simple spatial operator's `nonvar` guard
    /// and draw every space-independent fact of the predicate.
    fn compile(&self, vt: &mut VarTable) -> (Term, [Term; 2]) {
        let [x, y, ivx, ivy] = [(); 4].map(|()| Term::var(vt.fresh()));
        let dist_box = Term::pred(
            "dist_box",
            vec![
                vt.compile(&self.center),
                vt.compile(&self.radius),
                ivx.clone(),
                ivy.clone(),
            ],
        );
        let as_point = Term::and(
            Term::pred("nonvar", vec![ivx.clone()]),
            Term::unify(
                vt.compile(&Pat::Var(self.pos.clone())),
                Term::pred("pt", vec![x.clone(), y.clone()]),
            ),
        );
        let setup = Term::and(
            dist_box,
            Term::or(as_point, Term::pred("var", vec![ivx.clone()])),
        );
        let rc = |v: Term, iv: Term| Term::pred("rc", vec![v, iv]);
        (setup, [rc(x, ivx), rc(y, ivy)])
    }
}

/// What the pushdown planner wraps one fact lookup in.
#[derive(Clone, Debug, Default)]
struct Plan {
    rcs: Vec<PlannedRc>,
    dist_box: Option<PlannedBox>,
}

/// Aggregation operators (the `avg` function of §V.C and relatives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Arithmetic mean; fails on an empty solution set.
    Avg,
    /// Sum; 0 on empty.
    Sum,
    /// Minimum; fails on empty.
    Min,
    /// Maximum; fails on empty.
    Max,
    /// Solution count (with duplicates).
    Count,
}

impl AggOp {
    fn atom(self) -> &'static str {
        match self {
            AggOp::Avg => "avg",
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Count => "count",
        }
    }
}

/// A body formula in the restricted grammar.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The trivially true formula.
    True,
    /// An atomic (possibly qualified) fact lookup. The pattern is boxed:
    /// inline, it would make every `Formula` several hundred bytes, and
    /// the parser's stack frames, which hold several, as large.
    Fact(Box<FactPat>),
    /// An accuracy-qualified fact lookup `%A q(x)` against the fuzzy
    /// relation (§VII.B); binds the accuracy pattern.
    FuzzyFact(Box<FactPat>, Pat),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Negation as failure.
    Not(Box<Formula>),
    /// Bounded universal quantification `∀:(cond → then)`.
    Forall(Box<Formula>, Box<Formula>),
    /// Comparison between two value patterns.
    Cmp(CmpOp, Pat, Pat),
    /// Explicit unification `lhs = rhs`.
    Unify(Pat, Pat),
    /// Arithmetic evaluation `lhs is rhs`.
    Is(Pat, Pat),
    /// Membership test of a value in a declared semantic domain; compiles
    /// to the `domain_member/2` native. Used for many-sorted constraints
    /// (§III.C).
    Domain(String, Pat),
    /// The cardinality primitive `card(goal_instances) = N` (§VII.B):
    /// counts distinct provable instances of the inner formula.
    Card(Box<Formula>, Pat),
    /// Aggregation: `agg(op, value_pattern, formula, result)`.
    Agg(AggOp, Pat, Box<Formula>, Pat),
    /// Escape hatch: a raw goal pattern passed to the engine verbatim
    /// (used by the spatial/temporal/fuzzy crates for native predicates).
    Raw(Pat),
}

impl Formula {
    /// Conjunction of many formulas (`True` when empty).
    pub fn all(mut items: Vec<Formula>) -> Formula {
        match items.len() {
            0 => Formula::True,
            1 => items.pop().expect("len checked"),
            _ => {
                let mut it = items.into_iter().rev();
                let last = it.next().expect("len checked");
                it.fold(last, |acc, f| Formula::And(Box::new(f), Box::new(acc)))
            }
        }
    }

    /// Disjunction of many formulas (panics when empty).
    pub fn any_of(items: Vec<Formula>) -> Formula {
        let mut it = items.into_iter().rev();
        let last = it.next().expect("Formula::any_of of empty vector");
        it.fold(last, |acc, f| Formula::Or(Box::new(f), Box::new(acc)))
    }

    /// `fact(...)` shorthand.
    pub fn fact(f: FactPat) -> Formula {
        Formula::Fact(Box::new(f))
    }

    /// `%acc fact(...)` shorthand.
    pub fn fuzzy_fact(f: FactPat, acc: Pat) -> Formula {
        Formula::FuzzyFact(Box::new(f), acc)
    }

    /// `not(...)` shorthand.
    #[allow(clippy::should_implement_trait)] // `not/1` is the formalism's name
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `and` shorthand.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// `or` shorthand.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// `forall` shorthand.
    pub fn forall(cond: Formula, then: Formula) -> Formula {
        Formula::Forall(Box::new(cond), Box::new(then))
    }

    /// Compile into an engine goal term. Body fact lookups go through the
    /// world-view-filtered `visible/5` relation.
    pub fn compile(&self, vt: &mut VarTable) -> Term {
        match self {
            Formula::True => Term::atom("true"),
            Formula::Fact(f) => f.compile(vt, Target::Visible),
            Formula::FuzzyFact(f, acc) => f.compile_fuzzy(vt, acc, Target::Visible),
            Formula::And(a, b) => Term::and(a.compile(vt), b.compile(vt)),
            Formula::Or(a, b) => Term::or(a.compile(vt), b.compile(vt)),
            // User-level negation compiles to the engine's *existential*
            // negation `absent/1`, not strict `not/1`: the compiled body is
            // a `visible/5` lookup whose model variable is existential by
            // construction ("not visible in any active model"), so the
            // strict form would flounder on every negated literal. The
            // paper's I2 ⊆ I range restriction on *user* variables is
            // enforced statically by [`Formula::check_safety`] instead.
            Formula::Not(f) => Term::absent(f.compile(vt)),
            // Same for forall: absent((C, absent(T))) — no solution of the
            // condition escapes the conclusion in any active model.
            Formula::Forall(c, t) => {
                Term::absent(Term::and(c.compile(vt), Term::absent(t.compile(vt))))
            }
            Formula::Cmp(op, a, b) => Term::pred(op.functor(), vec![vt.compile(a), vt.compile(b)]),
            Formula::Unify(a, b) => Term::unify(vt.compile(a), vt.compile(b)),
            Formula::Is(a, b) => Term::pred("is", vec![vt.compile(a), vt.compile(b)]),
            Formula::Domain(d, v) => {
                Term::pred("domain_member", vec![Term::atom(d), vt.compile(v)])
            }
            Formula::Card(f, n) => Term::pred("card", vec![f.compile(vt), vt.compile(n)]),
            Formula::Agg(op, template, f, result) => Term::pred(
                "aggregate",
                vec![
                    Term::atom(op.atom()),
                    vt.compile(template),
                    f.compile(vt),
                    vt.compile(result),
                ],
            ),
            Formula::Raw(p) => vt.compile(p),
        }
    }

    /// Compile like [`Formula::compile`], but first plan *bound pushdown*
    /// over the top-level conjunction: a fact lookup that introduces a
    /// variable later compared against an already-bound expression is
    /// wrapped in `range_call(Goal, [rc(Var, iv(..))])`, handing the KB's
    /// grid/interval indexes a numeric range to prune clause candidates
    /// with (the classic "push the selection below the scan" move), and a
    /// lookup whose position a later `dist(P, Q, D), D < E` bounds is
    /// wrapped in a box around `P`, drawn by `dist_box/4`. All comparison goals
    /// stay in place, so the compiled body is a semantic no-op relative
    /// to the plain compile — indexed and unindexed solving produce
    /// identical answers in identical order. When nothing is plannable
    /// this *is* the plain compile, term-for-term.
    pub fn compile_pushdown(&self, vt: &mut VarTable) -> Term {
        let mut items = Vec::new();
        self.conjuncts(&mut items);
        let plan = Formula::plan_pushdown(&items);
        if plan.is_empty() {
            return self.compile(vt);
        }
        let mut ord = 0usize;
        self.compile_with_plan(vt, &plan, &mut ord)
    }

    /// Flatten the top-level `And` spine into leaf conjuncts, in order.
    fn conjuncts<'a>(&'a self, out: &mut Vec<&'a Formula>) {
        if let Formula::And(a, b) = self {
            a.conjuncts(out);
            b.conjuncts(out);
        } else {
            out.push(self);
        }
    }

    /// For each top-level `Fact` conjunct (by leaf ordinal), the range
    /// constraints later comparisons impose on variables that lookup
    /// introduces. A constraint `V op E` qualifies when `V` first becomes
    /// bound at that fact and every variable of `E` is bound *before* it —
    /// i.e. `E` is evaluable at the moment the lookup dispatches. So does
    /// a distance box ([`PlannedBox`]) on the lookup's `@ Q` position.
    fn plan_pushdown(items: &[&Formula]) -> FxHashMap<usize, Plan> {
        let mut bound_before: Vec<Vec<String>> = Vec::with_capacity(items.len());
        let mut bound = Vec::new();
        for item in items {
            bound_before.push(bound.clone());
            item.binds(&mut bound);
        }

        let mut plan: FxHashMap<usize, Plan> = FxHashMap::default();
        for (i, item) in items.iter().enumerate() {
            let Formula::Fact(f) = item else { continue };
            let mut fact_vars = Vec::new();
            f.collect_vars(&mut fact_vars);
            let fresh: Vec<&String> = fact_vars
                .iter()
                .filter(|v| !bound_before[i].contains(v))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            let evaluable = |eside: &Pat| {
                let mut evars = Vec::new();
                eside.collect_vars(&mut evars);
                evars.iter().all(|e| bound_before[i].contains(e))
            };
            let qualifies = |vside: &Pat, eside: &Pat| -> Option<String> {
                let Pat::Var(v) = vside else { return None };
                (fresh.contains(&v) && evaluable(eside)).then(|| v.clone())
            };
            let mut rcs = Vec::new();
            for later in &items[i + 1..] {
                let Formula::Cmp(op, a, b) = later else {
                    continue;
                };
                if let Some(v) = qualifies(a, b) {
                    rcs.extend(PlannedRc::from_cmp(*op, &v, b));
                } else if let Some(v) = qualifies(b, a) {
                    if let Some(flip) = op.flipped() {
                        rcs.extend(PlannedRc::from_cmp(flip, &v, a));
                    }
                }
            }
            let dist_box = match &f.space {
                SpaceQual::At(Pat::Var(q)) if fresh.contains(&q) => {
                    Formula::plan_dist_box(q, &items[i + 1..], &evaluable)
                }
                _ => None,
            };
            if !rcs.is_empty() || dist_box.is_some() {
                plan.insert(i, Plan { rcs, dist_box });
            }
        }
        plan
    }

    /// The distance box on position `q` that the conjuncts `later` (those
    /// after the lookup binding `q`) imply: the first `dist(P, q, D)` whose
    /// `P` is `evaluable` at the lookup, with a later `D < E` or `D =< E`
    /// (either way round) whose `E` is.
    fn plan_dist_box(
        q: &str,
        later: &[&Formula],
        evaluable: &impl Fn(&Pat) -> bool,
    ) -> Option<PlannedBox> {
        for (j, item) in later.iter().enumerate() {
            let Formula::Raw(Pat::Compound(name, args)) = item else {
                continue;
            };
            let [center, Pat::Var(pos), Pat::Var(d)] = &args[..] else {
                continue;
            };
            if name != "dist" || pos != q || !evaluable(center) {
                continue;
            }
            for cmp in &later[j + 1..] {
                let radius = match cmp {
                    Formula::Cmp(CmpOp::Lt | CmpOp::Le, Pat::Var(v), e)
                    | Formula::Cmp(CmpOp::Gt | CmpOp::Ge, e, Pat::Var(v))
                        if v == d && evaluable(e) =>
                    {
                        e
                    }
                    _ => continue,
                };
                return Some(PlannedBox {
                    pos: q.to_string(),
                    center: center.clone(),
                    radius: radius.clone(),
                });
            }
        }
        None
    }

    /// Compile, wrapping planned leaf conjuncts. Mirrors the `And` spine of
    /// [`Formula::compile`] exactly (same recursion, same variable
    /// allocation order — the `rc` terms only reference variables already
    /// allocated by the wrapped goal or earlier conjuncts).
    fn compile_with_plan(
        &self,
        vt: &mut VarTable,
        plan: &FxHashMap<usize, Plan>,
        ord: &mut usize,
    ) -> Term {
        if let Formula::And(a, b) = self {
            let ta = a.compile_with_plan(vt, plan, ord);
            let tb = b.compile_with_plan(vt, plan, ord);
            return Term::and(ta, tb);
        }
        let i = *ord;
        *ord += 1;
        let goal = self.compile(vt);
        let Some(planned) = plan.get(&i) else {
            return goal;
        };
        let mut rc_terms: Vec<Term> = planned.rcs.iter().map(|rc| rc.compile(vt)).collect();
        let setup = planned.dist_box.as_ref().map(|b| {
            let (setup, rcs) = b.compile(vt);
            rc_terms.extend(rcs);
            setup
        });
        let wrapped = Term::pred("range_call", vec![goal, Term::list(rc_terms)]);
        match setup {
            Some(setup) => Term::and(setup, wrapped),
            None => wrapped,
        }
    }

    /// Variables this formula *binds* when it succeeds (positive context).
    fn binds(&self, out: &mut Vec<String>) {
        match self {
            Formula::True => {}
            Formula::Fact(f) => f.collect_vars(out),
            Formula::FuzzyFact(f, acc) => {
                f.collect_vars(out);
                acc.collect_vars(out);
            }
            Formula::And(a, b) => {
                a.binds(out);
                b.binds(out);
            }
            Formula::Or(a, b) => {
                // Only variables bound on *every* branch are surely bound.
                let mut la = Vec::new();
                let mut lb = Vec::new();
                a.binds(&mut la);
                b.binds(&mut lb);
                for v in la {
                    if lb.contains(&v) && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            // Negation and forall bind nothing (their bindings do not
            // escape), comparisons test only.
            Formula::Not(_) | Formula::Forall(..) | Formula::Cmp(..) | Formula::Domain(..) => {}
            Formula::Unify(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Is(a, _) => a.collect_vars(out),
            Formula::Card(_, n) => n.collect_vars(out),
            Formula::Agg(_, _, _, result) => result.collect_vars(out),
            Formula::Raw(p) => p.collect_vars(out),
        }
    }

    /// All variables mentioned anywhere in the formula.
    pub fn mentions(&self, out: &mut Vec<String>) {
        match self {
            Formula::True => {}
            Formula::Fact(f) => f.collect_vars(out),
            Formula::FuzzyFact(f, acc) => {
                f.collect_vars(out);
                acc.collect_vars(out);
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Forall(a, b) => {
                a.mentions(out);
                b.mentions(out);
            }
            Formula::Not(f) => f.mentions(out),
            Formula::Cmp(_, a, b) | Formula::Unify(a, b) | Formula::Is(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Domain(_, v) => v.collect_vars(out),
            Formula::Card(f, n) => {
                f.mentions(out);
                n.collect_vars(out);
            }
            Formula::Agg(_, t, f, r) => {
                t.collect_vars(out);
                f.mentions(out);
                r.collect_vars(out);
            }
            Formula::Raw(p) => p.collect_vars(out),
        }
    }

    /// Check the paper's range restrictions. `head_vars` are the variables
    /// the rule head exports (`Xk`); they must all be bound by the body.
    ///
    /// Returns a human-readable reason on violation.
    pub fn check_safety(&self, head_vars: &[String]) -> Result<(), String> {
        let mut bound = Vec::new();
        self.check_inner(&mut bound)?;
        for v in head_vars {
            if !bound.contains(v) {
                return Err(format!(
                    "head variable `{v}` is not bound by any positive body atom \
                     (K ⊆ I violated)"
                ));
            }
        }
        Ok(())
    }

    /// Walk the formula left to right maintaining the bound-variable set.
    fn check_inner(&self, bound: &mut Vec<String>) -> Result<(), String> {
        match self {
            Formula::True => Ok(()),
            Formula::Fact(_)
            | Formula::FuzzyFact(..)
            | Formula::Unify(..)
            | Formula::Is(..)
            | Formula::Card(..)
            | Formula::Agg(..)
            | Formula::Raw(_) => {
                // Positive contexts: whatever they mention becomes bound.
                // (For `is` the right-hand side should itself be bound, but
                // the engine reports that dynamically as an instantiation
                // error with better context.)
                self.binds(bound);
                // Inner formulas of card/agg are sub-queries; check them
                // against the current bound set (they may introduce local
                // variables freely).
                if let Formula::Card(inner, _) | Formula::Agg(_, _, inner, _) = self {
                    let mut local = bound.clone();
                    inner.check_inner(&mut local)?;
                }
                Ok(())
            }
            Formula::And(a, b) => {
                a.check_inner(bound)?;
                b.check_inner(bound)
            }
            Formula::Or(a, b) => {
                let mut ba = bound.clone();
                let mut bb = bound.clone();
                a.check_inner(&mut ba)?;
                b.check_inner(&mut bb)?;
                for v in ba {
                    if bb.contains(&v) && !bound.contains(&v) {
                        bound.push(v);
                    }
                }
                Ok(())
            }
            Formula::Not(f) => {
                // I2 ⊆ I: every variable of the negated formula must be
                // bound already.
                let mut inner = Vec::new();
                f.mentions(&mut inner);
                for v in &inner {
                    if !bound.contains(v) {
                        return Err(format!(
                            "variable `{v}` occurs under `not` without being bound \
                             by an earlier positive atom (I2 ⊆ I violated)"
                        ));
                    }
                }
                Ok(())
            }
            Formula::Forall(cond, then) => {
                // The condition may introduce fresh universally quantified
                // variables Xj (j ∉ I); the conclusion may use only bound
                // variables and those Xj.
                let mut cond_vars = Vec::new();
                cond.mentions(&mut cond_vars);
                let mut local = bound.clone();
                for v in cond_vars {
                    if !local.contains(&v) {
                        local.push(v);
                    }
                }
                let mut then_vars = Vec::new();
                then.mentions(&mut then_vars);
                for v in &then_vars {
                    if !local.contains(v) {
                        return Err(format!(
                            "variable `{v}` occurs in a forall conclusion without \
                             being bound by the condition or an earlier atom"
                        ));
                    }
                }
                Ok(())
            }
            Formula::Cmp(_, a, b) => {
                let mut vars = Vec::new();
                a.collect_vars(&mut vars);
                b.collect_vars(&mut vars);
                for v in &vars {
                    if !bound.contains(v) {
                        return Err(format!(
                            "variable `{v}` used in a comparison before being bound"
                        ));
                    }
                }
                Ok(())
            }
            Formula::Domain(_, v) => {
                let mut vars = Vec::new();
                v.collect_vars(&mut vars);
                for v in &vars {
                    if !bound.contains(v) {
                        return Err(format!(
                            "variable `{v}` used in a domain test before being bound"
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(pred: &str, args: Vec<&str>) -> Formula {
        let mut f = FactPat::new(pred);
        for a in args {
            f = f.arg(a);
        }
        Formula::fact(f)
    }

    #[test]
    fn all_of_none_is_true() {
        assert_eq!(Formula::all(vec![]), Formula::True);
    }

    #[test]
    fn safe_rule_passes() {
        // road(X), forall(bridge(Y, X), open(Y))  with head var X.
        let body = Formula::and(
            fact("road", vec!["X"]),
            Formula::forall(fact("bridge", vec!["Y", "X"]), fact("open", vec!["Y"])),
        );
        assert!(body.check_safety(&["X".to_string()]).is_ok());
    }

    #[test]
    fn unbound_head_var_rejected() {
        let body = fact("road", vec!["X"]);
        let err = body.check_safety(&["Z".to_string()]).unwrap_err();
        assert!(err.contains("Z"));
    }

    #[test]
    fn naf_on_unbound_var_rejected() {
        // not(open(X)) with X never bound.
        let body = Formula::not(fact("open", vec!["X"]));
        assert!(body.check_safety(&[]).is_err());
        // bridge(X), not(open(X)) is fine.
        let ok = Formula::and(
            fact("bridge", vec!["X"]),
            Formula::not(fact("open", vec!["X"])),
        );
        assert!(ok.check_safety(&["X".to_string()]).is_ok());
    }

    #[test]
    fn forall_may_introduce_fresh_vars() {
        // forall(bridge(Y, X), open(Y)) — Y fresh is allowed...
        let body = Formula::and(
            fact("road", vec!["X"]),
            Formula::forall(fact("bridge", vec!["Y", "X"]), fact("open", vec!["Y"])),
        );
        assert!(body.check_safety(&[]).is_ok());
        // ...but the conclusion may not smuggle in a brand-new variable.
        let bad = Formula::forall(fact("bridge", vec!["Y"]), fact("status", vec!["Y", "Z"]));
        assert!(bad.check_safety(&[]).is_err());
    }

    #[test]
    fn or_binds_only_intersection() {
        // (p(X) ; q(Y)), not(r(X))  — X not bound on the q branch.
        let body = Formula::and(
            Formula::or(fact("p", vec!["X"]), fact("q", vec!["Y"])),
            Formula::not(fact("r", vec!["X"])),
        );
        assert!(body.check_safety(&[]).is_err());
        // (p(X) ; q(X)), not(r(X)) — bound on both branches: fine.
        let ok = Formula::and(
            Formula::or(fact("p", vec!["X"]), fact("q", vec!["X"])),
            Formula::not(fact("r", vec!["X"])),
        );
        assert!(ok.check_safety(&[]).is_ok());
    }

    #[test]
    fn comparison_requires_bound_vars() {
        let bad = Formula::Cmp(CmpOp::Gt, Pat::var("A"), Pat::Int(0));
        assert!(bad.check_safety(&[]).is_err());
        let ok = Formula::and(
            fact("population", vec!["A", "X"]),
            Formula::Cmp(CmpOp::Gt, Pat::var("A"), Pat::Int(0)),
        );
        assert!(ok.check_safety(&[]).is_ok());
    }

    #[test]
    fn compile_produces_visible_lookups() {
        let mut vt = VarTable::new();
        let body = Formula::and(
            fact("road", vec!["X"]),
            Formula::not(fact("open", vec!["X"])),
        );
        let t = body.compile(&mut vt);
        let s = t.to_string();
        assert!(s.contains("visible("));
        // Negated lookups use the existential form: the model variable of
        // `visible/5` is unbound by design, which strict `not/1` rejects.
        assert!(s.contains("absent(visible("), "compiled: {s}");
    }

    #[test]
    fn pushdown_wraps_later_constrained_fact() {
        // reading(X,V1), reading(Y,V2), V1 < V2 — the second lookup
        // introduces V2 and V1 is bound by then, so it gets wrapped with
        // rc(V2, iv(V1, inf, open, closed)). The first lookup stays bare
        // (V2 is unbound at its dispatch) and the comparison goal survives.
        let body = Formula::all(vec![
            fact("reading", vec!["X", "V1"]),
            fact("reading", vec!["Y", "V2"]),
            Formula::Cmp(CmpOp::Lt, Pat::var("V1"), Pat::var("V2")),
        ]);
        let mut vt = VarTable::new();
        let s = body.compile_pushdown(&mut vt).to_string();
        assert_eq!(s.matches("range_call(").count(), 1, "compiled: {s}");
        assert!(s.contains("iv("), "compiled: {s}");
        assert!(s.contains("inf"), "compiled: {s}");
        assert!(s.contains("open"), "compiled: {s}");
        assert!(s.contains("<("), "comparison goal must survive: {s}");
        // Variable allocation identical to the plain compile.
        let mut plain = VarTable::new();
        body.compile(&mut plain);
        assert_eq!(vt.len(), plain.len());
    }

    #[test]
    fn pushdown_collects_both_bounds_and_constants() {
        // m(V), V >= 0, V < 10 — constants are always "evaluable", so the
        // single lookup collects both half-intervals.
        let body = Formula::all(vec![
            fact("m", vec!["V"]),
            Formula::Cmp(CmpOp::Ge, Pat::var("V"), Pat::Int(0)),
            Formula::Cmp(CmpOp::Lt, Pat::var("V"), Pat::Int(10)),
        ]);
        let mut vt = VarTable::new();
        let s = body.compile_pushdown(&mut vt).to_string();
        assert_eq!(s.matches("range_call(").count(), 1, "compiled: {s}");
        assert_eq!(s.matches("rc(").count(), 2, "compiled: {s}");
    }

    #[test]
    fn pushdown_skips_inequality_and_unbound_expressions() {
        // =\= carries no range; a bound expression using a later variable
        // is not evaluable at dispatch time. Nothing plans, so the result
        // is the plain compile, term for term.
        let body = Formula::all(vec![
            fact("m", vec!["V"]),
            fact("n", vec!["W"]),
            Formula::Cmp(CmpOp::NumNe, Pat::var("V"), Pat::Int(3)),
            Formula::Cmp(CmpOp::Lt, Pat::var("V"), Pat::var("W")),
        ]);
        // V < W: V is fresh at m/1 but W binds only later — skip; for n/1,
        // W is fresh and V is bound, so the flipped form W > V *does* plan.
        let mut vt = VarTable::new();
        let s = body.compile_pushdown(&mut vt).to_string();
        assert_eq!(s.matches("range_call(").count(), 1, "compiled: {s}");

        let unplannable = Formula::all(vec![
            fact("m", vec!["V"]),
            Formula::Cmp(CmpOp::NumNe, Pat::var("V"), Pat::Int(3)),
        ]);
        let mut vt1 = VarTable::new();
        let mut vt2 = VarTable::new();
        assert_eq!(
            unplannable.compile(&mut vt1),
            unplannable.compile_pushdown(&mut vt2)
        );
    }

    #[test]
    fn pushdown_boxes_a_position_a_later_distance_bounds() {
        let at = |pos: &str, name: &str, arg: &str| {
            Formula::fact(FactPat::new(name).arg(arg).at(Pat::var(pos)))
        };
        let dist =
            |p: Pat, q: &str| Formula::Raw(Pat::app("dist", vec![p, Pat::var(q), Pat::var("D")]));
        // @ P city(c1), @ Q city(C), dist(P, Q, D), D < 9.5: the second
        // lookup binds Q to a point and is wrapped in the box around P.
        let body = Formula::all(vec![
            at("P", "city", "c1"),
            at("Q", "city", "C"),
            dist(Pat::var("P"), "Q"),
            Formula::Cmp(CmpOp::Lt, Pat::var("D"), Pat::Float(9.5)),
        ]);
        let mut vt = VarTable::new();
        let s = body.compile_pushdown(&mut vt).to_string();
        assert_eq!(s.matches("range_call(").count(), 1, "compiled: {s}");
        assert_eq!(s.matches("dist_box(").count(), 1, "compiled: {s}");
        assert_eq!(s.matches("rc(").count(), 2, "compiled: {s}");
        assert!(s.contains("pt("), "compiled: {s}");
        assert!(s.contains("dist(") && s.contains("<("), "filters stay: {s}");
        // The radius on the left, and a constant centre, plan too.
        let flipped = Formula::all(vec![
            at("Q", "city", "C"),
            dist(Pat::app("pt", vec![Pat::Float(1.0), Pat::Float(2.0)]), "Q"),
            Formula::Cmp(CmpOp::Ge, Pat::Float(3.0), Pat::var("D")),
        ]);
        let s = flipped.compile_pushdown(&mut VarTable::new()).to_string();
        assert_eq!(s.matches("dist_box(").count(), 1, "compiled: {s}");
        // A centre bound only after the lookup, a lower bound on D, or a
        // position bound before the lookup plans nothing.
        for unplannable in [
            Formula::all(vec![
                at("Q", "city", "C"),
                at("P", "city", "c1"),
                dist(Pat::var("P"), "Q"),
                Formula::Cmp(CmpOp::Lt, Pat::var("D"), Pat::Float(9.5)),
            ]),
            Formula::all(vec![
                at("P", "city", "c1"),
                at("Q", "city", "C"),
                dist(Pat::var("P"), "Q"),
                Formula::Cmp(CmpOp::Gt, Pat::var("D"), Pat::Float(9.5)),
            ]),
        ] {
            let mut vt1 = VarTable::new();
            let mut vt2 = VarTable::new();
            let plain = unplannable.compile(&mut vt1).to_string();
            let pushed = unplannable.compile_pushdown(&mut vt2).to_string();
            assert!(!pushed.contains("dist_box("), "compiled: {pushed}");
            assert_eq!(plain, pushed);
        }
    }

    #[test]
    fn card_compiles_to_engine_card() {
        let mut vt = VarTable::new();
        let f = Formula::Card(Box::new(fact("white", vec!["P"])), Pat::var("N"));
        let s = f.compile(&mut vt).to_string();
        assert!(s.starts_with("card("));
    }

    #[test]
    fn agg_compiles_with_op_atom() {
        let mut vt = VarTable::new();
        let f = Formula::Agg(
            AggOp::Avg,
            Pat::var("Z"),
            Box::new(fact("elevation", vec!["Z", "X"])),
            Pat::var("Avg"),
        );
        let s = f.compile(&mut vt).to_string();
        assert!(s.starts_with("aggregate(avg"));
    }
}
