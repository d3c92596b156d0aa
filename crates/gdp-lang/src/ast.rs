//! Parsed statements.
//!
//! The AST reuses `gdp-core`'s pattern/formula types directly — the
//! language is a concrete syntax for exactly those structures, nothing
//! more.

use gdp_core::{
    ArgsPat, Constraint, DomainDef, FactPat, Formula, IntervalPat, Pat, Rule, Sort, SpaceQual,
    TimeQual,
};
use gdp_engine::Term;

/// One parsed statement.
#[derive(Clone, Debug)]
pub enum Statement {
    /// `#domain name float(lo, hi).` and friends (§III.B).
    Domain {
        /// Domain name.
        name: String,
        /// Membership definition.
        def: DomainDef,
    },
    /// `#predicate name(sort, …).` (§III.C many-sorted declarations).
    Predicate {
        /// Predicate name.
        name: String,
        /// Argument sorts.
        sorts: Vec<Sort>,
    },
    /// `#model name.` (§III.D).
    Model(String),
    /// `#object name.` (§II.A).
    Object(String),
    /// `#world_view { m1, m2 }.` (§III.E).
    WorldView(Vec<String>),
    /// `#meta_view { mm1, mm2 }.` (§IV.D).
    MetaView(Vec<String>),
    /// `#activate name.` — activate one meta-model.
    Activate(String),
    /// `#deactivate name.`
    Deactivate(String),
    /// `#grid name square(x0, y0, cell, nx, ny).` — register a resolution
    /// function (§V.B).
    Grid {
        /// Grid name.
        name: String,
        /// Extent origin x.
        x0: f64,
        /// Extent origin y.
        y0: f64,
        /// Square cell size.
        cell: f64,
        /// Cells along x.
        nx: u32,
        /// Cells along y.
        ny: u32,
    },
    /// `#now t.` — set the present moment (§VI.B).
    Now(f64),
    /// `#retract fact.` — withdraw a previously asserted basic fact.
    Retract(FactPat),
    /// A basic fact (§II.B), possibly qualified.
    Fact(FactPat),
    /// `%a fact.` — an accuracy-qualified basic fact (§VII.B).
    FuzzyFact(FactPat, f64),
    /// A virtual-fact definition (§III.A).
    Rule(Rule),
    /// `%A head :- body.` — a definition with an accuracy-qualified
    /// conclusion (§VII.B).
    FuzzyRule {
        /// Conclusion.
        head: FactPat,
        /// Accuracy pattern (must be bound by the body).
        accuracy: Pat,
        /// Defining formula.
        body: Formula,
    },
    /// `constraint type(witnesses) :- body.` (§III.C).
    Constraint(Constraint),
    /// `?- formula.` — a query, returned to the caller rather than stored.
    Query(Formula),
}

impl Statement {
    /// Short tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Statement::Domain { .. } => "domain",
            Statement::Predicate { .. } => "predicate",
            Statement::Model(_) => "model",
            Statement::Object(_) => "object",
            Statement::WorldView(_) => "world_view",
            Statement::MetaView(_) => "meta_view",
            Statement::Activate(_) => "activate",
            Statement::Deactivate(_) => "deactivate",
            Statement::Grid { .. } => "grid",
            Statement::Now(_) => "now",
            Statement::Retract(_) => "retract",
            Statement::Fact(_) => "fact",
            Statement::FuzzyFact(..) => "fuzzy_fact",
            Statement::Rule(_) => "rule",
            Statement::FuzzyRule { .. } => "fuzzy_rule",
            Statement::Constraint(_) => "constraint",
            Statement::Query(_) => "query",
        }
    }
}

impl Statement {
    /// How deep the statement's terms nest once compiled: a compound is a
    /// level, a list (a fact's argument list too) is a level per element,
    /// and a connective or comparison is a level around its operands.
    /// Computed without recursion, so any parsed statement can be
    /// measured before anything recursive touches it.
    pub fn depth(&self) -> usize {
        let mut walk = DepthWalk::default();
        match self {
            Statement::Retract(f) | Statement::Fact(f) | Statement::FuzzyFact(f, _) => {
                walk.push(Node::Fact(f), 0);
            }
            Statement::Rule(r) => {
                walk.push(Node::Fact(&r.head), 0);
                walk.push(Node::Formula(&r.body), 0);
            }
            Statement::FuzzyRule {
                head,
                accuracy,
                body,
            } => {
                walk.push(Node::Fact(head), 0);
                walk.push(Node::Pat(accuracy), 1);
                walk.push(Node::Formula(body), 0);
            }
            Statement::Constraint(c) => {
                walk.list(&c.witnesses, 1);
                if let Some(m) = &c.model {
                    walk.push(Node::Pat(m), 1);
                }
                walk.push(Node::Formula(&c.condition), 0);
            }
            Statement::Query(f) => walk.push(Node::Formula(f), 0),
            _ => {}
        }
        walk.run()
    }
}

enum Node<'a> {
    Pat(&'a Pat),
    Term(&'a Term),
    Fact(&'a FactPat),
    Formula(&'a Formula),
}

/// Nodes waiting to be measured, each with the number of compounds
/// around it, and the deepest level seen.
#[derive(Default)]
struct DepthWalk<'a> {
    todo: Vec<(Node<'a>, usize)>,
    max: usize,
}

impl<'a> DepthWalk<'a> {
    fn push(&mut self, node: Node<'a>, level: usize) {
        self.todo.push((node, level));
    }

    /// A list whose first cell sits at `level`: item `i` is `i + 1`
    /// cells in.
    fn list(&mut self, items: &'a [Pat], level: usize) {
        self.max = self.max.max(level + items.len());
        for (i, item) in items.iter().enumerate() {
            self.push(Node::Pat(item), level + i + 1);
        }
    }

    fn run(mut self) -> usize {
        while let Some((node, level)) = self.todo.pop() {
            self.max = self.max.max(level);
            let inner = level + 1;
            match node {
                Node::Pat(Pat::Compound(_, args)) if !args.is_empty() => {
                    self.max = self.max.max(inner);
                    for arg in args {
                        self.push(Node::Pat(arg), inner);
                    }
                }
                Node::Pat(Pat::Term(t)) => self.push(Node::Term(t), level),
                Node::Pat(_) => {}
                Node::Term(Term::Compound(_, args)) => {
                    self.max = self.max.max(inner);
                    for arg in args.iter() {
                        self.push(Node::Term(arg), inner);
                    }
                }
                Node::Term(_) => {}
                Node::Fact(fact) => self.fact(fact, level),
                Node::Formula(formula) => self.formula(formula, level),
            }
        }
        self.max
    }

    /// A fact compiles to one compound over its qualifiers, predicate
    /// and argument list.
    fn fact(&mut self, fact: &'a FactPat, level: usize) {
        let inner = level + 1;
        self.max = self.max.max(inner);
        if let Some(m) = &fact.model {
            self.push(Node::Pat(m), inner);
        }
        self.push(Node::Pat(&fact.pred), inner);
        let qualifier = inner + 1;
        match &fact.space {
            SpaceQual::Any => {}
            SpaceQual::At(p) => self.push(Node::Pat(p), qualifier),
            SpaceQual::AreaUniform { res, at }
            | SpaceQual::AreaSampled { res, at }
            | SpaceQual::AreaAveraged { res, at } => {
                self.push(Node::Pat(res), qualifier);
                self.push(Node::Pat(at), qualifier);
            }
        }
        let interval = |walk: &mut Self, iv: &'a IntervalPat| {
            walk.push(Node::Pat(&iv.lo), qualifier);
            walk.push(Node::Pat(&iv.hi), qualifier);
        };
        match &fact.time {
            TimeQual::Any | TimeQual::Now => {}
            TimeQual::At(p) => self.push(Node::Pat(p), qualifier),
            TimeQual::IntervalUniform(iv)
            | TimeQual::IntervalSampled(iv)
            | TimeQual::IntervalAveraged(iv) => interval(self, iv),
            TimeQual::Cyclic {
                period,
                interval: iv,
            } => {
                self.push(Node::Pat(period), qualifier);
                interval(self, iv);
            }
        }
        match &fact.args {
            ArgsPat::Fixed(items) => self.list(items, inner),
            ArgsPat::HeadTail(items, tail) => {
                self.list(items, inner);
                self.push(Node::Pat(tail), inner + items.len());
            }
            ArgsPat::Whole(p) => self.push(Node::Pat(p), inner),
        }
    }

    fn formula(&mut self, formula: &'a Formula, level: usize) {
        let inner = level + 1;
        match formula {
            Formula::True => {}
            Formula::Fact(f) => self.fact(f, level),
            Formula::FuzzyFact(f, accuracy) => {
                self.fact(f, level);
                self.push(Node::Pat(accuracy), inner);
            }
            Formula::Raw(p) => self.push(Node::Pat(p), level),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Forall(a, b) => {
                self.max = self.max.max(inner);
                self.push(Node::Formula(a), inner);
                self.push(Node::Formula(b), inner);
            }
            Formula::Not(f) => {
                self.max = self.max.max(inner);
                self.push(Node::Formula(f), inner);
            }
            Formula::Cmp(_, a, b) | Formula::Unify(a, b) | Formula::Is(a, b) => {
                self.max = self.max.max(inner);
                self.push(Node::Pat(a), inner);
                self.push(Node::Pat(b), inner);
            }
            Formula::Domain(_, p) => {
                self.max = self.max.max(inner);
                self.push(Node::Pat(p), inner);
            }
            Formula::Card(f, p) => {
                self.max = self.max.max(inner);
                self.push(Node::Formula(f), inner);
                self.push(Node::Pat(p), inner);
            }
            Formula::Agg(_, p, f, result) => {
                self.max = self.max.max(inner);
                self.push(Node::Pat(p), inner);
                self.push(Node::Formula(f), inner);
                self.push(Node::Pat(result), inner);
            }
        }
    }
}

impl Statement {
    /// Drop the statement without recursing into its terms: a refused
    /// statement can nest deeper than dropping it the usual way, one
    /// stack frame per level, would fit on the thread's stack.
    pub(crate) fn dismantle(self) {
        let mut flat = Flat::default();
        match self {
            Statement::Retract(f) | Statement::Fact(f) | Statement::FuzzyFact(f, _) => flat.fact(f),
            Statement::Rule(r) => {
                flat.fact(r.head);
                flat.formulas.push(r.body);
            }
            Statement::FuzzyRule {
                head,
                accuracy,
                body,
            } => {
                flat.fact(head);
                flat.pats.push(accuracy);
                flat.formulas.push(body);
            }
            Statement::Constraint(c) => {
                flat.pats.extend(c.witnesses);
                flat.pats.extend(c.model);
                flat.formulas.push(c.condition);
            }
            Statement::Query(f) => flat.formulas.push(f),
            _ => {}
        }
        flat.run();
    }
}

/// Owned pieces of a statement, each dropped once its children have
/// been moved out.
#[derive(Default)]
struct Flat {
    pats: Vec<Pat>,
    formulas: Vec<Formula>,
}

impl Flat {
    fn fact(&mut self, fact: FactPat) {
        self.pats.extend(fact.model);
        self.pats.push(fact.pred);
        match fact.args {
            ArgsPat::Fixed(items) => self.pats.extend(items),
            ArgsPat::HeadTail(items, tail) => {
                self.pats.extend(items);
                self.pats.push(tail);
            }
            ArgsPat::Whole(p) => self.pats.push(p),
        }
        match fact.space {
            SpaceQual::Any => {}
            SpaceQual::At(p) => self.pats.push(p),
            SpaceQual::AreaUniform { res, at }
            | SpaceQual::AreaSampled { res, at }
            | SpaceQual::AreaAveraged { res, at } => self.pats.extend([res, at]),
        }
        match fact.time {
            TimeQual::Any | TimeQual::Now => {}
            TimeQual::At(p) => self.pats.push(p),
            TimeQual::IntervalUniform(iv)
            | TimeQual::IntervalSampled(iv)
            | TimeQual::IntervalAveraged(iv) => self.pats.extend([iv.lo, iv.hi]),
            TimeQual::Cyclic { period, interval } => {
                self.pats.extend([period, interval.lo, interval.hi]);
            }
        }
    }

    fn run(mut self) {
        loop {
            if let Some(formula) = self.formulas.pop() {
                match formula {
                    Formula::True => {}
                    Formula::Fact(f) => self.fact(*f),
                    Formula::FuzzyFact(f, accuracy) => {
                        self.fact(*f);
                        self.pats.push(accuracy);
                    }
                    Formula::Raw(p) | Formula::Domain(_, p) => self.pats.push(p),
                    Formula::And(a, b) | Formula::Or(a, b) | Formula::Forall(a, b) => {
                        self.formulas.extend([*a, *b]);
                    }
                    Formula::Not(f) => self.formulas.push(*f),
                    Formula::Cmp(_, a, b) | Formula::Unify(a, b) | Formula::Is(a, b) => {
                        self.pats.extend([a, b]);
                    }
                    Formula::Card(f, p) => {
                        self.formulas.push(*f);
                        self.pats.push(p);
                    }
                    Formula::Agg(_, p, f, result) => {
                        self.formulas.push(*f);
                        self.pats.extend([p, result]);
                    }
                }
            } else if let Some(pat) = self.pats.pop() {
                if let Pat::Compound(_, args) = pat {
                    self.pats.extend(args);
                }
            } else {
                return;
            }
        }
    }
}
