//! Recursive-descent parser.
//!
//! Grammar sketch (see the module docs of [`crate::token`] for the lexical
//! level):
//!
//! ```text
//! program    := statement*
//! statement  := '#' directive '.' | '?-' formula '.'
//!             | 'constraint' call ':-' formula '.'
//!             | head (':-' formula)? '.'
//! head       := ['%' term] qualifier* call
//! qualifier  := '@' term | '@u[R]' term | '@s[R]' term | '@a[R]' term
//!             | '&' term | '&u' interval | '&s' interval | '&a' interval
//! call       := [atom '\''] atom [ '(' exprs ')' [ '(' exprs ')' ] ]
//! formula    := conj (';' conj)*
//! conj       := unit (',' unit)*
//! unit       := '(' formula ')' | 'not' '(' formula ')'
//!             | 'forall' '(' formula ',' formula ')'
//!             | 'card' '(' formula ',' expr ')'
//!             | ('avg'|'sum'|'min'|'max'|'count') '(' expr ',' formula ',' expr ')'
//!             | 'domain' '(' atom ',' expr ')' | 'true'
//!             | expr cmp expr | qualified call
//! expr       := arithmetic over terms with + - * / // mod
//! ```
//!
//! Known limitation: at formula level a leading `(` always opens a
//! sub*formula*, so write `X + 1 > 2` without wrapping the left-hand side
//! in parentheses.
//!
//! The descent recurses once per nesting level, so the parser counts
//! levels and refuses a statement that nests deeper than
//! [`MAX_NESTING`] with a positioned diagnostic rather than overflow the
//! thread's stack. Lists and operator chains parse in loops; the loader
//! bounds the terms they build ([`gdp_engine::MAX_TERM_DEPTH`]).

use gdp_core::{
    CmpOp, Constraint, DomainDef, FactPat, Formula, IntervalPat, Pat, Rule, Sort, SpaceQual,
    TimeQual,
};

use crate::ast::Statement;
use crate::error::{LangError, LangResult};
use crate::token::{tokenize, Pos, Spanned, Tok};

/// Parse a whole source file into statements. Fails on the first
/// diagnostic; use [`parse_program_diagnostics`] to recover at clause
/// boundaries and collect every diagnostic in one pass.
pub fn parse_program(src: &str) -> LangResult<Vec<Statement>> {
    let (statements, errors) = parse_program_diagnostics(src);
    match errors.into_iter().next() {
        None => Ok(statements.into_iter().map(|(_, s)| s).collect()),
        Some(e) => Err(e),
    }
}

/// Parse a whole source file, recovering at clause boundaries: on a parse
/// error the parser records the diagnostic, skips forward through the
/// next statement terminator (`.`), and resumes, so one malformed
/// statement yields one positioned diagnostic instead of hiding
/// everything after it. Returns every statement that did parse (tagged
/// with the position of its first token) alongside every diagnostic, in
/// source order. Lexical errors are not recoverable (the token stream is
/// unavailable) and yield a single diagnostic.
pub fn parse_program_diagnostics(src: &str) -> (Vec<(Pos, Statement)>, Vec<LangError>) {
    let toks = match tokenize(src) {
        Ok(toks) => toks,
        Err(e) => return (Vec::new(), vec![e]),
    };
    let mut p = Parser::new(toks);
    let mut out = Vec::new();
    let mut errors = Vec::new();
    while !p.at(&Tok::Eof) {
        let start = p.i;
        let pos = p.toks[p.i].pos;
        match p.statement() {
            Ok(stmt) => out.push((pos, stmt)),
            Err(e) => {
                errors.push(e);
                if p.i == start {
                    // The statement consumed nothing; step over the
                    // offending token so recovery always makes progress.
                    p.i += 1;
                }
                // Skip to just past the next statement terminator —
                // unless the failing parse already consumed one (a
                // `bump`-then-reject on the `.` itself), in which case
                // the next statement starts right here.
                if p.toks[p.i - 1].tok != Tok::Dot {
                    while !p.at(&Tok::Eof) {
                        let done = p.at(&Tok::Dot);
                        p.i += 1;
                        if done {
                            break;
                        }
                    }
                }
            }
        }
    }
    (out, errors)
}

/// Parse a single formula (for queries built at runtime); no trailing dot.
pub fn parse_formula(src: &str) -> LangResult<Formula> {
    let toks = tokenize(src)?;
    let mut p = Parser::new(toks);
    let f = p.formula()?;
    p.expect(&Tok::Eof)?;
    Ok(f)
}

/// The most levels one statement may nest in the parser's recursion: a
/// compound's arguments, a parenthesised term or formula, a unary minus,
/// a list inside a term, and the bodies of `not`, `forall`, `card` and
/// the aggregates each open one.
///
/// Sized from a measurement: on a 2 MiB thread an unoptimised build
/// parses (and drops) at most 235 levels of the shape that takes the most
/// stack per level, nested lists `big([[…]]).`; the bound is half of
/// that. The same build reaches 263 levels of nested compounds and 474
/// of `?- not(not(…)).` there (a formula holds its fact pattern boxed),
/// and a `gdp-serve` session thread has 8 MiB.
pub const MAX_NESTING: usize = 117;

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    /// Levels of [`Parser::primary`] and [`Parser::unit`] open now.
    depth: usize,
}

/// Reserved atoms that introduce formula constructs rather than facts.
const RESERVED: &[&str] = &[
    "not", "forall", "card", "avg", "sum", "min", "max", "count", "domain", "true", "is", "mod",
    "raw",
];

/// System predicates — semantic-domain operations and registry lookups —
/// that compile to *raw* engine goals rather than world-view-filtered fact
/// lookups. These are the "operations over semantic-domain values"
/// admitted into formulas by §III.B. For natives not in this list, wrap
/// the goal in `raw(...)`.
const SYSTEM_PREDICATES: &[(&str, usize)] = &[
    // spatial natives (gdp-spatial)
    ("dist", 3),
    ("direction", 3),
    ("rmap", 3),
    ("cell_points", 4),
    ("res_points", 2),
    ("adjacent_cells", 3),
    ("refines", 2),
    ("is_resolution", 1),
    ("size_of", 3),
    ("covered", 3),
    // temporal natives and rules (gdp-temporal)
    ("in_interval", 2),
    ("subinterval", 2),
    ("intervals_overlap", 2),
    ("in_cycle", 3),
    ("t_cell", 3),
    ("past", 1),
    ("present", 1),
    ("future", 1),
    ("now_is", 1),
    // fuzzy (gdp-fuzzy)
    ("unified_acc", 5),
    // engine builtins and registries (gdp-engine / gdp-core)
    ("member", 2),
    ("between", 3),
    ("length", 2),
    ("msort", 2),
    ("sort", 2),
    ("reverse", 2),
    ("nth0", 3),
    ("sum_list", 2),
    ("findall", 3),
    ("is_object", 1),
    ("is_model", 1),
    ("is_pred", 1),
];

impl Parser {
    fn new(toks: Vec<Spanned>) -> Parser {
        Parser {
            toks,
            i: 0,
            depth: 0,
        }
    }

    /// Run `parse` one nesting level down, refusing to go past
    /// [`MAX_NESTING`]. Every recursion of the descent passes through
    /// [`Parser::primary`] or [`Parser::unit`], which both come here.
    fn nested<T>(&mut self, parse: fn(&mut Parser) -> LangResult<T>) -> LangResult<T> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!(
                "the statement nests deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.i + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> LangResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> LangError {
        LangError::Parse {
            pos: self.pos(),
            message: message.into(),
        }
    }

    /// Like [`Self::error`] but positioned at the just-consumed token —
    /// for `bump`-then-reject sites, where the offending token has
    /// already been stepped over.
    fn error_at_prev(&self, message: impl Into<String>) -> LangError {
        LangError::Parse {
            pos: self.toks[self.i.saturating_sub(1)].pos,
            message: message.into(),
        }
    }

    fn atom(&mut self) -> LangResult<String> {
        match self.bump() {
            Tok::Atom(s) => Ok(s),
            other => Err(self.error_at_prev(format!("expected identifier, found `{other}`"))),
        }
    }

    fn number(&mut self) -> LangResult<f64> {
        let negative = matches!(self.peek(), Tok::Op(op) if op == "-");
        if negative {
            self.bump();
        }
        let v = match self.bump() {
            Tok::Int(v) => v as f64,
            Tok::Float(v) => v,
            other => return Err(self.error_at_prev(format!("expected number, found `{other}`"))),
        };
        Ok(if negative { -v } else { v })
    }

    // ----- statements ------------------------------------------------------

    fn statement(&mut self) -> LangResult<Statement> {
        if self.eat(&Tok::Hash) {
            let stmt = self.directive()?;
            self.expect(&Tok::Dot)?;
            return Ok(stmt);
        }
        if self.eat(&Tok::QueryNeck) {
            let f = self.formula()?;
            self.expect(&Tok::Dot)?;
            return Ok(Statement::Query(f));
        }
        if matches!(self.peek(), Tok::Atom(a) if a == "constraint") {
            self.bump();
            let (name, witnesses) = self.plain_call()?;
            self.expect(&Tok::Neck)?;
            let body = self.formula()?;
            self.expect(&Tok::Dot)?;
            let mut c = Constraint::new(&name);
            for w in witnesses {
                c = c.witness(w);
            }
            return Ok(Statement::Constraint(c.when(body)));
        }
        // Fact, fuzzy fact, rule, or fuzzy rule.
        let accuracy = if self.eat(&Tok::Percent) {
            Some(self.primary()?)
        } else {
            None
        };
        let head = self.qualified_fact()?;
        if self.eat(&Tok::Neck) {
            let body = self.formula()?;
            self.expect(&Tok::Dot)?;
            return Ok(match accuracy {
                Some(acc) => Statement::FuzzyRule {
                    head,
                    accuracy: acc,
                    body,
                },
                None => Statement::Rule(Rule::new(head, body)),
            });
        }
        self.expect(&Tok::Dot)?;
        match accuracy {
            Some(Pat::Float(a)) => Ok(Statement::FuzzyFact(head, a)),
            Some(Pat::Int(a)) => Ok(Statement::FuzzyFact(head, a as f64)),
            Some(other) => Err(self.error(format!(
                "a fuzzy fact needs a numeric accuracy, found `{other}`"
            ))),
            None => Ok(Statement::Fact(head)),
        }
    }

    fn directive(&mut self) -> LangResult<Statement> {
        let name = self.atom()?;
        match name.as_str() {
            "domain" => {
                let dname = self.atom()?;
                let def = self.domain_def()?;
                Ok(Statement::Domain { name: dname, def })
            }
            "predicate" => {
                let pname = self.atom()?;
                self.expect(&Tok::LParen)?;
                let mut sorts = Vec::new();
                loop {
                    let s = self.atom()?;
                    sorts.push(match s.as_str() {
                        "object" => Sort::Object,
                        "any" => Sort::Any,
                        domain => Sort::domain(domain),
                    });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(Statement::Predicate { name: pname, sorts })
            }
            "model" => Ok(Statement::Model(self.atom()?)),
            "object" => Ok(Statement::Object(self.atom()?)),
            "world_view" => Ok(Statement::WorldView(self.name_set()?)),
            "meta_view" => Ok(Statement::MetaView(self.name_set()?)),
            "activate" => Ok(Statement::Activate(self.atom()?)),
            "deactivate" => Ok(Statement::Deactivate(self.atom()?)),
            "now" => Ok(Statement::Now(self.number()?)),
            "retract" => Ok(Statement::Retract(self.qualified_fact()?)),
            "grid" => {
                let gname = self.atom()?;
                let shape = self.atom()?;
                if shape != "square" {
                    return Err(self.error(format!("unknown grid shape `{shape}`")));
                }
                self.expect(&Tok::LParen)?;
                let x0 = self.number()?;
                self.expect(&Tok::Comma)?;
                let y0 = self.number()?;
                self.expect(&Tok::Comma)?;
                let cell = self.number()?;
                self.expect(&Tok::Comma)?;
                let nx = self.number()? as u32;
                self.expect(&Tok::Comma)?;
                let ny = self.number()? as u32;
                self.expect(&Tok::RParen)?;
                Ok(Statement::Grid {
                    name: gname,
                    x0,
                    y0,
                    cell,
                    nx,
                    ny,
                })
            }
            other => Err(self.error(format!("unknown directive `#{other}`"))),
        }
    }

    fn domain_def(&mut self) -> LangResult<DomainDef> {
        if self.eat(&Tok::LBrace) {
            let mut items = Vec::new();
            loop {
                items.push(self.atom()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
            return Ok(DomainDef::Enumerated(items));
        }
        let kind = self.atom()?;
        match kind.as_str() {
            "float" => {
                self.expect(&Tok::LParen)?;
                let min = self.number()?;
                self.expect(&Tok::Comma)?;
                let max = self.number()?;
                self.expect(&Tok::RParen)?;
                Ok(DomainDef::FloatRange { min, max })
            }
            "int" => {
                self.expect(&Tok::LParen)?;
                let min = self.number()? as i64;
                self.expect(&Tok::Comma)?;
                let max = self.number()? as i64;
                self.expect(&Tok::RParen)?;
                Ok(DomainDef::IntRange { min, max })
            }
            "number" => Ok(DomainDef::AnyNumber),
            "atom" => Ok(DomainDef::AnyAtom),
            "any" => Ok(DomainDef::AnyGround),
            other => Err(self.error(format!("unknown domain kind `{other}`"))),
        }
    }

    fn name_set(&mut self) -> LangResult<Vec<String>> {
        self.expect(&Tok::LBrace)?;
        let mut names = Vec::new();
        if !self.at(&Tok::RBrace) {
            loop {
                names.push(self.atom()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(names)
    }

    // ----- facts and qualifiers ---------------------------------------------

    /// `name(args)(args)` — returns name and concatenated args.
    fn plain_call(&mut self) -> LangResult<(String, Vec<Pat>)> {
        let name = self.atom()?;
        let mut args = Vec::new();
        if self.at(&Tok::LParen) {
            args.extend(self.paren_args()?);
            // The paper's `q(values)(objects)` split: a second argument
            // group is concatenated.
            if self.at(&Tok::LParen) {
                args.extend(self.paren_args()?);
            }
        }
        Ok((name, args))
    }

    fn paren_args(&mut self) -> LangResult<Vec<Pat>> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    /// A fact with optional spatial/temporal/model qualifiers (the fuzzy
    /// prefix is handled by the caller, which knows whether it is legal).
    fn qualified_fact(&mut self) -> LangResult<FactPat> {
        let mut space = SpaceQual::Any;
        let mut time = TimeQual::Any;
        loop {
            match self.peek().clone() {
                Tok::At => {
                    self.bump();
                    space = SpaceQual::At(self.primary()?);
                }
                Tok::AtU | Tok::AtS | Tok::AtA => {
                    let op = self.bump();
                    self.expect(&Tok::LBracket)?;
                    let res = self.primary()?;
                    self.expect(&Tok::RBracket)?;
                    let at = self.primary()?;
                    space = match op {
                        Tok::AtU => SpaceQual::AreaUniform { res, at },
                        Tok::AtS => SpaceQual::AreaSampled { res, at },
                        _ => SpaceQual::AreaAveraged { res, at },
                    };
                }
                Tok::Amp => {
                    self.bump();
                    let t = self.primary()?;
                    time = if t == Pat::Atom("now".into()) {
                        TimeQual::Now
                    } else {
                        TimeQual::At(t)
                    };
                }
                Tok::AmpU | Tok::AmpS | Tok::AmpA => {
                    let op = self.bump();
                    let iv = self.interval()?;
                    time = match op {
                        Tok::AmpU => TimeQual::IntervalUniform(iv),
                        Tok::AmpS => TimeQual::IntervalSampled(iv),
                        _ => TimeQual::IntervalAveraged(iv),
                    };
                }
                _ => break,
            }
        }
        // Optional model qualifier `m'`.
        let model = if matches!(self.peek(), Tok::Atom(_)) && self.peek2() == &Tok::Quote {
            let m = self.atom()?;
            self.expect(&Tok::Quote)?;
            Some(m)
        } else {
            None
        };
        let (name, args) = self.plain_call()?;
        let mut fact = FactPat::new(&name).args(args).space(space).time(time);
        if let Some(m) = model {
            fact = fact.model(Pat::Atom(m));
        }
        Ok(fact)
    }

    fn interval(&mut self) -> LangResult<IntervalPat> {
        let lo_closed = match self.bump() {
            Tok::LBracket => true,
            Tok::LParen => false,
            other => {
                return Err(self.error_at_prev(format!("expected `[` or `(`, found `{other}`")))
            }
        };
        let lo = self.expr()?;
        self.expect(&Tok::Comma)?;
        let hi = self.expr()?;
        let hi_closed = match self.bump() {
            Tok::RBracket => true,
            Tok::RParen => false,
            other => {
                return Err(self.error_at_prev(format!("expected `]` or `)`, found `{other}`")))
            }
        };
        Ok(IntervalPat {
            lo,
            hi,
            lo_closed,
            hi_closed,
        })
    }

    // ----- formulas ---------------------------------------------------------

    // The functions a nested formula recurses through collect their
    // operands and join them elsewhere ([`fold_left`]), which keeps the
    // frame each nesting level adds to the stack small.

    fn formula(&mut self) -> LangResult<Formula> {
        let mut disjuncts = Vec::new();
        loop {
            disjuncts.push(self.conjunction()?);
            if !self.eat(&Tok::Semicolon) {
                return Ok(fold_left(disjuncts, Formula::or));
            }
        }
    }

    /// A formula in *argument* position (inside `forall(…)`, `card(…)`,
    /// aggregates): a single unit, mirroring Prolog's priority-999
    /// arguments — wrap conjunctions/disjunctions in parentheses.
    fn formula_arg(&mut self) -> LangResult<Formula> {
        self.unit()
    }

    fn conjunction(&mut self) -> LangResult<Formula> {
        let mut units = Vec::new();
        loop {
            units.push(self.unit()?);
            if !self.eat(&Tok::Comma) {
                return Ok(fold_left(units, Formula::and));
            }
        }
    }

    fn unit(&mut self) -> LangResult<Formula> {
        self.nested(Parser::unit_at_depth)
    }

    /// One formula unit. Kept to a dispatch on the next token, so that the
    /// frame every nested formula adds to the stack stays small: each
    /// construct parses in a function of its own.
    fn unit_at_depth(&mut self) -> LangResult<Formula> {
        let word = match self.peek() {
            Tok::LParen => return self.parenthesized(),
            Tok::Percent => return self.fuzzy_reference(),
            Tok::At
            | Tok::AtU
            | Tok::AtS
            | Tok::AtA
            | Tok::Amp
            | Tok::AmpU
            | Tok::AmpS
            | Tok::AmpA => return self.qualified_unit(),
            Tok::Atom(word) => word.clone(),
            _ => return self.comparison(),
        };
        match word.as_str() {
            "true" => {
                self.bump();
                Ok(Formula::True)
            }
            "not" => self.negation(),
            "forall" => self.forall(),
            "card" => self.card(),
            "avg" | "sum" | "min" | "max" | "count" => self.aggregate(&word),
            "domain" => self.domain_test(),
            // Explicit raw goal: `raw(native(X, Y))`.
            "raw" if self.peek2() == &Tok::LParen => self.raw_goal(),
            // Any other reserved word can only start a comparison.
            _ if RESERVED.contains(&word.as_str()) => self.comparison(),
            _ => self.fact_or_comparison(),
        }
    }

    /// Parenthesized subformula.
    fn parenthesized(&mut self) -> LangResult<Formula> {
        self.bump();
        let f = self.formula()?;
        self.expect(&Tok::RParen)?;
        Ok(f)
    }

    /// Fuzzy-qualified fact reference `%A fact`.
    fn fuzzy_reference(&mut self) -> LangResult<Formula> {
        self.bump();
        let acc = self.primary()?;
        let fact = self.qualified_fact()?;
        Ok(Formula::fuzzy_fact(fact, acc))
    }

    /// Qualifier-prefixed fact.
    fn qualified_unit(&mut self) -> LangResult<Formula> {
        Ok(Formula::fact(self.qualified_fact()?))
    }

    fn negation(&mut self) -> LangResult<Formula> {
        self.bump();
        self.expect(&Tok::LParen)?;
        let inner = self.formula()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::not(inner))
    }

    fn forall(&mut self) -> LangResult<Formula> {
        self.bump();
        self.expect(&Tok::LParen)?;
        let cond = self.formula_arg()?;
        self.expect(&Tok::Comma)?;
        let then = self.formula_arg()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::forall(cond, then))
    }

    fn card(&mut self) -> LangResult<Formula> {
        self.bump();
        self.expect(&Tok::LParen)?;
        let inner = self.formula_arg()?;
        self.expect(&Tok::Comma)?;
        let n = self.expr()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::Card(Box::new(inner), n))
    }

    fn aggregate(&mut self, name: &str) -> LangResult<Formula> {
        let op = match name {
            "avg" => gdp_core::AggOp::Avg,
            "sum" => gdp_core::AggOp::Sum,
            "min" => gdp_core::AggOp::Min,
            "max" => gdp_core::AggOp::Max,
            _ => gdp_core::AggOp::Count,
        };
        self.bump();
        self.expect(&Tok::LParen)?;
        let template = self.expr()?;
        self.expect(&Tok::Comma)?;
        let inner = self.formula_arg()?;
        self.expect(&Tok::Comma)?;
        let result = self.expr()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::Agg(op, template, Box::new(inner), result))
    }

    fn domain_test(&mut self) -> LangResult<Formula> {
        self.bump();
        self.expect(&Tok::LParen)?;
        let dname = self.atom()?;
        self.expect(&Tok::Comma)?;
        let value = self.expr()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::Domain(dname, value))
    }

    fn raw_goal(&mut self) -> LangResult<Formula> {
        self.bump();
        self.expect(&Tok::LParen)?;
        let goal = self.expr()?;
        self.expect(&Tok::RParen)?;
        Ok(Formula::Raw(goal))
    }

    /// A fact (optionally model-qualified), or the left side of a
    /// comparison written as a call.
    fn fact_or_comparison(&mut self) -> LangResult<Formula> {
        let fact = self.qualified_fact()?;
        // System predicates are engine goals, not reified facts —
        // unless the user qualified them (which forces fact reading).
        if fact.space == SpaceQual::Any && fact.time == TimeQual::Any && fact.model.is_none() {
            if let (Some(name), Some(arity)) = (fact.pred_name(), fact.fixed_arity()) {
                if SYSTEM_PREDICATES.contains(&(name.as_str(), arity)) {
                    let args = fact.fixed_args().expect("fixed arity implies fixed args");
                    return Ok(Formula::Raw(Pat::app(&name, args.to_vec())));
                }
            }
        }
        // An atom/call followed by an operator is really a term
        // comparison (e.g. `f(X) = Y`), rebuilt from the fact parts.
        if self.peek_cmp().is_some() {
            let lhs = match fact.fixed_args() {
                Some([]) => Pat::Atom(fact.pred_name().expect("plain call has a name")),
                Some(args) => Pat::app(
                    &fact.pred_name().expect("plain call has a name"),
                    args.to_vec(),
                ),
                None => return Err(self.error("bad comparison left-hand side")),
            };
            return self.finish_comparison(lhs);
        }
        Ok(Formula::fact(fact))
    }

    /// A comparison whose left side is not a call.
    fn comparison(&mut self) -> LangResult<Formula> {
        let lhs = self.expr()?;
        self.finish_comparison(lhs)
    }

    fn peek_cmp(&self) -> Option<String> {
        match self.peek() {
            Tok::Op(op) if !matches!(op.as_str(), "+" | "-" | "*" | "/" | "//") => Some(op.clone()),
            Tok::Atom(a) if a == "is" => Some("is".into()),
            _ => None,
        }
    }

    fn finish_comparison(&mut self, lhs: Pat) -> LangResult<Formula> {
        let Some(op) = self.peek_cmp() else {
            return Err(self.error(format!(
                "expected comparison operator, found `{}`",
                self.peek()
            )));
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(match op.as_str() {
            "<" => Formula::Cmp(CmpOp::Lt, lhs, rhs),
            "=<" => Formula::Cmp(CmpOp::Le, lhs, rhs),
            ">" => Formula::Cmp(CmpOp::Gt, lhs, rhs),
            ">=" => Formula::Cmp(CmpOp::Ge, lhs, rhs),
            "=:=" => Formula::Cmp(CmpOp::NumEq, lhs, rhs),
            "=\\=" => Formula::Cmp(CmpOp::NumNe, lhs, rhs),
            "\\=" => Formula::Cmp(CmpOp::NotUnify, lhs, rhs),
            "=" => Formula::Unify(lhs, rhs),
            "is" => Formula::Is(lhs, rhs),
            "==" => Formula::Raw(Pat::app("==", vec![lhs, rhs])),
            "\\==" => Formula::Raw(Pat::app("\\==", vec![lhs, rhs])),
            "=.." => Formula::Raw(Pat::app("=..", vec![lhs, rhs])),
            other => return Err(self.error(format!("unknown operator `{other}`"))),
        })
    }

    // ----- terms / arithmetic ------------------------------------------------

    fn expr(&mut self) -> LangResult<Pat> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Op(op) if op == "+" || op == "-" => op.clone(),
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Pat::app(&op, vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> LangResult<Pat> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek() {
                Tok::Op(op) if op == "*" || op == "/" || op == "//" => op.clone(),
                Tok::Atom(a) if a == "mod" => "mod".to_string(),
                _ => break,
            };
            self.bump();
            let rhs = self.primary()?;
            lhs = Pat::app(&op, vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> LangResult<Pat> {
        self.nested(Parser::primary_at_depth)
    }

    fn primary_at_depth(&mut self) -> LangResult<Pat> {
        match self.bump() {
            Tok::Var(name) => Ok(if name == "_" {
                Pat::Wild
            } else {
                Pat::Var(name)
            }),
            Tok::Int(v) => Ok(Pat::Int(v)),
            Tok::Float(v) => Ok(Pat::Float(v)),
            Tok::Str(s) => Ok(Pat::Str(s)),
            Tok::Op(op) if op == "-" => {
                let inner = self.primary()?;
                Ok(match inner {
                    Pat::Int(v) => Pat::Int(-v),
                    Pat::Float(v) => Pat::Float(-v),
                    other => Pat::app("-", vec![other]),
                })
            }
            Tok::Atom(name) => {
                if self.at(&Tok::LParen) {
                    let args = self.paren_args()?;
                    Ok(Pat::app(&name, args))
                } else {
                    Ok(Pat::Atom(name))
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => self.list(),
            other => Err(self.error_at_prev(format!("expected term, found `{other}`"))),
        }
    }

    fn list(&mut self) -> LangResult<Pat> {
        // `[` already consumed.
        if self.eat(&Tok::RBracket) {
            return Ok(Pat::Term(gdp_engine::Term::nil()));
        }
        let mut items = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            items.push(self.expr()?);
        }
        let tail = if self.eat(&Tok::Pipe) {
            self.expr()?
        } else {
            Pat::Term(gdp_engine::Term::nil())
        };
        self.expect(&Tok::RBracket)?;
        Ok(items
            .into_iter()
            .rev()
            .fold(tail, |acc, item| Pat::app(".", vec![item, acc])))
    }
}

/// Join `items` (at least one) from the left: `a, b, c` is `(a, b), c`.
fn fold_left(items: Vec<Formula>, join: fn(Formula, Formula) -> Formula) -> Formula {
    let mut items = items.into_iter();
    let first = items.next().expect("a formula has at least one operand");
    items.fold(first, join)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Statement {
        let mut stmts = parse_program(src).unwrap();
        assert_eq!(stmts.len(), 1, "expected one statement");
        stmts.pop().unwrap()
    }

    #[test]
    fn basic_fact() {
        match one("road(s1).") {
            Statement::Fact(f) => {
                assert_eq!(f.pred_name().as_deref(), Some("road"));
                assert_eq!(f.fixed_arity(), Some(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn value_object_split_concatenates() {
        match one("average_temperature(50)(saint_louis).") {
            Statement::Fact(f) => {
                assert_eq!(f.fixed_arity(), Some(2));
                assert_eq!(f.fixed_args().unwrap()[0], Pat::Int(50));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_qualified_fact() {
        match one("celsius'freezing_point(0)(x).") {
            Statement::Fact(f) => {
                assert_eq!(f.model, Some(Pat::Atom("celsius".into())));
                assert_eq!(f.pred_name().as_deref(), Some("freezing_point"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn open_road_rule() {
        match one("open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).") {
            Statement::Rule(r) => {
                assert_eq!(r.head.pred_name().as_deref(), Some("open_road"));
                assert!(matches!(r.body, Formula::And(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn naf_and_disjunction() {
        match one("known(X) :- bridge(X), (open(X) ; closed(X)), not(suspect(X)).") {
            Statement::Rule(r) => {
                let s = format!("{:?}", r.body);
                assert!(s.contains("Or"));
                assert!(s.contains("Not"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparisons_and_arithmetic() {
        match one("large_city(X) :- population(N)(X), N > 1000000.") {
            Statement::Rule(r) => {
                let s = format!("{:?}", r.body);
                assert!(s.contains("Gt"));
            }
            other => panic!("{other:?}"),
        }
        match one("double(X, Y) :- p(X), Y is X * 2 + 1.") {
            Statement::Rule(r) => {
                let s = format!("{:?}", r.body);
                assert!(s.contains("Is"));
                assert!(s.contains('*'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spatial_qualifiers() {
        match one("@ pt(3.0, 4.0) vegetation(pine)(hill).") {
            Statement::Fact(f) => assert!(matches!(f.space, SpaceQual::At(_))),
            other => panic!("{other:?}"),
        }
        match one("@u[r1] pt(5.0, 5.0) zone(wetland).") {
            Statement::Fact(f) => {
                assert!(matches!(f.space, SpaceQual::AreaUniform { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn temporal_qualifiers() {
        match one("&u[1970, 1980) open(b1).") {
            Statement::Fact(f) => match &f.time {
                TimeQual::IntervalUniform(iv) => {
                    assert!(iv.lo_closed);
                    assert!(!iv.hi_closed);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match one("&now capital(jc).") {
            Statement::Fact(f) => assert_eq!(f.time, TimeQual::Now),
            other => panic!("{other:?}"),
        }
        match one("& 1971 sighting(eagle).") {
            Statement::Fact(f) => assert_eq!(f.time, TimeQual::At(Pat::Int(1971))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuzzy_fact_and_rule() {
        match one("%0.85 clarity(image).") {
            Statement::FuzzyFact(f, a) => {
                assert_eq!(f.pred_name().as_deref(), Some("clarity"));
                assert_eq!(a, 0.85);
            }
            other => panic!("{other:?}"),
        }
        match one("%A coverage(region) :- card(surveyed(C), N), A is N / 10.") {
            Statement::FuzzyRule { accuracy, .. } => {
                assert_eq!(accuracy, Pat::Var("A".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuzzy_body_reference() {
        match one("usable(X) :- %A clarity(X), A > 0.8.") {
            Statement::Rule(r) => {
                let s = format!("{:?}", r.body);
                assert!(s.contains("FuzzyFact"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constraint_statement() {
        match one("constraint two_capitals(Z) :- capital_of(X, Z), capital_of(Y, Z), X \\= Y.") {
            Statement::Constraint(c) => {
                assert_eq!(c.error_type, "two_capitals");
                assert_eq!(c.witnesses.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn directives() {
        assert!(matches!(
            one("#domain temperature float(-100, 200)."),
            Statement::Domain { .. }
        ));
        assert!(matches!(
            one("#domain zone { pine, oak }."),
            Statement::Domain {
                def: DomainDef::Enumerated(_),
                ..
            }
        ));
        match one("#predicate average_temperature(temperature, object).") {
            Statement::Predicate { sorts, .. } => {
                assert_eq!(sorts, vec![Sort::domain("temperature"), Sort::Object]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(one("#model celsius."), Statement::Model(_)));
        match one("#world_view { omega, celsius }.") {
            Statement::WorldView(ms) => assert_eq!(ms, vec!["omega", "celsius"]),
            other => panic!("{other:?}"),
        }
        match one("#grid r1 square(0, 0, 10, 4, 4).") {
            Statement::Grid { name, cell, nx, .. } => {
                assert_eq!(name, "r1");
                assert_eq!(cell, 10.0);
                assert_eq!(nx, 4);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(one("#now 1990."), Statement::Now(_)));
        assert!(matches!(
            one("#activate spatial_simple."),
            Statement::Activate(_)
        ));
    }

    #[test]
    fn queries() {
        match one("?- open_road(X).") {
            Statement::Query(Formula::Fact(f)) => {
                assert_eq!(f.pred_name().as_deref(), Some("open_road"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lists_parse() {
        match one("p([1, 2 | T]).") {
            Statement::Fact(f) => {
                let s = format!("{}", f.fixed_args().unwrap()[0]);
                assert!(s.contains('1') && s.contains('2'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_and_card() {
        let stmt = one("avg_elev(X, A) :- avg(Z, elevation(Z)(X), A).");
        match stmt {
            Statement::Rule(r) => assert!(matches!(r.body, Formula::Agg(..))),
            other => panic!("{other:?}"),
        }
        let stmt = one("n_white(N) :- card(@ P white(image), N).");
        match stmt {
            Statement::Rule(r) => assert!(matches!(r.body, Formula::Card(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_statements() {
        let stmts =
            parse_program("road(s1). road(s2).\nroad_intersection(s1, s2).\n?- road(X).").unwrap();
        assert_eq!(stmts.len(), 4);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("road(s1)\nroad(s2).").unwrap_err();
        match err {
            LangError::Parse { pos, .. } => assert_eq!(pos.line, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_formula_entry_point() {
        let f = parse_formula("road(X), not(closed(X))").unwrap();
        assert!(matches!(f, Formula::And(..)));
    }

    /// `f` number k of the argument nests k levels down, and `a` one more.
    /// Past the bound the parser stops at the token that would nest
    /// deeper and goes on with the next statement.
    #[test]
    fn nesting_past_the_bound_is_a_positioned_error() {
        let fact = |n: usize| format!("big({}a{}).", "f(".repeat(n), ")".repeat(n));
        assert!(parse_program(&fact(MAX_NESTING - 1)).is_ok());
        let (statements, errors) =
            parse_program_diagnostics(&format!("{}\nok.", fact(MAX_NESTING)));
        assert_eq!(statements.len(), 1);
        assert_eq!(
            errors[..],
            [LangError::Parse {
                pos: Pos {
                    line: 1,
                    col: 5 + 2 * MAX_NESTING as u32,
                },
                message: format!("the statement nests deeper than {MAX_NESTING} levels"),
            }]
        );
        // Formulas count the same way: `true` sits one level below the
        // innermost `not`.
        let negations = |n: usize| format!("{}true{}", "not(".repeat(n), ")".repeat(n));
        assert!(parse_formula(&negations(MAX_NESTING - 1)).is_ok());
        assert!(parse_formula(&negations(MAX_NESTING)).is_err());
    }
}
