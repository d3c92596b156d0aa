//! The term language.
//!
//! Terms are the single data representation shared by facts, rules, goals,
//! and semantic-domain values. The representation favors cheap cloning —
//! compound argument lists live behind `Arc` — because the solver copies
//! (sub)terms whenever it instantiates a stored clause.

use std::fmt;
use std::sync::Arc;

use crate::symbol::{symbols, Sym};

/// A logic variable, identified by a dense index into a [`crate::BindStore`].
///
/// Clauses are *stored* with variables numbered `0..n_vars`; the solver
/// renames them apart by offsetting into freshly allocated binding slots at
/// activation time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}", self.0)
    }
}

/// A total-ordered, hashable `f64` wrapper.
///
/// Semantic domains (temperature, elevation, accuracy, coordinates) are
/// real-valued, but terms must be `Eq`/`Hash` for indexing. NaN is rejected
/// at construction so the `Eq` impl is sound.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct F64(f64);

impl F64 {
    /// Wrap a float. Panics on NaN — NaN never arises from the engine's own
    /// arithmetic (division by zero is reported as an error instead) and is
    /// rejected at the API boundary.
    pub fn new(v: f64) -> F64 {
        assert!(!v.is_nan(), "NaN is not a valid term value");
        F64(v)
    }

    /// Checked constructor: returns `None` for NaN.
    pub fn try_new(v: f64) -> Option<F64> {
        if v.is_nan() {
            None
        } else {
            Some(F64(v))
        }
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: NaN is excluded by construction.
        self.0
            .partial_cmp(&other.0)
            .expect("NaN excluded by construction")
    }
}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 to 0.0 so that values comparing equal hash equal.
        let v = if self.0 == 0.0 { 0.0f64 } else { self.0 };
        v.to_bits().hash(state);
    }
}

impl fmt::Debug for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

/// A first-order term.
// `PartialEq` is written out below, as the derived equality with the last
// argument compared in a loop; `Hash` stays derived and agrees with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, Hash)]
pub enum Term {
    /// An unbound-or-bound logic variable (resolved through the bind store).
    Var(Var),
    /// An interned constant symbol, e.g. `saint_louis`.
    Atom(Sym),
    /// A 64-bit integer, e.g. a population count.
    Int(i64),
    /// A finite 64-bit float, e.g. a coordinate or an accuracy in `[0,1]`.
    Float(F64),
    /// An immutable string value (used for labels and identifiers supplied
    /// by data generators; unlike atoms, not interned).
    Str(Arc<str>),
    /// A compound term `f(t1, …, tn)` with `n ≥ 1`.
    Compound(Sym, Arc<[Term]>),
}

impl PartialEq for Term {
    /// Structural equality, the one `derive` would give, but with the last
    /// argument of each compound compared in a loop rather than by
    /// recursion, so a list (or any chain nested in last arguments) costs
    /// no stack however long. Shared argument lists compare equal at once.
    fn eq(&self, other: &Term) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            match (a, b) {
                (Term::Var(x), Term::Var(y)) => return x == y,
                (Term::Atom(x), Term::Atom(y)) => return x == y,
                (Term::Int(x), Term::Int(y)) => return x == y,
                (Term::Float(x), Term::Float(y)) => return x == y,
                (Term::Str(x), Term::Str(y)) => return x == y,
                (Term::Compound(f, xs), Term::Compound(g, ys)) => {
                    if f != g || xs.len() != ys.len() {
                        return false;
                    }
                    if Arc::ptr_eq(xs, ys) {
                        return true;
                    }
                    let (Some((x, xs)), Some((y, ys))) = (xs.split_last(), ys.split_last()) else {
                        return true;
                    };
                    if xs != ys {
                        return false;
                    }
                    (a, b) = (x, y);
                }
                _ => return false,
            }
        }
    }
}

impl Term {
    /// Construct an atom.
    pub fn atom(name: &str) -> Term {
        Term::Atom(Sym::new(name))
    }

    /// Construct a variable term.
    pub fn var(id: u32) -> Term {
        Term::Var(Var(id))
    }

    /// Construct an integer term.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Construct a float term. Panics on NaN.
    pub fn float(v: f64) -> Term {
        Term::Float(F64::new(v))
    }

    /// Construct a string term.
    pub fn str(s: &str) -> Term {
        Term::Str(Arc::from(s))
    }

    /// Construct a compound term from a functor name and arguments.
    ///
    /// With zero arguments this degenerates to an atom, mirroring Prolog,
    /// so `Term::pred("now", vec![])` is the atom `now`.
    pub fn pred(functor: &str, args: Vec<Term>) -> Term {
        Term::compound(Sym::new(functor), args)
    }

    /// Construct a compound term from an interned functor and arguments.
    pub fn compound(functor: Sym, args: Vec<Term>) -> Term {
        if args.is_empty() {
            Term::Atom(functor)
        } else {
            Term::Compound(functor, args.into())
        }
    }

    /// The empty list `[]`.
    pub fn nil() -> Term {
        Term::Atom(symbols::nil())
    }

    /// The list cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::Compound(symbols::cons(), Arc::from(vec![head, tail]))
    }

    /// Build a proper list from items.
    pub fn list(items: Vec<Term>) -> Term {
        items
            .into_iter()
            .rev()
            .fold(Term::nil(), |tail, head| Term::cons(head, tail))
    }

    /// Conjunction `(a , b)`.
    pub fn and(a: Term, b: Term) -> Term {
        Term::Compound(symbols::and(), Arc::from(vec![a, b]))
    }

    /// Right-nested conjunction of all goals; `true` when empty.
    pub fn conj(goals: Vec<Term>) -> Term {
        let mut it = goals.into_iter().rev();
        match it.next() {
            None => Term::Atom(symbols::true_()),
            Some(last) => it.fold(last, |acc, g| Term::and(g, acc)),
        }
    }

    /// Disjunction `(a ; b)`.
    pub fn or(a: Term, b: Term) -> Term {
        Term::Compound(symbols::or(), Arc::from(vec![a, b]))
    }

    /// Negation as failure `not(g)` — the paper's `not` operator: "a test
    /// that a formula may not be shown to be true" (§III.A), not logical
    /// negation.
    #[allow(clippy::should_implement_trait)] // `not/1` is the formalism's name
    pub fn not(g: Term) -> Term {
        Term::Compound(symbols::not(), Arc::from(vec![g]))
    }

    /// Existentially-closed negation `absent(g)`: succeeds iff *no instance*
    /// of `g` is derivable. Unlike [`Term::not`], unbound variables in `g`
    /// are read as existentially quantified inside the negation, so the goal
    /// need not be ground. This is the explicit closed-world test that
    /// assumption meta-models (e.g. the continuity assumption, §VI.B) use to
    /// scan an assertion history for conflicting entries.
    pub fn absent(g: Term) -> Term {
        Term::Compound(symbols::absent(), Arc::from(vec![g]))
    }

    /// Bounded universal quantification `forall(cond, then)`: every solution
    /// of `cond` must satisfy `then`. This is the `∀Xj:(F2 → F3)` production
    /// of the paper's formula grammar (§III.A).
    pub fn forall(cond: Term, then: Term) -> Term {
        Term::Compound(symbols::forall(), Arc::from(vec![cond, then]))
    }

    /// Unification goal `a = b`.
    pub fn unify(a: Term, b: Term) -> Term {
        Term::Compound(symbols::unify(), Arc::from(vec![a, b]))
    }

    /// The functor symbol of an atom or compound.
    pub fn functor(&self) -> Option<Sym> {
        match self {
            Term::Atom(s) => Some(*s),
            Term::Compound(s, _) => Some(*s),
            _ => None,
        }
    }

    /// Arity: 0 for atoms, `n` for compounds, `None` for non-callables.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Term::Atom(_) => Some(0),
            Term::Compound(_, args) => Some(args.len()),
            _ => None,
        }
    }

    /// Arguments of a compound (empty slice for atoms).
    pub fn args(&self) -> &[Term] {
        match self {
            Term::Compound(_, args) => args,
            _ => &[],
        }
    }

    /// True if the term contains no variables at all. The last argument
    /// is walked in a loop, not by recursion, as in [`Term::max_var`].
    pub fn is_ground(&self) -> bool {
        let mut t = self;
        loop {
            match t {
                Term::Var(_) => return false,
                Term::Compound(_, args) => match args.split_last() {
                    Some((last, rest)) => {
                        if !rest.iter().all(Term::is_ground) {
                            return false;
                        }
                        t = last;
                    }
                    None => return true,
                },
                _ => return true,
            }
        }
    }

    /// The largest variable index occurring in the term, if any. The last
    /// argument is walked in a loop, not by recursion, so a list (or any
    /// chain nested in last arguments) costs no stack however long.
    pub fn max_var(&self) -> Option<u32> {
        let mut max = None;
        let mut t = self;
        loop {
            match t {
                Term::Var(v) => return max.max(Some(v.0)),
                Term::Compound(_, args) => match args.split_last() {
                    Some((last, rest)) => {
                        for arg in rest {
                            max = max.max(arg.max_var());
                        }
                        t = last;
                    }
                    None => return max,
                },
                _ => return max,
            }
        }
    }

    /// Collect the distinct variables of the term in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        fn walk(t: &Term, out: &mut Vec<Var>) {
            match t {
                Term::Var(v) if !out.contains(v) => {
                    out.push(*v);
                }
                Term::Compound(_, args) => {
                    for a in args.iter() {
                        walk(a, out);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Rewrite every variable `Var(i)` to `Var(i + offset)`.
    ///
    /// This is the renaming-apart step performed when a stored clause (whose
    /// variables are numbered from zero) is activated against a live store.
    pub fn offset_vars(&self, offset: u32) -> Term {
        if offset == 0 {
            return self.clone();
        }
        match self {
            Term::Var(v) => Term::Var(Var(v.0 + offset)),
            Term::Compound(f, args) => {
                // Avoid reallocating ground subterms.
                if args.iter().all(Term::is_ground) {
                    self.clone()
                } else {
                    let new_args: Vec<Term> = args.iter().map(|a| a.offset_vars(offset)).collect();
                    Term::Compound(*f, new_args.into())
                }
            }
            other => other.clone(),
        }
    }

    /// Extract an `f64` from an `Int` or `Float` term.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    /// Extract an `i64` from an `Int` term.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Term::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract the symbol of an atom term.
    pub fn as_atom(&self) -> Option<Sym> {
        match self {
            Term::Atom(s) => Some(*s),
            _ => None,
        }
    }

    /// Total order on ground-or-not terms (the "standard order of terms"):
    /// variables < numbers < atoms < strings < compounds, with compounds
    /// ordered by arity, then functor name, then arguments left to right.
    pub fn order(&self, other: &Term) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Term::*;
        fn rank(t: &Term) -> u8 {
            match t {
                Var(_) => 0,
                Int(_) | Float(_) => 1,
                Atom(_) => 2,
                Str(_) => 3,
                Compound(..) => 4,
            }
        }
        match (self, other) {
            (Var(a), Var(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Int(a), Float(b)) => {
                F64::new(*a as f64).cmp(b).then(Greater) // int after equal float
            }
            (Float(a), Int(b)) => a.cmp(&F64::new(*b as f64)).then(Less),
            (Atom(a), Atom(b)) => a.as_str().cmp(&b.as_str()),
            (Str(a), Str(b)) => a.cmp(b),
            (Compound(f1, a1), Compound(f2, a2)) => a1
                .len()
                .cmp(&a2.len())
                .then_with(|| f1.as_str().cmp(&f2.as_str()))
                .then_with(|| {
                    for (x, y) in a1.iter().zip(a2.iter()) {
                        let o = x.order(y);
                        if o != Equal {
                            return o;
                        }
                    }
                    Equal
                }),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "_{}", v.0),
            Term::Atom(s) => write!(f, "{s}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => {
                let v = x.get();
                if v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Term::Str(s) => write!(f, "{s:?}"),
            Term::Compound(functor, args) => {
                if *functor == symbols::cons() && args.len() == 2 {
                    // Render proper lists as [a, b, c] and improper tails
                    // as [a | T].
                    write!(f, "[")?;
                    let mut head = &args[0];
                    let mut tail = &args[1];
                    loop {
                        write!(f, "{head}")?;
                        match tail {
                            Term::Atom(s) if *s == symbols::nil() => break,
                            Term::Compound(c, rest) if *c == symbols::cons() && rest.len() == 2 => {
                                write!(f, ", ")?;
                                head = &rest[0];
                                tail = &rest[1];
                            }
                            other => {
                                write!(f, " | {other}")?;
                                break;
                            }
                        }
                    }
                    write!(f, "]")
                } else {
                    write!(f, "{functor}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_with_no_args_is_atom() {
        assert_eq!(Term::pred("now", vec![]), Term::atom("now"));
    }

    #[test]
    fn list_display() {
        let l = Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]);
        assert_eq!(l.to_string(), "[1, 2, 3]");
        assert_eq!(Term::nil().to_string(), "[]");
    }

    #[test]
    fn improper_list_display() {
        let l = Term::cons(Term::int(1), Term::var(0));
        assert_eq!(l.to_string(), "[1 | _0]");
    }

    #[test]
    fn conj_of_empty_is_true() {
        assert_eq!(Term::conj(vec![]), Term::atom("true"));
    }

    #[test]
    fn conj_nests_right() {
        let g = Term::conj(vec![Term::atom("a"), Term::atom("b"), Term::atom("c")]);
        assert_eq!(g.to_string(), ",(a, ,(b, c))");
    }

    #[test]
    fn offset_vars_renames_only_vars() {
        let t = Term::pred("f", vec![Term::var(0), Term::atom("x"), Term::var(2)]);
        let shifted = t.offset_vars(10);
        assert_eq!(
            shifted,
            Term::pred("f", vec![Term::var(10), Term::atom("x"), Term::var(12)])
        );
    }

    #[test]
    fn ground_and_max_var() {
        let t = Term::pred("f", vec![Term::var(3), Term::int(1)]);
        assert!(!t.is_ground());
        assert_eq!(t.max_var(), Some(3));
        assert!(Term::pred("f", vec![Term::int(1)]).is_ground());
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let t = Term::pred(
            "f",
            vec![
                Term::var(2),
                Term::pred("g", vec![Term::var(0), Term::var(2)]),
            ],
        );
        assert_eq!(t.variables(), vec![Var(2), Var(0)]);
    }

    #[test]
    fn f64_rejects_nan() {
        assert!(F64::try_new(f64::NAN).is_none());
        assert!(F64::try_new(1.5).is_some());
    }

    #[test]
    fn term_order_is_total_on_samples() {
        use std::cmp::Ordering::*;
        assert_eq!(Term::var(0).order(&Term::int(1)), Less);
        assert_eq!(Term::int(1).order(&Term::atom("a")), Less);
        assert_eq!(Term::atom("a").order(&Term::atom("b")), Less);
        assert_eq!(
            Term::pred("f", vec![Term::int(1)]).order(&Term::pred("f", vec![Term::int(2)])),
            Less
        );
        // Arity dominates functor name.
        assert_eq!(
            Term::pred("z", vec![Term::int(1)])
                .order(&Term::pred("a", vec![Term::int(1), Term::int(2)])),
            Less
        );
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(t: &Term) -> u64 {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Term::float(0.0)), h(&Term::float(-0.0)));
        assert_eq!(Term::float(0.0), Term::float(-0.0));
    }
}
