//! Bindings, trail, and unification.
//!
//! The [`BindStore`] maps variable indices to optional terms and records
//! every binding on a trail so backtracking can undo exactly the bindings
//! made since a choice point. Unification is iterative (explicit work
//! stack) so adversarially deep terms cannot overflow the host stack.

use crate::symbol::Sym;
use crate::term::{Term, Var};

/// Variable bindings plus the undo trail.
#[derive(Debug, Default)]
pub struct BindStore {
    slots: Vec<Option<Term>>,
    trail: Vec<Var>,
    /// When true, unification performs the occurs check, rejecting cyclic
    /// bindings like `X = f(X)`. Off by default (like Prolog) because the
    /// formalism's range-restricted rules never create cycles; switchable
    /// for property tests and debugging.
    pub occurs_check: bool,
}

/// A point on the trail to undo back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrailMark(usize);

impl BindStore {
    /// Empty store.
    pub fn new() -> BindStore {
        BindStore::default()
    }

    /// Number of allocated variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no variable slot has been allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocate `n` fresh unbound variables, returning the index of the
    /// first. Used to rename a stored clause (variables `0..n`) apart.
    pub fn alloc_block(&mut self, n: u32) -> u32 {
        let base = self.slots.len() as u32;
        self.slots
            .extend(std::iter::repeat_with(|| None).take(n as usize));
        base
    }

    /// Ensure slots exist for every variable index `<= max`.
    pub fn ensure(&mut self, max: u32) {
        if (max as usize) >= self.slots.len() {
            self.slots.resize((max + 1) as usize, None);
        }
    }

    /// Ensure at least `len` slots exist. Unlike [`BindStore::ensure`]
    /// this takes a slot *count*, not a maximum index, so it is safe to
    /// call with the length of another (possibly empty) store — no
    /// `len - 1` underflow.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.slots.len() {
            self.slots.resize(len, None);
        }
    }

    /// Current trail position.
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Undo all bindings made since `mark`.
    pub fn undo_to(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.0 {
            let v = self.trail.pop().expect("trail underflow");
            self.slots[v.0 as usize] = None;
        }
    }

    /// Bind `v` (which must be unbound) to `t`, recording it on the trail.
    fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(self.slots[v.0 as usize].is_none(), "rebinding bound var");
        self.slots[v.0 as usize] = Some(t);
        self.trail.push(v);
    }

    /// Follow the binding chain of `t` until an unbound variable or a
    /// non-variable term is reached. Does not descend into compounds.
    pub fn deref<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        loop {
            match cur {
                Term::Var(v) => match &self.slots.get(v.0 as usize) {
                    Some(Some(next)) => cur = next,
                    _ => return cur,
                },
                _ => return cur,
            }
        }
    }

    /// Does `v` occur in (the dereferenced expansion of) `t`?
    fn occurs(&self, v: Var, t: &Term) -> bool {
        let mut stack = vec![t];
        while let Some(t) = stack.pop() {
            match self.deref(t) {
                Term::Var(w) if *w == v => {
                    return true;
                }
                Term::Compound(_, args) => stack.extend(args.iter()),
                _ => {}
            }
        }
        false
    }

    /// Unify `a` and `b` under the current bindings.
    ///
    /// On success the new bindings stay in place (trailed); on failure every
    /// binding made during the attempt is undone, so a failed head match
    /// leaves the store exactly as it was.
    pub fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let mark = self.mark();
        if self.unify_inner(a, b) {
            true
        } else {
            self.undo_to(mark);
            false
        }
    }

    fn unify_inner(&mut self, a: &Term, b: &Term) -> bool {
        // Explicit work stack of pairs still to unify.
        let mut work: Vec<(Term, Term)> = vec![(a.clone(), b.clone())];
        while let Some((x, y)) = work.pop() {
            let x = self.deref(&x).clone();
            let y = self.deref(&y).clone();
            match (x, y) {
                (Term::Var(v), Term::Var(w)) if v == w => {}
                (Term::Var(v), t) | (t, Term::Var(v)) => {
                    if self.occurs_check && self.occurs(v, &t) {
                        return false;
                    }
                    self.ensure(v.0);
                    self.bind(v, t);
                }
                (Term::Atom(p), Term::Atom(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Int(p), Term::Int(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Float(p), Term::Float(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Str(p), Term::Str(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Compound(f, xs), Term::Compound(g, ys)) => {
                    if f != g || xs.len() != ys.len() {
                        return false;
                    }
                    for (xi, yi) in xs.iter().zip(ys.iter()) {
                        work.push((xi.clone(), yi.clone()));
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

/// Resolve only the top level of `t`: follow variable chains but leave
/// compound arguments untouched.
pub fn resolve_shallow(store: &BindStore, t: &Term) -> Term {
    store.deref(t).clone()
}

/// Fully substitute current bindings into `t`, producing a term in which
/// every bound variable has been replaced by its (recursively resolved)
/// value. Unbound variables remain as variables.
///
/// With the occurs check off (the default), the store may hold cyclic
/// bindings like `X = f(X)`. Resolution terminates on those by leaving the
/// variable in place where its own expansion reaches it again, so the
/// cycle renders as `f(X)` instead of looping forever. Acyclic stores are
/// resolved exactly as before.
///
/// The walk keeps its own stack of the compounds being rebuilt, so a term
/// of any depth (a long list, say) resolves without recursion.
pub fn resolve_deep(store: &BindStore, t: &Term) -> Term {
    /// A compound whose arguments are being resolved: `chain_len` is the
    /// length `chain` had before the variables that led to it were
    /// followed, and is restored once it is rebuilt.
    struct Frame<'a> {
        functor: Sym,
        args: &'a [Term],
        done: Vec<Term>,
        chain_len: usize,
    }
    // The variables whose bindings are being expanded on the path from
    // the root; re-encountering one of them means the store is cyclic, and
    // the cycle is cut by leaving the variable unexpanded.
    let mut chain: Vec<Var> = Vec::new();
    let mut frames: Vec<Frame<'_>> = Vec::new();
    let mut cur = t;
    loop {
        // Follow `cur`'s bindings to an unbound variable, a cycle, a leaf
        // or a compound; a compound opens a frame and resolves its first
        // argument next.
        let chain_len = chain.len();
        let leaf = loop {
            match cur {
                Term::Var(v) => match store.slots.get(v.0 as usize) {
                    Some(Some(next)) if !chain.contains(v) => {
                        chain.push(*v);
                        cur = next;
                    }
                    _ => break Some(Term::Var(*v)),
                },
                Term::Compound(functor, args) if !args.is_empty() => {
                    frames.push(Frame {
                        functor: *functor,
                        args,
                        done: Vec::with_capacity(args.len()),
                        chain_len,
                    });
                    cur = &args[0];
                    break None;
                }
                other => break Some(other.clone()),
            }
        };
        let Some(mut resolved) = leaf else {
            continue;
        };
        chain.truncate(chain_len);
        // Hand the resolved term up, rebuilding every compound it completes.
        loop {
            let Some(frame) = frames.last_mut() else {
                return resolved;
            };
            frame.done.push(resolved);
            if let Some(next) = frame.args.get(frame.done.len()) {
                cur = next;
                break;
            }
            let frame = frames.pop().expect("the frame just completed");
            chain.truncate(frame.chain_len);
            resolved = Term::Compound(frame.functor, frame.done.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BindStore {
        let mut s = BindStore::new();
        s.ensure(31);
        s
    }

    #[test]
    fn unify_atoms() {
        let mut s = store();
        assert!(s.unify(&Term::atom("a"), &Term::atom("a")));
        assert!(!s.unify(&Term::atom("a"), &Term::atom("b")));
    }

    #[test]
    fn unify_var_binds() {
        let mut s = store();
        assert!(s.unify(&Term::var(0), &Term::atom("st_louis")));
        assert_eq!(resolve_deep(&s, &Term::var(0)), Term::atom("st_louis"));
    }

    #[test]
    fn unify_compound_recurses() {
        let mut s = store();
        let a = Term::pred("cap", vec![Term::var(0), Term::atom("mo")]);
        let b = Term::pred("cap", vec![Term::atom("jc"), Term::var(1)]);
        assert!(s.unify(&a, &b));
        assert_eq!(resolve_deep(&s, &Term::var(0)), Term::atom("jc"));
        assert_eq!(resolve_deep(&s, &Term::var(1)), Term::atom("mo"));
    }

    #[test]
    fn failed_unify_undoes_partial_bindings() {
        let mut s = store();
        let a = Term::pred("f", vec![Term::var(0), Term::atom("x")]);
        let b = Term::pred("f", vec![Term::atom("v"), Term::atom("y")]);
        assert!(!s.unify(&a, &b));
        // Var 0 must have been unbound again.
        assert_eq!(resolve_deep(&s, &Term::var(0)), Term::var(0));
    }

    #[test]
    fn var_var_aliasing() {
        let mut s = store();
        assert!(s.unify(&Term::var(0), &Term::var(1)));
        assert!(s.unify(&Term::var(1), &Term::int(7)));
        assert_eq!(resolve_deep(&s, &Term::var(0)), Term::int(7));
    }

    #[test]
    fn trail_undo_restores() {
        let mut s = store();
        assert!(s.unify(&Term::var(0), &Term::atom("a")));
        let mark = s.mark();
        assert!(s.unify(&Term::var(1), &Term::atom("b")));
        s.undo_to(mark);
        assert_eq!(resolve_deep(&s, &Term::var(1)), Term::var(1));
        assert_eq!(resolve_deep(&s, &Term::var(0)), Term::atom("a"));
    }

    #[test]
    fn occurs_check_rejects_cycle() {
        let mut s = store();
        s.occurs_check = true;
        let fx = Term::pred("f", vec![Term::var(0)]);
        assert!(!s.unify(&Term::var(0), &fx));
        // Without occurs check the same unification is accepted (Prolog
        // behaviour).
        let mut s2 = store();
        assert!(s2.unify(&Term::var(0), &fx));
    }

    #[test]
    fn resolve_deep_terminates_on_cyclic_binding() {
        // With the occurs check off, `X = f(X)` is accepted; resolving and
        // printing X must terminate (cutting the cycle at the variable)
        // instead of looping forever.
        let mut s = store();
        assert!(s.unify(&Term::var(0), &Term::pred("f", vec![Term::var(0)])));
        let resolved = resolve_deep(&s, &Term::var(0));
        assert_eq!(resolved, Term::pred("f", vec![Term::var(0)]));
        assert_eq!(format!("X = {resolved}"), "X = f(_0)");
        // Mutual cycle through two variables: X = g(Y), Y = g(X).
        let mut s2 = store();
        assert!(s2.unify(&Term::var(0), &Term::pred("g", vec![Term::var(1)])));
        assert!(s2.unify(&Term::var(1), &Term::pred("g", vec![Term::var(0)])));
        let resolved = resolve_deep(&s2, &Term::var(0));
        assert_eq!(
            resolved,
            Term::pred("g", vec![Term::pred("g", vec![Term::var(0)])])
        );
    }

    #[test]
    fn resolve_deep_still_expands_repeated_acyclic_vars() {
        // The cycle guard must only trip on a variable inside its *own*
        // expansion, not on legitimate repeated occurrences.
        let mut s = store();
        assert!(s.unify(&Term::var(1), &Term::atom("a")));
        let t = Term::pred("p", vec![Term::var(1), Term::var(1)]);
        assert_eq!(
            resolve_deep(&s, &t),
            Term::pred("p", vec![Term::atom("a"), Term::atom("a")])
        );
    }

    #[test]
    fn ensure_len_is_safe_on_empty_store() {
        let mut s = BindStore::new();
        s.ensure_len(0); // the `ensure(len - 1)` form underflowed here
        assert_eq!(s.len(), 0);
        s.ensure_len(3);
        assert_eq!(s.len(), 3);
        s.ensure_len(2); // never shrinks
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn deep_terms_do_not_overflow() {
        // 100k-deep nesting; a recursive unifier would blow the stack.
        // Rust's *Drop* of such a term is also recursive, so give this
        // test (including the drop at the end) a generous stack — the
        // point here is that unification itself is iterative.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let mut deep1 = Term::atom("leaf");
                let mut deep2 = Term::atom("leaf");
                for _ in 0..100_000 {
                    deep1 = Term::pred("n", vec![deep1]);
                    deep2 = Term::pred("n", vec![deep2]);
                }
                let mut s = store();
                assert!(s.unify(&deep1, &deep2));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn ints_and_floats_do_not_unify() {
        let mut s = store();
        assert!(!s.unify(&Term::int(1), &Term::float(1.0)));
    }
}
