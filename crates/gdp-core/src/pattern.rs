//! Named-variable patterns.
//!
//! Users of the formalism write facts and rules with *named* variables
//! ("any city X whose population exceeds one million…"); the engine wants
//! densely numbered [`gdp_engine::Var`]s. A [`Pat`] is a term with named
//! variables, and a [`VarTable`] maps names to engine variable indices
//! consistently across the head and body of one rule.

use std::fmt;

use gdp_engine::{FxHashMap, Term};

/// A term pattern with named variables.
#[derive(Clone, Debug, PartialEq)]
pub enum Pat {
    /// A named variable; the same name denotes the same variable within one
    /// rule or query.
    Var(String),
    /// An anonymous variable: every occurrence is distinct (Prolog's `_`).
    Wild,
    /// An atom constant.
    Atom(String),
    /// An integer constant.
    Int(i64),
    /// A float constant.
    Float(f64),
    /// A string constant.
    Str(String),
    /// A compound pattern `f(p1, …, pn)`.
    Compound(String, Vec<Pat>),
    /// An already-built engine term spliced in verbatim. Any engine
    /// variables it contains are the caller's responsibility; used by the
    /// higher layers when mixing generated terms into patterns.
    Term(Term),
}

impl Pat {
    /// Shorthand: named variable.
    pub fn var(name: &str) -> Pat {
        Pat::Var(name.to_string())
    }

    /// Shorthand: atom.
    pub fn atom(name: &str) -> Pat {
        Pat::Atom(name.to_string())
    }

    /// Shorthand: compound.
    pub fn app(functor: &str, args: Vec<Pat>) -> Pat {
        Pat::Compound(functor.to_string(), args)
    }

    /// Collect the named variables of this pattern, in first-occurrence
    /// order, into `out` (deduplicated).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Pat::Var(n) if !out.iter().any(|v| v == n) => {
                out.push(n.clone());
            }
            Pat::Compound(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pat::Var(n) => write!(f, "{n}"),
            Pat::Wild => write!(f, "_"),
            Pat::Atom(a) => write!(f, "{a}"),
            Pat::Int(i) => write!(f, "{i}"),
            Pat::Float(x) => write!(f, "{x}"),
            Pat::Str(s) => write!(f, "{s:?}"),
            Pat::Compound(functor, args) => {
                write!(f, "{functor}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Pat::Term(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Pat {
    fn from(v: i64) -> Pat {
        Pat::Int(v)
    }
}

impl From<f64> for Pat {
    fn from(v: f64) -> Pat {
        Pat::Float(v)
    }
}

impl From<&str> for Pat {
    /// `"X"`, `"Y0"`, … (leading uppercase) become variables; `"_"` becomes
    /// a wildcard; everything else an atom — mirroring Prolog lexing so
    /// builder-style code reads like the paper's examples.
    fn from(s: &str) -> Pat {
        if s == "_" {
            Pat::Wild
        } else if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Pat::Var(s.to_string())
        } else {
            Pat::Atom(s.to_string())
        }
    }
}

impl From<Term> for Pat {
    fn from(t: Term) -> Pat {
        Pat::Term(t)
    }
}

/// Maps variable names to engine variable indices within one rule or query.
#[derive(Default, Debug)]
pub struct VarTable {
    by_name: FxHashMap<String, u32>,
    names: Vec<String>,
}

impl VarTable {
    /// Empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// The engine variable for `name`, allocating on first sight.
    pub fn var(&mut self, name: &str) -> u32 {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = self.names.len() as u32;
        self.by_name.insert(name.to_string(), v);
        self.names.push(name.to_string());
        v
    }

    /// A fresh anonymous variable (never returned by name lookups).
    pub fn fresh(&mut self) -> u32 {
        let v = self.names.len() as u32;
        self.names.push(format!("_G{v}"));
        v
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The names in allocation order (anonymous slots included).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Iterate over `(name, index)` pairs for *named* variables only.
    pub fn named(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.by_name.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Compile a pattern into an engine term under this table. Walks
    /// without recursion, left to right (variables are numbered in
    /// first-occurrence order), so a pattern's depth costs no stack here.
    pub fn compile(&mut self, pat: &Pat) -> Term {
        if let Some(leaf) = self.leaf(pat) {
            return leaf;
        }
        // Compounds still compiling their arguments: functor, arity, and
        // where their arguments start in `done`.
        let mut open: Vec<(&str, usize, usize)> = Vec::new();
        let mut done: Vec<Term> = Vec::new();
        let mut todo: Vec<&Pat> = vec![pat];
        while let Some(pat) = todo.pop() {
            let Some(leaf) = self.leaf(pat) else {
                if let Pat::Compound(functor, args) = pat {
                    open.push((functor, args.len(), done.len()));
                    todo.extend(args.iter().rev());
                }
                continue;
            };
            done.push(leaf);
            // Close every compound whose last argument that was.
            while let Some(&(functor, arity, start)) = open.last() {
                if done.len() - start < arity {
                    break;
                }
                open.pop();
                let args = done.split_off(start);
                done.push(Term::pred(functor, args));
            }
        }
        done.pop().expect("a pattern compiles to one term")
    }

    /// `pat` compiled, unless it is a compound with arguments.
    fn leaf(&mut self, pat: &Pat) -> Option<Term> {
        Some(match pat {
            Pat::Var(n) => Term::var(self.var(n)),
            Pat::Wild => Term::var(self.fresh()),
            Pat::Atom(a) => Term::atom(a),
            Pat::Int(i) => Term::Int(*i),
            Pat::Float(x) => Term::float(*x),
            Pat::Str(s) => Term::str(s),
            Pat::Compound(functor, args) if args.is_empty() => Term::atom(functor),
            Pat::Compound(..) => return None,
            Pat::Term(t) => t.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_var() {
        let mut vt = VarTable::new();
        let t1 = vt.compile(&Pat::var("X"));
        let t2 = vt.compile(&Pat::var("X"));
        assert_eq!(t1, t2);
        let t3 = vt.compile(&Pat::var("Y"));
        assert_ne!(t1, t3);
    }

    #[test]
    fn wildcards_are_distinct() {
        let mut vt = VarTable::new();
        let t1 = vt.compile(&Pat::Wild);
        let t2 = vt.compile(&Pat::Wild);
        assert_ne!(t1, t2);
    }

    #[test]
    fn compound_compiles_recursively() {
        let mut vt = VarTable::new();
        let p = Pat::app("pt", vec![Pat::var("X"), Pat::Float(2.0)]);
        let t = vt.compile(&p);
        assert_eq!(t, Term::pred("pt", vec![Term::var(0), Term::float(2.0)]));
    }

    #[test]
    fn from_str_follows_prolog_convention() {
        assert_eq!(Pat::from("X"), Pat::Var("X".into()));
        assert_eq!(Pat::from("saint_louis"), Pat::Atom("saint_louis".into()));
        assert_eq!(Pat::from("_"), Pat::Wild);
    }

    #[test]
    fn collect_vars_dedups_in_order() {
        let p = Pat::app(
            "f",
            vec![
                Pat::var("B"),
                Pat::app("g", vec![Pat::var("A"), Pat::var("B")]),
            ],
        );
        let mut vars = Vec::new();
        p.collect_vars(&mut vars);
        assert_eq!(vars, vec!["B".to_string(), "A".to_string()]);
    }

    #[test]
    fn spliced_terms_pass_through() {
        let mut vt = VarTable::new();
        let t = Term::pred("iv", vec![Term::int(1), Term::int(2)]);
        assert_eq!(vt.compile(&Pat::Term(t.clone())), t);
        assert_eq!(vt.len(), 0);
    }
}
