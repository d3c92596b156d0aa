//! Interned symbols.
//!
//! Every atom and functor name in the engine is interned once into a global
//! table and referred to by a 32-bit [`Sym`]. Interning makes unification of
//! atoms an integer comparison and keeps [`crate::Term`] small — both matter
//! because the solver compares functors on every clause-head match.

use std::fmt;
use std::sync::OnceLock;

use parking_lot::RwLock;

use crate::hash::FxHashMap;

/// An interned symbol: a cheap, copyable handle to a string stored exactly
/// once in the process-wide symbol table.
///
/// Two `Sym`s are equal if and only if the strings they were interned from
/// are equal, so `==` on `Sym` is a correct (and O(1)) string comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Intern `name`, returning its symbol. Idempotent.
    pub fn new(name: &str) -> Sym {
        table().intern(name)
    }

    /// The string this symbol was interned from.
    ///
    /// Returns an owned `String` because the table may grow concurrently;
    /// the string contents are immutable, only the lookup requires a lock.
    pub fn as_str(self) -> String {
        table().resolve(self)
    }

    /// The raw index of this symbol in the table. Stable for the lifetime of
    /// the process; useful as a dense map key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

struct SymbolTable {
    inner: RwLock<TableInner>,
}

#[derive(Default)]
struct TableInner {
    names: Vec<Box<str>>,
    index: FxHashMap<Box<str>, u32>,
}

impl SymbolTable {
    fn intern(&self, name: &str) -> Sym {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.index.get(name) {
                return Sym(id);
            }
        }
        let mut inner = self.inner.write();
        // Re-check under the write lock: another thread may have interned
        // `name` between our read unlock and write lock.
        if let Some(&id) = inner.index.get(name) {
            return Sym(id);
        }
        let id = u32::try_from(inner.names.len()).expect("symbol table overflow");
        let boxed: Box<str> = name.into();
        inner.names.push(boxed.clone());
        inner.index.insert(boxed, id);
        Sym(id)
    }

    fn resolve(&self, sym: Sym) -> String {
        let inner = self.inner.read();
        inner.names[sym.0 as usize].to_string()
    }
}

/// Run `f` over the names of `syms`, in order, under one read lock of
/// the symbol table — without the `String` that [`Sym::as_str`] allocates
/// per call. `f` must not intern: that would wait on this lock.
pub(crate) fn with_names<R>(syms: &[Sym], f: impl FnOnce(&[&str]) -> R) -> R {
    let inner = table().inner.read();
    let names: Vec<&str> = syms.iter().map(|s| &*inner.names[s.0 as usize]).collect();
    f(&names)
}

fn table() -> &'static SymbolTable {
    static TABLE: OnceLock<SymbolTable> = OnceLock::new();
    TABLE.get_or_init(|| SymbolTable {
        inner: RwLock::new(TableInner::default()),
    })
}

/// Well-known symbols used by the solver's control constructs and builtins.
///
/// Interning them once through this accessor keeps hot comparisons out of the
/// symbol table entirely.
pub mod symbols {
    use super::Sym;
    use std::sync::OnceLock;

    macro_rules! known {
        ($($fn_name:ident => $text:expr;)*) => {
            $(
                /// Well-known symbol for the construct of the same name.
                pub fn $fn_name() -> Sym {
                    static S: OnceLock<Sym> = OnceLock::new();
                    *S.get_or_init(|| Sym::new($text))
                }
            )*
        };
    }

    known! {
        and => ",";
        or => ";";
        not => "not";
        absent => "absent";
        forall => "forall";
        true_ => "true";
        fail => "fail";
        unify => "=";
        not_unify => "\\=";
        struct_eq => "==";
        struct_ne => "\\==";
        is => "is";
        lt => "<";
        le => "=<";
        gt => ">";
        ge => ">=";
        arith_eq => "=:=";
        arith_ne => "=\\=";
        plus => "+";
        minus => "-";
        times => "*";
        var_test => "var";
        nonvar => "nonvar";
        atom_test => "atom";
        number => "number";
        ground => "ground";
        call => "call";
        findall => "findall";
        card => "card";
        aggregate => "aggregate";
        between => "between";
        univ => "=..";
        functor => "functor";
        arg => "arg";
        compare => "compare";
        nil => "[]";
        cons => ".";
        avg => "avg";
        sum => "sum";
        min => "min";
        max => "max";
        count => "count";
        once => "once";
        length => "length";
        msort => "msort";
        sort => "sort";
        reverse => "reverse";
        nth0 => "nth0";
        sum_list => "sum_list";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("saint_louis");
        let b = Sym::new("saint_louis");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "saint_louis");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Sym::new("open"), Sym::new("closed"));
    }

    #[test]
    fn display_round_trips() {
        let s = Sym::new("bridge_b17");
        assert_eq!(s.to_string(), "bridge_b17");
    }

    #[test]
    fn known_symbols_match_text() {
        assert_eq!(symbols::and().as_str(), ",");
        assert_eq!(symbols::cons().as_str(), ".");
        assert_eq!(symbols::nil().as_str(), "[]");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Sym::new("concurrent_symbol")))
            .collect();
        let syms: Vec<Sym> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
