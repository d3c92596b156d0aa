//! The clause store.
//!
//! A [`KnowledgeBase`] holds Horn clauses grouped by predicate, with three
//! features the formalism leans on heavily:
//!
//! * **Multi-argument indexing.** Roman's prototype accepted "Prolog's
//!   computational inefficiency" (§I); reified facts make every fact a
//!   `holds/5` clause whose *first* argument (the model) is almost always
//!   the same atom, so classic first-argument indexing degenerates to a
//!   scan. A predicate can therefore be indexed on several argument
//!   positions ([`KnowledgeBase::set_index_args`]); each call picks the
//!   most selective index for its (dereferenced) arguments. List-valued
//!   arguments are keyed by their first element, which is what makes the
//!   reified `h(M, S, T, Pred, [Obj | …])` representation discriminate on
//!   the object. Indexing can be disabled wholesale
//!   ([`KnowledgeBase::set_indexing`]) to act as the 1986-Prolog baseline
//!   in benchmarks.
//!
//! * **Clause groups.** Meta-models "may be activated on demand" (§IV.C):
//!   each clause belongs to a named [`GroupId`], and a whole group can be
//!   retracted in one call. Activating a meta-model asserts its rule pack
//!   under its group; deactivating retracts the group.
//!
//! * **Native predicates** — semi-determinate Rust callbacks used for
//!   semantic-domain operations the paper treats as given (distance
//!   functions, resolution functions, interpolation, …).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::delta::{CommitRecord, Delta, DeltaOp};
use crate::deps::{ArgSpec, DepGraph};
use crate::error::{EngineError, EngineResult};
use crate::hash::{FxHashMap, FxHashSet};
use crate::symbol::{symbols, Sym};
use crate::table::{AnswerTable, CyclePolicy, TableValidity};
use crate::term::{Term, Var, F64};
use crate::unify::BindStore;

/// Identifies a predicate: functor plus arity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PredKey {
    /// Functor symbol.
    pub name: Sym,
    /// Number of arguments.
    pub arity: u16,
}

impl PredKey {
    /// Largest arity a predicate key can represent. Arities beyond this
    /// are rejected (never silently truncated — a `p/65537` call must not
    /// dispatch to `p/1` clauses).
    pub const MAX_ARITY: usize = u16::MAX as usize;

    /// Build a key from a functor name and arity.
    ///
    /// # Panics
    ///
    /// Panics when `arity` exceeds [`PredKey::MAX_ARITY`]; use
    /// [`PredKey::try_new`] when the arity is not statically known to be
    /// small.
    pub fn new(name: &str, arity: usize) -> PredKey {
        PredKey::try_new(name, arity)
            .unwrap_or_else(|| panic!("predicate arity {arity} exceeds {}", PredKey::MAX_ARITY))
    }

    /// Build a key from a functor name and arity, or `None` when the arity
    /// exceeds [`PredKey::MAX_ARITY`].
    pub fn try_new(name: &str, arity: usize) -> Option<PredKey> {
        Some(PredKey {
            name: Sym::new(name),
            arity: u16::try_from(arity).ok()?,
        })
    }

    /// Key describing a callable term (atom or compound). `None` for
    /// non-callable terms and for compounds whose arity exceeds
    /// [`PredKey::MAX_ARITY`].
    pub fn of_term(t: &Term) -> Option<PredKey> {
        Some(PredKey {
            name: t.functor()?,
            arity: u16::try_from(t.arity()?).ok()?,
        })
    }
}

impl std::fmt::Display for PredKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name.as_str(), self.arity)
    }
}

/// A named clause group. Groups are the engine-level mechanism behind the
/// paper's models and meta-models: rule packs that can be asserted and
/// retracted as a unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupId(Sym);

impl GroupId {
    /// Group with the given name.
    pub fn named(name: &str) -> GroupId {
        GroupId(Sym::new(name))
    }

    /// The default group for clauses asserted without an explicit group.
    /// Named after the paper's default model ω (§III.D).
    pub fn root() -> GroupId {
        GroupId(Sym::new("omega"))
    }

    /// The group's name.
    pub fn name(self) -> Sym {
        self.0
    }
}

/// A stored Horn clause `head :- body`, with variables numbered `0..n_vars`.
#[derive(Clone, Debug)]
pub struct Clause {
    /// Clause head (an atom or compound term).
    pub head: Term,
    /// Clause body; `true` for facts.
    pub body: Term,
    /// Number of distinct variables; the solver allocates this many fresh
    /// slots when activating the clause.
    pub n_vars: u32,
    /// The group this clause belongs to.
    pub group: GroupId,
}

impl Clause {
    /// Build a clause, computing `n_vars` from the head and body.
    ///
    /// Variables must be densely numbered starting at zero for the slot
    /// allocation to be tight; sparse numbering is still correct, merely
    /// wasteful, so it is accepted.
    pub fn new(head: Term, body: Term, group: GroupId) -> Clause {
        let n_vars = head
            .max_var()
            .into_iter()
            .chain(body.max_var())
            .max()
            .map_or(0, |m| m + 1);
        Clause {
            head,
            body,
            n_vars,
            group,
        }
    }
}

/// Index key for one argument position of a clause head.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ArgKey {
    Atom(Sym),
    Int(i64),
    Float(F64),
    Str(Arc<str>),
    /// Non-list compounds are indexed by functor/arity only. The arity is
    /// kept at full width — unlike [`PredKey`], an index key has no
    /// representation limit to enforce, and truncating here would be an
    /// avoidable (if sound: candidates are filtered by head unification)
    /// over-approximation.
    Functor(Sym, usize),
    /// Lists are indexed by their first element — the discriminating
    /// position in the reified `[value/object | …]` argument lists.
    ListHead(Box<ArgKey>),
}

/// Canonicalize a float index key: `-0.0` and `0.0` unify (and compare
/// equal), so they must land in one bit-identical bucket — insert and
/// lookup both go through here. NaN cannot occur ([`F64`] rejects it at
/// construction), so keys stay totally ordered.
fn canon_float(f: F64) -> F64 {
    if f.get() == 0.0 {
        F64::new(0.0)
    } else {
        f
    }
}

impl ArgKey {
    /// Key for a clause-head argument. `None` for variables and for lists
    /// whose head is a variable (such clauses match any call).
    fn of(t: &Term) -> Option<ArgKey> {
        match t {
            Term::Var(_) => None,
            Term::Atom(s) => Some(ArgKey::Atom(*s)),
            Term::Int(i) => Some(ArgKey::Int(*i)),
            Term::Float(f) => Some(ArgKey::Float(canon_float(*f))),
            Term::Str(s) => Some(ArgKey::Str(s.clone())),
            Term::Compound(f, args) => {
                if *f == symbols::cons() && args.len() == 2 {
                    Some(ArgKey::ListHead(Box::new(ArgKey::of(&args[0])?)))
                } else {
                    Some(ArgKey::Functor(*f, args.len()))
                }
            }
        }
    }

    /// Key for a *call* argument, following bindings one level deep (and
    /// through the list head).
    fn of_call(store: &BindStore, t: &Term) -> Option<ArgKey> {
        match store.deref(t) {
            Term::Var(_) => None,
            Term::Atom(s) => Some(ArgKey::Atom(*s)),
            Term::Int(i) => Some(ArgKey::Int(*i)),
            Term::Float(f) => Some(ArgKey::Float(canon_float(*f))),
            Term::Str(s) => Some(ArgKey::Str(s.clone())),
            Term::Compound(f, args) => {
                if *f == symbols::cons() && args.len() == 2 {
                    Some(ArgKey::ListHead(Box::new(ArgKey::of_call(
                        store, &args[0],
                    )?)))
                } else {
                    Some(ArgKey::Functor(*f, args.len()))
                }
            }
        }
    }
}

/// A (possibly half-open, possibly unbounded) numeric interval, used both
/// for constraint-carrying candidate queries and as the solver-side value
/// of one `range_call` bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumRange {
    /// Lower bound (`-inf` for unbounded).
    pub lo: f64,
    /// Is the lower bound exclusive?
    pub lo_open: bool,
    /// Upper bound (`inf` for unbounded).
    pub hi: f64,
    /// Is the upper bound exclusive?
    pub hi_open: bool,
}

impl NumRange {
    /// The unconstrained interval.
    pub const ALL: NumRange = NumRange {
        lo: f64::NEG_INFINITY,
        lo_open: false,
        hi: f64::INFINITY,
        hi_open: false,
    };

    /// The degenerate closed interval `[x, x]`.
    pub fn point(x: f64) -> NumRange {
        NumRange {
            lo: x,
            lo_open: false,
            hi: x,
            hi_open: false,
        }
    }

    /// Closed-form constructor.
    pub fn new(lo: f64, lo_open: bool, hi: f64, hi_open: bool) -> NumRange {
        NumRange {
            lo,
            lo_open,
            hi,
            hi_open,
        }
    }

    /// Is `x` inside the interval?
    pub fn contains(&self, x: f64) -> bool {
        (if self.lo_open {
            x > self.lo
        } else {
            x >= self.lo
        }) && (if self.hi_open {
            x < self.hi
        } else {
            x <= self.hi
        })
    }

    /// Does the interval contain no point at all?
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_open || self.hi_open))
    }

    /// The intersection of two intervals (tighter bound wins; on a tie the
    /// stricter openness wins).
    pub fn intersect(&self, other: &NumRange) -> NumRange {
        let (lo, lo_open) = if self.lo > other.lo {
            (self.lo, self.lo_open)
        } else if other.lo > self.lo {
            (other.lo, other.lo_open)
        } else {
            (self.lo, self.lo_open || other.lo_open)
        };
        let (hi, hi_open) = if self.hi < other.hi {
            (self.hi, self.hi_open)
        } else if other.hi < self.hi {
            (other.hi, other.hi_open)
        } else {
            (self.hi, self.hi_open || other.hi_open)
        };
        NumRange {
            lo,
            lo_open,
            hi,
            hi_open,
        }
    }
}

/// One step of an [`ArgPath`]: descend into child `child` when the term at
/// this level is a compound with one of the listed functor/arity shapes.
/// Several functors may share a step (the spatial qualifiers `su`/`ss`/`sa`
/// all carry their point in the same position).
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// Accepted functor/arity alternatives at this level.
    pub functors: Vec<(Sym, usize)>,
    /// Child index to descend into.
    pub child: usize,
}

impl PathStep {
    fn matches(&self, f: Sym, arity: usize) -> bool {
        self.functors.iter().any(|&(s, a)| s == f && a == arity)
    }
}

/// A path from one head-argument position to a numeric subterm: start at
/// argument `pos`, then follow `steps`. A clause whose head does not match
/// the path (different shape, variable along the way, non-numeric leaf) is
/// *unkeyed* and stays a candidate for every call.
#[derive(Clone, Debug, PartialEq)]
pub struct ArgPath {
    /// Head-argument position the walk starts at.
    pub pos: u16,
    /// Steps into the argument's subterm structure.
    pub steps: Vec<PathStep>,
}

impl ArgPath {
    /// A path that keys argument `pos` directly.
    pub fn arg(pos: usize) -> ArgPath {
        ArgPath {
            pos: u16::try_from(pos).expect("argument position exceeds u16"),
            steps: Vec::new(),
        }
    }

    /// Append a single-functor step.
    pub fn step(self, functor: &str, arity: usize, child: usize) -> ArgPath {
        self.step_any(&[(functor, arity)], child)
    }

    /// Append a step accepting any of several functor/arity shapes (all
    /// must carry the keyed subterm at the same child index).
    pub fn step_any(mut self, functors: &[(&str, usize)], child: usize) -> ArgPath {
        self.steps.push(PathStep {
            functors: functors.iter().map(|&(f, a)| (Sym::new(f), a)).collect(),
            child,
        });
        self
    }

    /// The numeric key of `head`'s subterm at this path, if the walk
    /// matches and lands on a number.
    fn key_of(&self, head: &Term) -> Option<f64> {
        let mut t = head.args().get(self.pos as usize)?;
        for step in &self.steps {
            match t {
                Term::Compound(f, children) if step.matches(*f, children.len()) => {
                    t = children.get(step.child)?;
                }
                _ => return None,
            }
        }
        match t {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(canon_float(*f).get()),
            _ => None,
        }
    }

    /// Walk a *call*'s arguments, dereferencing at every level.
    fn probe(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> Probe {
        let mut t = match args.get(self.pos as usize) {
            Some(t) => t,
            None => return Probe::Unconstrained,
        };
        for step in &self.steps {
            match store.deref(t) {
                Term::Var(_) => return Probe::Unconstrained,
                Term::Compound(f, children) if step.matches(*f, children.len()) => {
                    t = match children.get(step.child) {
                        Some(c) => c,
                        None => return Probe::Unconstrained,
                    };
                }
                // Bound to a different shape: no *keyed* head can unify
                // with this call, so only unkeyed clauses are candidates.
                _ => return Probe::Mismatch,
            }
        }
        match store.deref(t) {
            Term::Int(i) => Probe::Range(NumRange::point(*i as f64)),
            Term::Float(f) => Probe::Range(NumRange::point(canon_float(*f).get())),
            Term::Var(v) => match bounds.get(*v) {
                Some(r) => Probe::Range(*r),
                None => Probe::Unconstrained,
            },
            // Bound non-numeric where keyed heads carry numbers.
            _ => Probe::Mismatch,
        }
    }
}

/// Outcome of walking one [`ArgPath`] over a call's arguments.
enum Probe {
    /// The call is bound to a shape no keyed head can unify with.
    Mismatch,
    /// The keyed subterm is constrained to this interval (a bound number
    /// gives the degenerate point interval; an unbound variable gives its
    /// active `range_call` bound).
    Range(NumRange),
    /// No usable constraint; the index cannot serve this call.
    Unconstrained,
}

/// Configuration of one range index ([`KnowledgeBase::set_range_indexes`]).
#[derive(Clone, Debug, PartialEq)]
pub enum RangeSpec {
    /// Sorted index over a single numeric subterm (time instants, reading
    /// values, resolutions).
    Interval(ArgPath),
    /// Uniform grid over a numeric `(x, y)` subterm pair (spatial points).
    /// The grid bucketing is independent of any registered spatial
    /// resolution; `cell` only trades bucket count against bucket size.
    Grid {
        /// Path to the x coordinate.
        x: ArgPath,
        /// Path to the y coordinate.
        y: ArgPath,
        /// Grid cell edge length (must be positive and finite).
        cell: f64,
    },
}

/// Where a clause head lands in a range index.
enum RangeSlot {
    Interval(F64),
    Grid(i64, i64),
    Unkeyed,
}

fn grid_coord(v: f64, cell: f64) -> i64 {
    (v / cell).floor() as i64
}

/// Upper bound on grid cells enumerated per box query; larger boxes fall
/// back to "index inapplicable" (a scan of the other selections).
const GRID_CELL_CAP: i64 = 1024;

#[derive(Clone, PartialEq)]
enum RangeStore {
    Interval(BTreeMap<F64, Vec<u32>>),
    Grid(FxHashMap<(i64, i64), Vec<u32>>),
}

/// One range index over a predicate's clauses: keyed buckets of clause
/// positions plus the unkeyed positions that every call must keep.
#[derive(Clone)]
struct RangeIndex {
    spec: RangeSpec,
    store: RangeStore,
    /// Positions of clauses whose head does not key under the spec
    /// (rules, variable subterms, other shapes): always candidates.
    unkeyed: Vec<u32>,
}

impl RangeIndex {
    fn new(spec: RangeSpec) -> RangeIndex {
        let store = match &spec {
            RangeSpec::Interval(_) => RangeStore::Interval(BTreeMap::new()),
            RangeSpec::Grid { .. } => RangeStore::Grid(FxHashMap::default()),
        };
        RangeIndex {
            spec,
            store,
            unkeyed: Vec::new(),
        }
    }

    fn clear(&mut self) {
        match &mut self.store {
            RangeStore::Interval(map) => map.clear(),
            RangeStore::Grid(map) => map.clear(),
        }
        self.unkeyed.clear();
    }

    fn slot_of(spec: &RangeSpec, head: &Term) -> RangeSlot {
        match spec {
            RangeSpec::Interval(path) => match path.key_of(head).and_then(F64::try_new) {
                Some(k) => RangeSlot::Interval(k),
                None => RangeSlot::Unkeyed,
            },
            RangeSpec::Grid { x, y, cell } => {
                if !(*cell > 0.0 && cell.is_finite()) {
                    return RangeSlot::Unkeyed;
                }
                match (x.key_of(head), y.key_of(head)) {
                    (Some(xv), Some(yv)) if xv.is_finite() && yv.is_finite() => {
                        RangeSlot::Grid(grid_coord(xv, *cell), grid_coord(yv, *cell))
                    }
                    _ => RangeSlot::Unkeyed,
                }
            }
        }
    }

    fn insert(&mut self, clause_pos: u32, head: &Term) {
        match (Self::slot_of(&self.spec, head), &mut self.store) {
            (RangeSlot::Interval(k), RangeStore::Interval(map)) => {
                map.entry(k).or_default().push(clause_pos);
            }
            (RangeSlot::Grid(cx, cy), RangeStore::Grid(map)) => {
                map.entry((cx, cy)).or_default().push(clause_pos);
            }
            _ => self.unkeyed.push(clause_pos),
        }
    }

    fn remove_positions(&mut self, removed: &[u32]) {
        remap_after_removal(&mut self.unkeyed, removed);
        match &mut self.store {
            RangeStore::Interval(map) => map.retain(|_, list| {
                remap_after_removal(list, removed);
                !list.is_empty()
            }),
            RangeStore::Grid(map) => map.retain(|_, list| {
                remap_after_removal(list, removed);
                !list.is_empty()
            }),
        }
    }

    fn insert_at(&mut self, at: u32, head: &Term) {
        shift_for_insert(&mut self.unkeyed, at);
        match &mut self.store {
            RangeStore::Interval(map) => {
                for list in map.values_mut() {
                    shift_for_insert(list, at);
                }
            }
            RangeStore::Grid(map) => {
                for list in map.values_mut() {
                    shift_for_insert(list, at);
                }
            }
        }
        match (Self::slot_of(&self.spec, head), &mut self.store) {
            (RangeSlot::Interval(k), RangeStore::Interval(map)) => {
                sorted_insert(map.entry(k).or_default(), at);
            }
            (RangeSlot::Grid(cx, cy), RangeStore::Grid(map)) => {
                sorted_insert(map.entry((cx, cy)).or_default(), at);
            }
            _ => sorted_insert(&mut self.unkeyed, at),
        }
    }

    /// The sorted position list this index selects for a call: clauses
    /// whose key can lie in the constrained range, plus the unkeyed
    /// clauses. `None` when the call carries no constraint this index can
    /// use (the caller falls back to its other selections).
    fn select(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> Option<Vec<u32>> {
        let keyed: Vec<u32> = match (&self.spec, &self.store) {
            (RangeSpec::Interval(path), RangeStore::Interval(map)) => {
                match path.probe(store, args, bounds) {
                    Probe::Mismatch => Vec::new(),
                    Probe::Unconstrained => return None,
                    Probe::Range(r) => {
                        if r.is_empty() {
                            Vec::new()
                        } else if r.lo == f64::NEG_INFINITY && r.hi == f64::INFINITY {
                            // Unbounded on both sides: selects everything,
                            // prunes nothing — not applicable.
                            return None;
                        } else {
                            let lo = match F64::try_new(r.lo) {
                                Some(k) if r.lo_open => Bound::Excluded(k),
                                Some(k) => Bound::Included(k),
                                None => return None,
                            };
                            let hi = match F64::try_new(r.hi) {
                                Some(k) if r.hi_open => Bound::Excluded(k),
                                Some(k) => Bound::Included(k),
                                None => return None,
                            };
                            let mut out = Vec::new();
                            for (_, list) in map.range((lo, hi)) {
                                out.extend_from_slice(list);
                            }
                            out.sort_unstable();
                            out
                        }
                    }
                }
            }
            (RangeSpec::Grid { x, y, cell }, RangeStore::Grid(map)) => {
                if !(*cell > 0.0 && cell.is_finite()) {
                    return None;
                }
                let px = x.probe(store, args, bounds);
                let py = y.probe(store, args, bounds);
                if matches!(px, Probe::Mismatch) || matches!(py, Probe::Mismatch) {
                    Vec::new()
                } else {
                    let (Probe::Range(rx), Probe::Range(ry)) = (px, py) else {
                        return None;
                    };
                    if rx.is_empty() || ry.is_empty() {
                        Vec::new()
                    } else if !(rx.lo.is_finite()
                        && rx.hi.is_finite()
                        && ry.lo.is_finite()
                        && ry.hi.is_finite())
                    {
                        // Unbounded boxes cannot be enumerated cell-wise.
                        return None;
                    } else {
                        let (cx0, cx1) = (grid_coord(rx.lo, *cell), grid_coord(rx.hi, *cell));
                        let (cy0, cy1) = (grid_coord(ry.lo, *cell), grid_coord(ry.hi, *cell));
                        let nx = cx1.checked_sub(cx0).and_then(|d| d.checked_add(1))?;
                        let ny = cy1.checked_sub(cy0).and_then(|d| d.checked_add(1))?;
                        if nx <= 0 || ny <= 0 || nx.checked_mul(ny)? > GRID_CELL_CAP {
                            return None;
                        }
                        let mut out = Vec::new();
                        for cx in cx0..=cx1 {
                            for cy in cy0..=cy1 {
                                if let Some(list) = map.get(&(cx, cy)) {
                                    out.extend_from_slice(list);
                                }
                            }
                        }
                        out.sort_unstable();
                        out
                    }
                }
            }
            _ => unreachable!("range store shape matches its spec"),
        };
        Some(union_sorted(&keyed, &self.unkeyed))
    }
}

impl std::fmt::Display for ArgPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arg{}", self.pos)?;
        for step in &self.steps {
            let names: Vec<String> = step
                .functors
                .iter()
                .map(|&(s, a)| format!("{}/{a}", s.as_str()))
                .collect();
            write!(f, ".{{{}}}[{}]", names.join("|"), step.child)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for RangeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeSpec::Interval(p) => write!(f, "interval({p})"),
            RangeSpec::Grid { x, y, cell } => write!(f, "grid({x}, {y}; cell={cell})"),
        }
    }
}

/// Active numeric bounds on unbound variables, collected by the solver
/// from its `range_call` scopes and passed into
/// [`KnowledgeBase::candidates`]. Fixed-capacity: constraints beyond the
/// cap are simply not used for pruning (always sound).
pub struct BoundSet {
    len: usize,
    items: [(Var, NumRange); BoundSet::CAP],
}

impl Default for BoundSet {
    fn default() -> BoundSet {
        BoundSet {
            len: 0,
            items: [(Var(0), NumRange::ALL); BoundSet::CAP],
        }
    }
}

impl BoundSet {
    /// Maximum number of simultaneously tracked variable bounds.
    pub const CAP: usize = 8;

    /// Add a bound for `var`, intersecting with any existing bound on the
    /// same variable.
    pub fn insert(&mut self, var: Var, range: NumRange) {
        for slot in &mut self.items[..self.len] {
            if slot.0 == var {
                slot.1 = slot.1.intersect(&range);
                return;
            }
        }
        if self.len < BoundSet::CAP {
            self.items[self.len] = (var, range);
            self.len += 1;
        }
    }

    /// The active bound on `var`, if any.
    pub fn get(&self, var: Var) -> Option<&NumRange> {
        self.items[..self.len]
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, r)| r)
    }

    /// Number of tracked bounds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Drop the `removed` positions (ascending) from an ascending position
/// list and renumber the survivors past the removals below them.
fn remap_after_removal(list: &mut Vec<u32>, removed: &[u32]) {
    list.retain_mut(|p| match removed.binary_search(p) {
        Ok(_) => false,
        Err(below) => {
            *p -= below as u32;
            true
        }
    });
}

/// Renumber an ascending position list for an insertion at `at`.
fn shift_for_insert(list: &mut [u32], at: u32) {
    for p in list.iter_mut() {
        if *p >= at {
            *p += 1;
        }
    }
}

/// Insert `at` into an ascending position list, keeping it sorted.
fn sorted_insert(list: &mut Vec<u32>, at: u32) {
    let i = list.partition_point(|&p| p < at);
    list.insert(i, at);
}

/// Merge two disjoint ascending lists, handing each position to `push`
/// in ascending order.
fn merge_sorted(a: &[u32], b: &[u32], mut push: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    push(x);
                    i += 1;
                } else {
                    push(y);
                    j += 1;
                }
            }
            (Some(&x), None) => {
                push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Union of two disjoint ascending lists, ascending.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_sorted(a, b, |p| out.push(p));
    out
}

/// Intersection of two ascending lists, ascending.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// A clause-position list with inline storage for the common small case —
/// selective index hits with a handful of candidates allocate nothing.
pub struct PosList {
    len: usize,
    inline: [u32; PosList::CAP],
    spill: Vec<u32>,
}

impl Default for PosList {
    fn default() -> PosList {
        PosList {
            len: 0,
            inline: [0; PosList::CAP],
            spill: Vec::new(),
        }
    }
}

impl PosList {
    /// Inline capacity before spilling to the heap.
    pub const CAP: usize = 16;

    /// Append a position.
    pub fn push(&mut self, p: u32) {
        if self.len < PosList::CAP {
            self.inline[self.len] = p;
        } else {
            self.spill.push(p);
        }
        self.len += 1;
    }

    /// Number of stored positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The position at index `i`.
    pub fn get(&self, i: usize) -> Option<u32> {
        if i >= self.len {
            None
        } else if i < PosList::CAP {
            Some(self.inline[i])
        } else {
            Some(self.spill[i - PosList::CAP])
        }
    }
}

/// A predicate's clause list as two borrowed slices, base segment then
/// tail; positions run through the base and continue into the tail.
type ClauseSlices<'kb> = (&'kb [Arc<Clause>], &'kb [Arc<Clause>]);

fn clause_at<'kb>((base, tail): ClauseSlices<'kb>, i: usize) -> Option<&'kb Arc<Clause>> {
    match i.checked_sub(base.len()) {
        None => base.get(i),
        Some(j) => tail.get(j),
    }
}

/// Candidate clauses for one call, borrowed from the knowledge base — the
/// scan path and small index hits allocate nothing.
pub enum Candidates<'kb> {
    /// Every clause of the predicate (no applicable index, or indexing
    /// disabled).
    All(ClauseSlices<'kb>),
    /// Selected clause positions, ascending (assertion order preserved).
    Picked {
        /// The predicate's full clause list.
        clauses: ClauseSlices<'kb>,
        /// Selected positions into it.
        pos: PosList,
    },
}

impl<'kb> Candidates<'kb> {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        match self {
            Candidates::All((base, tail)) => base.len() + tail.len(),
            Candidates::Picked { pos, .. } => pos.len(),
        }
    }

    /// Is the candidate set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidate at index `i`.
    pub fn get(&self, i: usize) -> Option<&'kb Arc<Clause>> {
        match self {
            Candidates::All(clauses) => clause_at(*clauses, i),
            Candidates::Picked { clauses, pos } => {
                pos.get(i).and_then(|p| clause_at(*clauses, p as usize))
            }
        }
    }

    /// Iterate the candidates in order.
    pub fn iter(&self) -> impl Iterator<Item = &'kb Arc<Clause>> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index within len"))
    }

    /// Collect into an owned vector (tests, diagnostics).
    pub fn to_vec(&self) -> Vec<Arc<Clause>> {
        self.iter().cloned().collect()
    }
}

/// Per-predicate index usage counters. Atomics because clause selection
/// takes `&self` and runs concurrently from parallel audit workers.
#[derive(Default)]
struct IndexStats {
    consults: AtomicU64,
    hash_hits: AtomicU64,
    range_hits: AtomicU64,
    pruned: AtomicU64,
    scans: AtomicU64,
}

impl Clone for IndexStats {
    /// Counters transfer by value: a snapshot starts from the live
    /// numbers and the two copies diverge independently afterwards.
    fn clone(&self) -> IndexStats {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        IndexStats {
            consults: copy(&self.consults),
            hash_hits: copy(&self.hash_hits),
            range_hits: copy(&self.range_hits),
            pruned: copy(&self.pruned),
            scans: copy(&self.scans),
        }
    }
}

/// Per-predicate index configuration and usage snapshot
/// ([`KnowledgeBase::index_stats`]).
#[derive(Clone, Debug)]
pub struct IndexReport {
    /// The predicate.
    pub pred: PredKey,
    /// Current clause count.
    pub clauses: usize,
    /// Hash-indexed argument positions.
    pub hash_positions: Vec<u16>,
    /// Configured range indexes.
    pub range_specs: Vec<RangeSpec>,
    /// Candidate queries answered (indexing on).
    pub consults: u64,
    /// Queries where a hash index applied.
    pub hash_hits: u64,
    /// Queries where at least one range index applied.
    pub range_hits: u64,
    /// Clauses pruned across all queries (stored minus selected).
    pub pruned: u64,
    /// Queries that fell back to a full scan.
    pub scans: u64,
}

/// One per-argument-position index.
#[derive(Clone, Default)]
struct ArgIndex {
    pos: u16,
    by_key: FxHashMap<ArgKey, Vec<u32>>,
    /// Positions of clauses whose argument at `pos` carries no key.
    var_clauses: Vec<u32>,
}

impl ArgIndex {
    fn insert(&mut self, clause_pos: u32, head: &Term) {
        match head.args().get(self.pos as usize).and_then(ArgKey::of) {
            Some(key) => self.by_key.entry(key).or_default().push(clause_pos),
            None => self.var_clauses.push(clause_pos),
        }
    }

    fn remove_positions(&mut self, removed: &[u32]) {
        remap_after_removal(&mut self.var_clauses, removed);
        self.by_key.retain(|_, list| {
            remap_after_removal(list, removed);
            !list.is_empty()
        });
    }

    fn insert_at(&mut self, at: u32, head: &Term) {
        shift_for_insert(&mut self.var_clauses, at);
        for list in self.by_key.values_mut() {
            shift_for_insert(list, at);
        }
        match head.args().get(self.pos as usize).and_then(ArgKey::of) {
            Some(key) => sorted_insert(self.by_key.entry(key).or_default(), at),
            None => sorted_insert(&mut self.var_clauses, at),
        }
    }
}

/// A tail is folded into a fresh base once it holds more than
/// 1/`TAIL_FOLD_DIVISOR` of the base's clauses. A commit under a pin copies
/// the whole tail and a fold copies the whole base, so the divisor trades
/// the two: a pinned commit copies at most 1/64 of the predicate, while
/// folds come at most once per |base|/64 appended clauses, an amortised 64
/// clause copies per appended clause whatever the size of the predicate.
/// For a 2×10⁴-clause base taking commits of about eight clauses, 64 sits
/// near the minimum of the two costs' sum; at 16 the median pinned commit
/// cost half as much again (perfbench ingest on a 2-vCPU VM).
const TAIL_FOLD_DIVISOR: usize = 64;

/// One segment of a predicate's clause list: the clauses and their hash
/// and range indexes, with positions local to the segment.
#[derive(Clone, Default)]
struct Segment {
    clauses: Vec<Arc<Clause>>,
    indexes: Vec<ArgIndex>,
    ranges: Vec<RangeIndex>,
}

impl Segment {
    fn new(index_positions: &[u16], range_specs: &[RangeSpec]) -> Segment {
        Segment {
            clauses: Vec::new(),
            indexes: index_positions
                .iter()
                .map(|&pos| ArgIndex {
                    pos,
                    ..ArgIndex::default()
                })
                .collect(),
            ranges: range_specs
                .iter()
                .map(|spec| RangeIndex::new(spec.clone()))
                .collect(),
        }
    }

    /// An empty segment indexed the way this one is.
    fn empty_like(&self) -> Segment {
        Segment {
            clauses: Vec::new(),
            indexes: self
                .indexes
                .iter()
                .map(|index| ArgIndex {
                    pos: index.pos,
                    ..ArgIndex::default()
                })
                .collect(),
            ranges: self
                .ranges
                .iter()
                .map(|rindex| RangeIndex::new(rindex.spec.clone()))
                .collect(),
        }
    }

    /// The keyed and variable positions hash index `i` holds for `key`.
    fn hash_sel(&self, i: usize, key: &ArgKey) -> (&[u32], &[u32]) {
        let index = &self.indexes[i];
        (
            index.by_key.get(key).map(Vec::as_slice).unwrap_or(&[]),
            &index.var_clauses,
        )
    }

    fn rebuild_indexes(&mut self) {
        for index in &mut self.indexes {
            index.by_key.clear();
            index.var_clauses.clear();
        }
        for rindex in &mut self.ranges {
            rindex.clear();
        }
        for (pos, clause) in self.clauses.iter().enumerate() {
            for index in &mut self.indexes {
                index.insert(pos as u32, &clause.head);
            }
            for rindex in &mut self.ranges {
                rindex.insert(pos as u32, &clause.head);
            }
        }
    }

    fn push(&mut self, clause: Arc<Clause>) {
        let pos = self.clauses.len() as u32;
        for index in &mut self.indexes {
            index.insert(pos, &clause.head);
        }
        for rindex in &mut self.ranges {
            rindex.insert(pos, &clause.head);
        }
        self.clauses.push(clause);
    }

    /// Incremental maintenance: drop removed clause positions (ascending)
    /// from every index and renumber the survivors — no rebuild.
    fn remove_index_positions(&mut self, removed: &[u32]) {
        for index in &mut self.indexes {
            index.remove_positions(removed);
        }
        for rindex in &mut self.ranges {
            rindex.remove_positions(removed);
        }
    }

    /// Incremental maintenance: renumber for a clause (re)inserted at
    /// position `at` and key it into every index.
    fn insert_index_position(&mut self, at: u32, head: &Term) {
        for index in &mut self.indexes {
            index.insert_at(at, head);
        }
        for rindex in &mut self.ranges {
            rindex.insert_at(at, head);
        }
    }
}

/// One predicate's clauses: a base segment that snapshots share, then a
/// tail private to this entry. The logical clause list is the base's
/// clauses followed by the tail's. An append lands in the base in place
/// when nothing else holds the base; otherwise it lands in the tail, so a
/// commit under a pinned snapshot copies the tail rather than the whole
/// predicate. Every other edit folds the tail away first and works on a
/// single segment.
#[derive(Clone)]
struct PredEntry {
    base: Arc<Segment>,
    tail: Segment,
    stats: IndexStats,
}

impl PredEntry {
    fn new(index_positions: &[u16], range_specs: &[RangeSpec]) -> PredEntry {
        PredEntry {
            base: Arc::new(Segment::new(index_positions, range_specs)),
            tail: Segment::default(),
            stats: IndexStats::default(),
        }
    }

    /// Number of clauses across both segments.
    fn len(&self) -> usize {
        self.base.clauses.len() + self.tail.clauses.len()
    }

    /// The clauses in order: base, then tail.
    fn clauses(&self) -> impl Iterator<Item = &Arc<Clause>> + '_ {
        self.base.clauses.iter().chain(&self.tail.clauses)
    }

    fn push(&mut self, clause: Arc<Clause>) {
        if self.tail.clauses.is_empty() {
            if let Some(base) = Arc::get_mut(&mut self.base) {
                base.push(clause);
                return;
            }
            self.tail = self.base.empty_like();
        }
        self.tail.push(clause);
        if self.tail.clauses.len() > self.base.clauses.len() / TAIL_FOLD_DIVISOR {
            self.folded();
        }
    }

    /// Fold the tail into the base and return the base for editing in
    /// place, copying it first when a snapshot shares it.
    fn folded(&mut self) -> &mut Segment {
        let tail = std::mem::take(&mut self.tail);
        let base = Arc::make_mut(&mut self.base);
        for clause in tail.clauses {
            base.push(clause);
        }
        base
    }

    /// Remove the newest clause (the undo of an append).
    fn pop(&mut self) {
        let seg = if self.tail.clauses.is_empty() {
            self.folded()
        } else {
            &mut self.tail
        };
        seg.clauses.pop();
        seg.remove_index_positions(&[seg.clauses.len() as u32]);
    }
}

/// Result type a native predicate reports: `true` = succeed (bindings made
/// through the store stay), `false` = fail.
pub type NativeOutcome = EngineResult<bool>;

/// A semi-determinate native predicate: receives the bind store and the raw
/// (un-dereferenced) call arguments; may bind variables via
/// [`BindStore::unify`]; succeeds at most once.
pub type NativeFn = Arc<dyn Fn(&mut BindStore, &[Term]) -> NativeOutcome + Send + Sync>;

/// Recursive strongly-connected components of the call graph plus a
/// membership index into them.
type SccPartition = (Arc<Vec<Vec<PredKey>>>, FxHashMap<PredKey, usize>);

/// Lazily built dependency information, cleared on every epoch bump.
#[derive(Default)]
struct DepCache {
    graph: Option<Arc<DepGraph>>,
    snapshots: FxHashMap<PredKey, Arc<TableValidity>>,
    /// Members of one recursive component invalidate together (their
    /// answer sets were computed jointly), so they share one validity
    /// snapshot.
    sccs: Option<SccPartition>,
}

/// The clause store. See the module docs.
///
/// Entries are held behind [`Arc`] so a snapshot
/// ([`KnowledgeBase::snapshot`]) is a map of shared pointers rather than a
/// deep copy: writers copy-on-write the entries they touch
/// (`Arc::make_mut`), leaving every snapshot's view intact. Within an
/// entry the clauses sit in a shared base segment and a private tail, so
/// the copy an append makes under a pin is the tail's, not the whole
/// predicate's (DESIGN.md #16).
pub struct KnowledgeBase {
    preds: FxHashMap<PredKey, Arc<PredEntry>>,
    natives: FxHashMap<PredKey, NativeFn>,
    /// Index positions configured per predicate before/after its entry
    /// exists; default is first-argument indexing.
    index_config: FxHashMap<PredKey, Vec<u16>>,
    /// Range-index specs configured per predicate (empty by default).
    range_config: FxHashMap<PredKey, Vec<RangeSpec>>,
    indexing: bool,
    strict: bool,
    clause_count: usize,
    /// Modification counter: bumped by every operation that can change
    /// what is derivable. Cached table entries carry the epoch they were
    /// built at and are dropped on mismatch.
    epoch: u64,
    /// Master switch for tabled resolution (off by default).
    tabling_enabled: bool,
    /// Table every user predicate, not just the marked ones.
    table_all: bool,
    /// Predicates opted into tabling.
    tabled: FxHashSet<PredKey>,
    /// How SLG evaluation treats a recursive cycle: inductive (least
    /// fixpoint — a cycle with no independent base case fails) or
    /// coinductive (a cycle succeeds as its own evidence).
    cycle_policy: CyclePolicy,
    /// Predicates individually marked coinductive, regardless of the
    /// KB-wide default policy.
    coinductive: FxHashSet<PredKey>,
    /// The memoized answer cache shared by all solvers over this KB.
    table: AnswerTable,
    /// Per-predicate generation counters: bumped whenever that predicate's
    /// clauses or native implementation change. Predicates never touched
    /// are implicitly at generation 0. Table entries survive an epoch bump
    /// when every generation in their dependency closure is unchanged.
    generations: FxHashMap<PredKey, u64>,
    /// Structural-configuration generation: indexing on/off, per-predicate
    /// index layout, strict mode. These change solution order or error
    /// behavior without touching clauses, so they invalidate independently
    /// of the per-predicate counters.
    structural_gen: u64,
    /// Active delta recorder; `Some` while a transaction (or the rolling
    /// incremental-audit recorder) is collecting mutations.
    recorder: Option<Delta>,
    /// Lazily built dependency graph and per-predicate validity snapshots.
    dep_cache: Mutex<DepCache>,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        KnowledgeBase::new()
    }
}

impl std::fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("predicates", &self.preds.len())
            .field("clauses", &self.clause_count)
            .field("natives", &self.natives.len())
            .field("indexing", &self.indexing)
            .field("strict", &self.strict)
            .field("epoch", &self.epoch)
            .field("tabling", &self.tabling_enabled)
            .finish()
    }
}

impl KnowledgeBase {
    /// Empty knowledge base with indexing on and open-world (non-strict)
    /// call semantics.
    pub fn new() -> KnowledgeBase {
        KnowledgeBase {
            preds: FxHashMap::default(),
            natives: FxHashMap::default(),
            index_config: FxHashMap::default(),
            range_config: FxHashMap::default(),
            indexing: true,
            strict: false,
            clause_count: 0,
            epoch: 0,
            tabling_enabled: false,
            table_all: false,
            tabled: FxHashSet::default(),
            cycle_policy: CyclePolicy::Inductive,
            coinductive: FxHashSet::default(),
            table: AnswerTable::new(),
            generations: FxHashMap::default(),
            structural_gen: 0,
            recorder: None,
            dep_cache: Mutex::new(DepCache::default()),
        }
    }

    /// Record a change that can affect what is derivable: advance the
    /// epoch and drop the cached dependency graph and validity snapshots.
    /// Table entries built against an older epoch survive only if their
    /// recorded dependency generations still match (see
    /// [`crate::table::TableValidity`]).
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        let cache = self.dep_cache.get_mut();
        cache.graph = None;
        cache.snapshots.clear();
        cache.sccs = None;
    }

    /// Record a change confined to one predicate's clauses (or native):
    /// advance its generation, then the epoch.
    fn bump_pred(&mut self, key: PredKey) {
        *self.generations.entry(key).or_insert(0) += 1;
        self.bump_epoch();
    }

    /// Record a structural-configuration change (indexing, index layout,
    /// strict mode): advance the structural generation, then the epoch.
    fn bump_structural(&mut self) {
        self.structural_gen += 1;
        self.bump_epoch();
    }

    /// The current modification epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The generation counter of one predicate (0 if never mutated).
    pub fn generation(&self, key: PredKey) -> u64 {
        self.generations.get(&key).copied().unwrap_or(0)
    }

    /// Every non-zero predicate generation counter, unordered. A serving
    /// layer captures this *before* a transaction runs so the resulting
    /// [`CommitRecord`] can carry the pre-commit generations of the
    /// predicates the commit dirtied (absent here ⇒ generation 0).
    pub fn generations(&self) -> impl Iterator<Item = (PredKey, u64)> + '_ {
        self.generations.iter().map(|(&k, &g)| (k, g))
    }

    /// The structural-configuration generation.
    pub fn structural_generation(&self) -> u64 {
        self.structural_gen
    }

    /// Overwrite the validity counters (per-predicate generations and the
    /// modification epoch) with values restored from a checkpoint image.
    /// Clause content must already have been re-asserted; this realigns
    /// the counters so the restored KB is [`KnowledgeBase::content_eq`]
    /// to the one the image was taken from, and drops any dependency
    /// snapshots cached during the re-assertion.
    pub(crate) fn restore_validity(
        &mut self,
        generations: impl IntoIterator<Item = (PredKey, u64)>,
        epoch: u64,
    ) {
        self.generations = generations.into_iter().collect();
        self.epoch = epoch;
        let cache = self.dep_cache.get_mut();
        cache.graph = None;
        cache.snapshots.clear();
        cache.sccs = None;
    }

    // ----- tabling ----------------------------------------------------------

    /// Master switch for tabled resolution. Off by default; turning it on
    /// makes the solver consult the answer table for predicates marked via
    /// [`KnowledgeBase::mark_tabled`] (or all of them under
    /// [`KnowledgeBase::set_table_all`]).
    pub fn set_tabling(&mut self, on: bool) {
        if self.tabling_enabled == on {
            return;
        }
        self.tabling_enabled = on;
    }

    /// Whether tabled resolution is enabled.
    pub fn tabling_enabled(&self) -> bool {
        self.tabling_enabled
    }

    /// Table every user predicate instead of only the marked ones (still
    /// gated on [`KnowledgeBase::set_tabling`]).
    pub fn set_table_all(&mut self, on: bool) {
        if self.table_all == on {
            return;
        }
        self.table_all = on;
    }

    /// Whether all user predicates are tabled.
    pub fn table_all(&self) -> bool {
        self.table_all
    }

    /// Opt one predicate into tabling. Marking is independent of the
    /// master switch, so meta-models can mark their expensive predicates
    /// unconditionally and the user decides with
    /// [`KnowledgeBase::set_tabling`].
    pub fn mark_tabled(&mut self, key: PredKey) {
        self.tabled.insert(key);
    }

    /// Should calls to this predicate go through the answer table?
    pub fn is_tabled(&self, key: PredKey) -> bool {
        self.tabling_enabled && (self.table_all || self.tabled.contains(&key))
    }

    /// The shared answer table (diagnostics and the solver).
    pub fn table(&self) -> &AnswerTable {
        &self.table
    }

    /// Set the KB-wide default cycle policy for SLG evaluation. Changing
    /// it changes what recursive programs derive, so cached answer sets
    /// must not survive.
    pub fn set_cycle_policy(&mut self, policy: CyclePolicy) {
        if self.cycle_policy == policy {
            return;
        }
        self.cycle_policy = policy;
        self.bump_structural();
    }

    /// The KB-wide default cycle policy.
    pub fn cycle_policy(&self) -> CyclePolicy {
        self.cycle_policy
    }

    /// Mark one predicate coinductive: a recursive re-entry on its own
    /// call pattern succeeds (greatest-fixpoint reading) instead of
    /// failing, whatever the KB-wide policy says.
    pub fn mark_coinductive(&mut self, key: PredKey) {
        if self.coinductive.insert(key) {
            self.bump_structural();
        }
    }

    /// The cycle policy in force for calls to `key`.
    pub fn cycle_policy_of(&self, key: PredKey) -> CyclePolicy {
        if self.coinductive.contains(&key) {
            CyclePolicy::Coinductive
        } else {
            self.cycle_policy
        }
    }

    /// Enable/disable argument indexing. With indexing off, every call
    /// scans all clauses of the predicate — the 1986 baseline used by
    /// `bench_indexing`.
    pub fn set_indexing(&mut self, on: bool) {
        if self.indexing == on {
            return;
        }
        self.indexing = on;
        self.bump_structural();
    }

    /// Whether argument indexing is enabled.
    pub fn indexing(&self) -> bool {
        self.indexing
    }

    /// Configure which argument positions of `key` are indexed. Each call
    /// consults every configured index and follows the most selective one.
    /// The default is `[0]` (classic first-argument indexing). Positions
    /// beyond the predicate's arity are ignored.
    pub fn set_index_args(&mut self, key: PredKey, positions: &[usize]) {
        let positions: Vec<u16> = positions
            .iter()
            .filter(|&&p| p < key.arity as usize)
            .map(|&p| p as u16)
            .collect();
        if self.index_positions(key) == positions {
            return;
        }
        self.index_config.insert(key, positions.clone());
        if let Some(entry) = self.preds.get_mut(&key) {
            let entry = Arc::make_mut(entry).folded();
            entry.indexes = positions
                .iter()
                .map(|&pos| ArgIndex {
                    pos,
                    ..ArgIndex::default()
                })
                .collect();
            entry.rebuild_indexes();
        }
        self.bump_structural();
    }

    fn index_positions(&self, key: PredKey) -> Vec<u16> {
        self.index_config.get(&key).cloned().unwrap_or_else(|| {
            if key.arity > 0 {
                vec![0]
            } else {
                Vec::new()
            }
        })
    }

    /// Configure the full set of range indexes over `key` (replacing any
    /// previous configuration). Paths pointing past the predicate's arity
    /// are ignored.
    pub fn set_range_indexes(&mut self, key: PredKey, specs: Vec<RangeSpec>) {
        let specs: Vec<RangeSpec> = specs
            .into_iter()
            .filter(|spec| match spec {
                RangeSpec::Interval(p) => (p.pos as usize) < key.arity as usize,
                RangeSpec::Grid { x, y, .. } => {
                    (x.pos as usize) < key.arity as usize && (y.pos as usize) < key.arity as usize
                }
            })
            .collect();
        if self.range_specs(key) == specs {
            return;
        }
        if let Some(entry) = self.preds.get_mut(&key) {
            let entry = Arc::make_mut(entry).folded();
            entry.ranges = specs
                .iter()
                .map(|spec| RangeIndex::new(spec.clone()))
                .collect();
            entry.rebuild_indexes();
        }
        self.range_config.insert(key, specs);
        self.bump_structural();
    }

    /// Add one range index over `key`, keeping any already configured.
    /// Idempotent: re-adding an identical spec is a no-op (meta-model
    /// setup hooks may run more than once).
    pub fn add_range_index(&mut self, key: PredKey, spec: RangeSpec) {
        let mut specs = self.range_specs(key);
        if specs.contains(&spec) {
            return;
        }
        specs.push(spec);
        self.set_range_indexes(key, specs);
    }

    /// The range-index specs configured for `key`.
    pub fn range_specs(&self, key: PredKey) -> Vec<RangeSpec> {
        self.range_config.get(&key).cloned().unwrap_or_default()
    }

    /// In strict mode, calling a predicate with no clauses and no native
    /// implementation is an error; in the default open-world mode it simply
    /// fails (the fact is "undefined", §III.A).
    pub fn set_strict(&mut self, on: bool) {
        if self.strict == on {
            return;
        }
        self.strict = on;
        self.bump_structural();
    }

    /// Whether strict unknown-predicate mode is enabled.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Total number of stored clauses.
    pub fn clause_count(&self) -> usize {
        self.clause_count
    }

    /// Number of predicates with at least one clause.
    pub fn predicate_count(&self) -> usize {
        self.preds.len()
    }

    /// Assert a ground or universally quantified fact into the root group.
    pub fn assert_fact(&mut self, head: Term) {
        self.assert_clause_in(GroupId::root(), head, Term::atom("true"));
    }

    /// Assert `head :- body` into the root group.
    pub fn assert_clause(&mut self, head: Term, body: Term) {
        self.assert_clause_in(GroupId::root(), head, body);
    }

    /// Assert `head :- body` into `group`.
    ///
    /// # Panics
    ///
    /// Panics when the head is not callable or its arity exceeds
    /// [`PredKey::MAX_ARITY`]; use
    /// [`KnowledgeBase::try_assert_clause_in`] when the clause comes from
    /// untrusted input (a loader, the REPL).
    pub fn assert_clause_in(&mut self, group: GroupId, head: Term, body: Term) {
        if let Err(e) = self.try_assert_clause_in(group, head, body) {
            panic!("{e}");
        }
    }

    /// Assert `head :- body` into `group`, reporting an uncallable or
    /// oversized head as an error instead of panicking.
    pub fn try_assert_clause_in(
        &mut self,
        group: GroupId,
        head: Term,
        body: Term,
    ) -> EngineResult<()> {
        let Some(key) = PredKey::of_term(&head) else {
            return Err(match (head.functor(), head.arity()) {
                // Callable shape, but the arity doesn't fit a PredKey.
                (Some(name), Some(arity)) => EngineError::ArityOverflow { name, arity },
                _ => EngineError::UncallableHead { head },
            });
        };
        let clause = Arc::new(Clause::new(head, body, group));
        let positions = self.index_positions(key);
        let specs = self.range_specs(key);
        let entry = self
            .preds
            .entry(key)
            .or_insert_with(|| Arc::new(PredEntry::new(&positions, &specs)));
        Arc::make_mut(entry).push(Arc::clone(&clause));
        self.clause_count += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(DeltaOp::Assert { key, clause });
        }
        self.bump_pred(key);
        Ok(())
    }

    /// Retract every clause belonging to `group`, across all predicates.
    /// Returns the number of clauses removed.
    pub fn retract_group(&mut self, group: GroupId) -> usize {
        let mut removed: Vec<(PredKey, usize, Arc<Clause>)> = Vec::new();
        for (key, entry) in self.preds.iter_mut() {
            let before = removed.len();
            for (pos, clause) in entry.clauses().enumerate() {
                if clause.group == group {
                    removed.push((*key, pos, Arc::clone(clause)));
                }
            }
            if removed.len() != before {
                let positions: Vec<u32> = removed[before..]
                    .iter()
                    .map(|(_, p, _)| *p as u32)
                    .collect();
                let entry = Arc::make_mut(entry).folded();
                entry.remove_index_positions(&positions);
                entry.clauses.retain(|c| c.group != group);
            }
        }
        self.preds.retain(|_, e| e.len() > 0);
        let n = removed.len();
        self.clause_count -= n;
        if n > 0 {
            let touched: FxHashSet<PredKey> = removed.iter().map(|(k, _, _)| *k).collect();
            if let Some(rec) = self.recorder.as_mut() {
                rec.push(DeltaOp::RetractGroup { group, removed });
            }
            for key in touched {
                *self.generations.entry(key).or_insert(0) += 1;
            }
            self.bump_epoch();
        }
        n
    }

    /// Retract the first stored *fact* (clause with body `true`) whose
    /// head is structurally equal to `head`. Returns whether one was
    /// removed. This is the engine-level support for withdrawing a basic
    /// fact when the data it recorded is revised.
    pub fn retract_fact(&mut self, head: &Term) -> bool {
        let Some(key) = PredKey::of_term(head) else {
            return false;
        };
        let Some(entry) = self.preds.get_mut(&key) else {
            return false;
        };
        let truth = Term::atom("true");
        let Some(pos) = entry
            .clauses()
            .position(|c| c.body == truth && c.head == *head)
        else {
            return false;
        };
        let entry = Arc::make_mut(entry).folded();
        entry.remove_index_positions(&[pos as u32]);
        let clause = entry.clauses.remove(pos);
        if entry.clauses.is_empty() {
            self.preds.remove(&key);
        }
        self.clause_count -= 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(DeltaOp::RetractFact { key, pos, clause });
        }
        self.bump_pred(key);
        true
    }

    /// Retract all clauses of one predicate; returns how many were removed.
    pub fn retract_predicate(&mut self, key: PredKey) -> usize {
        match self.preds.remove(&key) {
            Some(entry) => {
                let n = entry.len();
                self.clause_count -= n;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(DeltaOp::RetractPredicate {
                        key,
                        clauses: entry.clauses().cloned().collect(),
                    });
                }
                self.bump_pred(key);
                n
            }
            None => 0,
        }
    }

    /// Does this group currently have any clauses?
    pub fn group_active(&self, group: GroupId) -> bool {
        self.preds
            .values()
            .any(|e| e.clauses().any(|c| c.group == group))
    }

    // ----- transactions & deltas -------------------------------------------

    /// Start recording mutations into a [`Delta`]. Idempotent: if a
    /// recorder is already active, the existing log keeps accumulating
    /// (transaction marks are positions into it, see
    /// [`KnowledgeBase::delta_len`]).
    pub fn begin_delta(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(Delta::new());
        }
    }

    /// Is a delta recorder active?
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Number of operations recorded so far (0 when not recording). Use as
    /// a transaction mark for [`KnowledgeBase::delta_since`] /
    /// [`KnowledgeBase::rollback_to`].
    pub fn delta_len(&self) -> usize {
        self.recorder.as_ref().map_or(0, Delta::len)
    }

    /// The operations recorded since `mark` (a previous
    /// [`KnowledgeBase::delta_len`]), as a standalone [`Delta`]. The
    /// recorder keeps running.
    pub fn delta_since(&self, mark: usize) -> Delta {
        self.recorder
            .as_ref()
            .map(|d| d.tail_from(mark))
            .unwrap_or_default()
    }

    /// Take everything recorded so far, leaving the recorder running and
    /// empty (the rolling-recorder mode the incremental audit uses).
    pub fn drain_delta(&mut self) -> Delta {
        self.recorder
            .as_mut()
            .map(Delta::drain_ops)
            .unwrap_or_default()
    }

    /// Stop recording and return the accumulated delta (`None` if no
    /// recorder was active).
    pub fn end_delta(&mut self) -> Option<Delta> {
        self.recorder.take()
    }

    /// Undo every recorded operation past `mark`, newest first, restoring
    /// the exact prior clause store (including clause positions — solution
    /// order is observable). Returns the number of operations undone. The
    /// recorder stays active, truncated to `mark`. Generations of the
    /// touched predicates are bumped, never restored: table entries built
    /// *during* the rolled-back window must not come back to life.
    pub fn rollback_to(&mut self, mark: usize) -> usize {
        let Some(mut rec) = self.recorder.take() else {
            return 0;
        };
        let mut touched: FxHashSet<PredKey> = FxHashSet::default();
        let mut undone = 0;
        while rec.len() > mark {
            let Some(op) = rec.pop() else {
                break;
            };
            undone += 1;
            self.unapply_op(op, &mut touched);
        }
        self.recorder = Some(rec);
        if undone > 0 {
            for key in touched {
                *self.generations.entry(key).or_insert(0) += 1;
            }
            self.bump_epoch();
        }
        undone
    }

    /// Undo one recorded operation, restoring the exact prior clause
    /// store (positions included). Collects the touched predicates into
    /// `touched`; generation/epoch accounting is the caller's job — the
    /// rollback path *bumps* them while the snapshot-reconstruction path
    /// *restores* recorded values.
    fn unapply_op(&mut self, op: DeltaOp, touched: &mut FxHashSet<PredKey>) {
        match op {
            DeltaOp::Assert { key, .. } => {
                touched.insert(key);
                if let Some(entry) = self.preds.get_mut(&key) {
                    let entry = Arc::make_mut(entry);
                    entry.pop();
                    if entry.len() == 0 {
                        self.preds.remove(&key);
                    }
                    self.clause_count -= 1;
                }
            }
            DeltaOp::RetractFact { key, pos, clause } => {
                touched.insert(key);
                self.insert_clause_at(key, pos, clause);
            }
            DeltaOp::RetractGroup { removed, .. } => {
                // Positions ascend per predicate, so reinserting in
                // recorded order restores the original interleaving.
                for (key, pos, clause) in removed {
                    touched.insert(key);
                    self.insert_clause_at(key, pos, clause);
                }
            }
            DeltaOp::RetractPredicate { key, clauses } => {
                touched.insert(key);
                for (pos, clause) in clauses.into_iter().enumerate() {
                    self.insert_clause_at(key, pos, clause);
                }
            }
        }
    }

    /// Re-apply one committed operation (WAL replay). Mirrors the original
    /// mutation exactly — clause positions *and* generation/epoch
    /// accounting — so replaying a committed delta from the same base
    /// state reproduces the live knowledge base: same clauses in the same
    /// order, same incremental indexes, same table-validity counters.
    pub fn apply_op(&mut self, op: &DeltaOp) {
        match op {
            DeltaOp::Assert { key, clause } => {
                let positions = self.index_positions(*key);
                let specs = self.range_specs(*key);
                let entry = self
                    .preds
                    .entry(*key)
                    .or_insert_with(|| Arc::new(PredEntry::new(&positions, &specs)));
                Arc::make_mut(entry).push(Arc::clone(clause));
                self.clause_count += 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(op.clone());
                }
                self.bump_pred(*key);
            }
            DeltaOp::RetractFact { key, pos, .. } => {
                let Some(entry) = self.preds.get_mut(key) else {
                    return;
                };
                if *pos >= entry.len() {
                    return;
                }
                let entry = Arc::make_mut(entry).folded();
                entry.remove_index_positions(&[*pos as u32]);
                entry.clauses.remove(*pos);
                if entry.clauses.is_empty() {
                    self.preds.remove(key);
                }
                self.clause_count -= 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(op.clone());
                }
                self.bump_pred(*key);
            }
            DeltaOp::RetractGroup { removed, .. } => {
                let mut by_pred: FxHashMap<PredKey, Vec<u32>> = FxHashMap::default();
                for (key, pos, _) in removed {
                    by_pred.entry(*key).or_default().push(*pos as u32);
                }
                for (key, positions) in &mut by_pred {
                    positions.sort_unstable();
                    let Some(entry) = self.preds.get_mut(key) else {
                        continue;
                    };
                    let entry = Arc::make_mut(entry).folded();
                    entry.remove_index_positions(positions);
                    for &p in positions.iter().rev() {
                        if (p as usize) < entry.clauses.len() {
                            entry.clauses.remove(p as usize);
                            self.clause_count -= 1;
                        }
                    }
                    if entry.clauses.is_empty() {
                        self.preds.remove(key);
                    }
                }
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(op.clone());
                }
                for key in by_pred.keys() {
                    *self.generations.entry(*key).or_insert(0) += 1;
                }
                self.bump_epoch();
            }
            DeltaOp::RetractPredicate { key, .. } => {
                if let Some(entry) = self.preds.remove(key) {
                    self.clause_count -= entry.len();
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.push(op.clone());
                    }
                    self.bump_pred(*key);
                }
            }
        }
    }

    // ----- MVCC snapshots ---------------------------------------------------

    /// A read-only view of the current state, built in O(#predicates):
    /// every clause entry is shared behind its `Arc` (writers copy-on-write
    /// the entries they later touch), the answer table is carried over as a
    /// snapshot clone (hits against it are reported separately, see
    /// [`crate::table::TableStats::snapshot_hits`]), and the delta recorder
    /// is *not* carried — snapshots are for readers.
    pub fn snapshot(&self) -> KnowledgeBase {
        KnowledgeBase {
            preds: self.preds.clone(),
            natives: self.natives.clone(),
            index_config: self.index_config.clone(),
            range_config: self.range_config.clone(),
            indexing: self.indexing,
            strict: self.strict,
            clause_count: self.clause_count,
            epoch: self.epoch,
            tabling_enabled: self.tabling_enabled,
            table_all: self.table_all,
            tabled: self.tabled.clone(),
            cycle_policy: self.cycle_policy,
            coinductive: self.coinductive.clone(),
            table: self.table.snapshot_clone(),
            generations: self.generations.clone(),
            structural_gen: self.structural_gen,
            recorder: None,
            dep_cache: Mutex::new(DepCache::default()),
        }
    }

    /// Materialize the state as of an older commit by *un*-applying the
    /// commits that came after it: `newer` holds every
    /// [`CommitRecord`] with a sequence number greater than the pinned
    /// one, oldest first. The reconstruction starts from a head snapshot
    /// (shared entries, no deep copy) and walks the chain newest-first,
    /// inverting each operation and restoring each record's pre-commit
    /// generation counters and epoch — so cached answers produced *after*
    /// the pinned commit fail validation against the snapshot while
    /// answers that were valid at pin time survive.
    pub fn snapshot_at(&self, newer: &[CommitRecord]) -> KnowledgeBase {
        let mut kb = self.snapshot();
        let mut touched = FxHashSet::default();
        for record in newer.iter().rev() {
            for op in record.delta.ops().iter().rev() {
                kb.unapply_op(op.clone(), &mut touched);
            }
            for &(key, gen) in &record.gens_before {
                kb.generations.insert(key, gen);
            }
            kb.epoch = record.epoch_before;
        }
        kb
    }

    /// Structural equality of the stored content: same predicates with the
    /// same clause lists in the same order (clause positions are observable
    /// through solution order), and the same effective generation counters
    /// and epoch. This is the crash-recovery equivalence the WAL tests
    /// assert: `recover(log)` must be `content_eq` to the live KB.
    pub fn content_eq(&self, other: &KnowledgeBase) -> bool {
        if self.clause_count != other.clause_count
            || self.epoch != other.epoch
            || self.preds.len() != other.preds.len()
        {
            return false;
        }
        for (key, entry) in &self.preds {
            let Some(theirs) = other.preds.get(key) else {
                return false;
            };
            if entry.len() != theirs.len() {
                return false;
            }
            let same = entry.clauses().zip(theirs.clauses()).all(|(a, b)| {
                a.head == b.head && a.body == b.body && a.group == b.group && a.n_vars == b.n_vars
            });
            if !same {
                return false;
            }
        }
        let keys: FxHashSet<PredKey> = self
            .generations
            .keys()
            .chain(other.generations.keys())
            .copied()
            .collect();
        keys.into_iter()
            .all(|k| self.generation(k) == other.generation(k))
    }

    /// Reinsert a clause at a recorded position (rollback support).
    fn insert_clause_at(&mut self, key: PredKey, pos: usize, clause: Arc<Clause>) {
        let positions = self.index_positions(key);
        let specs = self.range_specs(key);
        let entry = Arc::make_mut(
            self.preds
                .entry(key)
                .or_insert_with(|| Arc::new(PredEntry::new(&positions, &specs))),
        )
        .folded();
        let pos = pos.min(entry.clauses.len());
        entry.insert_index_position(pos as u32, &clause.head);
        entry.clauses.insert(pos, clause);
        self.clause_count += 1;
    }

    // ----- dependency snapshots --------------------------------------------

    /// The static dependency graph of the current clauses. Built lazily
    /// and cached until the next mutation.
    pub fn dep_graph(&self) -> Arc<DepGraph> {
        let mut cache = self.dep_cache.lock();
        if let Some(graph) = &cache.graph {
            return Arc::clone(graph);
        }
        let graph = Arc::new(DepGraph::build(self));
        cache.graph = Some(Arc::clone(&graph));
        graph
    }

    /// The validity snapshot a table entry for `key` should be built
    /// against (and checked against on lookup): the current epoch plus the
    /// generations of every predicate in `key`'s static dependency
    /// closure. Cached per predicate until the next mutation.
    pub fn dep_snapshot(&self, key: PredKey) -> Arc<TableValidity> {
        if let Some(snap) = self.dep_cache.lock().snapshots.get(&key) {
            return Arc::clone(snap);
        }
        let graph = self.dep_graph();
        // Predicates in one recursive strongly-connected component were
        // saturated jointly, so their snapshots are built over the whole
        // component's reachability and shared — one closure walk, and a
        // mutation anywhere in the component invalidates every member.
        let members = self.scc_members(key);
        let closure = match &members {
            Some(component) => graph.closure_of_all(component),
            None => graph.closure(key, ArgSpec::Any),
        };
        let snap = if closure.dynamic() {
            Arc::new(TableValidity::epoch_only(self.epoch))
        } else {
            let mut deps: Vec<(PredKey, u64)> =
                closure.preds().map(|k| (k, self.generation(k))).collect();
            deps.sort_by_key(|(k, _)| (k.name, k.arity));
            Arc::new(TableValidity {
                epoch: self.epoch,
                structural: self.structural_gen,
                dynamic: false,
                deps: Arc::new(deps),
            })
        };
        let mut cache = self.dep_cache.lock();
        cache.snapshots.insert(key, Arc::clone(&snap));
        if let Some(component) = members {
            for member in component {
                cache.snapshots.insert(member, Arc::clone(&snap));
            }
        }
        snap
    }

    /// The recursive strongly-connected components of the current call
    /// graph (lazily computed from the dependency graph, cached until the
    /// next mutation). Predicates absent from every component are not
    /// recursive.
    pub fn recursive_sccs(&self) -> Arc<Vec<Vec<PredKey>>> {
        if let Some((components, _)) = &self.dep_cache.lock().sccs {
            return Arc::clone(components);
        }
        let components = Arc::new(self.dep_graph().sccs());
        let mut membership = FxHashMap::default();
        for (i, component) in components.iter().enumerate() {
            for &member in component {
                membership.insert(member, i);
            }
        }
        self.dep_cache.lock().sccs = Some((Arc::clone(&components), membership));
        components
    }

    /// The members of `key`'s recursive component, if it has one.
    fn scc_members(&self, key: PredKey) -> Option<Vec<PredKey>> {
        let components = self.recursive_sccs();
        let cache = self.dep_cache.lock();
        let (_, membership) = cache.sccs.as_ref().expect("recursive_sccs fills the cache");
        membership.get(&key).map(|&i| components[i].clone())
    }

    /// Does `key` participate in a recursive cycle (directly or mutually)?
    pub fn is_recursive_pred(&self, key: PredKey) -> bool {
        self.recursive_sccs();
        let cache = self.dep_cache.lock();
        cache
            .sccs
            .as_ref()
            .is_some_and(|(_, membership)| membership.contains_key(&key))
    }

    /// Register a native predicate. Natives shadow clauses: if a predicate
    /// has a native implementation, its clauses (if any) are ignored.
    pub fn register_native(
        &mut self,
        name: &str,
        arity: usize,
        f: impl Fn(&mut BindStore, &[Term]) -> NativeOutcome + Send + Sync + 'static,
    ) {
        let key = PredKey::new(name, arity);
        self.natives.insert(key, Arc::new(f));
        self.bump_pred(key);
    }

    /// Look up a native implementation.
    pub fn native(&self, key: PredKey) -> Option<&NativeFn> {
        self.natives.get(&key)
    }

    /// Does the predicate have clauses or a native implementation?
    pub fn defined(&self, key: PredKey) -> bool {
        self.natives.contains_key(&key) || self.preds.contains_key(&key)
    }

    /// Candidate clauses for a call, in assertion order.
    ///
    /// With indexing enabled, every configured hash index whose call
    /// argument is bound is consulted and the most selective one wins;
    /// every applicable range index (exact numeric key, or an active
    /// `range_call` bound on an unbound variable in `bounds`) is
    /// *intersected* with it. No applicable index — or indexing off —
    /// returns all clauses of the predicate, borrowed.
    pub fn candidates<'kb>(
        &'kb self,
        key: PredKey,
        store: &BindStore,
        args: &[Term],
        bounds: &BoundSet,
    ) -> Candidates<'kb> {
        let Some(entry) = self.preds.get(&key) else {
            return Candidates::All((&[], &[]));
        };
        let clauses = (entry.base.clauses.as_slice(), entry.tail.clauses.as_slice());
        if !self.indexing {
            return Candidates::All(clauses);
        }
        entry.stats.consults.fetch_add(1, Ordering::Relaxed);
        // Each segment is selected from on its own, under the same index
        // layout; tail positions continue after the base's. An empty tail
        // is skipped, which leaves the single-segment selection.
        let base: &Segment = &entry.base;
        let segments: &[(&Segment, u32)] = &[(base, 0), (&entry.tail, clauses.0.len() as u32)];
        let segments = &segments[..if clauses.1.is_empty() { 1 } else { 2 }];
        // Pick the most selective applicable hash index, keeping its keyed
        // and variable positions in each segment.
        fn sel_len(sel: &[(&[u32], &[u32])]) -> usize {
            sel.iter()
                .map(|(keyed, vars)| keyed.len() + vars.len())
                .sum()
        }
        let mut best: Option<[(&[u32], &[u32]); 2]> = None;
        for (i, index) in base.indexes.iter().enumerate() {
            let Some(arg) = args.get(index.pos as usize) else {
                continue;
            };
            let Some(k) = ArgKey::of_call(store, arg) else {
                continue;
            };
            let mut sel: [(&[u32], &[u32]); 2] = [(&[], &[]); 2];
            for (s, (seg, _)) in sel.iter_mut().zip(segments) {
                *s = seg.hash_sel(i, &k);
            }
            if best.as_ref().is_none_or(|b| sel_len(&sel) < sel_len(b)) {
                best = Some(sel);
            }
        }
        // Collect every range selection that applies to this call. Whether
        // one applies depends on the call alone, so the tail's twin of an
        // applicable base index applies too (the fallback keeps every tail
        // clause, which is always sound).
        let mut range_sels: Vec<Vec<u32>> = Vec::new();
        for (j, rindex) in base.ranges.iter().enumerate() {
            let Some(mut sel) = rindex.select(store, args, bounds) else {
                continue;
            };
            for &(seg, offset) in &segments[1..] {
                let tail_sel = seg.ranges[j]
                    .select(store, args, bounds)
                    .unwrap_or_else(|| (0..seg.clauses.len() as u32).collect());
                sel.extend(tail_sel.into_iter().map(|p| p + offset));
            }
            range_sels.push(sel);
        }
        if best.is_none() && range_sels.is_empty() {
            entry.stats.scans.fetch_add(1, Ordering::Relaxed);
            return Candidates::All(clauses);
        }
        if best.is_some() {
            entry.stats.hash_hits.fetch_add(1, Ordering::Relaxed);
        }
        if !range_sels.is_empty() {
            entry.stats.range_hits.fetch_add(1, Ordering::Relaxed);
        }
        let mut pos = PosList::default();
        if range_sels.is_empty() {
            // Hash selection only: merge each segment's two sorted position
            // lists straight into the (usually inline) output — assertion
            // order is observable through solution order.
            let best = best.expect("checked non-empty selection");
            for (&(keyed, vars), &(_, offset)) in best.iter().zip(segments) {
                merge_sorted(keyed, vars, |p| pos.push(p + offset));
            }
        } else {
            // Intersect the hash selection (if any) with every range
            // selection; all lists ascend, so the result ascends.
            let mut sels = range_sels.into_iter();
            let mut acc: Vec<u32> = match best {
                Some(best) => {
                    let mut acc = Vec::with_capacity(sel_len(&best));
                    for (&(keyed, vars), &(_, offset)) in best.iter().zip(segments) {
                        merge_sorted(keyed, vars, |p| acc.push(p + offset));
                    }
                    acc
                }
                None => sels.next().expect("checked non-empty selection"),
            };
            for sel in sels {
                acc = intersect_sorted(&acc, &sel);
                if acc.is_empty() {
                    break;
                }
            }
            for p in acc {
                pos.push(p);
            }
        }
        entry
            .stats
            .pruned
            .fetch_add((entry.len() - pos.len()) as u64, Ordering::Relaxed);
        Candidates::Picked { clauses, pos }
    }

    /// Verify every index against a from-scratch rebuild of the same
    /// clause list — the incremental-maintenance invariant the property
    /// tests lean on — segment by segment, and that no tail has outgrown
    /// its fold bound. Returns a description of the first divergence.
    pub fn check_index_integrity(&self) -> Result<(), String> {
        for (key, entry) in &self.preds {
            let positions = self.index_positions(*key);
            let specs = self.range_specs(*key);
            if entry.tail.clauses.len() > entry.base.clauses.len() / TAIL_FOLD_DIVISOR {
                return Err(format!("tail of {key} outgrew its fold bound"));
            }
            // An empty tail holds nothing to index (and is never consulted).
            let segments = [("base", &*entry.base), ("tail", &entry.tail)];
            for (name, seg) in segments.into_iter().filter(|(_, s)| !s.clauses.is_empty()) {
                let mut fresh = Segment::new(&positions, &specs);
                for clause in &seg.clauses {
                    fresh.push(Arc::clone(clause));
                }
                if seg.indexes.len() != fresh.indexes.len() {
                    return Err(format!("hash index count of {key} ({name}) diverged"));
                }
                for (live, want) in seg.indexes.iter().zip(&fresh.indexes) {
                    if live.pos != want.pos
                        || live.var_clauses != want.var_clauses
                        || live.by_key != want.by_key
                    {
                        return Err(format!(
                            "hash index arg {} of {key} ({name}) diverged",
                            live.pos
                        ));
                    }
                }
                if seg.ranges.len() != fresh.ranges.len() {
                    return Err(format!("range index count of {key} ({name}) diverged"));
                }
                for (live, want) in seg.ranges.iter().zip(&fresh.ranges) {
                    if live.spec != want.spec
                        || live.unkeyed != want.unkeyed
                        || live.store != want.store
                    {
                        return Err(format!(
                            "range index {} of {key} ({name}) diverged",
                            live.spec
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-predicate index configuration and usage counters, sorted by
    /// predicate name and arity.
    pub fn index_stats(&self) -> Vec<IndexReport> {
        let mut out: Vec<IndexReport> = self
            .preds
            .iter()
            .map(|(key, entry)| IndexReport {
                pred: *key,
                clauses: entry.len(),
                hash_positions: entry.base.indexes.iter().map(|i| i.pos).collect(),
                range_specs: entry.base.ranges.iter().map(|r| r.spec.clone()).collect(),
                consults: entry.stats.consults.load(Ordering::Relaxed),
                hash_hits: entry.stats.hash_hits.load(Ordering::Relaxed),
                range_hits: entry.stats.range_hits.load(Ordering::Relaxed),
                pruned: entry.stats.pruned.load(Ordering::Relaxed),
                scans: entry.stats.scans.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| {
            (a.pred.name.as_str(), a.pred.arity).cmp(&(b.pred.name.as_str(), b.pred.arity))
        });
        out
    }

    /// All clauses of a predicate, in assertion order (diagnostics, tests).
    pub fn clauses_of(&self, key: PredKey) -> Vec<Arc<Clause>> {
        self.preds
            .get(&key)
            .map(|e| e.clauses().cloned().collect())
            .unwrap_or_default()
    }

    /// Iterate over every `(PredKey, clause)` pair (diagnostics).
    pub fn iter_clauses(&self) -> impl Iterator<Item = (PredKey, &Arc<Clause>)> + '_ {
        self.preds
            .iter()
            .flat_map(|(k, e)| e.clauses().map(move |c| (*k, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(name: &str, args: Vec<Term>) -> Term {
        Term::pred(name, args)
    }

    fn cands(kb: &KnowledgeBase, key: PredKey, args: Vec<Term>) -> Vec<Arc<Clause>> {
        kb.candidates(key, &BindStore::new(), &args, &BoundSet::default())
            .to_vec()
    }

    #[test]
    fn assert_and_count() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("road", vec![Term::atom("s1")]));
        kb.assert_fact(fact("road", vec![Term::atom("s2")]));
        assert_eq!(kb.clause_count(), 2);
        assert_eq!(kb.predicate_count(), 1);
    }

    #[test]
    fn candidates_filtered_by_first_arg() {
        let mut kb = KnowledgeBase::new();
        for i in 0..100 {
            kb.assert_fact(fact("road", vec![Term::atom(&format!("s{i}"))]));
        }
        let key = PredKey::new("road", 1);
        assert_eq!(cands(&kb, key, vec![Term::atom("s42")]).len(), 1);
        assert_eq!(cands(&kb, key, vec![Term::var(0)]).len(), 100);
    }

    #[test]
    fn var_headed_clauses_always_candidates() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("p", vec![Term::atom("a")]));
        kb.assert_clause(fact("p", vec![Term::var(0)]), Term::atom("true"));
        kb.assert_fact(fact("p", vec![Term::atom("b")]));
        let got = cands(&kb, PredKey::new("p", 1), vec![Term::atom("b")]);
        // The var-headed clause and the `b` clause, in assertion order.
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].head.args()[0], Term::var(0));
        assert_eq!(got[1].head.args()[0], Term::atom("b"));
    }

    #[test]
    fn unindexed_returns_everything() {
        let mut kb = KnowledgeBase::new();
        kb.set_indexing(false);
        for i in 0..10 {
            kb.assert_fact(fact("p", vec![Term::int(i)]));
        }
        assert_eq!(
            cands(&kb, PredKey::new("p", 1), vec![Term::int(3)]).len(),
            10
        );
    }

    #[test]
    fn compound_first_arg_indexed_by_functor() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("h", vec![Term::pred("pt", vec![Term::int(1)])]));
        kb.assert_fact(fact("h", vec![Term::pred("iv", vec![Term::int(1)])]));
        let got = cands(
            &kb,
            PredKey::new("h", 1),
            vec![Term::pred("pt", vec![Term::var(0)])],
        );
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn multi_arg_indexing_picks_most_selective() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("h", 3);
        kb.set_index_args(key, &[0, 2]);
        // 100 facts share the first arg; third arg is unique.
        for i in 0..100 {
            kb.assert_fact(fact(
                "h",
                vec![
                    Term::atom("omega"),
                    Term::int(i),
                    Term::atom(&format!("o{i}")),
                ],
            ));
        }
        // First arg bound only: all 100.
        assert_eq!(
            cands(
                &kb,
                key,
                vec![Term::atom("omega"), Term::var(0), Term::var(1)]
            )
            .len(),
            100
        );
        // Third arg bound too: the unique one wins.
        assert_eq!(
            cands(
                &kb,
                key,
                vec![Term::atom("omega"), Term::var(0), Term::atom("o42")]
            )
            .len(),
            1
        );
    }

    #[test]
    fn list_head_indexing_discriminates() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("h", 2);
        kb.set_index_args(key, &[1]);
        for i in 0..50 {
            kb.assert_fact(fact(
                "h",
                vec![
                    Term::atom("site"),
                    Term::list(vec![Term::atom(&format!("s{i}")), Term::int(i)]),
                ],
            ));
        }
        let got = cands(
            &kb,
            key,
            vec![
                Term::atom("site"),
                Term::list(vec![Term::atom("s7"), Term::int(7)]),
            ],
        );
        assert_eq!(got.len(), 1);
        // A list headed by a variable matches everything.
        let got = cands(
            &kb,
            key,
            vec![Term::atom("site"), Term::cons(Term::var(0), Term::var(1))],
        );
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn index_config_applies_before_first_assertion() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 2);
        kb.set_index_args(key, &[1]);
        kb.assert_fact(fact("p", vec![Term::atom("x"), Term::int(1)]));
        kb.assert_fact(fact("p", vec![Term::atom("x"), Term::int(2)]));
        assert_eq!(cands(&kb, key, vec![Term::var(0), Term::int(2)]).len(), 1);
    }

    #[test]
    fn call_args_deref_through_bindings() {
        let mut kb = KnowledgeBase::new();
        for i in 0..10 {
            kb.assert_fact(fact("p", vec![Term::int(i)]));
        }
        let mut store = BindStore::new();
        store.ensure(0);
        assert!(store.unify(&Term::var(0), &Term::int(3)));
        let got = kb.candidates(
            PredKey::new("p", 1),
            &store,
            &[Term::var(0)],
            &BoundSet::default(),
        );
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn group_retraction() {
        let mut kb = KnowledgeBase::new();
        let g = GroupId::named("cwa_meta_model");
        kb.assert_fact(fact("p", vec![Term::atom("base")]));
        kb.assert_clause_in(g, fact("p", vec![Term::atom("meta")]), Term::atom("true"));
        kb.assert_clause_in(g, fact("q", vec![Term::atom("meta")]), Term::atom("true"));
        assert!(kb.group_active(g));
        assert_eq!(kb.retract_group(g), 2);
        assert!(!kb.group_active(g));
        assert_eq!(kb.clause_count(), 1);
        // Index rebuilt: remaining clause still findable.
        assert_eq!(
            cands(&kb, PredKey::new("p", 1), vec![Term::atom("base")]).len(),
            1
        );
    }

    #[test]
    fn retract_fact_removes_exactly_one() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("p", vec![Term::int(1)]));
        kb.assert_fact(fact("p", vec![Term::int(2)]));
        kb.assert_clause(fact("p", vec![Term::int(3)]), Term::atom("q"));
        assert!(kb.retract_fact(&fact("p", vec![Term::int(1)])));
        assert!(!kb.retract_fact(&fact("p", vec![Term::int(1)])));
        // Rules are not facts: retract_fact must not touch them.
        assert!(!kb.retract_fact(&fact("p", vec![Term::int(3)])));
        assert_eq!(kb.clause_count(), 2);
        // Index rebuilt.
        assert_eq!(
            cands(&kb, PredKey::new("p", 1), vec![Term::int(2)]).len(),
            1
        );
    }

    #[test]
    fn retract_predicate_removes_all() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("p", vec![Term::int(1)]));
        kb.assert_fact(fact("p", vec![Term::int(2)]));
        assert_eq!(kb.retract_predicate(PredKey::new("p", 1)), 2);
        assert_eq!(kb.clause_count(), 0);
    }

    #[test]
    fn natives_are_found() {
        let mut kb = KnowledgeBase::new();
        kb.register_native("always", 0, |_, _| Ok(true));
        assert!(kb.native(PredKey::new("always", 0)).is_some());
        assert!(kb.defined(PredKey::new("always", 0)));
        assert!(!kb.defined(PredKey::new("nothing", 0)));
    }

    #[test]
    fn atom_fact_candidates() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::atom("raining"));
        assert_eq!(cands(&kb, PredKey::new("raining", 0), vec![]).len(), 1);
    }

    #[test]
    fn pred_key_arity_is_checked_not_truncated() {
        // `p/65537` must not become `p/1`: the checked constructors reject
        // it instead of letting the arities collide modulo 2^16.
        assert!(PredKey::try_new("p", PredKey::MAX_ARITY).is_some());
        assert!(PredKey::try_new("p", PredKey::MAX_ARITY + 1).is_none());
        assert!(PredKey::try_new("p", PredKey::MAX_ARITY + 2).is_none());
        let args: Vec<Term> = (0..PredKey::MAX_ARITY as u32 + 2).map(Term::var).collect();
        let oversized = Term::pred("p", args);
        assert_eq!(PredKey::of_term(&oversized), None);
        assert_eq!(
            PredKey::of_term(&Term::pred("p", vec![Term::var(0)])),
            Some(PredKey::new("p", 1))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 65535")]
    fn pred_key_new_panics_on_oversized_arity() {
        let _ = PredKey::new("p", PredKey::MAX_ARITY + 1);
    }

    #[test]
    fn noop_config_setters_leave_epoch_alone() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("p", vec![Term::atom("a")]));
        let epoch = kb.epoch();
        // Re-asserting the current values must not invalidate anything.
        kb.set_indexing(true);
        kb.set_strict(false);
        kb.set_tabling(false);
        kb.set_table_all(false);
        kb.set_index_args(PredKey::new("p", 1), &[0]);
        assert_eq!(kb.epoch(), epoch, "no-op setters bumped the epoch");
        assert_eq!(kb.structural_generation(), 0);
        // Actual changes still do.
        kb.set_strict(true);
        assert!(kb.epoch() > epoch);
        assert_eq!(kb.structural_generation(), 1);
    }

    #[test]
    fn try_assert_reports_bad_heads() {
        let mut kb = KnowledgeBase::new();
        let err = kb
            .try_assert_clause_in(GroupId::root(), Term::int(7), Term::atom("true"))
            .unwrap_err();
        assert!(matches!(err, crate::EngineError::UncallableHead { .. }));
        let args: Vec<Term> = (0..PredKey::MAX_ARITY as u32 + 1).map(Term::var).collect();
        let err = kb
            .try_assert_clause_in(GroupId::root(), Term::pred("p", args), Term::atom("true"))
            .unwrap_err();
        assert!(matches!(err, crate::EngineError::ArityOverflow { .. }));
        assert_eq!(kb.clause_count(), 0);
        assert_eq!(kb.epoch(), 0);
    }

    #[test]
    #[should_panic(expected = "not callable")]
    fn assert_clause_in_still_panics_on_uncallable_head() {
        let mut kb = KnowledgeBase::new();
        kb.assert_clause_in(GroupId::root(), Term::int(7), Term::atom("true"));
    }

    #[test]
    fn per_pred_generations_track_mutations() {
        let mut kb = KnowledgeBase::new();
        let p = PredKey::new("p", 1);
        let q = PredKey::new("q", 1);
        assert_eq!(kb.generation(p), 0);
        kb.assert_fact(fact("p", vec![Term::atom("a")]));
        assert_eq!(kb.generation(p), 1);
        assert_eq!(kb.generation(q), 0);
        kb.assert_fact(fact("q", vec![Term::atom("b")]));
        assert_eq!(kb.generation(p), 1);
        assert_eq!(kb.generation(q), 1);
        assert!(kb.retract_fact(&fact("p", vec![Term::atom("a")])));
        assert_eq!(kb.generation(p), 2);
        assert_eq!(kb.generation(q), 1);
    }

    #[test]
    fn dep_snapshot_survival_rule() {
        let mut kb = KnowledgeBase::new();
        kb.assert_clause(fact("a", vec![Term::var(0)]), fact("b", vec![Term::var(0)]));
        kb.assert_fact(fact("b", vec![Term::atom("x")]));
        kb.assert_fact(fact("unrelated", vec![Term::atom("y")]));
        let a = PredKey::new("a", 1);
        let before = kb.dep_snapshot(a);
        assert!(!before.dynamic);
        // Unrelated mutation: epoch moves, a's snapshot deps don't.
        kb.assert_fact(fact("unrelated", vec![Term::atom("z")]));
        let after = kb.dep_snapshot(a);
        assert_ne!(before.epoch, after.epoch);
        assert_eq!(before.deps, after.deps);
        // Mutation inside the closure: deps change.
        kb.assert_fact(fact("b", vec![Term::atom("w")]));
        let after2 = kb.dep_snapshot(a);
        assert_ne!(after.deps, after2.deps);
    }

    #[test]
    fn delta_records_and_rolls_back() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(fact("p", vec![Term::int(1)]));
        kb.assert_fact(fact("p", vec![Term::int(2)]));
        kb.assert_fact(fact("p", vec![Term::int(3)]));
        let snapshot: Vec<Term> = kb
            .clauses_of(PredKey::new("p", 1))
            .iter()
            .map(|c| c.head.clone())
            .collect();

        kb.begin_delta();
        let mark = kb.delta_len();
        kb.assert_fact(fact("p", vec![Term::int(4)]));
        assert!(kb.retract_fact(&fact("p", vec![Term::int(2)])));
        let g = GroupId::named("pack");
        kb.assert_clause_in(g, fact("q", vec![Term::atom("m")]), Term::atom("true"));
        assert_eq!(kb.retract_group(g), 1);
        assert_eq!(kb.retract_predicate(PredKey::new("p", 1)), 3);
        let delta = kb.delta_since(mark);
        assert_eq!(delta.len(), 5);
        assert!(delta.dirty_preds().contains(&PredKey::new("p", 1)));
        assert!(delta.dirty_preds().contains(&PredKey::new("q", 1)));

        let undone = kb.rollback_to(mark);
        assert_eq!(undone, 5);
        assert_eq!(kb.delta_len(), mark);
        // Exact clause list (order included) restored.
        let restored: Vec<Term> = kb
            .clauses_of(PredKey::new("p", 1))
            .iter()
            .map(|c| c.head.clone())
            .collect();
        assert_eq!(restored, snapshot);
        assert_eq!(kb.clause_count(), 3);
        assert!(!kb.group_active(g));
        // Index still consistent after the positional reinserts.
        assert_eq!(
            cands(&kb, PredKey::new("p", 1), vec![Term::int(2)]).len(),
            1
        );
    }

    #[test]
    fn rollback_restores_interleaved_group_positions() {
        let mut kb = KnowledgeBase::new();
        let g = GroupId::named("meta");
        kb.assert_fact(fact("p", vec![Term::int(0)]));
        kb.assert_clause_in(g, fact("p", vec![Term::int(1)]), Term::atom("true"));
        kb.assert_fact(fact("p", vec![Term::int(2)]));
        kb.assert_clause_in(g, fact("p", vec![Term::int(3)]), Term::atom("true"));
        let before: Vec<Term> = kb
            .clauses_of(PredKey::new("p", 1))
            .iter()
            .map(|c| c.head.clone())
            .collect();
        kb.begin_delta();
        assert_eq!(kb.retract_group(g), 2);
        kb.rollback_to(0);
        let after: Vec<Term> = kb
            .clauses_of(PredKey::new("p", 1))
            .iter()
            .map(|c| c.head.clone())
            .collect();
        assert_eq!(before, after);
        assert!(kb.group_active(g));
    }

    #[test]
    fn drain_delta_keeps_recorder_running() {
        let mut kb = KnowledgeBase::new();
        kb.begin_delta();
        kb.assert_fact(fact("p", vec![Term::int(1)]));
        let d = kb.drain_delta();
        assert_eq!(d.len(), 1);
        assert!(kb.recording());
        assert_eq!(kb.delta_len(), 0);
        kb.assert_fact(fact("p", vec![Term::int(2)]));
        assert_eq!(kb.delta_len(), 1);
        let rest = kb.end_delta().unwrap();
        assert_eq!(rest.len(), 1);
        assert!(!kb.recording());
    }

    #[test]
    fn out_of_range_index_positions_ignored() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 1);
        kb.set_index_args(key, &[0, 5]);
        kb.assert_fact(fact("p", vec![Term::atom("a")]));
        assert_eq!(cands(&kb, key, vec![Term::atom("a")]).len(), 1);
    }

    /// Candidates under an active `range_call`-style bound on a variable.
    fn range_cands(
        kb: &KnowledgeBase,
        key: PredKey,
        args: Vec<Term>,
        var: u32,
        range: NumRange,
    ) -> Vec<Term> {
        let mut store = BindStore::new();
        store.ensure(var);
        let mut bounds = BoundSet::default();
        bounds.insert(Var(var), range);
        kb.candidates(key, &store, &args, &bounds)
            .iter()
            .map(|c| c.head.clone())
            .collect()
    }

    #[test]
    fn interval_index_prunes_by_variable_bound() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("t", 2);
        kb.set_index_args(key, &[]);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(0))]);
        for i in 0..20 {
            kb.assert_fact(fact("t", vec![Term::int(i), Term::atom("x")]));
        }
        // A rule head with a variable key stays a candidate for every call.
        kb.assert_clause(
            fact("t", vec![Term::var(0), Term::atom("r")]),
            Term::atom("true"),
        );
        let got = range_cands(
            &kb,
            key,
            vec![Term::var(7), Term::var(8)],
            7,
            NumRange::new(3.0, true, 6.0, false),
        );
        // (3, 6] plus the unkeyed rule, in assertion order.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], fact("t", vec![Term::int(4), Term::atom("x")]));
        assert_eq!(got[2], fact("t", vec![Term::int(6), Term::atom("x")]));
        assert_eq!(got[3], fact("t", vec![Term::var(0), Term::atom("r")]));
        // Unconstrained variable: the index is inapplicable, full scan.
        assert_eq!(cands(&kb, key, vec![Term::var(9), Term::var(10)]).len(), 21);
        // Bound numeric key: degenerate point range.
        assert_eq!(cands(&kb, key, vec![Term::int(5), Term::var(10)]).len(), 2);
    }

    #[test]
    fn interval_index_follows_paths_and_rejects_mismatches() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("at", 1);
        kb.set_index_args(key, &[]);
        let path = ArgPath::arg(0).step("tat", 1, 0);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(path)]);
        for i in 0..10 {
            kb.assert_fact(fact("at", vec![Term::pred("tat", vec![Term::int(i)])]));
        }
        kb.assert_fact(fact("at", vec![Term::atom("any")]));
        let got = range_cands(
            &kb,
            key,
            vec![Term::pred("tat", vec![Term::var(3)])],
            3,
            NumRange::new(2.0, false, 4.0, true),
        );
        // [2, 4) keyed hits plus the `any` clause (unkeyed under the path).
        assert_eq!(got.len(), 3);
        // A call bound to a shape no keyed head can unify with selects the
        // unkeyed clauses only.
        let got = cands(&kb, key, vec![Term::atom("nowhere")]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].head, fact("at", vec![Term::atom("any")]));
    }

    #[test]
    fn grid_index_prunes_by_box() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("pt", 2);
        kb.set_index_args(key, &[]);
        kb.set_range_indexes(
            key,
            vec![RangeSpec::Grid {
                x: ArgPath::arg(0),
                y: ArgPath::arg(1),
                cell: 2.0,
            }],
        );
        for x in 0..10 {
            for y in 0..10 {
                kb.assert_fact(fact("pt", vec![Term::int(x), Term::int(y)]));
            }
        }
        let mut store = BindStore::new();
        store.ensure(1);
        let mut bounds = BoundSet::default();
        bounds.insert(Var(0), NumRange::new(2.0, false, 3.0, false));
        bounds.insert(Var(1), NumRange::new(7.0, false, 8.0, false));
        let got = kb
            .candidates(key, &store, &[Term::var(0), Term::var(1)], &bounds)
            .to_vec();
        // The grid over-approximates (whole cells), never under-selects.
        assert!(got.len() >= 4, "box must cover its hits");
        assert!(got.len() <= 36, "grid should prune most of the 100 points");
        for c in &got {
            let (Term::Int(_), Term::Int(_)) = (&c.head.args()[0], &c.head.args()[1]) else {
                panic!("grid candidates are points");
            };
        }
        // Exact point: both probes degenerate.
        let got = cands(&kb, key, vec![Term::int(5), Term::int(5)]);
        assert!(got.len() <= 4, "point lookup stays within one cell");
        assert!(got
            .iter()
            .any(|c| c.head == fact("pt", vec![Term::int(5), Term::int(5)])));
    }

    #[test]
    fn range_selection_intersects_hash_selection() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("r", 2);
        kb.set_index_args(key, &[0]);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(1))]);
        for m in ["m0", "m1"] {
            for v in 0..10 {
                kb.assert_fact(fact("r", vec![Term::atom(m), Term::int(v)]));
            }
        }
        let got = range_cands(
            &kb,
            key,
            vec![Term::atom("m0"), Term::var(2)],
            2,
            NumRange::new(4.0, true, f64::INFINITY, false),
        );
        // Hash (m0: 10) ∩ range (v > 4: 10) = 5.
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(
            |h| h.args()[0] == Term::atom("m0") && matches!(h.args()[1], Term::Int(v) if v > 4)
        ));
    }

    #[test]
    fn float_zero_keys_collapse_indexed_and_scanned() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("z", 1);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(0))]);
        kb.assert_fact(fact("z", vec![Term::float(-0.0)]));
        kb.assert_fact(fact("z", vec![Term::float(0.0)]));
        // -0.0 and 0.0 unify, so both hash and range lookups must return
        // both clauses whichever sign the call carries.
        for probe in [0.0, -0.0] {
            let got = cands(&kb, key, vec![Term::float(probe)]);
            assert_eq!(got.len(), 2, "±0.0 diverged for probe {probe}");
        }
        // Int and Float keys land in one numeric bucket; unification
        // decides (5 and 5.0 do not unify structurally).
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("n", 1);
        kb.set_index_args(key, &[]);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(0))]);
        kb.assert_fact(fact("n", vec![Term::int(5)]));
        kb.assert_fact(fact("n", vec![Term::float(5.0)]));
        assert_eq!(cands(&kb, key, vec![Term::int(5)]).len(), 2);
        assert_eq!(cands(&kb, key, vec![Term::float(5.0)]).len(), 2);
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("t", 2);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(1))]);
        let g = GroupId::named("pack");
        for i in 0..8 {
            kb.assert_fact(fact("t", vec![Term::atom("a"), Term::int(i)]));
        }
        kb.assert_clause_in(
            g,
            fact("t", vec![Term::atom("g"), Term::int(100)]),
            Term::atom("true"),
        );
        kb.assert_fact(fact("t", vec![Term::atom("b"), Term::int(8)]));
        kb.assert_clause_in(
            g,
            fact("t", vec![Term::atom("g"), Term::int(101)]),
            Term::atom("true"),
        );
        kb.check_index_integrity().expect("after asserts");
        assert!(kb.retract_fact(&fact("t", vec![Term::atom("a"), Term::int(3)])));
        kb.check_index_integrity().expect("after retract_fact");
        assert_eq!(kb.retract_group(g), 2);
        kb.check_index_integrity().expect("after retract_group");
        kb.begin_delta();
        let mark = kb.delta_len();
        kb.assert_fact(fact("t", vec![Term::atom("c"), Term::int(9)]));
        assert!(kb.retract_fact(&fact("t", vec![Term::atom("a"), Term::int(5)])));
        kb.retract_predicate(key);
        kb.check_index_integrity().expect("after retract_predicate");
        kb.rollback_to(mark);
        kb.check_index_integrity().expect("after rollback");
    }

    #[test]
    fn commit_under_a_pin_leaves_the_pinned_base_shared() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 1);
        for i in 0..256 {
            kb.assert_fact(fact("p", vec![Term::int(i)]));
        }
        // Unpinned appends land in the base, in place.
        assert!(kb.preds[&key].tail.clauses.is_empty());
        let pinned = kb.snapshot();
        let commit = |kb: &mut KnowledgeBase, i: i64| {
            kb.begin_delta();
            kb.assert_fact(fact("p", vec![Term::int(i)]));
            kb.end_delta();
        };
        commit(&mut kb, 256);
        assert!(Arc::ptr_eq(&kb.preds[&key].base, &pinned.preds[&key].base));
        assert_eq!(kb.preds[&key].tail.clauses.len(), 1);
        assert_eq!(pinned.clauses_of(key).len(), 256);
        assert_eq!(kb.clauses_of(key).len(), 257);
        // Tail positions continue after the base's.
        let got = cands(&kb, key, vec![Term::int(256)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].head, fact("p", vec![Term::int(256)]));
        kb.check_index_integrity().expect("base plus tail");
        // Rolling the append back pops the tail; the base stays shared.
        kb.begin_delta();
        kb.assert_fact(fact("p", vec![Term::int(999)]));
        kb.rollback_to(0);
        kb.end_delta();
        assert!(Arc::ptr_eq(&kb.preds[&key].base, &pinned.preds[&key].base));
        assert_eq!(kb.clauses_of(key).len(), 257);
        // Past 1/64 of the base the tail folds into a fresh base; the pin
        // keeps the old one.
        for i in 257..261 {
            commit(&mut kb, i);
        }
        assert!(!Arc::ptr_eq(&kb.preds[&key].base, &pinned.preds[&key].base));
        assert!(kb.preds[&key].tail.clauses.is_empty());
        assert_eq!(kb.clauses_of(key).len(), 261);
        assert_eq!(pinned.clauses_of(key).len(), 256);
        kb.check_index_integrity().expect("after the fold");
        pinned.check_index_integrity().expect("the pinned base");
    }

    #[test]
    fn index_stats_report_hits_and_prunes() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("t", 1);
        kb.set_index_args(key, &[]);
        kb.set_range_indexes(key, vec![RangeSpec::Interval(ArgPath::arg(0))]);
        for i in 0..10 {
            kb.assert_fact(fact("t", vec![Term::int(i)]));
        }
        let _ = cands(&kb, key, vec![Term::int(3)]);
        let _ = cands(&kb, key, vec![Term::var(0)]);
        let report = kb
            .index_stats()
            .into_iter()
            .find(|r| r.pred == key)
            .expect("t/1 reported");
        assert_eq!(report.clauses, 10);
        assert_eq!(report.consults, 2);
        assert_eq!(report.range_hits, 1);
        assert_eq!(report.scans, 1);
        assert_eq!(report.pruned, 9);
        assert_eq!(report.range_specs.len(), 1);
    }
}
