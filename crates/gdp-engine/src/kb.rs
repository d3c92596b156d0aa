//! The clause store.
//!
//! A [`KnowledgeBase`] holds Horn clauses grouped by predicate, with three
//! features the formalism leans on heavily:
//!
//! * **Path indexing.** Roman's prototype accepted "Prolog's
//!   computational inefficiency" (§I); reified facts make every fact a
//!   `holds/5` clause whose *first* argument (the model) is almost always
//!   the same atom, so classic first-argument indexing degenerates to a
//!   scan. A predicate can therefore be hash-indexed on several subterms,
//!   each named by an [`ArgPath`] from an argument position down through
//!   compound children ([`KnowledgeBase::set_index_args`]); each call
//!   follows its bindings down every path and intersects the selections
//!   of all the indexes whose subterm it binds. That is what lets the reified
//!   `h(M, S, T, Pred, [V, Obj])` of a fact `p(v)(o)` be selected by its
//!   object, the list's second element, and not only by its value, the
//!   first. Indexing can be disabled wholesale
//!   ([`KnowledgeBase::set_indexing`]) to act as the 1986-Prolog baseline
//!   in benchmarks.
//!
//! * **Clause groups.** Meta-models "may be activated on demand" (§IV.C):
//!   each clause belongs to a named [`GroupId`], and a whole group can be
//!   retracted in one call. Activating a meta-model asserts its rule pack
//!   under its group; deactivating retracts the group.
//!
//! * **One edit path.** Every change to the stored clauses is a
//!   [`DeltaOp`] that [`KnowledgeBase::apply_op`] performs: the public
//!   mutators only locate their target and build the op, WAL replay and
//!   checkpoint install hand theirs over, and rollback and pinned
//!   snapshots undo through one private inverse (see [`crate::delta`]).
//!
//! * **Native predicates** — semi-determinate Rust callbacks used for
//!   semantic-domain operations the paper treats as given (distance
//!   functions, resolution functions, interpolation, …).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::delta::{CommitRecord, Delta, DeltaOp};
use crate::deps::{ArgSpec, DepGraph};
use crate::error::{EngineError, EngineResult};
use crate::hash::{FxHashMap, FxHashSet};
use crate::symbol::Sym;
use crate::table::{AnswerSet, AnswerTable, CachedAnswer, CyclePolicy, TableValidity};
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

    /// The group named by an interned symbol.
    pub(crate) fn of(name: Sym) -> GroupId {
        GroupId(name)
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

/// Hash-index key of the subterm a hash index's [`ArgPath`] reaches.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ArgKey {
    Atom(Sym),
    Int(i64),
    Float(F64),
    Str(Arc<str>),
    /// Compounds (lists included) are keyed by functor/arity only; a path
    /// that goes on into the children keys a child instead. The arity is
    /// kept at full width — unlike [`PredKey`], an index key has no
    /// representation limit to enforce, and truncating here would be an
    /// avoidable (if sound: candidates are filtered by head unification)
    /// over-approximation.
    Functor(Sym, usize),
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
    /// The key of a term as it stands, bindings already followed. `None`
    /// for a variable, which unifies with every key.
    fn of(t: &Term) -> Option<ArgKey> {
        match t {
            Term::Var(_) => None,
            Term::Atom(s) => Some(ArgKey::Atom(*s)),
            Term::Int(i) => Some(ArgKey::Int(*i)),
            Term::Float(f) => Some(ArgKey::Float(canon_float(*f))),
            Term::Str(s) => Some(ArgKey::Str(s.clone())),
            Term::Compound(f, args) => Some(ArgKey::Functor(*f, args.len())),
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

/// A path from one head-argument position to a subterm: start at
/// argument `pos`, then follow `steps`. A hash index keys the subterm the
/// path reaches ([`KnowledgeBase::set_index_args`]); a range index keys
/// it when it is a number ([`RangeSpec`]). Under a range index a clause
/// whose head does not match the path (different shape, variable along
/// the way, non-numeric leaf) is *unkeyed* and stays a candidate for
/// every call.
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

    /// Walk `args` down the path, looking through `deref` at every level:
    /// the identity for a clause head, the bindings for a call.
    fn walk<'t>(&self, args: &'t [Term], deref: impl Fn(&'t Term) -> &'t Term) -> Reach<'t> {
        let Some(mut t) = args.get(self.pos as usize) else {
            return Reach::Off;
        };
        for step in &self.steps {
            match deref(t) {
                Term::Var(_) => return Reach::Open,
                Term::Compound(f, children) if step.matches(*f, children.len()) => {
                    match children.get(step.child) {
                        Some(child) => t = child,
                        None => return Reach::Off,
                    }
                }
                _ => return Reach::Off,
            }
        }
        Reach::At(deref(t))
    }

    /// The numeric key of `head`'s subterm at this path, if the walk
    /// matches and lands on a number.
    fn key_of(&self, head: &Term) -> Option<f64> {
        match self.walk(head.args(), |t| t) {
            Reach::At(Term::Int(i)) => Some(*i as f64),
            Reach::At(Term::Float(f)) => Some(canon_float(*f).get()),
            _ => None,
        }
    }

    /// Walk a *call*'s arguments, dereferencing at every level.
    fn probe(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> Probe {
        match self.walk(args, |t| store.deref(t)) {
            Reach::Open => Probe::Unconstrained,
            Reach::At(Term::Int(i)) => Probe::Range(NumRange::point(*i as f64)),
            Reach::At(Term::Float(f)) => Probe::Range(NumRange::point(canon_float(*f).get())),
            Reach::At(Term::Var(v)) => match bounds.get(*v) {
                Some(r) => Probe::Range(*r),
                None => Probe::Unconstrained,
            },
            // Bound to a different shape, or to a non-number where keyed
            // heads carry numbers: no *keyed* head can unify with this
            // call, so only unkeyed clauses are candidates.
            Reach::Off | Reach::At(_) => Probe::Mismatch,
        }
    }

    /// Does the call's subterm at this path carry an active `range_call`
    /// bound? Only then does the path probe as a range with `bounds` but
    /// as unconstrained without them (a bound number is a range either
    /// way).
    fn bounded(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> bool {
        matches!(self.probe(store, args, bounds), Probe::Range(_))
            && matches!(
                self.probe(store, args, &BoundSet::default()),
                Probe::Unconstrained
            )
    }
}

/// Where a walk down an [`ArgPath`] ends.
enum Reach<'t> {
    /// The subterm at the end of the path, bindings followed (a variable
    /// when the end is unbound).
    At(&'t Term),
    /// A variable along the way: the term may yet take the path's shape.
    Open,
    /// Another shape along the way: the term never reaches the path's end.
    Off,
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

impl RangeSpec {
    /// Does one of the spec's paths reach a `range_call`-bounded variable
    /// of the call?
    fn bounded(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> bool {
        match self {
            RangeSpec::Interval(path) => path.bounded(store, args, bounds),
            RangeSpec::Grid { x, y, .. } => {
                x.bounded(store, args, bounds) || y.bounded(store, args, bounds)
            }
        }
    }
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

    /// This index's selection for a call: the clauses whose key can lie in
    /// the constrained range, plus the unkeyed clauses, which are borrowed
    /// and never copied. `None` when the call carries no constraint this
    /// index can use (the caller falls back to its other selections).
    fn select(&self, store: &BindStore, args: &[Term], bounds: &BoundSet) -> Option<RangeSel<'_>> {
        let keyed: Cow<'_, [u32]> = match (&self.spec, &self.store) {
            (RangeSpec::Interval(path), RangeStore::Interval(map)) => {
                match path.probe(store, args, bounds) {
                    Probe::Mismatch => Cow::Borrowed(&[]),
                    Probe::Unconstrained => return None,
                    Probe::Range(r) => {
                        if r.is_empty() {
                            Cow::Borrowed(&[])
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
                            gather_buckets(map.range((lo, hi)).map(|(_, list)| list))
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
                    Cow::Borrowed(&[])
                } else {
                    let (Probe::Range(rx), Probe::Range(ry)) = (px, py) else {
                        return None;
                    };
                    if rx.is_empty() || ry.is_empty() {
                        Cow::Borrowed(&[])
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
                        let cells = (cx0..=cx1).flat_map(|cx| (cy0..=cy1).map(move |cy| (cx, cy)));
                        gather_buckets(cells.filter_map(|c| map.get(&c)))
                    }
                }
            }
            _ => unreachable!("range store shape matches its spec"),
        };
        Some(RangeSel {
            keyed,
            unkeyed: &self.unkeyed,
        })
    }
}

/// A range index's selection for one call: the keyed positions the call's
/// range admits (borrowed when they sit in one bucket) and the index's
/// unkeyed positions, borrowed. The two lists are disjoint and ascending.
struct RangeSel<'a> {
    keyed: Cow<'a, [u32]>,
    unkeyed: &'a [u32],
}

impl RangeSel<'_> {
    fn sel(&self) -> Sel<'_> {
        Sel::Lists(&self.keyed, self.unkeyed)
    }
}

/// The range indexes among `ranges` that apply to a call, by index
/// number, with their selections.
fn applicable_ranges<'a>(
    ranges: &'a [RangeIndex],
    store: &BindStore,
    args: &[Term],
    bounds: &BoundSet,
) -> Vec<(usize, RangeSel<'a>)> {
    ranges
        .iter()
        .enumerate()
        .filter_map(|(j, rindex)| Some((j, rindex.select(store, args, bounds)?)))
        .collect()
}

/// The positions of several keyed buckets, ascending: one bucket is
/// borrowed as it is, more are copied together and sorted.
fn gather_buckets<'a>(mut buckets: impl Iterator<Item = &'a Vec<u32>>) -> Cow<'a, [u32]> {
    let Some(first) = buckets.next() else {
        return Cow::Borrowed(&[]);
    };
    let Some(second) = buckets.next() else {
        return Cow::Borrowed(first);
    };
    let mut out = [first.as_slice(), second].concat();
    for list in buckets {
        out.extend_from_slice(list);
    }
    out.sort_unstable();
    Cow::Owned(out)
}

/// A predicate's range indexes over one completed answer set
/// ([`AnswerSet`]). An answer is an instance of the call's head shape, so
/// each [`RangeSpec`] keys it exactly as it keys a clause head; positions
/// are answer positions instead of clause positions.
pub(crate) struct AnswerIndex {
    ranges: Vec<RangeIndex>,
}

impl AnswerIndex {
    fn build(specs: &[RangeSpec], answers: &[CachedAnswer]) -> AnswerIndex {
        let mut ranges: Vec<RangeIndex> = specs.iter().cloned().map(RangeIndex::new).collect();
        for (pos, answer) in answers.iter().enumerate() {
            for rindex in &mut ranges {
                rindex.insert(pos as u32, &answer.term);
            }
        }
        AnswerIndex { ranges }
    }
}

/// `arg(4)/'.'[1]/'.'[0]`: the argument position, then each step's
/// functor (alternatives braced, `{su|ss|sa}`) and child index.
impl std::fmt::Display for ArgPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arg({})", self.pos)?;
        for step in &self.steps {
            let names: Vec<String> = step
                .functors
                .iter()
                .map(|&(s, _)| {
                    let name = s.as_str();
                    let bare = name.starts_with(|c: char| c.is_ascii_lowercase())
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                    if bare {
                        name.to_string()
                    } else {
                        format!("'{name}'")
                    }
                })
                .collect();
            match names.as_slice() {
                [one] => write!(f, "/{one}[{}]", step.child)?,
                _ => write!(f, "/{{{}}}[{}]", names.join("|"), step.child)?,
            }
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

/// Classic first-argument indexing, the default hash index.
static FIRST_ARG: [ArgPath; 1] = [ArgPath {
    pos: 0,
    steps: Vec::new(),
}];

/// The hash-index paths configured for `key`: the first argument unless
/// [`KnowledgeBase::set_index_args`] said otherwise.
fn configured_paths(config: &FxHashMap<PredKey, Vec<ArgPath>>, key: PredKey) -> &[ArgPath] {
    match config.get(&key) {
        Some(paths) => paths,
        None if key.arity > 0 => &FIRST_ARG,
        None => &[],
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

/// One index's selection within one segment, as [`intersect_segments`]
/// walks and probes it.
#[derive(Clone, Copy)]
enum Sel<'a> {
    /// Two disjoint ascending lists: a hash index's keyed and variable
    /// positions, or a range index's keyed and unkeyed positions. A probe
    /// cuts each list down to its part not below the position probed.
    Lists(&'a [u32], &'a [u32]),
    /// Every position below the count: a segment an applicable range
    /// index selects nothing usable from, which keeps every clause.
    Below(u32),
}

impl Sel<'_> {
    fn len(&self) -> usize {
        match *self {
            Sel::Lists(a, b) => a.len() + b.len(),
            Sel::Below(n) => n as usize,
        }
    }

    /// Does the selection hold `p`? Probes must come in ascending order of
    /// `p`: each one moves the lists' fronts forward past the positions
    /// below `p`.
    fn holds(&mut self, p: u32) -> bool {
        match self {
            Sel::Lists(a, b) => gallop_to(a, p) || gallop_to(b, p),
            Sel::Below(n) => p < *n,
        }
    }
}

/// Drop the positions below `p` from the front of the ascending `list`,
/// and say whether `p` is then its first. The search gallops: it probes 1,
/// 2, 4, … places ahead and binary-searches the last stride, so a walk of
/// ascending probes costs one pass over a list of similar size and about
/// a logarithm per probe over a much longer one.
fn gallop_to(list: &mut &[u32], p: u32) -> bool {
    if list.first().is_some_and(|&q| q < p) {
        let mut stride = 1;
        while stride < list.len() && list[stride] < p {
            stride *= 2;
        }
        // `list[stride / 2] < p`, and `list[stride] >= p` or past the end.
        let from = stride / 2 + 1;
        let to = stride.min(list.len());
        *list = &list[from + list[from..to].partition_point(|&q| q < p)..];
    }
    list.first() == Some(&p)
}

/// A short list kept on the stack: up to `N` items inline, the whole list
/// moved to the heap past that. Selection gathers its handful of per-call
/// selections here, so a call allocates nothing for them.
struct Short<T: Copy, const N: usize> {
    len: usize,
    inline: [T; N],
    heap: Vec<T>,
}

impl<T: Copy, const N: usize> Short<T, N> {
    /// An empty list; `fill` only initialises the inline slots.
    fn new(fill: T) -> Short<T, N> {
        Short {
            len: 0,
            inline: [fill; N],
            heap: Vec::new(),
        }
    }

    fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(item);
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

/// One applicable hash index's selection: its keyed and variable
/// positions in the base segment, then in the tail.
type HashSel<'a> = [(&'a [u32], &'a [u32]); 2];

/// Hand `push` the positions, ascending, that every applicable hash
/// selection in `hash` and every applicable range index hold. `segments`
/// gives each segment's range indexes, length and offset; `applicable`
/// holds the range indexes that apply to the call, by index number, with
/// their selections over the first segment. Whether one applies depends
/// on the call alone, so a later segment selects through the same
/// indexes, and keeps every position where one selects nothing usable.
///
/// Within a segment the smallest selection is walked and a position kept
/// only if every other selection holds it: the cost follows the smallest
/// selection, not the largest, and no list is copied (DESIGN.md #12).
fn intersect_segments(
    segments: &[(&[RangeIndex], u32, u32)],
    hash: &[HashSel<'_>],
    applicable: &[(usize, RangeSel<'_>)],
    (store, args, bounds): (&BindStore, &[Term], &BoundSet),
    mut push: impl FnMut(u32),
) {
    for (s, &(ranges, len, offset)) in segments.iter().enumerate() {
        let later: Vec<Option<RangeSel<'_>>> = match s {
            0 => Vec::new(),
            _ => applicable
                .iter()
                .map(|&(j, _)| ranges[j].select(store, args, bounds))
                .collect(),
        };
        let mut sels: Short<Sel<'_>, 16> = Short::new(Sel::Below(0));
        for h in hash {
            sels.push(Sel::Lists(h[s].0, h[s].1));
        }
        match s {
            0 => applicable.iter().for_each(|(_, r)| sels.push(r.sel())),
            _ => later
                .iter()
                .for_each(|r| sels.push(r.as_ref().map_or(Sel::Below(len), RangeSel::sel))),
        }
        let sels = sels.as_mut_slice();
        let smallest = (0..sels.len())
            .min_by_key(|&i| sels[i].len())
            .expect("a selection applies");
        sels.swap(0, smallest);
        let (walk, rest) = sels.split_first_mut().expect("a selection applies");
        let mut keep = |p: u32| {
            if rest.iter_mut().all(|sel| sel.holds(p)) {
                push(p + offset);
            }
        };
        match *walk {
            Sel::Lists(a, b) => merge_sorted(a, b, &mut keep),
            Sel::Below(n) => (0..n).for_each(&mut keep),
        }
    }
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
    /// Paths of the hash indexes.
    pub hash_paths: Vec<ArgPath>,
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

/// The positions one hash key holds, ascending: one inline, as almost
/// every key of an object or a value column holds, or a list of two or
/// more. Copying a segment (a commit under a pin copies its tail) then
/// allocates only for the keys that several clauses share.
#[derive(Clone, PartialEq, Debug)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(p) => std::slice::from_ref(p),
            Bucket::Many(list) => list,
        }
    }

    /// Append a position past every held one.
    fn push(&mut self, at: u32) {
        match self {
            Bucket::One(p) => *self = Bucket::Many(vec![*p, at]),
            Bucket::Many(list) => list.push(at),
        }
    }

    /// [`sorted_insert`] for a bucket.
    fn sorted_insert(&mut self, at: u32) {
        match self {
            Bucket::One(p) if *p < at => *self = Bucket::Many(vec![*p, at]),
            Bucket::One(p) => *self = Bucket::Many(vec![at, *p]),
            Bucket::Many(list) => sorted_insert(list, at),
        }
    }

    /// [`shift_for_insert`] for a bucket.
    fn shift_for_insert(&mut self, at: u32) {
        match self {
            Bucket::One(p) => shift_for_insert(std::slice::from_mut(p), at),
            Bucket::Many(list) => shift_for_insert(list, at),
        }
    }

    /// [`remap_after_removal`] for a bucket; `false` when nothing is
    /// left. A single survivor goes back inline.
    fn remap_after_removal(&mut self, removed: &[u32]) -> bool {
        match self {
            Bucket::One(p) => match removed.binary_search(p) {
                Ok(_) => false,
                Err(below) => {
                    *p -= below as u32;
                    true
                }
            },
            Bucket::Many(list) => {
                remap_after_removal(list, removed);
                if let [p] = list[..] {
                    *self = Bucket::One(p);
                }
                !self.as_slice().is_empty()
            }
        }
    }
}

/// One hash index: clause positions by the key of the subterm `path`
/// reaches in each head. A head with another shape on the path sits in
/// no list: no call that reaches the key can unify with it, and a call
/// that does not reach the key does not consult the index.
#[derive(Clone)]
struct ArgIndex {
    path: ArgPath,
    by_key: FxHashMap<ArgKey, Bucket>,
    /// Positions of clauses whose walk down `path` meets a variable: they
    /// can unify with any call.
    var_clauses: Vec<u32>,
}

impl ArgIndex {
    fn new(path: ArgPath) -> ArgIndex {
        ArgIndex {
            path,
            by_key: FxHashMap::default(),
            var_clauses: Vec::new(),
        }
    }

    /// Where `head` belongs: `Some(Some(key))` in its key's bucket,
    /// `Some(None)` on the variable side, `None` in no list.
    fn slot_of(&self, head: &Term) -> Option<Option<ArgKey>> {
        match self.path.walk(head.args(), |t| t) {
            Reach::Off => None,
            Reach::Open => Some(None),
            Reach::At(t) => Some(ArgKey::of(t)),
        }
    }

    /// The key a call binds at `path`, following its bindings: `None`
    /// when the call leaves the path open or takes another shape on it,
    /// and the index cannot serve it.
    fn call_key(&self, store: &BindStore, args: &[Term]) -> Option<ArgKey> {
        match self.path.walk(args, |t| store.deref(t)) {
            Reach::At(t) => ArgKey::of(t),
            Reach::Open | Reach::Off => None,
        }
    }

    fn insert(&mut self, clause_pos: u32, head: &Term) {
        match self.slot_of(head) {
            Some(Some(key)) => {
                self.by_key
                    .entry(key)
                    .and_modify(|bucket| bucket.push(clause_pos))
                    .or_insert(Bucket::One(clause_pos));
            }
            Some(None) => self.var_clauses.push(clause_pos),
            None => {}
        }
    }

    fn remove_positions(&mut self, removed: &[u32]) {
        remap_after_removal(&mut self.var_clauses, removed);
        self.by_key
            .retain(|_, bucket| bucket.remap_after_removal(removed));
    }

    fn insert_at(&mut self, at: u32, head: &Term) {
        shift_for_insert(&mut self.var_clauses, at);
        for bucket in self.by_key.values_mut() {
            bucket.shift_for_insert(at);
        }
        match self.slot_of(head) {
            Some(Some(key)) => {
                self.by_key
                    .entry(key)
                    .and_modify(|bucket| bucket.sorted_insert(at))
                    .or_insert(Bucket::One(at));
            }
            Some(None) => sorted_insert(&mut self.var_clauses, at),
            None => {}
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
    fn new(index_paths: &[ArgPath], range_specs: &[RangeSpec]) -> Segment {
        Segment {
            clauses: Vec::new(),
            indexes: index_paths.iter().cloned().map(ArgIndex::new).collect(),
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
                .map(|index| ArgIndex::new(index.path.clone()))
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
            index.by_key.get(key).map(Bucket::as_slice).unwrap_or(&[]),
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

    /// Remove the clauses at `removed` (ascending, distinct, in range)
    /// in one pass, and their index positions.
    fn remove(&mut self, removed: &[u32]) {
        self.remove_index_positions(removed);
        let mut pos = 0;
        let mut next = removed.iter().peekable();
        self.clauses.retain(|_| {
            let hit = next.next_if_eq(&&pos).is_some();
            pos += 1;
            !hit
        });
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
    fn new(index_paths: &[ArgPath], range_specs: &[RangeSpec]) -> PredEntry {
        PredEntry {
            base: Arc::new(Segment::new(index_paths, range_specs)),
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
    /// Hash-index paths configured per predicate before/after its entry
    /// exists; default is first-argument indexing.
    index_config: FxHashMap<PredKey, Vec<ArgPath>>,
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
    /// The open transaction's recording; `Some` between
    /// [`KnowledgeBase::begin_delta`] and its end or rollback.
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
        self.bump_preds([key]);
    }

    /// Record a change to several predicates' clauses: advance each one's
    /// generation, then the epoch once.
    fn bump_preds(&mut self, keys: impl IntoIterator<Item = PredKey>) {
        for key in keys {
            *self.generations.entry(key).or_insert(0) += 1;
        }
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

    /// Configure the hash indexes of `key`, one per path: a top-level
    /// argument is [`ArgPath::arg`], and a longer path keys a subterm
    /// inside one. Each call follows its bindings down every path, and the
    /// most selective index whose subterm the call binds wins. The default
    /// is `[ArgPath::arg(0)]` (classic first-argument indexing). Paths
    /// starting beyond the predicate's arity are ignored.
    pub fn set_index_args(&mut self, key: PredKey, paths: &[ArgPath]) {
        let paths: Vec<ArgPath> = paths
            .iter()
            .filter(|p| (p.pos as usize) < key.arity as usize)
            .cloned()
            .collect();
        if configured_paths(&self.index_config, key) == paths {
            return;
        }
        if let Some(entry) = self.preds.get_mut(&key) {
            let entry = Arc::make_mut(entry).folded();
            entry.indexes = paths.iter().cloned().map(ArgIndex::new).collect();
            entry.rebuild_indexes();
        }
        self.index_config.insert(key, paths);
        self.bump_structural();
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
        self.apply_op(DeltaOp::Assert { key, clause });
        Ok(())
    }

    /// Retract every clause belonging to `group`, across all predicates.
    /// Returns the number of clauses removed.
    pub fn retract_group(&mut self, group: GroupId) -> usize {
        let removed: Vec<(PredKey, usize, Arc<Clause>)> = self
            .preds
            .iter()
            .flat_map(|(&key, entry)| {
                entry
                    .clauses()
                    .enumerate()
                    .filter(|(_, clause)| clause.group == group)
                    .map(move |(pos, clause)| (key, pos, Arc::clone(clause)))
            })
            .collect();
        let n = removed.len();
        if n > 0 {
            self.apply_op(DeltaOp::RetractGroup { group, removed });
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
        let truth = Term::atom("true");
        let Some((pos, clause)) = self.preds.get(&key).and_then(|entry| {
            entry
                .clauses()
                .enumerate()
                .find(|(_, c)| c.body == truth && c.head == *head)
        }) else {
            return false;
        };
        let clause = Arc::clone(clause);
        self.apply_op(DeltaOp::RetractFact { key, pos, clause });
        true
    }

    /// Retract all clauses of one predicate; returns how many were removed.
    pub fn retract_predicate(&mut self, key: PredKey) -> usize {
        let Some(entry) = self.preds.get(&key) else {
            return 0;
        };
        let clauses: Vec<Arc<Clause>> = entry.clauses().cloned().collect();
        let n = clauses.len();
        self.apply_op(DeltaOp::RetractPredicate { key, clauses });
        n
    }

    /// Does this group currently have any clauses?
    pub fn group_active(&self, group: GroupId) -> bool {
        self.preds
            .values()
            .any(|e| e.clauses().any(|c| c.group == group))
    }

    // ----- transactions & deltas -------------------------------------------

    /// Start recording one transaction: every edit from here until
    /// [`KnowledgeBase::end_delta`] or [`KnowledgeBase::rollback`] joins
    /// the recording. Recordings do not nest; beginning while one is open
    /// keeps the open one.
    pub fn begin_delta(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(Delta::new());
        }
    }

    /// Is a transaction being recorded?
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// The open recording, oldest operation first (`None` when not
    /// recording).
    pub fn recorded(&self) -> Option<&Delta> {
        self.recorder.as_ref()
    }

    /// Stop recording and return the recorded delta (`None` if no
    /// recording was open).
    pub fn end_delta(&mut self) -> Option<Delta> {
        self.recorder.take()
    }

    /// Undo the recording, newest operation first, and end it: the exact
    /// prior clause store comes back, clause positions included (solution
    /// order is observable). Returns the number of operations undone.
    /// Generations of the touched predicates are bumped, never restored:
    /// table entries built *during* the rolled-back window must not come
    /// back to life.
    pub fn rollback(&mut self) -> usize {
        let Some(mut rec) = self.recorder.take() else {
            return 0;
        };
        let undone = rec.len();
        let mut touched: FxHashSet<PredKey> = FxHashSet::default();
        while let Some(op) = rec.pop() {
            self.unapply_op(op, &mut touched);
        }
        if undone > 0 {
            self.bump_preds(touched);
        }
        undone
    }

    /// Apply one edit. This is the only code that moves the clause store
    /// forward: each public mutator only locates its target and builds the
    /// operation, and WAL replay and checkpoint install hand theirs over
    /// directly, so replaying a committed delta from the same base state
    /// reproduces the live knowledge base by construction — same clauses
    /// in the same order, same incremental indexes, same generation
    /// counters and epoch. While recording, the operation joins the
    /// recording. A retract that names no stored clause changes nothing
    /// and is not recorded.
    pub fn apply_op(&mut self, op: DeltaOp) {
        match &op {
            DeltaOp::Assert { key, clause } => {
                self.entry_mut(*key).push(Arc::clone(clause));
                self.clause_count += 1;
                self.bump_pred(*key);
            }
            DeltaOp::RetractFact { key, pos, .. } => {
                if self.remove_positions(*key, vec![*pos as u32]) == 0 {
                    return;
                }
                self.bump_pred(*key);
            }
            DeltaOp::RetractGroup { removed, .. } => {
                // Predicates are edited in the order they first appear,
                // which is the order the live store located them in.
                let mut by_pred: Vec<(PredKey, Vec<u32>)> = Vec::new();
                for &(key, pos, _) in removed {
                    match by_pred.iter_mut().rfind(|(k, _)| *k == key) {
                        Some((_, positions)) => positions.push(pos as u32),
                        None => by_pred.push((key, vec![pos as u32])),
                    }
                }
                let mut touched = Vec::with_capacity(by_pred.len());
                for (key, positions) in by_pred {
                    if self.remove_positions(key, positions) > 0 {
                        touched.push(key);
                    }
                }
                if touched.is_empty() {
                    return;
                }
                self.bump_preds(touched);
            }
            DeltaOp::RetractPredicate { key, .. } => {
                let Some(entry) = self.preds.remove(key) else {
                    return;
                };
                self.clause_count -= entry.len();
                self.bump_pred(*key);
            }
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(op);
        }
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

    /// The entry of `key` for editing, created with the predicate's
    /// configured hash and range indexes only when it holds no clauses yet.
    fn entry_mut(&mut self, key: PredKey) -> &mut PredEntry {
        let KnowledgeBase {
            preds,
            index_config,
            range_config,
            ..
        } = self;
        let entry = preds.entry(key).or_insert_with(|| {
            let specs = range_config.get(&key).map_or(&[][..], Vec::as_slice);
            Arc::new(PredEntry::new(configured_paths(index_config, key), specs))
        });
        Arc::make_mut(entry)
    }

    /// Remove the clauses of `key` at `positions`, each once, ignoring
    /// positions past its end, and drop the entry once it is empty.
    /// Returns how many clauses went.
    fn remove_positions(&mut self, key: PredKey, mut positions: Vec<u32>) -> usize {
        let Some(entry) = self.preds.get_mut(&key) else {
            return 0;
        };
        positions.sort_unstable();
        positions.dedup();
        let len = entry.len() as u32;
        positions.retain(|&p| p < len);
        if positions.is_empty() {
            return 0;
        }
        let seg = Arc::make_mut(entry).folded();
        seg.remove(&positions);
        if seg.clauses.is_empty() {
            self.preds.remove(&key);
        }
        self.clause_count -= positions.len();
        positions.len()
    }

    // ----- MVCC snapshots ---------------------------------------------------

    /// A read-only view of the current state, built in O(#predicates):
    /// every clause entry is shared behind its `Arc` (writers copy-on-write
    /// the entries they later touch), the answer table is carried over as a
    /// snapshot clone (hits against it are reported separately, see
    /// [`crate::SolverStats::snapshot_hits`]), and the delta recorder
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
        let entry = self.entry_mut(key).folded();
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
    /// With indexing enabled, the selections of every configured hash
    /// index whose path the call binds and of every applicable range
    /// index (exact numeric key, or an active `range_call` bound on an
    /// unbound variable in `bounds`) are *intersected*: the smallest is
    /// walked and the rest probed. No applicable index — or indexing off
    /// — returns all clauses of the predicate, borrowed.
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
        let both = [(base, 0), (&entry.tail, clauses.0.len() as u32)];
        let segments = &both[..if clauses.1.is_empty() { 1 } else { 2 }];
        // Every hash index whose path the call binds, with its keyed and
        // variable positions in each segment.
        let mut hash: Short<HashSel<'_>, 8> = Short::new([(&[], &[]); 2]);
        for (i, index) in base.indexes.iter().enumerate() {
            let Some(k) = index.call_key(store, args) else {
                continue;
            };
            let mut sel: HashSel<'_> = [(&[], &[]); 2];
            for (s, (seg, _)) in sel.iter_mut().zip(segments) {
                *s = seg.hash_sel(i, &k);
            }
            hash.push(sel);
        }
        let hash = hash.as_slice();
        // Every range index that applies to this call, with its base
        // selection.
        let applicable = applicable_ranges(&base.ranges, store, args, bounds);
        if hash.is_empty() && applicable.is_empty() {
            entry.stats.scans.fetch_add(1, Ordering::Relaxed);
            return Candidates::All(clauses);
        }
        if !hash.is_empty() {
            entry.stats.hash_hits.fetch_add(1, Ordering::Relaxed);
        }
        if !applicable.is_empty() {
            entry.stats.range_hits.fetch_add(1, Ordering::Relaxed);
        }
        let mut pos = PosList::default();
        if let ([only], true) = (hash, applicable.is_empty()) {
            // One hash selection only: merge each segment's two sorted
            // position lists straight into the (usually inline) output —
            // assertion order is observable through solution order.
            for (&(keyed, vars), &(_, offset)) in only.iter().zip(segments) {
                merge_sorted(keyed, vars, |p| pos.push(p + offset));
            }
        } else {
            let views =
                both.map(|(seg, offset)| (seg.ranges.as_slice(), seg.clauses.len() as u32, offset));
            intersect_segments(
                &views[..segments.len()],
                hash,
                &applicable,
                (store, args, bounds),
                |p| pos.push(p),
            );
        }
        entry
            .stats
            .pruned
            .fetch_add((entry.len() - pos.len()) as u64, Ordering::Relaxed);
        Candidates::Picked { clauses, pos }
    }

    /// The answers of a completed answer set of `key` that a call's active
    /// `range_call` bounds admit: positions ascending, unkeyed answers
    /// kept, as [`KnowledgeBase::candidates`] selects clauses. The set's
    /// index is built on the first call that needs it. `None` means replay
    /// every answer: indexing is off, no range path of the call is
    /// bounded, or the set was indexed under another range layout.
    pub(crate) fn admitted_answers(
        &self,
        key: PredKey,
        answers: &AnswerSet,
        store: &BindStore,
        args: &[Term],
        bounds: &BoundSet,
    ) -> Option<Vec<u32>> {
        if !self.indexing {
            return None;
        }
        let specs = self.range_config.get(&key)?;
        if !specs.iter().any(|spec| spec.bounded(store, args, bounds)) {
            return None;
        }
        let index = answers.range_index(|answers| AnswerIndex::build(specs, answers));
        if !index.ranges.iter().map(|r| &r.spec).eq(specs) {
            return None;
        }
        let applicable = applicable_ranges(&index.ranges, store, args, bounds);
        if applicable.is_empty() {
            return None;
        }
        let mut admitted = Vec::new();
        intersect_segments(
            &[(&index.ranges, answers.len() as u32, 0)],
            &[],
            &applicable,
            (store, args, bounds),
            |p| admitted.push(p),
        );
        Some(admitted)
    }

    /// Verify every index against a from-scratch rebuild of the same
    /// clause list — the incremental-maintenance invariant the property
    /// tests lean on — segment by segment, and that no tail has outgrown
    /// its fold bound. Returns a description of the first divergence.
    pub fn check_index_integrity(&self) -> Result<(), String> {
        for (key, entry) in &self.preds {
            let paths = configured_paths(&self.index_config, *key);
            let specs = self.range_specs(*key);
            if entry.tail.clauses.len() > entry.base.clauses.len() / TAIL_FOLD_DIVISOR {
                return Err(format!("tail of {key} outgrew its fold bound"));
            }
            // An empty tail holds nothing to index (and is never consulted).
            let segments = [("base", &*entry.base), ("tail", &entry.tail)];
            for (name, seg) in segments.into_iter().filter(|(_, s)| !s.clauses.is_empty()) {
                let mut fresh = Segment::new(paths, &specs);
                for clause in &seg.clauses {
                    fresh.push(Arc::clone(clause));
                }
                if seg.indexes.len() != fresh.indexes.len() {
                    return Err(format!("hash index count of {key} ({name}) diverged"));
                }
                for (live, want) in seg.indexes.iter().zip(&fresh.indexes) {
                    if live.path != want.path
                        || live.var_clauses != want.var_clauses
                        || live.by_key != want.by_key
                    {
                        return Err(format!(
                            "hash index {} of {key} ({name}) diverged",
                            live.path
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
                hash_paths: entry.base.indexes.iter().map(|i| i.path.clone()).collect(),
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

    /// Every predicate that holds at least one clause, in no fixed order.
    pub(crate) fn stored_preds(&self) -> impl Iterator<Item = PredKey> + '_ {
        self.preds
            .iter()
            .filter(|(_, e)| e.len() > 0)
            .map(|(k, _)| *k)
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
        kb.set_index_args(key, &[ArgPath::arg(0), ArgPath::arg(2)]);
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
    fn multi_arg_indexing_intersects_every_bound_index() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("h", 3);
        kb.set_index_args(key, &[ArgPath::arg(0), ArgPath::arg(1), ArgPath::arg(2)]);
        // A 10 × 10 grid of keys: each key of either argument holds ten
        // facts, one pair of keys holds one.
        for i in 0..10 {
            for j in 0..10 {
                kb.assert_fact(fact(
                    "h",
                    vec![Term::atom("omega"), Term::int(i), Term::int(j)],
                ));
            }
        }
        // A rule head with a variable at the second argument is on that
        // index's variable side, and a candidate wherever the others key it.
        kb.assert_clause(
            fact("h", vec![Term::atom("omega"), Term::var(0), Term::int(7)]),
            Term::atom("true"),
        );
        let picked = |args: Vec<Term>| {
            let got = cands(&kb, key, args);
            got.iter()
                .map(|c| c.head.args()[1..].to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            picked(vec![Term::atom("omega"), Term::int(3), Term::int(7)]),
            vec![
                vec![Term::int(3), Term::int(7)],
                vec![Term::var(0), Term::int(7)]
            ]
        );
        assert_eq!(
            picked(vec![Term::atom("omega"), Term::int(3), Term::int(8)]),
            vec![vec![Term::int(3), Term::int(8)]]
        );
        // A key no clause holds empties the intersection.
        assert!(picked(vec![Term::atom("omega"), Term::int(3), Term::int(99)]).is_empty());
    }

    #[test]
    fn path_indexes_key_list_elements() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("h", 2);
        let first = ArgPath::arg(1).step(".", 2, 0);
        let second = ArgPath::arg(1).step(".", 2, 1).step(".", 2, 0);
        kb.set_index_args(key, &[first, second]);
        for i in 0..50 {
            kb.assert_fact(fact(
                "h",
                vec![
                    Term::atom("site"),
                    Term::list(vec![Term::atom(&format!("s{i}")), Term::int(i)]),
                ],
            ));
        }
        // A one-element list has no second element: it sits in no bucket
        // of that index. A list open after its head sits on its variable
        // side, and a list headed by a variable on the first's.
        kb.assert_fact(fact(
            "h",
            vec![Term::atom("site"), Term::list(vec![Term::atom("s9")])],
        ));
        kb.assert_fact(fact(
            "h",
            vec![
                Term::atom("site"),
                Term::cons(Term::atom("s7"), Term::var(0)),
            ],
        ));
        let call = |elems: Term| {
            cands(&kb, key, vec![Term::atom("site"), elems])
                .iter()
                .map(|c| c.head.args()[1].clone())
                .collect::<Vec<Term>>()
        };
        let s = |i: i64| Term::list(vec![Term::atom(&format!("s{i}")), Term::int(i)]);
        let open_s7 = Term::cons(Term::atom("s7"), Term::var(0));
        // Both elements bound: the first-element index and the
        // second-element index each select two; the first wins the tie.
        assert_eq!(call(s(7)), [s(7), open_s7.clone()]);
        // Only the second element bound: its index alone selects.
        let second_only = Term::list(vec![Term::var(5), Term::int(7)]);
        assert_eq!(call(second_only), [s(7), open_s7.clone()]);
        let second_only = Term::list(vec![Term::var(5), Term::int(8)]);
        assert_eq!(call(second_only), [s(8), open_s7]);
        // A one-element call cannot reach the second element, so only the
        // first-element index serves it.
        let one = Term::list(vec![Term::atom("s9")]);
        assert_eq!(call(one.clone()), [s(9), one]);
        // Nothing bound on either path: every clause.
        assert_eq!(call(Term::cons(Term::var(5), Term::var(6))).len(), 52);
        kb.check_index_integrity().expect("path indexes");
    }

    #[test]
    fn index_config_applies_before_first_assertion() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 2);
        kb.set_index_args(key, &[ArgPath::arg(1)]);
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
        kb.set_index_args(PredKey::new("p", 1), &[ArgPath::arg(0)]);
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
        kb.assert_fact(fact("p", vec![Term::int(4)]));
        assert!(kb.retract_fact(&fact("p", vec![Term::int(2)])));
        let g = GroupId::named("pack");
        kb.assert_clause_in(g, fact("q", vec![Term::atom("m")]), Term::atom("true"));
        assert_eq!(kb.retract_group(g), 1);
        assert_eq!(kb.retract_predicate(PredKey::new("p", 1)), 3);
        let delta = kb.recorded().expect("recording");
        assert_eq!(delta.len(), 5);
        assert!(delta.dirty_preds().contains(&PredKey::new("p", 1)));
        assert!(delta.dirty_preds().contains(&PredKey::new("q", 1)));

        let undone = kb.rollback();
        assert_eq!(undone, 5);
        assert!(!kb.recording());
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
        kb.rollback();
        let after: Vec<Term> = kb
            .clauses_of(PredKey::new("p", 1))
            .iter()
            .map(|c| c.head.clone())
            .collect();
        assert_eq!(before, after);
        assert!(kb.group_active(g));
    }

    /// A WAL record is checksummed, not trusted: a group retract that
    /// names a position twice, or past the end, removes each stored
    /// clause it names once and leaves the indexes exact.
    #[test]
    fn a_replayed_group_retract_with_repeated_or_stale_positions_is_safe() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 1);
        for i in 0..4 {
            kb.assert_fact(fact("p", vec![Term::int(i)]));
        }
        let clause = Arc::clone(&kb.clauses_of(key)[1]);
        let removed = [1, 1, 9]
            .map(|pos| (key, pos, Arc::clone(&clause)))
            .to_vec();
        kb.apply_op(DeltaOp::RetractGroup {
            group: GroupId::root(),
            removed,
        });
        assert_eq!(kb.clause_count(), 3);
        assert_eq!(cands(&kb, key, vec![Term::int(1)]).len(), 0);
        assert_eq!(cands(&kb, key, vec![Term::int(3)]).len(), 1);
        kb.check_index_integrity().expect("after the replay");
    }

    #[test]
    fn out_of_range_index_positions_ignored() {
        let mut kb = KnowledgeBase::new();
        let key = PredKey::new("p", 1);
        kb.set_index_args(key, &[ArgPath::arg(0), ArgPath::arg(5)]);
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
        kb.set_index_args(key, &[ArgPath::arg(0)]);
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
        kb.assert_fact(fact("t", vec![Term::atom("c"), Term::int(9)]));
        assert!(kb.retract_fact(&fact("t", vec![Term::atom("a"), Term::int(5)])));
        kb.retract_predicate(key);
        kb.check_index_integrity().expect("after retract_predicate");
        kb.rollback();
        kb.check_index_integrity().expect("after rollback");
        // A key two clauses share: retracting either leaves the survivor
        // inline, and rolling the retract back lists both again.
        let d = |v: i64| fact("t", vec![Term::atom("d"), Term::int(v)]);
        kb.assert_fact(d(20));
        kb.assert_fact(d(21));
        for v in [20, 21] {
            kb.begin_delta();
            assert!(kb.retract_fact(&d(v)));
            kb.check_index_integrity()
                .expect("after retracting a shared key");
            kb.rollback();
            kb.check_index_integrity().expect("after rolling it back");
        }
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
        kb.rollback();
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

    /// The selection walk against the materialise-and-intersect selection
    /// it replaced, kept here as the oracle.
    mod selection_oracle {
        use super::*;
        use proptest::prelude::*;

        /// `a ∪ b` for two disjoint ascending lists, materialised.
        fn union_ref(a: &[u32], b: &[u32]) -> Vec<u32> {
            let mut out = [a, b].concat();
            out.sort_unstable();
            out
        }

        /// `a ∩ b` for two ascending lists, materialised.
        fn intersect_ref(a: &[u32], b: &[u32]) -> Vec<u32> {
            a.iter()
                .copied()
                .filter(|p| b.binary_search(p).is_ok())
                .collect()
        }

        /// The candidate positions, materialised, as the oracle for the
        /// selection walk: every applicable hash index's positions and every
        /// applicable range index's positions, each materialised over the
        /// base and the tail (keyed and unkeyed merged, tail positions
        /// offset, a tail the index selects nothing usable from kept whole),
        /// then intersected pairwise. `None` is a full scan.
        fn reference_candidates(
            kb: &KnowledgeBase,
            key: PredKey,
            store: &BindStore,
            args: &[Term],
            bounds: &BoundSet,
        ) -> Option<Vec<u32>> {
            let entry = &kb.preds[&key];
            let base: &Segment = &entry.base;
            let segments = [(base, 0), (&entry.tail, base.clauses.len() as u32)];
            let segments = &segments[..if entry.tail.clauses.is_empty() { 1 } else { 2 }];
            let mut hash_sels = Vec::new();
            for (i, index) in base.indexes.iter().enumerate() {
                let Some(k) = index.call_key(store, args) else {
                    continue;
                };
                let mut sel = Vec::new();
                for &(seg, offset) in segments {
                    let (keyed, vars) = seg.hash_sel(i, &k);
                    sel.extend(union_ref(keyed, vars).into_iter().map(|p| p + offset));
                }
                hash_sels.push(sel);
            }
            let mut range_sels = Vec::new();
            for (j, rindex) in base.ranges.iter().enumerate() {
                let Some(sel) = rindex.select(store, args, bounds) else {
                    continue;
                };
                let mut sel = union_ref(&sel.keyed, sel.unkeyed);
                for &(seg, offset) in &segments[1..] {
                    let tail = match seg.ranges[j].select(store, args, bounds) {
                        Some(tail) => union_ref(&tail.keyed, tail.unkeyed),
                        None => (0..seg.clauses.len() as u32).collect(),
                    };
                    sel.extend(tail.into_iter().map(|p| p + offset));
                }
                range_sels.push(sel);
            }
            let mut sels = hash_sels.into_iter().chain(range_sels);
            let first = sels.next()?;
            Some(sels.fold(first, |acc, sel| intersect_ref(&acc, &sel)))
        }

        /// The admitted answer positions as first written: every applicable
        /// range index's selection over a fresh index of `answers`,
        /// materialised and intersected pairwise.
        fn reference_admitted(
            kb: &KnowledgeBase,
            key: PredKey,
            answers: &[CachedAnswer],
            store: &BindStore,
            args: &[Term],
            bounds: &BoundSet,
        ) -> Option<Vec<u32>> {
            let specs = kb.range_config.get(&key)?;
            if !specs.iter().any(|spec| spec.bounded(store, args, bounds)) {
                return None;
            }
            let index = AnswerIndex::build(specs, answers);
            let mut sels = index
                .ranges
                .iter()
                .filter_map(|rindex| rindex.select(store, args, bounds))
                .map(|sel| union_ref(&sel.keyed, sel.unkeyed));
            let first = sels.next()?;
            Some(sels.fold(first, |acc, sel| intersect_ref(&acc, &sel)))
        }

        /// A splitmix64 stream: each oracle case draws everything from one
        /// seed.
        struct Draw(u64);

        impl Draw {
            fn below(&mut self, n: usize) -> usize {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n as u64) as usize
            }

            fn chance(&mut self, percent: usize) -> bool {
                self.below(100) < percent
            }

            fn atom(&mut self, names: &[&str]) -> Term {
                Term::atom(names[self.below(names.len())])
            }

            /// A few values, so keys collide: integers, and floats among them
            /// both zeros.
            fn value(&mut self) -> f64 {
                const FLOATS: [f64; 6] = [-0.0, 0.0, 0.5, 2.5, 7.0, -3.0];
                match self.below(3) {
                    0 => FLOATS[self.below(FLOATS.len())],
                    _ => self.below(10) as f64 - 2.0,
                }
            }

            fn number(&mut self) -> Term {
                let v = self.value();
                if v.fract() == 0.0 && self.chance(60) {
                    Term::int(v as i64)
                } else {
                    Term::float(v)
                }
            }

            /// A `range_call` bound: empty, open, a point, unbounded or
            /// half-unbounded.
            fn range(&mut self) -> NumRange {
                let (a, b) = (self.value(), self.value());
                let (lo, hi) = (a.min(b), a.max(b));
                match self.below(5) {
                    0 => NumRange::new(hi + 1.0, false, lo, self.chance(50)),
                    1 => NumRange::new(lo, true, hi, true),
                    2 => NumRange::point(a),
                    3 => NumRange::ALL,
                    _ => NumRange::new(f64::NEG_INFINITY, false, hi, self.chance(50)),
                }
            }
        }

        const MODELS: [&str; 2] = ["omega", "m1"];
        const PREDS: [&str; 3] = ["p", "q", "r"];
        const OBJECTS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];
        const GRIDS: [&str; 2] = ["r1", "r2"];
        const PATCHES: [&str; 3] = ["su", "ss", "sa"];

        /// An `h/5` clause head in the reified shape, keyed, unkeyed or
        /// variable at each hash position and range path: simple points,
        /// and patches of either resolution (or an open one) under each
        /// area operator.
        fn draw_head(d: &mut Draw) -> Term {
            let mut n = 0;
            let mut var = || {
                n += 1;
                Term::var(n - 1)
            };
            let pt = |d: &mut Draw| Term::pred("pt", vec![d.number(), d.number()]);
            let m = if d.chance(85) { d.atom(&MODELS) } else { var() };
            let s = match d.below(9) {
                0 | 1 => Term::atom("any"),
                2 | 3 => Term::pred("sat", vec![pt(d)]),
                4 => match d.below(3) {
                    0 => Term::pred("sat", vec![var()]),
                    1 => Term::pred("sat", vec![Term::pred("pt", vec![var(), d.number()])]),
                    _ => Term::pred("sat", vec![d.atom(&OBJECTS)]),
                },
                5 | 6 => {
                    let op = PATCHES[d.below(3)];
                    let r = if d.chance(85) { d.atom(&GRIDS) } else { var() };
                    Term::pred(op, vec![r, pt(d)])
                }
                7 => Term::pred(
                    "sa",
                    vec![Term::atom("r1"), Term::pred("pt", vec![d.number(), var()])],
                ),
                _ => var(),
            };
            let t = match d.below(7) {
                0 | 1 => Term::atom("any"),
                2..=4 => Term::pred("tat", vec![d.number()]),
                5 => Term::pred("tat", vec![var()]),
                _ => Term::pred(
                    "tu",
                    vec![Term::pred("iv", vec![Term::int(1), Term::int(2)])],
                ),
            };
            let q = if d.chance(90) { d.atom(&PREDS) } else { var() };
            // The argument list, keyed on its first and its second element:
            // objects, numbers and atoms at either, variables, one-element
            // lists (in no second-element bucket), open tails and longer
            // lists.
            let elem = |d: &mut Draw| match d.below(5) {
                0 | 1 => d.atom(&OBJECTS),
                2 | 3 => d.number(),
                _ => Term::atom("high"),
            };
            let a = match d.below(10) {
                0..=3 => Term::list(vec![elem(d), elem(d)]),
                4 => Term::list(vec![var(), elem(d)]),
                5 => Term::list(vec![elem(d), var()]),
                6 => Term::list(vec![elem(d)]),
                7 => Term::cons(elem(d), var()),
                8 => Term::list(vec![elem(d), elem(d), d.atom(&OBJECTS)]),
                _ => var(),
            };
            Term::pred("h", vec![m, s, t, q, a])
        }

        /// An `h/5` call: each argument unbound, bound (directly or through
        /// the store) to a keyed or a wrong shape, with `range_call` bounds on
        /// some of the unbound numbers.
        fn draw_call(d: &mut Draw, store: &mut BindStore, bounds: &mut BoundSet) -> Vec<Term> {
            let unbound = |d: &mut Draw, store: &mut BindStore, bounds: &mut BoundSet| {
                let v = store.alloc_block(1);
                if d.chance(70) {
                    bounds.insert(Var(v), d.range());
                }
                Term::var(v)
            };
            let slot = |d: &mut Draw, store: &mut BindStore, bounded: Term, wrong: Term| {
                let arg = match d.below(10) {
                    0..=2 => return Term::var(store.alloc_block(1)),
                    3 => wrong,
                    _ => bounded,
                };
                if d.chance(20) {
                    let v = Term::var(store.alloc_block(1));
                    assert!(store.unify(&v, &arg));
                    v
                } else {
                    arg
                }
            };
            let m = d.atom(&MODELS);
            let m = slot(d, store, m, Term::int(3));
            let (x, y) = (unbound(d, store, bounds), unbound(d, store, bounds));
            // A patch call binds its resolution, leaves it open, or binds
            // it to another shape; its point is bound, open or a pair of
            // (bounded) coordinates.
            let patch = |d: &mut Draw, store: &mut BindStore, point: Term| {
                let op = PATCHES[d.below(3)];
                let r = match d.below(4) {
                    0 => Term::var(store.alloc_block(1)),
                    1 => Term::int(1),
                    _ => d.atom(&GRIDS),
                };
                Term::pred(op, vec![r, point])
            };
            let s = match d.below(7) {
                0 => Term::pred("sat", vec![Term::pred("pt", vec![x, y])]),
                1 => Term::pred("su", vec![Term::atom("r1"), Term::pred("pt", vec![x, y])]),
                2 => Term::pred("sat", vec![Term::pred("pt", vec![d.number(), d.number()])]),
                3 => patch(d, store, Term::pred("pt", vec![x, y])),
                4 => {
                    let point = Term::pred("pt", vec![d.number(), d.number()]);
                    patch(d, store, point)
                }
                5 => {
                    let point = Term::var(store.alloc_block(1));
                    patch(d, store, point)
                }
                _ => Term::atom("any"),
            };
            let s = slot(
                d,
                store,
                s,
                Term::pred("su", vec![Term::atom("r1"), Term::atom("nowhere")]),
            );
            let t = match d.below(3) {
                0 => Term::pred("tat", vec![d.number()]),
                1 => Term::pred("tat", vec![unbound(d, store, bounds)]),
                _ => Term::atom("any"),
            };
            let t = slot(d, store, t, Term::pred("tat", vec![Term::atom("now")]));
            let q = d.atom(&PREDS);
            let q = slot(d, store, q, Term::int(0));
            // The argument list: `[object, value]` (a `reading(Obj, V)`
            // fact, whose value's `range_call` bounds reach the
            // second-element interval index), `[value, object]` (a
            // `p(v)(o)` fact) with either element bound or unbound, bound
            // through the store element by element, one element, an open
            // tail, or three elements.
            let number =
                |d: &mut Draw, store: &mut BindStore, bounds: &mut BoundSet| match d.below(3) {
                    0 => d.number(),
                    _ => unbound(d, store, bounds),
                };
            let value = |d: &mut Draw, store: &mut BindStore, bounds: &mut BoundSet| {
                let v = number(d, store, bounds);
                slot(d, store, v, Term::atom("high"))
            };
            let object = |d: &mut Draw, store: &mut BindStore| {
                let o = d.atom(&OBJECTS);
                slot(d, store, o, Term::int(1))
            };
            let a = match d.below(8) {
                0 | 1 => {
                    let o = object(d, store);
                    Term::list(vec![o, number(d, store, bounds)])
                }
                2..=4 => {
                    let v = value(d, store, bounds);
                    Term::list(vec![v, object(d, store)])
                }
                5 => Term::list(vec![object(d, store)]),
                6 => {
                    let v = value(d, store, bounds);
                    Term::cons(v, Term::var(store.alloc_block(1)))
                }
                _ => {
                    let v = value(d, store, bounds);
                    let o = object(d, store);
                    Term::list(vec![v, o, d.atom(&OBJECTS)])
                }
            };
            let a = slot(
                d,
                store,
                a,
                Term::list(vec![Term::atom("k0"), Term::atom("high")]),
            );
            vec![m, s, t, q, a]
        }

        /// The positions `candidates` picked; `None` for the full scan.
        fn picked(cands: &Candidates<'_>) -> Option<Vec<u32>> {
            match cands {
                Candidates::All(_) => None,
                Candidates::Picked { pos, .. } => {
                    Some((0..pos.len()).filter_map(|i| pos.get(i)).collect())
                }
            }
        }

        /// An `h/5` store indexed as the kernel and the spatial packs index
        /// it (hash paths on the model, the spatial qualifier, a patch's
        /// resolution, the time qualifier, the predicate and the argument
        /// list's first and second elements; both interval paths, the patch
        /// grid and the point grid), holding a base alone or, three times
        /// in four, a base and the tail a commit under a pin leaves. The
        /// pin is returned with it.
        fn draw_store(d: &mut Draw) -> (KnowledgeBase, KnowledgeBase) {
            let key = PredKey::new("h", 5);
            let mut kb = KnowledgeBase::new();
            let list = ArgPath::arg(4).step(".", 2, 0);
            let second = ArgPath::arg(4).step(".", 2, 1).step(".", 2, 0);
            let patch = [("su", 2), ("ss", 2), ("sa", 2)];
            kb.set_index_args(
                key,
                &[
                    ArgPath::arg(0),
                    ArgPath::arg(1),
                    ArgPath::arg(1).step_any(&patch, 0),
                    ArgPath::arg(2),
                    ArgPath::arg(3),
                    list,
                    second.clone(),
                ],
            );
            let coord = |child| ArgPath::arg(1).step_any(&patch, 1).step("pt", 2, child);
            let point = |child| ArgPath::arg(1).step("sat", 1, 0).step("pt", 2, child);
            let cell = [1.0, 4.0][d.below(2)];
            kb.set_range_indexes(
                key,
                vec![
                    RangeSpec::Interval(ArgPath::arg(2).step("tat", 1, 0)),
                    RangeSpec::Interval(second),
                    RangeSpec::Grid {
                        x: coord(0),
                        y: coord(1),
                        cell,
                    },
                    RangeSpec::Grid {
                        x: point(0),
                        y: point(1),
                        cell,
                    },
                ],
            );
            let add = |kb: &mut KnowledgeBase, d: &mut Draw| {
                kb.assert_clause(draw_head(d), Term::atom("true"))
            };
            let base = 64 + d.below(448);
            for _ in 0..base {
                add(&mut kb, d);
            }
            // A commit under a pin lands in the tail.
            let pin = kb.snapshot();
            if d.chance(75) {
                kb.begin_delta();
                for _ in 0..1 + d.below(base / 64) {
                    add(&mut kb, d);
                }
                kb.end_delta();
                assert!(!kb.preds[&key].tail.clauses.is_empty());
            }
            (kb, pin)
        }

        proptest! {
            /// Candidate selection and answer replay pick exactly the positions
            /// the materialise-and-intersect reference picks.
            #[test]
            fn selection_matches_the_materialised_reference(seed in any::<u64>()) {
                let mut d = Draw(seed);
                let key = PredKey::new("h", 5);
                let (kb, _pin) = draw_store(&mut d);
                let answers: Vec<CachedAnswer> = kb
                    .clauses_of(key)
                    .iter()
                    .map(|c| CachedAnswer { term: c.head.clone(), n_vars: c.n_vars })
                    .collect();
                let answer_set = AnswerSet::from(answers.clone());
                for _ in 0..32 {
                    let mut store = BindStore::new();
                    let mut bounds = BoundSet::default();
                    let args = draw_call(&mut d, &mut store, &mut bounds);
                    let got = picked(&kb.candidates(key, &store, &args, &bounds));
                    let want = reference_candidates(&kb, key, &store, &args, &bounds);
                    prop_assert_eq!(&got, &want, "candidates for {:?}", args);
                    let got = kb.admitted_answers(key, &answer_set, &store, &args, &bounds);
                    let want = reference_admitted(&kb, key, &answers, &store, &args, &bounds);
                    prop_assert_eq!(&got, &want, "admitted answers for {:?}", args);
                }
            }

            /// Hash path keys (and exact numeric range keys) prune only
            /// clauses whose head cannot unify with the call: without
            /// `range_call` bounds, every clause left out fails unification.
            #[test]
            fn path_keys_prune_only_heads_that_cannot_unify(seed in any::<u64>()) {
                let mut d = Draw(seed);
                let key = PredKey::new("h", 5);
                let (kb, _pin) = draw_store(&mut d);
                let clauses = kb.clauses_of(key);
                for _ in 0..32 {
                    let mut store = BindStore::new();
                    let args = draw_call(&mut d, &mut store, &mut BoundSet::default());
                    let unbounded = BoundSet::default();
                    let Some(picked) = picked(&kb.candidates(key, &store, &args, &unbounded))
                    else {
                        continue;
                    };
                    let call = Term::pred("h", args.clone());
                    for (p, clause) in clauses.iter().enumerate() {
                        if picked.binary_search(&(p as u32)).is_ok() {
                            continue;
                        }
                        let mark = store.mark();
                        let head = clause.head.offset_vars(store.alloc_block(clause.n_vars));
                        let unifies = store.unify(&call, &head);
                        store.undo_to(mark);
                        prop_assert!(!unifies, "{} unifies with {} but was pruned", head, call);
                    }
                }
            }
        }
    }
}
