//! Tabled resolution: a memoized answer cache for the SLD solver.
//!
//! The paper accepts "Prolog's computational inefficiency" as the price of
//! flexibility (§I); this module removes the recomputation part of that
//! price without touching the semantics. An [`AnswerTable`] maps
//! *canonicalized call patterns* — goals with their variables renamed in
//! first-occurrence order, so `p(X, Y)` and `p(A, B)` share one entry — to
//! the **complete** answer set the solver found for that pattern. The
//! solver consults the table before clause resolution for predicates
//! marked tabled (see [`crate::KnowledgeBase::mark_tabled`]) and replays
//! the cached answers instead of re-deriving them; under active
//! `range_call` bounds, only the answers the predicate's range indexes
//! admit (see [`AnswerSet`]).
//!
//! Three rules keep this sound:
//!
//! * **Only completed enumerations are stored.** An entry is inserted only
//!   after the sub-enumeration exhausted every alternative within budget.
//!   Negation-as-failure and bounded `forall` therefore never observe a
//!   partial answer set: a hit *is* a completed table.
//! * **Dependency-aware invalidation.** Entries record a
//!   [`TableValidity`] snapshot: the global epoch they were built at plus
//!   the per-predicate generation counters of the call's static dependency
//!   closure (see [`crate::deps::DepGraph`]). At lookup time an entry
//!   survives if either the epoch is unchanged (nothing at all happened)
//!   or every predicate the call can actually reach still has the
//!   generation it was built against — so asserting a `soil/2` fact no
//!   longer flushes cached `road/1` answers. Entries whose closure
//!   contains a dynamic call (`call/1` through a variable) fall back to
//!   whole-epoch validity, as do entries built against a different
//!   structural configuration (indexing/strict mode), which can change
//!   solution *order* even where the answer set is fixed.
//! * **SLG evaluation for recursive patterns.** While a call pattern is
//!   being enumerated, a recursive call to the same pattern does *not*
//!   fall back to SLD: the solver keeps a per-query [`Forest`] of
//!   in-flight subgoals, recursive consumers read the producer's answer
//!   list as it grows, and a pattern only publishes to this table when
//!   its whole strongly-connected region of mutually recursive subgoals
//!   has been saturated to a fixpoint (so a hit here is still always a
//!   *completed* table — the NAF rule above is preserved). Cycles are
//!   resolved by the KB's [`CyclePolicy`]: inductive (the default) takes
//!   the least fixpoint — a derivation that only supports itself fails —
//!   while a coinductive predicate treats a cycle as success.
//!
//! The table lives inside the knowledge base behind a `parking_lot` lock
//! because [`crate::Solver::solve`] takes `&self`: queries only hold a
//! shared borrow of the KB, and the mutating operations all take `&mut`,
//! which is what makes "the epoch cannot move during a solve" a
//! compile-time guarantee.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hash::{FxHashMap, FxHashSet};
use crate::kb::{AnswerIndex, PredKey};
use crate::term::{Term, Var};

/// Validity snapshot a table entry is built against. Produced by
/// [`crate::KnowledgeBase::dep_snapshot`] from the predicate's static
/// dependency closure and compared on lookup; see the module docs for the
/// exact survival rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableValidity {
    /// Global modification epoch at snapshot time. Equality here is
    /// sufficient on its own: an unchanged epoch means *nothing* changed.
    pub epoch: u64,
    /// Structural-configuration generation (indexing/index layout/strict
    /// mode). These settings can change solution order or error behavior
    /// without touching any clause, so they gate dependency-based
    /// survival.
    pub structural: u64,
    /// The closure contains a dynamic call (`call/1` through a variable or
    /// an uninspectable goal), so its real dependency set is unknown and
    /// only exact epoch equality keeps the entry alive.
    pub dynamic: bool,
    /// `(predicate, generation)` for every predicate in the call's static
    /// dependency closure, in a canonical order so snapshots compare by
    /// simple `Vec` equality.
    pub deps: Arc<Vec<(PredKey, u64)>>,
}

impl TableValidity {
    /// A snapshot that is valid only at exactly this epoch — the
    /// conservative fallback when no dependency information is available.
    pub fn epoch_only(epoch: u64) -> TableValidity {
        TableValidity {
            epoch,
            structural: 0,
            dynamic: true,
            deps: Arc::new(Vec::new()),
        }
    }

    /// Is an entry built at `self` still usable under `current`?
    fn survives(&self, current: &TableValidity) -> bool {
        self.epoch == current.epoch
            || (!self.dynamic
                && !current.dynamic
                && self.structural == current.structural
                && self.deps == current.deps)
    }
}

/// One cached answer: the canonicalized solved instance of the call
/// pattern, with `n_vars` residual unbound variables numbered `0..n_vars`.
/// Replay allocates a fresh block of that many variables, offsets the
/// term into it, and unifies with the caller's goal — the same renaming-
/// apart discipline clause activation uses.
#[derive(Clone, Debug)]
pub struct CachedAnswer {
    /// Canonicalized answer instance.
    pub term: Term,
    /// Number of distinct residual variables in `term`.
    pub n_vars: u32,
}

/// A completed answer set, in derivation order, as the table stores it and
/// the solver replays it. It also carries the predicate's range access
/// paths over its answers: built on the first replay a `range_call` bound
/// narrows, then kept with the set (DESIGN.md #17). The table, its
/// snapshot copies and every replay share one set behind an `Arc`, so the
/// index is built at most once per set.
pub struct AnswerSet {
    answers: Vec<CachedAnswer>,
    index: OnceLock<AnswerIndex>,
}

impl AnswerSet {
    /// The set's range index, built by `build` on first use.
    pub(crate) fn range_index(
        &self,
        build: impl FnOnce(&[CachedAnswer]) -> AnswerIndex,
    ) -> &AnswerIndex {
        self.index.get_or_init(|| build(&self.answers))
    }
}

impl From<Vec<CachedAnswer>> for AnswerSet {
    fn from(answers: Vec<CachedAnswer>) -> AnswerSet {
        AnswerSet {
            answers,
            index: OnceLock::new(),
        }
    }
}

impl std::ops::Deref for AnswerSet {
    type Target = [CachedAnswer];

    fn deref(&self) -> &[CachedAnswer] {
        &self.answers
    }
}

impl std::fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerSet")
            .field("answers", &self.answers)
            .field("indexed", &self.index.get().is_some())
            .finish()
    }
}

/// Outcome of [`AnswerTable::lookup`].
pub enum Lookup {
    /// A completed answer set whose validity snapshot still holds.
    Hit(Arc<AnswerSet>),
    /// No usable entry; `invalidated` reports whether a stale entry was
    /// dropped on the way.
    Miss {
        /// A stale entry was dropped by this lookup.
        invalidated: bool,
    },
}

#[derive(Clone, Debug)]
struct TableEntry {
    validity: TableValidity,
    answers: Arc<AnswerSet>,
}

/// The memoized answer cache. See the module docs. It keeps no counters:
/// the solver counts every lookup, insert and fallback in its
/// [`crate::SolverStats`].
#[derive(Default)]
pub struct AnswerTable {
    entries: Mutex<FxHashMap<Term, TableEntry>>,
    /// This table belongs to an MVCC snapshot ([`AnswerTable::snapshot_clone`]):
    /// the solver counts its hits as [`crate::SolverStats::snapshot_hits`]
    /// too and reports them under their own trace port.
    snapshot: bool,
}

impl std::fmt::Debug for AnswerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerTable")
            .field("entries", &self.len())
            .finish()
    }
}

impl AnswerTable {
    /// Empty table.
    pub fn new() -> AnswerTable {
        AnswerTable::default()
    }

    /// Look up a canonicalized call pattern. An entry whose validity
    /// snapshot no longer survives under `current` is dropped and reported
    /// as an invalidating miss.
    pub fn lookup(&self, pattern: &Term, current: &TableValidity) -> Lookup {
        let mut entries = self.entries.lock();
        match entries.get(pattern) {
            Some(entry) if entry.validity.survives(current) => {
                Lookup::Hit(Arc::clone(&entry.answers))
            }
            Some(_) => {
                entries.remove(pattern);
                Lookup::Miss { invalidated: true }
            }
            None => Lookup::Miss { invalidated: false },
        }
    }

    /// Record the complete answer set for a call pattern, together with
    /// the validity snapshot it was built against.
    pub fn insert(&self, pattern: Term, validity: TableValidity, answers: Arc<AnswerSet>) {
        self.entries
            .lock()
            .insert(pattern, TableEntry { validity, answers });
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of cached call patterns.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of this table for an MVCC snapshot: same entries (the answer
    /// sets, range indexes included, are shared behind `Arc`), and the
    /// snapshot flag set so reuse is observable through
    /// [`crate::SolverStats::snapshot_hits`] and the solver's snapshot-hit
    /// port. Entries recorded *after* the pinned commit carry newer
    /// dependency generations and simply fail validation against the
    /// snapshot's restored counters — no entry filtering is needed here.
    pub fn snapshot_clone(&self) -> AnswerTable {
        AnswerTable {
            entries: Mutex::new(self.entries.lock().clone()),
            snapshot: true,
        }
    }

    /// Does this table belong to an MVCC snapshot?
    pub fn is_snapshot(&self) -> bool {
        self.snapshot
    }
}

/// Renumber variables in first-occurrence order, returning the canonical
/// term and the number of distinct variables. Alpha-equivalent terms map
/// to the same canonical term, which is what lets `p(X, Y)` and `p(A, B)`
/// share a table entry.
pub fn canonicalize(t: &Term) -> (Term, u32) {
    fn walk(t: &Term, map: &mut FxHashMap<Var, u32>) -> Term {
        match t {
            Term::Var(v) => {
                let next = map.len() as u32;
                Term::Var(Var(*map.entry(*v).or_insert(next)))
            }
            Term::Compound(f, args) => {
                let new_args: Vec<Term> = args.iter().map(|a| walk(a, map)).collect();
                Term::Compound(*f, new_args.into())
            }
            other => other.clone(),
        }
    }
    let mut map = FxHashMap::default();
    let canon = walk(t, &mut map);
    (canon, map.len() as u32)
}

/// Renumber variables in first-occurrence order (canonical term only).
pub fn canonicalize_vars(t: &Term) -> Term {
    canonicalize(t).0
}

/// How a *positive* recursive cycle through tabled subgoals is resolved.
///
/// Inductive reading (the default, and the standard SLG/well-founded
/// choice): an answer must be grounded in a finite derivation, so a
/// subgoal whose only support is itself derives nothing — `loop :- loop`
/// fails cleanly instead of exhausting the step budget. Coinductive
/// reading (co-SLD, as in mir-formality's cosld stack search): a cycle is
/// self-supporting evidence and the re-entered goal succeeds immediately —
/// the greatest-fixpoint semantics rational/stream definitions want.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CyclePolicy {
    /// Least fixpoint: a recursive re-entry contributes only the answers
    /// already derived; a pure cycle fails.
    #[default]
    Inductive,
    /// Greatest fixpoint: a recursive re-entry succeeds outright.
    Coinductive,
}

impl std::fmt::Display for CyclePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CyclePolicy::Inductive => "inductive",
            CyclePolicy::Coinductive => "coinductive",
        })
    }
}

/// One in-flight tabled subgoal on the [`Forest`] stack.
///
/// Its position in the stack doubles as its Tarjan depth-first number:
/// frames are pushed in evaluation order and only ever popped from the
/// top, in whole strongly-connected regions, so `link <= position` is the
/// classic low-link invariant.
#[derive(Debug)]
pub(crate) struct SubgoalFrame {
    /// Predicate of the call pattern (ports and the persistent insert).
    pub(crate) key: PredKey,
    /// Canonicalized call pattern (variables numbered `0..n_vars`).
    pub(crate) pattern: Term,
    /// Dependency snapshot taken when evaluation started; the completed
    /// answer set publishes against it.
    pub(crate) validity: Arc<TableValidity>,
    /// Answers derived so far, in derivation order. Until the subgoal is
    /// observed to be recursive this list preserves duplicates exactly
    /// like the plain enumerating path did; see [`Forest::flip_from`].
    pub(crate) answers: Vec<CachedAnswer>,
    /// Canonical answer terms already present — allocated lazily on the
    /// first sign of recursion, when the evaluation switches to set
    /// semantics so fixpoint re-passes cannot multiply duplicates.
    seen: Option<FxHashSet<Term>>,
    /// Lowest stack position this subgoal's evaluation reached back into
    /// (its own position while no cycle has been observed).
    pub(crate) link: usize,
    /// A consumer re-entered this pattern, or it joined a region with one:
    /// the evaluation needs fixpoint passes and deduplicated answers.
    pub(crate) recursive: bool,
}

/// The per-query answer forest: the stack of in-flight tabled subgoals the
/// SLG evaluation is saturating, indexed by call pattern.
///
/// Shared (`Rc<RefCell<_>>`) by the top-level solver machine and every
/// sub-machine it spawns, the way the budget is — a recursive call in a
/// nested producer must find the frame its ancestor pushed. Completed
/// regions leave the forest and land in the KB's persistent
/// [`AnswerTable`]; the forest is empty between top-level goals.
#[derive(Debug, Default)]
pub(crate) struct Forest {
    /// Pattern → stack position of its active frame.
    index: FxHashMap<Term, usize>,
    frames: Vec<SubgoalFrame>,
    /// Monotone counter bumped by every answer insertion; saturation
    /// passes compare it before/after to detect a fixpoint.
    stamp: u64,
}

impl Forest {
    pub(crate) fn new() -> Forest {
        Forest::default()
    }

    /// Stack position of the active frame for `pattern`, if one exists.
    pub(crate) fn active_pos(&self, pattern: &Term) -> Option<usize> {
        self.index.get(pattern).copied()
    }

    /// Push a new subgoal frame; returns its stack position.
    pub(crate) fn push(
        &mut self,
        key: PredKey,
        pattern: Term,
        validity: Arc<TableValidity>,
    ) -> usize {
        let pos = self.frames.len();
        self.index.insert(pattern.clone(), pos);
        self.frames.push(SubgoalFrame {
            key,
            pattern,
            validity,
            answers: Vec::new(),
            seen: None,
            link: pos,
            recursive: false,
        });
        pos
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    pub(crate) fn link(&self, pos: usize) -> usize {
        self.frames[pos].link
    }

    pub(crate) fn is_recursive(&self, pos: usize) -> bool {
        self.frames[pos].recursive
    }

    pub(crate) fn key(&self, pos: usize) -> PredKey {
        self.frames[pos].key
    }

    pub(crate) fn pattern(&self, pos: usize) -> Term {
        self.frames[pos].pattern.clone()
    }

    pub(crate) fn answers_len(&self, pos: usize) -> usize {
        self.frames[pos].answers.len()
    }

    pub(crate) fn answer(&self, pos: usize, i: usize) -> CachedAnswer {
        self.frames[pos].answers[i].clone()
    }

    /// A consumer at frame `from` re-entered the pattern of frame `to`:
    /// record the edge in `from`'s low link and flip every frame in the
    /// affected region to recursive/set semantics. `to` is usually below
    /// `from` (a back edge), but a cross edge to a leftover uncompleted
    /// sibling *above* the consumer is possible too — either way the
    /// frames between them saturate together.
    pub(crate) fn record_link(&mut self, from: usize, to: usize) {
        let frame = &mut self.frames[from];
        frame.link = frame.link.min(to);
        self.flip_from(from.min(to));
    }

    /// Fold a finished-but-incomplete child evaluation's low link into its
    /// enclosing frame. An uncompleted child always forces fixpoint
    /// re-passes over the parent, so the affected region flips to set
    /// semantics regardless of edge direction.
    pub(crate) fn propagate(&mut self, parent: usize, child_link: usize) {
        let frame = &mut self.frames[parent];
        frame.link = frame.link.min(child_link);
        self.flip_from(parent.min(child_link));
    }

    /// Switch every frame at or above `pos` to recursive evaluation:
    /// deduplicate the answers accumulated so far (keeping first
    /// occurrences, so replay order is the derivation order) and install
    /// the seen-set that makes further insertion idempotent. Consumers
    /// only come into existence at or after the flip of their target, so
    /// no live answer cursor can observe the compaction.
    fn flip_from(&mut self, pos: usize) {
        for frame in &mut self.frames[pos..] {
            if frame.recursive {
                continue;
            }
            frame.recursive = true;
            let mut seen = FxHashSet::default();
            frame.answers.retain(|a| seen.insert(a.term.clone()));
            frame.seen = Some(seen);
        }
    }

    /// Record a derived answer for the frame at `pos`. Returns whether the
    /// answer was fresh (pre-recursion frames keep duplicates and always
    /// report fresh, exactly like the old enumerating path).
    pub(crate) fn insert_answer(&mut self, pos: usize, answer: CachedAnswer) -> bool {
        let frame = &mut self.frames[pos];
        if let Some(seen) = &mut frame.seen {
            if !seen.insert(answer.term.clone()) {
                return false;
            }
        }
        frame.answers.push(answer);
        self.stamp += 1;
        true
    }

    /// Pop the completed region `[pos..]` off the stack, returning its
    /// frames bottom-up (the leader first) for publication.
    pub(crate) fn complete_region(&mut self, pos: usize) -> Vec<SubgoalFrame> {
        debug_assert!(
            self.frames[pos..].iter().all(|f| f.link >= pos),
            "completing a region with links below its leader"
        );
        let frames: Vec<SubgoalFrame> = self.frames.drain(pos..).collect();
        for frame in &frames {
            self.index.remove(&frame.pattern);
        }
        frames
    }

    /// Error-path cleanup: drop the frames at `[pos..]` without
    /// publishing anything (only completed evaluations may publish).
    pub(crate) fn unwind_to(&mut self, pos: usize) {
        while self.frames.len() > pos {
            let frame = self.frames.pop().expect("len > pos");
            self.index.remove(&frame.pattern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goal(vars: &[u32]) -> Term {
        Term::pred("p", vars.iter().map(|&v| Term::var(v)).collect())
    }

    #[test]
    fn variants_share_a_pattern() {
        assert_eq!(canonicalize_vars(&goal(&[7, 9])), goal(&[0, 1]));
        assert_eq!(
            canonicalize_vars(&goal(&[3, 4])),
            canonicalize_vars(&goal(&[10, 2]))
        );
        // Repeated variables stay repeated; distinct stay distinct.
        assert_ne!(
            canonicalize_vars(&goal(&[5, 5])),
            canonicalize_vars(&goal(&[5, 6]))
        );
    }

    #[test]
    fn canonicalize_counts_vars() {
        let t = Term::pred(
            "f",
            vec![Term::var(8), Term::atom("a"), Term::var(8), Term::var(2)],
        );
        let (canon, n) = canonicalize(&t);
        assert_eq!(n, 2);
        assert_eq!(
            canon,
            Term::pred(
                "f",
                vec![Term::var(0), Term::atom("a"), Term::var(0), Term::var(1)],
            )
        );
    }

    #[test]
    fn lookup_hit_miss_and_epoch_invalidation() {
        let table = AnswerTable::new();
        let pat = canonicalize_vars(&goal(&[1]));
        assert!(matches!(
            table.lookup(&pat, &TableValidity::epoch_only(0)),
            Lookup::Miss { invalidated: false }
        ));
        table.insert(
            pat.clone(),
            TableValidity::epoch_only(0),
            Arc::new(AnswerSet::from(vec![CachedAnswer {
                term: Term::pred("p", vec![Term::atom("a")]),
                n_vars: 0,
            }])),
        );
        let Lookup::Hit(answers) = table.lookup(&pat, &TableValidity::epoch_only(0)) else {
            panic!("expected hit");
        };
        assert_eq!(answers.len(), 1);
        // Same pattern at a newer epoch: stale entry dropped (epoch-only
        // snapshots are dynamic, so no dependency survival applies).
        assert!(matches!(
            table.lookup(&pat, &TableValidity::epoch_only(1)),
            Lookup::Miss { invalidated: true }
        ));
        assert!(table.is_empty());
    }

    #[test]
    fn dependency_snapshot_survives_unrelated_epoch_bump() {
        let table = AnswerTable::new();
        let pat = canonicalize_vars(&goal(&[1]));
        let deps = Arc::new(vec![(PredKey::new("p", 1), 3)]);
        let built = TableValidity {
            epoch: 5,
            structural: 0,
            dynamic: false,
            deps: Arc::clone(&deps),
        };
        table.insert(
            pat.clone(),
            built.clone(),
            Arc::new(AnswerSet::from(Vec::new())),
        );
        // Epoch moved (something unrelated changed) but p/1's generation
        // didn't: the entry survives.
        let current = TableValidity {
            epoch: 9,
            ..built.clone()
        };
        assert!(matches!(table.lookup(&pat, &current), Lookup::Hit(_)));
        // p/1's generation moved: dropped.
        let current = TableValidity {
            epoch: 10,
            deps: Arc::new(vec![(PredKey::new("p", 1), 4)]),
            ..built.clone()
        };
        assert!(matches!(
            table.lookup(&pat, &current),
            Lookup::Miss { invalidated: true }
        ));
        // Structural config moved with generations intact: also dropped.
        table.insert(
            pat.clone(),
            built.clone(),
            Arc::new(AnswerSet::from(Vec::new())),
        );
        let current = TableValidity {
            epoch: 11,
            structural: 1,
            ..built
        };
        assert!(matches!(
            table.lookup(&pat, &current),
            Lookup::Miss { invalidated: true }
        ));
    }

    #[test]
    fn clear_drops_every_entry() {
        let table = AnswerTable::new();
        table.insert(
            Term::atom("q"),
            TableValidity::epoch_only(0),
            Arc::new(AnswerSet::from(Vec::new())),
        );
        assert_eq!(table.len(), 1);
        table.clear();
        assert!(table.is_empty());
    }
}
