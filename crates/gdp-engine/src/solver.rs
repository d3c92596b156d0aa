//! The SLD resolution solver.
//!
//! An iterative, trail-based machine: the continuation (remaining goals) is
//! a persistent cons list shared by choice points, backtracking undoes the
//! trail to the recorded mark, and clause alternatives are cursors into the
//! knowledge base's candidate lists. Nothing recurses on the host stack
//! except sub-solvers, which are bounded by the [`Budget`]'s depth limit —
//! sub-solvers implement exactly the constructs the paper's formula grammar
//! needs beyond plain conjunction: `not` (negation as failure), `forall`
//! (bounded universal quantification), and the aggregation primitives
//! (`findall`, `card`, `aggregate`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::arith;
use crate::budget::Budget;
use crate::builtins::{self, BuiltinOutcome};
use crate::error::{EngineError, EngineResult};
use crate::kb::{BoundSet, Candidates, KnowledgeBase, NumRange, PredKey};
use crate::symbol::{symbols, Sym};
use crate::table::{self, AnswerSet, CachedAnswer, CyclePolicy, Forest, Lookup};
use crate::term::{Term, Var};
use crate::trace::{NullSink, Port, TraceEvent, TraceSink};
use crate::unify::{resolve_deep, BindStore, TrailMark};

/// Goals whose ports are not reported: pure scheduling constructs that a
/// human reading a trace does not think of as calls.
fn untraced_port(key: PredKey) -> bool {
    (key.name == symbols::and() && key.arity == 2)
        || (key.name == symbols::true_() && key.arity == 0)
}

/// Attribution key for budget steps spent on goals that have no predicate
/// key (unbound-variable and non-callable goal errors), so the profiler's
/// step totals still partition `SolverStats::steps` exactly.
fn invalid_goal_key() -> PredKey {
    PredKey::new("$invalid_goal", 0)
}

/// One answer to a query: the query's variables with their resolved values.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    bindings: Vec<(Var, Term)>,
}

impl Solution {
    /// The value bound to `v`, if `v` occurred in the query.
    ///
    /// A variable left unbound by the solution maps to itself.
    pub fn get(&self, v: Var) -> Option<&Term> {
        self.bindings.iter().find(|(w, _)| *w == v).map(|(_, t)| t)
    }

    /// All `(variable, value)` pairs, in the variables' first-occurrence
    /// order within the query.
    pub fn bindings(&self) -> &[(Var, Term)] {
        &self.bindings
    }
}

/// Execution counters for one [`Solver`], accumulated across all queries
/// it runs. Readable after any `solve`/`prove`/`count`/`iter` via
/// [`Solver::stats`]. The engine's only execution counters: the answer
/// table keeps none, so every table event is counted here, once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Inference steps consumed from the budget.
    pub steps: u64,
    /// Clause-head resolution attempts.
    pub resolutions: u64,
    /// Tabled calls answered from a completed table.
    pub table_hits: u64,
    /// Tabled calls that had to enumerate (or fell back to plain SLD).
    pub table_misses: u64,
    /// Completed answer sets this solver recorded.
    pub table_inserts: u64,
    /// Stale (out-of-epoch) entries this solver's lookups dropped.
    pub table_invalidations: u64,
    /// Tabled calls that fell back to plain SLD resolution instead of
    /// using the table: a re-entry observed from a negation/aggregation
    /// sub-machine (where a partial answer set must not leak), or a call
    /// whose SLG evaluation the depth budget refused. Non-zero values are
    /// a *degradation signal* — the call still answers correctly, but
    /// without memoization.
    pub table_fallbacks: u64,
    /// Tabled calls answered from an MVCC *snapshot* table — cached work
    /// carried over from the live KB and reused by a pinned reader. A
    /// subset of [`SolverStats::table_hits`].
    pub snapshot_hits: u64,
}

impl SolverStats {
    /// Component-wise accumulation — merging per-worker reports from a
    /// parallel batch into one global view.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.steps += other.steps;
        self.resolutions += other.resolutions;
        self.table_hits += other.table_hits;
        self.table_misses += other.table_misses;
        self.table_inserts += other.table_inserts;
        self.table_invalidations += other.table_invalidations;
        self.table_fallbacks += other.table_fallbacks;
        self.snapshot_hits += other.snapshot_hits;
    }
}

/// Entry point for running queries against a [`KnowledgeBase`].
///
/// The solver is generic over its [`TraceSink`]; the default [`NullSink`]
/// has `ENABLED == false`, so every trace emission site in the machine is
/// statically compiled away on the untraced path (see DESIGN.md §6.9).
pub struct Solver<'kb, S: TraceSink = NullSink> {
    kb: &'kb KnowledgeBase,
    budget: Budget,
    /// Shared with every sub-machine, like the budget, so `not`/`forall`/
    /// aggregation sub-solvers count into the same totals. `steps` stays
    /// 0 here: the budget counts steps.
    stats: Rc<Cell<SolverStats>>,
    /// Shared with every sub-machine, like the budget and stats, so
    /// events from `not`/`forall`/aggregation sub-solvers land in the same
    /// stream (tagged with their nesting depth).
    sink: Rc<RefCell<S>>,
}

impl<'kb> Solver<'kb> {
    /// A solver over `kb` with the given resource budget. The budget is
    /// shared across all queries issued through this solver instance.
    pub fn new(kb: &'kb KnowledgeBase, budget: Budget) -> Solver<'kb> {
        Solver::with_sink(kb, budget, NullSink)
    }
}

impl<'kb, S: TraceSink> Solver<'kb, S> {
    /// A solver over `kb` that reports port-model events and step
    /// attribution into `sink` (e.g. a [`crate::Profiler`] or
    /// [`crate::RingTrace`]). Answers are identical to an untraced solver;
    /// only observation is added.
    pub fn with_sink(kb: &'kb KnowledgeBase, budget: Budget, sink: S) -> Solver<'kb, S> {
        Solver {
            kb,
            budget,
            stats: Rc::default(),
            sink: Rc::new(RefCell::new(sink)),
        }
    }

    /// Execution counters accumulated so far (across every query this
    /// solver instance has run, including sub-solvers).
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            steps: self.budget.steps_used(),
            ..self.stats.get()
        }
    }

    /// Read access to the attached sink (inspect a profiler or ring
    /// mid-session).
    pub fn sink(&self) -> std::cell::Ref<'_, S> {
        self.sink.borrow()
    }

    /// Consume the solver and return its sink with everything it
    /// collected.
    ///
    /// # Panics
    ///
    /// Panics if a [`SolutionIter`] from this solver is still alive (the
    /// iterator shares the sink).
    pub fn into_sink(self) -> S {
        match Rc::try_unwrap(self.sink) {
            Ok(cell) => cell.into_inner(),
            Err(_) => panic!("into_sink while a solution iterator is still alive"),
        }
    }

    fn machine(&self, goal: Term) -> EngineResult<Machine<'kb, S>> {
        Machine::start(
            self.kb,
            self.budget.clone(),
            Rc::clone(&self.stats),
            Rc::clone(&self.sink),
            goal,
        )
    }

    /// Collect up to `max_solutions` answers to `goal`.
    pub fn solve(&self, goal: Term, max_solutions: usize) -> EngineResult<Vec<Solution>> {
        let query_vars = goal.variables();
        let mut machine = self.machine(goal)?;
        let mut out = Vec::new();
        while out.len() < max_solutions && machine.next_solution()? {
            out.push(Solution {
                bindings: query_vars
                    .iter()
                    .map(|&v| (v, resolve_deep(&machine.store, &Term::Var(v))))
                    .collect(),
            });
        }
        Ok(out)
    }

    /// Collect all answers to `goal`.
    pub fn solve_all(&self, goal: Term) -> EngineResult<Vec<Solution>> {
        self.solve(goal, usize::MAX)
    }

    /// Is `goal` provable at all?
    pub fn prove(&self, goal: Term) -> EngineResult<bool> {
        let mut machine = self.machine(goal)?;
        machine.next_solution()
    }

    /// Number of answers to `goal` (with duplicates; see `card` for the
    /// distinct count the paper's cardinality primitive uses).
    pub fn count(&self, goal: Term) -> EngineResult<usize> {
        let mut machine = self.machine(goal)?;
        let mut n = 0;
        while machine.next_solution()? {
            n += 1;
        }
        Ok(n)
    }

    /// Stream answers lazily: each `next()` resumes the resolution machine
    /// where the previous answer left off, so consumers pay only for the
    /// solutions they take.
    pub fn iter(&self, goal: Term) -> EngineResult<SolutionIter<'kb, S>> {
        let query_vars = goal.variables();
        let machine = self.machine(goal)?;
        Ok(SolutionIter {
            machine,
            query_vars,
        })
    }
}

/// Lazy solution stream returned by [`Solver::iter`].
pub struct SolutionIter<'kb, S: TraceSink = NullSink> {
    machine: Machine<'kb, S>,
    query_vars: Vec<Var>,
}

impl<S: TraceSink> Iterator for SolutionIter<'_, S> {
    type Item = EngineResult<Solution>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.machine.next_solution() {
            Ok(true) => Some(Ok(Solution {
                bindings: self
                    .query_vars
                    .iter()
                    .map(|&v| (v, resolve_deep(&self.machine.store, &Term::Var(v))))
                    .collect(),
            })),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Persistent goal continuation.
enum Cont {
    Done,
    Goal(Term, Rc<Cont>),
}

impl Cont {
    fn push(rest: &Rc<Cont>, goal: Term) -> Rc<Cont> {
        Rc::new(Cont::Goal(goal, Rc::clone(rest)))
    }
}

impl Drop for Cont {
    /// Iterative drop: a runaway query can build a continuation list
    /// hundreds of thousands of cells long before its budget trips, and
    /// the default recursive drop would overflow the host stack unwinding
    /// it.
    fn drop(&mut self) {
        let mut next = match self {
            Cont::Goal(_, rest) => Some(std::mem::replace(rest, Rc::new(Cont::Done))),
            Cont::Done => None,
        };
        while let Some(rc) = next {
            next = match Rc::try_unwrap(rc) {
                Ok(mut cont) => {
                    let taken = match &mut cont {
                        Cont::Goal(_, rest) => Some(std::mem::replace(rest, Rc::new(Cont::Done))),
                        Cont::Done => None,
                    };
                    // `cont` now has a trivial tail; its drop is shallow.
                    taken
                }
                // Still shared: another handle keeps the rest alive.
                Err(_) => None,
            };
        }
    }
}

/// Active `range_call` bounds, as a persistent cons list (like [`Cont`]):
/// choice points capture the list by reference and backtracking restores
/// it in O(1). An entry constrains an *unbound* variable for exactly the
/// derivation extent of its `range_call`'s goal — the paired `$range_chk`
/// pops it on the way out.
enum RangeCtx {
    Empty,
    Bound {
        var: Var,
        range: NumRange,
        rest: Rc<RangeCtx>,
    },
}

/// Pending alternatives at a choice point.
enum Alts<'kb> {
    /// Remaining clause candidates for a user-predicate call.
    Clauses {
        goal: Term,
        clauses: Candidates<'kb>,
        next: usize,
    },
    /// The right branch of a disjunction.
    Disjunct { right: Term },
    /// Remaining integers for `between(L, H, X)`.
    Between { var: Term, cur: i64, hi: i64 },
    /// Remaining cached answers for a tabled call.
    Answers {
        goal: Term,
        answers: Arc<AnswerSet>,
        /// The answer positions the call's `range_call` bounds admit,
        /// ascending; `None` replays every answer.
        picked: Option<Vec<u32>>,
        next: usize,
    },
    /// A recursive consumer over the *live* answer list of an in-flight
    /// subgoal frame in the answer forest. Unlike [`Alts::Answers`] the
    /// list can grow while this choice point is pending: answers a
    /// producer derives after the cursor was pushed are picked up on
    /// redo, which is how answers propagate within a saturation pass.
    Live {
        goal: Term,
        /// Forest stack position of the producing frame. Stable for the
        /// lifetime of the choice point: a region at or below the frame
        /// cannot complete while a consumer machine above it is running.
        frame: usize,
        next: usize,
    },
}

struct ChoicePoint<'kb> {
    cont: Rc<Cont>,
    mark: TrailMark,
    ranges: Rc<RangeCtx>,
    alts: Alts<'kb>,
}

/// How many answers an [`Alts::Answers`] cursor walks: the picked
/// positions, or the whole set.
fn replay_len(answers: &AnswerSet, picked: &Option<Vec<u32>>) -> usize {
    picked.as_ref().map_or(answers.len(), Vec::len)
}

pub(crate) struct Machine<'kb, S: TraceSink = NullSink> {
    kb: &'kb KnowledgeBase,
    pub(crate) store: BindStore,
    cont: Rc<Cont>,
    cps: Vec<ChoicePoint<'kb>>,
    /// Active `range_call` bounds on this derivation path.
    ranges: Rc<RangeCtx>,
    budget: Budget,
    stats: Rc<Cell<SolverStats>>,
    /// Trace sink shared with sub-machines; every use is statically
    /// guarded by `S::ENABLED`.
    sink: Rc<RefCell<S>>,
    /// The SLG answer forest: in-flight tabled subgoals with their
    /// growing answer sets. Shared with every sub-machine, like the
    /// budget, so a recursive call finds the frame its ancestor pushed.
    forest: Rc<RefCell<Forest>>,
    /// What role this machine plays in SLG evaluation — it decides how a
    /// call into an in-flight (active) table pattern is resolved.
    slg: SlgCtx,
    /// False until the first `next_solution` call; subsequent calls must
    /// backtrack before resuming the main loop.
    started: bool,
    /// Set when the machine has exhausted all alternatives.
    exhausted: bool,
}

/// The SLG role of one [`Machine`].
#[derive(Clone, Copy, Debug)]
enum SlgCtx {
    /// The top-level query machine. Every tabled evaluation it starts
    /// completes (and publishes) before its continuation resumes, so it
    /// never observes an active pattern of its own making.
    Outer,
    /// A producer pass enumerating the pattern of the forest frame at
    /// stack position `pos`. The *root* dispatch — the first call on the
    /// frame's own pattern — resolves against the program clauses (that
    /// is what a producer is); after `root_done`, calls into active
    /// patterns consume live answers (or succeed, under a coinductive
    /// policy).
    Pass { pos: usize, root_done: bool },
    /// An auxiliary sub-machine (`not`/`absent`/`forall`/`once`/
    /// aggregation): its answers feed non-monotone constructs, so it must
    /// never observe a *partial* answer set — calls into active patterns
    /// fall back to plain SLD, exactly like the pre-SLG engine, and are
    /// counted in [`SolverStats::table_fallbacks`]. `enclosing` remembers
    /// the nearest producer frame so low-links of subgoals evaluated from
    /// here still propagate to the region that must wait for them.
    Aux { enclosing: Option<usize> },
}

impl<'kb, S: TraceSink> Machine<'kb, S> {
    pub(crate) fn start(
        kb: &'kb KnowledgeBase,
        budget: Budget,
        stats: Rc<Cell<SolverStats>>,
        sink: Rc<RefCell<S>>,
        goal: Term,
    ) -> EngineResult<Machine<'kb, S>> {
        let mut store = BindStore::new();
        if let Some(max) = goal.max_var() {
            store.ensure(max);
        }
        Ok(Machine {
            kb,
            store,
            cont: Cont::push(&Rc::new(Cont::Done), goal),
            cps: Vec::new(),
            ranges: Rc::new(RangeCtx::Empty),
            budget,
            stats,
            sink,
            forest: Rc::new(RefCell::new(Forest::new())),
            slg: SlgCtx::Outer,
            started: false,
            exhausted: false,
        })
    }

    /// The nearest enclosing producer frame, if any — the frame whose
    /// low link must absorb the links of subgoals evaluated from this
    /// machine.
    fn enclosing_frame(&self) -> Option<usize> {
        match self.slg {
            SlgCtx::Outer => None,
            SlgCtx::Pass { pos, .. } => Some(pos),
            SlgCtx::Aux { enclosing } => enclosing,
        }
    }

    /// Spawn a sub-machine sharing this machine's budget, over a goal that
    /// has already been resolved against this machine's store. Unbound
    /// variables of the outer store keep their identities (the sub-store is
    /// sized to cover them by length, all slots unbound — sizing by
    /// `ensure(len - 1)` used to underflow on an empty outer store).
    fn sub_machine(&self, goal: Term) -> EngineResult<Machine<'kb, S>> {
        let mut store = BindStore::new();
        store.ensure_len(self.store.len());
        if let Some(max) = goal.max_var() {
            store.ensure(max);
        }
        Ok(Machine {
            kb: self.kb,
            store,
            cont: Cont::push(&Rc::new(Cont::Done), goal),
            cps: Vec::new(),
            // A fresh, empty range context: bounds never cross a
            // sub-machine boundary. Tabled enumerations in particular run
            // unpruned, since their answer sets are reused under other
            // bounds; a bounded caller narrows the replay instead
            // (`Machine::replay`).
            ranges: Rc::new(RangeCtx::Empty),
            budget: self.budget.clone(),
            stats: Rc::clone(&self.stats),
            sink: Rc::clone(&self.sink),
            forest: Rc::clone(&self.forest),
            slg: SlgCtx::Aux {
                enclosing: self.enclosing_frame(),
            },
            started: false,
            exhausted: false,
        })
    }

    /// Spawn the producer machine for one saturation pass over the frame
    /// at `pos`. The goal is the frame's canonical pattern, so the store
    /// is fresh (pattern variables are numbered from zero) — unlike
    /// [`Machine::sub_machine`], nothing from the caller's store is in
    /// scope.
    fn pass_machine(&self, goal: Term, pos: usize) -> Machine<'kb, S> {
        let mut store = BindStore::new();
        if let Some(max) = goal.max_var() {
            store.ensure(max);
        }
        Machine {
            kb: self.kb,
            store,
            cont: Cont::push(&Rc::new(Cont::Done), goal),
            cps: Vec::new(),
            ranges: Rc::new(RangeCtx::Empty),
            budget: self.budget.clone(),
            stats: Rc::clone(&self.stats),
            sink: Rc::clone(&self.sink),
            forest: Rc::clone(&self.forest),
            slg: SlgCtx::Pass {
                pos,
                root_done: false,
            },
            started: false,
            exhausted: false,
        }
    }

    /// Report a port-model event. Call sites guard on `S::ENABLED` so the
    /// event construction (and any goal clone feeding it) is compiled away
    /// for the [`NullSink`].
    fn emit(&self, port: Port, key: PredKey, goal: Term) {
        debug_assert!(S::ENABLED, "emit on a disabled sink");
        let event = TraceEvent {
            port,
            depth: self.budget.depth(),
            key,
            goal,
        };
        self.sink.borrow_mut().event(&event);
    }

    /// Count one event into the shared stats. A get/set pair, which the
    /// optimiser reduces to a single field add: `Cell::update` is newer
    /// than the MSRV.
    #[inline]
    fn count(&self, event: impl FnOnce(&mut SolverStats)) {
        let mut stats = self.stats.get();
        event(&mut stats);
        self.stats.set(stats);
    }

    /// Attribute one consumed budget step to `key` (profiling).
    #[inline]
    fn attribute_step(&self, key: PredKey) {
        if S::ENABLED {
            self.sink.borrow_mut().step(key);
        }
    }

    /// Advance to the next solution. Returns `Ok(false)` when no more exist.
    pub(crate) fn next_solution(&mut self) -> EngineResult<bool> {
        if self.exhausted {
            return Ok(false);
        }
        if self.started {
            // Re-entry: the previous solution's bindings are still in
            // place; find another path.
            if !self.backtrack()? {
                return Ok(false);
            }
        }
        self.started = true;
        self.run()
    }

    fn run(&mut self) -> EngineResult<bool> {
        loop {
            let (goal, rest) = match &*self.cont {
                Cont::Done => return Ok(true),
                Cont::Goal(g, rest) => (g.clone(), Rc::clone(rest)),
            };
            self.cont = rest;
            if !self.step_goal(goal)? && !self.backtrack()? {
                return Ok(false);
            }
        }
    }

    /// Execute one goal. Returns `Ok(true)` to continue with the current
    /// continuation, `Ok(false)` to fail into backtracking.
    fn step_goal(&mut self, goal: Term) -> EngineResult<bool> {
        // The budget step for dispatching this goal is consumed (and, when
        // a sink is attached, attributed) here, so profiler step totals
        // partition `SolverStats::steps` exactly.
        self.budget.step()?;
        let goal = self.store.deref(&goal).clone();
        let key = match &goal {
            Term::Var(_) => {
                self.attribute_step(invalid_goal_key());
                return Err(EngineError::Instantiation { context: "call" });
            }
            Term::Atom(s) => PredKey { name: *s, arity: 0 },
            Term::Compound(f, args) => match u16::try_from(args.len()) {
                Ok(arity) => PredKey { name: *f, arity },
                // Never truncate: a `p/65537` call must not dispatch to
                // `p/1` clauses.
                Err(_) => {
                    self.attribute_step(invalid_goal_key());
                    return Err(EngineError::ArityOverflow {
                        name: *f,
                        arity: args.len(),
                    });
                }
            },
            other => {
                self.attribute_step(invalid_goal_key());
                return Err(EngineError::NotCallable {
                    goal: other.clone(),
                });
            }
        };
        self.attribute_step(key);

        if S::ENABLED && !untraced_port(key) {
            self.emit(Port::Call, key, goal.clone());
            let out = self.dispatch(key, goal.clone());
            match &out {
                // Resolved on exit so the trace shows the bindings the
                // goal succeeded with.
                Ok(true) => self.emit(Port::Exit, key, resolve_deep(&self.store, &goal)),
                Ok(false) => self.emit(Port::Fail, key, goal),
                // Errors propagate without a port of their own; the last
                // Call in the ring shows where the failure happened.
                Err(_) => {}
            }
            out
        } else {
            self.dispatch(key, goal)
        }
    }

    /// Dispatch a dereferenced, keyed goal: control constructs, builtins,
    /// natives, tabled calls, then user-clause resolution.
    fn dispatch(&mut self, key: PredKey, goal: Term) -> EngineResult<bool> {
        // Control constructs first.
        if let Some(done) = self.try_control(key.name, &goal)? {
            return Ok(done);
        }

        // Builtins (arithmetic, comparison, type tests, term construction).
        match builtins::dispatch(&mut self.store, key, goal.args())? {
            BuiltinOutcome::Succeeded => return Ok(true),
            BuiltinOutcome::Failed => return Ok(false),
            BuiltinOutcome::NotABuiltin => {}
        }

        // Native predicates registered by higher layers.
        if let Some(native) = self.kb.native(key) {
            if S::ENABLED {
                self.emit(Port::NativeCall, key, goal.clone());
            }
            let native = Arc::clone(native);
            return native(&mut self.store, goal.args());
        }

        // Tabled predicates: consult the memoized answer cache first.
        if self.kb.is_tabled(key) {
            return self.call_tabled(key, goal);
        }

        // User predicates: clause resolution.
        self.call_user(key, goal)
    }

    /// Resolve a call to a tabled predicate.
    ///
    /// * Completed pattern (persistent table hit): replay the answers.
    /// * Active pattern (recursive re-entry while the pattern is mid-
    ///   evaluation on the forest stack): inside a producer pass, record
    ///   the cycle and consume the *live* answer list (or succeed, for a
    ///   coinductive predicate); inside an auxiliary machine, fall back
    ///   to plain SLD — a negation must never observe a partial table.
    /// * New pattern: run a full SLG evaluation ([`Self::evaluate_subgoal`]),
    ///   then replay the completed answers. When the evaluation cannot
    ///   complete because the subgoal joined an enclosing recursive
    ///   region, the caller consumes live answers like any re-entry.
    ///
    /// The only remaining degradations to plain SLD — auxiliary-context
    /// re-entry and a depth-budget refusal — are counted in
    /// [`SolverStats::table_fallbacks`] and traced as
    /// [`Port::TableFallback`]; nothing degrades silently any more.
    fn call_tabled(&mut self, key: PredKey, goal: Term) -> EngineResult<bool> {
        let resolved = resolve_deep(&self.store, &goal);
        let (pattern, _) = table::canonicalize(&resolved);
        let active = self.forest.borrow().active_pos(&pattern);
        if let Some(target) = active {
            if let SlgCtx::Pass { pos, root_done } = &mut self.slg {
                if target == *pos && !*root_done {
                    // The producer's root dispatch of its own pattern:
                    // resolve against the program clauses — that is the
                    // production. Only *inner* occurrences go through the
                    // answer lists.
                    *root_done = true;
                    return self.call_user(key, goal);
                }
            }
            return self.call_active(key, goal, target);
        }
        let validity = self.kb.dep_snapshot(key);
        match self.kb.table().lookup(&pattern, &validity) {
            Lookup::Hit(answers) => {
                let from_snapshot = self.kb.table().is_snapshot();
                self.count(|s| {
                    s.table_hits += 1;
                    s.snapshot_hits += u64::from(from_snapshot);
                });
                if S::ENABLED {
                    let port = if from_snapshot {
                        Port::SnapshotHit
                    } else {
                        Port::TableHit
                    };
                    self.emit(port, key, resolved.clone());
                }
                self.replay(key, goal, answers)
            }
            Lookup::Miss { invalidated } => {
                self.count(|s| {
                    s.table_misses += 1;
                    s.table_invalidations += u64::from(invalidated);
                });
                if invalidated && S::ENABLED {
                    self.emit(Port::Invalidate, key, resolved.clone());
                }
                let Ok(_guard) = self.budget.enter() else {
                    // The evaluation machinery would blow the depth limit
                    // where a plain call would not; stay equivalent to the
                    // untabled solver (and make the degradation visible).
                    return self.table_fallback(key, goal);
                };
                match self.evaluate_subgoal(key, pattern.clone(), validity)? {
                    Some(answers) => self.replay(key, goal, answers),
                    None => {
                        // The subgoal joined an enclosing recursive region
                        // and stays active until that region's leader
                        // completes; resolve this call like a re-entry.
                        let target = self
                            .forest
                            .borrow()
                            .active_pos(&pattern)
                            .expect("uncompleted subgoal stays on the forest stack");
                        self.call_active(key, goal, target)
                    }
                }
            }
        }
    }

    /// Resolve a tabled call whose pattern is active (mid-evaluation) at
    /// forest position `target`.
    fn call_active(&mut self, key: PredKey, goal: Term, target: usize) -> EngineResult<bool> {
        if let SlgCtx::Pass { pos: my_pos, .. } = self.slg {
            self.forest.borrow_mut().record_link(my_pos, target);
            if self.kb.cycle_policy_of(key) == CyclePolicy::Coinductive {
                // Coinductive cycle: the re-entered goal is its own
                // evidence (greatest-fixpoint reading) and succeeds with
                // no additional bindings — the goal is an instance of the
                // very pattern being evaluated.
                return Ok(true);
            }
            return self.consume_live(goal, target);
        }
        // Auxiliary machines (negation, forall, aggregation) and the
        // outer machine must not read a partial answer set: plain SLD,
        // counted and traced.
        self.table_fallback(key, goal)
    }

    /// The observable SLD fallback: count it, trace it, resolve the call
    /// against the clauses directly.
    fn table_fallback(&mut self, key: PredKey, goal: Term) -> EngineResult<bool> {
        self.count(|s| s.table_fallbacks += 1);
        if S::ENABLED {
            self.emit(Port::TableFallback, key, goal.clone());
        }
        self.call_user(key, goal)
    }

    /// Run a full SLG evaluation of a new subgoal `pattern`: push a frame,
    /// saturate its strongly-connected region to a fixpoint, and — if this
    /// frame turns out to be the region's leader — publish every member's
    /// completed answer set to the persistent table. Returns the completed
    /// answers for `pattern`, or `None` when the subgoal linked into an
    /// enclosing region and must stay active until *that* region's leader
    /// completes.
    fn evaluate_subgoal(
        &mut self,
        key: PredKey,
        pattern: Term,
        validity: Arc<crate::table::TableValidity>,
    ) -> EngineResult<Option<Arc<AnswerSet>>> {
        let pos = self
            .forest
            .borrow_mut()
            .push(key, pattern, Arc::clone(&validity));
        if let Err(e) = self.saturate(pos) {
            // Only completed evaluations may publish; drop the partial
            // frames so a later query starts clean.
            self.forest.borrow_mut().unwind_to(pos);
            return Err(e);
        }
        let link = self.forest.borrow().link(pos);
        if link < pos {
            // Not the leader: an enclosing frame is part of this region
            // and must absorb the low link before its own completion
            // check.
            if let Some(parent) = self.enclosing_frame() {
                self.forest.borrow_mut().propagate(parent, link);
            }
            return Ok(None);
        }
        // Leader: the whole region [pos..] is saturated. Publish each
        // member against the validity snapshot taken when its evaluation
        // began.
        let frames = self.forest.borrow_mut().complete_region(pos);
        let mut own = None;
        for (i, frame) in frames.into_iter().enumerate() {
            let answers = Arc::new(AnswerSet::from(frame.answers));
            self.kb.table().insert(
                frame.pattern.clone(),
                (*frame.validity).clone(),
                Arc::clone(&answers),
            );
            self.count(|s| s.table_inserts += 1);
            if S::ENABLED {
                self.emit(Port::Complete, frame.key, frame.pattern.clone());
                self.emit(Port::TableInsert, frame.key, frame.pattern);
            }
            if i == 0 {
                own = Some(answers);
            }
        }
        Ok(own)
    }

    /// Saturate the region rooted at frame `pos`: run producer passes over
    /// `pos` and every frame stacked above it until a full round derives
    /// no new answer. A non-recursive subgoal (no re-entry was observed
    /// and no incomplete child remains) is complete after its single pass
    /// — that pass is byte-for-byte the old enumerating sub-machine, so
    /// non-recursive tabling behaves exactly as before.
    fn saturate(&mut self, pos: usize) -> EngineResult<()> {
        let mut round = 0u64;
        loop {
            let stamp_before = self.forest.borrow().stamp();
            let mut i = pos;
            loop {
                let len = self.forest.borrow().len();
                if i >= len {
                    break;
                }
                if S::ENABLED && round > 0 {
                    // Re-driving a producer over grown answer lists is the
                    // scheduler-level resume of its suspended consumers.
                    let (key, pattern) = {
                        let forest = self.forest.borrow();
                        (forest.key(i), forest.pattern(i))
                    };
                    self.emit(Port::Resume, key, pattern);
                }
                self.run_pass(i)?;
                i += 1;
            }
            let forest = self.forest.borrow();
            if !forest.is_recursive(pos) && forest.len() == pos + 1 {
                // Plain non-recursive evaluation: one pass is complete.
                return Ok(());
            }
            if forest.stamp() == stamp_before {
                // A whole round at fixpoint: the region is saturated.
                return Ok(());
            }
            drop(forest);
            round += 1;
        }
    }

    /// One producer pass: enumerate the frame's pattern in a fresh
    /// machine, feeding every derived solution into the frame's answer
    /// list (where concurrent live consumers of the same pass can already
    /// see it). A budget error aborts the evaluation without recording.
    fn run_pass(&mut self, pos: usize) -> EngineResult<()> {
        let goal = self.forest.borrow().pattern(pos);
        let mut sub = self.pass_machine(goal.clone(), pos);
        while sub.next_solution()? {
            let inst = resolve_deep(&sub.store, &goal);
            let (term, n_vars) = table::canonicalize(&inst);
            self.forest
                .borrow_mut()
                .insert_answer(pos, CachedAnswer { term, n_vars });
        }
        Ok(())
    }

    /// Consume the live answer list of the active frame at `target`, with
    /// a choice point that re-reads the (possibly grown) list on redo.
    fn consume_live(&mut self, goal: Term, target: usize) -> EngineResult<bool> {
        let mut alts = Alts::Live {
            goal,
            frame: target,
            next: 0,
        };
        let cont = Rc::clone(&self.cont);
        let mark = self.store.mark();
        let ranges = Rc::clone(&self.ranges);
        if self.try_live_alts(&mut alts)? {
            // Always keep the choice point: even a cursor at the end of
            // the list may see more answers by the time it is resumed.
            self.cps.push(ChoicePoint {
                cont,
                mark,
                ranges,
                alts,
            });
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Try live answers from the cursor until one unifies with the goal.
    /// Running dry on an incomplete table is a *suspension*: the consumer
    /// fails for now and the saturation loop re-runs it after producers
    /// have derived more answers.
    fn try_live_alts(&mut self, alts: &mut Alts<'_>) -> EngineResult<bool> {
        let Alts::Live { goal, frame, next } = alts else {
            unreachable!("try_live_alts on non-live alts");
        };
        let step_key = if S::ENABLED {
            Some(PredKey::of_term(goal).unwrap_or_else(invalid_goal_key))
        } else {
            None
        };
        loop {
            let answer = {
                let forest = self.forest.borrow();
                if *next < forest.answers_len(*frame) {
                    Some(forest.answer(*frame, *next))
                } else {
                    None
                }
            };
            let Some(answer) = answer else {
                if let Some(key) = step_key {
                    self.emit(Port::Suspend, key, goal.clone());
                }
                return Ok(false);
            };
            *next += 1;
            self.budget.step()?;
            if let Some(key) = step_key {
                self.attribute_step(key);
            }
            let instance = if answer.n_vars == 0 {
                answer.term.clone()
            } else {
                let base = self.store.alloc_block(answer.n_vars);
                answer.term.offset_vars(base)
            };
            if self.store.unify(goal, &instance) {
                return Ok(true);
            }
        }
    }

    /// Unify `goal` against cached answers, with a choice point for the
    /// remainder — the same renaming-apart discipline as clause
    /// activation, minus the bodies. Active `range_call` bounds narrow the
    /// replay to the answers the predicate's range indexes admit, as they
    /// narrow clause candidates: order is kept, and a pruned answer costs
    /// no step (DESIGN.md #17).
    fn replay(&mut self, key: PredKey, goal: Term, answers: Arc<AnswerSet>) -> EngineResult<bool> {
        let picked = match &*self.ranges {
            RangeCtx::Empty => None,
            _ => self.kb.admitted_answers(
                key,
                &answers,
                &self.store,
                goal.args(),
                &self.collect_bounds(),
            ),
        };
        let mut alts = Alts::Answers {
            goal,
            answers,
            picked,
            next: 0,
        };
        let cont = Rc::clone(&self.cont);
        let mark = self.store.mark();
        let ranges = Rc::clone(&self.ranges);
        if self.try_answer_alts(&mut alts)? {
            if let Alts::Answers {
                answers,
                picked,
                next,
                ..
            } = &alts
            {
                if *next < replay_len(answers, picked) {
                    self.cps.push(ChoicePoint {
                        cont,
                        mark,
                        ranges,
                        alts,
                    });
                }
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Try cached answers from the cursor until one unifies with the goal.
    fn try_answer_alts(&mut self, alts: &mut Alts<'_>) -> EngineResult<bool> {
        let Alts::Answers {
            goal,
            answers,
            picked,
            next,
        } = alts
        else {
            unreachable!("try_answer_alts on non-answer alts");
        };
        let step_key = if S::ENABLED {
            Some(PredKey::of_term(goal).unwrap_or_else(invalid_goal_key))
        } else {
            None
        };
        while *next < replay_len(answers, picked) {
            let answer = &answers[picked.as_ref().map_or(*next, |p| p[*next] as usize)];
            *next += 1;
            self.budget.step()?;
            if let Some(key) = step_key {
                self.attribute_step(key);
            }
            let instance = if answer.n_vars == 0 {
                answer.term.clone()
            } else {
                let base = self.store.alloc_block(answer.n_vars);
                answer.term.offset_vars(base)
            };
            if self.store.unify(goal, &instance) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Handle control constructs; `None` means the goal is not a control
    /// construct; `Some(cont?)` is the continue/fail outcome.
    fn try_control(&mut self, name: Sym, goal: &Term) -> EngineResult<Option<bool>> {
        let args = goal.args();
        let out = if name == symbols::true_() && args.is_empty() {
            Some(true)
        } else if (name == symbols::fail() || name == Sym::new("false")) && args.is_empty() {
            Some(false)
        } else if name == symbols::and() && args.len() == 2 {
            self.cont = Cont::push(&self.cont, args[1].clone());
            self.cont = Cont::push(&self.cont, args[0].clone());
            Some(true)
        } else if name == symbols::or() && args.len() == 2 {
            self.cps.push(ChoicePoint {
                cont: Rc::clone(&self.cont),
                mark: self.store.mark(),
                ranges: Rc::clone(&self.ranges),
                alts: Alts::Disjunct {
                    right: args[1].clone(),
                },
            });
            self.cont = Cont::push(&self.cont, args[0].clone());
            Some(true)
        } else if name == symbols::not() && args.len() == 1 {
            // Floundering check (§III.A): closed-world evaluation of a
            // non-ground negation is unsound — `not(open(X))` with unbound
            // `X` is neither "no X is open" nor "some X is not open" under
            // SLDNF. Report it instead of silently answering.
            let negated = resolve_deep(&self.store, &args[0]);
            if !negated.is_ground() {
                return Err(EngineError::NonGroundNegation { goal: negated });
            }
            Some(!self.prove_resolved(negated)?)
        } else if name == symbols::absent() && args.len() == 1 {
            // Existentially-closed negation: "no instance of G is
            // derivable". Free variables are local to the negation by
            // construction, so no groundness requirement applies.
            Some(!self.prove_sub(&args[0])?)
        } else if name == symbols::forall() && args.len() == 2 {
            // forall(C, T) holds iff no solution of C violates T:
            // absent((C, not(T))). The outer negation is existential over
            // the quantified variables (they are *meant* to be free); the
            // inner `not(T)` is still groundness-checked when the
            // sub-machine reaches it, after C has bound them — catching
            // non-range-restricted forall templates.
            let counterexample = Term::and(args[0].clone(), Term::not(args[1].clone()));
            Some(!self.prove_sub(&counterexample)?)
        } else if name == symbols::once() && args.len() == 1 {
            Some(self.once_sub(&args[0])?)
        } else if name == symbols::call() && args.len() == 1 {
            self.cont = Cont::push(&self.cont, args[0].clone());
            Some(true)
        } else if name == symbols::findall() && args.len() == 3 {
            let items = self.findall_sub(&args[0], &args[1], false)?;
            Some(self.store.unify(&Term::list(items), &args[2]))
        } else if name == symbols::card() && args.len() == 2 {
            // The paper's cardinality primitive (§VII.B): the number of
            // *distinct* provable instances of the formula.
            let items = self.findall_sub(&args[0], &args[0], true)?;
            let count = arith::checked_len(items.len(), "card/2")?;
            Some(self.store.unify(&count, &args[1]))
        } else if name == symbols::aggregate() && args.len() == 4 {
            Some(self.aggregate_sub(&args[0], &args[1], &args[2], &args[3])?)
        } else if name == symbols::between() && args.len() == 3 {
            Some(self.between(&args[0], &args[1], &args[2])?)
        } else if name == Sym::new("range_call") && args.len() == 2 {
            // range_call(G, Cs): declare that, while G runs, each
            // rc(X, IV) in the list Cs bounds the still-unbound variable X
            // to the numeric interval IV. The bounds are pruning hints for
            // the KB's range indexes; the `$range_chk` pushed behind G
            // re-verifies every solution (and retires the bounds), so a
            // wrapped goal — which keeps its original filter goals —
            // solves exactly as the unwrapped one. Non-variable or
            // non-parseable entries contribute nothing.
            let mut pushed: i64 = 0;
            let mut cursor = args[1].clone();
            loop {
                let cell = self.store.deref(&cursor).clone();
                let Term::Compound(f, cell_args) = &cell else {
                    break;
                };
                if *f != symbols::cons() || cell_args.len() != 2 {
                    break;
                }
                let item = self.store.deref(&cell_args[0]).clone();
                if let Term::Compound(rf, rc_args) = &item {
                    if *rf == Sym::new("rc") && rc_args.len() == 2 {
                        let var = match self.store.deref(&rc_args[0]) {
                            Term::Var(v) => Some(*v),
                            _ => None,
                        };
                        if let Some(v) = var {
                            if let Some(range) = self.parse_range(&rc_args[1]) {
                                self.ranges = Rc::new(RangeCtx::Bound {
                                    var: v,
                                    range,
                                    rest: Rc::clone(&self.ranges),
                                });
                                pushed += 1;
                            }
                        }
                    }
                }
                cursor = cell_args[1].clone();
            }
            self.cont = Cont::push(
                &self.cont,
                Term::pred("$range_chk", vec![args[1].clone(), Term::Int(pushed)]),
            );
            self.cont = Cont::push(&self.cont, args[0].clone());
            Some(true)
        } else if name == Sym::new("$range_chk") && args.len() == 2 {
            let ok = self.range_chk(&args[0]);
            // Retire this range_call's bounds unconditionally: the goal's
            // derivation extent ends here. Backtracking into the goal
            // restores them from the choice points' captured contexts.
            if let Term::Int(n) = self.store.deref(&args[1]) {
                self.pop_ranges(*n);
            }
            Some(ok)
        } else {
            None
        };
        Ok(out)
    }

    /// Decode an `iv(Lo, Hi, LoEnd, HiEnd)` term against the current
    /// store: bounds are the atoms `minf`/`inf` or arithmetic expressions,
    /// ends are `closed`/`open`. A bound that mentions unbound variables
    /// takes the low (for `Lo`) or high (for `Hi`) end of its
    /// [`Self::enclose`]ure, which only widens the interval. `None` (no
    /// constraint) for anything else — including NaN bounds and unbound
    /// subterms no active bound covers.
    fn parse_range(&self, t: &Term) -> Option<NumRange> {
        let iv = self.store.deref(t).clone();
        let Term::Compound(f, args) = &iv else {
            return None;
        };
        if *f != Sym::new("iv") || args.len() != 4 {
            return None;
        }
        let bound = |machine: &Self, t: &Term, low: bool| -> Option<f64> {
            if let Term::Atom(s) = machine.store.deref(t) {
                if *s == Sym::new("minf") {
                    return Some(f64::NEG_INFINITY);
                }
                if *s == Sym::new("inf") {
                    return Some(f64::INFINITY);
                }
            }
            let r = machine.enclose(t)?;
            Some(if low { r.lo } else { r.hi })
        };
        let end = |machine: &Self, t: &Term| -> Option<bool> {
            match machine.store.deref(t) {
                Term::Atom(s) if *s == Sym::new("closed") => Some(false),
                Term::Atom(s) if *s == Sym::new("open") => Some(true),
                _ => None,
            }
        };
        Some(NumRange::new(
            bound(self, &args[0], true)?,
            end(self, &args[2])?,
            bound(self, &args[1], false)?,
            end(self, &args[3])?,
        ))
    }

    /// The values an arithmetic expression can take here: its value when
    /// it evaluates; else, through `+`, `-` and `*`, the interval its
    /// unbound variables' active `range_call` bounds enclose it in. A
    /// `range_call` may thus bound a variable by another one that an
    /// enclosing `range_call` bounds (`rc(X, iv(X2 - W, X2 + W, …))`, as
    /// `rmap_box/4` writes for a point whose coordinates are still
    /// variables), and a lookup below a box gets the box, widened. That
    /// holds the wrapper contract: the enclosing goal's filters keep `X2`
    /// inside its bound, so the enclosure holds every value the exact
    /// bound can take. `None` when a variable has no bound.
    fn enclose(&self, t: &Term) -> Option<NumRange> {
        if let Ok(n) = crate::arith::eval(&self.store, t) {
            let v = n.as_f64();
            return (!v.is_nan()).then(|| NumRange::point(v));
        }
        let r = match self.store.deref(t) {
            Term::Var(v) => {
                let r = *self.collect_bounds().get(*v)?;
                NumRange::new(r.lo, false, r.hi, false)
            }
            Term::Compound(f, args) => match (*f, &args[..]) {
                (f, [a, b]) if f == symbols::plus() => {
                    let (a, b) = (self.enclose(a)?, self.enclose(b)?);
                    NumRange::new(a.lo + b.lo, false, a.hi + b.hi, false)
                }
                (f, [a, b]) if f == symbols::minus() => {
                    let (a, b) = (self.enclose(a)?, self.enclose(b)?);
                    NumRange::new(a.lo - b.hi, false, a.hi - b.lo, false)
                }
                (f, [a]) if f == symbols::minus() => {
                    let a = self.enclose(a)?;
                    NumRange::new(-a.hi, false, -a.lo, false)
                }
                (f, [a, b]) if f == symbols::times() => {
                    let (a, b) = (self.enclose(a)?, self.enclose(b)?);
                    let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                    if corners.iter().any(|c| c.is_nan()) {
                        return None;
                    }
                    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    NumRange::new(lo, false, hi, false)
                }
                _ => return None,
            },
            _ => return None,
        };
        (!r.lo.is_nan() && !r.hi.is_nan()).then_some(r)
    }

    /// Verify a `range_call` constraint list against the current bindings:
    /// a constraint rejects only when its variable is bound to a number,
    /// its interval parses, and the number falls outside — everything else
    /// passes vacuously (the wrapped goal's own filter goals decide).
    fn range_chk(&self, cs: &Term) -> bool {
        let mut cursor = cs.clone();
        loop {
            let cell = self.store.deref(&cursor).clone();
            let Term::Compound(f, cell_args) = &cell else {
                return true;
            };
            if *f != symbols::cons() || cell_args.len() != 2 {
                return true;
            }
            let item = self.store.deref(&cell_args[0]).clone();
            if let Term::Compound(rf, rc_args) = &item {
                if *rf == Sym::new("rc") && rc_args.len() == 2 {
                    let value = match self.store.deref(&rc_args[0]) {
                        Term::Int(i) => Some(*i as f64),
                        Term::Float(v) => Some(v.get()),
                        _ => None,
                    };
                    if let Some(x) = value {
                        if let Some(range) = self.parse_range(&rc_args[1]) {
                            if !range.contains(x) {
                                return false;
                            }
                        }
                    }
                }
            }
            cursor = cell_args[1].clone();
        }
    }

    /// Drop the `n` most recent range-context entries.
    fn pop_ranges(&mut self, n: i64) {
        for _ in 0..n {
            let rest = match &*self.ranges {
                RangeCtx::Bound { rest, .. } => Rc::clone(rest),
                RangeCtx::Empty => break,
            };
            self.ranges = rest;
        }
    }

    /// Snapshot the active range bounds for a candidate query, re-deref'ing
    /// each entry's variable: an entry whose variable got bound since the
    /// push is inert (the binding itself keys the index), and aliased
    /// variables are tracked under their current representative.
    // Kept inline in `call_user`, as it was while that was the only
    // caller: outlined, the perfbench query workload took about 5 % more
    // statement CPU (2-vCPU VM).
    #[inline(always)]
    fn collect_bounds(&self) -> BoundSet {
        let mut bounds = BoundSet::default();
        let mut cur: &RangeCtx = &self.ranges;
        while let RangeCtx::Bound { var, range, rest } = cur {
            let probe = Term::Var(*var);
            if let Term::Var(v) = self.store.deref(&probe) {
                bounds.insert(*v, *range);
            }
            cur = rest;
        }
        bounds
    }

    /// NAF / forall support: is the (resolved) goal provable? Runs in a
    /// sub-machine so no bindings escape.
    fn prove_sub(&mut self, goal: &Term) -> EngineResult<bool> {
        let resolved = resolve_deep(&self.store, goal);
        self.prove_resolved(resolved)
    }

    /// As [`Self::prove_sub`], for a goal already resolved against the
    /// current store.
    fn prove_resolved(&mut self, resolved: Term) -> EngineResult<bool> {
        let _guard = self.budget.enter()?;
        let mut sub = self.sub_machine(resolved)?;
        sub.next_solution()
    }

    /// `once(G)`: commit to the first solution of `G`, propagating its
    /// bindings into the outer store by unifying `G` with the solved
    /// instance.
    fn once_sub(&mut self, goal: &Term) -> EngineResult<bool> {
        let _guard = self.budget.enter()?;
        let resolved = resolve_deep(&self.store, goal);
        let mut sub = self.sub_machine(resolved.clone())?;
        if sub.next_solution()? {
            let instance = resolve_deep(&sub.store, &resolved);
            Ok(self.store.unify(goal, &instance))
        } else {
            Ok(false)
        }
    }

    /// Enumerate all solutions of `goal`, collecting the instantiated
    /// `template` for each. With `distinct`, duplicates are dropped (the
    /// `card` semantics).
    fn findall_sub(
        &mut self,
        template: &Term,
        goal: &Term,
        distinct: bool,
    ) -> EngineResult<Vec<Term>> {
        let _guard = self.budget.enter()?;
        // Resolve template and goal together so shared variables stay
        // shared inside the sub-machine.
        let pair = Term::pred("$pair", vec![template.clone(), goal.clone()]);
        let pair = resolve_deep(&self.store, &pair);
        let (template, goal) = (pair.args()[0].clone(), pair.args()[1].clone());
        let mut sub = self.sub_machine(goal)?;
        let mut out = Vec::new();
        let mut seen = crate::hash::FxHashSet::default();
        while sub.next_solution()? {
            let inst = resolve_deep(&sub.store, &template);
            if distinct {
                // Dedup up to variable renaming: fresh sub-machine ids must
                // not make alpha-equivalent instances look distinct.
                if seen.insert(table::canonicalize_vars(&inst)) {
                    out.push(inst);
                }
            } else {
                out.push(inst);
            }
        }
        Ok(out)
    }

    /// `aggregate(Op, Template, Goal, Result)` where `Op` is one of
    /// `avg|sum|min|max|count`. `avg`, `min`, and `max` *fail* on an empty
    /// solution set (no points → no average, matching the paper's area-
    /// average meta-fact, which only derives a value when subarea values
    /// exist); `sum` and `count` yield 0.
    fn aggregate_sub(
        &mut self,
        op: &Term,
        template: &Term,
        goal: &Term,
        result: &Term,
    ) -> EngineResult<bool> {
        let op = match self.store.deref(op) {
            Term::Atom(s) => *s,
            other => {
                return Err(EngineError::TypeError {
                    context: "aggregate/4",
                    expected: "one of avg|sum|min|max|count",
                    found: other.clone(),
                })
            }
        };
        let items = self.findall_sub(template, goal, false)?;
        if op == symbols::count() {
            let count = arith::checked_len(items.len(), "aggregate/4")?;
            return Ok(self.store.unify(&count, result));
        }
        let mut nums = Vec::with_capacity(items.len());
        for item in &items {
            match item.as_f64() {
                Some(v) => nums.push(v),
                None => {
                    return Err(EngineError::TypeError {
                        context: "aggregate/4",
                        expected: "numeric template instances",
                        found: item.clone(),
                    })
                }
            }
        }
        let value = if op == symbols::sum() {
            Some(nums.iter().sum::<f64>())
        } else if nums.is_empty() {
            None
        } else if op == symbols::avg() {
            Some(nums.iter().sum::<f64>() / nums.len() as f64)
        } else if op == symbols::min() {
            nums.iter().copied().reduce(f64::min)
        } else if op == symbols::max() {
            nums.iter().copied().reduce(f64::max)
        } else {
            return Err(EngineError::TypeError {
                context: "aggregate/4",
                expected: "one of avg|sum|min|max|count",
                found: Term::Atom(op),
            });
        };
        match value {
            Some(v) => Ok(self.store.unify(&Term::float(v), result)),
            None => Ok(false),
        }
    }

    fn between(&mut self, lo: &Term, hi: &Term, x: &Term) -> EngineResult<bool> {
        let lo = crate::arith::eval(&self.store, lo)?;
        let hi = crate::arith::eval(&self.store, hi)?;
        let (lo, hi) = match (lo, hi) {
            (crate::arith::Num::Int(a), crate::arith::Num::Int(b)) => (a, b),
            _ => {
                return Err(EngineError::TypeError {
                    context: "between/3",
                    expected: "integer bounds",
                    found: Term::atom("float"),
                })
            }
        };
        match self.store.deref(x).clone() {
            Term::Int(v) => Ok(lo <= v && v <= hi),
            Term::Var(_) => {
                if lo > hi {
                    return Ok(false);
                }
                if lo < hi {
                    self.cps.push(ChoicePoint {
                        cont: Rc::clone(&self.cont),
                        mark: self.store.mark(),
                        ranges: Rc::clone(&self.ranges),
                        alts: Alts::Between {
                            var: x.clone(),
                            cur: lo + 1,
                            hi,
                        },
                    });
                }
                Ok(self.store.unify(x, &Term::Int(lo)))
            }
            other => Err(EngineError::TypeError {
                context: "between/3",
                expected: "integer or variable",
                found: other,
            }),
        }
    }

    fn call_user(&mut self, key: PredKey, goal: Term) -> EngineResult<bool> {
        let bounds = match &*self.ranges {
            RangeCtx::Empty => BoundSet::default(),
            _ => self.collect_bounds(),
        };
        let clauses = self.kb.candidates(key, &self.store, goal.args(), &bounds);
        if clauses.is_empty() {
            if self.kb.strict() && !self.kb.defined(key) {
                return Err(EngineError::UnknownPredicate {
                    name: key.name,
                    arity: key.arity as usize,
                });
            }
            return Ok(false);
        }
        let mut alts = Alts::Clauses {
            goal,
            clauses,
            next: 0,
        };
        let cont = Rc::clone(&self.cont);
        let mark = self.store.mark();
        let ranges = Rc::clone(&self.ranges);
        if self.try_clause_alts(&mut alts)? {
            // More candidates may remain; record them.
            if let Alts::Clauses { clauses, next, .. } = &alts {
                if *next < clauses.len() {
                    self.cps.push(ChoicePoint {
                        cont,
                        mark,
                        ranges,
                        alts,
                    });
                }
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Try clause candidates from the cursor until one's head unifies; on
    /// success push its body and return true. The cursor is left at the
    /// next untried candidate.
    fn try_clause_alts(&mut self, alts: &mut Alts<'kb>) -> EngineResult<bool> {
        let Alts::Clauses {
            goal,
            clauses,
            next,
        } = alts
        else {
            unreachable!("try_clause_alts on non-clause alts");
        };
        let step_key = if S::ENABLED {
            Some(PredKey::of_term(goal).unwrap_or_else(invalid_goal_key))
        } else {
            None
        };
        while *next < clauses.len() {
            let clause = Arc::clone(clauses.get(*next).expect("cursor within len"));
            *next += 1;
            self.budget.step()?;
            if let Some(key) = step_key {
                self.attribute_step(key);
            }
            self.count(|s| s.resolutions += 1);
            // A variable-free clause (every fact of the reified relations)
            // needs no renaming apart: activating it is a clone, with no
            // walk of the head to prove what `n_vars` already says.
            let base = self.store.alloc_block(clause.n_vars);
            let rename = |t: &Term| {
                if clause.n_vars == 0 {
                    t.clone()
                } else {
                    t.offset_vars(base)
                }
            };
            let head = rename(&clause.head);
            if self.store.unify(goal, &head) {
                let body = rename(&clause.body);
                if body != Term::Atom(symbols::true_()) {
                    self.cont = Cont::push(&self.cont, body);
                }
                return Ok(true);
            }
            // Head mismatch: bindings already undone by unify's failure
            // path; the allocated block is simply abandoned.
        }
        Ok(false)
    }

    /// Restore the most recent choice point that still has an alternative.
    /// Returns false when none remain.
    fn backtrack(&mut self) -> EngineResult<bool> {
        while let Some(mut cp) = self.cps.pop() {
            self.store.undo_to(cp.mark);
            self.cont = Rc::clone(&cp.cont);
            self.ranges = Rc::clone(&cp.ranges);
            match &mut cp.alts {
                Alts::Disjunct { right } => {
                    let right = right.clone();
                    if S::ENABLED {
                        let key = PredKey {
                            name: symbols::or(),
                            arity: 2,
                        };
                        self.emit(Port::Redo, key, right.clone());
                    }
                    self.cont = Cont::push(&self.cont, right);
                    return Ok(true);
                }
                Alts::Between { var, cur, hi } => {
                    let (var, cur, hi) = (var.clone(), *cur, *hi);
                    if cur < hi {
                        self.cps.push(ChoicePoint {
                            cont: Rc::clone(&cp.cont),
                            mark: cp.mark,
                            ranges: Rc::clone(&cp.ranges),
                            alts: Alts::Between {
                                var: var.clone(),
                                cur: cur + 1,
                                hi,
                            },
                        });
                    }
                    if S::ENABLED {
                        let key = PredKey {
                            name: symbols::between(),
                            arity: 3,
                        };
                        self.emit(
                            Port::Redo,
                            key,
                            Term::compound(
                                symbols::between(),
                                vec![Term::Int(cur), Term::Int(hi), var.clone()],
                            ),
                        );
                    }
                    if self.store.unify(&var, &Term::Int(cur)) {
                        if S::ENABLED {
                            let key = PredKey {
                                name: symbols::between(),
                                arity: 3,
                            };
                            self.emit(
                                Port::Exit,
                                key,
                                Term::compound(
                                    symbols::between(),
                                    vec![Term::Int(cur), Term::Int(hi), Term::Int(cur)],
                                ),
                            );
                        }
                        return Ok(true);
                    }
                    // Unification can only fail if `var` got bound by an
                    // earlier goal on this path — keep backtracking.
                }
                Alts::Clauses { .. } | Alts::Answers { .. } | Alts::Live { .. } => {
                    if self.resume_stored_alts(cp)? {
                        return Ok(true);
                    }
                }
            }
        }
        self.exhausted = true;
        Ok(false)
    }

    /// Resume a clause or cached-answer choice point, emitting the
    /// Redo/Exit/Fail ports around the retry.
    fn resume_stored_alts(&mut self, cp: ChoicePoint<'kb>) -> EngineResult<bool> {
        let cont = cp.cont;
        let mark = cp.mark;
        let ranges = cp.ranges;
        let mut alts = cp.alts;
        let redo: Option<(PredKey, Term)> = if S::ENABLED {
            let goal = match &alts {
                Alts::Clauses { goal, .. }
                | Alts::Answers { goal, .. }
                | Alts::Live { goal, .. } => goal,
                _ => unreachable!("resume_stored_alts on control alts"),
            };
            let key = PredKey::of_term(goal).unwrap_or_else(invalid_goal_key);
            self.emit(Port::Redo, key, goal.clone());
            Some((key, goal.clone()))
        } else {
            None
        };
        let resumed = match &alts {
            Alts::Clauses { .. } => self.try_clause_alts(&mut alts)?,
            Alts::Answers { .. } => self.try_answer_alts(&mut alts)?,
            Alts::Live { .. } => self.try_live_alts(&mut alts)?,
            _ => unreachable!("resume_stored_alts on control alts"),
        };
        if resumed {
            let more = match &alts {
                Alts::Clauses { clauses, next, .. } => *next < clauses.len(),
                Alts::Answers {
                    answers,
                    picked,
                    next,
                    ..
                } => *next < replay_len(answers, picked),
                // A live cursor at the end of the list may still see more
                // answers once producers re-pass: always retryable.
                Alts::Live { .. } => true,
                _ => unreachable!("resume_stored_alts on control alts"),
            };
            if more {
                self.cps.push(ChoicePoint {
                    cont,
                    mark,
                    ranges,
                    alts,
                });
            }
            if let Some((key, goal)) = redo {
                self.emit(Port::Exit, key, resolve_deep(&self.store, &goal));
            }
            Ok(true)
        } else {
            if let Some((key, goal)) = redo {
                self.emit(Port::Fail, key, goal);
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KnowledgeBase;

    fn kb_roads() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("road", vec![Term::atom("s1")]));
        kb.assert_fact(Term::pred("road", vec![Term::atom("s2")]));
        kb.assert_fact(Term::pred(
            "road_intersection",
            vec![Term::atom("s1"), Term::atom("s2")],
        ));
        kb
    }

    fn solve(kb: &KnowledgeBase, goal: Term) -> Vec<Solution> {
        solve_counted(kb, goal).0
    }

    /// [`solve`], with the counters of the solver that ran it.
    fn solve_counted(kb: &KnowledgeBase, goal: Term) -> (Vec<Solution>, SolverStats) {
        let solver = Solver::new(kb, Budget::default());
        (solver.solve_all(goal).unwrap(), solver.stats())
    }

    #[test]
    fn ground_fact_query() {
        let kb = kb_roads();
        let s = Solver::new(&kb, Budget::default());
        assert!(s.prove(Term::pred("road", vec![Term::atom("s1")])).unwrap());
        assert!(!s.prove(Term::pred("road", vec![Term::atom("s9")])).unwrap());
    }

    #[test]
    fn variable_query_enumerates() {
        let kb = kb_roads();
        let sols = solve(&kb, Term::pred("road", vec![Term::var(0)]));
        let names: Vec<String> = sols
            .iter()
            .map(|s| s.get(Var(0)).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["s1", "s2"]);
    }

    #[test]
    fn conjunction_joins() {
        let kb = kb_roads();
        let goal = Term::and(
            Term::pred("road", vec![Term::var(0)]),
            Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]),
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("s1"));
        assert_eq!(sols[0].get(Var(1)).unwrap(), &Term::atom("s2"));
    }

    #[test]
    fn disjunction_both_branches() {
        let kb = kb_roads();
        let goal = Term::or(
            Term::pred("road", vec![Term::var(0)]),
            Term::unify(Term::var(0), Term::atom("ferry")),
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 3);
        assert_eq!(sols[2].get(Var(0)).unwrap(), &Term::atom("ferry"));
    }

    #[test]
    fn rules_chain() {
        let mut kb = kb_roads();
        // connected(X, Y) :- road_intersection(X, Y) ; road_intersection(Y, X).
        kb.assert_clause(
            Term::pred("connected", vec![Term::var(0), Term::var(1)]),
            Term::or(
                Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]),
                Term::pred("road_intersection", vec![Term::var(1), Term::var(0)]),
            ),
        );
        let s = Solver::new(&kb, Budget::default());
        assert!(s
            .prove(Term::pred(
                "connected",
                vec![Term::atom("s2"), Term::atom("s1")]
            ))
            .unwrap());
    }

    #[test]
    fn naf_is_open_world_test() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("bridge", vec![Term::atom("b1")]));
        kb.assert_fact(Term::pred("bridge", vec![Term::atom("b2")]));
        kb.assert_fact(Term::pred("open", vec![Term::atom("b1")]));
        // closed(X) :- bridge(X), not(open(X)).   (§III.A example)
        kb.assert_clause(
            Term::pred("closed", vec![Term::var(0)]),
            Term::and(
                Term::pred("bridge", vec![Term::var(0)]),
                Term::not(Term::pred("open", vec![Term::var(0)])),
            ),
        );
        let sols = solve(&kb, Term::pred("closed", vec![Term::var(0)]));
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("b2"));
    }

    #[test]
    fn forall_all_bridges_open() {
        let mut kb = KnowledgeBase::new();
        for (b, r) in [("b1", "r1"), ("b2", "r1"), ("b3", "r2")] {
            kb.assert_fact(Term::pred("bridge_on", vec![Term::atom(b), Term::atom(r)]));
        }
        kb.assert_fact(Term::pred("open", vec![Term::atom("b1")]));
        kb.assert_fact(Term::pred("open", vec![Term::atom("b2")]));
        kb.assert_fact(Term::pred("road", vec![Term::atom("r1")]));
        kb.assert_fact(Term::pred("road", vec![Term::atom("r2")]));
        // open_road(X) :- road(X), forall(bridge_on(Y, X), open(Y)).  (§III.A)
        kb.assert_clause(
            Term::pred("open_road", vec![Term::var(0)]),
            Term::and(
                Term::pred("road", vec![Term::var(0)]),
                Term::forall(
                    Term::pred("bridge_on", vec![Term::var(1), Term::var(0)]),
                    Term::pred("open", vec![Term::var(1)]),
                ),
            ),
        );
        let sols = solve(&kb, Term::pred("open_road", vec![Term::var(0)]));
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("r1"));
    }

    /// `range_call(G, Cs)` is semantically transparent — same solutions,
    /// same order, with and without a matching range index — and its
    /// bounds apply only inside G's derivation extent.
    #[test]
    fn range_call_is_transparent_and_scoped() {
        use crate::kb::{ArgPath, RangeSpec};
        let build = |indexed: bool| {
            let mut kb = KnowledgeBase::new();
            if indexed {
                kb.set_range_indexes(
                    PredKey::new("val", 1),
                    vec![RangeSpec::Interval(ArgPath::arg(0))],
                );
            }
            for i in 0..10 {
                kb.assert_fact(Term::pred("val", vec![Term::int(i)]));
            }
            kb
        };
        // range_call(val(X), [rc(X, iv(2, 6, open, closed))]), X < 5
        let wrapped = Term::and(
            Term::pred(
                "range_call",
                vec![
                    Term::pred("val", vec![Term::var(0)]),
                    Term::list(vec![Term::pred(
                        "rc",
                        vec![
                            Term::var(0),
                            Term::pred(
                                "iv",
                                vec![
                                    Term::int(2),
                                    Term::int(6),
                                    Term::atom("open"),
                                    Term::atom("closed"),
                                ],
                            ),
                        ],
                    )]),
                ],
            ),
            Term::pred("<", vec![Term::var(0), Term::int(5)]),
        );
        let collect = |kb: &KnowledgeBase| -> Vec<String> {
            solve(kb, wrapped.clone())
                .iter()
                .map(|s| s.get(Var(0)).unwrap().to_string())
                .collect()
        };
        let indexed = collect(&build(true));
        assert_eq!(indexed, vec!["3", "4"], "chk ∧ filter semantics");
        assert_eq!(indexed, collect(&build(false)), "indexed ≡ unindexed");
        // After the range_call, the bound is retired: a later enumeration
        // of the same predicate through the same variable-free pattern
        // must see every clause again.
        let seq = Term::and(
            Term::pred(
                "range_call",
                vec![
                    Term::pred("val", vec![Term::var(0)]),
                    Term::list(vec![Term::pred(
                        "rc",
                        vec![
                            Term::var(0),
                            Term::pred(
                                "iv",
                                vec![
                                    Term::int(4),
                                    Term::int(4),
                                    Term::atom("closed"),
                                    Term::atom("closed"),
                                ],
                            ),
                        ],
                    )]),
                ],
            ),
            Term::pred("val", vec![Term::var(1)]),
        );
        let kb = build(true);
        let sols = solve(&kb, seq);
        assert_eq!(sols.len(), 10, "second enumeration must be unpruned");
        // Unbound-tail and garbage constraints pass vacuously.
        let vacuous = Term::pred(
            "range_call",
            vec![
                Term::pred("val", vec![Term::var(0)]),
                Term::list(vec![Term::atom("junk")]),
            ],
        );
        assert_eq!(solve(&kb, vacuous).len(), 10);
    }

    /// An `iv` bound that names a variable an enclosing `range_call`
    /// bounds is read over that bound: the inner lookup is pruned to the
    /// enclosure, the answers are those of the unwrapped goal, and a
    /// variable no bound covers still reads as no constraint.
    #[test]
    fn range_bounds_over_bounded_variables_enclose() {
        use crate::kb::{ArgPath, RangeSpec};
        let build = |indexed: bool| {
            let mut kb = KnowledgeBase::new();
            if indexed {
                kb.set_range_indexes(
                    PredKey::new("val", 1),
                    vec![RangeSpec::Interval(ArgPath::arg(0))],
                );
            }
            for i in 0..100 {
                kb.assert_fact(Term::pred("val", vec![Term::int(i)]));
            }
            kb
        };
        let iv = |lo: Term, hi: Term| {
            Term::pred(
                "iv",
                vec![lo, hi, Term::atom("closed"), Term::atom("closed")],
            )
        };
        let rc = |v: u32, iv: Term| Term::list(vec![Term::pred("rc", vec![Term::var(v), iv])]);
        // range_call((range_call(val(Y), [rc(Y, iv(X - 1, 2 * X + 1))]),
        //             X is Y - 1), [rc(X, iv(30, 40))])
        let (y, x) = (Term::var(0), Term::var(1));
        let inner_iv = iv(
            Term::pred("-", vec![x.clone(), Term::int(1)]),
            Term::pred(
                "+",
                vec![Term::pred("*", vec![Term::int(2), x.clone()]), Term::int(1)],
            ),
        );
        let goal = |outer: Term| {
            Term::pred(
                "range_call",
                vec![
                    Term::and(
                        Term::pred(
                            "range_call",
                            vec![Term::pred("val", vec![y.clone()]), rc(0, inner_iv.clone())],
                        ),
                        Term::pred(
                            "is",
                            vec![x.clone(), Term::pred("-", vec![y.clone(), Term::int(1)])],
                        ),
                    ),
                    rc(1, outer),
                ],
            )
        };
        let run = |kb: &KnowledgeBase, outer: Term| {
            let (sols, stats) = solve_counted(kb, goal(outer));
            let answers: Vec<String> = sols
                .iter()
                .map(|s| s.get(Var(0)).unwrap().to_string())
                .collect();
            (answers, stats.steps)
        };
        let bounded = iv(Term::int(30), Term::int(40));
        let (indexed, steps) = run(&build(true), bounded.clone());
        let (plain, plain_steps) = run(&build(false), bounded);
        let want: Vec<String> = (31..=41).map(|i| i.to_string()).collect();
        assert_eq!(indexed, want);
        assert_eq!(plain, want, "indexed ≡ unindexed");
        // X ∈ [30, 40] encloses Y ∈ [29, 81]: 53 candidates of 100.
        assert!(
            steps + 40 < plain_steps,
            "{steps} steps indexed, {plain_steps} unindexed"
        );
        // With no outer bound, the inner bound cannot be read: every
        // `val` fact is a candidate and every one answers.
        let (all, _) = run(&build(true), Term::atom("none"));
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn findall_collects_in_order() {
        let kb = kb_roads();
        let goal = Term::pred(
            "findall",
            vec![
                Term::var(0),
                Term::pred("road", vec![Term::var(0)]),
                Term::var(1),
            ],
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(1)).unwrap().to_string(), "[s1, s2]");
    }

    #[test]
    fn findall_on_no_solutions_gives_nil() {
        let kb = KnowledgeBase::new();
        let goal = Term::pred(
            "findall",
            vec![
                Term::var(0),
                Term::pred("unicorn", vec![Term::var(0)]),
                Term::var(1),
            ],
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols[0].get(Var(1)).unwrap(), &Term::nil());
    }

    #[test]
    fn card_counts_distinct_instances() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred(
            "color",
            vec![Term::atom("p1"), Term::atom("white")],
        ));
        kb.assert_fact(Term::pred(
            "color",
            vec![Term::atom("p2"), Term::atom("white")],
        ));
        kb.assert_fact(Term::pred(
            "color",
            vec![Term::atom("p2"), Term::atom("white")],
        )); // duplicate
        let goal = Term::pred(
            "card",
            vec![
                Term::pred("color", vec![Term::var(0), Term::atom("white")]),
                Term::var(1),
            ],
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols[0].get(Var(1)).unwrap(), &Term::Int(2));
    }

    #[test]
    fn card_dedups_alpha_equivalent_instances() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("p", vec![Term::atom("a")]));
        // Two identical rules: q(X, Y) :- p(X).  Y stays unbound, with a
        // different fresh id per derivation.
        for _ in 0..2 {
            kb.assert_clause(
                Term::pred("q", vec![Term::var(0), Term::var(1)]),
                Term::pred("p", vec![Term::var(0)]),
            );
        }
        let goal = Term::pred(
            "card",
            vec![
                Term::pred("q", vec![Term::var(0), Term::var(1)]),
                Term::var(2),
            ],
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols[0].get(Var(2)).unwrap(), &Term::Int(1));
    }

    #[test]
    fn aggregate_avg_sum_min_max() {
        let mut kb = KnowledgeBase::new();
        for (p, v) in [("a", 10.0), ("b", 20.0), ("c", 60.0)] {
            kb.assert_fact(Term::pred("elev", vec![Term::atom(p), Term::float(v)]));
        }
        let agg = |op: &str| {
            Term::pred(
                "aggregate",
                vec![
                    Term::atom(op),
                    Term::var(0),
                    Term::pred("elev", vec![Term::var(1), Term::var(0)]),
                    Term::var(2),
                ],
            )
        };
        let get = |op: &str| {
            let sols = solve(&kb, agg(op));
            sols[0].get(Var(2)).unwrap().as_f64().unwrap()
        };
        assert_eq!(get("avg"), 30.0);
        assert_eq!(get("sum"), 90.0);
        assert_eq!(get("min"), 10.0);
        assert_eq!(get("max"), 60.0);
    }

    #[test]
    fn aggregate_avg_of_empty_fails() {
        let kb = KnowledgeBase::new();
        let goal = Term::pred(
            "aggregate",
            vec![
                Term::atom("avg"),
                Term::var(0),
                Term::pred("no_such", vec![Term::var(0)]),
                Term::var(1),
            ],
        );
        assert!(solve(&kb, goal).is_empty());
    }

    #[test]
    fn between_enumerates_and_tests() {
        let kb = KnowledgeBase::new();
        let goal = Term::pred("between", vec![Term::int(1), Term::int(4), Term::var(0)]);
        let sols = solve(&kb, goal);
        let vals: Vec<i64> = sols
            .iter()
            .map(|s| s.get(Var(0)).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
        let s = Solver::new(&kb, Budget::default());
        assert!(s
            .prove(Term::pred(
                "between",
                vec![Term::int(1), Term::int(4), Term::int(3)]
            ))
            .unwrap());
        assert!(!s
            .prove(Term::pred(
                "between",
                vec![Term::int(1), Term::int(4), Term::int(9)]
            ))
            .unwrap());
    }

    #[test]
    fn once_commits_to_first() {
        let kb = kb_roads();
        let goal = Term::pred("once", vec![Term::pred("road", vec![Term::var(0)])]);
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("s1"));
    }

    #[test]
    fn recursion_terminates_with_base_case() {
        let mut kb = KnowledgeBase::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            kb.assert_fact(Term::pred("edge", vec![Term::atom(a), Term::atom(b)]));
        }
        kb.assert_clause(
            Term::pred("path", vec![Term::var(0), Term::var(1)]),
            Term::pred("edge", vec![Term::var(0), Term::var(1)]),
        );
        kb.assert_clause(
            Term::pred("path", vec![Term::var(0), Term::var(1)]),
            Term::and(
                Term::pred("edge", vec![Term::var(0), Term::var(2)]),
                Term::pred("path", vec![Term::var(2), Term::var(1)]),
            ),
        );
        let s = Solver::new(&kb, Budget::default());
        assert!(s
            .prove(Term::pred("path", vec![Term::atom("a"), Term::atom("d")]))
            .unwrap());
        let sols = solve(&kb, Term::pred("path", vec![Term::atom("a"), Term::var(0)]));
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn infinite_recursion_hits_step_limit() {
        let mut kb = KnowledgeBase::new();
        kb.assert_clause(Term::atom("loop"), Term::atom("loop"));
        let s = Solver::new(&kb, Budget::new(10_000, 16));
        assert!(matches!(
            s.prove(Term::atom("loop")),
            Err(EngineError::StepLimit { .. })
        ));
    }

    #[test]
    fn unknown_predicate_fails_open_world() {
        let kb = KnowledgeBase::new();
        let s = Solver::new(&kb, Budget::default());
        assert!(!s.prove(Term::atom("never_defined")).unwrap());
    }

    #[test]
    fn unknown_predicate_errors_in_strict_mode() {
        let mut kb = KnowledgeBase::new();
        kb.set_strict(true);
        let s = Solver::new(&kb, Budget::default());
        assert!(matches!(
            s.prove(Term::atom("never_defined")),
            Err(EngineError::UnknownPredicate { .. })
        ));
    }

    #[test]
    fn native_predicates_run() {
        let mut kb = KnowledgeBase::new();
        kb.register_native("double", 2, |store, args| {
            let x = crate::arith::eval(store, &args[0])?;
            let doubled = Term::float(x.as_f64() * 2.0);
            Ok(store.unify(&doubled, &args[1]))
        });
        let sols = solve(&kb, Term::pred("double", vec![Term::int(21), Term::var(0)]));
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn iter_streams_lazily_and_matches_solve_all() {
        let kb = kb_roads();
        let solver = Solver::new(&kb, Budget::default());
        let goal = Term::pred("road", vec![Term::var(0)]);
        let streamed: Vec<Solution> = solver
            .iter(goal.clone())
            .unwrap()
            .collect::<EngineResult<Vec<_>>>()
            .unwrap();
        let collected = solver.solve_all(goal.clone()).unwrap();
        assert_eq!(streamed, collected);
        // Taking one answer does not force the rest.
        let first = solver.iter(goal).unwrap().next().unwrap().unwrap();
        assert_eq!(first.get(Var(0)).unwrap(), &Term::atom("s1"));
    }

    #[test]
    fn iter_surfaces_errors() {
        let mut kb = KnowledgeBase::new();
        kb.assert_clause(Term::atom("loop"), Term::atom("loop"));
        let solver = Solver::new(&kb, Budget::new(1_000, 8));
        let mut it = solver.iter(Term::atom("loop")).unwrap();
        assert!(matches!(
            it.next(),
            Some(Err(EngineError::StepLimit { .. }))
        ));
    }

    #[test]
    fn solution_order_follows_clause_order() {
        let mut kb = KnowledgeBase::new();
        for name in ["first", "second", "third"] {
            kb.assert_fact(Term::pred("item", vec![Term::atom(name)]));
        }
        let sols = solve(&kb, Term::pred("item", vec![Term::var(0)]));
        let names: Vec<String> = sols
            .iter()
            .map(|s| s.get(Var(0)).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn nested_naf() {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::atom("p"));
        let s = Solver::new(&kb, Budget::default());
        // not(not(p)) should hold.
        assert!(s.prove(Term::not(Term::not(Term::atom("p")))).unwrap());
        assert!(!s.prove(Term::not(Term::atom("p"))).unwrap());
        assert!(!s.prove(Term::not(Term::not(Term::atom("q")))).unwrap());
    }

    #[test]
    fn naf_non_ground_goal_is_reported() {
        // §III.A regression: `not(open(X))` with unbound X used to be
        // answered closed-world (flounder silently); it must now be a
        // reported error.
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("open", vec![Term::atom("b1")]));
        let s = Solver::new(&kb, Budget::default());
        let err = s
            .prove(Term::not(Term::pred("open", vec![Term::var(0)])))
            .unwrap_err();
        match err {
            EngineError::NonGroundNegation { goal } => {
                assert_eq!(goal, Term::pred("open", vec![Term::var(0)]));
            }
            other => panic!("expected NonGroundNegation, got {other:?}"),
        }
        // The same holds mid-conjunction: the negation is reached before
        // `X = b` could ever bind X, and the old behaviour silently
        // failed the whole conjunction.
        let goal = Term::and(
            Term::not(Term::pred("open", vec![Term::var(0)])),
            Term::unify(Term::var(0), Term::atom("b")),
        );
        assert!(matches!(
            s.solve_all(goal),
            Err(EngineError::NonGroundNegation { .. })
        ));
    }

    #[test]
    fn naf_ground_by_evaluation_time_is_fine() {
        // `bridge(X), not(open(X))` is safe: X is bound by the positive
        // literal before the negation is evaluated.
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("bridge", vec![Term::atom("b1")]));
        kb.assert_fact(Term::pred("bridge", vec![Term::atom("b2")]));
        kb.assert_fact(Term::pred("open", vec![Term::atom("b1")]));
        let goal = Term::and(
            Term::pred("bridge", vec![Term::var(0)]),
            Term::not(Term::pred("open", vec![Term::var(0)])),
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("b2"));
    }

    #[test]
    fn absent_allows_existential_variables() {
        // `absent(G)` is the explicit existentially-closed reading: no
        // instance of G is derivable. Unbound variables are fine.
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("open", vec![Term::atom("b1")]));
        let s = Solver::new(&kb, Budget::default());
        // Some bridge is open → absent fails.
        assert!(!s
            .prove(Term::absent(Term::pred("open", vec![Term::var(0)])))
            .unwrap());
        // Nothing is closed → absent succeeds.
        assert!(s
            .prove(Term::absent(Term::pred("closed", vec![Term::var(0)])))
            .unwrap());
        // And no bindings leak out of the failed scan.
        let goal = Term::and(
            Term::absent(Term::pred("closed", vec![Term::var(0)])),
            Term::unify(Term::var(0), Term::atom("b")),
        );
        let sols = solve(&kb, goal);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("b"));
    }

    #[test]
    fn forall_non_range_restricted_template_is_reported() {
        // forall(member(X, L), p(X, Y)) with Y unbound: the quantified X
        // is legal, but the template's free Y floundering inside the
        // desugared inner not(T) must be reported.
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("q", vec![Term::atom("a")]));
        let s = Solver::new(&kb, Budget::default());
        let goal = Term::forall(
            Term::pred("q", vec![Term::var(0)]),
            Term::pred("p", vec![Term::var(0), Term::var(1)]),
        );
        assert!(matches!(
            s.prove(goal),
            Err(EngineError::NonGroundNegation { .. })
        ));
    }

    // ---- tabling -----------------------------------------------------

    fn tabled_kb_roads() -> KnowledgeBase {
        let mut kb = kb_roads();
        kb.set_tabling(true);
        kb.mark_tabled(PredKey {
            name: Sym::new("road"),
            arity: 1,
        });
        kb
    }

    #[test]
    fn tabled_solutions_match_untabled() {
        let plain = kb_roads();
        let tabled = tabled_kb_roads();
        for goal in [
            Term::pred("road", vec![Term::var(0)]),
            Term::pred("road", vec![Term::atom("s1")]),
            Term::pred("road", vec![Term::atom("s9")]),
            Term::and(
                Term::pred("road", vec![Term::var(0)]),
                Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]),
            ),
            Term::not(Term::pred("road", vec![Term::atom("s2")])),
        ] {
            assert_eq!(
                solve(&plain, goal.clone()),
                solve(&tabled, goal.clone()),
                "tabled/untabled divergence on {goal}"
            );
            // Run twice so the second pass replays from the table.
            assert_eq!(solve(&plain, goal.clone()), solve(&tabled, goal));
        }
        assert!(!tabled.table().is_empty());
    }

    #[test]
    fn tabled_hit_skips_resolution() {
        let kb = tabled_kb_roads();
        let goal = Term::pred("road", vec![Term::var(0)]);
        let s1 = Solver::new(&kb, Budget::default());
        assert_eq!(s1.solve_all(goal.clone()).unwrap().len(), 2);
        let stats = s1.stats();
        assert_eq!(stats.table_misses, 1);
        assert_eq!(stats.table_inserts, 1);
        assert_eq!(stats.table_hits, 0);
        // A fresh solver over the same KB replays the cached answers
        // without touching a single clause.
        let s2 = Solver::new(&kb, Budget::default());
        assert_eq!(s2.solve_all(goal).unwrap().len(), 2);
        let stats = s2.stats();
        assert_eq!(stats.table_hits, 1);
        assert_eq!(stats.resolutions, 0);
    }

    #[test]
    fn tabled_variants_share_an_entry() {
        let kb = tabled_kb_roads();
        let s = Solver::new(&kb, Budget::default());
        assert_eq!(
            s.solve_all(Term::pred("road", vec![Term::var(3)]))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            s.solve_all(Term::pred("road", vec![Term::var(7)]))
                .unwrap()
                .len(),
            2
        );
        let stats = s.stats();
        assert_eq!(stats.table_misses, 1, "alpha-variant should hit");
        assert_eq!(stats.table_hits, 1);
    }

    #[test]
    fn assert_invalidates_table() {
        let mut kb = tabled_kb_roads();
        let goal = Term::pred("road", vec![Term::var(0)]);
        assert_eq!(solve(&kb, goal.clone()).len(), 2);
        kb.assert_fact(Term::pred("road", vec![Term::atom("s3")]));
        // The stale entry must be dropped, not replayed.
        let (after_assert, asserted) = solve_counted(&kb, goal.clone());
        assert_eq!(after_assert.len(), 3);
        kb.retract_fact(&Term::pred("road", vec![Term::atom("s1")]));
        let (after_retract, retracted) = solve_counted(&kb, goal);
        assert_eq!(after_retract.len(), 2);
        assert!(asserted.table_invalidations + retracted.table_invalidations >= 1);
    }

    #[test]
    fn tabled_recursion_terminates() {
        let mut kb = KnowledgeBase::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            kb.assert_fact(Term::pred("edge", vec![Term::atom(a), Term::atom(b)]));
        }
        // path(X, Y) :- edge(X, Y) ; (edge(X, Z), path(Z, Y)).
        kb.assert_clause(
            Term::pred("path", vec![Term::var(0), Term::var(1)]),
            Term::or(
                Term::pred("edge", vec![Term::var(0), Term::var(1)]),
                Term::and(
                    Term::pred("edge", vec![Term::var(0), Term::var(2)]),
                    Term::pred("path", vec![Term::var(2), Term::var(1)]),
                ),
            ),
        );
        let plain_sols = solve(&kb, Term::pred("path", vec![Term::atom("a"), Term::var(0)]));
        kb.set_tabling(true);
        kb.mark_tabled(PredKey {
            name: Sym::new("path"),
            arity: 2,
        });
        let tabled_sols = solve(&kb, Term::pred("path", vec![Term::atom("a"), Term::var(0)]));
        assert_eq!(plain_sols, tabled_sols);
        // Second query replays from the completed table.
        assert_eq!(
            tabled_sols,
            solve(&kb, Term::pred("path", vec![Term::atom("a"), Term::var(0)]))
        );
    }

    #[test]
    fn naf_over_tabled_predicate() {
        let kb = tabled_kb_roads();
        let s = Solver::new(&kb, Budget::default());
        // Non-ground negation is an error even when the predicate is
        // tabled; `absent/1` provides the existential reading.
        assert!(matches!(
            s.prove(Term::not(Term::pred("road", vec![Term::var(0)]))),
            Err(EngineError::NonGroundNegation { .. })
        ));
        assert!(!s
            .prove(Term::absent(Term::pred("road", vec![Term::var(0)])))
            .unwrap());
        assert!(s
            .prove(Term::not(Term::pred("road", vec![Term::atom("s9")])))
            .unwrap());
        // And again, now served from the table.
        assert!(s
            .prove(Term::not(Term::pred("road", vec![Term::atom("s9")])))
            .unwrap());
    }

    #[test]
    fn table_all_tables_every_user_predicate() {
        let mut kb = kb_roads();
        kb.set_tabling(true);
        kb.set_table_all(true);
        let goal = Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]);
        let (first, cold) = solve_counted(&kb, goal.clone());
        let (second, warm) = solve_counted(&kb, goal);
        assert_eq!((first.len(), second.len()), (1, 1));
        assert!(cold.table_hits + warm.table_hits >= 1);
    }

    #[test]
    fn tabling_off_by_default() {
        let kb = kb_roads();
        assert!(!kb.tabling_enabled());
        let goal = Term::pred("road", vec![Term::var(0)]);
        assert_eq!(solve(&kb, goal.clone()).len(), 2);
        assert!(kb.table().is_empty());
        let s = Solver::new(&kb, Budget::default());
        s.solve_all(goal).unwrap();
        let stats = s.stats();
        assert_eq!(stats.table_misses, 0);
        assert!(stats.resolutions > 0);
        assert!(stats.steps > 0);
    }

    #[test]
    fn sub_machine_renaming_handles_empty_store() {
        // Regression: spawning a sub-solver (here for `not/1`) before any
        // variable has been bound used to size the child store from
        // `len - 1`, which underflows when the parent store is empty.
        let kb = KnowledgeBase::new();
        let s = Solver::new(&kb, Budget::default());
        assert!(s.prove(Term::not(Term::atom("q"))).unwrap());
    }

    #[test]
    fn oversized_arity_is_an_error_not_a_truncation() {
        let kb = KnowledgeBase::new();
        let s = Solver::new(&kb, Budget::default());
        let goal = Term::pred("huge", vec![Term::Int(0); PredKey::MAX_ARITY + 1]);
        assert!(matches!(
            s.prove(goal),
            Err(EngineError::ArityOverflow { arity, .. }) if arity == PredKey::MAX_ARITY + 1
        ));
    }

    #[test]
    fn cyclic_solution_renders_without_hanging() {
        // With the occurs check off (the default), `X = f(X)` succeeds and
        // binds X cyclically. Reading the solution back must terminate,
        // cutting the cycle at the variable.
        let kb = KnowledgeBase::new();
        let s = Solver::new(&kb, Budget::default());
        let goal = Term::unify(Term::var(0), Term::pred("f", vec![Term::var(0)]));
        let sols = s.solve_all(goal).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(Var(0)).unwrap().to_string(), "f(_0)");
    }

    #[test]
    fn ring_trace_records_the_port_sequence() {
        use crate::trace::RingTrace;
        let kb = kb_roads();
        let solver = Solver::with_sink(&kb, Budget::default(), RingTrace::new(64));
        let sols = solver
            .solve_all(Term::pred("road", vec![Term::var(0)]))
            .unwrap();
        assert_eq!(sols.len(), 2);
        let ring = solver.into_sink();
        let ports: Vec<(Port, String)> = ring
            .events()
            .map(|e| (e.port, e.goal.to_string()))
            .collect();
        assert_eq!(
            ports,
            vec![
                (Port::Call, "road(_0)".to_string()),
                (Port::Exit, "road(s1)".to_string()),
                (Port::Redo, "road(_0)".to_string()),
                (Port::Exit, "road(s2)".to_string()),
            ]
        );
    }

    #[test]
    fn failing_query_ends_its_trace_with_fail() {
        use crate::trace::RingTrace;
        let kb = kb_roads();
        let solver = Solver::with_sink(&kb, Budget::default(), RingTrace::new(64));
        assert!(!solver
            .prove(Term::pred("road", vec![Term::atom("s9")]))
            .unwrap());
        let ring = solver.into_sink();
        let last = ring.events().last().unwrap();
        assert_eq!(last.port, Port::Fail);
        assert_eq!(last.goal.to_string(), "road(s9)");
    }

    #[test]
    fn table_ports_surface_hits_and_inserts() {
        use crate::trace::RingTrace;
        let kb = tabled_kb_roads();
        let goal = Term::pred("road", vec![Term::var(0)]);
        let solver = Solver::with_sink(&kb, Budget::default(), RingTrace::new(256));
        solver.solve_all(goal.clone()).unwrap();
        solver.solve_all(goal).unwrap();
        let ring = solver.into_sink();
        assert!(ring.events().any(|e| e.port == Port::TableInsert));
        assert!(ring.events().any(|e| e.port == Port::TableHit));
    }

    #[test]
    fn profiler_step_totals_match_solver_stats() {
        use crate::trace::Profiler;
        let kb = kb_roads();
        let goal = Term::and(
            Term::pred("road", vec![Term::var(0)]),
            Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]),
        );
        let traced = Solver::with_sink(&kb, Budget::default(), Profiler::new());
        let traced_sols = traced.solve_all(goal.clone()).unwrap();
        let steps = traced.stats().steps;
        let prof = traced.into_sink();
        assert!(steps > 0);
        assert_eq!(prof.total_steps(), steps);
        let row_sum: u64 = prof.rows().iter().map(|(_, p)| p.steps).sum();
        assert_eq!(row_sum, steps);
        // Observation must not perturb the answers.
        assert_eq!(traced_sols, solve(&kb, goal));
    }

    #[test]
    fn tracing_does_not_change_step_counts() {
        use crate::trace::ObserverSink;
        let kb = kb_roads();
        let goal = Term::or(
            Term::pred("road", vec![Term::var(0)]),
            Term::pred("road_intersection", vec![Term::var(0), Term::var(1)]),
        );
        let plain = Solver::new(&kb, Budget::default());
        plain.solve_all(goal.clone()).unwrap();
        let traced = Solver::with_sink(&kb, Budget::default(), ObserverSink::new(true, Some(8)));
        traced.solve_all(goal).unwrap();
        assert_eq!(plain.stats().steps, traced.stats().steps);
        assert_eq!(plain.stats().resolutions, traced.stats().resolutions);
    }

    /// `p(Id, V)` facts with an interval index over `V` (every other value
    /// a float, two facts per value), made recursive by one rule the way
    /// the meta-rules make `h/5` recursive: `p(X, V) :- alias(X, Y), p(Y, V)`.
    /// With `wild`, an unkeyed fact `p(wild, _)` sits mid-list.
    fn gap_kb(n: i64, tabled: bool, indexed: bool, wild: bool) -> KnowledgeBase {
        use crate::kb::{ArgPath, RangeSpec};
        let p = PredKey::new("p", 2);
        let mut kb = KnowledgeBase::new();
        kb.set_indexing(indexed);
        kb.set_range_indexes(p, vec![RangeSpec::Interval(ArgPath::arg(1))]);
        for i in 0..n {
            if wild && i == n / 2 {
                kb.assert_fact(Term::pred("p", vec![Term::atom("wild"), Term::var(0)]));
            }
            let v = (i * 7919) % (n / 2);
            let v = if i % 2 == 0 {
                Term::int(v)
            } else {
                Term::float(v as f64)
            };
            kb.assert_fact(Term::pred("p", vec![Term::atom(&format!("x{i}")), v]));
        }
        kb.assert_fact(Term::pred(
            "alias",
            vec![Term::atom("a0"), Term::atom("x1")],
        ));
        kb.assert_clause(
            Term::pred("p", vec![Term::var(0), Term::var(1)]),
            Term::and(
                Term::pred("alias", vec![Term::var(0), Term::var(2)]),
                Term::pred("p", vec![Term::var(2), Term::var(1)]),
            ),
        );
        if tabled {
            kb.set_tabling(true);
            kb.mark_tabled(p);
        }
        kb
    }

    /// `range_call(p(Y, V), [rc(V, iv(Lo, Hi, LoEnd, HiEnd))])`.
    fn bounded_p(y: Term, v: Term, lo: Term, hi: Term, ends: [&str; 2]) -> Term {
        Term::pred(
            "range_call",
            vec![
                Term::pred("p", vec![y, v.clone()]),
                Term::list(vec![Term::pred(
                    "rc",
                    vec![
                        v,
                        Term::pred("iv", vec![lo, hi, Term::atom(ends[0]), Term::atom(ends[1])]),
                    ],
                )]),
            ],
        )
    }

    /// Solutions rendered in order, residual variables as `_`.
    fn rendered(sols: &[Solution]) -> Vec<String> {
        sols.iter()
            .map(|s| {
                s.bindings()
                    .iter()
                    .map(|(_, t)| match t {
                        Term::Var(_) => "_".to_string(),
                        t => t.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    /// A tabled call answered from a completed answer set under active
    /// `range_call` bounds replays only the answers the predicate's range
    /// index admits. The gap-style self-join the `=:=` pushdown emits then
    /// costs steps linear in the number of facts instead of quadratic,
    /// with the untabled and the unindexed solvers' solutions and order.
    #[test]
    fn range_bounded_replay_stays_linear_and_transparent() {
        use crate::trace::Profiler;
        const K: i64 = 3;
        let (x, v1, y, v2) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
        let shift = Term::pred("+", vec![v1.clone(), Term::int(K)]);
        let join = Term::and(
            Term::pred("p", vec![x, v1.clone()]),
            Term::and(
                bounded_p(y, v2.clone(), shift.clone(), shift.clone(), ["closed"; 2]),
                Term::pred("=:=", vec![v2, shift]),
            ),
        );
        let mut steps = Vec::new();
        for n in [40, 160] {
            let kb = gap_kb(n, true, true, false);
            assert!(kb.is_recursive_pred(PredKey::new("p", 2)));
            let solver = Solver::with_sink(&kb, Budget::default(), Profiler::new());
            let sols = rendered(&solver.solve_all(join.clone()).unwrap());
            // Values 0..n/2, two facts each: 4 pairs per value with a
            // partner K above. The alias answer copies x1's value, the top
            // one, so the value K below it gains 2 more pairs.
            assert_eq!(sols.len() as i64, 4 * (n / 2 - K) + 2);
            let stats = solver.stats();
            assert!(stats.table_hits > 0, "the inner call must replay");
            assert_eq!(solver.into_sink().total_steps(), stats.steps);
            steps.push(stats.steps);
            for (tabled, indexed) in [(false, true), (true, false)] {
                let twin = gap_kb(n, tabled, indexed, false);
                assert_eq!(
                    sols,
                    rendered(&solve(&twin, join.clone())),
                    "tabled={tabled} indexed={indexed} twin diverges at n={n}"
                );
            }
        }
        // Quadratic replay (every cached answer unified per outer binding)
        // costs about 16x the steps for 4x the facts.
        assert!(
            steps[1] <= 5 * steps[0],
            "steps {} -> {} for 4x the facts",
            steps[0],
            steps[1]
        );
    }

    /// Unkeyed answers survive the narrowing in their place, over every
    /// kind of end the pushdown emits, on a fresh completion and on a hit.
    #[test]
    fn range_bounded_replay_keeps_unkeyed_answers_in_place() {
        let (y, v) = (Term::var(0), Term::var(1));
        let goals = [
            bounded_p(
                y.clone(),
                v.clone(),
                Term::int(3),
                Term::int(9),
                ["closed", "open"],
            ),
            bounded_p(
                y.clone(),
                v.clone(),
                Term::atom("minf"),
                Term::int(4),
                ["closed", "closed"],
            ),
            bounded_p(
                y.clone(),
                v.clone(),
                Term::float(12.5),
                Term::atom("inf"),
                ["open", "closed"],
            ),
            bounded_p(
                y.clone(),
                v.clone(),
                Term::int(7),
                Term::int(7),
                ["closed", "closed"],
            ),
        ];
        let tabled = gap_kb(40, true, true, true);
        for goal in &goals {
            let expected = rendered(&solve(&gap_kb(40, false, true, true), goal.clone()));
            assert!(expected.contains(&"wild,_".to_string()), "{goal}");
            assert!(expected.len() < 41, "{goal} must narrow");
            assert_eq!(
                expected,
                rendered(&solve(&gap_kb(40, true, false, true), goal.clone()))
            );
            // First a fresh completion, then a table hit.
            assert_eq!(expected, rendered(&solve(&tabled, goal.clone())), "{goal}");
            assert_eq!(expected, rendered(&solve(&tabled, goal.clone())), "{goal}");
        }
    }

    /// The picked positions ride in `Alts::Answers`, which stays smaller
    /// than a clause cursor, so choice points do not grow with them.
    #[test]
    fn answer_cursor_does_not_grow_choice_points() {
        use std::mem::size_of;
        assert!(
            size_of::<(Term, Arc<AnswerSet>, Option<Vec<u32>>, usize)>()
                < size_of::<(Term, Candidates<'static>, usize)>()
        );
    }
}
