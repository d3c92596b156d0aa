//! Parallel query evaluation over a shared, read-only knowledge base.
//!
//! The engine's execution model makes an embarrassingly-parallel layer
//! cheap to state and prove correct:
//!
//! * A [`KnowledgeBase`] is *read-only during solving* — every mutation
//!   takes `&mut self` (and bumps the epoch), so handing `&KnowledgeBase`
//!   to N threads is data-race-free by construction. The shared interior
//!   state is all behind locks: the answer table ([`crate::AnswerTable`])
//!   sits in a `parking_lot::Mutex`, native predicates are
//!   `Arc<dyn Fn … + Send + Sync>`, and the global symbol interner is an
//!   `RwLock` (see the `const`-asserted bounds below).
//! * A [`Solver`] is deliberately *single-threaded* — its budget and
//!   counters are `Rc<Cell<_>>` — so each worker builds its own solver
//!   over the shared base rather than sharing one.
//!
//! [`ParallelSolver::solve_batch`] fans a batch of independent goals over
//! a configurable number of workers using [`std::thread::scope`]: scoped
//! threads borrow the knowledge base directly (no `Arc` cloning, no 'static
//! bound), and the scope's join is the natural merge point for per-worker
//! [`SolverStats`]. Workers pull goals off a shared atomic cursor, so an
//! expensive goal does not stall the rest of the batch behind a static
//! partition.
//!
//! Budgets: each worker receives `step_limit / workers` steps (remainder
//! distributed one-per-worker from the front), so the batch as a whole can
//! consume at most the configured global step limit — the same contract a
//! sequential solver gives one query stream. Depth limits are per worker;
//! nesting depth is a per-derivation property, not a shared resource.
//!
//! Tabling: workers share the knowledge base's answer table. The table
//! only ever serves *completed*, epoch-tagged answer sets behind its lock,
//! so concurrent readers preserve the PR-1 invariants; two workers racing
//! to complete the same call pattern both insert the identical answer set
//! (enumeration over an immutable base is deterministic) and last-write
//! simply wins.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::budget::{Budget, CancelToken, SOLVER_STACK};
use crate::chaos::{ChaosConfig, ChaosSink};
use crate::error::{EngineError, EngineResult};
use crate::kb::KnowledgeBase;
use crate::solver::{Solution, Solver, SolverStats};
use crate::term::Term;
use crate::trace::{NullSink, ObserverSink, TraceSink};

// The whole point of the audit: sharing a knowledge base (and its answer
// table) across scoped threads is only sound if these bounds hold, so
// state them where the compiler checks them on every build.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KnowledgeBase>();
    assert_send_sync::<crate::table::AnswerTable>();
    assert_send_sync::<ParallelSolver<'_>>();
};

/// A fan-out driver: solves batches of independent goals across worker
/// threads sharing one read-only [`KnowledgeBase`].
///
/// Construction is cheap; the threads live only for the duration of each
/// [`solve_batch`](Self::solve_batch) call (scoped, not pooled — see
/// DESIGN.md §6.8 for the trade-off).
pub struct ParallelSolver<'kb> {
    kb: &'kb KnowledgeBase,
    workers: usize,
    step_limit: u64,
    depth_limit: u32,
    stats: Mutex<SolverStats>,
    /// The shape each worker's observer takes, when observing.
    observer: Option<ObserverSink>,
    /// Observations merged across workers and batches.
    observed: Mutex<ObserverSink>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    chaos: Option<ChaosConfig>,
}

impl<'kb> ParallelSolver<'kb> {
    /// A parallel solver with the default per-batch budget (the same
    /// limits [`Budget::default`] gives a sequential query stream).
    ///
    /// `workers == 0` is treated as 1.
    pub fn new(kb: &'kb KnowledgeBase, workers: usize) -> ParallelSolver<'kb> {
        let default = Budget::default();
        Self::with_budget(kb, workers, default.step_limit(), default.depth_limit())
    }

    /// A parallel solver with an explicit *global* budget: the per-worker
    /// step budgets sum to `step_limit`.
    pub fn with_budget(
        kb: &'kb KnowledgeBase,
        workers: usize,
        step_limit: u64,
        depth_limit: u32,
    ) -> ParallelSolver<'kb> {
        ParallelSolver {
            kb,
            workers: workers.max(1),
            step_limit,
            depth_limit,
            stats: Mutex::new(SolverStats::default()),
            observer: None,
            observed: Mutex::default(),
            deadline: None,
            cancel: None,
            chaos: None,
        }
    }

    /// Bound each subsequent batch by wall-clock time as well as steps:
    /// the deadline instant is computed once per batch and shared by
    /// every worker, and an exceeded deadline fails the affected goals
    /// with [`EngineError::DeadlineExceeded`].
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Attach a cancellation token polled by every worker's budget, so one
    /// external trip (a Ctrl-C handler, a supervisor) stops the whole
    /// batch cooperatively with [`EngineError::Cancelled`] results.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Arm deterministic fault injection: each worker's trace sink is
    /// wrapped in a [`ChaosSink`] firing at the configured event index
    /// (counted per worker). See [`crate::chaos`].
    pub fn set_chaos(&mut self, chaos: Option<ChaosConfig>) {
        self.chaos = chaos;
    }

    /// Observe subsequent batches: each worker fills an [`ObserverSink`]
    /// of `shape`'s shape (a profiler, a ring of its capacity, or both;
    /// what `shape` holds is ignored). Profiles merge at the batch join
    /// point, exactly like [`SolverStats`] absorption. A batch that runs
    /// on one worker keeps that worker's ring; a wider batch records
    /// none, since an interleaving of several workers' events has no
    /// meaningful order.
    pub fn observe(&mut self, shape: ObserverSink) {
        self.observer = Some(shape);
    }

    /// What [`Self::observe`] collected over every batch run so far: the
    /// merged profile, and the ring of the latest batch that kept one.
    /// Empty when nothing was observed.
    pub fn into_observed(self) -> ObserverSink {
        self.observed.into_inner()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Merged execution counters across all workers of all batches this
    /// solver has run.
    pub fn stats(&self) -> SolverStats {
        *self.stats.lock()
    }

    /// The step budget worker `w` of `active` receives: an even split of
    /// the global limit, remainder spread one step each from the front.
    fn worker_budget(&self, w: usize, active: usize) -> Budget {
        let base = self.step_limit / active as u64;
        let extra = u64::from((w as u64) < self.step_limit % active as u64);
        Budget::new(base + extra, self.depth_limit)
    }

    /// Solve every goal in `goals` independently, returning one result per
    /// goal **in input order**. Goal `i`'s result is exactly what
    /// `Solver::solve_all(goals[i])` returns over the same base (same
    /// solutions, same solution order), regardless of worker count or
    /// scheduling — only wall-clock and the step-budget partition differ.
    pub fn solve_batch(&self, goals: &[Term]) -> Vec<EngineResult<Vec<Solution>>> {
        // One arm per sink configuration (observation × chaos): each
        // worker builds its own sink, so the sink type is fixed per batch.
        let one_worker = self.workers.min(goals.len()) == 1;
        let absorb = |s: ObserverSink| self.observed.lock().absorb(s);
        match (&self.observer, self.chaos) {
            (None, None) => self.run_batch(goals, || NullSink, |_| {}, None),
            (Some(shape), None) => self.run_batch(goals, || shape.fresh(one_worker), absorb, None),
            (None, Some(cfg)) => {
                let token = CancelToken::new();
                let mk = || ChaosSink::new(cfg, token.clone(), NullSink);
                self.run_batch(goals, mk, |_: ChaosSink| {}, Some(&token))
            }
            (Some(shape), Some(cfg)) => {
                let token = CancelToken::new();
                let mk = || ChaosSink::new(cfg, token.clone(), shape.fresh(one_worker));
                let merge = |s: ChaosSink<ObserverSink>| absorb(s.into_inner());
                self.run_batch(goals, mk, merge, Some(&token))
            }
        }
    }

    /// The fan-out loop. `mk_sink` builds one private trace sink per
    /// worker (sinks, like solvers, never cross threads); `merge` is
    /// called with each worker's sink at the join point; `extra_cancel` is
    /// an additional token attached to every worker budget (the chaos
    /// harness's channel from sink to budget). Workers run on
    /// [`SOLVER_STACK`]-sized stacks, like the sessions that start them.
    ///
    /// Each goal is evaluated inside `catch_unwind`: a panicking native
    /// (or injected fault) is converted into an
    /// [`EngineError::GoalPanicked`] result for *that goal only*. This is
    /// sound because everything a panic can interrupt is unwind-safe by
    /// construction — `DepthGuard` restores the depth counter in `Drop`,
    /// `RefCell` borrows release on unwind, the per-machine SLG answer
    /// forest (with any suspended subgoal frames) dies with its machine,
    /// and the shared answer table
    /// only ever stores *completed* answer sets (its lock is never held
    /// across an emission site, so a panic cannot poison a half-written
    /// entry). The worker then continues with the same solver and sink.
    fn run_batch<S: TraceSink>(
        &self,
        goals: &[Term],
        mk_sink: impl Fn() -> S + Sync,
        merge: impl Fn(S) + Sync,
        extra_cancel: Option<&CancelToken>,
    ) -> Vec<EngineResult<Vec<Solution>>> {
        if goals.is_empty() {
            return Vec::new();
        }
        let active = self.workers.min(goals.len());
        let cursor = AtomicUsize::new(0);
        // One shared deadline instant for the whole batch.
        let started = Instant::now();
        // One pre-allocated slot per goal: workers write disjoint indices,
        // so the per-slot locks are uncontended; they exist to satisfy the
        // borrow checker, not to serialize anything.
        let slots: Vec<Mutex<Option<EngineResult<Vec<Solution>>>>> =
            goals.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for w in 0..active {
                let (cursor, slots, mk_sink, merge) = (&cursor, &slots, &mk_sink, &merge);
                let worker = move || {
                    // Budgets, solvers, and sinks are built *inside* the
                    // worker: the first two are Rc-based and deliberately
                    // !Send, and the sink follows the same discipline.
                    let mut budget = self.worker_budget(w, active);
                    if let Some(d) = self.deadline {
                        budget = budget.with_deadline_after(started, d);
                    }
                    if let Some(token) = &self.cancel {
                        budget = budget.with_cancel(token.clone());
                    }
                    if let Some(token) = extra_cancel {
                        budget = budget.with_cancel(token.clone());
                    }
                    let solver = Solver::with_sink(self.kb, budget, mk_sink());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(goal) = goals.get(i) else { break };
                        let result =
                            catch_unwind(AssertUnwindSafe(|| solver.solve_all(goal.clone())))
                                .unwrap_or_else(|payload| {
                                    Err(EngineError::GoalPanicked {
                                        message: panic_message(payload.as_ref()),
                                    })
                                });
                        *slots[i].lock() = Some(result);
                    }
                    self.stats.lock().absorb(&solver.stats());
                    merge(solver.into_sink());
                };
                thread::Builder::new()
                    .stack_size(SOLVER_STACK)
                    .spawn_scoped(scope, worker)
                    .expect("spawn an audit worker thread");
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("batch scope filled every slot"))
            .collect()
    }
}

/// Render a caught panic payload (the `&str` / `String` cases cover
/// `panic!` with a message; anything else is opaque by design).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::term::Var;

    fn kb_edges(tabled: bool) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")] {
            kb.assert_fact(Term::pred("e", vec![Term::atom(a), Term::atom(b)]));
        }
        let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
        kb.assert_clause(
            Term::pred("t", vec![x.clone(), y.clone()]),
            Term::or(
                Term::pred("e", vec![x.clone(), y.clone()]),
                Term::and(
                    Term::pred("e", vec![x, z.clone()]),
                    Term::pred("t", vec![z, y]),
                ),
            ),
        );
        if tabled {
            kb.set_tabling(true);
            kb.set_table_all(true);
        }
        kb
    }

    fn reach_goals() -> Vec<Term> {
        ["a", "b", "c", "d"]
            .into_iter()
            .map(|s| Term::pred("t", vec![Term::atom(s), Term::var(0)]))
            .collect()
    }

    fn render(results: &[EngineResult<Vec<Solution>>]) -> Vec<Vec<String>> {
        results
            .iter()
            .map(|r| {
                r.as_ref()
                    .unwrap()
                    .iter()
                    .map(|s| format!("{:?}", s.bindings()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_per_goal_and_order() {
        for tabled in [false, true] {
            let kb = kb_edges(tabled);
            let goals = reach_goals();
            let sequential: Vec<_> = goals
                .iter()
                .map(|g| Solver::new(&kb, Budget::default()).solve_all(g.clone()))
                .collect();
            for workers in [1, 2, 4, 8] {
                let par = ParallelSolver::new(&kb, workers);
                let batch = par.solve_batch(&goals);
                assert_eq!(
                    render(&batch),
                    render(&sequential),
                    "divergence at {workers} workers, tabled={tabled}"
                );
            }
        }
    }

    #[test]
    fn worker_budgets_sum_to_global() {
        let kb = kb_edges(false);
        let par = ParallelSolver::with_budget(&kb, 3, 10, 64);
        assert_eq!(
            (0..3)
                .map(|w| par.worker_budget(w, 3).step_limit())
                .sum::<u64>(),
            10
        );
        // And an exhausted worker reports the limit, not a wrong answer.
        let goals = reach_goals();
        let starved = ParallelSolver::with_budget(&kb, 1, 3, 64);
        let results = starved.solve_batch(&goals);
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(EngineError::StepLimit { .. }))));
    }

    #[test]
    fn merged_stats_cover_all_workers() {
        let kb = kb_edges(true);
        let goals = reach_goals();
        let par = ParallelSolver::new(&kb, 4);
        let batch = par.solve_batch(&goals);
        assert!(batch.iter().all(Result::is_ok));
        let stats = par.stats();
        assert!(stats.steps > 0);
        assert!(stats.resolutions > 0);
        // Every goal either consulted or populated the shared table.
        assert!(stats.table_misses + stats.table_hits >= goals.len() as u64);
        // A second batch over the now-warm shared table replays answers.
        let par2 = ParallelSolver::new(&kb, 4);
        par2.solve_batch(&goals);
        assert!(par2.stats().table_hits > 0);
    }

    #[test]
    fn profiled_batch_merges_worker_profiles() {
        use crate::kb::PredKey;
        let kb = kb_edges(false);
        let goals = reach_goals();
        let mut par = ParallelSolver::new(&kb, 4);
        par.observe(ObserverSink::new(true, None));
        let batch = par.solve_batch(&goals);
        assert!(batch.iter().all(Result::is_ok));
        let steps = par.stats().steps;
        let prof = par.into_observed().profiler().unwrap().clone();
        // The merged profile accounts for every step every worker took.
        assert_eq!(prof.total_steps(), steps);
        assert!(prof.profile_of(PredKey::new("t", 2)).unwrap().calls > 0);
        // Profiling must not perturb the answers.
        let plain = ParallelSolver::new(&kb, 4);
        assert_eq!(render(&plain.solve_batch(&goals)), render(&batch));
    }

    #[test]
    fn worker_panic_is_isolated_to_its_goal() {
        let mut kb = kb_edges(true);
        kb.register_native("boom", 0, |_, _| panic!("native exploded"));
        let mut goals = reach_goals();
        goals.insert(2, Term::pred("boom", vec![]));
        // Sequential expectation for the non-panicking goals.
        let expected: Vec<_> = reach_goals()
            .iter()
            .map(|g| {
                Solver::new(&kb, Budget::default())
                    .solve_all(g.clone())
                    .unwrap()
            })
            .collect();
        crate::chaos::tests_support::with_quiet_panics(|| {
            for workers in [1, 4] {
                let par = ParallelSolver::new(&kb, workers);
                let results = par.solve_batch(&goals);
                assert_eq!(results.len(), 5);
                match &results[2] {
                    Err(EngineError::GoalPanicked { message }) => {
                        assert!(message.contains("native exploded"))
                    }
                    other => panic!("expected GoalPanicked, got {other:?}"),
                }
                for (i, expect) in [(0, 0), (1, 1), (3, 2), (4, 3)] {
                    assert_eq!(
                        results[i].as_ref().unwrap(),
                        &expected[expect],
                        "goal {i} perturbed at {workers} workers"
                    );
                }
                // The shared answer table stayed usable: a fresh batch over
                // the warmed table still answers correctly.
                let again = ParallelSolver::new(&kb, workers);
                let rerun = again.solve_batch(&reach_goals());
                for (r, expect) in rerun.iter().zip(&expected) {
                    assert_eq!(r.as_ref().unwrap(), expect);
                }
            }
        });
    }

    #[test]
    fn cancel_token_stops_the_whole_batch() {
        // A divergent goal: t/2 over a cyclic edge set has no failure
        // frontier under plain SLD, so only the budget can stop it.
        let mut cyclic = KnowledgeBase::new();
        for (a, b) in [("a", "b"), ("b", "a")] {
            cyclic.assert_fact(Term::pred("e", vec![Term::atom(a), Term::atom(b)]));
        }
        let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
        cyclic.assert_clause(
            Term::pred("t", vec![x.clone(), y.clone()]),
            Term::and(
                Term::pred("e", vec![x, z.clone()]),
                Term::pred("t", vec![z, y]),
            ),
        );
        let mut par = ParallelSolver::with_budget(&cyclic, 2, u64::MAX, 64);
        let token = crate::budget::CancelToken::new();
        par.set_cancel(token.clone());
        let goals = vec![
            Term::pred("t", vec![Term::atom("a"), Term::atom("q")]),
            Term::pred("t", vec![Term::atom("b"), Term::atom("q")]),
        ];
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            token.cancel();
        });
        let results = par.solve_batch(&goals);
        canceller.join().unwrap();
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(EngineError::Cancelled))));
    }

    #[test]
    fn batch_deadline_bounds_divergent_goals() {
        let mut cyclic = KnowledgeBase::new();
        cyclic.assert_fact(Term::pred("e", vec![Term::atom("a"), Term::atom("a")]));
        let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
        cyclic.assert_clause(
            Term::pred("t", vec![x.clone(), y.clone()]),
            Term::and(
                Term::pred("e", vec![x, z.clone()]),
                Term::pred("t", vec![z, y]),
            ),
        );
        let mut par = ParallelSolver::with_budget(&cyclic, 2, u64::MAX, 64);
        par.set_deadline(Some(std::time::Duration::from_millis(50)));
        let start = std::time::Instant::now();
        let results = par.solve_batch(&[Term::pred("t", vec![Term::atom("a"), Term::atom("q")])]);
        assert!(matches!(
            results[0],
            Err(EngineError::DeadlineExceeded { limit_ms: 50 })
        ));
        assert!(start.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    fn profile_reconciles_when_a_worker_errors_mid_batch() {
        let kb = kb_edges(false);
        let goals = reach_goals();
        // Starve the batch: some goals exhaust their share of the budget.
        let mut par = ParallelSolver::with_budget(&kb, 2, 40, 64);
        par.observe(ObserverSink::new(true, None));
        let results = par.solve_batch(&goals);
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(EngineError::StepLimit { .. }))));
        // Every consumed step is still attributed: the merged profile
        // covers the merged stats exactly, errors notwithstanding.
        let steps = par.stats().steps;
        let prof = par.into_observed().profiler().unwrap().clone();
        assert_eq!(prof.total_steps(), steps);
    }

    #[test]
    fn a_one_worker_batch_keeps_the_sequential_ring() {
        // Untabled: solvers over one base share its answer table, so a
        // second run of a tabled goal would replay instead of derive.
        let kb = kb_edges(false);
        let goals = reach_goals();
        let capacity = 16;
        let sequential = Solver::with_sink(
            &kb,
            Budget::default(),
            ObserverSink::new(true, Some(capacity)),
        );
        for goal in &goals {
            sequential.solve_all(goal.clone()).unwrap();
        }
        let sequential_steps = sequential.stats().steps;
        let (seq_prof, seq_ring) = sequential.into_sink().into_parts();
        let seq_ring = seq_ring.unwrap();
        assert_eq!(seq_prof.unwrap().total_steps(), sequential_steps);
        assert!(
            seq_ring.dropped() > 0,
            "the ring must wrap to test its bound"
        );

        let mut one = ParallelSolver::new(&kb, 1);
        one.observe(ObserverSink::new(true, Some(capacity)));
        assert!(one.solve_batch(&goals).iter().all(Result::is_ok));
        let steps = one.stats().steps;
        let (prof, ring) = one.into_observed().into_parts();
        assert_eq!(prof.unwrap().total_steps(), steps);
        let ring = ring.expect("a one-worker batch keeps its ring");
        assert_eq!(ring.capacity(), capacity);
        assert_eq!(ring.dropped(), seq_ring.dropped());
        assert!(ring.events().eq(seq_ring.events()), "event order diverged");

        let mut two = ParallelSolver::new(&kb, 2);
        two.observe(ObserverSink::new(true, Some(capacity)));
        assert!(two.solve_batch(&goals).iter().all(Result::is_ok));
        let steps = two.stats().steps;
        let (prof, ring) = two.into_observed().into_parts();
        assert_eq!(prof.unwrap().total_steps(), steps);
        assert!(ring.is_none(), "a two-worker batch keeps no ring");
    }

    #[test]
    fn solutions_bind_the_query_variables() {
        let kb = kb_edges(false);
        let goals = vec![Term::pred("e", vec![Term::atom("a"), Term::var(0)])];
        let par = ParallelSolver::new(&kb, 2);
        let results = par.solve_batch(&goals);
        let sols = results[0].as_ref().unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].get(Var(0)).unwrap(), &Term::atom("b"));
    }
}
