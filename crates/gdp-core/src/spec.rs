//! The specification database.
//!
//! A [`Specification`] is the executable counterpart of one GDP
//! requirements document: it owns the knowledge base, the semantic-domain
//! table, the object/model/predicate registries, the active world view
//! (§III.E) and meta-view (§IV.D), and offers the assertion, definition,
//! query, and consistency-checking API the rest of the system builds on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use gdp_engine::{
    list_from_iter, list_to_vec, Budget, CancelToken, ChaosConfig, CommitRecord, CyclePolicy,
    Delta, EngineError, EngineResult, FxHashMap, GroupId, KnowledgeBase, ObserverSink,
    ParallelSolver, Port, PredKey, Profiler, RingTrace, Solution, Solver, SolverStats, Sym, Term,
    TraceEvent, TraceSink,
};

use crate::config::EnvConfig;
use crate::domains::{register_domain_native, DomainDef, DomainTable, Sort};
use crate::error::{SpecError, SpecResult};
use crate::fact::{FactPat, Target};
use crate::formula::Formula;
use crate::meta::MetaModel;
use crate::pattern::VarTable;
use crate::reify::{self, functors};
use crate::rule::{Constraint, RawClause, Rule};
use crate::{DEFAULT_MODEL, ERROR_PRED};

/// Clause groups used by the specification kernel.
mod groups {
    pub const KERNEL: &str = "kernel";
    pub const WORLD_VIEW: &str = "wv";
    pub const REGISTRY: &str = "registry";
    pub const FACTS: &str = "facts";
    pub const RULES: &str = "rules";
    pub const NOW: &str = "now";
}

/// One answer to a query: named variables and their values.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    bindings: Vec<(String, Term)>,
}

impl Answer {
    /// The value bound to the named variable.
    pub fn get(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// All `(name, value)` pairs.
    pub fn bindings(&self) -> &[(String, Term)] {
        &self.bindings
    }
}

/// A constraint violation found by [`Specification::check_consistency`].
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The model whose constraint fired.
    pub model: Term,
    /// The violation tag (first argument of `ERROR`).
    pub error_type: Term,
    /// Witness arguments.
    pub witnesses: Vec<Term>,
    /// Spatial qualifier of the violation (usually `any`).
    pub space: Term,
    /// Temporal qualifier of the violation (usually `any`).
    pub time: Term,
}

/// One world-view member the audit could not fully evaluate: its goal,
/// the final error after any retries, and how many retries were spent.
/// Collected in [`AuditReport::incomplete`] — the audit is degraded, not
/// destroyed, by a failing goal.
#[derive(Clone, Debug)]
pub struct AuditFailure {
    /// The world-view member whose audit goal failed.
    pub model: String,
    /// The per-model `ERROR`-derivation goal that failed.
    pub goal: Term,
    /// The error that finally stopped the goal.
    pub error: EngineError,
    /// Retries attempted under the active [`RetryPolicy`] before giving
    /// up (0 when the error was not recoverable or retries were off).
    pub attempts: u32,
}

/// How [`Specification::audit_world_views`] (and
/// [`Specification::check_consistency`]) re-attempt goals that exhausted
/// their budget. Each retry runs sequentially with the step limit
/// multiplied by `escalation` once more; only errors where
/// [`EngineError::is_recoverable`] holds (step/depth exhaustion) are
/// retried — deadlines and cancellations are externally imposed stops,
/// and panics are bugs no budget fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per goal (0 disables retrying — the default).
    pub attempts: u32,
    /// Step-limit multiplier applied per retry (clamped to ≥ 2).
    pub escalation: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            escalation: 4,
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `attempts` times with the default 4×
    /// step-limit escalation.
    pub fn retries(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        }
    }

    /// The step limit for retry number `attempt` (1-based) over a base
    /// limit, saturating at `u64::MAX`.
    fn escalated(&self, base: u64, attempt: u32) -> u64 {
        let factor = self.escalation.max(2);
        (0..attempt).fold(base, |acc, _| acc.saturating_mul(factor))
    }
}

/// The result of a parallel world-view audit
/// ([`Specification::audit_world_views`]).
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// All violations, deduplicated, in the sequential audit's order
    /// (world-view order, then derivation order within each model).
    pub violations: Vec<Violation>,
    /// Violations each world-view member contributed (after global
    /// deduplication), in world-view order.
    pub per_model: Vec<(String, usize)>,
    /// World-view members whose audit goal failed (after any retries):
    /// the report's violations are exactly those derivable from the
    /// *other* members — partial but honest. Empty on a clean audit.
    pub incomplete: Vec<AuditFailure>,
    /// Execution counters merged across all workers.
    pub stats: SolverStats,
    /// The worker count actually used.
    pub workers: usize,
}

impl AuditReport {
    /// Did every world-view member evaluate to completion?
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }
}

/// Cached outcome of one world-view member's audit goal: its raw
/// (pre-deduplication) violation list in derivation order, or the failure
/// that stopped it. The raw list — not the merged report — is what the
/// incremental audit must retain: global deduplication depends on which
/// *earlier* members already produced each violation, so it is re-run over
/// the merged member sequence on every re-audit.
#[derive(Clone, Debug)]
enum MemberOutcome {
    /// The goal completed with these violations (pre-dedup, in order).
    Solved(Vec<Violation>),
    /// The goal failed after `attempts` retries.
    Failed {
        /// The final error.
        error: EngineError,
        /// Retries spent under the policy.
        attempts: u32,
    },
}

/// Per-member results of the most recent audit, keyed by the world view
/// and the knowledge base's configuration they were computed under.
/// Invalidated wholesale when either moves (a tabling switch, cycle-policy
/// switch or coinductive mark changes what recursive members derive
/// without touching a clause); members are selectively re-solved by
/// [`Specification::audit_incremental`].
#[derive(Clone, Debug)]
struct AuditCache {
    /// The world view the cache was computed under (member order matters).
    world_view: Vec<String>,
    /// [`Specification::audit_config`] at the time.
    config: (u64, bool, bool),
    /// One outcome per member, in world-view order.
    members: Vec<MemberOutcome>,
}

impl Violation {
    /// Decode one derived `ERROR` fact: `args` is its argument list, whose
    /// head is the violation type and whose tail the witnesses. An empty
    /// or improper list reads as type `unknown` with no witnesses.
    pub fn decode(model: Term, space: Term, time: Term, args: &Term) -> Violation {
        let items = list_to_vec(args).unwrap_or_default();
        let (error_type, witnesses) = match items.split_first() {
            Some((t, w)) => (t.clone(), w.to_vec()),
            None => (Term::atom("unknown"), Vec::new()),
        };
        Violation {
            model,
            error_type,
            witnesses,
            space,
            time,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}'ERROR({}", self.model, self.error_type)?;
        for w in &self.witnesses {
            write!(f, ", {w}")?;
        }
        write!(f, ")")
    }
}

/// How declared sorts are enforced at assertion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortEnforcement {
    /// Reject ill-sorted basic facts with [`SpecError::SortViolation`].
    #[default]
    Reject,
    /// Accept everything; rely on user constraints (`Formula::Domain`) to
    /// flag anomalies — the paper's own style (§III.C).
    Off,
}

/// The executable specification database. See the module docs.
pub struct Specification {
    kb: KnowledgeBase,
    domains: Arc<RwLock<DomainTable>>,
    signatures: FxHashMap<(String, usize), Vec<Sort>>,
    meta_models: FxHashMap<String, MetaModel>,
    active_meta: Vec<String>,
    sort_enforcement: SortEnforcement,
    /// Ring capacity used while tracing: the last N port events survive.
    trace_capacity: usize,
    /// Deterministic fault injection for audits (tests / `GDP_CHAOS`).
    chaos: Option<ChaosConfig>,
    /// What a session owns rather than the knowledge base it pins.
    session: SessionState,
}

/// The part of a [`Specification`] that belongs to whoever queries it
/// rather than to the knowledge base: limits, cancellation, retries,
/// observability and the audit member cache. A session re-pinning onto a
/// fresh snapshot moves it across whole ([`Specification::swap_session`]).
struct SessionState {
    step_limit: u64,
    depth_limit: u32,
    /// Execution counters of the most recent query or audit (interior
    /// mutability: queries take `&self`).
    last_stats: Mutex<SolverStats>,
    /// Running totals of every query, audit and explanation this session
    /// ran; they follow the session across re-pins.
    totals: Mutex<SolverStats>,
    /// Keep a bounded port-event ring for each query (off by default).
    trace_enabled: bool,
    /// Accumulate a per-predicate profile across queries (off by default).
    profile_enabled: bool,
    /// The accumulated per-predicate profile (interior mutability: queries
    /// take `&self`, like `last_stats`).
    profiler: Mutex<Profiler>,
    /// The port-event ring of the most recent traced query.
    last_trace: Mutex<Option<RingTrace>>,
    /// Optional wall-clock bound attached to every query budget.
    deadline: Option<Duration>,
    /// The session's cancellation token, attached to every query budget.
    /// Cloned out via [`Specification::cancel_token`] so e.g. a Ctrl-C
    /// handler can trip it from another thread.
    cancel: CancelToken,
    /// How audits re-attempt budget-exhausted goals.
    retry: RetryPolicy,
    /// Incremental-audit mode ([`Specification::set_incremental`]): full
    /// audits cache per-member results so delta-driven re-audits can skip
    /// members the delta cannot have affected.
    incremental: bool,
    /// Per-member results of the most recent audit (incremental mode
    /// only; interior mutability — audits take `&self`).
    audit_cache: Mutex<Option<AuditCache>>,
}

impl SessionState {
    /// The same settings with fresh counters, profile, trace ring and
    /// cancel token, and the given member cache: what a snapshot starts
    /// with.
    fn fork(&self, audit_cache: Option<AuditCache>) -> SessionState {
        SessionState {
            step_limit: self.step_limit,
            depth_limit: self.depth_limit,
            last_stats: Mutex::default(),
            totals: Mutex::default(),
            trace_enabled: self.trace_enabled,
            profile_enabled: self.profile_enabled,
            profiler: Mutex::new(Profiler::new()),
            last_trace: Mutex::new(None),
            deadline: self.deadline,
            cancel: CancelToken::new(),
            retry: self.retry,
            incremental: self.incremental,
            audit_cache: Mutex::new(audit_cache),
        }
    }

    /// Record one solve's counters: as the most recent, and into the
    /// running totals.
    fn record(&self, stats: SolverStats) {
        *self.last_stats.lock() = stats;
        self.totals.lock().absorb(&stats);
    }
}

impl Default for Specification {
    fn default() -> Self {
        Specification::new()
    }
}

impl std::fmt::Debug for Specification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Specification")
            .field("clauses", &self.kb.clause_count())
            .field("objects", &self.objects().len())
            .field("models", &self.models().len())
            .field("world_view", &self.world_view())
            .field("meta_view", &self.active_meta)
            .finish()
    }
}

impl Specification {
    /// A fresh specification: default model ω declared and active, kernel
    /// visibility rules installed, `domain_member/2` native registered.
    pub fn new() -> Specification {
        let mut spec = Specification {
            kb: KnowledgeBase::new(),
            domains: Arc::new(RwLock::new(DomainTable::default())),
            signatures: FxHashMap::default(),
            meta_models: FxHashMap::default(),
            active_meta: Vec::new(),
            sort_enforcement: SortEnforcement::default(),
            trace_capacity: 512,
            chaos: None,
            session: SessionState {
                step_limit: 10_000_000,
                depth_limit: 256,
                last_stats: Mutex::default(),
                totals: Mutex::default(),
                trace_enabled: false,
                profile_enabled: false,
                profiler: Mutex::new(Profiler::new()),
                last_trace: Mutex::new(None),
                deadline: None,
                cancel: CancelToken::new(),
                retry: RetryPolicy::default(),
                incremental: false,
                audit_cache: Mutex::new(None),
            },
        };
        register_domain_native(&mut spec.kb, Arc::clone(&spec.domains));
        spec.install_kernel();
        spec.declare_model(DEFAULT_MODEL);
        spec.set_world_view(&[DEFAULT_MODEL])
            .expect("the default model is declared");
        // The `GDP_*` hooks, so whole harnesses re-run under another
        // configuration without code changes.
        let env = EnvConfig::read();
        spec.enable_tabling(env.tabling);
        spec.set_table_all(env.table_all);
        spec.set_trace(env.trace);
        spec.set_profile(env.profile);
        spec.chaos = env.chaos;
        spec.kb.set_indexing(!env.unindexed);
        spec
    }

    fn install_kernel(&mut self) {
        let g = GroupId::named(groups::KERNEL);
        // The reified relations put the model first, so classic first-
        // argument indexing would degenerate to a scan under the default
        // single-model view — but multi-model worlds call h/5 with the
        // model bound (visible/5 binds it through active_model/1), so the
        // model position earns its keep. Index h/5 on the model, the
        // spatial qualifier, the predicate, and the argument list (keyed
        // by its first element); fh/6 likewise.
        self.kb
            .set_index_args(gdp_engine::PredKey::new("h", 5), &[0, 1, 3, 4]);
        self.kb
            .set_index_args(gdp_engine::PredKey::new("fh", 6), &[1, 4, 5]);
        // Range access paths on h/5, serving the bounds that the compiler's
        // pushdown planner and the temporal/spatial rewrites carry in
        // `range_call/2` wrappers:
        //  * the instant inside a `tat/1` temporal qualifier (the
        //    continuity assumption's between-scan constrains it to an
        //    open interval),
        //  * the second fact argument — the attribute-value slot of
        //    `reading(Obj, V)`-shaped facts, which comparison constraints
        //    bound (`V1 < V2`, `V2 =:= V1 + K`, …).
        // Facts without a numeric at the path (atom values, interval
        // qualifiers) stay on the unkeyed scan side of the index and are
        // always candidates, so the paths are safe for every h/5 shape.
        self.kb.add_range_index(
            gdp_engine::PredKey::new("h", 5),
            gdp_engine::RangeSpec::Interval(gdp_engine::ArgPath::arg(2).step("tat", 1, 0)),
        );
        self.kb.add_range_index(
            gdp_engine::PredKey::new("h", 5),
            gdp_engine::RangeSpec::Interval(
                gdp_engine::ArgPath::arg(4).step(".", 2, 1).step(".", 2, 0),
            ),
        );
        // visible(M, S, T, Q, A) :- active_model(M), h(M, S, T, Q, A).
        let (m, s, t, q, a) = (
            Term::var(0),
            Term::var(1),
            Term::var(2),
            Term::var(3),
            Term::var(4),
        );
        self.kb.assert_clause_in(
            g,
            reify::visible(m.clone(), s.clone(), t.clone(), q.clone(), a.clone()),
            Term::and(
                Term::compound(functors::active_model(), vec![m.clone()]),
                reify::holds(m.clone(), s.clone(), t.clone(), q.clone(), a.clone()),
            ),
        );
        // fvisible(M, S, T, Acc, Q, A) :- active_model(M), fh(M, S, T, Acc, Q, A).
        let acc = Term::var(5);
        self.kb.assert_clause_in(
            g,
            reify::fuzzy_visible(
                m.clone(),
                s.clone(),
                t.clone(),
                acc.clone(),
                q.clone(),
                a.clone(),
            ),
            Term::and(
                Term::compound(functors::active_model(), vec![m.clone()]),
                reify::fuzzy_holds(m, s, t, acc, q, a),
            ),
        );
        // List membership — needed by meta-model rule packs (spatial
        // acquisition, temporal intervals) and generally useful:
        //   member(X, [X | _]).   member(X, [_ | T]) :- member(X, T).
        let x = Term::var(0);
        let t2 = Term::var(1);
        self.kb.assert_clause_in(
            g,
            Term::pred("member", vec![x.clone(), Term::cons(x.clone(), t2.clone())]),
            Term::atom("true"),
        );
        self.kb.assert_clause_in(
            g,
            Term::pred(
                "member",
                vec![x.clone(), Term::cons(t2.clone(), Term::var(2))],
            ),
            Term::pred("member", vec![x, Term::var(2)]),
        );
    }

    // ----- declarations ---------------------------------------------------

    /// Declare an object designator (§II.A). Idempotent.
    pub fn declare_object(&mut self, name: &str) {
        self.register(functors::is_object(), name);
    }

    /// Declare a model (§III.D). Idempotent. Declaring does not activate:
    /// a model's facts stay invisible until a world view includes it.
    pub fn declare_model(&mut self, name: &str) {
        self.register(functors::is_model(), name);
    }

    /// Declare a semantic domain (§III.B).
    pub fn declare_domain(&mut self, name: &str, def: DomainDef) -> SpecResult<()> {
        if !self.domains.write().insert(name, def) {
            return Err(SpecError::Redeclaration(name.to_string()));
        }
        Ok(())
    }

    /// Declare a predicate with its argument sorts, enabling many-sorted
    /// checking (§III.C). Domains named in the signature must be declared.
    pub fn declare_predicate(&mut self, name: &str, sorts: Vec<Sort>) -> SpecResult<()> {
        for s in &sorts {
            if let Sort::Domain(d) = s {
                if !self.domains.read().contains(d) {
                    return Err(SpecError::UnknownDomain(d.clone()));
                }
            }
        }
        let key = (name.to_string(), sorts.len());
        if self.signatures.contains_key(&key) {
            return Err(SpecError::Redeclaration(format!("{name}/{}", key.1)));
        }
        self.register_predicate(name);
        self.signatures.insert(key, sorts);
        Ok(())
    }

    fn register_predicate(&mut self, name: &str) {
        self.register(functors::is_pred(), name);
    }

    /// Assert the registry fact `registry(name)` unless the knowledge base
    /// already holds it. The registries live only there, so snapshots,
    /// rollbacks and the write-ahead log carry them like any fact.
    fn register(&mut self, registry: Sym, name: &str) {
        if !self.is_registered(registry, name) {
            self.kb.assert_clause_in(
                GroupId::named(groups::REGISTRY),
                Term::compound(registry, vec![Term::atom(name)]),
                Term::atom("true"),
            );
        }
    }

    /// Does the knowledge base hold the registry fact `registry(name)`?
    fn is_registered(&self, registry: Sym, name: &str) -> bool {
        let head = Term::compound(registry, vec![Term::atom(name)]);
        self.kb
            .candidates(
                PredKey {
                    name: registry,
                    arity: 1,
                },
                &gdp_engine::BindStore::new(),
                &[Term::atom(name)],
                &gdp_engine::BoundSet::default(),
            )
            .iter()
            .any(|c| c.head == head)
    }

    /// The names in the one-argument facts of `registry`, in clause order.
    fn registered(&self, registry: Sym) -> Vec<String> {
        self.kb
            .clauses_of(PredKey {
                name: registry,
                arity: 1,
            })
            .iter()
            .filter_map(|c| c.head.args().first()?.as_atom())
            .map(Sym::as_str)
            .collect()
    }

    // ----- assertions -----------------------------------------------------

    /// Assert a basic fact (§II.B). The pattern must be ground; sorts are
    /// checked against the predicate's signature when one is declared and
    /// enforcement is on. `Sort::Object` positions auto-register their
    /// atoms as objects.
    pub fn assert_fact(&mut self, fact: FactPat) -> SpecResult<()> {
        let pred = fact
            .pred_name()
            .ok_or_else(|| SpecError::NonGroundFact(fact.pred.to_string()))?;
        let mut vars = Vec::new();
        fact.collect_vars(&mut vars);
        if !vars.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        self.check_sorts(&pred, &fact)?;
        if let Some(crate::pattern::Pat::Atom(m)) = &fact.model {
            let m = m.clone();
            self.declare_model(&m);
        }
        self.register_predicate(&pred);
        let mut vt = VarTable::new();
        let term = fact.compile(&mut vt, Target::Holds);
        // A "ground" pattern may still contain wildcards; refuse those too.
        if !vt.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        self.kb
            .try_assert_clause_in(GroupId::named(groups::FACTS), term, Term::atom("true"))?;
        Ok(())
    }

    /// Assert an accuracy-qualified fact `%a q(x)` (§VII.B). Stored in the
    /// separate fuzzy relation: it does **not** make the crisp fact
    /// provable.
    pub fn assert_fuzzy_fact(&mut self, fact: FactPat, accuracy: f64) -> SpecResult<()> {
        if !(0.0..=1.0).contains(&accuracy) {
            return Err(SpecError::InvalidAccuracy(accuracy));
        }
        let pred = fact
            .pred_name()
            .ok_or_else(|| SpecError::NonGroundFact(fact.pred.to_string()))?;
        let mut vars = Vec::new();
        fact.collect_vars(&mut vars);
        if !vars.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        if let Some(crate::pattern::Pat::Atom(m)) = &fact.model {
            let m = m.clone();
            self.declare_model(&m);
        }
        self.register_predicate(&pred);
        let mut vt = VarTable::new();
        let term = fact.compile_fuzzy(
            &mut vt,
            &crate::pattern::Pat::Float(accuracy),
            Target::Holds,
        );
        if !vt.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        self.kb
            .try_assert_clause_in(GroupId::named(groups::FACTS), term, Term::atom("true"))?;
        Ok(())
    }

    /// Withdraw a previously asserted basic fact ("data are often
    /// reinterpreted", §III.D — sometimes the raw datum itself is revised).
    /// The pattern must be ground, exactly as it was asserted. Returns
    /// whether a fact was removed.
    pub fn retract_fact(&mut self, fact: FactPat) -> SpecResult<bool> {
        let pred = fact
            .pred_name()
            .ok_or_else(|| SpecError::NonGroundFact(fact.pred.to_string()))?;
        let mut vars = Vec::new();
        fact.collect_vars(&mut vars);
        if !vars.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        let mut vt = VarTable::new();
        let term = fact.compile(&mut vt, Target::Holds);
        if !vt.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        Ok(self.kb.retract_fact(&term))
    }

    /// Withdraw a previously asserted fuzzy fact with its exact accuracy.
    pub fn retract_fuzzy_fact(&mut self, fact: FactPat, accuracy: f64) -> SpecResult<bool> {
        let pred = fact
            .pred_name()
            .ok_or_else(|| SpecError::NonGroundFact(fact.pred.to_string()))?;
        let mut vt = VarTable::new();
        let term = fact.compile_fuzzy(
            &mut vt,
            &crate::pattern::Pat::Float(accuracy),
            Target::Holds,
        );
        if !vt.is_empty() {
            return Err(SpecError::NonGroundFact(pred));
        }
        Ok(self.kb.retract_fact(&term))
    }

    fn check_sorts(&mut self, pred: &str, fact: &FactPat) -> SpecResult<()> {
        let Some(args) = fact.fixed_args() else {
            return Ok(());
        };
        let Some(sorts) = self
            .signatures
            .get(&(pred.to_string(), args.len()))
            .cloned()
        else {
            // No signature for this arity. If another arity is declared,
            // that's an arity mismatch worth reporting.
            if self.signatures.keys().any(|(n, _)| n == pred) {
                // Deterministic report: the smallest declared arity.
                let expected = self
                    .signatures
                    .keys()
                    .filter(|(n, _)| n == pred)
                    .map(|(_, a)| *a)
                    .min()
                    .unwrap_or(0);
                return Err(SpecError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected,
                    found: args.len(),
                });
            }
            return Ok(());
        };
        for (i, (arg, sort)) in args.iter().zip(sorts.iter()).enumerate() {
            let mut vt = VarTable::new();
            let value = vt.compile(arg);
            match sort {
                Sort::Any => {}
                Sort::Object => match &value {
                    Term::Atom(s) => {
                        let name = s.as_str();
                        self.declare_object(&name);
                    }
                    other => {
                        if self.sort_enforcement == SortEnforcement::Reject {
                            return Err(SpecError::SortViolation {
                                predicate: pred.to_string(),
                                position: i,
                                domain: "object".to_string(),
                                value: other.to_string(),
                            });
                        }
                    }
                },
                Sort::Domain(d) => {
                    let ok = self
                        .domains
                        .read()
                        .get(d)
                        .map(|def| def.contains(&value))
                        .unwrap_or(false);
                    if !ok && self.sort_enforcement == SortEnforcement::Reject {
                        return Err(SpecError::SortViolation {
                            predicate: pred.to_string(),
                            position: i,
                            domain: d.clone(),
                            value: value.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Define a virtual fact (§III.A). The rule is validated against the
    /// formula-language range restrictions before being installed.
    pub fn define(&mut self, rule: Rule) -> SpecResult<()> {
        if let Some(p) = rule.head.pred_name() {
            self.register_predicate(&p);
        }
        if let Some(crate::pattern::Pat::Atom(m)) = &rule.head.model {
            let m = m.clone();
            self.declare_model(&m);
        }
        let (clause, _vt) = rule.compile(GroupId::named(groups::RULES))?;
        self.kb
            .try_assert_clause_in(GroupId::named(groups::RULES), clause.head, clause.body)?;
        Ok(())
    }

    /// Install a constraint (§III.C).
    pub fn constrain(&mut self, constraint: Constraint) -> SpecResult<()> {
        if let Some(crate::pattern::Pat::Atom(m)) = &constraint.model {
            let m = m.clone();
            self.declare_model(&m);
        }
        let (clause, _vt) = constraint.compile(GroupId::named(groups::RULES))?;
        self.kb
            .try_assert_clause_in(GroupId::named(groups::RULES), clause.head, clause.body)?;
        Ok(())
    }

    // ----- world view (§III.E) ---------------------------------------------

    /// Replace the world view: the set of models whose facts and
    /// constraints are visible. Every model must have been declared. The
    /// world view is the `active_model/1` facts, so it is versioned,
    /// rolled back and logged with the clauses.
    pub fn set_world_view(&mut self, models: &[&str]) -> SpecResult<()> {
        if let Some(m) = models
            .iter()
            .find(|m| !self.is_registered(functors::is_model(), m))
        {
            return Err(SpecError::UnknownModel((*m).to_string()));
        }
        let g = GroupId::named(groups::WORLD_VIEW);
        self.kb.retract_group(g);
        for m in models {
            self.kb.assert_clause_in(
                g,
                Term::compound(functors::active_model(), vec![Term::atom(m)]),
                Term::atom("true"),
            );
        }
        Ok(())
    }

    /// The currently active world view: the `active_model/1` facts in
    /// clause order, which is the order `visible/5` enumerates them in.
    pub fn world_view(&self) -> Vec<String> {
        self.registered(functors::active_model())
    }

    // ----- meta-view (§IV) --------------------------------------------------

    /// Register a meta-model (its natives are installed immediately; its
    /// rules stay dormant until activated).
    pub fn register_meta_model(&mut self, mm: MetaModel) {
        mm.run_setup(&mut self.kb);
        self.meta_models.insert(mm.name().to_string(), mm);
    }

    /// Activate a registered meta-model: its rule pack joins the knowledge
    /// base under its own clause group. Idempotent. Activation is atomic:
    /// a clause the engine rejects (e.g. a non-callable head in a
    /// hand-built pack) retracts the partially installed group and reports
    /// the engine error, leaving the meta-view unchanged.
    pub fn activate_meta_model(&mut self, name: &str) -> SpecResult<()> {
        let mm = self
            .meta_models
            .get(name)
            .ok_or_else(|| SpecError::UnknownMetaModel(name.to_string()))?
            .clone();
        if self.active_meta.iter().any(|n| n == name) {
            return Ok(());
        }
        let g = mm.group();
        for c in mm.clauses() {
            if let Err(e) = self
                .kb
                .try_assert_clause_in(g, c.head.clone(), c.body.clone())
            {
                self.kb.retract_group(g);
                return Err(SpecError::Engine(e));
            }
        }
        self.active_meta.push(name.to_string());
        Ok(())
    }

    /// Deactivate a meta-model, retracting its rule pack.
    pub fn deactivate_meta_model(&mut self, name: &str) -> SpecResult<()> {
        let mm = self
            .meta_models
            .get(name)
            .ok_or_else(|| SpecError::UnknownMetaModel(name.to_string()))?;
        self.kb.retract_group(mm.group());
        self.active_meta.retain(|n| n != name);
        Ok(())
    }

    /// The current meta-view (§IV.D): names of active meta-models, in
    /// activation order.
    pub fn meta_view(&self) -> &[String] {
        &self.active_meta
    }

    /// Replace the whole meta-view at once.
    pub fn set_meta_view(&mut self, names: &[&str]) -> SpecResult<()> {
        // Validate before touching anything: a typo must not strip the
        // current meta-view.
        for n in names {
            if !self.meta_models.contains_key(*n) {
                return Err(SpecError::UnknownMetaModel((*n).to_string()));
            }
        }
        let current: Vec<String> = self.active_meta.clone();
        for n in current {
            self.deactivate_meta_model(&n)?;
        }
        for n in names {
            self.activate_meta_model(n)?;
        }
        Ok(())
    }

    // ----- time (shared kernel state for §VI) -------------------------------

    /// Set the present moment (the `now` placeholder, §VI.B). Stored as the
    /// kernel fact `now_is(t)`.
    pub fn set_now(&mut self, t: f64) {
        let g = GroupId::named(groups::NOW);
        self.kb.retract_group(g);
        self.kb.assert_clause_in(
            g,
            Term::pred("now_is", vec![Term::float(t)]),
            Term::atom("true"),
        );
    }

    // ----- queries ----------------------------------------------------------

    /// A query budget under the session's limits and cancellation token,
    /// with its deadline counted from `started`.
    fn budget_since(&self, started: Instant) -> Budget {
        let mut budget = Budget::new(self.session.step_limit, self.session.depth_limit)
            .with_cancel(self.session.cancel.clone());
        if let Some(d) = self.session.deadline {
            budget = budget.with_deadline_after(started, d);
        }
        budget
    }

    /// Is any observation (tracing or profiling) requested? When false,
    /// queries run on the `NullSink` fast path with zero overhead.
    fn observing(&self) -> bool {
        self.session.trace_enabled || self.session.profile_enabled
    }

    /// Build the observer for one query from the current settings.
    fn observer_sink(&self) -> ObserverSink {
        ObserverSink::new(
            self.session.profile_enabled,
            self.session.trace_enabled.then_some(self.trace_capacity),
        )
    }

    /// Fold one query's or audit batch's observations back into the
    /// specification: the profile accumulates, and a ring, when the solve
    /// kept one, replaces the previous one.
    fn harvest(&self, sink: ObserverSink) {
        let (prof, ring) = sink.into_parts();
        if let Some(p) = prof {
            self.session.profiler.lock().absorb(&p);
        }
        if let Some(r) = ring {
            *self.session.last_trace.lock() = Some(r);
        }
    }

    /// Up to `limit` answers to `goal` under the session's budget.
    fn solve_n_goal(&self, goal: Term, limit: usize) -> SpecResult<Vec<Solution>> {
        self.solve_since(goal, limit, Instant::now())
    }

    /// Up to `limit` answers to `goal` under the session's limits, with
    /// the deadline counted from `started`, so that several solves can
    /// share one deadline instant (an explanation's sub-solves do). Every
    /// `&self` query funnels through here, so observation and counting
    /// are wired in exactly once.
    pub(crate) fn solve_since(
        &self,
        goal: Term,
        limit: usize,
        started: Instant,
    ) -> SpecResult<Vec<Solution>> {
        let budget = self.budget_since(started);
        let out = if self.observing() {
            let solver = Solver::with_sink(&self.kb, budget, self.observer_sink());
            let out = solver.solve(goal, limit);
            self.session.record(solver.stats());
            self.harvest(solver.into_sink());
            out
        } else {
            let solver = Solver::new(&self.kb, budget);
            let out = solver.solve(goal, limit);
            self.session.record(solver.stats());
            out
        };
        Ok(out?)
    }

    /// Is `goal` provable: does it have a first answer?
    fn prove_inner(&self, goal: Term) -> SpecResult<bool> {
        Ok(!self.solve_n_goal(goal, 1)?.is_empty())
    }

    /// Execution counters of the most recent query or audit run through
    /// this specification (steps, clause resolutions, and answer-table
    /// hit/miss/insert/invalidation counts).
    pub fn solver_stats(&self) -> SolverStats {
        *self.session.last_stats.lock()
    }

    /// The session's running totals of the same counters, over every
    /// query, audit and explanation it ran. They follow the session across
    /// re-pins ([`Self::swap_session`]); a snapshot starts from zero.
    pub fn session_stats(&self) -> SolverStats {
        *self.session.totals.lock()
    }

    // ----- tabling ----------------------------------------------------------

    /// Switch goal-level answer tabling on or off (off by default). While
    /// on, predicates nominated by registered meta-models (and any marked
    /// through [`gdp_engine::KnowledgeBase::mark_tabled`]) have their
    /// complete answer sets memoized across queries; knowledge-base
    /// mutations invalidate affected entries automatically via the KB
    /// epoch.
    pub fn enable_tabling(&mut self, on: bool) {
        self.kb.set_tabling(on);
    }

    /// Is answer tabling enabled?
    pub fn tabling_enabled(&self) -> bool {
        self.kb.tabling_enabled()
    }

    /// Table every user predicate instead of only the nominated ones
    /// (effective only while tabling is enabled).
    pub fn set_table_all(&mut self, on: bool) {
        self.kb.set_table_all(on);
    }

    /// Set the KB-wide cycle policy for recursive tabled subgoals:
    /// [`CyclePolicy::Inductive`] (the default) computes the least
    /// fixpoint — a subgoal that can only be derived through itself
    /// fails — while [`CyclePolicy::Coinductive`] lets a recursive
    /// re-entry succeed (greatest-fixpoint reading). Changing the
    /// policy invalidates previously cached answer sets.
    pub fn set_cycle_policy(&mut self, policy: CyclePolicy) {
        self.kb.set_cycle_policy(policy);
    }

    /// The current KB-wide cycle policy for recursive tabled subgoals.
    pub fn cycle_policy(&self) -> CyclePolicy {
        self.kb.cycle_policy()
    }

    /// Adjust the per-query resource budget.
    pub fn set_budget(&mut self, step_limit: u64, depth_limit: u32) {
        self.session.step_limit = step_limit;
        self.session.depth_limit = depth_limit;
    }

    /// The per-query step and depth limits ([`Self::set_budget`]).
    pub fn limits(&self) -> (u64, u32) {
        (self.session.step_limit, self.session.depth_limit)
    }

    // ----- fault tolerance --------------------------------------------------

    /// Bound every query and audit by wall-clock time in addition to
    /// steps (`None` — the default — removes the bound). The deadline is
    /// per query: it starts when the query starts.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.session.deadline = deadline;
    }

    /// The configured wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.session.deadline
    }

    /// A handle to the session's cancellation token. Trip it from any
    /// thread ([`CancelToken::cancel`]) to stop the in-flight query with
    /// [`EngineError::Cancelled`]; [`CancelToken::reset`] re-arms it for
    /// the next query. The specification itself never resets the token —
    /// the interactive layer decides when a cancellation is consumed.
    pub fn cancel_token(&self) -> CancelToken {
        self.session.cancel.clone()
    }

    /// Configure how audits retry budget-exhausted goals.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.session.retry = policy;
    }

    /// The active retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.session.retry
    }

    /// Arm (or disarm) deterministic fault injection for audits. Also set
    /// at construction from the `GDP_CHAOS` environment variable; tests
    /// computing a fault-free baseline should explicitly pass `None`.
    pub fn set_chaos(&mut self, chaos: Option<ChaosConfig>) {
        self.chaos = chaos;
    }

    /// The active fault-injection point, if any.
    pub fn chaos(&self) -> Option<ChaosConfig> {
        self.chaos
    }

    // ----- observability ----------------------------------------------------

    /// Switch port-event tracing on or off (off by default). While on,
    /// every query keeps the last [`Self::set_trace_capacity`] port events
    /// (Call/Exit/Redo/Fail plus table and native ports) in a ring
    /// retrievable with [`Self::last_trace`] — a post-mortem of what the
    /// solver was doing right before a failure or budget exhaustion.
    pub fn set_trace(&mut self, on: bool) {
        self.session.trace_enabled = on;
    }

    /// Is port-event tracing enabled?
    pub fn trace_enabled(&self) -> bool {
        self.session.trace_enabled
    }

    /// Set how many port events the trace ring retains per query
    /// (default 512).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
    }

    /// The port-event ring of the most recent traced query, or `None` when
    /// no query has run with tracing on.
    pub fn last_trace(&self) -> Option<RingTrace> {
        self.session.last_trace.lock().clone()
    }

    /// Switch per-predicate profiling on or off (off by default). While
    /// on, every query folds its per-predicate call/exit/redo/fail/step
    /// counters into an accumulated [`Profiler`] retrievable with
    /// [`Self::profile`].
    pub fn set_profile(&mut self, on: bool) {
        self.session.profile_enabled = on;
    }

    /// Is per-predicate profiling enabled?
    pub fn profile_enabled(&self) -> bool {
        self.session.profile_enabled
    }

    /// A snapshot of the accumulated per-predicate profile.
    pub fn profile(&self) -> Profiler {
        self.session.profiler.lock().clone()
    }

    /// Clear the accumulated profile (e.g. to isolate one workload).
    pub fn reset_profile(&self) {
        *self.session.profiler.lock() = Profiler::new();
    }

    /// All answers to a fact pattern, looked up through the active world
    /// view.
    pub fn query(&self, pat: FactPat) -> SpecResult<Vec<Answer>> {
        self.query_n(pat, usize::MAX)
    }

    /// Up to `limit` answers to a fact pattern.
    pub fn query_n(&self, pat: FactPat, limit: usize) -> SpecResult<Vec<Answer>> {
        let mut vt = VarTable::new();
        let goal = pat.compile(&mut vt, Target::Visible);
        self.run_query(goal, vt, limit)
    }

    /// Like [`Specification::query`], with duplicate answers removed
    /// (first-occurrence order kept). Facts derivable along several
    /// meta-rule paths — e.g. a ground point inside a patch reachable both
    /// directly and through a finer resolution — repeat in raw SLD output;
    /// most callers want each answer once.
    pub fn query_distinct(&self, pat: FactPat) -> SpecResult<Vec<Answer>> {
        let mut answers = self.query(pat)?;
        let mut seen: Vec<Answer> = Vec::new();
        answers.retain(|a| {
            if seen.contains(a) {
                false
            } else {
                seen.push(a.clone());
                true
            }
        });
        Ok(answers)
    }

    /// Is the fact pattern provable under the active world view?
    pub fn provable(&self, pat: FactPat) -> SpecResult<bool> {
        let mut vt = VarTable::new();
        let goal = pat.compile(&mut vt, Target::Visible);
        self.prove_inner(goal)
    }

    /// All answers to an arbitrary formula.
    pub fn satisfy(&self, formula: &Formula) -> SpecResult<Vec<Answer>> {
        Self::check_query_safety(formula)?;
        let mut vt = VarTable::new();
        let goal = formula.compile(&mut vt);
        self.run_query(goal, vt, usize::MAX)
    }

    /// Queries obey the same range restrictions as rule bodies (with no
    /// head to export): a top-level `not(open(X))` with free `X` is the
    /// floundering query the paper's I2 ⊆ I side condition forbids, and is
    /// reported here rather than silently answered closed-world.
    fn check_query_safety(formula: &Formula) -> SpecResult<()> {
        formula
            .check_safety(&[])
            .map_err(|reason| SpecError::UnsafeRule {
                rule: "?-".to_string(),
                reason,
            })
    }

    /// Is the formula satisfiable under the active world view?
    pub fn satisfiable(&self, formula: &Formula) -> SpecResult<bool> {
        Self::check_query_safety(formula)?;
        let mut vt = VarTable::new();
        let goal = formula.compile(&mut vt);
        self.prove_inner(goal)
    }

    fn run_query(&self, goal: Term, vt: VarTable, limit: usize) -> SpecResult<Vec<Answer>> {
        let solutions = self.solve_n_goal(goal, limit)?;
        let named: Vec<(String, u32)> = vt.named().map(|(n, v)| (n.to_string(), v)).collect();
        Ok(solutions
            .into_iter()
            .map(|sol| Answer {
                bindings: named
                    .iter()
                    .map(|(n, v)| {
                        let t = sol
                            .get(gdp_engine::Var(*v))
                            .cloned()
                            .unwrap_or(Term::var(*v));
                        (n.clone(), t)
                    })
                    .collect(),
            })
            .collect())
    }

    /// Explain why a fact pattern is provable (its first solution's proof
    /// tree), or `None` when it is not. See [`mod@crate::explain`].
    pub fn explain_fact(&self, pat: FactPat) -> SpecResult<Option<crate::explain::Proof>> {
        let mut vt = VarTable::new();
        let goal = pat.compile(&mut vt, Target::Visible);
        crate::explain::explain(self, goal)
    }

    /// Evaluate every constraint visible in the active world view and
    /// return the violations (§III.C, §III.E). An empty result means the
    /// world view is *consistent*.
    ///
    /// This is [`Self::audit_world_views`] on one worker, with its
    /// per-member retries, fault injection and member-cache refresh; a
    /// traced check keeps the worker's port-event ring. A member that
    /// still fails makes the check fail with the first such member's
    /// error, since a partial list would read as a verdict.
    pub fn check_consistency(&self) -> SpecResult<Vec<Violation>> {
        let report = self.audit_world_views(1)?;
        match report.incomplete.into_iter().next() {
            Some(failure) => Err(failure.error.into()),
            None => Ok(report.violations),
        }
    }

    /// The violations one world-view member's constraints derive, in
    /// derivation order, *without* cross-model deduplication — the raw
    /// per-model list [`Self::audit_world_views`] merges. Exposed so the
    /// fault-tolerance harness can state its key property ("a degraded
    /// audit equals the fault-free audit restricted to the goals that
    /// completed") against independently computed per-model baselines.
    pub fn violations_for_model(&self, model: &str) -> SpecResult<Vec<Violation>> {
        let solutions = self.solve_n_goal(Self::audit_goal(model), usize::MAX)?;
        Ok(solutions
            .iter()
            .map(|sol| Self::violation_from(model, sol))
            .collect())
    }

    /// The per-model `ERROR`-derivation goal the audit fans out.
    fn audit_goal(model: &str) -> Term {
        reify::visible(
            Term::atom(model),
            Term::var(1),
            Term::var(2),
            Term::atom(ERROR_PRED),
            Term::var(3),
        )
    }

    /// Decode one solution of `model`'s [`Self::audit_goal`].
    fn violation_from(model: &str, sol: &Solution) -> Violation {
        let get = |i| sol.get(gdp_engine::Var(i)).cloned().unwrap_or(Term::var(i));
        Violation::decode(Term::atom(model), get(1), get(2), &get(3))
    }

    /// The consistency audit behind [`Self::check_consistency`]: fan one
    /// `ERROR`-derivation goal per world-view member across `workers`
    /// threads (the paper's per-world-view consistency story, §III.C/§VI,
    /// is an independent-goal fan-out: each model's constraint violations
    /// derive without reference to the others').
    ///
    /// The merge is deterministic and reproduces a single
    /// `visible(M, S, T, error, A)` goal's answers exactly: the kernel's
    /// `visible/5` clause enumerates models in `active_model` assertion
    /// order — which *is* the world-view order — so concatenating
    /// per-model answers in world-view order and then deduplicating
    /// globally yields the identical violation list, byte-for-byte, at
    /// any worker count.
    ///
    /// The step budget is global: each worker receives an equal share, so
    /// the audit can consume at most the session's step limit. Merged
    /// per-worker counters (including any retry attempts) are recorded as
    /// the specification's last stats, added to the session's totals and
    /// returned in the report.
    ///
    /// ## Degraded-mode evaluation
    ///
    /// A failing goal no longer aborts the audit. Each member's goal that
    /// errors — budget exhaustion, deadline, cancellation, or a contained
    /// panic — is first re-attempted under the active [`RetryPolicy`]
    /// (budget-recoverable errors only, sequentially, each as a one-goal
    /// batch at an escalated step limit), and if it still fails it is
    /// recorded in [`AuditReport::incomplete`] with a zero count in
    /// [`AuditReport::per_model`], while every other member's violations
    /// are reported normally. Callers decide whether a partial audit is
    /// acceptable via [`AuditReport::is_complete`].
    pub fn audit_world_views(&self, workers: usize) -> SpecResult<AuditReport> {
        let view = self.world_view();
        let members = vec![MemberOutcome::Solved(Vec::new()); view.len()];
        let stale: Vec<usize> = (0..members.len()).collect();
        self.audit_members(view, members, &stale, workers)
    }

    /// The fan-out both audits share — a full audit is an incremental one
    /// with every member stale. Solve the audit goals of the `stale`
    /// members of world view `view` in parallel, re-run each recoverable
    /// failure as a one-goal batch under the retry policy, splice their
    /// outcomes into `members`, merge, refresh the member cache
    /// (incremental mode), and record the merged counters. `workers` reads
    /// 0 in the report when nothing was re-solved.
    fn audit_members(
        &self,
        view: Vec<String>,
        mut members: Vec<MemberOutcome>,
        stale: &[usize],
        workers: usize,
    ) -> SpecResult<AuditReport> {
        let goals: Vec<Term> = stale.iter().map(|&i| Self::audit_goal(&view[i])).collect();
        let mut stats = SolverStats::default();
        let step_limit = self.session.step_limit;
        let results = self.audit_batch(&goals, workers, step_limit, self.chaos, &mut stats);
        for ((&i, goal), mut result) in stale.iter().zip(&goals).zip(results) {
            // Retries leave the fault-injection sink off, so an injected
            // fault costs one attempt, not the whole policy.
            let mut attempts = 0u32;
            while matches!(&result, Err(e) if e.is_recoverable())
                && attempts < self.session.retry.attempts
            {
                attempts += 1;
                let steps = self.session.retry.escalated(step_limit, attempts);
                let goal = std::slice::from_ref(goal);
                result = self.audit_batch(goal, 1, steps, None, &mut stats).remove(0);
            }
            members[i] = Self::member_outcome(&view[i], result.map_err(|e| (e, attempts)));
        }
        let (violations, per_model, incomplete) = Self::merge_member_outcomes(&view, &members);
        if self.session.incremental {
            *self.session.audit_cache.lock() = Some(AuditCache {
                world_view: view,
                config: self.audit_config(),
                members,
            });
        }
        self.session.record(stats);
        Ok(AuditReport {
            violations,
            per_model,
            stats,
            incomplete,
            workers: if goals.is_empty() { 0 } else { workers.max(1) },
        })
    }

    /// Solve `goals` as one [`ParallelSolver`] batch over `workers`
    /// threads sharing `step_limit`, under the session's depth limit,
    /// deadline and cancel token and the given fault injection. The
    /// batch's counters fold into `stats` and its observations into the
    /// session, as a query's do: the per-worker profiles merged, and the
    /// ring when the batch ran on one worker.
    fn audit_batch(
        &self,
        goals: &[Term],
        workers: usize,
        step_limit: u64,
        chaos: Option<ChaosConfig>,
        stats: &mut SolverStats,
    ) -> Vec<EngineResult<Vec<Solution>>> {
        let mut par =
            ParallelSolver::with_budget(&self.kb, workers, step_limit, self.session.depth_limit);
        if self.observing() {
            par.observe(self.observer_sink());
        }
        par.set_deadline(self.session.deadline);
        par.set_cancel(self.session.cancel.clone());
        par.set_chaos(chaos);
        let results = par.solve_batch(goals);
        stats.absorb(&par.stats());
        self.harvest(par.into_observed());
        results
    }

    /// Decode one member's (possibly retried) solve result into a cached
    /// outcome: the raw violation list, or the terminal failure.
    fn member_outcome(
        name: &str,
        result: Result<Vec<Solution>, (EngineError, u32)>,
    ) -> MemberOutcome {
        match result {
            Ok(solutions) => MemberOutcome::Solved(
                solutions
                    .iter()
                    .map(|sol| Self::violation_from(name, sol))
                    .collect(),
            ),
            Err((error, attempts)) => MemberOutcome::Failed { error, attempts },
        }
    }

    /// The audit merge, shared between the full and incremental paths:
    /// concatenate per-member raw violation lists in world-view order,
    /// deduplicating globally (first occurrence wins) and counting each
    /// member's post-dedup contribution; failures become
    /// [`AuditFailure`]s with zero counts. Because the inputs are
    /// per-member and the merge is a pure fold, re-running it over a mix
    /// of cached and freshly solved members reproduces the full audit
    /// byte-for-byte.
    fn merge_member_outcomes(
        view: &[String],
        members: &[MemberOutcome],
    ) -> (Vec<Violation>, Vec<(String, usize)>, Vec<AuditFailure>) {
        let mut violations: Vec<Violation> = Vec::new();
        let mut per_model = Vec::with_capacity(members.len());
        let mut incomplete = Vec::new();
        for (name, outcome) in view.iter().zip(members) {
            match outcome {
                MemberOutcome::Solved(raw) => {
                    let mut count = 0usize;
                    for v in raw {
                        if !violations.contains(v) {
                            violations.push(v.clone());
                            count += 1;
                        }
                    }
                    per_model.push((name.clone(), count));
                }
                MemberOutcome::Failed { error, attempts } => {
                    per_model.push((name.clone(), 0));
                    incomplete.push(AuditFailure {
                        model: name.clone(),
                        goal: Self::audit_goal(name),
                        error: error.clone(),
                        attempts: *attempts,
                    });
                }
            }
        }
        (violations, per_model, incomplete)
    }

    // ----- transactions & incremental audits (map-data revision) -------------

    /// Switch incremental-audit mode on or off (off by default). While on,
    /// [`Self::audit_world_views`] caches its per-member results so
    /// [`Self::audit_incremental`] can confine a re-audit to the members a
    /// committed delta can actually have affected. Turning it off drops
    /// the cache.
    pub fn set_incremental(&mut self, on: bool) {
        self.session.incremental = on;
        if !on {
            *self.session.audit_cache.lock() = None;
        }
    }

    /// Is incremental-audit mode on?
    pub fn incremental_enabled(&self) -> bool {
        self.session.incremental
    }

    /// Open a transaction: every subsequent assertion and retraction is
    /// recorded (invertibly) until [`Self::commit_txn`] or
    /// [`Self::rollback_txn`]. Transactions do not nest.
    pub fn begin_txn(&mut self) -> SpecResult<()> {
        if self.in_txn() {
            return Err(SpecError::Transaction(
                "a transaction is already open".to_string(),
            ));
        }
        self.kb.begin_delta();
        Ok(())
    }

    /// Is a transaction open?
    pub fn in_txn(&self) -> bool {
        self.kb.recording()
    }

    /// The operations the open transaction has recorded so far; the
    /// transaction stays open.
    pub fn txn_delta(&self) -> SpecResult<&Delta> {
        self.kb.recorded().ok_or_else(no_txn)
    }

    /// Commit the open transaction, returning the recorded [`Delta`] —
    /// the currency of [`Self::audit_incremental`]. Ends knowledge-base
    /// recording. With tracing on, one `D-CMT` port event carrying the
    /// dirtied predicates lands in the trace ring.
    pub fn commit_txn(&mut self) -> SpecResult<Delta> {
        let delta = self.kb.end_delta().ok_or_else(no_txn)?;
        if self.session.trace_enabled {
            self.record_commit_event(&delta);
        }
        Ok(delta)
    }

    /// Abort the open transaction, undoing every recorded operation
    /// (newest first) and restoring the exact prior clause store —
    /// including clause positions, which are observable through solution
    /// order. Returns the number of operations undone.
    pub fn rollback_txn(&mut self) -> SpecResult<usize> {
        if !self.in_txn() {
            return Err(no_txn());
        }
        Ok(self.kb.rollback())
    }

    /// Record one `D-CMT` port event in the trace ring: the commit's
    /// scope (its dirtied predicates, sorted for determinism) as a list.
    fn record_commit_event(&self, delta: &Delta) {
        let mut names: Vec<String> = delta
            .dirty_preds()
            .into_iter()
            .map(|k| format!("{}/{}", k.name.as_str(), k.arity))
            .collect();
        names.sort();
        let goal = list_from_iter(names.iter().map(|n| Term::atom(n)));
        let mut guard = self.session.last_trace.lock();
        let ring = guard.get_or_insert_with(|| RingTrace::new(self.trace_capacity));
        ring.event(&TraceEvent {
            port: Port::DeltaCommit,
            depth: 0,
            key: PredKey::new("txn", 0),
            goal,
        });
    }

    /// The delta-driven counterpart of [`Self::audit_world_views`]: given
    /// the [`Delta`] of a committed transaction, re-solve only the
    /// world-view members whose audit goals *transitively depend* on a
    /// predicate the delta dirtied (per the static dependency graph, with
    /// first-argument/model specialization), splice the fresh results
    /// into the cached per-member results, and re-run the merge. The
    /// report is byte-identical to a full re-audit — the dependency
    /// closure over-approximates, so a member it clears cannot have
    /// changed its answers.
    ///
    /// Members whose previous audit failed are always re-solved (a full
    /// re-audit would re-attempt them). Falls back to a full audit when
    /// no cache exists, or when the world view or the knowledge base's
    /// configuration (its structural generation and tabling switches)
    /// moved since it was built; either way the cache is refreshed, so
    /// successive commits can chain `audit_incremental` calls. Requires
    /// incremental mode
    /// ([`Self::set_incremental`]) for the cache to populate.
    pub fn audit_incremental(&self, delta: &Delta, workers: usize) -> SpecResult<AuditReport> {
        let view = self.world_view();
        let cache = self
            .session
            .audit_cache
            .lock()
            .clone()
            .filter(|c| c.world_view == view && c.config == self.audit_config());
        let Some(cache) = cache else {
            return self.audit_world_views(workers);
        };
        let dirty = delta.dirty_nodes();
        let graph = self.kb.dep_graph();
        let stale: Vec<usize> = view
            .iter()
            .zip(&cache.members)
            .enumerate()
            .filter(|(_, (name, outcome))| {
                matches!(outcome, MemberOutcome::Failed { .. })
                    || graph
                        .goal_closure(&Self::audit_goal(name))
                        .depends_on(&dirty)
            })
            .map(|(i, _)| i)
            .collect();
        self.audit_members(view, cache.members, &stale, workers)
    }

    /// What the audit member cache is keyed on besides the world view:
    /// the knowledge base's structural generation (cycle policy,
    /// coinductive marks, indexing) and its tabling switches (on, all).
    /// Each can change what a recursive member derives without touching a
    /// clause, so no commit record shows it.
    fn audit_config(&self) -> (u64, bool, bool) {
        (
            self.kb.structural_generation(),
            self.kb.tabling_enabled(),
            self.kb.table_all(),
        )
    }

    // ----- low-level access (sibling crates, diagnostics) --------------------

    /// The underlying knowledge base (read).
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The underlying knowledge base (write). Reserved for the spatial /
    /// temporal / fuzzy / rendering layers; going around the assertion API
    /// skips sort checking.
    pub fn kb_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    // ----- MVCC snapshots ----------------------------------------------------

    /// An MVCC snapshot of this specification at its current generation:
    /// the knowledge base is shared copy-on-write (no clause is cloned),
    /// the answer table is a pinned copy whose hits surface as `S-HIT`
    /// port events, the registries and world view are its facts, and the
    /// session state — limits, trace/profile switches, audit cache — is
    /// carried over. The snapshot
    /// gets a *fresh* cancel token and empty counters, so readers can be
    /// cancelled and profiled independently of the live writer. The
    /// semantic-domain table stays shared (domain natives captured its
    /// `Arc` at registration): domain *declarations* are not versioned.
    pub fn snapshot(&self) -> Specification {
        self.snapshot_impl(None)
    }

    /// Like [`Self::snapshot`], but pinned `newer.len()` commits back from
    /// head: `newer` is the suffix of committed [`CommitRecord`]s (oldest
    /// first) that happened *after* the desired generation, and the
    /// snapshot's knowledge base un-applies them newest-first. Per-predicate
    /// generations and the epoch are restored to their pre-commit values,
    /// so answer-table entries built after the pin fail validation
    /// automatically. The audit cache is dropped unless pinned at head —
    /// its member outcomes were computed against newer clauses.
    pub fn snapshot_at(&self, newer: &[CommitRecord]) -> Specification {
        self.snapshot_impl(Some(newer))
    }

    fn snapshot_impl(&self, newer: Option<&[CommitRecord]>) -> Specification {
        let (kb, audit_cache) = match newer {
            None | Some([]) => (self.kb.snapshot(), self.session.audit_cache.lock().clone()),
            Some(records) => (self.kb.snapshot_at(records), None),
        };
        Specification {
            kb,
            domains: Arc::clone(&self.domains),
            signatures: self.signatures.clone(),
            meta_models: self.meta_models.clone(),
            active_meta: self.active_meta.clone(),
            sort_enforcement: self.sort_enforcement,
            trace_capacity: self.trace_capacity,
            chaos: self.chaos,
            session: self.session.fork(audit_cache),
        }
    }

    /// Exchange the session-owned state with `other`: step and depth
    /// limits, deadline, cancel token, retry policy, the trace and profile
    /// switches with the accumulated profile, the last trace ring, the
    /// last query's counters and the running totals, incremental mode and
    /// the audit member cache.
    /// Everything the knowledge base holds — clauses, configuration, the
    /// answer table — stays put. A session re-pinning onto a fresh
    /// [`Self::snapshot`] moves its state across with this, and lends it
    /// to the live specification for the length of a commit block.
    pub fn swap_session(&mut self, other: &mut Specification) {
        std::mem::swap(&mut self.session, &mut other.session);
    }

    /// Assert a raw engine clause under a named group.
    pub fn assert_raw(&mut self, group: &str, clause: RawClause) {
        self.kb
            .assert_clause_in(GroupId::named(group), clause.head, clause.body);
    }

    /// Fallible counterpart of [`Self::assert_raw`]: a head the engine
    /// cannot store (arity beyond the index limit, or a non-callable term
    /// like a bare integer) is reported as [`SpecError::Engine`] instead
    /// of panicking. The language loader funnels through this so a bad
    /// head in a source file becomes a line-numbered diagnostic.
    pub fn try_assert_raw(&mut self, group: &str, clause: RawClause) -> SpecResult<()> {
        self.kb
            .try_assert_clause_in(GroupId::named(group), clause.head, clause.body)
            .map_err(SpecError::from)
    }

    /// Retract a named clause group; returns the number of clauses removed.
    pub fn retract_raw_group(&mut self, group: &str) -> usize {
        self.kb.retract_group(GroupId::named(group))
    }

    /// Prove a raw engine goal (diagnostics and sibling crates).
    pub fn prove_goal(&self, goal: Term) -> SpecResult<bool> {
        self.prove_inner(goal)
    }

    /// Solve a raw engine goal, returning engine-level solutions.
    pub fn solve_goal(&self, goal: Term) -> SpecResult<Vec<gdp_engine::Solution>> {
        self.solve_n_goal(goal, usize::MAX)
    }

    /// Declared objects, in declaration order.
    pub fn objects(&self) -> Vec<String> {
        self.registered(functors::is_object())
    }

    /// Declared models, in declaration order.
    pub fn models(&self) -> Vec<String> {
        self.registered(functors::is_model())
    }

    /// Switch sort enforcement mode.
    pub fn set_sort_enforcement(&mut self, mode: SortEnforcement) {
        self.sort_enforcement = mode;
    }
}

/// The error a transaction call reports when none is open.
fn no_txn() -> SpecError {
    SpecError::Transaction("no transaction is open".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;
    use crate::pattern::Pat;

    fn fact(pred: &str, args: &[&str]) -> FactPat {
        let mut f = FactPat::new(pred);
        for a in args {
            f = f.arg(*a);
        }
        f
    }

    /// `between(1, i64::MAX, _), fail`: a goal that never ends, however
    /// it is evaluated.
    fn endless() -> Formula {
        Formula::all(vec![
            Formula::Raw(Pat::app(
                "between",
                vec![Pat::Int(1), Pat::Int(i64::MAX), Pat::var("N")],
            )),
            Formula::Raw(Pat::Atom("fail".into())),
        ])
    }

    #[test]
    fn assert_and_query_basic_facts() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        spec.assert_fact(fact("road", &["s2"])).unwrap();
        let answers = spec.query(fact("road", &["X"])).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].get("X").unwrap(), &Term::atom("s1"));
    }

    #[test]
    fn non_ground_basic_fact_rejected() {
        let mut spec = Specification::new();
        let err = spec.assert_fact(fact("road", &["X"])).unwrap_err();
        assert!(matches!(err, SpecError::NonGroundFact(_)));
    }

    #[test]
    fn retract_fact_round_trip() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        assert!(spec.provable(fact("road", &["s1"])).unwrap());
        assert!(spec.retract_fact(fact("road", &["s1"])).unwrap());
        assert!(!spec.provable(fact("road", &["s1"])).unwrap());
        assert!(!spec.retract_fact(fact("road", &["s1"])).unwrap());
        // Fuzzy retraction needs the exact accuracy.
        spec.assert_fuzzy_fact(fact("clarity", &["img"]), 0.8)
            .unwrap();
        assert!(!spec
            .retract_fuzzy_fact(fact("clarity", &["img"]), 0.7)
            .unwrap());
        assert!(spec
            .retract_fuzzy_fact(fact("clarity", &["img"]), 0.8)
            .unwrap());
    }

    #[test]
    fn virtual_fact_derives() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("bridge", &["b1"])).unwrap();
        spec.assert_fact(fact("open", &["b1"])).unwrap();
        spec.define(Rule::new(
            fact("known_status", &["X"]),
            Formula::and(
                Formula::fact(fact("bridge", &["X"])),
                Formula::or(
                    Formula::fact(fact("open", &["X"])),
                    Formula::fact(fact("closed", &["X"])),
                ),
            ),
        ))
        .unwrap();
        assert!(spec.provable(fact("known_status", &["b1"])).unwrap());
    }

    #[test]
    fn query_distinct_dedups() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("p", &["a"])).unwrap();
        // Two rules derive the same conclusion.
        for _ in 0..2 {
            spec.define(Rule::new(
                fact("q", &["X"]),
                Formula::fact(fact("p", &["X"])),
            ))
            .unwrap();
        }
        assert_eq!(spec.query(fact("q", &["X"])).unwrap().len(), 2);
        assert_eq!(spec.query_distinct(fact("q", &["X"])).unwrap().len(), 1);
    }

    #[test]
    fn model_scoping_and_world_view() {
        let mut spec = Specification::new();
        spec.assert_fact(
            fact("freezing_point", &[])
                .model("celsius")
                .arg(Pat::Int(0))
                .arg("x"),
        )
        .unwrap();
        // Not visible: celsius not in the world view.
        assert!(!spec
            .provable(fact("freezing_point", &[]).arg(Pat::Int(0)).arg("x"))
            .unwrap());
        spec.set_world_view(&["omega", "celsius"]).unwrap();
        assert!(spec
            .provable(fact("freezing_point", &[]).arg(Pat::Int(0)).arg("x"))
            .unwrap());
        // Query with explicit model qualifier.
        assert!(spec
            .provable(
                fact("freezing_point", &[])
                    .model("celsius")
                    .arg(Pat::Int(0))
                    .arg("x")
            )
            .unwrap());
    }

    #[test]
    fn unknown_model_in_world_view_rejected() {
        let mut spec = Specification::new();
        assert!(matches!(
            spec.set_world_view(&["nope"]),
            Err(SpecError::UnknownModel(_))
        ));
    }

    #[test]
    fn consistency_checking_is_world_view_relative() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("capital_of", &["jc", "mo"])).unwrap();
        spec.assert_fact(fact("capital_of", &["stl", "mo"]).model("rumor"))
            .unwrap();
        spec.constrain(
            Constraint::new("two_capitals")
                .witness("Z")
                .when(Formula::all(vec![
                    Formula::fact(fact("capital_of", &["X", "Z"])),
                    Formula::fact(fact("capital_of", &["Y", "Z"])),
                    Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
                ])),
        )
        .unwrap();
        // Default world view: only omega's fact — consistent.
        assert!(spec.check_consistency().unwrap().is_empty());
        // Include the rumor model: two capitals for mo — violation.
        spec.set_world_view(&["omega", "rumor"]).unwrap();
        let violations = spec.check_consistency().unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].error_type, Term::atom("two_capitals"));
        assert_eq!(violations[0].witnesses, vec![Term::atom("mo")]);
    }

    #[test]
    fn sorts_reject_bad_temperature() {
        let mut spec = Specification::new();
        spec.declare_domain(
            "temperature",
            DomainDef::FloatRange {
                min: -100.0,
                max: 200.0,
            },
        )
        .unwrap();
        spec.declare_predicate(
            "average_temperature",
            vec![Sort::domain("temperature"), Sort::Object],
        )
        .unwrap();
        spec.assert_fact(
            FactPat::new("average_temperature")
                .arg(Pat::Float(45.0))
                .arg("saint_louis"),
        )
        .unwrap();
        let err = spec
            .assert_fact(
                FactPat::new("average_temperature")
                    .arg("green")
                    .arg("saint_louis"),
            )
            .unwrap_err();
        assert!(matches!(err, SpecError::SortViolation { .. }));
        // Objects auto-registered from Sort::Object positions.
        assert!(spec.objects().iter().any(|o| o == "saint_louis"));
    }

    #[test]
    fn sort_enforcement_off_admits_anomalies() {
        let mut spec = Specification::new();
        spec.set_sort_enforcement(SortEnforcement::Off);
        spec.declare_domain("temperature", DomainDef::AnyNumber)
            .unwrap();
        spec.declare_predicate(
            "average_temperature",
            vec![Sort::domain("temperature"), Sort::Object],
        )
        .unwrap();
        spec.assert_fact(
            FactPat::new("average_temperature")
                .arg("green")
                .arg("saint_louis"),
        )
        .unwrap();
        // The anomaly is in; a domain constraint can now flag it.
        spec.constrain(Constraint::new("bad_temp").witness("X").when(Formula::and(
            Formula::fact(FactPat::new("average_temperature").arg("X").arg("Y")),
            Formula::not(Formula::Domain("temperature".into(), Pat::var("X"))),
        )))
        .unwrap();
        let violations = spec.check_consistency().unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].error_type, Term::atom("bad_temp"));
    }

    #[test]
    fn arity_mismatch_reported() {
        let mut spec = Specification::new();
        spec.declare_predicate("road", vec![Sort::Object]).unwrap();
        let err = spec.assert_fact(fact("road", &["a", "b"])).unwrap_err();
        assert!(matches!(err, SpecError::ArityMismatch { .. }));
    }

    #[test]
    fn meta_model_activation_cycle() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("p", &["a"])).unwrap();
        let mm = MetaModel::new("copy_p_to_q")
            .clause(RawClause::rule(
                reify::holds(
                    Term::atom(DEFAULT_MODEL),
                    reify::any(),
                    reify::any(),
                    Term::atom("q"),
                    Term::var(0),
                ),
                reify::holds(
                    Term::atom(DEFAULT_MODEL),
                    reify::any(),
                    reify::any(),
                    Term::atom("p"),
                    Term::var(0),
                ),
            ))
            .build();
        spec.register_meta_model(mm);
        assert!(!spec.provable(fact("q", &["a"])).unwrap());
        spec.activate_meta_model("copy_p_to_q").unwrap();
        assert!(spec.provable(fact("q", &["a"])).unwrap());
        assert_eq!(spec.meta_view(), &["copy_p_to_q".to_string()]);
        spec.deactivate_meta_model("copy_p_to_q").unwrap();
        assert!(!spec.provable(fact("q", &["a"])).unwrap());
    }

    #[test]
    fn fuzzy_facts_do_not_prove_crisp_facts() {
        let mut spec = Specification::new();
        spec.assert_fuzzy_fact(fact("clarity", &["image"]), 0.85)
            .unwrap();
        // §VII.C: q(x) is not provable from %a q(x).
        assert!(!spec.provable(fact("clarity", &["image"])).unwrap());
        // But the fuzzy relation sees it.
        let answers = spec
            .satisfy(&Formula::FuzzyFact(
                fact("clarity", &["image"]),
                Pat::var("A"),
            ))
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("A").unwrap().as_f64(), Some(0.85));
    }

    #[test]
    fn invalid_accuracy_rejected() {
        let mut spec = Specification::new();
        let err = spec
            .assert_fuzzy_fact(fact("clarity", &["image"]), 1.5)
            .unwrap_err();
        assert_eq!(err, SpecError::InvalidAccuracy(1.5));
    }

    #[test]
    fn set_now_updates() {
        let mut spec = Specification::new();
        spec.set_now(1990.0);
        assert!(spec
            .prove_goal(Term::pred("now_is", vec![Term::float(1990.0)]))
            .unwrap());
        spec.set_now(1991.0);
        assert!(!spec
            .prove_goal(Term::pred("now_is", vec![Term::float(1990.0)]))
            .unwrap());
    }

    #[test]
    fn observability_captures_trace_and_profile() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        assert!(spec.last_trace().is_none());
        assert!(spec.profile().is_empty());
        spec.set_trace(true);
        spec.set_profile(true);
        assert!(spec.provable(fact("road", &["s1"])).unwrap());
        let trace = spec.last_trace().unwrap();
        assert!(!trace.is_empty());
        // The query goes through visible/5, and the trace says so.
        assert!(trace.render().contains("visible"));
        // Every step the solver took is attributed to some predicate.
        let prof = spec.profile();
        assert_eq!(prof.total_steps(), spec.solver_stats().steps);
        // Observation must not change the verdict.
        spec.set_trace(false);
        spec.set_profile(false);
        assert!(spec.provable(fact("road", &["s1"])).unwrap());
    }

    #[test]
    fn profiled_parallel_audit_merges_workers() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("capital_of", &["jc", "mo"])).unwrap();
        spec.assert_fact(fact("capital_of", &["stl", "mo"]).model("rumor"))
            .unwrap();
        spec.constrain(
            Constraint::new("two_capitals")
                .witness("Z")
                .when(Formula::all(vec![
                    Formula::fact(fact("capital_of", &["X", "Z"])),
                    Formula::fact(fact("capital_of", &["Y", "Z"])),
                    Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
                ])),
        )
        .unwrap();
        spec.set_world_view(&["omega", "rumor"]).unwrap();
        spec.set_profile(true);
        spec.reset_profile();
        let report = spec.audit_world_views(4).unwrap();
        assert_eq!(report.violations.len(), 1);
        let prof = spec.profile();
        assert_eq!(prof.total_steps(), report.stats.steps);
        let row_sum: u64 = prof.rows().iter().map(|(_, p)| p.steps).sum();
        assert_eq!(row_sum, report.stats.steps);
    }

    /// A world view whose `omega` member carries a cheap satisfied
    /// constraint and whose `bad` member carries a constraint over a
    /// divergent rule (`loop(a) :- between(1, i64::MAX, _), fail`), so
    /// `bad`'s audit goal can only end by exhausting a resource bound —
    /// tabled or not, where SLG would close `loop(a) :- loop(a)`.
    fn spec_with_divergent_member() -> Specification {
        let mut spec = Specification::new();
        spec.assert_fact(fact("marker", &["m1"]).model("bad"))
            .unwrap();
        spec.assert_fact(fact("capital_of", &["jc", "mo"])).unwrap();
        spec.assert_fact(fact("capital_of", &["stl", "mo"]))
            .unwrap();
        spec.define(Rule::new(fact("loop", &["a"]), endless()))
            .unwrap();
        spec.constrain(
            Constraint::new("two_capitals")
                .witness("Z")
                .when(Formula::all(vec![
                    Formula::fact(fact("capital_of", &["X", "Z"])),
                    Formula::fact(fact("capital_of", &["Y", "Z"])),
                    Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
                ])),
        )
        .unwrap();
        spec.constrain(
            Constraint::new("diverges")
                .model("bad")
                .when(Formula::fact(fact("loop", &["a"]))),
        )
        .unwrap();
        spec.set_world_view(&["omega", "bad"]).unwrap();
        spec
    }

    #[test]
    fn audit_degrades_per_member_on_budget_exhaustion() {
        let mut spec = spec_with_divergent_member();
        spec.set_budget(4_000, 64);
        let report = spec.audit_world_views(2).unwrap();
        // omega's violation is still found...
        assert_eq!(report.violations.len(), 1);
        // ...and the divergent member is reported, not fatal.
        assert!(!report.is_complete());
        assert_eq!(report.incomplete.len(), 1);
        let failure = &report.incomplete[0];
        assert_eq!(failure.model, "bad");
        assert_eq!(failure.attempts, 0); // default policy: no retries
        assert!(failure.error.is_recoverable());
        assert_eq!(
            report.per_model,
            vec![("omega".to_string(), 1), ("bad".to_string(), 0)]
        );
    }

    #[test]
    fn deadline_degrades_divergent_audit_member() {
        let mut spec = spec_with_divergent_member();
        spec.set_budget(u64::MAX, 64);
        spec.set_deadline(Some(Duration::from_millis(25)));
        let report = spec.audit_world_views(2).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report
            .incomplete
            .iter()
            .any(|f| matches!(f.error, EngineError::DeadlineExceeded { .. })));
        // A deadline is not budget-recoverable: no retries were burned.
        assert_eq!(report.incomplete[0].attempts, 0);
    }

    #[test]
    fn retry_policy_rescues_budget_limited_audit_goals() {
        let mut spec = Specification::new();
        // Enough facts that the constraint's quadratic join exceeds the
        // base per-worker budget but fits an escalated one.
        let names: Vec<String> = (0..40).map(|i| format!("x{i}")).collect();
        for n in &names {
            spec.assert_fact(fact("p", &[n.as_str()])).unwrap();
        }
        spec.constrain(
            Constraint::new("crowded")
                .witness("X")
                .witness("Y")
                .when(Formula::all(vec![
                    Formula::fact(fact("p", &["X"])),
                    Formula::fact(fact("p", &["Y"])),
                    Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
                ])),
        )
        .unwrap();
        spec.set_budget(2_000, 64);
        spec.set_profile(true);
        spec.reset_profile();

        // Without retries the goal is budget-limited...
        let report = spec.audit_world_views(1).unwrap();
        assert!(!report.is_complete());
        assert!(matches!(
            report.incomplete[0].error,
            EngineError::StepLimit { .. }
        ));

        // ...and with an escalating policy the same audit completes.
        spec.set_retry(RetryPolicy::retries(3));
        spec.reset_profile();
        let report = spec.audit_world_views(1).unwrap();
        assert!(report.is_complete(), "escalation should rescue the goal");
        assert_eq!(report.violations.len(), 40 * 39);
        // Retry attempts fold into the merged ledger: the absorbed profile
        // still accounts for every recorded step.
        let prof = spec.profile();
        assert_eq!(prof.total_steps(), report.stats.steps);
    }

    /// A spec whose `bad` member grinds through a 40 × 40 bounded `forall`
    /// and then calls `boom`, whose only clause reaches the native `native`.
    fn spec_with_grinding_member(native: &str) -> Specification {
        let mut spec = Specification::new();
        spec.assert_fact(fact("capital_of", &["jc", "mo"])).unwrap();
        spec.assert_fact(fact("capital_of", &["stl", "mo"]))
            .unwrap();
        spec.constrain(
            Constraint::new("two_capitals")
                .witness("Z")
                .when(Formula::all(vec![
                    Formula::fact(fact("capital_of", &["X", "Z"])),
                    Formula::fact(fact("capital_of", &["Y", "Z"])),
                    Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
                ])),
        )
        .unwrap();
        for i in 0..40 {
            spec.assert_fact(fact("p", &[format!("x{i}").as_str()]))
                .unwrap();
        }
        let (m, sp, t, a) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
        let head = reify::holds(m, sp, t, Term::atom("boom"), a);
        spec.assert_raw("test", RawClause::rule(head, Term::pred(native, vec![])));
        let grind = Formula::forall(
            Formula::and(
                Formula::fact(fact("p", &["X"])),
                Formula::fact(fact("p", &["Y"])),
            ),
            Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::atom("zzz")),
        );
        spec.constrain(
            Constraint::new("explodes")
                .model("bad")
                .when(Formula::and(grind, Formula::fact(fact("boom", &[])))),
        )
        .unwrap();
        spec.set_world_view(&["omega", "bad"]).unwrap();
        spec
    }

    /// A retry runs behind the batch's fault boundary: a panic on the
    /// first escalated attempt degrades that member only, and the ledger
    /// still reconciles.
    #[test]
    fn a_panic_on_a_retry_degrades_only_its_member() {
        let mut spec = spec_with_grinding_member("explode");
        spec.kb_mut()
            .register_native("explode", 0, |_, _| panic!("native exploded"));
        spec.set_chaos(None);
        // `bad` needs about 5,300 steps: past its worker's half of the
        // base budget, within the first escalated retry's 16,000.
        spec.set_budget(4_000, 64);
        spec.set_retry(RetryPolicy::retries(3));
        spec.set_profile(true);
        let report = spec.audit_world_views(2).unwrap();
        assert_eq!(report.incomplete.len(), 1, "{report:?}");
        let failure = &report.incomplete[0];
        assert_eq!(failure.model, "bad");
        assert_eq!(failure.attempts, 1);
        assert!(
            matches!(&failure.error, EngineError::GoalPanicked { message } if message.contains("native exploded")),
            "{failure:?}"
        );
        assert_eq!(report.per_model[0], ("omega".to_string(), 1));
        assert_eq!(spec.profile().total_steps(), report.stats.steps);
    }

    #[test]
    fn violations_for_model_matches_audit_restriction() {
        let mut spec = spec_with_divergent_member();
        spec.set_budget(4_000, 64);
        let report = spec.audit_world_views(2).unwrap();
        let mut expected: Vec<Violation> = Vec::new();
        for (name, _) in report.per_model.iter() {
            if report.incomplete.iter().any(|f| &f.model == name) {
                continue;
            }
            for v in spec.violations_for_model(name).unwrap() {
                if !expected.contains(&v) {
                    expected.push(v);
                }
            }
        }
        assert_eq!(report.violations, expected);
    }

    #[test]
    fn txn_rollback_restores_prior_state() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        let before = spec.query(fact("road", &["X"])).unwrap();
        spec.begin_txn().unwrap();
        assert!(spec.in_txn());
        spec.assert_fact(fact("road", &["s2"])).unwrap();
        assert!(spec.retract_fact(fact("road", &["s1"])).unwrap());
        let undone = spec.rollback_txn().unwrap();
        assert_eq!(undone, 2);
        assert!(!spec.in_txn());
        assert_eq!(spec.query(fact("road", &["X"])).unwrap(), before);
    }

    #[test]
    fn txn_commit_returns_dirty_delta() {
        let mut spec = Specification::new();
        spec.begin_txn().unwrap();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        let delta = spec.commit_txn().unwrap();
        assert!(!delta.is_empty());
        // Facts land in the reified holds relation: h/5 is dirtied.
        assert!(delta
            .dirty_preds()
            .iter()
            .any(|k| k.name.as_str() == "h" && k.arity == 5));
        assert!(spec.provable(fact("road", &["s1"])).unwrap());
    }

    #[test]
    fn txn_misuse_is_reported() {
        let mut spec = Specification::new();
        assert!(matches!(spec.commit_txn(), Err(SpecError::Transaction(_))));
        assert!(matches!(
            spec.rollback_txn(),
            Err(SpecError::Transaction(_))
        ));
        spec.begin_txn().unwrap();
        assert!(matches!(spec.begin_txn(), Err(SpecError::Transaction(_))));
        spec.rollback_txn().unwrap();
    }

    /// Two world-view members with disjoint fact bases: dirtying one
    /// member's facts must re-audit only that member, and the incremental
    /// report must equal a from-scratch full audit byte-for-byte.
    #[test]
    fn incremental_audit_matches_full_and_skips_clean_members() {
        let mut spec = Specification::new();
        spec.set_incremental(true);
        spec.assert_fact(fact("wet", &["c1"])).unwrap();
        spec.assert_fact(fact("dry", &["c2"]).model("survey"))
            .unwrap();
        spec.constrain(Constraint::new("soggy").witness("X").when(Formula::and(
            Formula::fact(fact("wet", &["X"])),
            Formula::fact(fact("dry", &["X"])),
        )))
        .unwrap();
        spec.constrain(
            Constraint::new("arid")
                .model("survey")
                .witness("X")
                .when(Formula::fact(fact("dry", &["X"]))),
        )
        .unwrap();
        spec.set_world_view(&["omega", "survey"]).unwrap();
        // Seed the cache with a full audit.
        let full = spec.audit_world_views(2).unwrap();
        assert_eq!(
            full.per_model,
            vec![("omega".into(), 0), ("survey".into(), 1)]
        );
        // A delta confined to omega's facts…
        spec.begin_txn().unwrap();
        spec.assert_fact(fact("dry", &["c1"])).unwrap();
        let delta = spec.commit_txn().unwrap();
        // …must reproduce the full re-audit…
        let incremental = spec.audit_incremental(&delta, 2).unwrap();
        let reference = spec.audit_world_views(2).unwrap();
        assert_eq!(incremental.violations, reference.violations);
        assert_eq!(incremental.per_model, reference.per_model);
        // soggy(c1) in omega; arid(c2) and now arid(c1) in survey (the
        // new omega fact is visible to survey's constraint too).
        assert_eq!(incremental.violations.len(), 3);
        // An empty delta re-solves nothing at all.
        let noop = spec.audit_incremental(&Delta::new(), 2).unwrap();
        assert_eq!(noop.violations, reference.violations);
        assert_eq!(noop.per_model, reference.per_model);
        assert_eq!(noop.workers, 0, "no member may be re-solved");
        assert_eq!(noop.stats.steps, 0);
    }

    #[test]
    fn incremental_audit_without_cache_falls_back_to_full() {
        let mut spec = Specification::new();
        spec.set_incremental(true);
        spec.assert_fact(fact("wet", &["c1"])).unwrap();
        spec.constrain(
            Constraint::new("damp")
                .witness("X")
                .when(Formula::fact(fact("wet", &["X"]))),
        )
        .unwrap();
        // No prior full audit: must fall back (and then be cached).
        let report = spec.audit_incremental(&Delta::new(), 2).unwrap();
        assert_eq!(report.violations.len(), 1);
        let again = spec.audit_incremental(&Delta::new(), 2).unwrap();
        assert_eq!(again.workers, 0, "second call must hit the cache");
        assert_eq!(again.violations, report.violations);
    }

    #[test]
    fn commit_with_trace_records_delta_port() {
        let mut spec = Specification::new();
        spec.set_trace(true);
        spec.begin_txn().unwrap();
        spec.assert_fact(fact("road", &["s1"])).unwrap();
        spec.commit_txn().unwrap();
        let trace = spec.last_trace().expect("commit must leave a trace");
        assert!(trace.render().contains("D-CMT"));
    }

    #[test]
    fn satisfy_general_formula() {
        let mut spec = Specification::new();
        spec.assert_fact(fact("population", &[]).arg("stl").arg(Pat::Int(2_800_000)))
            .unwrap();
        // large_city style query: population(X, N), N > 1_000_000.
        let answers = spec
            .satisfy(&Formula::and(
                Formula::fact(FactPat::new("population").arg("X").arg("N")),
                Formula::Cmp(CmpOp::Gt, Pat::var("N"), Pat::Int(1_000_000)),
            ))
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("X").unwrap(), &Term::atom("stl"));
    }
}
