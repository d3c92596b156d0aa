//! The specification database.
//!
//! A [`Specification`] is the executable counterpart of one GDP
//! requirements document: it owns the knowledge base, the semantic-domain
//! table, the object/model/predicate registries, the active world view
//! (§III.E) and meta-view (§IV.D), and offers the assertion, definition,
//! query, and consistency-checking API the rest of the system builds on.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use gdp_engine::{
    list_from_iter, list_to_vec, Budget, CancelToken, ChaosConfig, CommitRecord, CyclePolicy,
    Delta, EngineError, FxHashMap, FxHashSet, GroupId, KnowledgeBase, ObserverSink, Port, PredKey,
    Profiler, RingTrace, Solver, SolverStats, Term, TraceEvent, TraceSink,
};

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

/// Per-member results of the most recent full audit, keyed by the world
/// view they were computed under. Invalidated wholesale when the world
/// view changes; members are selectively re-solved by
/// [`Specification::audit_incremental`].
#[derive(Clone, Debug)]
struct AuditCache {
    /// The world view the cache was computed under (member order matters).
    world_view: Vec<String>,
    /// One outcome per member, in world-view order.
    members: Vec<MemberOutcome>,
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
    objects: FxHashSet<String>,
    models: FxHashSet<String>,
    meta_models: FxHashMap<String, MetaModel>,
    active_meta: Vec<String>,
    world_view: Vec<String>,
    sort_enforcement: SortEnforcement,
    step_limit: u64,
    depth_limit: u32,
    /// Execution counters of the most recent query (interior mutability:
    /// queries take `&self`).
    last_stats: Mutex<SolverStats>,
    /// Keep a bounded port-event ring for each query (off by default).
    trace_enabled: bool,
    /// Accumulate a per-predicate profile across queries (off by default).
    profile_enabled: bool,
    /// Ring capacity used while tracing: the last N port events survive.
    trace_capacity: usize,
    /// The accumulated per-predicate profile (interior mutability: queries
    /// take `&self`, like `last_stats`).
    profiler: Mutex<Profiler>,
    /// The port-event ring of the most recent traced query.
    last_trace: Mutex<Option<RingTrace>>,
    /// Optional wall-clock bound attached to every query budget.
    deadline: Option<Duration>,
    /// The session's cancellation token, attached to every query budget.
    /// Cloned out via [`Self::cancel_token`] so e.g. a Ctrl-C handler can
    /// trip it from another thread.
    cancel: CancelToken,
    /// How audits re-attempt budget-exhausted goals.
    retry: RetryPolicy,
    /// Deterministic fault injection for audits (tests / `GDP_CHAOS`).
    chaos: Option<ChaosConfig>,
    /// Incremental-audit mode (`GDP_INCREMENTAL=1`): full audits cache
    /// per-member results so delta-driven re-audits can skip members the
    /// delta cannot have affected.
    incremental: bool,
    /// Recorder mark of the open transaction, if any.
    txn_start: Option<usize>,
    /// Per-member results of the most recent audit (incremental mode
    /// only; interior mutability — audits take `&self`).
    audit_cache: Mutex<Option<AuditCache>>,
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
            .field("objects", &self.objects.len())
            .field("models", &self.models.len())
            .field("world_view", &self.world_view)
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
            objects: FxHashSet::default(),
            models: FxHashSet::default(),
            meta_models: FxHashMap::default(),
            active_meta: Vec::new(),
            world_view: vec![DEFAULT_MODEL.to_string()],
            sort_enforcement: SortEnforcement::default(),
            step_limit: 10_000_000,
            depth_limit: 256,
            last_stats: Mutex::new(SolverStats::default()),
            trace_enabled: false,
            profile_enabled: false,
            trace_capacity: 512,
            profiler: Mutex::new(Profiler::new()),
            last_trace: Mutex::new(None),
            deadline: None,
            cancel: CancelToken::new(),
            retry: RetryPolicy::default(),
            chaos: None,
            incremental: false,
            txn_start: None,
            audit_cache: Mutex::new(None),
        };
        register_domain_native(&mut spec.kb, Arc::clone(&spec.domains));
        spec.install_kernel();
        spec.declare_model(DEFAULT_MODEL);
        spec.apply_world_view();
        // Ablation hook: `GDP_TABLING=on` (nominated predicates) or
        // `GDP_TABLING=all` flips answer tabling on for every
        // specification, so whole harnesses (the E1–E16 experiment runner,
        // integration suites) can be re-run tabled without code changes.
        // Unset or any other value leaves tabling off — the default.
        match std::env::var("GDP_TABLING").as_deref() {
            Ok("on") => spec.enable_tabling(true),
            Ok("all") => {
                spec.enable_tabling(true);
                spec.set_table_all(true);
            }
            _ => {}
        }
        // Observability hooks, same spirit: `GDP_TRACE=1` keeps a bounded
        // ring of port events per query, `GDP_PROFILE=1` accumulates a
        // per-predicate profile. Both off (and costing nothing) by default.
        if matches!(std::env::var("GDP_TRACE").as_deref(), Ok("1") | Ok("on")) {
            spec.set_trace(true);
        }
        if matches!(std::env::var("GDP_PROFILE").as_deref(), Ok("1") | Ok("on")) {
            spec.set_profile(true);
        }
        // Fault-injection hook: `GDP_CHAOS=<seed>` (or `kind:K`) arms the
        // deterministic chaos harness for every audit this specification
        // runs — the CI chaos leg re-runs the fault-tolerance suite under
        // a seed matrix this way. Unset: no injection, no overhead.
        spec.chaos = ChaosConfig::from_env();
        // Incremental hook: `GDP_INCREMENTAL=1` arms per-member audit
        // caching, so harnesses that interleave transactions with audits
        // get delta-driven re-audits without code changes.
        if matches!(
            std::env::var("GDP_INCREMENTAL").as_deref(),
            Ok("1") | Ok("on")
        ) {
            spec.incremental = true;
        }
        // Indexing hook: `GDP_INDEX=off` (or `0`) disables clause-selection
        // indexing — hash and range alike — so every call scans every
        // clause, the 1986-Prolog baseline. The equivalence suites diff
        // answers across this switch; unset or any other value leaves
        // indexing on (the default).
        if matches!(std::env::var("GDP_INDEX").as_deref(), Ok("off") | Ok("0")) {
            spec.kb.set_indexing(false);
        }
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
        if self.objects.insert(name.to_string()) {
            self.kb.assert_clause_in(
                GroupId::named(groups::REGISTRY),
                Term::compound(functors::is_object(), vec![Term::atom(name)]),
                Term::atom("true"),
            );
        }
    }

    /// Declare a model (§III.D). Idempotent. Declaring does not activate:
    /// a model's facts stay invisible until a world view includes it.
    pub fn declare_model(&mut self, name: &str) {
        if self.models.insert(name.to_string()) {
            self.kb.assert_clause_in(
                GroupId::named(groups::REGISTRY),
                Term::compound(functors::is_model(), vec![Term::atom(name)]),
                Term::atom("true"),
            );
        }
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
        let head = Term::compound(functors::is_pred(), vec![Term::atom(name)]);
        // Idempotence: only assert the registry fact once.
        let already = self
            .kb
            .candidates(
                gdp_engine::PredKey {
                    name: functors::is_pred(),
                    arity: 1,
                },
                &gdp_engine::BindStore::new(),
                &[Term::atom(name)],
                &gdp_engine::BoundSet::default(),
            )
            .iter()
            .any(|c| c.head == head);
        if !already {
            self.kb
                .assert_clause_in(GroupId::named(groups::REGISTRY), head, Term::atom("true"));
        }
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
    /// constraints are visible. Every model must have been declared.
    pub fn set_world_view(&mut self, models: &[&str]) -> SpecResult<()> {
        for m in models {
            if !self.models.contains(*m) {
                return Err(SpecError::UnknownModel((*m).to_string()));
            }
        }
        self.world_view = models.iter().map(|m| m.to_string()).collect();
        self.apply_world_view();
        Ok(())
    }

    fn apply_world_view(&mut self) {
        let g = GroupId::named(groups::WORLD_VIEW);
        self.kb.retract_group(g);
        for m in &self.world_view {
            self.kb.assert_clause_in(
                g,
                Term::compound(functors::active_model(), vec![Term::atom(m)]),
                Term::atom("true"),
            );
        }
    }

    /// The currently active world view.
    pub fn world_view(&self) -> &[String] {
        &self.world_view
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

    fn budget(&self) -> Budget {
        self.budget_with_steps(self.step_limit)
    }

    /// A query budget with an explicit step limit (retries escalate it)
    /// and the session's deadline and cancellation token attached.
    fn budget_with_steps(&self, step_limit: u64) -> Budget {
        let mut budget = Budget::new(step_limit, self.depth_limit).with_cancel(self.cancel.clone());
        if let Some(d) = self.deadline {
            budget = budget.with_deadline_in(d);
        }
        budget
    }

    /// Snapshot a solver's counters as the most recent query's stats.
    fn record_stats<S: TraceSink>(&self, solver: &Solver<'_, S>) {
        *self.last_stats.lock() = solver.stats();
    }

    /// Is any observation (tracing or profiling) requested? When false,
    /// queries run on the `NullSink` fast path with zero overhead.
    fn observing(&self) -> bool {
        self.trace_enabled || self.profile_enabled
    }

    /// Build the observer for one query from the current settings.
    fn observer_sink(&self) -> ObserverSink {
        ObserverSink::new(
            self.profile_enabled,
            self.trace_enabled.then_some(self.trace_capacity),
        )
    }

    /// Fold one query's observations back into the specification: the
    /// profile accumulates, the trace ring replaces the previous one.
    fn harvest(&self, sink: ObserverSink) {
        let (prof, ring) = sink.into_parts();
        if let Some(p) = prof {
            self.profiler.lock().absorb(&p);
        }
        if let Some(r) = ring {
            *self.last_trace.lock() = Some(r);
        }
    }

    /// The shared solve path: every `&self` query funnels through here (or
    /// [`Self::prove_inner`]) so observation is wired in exactly once.
    fn solve_n_goal(&self, goal: Term, limit: usize) -> SpecResult<Vec<gdp_engine::Solution>> {
        self.solve_n_goal_budget(goal, limit, self.budget())
    }

    /// [`Self::solve_n_goal`] with an explicit budget (the retry path
    /// escalates step limits per attempt).
    fn solve_n_goal_budget(
        &self,
        goal: Term,
        limit: usize,
        budget: Budget,
    ) -> SpecResult<Vec<gdp_engine::Solution>> {
        if self.observing() {
            let solver = Solver::with_sink(&self.kb, budget, self.observer_sink());
            let out = solver.solve(goal, limit);
            self.record_stats(&solver);
            self.harvest(solver.into_sink());
            Ok(out?)
        } else {
            let solver = Solver::new(&self.kb, budget);
            let out = solver.solve(goal, limit);
            self.record_stats(&solver);
            Ok(out?)
        }
    }

    /// The shared prove path; see [`Self::solve_n_goal`].
    fn prove_inner(&self, goal: Term) -> SpecResult<bool> {
        if self.observing() {
            let solver = Solver::with_sink(&self.kb, self.budget(), self.observer_sink());
            let out = solver.prove(goal);
            self.record_stats(&solver);
            self.harvest(solver.into_sink());
            Ok(out?)
        } else {
            let solver = Solver::new(&self.kb, self.budget());
            let out = solver.prove(goal);
            self.record_stats(&solver);
            Ok(out?)
        }
    }

    /// Execution counters of the most recent query run through this
    /// specification (steps, clause resolutions, and answer-table
    /// hit/miss/insert/invalidation counts).
    pub fn solver_stats(&self) -> SolverStats {
        *self.last_stats.lock()
    }

    /// Cumulative answer-table counters over the KB's lifetime.
    pub fn table_stats(&self) -> gdp_engine::TableStats {
        self.kb.table().stats()
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
        self.step_limit = step_limit;
        self.depth_limit = depth_limit;
    }

    // ----- fault tolerance --------------------------------------------------

    /// Bound every query and audit by wall-clock time in addition to
    /// steps (`None` — the default — removes the bound). The deadline is
    /// per query: it starts when the query starts.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The configured wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// A handle to the session's cancellation token. Trip it from any
    /// thread ([`CancelToken::cancel`]) to stop the in-flight query with
    /// [`EngineError::Cancelled`]; [`CancelToken::reset`] re-arms it for
    /// the next query. The specification itself never resets the token —
    /// the interactive layer decides when a cancellation is consumed.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Configure how audits retry budget-exhausted goals.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
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
        self.trace_enabled = on;
    }

    /// Is port-event tracing enabled?
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Set how many port events the trace ring retains per query
    /// (default 512).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
    }

    /// The port-event ring of the most recent traced query, or `None` when
    /// no query has run with tracing on.
    pub fn last_trace(&self) -> Option<RingTrace> {
        self.last_trace.lock().clone()
    }

    /// Switch per-predicate profiling on or off (off by default). While
    /// on, every query folds its per-predicate call/exit/redo/fail/step
    /// counters into an accumulated [`Profiler`] retrievable with
    /// [`Self::profile`].
    pub fn set_profile(&mut self, on: bool) {
        self.profile_enabled = on;
    }

    /// Is per-predicate profiling enabled?
    pub fn profile_enabled(&self) -> bool {
        self.profile_enabled
    }

    /// A snapshot of the accumulated per-predicate profile.
    pub fn profile(&self) -> Profiler {
        self.profiler.lock().clone()
    }

    /// Clear the accumulated profile (e.g. to isolate one workload).
    pub fn reset_profile(&self) {
        *self.profiler.lock() = Profiler::new();
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
    /// tree), or `None` when it is not. See [`crate::explain`].
    pub fn explain_fact(&self, pat: FactPat) -> SpecResult<Option<crate::explain::Proof>> {
        let mut vt = VarTable::new();
        let goal = pat.compile(&mut vt, Target::Visible);
        crate::explain::explain(self, goal)
    }

    /// Evaluate every constraint visible in the active world view and
    /// return the violations (§III.C, §III.E). An empty result means the
    /// world view is *consistent*.
    ///
    /// Budget-exhausted checks are retried under the active
    /// [`RetryPolicy`] with escalated step limits before the error is
    /// surfaced. (The sequential check evaluates one goal, so there is no
    /// partial report to degrade to — use
    /// [`Self::audit_world_views`] for per-member degraded evaluation.)
    pub fn check_consistency(&self) -> SpecResult<Vec<Violation>> {
        let goal = reify::visible(
            Term::var(0),
            Term::var(1),
            Term::var(2),
            Term::atom(ERROR_PRED),
            Term::var(3),
        );
        let mut attempt = 0u32;
        let solutions = loop {
            let budget = self.budget_with_steps(self.retry.escalated(self.step_limit, attempt));
            match self.solve_n_goal_budget(goal.clone(), usize::MAX, budget) {
                Ok(solutions) => break solutions,
                Err(SpecError::Engine(e))
                    if e.is_recoverable() && attempt < self.retry.attempts =>
                {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        let mut out = Vec::new();
        for sol in solutions {
            let model = sol.get(gdp_engine::Var(0)).cloned().unwrap_or(Term::var(0));
            let v = Self::violation_from(model, &sol);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Ok(out)
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
            .map(|sol| Self::violation_from(Term::atom(model), sol))
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

    /// Decode one `visible(M, S, T, error, A)` solution into a
    /// [`Violation`]. `model` is supplied by the caller: the sequential
    /// audit reads it from the solution's first variable, the per-model
    /// parallel audit already knows it (the goal carries it ground).
    fn violation_from(model: Term, sol: &gdp_engine::Solution) -> Violation {
        let space = sol.get(gdp_engine::Var(1)).cloned().unwrap_or(Term::var(1));
        let time = sol.get(gdp_engine::Var(2)).cloned().unwrap_or(Term::var(2));
        let args = sol.get(gdp_engine::Var(3)).cloned().unwrap_or(Term::nil());
        let items = list_to_vec(&args).unwrap_or_default();
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

    /// The parallel counterpart of [`Self::check_consistency`]: fan one
    /// `ERROR`-derivation goal per world-view member across `workers`
    /// threads (the paper's per-world-view consistency story, §III.C/§VI,
    /// is an independent-goal fan-out: each model's constraint violations
    /// derive without reference to the others').
    ///
    /// The merge is deterministic and reproduces the sequential audit
    /// exactly: the kernel's `visible/5` clause enumerates models in
    /// `active_model` assertion order — which *is* the world-view order —
    /// so concatenating per-model answers in world-view order and then
    /// deduplicating globally yields the identical violation list,
    /// byte-for-byte, at any worker count.
    ///
    /// The step budget is global: each worker receives an equal share, so
    /// the audit can consume at most the same budget as the sequential
    /// check. Merged per-worker counters (including any retry attempts)
    /// are recorded as the specification's last stats and returned in the
    /// report.
    ///
    /// ## Degraded-mode evaluation
    ///
    /// A failing goal no longer aborts the audit. Each member's goal that
    /// errors — budget exhaustion, deadline, cancellation, or a contained
    /// panic — is first re-attempted under the active [`RetryPolicy`]
    /// (budget-recoverable errors only, sequentially, with escalated step
    /// limits), and if it still fails it is recorded in
    /// [`AuditReport::incomplete`] with a zero count in
    /// [`AuditReport::per_model`], while every other member's violations
    /// are reported normally. Callers decide whether a partial audit is
    /// acceptable via [`AuditReport::is_complete`].
    pub fn audit_world_views(&self, workers: usize) -> SpecResult<AuditReport> {
        let goals: Vec<Term> = self
            .world_view
            .iter()
            .map(|m| Self::audit_goal(m))
            .collect();
        let mut par = gdp_engine::ParallelSolver::with_budget(
            &self.kb,
            workers,
            self.step_limit,
            self.depth_limit,
        );
        if self.profile_enabled {
            // Per-worker profiles merge at the batch join, exactly like
            // the per-worker stats. (The trace ring stays sequential-only:
            // interleaved per-worker event orders are not meaningful.)
            par.enable_profile();
        }
        par.set_deadline(self.deadline);
        par.set_cancel(self.cancel.clone());
        par.set_chaos(self.chaos);
        let results = par.solve_batch(&goals);
        let mut stats = par.stats();
        if let Some(p) = par.profile() {
            self.profiler.lock().absorb(&p);
        }
        let mut members = Vec::with_capacity(goals.len());
        for ((name, goal), result) in self.world_view.iter().zip(&goals).zip(results) {
            let result = match result {
                Ok(solutions) => Ok(solutions),
                Err(e) => self.retry_audit_goal(goal, e, &mut stats),
            };
            members.push(Self::member_outcome(name, result));
        }
        let (violations, per_model, incomplete) = self.merge_member_outcomes(&members);
        if self.incremental {
            *self.audit_cache.lock() = Some(AuditCache {
                world_view: self.world_view.clone(),
                members,
            });
        }
        *self.last_stats.lock() = stats;
        Ok(AuditReport {
            violations,
            per_model,
            stats,
            incomplete,
            workers: par.workers(),
        })
    }

    /// Decode one member's (possibly retried) solve result into a cached
    /// outcome: the raw violation list, or the terminal failure.
    fn member_outcome(
        name: &str,
        result: Result<Vec<gdp_engine::Solution>, (EngineError, u32)>,
    ) -> MemberOutcome {
        match result {
            Ok(solutions) => MemberOutcome::Solved(
                solutions
                    .iter()
                    .map(|sol| Self::violation_from(Term::atom(name), sol))
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
        &self,
        members: &[MemberOutcome],
    ) -> (Vec<Violation>, Vec<(String, usize)>, Vec<AuditFailure>) {
        let mut violations: Vec<Violation> = Vec::new();
        let mut per_model = Vec::with_capacity(members.len());
        let mut incomplete = Vec::new();
        for (name, outcome) in self.world_view.iter().zip(members) {
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

    /// Re-attempt one audit goal that failed in the parallel fan-out.
    /// Only budget-recoverable errors ([`EngineError::is_recoverable`])
    /// are retried, sequentially, each attempt under an escalated step
    /// limit; the fault-injection token is deliberately *not* re-attached,
    /// so an injected fault costs one attempt, not the whole policy. Every
    /// attempt's counters fold into `stats` so the merged ledger still
    /// reconciles with the absorbed profile. Returns the solutions, or the
    /// final error together with the number of retry attempts made.
    fn retry_audit_goal(
        &self,
        goal: &Term,
        first: EngineError,
        stats: &mut SolverStats,
    ) -> Result<Vec<gdp_engine::Solution>, (EngineError, u32)> {
        let mut error = first;
        let mut attempt = 0u32;
        while error.is_recoverable() && attempt < self.retry.attempts {
            attempt += 1;
            let budget = self.budget_with_steps(self.retry.escalated(self.step_limit, attempt));
            // catch_unwind mirrors the parallel solver's per-goal isolation:
            // a panicking native must degrade this member, not the audit.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.profile_enabled {
                    let solver = Solver::with_sink(&self.kb, budget, Profiler::new());
                    let out = solver.solve(goal.clone(), usize::MAX);
                    let s = solver.stats();
                    (out, s, Some(solver.into_sink()))
                } else {
                    let solver = Solver::new(&self.kb, budget);
                    let out = solver.solve(goal.clone(), usize::MAX);
                    let s = solver.stats();
                    (out, s, None)
                }
            }));
            match outcome {
                Ok((out, s, prof)) => {
                    stats.absorb(&s);
                    if let Some(p) = prof {
                        self.profiler.lock().absorb(&p);
                    }
                    match out {
                        Ok(solutions) => return Ok(solutions),
                        Err(e) => error = e,
                    }
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    error = EngineError::GoalPanicked { message };
                }
            }
        }
        Err((error, attempt))
    }

    // ----- transactions & incremental audits (map-data revision) -------------

    /// Switch incremental-audit mode on or off (off by default; also set
    /// at construction from `GDP_INCREMENTAL=1`). While on,
    /// [`Self::audit_world_views`] caches its per-member results so
    /// [`Self::audit_incremental`] can confine a re-audit to the members a
    /// committed delta can actually have affected. Turning it off drops
    /// the cache.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            *self.audit_cache.lock() = None;
        }
    }

    /// Is incremental-audit mode on?
    pub fn incremental_enabled(&self) -> bool {
        self.incremental
    }

    /// Open a transaction: every subsequent assertion and retraction is
    /// recorded (invertibly) until [`Self::commit_txn`] or
    /// [`Self::rollback_txn`]. Transactions do not nest.
    pub fn begin_txn(&mut self) -> SpecResult<()> {
        if self.txn_start.is_some() {
            return Err(SpecError::Transaction(
                "a transaction is already open".to_string(),
            ));
        }
        self.kb.begin_delta();
        self.txn_start = Some(self.kb.delta_len());
        Ok(())
    }

    /// Is a transaction open?
    pub fn in_txn(&self) -> bool {
        self.txn_start.is_some()
    }

    /// The operations the open transaction has recorded so far, as a
    /// standalone [`Delta`]; the transaction stays open.
    pub fn txn_delta(&self) -> SpecResult<Delta> {
        let Some(mark) = self.txn_start else {
            return Err(SpecError::Transaction("no transaction is open".to_string()));
        };
        Ok(self.kb.delta_since(mark))
    }

    /// Commit the open transaction, returning the recorded [`Delta`] —
    /// the currency of [`Self::audit_incremental`]. Ends knowledge-base
    /// recording. With tracing on, one `D-CMT` port event carrying the
    /// dirtied predicates lands in the trace ring.
    pub fn commit_txn(&mut self) -> SpecResult<Delta> {
        let Some(mark) = self.txn_start.take() else {
            return Err(SpecError::Transaction("no transaction is open".to_string()));
        };
        let delta = self.kb.delta_since(mark);
        self.kb.end_delta();
        if self.trace_enabled {
            self.record_commit_event(&delta);
        }
        Ok(delta)
    }

    /// Abort the open transaction, undoing every recorded operation
    /// (newest first) and restoring the exact prior clause store —
    /// including clause positions, which are observable through solution
    /// order. Returns the number of operations undone.
    pub fn rollback_txn(&mut self) -> SpecResult<usize> {
        let Some(mark) = self.txn_start.take() else {
            return Err(SpecError::Transaction("no transaction is open".to_string()));
        };
        let undone = self.kb.rollback_to(mark);
        self.kb.end_delta();
        Ok(undone)
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
        let mut guard = self.last_trace.lock();
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
    /// no cache exists or the world view changed since it was built;
    /// either way the cache is refreshed, so successive commits can chain
    /// `audit_incremental` calls. Requires incremental mode
    /// ([`Self::set_incremental`]) for the cache to populate.
    pub fn audit_incremental(&self, delta: &Delta, workers: usize) -> SpecResult<AuditReport> {
        let cache = self
            .audit_cache
            .lock()
            .clone()
            .filter(|c| c.world_view == self.world_view);
        let Some(cache) = cache else {
            return self.audit_world_views(workers);
        };
        let dirty = delta.dirty_nodes();
        let graph = self.kb.dep_graph();
        let stale: Vec<usize> = self
            .world_view
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
        if stale.is_empty() {
            // Nothing the delta touched reaches any audit goal: the
            // cached member results *are* the current audit.
            let (violations, per_model, incomplete) = self.merge_member_outcomes(&cache.members);
            let stats = SolverStats::default();
            *self.last_stats.lock() = stats;
            return Ok(AuditReport {
                violations,
                per_model,
                stats,
                incomplete,
                workers: 0,
            });
        }
        let goals: Vec<Term> = stale
            .iter()
            .map(|&i| Self::audit_goal(&self.world_view[i]))
            .collect();
        let mut par = gdp_engine::ParallelSolver::with_budget(
            &self.kb,
            workers,
            self.step_limit,
            self.depth_limit,
        );
        if self.profile_enabled {
            par.enable_profile();
        }
        par.set_deadline(self.deadline);
        par.set_cancel(self.cancel.clone());
        par.set_chaos(self.chaos);
        let results = par.solve_batch(&goals);
        let mut stats = par.stats();
        if let Some(p) = par.profile() {
            self.profiler.lock().absorb(&p);
        }
        let mut members = cache.members;
        for ((&i, goal), result) in stale.iter().zip(&goals).zip(results) {
            let name = &self.world_view[i];
            let result = match result {
                Ok(solutions) => Ok(solutions),
                Err(e) => self.retry_audit_goal(goal, e, &mut stats),
            };
            members[i] = Self::member_outcome(name, result);
        }
        let (violations, per_model, incomplete) = self.merge_member_outcomes(&members);
        *self.audit_cache.lock() = Some(AuditCache {
            world_view: self.world_view.clone(),
            members,
        });
        *self.last_stats.lock() = stats;
        Ok(AuditReport {
            violations,
            per_model,
            stats,
            incomplete,
            workers: par.workers(),
        })
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

    /// Shared handle to the semantic-domain table.
    pub fn domain_table(&self) -> Arc<RwLock<DomainTable>> {
        Arc::clone(&self.domains)
    }

    // ----- MVCC snapshots ----------------------------------------------------

    /// An MVCC snapshot of this specification at its current generation:
    /// the knowledge base is shared copy-on-write (no clause is cloned),
    /// the answer table is a pinned copy whose hits surface as `S-HIT`
    /// port events, and the session state — registries, world view, limits,
    /// trace/profile switches, audit cache — is carried over. The snapshot
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
            None | Some([]) => (self.kb.snapshot(), self.audit_cache.lock().clone()),
            Some(records) => (self.kb.snapshot_at(records), None),
        };
        Specification {
            kb,
            domains: Arc::clone(&self.domains),
            signatures: self.signatures.clone(),
            objects: self.objects.clone(),
            models: self.models.clone(),
            meta_models: self.meta_models.clone(),
            active_meta: self.active_meta.clone(),
            world_view: self.world_view.clone(),
            sort_enforcement: self.sort_enforcement,
            step_limit: self.step_limit,
            depth_limit: self.depth_limit,
            last_stats: Mutex::new(SolverStats::default()),
            trace_enabled: self.trace_enabled,
            profile_enabled: self.profile_enabled,
            trace_capacity: self.trace_capacity,
            profiler: Mutex::new(Profiler::new()),
            last_trace: Mutex::new(None),
            deadline: self.deadline,
            cancel: CancelToken::new(),
            retry: self.retry,
            chaos: self.chaos,
            incremental: self.incremental,
            txn_start: None,
            audit_cache: Mutex::new(audit_cache),
        }
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

    /// Declared objects.
    pub fn objects(&self) -> impl Iterator<Item = &str> {
        self.objects.iter().map(String::as_str)
    }

    /// Declared models.
    pub fn models(&self) -> impl Iterator<Item = &str> {
        self.models.iter().map(String::as_str)
    }

    /// Switch sort enforcement mode.
    pub fn set_sort_enforcement(&mut self, mode: SortEnforcement) {
        self.sort_enforcement = mode;
    }
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
        assert!(spec.objects().any(|o| o == "saint_louis"));
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
