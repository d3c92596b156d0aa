//! Deterministic fault-injection harness for the fault-tolerance layer.
//!
//! The contract under test: injected faults — cooperative cancellation,
//! forced deadline expiry, and outright panics, all fired at a
//! seed-derived port-event index via `ChaosSink` — never escape the
//! public API as panics, and a degraded `audit_world_views` report equals
//! the fault-free audit *restricted to the world-view members that
//! completed*. Plus the `GDP_CHAOS` environment hook, deadline and
//! cross-thread cancellation smoke tests, answer-table integrity when the
//! fault lands on a `TableInsert` event, and per-goal panic isolation
//! with exact profiler/stats reconciliation on an 8-goal batch.

use std::sync::Once;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gdp::core::{AuditReport, Constraint, FactPat, Formula, Pat, Rule, Specification, Violation};
use gdp::engine::{
    Budget, ChaosConfig, EngineError, FaultKind, KnowledgeBase, ObserverSink, ParallelSolver, Port,
    Solver, Term,
};

/// Install (once, process-wide) a panic hook that swallows the *expected*
/// injected panics so intentionally-faulting tests don't spam stderr,
/// delegating every other panic to the previous hook. Permanent because
/// the test runner is multi-threaded: swapping hooks back would race.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if message.contains("chaos: injected") || message.contains("native exploded") {
                return;
            }
            previous(info);
        }));
    });
}

/// A three-member world view with per-member constraints and enough
/// derivation work (an acyclic reachability join) that audits emit a
/// healthy stream of port events for the chaos clock to count.
fn populate(spec: &mut Specification, tabled: bool) {
    spec.declare_model("survey");
    spec.declare_model("rumor");
    for (a, b) in [
        ("a", "b"),
        ("b", "c"),
        ("c", "d"),
        ("d", "e"),
        ("a", "c"),
        ("b", "d"),
    ] {
        spec.assert_fact(FactPat::new("edge").arg(a).arg(b))
            .unwrap();
    }
    spec.assert_fact(FactPat::new("wet").arg("c1")).unwrap();
    spec.assert_fact(FactPat::new("wet").arg("c2")).unwrap();
    spec.assert_fact(FactPat::new("dry").arg("c1").model("survey"))
        .unwrap();
    spec.assert_fact(FactPat::new("dry").arg("c2").model("rumor"))
        .unwrap();
    spec.define(Rule::new(
        FactPat::new("reach").arg("X").arg("Y"),
        Formula::or(
            Formula::fact(FactPat::new("edge").arg("X").arg("Y")),
            Formula::and(
                Formula::fact(FactPat::new("edge").arg("X").arg("Z")),
                Formula::fact(FactPat::new("reach").arg("Z").arg("Y")),
            ),
        ),
    ))
    .unwrap();
    spec.constrain(
        Constraint::new("linked")
            .witness("X")
            .witness("Y")
            .when(Formula::fact(FactPat::new("reach").arg("X").arg("Y"))),
    )
    .unwrap();
    spec.constrain(
        Constraint::new("contradiction")
            .model("survey")
            .witness("C")
            .when(Formula::and(
                Formula::fact(FactPat::new("wet").arg("C")),
                Formula::fact(FactPat::new("dry").arg("C")),
            )),
    )
    .unwrap();
    spec.constrain(
        Constraint::new("hearsay")
            .model("rumor")
            .witness("C")
            .when(Formula::and(
                Formula::fact(FactPat::new("wet").arg("C")),
                Formula::fact(FactPat::new("dry").arg("C")),
            )),
    )
    .unwrap();
    spec.set_world_view(&["omega", "survey", "rumor"]).unwrap();
    if tabled {
        spec.enable_tabling(true);
        spec.set_table_all(true);
    }
}

/// [`populate`]d specification with fault injection explicitly *off*,
/// regardless of any `GDP_CHAOS` in the environment (the env test in this
/// binary sets it transiently; every other test must be immune).
fn harness_spec(tabled: bool) -> Specification {
    let mut spec = Specification::new();
    spec.set_chaos(None);
    populate(&mut spec, tabled);
    spec
}

/// The fault-free audit restricted to the members the degraded `report`
/// actually completed: concatenate each completed member's sequential
/// per-model violation list in world-view order, deduplicating globally —
/// exactly the merge `audit_world_views` performs.
fn restricted_baseline(spec: &Specification, report: &AuditReport) -> Vec<Violation> {
    let mut expected: Vec<Violation> = Vec::new();
    for (name, _) in &report.per_model {
        if report.incomplete.iter().any(|f| &f.model == name) {
            continue;
        }
        for v in spec
            .violations_for_model(name)
            .expect("fault-free per-model baseline")
        {
            if !expected.contains(&v) {
                expected.push(v);
            }
        }
    }
    expected
}

proptest! {
    /// The tentpole property: for every seed-derived injection point
    /// (cycling cancel / deadline / panic at event indices 1..=499), at 1
    /// and 4 workers, tabling off and on, the audit API returns normally
    /// and its degraded report is the fault-free audit restricted to the
    /// non-skipped members. Injected faults are externally imposed, so
    /// the retry policy must not have burned attempts on them.
    #[test]
    fn degraded_audit_restricts_the_fault_free_audit(
        seed in 0u64..1500,
        four_workers in prop::bool::ANY,
        tabled in prop::bool::ANY,
    ) {
        quiet_injected_panics();
        let workers = if four_workers { 4 } else { 1 };
        let cfg = ChaosConfig::from_seed(seed);
        let mut spec = harness_spec(tabled);
        spec.set_chaos(Some(cfg));
        let report = spec
            .audit_world_views(workers)
            .expect("the audit API must not fail under injection");
        spec.set_chaos(None);
        for f in &report.incomplete {
            prop_assert_eq!(f.attempts, 0, "chaos fault retried: {:?}", f.error);
            prop_assert!(
                !f.error.is_recoverable(),
                "chaos fault classified recoverable: {:?}",
                f.error
            );
        }
        let expected = restricted_baseline(&spec, &report);
        prop_assert_eq!(
            &report.violations, &expected,
            "seed {} ({:?}) at {} workers, tabled={}",
            seed, cfg, workers, tabled
        );
    }
}

/// The test `ci.sh`'s chaos legs drive: the specification keeps whatever
/// fault `GDP_CHAOS` configured at construction (unlike every other test
/// here, which immunizes itself), runs audits under it at both worker
/// counts, and re-checks the restriction property. With no ambient
/// `GDP_CHAOS` this degenerates to a fault-free completeness check.
/// (The config is *captured*, not re-asserted against the environment —
/// another test in this binary sets `GDP_CHAOS` transiently, and any
/// injection point satisfies the property.)
#[test]
fn ambient_env_chaos_restriction_holds() {
    quiet_injected_panics();
    for tabled in [false, true] {
        let mut spec = Specification::new();
        let cfg = spec.chaos();
        populate(&mut spec, tabled);
        for workers in [1, 4] {
            spec.set_chaos(cfg);
            let report = spec.audit_world_views(workers).unwrap();
            spec.set_chaos(None);
            assert_eq!(
                report.violations,
                restricted_baseline(&spec, &report),
                "restriction violated under GDP_CHAOS={cfg:?} at {workers} workers, tabled={tabled}"
            );
            if cfg.is_none() {
                assert!(report.is_complete());
            }
        }
    }
}

/// The incremental leg `ci.sh` drives: under ambient `GDP_CHAOS`, the
/// delta-driven `audit_incremental` keeps the restriction property — its
/// degraded report is the fault-free audit restricted to the members that
/// completed (cached members completed by construction; injected faults
/// can only land on the re-solved stale ones). With no ambient fault it
/// must be byte-identical to the full re-audit.
#[test]
fn ambient_env_chaos_restriction_holds_incrementally() {
    quiet_injected_panics();
    for tabled in [false, true] {
        let mut spec = Specification::new();
        let cfg = spec.chaos();
        populate(&mut spec, tabled);
        spec.set_incremental(true);
        for workers in [1, 4] {
            // Seed the member cache fault-free, then dirty one member
            // inside a transaction.
            spec.set_chaos(None);
            spec.audit_world_views(workers).unwrap();
            spec.begin_txn().unwrap();
            spec.assert_fact(FactPat::new("dry").arg("c3").model("survey"))
                .unwrap();
            let delta = spec.commit_txn().unwrap();
            spec.set_chaos(cfg);
            let report = spec.audit_incremental(&delta, workers).unwrap();
            spec.set_chaos(None);
            assert_eq!(
                report.violations,
                restricted_baseline(&spec, &report),
                "incremental restriction violated under GDP_CHAOS={cfg:?} at {workers} \
                 workers, tabled={tabled}"
            );
            if cfg.is_none() {
                assert!(report.is_complete());
                let full = spec.audit_world_views(workers).unwrap();
                assert_eq!(report.violations, full.violations);
                assert_eq!(report.per_model, full.per_model);
            }
            spec.retract_fact(FactPat::new("dry").arg("c3").model("survey"))
                .unwrap();
        }
    }
}

/// `GDP_CHAOS` is read at `Specification` construction: a `panic:K` value
/// must surface as contained `GoalPanicked` audit failures, never as a
/// panic across the public API.
#[test]
fn env_chaos_hook_is_honored_and_never_panics() {
    quiet_injected_panics();
    std::env::set_var("GDP_CHAOS", "panic:5");
    let mut spec = Specification::new();
    std::env::remove_var("GDP_CHAOS");
    populate(&mut spec, false);
    assert_eq!(
        spec.chaos(),
        Some(ChaosConfig {
            kind: FaultKind::Panic,
            at_event: 5,
            port: None,
        })
    );
    let report = spec.audit_world_views(2).unwrap();
    assert!(
        report
            .incomplete
            .iter()
            .any(|f| matches!(f.error, EngineError::GoalPanicked { .. })),
        "the injected panic should have degraded at least one member: {report:?}"
    );
    // The restriction property holds for the env-configured point too.
    spec.set_chaos(None);
    assert_eq!(report.violations, restricted_baseline(&spec, &report));
}

/// `between(1, i64::MAX, _), fail`: a goal that never ends, tabled or
/// not (SLG would close a cycle such as `loop(k) :- loop(k)`).
fn endless() -> Formula {
    Formula::all(vec![
        Formula::Raw(Pat::app(
            "between",
            vec![Pat::Int(1), Pat::Int(i64::MAX), Pat::var("N")],
        )),
        Formula::Raw(Pat::Atom("fail".into())),
    ])
}

/// With a divergent member (`spin'loop`), only a resource bound can end
/// the audit; a wall-clock deadline must end it promptly, degrade exactly
/// that member, and leave the rest of the report intact.
#[test]
fn deadline_bounds_a_divergent_audit_member() {
    let mut spec = harness_spec(false);
    spec.declare_model("spin");
    spec.assert_fact(FactPat::new("marker").arg("m").model("spin"))
        .unwrap();
    spec.define(Rule::new(FactPat::new("loop").arg("k"), endless()))
        .unwrap();
    spec.constrain(
        Constraint::new("diverges")
            .model("spin")
            .when(Formula::fact(FactPat::new("loop").arg("k"))),
    )
    .unwrap();
    spec.set_world_view(&["omega", "survey", "rumor", "spin"])
        .unwrap();
    spec.set_budget(u64::MAX, 64);
    spec.set_deadline(Some(Duration::from_millis(30)));
    let started = Instant::now();
    let report = spec.audit_world_views(2).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "deadline failed to bound the divergent audit"
    );
    assert!(report
        .incomplete
        .iter()
        .any(|f| { f.model == "spin" && matches!(f.error, EngineError::DeadlineExceeded { .. }) }));
    // The completed members still reported (the deadline may or may not
    // have caught the cheap goals; whatever completed must be correct).
    spec.set_deadline(None);
    spec.set_budget(10_000_000, 64);
    assert_eq!(report.violations, restricted_baseline(&spec, &report));
}

/// Tripping the session token from another thread cancels the in-flight
/// audit; after `reset` the same session answers queries again.
#[test]
fn cross_thread_cancel_leaves_the_session_usable() {
    let mut spec = harness_spec(false);
    spec.declare_model("spin");
    spec.assert_fact(FactPat::new("marker").arg("m").model("spin"))
        .unwrap();
    spec.define(Rule::new(FactPat::new("loop").arg("k"), endless()))
        .unwrap();
    spec.constrain(
        Constraint::new("diverges")
            .model("spin")
            .when(Formula::fact(FactPat::new("loop").arg("k"))),
    )
    .unwrap();
    spec.set_world_view(&["omega", "spin"]).unwrap();
    spec.set_budget(u64::MAX, 64);
    let token = spec.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    let report = spec.audit_world_views(2).unwrap();
    canceller.join().unwrap();
    assert!(
        report
            .incomplete
            .iter()
            .any(|f| matches!(f.error, EngineError::Cancelled)),
        "the divergent member should have been cancelled: {report:?}"
    );
    // Rearm and keep working with the same session and knowledge base.
    spec.cancel_token().reset();
    assert!(spec
        .provable(FactPat::new("edge").arg("a").arg("b"))
        .unwrap());
    assert!(spec
        .provable(FactPat::new("reach").arg("a").arg("e"))
        .unwrap());
}

/// Faults landing exactly on answer-table insertions (port-filtered chaos
/// clock) must not corrupt the shared table: a fresh fault-free audit over
/// the same knowledge base reproduces the clean baseline, for every fault
/// kind.
#[test]
fn table_insert_fault_preserves_answer_table_integrity() {
    quiet_injected_panics();
    let baseline = {
        let spec = harness_spec(true);
        let report = spec.audit_world_views(2).unwrap();
        assert!(report.is_complete());
        assert!(
            report.stats.table_inserts > 0,
            "workload must exercise TableInsert events for this test to bite"
        );
        report
    };
    for kind in [FaultKind::Cancel, FaultKind::Deadline, FaultKind::Panic] {
        for at_event in [1, 2, 5] {
            let mut spec = harness_spec(true);
            spec.set_chaos(Some(ChaosConfig {
                kind,
                at_event,
                port: Some(Port::TableInsert),
            }));
            let degraded = spec.audit_world_views(2).unwrap();
            spec.set_chaos(None);
            assert_eq!(
                degraded.violations,
                restricted_baseline(&spec, &degraded),
                "restriction violated for {kind:?} at table-insert {at_event}"
            );
            // The table the faulted audit left behind still serves a
            // complete, correct audit.
            let after = spec.audit_world_views(2).unwrap();
            assert!(after.is_complete(), "{kind:?}@{at_event}: {after:?}");
            assert_eq!(
                after.violations, baseline.violations,
                "stale or torn table state after {kind:?} at table-insert {at_event}"
            );
        }
    }
}

/// Acceptance criterion: in an 8-goal batch where one goal's native
/// predicate panics, exactly that goal fails, the other seven complete
/// with the sequential answers, and the merged profiler total still
/// reconciles with the merged step counter.
#[test]
fn eight_goal_batch_isolates_a_panicking_worker() {
    quiet_injected_panics();
    let mut kb = KnowledgeBase::new();
    let atoms = ["a", "b", "c", "d", "e", "f", "g"];
    for w in atoms.windows(2) {
        kb.assert_fact(Term::pred("e", vec![Term::atom(w[0]), Term::atom(w[1])]));
    }
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    kb.assert_clause(
        Term::pred("t", vec![x.clone(), y.clone()]),
        Term::or(
            Term::pred("e", vec![x.clone(), y.clone()]),
            Term::and(
                Term::pred("e", vec![x.clone(), z.clone()]),
                Term::pred("t", vec![z, y]),
            ),
        ),
    );
    kb.register_native("boom", 0, |_, _| panic!("native exploded"));
    let mut goals: Vec<Term> = atoms
        .iter()
        .map(|a| Term::pred("t", vec![Term::atom(a), Term::var(0)]))
        .collect();
    goals.insert(3, Term::pred("boom", vec![]));
    assert_eq!(goals.len(), 8);
    let expected: Vec<_> = goals
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, g)| {
            Solver::new(&kb, Budget::default())
                .solve_all(g.clone())
                .unwrap()
        })
        .collect();
    for workers in [1, 4] {
        let mut par = ParallelSolver::new(&kb, workers);
        par.observe(ObserverSink::new(true, None));
        let results = par.solve_batch(&goals);
        assert_eq!(results.len(), 8);
        match &results[3] {
            Err(EngineError::GoalPanicked { message }) => {
                assert!(message.contains("native exploded"))
            }
            other => panic!("expected GoalPanicked for goal 3, got {other:?}"),
        }
        let survivors: Vec<_> = results
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, r)| r.as_ref().unwrap().clone())
            .collect();
        assert_eq!(
            survivors, expected,
            "survivor goals perturbed at {workers} workers"
        );
        let steps = par.stats().steps;
        let (profile, _) = par.into_observed().into_parts();
        let profile = profile.expect("profiling was enabled");
        assert_eq!(
            profile.total_steps(),
            steps,
            "profiler/stats ledger split at {workers} workers"
        );
    }
}
