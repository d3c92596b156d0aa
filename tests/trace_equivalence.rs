//! Observation must never change observation-free behavior: a solver
//! running with a trace/profile sink attached returns exactly the answers
//! (same solutions, same order, same errors) the `NullSink` fast path
//! returns — tabling off and on, sequentially and across the parallel
//! batch layer — and the profiler's step ledger reconciles exactly with
//! the solver's own step counter.

use proptest::prelude::*;

use gdp::engine::{Budget, KnowledgeBase, ObserverSink, ParallelSolver, Solver, Term};

const ATOMS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Same rule shapes as the tabling/parallel equivalence suites:
/// conjunction, disjunction, recursion, and (ground / existential)
/// negation — the constructs whose port emission differs most.
fn install_rules(kb: &mut KnowledgeBase) {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    kb.assert_clause(
        Term::pred("r", vec![x.clone()]),
        Term::and(
            Term::pred("p", vec![x.clone()]),
            Term::pred("q", vec![x.clone()]),
        ),
    );
    kb.assert_clause(
        Term::pred("t", vec![x.clone(), y.clone()]),
        Term::or(
            Term::pred("e", vec![x.clone(), y.clone()]),
            Term::and(
                Term::pred("e", vec![x.clone(), z.clone()]),
                Term::pred("t", vec![z.clone(), y.clone()]),
            ),
        ),
    );
    kb.assert_clause(
        Term::pred("u", vec![x.clone()]),
        Term::and(
            Term::pred("p", vec![x.clone()]),
            Term::not(Term::pred("q", vec![x])),
        ),
    );
}

fn build_kb(unary: &[(u8, u8)], edges: &[(u8, u8)], tabled: bool) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for &(p, a) in unary {
        let name = if p == 0 { "p" } else { "q" };
        kb.assert_fact(Term::pred(
            name,
            vec![Term::atom(ATOMS[a as usize % ATOMS.len()])],
        ));
    }
    for &(a, b) in edges {
        let (a, b) = (a as usize % ATOMS.len(), b as usize % ATOMS.len());
        // Acyclic edges: `t/2` diverges on cycles under plain SLD.
        if a >= b {
            continue;
        }
        kb.assert_fact(Term::pred(
            "e",
            vec![Term::atom(ATOMS[a]), Term::atom(ATOMS[b])],
        ));
    }
    install_rules(&mut kb);
    if tabled {
        kb.set_tabling(true);
        kb.set_table_all(true);
    }
    kb
}

fn arb_goal() -> impl Strategy<Value = Term> {
    let atom = (0usize..ATOMS.len())
        .prop_map(|i| Term::atom(ATOMS[i]))
        .boxed();
    prop_oneof![
        Just(Term::pred("r", vec![Term::var(0)])),
        Just(Term::pred("u", vec![Term::var(0)])),
        atom.clone()
            .prop_map(|a| Term::pred("t", vec![a, Term::var(0)])),
        (atom.clone(), atom.clone()).prop_map(|(a, b)| Term::not(Term::pred("t", vec![a, b]))),
        atom.prop_map(|a| Term::absent(Term::pred("t", vec![a, Term::var(0)]))),
    ]
}

/// Render one goal's solution list (order included) or its error.
fn fingerprint(result: &Result<Vec<gdp::engine::Solution>, gdp::engine::EngineError>) -> String {
    match result {
        Ok(sols) => sols
            .iter()
            .map(|sol| {
                sol.bindings()
                    .iter()
                    .map(|(v, t)| format!("{v:?}={t}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join(";"),
        Err(e) => format!("error: {e:?}"),
    }
}

proptest! {
    /// For random fact sets and goals, the fully-observed solver (profiler
    /// + bounded trace ring) returns byte-identical answers to the
    /// `NullSink` fast path, tabling off and on — and its profiler
    /// accounts for exactly the steps the solver reports.
    #[test]
    fn traced_solver_equals_untraced(
        unary in prop::collection::vec((0u8..2, 0u8..5), 0..12),
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..10),
        goals in prop::collection::vec(arb_goal(), 1..6),
    ) {
        for tabled in [false, true] {
            for goal in &goals {
                // Separate knowledge bases: solvers over one base share its
                // answer table, so a second run would replay the first
                // run's tabled answers and legitimately take fewer steps.
                let cold = build_kb(&unary, &edges, tabled);
                let plain = Solver::new(&cold, Budget::default());
                let expected = fingerprint(&plain.solve_all(goal.clone()));
                let kb = build_kb(&unary, &edges, tabled);
                let traced = Solver::with_sink(
                    &kb,
                    Budget::default(),
                    ObserverSink::new(true, Some(64)),
                );
                let got = fingerprint(&traced.solve_all(goal.clone()));
                prop_assert_eq!(&got, &expected, "answer divergence, tabled={}", tabled);
                prop_assert_eq!(
                    plain.stats().steps,
                    traced.stats().steps,
                    "step-count divergence, tabled={}", tabled
                );
                let steps = traced.stats().steps;
                let prof = traced
                    .into_sink()
                    .into_parts()
                    .0
                    .expect("profiling was requested");
                prop_assert_eq!(prof.total_steps(), steps, "unattributed steps");
            }
        }
    }

    /// The parallel batch layer with per-worker profiling merges answers
    /// and step ledgers without perturbing either: batch answers match an
    /// unprofiled batch, and the merged profile covers the merged stats.
    #[test]
    fn profiled_parallel_batch_equals_plain(
        unary in prop::collection::vec((0u8..2, 0u8..5), 0..10),
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..8),
        goals in prop::collection::vec(arb_goal(), 1..5),
    ) {
        for workers in [1usize, 4] {
            let kb = build_kb(&unary, &edges, false);
            let plain = ParallelSolver::new(&kb, workers);
            let expected: Vec<String> =
                plain.solve_batch(&goals).iter().map(fingerprint).collect();
            let mut profiled = ParallelSolver::new(&kb, workers);
            profiled.observe(ObserverSink::new(true, None));
            let got: Vec<String> =
                profiled.solve_batch(&goals).iter().map(fingerprint).collect();
            prop_assert_eq!(&got, &expected, "divergence at {} workers", workers);
            let steps = profiled.stats().steps;
            let (prof, _) = profiled.into_observed().into_parts();
            let prof = prof.expect("profiling was enabled");
            prop_assert_eq!(prof.total_steps(), steps);
        }
    }
}

/// On every corpus specification, a fully-observed consistency check
/// (trace on, profile on) reports the identical violation list the
/// unobserved check reports, and the profiler reconciles with the
/// recorded solver stats.
#[test]
fn corpus_consistency_is_observation_invariant() {
    let dir = ["specs", "../../specs"]
        .into_iter()
        .map(std::path::PathBuf::from)
        .find(|p| p.is_dir())
        .expect("specs/ directory not found");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("read specs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("gdp") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read spec");
        let load = |observed: bool| {
            let (mut spec, reg) = gdp::standard_spec().expect("standard spec");
            gdp::lang::Loader::with_spatial(&mut spec, &reg)
                .load_str(&source)
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
            if observed {
                spec.set_trace(true);
                spec.set_profile(true);
            }
            spec
        };
        let plain = load(false);
        let expected: Vec<String> = plain
            .check_consistency()
            .expect("unobserved audit")
            .iter()
            .map(|v| v.to_string())
            .collect();
        let observed = load(true);
        observed.reset_profile();
        let got: Vec<String> = observed
            .check_consistency()
            .expect("observed audit")
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(
            got,
            expected,
            "{}: observation changed the audit",
            path.display()
        );
        assert_eq!(
            plain.solver_stats().steps,
            observed.solver_stats().steps,
            "{}: observation changed the step count",
            path.display()
        );
        let prof = observed.profile();
        assert_eq!(
            prof.total_steps(),
            observed.solver_stats().steps,
            "{}: unattributed steps",
            path.display()
        );
        assert!(
            observed.last_trace().is_some(),
            "{}: tracing left no ring",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 4, "expected the full corpus, audited {checked}");
}

/// Acceptance criterion: profiling the Missouri specification's
/// consistency audit yields a per-predicate table whose step totals sum
/// to exactly `SolverStats.steps`, with the hot predicates ranked first.
#[test]
fn missouri_audit_profile_reconciles_with_stats() {
    let path = ["specs/missouri.gdp", "../../specs/missouri.gdp"]
        .into_iter()
        .map(std::path::PathBuf::from)
        .find(|p| p.is_file())
        .expect("specs/missouri.gdp not found");
    let source = std::fs::read_to_string(&path).expect("read missouri.gdp");
    let (mut spec, reg) = gdp::standard_spec().expect("standard spec");
    gdp::lang::Loader::with_spatial(&mut spec, &reg)
        .load_str(&source)
        .expect("load missouri.gdp");
    spec.set_profile(true);
    spec.reset_profile();
    spec.check_consistency().expect("consistency audit");
    let stats = spec.solver_stats();
    let prof = spec.profile();
    assert!(stats.steps > 0);
    assert_eq!(prof.total_steps(), stats.steps);
    let rows = prof.rows();
    assert!(!rows.is_empty());
    let row_sum: u64 = rows.iter().map(|(_, p)| p.steps).sum();
    assert_eq!(
        row_sum, stats.steps,
        "per-predicate steps must sum to the total"
    );
    // Hot-first ordering: the report is sorted by steps, descending.
    assert!(rows.windows(2).all(|w| w[0].1.steps >= w[1].1.steps));
    // And the rendered table carries the same total.
    assert!(prof.render().contains(&stats.steps.to_string()));
}
