//! The parallel layer must be observationally equivalent to the sequential
//! solver: `ParallelSolver::solve_batch` returns exactly the sequential
//! solution multiset per goal (tabling off and on), the shared answer
//! table survives being hammered from many threads across epoch bumps,
//! and `Specification::audit_world_views` reproduces the one-goal
//! reference audit byte-for-byte on the specification corpus at any
//! worker count.

use proptest::prelude::*;

use gdp::engine::{Budget, KnowledgeBase, ParallelSolver, Solver, Term};

mod common;

const ATOMS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Same rule shapes as the tabling-equivalence suite: conjunction,
/// disjunction, recursion, and (ground / existential) negation.
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

/// Render one goal's solution list; order *within* a goal is part of the
/// contract (work distribution is per goal, never within one).
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
    /// For random fact sets and goal batches, the parallel batch result is
    /// the sequential result, goal for goal — tabling off and on, at
    /// several worker counts.
    #[test]
    fn parallel_batch_equals_sequential(
        unary in prop::collection::vec((0u8..2, 0u8..5), 0..12),
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..10),
        goals in prop::collection::vec(arb_goal(), 1..6),
        workers in 1usize..5,
    ) {
        for tabled in [false, true] {
            let kb = build_kb(&unary, &edges, tabled);
            let sequential: Vec<String> = goals
                .iter()
                .map(|g| {
                    fingerprint(&Solver::new(&kb, Budget::default()).solve_all(g.clone()))
                })
                .collect();
            let par = ParallelSolver::new(&kb, workers);
            let batch: Vec<String> = par.solve_batch(&goals).iter().map(fingerprint).collect();
            prop_assert_eq!(
                &batch, &sequential,
                "divergence at {} workers, tabled={}", workers, tabled
            );
            // Replay over the (possibly) warm table must not change answers.
            let replay: Vec<String> = par.solve_batch(&goals).iter().map(fingerprint).collect();
            prop_assert_eq!(&replay, &sequential, "replay divergence, tabled={}", tabled);
        }
    }
}

/// Eight workers hammering one shared answer table while the KB epoch is
/// bumped between (not during — solving borrows the base immutably)
/// rounds: every round must see answers consistent with the current
/// epoch's facts, and stale entries must never be replayed.
#[test]
fn shared_table_across_epoch_bumps() {
    let mut kb = build_kb(&[(0, 0), (1, 0)], &[(0, 1), (1, 2)], true);
    let goals: Vec<Term> = (0..32)
        .map(|i| Term::pred("t", vec![Term::atom(ATOMS[i % 3]), Term::var(0)]))
        .collect();
    let mut invalidations = 0;
    for round in 0u8..6 {
        // Mutate: extend the edge relation, bumping the epoch and
        // invalidating every cached answer set.
        let epoch_before = kb.epoch();
        kb.assert_fact(Term::pred(
            "e",
            vec![
                Term::atom(ATOMS[(round as usize) % 4]),
                Term::atom(ATOMS[4]),
            ],
        ));
        assert!(kb.epoch() > epoch_before, "assert must bump the epoch");
        // Solve the whole batch on 8 workers sharing the one table.
        let par = ParallelSolver::new(&kb, 8);
        let batch = par.solve_batch(&goals);
        invalidations += par.stats().table_invalidations;
        let sequential: Vec<String> = goals
            .iter()
            .map(|g| fingerprint(&Solver::new(&kb, Budget::default()).solve_all(g.clone())))
            .collect();
        let rendered: Vec<String> = batch.iter().map(fingerprint).collect();
        assert_eq!(rendered, sequential, "divergence in round {round}");
    }
    assert!(
        invalidations > 0,
        "epoch bumps must have invalidated stale entries"
    );
}

/// Raw concurrent hammering of one `AnswerTable`: 8 threads look up and
/// insert the same call patterns under racing epoch-only validity
/// snapshots; the table must only ever serve an answer set recorded at the
/// exact requested epoch (epoch-only snapshots never survive a mismatch).
#[test]
fn answer_table_concurrent_lookups_respect_epochs() {
    use gdp::engine::table::{
        canonicalize, AnswerSet, AnswerTable, CachedAnswer, Lookup, TableValidity,
    };

    use std::sync::atomic::{AtomicU64, Ordering};

    let table = AnswerTable::new();
    // The table keeps no counters; the threads count its events here.
    let (lookups, inserts) = (AtomicU64::new(0), AtomicU64::new(0));
    let patterns: Vec<_> = (0..4)
        .map(|i| canonicalize(&Term::pred("t", vec![Term::atom(ATOMS[i]), Term::var(0)])).0)
        .collect();
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let (table, patterns, lookups, inserts) = (&table, &patterns, &lookups, &inserts);
            scope.spawn(move || {
                for step in 0..200u64 {
                    let epoch = (w + step) % 5;
                    let pattern = &patterns[(step as usize) % patterns.len()];
                    lookups.fetch_add(1, Ordering::Relaxed);
                    match table.lookup(pattern, &TableValidity::epoch_only(epoch)) {
                        Lookup::Hit(answers) => {
                            // An answer set is tagged with the epoch that
                            // recorded it: every served answer must carry
                            // the marker fact for that epoch.
                            let marker = Term::pred("epoch", vec![Term::int(epoch as i64)]);
                            assert!(
                                answers.iter().all(|a| a.term == marker),
                                "stale answers served at epoch {epoch}"
                            );
                        }
                        Lookup::Miss { .. } => {
                            inserts.fetch_add(1, Ordering::Relaxed);
                            table.insert(
                                pattern.clone(),
                                TableValidity::epoch_only(epoch),
                                std::sync::Arc::new(AnswerSet::from(vec![CachedAnswer {
                                    term: Term::pred("epoch", vec![Term::int(epoch as i64)]),
                                    n_vars: 0,
                                }])),
                            );
                        }
                    }
                }
            });
        }
    });
    assert!(inserts.into_inner() > 0);
    assert!(lookups.into_inner() > 0);
}

/// Acceptance criterion: on every corpus specification, the 4-worker audit
/// report is byte-identical (same violations, same order, same rendering)
/// to the one-goal reference audit, and worker counts do not change
/// the report.
#[test]
fn corpus_audit_matches_sequential_audit() {
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
        let (mut spec, reg) = gdp::standard_spec().expect("standard spec");
        gdp::lang::Loader::with_spatial(&mut spec, &reg)
            .load_str(&source)
            .unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
        let sequential: Vec<String> = common::sequential_violations(&spec)
            .iter()
            .map(|v| v.to_string())
            .collect();
        for workers in [1, 2, 4, 8] {
            let report = spec.audit_world_views(workers).expect("parallel audit");
            let parallel: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            assert_eq!(
                parallel,
                sequential,
                "{}: audit diverges at {workers} workers",
                path.display()
            );
            assert_eq!(report.per_model.len(), spec.world_view().len());
            assert_eq!(
                report.per_model.iter().map(|(_, n)| n).sum::<usize>(),
                report.violations.len()
            );
        }
        checked += 1;
    }
    assert!(checked >= 4, "expected the full corpus, audited {checked}");
}

/// The audit is world-view relative, exactly like the one-goal reference
/// (§III.E: "a constraint violation may occur in one world view but not
/// in the other") — and the merged stats land in `solver_stats`.
#[test]
fn audit_respects_world_view_and_records_stats() {
    use gdp::core::{Constraint, FactPat, Formula, Pat};

    let mut spec = gdp::core::Specification::new();
    spec.declare_model("survey");
    spec.assert_fact(FactPat::new("wet").arg("cell1")).unwrap();
    spec.assert_fact(FactPat::new("dry").arg("cell1").model("survey"))
        .unwrap();
    spec.constrain(
        Constraint::new("contradiction")
            .witness(Pat::var("C"))
            .when(Formula::and(
                Formula::fact(FactPat::new("wet").arg(Pat::var("C"))),
                Formula::fact(FactPat::new("dry").arg(Pat::var("C"))),
            )),
    )
    .unwrap();
    // Default world view: survey's `dry` is invisible — consistent.
    let report = spec.audit_world_views(4).unwrap();
    assert!(report.violations.is_empty());
    assert!(report.stats.steps > 0, "merged stats must be recorded");
    assert_eq!(spec.solver_stats(), report.stats);
    // Widen the view: the contradiction becomes derivable.
    spec.set_world_view(&["omega", "survey"]).unwrap();
    let report = spec.audit_world_views(4).unwrap();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(
        report.violations,
        common::sequential_violations(&spec),
        "audit and sequential check must agree"
    );
}
