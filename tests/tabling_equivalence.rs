//! Tabled resolution must be observationally equivalent to plain SLD
//! resolution: for any knowledge base and goal, the solution set (with
//! duplicates) is identical with tabling on and off — including goals
//! under negation-as-failure, whose soundness depends on the table only
//! ever serving *completed* answer sets. Range-bounded calls, whose
//! tabled replay the answer sets' range indexes narrow, must also keep
//! their solution order, tabled or not and indexed or not.

use proptest::prelude::*;

use gdp::engine::{ArgPath, Budget, KnowledgeBase, PredKey, RangeSpec, Solver, Term};

const ATOMS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// The rule packs every generated KB carries, spanning the constructs the
/// solver treats specially: conjunction, disjunction, recursion, and NAF.
fn install_rules(kb: &mut KnowledgeBase) {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    // r(X) :- p(X), q(X).
    kb.assert_clause(
        Term::pred("r", vec![x.clone()]),
        Term::and(
            Term::pred("p", vec![x.clone()]),
            Term::pred("q", vec![x.clone()]),
        ),
    );
    // s(X, Y) :- e(X, Y) ; e(Y, X).
    kb.assert_clause(
        Term::pred("s", vec![x.clone(), y.clone()]),
        Term::or(
            Term::pred("e", vec![x.clone(), y.clone()]),
            Term::pred("e", vec![y.clone(), x.clone()]),
        ),
    );
    // t(X, Y) :- e(X, Y) ; (e(X, Z), t(Z, Y)).   (recursive reachability)
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
    // u(X) :- p(X), not(q(X)).   (NAF over a tabled predicate)
    kb.assert_clause(
        Term::pred("u", vec![x.clone()]),
        Term::and(
            Term::pred("p", vec![x.clone()]),
            Term::not(Term::pred("q", vec![x])),
        ),
    );
}

/// A reading value: an integer or a float (keyed by the interval index),
/// or an atom (unkeyed, kept by every narrowed replay).
fn reading_value(kind: u8, n: u8) -> Term {
    match kind % 4 {
        0 | 1 => Term::int(n as i64),
        2 => Term::float(n as f64 + 0.5),
        _ => Term::atom("unknown"),
    }
}

fn build_kb(
    unary: &[(u8, u8)],
    edges: &[(u8, u8)],
    readings: &[(u8, u8, u8)],
    tabled: bool,
) -> KnowledgeBase {
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
        // Keep the edge relation acyclic (edges point "up" the atom
        // order): the recursive reachability rule `t/2` diverges on
        // cycles under plain SLD, and the property needs both solvers to
        // terminate.
        if a >= b {
            continue;
        }
        kb.assert_fact(Term::pred(
            "e",
            vec![Term::atom(ATOMS[a]), Term::atom(ATOMS[b])],
        ));
    }
    install_rules(&mut kb);
    // The numeric relation: readings v/2, and w/2 — the readings reachable
    // along edges, recursive like the meta-rules make h/5 — each with an
    // interval index over the value.
    // w(X, V) :- v(X, V) ; (e(X, Y), w(Y, V)).
    for &(a, kind, n) in readings {
        kb.assert_fact(Term::pred(
            "v",
            vec![
                Term::atom(ATOMS[a as usize % ATOMS.len()]),
                reading_value(kind, n),
            ],
        ));
    }
    let (x, y, v) = (Term::var(0), Term::var(1), Term::var(2));
    kb.assert_clause(
        Term::pred("w", vec![x.clone(), v.clone()]),
        Term::or(
            Term::pred("v", vec![x.clone(), v.clone()]),
            Term::and(
                Term::pred("e", vec![x, y.clone()]),
                Term::pred("w", vec![y, v]),
            ),
        ),
    );
    for name in ["v", "w"] {
        kb.set_range_indexes(
            PredKey::new(name, 2),
            vec![RangeSpec::Interval(ArgPath::arg(1))],
        );
    }
    if tabled {
        kb.set_tabling(true);
        kb.set_table_all(true);
    }
    kb
}

/// `range_call(Rel(X, V), [rc(V, iv(Lo, Hi, LoEnd, HiEnd))])`.
fn range_goal(rel: &str, x: Term, v: Term, lo: Term, hi: Term, ends: [&str; 2]) -> Term {
    Term::pred(
        "range_call",
        vec![
            Term::pred(rel, vec![x, v.clone()]),
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

/// Does the goal make a range-bounded call?
fn is_range_goal(goal: &Term) -> bool {
    match goal {
        Term::Compound(f, args) => f.as_str() == "range_call" || args.iter().any(is_range_goal),
        _ => false,
    }
}

fn arb_goal() -> impl Strategy<Value = Term> {
    let atom = (0usize..ATOMS.len())
        .prop_map(|i| Term::atom(ATOMS[i]))
        .boxed();
    let bound = prop_oneof![
        Just(Term::atom("minf")),
        Just(Term::atom("inf")),
        (0i64..9).prop_map(Term::int),
        (0i64..9).prop_map(|n| Term::float(n as f64 + 0.5)),
    ]
    .boxed();
    let end = prop_oneof![Just("open"), Just("closed")].boxed();
    let rel = prop_oneof![Just("v"), Just("w")].boxed();
    prop_oneof![
        Just(Term::pred("r", vec![Term::var(0)])),
        Just(Term::pred("s", vec![Term::var(0), Term::var(1)])),
        Just(Term::pred("u", vec![Term::var(0)])),
        atom.clone()
            .prop_map(|a| Term::pred("t", vec![a, Term::var(0)])),
        atom.clone()
            .prop_map(|a| Term::not(Term::pred("r", vec![a]))),
        // Non-ground `not` is now a reported error, so reachability under
        // negation is exercised ground (`not(t(a,b))`) and the existential
        // reading through `absent(t(a,X))`.
        (atom.clone(), atom.clone()).prop_map(|(a, b)| Term::not(Term::pred("t", vec![a, b]))),
        atom.clone()
            .prop_map(|a| Term::absent(Term::pred("t", vec![a, Term::var(0)]))),
        (atom.clone(), atom).prop_map(|(a, b)| Term::and(
            Term::pred("t", vec![a, Term::var(0)]),
            Term::not(Term::pred("e", vec![Term::var(0), b])),
        )),
        // Range-bounded calls as bound pushdown emits them: open and
        // closed ends, unbounded sides...
        (rel.clone(), bound.clone(), bound, end.clone(), end).prop_map(|(rel, lo, hi, le, he)| {
            range_goal(rel, Term::var(0), Term::var(1), lo, hi, [le, he])
        }),
        // ...and the point interval of an `=:=` self-join, the shape that
        // replays one completed answer set once per outer binding:
        // v(X, V1), number(V1), range_call(Rel(Y, V2), [rc(V2, iv(V1+K,
        // V1+K, closed, closed))]), number(V2), V2 =:= V1 + K.
        (rel, 0i64..3).prop_map(|(rel, k)| {
            let (x, v1, y, v2) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
            let shift = Term::pred("+", vec![v1.clone(), Term::int(k)]);
            Term::conj(vec![
                Term::pred("v", vec![x, v1.clone()]),
                Term::pred("number", vec![v1]),
                range_goal(
                    rel,
                    y,
                    v2.clone(),
                    shift.clone(),
                    shift.clone(),
                    ["closed"; 2],
                ),
                Term::pred("number", vec![v2.clone()]),
                Term::pred("=:=", vec![v2, shift]),
            ])
        }),
    ]
}

/// Render a solution sequence in order.
fn solution_sequence(solver: &Solver<'_>, goal: &Term) -> Vec<String> {
    solver
        .solve_all(goal.clone())
        .expect("solve within budget")
        .iter()
        .map(|sol| {
            sol.bindings()
                .iter()
                .map(|(v, t)| format!("{v:?}={t}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Render a solution set order-insensitively.
fn solution_fingerprint(solver: &Solver<'_>, goal: &Term) -> Vec<String> {
    let mut rendered: Vec<String> = solver
        .solve_all(goal.clone())
        .expect("solve within budget")
        .iter()
        .map(|sol| {
            sol.bindings()
                .iter()
                .map(|(v, t)| format!("{v:?}={t}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rendered.sort();
    rendered
}

proptest! {
    /// For random fact sets and goals, tabling changes no observable
    /// outcome: same solution multiset, same provability, same count.
    #[test]
    fn tabled_equals_untabled(
        unary in prop::collection::vec((0u8..2, 0u8..5), 0..12),
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..10),
        readings in prop::collection::vec((0u8..5, 0u8..4, 0u8..9), 0..16),
        goals in prop::collection::vec(arb_goal(), 1..5),
    ) {
        let plain_kb = build_kb(&unary, &edges, &readings, false);
        let tabled_kb = build_kb(&unary, &edges, &readings, true);
        // Indexing off: the unpruned oracle for the narrowed replay.
        let mut unindexed_kb = build_kb(&unary, &edges, &readings, true);
        unindexed_kb.set_indexing(false);
        for goal in &goals {
            // Fresh solvers per goal: the budget is shared across all
            // queries of one solver instance.
            let plain = Solver::new(&plain_kb, Budget::default());
            let tabled = Solver::new(&tabled_kb, Budget::default());
            prop_assert_eq!(
                solution_fingerprint(&plain, goal),
                solution_fingerprint(&tabled, goal),
                "solution sets diverge on {}", goal
            );
            // Replay path: the second evaluation is served from the table.
            prop_assert_eq!(
                solution_fingerprint(&plain, goal),
                solution_fingerprint(&tabled, goal),
                "replayed solution sets diverge on {}", goal
            );
            prop_assert_eq!(
                plain.prove(goal.clone()).unwrap(),
                tabled.prove(goal.clone()).unwrap()
            );
            prop_assert_eq!(
                plain.count(goal.clone()).unwrap(),
                tabled.count(goal.clone()).unwrap()
            );
            if is_range_goal(goal) {
                // Tabled (a completed set now, so a replay) against
                // untabled, and indexed against unindexed, in order.
                let ordered = solution_sequence(&plain, goal);
                prop_assert_eq!(
                    &ordered,
                    &solution_sequence(&tabled, goal),
                    "tabled solution order diverges on {}", goal
                );
                let unindexed = Solver::new(&unindexed_kb, Budget::default());
                prop_assert_eq!(
                    &ordered,
                    &solution_sequence(&unindexed, goal),
                    "unindexed solution order diverges on {}", goal
                );
            }
        }
    }
}

/// Mutating the knowledge base between queries bumps its epoch; stale
/// table entries must be invalidated, never replayed.
#[test]
fn epoch_invalidation_between_queries() {
    let mut kb = build_kb(&[(0, 0), (0, 1), (1, 0)], &[(0, 1)], &[], true);
    let goal = Term::pred("r", vec![Term::var(0)]);
    // r(X) ≡ p(X) ∧ q(X): only `a` qualifies initially.
    assert_eq!(
        Solver::new(&kb, Budget::default())
            .solve_all(goal.clone())
            .unwrap()
            .len(),
        1
    );
    let epoch_before = kb.epoch();
    kb.assert_fact(Term::pred("q", vec![Term::atom("b")]));
    assert!(kb.epoch() > epoch_before, "assert must bump the epoch");
    let asserted = Solver::new(&kb, Budget::default());
    assert_eq!(
        asserted.solve_all(goal.clone()).unwrap().len(),
        2,
        "stale table entry served after assert"
    );
    let asserted = asserted.stats();
    kb.retract_fact(&Term::pred("q", vec![Term::atom("a")]));
    let retracted = Solver::new(&kb, Budget::default());
    assert_eq!(
        retracted.solve_all(goal).unwrap().len(),
        1,
        "stale table entry served after retract"
    );
    assert!(asserted.table_invalidations + retracted.stats().table_invalidations >= 1);
}

/// Tabling marks survive the whole stack: a `Specification` with tabling
/// enabled must answer exactly as one without, and expose the solver's
/// execution counters after each query.
#[test]
fn specification_level_equivalence() {
    use gdp::core::{FactPat, Pat, Specification};

    let build = |tabling: bool| -> Specification {
        let (mut spec, _reg) = gdp::standard_spec().expect("standard spec");
        spec.enable_tabling(tabling);
        spec.assert_fact(FactPat::new("road").arg("r1")).unwrap();
        spec.assert_fact(FactPat::new("road").arg("r2")).unwrap();
        spec
    };
    let plain = build(false);
    let tabled = build(true);
    let pat = || FactPat::new("road").arg(Pat::var("X"));
    assert_eq!(plain.query(pat()).unwrap(), tabled.query(pat()).unwrap());
    // Second query replays; answers must not change.
    assert_eq!(plain.query(pat()).unwrap(), tabled.query(pat()).unwrap());
    assert!(tabled.tabling_enabled());
    assert!(!plain.tabling_enabled());
    assert!(plain.solver_stats().steps > 0);
}
