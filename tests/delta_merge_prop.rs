//! Property: merging the committed deltas of a transaction stream and
//! replaying the merge onto a fresh base is equivalent to applying the
//! commits directly — *including* when rolled-back transactions land
//! between two commits that later get merged.
//!
//! Three knowledge bases run in lockstep per seed:
//!
//! * **live** — executes every transaction, commits some, rolls the rest
//!   back (the interactive-session view);
//! * **direct** — applies each committed delta's ops the moment the
//!   commit lands (the follower view);
//! * **replayed** — applies the single *merged* delta at the very end
//!   (the catch-up view).
//!
//! `replayed` must be [`content_eq`] to `direct` (both are pure op
//! streams, so even generation counters agree), and must match `live`
//! on everything rollbacks don't deliberately perturb: clause content,
//! solution streams, and index integrity. Generations/epoch are *meant*
//! to differ on `live` after a rollback (tables built inside the undone
//! window must not resurrect), so those are excluded from the live leg.
//!
//! [`content_eq`]: gdp::engine::KnowledgeBase::content_eq

use gdp::engine::{Budget, Delta, GroupId, KnowledgeBase, PredKey, Solver, Term};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PREDS: [&str; 3] = ["road", "bridge", "sensor"];

fn fact(pred: &str, i: u64) -> Term {
    Term::pred(
        pred,
        vec![Term::atom(&format!("x{i}")), Term::int(i as i64)],
    )
}

fn base_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for (i, pred) in PREDS.iter().enumerate() {
        kb.assert_fact(fact(pred, i as u64));
    }
    kb
}

/// One random mutation against `kb`.
fn random_op(kb: &mut KnowledgeBase, rng: &mut Lcg, txn: u64) {
    let pred = PREDS[rng.below(3) as usize];
    match rng.below(12) {
        0..=6 => {
            let group = if rng.below(2) == 0 {
                GroupId::root()
            } else {
                GroupId::named(&format!("g{}", rng.below(3)))
            };
            kb.assert_clause_in(
                group,
                fact(pred, txn * 100 + rng.below(40)),
                Term::atom("true"),
            );
        }
        7..=8 => {
            kb.retract_fact(&fact(pred, rng.below(txn.max(1) * 100)));
        }
        9..=10 => {
            kb.retract_group(GroupId::named(&format!("g{}", rng.below(3))));
        }
        _ => {
            kb.retract_predicate(PredKey::new(pred, 2));
        }
    }
}

/// Every solution of `pred(X, N)` for every pred, rendered — the
/// observable stream (order included) the equivalence is judged on.
fn all_answers(kb: &KnowledgeBase) -> Vec<String> {
    let mut out = Vec::new();
    for pred in PREDS {
        let goal = Term::pred(pred, vec![Term::var(0), Term::var(1)]);
        let solutions = Solver::new(kb, Budget::new(1_000_000, 128))
            .solve_all(goal)
            .expect("solve");
        out.extend(solutions.iter().map(|s| format!("{s:?}")));
    }
    out
}

/// Same clause store, judged without generation counters: predicate set,
/// clause order, heads, bodies, and groups.
fn same_clauses(a: &KnowledgeBase, b: &KnowledgeBase) -> bool {
    let mut left: Vec<String> = Vec::new();
    let mut right: Vec<String> = Vec::new();
    for (kb, out) in [(a, &mut left), (b, &mut right)] {
        for pred in PREDS {
            let key = PredKey::new(pred, 2);
            for clause in kb.clauses_of(key) {
                out.push(format!(
                    "{pred} {:?} {:?} {:?}",
                    clause.head, clause.body, clause.group
                ));
            }
        }
    }
    left == right
}

#[test]
fn merged_replay_equals_direct_apply_across_rollbacks() {
    for seed in 0..64u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mut live = base_kb();
        let mut direct = base_kb();
        let mut merged = Delta::new();
        let mut commits = 0usize;
        let mut rollbacks = 0usize;

        for txn in 1..=10u64 {
            live.begin_delta();
            for _ in 0..1 + rng.below(4) {
                random_op(&mut live, &mut rng, txn);
            }
            if rng.below(3) == 0 {
                // This transaction lands *between* two merged commits and
                // must leave no trace in the merged delta.
                live.rollback();
                rollbacks += 1;
            } else {
                let delta = live.end_delta().expect("recording");
                for op in delta.ops() {
                    direct.apply_op(op.clone());
                }
                merged.merge(delta);
                commits += 1;
            }
        }
        assert!(
            commits > 0 && rollbacks > 0 || seed > 4,
            "seed {seed} degenerate"
        );

        let mut replayed = base_kb();
        for op in merged.ops() {
            replayed.apply_op(op.clone());
        }

        // The follower and the catch-up reader agree *exactly* — same
        // clauses, same generations, same epoch.
        assert!(
            replayed.content_eq(&direct),
            "seed {seed}: replay(merge) != direct apply"
        );
        // Both agree with the live session on everything observable
        // through queries; only rollback-bumped generations may differ.
        assert!(
            same_clauses(&replayed, &live),
            "seed {seed}: replayed clause store diverged from live"
        );
        assert_eq!(
            all_answers(&replayed),
            all_answers(&live),
            "seed {seed}: answers diverged"
        );
        replayed
            .check_index_integrity()
            .unwrap_or_else(|e| panic!("seed {seed}: index integrity: {e}"));
        live.check_index_integrity()
            .unwrap_or_else(|e| panic!("seed {seed}: live index integrity: {e}"));
    }
}

/// The exact scenario from the issue, pinned as a deterministic case: a
/// rollback lands between two commits whose deltas are merged, and the
/// merged replay reproduces the committed state only.
#[test]
fn rollback_between_two_merged_commits_leaves_no_trace() {
    let mut live = base_kb();
    let mut merged = Delta::new();

    live.begin_delta();
    live.assert_fact(fact("road", 10));
    merged.merge(live.end_delta().expect("recording"));

    // The doomed middle transaction: asserts, retracts a *pre-existing*
    // fact, wipes a group — then unwinds completely.
    live.begin_delta();
    live.assert_clause_in(
        GroupId::named("tmp"),
        fact("bridge", 11),
        Term::atom("true"),
    );
    live.retract_fact(&fact("road", 10));
    live.retract_group(GroupId::named("tmp"));
    let undone = live.rollback();
    assert!(undone >= 3, "rollback undid {undone} ops");

    live.begin_delta();
    live.assert_fact(fact("sensor", 12));
    merged.merge(live.end_delta().expect("recording"));

    let mut replayed = base_kb();
    for op in merged.ops() {
        replayed.apply_op(op.clone());
    }
    assert!(same_clauses(&replayed, &live));
    assert_eq!(all_answers(&replayed), all_answers(&live));
    // bridge(x11, 11) must not exist anywhere.
    assert!(!all_answers(&replayed).iter().any(|s| s.contains("x11")));
}
