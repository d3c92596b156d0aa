//! The incremental update engine must be observationally invisible:
//! `audit_incremental` over any committed (and merged) delta stream is
//! byte-identical to a full `audit_world_views` re-audit — tabling off and
//! on, at several worker counts — rollback restores the exact pre-
//! transaction audit and answer sets, and mutation inverses (assert then
//! retract, group assert then group retract) are perfect round-trips. The
//! same holds one layer up, for `:audit -i` in protocol sessions sharing
//! one server.

use std::sync::Arc;

use proptest::prelude::*;

use gdp::core::{CmpOp, Constraint, FactPat, Formula, Pat, RawClause, Specification};
use gdp::engine::{CyclePolicy, Delta, Term};
use gdp::server::{ServeOptions, ServerState, Session};

mod common;

const MODELS: [&str; 3] = ["m0", "m1", "m2"];
const CELLS: [&str; 4] = ["c0", "c1", "c2", "c3"];

/// Three survey models plus omega in the world view; an omega
/// contradiction constraint (`wet` ∧ `dry`) and a per-model ordered-pair
/// constraint over integer readings, so violations can appear and
/// disappear in any member as facts stream in and out.
fn base_spec() -> Specification {
    let mut spec = Specification::new();
    spec.set_incremental(true);
    for m in MODELS {
        spec.declare_model(m);
        spec.constrain(
            Constraint::new("gap")
                .model(m)
                .witness(Pat::var("X"))
                .witness(Pat::var("Y"))
                .when(Formula::all(vec![
                    Formula::fact(
                        FactPat::new("reading")
                            .arg(Pat::var("X"))
                            .arg(Pat::var("V1"))
                            .model(m),
                    ),
                    Formula::fact(
                        FactPat::new("reading")
                            .arg(Pat::var("Y"))
                            .arg(Pat::var("V2"))
                            .model(m),
                    ),
                    Formula::Cmp(CmpOp::Lt, Pat::var("V1"), Pat::var("V2")),
                ])),
        )
        .expect("safe constraint");
    }
    spec.constrain(
        Constraint::new("contradiction")
            .witness(Pat::var("C"))
            .when(Formula::and(
                Formula::fact(FactPat::new("wet").arg(Pat::var("C"))),
                Formula::fact(FactPat::new("dry").arg(Pat::var("C"))),
            )),
    )
    .expect("safe constraint");
    spec.set_world_view(&["omega", "m0", "m1", "m2"])
        .expect("declared models");
    spec
}

/// One random mutation. `kind` selects the shape; retracts may target
/// absent facts (a no-op retract must also be equivalence-preserving).
fn apply_op(spec: &mut Specification, kind: u8, a: u8, b: u8) {
    let model = MODELS[a as usize % MODELS.len()];
    let cell = CELLS[a as usize % CELLS.len()];
    let reading = FactPat::new("reading")
        .arg(Pat::Atom(format!("o{}", a % 4)))
        .arg(Pat::Int(i64::from(b)))
        .model(model);
    match kind % 5 {
        0 => {
            spec.assert_fact(reading).expect("ground fact");
        }
        1 => {
            spec.assert_fact(FactPat::new("wet").arg(cell))
                .expect("ground fact");
        }
        2 => {
            spec.assert_fact(FactPat::new("dry").arg(cell))
                .expect("ground fact");
        }
        3 => {
            spec.retract_fact(reading).expect("pattern is ground");
        }
        _ => {
            spec.retract_fact(FactPat::new("wet").arg(cell))
                .expect("pattern is ground");
        }
    }
}

/// Render the observable state: the sequential audit plus the full answer
/// sets of every relation the constraints consult.
fn fingerprint(spec: &Specification) -> Vec<String> {
    let mut out: Vec<String> = common::sequential_violations(spec)
        .iter()
        .map(|v| v.to_string())
        .collect();
    for m in MODELS {
        for answer in spec
            .query(
                FactPat::new("reading")
                    .arg(Pat::var("X"))
                    .arg(Pat::var("V"))
                    .model(m),
            )
            .expect("query")
        {
            out.push(format!(
                "{m}:reading {} {}",
                answer.get("X").expect("bound"),
                answer.get("V").expect("bound")
            ));
        }
    }
    for p in ["wet", "dry"] {
        for answer in spec
            .query(FactPat::new(p).arg(Pat::var("X")))
            .expect("query")
        {
            out.push(format!("{p} {}", answer.get("X").expect("bound")));
        }
    }
    out
}

proptest! {
    /// For random transaction streams — commits sometimes accumulated and
    /// merged before auditing — the incremental audit over the pending
    /// delta equals the full re-audit and the sequential checker, tabling
    /// off and on, at 1 and 4 workers.
    #[test]
    fn incremental_audit_equals_full_reaudit(
        ops in prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 1..20),
        workers in prop_oneof![Just(1usize), Just(4usize)],
        tabled in any::<bool>(),
    ) {
        let mut spec = base_spec();
        spec.enable_tabling(tabled);
        // Seed the member cache.
        spec.audit_world_views(workers).expect("seed audit");
        let mut pending = Delta::new();
        let rounds = ops.chunks(4).count();
        for (round, chunk) in ops.chunks(4).enumerate() {
            spec.begin_txn().expect("no open transaction");
            for &(kind, a, b) in chunk {
                apply_op(&mut spec, kind, a, b);
            }
            pending.merge(spec.commit_txn().expect("open transaction"));
            // Audit every other commit: odd rounds exercise merged
            // multi-commit deltas.
            if round % 2 == 0 && round + 1 != rounds {
                continue;
            }
            let incremental = spec
                .audit_incremental(&pending, workers)
                .expect("incremental audit");
            let full = spec.audit_world_views(workers).expect("full audit");
            prop_assert_eq!(&incremental.violations, &full.violations,
                "violations diverge in round {} (tabled={})", round, tabled);
            prop_assert_eq!(&incremental.per_model, &full.per_model,
                "per-model counts diverge in round {}", round);
            let sequential = common::sequential_violations(&spec);
            prop_assert_eq!(&incremental.violations, &sequential,
                "sequential divergence in round {}", round);
            pending = Delta::new();
        }
    }

    /// Rolling a transaction back restores the exact prior observable
    /// state: same audit, same answer sets, tabling off and on.
    #[test]
    fn rollback_restores_prior_state(
        prefix in prop::collection::vec((0u8..3, 0u8..12, 0u8..6), 0..8),
        doomed in prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 1..8),
        tabled in any::<bool>(),
    ) {
        let mut spec = base_spec();
        spec.enable_tabling(tabled);
        for &(kind, a, b) in &prefix {
            apply_op(&mut spec, kind, a, b);
        }
        let before = fingerprint(&spec);
        spec.begin_txn().expect("no open transaction");
        for &(kind, a, b) in &doomed {
            apply_op(&mut spec, kind, a, b);
        }
        let undone = spec.rollback_txn().expect("open transaction");
        prop_assert!(undone <= doomed.len() * 2,
            "rollback undid {} ops for {} mutations", undone, doomed.len());
        prop_assert_eq!(fingerprint(&spec), before, "rollback not exact (tabled={})", tabled);
    }

    /// Mutation inverses are perfect round-trips: asserting fresh facts
    /// and then retracting them restores the exact prior audit result and
    /// answer sets, with and without the answer table.
    #[test]
    fn assert_then_retract_is_identity(
        facts in prop::collection::vec((0u8..3, 0u8..12, 0u8..6), 1..8),
        tabled in any::<bool>(),
    ) {
        let mut spec = base_spec();
        spec.enable_tabling(tabled);
        // A base population so the round-trip crosses existing answers.
        for (i, m) in MODELS.iter().enumerate() {
            spec.assert_fact(
                FactPat::new("reading")
                    .arg(Pat::Atom(format!("base{i}")))
                    .arg(Pat::Int(i as i64))
                    .model(*m),
            )
            .expect("ground fact");
        }
        let before = fingerprint(&spec);
        // Fresh names (`z<i>`) guarantee the retract removes exactly what
        // the assert added.
        let mut added = Vec::new();
        for (i, &(kind, a, b)) in facts.iter().enumerate() {
            let pat = match kind % 3 {
                0 => FactPat::new("reading")
                    .arg(Pat::Atom(format!("z{i}")))
                    .arg(Pat::Int(i64::from(b)))
                    .model(MODELS[a as usize % MODELS.len()]),
                1 => FactPat::new("wet").arg(Pat::Atom(format!("z{i}"))),
                _ => FactPat::new("dry").arg(Pat::Atom(format!("z{i}"))),
            };
            spec.assert_fact(pat.clone()).expect("ground fact");
            added.push(pat);
        }
        for pat in added {
            prop_assert!(spec.retract_fact(pat).expect("ground pattern"),
                "a freshly asserted fact must be retractable");
        }
        prop_assert_eq!(fingerprint(&spec), before, "round-trip not exact (tabled={})", tabled);
    }

    /// Group round-trip: raw clauses asserted under a scratch group and
    /// then retracted as a group restore the exact prior state.
    #[test]
    fn group_retract_is_identity(
        n in 1usize..6,
        tabled in any::<bool>(),
    ) {
        let mut spec = base_spec();
        spec.enable_tabling(tabled);
        spec.assert_fact(FactPat::new("wet").arg("c0")).expect("ground fact");
        let before = fingerprint(&spec);
        for i in 0..n {
            spec.try_assert_raw(
                "scratch",
                RawClause::fact(Term::pred("aux", vec![Term::atom(&format!("g{i}"))])),
            )
            .expect("callable head");
        }
        let removed = spec.retract_raw_group("scratch");
        prop_assert_eq!(removed, n, "group retract must remove what was asserted");
        prop_assert_eq!(fingerprint(&spec), before, "group round-trip not exact (tabled={})", tabled);
    }
}

/// Deterministic end-to-end: the corpus spec `missouri.gdp` audited
/// incrementally after a targeted transaction matches its full re-audit.
#[test]
fn corpus_spec_incremental_audit_matches_full() {
    let dir = ["specs", "../../specs"]
        .into_iter()
        .map(std::path::PathBuf::from)
        .find(|p| p.is_dir())
        .expect("specs/ directory not found");
    let source = std::fs::read_to_string(dir.join("missouri.gdp")).expect("read spec");
    let (mut spec, reg) = gdp::standard_spec().expect("standard spec");
    gdp::lang::Loader::with_spatial(&mut spec, &reg)
        .load_str(&source)
        .expect("missouri.gdp loads");
    spec.set_incremental(true);
    spec.audit_world_views(2).expect("seed audit");
    spec.begin_txn().expect("no open transaction");
    spec.assert_fact(FactPat::new("capital_of").arg("rolla").arg("missouri"))
        .expect("ground fact");
    let delta = spec.commit_txn().expect("open transaction");
    assert!(!delta.is_empty());
    let incremental = spec.audit_incremental(&delta, 2).expect("incremental");
    let full = spec.audit_world_views(2).expect("full");
    assert_eq!(incremental.violations, full.violations);
    assert_eq!(incremental.per_model, full.per_model);
    assert_eq!(incremental.violations, common::sequential_violations(&spec));
}

/// A cycle-policy switch changes what a recursive member derives without
/// touching a clause, so the member cache must not survive it.
#[test]
fn cycle_policy_switch_invalidates_the_member_cache() {
    let mut spec = Specification::new();
    spec.set_incremental(true);
    spec.enable_tabling(true);
    spec.set_table_all(true);
    gdp::lang::load(
        &mut spec,
        "site(a). loop(X) :- site(X), loop(X). constraint bad(X) :- loop(X).",
    )
    .expect("probe loads");
    let inductive = spec.audit_world_views(1).expect("inductive audit");
    assert!(
        inductive.violations.is_empty(),
        "{:?}",
        inductive.violations
    );
    spec.set_cycle_policy(CyclePolicy::Coinductive);
    let incremental = spec
        .audit_incremental(&Delta::new(), 1)
        .expect("incremental audit");
    let full = spec.audit_world_views(1).expect("full audit");
    let rendered: Vec<String> = full.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(rendered, ["omega'ERROR(bad, a)"]);
    assert_eq!(incremental.violations, full.violations);
    assert_eq!(incremental.violations, common::sequential_violations(&spec));
}

/// One protocol line through `session`; returns its response.
fn reply(session: &mut Session, line: &str) -> String {
    let mut out = Vec::new();
    let open = session.line(line, &mut out).expect("in-memory write");
    assert!(open, "{line} closed the session");
    String::from_utf8(out).expect("utf8")
}

/// The violation and degraded-member lines of an audit response.
fn findings(audit: &str) -> Vec<&str> {
    audit
        .lines()
        .filter(|l| l.contains("'ERROR(") || l.starts_with("incomplete:"))
        .collect()
}

/// The steps on an audit response's `merged:` line.
fn merged_steps(audit: &str) -> u64 {
    audit
        .lines()
        .find_map(|l| l.strip_prefix("merged: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no merged line in {audit}"))
}

/// The sequence number `session` is pinned at.
fn pinned(session: &mut Session) -> u64 {
    let seq = reply(session, ":seq");
    seq.strip_prefix("pinned at seq ")
        .and_then(|rest| rest.split(';').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected :seq reply {seq}"))
}

/// `:audit -i` on `auditor`, checked against a full `:audit` of a fresh
/// session pinned at the same commit; returns both responses.
fn audit_like_full(state: &Arc<ServerState>, auditor: &mut Session) -> (String, String) {
    let seq = pinned(auditor);
    let incremental = reply(auditor, ":audit -j 2 -i");
    let mut reference = Session::new(Arc::clone(state), &ServeOptions::default());
    let pin = reply(&mut reference, &format!(":snapshot {seq}"));
    assert!(pin.contains(&format!("seq {seq}")), "{pin}");
    let full = reply(&mut reference, ":audit -j 2");
    assert_eq!(
        findings(&incremental),
        findings(&full),
        "incremental audit at seq {seq} diverges:\n{incremental}\nfull:\n{full}"
    );
    (incremental, full)
}

/// ROADMAP item 7's acceptance: two sessions on one server interleave
/// commits while one of them runs `:audit -i` across forward re-pins, a
/// re-pin to an older commit, an `:index off` and a `:table coinductive`.
/// Every incremental report lists exactly the violations of a full
/// `:audit` at the same pin, tabling off and on; and after a commit to a
/// model that no constraint reads, the incremental audit re-solves less
/// than the full one.
#[test]
fn interleaved_sessions_audit_incrementally_like_a_full_audit() {
    for tabled in [false, true] {
        let state = ServerState::new().expect("server state");
        let opts = ServeOptions::default();
        let mut writer = Session::new(Arc::clone(&state), &opts);
        let mut auditor = Session::new(Arc::clone(&state), &opts);
        let mut world = String::from(
            "#model m0. #model m1. #model m2. #world_view { omega, m0, m1, m2 }. \
             m0'reading(a, 1). m0'reading(b, 5). m1'reading(c, 2). m1'site(s1). \
             constraint gap(X, Y) :- m0'reading(X, V1), m0'reading(Y, V2), V1 < V2. \
             constraint high(X) :- m1'reading(X, V), V > 3.",
        );
        if tabled {
            // Recursive only through itself: no violation under the
            // inductive policy, one under the coinductive one.
            world.push_str(
                " omega'loop(X) :- m1'site(X), omega'loop(X). \
                 constraint bad(X) :- omega'loop(X).",
            );
            reply(&mut writer, ":table all");
        }
        assert!(reply(&mut writer, &world).contains("committed as seq 1"));

        reply(&mut auditor, ":snapshot");
        audit_like_full(&state, &mut auditor);
        reply(&mut writer, "m0'reading(d, 9).");
        reply(&mut writer, "m2'reading(z, 1).");
        reply(&mut auditor, ":snapshot");
        audit_like_full(&state, &mut auditor);

        // A commit to m2, which no constraint reads: only m2 is re-solved.
        reply(&mut writer, "m2'reading(y, 2).");
        reply(&mut auditor, ":snapshot");
        let (incremental, full) = audit_like_full(&state, &mut auditor);
        assert!(
            merged_steps(&incremental) < merged_steps(&full),
            "tabled={tabled}: incremental\n{incremental}\nfull\n{full}"
        );

        // Back to an older commit, then forward again past commits by
        // both sessions.
        reply(&mut writer, "m1'reading(e, 7).");
        reply(&mut auditor, ":snapshot");
        let (incremental, _) = audit_like_full(&state, &mut auditor);
        assert!(
            incremental.contains("omega'ERROR(high, e)"),
            "{incremental}"
        );
        assert!(reply(&mut auditor, ":snapshot 2").contains("pinned at seq 2."));
        let (incremental, _) = audit_like_full(&state, &mut auditor);
        assert!(
            !incremental.contains("omega'ERROR(high, e)"),
            "{incremental}"
        );
        reply(&mut auditor, "m1'reading(f, 8).");
        reply(&mut writer, "#retract m0'reading(d, 9).");
        reply(&mut auditor, ":snapshot");
        audit_like_full(&state, &mut auditor);

        // Configuration changes through the other session.
        reply(&mut writer, ":index off");
        reply(&mut writer, "m0'reading(g, 0).");
        reply(&mut auditor, ":snapshot");
        audit_like_full(&state, &mut auditor);
        reply(&mut writer, ":table coinductive");
        reply(&mut auditor, ":snapshot");
        let (incremental, _) = audit_like_full(&state, &mut auditor);
        assert_eq!(
            incremental.contains("omega'ERROR(bad, s1)"),
            tabled,
            "{incremental}"
        );
        if tabled {
            // Tabling off changes what `loop` derives (untabled resolution
            // never closes its cycle) without a commit, so the coinductive
            // audit's member cache must not answer for it. A small budget
            // ends the divergent member quickly in both sessions; one
            // worker, because workers share the step budget across the
            // members they take, so with two the members that run out
            // would depend on scheduling.
            reply(&mut writer, ":table off");
            reply(&mut auditor, ":snapshot");
            reply(&mut auditor, ":budget 20000 256");
            let incremental = reply(&mut auditor, ":audit -j 1 -i");
            let mut reference = Session::new(Arc::clone(&state), &opts);
            reply(&mut reference, ":budget 20000 256");
            let full = reply(&mut reference, ":audit -j 1");
            assert!(
                !incremental.contains("omega'ERROR(bad, s1)"),
                "{incremental}"
            );
            assert_eq!(
                findings(&incremental),
                findings(&full),
                "after :table off:\n{incremental}\nfull:\n{full}"
            );
            reply(&mut writer, ":table all");
            reply(&mut auditor, ":snapshot");
            reply(&mut auditor, ":budget 10000000 256");
        }

        // A commit after the pin is invisible until the next re-pin.
        reply(&mut writer, "m1'reading(h, 9).");
        audit_like_full(&state, &mut auditor);
        reply(&mut auditor, ":snapshot");
        let (incremental, _) = audit_like_full(&state, &mut auditor);
        assert!(
            incremental.contains("omega'ERROR(high, h)"),
            "{incremental}"
        );
    }
}
