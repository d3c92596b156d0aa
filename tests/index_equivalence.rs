//! Range/hash indexing must be observationally invisible: with indexing
//! forced off (`KnowledgeBase::set_indexing(false)`, the in-process
//! equivalent of `GDP_INDEX=off`) every audit and every query answer set
//! is byte-identical — same violations, same answers, same order — to the
//! indexed run, tabling off and on, at 1 and 4 workers. Retract and
//! rollback must leave the position-exact range indexes consistent with
//! the clause store (`check_index_integrity`), with no full rebuild.
//! Commits made while snapshots are pinned — which append to a private
//! tail behind the shared base instead of copying the predicate — must be
//! just as invisible: a store that holds pins agrees with one that never
//! does on answers, content, fingerprint and checkpoint bytes.

use proptest::prelude::*;

use gdp::core::{CmpOp, Constraint, FactPat, Formula, Pat, SpecError, SpecStore, Specification};
use gdp::engine::{CheckpointImage, Term};

mod common;

const MODELS: [&str; 3] = ["m0", "m1", "m2"];
const CELLS: [&str; 4] = ["c0", "c1", "c2", "c3"];

/// Same world as the incremental-equivalence suite: the per-model `gap`
/// constraint carries a `V1 < V2` comparison the bound-pushdown planner
/// turns into a `range_call`, so the indexed run actually consults the
/// h/5 interval index over attribute values.
fn base_spec(indexed: bool) -> Specification {
    let mut spec = Specification::new();
    spec.set_incremental(true);
    spec.kb_mut().set_indexing(indexed);
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

/// One random mutation, applied identically to both specs. Float and
/// integer readings mix so the interval index sees both numeric towers;
/// retracts may target absent facts.
fn apply_op(spec: &mut Specification, kind: u8, a: u8, b: u8) {
    let model = MODELS[a as usize % MODELS.len()];
    let cell = CELLS[a as usize % CELLS.len()];
    let value = if b % 2 == 0 {
        Pat::Int(i64::from(b))
    } else {
        Pat::Float(f64::from(b) / 2.0)
    };
    let reading = FactPat::new("reading")
        .arg(Pat::Atom(format!("o{}", a % 4)))
        .arg(value)
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

/// The full observable state, order included: parallel audit, sequential
/// audit, and every answer of every relation the constraints consult.
fn fingerprint(spec: &Specification, workers: usize) -> Vec<String> {
    let audit = spec.audit_world_views(workers).expect("parallel audit");
    let mut out: Vec<String> = audit.violations.iter().map(|v| v.to_string()).collect();
    for (model, count) in &audit.per_model {
        out.push(format!("per_model {model} {count}"));
    }
    for v in common::sequential_violations(spec) {
        out.push(format!("seq {v}"));
    }
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
    /// Twin specs — one indexed, one with indexing forced off — fed the
    /// same random transaction stream stay byte-identical after every
    /// commit, tabling off and on, at 1 and 4 workers; the indexed twin's
    /// range indexes stay position-exact throughout.
    #[test]
    fn indexed_equals_unindexed(
        ops in prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 1..20),
        workers in prop_oneof![Just(1usize), Just(4usize)],
        tabled in any::<bool>(),
    ) {
        let mut indexed = base_spec(true);
        let mut plain = base_spec(false);
        indexed.enable_tabling(tabled);
        plain.enable_tabling(tabled);
        for (round, chunk) in ops.chunks(4).enumerate() {
            for spec in [&mut indexed, &mut plain] {
                spec.begin_txn().expect("no open transaction");
                for &(kind, a, b) in chunk {
                    apply_op(spec, kind, a, b);
                }
                spec.commit_txn().expect("open transaction");
            }
            indexed.kb().check_index_integrity()
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                fingerprint(&indexed, workers),
                fingerprint(&plain, workers),
                "indexed and unindexed state diverge in round {} (tabled={})",
                round, tabled
            );
        }
    }

    /// Retract and rollback are position-exact: rolling back a doomed
    /// transaction on the indexed spec restores the exact observable
    /// state of an unindexed twin that never saw it, and the range
    /// indexes pass the integrity audit — maintained from delta
    /// inverses, never rebuilt.
    #[test]
    fn retract_and_rollback_keep_indexes_exact(
        prefix in prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 0..8),
        doomed in prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 1..8),
        workers in prop_oneof![Just(1usize), Just(4usize)],
        tabled in any::<bool>(),
    ) {
        let mut indexed = base_spec(true);
        let mut plain = base_spec(false);
        indexed.enable_tabling(tabled);
        plain.enable_tabling(tabled);
        for &(kind, a, b) in &prefix {
            apply_op(&mut indexed, kind, a, b);
            apply_op(&mut plain, kind, a, b);
        }
        indexed.kb().check_index_integrity().map_err(TestCaseError::fail)?;
        let before = fingerprint(&indexed, workers);
        indexed.begin_txn().expect("no open transaction");
        for &(kind, a, b) in &doomed {
            apply_op(&mut indexed, kind, a, b);
        }
        indexed.rollback_txn().expect("open transaction");
        indexed.kb().check_index_integrity().map_err(TestCaseError::fail)?;
        prop_assert_eq!(&fingerprint(&indexed, workers), &before,
            "rollback not exact on the indexed spec (tabled={})", tabled);
        prop_assert_eq!(&fingerprint(&plain, workers), &before,
            "indexed and unindexed twins diverge after rollback (tabled={})", tabled);
    }

    /// Commits under held pins are unobservable. Pins taken at random
    /// commits and held across the later ones make the pinned store's
    /// appends collect in tails and fold; its twin never pins. After
    /// every commit, rolled back or not, the two agree on answers and
    /// their order (indexed or not), content, and content fingerprint,
    /// and the pinned store's indexes pass the per-segment integrity
    /// audit; at the end their checkpoint images are byte-identical and
    /// every held pin still answers as it did when it was taken.
    #[test]
    fn pinned_commits_equal_unpinned(
        commits in prop::collection::vec(
            (
                prop::collection::vec((0u8..5, 0u8..12, 0u8..6), 1..5),
                any::<bool>(),
                any::<bool>(),
            ),
            1..10,
        ),
        indexed in any::<bool>(),
    ) {
        let pinned = SpecStore::new(seeded_spec(indexed));
        let twin = SpecStore::new(seeded_spec(indexed));
        let mut pins: Vec<(Specification, Vec<String>)> = Vec::new();
        for (round, (ops, doomed, pin)) in commits.iter().enumerate() {
            if *pin {
                let (_, snapshot) = pinned.snapshot();
                let seen = fingerprint(&snapshot, 1);
                pins.push((snapshot, seen));
            }
            for store in [&pinned, &twin] {
                let result = store.commit(|spec| {
                    for &(kind, a, b) in ops {
                        apply_op(spec, kind, a, b);
                    }
                    if *doomed {
                        Err(SpecError::Transaction("doomed".into()))
                    } else {
                        Ok(())
                    }
                });
                prop_assert_eq!(result.is_ok(), !doomed);
            }
            pinned.read(|spec| spec.kb().check_index_integrity())
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                pinned.read(|spec| fingerprint(spec, 1)),
                twin.read(|spec| fingerprint(spec, 1)),
                "pinned and unpinned answers diverge after commit {} (indexed={})",
                round, indexed
            );
            prop_assert_eq!(
                pinned.read(raw_facts),
                twin.read(raw_facts),
                "pinned and unpinned h/5 scans diverge after commit {} (indexed={})",
                round, indexed
            );
            prop_assert!(
                pinned.read(|p| twin.read(|t| p.kb().content_eq(t.kb()))),
                "pinned and unpinned content diverge after commit {}", round
            );
            prop_assert_eq!(
                pinned.read(|spec| gdp::engine::fingerprint(spec.kb()).expect("shallow terms")),
                twin.read(|spec| gdp::engine::fingerprint(spec.kb()).expect("shallow terms")),
                "pinned and unpinned fingerprints diverge after commit {}", round
            );
        }
        prop_assert_eq!(
            pinned.read(|spec| checkpoint_bytes(spec, "pinned")),
            twin.read(|spec| checkpoint_bytes(spec, "twin")),
            "pinned and unpinned checkpoint images differ"
        );
        for (snapshot, seen) in &pins {
            snapshot.kb().check_index_integrity().map_err(TestCaseError::fail)?;
            prop_assert_eq!(&fingerprint(snapshot, 1), seen, "a held pin changed");
        }
    }
}

/// The index-suite world plus 320 `landmark` facts in `h/5`, so that
/// commits made under a pin collect in a tail for a few commits before
/// the tail passes 1/64 of its base and folds.
fn seeded_spec(indexed: bool) -> Specification {
    let mut spec = base_spec(indexed);
    for i in 0..320 {
        spec.assert_fact(FactPat::new("landmark").arg(format!("l{i}").as_str()))
            .expect("ground fact");
    }
    spec
}

/// Every stored `h/5` clause in solution order, through the scan path
/// (every argument unbound) and the hash-only path (the predicate
/// bound). The [`fingerprint`] queries bind the qualifiers, which the
/// range indexes key on, so they take neither path.
fn raw_facts(spec: &Specification) -> Vec<String> {
    let mut out = Vec::new();
    for pred in [None, Some("reading"), Some("wet")] {
        let mut args: Vec<Term> = (0..5).map(Term::var).collect();
        if let Some(p) = pred {
            args[3] = Term::atom(p);
        }
        for solution in spec.solve_goal(Term::pred("h", args)).expect("raw goal") {
            let terms: Vec<String> = solution
                .bindings()
                .iter()
                .map(|(_, t)| t.to_string())
                .collect();
            out.push(format!("{pred:?} {}", terms.join(" ")));
        }
    }
    out
}

/// The bytes of a checkpoint image of `spec`'s knowledge base.
fn checkpoint_bytes(spec: &Specification, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "gdp-index-equivalence-{tag}-{}.ckpt",
        std::process::id()
    ));
    CheckpointImage::capture(spec.kb(), 0, 0)
        .write(&path, None)
        .expect("write checkpoint image");
    let bytes = std::fs::read(&path).expect("read checkpoint image");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Deterministic end-to-end: the corpus spec `missouri.gdp` — temporal
/// and spatial packs installed, so the tat/value interval indexes and the
/// patch grid index are all live — audits and answers identically with
/// indexing on and off.
#[test]
fn corpus_spec_indexed_matches_unindexed() {
    let dir = ["specs", "../../specs"]
        .into_iter()
        .map(std::path::PathBuf::from)
        .find(|p| p.is_dir())
        .expect("specs/ directory not found");
    let source = std::fs::read_to_string(dir.join("missouri.gdp")).expect("read spec");
    let mut states = Vec::new();
    for indexed in [true, false] {
        let (mut spec, reg) = gdp::standard_spec().expect("standard spec");
        spec.kb_mut().set_indexing(indexed);
        gdp::lang::Loader::with_spatial(&mut spec, &reg)
            .load_str(&source)
            .expect("missouri.gdp loads");
        if indexed {
            spec.kb().check_index_integrity().expect("indexes exact");
        }
        states.push(fingerprint_corpus(&spec));
    }
    assert_eq!(states[0], states[1], "corpus audit diverges under indexing");
}

fn fingerprint_corpus(spec: &Specification) -> Vec<String> {
    let mut out: Vec<String> = common::sequential_violations(spec)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let audit = spec.audit_world_views(2).expect("parallel audit");
    for v in &audit.violations {
        out.push(format!("par {v}"));
    }
    out
}
