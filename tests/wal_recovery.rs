//! WAL recovery × crash-at-commit-boundary chaos.
//!
//! A writer applies a deterministic, seed-driven stream of transactions
//! to a live knowledge base, appending each committed delta to a
//! write-ahead log. The stream uses every public mutator, and so every
//! `DeltaOp` kind: assert, retract a fact, a group, a whole predicate. For every commit boundary K we simulate a crash —
//! the log holds exactly K records, possibly followed by a torn partial
//! record — and assert that replaying the log over a fresh base
//! reproduces the live KB *at that boundary* exactly: clause content and
//! order, index integrity, per-predicate generations, and epoch
//! (all folded into [`KnowledgeBase::content_eq`]).
//!
//! The seed comes from `GDP_CHAOS` (its leading integer), so the CI
//! chaos leg re-runs the suite under a seed matrix; unset, a fixed
//! default keeps the test deterministic. `GDP_TABLING=on|all` is honored
//! by running the same suite with tabling armed, which must not disturb
//! recovery equivalence.

use gdp::engine::wal::{replay, Wal, WalHeader, WalRecord};
use gdp::engine::{Budget, GroupId, KnowledgeBase, PredKey, Solver, Term};

/// Seed from `GDP_CHAOS` ("1234" or "kind:1234" forms both yield 1234).
fn chaos_seed() -> u64 {
    std::env::var("GDP_CHAOS")
        .ok()
        .and_then(|v| {
            v.split(':')
                .find_map(|part| part.trim().parse::<u64>().ok())
        })
        .unwrap_or(0x5EED)
}

/// Tabling requested via `GDP_TABLING` (the suite-wide ablation hook)?
fn tabling_on() -> bool {
    gdp::core::EnvConfig::read().tabling
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes constants; plenty for op-stream shuffling.
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

/// The deterministic base image both the live store and every recovery
/// start from. Recovery only works from an identical base — that is the
/// documented contract ("base image + log").
fn base_kb(tabling: bool) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.assert_fact(Term::pred("seed_fact", vec![Term::atom("s0")]));
    if tabling {
        kb.set_tabling(true);
        kb.set_table_all(true);
    }
    kb
}

fn fact(pred: &str, i: u64) -> Term {
    Term::pred(
        pred,
        vec![Term::atom(&format!("x{i}")), Term::int(i as i64)],
    )
}

const PREDS: [&str; 3] = ["road", "bridge", "sensor"];

/// Apply one seed-driven transaction to `kb` with recording active, and
/// return how many operations it performed.
fn run_txn(kb: &mut KnowledgeBase, rng: &mut Lcg, txn: u64) -> usize {
    let mut ops = 0;
    for _ in 0..1 + rng.below(4) {
        let pred = PREDS[rng.below(3) as usize];
        match rng.below(11) {
            // Mostly asserts, so the store grows and later retracts bite.
            0..=5 => {
                let group = if rng.below(2) == 0 {
                    GroupId::root()
                } else {
                    GroupId::named(&format!("g{}", rng.below(3)))
                };
                kb.assert_clause_in(
                    group,
                    fact(pred, txn * 100 + rng.below(50)),
                    Term::atom("true"),
                );
                ops += 1;
            }
            6..=7 => {
                // Retract a fact that may or may not exist — both paths
                // must round-trip through the log identically.
                kb.retract_fact(&fact(pred, rng.below(txn.max(1) * 100)));
                ops += 1;
            }
            8..=9 => {
                kb.retract_group(GroupId::named(&format!("g{}", rng.below(3))));
                ops += 1;
            }
            _ => {
                kb.retract_predicate(PredKey::new(pred, 2));
                ops += 1;
            }
        }
    }
    ops
}

/// Solve `pred(X, N)` for every pred, concatenated — the observable
/// answer stream used to double-check recovered stores behave alike.
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

#[test]
fn recovery_reproduces_every_commit_boundary() {
    let seed = chaos_seed();
    let tabling = tabling_on();
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "gdp-wal-recovery-{}-{seed}-{tabling}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    const COMMITS: u64 = 12;
    let mut live = base_kb(tabling);
    let mut wal = Wal::create(&path, hdr(), None).expect("create wal");
    let mut rng = Lcg(seed);
    // `boundaries[k]` is the live KB right after commit k (0 = base).
    let mut boundaries = vec![live.snapshot()];
    for txn in 1..=COMMITS {
        live.begin_delta();
        run_txn(&mut live, &mut rng, txn);
        let delta = live.end_delta().expect("recording");
        let seq = wal.append(&delta).expect("append");
        assert_eq!(seq, txn);
        if tabling {
            // Populate the answer table between commits: recovery must
            // not depend on (or corrupt) tabled state.
            let _ = all_answers(&live);
        }
        boundaries.push(live.snapshot());
    }
    drop(wal);
    let full = std::fs::read(&path).expect("read log");

    for (k, boundary) in boundaries.iter().enumerate() {
        // Crash with exactly k durable records: cut the file after the
        // k-th record, plus a torn tail from the start of record k+1
        // (when there is one) to exercise tail truncation.
        let cut = prefix_len(&full, k);
        for torn in [0usize, 1, 7] {
            let end = (cut + torn).min(full.len());
            std::fs::write(&path, &full[..end]).expect("write crash image");
            let (_wal, records) = recover(&path);
            assert_eq!(records.len(), k, "boundary {k}, torn {torn}");
            let mut recovered = base_kb(tabling);
            replay(&records, &mut recovered);
            assert!(
                recovered.content_eq(boundary),
                "recover(log) != live KB at boundary {k} (seed {seed}, torn {torn})"
            );
            recovered
                .check_index_integrity()
                .unwrap_or_else(|e| panic!("index integrity at boundary {k}: {e}"));
            assert_eq!(
                all_answers(&recovered),
                all_answers(boundary),
                "answers diverge at boundary {k}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The fresh-log header used throughout (fingerprint irrelevant here —
/// these tests replay over in-process KBs, not fingerprinted bases).
fn hdr() -> WalHeader {
    WalHeader::new(0x1986, 1)
}

/// Recover the log at `path` as a restart does: read its longest valid
/// prefix, then reopen it for appending, which truncates a torn tail.
fn recover(path: &std::path::Path) -> (Wal, Vec<WalRecord>) {
    let (records, end) = Wal::read(path).expect("read").expect("a log");
    (Wal::reopen(path, end, None).expect("reopen"), records)
}

/// Byte length of the header plus the first `k` records of an intact
/// log image (records start after the 28-byte header).
fn prefix_len(log: &[u8], k: usize) -> usize {
    let mut pos = 28;
    for _ in 0..k {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    pos
}

#[test]
fn garbage_tail_is_truncated_not_fatal() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("gdp-wal-garbage-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut live = base_kb(false);
    let mut wal = Wal::create(&path, hdr(), None).expect("create");
    live.begin_delta();
    live.assert_fact(fact("road", 1));
    let delta = live.end_delta().expect("delta");
    wal.append(&delta).expect("append");
    drop(wal);
    // A flipped byte in a would-be second record must not poison the
    // first: checksum rejects it, open truncates, appends continue.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("append garbage");
    f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x01])
        .expect("write");
    drop(f);
    let (mut wal, records) = recover(&path);
    assert_eq!(records.len(), 1);
    assert_eq!(wal.next_seq(), 2);
    // The log stays appendable after truncation.
    live.begin_delta();
    live.assert_fact(fact("road", 2));
    let delta = live.end_delta().expect("delta");
    assert_eq!(wal.append(&delta).expect("append"), 2);
    drop(wal);
    let (_wal, records) = recover(&path);
    assert_eq!(records.len(), 2);
    let mut recovered = base_kb(false);
    replay(&records, &mut recovered);
    assert!(recovered.content_eq(&live));
    let _ = std::fs::remove_file(&path);
}
