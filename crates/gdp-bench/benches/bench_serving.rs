//! T16 — serving & durability: what does MVCC snapshotting cost the
//! writer, and what does a concurrent writer cost the readers?
//!
//! The workload is `audit_world(8, 40)` behind a [`SpecStore`]: eight
//! survey models plus omega, each member an independent quadratic pair
//! scan. Two questions, each isolated by the other side's load:
//!
//! * **Sustained commit throughput** — one writer streams single-fact
//!   transactions through `SpecStore::commit` while 0 vs 4 reader
//!   threads continuously pin head snapshots and audit them. Snapshots
//!   are O(#predicates) pointer copies and readers never take the write
//!   lock during solving, so the 4-reader column should price only the
//!   brief `RwLock` handoff, not the readers' audit work.
//! * **Concurrent-reader audit latency** — pin-plus-audit measured on a
//!   quiescent store vs under a writer churning commits. The churn
//!   writer alternates assert/retract of the same reading so the store
//!   stays the same size and iterations measure identical work.
//!
//! Durability is priced separately (`wal` column): the same commit
//! stream with a write-ahead log attached, fsync per commit — the gap
//! between the two columns is exactly the durability tax.
//!
//! The `large` rows repeat the commit stream over `audit_world(8, 2500)`,
//! ~2×10⁴ `h/5` clauses (the size of the `perfbench` ingest base), with
//! no pin and with a head pin held across every commit and re-taken
//! after it, which is what a `gdp-serve` session does with its own pin.
//! A commit under a pin copies only the predicate's private tail; the
//! shared base is copied when the tail folds, about once per 310
//! appended clauses, which the pinned row's 1500 samples cross a few
//! times (its max column).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdp::core::{DurabilityOptions, FactPat, Pat, SpecError, SpecStore};
use gdp_bench::workloads::audit_world;

const MODELS: usize = 8;
const READINGS: usize = 40;
/// Readings per model in the `large` commit rows: 8 × 2500 = 2×10⁴.
const LARGE_READINGS: usize = 2_500;

/// Commit one fresh, never-violating reading into model 0 (values sit
/// far below every existing reading, mirroring `streaming_revision`).
fn commit_reading(store: &SpecStore, seq: usize) {
    let (_, _) = store
        .commit(|spec| {
            spec.assert_fact(
                FactPat::new("reading")
                    .arg(Pat::Atom(format!("w0_{seq}")))
                    .arg(Pat::Int(-((seq as i64 + 2) * READINGS as i64)))
                    .model(Pat::Atom("m0".to_string())),
            )
        })
        .expect("commit");
}

/// Commit the retraction of that same reading.
fn retract_reading(store: &SpecStore, seq: usize) {
    store
        .commit(|spec| {
            spec.retract_fact(
                FactPat::new("reading")
                    .arg(Pat::Atom(format!("w0_{seq}")))
                    .arg(Pat::Int(-((seq as i64 + 2) * READINGS as i64)))
                    .model(Pat::Atom("m0".to_string())),
            )
            .map(|removed| assert!(removed, "churn fact {seq} vanished"))
        })
        .expect("commit");
}

fn bench_commit_throughput(c: &mut Criterion) {
    gate();
    let mut group = c.benchmark_group("T16_commit_throughput");
    group.sample_size(10);
    for readers in [0usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("plain", readers),
            &readers,
            |b, &readers| {
                let store = Arc::new(SpecStore::new(audit_world(MODELS, READINGS)));
                let stop = Arc::new(AtomicBool::new(false));
                let done = Arc::new(AtomicUsize::new(0));
                let handles: Vec<_> = (0..readers)
                    .map(|_| {
                        let store = Arc::clone(&store);
                        let stop = Arc::clone(&stop);
                        let done = Arc::clone(&done);
                        std::thread::spawn(move || {
                            let mut audits = 0usize;
                            while !stop.load(Ordering::Relaxed) || audits == 0 {
                                let (_, snapshot) = store.snapshot();
                                let report = snapshot.audit_world_views(1).expect("reader audit");
                                assert_eq!(report.violations.len(), MODELS);
                                audits += 1;
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            audits
                        })
                    })
                    .collect();
                // Only measure once every reader is in steady state (one full
                // audit completed) — on a small box the first audits dominate
                // the whole measurement window otherwise.
                while done.load(Ordering::Relaxed) < readers {
                    std::thread::yield_now();
                }
                let seq = AtomicUsize::new(0);
                b.iter(|| commit_reading(&store, seq.fetch_add(1, Ordering::Relaxed)));
                stop.store(true, Ordering::Relaxed);
                for h in handles {
                    assert!(
                        h.join().expect("reader") > 0,
                        "reader never completed an audit"
                    );
                }
            },
        );
    }
    // The durability tax: the identical commit stream, fsynced to a WAL.
    group.bench_function(BenchmarkId::new("wal", 0usize), |b| {
        let path = std::env::temp_dir().join(format!("gdp-bench-t16-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = SpecStore::create_wal(audit_world(MODELS, READINGS), &path).expect("wal store");
        let seq = AtomicUsize::new(0);
        b.iter(|| commit_reading(&store, seq.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_file(&path);
    });
    // At a realistic size, unpinned and under a head pin re-taken after
    // every commit (see the module docs).
    group.sample_size(1500);
    for pinned in [false, true] {
        let label = if pinned { "pinned" } else { "unpinned" };
        group.bench_function(BenchmarkId::new("large", label), |b| {
            let store = SpecStore::new(audit_world(MODELS, LARGE_READINGS));
            let mut pin = pinned.then(|| store.snapshot());
            let mut seq = 0;
            b.iter(|| {
                commit_reading(&store, seq);
                seq += 1;
                if pinned {
                    pin = Some(store.snapshot());
                }
            });
            drop(pin);
        });
    }
    group.finish();
}

fn bench_reader_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("T16_reader_audit");
    group.sample_size(10);
    for churn in [false, true] {
        let label = if churn { "under_writer" } else { "quiescent" };
        group.bench_function(BenchmarkId::new("pin_and_audit", label), |b| {
            let store = Arc::new(SpecStore::new(audit_world(MODELS, READINGS)));
            let stop = Arc::new(AtomicBool::new(false));
            let writer = churn.then(|| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seq = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        commit_reading(&store, seq);
                        retract_reading(&store, seq);
                        seq += 1;
                    }
                    seq
                })
            });
            b.iter(|| {
                let (_, snapshot) = store.snapshot();
                let report = snapshot.audit_world_views(2).expect("audit");
                assert_eq!(report.violations.len(), MODELS);
            });
            stop.store(true, Ordering::Relaxed);
            if let Some(h) = writer {
                assert!(h.join().expect("writer") > 0, "writer never committed");
            }
        });
    }
    group.finish();
}

/// T17 — checkpointed recovery: restart time must track the checkpoint
/// interval, not total history.
///
/// Disk state is prepared once per point (N single-fact commits through
/// a durable store, N from the interval up to 10× past it), then each
/// iteration rebuilds the base image and runs the full recovery path
/// (`SpecStore::recover_durable`: harvest images, pick the furthest
/// contiguous chain, install, replay the WAL suffix). The workload is
/// *churn* — alternating assert/retract of the same reading — so the KB
/// stays base-sized however long the history gets: what grows with N is
/// exactly the log, isolating the replay term. `wal_only` has no
/// checkpoints, so recovery replays all N records and scales with N;
/// `checkpointed` (the default interval, 32) installs a base-sized
/// image and replays at most one interval's worth no matter how much
/// history accumulated — the flat-line that justifies the checkpoint
/// machinery. A smaller world than T16 keeps the constant base-rebuild
/// cost from burying the replay term being measured.
fn bench_recovery(c: &mut Criterion) {
    const INTERVAL: usize = 32; // DEFAULT_CHECKPOINT_INTERVAL
    let mut group = c.benchmark_group("T17_recovery");
    group.sample_size(10);
    for commits in [INTERVAL, 2 * INTERVAL, 10 * INTERVAL] {
        for (label, opts) in [
            ("wal_only", DurabilityOptions::no_checkpoints()),
            ("checkpointed", DurabilityOptions::default()),
        ] {
            group.bench_with_input(BenchmarkId::new(label, commits), &commits, |b, &commits| {
                let path = std::env::temp_dir().join(format!(
                    "gdp-bench-t17-{label}-{commits}-{}.wal",
                    std::process::id()
                ));
                remove_family(&path);
                let store =
                    SpecStore::create_durable(audit_world(2, 8), &path, opts).expect("create");
                for seq in 0..commits / 2 {
                    commit_reading(&store, seq);
                    retract_reading(&store, seq);
                }
                drop(store);
                b.iter(|| {
                    let (store, head) = SpecStore::recover_durable(audit_world(2, 8), &path, opts)
                        .expect("recover");
                    assert_eq!(head, commits as u64);
                    store
                });
                remove_family(&path);
            });
        }
    }
    group.finish();
}

/// T17 — the checkpoint fold at the `perfbench` ingest base's size: one
/// `SpecStore::checkpoint` of `audit_world(8, 2500)`, ~2×10⁴ `h/5`
/// clauses. It captures the store, encodes the image, writes and syncs
/// it, renames it into place and rotates the WAL: what a `gdp-serve
/// --wal` commit pays every 32 commits while it holds the write lock.
fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("T17_fold");
    group.sample_size(20);
    group.bench_function("large", |b| {
        let path =
            std::env::temp_dir().join(format!("gdp-bench-t17-fold-{}.wal", std::process::id()));
        remove_family(&path);
        let world = audit_world(MODELS, LARGE_READINGS);
        let store = SpecStore::create_durable(world, &path, DurabilityOptions::no_checkpoints())
            .expect("create");
        b.iter(|| store.checkpoint().expect("checkpoint"));
        drop(store);
        remove_family(&path);
    });
    group.finish();
}

fn remove_family(path: &Path) {
    for suffix in ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(std::path::PathBuf::from(os));
    }
}

/// Equivalence gate run once per bench process: a pinned snapshot taken
/// mid-churn audits identically to the live spec at the same seq.
fn gate() {
    let store = SpecStore::new(audit_world(2, 8));
    commit_reading(&store, 0);
    let (seq, snapshot) = store.snapshot();
    commit_reading(&store, 1);
    let pinned = snapshot.audit_world_views(1).expect("pinned audit");
    let replayed = store
        .snapshot_at(seq)
        .expect("snapshot_at")
        .audit_world_views(1)
        .expect("replayed audit");
    assert_eq!(pinned.violations, replayed.violations);
    assert_eq!(pinned.per_model, replayed.per_model);
    let err: Result<(), SpecError> = Err(SpecError::Transaction("probe".into()));
    assert!(
        store.commit(|_| err).is_err(),
        "failed commits must not land"
    );
}

criterion_group!(
    benches,
    bench_commit_throughput,
    bench_reader_latency,
    bench_recovery,
    bench_fold
);
criterion_main!(benches);
