//! Disk-fault sweep: every I/O fault point must leave a recoverable log.
//!
//! A writer commits a deterministic stream of facts through a durable
//! [`SpecStore`] with a [`ChaosFile`] fault armed under every WAL and
//! checkpoint write — a short write, an fsync failure, or a hard crash
//! at byte (or sync) K. The first I/O error is treated as a process
//! crash: the store is dropped on the spot and recovery runs over the
//! surviving files with no faults, exactly as a restarted server would.
//!
//! The property, for *every* fault kind × trigger point:
//!
//! * recovery never panics and never refuses (these are torn-tail
//!   crashes, not operator-deleted segments);
//! * the recovered head is exactly the acknowledged prefix — or, for
//!   fsync faults only, one past it (the record's bytes all reached the
//!   file but the sync error meant the commit was never acknowledged;
//!   surfacing an unacknowledged-but-complete transaction is correct,
//!   losing an acknowledged one is not);
//! * the recovered content matches that boundary fact-for-fact; and
//! * the restarted store serves: one more commit goes through.
//!
//! The sweep runs with a small checkpoint interval so the fault points
//! also land inside checkpoint images and WAL rotations, not just
//! appends. Setting `GDP_CHAOS=io:short:K` / `io:fsync:K` / `io:crash:K`
//! (or `io:SEED`) adds that point to the sweep, which is how the CI
//! chaos leg scatters extra coverage.

use std::path::{Path, PathBuf};

use gdp::core::{DurabilityOptions, EnvConfig, SpecStore, Specification};
use gdp::engine::{IoFaultConfig, IoFaultKind};
use gdp::prelude::FactPat;

/// How many commits the workload attempts per fault point.
const COMMITS: u64 = 24;
/// Auto-checkpoint cadence: small, so each run crosses several
/// checkpoint+rotation boundaries.
const INTERVAL: u64 = 5;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdp-iofault-{tag}-{}.wal", std::process::id()));
    p
}

fn remove_family(path: &Path) {
    for suffix in ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
}

/// The deterministic base image. Recovery must rebuild it identically —
/// that is the documented "base image + log" contract.
fn base() -> Specification {
    let mut spec = Specification::new();
    spec.assert_fact(FactPat::new("seed").arg("s0")).unwrap();
    spec
}

fn fact_name(i: u64) -> String {
    format!("x{i}")
}

/// Run the workload under `fault`, crash at the first I/O error, recover
/// clean, and check the committed-prefix property. Returns the
/// acknowledged count and recovered head (for the summary assertion).
fn crash_and_recover(tag: &str, fault: IoFaultConfig) -> (u64, u64) {
    let path = temp_path(tag);
    remove_family(&path);
    let opts = DurabilityOptions {
        checkpoint_interval: Some(INTERVAL),
        io_faults: Some(fault),
    };

    // Phase 1: commit until the fault bites (or the workload ends). A
    // failed `create_durable` (fault inside the header write) means
    // nothing was ever acknowledged — still a valid crash point.
    let mut acked = 0u64;
    if let Ok(store) = SpecStore::create_durable(base(), &path, opts) {
        for i in 1..=COMMITS {
            let name = fact_name(i);
            match store.commit(|spec| spec.assert_fact(FactPat::new("f").arg(name.as_str()))) {
                Ok((committed, ())) => {
                    assert_eq!(committed.seq, i, "{tag}: seq drifted");
                    acked = i;
                }
                // First I/O error = the crash. Drop the store (the
                // faulted handle is dead anyway) and go recover.
                Err(_) => break,
            }
        }
    }

    // Phase 2: a "restarted process" recovers with no faults armed.
    let (store, head) =
        SpecStore::recover_durable(base(), &path, DurabilityOptions::no_checkpoints())
            .unwrap_or_else(|e| panic!("{tag}: recovery refused after a torn crash: {e}"));

    // Head is the acked prefix — or acked+1 for a complete-but-unsynced
    // record under an fsync fault (see the module docs).
    match fault.kind {
        IoFaultKind::FsyncFail => assert!(
            head == acked || head == acked + 1,
            "{tag}: recovered head {head}, acknowledged {acked}"
        ),
        _ => assert_eq!(head, acked, "{tag}: recovered head vs acknowledged"),
    }

    // Content matches the recovered boundary exactly: facts x1..=head
    // present, everything later absent.
    store.read(|spec| {
        for i in 1..=COMMITS {
            let present = spec
                .provable(FactPat::new("f").arg(fact_name(i).as_str()))
                .unwrap();
            assert_eq!(
                present,
                i <= head,
                "{tag}: fact x{i} vs recovered head {head}"
            );
        }
    });

    // The restarted store serves: one more commit is acknowledged and
    // lands at head + 1.
    let (committed, ()) = store
        .commit(|spec| spec.assert_fact(FactPat::new("f").arg("post_recovery")))
        .unwrap_or_else(|e| panic!("{tag}: restarted store refused a commit: {e}"));
    assert_eq!(committed.seq, head + 1, "{tag}: post-recovery seq");

    drop(store);
    remove_family(&path);
    (acked, head)
}

/// Byte-trigger sweep for short writes and crashes. The range covers the
/// WAL header (28 bytes), the first few records, and — with the small
/// interval — offsets that land inside checkpoint images and the
/// post-rotation segment. Strides keep the runtime proportionate while
/// still crossing every structural boundary.
fn byte_points() -> Vec<u64> {
    let mut points: Vec<u64> = (1..=64).collect();
    points.extend((66..=400).step_by(7));
    points.extend((401..=2000).step_by(97));
    points
}

#[test]
fn short_write_sweep_recovers_committed_prefix() {
    let mut interrupted = 0u64;
    for at in byte_points() {
        let fault = IoFaultConfig {
            kind: IoFaultKind::ShortWrite,
            at,
        };
        let (acked, _) = crash_and_recover(&format!("short-{at}"), fault);
        if acked < COMMITS {
            interrupted += 1;
        }
    }
    // The sweep must actually have exercised mid-stream crashes, not
    // only fault points beyond the file sizes.
    assert!(interrupted > 0, "no short-write point interrupted the run");
}

#[test]
fn crash_sweep_recovers_committed_prefix() {
    let mut interrupted = 0u64;
    for at in byte_points() {
        let fault = IoFaultConfig {
            kind: IoFaultKind::Crash,
            at,
        };
        let (acked, _) = crash_and_recover(&format!("crash-{at}"), fault);
        if acked < COMMITS {
            interrupted += 1;
        }
    }
    assert!(interrupted > 0, "no crash point interrupted the run");
}

#[test]
fn fsync_failure_sweep_recovers_committed_prefix() {
    // Sync triggers are call indexes, not bytes: one per WAL create,
    // one per append, a few per checkpoint. The workload performs a few
    // dozen, so a modest range covers every boundary.
    let mut interrupted = 0u64;
    for at in 1..=40 {
        let fault = IoFaultConfig {
            kind: IoFaultKind::FsyncFail,
            at,
        };
        let (acked, _) = crash_and_recover(&format!("fsync-{at}"), fault);
        if acked < COMMITS {
            interrupted += 1;
        }
    }
    assert!(interrupted > 0, "no fsync point interrupted the run");
}

/// A commit whose WAL append fails must not land anywhere: the live store
/// rolls it back, the head stays where it was, and the log is parked —
/// its segment may now end in a torn record, so every later commit is
/// refused (naming the cause) until a restart recovers.
#[test]
fn failed_append_rolls_back_and_parks_the_log() {
    for fault in [
        IoFaultConfig {
            kind: IoFaultKind::ShortWrite,
            at: 600,
        },
        IoFaultConfig {
            kind: IoFaultKind::FsyncFail,
            at: 3,
        },
    ] {
        let tag = format!("append-{:?}-{}", fault.kind, fault.at);
        let path = temp_path(&tag);
        remove_family(&path);
        let opts = DurabilityOptions {
            checkpoint_interval: None,
            io_faults: Some(fault),
        };
        let store = SpecStore::create_durable(base(), &path, opts).unwrap();
        let commit =
            |name: &str| store.commit(|spec| spec.assert_fact(FactPat::new("f").arg(name)));
        let present =
            |name: &str| store.read(|spec| spec.provable(FactPat::new("f").arg(name)).unwrap());
        let mut acked = 0;
        let failed = (1..=COMMITS).find(|&i| match commit(&fact_name(i)) {
            Ok(_) => {
                acked = i;
                false
            }
            Err(_) => true,
        });
        let failed = failed.unwrap_or_else(|| panic!("{tag}: no append failed"));
        assert!(
            acked > 0,
            "{tag}: the fault should land after a good commit"
        );
        assert!(
            !present(&fact_name(failed)),
            "{tag}: the failed commit is visible in the live store"
        );
        assert_eq!(store.head_seq(), acked, "{tag}: head moved");
        let refused = commit("after_the_fault").expect_err("a parked log must refuse commits");
        let cause = format!("appending commit {failed} failed");
        assert!(
            refused.to_string().contains(&cause),
            "{tag}: refusal does not name the cause: {refused}"
        );
        assert!(
            !present("after_the_fault"),
            "{tag}: a refused commit landed"
        );
        assert_eq!(store.head_seq(), acked, "{tag}: head moved on refusal");
        drop(store);
        remove_family(&path);
    }
}

/// The `GDP_CHAOS=io:…` hook: CI legs re-run the suite with extra fault
/// points scattered by seed. Unset (or a non-`io:` value), this is a
/// no-op pass.
#[test]
fn env_driven_fault_point_recovers() {
    if let Some(fault) = EnvConfig::read().io_faults {
        crash_and_recover("env", fault);
    }
}
