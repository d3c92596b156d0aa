//! Checkpointed recovery: bounded replay, fallback ladder, refused
//! mismatches.
//!
//! Companion to `wal_recovery.rs` (raw log replay) and `io_faults.rs`
//! (fault-point sweep): these tests exercise the *checkpoint* side of
//! durability — that recovery work stays proportional to the checkpoint
//! interval rather than total history, that a torn newest image falls
//! back down the ladder (previous image, then the base) without losing a
//! commit, that genuinely unreachable commits are refused rather than
//! silently dropped, and that a base image which no longer matches what
//! the log was created over (the `--load` file edited between runs —
//! satellite of ISSUE 9) is a hard, well-worded error.

use std::path::{Path, PathBuf};

use gdp::core::{DurabilityOptions, SpecStore, Specification};
use gdp::engine::{Wal, WalHeader};
use gdp::prelude::FactPat;
use gdp::server::ServerState;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdp-ckpt-{tag}-{}.wal", std::process::id()));
    p
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn remove_family(path: &Path) {
    for suffix in ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"] {
        let _ = std::fs::remove_file(sibling(path, suffix));
    }
}

fn base() -> Specification {
    let mut spec = Specification::new();
    spec.assert_fact(FactPat::new("seed").arg("s0")).unwrap();
    spec
}

fn opts(interval: u64) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_interval: Some(interval),
        io_faults: None,
    }
}

/// Commit facts `x(from)..=x(to)` one per transaction.
fn commit_range(store: &SpecStore, from: u64, to: u64) {
    for i in from..=to {
        let name = format!("x{i}");
        store
            .commit(|spec| spec.assert_fact(FactPat::new("f").arg(name.as_str())))
            .unwrap();
    }
}

/// Assert the store holds exactly facts `x1..=head`.
fn assert_content(store: &SpecStore, head: u64) {
    store.read(|spec| {
        for i in 1..=head + 4 {
            let present = spec
                .provable(FactPat::new("f").arg(format!("x{i}").as_str()))
                .unwrap();
            assert_eq!(present, i <= head, "fact x{i} at head {head}");
        }
    });
}

/// Every file of the family, by suffix, with its bytes (`None` when it
/// does not exist).
fn family(path: &Path) -> Vec<(&'static str, Option<Vec<u8>>)> {
    ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"]
        .into_iter()
        .map(|suffix| (suffix, std::fs::read(sibling(path, suffix)).ok()))
        .collect()
}

/// Flip one byte in the middle of a file — a torn/corrupt image that
/// still parses as "a record is here" but fails its checksum.
fn corrupt_middle(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read image");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(path, bytes).expect("rewrite image");
}

/// Replay work after a clean run is bounded by the checkpoint interval:
/// the live segment holds at most `interval` records no matter how much
/// history accumulated.
#[test]
fn live_segment_stays_bounded_by_the_interval() {
    let path = temp_path("bounded");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 39);
    drop(store);

    let (_, records) = Wal::scan(&path).expect("scan").expect("live segment");
    assert!(
        records.len() <= 4,
        "live segment holds {} records after 39 commits (interval 4)",
        records.len()
    );
    assert!(sibling(&path, ".ckpt").exists(), "no checkpoint image");
    assert!(sibling(&path, ".prev").exists(), "no rotated segment");

    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 39);
    assert_content(&store, 39);
    remove_family(&path);
}

/// An explicit `checkpoint()` folds head into an image on demand and
/// rotates the log; recovery replays only what came after it.
#[test]
fn on_demand_checkpoint_rotates_and_recovers() {
    let path = temp_path("demand");
    remove_family(&path);
    // No auto cadence: images appear only when asked for.
    let store =
        SpecStore::create_durable(base(), &path, DurabilityOptions::no_checkpoints()).unwrap();
    commit_range(&store, 1, 6);
    assert_eq!(store.checkpoint().unwrap(), 6);
    commit_range(&store, 7, 9);
    drop(store);

    let (_, records) = Wal::scan(&path).expect("scan").expect("live segment");
    assert_eq!(records.len(), 3, "only the post-checkpoint suffix replays");

    let (store, head) =
        SpecStore::recover_durable(base(), &path, DurabilityOptions::no_checkpoints()).unwrap();
    assert_eq!(head, 9);
    assert_content(&store, 9);
    remove_family(&path);
}

#[test]
fn checkpoint_on_a_memory_store_is_refused() {
    let store = SpecStore::new(base());
    let err = store.checkpoint().unwrap_err().to_string();
    assert!(err.contains("no write-ahead log"), "{err}");
}

/// A torn newest image falls back to the previous one: the retained
/// (ckpt.prev, wal.prev, wal) chain still reaches head contiguously, so
/// corruption costs replay time, never commits.
#[test]
fn torn_newest_checkpoint_falls_back_to_previous() {
    let path = temp_path("fallback1");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 10); // checkpoints at 4 and 8; wal holds 9..=10
    drop(store);
    assert!(sibling(&path, ".ckpt.prev").exists(), "need two images");

    corrupt_middle(&sibling(&path, ".ckpt"));
    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 10, "fallback lost commits");
    assert_content(&store, 10);
    remove_family(&path);
}

/// Recovery decodes only the newest valid image: the previous one is read
/// only when the newest is missing or torn, since a chain from it can
/// never reach further. So with a valid `.ckpt`, even an unreadable
/// `.ckpt.prev` (here a directory) leaves recovery untouched.
#[test]
fn a_valid_newest_checkpoint_is_the_only_image_read() {
    let path = temp_path("newest-only");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 10); // checkpoints at 4 and 8; wal holds 9..=10
    drop(store);
    let prev = sibling(&path, ".ckpt.prev");
    std::fs::remove_file(&prev).unwrap();
    std::fs::create_dir(&prev).unwrap();

    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 10);
    assert_content(&store, 10);
    drop(store);
    std::fs::remove_dir(&prev).unwrap();
    remove_family(&path);
}

/// With only one image ever written, tearing it falls all the way back
/// to the base: the rotated segment still holds records 1..=interval,
/// so base + both segments reach head.
#[test]
fn torn_only_checkpoint_falls_back_to_base() {
    let path = temp_path("fallback2");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 6); // one checkpoint (at 4); wal.prev = 1..=4, wal = 5..=6
    drop(store);
    assert!(!sibling(&path, ".ckpt.prev").exists());

    corrupt_middle(&sibling(&path, ".ckpt"));
    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 6, "base fallback lost commits");
    assert_content(&store, 6);
    remove_family(&path);
}

/// When *no* retained chain reaches the newest on-disk commit — both
/// images torn after the early segments were already rotated away —
/// recovery must refuse loudly rather than resurrect a stale prefix as
/// if it were head.
#[test]
fn unreachable_commits_are_refused_not_silently_dropped() {
    let path = temp_path("unreachable");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 10); // two rotations: records 1..=4 are gone from disk
    drop(store);

    corrupt_middle(&sibling(&path, ".ckpt"));
    corrupt_middle(&sibling(&path, ".ckpt.prev"));
    let err = SpecStore::recover_durable(base(), &path, opts(4))
        .err()
        .expect("recovery over an unreachable head must refuse")
        .to_string();
    assert!(
        err.contains("recovery refused") && err.contains("contiguously"),
        "{err}"
    );
    remove_family(&path);
}

/// Every refusal comes before recovery writes anything, so a refused
/// restart leaves each file of the family as it was, and the operator
/// can mend the family and start again: a torn tail stays uncut under a
/// refused base, and a missing current segment stays missing while no
/// chain reaches the records on disk.
#[test]
fn a_refused_recovery_leaves_every_file_as_it_was() {
    let path = temp_path("untouched");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 10); // checkpoints at 4 and 8; wal holds 9..=10
    drop(store);

    let mut torn = std::fs::read(&path).unwrap();
    torn.extend_from_slice(&[7; 5]);
    std::fs::write(&path, &torn).unwrap();
    let mut other = Specification::new();
    other
        .assert_fact(FactPat::new("seed").arg("edited"))
        .unwrap();
    let before = family(&path);
    let err = SpecStore::recover_durable(other, &path, opts(4))
        .err()
        .expect("recovery over a different base must refuse")
        .to_string();
    assert!(err.contains("different base image"), "{err}");
    assert!(family(&path) == before, "a refused recovery changed a file");

    // Set both images aside and lose the current segment: the rotated
    // segment's records 5..=8 are then out of the base chain's reach.
    let images = [sibling(&path, ".ckpt"), sibling(&path, ".ckpt.prev")];
    for image in &images {
        std::fs::rename(image, sibling(image, ".aside")).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
    let before = family(&path);
    let err = SpecStore::recover_durable(base(), &path, opts(4))
        .err()
        .expect("recovery over an unreachable head must refuse")
        .to_string();
    assert!(err.contains("contiguously"), "{err}");
    assert!(family(&path) == before, "a refused recovery changed a file");
    assert!(
        !path.exists(),
        "a refused recovery created the current segment"
    );

    // Put the images back: the family recovers to the newest image, and
    // the fresh segment continues it.
    for image in &images {
        std::fs::rename(sibling(image, ".aside"), image).unwrap();
    }
    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 8, "commits 9..=10 went with the lost segment");
    commit_range(&store, 9, 9);
    drop(store);
    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 9);
    assert_content(&store, 9);
    remove_family(&path);
}

/// A current segment that ends before the recovered head (here an empty
/// one from an earlier run over the same base, put back beside newer
/// images) would log the next commits under seqs the chain already
/// holds, where the next recovery could not find them: refused.
#[test]
fn a_current_segment_behind_the_head_is_refused() {
    let path = temp_path("behind");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 10); // checkpoints at 4 and 8; wal holds 9..=10
    drop(store);
    let (header, _) = Wal::scan(&path).expect("scan").expect("live segment");
    Wal::create(&path, WalHeader::new(header.fingerprint, 1)).unwrap();

    let err = SpecStore::recover_durable(base(), &path, opts(4))
        .err()
        .expect("a segment behind the head must refuse")
        .to_string();
    assert!(
        err.contains("recovery refused") && err.contains("would log the next commit as 1"),
        "{err}"
    );
    remove_family(&path);
}

/// A base that hashes differently from what the log was created over is
/// a hard error naming both fingerprints (store-level form).
#[test]
fn recovery_over_a_different_base_is_refused() {
    let path = temp_path("basemismatch");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 6);
    drop(store);

    let mut other = Specification::new();
    other
        .assert_fact(FactPat::new("seed").arg("edited"))
        .unwrap();
    let err = SpecStore::recover_durable(other, &path, opts(4))
        .err()
        .expect("recovery over a different base must refuse")
        .to_string();
    assert!(
        err.contains("different base image") && err.contains("fingerprint"),
        "{err}"
    );
    remove_family(&path);
}

/// The full `--load` shape of the same refusal: a durable server is
/// started with a load file in its base image, the file is edited
/// between runs, and the restart must refuse recovery instead of
/// replaying the log over a silently different world.
#[test]
fn edited_load_file_refuses_recovery_at_restart() {
    let wal = temp_path("loadmismatch");
    remove_family(&wal);
    let mut load = std::env::temp_dir();
    load.push(format!("gdp-ckpt-load-{}.gdp", std::process::id()));
    std::fs::write(&load, "bridge(b1). open(b1).\n").unwrap();

    let load_files = [load.clone()];
    let (state, head) =
        ServerState::durable_opts(&wal, DurabilityOptions::default(), &load_files).unwrap();
    assert_eq!(head, 0);
    state
        .store()
        .commit(|spec| spec.assert_fact(FactPat::new("bridge").arg("b2")))
        .unwrap();
    drop(state);

    // Same bytes → recovery proceeds and the commit is back.
    let (state, head) =
        ServerState::durable_opts(&wal, DurabilityOptions::default(), &load_files).unwrap();
    assert_eq!(head, 1);
    assert!(state
        .store()
        .read(|spec| spec.provable(FactPat::new("bridge").arg("b2")))
        .unwrap());
    drop(state);

    // Edited load file → refused with the fingerprint message.
    std::fs::write(&load, "bridge(b1).\n").unwrap();
    let err = ServerState::durable_opts(&wal, DurabilityOptions::default(), &load_files)
        .err()
        .expect("restart over an edited --load file must refuse")
        .to_string();
    assert!(
        err.contains("different base image") && err.contains("--load"),
        "{err}"
    );

    let _ = std::fs::remove_file(&load);
    remove_family(&wal);
}

/// Retained history survives checkpointed recovery: a snapshot pinned a
/// few commits back still reconstructs after restart.
#[test]
fn pinned_snapshots_work_across_checkpointed_restart() {
    let path = temp_path("pins");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, opts(4)).unwrap();
    commit_range(&store, 1, 9);
    drop(store);

    let (store, head) = SpecStore::recover_durable(base(), &path, opts(4)).unwrap();
    assert_eq!(head, 9);
    // Seqs replayed from the chosen image forward are reconstructible.
    let snap = store.snapshot_at(8).unwrap();
    assert!(snap.provable(FactPat::new("f").arg("x8")).unwrap());
    assert!(!snap.provable(FactPat::new("f").arg("x9")).unwrap());
    remove_family(&path);
}
