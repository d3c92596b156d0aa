//! Concurrent serving layer: one writer, many MVCC snapshot readers.
//!
//! A [`SpecStore`] wraps a [`Specification`] for server-style use:
//!
//! * **Writers** funnel through [`SpecStore::commit`], which wraps the
//!   closure in a transaction ([`Specification::begin_txn`] /
//!   [`Specification::commit_txn`]), assigns the commit a monotone
//!   sequence number, and retains its [`CommitRecord`] — the committed
//!   [`Delta`] plus the pre-commit epoch and per-predicate generations.
//! * **Readers** call [`SpecStore::snapshot`] (head) or
//!   [`SpecStore::snapshot_at`] (a retained earlier sequence) and get a
//!   private [`Specification`] pinned to that generation, untouched by
//!   writer commits that land afterwards. Snapshots share the clause
//!   store copy-on-write, so taking a head snapshot is O(#predicates)
//!   pointer copies. Holding one is not free for the writer: each commit
//!   to a predicate that a pin still shares copies that predicate's
//!   private tail, and a tail that outgrows 1/64 of its shared
//!   base is folded into a fresh copy of the base (DESIGN.md #16).
//!   Retracts fold first, so under a pin they copy the whole predicate.
//!   [`SpecStore::snapshot_at`] un-applies the newer commits: that costs
//!   what changed since while those clauses still sit in tails, and a
//!   copy of the predicate once it must reach into a base.
//! * **Durability** is optional: a store opened with
//!   [`SpecStore::create_durable`] (or recovered with
//!   [`SpecStore::recover_durable`]) appends every committed delta to a
//!   write-ahead log ([`gdp_engine::wal::Wal`]) and fsyncs before the
//!   commit is acknowledged, and periodically folds the whole knowledge
//!   base into a checksummed checkpoint image
//!   ([`gdp_engine::checkpoint::CheckpointImage`]). Recovery is *newest
//!   valid checkpoint + WAL suffix*, falling back to the previous
//!   checkpoint and finally the base image when an image is torn —
//!   corruption degrades recovery time, never correctness.
//!
//! ## On-disk layout
//!
//! For a store opened at `FILE`:
//!
//! | path              | contents                                        |
//! |-------------------|-------------------------------------------------|
//! | `FILE`            | current WAL segment                             |
//! | `FILE.prev`       | previous segment (records since the older ckpt) |
//! | `FILE.ckpt`       | newest checkpoint image                         |
//! | `FILE.ckpt.prev`  | previous checkpoint image                       |
//! | `*.tmp`           | in-flight atomic writes (crash leftovers)       |
//!
//! At each checkpoint the WAL is rotated: the current segment retires to
//! `FILE.prev` and a fresh segment starts just past the checkpoint, so
//! disk usage and recovery time stay proportional to the checkpoint
//! interval, not total history. The retained pair (two checkpoints, two
//! segments) keeps the fallback chain contiguous: the *previous*
//! checkpoint plus the *previous* segment reach the head even when the
//! newest image is torn. Every WAL header and checkpoint carries the
//! canonical fingerprint of the base image
//! ([`gdp_engine::checkpoint::fingerprint`]); recovery over a base that
//! hashes differently — a changed `--load` file — is a hard error, not
//! silent divergence.
//!
//! The store records only *clause* operations. The world view and the
//! object, model and predicate registries are clauses (`active_model/1`,
//! `is_model/1`, …), so a `#world_view` or `#model` commit is versioned,
//! rolled back and logged like any fact. Configuration that lives outside
//! the knowledge base — tabling, index layout, declarations of domains —
//! goes through [`SpecStore::update`], which invalidates retained history
//! (old snapshots would lie about configuration) and is not logged; on
//! recovery the caller rebuilds the same base configuration first, then
//! replays the log (the standard "base image + log" arrangement).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

use parking_lot::{Mutex, RwLock};

use gdp_engine::wal::{replay, LogEnd, Wal, WalHeader, WalRecord};
use gdp_engine::{
    fingerprint, CheckpointImage, CommitRecord, Delta, FxHashMap, IoFaultConfig, KnowledgeBase,
    PredKey,
};

use crate::error::{SpecError, SpecResult};
use crate::spec::Specification;

/// How many [`CommitRecord`]s a store retains by default. Snapshots can
/// be pinned at most this many commits behind head; older generations
/// are no longer reconstructible (the records have been dropped).
pub const DEFAULT_HISTORY: usize = 64;

/// Default auto-checkpoint cadence for [`DurabilityOptions`]: fold the KB
/// into an image every this many commits.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 32;

/// Knobs for a durable store ([`SpecStore::create_durable`] /
/// [`SpecStore::recover_durable`]).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// Write a checkpoint (and rotate the WAL) every this many commits;
    /// `None` disables auto-checkpointing — images are then written only
    /// by explicit [`SpecStore::checkpoint`] calls.
    pub checkpoint_interval: Option<u64>,
    /// Disk-fault injection under every WAL and checkpoint write (the
    /// `GDP_CHAOS` `io:` grammar); `None` in production.
    pub io_faults: Option<IoFaultConfig>,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            checkpoint_interval: Some(DEFAULT_CHECKPOINT_INTERVAL),
            io_faults: None,
        }
    }
}

impl DurabilityOptions {
    /// WAL-only durability: no automatic checkpoints, no fault injection.
    pub fn no_checkpoints() -> DurabilityOptions {
        DurabilityOptions {
            checkpoint_interval: None,
            io_faults: None,
        }
    }
}

/// The file family derived from the WAL path (see the module docs).
#[derive(Clone, Debug)]
struct DurablePaths {
    wal: PathBuf,
    wal_prev: PathBuf,
    ckpt: PathBuf,
    ckpt_prev: PathBuf,
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

impl DurablePaths {
    fn new(path: &Path) -> DurablePaths {
        DurablePaths {
            wal: path.to_path_buf(),
            wal_prev: sibling(path, ".prev"),
            ckpt: sibling(path, ".ckpt"),
            ckpt_prev: sibling(path, ".ckpt.prev"),
        }
    }
}

/// Receipt of one successful [`SpecStore::commit`].
#[derive(Clone, Debug)]
pub struct Committed {
    /// The commit's sequence number (1-based, strictly monotone).
    pub seq: u64,
    /// The committed operations — the currency of
    /// [`Specification::audit_incremental`].
    pub delta: Delta,
}

struct DurableState {
    /// Current WAL segment, or why the log is parked: after a failed
    /// append or rotation the segment may end in a torn record, so
    /// commits are refused until the operator restarts and recovers.
    wal: Result<Wal, String>,
    paths: DurablePaths,
    /// Canonical fingerprint of the base image (stamped into every WAL
    /// header and checkpoint this store writes).
    fingerprint: u64,
    opts: DurabilityOptions,
    /// Commits since the last checkpoint (drives the auto cadence).
    since_checkpoint: u64,
}

struct StoreState {
    /// Sequence number of the newest commit (0 = base image).
    seq: u64,
    /// Retained commit records, oldest first; `back().seq == seq`.
    history: VecDeque<CommitRecord>,
    /// Retention cap for `history`.
    cap: usize,
    /// Durability machinery (WAL + checkpoints), when enabled.
    durable: Option<DurableState>,
}

impl StoreState {
    /// The retained records newer than `seq`, oldest first. Errors if
    /// `seq` is ahead of head, or if those records are no longer all
    /// retained (the message names the window that is).
    fn newer_than(&self, seq: u64) -> SpecResult<impl Iterator<Item = &CommitRecord>> {
        if seq > self.seq {
            return Err(SpecError::Transaction(format!(
                "snapshot sequence {seq} is ahead of head {}",
                self.seq
            )));
        }
        let start = if seq == self.seq {
            self.history.len()
        } else {
            self.history
                .iter()
                .position(|r| r.seq == seq + 1)
                .ok_or_else(|| {
                    let oldest = self.history.front().map_or(self.seq, |r| r.seq - 1);
                    SpecError::Transaction(format!(
                        "snapshot sequence {seq} is no longer retained: the retained window \
                         is {oldest}..={} (the store keeps the last {} commits)",
                        self.seq, self.cap
                    ))
                })?
        };
        Ok(self.history.iter().skip(start))
    }

    /// Fold `kb` (the live KB at `self.seq`) into a fresh checkpoint
    /// image and rotate the WAL. Ordering is the crash-safety argument:
    /// (1) the old image retires to `.ckpt.prev`, (2) the new image
    /// lands via write-temp/fsync/rename, (3) the current segment
    /// retires to `.prev`, (4) a fresh segment starts at `seq + 1`. A
    /// crash between any two steps leaves a contiguous
    /// checkpoint-plus-segments chain covering every acknowledged commit
    /// (see the module docs for the retention invariant).
    fn write_checkpoint(&mut self, kb: &KnowledgeBase) -> io::Result<u64> {
        let seq = self.seq;
        let d = self
            .durable
            .as_mut()
            .expect("write_checkpoint on a non-durable store");
        let image = CheckpointImage::capture(kb, d.fingerprint, seq);
        // Count the attempt up front: a failing image (e.g. under
        // injected faults) retries at the *next* interval instead of on
        // every commit.
        d.since_checkpoint = 0;
        if d.paths.ckpt.exists() {
            std::fs::rename(&d.paths.ckpt, &d.paths.ckpt_prev)?;
        }
        image.write(&d.paths.ckpt, d.opts.io_faults)?;
        // Rotate: close the current segment before renaming it out. A
        // failure parks the log.
        d.wal = Err(String::new());
        let rotated = std::fs::rename(&d.paths.wal, &d.paths.wal_prev).and_then(|()| {
            let header = WalHeader::new(d.fingerprint, seq + 1);
            Wal::create_with_faults(&d.paths.wal, header, d.opts.io_faults)
        });
        match rotated {
            Ok(wal) => {
                d.wal = Ok(wal);
                Ok(seq)
            }
            Err(e) => {
                d.wal = Err(format!("rotating it at checkpoint {seq} failed: {e}"));
                Err(e)
            }
        }
    }
}

/// A [`Specification`] behind a single-writer / multi-reader MVCC
/// facade. See the module docs.
pub struct SpecStore {
    spec: RwLock<Specification>,
    state: Mutex<StoreState>,
}

// Lock order everywhere: `spec` first, then `state`.

impl SpecStore {
    /// Serve `spec` with the default history retention and no WAL.
    pub fn new(spec: Specification) -> SpecStore {
        SpecStore::with_capacity(spec, DEFAULT_HISTORY)
    }

    /// Serve `spec`, retaining up to `cap` commit records for
    /// [`SpecStore::snapshot_at`].
    pub fn with_capacity(spec: Specification, cap: usize) -> SpecStore {
        SpecStore {
            spec: RwLock::new(spec),
            state: Mutex::new(StoreState {
                seq: 0,
                history: VecDeque::new(),
                cap,
                durable: None,
            }),
        }
    }

    /// Serve `spec` durably with WAL-only durability (no automatic
    /// checkpoints) — see [`SpecStore::create_durable`].
    pub fn create_wal(spec: Specification, path: &Path) -> SpecResult<SpecStore> {
        SpecStore::create_durable(spec, path, DurabilityOptions::no_checkpoints())
    }

    /// Serve `spec` durably: create a fresh write-ahead log at `path`
    /// (truncating anything there, and deleting stale siblings from an
    /// earlier incarnation) and append every subsequent commit to it.
    /// Under `opts.checkpoint_interval`, the store also periodically
    /// folds the KB into a checkpoint image and rotates the log. `spec`
    /// is the *base image*; its fingerprint is stamped into the WAL
    /// header, and recovery refuses a base that hashes differently.
    pub fn create_durable(
        spec: Specification,
        path: &Path,
        opts: DurabilityOptions,
    ) -> SpecResult<SpecStore> {
        let paths = DurablePaths::new(path);
        for stale in [
            &paths.wal_prev,
            &paths.ckpt,
            &paths.ckpt_prev,
            &sibling(&paths.ckpt, ".tmp"),
        ] {
            let _ = std::fs::remove_file(stale);
        }
        let fp = base_fingerprint(spec.kb())?;
        let wal = Wal::create_with_faults(&paths.wal, WalHeader::new(fp, 1), opts.io_faults)
            .map_err(wal_err)?;
        let store = SpecStore::new(spec);
        store.state.lock().durable = Some(DurableState {
            wal: Ok(wal),
            paths,
            fingerprint: fp,
            opts,
            since_checkpoint: 0,
        });
        Ok(store)
    }

    /// Re-open a durable store with WAL-only durability going forward —
    /// see [`SpecStore::recover_durable`].
    pub fn recover(base: Specification, path: &Path) -> SpecResult<(SpecStore, u64)> {
        SpecStore::recover_durable(base, path, DurabilityOptions::no_checkpoints())
    }

    /// Re-open a durable store: restore the newest valid checkpoint and
    /// replay the WAL suffix over it. `base` must be built exactly as the
    /// original base image was — its canonical fingerprint is checked
    /// against every WAL header and checkpoint on disk, and a mismatch
    /// (a changed `--load` file, a different setup script) is a hard
    /// error rather than silent divergence.
    ///
    /// Fallback ladder when images are missing, torn or corrupt: newest
    /// checkpoint → previous checkpoint → the base image, with the WAL
    /// records newer than it (both retained segments are scanned). Only
    /// the first valid image on that ladder is decoded: it reaches the
    /// furthest *contiguous* head any retained chain can. Committed
    /// records that chain cannot reach (an operator deleted a segment)
    /// are a hard error, not silent loss, and so is a current segment
    /// that does not continue the recovered head. Every check runs before
    /// anything on disk is touched, so a refused recovery leaves the files
    /// as they were. Torn record tails are truncated as usual. Retained history is
    /// rebuilt from the replayed records (up to the retention cap), so
    /// pinned snapshots work across a restart. Returns the store and the
    /// recovered head sequence number.
    pub fn recover_durable(
        mut base: Specification,
        path: &Path,
        opts: DurabilityOptions,
    ) -> SpecResult<(SpecStore, u64)> {
        let paths = DurablePaths::new(path);
        let fp = base_fingerprint(base.kb())?;

        // Take the newest valid image. A chain from an older image (or
        // the base) either stops before the newer image's seq or runs
        // through it to the same head, and then the newer start replays
        // less: so the previous image is read only when the newest is
        // missing or torn. CRC-valid images over a different base are
        // fatal.
        let mut image: Option<CheckpointImage> = None;
        for p in [&paths.ckpt, &paths.ckpt_prev] {
            if let Some(found) = CheckpointImage::read(p).map_err(wal_err)? {
                check_base(p, found.fingerprint, fp)?;
                image = Some(found);
                break;
            }
        }

        // Harvest records from both retained segments, read-only: nothing
        // on disk changes until every check below has passed. Duplicate
        // seqs (possible only transiently around rotation) are identical;
        // the newer segment wins the insert.
        let mut records: BTreeMap<u64, WalRecord> = BTreeMap::new();
        let mut current: Option<LogEnd> = None;
        for p in [&paths.wal_prev, &paths.wal] {
            if let Some((recs, end)) = Wal::read(p).map_err(wal_err)? {
                check_base(p, end.header().fingerprint, fp)?;
                records.extend(recs.into_iter().map(|r| (r.seq, r)));
                if p == &paths.wal {
                    current = Some(end);
                }
            }
        }

        // The chain starts at the image (or the base, seq 0) and runs as
        // far as the records stay contiguous.
        let start = image.as_ref().map_or(0, |i| i.seq);
        let mut head = start;
        while records.contains_key(&(head + 1)) {
            head += 1;
        }
        if let Some((&max_seq, _)) = records.last_key_value() {
            if max_seq > head {
                return Err(SpecError::Transaction(format!(
                    "recovery refused: commit {max_seq} is on disk but no retained \
                     checkpoint-plus-log chain reaches it contiguously (chain head {head}); \
                     a WAL segment or checkpoint is missing"
                )));
            }
        }
        if let Some(end) = current {
            // A current segment that starts past head+1 would leave a gap
            // no future recovery could bridge; one that ends before head
            // would log the next commits under seqs the chain already
            // holds, where the next recovery could not find them.
            if end.header().start_seq > head + 1 {
                return Err(SpecError::Transaction(format!(
                    "recovery refused: current WAL segment starts at {} but the \
                     recovered head is {head}; an intermediate segment is missing",
                    end.header().start_seq
                )));
            }
            if end.next_seq() != head + 1 {
                return Err(SpecError::Transaction(format!(
                    "recovery refused: current WAL segment {} would log the next commit \
                     as {} but the recovered head is {head}; the segment is older than \
                     the checkpoint or segment that reaches the head",
                    paths.wal.display(),
                    end.next_seq()
                )));
            }
        }

        // Restore: install the chosen image (if any), then replay the
        // suffix, rebuilding retained history along the way.
        if let Some(image) = &image {
            image.install(base.kb_mut());
        }
        let mut history: VecDeque<CommitRecord> = VecDeque::new();
        for seq in start + 1..=head {
            let record = &records[&seq];
            let kb = base.kb_mut();
            let gens_before = pre_commit_gens(kb, &record.delta);
            let epoch_before = kb.epoch();
            replay(std::slice::from_ref(record), kb);
            history.push_back(CommitRecord {
                seq,
                epoch_before,
                gens_before,
                delta: record.delta.clone(),
            });
            while history.len() > DEFAULT_HISTORY {
                history.pop_front();
            }
        }

        // Position the live segment for the next append, cutting a torn
        // tail; a missing one starts at head+1.
        let wal = match current {
            Some(end) => Wal::reopen(&paths.wal, end, opts.io_faults),
            None => {
                Wal::create_with_faults(&paths.wal, WalHeader::new(fp, head + 1), opts.io_faults)
            }
        }
        .map_err(wal_err)?;

        let store = SpecStore::new(base);
        {
            let mut state = store.state.lock();
            state.seq = head;
            state.history = history;
            state.durable = Some(DurableState {
                wal: Ok(wal),
                paths,
                fingerprint: fp,
                opts,
                since_checkpoint: head.saturating_sub(start),
            });
        }
        Ok((store, head))
    }

    /// Write a checkpoint of the current head on demand (and rotate the
    /// WAL). Returns the checkpointed sequence number. Errors on
    /// non-durable stores and on I/O failure — unlike the automatic
    /// cadence, an explicit request reports its outcome.
    pub fn checkpoint(&self) -> SpecResult<u64> {
        let spec = self.spec.read();
        let mut state = self.state.lock();
        if state.durable.is_none() {
            return Err(SpecError::Transaction(
                "checkpoint requested but the store has no write-ahead log".into(),
            ));
        }
        state.write_checkpoint(spec.kb()).map_err(wal_err)
    }

    /// The canonical fingerprint of the base image (durable stores only).
    pub fn base_fingerprint(&self) -> Option<u64> {
        self.state.lock().durable.as_ref().map(|d| d.fingerprint)
    }

    /// Sequence number of the newest commit (0 before the first).
    pub fn head_seq(&self) -> u64 {
        self.state.lock().seq
    }

    /// Run a read-only closure against the live specification (shared
    /// read lock — concurrent with other readers, excluded by writers).
    pub fn read<T>(&self, f: impl FnOnce(&Specification) -> T) -> T {
        f(&self.spec.read())
    }

    /// An MVCC snapshot pinned at the current head, tagged with its
    /// sequence number. O(#predicates); the clause store is shared
    /// copy-on-write with the live specification.
    pub fn snapshot(&self) -> (u64, Specification) {
        let spec = self.spec.read();
        let seq = self.state.lock().seq;
        (seq, spec.snapshot())
    }

    /// An MVCC snapshot pinned at commit `seq` (0 = the base image),
    /// reconstructed by un-applying the retained records newer than
    /// `seq`. Errors if those records are no longer retained (see
    /// [`DEFAULT_HISTORY`]) or `seq` is ahead of head.
    pub fn snapshot_at(&self, seq: u64) -> SpecResult<Specification> {
        let spec = self.spec.read();
        let newer: Vec<CommitRecord> = self.state.lock().newer_than(seq)?.cloned().collect();
        Ok(spec.snapshot_at(&newer))
    }

    /// The merged [`Delta`] of the commits between sequence numbers `a`
    /// and `b`, in either order: what changed from a view pinned at one
    /// to a view pinned at the other — the dirty set an incremental audit
    /// needs when its member cache was built at `a` and it now runs at
    /// `b`. Errors like [`SpecStore::snapshot_at`] when those records are
    /// no longer retained.
    pub fn delta_between(&self, a: u64, b: u64) -> SpecResult<Delta> {
        let state = self.state.lock();
        let mut delta = Delta::new();
        for record in state
            .newer_than(a.min(b))?
            .take_while(|r| r.seq <= a.max(b))
        {
            delta.merge(record.delta.clone());
        }
        Ok(delta)
    }

    /// Commit one transaction: take the write lock, open a transaction,
    /// run `f`, and commit — or roll back completely if `f` errors. On
    /// success the commit gets the next sequence number, its
    /// [`CommitRecord`] joins the retained history, and (durable stores)
    /// its delta is appended to the WAL and fsynced before this returns.
    ///
    /// `f` must confine itself to clause operations (assert / retract /
    /// define, declarations of objects and models, the world view):
    /// configuration changes inside a commit closure are neither recorded
    /// nor logged — route them through [`SpecStore::update`].
    ///
    /// The WAL append happens while the transaction is still open. A
    /// delta the log cannot hold (a term nested deeper than
    /// [`gdp_engine::MAX_TERM_DEPTH`]) is refused before anything is
    /// written: the transaction is rolled back and the log stays open.
    /// If the write or its fsync fails, the transaction is rolled back
    /// (the live store and head stay as they were) and the log is parked:
    /// the segment may now end in a torn record, so every later commit is
    /// refused until the operator restarts and recovers.
    pub fn commit<T>(
        &self,
        f: impl FnOnce(&mut Specification) -> SpecResult<T>,
    ) -> SpecResult<(Committed, T)> {
        let mut spec = self.spec.write();
        let mut state = self.state.lock();
        if let Some(DurableState {
            wal: Err(cause), ..
        }) = state.durable.as_ref()
        {
            return Err(SpecError::Transaction(format!(
                "write-ahead log unavailable ({cause}); restart the server to recover"
            )));
        }
        let epoch_before = spec.kb().epoch();
        let gens: FxHashMap<PredKey, u64> = spec.kb().generations().collect();
        spec.begin_txn()?;
        let value = match f(&mut spec) {
            Ok(v) => v,
            Err(e) => {
                spec.rollback_txn()?;
                return Err(e);
            }
        };
        let seq = state.seq + 1;
        let mut checkpoint_due = false;
        if let Some(d) = state.durable.as_mut() {
            let wal = d.wal.as_mut().expect("checked above");
            let record = match wal.encode_next(spec.txn_delta()?) {
                Ok(record) => record,
                Err(e) => {
                    // Refused before anything was written: the log is
                    // still clean, so only this commit fails.
                    spec.rollback_txn()?;
                    return Err(SpecError::Transaction(format!(
                        "write-ahead log: commit {seq} was rolled back: {e}"
                    )));
                }
            };
            if let Err(e) = wal.append_encoded(&record) {
                spec.rollback_txn()?;
                d.wal = Err(format!("appending commit {seq} failed: {e}"));
                return Err(SpecError::Transaction(format!(
                    "write-ahead log: appending commit {seq} failed: {e}; the commit was \
                     rolled back and the log is parked until restart"
                )));
            }
            d.since_checkpoint += 1;
            checkpoint_due = d
                .opts
                .checkpoint_interval
                .is_some_and(|n| d.since_checkpoint >= n);
        }
        let delta = spec.commit_txn()?;
        let mut gens_before: Vec<(PredKey, u64)> = delta
            .dirty_preds()
            .into_iter()
            .map(|k| (k, gens.get(&k).copied().unwrap_or(0)))
            .collect();
        gens_before.sort_by_key(|g| (g.0.name.as_str(), g.0.arity));
        state.history.push_back(CommitRecord {
            seq,
            epoch_before,
            gens_before,
            delta: delta.clone(),
        });
        while state.history.len() > state.cap {
            state.history.pop_front();
        }
        state.seq = seq;
        if checkpoint_due {
            // The commit is already durable in the WAL; a failed image
            // must not un-acknowledge it. Report and retry at the next
            // interval (rotation failures additionally park the WAL,
            // which the pre-commit check above turns into hard errors).
            if let Err(e) = state.write_checkpoint(spec.kb()) {
                eprintln!("gdp-store: checkpoint at seq {seq} failed: {e}");
            }
        }
        Ok((Committed { seq, delta }, value))
    }

    /// Run a configuration change (tabling, domain declarations, index
    /// layout, …) against the live specification. Not logged, and
    /// retained history is cleared: snapshots of earlier sequences would
    /// otherwise resurrect old clauses under the *new* configuration.
    /// Head-pinned snapshots keep working.
    pub fn update<T>(&self, f: impl FnOnce(&mut Specification) -> SpecResult<T>) -> SpecResult<T> {
        let mut spec = self.spec.write();
        let mut state = self.state.lock();
        let value = f(&mut spec)?;
        state.history.clear();
        Ok(value)
    }
}

/// The pre-commit generations of the predicates `delta` dirties
/// (restricted, sorted for determinism).
fn pre_commit_gens(kb: &gdp_engine::KnowledgeBase, delta: &Delta) -> Vec<(PredKey, u64)> {
    let mut gens: Vec<(PredKey, u64)> = delta
        .dirty_preds()
        .into_iter()
        .map(|k| (k, kb.generation(k)))
        .collect();
    gens.sort_by_key(|g| (g.0.name.as_str(), g.0.arity));
    gens
}

/// The base image's fingerprint, or why it has none.
fn base_fingerprint(kb: &KnowledgeBase) -> SpecResult<u64> {
    fingerprint(kb).map_err(|e| {
        SpecError::Transaction(format!(
            "write-ahead log: the base image cannot be logged: {e}"
        ))
    })
}

fn wal_err(e: std::io::Error) -> SpecError {
    SpecError::Transaction(format!("write-ahead log: {e}"))
}

/// Refuse a log or image at `path` created over a different base image.
fn check_base(path: &Path, found: u64, expected: u64) -> SpecResult<()> {
    if found == expected {
        return Ok(());
    }
    Err(SpecError::Transaction(format!(
        "recovery refused: {} was created over a different base image \
         (its fingerprint is {found:016x}, this base hashes to {expected:016x}); \
         the --load files or base setup changed since the log was created",
        path.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::FactPat;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gdp-store-{tag}-{}.wal", std::process::id()));
        p
    }

    fn base() -> Specification {
        let mut spec = Specification::new();
        spec.assert_fact(FactPat::new("road").arg("r1")).unwrap();
        spec
    }

    fn road_count(spec: &Specification) -> usize {
        spec.query(FactPat::new("road").arg("X")).unwrap().len()
    }

    #[test]
    fn store_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SpecStore>();
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let store = SpecStore::new(base());
        let (seq, snap) = store.snapshot();
        assert_eq!(seq, 0);
        store
            .commit(|spec| spec.assert_fact(FactPat::new("road").arg("r2")))
            .unwrap();
        assert_eq!(road_count(&snap), 1);
        assert_eq!(store.read(road_count), 2);
    }

    #[test]
    fn snapshot_at_rewinds_to_any_retained_seq() {
        let store = SpecStore::new(base());
        for i in 2..=5 {
            store
                .commit(|spec| spec.assert_fact(FactPat::new("road").arg(format!("r{i}").as_str())))
                .unwrap();
        }
        for seq in 0..=4 {
            let snap = store.snapshot_at(seq).unwrap();
            assert_eq!(road_count(&snap), seq as usize + 1, "at seq {seq}");
            assert!(snap.kb().check_index_integrity().is_ok());
        }
        assert!(store.snapshot_at(99).is_err());
    }

    #[test]
    fn failed_commit_rolls_back_completely() {
        let store = SpecStore::new(base());
        let err = store.commit(|spec| {
            spec.assert_fact(FactPat::new("road").arg("r2"))?;
            Err::<(), _>(SpecError::UnknownModel("nope".into()))
        });
        assert!(err.is_err());
        assert_eq!(store.head_seq(), 0);
        assert_eq!(store.read(road_count), 1);
    }

    #[test]
    fn recover_reproduces_live_store() {
        let path = temp_path("recover");
        let _ = std::fs::remove_file(&path);
        let store = SpecStore::create_wal(base(), &path).unwrap();
        for i in 2..=4 {
            store
                .commit(|spec| spec.assert_fact(FactPat::new("road").arg(format!("r{i}").as_str())))
                .unwrap();
        }
        let live_epoch = store.read(|s| s.kb().epoch());
        drop(store);
        let (recovered, replayed) = SpecStore::recover(base(), &path).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(recovered.head_seq(), 3);
        assert_eq!(recovered.read(road_count), 4);
        assert_eq!(recovered.read(|s| s.kb().epoch()), live_epoch);
        // History was rebuilt: pinned snapshots work across the restart.
        assert_eq!(road_count(&recovered.snapshot_at(1).unwrap()), 2);
        // And the recovered store can keep committing to the same log.
        recovered
            .commit(|spec| spec.assert_fact(FactPat::new("road").arg("r5")))
            .unwrap();
        assert_eq!(recovered.head_seq(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn update_clears_history_but_head_snapshots_survive() {
        let store = SpecStore::new(base());
        store
            .commit(|spec| spec.assert_fact(FactPat::new("road").arg("r2")))
            .unwrap();
        store
            .update(|spec| {
                spec.declare_model("m1");
                Ok(())
            })
            .unwrap();
        assert!(store.snapshot_at(0).is_err());
        let (seq, snap) = store.snapshot();
        assert_eq!(seq, 1);
        assert_eq!(road_count(&snap), 2);
    }
}
