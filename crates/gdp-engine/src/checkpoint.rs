//! Crash-safe checkpoint images of a full knowledge base.
//!
//! A WAL alone makes recovery cost proportional to *total history*: every
//! commit since the base image must be replayed, and the base must be
//! rebuilt exactly as it was when the log was created. A checkpoint bounds
//! both. Every N commits (or on demand) the serving layer serializes the
//! entire knowledge base — clause lists in order, per-predicate generation
//! counters, modification epoch — into a single checksummed image, and
//! recovery becomes *newest valid checkpoint + WAL suffix*.
//!
//! ## File format
//!
//! One record, same framing as a WAL record:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload = magic "GDPC", version: u32 LE, fingerprint: u64 LE,
//!           seq: u64 LE, epoch: u64 LE, names,
//!           pred_count: u32, (key, clause_count: u32, clause*)*,
//!           gen_count: u32, (key, generation: u64)*
//! ```
//!
//! Predicates are sorted by `(name, arity)` so the image is canonical;
//! clause lists keep assertion order (clause positions are observable
//! through solution order). Clauses use the WAL's codec (`codec.rs`):
//! `names` lists the distinct names the image uses, in first-use order,
//! and every atom, functor, clause group and predicate key is a `u32`
//! index into it, so the image is portable across processes with
//! different symbol-interning orders. The image is encoded straight
//! into the buffer that is written: its length and CRC are patched in
//! place once the payload is complete. Version 2 brought the names
//! table; a CRC-valid image of another version is refused with an error
//! naming both versions, not taken for a torn one.
//!
//! ## Torn images
//!
//! Checkpoints are written to a temporary file, synced, and renamed into
//! place, so a crash mid-checkpoint leaves the previous image intact. If
//! an image is torn or corrupt anyway (CRC mismatch, truncated payload),
//! [`CheckpointImage::read`] returns `Ok(None)` and recovery falls back
//! to an older checkpoint, then to the base image — corruption degrades
//! recovery time, never correctness. A CRC-*valid* image whose
//! [`fingerprint`] does not match the base it is being restored against
//! is different: that means the operator changed the base (`--load`
//! files) between runs, and the store reports a hard error instead of
//! silently diverging.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::chaos::{ChaosFile, IoFaultConfig};
use crate::codec::{self, Cursor, TooDeep, Writer, KEY, MIN_CLAUSE};
use crate::delta::DeltaOp;
use crate::kb::{Clause, KnowledgeBase, PredKey};

const MAGIC: &[u8; 4] = b"GDPC";
const VERSION: u32 = 2;

/// Every stored predicate with its clauses, sorted by `(name, arity)`.
type Preds = Vec<(PredKey, Vec<Arc<Clause>>)>;

/// Canonical content hash of a knowledge base: FNV-1a 64 over the coded
/// sorted predicates — the codec and traversal of a checkpoint image's
/// clause section, with its own names table. Names are listed in
/// first-use order over that sorted traversal, which no process's
/// interning order can change, so the hash is stable across processes.
/// This is the *base fingerprint* stamped into both WAL headers and
/// checkpoint images: recovery refuses to proceed when the base it was
/// handed hashes differently from the base the log and checkpoints were
/// created over. Validity counters (generations, epoch) are deliberately
/// excluded — the fingerprint identifies stored content, which is what
/// replay positions depend on. Errs when a clause nests deeper than
/// [`crate::MAX_TERM_DEPTH`], which no image could hold either.
pub fn fingerprint(kb: &KnowledgeBase) -> Result<u64, TooDeep> {
    let mut bytes = Vec::new();
    let preds = collect_preds(kb);
    codec::encode(&mut bytes, |w| walk_preds(w, &preds))?;
    Ok(codec::fnv1a(&bytes))
}

fn collect_preds(kb: &KnowledgeBase) -> Preds {
    let mut keys: Vec<PredKey> = kb.stored_preds().collect();
    keys.sort_by_cached_key(|k| (k.name.as_str(), k.arity));
    keys.into_iter().map(|k| (k, kb.clauses_of(k))).collect()
}

fn walk_preds(w: &mut Writer<'_>, preds: &[(PredKey, Vec<Arc<Clause>>)]) -> Result<(), TooDeep> {
    w.u32(preds.len() as u32);
    for (key, clauses) in preds {
        w.key(*key);
        w.u32(clauses.len() as u32);
        for clause in clauses {
            w.clause(clause)?;
        }
    }
    Ok(())
}

/// A decoded (or freshly captured) checkpoint: the full stored content of
/// a knowledge base as of commit `seq`, plus the validity counters needed
/// to make a restored KB indistinguishable from the live one.
#[derive(Debug)]
pub struct CheckpointImage {
    /// [`fingerprint`] of the *base image* the owning WAL chain replays
    /// over — not of this checkpoint's content.
    pub fingerprint: u64,
    /// The last commit sequence number folded into this image. Recovery
    /// resumes WAL replay at `seq + 1`.
    pub seq: u64,
    /// Modification epoch of the live KB when the image was taken.
    pub epoch: u64,
    preds: Preds,
    generations: Vec<(PredKey, u64)>,
}

impl CheckpointImage {
    /// Capture the live KB as a checkpoint of commit `seq` under the base
    /// fingerprint `fp`.
    pub fn capture(kb: &KnowledgeBase, fp: u64, seq: u64) -> CheckpointImage {
        let mut generations: Vec<(PredKey, u64)> = kb.generations().collect();
        generations.sort_by_cached_key(|(k, _)| (k.name.as_str(), k.arity));
        CheckpointImage {
            fingerprint: fp,
            seq,
            epoch: kb.epoch(),
            preds: collect_preds(kb),
            generations,
        }
    }

    /// The image framed as [`CheckpointImage::write`] writes it. Errors
    /// (of kind [`io::ErrorKind::InvalidInput`]) when a clause nests
    /// deeper than [`crate::MAX_TERM_DEPTH`] or the payload outgrows the
    /// length field.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        let start = codec::begin_frame(&mut buf);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for field in [self.fingerprint, self.seq, self.epoch] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        codec::encode(&mut buf, |w| {
            walk_preds(w, &self.preds)?;
            w.u32(self.generations.len() as u32);
            for (key, generation) in &self.generations {
                w.key(*key);
                w.u64(*generation);
            }
            Ok(())
        })?;
        codec::end_frame(&mut buf, start, "checkpoint payload")?;
        Ok(buf)
    }

    /// Decode a framed image. `Ok(None)` when it is torn or corrupt: a
    /// short frame, a CRC mismatch, a malformed payload, trailing bytes
    /// inside the payload. A CRC-valid image of another format version
    /// is an error naming both versions. Never panics, and allocates no
    /// more than the payload's own bytes can account for.
    pub fn decode(buf: &[u8]) -> io::Result<Option<CheckpointImage>> {
        let Some(payload) = codec::frame(buf) else {
            return Ok(None);
        };
        let mut cur = Cursor::new(payload);
        if cur.take(4) != Some(&MAGIC[..]) {
            return Ok(None);
        }
        match cur.u32() {
            Some(VERSION) => Ok(decode_body(cur)),
            Some(found) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint image is format version {found}, but this build \
                     reads only version {VERSION}"
                ),
            )),
            None => Ok(None),
        }
    }

    /// Write the image to `path` atomically: serialize to `path` + `.tmp`,
    /// sync, rename into place, sync the parent directory. A crash at any
    /// byte leaves either the old image or the new one, never a blend —
    /// the rename is the commit point.
    pub fn write(&self, path: &Path, faults: Option<IoFaultConfig>) -> io::Result<()> {
        let record = self.encode()?;
        let tmp = tmp_path(path);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut file = ChaosFile::new(file, faults);
        file.write_all(&record)?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    }

    /// Read an image back. `Ok(None)` when the file does not exist *or*
    /// is torn/corrupt (bad CRC, truncated or malformed payload) — the
    /// caller falls back to an older checkpoint or the base. Real I/O
    /// failures and images of another format version surface as errors;
    /// fingerprint checking is the caller's job (it knows the base, the
    /// image only reports it).
    pub fn read(path: &Path) -> io::Result<Option<CheckpointImage>> {
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        CheckpointImage::decode(&buf)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// Replace `kb`'s stored content and validity counters with this
    /// image's. `kb` carries configuration (tabling, strictness, index
    /// layout) from base setup; only clauses, generations, and epoch are
    /// overwritten. After install, `kb` is
    /// [`KnowledgeBase::content_eq`] to the KB the image was captured
    /// from.
    pub fn install(&self, kb: &mut KnowledgeBase) {
        let existing: Vec<PredKey> = kb.stored_preds().collect();
        for key in existing {
            kb.retract_predicate(key);
        }
        for (key, clauses) in &self.preds {
            for clause in clauses {
                kb.apply_op(DeltaOp::Assert {
                    key: *key,
                    clause: Arc::clone(clause),
                });
            }
        }
        kb.restore_validity(self.generations.iter().copied(), self.epoch);
    }
}

/// The rest of a version-2 payload, past its magic and version.
fn decode_body(mut cur: Cursor<'_>) -> Option<CheckpointImage> {
    let fingerprint = cur.u64()?;
    let seq = cur.u64()?;
    let epoch = cur.u64()?;
    cur.names()?;
    let pred_count = cur.count(KEY + 4)?;
    let mut preds = Vec::with_capacity(pred_count);
    for _ in 0..pred_count {
        let key = cur.key()?;
        let clause_count = cur.count(MIN_CLAUSE)?;
        let mut clauses = Vec::with_capacity(clause_count);
        for _ in 0..clause_count {
            clauses.push(cur.clause()?);
        }
        preds.push((key, clauses));
    }
    let gen_count = cur.count(KEY + 8)?;
    let mut generations = Vec::with_capacity(gen_count);
    for _ in 0..gen_count {
        let key = cur.key()?;
        generations.push((key, cur.u64()?));
    }
    // Trailing garbage inside a "valid" payload is corruption too.
    cur.finished().then_some(CheckpointImage {
        fingerprint,
        seq,
        epoch,
        preds,
        generations,
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Make a rename durable: fsync the directory holding `path`. Without
/// this, a crash after rename can resurrect the old directory entry.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::GroupId;
    use crate::term::Term;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gdp-ckpt-test-{tag}-{}", std::process::id()));
        p
    }

    fn sample_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.assert_fact(Term::pred("road", vec![Term::atom("s1")]));
        kb.assert_fact(Term::pred("road", vec![Term::atom("s2")]));
        kb.assert_clause_in(
            GroupId::named("m1"),
            Term::pred("soil", vec![Term::var(0), Term::float(0.5)]),
            Term::pred("road", vec![Term::var(0)]),
        );
        kb.assert_fact(Term::pred("label", vec![Term::str("x-17"), Term::int(17)]));
        kb.retract_fact(&Term::pred("road", vec![Term::atom("s2")]));
        kb
    }

    #[test]
    fn capture_write_read_install_roundtrip() {
        let path = temp_path("roundtrip");
        let live = sample_kb();
        let fp = fingerprint(&KnowledgeBase::new()).unwrap();
        let image = CheckpointImage::capture(&live, fp, 7);
        image.write(&path, None).unwrap();
        let read = CheckpointImage::read(&path).unwrap().expect("valid image");
        assert_eq!(read.fingerprint, fp);
        assert_eq!(read.seq, 7);
        let mut restored = KnowledgeBase::new();
        read.install(&mut restored);
        assert!(restored.content_eq(&live), "install != captured KB");
        restored.check_index_integrity().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn install_replaces_existing_content() {
        let path = temp_path("replace");
        let live = sample_kb();
        let image = CheckpointImage::capture(&live, 1, 3);
        image.write(&path, None).unwrap();
        let mut target = KnowledgeBase::new();
        target.assert_fact(Term::pred("stale", vec![Term::atom("x")]));
        CheckpointImage::read(&path)
            .unwrap()
            .unwrap()
            .install(&mut target);
        assert!(target.content_eq(&live));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_image_reads_as_none_at_every_cut() {
        let path = temp_path("torn");
        let live = sample_kb();
        let image = CheckpointImage::capture(&live, 1, 1);
        image.write(&path, None).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                CheckpointImage::read(&path).unwrap().is_none(),
                "cut at {cut} accepted"
            );
        }
        // Flipping any single byte must also be rejected.
        for i in 0..full.len() {
            let mut bytes = full.clone();
            bytes[i] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                CheckpointImage::read(&path).unwrap().is_none(),
                "flip at {i} accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_content_not_history() {
        let mut a = KnowledgeBase::new();
        a.assert_fact(Term::pred("p", vec![Term::atom("x")]));
        let mut b = KnowledgeBase::new();
        b.assert_fact(Term::pred("p", vec![Term::atom("x")]));
        b.assert_fact(Term::pred("q", vec![Term::atom("y")]));
        b.retract_fact(&Term::pred("q", vec![Term::atom("y")]));
        // q was fully retracted: only stored content counts. (Note the
        // counters differ; the fingerprint deliberately ignores them.)
        assert_ne!(fingerprint(&a), fingerprint(&KnowledgeBase::new()));
        let mut c = KnowledgeBase::new();
        c.assert_fact(Term::pred("p", vec![Term::atom("y")]));
        assert_ne!(fingerprint(&a), fingerprint(&c), "different arg");
        assert_eq!(fingerprint(&a), fingerprint(&b), "same stored content");
    }

    #[test]
    fn missing_file_reads_as_none() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        assert!(CheckpointImage::read(&path).unwrap().is_none());
    }
}
