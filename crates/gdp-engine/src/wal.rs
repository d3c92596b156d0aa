//! Durable write-ahead log of committed [`DeltaOp`](crate::DeltaOp) batches.
//!
//! The paper's "map data revision" workload makes the knowledge base a
//! *living* store; a serving layer that accepts revisions over a socket
//! must not lose an acknowledged commit to a crash. The WAL is the
//! standard answer: before a commit is acknowledged, its delta is appended
//! to an append-only log and the file is synced; recovery replays the log
//! over the same base state through [`KnowledgeBase::apply_op`], the
//! function every live edit goes through, and so reproduces the live
//! knowledge base exactly (clause order, incremental indexes, generation
//! counters).
//!
//! ## Record format
//!
//! Every committed transaction is one record:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload = seq: u64 LE, names, op_count: u32 LE, op*
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. `names` opens the coded
//! part: the distinct names the record uses, in first-use order, which
//! every atom, functor, clause group and predicate key then refers to by
//! a `u32` index (the shared codec in `codec.rs`, also used by checkpoint
//! images). Operations serialize the [`DeltaOp`](crate::DeltaOp) variants
//! with a one-byte tag. A term nested deeper than
//! [`crate::MAX_TERM_DEPTH`] makes a record malformed, and
//! [`Wal::encode_next`] refuses to frame one.
//!
//! ## Header
//!
//! Every log opens with a fixed 28-byte header (since format version 2;
//! version 3 brought the names table):
//!
//! ```text
//! [magic "GDPW"] [version: u32 LE] [fingerprint: u64 LE]
//! [start_seq: u64 LE] [crc32: u32 LE over the first 24 bytes]
//! ```
//!
//! `fingerprint` is a canonical hash of the *base image* the log's
//! records replay over (see [`crate::checkpoint::fingerprint`]): recovery
//! refuses to replay a log whose base was built differently — a changed
//! `--load` file becomes a hard error instead of silent divergence.
//! `start_seq` is the sequence number of the log's first record; a log
//! rotated at a checkpoint starts where the checkpoint ends, so disk and
//! recovery time stay proportional to the checkpoint interval, not to
//! total history.
//!
//! ## Torn-tail policy
//!
//! A crash mid-append leaves a torn record at the tail: a length running
//! past end-of-file, a checksum mismatch, or a sequence number that does
//! not continue the chain. [`Wal::read`] treats the first such record as
//! the end of the log — everything before it is returned as the recovered
//! prefix — and [`Wal::reopen`] truncates the file back to that point so
//! the next append continues from a clean boundary. Torn tails are
//! *expected*, not fatal: the commit they belonged to was never
//! acknowledged. A torn *header* on a non-empty file is different: the
//! header is synced before the first append, so it can only mean
//! out-of-band corruption, and it is reported as an error rather than
//! silently starting a fresh chain. So is a sound header of another
//! format version, naming both versions: this build cannot replay that
//! log, and a torn create it is not.

use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use crate::chaos::{ChaosFile, IoFaultConfig};
use crate::codec::{self, Cursor};
use crate::delta::Delta;
use crate::kb::KnowledgeBase;

const MAGIC: &[u8; 4] = b"GDPW";
const VERSION: u32 = 3;
const HEADER_LEN: usize = 28;
/// Fewest bytes an operation can take (a retracted group with no clauses).
const MIN_OP: usize = 1 + 4 + 4;

/// One framed record, ready to append. Errors (of kind
/// [`io::ErrorKind::InvalidInput`]) when a term nests too deep or the
/// delta is too large for the format.
fn encode_record(seq: u64, delta: &Delta) -> io::Result<Vec<u8>> {
    if u32::try_from(delta.len()).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "delta of {} operations overflows the WAL op-count field",
                delta.len()
            ),
        ));
    }
    let mut record = Vec::new();
    let start = codec::begin_frame(&mut record);
    record.extend_from_slice(&seq.to_le_bytes());
    codec::encode(&mut record, |w| {
        w.u32(delta.len() as u32);
        for op in delta.ops() {
            w.op(op)?;
        }
        Ok(())
    })?;
    codec::end_frame(&mut record, start, "delta payload")?;
    Ok(record)
}

/// One recovered commit: its sequence number and the committed delta.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Commit sequence number (1-based, strictly consecutive in a log).
    pub seq: u64,
    /// The committed operations, oldest first.
    pub delta: Delta,
}

impl WalRecord {
    /// Decode one framed record from the front of `buf`: the record and
    /// the bytes its frame takes. `None` when the frame is torn, fails
    /// its checksum, or holds a malformed payload — which a log treats
    /// as the end of its valid prefix. Never panics, and allocates no
    /// more than the payload's own bytes can account for.
    pub fn decode(buf: &[u8]) -> Option<(WalRecord, usize)> {
        let payload = codec::frame(buf)?;
        let mut cur = Cursor::new(payload);
        let seq = cur.u64()?;
        cur.names()?;
        let n = cur.count(MIN_OP)?;
        let mut delta = Delta::new();
        for _ in 0..n {
            delta.push(cur.op()?);
        }
        cur.finished()
            .then_some((WalRecord { seq, delta }, 8 + payload.len()))
    }

    /// This record framed as [`Wal::append`] writes it.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        encode_record(self.seq, &self.delta)
    }
}

/// The self-describing header every log starts with: the canonical
/// fingerprint of the base image its records replay over, and the
/// sequence number of its first record (1 for a fresh log; a rotated
/// segment starts just past the checkpoint it was rotated at).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalHeader {
    /// Canonical hash of the base image (see
    /// [`crate::checkpoint::fingerprint`]).
    pub fingerprint: u64,
    /// Sequence number of the first record in this log.
    pub start_seq: u64,
}

impl WalHeader {
    /// A header for a fresh (unrotated) log over `fingerprint`'s base.
    pub fn new(fingerprint: u64, start_seq: u64) -> WalHeader {
        WalHeader {
            fingerprint,
            start_seq,
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[0..4].copy_from_slice(MAGIC);
        bytes[4..8].copy_from_slice(&VERSION.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.fingerprint.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.start_seq.to_le_bytes());
        let crc = codec::crc32(&bytes[0..24]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<WalHeader, HeaderFault> {
        let Some(bytes) = bytes.get(0..HEADER_LEN) else {
            return Err(HeaderFault::Corrupt);
        };
        let word = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let dword = |at: usize| u64::from(word(at)) | u64::from(word(at + 4)) << 32;
        if &bytes[0..4] != MAGIC || codec::crc32(&bytes[0..24]) != word(24) {
            return Err(HeaderFault::Corrupt);
        }
        match word(4) {
            VERSION => Ok(WalHeader {
                fingerprint: dword(8),
                start_seq: dword(16),
            }),
            other => Err(HeaderFault::Version(other)),
        }
    }
}

/// Why a header does not open a log this build can read.
enum HeaderFault {
    /// Not a GDP WAL header, or a damaged one.
    Corrupt,
    /// A sound header of another format version.
    Version(u32),
}

/// The header of a log file's bytes. `Ok(None)` for an empty file or a
/// *torn create* — a crash mid-way through writing the initial header.
/// The header is written and synced before any record, so an invalid
/// header on a file no longer than the header itself cannot cover
/// committed data and is safe to treat as an empty log. An invalid
/// header on a *longer* file means out-of-band corruption of a segment
/// that may hold records, and a sound header of another format version
/// means a log this build cannot replay: both are errors.
fn read_header(path: &Path, buf: &[u8]) -> io::Result<Option<WalHeader>> {
    match WalHeader::decode(buf) {
        Ok(header) => Ok(Some(header)),
        Err(HeaderFault::Corrupt) if buf.len() <= HEADER_LEN => Ok(None),
        Err(HeaderFault::Corrupt) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "write-ahead log {} has a corrupt header (not a GDP WAL, \
                 or damaged out of band)",
                path.display()
            ),
        )),
        Err(HeaderFault::Version(found)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "write-ahead log {} is format version {found}, but this build \
                 reads only version {VERSION}",
                path.display()
            ),
        )),
    }
}

/// Where a log that [`Wal::read`] read stands: what [`Wal::reopen`]
/// needs to append to it without decoding it again.
#[derive(Clone, Copy, Debug)]
pub struct LogEnd {
    header: WalHeader,
    next_seq: u64,
    /// Bytes of the header and the valid record prefix.
    valid_len: u64,
    /// Bytes in the file; past `valid_len` they are a torn tail.
    file_len: u64,
}

impl LogEnd {
    /// The log's header.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// The sequence number the log's next record takes.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Parse the longest valid record prefix of `buf` past the header,
/// starting at `start_seq`. Returns the records and the byte offset of
/// the first torn/invalid position (the clean append point).
fn parse_records(buf: &[u8], start_seq: u64) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut good = HEADER_LEN;
    // A torn or corrupt frame, a malformed payload, or a sequence
    // discontinuity all end the prefix: nothing past them is replayed.
    while let Some((record, len)) = WalRecord::decode(&buf[good..]) {
        if record.seq != start_seq + records.len() as u64 {
            break;
        }
        records.push(record);
        good += len;
    }
    (records, good)
}

/// An open write-ahead log, positioned for appending.
///
/// Appends are length-prefixed, checksummed, and synced to disk
/// (`sync_data`) before [`Wal::append`] returns — the commit boundary
/// *is* the fsync. All writes go through a [`ChaosFile`], so the
/// `GDP_CHAOS` disk-fault grammar can tear any byte of any record. See
/// the module docs for the format and the torn-tail policy.
#[derive(Debug)]
pub struct Wal {
    file: ChaosFile,
    header: WalHeader,
    next_seq: u64,
}

impl Wal {
    /// Create a fresh, empty log at `path`, truncating anything there,
    /// with a disk-fault injection point under every write when `faults`
    /// names one. The header is written and synced immediately: an empty
    /// log is already self-describing.
    pub fn create(
        path: &Path,
        header: WalHeader,
        faults: Option<IoFaultConfig>,
    ) -> io::Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut file = ChaosFile::new(file, faults);
        file.write_all(&header.encode())?;
        file.sync_data()?;
        Ok(Wal {
            file,
            next_seq: header.start_seq,
            header,
        })
    }

    /// Open the log at `path`, which [`Wal::read`] found to end at `end`,
    /// for appending: truncate its torn tail, if any, and position past
    /// its valid prefix. Nothing is decoded again, and reads are never
    /// faulted; `faults` arms a disk fault under every later write.
    pub fn reopen(path: &Path, end: LogEnd, faults: Option<IoFaultConfig>) -> io::Result<Wal> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut file = ChaosFile::new(file, faults);
        if end.valid_len < end.file_len {
            file.set_len(end.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(end.valid_len))?;
        Ok(Wal {
            file,
            header: end.header,
            next_seq: end.next_seq,
        })
    }

    /// Read a log without touching it: the longest valid record prefix
    /// and where it ends. `Ok(None)` when the file does not exist, is
    /// empty, or holds a torn create; a corrupt header on a longer file,
    /// or a header of another format version, is an error (see the
    /// module docs). The caller checks the header's fingerprint against
    /// its base image: the log knows what it was created over, only the
    /// caller knows what it is replaying onto.
    pub fn read(path: &Path) -> io::Result<Option<(Vec<WalRecord>, LogEnd)>> {
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Some(header) = read_header(path, &buf)? else {
            return Ok(None);
        };
        let (records, good) = parse_records(&buf, header.start_seq);
        let end = LogEnd {
            header,
            next_seq: header.start_seq + records.len() as u64,
            valid_len: good as u64,
            file_len: buf.len() as u64,
        };
        Ok(Some((records, end)))
    }

    /// The header this log was created with.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// The sequence number the next [`Wal::append`] will write.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frame `delta` as the record [`Wal::append_encoded`] writes next.
    /// An error here is a refusal, and nothing is written: the delta
    /// holds a term nested deeper than [`crate::MAX_TERM_DEPTH`], more
    /// than `u32::MAX` operations, or a payload past `u32::MAX` bytes.
    pub fn encode_next(&self, delta: &Delta) -> io::Result<Vec<u8>> {
        encode_record(self.next_seq, delta)
    }

    /// Append a record that [`Wal::encode_next`] framed, and sync the
    /// file. The record is only durable — and the commit only
    /// acknowledgeable — once this returns. After an error the file may
    /// hold any prefix of the record, or all of it. A record framed for
    /// another seq is an error, and nothing is written.
    pub fn append_encoded(&mut self, record: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        if record.get(8..16) != Some(&seq.to_le_bytes()[..]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a record not framed as commit {seq} was handed to the log"),
            ));
        }
        self.file.write_all(record)?;
        self.file.sync_data()?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// [`Wal::encode_next`], then [`Wal::append_encoded`]. A caller that
    /// must tell a refused delta from a failed write calls the two.
    pub fn append(&mut self, delta: &Delta) -> io::Result<u64> {
        let record = self.encode_next(delta)?;
        self.append_encoded(&record)
    }
}

/// Replay recovered records into `kb`, oldest first. `kb` must be in the
/// same state the live KB was in when the log was created (the serving
/// layer opens its WAL right after base setup); replay then reproduces the
/// live store exactly — clause order, incremental indexes, generation
/// counters and epoch included — because every op goes through
/// [`KnowledgeBase::apply_op`], as it did live.
pub fn replay(records: &[WalRecord], kb: &mut KnowledgeBase) {
    for record in records {
        for op in record.delta.ops() {
            kb.apply_op(op.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{GroupId, PredKey};
    use crate::term::Term;

    fn fact(name: &str, arg: &str) -> Term {
        Term::pred(name, vec![Term::atom(arg)])
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gdp-wal-test-{tag}-{}", std::process::id()));
        p
    }

    fn committed_ops(kb: &mut KnowledgeBase, f: impl FnOnce(&mut KnowledgeBase)) -> Delta {
        kb.begin_delta();
        f(kb);
        kb.end_delta().expect("recording")
    }

    /// A fresh-log header for tests that don't exercise fingerprints.
    fn hdr() -> WalHeader {
        WalHeader::new(0xFEED, 1)
    }

    /// Recover the log at `path` as a restart does: read its valid
    /// prefix, then reopen it for appending.
    fn recover(path: &Path) -> (Wal, Vec<WalRecord>) {
        let (records, end) = Wal::read(path).unwrap().expect("a log");
        (Wal::reopen(path, end, None).unwrap(), records)
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let path = temp_path("roundtrip");
        let mut live = KnowledgeBase::new();
        let mut wal = Wal::create(&path, hdr(), None).unwrap();
        let d1 = committed_ops(&mut live, |kb| {
            kb.assert_fact(fact("road", "s1"));
            kb.assert_fact(fact("road", "s2"));
            kb.assert_clause_in(
                GroupId::named("m1"),
                Term::pred("soil", vec![Term::var(0), Term::float(0.5)]),
                Term::pred("road", vec![Term::var(0)]),
            );
            kb.assert_fact(Term::pred("label", vec![Term::str("x-17"), Term::int(17)]));
        });
        wal.append(&d1).unwrap();
        let d2 = committed_ops(&mut live, |kb| {
            assert!(kb.retract_fact(&fact("road", "s1")));
            kb.retract_group(GroupId::named("m1"));
            kb.retract_predicate(PredKey::new("label", 2));
        });
        wal.append(&d2).unwrap();
        drop(wal);

        let (wal, records) = recover(&path);
        assert_eq!(records.len(), 2);
        assert_eq!(wal.next_seq(), 3);
        let mut recovered = KnowledgeBase::new();
        replay(&records, &mut recovered);
        assert!(recovered.content_eq(&live), "recover(log) != live KB");
        recovered.check_index_integrity().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_path("torn");
        let mut live = KnowledgeBase::new();
        let mut wal = Wal::create(&path, hdr(), None).unwrap();
        let d1 = committed_ops(&mut live, |kb| kb.assert_fact(fact("p", "a")));
        wal.append(&d1).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        let d2 = committed_ops(&mut live, |kb| kb.assert_fact(fact("p", "b")));
        wal.append(&d2).unwrap();
        drop(wal);
        // Crash mid-append of the second record: cut three bytes off.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (mut wal, records) = recover(&path);
        assert_eq!(records.len(), 1, "only the intact prefix is recovered");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        // The log stays appendable from the clean boundary.
        assert_eq!(wal.append(&d2).unwrap(), 2);
        let (_, records) = recover(&path);
        assert_eq!(records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = temp_path("crc");
        let mut live = KnowledgeBase::new();
        let mut wal = Wal::create(&path, hdr(), None).unwrap();
        let d1 = committed_ops(&mut live, |kb| kb.assert_fact(fact("p", "a")));
        wal.append(&d1).unwrap();
        let d2 = committed_ops(&mut live, |kb| kb.assert_fact(fact("p", "b")));
        wal.append(&d2).unwrap();
        drop(wal);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, _) = Wal::read(&path).unwrap().expect("a log");
        assert_eq!(records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_logs_open_clean() {
        let path = temp_path("empty");
        std::fs::remove_file(&path).ok();
        assert!(Wal::read(&path).unwrap().is_none(), "a missing log");
        std::fs::write(&path, b"").unwrap();
        assert!(Wal::read(&path).unwrap().is_none(), "an empty log");
        let wal = Wal::create(&path, hdr(), None).unwrap();
        assert_eq!(wal.next_seq(), 1);
        let (records, end) = Wal::read(&path).unwrap().expect("a fresh log");
        assert!(records.is_empty());
        assert_eq!(end.next_seq(), 1);
        std::fs::remove_file(&path).ok();
    }
}
