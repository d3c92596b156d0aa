//! The durable codec's decoders: WAL records and checkpoint images.
//!
//! Both decode bytes that come off a disk, so both must be safe on any
//! input. The properties:
//!
//! - random knowledge bases and deltas round-trip exactly: the decoded
//!   content is `content_eq` to the original, re-encoding it gives the
//!   same bytes, and the fingerprints agree;
//! - mutated payloads — flipped bytes, truncations, inflated counts,
//!   lengths and symbol indexes — with the CRC recomputed, so that they
//!   reach the decoder, decode to `None` or to a value and never panic;
//! - no count or length larger than the bytes left leads to an
//!   allocation: decoding never asks for much more memory than the input
//!   has bytes.
//!
//! Beside them: an older format version is refused by name, and a term
//! nested past `MAX_TERM_DEPTH` ends a log's valid prefix on recovery
//! and is refused at commit without parking the log.
//!
//! `PROPTEST_CASES` sets the case count (64 by default; CI runs 2048).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};

use gdp::core::{DurabilityOptions, FactPat, Pat, SpecStore, Specification};
use gdp::engine::{
    fingerprint, replay, CheckpointImage, GroupId, KnowledgeBase, PredKey, Term, Wal, WalRecord,
    MAX_TERM_DEPTH, SOLVER_STACK,
};
use proptest::prelude::*;

// ----- allocation tracking --------------------------------------------------

/// The system allocator, noting the largest single request each thread
/// makes.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Run `f`, returning its value and the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// What decoding `input` may allocate at once: a small multiple of its
/// size, plus room for the process-wide symbol table to grow as mutated
/// names are interned. A count read from the input and trusted would
/// ask for far more (the inflating mutation writes at least 2^24).
fn allocation_bound(input: &[u8]) -> usize {
    32 * input.len() + (8 << 20)
}

// ----- generators -----------------------------------------------------------

/// splitmix64, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const ATOMS: &[&str] = &["a", "b", "saint_louis", "omega", "[]", "x-17", "ñandú", ""];
const FUNCTORS: &[&str] = &["f", "g", ".", "at", "h"];
const PREDS: &[(&str, usize)] = &[("road", 1), ("soil", 2), ("label", 2), ("p", 3)];
const GROUPS: &[&str] = &["omega", "m1", "m2"];
const FLOATS: &[f64] = &[0.0, -0.0, 0.5, -1.25e300, f64::INFINITY, f64::MIN_POSITIVE];

fn term(g: &mut Gen, depth: u32, vars: u32) -> Term {
    match g.below(if depth == 0 { 6 } else { 8 }) {
        0 => Term::atom(g.pick(ATOMS)),
        1 => Term::str(g.pick(ATOMS)),
        2 => Term::int(match g.below(3) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => g.next() as i64 % 1000,
        }),
        3 => Term::float(FLOATS[g.below(FLOATS.len())]),
        4 if vars > 0 => Term::var(g.below(vars as usize) as u32),
        4 | 5 => Term::atom(g.pick(ATOMS)),
        _ => {
            let arity = 1 + g.below(3);
            let args = (0..arity).map(|_| term(g, depth - 1, vars)).collect();
            Term::pred(g.pick(FUNCTORS), args)
        }
    }
}

/// A clause of one of the fixed predicates: a fact (ground) or a rule.
fn clause(g: &mut Gen) -> (GroupId, Term, Term) {
    let (name, arity) = PREDS[g.below(PREDS.len())];
    let vars = if g.below(3) == 0 { 3 } else { 0 };
    let args = (0..arity).map(|_| term(g, 3, vars)).collect();
    let body = if vars == 0 {
        Term::atom("true")
    } else {
        Term::conj((0..1 + g.below(2)).map(|_| term(g, 2, vars)).collect())
    };
    (GroupId::named(g.pick(GROUPS)), Term::pred(name, args), body)
}

/// One random change: an assert, or a retract of a fact, a group or a
/// predicate.
fn change(g: &mut Gen, kb: &mut KnowledgeBase) {
    match g.below(8) {
        0 => {
            let facts: Vec<Term> = kb
                .iter_clauses()
                .filter(|(_, c)| c.body == Term::atom("true"))
                .map(|(_, c)| c.head.clone())
                .collect();
            if !facts.is_empty() {
                kb.retract_fact(&facts[g.below(facts.len())]);
            }
        }
        1 => {
            kb.retract_group(GroupId::named(g.pick(GROUPS)));
        }
        2 => {
            let (name, arity) = PREDS[g.below(PREDS.len())];
            kb.retract_predicate(PredKey::new(name, arity));
        }
        _ => {
            let (group, head, body) = clause(g);
            kb.assert_clause_in(group, head, body);
        }
    }
}

fn random_kb(g: &mut Gen) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for _ in 0..g.below(40) {
        change(g, &mut kb);
    }
    kb
}

// ----- framing helpers ------------------------------------------------------

/// IEEE CRC-32, bit by bit: the reference the codec's tables must match.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Frame `payload` as `[len][crc][payload]` with a valid CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One mutation of a framed record, CRC recomputed unless the mutation
/// tears the frame itself.
fn mutate(g: &mut Gen, framed: &[u8]) -> Vec<u8> {
    let mut payload = framed[8..].to_vec();
    if payload.is_empty() {
        return framed.to_vec();
    }
    match g.below(5) {
        // Flip bits of one byte.
        0 => {
            let at = g.below(payload.len());
            payload[at] ^= 1 + g.below(255) as u8;
        }
        // Truncate the payload, keeping the frame consistent.
        1 => payload.truncate(g.below(payload.len())),
        // Inflate whatever 4-byte field sits at a random offset — a
        // count, a string length or a symbol index, when it lands on
        // one — by a little or by a lot.
        2 | 3 => {
            if payload.len() >= 4 {
                let at = g.below(payload.len() - 3);
                let old = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
                let new = match g.below(3) {
                    0 => old.wrapping_add(1 + g.below(4) as u32),
                    1 => (1 << 24) + g.below(1 << 30) as u32,
                    _ => u32::MAX,
                };
                payload[at..at + 4].copy_from_slice(&new.to_le_bytes());
            }
        }
        // Tear the frame: its length now runs past the bytes there are.
        _ => {
            let mut torn = framed.to_vec();
            torn.truncate(8 + g.below(payload.len()));
            return torn;
        }
    }
    frame(&payload)
}

// ----- properties -----------------------------------------------------------

proptest! {
    /// A captured image decodes to the same content, re-encodes to the
    /// same bytes, and fingerprints the same.
    #[test]
    fn images_round_trip_exactly(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let live = random_kb(&mut g);
        let fp = fingerprint(&live).expect("shallow terms");
        let bytes = CheckpointImage::capture(&live, fp, g.next() >> 1).encode().unwrap();
        let image = CheckpointImage::decode(&bytes).unwrap().expect("a fresh image decodes");
        prop_assert_eq!(image.fingerprint, fp);
        prop_assert_eq!(image.encode().unwrap(), bytes.clone(), "re-encoding differs");
        let mut restored = KnowledgeBase::new();
        restored.assert_fact(Term::pred("stale", vec![Term::atom("x")]));
        image.install(&mut restored);
        prop_assert!(restored.content_eq(&live), "restored content differs");
        prop_assert_eq!(fingerprint(&restored).expect("shallow terms"), fp);
    }

    /// A committed delta decodes to the same operations: re-encoding gives
    /// the same bytes, and replaying it reproduces the live store.
    #[test]
    fn wal_records_round_trip_exactly(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut live = random_kb(&mut g);
        let before = live.snapshot();
        live.begin_delta();
        for _ in 0..1 + g.below(12) {
            change(&mut g, &mut live);
        }
        let delta = live.end_delta().expect("recording");
        let record = WalRecord { seq: 1 + (g.next() >> 1), delta };
        let bytes = record.encode().unwrap();
        let (decoded, len) = WalRecord::decode(&bytes).expect("a fresh record decodes");
        prop_assert_eq!(len, bytes.len());
        prop_assert_eq!(decoded.seq, record.seq);
        prop_assert_eq!(decoded.encode().unwrap(), bytes.clone(), "re-encoding differs");
        let mut replayed = before;
        replay(&[decoded], &mut replayed);
        prop_assert!(replayed.content_eq(&live), "replayed content differs");
        prop_assert_eq!(
            fingerprint(&replayed).expect("shallow terms"),
            fingerprint(&live).expect("shallow terms")
        );
    }

    /// Mutated images decode to `None`, to an image, or to a version
    /// error — never a panic, and never an allocation sized by a count
    /// the bytes cannot hold.
    #[test]
    fn mutated_images_never_panic_or_overallocate(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let live = random_kb(&mut g);
        let bytes = CheckpointImage::capture(&live, 7, 3).encode().unwrap();
        for _ in 0..16 {
            let mutated = mutate(&mut g, &bytes);
            let (decoded, largest) = largest_allocation(|| CheckpointImage::decode(&mutated));
            prop_assert!(
                largest <= allocation_bound(&mutated),
                "decoding {} bytes allocated {} at once", mutated.len(), largest
            );
            if let Err(e) = decoded {
                prop_assert!(e.to_string().contains("format version"), "{}", e);
            }
        }
    }

    /// Mutated WAL records decode to `None` or to a record — never a
    /// panic, and never an allocation sized by a count the bytes cannot
    /// hold.
    #[test]
    fn mutated_wal_records_never_panic_or_overallocate(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut kb = random_kb(&mut g);
        kb.begin_delta();
        for _ in 0..1 + g.below(12) {
            change(&mut g, &mut kb);
        }
        let delta = kb.end_delta().expect("recording");
        let bytes = WalRecord { seq: 1, delta }.encode().unwrap();
        for _ in 0..16 {
            let mutated = mutate(&mut g, &bytes);
            let (decoded, largest) = largest_allocation(|| WalRecord::decode(&mutated));
            prop_assert!(
                largest <= allocation_bound(&mutated),
                "decoding {} bytes allocated {} at once", mutated.len(), largest
            );
            if let Some((_, len)) = decoded {
                prop_assert_eq!(len, mutated.len());
            }
        }
    }
}

/// A log whose middle record is corrupted (CRC recomputed) recovers a
/// prefix: at least the records before it, each as it was written.
#[test]
fn a_mutated_log_record_ends_the_prefix_at_or_after_it() {
    let path = temp_path("log-prefix");
    let mut g = Gen(1986);
    for _ in 0..32 {
        let mut kb = random_kb(&mut g);
        let mut wal = Wal::create(&path, gdp::engine::WalHeader::new(9, 1), None).unwrap();
        let mut frames = Vec::new();
        for _ in 0..3 {
            kb.begin_delta();
            change(&mut g, &mut kb);
            let delta = kb.end_delta().expect("recording");
            let seq = wal.append(&delta).unwrap();
            frames.push(WalRecord { seq, delta }.encode().unwrap());
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let header = bytes.len() - frames.iter().map(Vec::len).sum::<usize>();
        let start = header + frames[0].len();
        let mutated = mutate(&mut g, &frames[1]);
        bytes.splice(start..start + frames[1].len(), mutated);
        std::fs::write(&path, &bytes).unwrap();
        let (records, _) = Wal::read(&path).unwrap().expect("a log");
        assert!(
            !records.is_empty(),
            "the record before the mutation is lost"
        );
        assert_eq!(records[0].encode().unwrap(), frames[0]);
        assert!(records.len() <= 3);
    }
    let _ = std::fs::remove_file(&path);
}

// ----- formats and bounds ---------------------------------------------------

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gdp-codec-{tag}-{}.wal", std::process::id()))
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

fn commit_fact(store: &SpecStore, name: &str) -> u64 {
    store
        .commit(|spec| spec.assert_fact(FactPat::new("f").arg(name)))
        .unwrap()
        .0
        .seq
}

/// A CRC-valid image of format version 1 is refused by name — not taken
/// for a torn image, which recovery would silently fall back past.
#[test]
fn an_older_image_version_is_refused_by_name() {
    let path = temp_path("image-version");
    remove_family(&path);
    let store = SpecStore::create_durable(base(), &path, DurabilityOptions::default()).unwrap();
    commit_fact(&store, "x1");
    store.checkpoint().unwrap();
    drop(store);
    let ckpt = sibling(&path, ".ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
    let crc = crc32(&bytes[8..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&ckpt, &bytes).unwrap();

    for err in [
        CheckpointImage::read(&ckpt).unwrap_err().to_string(),
        SpecStore::recover_durable(base(), &path, DurabilityOptions::default())
            .err()
            .expect("an older image must refuse recovery")
            .to_string(),
    ] {
        assert!(
            err.contains("format version 1") && err.contains("version 2"),
            "{err}"
        );
    }
    remove_family(&path);
}

/// A sound header of WAL format version 2 is refused by name — neither
/// reported as a corrupt header nor, on a header-only log, taken for a
/// torn create and overwritten.
#[test]
fn an_older_log_version_is_refused_by_name() {
    let path = temp_path("log-version");
    for records in [0, 2] {
        remove_family(&path);
        let store =
            SpecStore::create_durable(base(), &path, DurabilityOptions::no_checkpoints()).unwrap();
        for i in 0..records {
            commit_fact(&store, &format!("x{i}"));
        }
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let crc = crc32(&bytes[0..24]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let err = SpecStore::recover_durable(base(), &path, DurabilityOptions::no_checkpoints())
            .err()
            .expect("an older log must refuse recovery")
            .to_string();
        assert!(
            err.contains("format version 2") && err.contains("version 3"),
            "{err}"
        );
        assert!(!err.contains("corrupt header"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the log was rewritten"
        );
    }
    remove_family(&path);
}

/// A hand-made, CRC-valid record holding a 400,000-deep `f(f(…))` ends
/// the log's valid prefix on recovery: the commit before it survives,
/// the record is cut, the log stays appendable — and nothing overflows
/// a stack on the way.
#[test]
fn a_crafted_deep_record_ends_the_valid_prefix() {
    let path = temp_path("deep-record");
    remove_family(&path);
    let store =
        SpecStore::create_durable(base(), &path, DurabilityOptions::no_checkpoints()).unwrap();
    assert_eq!(commit_fact(&store, "x1"), 1);
    drop(store);
    let clean_len = std::fs::metadata(&path).unwrap().len();

    // seq 2; names f, omega, true; one Assert of f/1 whose head nests
    // 400,000 compounds deep.
    let mut payload = 2u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&3u32.to_le_bytes());
    for name in ["f", "omega", "true"] {
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
    }
    payload.extend_from_slice(&1u32.to_le_bytes()); // one op
    payload.push(0); // Assert
    payload.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]); // key f/1
    payload.extend_from_slice(&[1, 0, 0, 0]); // group omega
    for _ in 0..400_000 {
        payload.extend_from_slice(&[5, 0, 0, 0, 0, 1, 0, 0, 0]); // f(
    }
    payload.extend_from_slice(&[1, 0, 0, 0, 0]); // the atom f
    payload.extend_from_slice(&[1, 2, 0, 0, 0]); // body: true
    assert!(payload.len() > 3_500_000);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(&frame(&payload)).unwrap();
    drop(file);

    let (store, head) =
        SpecStore::recover_durable(base(), &path, DurabilityOptions::no_checkpoints())
            .expect("recovery");
    assert_eq!(head, 1, "the crafted record is past the valid prefix");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    assert_eq!(commit_fact(&store, "x2"), 2);
    drop(store);
    remove_family(&path);
}

/// A commit carrying a term nested past the bound is rolled back with
/// the codec's error, and the log is not parked: the next commit lands.
/// (Dropping the refused term recurses per level, so this runs on a
/// session-sized stack.)
#[test]
fn a_too_deep_commit_rolls_back_without_parking_the_log() {
    std::thread::Builder::new()
        .stack_size(SOLVER_STACK)
        .spawn(|| {
            let path = temp_path("deep-commit");
            remove_family(&path);
            let store =
                SpecStore::create_durable(base(), &path, DurabilityOptions::no_checkpoints())
                    .unwrap();
            let deep = (0..MAX_TERM_DEPTH).fold(Term::atom("x"), |t, _| Term::pred("f", vec![t]));
            let err = store
                .commit(|spec| spec.assert_fact(FactPat::new("deep").arg(Pat::Term(deep))))
                .expect_err("a too-deep commit is refused")
                .to_string();
            assert!(
                err.contains("rolled back") && err.contains("nests deeper"),
                "{err}"
            );
            assert_eq!(store.head_seq(), 0);
            assert_eq!(commit_fact(&store, "x1"), 1, "the log was parked");
            drop(store);
            let (_, head) =
                SpecStore::recover_durable(base(), &path, DurabilityOptions::no_checkpoints())
                    .unwrap();
            assert_eq!(head, 1);
            remove_family(&path);
        })
        .unwrap()
        .join()
        .unwrap();
}
