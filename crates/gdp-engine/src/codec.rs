//! The durable codec that WAL records and checkpoint images share.
//!
//! Both artifacts are one frame, `[len: u32 LE] [crc32: u32 LE] [payload]`,
//! and code clauses the same way (DESIGN.md #15). After a payload's
//! fixed-width fields comes its *coded part*, which opens with a symbol
//! table: the distinct atom, functor, clause-group and predicate names
//! the part uses, in first-use order. Every later name is a `u32` index
//! into that table:
//!
//! ```text
//! names  = count: u32, (len: u32, utf8 bytes)*
//! sym    = u32 index into names
//! term   = 0 var: u32 | 1 atom: sym | 2 int: i64 | 3 float: f64 bits
//!        | 4 string: (len: u32, utf8 bytes) | 5 compound: sym, arity: u32, term*
//! clause = group: sym, head: term, body: term
//! key    = name: sym, arity: u32
//! ```
//!
//! Strings stay inline: they are values, not interned. Names make a
//! payload portable across processes with different interning orders, and
//! the table makes each distinct name cost its bytes once per payload.
//! The encoder walks a payload once, numbering names as it meets them,
//! and resolves each distinct [`Sym`] once, for the table; the decoder
//! interns each name once. Clause `n_vars` is counted from the variables
//! decoded, so a payload can never smuggle in an inconsistent count.
//!
//! Both directions refuse terms that nest more than [`MAX_TERM_DEPTH`]
//! compound levels: nearly everything the engine does with a term
//! recurses once per level, down to dropping it. The decoder itself
//! keeps its own stack, so a crafted payload cannot exhaust the thread's
//! on the way to being refused.

use std::collections::hash_map::Entry;
use std::fmt;
use std::io;
use std::sync::Arc;

use crate::delta::DeltaOp;
use crate::hash::FxHashMap;
use crate::kb::{Clause, GroupId, PredKey};
use crate::symbol::{with_names, Sym};
use crate::term::{Term, Var, F64};

/// The most compound levels a term may nest: a list counts one level per
/// element. The durable codec refuses to encode or decode a deeper term,
/// and the language loader refuses a statement that nests deeper.
///
/// Sized from a measurement: a term at this bound loads through the
/// language loader, commits through the WAL, checkpoints, recovers and
/// drops on a [`crate::SOLVER_STACK`] (8 MiB) thread in an unoptimised
/// build. There the deepest walks, dropping a term and encoding it, run
/// out of that stack at about 30,500 and 32,500 levels (some 270 bytes
/// a level); the bound keeps a fifth of the stack spare.
pub const MAX_TERM_DEPTH: usize = 24_576;

/// A term nests more than [`MAX_TERM_DEPTH`] compound levels, so the
/// durable codec will not encode it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooDeep;

impl fmt::Display for TooDeep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a term nests deeper than {MAX_TERM_DEPTH} levels, the most the durable codec admits"
        )
    }
}

impl std::error::Error for TooDeep {}

impl From<TooDeep> for io::Error {
    fn from(e: TooDeep) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

// ----- CRC-32 ----------------------------------------------------------------

/// Slice-by-8 tables for the IEEE CRC-32 (reflected polynomial
/// 0xEDB88320): `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 of `data`, eight bytes per step.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ----- framing ---------------------------------------------------------------

/// Start a frame at the end of `buf`: reserve its `[len][crc]` and return
/// where it starts. The payload is then written straight after.
pub(crate) fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    start
}

/// Close the frame begun at `start`: patch its length and CRC in place.
pub(crate) fn end_frame(buf: &mut [u8], start: usize, what: &str) -> io::Result<()> {
    let payload = &buf[start + 8..];
    let len: u32 = payload.len().try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{what} of {} bytes overflows the length field",
                payload.len()
            ),
        )
    })?;
    let crc = crc32(payload);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The payload of the frame at the front of `buf`, when it is complete
/// and its CRC matches; `None` for a torn or corrupt frame.
pub(crate) fn frame(buf: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(buf.get(4..8)?.try_into().ok()?);
    let payload = buf.get(8..8 + len)?;
    (crc32(payload) == crc).then_some(payload)
}

// ----- encoding --------------------------------------------------------------

/// Writes a coded part's bytes, numbering each name the first time it
/// is used. The walk touches every clause once: that pointer-chasing,
/// not the writing, is what an image's fold costs.
pub(crate) struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// The number each name got, by symbol.
    numbers: FxHashMap<Sym, u32>,
    order: Vec<Sym>,
}

impl Writer<'_> {
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    #[inline]
    fn sym(&mut self, sym: Sym) {
        let next = self.order.len() as u32;
        let number = match self.numbers.entry(sym) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                self.order.push(sym);
                *slot.insert(next)
            }
        };
        self.bytes(&number.to_le_bytes());
    }

    #[inline]
    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    #[inline]
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn term(&mut self, t: &Term) -> Result<(), TooDeep> {
        self.term_at(t, 0)
    }

    /// `t`, nested inside `depth` compounds.
    fn term_at(&mut self, t: &Term, depth: usize) -> Result<(), TooDeep> {
        match t {
            Term::Var(Var(v)) => {
                self.u8(0);
                self.u32(*v);
            }
            Term::Atom(s) => {
                self.u8(1);
                self.sym(*s);
            }
            Term::Int(i) => {
                self.u8(2);
                self.bytes(&i.to_le_bytes());
            }
            Term::Float(f) => {
                self.u8(3);
                self.bytes(&f.get().to_le_bytes());
            }
            Term::Str(s) => {
                self.u8(4);
                self.u32(s.len() as u32);
                self.bytes(s.as_bytes());
            }
            Term::Compound(f, args) => {
                if depth >= MAX_TERM_DEPTH {
                    return Err(TooDeep);
                }
                self.u8(5);
                self.sym(*f);
                self.u32(args.len() as u32);
                for arg in args.iter() {
                    self.term_at(arg, depth + 1)?;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn clause(&mut self, clause: &Clause) -> Result<(), TooDeep> {
        self.sym(clause.group.name());
        self.term(&clause.head)?;
        self.term(&clause.body)
    }

    #[inline]
    pub(crate) fn key(&mut self, key: PredKey) {
        self.sym(key.name);
        self.u32(u32::from(key.arity));
    }

    pub(crate) fn op(&mut self, op: &DeltaOp) -> Result<(), TooDeep> {
        match op {
            DeltaOp::Assert { key, clause } => {
                self.u8(0);
                self.key(*key);
                self.clause(clause)?;
            }
            DeltaOp::RetractFact { key, pos, clause } => {
                self.u8(1);
                self.key(*key);
                self.u64(*pos as u64);
                self.clause(clause)?;
            }
            DeltaOp::RetractGroup { group, removed } => {
                self.u8(2);
                self.sym(group.name());
                self.u32(removed.len() as u32);
                for (key, pos, clause) in removed {
                    self.key(*key);
                    self.u64(*pos as u64);
                    self.clause(clause)?;
                }
            }
            DeltaOp::RetractPredicate { key, clauses } => {
                self.u8(3);
                self.key(*key);
                self.u32(clauses.len() as u32);
                for clause in clauses {
                    self.clause(clause)?;
                }
            }
        }
        Ok(())
    }
}

/// Append a coded part to `out`: its names table, then the bytes `walk`
/// writes. One walk writes the bytes and numbers the names; the table,
/// known only then, is moved in ahead of them. Nothing is left in `out`
/// when a term nests too deep.
pub(crate) fn encode(
    out: &mut Vec<u8>,
    walk: impl FnOnce(&mut Writer<'_>) -> Result<(), TooDeep>,
) -> Result<(), TooDeep> {
    let start = out.len();
    let mut w = Writer {
        out,
        numbers: FxHashMap::default(),
        order: Vec::new(),
    };
    if let Err(e) = walk(&mut w) {
        w.out.truncate(start);
        return Err(e);
    }
    let table = with_names(&w.order, |names| {
        let len = 4 + names.iter().map(|n| 4 + n.len()).sum::<usize>();
        let mut table = Vec::with_capacity(len);
        table.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            table.extend_from_slice(&(name.len() as u32).to_le_bytes());
            table.extend_from_slice(name.as_bytes());
        }
        table
    });
    w.out.splice(start..start, table);
    Ok(())
}

/// FNV-1a 64 of `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ----- decoding --------------------------------------------------------------

/// Fewest bytes a term can take (a tag and a `u32`).
const MIN_TERM: usize = 5;
/// Fewest bytes a clause can take (a group and two terms).
pub(crate) const MIN_CLAUSE: usize = 4 + 2 * MIN_TERM;
/// Bytes a predicate key takes.
pub(crate) const KEY: usize = 8;

/// Decoder over one payload. Every read is bounds-checked, and `None`
/// means the payload is malformed: a WAL treats it like a checksum
/// failure (the end of the valid prefix), a checkpoint like a torn image.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    names: Vec<Sym>,
    /// Scratch for [`Cursor::term`], kept across terms: each compound
    /// being read (functor, arity, where its arguments start in `done`).
    open: Vec<(Sym, usize, usize)>,
    /// Scratch for [`Cursor::term`]: terms read, not yet an argument.
    done: Vec<Term>,
    /// One more than the largest variable read since [`Cursor::clause`]
    /// began the current clause.
    vars: u32,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor {
            buf,
            pos: 0,
            names: Vec::new(),
            open: Vec::new(),
            done: Vec::new(),
            vars: 0,
        }
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    #[inline]
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    #[inline]
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` count of items that each take at least `min_size` bytes.
    /// A count the remaining bytes cannot hold is corruption, not a
    /// request to allocate.
    pub(crate) fn count(&mut self, min_size: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_size)? <= self.buf.len() - self.pos).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// Read the names table that opens a coded part, interning each name.
    pub(crate) fn names(&mut self) -> Option<()> {
        let n = self.count(4)?;
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(Sym::new(self.str()?));
        }
        self.names = names;
        Some(())
    }

    #[inline]
    fn sym(&mut self) -> Option<Sym> {
        let i = self.u32()?;
        self.names.get(i as usize).copied()
    }

    /// One term, read without recursion: `open` holds the compounds
    /// still reading arguments, `done` the arguments read so far.
    pub(crate) fn term(&mut self) -> Option<Term> {
        self.open.clear();
        self.done.clear();
        loop {
            let leaf = match self.u8()? {
                0 => {
                    let v = self.u32()?;
                    self.vars = self.vars.max(v.saturating_add(1));
                    Term::Var(Var(v))
                }
                1 => Term::Atom(self.sym()?),
                2 => Term::Int(i64::from_le_bytes(self.array()?)),
                3 => Term::Float(F64::try_new(f64::from_le_bytes(self.array()?))?),
                4 => Term::Str(Arc::from(self.str()?)),
                5 => {
                    if self.open.len() >= MAX_TERM_DEPTH {
                        return None;
                    }
                    let functor = self.sym()?;
                    let arity = self.count(MIN_TERM)?;
                    if arity > 0 {
                        self.open.push((functor, arity, self.done.len()));
                        continue;
                    }
                    Term::Atom(functor)
                }
                _ => return None,
            };
            self.done.push(leaf);
            // Close every compound whose last argument that was.
            while let Some(&(functor, arity, start)) = self.open.last() {
                if self.done.len() - start < arity {
                    break;
                }
                self.open.pop();
                let args: Arc<[Term]> = self.done.drain(start..).collect();
                self.done.push(Term::Compound(functor, args));
            }
            if self.open.is_empty() {
                return self.done.pop();
            }
        }
    }

    /// A clause, its variable count taken from the variables read — not
    /// from the payload, which could claim any count.
    pub(crate) fn clause(&mut self) -> Option<Arc<Clause>> {
        let group = GroupId::of(self.sym()?);
        self.vars = 0;
        let head = self.term()?;
        let body = self.term()?;
        Some(Arc::new(Clause {
            head,
            body,
            n_vars: self.vars,
            group,
        }))
    }

    pub(crate) fn key(&mut self) -> Option<PredKey> {
        Some(PredKey {
            name: self.sym()?,
            arity: u16::try_from(self.u32()?).ok()?,
        })
    }

    fn pos(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    pub(crate) fn op(&mut self) -> Option<DeltaOp> {
        Some(match self.u8()? {
            0 => DeltaOp::Assert {
                key: self.key()?,
                clause: self.clause()?,
            },
            1 => DeltaOp::RetractFact {
                key: self.key()?,
                pos: self.pos()?,
                clause: self.clause()?,
            },
            2 => {
                let group = GroupId::of(self.sym()?);
                let n = self.count(KEY + 8 + MIN_CLAUSE)?;
                let mut removed = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.key()?;
                    let pos = self.pos()?;
                    removed.push((key, pos, self.clause()?));
                }
                DeltaOp::RetractGroup { group, removed }
            }
            3 => {
                let key = self.key()?;
                let n = self.count(MIN_CLAUSE)?;
                let mut clauses = Vec::with_capacity(n);
                for _ in 0..n {
                    clauses.push(self.clause()?);
                }
                DeltaOp::RetractPredicate { key, clauses }
            }
            _ => return None,
        })
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial reference the tables are built from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value_and_the_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for len in 0..64 {
            for start in 0..9 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "len {len} at {start}");
            }
        }
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    fn encode_one(out: &mut Vec<u8>, t: &Term) -> Result<(), TooDeep> {
        encode(out, |w| w.term(t))
    }

    fn nested(depth: usize) -> Term {
        (0..depth).fold(Term::atom("x"), |t, _| Term::pred("f", vec![t]))
    }

    fn decode_one(bytes: &[u8]) -> Option<Term> {
        let mut cur = Cursor::new(bytes);
        cur.names()?;
        let t = cur.term()?;
        cur.finished().then_some(t)
    }

    #[test]
    fn names_are_written_once_in_first_use_order() {
        let t = Term::pred(
            "f",
            vec![
                Term::atom("b"),
                Term::atom("a"),
                Term::atom("b"),
                Term::str("b"),
            ],
        );
        let mut out = Vec::new();
        encode_one(&mut out, &t).unwrap();
        let mut cur = Cursor::new(&out);
        cur.names().unwrap();
        let names: Vec<String> = cur.names.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["f", "b", "a"]);
        assert_eq!(decode_one(&out), Some(t));
    }

    #[test]
    fn depth_is_bounded_both_ways() {
        // Run on a solver-sized stack: a term at the bound is as deep as
        // the codec goes.
        std::thread::Builder::new()
            .stack_size(crate::SOLVER_STACK)
            .spawn(|| {
                let at_bound = nested(MAX_TERM_DEPTH);
                let mut out = Vec::new();
                encode_one(&mut out, &at_bound).unwrap();
                let back = decode_one(&out).expect("a term at the bound decodes");
                let mut again = Vec::new();
                encode_one(&mut again, &back).unwrap();
                assert_eq!(again, out);

                let deeper = Term::pred("f", vec![at_bound]);
                let mut refused = Vec::new();
                assert_eq!(encode_one(&mut refused, &deeper), Err(TooDeep));
                assert!(refused.is_empty(), "a refused encode writes nothing");
                // Hand-craft the deeper encoding: one more compound level
                // in front of the bound term's bytes (its names table
                // already holds `f` at index 0).
                let table = 4 + (4 + 1) + (4 + 1);
                let mut crafted = out[..table].to_vec();
                crafted.extend_from_slice(&[5, 0, 0, 0, 0, 1, 0, 0, 0]);
                crafted.extend_from_slice(&out[table..]);
                assert_eq!(decode_one(&crafted), None);
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
