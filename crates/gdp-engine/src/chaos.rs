//! Deterministic fault injection riding the trace-port stream.
//!
//! Robustness claims ("one bad goal degrades the audit, never destroys
//! it") are only as good as the faults they were tested against. This
//! module injects faults *deterministically*: a [`ChaosSink`] wraps any
//! other [`TraceSink`] and, at the K-th port event it observes, either
//!
//! * trips a [`CancelToken`] (→ [`crate::EngineError::Cancelled`]),
//! * force-expires the token as a deadline
//!   (→ [`crate::EngineError::DeadlineExceeded`]), or
//! * panics outright — exercising the per-goal `catch_unwind` isolation
//!   in [`crate::ParallelSolver`]
//!   (→ [`crate::EngineError::GoalPanicked`]).
//!
//! Port events are the natural injection clock: they are emitted at every
//! semantically meaningful solver transition (call, exit, redo, fail,
//! table traffic, native dispatch), their sequence is a pure function of
//! the knowledge base and goal, and the sink machinery already exists —
//! so "the K-th event" names a *reproducible* execution point without any
//! wall-clock or scheduler dependence, and the injection surface needs no
//! new hooks in the solver. See DESIGN.md §6.10.
//!
//! A [`ChaosConfig`] is derived from a single seed
//! ([`ChaosConfig::from_seed`]) or parsed from a `GDP_CHAOS` value
//! ([`ChaosConfig::parse`]); `gdp-core` reads that environment variable
//! when it constructs a `Specification`, so whole test suites can be
//! re-run under injected faults without code changes.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::budget::CancelToken;
use crate::trace::{Port, TraceEvent, TraceSink};

/// Which fault a [`ChaosSink`] injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Trip the token as a cooperative cancellation.
    Cancel,
    /// Trip the token as a forced deadline expiry.
    Deadline,
    /// Panic at the event site (contained by the per-goal isolation
    /// boundary in the parallel solver).
    Panic,
}

/// A deterministic injection point: fire `kind` at the `at_event`-th
/// observed port event (1-based), optionally counting only events at one
/// specific [`Port`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Fire at the K-th counted event, 1-based. Values beyond the run's
    /// event count simply never fire — a valid (empty) injection point.
    pub at_event: u64,
    /// When set, only events at this port advance the counter (e.g.
    /// `Port::TableInsert` to fault right at an answer-table insertion).
    pub port: Option<Port>,
}

impl ChaosConfig {
    /// Derive an injection point from a seed: the kind cycles through
    /// cancel/deadline/panic and the event index covers 1..=499, so a
    /// small seed matrix sweeps all three kinds at scattered depths.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        let kind = match seed % 3 {
            0 => FaultKind::Cancel,
            1 => FaultKind::Deadline,
            _ => FaultKind::Panic,
        };
        ChaosConfig {
            kind,
            at_event: (seed / 3) % 499 + 1,
            port: None,
        }
    }

    /// Parse a `GDP_CHAOS` value: either a bare integer seed (see
    /// [`Self::from_seed`]) or an explicit `cancel:K` / `deadline:K` /
    /// `panic:K`. Returns `None` for anything else.
    pub fn parse(value: &str) -> Option<ChaosConfig> {
        let value = value.trim();
        if let Ok(seed) = value.parse::<u64>() {
            return Some(ChaosConfig::from_seed(seed));
        }
        let (kind, k) = value.split_once(':')?;
        let kind = match kind {
            "cancel" => FaultKind::Cancel,
            "deadline" => FaultKind::Deadline,
            "panic" => FaultKind::Panic,
            _ => return None,
        };
        let at_event = k.parse::<u64>().ok().filter(|k| *k >= 1)?;
        Some(ChaosConfig {
            kind,
            at_event,
            port: None,
        })
    }
}

// ----- disk-fault injection -------------------------------------------------

/// Which disk fault a [`ChaosFile`] injects when its trigger is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The write crossing the trigger byte persists only the bytes up to
    /// it and reports partial success; the *next* write on the handle
    /// errors. Models a `write(2)` returning short at a full disk or
    /// quota boundary.
    ShortWrite,
    /// Writes succeed, but the K-th `sync_data` call on the handle fails
    /// and the handle is dead afterwards. Bytes written before the failed
    /// sync stay in the file — the harshest reading of fsync-failure
    /// semantics, where data may be visible yet was never acknowledged.
    FsyncFail,
    /// A crash at byte K: everything up to K persists, the faulting write
    /// errors, and every later operation on the handle errors. The caller
    /// is expected to abandon the handle and recover from disk, exactly
    /// as a restarted process would.
    Crash,
}

/// A deterministic disk-fault injection point for one [`ChaosFile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultConfig {
    /// The fault to inject.
    pub kind: IoFaultKind,
    /// The trigger: a 1-based byte offset for
    /// [`IoFaultKind::ShortWrite`] / [`IoFaultKind::Crash`] (the first
    /// byte that does *not* persist is `at`), or a 1-based `sync_data`
    /// call index for [`IoFaultKind::FsyncFail`].
    pub at: u64,
}

impl IoFaultConfig {
    /// Derive a disk-fault point from a seed: the kind cycles through
    /// short-write / fsync-fail / crash and the trigger covers a spread
    /// of offsets, so a small seed matrix sweeps all three kinds.
    pub fn from_seed(seed: u64) -> IoFaultConfig {
        let kind = match seed % 3 {
            0 => IoFaultKind::ShortWrite,
            1 => IoFaultKind::FsyncFail,
            _ => IoFaultKind::Crash,
        };
        let at = match kind {
            // Sync indexes are small (one per commit); byte offsets are
            // spread across typical record sizes.
            IoFaultKind::FsyncFail => (seed / 3) % 13 + 1,
            _ => (seed / 3) % 1021 + 1,
        };
        IoFaultConfig { kind, at }
    }

    /// Parse a `GDP_CHAOS` disk-fault value: `io:short:K`, `io:fsync:K`,
    /// `io:crash:K`, or `io:SEED` (see [`Self::from_seed`]). Anything
    /// else — including the port-fault grammar handled by
    /// [`ChaosConfig::parse`] — yields `None`.
    pub fn parse(value: &str) -> Option<IoFaultConfig> {
        let rest = value.trim().strip_prefix("io:")?;
        if let Ok(seed) = rest.parse::<u64>() {
            return Some(IoFaultConfig::from_seed(seed));
        }
        let (kind, k) = rest.split_once(':')?;
        let kind = match kind {
            "short" => IoFaultKind::ShortWrite,
            "fsync" => IoFaultKind::FsyncFail,
            "crash" => IoFaultKind::Crash,
            _ => return None,
        };
        let at = k.parse::<u64>().ok().filter(|k| *k >= 1)?;
        Some(IoFaultConfig { kind, at })
    }
}

fn chaos_io_error(what: &str) -> io::Error {
    io::Error::other(format!("chaos: injected {what}"))
}

/// A [`File`] wrapper that injects at most one deterministic disk fault,
/// then keeps failing — the failpoint layer under the write-ahead log and
/// checkpoint writers.
///
/// Without a fault configured it is a transparent passthrough. With one,
/// it counts bytes written (short-write / crash triggers) and `sync_data`
/// calls (fsync-fail trigger) and fires exactly once; after the fault the
/// handle is *dead* and every operation errors, so a caller can never
/// silently keep "persisting" past a simulated crash. What is in the file
/// when the fault fires is exactly the byte prefix the semantics of the
/// fault kind allow — which is what recovery code must survive.
#[derive(Debug)]
pub struct ChaosFile {
    file: File,
    fault: Option<IoFaultConfig>,
    /// Bytes successfully persisted through this handle.
    written: u64,
    /// `sync_data` calls observed.
    syncs: u64,
    /// A short write fired; the next write reports the error.
    short_fired: bool,
    /// The fault fired terminally; every operation errors.
    dead: bool,
}

impl ChaosFile {
    /// Wrap `file`, injecting `fault` (or passing through when `None`).
    pub fn new(file: File, fault: Option<IoFaultConfig>) -> ChaosFile {
        ChaosFile {
            file,
            fault,
            written: 0,
            syncs: 0,
            short_fired: false,
            dead: false,
        }
    }

    /// The wrapped file (integrity checks in tests).
    pub fn file(&self) -> &File {
        &self.file
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.dead {
            return Err(chaos_io_error("dead file handle"));
        }
        Ok(())
    }

    /// Sync file data to disk, honoring an fsync-fail fault point.
    pub fn sync_data(&mut self) -> io::Result<()> {
        self.check_alive()?;
        if let Some(cfg) = self.fault {
            if cfg.kind == IoFaultKind::FsyncFail {
                self.syncs += 1;
                if self.syncs >= cfg.at {
                    self.dead = true;
                    return Err(chaos_io_error("fsync failure"));
                }
            }
        }
        self.file.sync_data()
    }

    /// Truncate or extend the file (used by torn-tail truncation, which
    /// happens during recovery — before any fault counting starts).
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.check_alive()?;
        self.file.set_len(len)
    }
}

impl Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check_alive()?;
        if self.short_fired {
            self.dead = true;
            return Err(chaos_io_error("write after short write"));
        }
        let allowed = match self.fault {
            Some(IoFaultConfig { kind, at })
                if kind != IoFaultKind::FsyncFail && self.written + buf.len() as u64 >= at =>
            {
                Some(((at - 1).saturating_sub(self.written).min(buf.len() as u64)) as usize)
            }
            _ => None,
        };
        match allowed {
            None => {
                let n = self.file.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
            Some(n) => {
                // The fault fires inside this write: persist the allowed
                // prefix, then report per the fault kind.
                if n > 0 {
                    self.file.write_all(&buf[..n])?;
                    self.written += n as u64;
                }
                match self.fault.map(|f| f.kind) {
                    Some(IoFaultKind::ShortWrite) if n > 0 => {
                        self.short_fired = true;
                        Ok(n)
                    }
                    Some(IoFaultKind::ShortWrite) => {
                        self.dead = true;
                        Err(chaos_io_error("short write"))
                    }
                    _ => {
                        self.dead = true;
                        Err(chaos_io_error("crash"))
                    }
                }
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check_alive()?;
        self.file.flush()
    }
}

impl Read for ChaosFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read(buf)
    }
}

impl Seek for ChaosFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.check_alive()?;
        self.file.seek(pos)
    }
}

/// A [`TraceSink`] that forwards everything to an inner sink and injects
/// one fault at a configured event index. Fires at most once per sink —
/// and sinks are per-worker, so in a parallel batch "the K-th event" is
/// counted within each worker's own deterministic event stream.
#[derive(Clone, Debug)]
pub struct ChaosSink<S: TraceSink = crate::trace::NullSink> {
    inner: S,
    cfg: ChaosConfig,
    token: CancelToken,
    seen: u64,
    fired: bool,
}

impl<S: TraceSink> ChaosSink<S> {
    /// A chaos sink wrapping `inner`. A tripped `token` is how the
    /// cancel/deadline kinds reach the budgets polling it.
    pub fn new(cfg: ChaosConfig, token: CancelToken, inner: S) -> ChaosSink<S> {
        ChaosSink {
            inner,
            cfg,
            token,
            seen: 0,
            fired: false,
        }
    }

    /// Recover the wrapped sink (for merging a worker's profiler at the
    /// batch join).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Has the injection point been reached?
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Port events observed so far (after any port filter).
    pub fn events_seen(&self) -> u64 {
        self.seen
    }
}

impl<S: TraceSink> TraceSink for ChaosSink<S> {
    fn event(&mut self, event: &TraceEvent) {
        // Forward first so the triggering event itself is observable in a
        // ring-trace post-mortem.
        self.inner.event(event);
        if self.cfg.port.is_some_and(|p| p != event.port) {
            return;
        }
        self.seen += 1;
        if !self.fired && self.seen >= self.cfg.at_event {
            self.fired = true;
            match self.cfg.kind {
                FaultKind::Cancel => self.token.cancel(),
                FaultKind::Deadline => self.token.expire(),
                FaultKind::Panic => panic!(
                    "chaos: injected panic at port event {} ({})",
                    self.seen, event.port
                ),
            }
        }
    }

    fn step(&mut self, key: crate::kb::PredKey) {
        self.inner.step(key);
    }
}

/// In-crate test support: a process-global panic hook that swallows the
/// *expected* injected panics so intentionally-faulting tests don't spam
/// stderr, while leaving every other panic's report intact.
#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::Once;

    static QUIET: Once = Once::new();

    /// Run `f` with injected-fault panics silenced. Installed once and
    /// left in place (tests run concurrently; swapping hooks back and
    /// forth would race), delegating unrecognized panics to the previous
    /// hook.
    pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if message.contains("chaos: injected") || message.contains("native exploded") {
                    return;
                }
                previous(info);
            }));
        });
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::PredKey;
    use crate::term::Term;
    use crate::trace::NullSink;

    fn event(port: Port) -> TraceEvent {
        TraceEvent {
            port,
            depth: 0,
            key: PredKey::new("p", 0),
            goal: Term::atom("p"),
        }
    }

    #[test]
    fn seed_derivation_is_total_and_deterministic() {
        for seed in 0..50 {
            let a = ChaosConfig::from_seed(seed);
            let b = ChaosConfig::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.at_event >= 1);
        }
        // All three kinds are reachable.
        assert_eq!(ChaosConfig::from_seed(0).kind, FaultKind::Cancel);
        assert_eq!(ChaosConfig::from_seed(1).kind, FaultKind::Deadline);
        assert_eq!(ChaosConfig::from_seed(2).kind, FaultKind::Panic);
    }

    #[test]
    fn parse_accepts_seeds_and_explicit_points() {
        assert_eq!(ChaosConfig::parse("7"), Some(ChaosConfig::from_seed(7)));
        assert_eq!(
            ChaosConfig::parse("panic:12"),
            Some(ChaosConfig {
                kind: FaultKind::Panic,
                at_event: 12,
                port: None,
            })
        );
        assert_eq!(
            ChaosConfig::parse(" cancel:1 "),
            Some(ChaosConfig {
                kind: FaultKind::Cancel,
                at_event: 1,
                port: None,
            })
        );
        assert_eq!(ChaosConfig::parse("deadline:0"), None);
        assert_eq!(ChaosConfig::parse("nonsense"), None);
        assert_eq!(ChaosConfig::parse("panic:"), None);
    }

    #[test]
    fn fires_exactly_once_at_the_kth_event() {
        let token = CancelToken::new();
        let cfg = ChaosConfig {
            kind: FaultKind::Cancel,
            at_event: 3,
            port: None,
        };
        let mut sink = ChaosSink::new(cfg, token.clone(), NullSink);
        sink.event(&event(Port::Call));
        sink.event(&event(Port::Exit));
        assert!(!token.is_cancelled());
        sink.event(&event(Port::Call));
        assert!(token.is_cancelled());
        assert!(sink.fired());
        // Subsequent events do not re-fire.
        token.reset();
        sink.event(&event(Port::Fail));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn port_filter_counts_only_matching_events() {
        let token = CancelToken::new();
        let cfg = ChaosConfig {
            kind: FaultKind::Deadline,
            at_event: 1,
            port: Some(Port::TableInsert),
        };
        let mut sink = ChaosSink::new(cfg, token.clone(), NullSink);
        for _ in 0..10 {
            sink.event(&event(Port::Call));
        }
        assert!(!token.is_cancelled());
        sink.event(&event(Port::TableInsert));
        assert!(token.is_cancelled());
        assert_eq!(sink.events_seen(), 1);
    }
}
