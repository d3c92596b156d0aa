//! Port-model solver observability: tracing and per-predicate profiling.
//!
//! The solver can emit classic port-model events — [`Port::Call`],
//! [`Port::Exit`], [`Port::Redo`], [`Port::Fail`], plus the engine-specific
//! [`Port::TableHit`], [`Port::TableInsert`], and [`Port::NativeCall`] —
//! through a [`TraceSink`]. The sink is a *generic type parameter* of the
//! solver, not a trait object: the default [`NullSink`] has
//! `ENABLED == false`, every emission site is guarded by
//! `if S::ENABLED { … }`, and the whole observability layer monomorphizes
//! away to nothing on the untraced path (see DESIGN.md §6.9).
//!
//! Two sinks are provided:
//!
//! * [`Profiler`] — per-predicate counters (`calls`, `exits`, `redos`,
//!   `fails`, `steps`, `table_hits`) with a sorted hot-predicate report.
//!   Its step totals partition [`crate::SolverStats::steps`] exactly: every
//!   budget step the solver consumes is attributed to the predicate (or
//!   cached-answer replay) that consumed it.
//! * [`RingTrace`] — a bounded ring buffer keeping the last *N* events, for
//!   post-mortem inspection after a failure or budget exhaustion.
//!
//! [`ObserverSink`] composes an optional profiler and ring for the common
//! "both at once" configuration used by `gdp-core`'s `Specification`.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::hash::FxHashMap;
use crate::kb::PredKey;
use crate::term::Term;

/// Which port of the box model an event was emitted at.
///
/// The engine uses a *shallow* port model: `Call` fires when a goal is
/// dispatched, `Exit` when that dispatch succeeds (a clause head unified
/// and its body was scheduled, or a builtin/native/control construct
/// succeeded), `Fail` when it fails, and `Redo` when backtracking resumes
/// a choice point for the goal. Pure scheduling goals (`,/2`, `true/0`)
/// are not reported. See DESIGN.md §6.9 for the rationale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// A goal is being dispatched for the first time.
    Call,
    /// The dispatch (or a resumed choice point) succeeded.
    Exit,
    /// Backtracking resumed a choice point for the goal.
    Redo,
    /// The dispatch (or a resumed choice point) ran out of alternatives.
    Fail,
    /// A tabled call was answered from a completed answer set.
    TableHit,
    /// A completed answer set was recorded for a tabled call.
    TableInsert,
    /// A native (Rust-implemented) predicate is being invoked.
    NativeCall,
    /// A stale table entry was dropped at lookup time because a predicate
    /// in its dependency closure changed generation (or its validity
    /// snapshot was epoch-only and the epoch moved).
    Invalidate,
    /// A transaction committed its recorded delta (emitted by the spec
    /// layer, once per commit, with the transaction's scope as the goal).
    DeltaCommit,
    /// An SLG consumer exhausted the current answers of an incomplete
    /// subgoal and suspended; the saturation scheduler will resume it
    /// after producers derive more.
    Suspend,
    /// The SLG scheduler re-ran a producer pass over a subgoal whose
    /// region had grown new answers (resuming its suspended consumers).
    Resume,
    /// A tabled subgoal's strongly-connected region was exhausted and the
    /// subgoal completed (emitted once per subgoal, just before its
    /// `TableInsert`).
    Complete,
    /// A tabled call degraded to plain SLD resolution — recursive
    /// re-entry from a negation/aggregation sub-machine, or a depth
    /// budget too tight for the evaluation machinery. Counted in
    /// `SolverStats::table_fallbacks`.
    TableFallback,
    /// A tabled call pinned to an MVCC snapshot was answered from the
    /// answer set the snapshot carried over from the live KB — the
    /// observable marker that a concurrent reader reused work instead of
    /// re-deriving it. Counted in `SolverStats::snapshot_hits` (in
    /// addition to the ordinary table-hit counter).
    SnapshotHit,
}

impl Port {
    /// Fixed-width label used by the trace renderers.
    pub fn label(self) -> &'static str {
        match self {
            Port::Call => "CALL",
            Port::Exit => "EXIT",
            Port::Redo => "REDO",
            Port::Fail => "FAIL",
            Port::TableHit => "T-HIT",
            Port::TableInsert => "T-INS",
            Port::NativeCall => "NATIVE",
            Port::Invalidate => "T-INV",
            Port::DeltaCommit => "D-CMT",
            Port::Suspend => "SUSP",
            Port::Resume => "RESUME",
            Port::Complete => "COMPL",
            Port::TableFallback => "T-FBK",
            Port::SnapshotHit => "S-HIT",
        }
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One port-model event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The port this event was emitted at.
    pub port: Port,
    /// Sub-solver nesting depth (0 = the top-level query; `not`, `forall`,
    /// and aggregation goals run one level deeper).
    pub depth: u32,
    /// The predicate the goal resolves to.
    pub key: PredKey,
    /// The goal as seen at the port (resolved against the store on `Exit`,
    /// so successful bindings are visible).
    pub goal: Term,
}

impl TraceEvent {
    /// One human-readable line, indented by nesting depth:
    /// `CALL   (0) road(_0)`.
    pub fn render(&self) -> String {
        let indent = "  ".repeat(self.depth as usize);
        format!(
            "{:<6} ({}) {}{}",
            self.port.label(),
            self.depth,
            indent,
            self.goal
        )
    }
}

/// Receiver for solver events. Implementations are *compiled into* the
/// solver: `Solver<'_, S>` is monomorphized per sink type, and every
/// emission site is guarded by `if S::ENABLED`, so a sink with
/// `ENABLED == false` (the default [`NullSink`]) costs nothing at all.
pub trait TraceSink {
    /// Whether this sink receives anything. Emission sites are statically
    /// guarded on this constant; leave it `true` for real sinks.
    const ENABLED: bool = true;

    /// A port-model event was emitted.
    fn event(&mut self, event: &TraceEvent);

    /// One budget step was consumed on behalf of `key` (goal dispatch,
    /// clause-candidate trial, or cached-answer replay). The default
    /// implementation ignores it; the [`Profiler`] accumulates it.
    fn step(&mut self, key: PredKey) {
        let _ = key;
    }
}

/// The do-nothing sink: `ENABLED == false`, so the solver's emission sites
/// compile away entirely. This is the solver's default sink type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    fn event(&mut self, _event: &TraceEvent) {}
}

/// Per-predicate counters accumulated by the [`Profiler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredProfile {
    /// `Call` events (first dispatches of a goal).
    pub calls: u64,
    /// `Exit` events (successful dispatches and successful redos).
    pub exits: u64,
    /// `Redo` events (choice points resumed by backtracking).
    pub redos: u64,
    /// `Fail` events.
    pub fails: u64,
    /// Budget steps attributed to this predicate.
    pub steps: u64,
    /// Tabled calls answered from a completed answer set.
    pub table_hits: u64,
    /// Tabled calls that degraded to plain SLD resolution.
    pub fallbacks: u64,
}

impl PredProfile {
    fn absorb(&mut self, other: &PredProfile) {
        self.calls += other.calls;
        self.exits += other.exits;
        self.redos += other.redos;
        self.fails += other.fails;
        self.steps += other.steps;
        self.table_hits += other.table_hits;
        self.fallbacks += other.fallbacks;
    }
}

/// A [`TraceSink`] that aggregates events into per-predicate counters.
///
/// The step attribution is exact: the sum of `steps` over all rows equals
/// the `steps` field of the solver's [`crate::SolverStats`] (every
/// `Budget::step` the solver takes is attributed to exactly one key).
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    rows: FxHashMap<PredKey, PredProfile>,
    total_steps: u64,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.total_steps == 0
    }

    /// Total budget steps attributed across all predicates; equals the
    /// solver's `SolverStats::steps` for the queries this profiler
    /// observed.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// The counters for one predicate, if it was observed.
    pub fn profile_of(&self, key: PredKey) -> Option<PredProfile> {
        self.rows.get(&key).copied()
    }

    /// Merge another profiler's counters into this one (per-worker merge
    /// in parallel batches, mirroring [`crate::SolverStats::absorb`]).
    pub fn absorb(&mut self, other: &Profiler) {
        for (key, row) in &other.rows {
            self.rows.entry(*key).or_default().absorb(row);
        }
        self.total_steps += other.total_steps;
    }

    /// All `(predicate, counters)` rows, hottest first: sorted by steps,
    /// then calls, then name (descending activity, ascending name).
    pub fn rows(&self) -> Vec<(PredKey, PredProfile)> {
        let mut rows: Vec<(PredKey, PredProfile)> =
            self.rows.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|(ka, a), (kb, b)| {
            b.steps
                .cmp(&a.steps)
                .then(b.calls.cmp(&a.calls))
                .then_with(|| ka.name.as_str().cmp(&kb.name.as_str()))
                .then(ka.arity.cmp(&kb.arity))
        });
        rows
    }

    /// The hot-predicate table as text, hottest predicate first, with a
    /// totals line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
            "predicate", "calls", "exits", "redos", "fails", "steps", "t-hits", "t-fbks"
        );
        for (key, row) in self.rows() {
            let name = format!("{}/{}", key.name, key.arity);
            let _ = writeln!(
                out,
                "{:<32} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
                name,
                row.calls,
                row.exits,
                row.redos,
                row.fails,
                row.steps,
                row.table_hits,
                row.fallbacks
            );
        }
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8}",
            "total", "", "", "", "", self.total_steps, ""
        );
        out
    }
}

impl TraceSink for Profiler {
    fn event(&mut self, event: &TraceEvent) {
        let row = self.rows.entry(event.key).or_default();
        match event.port {
            Port::Call => row.calls += 1,
            Port::Exit => row.exits += 1,
            Port::Redo => row.redos += 1,
            Port::Fail => row.fails += 1,
            // A snapshot hit is still a table hit for profiling purposes;
            // the snapshot-specific tally lives in `SolverStats`.
            Port::TableHit | Port::SnapshotHit => row.table_hits += 1,
            Port::TableFallback => row.fallbacks += 1,
            // Inserts, native invocations, invalidations, and commits are
            // visible in the trace but carry no counter of their own (the
            // surrounding Call/Exit pair — or, for invalidations,
            // `SolverStats::table_invalidations` — already counts the
            // activity).
            // Scheduler-internal SLG events (suspend/resume/complete)
            // likewise describe table lifecycle, not predicate work.
            Port::TableInsert
            | Port::NativeCall
            | Port::Invalidate
            | Port::DeltaCommit
            | Port::Suspend
            | Port::Resume
            | Port::Complete => {}
        }
    }

    fn step(&mut self, key: PredKey) {
        self.rows.entry(key).or_default().steps += 1;
        self.total_steps += 1;
    }
}

/// A bounded ring buffer of the most recent events — the post-mortem "what
/// were the last N things the solver did before it failed / exhausted its
/// budget" view.
#[derive(Clone, Debug)]
pub struct RingTrace {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingTrace {
    /// A ring keeping at most `capacity` events (older events are dropped,
    /// counted by [`RingTrace::dropped`]).
    pub fn new(capacity: usize) -> RingTrace {
        RingTrace {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many older events were evicted to respect the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Render the retained events, oldest first, one line each; prefixed
    /// with an elision marker when older events were dropped.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier events dropped ...", self.dropped);
        }
        for event in &self.buf {
            let _ = writeln!(out, "{}", event.render());
        }
        out
    }
}

impl TraceSink for RingTrace {
    fn event(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }
}

/// The composite sink `Specification` attaches when tracing and/or
/// profiling is enabled: an optional [`Profiler`] and an optional
/// [`RingTrace`], fed by the same event stream.
#[derive(Clone, Debug, Default)]
pub struct ObserverSink {
    profiler: Option<Profiler>,
    ring: Option<RingTrace>,
}

impl ObserverSink {
    /// An observer with a profiler when `profile` is set and a ring of
    /// `ring_capacity` events when one is given.
    pub fn new(profile: bool, ring_capacity: Option<usize>) -> ObserverSink {
        ObserverSink {
            profiler: profile.then(Profiler::new),
            ring: ring_capacity.map(RingTrace::new),
        }
    }

    /// Split into the collected profiler and ring.
    pub fn into_parts(self) -> (Option<Profiler>, Option<RingTrace>) {
        (self.profiler, self.ring)
    }

    /// The profiler collected so far, if profiling is on.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The ring collected so far, if tracing is on.
    pub fn ring(&self) -> Option<&RingTrace> {
        self.ring.as_ref()
    }
}

impl TraceSink for ObserverSink {
    fn event(&mut self, event: &TraceEvent) {
        if let Some(p) = &mut self.profiler {
            p.event(event);
        }
        if let Some(r) = &mut self.ring {
            r.event(event);
        }
    }

    fn step(&mut self, key: PredKey) {
        if let Some(p) = &mut self.profiler {
            p.step(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(port: Port, depth: u32, name: &str, arity: usize) -> TraceEvent {
        TraceEvent {
            port,
            depth,
            key: PredKey::new(name, arity),
            goal: Term::atom(name),
        }
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        // Read through a generic context so the flag values are exercised
        // the way solver emission guards see them (clippy rejects asserting
        // the consts directly as constant assertions).
        fn enabled<S: TraceSink>() -> bool {
            S::ENABLED
        }
        assert!(!enabled::<NullSink>());
        assert!(enabled::<Profiler>());
        assert!(enabled::<RingTrace>());
        assert!(enabled::<ObserverSink>());
    }

    #[test]
    fn profiler_counts_ports_and_steps() {
        let mut p = Profiler::new();
        let key = PredKey::new("road", 1);
        p.event(&ev(Port::Call, 0, "road", 1));
        p.event(&ev(Port::Exit, 0, "road", 1));
        p.event(&ev(Port::Redo, 0, "road", 1));
        p.event(&ev(Port::Fail, 0, "road", 1));
        p.event(&ev(Port::TableHit, 0, "road", 1));
        p.step(key);
        p.step(key);
        let row = p.profile_of(key).unwrap();
        assert_eq!(
            (
                row.calls,
                row.exits,
                row.redos,
                row.fails,
                row.table_hits,
                row.steps
            ),
            (1, 1, 1, 1, 1, 2)
        );
        assert_eq!(p.total_steps(), 2);
    }

    #[test]
    fn profiler_absorb_merges_rows() {
        let mut a = Profiler::new();
        let mut b = Profiler::new();
        a.step(PredKey::new("p", 1));
        b.step(PredKey::new("p", 1));
        b.step(PredKey::new("q", 2));
        a.absorb(&b);
        assert_eq!(a.total_steps(), 3);
        assert_eq!(a.profile_of(PredKey::new("p", 1)).unwrap().steps, 2);
        assert_eq!(a.profile_of(PredKey::new("q", 2)).unwrap().steps, 1);
    }

    #[test]
    fn profiler_rows_sorted_hottest_first() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.step(PredKey::new("hot", 1));
        }
        p.step(PredKey::new("cold", 1));
        let rows = p.rows();
        assert_eq!(rows[0].0, PredKey::new("hot", 1));
        assert_eq!(rows[1].0, PredKey::new("cold", 1));
        let rendered = p.render();
        assert!(rendered.contains("hot/1"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = RingTrace::new(2);
        for i in 0..5u32 {
            r.event(&ev(Port::Call, i, "p", 0));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let depths: Vec<u32> = r.events().map(|e| e.depth).collect();
        assert_eq!(depths, vec![3, 4]);
        assert!(r.render().starts_with("... 3 earlier events dropped ..."));
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut r = RingTrace::new(0);
        r.event(&ev(Port::Call, 0, "p", 0));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn observer_feeds_both_components() {
        let mut o = ObserverSink::new(true, Some(8));
        o.event(&ev(Port::Call, 0, "p", 1));
        o.step(PredKey::new("p", 1));
        let (profiler, ring) = o.into_parts();
        assert_eq!(profiler.unwrap().total_steps(), 1);
        assert_eq!(ring.unwrap().len(), 1);
    }

    #[test]
    fn event_render_is_stable() {
        let e = ev(Port::TableHit, 2, "h", 5);
        assert_eq!(e.render(), "T-HIT  (2)     h");
    }
}
