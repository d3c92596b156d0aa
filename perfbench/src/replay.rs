//! In-process replay of a generated statement stream through the layers'
//! public functions, doing per statement what `gdp::server` does:
//!
//! * a query is parsed (`gdp_lang::parse_program_diagnostics`), each
//!   `?-` runs through `Specification::satisfy` on the pinned view, and
//!   the answers are rendered the way the server prints them;
//! * a block goes through `SpecStore::commit` with the block's
//!   `Loader::load_str` as the closure, then `SpecStore::snapshot`
//!   re-pins the view;
//! * `:audit [-j N] -i` calls `audit_incremental` with the commits' merged
//!   delta, on N workers.
//!
//! The replay runs two lanes side by side in one process: a plain lane
//! that times only whole statements, and a traced lane that also times
//! every layer call. Each lane has a store of its own, except on a
//! read-only stream, where both pin the same one. The stream advances one
//! statement per `step` line on standard input, answered with `done` once
//! both lanes have run it, so that a driver can keep the replay in step
//! with a server given the same stream. Spans stay in memory and are
//! written once, when the stream has ended.

use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::path::Path;

use gdp::core::{DurabilityOptions, SpecResult, SpecStore, Specification};
use gdp::engine::Delta;
use gdp::lang::{parse_program_diagnostics, Loader, Statement};
use gdp::spatial::SpatialRegistry;

use crate::clock::{now_ns, CLOCK_MONOTONIC, CLOCK_PROCESS_CPUTIME_ID};

/// One recorded span.
struct Span {
    name: &'static str,
    stmt: i64,
    parent: i64,
    wall: (u64, u64),
    cpu: (u64, u64),
}

/// An in-memory span recorder. Statement spans are always recorded;
/// layer spans only when tracing is on.
///
/// CPU time is the process clock: the stream runs on one thread while the
/// main thread waits for it, so the clock counts that thread plus the
/// workers of a parallel audit.
pub struct Tracer {
    traced: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            traced,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, stmt: i64) {
        let parent = self.open.last().map_or(-1, |&p| p as i64);
        self.open.push(self.spans.len());
        let wall = now_ns(CLOCK_MONOTONIC);
        let cpu = now_ns(CLOCK_PROCESS_CPUTIME_ID);
        self.spans.push(Span {
            name,
            stmt,
            parent,
            wall: (wall, 0),
            cpu: (cpu, 0),
        });
    }

    /// Open a statement (or other top-level) span.
    pub fn begin(&mut self, name: &'static str, stmt: i64) {
        self.push(name, stmt);
    }

    /// Open a layer span inside the current one (traced runs only).
    pub fn enter(&mut self, name: &'static str, stmt: i64) {
        if self.traced {
            self.push(name, stmt);
        }
    }

    fn pop(&mut self) {
        let cpu = now_ns(CLOCK_PROCESS_CPUTIME_ID);
        let wall = now_ns(CLOCK_MONOTONIC);
        let idx = self.open.pop().expect("balanced spans");
        let span = &mut self.spans[idx];
        span.cpu.1 = cpu;
        span.wall.1 = wall;
    }

    /// Close the span opened by [`Tracer::begin`].
    pub fn end(&mut self) {
        self.pop();
    }

    /// Close the span opened by [`Tracer::enter`].
    pub fn exit(&mut self) {
        if self.traced {
            self.pop();
        }
    }

    /// Write `name \t stmt \t parent \t wall0 \t wall1 \t cpu0 \t cpu1` lines.
    fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.stmt, s.parent, s.wall.0, s.wall.1, s.cpu.0, s.cpu.1
            );
        }
        std::fs::write(path, out).map_err(|e| e.to_string())
    }
}

/// The base image `gdp-serve` starts from: the standard specification
/// with the unified fuzzy rule pack registered.
fn base_spec() -> SpecResult<(Specification, SpatialRegistry)> {
    let (mut spec, registry) = gdp::standard_spec()?;
    spec.register_meta_model(gdp::fuzzy::unified_fuzzy(gdp::fuzzy::UnifyPolicy::Max));
    Ok((spec, registry))
}

/// A durable store over the base image with `world` loaded, as
/// `gdp-serve --wal FILE --load world` opens it.
fn open_store(
    world: &str,
    wal: &Path,
    t: &mut Tracer,
) -> Result<(SpecStore, SpatialRegistry), String> {
    let (mut spec, registry) = base_spec().map_err(|e| e.to_string())?;
    t.begin("lang.load_world", -1);
    let loaded = Loader::with_spatial(&mut spec, &registry).load_str(world);
    t.end();
    loaded.map_err(|e| format!("world does not load: {e}"))?;
    let (store, _) = SpecStore::recover_durable(spec, wal, DurabilityOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((store, registry))
}

/// Counters recorded per statement (traced lane), written as
/// `stmt \t name \t value` lines.
struct Counters(String);

impl Counters {
    fn add(&mut self, stmt: i64, name: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.0, "{stmt}\t{name}\t{value}");
    }
}

/// Index counters summed over predicates: (candidates selected, scans).
fn index_totals(spec: &Specification) -> (u64, u64) {
    let mut totals = (0, 0);
    for r in spec.kb().index_stats() {
        totals.0 += (r.consults * r.clauses as u64).saturating_sub(r.pruned);
        totals.1 += r.scans;
    }
    totals
}

/// Print answers as the server does: one line per distinct answer.
fn render(answers: &[gdp::core::Answer], out: &mut String) {
    if answers.is_empty() {
        out.push_str("no.\n");
        return;
    }
    let mut seen: Vec<String> = Vec::new();
    for answer in answers {
        let line = if answer.bindings().is_empty() {
            "yes.".to_string()
        } else {
            answer
                .bindings()
                .iter()
                .map(|(name, value)| format!("{name} = {value}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !seen.contains(&line) {
            out.push_str(&line);
            out.push('\n');
            seen.push(line);
        }
    }
}

/// One session over a store: its pinned view, the delta committed since
/// the last audit, an open transaction's blocks, and its spans.
struct Lane<'a> {
    store: &'a SpecStore,
    registry: SpatialRegistry,
    view: Specification,
    pending: Delta,
    buffered: Vec<String>,
    reply: String,
    t: Tracer,
}

impl<'a> Lane<'a> {
    fn new(store: &'a SpecStore, registry: SpatialRegistry, t: Tracer) -> Lane<'a> {
        Lane {
            store,
            registry,
            view: store.snapshot().1,
            pending: Delta::new(),
            buffered: Vec::new(),
            reply: String::new(),
            t,
        }
    }

    /// Run statement `id` as the server's session loop does, recording
    /// counters when `counters` is given.
    fn statement(
        &mut self,
        id: i64,
        kind: &str,
        text: &str,
        workers: usize,
        mut counters: Option<&mut Counters>,
    ) -> Result<(), String> {
        let t = &mut self.t;
        self.reply.clear();
        let before = (counters.is_some() && kind == "query").then(|| index_totals(&self.view));
        t.begin("stmt", id);
        match kind {
            "query" => {
                t.enter("lang.parse", id);
                let (statements, errors) = parse_program_diagnostics(text);
                t.exit();
                if !errors.is_empty() {
                    return Err(format!("statement {id} does not parse"));
                }
                for (_, statement) in statements {
                    let Statement::Query(formula) = statement else {
                        return Err(format!("statement {id} is not a query"));
                    };
                    t.enter("spec.satisfy", id);
                    let answers = self.view.satisfy(&formula);
                    t.exit();
                    let answers = answers.map_err(|e| format!("statement {id}: {e}"))?;
                    t.enter("server.render", id);
                    render(&answers, &mut self.reply);
                    t.exit();
                }
            }
            "commit" | "end" => {
                if kind == "commit" {
                    self.buffered.push(text.to_string());
                }
                let (buffered, registry) = (&self.buffered, &self.registry);
                t.enter("store.commit", id);
                let result = self.store.commit(|spec| {
                    let mut facts = 0;
                    for source in buffered {
                        t.enter("lang.load", id);
                        let loaded = Loader::with_spatial(spec, registry).load_str(source);
                        t.exit();
                        facts += loaded
                            .map_err(|e| gdp::core::SpecError::Transaction(e.to_string()))?
                            .facts;
                    }
                    Ok(facts)
                });
                t.exit();
                let (committed, facts) = result.map_err(|e| format!("statement {id}: {e}"))?;
                let _ = writeln!(
                    self.reply,
                    "ok ({facts} facts) committed as seq {}",
                    committed.seq
                );
                self.pending.merge(committed.delta);
                self.buffered.clear();
                t.enter("store.snapshot", id);
                self.view = self.store.snapshot().1;
                t.exit();
            }
            "begin" => self.buffered.clear(),
            "block" => self.buffered.push(text.to_string()),
            "seq" => {
                let _ = writeln!(self.reply, "head is seq {}", self.store.head_seq());
            }
            "audit" => {
                let workers = text
                    .split_whitespace()
                    .skip_while(|w| *w != "-j")
                    .nth(1)
                    .map_or(Ok(workers), str::parse)
                    .map_err(|_| format!("statement {id}: bad -j"))?;
                if !self.view.incremental_enabled() {
                    self.view.set_incremental(true);
                }
                t.enter("audit.incremental", id);
                let report = self.view.audit_incremental(&self.pending, workers);
                t.exit();
                let report = report.map_err(|e| format!("statement {id}: {e}"))?;
                self.pending = Delta::new();
                t.enter("server.render", id);
                for v in &report.violations {
                    let _ = writeln!(self.reply, "{v}");
                }
                t.exit();
                if let Some(c) = counters.as_deref_mut() {
                    let s = report.stats;
                    c.add(id, "steps", s.steps);
                    c.add(id, "table_hits", s.table_hits);
                    c.add(id, "table_misses", s.table_misses);
                    c.add(id, "table_invalidations", s.table_invalidations);
                }
            }
            other => return Err(format!("unknown statement kind {other}")),
        }
        t.end();
        std::hint::black_box(&self.reply);
        let Some(c) = counters else {
            return Ok(());
        };
        if matches!(kind, "commit" | "block") {
            // Blocks are parsed inside the commit's `Loader::load_str`;
            // parse them once more, outside the statement, to price parsing.
            t.begin("lang.parse.probe", id);
            std::hint::black_box(parse_program_diagnostics(text));
            t.end();
        }
        if let Some(before) = before {
            let after = index_totals(&self.view);
            let s = self.view.solver_stats();
            c.add(id, "steps", s.steps);
            c.add(id, "resolutions", s.resolutions);
            c.add(id, "candidates", after.0 - before.0);
            c.add(id, "scans", after.1 - before.1);
            let answers = self.reply.lines().filter(|l| *l != "no.").count();
            c.add(id, "answers", answers);
        }
        Ok(())
    }
}

/// Replay `stream` (the generator's TSV) over `world`, with the stores'
/// files in `dir`, and write `spans-plain.tsv`, `spans-traced.tsv` and
/// `counters.tsv` into `dir`.
pub fn run(world: &str, stream: &str, dir: &Path) -> Result<(), String> {
    let lines: Vec<&str> = stream.lines().collect();
    let read_only = lines
        .iter()
        .all(|l| l.starts_with("query\t") || l.starts_with("seq\t"));
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let traced_wal = dir.join("traced.wal");
    let (traced_store, registry) = open_store(world, &traced_wal, &mut traced)?;
    let plain_store = if read_only {
        None
    } else {
        Some(open_store(world, &dir.join("plain.wal"), &mut plain)?)
    };
    let mut counters = Counters(String::new());
    // The stream runs on a thread of its own, as a gdp-serve session does
    // (its allocations then come from a thread arena, as the server's do).
    (plain, traced) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let plain_lane = match &plain_store {
                    Some((store, registry)) => Lane::new(store, registry.clone(), plain),
                    None => Lane::new(&traced_store, registry.clone(), plain),
                };
                let mut lanes = [plain_lane, Lane::new(&traced_store, registry, traced)];
                stream_loop(&lines, &mut lanes, &mut counters)?;
                let [plain_lane, traced_lane] = lanes;
                Ok::<_, String>((plain_lane.t, traced_lane.t))
            })
            .join()
            .expect("replay thread panicked")
    })?;
    drop(plain_store);

    // One explicit fold of the traced store's head, then recovery over
    // its files from a freshly built base image.
    traced.begin("checkpoint.explicit", -1);
    traced_store.checkpoint().map_err(|e| e.to_string())?;
    traced.end();
    drop(traced_store);
    let (mut base, registry) = base_spec().map_err(|e| e.to_string())?;
    Loader::with_spatial(&mut base, &registry)
        .load_str(world)
        .map_err(|e| e.to_string())?;
    traced.begin("store.recover", -1);
    let recovered = SpecStore::recover_durable(base, &traced_wal, DurabilityOptions::default());
    traced.end();
    recovered.map_err(|e| e.to_string())?;

    plain.write_tsv(&dir.join("spans-plain.tsv"))?;
    traced.write_tsv(&dir.join("spans-traced.tsv"))?;
    std::fs::write(dir.join("counters.tsv"), counters.0).map_err(|e| e.to_string())
}

/// Run each statement of `lines` on both lanes, one statement per `step`
/// line on standard input, each answered with a `done` line. The plain
/// lane goes first on even statements and second on odd ones, so the
/// cache warmth one lane leaves for the other falls on both alike.
fn stream_loop(
    lines: &[&str],
    lanes: &mut [Lane<'_>; 2],
    counters: &mut Counters,
) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut steps = std::io::stdin().lock().lines();
    let mut stdout = std::io::stdout().lock();
    for (idx, line) in lines.iter().enumerate() {
        match steps.next() {
            Some(Ok(step)) if step == "step" => {}
            _ => return Err(format!("input ended before statement {idx}")),
        }
        let id = idx as i64;
        let mut fields = line.split('\t');
        let (Some(kind), Some(_family), Some(text)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed stream line {id}"));
        };
        let order = if idx % 2 == 0 { [0, 1] } else { [1, 0] };
        for lane in order {
            let counters = (lane == 1).then_some(&mut *counters);
            lanes[lane].statement(id, kind, text, workers, counters)?;
        }
        writeln!(stdout, "done")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())?;
    }
    match steps.next() {
        None => Ok(()),
        Some(_) => Err("more steps than statements".into()),
    }
}
