//! The command layer of both `gdp-serve` and `gdp-repl`: protocol
//! [`Session`]s over a shared [`ServerState`], with MVCC snapshot
//! isolation per session.
//!
//! One process hosts one [`ServerState`] — a [`SpecStore`] plus the shared
//! spatial registry — and any number of sessions. `gdp-serve` runs one per
//! connection, over a durable or an in-memory store; `gdp-repl` runs one
//! over an in-memory store, with no socket and no write-ahead log. There
//! is one protocol and one dispatcher: the shell adds only its terminal
//! (Ctrl-C and `:load FILE`).
//!
//! The protocol: statements terminated by `.` (lines accumulate under a
//! `...> ` prompt until one ends in `.`; blank lines between statements
//! are ignored), `:`-commands for session control, and one `gdp> ` prompt
//! after each response. Its transaction semantics:
//!
//! * a block that parses cleanly and holds only `?-` queries runs on the
//!   session's pinned snapshot and never takes the write lock;
//! * any other block commits **atomically**: any diagnostic — a parse
//!   error, a rejected statement, a failing query, a cancellation —
//!   rolls the whole block back;
//! * `:begin` buffers blocks, `:commit` applies them as one commit and
//!   `:rollback` discards them; the session does not see its buffered
//!   writes before `:commit`;
//! * `:snapshot [SEQ]` re-pins the session (head, or a retained earlier
//!   commit); `:seq` shows the pinned and head sequence numbers.
//!
//! State is split by who owns it. `:table` and `:index on|off` change the
//! knowledge base every session pins, through [`SpecStore::update`].
//! Limits, deadline, retries, tracing, profiling, the running counter
//! totals `:stats` prints and the audit member cache belong to the
//! session and follow it across re-pins ([`Specification::swap_session`]).
//! The world view is the knowledge base's `active_model/1` facts, so a
//! `#world_view` block commits, pins and logs like any other. The base
//! image's step and depth limits and the operator's statement deadline
//! are ceilings the session may lower but never lift. `:audit -i`
//! re-solves only the members that the commits between its member
//! cache's pin and the current pin can have changed, reading those
//! commits from the store's retained records
//! ([`SpecStore::delta_between`]).
//!
//! The socket layer is hardened for unattended operation
//! ([`ServeOptions`]): admission control turns away connections past
//! `max_sessions` with a clean `server busy` line; per-session idle and
//! per-statement wall-clock deadlines ride the engine's
//! [`CancelToken`]/deadline machinery; and a drain request (SIGTERM in
//! `gdp-serve`, or `:shutdown` from any session) stops the accept loop,
//! lets in-flight statements finish within a grace period, cancels the
//! stragglers, joins every session thread, and writes a final
//! checkpoint before returning.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gdp_core::{
    AuditReport, DurabilityOptions, Formula, SpecError, SpecResult, SpecStore, Specification,
};
use gdp_engine::{
    CancelToken, CyclePolicy, EngineError, IndexReport, KnowledgeBase, RangeSpec, SolverStats,
    SOLVER_STACK,
};
use gdp_lang::{
    check_depth, first_token, parse_formula, parse_program_diagnostics, LangError, Loader, Pos,
    Statement, Tok,
};
use gdp_spatial::SpatialRegistry;

/// The prompt in front of a new statement or command.
pub const PROMPT: &str = "gdp> ";
const CONT_PROMPT: &str = "...> ";

/// How often blocked socket reads wake up to notice drain/idle state,
/// and how often the accept loop polls its non-blocking listener.
const TICK: Duration = Duration::from_millis(50);

/// The longest protocol line a socket session reads, newline included.
/// Past it the session replies with an error at once and skips the rest
/// of the line, up to its newline, without holding it. Unless the line is
/// a `:`-command, the statement it is part of is refused whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most bytes of statement lines a session accumulates while waiting
/// for the terminating `.`. Past it the statement is refused whole: its
/// lines so far are dropped, and so are its lines still to come, up to
/// the one that ends in `.`.
pub const MAX_STATEMENT_BYTES: usize = 2 << 20;

/// The most one `:begin` transaction buffers: the source of its blocks,
/// which is parsed only at `:commit`, and one block end (8 bytes) per
/// block. A block that would pass it is refused, and `:commit` then rolls
/// the transaction back, as it does for any statement the transaction
/// refused.
pub const MAX_TXN_BYTES: usize = 8 << 20;

const HELP: &str = "\
statements  any specification-language statement ending in `.`
            (facts, rules, constraints, #directives, `?- query.`)
            a block of queries runs against this session's pinned
            snapshot; any other block commits atomically to the store
            (one diagnostic rolls the whole block back)
:load FILE  (gdp-repl only) run a specification file as one block
:begin      buffer statement blocks; :commit applies them as ONE commit
:commit     commit the buffered blocks (all-or-nothing)
:rollback   discard the buffered blocks
:snapshot [SEQ]  re-pin this session: at head, or at a retained commit
:seq        this session's pinned sequence and the store's head
:why GOAL   explain why a fact is provable (proof tree)
:check      consistency check against the pinned snapshot
:audit [-j N] [-i]  parallel world-view audit of the pinned snapshot
            (N workers; default: all cores). `-i`: re-solve only the
            members that the commits since this session's last audit
            can have changed
:views      the active world view and meta-view
:stats      knowledge-base statistics, the last query's counters, and
            this session's running totals of the answer-table counters
:index [MODE]  clause indexing: no argument prints the per-predicate
            index report (range configuration, hit and prune counters,
            and the path each hash index keys); status; on | off
            switch candidate selection for every session
:table MODE answer tabling for every session: on | off | all | status,
            plus the recursive-cycle policy: inductive | coinductive
:trace MODE port-event tracing: on | off | show | status
            (`show` prints the last traced query's final events)
:profile [MODE]  per-predicate profiler: no argument prints the
            hot-predicate table; on | off | reset manage it
:budget S D this session's per-query step and depth budget, never
            above the base budget the session started with
:deadline MS|off  this session's wall-clock limit per query, never
            above the server's --deadline (Ctrl-C cancels in gdp-repl)
:retry [N]  audit retry attempts for budget-limited goals (escalating
            step limits, never past the base budget); no argument
            prints the current policy
:shutdown   drain the whole server: stop accepting, finish sessions,
            write a final checkpoint, exit
:help       this text
:quit       close this session
limits      a line longer than 1 MiB, a statement longer than 2 MiB
            before its `.`, and a :begin buffer past 8 MiB are refused
            with an error; the statement is dropped whole, up to the
            line that ends in `.`, a refusal inside :begin makes
            :commit roll back, and the session goes on (`:load` and
            gdp-serve --load files are not limited)";

/// Serving knobs: admission control, timeouts, drain behavior. Every
/// field has a production-sane default; `gdp-serve` exposes them as
/// flags.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Maximum concurrent sessions; further connections are turned away
    /// with a clean `server busy` line instead of queueing unboundedly.
    pub max_sessions: usize,
    /// Close a session after this long without a complete line from the
    /// client. `None` = sessions may idle forever.
    pub idle_timeout: Option<Duration>,
    /// Wall-clock deadline applied to each statement (queries, `:check`,
    /// `:audit`, commit blocks). `None` = no per-statement limit.
    pub statement_deadline: Option<Duration>,
    /// On drain, how long in-flight statements get to finish naturally
    /// before their cancel tokens are tripped.
    pub drain_grace: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_sessions: 64,
            idle_timeout: None,
            statement_deadline: None,
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// Shared server state: the MVCC store, the spatial registry every
/// session's loader consults, and the drain/admission bookkeeping.
/// Sessions hold it behind an [`Arc`].
pub struct ServerState {
    store: SpecStore,
    registry: SpatialRegistry,
    /// Tripped by SIGTERM or `:shutdown`; the accept loop and every
    /// session tick notice it and wind down.
    shutdown: AtomicBool,
    /// Active sessions' cancel tokens, keyed by session id — the drain
    /// path trips them all after the grace period.
    sessions: Mutex<HashMap<u64, CancelToken>>,
    next_session: AtomicU64,
}

/// The base image every `gdp-serve` and `gdp-repl` process starts from:
/// the standard spatial + temporal specification with the fuzzy rule
/// packs registered. Durable stores replay their WAL over this base, so
/// it must stay deterministic.
fn base_spec() -> SpecResult<(Specification, SpatialRegistry)> {
    let (mut spec, registry) = crate::standard_spec()?;
    spec.register_meta_model(gdp_fuzzy::unified_fuzzy(gdp_fuzzy::UnifyPolicy::Max));
    Ok((spec, registry))
}

impl ServerState {
    /// Build the base image: the standard spec plus every `--load` file,
    /// applied *before* the store exists. Load files are part of the
    /// base, not commits — durable stores fingerprint the result, so a
    /// load file that changes between runs is caught at recovery instead
    /// of silently diverging the replay.
    fn build_base(load: &[PathBuf]) -> SpecResult<(Specification, SpatialRegistry)> {
        let (mut spec, registry) = base_spec()?;
        for path in load {
            let source = std::fs::read_to_string(path).map_err(|e| {
                SpecError::Transaction(format!("cannot read {}: {e}", path.display()))
            })?;
            Loader::with_spatial(&mut spec, &registry)
                .load_str(&source)
                .map_err(|e| {
                    SpecError::Transaction(format!("cannot load {}: {e}", path.display()))
                })?;
        }
        Ok((spec, registry))
    }

    fn from_store(store: SpecStore, registry: SpatialRegistry) -> Arc<ServerState> {
        Arc::new(ServerState {
            store,
            registry,
            shutdown: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        })
    }

    /// In-memory server: no write-ahead log.
    pub fn new() -> SpecResult<Arc<ServerState>> {
        ServerState::with_load(&[])
    }

    /// In-memory server over the base image plus `load` files.
    pub fn with_load(load: &[PathBuf]) -> SpecResult<Arc<ServerState>> {
        let (spec, registry) = ServerState::build_base(load)?;
        Ok(ServerState::from_store(SpecStore::new(spec), registry))
    }

    /// Durable server with default durability options — see
    /// [`ServerState::durable_opts`].
    pub fn durable(path: &Path) -> SpecResult<(Arc<ServerState>, u64)> {
        ServerState::durable_opts(path, DurabilityOptions::default(), &[])
    }

    /// Durable server: recover from the checkpoint/WAL family at `path`
    /// (newest valid checkpoint + log suffix) over the base image plus
    /// `load` files, and append every subsequent commit. The base's
    /// fingerprint is checked against what is on disk — a changed load
    /// file is a hard error. Returns the state and the recovered head
    /// sequence number.
    pub fn durable_opts(
        path: &Path,
        opts: DurabilityOptions,
        load: &[PathBuf],
    ) -> SpecResult<(Arc<ServerState>, u64)> {
        let (spec, registry) = ServerState::build_base(load)?;
        let (store, head) = SpecStore::recover_durable(spec, path, opts)?;
        Ok((ServerState::from_store(store, registry), head))
    }

    /// The underlying MVCC store (tests and embedding).
    pub fn store(&self) -> &SpecStore {
        &self.store
    }

    /// The shared spatial registry.
    pub fn registry(&self) -> &SpatialRegistry {
        &self.registry
    }

    /// Ask the server to drain: stop accepting, let sessions finish (or
    /// cancel them after the grace period), checkpoint, exit. Safe from
    /// a signal handler — a single atomic store.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Has a drain been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Number of admitted, still-active sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Admit a new session under `limit`, returning its id — or `None`
    /// when the server is full (the caller sends `server busy`).
    fn try_admit(&self, limit: usize) -> Option<u64> {
        let mut sessions = self.sessions.lock().unwrap();
        if sessions.len() >= limit {
            return None;
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, CancelToken::new());
        Some(id)
    }

    /// Point session `id`'s registry slot at the session's cancel token.
    fn set_session_token(&self, id: u64, token: CancelToken) {
        if let Some(slot) = self.sessions.lock().unwrap().get_mut(&id) {
            *slot = token;
        }
    }

    fn unregister_session(&self, id: u64) {
        self.sessions.lock().unwrap().remove(&id);
    }

    /// Trip every active session's cancel token (drain, after grace).
    fn cancel_all_sessions(&self) {
        for token in self.sessions.lock().unwrap().values() {
            token.cancel();
        }
    }
}

/// Removes a session from the admission registry when its thread ends —
/// however it ends, including a panic inside the protocol loop.
struct SessionGuard {
    state: Arc<ServerState>,
    id: u64,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.state.unregister_session(self.id);
    }
}

/// The socket side of a session: `id` is its admission-registry slot.
/// Reads that time out (socket read timeouts double as ticks) check the
/// drain flag and the idle budget; a partial line survives across ticks
/// in the reader's buffer.
fn run_session(
    state: Arc<ServerState>,
    mut reader: impl BufRead,
    mut writer: impl Write,
    opts: &ServeOptions,
    id: u64,
) -> std::io::Result<()> {
    let mut session = Session::new(state, opts);
    // The token survives every re-pin, so the registry is set once.
    session.state.set_session_token(id, session.cancel_token());
    writeln!(
        writer,
        "gdp-serve — formal GDP requirements server (snapshot pinned at seq {}; :help for help)",
        session.seq
    )?;
    write!(writer, "{PROMPT}")?;
    writer.flush()?;
    let mut lines = LineReader::default();
    let mut last_activity = Instant::now();
    loop {
        match lines.next(&mut reader) {
            Ok(Line::Eof) => return Ok(()),
            Ok(Line::Text(line)) => {
                last_activity = Instant::now();
                if !session.line(&line, &mut writer)? {
                    return Ok(());
                }
                write!(writer, "{}", session.prompt())?;
                writer.flush()?;
            }
            Ok(Line::TooLong) => {
                // Refused at once; the prompt follows the line's end.
                last_activity = Instant::now();
                writeln!(
                    writer,
                    "error: line longer than {MAX_LINE_BYTES} bytes refused; it is dropped up to its newline, and a statement it is part of is dropped whole."
                )?;
                writer.flush()?;
            }
            Ok(Line::Refused { command, ended }) => {
                last_activity = Instant::now();
                session.refused_line(command, ended);
                write!(writer, "{}", session.prompt())?;
                writer.flush()?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read tick, not an error: any partial line stays in
                // the line reader.
                if session.state.is_shutting_down() {
                    writeln!(writer, "server draining; closing session.")?;
                    writer.flush()?;
                    return Ok(());
                }
                if let Some(idle) = opts.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        writeln!(writer, "idle timeout; closing session.")?;
                        writer.flush()?;
                        return Ok(());
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One read from a [`LineReader`].
enum Line {
    /// A whole line, newline included (the last line of a stream may lack
    /// it).
    Text(String),
    /// A line just passed [`MAX_LINE_BYTES`]: what was buffered is freed,
    /// and the rest of the line is skipped as it arrives.
    TooLong,
    /// The newline that ends a line refused as [`Line::TooLong`]:
    /// whether its first non-blank byte was `:` and its last `.`.
    Refused { command: bool, ended: bool },
    /// The stream ended.
    Eof,
}

/// `BufRead::read_line` with a byte cap. A partial line survives a read
/// error such as a socket tick and is continued by the next call.
#[derive(Default)]
struct LineReader {
    buf: Vec<u8>,
    /// The line being skipped after it was refused as too long.
    skip: Option<Skip>,
}

/// What a [`LineReader`] keeps of a line it skips: the ends that tell
/// whether it was a command and whether it ended a statement.
#[derive(Clone, Copy)]
struct Skip {
    command: bool,
    ended: bool,
    /// Its newline was read.
    done: bool,
}

impl Skip {
    /// Note the next bytes of the skipped line.
    fn note(&mut self, bytes: &[u8]) {
        if let Some(&last) = bytes.iter().rev().find(|b| !b.is_ascii_whitespace()) {
            self.ended = last == b'.';
        }
    }
}

impl LineReader {
    fn next(&mut self, reader: &mut impl BufRead) -> std::io::Result<Line> {
        loop {
            if let Some(Skip {
                command,
                ended,
                done: true,
            }) = self.skip
            {
                self.skip = None;
                return Ok(Line::Refused { command, ended });
            }
            let available = match reader.fill_buf() {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if self.buf.is_empty() {
                    return Ok(Line::Eof);
                }
                return self.take();
            }
            let (len, ends) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (available.len(), false),
            };
            let chunk = &available[..len];
            let refused = match &mut self.skip {
                Some(skip) => {
                    skip.note(chunk);
                    false
                }
                None if self.buf.len() + len > MAX_LINE_BYTES => {
                    let first = self
                        .buf
                        .iter()
                        .chain(chunk)
                        .find(|b| !b.is_ascii_whitespace());
                    let mut skip = Skip {
                        command: first == Some(&b':'),
                        ended: false,
                        done: false,
                    };
                    skip.note(&self.buf);
                    skip.note(chunk);
                    self.buf = Vec::new();
                    self.skip = Some(skip);
                    true
                }
                None => {
                    self.buf.extend_from_slice(chunk);
                    false
                }
            };
            reader.consume(len);
            match &mut self.skip {
                Some(skip) => skip.done = ends,
                None if ends => return self.take(),
                None => {}
            }
            if refused {
                return Ok(Line::TooLong);
            }
        }
    }

    fn take(&mut self) -> std::io::Result<Line> {
        String::from_utf8(std::mem::take(&mut self.buf))
            .map(Line::Text)
            .map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })
    }
}

/// The stream-type surface the generic accept loop needs: duplex
/// socket streams that can split into a reader half and tick on reads.
trait SessionStream: Read + Write + Send + Sized + 'static {
    fn split_reader(&self) -> std::io::Result<Self>;
    fn read_tick(&self, tick: Duration) -> std::io::Result<()>;
}

impl SessionStream for TcpStream {
    fn split_reader(&self) -> std::io::Result<TcpStream> {
        self.try_clone()
    }
    fn read_tick(&self, tick: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(tick))
    }
}

#[cfg(unix)]
impl SessionStream for UnixStream {
    fn split_reader(&self) -> std::io::Result<UnixStream> {
        self.try_clone()
    }
    fn read_tick(&self, tick: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(tick))
    }
}

/// One admitted socket session: register, run the protocol loop, always
/// unregister, and report how it ended to stderr with a peer tag — a
/// session error must never vanish, and must never take down anything
/// but its own connection.
fn run_socket_session<S: SessionStream>(
    state: Arc<ServerState>,
    stream: S,
    peer: String,
    opts: ServeOptions,
    id: u64,
) {
    let _guard = SessionGuard {
        state: Arc::clone(&state),
        id,
    };
    let result = (|| -> std::io::Result<()> {
        stream.read_tick(TICK)?;
        let reader = BufReader::new(stream.split_reader()?);
        run_session(state, reader, stream, &opts, id)
    })();
    match result {
        Ok(()) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ) =>
        {
            // The client vanished mid-statement. Only this session dies;
            // its buffered :begin blocks die with it (they never touched
            // the store), and the store itself holds no open txn.
            eprintln!("gdp-serve: session {peer}: connection lost ({e})");
        }
        Err(e) => eprintln!("gdp-serve: session {peer}: {e}"),
    }
}

/// The generic hardened accept loop: poll a non-blocking `accept`,
/// admission-check each connection, spawn admitted sessions, and on
/// drain stop accepting, grace, cancel, join, checkpoint.
fn accept_loop<S: SessionStream>(
    state: Arc<ServerState>,
    opts: ServeOptions,
    mut accept: impl FnMut() -> std::io::Result<(S, String)>,
) -> std::io::Result<()> {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.is_shutting_down() {
        match accept() {
            Ok((mut stream, peer)) => {
                handles.retain(|h| !h.is_finished());
                match state.try_admit(opts.max_sessions) {
                    Some(id) => {
                        let state = Arc::clone(&state);
                        let opts = opts.clone();
                        let session = std::thread::Builder::new()
                            .stack_size(SOLVER_STACK)
                            .spawn(move || run_socket_session(state, stream, peer, opts, id))
                            .expect("spawn a session thread");
                        handles.push(session);
                    }
                    None => {
                        // Admission control: a clean, parseable refusal.
                        let _ = writeln!(
                            stream,
                            "server busy: {} active sessions (limit {}); try again later.",
                            state.active_sessions(),
                            opts.max_sessions
                        );
                        let _ = stream.flush();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(TICK);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    drain(&state, &opts, handles)
}

/// Graceful drain, in order: accepting has stopped (the caller's loop
/// exited); give in-flight statements `drain_grace` to finish — idle
/// sessions notice the flag at their next read tick and close
/// themselves; trip the cancel tokens of whatever is still mid-
/// statement; join every session thread; finally fold the drained head
/// into a checkpoint so restart replays nothing.
fn drain(
    state: &Arc<ServerState>,
    opts: &ServeOptions,
    handles: Vec<std::thread::JoinHandle<()>>,
) -> std::io::Result<()> {
    eprintln!(
        "gdp-serve: draining ({} active session(s))",
        state.active_sessions()
    );
    let deadline = Instant::now() + opts.drain_grace;
    while state.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(TICK);
    }
    state.cancel_all_sessions();
    for handle in handles {
        let _ = handle.join();
    }
    if state.store.base_fingerprint().is_some() {
        match state.store.checkpoint() {
            Ok(seq) => eprintln!("gdp-serve: final checkpoint at seq {seq}"),
            Err(e) => eprintln!("gdp-serve: final checkpoint failed: {e}"),
        }
    }
    eprintln!("gdp-serve: drained; exiting");
    Ok(())
}

/// Accept TCP connections with the default [`ServeOptions`].
pub fn serve_tcp(state: Arc<ServerState>, listener: TcpListener) -> std::io::Result<()> {
    serve_tcp_opts(state, listener, ServeOptions::default())
}

/// Accept TCP connections, one thread (and one session) each, under
/// admission control, until a drain is requested
/// ([`ServerState::request_shutdown`] / `:shutdown`); then drain
/// gracefully and return.
pub fn serve_tcp_opts(
    state: Arc<ServerState>,
    listener: TcpListener,
    opts: ServeOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(state, opts, move || {
        let (stream, addr) = listener.accept()?;
        stream.set_nonblocking(false)?;
        Ok((stream, addr.to_string()))
    })
}

/// Accept Unix-socket connections with the default [`ServeOptions`].
#[cfg(unix)]
pub fn serve_unix(state: Arc<ServerState>, listener: UnixListener) -> std::io::Result<()> {
    serve_unix_opts(state, listener, ServeOptions::default())
}

/// Accept Unix-socket connections, one thread each, under admission
/// control and graceful drain (the Unix twin of [`serve_tcp_opts`]).
#[cfg(unix)]
pub fn serve_unix_opts(
    state: Arc<ServerState>,
    listener: UnixListener,
    opts: ServeOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(state, opts, move || {
        let (stream, _addr) = listener.accept()?;
        stream.set_nonblocking(false)?;
        Ok((stream, "unix".to_string()))
    })
}

/// One parsed statement block: the statements that parsed and the
/// diagnostics of those that did not.
type Parsed = (Vec<(Pos, Statement)>, Vec<LangError>);

/// The blocks an open `:begin` buffers for `:commit`, held as source and
/// parsed one at a time as `:commit` loads them (where a parse error is
/// reported), so that what the buffer holds is what [`MAX_TXN_BYTES`]
/// counts.
#[derive(Default)]
struct Txn {
    /// The blocks' source, one after another.
    source: String,
    /// Where each block ends in `source`.
    ends: Vec<usize>,
    /// Why a statement of the transaction was refused: `:commit` then
    /// rolls back.
    refused: Option<String>,
}

impl Txn {
    /// Whether `block` can be buffered within [`MAX_TXN_BYTES`].
    fn fits(&self, block: &str) -> bool {
        let ends = (self.ends.len() + 1) * size_of::<usize>();
        self.source.len() + block.len() + ends <= MAX_TXN_BYTES
    }

    fn push(&mut self, block: &str) {
        self.source.push_str(block);
        self.ends.push(self.source.len());
    }

    /// The buffered blocks' source.
    fn blocks(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.source[start..end])
    }
}

/// One protocol session: the only command layer, behind every `gdp-serve`
/// connection and the `gdp-repl` shell. It pins a snapshot of the
/// store, reads protocol lines ([`Session::line`]) and answers each on a
/// writer. See the module docs for the protocol.
pub struct Session {
    state: Arc<ServerState>,
    /// The pinned snapshot every read runs against. It also holds the
    /// session-owned state, moved across re-pins with
    /// [`Specification::swap_session`].
    view: Specification,
    /// The sequence number `view` is pinned at.
    seq: u64,
    /// The pin of the session's last audit, which built its member cache.
    audited_at: Option<u64>,
    /// Lines of a statement still waiting for its terminating `.`.
    partial: String,
    /// Dropping the lines of a refused statement, up to the one that ends
    /// in `.`.
    discarding: bool,
    /// The blocks buffered since `:begin`, awaiting `:commit`.
    txn: Option<Txn>,
    /// The operator's per-statement deadline: `:deadline` never lifts it.
    ceiling: Option<Duration>,
    /// The base image's step and depth limits: `:budget` and `:retry`
    /// never lift a solve past them.
    max_budget: (u64, u32),
}

impl Session {
    /// A session pinned at the store's head, under the statement deadline
    /// of `opts`.
    pub fn new(state: Arc<ServerState>, opts: &ServeOptions) -> Session {
        let (seq, mut view) = state.store.snapshot();
        view.set_deadline(opts.statement_deadline);
        Session {
            state,
            seq,
            audited_at: None,
            partial: String::new(),
            discarding: false,
            txn: None,
            ceiling: opts.statement_deadline,
            max_budget: view.limits(),
            view,
        }
    }

    /// The session's cancel token. It stays the same across re-pins, so a
    /// signal handler or the drain registry can hold it.
    pub fn cancel_token(&self) -> CancelToken {
        self.view.cancel_token()
    }

    /// The prompt for the next line: [`PROMPT`], or `...> ` inside an
    /// unterminated statement.
    pub fn prompt(&self) -> &'static str {
        if self.partial.is_empty() && !self.discarding {
            PROMPT
        } else {
            CONT_PROMPT
        }
    }

    /// Handle one protocol line and write its response (without the
    /// prompt). A `:`-command runs at once; statement lines accumulate
    /// until one ends in `.`, and the block then runs. A statement past
    /// [`MAX_STATEMENT_BYTES`] before its `.` is refused whole, and so is
    /// a block that would take an open `:begin` past [`MAX_TXN_BYTES`].
    /// `Ok(false)` ends the session (`:quit`, `:shutdown`).
    pub fn line(&mut self, line: &str, w: &mut impl Write) -> std::io::Result<bool> {
        let trimmed = line.trim();
        if self.discarding {
            // A line of a refused statement, perhaps the one that ends it.
            self.discarding = !trimmed.ends_with('.');
            return Ok(true);
        }
        if self.partial.is_empty() {
            if trimmed.is_empty() {
                return Ok(true);
            }
            if trimmed.starts_with(':') {
                return self.guarded(w, |s, w| s.command(trimmed, w));
            }
        }
        let text = line.trim_end_matches(['\n', '\r']);
        if self.partial.len() + text.len() + 1 > MAX_STATEMENT_BYTES {
            let ended = trimmed.ends_with('.');
            self.refuse(
                format!("a statement longer than {MAX_STATEMENT_BYTES} bytes was refused"),
                ended,
            );
            let rest = if ended {
                ""
            } else {
                " up to the line that ends it"
            };
            writeln!(
                w,
                "error: statement longer than {MAX_STATEMENT_BYTES} bytes before its `.` refused; it is dropped{rest}."
            )?;
            return Ok(true);
        }
        self.partial.push_str(text);
        self.partial.push('\n');
        if trimmed.ends_with('.') {
            let source = std::mem::take(&mut self.partial);
            self.guarded(w, |s, w| s.run_block(&source, true, w).map(|()| true))?;
        }
        Ok(true)
    }

    /// A line the socket layer refused as longer than [`MAX_LINE_BYTES`],
    /// once its newline is read: `command` says its first non-blank byte
    /// was `:`, `ended` that its last was `.`. Unless it was a `:`-command
    /// line, the statement it is part of is refused whole, as
    /// [`Session::line`] refuses one past [`MAX_STATEMENT_BYTES`].
    fn refused_line(&mut self, command: bool, ended: bool) {
        if !(command && self.partial.is_empty() && !self.discarding) {
            let why = format!("a line longer than {MAX_LINE_BYTES} bytes was refused");
            self.refuse(why, ended);
        }
    }

    /// Refuse the statement being read: drop its lines so far and, unless
    /// it `ended`, its lines still to come, up to the one that ends in
    /// `.`. An open `:begin` keeps `why`, and `:commit` rolls it back.
    fn refuse(&mut self, why: String, ended: bool) {
        self.partial = String::new();
        self.discarding = !ended;
        if let Some(txn) = &mut self.txn {
            txn.refused.get_or_insert(why);
        }
    }

    /// Run `source` as one statement block: queries only on the pinned
    /// snapshot, anything else as one commit (or into an open `:begin`,
    /// whatever its size: this is how `:load` runs a file).
    pub fn block(&mut self, source: &str, w: &mut impl Write) -> std::io::Result<()> {
        self.guarded(w, |s, w| s.run_block(source, false, w).map(|()| true))
            .map(drop)
    }

    /// Run one statement or command with the session kept alive across
    /// faults: the cancel token is rearmed first, and a panic escaping the
    /// work is reported instead of ending the session.
    fn guarded<W: Write>(
        &mut self,
        w: &mut W,
        f: impl FnOnce(&mut Session, &mut W) -> std::io::Result<bool>,
    ) -> std::io::Result<bool> {
        self.rearm();
        match contained(|| f(self, w)) {
            Ok(result) => result,
            Err(message) => {
                writeln!(w, "internal panic (session kept): {message}")?;
                Ok(true)
            }
        }
    }

    /// Rearm the cancel token, so that a Ctrl-C which landed after the
    /// previous statement cannot kill the next one — unless the server is
    /// draining, whose cancellation must stand.
    fn rearm(&self) {
        if !self.state.is_shutting_down() {
            self.view.cancel_token().reset();
        }
    }

    /// Run one block; `capped` holds a buffered block to [`MAX_TXN_BYTES`].
    fn run_block(&mut self, source: &str, capped: bool, w: &mut impl Write) -> std::io::Result<()> {
        // Inside `:begin`, only a block that opens with `?-` (or holds no
        // statement) can be query-only; any other is buffered as source
        // unparsed, and `:commit` parses it once.
        if self.txn.is_some() && !matches!(first_token(source), Ok(Tok::QueryNeck | Tok::Eof)) {
            return self.buffer(source, capped, w);
        }
        let (statements, errors) = parse_program_diagnostics(source);
        if errors.is_empty()
            && statements
                .iter()
                .all(|(_, s)| matches!(s, Statement::Query(_)))
        {
            // Read-only: runs on the pinned snapshot, never takes the
            // write lock, and is untouched by concurrent commits.
            return self.queries(statements, w);
        }
        match self.txn {
            Some(_) => self.buffer(source, capped, w),
            None => self.commit(std::iter::once((statements, errors)), w),
        }
    }

    /// Add a block's source to the open `:begin` buffer, or refuse it when
    /// `capped` and it would take the buffer past [`MAX_TXN_BYTES`].
    fn buffer(&mut self, source: &str, capped: bool, w: &mut impl Write) -> std::io::Result<()> {
        let txn = self.txn.as_mut().expect("buffering inside :begin");
        if capped && !txn.fits(source) {
            let why = format!("the :begin buffer would pass {MAX_TXN_BYTES} bytes");
            writeln!(
                w,
                "error: transaction error: {why}; block refused, and :commit will roll back."
            )?;
            txn.refused.get_or_insert(why);
            return Ok(());
        }
        txn.push(source);
        writeln!(
            w,
            "buffered ({} block(s); :commit applies).",
            txn.ends.len()
        )
    }

    /// Answer a block's queries on the pinned snapshot, rearming the
    /// cancel token ahead of each: a Ctrl-C kills only the query it lands
    /// in.
    fn queries(
        &mut self,
        statements: Vec<(Pos, Statement)>,
        w: &mut impl Write,
    ) -> std::io::Result<()> {
        for (idx, (pos, statement)) in statements.into_iter().enumerate() {
            let statement = match check_depth(pos, statement) {
                Ok(statement) => statement,
                Err(error) => {
                    writeln!(w, "error: {error}")?;
                    continue;
                }
            };
            let Statement::Query(formula) = statement else {
                continue;
            };
            self.rearm();
            match self.view.satisfy(&formula) {
                Ok(answers) => write_answers(w, &answers)?,
                Err(e)
                    if matches!(
                        e,
                        SpecError::Engine(
                            EngineError::Cancelled | EngineError::DeadlineExceeded { .. }
                        )
                    ) =>
                {
                    writeln!(w, "{}", render_spec_error(&self.view, &e))?
                }
                Err(error) => {
                    let error = LangError::Load {
                        statement: idx,
                        line: pos.line,
                        error,
                    };
                    writeln!(w, "error: {error}")?
                }
            }
        }
        Ok(())
    }

    /// Commit statement blocks atomically and re-pin at the new head on
    /// success. The blocks run on the live specification under this
    /// session's budget, deadline and cancel token, lent to it with
    /// [`Specification::swap_session`]; a panic among them rolls the
    /// commit back like any other failure. The blocks are drawn one at a
    /// time, so a `:begin` buffer is parsed block by block as it loads.
    fn commit(
        &mut self,
        blocks: impl Iterator<Item = Parsed>,
        w: &mut impl Write,
    ) -> std::io::Result<()> {
        let registry = &self.state.registry;
        let view = &mut self.view;
        let result = self.state.store.commit(|spec| {
            spec.swap_session(view);
            let loaded = contained(|| {
                blocks
                    .map(|(statements, errors)| {
                        Loader::with_spatial(spec, registry).load_parsed(statements, errors)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            spec.swap_session(view);
            match loaded {
                Ok(Ok(summaries)) => Ok(summaries),
                Ok(Err(e)) => {
                    let rendered: Vec<String> =
                        e.diagnostics().iter().map(|d| d.to_string()).collect();
                    Err(SpecError::Transaction(rendered.join("; ")))
                }
                Err(message) => Err(SpecError::Transaction(format!("internal panic: {message}"))),
            }
        });
        match result {
            Ok((committed, summaries)) => {
                for answers in summaries.iter().flat_map(|s| &s.query_results) {
                    write_answers(w, answers)?;
                }
                let (facts, rules, constraints) = summaries.iter().fold((0, 0, 0), |t, s| {
                    (t.0 + s.facts, t.1 + s.rules, t.2 + s.constraints)
                });
                writeln!(
                    w,
                    "ok ({facts} facts, {rules} rules, {constraints} constraints) committed as seq {}",
                    committed.seq
                )?;
                self.repin();
            }
            Err(e) => writeln!(w, "rolled back: {}", render_spec_error(&self.view, &e))?,
        }
        Ok(())
    }

    /// Pin `view` at `seq`, moving the session's own state onto it.
    fn pin(&mut self, seq: u64, mut view: Specification) {
        view.swap_session(&mut self.view);
        self.view = view;
        self.seq = seq;
    }

    /// Re-pin at the store's head.
    fn repin(&mut self) {
        let (seq, view) = self.state.store.snapshot();
        self.pin(seq, view);
    }

    /// Change the knowledge base every session pins (`:table`, `:index`),
    /// then re-pin at head. As [`SpecStore::update`] documents, this
    /// clears the store's retained window.
    fn reconfigure(&mut self, f: impl FnOnce(&mut Specification)) {
        let _ = self.state.store.update(|spec| {
            f(spec);
            Ok(())
        });
        self.repin();
    }

    /// Set this session's budget and audit retries under the base image's
    /// budget, a ceiling like the operator's deadline: no solve, escalated
    /// retries included, runs past its step or depth limit. The depth
    /// limit is what bounds the solver's host-stack recursion (`not`,
    /// `forall`, aggregates); past it a negation cycle would overflow the
    /// session thread's stack and abort the whole process.
    fn limit(&mut self, steps: u64, depth: u32, attempts: u32) {
        let (max_steps, max_depth) = self.max_budget;
        let steps = steps.min(max_steps);
        self.view.set_budget(steps, depth.min(max_depth));
        let mut retry = self.view.retry();
        let factor = retry.escalation.max(2);
        let mut escalated = steps.max(1);
        retry.attempts = 0;
        while retry.attempts < attempts {
            match escalated.checked_mul(factor) {
                Some(next) if next <= max_steps => escalated = next,
                _ => break,
            }
            retry.attempts += 1;
        }
        self.view.set_retry(retry);
    }

    /// Handle one `:`-command; `Ok(false)` closes the session.
    fn command(&mut self, input: &str, w: &mut impl Write) -> std::io::Result<bool> {
        let (cmd, rest) = match input.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (input, ""),
        };
        let view = &mut self.view;
        match cmd {
            ":quit" | ":q" | ":exit" => return Ok(false),
            ":help" | ":h" => writeln!(w, "{HELP}")?,
            ":seq" => writeln!(
                w,
                "pinned at seq {}; head is seq {}.",
                self.seq,
                self.state.store.head_seq()
            )?,
            ":snapshot" if rest.is_empty() => {
                self.repin();
                writeln!(w, "re-pinned at head (seq {}).", self.seq)?;
            }
            ":snapshot" => match rest.parse::<u64>() {
                Ok(seq) => match self.state.store.snapshot_at(seq) {
                    Ok(pinned) => {
                        self.pin(seq, pinned);
                        writeln!(w, "pinned at seq {seq}.")?;
                    }
                    Err(e) => writeln!(w, "error: {e}")?,
                },
                Err(_) => writeln!(w, "usage: :snapshot [SEQ]")?,
            },
            ":shutdown" => {
                self.state.request_shutdown();
                writeln!(
                    w,
                    "draining: the server has stopped accepting and will exit; goodbye."
                )?;
                return Ok(false);
            }
            ":begin" if self.txn.is_some() => {
                writeln!(w, "error: transaction error: a transaction is already open")?;
            }
            ":begin" => {
                self.txn = Some(Txn::default());
                writeln!(w, "transaction open (:commit or :rollback).")?;
            }
            ":commit" | ":rollback" => match self.txn.take() {
                None => writeln!(w, "error: transaction error: no transaction is open")?,
                Some(txn) if cmd == ":rollback" => {
                    writeln!(w, "discarded {} buffered block(s).", txn.ends.len())?;
                }
                Some(Txn {
                    refused: Some(why), ..
                }) => writeln!(w, "rolled back: {}", SpecError::Transaction(why))?,
                Some(txn) if txn.ends.is_empty() => writeln!(w, "nothing to commit.")?,
                Some(txn) => self.commit(txn.blocks().map(parse_program_diagnostics), w)?,
            },
            ":why" => match parse_formula(rest) {
                Ok(Formula::Fact(pat)) => match view.explain_fact(*pat) {
                    Ok(Some(proof)) => write!(w, "{}", proof.render())?,
                    Ok(None) => writeln!(w, "not provable.")?,
                    Err(e) => writeln!(w, "error: {}", render_spec_error(view, &e))?,
                },
                Ok(_) => writeln!(w, "error: :why takes a single fact goal")?,
                Err(e) => writeln!(w, "error: {e}")?,
            },
            ":check" => match view.check_consistency() {
                Ok(violations) if violations.is_empty() => {
                    writeln!(w, "consistent (no constraint violations).")?;
                }
                Ok(violations) => {
                    for v in violations {
                        writeln!(w, "{v}")?;
                    }
                }
                Err(e) => writeln!(w, "error: {}", render_spec_error(view, &e))?,
            },
            ":audit" => self.audit(rest, w)?,
            ":views" => {
                writeln!(w, "world view: {}", view.world_view().join(", "))?;
                writeln!(w, "meta view:  {}", view.meta_view().join(", "))?;
            }
            ":stats" => {
                writeln!(
                    w,
                    "{} clauses across {} predicates (snapshot seq {}); grids: {}",
                    view.kb().clause_count(),
                    view.kb().predicate_count(),
                    self.seq,
                    self.state.registry.grid_names().join(", ")
                )?;
                writeln!(w, "last query: {}", stats_line(&view.solver_stats()))?;
                let t = view.session_stats();
                writeln!(
                    w,
                    "answer table ({}, {} cycles): {} entries; session {} hits, {} misses, {} inserts, {} invalidations, {} fallbacks",
                    on_off(view.tabling_enabled()),
                    view.cycle_policy(),
                    view.kb().table().len(),
                    t.table_hits, t.table_misses, t.table_inserts, t.table_invalidations, t.table_fallbacks
                )?;
            }
            ":index" => match rest {
                "on" | "off" => {
                    let on = rest == "on";
                    self.reconfigure(|spec| spec.kb_mut().set_indexing(on));
                    writeln!(
                        w,
                        "{}",
                        if on {
                            "indexing on (hash + range candidate selection)."
                        } else {
                            "indexing off: every call scans all clauses."
                        }
                    )?;
                }
                "status" => writeln!(w, "indexing is {}.", on_off(view.kb().indexing()))?,
                "" => write_index_report(w, view.kb())?,
                other => writeln!(w, "usage: :index [on|off|status] (got {other})")?,
            },
            ":table" if matches!(rest, "status" | "") => writeln!(
                w,
                "answer tabling is {} ({} cached call patterns, {} cycle policy, {} SLD fallback(s) in non-tablable contexts this session).",
                on_off(view.tabling_enabled()),
                view.kb().table().len(),
                view.cycle_policy(),
                view.session_stats().table_fallbacks,
            )?,
            ":table" => {
                let reply = match rest {
                    "on" => "answer tabling on (nominated predicates).",
                    "off" => "answer tabling off.",
                    "all" => "answer tabling on for every user predicate.",
                    "inductive" => "cycle policy inductive (recursive re-entry fails; least fixpoint).",
                    "coinductive" => "cycle policy coinductive (recursive re-entry succeeds).",
                    other => {
                        let usage = "usage: :table on|off|all|status|inductive|coinductive";
                        writeln!(w, "{usage} (got {other})")?;
                        return Ok(true);
                    }
                };
                self.reconfigure(|spec| match rest {
                    "on" | "off" => spec.enable_tabling(rest == "on"),
                    "all" => {
                        spec.enable_tabling(true);
                        spec.set_table_all(true);
                    }
                    "inductive" => spec.set_cycle_policy(CyclePolicy::Inductive),
                    _ => spec.set_cycle_policy(CyclePolicy::Coinductive),
                });
                writeln!(w, "{reply}")?;
            }
            ":trace" => match rest {
                "on" | "off" => {
                    view.set_trace(rest == "on");
                    writeln!(
                        w,
                        "{}",
                        if rest == "on" {
                            "port-event tracing on (:trace show after a query)."
                        } else {
                            "port-event tracing off."
                        }
                    )?;
                }
                "show" | "" => match view.last_trace() {
                    Some(trace) => write!(w, "{}", trace.render())?,
                    None => writeln!(w, "no traced query yet (:trace on, then run one).")?,
                },
                "status" => writeln!(w, "port-event tracing is {}.", on_off(view.trace_enabled()))?,
                other => writeln!(w, "usage: :trace on|off|show|status (got {other})")?,
            },
            ":profile" => match rest {
                "on" | "off" => {
                    view.set_profile(rest == "on");
                    writeln!(w, "per-predicate profiling {rest}.")?;
                }
                "reset" => {
                    view.reset_profile();
                    writeln!(w, "profile cleared.")?;
                }
                "" if view.profile().is_empty() => writeln!(
                    w,
                    "no profile data ({}).",
                    if view.profile_enabled() {
                        "run a query first"
                    } else {
                        ":profile on, then run a query"
                    }
                )?,
                "" => write!(w, "{}", view.profile().render())?,
                other => writeln!(w, "usage: :profile [on|off|reset] (got {other})")?,
            },
            ":budget" => {
                let mut parts = rest.split_whitespace();
                match (
                    parts.next().and_then(|s| s.parse::<u64>().ok()),
                    parts.next().and_then(|s| s.parse::<u32>().ok()),
                ) {
                    (Some(steps), Some(depth)) => {
                        let retries = view.retry().attempts;
                        self.limit(steps, depth, retries);
                        let (s, d) = self.view.limits();
                        write!(w, "budget: {s} steps, depth {d}")?;
                        if (s, d) != (steps, depth) {
                            write!(w, " (capped at the base budget)")?;
                        }
                        let granted = self.view.retry().attempts;
                        if granted != retries {
                            write!(w, "; audit retries cut to {granted}")?;
                        }
                        writeln!(w)?;
                    }
                    _ => writeln!(w, "usage: :budget <steps> <depth>")?,
                }
            }
            ":deadline" => {
                let asked = match rest.parse::<u64>() {
                    _ if rest == "off" => None,
                    Ok(ms) if ms >= 1 => Some(Duration::from_millis(ms)),
                    _ => {
                        writeln!(w, "usage: :deadline <ms>|off")?;
                        return Ok(true);
                    }
                };
                // The operator's deadline is a ceiling: tighten, never lift.
                let deadline = asked.into_iter().chain(self.ceiling).min();
                view.set_deadline(deadline);
                match deadline {
                    None => writeln!(w, "deadline off.")?,
                    Some(d) => writeln!(w, "deadline: {} ms per query.", d.as_millis())?,
                }
            }
            ":retry" if rest.is_empty() => {
                let policy = view.retry();
                writeln!(
                    w,
                    "retry policy: {} attempt(s), x{} step escalation per attempt.",
                    policy.attempts, policy.escalation
                )?;
            }
            ":retry" => match rest.parse::<u32>() {
                Ok(attempts) => {
                    let (steps, depth) = view.limits();
                    self.limit(steps, depth, attempts);
                    let granted = self.view.retry().attempts;
                    write!(
                        w,
                        "audit retries: {granted} attempt(s) with escalating step limits"
                    )?;
                    if granted != attempts {
                        write!(w, " (capped: no retry passes the base budget)")?;
                    }
                    writeln!(w, ".")?;
                }
                Err(_) => writeln!(w, "usage: :retry [<attempts>]")?,
            },
            other => writeln!(w, "unknown command {other} (:help for help)")?,
        }
        Ok(true)
    }

    /// `:audit [-j N] [-i]`. The incremental audit's dirty set is the
    /// store's retained commits between the pin its member cache was
    /// built at and this one; when those are no longer retained (or there
    /// is no audit yet) the audit runs in full and rebuilds the cache.
    fn audit(&mut self, rest: &str, w: &mut impl Write) -> std::io::Result<()> {
        let (workers, incremental) = match parse_audit_args(rest) {
            Ok(parsed) => parsed,
            Err(usage) => return writeln!(w, "{usage}"),
        };
        let delta = if incremental {
            self.view.set_incremental(true);
            self.audited_at
                .and_then(|at| self.state.store.delta_between(at, self.seq).ok())
        } else {
            None
        };
        let result = match delta {
            Some(delta) => self.view.audit_incremental(&delta, workers),
            None => self.view.audit_world_views(workers),
        };
        match result {
            Ok(report) => {
                self.audited_at = Some(self.seq);
                write_audit(w, &report)
            }
            Err(e) => writeln!(w, "error: {}", render_spec_error(&self.view, &e)),
        }
    }
}

/// Run `f`, turning a panic into its message.
fn contained<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

/// Print one query's answers, deduplicating repeated derivations.
fn write_answers(w: &mut impl Write, answers: &[gdp_core::Answer]) -> std::io::Result<()> {
    if answers.is_empty() {
        return writeln!(w, "no.");
    }
    let mut seen = Vec::new();
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
            writeln!(w, "{line}")?;
            seen.push(line);
        }
    }
    Ok(())
}

/// One line of solver counters: steps, resolutions and the answer-table
/// counters.
fn stats_line(s: &SolverStats) -> String {
    format!(
        "{} steps, {} clause resolutions, table {} hit ({} snapshot) / {} miss / {} fallback",
        s.steps, s.resolutions, s.table_hits, s.snapshot_hits, s.table_misses, s.table_fallbacks
    )
}

/// An audit report: the violations with a per-member breakdown (or a
/// consistency line), each member that failed and after how many
/// retries, and the merged counters.
fn write_audit(w: &mut impl Write, report: &AuditReport) -> std::io::Result<()> {
    let members = report.per_model.len();
    if report.violations.is_empty() && report.is_complete() {
        writeln!(
            w,
            "consistent across {members} world-view member(s) ({} workers).",
            report.workers
        )?;
    } else {
        for v in &report.violations {
            writeln!(w, "{v}")?;
        }
        let breakdown: Vec<String> = report
            .per_model
            .iter()
            .map(|(m, n)| format!("{m}: {n}"))
            .collect();
        writeln!(
            w,
            "{} violation(s) ({}); {} workers",
            report.violations.len(),
            breakdown.join(", "),
            report.workers
        )?;
    }
    for f in &report.incomplete {
        let retries = if f.attempts == 1 { "retry" } else { "retries" };
        writeln!(
            w,
            "incomplete: {} — {} (after {} {retries})",
            f.model, f.error, f.attempts
        )?;
    }
    if !report.is_complete() {
        let reported = members - report.incomplete.len();
        writeln!(
            w,
            "degraded audit: {reported}/{members} member(s) reported."
        )?;
    }
    writeln!(w, "merged: {}", stats_line(&report.stats))
}

/// The `:index` report: whether indexing is on, then one row per
/// predicate that has an index or was consulted — its range indexes, hit,
/// prune and scan counters, and last, its hash indexes, each printed as
/// the path to the subterm it keys (`arg(4)/'.'[1]/'.'[0]` is the second
/// element of the list in argument 4).
fn write_index_report(w: &mut impl Write, kb: &KnowledgeBase) -> std::io::Result<()> {
    writeln!(w, "indexing is {}.", on_off(kb.indexing()))?;
    let reports: Vec<IndexReport> = kb
        .index_stats()
        .into_iter()
        .filter(|r| !r.hash_paths.is_empty() || !r.range_specs.is_empty() || r.consults > 0)
        .collect();
    if reports.is_empty() {
        return writeln!(w, "no indexed predicates consulted yet.");
    }
    writeln!(
        w,
        "{:<14} {:>7}  {:<11} {:>8} {:>8} {:>8} {:>9} {:>6}  hash",
        "predicate", "clauses", "range", "consults", "hashhit", "rangehit", "pruned", "scans"
    )?;
    for r in reports {
        let hash: Vec<String> = r.hash_paths.iter().map(|p| p.to_string()).collect();
        let (ivs, grids) = r.range_specs.iter().fold((0, 0), |(i, g), s| match s {
            RangeSpec::Interval(_) => (i + 1, g),
            RangeSpec::Grid { .. } => (i, g + 1),
        });
        let range = match (ivs, grids) {
            (0, 0) => "-".to_string(),
            (i, 0) => format!("{i} iv"),
            (0, g) => format!("{g} grid"),
            (i, g) => format!("{i} iv,{g} grid"),
        };
        writeln!(
            w,
            "{:<14} {:>7}  {:<11} {:>8} {:>8} {:>8} {:>9} {:>6}  {}",
            r.pred.to_string(),
            r.clauses,
            range,
            r.consults,
            r.hash_hits,
            r.range_hits,
            r.pruned,
            r.scans,
            if hash.is_empty() {
                "-".to_string()
            } else {
                hash.join(", ")
            },
        )?;
    }
    Ok(())
}

/// Render a specification error, reporting interrupts and deadlines as
/// first-class outcomes with the steps they consumed.
fn render_spec_error(spec: &Specification, e: &SpecError) -> String {
    match e {
        SpecError::Engine(EngineError::Cancelled) => {
            format!("cancelled. ({} steps used)", spec.solver_stats().steps)
        }
        SpecError::Engine(EngineError::DeadlineExceeded { .. }) => {
            format!(
                "deadline exceeded. ({} steps used)",
                spec.solver_stats().steps
            )
        }
        other => other.to_string(),
    }
}

/// Parse `:audit` arguments: any order of `-j N` and `-i`.
fn parse_audit_args(rest: &str) -> Result<(usize, bool), String> {
    let usage = || "usage: :audit [-j N] [-i]".to_string();
    let mut workers = None;
    let mut incremental = false;
    let mut parts = rest.split_whitespace();
    while let Some(part) = parts.next() {
        match part {
            "-i" => incremental = true,
            "-j" => {
                let n = parts.next().ok_or_else(usage)?;
                workers = Some(n.parse::<usize>().ok().filter(|v| *v >= 1).ok_or_else(|| {
                    format!("usage: :audit [-j N] [-i] (N must be a positive integer, got {n})")
                })?);
            }
            _ => return Err(usage()),
        }
    }
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    Ok((workers, incremental))
}
