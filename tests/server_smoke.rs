//! gdp-serve smoke suite: the REPL protocol over real TCP sockets, with
//! N concurrent snapshot-reader sessions racing one writer.
//!
//! Most tests host an in-process [`gdp::server::ServerState`] behind a
//! `TcpListener` on an ephemeral port and drive it with plain
//! `TcpStream` clients that read until the `gdp> ` prompt — exactly what
//! a human with netcat would see. The shell test runs the real `gdp-repl`
//! binary over its stdin, and the session's own regressions drive a
//! [`gdp::server::Session`] line by line.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gdp::core::{reify, RawClause};
use gdp::engine::{fingerprint, CancelToken, Term, SOLVER_STACK};
use gdp::lang::MAX_NESTING;
use gdp::server::{serve_tcp, ServeOptions, ServerState, Session};

const PROMPT: &str = "gdp> ";

/// Boot a server on an ephemeral port; the accept loop runs (detached)
/// until the test process exits.
fn boot() -> (Arc<ServerState>, SocketAddr) {
    let state = ServerState::new().expect("server state");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept_state = Arc::clone(&state);
    std::thread::spawn(move || serve_tcp(accept_state, listener));
    (state, addr)
}

/// One protocol client: sends statement blocks / commands, reads until
/// the next prompt, returns the response text before it.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut client = Client { stream };
        client.read_to_prompt(); // banner
        client
    }

    fn read_to_prompt(&mut self) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed the connection mid-response");
            buf.extend_from_slice(&chunk[..n]);
            if buf.ends_with(PROMPT.as_bytes()) {
                buf.truncate(buf.len() - PROMPT.len());
                return String::from_utf8(buf).expect("utf8");
            }
        }
    }

    fn send(&mut self, input: &str) -> String {
        self.stream.write_all(input.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write");
        self.stream.flush().expect("flush");
        self.read_to_prompt()
    }

    /// Send raw protocol text and read until `prompts` prompts have come
    /// back, failing instead of hanging when they do not come.
    fn exchange(&mut self, input: &str, prompts: usize) -> String {
        let timeout = Some(Duration::from_secs(20));
        self.stream.set_read_timeout(timeout).expect("timeout");
        self.stream.write_all(input.as_bytes()).expect("write");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let done = |buf: &[u8]| {
            let text = String::from_utf8_lossy(buf);
            text.matches(PROMPT).count() >= prompts && text.ends_with(PROMPT)
        };
        while !done(&buf) {
            let n = self.stream.read(&mut chunk).expect("a prompt per line");
            assert!(n > 0, "server closed the connection mid-response");
            buf.extend_from_slice(&chunk[..n]);
        }
        self.stream.set_read_timeout(None).expect("timeout");
        String::from_utf8(buf).expect("utf8")
    }
}

/// Send one protocol line to an in-process session; returns its reply.
fn say(session: &mut Session, line: &str) -> String {
    let mut out = Vec::new();
    assert!(session.line(line, &mut out).expect("in-memory write"));
    String::from_utf8(out).expect("utf8")
}

/// Run the real `gdp-repl` over `input` from the repository root; returns
/// everything it printed.
fn shell(input: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdp-repl"))
        .current_dir(root)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gdp-repl");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(input.as_bytes()).expect("write");
    drop(stdin);
    let out = child.wait_with_output().expect("gdp-repl runs");
    assert!(out.status.success(), "gdp-repl failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn statements_queries_and_commands_round_trip() {
    let (_state, addr) = boot();
    let mut c = Client::connect(addr);

    let reply = c.send("bridge(b1). bridge(b2). open(b1).");
    assert!(
        reply.contains("ok (3 facts, 0 rules, 0 constraints) committed as seq 1"),
        "unexpected reply: {reply}"
    );
    let reply = c.send("closed(X) :- bridge(X), not(open(X)).");
    assert!(
        reply.contains("committed as seq 2"),
        "unexpected reply: {reply}"
    );

    let reply = c.send("?- closed(X).");
    assert!(reply.contains("X = b2"), "unexpected reply: {reply}");
    assert!(!reply.contains("X = b1"), "unexpected reply: {reply}");

    let reply = c.send(":seq");
    assert!(reply.contains("pinned at seq 2; head is seq 2."), "{reply}");

    // A block with a defect rolls back atomically: nothing of it lands.
    let reply = c.send("river(r1). junk junk junk.");
    assert!(reply.contains("rolled back:"), "unexpected reply: {reply}");
    let reply = c.send("?- river(X).");
    assert!(reply.contains("no."), "rollback leaked a fact: {reply}");
    let reply = c.send(":seq");
    assert!(reply.contains("head is seq 2."), "{reply}");

    // A blank line at the prompt is ignored: the line after it is still
    // read as a command, not as statement text.
    let reply = c.exchange("\n:seq\n", 2);
    assert!(reply.contains("pinned at seq 2; head is seq 2."), "{reply}");

    // A block that opens with a query but also asserts is committed
    // whole: its fact reaches head, where another session sees it.
    let reply = c.send("?- bridge(X). bridge(b9).");
    assert!(reply.contains("committed as seq 3"), "{reply}");
    let mut other = Client::connect(addr);
    let reply = other.send("?- bridge(b9).");
    assert!(reply.contains("yes."), "{reply}");

    // Any diagnostic sends a block down the commit path, queries or not,
    // and rolls it back whole: no answers, no commit.
    let reply = c.send("junk junk junk.");
    assert!(reply.starts_with("rolled back:"), "{reply}");
    let reply = c.send("?- bridge(X). ?- junk junk.");
    assert!(reply.starts_with("rolled back:"), "{reply}");
    assert!(!reply.contains("X = "), "{reply}");
    let reply = c.send(":seq");
    assert!(reply.contains("head is seq 3."), "{reply}");
}

/// The shell is one session over an in-memory store: the verify-skill
/// transcript through the real binary, and `:audit -i` after a commit
/// made outside `:begin`/`:commit` (which it used to miss).
#[test]
fn shell_speaks_the_session_protocol() {
    let out = shell(
        ":load specs/missouri.gdp\n?- linked(saint_louis, X).\n\
         :why open_road(i70)\n:check\n:quit\n",
    );
    assert!(
        out.contains("ok (19 facts, 5 rules, 2 constraints) committed as seq 1"),
        "{out}"
    );
    assert!(out.contains("X = kansas_city"), "{out}");
    assert!(
        out.contains("gdp> open_road(i70)   ["),
        "no proof tree: {out}"
    );
    assert!(
        out.contains("consistent (no constraint violations)."),
        "{out}"
    );

    let out = shell(
        "bridge(b1). bridge(b2). open(b1).\n\
         constraint shut(X) :- bridge(X), not(open(X)).\n\
         :audit -i\nbridge(b3).\n:audit -i\n",
    );
    let audits: Vec<&str> = out
        .split(PROMPT)
        .filter(|reply| reply.contains("violation(s)"))
        .collect();
    assert_eq!(audits.len(), 2, "{out}");
    assert!(audits[0].contains("omega'ERROR(shut, b2)"), "{out}");
    assert!(!audits[0].contains("omega'ERROR(shut, b3)"), "{out}");
    assert!(audits[1].contains("omega'ERROR(shut, b3)"), "{out}");
}

#[test]
fn snapshot_isolation_across_sessions() {
    let (_state, addr) = boot();
    let mut writer = Client::connect(addr);
    writer.send("bridge(b1).");

    // The reader pins at seq 1 and must keep seeing exactly one bridge...
    let mut reader = Client::connect(addr);
    reader.send(":snapshot");
    let before = reader.send("?- bridge(X).");
    assert!(before.contains("X = b1"), "{before}");

    // ...while the writer commits two more.
    writer.send("bridge(b2).");
    writer.send("bridge(b3).");
    let after = reader.send("?- bridge(X).");
    assert_eq!(before, after, "reader's snapshot drifted under a writer");

    // Re-pinning at head shows all three; pinning back shows one again.
    reader.send(":snapshot");
    let head = reader.send("?- bridge(X).");
    assert!(head.contains("X = b2") && head.contains("X = b3"), "{head}");
    let reply = reader.send(":snapshot 1");
    assert!(reply.contains("pinned at seq 1."), "{reply}");
    assert_eq!(reader.send("?- bridge(X)."), before);
}

#[test]
fn buffered_transaction_commits_atomically() {
    let (_state, addr) = boot();
    let mut c = Client::connect(addr);
    c.send(":begin");
    assert!(c.send("road(r1).").contains("buffered (1 block(s)"));
    assert!(c.send("road(r2).").contains("buffered (2 block(s)"));
    // Nothing visible before :commit — not even to this session.
    assert!(c.send("?- road(X).").contains("no."));
    let reply = c.send(":commit");
    assert!(reply.contains("committed as seq 1"), "{reply}");
    let reply = c.send("?- road(X).");
    assert!(
        reply.contains("X = r1") && reply.contains("X = r2"),
        "{reply}"
    );

    // A rollback discards the buffer without touching the store.
    c.send(":begin");
    c.send("road(r3).");
    assert!(c
        .send(":rollback")
        .contains("discarded 1 buffered block(s)."));
    assert!(!c.send("?- road(X).").contains("r3"));
}

/// Four concurrent reader sessions, each pinned at a different commit,
/// query repeatedly while a writer streams further commits. Every
/// reader's answers must stay byte-identical to the sequential baseline
/// captured at its pinned generation.
#[test]
fn concurrent_readers_match_sequential_baselines() {
    let (_state, addr) = boot();
    let mut writer = Client::connect(addr);
    // Commits 1..=4: the k-th adds span(k) and a rule over it.
    for k in 1..=4 {
        writer.send(&format!("span(s{k})."));
    }

    // Reader k pins at seq k and records its baseline answer.
    let sessions: Vec<_> = (1..=4u64)
        .map(|k| {
            let mut c = Client::connect(addr);
            let reply = c.send(&format!(":snapshot {k}"));
            assert!(reply.contains(&format!("pinned at seq {k}.")), "{reply}");
            let baseline = c.send("?- span(X).");
            for j in 1..=4 {
                assert_eq!(
                    baseline.contains(&format!("X = s{j}")),
                    j <= k as usize,
                    "reader {k} baseline wrong: {baseline}"
                );
            }
            (k, c, baseline)
        })
        .collect();

    // Writer keeps committing from its own thread while readers re-query.
    let writer_thread = std::thread::spawn(move || {
        for k in 5..=12 {
            writer.send(&format!("span(s{k})."));
        }
        writer.send(":seq")
    });
    let readers: Vec<_> = sessions
        .into_iter()
        .map(|(k, mut c, baseline)| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let now = c.send("?- span(X).");
                    assert_eq!(now, baseline, "reader {k} drifted under the writer");
                }
                (k, c, baseline)
            })
        })
        .collect();
    let writer_reply = writer_thread.join().expect("writer");
    assert!(writer_reply.contains("head is seq 12."), "{writer_reply}");
    for handle in readers {
        let (_k, mut c, baseline) = handle.join().expect("reader");
        // After the dust settles the pinned views still match; at head
        // they see everything.
        assert_eq!(c.send("?- span(X)."), baseline);
        c.send(":snapshot");
        let head = c.send("?- span(X).");
        for j in 1..=12 {
            assert!(head.contains(&format!("X = s{j}")), "missing s{j}: {head}");
        }
    }
}

/// Pinning at a sequence that has fallen out of the retained history
/// names the window that *is* available, so an operator can re-pin
/// without guessing (ISSUE 9 satellite).
#[test]
fn expired_snapshot_request_reports_the_retained_window() {
    let (_state, addr) = boot();
    let mut writer = Client::connect(addr);
    // 66 commits with a 64-record retention: seqs 1 and 2 age out
    // (records 3..=66 remain, so the reconstructible window is 2..=66).
    for k in 1..=66 {
        let reply = writer.send(&format!("span(s{k})."));
        assert!(reply.contains(&format!("committed as seq {k}")), "{reply}");
    }

    let reply = writer.send(":snapshot 0");
    assert!(reply.contains("no longer retained"), "{reply}");
    assert!(
        reply.contains("retained window is 2..=66"),
        "window missing from: {reply}"
    );
    assert!(reply.contains("last 64 commits"), "{reply}");

    // The named window is honest: its oldest edge works.
    let reply = writer.send(":snapshot 2");
    assert!(reply.contains("pinned at seq 2."), "{reply}");
    let reply = writer.send("?- span(X).");
    assert!(
        reply.contains("X = s2") && !reply.contains("X = s3"),
        "{reply}"
    );
}

#[test]
fn audit_runs_against_the_pinned_snapshot() {
    let (_state, addr) = boot();
    let mut writer = Client::connect(addr);
    writer.send("bridge(b1). open(b1).");
    writer.send("constraint unopened_bridge(X) :- bridge(X), not(open(X)).");

    let mut reader = Client::connect(addr);
    reader.send(":snapshot");
    let clean = reader.send(":audit -j 2");
    assert!(clean.contains("consistent across"), "{clean}");

    // A violation committed after the pin is invisible to the reader's
    // audit, visible to a fresh head audit.
    writer.send("bridge(b2).");
    let pinned = reader.send(":audit -j 2");
    assert!(pinned.contains("consistent across"), "{pinned}");
    reader.send(":snapshot");
    let head = reader.send(":audit -j 2");
    assert!(head.contains("unopened_bridge"), "{head}");
}

/// A token tripped between two queries of one block kills neither: the
/// session rearms it ahead of each query. `?- trip.` trips the session's
/// token from inside the first query, and the second one — a join costing
/// well over one budget check interval — must still answer.
#[test]
fn a_token_tripped_between_two_queries_of_one_block_is_rearmed() {
    let state = ServerState::new().expect("server state");
    let token: Arc<OnceLock<CancelToken>> = Arc::default();
    let trip = Arc::clone(&token);
    let mut world: String = (0..48).map(|i| format!("p(a{i}). ")).collect();
    world.push_str("pair(X, Y) :- p(X), p(Y).");
    state
        .store()
        .update(|spec| {
            spec.kb_mut().register_native("trip_token", 0, move |_, _| {
                trip.get().expect("session token").cancel();
                Ok(true)
            });
            let (m, s, t, a) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
            let head = reify::holds(m, s, t, Term::atom("trip"), a);
            spec.assert_raw(
                "test",
                RawClause::rule(head, Term::pred("trip_token", vec![])),
            );
            gdp::lang::load(spec, &world)
                .map_err(|e| gdp::core::SpecError::Transaction(e.to_string()))
        })
        .expect("world loads");
    let mut session = Session::new(state, &ServeOptions::default());
    token.set(session.cancel_token()).expect("set once");

    let mut out = Vec::new();
    session
        .line("?- trip. ?- card(pair(X, Y), N).", &mut out)
        .expect("in-memory write");
    let out = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert_eq!(lines[0], "yes.", "{out}");
    assert!(lines[1].contains("N = 2304"), "{out}");
}

/// A panic is contained per statement: a read-only block reports it and
/// the session goes on; inside a commit block it rolls the commit back,
/// leaving head and the live store's transaction state as they were.
#[test]
fn a_panic_is_contained_and_rolls_its_commit_back() {
    let state = ServerState::new().expect("server state");
    state
        .store()
        .update(|spec| {
            spec.kb_mut()
                .register_native("explode", 0, |_, _| panic!("native exploded"));
            let (m, s, t, a) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
            let head = reify::holds(m, s, t, Term::atom("boom"), a);
            spec.assert_raw("test", RawClause::rule(head, Term::pred("explode", vec![])));
            Ok(())
        })
        .expect("native installs");
    let mut session = Session::new(Arc::clone(&state), &ServeOptions::default());
    let mut reply = |line: &str| {
        let mut out = Vec::new();
        assert!(session.line(line, &mut out).expect("in-memory write"));
        String::from_utf8(out).expect("utf8")
    };
    let out = reply("?- boom.");
    assert!(
        out.contains("internal panic (session kept): native exploded"),
        "{out}"
    );
    let out = reply("bridge(b1). ?- boom.");
    assert!(
        out.contains("rolled back:") && out.contains("native exploded"),
        "{out}"
    );
    assert_eq!(state.store().head_seq(), 0);
    let out = reply("bridge(b2).");
    assert!(out.contains("committed as seq 1"), "{out}");
    assert_eq!(reply("?- bridge(X)."), "X = b2\n");
}

/// The operator's statement deadline is a ceiling: `:deadline` may
/// tighten it, never lift it, and `off` returns to it.
#[test]
fn the_operator_deadline_is_a_ceiling() {
    let state = ServerState::new().expect("server state");
    let opts = ServeOptions {
        statement_deadline: Some(Duration::from_millis(50)),
        ..ServeOptions::default()
    };
    let mut session = Session::new(state, &opts);
    for (line, want) in [
        (":deadline 10", "deadline: 10 ms per query.\n"),
        (":deadline 900", "deadline: 50 ms per query.\n"),
        (":deadline off", "deadline: 50 ms per query.\n"),
    ] {
        let mut out = Vec::new();
        session.line(line, &mut out).expect("in-memory write");
        assert_eq!(String::from_utf8(out).expect("utf8"), want, "{line}");
    }
}

/// The base image's budget is a ceiling, like the operator's deadline:
/// `:budget` and `:retry` above it are capped. So a negation cycle, which
/// recurses on the host stack once per sub-solver level, ends in a
/// depth-limit error instead of overflowing the session thread's stack
/// and aborting the server with every session in it.
#[test]
fn the_base_budget_is_a_ceiling() {
    let (_state, addr) = boot();
    let mut c = Client::connect(addr);
    let reply = c.send(":budget 10000000000 4000000000");
    assert!(reply.contains("(capped at the base budget)"), "{reply}");
    assert!(!reply.contains("4000000000"), "{reply}");
    let reply = c.send(":retry 1000");
    assert!(
        reply.contains("(capped: no retry passes the base budget)"),
        "{reply}"
    );
    let reply = c.send("q :- not(q).");
    assert!(reply.contains("committed as seq 1"), "{reply}");
    let reply = c.send("?- q.");
    assert!(reply.contains("depth limit exhausted"), "{reply}");

    // A lowered budget is the session's own; retries may climb back
    // towards the base from it.
    assert_eq!(c.send(":budget 100 4"), "budget: 100 steps, depth 4\n");
    assert_eq!(
        c.send(":retry 3"),
        "audit retries: 3 attempt(s) with escalating step limits.\n"
    );
    let mut other = Client::connect(addr);
    let reply = other.send(":seq");
    assert!(reply.contains("head is seq 1."), "{reply}");
}

/// `:why` solves through the session: each sub-solve under the session's
/// step and depth limits, the whole explanation under one deadline and
/// the session's cancel token, not under a budget of its own. The runaway
/// is not recursive, so tabling cannot end it early.
#[test]
fn why_runs_under_the_session_limits() {
    let state = ServerState::new().expect("server state");
    let mut session = Session::new(Arc::clone(&state), &ServeOptions::default());
    let reply = say(
        &mut session,
        "road(a). loop(X) :- road(X), between(1, 1000000000000, N), N < 0.",
    );
    assert!(reply.contains("committed as seq 1"), "{reply}");
    say(&mut session, ":budget 1000 64");
    let reply = say(&mut session, ":why loop(a)");
    assert!(reply.contains("(1000 steps)"), "{reply}");

    let mut session = Session::new(state, &ServeOptions::default());
    say(&mut session, ":deadline 50");
    let started = Instant::now();
    let reply = say(&mut session, ":why loop(a)");
    assert!(reply.contains("deadline exceeded"), "{reply}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the explanation ran {:?} past a 50 ms deadline",
        started.elapsed()
    );
}

/// The world view is the knowledge base's `active_model/1` facts, so a
/// session pinned before a `#world_view` commit audits the world view of
/// its pin, not of head.
#[test]
fn a_pinned_snapshot_keeps_its_world_view() {
    let state = ServerState::new().expect("server state");
    let mut session = Session::new(state, &ServeOptions::default());
    for (seq, block) in ["#model m1.", "m1'bridge(b9).", "#world_view { omega, m1 }."]
        .into_iter()
        .enumerate()
    {
        let reply = say(&mut session, block);
        assert!(
            reply.contains(&format!("committed as seq {}", seq + 1)),
            "{reply}"
        );
    }
    assert_eq!(say(&mut session, "?- bridge(X)."), "X = b9\n");
    assert_eq!(say(&mut session, ":snapshot 2"), "pinned at seq 2.\n");
    let views = say(&mut session, ":views");
    assert!(views.starts_with("world view: omega\n"), "{views}");
    let audit = say(&mut session, ":audit -j 1");
    assert!(audit.contains("across 1 world-view member(s)"), "{audit}");
    assert_eq!(say(&mut session, "?- bridge(X)."), "no.\n");
}

/// The WAL family under the temp directory for one test, removed first.
fn fresh_wal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("gdp-smoke-{tag}-{}.wal", std::process::id()));
    for suffix in ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"] {
        let mut os = path.clone().into_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
    path
}

/// Directives are clauses in the log like any other commit: after a
/// restart the world view, and with it the audit, is what it was before.
#[test]
fn the_world_view_survives_a_restart() {
    let wal = fresh_wal("world-view");
    let audit_before = {
        let (state, _) = ServerState::durable(&wal).expect("durable state");
        let mut session = Session::new(state, &ServeOptions::default());
        for block in ["#model m1.", "m1'bridge(b9).", "#world_view { omega, m1 }."] {
            let reply = say(&mut session, block);
            assert!(reply.contains("committed as seq"), "{reply}");
        }
        let views = say(&mut session, ":views");
        assert!(views.starts_with("world view: omega, m1\n"), "{views}");
        say(&mut session, ":audit -j 1")
    };
    assert!(
        audit_before.contains("across 2 world-view member(s)"),
        "{audit_before}"
    );
    let (state, head) = ServerState::durable(&wal).expect("recovered state");
    assert_eq!(head, 3);
    let mut session = Session::new(state, &ServeOptions::default());
    let views = say(&mut session, ":views");
    assert!(views.starts_with("world view: omega, m1\n"), "{views}");
    assert_eq!(say(&mut session, "?- bridge(X)."), "X = b9\n");
    assert_eq!(say(&mut session, ":audit -j 1"), audit_before);
    let _ = fresh_wal("world-view");
}

/// A list literal nests one level per element. A statement nesting deeper
/// than `MAX_TERM_DEPTH` is refused with a line-numbered diagnostic before
/// it is compiled, and its session and every other keep serving: the
/// stack overflow compiling it would cause aborts the whole process. A
/// 20,000-element list loads, commits, answers a query and survives a
/// restart: the solver's term walks and term equality loop down the list
/// instead of recursing per element. (Dropping or hashing such a term
/// still recurses per level, so the test keeps both stores alive in their
/// accept loops and compares them on a session-sized stack.)
#[test]
fn a_deep_list_literal_is_refused_and_the_server_keeps_serving() {
    let wal = fresh_wal("deep-list");
    let list = |n: usize| {
        let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        format!("big([{}]).", items.join(", "))
    };
    let serve = |state: &Arc<ServerState>| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let state = Arc::clone(state);
        std::thread::spawn(move || serve_tcp(state, listener));
        addr
    };
    let (live, _) = ServerState::durable(&wal).expect("durable state");
    let addr = serve(&live);
    let mut bystander = Client::connect(addr);
    let mut client = Client::connect(addr);

    let refused = client.send(&list(40_000));
    assert!(
        refused.starts_with("rolled back: ")
            && refused.contains("statement too deep at 1:1: it nests 40002 levels"),
        "{refused}"
    );
    assert_eq!(bystander.send("?- 1 = 1."), "yes.\n");
    let committed = client.send(&list(20_000));
    assert!(committed.contains("committed as seq 1"), "{committed}");
    let query = "?- big([0, 1 | _]).";
    assert_eq!(client.send(query), "yes.\n");

    let (recovered, head) = ServerState::durable(&wal).expect("recovered state");
    assert_eq!(head, 1);
    fn on_session_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(SOLVER_STACK)
                .spawn_scoped(s, f)
                .expect("spawn")
                .join()
                .expect("no stack overflow")
        })
    }
    let content = |state: &ServerState| {
        state
            .store()
            .read(|spec| fingerprint(spec.kb()))
            .expect("within MAX_TERM_DEPTH")
    };
    assert_eq!(
        on_session_stack(|| content(&recovered)),
        on_session_stack(|| content(&live))
    );
    let same_content = || {
        let live = live.store();
        recovered
            .store()
            .read(|ours| live.read(|theirs| ours.kb().content_eq(theirs.kb())))
    };
    assert!(on_session_stack(same_content));
    let mut client = Client::connect(serve(&recovered));
    assert_eq!(client.send("?- 1 = 1."), "yes.\n");
    assert_eq!(client.send(query), "yes.\n");
    let _ = fresh_wal("deep-list");
}

/// The parser recurses once per nesting level, so a statement nested
/// deeper than `MAX_NESTING` is refused with a positioned diagnostic while
/// it is parsed: unbounded, each of these shapes overflows the session
/// thread's stack and aborts the whole process. Its session and every
/// other keep serving.
#[test]
fn a_deeply_nested_statement_is_refused_and_the_server_keeps_serving() {
    let (_state, addr) = boot();
    let mut client = Client::connect(addr);
    let mut bystander = Client::connect(addr);
    let nest = |open: &str, inner: &str, close: &str, n: usize| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    let too_deep = format!("nests deeper than {MAX_NESTING} levels");
    let shapes = [
        format!("big({}).", nest("f(", "a", ")", 6_000)),
        format!("?- {}.", nest("not(", "true", ")", 3_000)),
        format!("?- X is {}.", nest("- ", "1", "", 20_000)),
        format!("?- x = {}.", nest("(", "a", ")", 20_000)),
    ];
    for shape in &shapes {
        let reply = client.send(shape);
        assert!(
            reply.starts_with("rolled back: ")
                && reply.contains("parse error at 1:")
                && reply.contains(&too_deep),
            "{}",
            &reply[..reply.len().min(300)]
        );
    }
    let reply = client.send(&format!(":why {}", nest("f(", "a", ")", 6_000)));
    assert!(
        reply.starts_with("error: parse error at 1:") && reply.contains(&too_deep),
        "{reply}"
    );
    assert_eq!(client.send("?- 1 = 1."), "yes.\n");
    assert_eq!(bystander.send("?- 1 = 1."), "yes.\n");
}

/// Audit workers run on the session's stack size: a negation cycle ends
/// in a depth-limit error on the worker, at one worker and at two, and
/// so does `:check`, the one-worker audit. An unoptimised build needs
/// more than a spawned thread's default 2 MiB for the base depth, and an
/// overflow would abort the test binary.
#[test]
fn a_negation_cycle_in_an_audit_member_ends_at_the_depth_limit() {
    let state = ServerState::new().expect("server state");
    let mut session = Session::new(state, &ServeOptions::default());
    say(&mut session, "q :- not(q).");
    say(&mut session, "constraint loopy :- q.");
    for workers in [1, 2] {
        let audit = say(&mut session, &format!(":audit -j {workers}"));
        assert!(audit.contains("incomplete: omega — "), "{audit}");
        assert!(audit.contains("depth limit"), "{audit}");
    }
    let check = say(&mut session, ":check");
    assert!(check.starts_with("error: "), "{check}");
    assert!(check.contains("depth limit"), "{check}");
}

/// A traced audit keeps its port events when it ran on one worker:
/// `:check` and `:audit -j 1` leave a ring for `:trace show`, while
/// `:audit -j 2` over two world-view members records none, since two
/// workers' interleaved events have no order. Each step runs on a fresh
/// session, so no earlier query's ring can stand in.
#[test]
fn a_one_worker_audit_leaves_a_trace_and_a_wider_one_none() {
    let state = ServerState::new().expect("server state");
    let mut setup = Session::new(Arc::clone(&state), &ServeOptions::default());
    for block in [
        "#model m1.",
        "bridge(b1).",
        "#world_view { omega, m1 }.",
        "constraint unopened_bridge(X) :- bridge(X), not(open(X)).",
    ] {
        let reply = say(&mut setup, block);
        assert!(reply.contains("committed as seq"), "{reply}");
    }
    for (command, traced) in [
        (":audit -j 2", false),
        (":check", true),
        (":audit -j 1", true),
    ] {
        let mut session = Session::new(Arc::clone(&state), &ServeOptions::default());
        say(&mut session, ":trace on");
        let reply = say(&mut session, command);
        assert!(reply.contains("unopened_bridge"), "{command}: {reply}");
        let trace = say(&mut session, ":trace show");
        if traced {
            assert!(trace.contains("CALL"), "{command} left no ring: {trace}");
        } else {
            assert!(
                trace.starts_with("no traced query yet"),
                "{command} left a ring: {trace}"
            );
        }
    }
}

/// The answer-table hits on `:stats`'s table line.
fn table_hits(stats: &str) -> u64 {
    let line = stats
        .lines()
        .find(|l| l.starts_with("answer table"))
        .unwrap_or_else(|| panic!("no answer-table line in {stats}"));
    let count = line
        .split(" hits")
        .next()
        .and_then(|s| s.rsplit(' ').next());
    count
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no hit count in {line}"))
}

/// `:stats` reports the session's running totals, which follow it across
/// the re-pin a commit makes: the pinned view after a commit is a fresh
/// snapshot whose own counters start from zero.
#[test]
fn session_totals_survive_a_commit() {
    let state = ServerState::new().expect("server state");
    let mut session = Session::new(state, &ServeOptions::default());
    say(&mut session, ":table all");
    say(&mut session, "road(r1). road(r2). linked(X) :- road(X).");
    for _ in 0..3 {
        assert_eq!(say(&mut session, "?- linked(X)."), "X = r1\nX = r2\n");
    }
    let before = table_hits(&say(&mut session, ":stats"));
    assert!(before > 0, "three tabled queries must hit the table");
    let reply = say(&mut session, "road(r3).");
    assert!(reply.contains("committed as seq"), "{reply}");
    let after = table_hits(&say(&mut session, ":stats"));
    assert!(
        after >= before,
        "session totals dropped from {before} to {after}"
    );
}
