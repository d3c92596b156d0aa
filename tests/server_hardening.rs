//! gdp-serve hardening: admission control, timeouts, graceful drain.
//!
//! Each test boots an in-process server on an ephemeral TCP port with
//! explicit [`ServeOptions`] and drives it with raw `TcpStream` clients
//! that *tolerate* mid-stream closure — unlike the smoke suite, these
//! sessions are expected to be turned away, timed out, or drained.
//!
//! The drain test is the acceptance criterion of ISSUE 9: four
//! concurrent sessions stream commits while the server is told to shut
//! down, and afterwards the on-disk checkpoint + WAL family must
//! recover every commit a client saw acknowledged.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gdp::core::DurabilityOptions;
use gdp::prelude::FactPat;
use gdp::server::{
    serve_tcp_opts, ServeOptions, ServerState, Session, MAX_LINE_BYTES, MAX_STATEMENT_BYTES,
    MAX_TXN_BYTES,
};

const PROMPT: &str = "gdp> ";
const CONT_PROMPT: &str = "...> ";

fn temp_wal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdp-harden-{tag}-{}.wal", std::process::id()));
    p
}

fn remove_family(path: &Path) {
    for suffix in ["", ".prev", ".ckpt", ".ckpt.prev", ".ckpt.tmp"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
}

/// Boot a server with explicit options; returns the accept loop's join
/// handle so drain tests can assert it exits cleanly.
fn boot(
    state: Arc<ServerState>,
    opts: ServeOptions,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept_state = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve_tcp_opts(accept_state, listener, opts));
    (addr, handle)
}

/// A protocol client that tolerates the server hanging up on it.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client { stream }
    }

    /// Read until the next prompt. `None` = the connection ended first
    /// (EOF or reset), with whatever arrived discarded.
    fn read_to_prompt(&mut self) -> Option<String> {
        self.read_to(PROMPT)
    }

    /// Read until the reply ends in `prompt`, which is dropped.
    fn read_to(&mut self, prompt: &str) -> Option<String> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            if buf.ends_with(prompt.as_bytes()) {
                buf.truncate(buf.len() - prompt.len());
                return Some(String::from_utf8_lossy(&buf).into_owned());
            }
        }
    }

    /// Send one line; `None` if the write or the reply failed.
    fn send(&mut self, input: &str) -> Option<String> {
        self.stream.write_all(input.as_bytes()).ok()?;
        self.stream.write_all(b"\n").ok()?;
        self.stream.flush().ok()?;
        self.read_to_prompt()
    }

    /// Drain the stream to EOF (rejected/closed sessions).
    fn read_to_eof(&mut self) -> String {
        let mut buf = String::new();
        let _ = self.stream.read_to_string(&mut buf);
        buf
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn admission_limit_turns_extra_sessions_away() {
    let state = ServerState::new().expect("state");
    let opts = ServeOptions {
        max_sessions: 1,
        ..ServeOptions::default()
    };
    let (addr, _handle) = boot(Arc::clone(&state), opts);

    let mut first = Client::connect(addr);
    assert!(first.read_to_prompt().is_some(), "first session rejected");

    // Second connection: a clean busy line, then hangup — no banner, no
    // half-open session.
    let mut second = Client::connect(addr);
    let reply = second.read_to_eof();
    assert!(
        reply.contains("server busy") && reply.contains("limit 1"),
        "unexpected rejection text: {reply}"
    );
    assert!(!reply.contains(PROMPT), "rejected session got a prompt");

    // The admitted session still works while the server is "full"...
    let reply = first.send("bridge(b1).").expect("admitted session died");
    assert!(reply.contains("committed as seq 1"), "{reply}");

    // ...and its slot frees on disconnect, re-admitting newcomers.
    drop(first);
    wait_until("slot release", || state.active_sessions() == 0);
    let mut third = Client::connect(addr);
    assert!(third.read_to_prompt().is_some(), "freed slot not reusable");
    let reply = third.send("?- bridge(X).").expect("third session died");
    assert!(reply.contains("X = b1"), "{reply}");
}

#[test]
fn idle_sessions_are_closed_after_the_timeout() {
    let state = ServerState::new().expect("state");
    let opts = ServeOptions {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    };
    let (addr, _handle) = boot(Arc::clone(&state), opts);

    let mut c = Client::connect(addr);
    assert!(c.read_to_prompt().is_some());
    // Say nothing; the server must hang up with an explanation.
    let farewell = c.read_to_eof();
    assert!(farewell.contains("idle timeout"), "{farewell}");
    wait_until("session teardown", || state.active_sessions() == 0);

    // An active session is not an idle one: keep talking under the same
    // timeout and the connection stays.
    let mut busy = Client::connect(addr);
    assert!(busy.read_to_prompt().is_some());
    for i in 0..4 {
        std::thread::sleep(Duration::from_millis(100));
        let reply = busy
            .send(&format!("tick(t{i})."))
            .expect("busy session dropped");
        assert!(reply.contains("committed"), "{reply}");
    }
}

/// An abrupt client disconnect mid-session tears down only that session
/// (logged, not fatal): the accept loop and every other session keep
/// serving. Regression for the satellite fix — these errors used to be
/// silently dropped on the floor.
#[test]
fn lost_connection_tears_down_only_its_session() {
    let state = ServerState::new().expect("state");
    let (addr, _handle) = boot(Arc::clone(&state), ServeOptions::default());

    let mut survivor = Client::connect(addr);
    assert!(survivor.read_to_prompt().is_some());

    {
        let mut doomed = Client::connect(addr);
        assert!(doomed.read_to_prompt().is_some());
        // Fire a statement and vanish without reading the reply: the
        // unread data makes the close an RST on most stacks, so the
        // server's session hits a genuine connection error rather than
        // a tidy EOF. (Either way the session must die quietly.)
        doomed.stream.write_all(b"bridge(rst).\n").unwrap();
        doomed.stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }
    wait_until("doomed session teardown", || state.active_sessions() <= 1);

    // The survivor and a newcomer are untouched.
    let reply = survivor.send("road(r1).").expect("survivor died");
    assert!(reply.contains("committed"), "{reply}");
    let mut fresh = Client::connect(addr);
    assert!(fresh.read_to_prompt().is_some());
    let reply = fresh.send("?- road(X).").expect("fresh session died");
    assert!(reply.contains("X = r1"), "{reply}");
}

#[test]
fn shutdown_command_drains_the_accept_loop() {
    let state = ServerState::new().expect("state");
    let (addr, handle) = boot(Arc::clone(&state), ServeOptions::default());

    let mut c = Client::connect(addr);
    assert!(c.read_to_prompt().is_some());
    c.send("bridge(b1).");
    // `:shutdown` answers, then the session and the accept loop wind
    // down; the accept thread must return cleanly.
    c.stream.write_all(b":shutdown\n").unwrap();
    c.stream.flush().unwrap();
    let farewell = c.read_to_eof();
    assert!(farewell.contains("draining"), "{farewell}");
    assert!(state.is_shutting_down());
    handle
        .join()
        .expect("accept thread panicked")
        .expect("accept loop errored");
}

/// The ISSUE 9 drain criterion: a durable server draining under four
/// concurrent committing sessions exits cleanly and loses *no commit any
/// client saw acknowledged* — the recovered head covers every
/// acknowledged sequence number and every acknowledged fact is present.
#[test]
fn drain_under_concurrent_commits_loses_no_acknowledged_commit() {
    let wal = temp_wal("drain");
    remove_family(&wal);
    let (state, head) =
        ServerState::durable_opts(&wal, DurabilityOptions::default(), &[]).expect("durable state");
    assert_eq!(head, 0);
    let (addr, handle) = boot(Arc::clone(&state), ServeOptions::default());

    // Four writers race: each commits facts mk(cK_I) until the server
    // hangs up on it, recording what was acknowledged.
    let writers: Vec<_> = (1..=4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut acked: Vec<(String, u64)> = Vec::new();
                if c.read_to_prompt().is_none() {
                    return acked;
                }
                for i in 1..=50u32 {
                    let fact = format!("c{k}_{i}");
                    let Some(reply) = c.send(&format!("mk({fact}).")) else {
                        break; // drained mid-exchange: nothing acknowledged
                    };
                    let Some(seq) = parse_seq(&reply) else {
                        break; // "server draining" or an error: not an ack
                    };
                    acked.push((fact, seq));
                }
                acked
            })
        })
        .collect();

    // Let the writers get going, then pull the plug the way SIGTERM
    // does: a bare `request_shutdown`.
    std::thread::sleep(Duration::from_millis(150));
    state.request_shutdown();
    let acked: Vec<(String, u64)> = writers
        .into_iter()
        .flat_map(|w| w.join().expect("writer panicked"))
        .collect();
    handle
        .join()
        .expect("accept thread panicked")
        .expect("drain errored");
    drop(state);

    // The drain wrote a final checkpoint.
    let mut ckpt = wal.as_os_str().to_os_string();
    ckpt.push(".ckpt");
    assert!(
        PathBuf::from(ckpt).exists(),
        "drain left no final checkpoint"
    );

    // Recover from disk: every acknowledged commit must be there.
    let (state, head) =
        ServerState::durable_opts(&wal, DurabilityOptions::default(), &[]).expect("recovery");
    let max_acked = acked.iter().map(|(_, seq)| *seq).max().unwrap_or(0);
    assert!(
        head >= max_acked,
        "recovered head {head} behind acknowledged seq {max_acked}"
    );
    assert!(
        !acked.is_empty(),
        "no writer got a single ack before the drain — test proved nothing"
    );
    state.store().read(|spec| {
        for (fact, seq) in &acked {
            assert!(
                spec.provable(FactPat::new("mk").arg(fact.as_str()))
                    .unwrap(),
                "acknowledged commit {seq} (mk({fact})) lost across drain"
            );
        }
    });
    drop(state);
    remove_family(&wal);
}

/// The same drain criterion end-to-end through the real binary: spawn
/// `gdp-serve`, stream commits from four concurrent TCP sessions, send
/// SIGTERM, and require exit status 0, a final checkpoint on disk, and
/// a recovery containing every acknowledged commit. This is the only
/// test that exercises the actual signal-handler wiring in `serve.rs`.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_real_binary_with_a_valid_checkpoint() {
    use std::process::{Command, Stdio};

    let wal = temp_wal("sigterm");
    remove_family(&wal);
    // Pick a free port, release it, and hand it to the child. (A tiny
    // reuse race, but the bind happens milliseconds later.)
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdp-serve"))
        .args([
            "--tcp",
            &addr.to_string(),
            "--wal",
            wal.to_str().expect("utf8 wal path"),
            "--checkpoint",
            "4",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gdp-serve");

    // Wait until the child is accepting (recovery + bind take a moment).
    let mut probe = None;
    let deadline = Instant::now() + Duration::from_secs(20);
    while probe.is_none() {
        assert!(Instant::now() < deadline, "gdp-serve never came up");
        match TcpStream::connect(addr) {
            Ok(stream) => probe = Some(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    drop(probe);

    let writers: Vec<_> = (1..=4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut acked: Vec<(String, u64)> = Vec::new();
                if c.read_to_prompt().is_none() {
                    return acked;
                }
                for i in 1..=50u32 {
                    let fact = format!("s{k}_{i}");
                    let Some(reply) = c.send(&format!("mk({fact}).")) else {
                        break;
                    };
                    let Some(seq) = parse_seq(&reply) else {
                        break;
                    };
                    acked.push((fact, seq));
                }
                acked
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    assert_eq!(
        unsafe { kill(child.id() as i32, SIGTERM) },
        0,
        "kill failed"
    );

    let acked: Vec<(String, u64)> = writers
        .into_iter()
        .flat_map(|w| w.join().expect("writer panicked"))
        .collect();
    let status = child.wait().expect("wait on gdp-serve");
    assert!(status.success(), "gdp-serve exited {status} under SIGTERM");

    let mut ckpt = wal.as_os_str().to_os_string();
    ckpt.push(".ckpt");
    assert!(
        PathBuf::from(ckpt).exists(),
        "SIGTERM drain left no final checkpoint"
    );
    assert!(
        !acked.is_empty(),
        "no commit was acknowledged before SIGTERM"
    );

    // Recover over the same base the binary serves (the standard spec)
    // and hold it to the acknowledged prefix.
    let (state, head) =
        ServerState::durable_opts(&wal, DurabilityOptions::default(), &[]).expect("recovery");
    let max_acked = acked.iter().map(|(_, seq)| *seq).max().unwrap_or(0);
    assert!(
        head >= max_acked,
        "recovered head {head} behind acknowledged seq {max_acked}"
    );
    state.store().read(|spec| {
        for (fact, seq) in &acked {
            assert!(
                spec.provable(FactPat::new("mk").arg(fact.as_str()))
                    .unwrap(),
                "acknowledged commit {seq} (mk({fact})) lost across SIGTERM drain"
            );
        }
    });
    drop(state);
    remove_family(&wal);
}

/// "committed as seq N" → N.
fn parse_seq(reply: &str) -> Option<u64> {
    let tail = reply.split("committed as seq ").nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One connection cannot make the server hold unbounded input. A line
/// past `MAX_LINE_BYTES` is refused as soon as the cap is passed, before
/// its newline arrives, and the rest of it is dropped unread into memory;
/// a statement whose lines pass `MAX_STATEMENT_BYTES` before its `.` is
/// refused. Each refusal is an `error:` reply, drops its statement whole,
/// up to the line that ends in `.`, and the session goes on.
#[test]
fn over_long_lines_and_statements_are_refused_and_the_session_keeps_serving() {
    let state = ServerState::new().expect("state");
    let (addr, _handle) = boot(Arc::clone(&state), ServeOptions::default());
    let mut client = Client::connect(addr);
    assert!(client.read_to_prompt().is_some(), "no banner");

    // The error comes before the newline; the prompt after it. The line
    // did not end in `.`, so its statement goes on, dropped, up to the
    // line that does.
    client
        .stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send the long line");
    let reply = client.read_to("\n").expect("session died on a long line");
    assert!(reply.starts_with("error: line longer than "), "{reply}");
    client.stream.write_all(b"\n").expect("end the long line");
    assert_eq!(client.read_to(CONT_PROMPT).as_deref(), Some(""));
    assert_eq!(client.send("p(1).").as_deref(), Some(""));

    // Statement lines of half a MiB each, none ending in `.`: the fourth
    // takes the statement past its cap, and its last line is dropped too.
    let line = format!("p({}", "1, ".repeat((MAX_STATEMENT_BYTES / 4) / 3));
    for i in 0..4 {
        client
            .stream
            .write_all(line.as_bytes())
            .expect("send a line");
        client.stream.write_all(b"\n").expect("send a newline");
        let reply = client
            .read_to(CONT_PROMPT)
            .expect("session died on a long statement");
        if i < 3 {
            assert_eq!(reply, "", "line {i}");
        } else {
            assert!(
                reply.starts_with("error: statement longer than "),
                "{reply}"
            );
        }
    }
    assert_eq!(client.send("1).").as_deref(), Some(""));

    assert_eq!(client.send("?- 1 = 1.").as_deref(), Some("yes.\n"));
    let reply = client.send("bridge(b1).").expect("commit");
    assert!(reply.contains("committed as seq 1"), "{reply}");
    let reply = client.send("?- bridge(X).").expect("query");
    assert!(reply.contains("X = b1"), "{reply}");
}

/// A long line refused inside a statement refuses the statement whole:
/// the lines before it and after it, up to the one that ends in `.`, are
/// not joined into a statement that commits. A long line that ends in
/// `.` ends its statement there, and a long `:`-command line is refused
/// alone.
#[test]
fn a_long_line_inside_a_statement_drops_the_whole_statement() {
    let state = ServerState::new().expect("state");
    let (addr, _handle) = boot(Arc::clone(&state), ServeOptions::default());
    let mut client = Client::connect(addr);
    assert!(client.read_to_prompt().is_some(), "no banner");
    let long_line = |client: &mut Client, line: &str, prompt: &str| {
        client.stream.write_all(line.as_bytes()).expect("send");
        let reply = client.read_to(prompt).expect("session died");
        assert!(reply.starts_with("error: line longer than "), "{reply}");
    };

    for line in ["bad(X) :-", "a(X),"] {
        client.stream.write_all(line.as_bytes()).expect("send");
        client.stream.write_all(b"\n").expect("send");
        assert_eq!(client.read_to(CONT_PROMPT).as_deref(), Some(""));
    }
    let padded = format!("c(X), {}\n", " ".repeat(MAX_LINE_BYTES));
    long_line(&mut client, &padded, CONT_PROMPT);
    assert_eq!(client.send("b(X).").as_deref(), Some(""));

    let fact = format!("big(\"{}\").\n", "x".repeat(MAX_LINE_BYTES));
    long_line(&mut client, &fact, PROMPT);
    let command = format!(":why {}\n", "y".repeat(MAX_LINE_BYTES));
    long_line(&mut client, &command, PROMPT);

    let reply = client.send("a(c1). b(c1).").expect("commit");
    assert!(reply.contains("committed as seq 1"), "{reply}");
    let reply = client.send("?- a(X), b(X).").expect("query");
    assert!(reply.contains("X = c1"), "{reply}");
    let reply = client.send("?- bad(X).").expect("query");
    assert!(
        !reply.contains("X = c1"),
        "a rule missing a conjunct committed: {reply}"
    );
    assert_eq!(
        client.send(":seq").as_deref(),
        Some("pinned at seq 1; head is seq 1.\n")
    );
}

/// A `:begin` transaction buffers at most `MAX_TXN_BYTES` from protocol
/// lines: the block that would pass it is refused, and so is every
/// refused statement inside the transaction; `:commit` then rolls the
/// whole transaction back, as it does for a parse error. `Session::block`,
/// which runs `:load` files, is not held to the cap.
#[test]
fn a_refusal_inside_begin_rolls_the_transaction_back() {
    let state = ServerState::new().expect("state");
    let mut session = Session::new(state, &ServeOptions::default());
    let say = |session: &mut Session, line: &str| {
        let mut out = Vec::new();
        assert!(session.line(line, &mut out).expect("write"));
        String::from_utf8(out).expect("utf-8")
    };
    assert!(say(&mut session, ":begin").starts_with("transaction open"));
    let fact = |i: usize| format!("note({i}, \"{}\").", "x".repeat(MAX_STATEMENT_BYTES / 2));
    let fits = MAX_TXN_BYTES / (fact(0).len() + 1 + 8);
    for i in 0..fits {
        let reply = say(&mut session, &fact(i));
        assert!(reply.starts_with("buffered ("), "block {i}: {reply}");
    }
    let reply = say(&mut session, &fact(fits));
    assert!(
        reply.starts_with("error: transaction error: the :begin buffer would pass "),
        "{reply}"
    );
    let mut out = Vec::new();
    session.block(&fact(fits), &mut out).expect("write");
    let reply = String::from_utf8(out).expect("utf-8");
    assert!(reply.starts_with("buffered ("), "{reply}");
    let reply = say(&mut session, ":commit");
    assert!(
        reply.starts_with("rolled back: transaction error: the :begin buffer would pass "),
        "{reply}"
    );

    // A statement past its cap inside `:begin`: the blocks around it are
    // buffered, and `:commit` rolls them all back.
    assert!(say(&mut session, ":begin").starts_with("transaction open"));
    assert!(say(&mut session, "road(r1).").starts_with("buffered (1 block(s)"));
    let half = format!("road({}", "r, ".repeat(MAX_STATEMENT_BYTES / 6));
    assert_eq!(say(&mut session, &half), "");
    let reply = say(&mut session, &half);
    assert!(
        reply.starts_with("error: statement longer than "),
        "{reply}"
    );
    assert_eq!(say(&mut session, "r)."), "");
    assert!(say(&mut session, "road(r2).").starts_with("buffered (2 block(s)"));
    let reply = say(&mut session, ":commit");
    assert!(
        reply.starts_with("rolled back: transaction error: a statement longer than "),
        "{reply}"
    );
    assert_eq!(say(&mut session, "?- road(X)."), "no.\n");
    assert_eq!(say(&mut session, "?- note(0, _)."), "no.\n");
}

/// Inside `:begin` a block is routed by its first token: one that opens
/// with `?-`, or holds no statement, is parsed to tell a query-only block
/// from one to buffer; any other is buffered unparsed, and `:commit`
/// parses it. The replies and the commit outcome are those of routing by
/// a full parse of every block.
#[test]
fn blocks_inside_begin_are_routed_by_their_first_token() {
    let state = ServerState::new().expect("state");
    let mut session = Session::new(state, &ServeOptions::default());
    let say = |session: &mut Session, line: &str| {
        let mut out = Vec::new();
        assert!(session.line(line, &mut out).expect("write"));
        String::from_utf8(out).expect("utf-8")
    };
    let transaction = |session: &mut Session, with_syntax_error: bool| {
        assert_eq!(
            say(session, ":begin"),
            "transaction open (:commit or :rollback).\n"
        );
        // A fact block is buffered.
        assert_eq!(
            say(session, "road(r1). bridge(b1, r1)."),
            "buffered (1 block(s); :commit applies).\n"
        );
        // A query-only block runs at once, on the pinned snapshot.
        assert_eq!(say(session, "?- road(X)."), "no.\n");
        // A block that opens with a query and then asserts is buffered
        // whole; its query runs at `:commit`.
        assert_eq!(
            say(session, "?- road(r1). road(r2)."),
            "buffered (2 block(s); :commit applies).\n"
        );
        // A comment-only block holds no statement and says nothing.
        assert_eq!(say(session, "// a comment and nothing else."), "");
        if with_syntax_error {
            // A block with a syntax error is buffered, and spoils the
            // commit.
            assert_eq!(
                say(session, "road(r3)) ."),
                "buffered (3 block(s); :commit applies).\n"
            );
        }
        say(session, ":commit")
    };
    assert_eq!(
        transaction(&mut session, true),
        "rolled back: transaction error: parse error at 1:9: expected `.`, found `)`\n"
    );
    assert_eq!(say(&mut session, "?- road(X)."), "no.\n");
    assert_eq!(
        transaction(&mut session, false),
        "yes.\nok (3 facts, 0 rules, 0 constraints) committed as seq 1\n"
    );
    assert_eq!(say(&mut session, "?- road(X)."), "X = r1\nX = r2\n");
}
