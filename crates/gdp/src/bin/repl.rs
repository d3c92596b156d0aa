//! gdp-repl — an interactive requirements-specification shell.
//!
//! The paper frames specification as an interactive validation activity;
//! this shell is the workbench. It is one [`gdp::server::Session`] over an
//! in-memory store: the protocol `gdp-serve` speaks, with no socket and no
//! write-ahead log, so statements, queries and every `:`-command behave
//! exactly as they do on the server. The shell adds only the terminal:
//! Ctrl-C cancels the running statement, and `:load FILE` runs a file as
//! one statement block.
//!
//! ```text
//! $ cargo run -p gdp --bin gdp-repl
//! gdp> bridge(b1). bridge(b2). open(b1).
//! ok (3 facts, 0 rules, 0 constraints) committed as seq 1
//! gdp> closed(X) :- bridge(X), not(open(X)).
//! ok (0 facts, 1 rules, 0 constraints) committed as seq 2
//! gdp> ?- closed(X).
//! X = b2
//! gdp> :why closed(b2)
//! closed(b2)   [rule in rules] …
//! ```

use std::io::{BufRead, Write};
use std::sync::OnceLock;

use gdp::prelude::CancelToken;
use gdp::server::{ServeOptions, ServerState, Session, PROMPT};

/// The session's cancellation token, reachable from the SIGINT handler.
static INTERRUPT: OnceLock<CancelToken> = OnceLock::new();

extern "C" fn on_sigint(_sig: i32) {
    // An atomic store: async-signal-safe. The in-flight query observes
    // the tripped token at its next budget checkpoint.
    if let Some(token) = INTERRUPT.get() {
        token.cancel();
    }
}

/// Route Ctrl-C to the cancellation token instead of killing the shell.
/// Raw `signal(2)` keeps this dependency-free; glibc's `signal` installs
/// BSD (SA_RESTART) semantics, so the blocking prompt read survives the
/// interrupt and only the solver notices.
#[cfg(unix)]
fn install_sigint(token: CancelToken) {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    if INTERRUPT.set(token).is_ok() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(not(unix))]
fn install_sigint(_token: CancelToken) {
    // No signal plumbing off unix; Ctrl-C keeps its default behavior.
    let _ = &INTERRUPT;
    let _ = on_sigint as extern "C" fn(i32);
}

fn main() {
    let state = ServerState::new().unwrap_or_else(|e| {
        eprintln!("failed to initialize: {e}");
        std::process::exit(1);
    });
    let mut session = Session::new(state, &ServeOptions::default());
    install_sigint(session.cancel_token());

    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "gdp-repl — formal GDP requirements shell (:help for help, Ctrl-C cancels a query)"
    );
    let mut line = String::new();
    loop {
        let _ = write!(out, "{}", session.prompt()).and_then(|()| out.flush());
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                // Ctrl-C at the prompt (non-restarting platforms): just
                // re-prompt.
                let _ = writeln!(out);
                continue;
            }
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let handled = match line.trim().split_once(' ') {
            // Only the shell reads files: no socket client can make the
            // server open one. The file's text is one statement block.
            Some((":load", path)) if session.prompt() == PROMPT => {
                match std::fs::read_to_string(path.trim()) {
                    Ok(source) => session.block(&source, &mut out).map(|()| true),
                    Err(e) => {
                        writeln!(out, "error: cannot read {}: {e}", path.trim()).map(|()| true)
                    }
                }
            }
            _ => session.line(&line, &mut out),
        };
        match handled {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                eprintln!("write error: {e}");
                break;
            }
        }
    }
    let _ = out.flush();
}
