//! `gdp-perfbench`: the compiled half of the gdp-serve benchmark.
//!
//! ```text
//! gdp-perfbench gen --workload query|ingest|audit --seed N --out DIR
//! gdp-perfbench replay --dir DIR --out DIR
//! gdp-perfbench reference
//! ```
//!
//! `gen` writes `world.gdp` (the server's `--load` file), `stream.tsv`
//! (one statement per line with its expected reply) and `meta.tsv`.
//! `replay` runs the stream of `--dir` in process, one statement per
//! `step` line on standard input, and writes its stores' files,
//! `spans-plain.tsv`, `spans-traced.tsv` and `counters.tsv` into `--out`.
//! `reference` times a fixed piece of std-only work once per input line
//! (see `reference.rs`). `perfbench/run.py` drives all three around the
//! server.

mod clock;
mod reference;
mod replay;
mod worlds;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Query rounds: one statement of each family, then a `:seq` probe.
const QUERY_ROUNDS: usize = 170;
/// Acknowledged commits in the ingest stream.
const INGEST_COMMITS: usize = 1040;
/// Commit-then-audit rounds, and readings per model, in the audit stream.
const AUDIT_ROUNDS: usize = 104;
const AUDIT_READINGS: usize = 100;

fn generate(workload: &str, seed: u64) -> Result<worlds::Workload, String> {
    Ok(match workload {
        "query" => worlds::query(seed, QUERY_ROUNDS),
        "ingest" => worlds::ingest(seed, INGEST_COMMITS),
        "audit" => worlds::audit(seed, AUDIT_ROUNDS, AUDIT_READINGS),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn write(path: PathBuf, contents: &str) -> Result<(), String> {
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read(path: PathBuf) -> Result<String, String> {
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let mut flags = HashMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("bad arguments: {rest:?}")),
        }
    }
    let flag = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    match command.as_str() {
        "gen" => {
            let seed: u64 = flag("seed")?
                .parse()
                .map_err(|_| "--seed needs an integer")?;
            let w = generate(&flag("workload")?, seed)?;
            let out = PathBuf::from(flag("out")?);
            write(out.join("world.gdp"), &w.world)?;
            write(out.join("stream.tsv"), &w.stream_tsv())?;
            let mut meta = String::new();
            let _ = writeln!(meta, "world_clauses\t{}", w.world_clauses);
            let _ = writeln!(meta, "count_query\t{}", w.count_query);
            let _ = writeln!(meta, "final_count\t{}", w.final_count);
            for (key, value) in &w.env {
                let _ = writeln!(meta, "env\t{key}={value}");
            }
            write(out.join("meta.tsv"), &meta)
        }
        "replay" => {
            let dir = PathBuf::from(flag("dir")?);
            replay::run(
                &read(dir.join("world.gdp"))?,
                &read(dir.join("stream.tsv"))?,
                &PathBuf::from(flag("out")?),
            )
        }
        "reference" => reference::run(),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("gdp-perfbench: {e}");
        std::process::exit(1);
    }
}
