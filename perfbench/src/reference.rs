//! The host-speed reference: a fixed piece of std-only work whose CPU time
//! moves with the speed the host gives the CPU it runs on.
//!
//! On a shared VM the CPU time of the same work moves by up to 1.5x
//! within seconds, with the load other tenants put on the physical core
//! under each virtual CPU. Run on the server's CPU between statements, this
//! work slows and speeds up with the server, so `perfbench/run.py` can
//! express the server's CPU time at a fixed reference speed. It shares no
//! code with the gdp crates, so no change to them moves it.

use std::io::{BufRead, Write};

use crate::clock::{now_ns, CLOCK_THREAD_CPUTIME_ID};

/// Entries of the random cycle the reference walks: 32 MiB, beyond the
/// caches.
const CYCLE: usize = 1 << 23;
/// Steps of that walk per round.
const STEPS: usize = 2_500;

/// A random cyclic permutation of `0..n` (Sattolo's shuffle, fixed seed).
fn random_cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// One round: formatting, allocating and sorting short strings, sorting
/// integers, and a cache-missing walk of `cycle` from `at` (about 1 ms and
/// 0.7 ms of CPU here). The first part tracks the solver's kind of work,
/// the walk the memory traffic of commits and copy-on-write.
fn work(cycle: &[u32], at: &mut u32) -> usize {
    let mut words: Vec<String> = (0..4_000u32)
        .map(|i| format!("f{}({i}, {})", i.wrapping_mul(2_654_435_761) % 977, i % 13))
        .collect();
    words.sort();
    let mut numbers: Vec<u32> = (0..16_384u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    numbers.sort_unstable();
    for _ in 0..STEPS {
        *at = cycle[*at as usize];
    }
    words.iter().map(String::len).sum::<usize>() + numbers[77] as usize
}

/// Answer every line of standard input with the thread CPU time, in ns,
/// of one round of the reference work.
pub fn run() -> Result<(), String> {
    let cycle = random_cycle(CYCLE);
    let mut at = 0;
    let mut stdout = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let start = now_ns(CLOCK_THREAD_CPUTIME_ID);
        std::hint::black_box(work(&cycle, &mut at));
        let spent = now_ns(CLOCK_THREAD_CPUTIME_ID) - start;
        writeln!(stdout, "{spent}")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
