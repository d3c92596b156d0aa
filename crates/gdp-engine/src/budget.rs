//! Resource budgets.
//!
//! Logic programs over recursive rules can diverge; a requirements
//! validation session must detect that and report it rather than hang. A
//! [`Budget`] is shared (via `Rc<Cell<_>>`) between a solver and all the
//! sub-solvers it spawns for `not`, `forall`, and aggregation goals, so a
//! query cannot dodge its limit by hiding work inside a negation.
//!
//! Beyond the step and depth counters, a budget can carry two *external*
//! bounds, both checked amortized (every [`CHECK_INTERVAL`] steps, so the
//! hot path stays a decrement-and-compare):
//!
//! * a wall-clock **deadline** ([`Budget::with_deadline`]) — steps bound
//!   work, but a step over a pathological index or a slow native has no
//!   fixed cost, so interactive sessions also want a bound in seconds;
//! * one or more [`CancelToken`]s ([`Budget::with_cancel`]) — a shared
//!   atomic flag a *different thread* (a Ctrl-C handler, a supervising
//!   audit, a fault-injection harness) can trip to stop the query
//!   cooperatively. The solver keeps its single-threaded `Rc` interior;
//!   only the token crosses threads.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, EngineResult};

/// External bounds are polled every this many steps. A power of two: the
/// check is `left & (CHECK_INTERVAL - 1) == 0` on the already-loaded step
/// counter, so the common case adds one AND and one branch per step.
pub const CHECK_INTERVAL: u64 = 1024;

/// The stack of every thread that runs a solver: session threads and
/// [`crate::ParallelSolver`] workers alike. A main thread's customary
/// 8 MiB rather than a spawned thread's 2 MiB: the solver recurses on the
/// host stack once per `not`/`forall`/aggregate sub-solver, up to the
/// default depth limit of 256 levels, and on x86-64 Linux an unoptimised
/// build needs about 3 MiB for those (an optimised one under 1 MiB). A
/// stack overflow cannot be contained; it aborts the process.
pub const SOLVER_STACK: usize = 8 << 20;

const FAULT_NONE: u8 = 0;
const FAULT_CANCELLED: u8 = 1;
const FAULT_EXPIRED: u8 = 2;

/// A shared cancellation flag.
///
/// Cloning yields a handle to the *same* flag; the token is `Send + Sync`
/// (an `Arc` over an atomic), so one side can hand a clone to another
/// thread — a signal handler, a watchdog — and keep solving on its own.
/// Solvers notice a tripped token at the next amortized budget check and
/// return [`EngineError::Cancelled`] (or [`EngineError::DeadlineExceeded`]
/// after [`CancelToken::expire`]) as an ordinary error value: cancellation
/// is cooperative, never a thread kill, so no lock, table, or knowledge
/// base is ever left mid-mutation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token: every budget holding a handle reports
    /// [`EngineError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(FAULT_CANCELLED, Ordering::Relaxed);
    }

    /// Trip the token as a *deadline*: every budget holding a handle
    /// reports [`EngineError::DeadlineExceeded`] at its next check. Used
    /// by the fault-injection harness ([`crate::ChaosSink`]) to force
    /// deadline expiry deterministically, without depending on wall-clock
    /// timing.
    pub fn expire(&self) {
        self.flag.store(FAULT_EXPIRED, Ordering::Relaxed);
    }

    /// Has the token been tripped (by either [`cancel`](Self::cancel) or
    /// [`expire`](Self::expire))?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) != FAULT_NONE
    }

    /// Clear the token so the next query can reuse it (a REPL resets its
    /// Ctrl-C token before each statement).
    pub fn reset(&self) {
        self.flag.store(FAULT_NONE, Ordering::Relaxed);
    }

    fn check(&self, deadline_ms: u64) -> EngineResult<()> {
        match self.flag.load(Ordering::Relaxed) {
            FAULT_NONE => Ok(()),
            FAULT_EXPIRED => Err(EngineError::DeadlineExceeded {
                limit_ms: deadline_ms,
            }),
            _ => Err(EngineError::Cancelled),
        }
    }
}

/// A wall-clock deadline carried by a budget.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    at: Instant,
    limit_ms: u64,
}

/// A shared step/depth budget for one top-level query.
///
/// Cloning a `Budget` yields a handle to the *same* counters.
#[derive(Clone, Debug)]
pub struct Budget {
    steps_left: Rc<Cell<u64>>,
    step_limit: u64,
    depth: Rc<Cell<u32>>,
    depth_limit: u32,
    deadline: Option<Deadline>,
    /// Usually zero or one token; an audit batch under fault injection
    /// carries two (the user's and the harness's).
    signals: Vec<CancelToken>,
}

impl Default for Budget {
    /// A generous default: 10 million inference steps, 256 nested
    /// sub-solver levels. Ample for every experiment in the paper while
    /// still catching accidental non-termination in well under a second.
    fn default() -> Budget {
        Budget::new(10_000_000, 256)
    }
}

impl Budget {
    /// Create a budget with explicit limits.
    pub fn new(step_limit: u64, depth_limit: u32) -> Budget {
        Budget {
            steps_left: Rc::new(Cell::new(step_limit)),
            step_limit,
            depth: Rc::new(Cell::new(0)),
            depth_limit,
            deadline: None,
            signals: Vec::new(),
        }
    }

    /// Effectively unlimited; for benchmarks where the budget check itself
    /// should stay out of the measurement noise floor.
    pub fn unlimited() -> Budget {
        Budget::new(u64::MAX, u32::MAX)
    }

    /// Attach a wall-clock deadline at an absolute instant. `limit_ms` is
    /// reported in the resulting [`EngineError::DeadlineExceeded`]; an
    /// audit batch passes the same instant to every worker so the whole
    /// batch shares one deadline.
    pub fn with_deadline(mut self, at: Instant, limit_ms: u64) -> Budget {
        self.deadline = Some(Deadline { at, limit_ms });
        self
    }

    /// Attach a wall-clock deadline `after` past `start`: solves that pass
    /// the same `start` share one deadline instant. A duration so large
    /// that the absolute instant overflows (`Duration::MAX` and friends)
    /// saturates to "no effective deadline": the budget is returned
    /// unchanged rather than panicking in `Instant + Duration`.
    pub fn with_deadline_after(self, start: Instant, after: Duration) -> Budget {
        let ms = after.as_millis().min(u128::from(u64::MAX)) as u64;
        match start.checked_add(after) {
            Some(at) => self.with_deadline(at, ms),
            None => self,
        }
    }

    /// Attach a cancellation token. May be called more than once; every
    /// attached token is polled at the amortized check.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.signals.push(token);
        self
    }

    /// The configured step limit.
    pub fn step_limit(&self) -> u64 {
        self.step_limit
    }

    /// The configured depth limit.
    pub fn depth_limit(&self) -> u32 {
        self.depth_limit
    }

    /// Consume one inference step.
    ///
    /// External bounds (deadline, cancellation) are polled first, every
    /// [`CHECK_INTERVAL`] steps — *before* the step is consumed, so a step
    /// the solver never attributes to a predicate is never counted. This
    /// keeps the profiler's ledger reconciling exactly with
    /// [`Self::steps_used`] on every exit path.
    #[inline]
    pub fn step(&self) -> EngineResult<()> {
        let left = self.steps_left.get();
        if left == 0 {
            return Err(EngineError::StepLimit {
                limit: self.step_limit,
            });
        }
        if left & (CHECK_INTERVAL - 1) == 0 {
            self.check_external()?;
        }
        self.steps_left.set(left - 1);
        Ok(())
    }

    /// Poll the external bounds. Out of line: the hot path pays only the
    /// interval test.
    #[cold]
    #[inline(never)]
    fn check_external(&self) -> EngineResult<()> {
        let deadline_ms = self.deadline.map_or(0, |d| d.limit_ms);
        for token in &self.signals {
            token.check(deadline_ms)?;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d.at {
                return Err(EngineError::DeadlineExceeded {
                    limit_ms: d.limit_ms,
                });
            }
        }
        Ok(())
    }

    /// Enter a nested sub-solver (negation, forall, aggregation).
    #[inline]
    pub fn enter(&self) -> EngineResult<DepthGuard> {
        let d = self.depth.get();
        if d >= self.depth_limit {
            return Err(EngineError::DepthLimit {
                limit: self.depth_limit,
            });
        }
        self.depth.set(d + 1);
        Ok(DepthGuard {
            depth: Rc::clone(&self.depth),
        })
    }

    /// Steps consumed so far by this budget's query tree.
    pub fn steps_used(&self) -> u64 {
        self.step_limit.saturating_sub(self.steps_left.get())
    }

    /// Current sub-solver nesting depth (0 at the top level). Trace events
    /// carry this so a rendered trace shows which nesting level emitted
    /// them.
    pub fn depth(&self) -> u32 {
        self.depth.get()
    }
}

/// RAII guard decrementing the nesting depth when a sub-solver finishes.
///
/// The decrement runs in `Drop`, so the depth counter is restored on
/// *every* exit path — early returns, `?` propagation, and panic unwinds
/// alike. That last case is what makes the parallel solver's per-goal
/// `catch_unwind` isolation sound: a panicking native inside a `not(...)`
/// leaves the shared depth counter exactly where it was.
pub struct DepthGuard {
    depth: Rc<Cell<u32>>,
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.depth.set(self.depth.get().saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_run_out() {
        let b = Budget::new(3, 8);
        assert!(b.step().is_ok());
        assert!(b.step().is_ok());
        assert!(b.step().is_ok());
        assert_eq!(b.step(), Err(EngineError::StepLimit { limit: 3 }));
        assert_eq!(b.steps_used(), 3);
    }

    #[test]
    fn clones_share_counters() {
        let b = Budget::new(2, 8);
        let b2 = b.clone();
        b.step().unwrap();
        b2.step().unwrap();
        assert!(b.step().is_err());
    }

    #[test]
    fn depth_guard_restores_on_drop() {
        let b = Budget::new(100, 2);
        let g1 = b.enter().unwrap();
        let g2 = b.enter().unwrap();
        assert!(b.enter().is_err());
        drop(g2);
        let g3 = b.enter().unwrap();
        drop(g3);
        drop(g1);
        assert!(b.enter().is_ok());
    }

    #[test]
    fn depth_guard_restores_across_unwind() {
        let b = Budget::new(100, 4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g1 = b.enter().unwrap();
            let _g2 = b.enter().unwrap();
            panic!("boom");
        }));
        assert!(result.is_err());
        // Both guards unwound: the depth is back to the top level and the
        // budget is as usable as before the panic.
        assert_eq!(b.depth(), 0);
        let g = b.enter().unwrap();
        assert_eq!(b.depth(), 1);
        drop(g);
    }

    #[test]
    fn cancel_token_trips_within_one_interval() {
        let token = CancelToken::new();
        let b = Budget::new(u64::MAX, 8).with_cancel(token.clone());
        token.cancel();
        let mut steps = 0u64;
        let err = loop {
            match b.step() {
                Ok(()) => steps += 1,
                Err(e) => break e,
            }
            assert!(steps <= CHECK_INTERVAL, "cancellation was not observed");
        };
        assert_eq!(err, EngineError::Cancelled);
        // And the token can be cleared for the next query.
        token.reset();
        assert!(!token.is_cancelled());
        assert!(b.step().is_ok());
    }

    #[test]
    fn expired_token_reports_deadline() {
        let token = CancelToken::new();
        let b = Budget::new(u64::MAX, 8).with_cancel(token.clone());
        token.expire();
        let err = loop {
            if let Err(e) = b.step() {
                break e;
            }
        };
        assert_eq!(err, EngineError::DeadlineExceeded { limit_ms: 0 });
    }

    #[test]
    fn huge_deadline_saturates_instead_of_panicking() {
        // `Instant::now() + Duration::MAX` would overflow-panic; the
        // saturating path must instead behave as "no effective deadline".
        let b = Budget::new(16, 8).with_deadline_after(Instant::now(), Duration::MAX);
        for _ in 0..16 {
            assert!(b.step().is_ok());
        }
        assert_eq!(b.step(), Err(EngineError::StepLimit { limit: 16 }));
        // A representable huge-but-finite deadline still attaches normally.
        let b =
            Budget::new(u64::MAX, 8).with_deadline_after(Instant::now(), Duration::from_secs(3600));
        assert!(b.step().is_ok());
    }

    #[test]
    fn past_deadline_trips() {
        let b = Budget::new(u64::MAX, 8).with_deadline(Instant::now(), 7);
        let err = loop {
            if let Err(e) = b.step() {
                break e;
            }
        };
        assert_eq!(err, EngineError::DeadlineExceeded { limit_ms: 7 });
    }

    #[test]
    fn external_failure_consumes_no_step() {
        let token = CancelToken::new();
        let b = Budget::new(CHECK_INTERVAL * 4, 8).with_cancel(token.clone());
        token.cancel();
        let used_before = b.steps_used();
        assert_eq!(b.step(), Err(EngineError::Cancelled));
        assert_eq!(b.steps_used(), used_before);
    }
}
