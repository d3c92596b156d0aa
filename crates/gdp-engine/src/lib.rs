//! # gdp-engine — logic-programming substrate for the GDP formalism
//!
//! Roman's formalism ("Formal Specification of Geographic Data Processing
//! Requirements", ICDE 1986) deliberately restricts its formula language to
//! "a subset of logic compatible with the inference mechanisms available in
//! Prolog" (§I). This crate is that inference mechanism, built from scratch:
//!
//! * interned symbols and a compact [`Term`] representation,
//! * sound unification with an optional occurs check,
//! * a clause store ([`KnowledgeBase`]) with predicate and first-argument
//!   indexing plus named clause *groups* (the mechanism by which meta-models
//!   are activated and deactivated on demand),
//! * an iterative, trail-based SLD [`Solver`] with negation-as-failure,
//!   bounded universal quantification, arithmetic and structural builtins,
//!   and the aggregation primitives the paper requires (`card` — §VII.B's
//!   cardinality primitive — `findall`, `avg`, `sum`, `min`, `max`),
//! * explicit resource [`Budget`]s so runaway queries return an error value
//!   instead of looping or overflowing the host stack.
//!
//! The engine knows nothing about geography: objects, models, spatial and
//! temporal operators, and accuracy are encoded on top of it by `gdp-core`
//! and its sibling crates.
//!
//! ## Quick example
//!
//! ```
//! use gdp_engine::{KnowledgeBase, Term, Solver, Budget};
//!
//! let mut kb = KnowledgeBase::new();
//! kb.assert_fact(Term::pred("road", vec![Term::atom("s1")]));
//! kb.assert_fact(Term::pred("road", vec![Term::atom("s2")]));
//! let goal = Term::pred("road", vec![Term::var(0)]);
//! let solutions = Solver::new(&kb, Budget::default())
//!     .solve_all(goal)
//!     .unwrap();
//! assert_eq!(solutions.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod builtins;
pub mod chaos;
pub mod checkpoint;
mod codec;
pub mod delta;
pub mod deps;
mod error;
mod hash;
mod kb;
mod list;
mod parallel;
mod solver;
mod symbol;
pub mod table;
mod term;
pub mod trace;
mod unify;
pub mod wal;

pub mod arith;

pub use budget::{Budget, CancelToken, DepthGuard, CHECK_INTERVAL, SOLVER_STACK};
pub use chaos::{ChaosConfig, ChaosFile, ChaosSink, FaultKind, IoFaultConfig, IoFaultKind};
pub use checkpoint::{fingerprint, CheckpointImage};
pub use codec::{TooDeep, MAX_TERM_DEPTH};
pub use delta::{CommitRecord, Delta, DeltaOp};
pub use deps::{ArgSpec, Closure, DepGraph};
pub use error::{EngineError, EngineResult};
pub use hash::{FxHashMap, FxHashSet};
pub use kb::{
    ArgPath, BoundSet, Candidates, Clause, GroupId, IndexReport, KnowledgeBase, NativeFn,
    NativeOutcome, NumRange, PosList, PredKey, RangeSpec,
};
pub use list::{list_from_iter, list_to_vec, ListIter};
pub use parallel::ParallelSolver;
pub use solver::{Solution, SolutionIter, Solver, SolverStats};
pub use symbol::{symbols, Sym};
pub use table::{AnswerSet, AnswerTable, CachedAnswer, CyclePolicy, TableValidity};
pub use term::{Term, Var, F64};
pub use trace::{
    NullSink, ObserverSink, Port, PredProfile, Profiler, RingTrace, TraceEvent, TraceSink,
};
pub use unify::{resolve_deep, resolve_shallow, BindStore};
pub use wal::{replay, LogEnd, Wal, WalHeader, WalRecord};
