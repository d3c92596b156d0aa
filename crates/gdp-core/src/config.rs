//! The `GDP_*` environment hooks, read in one place.
//!
//! Whole harnesses (the integration suites, the E1–E16 experiment
//! runner, the matrix in `scripts/ci.sh`) re-run under another engine
//! configuration by setting these variables instead of changing code.
//! [`Specification::new`](crate::Specification::new) applies
//! [`EnvConfig::read`]; a hook that is unset, or set to any value it
//! does not name, leaves its default.

use gdp_engine::{ChaosConfig, IoFaultConfig};

/// What the `GDP_*` environment variables ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvConfig {
    /// `GDP_TABLING=on` or `all`: answer tabling for nominated predicates.
    pub tabling: bool,
    /// `GDP_TABLING=all`: every user predicate is tabled.
    pub table_all: bool,
    /// `GDP_TRACE=1` or `on`: a bounded ring of port events per query.
    pub trace: bool,
    /// `GDP_PROFILE=1` or `on`: a per-predicate profile across queries.
    pub profile: bool,
    /// `GDP_INDEX=off` or `0`: no hash or range candidate selection, so
    /// every call scans every clause (the unindexed twin the equivalence
    /// suites diff against).
    pub unindexed: bool,
    /// `GDP_CHAOS=<seed>`, `cancel:K`, `deadline:K` or `panic:K`: one
    /// port-event fault in every audit ([`ChaosConfig::parse`]).
    pub chaos: Option<ChaosConfig>,
    /// `GDP_CHAOS=io:…`: one disk fault under every WAL and checkpoint
    /// write of a store whose options carry it ([`IoFaultConfig::parse`]).
    pub io_faults: Option<IoFaultConfig>,
}

impl EnvConfig {
    /// Read every hook from the environment, afresh on each call: nothing
    /// is cached, so a harness may change a variable between two
    /// constructions. A `GDP_CHAOS` value neither grammar accepts is
    /// ignored with a warning on stderr.
    pub fn read() -> EnvConfig {
        let var = |name| std::env::var(name).unwrap_or_default();
        let (tabling, chaos) = (var("GDP_TABLING"), var("GDP_CHAOS"));
        let port = ChaosConfig::parse(&chaos);
        if port.is_none() && !chaos.trim().is_empty() && !chaos.trim().starts_with("io:") {
            eprintln!("GDP_CHAOS={chaos}: expected a seed or kind:K; ignoring");
        }
        EnvConfig {
            tabling: tabling == "on" || tabling == "all",
            table_all: tabling == "all",
            trace: matches!(var("GDP_TRACE").as_str(), "1" | "on"),
            profile: matches!(var("GDP_PROFILE").as_str(), "1" | "on"),
            unindexed: matches!(var("GDP_INDEX").as_str(), "off" | "0"),
            chaos: port,
            io_faults: IoFaultConfig::parse(&chaos),
        }
    }
}
