//! # gdp-core — the GDP requirements formalism
//!
//! Executable implementation of the formalism from Gruia-Catalin Roman,
//! *"Formal Specification of Geographic Data Processing Requirements"*
//! (ICDE 1986 / IEEE TKDE 2(4), 1990): a restricted, Prolog-executable
//! subset of first-order logic for specifying GDP data and knowledge
//! requirements, extended with second-order meta-rules for user-defined
//! reasoning about space, time, and accuracy.
//!
//! The paper's concept map and where each concept lives here:
//!
//! | paper concept (§) | here |
//! |---|---|
//! | objects (II.A) | [`Specification::declare_object`] |
//! | basic facts (II.B) | [`FactPat`] + [`Specification::assert_fact`] |
//! | virtual facts (III.A) | [`Rule`] + [`Specification::define`] |
//! | semantic domains (III.B) | [`DomainDef`], [`Sort`] |
//! | constraints (III.C) | [`Constraint`] + [`Specification::check_consistency`] |
//! | models (III.D) | [`FactPat::model`], [`Specification::declare_model`] |
//! | world view (III.E) | [`Specification::set_world_view`] |
//! | meta-facts/-constraints (IV.A–B) | [`rule::RawClause`] packs over the reified `h/5` |
//! | meta-models, meta-view (IV.C–D) | [`MetaModel`], [`Specification::set_meta_view`] |
//! | spatial operators (V) | `gdp-spatial` (builds on [`SpaceQual`]) |
//! | temporal operators (VI) | `gdp-temporal` (builds on [`TimeQual`]) |
//! | accuracy (VII) | `gdp-fuzzy` (builds on [`Specification::assert_fuzzy_fact`]) |
//!
//! ## Quick example — the paper's bridge status (§III.A)
//!
//! ```
//! use gdp_core::{FactPat, Formula, Rule, Specification};
//!
//! let mut spec = Specification::new();
//! spec.assert_fact(FactPat::new("bridge").arg("b1")).unwrap();
//! spec.assert_fact(FactPat::new("bridge").arg("b2")).unwrap();
//! spec.assert_fact(FactPat::new("open").arg("b1")).unwrap();
//!
//! // A bridge that is not open is assumed to be closed.
//! spec.define(Rule::new(
//!     FactPat::new("closed").arg("X"),
//!     Formula::and(
//!         Formula::fact(FactPat::new("bridge").arg("X")),
//!         Formula::not(Formula::fact(FactPat::new("open").arg("X"))),
//!     ),
//! )).unwrap();
//!
//! assert!(spec.provable(FactPat::new("closed").arg("b2")).unwrap());
//! assert!(!spec.provable(FactPat::new("closed").arg("b1")).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod domains;
mod error;
pub mod explain;
mod fact;
mod formula;
mod meta;
mod pattern;
mod qualifiers;
pub mod reify;
pub mod rule;
mod spec;
pub mod store;

pub use config::EnvConfig;
pub use domains::{DomainDef, DomainTable, Sort};
pub use error::{SpecError, SpecResult};
pub use explain::{decode, explain, Proof};
pub use fact::{ArgsPat, FactPat, Target};
pub use formula::{AggOp, CmpOp, Formula};
pub use meta::{MetaModel, MetaModelBuilder};
pub use pattern::{Pat, VarTable};
pub use qualifiers::{IntervalPat, SpaceQual, TimeQual};
pub use rule::{Constraint, ConstraintBuilder, RawClause, Rule};
pub use spec::{
    Answer, AuditFailure, AuditReport, RetryPolicy, SortEnforcement, Specification, Violation,
};
pub use store::{
    Committed, DurabilityOptions, SpecStore, DEFAULT_CHECKPOINT_INTERVAL, DEFAULT_HISTORY,
};

/// The default model ω (§III.D): "any fact or constraint violation that is
/// not explicitly qualified by some model is associated with a default
/// model".
pub const DEFAULT_MODEL: &str = "omega";

/// The distinguished constraint-violation predicate (§III.C).
pub const ERROR_PRED: &str = "error";
