//! # gdp-lang — concrete syntax for the GDP formalism
//!
//! A textual specification language transliterating the paper's notation:
//!
//! ```text
//! // §II.B basic facts                    // §V/§VI/§VII qualifiers
//! road(s1). road(s2).                     @ pt(3.0, 4.0) vegetation(pine)(hill).
//! road_intersection(s1, s2).              @u[r1] pt(5.0, 5.0) zone(wetland).
//!                                         &u[1970, 1980) open(b1).
//! // §III.A virtual facts                 &now capital(jc).
//! open_road(X) :-                         %0.85 clarity(image).
//!     road(X),
//!     forall(bridge(Y, X), open(Y)).      // §III.C constraints
//!                                         constraint two_capitals(Z) :-
//! // §III.D model qualification               capital_of(X, Z),
//! celsius'freezing_point(0)(x).           //  capital_of(Y, Z), X \= Y.
//! ```
//!
//! plus `#` directives for declarations (`#domain`, `#predicate`,
//! `#model`, `#object`, `#grid`, `#now`), view management (`#world_view`,
//! `#meta_view`, `#activate`, `#deactivate`), and `?-` queries.
//!
//! ## Quick example
//!
//! ```
//! use gdp_core::Specification;
//! use gdp_lang::{load, query};
//!
//! let mut spec = Specification::new();
//! load(&mut spec, r#"
//!     bridge(b1). bridge(b2). open(b1).
//!     closed(X) :- bridge(X), not(open(X)).
//! "#).unwrap();
//! let answers = query(&spec, "closed(X)").unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].get("X").unwrap().to_string(), "b2");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ast;
mod error;
mod loader;
mod parser;
mod printer;
mod token;

pub use ast::Statement;
pub use error::{LangError, LangResult};
pub use loader::{check_depth, load, query, LoadSummary, Loader};
pub use parser::{parse_formula, parse_program, parse_program_diagnostics, MAX_NESTING};
pub use printer::{print_fact, print_formula, print_pat, print_statement};
pub use token::{first_token, tokenize, Pos, Spanned, Tok};
