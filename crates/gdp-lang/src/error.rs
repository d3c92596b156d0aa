//! Language-layer errors.

use std::fmt;

use crate::token::Pos;

/// `Result` specialized to [`LangError`].
pub type LangResult<T> = Result<T, LangError>;

/// Errors from lexing, parsing, or loading a specification source.
#[derive(Clone, Debug, PartialEq)]
pub enum LangError {
    /// Tokenization failed.
    Lex {
        /// Where.
        pos: Pos,
        /// Why.
        message: String,
    },
    /// Parsing failed.
    Parse {
        /// Where.
        pos: Pos,
        /// Why.
        message: String,
    },
    /// A parsed statement was rejected by the specification layer.
    Load {
        /// Statement index (0-based) within the source.
        statement: usize,
        /// Source line the statement starts on (1-based; 0 when unknown,
        /// e.g. for queries built at runtime).
        line: u32,
        /// The underlying specification error.
        error: gdp_core::SpecError,
    },
    /// Several independent diagnostics from one load. The loader recovers
    /// at clause boundaries and keeps applying well-formed statements, so
    /// a source with multiple defects reports *all* of them in one pass
    /// instead of one per edit-reload cycle.
    Batch(Vec<LangError>),
    /// A statement nests deeper than a term may
    /// ([`gdp_engine::MAX_TERM_DEPTH`]); refused before it is compiled.
    TooDeep {
        /// Where the statement starts.
        pos: Pos,
        /// How deep it nests ([`crate::Statement::depth`]).
        depth: usize,
    },
    /// A directive referenced something the loader cannot provide (e.g. a
    /// `#grid` directive without a spatial registry attached).
    Unsupported {
        /// Where.
        pos: Pos,
        /// Why.
        message: String,
    },
}

impl LangError {
    /// The individual diagnostics behind this error: a
    /// [`LangError::Batch`] yields its members, anything else yields
    /// itself. Lets interactive frontends print one line per problem
    /// without matching on the batch structure.
    pub fn diagnostics(&self) -> Vec<&LangError> {
        match self {
            LangError::Batch(errors) => errors.iter().collect(),
            other => vec![other],
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { pos, message } => write!(f, "lex error at {pos}: {message}"),
            LangError::Parse { pos, message } => write!(f, "parse error at {pos}: {message}"),
            LangError::Load {
                statement,
                line: 0,
                error,
            } => {
                write!(f, "load error in statement {}: {error}", statement + 1)
            }
            LangError::Load {
                statement,
                line,
                error,
            } => {
                write!(
                    f,
                    "load error in statement {} (line {line}): {error}",
                    statement + 1
                )
            }
            LangError::Batch(errors) => {
                write!(f, "{} errors:", errors.len())?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            LangError::TooDeep { pos, depth } => write!(
                f,
                "statement too deep at {pos}: it nests {depth} levels, more than the {} \
                 a term may (a list counts one level per element)",
                gdp_engine::MAX_TERM_DEPTH
            ),
            LangError::Unsupported { pos, message } => {
                write!(f, "unsupported at {pos}: {message}")
            }
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_positions() {
        let e = LangError::Parse {
            pos: Pos { line: 3, col: 7 },
            message: "expected `.`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:7: expected `.`");
    }
}
