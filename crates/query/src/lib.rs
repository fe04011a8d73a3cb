//! # sequin-query
//!
//! The sequence pattern query language of `sequin`, modeled on the SASE
//! event language used by Li et al. (ICDCS Workshops 2007). A query names a
//! sequence of event types (optionally negated), correlation/filter
//! predicates, a time window, and a projection:
//!
//! ```text
//! PATTERN SEQ(SHIPPED s, !CHECKED c, COUNTERFEIT x)
//! WHERE   s.tag == x.tag AND x.weight > 10
//! WITHIN  100
//! RETURN  s.tag, x.weight
//! ```
//!
//! Semantics (over *occurrence timestamps*, independent of arrival order):
//!
//! * the positive components must match distinct events with **strictly
//!   increasing timestamps**;
//! * the match **span** (last positive ts − first positive ts) is at most
//!   the window;
//! * all predicates over positive components hold;
//! * for each negated component there is **no** event of its type
//!   satisfying its predicates inside its *negation region*: strictly
//!   between the flanking positives, or — for a leading (resp. trailing)
//!   negation — in `(first.ts − W, first.ts)` (resp. `(last.ts,
//!   first.ts + W)`).
//!
//! The crate's one front end is the text parser: [`parse`] reads the text
//! into an [`ast::QueryAst`], and [`analyze`] resolves that against a
//! registry into the [`Query`] `sequin-runtime` consumes.
//!
//! ```
//! use sequin_query::parse;
//! use sequin_types::{TypeRegistry, ValueKind};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = TypeRegistry::new();
//! reg.declare("A", &[("x", ValueKind::Int)])?;
//! reg.declare("B", &[("x", ValueKind::Int)])?;
//! let q = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 50", &reg)?;
//! assert_eq!(q.positive_len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
pub mod ast;
mod error;
#[cfg(test)]
mod eval_property;
mod expr;
mod lexer;
mod parser;
mod query;

pub use analyze::analyze;
pub use error::{AnalyzeError, AnalyzeErrorKind, ParseError, QueryError};
pub use expr::{with_binding, BinaryOp, Binding, Expr, UnaryOp};
pub use query::{Component, Negation, PartitionScheme, Predicate, Query};

use sequin_types::TypeRegistry;

/// Parses and analyzes a query text against `registry`.
///
/// # Errors
///
/// Returns [`QueryError::Parse`] on malformed syntax and
/// [`QueryError::Analyze`] when names or types do not resolve.
pub fn parse(text: &str, registry: &TypeRegistry) -> Result<std::sync::Arc<Query>, QueryError> {
    let ast = parser::parse_text(text)?;
    Ok(analyze(&ast, registry)?)
}
