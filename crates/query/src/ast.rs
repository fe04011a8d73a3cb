//! Raw (unresolved) abstract syntax produced by the parser.
//!
//! Names are still strings here; [`crate::analyze`] resolves them against a
//! [`sequin_types::TypeRegistry`] to produce an executable [`crate::Query`].
//! Operators and literals are already those of the resolved [`Expr`]
//! ([`BinaryOp`], [`UnaryOp`], [`Value`]): resolving a tree renames
//! nothing but its attribute references.
//!
//! [`Expr`]: crate::Expr

use sequin_types::Value;

use crate::expr::{BinaryOp, UnaryOp};

/// A complete parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAst {
    /// The sequence components, in pattern order.
    pub components: Vec<ComponentAst>,
    /// The `WHERE` clause, if present.
    pub filter: Option<ExprAst>,
    /// The `WITHIN` window in ticks.
    pub within: u64,
    /// The `RETURN` projections, if present.
    pub returns: Vec<ProjectionAst>,
}

/// One `SEQ(...)` component: `TypeName var` with optional leading `!`.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentAst {
    /// Whether the component is negated.
    pub negated: bool,
    /// Event type names (alternation: `A|B var` matches either type).
    pub type_names: Vec<String>,
    /// Variable bound to the matched event.
    pub var: String,
    /// Byte offset of the component in the source (for diagnostics).
    pub offset: usize,
}

/// One `RETURN` item: `var.field`, `var.ts`, or `var.id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionAst {
    /// Variable name.
    pub var: String,
    /// Field name (`ts`/`id` are builtin pseudo-fields).
    pub field: String,
    /// Byte offset for diagnostics.
    pub offset: usize,
}

/// Unresolved expression tree for `WHERE` clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// Literal constant.
    Const(Value),
    /// Attribute reference `var.field` (also `var.ts` / `var.id`).
    Attr {
        /// Variable name.
        var: String,
        /// Field name.
        field: String,
        /// Byte offset for diagnostics.
        offset: usize,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<ExprAst>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<ExprAst>,
        /// Right operand.
        rhs: Box<ExprAst>,
    },
}
