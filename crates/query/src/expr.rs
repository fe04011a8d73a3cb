//! Compiled (name-resolved) expressions and their evaluation.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use sequin_types::{EventRef, FieldId, Value};

use crate::lexer::{spelling, TokenKind};

/// A partial assignment of events to query components, indexed by the
/// component's position in the full `SEQ(...)` list.
///
/// Construction in the runtime proceeds incrementally, so most evaluations
/// happen against bindings where only a subset of slots are filled; an
/// expression referencing an unbound slot evaluates to `None` (and the
/// enclosing predicate is treated as *not yet decidable*).
pub type Binding<'a> = [Option<&'a EventRef>];

/// Runs `f` over an all-unbound binding of `components` slots. The slots
/// live on the stack for the common short pattern, so a walk or a
/// pre-filter that needs a binding allocates nothing for it.
pub fn with_binding<'a, R>(components: usize, f: impl FnOnce(&mut Binding<'a>) -> R) -> R {
    const INLINE: usize = 8;
    if components <= INLINE {
        f(&mut [None; INLINE][..components])
    } else {
        f(&mut vec![None; components])
    }
}

/// Unary operators of the compiled expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators of the compiled expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality (with numeric coercion).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical conjunction (non-short-circuiting over `None`).
    And,
    /// Logical disjunction.
    Or,
}

impl BinaryOp {
    /// Whether the operator compares two values (`== != < <= > >=`).
    pub fn is_comparison(self) -> bool {
        use BinaryOp::{Eq, Ge, Gt, Le, Lt, Ne};
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge)
    }

    /// The comparison that reads `c op x` as `x op' c`; any other
    /// operator is its own mirror.
    pub fn mirrored(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            other => other,
        }
    }

    /// Whether `a op b` holds for a comparison `op` (any other operator
    /// reads as `>=`): over two `i64`s, or over an [`Ordering`] against
    /// `Ordering::Equal`. Its `==` is plain equality, not the loose
    /// equality [`Expr::eval`] gives `Eq` and `Ne`.
    #[inline]
    pub fn compare<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            BinaryOp::Eq => a == b,
            BinaryOp::Ne => a != b,
            BinaryOp::Lt => a < b,
            BinaryOp::Le => a <= b,
            BinaryOp::Gt => a > b,
            _ => a >= b,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(spelling(&TokenKind::Op(*self)))
    }
}

/// A name-resolved expression over a [`Binding`].
///
/// `Ts`/`Id` expose an event's occurrence timestamp and identifier as
/// integers (the pseudo-fields `var.ts` / `var.id` in query text).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Const(Value),
    /// Attribute of the event bound to component `comp`.
    Attr {
        /// Full-list component index.
        comp: usize,
        /// Resolved field.
        field: FieldId,
    },
    /// Occurrence timestamp of component `comp`, as `Int`.
    Ts(usize),
    /// Event id of component `comp`, as `Int`.
    Id(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Evaluates against a (possibly partial) binding — the one evaluation
    /// routine of the product crates: [`crate::Predicate::eval`] and
    /// [`crate::Query::project`] both end here.
    ///
    /// Operands are borrowed: an `Attr` leaf is the event's own value and a
    /// `Const` leaf the expression's, so a comparison of two attributes
    /// touches no reference count; only arithmetic, `Ts`/`Id` and the
    /// boolean results produce an owned (scalar) value.
    ///
    /// Returns `None` when a referenced component is unbound, a referenced
    /// field is absent, or an operation is undefined for its operand kinds
    /// (e.g. `"a" + 1`, division by integer zero, comparing `Str` with
    /// `Int`). Predicates treat `None` as *failed* at final evaluation time
    /// and as *undecided* during incremental evaluation.
    pub fn eval<'a>(&'a self, binding: &Binding<'a>) -> Option<Cow<'a, Value>> {
        let owned = |v: Value| Some(Cow::Owned(v));
        match self {
            Expr::Const(_) | Expr::Attr { .. } | Expr::Ts(_) | Expr::Id(_) => self.operand(binding),
            Expr::Unary { op, expr } => {
                let v = expr.operand(binding)?;
                match (op, &*v) {
                    (UnaryOp::Not, Value::Bool(b)) => owned(Value::Bool(!b)),
                    (UnaryOp::Neg, Value::Int(i)) => owned(Value::Int(i.checked_neg()?)),
                    (UnaryOp::Neg, Value::Float(x)) => owned(Value::Float(-x)),
                    _ => None,
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // both sides are evaluated before the operator looks at
                // either: a failing side fails an `AND`/`OR` whatever the
                // other holds
                let a = lhs.operand(binding)?;
                let b = rhs.operand(binding)?;
                let (a, b): (&Value, &Value) = (&a, &b);
                let holds = match op {
                    BinaryOp::Add => return a.add(b).map(Cow::Owned),
                    BinaryOp::Sub => return a.sub(b).map(Cow::Owned),
                    BinaryOp::Mul => return a.mul(b).map(Cow::Owned),
                    BinaryOp::Div => return a.div(b).map(Cow::Owned),
                    BinaryOp::Eq => a.loose_eq(b),
                    // "comparable but unequal" or, when incomparable,
                    // structurally different (so NaN != NaN holds)
                    BinaryOp::Ne => match a.compare(b) {
                        Some(ord) => ord != Ordering::Equal,
                        None => a != b,
                    },
                    BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                        op.compare(a.compare(b)?, Ordering::Equal)
                    }
                    // the right side's kind is only looked at when the
                    // left does not already decide
                    BinaryOp::And => a.as_bool()? && b.as_bool()?,
                    BinaryOp::Or => a.as_bool()? || b.as_bool()?,
                };
                owned(Value::Bool(holds))
            }
        }
    }

    /// [`Expr::eval`] as an operator sees its operand: a leaf — what most
    /// operands are — is resolved where it stands, so it costs the reads
    /// it makes and not a call; anything deeper recurses.
    #[inline(always)]
    fn operand<'a>(&'a self, binding: &Binding<'a>) -> Option<Cow<'a, Value>> {
        let bound = |comp: usize| binding.get(comp).copied().flatten();
        let int = |n: u64| Some(Cow::Owned(Value::Int(i64::try_from(n).ok()?)));
        match self {
            Expr::Const(v) => Some(Cow::Borrowed(v)),
            Expr::Attr { comp, field } => bound(*comp)?.field(*field).map(Cow::Borrowed),
            Expr::Ts(comp) => int(bound(*comp)?.ts().ticks()),
            Expr::Id(comp) => int(bound(*comp)?.id().get()),
            Expr::Unary { .. } | Expr::Binary { .. } => self.eval(binding),
        }
    }

    /// Returns the set of component indices this expression references,
    /// as a bitmask (queries are limited to 64 components).
    pub fn components(&self) -> ComponentMask {
        let mut mask = ComponentMask::default();
        self.collect_components(&mut mask);
        mask
    }

    fn collect_components(&self, mask: &mut ComponentMask) {
        match self {
            Expr::Const(_) => {}
            Expr::Attr { comp, .. } | Expr::Ts(comp) | Expr::Id(comp) => mask.insert(*comp),
            Expr::Unary { expr, .. } => expr.collect_components(mask),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_components(mask);
                rhs.collect_components(mask);
            }
        }
    }
}

/// A set of component indices, packed into a `u64` bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ComponentMask(u64);

impl ComponentMask {
    /// The maximum number of components a query may have.
    pub const CAPACITY: usize = 64;

    /// Inserts a component index.
    ///
    /// # Panics
    ///
    /// Panics if `ix >= 64` (enforced earlier by analysis).
    pub fn insert(&mut self, ix: usize) {
        assert!(ix < Self::CAPACITY, "component index out of range");
        self.0 |= 1 << ix;
    }

    /// Tests membership.
    pub fn contains(&self, ix: usize) -> bool {
        ix < Self::CAPACITY && self.0 & (1 << ix) != 0
    }

    /// Returns whether `self` is a subset of `other`.
    pub fn subset_of(&self, other: ComponentMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates set indices in ascending order, one step per set bit.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let ix = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(ix)
        })
    }

    /// Largest set index, if any.
    pub fn max(&self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(Self::CAPACITY - 1 - self.0.leading_zeros() as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;
    use sequin_types::{Event, EventId, EventTypeId, Timestamp, TypeRegistry, ValueKind};
    use std::sync::Arc;

    fn setup() -> (TypeRegistry, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg
            .declare("A", &[("x", ValueKind::Int), ("s", ValueKind::Str)])
            .unwrap();
        (reg, a)
    }

    fn ev(ty: EventTypeId, ts: u64, x: i64) -> EventRef {
        Arc::new(
            Event::builder(ty, Timestamp::new(ts))
                .id(EventId::new(ts))
                .attr(Value::Int(x))
                .attr(Value::str("tag"))
                .build(),
        )
    }

    fn attr(comp: usize, ix: usize) -> Expr {
        Expr::Attr {
            comp,
            field: FieldId::from_index(ix),
        }
    }

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn attr_lookup_and_arith() {
        let (_, a) = setup();
        let e = ev(a, 5, 10);
        let binding = [Some(&e)];
        let expr = bin(BinaryOp::Add, attr(0, 0), Expr::Const(Value::Int(1)));
        assert_eq!(expr.eval(&binding).as_deref(), Some(&Value::Int(11)));
    }

    #[test]
    fn unbound_component_yields_none() {
        let expr = attr(0, 0);
        let binding: [Option<&EventRef>; 1] = [None];
        assert_eq!(expr.eval(&binding), None);
        assert_eq!(Predicate::new(expr).eval(&binding), None);
    }

    #[test]
    fn ts_and_id_pseudo_fields() {
        let (_, a) = setup();
        let e = ev(a, 42, 0);
        let binding = [Some(&e)];
        assert_eq!(Expr::Ts(0).eval(&binding).as_deref(), Some(&Value::Int(42)));
        assert_eq!(Expr::Id(0).eval(&binding).as_deref(), Some(&Value::Int(42)));
    }

    #[test]
    fn comparisons() {
        let (_, a) = setup();
        let e1 = ev(a, 1, 5);
        let e2 = ev(a, 2, 9);
        let binding = [Some(&e1), Some(&e2)];
        let lt = bin(BinaryOp::Lt, attr(0, 0), attr(1, 0));
        assert_eq!(Predicate::new(lt).eval(&binding), Some(true));
        let ge = bin(BinaryOp::Ge, attr(0, 0), attr(1, 0));
        assert_eq!(Predicate::new(ge).eval(&binding), Some(false));
    }

    #[test]
    fn cross_kind_eq_is_false_not_error() {
        let (_, a) = setup();
        let e = ev(a, 1, 5);
        let binding = [Some(&e)];
        let eq = bin(BinaryOp::Eq, attr(0, 1), Expr::Const(Value::Int(1)));
        assert_eq!(Predicate::new(eq).eval(&binding), Some(false));
        let ne = bin(BinaryOp::Ne, attr(0, 1), Expr::Const(Value::Int(1)));
        assert_eq!(Predicate::new(ne).eval(&binding), Some(true));
    }

    #[test]
    fn cross_kind_ordering_fails_predicate() {
        let (_, a) = setup();
        let e = ev(a, 1, 5);
        let binding = [Some(&e)];
        let lt = bin(BinaryOp::Lt, attr(0, 1), Expr::Const(Value::Int(1)));
        // fully bound but not evaluable -> failed, not undecided
        assert_eq!(Predicate::new(lt).eval(&binding), Some(false));
    }

    #[test]
    fn logic_ops() {
        let t = Expr::Const(Value::Bool(true));
        let f = Expr::Const(Value::Bool(false));
        let binding: [Option<&EventRef>; 0] = [];
        assert_eq!(
            bin(BinaryOp::And, t.clone(), f.clone())
                .eval(&binding)
                .as_deref(),
            Some(&Value::Bool(false))
        );
        assert_eq!(
            bin(BinaryOp::Or, t.clone(), f.clone())
                .eval(&binding)
                .as_deref(),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(f)
            }
            .eval(&binding)
            .as_deref(),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn neg_overflow_yields_none() {
        let binding: [Option<&EventRef>; 0] = [];
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Const(Value::Int(i64::MIN))),
        };
        assert_eq!(e.eval(&binding), None);
    }

    #[test]
    fn component_mask_collects_refs() {
        let expr = bin(
            BinaryOp::Add,
            attr(0, 0),
            bin(BinaryOp::Mul, attr(3, 0), Expr::Ts(2)),
        );
        let mask = expr.components();
        assert!(mask.contains(0));
        assert!(!mask.contains(1));
        assert!(mask.contains(2));
        assert!(mask.contains(3));
        assert_eq!(mask.max(), Some(3));
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn mask_subset() {
        let mut a = ComponentMask::default();
        a.insert(1);
        let mut b = ComponentMask::default();
        b.insert(1);
        b.insert(2);
        assert!(a.subset_of(b));
        assert!(!b.subset_of(a));
        assert!(ComponentMask::default().is_empty());
        assert_eq!(ComponentMask::default().max(), None);
    }
}
