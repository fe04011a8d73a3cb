//! The analyzed, executable query representation.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use sequin_types::{Duration, EventRef, EventTypeId, FieldId, Value};

use crate::expr::{with_binding, BinaryOp, Binding, ComponentMask, Expr, UnaryOp};

/// One resolved `SEQ(...)` component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Variable name from the query text.
    pub var: String,
    /// Resolved event types (more than one = alternation `A|B var`).
    pub types: Vec<EventTypeId>,
    /// Whether the component is negated.
    pub negated: bool,
}

impl Component {
    /// True if an event of `ty` can bind this component.
    pub fn matches_type(&self, ty: EventTypeId) -> bool {
        self.types.contains(&ty)
    }
}

/// A conjunct of the `WHERE` clause, with its referenced-component mask.
#[derive(Debug, Clone)]
pub struct Predicate {
    expr: Expr,
    mask: ComponentMask,
    /// The comparison of two integer terms `expr` is, if it is one;
    /// derived from `expr`, so equality ignores it.
    kernel: Option<Kernel>,
}

impl PartialEq for Predicate {
    fn eq(&self, other: &Predicate) -> bool {
        self.expr == other.expr && self.mask == other.mask
    }
}

impl Predicate {
    pub(crate) fn new(expr: Expr) -> Predicate {
        let mask = expr.components();
        let kernel = Kernel::of(&expr);
        Predicate { expr, mask, kernel }
    }

    /// Whether [`Predicate::eval`] has an integer kernel to try first.
    #[cfg(test)]
    pub(crate) fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// What the kernel alone decides on a fully bound `binding`: `None`
    /// without a kernel, or where [`Expr::eval`] decides instead.
    #[cfg(test)]
    pub(crate) fn kernel_decides(&self, binding: &Binding<'_>) -> Option<bool> {
        self.kernel.as_ref()?.decide(binding)
    }

    /// The underlying expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Full-list component indices referenced by this predicate.
    pub fn mask(&self) -> ComponentMask {
        self.mask
    }

    /// Evaluates the predicate on a fully or partially bound match.
    ///
    /// `Some(true)`/`Some(false)` once all referenced components are bound;
    /// `None` while undecided.
    ///
    /// Whether it is decidable is read off the cached mask, one step per
    /// referenced component. A predicate that compares two integer terms
    /// (`a.x`, an `Int` constant, `a.x ± k`) with `==`, `!=`, `<`, `<=`,
    /// `>` or `>=` is then decided from two `i64` reads; anything else —
    /// and such a predicate whose terms do not both read as `Int` (a
    /// missing field, another kind, an overflowing offset) — walks the
    /// expression once, through [`Expr::eval`]. A fully bound expression
    /// that fails to evaluate (a missing field, `Str < Int`, division by
    /// zero, an overflow) is `Some(false)`.
    pub fn eval(&self, binding: &Binding<'_>) -> Option<bool> {
        let bound = |c: usize| binding.get(c).is_some_and(Option::is_some);
        if !self.mask.iter_ones().all(bound) {
            return None;
        }
        if let Some(holds) = self.kernel.as_ref().and_then(|k| k.decide(binding)) {
            return Some(holds);
        }
        Some(matches!(
            self.expr.eval(binding).as_deref(),
            Some(Value::Bool(true))
        ))
    }

    /// True if the predicate references only `comp` (usable as an
    /// insertion-time pre-filter for that component).
    pub fn is_local_to(&self, comp: usize) -> bool {
        let mut solo = ComponentMask::default();
        solo.insert(comp);
        !self.mask.is_empty() && self.mask.subset_of(solo)
    }
}

/// A comparison of two integer terms, decided from two `i64` reads: the
/// predicate shape construction walks evaluate on every candidate.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    op: BinaryOp,
    lhs: Term,
    rhs: Term,
}

/// One side of a [`Kernel`]: an `Int` constant, or an attribute plus an
/// `Int` offset (`a.x` is `a.x + 0`, `a.x - 3` is `a.x + -3`).
#[derive(Debug, Clone, Copy)]
enum Term {
    Int(i64),
    Attr {
        comp: usize,
        field: FieldId,
        offset: i64,
    },
}

impl Kernel {
    /// The kernel of `expr`, when it compares two integer terms.
    fn of(expr: &Expr) -> Option<Kernel> {
        match expr {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => Some(Kernel {
                op: *op,
                lhs: Term::of(lhs)?,
                rhs: Term::of(rhs)?,
            }),
            _ => None,
        }
    }

    /// Whether the comparison holds, or `None` when a term does not read
    /// as an `Int` — the expression then decides.
    #[inline]
    fn decide(&self, binding: &Binding<'_>) -> Option<bool> {
        let (a, b) = (self.lhs.int(binding)?, self.rhs.int(binding)?);
        Some(self.op.compare(a, b))
    }
}

impl Term {
    fn of(expr: &Expr) -> Option<Term> {
        let attr = |e: &Expr, offset| match *e {
            Expr::Attr { comp, field } => Some(Term::Attr {
                comp,
                field,
                offset,
            }),
            _ => None,
        };
        match expr {
            Expr::Binary {
                op: BinaryOp::Add,
                lhs,
                rhs,
            } => attr(lhs, int_const(rhs)?),
            // `x - k` overflows exactly when `x + -k` does
            Expr::Binary {
                op: BinaryOp::Sub,
                lhs,
                rhs,
            } => attr(lhs, int_const(rhs)?.checked_neg()?),
            _ => attr(expr, 0).or_else(|| int_const(expr).map(Term::Int)),
        }
    }

    /// The term's value, or `None` when its attribute is absent, is not
    /// an `Int`, or overflows with the offset.
    #[inline]
    fn int(&self, binding: &Binding<'_>) -> Option<i64> {
        match *self {
            Term::Int(k) => Some(k),
            Term::Attr {
                comp,
                field,
                offset,
            } => match binding.get(comp).copied().flatten()?.field(field)? {
                Value::Int(v) => v.checked_add(offset),
                _ => None,
            },
        }
    }
}

/// The value of an `Int` constant, written `k` or `-k`.
fn int_const(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::Const(Value::Int(k)) => Some(*k),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match **expr {
            Expr::Const(Value::Int(k)) => k.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

/// A negated component with its flanks and filter predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Negation {
    /// Full-list index of the negated component.
    pub comp: usize,
    /// The negated event types (alternation allowed).
    pub types: Vec<EventTypeId>,
    /// Positive-order index of the left flank (`None` = leading negation).
    pub left: Option<usize>,
    /// Positive-order index of the right flank (`None` = trailing negation).
    pub right: Option<usize>,
    /// Predicates referencing this negated component (and positives).
    pub predicates: Vec<Predicate>,
}

impl Negation {
    /// True if an event of `ty` is a candidate negative for this negation.
    pub fn matches_type(&self, ty: EventTypeId) -> bool {
        self.types.contains(&ty)
    }
}

/// Hash-partitioning opportunity discovered by analysis: an equality-join
/// chain covering every positive component (e.g. `a.tag == b.tag AND
/// b.tag == c.tag`). Engines may shard all operator state by this key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionScheme {
    /// For each positive slot (positive order), the field acting as key.
    pub fields: Vec<FieldId>,
    /// For each negation (in [`Query::negations`] order), the key field on
    /// the negated type, when the chain extends to it.
    pub negation_fields: Vec<Option<FieldId>>,
}

/// An analyzed sequence pattern query (see crate docs for semantics).
///
/// The structure is immutable and shareable; engines hold it by `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    components: Vec<Component>,
    positives: Vec<usize>,
    window: Duration,
    predicates: Vec<Predicate>,
    negations: Vec<Negation>,
    projections: Vec<Expr>,
    partition: Option<PartitionScheme>,
}

impl Query {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        components: Vec<Component>,
        positives: Vec<usize>,
        window: Duration,
        predicates: Vec<Predicate>,
        negations: Vec<Negation>,
        projections: Vec<Expr>,
        partition: Option<PartitionScheme>,
    ) -> Arc<Query> {
        Arc::new(Query {
            components,
            positives,
            window,
            predicates,
            negations,
            projections,
            partition,
        })
    }

    /// All components in `SEQ` order (positive and negated).
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of positive components (the length of a match).
    pub fn positive_len(&self) -> usize {
        self.positives.len()
    }

    /// Full-list index of the positive component at positive-order `p`.
    pub fn positive_comp(&self, p: usize) -> usize {
        self.positives[p]
    }

    /// Event types accepted by the positive component at positive-order
    /// `p` (more than one under alternation).
    pub fn positive_types(&self, p: usize) -> &[EventTypeId] {
        &self.components[self.positives[p]].types
    }

    /// The query window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Positive-component predicates (`WHERE` conjuncts not referencing any
    /// negated component).
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The negated components, in `SEQ` order.
    pub fn negations(&self) -> &[Negation] {
        &self.negations
    }

    /// `RETURN` projections, each an attribute reference (`Attr`, `Ts` or
    /// `Id`) resolved as the `WHERE` clause's are; empty = return the
    /// event ids of the positives.
    pub fn projections(&self) -> &[Expr] {
        &self.projections
    }

    /// The partitioning opportunity, if analysis found one.
    pub fn partition(&self) -> Option<&PartitionScheme> {
        self.partition.as_ref()
    }

    /// True when any component is negated.
    pub fn has_negation(&self) -> bool {
        !self.negations.is_empty()
    }

    /// Event types the query is sensitive to (positive or negated).
    pub fn relevant_types(&self) -> Vec<EventTypeId> {
        let mut tys: Vec<EventTypeId> = self
            .components
            .iter()
            .flat_map(|c| c.types.iter().copied())
            .collect();
        tys.sort();
        tys.dedup();
        tys
    }

    /// Positive-order slots that accept events of type `ty` (an event of
    /// type `ty` is a candidate for each of these stacks).
    pub fn slots_for_type(&self, ty: EventTypeId) -> Vec<usize> {
        (0..self.positive_len())
            .filter(|&p| self.components[self.positives[p]].matches_type(ty))
            .collect()
    }

    /// Predicates local to positive slot `p` — evaluable at insertion time
    /// (the sequence-scan pre-filter optimization).
    pub fn local_predicates(&self, p: usize) -> Vec<&Predicate> {
        let comp = self.positives[p];
        self.predicates
            .iter()
            .filter(|q| q.is_local_to(comp))
            .collect()
    }

    /// Predicates that reference more than one component (must be evaluated
    /// during construction).
    pub fn join_predicates(&self) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|q| q.mask().iter_ones().count() > 1)
            .collect()
    }

    /// Evaluates the projections over a full positive binding, returning
    /// the output tuple. With no `RETURN` clause, returns the event ids of
    /// the positive components.
    pub fn project(&self, binding: &Binding<'_>) -> Vec<Value> {
        if self.projections.is_empty() {
            return self
                .positives
                .iter()
                .filter_map(|&c| binding.get(c).copied().flatten())
                .map(|e| Value::Int(e.id().get() as i64))
                .collect();
        }
        self.projections
            .iter()
            .map(|p| {
                let value = p.eval(binding).map(Cow::into_owned);
                value.unwrap_or(Value::Bool(false))
            })
            .collect()
    }

    /// Structural equality modulo variable spelling: two queries are
    /// normalized-equal when they resolve to the same components (types
    /// and negation flags), window, predicates, negations, projections,
    /// and partitioning — regardless of what the variables were named.
    /// Predicates reference components by index, not by name, so this is
    /// exactly "the same executable plan". Multi-query registration uses
    /// it to share one logical query between textually different
    /// subscriptions.
    pub fn normalized_eq(&self, other: &Query) -> bool {
        self.window == other.window
            && self.positives == other.positives
            && self.components.len() == other.components.len()
            && self
                .components
                .iter()
                .zip(&other.components)
                .all(|(a, b)| a.types == b.types && a.negated == b.negated)
            && self.predicates == other.predicates
            && self.negations == other.negations
            && self.projections == other.projections
            && self.partition == other.partition
    }

    /// Builds a full-component binding from positive-order events, for use
    /// with [`Query::project`] and predicate evaluation.
    pub fn binding_from_positives<'a>(&self, events: &'a [EventRef]) -> Vec<Option<&'a EventRef>> {
        let mut binding: Vec<Option<&EventRef>> = vec![None; self.components.len()];
        for (p, ev) in events.iter().enumerate() {
            binding[self.positives[p]] = Some(ev);
        }
        binding
    }

    /// Runs `f` over the full-component binding of positive-order `events`
    /// — [`Query::binding_from_positives`] on the stack (see
    /// [`with_binding`]), for the paths that build one per match or per
    /// candidate; `f` may bind further slots (a negated component).
    pub fn with_positives<'a, R>(
        &self,
        events: &'a [EventRef],
        f: impl FnOnce(&mut Binding<'a>) -> R,
    ) -> R {
        with_binding(self.components.len(), |binding| {
            for (&comp, ev) in self.positives.iter().zip(events) {
                binding[comp] = Some(ev);
            }
            f(binding)
        })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SEQ(")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if c.negated {
                write!(f, "!")?;
            }
            for (j, ty) in c.types.iter().enumerate() {
                if j > 0 {
                    write!(f, "|")?;
                }
                write!(f, "{ty}")?;
            }
            write!(f, " {}", c.var)?;
        }
        write!(f, ") WITHIN {}", self.window)
    }
}
