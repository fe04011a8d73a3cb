//! The naive reference oracle.
//!
//! Implements the SEQ semantics *directly from the definition*: enumerate
//! every assignment of distinct events to the positive components
//! (strictly increasing occurrence timestamps), then check the window,
//! the `WHERE` predicates, and every negation region against the complete
//! sorted event history. `O(n^k)` in pattern length `k` — obviously
//! correct, no stacks, no watermarks, no purge. Any disagreement with a
//! production engine is a real bug in one of the two.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use sequin_query::{BinaryOp, Binding, Expr, Predicate, Query, UnaryOp};
use sequin_runtime::{regions, Region};
use sequin_types::{EventRef, Value};

/// A match identity: event ids in positive-component order.
pub type MatchIds = Vec<u64>;

/// Enumerates the exact match set of `query` over `events` (which must be
/// duplicate-free; order does not matter). Exponential in pattern length —
/// keep inputs small.
pub fn reference_matches(query: &Query, events: &[EventRef]) -> BTreeSet<MatchIds> {
    let m = query.positive_len();
    let mut out = BTreeSet::new();
    let mut chosen: Vec<Option<EventRef>> = vec![None; m];
    recurse(query, events, 0, &mut chosen, &mut out);
    out
}

fn recurse(
    query: &Query,
    events: &[EventRef],
    slot: usize,
    chosen: &mut Vec<Option<EventRef>>,
    out: &mut BTreeSet<MatchIds>,
) {
    let m = query.positive_len();
    if slot == m {
        let bound: Vec<EventRef> = chosen
            .iter()
            .map(|c| Arc::clone(c.as_ref().expect("full assignment")))
            .collect();
        if accepts(query, &bound, events) {
            out.insert(bound.iter().map(|e| e.id().get()).collect());
        }
        return;
    }
    let want = query.positive_types(slot);
    for ev in events {
        if !want.contains(&ev.event_type()) {
            continue;
        }
        if let Some(prev) = chosen[..slot].iter().rev().flatten().next() {
            if ev.ts() <= prev.ts() {
                continue;
            }
        }
        chosen[slot] = Some(Arc::clone(ev));
        recurse(query, events, slot + 1, chosen, out);
        chosen[slot] = None;
    }
}

/// Checks window, predicates, and negation against the complete history.
fn accepts(query: &Query, bound: &[EventRef], events: &[EventRef]) -> bool {
    let first = bound.first().expect("nonempty").ts();
    let last = bound.last().expect("nonempty").ts();
    if last - first > query.window() {
        return false;
    }
    let binding = query.binding_from_positives(bound);
    if !query
        .predicates()
        .iter()
        .all(|p| reference_holds(p, &binding) == Some(true))
    {
        return false;
    }
    let regions: Vec<Region> = regions(query, bound);
    for (ix, neg) in query.negations().iter().enumerate() {
        let region = regions[ix];
        if region.is_empty() {
            continue;
        }
        for candidate in events {
            if !neg.matches_type(candidate.event_type())
                || candidate.ts() < region.start
                || candidate.ts() >= region.end
            {
                continue;
            }
            let mut b = query.binding_from_positives(bound);
            b[neg.comp] = Some(candidate);
            if neg
                .predicates
                .iter()
                .all(|p| reference_holds(p, &b) == Some(true))
            {
                return false;
            }
        }
    }
    true
}

/// The reference evaluator: the engines' expression semantics written the
/// plain way — recurse, clone every operand, rediscover the referenced
/// components from the tree — and sharing no code with the evaluator under
/// test (`Predicate::eval`), so a bug there shows up as a disagreement
/// with this oracle instead of moving both.
fn reference_eval(expr: &Expr, binding: &Binding<'_>) -> Option<Value> {
    let bound = |comp: &usize| binding.get(*comp).copied().flatten();
    match expr {
        Expr::Const(v) => Some(v.clone()),
        Expr::Attr { comp, field } => bound(comp)?.field(*field).cloned(),
        Expr::Ts(comp) => i64::try_from(bound(comp)?.ts().ticks())
            .ok()
            .map(Value::Int),
        Expr::Id(comp) => i64::try_from(bound(comp)?.id().get()).ok().map(Value::Int),
        Expr::Unary { op, expr } => match (op, reference_eval(expr, binding)?) {
            (UnaryOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
            (UnaryOp::Neg, Value::Int(i)) => i.checked_neg().map(Value::Int),
            (UnaryOp::Neg, Value::Float(x)) => Some(Value::Float(-x)),
            _ => None,
        },
        Expr::Binary { op, lhs, rhs } => {
            let a = reference_eval(lhs, binding)?;
            let b = reference_eval(rhs, binding)?;
            let ordered = |holds: fn(Ordering) -> bool| a.compare(&b).map(holds).map(Value::Bool);
            match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Div => a.div(&b),
                BinaryOp::Eq => Some(Value::Bool(a.loose_eq(&b))),
                BinaryOp::Ne => Some(Value::Bool(match a.compare(&b) {
                    Some(ord) => ord != Ordering::Equal,
                    None => a.kind() != b.kind() || a != b,
                })),
                BinaryOp::Lt => ordered(|o| o == Ordering::Less),
                BinaryOp::Le => ordered(|o| o != Ordering::Greater),
                BinaryOp::Gt => ordered(|o| o == Ordering::Greater),
                BinaryOp::Ge => ordered(|o| o != Ordering::Less),
                BinaryOp::And => Some(Value::Bool(a.as_bool()? && b.as_bool()?)),
                BinaryOp::Or => Some(Value::Bool(a.as_bool()? || b.as_bool()?)),
            }
        }
    }
}

/// `Some(holds)` once every component `pred` references is bound, a
/// fully bound predicate that fails to evaluate being `Some(false)`;
/// `None` while one is not.
fn reference_holds(pred: &Predicate, binding: &Binding<'_>) -> Option<bool> {
    let referenced = pred.expr().components();
    let unbound =
        |c: &usize| referenced.contains(*c) && binding.get(*c).copied().flatten().is_none();
    if (0..64).any(|c| unbound(&c)) {
        return None;
    }
    let value = reference_eval(pred.expr(), binding);
    Some(matches!(value, Some(Value::Bool(true))))
}
