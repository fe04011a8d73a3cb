//! Shared test helpers: an independent brute-force reference oracle and
//! small stream builders.
//!
//! The oracle implements the query semantics *directly from the
//! definition* (enumerate all positive assignments, check order, window,
//! predicates, and negation regions against the full history) and shares
//! no code with the engines' stacks/DFS — disagreement means a real bug.

#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use sequin::engine::{EngineConfig, MultiEngine, OutputItem, QueryId};
use sequin::query::{BinaryOp, Binding, Expr, Predicate, Query, UnaryOp};
use sequin::runtime::{regions, Region};
use sequin::types::{Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, Value};

/// A match identity: event ids in positive order.
pub type Key = Vec<u64>;

/// Enumerates the exact match set of `query` over `events` by brute
/// force. Exponential in pattern length — keep inputs small.
pub fn reference_matches(query: &Query, events: &[EventRef]) -> BTreeSet<Key> {
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
    out: &mut BTreeSet<Key>,
) {
    let m = query.positive_len();
    if slot == m {
        let bound: Vec<EventRef> = chosen
            .iter()
            .map(|c| Arc::clone(c.as_ref().expect("full")))
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

/// Net inserted match keys from an output stream.
pub fn net_keys(outputs: &[OutputItem]) -> BTreeSet<Key> {
    sequin::metrics::net_inserts(outputs)
        .into_iter()
        .map(|k| k.event_ids().iter().map(|id| id.get()).collect())
        .collect()
}

/// Feeds `items` through `engine` (then finishes), returning all outputs.
#[allow(unused_imports)] // not every test binary drives an engine
pub use sequin_bench::run_to_end as drive;

/// Builds an event with integer attributes `attrs` for `ty`.
pub fn ev(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, attrs: &[i64]) -> EventRef {
    let mut b = Event::builder(reg.lookup(ty).expect("declared type"), Timestamp::new(ts))
        .id(EventId::new(id));
    for &a in attrs {
        b = b.attr(Value::Int(a));
    }
    Arc::new(b.build())
}

/// Wraps events as an arrival stream in the given order.
pub fn stream_of(events: &[EventRef]) -> Vec<StreamItem> {
    events.iter().cloned().map(StreamItem::Event).collect()
}

/// A plan of one under `config` — what a `sequin::engine::Checkpointer`
/// wraps.
pub fn host_of(query: &Arc<Query>, config: EngineConfig) -> MultiEngine {
    let mut host = MultiEngine::new(config);
    host.register(Arc::clone(query), config.policy);
    host
}

/// A one-query host's outputs without their query tags.
pub fn untag(out: Vec<(QueryId, OutputItem)>) -> impl Iterator<Item = OutputItem> {
    out.into_iter().map(|(_, o)| o)
}

/// Over the 16-type synthetic schema: 64 prefix siblings `SEQ(T0 a, T1 b,
/// T{2..15} c)` banded on `c.x`, one more whose predicate spans from its
/// prefix into its final slot (the same group, with a bind check), a query
/// with two slots of one type and one with a multi-type slot — every shape
/// whose counters a shared plan node owes its readers.
pub fn banded_family() -> Vec<String> {
    let mut texts: Vec<String> = (0..64)
        .map(|i| {
            let (ty, band) = (2 + i % 14, (i / 14) * 20);
            format!(
                "PATTERN SEQ(T0 a, T1 b, T{ty} c) WHERE c.x >= {band} AND c.x < {} WITHIN 100",
                band + 20
            )
        })
        .collect();
    texts.push("PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.x < c.x WITHIN 100".into());
    texts.push("PATTERN SEQ(T3 a, T3 b, T4 c) WHERE b.x > 20 WITHIN 100".into());
    texts.push("PATTERN SEQ(T5|T6 a, T6 b) WITHIN 100".into());
    texts
}
