//! Property test of the evaluator: over random expression trees and
//! random partial bindings, [`Predicate::eval`] and [`Expr::eval`] agree
//! with a reference evaluator that shares no code with them.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use sequin_prng::Rng;
use sequin_types::{
    Event, EventId, EventRef, EventTypeId, FieldId, Timestamp, TypeRegistry, Value, ValueKind,
};

use crate::{BinaryOp, Binding, Expr, Predicate, UnaryOp};

/// The reference evaluator: the expression semantics written the plain
/// way — recurse, clone every operand, rediscover the referenced
/// components from the tree — as `Expr::eval` was before it borrowed its
/// operands. The oracle in `sequin-sim` (`crates/sim/src/oracle.rs`)
/// carries the same text, so what is proved equal here is what it judges
/// the engines by.
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

const COMPONENTS: usize = 4;

const UNARY: [UnaryOp; 2] = [UnaryOp::Not, UnaryOp::Neg];
const BINARY: [BinaryOp; 12] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
];

/// A value of any of the four kinds, drawn from the corners first:
/// overflowing integers, zero divisors, NaN and the infinities.
fn value(rng: &mut Rng) -> Value {
    const INTS: [i64; 7] = [0, 1, -1, 2, 7, i64::MAX, i64::MIN];
    const FLOATS: [f64; 7] = [0.0, -0.0, 1.0, 2.5, f64::NAN, f64::INFINITY, -1e300];
    match rng.gen_range(0..4) {
        0 => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
        1 => Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        2 => Value::str(["", "a", "b", "1"][rng.gen_range(0..4usize)]),
        _ => Value::Bool(rng.gen_bool(0.5)),
    }
}

/// An event of two to four attributes of random kinds (field 3 is often
/// absent, field 4 always), with an id or a timestamp beyond `i64` now
/// and then.
fn event(rng: &mut Rng) -> EventRef {
    let wide = |rng: &mut Rng| match rng.gen_range(0..8) {
        0 => u64::MAX,
        _ => rng.gen_range(0..1000u64),
    };
    let (ts, id) = (wide(rng), wide(rng));
    let attrs: Vec<Value> = (0..rng.gen_range(2..=4)).map(|_| value(rng)).collect();
    let builder = Event::builder(EventTypeId::from_index(0), Timestamp::new(ts));
    Arc::new(builder.id(EventId::new(id)).attrs(attrs).build())
}

fn expr(rng: &mut Rng, depth: usize) -> Expr {
    let comp = rng.gen_range(0..COMPONENTS);
    let leaf = depth == 0 || rng.gen_bool(0.3);
    match rng.gen_range(0..if leaf { 4 } else { 8 }) {
        0 => Expr::Const(value(rng)),
        1 => Expr::Attr {
            comp,
            field: FieldId::from_index(rng.gen_range(0..5usize)),
        },
        2 => Expr::Ts(comp),
        3 => Expr::Id(comp),
        4 => Expr::Unary {
            op: UNARY[rng.gen_range(0..UNARY.len())],
            expr: Box::new(expr(rng, depth - 1)),
        },
        _ => Expr::Binary {
            op: BINARY[rng.gen_range(0..BINARY.len())],
            lhs: Box::new(expr(rng, depth - 1)),
            rhs: Box::new(expr(rng, depth - 1)),
        },
    }
}

/// Equality that tells a NaN from a number but not from itself.
fn same(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn eval_agrees_with_the_reference_on_random_trees_and_partial_bindings() {
    let (mut decided, mut undecided, mut held, mut failed_to_evaluate) = (0, 0, 0, 0);
    for seed in [1, 2, 3, 0x5e9_0175] {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..20_000 {
            let e = expr(&mut rng, 4);
            let events: Vec<EventRef> = (0..COMPONENTS).map(|_| event(&mut rng)).collect();
            // every third binding is full, so deep trees get decided too
            let full = case % 3 == 0;
            let binding: Vec<Option<&EventRef>> = events
                .iter()
                .map(|ev| (full || rng.gen_bool(0.7)).then_some(ev))
                .collect();
            let ctx = format!("seed {seed} case {case}: {e:?} over {binding:?}");

            let value = e.eval(&binding).map(Cow::into_owned);
            let want_value = reference_eval(&e, &binding);
            assert!(
                same(&value, &want_value),
                "{ctx}: {value:?} != {want_value:?}"
            );

            let pred = Predicate::new(e);
            let (got, want) = (pred.eval(&binding), reference_holds(&pred, &binding));
            assert_eq!(got, want, "{ctx}");
            match got {
                None => undecided += 1,
                Some(holds) => {
                    decided += 1;
                    held += u32::from(holds);
                    failed_to_evaluate += u32::from(want_value.is_none());
                }
            }
        }
    }
    // the generator reaches every outcome, not one corner of it
    assert!(
        undecided > 5_000 && decided > 20_000,
        "{undecided} / {decided}"
    );
    assert!(
        held > 1_000 && failed_to_evaluate > 5_000,
        "{held} / {failed_to_evaluate}"
    );
}

const COMPARISONS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

/// An `Int` constant from the corners an offset overflows at, written
/// `-k` now and then, as the parser reads a negative literal.
fn int_const(rng: &mut Rng) -> Expr {
    const CORNERS: [i64; 7] = [0, 1, -1, 2, 3, i64::MAX, i64::MIN];
    let k = CORNERS[rng.gen_range(0..CORNERS.len())];
    if rng.gen_bool(0.2) {
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Const(Value::Int(k))),
        }
    } else {
        Expr::Const(Value::Int(k))
    }
}

/// A comparison of the shape [`Predicate`]'s integer kernel takes: two
/// terms, each an attribute, an `Int` constant, or an attribute `±` an
/// `Int` constant.
fn kernel_shaped(rng: &mut Rng) -> Expr {
    let term = |rng: &mut Rng| {
        let attr = Expr::Attr {
            comp: rng.gen_range(0..COMPONENTS),
            field: FieldId::from_index(rng.gen_range(0..5usize)),
        };
        let op = match rng.gen_range(0..4) {
            0 => return int_const(rng),
            1 => return attr,
            2 => BinaryOp::Add,
            _ => BinaryOp::Sub,
        };
        Expr::Binary {
            op,
            lhs: Box::new(attr),
            rhs: Box::new(int_const(rng)),
        }
    };
    Expr::Binary {
        op: COMPARISONS[rng.gen_range(0..COMPARISONS.len())],
        lhs: Box::new(term(rng)),
        rhs: Box::new(term(rng)),
    }
}

/// An event whose attributes are mostly integers at the corners, the
/// rest of another kind; field 3 is often absent, field 4 always.
fn int_event(rng: &mut Rng) -> EventRef {
    const INTS: [i64; 8] = [0, 1, -1, 2, 3, i64::MAX, i64::MIN, i64::MAX - 1];
    let attr = |rng: &mut Rng| match rng.gen_range(0..10) {
        0 | 1 => value(rng),
        _ => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
    };
    let attrs: Vec<Value> = (0..rng.gen_range(3..=4)).map(|_| attr(rng)).collect();
    let builder = Event::builder(EventTypeId::from_index(0), Timestamp::new(1));
    Arc::new(builder.id(EventId::new(1)).attrs(attrs).build())
}

/// Over comparisons of the kernel's shape, at the integer corners, with
/// attributes of another kind or absent: [`Predicate::eval`] agrees with
/// the reference, and the kernel decides a set share of them itself — an
/// overflow, another kind or an absent field is left to [`Expr::eval`].
#[test]
fn kernel_shaped_comparisons_agree_with_the_reference() {
    let (mut with_kernel, mut by_kernel, mut held, mut handed_on) = (0, 0, 0, 0);
    let cases = 20_000;
    for seed in [4, 5, 6, 0x6b_e43e1] {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..cases {
            let e = kernel_shaped(&mut rng);
            let events: Vec<EventRef> = (0..COMPONENTS).map(|_| int_event(&mut rng)).collect();
            let full = case % 4 != 0;
            let binding: Vec<Option<&EventRef>> = events
                .iter()
                .map(|ev| (full || rng.gen_bool(0.5)).then_some(ev))
                .collect();
            let ctx = format!("seed {seed} case {case}: {e:?} over {binding:?}");
            let pred = Predicate::new(e);
            let (got, want) = (pred.eval(&binding), reference_holds(&pred, &binding));
            assert_eq!(got, want, "{ctx}");
            with_kernel += u32::from(pred.has_kernel());
            if got.is_some() && pred.has_kernel() {
                match pred.kernel_decides(&binding) {
                    Some(holds) => {
                        by_kernel += 1;
                        held += u32::from(holds);
                    }
                    None => handed_on += 1,
                }
            }
        }
    }
    // every draw has a kernel but `x - i64::MIN` and `-i64::MIN`, whose
    // negation overflows (90 % have one); the kernel decides a third of
    // the draws itself (34 %), holds on half of those, and hands a
    // decided draw on about as often (44 %)
    let drawn = 4 * cases;
    assert!(with_kernel > drawn * 85 / 100, "{with_kernel} of {drawn}");
    assert!(by_kernel > drawn / 4, "{by_kernel} of {drawn}");
    assert!(held > by_kernel / 4, "{held} of {by_kernel}");
    assert!(handed_on > drawn / 10, "{handed_on} of {drawn}");
}

/// Every predicate of the ledger's eight workloads and of the pinned
/// shapes in `tests/logical_counts.rs` gets a kernel: losing it would
/// leave their counts where they are and their time behind.
#[test]
fn every_ledger_and_pinned_predicate_has_a_kernel() {
    let mut registry = TypeRegistry::new();
    for t in 0..16 {
        let fields = [("x", ValueKind::Int), ("tag", ValueKind::Int)];
        registry.declare(&format!("T{t}"), &fields).unwrap();
    }
    let family = |n: usize, width: usize| {
        (0..n).map(move |i| {
            let (ty, band) = (2 + i % 14, (i / 14) * width % 100);
            let to = band + width;
            format!(
                "PATTERN SEQ(T0 a, T1 b, T{ty} c) WHERE c.x >= {band} AND c.x < {to} WITHIN 100"
            )
        })
    };
    let texts = [
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100",
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 20000",
        "PATTERN SEQ(T0 a, T1 b) WHERE a.tag + 0 == b.tag WITHIN 40000",
        "PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 100",
        "PATTERN SEQ(T0 a, T1 b) WHERE a.tag + 0 == b.tag WITHIN 2000",
        "PATTERN SEQ(T0 a, !T1 n, T2 c) WHERE n.tag == a.tag WITHIN 100",
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.x < c.x WITHIN 100",
        "PATTERN SEQ(T3 a, T3 b, T4 c) WHERE b.x > 20 WITHIN 100",
    ];
    let texts = texts
        .into_iter()
        .map(str::to_owned)
        .chain(family(512, 1))
        .chain(family(64, 20));
    let mut predicates = 0;
    for text in texts {
        let query = crate::parse(&text, &registry).unwrap();
        let negated = query.negations().iter().flat_map(|n| &n.predicates);
        for pred in query.predicates().iter().chain(negated) {
            assert!(pred.has_kernel(), "{text}: {:?}", pred.expr());
            predicates += 1;
        }
    }
    assert!(predicates > 1_000, "{predicates}");
}

/// The cases the issue names, one by one, so a failure reads as a rule.
#[test]
fn eval_keeps_the_named_corners() {
    let konst = |v: Value| Box::new(Expr::Const(v));
    let bin = |op, l: Value, r: Value| Expr::Binary {
        op,
        lhs: konst(l),
        rhs: konst(r),
    };
    let check = |e: Expr, want: Option<Value>| {
        let got = e.eval(&[]).map(Cow::into_owned);
        assert!(same(&got, &want), "{e:?}: {got:?} != {want:?}");
        assert!(same(&reference_eval(&e, &[]), &want), "reference on {e:?}");
    };
    use BinaryOp::*;
    let (t, f) = (Value::Bool(true), Value::Bool(false));
    check(bin(Add, Value::Int(i64::MAX), Value::Int(1)), None);
    check(bin(Mul, Value::Int(i64::MIN), Value::Int(-1)), None);
    check(bin(Div, Value::Int(1), Value::Int(0)), None);
    check(bin(Div, Value::Int(i64::MIN), Value::Int(-1)), None);
    check(
        bin(Div, Value::Float(1.0), Value::Int(0)),
        Some(Value::Float(f64::INFINITY)),
    );
    check(bin(Lt, Value::str("a"), Value::Int(1)), None);
    check(bin(Eq, Value::str("a"), Value::Int(1)), Some(f.clone()));
    check(bin(Ne, Value::str("a"), Value::Int(1)), Some(t.clone()));
    check(
        bin(Ne, Value::Float(f64::NAN), Value::Float(f64::NAN)),
        Some(t.clone()),
    );
    check(bin(Eq, Value::Int(2), Value::Float(2.0)), Some(t.clone()));
    // AND/OR look at the right side's kind only when the left leaves the
    // result open...
    check(bin(And, f.clone(), Value::Int(5)), Some(f.clone()));
    check(bin(Or, t.clone(), Value::Int(5)), Some(t.clone()));
    check(bin(And, t.clone(), Value::Int(5)), None);
    check(bin(And, Value::Int(5), f.clone()), None);
    // ...but both sides are evaluated first: a side that fails fails both
    let failing = || Box::new(bin(Div, Value::Int(1), Value::Int(0)));
    for (op, left) in [(And, f), (Or, t)] {
        let e = Expr::Binary {
            op,
            lhs: konst(left),
            rhs: failing(),
        };
        check(e, None);
    }
}
