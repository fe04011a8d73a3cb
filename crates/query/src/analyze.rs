//! Semantic analysis: resolves a parsed [`QueryAst`] against a
//! [`TypeRegistry`] into an executable [`Query`].

use std::collections::HashMap;

use sequin_types::{Duration, FieldId, TypeRegistry};

use crate::ast::{ExprAst, QueryAst};
use crate::error::{AnalyzeError, AnalyzeErrorKind};
use crate::expr::{BinaryOp, ComponentMask, Expr};
use crate::query::{Component, Negation, PartitionScheme, Predicate, Query};

use std::sync::Arc;

/// Resolves `ast` against `registry`.
///
/// # Errors
///
/// See [`AnalyzeError`] for the conditions rejected here: unknown
/// types/variables/fields, duplicate variables, patterns without a positive
/// component, adjacent negations, oversized patterns, projections of
/// negated components, zero windows, and conjuncts spanning several
/// negations.
pub fn analyze(ast: &QueryAst, registry: &TypeRegistry) -> Result<Arc<Query>, AnalyzeError> {
    if ast.components.len() > ComponentMask::CAPACITY {
        return Err(AnalyzeErrorKind::TooManyComponents(ast.components.len()).into());
    }
    if ast.within == 0 {
        return Err(AnalyzeErrorKind::ZeroWindow.into());
    }

    // resolve components
    let mut components = Vec::with_capacity(ast.components.len());
    let mut var_to_comp: HashMap<String, usize> = HashMap::new();
    for (ix, c) in ast.components.iter().enumerate() {
        let mut types = Vec::with_capacity(c.type_names.len());
        for name in &c.type_names {
            let ty = registry
                .lookup(name)
                .ok_or_else(|| AnalyzeErrorKind::UnknownType(name.clone()).at(c.offset))?;
            if !types.contains(&ty) {
                types.push(ty);
            }
        }
        if var_to_comp.insert(c.var.clone(), ix).is_some() {
            return Err(AnalyzeErrorKind::DuplicateVariable(c.var.clone()).at(c.offset));
        }
        components.push(Component {
            var: c.var.clone(),
            types,
            negated: c.negated,
        });
    }

    let positives: Vec<usize> = components
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.negated)
        .map(|(ix, _)| ix)
        .collect();
    if positives.is_empty() {
        return Err(AnalyzeErrorKind::NoPositiveComponent.into());
    }
    for (w, c) in components.windows(2).zip(ast.components.windows(2)) {
        if w[0].negated && w[1].negated {
            return Err(AnalyzeErrorKind::AdjacentNegations.at(c[1].offset));
        }
    }

    // resolve the WHERE clause into conjuncts
    let mut conjuncts = Vec::new();
    if let Some(filter) = &ast.filter {
        split_conjuncts(filter, &mut conjuncts);
    }
    let resolver = Resolver {
        registry,
        components: &components,
        var_to_comp: &var_to_comp,
    };
    let mut predicates = Vec::new();
    let mut neg_predicates: HashMap<usize, Vec<Predicate>> = HashMap::new();
    for conjunct in conjuncts {
        let expr = resolver.resolve(conjunct)?;
        let pred = Predicate::new(expr);
        let negated_refs: Vec<usize> = pred
            .mask()
            .iter_ones()
            .filter(|&c| components[c].negated)
            .collect();
        match negated_refs.len() {
            0 => predicates.push(pred),
            1 => neg_predicates
                .entry(negated_refs[0])
                .or_default()
                .push(pred),
            _ => {
                return Err(match first_attr_offset(conjunct) {
                    Some(off) => AnalyzeErrorKind::PredicateSpansNegations.at(off),
                    None => AnalyzeErrorKind::PredicateSpansNegations.into(),
                })
            }
        }
    }

    // negations with flanks
    let mut negations = Vec::new();
    for (ix, c) in components.iter().enumerate() {
        if !c.negated {
            continue;
        }
        let left = positives.iter().rposition(|&p| p < ix);
        let right = positives.iter().position(|&p| p > ix);
        negations.push(Negation {
            comp: ix,
            types: c.types.clone(),
            left,
            right,
            predicates: neg_predicates.remove(&ix).unwrap_or_default(),
        });
    }

    // projections: attribute references, resolved as in `WHERE`
    let mut projections = Vec::with_capacity(ast.returns.len());
    for p in &ast.returns {
        if var_to_comp
            .get(&p.var)
            .is_some_and(|&c| components[c].negated)
        {
            return Err(AnalyzeErrorKind::ProjectsNegated(p.var.clone()).at(p.offset));
        }
        projections.push(resolver.attr(&p.var, &p.field, p.offset)?);
    }

    let partition = detect_partition(registry, &components, &positives, &negations, &predicates);

    Ok(Query::from_parts(
        components,
        positives,
        Duration::new(ast.within),
        predicates,
        negations,
        projections,
        partition,
    ))
}

/// Resolves `var.field` for a (possibly alternation) component: the field
/// must exist at the same position with the same kind in every alternate
/// type, so one `FieldId` is valid for whichever type matches at runtime.
fn resolve_common_field(
    registry: &TypeRegistry,
    component: &Component,
    var: &str,
    field: &str,
    offset: usize,
) -> Result<FieldId, AnalyzeError> {
    let mut resolved: Option<(FieldId, sequin_types::ValueKind)> = None;
    for &ty in &component.types {
        let schema = registry.schema(ty);
        let (fid, kind) = schema.field(field).ok_or_else(|| {
            AnalyzeErrorKind::UnknownField {
                var: var.to_owned(),
                field: field.to_owned(),
            }
            .at(offset)
        })?;
        match resolved {
            None => resolved = Some((fid, kind)),
            Some(prev) if prev == (fid, kind) => {}
            Some(_) => {
                return Err(AnalyzeErrorKind::AmbiguousField {
                    var: var.to_owned(),
                    field: field.to_owned(),
                }
                .at(offset))
            }
        }
    }
    Ok(resolved.expect("components have at least one type").0)
}

/// The byte offset of the leftmost attribute reference in `e`, for locating
/// whole-conjunct diagnostics.
fn first_attr_offset(e: &ExprAst) -> Option<usize> {
    match e {
        ExprAst::Attr { offset, .. } => Some(*offset),
        ExprAst::Unary { expr, .. } => first_attr_offset(expr),
        ExprAst::Binary { lhs, rhs, .. } => {
            first_attr_offset(lhs).or_else(|| first_attr_offset(rhs))
        }
        _ => None,
    }
}

fn split_conjuncts<'a>(e: &'a ExprAst, out: &mut Vec<&'a ExprAst>) {
    match e {
        ExprAst::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            split_conjuncts(lhs, out);
            split_conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

struct Resolver<'a> {
    registry: &'a TypeRegistry,
    components: &'a [Component],
    var_to_comp: &'a HashMap<String, usize>,
}

impl Resolver<'_> {
    fn resolve(&self, e: &ExprAst) -> Result<Expr, AnalyzeError> {
        Ok(match e {
            ExprAst::Const(v) => Expr::Const(v.clone()),
            ExprAst::Attr { var, field, offset } => self.attr(var, field, *offset)?,
            ExprAst::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(self.resolve(expr)?),
            },
            ExprAst::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.resolve(lhs)?),
                rhs: Box::new(self.resolve(rhs)?),
            },
        })
    }

    /// Resolves the reference `var.field` (`var.ts` and `var.id` are the
    /// event's timestamp and id).
    fn attr(&self, var: &str, field: &str, offset: usize) -> Result<Expr, AnalyzeError> {
        let &comp = self
            .var_to_comp
            .get(var)
            .ok_or_else(|| AnalyzeErrorKind::UnknownVariable(var.to_owned()).at(offset))?;
        Ok(match field {
            "ts" => Expr::Ts(comp),
            "id" => Expr::Id(comp),
            _ => {
                let fid = resolve_common_field(
                    self.registry,
                    &self.components[comp],
                    var,
                    field,
                    offset,
                )?;
                Expr::Attr { comp, field: fid }
            }
        })
    }
}

/// Finds an equality-join chain covering every positive component, if any:
/// a set of `a.f == b.g` conjuncts whose union-find closure places at least
/// one field of each positive component in one equivalence class. When two
/// classes do, the one whose first attribute ref comes first — in the
/// `WHERE` clause's predicates, then the negations' — keys the query, so a
/// text always gets the same scheme (and so the same identity).
pub(crate) fn detect_partition(
    registry: &TypeRegistry,
    components: &[Component],
    positives: &[usize],
    negations: &[Negation],
    predicates: &[Predicate],
) -> Option<PartitionScheme> {
    // floats make no hash key; a chain through a float field is unusable
    let keyable = |comp: usize, field: FieldId| {
        components[comp].types.iter().all(|&ty| {
            registry.schema(ty).field_kind(field) != Some(sequin_types::ValueKind::Float)
        })
    };
    // collect equality edges between plain attribute refs, each ref
    // numbered in order of its first appearance in the predicates
    let mut nodes: Vec<(usize, FieldId)> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut intern = |key: (usize, FieldId), parent: &mut Vec<usize>| {
        nodes.iter().position(|&n| n == key).unwrap_or_else(|| {
            nodes.push(key);
            parent.push(parent.len());
            parent.len() - 1
        })
    };
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    // include negation predicates: they can extend the chain to negated comps
    let all_preds = predicates
        .iter()
        .chain(negations.iter().flat_map(|n| n.predicates.iter()));
    for pred in all_preds {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = pred.expr()
        {
            if let (
                Expr::Attr {
                    comp: ca,
                    field: fa,
                },
                Expr::Attr {
                    comp: cb,
                    field: fb,
                },
            ) = (lhs.as_ref(), rhs.as_ref())
            {
                let a = intern((*ca, *fa), &mut parent);
                let b = intern((*cb, *fb), &mut parent);
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
    }
    if nodes.is_empty() {
        return None;
    }

    // look for a class covering all positives, in order of each class's
    // first ref: two may (`a.x == b.x AND a.tag == b.tag`)
    let roots: Vec<usize> = (0..nodes.len()).map(|i| find(&mut parent, i)).collect();
    for (first, &root) in roots.iter().enumerate() {
        if roots[..first].contains(&root) {
            continue; // not this class's first ref
        }
        let members: Vec<(usize, FieldId)> = (first..nodes.len())
            .filter(|&i| roots[i] == root)
            .map(|i| nodes[i])
            .collect();
        if members.iter().any(|&(c, f)| !keyable(c, f)) {
            continue;
        }
        let mut fields: Vec<Option<FieldId>> = vec![None; positives.len()];
        for &(comp, field) in &members {
            if let Some(p) = positives.iter().position(|&c| c == comp) {
                if fields[p].is_none() {
                    fields[p] = Some(field);
                }
            }
        }
        if fields.iter().all(Option::is_some) {
            let negation_fields = negations
                .iter()
                .map(|n| members.iter().find(|(c, _)| *c == n.comp).map(|&(_, f)| f))
                .collect();
            return Some(PartitionScheme {
                fields: fields.into_iter().map(Option::unwrap).collect(),
                negation_fields,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_text;
    use sequin_types::ValueKind;

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "D"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Str)])
                .unwrap();
        }
        reg
    }

    fn q(text: &str) -> Result<Arc<Query>, AnalyzeError> {
        analyze(&parse_text(text).unwrap(), &registry())
    }

    #[test]
    fn resolves_simple_query() {
        let query = q("PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 10 RETURN a.x, b.ts").unwrap();
        assert_eq!(query.positive_len(), 2);
        assert_eq!(query.predicates().len(), 1);
        assert_eq!(query.projections().len(), 2);
        assert_eq!(query.window(), Duration::new(10));
        assert!(!query.has_negation());
    }

    #[test]
    fn unknown_type_rejected_with_offset() {
        let text = "PATTERN SEQ(Z z) WITHIN 10";
        let err = q(text).unwrap_err();
        assert_eq!(err.kind(), &AnalyzeErrorKind::UnknownType("Z".into()));
        assert_eq!(err.offset(), Some(text.find('Z').unwrap()));
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn unknown_variable_rejected_with_offset() {
        let text = "PATTERN SEQ(A a) WHERE b.x > 1 WITHIN 10";
        let err = q(text).unwrap_err();
        assert!(matches!(err.kind(), AnalyzeErrorKind::UnknownVariable(_)));
        assert_eq!(err.offset(), Some(text.find("b.x").unwrap()));
    }

    #[test]
    fn unknown_field_rejected_with_offset() {
        let text = "PATTERN SEQ(A a) WHERE a.nope > 1 WITHIN 10";
        let err = q(text).unwrap_err();
        assert!(matches!(err.kind(), AnalyzeErrorKind::UnknownField { .. }));
        assert_eq!(err.offset(), Some(text.find("a.nope").unwrap()));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = q("PATTERN SEQ(A a, B a) WITHIN 10").unwrap_err();
        assert!(matches!(err.kind(), AnalyzeErrorKind::DuplicateVariable(_)));
        assert!(err.offset().is_some());
    }

    #[test]
    fn all_negated_rejected() {
        assert_eq!(
            q("PATTERN SEQ(!A a) WITHIN 10").unwrap_err().kind(),
            &AnalyzeErrorKind::NoPositiveComponent
        );
    }

    #[test]
    fn adjacent_negations_rejected() {
        let err = q("PATTERN SEQ(A a, !B b, !C c, D d) WITHIN 10").unwrap_err();
        assert_eq!(err.kind(), &AnalyzeErrorKind::AdjacentNegations);
        assert!(err.offset().is_some());
    }

    #[test]
    fn zero_window_rejected() {
        let err = q("PATTERN SEQ(A a) WITHIN 0").unwrap_err();
        assert_eq!(err.kind(), &AnalyzeErrorKind::ZeroWindow);
        assert_eq!(err.offset(), None, "whole-query condition has no span");
    }

    #[test]
    fn projection_of_negated_rejected() {
        let err = q("PATTERN SEQ(A a, !B b, C c) WITHIN 10 RETURN b.x").unwrap_err();
        assert!(matches!(err.kind(), AnalyzeErrorKind::ProjectsNegated(_)));
        assert!(err.offset().is_some());
    }

    #[test]
    fn negation_flanks_resolved() {
        let query = q("PATTERN SEQ(!A a, B b, !C c, D d, !A e) WITHIN 10").unwrap();
        let negs = query.negations();
        assert_eq!(negs.len(), 3);
        // leading negation
        assert_eq!(negs[0].left, None);
        assert_eq!(negs[0].right, Some(0));
        // middle negation between positives 0 and 1
        assert_eq!(negs[1].left, Some(0));
        assert_eq!(negs[1].right, Some(1));
        // trailing negation
        assert_eq!(negs[2].left, Some(1));
        assert_eq!(negs[2].right, None);
    }

    #[test]
    fn predicates_split_and_routed_to_negations() {
        let query =
            q("PATTERN SEQ(A a, !B b, C c) WHERE a.x > 1 AND b.x == a.x AND c.x < 5 WITHIN 10")
                .unwrap();
        assert_eq!(query.predicates().len(), 2);
        assert_eq!(query.negations()[0].predicates.len(), 1);
    }

    #[test]
    fn conjunct_spanning_two_negations_rejected_with_offset() {
        let text = "PATTERN SEQ(A a, !B b, C c, !D d, A e) WHERE b.x == d.x WITHIN 10";
        let err = q(text).unwrap_err();
        assert_eq!(err.kind(), &AnalyzeErrorKind::PredicateSpansNegations);
        assert_eq!(err.offset(), Some(text.find("b.x").unwrap()));
    }

    #[test]
    fn partition_detected_for_full_equi_chain() {
        let query =
            q("PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 10")
                .unwrap();
        let scheme = query.partition().expect("partition scheme");
        assert_eq!(scheme.fields.len(), 3);
    }

    #[test]
    fn partition_rejected_on_float_fields() {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("f", ValueKind::Float)]).unwrap();
        }
        let query = analyze(
            &parse_text("PATTERN SEQ(A a, B b) WHERE a.f == b.f WITHIN 10").unwrap(),
            &reg,
        )
        .unwrap();
        assert!(query.partition().is_none());
    }

    #[test]
    fn partition_absent_for_partial_chain() {
        let query = q("PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag WITHIN 10").unwrap();
        assert!(query.partition().is_none());
    }

    #[test]
    fn partition_extends_to_negations() {
        let query =
            q("PATTERN SEQ(A a, !B n, C c) WHERE a.tag == c.tag AND n.tag == a.tag WITHIN 10")
                .unwrap();
        let scheme = query.partition().expect("partition scheme");
        assert_eq!(scheme.negation_fields.len(), 1);
        assert!(scheme.negation_fields[0].is_some());
    }

    #[test]
    fn local_and_join_predicate_classification() {
        let query = q("PATTERN SEQ(A a, B b) WHERE a.x > 1 AND a.x == b.x WITHIN 10").unwrap();
        assert_eq!(query.local_predicates(0).len(), 1);
        assert_eq!(query.local_predicates(1).len(), 0);
        assert_eq!(query.join_predicates().len(), 1);
    }

    #[test]
    fn slots_for_repeated_type() {
        let query = q("PATTERN SEQ(A a1, B b, A a2) WITHIN 10").unwrap();
        let reg = registry();
        let a = reg.lookup("A").unwrap();
        assert_eq!(query.slots_for_type(a), vec![0, 2]);
        assert_eq!(query.relevant_types().len(), 2);
    }

    #[test]
    fn alternation_resolves_and_matches_both_types() {
        let query = q("PATTERN SEQ(A|B ab, C c) WHERE ab.x > 1 WITHIN 10").unwrap();
        let reg = registry();
        let a = reg.lookup("A").unwrap();
        let b = reg.lookup("B").unwrap();
        let c = reg.lookup("C").unwrap();
        assert_eq!(query.slots_for_type(a), vec![0]);
        assert_eq!(query.slots_for_type(b), vec![0]);
        assert_eq!(query.slots_for_type(c), vec![1]);
        assert_eq!(query.relevant_types().len(), 3);
        assert_eq!(query.positive_types(0).len(), 2);
    }

    #[test]
    fn alternation_field_must_be_common() {
        let mut reg = registry();
        // E has `x` at a different position than A/B/C/D (tag first)
        reg.declare("E", &[("tag", ValueKind::Str), ("x", ValueKind::Int)])
            .unwrap();
        let err = analyze(
            &parse_text("PATTERN SEQ(A|E ae) WHERE ae.x > 1 WITHIN 10").unwrap(),
            &reg,
        )
        .unwrap_err();
        assert!(matches!(
            err.kind(),
            AnalyzeErrorKind::AmbiguousField { .. }
        ));
        // but a query not touching the conflicting field is fine
        assert!(analyze(&parse_text("PATTERN SEQ(A|E ae) WITHIN 10").unwrap(), &reg).is_ok());
    }

    #[test]
    fn alternation_duplicate_types_deduped() {
        let query = q("PATTERN SEQ(A|A|A a, B b) WITHIN 10").unwrap();
        assert_eq!(query.positive_types(0).len(), 1);
    }

    #[test]
    fn negated_alternation_routes_predicates() {
        let query = q("PATTERN SEQ(A a, !B|C nc, D d) WHERE nc.x > 2 WITHIN 10").unwrap();
        assert_eq!(query.negations().len(), 1);
        assert_eq!(query.negations()[0].types.len(), 2);
        assert_eq!(query.negations()[0].predicates.len(), 1);
    }

    #[test]
    fn ts_and_id_pseudo_fields_resolve() {
        let query = q("PATTERN SEQ(A a, B b) WHERE b.ts - a.ts < 5 WITHIN 10 RETURN a.id").unwrap();
        assert_eq!(query.predicates().len(), 1);
        assert_eq!(query.projections(), &[Expr::Id(0)]);
    }

    #[test]
    fn display_shows_negation() {
        let query = q("PATTERN SEQ(A a, !B b, C c) WITHIN 10").unwrap();
        let s = query.to_string();
        assert!(s.contains('!'));
        assert!(s.contains("WITHIN"));
    }
}
