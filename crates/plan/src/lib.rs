//! # sequin-plan
//!
//! A shared-state multi-query compiler for sequence pattern queries.
//!
//! Registering thousands of standing queries as isolated engines makes
//! every arrival pay the full per-query cost: one stack set, one
//! insertion, one construction walk per query, even for queries whose
//! pattern cannot possibly involve the event's type. This crate compiles
//! a set of analyzed [`Query`] values (plus a registration *epoch* per
//! query, see below) into one [`SharedPlan`] that the shared evaluator in
//! `sequin-engine` executes:
//!
//! * **Predicate pushdown / stack pooling.** Each positive slot is
//!   described by a [`SlotSig`]: accepted event types, the canonicalized
//!   single-event predicates evaluable at insert time, the partition key
//!   field (when the query shards by an equality chain) and the epoch.
//!   Slots with identical signatures — across queries — share one pooled
//!   AIS stack: `SEQ(A a, B b, C c)` and `SEQ(A a, B b, D d)` keep one
//!   `A` stack and one `B` stack between them, and a slot's local
//!   predicates are evaluated once per arrival rather than once per
//!   query.
//! * **Common-prefix sharing.** Queries whose prefix slots (every
//!   positive but the last) resolve to the same pooled stacks, the same
//!   window, and the same canonicalized intra-prefix predicates form a
//!   [`PrefixGroup`]: the evaluator enumerates partial matches over the
//!   shared prefix once and *forks* each partial out to every member's
//!   final-slot scan.
//! * **Event-type routing.** [`SharedPlan::routing`] lists, per event
//!   type, exactly the pooled stacks and negation-holding queries that
//!   care about it, so an arrival touches plan nodes proportional to the
//!   *interested* queries, not the registered ones; a [`BandIndex`] over
//!   an entry's banded stacks narrows that to the stacks its value passes.
//!
//! The compiler is pure: it never holds event state. A plan grows one
//! query at a time ([`SharedPlan::attach`], which appends and never moves
//! an existing stack index — that is what makes `SUBSCRIBE` cheap at
//! runtime), and [`compile`] is that step folded over a query set; after
//! an unregistration or a restore the evaluator compiles afresh and
//! carries its stacks over by signature equality.
//!
//! ## Epochs
//!
//! Byte-identical equivalence with independent evaluation requires that a
//! query subscribed mid-stream must not see events that arrived before
//! its registration (a fresh independent engine would not). Queries
//! registered at the same stream position share an epoch; the epoch is
//! part of every [`SlotSig`], so stacks are only ever pooled between
//! queries with identical arrival histories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod band_index;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use sequin_query::{with_binding, BinaryOp, Expr, Predicate, Query};
use sequin_types::codec::fnv1a64;
use sequin_types::{Duration, EventRef, EventTypeId, FieldId, Value};

pub use band_index::BandIndex;

/// One query as seen by the compiler.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The analyzed query.
    pub query: Arc<Query>,
    /// Registration epoch (dense index; queries registered at the same
    /// stream position share one).
    pub epoch: usize,
    /// False once unregistered: the query keeps its dense id (so output
    /// tags and snapshots stay aligned) but owns no plan nodes.
    pub active: bool,
}

/// Identity of a pooled stack: two (query, slot) pairs with equal
/// signatures are served by one physical stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotSig {
    /// Registration epoch of the owning queries.
    pub epoch: usize,
    /// Accepted event types, sorted.
    pub types: Vec<EventTypeId>,
    /// Canonicalized insert-time (single-event) predicates, in query
    /// order — order matters so pooled evaluation replicates the
    /// independent engines' short-circuit accounting exactly.
    pub local_preds: Vec<String>,
    /// Partition-key field for this slot when the owning query shards by
    /// an equality chain (and partitioning is enabled).
    pub partition: Option<FieldId>,
}

/// A (query, slot) pair referencing a pooled stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackRef {
    /// Dense query index.
    pub query: usize,
    /// Positive slot within that query.
    pub slot: usize,
}

/// A pooled stack and everything anchored on it.
#[derive(Debug, Clone)]
pub struct StackNode {
    /// The pooling signature.
    pub sig: SlotSig,
    /// Every (query, slot) served by this stack.
    pub refs: Vec<StackRef>,
    /// Slot-local predicates of a representative referencing query,
    /// evaluated once per arriving candidate (predicate pushdown). All
    /// refs agree on these by signature equality.
    pub local_preds: Vec<Predicate>,
    /// The local predicates as one [`Band`], when they have its shape.
    pub band: Option<Band>,
    /// Representative full-list component index for the local-predicate
    /// binding.
    pub local_comp: usize,
    /// Representative component-list length for the binding width.
    pub local_components: usize,
    /// Prefix-group anchors hosted here: `(group index, prefix position)`
    /// pairs whose shared enumeration starts when an event lands in this
    /// stack.
    pub shared_anchors: Vec<(usize, usize)>,
    /// Per-query construction anchors not covered by a group (final
    /// slots, ungrouped queries).
    pub plain_refs: Vec<StackRef>,
    /// `(group index, member index)` of every group member whose final
    /// slot this stack is.
    pub finals: Vec<(usize, usize)>,
    /// The purge shape: the widest window of a ref at a prefix slot, or
    /// `None` when every ref is a final slot. The stack purges to the
    /// minimum threshold over its refs, and a prefix threshold never
    /// exceeds a final one and falls as the window grows, so that minimum
    /// is this window's prefix threshold when there is one and the final
    /// threshold otherwise.
    pub prefix_window: Option<Duration>,
}

impl StackNode {
    /// Runs the slot's local predicates on `event` in order, stopping at
    /// the first that does not hold: its index, or `None` when all hold.
    /// The evaluations made are that index plus one, or all of them. A
    /// [`Band`] decides from the one `Int` it reads; any other value is
    /// evaluated predicate by predicate.
    pub fn first_failing(&self, event: &EventRef) -> Option<usize> {
        if let Some(band) = &self.band {
            if let Some(&Value::Int(v)) = event.field(band.field) {
                return band.first_failing(v);
            }
        }
        with_binding(self.local_components, |binding| {
            binding[self.local_comp] = Some(event);
            let mut preds = self.local_preds.iter();
            preds.position(|pred| pred.eval(binding) != Some(true))
        })
    }
}

/// A slot's local predicates when every one compares the same field of
/// the slot's event with an `Int` constant (`c.x >= 3 AND c.x < 4`,
/// `7 != c.x`). On an `Int` value each is one integer comparison — what
/// [`Predicate::eval`] computes for two `Int`s — so a band finds the same
/// first failing predicate, and with it the same evaluation count, from
/// one read of the field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// The field every test reads.
    field: FieldId,
    /// Per predicate, in order: `(op, c)` for `value op c`.
    tests: Vec<(BinaryOp, i64)>,
}

impl Band {
    /// The band `preds` form, if they have its shape: each a comparison
    /// (`== != < <= > >=`) of an attribute with an `Int` constant, on
    /// either side, all reading one field of one component.
    pub(crate) fn of(preds: &[Predicate]) -> Option<Band> {
        let mut read: Option<(usize, FieldId)> = None;
        let mut tests = Vec::with_capacity(preds.len());
        for pred in preds {
            let Expr::Binary { op, lhs, rhs } = pred.expr() else {
                return None;
            };
            let (attr, op, c) = match (&**lhs, &**rhs) {
                (attr, Expr::Const(Value::Int(c))) => (attr, *op, *c),
                (Expr::Const(Value::Int(c)), attr) => (attr, op.mirrored(), *c),
                _ => return None,
            };
            let Expr::Attr { comp, field } = *attr else {
                return None;
            };
            if !op.is_comparison() || read.is_some_and(|r| r != (comp, field)) {
                return None;
            }
            read = Some((comp, field));
            tests.push((op, c));
        }
        let (_, field) = read?;
        Some(Band { field, tests })
    }

    /// The index of the first test `v` fails, or `None` when it passes
    /// them all.
    pub(crate) fn first_failing(&self, v: i64) -> Option<usize> {
        self.tests.iter().position(|&(op, c)| !op.compare(v, c))
    }
}

/// How one bind step inside a shared prefix walk is accounted for one
/// group member (see [`BindPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindEntry {
    /// A group-common predicate: index into [`PrefixGroup::common`].
    Common(usize),
    /// A member-private predicate spanning into the member's final slot —
    /// undecidable during the prefix walk (the final slot binds last),
    /// but the independent engine still counts the attempt.
    Spanning,
}

/// Predicate bookkeeping for binding one prefix position during the
/// shared walk: which common predicates to evaluate, and — per member —
/// the exact short-circuit accounting the member's independent engine
/// would produce.
#[derive(Debug, Clone, Default)]
pub struct BindPlan {
    /// Indices into [`PrefixGroup::common`] of predicates referencing the
    /// bound component (evaluated once, on the representative binding).
    pub common_touching: Vec<usize>,
    /// The members with predicates referencing the bound component,
    /// ascending by [`PrefixGroup::members`] index: `(member index, those
    /// predicates in the member's own declaration order)`. A member not
    /// listed evaluates nothing at this position.
    pub per_member: Vec<(usize, Vec<BindEntry>)>,
}

/// One member of a prefix group.
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// Dense query index.
    pub query: usize,
    /// Pooled stack holding the member's final slot.
    pub final_stack: usize,
}

/// Queries sharing a common prefix: one shared partial-match enumeration
/// over [`PrefixGroup::prefix_stacks`], forked to each member's final
/// slot.
#[derive(Debug, Clone)]
pub struct PrefixGroup {
    /// Shared window (part of the grouping key).
    pub window: Duration,
    /// Pooled stack per prefix position `0..prefix_len`.
    pub prefix_stacks: Vec<usize>,
    /// The representative member's intra-prefix predicates, in
    /// declaration order (identical, after canonicalization, for every
    /// member — that is the grouping condition).
    pub common: Vec<Predicate>,
    /// Representative query (used for predicate bindings).
    pub rep: Arc<Query>,
    /// Per prefix position: the representative's full-list component
    /// index (binding slot for [`PrefixGroup::common`]).
    pub rep_comp_of_pos: Vec<usize>,
    /// Per prefix position: predicate bookkeeping for the bind.
    pub binds: Vec<BindPlan>,
    /// The members, ascending by query index.
    pub members: Vec<GroupMember>,
}

impl PrefixGroup {
    /// Number of shared prefix positions.
    pub fn prefix_len(&self) -> usize {
        self.prefix_stacks.len()
    }
}

/// Per-event-type routing entry.
#[derive(Debug, Clone, Default)]
pub struct RouteEntry {
    /// Pooled stacks that accept this type.
    pub stacks: Vec<usize>,
    /// Queries with a negation matching this type.
    pub neg_queries: Vec<usize>,
    /// Queries with more than one positive slot accepting this type, each
    /// with those slots' pooled stacks (one entry per slot, so a stack
    /// serving two of them appears twice): one arrival reaching several
    /// is still one routed event for the query.
    pub multi_slot: Vec<(usize, Vec<usize>)>,
}

/// Per-query node of the lowered plan.
#[derive(Debug, Clone)]
pub struct QueryNode {
    /// The analyzed query.
    pub query: Arc<Query>,
    /// Registration epoch.
    pub epoch: usize,
    /// Pooled stack index per positive slot (empty when inactive).
    pub stack_of_slot: Vec<usize>,
    /// The [`PrefixGroup`] that walks the query's prefix, if any.
    pub group: Option<usize>,
    /// False once unregistered.
    pub active: bool,
}

/// The lowered shared plan for a query set.
#[derive(Debug, Clone, Default)]
pub struct SharedPlan {
    /// Per-query nodes, dense by registration index.
    pub queries: Vec<QueryNode>,
    /// Pooled stacks.
    pub stacks: Vec<StackNode>,
    /// Common-prefix groups.
    pub groups: Vec<PrefixGroup>,
    /// Interested plan nodes per event type, by [`EventTypeId::index`]
    /// (a type no node listens to has an empty entry, or none).
    pub routing: Vec<RouteEntry>,
    /// Whether keyed slots carry their partition field (see
    /// [`SharedPlan::new`]).
    partitioned: bool,
    /// The pooled stack of every signature interned so far.
    stack_of_sig: HashMap<SlotSig, usize>,
    /// Who shares each prefix so far.
    sharers: HashMap<PrefixKey, Sharers>,
}

/// What queries must have in common to share a prefix walk: the pooled
/// stacks of their prefix slots, the window, and the canonicalized
/// intra-prefix predicates.
type PrefixKey = (Vec<usize>, u64, Vec<String>);

/// The active queries with one [`PrefixKey`].
#[derive(Debug, Clone, Copy)]
enum Sharers {
    /// One query so far (its index): nothing to share, every anchor plain.
    Lone(usize),
    /// Two or more: the [`PrefixGroup`] they formed (its index).
    Group(usize),
}

impl SharedPlan {
    /// Number of active queries whose prefix enumeration is shared with
    /// at least one other query.
    pub fn grouped_queries(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// The routing entry of `ty`, unless no plan node listens to it.
    pub fn route(&self, ty: EventTypeId) -> Option<&RouteEntry> {
        let entry = self.routing.get(ty.index())?;
        (!entry.stacks.is_empty() || !entry.neg_queries.is_empty()).then_some(entry)
    }

    /// The routing entry of `ty`, made when it is the first of its index.
    fn route_mut(&mut self, ty: EventTypeId) -> &mut RouteEntry {
        if self.routing.len() <= ty.index() {
            self.routing
                .resize_with(ty.index() + 1, RouteEntry::default);
        }
        &mut self.routing[ty.index()]
    }
}

/// A stable identifier for a query, derived from its normalized form:
/// independent of registration order, whitespace, and variable spelling
/// (two queries with [`Query::normalized_eq`] get the same id). Used to
/// key per-query metrics so dashboards survive re-registration.
pub fn stable_query_id(query: &Query) -> u64 {
    let mut s = String::new();
    for c in query.components() {
        if c.negated {
            s.push('!');
        }
        for ty in &c.types {
            let _ = write!(s, "{}|", ty.index());
        }
        s.push(';');
    }
    let _ = write!(s, "W{}", query.window().ticks());
    for p in query.predicates() {
        s.push('&');
        s.push_str(&canon_pred(query, p));
    }
    for n in query.negations() {
        let _ = write!(s, "N{}:{:?}:{:?}:{:?}", n.comp, n.types, n.left, n.right);
        for p in &n.predicates {
            s.push('&');
            s.push_str(&canon_pred(query, p));
        }
    }
    let _ = write!(s, "{:?}{:?}", query.projections(), query.partition());
    fnv1a64(s.as_bytes())
}

/// Renders `expr` canonically, naming the component bound at each
/// reference via `token` (positive-position based), so structurally equal
/// predicates from different queries compare equal as strings.
fn canon_expr(expr: &Expr, token: &dyn Fn(usize) -> String, out: &mut String) {
    match expr {
        Expr::Const(v) => {
            let _ = write!(out, "{v:?}");
        }
        Expr::Attr { comp, field } => {
            let _ = write!(out, "{}.a{}", token(*comp), field.index());
        }
        Expr::Ts(comp) => {
            let _ = write!(out, "{}.ts", token(*comp));
        }
        Expr::Id(comp) => {
            let _ = write!(out, "{}.id", token(*comp));
        }
        Expr::Unary { op, expr } => {
            let _ = write!(out, "({op:?} ");
            canon_expr(expr, token, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            let _ = write!(out, "({op:?} ");
            canon_expr(lhs, token, out);
            out.push(' ');
            canon_expr(rhs, token, out);
            out.push(')');
        }
    }
}

fn canon_pred(query: &Query, pred: &Predicate) -> String {
    // map full-list component index -> positive position
    let pos_of: HashMap<usize, usize> = (0..query.positive_len())
        .map(|p| (query.positive_comp(p), p))
        .collect();
    let token = move |comp: usize| match pos_of.get(&comp) {
        Some(p) => format!("p{p}"),
        None => format!("n{comp}"), // unreachable for positive predicates
    };
    let mut s = String::new();
    canon_expr(pred.expr(), &token, &mut s);
    s
}

fn canon_local_pred(pred: &Predicate) -> String {
    // a single-component predicate: the position is implied by the slot
    let token = |_: usize| "e".to_string();
    let mut s = String::new();
    canon_expr(pred.expr(), &token, &mut s);
    s
}

fn slot_sig(query: &Query, slot: usize, epoch: usize, partitioned: bool) -> SlotSig {
    let mut types = query.positive_types(slot).to_vec();
    types.sort();
    types.dedup();
    let local_preds = query
        .local_predicates(slot)
        .iter()
        .map(|p| canon_local_pred(p))
        .collect();
    let partition = if partitioned {
        query.partition().map(|s| s.fields[slot])
    } else {
        None
    };
    SlotSig {
        epoch,
        types,
        local_preds,
        partition,
    }
}

/// The predicates of `q` decidable inside its prefix (every positive slot
/// but the last), in declaration order: what a [`PrefixGroup`]'s members
/// must agree on.
fn prefix_predicates(q: &Query) -> impl Iterator<Item = &Predicate> {
    let final_comp = q.positive_comp(q.positive_len() - 1);
    let inside = move |p: &&Predicate| !p.mask().contains(final_comp);
    q.predicates().iter().filter(inside)
}

impl SharedPlan {
    /// An empty plan. `partitioned` mirrors the engine configuration flag:
    /// when false, no slot carries a partition key (matching unpartitioned
    /// evaluation).
    pub fn new(partitioned: bool) -> SharedPlan {
        SharedPlan {
            partitioned,
            ..SharedPlan::default()
        }
    }

    /// Adds one query's nodes to the plan, under the next dense query
    /// index, at a cost that does not grow with the queries already there:
    /// each slot is served by the pooled stack of its signature (a new
    /// signature appends a stack, so existing stack indices never move),
    /// the query joins the [`PrefixGroup`] of its prefix or waits as the
    /// prefix's lone query, and the routing index learns its types. The
    /// sibling that makes a lone query's prefix shared forms the group and
    /// *promotes* the lone query into it: its prefix anchors leave
    /// `plain_refs` for the group's `shared_anchors`.
    ///
    /// Every plan is built this way ([`compile`] folds it over the specs),
    /// so a plan grown by one `SUBSCRIBE` at a time is the plan compiled
    /// from the same specs at once. Groups are numbered in the order they
    /// form — by their *second* member's position, not their first's.
    pub fn attach(&mut self, spec: &QuerySpec) {
        let qix = self.queries.len();
        let q = &spec.query;
        let last = q.positive_len() - 1;
        let mut stack_of_slot = Vec::new();
        if spec.active {
            for slot in 0..=last {
                let six = self.stack_for(slot_sig(q, slot, spec.epoch, self.partitioned), q, slot);
                let node = &mut self.stacks[six];
                node.refs.push(StackRef { query: qix, slot });
                if slot < last {
                    node.prefix_window = node.prefix_window.max(Some(q.window()));
                }
                stack_of_slot.push(six);
            }
        }
        self.queries.push(QueryNode {
            query: Arc::clone(q),
            epoch: spec.epoch,
            stack_of_slot,
            group: None,
            active: spec.active,
        });
        if !spec.active {
            return;
        }
        for &ty in q.negations().iter().flat_map(|neg| &neg.types) {
            let negating = &mut self.route_mut(ty).neg_queries;
            if negating.last() != Some(&qix) {
                negating.push(qix);
            }
        }
        for ty in q.relevant_types() {
            let slots = q.slots_for_type(ty);
            if slots.len() > 1 {
                let stack_of_slot = &self.queries[qix].stack_of_slot;
                let stacks = slots.iter().map(|&slot| stack_of_slot[slot]).collect();
                self.route_mut(ty).multi_slot.push((qix, stacks));
            }
        }
        // construction anchors: a grouped query's prefix slots are walked
        // by its group, everything else by the query's own constructor
        let grouped = last > 0 && self.join_prefix(qix);
        for slot in 0..=last {
            if !grouped || slot == last {
                let six = self.queries[qix].stack_of_slot[slot];
                let anchor = StackRef { query: qix, slot };
                self.stacks[six].plain_refs.push(anchor);
            }
        }
    }

    /// The pooled stack with signature `sig`, appended — and entered in
    /// the routing index — when `q`'s `slot` is the first to carry it.
    fn stack_for(&mut self, sig: SlotSig, q: &Query, slot: usize) -> usize {
        if let Some(&six) = self.stack_of_sig.get(&sig) {
            return six;
        }
        let six = self.stacks.len();
        for &ty in &sig.types {
            self.route_mut(ty).stacks.push(six);
        }
        self.stack_of_sig.insert(sig.clone(), six);
        self.stacks.push(StackNode::new(sig, q, slot));
        six
    }

    /// Files query `qix` (two or more positive slots) under its prefix —
    /// prefix stacks, window, canonical intra-prefix predicates. True when
    /// it now shares a group's walk; false when it is the prefix's first.
    fn join_prefix(&mut self, qix: usize) -> bool {
        let node = &self.queries[qix];
        let q = &node.query;
        let prefix_stacks = node.stack_of_slot[..q.positive_len() - 1].to_vec();
        let intra = prefix_predicates(q).map(|p| canon_pred(q, p)).collect();
        let key = (prefix_stacks, q.window().ticks(), intra);
        let gix = match self.sharers.get(&key) {
            None => {
                self.sharers.insert(key, Sharers::Lone(qix));
                return false;
            }
            Some(&Sharers::Group(gix)) => gix,
            Some(&Sharers::Lone(first)) => {
                let gix = self.form_group(first);
                self.sharers.insert(key, Sharers::Group(gix));
                gix
            }
        };
        self.add_member(gix, qix);
        true
    }

    /// Forms the group of `first`'s prefix, with `first` its representative
    /// and first member, promoted out of its prefix stacks' `plain_refs`.
    fn form_group(&mut self, first: usize) -> usize {
        let gix = self.groups.len();
        let rep = Arc::clone(&self.queries[first].query);
        let prefix_len = rep.positive_len() - 1;
        let prefix_stacks = self.queries[first].stack_of_slot[..prefix_len].to_vec();
        let common: Vec<Predicate> = prefix_predicates(&rep).cloned().collect();
        let rep_comp_of_pos: Vec<usize> = (0..prefix_len).map(|p| rep.positive_comp(p)).collect();
        let touching = |&rep_comp: &usize| BindPlan {
            common_touching: (0..common.len())
                .filter(|&ci| common[ci].mask().contains(rep_comp))
                .collect(),
            per_member: Vec::new(),
        };
        let binds = rep_comp_of_pos.iter().map(touching).collect();
        for (pos, &six) in prefix_stacks.iter().enumerate() {
            let node = &mut self.stacks[six];
            node.shared_anchors.push((gix, pos));
            node.plain_refs
                .retain(|r| r.query != first || r.slot >= prefix_len);
        }
        self.groups.push(PrefixGroup {
            window: rep.window(),
            prefix_stacks,
            common,
            rep,
            rep_comp_of_pos,
            binds,
            members: Vec::new(),
        });
        self.add_member(gix, first);
        gix
    }

    /// Appends query `mix` to group `gix`: its final stack, and per prefix
    /// position the short-circuit accounting of its own predicate order.
    fn add_member(&mut self, gix: usize, mix: usize) {
        let (g, node) = (&mut self.groups[gix], &mut self.queries[mix]);
        let mq = &node.query;
        let (prefix_len, mx) = (g.prefix_stacks.len(), g.members.len());
        let m_final = mq.positive_comp(prefix_len);
        for (pos, bind) in g.binds.iter_mut().enumerate() {
            let m_comp = mq.positive_comp(pos);
            let mut entries = Vec::new();
            let mut common_counter = 0usize;
            for p in mq.predicates() {
                let is_common = !p.mask().contains(m_final);
                if p.mask().contains(m_comp) {
                    entries.push(if is_common {
                        BindEntry::Common(common_counter)
                    } else {
                        BindEntry::Spanning
                    });
                }
                if is_common {
                    common_counter += 1;
                }
            }
            if !entries.is_empty() {
                bind.per_member.push((mx, entries));
            }
        }
        let final_stack = node.stack_of_slot[prefix_len];
        g.members.push(GroupMember {
            query: mix,
            final_stack,
        });
        node.group = Some(gix);
        self.stacks[final_stack].finals.push((gix, mx));
    }
}

impl StackNode {
    /// The node of a new pooled stack, first carried by `q`'s `slot`.
    fn new(sig: SlotSig, q: &Query, slot: usize) -> StackNode {
        let local_preds: Vec<Predicate> = q.local_predicates(slot).into_iter().cloned().collect();
        StackNode {
            sig,
            refs: Vec::new(),
            band: Band::of(&local_preds),
            local_preds,
            local_comp: q.positive_comp(slot),
            local_components: q.components().len(),
            shared_anchors: Vec::new(),
            plain_refs: Vec::new(),
            finals: Vec::new(),
            prefix_window: None,
        }
    }
}

/// Compiles `specs` into a [`SharedPlan`]: the fold of
/// [`SharedPlan::attach`] over them, so it is deterministic in their order
/// and the evaluator can carry stack contents from one plan to another by
/// [`SlotSig`] equality.
pub fn compile(specs: &[QuerySpec], partitioned: bool) -> SharedPlan {
    let mut plan = SharedPlan::new(partitioned);
    specs.iter().for_each(|spec| plan.attach(spec));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{TypeRegistry, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "D", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn spec(text: &str, reg: &TypeRegistry) -> QuerySpec {
        QuerySpec {
            query: parse(text, reg).unwrap(),
            epoch: 0,
            active: true,
        }
    }

    #[test]
    fn common_prefix_pools_stacks_and_forms_group() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b, D d) WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        // A and B stacks shared; C and D private: 4 stacks, not 6
        assert_eq!(plan.stacks.len(), 4);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        assert_eq!(g.prefix_len(), 2);
        assert_eq!(g.members.len(), 2);
        assert_eq!(plan.grouped_queries(), 2);
        // prefix anchors are shared, final anchors stay per-query
        let a_stack = &plan.stacks[plan.queries[0].stack_of_slot[0]];
        assert_eq!(a_stack.shared_anchors, vec![(0, 0)]);
        assert!(a_stack.plain_refs.is_empty());
        let c_stack = &plan.stacks[plan.queries[0].stack_of_slot[2]];
        assert_eq!(c_stack.plain_refs, vec![StackRef { query: 0, slot: 2 }]);
    }

    #[test]
    fn window_mismatch_blocks_grouping_but_not_pooling() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 60", &reg),
        ];
        let plan = compile(&specs, true);
        // stacks pool regardless of window (stack content is window-free)
        assert_eq!(plan.stacks.len(), 3);
        // but the shared walk depends on the window, so no group forms
        assert!(plan.groups.is_empty());
        // every anchor is plain
        let a_stack = &plan.stacks[0];
        assert_eq!(a_stack.plain_refs.len(), a_stack.refs.len());
    }

    #[test]
    fn local_predicates_split_stacks() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 6 WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        // A stacks: {x>5} shared by q0,q2; {x>6} private; B shared by all
        assert_eq!(plan.stacks.len(), 3);
        let a5 = &plan.stacks[plan.queries[0].stack_of_slot[0]];
        assert_eq!(a5.refs.len(), 2);
        assert_eq!(a5.local_preds.len(), 1);
    }

    #[test]
    fn routing_only_lists_interested_nodes() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg),
            spec("PATTERN SEQ(C c, !N n, D d) WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        let a = reg.lookup("A").unwrap();
        let n = reg.lookup("N").unwrap();
        let c = reg.lookup("C").unwrap();
        assert_eq!(plan.routing[a.index()].stacks.len(), 1);
        assert!(plan.routing[a.index()].neg_queries.is_empty());
        assert_eq!(plan.routing[n.index()].neg_queries, vec![1]);
        assert!(plan.routing[n.index()].stacks.is_empty());
        assert_eq!(plan.routing[c.index()].stacks.len(), 1);
        let b_unused = reg.lookup("N").unwrap();
        assert!(plan.route(b_unused).is_some());
    }

    #[test]
    fn epochs_segregate_stacks() {
        let reg = registry();
        let mut s1 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        let mut s2 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        s1.epoch = 0;
        s2.epoch = 1;
        let plan = compile(&[s1, s2], true);
        assert_eq!(plan.stacks.len(), 4, "different epochs never pool");
        assert!(plan.groups.is_empty());
    }

    #[test]
    fn inactive_queries_own_no_plan_nodes() {
        let reg = registry();
        let mut s1 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        let s2 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        s1.active = false;
        let plan = compile(&[s1, s2], true);
        assert_eq!(plan.queries.len(), 2);
        assert!(plan.queries[0].stack_of_slot.is_empty());
        assert_eq!(plan.stacks.len(), 2);
        for s in &plan.stacks {
            assert_eq!(s.refs.len(), 1);
        }
    }

    #[test]
    fn partition_scheme_is_part_of_the_signature() {
        let reg = registry();
        let joined = spec("PATTERN SEQ(A a, B b) WHERE a.tag == b.tag WITHIN 50", &reg);
        let plain = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        let plan = compile(&[joined.clone(), plain.clone()], true);
        assert_eq!(plan.stacks.len(), 4, "keyed and unkeyed slots never pool");
        let flat = compile(&[joined, plain], false);
        assert_eq!(flat.stacks.len(), 2, "unpartitioned evaluation pools them");
    }

    #[test]
    fn stable_query_id_ignores_variable_spelling() {
        let reg = registry();
        let q1 = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 50", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A  p,   B q) WHERE p.x == q.x WITHIN 50", &reg).unwrap();
        let q3 = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 51", &reg).unwrap();
        assert!(q1.normalized_eq(&q2));
        assert!(!q1.normalized_eq(&q3));
        assert_eq!(stable_query_id(&q1), stable_query_id(&q2));
        assert_ne!(stable_query_id(&q1), stable_query_id(&q3));
    }

    #[test]
    fn a_query_with_two_chains_gets_one_scheme_and_one_id() {
        // both `x` and `tag` chain every positive; the first chain in the
        // text keys the query, whatever order a parse meets them in
        let reg = registry();
        let text = "PATTERN SEQ(A a, B b) WHERE a.x == b.x AND a.tag == b.tag WITHIN 10";
        let first = parse(text, &reg).unwrap();
        let (x, _) = reg.schema(reg.lookup("A").unwrap()).field("x").unwrap();
        let scheme = first.partition().expect("an equality chain keys it");
        assert_eq!(scheme.fields, [x; 2], "keyed by the first chain");
        for _ in 0..64 {
            let again = parse(text, &reg).unwrap();
            assert_eq!(again.partition(), first.partition());
            assert!(again.normalized_eq(&first));
            assert_eq!(stable_query_id(&again), stable_query_id(&first));
        }
    }

    #[test]
    fn spanning_predicates_do_not_block_grouping() {
        let reg = registry();
        let specs = [
            spec(
                "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND a.x < c.x WITHIN 50",
                &reg,
            ),
            spec(
                "PATTERN SEQ(A a, B b, D d) WHERE a.x == b.x WITHIN 50",
                &reg,
            ),
        ];
        let plan = compile(&specs, true);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        assert_eq!(g.common.len(), 1, "a.x == b.x is the shared predicate");
        // at position 0 (binding a): member 0 sees both predicates, the
        // second one spanning; member 1 sees only the common one
        assert_eq!(
            g.binds[0].per_member,
            vec![
                (0, vec![BindEntry::Common(0), BindEntry::Spanning]),
                (1, vec![BindEntry::Common(0)])
            ]
        );
    }

    /// The reference [`compile`] is checked against: the whole-plan
    /// compiler this crate had before [`SharedPlan::attach`], four passes
    /// over the full query set (intern stacks, group, plain refs, routing).
    fn compile_whole(specs: &[QuerySpec], partitioned: bool) -> SharedPlan {
        let mut stacks: Vec<StackNode> = Vec::new();
        let mut sig_ix: HashMap<SlotSig, usize> = HashMap::new();
        let mut queries: Vec<QueryNode> = Vec::new();

        // 1. intern pooled stacks
        for (qix, spec) in specs.iter().enumerate() {
            let mut stack_of_slot = Vec::new();
            if spec.active {
                let q = &spec.query;
                for slot in 0..q.positive_len() {
                    let sig = slot_sig(q, slot, spec.epoch, partitioned);
                    let six = *sig_ix.entry(sig.clone()).or_insert_with(|| {
                        let local_preds: Vec<Predicate> =
                            q.local_predicates(slot).into_iter().cloned().collect();
                        stacks.push(StackNode {
                            sig,
                            refs: Vec::new(),
                            band: Band::of(&local_preds),
                            local_preds,
                            local_comp: q.positive_comp(slot),
                            local_components: q.components().len(),
                            shared_anchors: Vec::new(),
                            plain_refs: Vec::new(),
                            finals: Vec::new(),
                            prefix_window: None,
                        });
                        stacks.len() - 1
                    });
                    stacks[six].refs.push(StackRef { query: qix, slot });
                    stack_of_slot.push(six);
                }
            }
            queries.push(QueryNode {
                query: Arc::clone(&spec.query),
                epoch: spec.epoch,
                stack_of_slot,
                group: None,
                active: spec.active,
            });
        }
        for node in stacks.iter_mut() {
            let q = |r: &StackRef| &queries[r.query].query;
            let prefix = node
                .refs
                .iter()
                .filter(|r| r.slot + 1 < q(r).positive_len());
            node.prefix_window = prefix.map(|r| q(r).window()).max();
        }

        // 2. group queries by (prefix stacks, window, intra-prefix predicates)
        type GroupKey = (Vec<usize>, u64, Vec<String>);
        let mut group_members: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        let mut key_order: Vec<GroupKey> = Vec::new();
        for (qix, node) in queries.iter().enumerate() {
            if !node.active || node.query.positive_len() < 2 {
                continue;
            }
            let q = &node.query;
            let m = q.positive_len();
            let prefix_stacks: Vec<usize> = node.stack_of_slot[..m - 1].to_vec();
            let final_comp = q.positive_comp(m - 1);
            let intra: Vec<String> = q
                .predicates()
                .iter()
                .filter(|p| !p.mask().contains(final_comp))
                .map(|p| canon_pred(q, p))
                .collect();
            let key = (prefix_stacks, q.window().ticks(), intra);
            let members = group_members.entry(key.clone()).or_insert_with(|| {
                key_order.push(key);
                Vec::new()
            });
            members.push(qix);
        }

        let mut groups: Vec<PrefixGroup> = Vec::new();
        for key in key_order {
            let members = &group_members[&key];
            if members.len() < 2 {
                continue;
            }
            let rep_ix = members[0];
            let rep = Arc::clone(&queries[rep_ix].query);
            let m = rep.positive_len();
            let prefix_len = m - 1;
            let rep_final_comp = rep.positive_comp(prefix_len);
            let common: Vec<Predicate> = rep
                .predicates()
                .iter()
                .filter(|p| !p.mask().contains(rep_final_comp))
                .cloned()
                .collect();
            let rep_comp_of_pos: Vec<usize> =
                (0..prefix_len).map(|p| rep.positive_comp(p)).collect();
            let mut binds: Vec<BindPlan> = Vec::new();
            for (pos, &rep_comp) in rep_comp_of_pos.iter().enumerate() {
                let common_touching: Vec<usize> = common
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.mask().contains(rep_comp))
                    .map(|(i, _)| i)
                    .collect();
                let mut per_member = Vec::new();
                for (mx, &mix) in members.iter().enumerate() {
                    let mq = &queries[mix].query;
                    let m_final = mq.positive_comp(mq.positive_len() - 1);
                    let m_comp = mq.positive_comp(pos);
                    let mut entries = Vec::new();
                    let mut common_counter = 0usize;
                    for p in mq.predicates() {
                        let is_common = !p.mask().contains(m_final);
                        if p.mask().contains(m_comp) {
                            entries.push(if is_common {
                                BindEntry::Common(common_counter)
                            } else {
                                BindEntry::Spanning
                            });
                        }
                        if is_common {
                            common_counter += 1;
                        }
                    }
                    if !entries.is_empty() {
                        per_member.push((mx, entries));
                    }
                }
                binds.push(BindPlan {
                    common_touching,
                    per_member,
                });
            }
            let group_ix = groups.len();
            for (pos, &six) in key.0.iter().enumerate() {
                stacks[six].shared_anchors.push((group_ix, pos));
            }
            let group_members_built: Vec<GroupMember> = members
                .iter()
                .enumerate()
                .map(|(mx, &mix)| {
                    let mq = &queries[mix].query;
                    let final_slot = mq.positive_len() - 1;
                    let final_stack = queries[mix].stack_of_slot[final_slot];
                    stacks[final_stack].finals.push((group_ix, mx));
                    queries[mix].group = Some(group_ix);
                    GroupMember {
                        query: mix,
                        final_stack,
                    }
                })
                .collect();
            groups.push(PrefixGroup {
                window: rep.window(),
                prefix_stacks: key.0,
                common,
                rep,
                rep_comp_of_pos,
                binds,
                members: group_members_built,
            });
        }

        // 3. plain refs: anchors not covered by a group's shared prefix walk
        let grouped: HashMap<usize, usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(gix, g)| g.members.iter().map(move |m| (m.query, gix)))
            .collect();
        for node in stacks.iter_mut() {
            let refs = node.refs.clone();
            for r in refs {
                let covered = grouped.contains_key(&r.query)
                    && r.slot + 1 < queries[r.query].query.positive_len();
                if !covered {
                    node.plain_refs.push(r);
                }
            }
        }

        // 4. event-type routing index
        let mut routing: HashMap<EventTypeId, RouteEntry> = HashMap::new();
        for (six, node) in stacks.iter().enumerate() {
            for &ty in &node.sig.types {
                routing.entry(ty).or_default().stacks.push(six);
            }
        }
        for (qix, node) in queries.iter().enumerate() {
            if !node.active {
                continue;
            }
            for neg in node.query.negations() {
                for &ty in &neg.types {
                    let entry = routing.entry(ty).or_default();
                    if entry.neg_queries.last() != Some(&qix) && !entry.neg_queries.contains(&qix) {
                        entry.neg_queries.push(qix);
                    }
                }
            }
            let q = &node.query;
            for ty in q.relevant_types() {
                let slots = q.slots_for_type(ty);
                if slots.len() > 1 {
                    let stacks = slots.iter().map(|&s| node.stack_of_slot[s]).collect();
                    routing
                        .entry(ty)
                        .or_default()
                        .multi_slot
                        .push((qix, stacks));
                }
            }
        }

        let mut plan = SharedPlan {
            queries,
            stacks,
            groups,
            ..SharedPlan::default()
        };
        for (ty, entry) in routing {
            *plan.route_mut(ty) = entry;
        }
        plan
    }

    /// What the evaluator reads of a plan, with every group named by its
    /// first member instead of its index: `attach` numbers groups in the
    /// order they form (by second member), the whole-plan compiler by first
    /// member, so the indices — and with them the order of a stack's
    /// `shared_anchors` — may differ while the groups do not.
    fn shape(plan: &SharedPlan) -> String {
        let first = |gix: usize| plan.groups[gix].members[0].query;
        let mut out = String::new();
        for q in &plan.queries {
            let group = q.group.map(first);
            let _ = writeln!(
                out,
                "q {:?} {} {} group {group:?}",
                q.stack_of_slot, q.epoch, q.active
            );
        }
        for n in &plan.stacks {
            let mut anchors: Vec<_> = n
                .shared_anchors
                .iter()
                .map(|&(g, p)| (first(g), p))
                .collect();
            anchors.sort();
            let mut finals: Vec<_> = n
                .finals
                .iter()
                .map(|&(g, m)| plan.groups[g].members[m].query)
                .collect();
            finals.sort();
            let _ = writeln!(
                out,
                "s {:?} refs {:?} plain {:?} anchors {anchors:?} local {} {} {} band {:?} \
                 finals {finals:?} purge {:?}",
                n.sig,
                n.refs,
                n.plain_refs,
                n.local_preds.len(),
                n.local_comp,
                n.local_components,
                n.band,
                n.prefix_window
            );
        }
        let mut groups: Vec<&PrefixGroup> = plan.groups.iter().collect();
        groups.sort_by_key(|g| g.members[0].query);
        for g in groups {
            let members: Vec<_> = g.members.iter().map(|m| (m.query, m.final_stack)).collect();
            let rep = plan
                .queries
                .iter()
                .position(|q| Arc::ptr_eq(&q.query, &g.rep));
            let binds: Vec<_> = g
                .binds
                .iter()
                .map(|b| (&b.common_touching, &b.per_member))
                .collect();
            let _ = writeln!(
                out,
                "g {members:?} rep {rep:?} {:?} {:?} {:?} common {} binds {binds:?}",
                g.prefix_stacks,
                g.window,
                g.rep_comp_of_pos,
                g.common.len()
            );
        }
        for ty in (0..plan.routing.len()).map(EventTypeId::from_index) {
            let Some(entry) = plan.route(ty) else {
                continue;
            };
            let _ = writeln!(
                out,
                "r {ty:?} {:?} {:?} {:?}",
                entry.stacks, entry.neg_queries, entry.multi_slot
            );
        }
        out
    }

    /// Random registration histories — subscribe, unsubscribe, a new epoch
    /// — replayed the way the evaluator replays them (`attach` per
    /// registration, a fresh `compile` after an unregistration): after
    /// every step the grown plan, the folded plan and the whole-plan
    /// reference have the same shape.
    #[test]
    fn attach_grows_the_plan_the_whole_compiler_builds() {
        let reg = registry();
        let texts = [
            "PATTERN SEQ(A a, B b, C c) WITHIN 50",
            "PATTERN SEQ(A a, B b, D d) WITHIN 50",
            "PATTERN SEQ(A a, B b, D d) WHERE d.x > 3 WITHIN 50",
            "PATTERN SEQ(A a, B b, C c) WITHIN 60",
            "PATTERN SEQ(A a, B b, D d) WITHIN 60",
            "PATTERN SEQ(A a, B b) WITHIN 50",
            "PATTERN SEQ(A a, A b, C c) WITHIN 50",
            "PATTERN SEQ(A a, A b, D d) WITHIN 50",
            "PATTERN SEQ(A a, !N n, B b, C c) WITHIN 50",
            "PATTERN SEQ(A a, !N n, B b, D d) WHERE a.x < d.x WITHIN 50",
            "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 50",
            "PATTERN SEQ(A a, B b, D d) WHERE a.tag == b.tag AND b.tag == d.tag WITHIN 50",
            "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND a.x < c.x WITHIN 50",
            "PATTERN SEQ(A a, B b, D d) WHERE a.x == b.x WITHIN 50",
            "PATTERN SEQ(A a, B b, D d) WHERE a.x > 5 WITHIN 50",
            "PATTERN SEQ(N m, C c) WHERE m.tag == c.tag WITHIN 50",
            "PATTERN SEQ(C c) WITHIN 5",
            "PATTERN SEQ(A a, B b, C c) WHERE c.x >= 2 AND c.x < 3 WITHIN 50",
            "PATTERN SEQ(A a, A b, D d) WHERE b.x > 3 WITHIN 50",
            "PATTERN SEQ(A|B a, B b, C c) WHERE 4 <= a.x WITHIN 70",
        ];
        let queries: Vec<Arc<Query>> = texts.iter().map(|t| parse(t, &reg).unwrap()).collect();
        let mut groups_seen = 0;
        for seed in 1..=40 {
            let mut rng = sequin_prng::Rng::seed_from_u64(seed);
            let partitioned = rng.gen_bool(0.7);
            let mut specs: Vec<QuerySpec> = Vec::new();
            let mut grown = SharedPlan::new(partitioned);
            let mut epoch = 0;
            for step in 0..60 {
                match rng.gen_range(0..10u32) {
                    0 => epoch += 1,
                    1 | 2 if !specs.is_empty() => {
                        let qix = rng.gen_range(0..specs.len());
                        specs[qix].active = false;
                        grown = compile(&specs, partitioned);
                    }
                    _ => {
                        let query = Arc::clone(&queries[rng.gen_range(0..queries.len())]);
                        specs.push(QuerySpec {
                            query,
                            epoch,
                            active: true,
                        });
                        grown.attach(specs.last().unwrap());
                    }
                }
                let want = shape(&compile_whole(&specs, partitioned));
                let context = format!("seed {seed} step {step}");
                assert_eq!(shape(&grown), want, "grown plan, {context}");
                assert_eq!(
                    shape(&compile(&specs, partitioned)),
                    want,
                    "folded plan, {context}"
                );
            }
            groups_seen += grown.groups.len();
        }
        assert!(groups_seen > 40, "the histories form groups: {groups_seen}");
    }

    /// Random slot predicates — every comparison, `Int` constants out to
    /// `i64::MIN` / `MAX`, `Float` constants, the constant on either side,
    /// one field or two — against random values of every kind, a missing
    /// field included: a [`Band`] forms exactly for the shapes it decides,
    /// and the first failing predicate (so the evaluation count) that the
    /// band and [`StackNode::first_failing`] report is the one
    /// [`Predicate::eval`]'s short-circuit finds.
    #[test]
    fn a_band_decides_exactly_what_the_predicates_do() {
        use sequin_query::ast::{ComponentAst, ExprAst, QueryAst};
        use sequin_types::{Event, Timestamp};

        // built as an AST: text spells no `NaN`, and reads `-5` as `Neg(5)`
        let component = |ty: &str, var: &str| ComponentAst {
            negated: false,
            type_names: vec![ty.to_owned()],
            var: var.to_owned(),
            offset: 0,
        };
        let attr = |field: &str| ExprAst::Attr {
            var: "a".to_owned(),
            field: field.to_owned(),
            offset: 0,
        };
        let binary = |op, lhs, rhs| ExprAst::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };

        let reg = registry();
        let a = reg.lookup("A").unwrap();
        let int = |rng: &mut sequin_prng::Rng| match rng.gen_range(0..8u32) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MIN + 1,
            3 => i64::MAX - 1,
            _ => rng.gen_range(-3..4i64),
        };
        let (mut formed, mut decided) = (0, 0);
        for seed in 1..=400 {
            let mut rng = sequin_prng::Rng::seed_from_u64(seed);
            let (mut filter, mut fields, mut all_int) = (None, Vec::new(), true);
            for _ in 0..rng.gen_range(1..=3usize) {
                let field = if rng.gen_bool(0.85) { "x" } else { "tag" };
                fields.push(field);
                let constant = if rng.gen_bool(0.15) {
                    all_int = false;
                    ExprAst::Const(Value::Float(
                        [0.5, -2.0, 1e300, f64::NAN][rng.gen_range(0..4usize)],
                    ))
                } else {
                    ExprAst::Const(Value::Int(int(&mut rng)))
                };
                let (l, r) = match rng.gen_bool(0.3) {
                    true => (constant, attr(field)),
                    false => (attr(field), constant),
                };
                let op = match rng.gen_range(0..6u32) {
                    0 => BinaryOp::Lt,
                    1 => BinaryOp::Le,
                    2 => BinaryOp::Gt,
                    3 => BinaryOp::Ge,
                    4 => BinaryOp::Eq,
                    _ => BinaryOp::Ne,
                };
                let conjunct = binary(op, l, r);
                filter = Some(match filter {
                    Some(acc) => binary(BinaryOp::And, acc, conjunct),
                    None => conjunct,
                });
            }
            let ast = QueryAst {
                components: vec![component("A", "a"), component("B", "b")],
                filter,
                within: 10,
                returns: Vec::new(),
            };
            let query = sequin_query::analyze(&ast, &reg).unwrap();
            let preds = query.local_predicates(0);
            let plan = compile(
                &[QuerySpec {
                    query: Arc::clone(&query),
                    epoch: 0,
                    active: true,
                }],
                true,
            );
            let node = &plan.stacks[plan.queries[0].stack_of_slot[0]];
            let one_field = fields.iter().all(|f| *f == fields[0]);
            assert_eq!(node.band.is_some(), all_int && one_field, "seed {seed}");
            formed += usize::from(node.band.is_some());
            let value = |rng: &mut sequin_prng::Rng| match rng.gen_range(0..6u32) {
                0 => Value::Float([0.5, -0.0, f64::NAN, f64::INFINITY][rng.gen_range(0..4usize)]),
                1 => Value::str("s"),
                2 => Value::Bool(rng.gen_bool(0.5)),
                _ => Value::Int(int(rng)),
            };
            for _ in 0..50 {
                let mut attrs = vec![value(&mut rng), value(&mut rng)];
                // now and then a field is missing: `tag`, or both
                if rng.gen_bool(0.1) {
                    attrs.truncate(rng.gen_range(0..2usize));
                }
                let event: EventRef = Arc::new(Event::new(a, Timestamp::new(1), attrs));
                let want = with_binding(query.components().len(), |binding| {
                    binding[query.positive_comp(0)] = Some(&event);
                    preds.iter().position(|p| p.eval(binding) != Some(true))
                });
                assert_eq!(node.first_failing(&event), want, "seed {seed}: {event:?}");
                if let Some(band) = &node.band {
                    if let Some(&Value::Int(v)) = event.field(band.field) {
                        assert_eq!(band.first_failing(v), want, "seed {seed}: {v}");
                        decided += 1;
                    }
                }
            }
        }
        assert!(
            formed > 150 && decided > 5_000,
            "{formed} bands, {decided} decided"
        );
    }
}
