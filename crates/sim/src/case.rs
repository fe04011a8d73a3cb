//! Seed-driven generation of (query, stream, configuration) cases.
//!
//! A [`CaseData`] is a plain-data description of one differential test
//! case: a set of N ≥ 1 [`SimQuery`]s (each a [`QueryPlan`], rendered
//! through both [`QueryBuilder`] and the text parser, plus the
//! [`DisorderPolicy`] it runs under), an arrival-ordered item list with
//! disorder, duplicates and punctuations already baked in, and a
//! [`CaseConfig`] choosing the engine knobs the case exercises. Most
//! cases hold one query; the rest hold two to four, mostly prefix
//! siblings of an earlier one — differing only in the final component, a
//! local predicate or the projection — so the plan actually pools stacks
//! and forms prefix groups, and each draws its own policy, so one plan
//! mixes policy classes. Everything derives from a single `u64` seed
//! through [`sequin_prng::Rng`], so any case can be regenerated from its
//! `--seed`/`--case` pair, and the shrinker can mutate the plain data
//! directly while preserving replayability.

use std::sync::Arc;

pub use sequin_engine::DisorderPolicy;
use sequin_netsim::{delay_shuffle, measure_disorder, punctuate, Crash};
use sequin_prng::Rng;
use sequin_query::{pred, AnalyzeError, Query, QueryBuilder};
use sequin_types::{
    Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, Value, ValueKind,
};

/// The fixed simulation alphabet: five event types, each with integer
/// attributes `x` (the predicate knob) and `tag` (the correlation key).
pub const TYPE_NAMES: [&str; 5] = ["A", "B", "C", "D", "E"];

/// Builds the simulation schema shared by every case.
pub fn sim_registry() -> Arc<TypeRegistry> {
    let mut reg = TypeRegistry::new();
    for name in TYPE_NAMES {
        reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
            .expect("unique names");
    }
    Arc::new(reg)
}

/// One pattern component of a [`QueryPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompPlan {
    /// Negated component (`!T`).
    pub negated: bool,
    /// Indexes into [`TYPE_NAMES`]; more than one forms an alternation.
    pub types: Vec<usize>,
    /// Variable name bound by the component.
    pub var: String,
}

/// Comparison operator of a [`LocalPred`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `var.x < value`
    Lt,
    /// `var.x >= value`
    Ge,
}

/// A single-variable `WHERE` conjunct `var.x OP value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalPred {
    /// Index into [`QueryPlan::comps`] of the constrained component.
    pub comp: usize,
    /// Comparison operator.
    pub op: PredOp,
    /// Right-hand constant.
    pub value: i64,
}

/// A generated SEQ query, as plain data.
///
/// The plan renders two ways — through [`QueryBuilder`] and as `PATTERN`
/// text for the parser — and the harness asserts both front ends produce
/// the same [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Components in pattern order (positives and negations).
    pub comps: Vec<CompPlan>,
    /// `WITHIN` window in ticks.
    pub window: u64,
    /// Single-variable predicates.
    pub preds: Vec<LocalPred>,
    /// Chain `v_{i}.tag == v_{i+1}.tag` across consecutive positives
    /// (gives the query a partition scheme).
    pub tag_join: bool,
    /// Add `RETURN v.x` for the first positive component.
    pub project_first: bool,
}

impl QueryPlan {
    /// Indexes of the positive (non-negated) components.
    pub fn positive_ixs(&self) -> Vec<usize> {
        (0..self.comps.len())
            .filter(|&i| !self.comps[i].negated)
            .collect()
    }

    /// The query as `PATTERN` text (parseable by [`sequin_query::parse`]).
    pub fn text(&self) -> String {
        let comps: Vec<String> = self
            .comps
            .iter()
            .map(|c| {
                let tys: Vec<&str> = c.types.iter().map(|&t| TYPE_NAMES[t]).collect();
                format!(
                    "{}{} {}",
                    if c.negated { "!" } else { "" },
                    tys.join("|"),
                    c.var
                )
            })
            .collect();
        let mut conjuncts: Vec<String> = self
            .preds
            .iter()
            .map(|p| {
                let op = match p.op {
                    PredOp::Lt => "<",
                    PredOp::Ge => ">=",
                };
                format!("{}.x {} {}", self.comps[p.comp].var, op, p.value)
            })
            .collect();
        if self.tag_join {
            let pos = self.positive_ixs();
            for pair in pos.windows(2) {
                conjuncts.push(format!(
                    "{}.tag == {}.tag",
                    self.comps[pair[0]].var, self.comps[pair[1]].var
                ));
            }
        }
        let mut out = format!("PATTERN SEQ({})", comps.join(", "));
        if !conjuncts.is_empty() {
            out.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
        }
        out.push_str(&format!(" WITHIN {}", self.window));
        if self.project_first {
            if let Some(&first) = self.positive_ixs().first() {
                out.push_str(&format!(" RETURN {}.x", self.comps[first].var));
            }
        }
        out
    }

    /// Builds the query through [`QueryBuilder`] (the programmatic front
    /// end the tentpole exercises).
    pub fn build(&self, registry: &TypeRegistry) -> Result<Arc<Query>, AnalyzeError> {
        let mut b = QueryBuilder::new();
        for c in &self.comps {
            let tys: Vec<&str> = c.types.iter().map(|&t| TYPE_NAMES[t]).collect();
            b = if c.negated {
                b.negated_any(&tys, &c.var)
            } else {
                b.component_any(&tys, &c.var)
            };
        }
        for p in &self.preds {
            let lhs = pred::attr(&self.comps[p.comp].var, "x");
            let rhs = pred::int(p.value);
            b = b.filter(match p.op {
                PredOp::Lt => lhs.lt(rhs),
                PredOp::Ge => lhs.ge(rhs),
            });
        }
        if self.tag_join {
            let pos = self.positive_ixs();
            for pair in pos.windows(2) {
                b = b.filter(
                    pred::attr(&self.comps[pair[0]].var, "tag")
                        .eq(pred::attr(&self.comps[pair[1]].var, "tag")),
                );
            }
        }
        b = b.within(self.window);
        if self.project_first {
            if let Some(&first) = self.positive_ixs().first() {
                b = b.returns(&self.comps[first].var, "x");
            }
        }
        b.build(registry)
    }
}

/// A generated event, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// Index into [`TYPE_NAMES`].
    pub ty: usize,
    /// Event id (duplicated deliveries share the id).
    pub id: u64,
    /// Occurrence timestamp in ticks.
    pub ts: u64,
    /// The `x` attribute.
    pub x: i64,
    /// The `tag` attribute.
    pub tag: i64,
}

impl SimEvent {
    /// Materializes the event against the simulation schema.
    pub fn to_event(self, registry: &TypeRegistry) -> EventRef {
        Arc::new(
            Event::builder(
                registry.lookup(TYPE_NAMES[self.ty]).expect("sim schema"),
                Timestamp::new(self.ts),
            )
            .id(EventId::new(self.id))
            .attr(Value::Int(self.x))
            .attr(Value::Int(self.tag))
            .build(),
        )
    }
}

/// One arrival-ordered stream item, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimItem {
    /// An event delivery (possibly a duplicate of an earlier one).
    Event(SimEvent),
    /// A punctuation asserting the low-watermark `ts`.
    Punct(u64),
}

/// Engine/runtime knobs a case exercises.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Disorder bound `K` (always at least the stream's measured maximum
    /// lateness, so the run is K-slack valid).
    pub k: u64,
    /// Purge cadence (`None` = never purge).
    pub purge_every: Option<u32>,
    /// Watermark source: 0 = K-slack, 1 = punctuation, 2 = both.
    pub watermark: u8,
    /// Chunk size for the batched-ingestion path.
    pub batch: usize,
    /// Checkpoint cadence for the crash/resume path.
    pub ckpt_every: u64,
    /// Item index the crash/resume path dies at (clamped to the stream).
    pub crash_at: u64,
    /// Run the networked loopback path for this case.
    pub loopback: bool,
}

/// One query of a case: its plan and the disorder policy it runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct SimQuery {
    /// The generated query.
    pub plan: QueryPlan,
    /// Its disorder-handling policy. The first query's is also the
    /// host's default, which that query subscribes under without naming it.
    pub policy: DisorderPolicy,
}

/// A fully described differential test case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseData {
    /// The query set, textually distinct and never empty.
    pub queries: Vec<SimQuery>,
    /// The arrival-ordered stream (disorder, duplicates and punctuations
    /// already applied), shared by every query.
    pub items: Vec<SimItem>,
    /// Engine knobs.
    pub config: CaseConfig,
}

impl CaseData {
    /// Materializes the item list against the simulation schema.
    pub fn stream(&self, registry: &TypeRegistry) -> Vec<StreamItem> {
        items_to_stream(&self.items, registry)
    }

    /// The distinct events of the stream (duplicates removed), sorted by
    /// `(ts, id)` — the oracle's input.
    pub fn unique_events(&self, registry: &TypeRegistry) -> Vec<EventRef> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for it in &self.items {
            if let SimItem::Event(e) = it {
                if seen.insert((e.ts, e.id)) {
                    out.push(e.to_event(registry));
                }
            }
        }
        out.sort_by_key(|e| (e.ts(), e.id()));
        out
    }

    /// Generates the case for `(seed, case_ix)`. Deterministic: the same
    /// pair always yields the same case.
    pub fn generate(seed: u64, case_ix: u64) -> CaseData {
        let mut rng = Rng::seed_from_u64(case_seed(seed, case_ix));
        let plan = gen_query(&mut rng);
        let (items, measured_lateness) = gen_items(&mut rng);
        let (config, policy) = gen_config(&mut rng, &items, measured_lateness);
        let mut queries = vec![SimQuery { plan, policy }];
        // the further queries draw last, so the first query, the stream and
        // the knobs of a `(seed, case)` pair do not depend on how many follow
        let want = if rng.gen_bool(0.4) {
            rng.gen_range(2..=4usize)
        } else {
            1
        };
        let mut attempts = 0;
        while queries.len() < want && attempts < 32 {
            attempts += 1;
            let plan = if rng.gen_bool(0.7) {
                let base = queries[rng.gen_range(0..queries.len())].plan.clone();
                derive_sibling(&mut rng, base)
            } else {
                gen_query(&mut rng)
            };
            if queries.iter().all(|q| q.plan.text() != plan.text()) {
                let policy = gen_policy(&mut rng);
                queries.push(SimQuery { plan, policy });
            }
        }
        CaseData {
            queries,
            items,
            config,
        }
    }
}

/// Draws the engine/runtime knobs for a generated item list, and the
/// first query's policy.
fn gen_config(
    rng: &mut Rng,
    items: &[SimItem],
    measured_lateness: u64,
) -> (CaseConfig, DisorderPolicy) {
    let has_punct = items.iter().any(|i| matches!(i, SimItem::Punct(_)));
    let watermark = if has_punct {
        if rng.gen_bool(0.5) {
            1 // punctuation only
        } else {
            2 // both
        }
    } else {
        0 // k-slack
    };
    let purge_every = match rng.gen_range(0..10u32) {
        0 => None,                              // never purge
        1..=5 => Some(1),                       // eager (purge bugs bite here)
        6 | 7 => Some(rng.gen_range(2..=5u32)), // small batches
        _ => Some(64),                          // the default cadence
    };
    let crash_at = gen_crash_point(rng, items);
    let k = measured_lateness + rng.gen_range(0..=3u64);
    let policy = gen_policy(rng);
    let config = CaseConfig {
        k,
        purge_every,
        watermark,
        batch: *[1usize, 2, 3, 5, 8, 64]
            .get(rng.gen_range(0..6usize))
            .expect("in range"),
        ckpt_every: rng.gen_range(3..=17u64),
        crash_at,
        loopback: rng.gen_bool(0.25),
    };
    (config, policy)
}

/// Draws a [`DisorderPolicy`], covering all four modes (a few adaptive
/// accuracy levels included) with conservative as the most common.
fn gen_policy(rng: &mut Rng) -> DisorderPolicy {
    match rng.gen_range(0..8u32) {
        0..=2 => DisorderPolicy::Conservative,
        3 | 4 => DisorderPolicy::Speculative,
        5 => DisorderPolicy::Lazy,
        _ => DisorderPolicy::AdaptiveSlack {
            accuracy: *[0u8, 50, 90, 100]
                .get(rng.gen_range(0..4usize))
                .expect("in range"),
        },
    }
}

/// Mixes `(seed, case_ix)` into one generator seed. The mix goes through
/// one SplitMix64 finalisation: the generator itself steps its state by
/// the same constant the mix multiplies by, so without it case `N + 1`
/// would replay case `N`'s stream shifted by one draw.
pub fn case_seed(seed: u64, case_ix: u64) -> u64 {
    let mut z = seed ^ case_ix.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Materializes a plain-data item list against the simulation schema.
pub fn items_to_stream(items: &[SimItem], registry: &TypeRegistry) -> Vec<StreamItem> {
    items
        .iter()
        .map(|it| match it {
            SimItem::Event(e) => StreamItem::Event(e.to_event(registry)),
            SimItem::Punct(ts) => StreamItem::Punctuation(Timestamp::new(*ts)),
        })
        .collect()
}

fn gen_query(rng: &mut Rng) -> QueryPlan {
    let m = rng.gen_range(1..=3usize);
    let pos_vars = ["a", "b", "c"];
    let mut comps: Vec<CompPlan> = (0..m)
        .map(|i| {
            let types = if rng.gen_bool(0.2) {
                let first = rng.gen_range(0..TYPE_NAMES.len());
                let second = (first + rng.gen_range(1..TYPE_NAMES.len())) % TYPE_NAMES.len();
                vec![first, second]
            } else {
                vec![rng.gen_range(0..TYPE_NAMES.len())]
            };
            CompPlan {
                negated: false,
                types,
                var: pos_vars[i].to_owned(),
            }
        })
        .collect();

    // up to two negation flanks (leading / middle / trailing), never
    // adjacent to each other
    let neg_vars = ["na", "nb"];
    let mut negs = 0usize;
    let tries = if rng.gen_bool(0.35) {
        1 + usize::from(rng.gen_bool(0.3))
    } else {
        0
    };
    for _ in 0..tries {
        let at = rng.gen_range(0..=comps.len());
        let left_neg = at > 0 && comps[at - 1].negated;
        let right_neg = at < comps.len() && comps[at].negated;
        if left_neg || right_neg {
            continue;
        }
        comps.insert(
            at,
            CompPlan {
                negated: true,
                types: vec![rng.gen_range(0..TYPE_NAMES.len())],
                var: neg_vars[negs].to_owned(),
            },
        );
        negs += 1;
    }

    let mut preds = Vec::new();
    for (ix, _) in comps.iter().enumerate() {
        let p = if comps[ix].negated { 0.4 } else { 0.3 };
        if rng.gen_bool(p) {
            preds.push(gen_pred(rng, ix));
        }
    }

    let positives = comps.iter().filter(|c| !c.negated).count();
    QueryPlan {
        window: rng.gen_range(4..=48u64),
        tag_join: positives >= 2 && rng.gen_bool(0.35),
        project_first: rng.gen_bool(0.3),
        comps,
        preds,
    }
}

/// Derives a sibling that shares `q`'s leading components and window (so
/// the plan can pool its prefix) but differs in its tail.
fn derive_sibling(rng: &mut Rng, mut q: QueryPlan) -> QueryPlan {
    let last = q.comps.len() - 1;
    match rng.gen_range(0..3u32) {
        0 => {
            // re-point the final component at a different type
            let cur = q.comps[last].types[0];
            let next = (cur + rng.gen_range(1..TYPE_NAMES.len())) % TYPE_NAMES.len();
            q.comps[last].types = vec![next];
        }
        1 => {
            // replace the final component's local predicate
            q.preds.retain(|p| p.comp != last);
            q.preds.push(gen_pred(rng, last));
        }
        // same pattern, different projection — pools every stack
        _ => q.project_first = !q.project_first,
    }
    q
}

fn gen_pred(rng: &mut Rng, comp: usize) -> LocalPred {
    let (op, value) = if rng.gen_bool(0.5) {
        (PredOp::Lt, rng.gen_range(5..=18i64))
    } else {
        (PredOp::Ge, rng.gen_range(2..=10i64))
    };
    LocalPred { comp, op, value }
}

/// Generates the arrival-ordered item list; returns it together with its
/// measured maximum lateness (the minimal valid `K`).
fn gen_items(rng: &mut Rng) -> (Vec<SimItem>, u64) {
    let n = rng.gen_range(12..=40usize);
    let mut ts = 0u64;
    let events: Vec<SimEvent> = (0..n)
        .map(|i| {
            // occasional zero gaps exercise equal-timestamp ties
            ts += if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range(1..=3u64)
            };
            SimEvent {
                ty: rng.gen_range(0..TYPE_NAMES.len()),
                id: i as u64,
                ts: ts.max(1),
                x: rng.gen_range(0..=20i64),
                tag: rng.gen_range(0..=3i64),
            }
        })
        .collect();

    // disorder schedule: in-order / delay-shuffled / shuffled + a reversed
    // burst (models a retransmitted chunk arriving back-to-front)
    let registry = sim_registry();
    let refs: Vec<EventRef> = events.iter().map(|e| e.to_event(&registry)).collect();
    let schedule = rng.gen_range(0..4u32);
    let arrival: Vec<StreamItem> = match schedule {
        0 => refs.iter().cloned().map(StreamItem::Event).collect(),
        _ => {
            let ooo = rng.gen_range(0.1..0.6);
            let max_delay = rng.gen_range(2..=30u64);
            let sub = rng.next_u64();
            let mut s = delay_shuffle(&refs, ooo, max_delay, sub);
            if schedule == 3 && s.len() >= 6 {
                let start = rng.gen_range(0..s.len() - 4);
                let len = rng.gen_range(3..=(s.len() - start).min(8));
                s[start..start + len].reverse();
            }
            s
        }
    };
    let mut items: Vec<SimItem> = arrival
        .iter()
        .map(|it| match it {
            StreamItem::Event(e) => SimItem::Event(sim_event_of(e)),
            StreamItem::Punctuation(t) => SimItem::Punct(t.ticks()),
        })
        .collect();

    // duplicate deliveries: re-send a few events shortly after the original
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1..=3usize) {
            let src = rng.gen_range(0..items.len());
            if let SimItem::Event(e) = items[src] {
                let at = (src + rng.gen_range(1..=4usize)).min(items.len());
                items.insert(at, SimItem::Event(e));
            }
        }
    }

    // omniscient punctuations over the final arrival order (safe by
    // construction: each asserts the true minimum of the remaining suffix)
    if rng.gen_bool(0.4) {
        let stream = items_to_stream(&items, &registry);
        let period = rng.gen_range(3..=10usize);
        items = punctuate(&stream, period)
            .iter()
            .map(|it| match it {
                StreamItem::Event(e) => SimItem::Event(sim_event_of(e)),
                StreamItem::Punctuation(t) => SimItem::Punct(t.ticks()),
            })
            .collect();
    }

    let lateness = measure_disorder(&items_to_stream(&items, &registry))
        .max_lateness
        .ticks();
    (items, lateness)
}

fn gen_crash_point(rng: &mut Rng, items: &[SimItem]) -> u64 {
    let registry = sim_registry();
    let stream = items_to_stream(items, &registry);
    if rng.gen_bool(0.5) {
        // crash when the stream first reaches a random occurrence timestamp
        let max_ts = items
            .iter()
            .filter_map(|it| match it {
                SimItem::Event(e) => Some(e.ts),
                SimItem::Punct(_) => None,
            })
            .max()
            .unwrap_or(1);
        let crash = Crash::AtWatermark(Timestamp::new(rng.gen_range(1..=max_ts)));
        crash.split(&stream).1
    } else {
        rng.gen_range(0..=items.len() as u64)
    }
}

fn sim_event_of(e: &EventRef) -> SimEvent {
    let int_attr = |ix: usize| match e.attrs().get(ix) {
        Some(Value::Int(v)) => *v,
        _ => 0,
    };
    SimEvent {
        ty: e.event_type().index(),
        id: e.id().get(),
        ts: e.ts().ticks(),
        x: int_attr(0),
        tag: int_attr(1),
    }
}
