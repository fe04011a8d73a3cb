//! The paper's native out-of-order engine, for one query.
//!
//! [`NativeEngine`] is a [`MultiEngine`] with exactly one query
//! registered: a single query is a plan of one. Everything the paper
//! describes — positional insert into sorted stacks, construction anchored
//! at the arrival, negation settled against the watermark, purge behind
//! it — happens in that evaluator's one ingest loop; this type only gives
//! the one query untagged outputs.

use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::{CodecError, Duration, StreamItem, Timestamp};

use crate::config::EngineConfig;
use crate::output::OutputItem;
use crate::shared::{MultiEngine, QueryId};

const Q: QueryId = MultiEngine::ONLY;

/// The paper's engine: order-insensitive active instance stacks,
/// arrival-driven construction with out-of-order compensation, and
/// watermark-safe purge.
///
/// * Negation-free matches are emitted the instant their last-arriving
///   constituent is ingested (zero arrival latency, exactly once) — except
///   under [`crate::DisorderPolicy::Lazy`], which defers every emission to the
///   seal drain.
/// * Negation is handled per [`crate::DisorderPolicy`]: conservatively (held
///   until the negation regions seal, then re-validated), speculatively
///   (emitted immediately, retracted if a late negative lands), lazily,
///   or conservatively under an adaptive slack bound.
/// * State is purged against the watermark (`clock − K`, punctuation, or
///   both) using the thresholds derived in [`sequin_runtime::purge`].
/// * With [`EngineConfig::partitioned`] and a query-level equality chain,
///   positive stacks are indexed by the join key; the negative index stays
///   global (negatives filter by predicate at check time).
#[derive(Debug)]
pub struct NativeEngine {
    plan: MultiEngine,
}

/// The outputs of a plan of one, without their tag.
fn untagged(out: Vec<(QueryId, OutputItem)>) -> Vec<OutputItem> {
    out.into_iter().map(|(_, o)| o).collect()
}

impl NativeEngine {
    /// Creates the engine; the query runs under `config`'s policy.
    pub fn new(query: Arc<Query>, config: EngineConfig) -> NativeEngine {
        let mut plan = MultiEngine::new(config);
        plan.register(query, config.policy);
        NativeEngine { plan }
    }

    /// Ingests one arrival (event or punctuation); returns the output it
    /// triggered.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        untagged(self.plan.ingest(item))
    }

    /// Signals end-of-stream: pending matches are sealed as if a final
    /// punctuation at `Timestamp::MAX` arrived.
    pub fn finish(&mut self) -> Vec<OutputItem> {
        untagged(self.plan.finish())
    }

    /// Operator cost counters accumulated so far.
    pub fn stats(&self) -> RuntimeStats {
        self.plan.query_stats(Q)
    }

    /// Events/instances currently held (stacks + pending), the evaluation's
    /// memory metric.
    pub fn state_size(&self) -> usize {
        self.plan.query_state_size(Q)
    }

    /// The query under evaluation.
    pub fn query(&self) -> &Arc<Query> {
        self.plan.query(Q)
    }

    /// The current (monotone) low-watermark.
    pub fn watermark(&self) -> Timestamp {
        self.plan.query_watermark(Q)
    }

    /// The current disorder-bound estimate (`K`, or the adaptive `K̂`).
    pub fn k_hat(&self) -> Duration {
        self.plan.query_slack(Q)
    }

    /// Minimum occurrence timestamp across every live positive-stack
    /// entry, or `None` when all stacks are empty. Inspection hook for the
    /// purge-invariant property tests; not part of the stable API.
    #[doc(hidden)]
    pub fn oldest_stack_ts(&self) -> Option<Timestamp> {
        self.plan.oldest_stack_ts()
    }

    /// The query's checkpoint blob: what its entry in any
    /// [`MultiEngine::snapshot`] envelope holding it would be.
    pub fn snapshot(&self) -> Vec<u8> {
        self.plan.query_blob(Q.index())
    }

    /// Replaces the engine's state with a [`NativeEngine::snapshot`] blob
    /// taken by an identically configured engine, or the query's blob out
    /// of a plan's envelope. On error the previous state is left untouched.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.plan.restore_blobs(&[bytes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DisorderPolicy, WatermarkSource};
    use crate::output::OutputKind;
    use sequin_query::parse;
    use sequin_runtime::purge::PurgePolicy;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(x))
                .build(),
        ))
    }

    fn run_to_end(engine: &mut NativeEngine, items: &[StreamItem]) -> Vec<OutputItem> {
        let mut out: Vec<_> = items.iter().flat_map(|it| engine.ingest(it)).collect();
        out.extend(engine.finish());
        out
    }

    fn keys(out: &[OutputItem]) -> Vec<(bool, Vec<u64>)> {
        let mut v: Vec<(bool, Vec<u64>)> = out
            .iter()
            .map(|o| {
                (
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn out_of_order_match_recovered_immediately() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "B", 1, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&item(&reg, "A", 2, 10, 0)));
        assert_eq!(out.len(), 1, "compensation fired on the late A");
        assert_eq!(out[0].arrival_latency(), 0);
    }

    #[test]
    fn exactly_once_under_shuffle() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let items = [
            item(&reg, "C", 5, 50, 0),
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 3, 30, 0),
            item(&reg, "A", 2, 20, 0),
            item(&reg, "C", 6, 60, 0),
        ];
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let out = run_to_end(&mut eng, &items);
        assert_eq!(
            keys(&out),
            vec![
                (true, vec![1, 3, 5]),
                (true, vec![1, 3, 6]),
                (true, vec![2, 3, 5]),
                (true, vec![2, 3, 6]),
            ]
        );
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let a = item(&reg, "A", 1, 10, 0);
        let b = item(&reg, "B", 2, 20, 0);
        let mut out = Vec::new();
        out.extend(eng.ingest(&a));
        out.extend(eng.ingest(&b));
        out.extend(eng.ingest(&b));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn speculative_insert_minus_retract_equals_conservative() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50";
        let q = parse(text, &reg).unwrap();
        let items: Vec<StreamItem> = vec![
            item(&reg, "A", 1, 10, 1),
            item(&reg, "B", 2, 30, 1),
            item(&reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(&reg, "A", 4, 40, 2),
            item(&reg, "B", 5, 60, 2),
            item(&reg, "A", 7, 200, 3), // advances watermark far
        ];
        let mut cons = NativeEngine::new(Arc::clone(&q), {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Conservative;
            c
        });
        let mut aggr = NativeEngine::new(q, {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Speculative;
            c
        });
        let out_c = run_to_end(&mut cons, &items);
        let out_a = run_to_end(&mut aggr, &items);
        // net speculative output (inserts minus retracts) == conservative
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in &out_a {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        let mut cons_keys: Vec<Vec<u64>> = out_c
            .iter()
            .map(|o| o.m.events().iter().map(|e| e.id().get()).collect())
            .collect();
        cons_keys.sort();
        let net_keys: Vec<Vec<u64>> = net.keys().cloned().collect();
        assert_eq!(net_keys, cons_keys);
    }

    #[test]
    fn punctuation_seals_regions() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(1_000_000));
        cfg.watermark = WatermarkSource::Both;
        let mut eng = NativeEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&StreamItem::Punctuation(Timestamp::new(25))));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finish_seals_everything() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        let out = eng.finish();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn purge_bounds_state_without_losing_matches() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 20", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(10));
        cfg.purge = PurgePolicy::EAGER;
        let mut purged_eng = NativeEngine::new(Arc::clone(&q), cfg);
        let mut unpurged_cfg = EngineConfig::with_k(Duration::new(10));
        unpurged_cfg.purge = PurgePolicy::NEVER;
        let mut unpurged_eng = NativeEngine::new(q, unpurged_cfg);

        // a long stream with small bounded disorder
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..500u64 {
            id += 1;
            let ty = if t % 4 == 0 { "B" } else { "A" };
            let ts = if t % 7 == 3 { t.saturating_sub(5) } else { t };
            items.push(item(&reg, ty, id, ts * 3, 0));
        }
        let out_p = run_to_end(&mut purged_eng, &items);
        let out_u = run_to_end(&mut unpurged_eng, &items);
        assert_eq!(keys(&out_p), keys(&out_u));
        assert!(purged_eng.state_size() * 4 < unpurged_eng.state_size());
    }

    #[test]
    fn partitioned_agrees_with_unpartitioned() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 200";
        let q = parse(text, &reg).unwrap();
        assert!(q.partition().is_some());
        let mut part = NativeEngine::new(Arc::clone(&q), EngineConfig::default());
        let flat_cfg = EngineConfig {
            partitioned: false,
            ..EngineConfig::default()
        };
        let mut flat = NativeEngine::new(q, flat_cfg);

        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..300u64 {
            id += 1;
            let ty = ["A", "B", "C"][(t % 3) as usize];
            let tag = (t % 5) as i64;
            let ts = if t % 6 == 2 { t.saturating_sub(4) } else { t };
            items.push(item(&reg, ty, id, ts * 2, tag));
        }
        let out_p = run_to_end(&mut part, &items);
        let out_f = run_to_end(&mut flat, &items);
        assert_eq!(keys(&out_p), keys(&out_f));
        assert!(!out_p.is_empty());
    }

    #[test]
    fn late_beyond_k_is_counted() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(5)));
        eng.ingest(&item(&reg, "A", 1, 1000, 0));
        eng.ingest(&item(&reg, "B", 2, 10, 0)); // 990 late, bound is 5
        assert_eq!(eng.stats().late_drops, 1);
    }

    #[test]
    fn adaptive_k_with_adequate_floor_is_exact() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        // floor covers the real disorder: adaptive must behave like fixed K
        let mut adaptive = NativeEngine::new(
            Arc::clone(&q),
            EngineConfig::with_adaptive_k(Duration::new(50), 2.0),
        );
        let mut fixed = NativeEngine::new(q, EngineConfig::with_k(Duration::new(50)));
        let items = [
            item(&reg, "B", 1, 40, 0),
            item(&reg, "A", 2, 10, 0), // 30 late, within floor
            item(&reg, "A", 3, 50, 0),
            item(&reg, "B", 4, 90, 0),
        ];
        let out_a = run_to_end(&mut adaptive, &items);
        let out_f = run_to_end(&mut fixed, &items);
        assert_eq!(keys(&out_a), keys(&out_f));
        assert_eq!(adaptive.stats().late_drops, 0);
    }

    #[test]
    fn adaptive_k_estimate_grows_with_observed_lateness() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_adaptive_k(Duration::new(5), 2.0));
        eng.ingest(&item(&reg, "A", 1, 100, 0));
        assert_eq!(eng.k_hat(), Duration::new(5));
        eng.ingest(&item(&reg, "B", 2, 60, 0)); // 40 late
        assert_eq!(eng.k_hat(), Duration::new(80));
        // watermark never retreats
        let wm_before = eng.watermark();
        eng.ingest(&item(&reg, "B", 3, 61, 0));
        assert!(eng.watermark() >= wm_before);
    }

    #[test]
    fn state_size_reflects_pending() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        assert_eq!(eng.state_size(), 3); // 2 stack instances + 1 pending
    }

    fn policy_cfg(k: u64, policy: DisorderPolicy) -> EngineConfig {
        let mut c = EngineConfig::with_k(Duration::new(k));
        c.policy = policy;
        c
    }

    /// A disordered mixed stream exercising negation, retraction windows,
    /// and plain matches.
    fn mixed_stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        vec![
            item(reg, "A", 1, 10, 1),
            item(reg, "B", 2, 30, 1),
            item(reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(reg, "A", 4, 40, 2),
            item(reg, "B", 5, 60, 2),
            item(reg, "B", 6, 55, 2), // late positive
            item(reg, "A", 7, 200, 3),
            item(reg, "B", 8, 230, 3),
        ]
    }

    fn settled(out: &[OutputItem]) -> Vec<Vec<u64>> {
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in out {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        assert!(net.values().all(|v| *v == 1), "no duplicate settles");
        net.into_keys().collect()
    }

    #[test]
    fn every_policy_settles_to_the_conservative_output() {
        let reg = registry();
        for text in [
            "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50",
            "PATTERN SEQ(A a, B b) WITHIN 50",
        ] {
            let q = parse(text, &reg).unwrap();
            let items = mixed_stream(&reg);
            let mut cons =
                NativeEngine::new(Arc::clone(&q), policy_cfg(30, DisorderPolicy::Conservative));
            let oracle = settled(&run_to_end(&mut cons, &items));
            for policy in [
                DisorderPolicy::Speculative,
                DisorderPolicy::Lazy,
                DisorderPolicy::AdaptiveSlack { accuracy: 0 },
                DisorderPolicy::AdaptiveSlack { accuracy: 100 },
            ] {
                let mut eng = NativeEngine::new(Arc::clone(&q), policy_cfg(30, policy));
                let got = settled(&run_to_end(&mut eng, &items));
                assert_eq!(got, oracle, "{text} under {policy:?}");
            }
        }
    }

    #[test]
    fn retraction_drop_knob_swallows_exactly_one_retraction() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = policy_cfg(50, DisorderPolicy::Speculative);
        cfg.retraction_drop = 1;
        let mut sabotaged = NativeEngine::new(Arc::clone(&q), cfg);
        let mut honest = NativeEngine::new(q, policy_cfg(50, DisorderPolicy::Speculative));
        let items = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0),
            item(&reg, "N", 3, 15, 0), // retracts (1,2)
            item(&reg, "A", 4, 30, 0),
            item(&reg, "B", 5, 40, 0),
            item(&reg, "N", 6, 35, 0), // retracts (4,5)
        ];
        let out_s = run_to_end(&mut sabotaged, &items);
        let out_h = run_to_end(&mut honest, &items);
        let retracts =
            |out: &[OutputItem]| out.iter().filter(|o| o.kind == OutputKind::Retract).count();
        assert_eq!(retracts(&out_h), 2);
        assert_eq!(retracts(&out_s), 1, "first retraction silently dropped");
        // the sabotaged settled output keeps a match the honest one drops
        assert_eq!(settled(&out_s).len(), settled(&out_h).len() + 1);
    }

    #[test]
    fn policy_change_across_snapshot_restores_and_settles_once() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let prefix = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0), // speculative: emitted unsealed
        ];
        let suffix = [
            item(&reg, "N", 3, 15, 0), // invalidates (1,2) after the switch
            item(&reg, "A", 4, 200, 0),
            item(&reg, "B", 5, 220, 0),
        ];
        let mut spec =
            NativeEngine::new(Arc::clone(&q), policy_cfg(50, DisorderPolicy::Speculative));
        let mut out = Vec::new();
        for it in &prefix {
            out.extend(spec.ingest(it));
        }
        assert_eq!(keys(&out), vec![(true, vec![1, 2])], "emitted unsealed");
        let snap = spec.snapshot();
        // resume the same state under every other policy: the inherited
        // unsealed record must still be retracted by the late negative
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let mut resumed = NativeEngine::new(Arc::clone(&q), policy_cfg(50, policy));
            resumed.restore(&snap).unwrap();
            let mut tail = out.clone();
            for it in &suffix {
                tail.extend(resumed.ingest(it));
            }
            tail.extend(resumed.finish());
            assert_eq!(
                settled(&tail),
                vec![vec![4, 5]],
                "resume under {policy:?}: (1,2) retracted exactly once, (4,5) kept"
            );
        }
    }
}
