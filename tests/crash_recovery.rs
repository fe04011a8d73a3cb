//! Checkpoint/restore property tests: crash the engine at **every**
//! watermark advance of a disordered synthetic stream, resume from the
//! persisted [`CheckpointStore`], and require that the union of pre- and
//! post-crash deliveries equals the in-order oracle *exactly once* — no
//! lost matches, no duplicates — under every disorder policy. Plus
//! storage-fault injection: corrupted checkpoints must be detected and
//! recovery must degrade gracefully (older checkpoint, then cold start),
//! never restore silently-wrong state.

mod common;

use common::{host_of, net_keys, reference_matches, untag};
use sequin::engine::{
    CheckpointPolicy, CheckpointStore, Checkpointer, DisorderPolicy, EngineConfig, MultiEngine,
    OutputItem, OutputKind, Strategy,
};
use sequin::netsim::fault::{bit_flip, truncate};
use sequin::netsim::{delay_shuffle, measure_disorder, Crash};
use sequin::query::Query;
use sequin::types::{Duration, StreamItem};
use sequin::workload::{Synthetic, SyntheticConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn synthetic() -> Synthetic {
    Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 4,
        value_range: 10,
        mean_gap: 3,
    })
}

struct Scenario {
    query: Arc<Query>,
    config: EngineConfig,
    stream: Vec<StreamItem>,
    oracle: std::collections::BTreeSet<Vec<u64>>,
}

fn scenario(policy: DisorderPolicy, seed: u64) -> Scenario {
    let w = synthetic();
    let events = w.generate(120, seed);
    let query = w.negation_query(40);
    let oracle = reference_matches(&query, &events);
    assert!(
        !oracle.is_empty(),
        "scenario must produce matches (seed {seed})"
    );
    let stream = delay_shuffle(&events, 0.3, 30, seed ^ 0x5A5A);
    let disorder = measure_disorder(&stream);
    assert!(
        disorder.late_events > 0,
        "stream must actually be disordered (seed {seed})"
    );
    let mut config = EngineConfig::with_k(Duration::new(disorder.max_lateness.ticks().max(1)));
    config.policy = policy;
    Scenario {
        query,
        config,
        stream,
        oracle,
    }
}

fn fresh(s: &Scenario) -> MultiEngine {
    host_of(&s.query, s.config)
}

/// Every `(kind, match)` pair may be delivered at most once across the
/// whole (pre ∪ post) output — the "no duplicates" half of exactly-once.
fn assert_no_duplicate_deliveries(delivered: &[OutputItem], ctx: &str) {
    let mut counts: BTreeMap<(bool, Vec<u64>), usize> = BTreeMap::new();
    for o in delivered {
        let key: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
        *counts
            .entry((o.kind == OutputKind::Insert, key))
            .or_insert(0) += 1;
    }
    for ((insert, key), n) in &counts {
        assert_eq!(
            *n,
            1,
            "{ctx}: {} of match {key:?} delivered {n} times",
            if *insert { "insert" } else { "retract" }
        );
    }
}

/// The checkpoints a full run writes, as crash points: the stream index
/// right after each watermark advance the policy checkpointed on.
fn watermark_advance_points(s: &Scenario) -> Vec<u64> {
    let mut probe = Checkpointer::new(fresh(s), CheckpointPolicy::default());
    let mut points = Vec::new();
    let mut written = 0;
    for (ix, item) in s.stream.iter().enumerate() {
        probe.ingest(item);
        let now = probe.stats().checkpoints_written;
        if now > written {
            written = now;
            points.push(ix as u64 + 1);
        }
    }
    points
}

/// Run to the crash point, persist, die, resume, replay the suffix, and
/// return everything that was ever delivered downstream.
fn crash_and_recover(
    s: &Scenario,
    crash: Crash,
    sabotage: impl FnOnce(&mut CheckpointStore),
) -> (Vec<OutputItem>, sequin::runtime::RuntimeStats) {
    let (pre_items, crash_ix) = crash.split(&s.stream);
    let mut ck = Checkpointer::new(fresh(s), CheckpointPolicy::default());
    let mut delivered = Vec::new();
    for item in pre_items {
        delivered.extend(untag(ck.ingest(item)));
    }
    let mut saved = ck.store().clone();
    drop(ck); // the crash: only `saved` survives
    sabotage(&mut saved);

    let (mut ck, replay_from) =
        Checkpointer::resume(CheckpointPolicy::default(), saved, |_| Ok(fresh(s)));
    assert!(replay_from <= crash_ix, "resume cannot skip unseen input");
    for item in &s.stream[replay_from as usize..] {
        delivered.extend(untag(ck.ingest(item)));
    }
    delivered.extend(untag(ck.finish()));
    (delivered, ck.stats())
}

fn crash_at_every_watermark_advance(policy: DisorderPolicy, seed: u64) {
    let s = scenario(policy, seed);
    let points = watermark_advance_points(&s);
    assert!(
        points.len() > 10,
        "expected many watermark advances, got {}",
        points.len()
    );
    for &p in &points {
        let ctx = format!("{policy:?} seed {seed} crash after item {p}");
        let (delivered, _) = crash_and_recover(&s, Crash::AfterEvents(p), |_| {});
        assert_no_duplicate_deliveries(&delivered, &ctx);
        if policy == DisorderPolicy::Conservative {
            assert!(
                delivered.iter().all(|o| o.kind == OutputKind::Insert),
                "{ctx}: conservative policy never retracts"
            );
        }
        assert_eq!(
            net_keys(&delivered),
            s.oracle,
            "{ctx}: union of pre/post-crash output"
        );
    }
}

#[test]
fn crash_at_every_watermark_advance_is_exactly_once_conservative() {
    for seed in [41, 42] {
        crash_at_every_watermark_advance(DisorderPolicy::Conservative, seed);
    }
}

#[test]
fn crash_at_every_watermark_advance_is_exactly_once_speculative() {
    for seed in [43, 44] {
        crash_at_every_watermark_advance(DisorderPolicy::Speculative, seed);
    }
}

#[test]
fn crash_at_watermark_trigger_matches_oracle() {
    let s = scenario(DisorderPolicy::Conservative, 45);
    // crash the moment the stream clock reaches the middle of the history
    let mid = match &s.stream[s.stream.len() / 2] {
        StreamItem::Event(e) => e.ts(),
        StreamItem::Punctuation(t) => *t,
    };
    let (delivered, stats) = crash_and_recover(&s, Crash::AtWatermark(mid), |_| {});
    assert_no_duplicate_deliveries(&delivered, "AtWatermark crash");
    assert_eq!(net_keys(&delivered), s.oracle);
    assert!(stats.checkpoints_written > 0);
}

#[test]
fn bit_flipped_checkpoint_is_rejected_and_recovery_falls_back() {
    let s = scenario(DisorderPolicy::Conservative, 46);
    let crash = Crash::AfterEvents(s.stream.len() as u64 * 2 / 3);
    let (delivered, stats) = crash_and_recover(&s, crash, |store| {
        assert!(store.checkpoint_count() >= 2, "need a fallback checkpoint");
        bit_flip(store.checkpoint_mut(0).unwrap(), 12345);
    });
    assert_eq!(stats.checkpoints_rejected, 1, "checksum caught the flip");
    assert_no_duplicate_deliveries(&delivered, "bit-flip fallback");
    assert_eq!(
        net_keys(&delivered),
        s.oracle,
        "older checkpoint recovered correctly"
    );
}

#[test]
fn truncating_every_checkpoint_degrades_to_cold_start() {
    let s = scenario(DisorderPolicy::Speculative, 47);
    let crash = Crash::AfterEvents(s.stream.len() as u64 * 2 / 3);
    let mut corrupted = 0u64;
    let (delivered, stats) = crash_and_recover(&s, crash, |store| {
        for ix in 0..store.checkpoint_count() {
            let bytes = store.checkpoint_mut(ix).unwrap();
            let keep = bytes.len() / 3;
            truncate(bytes, keep);
            corrupted += 1;
        }
    });
    assert_eq!(stats.checkpoints_rejected, corrupted);
    assert!(
        stats.replayed_suppressed > 0,
        "cold-start replay suppressed prior deliveries"
    );
    assert_no_duplicate_deliveries(&delivered, "cold start");
    assert_eq!(
        net_keys(&delivered),
        s.oracle,
        "cold start still exactly-once"
    );
}

#[test]
fn checkpoint_file_survives_a_process_boundary() {
    let s = scenario(DisorderPolicy::Conservative, 48);
    let crash = Crash::AfterEvents(80);
    let (pre_items, _) = crash.split(&s.stream);
    let mut ck = Checkpointer::new(fresh(&s), CheckpointPolicy::default());
    let mut delivered = Vec::new();
    for item in pre_items {
        delivered.extend(untag(ck.ingest(item)));
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash_recovery.ckpt");
    ck.store().save(&path).unwrap();
    drop(ck);

    let loaded = CheckpointStore::load(&path).unwrap();
    let (mut ck, replay_from) =
        Checkpointer::resume(CheckpointPolicy::default(), loaded, |_| Ok(fresh(&s)));
    for item in &s.stream[replay_from as usize..] {
        delivered.extend(untag(ck.ingest(item)));
    }
    delivered.extend(untag(ck.finish()));
    assert_no_duplicate_deliveries(&delivered, "file round trip");
    assert_eq!(net_keys(&delivered), s.oracle);

    // a rotted file is detected at load time, not restored
    let mut bytes = std::fs::read(&path).unwrap();
    bit_flip(&mut bytes, 999);
    std::fs::write(&path, &bytes).unwrap();
    assert!(CheckpointStore::load(&path).is_err());
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Pinned checkpoint layout
// ---------------------------------------------------------------------

use sequin::engine::NativeEngine;
use sequin::query::parse;
use sequin::server::{CoreConfig, EngineCore};
use sequin::types::codec::{fnv1a64, open_envelope, seal_envelope};
use sequin::types::{Reader, Writer};

const PIN_QUERY: &str = "PATTERN SEQ(T0 a, !T1 b, T2 c) WHERE a.tag == c.tag WITHIN 100";
const PIN_SEED: u64 = 50;
const PIN_CUT: usize = 242;

/// `fnv1a64` of the snapshots [`pinned_snapshots`] takes. A change of
/// layout here is a checkpoint-format change: bump `CODEC_VERSION` so old
/// stores fail with a coded version error instead of being misread.
/// Re-pinned, with no layout change, when construction began to narrow
/// each level past the newest negative between its flanks: the blobs'
/// `RuntimeStats` count fewer DFS steps and constructed matches, and the
/// conservative pending heap no longer holds matches a stored negative
/// already rules out. The snapshots the previous evaluator wrote are kept
/// under `tests/fixtures/` and still resume
/// ([`stores_of_the_evaluator_that_built_negated_matches_resume`]).
const PIN_NATIVE_SPECULATIVE: u64 = 0xa01a_ba35_69e0_49e8;
const PIN_NATIVE_CONSERVATIVE: u64 = 0xa475_fca8_c1af_161b;
/// The core's store around the speculative blob: re-pinned with it, and
/// before that when a single query became a plan of one, with no layout
/// change: two counter bytes moved. Until then the core (the
/// plan) counted `ooo_insertions` / `max_stack_depth` in a pooled stack's
/// time-ordered side, and a lone engine in the arrival's key stack; now
/// every hosting counts the latter — which `checkpoint_bytes_are_pinned`
/// asserts blob by blob rather than trusting the constant.
const PIN_CORE: u64 = 0x9124_f2d7_0390_4026;

struct Pinned {
    registry: Arc<sequin::types::TypeRegistry>,
    stream: Vec<StreamItem>,
    oracle: std::collections::BTreeSet<Vec<u64>>,
    config: EngineConfig,
    query: Arc<Query>,
    /// What every configuration delivered before the cut (identical by
    /// the byte-identity contract; asserted below).
    delivered: Vec<OutputItem>,
    native: Vec<u8>,
    core: CheckpointStore,
}

fn pin_core_cfg(registry: &Arc<sequin::types::TypeRegistry>, config: EngineConfig) -> CoreConfig {
    let mut cfg = CoreConfig::new(Arc::clone(registry), Strategy::Native, config);
    cfg.checkpoint_every = Some(1 << 40);
    cfg
}

/// One fixed-seed 30 %-late stream of the partitioned negation query, cut
/// mid-stream so stacks, the negative index and the unsealed-emission log
/// (speculative) or the pending heap (conservative) are all non-empty.
fn pinned_snapshots(policy: DisorderPolicy) -> Pinned {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 4,
        value_range: 10,
        mean_gap: 3,
    });
    let events = w.generate(300, PIN_SEED);
    let query = parse(PIN_QUERY, w.registry()).unwrap();
    assert!(query.partition().is_some() && query.has_negation());
    let oracle = reference_matches(&query, &events);
    let stream = delay_shuffle(&events, 0.3, 30, PIN_SEED ^ 0x5A5A);
    let disorder = measure_disorder(&stream);
    let mut config = EngineConfig::with_k(Duration::new(disorder.max_lateness.ticks().max(1)));
    config.policy = policy;

    let mut eng = NativeEngine::new(Arc::clone(&query), config);
    let mut delivered = Vec::new();
    for item in &stream[..PIN_CUT] {
        delivered.extend(eng.ingest(item));
    }
    let native = eng.snapshot();

    let mut core = EngineCore::new(pin_core_cfg(w.registry(), config));
    core.subscribe(PIN_QUERY).unwrap();
    let out = core.ingest_batch(&stream[..PIN_CUT]);
    let out: Vec<OutputItem> = out.into_iter().map(|(_, o)| o).collect();
    assert_eq!(out, delivered, "the core's pre-cut output");
    core.checkpoint_now();
    let core = core.store().clone();
    Pinned {
        registry: Arc::clone(w.registry()),
        stream,
        oracle,
        config,
        query,
        delivered,
        native,
        core,
    }
}

/// The per-query engine blob inside a core store's newest checkpoint
/// (position, log mark, query texts + policies, then a one-blob
/// `MultiEngine` envelope), and the checkpoint's bytes before the blob.
fn core_checkpoint_blob(store: &CheckpointStore) -> (Vec<u8>, Vec<u8>) {
    let ckpt = store.checkpoints_newest_first().next().unwrap();
    let payload = open_envelope(ckpt).unwrap();
    let mut r = Reader::new(payload);
    r.get_u64().unwrap(); // position
    r.get_u64().unwrap(); // log mark
    assert_eq!(r.get_u64().unwrap(), 1, "one query");
    r.get_str().unwrap();
    r.get_u8().unwrap(); // policy mode
    r.get_u8().unwrap(); // policy knob
    let head = payload[..payload.len() - r.remaining()].to_vec();
    let multi = r.get_bytes().unwrap();
    r.finish().unwrap();
    let mut r = Reader::new(open_envelope(&multi).unwrap());
    assert_eq!(r.get_u64().unwrap(), 1);
    let blob = r.get_bytes().unwrap();
    r.finish().unwrap();
    (head, blob)
}

/// `store` with the engine blob of its newest checkpoint replaced.
fn core_store_with_blob(store: &CheckpointStore, blob: &[u8]) -> CheckpointStore {
    let (head, _) = core_checkpoint_blob(store);
    let mut multi = Writer::new();
    multi.put_u64(1);
    multi.put_bytes(blob);
    let mut w = Writer::new();
    w.put_bytes(&seal_envelope(&multi.into_bytes()));
    let mut payload = head;
    payload.extend(w.into_bytes());
    let mut out = store.clone();
    *out.checkpoint_mut(0).unwrap() = seal_envelope(&payload);
    out
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let spec = pinned_snapshots(DisorderPolicy::Speculative);
    let cons = pinned_snapshots(DisorderPolicy::Conservative);
    // two hostings, one blob: the core's plan and a lone engine write the
    // same bytes for the same query at the same stream position
    for p in [&spec, &cons] {
        let blob = core_checkpoint_blob(&p.core).1;
        assert!(
            blob == p.native,
            "{:?}: the core's blob is not `NativeEngine::snapshot()`",
            p.config.policy
        );
    }
    let got = [
        fnv1a64(&spec.native),
        fnv1a64(&cons.native),
        fnv1a64(&spec.core.to_bytes()),
    ];
    assert_eq!(
        got,
        [PIN_NATIVE_SPECULATIVE, PIN_NATIVE_CONSERVATIVE, PIN_CORE]
    );
}

#[test]
fn pinned_snapshots_interchange_and_settle_on_the_oracle() {
    for policy in [DisorderPolicy::Speculative, DisorderPolicy::Conservative] {
        let p = pinned_snapshots(policy);
        let tail = &p.stream[PIN_CUT..];
        let blobs = [p.native.clone(), core_checkpoint_blob(&p.core).1];
        let before_cut: Vec<_> = p.stream[..PIN_CUT]
            .iter()
            .filter_map(|it| match it {
                StreamItem::Event(e) => Some(e.id()),
                StreamItem::Punctuation(_) => None,
            })
            .collect();
        let mut held_across_the_cut = false;
        for (from, blob) in blobs.iter().enumerate() {
            // into a plain native engine
            let mut eng = NativeEngine::new(Arc::clone(&p.query), p.config);
            eng.restore(blob).unwrap();
            let mut out = p.delivered.clone();
            for item in tail {
                out.extend(eng.ingest(item));
            }
            out.extend(eng.finish());
            assert_eq!(
                net_keys(&out),
                p.oracle,
                "{policy:?}: blob {from} -> native"
            );
            // into the core
            let store = core_store_with_blob(&p.core, blob);
            let (mut core, from_item) =
                EngineCore::resume(pin_core_cfg(&p.registry, p.config), store);
            assert_eq!(from_item as usize, PIN_CUT, "checkpoint accepted");
            let mut out = p.delivered.clone();
            let mut post = core.ingest_batch(tail);
            post.extend(core.finish());
            // the cut really split held state: a match complete before it
            // is retracted (speculative) or sealed (conservative) after it
            held_across_the_cut |= post.iter().any(|(_, o)| {
                let held = match policy {
                    DisorderPolicy::Speculative => o.kind == OutputKind::Retract,
                    _ => o.cause.is_none(),
                };
                held && o.m.events().iter().all(|e| before_cut.contains(&e.id()))
            });
            out.extend(post.into_iter().map(|(_, o)| o));
            assert_no_duplicate_deliveries(&out, "pinned interchange");
            assert_eq!(net_keys(&out), p.oracle, "{policy:?}: blob {from} -> core");
        }
        assert!(
            held_across_the_cut,
            "{policy:?}: cut {PIN_CUT} held nothing"
        );
    }
}

/// The snapshots [`pinned_snapshots`] took (speculative, conservative)
/// before construction narrowed each level past the stored negatives, and
/// their `fnv1a64`, the pins of that evaluator.
const NEGATED_MATCHES_BUILT: [(&[u8], u64); 2] = [
    (
        include_bytes!("fixtures/pin_native_speculative.blob"),
        0xce52_c27c_e986_09b9,
    ),
    (
        include_bytes!("fixtures/pin_native_conservative.blob"),
        0x336e_0835_5cef_85bc,
    ),
];

/// A store written when every negated match was built first holds larger
/// counters and, under conservative, pending matches a stored negative
/// already rules out; the layout is the same, and today's evaluator
/// resumes it, lone or in the core, onto the oracle.
#[test]
fn stores_of_the_evaluator_that_built_negated_matches_resume() {
    let policies = [DisorderPolicy::Speculative, DisorderPolicy::Conservative];
    for (policy, (blob, pin)) in policies.into_iter().zip(NEGATED_MATCHES_BUILT) {
        assert_eq!(fnv1a64(blob), pin, "{policy:?}: fixture bytes");
        let p = pinned_snapshots(policy);
        assert_ne!(p.native, blob, "{policy:?}: the fixture is today's blob");
        let tail = &p.stream[PIN_CUT..];

        let mut eng = NativeEngine::new(Arc::clone(&p.query), p.config);
        eng.restore(blob).unwrap();
        let mut out = p.delivered.clone();
        for item in tail {
            out.extend(eng.ingest(item));
        }
        out.extend(eng.finish());
        assert_no_duplicate_deliveries(&out, "old blob -> native");
        assert_eq!(net_keys(&out), p.oracle, "{policy:?}: old blob -> native");

        let store = core_store_with_blob(&p.core, blob);
        let (mut core, from_item) = EngineCore::resume(pin_core_cfg(&p.registry, p.config), store);
        assert_eq!(from_item as usize, PIN_CUT, "checkpoint accepted");
        let mut out = p.delivered.clone();
        let mut post = core.ingest_batch(tail);
        post.extend(core.finish());
        out.extend(post.into_iter().map(|(_, o)| o));
        assert_no_duplicate_deliveries(&out, "old blob -> core");
        assert_eq!(net_keys(&out), p.oracle, "{policy:?}: old blob -> core");
    }
}

// ---------------------------------------------------------------------
// Pinned `run` store layout
// ---------------------------------------------------------------------

use sequin::types::Encode;

/// `fnv1a64` of the store [`run_store_0_10`] rebuilds in the layout of the
/// 0.10 single-engine `Checkpointer` — what `sequin run --resume-from`
/// saved — for the pin stream at the cut under `CheckpointPolicy::every(64)`
/// (conservative, speculative). Its checkpoints wrap today's engine
/// snapshots, so it moves with them: re-pinned with the native pins.
const PIN_RUN_STORE_0_10: [u64; 2] = [0x50b5_adf3_c07b_dde4, 0x6c19_e9b8_08c5_9e1b];
/// The same run's store as the one exactly-once wrapper writes it now:
/// a one-blob host envelope per checkpoint, query-tagged log records.
/// Re-pinned with the native pins: the snapshots inside moved.
const PIN_RUN_STORE: [u64; 2] = [0x0c5d_5681_7dd3_18b0, 0x9bae_9746_bacc_dcd2];

fn run_policy() -> CheckpointPolicy {
    CheckpointPolicy::every(64)
}

/// Rebuilds, from the documented 0.10 layout, the store that version's
/// writer produced: checkpoints of `position, log mark, bytes(engine
/// snapshot)` and untagged `(kind, match key)` log records.
fn run_store_0_10(p: &Pinned) -> CheckpointStore {
    let mut eng = NativeEngine::new(Arc::clone(&p.query), p.config);
    let mut store = CheckpointStore::new();
    for (ix, item) in p.stream[..PIN_CUT].iter().enumerate() {
        for o in eng.ingest(item) {
            let mut w = Writer::new();
            w.put_u8(u8::from(o.kind == OutputKind::Retract));
            o.m.key().encode(&mut w);
            store.append_log(seal_envelope(&w.into_bytes()));
        }
        if (ix + 1) % 64 == 0 {
            let mut w = Writer::new();
            w.put_u64(ix as u64 + 1);
            w.put_u64(store.log_len() as u64);
            w.put_bytes(&eng.snapshot());
            store.push_checkpoint(seal_envelope(&w.into_bytes()));
        }
    }
    store
}

#[test]
fn a_0_10_run_store_is_rejected_whole_and_todays_resumes_exactly_once() {
    let policies = [DisorderPolicy::Conservative, DisorderPolicy::Speculative];
    for (px, policy) in policies.into_iter().enumerate() {
        let p = pinned_snapshots(policy);
        let host = || host_of(&p.query, p.config);

        // the old format: every artifact fails its decode and is counted,
        // nothing is half-read, and the run is a cold start
        let old = run_store_0_10(&p);
        assert_eq!(
            fnv1a64(&old.to_bytes()),
            PIN_RUN_STORE_0_10[px],
            "{policy:?}: not the bytes 0.10 wrote"
        );
        let artifacts = (old.checkpoint_count() + old.log_len()) as u64;
        let (mut ck, replay_from) = Checkpointer::resume(run_policy(), old, |_| Ok(host()));
        assert_eq!(replay_from, 0, "{policy:?}: cold start");
        assert_eq!(ck.stats().checkpoints_rejected, artifacts, "{policy:?}");
        assert_eq!(
            ck.pending_suppressions(),
            0,
            "{policy:?}: a record was half-read"
        );
        assert_eq!(
            ck.host().state_size(),
            0,
            "{policy:?}: a snapshot was half-read"
        );
        let mut out = ck.ingest_batch(&p.stream);
        out.extend(ck.finish());
        assert_eq!(net_keys(&untag(out).collect::<Vec<_>>()), p.oracle);

        // today's format: pinned, and resumed exactly-once
        let mut ck = Checkpointer::new(host(), run_policy());
        let mut delivered = ck.ingest_batch(&p.stream[..PIN_CUT]);
        let saved = ck.store().clone();
        drop(ck); // crash
        assert_eq!(fnv1a64(&saved.to_bytes()), PIN_RUN_STORE[px], "{policy:?}");
        let (mut ck, replay_from) = Checkpointer::resume(run_policy(), saved, |_| Ok(host()));
        assert_eq!(replay_from, 192, "{policy:?}: the newest checkpoint");
        assert_eq!(ck.stats().checkpoints_rejected, 0, "{policy:?}");
        delivered.extend(ck.ingest_batch(&p.stream[replay_from as usize..]));
        delivered.extend(ck.finish());
        let delivered: Vec<OutputItem> = untag(delivered).collect();
        assert_no_duplicate_deliveries(&delivered, "today's run store");
        assert_eq!(net_keys(&delivered), p.oracle, "{policy:?}");
        assert_eq!(ck.pending_suppressions(), 0, "{policy:?}");
    }
}
