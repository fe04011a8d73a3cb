//! The reconstructed evaluation, one function per experiment (`E1`–`E13`).
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for the
//! recorded results and shape claims. Workload parameters are chosen so
//! match density stays moderate (the correlated `tag` chain bounds output
//! size) and sweeps finish in seconds at [`crate::Scale::full`].

use std::sync::Arc;

use sequin_engine::{DisorderPolicy, EngineConfig, OutputKind, WatermarkSource};
use sequin_metrics::{compare_outputs, Accuracy, RunReport, Table};
use sequin_netsim::{
    delay_shuffle, measure_disorder, punctuate, DelayModel, DisorderReport, Network, Outage, Source,
};
use sequin_query::Query;
use sequin_runtime::purge::PurgePolicy;
use sequin_types::{Duration, EventRef, Timestamp};
use sequin_workload::{Synthetic, SyntheticConfig};

use crate::prelude::{f2, keps, run, run_with, sorted_stream};
use crate::{run_engine, Scale, Strategy};

fn workload(num_types: usize) -> Synthetic {
    Synthetic::new(SyntheticConfig {
        num_types,
        tag_cardinality: 50,
        value_range: 100,
        mean_gap: 20,
    })
}

const OOO_DELAY: u64 = 200;
const K: u64 = 200;
const W: u64 = 400;

/// The history E1, E3 and E4 evaluate — half a scale of events — with
/// the tag-correlated `SEQ(T0, T1)` and its match set on sorted input,
/// where the in-order engine is exact (the oracle).
fn pair_workload(scale: Scale) -> (Vec<EventRef>, Arc<Query>, RunReport) {
    let w = workload(4);
    let events = w.generate(scale.events / 2, scale.seed);
    let q = w.partitioned_query(2, W);
    let oracle = run(Strategy::InOrder, &q, 0, &sorted_stream(&events));
    (events, q, oracle)
}

/// E1's lateness: up to 2W, so late events genuinely cross window
/// boundaries.
const E1_DELAY: u64 = 2 * W;

/// E1's rows: per out-of-order percentage, the in-order engine's run and
/// its accuracy against the oracle.
fn e1_rows(scale: Scale) -> (RunReport, Vec<(u32, RunReport, Accuracy)>) {
    let (events, q, oracle) = pair_workload(scale);
    let row = |pct: u32| {
        let stream = delay_shuffle(&events, f64::from(pct) / 100.0, E1_DELAY, scale.seed);
        let observed = run(Strategy::InOrder, &q, 0, &stream);
        let acc = compare_outputs(&observed.outputs, &oracle.outputs);
        (pct, observed, acc)
    };
    let rows = [0, 10, 20, 30, 40, 50].map(row).into();
    (oracle, rows)
}

/// E1 — correctness failure of the state of the art: precision/recall of
/// the in-order engine as disorder grows.
pub fn e1(scale: Scale) -> String {
    let (oracle, rows) = e1_rows(scale);
    let mut t = Table::new(&[
        "ooo %",
        "oracle",
        "observed",
        "phantoms",
        "missed",
        "precision",
        "recall",
    ]);
    for (pct, observed, acc) in rows {
        t.row(&[
            pct.to_string(),
            oracle.net_matches().to_string(),
            observed.net_matches().to_string(),
            acc.false_positives.to_string(),
            acc.false_negatives.to_string(),
            f2(acc.precision()),
            f2(acc.recall()),
        ]);
    }
    format!(
        "E1  in-order (classic SASE) output quality vs. out-of-order rate\n\
         query: SEQ(T0,T1) tag-correlated, W={W}, delay <= {E1_DELAY}\n\n{t}\n\
         shape: recall degrades steeply with disorder; phantoms appear\n\
         because the stack discipline implies rather than checks order.\n"
    )
}

/// E2 — throughput vs. out-of-order rate, all three strategies.
pub fn e2(scale: Scale) -> String {
    let w = workload(4);
    let events = w.generate(scale.events, scale.seed);
    let q = w.partitioned_query(3, W);
    let mut cfg = EngineConfig::with_k(Duration::new(K));
    cfg.partitioned = false; // isolate disorder handling from partitioning
    let mut t = Table::new(&["ooo %", "in-order*", "k-slack-buffer", "native-ooo"]);
    for pct in [0, 10, 20, 30, 40, 50] {
        let stream = delay_shuffle(&events, pct as f64 / 100.0, OOO_DELAY, scale.seed);
        let io = run_with(Strategy::InOrder, &q, cfg, &stream);
        let kb = run_with(Strategy::Buffered, &q, cfg, &stream);
        let no = run_with(Strategy::Native, &q, cfg, &stream);
        t.row(&[pct.to_string(), keps(&io), keps(&kb), keps(&no)]);
    }
    format!(
        "E2  throughput (events/s) vs. out-of-order rate\n\
         query: SEQ(T0,T1,T2) tag-correlated, W={W}, K={K}\n\n{t}\n\
         (*) in-order is fast but WRONG under disorder (see E1).\n\
         shape: both correct strategies stay within ~20% of the (wrong)\n\
         in-order engine at this window; the buffer's real tax is latency\n\
         and memory (E3/E4), and it falls behind as W grows (E5).\n"
    )
}

/// E3's and E4's runs: per disorder bound `K`, the buffered and the
/// native engine over E1's history with 10 % of it late by up to `K`.
fn buffered_vs_native(scale: Scale) -> Vec<(u64, RunReport, RunReport)> {
    let (events, q, _) = pair_workload(scale);
    let row = |k: u64| {
        let stream = delay_shuffle(&events, 0.1, k, scale.seed);
        let kb = run(Strategy::Buffered, &q, k, &stream);
        let no = run(Strategy::Native, &q, k, &stream);
        (k, kb, no)
    };
    [50, 100, 200, 400, 800].map(row).into()
}

/// E3 — result latency vs. the disorder bound K (buffered vs. native).
pub fn e3(scale: Scale) -> String {
    let mut t = Table::new(&[
        "K",
        "kb mean(arr)",
        "kb p99(arr)",
        "kb mean(ticks)",
        "no mean(arr)",
        "no p99(arr)",
        "no mean(ticks)",
    ]);
    for (k, kb, no) in buffered_vs_native(scale) {
        t.row(&[
            k.to_string(),
            f2(kb.arrival_latency.mean),
            kb.arrival_latency.p99.to_string(),
            f2(kb.event_time_latency.mean),
            f2(no.arrival_latency.mean),
            no.arrival_latency.p99.to_string(),
            f2(no.event_time_latency.mean),
        ]);
    }
    format!(
        "E3  output latency vs. disorder bound K (10% late, delay <= K)\n\
         arr = latency in arrivals; ticks = event-time latency\n\n{t}\n\
         shape: buffered latency grows linearly with K (every result\n\
         waits out the slack); native emits at completion regardless of K.\n"
    )
}

/// E4 — engine state (memory) vs. K (buffered vs. native).
pub fn e4(scale: Scale) -> String {
    let mut t = Table::new(&["K", "kb peak", "kb mean", "no peak", "no mean"]);
    for (k, kb, no) in buffered_vs_native(scale) {
        t.row(&[
            k.to_string(),
            kb.peak_state.to_string(),
            f2(kb.mean_state),
            no.peak_state.to_string(),
            f2(no.mean_state),
        ]);
    }
    format!(
        "E4  buffered events / stack instances vs. K (10% late)\n\n{t}\n\
         shape: the reorder buffer holds the whole K-wide tail and grows\n\
         with K; native state is bounded by window purge and grows only\n\
         mildly (final-stack retention is K-dependent).\n"
    )
}

/// E5's rows: per window, the buffered and the native run.
fn e5_rows(scale: Scale) -> Vec<(u64, RunReport, RunReport)> {
    let w = workload(4);
    let events = w.generate(scale.events, scale.seed);
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let row = |window: u64| {
        let q = w.partitioned_query(3, window);
        let kb = run(Strategy::Buffered, &q, K, &stream);
        let no = run(Strategy::Native, &q, K, &stream);
        (window, kb, no)
    };
    [100, 200, 400, 800, 1600].map(row).into()
}

/// E5 — throughput vs. window size.
pub fn e5(scale: Scale) -> String {
    let mut t = Table::new(&["W", "k-slack-buffer", "native-ooo", "no peak state"]);
    for (window, kb, no) in e5_rows(scale) {
        t.row(&[
            window.to_string(),
            keps(&kb),
            keps(&no),
            no.peak_state.to_string(),
        ]);
    }
    format!(
        "E5  throughput vs. window W (20% late, delay <= {OOO_DELAY}, K={K})\n\n{t}\n\
         shape: both engines slow as W grows (more live state, more\n\
         construction work); native keeps its lead throughout.\n"
    )
}

/// E6 — throughput vs. pattern length.
pub fn e6(scale: Scale) -> String {
    let w = workload(6);
    let events = w.generate(scale.events, scale.seed);
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let mut t = Table::new(&["len", "k-slack-buffer", "native-ooo"]);
    for len in 2..=6usize {
        let q = w.partitioned_query(len, W);
        let kb = run(Strategy::Buffered, &q, K, &stream);
        let no = run(Strategy::Native, &q, K, &stream);
        t.row(&[len.to_string(), keps(&kb), keps(&no)]);
    }
    format!(
        "E6  throughput vs. pattern length (20% late, W={W}, K={K})\n\n{t}\n\
         shape: cost grows with length for both (deeper DFS, more\n\
         stacks); the native advantage persists across lengths.\n"
    )
}

/// E7's rows: per purge cadence, the native run on flat stacks.
fn e7_rows(scale: Scale) -> Vec<(&'static str, RunReport)> {
    let w = workload(4);
    let events = w.generate(scale.events, scale.seed);
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let q = w.partitioned_query(3, W);
    let row = |(name, policy)| {
        let mut cfg = EngineConfig::with_k(Duration::new(K));
        cfg.purge = policy;
        cfg.partitioned = false;
        (name, run_with(Strategy::Native, &q, cfg, &stream))
    };
    [
        ("never", PurgePolicy::NEVER),
        ("eager (1)", PurgePolicy::EAGER),
        ("batch 64", PurgePolicy::batched(64)),
        ("batch 1024", PurgePolicy::batched(1024)),
    ]
    .map(row)
    .into()
}

/// E7 — purge ablation: memory and throughput under different cadences.
pub fn e7(scale: Scale) -> String {
    let mut t = Table::new(&[
        "purge",
        "throughput",
        "peak state",
        "mean state",
        "purge runs",
    ]);
    for (name, r) in e7_rows(scale) {
        t.row(&[
            name.to_owned(),
            keps(&r),
            r.peak_state.to_string(),
            f2(r.mean_state),
            r.stats.purge_runs.to_string(),
        ]);
    }
    format!(
        "E7  state-purge ablation (native engine, 20% late, W={W}, K={K})\n\n{t}\n\
         shape: no purge -> state grows with the stream (and construction\n\
         slows on the bloated stacks); eager purge pays a pass per event;\n\
         batching gets the memory bound at amortized cost.\n"
    )
}

/// E8 — negation under disorder: the disorder-policy spectrum.
pub fn e8(scale: Scale) -> String {
    let w = workload(4);
    let events = w.generate(scale.events / 2, scale.seed);
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let q = w.negation_query(W);
    let mut t = Table::new(&[
        "policy",
        "inserts",
        "retracts",
        "net",
        "mean arr lat",
        "p99 arr lat",
    ]);
    let mut nets = Vec::new();
    for (name, policy) in [
        ("conservative", DisorderPolicy::Conservative),
        ("speculative", DisorderPolicy::Speculative),
        ("lazy", DisorderPolicy::Lazy),
        (
            "adaptive:90",
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ),
    ] {
        let mut cfg = EngineConfig::with_k(Duration::new(K));
        cfg.policy = policy;
        let r = run_with(Strategy::Native, &q, cfg, &stream);
        let inserts = r
            .outputs
            .iter()
            .filter(|o| o.kind == OutputKind::Insert)
            .count();
        let retracts = r.outputs.len() - inserts;
        nets.push(r.net_matches());
        t.row(&[
            name.to_owned(),
            inserts.to_string(),
            retracts.to_string(),
            r.net_matches().to_string(),
            f2(r.arrival_latency.mean),
            r.arrival_latency.p99.to_string(),
        ]);
    }
    let agree = if nets.windows(2).all(|p| p[0] == p[1]) {
        "yes"
    } else {
        "NO (BUG)"
    };
    format!(
        "E8  negation under disorder: SEQ(T0, !T1, T2), 20% late, W={W}, K={K}\n\n{t}\n\
         net outputs agree: {agree}\n\
         shape: conservative and lazy pay seal latency on every result;\n\
         speculative emits immediately and repairs with retractions;\n\
         adaptive holds results behind a learned lateness bound.\n"
    )
}

/// E9's rows: per selectivity threshold, the native run on flat stacks.
fn e9_rows(scale: Scale) -> Vec<(i64, RunReport)> {
    let w = workload(4);
    let events = w.generate(scale.events, scale.seed);
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let row = |threshold: i64| {
        let q = w.selective_query(3, W, threshold);
        let mut cfg = EngineConfig::with_k(Duration::new(K));
        cfg.partitioned = false;
        (threshold, run_with(Strategy::Native, &q, cfg, &stream))
    };
    [10, 25, 50, 75, 100].map(row).into()
}

/// E9 — SS vs. SC cost split as predicate selectivity varies.
pub fn e9(scale: Scale) -> String {
    let mut t = Table::new(&[
        "sel %",
        "insertions (SS)",
        "dfs steps (SC)",
        "pred evals",
        "matches",
        "throughput",
    ]);
    for (threshold, r) in e9_rows(scale) {
        t.row(&[
            threshold.to_string(),
            r.stats.insertions.to_string(),
            r.stats.dfs_steps.to_string(),
            r.stats.predicate_evals.to_string(),
            r.stats.matches_constructed.to_string(),
            keps(&r),
        ]);
    }
    format!(
        "E9  operator cost split vs. local-predicate selectivity\n\
         query: SEQ(T0,T1,T2) with v.x < threshold on each component\n\n{t}\n\
         shape: the insertion-time pre-filter keeps SS cost linear in\n\
         selectivity while SC (DFS) cost grows combinatorially, so at\n\
         high selectivity construction dominates CPU.\n"
    )
}

/// E10's runs: the classic and the native engine on ordered input, then
/// the native engine with the construction cut-off on and off under
/// disorder.
fn e10_runs(scale: Scale) -> [RunReport; 4] {
    let w = workload(4);
    let events = w.generate(scale.events, scale.seed);
    let q = w.partitioned_query(3, W);

    // (a) pointer maintenance vs positional RIP on *ordered* input
    let ordered = sorted_stream(&events);
    let mut cfg = EngineConfig::with_k(Duration::new(K));
    cfg.partitioned = false;
    let classic = run_with(Strategy::InOrder, &q, cfg, &ordered);
    let native = run_with(Strategy::Native, &q, cfg, &ordered);

    // (b) construction window cut-off on/off under disorder
    let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
    let mut on_cfg = cfg;
    on_cfg.construct.window_cutoff = true;
    let mut off_cfg = cfg;
    off_cfg.construct.window_cutoff = false;
    let on = run_with(Strategy::Native, &q, on_cfg, &stream);
    let off = run_with(Strategy::Native, &q, off_cfg, &stream);
    [classic, native, on, off]
}

/// E10 — the paper's CPU optimizations, ablated.
pub fn e10(scale: Scale) -> String {
    let [classic, native, on, off] = e10_runs(scale);

    let mut ta = Table::new(&["engine (ordered input)", "throughput", "matches"]);
    ta.row(&[
        "classic rip-pointers".into(),
        keps(&classic),
        classic.net_matches().to_string(),
    ]);
    ta.row(&[
        "native positional-rip".into(),
        keps(&native),
        native.net_matches().to_string(),
    ]);
    let mut tb = Table::new(&["cut-off", "dfs steps", "throughput", "matches"]);
    tb.row(&[
        "on".into(),
        on.stats.dfs_steps.to_string(),
        keps(&on),
        on.net_matches().to_string(),
    ]);
    tb.row(&[
        "off".into(),
        off.stats.dfs_steps.to_string(),
        keps(&off),
        off.net_matches().to_string(),
    ]);
    format!(
        "E10a  pointered vs. positional stacks, ordered input (same output)\n\n{ta}\n\
         E10b  SC early window cut-off ablation (20% late)\n\n{tb}\n\
         shape: order-insensitivity costs a modest constant factor on\n\
         perfectly ordered input (sorted-insert path + arrival-driven\n\
         anchoring at every slot) and in exchange stays exact under any\n\
         disorder; the cut-off removes a ~5x DFS blow-up.\n"
    )
}

/// E11 — hash-partitioned stacks vs. flat stacks as key cardinality grows.
pub fn e11(scale: Scale) -> String {
    let mut t = Table::new(&["tags", "flat", "partitioned", "speedup"]);
    for tags in [1i64, 10, 100, 1000, 10_000] {
        let w = Synthetic::new(SyntheticConfig {
            num_types: 4,
            tag_cardinality: tags,
            value_range: 100,
            mean_gap: 20,
        });
        let events = w.generate(scale.events, scale.seed);
        let stream = delay_shuffle(&events, 0.2, OOO_DELAY, scale.seed);
        let q = w.partitioned_query(3, W);
        let mut flat_cfg = EngineConfig::with_k(Duration::new(K));
        flat_cfg.partitioned = false;
        let mut part_cfg = flat_cfg;
        part_cfg.partitioned = true;
        let flat = run_with(Strategy::Native, &q, flat_cfg, &stream);
        let part = run_with(Strategy::Native, &q, part_cfg, &stream);
        assert_eq!(
            flat.net_matches(),
            part.net_matches(),
            "partitioning must not change output"
        );
        t.row(&[
            tags.to_string(),
            keps(&flat),
            keps(&part),
            f2(part.throughput_eps / flat.throughput_eps),
        ]);
    }
    format!(
        "E11  partitioned vs. flat state, SEQ(T0,T1,T2) tag-correlated\n\
         (20% late, W={W}, K={K})\n\n{t}\n\
         shape: at cardinality 1 the key index is pure overhead (every\n\
         instance is kept twice); as cardinality grows, per-key stacks\n\
         shrink and the DFS stops wading through other keys' instances —\n\
         throughput climbs, and stays there when keys outnumber the\n\
         window's events, because purge visits only what it removes.\n"
    )
}

/// E12 — punctuation-driven vs. K-slack-driven purge under failure bursts.
pub fn e12(scale: Scale) -> String {
    let w = workload(4);
    let n = scale.events;
    let half = w.generate(n / 2, scale.seed);
    // second source: same workload shape, shifted ids/timestamps
    let other = { w.generate(n / 2, scale.seed + 1) };
    let horizon = half.last().map(|e| e.ts().ticks()).unwrap_or(1000);
    let outage = Outage {
        from: Timestamp::new(horizon / 3),
        until: Timestamp::new(horizon / 3 + horizon / 10),
    };
    let net = Network::new(
        vec![
            Source::new(half, DelayModel::Uniform { lo: 0, hi: 40 }).with_outage(outage),
            Source::new(other, DelayModel::Uniform { lo: 0, hi: 40 }),
        ],
        scale.seed,
    );
    let stream = net.deliver();
    let report = measure_disorder(&stream);
    let k_needed = report.max_lateness.ticks().max(1);
    let q = w.partitioned_query(2, W);

    // K-slack sized to the worst burst
    let kslack_cfg = EngineConfig::with_k(Duration::new(k_needed));
    let ks = run_with(Strategy::Native, &q, kslack_cfg, &stream);

    // punctuated stream with omniscient source watermark
    let punctuated = punctuate(&stream, 100);
    let mut punct_cfg = EngineConfig::with_k(Duration::new(k_needed));
    punct_cfg.watermark = WatermarkSource::Both;
    let pu = run_with(Strategy::Native, &q, punct_cfg, &punctuated);

    let mut t = Table::new(&["watermark", "peak state", "mean state", "matches"]);
    t.row(&[
        format!("k-slack (K={k_needed})"),
        ks.peak_state.to_string(),
        f2(ks.mean_state),
        ks.net_matches().to_string(),
    ]);
    t.row(&[
        "k-slack + punctuation".into(),
        pu.peak_state.to_string(),
        f2(pu.mean_state),
        pu.net_matches().to_string(),
    ]);
    let agree = if ks.net_matches() == pu.net_matches() {
        "yes"
    } else {
        "NO (BUG)"
    };
    format!(
        "E12  failure-burst disorder: K-slack vs. punctuation watermarks\n\
         two sources, uniform delay <= 40, one outage with retransmission\n\
         burst; measured disorder: {:.1}% late, max lateness {}\n\n{t}\n\
         outputs agree: {agree}\n\
         shape: a K sized for the worst burst over-retains state the whole\n\
         run; punctuations advance the watermark between bursts and purge\n\
         earlier at equal correctness.\n",
        report.late_fraction * 100.0,
        report.max_lateness,
    )
}

/// One E13 bound: its label, its run, its final `K`, and its accuracy
/// against fixed `K` = the true maximum lateness.
type E13Row = (String, RunReport, u64, Accuracy);

/// E13's stream disorder, its under-sized fixed `K` (the adaptive rows'
/// floor), and its rows: the true-max bound first, then the under-sized
/// one, then adaptive at safeties 1 and 2.
fn e13_rows(scale: Scale) -> (DisorderReport, u64, Vec<E13Row>) {
    let w = workload(4);
    let events = w.generate(scale.events / 2, scale.seed);
    let net = Network::new(
        vec![Source::new(
            events.clone(),
            DelayModel::Pareto {
                scale: 5.0,
                shape: 1.1,
            },
        )],
        scale.seed,
    );
    let stream = net.deliver();
    let report = measure_disorder(&stream);
    let true_k = report.max_lateness.ticks().max(1);
    let q = w.partitioned_query(2, W);

    // ground truth: fixed K equal to the true bound
    let oracle = run(Strategy::Native, &q, true_k, &stream);
    let mut rows = Vec::new();
    let mut row = |name: String, r: RunReport, k_final: u64| {
        let acc = compare_outputs(&r.outputs, &oracle.outputs);
        rows.push((name, r, k_final, acc));
    };
    row("fixed K = true max".into(), oracle.clone(), true_k);

    let small_k = (report.mean_lateness * 3.0).ceil() as u64 + 1;
    let under = run(Strategy::Native, &q, small_k, &stream);
    row(format!("fixed K = 3x mean ({small_k})"), under, small_k);

    for safety in [1.0f64, 2.0] {
        let cfg = EngineConfig::with_adaptive_k(Duration::new(small_k), safety);
        let mut engine = sequin_engine::NativeEngine::new(Arc::clone(&q), cfg);
        let r = run_engine(&mut engine, &stream, 64);
        let name = format!("adaptive (floor {small_k}, safety {safety})");
        row(name, r, engine.k_hat().ticks());
    }
    (report, small_k, rows)
}

/// E13 (extension) — adaptive disorder-bound estimation vs. fixed K under
/// heavy-tailed (Pareto) delays where the true bound is unknown a priori.
pub fn e13(scale: Scale) -> String {
    let (report, _, rows) = e13_rows(scale);
    let mut t = Table::new(&[
        "bound",
        "k final",
        "recall",
        "mean state",
        "beyond-k arrivals",
    ]);
    for (name, r, k_final, acc) in rows {
        t.row(&[
            name,
            k_final.to_string(),
            f2(acc.recall()),
            f2(r.mean_state),
            r.stats.late_drops.to_string(),
        ]);
    }
    format!(
        "E13  adaptive K̂ vs. fixed K under Pareto delays (extension)\n\
         measured disorder: {:.1}% late, mean lateness {:.1}, max {}\n\n{t}\n\
         shape: an underestimated fixed K silently loses matches forever;\n\
         the adaptive bound converges to the observed tail (losing only\n\
         what arrived before the estimate caught up) at a fraction of the\n\
         worst-case bound's state cost when safety is moderate.\n",
        report.late_fraction * 100.0,
        report.mean_lateness,
        report.max_lateness,
    )
}

/// Runs every experiment at `scale`, returning `(id, rendered)` pairs.
pub fn all(scale: Scale) -> Vec<(&'static str, String)> {
    vec![
        ("e1", e1(scale)),
        ("e2", e2(scale)),
        ("e3", e3(scale)),
        ("e4", e4(scale)),
        ("e5", e5(scale)),
        ("e6", e6(scale)),
        ("e7", e7(scale)),
        ("e8", e8(scale)),
        ("e9", e9(scale)),
        ("e10", e10(scale)),
        ("e11", e11(scale)),
        ("e12", e12(scale)),
        ("e13", e13(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_metrics::net_inserts;

    fn tiny() -> Scale {
        Scale {
            events: 2_000,
            seed: 7,
        }
    }

    /// The controls' reason to exist, as numbers: the in-order engine is
    /// exact on sorted input and loses recall under disorder; within `K`
    /// the buffered and the native engine both find exactly the oracle's
    /// matches, and the buffer pays for it in latency and state.
    #[test]
    fn the_controls_show_what_native_fixes() {
        let scale = Scale::ci();
        let (oracle, rows) = e1_rows(scale);
        let recall = |pct| rows.iter().find(|r| r.0 == pct).unwrap().2.recall();
        assert!(oracle.net_matches() > 50, "{}", oracle.net_matches());
        assert_eq!(recall(0), 1.0, "in-order on sorted input");
        assert!(
            recall(50) < 1.0,
            "in-order at 50 % disorder: {}",
            recall(50)
        );

        let want = net_inserts(&oracle.outputs);
        for (k, kb, no) in buffered_vs_native(scale) {
            assert!(net_inserts(&kb.outputs) == want, "buffered, K = {k}");
            assert!(net_inserts(&no.outputs) == want, "native, K = {k}");
            let latency = |r: &RunReport| r.event_time_latency.mean;
            assert!(latency(&kb) >= latency(&no), "latency, K = {k}");
            assert!(kb.peak_state >= no.peak_state, "peak state, K = {k}");
        }
    }

    /// E13's shape: the true-max bound is exact, an under-sized one loses
    /// matches, and the adaptive bound recovers them from that floor, with
    /// less state than the true max at safety 1.
    #[test]
    fn adaptive_k_recovers_what_an_undersized_k_loses() {
        let (_, floor, rows) = e13_rows(Scale::ci());
        let [exact, under, adaptive @ ..] = &rows[..] else {
            panic!("{} rows", rows.len())
        };
        assert_eq!(exact.3.recall(), 1.0, "{}", exact.0);
        assert!(under.3.recall() < 1.0, "{}: {}", under.0, under.3.recall());
        for (name, r, k_final, acc) in adaptive {
            assert!(acc.recall() >= under.3.recall(), "{name}: {}", acc.recall());
            assert!(r.stats.late_drops < under.1.stats.late_drops, "{name}");
            assert!(*k_final >= floor, "{name}: K̂ {k_final} below {floor}");
        }
        let safety_1 = &adaptive[0];
        assert!(safety_1.0.contains("safety 1)"), "{}", safety_1.0);
        assert!(safety_1.1.mean_state < exact.1.mean_state, "{}", safety_1.0);
    }

    /// E5's shape: the native engine's peak state rises with the window.
    #[test]
    fn e5_native_peak_state_rises_with_the_window() {
        let rows = e5_rows(Scale::ci());
        let peaks: Vec<_> = rows.iter().map(|(_, _, no)| no.peak_state).collect();
        assert!(peaks.windows(2).all(|p| p[0] < p[1]), "{peaks:?}");
    }

    /// E7's shape: without purge the state grows with the stream, above
    /// what any cadence keeps; eager purge runs once per event, and a
    /// larger batch runs fewer.
    #[test]
    fn e7_every_purge_cadence_keeps_less_state_than_none() {
        let scale = Scale::ci();
        let rows = e7_rows(scale);
        let [(_, never), purging @ ..] = &rows[..] else {
            panic!("{} rows", rows.len())
        };
        for (name, r) in purging {
            assert!(never.peak_state > r.peak_state, "{name}: {}", r.peak_state);
        }
        let runs: Vec<u64> = rows.iter().map(|(_, r)| r.stats.purge_runs).collect();
        assert_eq!(runs[..2], [0, scale.events as u64], "{runs:?}");
        assert!(
            runs[1] > runs[2] && runs[2] > runs[3] && runs[3] > 0,
            "{runs:?}"
        );
    }

    /// E9's shape: insertions, DFS steps and matches all rise with the
    /// share of events that pass the local predicates.
    #[test]
    fn e9_work_and_matches_rise_with_selectivity() {
        let rows = e9_rows(Scale::ci());
        let rising = |of: fn(&RunReport) -> u64| {
            let values: Vec<u64> = rows.iter().map(|(_, r)| of(r)).collect();
            assert!(values.windows(2).all(|p| p[0] < p[1]), "{values:?}");
        };
        rising(|r| r.stats.insertions);
        rising(|r| r.stats.dfs_steps);
        rising(|r| r.stats.matches_constructed);
    }

    /// E10's shape: on ordered input the classic and the native engine
    /// find the same matches; under disorder the window cut-off prunes
    /// DFS steps and loses none.
    #[test]
    fn e10_stacks_agree_and_the_cutoff_prunes_without_loss() {
        let [classic, native, on, off] = e10_runs(Scale::ci());
        assert_eq!(classic.net_matches(), native.net_matches());
        assert!(on.stats.dfs_steps < off.stats.dfs_steps);
        assert_eq!(on.net_matches(), off.net_matches());
    }

    #[test]
    fn e8_policies_agree() {
        let s = e8(tiny());
        assert!(s.contains("net outputs agree: yes"), "{s}");
    }

    #[test]
    fn e11_partitioning_preserves_output() {
        // the assert inside e11 is the real test
        let s = e11(Scale {
            events: 1_000,
            seed: 7,
        });
        assert!(s.contains("speedup"));
    }

    #[test]
    fn e12_watermarks_agree() {
        let s = e12(tiny());
        assert!(s.contains("outputs agree: yes"), "{s}");
    }
}
