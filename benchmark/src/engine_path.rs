//! The in-process path: one thread calling `EngineCore::ingest_batch`.

use std::sync::Arc;
use std::time::Instant;

use sequin_engine::{EngineConfig, OutputItem, QueryId, Strategy};
use sequin_obs::{MetricsSnapshot, SeriesValue};
use sequin_server::{CoreConfig, EngineCore};
use sequin_types::{Duration, StreamItem, TypeRegistry};

use crate::workloads::Workload;

pub type Outputs = Vec<(QueryId, OutputItem)>;

/// What `sequin serve` gives a user — observability on, shared plan on,
/// one shard, no checkpointing — with the workload's disorder bound and
/// policy.
pub fn core_config(w: &Workload, registry: &Arc<TypeRegistry>) -> CoreConfig {
    let engine = EngineConfig {
        k_slack: Duration::new(w.k),
        policy: w.policy,
        ..EngineConfig::default()
    };
    CoreConfig::new(Arc::clone(registry), Strategy::Native, engine)
}

pub fn build_core(cfg: &CoreConfig, queries: &[String]) -> EngineCore {
    let mut core = EngineCore::new(cfg.clone());
    for q in queries {
        core.subscribe(q).expect("workload query is accepted");
    }
    core
}

/// Feeds `items` in batches, then `finish()`. `on_batch` gets the core,
/// the batch index (the batch count for `finish`), what the call returned
/// and how long it took. Returns the wall time from the first ingest call
/// to `finish()` returned, in nanoseconds.
pub fn drive(
    core: &mut EngineCore,
    items: &[StreamItem],
    batch: usize,
    mut on_batch: impl FnMut(&mut EngineCore, usize, Outputs, u64),
) -> u64 {
    let started = Instant::now();
    let mut batches = 0;
    for chunk in items.chunks(batch) {
        let t = Instant::now();
        let out = core.ingest_batch(chunk);
        let ns = t.elapsed().as_nanos() as u64;
        on_batch(core, batches, out, ns);
        batches += 1;
    }
    let t = Instant::now();
    let out = core.finish();
    let ns = t.elapsed().as_nanos() as u64;
    on_batch(core, batches, out, ns);
    started.elapsed().as_nanos() as u64
}

/// The named counter's or gauge's value under each of its label sets
/// (one per query, or per query and shard).
pub fn series<'a>(snapshot: &'a MetricsSnapshot, name: &'a str) -> impl Iterator<Item = u64> + 'a {
    snapshot
        .series()
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| match s.value {
            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => v,
            SeriesValue::Histogram(_) => 0,
        })
}

/// Batches between two samples of the state gauge: one for up to 256
/// queries. `metrics_snapshot` walks every query (about 10 ms for the
/// 512-query family), but the state rises and falls with the purge rounds,
/// and a mean over every 8th batch's state moved by 8 % from seed to seed
/// where a mean over every 2nd moves by under 2 %.
pub fn state_stride_batches(queries: usize) -> usize {
    queries.div_ceil(256).max(1)
}

/// Items the engine holds now: the `sequin_engine_state_size` gauge,
/// summed over queries.
pub fn state_items(core: &EngineCore) -> u64 {
    series(&core.metrics_snapshot(None), "sequin_engine_state_size").sum()
}
