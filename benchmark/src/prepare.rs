//! Set-up: everything between a workload's start and its first timed
//! event.

use std::time::Instant;

use sequin_server::{encode_frame, CoreConfig, EngineCore, Frame, OutputFrame};

use crate::check::Tally;
use crate::engine_path::{
    build_core, core_config, drive, state_items, state_stride_batches, Outputs,
};
use crate::gen::{generate, Input, InputSpec};
use crate::wire_path::{self, encode_batches, Session, WireFrames};
use crate::workloads::{Path, Workload};

/// A workload's inputs, ready to be fed.
pub struct Prepared {
    pub input: Input,
    pub cfg: CoreConfig,
    pub queries: Vec<String>,
    /// Pre-encoded EVENT_BATCH frames (wire workloads).
    pub frames: Option<WireFrames>,
}

/// A fresh program under test.
pub enum Instance {
    Core(Box<EngineCore>),
    Session(Session),
}

/// Where set-up time went, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation and, on the wire, pre-encoding the frames.
    pub gen_s: f64,
    /// `EngineCore::new` and every `subscribe` (in-process workloads).
    pub build_s: f64,
    /// `Server::start`, listen, connect, HELLO, every SUBSCRIBE (wire
    /// workloads).
    pub connect_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.build_s + self.connect_s
    }
}

impl Prepared {
    pub fn instance(&self, w: &Workload) -> Result<Instance, String> {
        Ok(match w.path {
            Path::Engine => Instance::Core(Box::new(build_core(&self.cfg, &self.queries))),
            _ => Instance::Session(wire_path::open(&self.cfg, &self.queries)?),
        })
    }
}

/// Generates the input from `seed` and builds the first instance.
pub fn set_up(
    w: &Workload,
    spec: &InputSpec,
    seed: u64,
) -> Result<(Prepared, Instance, SetupTimes), String> {
    let t = Instant::now();
    let input = generate(spec, seed);
    let frames = (w.path != Path::Engine).then(|| encode_batches(&input.arrival, w.batch));
    let gen_s = t.elapsed().as_secs_f64();
    let prepared = Prepared {
        cfg: core_config(w, &input.registry),
        queries: w.queries.texts(),
        input,
        frames,
    };
    let t = Instant::now();
    let instance = prepared.instance(w)?;
    let built = t.elapsed().as_secs_f64();
    let times = match w.path {
        Path::Engine => SetupTimes {
            gen_s,
            build_s: built,
            connect_s: 0.0,
        },
        _ => SetupTimes {
            gen_s,
            build_s: 0.0,
            connect_s: built,
        },
    };
    Ok((prepared, instance, times))
}

/// What the untimed in-process pass over the arrivals establishes: the
/// outputs every later pass must reproduce, and the deterministic
/// metrics.
pub struct Expected {
    pub tally: Tally,
    /// Every output as the OUTPUT frame a server would send, in order.
    pub frames: Vec<Vec<u8>>,
    /// Mean sampled `sequin_engine_state_size`, summed over queries (0
    /// when the pass did not sample).
    pub state_mean: f64,
    pub late_drops: u64,
    /// Wall time of this pass, first ingest call to `finish()` returned.
    pub wall_ns: u64,
}

pub fn output_frame(query: usize, o: &sequin_engine::OutputItem) -> Vec<u8> {
    encode_frame(&Frame::Output(OutputFrame {
        query_id: query as u64,
        kind: o.kind,
        events: o.m.events().to_vec(),
        emit_seq: o.emit_seq,
        emit_clock: o.emit_clock,
    }))
}

/// Feeds the arrivals to `core` in the workload's batches. With
/// `sample_state`, reads the state gauge every [`state_stride_batches`]
/// batches; without, only the engine and the folding of its outputs run
/// inside `wall_ns`. Frames are kept for wire workloads, whose runs are
/// compared byte for byte.
pub fn expected(w: &Workload, p: &Prepared, core: &mut EngineCore, sample_state: bool) -> Expected {
    let stride = state_stride_batches(p.queries.len());
    let batches = p.input.arrival.len().div_ceil(w.batch);
    let wire = w.path != Path::Engine;
    let mut tally = Tally::default();
    let mut kept: Vec<Outputs> = Vec::new();
    let mut samples: Vec<u64> = Vec::new();
    let wall_ns = drive(core, &p.input.arrival, w.batch, |core, ix, out, _| {
        // folded and dropped as a consumer would; only the wire workloads'
        // few outputs are held, to be encoded once the clock has stopped
        tally.add_items(&out);
        if wire {
            kept.push(out);
        }
        // the last batch too, so that a short input still has a sample
        if sample_state && ((ix + 1) % stride == 0 || ix + 1 == batches) {
            samples.push(state_items(core));
        }
    });
    let frames = kept
        .iter()
        .flatten()
        .map(|(q, o)| output_frame(q.index(), o))
        .collect();
    Expected {
        tally,
        frames,
        state_mean: samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64,
        late_drops: core.stats().late_drops,
        wall_ns,
    }
}
