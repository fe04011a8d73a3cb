//! The end-to-end run (tracing off): set-up, one untimed verification
//! pass, then timed repetitions on fresh state.

use std::time::{Duration, Instant};

use crate::check::{against_reference, pinned, tally_of, Tally, PINNED_SEED};
use crate::engine_path::{build_core, drive};
use crate::gen::InputSpec;
use crate::prepare::{expected, set_up, Expected, Instance, Prepared};
use crate::report::{Failures, Report};
use crate::stats::{fastest_per_part, mean_of_best_quarter, percentile};
use crate::wire_path::{self, WireRun};
use crate::workloads::{Path, Workload};

pub struct Options {
    pub seed: u64,
    /// Timed repetitions run until this much time has passed.
    pub seconds: f64,
    /// 1/20 size, one set-up, one repetition: correctness only.
    pub quick: bool,
}

/// Full set-ups per run; `setup_s` is their median. Five, and more of a
/// set-up of milliseconds, whose time the machine moves most: as many as
/// fit in [`SETUPS_SECONDS`], up to [`MAX_SETUPS`].
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUPS_SECONDS: f64 = 0.5;
/// Timed repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 60;
/// A paced repetition whose generator wrote more than this share of its
/// batches over a millisecond late measured the generator, not the
/// server: it is discarded and run again.
const MAX_LATE_SHARE: f64 = 0.01;
const MAX_DISCARDS: usize = 3;

fn per_second(events: u64, ns: u64) -> f64 {
    events as f64 / (ns.max(1) as f64 / 1e9)
}

/// Each call's time once per output the call returned: the service time
/// every output saw.
fn per_output(call_ns: &[u64], outputs_of: &[usize]) -> Vec<u64> {
    call_ns
        .iter()
        .zip(outputs_of)
        .flat_map(|(ns, n)| std::iter::repeat_n(*ns, *n))
        .collect()
}

pub fn scaled(spec: &InputSpec, quick: bool) -> InputSpec {
    InputSpec {
        events: if quick { spec.events / 20 } else { spec.events },
        ..*spec
    }
}

pub fn run(w: &Workload, opt: &Options) -> Result<Report, String> {
    let spec = scaled(&w.input, opt.quick);
    let mut report = Report::default();
    let mut fails = Failures::default();

    // set-up, several times over; the last one is kept
    let started = Instant::now();
    let (p, first) = loop {
        let (prepared, instance, times) = set_up(w, &spec, opt.seed)?;
        report.sample("setup_s", times.total());
        let done = report.quartiles("setup_s").map_or(0, |q| q.n);
        let more = done < MIN_SETUPS
            || (done < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUPS_SECONDS);
        if opt.quick || !more {
            break (prepared, instance);
        }
    };
    let events = p.input.arrival.len() as u64;

    // verification pass, untimed
    let want = match first {
        Instance::Core(mut core) => expected(w, &p, &mut core, true),
        Instance::Session(mut session) => {
            let want = expected(w, &p, &mut build_core(&p.cfg, &p.queries), true);
            let got = wire_run(w, &p, &mut session);
            session.close();
            fails.attempt(events + want.tally.outputs());
            fails.add("wire verification pass", wire_failures(&got, &want));
            want
        }
    };
    verify(w, &p, &want, opt, &mut fails)?;

    // timed repetitions, each on fresh state
    let started = Instant::now();
    let (budget, min_reps) = if opt.quick {
        (Duration::ZERO, 1)
    } else {
        (Duration::from_secs_f64(opt.seconds), MIN_REPS)
    };
    let mut reps = 0;
    let mut discards = 0;
    // in process: calls[rep][i] is how long the i-th ingest call took and
    // outputs_of[i] how many outputs it returned, the same in every
    // repetition; on the wire: latency[rep][j] is the j-th output's
    let mut calls: Vec<Vec<u64>> = Vec::new();
    let mut outputs_of: Vec<usize> = Vec::new();
    let mut latency: Vec<Vec<u64>> = Vec::new();
    // each repetition by itself; the table shows their quartiles
    let mut rates: Vec<f64> = Vec::new();
    let mut p50s_us: Vec<f64> = Vec::new();
    while reps < MAX_REPS && (reps < min_reps || started.elapsed() < budget) {
        let (wall_ns, mut latencies) = match p.instance(w)? {
            Instance::Core(mut core) => {
                // outputs are folded and dropped as they come, as a consumer
                // would: holding a repetition's worth (40 MB on engine-neg)
                // only adds memory traffic to the measurement
                let mut tally = Tally::default();
                let mut call_ns: Vec<u64> = Vec::new();
                outputs_of.clear();
                drive(&mut core, &p.input.arrival, w.batch, |_, _, out, ns| {
                    call_ns.push(ns);
                    outputs_of.push(out.len());
                    tally.add_items(&out);
                });
                fails.attempt(events + want.tally.outputs());
                fails.add(
                    "repetition's outputs differ",
                    tally.differs_from(&want.tally),
                );
                fails.add("repetition dropped late events", core.stats().late_drops);
                let wall_ns = call_ns.iter().sum();
                let latencies = per_output(&call_ns, &outputs_of);
                calls.push(call_ns);
                (wall_ns, latencies)
            }
            Instance::Session(mut session) => {
                let got = wire_run(w, &p, &mut session);
                let stats = session.close();
                fails.attempt(events + want.tally.outputs());
                fails.add("repetition on the wire", wire_failures(&got, &want));
                fails.add("frames the server rejected", stats.rejected_frames);
                let late_share = got.late_share();
                if matches!(w.path, Path::WirePaced { .. })
                    && late_share > MAX_LATE_SHARE
                    && discards < MAX_DISCARDS
                {
                    discards += 1;
                    report.note(format!(
                        "discarded a repetition: {:.1} % of sends over 1 ms late",
                        late_share * 100.0
                    ));
                    continue;
                }
                let latencies = got.latencies_ns(w.batch);
                latency.push(latencies.clone());
                (got.wall_ns.unwrap_or(0), latencies)
            }
        };
        reps += 1;
        rates.push(per_second(events, wall_ns));
        p50s_us.push(percentile(&mut latencies, 50.0) as f64 / 1e3);
        report.sample("throughput_eps", rates[rates.len() - 1]);
        report.sample("latency_p50_us", p50s_us[p50s_us.len() - 1]);
    }

    // The run's values take from the repetitions what the machine disturbed
    // least (`fastest_per_part` says why). Where the parts of the work do
    // not depend on each other's timing, each part counts at its fastest:
    // in process the time is that inside the ingest calls, and a paced
    // output's latency is its own. In a flood every stage runs ahead of or
    // waits for another, so only a whole repetition's time stands by
    // itself: the value is the mean of the best quarter of repetitions.
    let p50_us = |ns: &mut [u64]| percentile(ns, 50.0) as f64 / 1e3;
    let (rate, latency_us) = match w.path {
        Path::Engine => {
            let fastest = fastest_per_part(&calls);
            (
                per_second(events, fastest.iter().sum()),
                p50_us(&mut per_output(&fastest, &outputs_of)),
            )
        }
        Path::WirePaced { .. } => (
            mean_of_best_quarter(&rates, true),
            p50_us(&mut fastest_per_part(&latency)),
        ),
        Path::WireFlood => (
            mean_of_best_quarter(&rates, true),
            mean_of_best_quarter(&p50s_us, false),
        ),
    };
    report.set("throughput_eps", rate);
    report.set("latency_p50_us", latency_us);

    let inserts = want.tally.inserts.max(1) as f64;
    report.sample("state_mean_items", want.state_mean);
    report.sample(
        "detect_ticks_mean",
        want.tally.detect_ticks as f64 / inserts,
    );
    report.sample(
        "insert_precision",
        1.0 - want.tally.retracts as f64 / inserts,
    );
    report.fails = fails;
    Ok(report)
}

/// Checks the untimed pass's outputs: no event beyond the disorder bound,
/// the settled set equal to the in-order oracle's and, on a slice, to the
/// naive reference's, and at the default seed equal to the pins.
pub fn verify(
    w: &Workload,
    p: &Prepared,
    want: &Expected,
    opt: &Options,
    fails: &mut Failures,
) -> Result<(), String> {
    let events = p.input.arrival.len() as u64;
    fails.attempt(events + want.tally.outputs());
    fails.add("events later than the disorder bound", want.late_drops);

    let mut oracle = build_core(&p.cfg, &p.queries);
    let in_order = tally_of(&mut oracle, &p.input.in_order, w.batch);
    fails.attempt(events + in_order.settled().unsigned_abs());
    fails.add(
        "settled set differs from the in-order oracle's",
        want.tally.differs_from(&in_order),
    );

    let (reference, wrong) = against_reference(w, &p.input);
    fails.attempt(reference.max(1));
    fails.add("settled set differs from the naive reference's", wrong);

    if opt.seed == PINNED_SEED && !opt.quick {
        let (input_sum, settled, sum) = pinned(w.name).ok_or("workload has no pin")?;
        fails.attempt(3);
        fails.add(
            "input checksum differs from the pin",
            u64::from(p.input.checksum != input_sum),
        );
        fails.add(
            "settled count differs from the pin",
            u64::from(want.tally.settled() != settled),
        );
        fails.add(
            "settled checksum differs from the pin",
            u64::from(want.tally.checksum() != sum),
        );
    }
    Ok(())
}

pub fn wire_run(w: &Workload, p: &Prepared, session: &mut wire_path::Session) -> WireRun {
    let gap = match w.path {
        Path::WirePaced { gap_us } => Some(Duration::from_micros(gap_us)),
        _ => None,
    };
    let frames = p.frames.as_ref().expect("wire workloads pre-encode");
    wire_path::run(session, frames, gap)
}

/// OUTPUT frames missing, spurious or not byte-identical, in order, to the
/// in-process run's; plus ERROR frames, batches that could not be written
/// and a DRAIN_ACK that never came.
pub fn wire_failures(got: &WireRun, want: &Expected) -> u64 {
    let differing = got
        .outputs
        .iter()
        .zip(&want.frames)
        .filter(|(g, w)| g.sealed != **w)
        .count();
    differing as u64
        + got.outputs.len().abs_diff(want.frames.len()) as u64
        + got.errors
        + got.unsent
        + u64::from(got.wall_ns.is_none())
}
