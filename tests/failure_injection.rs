//! Failure-mode integration tests: retransmission bursts, punctuation
//! watermarks, duplicate delivery, disorder-bound violations, end-of-stream
//! flushing, and mutated or torn wire frames.

mod common;

use common::{drive, ev, net_keys, reference_matches, stream_of};
use sequin::engine::{DisorderPolicy, EngineConfig, NativeEngine, OutputKind, WatermarkSource};
use sequin::netsim::{measure_disorder, punctuate, DelayModel, Network, Outage, Source};
use sequin::prng::Rng;
use sequin::query::parse;
use sequin::runtime::RuntimeStats;
use sequin::server::frame::read_frame;
use sequin::server::{
    decode_frame, encode_frame, ErrorCode, Frame, MetricsFormat, OutputFrame, ServerStats,
    TraceFormat, MAX_FRAME_LEN,
};
use sequin::types::codec::{open_envelope, seal_envelope};
use sequin::types::{
    ArrivalSeq, Duration, Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, Value,
    ValueKind,
};
use sequin::workload::{Synthetic, SyntheticConfig};
use sequin_bench::{make_engine, Strategy};
use std::io::ErrorKind;
use std::sync::Arc;

fn synthetic() -> Synthetic {
    Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 5,
        value_range: 20,
        mean_gap: 4,
    })
}

#[test]
fn retransmission_burst_is_fully_recovered() {
    let w = synthetic();
    let events = w.generate(400, 31);
    let q = w.seq_query(2, 60);
    let oracle = reference_matches(&q, &events);
    assert!(!oracle.is_empty(), "workload must actually produce matches");

    let horizon = events.last().unwrap().ts();
    let mid = events.len() / 2;
    let outage = Outage {
        from: Timestamp::new(horizon.ticks() / 3),
        until: Timestamp::new(horizon.ticks() / 2),
    };
    let net = Network::new(
        vec![
            Source::new(
                events[..mid].to_vec(),
                DelayModel::Uniform { lo: 0, hi: 10 },
            )
            .with_outage(outage),
            Source::new(
                events[mid..].to_vec(),
                DelayModel::Uniform { lo: 0, hi: 10 },
            ),
        ],
        9,
    );
    let stream = net.deliver();
    let disorder = measure_disorder(&stream);
    assert!(
        disorder.late_events > 0,
        "the outage must actually disorder the stream"
    );

    let k = disorder.max_lateness.ticks().max(1);
    let mut engine = make_engine(
        Strategy::Native,
        Arc::clone(&q),
        EngineConfig::with_k(Duration::new(k)),
    );
    let got = net_keys(&drive(engine.as_mut(), &stream));
    assert_eq!(got, oracle, "burst disorder lost or invented matches");
}

#[test]
fn punctuation_only_watermark_is_exact() {
    let w = synthetic();
    let events = w.generate(300, 32);
    let q = w.negation_query(40);
    let oracle = reference_matches(&q, &events);

    let stream = sequin::netsim::delay_shuffle(&events, 0.3, 50, 3);
    let punctuated = punctuate(&stream, 25);
    // no K at all: the engine relies purely on punctuations
    let mut cfg = EngineConfig::with_k(Duration::new(u64::MAX / 4));
    cfg.watermark = WatermarkSource::Punctuation;
    let mut engine = make_engine(Strategy::Native, q, cfg);
    let got = net_keys(&drive(engine.as_mut(), &punctuated));
    assert_eq!(got, oracle);
}

#[test]
fn duplicate_delivery_is_idempotent_at_scale() {
    let w = synthetic();
    let events = w.generate(200, 33);
    let q = w.seq_query(2, 60);
    let oracle = reference_matches(&q, &events);

    // deliver everything twice, interleaved
    let mut items = Vec::new();
    for e in &events {
        items.push(StreamItem::Event(Arc::clone(e)));
        items.push(StreamItem::Event(Arc::clone(e)));
    }
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(10)));
    let got = net_keys(&drive(engine.as_mut(), &items));
    assert_eq!(
        got, oracle,
        "re-delivered events must not duplicate matches"
    );
}

#[test]
fn violating_the_disorder_bound_is_detected_and_bounded() {
    let mut reg = TypeRegistry::new();
    reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
    reg.declare("B", &[("x", ValueKind::Int)]).unwrap();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 50", &reg).unwrap();
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(10)));

    // clock races ahead, then an event arrives 1000 ticks late (K = 10)
    let items: Vec<StreamItem> = stream_of(&[
        ev(&reg, "A", 1, 100, &[0]),
        ev(&reg, "B", 2, 2000, &[0]),
        ev(&reg, "A", 3, 900, &[0]), // violates K by far
    ]);
    for item in &items {
        engine.ingest(item);
    }
    assert_eq!(engine.stats().late_drops, 1, "the violation is counted");
}

#[test]
fn finish_flushes_buffered_and_pending_state() {
    let w = synthetic();
    let events = w.generate(150, 34);
    let q = w.negation_query(40);
    let oracle = reference_matches(&q, &events);

    // enormous K: nothing would ever seal or release without finish()
    for strategy in [Strategy::Buffered, Strategy::Native] {
        let mut engine = make_engine(
            strategy,
            Arc::clone(&q),
            EngineConfig::with_k(Duration::new(u64::MAX / 4)),
        );
        let mut outputs = Vec::new();
        for item in stream_of(&events) {
            outputs.extend(engine.ingest(&item));
        }
        let before_finish = net_keys(&outputs);
        outputs.extend(engine.finish());
        let after_finish = net_keys(&outputs);
        assert!(before_finish.len() < oracle.len() || oracle.is_empty());
        assert_eq!(
            after_finish, oracle,
            "{strategy}: finish must flush everything"
        );
    }
}

#[test]
fn pareto_heavy_tail_disorder_still_exact() {
    let w = synthetic();
    let events = w.generate(500, 35);
    let q = w.partitioned_query(2, 80);
    let oracle = reference_matches(&q, &events);

    let net = Network::new(
        vec![Source::new(
            events.clone(),
            DelayModel::Pareto {
                scale: 2.0,
                shape: 1.2,
            },
        )],
        11,
    );
    let stream = net.deliver();
    let disorder = measure_disorder(&stream);
    assert!(disorder.late_fraction > 0.05);

    let k = disorder.max_lateness.ticks().max(1);
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(k)));
    let got = net_keys(&drive(engine.as_mut(), &stream));
    assert_eq!(got, oracle);
}

#[test]
fn watermark_stalls_without_events_until_punctuation() {
    let mut reg = TypeRegistry::new();
    reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
    reg.declare("N", &[("x", ValueKind::Int)]).unwrap();
    reg.declare("B", &[("x", ValueKind::Int)]).unwrap();
    let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
    let mut cfg = EngineConfig::with_k(Duration::new(50));
    cfg.watermark = WatermarkSource::Both;
    let mut engine = NativeEngine::new(q, cfg);

    let mut out = Vec::new();
    out.extend(engine.ingest(&StreamItem::Event(ev(&reg, "A", 1, 10, &[0]))));
    out.extend(engine.ingest(&StreamItem::Event(ev(&reg, "B", 2, 20, &[0]))));
    assert!(
        out.is_empty(),
        "negation region (10,20) unsealed: watermark is 0"
    );
    // the stream goes quiet; a heartbeat punctuation seals the region
    out.extend(engine.ingest(&StreamItem::Punctuation(Timestamp::new(30))));
    assert_eq!(out.len(), 1, "punctuation released the pending match");
}

#[test]
fn sources_with_mixed_delay_models_merge_correctly() {
    let w = synthetic();
    let events = w.generate(300, 36);
    let q = w.seq_query(2, 60);
    let oracle = reference_matches(&q, &events);

    let third = events.len() / 3;
    let net = Network::new(
        vec![
            Source::new(events[..third].to_vec(), DelayModel::None),
            Source::new(events[third..2 * third].to_vec(), DelayModel::Constant(25)),
            Source::new(
                events[2 * third..].to_vec(),
                DelayModel::Exponential { mean: 12.0 },
            ),
        ],
        13,
    );
    let stream = net.deliver();
    assert_eq!(stream.len(), events.len());
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(k)));
    let got = net_keys(&drive(engine.as_mut(), &stream));
    assert_eq!(got, oracle);
}

#[test]
fn empty_stream_and_eventless_punctuations_are_harmless() {
    let w = synthetic();
    let q = w.negation_query(40);
    let mut engine = make_engine(Strategy::Native, Arc::clone(&q), EngineConfig::default());
    assert!(engine
        .ingest(&StreamItem::Punctuation(Timestamp::new(100)))
        .is_empty());
    assert!(engine.finish().is_empty());
    assert_eq!(engine.state_size(), 0);
    let mut buffered = make_engine(Strategy::Buffered, q, EngineConfig::default());
    assert!(buffered.finish().is_empty());
}

#[test]
fn event_refs_are_shared_not_copied() {
    // stacks alias the ingested Arc rather than deep-copying events
    let mut reg = TypeRegistry::new();
    reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
    reg.declare("B", &[("x", ValueKind::Int)]).unwrap();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 50", &reg).unwrap();
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(10)));
    let a: EventRef = ev(&reg, "A", 1, 10, &[0]);
    engine.ingest(&StreamItem::Event(Arc::clone(&a)));
    // the engine clones the payload once to stamp the arrival sequence,
    // then shares that allocation across all of its state
    assert_eq!(
        Arc::strong_count(&a),
        1,
        "ingest must not retain the caller's Arc"
    );
    assert_eq!(engine.state_size(), 1);
}

/// One frame of every kind, tags 0 to 18 but the retired 2, carrying
/// every value kind.
fn every_frame_kind() -> Vec<Frame> {
    let mut reg = TypeRegistry::new();
    reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
    let mixed = Event::builder(reg.lookup("A").unwrap(), Timestamp::new(9))
        .id(EventId::new(3))
        .attr(Value::Int(-4))
        .attr(Value::Float(0.5))
        .attr(Value::str("tag"))
        .attr(Value::Bool(true))
        .build();
    let events = vec![ev(&reg, "A", 1, 5, &[7]), Arc::new(mixed)];
    vec![
        Frame::Hello {
            fingerprint: 0xFEED,
            client: "fuzz".into(),
        },
        Frame::HelloAck {
            fingerprint: 0xFEED,
            resume_from: 12,
            queries: 2,
        },
        Frame::EventBatch(events.clone()),
        Frame::Punctuation(Timestamp::new(40)),
        Frame::Subscribe {
            query: "PATTERN SEQ(A a, A b) WITHIN 10".into(),
            policy: Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }),
        },
        Frame::SubAck {
            query_id: 1,
            policy: DisorderPolicy::Speculative,
        },
        Frame::Output(OutputFrame {
            query_id: 1,
            kind: OutputKind::Retract,
            events,
            emit_seq: ArrivalSeq::new(6),
            emit_clock: Timestamp::new(41),
        }),
        Frame::StatsReq,
        Frame::StatsReply {
            server: ServerStats {
                frames_received: 3,
                ..ServerStats::default()
            },
            engine: RuntimeStats {
                insertions: 2,
                ..RuntimeStats::default()
            },
        },
        Frame::Drain,
        Frame::DrainAck,
        Frame::Busy { queued: 64 },
        Frame::Error {
            code: ErrorCode::BadAnalysis,
            message: "no".into(),
        },
        Frame::Bye,
        Frame::MetricsReq {
            format: MetricsFormat::TraceJson,
        },
        Frame::MetricsReply {
            format: MetricsFormat::Prometheus,
            body: "sequin_outputs_emitted 3".into(),
        },
        Frame::TraceReq {
            format: TraceFormat::Json,
            query: 1,
            pid: 2,
        },
        Frame::TraceReply {
            format: TraceFormat::Text,
            body: "output 0".into(),
        },
    ]
}

/// A frame whose payload was damaged before it was sealed — so the
/// envelope's checksum holds and every byte reaches the decoder — decodes
/// or is rejected, and never panics: byte flips, truncations and
/// insertions, on every frame kind.
#[test]
fn mutated_frame_payloads_decode_or_reject_without_panicking() {
    let frames = every_frame_kind();
    let (mut decoded, mut rejected) = (0, 0);
    for seed in [1, 2, 3, 4] {
        let mut rng = Rng::seed_from_u64(0xF0_22 + seed);
        for frame in &frames {
            let payload = open_envelope(&encode_frame(frame)).unwrap().to_vec();
            for _ in 0..100 {
                let mut bytes = payload.clone();
                match rng.gen_range(0..3u32) {
                    0 => {
                        for _ in 0..rng.gen_range(1..4u32) {
                            let at = rng.gen_range(0..bytes.len());
                            bytes[at] ^= rng.gen_range(1..=255u8);
                        }
                    }
                    1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                    _ => {
                        let at = rng.gen_range(0..=bytes.len());
                        let extra: Vec<u8> = (0..rng.gen_range(1..9u32))
                            .map(|_| rng.gen_range(0..=255u8))
                            .collect();
                        bytes.splice(at..at, extra);
                    }
                }
                match decode_frame(&seal_envelope(&bytes)) {
                    Ok(_) => decoded += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    assert_eq!(decoded + rejected, 4 * 100 * frames.len());
    assert!(rejected > decoded, "{rejected} rejected, {decoded} decoded");
}

/// `read_frame` over a torn stream reports a clean end only at a frame
/// boundary and an unexpected end anywhere else; a length prefix above
/// `MAX_FRAME_LEN` is refused before anything is allocated; a prefix that
/// misstates the length yields frames the decoder rejects.
#[test]
fn torn_and_misframed_streams_are_errors_not_panics() {
    let mut rng = Rng::seed_from_u64(0xF0_23);
    for frame in every_frame_kind() {
        let sealed = encode_frame(&frame);
        let mut wire = (sealed.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&sealed);
        assert_eq!(read_frame(&mut &wire[..]).unwrap(), Some(sealed.clone()));
        assert_eq!(read_frame(&mut &wire[..0]).unwrap(), None);
        for _ in 0..20 {
            let cut = rng.gen_range(1..wire.len());
            let torn = read_frame(&mut &wire[..cut]).unwrap_err();
            assert_eq!(torn.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        for _ in 0..5 {
            let len = rng.gen_range(MAX_FRAME_LEN + 1..=u32::MAX);
            let mut oversized = wire.clone();
            oversized[..4].copy_from_slice(&len.to_le_bytes());
            let refused = read_frame(&mut &oversized[..]).unwrap_err();
            assert_eq!(refused.kind(), ErrorKind::InvalidData, "length {len}");
        }
        for _ in 0..20 {
            // a wrong length: the frames read from here on are whatever
            // the bytes say, and each decodes or is rejected
            let len = rng.gen_range(0..sealed.len() as u32 + 64);
            let mut misframed = wire.clone();
            misframed[..4].copy_from_slice(&len.to_le_bytes());
            let mut rest = &misframed[..];
            while let Ok(Some(bytes)) = read_frame(&mut rest) {
                let _ = decode_frame(&bytes);
            }
        }
    }
}
