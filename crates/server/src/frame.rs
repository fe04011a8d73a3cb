//! The framed wire protocol.
//!
//! Every message on a connection is one **frame**: a little-endian `u32`
//! length prefix followed by that many bytes of a sealed envelope from
//! [`sequin_types::codec`] (`magic ‖ version ‖ length ‖ payload ‖
//! checksum`). Frames are sealed at envelope version 2 and version 1 is
//! still read, so an older client's frames are accepted; an older peer
//! cannot read this build's replies, so client and server ship together.
//! The envelope payload is a one-byte frame tag plus the frame body.
//! Reusing the checkpoint codec means the protocol inherits its corruption
//! guarantees for free: any truncation or bit flip in flight is detected
//! before a single payload byte is interpreted, and a corrupted frame is
//! *rejected with a typed error*, never decoded into silently wrong
//! events.
//!
//! ## Conversation shape
//!
//! ```text
//! client                                server
//!   | -- HELLO(fingerprint) ------------> |   schema negotiation
//!   | <-- HELLO_ACK(fp, resume_from) ---- |   (or ERROR + close)
//!   | -- SUBSCRIBE(query text) ---------> |
//!   | <-- SUB_ACK(query_id) ------------- |
//!   | -- EVENT_BATCH / PUNCT ----------> |   fire-and-forget ingestion
//!   | <-- OUTPUT(query_id, match) ------- |   streamed as produced
//!   | <-- BUSY(queued) ------------------ |   backpressure advisory
//!   | -- STATS_REQ ---------------------> |
//!   | <-- STATS_REPLY(server, engine) --- |
//!   | -- METRICS_REQ(format) -----------> |   telemetry scrape
//!   | <-- METRICS_REPLY(format, body) --- |   Prometheus text / JSON
//!   | -- DRAIN -------------------------> |   end-of-stream
//!   | <-- OUTPUT... <-- DRAIN_ACK ------- |   sealed results, then ack
//!   | -- BYE ---------------------------> |
//! ```
//!
//! Every arrival rides in an EVENT_BATCH, a lone event in a batch of one.
//! Tag 2, the retired single-event frame, is an unknown tag, and no other
//! tag was renumbered.
//!
//! `resume_from` in HELLO_ACK is the server's ingest position (stream
//! items accepted so far); after a reconnect or a server restart from a
//! checkpoint, the client replays its stream starting at that index and
//! the server's emission log suppresses anything already delivered.

use std::io::{self, Read, Write};

use sequin_engine::{DisorderPolicy, OutputItem, OutputKind};
use sequin_runtime::RuntimeStats;
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{ArrivalSeq, CodecError, Decode, Encode, EventRef, Reader, Timestamp, Writer};

use crate::stats::ServerStats;

/// Upper bound on a single frame's envelope, enforced before allocation so
/// a corrupted or hostile length prefix cannot exhaust memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Machine-readable reason carried by an [`Frame::Error`]. Each wire enum
/// here is `#[repr(u8)]` with its wire tag as the discriminant, and lists
/// its variants in tag order in `ALL`, which decoding indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame failed envelope validation or body decoding.
    BadFrame = 0,
    /// HELLO was malformed, duplicated, or required but missing.
    BadHello = 1,
    /// Client and server [`sequin_types::TypeRegistry`] fingerprints
    /// differ; events would be misinterpreted, so the session is refused.
    SchemaMismatch = 2,
    /// A SUBSCRIBE query failed to parse on the server.
    BadQuery = 3,
    /// The frame kind is not valid in this direction or session state.
    Unexpected = 4,
    /// The server has drained and no longer accepts ingestion.
    Draining = 5,
    /// A SUBSCRIBE query parsed but failed semantic analysis; the message
    /// carries the analyzer's diagnostic with its byte offset
    /// (`... (at byte N)`) when the offending construct is localizable.
    BadAnalysis = 6,
}

impl ErrorCode {
    /// Every code, in tag order.
    const ALL: [ErrorCode; 7] = [
        ErrorCode::BadFrame,
        ErrorCode::BadHello,
        ErrorCode::SchemaMismatch,
        ErrorCode::BadQuery,
        ErrorCode::Unexpected,
        ErrorCode::Draining,
        ErrorCode::BadAnalysis,
    ];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadHello => "bad-hello",
            ErrorCode::SchemaMismatch => "schema-mismatch",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::Unexpected => "unexpected-frame",
            ErrorCode::Draining => "draining",
            ErrorCode::BadAnalysis => "bad-analysis",
        };
        f.write_str(s)
    }
}

/// Requested exposition format of a [`Frame::MetricsReq`] scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MetricsFormat {
    /// Prometheus text exposition format (version 0.0.4).
    Prometheus = 0,
    /// JSON array of series objects.
    Json = 1,
    /// JSON dump of the structured trace ring (pipeline spans with
    /// per-match provenance).
    TraceJson = 2,
}

impl MetricsFormat {
    /// Every format, in tag order.
    const ALL: [MetricsFormat; 3] = [
        MetricsFormat::Prometheus,
        MetricsFormat::Json,
        MetricsFormat::TraceJson,
    ];
}

/// Rendering of a [`Frame::TraceReq`] lineage query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceFormat {
    /// Human-readable per-output causal timeline.
    Text = 0,
    /// JSON array of lineage records.
    Json = 1,
}

impl TraceFormat {
    /// Every format, in tag order.
    const ALL: [TraceFormat; 2] = [TraceFormat::Text, TraceFormat::Json];
}

/// "All queries" sentinel for [`Frame::TraceReq`]'s query filter.
pub const TRACE_ALL_QUERIES: u64 = u64::MAX;
/// "All outputs" sentinel for [`Frame::TraceReq`]'s provenance-id filter
/// (provenance ids are never 0).
pub const TRACE_ALL_OUTPUTS: u64 = 0;

/// One streamed result: a match (or retraction) produced by the query the
/// subscriber registered, with the same latency bookkeeping the in-process
/// [`sequin_engine::OutputItem`] carries. Deterministic ingestion order
/// makes the encoding byte-identical to an in-process oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputFrame {
    /// Dense registration index of the query that produced the match.
    pub query_id: u64,
    /// Insert or retract.
    pub kind: OutputKind,
    /// The matched events, in slot order.
    pub events: Vec<EventRef>,
    /// Arrival sequence number at which the server emitted this.
    pub emit_seq: ArrivalSeq,
    /// The server engine clock at emission.
    pub emit_clock: Timestamp,
}

impl OutputFrame {
    /// The frame a subscriber of query `query_id` is sent for `item`.
    pub fn of(query_id: u64, item: &OutputItem) -> OutputFrame {
        OutputFrame {
            query_id,
            kind: item.kind,
            events: item.m.events().to_vec(),
            emit_seq: item.emit_seq,
            emit_clock: item.emit_clock,
        }
    }
}

/// Every message of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client→server session opener: schema fingerprint + display name.
    Hello {
        /// The client's [`sequin_types::TypeRegistry::fingerprint`], or
        /// **0** for an observer session: a read-only monitoring client
        /// (e.g. `sequin stats`) that may only issue STATS/METRICS/TRACE
        /// requests and therefore skips schema negotiation. (A real registry
        /// fingerprint is an fnv1a-64 hash; 0 is reserved.)
        fingerprint: u64,
        /// Free-form client identification (diagnostics only).
        client: String,
    },
    /// Server→client handshake acceptance.
    HelloAck {
        /// The server's registry fingerprint (matches the client's).
        fingerprint: u64,
        /// The server's current ingest position: replay your stream from
        /// this item index to continue exactly-once.
        resume_from: u64,
        /// Number of queries currently registered.
        queries: u64,
    },
    /// A batch of events, fire-and-forget: every arrival, one or many
    /// (tag 3; tag 2 is retired).
    EventBatch(Vec<EventRef>),
    /// A source-asserted low-watermark (see
    /// [`sequin_types::StreamItem::Punctuation`]).
    Punctuation(Timestamp),
    /// Register (or attach to) a query; the server streams its outputs
    /// back on this connection.
    Subscribe {
        /// Query text in the PATTERN language, parsed server-side.
        query: String,
        /// Requested [`DisorderPolicy`] for this query; `None` accepts
        /// whatever the server is configured with. The effective policy
        /// comes back in SUB_ACK (a text that deduplicated onto an
        /// existing query keeps that query's policy, whatever was asked).
        policy: Option<DisorderPolicy>,
    },
    /// Subscription acknowledgement.
    SubAck {
        /// Dense id assigned to (or reused for) the query.
        query_id: u64,
        /// The policy the query actually runs under.
        policy: DisorderPolicy,
    },
    /// One streamed result.
    Output(OutputFrame),
    /// Ask for server + engine counters.
    StatsReq,
    /// Counters snapshot.
    StatsReply {
        /// Connection/frame/backpressure counters.
        server: ServerStats,
        /// Aggregated engine operator counters.
        engine: RuntimeStats,
    },
    /// End-of-stream: flush all held state (reorder buffers, pending
    /// negations), then acknowledge.
    Drain,
    /// All outputs triggered by the drain precede this on the wire.
    DrainAck,
    /// Backpressure advisory: the ingest queue crossed its high-water
    /// mark; the sender keeps accepting (blocking), but a well-behaved
    /// client should slow down.
    Busy {
        /// Queue depth observed when the advisory fired.
        queued: u64,
    },
    /// Protocol failure; the sender closes the session after this frame.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Polite goodbye; the connection closes.
    Bye,
    /// Ask for a rendered telemetry snapshot (metrics registry or trace
    /// ring) in the given format. Unlike [`Frame::StatsReq`]'s fixed
    /// counter structs, the reply body is self-describing text, so new
    /// series never change the wire layout.
    MetricsReq {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// The rendered telemetry snapshot.
    MetricsReply {
        /// Format of `body` (echoes the request).
        format: MetricsFormat,
        /// Prometheus text, metrics JSON, or trace JSON.
        body: String,
    },
    /// Ask for the causal lineage of recent outputs, rendered server-side
    /// from the trace ring's output spans.
    TraceReq {
        /// Requested rendering.
        format: TraceFormat,
        /// Restrict to one query's outputs ([`TRACE_ALL_QUERIES`] = all).
        query: u64,
        /// Restrict to one output's lineage by provenance id
        /// ([`TRACE_ALL_OUTPUTS`] = all).
        pid: u64,
    },
    /// The rendered lineage.
    TraceReply {
        /// Format of `body` (echoes the request).
        format: TraceFormat,
        /// Per-output causal timeline (text) or lineage records (JSON).
        body: String,
    },
}

/// Wire form of a policy request: a mode byte (0 = server default,
/// 1 = conservative, 2 = speculative, 3 = lazy, 4 = adaptive) and a knob
/// byte (the adaptive accuracy, 0 otherwise).
pub(crate) fn policy_to_wire(policy: Option<DisorderPolicy>) -> (u8, u8) {
    match policy {
        None => (0, 0),
        Some(DisorderPolicy::Conservative) => (1, 0),
        Some(DisorderPolicy::Speculative) => (2, 0),
        Some(DisorderPolicy::Lazy) => (3, 0),
        Some(DisorderPolicy::AdaptiveSlack { accuracy }) => (4, accuracy),
    }
}

/// Inverse of [`policy_to_wire`]. A knob byte is only meaningful on the
/// adaptive mode, where it is an accuracy `0..=100`; a nonzero knob
/// anywhere else, or one above 100, is a typed rejection, so every wire
/// byte stays fully validated.
pub(crate) fn policy_from_wire(mode: u8, knob: u8) -> Result<Option<DisorderPolicy>, CodecError> {
    if (mode != 4 && knob != 0) || knob > 100 {
        return Err(CodecError::InvalidTag {
            what: "DisorderPolicy knob",
            tag: knob,
        });
    }
    Ok(match mode {
        0 => None,
        1 => Some(DisorderPolicy::Conservative),
        2 => Some(DisorderPolicy::Speculative),
        3 => Some(DisorderPolicy::Lazy),
        4 => Some(DisorderPolicy::AdaptiveSlack { accuracy: knob }),
        tag => {
            return Err(CodecError::InvalidTag {
                what: "DisorderPolicy",
                tag,
            })
        }
    })
}

/// The OUTPUT payload: tag 7, query id, kind byte, the matched events,
/// emit sequence, emit clock.
fn put_output(
    w: &mut Writer,
    query_id: u64,
    kind: OutputKind,
    events: &[EventRef],
    emit_seq: ArrivalSeq,
    emit_clock: Timestamp,
) {
    w.put_u8(7);
    w.put_u64(query_id);
    kind.encode(w);
    events.encode(w);
    emit_seq.encode(w);
    emit_clock.encode(w);
}

/// Appends one OUTPUT frame to `buf` as it goes on the wire — `u32` length
/// prefix, then the sealed envelope — encoded in place from the engine's
/// own output: the match's events are borrowed, and the prefix, the
/// envelope's payload length and its checksum are patched in once the
/// payload is written. The appended bytes equal
/// `write_frame(buf, &encode_frame(&Frame::Output(..)))` of the same
/// output.
///
/// # Errors
///
/// A frame over [`MAX_FRAME_LEN`] is refused as [`write_frame`] refuses
/// it, and `buf` is left as it was: the frames before it stand.
pub fn append_output_frame(buf: &mut Vec<u8>, query_id: u64, item: &OutputItem) -> io::Result<()> {
    let start = buf.len();
    let mut w = Writer::appending(std::mem::take(buf));
    w.put_u32(0);
    let envelope = w.begin_envelope();
    put_output(
        &mut w,
        query_id,
        item.kind,
        item.m.events(),
        item.emit_seq,
        item.emit_clock,
    );
    w.finish_envelope(envelope);
    *buf = w.into_bytes();
    match frame_len(buf.len() - envelope) {
        Ok(len) => {
            buf[start..envelope].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        Err(e) => {
            buf.truncate(start);
            Err(e)
        }
    }
}

/// Encodes a frame into its sealed envelope (the bytes a transport
/// carries, *without* the `u32` length prefix).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    match frame {
        Frame::Hello {
            fingerprint,
            client,
        } => {
            w.put_u8(0);
            w.put_u64(*fingerprint);
            w.put_str(client);
        }
        Frame::HelloAck {
            fingerprint,
            resume_from,
            queries,
        } => {
            w.put_u8(1);
            w.put_u64(*fingerprint);
            w.put_u64(*resume_from);
            w.put_u64(*queries);
        }
        Frame::EventBatch(events) => {
            w.put_u8(3);
            events.encode(&mut w);
        }
        Frame::Punctuation(t) => {
            w.put_u8(4);
            t.encode(&mut w);
        }
        Frame::Subscribe { query, policy } => {
            w.put_u8(5);
            w.put_str(query);
            let (mode, knob) = policy_to_wire(*policy);
            w.put_u8(mode);
            w.put_u8(knob);
        }
        Frame::SubAck { query_id, policy } => {
            w.put_u8(6);
            w.put_u64(*query_id);
            let (mode, knob) = policy_to_wire(Some(*policy));
            w.put_u8(mode);
            w.put_u8(knob);
        }
        Frame::Output(o) => put_output(
            &mut w,
            o.query_id,
            o.kind,
            &o.events,
            o.emit_seq,
            o.emit_clock,
        ),
        Frame::StatsReq => {
            w.put_u8(8);
        }
        Frame::StatsReply { server, engine } => {
            w.put_u8(9);
            server.encode(&mut w);
            engine.encode(&mut w);
        }
        Frame::Drain => {
            w.put_u8(10);
        }
        Frame::DrainAck => {
            w.put_u8(11);
        }
        Frame::Busy { queued } => {
            w.put_u8(12);
            w.put_u64(*queued);
        }
        Frame::Error { code, message } => {
            w.put_u8(13);
            w.put_u8(*code as u8);
            w.put_str(message);
        }
        Frame::Bye => {
            w.put_u8(14);
        }
        Frame::MetricsReq { format } => {
            w.put_u8(15);
            w.put_u8(*format as u8);
        }
        Frame::MetricsReply { format, body } => {
            w.put_u8(16);
            w.put_u8(*format as u8);
            w.put_str(body);
        }
        Frame::TraceReq { format, query, pid } => {
            w.put_u8(17);
            w.put_u8(*format as u8);
            w.put_u64(*query);
            w.put_u64(*pid);
        }
        Frame::TraceReply { format, body } => {
            w.put_u8(18);
            w.put_u8(*format as u8);
            w.put_str(body);
        }
    }
    seal_envelope(&w.into_bytes())
}

/// Validates a sealed envelope and decodes the frame inside.
///
/// Every failure — truncation, bit flip, unknown tag, trailing bytes — is
/// a typed [`CodecError`] rejection; this function never panics on
/// arbitrary input.
pub fn decode_frame(sealed: &[u8]) -> Result<Frame, CodecError> {
    let payload = open_envelope(sealed)?;
    let mut r = Reader::new(payload);
    let frame = match r.get_u8()? {
        0 => Frame::Hello {
            fingerprint: r.get_u64()?,
            client: r.get_str()?,
        },
        1 => Frame::HelloAck {
            fingerprint: r.get_u64()?,
            resume_from: r.get_u64()?,
            queries: r.get_u64()?,
        },
        3 => Frame::EventBatch(Vec::<EventRef>::decode(&mut r)?),
        4 => Frame::Punctuation(Timestamp::decode(&mut r)?),
        5 => Frame::Subscribe {
            query: r.get_str()?,
            policy: policy_from_wire(r.get_u8()?, r.get_u8()?)?,
        },
        6 => Frame::SubAck {
            query_id: r.get_u64()?,
            policy: policy_from_wire(r.get_u8()?, r.get_u8()?)?.ok_or(CodecError::InvalidTag {
                what: "SubAck DisorderPolicy",
                tag: 0,
            })?,
        },
        7 => Frame::Output(OutputFrame {
            query_id: r.get_u64()?,
            kind: OutputKind::decode(&mut r)?,
            events: Vec::<EventRef>::decode(&mut r)?,
            emit_seq: ArrivalSeq::decode(&mut r)?,
            emit_clock: Timestamp::decode(&mut r)?,
        }),
        8 => Frame::StatsReq,
        9 => Frame::StatsReply {
            server: ServerStats::decode(&mut r)?,
            engine: RuntimeStats::decode(&mut r)?,
        },
        10 => Frame::Drain,
        11 => Frame::DrainAck,
        12 => Frame::Busy {
            queued: r.get_u64()?,
        },
        13 => Frame::Error {
            code: r.get_tag(&ErrorCode::ALL, "ErrorCode")?,
            message: r.get_str()?,
        },
        14 => Frame::Bye,
        15 => Frame::MetricsReq {
            format: r.get_tag(&MetricsFormat::ALL, "MetricsFormat")?,
        },
        16 => Frame::MetricsReply {
            format: r.get_tag(&MetricsFormat::ALL, "MetricsFormat")?,
            body: r.get_str()?,
        },
        17 => Frame::TraceReq {
            format: r.get_tag(&TraceFormat::ALL, "TraceFormat")?,
            query: r.get_u64()?,
            pid: r.get_u64()?,
        },
        18 => Frame::TraceReply {
            format: r.get_tag(&TraceFormat::ALL, "TraceFormat")?,
            body: r.get_str()?,
        },
        tag => return Err(CodecError::InvalidTag { what: "Frame", tag }),
    };
    r.finish()?;
    Ok(frame)
}

/// The length prefix of a sealed envelope of `sealed_len` bytes.
fn frame_len(sealed_len: usize) -> io::Result<u32> {
    u32::try_from(sealed_len)
        .ok()
        .filter(|l| *l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_LEN"))
}

/// Writes one length-prefixed frame (`u32` LE length, then the sealed
/// envelope) and flushes.
pub fn write_frame(w: &mut impl Write, sealed: &[u8]) -> io::Result<()> {
    let len = frame_len(sealed.len())?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(sealed)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error (a torn write, distinguishable from an orderly close).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_types::{Event, EventId, EventTypeId, Value};
    use std::sync::Arc;

    fn sample_event(id: u64, ts: u64) -> EventRef {
        Arc::new(
            Event::builder(EventTypeId::from_index(1), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(-3))
                .attr(Value::str("wire"))
                .build()
                .with_arrival(ArrivalSeq::new(id)),
        )
    }

    fn every_frame_kind() -> Vec<Frame> {
        vec![
            Frame::Hello {
                fingerprint: 0xDEAD_BEEF,
                client: "test-client".into(),
            },
            Frame::HelloAck {
                fingerprint: 0xDEAD_BEEF,
                resume_from: 42,
                queries: 3,
            },
            Frame::EventBatch(vec![sample_event(7, 100)]),
            Frame::EventBatch(vec![sample_event(8, 101), sample_event(9, 99)]),
            Frame::Punctuation(Timestamp::new(77)),
            Frame::Subscribe {
                query: "PATTERN SEQ(A a, B b) WITHIN 10".into(),
                policy: None,
            },
            Frame::Subscribe {
                query: "PATTERN SEQ(A a, B b) WITHIN 10".into(),
                policy: Some(DisorderPolicy::Speculative),
            },
            Frame::Subscribe {
                query: "PATTERN SEQ(A a, !B b, A c) WITHIN 10".into(),
                policy: Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }),
            },
            Frame::SubAck {
                query_id: 2,
                policy: DisorderPolicy::Conservative,
            },
            Frame::SubAck {
                query_id: 3,
                policy: DisorderPolicy::Lazy,
            },
            Frame::Output(OutputFrame {
                query_id: 1,
                kind: OutputKind::Insert,
                events: vec![sample_event(3, 50), sample_event(4, 60)],
                emit_seq: ArrivalSeq::new(12),
                emit_clock: Timestamp::new(65),
            }),
            Frame::Output(OutputFrame {
                query_id: 0,
                kind: OutputKind::Retract,
                events: vec![sample_event(5, 55)],
                emit_seq: ArrivalSeq::new(13),
                emit_clock: Timestamp::new(70),
            }),
            Frame::StatsReq,
            Frame::StatsReply {
                server: ServerStats {
                    frames_received: 9,
                    busy_frames_sent: 2,
                    ..ServerStats::default()
                },
                engine: RuntimeStats {
                    insertions: 5,
                    ..RuntimeStats::default()
                },
            },
            Frame::Drain,
            Frame::DrainAck,
            Frame::Busy { queued: 512 },
            Frame::Error {
                code: ErrorCode::SchemaMismatch,
                message: "fingerprints differ".into(),
            },
            Frame::Bye,
            Frame::MetricsReq {
                format: MetricsFormat::Prometheus,
            },
            Frame::MetricsReply {
                format: MetricsFormat::Json,
                body: "[{\"name\":\"sequin_outputs_emitted\",\"value\":3}]".into(),
            },
            Frame::TraceReq {
                format: TraceFormat::Text,
                query: TRACE_ALL_QUERIES,
                pid: TRACE_ALL_OUTPUTS,
            },
            Frame::TraceReq {
                format: TraceFormat::Json,
                query: 2,
                pid: 0xFEED_FACE,
            },
            Frame::TraceReply {
                format: TraceFormat::Json,
                body: "[{\"output\":0,\"kind\":\"seal\",\"pid\":\"00000000feedface\"}]".into(),
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in every_frame_kind() {
            let sealed = encode_frame(&frame);
            let back = decode_frame(&sealed).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for (tag, code) in ErrorCode::ALL.into_iter().enumerate() {
            assert_eq!(code as usize, tag, "{code:?}");
            let sealed = encode_frame(&Frame::Error {
                code,
                message: code.to_string(),
            });
            match decode_frame(&sealed).unwrap() {
                Frame::Error { code: back, .. } => assert_eq!(back, code),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        for frame in every_frame_kind() {
            let sealed = encode_frame(&frame);
            for keep in 0..sealed.len() {
                assert!(
                    decode_frame(&sealed[..keep]).is_err(),
                    "{frame:?} truncated to {keep} bytes must be rejected"
                );
            }
        }
    }

    #[test]
    fn bit_flipped_frames_are_rejected_not_panicked() {
        // every bit of every byte of every frame kind: the checksum (or a
        // stricter structural check) must catch all of them
        for frame in every_frame_kind() {
            let sealed = encode_frame(&frame);
            for byte in 0..sealed.len() {
                for bit in 0..8 {
                    let mut bad = sealed.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode_frame(&bad).is_err(),
                        "{frame:?} flip at byte {byte} bit {bit} must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn every_metrics_and_trace_format_round_trips() {
        for (tag, format) in TraceFormat::ALL.into_iter().enumerate() {
            assert_eq!(format as usize, tag, "{format:?}");
            let frame = Frame::TraceReply {
                format,
                body: String::new(),
            };
            assert_eq!(decode_frame(&encode_frame(&frame)), Ok(frame));
        }
        for (tag, format) in MetricsFormat::ALL.into_iter().enumerate() {
            assert_eq!(format as usize, tag, "{format:?}");
            let sealed = encode_frame(&Frame::MetricsReq { format });
            match decode_frame(&sealed).unwrap() {
                Frame::MetricsReq { format: back } => assert_eq!(back, format),
                other => panic!("decoded {other:?}"),
            }
        }
        // unknown format tag is a typed rejection
        let mut w = Writer::new();
        w.put_u8(15);
        w.put_u8(9);
        assert!(matches!(
            decode_frame(&seal_envelope(&w.into_bytes())),
            Err(CodecError::InvalidTag {
                what: "MetricsFormat",
                ..
            })
        ));
    }

    /// Pins the STATS_REPLY wire layout: frame tag 9, then exactly 14
    /// `ServerStats` fields and 15 `RuntimeStats` slots (14 fields and a
    /// reserved zero) as little-endian `u64`s, in declaration order. A
    /// client must never misread a reply: if this test fails, the change
    /// is wire-breaking, and a reply of the other layout must fail to
    /// decode, as `an_old_stats_reply_is_rejected_not_misread` checks.
    #[test]
    fn stats_reply_wire_layout_is_pinned() {
        let server_vals: [u64; 14] = core::array::from_fn(|i| 1 + i as u64);
        let engine_vals: [u64; 14] = core::array::from_fn(|i| 101 + i as u64);

        let mut w = Writer::new();
        for v in server_vals {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let server = ServerStats::decode(&mut Reader::new(&bytes)).unwrap();
        let mut w = Writer::new();
        for v in engine_vals {
            w.put_u64(v);
        }
        w.put_u64(0);
        let bytes = w.into_bytes();
        let engine = RuntimeStats::decode(&mut Reader::new(&bytes)).unwrap();

        let sealed = encode_frame(&Frame::StatsReply { server, engine });
        let payload = open_envelope(&sealed).unwrap();

        // tag byte + 29 raw u64s, nothing else
        assert_eq!(payload.len(), 1 + 29 * 8, "STATS_REPLY payload size");
        assert_eq!(payload[0], 9, "STATS_REPLY frame tag");
        let mut decoded = Vec::with_capacity(29);
        for chunk in payload[1..].chunks_exact(8) {
            decoded.push(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        assert_eq!(&decoded[..14], &server_vals, "ServerStats field order");
        assert_eq!(&decoded[14..28], &engine_vals, "RuntimeStats field order");
        assert_eq!(decoded[28], 0, "RuntimeStats reserved slot");

        // the pinned field names, in wire order
        let server_names: Vec<&str> = server.as_pairs().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            server_names,
            [
                "connections_opened",
                "connections_closed",
                "frames_received",
                "frames_sent",
                "events_ingested",
                "batches_ingested",
                "punctuations_ingested",
                "subscriptions",
                "rejected_frames",
                "busy_frames_sent",
                "backpressure_stalls",
                "drains",
                "engine_batches",
                "max_engine_batch",
            ]
        );
        let engine_names: Vec<&str> = engine.as_pairs().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            engine_names,
            [
                "insertions",
                "ooo_insertions",
                "dfs_steps",
                "predicate_evals",
                "matches_constructed",
                "negated_matches",
                "purged",
                "purge_runs",
                "late_drops",
                "checkpoints_written",
                "checkpoints_rejected",
                "replayed_suppressed",
                "events_routed",
                "max_stack_depth",
            ]
        );
    }

    /// A STATS_REPLY of the older 30-slot layout (15 server slots, the
    /// 13th `engine_shards`) is a decode error, not a misread: the codec
    /// demands an exact payload length. So is a reply one slot short.
    #[test]
    fn an_old_stats_reply_is_rejected_not_misread() {
        for slots in [30u64, 28] {
            let mut w = Writer::new();
            w.put_u8(9);
            for v in 1..=slots {
                w.put_u64(v);
            }
            let sealed = seal_envelope(&w.into_bytes());
            assert!(decode_frame(&sealed).is_err(), "{slots} slots decoded");
        }
    }

    /// Pins the SUBSCRIBE wire layout: frame tag 5, a length-prefixed
    /// query string, then the two policy-negotiation bytes (mode, knob)
    /// appended when per-query disorder policies landed. Old captures
    /// without the policy bytes are rejected (the codec demands an exact
    /// payload length), so there is no silent misparse — a failure here
    /// means a wire-breaking change that needs a protocol version bump.
    #[test]
    fn subscribe_wire_layout_is_pinned() {
        let query = "PATTERN SEQ(A a, B b) WITHIN 10";
        let cases: [(Option<DisorderPolicy>, u8, u8); 5] = [
            (None, 0, 0),
            (Some(DisorderPolicy::Conservative), 1, 0),
            (Some(DisorderPolicy::Speculative), 2, 0),
            (Some(DisorderPolicy::Lazy), 3, 0),
            (Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }), 4, 90),
        ];
        for (policy, mode, knob) in cases {
            let sealed = encode_frame(&Frame::Subscribe {
                query: query.into(),
                policy,
            });
            let payload = open_envelope(&sealed).unwrap();
            let mut want = vec![5u8];
            want.extend_from_slice(&(query.len() as u64).to_le_bytes());
            want.extend_from_slice(query.as_bytes());
            want.push(mode);
            want.push(knob);
            assert_eq!(payload, &want[..], "SUBSCRIBE bytes for {policy:?}");
        }
        // a nonzero knob outside adaptive mode, or an accuracy above 100,
        // is a typed rejection
        for (mode, knob) in [(2, 7), (4, 101)] {
            let mut w = Writer::new();
            w.put_u8(5);
            w.put_str(query);
            w.put_u8(mode);
            w.put_u8(knob);
            assert!(matches!(
                decode_frame(&seal_envelope(&w.into_bytes())),
                Err(CodecError::InvalidTag {
                    what: "DisorderPolicy knob",
                    ..
                })
            ));
        }
    }

    /// Pins the SUB_ACK wire layout: frame tag 6, the `u64` query id,
    /// then the effective policy's (mode, knob) bytes. Mode 0 ("server
    /// default") is a request-only value and must be rejected in an ack.
    #[test]
    fn sub_ack_wire_layout_is_pinned() {
        let sealed = encode_frame(&Frame::SubAck {
            query_id: 7,
            policy: DisorderPolicy::AdaptiveSlack { accuracy: 50 },
        });
        let payload = open_envelope(&sealed).unwrap();
        let mut want = vec![6u8];
        want.extend_from_slice(&7u64.to_le_bytes());
        want.push(4);
        want.push(50);
        assert_eq!(payload, &want[..], "SUB_ACK bytes");

        let mut w = Writer::new();
        w.put_u8(6);
        w.put_u64(7);
        w.put_u8(0);
        w.put_u8(0);
        assert!(matches!(
            decode_frame(&seal_envelope(&w.into_bytes())),
            Err(CodecError::InvalidTag {
                what: "SubAck DisorderPolicy",
                ..
            })
        ));
    }

    /// Pins the OUTPUT wire layout for retractions: frame tag 7, the
    /// `u64` query id, kind byte **1** (retract; inserts are 0), then the
    /// matched events, emit sequence, and emit clock in that order.
    /// Retractions are first-class outputs — the speculative policy's
    /// compensations ride the same frame as inserts, distinguished only
    /// by this kind byte — so the byte positions here are load-bearing
    /// for every client that nets inserts against retracts.
    #[test]
    fn retract_output_wire_layout_is_pinned() {
        let events = vec![sample_event(3, 50), sample_event(4, 60)];
        let sealed = encode_frame(&Frame::Output(OutputFrame {
            query_id: 9,
            kind: OutputKind::Retract,
            events: events.clone(),
            emit_seq: ArrivalSeq::new(12),
            emit_clock: Timestamp::new(65),
        }));
        let payload = open_envelope(&sealed).unwrap();
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u64(9);
        w.put_u8(1);
        events.encode(&mut w);
        ArrivalSeq::new(12).encode(&mut w);
        Timestamp::new(65).encode(&mut w);
        assert_eq!(payload, &w.into_bytes()[..], "RETRACT OUTPUT bytes");
        // and the insert kind byte stays 0
        let sealed = encode_frame(&Frame::Output(OutputFrame {
            query_id: 9,
            kind: OutputKind::Insert,
            events,
            emit_seq: ArrivalSeq::new(12),
            emit_clock: Timestamp::new(65),
        }));
        assert_eq!(open_envelope(&sealed).unwrap()[9], 0, "insert kind tag");
    }

    /// The in-place OUTPUT encoder against the one every other frame
    /// goes through: same bytes, appended behind whatever the buffer
    /// holds; and a frame too long for the wire costs only itself.
    #[test]
    fn output_encoded_in_place_equals_encode_frame_plus_write_frame() {
        use sequin_runtime::Match;
        use sequin_types::{TypeRegistry, ValueKind};

        let mut reg = TypeRegistry::new();
        let kinds = [
            ("i", ValueKind::Int),
            ("f", ValueKind::Float),
            ("s", ValueKind::Str),
            ("b", ValueKind::Bool),
        ];
        let ty = reg.declare("E", &kinds).unwrap();
        let event = |id: u64, text: &str| -> EventRef {
            Arc::new(
                Event::builder(ty, Timestamp::new(10 * id))
                    .id(EventId::new(id))
                    .attr(Value::Int(-(id as i64)))
                    .attr(Value::Float(id as f64 / 4.0))
                    .attr(Value::str(text))
                    .attr(Value::Bool(id % 2 == 0))
                    .build()
                    .with_arrival(ArrivalSeq::new(100 - id)),
            )
        };
        let output = |kind: OutputKind, events: Vec<EventRef>| {
            let slots: Vec<String> = (0..events.len()).map(|i| format!("E e{i}")).collect();
            let text = format!("PATTERN SEQ({}) WITHIN 1000", slots.join(", "));
            let query = sequin_query::parse(&text, &reg).unwrap();
            OutputItem {
                kind,
                m: Match::new(&query, events),
                emit_seq: ArrivalSeq::new(77),
                emit_clock: Timestamp::new(1234),
                cause: None,
            }
        };
        let by_frame = |query_id: u64, o: &OutputItem| {
            let mut wire = Vec::new();
            let frame = Frame::Output(OutputFrame::of(query_id, o));
            write_frame(&mut wire, &encode_frame(&frame)).unwrap();
            wire
        };

        let mut buf = Vec::new();
        let mut want = Vec::new();
        for kind in [OutputKind::Insert, OutputKind::Retract] {
            for n in 1..=3u64 {
                let o = output(kind, (1..=n).map(|id| event(id, "wire")).collect());
                append_output_frame(&mut buf, n, &o).unwrap();
                want.extend(by_frame(n, &o));
                assert_eq!(buf, want, "{kind:?} of {n} events");
            }
        }

        // one string attribute longer than a frame may be
        let huge = "x".repeat(MAX_FRAME_LEN as usize + 1);
        let too_long = output(OutputKind::Insert, vec![event(1, &huge)]);
        let err = append_output_frame(&mut buf, 0, &too_long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(buf, want, "the frames before it stand");
        let o = output(OutputKind::Retract, vec![event(9, "after")]);
        append_output_frame(&mut buf, 5, &o).unwrap();
        want.extend(by_frame(5, &o));
        assert_eq!(buf, want, "and the buffer takes the next one");
    }

    /// Pins the TRACE_REQ/TRACE_REPLY wire layout: tag 17 is a format
    /// byte (0 = text, 1 = json), the `u64` query filter (`u64::MAX` =
    /// all queries), and the `u64` provenance-id filter (0 = all
    /// outputs); tag 18 is the format byte followed by a length-prefixed
    /// body string. A failure here is a wire-breaking change that needs a
    /// protocol version bump, not a test update.
    #[test]
    fn trace_frames_wire_layout_is_pinned() {
        let sealed = encode_frame(&Frame::TraceReq {
            format: TraceFormat::Json,
            query: 3,
            pid: 0xABCD,
        });
        let payload = open_envelope(&sealed).unwrap();
        let mut want = vec![17u8, 1u8];
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&0xABCDu64.to_le_bytes());
        assert_eq!(payload, &want[..], "TRACE_REQ bytes");

        let body = "#0 seal query=0 pid=0000000000001234";
        let sealed = encode_frame(&Frame::TraceReply {
            format: TraceFormat::Text,
            body: body.into(),
        });
        let payload = open_envelope(&sealed).unwrap();
        let mut want = vec![18u8, 0u8];
        want.extend_from_slice(&(body.len() as u64).to_le_bytes());
        want.extend_from_slice(body.as_bytes());
        assert_eq!(payload, &want[..], "TRACE_REPLY bytes");

        // unknown trace format tag is a typed rejection
        let mut w = Writer::new();
        w.put_u8(17);
        w.put_u8(7);
        w.put_u64(0);
        w.put_u64(0);
        assert!(matches!(
            decode_frame(&seal_envelope(&w.into_bytes())),
            Err(CodecError::InvalidTag {
                what: "TraceFormat",
                ..
            })
        ));
    }

    /// An unknown tag is a typed rejection, and so is tag 2, the retired
    /// single-event frame, with the body it used to carry.
    #[test]
    fn unknown_frame_tag_is_rejected() {
        let mut retired = Writer::new();
        retired.put_u8(2);
        sample_event(7, 100).encode(&mut retired);
        for payload in [vec![200u8], vec![2], retired.into_bytes()] {
            assert!(matches!(
                decode_frame(&seal_envelope(&payload)),
                Err(CodecError::InvalidTag { what: "Frame", tag }) if tag == payload[0]
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(14); // Bye
        w.put_u8(0xAA); // junk
        let sealed = seal_envelope(&w.into_bytes());
        assert_eq!(decode_frame(&sealed), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn wire_round_trip_and_eof_handling() {
        let frames = every_frame_kind();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, &encode_frame(f)).unwrap();
        }
        let mut cursor = io::Cursor::new(&wire[..]);
        for f in &frames {
            let sealed = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&decode_frame(&sealed).unwrap(), f);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        // EOF mid-frame (torn write) is an error, not a clean close
        let torn = &wire[..wire.len() - 3];
        let mut cursor = io::Cursor::new(torn);
        let mut seen = 0;
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("torn stream reported clean EOF"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    break;
                }
            }
        }
        assert_eq!(seen, frames.len() - 1);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"junk");
        let mut cursor = io::Cursor::new(&wire[..]);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
