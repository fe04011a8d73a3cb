//! Synchronous protocol client.
//!
//! A [`Client`] owns the send half of a transport; a background reader
//! thread owns the receive half and feeds decoded frames through a
//! channel. That split matters: the server pushes OUTPUT frames at its
//! own pace, and a client that only read the socket while waiting for an
//! ack could wedge the server's writes (and, through TCP flow control,
//! the whole pipeline). Here the socket is always being drained; pushed
//! outputs and BUSY advisories are banked while request/ack pairs
//! (`hello`, `subscribe`, `stats`, `drain`) run.

use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use sequin_engine::DisorderPolicy;
use sequin_runtime::RuntimeStats;
use sequin_types::{EventRef, StreamItem, Timestamp};

use crate::frame::{
    decode_frame, encode_frame, ErrorCode, Frame, MetricsFormat, OutputFrame, TraceFormat,
};
use crate::stats::ServerStats;
use crate::transport::{FrameSink, TcpTransport, Transport};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The peer sent something that violates the protocol (including
    /// frames that failed envelope validation).
    Protocol(String),
    /// The server refused the request with an ERROR frame.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The connection is gone (clean close or reader exit).
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

enum Incoming {
    // boxed: STATS_REPLY carries two full counter structs, which would
    // otherwise dwarf the Corrupt variant
    Frame(Box<Frame>),
    /// The reader hit a corrupt frame; the session is unusable past it.
    Corrupt(String),
}

/// A connected protocol client.
pub struct Client {
    sink: Arc<dyn FrameSink>,
    rx: Receiver<Incoming>,
    reader: Option<JoinHandle<()>>,
    outputs: Vec<OutputFrame>,
    busy_seen: u64,
}

impl Client {
    /// Connects over TCP.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client::over(Box::new(TcpTransport::new(stream)?)))
    }

    /// Speaks the protocol over any pre-established transport (e.g. one
    /// side of [`crate::transport::mem_pair`]).
    pub fn over(mut transport: Box<dyn Transport>) -> Client {
        let sink = transport.sink();
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("sequin-client-reader".into())
            .spawn(move || loop {
                match transport.recv_frame() {
                    Ok(Some(sealed)) => {
                        let msg = match decode_frame(&sealed) {
                            Ok(frame) => Incoming::Frame(Box::new(frame)),
                            Err(e) => Incoming::Corrupt(e.to_string()),
                        };
                        let corrupt = matches!(msg, Incoming::Corrupt(_));
                        if tx.send(msg).is_err() || corrupt {
                            return;
                        }
                    }
                    Ok(None) | Err(_) => return,
                }
            })
            .expect("spawn client reader");
        Client {
            sink,
            rx,
            reader: Some(reader),
            outputs: Vec::new(),
            busy_seen: 0,
        }
    }

    fn send(&self, frame: &Frame) -> Result<(), ClientError> {
        self.sink
            .send_frame(&encode_frame(frame))
            .map_err(ClientError::from)
    }

    /// Banks pushed frames until `want` matches one; ERROR frames and
    /// protocol violations surface as errors.
    fn wait_for(&mut self, want: impl Fn(&Frame) -> bool) -> Result<Frame, ClientError> {
        loop {
            let incoming = self.rx.recv().map_err(|_| ClientError::Closed)?;
            let frame = match incoming {
                Incoming::Frame(f) => *f,
                Incoming::Corrupt(m) => return Err(ClientError::Protocol(m)),
            };
            match frame {
                Frame::Output(o) => self.outputs.push(o),
                Frame::Busy { .. } => self.busy_seen += 1,
                Frame::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                f if want(&f) => return Ok(f),
                f => return Err(ClientError::Protocol(format!("unexpected {f:?}"))),
            }
        }
    }

    /// Drains already-received pushed frames without blocking.
    fn pump(&mut self) {
        while let Ok(incoming) = self.rx.try_recv() {
            if let Incoming::Frame(f) = incoming {
                match *f {
                    Frame::Output(o) => self.outputs.push(o),
                    Frame::Busy { .. } => self.busy_seen += 1,
                    _ => {}
                }
            }
        }
    }

    /// Performs the handshake. Returns `(resume_from, queries)` from the
    /// server's HELLO_ACK: replay your stream from item `resume_from`.
    pub fn hello(&mut self, fingerprint: u64, name: &str) -> Result<(u64, u64), ClientError> {
        self.send(&Frame::Hello {
            fingerprint,
            client: name.to_owned(),
        })?;
        match self.wait_for(|f| matches!(f, Frame::HelloAck { .. }))? {
            Frame::HelloAck {
                resume_from,
                queries,
                ..
            } => Ok((resume_from, queries)),
            _ => unreachable!("wait_for matched HelloAck"),
        }
    }

    /// Registers (or reattaches to) a query under the server's default
    /// disorder policy; returns its id. Outputs for it stream to this
    /// connection from now on.
    pub fn subscribe(&mut self, query: &str) -> Result<u64, ClientError> {
        self.subscribe_with_policy(query, None).map(|(id, _)| id)
    }

    /// [`Client::subscribe`] with an explicit [`DisorderPolicy`] request
    /// (`None` accepts the server default). Returns the query id and the
    /// *effective* policy from SUB_ACK — when the query was already
    /// registered, the existing policy wins over the request.
    pub fn subscribe_with_policy(
        &mut self,
        query: &str,
        policy: Option<DisorderPolicy>,
    ) -> Result<(u64, DisorderPolicy), ClientError> {
        self.send(&Frame::Subscribe {
            query: query.to_owned(),
            policy,
        })?;
        match self.wait_for(|f| matches!(f, Frame::SubAck { .. }))? {
            Frame::SubAck { query_id, policy } => Ok((query_id, policy)),
            _ => unreachable!("wait_for matched SubAck"),
        }
    }

    /// Sends one stream item, fire-and-forget: an event as a batch of one.
    pub fn send_item(&mut self, item: &StreamItem) -> Result<(), ClientError> {
        match item {
            StreamItem::Event(e) => self.send_batch(std::slice::from_ref(e)),
            StreamItem::Punctuation(ts) => self.punctuate(*ts),
        }
    }

    /// Sends a batch of events in one frame.
    pub fn send_batch(&mut self, events: &[EventRef]) -> Result<(), ClientError> {
        self.send(&Frame::EventBatch(events.to_vec()))?;
        self.pump();
        Ok(())
    }

    /// Sends `items` in order: consecutive events ride in EVENT_BATCH
    /// frames of up to `batch` (`batch <= 1` sends each alone), and a
    /// punctuation first flushes the events before it.
    pub fn send_stream(&mut self, items: &[StreamItem], batch: usize) -> Result<(), ClientError> {
        let mut pending = Vec::new();
        for item in items {
            match item {
                StreamItem::Event(e) => {
                    pending.push(e.clone());
                    if pending.len() >= batch {
                        self.send_batch(&pending)?;
                        pending.clear();
                    }
                }
                StreamItem::Punctuation(ts) => {
                    if !pending.is_empty() {
                        self.send_batch(&pending)?;
                        pending.clear();
                    }
                    self.punctuate(*ts)?;
                }
            }
        }
        if !pending.is_empty() {
            self.send_batch(&pending)?;
        }
        Ok(())
    }

    /// Sends a punctuation (source-asserted low-watermark).
    pub fn punctuate(&mut self, ts: Timestamp) -> Result<(), ClientError> {
        self.send(&Frame::Punctuation(ts))?;
        self.pump();
        Ok(())
    }

    /// Fetches server + aggregated engine counters.
    pub fn stats(&mut self) -> Result<(ServerStats, RuntimeStats), ClientError> {
        self.send(&Frame::StatsReq)?;
        match self.wait_for(|f| matches!(f, Frame::StatsReply { .. }))? {
            Frame::StatsReply { server, engine } => Ok((server, engine)),
            _ => unreachable!("wait_for matched StatsReply"),
        }
    }

    /// Fetches a rendered telemetry document in the requested format:
    /// Prometheus text, a JSON series array, or the structured trace ring
    /// as JSON. Monitoring-only clients may [`Client::hello`] with
    /// fingerprint `0` (the observer wildcard) before calling this.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String, ClientError> {
        self.send(&Frame::MetricsReq { format })?;
        match self.wait_for(|f| matches!(f, Frame::MetricsReply { .. }))? {
            Frame::MetricsReply { body, .. } => Ok(body),
            _ => unreachable!("wait_for matched MetricsReply"),
        }
    }

    /// Fetches rendered causal lineage for recent outputs. `query` narrows
    /// to one query id ([`crate::frame::TRACE_ALL_QUERIES`] for all);
    /// `pid` narrows to one provenance id
    /// ([`crate::frame::TRACE_ALL_OUTPUTS`] for all). Like
    /// [`Client::metrics`], observer connections may hello with
    /// fingerprint `0` first.
    pub fn trace(
        &mut self,
        format: TraceFormat,
        query: u64,
        pid: u64,
    ) -> Result<String, ClientError> {
        self.send(&Frame::TraceReq { format, query, pid })?;
        match self.wait_for(|f| matches!(f, Frame::TraceReply { .. }))? {
            Frame::TraceReply { body, .. } => Ok(body),
            _ => unreachable!("wait_for matched TraceReply"),
        }
    }

    /// Requests end-of-stream: the server flushes held state, streams the
    /// final outputs, then acks. Every output frame the drain produced is
    /// banked before this returns.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Drain)?;
        self.wait_for(|f| matches!(f, Frame::DrainAck))?;
        Ok(())
    }

    /// Takes every OUTPUT frame received so far, in wire order.
    pub fn take_outputs(&mut self) -> Vec<OutputFrame> {
        self.pump();
        std::mem::take(&mut self.outputs)
    }

    /// BUSY advisories received so far.
    pub fn busy_seen(&mut self) -> u64 {
        self.pump();
        self.busy_seen
    }

    /// Polite close (best-effort BYE, then transport teardown).
    pub fn bye(self) {
        let _ = self.send(&Frame::Bye);
        // Drop does the rest
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.sink.close();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
