//! The wire path: a server on a loopback TCP port and a raw client of the
//! benchmark's own, so that the receiver can stamp each OUTPUT frame as it
//! arrives. Load comes from two threads: the caller sends, one spawned
//! thread receives.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sequin_server::{
    decode_frame, encode_frame, frame::read_frame, frame::write_frame, CoreConfig, Frame,
    OutputFrame, Server, ServerConfig, ServerStats,
};
use sequin_types::StreamItem;

/// The stream as the bytes a client writes: one length-prefixed
/// EVENT_BATCH frame per batch, encoded before any clock starts.
pub struct WireFrames {
    pub batches: Vec<Vec<u8>>,
    pub drain: Vec<u8>,
}

fn prefixed(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &encode_frame(frame)).expect("writing to a Vec cannot fail");
    buf
}

pub fn encode_batches(items: &[StreamItem], batch: usize) -> WireFrames {
    let batches: Vec<Vec<u8>> = items
        .chunks(batch)
        .map(|chunk| {
            let events = chunk
                .iter()
                .filter_map(StreamItem::as_event)
                .cloned()
                .collect();
            prefixed(&Frame::EventBatch(events))
        })
        .collect();
    WireFrames {
        batches,
        drain: prefixed(&Frame::Drain),
    }
}

/// A started server with one connected, greeted and subscribed client.
pub struct Session {
    server: Server,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Default `ServerConfig` on an ephemeral loopback port; every query goes
/// through SUBSCRIBE on the one connection.
pub fn open(cfg: &CoreConfig, queries: &[String]) -> Result<Session, String> {
    let fingerprint = cfg.registry.fingerprint();
    let mut server = Server::start(ServerConfig::new(cfg.clone()))?;
    let addr = server.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
    let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    writer.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let mut s = Session {
        server,
        writer,
        reader,
    };
    s.request(
        &Frame::Hello {
            fingerprint,
            client: "sequin-benchmark".to_owned(),
        },
        |f| matches!(f, Frame::HelloAck { .. }),
    )?;
    for query in queries {
        s.request(
            &Frame::Subscribe {
                query: query.clone(),
                policy: None,
            },
            |f| matches!(f, Frame::SubAck { .. }),
        )?;
    }
    Ok(s)
}

impl Session {
    fn request(&mut self, frame: &Frame, accept: impl Fn(&Frame) -> bool) -> Result<(), String> {
        self.writer
            .write_all(&prefixed(frame))
            .map_err(|e| e.to_string())?;
        let sealed = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let reply = decode_frame(&sealed).map_err(|e| e.to_string())?;
        if accept(&reply) {
            Ok(())
        } else {
            Err(format!("unexpected reply {reply:?}"))
        }
    }

    /// Closes the connection and stops the server; returns its counters.
    pub fn close(mut self) -> ServerStats {
        let stats = self.server.stats();
        let _ = self.writer.write_all(&prefixed(&Frame::Bye));
        drop(self.writer);
        drop(self.reader);
        self.server.shutdown();
        stats
    }
}

/// One OUTPUT frame as received.
pub struct Received {
    pub sealed: Vec<u8>,
    pub frame: OutputFrame,
    /// When `read_frame` returned it, from the run's start.
    pub at_ns: u64,
}

pub struct WireRun {
    /// From the first batch's write beginning to DRAIN_ACK received;
    /// `None` if no DRAIN_ACK came.
    pub wall_ns: Option<u64>,
    /// Per batch, when its write began, from the run's start.
    pub sent_ns: Vec<u64>,
    /// Per batch, when it was due (paced runs; equals `sent_ns` in a
    /// flood, where a batch is due when TCP accepts it).
    pub due_ns: Vec<u64>,
    pub outputs: Vec<Received>,
    /// ERROR frames, frames that did not decode, frames a server must not
    /// send.
    pub errors: u64,
    /// Batches that could not be written.
    pub unsent: u64,
}

/// Sends every batch then DRAIN, and receives until DRAIN_ACK. With a
/// `gap`, batch `i` is due `i·gap` after the start whatever the server
/// does (open loop); without, the next batch is written as soon as TCP
/// accepts it.
pub fn run(session: &mut Session, frames: &WireFrames, gap: Option<Duration>) -> WireRun {
    let n = frames.batches.len();
    let mut sent_ns = Vec::with_capacity(n);
    let mut due_ns = Vec::with_capacity(n);
    let mut unsent = 0;
    let Session { writer, reader, .. } = session;
    let base = Instant::now();

    let (outputs, errors, ack_ns) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let (mut outputs, mut errors, mut ack_ns) = (Vec::new(), 0, None);
            while let Ok(Some(sealed)) = read_frame(reader) {
                let at_ns = base.elapsed().as_nanos() as u64;
                match decode_frame(&sealed) {
                    Ok(Frame::Output(frame)) => outputs.push(Received {
                        sealed,
                        frame,
                        at_ns,
                    }),
                    Ok(Frame::DrainAck) => {
                        ack_ns = Some(at_ns);
                        break;
                    }
                    // an advisory: the flood is meant to fill the queue
                    Ok(Frame::Busy { .. }) => {}
                    _ => errors += 1,
                }
            }
            (outputs, errors, ack_ns)
        });

        for (i, frame) in frames.batches.iter().enumerate() {
            let mut now = base.elapsed();
            if let Some(gap) = gap {
                let due = gap * i as u32;
                // spins, never sleeps: a sleeping sender lets the hypervisor
                // park its core, and the time to wake it then dominates the
                // latency and depends on what ran before
                while now < due {
                    std::hint::spin_loop();
                    now = base.elapsed();
                }
                due_ns.push(due.as_nanos() as u64);
            } else {
                due_ns.push(now.as_nanos() as u64);
            }
            sent_ns.push(now.as_nanos() as u64);
            if writer.write_all(frame).is_err() {
                unsent = (n - i) as u64;
                break;
            }
        }
        if writer.write_all(&frames.drain).is_err() {
            // the receiver ends when the server closes the connection
            unsent += 1;
        }
        receiver.join().expect("receiver thread does not panic")
    });

    WireRun {
        wall_ns: ack_ns.map(|ack| ack.saturating_sub(sent_ns.first().copied().unwrap_or(0))),
        sent_ns,
        due_ns,
        outputs,
        errors,
        unsent,
    }
}

impl WireRun {
    /// Per OUTPUT frame, receive time minus the due time of the batch
    /// whose ingestion produced it (`emit_seq` names the arrival), in
    /// nanoseconds.
    pub fn latencies_ns(&self, batch: usize) -> Vec<u64> {
        self.outputs
            .iter()
            .filter_map(|o| {
                let trigger = (o.frame.emit_seq.get().saturating_sub(1) as usize) / batch;
                let due = self
                    .due_ns
                    .get(trigger.min(self.due_ns.len().checked_sub(1)?))?;
                Some(o.at_ns.saturating_sub(*due))
            })
            .collect()
    }

    /// Share of batches whose write began over a millisecond after it was
    /// due: the generator, not the server, was late.
    pub fn late_share(&self) -> f64 {
        let late = self.lateness_ns();
        late.iter().filter(|ns| **ns > 1_000_000).count() as f64 / late.len().max(1) as f64
    }

    /// Per batch, how long after its due time its write began.
    pub fn lateness_ns(&self) -> Vec<u64> {
        self.sent_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(sent, due)| sent.saturating_sub(*due))
            .collect()
    }
}
