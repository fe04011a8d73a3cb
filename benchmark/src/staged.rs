//! The staged pipeline: every batch pushed through the layers in order on
//! one thread, with a span around each call — client encode, frame write
//! and read over a loopback socket pair, server decode,
//! `EngineCore::ingest_batch`, and per output the way back. It prices each
//! stage of the wire path without the threads that overlap them in the
//! real server; what the threads add shows as the untraced wire run's
//! time beyond the stages' sum.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};

use sequin_server::frame::{read_frame, write_frame};
use sequin_server::{decode_frame, EngineCore, Frame};
use sequin_types::{EventRef, StreamItem};

use crate::check::Tally;
use crate::engine_path::Outputs;
use crate::prepare::{output_frame, Prepared};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::Workload;

pub const ROOT: &str = "staged";
pub const BATCH: &str = "staged.batch";
pub const ENCODE: &str = "client.encode";
pub const SOCK_WRITE: &str = "client.sock_write";
pub const SOCK_READ: &str = "server.sock_read";
pub const DECODE: &str = "server.decode";
pub const CORE_INGEST: &str = "server.core_ingest";
pub const ENCODE_OUT: &str = "server.encode_out";
pub const OUT_WRITE: &str = "server.out_write";
pub const OUT_READ: &str = "client.out_read";
pub const CLIENT_DECODE: &str = "client.decode";
/// Freeing the decoded batch and its outputs, which the server's engine
/// thread does after every batch.
pub const RELEASE: &str = "server.release";

/// The stages: every span that is a call into a layer. The rest of the
/// traced wall time is the loop that strings them together.
pub const STAGES: [&str; 10] = [
    ENCODE,
    SOCK_WRITE,
    SOCK_READ,
    DECODE,
    CORE_INGEST,
    ENCODE_OUT,
    OUT_WRITE,
    OUT_READ,
    CLIENT_DECODE,
    RELEASE,
];

/// Outputs written before any is read back: bounds the bytes in flight on
/// the one thread well below a socket buffer.
const OUTPUT_CHUNK: usize = 64;

pub struct Outcome {
    /// What the client end decoded.
    pub tally: Tally,
    pub batches: u64,
    pub outputs: u64,
    /// Bytes of EVENT_BATCH frames, length prefixes included.
    pub ingress_bytes: u64,
    /// Frames that failed to cross the socket pair or to decode.
    pub errors: u64,
}

struct Link {
    near: TcpStream,
    far: BufReader<TcpStream>,
}

/// A connected loopback pair: `near` writes, `far` reads.
fn link() -> Result<Link, String> {
    let err = |e: std::io::Error| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let near = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let (far, _) = listener.accept().map_err(err)?;
    near.set_nodelay(true).map_err(err)?;
    Ok(Link {
        near,
        far: BufReader::new(far),
    })
}

pub fn run(
    w: &Workload,
    p: &Prepared,
    core: &mut EngineCore,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let root_n = t.name(ROOT);
    let batch_n = t.name(BATCH);
    let [encode_n, write_n, read_n, decode_n, ingest_n, encode_out_n, out_write_n, out_read_n, client_decode_n, release_n] =
        STAGES.map(|n| t.name(n));
    let mut ingress = link()?;
    let mut egress = link()?;
    let mut out = Outcome {
        tally: Tally::default(),
        batches: 0,
        outputs: 0,
        ingress_bytes: 0,
        errors: 0,
    };

    // pushes a batch's outputs down the egress link and decodes them at
    // the client end
    let mut deliver = |t: &mut Tracer, out: &mut Outcome, b: u32, batch: u32, outputs: &Outputs| {
        for chunk in outputs.chunks(OUTPUT_CHUNK) {
            let s = t.open(encode_out_n, b, batch);
            let sealed: Vec<Vec<u8>> = chunk
                .iter()
                .map(|(q, o)| output_frame(q.index(), o))
                .collect();
            t.close(s);
            let s = t.open(out_write_n, b, batch);
            for f in &sealed {
                out.errors += u64::from(write_frame(&mut egress.near, f).is_err());
            }
            t.close(s);
            let s = t.open(out_read_n, b, batch);
            let received: Vec<Vec<u8>> = sealed
                .iter()
                .filter_map(|_| read_frame(&mut egress.far).ok().flatten())
                .collect();
            t.close(s);
            let s = t.open(client_decode_n, b, batch);
            let frames: Vec<Frame> = received
                .iter()
                .filter_map(|f| decode_frame(f).ok())
                .collect();
            t.close(s);
            out.errors += (sealed.len() - frames.len()) as u64;
            for f in &frames {
                match f {
                    Frame::Output(o) => out.tally.add_frame(o),
                    _ => out.errors += 1,
                }
            }
            out.outputs += chunk.len() as u64;
        }
    };

    let root = t.open(root_n, NO_PARENT, 0);
    for (ix, chunk) in p.input.arrival.chunks(w.batch).enumerate() {
        let batch = ix as u32;
        let b = t.open(batch_n, root, batch);

        let s = t.open(encode_n, b, batch);
        let events: Vec<EventRef> = chunk
            .iter()
            .filter_map(StreamItem::as_event)
            .cloned()
            .collect();
        let sealed = sequin_server::encode_frame(&Frame::EventBatch(events));
        t.close(s);

        let s = t.open(write_n, b, batch);
        let written = write_frame(&mut ingress.near, &sealed);
        t.close(s);
        out.ingress_bytes += sealed.len() as u64 + 4;

        let s = t.open(read_n, b, batch);
        let received = read_frame(&mut ingress.far);
        t.close(s);

        let s = t.open(decode_n, b, batch);
        let decoded = received.ok().flatten().and_then(|f| decode_frame(&f).ok());
        t.close(s);
        let items: Vec<StreamItem> = match (written, decoded) {
            (Ok(()), Some(Frame::EventBatch(events))) => {
                events.into_iter().map(StreamItem::Event).collect()
            }
            _ => {
                out.errors += 1;
                Vec::new()
            }
        };

        let s = t.open(ingest_n, b, batch);
        let outputs = core.ingest_batch(&items);
        t.close(s);
        deliver(t, &mut out, b, batch, &outputs);
        let s = t.open(release_n, b, batch);
        drop((items, outputs));
        t.close(s);
        t.close(b);
        out.batches += 1;
    }
    // DRAIN
    let batch = out.batches as u32;
    let b = t.open(batch_n, root, batch);
    let s = t.open(ingest_n, b, batch);
    let outputs = core.finish();
    t.close(s);
    deliver(t, &mut out, b, batch, &outputs);
    t.close(b);
    t.close(root);
    Ok(out)
}
