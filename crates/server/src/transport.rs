//! Byte transports the protocol runs over.
//!
//! The server and client are written against two small traits so the same
//! session logic serves real sockets and deterministic in-process tests:
//!
//! * [`Transport`] — the owned receive side of a connection; pulls whole
//!   (still-sealed) frames.
//! * [`FrameSink`] — the shareable send side; the server's engine thread
//!   and a session's reader thread both hold `Arc<dyn FrameSink>` clones.
//!
//! [`TcpTransport`] wraps a `TcpStream` pair (reader + `try_clone`d
//! writer). [`MemTransport`] is a socketless loopback whose send path
//! routes every frame through a [`sequin_netsim::FramePlan`], so link
//! faults — bit flips, truncation, delay/reorder — are injected between
//! the encoder and the decoder exactly where a flaky network would.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use sequin_netsim::FramePlan;

use crate::frame::{read_frame, write_frame};

/// The send half of a connection: accepts sealed frames, one or a run at
/// a time.
///
/// Implementations serialize concurrent senders internally, so an
/// `Arc<dyn FrameSink>` may be shared freely across threads.
pub trait FrameSink: Send + Sync {
    /// Writes one sealed frame: length-prefixed, then sent as a run of
    /// one.
    fn send_frame(&self, sealed: &[u8]) -> io::Result<()> {
        let mut wire = Vec::with_capacity(4 + sealed.len());
        write_frame(&mut wire, sealed)?;
        self.send_frames(&wire)
    }

    /// Writes a run of frames as one unit. `wire` is the frames as they
    /// go on the wire, each already behind its `u32` length prefix (what
    /// [`crate::frame::append_output_frame`] builds); the peer reads them
    /// exactly as if each had gone through [`FrameSink::send_frame`] in
    /// turn, and no other sender's frame lands between two of them.
    fn send_frames(&self, wire: &[u8]) -> io::Result<()>;

    /// Tears the connection down, both ways: subsequent sends fail, and
    /// the receive sides of both ends observe end-of-stream.
    fn close(&self);
}

/// The receive half of a connection.
pub trait Transport: Send {
    /// Blocks for the next sealed frame; `Ok(None)` means the peer closed
    /// cleanly at a frame boundary.
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// A shareable handle to the send half of the same connection.
    fn sink(&self) -> Arc<dyn FrameSink>;
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- TCP --

struct TcpSink {
    stream: Mutex<TcpStream>,
}

impl FrameSink for TcpSink {
    fn send_frames(&self, wire: &[u8]) -> io::Result<()> {
        // one write under one hold of the lock; a `TcpStream` has no
        // buffer of its own to flush
        lock_ignoring_poison(&self.stream).write_all(wire)
    }

    fn close(&self) {
        let s = lock_ignoring_poison(&self.stream);
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// A [`Transport`] over a connected `TcpStream`.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    sink: Arc<TcpSink>,
}

impl TcpTransport {
    /// Wraps a connected stream; clones the descriptor for the send half.
    pub fn new(stream: TcpStream) -> io::Result<TcpTransport> {
        let writer = stream.try_clone()?;
        Ok(TcpTransport {
            reader: BufReader::new(stream),
            sink: Arc::new(TcpSink {
                stream: Mutex::new(writer),
            }),
        })
    }
}

impl Transport for TcpTransport {
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.reader)
    }

    fn sink(&self) -> Arc<dyn FrameSink> {
        self.sink.clone()
    }
}

// ---------------------------------------------------------- in-memory --

/// One direction of an in-memory link: a queue of delivered frames plus
/// frames the fault plan is holding back to force reordering.
#[derive(Default)]
struct ChanState {
    ready: VecDeque<Vec<u8>>,
    /// `(release_at, frame)`, in the order sent — eligible once the
    /// sender's `sent` counter reaches `release_at`.
    held: Vec<(u64, Vec<u8>)>,
    sent: u64,
    closed: bool,
}

#[derive(Default)]
struct Channel {
    state: Mutex<ChanState>,
    cv: Condvar,
}

impl Channel {
    /// Ends this direction: sends fail, and the reader sees end-of-stream
    /// once it has read what was sent — frames still held too, so that a
    /// graceful close loses none.
    fn close(&self) {
        let mut state = lock_ignoring_poison(&self.state);
        state.closed = true;
        state.sent = u64::MAX;
        release_due(&mut state);
        drop(state);
        self.cv.notify_all();
    }
}

/// Delivers the held frames that are due, in the order they were sent.
fn release_due(state: &mut ChanState) {
    let sent = state.sent;
    let held = std::mem::take(&mut state.held);
    let (due, held): (Vec<_>, _) = held.into_iter().partition(|(at, _)| *at <= sent);
    state.held = held;
    state.ready.extend(due.into_iter().map(|(_, frame)| frame));
}

struct MemSink {
    /// The direction this side sends on.
    peer: Arc<Channel>,
    /// The direction this side receives on.
    incoming: Arc<Channel>,
    plan: FramePlan,
}

impl MemSink {
    /// Puts frame number `state.sent` on the link, through the fault plan.
    fn push(&self, state: &mut ChanState, mut bytes: Vec<u8>) -> io::Result<()> {
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "in-memory peer closed",
            ));
        }
        let ix = state.sent;
        state.sent += 1;
        self.plan.corrupt(ix, &mut bytes);
        let hold = self.plan.hold_for(ix);
        if hold > 0 {
            let release_at = ix + 1 + hold as u64;
            state.held.push((release_at, bytes));
        } else {
            state.ready.push_back(bytes);
        }
        release_due(state);
        Ok(())
    }
}

impl FrameSink for MemSink {
    fn send_frames(&self, wire: &[u8]) -> io::Result<()> {
        // the plan names frames by index, so the run is split back into
        // its frames and each takes the index a lone send would have had
        let mut state = lock_ignoring_poison(&self.peer.state);
        let mut rest = wire;
        let pushed = (|| {
            while let Some(sealed) = read_frame(&mut rest)? {
                self.push(&mut state, sealed)?;
            }
            Ok(())
        })();
        drop(state);
        self.peer.cv.notify_all();
        pushed
    }

    /// Ends both directions, as a socket's shutdown does: the peer's
    /// sends fail too, and this side's reader sees end-of-stream.
    fn close(&self) {
        self.peer.close();
        self.incoming.close();
    }
}

/// The socketless loopback [`Transport`]: each side receives what the
/// other sends, after that direction's [`FramePlan`] has had its way with
/// the bytes.
pub struct MemTransport {
    sink: Arc<MemSink>,
}

impl Transport for MemTransport {
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let incoming = &self.sink.incoming;
        let mut state = lock_ignoring_poison(&incoming.state);
        loop {
            if let Some(frame) = state.ready.pop_front() {
                return Ok(Some(frame));
            }
            if state.closed {
                return Ok(None);
            }
            state = incoming.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn sink(&self) -> Arc<dyn FrameSink> {
        self.sink.clone()
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        self.sink.close();
    }
}

/// Builds a connected in-memory transport pair. `a_to_b` faults frames
/// the first transport sends; `b_to_a` faults the reverse direction. Use
/// [`FramePlan::clean`] for an undisturbed link.
pub fn mem_pair(a_to_b: FramePlan, b_to_a: FramePlan) -> (MemTransport, MemTransport) {
    let (to_b, to_a) = (Arc::<Channel>::default(), Arc::<Channel>::default());
    let end = |peer, incoming, plan| MemTransport {
        sink: Arc::new(MemSink {
            peer,
            incoming,
            plan,
        }),
    };
    (
        end(to_b.clone(), to_a.clone(), a_to_b),
        end(to_a, to_b, b_to_a),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn frame(n: u8) -> Vec<u8> {
        vec![n; 4]
    }

    /// Sends frames 0..4 one `send_frame` each, or as one `send_frames`
    /// run: the fault plan and the peer must not be able to tell.
    fn send_four(sink: &dyn FrameSink, as_one_run: bool) {
        if as_one_run {
            let mut wire = Vec::new();
            for n in 0..4 {
                crate::frame::write_frame(&mut wire, &frame(n)).unwrap();
            }
            sink.send_frames(&wire).unwrap();
        } else {
            for n in 0..4 {
                sink.send_frame(&frame(n)).unwrap();
            }
        }
    }

    #[test]
    fn clean_pair_delivers_in_order_and_eofs_on_close() {
        let (a, mut b) = mem_pair(FramePlan::clean(), FramePlan::clean());
        let sink = a.sink();
        sink.send_frame(&frame(1)).unwrap();
        sink.send_frame(&frame(2)).unwrap();
        assert_eq!(b.recv_frame().unwrap(), Some(frame(1)));
        assert_eq!(b.recv_frame().unwrap(), Some(frame(2)));
        sink.close();
        assert_eq!(b.recv_frame().unwrap(), None);
        assert!(sink.send_frame(&frame(3)).is_err(), "send after close");
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, &frame(3)).unwrap();
        assert!(sink.send_frames(&wire).is_err(), "run sent after close");
    }

    #[test]
    fn bit_flip_and_truncation_hit_only_named_frames() {
        for as_one_run in [false, true] {
            let plan = FramePlan::clean().flip_frame(1, 0).truncate_frame(2, 1);
            let (a, mut b) = mem_pair(plan, FramePlan::clean());
            send_four(&*a.sink(), as_one_run);
            assert_eq!(b.recv_frame().unwrap(), Some(frame(0)));
            let flipped = b.recv_frame().unwrap().unwrap();
            assert_ne!(flipped, frame(1));
            assert_eq!(flipped.len(), 4);
            assert_eq!(b.recv_frame().unwrap(), Some(vec![2u8]));
            assert_eq!(b.recv_frame().unwrap(), Some(frame(3)));
        }
    }

    #[test]
    fn delay_reorders_and_close_flushes_held_frames() {
        // frame 0 held for 2 subsequent sends: delivery order 1, 2, 0, 3
        for as_one_run in [false, true] {
            let plan = FramePlan::clean().delay_frame(0, 2);
            let (a, mut b) = mem_pair(plan, FramePlan::clean());
            send_four(&*a.sink(), as_one_run);
            assert_eq!(b.recv_frame().unwrap(), Some(frame(1)));
            assert_eq!(b.recv_frame().unwrap(), Some(frame(2)));
            assert_eq!(b.recv_frame().unwrap(), Some(frame(0)));
            assert_eq!(b.recv_frame().unwrap(), Some(frame(3)));
        }

        // a frame still held at close time must be flushed, not dropped
        let plan = FramePlan::clean().delay_frame(0, 100);
        let (a, mut b) = mem_pair(plan, FramePlan::clean());
        let sink = a.sink();
        sink.send_frame(&frame(9)).unwrap();
        sink.close();
        assert_eq!(b.recv_frame().unwrap(), Some(frame(9)));
        assert_eq!(b.recv_frame().unwrap(), None);
    }

    #[test]
    fn recv_blocks_until_peer_sends() {
        let (a, mut b) = mem_pair(FramePlan::clean(), FramePlan::clean());
        let sink = a.sink();
        let t = thread::spawn(move || b.recv_frame().unwrap());
        thread::sleep(std::time::Duration::from_millis(20));
        sink.send_frame(&frame(5)).unwrap();
        assert_eq!(t.join().unwrap(), Some(frame(5)));
    }

    #[test]
    fn dropping_a_transport_wakes_and_eofs_the_peer() {
        let (a, mut b) = mem_pair(FramePlan::clean(), FramePlan::clean());
        let t = thread::spawn(move || b.recv_frame().unwrap());
        thread::sleep(std::time::Duration::from_millis(20));
        drop(a);
        assert_eq!(t.join().unwrap(), None);
    }
}
