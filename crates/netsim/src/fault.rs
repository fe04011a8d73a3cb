//! Crash and corruption fault injection.
//!
//! The checkpoint/recovery tests need two kinds of faults the delay models
//! cannot express: the *process* dying mid-stream, and the *durable
//! artifacts* it left behind rotting on disk. [`Crash`] describes where in
//! a stream a simulated process death occurs; the corruption helpers
//! mutate serialized bytes the way real storage faults do (truncated
//! writes, flipped bits). Both are deliberately engine-agnostic: the
//! driver that owns the engine decides what "crashing" and "restoring"
//! mean.

use sequin_types::{StreamItem, Timestamp};

/// Where a simulated process crash happens while consuming a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// Die after ingesting this many stream items.
    AfterEvents(u64),
    /// Die the first time an event's occurrence timestamp reaches `t`
    /// (a proxy for "the watermark advanced past `t`" that needs no
    /// engine cooperation).
    AtWatermark(Timestamp),
}

impl Crash {
    /// True when the crash fires on the `ix`-th item (0-based) of the
    /// stream, i.e. the process dies *before* ingesting it.
    pub fn fires(&self, ix: u64, item: &StreamItem) -> bool {
        match *self {
            Crash::AfterEvents(n) => ix >= n,
            Crash::AtWatermark(t) => match item {
                StreamItem::Event(e) => e.ts() >= t,
                StreamItem::Punctuation(p) => *p >= t,
            },
        }
    }

    /// Splits a stream at the crash point: items the process ingested
    /// before dying, and the index it would have resumed from had it not
    /// checkpointed at all.
    pub fn split<'a>(&self, items: &'a [StreamItem]) -> (&'a [StreamItem], u64) {
        for (ix, item) in items.iter().enumerate() {
            if self.fires(ix as u64, item) {
                return (&items[..ix], ix as u64);
            }
        }
        (items, items.len() as u64)
    }
}

/// A schedule of transport-level faults, keyed by the 0-based index of the
/// frame in one direction of a connection.
///
/// This is the frame-granular counterpart of [`Crash`]: where `Crash`
/// models a process dying, `FramePlan` models the *link* misbehaving —
/// bits flipping in flight, writes truncating, and frames being delayed
/// past their successors (the transport-induced disorder that out-of-order
/// processing exists to absorb). The server crate's in-memory transport
/// applies a plan to each frame it carries, so protocol-level corruption
/// rejection and reordering tolerance are testable without sockets.
#[derive(Debug, Clone, Default)]
pub struct FramePlan {
    /// `(frame index, bit index)` pairs: flip that bit of that frame.
    pub bit_flips: Vec<(u64, usize)>,
    /// `(frame index, keep)` pairs: truncate that frame to `keep` bytes.
    pub truncations: Vec<(u64, usize)>,
    /// `(frame index, hold)` pairs: deliver that frame only after `hold`
    /// subsequent frames have been sent (reordering/delay).
    pub delays: Vec<(u64, usize)>,
}

impl FramePlan {
    /// A plan that injects no faults.
    pub fn clean() -> FramePlan {
        FramePlan::default()
    }

    /// Schedules a single bit flip in frame `ix` (builder-style).
    pub fn flip_frame(mut self, ix: u64, bit: usize) -> FramePlan {
        self.bit_flips.push((ix, bit));
        self
    }

    /// Schedules truncating frame `ix` to `keep` bytes (builder-style).
    pub fn truncate_frame(mut self, ix: u64, keep: usize) -> FramePlan {
        self.truncations.push((ix, keep));
        self
    }

    /// Schedules delaying frame `ix` until `hold` later frames have been
    /// sent (builder-style).
    pub fn delay_frame(mut self, ix: u64, hold: usize) -> FramePlan {
        self.delays.push((ix, hold));
        self
    }

    /// Applies the scheduled corruptions (bit flips, then truncations) to
    /// frame `ix` in place.
    pub fn corrupt(&self, ix: u64, bytes: &mut Vec<u8>) {
        for &(at, bit) in &self.bit_flips {
            if at == ix {
                bit_flip(bytes, bit);
            }
        }
        for &(at, keep) in &self.truncations {
            if at == ix {
                truncate(bytes, keep);
            }
        }
    }

    /// How many subsequent frames must be sent before frame `ix` is
    /// delivered (0 = deliver immediately).
    pub fn hold_for(&self, ix: u64) -> usize {
        self.delays
            .iter()
            .filter(|(at, _)| *at == ix)
            .map(|(_, hold)| *hold)
            .max()
            .unwrap_or(0)
    }
}

/// Truncated write: keeps only the first `keep` bytes.
pub fn truncate(bytes: &mut Vec<u8>, keep: usize) {
    bytes.truncate(keep.min(bytes.len()));
}

/// Flips a single bit; `bit` indexes the artifact's bit stream and wraps,
/// so any value targets *some* bit of a non-empty artifact.
pub fn bit_flip(bytes: &mut [u8], bit: usize) {
    if bytes.is_empty() {
        return;
    }
    let bit = bit % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_types::{Event, EventTypeId, Timestamp};
    use std::sync::Arc;

    fn ev(ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(Event::new(
            EventTypeId::from_index(0),
            Timestamp::new(ts),
            Vec::new(),
        )))
    }

    #[test]
    fn after_events_splits_at_count() {
        let items = vec![ev(1), ev(2), ev(3), ev(4)];
        let (pre, resume) = Crash::AfterEvents(2).split(&items);
        assert_eq!(pre.len(), 2);
        assert_eq!(resume, 2);
    }

    #[test]
    fn at_watermark_splits_at_first_reaching_event() {
        let items = vec![ev(5), ev(30), ev(10), ev(40)];
        let (pre, resume) = Crash::AtWatermark(Timestamp::new(25)).split(&items);
        assert_eq!(pre.len(), 1, "dies before ingesting the t=30 event");
        assert_eq!(resume, 1);
        let (_, resume) = Crash::AtWatermark(Timestamp::new(26))
            .split(&[ev(1), StreamItem::Punctuation(Timestamp::new(26))]);
        assert_eq!(resume, 1, "punctuation also trips the trigger");
    }

    #[test]
    fn crash_beyond_stream_never_fires() {
        let items = vec![ev(1), ev(2)];
        let (pre, resume) = Crash::AfterEvents(10).split(&items);
        assert_eq!(pre.len(), 2);
        assert_eq!(resume, 2);
    }

    #[test]
    fn frame_plan_targets_only_named_frames() {
        let plan = FramePlan {
            bit_flips: vec![(2, 0)],
            truncations: vec![(3, 1)],
            delays: vec![(1, 4)],
        };

        let mut frame0 = vec![0xAAu8, 0xBB];
        plan.corrupt(0, &mut frame0);
        assert_eq!(frame0, vec![0xAA, 0xBB], "frame 0 untouched");

        let mut frame2 = vec![0xAAu8, 0xBB];
        plan.corrupt(2, &mut frame2);
        assert_eq!(frame2, vec![0xAB, 0xBB], "bit 0 flipped");

        let mut frame3 = vec![0xAAu8, 0xBB];
        plan.corrupt(3, &mut frame3);
        assert_eq!(frame3, vec![0xAA], "truncated to 1 byte");

        assert_eq!(plan.hold_for(1), 4);
        assert_eq!(plan.hold_for(2), 0);
        assert_eq!(FramePlan::clean().delay_frame(7, 2).hold_for(7), 2);
        let chained = FramePlan::clean().flip_frame(5, 3).truncate_frame(5, 9);
        assert_eq!(chained.bit_flips, vec![(5, 3)]);
        assert_eq!(chained.truncations, vec![(5, 9)]);
    }

    #[test]
    fn corruption_helpers() {
        let mut b = vec![0xFFu8; 4];
        truncate(&mut b, 2);
        assert_eq!(b, vec![0xFF, 0xFF]);
        truncate(&mut b, 100);
        assert_eq!(b.len(), 2, "keep beyond len is a no-op");
        bit_flip(&mut b, 0);
        assert_eq!(b[0], 0xFE);
        bit_flip(&mut b, 16); // wraps back to bit 0
        assert_eq!(b[0], 0xFF);
        let mut empty: Vec<u8> = Vec::new();
        bit_flip(&mut empty, 3); // must not panic
    }
}
