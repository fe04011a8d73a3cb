//! Output checking. Every pass folds what the program emitted into a
//! [`Tally`]; tallies are compared with the in-order oracle's, with the
//! naive reference on a slice, and with the pinned default-seed values.

use std::collections::BTreeSet;

use sequin_engine::{OutputItem, OutputKind, QueryId};
use sequin_query::parse;
use sequin_server::{EngineCore, OutputFrame};
use sequin_sim::reference_matches;
use sequin_types::{EventRef, StreamItem, Timestamp};

use crate::engine_path::{build_core, core_config};
use crate::gen::{Fnv, Input};
use crate::workloads::Workload;

/// The settled match set of one query — inserts minus retractions — as a
/// count and an order-independent checksum (wrapping sum of the FNV-1a of
/// each match's event ids).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuerySum {
    pub count: i64,
    pub sum: u64,
}

/// Everything one pass emitted, folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub per_query: Vec<QuerySum>,
    pub inserts: u64,
    pub retracts: u64,
    /// Σ over inserts of `emit_clock − last event's timestamp`.
    pub detect_ticks: u64,
}

impl Tally {
    pub fn add(&mut self, query: usize, kind: OutputKind, events: &[EventRef], clock: Timestamp) {
        if self.per_query.len() <= query {
            self.per_query.resize(query + 1, QuerySum::default());
        }
        let mut h = Fnv::new();
        for e in events {
            h.u64(e.id().get());
        }
        let q = &mut self.per_query[query];
        match kind {
            OutputKind::Insert => {
                q.count += 1;
                q.sum = q.sum.wrapping_add(h.0);
                self.inserts += 1;
                let last = events.last().map_or(0, |e| e.ts().ticks());
                self.detect_ticks += clock.ticks().saturating_sub(last);
            }
            OutputKind::Retract => {
                q.count -= 1;
                q.sum = q.sum.wrapping_sub(h.0);
                self.retracts += 1;
            }
        }
    }

    pub fn add_items(&mut self, outputs: &[(QueryId, OutputItem)]) {
        for (qid, o) in outputs {
            self.add(qid.index(), o.kind, o.m.events(), o.emit_clock);
        }
    }

    pub fn add_frame(&mut self, o: &OutputFrame) {
        self.add(o.query_id as usize, o.kind, &o.events, o.emit_clock);
    }

    /// Outputs the program pushed: what a client had to receive.
    pub fn outputs(&self) -> u64 {
        self.inserts + self.retracts
    }

    /// Settled matches over all queries.
    pub fn settled(&self) -> i64 {
        self.per_query.iter().map(|q| q.count).sum()
    }

    /// One checksum over all queries' settled sets, query order included.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for q in &self.per_query {
            h.u64(q.count as u64);
            h.u64(q.sum);
        }
        h.0
    }

    /// Outputs by which the two settled sets are known to differ: the
    /// difference in count per query, or one where the counts agree and
    /// the checksums do not.
    pub fn differs_from(&self, other: &Tally) -> u64 {
        let n = self.per_query.len().max(other.per_query.len());
        let get = |t: &Tally, i: usize| t.per_query.get(i).copied().unwrap_or_default();
        (0..n)
            .map(|i| {
                let (a, b) = (get(self, i), get(other, i));
                match a.count.abs_diff(b.count) {
                    0 => u64::from(a.sum != b.sum),
                    d => d,
                }
            })
            .sum()
    }
}

/// Events the naive reference enumerates over: `O(n^k)` in pattern
/// length, so a slice, not the stream.
pub const REFERENCE_SLICE: usize = 600;

/// Runs the workload's query over a slice of the arrivals and compares the
/// settled set with `sequin_sim::reference_matches`. The slice is centred
/// on the first arrival of the pattern's last type (which `engine-deep`
/// makes rare) so that it can hold matches. Of the query family, the
/// reference takes the first member. Returns
/// `(expected matches, matches missing or spurious)`.
pub fn against_reference(w: &Workload, input: &Input) -> (u64, u64) {
    let text = w.queries.texts().swap_remove(0);
    let query = parse(&text, &input.registry).expect("workload query parses");
    let last_ty = query.positive_types(query.positive_len() - 1);
    let n = REFERENCE_SLICE.min(input.arrival.len());
    let first = input
        .arrival
        .iter()
        .position(|i| {
            i.as_event()
                .is_some_and(|e| last_ty.contains(&e.event_type()))
        })
        .unwrap_or(0);
    let start = first.saturating_sub(n / 2).min(input.arrival.len() - n);
    let slice = &input.arrival[start..start + n];

    let mut core = build_core(&core_config(w, &input.registry), &[text]);
    let mut got: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut fold = |outputs: Vec<(QueryId, OutputItem)>| {
        for (_, o) in outputs {
            let ids: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            match o.kind {
                OutputKind::Insert => got.insert(ids),
                OutputKind::Retract => got.remove(&ids),
            };
        }
    };
    fold(core.ingest_batch(slice));
    fold(core.finish());

    let events: Vec<EventRef> = slice
        .iter()
        .filter_map(StreamItem::as_event)
        .cloned()
        .collect();
    let want = reference_matches(&query, &events);
    (
        want.len() as u64,
        want.symmetric_difference(&got).count() as u64,
    )
}

/// Feeds `items` to `core` in batches, then `finish()`, and folds every
/// output. Over `Input::in_order` this is the in-order oracle.
pub fn tally_of(core: &mut EngineCore, items: &[StreamItem], batch: usize) -> Tally {
    let mut tally = Tally::default();
    for chunk in items.chunks(batch) {
        tally.add_items(&core.ingest_batch(chunk));
    }
    tally.add_items(&core.finish());
    tally
}

/// Default-seed expectations, one line per workload:
/// `name input-checksum settled-matches settled-checksum`.
const PINS: &str = include_str!("../pins.txt");
pub const PINNED_SEED: u64 = 42;

/// `(input checksum, settled matches, settled checksum)` pinned for the
/// workload at the default seed and full size.
pub fn pinned(name: &str) -> Option<(u64, i64, u64)> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            if f.next()? != name {
                return None;
            }
            let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
            Some((hex(f.next()?)?, f.next()?.parse().ok()?, hex(f.next()?)?))
        })
}

/// The text of `pins.txt` as this build computes it: run after a
/// workload's constants change, and read the diff before committing it.
pub fn pins() -> String {
    let mut text = String::from(
        "# Expectations at seed 42 and full size, checked on every such run.\n\
         # Regenerate with `run.sh --pins` after retuning a workload.\n\
         # workload  input-checksum  settled-matches  settled-checksum\n",
    );
    for w in &crate::workloads::WORKLOADS {
        let input = crate::gen::generate(&w.input, PINNED_SEED);
        let mut core = build_core(&core_config(w, &input.registry), &w.queries.texts());
        let tally = tally_of(&mut core, &input.arrival, w.batch);
        text.push_str(&format!(
            "{} {:#018x} {} {:#018x}\n",
            w.name,
            input.checksum,
            tally.settled(),
            tally.checksum()
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use sequin_types::{Event, EventId, EventTypeId};
    use std::sync::Arc;

    fn ev(id: u64, ts: u64) -> EventRef {
        Arc::new(
            Event::builder(EventTypeId::from_index(0), Timestamp::new(ts))
                .id(EventId::new(id))
                .build(),
        )
    }

    #[test]
    fn tally_is_order_independent_and_retractions_cancel() {
        let (a, b, c) = (vec![ev(1, 10), ev(2, 20)], vec![ev(3, 30)], vec![ev(4, 40)]);
        let clock = Timestamp::new(50);
        let mut x = Tally::default();
        x.add(0, OutputKind::Insert, &a, clock);
        x.add(0, OutputKind::Insert, &b, clock);
        x.add(0, OutputKind::Insert, &c, clock);
        x.add(0, OutputKind::Retract, &c, clock);
        let mut y = Tally::default();
        y.add(0, OutputKind::Insert, &b, clock);
        y.add(0, OutputKind::Insert, &a, clock);
        assert_eq!(x.per_query, y.per_query);
        assert_eq!((x.settled(), x.outputs(), x.retracts), (2, 4, 1));
        assert_eq!(x.detect_ticks, 30 + 20 + 10);
        assert_eq!(x.differs_from(&y), 0);
        assert_eq!(x.checksum(), y.checksum());
    }

    #[test]
    fn differences_are_counted() {
        let clock = Timestamp::new(0);
        let mut x = Tally::default();
        x.add(1, OutputKind::Insert, &[ev(1, 1)], clock);
        let mut y = Tally::default();
        y.add(1, OutputKind::Insert, &[ev(2, 1)], clock);
        assert_eq!(x.differs_from(&y), 1, "same count, other match");
        y.add(1, OutputKind::Insert, &[ev(3, 1)], clock);
        y.add(0, OutputKind::Insert, &[ev(4, 1)], clock);
        assert_eq!(x.differs_from(&y), 2, "one missing in each query");
        assert_ne!(x.checksum(), y.checksum());
    }

    #[test]
    fn every_workload_is_pinned() {
        for w in &WORKLOADS {
            assert!(pinned(w.name).is_some(), "{} has no pin", w.name);
        }
        assert_eq!(pinned("no-such-workload"), None);
    }
}
