//! Operator-level cost counters.

use std::ops::AddAssign;

use sequin_types::codec::{CodecError, Decode, Encode, Reader, Writer};

/// Counters accumulated by the physical operators, used by the evaluation
/// harness to attribute CPU cost (sequence scan vs. construction vs. purge)
/// and to validate the optimization ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Events inserted into stacks (sequence-scan insertions).
    pub insertions: u64,
    /// Insertions that landed somewhere other than the stack top (i.e.
    /// physically out-of-order arrivals absorbed by sorted insertion).
    pub ooo_insertions: u64,
    /// Candidate events visited during construction DFS — inside each
    /// level's range, after the stored negatives narrowed it.
    pub dfs_steps: u64,
    /// Predicate evaluations attempted (including undecided ones), the
    /// narrowing's scan of stored negatives among them.
    pub predicate_evals: u64,
    /// Complete matches constructed, before the settle path's negation
    /// check: a walk that narrows by the stored negatives builds none they
    /// rule out.
    pub matches_constructed: u64,
    /// Matches discarded by a negation check after construction — dropped
    /// at once or at the seal, or retracted — by a negative that arrived
    /// after the walk or that the walk did not narrow by.
    pub negated_matches: u64,
    /// Instances removed by purge.
    pub purged: u64,
    /// Purge passes executed.
    pub purge_runs: u64,
    /// Arrivals beyond the disorder bound (older than the watermark
    /// published before them). Not dropped: they are processed best-effort,
    /// but state they needed may already be purged.
    pub late_drops: u64,
    /// Checkpoints successfully written by a `Checkpointer`.
    pub checkpoints_written: u64,
    /// Checkpoints rejected at restore time (corruption, version skew).
    pub checkpoints_rejected: u64,
    /// Outputs suppressed during post-restore replay because the dedup
    /// log showed they were already delivered (exactly-once recovery).
    pub replayed_suppressed: u64,
    /// Events accepted for positive-pattern processing by this evaluator.
    pub events_routed: u64,
    /// Deepest AIS stack observed after any insertion. Merged with `max`,
    /// not `+`, by [`AddAssign`]: depths from different queries do not add
    /// up.
    pub max_stack_depth: u64,
}

impl AddAssign for RuntimeStats {
    fn add_assign(&mut self, rhs: RuntimeStats) {
        // a gauge, not a flow: combining two evaluators keeps the larger peak
        let depth = self.max_stack_depth.max(rhs.max_stack_depth);
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(rhs.as_pairs()) {
            *mine += theirs;
        }
        self.max_stack_depth = depth;
    }
}

impl RuntimeStats {
    /// The fields that are peak gauges, merged with `max` by
    /// [`AddAssign`]; every other field is a flow counter, summed.
    pub const GAUGES: [&'static str; 1] = ["max_stack_depth"];

    /// The one field list, in slot order: the codec's, the metrics
    /// series', and the merge's.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 14] {
        [
            ("insertions", &mut self.insertions),
            ("ooo_insertions", &mut self.ooo_insertions),
            ("dfs_steps", &mut self.dfs_steps),
            ("predicate_evals", &mut self.predicate_evals),
            ("matches_constructed", &mut self.matches_constructed),
            ("negated_matches", &mut self.negated_matches),
            ("purged", &mut self.purged),
            ("purge_runs", &mut self.purge_runs),
            ("late_drops", &mut self.late_drops),
            ("checkpoints_written", &mut self.checkpoints_written),
            ("checkpoints_rejected", &mut self.checkpoints_rejected),
            ("replayed_suppressed", &mut self.replayed_suppressed),
            ("events_routed", &mut self.events_routed),
            ("max_stack_depth", &mut self.max_stack_depth),
        ]
    }

    /// Every field with its name, in slot order.
    pub fn as_pairs(&self) -> [(&'static str, u64); 14] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }
}

/// The codec writes the fields, then one reserved zero: the slot of a
/// retired gauge. Blobs carry no version, so checkpoints keep the slot.
impl Encode for RuntimeStats {
    fn encode(&self, w: &mut Writer) {
        for (_, v) in self.as_pairs() {
            w.put_u64(v);
        }
        w.put_u64(0);
    }
}

impl Decode for RuntimeStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut stats = RuntimeStats::default();
        for (_, v) in stats.fields_mut() {
            *v = r.get_u64()?;
        }
        r.get_u64()?; // the reserved slot
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats whose field in slot `i` holds `scale * (i + 1)`.
    fn numbered(scale: u64) -> RuntimeStats {
        let mut w = Writer::new();
        for slot in 1..=15 {
            w.put_u64(scale * slot);
        }
        RuntimeStats::decode(&mut Reader::new(&w.into_bytes())).unwrap()
    }

    #[test]
    fn add_assign_sums_fields() {
        // distinct values in every field, so a row the table adds to the
        // wrong field, or forgets, shows
        for (left, right) in [(1, 100), (100, 1)] {
            let mut sum = numbered(left);
            sum += numbered(right);
            for (ix, (name, got)) in sum.as_pairs().into_iter().enumerate() {
                let slot = ix as u64 + 1;
                let want = if RuntimeStats::GAUGES.contains(&name) {
                    left.max(right) * slot
                } else {
                    (left + right) * slot
                };
                assert_eq!(got, want, "{name}, {left} += {right}");
            }
        }
    }

    #[test]
    fn add_assign_takes_max_of_gauges() {
        let mut a = RuntimeStats {
            max_stack_depth: 7,
            ..Default::default()
        };
        a += RuntimeStats {
            max_stack_depth: 3,
            ..Default::default()
        };
        assert_eq!(a.max_stack_depth, 7);
        // the one gauge is the field the merge maxes, and a field at all
        assert_eq!(RuntimeStats::GAUGES, ["max_stack_depth"]);
        let names = RuntimeStats::default().as_pairs().map(|(name, _)| name);
        for gauge in RuntimeStats::GAUGES {
            assert!(names.contains(&gauge), "{gauge} is not a field");
        }
    }

    #[test]
    fn codec_round_trip_covers_every_field() {
        // fill each counter with a distinct value so a field-order bug in
        // either direction cannot cancel out
        let s = RuntimeStats {
            insertions: 1,
            ooo_insertions: 2,
            dfs_steps: 3,
            predicate_evals: 4,
            matches_constructed: 5,
            negated_matches: 6,
            purged: 7,
            purge_runs: 8,
            late_drops: 9,
            checkpoints_written: 10,
            checkpoints_rejected: 11,
            replayed_suppressed: 12,
            events_routed: 13,
            max_stack_depth: 14,
        };
        let mut w = Writer::new();
        s.encode(&mut w);
        let mut bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(RuntimeStats::decode(&mut r).unwrap(), s);
        r.finish().unwrap();
        // the pair view must agree with the struct values 1..=14
        let pairs = s.as_pairs();
        assert_eq!(pairs.len(), 14);
        for (i, (_, v)) in pairs.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
        // each field in its own slot, in slot order
        for (slot, word) in bytes.chunks(8).take(14).enumerate() {
            assert_eq!(word, (slot as u64 + 1).to_le_bytes(), "slot {slot}");
        }
        // the fields, then the retired gauge's slot: written as 0, and
        // whatever an older blob holds there is read and dropped
        assert_eq!(bytes.len(), 15 * 8);
        assert_eq!(bytes[14 * 8..], [0; 8]);
        bytes[14 * 8] = 2;
        assert_eq!(RuntimeStats::decode(&mut Reader::new(&bytes)).unwrap(), s);
    }

    fn random_stats(rng: &mut sequin_prng::Rng) -> RuntimeStats {
        let mut w = Writer::new();
        for _ in 0..15 {
            // small enough that sums over 8 parts cannot overflow
            w.put_u64(rng.gen_range(0..1u64 << 40));
        }
        let bytes = w.into_bytes();
        RuntimeStats::decode(&mut Reader::new(&bytes)).unwrap()
    }

    /// Property: merging stats via `+=` sums every flow counter and
    /// max-merges every peak gauge, independent of merge order and of how
    /// the parts are grouped (associativity) — the guarantees the plan's
    /// owed counters and the metrics registry rely on when they fold parts
    /// into one aggregate.
    #[test]
    fn add_assign_merge_properties_hold_for_random_part_sets() {
        let mut rng = sequin_prng::Rng::seed_from_u64(0x5e9_0b5);
        for round in 0..200 {
            let parts: Vec<RuntimeStats> = (0..rng.gen_range(1..=8usize))
                .map(|_| random_stats(&mut rng))
                .collect();

            // left fold
            let mut merged = RuntimeStats::default();
            for s in &parts {
                merged += *s;
            }

            // field-by-field oracle over the pair view
            for (ix, (name, got)) in merged.as_pairs().iter().enumerate() {
                let want = if RuntimeStats::GAUGES.contains(name) {
                    parts.iter().map(|s| s.as_pairs()[ix].1).max().unwrap()
                } else {
                    parts.iter().map(|s| s.as_pairs()[ix].1).sum()
                };
                assert_eq!(*got, want, "round {round}: field {name}");
            }

            // order independence: reversed fold agrees
            let mut rev = RuntimeStats::default();
            for s in parts.iter().rev() {
                rev += *s;
            }
            assert_eq!(rev, merged, "round {round}: merge is order-independent");

            // associativity: split at a random point, merge halves, then
            // merge the partials — regrouping parts must not change totals
            let cut = rng.gen_range(0..=parts.len());
            let (left, right) = parts.split_at(cut);
            let mut a = RuntimeStats::default();
            for s in left {
                a += *s;
            }
            let mut b = RuntimeStats::default();
            for s in right {
                b += *s;
            }
            a += b;
            assert_eq!(a, merged, "round {round}: merge is associative (cut {cut})");

            // identity: merging the zero stats changes nothing
            let mut with_zero = merged;
            with_zero += RuntimeStats::default();
            assert_eq!(with_zero, merged, "round {round}: zero is the identity");
        }
    }
}
