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
    /// Candidate events visited during construction DFS.
    pub dfs_steps: u64,
    /// Predicate evaluations attempted (including undecided ones).
    pub predicate_evals: u64,
    /// Complete matches constructed (before negation filtering).
    pub matches_constructed: u64,
    /// Matches discarded by a negation check.
    pub negated_matches: u64,
    /// Instances removed by purge.
    pub purged: u64,
    /// Purge passes executed.
    pub purge_runs: u64,
    /// Events dropped because they violated the disorder bound (arrived
    /// after state they needed was already purged).
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
    /// Always 0: the slot of a retired gauge, kept because the checkpoint
    /// codec writes every field. Merged with `max`.
    pub merge_buffer_peak: u64,
}

impl AddAssign for RuntimeStats {
    fn add_assign(&mut self, rhs: RuntimeStats) {
        self.insertions += rhs.insertions;
        self.ooo_insertions += rhs.ooo_insertions;
        self.dfs_steps += rhs.dfs_steps;
        self.predicate_evals += rhs.predicate_evals;
        self.matches_constructed += rhs.matches_constructed;
        self.negated_matches += rhs.negated_matches;
        self.purged += rhs.purged;
        self.purge_runs += rhs.purge_runs;
        self.late_drops += rhs.late_drops;
        self.checkpoints_written += rhs.checkpoints_written;
        self.checkpoints_rejected += rhs.checkpoints_rejected;
        self.replayed_suppressed += rhs.replayed_suppressed;
        self.events_routed += rhs.events_routed;
        // gauges, not flows: combining two evaluators keeps the larger peak
        self.max_stack_depth = self.max_stack_depth.max(rhs.max_stack_depth);
        self.merge_buffer_peak = self.merge_buffer_peak.max(rhs.merge_buffer_peak);
    }
}

impl RuntimeStats {
    /// Field-order list used by the codec and the metrics tables; keep in
    /// sync with the struct definition.
    pub fn as_pairs(&self) -> [(&'static str, u64); 15] {
        [
            ("insertions", self.insertions),
            ("ooo_insertions", self.ooo_insertions),
            ("dfs_steps", self.dfs_steps),
            ("predicate_evals", self.predicate_evals),
            ("matches_constructed", self.matches_constructed),
            ("negated_matches", self.negated_matches),
            ("purged", self.purged),
            ("purge_runs", self.purge_runs),
            ("late_drops", self.late_drops),
            ("checkpoints_written", self.checkpoints_written),
            ("checkpoints_rejected", self.checkpoints_rejected),
            ("replayed_suppressed", self.replayed_suppressed),
            ("events_routed", self.events_routed),
            ("max_stack_depth", self.max_stack_depth),
            ("merge_buffer_peak", self.merge_buffer_peak),
        ]
    }
}

impl Encode for RuntimeStats {
    fn encode(&self, w: &mut Writer) {
        for (_, v) in self.as_pairs() {
            w.put_u64(v);
        }
    }
}

impl Decode for RuntimeStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RuntimeStats {
            insertions: r.get_u64()?,
            ooo_insertions: r.get_u64()?,
            dfs_steps: r.get_u64()?,
            predicate_evals: r.get_u64()?,
            matches_constructed: r.get_u64()?,
            negated_matches: r.get_u64()?,
            purged: r.get_u64()?,
            purge_runs: r.get_u64()?,
            late_drops: r.get_u64()?,
            checkpoints_written: r.get_u64()?,
            checkpoints_rejected: r.get_u64()?,
            replayed_suppressed: r.get_u64()?,
            events_routed: r.get_u64()?,
            max_stack_depth: r.get_u64()?,
            merge_buffer_peak: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = RuntimeStats {
            insertions: 1,
            dfs_steps: 2,
            ..Default::default()
        };
        let b = RuntimeStats {
            insertions: 10,
            purged: 5,
            checkpoints_written: 2,
            checkpoints_rejected: 1,
            replayed_suppressed: 4,
            events_routed: 6,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.insertions, 11);
        assert_eq!(a.dfs_steps, 2);
        assert_eq!(a.purged, 5);
        assert_eq!(a.checkpoints_written, 2);
        assert_eq!(a.checkpoints_rejected, 1);
        assert_eq!(a.replayed_suppressed, 4);
        assert_eq!(a.events_routed, 6);
    }

    #[test]
    fn add_assign_takes_max_of_gauges() {
        let mut a = RuntimeStats {
            max_stack_depth: 7,
            merge_buffer_peak: 2,
            ..Default::default()
        };
        a += RuntimeStats {
            max_stack_depth: 3,
            merge_buffer_peak: 9,
            ..Default::default()
        };
        assert_eq!(a.max_stack_depth, 7);
        assert_eq!(a.merge_buffer_peak, 9);
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
            merge_buffer_peak: 15,
        };
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(RuntimeStats::decode(&mut r).unwrap(), s);
        r.finish().unwrap();
        // the pair view must agree with the struct values 1..=15
        let pairs = s.as_pairs();
        assert_eq!(pairs.len(), 15);
        for (i, (_, v)) in pairs.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }

    /// Which `as_pairs` entries are peak gauges (max-merged); everything
    /// else is a flow counter (summed).
    const GAUGES: [&str; 2] = ["max_stack_depth", "merge_buffer_peak"];

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
                let want = if GAUGES.contains(name) {
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
