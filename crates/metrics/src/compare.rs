//! Output-set accuracy against an oracle.

use std::collections::BTreeMap;

use sequin_engine::{OutputItem, OutputKind};
use sequin_runtime::MatchKey;

/// Precision/recall of an observed match set against an oracle set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Matches in both sets.
    pub true_positives: usize,
    /// Observed matches the oracle does not contain (phantoms).
    pub false_positives: usize,
    /// Oracle matches the observation missed.
    pub false_negatives: usize,
}

impl Accuracy {
    /// `tp / (tp + fp)`; 1 when nothing was observed.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1 when the oracle is empty.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Reduces an output stream to its **net** inserted match keys: every
/// `Insert` counts +1 and every `Retract` −1 per key; keys with a positive
/// net count survive (speculative emission nets out its own corrections).
pub fn net_inserts(outputs: &[OutputItem]) -> Vec<MatchKey> {
    let mut net: BTreeMap<MatchKey, i64> = BTreeMap::new();
    for o in outputs {
        let delta = match o.kind {
            OutputKind::Insert => 1,
            OutputKind::Retract => -1,
        };
        *net.entry(o.m.key()).or_default() += delta;
    }
    net.into_iter()
        .filter(|(_, c)| *c > 0)
        .map(|(k, _)| k)
        .collect()
}

/// Compares observed outputs (net of retractions) against oracle outputs.
pub fn compare_outputs(observed: &[OutputItem], oracle: &[OutputItem]) -> Accuracy {
    let obs = net_inserts(observed);
    let ora = net_inserts(oracle);
    let mut tp = 0;
    let mut fp = 0;
    let (mut i, mut j) = (0, 0);
    while i < obs.len() && j < ora.len() {
        match obs[i].cmp(&ora[j]) {
            std::cmp::Ordering::Equal => {
                tp += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                fp += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
            }
        }
    }
    fp += obs.len() - i;
    let fn_ = ora.len() - tp;
    Accuracy {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_runtime::Match;
    use sequin_types::{
        ArrivalSeq, Event, EventId, EventRef, Timestamp, TypeRegistry, Value, ValueKind,
    };
    use std::sync::Arc;

    fn outputs(ids: &[&[u64]], kinds: &[OutputKind]) -> Vec<OutputItem> {
        let mut reg = TypeRegistry::new();
        reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
        reg.declare("B", &[("x", ValueKind::Int)]).unwrap();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 1000", &reg).unwrap();
        ids.iter()
            .zip(kinds)
            .map(|(pair, kind)| {
                let events: Vec<EventRef> = pair
                    .iter()
                    .enumerate()
                    .map(|(slot, &id)| {
                        let ty = if slot == 0 {
                            reg.lookup("A").unwrap()
                        } else {
                            reg.lookup("B").unwrap()
                        };
                        Arc::new(
                            Event::builder(ty, Timestamp::new(10 * (slot as u64 + 1)))
                                .id(EventId::new(id))
                                .attr(Value::Int(0))
                                .build()
                                .with_arrival(ArrivalSeq::new(id)),
                        )
                    })
                    .collect();
                OutputItem {
                    kind: *kind,
                    m: Match::new(&q, events),
                    emit_seq: ArrivalSeq::new(99),
                    emit_clock: Timestamp::new(99),
                    cause: None,
                }
            })
            .collect()
    }

    #[test]
    fn exact_agreement() {
        let a = outputs(
            &[&[1, 2], &[3, 4]],
            &[OutputKind::Insert, OutputKind::Insert],
        );
        let acc = compare_outputs(&a, &a);
        assert_eq!((acc.false_positives, acc.false_negatives), (0, 0));
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.recall(), 1.0);
    }

    #[test]
    fn phantom_and_missed() {
        let observed = outputs(
            &[&[1, 2], &[5, 6]],
            &[OutputKind::Insert, OutputKind::Insert],
        );
        let oracle = outputs(
            &[&[1, 2], &[3, 4]],
            &[OutputKind::Insert, OutputKind::Insert],
        );
        let acc = compare_outputs(&observed, &oracle);
        assert_eq!(acc.true_positives, 1);
        assert_eq!(acc.false_positives, 1);
        assert_eq!(acc.false_negatives, 1);
        assert_eq!(acc.precision(), 0.5);
        assert_eq!(acc.recall(), 0.5);
    }

    #[test]
    fn retraction_cancels_insert() {
        let observed = outputs(
            &[&[1, 2], &[1, 2], &[3, 4]],
            &[OutputKind::Insert, OutputKind::Retract, OutputKind::Insert],
        );
        let keys = net_inserts(&observed);
        assert_eq!(keys.len(), 1);
        let oracle = outputs(&[&[3, 4]], &[OutputKind::Insert]);
        let acc = compare_outputs(&observed, &oracle);
        assert_eq!((acc.false_positives, acc.false_negatives), (0, 0));
    }

    #[test]
    fn empty_sets() {
        let acc = compare_outputs(&[], &[]);
        assert_eq!((acc.false_positives, acc.false_negatives), (0, 0));
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.recall(), 1.0);
    }
}
