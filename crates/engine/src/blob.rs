//! The per-query checkpoint blob.
//!
//! One layout — fingerprint, watermark, arrival sequence, counters,
//! stacks, settle tail — for one logical query, whatever physically holds
//! it: the plan's pooled stacks, or a plan of one behind
//! [`crate::NativeEngine`]. The one evaluator
//! ([`crate::MultiEngine`]) is its only writer and reader.

use std::collections::BTreeMap;

use sequin_plan::stable_query_id;
use sequin_query::Query;
use sequin_runtime::{AisStack, KeyedStack, PartitionKey, RuntimeStats};
use sequin_types::codec::{fnv1a64, open_envelope, seal_envelope};
use sequin_types::{ArrivalSeq, CodecError, Decode, Encode, EventRef, Reader, Writer};

use crate::config::{EngineConfig, WatermarkSource};
use crate::settle::Settle;
use crate::watermark::WatermarkTracker;

/// One logical query's decoded checkpoint state. Every hosting writes
/// the one layout, whatever its physical one, so a checkpoint restores
/// into a lone engine or the shared plan alike.
pub(crate) struct QueryBlob {
    pub(crate) wm: WatermarkTracker,
    pub(crate) seq: ArrivalSeq,
    pub(crate) stats: RuntimeStats,
    /// Per positive slot, every stored instance, whatever key it was
    /// stored under.
    pub(crate) stacks: Vec<Vec<EventRef>>,
    pub(crate) settle: Settle,
}

/// A fingerprint of the query and the semantics-relevant configuration,
/// embedded in blobs so state is never restored into an engine evaluating
/// a different query (or the same query under incompatible settings). The
/// query enters as its [`stable_query_id`]: every clause, but not the
/// variables' spelling, so a blob restores into a query that is
/// [`Query::normalized_eq`] to its own and into no other. The disorder
/// policy is deliberately *not* part of it: blobs are policy-portable, so
/// a subscription can change policy across a checkpoint resume (the
/// carried pending/unsealed records drain correctly under any policy).
fn fingerprint(query: &Query, config: &EngineConfig) -> u64 {
    let desc = format!(
        "{:016x}|{:?}|{}",
        stable_query_id(query),
        config.watermark,
        config.partitioned
    );
    fnv1a64(desc.as_bytes())
}

/// What [`QueryBlob::decode`] returns for a blob of another query, under
/// any configuration.
pub(crate) const ANOTHER_QUERY: CodecError = CodecError::SnapshotMismatch("query fingerprint");

/// The fingerprint blobs carried before [`fingerprint`]: over `Query`'s
/// `Display`, which names the components, their variables and the window
/// but no `WHERE` or `RETURN` clause. Still accepted on read, so stores
/// written then resume.
fn legacy_fingerprint(query: &Query, config: &EngineConfig) -> u64 {
    let desc = format!("{}|{:?}|{}", query, config.watermark, config.partitioned);
    fnv1a64(desc.as_bytes())
}

/// Whether `print` is a fingerprint a blob of `query` under `config`
/// carries, today's or the legacy one.
fn is_print_of(print: u64, query: &Query, config: &EngineConfig) -> bool {
    print == fingerprint(query, config) || print == legacy_fingerprint(query, config)
}

/// The error for a blob whose fingerprint `print` is not `query`'s under
/// `config`: [`ANOTHER_QUERY`] unless it is `query`'s under another
/// watermark source or partitioning flag.
fn mismatch(print: u64, query: &Query, config: &EngineConfig) -> CodecError {
    use WatermarkSource::{Both, KSlack, Punctuation};
    let reconfigured = [KSlack, Punctuation, Both].into_iter().any(|watermark| {
        [false, true].into_iter().any(|partitioned| {
            let other = EngineConfig {
                watermark,
                partitioned,
                ..*config
            };
            is_print_of(print, query, &other)
        })
    });
    if reconfigured {
        CodecError::SnapshotMismatch("configuration fingerprint")
    } else {
        ANOTHER_QUERY
    }
}

impl QueryBlob {
    /// Seals one query's state. `stacks` names, per positive slot, the
    /// physical stack holding that slot's instances (none at all for a
    /// query that holds nothing). The stacks are written one per slot
    /// (tag `0`), or, when the query is partitioned, one set of slots per
    /// partition key in key order (tag `1`), so identical state always
    /// yields identical bytes.
    pub(crate) fn encode(
        query: &Query,
        config: &EngineConfig,
        wm: &WatermarkTracker,
        seq: ArrivalSeq,
        stats: &RuntimeStats,
        stacks: &[&KeyedStack],
        settle: &Settle,
    ) -> Vec<u8> {
        let m = query.positive_len();
        assert!(
            stacks.is_empty() || stacks.len() == m,
            "one stack per positive slot"
        );
        let empty = AisStack::new();
        let mut w = Writer::new();
        w.put_u64(fingerprint(query, config));
        wm.snapshot_into(&mut w);
        seq.encode(&mut w);
        stats.encode(&mut w);
        if config.partitioned && query.partition().is_some() {
            let mut by_key: BTreeMap<&PartitionKey, Vec<&AisStack>> = BTreeMap::new();
            for (slot, stack) in stacks.iter().enumerate() {
                for (key, keyed) in stack.iter_keys() {
                    by_key.entry(key).or_insert_with(|| vec![&empty; m])[slot] = keyed;
                }
            }
            w.put_u8(1);
            w.put_u64(by_key.len() as u64);
            for (key, slots) in by_key {
                key.encode(&mut w);
                w.put_u64(m as u64);
                slots.iter().for_each(|s| s.encode(&mut w));
            }
        } else {
            w.put_u8(0);
            w.put_u64(m as u64);
            for slot in 0..m {
                stacks.get(slot).map_or(&empty, |s| s.all()).encode(&mut w);
            }
        }
        settle.encode(&mut w);
        seal_envelope(&w.into_bytes())
    }

    /// Opens a blob written by [`QueryBlob::encode`] for `query` under
    /// `config`; `settle` supplies the query's *current* policy, which the
    /// restored tracker's bound and the settle tail follow (see
    /// [`Settle::decode`]), so a policy change across a checkpoint takes
    /// effect on restore. Fails without side effects.
    pub(crate) fn decode(
        query: &Query,
        config: &EngineConfig,
        settle: &Settle,
        bytes: &[u8],
    ) -> Result<QueryBlob, CodecError> {
        let mut r = Reader::new(open_envelope(bytes)?);
        let print = r.get_u64()?;
        if !is_print_of(print, query, config) {
            return Err(mismatch(print, query, config));
        }
        let wm = WatermarkTracker::restore_from(config, settle.policy(), &mut r)?;
        let seq = ArrivalSeq::decode(&mut r)?;
        let stats = RuntimeStats::decode(&mut r)?;
        let mut stacks: Vec<Vec<EventRef>> = vec![Vec::new(); query.positive_len()];
        let mut read_slots = |r: &mut Reader<'_>| {
            if r.get_u64()? != stacks.len() as u64 {
                return Err(CodecError::SnapshotMismatch("positive slot count"));
            }
            for slot in &mut stacks {
                slot.extend(Vec::<EventRef>::decode(r)?);
            }
            Ok(())
        };
        match r.get_u8()? {
            0 => read_slots(&mut r)?,
            1 => {
                if !(config.partitioned && query.partition().is_some()) {
                    return Err(CodecError::SnapshotMismatch("partitioning scheme"));
                }
                let n = r.get_u64()?;
                if n > r.remaining() as u64 {
                    return Err(CodecError::BadLength);
                }
                for _ in 0..n {
                    PartitionKey::decode(&mut r)?;
                    read_slots(&mut r)?;
                }
            }
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "stack layout",
                    tag,
                })
            }
        }
        let settle = settle.decode(&mut r)?;
        r.finish()?;
        Ok(QueryBlob {
            wm,
            seq,
            stats,
            stacks,
            settle,
        })
    }
}
