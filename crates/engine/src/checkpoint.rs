//! Checkpoint/restore with exactly-once replay — the one implementation.
//!
//! A [`Checkpointer`] wraps a [`MultiEngine`] host and, given a period of
//! `n` ingested items, periodically serializes the host's complete state
//! (via [`MultiEngine::snapshot`]) into a [`CheckpointStore`], alongside an
//! append-only **emission log** recording `(query, kind, match key)` for
//! every output the wrapper has delivered downstream. After a crash,
//! [`Checkpointer::resume`] walks the fallback ladder — newest intact
//! checkpoint, then older ones, then a cold start — and returns the stream
//! position to replay from. During replay the log is a dedup filter:
//! outputs the pre-crash process already delivered are suppressed exactly
//! once each, so the union of pre- and post-crash output is the
//! exactly-once match set — including paired `Insert`/`Retract` items
//! under [`crate::DisorderPolicy::Speculative`].
//!
//! A checkpoint is one sealed envelope: the ingest position, the log's
//! high-water mark, an opaque caller-defined **header**, and the host
//! snapshot. The header is whatever the caller needs to rebuild a fresh
//! host with the same queries registered before the snapshot restores
//! into it (the server persists its query texts and policies there; a
//! caller with a fixed query set leaves it empty).
//!
//! Every artifact (checkpoints, log records, the store file) is wrapped in
//! the checksummed envelope from [`sequin_types::codec`]; a corrupted or
//! version-skewed artifact is *detected and rejected*, never silently
//! restored. Without a period the wrapper is a pass-through: no match key
//! is built and no record encoded.

use std::collections::BTreeMap;
use std::path::Path;

use sequin_runtime::{MatchKey, RuntimeStats};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{CodecError, Decode, Encode, Reader, StreamItem, Writer};

use crate::blob::ANOTHER_QUERY;
use crate::output::{OutputItem, OutputKind};
use crate::shared::{MultiEngine, QueryId};

/// What the emission log remembers of a delivered output.
type LogKey = (u64, OutputKind, MatchKey);

fn log_key(qid: QueryId, o: &OutputItem) -> LogKey {
    (qid.index() as u64, o.kind, o.m.key())
}

fn encode_log_record((qid, kind, key): &LogKey) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(*qid);
    kind.encode(&mut w);
    key.encode(&mut w);
    seal_envelope(&w.into_bytes())
}

fn decode_log_record(bytes: &[u8]) -> Result<LogKey, CodecError> {
    let mut r = Reader::new(open_envelope(bytes)?);
    let record = (
        r.get_u64()?,
        OutputKind::decode(&mut r)?,
        MatchKey::decode(&mut r)?,
    );
    r.finish()?;
    Ok(record)
}

/// Durable checkpoint artifacts: the newest [`CheckpointStore::KEEP`]
/// engine checkpoints (oldest first) plus the append-only emission log.
/// Every entry is a sealed, checksummed envelope, so corruption of any
/// single artifact is detected independently of the others.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    checkpoints: Vec<Vec<u8>>,
    log: Vec<Vec<u8>>,
}

impl CheckpointStore {
    /// Checkpoints retained: the latest plus one fallback.
    pub const KEEP: usize = 2;

    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Appends a sealed checkpoint, evicting the oldest beyond
    /// [`CheckpointStore::KEEP`].
    pub fn push_checkpoint(&mut self, bytes: Vec<u8>) {
        self.checkpoints.push(bytes);
        let excess = self.checkpoints.len().saturating_sub(Self::KEEP);
        self.checkpoints.drain(..excess);
    }

    /// Number of retained checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Number of emission-log records.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Appends an emission-log record (a sealed envelope). Public, like
    /// [`CheckpointStore::push_checkpoint`], so tests can assemble stores
    /// in formats this version no longer writes.
    pub fn append_log(&mut self, record: Vec<u8>) {
        self.log.push(record);
    }

    /// Iterates retained checkpoints newest first (the restore fallback
    /// ladder's probe order).
    pub fn checkpoints_newest_first(&self) -> impl Iterator<Item = &[u8]> {
        self.checkpoints.iter().rev().map(Vec::as_slice)
    }

    /// Iterates emission-log records oldest first.
    pub fn log_records(&self) -> impl Iterator<Item = &[u8]> {
        self.log.iter().map(Vec::as_slice)
    }

    /// Mutable access to a retained checkpoint, newest first (index 0 is
    /// the latest). Exists for fault-injection tests that corrupt
    /// checkpoint bytes in place.
    pub fn checkpoint_mut(&mut self, newest_first: usize) -> Option<&mut Vec<u8>> {
        let n = self.checkpoints.len();
        n.checked_sub(newest_first + 1)
            .map(|ix| &mut self.checkpoints[ix])
    }

    /// Serializes the whole store into one sealed envelope. Its first
    /// slot holds [`CheckpointStore::KEEP`]; readers ignore it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(Self::KEEP as u64);
        w.put_u64(self.checkpoints.len() as u64);
        for c in &self.checkpoints {
            w.put_bytes(c);
        }
        w.put_u64(self.log.len() as u64);
        for rec in &self.log {
            w.put_bytes(rec);
        }
        seal_envelope(&w.into_bytes())
    }

    /// Parses a store serialized by [`CheckpointStore::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointStore, CodecError> {
        let payload = open_envelope(bytes)?;
        let mut r = Reader::new(payload);
        r.get_u64()?; // the retention slot
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let mut checkpoints = Vec::with_capacity(n as usize);
        for _ in 0..n {
            checkpoints.push(r.get_bytes()?);
        }
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let mut log = Vec::with_capacity(n as usize);
        for _ in 0..n {
            log.push(r.get_bytes()?);
        }
        r.finish()?;
        Ok(CheckpointStore { checkpoints, log })
    }

    /// Writes the store to `path` whole or not at all: the bytes go to the
    /// sibling `<path>.tmp`, which is then renamed over `path`. A kill
    /// mid-save tears only the temp file, which the next save overwrites.
    /// Not `fsync`ed, so a power loss may still lose the write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a store from `path`; decode failures surface as
    /// `InvalidData` I/O errors.
    pub fn load(path: &Path) -> std::io::Result<CheckpointStore> {
        let bytes = std::fs::read(path)?;
        CheckpointStore::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The store at `path` to resume from, or an empty one when there is
    /// none. A file that cannot be read or fails its checksum also gives
    /// an empty store, plus the reason: every resume cold-starts on it
    /// rather than refusing to run.
    pub fn load_or_empty(path: &Path) -> (CheckpointStore, Option<std::io::Error>) {
        match CheckpointStore::load(path) {
            Ok(store) => (store, None),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (CheckpointStore::new(), None),
            Err(e) => (CheckpointStore::new(), Some(e)),
        }
    }
}

/// Crash-consistent checkpoints and exactly-once replay around a
/// [`MultiEngine`] (see the module docs for the recovery model).
pub struct Checkpointer {
    host: MultiEngine,
    /// Checkpoint whenever this many items were ingested since the last
    /// checkpoint; `None` is volatile: no emission log, no suppression.
    every: Option<u64>,
    store: CheckpointStore,
    /// Written into every checkpoint between the log mark and the
    /// snapshot; [`Checkpointer::resume`] lets the caller read it back.
    header: Vec<u8>,
    /// Stream items ingested so far (the replay cursor).
    position: u64,
    last_ckpt_position: u64,
    /// Multiset of outputs the pre-crash process already delivered that
    /// deterministic replay will regenerate; each is dropped once.
    suppress: BTreeMap<LogKey, u64>,
    /// Checkpoint counters, kept outside the host so they describe *this*
    /// process rather than the restored snapshot.
    extra: RuntimeStats,
    /// The log or the checkpoints changed since [`Checkpointer::take_dirty`].
    dirty: bool,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("position", &self.position)
            .field("checkpoints", &self.store.checkpoint_count())
            .field("log_len", &self.store.log_len())
            .field("pending_suppressions", &self.pending_suppressions())
            .finish()
    }
}

impl Checkpointer {
    /// Wraps `host` with a fresh (empty) store and an empty header,
    /// checkpointing every `every` ingested items (never when `None`).
    pub fn new(host: MultiEngine, every: Option<u64>) -> Checkpointer {
        Checkpointer {
            host,
            every,
            store: CheckpointStore::new(),
            header: Vec::new(),
            position: 0,
            last_ckpt_position: 0,
            suppress: BTreeMap::new(),
            extra: RuntimeStats::default(),
            dirty: false,
        }
    }

    /// Recovers from `store`. Returns the wrapper plus the stream position
    /// to replay from: the caller must re-feed the input suffix starting
    /// at that item index.
    ///
    /// The fallback ladder: for each checkpoint, newest first, `fresh`
    /// reads the checkpoint's header and builds a *new* host with the
    /// checkpointed queries registered, dropped whole if the candidate
    /// fails. The first candidate whose envelope, log mark, header and snapshot all
    /// validate wins; the others are counted in
    /// [`RuntimeStats::checkpoints_rejected`] and skipped; if none
    /// survives, `fresh(None)` builds the cold-start host (replay from
    /// item 0). The emission-log suffix past the accepted checkpoint's
    /// mark then seeds the replay-suppression multiset — a corrupt record
    /// cannot dedup anything and is counted as rejected too. When no
    /// checkpoint is accepted and one was refused as another query's
    /// (under any configuration), the store is that query's: the cold
    /// start drops it whole, counts its log records as rejected, and
    /// suppresses nothing. The caller sets the header for later
    /// checkpoints ([`Checkpointer::header_mut`]).
    ///
    /// # Panics
    ///
    /// If `fresh(None)` fails: a cold host depends on nothing persisted.
    pub fn resume(
        every: Option<u64>,
        mut store: CheckpointStore,
        mut fresh: impl FnMut(Option<&mut Reader<'_>>) -> Result<MultiEngine, CodecError>,
    ) -> (Checkpointer, u64) {
        let mut rejected = 0u64;
        let mut accepted = None;
        let mut foreign = false;
        for ckpt in store.checkpoints_newest_first() {
            match Self::open_checkpoint(ckpt, store.log_len(), &mut fresh) {
                Ok(ok) => {
                    accepted = Some(ok);
                    break;
                }
                Err(e) => {
                    rejected += 1;
                    foreign |= e == ANOTHER_QUERY;
                }
            }
        }
        if accepted.is_none() && foreign {
            // the store is another query's: its log holds outputs this
            // one never delivered, so the cold start drops it whole
            rejected += store.log_len() as u64;
            store = CheckpointStore::new();
        }
        let (position, log_mark, host) =
            accepted.unwrap_or_else(|| (0, 0, fresh(None).expect("cold-start host")));
        let mut suppress: BTreeMap<LogKey, u64> = BTreeMap::new();
        for rec in store.log_records().skip(log_mark) {
            match decode_log_record(rec) {
                Ok(key) => *suppress.entry(key).or_insert(0) += 1,
                Err(_) => rejected += 1,
            }
        }
        let mut ckptr = Checkpointer::new(host, every);
        ckptr.store = store;
        ckptr.position = position;
        ckptr.last_ckpt_position = position;
        ckptr.suppress = suppress;
        ckptr.extra.checkpoints_rejected = rejected;
        (ckptr, position)
    }

    fn open_checkpoint(
        bytes: &[u8],
        log_len: usize,
        fresh: &mut impl FnMut(Option<&mut Reader<'_>>) -> Result<MultiEngine, CodecError>,
    ) -> Result<(u64, usize, MultiEngine), CodecError> {
        let mut r = Reader::new(open_envelope(bytes)?);
        let position = r.get_u64()?;
        let log_mark = r.get_u64()? as usize;
        if log_mark > log_len {
            return Err(CodecError::SnapshotMismatch("emission log length"));
        }
        let mut host = fresh(Some(&mut r))?;
        let len = r.get_len()?;
        let snapshot = r.take(len)?;
        r.finish()?;
        host.restore(snapshot)?;
        Ok((position, log_mark, host))
    }

    /// The opaque header later checkpoints carry (see the module docs),
    /// for the caller to set, or to extend in place when the registered
    /// query set grows.
    pub fn header_mut(&mut self) -> &mut Vec<u8> {
        &mut self.header
    }

    /// Takes a checkpoint immediately (also used by the cadence).
    pub fn checkpoint_now(&mut self) {
        let (mut head, mut tail) = (Writer::new(), Writer::new());
        head.put_u64(self.position);
        head.put_u64(self.store.log_len() as u64);
        tail.put_bytes(&self.host.snapshot());
        let payload = [head.into_bytes(), self.header.clone(), tail.into_bytes()].concat();
        self.store.push_checkpoint(seal_envelope(&payload));
        self.extra.checkpoints_written += 1;
        self.last_ckpt_position = self.position;
        self.dirty = true;
    }

    /// Appends `raw` to `out`, logging newly delivered outputs and
    /// dropping replay duplicates.
    fn filter_and_log(
        &mut self,
        raw: Vec<(QueryId, OutputItem)>,
        out: &mut Vec<(QueryId, OutputItem)>,
    ) {
        if self.every.is_none() {
            out.extend(raw);
            return;
        }
        for (qid, o) in raw {
            let key = log_key(qid, &o);
            if let Some(n) = self.suppress.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.suppress.remove(&key);
                }
                // already delivered before the crash (and already in the
                // log): swallow the replayed copy
                self.extra.replayed_suppressed += 1;
                continue;
            }
            self.store.append_log(encode_log_record(&key));
            self.dirty = true;
            out.push((qid, o));
        }
    }

    /// Ingests one arrival into every query; returns the outputs to
    /// deliver (replay duplicates already swallowed).
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        self.ingest_batch(std::slice::from_ref(item))
    }

    /// Ingests a run of arrivals through [`MultiEngine::ingest_batch`].
    ///
    /// Outputs, log records, and checkpoints are identical to item-by-item
    /// [`Checkpointer::ingest`] calls: the run is split at checkpoint
    /// boundaries so every checkpoint captures the host state at exactly
    /// the position it records, never mid-cadence. A volatile wrapper
    /// passes the run through as one chunk.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let since = self.position - self.last_ckpt_position;
            let take = match self.every {
                Some(n) => (n.saturating_sub(since).max(1) as usize).min(rest.len()),
                None => rest.len(),
            };
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            for raw in self.host.ingest_batch(chunk) {
                self.position += 1;
                self.filter_and_log(raw, &mut out);
            }
            if self
                .every
                .is_some_and(|n| self.position - self.last_ckpt_position >= n)
            {
                self.checkpoint_now();
            }
        }
        out
    }

    /// Flushes every query's held state (end-of-stream) through the same
    /// filter.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        let raw = self.host.finish();
        self.filter_and_log(raw, &mut out);
        out
    }

    /// The wrapped host, for per-query inspection.
    pub fn host(&self) -> &MultiEngine {
        &self.host
    }

    /// The wrapped host, for registering queries.
    pub fn host_mut(&mut self) -> &mut MultiEngine {
        &mut self.host
    }

    /// Aggregate operator counters across every query, plus this process's
    /// checkpoint/recovery counters.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = self.extra;
        for s in self.host.stats() {
            total += s;
        }
        total
    }

    /// The durable artifacts (clone these to simulate a crash surviving
    /// only what was persisted).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Returns whether the store changed since the last call, clearing the
    /// flag — the owner's cue to persist it.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// Stream items ingested so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Replayed-but-not-yet-seen suppressions still outstanding.
    pub fn pending_suppressions(&self) -> usize {
        self.suppress.values().map(|n| *n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::shared::{read_envelope, write_envelope};
    use sequin_query::parse;
    use sequin_types::{Duration, Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};
    use std::sync::Arc;

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "N"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(0))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..60u64 {
            id += 1;
            let ty = match t % 13 {
                5 => "N",
                _ if t % 3 == 0 => "B",
                _ => "A",
            };
            let ts = if t % 5 == 2 { t.saturating_sub(3) } else { t };
            items.push(item(reg, ty, id, ts * 2));
        }
        items
    }

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 8";
    /// With a partition key, and negating `N`...
    const Q_PART: &str = "PATTERN SEQ(A a, !N n, B b) WHERE a.x == b.x WITHIN 8";
    /// ...which is this one's keyed positive slot.
    const Q_NB: &str = "PATTERN SEQ(N n, B b) WHERE n.x == b.x WITHIN 8";

    fn host_of(reg: &TypeRegistry, texts: &[&str]) -> MultiEngine {
        let config = EngineConfig::with_k(Duration::new(10));
        let mut host = MultiEngine::new(config);
        for text in texts {
            host.register(parse(text, reg).unwrap(), config.policy);
        }
        host
    }

    fn fresh(reg: &TypeRegistry) -> MultiEngine {
        host_of(reg, &[Q_AB, Q_PART])
    }

    type Delivery = (usize, bool, Vec<u64>);

    fn net(out: &[(QueryId, OutputItem)]) -> Vec<Delivery> {
        let mut v: Vec<Delivery> = out
            .iter()
            .map(|(q, o)| {
                (
                    q.index(),
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn baseline(reg: &TypeRegistry, items: &[StreamItem]) -> Vec<Delivery> {
        let mut ck = Checkpointer::new(fresh(reg), None);
        let mut out = ck.ingest_batch(items);
        out.extend(ck.finish());
        assert_eq!(ck.store().log_len(), 0, "a volatile wrapper keeps no log");
        assert_eq!(ck.stats().checkpoints_written, 0);
        net(&out)
    }

    #[test]
    fn checkpoints_are_written_every_n_items() {
        let reg = registry();
        let mut ck = Checkpointer::new(fresh(&reg), Some(7));
        ck.ingest_batch(&stream(&reg));
        assert_eq!(ck.stats().checkpoints_written, 60 / 7);
        assert_eq!(ck.store().checkpoint_count(), 2, "keep bound respected");
    }

    #[test]
    fn batches_split_at_checkpoint_boundaries() {
        let reg = registry();
        let items = stream(&reg);
        let fresh = || host_of(&reg, &[Q_AB, Q_PART, Q_NB]);
        let mut per_item = Checkpointer::new(fresh(), Some(10));
        let mut want = Vec::new();
        for item in &items {
            want.extend(per_item.ingest(item));
        }
        want.extend(per_item.finish());
        assert_eq!(per_item.stats().checkpoints_written, 6);

        // ragged batch sizes that straddle the checkpoint cadence
        let mut batched = Checkpointer::new(fresh(), Some(10));
        let mut got = Vec::new();
        let mut rest = &items[..];
        for size in [1usize, 10, 3, 17, 9].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at((*size).min(rest.len()));
            got.extend(batched.ingest_batch(chunk));
            rest = tail;
        }
        got.extend(batched.finish());
        assert_eq!(got, want, "same outputs in the same order");
        assert_eq!(batched.position(), per_item.position());
        assert_eq!(batched.stats().checkpoints_written, 6, "same cadence");
        assert_eq!(
            batched.store().to_bytes(),
            per_item.store().to_bytes(),
            "every checkpoint sits at the position it records"
        );
    }

    #[test]
    fn crash_and_resume_is_exactly_once() {
        let reg = registry();
        let items = stream(&reg);
        let baseline = baseline(&reg, &items);

        // sparse checkpoints guarantee the replay suffix overlaps output
        // that was already delivered before the crash
        let every = Some(25);
        let mut ck = Checkpointer::new(fresh(&reg), every);
        let mut delivered = ck.ingest_batch(&items[..40]);
        assert!(ck.take_dirty() && !ck.take_dirty());
        let saved = ck.store().clone();
        drop(ck); // crash

        let (mut ck, replay_from) = Checkpointer::resume(every, saved, |_| Ok(fresh(&reg)));
        assert_eq!(replay_from, 25);
        delivered.extend(ck.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(ck.finish());
        assert_eq!(net(&delivered), baseline);
        assert!(
            ck.stats().replayed_suppressed > 0,
            "replay overlapped delivered output"
        );
        assert_eq!(
            ck.pending_suppressions(),
            0,
            "every logged output was regenerated"
        );
    }

    /// `ckpt` with the last query's blob truncated: the envelope and every
    /// earlier blob still validate, so a restore fails partway.
    fn half_restorable(ckpt: &[u8]) -> Vec<u8> {
        let mut r = Reader::new(open_envelope(ckpt).unwrap());
        let (position, mark) = (r.get_u64().unwrap(), r.get_u64().unwrap());
        let snapshot = r.get_bytes().unwrap();
        let mut blobs: Vec<Vec<u8>> = read_envelope(&snapshot, 2)
            .unwrap()
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect();
        let keep = blobs[1].len() / 2;
        blobs[1].truncate(keep);
        let mut w = Writer::new();
        w.put_u64(position);
        w.put_u64(mark);
        w.put_bytes(&write_envelope(blobs.into_iter()));
        seal_envelope(&w.into_bytes())
    }

    /// The recovery ladder, one row per way a store can be damaged.
    #[test]
    fn the_ladder() {
        let reg = registry();
        let items = stream(&reg);
        let baseline = baseline(&reg, &items);
        let every = Some(15);
        let mut ck = Checkpointer::new(fresh(&reg), every);
        let pre_crash = ck.ingest_batch(&items[..40]);
        let intact = ck.store().clone();
        assert_eq!(intact.checkpoint_count(), 2, "at items 15 and 30");
        let suffix = intact.log_len() - 30_usize.min(intact.log_len());
        drop(ck);

        struct Row {
            name: &'static str,
            damage: fn(&mut CheckpointStore),
            replay_from: u64,
            rejected: u64,
            /// Whether the log could still dedup everything replayed.
            exactly_once: bool,
            /// Hosts built on the way: one per candidate whose envelope
            /// and log mark validated, plus the cold one if none won.
            built: usize,
        }
        let rows = [
            Row {
                name: "intact",
                damage: |_| {},
                replay_from: 30,
                rejected: 0,
                exactly_once: true,
                built: 1,
            },
            Row {
                name: "empty store",
                damage: |s| *s = CheckpointStore::new(),
                replay_from: 0,
                rejected: 0,
                exactly_once: false, // nothing remembers the deliveries
                built: 1,
            },
            Row {
                name: "newest corrupt: older wins",
                damage: |s| s.checkpoint_mut(0).unwrap()[20] ^= 0x40,
                replay_from: 15,
                rejected: 1,
                exactly_once: true,
                built: 1,
            },
            Row {
                name: "all corrupt: cold start",
                damage: |s| {
                    for ix in 0..s.checkpoint_count() {
                        let bytes = s.checkpoint_mut(ix).unwrap();
                        bytes.truncate(bytes.len() / 2); // truncation, not just bit rot
                    }
                },
                replay_from: 0,
                rejected: 2,
                exactly_once: true,
                built: 1,
            },
            Row {
                name: "log mark past the log: rejected",
                damage: |s| {
                    // keep exactly the records the older checkpoint had seen
                    let mut r = Reader::new(open_envelope(&s.checkpoints[0]).unwrap());
                    r.get_u64().unwrap();
                    s.log.truncate(r.get_u64().unwrap() as usize);
                },
                replay_from: 15,
                rejected: 1,
                exactly_once: false, // the lost records cannot dedup
                built: 1,
            },
            Row {
                name: "corrupt log record: counted, not fatal",
                damage: |s| s.log.last_mut().unwrap()[9] ^= 0x01,
                replay_from: 30,
                rejected: 1,
                exactly_once: false, // that one output is delivered twice
                built: 1,
            },
            Row {
                name: "restore fails partway: nothing of it survives",
                damage: |s| {
                    for ix in 0..s.checkpoint_count() {
                        let bytes = s.checkpoint_mut(ix).unwrap();
                        *bytes = half_restorable(bytes);
                    }
                },
                replay_from: 0,
                rejected: 2,
                exactly_once: true,
                built: 3,
            },
        ];
        assert!(suffix > 0, "the crash left deliveries past the last mark");
        for row in rows {
            let mut saved = intact.clone();
            (row.damage)(&mut saved);
            let (mut built, log_len) = (0, saved.log_len());
            let (mut ck, replay_from) = Checkpointer::resume(every, saved, |_| {
                built += 1;
                Ok(fresh(&reg))
            });
            assert_eq!(replay_from, row.replay_from, "{}", row.name);
            assert_eq!(ck.position(), replay_from, "{}", row.name);
            assert_eq!(
                ck.stats().checkpoints_rejected,
                row.rejected,
                "{}",
                row.name
            );
            assert_eq!(built, row.built, "{}", row.name);
            assert!(ck.pending_suppressions() <= log_len, "{}", row.name);
            if replay_from == 0 {
                // the cold host holds nothing a failed candidate restored
                assert_eq!(ck.host().state_size(), 0, "{}", row.name);
            }
            let mut delivered = pre_crash.clone();
            delivered.extend(ck.ingest_batch(&items[replay_from as usize..]));
            delivered.extend(ck.finish());
            assert_eq!(
                net(&delivered) == baseline,
                row.exactly_once,
                "{}",
                row.name
            );
            if row.exactly_once {
                assert_eq!(ck.pending_suppressions(), 0, "{}", row.name);
            }
        }
    }

    #[test]
    fn store_file_round_trip_and_corruption_detection() {
        let reg = registry();
        let mut ck = Checkpointer::new(fresh(&reg), Some(5));
        ck.ingest_batch(&stream(&reg)[..30]);
        let bytes = ck.store().to_bytes();
        let parsed = CheckpointStore::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.checkpoint_count(), ck.store().checkpoint_count());
        assert_eq!(parsed.log_len(), ck.store().log_len());

        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x01;
        assert!(CheckpointStore::from_bytes(&bad).is_err());
        assert!(CheckpointStore::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn a_default_store_keeps_the_newest_two_checkpoints() {
        let mut store = CheckpointStore::default();
        for c in 1..=3u8 {
            store.push_checkpoint(vec![c]);
        }
        let kept: Vec<&[u8]> = store.checkpoints_newest_first().collect();
        assert_eq!(kept, [&[3u8][..], &[2u8][..]]);
    }

    #[test]
    fn the_retention_slot_is_read_and_ignored() {
        let mut store = CheckpointStore::new();
        store.push_checkpoint(vec![7]);
        store.append_log(vec![9]);
        let bytes = store.to_bytes();
        let payload = open_envelope(&bytes).unwrap();
        assert_eq!(payload[..8], 2u64.to_le_bytes(), "KEEP is written");
        for keep in [0u64, 1, 5] {
            let mut other = payload.to_vec();
            other[..8].copy_from_slice(&keep.to_le_bytes());
            let loaded = CheckpointStore::from_bytes(&seal_envelope(&other)).unwrap();
            assert_eq!(loaded.to_bytes(), bytes, "keep slot {keep}");
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let reg = registry();
        let mut ck = Checkpointer::new(fresh(&reg), Some(5));
        ck.ingest_batch(&stream(&reg)[..30]);
        let saved = ck.store().clone();
        let rejected_all = saved.checkpoint_count() as u64;
        let logged = saved.log_len() as u64;
        assert!(logged > 0, "the run delivered outputs");
        // the same queries under another watermark source: a cold start
        // whose log still suppresses what was delivered
        let reconfigured = || {
            let mut config = EngineConfig::with_k(Duration::new(10));
            config.watermark = crate::WatermarkSource::Both;
            let mut host = MultiEngine::new(config);
            for text in [Q_AB, Q_PART] {
                host.register(parse(text, &reg).unwrap(), config.policy);
            }
            host
        };
        let (ck2, replay_from) =
            Checkpointer::resume(Some(5), saved.clone(), |_| Ok(reconfigured()));
        assert_eq!(replay_from, 0, "no checkpoint accepted");
        assert_eq!(ck2.stats().checkpoints_rejected, rejected_all);
        assert_eq!(ck2.pending_suppressions() as u64, logged);
        // resume into a host evaluating *different* queries
        let other = ["PATTERN SEQ(B b, A a) WITHIN 8", Q_PART];
        let (ck2, replay_from) =
            Checkpointer::resume(Some(5), saved, |_| Ok(host_of(&reg, &other)));
        assert_eq!(replay_from, 0, "no checkpoint accepted");
        // the log is the other queries' too: dropped, not a dedup filter
        assert_eq!(ck2.stats().checkpoints_rejected, rejected_all + logged);
        assert_eq!(ck2.pending_suppressions(), 0);
        assert_eq!(ck2.store().log_len(), 0);
    }
}
