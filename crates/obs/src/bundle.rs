//! Postmortem flight-recorder bundles.
//!
//! A [`Bundle`] is a self-contained capture taken at the moment something
//! went wrong — a sim mismatch or a crash-recovery fallback. It packages
//! the trace-ring lineage slice, a rendered metrics
//! snapshot, a human-readable config description, and machine-readable
//! replay parameters (seed, case index, sabotage knobs,
//! replay cursor) so the failure can be re-driven and rendered later with
//! `sequin trace --bundle <path>` — on a different machine, with nothing
//! but the file.
//!
//! The encoding is deliberately boring: a fixed magic + version header,
//! length-prefixed fields, and a trailing FNV-1a checksum over everything
//! before it. Like the rest of this crate it depends on nothing, records
//! only logical quantities, and therefore round-trips byte-identically
//! for a fixed-seed capture.

use crate::trace::{Span, SpanKind};

/// File magic: "SQPM" (sequin postmortem).
pub const BUNDLE_MAGIC: [u8; 4] = *b"SQPM";
/// Bundle format version.
pub const BUNDLE_VERSION: u32 = 1;

/// A self-contained postmortem capture.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bundle {
    /// Why the capture was taken (e.g. `sim-mismatch`,
    /// `recovery-fallback`).
    pub reason: String,
    /// Human-readable description of the configuration under which the
    /// failure occurred (query texts, policy, backend).
    pub config: String,
    /// Machine-readable replay parameters, in insertion order: `seed`,
    /// `case`, sabotage knobs, `cursor` (events ingested at
    /// capture), … Whatever the capturing site needs to re-drive the run.
    pub params: Vec<(String, u64)>,
    /// Rendered JSON metrics snapshot at capture time.
    pub metrics_json: String,
    /// The lineage slice: the trace ring's spans at capture, oldest first.
    pub spans: Vec<Span>,
    /// Total spans the ring had recorded (held + evicted).
    pub recorded: u64,
    /// Spans the ring had evicted before capture.
    pub dropped: u64,
}

/// FNV-1a 64-bit over `bytes` (local copy: this crate depends on nothing).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn span_kind_tag(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::Ingest => 0,
        SpanKind::Route => 1,
        SpanKind::StackInsert => 2,
        SpanKind::Construct => 3,
        SpanKind::Negate => 4,
        SpanKind::Emit => 5,
        SpanKind::Purge => 6,
        SpanKind::Seal => 7,
        SpanKind::Retract => 8,
    }
}

fn span_kind_from_tag(tag: u8) -> Result<SpanKind, String> {
    Ok(match tag {
        0 => SpanKind::Ingest,
        1 => SpanKind::Route,
        2 => SpanKind::StackInsert,
        3 => SpanKind::Construct,
        4 => SpanKind::Negate,
        5 => SpanKind::Emit,
        6 => SpanKind::Purge,
        7 => SpanKind::Seal,
        8 => SpanKind::Retract,
        _ => return Err(format!("bundle: unknown span kind tag {tag}")),
    })
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    put_u64(out, ids.len() as u64);
    for &id in ids {
        put_u64(out, id);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("bundle: truncated".to_string());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| "bundle: length overflow".to_string())?;
        if self.buf.len() - self.pos < n {
            return Err("bundle: truncated".to_string());
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| "bundle: invalid utf-8".to_string())
    }

    fn ids(&mut self) -> Result<Vec<u64>, String> {
        let n = self.u64()? as usize;
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| "bundle: length overflow".to_string())?;
        if self.buf.len() - self.pos < bytes {
            return Err("bundle: truncated".to_string());
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }
}

impl Bundle {
    /// Encodes the bundle: magic, version, fields, trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&BUNDLE_MAGIC);
        out.extend_from_slice(&BUNDLE_VERSION.to_le_bytes());
        put_str(&mut out, &self.reason);
        put_str(&mut out, &self.config);
        put_u64(&mut out, self.params.len() as u64);
        for (k, v) in &self.params {
            put_str(&mut out, k);
            put_u64(&mut out, *v);
        }
        put_str(&mut out, &self.metrics_json);
        put_u64(&mut out, self.recorded);
        put_u64(&mut out, self.dropped);
        put_u64(&mut out, self.spans.len() as u64);
        for s in &self.spans {
            out.push(span_kind_tag(s.kind));
            put_u64(&mut out, s.seq);
            put_u64(&mut out, s.query);
            put_u64(&mut out, s.count);
            put_u64(&mut out, s.clock);
            put_u64(&mut out, s.watermark);
            put_u64(&mut out, s.held);
            put_u64(&mut out, s.pid);
            put_u64(&mut out, s.cause);
            put_u64(&mut out, s.bound);
            put_ids(&mut out, &s.events);
            put_ids(&mut out, &s.arrivals);
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a bundle, verifying magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Bundle, String> {
        if bytes.len() < 4 + 4 + 8 {
            return Err("bundle: too short".to_string());
        }
        if bytes[..4] != BUNDLE_MAGIC {
            return Err("bundle: bad magic".to_string());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().unwrap());
        let got = fnv1a64(body);
        if want != got {
            return Err(format!(
                "bundle: checksum mismatch (file {want:#018x}, computed {got:#018x})"
            ));
        }
        let mut r = Reader { buf: body, pos: 4 };
        let version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
        if version != BUNDLE_VERSION {
            return Err(format!("bundle: unsupported version {version}"));
        }
        let reason = r.str()?;
        let config = r.str()?;
        let n_params = r.u64()? as usize;
        let mut params = Vec::with_capacity(n_params.min(1024));
        for _ in 0..n_params {
            let k = r.str()?;
            let v = r.u64()?;
            params.push((k, v));
        }
        let metrics_json = r.str()?;
        let recorded = r.u64()?;
        let dropped = r.u64()?;
        let n_spans = r.u64()? as usize;
        let mut spans = Vec::with_capacity(n_spans.min(65536));
        for _ in 0..n_spans {
            let kind = span_kind_from_tag(r.take(1)?[0])?;
            let seq = r.u64()?;
            let query = r.u64()?;
            let count = r.u64()?;
            let clock = r.u64()?;
            let watermark = r.u64()?;
            let held = r.u64()?;
            let pid = r.u64()?;
            let cause = r.u64()?;
            let bound = r.u64()?;
            let events = r.ids()?;
            let arrivals = r.ids()?;
            spans.push(Span {
                seq,
                kind,
                query,
                count,
                clock,
                watermark,
                events,
                held,
                pid,
                cause,
                bound,
                arrivals,
            });
        }
        if r.pos != body.len() {
            return Err("bundle: trailing bytes".to_string());
        }
        Ok(Bundle {
            reason,
            config,
            params,
            metrics_json,
            spans,
            recorded,
            dropped,
        })
    }

    /// Looks up a replay parameter by name.
    pub fn param(&self, name: &str) -> Option<u64> {
        self.params.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bundle {
        Bundle {
            reason: "sim-mismatch".to_string(),
            config: "SEQ(A a, B b) policy=speculative".to_string(),
            params: vec![
                ("seed".to_string(), 0xC0FFEE),
                ("case".to_string(), 17),
                ("purge_skew".to_string(), 2),
                ("cursor".to_string(), 421),
            ],
            metrics_json: "{\"series\":[]}".to_string(),
            spans: vec![Span {
                seq: 40,
                kind: SpanKind::Retract,
                query: 1,
                count: 1,
                clock: 99,
                watermark: 80,
                events: vec![5, 9],
                held: 3,
                pid: 0xDEAD_BEEF,
                cause: 11,
                bound: 0,
                arrivals: vec![2, 8],
            }],
            recorded: 41,
            dropped: 0,
        }
    }

    #[test]
    fn bundle_round_trips() {
        let b = sample();
        let bytes = b.encode();
        let back = Bundle::decode(&bytes).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.param("seed"), Some(0xC0FFEE));
        assert_eq!(back.param("missing"), None);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn corruption_is_rejected() {
        let bytes = sample().encode();
        // Truncations never panic and never decode.
        for cut in 0..bytes.len() {
            assert!(Bundle::decode(&bytes[..cut]).is_err());
        }
        // Any single bit flip fails the checksum (or a structural check).
        for byte_ix in 0..bytes.len() {
            let mut c = bytes.clone();
            c[byte_ix] ^= 0x01;
            assert!(
                Bundle::decode(&c).is_err(),
                "flip at byte {byte_ix} decoded"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(Bundle::decode(&bytes).unwrap_err().contains("magic"));
        let b = sample();
        let mut raw = b.encode();
        // Rewrite version then re-checksum to isolate the version check.
        raw[4] = 0xFF;
        let body_len = raw.len() - 8;
        let sum = super::fnv1a64(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(Bundle::decode(&raw).unwrap_err().contains("version"));
    }
}
