//! Postmortem bundles on the shared codec.
//!
//! A [`Bundle`] (the flight recorder's capture, a plain data type in
//! `sequin-obs`) is stored as one sealed envelope from
//! [`sequin_types::codec`], like every frame and store: any truncation or
//! bit flip is rejected before a field is read. The payload starts with
//! the [`BUNDLE_MARK`] and [`BUNDLE_VERSION`], then the fields in
//! declaration order: strings and id lists length-prefixed, each span's
//! kind as its [`SpanKind`] tag. The first bundles were a format of their
//! own (`SQPM`, version 1, an FNV-1a trailer); they are refused, not read.

use std::io;
use std::path::{Path, PathBuf};

use sequin_obs::{Bundle, Span, SpanKind};
use sequin_types::codec::open_envelope;
use sequin_types::{CodecError, Decode, Encode, Reader, Writer};

/// The first payload bytes of a bundle: "SQPM" (sequin postmortem).
pub const BUNDLE_MARK: [u8; 4] = *b"SQPM";
/// The bundle payload layout this build writes and reads.
pub const BUNDLE_VERSION: u16 = 2;

/// Seals `bundle` into its envelope.
pub fn encode_bundle(bundle: &Bundle) -> Vec<u8> {
    let mut w = Writer::new();
    let envelope = w.begin_envelope();
    BUNDLE_MARK.iter().for_each(|b| w.put_u8(*b));
    w.put_u16(BUNDLE_VERSION);
    w.put_str(&bundle.reason);
    w.put_str(&bundle.config);
    w.put_u64(bundle.params.len() as u64);
    for (name, value) in &bundle.params {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_str(&bundle.metrics_json);
    w.put_u64(bundle.recorded);
    w.put_u64(bundle.dropped);
    w.put_u64(bundle.spans.len() as u64);
    for s in &bundle.spans {
        w.put_u8(s.kind as u8);
        w.put_u64(s.seq);
        w.put_u64(s.query);
        w.put_u64(s.count);
        w.put_u64(s.clock);
        w.put_u64(s.watermark);
        w.put_u64(s.held);
        w.put_u64(s.pid);
        w.put_u64(s.cause);
        w.put_u64(s.bound);
        s.events.encode(&mut w);
        s.arrivals.encode(&mut w);
    }
    w.finish_envelope(envelope);
    w.into_bytes()
}

/// Opens a bundle's envelope and decodes it. Everything that is not an
/// intact version-2 bundle — a torn or flipped file, a version-1 bundle,
/// another artifact's envelope — is a typed rejection.
pub fn decode_bundle(bytes: &[u8]) -> Result<Bundle, CodecError> {
    let mut r = Reader::new(open_envelope(bytes)?);
    if r.take(4)? != BUNDLE_MARK {
        return Err(CodecError::BadMagic);
    }
    match r.get_u16()? {
        BUNDLE_VERSION => {}
        v => return Err(CodecError::UnsupportedVersion(v)),
    }
    let reason = r.get_str()?;
    let config = r.get_str()?;
    let mut params = Vec::new();
    for _ in 0..r.get_len()? {
        params.push((r.get_str()?, r.get_u64()?));
    }
    let metrics_json = r.get_str()?;
    let recorded = r.get_u64()?;
    let dropped = r.get_u64()?;
    let mut spans = Vec::new();
    for _ in 0..r.get_len()? {
        spans.push(Span {
            kind: r.get_tag(&SpanKind::ALL, "SpanKind")?,
            seq: r.get_u64()?,
            query: r.get_u64()?,
            count: r.get_u64()?,
            clock: r.get_u64()?,
            watermark: r.get_u64()?,
            held: r.get_u64()?,
            pid: r.get_u64()?,
            cause: r.get_u64()?,
            bound: r.get_u64()?,
            events: Vec::decode(&mut r)?,
            arrivals: Vec::decode(&mut r)?,
        });
    }
    r.finish()?;
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

/// Writes `bundle`'s envelope to `dir/name`, creating `dir`; returns the
/// file's path.
pub fn write_bundle(dir: &Path, name: &str, bundle: &Bundle) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, encode_bundle(bundle))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_types::codec::seal_envelope;

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
        let back = decode_bundle(&encode_bundle(&b)).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.param("seed"), Some(0xC0FFEE));
        assert_eq!(back.param("missing"), None);
        // every span kind survives, by its tag
        let mut all = sample();
        all.spans = SpanKind::ALL
            .iter()
            .map(|&kind| Span {
                kind,
                ..all.spans[0].clone()
            })
            .collect();
        assert_eq!(decode_bundle(&encode_bundle(&all)).unwrap(), all);
        for (tag, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, tag, "{kind:?}");
        }
    }

    #[test]
    fn bundle_encoding_is_deterministic() {
        assert_eq!(encode_bundle(&sample()), encode_bundle(&sample()));
    }

    #[test]
    fn bundle_corruption_is_rejected() {
        let bytes = encode_bundle(&sample());
        // truncations never panic and never decode
        for cut in 0..bytes.len() {
            assert!(decode_bundle(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // any single bit flip fails the checksum (or a structural check)
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[byte] ^= 1 << bit;
                assert!(decode_bundle(&c).is_err(), "flip at byte {byte} bit {bit}");
            }
        }
    }

    /// Seals `sample()`'s payload with its mark or version rewritten, so
    /// only that check can refuse it.
    fn resealed(at: usize, byte: u8) -> Vec<u8> {
        let mut payload = open_envelope(&encode_bundle(&sample())).unwrap().to_vec();
        payload[at] = byte;
        seal_envelope(&payload)
    }

    #[test]
    fn a_bad_mark_version_or_artifact_is_a_coded_error() {
        assert_eq!(decode_bundle(&resealed(0, b'X')), Err(CodecError::BadMagic));
        assert_eq!(
            decode_bundle(&resealed(4, 1)),
            Err(CodecError::UnsupportedVersion(1))
        );
        assert_eq!(
            decode_bundle(&resealed(4, 3)),
            Err(CodecError::UnsupportedVersion(3))
        );
        // a store's envelope opens, but its payload is not a bundle
        let store = sequin_engine::CheckpointStore::new().to_bytes();
        assert_eq!(decode_bundle(&store), Err(CodecError::BadMagic));
        // an unknown span kind is refused by name
        let mut payload = open_envelope(&encode_bundle(&sample())).unwrap().to_vec();
        let kind_at = payload.len() - 9 * 8 - 2 * 24 - 1;
        assert_eq!(payload[kind_at], SpanKind::Retract as u8);
        payload[kind_at] = SpanKind::ALL.len() as u8;
        assert!(matches!(
            decode_bundle(&seal_envelope(&payload)),
            Err(CodecError::InvalidTag {
                what: "SpanKind",
                ..
            })
        ));
    }

    /// The first bundle format — `SQPM`, version 1, an FNV-1a trailer, as
    /// `tests/fixtures/v1.sqpm` holds it — is refused, not misread.
    #[test]
    fn a_v1_bundle_is_refused() {
        let v1 = include_bytes!("../../../tests/fixtures/v1.sqpm");
        assert_eq!(&v1[..4], b"SQPM");
        assert_eq!(decode_bundle(v1), Err(CodecError::BadMagic));
    }
}
