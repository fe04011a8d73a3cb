//! Hand-rolled, versioned, checksummed binary codec for checkpoints.
//!
//! The workspace must stay offline-buildable, so checkpoint serialization
//! cannot pull in `serde`/`bincode`. This module provides the small amount
//! of machinery the checkpoint subsystem actually needs:
//!
//! * [`Writer`] / [`Reader`] — little-endian primitive encoding with
//!   length-prefixed strings and sequences;
//! * [`Encode`] / [`Decode`] — implemented for the core data model
//!   ([`Value`], [`Event`], timestamps, ids, `Vec<T>`, `Option<T>`), and
//!   by the runtime/engine crates for their stateful structures;
//! * a checksummed **envelope** ([`seal_envelope`] / [`open_envelope`]):
//!   `magic ‖ version ‖ payload-length ‖ payload ‖ checksum`, the
//!   checksum taken over everything before it — any truncation or bit
//!   flip is detected before a single payload byte is interpreted, so a
//!   corrupted checkpoint is *rejected*, never restored into silently
//!   wrong state.
//!
//! ## Versioning
//!
//! [`CODEC_VERSION`] is bumped on any envelope or layout change, and it is
//! the only version written. Version 2 sums the envelope a word at a time
//! (`sum64`); version 1, whose payload layouts are the same, summed it a
//! byte at a time ([`fnv1a64`]) and is still read, so stores written
//! before the bump load. Each sum rejects every 1-bit and 2-bit flip of
//! the envelopes its tests seal and every 3-bit flip within two words.
//! [`open_envelope`] rejects unknown versions and checksum mismatches
//! with a typed [`CodecError`], which the restore path maps onto its
//! fallback ladder (previous good checkpoint, then cold start).

use std::fmt;
use std::sync::Arc;

use crate::event::{Event, EventRef};
use crate::schema::{EventTypeId, FieldId};
use crate::time::{ArrivalSeq, Duration, Timestamp};
use crate::value::Value;

/// The envelope version every writer seals: the `sum64` trailer.
pub const CODEC_VERSION: u16 = 2;

/// The first envelope version, still read: the [`fnv1a64`] trailer.
const FNV_VERSION: u16 = 1;

/// Envelope magic: "SQCK" (sequin checkpoint).
pub const MAGIC: [u8; 4] = *b"SQCK";

/// Envelope bytes before the payload: magic, version, payload length.
const ENVELOPE_HEADER: usize = 4 + 2 + 8;

/// A decoding or envelope-validation failure.
///
/// Every variant is a *rejection*: the bytes are not trusted and no
/// partial state escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-field (truncation).
    UnexpectedEof,
    /// The envelope does not start with [`MAGIC`], or its payload does not
    /// start with the mark of the artifact being decoded.
    BadMagic,
    /// The envelope version is not one this build can read.
    UnsupportedVersion(u16),
    /// The envelope checksum does not match its contents (bit corruption).
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// A discriminant byte was out of range for the type being decoded.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared length exceeds the bytes actually present.
    BadLength,
    /// Bytes were left over after the value was fully decoded.
    TrailingBytes(usize),
    /// The snapshot belongs to a different query/configuration.
    SnapshotMismatch(&'static str),
    /// The operation is not supported by this engine/structure.
    Unsupported(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of checkpoint data"),
            CodecError::BadMagic => write!(f, "bad magic: not a sequin artifact of this kind"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {FNV_VERSION} and {CODEC_VERSION})"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {what}")
            }
            CodecError::BadLength => write!(f, "declared length exceeds available bytes"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            CodecError::SnapshotMismatch(what) => {
                write!(f, "snapshot was taken under a different {what}")
            }
            CodecError::Unsupported(what) => write!(f, "{what} does not support snapshots"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash: schema fingerprints, plan and provenance ids, and
/// the checksum of version-1 envelopes. Not cryptographic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a64`] state over more bytes: `fnv1a64(a ‖ b)` is
/// `fnv1a64_extend(fnv1a64(a), b)`, so a caller hashes what it would
/// encode, piece by piece, without building the encoding.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum of version-2 envelopes: four independent lanes over the
/// bytes' little-endian words (word `i` feeds lane `i % 4`, the last word
/// zero-padded), folded with the byte length. Each step is a bijection of
/// its lane for a fixed word and of the word for a fixed lane, so a change
/// confined to one word always changes the sum. Not cryptographic; it
/// catches truncation and bit rot, not adversaries.
fn sum64(bytes: &[u8]) -> u64 {
    fn step(lane: u64, word: u64) -> u64 {
        let mut x = (lane ^ word).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 29;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 32)
    }
    // murmur3's finalizer
    fn fmix64(mut h: u64) -> u64 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("len 8"));
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        *lane = step(*lane, u64::from_le_bytes(padded));
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |h, &lane| fmix64(h ^ lane))
}

/// Append-only byte sink for encoding.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer that appends to `buf`, keeping what it holds and its
    /// capacity; [`Writer::into_bytes`] hands the buffer back.
    pub fn appending(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob (e.g. a nested envelope).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Opens an envelope in place: appends its header with the payload
    /// length still to come. Everything written between this call and
    /// [`Writer::finish_envelope`] (which takes the returned mark) is the
    /// payload; the bytes from the mark on are then exactly
    /// [`seal_envelope`] of it.
    pub fn begin_envelope(&mut self) -> usize {
        let mark = self.buf.len();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        self.buf.extend_from_slice(&[0u8; 8]);
        mark
    }

    /// Closes the envelope opened at `mark`: patches the payload length
    /// into the header and appends the `sum64` checksum.
    pub fn finish_envelope(&mut self, mark: usize) {
        let payload = mark + ENVELOPE_HEADER;
        let len = (self.buf.len() - payload) as u64;
        self.buf[mark + 6..payload].copy_from_slice(&len.to_le_bytes());
        let sum = sum64(&self.buf[mark..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Cursor over encoded bytes for decoding.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    /// Consumes exactly `n` bytes, borrowing them from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool byte (strict: only 0 or 1 are valid).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }

    /// Reads a tag byte and returns the entry of `all` it indexes: a wire
    /// enum's `ALL` table, which lists the variants in tag order.
    pub fn get_tag<T: Copy>(&mut self, all: &[T], what: &'static str) -> Result<T, CodecError> {
        let tag = self.get_u8()?;
        all.get(usize::from(tag))
            .copied()
            .ok_or(CodecError::InvalidTag { what, tag })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadLength)
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `u64` length prefix, bounds-checked against the remaining
    /// bytes so corrupted lengths cannot trigger huge allocations.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        Ok(len as usize)
    }
}

/// Types that can write themselves to a [`Writer`].
pub trait Encode {
    /// Appends this value's encoding.
    fn encode(&self, w: &mut Writer);
}

/// Types that can reconstruct themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_i64()
    }
}

impl Encode for Timestamp {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.ticks());
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Timestamp::new(r.get_u64()?))
    }
}

impl Encode for Duration {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.ticks());
    }
}

impl Decode for Duration {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Duration::new(r.get_u64()?))
    }
}

impl Encode for ArrivalSeq {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.get());
    }
}

impl Decode for ArrivalSeq {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ArrivalSeq::new(r.get_u64()?))
    }
}

impl Encode for crate::EventId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.get());
    }
}

impl Decode for crate::EventId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::EventId::new(r.get_u64()?))
    }
}

impl Encode for EventTypeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.index() as u32);
    }
}

impl Decode for EventTypeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EventTypeId::from_index(r.get_u32()? as usize))
    }
}

impl Encode for FieldId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.index() as u16);
    }
}

impl Decode for FieldId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(FieldId::from_index(r.get_u16()? as usize))
    }
}

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Int(v) => {
                w.put_u8(0);
                w.put_i64(*v);
            }
            Value::Float(v) => {
                w.put_u8(1);
                w.put_f64(*v);
            }
            Value::Str(s) => {
                w.put_u8(2);
                w.put_str(s);
            }
            Value::Bool(b) => {
                w.put_u8(3);
                w.put_bool(*b);
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Value::Int(r.get_i64()?)),
            1 => Ok(Value::Float(r.get_f64()?)),
            2 => Ok(Value::str(&*r.get_str()?)),
            3 => Ok(Value::Bool(r.get_bool()?)),
            tag => Err(CodecError::InvalidTag { what: "Value", tag }),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_u64()?;
        // every element costs ≥ 1 byte, so a corrupt length is caught
        // before allocation
        if len > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for Event {
    fn encode(&self, w: &mut Writer) {
        self.id().encode(w);
        self.event_type().encode(w);
        self.ts().encode(w);
        self.arrival().encode(w);
        w.put_u64(self.attrs().len() as u64);
        for a in self.attrs() {
            a.encode(w);
        }
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = crate::EventId::decode(r)?;
        let ty = EventTypeId::decode(r)?;
        let ts = Timestamp::decode(r)?;
        let seq = ArrivalSeq::decode(r)?;
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let attrs = crate::event::read_attrs(n as usize, || Value::decode(r))?;
        Ok(Event::decoded(id, ty, ts, seq, attrs))
    }
}

impl Encode for EventRef {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl Decode for EventRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(Event::decode(r)?))
    }
}

/// Wraps an encoded payload in the checksummed, versioned envelope.
pub fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::appending(Vec::with_capacity(ENVELOPE_HEADER + payload.len() + 8));
    let mark = w.begin_envelope();
    w.buf.extend_from_slice(payload);
    w.finish_envelope(mark);
    w.buf
}

/// Validates an envelope and returns its payload slice.
///
/// Rejects (in order): short header, wrong magic, unknown version, a
/// length field that is not the payload's length, and checksum mismatch —
/// `sum64` for [`CODEC_VERSION`], [`fnv1a64`] for version 1. Only after
/// all five checks pass is a single payload byte handed to a decoder.
pub fn open_envelope(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < ENVELOPE_HEADER + 8 {
        return Err(CodecError::UnexpectedEof);
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
    let sum = match version {
        CODEC_VERSION => sum64,
        FNV_VERSION => fnv1a64,
        v => return Err(CodecError::UnsupportedVersion(v)),
    };
    // compared, not added to: no length field can overflow
    let body_end = bytes.len() - 8;
    let len = u64::from_le_bytes(bytes[6..ENVELOPE_HEADER].try_into().expect("len 8"));
    if len != (body_end - ENVELOPE_HEADER) as u64 {
        return Err(CodecError::BadLength);
    }
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("len 8"));
    let computed = sum(&bytes[..body_end]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(&bytes[ENVELOPE_HEADER..body_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event::builder(EventTypeId::from_index(3), Timestamp::new(1234))
            .id(crate::EventId::new(77))
            .attr(Value::Int(-5))
            .attr(Value::Float(2.5))
            .attr(Value::str("hello"))
            .attr(Value::Bool(true))
            .build()
            .with_arrival(ArrivalSeq::new(9))
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(1.5);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn value_variants_round_trip() {
        for v in [
            Value::Int(-1),
            Value::Float(0.25),
            Value::str("x"),
            Value::Bool(false),
        ] {
            let mut w = Writer::new();
            v.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(Value::decode(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn event_round_trips_with_all_bookkeeping() {
        let e = sample_event();
        let mut w = Writer::new();
        e.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Event::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.id(), e.id());
        assert_eq!(back.event_type(), e.event_type());
        assert_eq!(back.ts(), e.ts());
        assert_eq!(back.arrival(), e.arrival());
        assert_eq!(back.attrs(), e.attrs());
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v: Vec<Option<u64>> = vec![Some(1), None, Some(3)];
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = seal_envelope(&w.into_bytes());
        let mut r = Reader::new(open_envelope(&bytes).unwrap());
        let back = Vec::<Option<u64>>::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn envelope_accepts_intact_bytes() {
        let sealed = seal_envelope(b"payload");
        assert_eq!(open_envelope(&sealed).unwrap(), b"payload");
    }

    #[test]
    fn envelope_sealed_in_place_equals_seal_envelope() {
        // behind bytes the buffer already holds, and for an empty payload
        for payload in [&b"payload"[..], &[]] {
            let mut w = Writer::appending(b"earlier".to_vec());
            let mark = w.begin_envelope();
            for b in payload {
                w.put_u8(*b);
            }
            w.finish_envelope(mark);
            let bytes = w.into_bytes();
            assert_eq!(&bytes[..mark], b"earlier");
            assert_eq!(&bytes[mark..], &seal_envelope(payload)[..]);
        }
    }

    /// Seals `payload` as version 1 by hand, per the documented layout:
    /// `"SQCK" ‖ 1u16 ‖ len u64 ‖ payload ‖ fnv1a64(everything before)`.
    fn seal_v1(payload: &[u8]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&1u16.to_le_bytes());
        b.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        b.extend_from_slice(payload);
        let sum = fnv1a64(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    type Seal = fn(&[u8]) -> Vec<u8>;

    /// Both readable versions' sealers: the one every writer uses, and
    /// version 1 by hand.
    const SEALERS: [(&str, Seal); 2] = [("v2", seal_envelope), ("v1", seal_v1)];

    /// A payload of `n` bytes that is not all one value.
    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(37) ^ 0x5a).collect()
    }

    #[test]
    fn a_hand_sealed_v1_envelope_opens_and_writers_seal_v2() {
        assert_eq!(open_envelope(&seal_v1(b"payload")).unwrap(), b"payload");
        assert_eq!(open_envelope(&seal_v1(&[])).unwrap(), b"");
        let sealed = seal_envelope(b"payload");
        assert_eq!(sealed[4..6], CODEC_VERSION.to_le_bytes());
        assert_eq!(CODEC_VERSION, 2);
        // one layout, two trailers
        let mut v1 = seal_v1(b"payload");
        v1[4] = 2;
        assert_eq!(sealed[..sealed.len() - 8], v1[..v1.len() - 8]);
        assert_ne!(sealed[sealed.len() - 8..], v1[v1.len() - 8..]);
    }

    #[test]
    fn envelope_rejects_every_single_bit_flip() {
        for (v, seal) in SEALERS {
            let sealed = seal(b"some checkpoint payload");
            for byte in 0..sealed.len() {
                for bit in 0..8 {
                    let mut bad = sealed.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        open_envelope(&bad).is_err(),
                        "{v}: flip at byte {byte} bit {bit} must be rejected"
                    );
                }
            }
        }
    }

    /// Flips every pair of bits of `sealed`, counting the flips it opens.
    fn two_bit_misses(sealed: &mut [u8]) -> usize {
        let bits = sealed.len() * 8;
        let mut misses = 0;
        for a in 0..bits {
            sealed[a / 8] ^= 1 << (a % 8);
            for b in a + 1..bits {
                sealed[b / 8] ^= 1 << (b % 8);
                misses += usize::from(open_envelope(sealed).is_ok());
                sealed[b / 8] ^= 1 << (b % 8);
            }
            sealed[a / 8] ^= 1 << (a % 8);
        }
        misses
    }

    #[test]
    fn envelope_rejects_every_two_bit_flip() {
        for (v, seal) in SEALERS {
            for n in [64, 168] {
                let mut sealed = seal(&payload(n));
                assert_eq!(two_bit_misses(&mut sealed), 0, "{v}: {n}-byte payload");
            }
        }
    }

    /// Flips every three bits confined to the summed words `w1` and `w2`
    /// (8-byte words from the envelope's start, the checksum excluded),
    /// counting the flips it opens.
    fn three_bit_misses(sealed: &mut [u8], w1: usize, w2: usize) -> usize {
        let body = (sealed.len() - 8) * 8;
        let bits: Vec<usize> = [w1, w2]
            .iter()
            .flat_map(|w| w * 64..((w + 1) * 64).min(body))
            .collect();
        let flip = |s: &mut [u8], bit: usize| s[bit / 8] ^= 1 << (bit % 8);
        let mut misses = 0;
        for (i, &a) in bits.iter().enumerate() {
            flip(sealed, a);
            for (j, &b) in bits.iter().enumerate().skip(i + 1) {
                flip(sealed, b);
                for &c in &bits[j + 1..] {
                    flip(sealed, c);
                    misses += usize::from(open_envelope(sealed).is_ok());
                    flip(sealed, c);
                }
                flip(sealed, b);
            }
            flip(sealed, a);
        }
        misses
    }

    #[test]
    fn envelope_rejects_every_three_bit_flip_within_two_words() {
        for (v, seal) in SEALERS {
            let mut sealed = seal(&payload(64));
            let words = (sealed.len() - 8).div_ceil(8);
            for w1 in 0..words {
                for w2 in w1 + 1..words {
                    let misses = three_bit_misses(&mut sealed, w1, w2);
                    assert_eq!(misses, 0, "{v}: words {w1} and {w2}");
                }
            }
        }
    }

    #[test]
    fn envelope_rejects_every_truncation() {
        for (v, seal) in SEALERS {
            let sealed = seal(b"some checkpoint payload");
            for keep in 0..sealed.len() {
                assert!(
                    open_envelope(&sealed[..keep]).is_err(),
                    "{v}: truncation to {keep} bytes"
                );
            }
        }
    }

    #[test]
    fn envelope_rejects_a_length_field_that_is_not_the_payloads() {
        for (v, seal) in SEALERS {
            let sealed = seal(b"some checkpoint payload");
            let len = (sealed.len() - ENVELOPE_HEADER - 8) as u64;
            for field in [u64::MAX, u64::MAX - 21, 1 << 63, len + 1, len - 1] {
                let mut bad = sealed.clone();
                bad[6..ENVELOPE_HEADER].copy_from_slice(&field.to_le_bytes());
                assert_eq!(
                    open_envelope(&bad),
                    Err(CodecError::BadLength),
                    "{v}: length field {field:#x}"
                );
            }
        }
    }

    #[test]
    fn envelope_rejects_wrong_version_and_magic() {
        for version in [0u16, 3, 0xFF] {
            let mut sealed = seal_envelope(b"x");
            sealed[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                open_envelope(&sealed),
                Err(CodecError::UnsupportedVersion(version))
            );
        }
        let message = CodecError::UnsupportedVersion(3).to_string();
        assert!(message.contains("reads 1 and 2"), "{message}");
        let mut sealed = seal_envelope(b"x");
        sealed[0] = b'Z';
        assert!(matches!(open_envelope(&sealed), Err(CodecError::BadMagic)));
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate() {
        // a Vec<u64> whose length claims more elements than bytes remain
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut r), Err(CodecError::BadLength));
        // same for strings
        let mut w = Writer::new();
        w.put_u64(1 << 40);
        w.put_u8(b'a');
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::BadLength));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = Writer::new();
        42u64.encode(&mut w);
        w.put_u8(0xAA);
        let sealed = seal_envelope(&w.into_bytes());
        let mut r = Reader::new(open_envelope(&sealed).unwrap());
        assert_eq!(u64::decode(&mut r), Ok(42));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn errors_display_distinctly() {
        let errs: Vec<CodecError> = vec![
            CodecError::UnexpectedEof,
            CodecError::BadMagic,
            CodecError::UnsupportedVersion(9),
            CodecError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            CodecError::InvalidTag {
                what: "Value",
                tag: 9,
            },
            CodecError::BadLength,
            CodecError::TrailingBytes(3),
            CodecError::SnapshotMismatch("query"),
            CodecError::Unsupported("in-order engine"),
        ];
        let texts: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        for (i, a) in texts.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &texts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
