//! The workspace's one record codec: the bounded little-endian reader and
//! the record layouts every binary format shares.
//!
//! The `eventor-evtr/1` container ([`write_evtr`](crate::write_evtr)),
//! `eventor-core`'s `CKPT` checkpoint payload and `eventor-net`'s
//! `eventor-wire/1` frames move the same records. Each format keeps its own
//! framing and maps [`CodecError`] into its own error domain; the layouts
//! and their checks live here once, beside the one hasher
//! [`Fnv64`](crate::Fnv64):
//!
//! ```text
//! event        13 bytes  t f64, x u16, y u16, polarity u8 (1 = positive, 0 = negative)
//! pose         56 bytes  tx ty tz qx qy qz qw, seven f64
//! pose sample  64 bytes  t f64, then a pose
//! ```
//!
//! Everything is little-endian and floats travel as raw bit patterns. A
//! record list is a `u64` count, then the records. A read that runs out of
//! input is [`CodecError::Truncated`]; every other refusal is
//! [`CodecError::Invalid`]: a non-finite timestamp, a polarity byte other
//! than 0 or 1, a rotation that is not unit norm (rotations are rebuilt with
//! [`UnitQuaternion::from_normalized`], which keeps the stored bits), a
//! length that does not fit `usize`, or a declared count the remaining bytes
//! cannot hold, refused before anything is allocated.

#![deny(clippy::cast_possible_truncation)]

use crate::event::{Event, Polarity};
use eventor_geom::{Pose, UnitQuaternion, Vec3};
use std::fmt;

const EVENT_LEN: usize = 13;
/// Bytes of one pose.
pub const POSE_LEN: usize = 56;
const POSE_SAMPLE_LEN: usize = 8 + POSE_LEN;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The input ended inside a field.
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// The bytes are all there but break the layout.
    Invalid {
        /// Human-readable reason, naming the field.
        reason: String,
    },
}

impl CodecError {
    /// An [`Invalid`](Self::Invalid) error.
    pub fn invalid(reason: impl Into<String>) -> Self {
        Self::Invalid {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { what, needed, left } => write!(
                f,
                "truncated while reading {what}: needed {needed} bytes, {left} left"
            ),
            Self::Invalid { reason } => f.write_str(reason),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// names its field (`what`), so an error says what was being read.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.at
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let left = self.remaining();
        if n > left {
            return Err(CodecError::Truncated {
                what,
                needed: n,
                left,
            });
        }
        self.at += n;
        Ok(&self.bytes[self.at - n..self.at])
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        Ok(le(self.take(N, what)?, 0))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        self.array(what).map(u8::from_le_bytes)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// Reads a boolean byte, 0 or 1.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::invalid(format!(
                "{what}: invalid boolean byte {other}"
            ))),
        }
    }

    /// Reads a `u64` length or count as a `usize`.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| CodecError::invalid(format!("{what}: {v} does not fit this host")))
    }

    /// Reads a string: a `u32` byte length, then UTF-8.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)?;
        let len = usize::try_from(len)
            .map_err(|_| CodecError::invalid(format!("{what}: {len} does not fit this host")))?;
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|_| CodecError::invalid(format!("{what} is not valid UTF-8")))
    }

    /// Refuses `count` records of at least `each` bytes that the remaining
    /// bytes cannot hold, before the caller allocates for them.
    pub fn reserve(&self, count: usize, each: usize, what: &'static str) -> Result<(), CodecError> {
        let left = self.remaining();
        if count.checked_mul(each).is_none_or(|bytes| bytes > left) {
            return Err(CodecError::invalid(format!(
                "{what} declares {count} records but only {left} payload bytes remain"
            )));
        }
        Ok(())
    }

    /// Reads a `u64` record count and [`reserve`](Self::reserve)s it.
    pub fn count(&mut self, each: usize, what: &'static str) -> Result<usize, CodecError> {
        let count = self.usize(what)?;
        self.reserve(count, each, what)?;
        Ok(count)
    }

    /// Refuses bytes left after the `what`.
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::invalid(format!(
                "{n} trailing bytes after the {what}"
            ))),
        }
    }

    /// Reads one pose.
    pub fn pose(&mut self, what: &'static str) -> Result<Pose, CodecError> {
        decode_pose(&self.array(what)?)
            .ok_or_else(|| CodecError::invalid(format!("{what}: rotation is not unit norm")))
    }

    /// Reads a count-prefixed list of pose samples.
    pub fn pose_samples(&mut self, what: &'static str) -> Result<Vec<(f64, Pose)>, CodecError> {
        let count = self.count(POSE_SAMPLE_LEN, what)?;
        let (records, _) = self
            .take(count * POSE_SAMPLE_LEN, what)?
            .as_chunks::<POSE_SAMPLE_LEN>();
        let mut samples = Vec::with_capacity(count);
        for (i, record) in records.iter().enumerate() {
            let t = f64::from_le_bytes(le(record, 0));
            if !t.is_finite() {
                return Err(CodecError::invalid(format!(
                    "{what} record {i}: non-finite timestamp"
                )));
            }
            let pose = decode_pose(&le(record, 8)).ok_or_else(|| {
                CodecError::invalid(format!("{what} record {i}: rotation is not unit norm"))
            })?;
            samples.push((t, pose));
        }
        Ok(samples)
    }

    /// Reads a count-prefixed list of event records: one pass, one
    /// allocation for the whole list.
    pub fn events(&mut self, what: &'static str) -> Result<Vec<Event>, CodecError> {
        let count = self.count(EVENT_LEN, what)?;
        let (records, _) = self.take(count * EVENT_LEN, what)?.as_chunks::<EVENT_LEN>();
        let mut events = Vec::with_capacity(count);
        for (i, record) in records.iter().enumerate() {
            let t = f64::from_le_bytes(le(record, 0));
            if !t.is_finite() {
                return Err(CodecError::invalid(format!(
                    "{what} record {i}: non-finite timestamp"
                )));
            }
            let polarity = match record[12] {
                1 => Polarity::Positive,
                0 => Polarity::Negative,
                other => {
                    return Err(CodecError::invalid(format!(
                        "{what} record {i}: invalid polarity byte {other}"
                    )))
                }
            };
            let (x, y) = (le(record, 8), le(record, 10));
            events.push(Event::new(
                t,
                u16::from_le_bytes(x),
                u16::from_le_bytes(y),
                polarity,
            ));
        }
        Ok(events)
    }
}

/// Reads all of `bytes` with `read`, then refuses bytes left after the
/// `what`.
pub fn read_all<'a, T>(
    bytes: &'a [u8],
    what: &'static str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut reader = Reader::new(bytes);
    let value = read(&mut reader)?;
    reader.finish(what)?;
    Ok(value)
}

/// The `N` bytes of `bytes` at `at`.
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N]
        .try_into()
        .expect("callers bound the range")
}

fn decode_pose(record: &[u8; POSE_LEN]) -> Option<Pose> {
    let f = |i: usize| f64::from_le_bytes(le(record, 8 * i));
    let rotation = UnitQuaternion::from_normalized(f(6), f(3), f(4), f(5), 1e-6)?;
    Some(Pose::new(rotation, Vec3::new(f(0), f(1), f(2))))
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string: a `u32` byte length, then its UTF-8 bytes. Panics on
/// a string of 4 GiB or more, which no format can carry.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("a length-prefixed string is under 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends one pose.
pub fn put_pose(out: &mut Vec<u8>, pose: &Pose) {
    let (t, q) = (pose.translation, pose.rotation);
    for v in [t.x, t.y, t.z, q.x, q.y, q.z, q.w] {
        put_f64(out, v);
    }
}

/// Appends a count-prefixed list of pose samples.
pub fn put_pose_samples(out: &mut Vec<u8>, samples: impl ExactSizeIterator<Item = (f64, Pose)>) {
    out.reserve(8 + samples.len() * POSE_SAMPLE_LEN);
    put_u64(out, samples.len() as u64);
    for (t, pose) in samples {
        put_f64(out, t);
        put_pose(out, &pose);
    }
}

/// Appends a count-prefixed list of event records.
pub fn put_events(out: &mut Vec<u8>, events: &[Event]) {
    out.reserve(8 + events.len() * EVENT_LEN);
    put_u64(out, events.len() as u64);
    for e in events {
        put_f64(out, e.t);
        out.extend_from_slice(&e.x.to_le_bytes());
        out.extend_from_slice(&e.y.to_le_bytes());
        out.push(match e.polarity {
            Polarity::Positive => 1,
            Polarity::Negative => 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_records_name_the_field_and_the_record() {
        let mut out = Vec::new();
        let events = [
            Event::new(0.5, 3, 4, Polarity::Positive),
            Event::new(0.625, 239, 65535, Polarity::Negative),
        ];
        put_events(&mut out, &events);
        assert_eq!(Reader::new(&out).events("Events").unwrap(), events);
        let mut bad = out.clone();
        bad[8 + EVENT_LEN + 12] = 2;
        let err = Reader::new(&bad).events("Events").unwrap_err();
        assert_eq!(err.to_string(), "Events record 1: invalid polarity byte 2");
        let mut bad = out.clone();
        bad[8..16].copy_from_slice(&f64::INFINITY.to_le_bytes());
        let err = Reader::new(&bad).events("Events").unwrap_err();
        assert!(err.to_string().contains("record 0: non-finite"), "{err}");

        let mut out = Vec::new();
        put_pose_samples(&mut out, [(0.0, Pose::identity())].into_iter());
        out[64..72].copy_from_slice(&2.0f64.to_le_bytes());
        let err = Reader::new(&out).pose_samples("Poses").unwrap_err();
        assert!(err.to_string().contains("record 0: rotation"), "{err}");
    }

    #[test]
    fn short_reads_are_truncation_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16("head").unwrap(), 0x0201);
        assert_eq!(
            r.u64("nonce"),
            Err(CodecError::Truncated {
                what: "nonce",
                needed: 8,
                left: 1,
            })
        );
        assert_eq!(r.position(), 2);
        let err = read_all(&[0, 0], "flag", |r| r.bool("flag")).unwrap_err();
        assert_eq!(err.to_string(), "1 trailing bytes after the flag");
    }
}
