//! `eventor-evtr/1` — the compact binary record/replay container for event
//! streams and their camera trajectories.
//!
//! The format exists so a scenario run can be **recorded once and replayed
//! bit-identically**: a replayed file feeds the exact same events and poses
//! into the pipeline that the generator produced, so the reconstruction
//! digest of a replay must equal the digest of the original run
//! (`docs/SCENARIOS.md`).
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic        [u8; 4]  = b"EVTR"
//! version      u32      = 1
//! section_count u32
//! reserved     u32      = 0  (writers write zero; readers reject nonzero)
//! section * section_count:
//!     tag          [u8; 4]   (b"TRAJ", b"EVTS" or b"CKPT"; unknown tags rejected)
//!     payload_len  u64       (bytes)
//!     payload      [u8; payload_len]
//! checksum     u64      FNV-1a 64 over every preceding byte of the file
//! ```
//!
//! Section payloads:
//!
//! * `TRAJ` — `count: u64`, then `count` samples of
//!   `t tx ty tz qx qy qz qw`, eight `f64` bit patterns (64 bytes each).
//! * `EVTS` — `count: u64`, then `count` events of
//!   `t: f64, x: u16, y: u16, polarity: u8` (13 bytes each, packed).
//!
//!   Both are the shared record layouts of [`crate::codec`], which reads
//!   and writes them for this container, the checkpoint payload and the
//!   wire protocol alike.
//! * `CKPT` — `version: u32` ([`CKPT_VERSION`]), then an opaque checkpoint
//!   payload (a mid-flight session snapshot, encoded by `eventor-core`).
//!   A checkpoint container holds exactly this one section
//!   ([`write_ckpt`] / [`read_ckpt`]); a record container holds exactly
//!   `TRAJ` + `EVTS`. The two uses never mix: a reader presented with the
//!   wrong kind reports a typed error naming the other workflow.
//!
//! The reader rejects truncated files, bad magic, unsupported versions
//! (recorder/replayer version skew), nonzero reserved header bytes, unknown
//! sections, length overruns and checksum mismatches with
//! [`EventError::InvalidRecord`], and re-validates the decoded stream and
//! trajectory orderings through the normal constructors.

use crate::codec::{self, put_events, put_pose_samples, CodecError, Reader};
use crate::fnv::fnv1a_64;
use crate::stream::EventStream;
use crate::EventError;
use eventor_geom::Trajectory;
use std::io::{Read, Write};

/// Magic bytes opening every `.evtr` file.
pub const EVTR_MAGIC: [u8; 4] = *b"EVTR";

/// Format version written by [`write_evtr`] and accepted by [`read_evtr`].
pub const EVTR_VERSION: u32 = 1;

/// Version prefix of the `CKPT` section payload written by [`write_ckpt`]
/// and accepted by [`read_ckpt`]. Versioned independently of the container
/// so the checkpoint payload can evolve without a container-version bump.
pub const CKPT_VERSION: u32 = 1;

const TAG_TRAJ: [u8; 4] = *b"TRAJ";
const TAG_EVTS: [u8; 4] = *b"EVTS";
const TAG_CKPT: [u8; 4] = *b"CKPT";

fn corrupt(reason: impl Into<String>) -> EventError {
    EventError::InvalidRecord {
        reason: reason.into(),
    }
}

/// Maps the record codec's error into this container's one error domain.
fn codec_error(e: CodecError) -> EventError {
    corrupt(e.to_string())
}

/// Serializes a recorded run — an event stream plus the trajectory it was
/// captured against — into the `eventor-evtr/1` container.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_evtr<W: Write>(
    stream: &EventStream,
    trajectory: &Trajectory,
    mut writer: W,
) -> std::io::Result<()> {
    let mut traj = Vec::new();
    put_pose_samples(&mut traj, trajectory.iter().map(|s| (s.timestamp, s.pose)));
    let mut evts = Vec::new();
    put_events(&mut evts, stream.as_slice());
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&EVTR_MAGIC);
    bytes.extend_from_slice(&EVTR_VERSION.to_le_bytes());
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    for (tag, payload) in [(TAG_TRAJ, traj), (TAG_EVTS, evts)] {
        bytes.extend_from_slice(&tag);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    let checksum = fnv1a_64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&bytes)
}

fn decode_trajectory(payload: &[u8]) -> Result<Trajectory, EventError> {
    let samples = codec::read_all(payload, "TRAJ section", |r| r.pose_samples("TRAJ section"))
        .map_err(codec_error)?;
    if samples.is_empty() {
        return Ok(Trajectory::new());
    }
    Trajectory::from_samples(samples)
        .map_err(|e| corrupt(format!("TRAJ section is not strictly time-ordered: {e}")))
}

fn decode_events(payload: &[u8]) -> Result<EventStream, EventError> {
    let events = codec::read_all(payload, "EVTS section", |r| r.events("EVTS section"))
        .map_err(codec_error)?;
    EventStream::from_events(events)
        .map_err(|e| corrupt(format!("EVTS section is not time-ordered: {e}")))
}

/// One decoded container section: its tag and the byte range of its payload
/// within the container body.
struct Section {
    tag: [u8; 4],
    payload: std::ops::Range<usize>,
}

/// Reads a whole `eventor-evtr/1` container and validates everything that is
/// section-agnostic, in a fixed order: minimum length, trailing FNV-1a-64
/// checksum, magic, version, reserved header bytes, per-section length
/// bounds, and absence of trailing bytes. Returns the container bytes plus
/// the section table; the callers ([`read_evtr`], [`read_ckpt`]) interpret
/// the tags.
fn read_sections<R: Read>(mut reader: R) -> Result<(Vec<u8>, Vec<Section>), EventError> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| corrupt(format!("i/o error reading record: {e}")))?;
    if bytes.len() < EVTR_MAGIC.len() + 4 + 4 + 4 + 8 {
        return Err(corrupt(format!(
            "file too short for an evtr header ({} bytes)",
            bytes.len()
        )));
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
    let actual = fnv1a_64(body);
    if declared != actual {
        return Err(corrupt(format!(
            "checksum mismatch: file declares {declared:#018x}, content hashes to {actual:#018x}"
        )));
    }
    let sections =
        codec::read_all(body, "declared sections", section_table).map_err(codec_error)?;
    Ok((bytes, sections))
}

/// Reads the header and the section table of a checksummed container body.
fn section_table(r: &mut Reader<'_>) -> Result<Vec<Section>, CodecError> {
    let magic = r.take(4, "magic")?;
    if magic != EVTR_MAGIC {
        return Err(CodecError::invalid(format!(
            "bad magic {magic:?}, expected \"EVTR\""
        )));
    }
    let version = r.u32("version")?;
    if version != EVTR_VERSION {
        return Err(CodecError::invalid(format!(
            "unsupported evtr version {version} (this reader speaks {EVTR_VERSION})"
        )));
    }
    let section_count = r.u32("section count")?;
    let reserved = r.u32("reserved header bytes")?;
    if reserved != 0 {
        return Err(CodecError::invalid(format!(
            "reserved header bytes must be zero (got {reserved:#010x})"
        )));
    }
    let mut sections = Vec::new();
    for _ in 0..section_count {
        let tag = r.take(4, "section tag")?.try_into().unwrap();
        let len = r.usize("section length")?;
        let start = r.position();
        r.take(len, "section payload")?;
        sections.push(Section {
            tag,
            payload: start..start + len,
        });
    }
    Ok(sections)
}

/// Deserializes an `eventor-evtr/1` container back into the recorded event
/// stream and trajectory.
///
/// # Errors
///
/// Returns [`EventError::InvalidRecord`] for truncated input, bad magic, an
/// unsupported version, unknown or duplicated sections, payload-length
/// mismatches, checksum failures, or decoded data that violates the stream /
/// trajectory ordering invariants. I/O errors from the reader surface as
/// [`EventError::InvalidRecord`] too (the container is read whole). A
/// checkpoint (`CKPT`-bearing) container is rejected with a message pointing
/// at the resume path: a checkpoint is not a replayable record.
pub fn read_evtr<R: Read>(reader: R) -> Result<(EventStream, Trajectory), EventError> {
    let (bytes, sections) = read_sections(reader)?;
    let mut trajectory: Option<Trajectory> = None;
    let mut events: Option<EventStream> = None;
    for section in sections {
        let payload = &bytes[section.payload];
        match section.tag {
            TAG_TRAJ if trajectory.is_none() => trajectory = Some(decode_trajectory(payload)?),
            TAG_EVTS if events.is_none() => events = Some(decode_events(payload)?),
            TAG_TRAJ | TAG_EVTS => {
                return Err(corrupt(format!(
                    "duplicate {:?} section",
                    String::from_utf8_lossy(&section.tag)
                )));
            }
            TAG_CKPT => {
                return Err(corrupt(
                    "CKPT section in a record container: this is a session checkpoint, \
                     not a replayable record (resume it instead)",
                ));
            }
            other => {
                return Err(corrupt(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&other)
                )));
            }
        }
    }
    match (events, trajectory) {
        (Some(e), Some(t)) => Ok((e, t)),
        (None, _) => Err(corrupt("missing EVTS section")),
        (_, None) => Err(corrupt("missing TRAJ section")),
    }
}

/// Serializes an opaque checkpoint payload into an `eventor-evtr/1`
/// container holding exactly one `CKPT` section.
///
/// The section payload is the [`CKPT_VERSION`] word followed by `payload`
/// verbatim; the container carries the usual trailing FNV-1a-64 checksum, so
/// **any** single-byte corruption of a checkpoint file is detected before
/// the payload is interpreted.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_ckpt<W: Write>(payload: &[u8], mut writer: W) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(EVTR_MAGIC.len() + 4 + 4 + 4 + 12 + 4 + payload.len() + 8);
    bytes.extend_from_slice(&EVTR_MAGIC);
    bytes.extend_from_slice(&EVTR_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&TAG_CKPT);
    bytes.extend_from_slice(&(4 + payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    let checksum = fnv1a_64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&bytes)
}

/// Deserializes a checkpoint container written by [`write_ckpt`], returning
/// the opaque checkpoint payload (the bytes after the [`CKPT_VERSION`]
/// word). The payload's own structure is validated by its consumer
/// (`eventor-core`'s `SessionCheckpoint::decode`).
///
/// # Errors
///
/// Returns [`EventError::InvalidRecord`] for every container-level
/// corruption ([`read_evtr`]'s modes), for a record (`TRAJ`/`EVTS`) container
/// presented as a checkpoint, for anything but exactly one `CKPT` section,
/// and for an unsupported checkpoint payload version.
pub fn read_ckpt<R: Read>(reader: R) -> Result<Vec<u8>, EventError> {
    let (bytes, sections) = read_sections(reader)?;
    let mut payload: Option<std::ops::Range<usize>> = None;
    for section in sections {
        match section.tag {
            TAG_CKPT if payload.is_none() => payload = Some(section.payload),
            TAG_CKPT => return Err(corrupt("duplicate \"CKPT\" section")),
            TAG_TRAJ | TAG_EVTS => {
                return Err(corrupt(format!(
                    "{:?} section in a checkpoint container: this is a record/replay \
                     file, not a session checkpoint (replay it instead)",
                    String::from_utf8_lossy(&section.tag)
                )));
            }
            other => {
                return Err(corrupt(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&other)
                )));
            }
        }
    }
    let payload = payload.ok_or_else(|| corrupt("missing CKPT section"))?;
    let body = &bytes[payload];
    let version = Reader::new(body)
        .u32("CKPT version word")
        .map_err(codec_error)?;
    if version != CKPT_VERSION {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version} (this reader speaks {CKPT_VERSION})"
        )));
    }
    Ok(body[4..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Polarity};
    use eventor_geom::{Pose, UnitQuaternion, Vec3};

    fn sample_trajectory() -> Trajectory {
        Trajectory::linear(
            Pose::identity(),
            Pose::new(
                UnitQuaternion::from_euler(0.02, -0.01, 0.3),
                Vec3::new(0.4, -0.1, 0.05),
            ),
            0.0,
            1.0,
            7,
        )
    }

    fn sample_stream() -> EventStream {
        (0..200)
            .map(|i| {
                Event::new(
                    i as f64 * 1e-3,
                    (i * 7 % 240) as u16,
                    (i * 13 % 180) as u16,
                    if i % 3 == 0 {
                        Polarity::Negative
                    } else {
                        Polarity::Positive
                    },
                )
            })
            .collect()
    }

    fn encode(stream: &EventStream, trajectory: &Trajectory) -> Vec<u8> {
        let mut buf = Vec::new();
        write_evtr(stream, trajectory, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_exact() {
        let stream = sample_stream();
        let trajectory = sample_trajectory();
        let bytes = encode(&stream, &trajectory);
        let (s, t) = read_evtr(bytes.as_slice()).unwrap();
        assert_eq!(s, stream);
        assert_eq!(t.len(), trajectory.len());
        for (a, b) in trajectory.iter().zip(t.iter()) {
            // Bit-exact, not approximately equal: the container stores raw
            // f64 bit patterns.
            assert_eq!(a.timestamp.to_bits(), b.timestamp.to_bits());
            assert_eq!(
                a.pose.translation.x.to_bits(),
                b.pose.translation.x.to_bits()
            );
            assert_eq!(a.pose.rotation.w.to_bits(), b.pose.rotation.w.to_bits());
        }
    }

    #[test]
    fn empty_stream_and_trajectory_round_trip() {
        let bytes = encode(&EventStream::new(), &Trajectory::new());
        let (s, t) = read_evtr(bytes.as_slice()).unwrap();
        assert!(s.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_stream(), &sample_trajectory());
        bytes[0] = b'X';
        // Re-seal the checksum so the magic check (not the checksum) fires.
        let n = bytes.len();
        let fixed = fnv1a_64(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&fixed);
        let err = read_evtr(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = encode(&sample_stream(), &sample_trajectory());
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        let n = bytes.len();
        let fixed = fnv1a_64(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&fixed);
        let err = read_evtr(bytes.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported evtr version"),
            "{err}"
        );
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = encode(&sample_stream(), &sample_trajectory());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = read_evtr(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = encode(&sample_stream(), &sample_trajectory());
        // Every proper prefix must fail: either too short for the header or
        // a checksum/length mismatch. Step through a spread of lengths.
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            assert!(
                read_evtr(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn absurd_declared_counts_are_rejected_not_panicked() {
        // A record whose TRAJ section is 8 bytes long but declares 2^58
        // samples: `8 + count * 64` would wrap in release mode and pass a
        // naive length check, then abort on Vec::with_capacity. The FNV
        // checksum is unkeyed (anyone can reseal it), so the parser itself
        // must reject this with InvalidRecord.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&EVTR_MAGIC);
        bytes.extend_from_slice(&EVTR_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"TRAJ");
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 58).to_le_bytes());
        let checksum = fnv1a_64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let err = read_evtr(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("payload bytes"), "{err}");
    }

    #[test]
    fn ckpt_round_trip_is_exact() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut buf = Vec::new();
        write_ckpt(&payload, &mut buf).unwrap();
        assert_eq!(read_ckpt(buf.as_slice()).unwrap(), payload);
        // Empty payloads are legal too.
        let mut buf = Vec::new();
        write_ckpt(&[], &mut buf).unwrap();
        assert!(read_ckpt(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn ckpt_flipped_byte_fails_the_checksum() {
        let mut buf = Vec::new();
        write_ckpt(b"some checkpoint payload", &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let err = read_ckpt(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn record_reader_rejects_checkpoints_and_vice_versa() {
        let mut ckpt = Vec::new();
        write_ckpt(b"payload", &mut ckpt).unwrap();
        let err = read_evtr(ckpt.as_slice()).unwrap_err();
        assert!(err.to_string().contains("CKPT section"), "{err}");
        assert!(err.to_string().contains("resume"), "{err}");

        let record = encode(&sample_stream(), &sample_trajectory());
        let err = read_ckpt(record.as_slice()).unwrap_err();
        assert!(err.to_string().contains("record/replay"), "{err}");
        assert!(err.to_string().contains("replay it instead"), "{err}");
    }

    #[test]
    fn ckpt_version_skew_is_rejected() {
        let mut buf = Vec::new();
        write_ckpt(b"payload", &mut buf).unwrap();
        // The CKPT payload version word sits right after the section header
        // (magic 4 + version 4 + count 4 + reserved 4 + tag 4 + len 8 = 28).
        buf[28..32].copy_from_slice(&7u32.to_le_bytes());
        let n = buf.len();
        let fixed = fnv1a_64(&buf[..n - 8]).to_le_bytes();
        buf[n - 8..].copy_from_slice(&fixed);
        let err = read_ckpt(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint version"),
            "{err}"
        );
    }

    #[test]
    fn ckpt_truncation_is_rejected_at_every_length() {
        let mut buf = Vec::new();
        write_ckpt(&[0xAB; 257], &mut buf).unwrap();
        for cut in (0..buf.len()).step_by(13).chain([buf.len() - 1]) {
            assert!(
                read_ckpt(&buf[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn nonzero_reserved_bytes_are_rejected() {
        let mut bytes = encode(&sample_stream(), &sample_trajectory());
        bytes[12..16].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        // Re-seal the checksum so the reserved check (not the checksum) fires.
        let n = bytes.len();
        let fixed = fnv1a_64(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&fixed);
        let err = read_evtr(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("reserved header bytes"), "{err}");
    }
}
