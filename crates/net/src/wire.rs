//! The `eventor-wire/1` frame codec: typed frames, a strict decoder, and
//! the [`WireError`] taxonomy every corruption must map onto.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! magic        [u8; 4]  = b"EWIR"
//! version      u32      = 1
//! kind         u16      (frame kind code; unknown codes rejected)
//! reserved     u16      = 0  (writers write zero; readers reject nonzero)
//! session      u64      (wire session id; 0 = connection-level frame)
//! payload_len  u32      (bytes; bounded by the negotiated maximum)
//! payload      [u8; payload_len]
//! checksum     u64      FNV-1a 64 over every preceding byte of the frame
//! ```
//!
//! The layout deliberately follows the `eventor-evtr/1` container
//! conventions (`crates/events/src/evtr.rs`): little-endian integers, a
//! versioned header whose reserved bytes are zero-checked, length-prefixed
//! variable parts, and a trailing shared [`Fnv64`] checksum. Headers and
//! payloads are read with the shared record codec
//! ([`eventor_events::codec`]), which also owns the `Poses` and `Events`
//! record layouts; its errors map onto [`WireError`]. The decoder is
//! *strict*: bad magic, version skew, nonzero reserved bytes, oversized or
//! inexact lengths, checksum mismatches, unknown kinds and malformed
//! payloads each map to a distinct [`WireError`] variant — never a panic,
//! whatever the bytes (`tests/` corruption suite + proptests).

use crate::manifest::SessionManifest;
use eventor_emvs::SessionEvent;
use eventor_events::codec::{put_events, put_pose_samples, put_str, CodecError, Reader};
use eventor_events::{Event, Fnv64};
use eventor_geom::{Pose, Trajectory};

/// Magic bytes opening every `eventor-wire/1` frame.
pub const WIRE_MAGIC: [u8; 4] = *b"EWIR";

/// Protocol version spoken by this codec.
pub const WIRE_VERSION: u32 = 1;

/// Fixed frame-header length in bytes (everything before the payload).
pub const HEADER_LEN: usize = 4 + 4 + 2 + 2 + 8 + 4;

/// Trailing checksum length in bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Default maximum payload a peer accepts, in bytes. Depth-map frames for
/// the corpus camera are ~38 KiB; 16 MiB leaves room for far larger sensors
/// while still bounding a hostile peer's allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Reply codes carried by [`WireFrame::Rejected`] and
/// [`WireFrame::Error`] frames (`docs/WIRE.md` §5).
pub mod code {
    /// The peer's frame failed wire-level validation.
    pub const PROTOCOL: u16 = 1;
    /// Admission named a scenario the server does not know.
    pub const UNKNOWN_SCENARIO: u16 = 2;
    /// Admission carried an unparsable or out-of-range world spec.
    pub const BAD_SPEC: u16 = 3;
    /// Admission reused a wire session id that already exists.
    pub const DUPLICATE_SESSION: u16 = 4;
    /// The frame named a wire session this connection never admitted.
    pub const UNKNOWN_SESSION: u16 = 5;
    /// The frame named a session owned by a different connection. Reserved:
    /// the reference server scopes wire ids per connection, so a foreign id
    /// resolves to [`UNKNOWN_SESSION`] instead; implementations with a
    /// shared namespace use this code.
    pub const NOT_OWNER: u16 = 6;
    /// The session no longer accepts this operation (closed / finished).
    pub const SESSION_CLOSED: u16 = 7;
    /// A session-layer error (out-of-order input, unservable stream, …);
    /// the reason carries the `EmvsError` rendering.
    pub const SESSION: u16 = 8;
    /// Admission used the reserved connection-level session id 0.
    pub const BAD_SESSION_ID: u16 = 9;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u16 = 10;
    /// The server refused the work for capacity reasons: the connection
    /// limit is reached (`Error` at accept time, then close) or admission
    /// control tripped on the engine's queue-depth/utilization metrics
    /// (`Rejected` at `Admit` time; the connection stays usable and the
    /// client may retry later). Never a hang, never silence.
    pub const OVERLOADED: u16 = 11;
}

/// Everything that can go wrong speaking `eventor-wire/1`. Every corruption
/// or protocol violation maps onto exactly one variant; none of them panic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// An operating-system I/O failure (connection reset, refused, …).
    Io {
        /// The failing operation's error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// The peer closed the connection cleanly between frames.
    ConnectionClosed,
    /// The connection ended (or the declared length ran out) mid-frame.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the reader needed.
        expected: usize,
        /// Bytes actually available.
        found: usize,
    },
    /// The frame did not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version the frame declared.
        found: u32,
    },
    /// The reserved header bytes were not zero.
    NonzeroReserved {
        /// The value found.
        found: u16,
    },
    /// The frame kind code is not part of `eventor-wire/1`.
    UnknownKind {
        /// The code found.
        found: u16,
    },
    /// The declared payload length exceeds the negotiated maximum.
    Oversized {
        /// The declared payload length.
        declared: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch {
        /// The checksum the frame declared.
        declared: u64,
        /// What the content actually hashes to.
        actual: u64,
    },
    /// The payload failed its kind-specific grammar.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
    /// The peer replied with a typed rejection or error frame.
    Rejected {
        /// A [`code`] constant.
        code: u16,
        /// Human-readable reason.
        reason: String,
    },
    /// The peer sent a validly-encoded frame that violates the protocol
    /// state machine (e.g. a request where a reply was due).
    UnexpectedFrame {
        /// The frame kind the state machine expected.
        expected: &'static str,
        /// The frame kind that arrived.
        found: &'static str,
    },
    /// The peer stopped sending mid-frame (or a reply never arrived) for
    /// longer than the configured read timeout.
    Timeout {
        /// Whether bytes of a partial frame had already arrived.
        mid_frame: bool,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
            Self::ConnectionClosed => write!(f, "connection closed"),
            Self::Truncated {
                what,
                expected,
                found,
            } => write!(
                f,
                "truncated while reading {what}: needed {expected} bytes, got {found}"
            ),
            Self::BadMagic { found } => {
                write!(f, "bad magic {found:?}, expected \"EWIR\"")
            }
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported wire version {found} (this peer speaks {WIRE_VERSION})"
            ),
            Self::NonzeroReserved { found } => write!(
                f,
                "reserved header bytes must be zero (got {found:#06x})"
            ),
            Self::UnknownKind { found } => write!(f, "unknown frame kind {found:#06x}"),
            Self::Oversized { declared, max } => write!(
                f,
                "declared payload of {declared} bytes exceeds the {max}-byte maximum"
            ),
            Self::ChecksumMismatch { declared, actual } => write!(
                f,
                "checksum mismatch: frame declares {declared:#018x}, content hashes to {actual:#018x}"
            ),
            Self::Malformed { reason } => write!(f, "malformed payload: {reason}"),
            Self::Rejected { code, reason } => {
                write!(f, "peer rejected the request (code {code}): {reason}")
            }
            Self::UnexpectedFrame { expected, found } => {
                write!(f, "expected a {expected} frame, got {found}")
            }
            Self::Timeout { mid_frame } => {
                if *mid_frame {
                    write!(f, "peer stalled mid-frame past the read timeout")
                } else {
                    write!(f, "timed out waiting for a frame")
                }
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// A short read is [`WireError::Truncated`] naming the field; every other
/// record-codec refusal is [`WireError::Malformed`].
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { what, needed, left } => Self::Truncated {
                what,
                expected: needed,
                found: left,
            },
            CodecError::Invalid { reason } => Self::Malformed { reason },
        }
    }
}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

/// One `eventor-wire/1` lifecycle notification — the wire rendering of
/// [`SessionEvent`], with every count widened to `u64` so the encoding is
/// identical on 32- and 64-bit hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSessionEvent {
    /// A key frame's voting segment closed.
    SegmentRetired {
        /// Key-frame index.
        index: u64,
        /// Event frames voted into the segment.
        frames: u64,
        /// Events voted into the segment.
        events: u64,
    },
    /// Structure detection ran on the retired segment's DSI.
    DepthMapReady {
        /// Key-frame index.
        index: u64,
        /// Semi-dense pixels estimated.
        valid_pixels: u64,
    },
    /// The key frame's full reconstruction is available.
    KeyframeReady {
        /// Key-frame index.
        index: u64,
        /// DSI votes cast.
        votes_cast: u64,
        /// Points contributed to the global cloud.
        map_points: u64,
    },
    /// The key frame's cloud was fused into the incremental global map.
    MapFused {
        /// Key-frame index.
        index: u64,
        /// Points inserted.
        points: u64,
        /// Voxels newly occupied.
        new_voxels: u64,
    },
}

impl WireSessionEvent {
    /// The wire rendering of a [`SessionEvent`]. Returns `None` for
    /// lifecycle variants newer than this protocol version (the enum is
    /// non-exhaustive); `eventor-wire/1` drops what it cannot name rather
    /// than guessing.
    pub fn from_session(e: &SessionEvent) -> Option<Self> {
        Some(match *e {
            SessionEvent::SegmentRetired {
                index,
                frames,
                events,
            } => Self::SegmentRetired {
                index: index as u64,
                frames: frames as u64,
                events: events as u64,
            },
            SessionEvent::DepthMapReady {
                index,
                valid_pixels,
            } => Self::DepthMapReady {
                index: index as u64,
                valid_pixels: valid_pixels as u64,
            },
            SessionEvent::KeyframeReady {
                index,
                votes_cast,
                map_points,
            } => Self::KeyframeReady {
                index: index as u64,
                votes_cast,
                map_points: map_points as u64,
            },
            SessionEvent::MapFused {
                index,
                points,
                new_voxels,
            } => Self::MapFused {
                index: index as u64,
                points: points as u64,
                new_voxels: new_voxels as u64,
            },
            _ => return None,
        })
    }
}

/// One streamed depth map: the wire rendering of a retired key frame's
/// reconstruction, carrying the exact `f64` bit patterns so the receiver
/// can recompute the scenario digest bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthMapFrame {
    /// Key-frame index (position in the session's key-frame list).
    pub index: u64,
    /// Depth-map width in pixels.
    pub width: u64,
    /// Depth-map height in pixels.
    pub height: u64,
    /// DSI votes cast for this key frame.
    pub votes_cast: u64,
    /// Raw `f64` bit patterns of every depth sample, row-major.
    pub depths: Vec<u64>,
}

/// The scenario digest recomputed from streamed [`DepthMapFrame`]s — the
/// exact algorithm of `eventor_scenarios::digest_output` (key-frame count,
/// then per key frame its dimensions, vote count and every depth sample's
/// raw bit pattern), so a remote client can verify bit-identity against the
/// committed golden digests without the terminal output in hand.
pub fn digest_of_depth_maps(maps: &[DepthMapFrame]) -> u64 {
    let mut h = Fnv64::new();
    h.update_u64(maps.len() as u64);
    for m in maps {
        h.update_u64(m.width);
        h.update_u64(m.height);
        h.update_u64(m.votes_cast);
        for &bits in &m.depths {
            h.update_u64(bits);
        }
    }
    h.finish()
}

/// Every frame of the `eventor-wire/1` protocol, request and reply sides
/// alike. The session id travels in the frame header, not here — a frame is
/// `(session, WireFrame)` on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    // ---- client → server ----
    /// Connection handshake request.
    Hello,
    /// Session admission: the declarative config manifest. The header's
    /// session id is the **client-chosen** wire id for the new session.
    Admit {
        /// What to serve and on which backend.
        manifest: SessionManifest,
    },
    /// A batch of timestamped pose samples for one session.
    Poses {
        /// `(timestamp, pose)` samples, strictly time-ordered.
        samples: Vec<(f64, Pose)>,
    },
    /// A time-ordered event batch for one session.
    Events {
        /// The events, time-ordered.
        events: Vec<Event>,
    },
    /// Ask the server to pump and return new lifecycle events, new depth
    /// maps and a fresh credit grant for one session.
    Poll,
    /// Declare end-of-stream for one session (no further events).
    Close,
    /// Drain one session to completion and return its terminal summary.
    Finish,
    /// Drop one session's queued input and clear its failure state.
    Discard,
    /// Request the engine-wide `eventor-metrics/1` snapshot.
    Metrics,
    /// Ordered connection shutdown.
    Bye,

    // ---- either direction (keepalive, wire v1.1) ----
    /// Keepalive probe. Direction-neutral: the server pings idle
    /// connections to distinguish idle-but-alive peers from dead ones, and
    /// a client may probe a server the same way. The receiver answers with
    /// a [`Pong`](Self::Pong) echoing the nonce; it is never ignored.
    Ping {
        /// Opaque echo token chosen by the sender.
        nonce: u64,
    },
    /// Keepalive answer: echoes the [`Ping`](Self::Ping) nonce verbatim.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },

    // ---- server → client ----
    /// Handshake accept.
    HelloOk {
        /// Largest payload the server accepts per frame, in bytes.
        max_payload: u32,
        /// Per-session ingest-queue capacity, in events.
        queue_capacity: u64,
    },
    /// The session was admitted.
    Admitted {
        /// Initial flow-control credit grant, in events.
        credits: u64,
    },
    /// The admission was refused (the connection stays usable).
    Rejected {
        /// A [`code`] constant.
        code: u16,
        /// Human-readable reason.
        reason: String,
    },
    /// Generic success reply (poses accepted, session closed, discarded).
    Ok,
    /// Events reply: how many were accepted (short-write semantics — the
    /// excess was **not** buffered) and the remaining credit grant.
    EventsAck {
        /// Events accepted into the session's ingest queue.
        accepted: u64,
        /// Events the client may send before the next ack or poll.
        credits: u64,
    },
    /// New lifecycle notifications since the last poll, in order.
    Lifecycle {
        /// The notifications.
        events: Vec<WireSessionEvent>,
    },
    /// One newly retired depth map.
    DepthMap(DepthMapFrame),
    /// Poll reply terminator, carrying a fresh credit grant.
    PollDone {
        /// Events the client may send before the next ack or poll.
        credits: u64,
    },
    /// Finish reply terminator: the session's terminal summary.
    Finished {
        /// Server-side scenario digest over the session's depth maps.
        digest: u64,
        /// Key frames the session produced.
        keyframes: u64,
        /// Events the session's datapath processed.
        events_processed: u64,
    },
    /// Metrics reply: the byte-reproducible `eventor-metrics/1` document.
    MetricsReply {
        /// The JSON document.
        json: String,
    },
    /// Typed failure reply (the connection stays open unless the error was
    /// a wire-level corruption).
    Error {
        /// A [`code`] constant.
        code: u16,
        /// Human-readable reason.
        reason: String,
    },
    /// Ordered shutdown acknowledgement; the server closes after sending.
    ByeOk,
}

impl WireFrame {
    /// The kind code written into the frame header.
    pub fn kind(&self) -> u16 {
        match self {
            Self::Hello => 0x0001,
            Self::Admit { .. } => 0x0002,
            Self::Poses { .. } => 0x0003,
            Self::Events { .. } => 0x0004,
            Self::Poll => 0x0005,
            Self::Close => 0x0006,
            Self::Finish => 0x0007,
            Self::Discard => 0x0008,
            Self::Metrics => 0x0009,
            Self::Bye => 0x000a,
            Self::Ping { .. } => 0x000b,
            Self::Pong { .. } => 0x000c,
            Self::HelloOk { .. } => 0x8001,
            Self::Admitted { .. } => 0x8002,
            Self::Rejected { .. } => 0x8003,
            Self::Ok => 0x8004,
            Self::EventsAck { .. } => 0x8005,
            Self::Lifecycle { .. } => 0x8006,
            Self::DepthMap(_) => 0x8007,
            Self::PollDone { .. } => 0x8008,
            Self::Finished { .. } => 0x8009,
            Self::MetricsReply { .. } => 0x800a,
            Self::Error { .. } => 0x800b,
            Self::ByeOk => 0x800c,
        }
    }

    /// Human-readable kind name (state-machine diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Hello => "Hello",
            Self::Admit { .. } => "Admit",
            Self::Poses { .. } => "Poses",
            Self::Events { .. } => "Events",
            Self::Poll => "Poll",
            Self::Close => "Close",
            Self::Finish => "Finish",
            Self::Discard => "Discard",
            Self::Metrics => "Metrics",
            Self::Bye => "Bye",
            Self::Ping { .. } => "Ping",
            Self::Pong { .. } => "Pong",
            Self::HelloOk { .. } => "HelloOk",
            Self::Admitted { .. } => "Admitted",
            Self::Rejected { .. } => "Rejected",
            Self::Ok => "Ok",
            Self::EventsAck { .. } => "EventsAck",
            Self::Lifecycle { .. } => "Lifecycle",
            Self::DepthMap(_) => "DepthMap",
            Self::PollDone { .. } => "PollDone",
            Self::Finished { .. } => "Finished",
            Self::MetricsReply { .. } => "MetricsReply",
            Self::Error { .. } => "Error",
            Self::ByeOk => "ByeOk",
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Hello
            | Self::Poll
            | Self::Close
            | Self::Finish
            | Self::Discard
            | Self::Metrics
            | Self::Bye
            | Self::Ok
            | Self::ByeOk => {}
            Self::Admit { manifest } => out = manifest.encode(),
            Self::Poses { samples } => put_pose_samples(&mut out, samples.iter().copied()),
            Self::Events { events } => put_events(&mut out, events),
            Self::HelloOk {
                max_payload,
                queue_capacity,
            } => {
                out.extend_from_slice(&max_payload.to_le_bytes());
                out.extend_from_slice(&queue_capacity.to_le_bytes());
            }
            Self::Admitted { credits } | Self::PollDone { credits } => {
                out.extend_from_slice(&credits.to_le_bytes());
            }
            Self::Ping { nonce } | Self::Pong { nonce } => {
                out.extend_from_slice(&nonce.to_le_bytes());
            }
            Self::Rejected { code, reason } | Self::Error { code, reason } => {
                out.extend_from_slice(&code.to_le_bytes());
                put_str(&mut out, reason);
            }
            Self::EventsAck { accepted, credits } => {
                out.extend_from_slice(&accepted.to_le_bytes());
                out.extend_from_slice(&credits.to_le_bytes());
            }
            Self::Lifecycle { events } => {
                out.extend_from_slice(&(events.len() as u64).to_le_bytes());
                for e in events {
                    let (tag, a, b, c) = match *e {
                        WireSessionEvent::SegmentRetired {
                            index,
                            frames,
                            events,
                        } => (1u8, index, frames, events),
                        WireSessionEvent::DepthMapReady {
                            index,
                            valid_pixels,
                        } => (2, index, valid_pixels, 0),
                        WireSessionEvent::KeyframeReady {
                            index,
                            votes_cast,
                            map_points,
                        } => (3, index, votes_cast, map_points),
                        WireSessionEvent::MapFused {
                            index,
                            points,
                            new_voxels,
                        } => (4, index, points, new_voxels),
                    };
                    out.push(tag);
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&b.to_le_bytes());
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            Self::DepthMap(m) => {
                out.reserve(40 + m.depths.len() * 8);
                out.extend_from_slice(&m.index.to_le_bytes());
                out.extend_from_slice(&m.width.to_le_bytes());
                out.extend_from_slice(&m.height.to_le_bytes());
                out.extend_from_slice(&m.votes_cast.to_le_bytes());
                out.extend_from_slice(&(m.depths.len() as u64).to_le_bytes());
                for &bits in &m.depths {
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }
            Self::Finished {
                digest,
                keyframes,
                events_processed,
            } => {
                out.extend_from_slice(&digest.to_le_bytes());
                out.extend_from_slice(&keyframes.to_le_bytes());
                out.extend_from_slice(&events_processed.to_le_bytes());
            }
            Self::MetricsReply { json } => put_str(&mut out, json),
        }
        out
    }
}

/// Serializes one frame — header, payload, trailing checksum — into its
/// exact wire bytes.
pub fn encode_frame(session: u64, frame: &WireFrame) -> Vec<u8> {
    let payload = frame.encode_payload();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&frame.kind().to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = {
        let mut h = Fnv64::new();
        h.update(&out);
        h.finish()
    };
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn decode_payload(kind: u16, payload: &[u8]) -> Result<WireFrame, WireError> {
    let empty = |frame: WireFrame| -> Result<WireFrame, WireError> {
        if payload.is_empty() {
            Ok(frame)
        } else {
            Err(malformed(format!(
                "{} frames carry no payload (got {} bytes)",
                frame.kind_name(),
                payload.len()
            )))
        }
    };
    let mut c = Reader::new(payload);
    match kind {
        0x0001 => empty(WireFrame::Hello),
        0x0002 => {
            let manifest = SessionManifest::decode(payload)?;
            Ok(WireFrame::Admit { manifest })
        }
        0x0003 => {
            let samples = c.pose_samples("Poses")?;
            c.finish("Poses payload")?;
            Ok(WireFrame::Poses { samples })
        }
        0x0004 => {
            let events = c.events("Events")?;
            c.finish("Events payload")?;
            Ok(WireFrame::Events { events })
        }
        0x0005 => empty(WireFrame::Poll),
        0x0006 => empty(WireFrame::Close),
        0x0007 => empty(WireFrame::Finish),
        0x0008 => empty(WireFrame::Discard),
        0x0009 => empty(WireFrame::Metrics),
        0x000a => empty(WireFrame::Bye),
        0x000b | 0x000c => {
            let nonce = c.u64("keepalive nonce")?;
            c.finish("keepalive payload")?;
            Ok(if kind == 0x000b {
                WireFrame::Ping { nonce }
            } else {
                WireFrame::Pong { nonce }
            })
        }
        0x8001 => {
            let max_payload = c.u32("HelloOk max_payload")?;
            let queue_capacity = c.u64("HelloOk queue_capacity")?;
            c.finish("HelloOk payload")?;
            Ok(WireFrame::HelloOk {
                max_payload,
                queue_capacity,
            })
        }
        0x8002 => {
            let credits = c.u64("Admitted credits")?;
            c.finish("Admitted payload")?;
            Ok(WireFrame::Admitted { credits })
        }
        0x8003 | 0x800b => {
            let code = c.u16("reply code")?;
            let reason = c.string("reply reason")?;
            c.finish("reply payload")?;
            Ok(if kind == 0x8003 {
                WireFrame::Rejected { code, reason }
            } else {
                WireFrame::Error { code, reason }
            })
        }
        0x8004 => empty(WireFrame::Ok),
        0x8005 => {
            let accepted = c.u64("EventsAck accepted")?;
            let credits = c.u64("EventsAck credits")?;
            c.finish("EventsAck payload")?;
            Ok(WireFrame::EventsAck { accepted, credits })
        }
        0x8006 => {
            let count = c.count(25, "Lifecycle")?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let what = "lifecycle event";
                let tag = c.take(1, what)?[0];
                let (a, b, cc) = (c.u64(what)?, c.u64(what)?, c.u64(what)?);
                events.push(match tag {
                    1 => WireSessionEvent::SegmentRetired {
                        index: a,
                        frames: b,
                        events: cc,
                    },
                    2 if cc == 0 => WireSessionEvent::DepthMapReady {
                        index: a,
                        valid_pixels: b,
                    },
                    3 => WireSessionEvent::KeyframeReady {
                        index: a,
                        votes_cast: b,
                        map_points: cc,
                    },
                    4 => WireSessionEvent::MapFused {
                        index: a,
                        points: b,
                        new_voxels: cc,
                    },
                    other => {
                        return Err(malformed(format!(
                            "unknown lifecycle tag {other} (or nonzero padding)"
                        )));
                    }
                });
            }
            c.finish("Lifecycle payload")?;
            Ok(WireFrame::Lifecycle { events })
        }
        0x8007 => {
            let what = "DepthMap";
            let index = c.u64(what)?;
            let width = c.u64(what)?;
            let height = c.u64(what)?;
            let votes_cast = c.u64(what)?;
            let count = c.count(8, "DepthMap samples")?;
            let mut depths = Vec::with_capacity(count);
            for _ in 0..count {
                depths.push(c.u64("depth sample")?);
            }
            c.finish("DepthMap payload")?;
            // Dimensions must cover the sample count (width × height with
            // checked arithmetic — a crafted pair must not overflow).
            match width.checked_mul(height) {
                Some(pixels) if pixels == count as u64 => {}
                _ => {
                    return Err(malformed(format!(
                        "DepthMap declares {width}x{height} pixels but carries {count} samples"
                    )));
                }
            }
            Ok(WireFrame::DepthMap(DepthMapFrame {
                index,
                width,
                height,
                votes_cast,
                depths,
            }))
        }
        0x8008 => {
            let credits = c.u64("PollDone credits")?;
            c.finish("PollDone payload")?;
            Ok(WireFrame::PollDone { credits })
        }
        0x8009 => {
            let digest = c.u64("Finished digest")?;
            let keyframes = c.u64("Finished keyframes")?;
            let events_processed = c.u64("Finished events_processed")?;
            c.finish("Finished payload")?;
            Ok(WireFrame::Finished {
                digest,
                keyframes,
                events_processed,
            })
        }
        0x800a => {
            let json = c.string("metrics document")?;
            c.finish("MetricsReply payload")?;
            Ok(WireFrame::MetricsReply { json })
        }
        0x800c => empty(WireFrame::ByeOk),
        found => Err(WireError::UnknownKind { found }),
    }
}

/// Validates the fixed header of a frame and returns `(kind, session,
/// payload_len)`. Used both by [`decode_frame`] and by the streaming reader
/// (which must learn the payload length before the payload arrives).
pub(crate) fn decode_header(header: &[u8], max_payload: u32) -> Result<(u16, u64, u32), WireError> {
    let mut c = Reader::new(header);
    let magic = c.take(4, "frame magic")?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic {
            found: magic.try_into().unwrap(),
        });
    }
    let version = c.u32("frame version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let kind = c.u16("frame kind")?;
    let reserved = c.u16("reserved header bytes")?;
    if reserved != 0 {
        return Err(WireError::NonzeroReserved { found: reserved });
    }
    let session = c.u64("frame session id")?;
    let payload_len = c.u32("frame payload length")?;
    if payload_len > max_payload {
        return Err(WireError::Oversized {
            declared: payload_len,
            max: max_payload,
        });
    }
    Ok((kind, session, payload_len))
}

/// Decodes one complete frame from its exact wire bytes: header checks
/// (magic, version, reserved, size bound), exact-length check, checksum
/// check, kind dispatch, payload grammar.
///
/// # Errors
///
/// The [`WireError`] variant naming the first violation found.
pub fn decode_frame(bytes: &[u8], max_payload: u32) -> Result<(u64, WireFrame), WireError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(WireError::Truncated {
            what: "frame",
            expected: HEADER_LEN + CHECKSUM_LEN,
            found: bytes.len(),
        });
    }
    let (kind, session, payload_len) = decode_header(&bytes[..HEADER_LEN], max_payload)?;
    let expected = HEADER_LEN + payload_len as usize + CHECKSUM_LEN;
    if bytes.len() != expected {
        return Err(WireError::Truncated {
            what: "frame payload",
            expected,
            found: bytes.len(),
        });
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let declared = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
    let actual = {
        let mut h = Fnv64::new();
        h.update(body);
        h.finish()
    };
    if declared != actual {
        return Err(WireError::ChecksumMismatch { declared, actual });
    }
    let frame = decode_payload(kind, &body[HEADER_LEN..])?;
    Ok((session, frame))
}

/// Encodes a trajectory as the [`WireFrame::Poses`] sample list.
pub fn trajectory_samples(trajectory: &Trajectory) -> Vec<(f64, Pose)> {
    trajectory.iter().map(|s| (s.timestamp, s.pose)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ManifestSource;
    use eventor_events::Polarity;
    use eventor_geom::{UnitQuaternion, Vec3};
    use eventor_scenarios::BackendKind;

    fn sample_frames() -> Vec<(u64, WireFrame)> {
        vec![
            (0, WireFrame::Hello),
            (
                7,
                WireFrame::Admit {
                    manifest: SessionManifest {
                        backend: BackendKind::Sharded,
                        source: ManifestSource::Scenario {
                            name: "shake_closeup".into(),
                            seed: 0xdead_beef,
                        },
                    },
                },
            ),
            (
                7,
                WireFrame::Poses {
                    samples: vec![
                        (0.0, Pose::identity()),
                        (
                            0.5,
                            Pose::new(
                                UnitQuaternion::from_euler(0.02, -0.01, 0.3),
                                Vec3::new(0.4, -0.1, 0.05),
                            ),
                        ),
                    ],
                },
            ),
            (
                7,
                WireFrame::Events {
                    events: vec![
                        Event::new(0.001, 3, 4, Polarity::Positive),
                        Event::new(0.002, 5, 6, Polarity::Negative),
                    ],
                },
            ),
            (7, WireFrame::Poll),
            (7, WireFrame::Close),
            (7, WireFrame::Finish),
            (7, WireFrame::Discard),
            (0, WireFrame::Metrics),
            (0, WireFrame::Bye),
            (
                0,
                WireFrame::Ping {
                    nonce: 0xfeed_face_cafe_f00d,
                },
            ),
            (
                0,
                WireFrame::Pong {
                    nonce: 0xfeed_face_cafe_f00d,
                },
            ),
            (
                0,
                WireFrame::HelloOk {
                    max_payload: DEFAULT_MAX_PAYLOAD,
                    queue_capacity: 65536,
                },
            ),
            (7, WireFrame::Admitted { credits: 65536 }),
            (
                7,
                WireFrame::Rejected {
                    code: code::UNKNOWN_SCENARIO,
                    reason: "no such scenario".into(),
                },
            ),
            (7, WireFrame::Ok),
            (
                7,
                WireFrame::EventsAck {
                    accepted: 100,
                    credits: 65436,
                },
            ),
            (
                7,
                WireFrame::Lifecycle {
                    events: vec![
                        WireSessionEvent::SegmentRetired {
                            index: 0,
                            frames: 12,
                            events: 3400,
                        },
                        WireSessionEvent::DepthMapReady {
                            index: 0,
                            valid_pixels: 210,
                        },
                        WireSessionEvent::KeyframeReady {
                            index: 0,
                            votes_cast: 99,
                            map_points: 210,
                        },
                        WireSessionEvent::MapFused {
                            index: 0,
                            points: 210,
                            new_voxels: 11,
                        },
                    ],
                },
            ),
            (
                7,
                WireFrame::DepthMap(DepthMapFrame {
                    index: 0,
                    width: 3,
                    height: 2,
                    votes_cast: 42,
                    depths: vec![
                        1.0f64.to_bits(),
                        f64::NAN.to_bits(),
                        2.5f64.to_bits(),
                        0.0f64.to_bits(),
                        3.25f64.to_bits(),
                        4.5f64.to_bits(),
                    ],
                }),
            ),
            (7, WireFrame::PollDone { credits: 65536 }),
            (
                7,
                WireFrame::Finished {
                    digest: 0x0123_4567_89ab_cdef,
                    keyframes: 4,
                    events_processed: 24_000,
                },
            ),
            (
                0,
                WireFrame::MetricsReply {
                    json: "{\n  \"format\": \"eventor-metrics/1\"\n}\n".into(),
                },
            ),
            (
                7,
                WireFrame::Error {
                    code: code::SESSION,
                    reason: "event at t=3 pushed out of time order".into(),
                },
            ),
            (0, WireFrame::ByeOk),
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for (session, frame) in sample_frames() {
            let bytes = encode_frame(session, &frame);
            let (s, decoded) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", frame.kind_name()));
            assert_eq!(s, session, "{}", frame.kind_name());
            assert_eq!(decoded, frame, "{}", frame.kind_name());
        }
    }

    #[test]
    fn kind_codes_are_distinct() {
        let frames = sample_frames();
        let codes: std::collections::HashSet<u16> = frames.iter().map(|(_, f)| f.kind()).collect();
        assert_eq!(codes.len(), frames.len());
    }

    #[test]
    fn depth_map_digest_matches_manual_fnv() {
        let maps = vec![DepthMapFrame {
            index: 0,
            width: 2,
            height: 1,
            votes_cast: 5,
            depths: vec![1.5f64.to_bits(), f64::NAN.to_bits()],
        }];
        let mut h = Fnv64::new();
        h.update_u64(1);
        h.update_u64(2);
        h.update_u64(1);
        h.update_u64(5);
        h.update_u64(1.5f64.to_bits());
        h.update_u64(f64::NAN.to_bits());
        assert_eq!(digest_of_depth_maps(&maps), h.finish());
        assert_ne!(digest_of_depth_maps(&maps), digest_of_depth_maps(&[]));
    }

    #[test]
    fn short_buffers_are_truncation_errors() {
        let bytes = encode_frame(3, &WireFrame::Poll);
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {cut} bytes: {err}"
            );
        }
    }

    #[test]
    fn oversized_declared_payload_is_rejected_before_allocation() {
        let mut bytes = encode_frame(1, &WireFrame::Poll);
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err}");
    }

    #[test]
    fn absurd_event_count_is_malformed_not_a_panic() {
        // An Events payload declaring 2^56 events in 8 bytes: the count
        // check must use checked arithmetic, as in the evtr reader.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(1u64 << 56).to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0x0004u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut h = Fnv64::new();
        h.update(&bytes);
        let checksum = h.finish();
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let err = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err}");
    }
}
