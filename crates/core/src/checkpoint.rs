//! Durable session checkpoints: the `eventor-evtr/1` `CKPT` container
//! payload.
//!
//! A [`SessionCheckpoint`] is the serializable form of a mid-flight
//! [`EventorSession`]: the driver-layer
//! [`DriverCheckpoint`] (configuration, trajectory, pending events, key-frame
//! bookkeeping, retired reconstructions, partial DSI vote state) plus the
//! provenance needed to resume it — which backend kind produced it and a
//! caller-supplied origin string (e.g. the scenario and seed that generated
//! the stream).
//!
//! ## Encoding
//!
//! The payload is a fixed little-endian binary layout (no self-describing
//! metadata): floats are raw IEEE-754 bit patterns, so a
//! checkpoint → restore → checkpoint round trip is bit-identical. The
//! payload is carried as the single `CKPT` section of an `eventor-evtr/1`
//! container, which contributes the magic, versioning (both the container
//! version and [`CKPT_VERSION`](eventor_events::CKPT_VERSION)) and the
//! trailing FNV-1a-64 checksum; see `docs/ARCHITECTURE.md` §3.
//!
//! ## Error domains
//!
//! The two layers fail differently on purpose:
//!
//! * container-level corruption (bad checksum, truncation, wrong section) is
//!   an [`EventError`](eventor_events::EventError) from
//!   [`read_ckpt`](eventor_events::read_ckpt) — the same domain as any other
//!   corrupt `.evtr` file;
//! * a structurally invalid *payload* inside an intact container (only
//!   reachable by re-sealing the checksum over tampered bytes) is
//!   [`EmvsError::Checkpoint`].

use crate::session::EventorSession;
use eventor_dsi::{DepthPlanes, DsiVolume, VoxelScore};
use eventor_emvs::{BackendVoteState, DriverCheckpoint, EmvsConfig, EmvsError, VotingMode};
use eventor_events::{Event, Polarity};
use eventor_geom::{
    CameraIntrinsics, CameraModel, DistortionModel, Pose, Trajectory, UnitQuaternion, Vec3,
};

/// A durable mid-flight session checkpoint: the driver state plus resume
/// provenance. Produced by [`EventorSession::snapshot`], consumed by
/// [`SessionBuilder::restore`](crate::SessionBuilder::restore).
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    driver: DriverCheckpoint,
    backend_kind: String,
    origin: String,
}

impl SessionCheckpoint {
    /// Wraps a driver checkpoint with its resume provenance.
    pub fn new(driver: DriverCheckpoint, backend_kind: &str, origin: &str) -> Self {
        Self {
            driver,
            backend_kind: backend_kind.to_string(),
            origin: origin.to_string(),
        }
    }

    /// The driver-layer checkpoint.
    pub fn driver(&self) -> &DriverCheckpoint {
        &self.driver
    }

    /// Consumes the checkpoint and returns the driver-layer state.
    pub fn into_driver(self) -> DriverCheckpoint {
        self.driver
    }

    /// Short identifier of the backend that produced the checkpoint
    /// (`"software"`, `"sharded"`, `"cosim"`, …) — the default backend to
    /// resume on.
    pub fn backend_kind(&self) -> &str {
        &self.backend_kind
    }

    /// The caller-supplied origin string (e.g. `"scenario=orbit-close seed=7"`).
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The camera model the session ran with.
    pub fn camera(&self) -> &CameraModel {
        &self.driver.camera
    }

    /// The EMVS configuration the session ran with.
    pub fn config(&self) -> &EmvsConfig {
        &self.driver.config
    }

    /// Total events the checkpointed session had ingested.
    pub fn events_pushed(&self) -> u64 {
        self.driver.events_pushed
    }

    /// Key frames the checkpointed session had retired.
    pub fn keyframes_retired(&self) -> usize {
        self.driver.keyframes.len()
    }

    /// Serializes the checkpoint to its raw `CKPT` payload bytes (without
    /// the `eventor-evtr/1` container framing).
    pub fn encode(&self) -> Vec<u8> {
        let d = &self.driver;
        let mut out = Vec::new();
        put_str(&mut out, &self.origin);
        put_str(&mut out, &self.backend_kind);

        // Camera model.
        let i = &d.camera.intrinsics;
        for v in [i.fx, i.fy, i.cx, i.cy] {
            put_f64(&mut out, v);
        }
        out.extend_from_slice(&i.width.to_le_bytes());
        out.extend_from_slice(&i.height.to_le_bytes());
        let dist = &d.camera.distortion;
        for v in [dist.k1, dist.k2, dist.p1, dist.p2, dist.k3] {
            put_f64(&mut out, v);
        }

        // EMVS configuration.
        put_u64(&mut out, d.config.events_per_frame as u64);
        put_u64(&mut out, d.config.num_depth_planes as u64);
        put_f64(&mut out, d.config.depth_range.0);
        put_f64(&mut out, d.config.depth_range.1);
        out.push(match d.config.voting {
            VotingMode::Bilinear => 0,
            VotingMode::Nearest => 1,
        });
        let det = &d.config.detection;
        for v in [
            det.adaptive_sigma,
            det.adaptive_offset,
            det.min_confidence,
            det.min_peak_ratio,
        ] {
            put_f64(&mut out, v);
        }
        out.push(det.subplane_refinement as u8);
        put_u64(&mut out, det.median_filter_size as u64);
        put_f64(&mut out, d.config.keyframe_distance);
        put_u64(&mut out, d.config.min_frames_per_keyframe as u64);
        put_u64(&mut out, d.max_pending_events as u64);

        // Trajectory.
        put_u64(&mut out, d.trajectory.len() as u64);
        for sample in d.trajectory.iter() {
            let t = sample.pose.translation;
            let q = sample.pose.rotation;
            for v in [sample.timestamp, t.x, t.y, t.z, q.x, q.y, q.z, q.w] {
                put_f64(&mut out, v);
            }
        }

        // Pending (unprocessed) events.
        put_u64(&mut out, d.pending.len() as u64);
        for e in &d.pending {
            put_f64(&mut out, e.t);
            out.extend_from_slice(&e.x.to_le_bytes());
            out.extend_from_slice(&e.y.to_le_bytes());
            out.push(match e.polarity {
                Polarity::Positive => 1,
                Polarity::Negative => 0,
            });
        }

        // Stream cursor and key-frame bookkeeping.
        match d.last_event_t {
            Some(t) => {
                out.push(1);
                put_f64(&mut out, t);
            }
            None => out.push(0),
        }
        put_u64(&mut out, d.events_pushed);
        put_u64(&mut out, d.next_frame_index as u64);
        put_u64(&mut out, d.frames_since_switch as u64);
        match &d.reference {
            Some(pose) => {
                out.push(1);
                put_pose(&mut out, pose);
            }
            None => out.push(0),
        }
        put_u64(&mut out, d.frames_in_keyframe as u64);
        put_u64(&mut out, d.events_in_keyframe as u64);

        // Retired key frames. The local cloud is a pure function of the
        // depth map, intrinsics and pose, so it is recomputed on decode
        // rather than stored.
        put_u64(&mut out, d.keyframes.len() as u64);
        for kf in &d.keyframes {
            put_pose(&mut out, &kf.reference_pose);
            put_u64(&mut out, kf.frames_used as u64);
            put_u64(&mut out, kf.events_used as u64);
            put_u64(&mut out, kf.votes_cast);
            let dm = &kf.depth_map;
            put_u64(&mut out, dm.width() as u64);
            put_u64(&mut out, dm.height() as u64);
            for y in 0..dm.height() {
                for x in 0..dm.width() {
                    put_f64(&mut out, dm.depth(x, y));
                    put_f64(&mut out, dm.confidence(x, y));
                }
            }
        }

        // Backend vote state: a tile count (always 1 since every backend
        // keeps one DSI; the decoder still merges legacy multi-tile states)
        // and the volume in the DSI crate's LE vote-state encoding.
        let (tag, width, height, payload) = match &d.vote_state {
            BackendVoteState::Quantized(v) => (0, v.width(), v.height(), v.encode_vote_state()),
            BackendVoteState::Float(v) => (1, v.width(), v.height(), v.encode_vote_state()),
        };
        out.push(tag);
        put_u64(&mut out, 1);
        put_u64(&mut out, width as u64);
        put_u64(&mut out, height as u64);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes a checkpoint from its raw `CKPT` payload bytes.
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] for any structural violation: truncation,
    /// trailing bytes, invalid enum codes, non-finite timestamps, non-unit
    /// rotations, an empty vote state, or vote-state tiles that disagree
    /// with their declared geometry or with each other.
    pub fn decode(bytes: &[u8]) -> Result<Self, EmvsError> {
        let mut c = Reader { bytes, at: 0 };
        let origin = c.string("origin")?;
        let backend_kind = c.string("backend kind")?;

        let camera = CameraModel {
            intrinsics: CameraIntrinsics {
                fx: c.f64("camera fx")?,
                fy: c.f64("camera fy")?,
                cx: c.f64("camera cx")?,
                cy: c.f64("camera cy")?,
                width: c.u32("camera width")?,
                height: c.u32("camera height")?,
            },
            distortion: DistortionModel {
                k1: c.f64("distortion k1")?,
                k2: c.f64("distortion k2")?,
                p1: c.f64("distortion p1")?,
                p2: c.f64("distortion p2")?,
                k3: c.f64("distortion k3")?,
            },
        };

        let config = EmvsConfig {
            events_per_frame: c.usize("events_per_frame")?,
            num_depth_planes: c.usize("num_depth_planes")?,
            depth_range: (c.f64("depth_range near")?, c.f64("depth_range far")?),
            voting: match c.u8("voting mode")? {
                0 => VotingMode::Bilinear,
                1 => VotingMode::Nearest,
                other => return Err(corrupt(format!("unknown voting mode code {other}"))),
            },
            detection: eventor_dsi::DetectionConfig {
                adaptive_sigma: c.f64("adaptive_sigma")?,
                adaptive_offset: c.f64("adaptive_offset")?,
                min_confidence: c.f64("min_confidence")?,
                min_peak_ratio: c.f64("min_peak_ratio")?,
                subplane_refinement: c.bool("subplane_refinement")?,
                median_filter_size: c.usize("median_filter_size")?,
            },
            keyframe_distance: c.f64("keyframe_distance")?,
            min_frames_per_keyframe: c.usize("min_frames_per_keyframe")?,
        };
        let max_pending_events = c.usize("max_pending_events")?;

        let samples = c.usize("trajectory sample count")?;
        c.reserve(samples, 64, "trajectory samples")?;
        let mut trajectory = Trajectory::new();
        for i in 0..samples {
            let what = format!("trajectory sample {i}");
            let t = c.f64(&what)?;
            let translation = Vec3::new(c.f64(&what)?, c.f64(&what)?, c.f64(&what)?);
            let (qx, qy, qz, qw) = (c.f64(&what)?, c.f64(&what)?, c.f64(&what)?, c.f64(&what)?);
            let rotation = UnitQuaternion::from_normalized(qw, qx, qy, qz, 1e-6)
                .ok_or_else(|| corrupt(format!("{what}: rotation is not unit norm")))?;
            trajectory
                .push(t, Pose::new(rotation, translation))
                .map_err(|e| corrupt(format!("{what}: {e}")))?;
        }

        let pending_count = c.usize("pending event count")?;
        c.reserve(pending_count, 13, "pending events")?;
        let mut pending = Vec::with_capacity(pending_count);
        for i in 0..pending_count {
            let what = format!("pending event {i}");
            let t = c.f64(&what)?;
            if !t.is_finite() {
                return Err(corrupt(format!("{what}: non-finite timestamp")));
            }
            let x = c.u16(&what)?;
            let y = c.u16(&what)?;
            let polarity = match c.u8(&what)? {
                1 => Polarity::Positive,
                0 => Polarity::Negative,
                other => return Err(corrupt(format!("{what}: invalid polarity byte {other}"))),
            };
            pending.push(Event::new(t, x, y, polarity));
        }

        let last_event_t = match c.u8("last_event_t flag")? {
            0 => None,
            1 => {
                let t = c.f64("last_event_t")?;
                if !t.is_finite() {
                    return Err(corrupt("last_event_t: non-finite timestamp"));
                }
                Some(t)
            }
            other => return Err(corrupt(format!("invalid last_event_t flag {other}"))),
        };
        let events_pushed = c.u64("events_pushed")?;
        let next_frame_index = c.usize("next_frame_index")?;
        let frames_since_switch = c.usize("frames_since_switch")?;
        let reference = match c.u8("reference flag")? {
            0 => None,
            1 => Some(c.pose("reference pose")?),
            other => return Err(corrupt(format!("invalid reference flag {other}"))),
        };
        let frames_in_keyframe = c.usize("frames_in_keyframe")?;
        let events_in_keyframe = c.usize("events_in_keyframe")?;

        let keyframe_count = c.usize("keyframe count")?;
        c.reserve(keyframe_count, 8 * 7 + 8 * 3 + 16, "keyframes")?;
        let mut keyframes = Vec::with_capacity(keyframe_count);
        for i in 0..keyframe_count {
            let what = format!("keyframe {i}");
            let reference_pose = c.pose(&what)?;
            let frames_used = c.usize(&what)?;
            let events_used = c.usize(&what)?;
            let votes_cast = c.u64(&what)?;
            let width = c.usize(&what)?;
            let height = c.usize(&what)?;
            c.reserve(width.saturating_mul(height), 16, "depth-map pixels")?;
            let mut depth_map = eventor_dsi::DepthMap::new(width, height)
                .map_err(|e| corrupt(format!("{what}: {e}")))?;
            for y in 0..height {
                for x in 0..width {
                    let depth = c.f64(&what)?;
                    let confidence = c.f64(&what)?;
                    depth_map.set(x, y, depth, confidence);
                }
            }
            // The local cloud is a pure deterministic function of the stored
            // fields — recompute instead of trusting serialized points.
            let local_cloud = eventor_dsi::PointCloud::from_depth_map(
                &depth_map,
                &camera.intrinsics,
                &reference_pose,
            );
            keyframes.push(eventor_emvs::KeyframeReconstruction {
                reference_pose,
                depth_map,
                local_cloud,
                frames_used,
                events_used,
                votes_cast,
            });
        }

        // Vote-state tiles need the depth planes, which are derived from the
        // (already decoded) configuration. A forged plane count must hit the
        // allocation guard before `depth_planes()` materializes the sweep:
        // every legitimate checkpoint carries at least one vote tile, and
        // each tile's payload spends at least two bytes per plane.
        c.reserve(config.num_depth_planes, 2, "depth planes")?;
        let planes = config.depth_planes().map_err(|e| {
            corrupt(format!(
                "embedded configuration cannot build depth planes: {e}"
            ))
        })?;
        let quantized = match c.u8("vote-state tag")? {
            0 => true,
            1 => false,
            other => return Err(corrupt(format!("unknown vote-state tag {other}"))),
        };
        let tile_count = c.usize("vote-state tile count")?;
        c.reserve(tile_count, 24, "vote-state tiles")?;
        let vote_state = if quantized {
            BackendVoteState::Quantized(c.vote_volume(tile_count, &planes)?)
        } else {
            BackendVoteState::Float(c.vote_volume(tile_count, &planes)?)
        };

        if c.at != c.bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after the checkpoint payload",
                c.bytes.len() - c.at
            )));
        }

        Ok(Self {
            driver: DriverCheckpoint {
                camera,
                config,
                max_pending_events,
                trajectory,
                pending,
                last_event_t,
                events_pushed,
                next_frame_index,
                frames_since_switch,
                reference,
                frames_in_keyframe,
                events_in_keyframe,
                keyframes,
                vote_state,
            },
            backend_kind,
            origin,
        })
    }

    /// Writes the checkpoint as a complete `eventor-evtr/1` `CKPT` container
    /// (magic, version words, payload, FNV-1a-64 checksum).
    ///
    /// # Errors
    ///
    /// Propagates writer I/O failures.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        eventor_events::write_ckpt(&self.encode(), writer)
    }

    /// Reads a checkpoint back from an `eventor-evtr/1` `CKPT` container.
    ///
    /// Kept two-step on purpose so callers can tell the error domains apart:
    /// container corruption surfaces as `Err(event_error)` from the outer
    /// [`read_ckpt`](eventor_events::read_ckpt) (same as any corrupt `.evtr`
    /// file), while a structurally invalid payload inside an intact
    /// container surfaces as `Ok(Err(checkpoint_error))`.
    ///
    /// # Errors
    ///
    /// See above — [`eventor_events::EventError`] for the container,
    /// [`EmvsError::Checkpoint`] for the payload.
    pub fn read_from<R: std::io::Read>(
        reader: R,
    ) -> Result<Result<Self, EmvsError>, eventor_events::EventError> {
        let payload = eventor_events::read_ckpt(reader)?;
        Ok(Self::decode(&payload))
    }
}

impl EventorSession {
    /// Captures this session as a durable [`SessionCheckpoint`], recording
    /// `origin` (e.g. the scenario and seed that generated the stream) for
    /// the resume side. The session stays fully usable afterwards.
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] when lifecycle events are undrained
    /// ([`poll`](Self::poll) first), when incremental map fusion is enabled
    /// (the fused map is not checkpointable state) or when the backend does
    /// not support checkpointing.
    pub fn snapshot(&mut self, origin: &str) -> Result<SessionCheckpoint, EmvsError> {
        if self.fusion_enabled() {
            return Err(EmvsError::Checkpoint {
                reason: "sessions with incremental map fusion cannot be checkpointed".into(),
            });
        }
        let backend_kind = self.backend_name();
        let driver = self.driver_mut().snapshot()?;
        Ok(SessionCheckpoint::new(driver, backend_kind, origin))
    }
}

fn corrupt(reason: impl Into<String>) -> EmvsError {
    EmvsError::Checkpoint {
        reason: reason.into(),
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_pose(out: &mut Vec<u8>, pose: &Pose) {
    let t = pose.translation;
    let q = pose.rotation;
    for v in [t.x, t.y, t.z, q.x, q.y, q.z, q.w] {
        put_f64(out, v);
    }
}

/// Bounds-checked little-endian reader over the checkpoint payload; every
/// failure names the field being read.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], EmvsError> {
        let available = self.bytes.len() - self.at;
        if available < n {
            return Err(corrupt(format!(
                "truncated while reading {what}: needed {n} bytes, {available} left"
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Rejects declared element counts whose payload cannot possibly fit in
    /// the remaining bytes, so a corrupted count fails fast instead of
    /// attempting a huge allocation.
    fn reserve(&self, count: usize, min_bytes_each: usize, what: &str) -> Result<(), EmvsError> {
        let available = self.bytes.len() - self.at;
        if count.saturating_mul(min_bytes_each) > available {
            return Err(corrupt(format!(
                "declared {count} {what} but only {available} payload bytes remain"
            )));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8, EmvsError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &str) -> Result<bool, EmvsError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("{what}: invalid boolean byte {other}"))),
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16, EmvsError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, EmvsError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, EmvsError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn usize(&mut self, what: &str) -> Result<usize, EmvsError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| corrupt(format!("{what}: {v} overflows this host")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, EmvsError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> Result<String, EmvsError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(format!("{what}: invalid UTF-8")))
    }

    fn pose(&mut self, what: &str) -> Result<Pose, EmvsError> {
        let translation = Vec3::new(self.f64(what)?, self.f64(what)?, self.f64(what)?);
        let (qx, qy, qz, qw) = (
            self.f64(what)?,
            self.f64(what)?,
            self.f64(what)?,
            self.f64(what)?,
        );
        let rotation = UnitQuaternion::from_normalized(qw, qx, qy, qz, 1e-6)
            .ok_or_else(|| corrupt(format!("{what}: rotation is not unit norm")))?;
        Ok(Pose::new(rotation, translation))
    }

    /// Reads `tiles` vote-state tiles and merges them into one volume.
    /// Checkpoints written before the engine kept one DSI carry one tile per
    /// shard; every tile must match the first one's dimensions before
    /// [`DsiVolume::merge_from`] may see it.
    fn vote_volume<S: VoxelScore>(
        &mut self,
        tiles: usize,
        planes: &DepthPlanes,
    ) -> Result<DsiVolume<S>, EmvsError> {
        let mut volume: Option<DsiVolume<S>> = None;
        for i in 0..tiles {
            let what = format!("vote-state tile {i}");
            let width = self.usize(&what)?;
            let height = self.usize(&what)?;
            let len = self.usize(&what)?;
            let payload = self.take(len, &what)?;
            let tile = DsiVolume::decode_vote_state(width, height, planes.clone(), payload)
                .map_err(|e| corrupt(format!("{what}: {e}")))?;
            match &mut volume {
                None => volume = Some(tile),
                Some(first) if (first.width(), first.height()) == (width, height) => {
                    first.merge_from(&tile);
                }
                Some(first) => {
                    return Err(corrupt(format!(
                        "{what} is {width}x{height} but tile 0 is {}x{}",
                        first.width(),
                        first.height()
                    )))
                }
            }
        }
        volume.ok_or_else(|| corrupt("vote state holds no tiles"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config_for_sequence, EventorOptions, EventorSession};
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

    fn checkpoint_fixture() -> (SyntheticSequence, SessionCheckpoint) {
        let seq =
            SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
                .unwrap();
        let config = config_for_sequence(&seq, 60);
        let mut session = EventorSession::builder(seq.camera, config)
            .software(EventorOptions::accelerator())
            .build()
            .unwrap();
        session.push_trajectory(&seq.trajectory).unwrap();
        let events = seq.events.as_slice().to_vec();
        session.push_events(&events[..events.len() / 2]).unwrap();
        session.poll().unwrap();
        let checkpoint = session.snapshot("scenario=test seed=1").unwrap();
        (seq, checkpoint)
    }

    #[test]
    fn encode_decode_round_trip_is_bit_exact() {
        let (_, checkpoint) = checkpoint_fixture();
        let bytes = checkpoint.encode();
        let decoded = SessionCheckpoint::decode(&bytes).unwrap();
        assert_eq!(decoded.origin(), checkpoint.origin());
        assert_eq!(decoded.backend_kind(), checkpoint.backend_kind());
        assert_eq!(decoded.events_pushed(), checkpoint.events_pushed());
        assert_eq!(decoded.keyframes_retired(), checkpoint.keyframes_retired());
        assert_eq!(decoded.camera(), checkpoint.camera());
        assert_eq!(decoded.config(), checkpoint.config());
        // The strongest statement: re-encoding the decoded checkpoint is
        // byte-identical, so every field (including f64 bit patterns)
        // survived.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn container_round_trip_and_error_domains() {
        let (_, checkpoint) = checkpoint_fixture();
        let mut container = Vec::new();
        checkpoint.write_to(&mut container).unwrap();
        let read = SessionCheckpoint::read_from(container.as_slice())
            .expect("container intact")
            .expect("payload intact");
        assert_eq!(read.encode(), checkpoint.encode());

        // A flipped payload byte is a *container* error (checksum).
        let mut corrupted = container.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x01;
        assert!(SessionCheckpoint::read_from(corrupted.as_slice()).is_err());

        // A structurally broken payload inside a re-sealed container is a
        // *checkpoint* error.
        let mut bytes = checkpoint.encode();
        bytes[0] = 0xFF; // origin length explodes past the payload
        let mut resealed = Vec::new();
        eventor_events::write_ckpt(&bytes, &mut resealed).unwrap();
        let inner = SessionCheckpoint::read_from(resealed.as_slice()).expect("container intact");
        assert!(matches!(inner, Err(EmvsError::Checkpoint { .. })));
    }

    #[test]
    fn truncated_payloads_are_typed_errors_at_every_length() {
        let (_, checkpoint) = checkpoint_fixture();
        let bytes = checkpoint.encode();
        // Exhaustive over the structured head of the payload, sampled over
        // the bulky tail.
        let mut lengths: Vec<usize> = (0..bytes.len().min(512)).collect();
        lengths.extend((512..bytes.len()).step_by(997));
        for len in lengths {
            assert!(
                matches!(
                    SessionCheckpoint::decode(&bytes[..len]),
                    Err(EmvsError::Checkpoint { .. })
                ),
                "truncation to {len} bytes must be a typed checkpoint error"
            );
        }
    }

    #[test]
    fn fusion_sessions_refuse_to_snapshot() {
        let seq =
            SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
                .unwrap();
        let config = config_for_sequence(&seq, 60);
        let mut session = EventorSession::builder(seq.camera, config)
            .software(EventorOptions::accelerator())
            .fuse_into_map(eventor_map::GlobalMapConfig::default())
            .build()
            .unwrap();
        session.push_trajectory(&seq.trajectory).unwrap();
        session.push_events(seq.events.as_slice()).unwrap();
        session.poll().unwrap();
        let err = session.snapshot("origin").unwrap_err();
        assert!(matches!(err, EmvsError::Checkpoint { .. }));
        assert!(err.to_string().contains("fusion"));
    }
}
