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
//! trailing FNV-1a-64 checksum; see `docs/ARCHITECTURE.md` §8.1. The
//! trajectory, the pending events and every pose use the shared record
//! layouts of [`eventor_events::codec`], which reads the whole payload.
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
use eventor_events::codec::{
    self, put_events, put_f64, put_pose, put_pose_samples, put_str, put_u64, CodecError, Reader,
    POSE_LEN,
};
use eventor_geom::{CameraIntrinsics, CameraModel, DistortionModel, Trajectory};

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

        // Trajectory and pending (unprocessed) events.
        put_pose_samples(&mut out, d.trajectory.iter().map(|s| (s.timestamp, s.pose)));
        put_events(&mut out, &d.pending);

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
    /// with their declared geometry or with the camera's size.
    pub fn decode(bytes: &[u8]) -> Result<Self, EmvsError> {
        codec::read_all(bytes, "checkpoint payload", Self::read).map_err(|e| {
            EmvsError::Checkpoint {
                reason: e.to_string(),
            }
        })
    }

    fn read(c: &mut Reader<'_>) -> Result<Self, CodecError> {
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

        let mut trajectory = Trajectory::new();
        for (t, pose) in c.pose_samples("trajectory")? {
            trajectory
                .push(t, pose)
                .map_err(|e| corrupt(format!("trajectory: {e}")))?;
        }
        let pending = c.events("pending events")?;

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
        c.reserve(keyframe_count, POSE_LEN + 8 * 3 + 16, "keyframes")?;
        let mut keyframes = Vec::with_capacity(keyframe_count);
        for _ in 0..keyframe_count {
            let reference_pose = c.pose("keyframe pose")?;
            let frames_used = c.usize("keyframe frames")?;
            let events_used = c.usize("keyframe events")?;
            let votes_cast = c.u64("keyframe votes")?;
            let width = c.usize("depth-map width")?;
            let height = c.usize("depth-map height")?;
            c.reserve(width.saturating_mul(height), 16, "depth-map pixels")?;
            let mut depth_map = eventor_dsi::DepthMap::new(width, height)
                .map_err(|e| corrupt(format!("keyframe depth map: {e}")))?;
            for y in 0..height {
                for x in 0..width {
                    let depth = c.f64("depth-map pixel")?;
                    let confidence = c.f64("depth-map pixel")?;
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
        let sensor = &camera.intrinsics;
        let vote_state = if quantized {
            BackendVoteState::Quantized(vote_volume(c, tile_count, &planes, sensor)?)
        } else {
            BackendVoteState::Float(vote_volume(c, tile_count, &planes, sensor)?)
        };

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

fn corrupt(reason: impl Into<String>) -> CodecError {
    CodecError::invalid(reason)
}

/// Reads `tiles` vote-state tiles and merges them into one volume.
/// Checkpoints written before the engine kept one DSI carry one tile per
/// shard. Every tile must be sensor-sized, as every built-in backend's DSI
/// and every legacy tile is, so the DSI a restore allocates is bounded by
/// the vote-state bytes actually present.
fn vote_volume<S: VoxelScore>(
    c: &mut Reader<'_>,
    tiles: usize,
    planes: &DepthPlanes,
    sensor: &CameraIntrinsics,
) -> Result<DsiVolume<S>, CodecError> {
    let mut volume: Option<DsiVolume<S>> = None;
    for i in 0..tiles {
        let width = c.usize("vote-state tile width")?;
        let height = c.usize("vote-state tile height")?;
        if (width as u64, height as u64) != (u64::from(sensor.width), u64::from(sensor.height)) {
            return Err(corrupt(format!(
                "vote-state tile {i} is {width}x{height} but the camera is {}x{}",
                sensor.width, sensor.height
            )));
        }
        let len = c.usize("vote-state tile length")?;
        let payload = c.take(len, "vote-state tile")?;
        let tile = DsiVolume::decode_vote_state(width, height, planes.clone(), payload)
            .map_err(|e| corrupt(format!("vote-state tile {i}: {e}")))?;
        match &mut volume {
            None => volume = Some(tile),
            Some(first) => first.merge_from(&tile),
        }
    }
    volume.ok_or_else(|| corrupt("vote state holds no tiles"))
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
    fn a_checkpoint_carrying_an_even_median_filter_is_refused() {
        // A CKPT whose configuration asks for a 4-pixel median filter must
        // fail to restore with a typed error, not decode and then panic at
        // the resumed session's first retirement.
        let (seq, checkpoint) = checkpoint_fixture();
        let mut driver = checkpoint.into_driver();
        driver.config.detection.median_filter_size = 4;
        let forged = SessionCheckpoint::new(driver, "software", "forged");
        let mut container = Vec::new();
        forged.write_to(&mut container).unwrap();
        let err = SessionCheckpoint::read_from(container.as_slice())
            .expect("intact container")
            .unwrap_err();
        assert!(matches!(err, EmvsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("median_filter_size"), "{err}");
        // Restoring the in-memory checkpoint fails the same way.
        let config = forged.config().clone();
        let err = EventorSession::builder(seq.camera, config)
            .software(EventorOptions::accelerator())
            .restore(forged)
            .unwrap_err();
        assert!(matches!(err, EmvsError::InvalidConfig { .. }), "{err}");
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
