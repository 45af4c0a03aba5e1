//! The streaming **session** core: push-based incremental ingestion of poses
//! and events, driven frame by frame through a pluggable
//! [`ExecutionBackend`].
//!
//! The paper's accelerator is an *online* system — events arrive as a stream
//! and the device votes incrementally — but the original entry points of this
//! repository were batch-only (`reconstruct(&EventStream, &Trajectory)`).
//! This module provides the streaming core both worlds share:
//!
//! * [`SessionDriver`] owns the host-side state machine that is common to
//!   every execution backend: the incrementally grown trajectory, the
//!   bounded pending-event buffer, fixed-size frame aggregation, key-frame
//!   selection, per-frame geometry (`H_{Z0}` / `φ`) computation, keyframe
//!   retirement and global-map merging.
//! * [`ExecutionBackend`] is the narrow contract a voting engine implements:
//!   vote one aggregated frame, retire one key frame. The one
//!   [`VotingEngine`](crate::VotingEngine) (every datapath, every shard
//!   count) and the co-simulated device (`eventor-core`) sit behind it.
//! * [`SessionEvent`] is what [`SessionDriver::poll`] yields: lifecycle
//!   notifications (`SegmentRetired` → `DepthMapReady` → `KeyframeReady`)
//!   emitted as key frames complete.
//!
//! ## Equivalence guarantee
//!
//! Frames are cut from the *concatenation* of all pushed events at fixed
//! `events_per_frame` boundaries, exactly like the batch `aggregate` pass, so
//! the reconstruction is a pure function of the event sequence and the
//! trajectory — **independent of how the stream was split into pushed
//! packets**. For the quantized nearest-voting datapath the output is
//! bit-identical to the batch golden path for every backend
//! (`tests/session_equivalence.rs`, `tests/session_properties.rs`): both of
//! them — the voting engine at any shard count and the co-simulated device
//! — delegate the per-event arithmetic to the one bit-true integer kernel in
//! `eventor_fixed::kernel`, so backends differ only in scheduling.
//!
//! ## Backpressure and bounded memory
//!
//! In-flight memory is bounded: at most `max_pending_events` events are
//! buffered (frames leave the buffer as soon as the trajectory covers their
//! mid-point timestamp), and each backend holds fixed-size DSI state plus at
//! most one vote window's load
//! ([`VOTE_WINDOW_EVENTS`](crate::VOTE_WINDOW_EVENTS) buffered survivors and
//! per-plane `φ` entries) and one frame. The engine votes its buffer into
//! the DSI once a window is full and buffers nothing of a frame without
//! canonical survivors, so even a key frame that never retires (a
//! stationary or purely rotating camera) cannot grow without bound. When
//! the buffer is full,
//! [`SessionDriver::push_events`] first tries to drain ready frames and
//! then reports [`EmvsError::Backpressure`] instead of growing without
//! bound; [`SessionDriver::discard_pending`] is the explicit escape hatch
//! for events whose poses can never arrive.

use crate::backproject::FrameGeometry;
use crate::config::EmvsConfig;
use crate::keyframe::KeyframeSelector;
use crate::mapper::{EmvsOutput, KeyframeReconstruction};
use crate::profile::{Stage, StageProfile};
use crate::EmvsError;
use eventor_dsi::{detect_structure, DepthPlanes, DetectionConfig, DsiVolume, PointCloud};
use eventor_events::{Event, EventStream};
use eventor_geom::{CameraModel, Pose, Trajectory};
use std::time::Instant;

/// Default bound on the session's pending-event buffer (events not yet
/// aggregated into a processed frame). Generous enough for batch-style
/// feeding of the synthetic sequences, small enough to keep a runaway
/// producer from exhausting memory (~16 MiB of events).
pub const DEFAULT_MAX_PENDING_EVENTS: usize = 1 << 20;

/// One aggregated event frame handed to an [`ExecutionBackend`], with the
/// host-side per-frame context already computed by the driver.
#[derive(Debug)]
pub struct FrameWork<'a> {
    /// Sequential index of the frame within the session's stream.
    pub frame_index: usize,
    /// Representative timestamp of the frame (mid-point of first and last
    /// event), the time the frame pose was interpolated at.
    pub timestamp: f64,
    /// The frame's events, in time order.
    pub events: &'a [Event],
    /// Camera-to-world pose of the active key reference view.
    pub reference_pose: Pose,
    /// Interpolated camera-to-world pose of this frame.
    pub frame_pose: Pose,
    /// `H_{Z0}` and `φ` for this frame, relative to the reference view.
    pub geometry: &'a FrameGeometry,
}

/// Lifecycle notifications yielded by [`SessionDriver::poll`].
///
/// For each retired key frame the driver emits, in order: `SegmentRetired`
/// (the DSI stopped accumulating), `DepthMapReady` (structure detection ran),
/// `KeyframeReady` (the full reconstruction — depth map and world-frame
/// cloud — is available via [`SessionDriver::keyframes`]). Sessions with map
/// fusion enabled (`eventor-core`'s `EventorSession`) additionally emit
/// `MapFused`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionEvent {
    /// A key frame's voting segment closed: no more votes will be cast into
    /// its DSI.
    SegmentRetired {
        /// Key-frame index (position in [`SessionDriver::keyframes`]).
        index: usize,
        /// Event frames voted into the segment.
        frames: usize,
        /// Events voted into the segment.
        events: usize,
    },
    /// Structure detection ran on the retired segment's DSI.
    DepthMapReady {
        /// Key-frame index.
        index: usize,
        /// Semi-dense pixels estimated in the depth map.
        valid_pixels: usize,
    },
    /// The key frame's full reconstruction is available.
    KeyframeReady {
        /// Key-frame index.
        index: usize,
        /// DSI votes cast for this key frame.
        votes_cast: u64,
        /// Points contributed to the session's global point cloud.
        map_points: usize,
    },
    /// The key frame's cloud was fused into an attached incremental global
    /// map (only emitted by sessions with fusion enabled).
    MapFused {
        /// Key-frame index.
        index: usize,
        /// Points inserted into the map.
        points: usize,
        /// Voxels newly occupied by this key frame.
        new_voxels: usize,
    },
}

/// The partial DSI vote state of a backend's open key frame, exported by
/// [`ExecutionBackend::export_vote_state`] and re-injected by
/// [`ExecutionBackend::import_vote_state`] — the backend half of a session
/// checkpoint.
///
/// Every built-in backend keeps one DSI, whatever its shard count, so the
/// state is one volume and restores bit-exactly into any shard count of the
/// same datapath. The `u16` state also moves between the voting engine and
/// the co-simulated device.
#[derive(Debug, Clone)]
pub enum BackendVoteState {
    /// A 16-bit integer volume (the quantized nearest-voting accelerator
    /// datapath).
    Quantized(DsiVolume<u16>),
    /// An `f32` volume (the baseline / unquantized datapaths).
    Float(DsiVolume<f32>),
}

impl BackendVoteState {
    /// Votes cast into the volume.
    pub fn votes_cast(&self) -> u64 {
        match self {
            Self::Quantized(volume) => volume.votes_cast(),
            Self::Float(volume) => volume.votes_cast(),
        }
    }
}

/// Checks an imported vote volume against a backend's DSI geometry and
/// installs it — the shared body of every built-in backend's
/// [`ExecutionBackend::import_vote_state`], so the validation cannot drift
/// between them.
///
/// # Errors
///
/// [`EmvsError::Checkpoint`] (naming `backend`) when the volume's
/// dimensions differ from the target's.
pub fn import_vote_volume<S: eventor_dsi::VoxelScore>(
    incoming: DsiVolume<S>,
    target: &mut DsiVolume<S>,
    backend: &'static str,
) -> Result<(), EmvsError> {
    let (w, h, p) = (target.width(), target.height(), target.num_planes());
    if incoming.width() != w || incoming.height() != h || incoming.num_planes() != p {
        return Err(EmvsError::Checkpoint {
            reason: format!(
                "checkpointed DSI is {}x{}x{} but backend '{backend}' expects {w}x{h}x{p}",
                incoming.width(),
                incoming.height(),
                incoming.num_planes()
            ),
        });
    }
    *target = incoming;
    Ok(())
}

/// The contract between the streaming session driver and a voting engine
/// (versioned as `eventor-backend/1`, see `docs/ARCHITECTURE.md` §6).
///
/// A backend owns the DSI state of exactly one in-flight key frame. The
/// driver guarantees the call sequence
/// `vote_frame* (retire_keyframe vote_frame*)*`: every frame between two
/// retirements (and before the first) belongs to the key frame retired next,
/// and `retire_keyframe` must leave the backend ready for the next key
/// frame's first `vote_frame`.
///
/// Backends are [`Send`] so a whole session can migrate between the worker
/// threads of the `eventor-serve` multi-session engine; all calls remain
/// `&mut self` from one thread at a time, so no internal synchronisation is
/// required.
pub trait ExecutionBackend: std::fmt::Debug + Send {
    /// Short stable identifier of the backend (`"software"`, `"sharded"`,
    /// `"cosim"`, …).
    fn name(&self) -> &'static str;

    /// Votes one aggregated event frame into the active key frame's DSI.
    ///
    /// Stage timings the backend performs itself (distortion correction,
    /// projections, voting) are attributed to `profile`; the driver accounts
    /// for aggregation, geometry computation and merging.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (e.g. the co-simulated device rejecting a
    /// staged frame) surface as [`EmvsError`] and abort the session.
    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError>;

    /// Closes the active key frame: runs structure detection on the
    /// accumulated DSI, converts it to a world-frame cloud, resets the DSI
    /// and returns the reconstruction.
    ///
    /// # Errors
    ///
    /// Backend-specific failures surface as [`EmvsError`].
    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError>;

    /// Optional [`std::any::Any`] view for downcasting a boxed backend (used
    /// e.g. to recover the co-simulation report). Backends that carry no
    /// queryable state can keep the default `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Exports the open key frame's partial DSI vote state for a session
    /// checkpoint.
    ///
    /// Backends that buffer key-frame work (the voting engine) first vote
    /// their buffers into the DSI — equivalent to a window boundary, which
    /// is safe at any point of a key frame — so the exported volume alone
    /// determines the key frame's remaining evolution. The
    /// backend stays fully usable afterwards: exporting is observation, not
    /// retirement.
    ///
    /// # Errors
    ///
    /// The default implementation reports [`EmvsError::Checkpoint`]: custom
    /// backends opt in by overriding both this and
    /// [`Self::import_vote_state`].
    fn export_vote_state(
        &mut self,
        _profile: &mut StageProfile,
    ) -> Result<BackendVoteState, EmvsError> {
        Err(EmvsError::Checkpoint {
            reason: format!("backend '{}' does not support checkpointing", self.name()),
        })
    }

    /// Injects a checkpointed vote state into a **fresh** backend (no frames
    /// voted yet), resurrecting the open key frame's partial DSI exactly
    /// where [`Self::export_vote_state`] captured it.
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] when the state's score type or volume
    /// geometry does not fit this backend, or (default implementation) when
    /// the backend does not support checkpointing.
    fn import_vote_state(
        &mut self,
        _state: BackendVoteState,
        _profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        Err(EmvsError::Checkpoint {
            reason: format!("backend '{}' does not support checkpointing", self.name()),
        })
    }
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        (**self).vote_frame(work, profile)
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        (**self).retire_keyframe(reference_pose, frames_used, events_used, profile)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }

    fn export_vote_state(
        &mut self,
        profile: &mut StageProfile,
    ) -> Result<BackendVoteState, EmvsError> {
        (**self).export_vote_state(profile)
    }

    fn import_vote_state(
        &mut self,
        state: BackendVoteState,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        (**self).import_vote_state(state, profile)
    }
}

/// The streaming session state machine, generic over the execution backend.
///
/// `eventor-core` wraps this in the boxed-backend `EventorSession` façade,
/// whose `SessionBuilder::reconstruct` feeds a driver the whole trajectory
/// and stream at once.
#[derive(Debug)]
pub struct SessionDriver<B: ExecutionBackend> {
    camera: CameraModel,
    config: EmvsConfig,
    planes: DepthPlanes,
    backend: B,
    trajectory: Trajectory,
    /// Buffered events not yet processed: the live region is
    /// `pending[cursor..]`. Frames are cut by advancing `cursor` (O(1)) and
    /// the consumed prefix is compacted away amortizedly, so a batch
    /// reconstruction — which buffers the whole stream — stays O(events)
    /// instead of the O(events²) a `drain(..n)` per frame would cost.
    pending: Vec<Event>,
    cursor: usize,
    max_pending_events: usize,
    last_event_t: Option<f64>,
    events_pushed: u64,
    next_frame_index: usize,
    selector: KeyframeSelector,
    reference: Option<Pose>,
    frames_in_keyframe: usize,
    events_in_keyframe: usize,
    keyframes: Vec<KeyframeReconstruction>,
    global_map: PointCloud,
    profile: StageProfile,
    outbox: Vec<SessionEvent>,
}

impl<B: ExecutionBackend> SessionDriver<B> {
    /// Creates a driver for the given camera, configuration and backend.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations
    /// (via [`EmvsConfig::validate`], through [`EmvsConfig::depth_planes`]).
    pub fn new(camera: CameraModel, config: EmvsConfig, backend: B) -> Result<Self, EmvsError> {
        let planes = config.depth_planes()?;
        let selector =
            KeyframeSelector::new(config.keyframe_distance, config.min_frames_per_keyframe);
        Ok(Self {
            camera,
            config,
            planes,
            backend,
            trajectory: Trajectory::new(),
            pending: Vec::new(),
            cursor: 0,
            max_pending_events: DEFAULT_MAX_PENDING_EVENTS,
            last_event_t: None,
            events_pushed: 0,
            next_frame_index: 0,
            selector,
            reference: None,
            frames_in_keyframe: 0,
            events_in_keyframe: 0,
            keyframes: Vec::new(),
            global_map: PointCloud::new(),
            profile: StageProfile::new(),
            outbox: Vec::new(),
        })
    }

    /// Overrides the in-flight event bound (clamped to at least one frame).
    pub fn with_max_pending_events(mut self, cap: usize) -> Self {
        self.max_pending_events = cap.max(self.config.events_per_frame);
        self
    }

    /// The camera model.
    pub fn camera(&self) -> &CameraModel {
        &self.camera
    }

    /// The EMVS configuration.
    pub fn config(&self) -> &EmvsConfig {
        &self.config
    }

    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Events buffered but not yet aggregated into a processed frame.
    pub fn pending_events(&self) -> usize {
        self.pending.len() - self.cursor
    }

    /// Total events pushed into the session so far.
    pub fn events_pushed(&self) -> u64 {
        self.events_pushed
    }

    /// Key frames retired so far, in stream order.
    pub fn keyframes(&self) -> &[KeyframeReconstruction] {
        &self.keyframes
    }

    /// The per-stage runtime profile accumulated so far.
    pub fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// Appends one trajectory sample; timestamps must be strictly
    /// increasing.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::Geometry`] for non-monotonic or non-finite
    /// timestamps.
    pub fn push_pose(&mut self, timestamp: f64, pose: Pose) -> Result<(), EmvsError> {
        self.trajectory.push(timestamp, pose)?;
        Ok(())
    }

    /// Appends every sample of `trajectory` (convenience for the batch
    /// wrappers and replay feeds).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::push_pose`].
    pub fn push_trajectory(&mut self, trajectory: &Trajectory) -> Result<(), EmvsError> {
        for sample in trajectory.iter() {
            self.push_pose(sample.timestamp, sample.pose)?;
        }
        Ok(())
    }

    /// Pushes a packet of events (any size, including a partial or multiple
    /// frames' worth). Events must be time-ordered across all pushes.
    ///
    /// # Returns
    ///
    /// The number of events ingested. It equals `events.len()` unless the
    /// bounded buffer filled (or draining hit an error) mid-push: then the
    /// accepted prefix is safely inside the session and the caller resumes
    /// from the returned offset after [`poll`](Self::poll)ing or pushing
    /// the missing poses — `write(2)`-style short-write semantics, so no
    /// event is ever consumed twice or lost.
    ///
    /// # Errors
    ///
    /// * [`EmvsError::OutOfOrder`] when an event precedes one already
    ///   pushed (nothing is ingested),
    /// * [`EmvsError::Backpressure`] when the buffer is full even after
    ///   draining every ready frame and **zero** events could be accepted —
    ///   the caller must [`poll`](Self::poll) or push the missing poses
    ///   first.
    ///
    /// Errors are only returned when no event was ingested; a failure after
    /// part of the packet was accepted reports the short count instead, and
    /// the underlying error resurfaces on the next [`poll`](Self::poll) or
    /// push.
    pub fn push_events(&mut self, events: &[Event]) -> Result<usize, EmvsError> {
        if events.is_empty() {
            return Ok(0);
        }
        // Validate ordering of the whole packet up front so a rejected push
        // ingests nothing.
        if let Some(timestamp) = eventor_events::first_out_of_order(events, self.last_event_t) {
            return Err(EmvsError::OutOfOrder { timestamp });
        }
        let mut accepted = 0usize;
        while accepted < events.len() {
            // A cap lowered below the buffered count is backpressure, not
            // an underflow.
            let mut free = self
                .max_pending_events
                .saturating_sub(self.pending_events());
            if free == 0 {
                if let Err(e) = self.drain_ready() {
                    if accepted > 0 {
                        // Short write: the prefix is ingested; the drain
                        // error resurfaces on the next poll/push, so the
                        // caller never re-pushes (and duplicates) it.
                        return Ok(accepted);
                    }
                    return Err(e);
                }
                free = self
                    .max_pending_events
                    .saturating_sub(self.pending_events());
            }
            if free == 0 {
                if accepted == 0 {
                    return Err(EmvsError::Backpressure {
                        pending: self.pending_events(),
                        capacity: self.max_pending_events,
                    });
                }
                break;
            }
            let take = free.min(events.len() - accepted);
            let t = Instant::now();
            self.pending
                .extend_from_slice(&events[accepted..accepted + take]);
            self.profile.add(Stage::Aggregation, t.elapsed());
            self.events_pushed += take as u64;
            accepted += take;
            self.last_event_t = Some(events[accepted - 1].t);
        }
        Ok(accepted)
    }

    /// [`Self::push_events`] on an [`EventStream`] packet.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::push_events`].
    pub fn push_packet(&mut self, packet: &EventStream) -> Result<usize, EmvsError> {
        self.push_events(packet.as_slice())
    }

    /// Processes every ready frame (complete frames whose mid-point
    /// timestamp the trajectory already covers) and returns the session
    /// events emitted since the last poll.
    ///
    /// # Errors
    ///
    /// Propagates pose-interpolation, geometry and backend errors.
    pub fn poll(&mut self) -> Result<Vec<SessionEvent>, EmvsError> {
        self.drain_ready()?;
        Ok(std::mem::take(&mut self.outbox))
    }

    /// Takes any emitted session events without processing more frames.
    pub fn take_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.outbox)
    }

    /// Drops every buffered (unprocessed) event and returns how many were
    /// discarded.
    ///
    /// This is the explicit escape hatch for unrecoverable ingestion
    /// failures — e.g. events whose frame mid-point precedes the first
    /// pushed pose, which no future `push_pose` can cover (timestamps are
    /// strictly increasing): [`Self::poll`] keeps the failed frame buffered
    /// and repeats the error, and the caller decides whether to discard and
    /// move on. Already-processed frames and retired key frames are
    /// unaffected.
    pub fn discard_pending(&mut self) -> usize {
        let dropped = self.pending_events();
        self.pending.clear();
        self.cursor = 0;
        dropped
    }

    /// Flushes the session: processes **all** buffered frames (including the
    /// trailing partial frame) and retires the final key frame. Pose lookups
    /// beyond the pushed trajectory fail here, exactly as they do in the
    /// batch paths.
    ///
    /// Idempotent; [`Self::finish`] calls it implicitly.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::poll`].
    pub fn flush(&mut self) -> Result<(), EmvsError> {
        let n = self.config.events_per_frame;
        while self.pending_events() >= n {
            self.cut_and_process(n)?;
        }
        let trailing = self.pending_events();
        if trailing > 0 {
            self.cut_and_process(trailing)?;
        }
        if self.frames_in_keyframe > 0 {
            self.retire_active_keyframe()?;
        }
        Ok(())
    }

    /// Flushes and consumes the session, returning the accumulated output.
    ///
    /// # Errors
    ///
    /// [`EmvsError::NoEvents`] when no event was ever pushed, plus the
    /// [`Self::flush`] failure modes.
    pub fn finish(self) -> Result<EmvsOutput, EmvsError> {
        self.finish_with_backend().0
    }

    /// [`Self::finish`], additionally handing the backend back to the caller
    /// (even on error), so owners of stateful backends — e.g. the
    /// co-simulation's device — can recover them.
    pub fn finish_with_backend(mut self) -> (Result<EmvsOutput, EmvsError>, B) {
        if let Err(e) = self.flush() {
            return (Err(e), self.backend);
        }
        if self.events_pushed == 0 {
            return (Err(EmvsError::NoEvents), self.backend);
        }
        let output = EmvsOutput {
            keyframes: self.keyframes,
            global_map: self.global_map,
            profile: self.profile,
        };
        (Ok(output), self.backend)
    }

    /// Captures the complete mid-flight session state as a
    /// [`DriverCheckpoint`]: configuration, trajectory, unprocessed events,
    /// key-frame bookkeeping, retired reconstructions and the backend's
    /// partial DSI vote state. The session stays fully usable afterwards —
    /// checkpointing is observation, not shutdown.
    ///
    /// Restoring the checkpoint into a fresh driver
    /// ([`SessionDriver::restore`]) and feeding it the remainder of the
    /// stream reproduces the uninterrupted run bit-for-bit, at any shard
    /// count of the same datapath (and, for the quantized datapath, on the
    /// co-simulated device too).
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] when undrained session events are pending
    /// (callers must [`poll`](Self::poll) first, so no lifecycle
    /// notification is lost in the snapshot) or when the backend does not
    /// support checkpointing.
    pub fn snapshot(&mut self) -> Result<DriverCheckpoint, EmvsError> {
        if !self.outbox.is_empty() {
            return Err(EmvsError::Checkpoint {
                reason: format!(
                    "{} undrained session events: poll() before snapshotting",
                    self.outbox.len()
                ),
            });
        }
        let vote_state = self.backend.export_vote_state(&mut self.profile)?;
        Ok(DriverCheckpoint {
            camera: self.camera,
            config: self.config.clone(),
            max_pending_events: self.max_pending_events,
            trajectory: self.trajectory.clone(),
            pending: self.pending[self.cursor..].to_vec(),
            last_event_t: self.last_event_t,
            events_pushed: self.events_pushed,
            next_frame_index: self.next_frame_index,
            frames_since_switch: self.selector.frames_since_switch(),
            reference: self.reference,
            frames_in_keyframe: self.frames_in_keyframe,
            events_in_keyframe: self.events_in_keyframe,
            keyframes: self.keyframes.clone(),
            vote_state,
        })
    }

    /// Resurrects a checkpointed session into a **fresh** backend (no frames
    /// voted yet), exactly where [`Self::snapshot`] captured it: the next
    /// pushed event continues the original stream.
    ///
    /// The backend is typically of the same kind that produced the
    /// checkpoint; migrating across backends is supported wherever the vote
    /// state converts exactly (see [`BackendVoteState`]).
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] for internally inconsistent checkpoints or
    /// a vote state the backend cannot accept, plus [`Self::new`]'s
    /// validation failures.
    pub fn restore(backend: B, checkpoint: DriverCheckpoint) -> Result<Self, EmvsError> {
        let DriverCheckpoint {
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
        } = checkpoint;
        if (events_pushed as usize) < pending.len() {
            return Err(EmvsError::Checkpoint {
                reason: format!(
                    "inconsistent checkpoint: {} pending events but only {events_pushed} pushed",
                    pending.len()
                ),
            });
        }
        if pending.windows(2).any(|w| w[0].t > w[1].t) {
            return Err(EmvsError::Checkpoint {
                reason: "inconsistent checkpoint: pending events out of time order".into(),
            });
        }
        if let (Some(last), Some(tail)) = (last_event_t, pending.last()) {
            if tail.t > last {
                return Err(EmvsError::Checkpoint {
                    reason: "inconsistent checkpoint: pending events newer than last_event_t"
                        .into(),
                });
            }
        }
        let mut driver =
            Self::new(camera, config, backend)?.with_max_pending_events(max_pending_events);
        if pending.len() > driver.max_pending_events {
            return Err(EmvsError::Checkpoint {
                reason: format!(
                    "inconsistent checkpoint: {} pending events exceed the buffer cap of {}",
                    pending.len(),
                    driver.max_pending_events
                ),
            });
        }
        if reference.is_none() && (frames_in_keyframe > 0 || events_in_keyframe > 0) {
            return Err(EmvsError::Checkpoint {
                reason: "inconsistent checkpoint: an open key frame has no reference pose".into(),
            });
        }
        driver
            .backend
            .import_vote_state(vote_state, &mut driver.profile)?;
        driver.trajectory = trajectory;
        driver.pending = pending;
        driver.cursor = 0;
        driver.last_event_t = last_event_t;
        driver.events_pushed = events_pushed;
        driver.next_frame_index = next_frame_index;
        driver.selector.restore_frame_count(frames_since_switch);
        driver.reference = reference;
        driver.frames_in_keyframe = frames_in_keyframe;
        driver.events_in_keyframe = events_in_keyframe;
        // The global map is a deterministic fold of the retired key frames'
        // local clouds (see `retire_active_keyframe`), so it is rebuilt
        // rather than serialized.
        for kf in &keyframes {
            driver.global_map.merge(&kf.local_cloud);
        }
        driver.keyframes = keyframes;
        // Work counters restart from the checkpoint; stage wall times restart
        // at zero (they are measurements of this process, not session state).
        driver.profile.frames_processed = driver.next_frame_index as u64;
        driver.profile.events_processed = driver.events_pushed - driver.pending.len() as u64;
        driver.profile.keyframes = driver.keyframes.len() as u64;
        Ok(driver)
    }

    /// Whether the next complete frame can be processed (enough events and
    /// trajectory coverage of its mid-point timestamp).
    fn frame_ready(&self) -> bool {
        let n = self.config.events_per_frame;
        if self.pending_events() < n {
            return false;
        }
        let mid = 0.5 * (self.pending[self.cursor].t + self.pending[self.cursor + n - 1].t);
        matches!(self.trajectory.end_time(), Some(end) if end >= mid)
    }

    fn drain_ready(&mut self) -> Result<(), EmvsError> {
        while self.frame_ready() {
            let n = self.config.events_per_frame;
            self.cut_and_process(n)?;
        }
        Ok(())
    }

    /// Cuts the next `n` pending events into a frame (advancing the buffer
    /// cursor, O(1)) and processes it. The consumed prefix is compacted away
    /// once it dominates the buffer, keeping the total cost linear in the
    /// number of events.
    ///
    /// The cursor only advances when the frame processed successfully: a
    /// failed frame (e.g. a pose lookup outside the pushed trajectory) stays
    /// buffered, so an erroring `poll()` never silently drops events — the
    /// caller sees the same error again until the situation is resolved.
    fn cut_and_process(&mut self, n: usize) -> Result<(), EmvsError> {
        debug_assert!(n > 0 && self.pending_events() >= n);
        let buffer = std::mem::take(&mut self.pending);
        let start = self.cursor;
        let frame = &buffer[start..start + n];
        let timestamp = 0.5 * (frame[0].t + frame[n - 1].t);
        let result = self.process_frame(frame, timestamp);
        self.pending = buffer;
        if result.is_ok() {
            self.cursor += n;
            // The buffer-management copies are the session's analogue of the
            // batch `aggregate()` chunking pass; attribute them (together
            // with the ingestion copies in `push_events`) to Aggregation.
            let t = Instant::now();
            if self.cursor == self.pending.len() {
                self.pending.clear();
                self.cursor = 0;
            } else if self.cursor >= 4096 && self.cursor * 2 >= self.pending.len() {
                self.pending.drain(..self.cursor);
                self.cursor = 0;
            }
            self.profile.add(Stage::Aggregation, t.elapsed());
        }
        result
    }

    /// The per-frame body of the sequential golden path: pose lookup,
    /// key-frame switch check, geometry computation, backend vote.
    fn process_frame(&mut self, events: &[Event], timestamp: f64) -> Result<(), EmvsError> {
        let pose = self.trajectory.pose_at(timestamp)?;

        match self.reference {
            None => self.reference = Some(pose),
            Some(ref ref_pose) => {
                if self.selector.should_switch(ref_pose, &pose) {
                    self.retire_active_keyframe()?;
                    self.reference = Some(pose);
                    self.selector.reset();
                }
            }
        }
        let ref_pose = self.reference.expect("reference pose set above");

        let t = Instant::now();
        let geometry =
            FrameGeometry::compute(&ref_pose, &pose, &self.camera.intrinsics, &self.planes)?;
        self.profile.add(Stage::ComputeHomography, t.elapsed());

        let work = FrameWork {
            frame_index: self.next_frame_index,
            timestamp,
            events,
            reference_pose: ref_pose,
            frame_pose: pose,
            geometry: &geometry,
        };
        self.backend.vote_frame(&work, &mut self.profile)?;

        self.next_frame_index += 1;
        self.selector.register_frame();
        self.frames_in_keyframe += 1;
        self.events_in_keyframe += events.len();
        self.profile.frames_processed += 1;
        self.profile.events_processed += events.len() as u64;
        Ok(())
    }

    fn retire_active_keyframe(&mut self) -> Result<(), EmvsError> {
        let ref_pose = self.reference.expect("a key frame is active");
        let index = self.keyframes.len();
        let frames = self.frames_in_keyframe;
        let events = self.events_in_keyframe;
        let reconstruction =
            self.backend
                .retire_keyframe(&ref_pose, frames, events, &mut self.profile)?;
        let t = Instant::now();
        self.global_map.merge(&reconstruction.local_cloud);
        self.profile.add(Stage::Merging, t.elapsed());
        self.outbox.push(SessionEvent::SegmentRetired {
            index,
            frames,
            events,
        });
        self.outbox.push(SessionEvent::DepthMapReady {
            index,
            valid_pixels: reconstruction.depth_map.valid_count(),
        });
        self.outbox.push(SessionEvent::KeyframeReady {
            index,
            votes_cast: reconstruction.votes_cast,
            map_points: reconstruction.local_cloud.len(),
        });
        self.keyframes.push(reconstruction);
        self.profile.keyframes += 1;
        self.frames_in_keyframe = 0;
        self.events_in_keyframe = 0;
        Ok(())
    }
}

/// The complete state of a mid-flight session, captured by
/// [`SessionDriver::snapshot`] and resurrected by [`SessionDriver::restore`].
///
/// Everything the reconstruction is a function of is here: the configuration,
/// the trajectory pushed so far, the unprocessed pending events, the
/// key-frame bookkeeping (including the partially-accumulated selector
/// count), the retired reconstructions and the backend's partial DSI vote
/// state. Deliberately *not* here: the global map (a deterministic fold of
/// the key frames' local clouds, rebuilt on restore), the depth planes
/// (derived from the configuration) and stage wall times (measurements of a
/// process, not of the session).
///
/// `eventor-core`'s `SessionCheckpoint` wraps this in the durable
/// `eventor-evtr/1` `CKPT` container; this in-memory form is what the
/// driver layer exchanges.
#[derive(Debug, Clone)]
pub struct DriverCheckpoint {
    /// The session's camera model.
    pub camera: CameraModel,
    /// The EMVS configuration (depth planes are re-derived from it).
    pub config: EmvsConfig,
    /// The in-flight event bound.
    pub max_pending_events: usize,
    /// Every trajectory sample pushed so far.
    pub trajectory: Trajectory,
    /// Buffered events not yet aggregated into a processed frame.
    pub pending: Vec<Event>,
    /// Timestamp of the newest event ever pushed (ordering fence).
    pub last_event_t: Option<f64>,
    /// Total events pushed into the session.
    pub events_pushed: u64,
    /// Index the next processed frame will carry.
    pub next_frame_index: usize,
    /// Frames accumulated into the open key frame by the selector.
    pub frames_since_switch: usize,
    /// Pose of the active key reference view, if one is open.
    pub reference: Option<Pose>,
    /// Frames voted into the open key frame.
    pub frames_in_keyframe: usize,
    /// Events voted into the open key frame.
    pub events_in_keyframe: usize,
    /// Key frames retired so far, in stream order.
    pub keyframes: Vec<KeyframeReconstruction>,
    /// The backend's partial DSI vote state for the open key frame.
    pub vote_state: BackendVoteState,
}

/// Builds a [`KeyframeReconstruction`] from an accumulated DSI: structure
/// detection, world-frame point-cloud conversion, vote-count capture — the
/// one keyframe-finalization path every backend (the voting engine at any
/// shard count, cosim readback) shares.
pub fn finalize_volume<S: eventor_dsi::VoxelScore>(
    dsi: &DsiVolume<S>,
    detection: &DetectionConfig,
    camera: &CameraModel,
    reference_pose: &Pose,
    frames_used: usize,
    events_used: usize,
) -> KeyframeReconstruction {
    let depth_map = detect_structure(dsi, detection);
    let local_cloud = PointCloud::from_depth_map(&depth_map, &camera.intrinsics, reference_pose);
    KeyframeReconstruction {
        reference_pose: *reference_pose,
        depth_map,
        local_cloud,
        frames_used,
        events_used,
        votes_cast: dsi.votes_cast(),
    }
}

/// Runs a whole recording through a session on `backend`: the batch
/// reconstruction the unit tests of this crate compare against (the public
/// spelling is `eventor_core::SessionBuilder::reconstruct`).
///
/// # Errors
///
/// [`EmvsError::NoEvents`] for an empty stream, otherwise the session's
/// failure modes.
#[cfg(test)]
pub(crate) fn reconstruct_with_backend<B: ExecutionBackend>(
    camera: CameraModel,
    config: EmvsConfig,
    backend: B,
    events: &EventStream,
    trajectory: &Trajectory,
) -> Result<EmvsOutput, EmvsError> {
    if events.is_empty() {
        return Err(EmvsError::NoEvents);
    }
    let mut driver =
        SessionDriver::new(camera, config, backend)?.with_max_pending_events(usize::MAX);
    driver.push_trajectory(trajectory)?;
    driver.push_events(events.as_slice())?;
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventorOptions, ParallelConfig, VotingEngine, VotingMode, VOTE_WINDOW_EVENTS};
    use eventor_events::{DatasetConfig, Fnv64, Polarity, SequenceKind, SyntheticSequence};
    use eventor_geom::{UnitQuaternion, Vec3};

    fn sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    /// The engine on the baseline float datapath: the configured voting
    /// mode, no quantization.
    fn engine(
        seq: &SyntheticSequence,
        config: &EmvsConfig,
        parallel: ParallelConfig,
    ) -> VotingEngine {
        let options = EventorOptions {
            voting: config.voting,
            quantize: false,
        };
        VotingEngine::new(seq.camera, config, options, parallel).unwrap()
    }

    fn driver_for(seq: &SyntheticSequence, config: &EmvsConfig) -> SessionDriver<VotingEngine> {
        let backend = engine(seq, config, ParallelConfig::sequential());
        SessionDriver::new(seq.camera, config.clone(), backend).unwrap()
    }

    #[test]
    fn push_poll_finish_matches_batch_wrapper() {
        let seq = sequence();
        let config = config_for(&seq).with_voting(VotingMode::Nearest);
        let batch = reconstruct_with_backend(
            seq.camera,
            config.clone(),
            engine(&seq, &config, ParallelConfig::sequential()),
            &seq.events,
            &seq.trajectory,
        )
        .unwrap();

        let mut driver = driver_for(&seq, &config);
        driver.push_trajectory(&seq.trajectory).unwrap();
        let mut seen = Vec::new();
        for chunk in seq.events.as_slice().chunks(777) {
            driver.push_events(chunk).unwrap();
            seen.extend(driver.poll().unwrap());
        }
        driver.flush().unwrap();
        seen.extend(driver.take_events());
        let streamed = driver.finish().unwrap();

        assert_eq!(batch.keyframes.len(), streamed.keyframes.len());
        for (b, s) in batch.keyframes.iter().zip(&streamed.keyframes) {
            assert_eq!(b.votes_cast, s.votes_cast);
            assert_eq!(b.depth_map.depth_data(), s.depth_map.depth_data());
            assert_eq!(b.frames_used, s.frames_used);
            assert_eq!(b.events_used, s.events_used);
        }
        // Three lifecycle events per retired key frame, in order.
        assert_eq!(seen.len(), 3 * streamed.keyframes.len());
        assert!(matches!(
            seen[0],
            SessionEvent::SegmentRetired { index: 0, .. }
        ));
        assert!(matches!(
            seen[1],
            SessionEvent::DepthMapReady { index: 0, .. }
        ));
        assert!(matches!(
            seen[2],
            SessionEvent::KeyframeReady { index: 0, .. }
        ));
    }

    #[test]
    fn frames_wait_for_pose_coverage() {
        let seq = sequence();
        let config = config_for(&seq);
        let mut driver = driver_for(&seq, &config);
        driver.push_events(seq.events.as_slice()).unwrap();
        // No poses yet: nothing can be processed.
        assert!(driver.poll().unwrap().is_empty());
        assert_eq!(driver.pending_events(), seq.events.len());
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.flush().unwrap();
        assert!(!driver.keyframes().is_empty());
        assert_eq!(driver.pending_events(), 0);
    }

    #[test]
    fn backpressure_is_reported_when_the_buffer_is_full() {
        let seq = sequence();
        let config = config_for(&seq);
        let cap = 2 * config.events_per_frame;
        let mut driver = driver_for(&seq, &config).with_max_pending_events(cap);
        // Without poses frames are never ready, so the buffer must fill.
        let events = seq.events.as_slice();
        let mut pushed = 0;
        let err = loop {
            match driver.push_events(&events[pushed..pushed + config.events_per_frame]) {
                Ok(n) => {
                    assert_eq!(n, config.events_per_frame, "full frames fit whole");
                    pushed += n;
                }
                Err(e) => break e,
            }
            assert!(pushed <= cap, "buffer exceeded its bound");
        };
        assert!(matches!(err, EmvsError::Backpressure { .. }));
        // Pushing the poses unblocks the same session: the buffered frames
        // drain and the rejected packet can be pushed again.
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.poll().unwrap();
        assert_eq!(driver.pending_events(), 0);
        driver
            .push_events(&events[pushed..pushed + config.events_per_frame])
            .unwrap();
    }

    #[test]
    fn a_cap_lowered_below_the_buffer_is_backpressure() {
        let seq = sequence();
        let config = config_for(&seq);
        let n = config.events_per_frame;
        let events = seq.events.as_slice();
        let mut driver = driver_for(&seq, &config).with_max_pending_events(3 * n);
        assert_eq!(driver.push_events(&events[..3 * n]).unwrap(), 3 * n);
        // The cap clamps to one frame, two frames under the buffered count.
        let mut driver = driver.with_max_pending_events(0);
        assert!(matches!(
            driver.push_events(&events[3 * n..4 * n]),
            Err(EmvsError::Backpressure { .. })
        ));
        assert_eq!(driver.pending_events(), 3 * n);
        // Poses drain the buffer and the same events are accepted.
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.poll().unwrap();
        assert_eq!(driver.push_events(&events[3 * n..4 * n]).unwrap(), n);
    }

    #[test]
    fn out_of_order_events_are_rejected() {
        let seq = sequence();
        let config = config_for(&seq);
        let mut driver = driver_for(&seq, &config);
        let e1 = Event::new(1.0, 0, 0, Polarity::Positive);
        let e0 = Event::new(0.5, 0, 0, Polarity::Positive);
        driver.push_events(&[e1]).unwrap();
        assert!(matches!(
            driver.push_events(&[e0]),
            Err(EmvsError::OutOfOrder { .. })
        ));
        // Equal timestamps are allowed (sensors emit bursts).
        driver.push_events(&[e1]).unwrap();
    }

    #[test]
    fn oversized_packets_are_ingested_in_chunks() {
        let seq = sequence();
        let config = config_for(&seq);
        let cap = 2 * config.events_per_frame;
        // Poses first, then the entire stream (far larger than the buffer) in
        // one push: chunking + draining must accept it whole.
        let mut driver = driver_for(&seq, &config).with_max_pending_events(cap);
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.push_events(seq.events.as_slice()).unwrap();
        let streamed = driver.finish().unwrap();
        let batch = reconstruct_with_backend(
            seq.camera,
            config.clone(),
            engine(&seq, &config, ParallelConfig::sequential()),
            &seq.events,
            &seq.trajectory,
        )
        .unwrap();
        assert_eq!(batch.keyframes.len(), streamed.keyframes.len());
        assert_eq!(
            batch.profile.events_processed,
            streamed.profile.events_processed
        );
    }

    #[test]
    fn failed_frames_stay_buffered_and_can_be_discarded() {
        let seq = sequence();
        let config = config_for(&seq);
        let mut driver = driver_for(&seq, &config);
        // Events whose frame mid-points precede the first pose: pose lookup
        // fails and no future push_pose can cover them.
        let early: Vec<Event> = (0..config.events_per_frame)
            .map(|i| Event::new(i as f64 * 1e-4, 0, 0, Polarity::Positive))
            .collect();
        driver.push_events(&early).unwrap();
        driver.push_pose(100.0, Pose::identity()).unwrap();
        driver.push_pose(101.0, Pose::identity()).unwrap();
        // The error repeats without losing the events...
        assert!(driver.poll().is_err());
        assert_eq!(driver.pending_events(), config.events_per_frame);
        assert!(driver.poll().is_err());
        // ...until the caller explicitly discards them.
        assert_eq!(driver.discard_pending(), config.events_per_frame);
        assert!(driver.poll().unwrap().is_empty());
        assert_eq!(driver.pending_events(), 0);
    }

    #[test]
    fn sharded_spill_keeps_a_giant_single_keyframe_bit_identical() {
        // One key frame holding the whole stream, so the engine must vote
        // several windows into the DSI mid-key-frame — and stay
        // bit-identical to sequential. ThreePlanes at a finer contrast
        // threshold (230 k events, not 146 k) is long enough for more than
        // two windows.
        let mut dataset = DatasetConfig::fast_test();
        dataset.simulator.contrast_threshold = 0.1;
        let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &dataset).unwrap();
        let config = config_for(&seq)
            .with_voting(VotingMode::Nearest)
            .with_keyframe_distance(1e9);
        let run = |parallel: ParallelConfig| {
            reconstruct_with_backend(
                seq.camera,
                config.clone(),
                engine(&seq, &config, parallel),
                &seq.events,
                &seq.trajectory,
            )
            .unwrap()
        };
        let sequential = run(ParallelConfig::sequential());
        let sharded = run(ParallelConfig::with_shards(4));
        assert_eq!(sequential.keyframes.len(), 1);
        assert_eq!(sharded.keyframes.len(), 1);
        // A survivor casts at most one vote per plane, so more votes than
        // this means more than two full windows before the retire.
        let windows = (2 * VOTE_WINDOW_EVENTS * config.num_depth_planes) as u64;
        assert!(sequential.keyframes[0].votes_cast > windows);
        assert_eq!(
            sequential.keyframes[0].votes_cast,
            sharded.keyframes[0].votes_cast
        );
        assert_eq!(
            sequential.keyframes[0].depth_map.depth_data(),
            sharded.keyframes[0].depth_map.depth_data()
        );
    }

    /// A purely rotating DAVIS-class camera: in a quarter of a second it
    /// turns 75° about its y axis, then holds. The key frame never switches
    /// (the switch is on translation), and once the turn passes about 45°
    /// the quantized `PE_Z0` maps every event past the ±256 px Q9.7 range.
    /// 384 000 events: 1500 frames of 256, the second half's frames holding
    /// more parameter entries than a vote window.
    fn rotation_only_stream() -> (CameraModel, Vec<Event>, Trajectory) {
        let n = 384_000u32;
        let events = (0..n)
            .map(|i| {
                let (x, y) = ((i * 97) % 240, (i * 89 / 7) % 180);
                let polarity = if i % 3 == 0 {
                    Polarity::Negative
                } else {
                    Polarity::Positive
                };
                Event::new(f64::from(i) / f64::from(n), x as u16, y as u16, polarity)
            })
            .collect();
        let samples = (0..=100)
            .map(|i| {
                let t = f64::from(i) / 100.0;
                let angle = 75f64.to_radians() * (t / 0.25).min(1.0);
                let rotation = UnitQuaternion::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), angle);
                (t, Pose::new(rotation, Vec3::ZERO))
            })
            .collect();
        let trajectory = Trajectory::from_samples(samples).unwrap();
        (CameraModel::davis240_ideal(), events, trajectory)
    }

    #[test]
    fn frames_without_canonical_survivors_leave_the_buffer_unchanged() {
        // Every frame past the turn misses: it casts no vote, so it must add
        // nothing to the engine's buffer — else a key frame that never
        // retires grows the buffer without bound. The output is pinned to
        // the engine before the vote window, which voted every frame at one
        // shard.
        let (camera, events, trajectory) = rotation_only_stream();
        let mut config = EmvsConfig::default().with_depth_range(1.0, 4.0);
        config.events_per_frame = 256;
        let planes = config.num_depth_planes;
        let pins = [
            (EventorOptions::accelerator(), 1, 0xe360_984f_7a1a_ab8f),
            (EventorOptions::accelerator(), 3, 0xe360_984f_7a1a_ab8f),
            (EventorOptions::quantized_only(), 1, 0x666c_7917_ba61_386e),
        ];
        for (options, shards, pin) in pins {
            let config = config.clone().with_voting(options.voting);
            let parallel = ParallelConfig::with_shards(shards);
            let engine = VotingEngine::new(camera, &config, options, parallel).unwrap();
            let mut driver = SessionDriver::new(camera, config.clone(), engine).unwrap();
            driver.push_trajectory(&trajectory).unwrap();
            let mut loads = Vec::new();
            for packet in events.chunks(config.events_per_frame) {
                driver.push_events(packet).unwrap();
                driver.poll().unwrap();
                loads.push(driver.backend().buffered_load());
            }
            let label = format!("{options:?} x{shards}");
            assert!(
                loads.iter().all(|&load| load < VOTE_WINDOW_EVENTS),
                "{label}"
            );
            // Buffering the second half's frames would overflow a window.
            let tail = &loads[loads.len() / 2..];
            assert!(tail.len() * planes > VOTE_WINDOW_EVENTS);
            assert!(tail.iter().all(|&load| load == tail[0]), "{label}");
            let output = driver.finish().unwrap();
            assert_eq!(output.keyframes.len(), 1, "{label}");
            assert!(output.keyframes[0].votes_cast > 0, "{label}");
            let mut h = Fnv64::new();
            h.update_u64(output.keyframes[0].votes_cast);
            for &d in output.keyframes[0].depth_map.depth_data() {
                h.update_u64(d.to_bits());
            }
            assert_eq!(h.finish(), pin, "{label}: {:#x}", h.finish());
        }
    }

    #[test]
    fn finishing_an_empty_session_is_no_events() {
        let seq = sequence();
        let config = config_for(&seq);
        let driver = driver_for(&seq, &config);
        assert!(matches!(driver.finish(), Err(EmvsError::NoEvents)));
    }

    #[test]
    fn pose_lookup_outside_trajectory_errors_at_flush() {
        let seq = sequence();
        let config = config_for(&seq);
        let mut driver = driver_for(&seq, &config);
        // A trajectory that ends before the events do.
        driver.push_pose(-10.0, Pose::identity()).unwrap();
        driver
            .push_pose(-9.0, Pose::from_translation(Vec3::new(0.1, 0.0, 0.0)))
            .unwrap();
        driver.push_events(seq.events.as_slice()).unwrap();
        assert!(driver.flush().is_err());
    }

    #[test]
    fn snapshot_restore_reproduces_the_uninterrupted_run() {
        let seq = sequence();
        let config = config_for(&seq).with_voting(VotingMode::Nearest);
        let uninterrupted = reconstruct_with_backend(
            seq.camera,
            config.clone(),
            engine(&seq, &config, ParallelConfig::sequential()),
            &seq.events,
            &seq.trajectory,
        )
        .unwrap();

        // Run half the stream, checkpoint mid-flight (between key frames or
        // mid-key-frame, wherever the boundary lands), drop the session.
        let mut driver = driver_for(&seq, &config);
        driver.push_trajectory(&seq.trajectory).unwrap();
        let events = seq.events.as_slice();
        let cut = events.len() / 2;
        driver.push_events(&events[..cut]).unwrap();
        driver.poll().unwrap();
        let checkpoint = driver.snapshot().unwrap();
        assert!(checkpoint.events_pushed as usize == cut);
        drop(driver);

        // Restore into a fresh driver + backend and feed the remainder.
        let backend = engine(&seq, &config, ParallelConfig::sequential());
        let mut restored = SessionDriver::restore(backend, checkpoint).unwrap();
        restored.push_events(&events[cut..]).unwrap();
        let resumed = restored.finish().unwrap();

        assert_eq!(uninterrupted.keyframes.len(), resumed.keyframes.len());
        for (a, b) in uninterrupted.keyframes.iter().zip(&resumed.keyframes) {
            assert_eq!(a.votes_cast, b.votes_cast);
            assert_eq!(a.depth_map.depth_data(), b.depth_map.depth_data());
            assert_eq!(a.frames_used, b.frames_used);
            assert_eq!(a.events_used, b.events_used);
        }
        assert_eq!(uninterrupted.global_map.len(), resumed.global_map.len());
        assert_eq!(
            uninterrupted.profile.events_processed,
            resumed.profile.events_processed
        );
    }

    #[test]
    fn snapshot_restore_is_exact_for_the_sharded_engine_same_shape() {
        // f32 bilinear sums are order-sensitive, but the one-volume vote
        // state makes a restore at any shard count bit-exact even
        // mid-key-frame.
        let seq = sequence();
        let config = config_for(&seq).with_voting(VotingMode::Bilinear);
        let uninterrupted = reconstruct_with_backend(
            seq.camera,
            config.clone(),
            engine(&seq, &config, ParallelConfig::with_shards(4)),
            &seq.events,
            &seq.trajectory,
        )
        .unwrap();

        let backend = engine(&seq, &config, ParallelConfig::with_shards(4));
        let mut driver = SessionDriver::new(seq.camera, config.clone(), backend).unwrap();
        driver.push_trajectory(&seq.trajectory).unwrap();
        let events = seq.events.as_slice();
        let cut = 2 * events.len() / 3;
        driver.push_events(&events[..cut]).unwrap();
        driver.poll().unwrap();
        let checkpoint = driver.snapshot().unwrap();
        assert!(matches!(checkpoint.vote_state, BackendVoteState::Float(_)));
        drop(driver);

        for shards in [1, 3] {
            let backend = engine(&seq, &config, ParallelConfig::with_shards(shards));
            let mut restored = SessionDriver::restore(backend, checkpoint.clone()).unwrap();
            restored.push_events(&events[cut..]).unwrap();
            let resumed = restored.finish().unwrap();
            assert_eq!(uninterrupted.keyframes.len(), resumed.keyframes.len());
            for (a, b) in uninterrupted.keyframes.iter().zip(&resumed.keyframes) {
                assert_eq!(a.votes_cast, b.votes_cast, "x{shards}");
                assert_eq!(
                    a.depth_map.depth_data(),
                    b.depth_map.depth_data(),
                    "x{shards}"
                );
            }
        }
    }

    #[test]
    fn snapshot_with_undrained_events_is_refused() {
        let seq = sequence();
        let config = config_for(&seq).with_voting(VotingMode::Nearest);
        let mut driver = driver_for(&seq, &config);
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.push_events(seq.events.as_slice()).unwrap();
        driver.flush().unwrap();
        // flush() retired key frames but nothing polled their events yet.
        let err = driver.snapshot().unwrap_err();
        assert!(matches!(err, EmvsError::Checkpoint { .. }));
        assert!(err.to_string().contains("poll()"));
        driver.poll().unwrap();
        driver.snapshot().unwrap();
    }

    #[test]
    fn restore_rejects_inconsistent_checkpoints_and_wrong_geometry() {
        let seq = sequence();
        let config = config_for(&seq).with_voting(VotingMode::Nearest);
        let mut driver = driver_for(&seq, &config);
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver
            .push_events(&seq.events.as_slice()[..4 * config.events_per_frame])
            .unwrap();
        driver.poll().unwrap();
        let checkpoint = driver.snapshot().unwrap();

        // More pending events than ever pushed.
        let mut bad = checkpoint.clone();
        bad.events_pushed = 1;
        bad.pending = seq.events.as_slice()[..8].to_vec();
        let backend = engine(&seq, &config, ParallelConfig::sequential());
        assert!(matches!(
            SessionDriver::restore(backend, bad),
            Err(EmvsError::Checkpoint { .. })
        ));

        // More pending events than the buffer cap, which clamps to one
        // frame: `push_events` would underflow computing its free space.
        let mut bad = checkpoint.clone();
        bad.max_pending_events = 0;
        bad.pending = seq.events.as_slice()[..config.events_per_frame + 1].to_vec();
        let backend = engine(&seq, &config, ParallelConfig::sequential());
        let err = SessionDriver::restore(backend, bad).unwrap_err();
        assert!(matches!(err, EmvsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("cap"), "{err}");

        // An open key frame without a reference pose: `finish` would retire
        // it with no pose to retire it at.
        for (frames, events) in [(1, 0), (0, 1)] {
            let mut bad = checkpoint.clone();
            bad.reference = None;
            bad.frames_in_keyframe = frames;
            bad.events_in_keyframe = events;
            let backend = engine(&seq, &config, ParallelConfig::sequential());
            let err = SessionDriver::restore(backend, bad).unwrap_err();
            assert!(matches!(err, EmvsError::Checkpoint { .. }), "{err}");
            assert!(err.to_string().contains("reference pose"), "{err}");
        }

        // Volume geometry that does not match the backend.
        let mut bad = checkpoint.clone();
        bad.vote_state =
            BackendVoteState::Float(DsiVolume::new(2, 2, config.depth_planes().unwrap()).unwrap());
        let backend = engine(&seq, &config, ParallelConfig::sequential());
        assert!(matches!(
            SessionDriver::restore(backend, bad),
            Err(EmvsError::Checkpoint { .. })
        ));

        // Quantized state into the float engine.
        let mut bad = checkpoint;
        bad.vote_state = BackendVoteState::Quantized(
            DsiVolume::new(2, 2, config.depth_planes().unwrap()).unwrap(),
        );
        let backend = engine(&seq, &config, ParallelConfig::sequential());
        assert!(matches!(
            SessionDriver::restore(backend, bad),
            Err(EmvsError::Checkpoint { .. })
        ));
    }

    #[test]
    fn boxed_backend_forwards_the_contract() {
        let seq = sequence();
        let config = config_for(&seq);
        let backend: Box<dyn ExecutionBackend> =
            Box::new(engine(&seq, &config, ParallelConfig::sequential()));
        assert_eq!(backend.name(), "software");
        assert!(backend.as_any().is_some());
        let output =
            reconstruct_with_backend(seq.camera, config, backend, &seq.events, &seq.trajectory)
                .unwrap();
        assert!(!output.keyframes.is_empty());
    }
}
