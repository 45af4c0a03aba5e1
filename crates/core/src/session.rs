//! The unified streaming **`EventorSession`** API: push-based incremental
//! reconstruction with pluggable execution backends.
//!
//! This is the public entry point the ROADMAP's online/multi-backend goal
//! asks for. One validated configuration path ([`SessionBuilder`]) selects an
//! [`ExecutionBackend`] trait object —
//!
//! * the one [`VotingEngine`] — every [`EventorOptions`] datapath at any
//!   shard count, spelled [`SoftwareBackend`] (one shard, every frame voted
//!   as it is ingested) or [`ShardedBackend`] (the DSI's depth planes split
//!   over worker shards, bit-identical to one shard),
//! * [`CosimBackend`] — the functional `eventor-hwsim` device voting into
//!   the one DSI the backend owns,
//! * any user type implementing [`ExecutionBackend`]
//!   (`eventor-backend/1`, `docs/ARCHITECTURE.md` §6).
//!
//! Ingestion is push-based and backpressure-aware: [`EventorSession::push_pose`]
//! and [`EventorSession::push_events`] / [`EventorSession::push_packet`] feed
//! the session, [`EventorSession::poll`] drains ready frames and yields
//! [`SessionEvent`] lifecycle notifications, and
//! [`EventorSession::finish`] flushes the trailing partial frame and returns
//! the batch-shaped [`SessionOutput`]. [`SessionBuilder::reconstruct`] is
//! the batch entry point: build, push the whole recording, finish. For the
//! quantized nearest-voting datapath the output is **bit-identical** across
//! every backend and arbitrary packet boundaries
//! (`tests/session_equivalence.rs`).
//!
//! Finished key frames can optionally be fused incrementally into an
//! `eventor-map` [`GlobalMap`] ([`SessionBuilder::fuse_into_map`]), emitting
//! [`SessionEvent::MapFused`] per key frame.

use crate::cosim::{CosimBackend, CosimReport};
use eventor_emvs::{
    EmvsConfig, EmvsError, EmvsOutput, EventorOptions, ExecutionBackend, KeyframeReconstruction,
    ParallelConfig, SessionDriver, SessionEvent, StageProfile, VotingEngine,
    DEFAULT_MAX_PENDING_EVENTS,
};
use eventor_events::{Event, EventStream};
use eventor_geom::{CameraModel, Pose, Trajectory};
use eventor_hwsim::AcceleratorConfig;
use eventor_map::{GlobalMap, GlobalMapConfig};

/// The `"software"` spelling of the one [`VotingEngine`]: one shard, every
/// frame voted inline on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareBackend;

// `new` returns the engine, not `Self`: these types exist only to keep the
// `SoftwareBackend::new` / `ShardedBackend::new` spellings callers use.
#[allow(clippy::new_ret_no_self)]
impl SoftwareBackend {
    /// Builds the engine at one shard.
    ///
    /// # Errors
    ///
    /// Same contract as [`VotingEngine::new`].
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        options: EventorOptions,
    ) -> Result<VotingEngine, EmvsError> {
        VotingEngine::new(camera, config, options, ParallelConfig::sequential())
    }
}

/// The `"sharded"` spelling of the one [`VotingEngine`]: the DSI's depth
/// planes split over worker shards. For every datapath the output is
/// bit-identical at every shard count; see `docs/ARCHITECTURE.md` §5.
#[derive(Debug, Clone, Copy)]
pub struct ShardedBackend;

#[allow(clippy::new_ret_no_self)]
impl ShardedBackend {
    /// Builds the engine at `parallel`'s shard count.
    ///
    /// # Errors
    ///
    /// Same contract as [`VotingEngine::new`].
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        options: EventorOptions,
        parallel: ParallelConfig,
    ) -> Result<VotingEngine, EmvsError> {
        VotingEngine::new(camera, config, options, parallel)
    }
}

/// Backend selection recorded by the builder until [`SessionBuilder::build`].
#[derive(Debug)]
enum BackendChoice {
    Engine(EventorOptions, ParallelConfig),
    Cosim(AcceleratorConfig),
    Custom(Box<dyn ExecutionBackend>),
}

/// Builder of an [`EventorSession`]: one validated configuration path for
/// every backend.
///
/// # Examples
///
/// A runnable, compile-checked builder walkthrough (every combinator):
///
/// ```
/// use eventor_core::{EventorOptions, EventorSession, ParallelConfig};
/// use eventor_emvs::EmvsConfig;
/// use eventor_geom::CameraModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let session = EventorSession::builder(CameraModel::davis240_ideal(), EmvsConfig::default())
///     .sharded(EventorOptions::accelerator(), ParallelConfig::with_shards(4))
///     .max_pending_events(64 * 1024)
///     .build()?;
/// assert_eq!(session.backend_name(), "sharded");
///
/// // The default backend is the sequential software datapath.
/// let session =
///     EventorSession::builder(CameraModel::davis240_ideal(), EmvsConfig::default()).build()?;
/// assert_eq!(session.backend_name(), "software");
///
/// // Invalid configurations fail at `build()`, through the one shared
/// // validation path.
/// let bad = EmvsConfig {
///     num_depth_planes: 1,
///     ..EmvsConfig::default()
/// };
/// assert!(EventorSession::builder(CameraModel::davis240_ideal(), bad)
///     .build()
///     .is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    camera: CameraModel,
    config: EmvsConfig,
    backend: BackendChoice,
    fusion: Option<GlobalMapConfig>,
    max_pending_events: usize,
}

impl SessionBuilder {
    /// Selects the voting engine at one shard (default:
    /// [`EventorOptions::accelerator`]).
    pub fn software(mut self, options: EventorOptions) -> Self {
        self.backend = BackendChoice::Engine(options, ParallelConfig::sequential());
        self
    }

    /// Selects the voting engine at `parallel`'s shard count.
    pub fn sharded(mut self, options: EventorOptions, parallel: ParallelConfig) -> Self {
        self.backend = BackendChoice::Engine(options, parallel);
        self
    }

    /// Selects the co-simulated `eventor-hwsim` device. The accelerator
    /// configuration is aligned with the EMVS configuration at build time
    /// (frame size, plane count, sensor resolution).
    pub fn cosim(mut self, accelerator: AcceleratorConfig) -> Self {
        self.backend = BackendChoice::Cosim(accelerator);
        self
    }

    /// Installs a custom execution backend.
    pub fn custom_backend(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.backend = BackendChoice::Custom(backend);
        self
    }

    /// Fuses every finished key frame into an incremental `eventor-map`
    /// [`GlobalMap`] and emits [`SessionEvent::MapFused`] per key frame.
    pub fn fuse_into_map(mut self, config: GlobalMapConfig) -> Self {
        self.fusion = Some(config);
        self
    }

    /// Bounds the session's pending-event buffer (default
    /// [`DEFAULT_MAX_PENDING_EVENTS`]; clamped to at least one frame).
    pub fn max_pending_events(mut self, cap: usize) -> Self {
        self.max_pending_events = cap;
        self
    }

    /// Builds the configured backend (the shared construction path of
    /// [`Self::build`] and [`Self::restore`]).
    fn build_backend(
        camera: CameraModel,
        config: &EmvsConfig,
        choice: BackendChoice,
    ) -> Result<Box<dyn ExecutionBackend>, EmvsError> {
        Ok(match choice {
            BackendChoice::Engine(options, parallel) => {
                Box::new(VotingEngine::new(camera, config, options, parallel)?)
            }
            BackendChoice::Cosim(accelerator) => Box::new(CosimBackend::new(
                camera,
                config,
                accelerator,
                ParallelConfig::sequential(),
            )?),
            BackendChoice::Custom(backend) => backend,
        })
    }

    /// Rebuilds a mid-flight session from a [`SessionCheckpoint`] on the
    /// backend this builder selected — which need not be the backend kind
    /// that produced the checkpoint (the vote state migrates whenever the
    /// score types are compatible; see `docs/ARCHITECTURE.md` §3).
    ///
    /// The builder's camera and configuration must equal the checkpointed
    /// ones bit-for-bit: a restored session that silently reinterpreted the
    /// vote state under different geometry would be a wrong answer, not a
    /// resumed one. Use [`SessionCheckpoint::camera`] /
    /// [`SessionCheckpoint::config`] to construct a matching builder.
    ///
    /// [`SessionCheckpoint`]: crate::SessionCheckpoint
    /// [`SessionCheckpoint::camera`]: crate::SessionCheckpoint::camera
    /// [`SessionCheckpoint::config`]: crate::SessionCheckpoint::config
    ///
    /// # Errors
    ///
    /// [`EmvsError::Checkpoint`] when the builder disagrees with the
    /// checkpoint (camera, configuration, fusion enabled, incompatible vote
    /// state) or the checkpoint is internally inconsistent, plus the
    /// [`Self::build`] failure modes.
    pub fn restore(
        self,
        checkpoint: crate::SessionCheckpoint,
    ) -> Result<EventorSession, EmvsError> {
        if self.fusion.is_some() {
            return Err(EmvsError::Checkpoint {
                reason: "sessions with incremental map fusion cannot be restored".into(),
            });
        }
        if self.camera != *checkpoint.camera() {
            return Err(EmvsError::Checkpoint {
                reason: "builder camera model differs from the checkpointed one".into(),
            });
        }
        if self.config != *checkpoint.config() {
            return Err(EmvsError::Checkpoint {
                reason: "builder configuration differs from the checkpointed one".into(),
            });
        }
        let backend = Self::build_backend(self.camera, &self.config, self.backend)?;
        // The checkpoint carries the pending-buffer cap; the builder's
        // (possibly default) cap must not override it.
        let driver = SessionDriver::restore(backend, checkpoint.into_driver())?;
        Ok(EventorSession {
            driver,
            fusion: None,
            fused_keyframes: 0,
        })
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations
    /// (via [`EmvsConfig::validate`] — the single validation path) or an
    /// invalid fusion-map resolution, and [`EmvsError::Dsi`] when backend
    /// state cannot be allocated.
    pub fn build(self) -> Result<EventorSession, EmvsError> {
        // Validation happens once, inside the backend constructor and
        // `SessionDriver::new` (both independently-constructible public
        // APIs) — no extra copy of the checks here.
        let backend = Self::build_backend(self.camera, &self.config, self.backend)?;
        let driver = SessionDriver::new(self.camera, self.config, backend)?
            .with_max_pending_events(self.max_pending_events);
        let fusion = match self.fusion {
            Some(config) => Some(
                GlobalMap::new(config).map_err(|e| EmvsError::InvalidConfig {
                    reason: format!("fusion map: {e}"),
                })?,
            ),
            None => None,
        };
        Ok(EventorSession {
            driver,
            fusion,
            fused_keyframes: 0,
        })
    }

    /// Builds the session and reconstructs a whole recorded stream in one
    /// call: the batch entry point. The pending-event buffer is unbounded
    /// (a [`Self::max_pending_events`] cap does not apply), the trajectory
    /// and then every event are pushed, and the session is finished.
    ///
    /// # Errors
    ///
    /// The [`Self::build`] failure modes, then [`EmvsError::NoEvents`] for an
    /// empty stream and the [`EventorSession::finish`] failure modes.
    pub fn reconstruct(
        self,
        events: &EventStream,
        trajectory: &Trajectory,
    ) -> Result<SessionOutput, EmvsError> {
        let mut session = self.max_pending_events(usize::MAX).build()?;
        session.push_trajectory(trajectory)?;
        session.push_events(events.as_slice())?;
        session.finish()
    }
}

/// Everything a finished session produced.
#[derive(Debug)]
pub struct SessionOutput {
    /// The reconstruction: retired key frames, merged global map and stage
    /// profile.
    pub output: EmvsOutput,
    /// Lifecycle events emitted by the final flush (key frames retired at
    /// `finish` time that were never polled).
    pub events: Vec<SessionEvent>,
    /// The incremental global map, when fusion was enabled.
    pub fused_map: Option<GlobalMap>,
    /// The accelerator activity report, when the cosim backend ran.
    pub cosim_report: Option<CosimReport>,
}

/// A streaming reconstruction session over a pluggable execution backend:
/// push-based incremental ingestion (poses + event packets), lifecycle
/// notifications via [`poll`](Self::poll), bounded in-flight memory with
/// backpressure, and optional incremental map fusion.
///
/// # Examples
///
/// The full push/poll/finish quickstart, runnable as a doctest (a reduced
/// synthetic sequence stands in for a live sensor + odometry feed):
///
/// ```
/// use eventor_core::{EventorOptions, EventorSession, SessionEvent};
/// use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
/// use eventor_core::config_for_sequence;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())?;
/// let mut session = EventorSession::builder(seq.camera, config_for_sequence(&seq, 50))
///     .software(EventorOptions::accelerator())
///     .build()?;
/// for sample in seq.trajectory.iter() {
///     session.push_pose(sample.timestamp, sample.pose)?;
/// }
/// let mut ready = 0;
/// for packet in seq.events.packets(4096) {
///     session.push_events(packet)?;
///     for event in session.poll()? {
///         if let SessionEvent::KeyframeReady { index, .. } = event {
///             println!("keyframe {index} ready");
///             ready += 1;
///         }
///     }
/// }
/// let finished = session.finish()?;
/// assert!(!finished.output.keyframes.is_empty());
/// assert!(ready <= finished.output.keyframes.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventorSession {
    driver: SessionDriver<Box<dyn ExecutionBackend>>,
    fusion: Option<GlobalMap>,
    fused_keyframes: usize,
}

impl EventorSession {
    /// Starts building a session for the given camera and configuration
    /// (software accelerator backend unless overridden).
    pub fn builder(camera: CameraModel, config: EmvsConfig) -> SessionBuilder {
        SessionBuilder {
            camera,
            config,
            backend: BackendChoice::Engine(
                EventorOptions::accelerator(),
                ParallelConfig::sequential(),
            ),
            fusion: None,
            max_pending_events: DEFAULT_MAX_PENDING_EVENTS,
        }
    }

    /// Short identifier of the active backend.
    pub fn backend_name(&self) -> &'static str {
        self.driver.backend().name()
    }

    /// Whether incremental map fusion is attached (fused sessions cannot be
    /// checkpointed).
    pub(crate) fn fusion_enabled(&self) -> bool {
        self.fusion.is_some()
    }

    /// Mutable driver access for the checkpoint face (`crate::checkpoint`).
    pub(crate) fn driver_mut(&mut self) -> &mut SessionDriver<Box<dyn ExecutionBackend>> {
        &mut self.driver
    }

    /// The EMVS configuration.
    pub fn config(&self) -> &EmvsConfig {
        self.driver.config()
    }

    /// Events buffered but not yet aggregated into a processed frame.
    pub fn pending_events(&self) -> usize {
        self.driver.pending_events()
    }

    /// Key frames retired so far.
    pub fn keyframes(&self) -> &[KeyframeReconstruction] {
        self.driver.keyframes()
    }

    /// The per-stage runtime profile accumulated so far. The built-in
    /// backends report the DSI vote `V` fused into `P{Z0;Zi} + G` (see
    /// [`eventor_emvs::Stage`]).
    pub fn profile(&self) -> &StageProfile {
        self.driver.profile()
    }

    /// The incremental global map (when fusion is enabled).
    pub fn fused_map(&self) -> Option<&GlobalMap> {
        self.fusion.as_ref()
    }

    /// The accelerator activity report accumulated so far (cosim backend
    /// only).
    pub fn cosim_report(&self) -> Option<CosimReport> {
        self.driver
            .backend()
            .as_any()
            .and_then(|a| a.downcast_ref::<CosimBackend>())
            .map(|b| b.report())
    }

    /// Appends one trajectory sample (strictly increasing timestamps).
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionDriver::push_pose`].
    pub fn push_pose(&mut self, timestamp: f64, pose: Pose) -> Result<(), EmvsError> {
        self.driver.push_pose(timestamp, pose)
    }

    /// Appends every sample of a trajectory.
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionDriver::push_trajectory`].
    pub fn push_trajectory(&mut self, trajectory: &Trajectory) -> Result<(), EmvsError> {
        self.driver.push_trajectory(trajectory)
    }

    /// Pushes a packet of time-ordered events (any size), returning the
    /// number of events ingested — `write(2)`-style short-write semantics
    /// when the bounded buffer fills mid-push (see
    /// [`SessionDriver::push_events`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionDriver::push_events`] —
    /// [`EmvsError::Backpressure`] when the buffer is full and nothing could
    /// be accepted, [`EmvsError::OutOfOrder`] for non-monotonic events.
    pub fn push_events(&mut self, events: &[Event]) -> Result<usize, EmvsError> {
        self.driver.push_events(events)
    }

    /// [`Self::push_events`] on an [`EventStream`] packet.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::push_events`].
    pub fn push_packet(&mut self, packet: &EventStream) -> Result<usize, EmvsError> {
        self.driver.push_packet(packet)
    }

    /// Drops every buffered (unprocessed) event and returns how many were
    /// discarded — the explicit escape hatch for events whose poses can
    /// never arrive (see [`SessionDriver::discard_pending`]).
    pub fn discard_pending(&mut self) -> usize {
        self.driver.discard_pending()
    }

    /// Processes **all** buffered frames (including the trailing partial
    /// frame) and retires the final key frame, without consuming the
    /// session.
    ///
    /// Call this before [`Self::finish`] when a flush failure must be
    /// recoverable: on error the session — retired key frames, fused map,
    /// backend state — stays intact, so the caller can push the missing
    /// poses or [`Self::discard_pending`] and try again. Lifecycle events
    /// from the flush arrive with the next [`Self::poll`] or in
    /// [`SessionOutput::events`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionDriver::flush`].
    pub fn flush(&mut self) -> Result<(), EmvsError> {
        self.driver.flush()
    }

    /// Processes every ready frame and returns the lifecycle events emitted
    /// since the last poll (including [`SessionEvent::MapFused`] when fusion
    /// is enabled).
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionDriver::poll`].
    pub fn poll(&mut self) -> Result<Vec<SessionEvent>, EmvsError> {
        let mut events = self.driver.poll()?;
        self.fuse_new(&mut events);
        Ok(events)
    }

    /// Flushes the trailing partial frame, retires the final key frame and
    /// returns everything the session produced.
    ///
    /// # Errors
    ///
    /// [`EmvsError::NoEvents`] when no event was ever pushed, plus the
    /// [`SessionDriver::flush`] failure modes.
    pub fn finish(mut self) -> Result<SessionOutput, EmvsError> {
        self.driver.flush()?;
        let mut events = self.driver.take_events();
        self.fuse_new(&mut events);
        let fused_map = self.fusion.take();
        let (result, backend) = self.driver.finish_with_backend();
        let output = result?;
        let cosim_report = backend
            .as_any()
            .and_then(|a| a.downcast_ref::<CosimBackend>())
            .map(|b| b.report());
        Ok(SessionOutput {
            output,
            events,
            fused_map,
            cosim_report,
        })
    }

    /// Fuses any not-yet-fused retired key frames into the attached map,
    /// inserting each `MapFused` event directly after its key frame's
    /// `KeyframeReady` so the per-key-frame lifecycle order of Contract 6.2
    /// (`docs/ARCHITECTURE.md` §6) holds even when one poll retires several
    /// key frames.
    fn fuse_new(&mut self, events: &mut Vec<SessionEvent>) {
        let Some(map) = self.fusion.as_mut() else {
            return;
        };
        let keyframes = self.driver.keyframes();
        if self.fused_keyframes == keyframes.len() {
            return;
        }
        let mut fuse = |index: usize, out: &mut Vec<SessionEvent>| {
            let reconstruction = &keyframes[index];
            let delta =
                map.fuse_incremental(&reconstruction.local_cloud, &reconstruction.reference_pose);
            out.push(SessionEvent::MapFused {
                index,
                points: delta.points,
                new_voxels: delta.new_voxels,
            });
        };
        let mut out = Vec::with_capacity(events.len() + keyframes.len() - self.fused_keyframes);
        for event in events.drain(..) {
            let ready_index = match &event {
                SessionEvent::KeyframeReady { index, .. } => Some(*index),
                _ => None,
            };
            out.push(event);
            if let Some(index) = ready_index {
                if index == self.fused_keyframes {
                    fuse(index, &mut out);
                    self.fused_keyframes += 1;
                }
            }
        }
        // Catch-up for key frames whose KeyframeReady was consumed earlier
        // (defensive; cannot happen through the public API).
        while self.fused_keyframes < keyframes.len() {
            fuse(self.fused_keyframes, &mut out);
            self.fused_keyframes += 1;
        }
        *events = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_for_sequence;
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

    fn sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    /// The batch reconstruction of `seq` on the one-shard engine.
    fn software_output(seq: &SyntheticSequence, options: EventorOptions) -> EmvsOutput {
        EventorSession::builder(seq.camera, config_for(seq))
            .software(options)
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap()
            .output
    }

    /// AbsRel of the primary key frame against the rendered ground truth.
    fn primary_abs_rel(seq: &SyntheticSequence, output: &EmvsOutput) -> f64 {
        let primary = output.primary().expect("at least one key frame");
        let gt = seq.ground_truth_depth_at(&primary.reference_pose);
        primary
            .depth_map
            .compare_to_ground_truth(gt.as_slice())
            .unwrap()
            .abs_rel
    }

    /// The three built-in backends, all on the accelerator datapath.
    fn builtin_backends(
        camera: CameraModel,
        config: &EmvsConfig,
    ) -> [(&'static str, SessionBuilder); 3] {
        let builder = || EventorSession::builder(camera, config.clone());
        [
            (
                "software",
                builder().software(EventorOptions::accelerator()),
            ),
            (
                "sharded",
                builder().sharded(
                    EventorOptions::accelerator(),
                    ParallelConfig::with_shards(3),
                ),
            ),
            ("cosim", builder().cosim(AcceleratorConfig::default())),
        ]
    }

    #[test]
    fn reconstruct_is_one_call_on_every_builtin_backend() {
        let seq = sequence();
        let config = config_for_sequence(&seq, 60);
        let mut reference: Option<EmvsOutput> = None;
        for (name, builder) in builtin_backends(seq.camera, &config) {
            let finished = builder.reconstruct(&seq.events, &seq.trajectory).unwrap();
            let output = finished.output;
            assert!(!output.keyframes.is_empty(), "{name}");
            match finished.cosim_report {
                Some(report) => {
                    assert_eq!(name, "cosim");
                    assert_eq!(report.events_in, output.profile.events_processed);
                }
                None => assert_ne!(name, "cosim"),
            }
            match &reference {
                None => reference = Some(output),
                Some(r) => {
                    assert_eq!(r.keyframes.len(), output.keyframes.len(), "{name}");
                    for (a, b) in r.keyframes.iter().zip(&output.keyframes) {
                        assert_eq!(a.votes_cast, b.votes_cast, "{name}");
                        assert_eq!(a.depth_map.depth_data(), b.depth_map.depth_data(), "{name}");
                    }
                    assert_eq!(r.global_map.len(), output.global_map.len(), "{name}");
                    assert_eq!(
                        r.profile.events_processed, output.profile.events_processed,
                        "{name}"
                    );
                }
            }
        }

        let still = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 1.0, 2);
        for (name, builder) in builtin_backends(seq.camera, &config) {
            assert!(
                matches!(
                    builder.reconstruct(&EventStream::new(), &still),
                    Err(EmvsError::NoEvents)
                ),
                "{name}"
            );
        }
        let bad = EmvsConfig {
            num_depth_planes: 1,
            ..config
        };
        for (name, builder) in builtin_backends(seq.camera, &bad) {
            assert!(
                matches!(
                    builder.reconstruct(&seq.events, &seq.trajectory),
                    Err(EmvsError::InvalidConfig { .. })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn accelerator_pipeline_reconstructs_with_low_abs_rel() {
        let seq = sequence();
        let out = software_output(&seq, EventorOptions::accelerator());
        assert!(out.primary().unwrap().depth_map.valid_count() > 50);
        let abs_rel = primary_abs_rel(&seq, &out);
        assert!(abs_rel < 0.12, "AbsRel {abs_rel:.4}");
    }

    #[test]
    fn reformulated_accuracy_close_to_baseline() {
        // The Fig. 7a claim: the fully reformulated datapath stays within a
        // small AbsRel difference of the original EMVS.
        let seq = sequence();
        let baseline = primary_abs_rel(&seq, &software_output(&seq, EventorOptions::exact()));
        let reformulated =
            primary_abs_rel(&seq, &software_output(&seq, EventorOptions::accelerator()));
        assert!(
            (reformulated - baseline).abs() < 0.05,
            "reformulated {reformulated:.4} vs baseline {baseline:.4}"
        );
    }

    #[test]
    fn quantized_only_and_nearest_only_both_work() {
        let seq = sequence();
        for options in [
            EventorOptions::quantized_only(),
            EventorOptions::nearest_only(),
        ] {
            let out = software_output(&seq, options);
            let abs_rel = primary_abs_rel(&seq, &out);
            assert!(abs_rel < 0.15, "{options:?}: AbsRel {abs_rel:.4}");
            assert!(
                out.primary().unwrap().depth_map.valid_count() > 30,
                "{options:?}"
            );
        }
    }

    #[test]
    fn builder_validates_through_the_shared_path() {
        let cam = CameraModel::davis240_ideal();
        let bad = EmvsConfig {
            num_depth_planes: 1,
            ..Default::default()
        };
        assert!(EventorSession::builder(cam, bad).build().is_err());
        let session = EventorSession::builder(cam, EmvsConfig::default())
            .build()
            .unwrap();
        assert_eq!(session.backend_name(), "software");
    }

    #[test]
    fn builder_refuses_detection_parameters_that_would_panic_at_retirement() {
        // Each of these used to build and then panic at the first key
        // frame: in the median filter, or allocating the blur kernel.
        let cam = CameraModel::davis240_ideal();
        let detections = [
            (4, 4.0),
            (5, f64::INFINITY),
            (5, 1e18),
            (5, -1.0),
            (513, 4.0),
        ]
        .map(
            |(median_filter_size, adaptive_sigma)| eventor_dsi::DetectionConfig {
                median_filter_size,
                adaptive_sigma,
                ..Default::default()
            },
        );
        for detection in detections {
            let config = EmvsConfig::default().with_detection(detection);
            for (name, builder) in builtin_backends(cam, &config) {
                assert!(
                    matches!(builder.build(), Err(EmvsError::InvalidConfig { .. })),
                    "{name}: {detection:?}"
                );
            }
        }
    }

    #[test]
    fn all_builtin_backends_build() {
        let cam = CameraModel::davis240_ideal();
        let config = EmvsConfig::default();
        for (builder, name) in [
            (
                EventorSession::builder(cam, config.clone()).software(EventorOptions::exact()),
                "software",
            ),
            (
                EventorSession::builder(cam, config.clone()).sharded(
                    EventorOptions::accelerator(),
                    ParallelConfig::with_shards(2),
                ),
                "sharded",
            ),
            (
                EventorSession::builder(cam, config.clone()).cosim(AcceleratorConfig::default()),
                "cosim",
            ),
        ] {
            assert_eq!(builder.build().unwrap().backend_name(), name);
        }
    }

    #[test]
    fn session_with_fusion_builds_a_global_map() {
        let seq = sequence();
        let config = config_for_sequence(&seq, 60);
        let mut session = EventorSession::builder(seq.camera, config)
            .software(EventorOptions::accelerator())
            .fuse_into_map(GlobalMapConfig::default())
            .build()
            .unwrap();
        session.push_trajectory(&seq.trajectory).unwrap();
        session.push_events(seq.events.as_slice()).unwrap();
        let finished = session.finish().unwrap();
        let map = finished.fused_map.expect("fusion was enabled");
        assert_eq!(map.num_keyframes(), finished.output.keyframes.len());
        assert!(finished
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::MapFused { .. })));
        assert!(map.statistics().map_points > 0);
    }

    #[test]
    fn cosim_session_exposes_its_report() {
        let seq = sequence();
        let config = config_for_sequence(&seq, 60);
        let mut session = EventorSession::builder(seq.camera, config)
            .cosim(AcceleratorConfig::default())
            .build()
            .unwrap();
        session.push_trajectory(&seq.trajectory).unwrap();
        session.push_events(seq.events.as_slice()).unwrap();
        session.poll().unwrap();
        let report = session.cosim_report().expect("cosim backend");
        assert!(report.frames > 0);
        let finished = session.finish().unwrap();
        let report = finished.cosim_report.expect("cosim backend");
        assert_eq!(report.events_in, finished.output.profile.events_processed);
        assert!(finished.fused_map.is_none());
    }
}
