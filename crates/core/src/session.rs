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
//! * [`CosimBackend`] — the functional
//!   `eventor-hwsim` device driven through its register/DMA interface,
//! * any user type implementing [`ExecutionBackend`]
//!   (`eventor-backend/1`, `docs/ARCHITECTURE.md` §6).
//!
//! Ingestion is push-based and backpressure-aware: [`EventorSession::push_pose`]
//! and [`EventorSession::push_events`] / [`EventorSession::push_packet`] feed
//! the session, [`EventorSession::poll`] drains ready frames and yields
//! [`SessionEvent`] lifecycle notifications, and
//! [`EventorSession::finish`] flushes the trailing partial frame and returns
//! the batch-shaped [`SessionOutput`]. For the quantized nearest-voting
//! datapath the output is **bit-identical** to the batch `reconstruct()`
//! golden path for every backend and for arbitrary packet boundaries
//! (`tests/session_equivalence.rs`).
//!
//! Finished key frames can optionally be fused incrementally into an
//! `eventor-map` [`GlobalMap`] ([`SessionBuilder::fuse_into_map`]), emitting
//! [`SessionEvent::MapFused`] per key frame.

use crate::cosim::{CosimBackend, CosimReport};
use crate::parallel::ParallelConfig;
use eventor_emvs::{
    EmvsConfig, EmvsError, EmvsOutput, EventorOptions, ExecutionBackend, KeyframeReconstruction,
    SessionDriver, SessionEvent, StageProfile, VotingEngine, DEFAULT_MAX_PENDING_EVENTS,
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
    Cosim(AcceleratorConfig, ParallelConfig),
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
        self.backend = BackendChoice::Cosim(accelerator, ParallelConfig::sequential());
        self
    }

    /// Selects the co-simulated device with PS-side (firmware) stages
    /// chunked over worker shards.
    pub fn cosim_with_parallelism(
        mut self,
        accelerator: AcceleratorConfig,
        parallel: ParallelConfig,
    ) -> Self {
        self.backend = BackendChoice::Cosim(accelerator, parallel);
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
            BackendChoice::Cosim(accelerator, parallel) => {
                Box::new(CosimBackend::new(camera, config, accelerator, parallel)?)
            }
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
}

/// Everything a finished session produced.
#[derive(Debug)]
pub struct SessionOutput {
    /// The reconstruction, in the same shape the batch `reconstruct()` entry
    /// points return.
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
