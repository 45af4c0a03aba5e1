//! The one voting engine behind the session contract: every datapath and
//! every shard count (see [`VotingEngine`]).

use crate::backproject::FrameGeometry;
use crate::config::{EmvsConfig, EventorOptions, VotingMode};
use crate::mapper::KeyframeReconstruction;
use crate::parallel::{run_sharded, ParallelConfig};
use crate::profile::{Stage, StageProfile};
use crate::session::{
    finalize_volume, import_vote_volume, BackendVoteState, ExecutionBackend, FrameWork,
};
use crate::EmvsError;
use eventor_dsi::{DetectionConfig, DsiVolume, PlaneRange, VoteArena, VoxelScore};
use eventor_events::UndistortionLut;
use eventor_fixed::kernel::{self, batch, PhiWords};
use eventor_fixed::PackedCoord;
use eventor_geom::{CameraModel, Pose, Vec2};
use std::ops::Range;
use std::time::Instant;

/// Buffered load at which the engine votes its open key frame's buffered
/// frames into the DSI: the vote window. The load counts each buffered
/// canonical survivor and each buffered frame's per-plane parameter entry
/// (its `φ` words), so the window bounds both.
///
/// The window is voted plane by plane, so each plane slab is fetched once
/// per window instead of once per frame. At 100 planes a 1024-event frame
/// adds about 1.1 K, so the eighth frame fills the window: about 32 KiB of
/// Q9.7 survivors and 9 KiB of `φ` words. In a DAVIS-scale `davis_vote`
/// sweep (of a window that counted survivors only), windows of 4 K–16 K
/// read alike and 2 K and 32 K lower (`docs/BENCHMARKS.md`, "Vote
/// window"). Above one shard the window also amortizes the workers'
/// spawn. It bounds engine memory for arbitrarily long key frames (a
/// stationary or purely rotating camera never triggers a key-frame
/// switch): a frame without canonical survivors is not buffered at all,
/// so the buffer holds at most one window plus one frame beside the one
/// DSI.
pub const VOTE_WINDOW_EVENTS: usize = 1 << 13;

/// Per-frame quantized datapath parameters hoisted out of the per-event
/// loop as **raw fixed-point words**: the nine Q11.21 `Buf_H` words of
/// `H_{Z0}` and the per-plane Q11.21 `Buf_P` word triples of `φ` — exactly
/// the payloads the DMA would ship to the device, consumed directly by the
/// integer kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedFrameParams {
    homography: [i32; 9],
    coefficients: Vec<PhiWords>,
}

impl QuantizedFrameParams {
    /// Quantizes and hoists one frame's geometry.
    pub fn from_geometry(geometry: &FrameGeometry) -> Self {
        let phi = &geometry.coefficients;
        Self {
            homography: kernel::quantize_homography(&geometry.homography.h.m),
            coefficients: (0..phi.len())
                .map(|i| PhiWords::from_f64(phi.scale[i], phi.offset_x[i], phi.offset_y[i]))
                .collect(),
        }
    }

    /// Number of depth planes covered.
    pub fn num_planes(&self) -> usize {
        self.coefficients.len()
    }

    /// The per-plane raw coefficient words.
    #[inline]
    pub fn coefficients(&self) -> &[PhiWords] {
        &self.coefficients
    }

    /// The canonical projection `𝒫{Z0}` (delegates to the bit-true
    /// [`kernel::project_z0`], the same function the golden model and the
    /// device model call).
    #[inline]
    pub fn project(&self, coord: PackedCoord) -> Option<PackedCoord> {
        kernel::project_z0(&self.homography, coord)
    }
}

/// The engine's one DSI, on the score type the options select: `u16` for
/// the quantized nearest-voting accelerator datapath, `f32` otherwise.
#[derive(Debug)]
enum Dsi {
    Quantized(DsiVolume<u16>),
    Float(DsiVolume<f32>),
}

/// Runs one generic body on whichever score type the DSI holds.
macro_rules! on_dsi {
    ($dsi:expr, $volume:ident => $body:expr) => {
        match $dsi {
            Dsi::Quantized($volume) => $body,
            Dsi::Float($volume) => $body,
        }
    };
}

/// One plane range's scratch, reused across vote passes: the slab-index
/// arena of [`PlaneRange::vote_batch`] and the range's `(cast, missed)`
/// vote counts of the last pass.
#[derive(Debug, Default)]
struct Lane {
    arena: VoteArena,
    votes: (u64, u64),
}

/// The open key frame's ingested, not yet voted frames that have canonical
/// survivors: the survivors of `PE_Z0` plus the parameters the `PE_Zi`
/// array transfers them with — at most one vote window plus the frame that
/// filled it.
#[derive(Debug, Default)]
struct Buffer {
    /// End of each buffered frame's survivors in `canon` or `canon_float`.
    frame_ends: Vec<usize>,
    /// Survivors of the quantized canonical projection, as raw Q9.7 words.
    canon: Vec<PackedCoord>,
    /// Survivors of the float canonical projection.
    canon_float: Vec<Vec2>,
    /// One hoisted parameter block per buffered frame (quantized).
    params: Vec<QuantizedFrameParams>,
    /// One geometry per buffered frame (float).
    geometries: Vec<FrameGeometry>,
    /// Scratch: the current frame's Q9.7-encoded events (quantized).
    transported: Vec<PackedCoord>,
    /// Scratch: the current frame's distortion-corrected events.
    corrected: Vec<Vec2>,
    /// Scratch: the current frame's quantized canonical survivors.
    projected: Vec<PackedCoord>,
}

impl Buffer {
    fn events(&self) -> usize {
        self.canon.len() + self.canon_float.len()
    }

    /// What the vote window bounds: buffered survivors plus one parameter
    /// entry per buffered frame and depth plane.
    fn load(&self, planes: usize) -> usize {
        self.events() + self.frame_ends.len() * planes
    }

    fn clear(&mut self) {
        self.frame_ends.clear();
        self.canon.clear();
        self.canon_float.clear();
        self.params.clear();
        self.geometries.clear();
    }

    /// Buffered frame `frame`'s survivor range.
    fn survivors(&self, frame: usize) -> Range<usize> {
        let start = frame.checked_sub(1).map_or(0, |f| self.frame_ends[f]);
        start..self.frame_ends[frame]
    }

    /// `PE_Zi` → Nearest Voxel Finder → vote: transfers every buffered
    /// canonical coordinate to the view's depth planes and votes it, plane
    /// by plane and, within a plane, frame by frame and event by event in
    /// stream order, so each voxel of the view accumulates its votes in the
    /// order a frame-by-frame pass would while each plane slab stays
    /// cache-resident for the whole window.
    ///
    /// The accelerator datapath votes through the cache-blocked window
    /// kernel [`PlaneRange::vote_batch`] (raw words in, slab indices out,
    /// no `f64` in the loop).
    fn vote<S: VoxelScore>(
        &self,
        view: &mut PlaneRange<'_, S>,
        voting: VotingMode,
        arena: &mut VoteArena,
    ) {
        let frames = 0..self.frame_ends.len();
        match (self.params.is_empty(), voting) {
            (false, VotingMode::Nearest) => {
                let frames = frames.map(|frame| {
                    let canon = &self.canon[self.survivors(frame)];
                    (canon, self.params[frame].coefficients())
                });
                view.vote_batch(frames, arena);
            }
            (false, VotingMode::Bilinear) => {
                for i in view.planes() {
                    for frame in frames.clone() {
                        let phi = &self.params[frame].coefficients[i];
                        for &c in &self.canon[self.survivors(frame)] {
                            let (x, y) = kernel::transfer_subpixel(phi, c);
                            view.vote_bilinear(x, y, i, 1.0);
                        }
                    }
                }
            }
            (true, voting) => {
                for i in view.planes() {
                    for frame in frames.clone() {
                        let geometry = &self.geometries[frame];
                        for &c in &self.canon_float[self.survivors(frame)] {
                            let p = geometry.transfer(c, i);
                            match voting {
                                VotingMode::Bilinear => view.vote_bilinear(p.x, p.y, i, 1.0),
                                VotingMode::Nearest => view.vote_nearest(p.x, p.y, i, 1.0),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The **one voting engine** behind the session contract: every
/// [`EventorOptions`] datapath at every [`ParallelConfig`] shard count.
///
/// The paper's accelerator has one datapath — `PE_Z0` canonical projection,
/// the `PE_Zi` array's proportional projection, the Nearest Voxel Finder and
/// the DSI vote — and its reformulation is a set of switches on it.
/// [`EventorOptions`] spells the two switches that change results
/// (`quantize` × `voting`), so the engine runs four datapaths:
///
/// | options | DSI scores | projection and transfer |
/// |---|---|---|
/// | [`EventorOptions::accelerator`] | `u16` | bit-true integer kernel, cache-blocked [`PlaneRange::vote_batch`] |
/// | [`EventorOptions::quantized_only`] | `f32` | integer kernel, sub-pixel bilinear vote |
/// | [`EventorOptions::nearest_only`] | `f32` | `f64` geometry, nearest vote |
/// | [`EventorOptions::exact`] | `f32` | `f64` geometry, bilinear vote — the baseline EMVS mapper |
///
/// Every shard count runs one schedule. **Ingest** runs on the calling
/// thread, once per frame: streaming distortion correction (one read per
/// event of the exact [`UndistortionLut`] built in [`new`](Self::new)),
/// Q9.7 transport encoding, the per-frame parameter hoist
/// ([`QuantizedFrameParams`]) and the `PE_Z0` canonical projection, whose
/// survivors are appended to a buffer (a frame without survivors casts no
/// vote and is not buffered). **Vote** splits the engine's one
/// [`DsiVolume`] into `min(shards, planes)` contiguous plane ranges — the
/// `PE_Zi` array's plane partition — and votes the whole buffer into every
/// range on its own worker ([`run_sharded`]), plane by plane. It runs once
/// the buffer's load reaches [`VOTE_WINDOW_EVENTS`], at retirement and at
/// checkpoint export.
///
/// Each voxel has one writer, which sees its votes in stream order, so every
/// datapath — `f32` bilinear sums included — is bit-identical to the
/// one-shard result at every shard count.
///
/// # Profile
///
/// Stage times come from timers, never from splitting a fused interval: the
/// canonical projection is timed under [`Stage::CanonicalProjection`] and
/// the vote pass (above one shard: spawn, transfer-and-vote, join) under
/// [`Stage::ProportionalProjection`]. [`Stage::VoteDsi`] stays empty: the
/// vote is fused into the transfer loop.
///
/// [`name`](ExecutionBackend::name) reports `"software"` at one shard and
/// `"sharded"` above one — the spellings the session builder, the scenario
/// manifests and checkpoints use.
#[derive(Debug)]
pub struct VotingEngine {
    camera: CameraModel,
    undistortion: UndistortionLut,
    options: EventorOptions,
    detection: DetectionConfig,
    parallel: ParallelConfig,
    dsi: Dsi,
    lanes: Vec<Lane>,
    buffer: Buffer,
}

impl VotingEngine {
    /// Creates the engine, allocating its one sensor-sized DSI and building
    /// the camera's undistortion table.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations,
    /// among them a quantized datapath on a sensor wider or taller than it
    /// addresses ([`EventorOptions::check_sensor`]), and [`EmvsError::Dsi`]
    /// when the DSI cannot be allocated.
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        options: EventorOptions,
        parallel: ParallelConfig,
    ) -> Result<Self, EmvsError> {
        options.check_sensor(&camera.intrinsics)?;
        let planes = config.depth_planes()?;
        let (width, height) = (
            camera.intrinsics.width as usize,
            camera.intrinsics.height as usize,
        );
        let ranges = parallel.shards().min(planes.len());
        let dsi = if options.quantize && options.voting == VotingMode::Nearest {
            Dsi::Quantized(DsiVolume::new(width, height, planes)?)
        } else {
            Dsi::Float(DsiVolume::new(width, height, planes)?)
        };
        Ok(Self {
            camera,
            undistortion: UndistortionLut::build(&camera),
            options,
            detection: config.detection,
            parallel,
            dsi,
            lanes: (0..ranges).map(|_| Lane::default()).collect(),
            buffer: Buffer::default(),
        })
    }

    /// Votes every buffered frame into the DSI, one plane range per lane,
    /// and clears the buffer.
    fn vote_buffered(&mut self, profile: &mut StageProfile) {
        if self.buffer.frame_ends.is_empty() {
            return;
        }
        let t = Instant::now();
        let (buffer, voting, lanes) = (&self.buffer, self.options.voting, &mut self.lanes);
        on_dsi!(&mut self.dsi, dsi => {
            let jobs = dsi.plane_ranges_mut(lanes.len()).zip(lanes.iter_mut());
            run_sharded(jobs, |(mut view, lane)| {
                buffer.vote(&mut view, voting, &mut lane.arena);
                lane.votes = (view.votes_cast(), view.votes_missed());
            });
            for lane in lanes.iter_mut() {
                let (cast, missed) = std::mem::take(&mut lane.votes);
                dsi.add_votes(cast, missed);
            }
        });
        self.buffer.clear();
        profile.add(Stage::ProportionalProjection, t.elapsed());
    }
}

#[cfg(test)]
impl VotingEngine {
    /// The buffer's load, as the vote window counts it.
    pub(crate) fn buffered_load(&self) -> usize {
        let planes = on_dsi!(&self.dsi, dsi => dsi.planes().len());
        self.buffer.load(planes)
    }
}

impl ExecutionBackend for VotingEngine {
    fn name(&self) -> &'static str {
        if self.parallel.is_parallel() {
            "sharded"
        } else {
            "software"
        }
    }

    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        let buffer = &mut self.buffer;

        // ➊ Streaming distortion correction (one table read per event) and,
        //   under quantization, Q9.7 transport encoding. The table reads run
        //   as a pass of their own, so their cache misses overlap.
        let t = Instant::now();
        let lut = &self.undistortion;
        buffer.corrected.clear();
        buffer
            .corrected
            .extend(work.events.iter().map(|e| lut.correct_event(e)));
        if self.options.quantize {
            buffer.transported.clear();
            buffer.transported.extend(
                buffer
                    .corrected
                    .iter()
                    .map(|p| PackedCoord::from_f64(p.x, p.y)),
            );
        }
        profile.add(Stage::DistortionCorrection, t.elapsed());

        // ➋ Hoist the quantized H_Z0 / φ words (rescheduled: before the
        //   canonical projection).
        let t = Instant::now();
        let params = self
            .options
            .quantize
            .then(|| QuantizedFrameParams::from_geometry(work.geometry));
        profile.add(Stage::ComputeCoefficients, t.elapsed());

        // ➌ PE_Z0: the canonical projection, keeping the survivors of the
        //   projection-missing judgement in stream order. The quantized face
        //   runs lane-parallel per the kernel's dispatch tier. A frame
        //   without survivors casts no vote, so nothing of it is buffered.
        let t = Instant::now();
        let before = buffer.events();
        match &params {
            Some(params) => {
                batch::project_z0_batch(
                    &params.homography,
                    &buffer.transported,
                    &mut buffer.projected,
                );
                buffer.canon.extend_from_slice(&buffer.projected);
            }
            None => {
                let geometry = work.geometry;
                buffer.canon_float.extend(
                    buffer
                        .corrected
                        .iter()
                        .filter_map(|&p| geometry.canonical(p)),
                );
            }
        }
        if buffer.events() > before {
            buffer.frame_ends.push(buffer.events());
            match params {
                Some(params) => buffer.params.push(params),
                None => buffer.geometries.push(work.geometry.clone()),
            }
        }
        profile.add(Stage::CanonicalProjection, t.elapsed());

        // ➍ PE_Zi and the vote, per plane range, once a window is full.
        let planes = on_dsi!(&self.dsi, dsi => dsi.planes().len());
        if self.buffer.load(planes) >= VOTE_WINDOW_EVENTS {
            self.vote_buffered(profile);
        }
        Ok(())
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        self.vote_buffered(profile);
        let t = Instant::now();
        let (detection, camera) = (&self.detection, &self.camera);
        let reconstruction = on_dsi!(&self.dsi, dsi => finalize_volume(
            dsi,
            detection,
            camera,
            reference_pose,
            frames_used,
            events_used,
        ));
        profile.add(Stage::Detection, t.elapsed());
        let t = Instant::now();
        on_dsi!(&mut self.dsi, dsi => dsi.reset());
        profile.add(Stage::Merging, t.elapsed());
        Ok(reconstruction)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn export_vote_state(
        &mut self,
        profile: &mut StageProfile,
    ) -> Result<BackendVoteState, EmvsError> {
        // Voting the buffered frames is safe at any point of a key frame
        // (each voxel still sees its votes in stream order), so the DSI
        // alone carries the open key frame.
        self.vote_buffered(profile);
        Ok(match &self.dsi {
            Dsi::Quantized(dsi) => BackendVoteState::Quantized(dsi.clone()),
            Dsi::Float(dsi) => BackendVoteState::Float(dsi.clone()),
        })
    }

    fn import_vote_state(
        &mut self,
        state: BackendVoteState,
        _profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        self.buffer.clear();
        let name = self.name();
        match (&mut self.dsi, state) {
            (Dsi::Quantized(dsi), BackendVoteState::Quantized(volume)) => {
                import_vote_volume(volume, dsi, name)
            }
            (Dsi::Float(dsi), BackendVoteState::Float(volume)) => {
                import_vote_volume(volume, dsi, name)
            }
            _ => Err(EmvsError::Checkpoint {
                reason: format!("vote state score type does not fit the {name} engine's datapath"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::reconstruct_with_backend;
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
    use std::time::Duration;

    #[test]
    fn quantized_datapaths_reject_sensors_past_256_pixels() {
        // Q9.7 coordinates stop at 255.99 px and plane addresses are 8-bit:
        // a 320×240 sensor would drop or clamp every event past x = 255.
        let camera = |width, height| {
            let intrinsics = eventor_geom::CameraIntrinsics::new(
                200.0,
                200.0,
                width as f64 / 2.0,
                height as f64 / 2.0,
                width,
                height,
            )
            .unwrap();
            CameraModel::new(intrinsics, eventor_geom::DistortionModel::none())
        };
        let config = EmvsConfig::default().with_depth_planes(4);
        let new = |camera, options| {
            VotingEngine::new(camera, &config, options, ParallelConfig::sequential())
        };
        for options in [
            EventorOptions::accelerator(),
            EventorOptions::quantized_only(),
        ] {
            for (width, height) in [(320, 240), (240, 320), (257, 180)] {
                assert!(
                    matches!(
                        new(camera(width, height), options),
                        Err(EmvsError::InvalidConfig { .. })
                    ),
                    "{options:?} on {width}x{height}"
                );
            }
            assert!(new(camera(256, 256), options).is_ok(), "{options:?}");
        }
        for options in [EventorOptions::exact(), EventorOptions::nearest_only()] {
            assert!(new(camera(320, 240), options).is_ok(), "{options:?}");
        }
    }

    #[test]
    fn profile_attributes_measured_stages_only() {
        // Every shard count times the canonical projection (on the caller)
        // and the fused transfer-and-vote pass apart. No backend splits an
        // interval, so the vote stage is never charged.
        let seq =
            SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
                .unwrap();
        let config = EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60);
        for options in [EventorOptions::accelerator(), EventorOptions::exact()] {
            for shards in [1, 3] {
                let parallel = ParallelConfig::with_shards(shards);
                let engine = VotingEngine::new(seq.camera, &config, options, parallel).unwrap();
                assert_eq!(
                    engine.name(),
                    if shards == 1 { "software" } else { "sharded" }
                );
                let profile = reconstruct_with_backend(
                    seq.camera,
                    config.clone(),
                    engine,
                    &seq.events,
                    &seq.trajectory,
                )
                .unwrap()
                .profile;
                let time = |stage| profile.stage_time(stage);
                let label = format!("{options:?} x{shards}");
                assert_eq!(time(Stage::VoteDsi), Duration::ZERO, "{label}");
                assert!(time(Stage::CanonicalProjection) > Duration::ZERO, "{label}");
                assert!(
                    time(Stage::ProportionalProjection) > Duration::ZERO,
                    "{label}"
                );
            }
        }
    }
}
