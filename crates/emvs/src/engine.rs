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
use std::time::Instant;

/// Buffered canonical coordinates at which a sharded engine votes its open
/// key frame's buffered frames into the DSI. Bounds engine memory for
/// arbitrarily long key frames (e.g. a stationary camera that never triggers
/// a key-frame switch) at roughly one spill window of events plus the one
/// DSI.
pub const ENGINE_SPILL_EVENTS: usize = 1 << 16;

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

/// The open key frame's ingested, not yet voted frames: canonical-plane
/// survivors of `PE_Z0` plus the parameters the `PE_Zi` array transfers
/// them with. One shard votes after every frame, so it holds one frame.
#[derive(Debug, Default)]
struct Buffer {
    /// Canonical survivors per buffered frame.
    frame_lens: Vec<usize>,
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

    fn clear(&mut self) {
        self.frame_lens.clear();
        self.canon.clear();
        self.canon_float.clear();
        self.params.clear();
        self.geometries.clear();
    }

    /// `PE_Zi` → Nearest Voxel Finder → vote: transfers every buffered
    /// canonical coordinate to the view's depth planes and votes it, frame
    /// by frame and event by event in stream order, so each voxel of the
    /// view accumulates its votes in the order a one-shard pass would.
    ///
    /// The accelerator datapath votes plane-major through the cache-blocked
    /// [`PlaneRange::vote_batch`] (raw words in, slab indices out, no `f64`
    /// in the loop); the other datapaths vote event-major.
    fn vote<S: VoxelScore>(
        &self,
        view: &mut PlaneRange<'_, S>,
        voting: VotingMode,
        arena: &mut VoteArena,
    ) {
        let mut start = 0;
        for (frame, &len) in self.frame_lens.iter().enumerate() {
            let range = start..start + len;
            start += len;
            match (self.params.get(frame), voting) {
                (Some(params), VotingMode::Nearest) => {
                    view.vote_batch(&self.canon[range], params.coefficients(), arena);
                }
                (Some(params), VotingMode::Bilinear) => {
                    for &c in &self.canon[range] {
                        for i in view.planes() {
                            let (x, y) = kernel::transfer_subpixel(&params.coefficients[i], c);
                            view.vote_bilinear(x, y, i, 1.0);
                        }
                    }
                }
                (None, voting) => {
                    let geometry = &self.geometries[frame];
                    for &c in &self.canon_float[range] {
                        for i in view.planes() {
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
/// survivors are appended to a buffer. **Vote** splits the engine's one
/// [`DsiVolume`] into `min(shards, planes)` contiguous plane ranges — the
/// `PE_Zi` array's plane partition — and votes the whole buffer into every
/// range on its own worker ([`run_sharded`]). One shard votes after every
/// frame; more than one votes at [`ENGINE_SPILL_EVENTS`] buffered
/// survivors, at retirement and at checkpoint export.
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
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations and
    /// [`EmvsError::Dsi`] when the DSI cannot be allocated.
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        options: EventorOptions,
        parallel: ParallelConfig,
    ) -> Result<Self, EmvsError> {
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
        if self.buffer.frame_lens.is_empty() {
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
        //   canonical projection), or keep the float geometry.
        let t = Instant::now();
        if self.options.quantize {
            buffer
                .params
                .push(QuantizedFrameParams::from_geometry(work.geometry));
        } else {
            buffer.geometries.push(work.geometry.clone());
        }
        profile.add(Stage::ComputeCoefficients, t.elapsed());

        // ➌ PE_Z0: the canonical projection, keeping the survivors of the
        //   projection-missing judgement in stream order. The quantized face
        //   runs lane-parallel per the kernel's dispatch tier.
        let t = Instant::now();
        let before = buffer.events();
        match buffer.params.last() {
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
        buffer.frame_lens.push(buffer.events() - before);
        profile.add(Stage::CanonicalProjection, t.elapsed());

        // ➍ PE_Zi and the vote, per plane range.
        if !self.parallel.is_parallel() || buffer.events() >= ENGINE_SPILL_EVENTS {
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
