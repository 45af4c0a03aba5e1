//! The one voting engine behind the session contract: every datapath and
//! every shard count (see [`VotingEngine`]).

use crate::config::{EmvsConfig, EventorOptions, VotingMode};
use crate::mapper::KeyframeReconstruction;
use crate::parallel::{run_sharded, ParallelConfig};
use crate::profile::{Stage, StageProfile};
use crate::quantized::{QuantizedCoefficients, QuantizedHomography, TransportTable};
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
/// adds about 1.1 K, so about the thirtieth frame fills the window: about
/// 115 KiB of Q9.7 survivors and 35 KiB of `φ` words. The window pays
/// where the DSI outgrows L2 and a key frame spans many windows, as on the
/// 8.6 MB DAVIS-scale DSI: there 32 K read faster than 8 K and 16 K, and
/// 64 K faster still, with twice the vote carried by the push that fills a
/// window and twice the buffer (`docs/BENCHMARKS.md`, "Fused vote"). Above
/// one shard the window also amortizes the workers' spawn. It bounds
/// engine memory for arbitrarily long key frames (a stationary or purely
/// rotating camera never triggers a key-frame switch): a frame without
/// canonical survivors is not buffered at all, so the buffer holds at most
/// one window plus one frame beside the one DSI.
pub const VOTE_WINDOW_EVENTS: usize = 1 << 15;

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

/// The per-pixel table the engine's ingest reads once per event.
#[derive(Debug)]
enum Ingest {
    /// Each pixel's corrected coordinate as its Q9.7 transport word.
    Quantized(TransportTable),
    /// Each pixel's exact `f64` corrected coordinate.
    Float(UndistortionLut),
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
/// filled it. Every vector is kept and reused from window to window.
#[derive(Debug, Default)]
struct Buffer {
    /// End of each buffered frame's survivors in `canon` or `canon_float`.
    frame_ends: Vec<usize>,
    /// Survivors of the quantized canonical projection, as raw Q9.7 words.
    canon: Vec<PackedCoord>,
    /// Survivors of the float canonical projection.
    canon_float: Vec<Vec2>,
    /// Every buffered frame's `Buf_P` words, one per depth plane, frame
    /// after frame (quantized).
    phi: Vec<PhiWords>,
    /// Every buffered frame's proportional coefficients
    /// `[scale, offset_x, offset_y]`, one per depth plane, frame after frame
    /// (float).
    phi_float: Vec<[f64; 3]>,
    /// End of each buffered frame's entries in `phi` or `phi_float`,
    /// whichever the datapath fills.
    phi_ends: Vec<usize>,
    /// Scratch: the current frame's Q9.7-encoded events (quantized).
    transported: Vec<PackedCoord>,
    /// Scratch: the current frame's distortion-corrected events (float).
    corrected: Vec<Vec2>,
    /// Scratch: the current frame's quantized canonical survivors.
    projected: Vec<PackedCoord>,
}

/// Frame `frame`'s range in a buffer whose frames end at `ends`.
fn frame_range(ends: &[usize], frame: usize) -> Range<usize> {
    let start = frame.checked_sub(1).map_or(0, |f| ends[f]);
    start..ends[frame]
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
        self.phi.clear();
        self.phi_float.clear();
        self.phi_ends.clear();
    }

    /// Buffered frame `frame`'s survivors (quantized).
    fn canon(&self, frame: usize) -> &[PackedCoord] {
        &self.canon[frame_range(&self.frame_ends, frame)]
    }

    /// Buffered frame `frame`'s `Buf_P` words, one per depth plane.
    fn phi(&self, frame: usize) -> &[PhiWords] {
        &self.phi[frame_range(&self.phi_ends, frame)]
    }

    /// Entries in `phi` or `phi_float`: one of them is always empty.
    fn phi_len(&self) -> usize {
        self.phi.len() + self.phi_float.len()
    }

    /// `PE_Zi` → Nearest Voxel Finder → vote: transfers every buffered
    /// canonical coordinate to the view's depth planes and votes it, plane
    /// by plane and, within a plane, frame by frame and event by event in
    /// stream order, so each voxel of the view accumulates its votes in the
    /// order a frame-by-frame pass would while each plane slab stays
    /// cache-resident for the whole window.
    ///
    /// The accelerator datapath votes through the window kernel
    /// [`PlaneRange::vote_batch`], whose `u16` plane votes are the kernel's
    /// fused transfer-and-vote face (raw words in, votes out, no `f64` in
    /// the loop).
    fn vote<S: VoxelScore>(
        &self,
        view: &mut PlaneRange<'_, S>,
        voting: VotingMode,
        arena: &mut VoteArena,
    ) {
        let frames = 0..self.frame_ends.len();
        match (self.phi.is_empty(), voting) {
            (false, VotingMode::Nearest) => {
                view.vote_batch(frames.map(|f| (self.canon(f), self.phi(f))), arena);
            }
            (false, VotingMode::Bilinear) => {
                for i in view.planes() {
                    for frame in frames.clone() {
                        let phi = &self.phi(frame)[i];
                        for &c in self.canon(frame) {
                            let (x, y) = kernel::transfer_subpixel(phi, c);
                            view.vote_bilinear(x, y, i, 1.0);
                        }
                    }
                }
            }
            (true, voting) => {
                for i in view.planes() {
                    for frame in frames.clone() {
                        let phi = &self.phi_float[frame_range(&self.phi_ends, frame)];
                        let [scale, offset_x, offset_y] = phi[i];
                        let survivors = frame_range(&self.frame_ends, frame);
                        for &c in &self.canon_float[survivors] {
                            // `ProportionalCoefficients::transfer`, term for term.
                            let (x, y) = (scale * c.x + offset_x, scale * c.y + offset_y);
                            match voting {
                                VotingMode::Bilinear => view.vote_bilinear(x, y, i, 1.0),
                                VotingMode::Nearest => view.vote_nearest(x, y, i, 1.0),
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
/// thread, once per frame: streaming distortion correction, one table read
/// per event built in [`new`](Self::new) — on the quantized datapaths the
/// [`TransportTable`] of Q9.7 transport words, on the float ones the exact
/// `f64` [`UndistortionLut`] —, the per-frame parameter block
/// ([`QuantizedHomography`], and [`QuantizedCoefficients`] words appended to
/// one reused buffer) and the `PE_Z0` canonical projection, whose
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
    ingest: Ingest,
    options: EventorOptions,
    detection: DetectionConfig,
    parallel: ParallelConfig,
    dsi: Dsi,
    lanes: Vec<Lane>,
    buffer: Buffer,
}

impl VotingEngine {
    /// Creates the engine, allocating its one sensor-sized DSI and building
    /// the camera's per-pixel ingest table.
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
        let ingest = if options.quantize {
            Ingest::Quantized(TransportTable::build(&camera))
        } else {
            Ingest::Float(UndistortionLut::build(&camera))
        };
        Ok(Self {
            camera,
            ingest,
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

        // ➊ Streaming distortion correction, one table read per event: on
        //   the quantized datapaths straight to the Q9.7 transport word.
        let t = Instant::now();
        match &self.ingest {
            Ingest::Quantized(table) => {
                buffer.transported.clear();
                buffer
                    .transported
                    .extend(work.events.iter().map(|e| table.encode(e)));
            }
            Ingest::Float(lut) => {
                buffer.corrected.clear();
                buffer
                    .corrected
                    .extend(work.events.iter().map(|e| lut.correct_event(e)));
            }
        }
        profile.add(Stage::DistortionCorrection, t.elapsed());

        // ➋ Encode the frame's H_Z0 / φ words once (rescheduled: before the
        //   canonical projection), the φ words (or, on the float datapaths,
        //   the `f64` coefficients) straight into the buffer.
        let t = Instant::now();
        let phi_start = buffer.phi_len();
        let phi = &work.geometry.coefficients;
        let homography = if self.options.quantize {
            QuantizedCoefficients::append_words(phi, &mut buffer.phi);
            Some(QuantizedHomography::from_homography(
                &work.geometry.homography,
            ))
        } else {
            buffer
                .phi_float
                .extend((0..phi.len()).map(|i| [phi.scale[i], phi.offset_x[i], phi.offset_y[i]]));
            None
        };
        profile.add(Stage::ComputeCoefficients, t.elapsed());

        // ➌ PE_Z0: the canonical projection, keeping the survivors of the
        //   projection-missing judgement in stream order. The quantized face
        //   runs lane-parallel per the kernel's dispatch tier. A frame
        //   without survivors casts no vote, so nothing of it is buffered.
        let t = Instant::now();
        let before = buffer.events();
        match &homography {
            Some(homography) => {
                batch::project_z0_batch(
                    &homography.raw_words(),
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
            buffer.phi_ends.push(buffer.phi_len());
        } else {
            buffer.phi.truncate(phi_start);
            buffer.phi_float.truncate(phi_start);
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
