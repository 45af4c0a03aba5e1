//! The one voting engine behind the session contract: every datapath and
//! every shard count (see [`VotingEngine`]).

use crate::backproject::FrameGeometry;
use crate::config::{EmvsConfig, EventorOptions, VotingMode};
use crate::mapper::KeyframeReconstruction;
use crate::parallel::{run_sharded, shard_packets, ParallelConfig};
use crate::profile::{Stage, StageProfile};
use crate::session::{
    finalize_volume, import_vote_tiles, BackendVoteState, ExecutionBackend, FrameWork,
};
use crate::EmvsError;
use eventor_dsi::{DepthPlanes, DetectionConfig, DsiVolume, VoteArena, VoxelScore};
use eventor_events::{packetize_frame, Event, VotePacket};
use eventor_fixed::kernel::{self, batch, PhiWords};
use eventor_fixed::PackedCoord;
use eventor_geom::{CameraModel, Pose, Vec2};
use std::time::Instant;

/// Buffered events at which a sharded engine votes its open key frame's
/// buffered frames into the shard tiles. Bounds engine memory for
/// arbitrarily long key frames (e.g. a stationary camera that never triggers
/// a key-frame switch) at roughly one spill window of events plus the
/// fixed-size tiles.
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

/// The ingested inputs of one frame, or of one packet of it: the events
/// after distortion correction (and, when quantized, Q9.7 encoding) with
/// the parameters they vote under.
#[derive(Debug, Clone, Copy)]
enum SliceInput<'a> {
    Quantized(&'a QuantizedFrameParams, &'a [PackedCoord]),
    Float(&'a FrameGeometry, &'a [Vec2]),
}

/// One shard's private DSI tile plus the scratch its kernels reuse across
/// frames, packets and key frames (no per-slice allocation).
#[derive(Debug)]
struct Shard<S: VoxelScore> {
    tile: DsiVolume<S>,
    /// Survivors of the quantized canonical projection, as raw Q9.7 words.
    canon: Vec<PackedCoord>,
    /// Survivors of the float canonical projection.
    canon_float: Vec<Vec2>,
    /// Slab-index scratch of [`DsiVolume::vote_batch`].
    arena: VoteArena,
}

impl<S: VoxelScore> Shard<S> {
    fn alloc(
        count: usize,
        width: usize,
        height: usize,
        planes: &DepthPlanes,
    ) -> Result<Vec<Self>, EmvsError> {
        (0..count)
            .map(|_| -> Result<Self, EmvsError> {
                Ok(Self {
                    tile: DsiVolume::new(width, height, planes.clone())?,
                    canon: Vec::new(),
                    canon_float: Vec::new(),
                    arena: VoteArena::new(),
                })
            })
            .collect()
    }

    /// `PE_Z0`: the canonical projection of a slice, keeping the survivors
    /// of the projection-missing judgement in input order. The quantized
    /// face runs lane-parallel per the kernel's dispatch tier.
    fn project(&mut self, input: SliceInput<'_>) {
        match input {
            SliceInput::Quantized(params, events) => {
                batch::project_z0_batch(&params.homography, events, &mut self.canon);
            }
            SliceInput::Float(geometry, events) => {
                self.canon_float.clear();
                self.canon_float
                    .extend(events.iter().filter_map(|&p| geometry.canonical(p)));
            }
        }
    }

    /// `PE_Zi` → Nearest Voxel Finder → vote: transfers the projected slice
    /// to every depth plane and votes it into the tile.
    ///
    /// The accelerator datapath votes plane-major through the cache-blocked
    /// [`DsiVolume::vote_batch`] (raw words in, slab indices out, no `f64`
    /// in the loop; exact because unit-vote saturation is order-independent
    /// and the tile is sensor-sized). The other datapaths keep the
    /// event-major order of the sequential schedule, since bilinear `f32`
    /// accumulation is order-sensitive.
    fn vote(&mut self, input: SliceInput<'_>, voting: VotingMode) {
        let tile = &mut self.tile;
        match (input, voting) {
            (SliceInput::Quantized(params, _), VotingMode::Nearest) => {
                tile.vote_batch(&self.canon, &params.coefficients, &mut self.arena);
            }
            (SliceInput::Quantized(params, _), VotingMode::Bilinear) => {
                for &c in &self.canon {
                    for (i, phi) in params.coefficients.iter().enumerate() {
                        let (x, y) = kernel::transfer_subpixel(phi, c);
                        tile.vote_bilinear(x, y, i, 1.0);
                    }
                }
            }
            (SliceInput::Float(geometry, _), voting) => {
                for &c in &self.canon_float {
                    for i in 0..geometry.num_planes() {
                        let p = geometry.transfer(c, i);
                        match voting {
                            VotingMode::Bilinear => tile.vote_bilinear(p.x, p.y, i, 1.0),
                            VotingMode::Nearest => tile.vote_nearest(p.x, p.y, i, 1.0),
                        }
                    }
                }
            }
        }
    }
}

/// The shard tiles, on the score type the options select: `u16` for the
/// quantized nearest-voting accelerator datapath, `f32` otherwise.
#[derive(Debug)]
enum Tiles {
    Quantized(Vec<Shard<u16>>),
    Float(Vec<Shard<f32>>),
}

/// Runs one generic body on whichever score type the tiles hold.
macro_rules! on_tiles {
    ($tiles:expr, $shards:ident => $body:expr) => {
        match $tiles {
            Tiles::Quantized($shards) => $body,
            Tiles::Float($shards) => $body,
        }
    };
}

/// Ingested frames: the current frame at one shard (cleared once voted),
/// the open key frame's unvoted frames above one.
#[derive(Debug, Default)]
struct Buffer {
    frame_lens: Vec<usize>,
    /// Q9.7-encoded events of the quantized datapaths.
    transported: Vec<PackedCoord>,
    /// Distortion-corrected events of the float datapaths.
    corrected: Vec<Vec2>,
    /// One hoisted parameter block per buffered frame (quantized).
    params: Vec<QuantizedFrameParams>,
    /// One geometry per buffered frame (float).
    geometries: Vec<FrameGeometry>,
}

impl Buffer {
    fn events(&self) -> usize {
        self.transported.len() + self.corrected.len()
    }

    fn clear(&mut self) {
        self.frame_lens.clear();
        self.transported.clear();
        self.corrected.clear();
        self.params.clear();
        self.geometries.clear();
    }

    /// Splits the buffered frames into vote packets addressing the
    /// concatenated event buffer.
    fn packets(&self, packet_events: usize) -> Vec<VotePacket> {
        let mut packets = Vec::new();
        let mut start = 0;
        for (frame, &len) in self.frame_lens.iter().enumerate() {
            packetize_frame(frame, start..start + len, packet_events, &mut packets);
            start += len;
        }
        packets
    }

    /// The inputs of one packet: a quantized engine buffers one parameter
    /// block per frame, a float engine none.
    fn input(&self, packet: &VotePacket) -> SliceInput<'_> {
        let range = packet.range.clone();
        match self.params.get(packet.frame) {
            Some(params) => SliceInput::Quantized(params, &self.transported[range]),
            None => SliceInput::Float(&self.geometries[packet.frame], &self.corrected[range]),
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
/// | [`EventorOptions::accelerator`] | `u16` | bit-true integer kernel, cache-blocked [`DsiVolume::vote_batch`] |
/// | [`EventorOptions::quantized_only`] | `f32` | integer kernel, sub-pixel bilinear vote |
/// | [`EventorOptions::nearest_only`] | `f32` | `f64` geometry, nearest vote |
/// | [`EventorOptions::exact`] | `f32` | `f64` geometry, bilinear vote — the baseline EMVS mapper |
///
/// [`ParallelConfig`] picks the schedule. Every shard count shares one
/// **ingest** step on the calling thread: streaming distortion correction,
/// Q9.7 transport encoding and the per-frame parameter hoist
/// ([`QuantizedFrameParams`]). Then:
///
/// * **one shard** votes each frame inline — one canonical projection and
///   one transfer-and-vote pass over the whole frame, no buffering and no
///   packetization;
/// * **more than one shard** buffers the open key frame's ingested frames
///   (spilling at [`ENGINE_SPILL_EVENTS`]), splits them into vote packets
///   that go round-robin to private per-shard DSI tiles ([`run_sharded`]),
///   and merges the tiles with [`DsiVolume::tree_reduce`] at retirement.
///
/// Both schedules run the same per-slice kernels, so they differ only in
/// vote order. Saturating unit votes are order-independent, so the `u16`
/// accelerator datapath is bit-identical at every shard count, and whole
/// `f32` increments make float nearest voting exact too; bilinear `f32`
/// sums are deterministic per shard count.
///
/// # Profile
///
/// Stage times come from timers, never from splitting a fused interval. At
/// one shard the canonical projection is timed under
/// [`Stage::CanonicalProjection`] and the transfer-and-vote pass under
/// [`Stage::ProportionalProjection`]. Above one shard the packet phase
/// (spawn, fused project/transfer/vote, join) is one interval under
/// [`Stage::ProportionalProjection`]. [`Stage::VoteDsi`] stays empty: the
/// vote is fused into the transfer loop.
///
/// [`name`](ExecutionBackend::name) reports `"software"` at one shard and
/// `"sharded"` above one — the spellings the session builder, the scenario
/// manifests and checkpoints use.
#[derive(Debug)]
pub struct VotingEngine {
    camera: CameraModel,
    options: EventorOptions,
    detection: DetectionConfig,
    parallel: ParallelConfig,
    tiles: Tiles,
    buffer: Buffer,
}

impl VotingEngine {
    /// Creates the engine, allocating one sensor-sized DSI tile per shard.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations and
    /// [`EmvsError::Dsi`] when the tiles cannot be allocated.
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
        let shards = parallel.shards();
        let tiles = if options.quantize && options.voting == VotingMode::Nearest {
            Tiles::Quantized(Shard::alloc(shards, width, height, &planes)?)
        } else {
            Tiles::Float(Shard::alloc(shards, width, height, &planes)?)
        };
        Ok(Self {
            camera,
            options,
            detection: config.detection,
            parallel,
            tiles,
            buffer: Buffer::default(),
        })
    }

    /// Votes every buffered frame into the shard tiles (packet round-robin)
    /// and clears the buffer. Runs at retirement, at checkpoint export and
    /// whenever the buffer crosses [`ENGINE_SPILL_EVENTS`]. Spilling at any
    /// boundary is safe: nearest voting is order-independent, and the spill
    /// points are a pure function of the stream, so bilinear tiles stay
    /// deterministic for a fixed shard count.
    fn vote_buffered(&mut self, profile: &mut StageProfile) {
        if self.buffer.frame_lens.is_empty() {
            return;
        }
        let t = Instant::now();
        let packets = self.buffer.packets(self.parallel.packet_events());
        let shards = self.parallel.shards();
        let (buffer, voting) = (&self.buffer, self.options.voting);
        on_tiles!(&mut self.tiles, tiles => run_sharded(tiles, |shard, state| {
            for packet in shard_packets(&packets, shard, shards) {
                let input = buffer.input(packet);
                state.project(input);
                state.vote(input, voting);
            }
        }));
        self.buffer.clear();
        profile.add(Stage::ProportionalProjection, t.elapsed());
    }
}

/// Tree-reduces the shard tiles into tile 0 and finalizes it.
fn reduce_and_finalize<S: VoxelScore>(
    shards: &mut [Shard<S>],
    detection: &DetectionConfig,
    camera: &CameraModel,
    reference_pose: &Pose,
    frames_used: usize,
    events_used: usize,
) -> KeyframeReconstruction {
    let mut tiles: Vec<&mut DsiVolume<S>> = shards.iter_mut().map(|s| &mut s.tile).collect();
    DsiVolume::tree_reduce_refs(&mut tiles);
    finalize_volume(
        &shards[0].tile,
        detection,
        camera,
        reference_pose,
        frames_used,
        events_used,
    )
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
        // ➊ Ingest on the calling thread: streaming distortion correction
        //   and, under quantization, Q9.7 transport encoding.
        let t = Instant::now();
        let camera = &self.camera;
        let undistort = |e: &Event| camera.undistort_pixel(Vec2::new(e.x as f64, e.y as f64));
        if self.options.quantize {
            self.buffer.transported.extend(work.events.iter().map(|e| {
                let p = undistort(e);
                PackedCoord::from_f64(p.x, p.y)
            }));
        } else {
            self.buffer
                .corrected
                .extend(work.events.iter().map(undistort));
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

        if self.parallel.is_parallel() {
            match params {
                Some(params) => self.buffer.params.push(params),
                None => self.buffer.geometries.push(work.geometry.clone()),
            }
            self.buffer.frame_lens.push(work.events.len());
            if self.buffer.events() >= ENGINE_SPILL_EVENTS {
                self.vote_buffered(profile);
            }
            return Ok(());
        }

        // ➌ One shard: vote the frame inline.
        let input = match &params {
            Some(params) => SliceInput::Quantized(params, &self.buffer.transported),
            None => SliceInput::Float(work.geometry, &self.buffer.corrected),
        };
        let voting = self.options.voting;
        on_tiles!(&mut self.tiles, shards => {
            let t = Instant::now();
            shards[0].project(input);
            profile.add(Stage::CanonicalProjection, t.elapsed());
            let t = Instant::now();
            shards[0].vote(input, voting);
            profile.add(Stage::ProportionalProjection, t.elapsed());
        });
        self.buffer.transported.clear();
        self.buffer.corrected.clear();
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
        let reconstruction = on_tiles!(&mut self.tiles, shards => reduce_and_finalize(
            shards,
            detection,
            camera,
            reference_pose,
            frames_used,
            events_used,
        ));
        profile.add(Stage::Detection, t.elapsed());
        let t = Instant::now();
        on_tiles!(&mut self.tiles, shards => shards.iter_mut().for_each(|s| s.tile.reset()));
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
        // Voting the buffered frames is a spill boundary, safe at any point
        // of a key frame, so the tiles alone carry the open key frame.
        self.vote_buffered(profile);
        Ok(match &self.tiles {
            Tiles::Quantized(shards) => {
                BackendVoteState::Quantized(shards.iter().map(|s| s.tile.clone()).collect())
            }
            Tiles::Float(shards) => {
                BackendVoteState::Float(shards.iter().map(|s| s.tile.clone()).collect())
            }
        })
    }

    fn import_vote_state(
        &mut self,
        state: BackendVoteState,
        _profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        self.buffer.clear();
        let name = self.name();
        match (&mut self.tiles, state) {
            (Tiles::Quantized(shards), BackendVoteState::Quantized(tiles)) => {
                let mut targets: Vec<_> = shards.iter_mut().map(|s| &mut s.tile).collect();
                import_vote_tiles(tiles, &mut targets, name)
            }
            (Tiles::Float(shards), BackendVoteState::Float(tiles)) => {
                let mut targets: Vec<_> = shards.iter_mut().map(|s| &mut s.tile).collect();
                import_vote_tiles(tiles, &mut targets, name)
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
        // One shard times the canonical projection and the fused
        // transfer-and-vote pass apart; more than one shard times the whole
        // packet phase as one interval. No backend splits an interval, so
        // the vote stage is never charged.
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
                assert_eq!(
                    time(Stage::CanonicalProjection) > Duration::ZERO,
                    shards == 1,
                    "{label}"
                );
                assert!(
                    time(Stage::ProportionalProjection) > Duration::ZERO,
                    "{label}"
                );
            }
        }
    }
}
