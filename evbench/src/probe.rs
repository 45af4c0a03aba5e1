//! A bench-side [`ExecutionBackend`] wrapper: times every call into the
//! wrapped backend as a span and, when asked, replays each frame's inputs
//! through the integer kernel and the DSI vote on scratch state, so the
//! kernel and DSI layers get their own timings without any change to the
//! backends.
//!
//! The replay reproduces the accelerator datapath's inputs from the frame
//! (distortion correction, Q9.7 transport encoding, quantized `H_Z0` and
//! `φ`) untimed, then times `project_z0_batch`, `transfer_nearest_batch`
//! over every depth plane, and `DsiVolume::vote_batch` into a scratch
//! 16-bit DSI that is reset at every key frame, like the real one.

use crate::trace::Tracer;
use eventor_core::{
    quantize_event_pixel, ExecutionBackend, FrameWork, QuantizedCoefficients, QuantizedHomography,
};
use eventor_dsi::{DsiVolume, VoteArena};
use eventor_emvs::{EmvsConfig, EmvsError, KeyframeReconstruction, StageProfile};
use eventor_fixed::kernel::batch;
use eventor_fixed::PackedCoord;
use eventor_geom::{CameraModel, Pose, Vec2};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exact counts gathered by a probe, shared with the code that built it
/// (the probe itself moves into the session).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCounts {
    pub frames: u64,
    pub keyframes: u64,
    pub events: u64,
    /// Event × plane transfers attempted by the replay.
    pub attempts: u64,
    /// In-sensor transfers (votes cast) found by the replay.
    pub hits: u64,
    /// Votes the replayed `vote_batch` cast.
    pub batch_votes: u64,
}

impl ProbeCounts {
    pub fn add(&mut self, other: &ProbeCounts) {
        self.frames += other.frames;
        self.keyframes += other.keyframes;
        self.events += other.events;
        self.attempts += other.attempts;
        self.hits += other.hits;
        self.batch_votes += other.batch_votes;
    }
}

pub type SharedCounts = Arc<Mutex<ProbeCounts>>;

fn bump(counts: &SharedCounts, f: impl FnOnce(&mut ProbeCounts)) {
    f(&mut counts.lock().expect("probe counts poisoned"));
}

/// Scratch state of the kernel/DSI replay.
#[derive(Debug)]
struct Replay {
    camera: CameraModel,
    dsi: DsiVolume<u16>,
    arena: VoteArena,
    transported: Vec<PackedCoord>,
    canonical: Vec<PackedCoord>,
    idx: Vec<u32>,
}

impl Replay {
    fn new(camera: CameraModel, config: &EmvsConfig) -> Result<Self, EmvsError> {
        let dsi = DsiVolume::new(
            camera.intrinsics.width as usize,
            camera.intrinsics.height as usize,
            config.depth_planes()?,
        )?;
        Ok(Self {
            camera,
            dsi,
            arena: VoteArena::new(),
            transported: Vec::new(),
            canonical: Vec::new(),
            idx: Vec::new(),
        })
    }

    /// Replays one frame under a `bench.replay` span hung below `parent`.
    fn run(&mut self, work: &FrameWork<'_>, tracer: &Tracer, parent: u32, op: u64) -> ProbeCounts {
        let start = Instant::now();
        let replay_id = tracer.reserve();
        let camera = self.camera;
        self.transported.clear();
        self.transported.extend(work.events.iter().map(|e| {
            quantize_event_pixel(camera.undistort_pixel(Vec2::new(e.x as f64, e.y as f64)))
        }));
        let h = QuantizedHomography::from_homography(&work.geometry.homography).raw_words();
        let phi = QuantizedCoefficients::from_coefficients(&work.geometry.coefficients);

        let t = Instant::now();
        batch::project_z0_batch(&h, &self.transported, &mut self.canonical);
        tracer.record("fixed.project_z0", replay_id, op, t, Instant::now());

        let (w, hgt) = (self.dsi.width() as u32, self.dsi.height() as u32);
        let mut hits = 0u64;
        let t = Instant::now();
        for words in phi.words() {
            batch::transfer_nearest_batch(words, &self.canonical, w, hgt, &mut self.idx);
            hits += self.idx.iter().filter(|&&i| i != batch::MISS).count() as u64;
        }
        tracer.record("fixed.transfer_nearest", replay_id, op, t, Instant::now());

        let before = self.dsi.votes_cast();
        let t = Instant::now();
        self.dsi
            .vote_batch(&self.canonical, phi.words(), &mut self.arena);
        tracer.record("dsi.vote_batch", replay_id, op, t, Instant::now());

        tracer.record_as(replay_id, "bench.replay", parent, op, start, Instant::now());
        ProbeCounts {
            attempts: (work.events.len() * phi.len()) as u64,
            hits,
            batch_votes: self.dsi.votes_cast() - before,
            ..ProbeCounts::default()
        }
    }
}

/// The wrapper installed with `SessionBuilder::custom_backend`.
#[derive(Debug)]
pub struct Probe {
    inner: Box<dyn ExecutionBackend>,
    tracer: Tracer,
    replay: Option<Replay>,
    counts: SharedCounts,
}

impl Probe {
    /// Wraps `inner`; `replay` turns on the kernel/DSI replay (meaningful for
    /// the quantized software datapaths only).
    pub fn new(
        inner: Box<dyn ExecutionBackend>,
        tracer: Tracer,
        replay: Option<(CameraModel, &EmvsConfig)>,
    ) -> Result<(Self, SharedCounts), EmvsError> {
        let counts = SharedCounts::default();
        let replay = match replay {
            Some((camera, config)) => Some(Replay::new(camera, config)?),
            None => None,
        };
        Ok((
            Self {
                inner,
                tracer,
                replay,
                counts: Arc::clone(&counts),
            },
            counts,
        ))
    }
}

impl ExecutionBackend for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        let (parent, op) = self.tracer.context();
        let t = Instant::now();
        let result = self.inner.vote_frame(work, profile);
        self.tracer
            .record("core.vote_frame", parent, op, t, Instant::now());
        let replayed = match &mut self.replay {
            Some(replay) => replay.run(work, &self.tracer, parent, op),
            None => ProbeCounts::default(),
        };
        bump(&self.counts, |c| {
            c.frames += 1;
            c.events += work.events.len() as u64;
            c.attempts += replayed.attempts;
            c.hits += replayed.hits;
            c.batch_votes += replayed.batch_votes;
        });
        result
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        let (parent, op) = self.tracer.context();
        let t = Instant::now();
        let result = self
            .inner
            .retire_keyframe(reference_pose, frames_used, events_used, profile);
        self.tracer
            .record("core.retire", parent, op, t, Instant::now());
        if let Some(replay) = &mut self.replay {
            replay.dsi.reset();
        }
        bump(&self.counts, |c| c.keyframes += 1);
        result
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}
