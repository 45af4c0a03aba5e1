//! The functional device model: the `PE_Z0` / `PE_Zi` frame pass and the
//! Vote Execute Unit, assembled the way Fig. 5 assembles the prototype.
//!
//! In the prototype the DSI sits in the DDR3 attached to the Zynq PS and the
//! PL updates it over the AXI-HP ports, so host and accelerator share one
//! score volume. Here the host driver in `eventor-core` owns that volume, an
//! `eventor_dsi::DsiVolume<u16>`, and hands it to [`EventorDevice`] with each
//! frame:
//!
//! 1. the driver ships a [`FrameJob`] (packed event words, `H_{Z0}` words
//!    and per-plane `φ` words), which the DMA streams into the double
//!    buffers,
//! 2. a key frame resets the DSI; `PE_Z0` writes the canonical projections
//!    of the surviving events into `Buf_I`; then, plane by plane, the
//!    `PE_Zi` array transfers every survivor and the Vote Execute Unit
//!    applies each in-sensor vote to that plane of the DSI — the voting
//!    engine's window pass, over a window of this one frame,
//! 3. the driver reads the frame's [`FrameExecution`] record and, at
//!    key-frame boundaries, detects structure in the DSI it owns.
//!
//! Step 2 runs the bit-true integer kernel of [`eventor_fixed::kernel`] on
//! the words the job shipped, as shipped: the batched `PE_Z0` projection
//! ([`batch::project_z0_batch`], bit for bit
//! [`kernel::project_z0`](eventor_fixed::kernel::project_z0) per event) on
//! the `Buf_H` words, then [`DsiVolume::vote_batch`] with each plane's
//! `Buf_P` [`PhiWords`], the kernel's fused transfer-and-vote face plane by
//! plane. The host fills the job from the parameter block of
//! `eventor-emvs`, whose words the voting engine and the golden-model tests
//! hand to the same functions, so device ↔ golden-model agreement holds by
//! construction; `tests/cosim_equivalence.rs` asserts it end to end.
//!
//! A frame's cycles are the frame cost of [`crate::schedule`] charged with
//! the *actual* work performed (events surviving the projection-missing
//! judgement, votes that landed inside the sensor, the payload moved). The
//! analytic schedule is the same cost at full-frame counts, so the two agree
//! on full frames by construction, and the device model additionally
//! reflects dropped events and out-of-sensor transfers. The
//! [`FrameExecution`] record is charged from counts once per frame, never
//! per vote.

use crate::schedule::{frame_cost, payload_bytes, FrameKind};
use crate::timing::{AcceleratorConfig, Cycles};
use eventor_dsi::{DsiVolume, VoteArena};
use eventor_fixed::kernel::{batch, PhiWords};
use eventor_fixed::PackedCoord;

/// The per-frame input set shipped by the host driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameJob {
    /// Packed Q9.7 event-coordinate words (the `Buf_E` payload).
    pub event_words: Vec<u32>,
    /// The nine Q11.21 words of `H_{Z0}` in row-major order (the `Buf_H`
    /// payload).
    pub homography_words: [i32; 9],
    /// Three Q11.21 words per depth plane: `(scale, offset_x, offset_y)`
    /// (the `Buf_P` payload).
    pub phi_words: Vec<PhiWords>,
    /// Whether this frame starts a new key reference view (resets the DSI).
    pub kind: FrameKind,
}

impl FrameJob {
    /// Payload bytes the DMA must move for this frame.
    pub fn payload_bytes(&self) -> usize {
        payload_bytes(self.event_words.len(), self.phi_words.len())
    }
}

/// Result counters of one executed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameExecution {
    /// Frame kind that was executed.
    pub kind: FrameKind,
    /// Events shipped to the device.
    pub events_in: u64,
    /// Events dropped by the projection-missing judgement of `PE_Z0`.
    pub events_dropped: u64,
    /// Plane transfers whose projection fell outside the sensor.
    pub transfers_missed: u64,
    /// Votes applied to the DSI.
    pub votes_applied: u64,
    /// DMA transfer cycles for the frame's input set.
    pub dma_cycles: Cycles,
    /// Cycles spent in `𝒫{Z0}` (canonical projection).
    pub canonical_cycles: Cycles,
    /// Cycles spent in `𝒫{Z0;Zi}` + `ℛ` (the proportional module).
    pub proportional_cycles: Cycles,
    /// Cycles spent resetting the DSI (key frames only).
    pub reset_cycles: Cycles,
    /// Total frame latency as exposed by the pipeline schedule.
    pub total_cycles: Cycles,
}

impl FrameExecution {
    /// Frame latency in microseconds for a given fabric clock.
    pub fn total_us(&self, config: &AcceleratorConfig) -> f64 {
        config.fabric_clock.cycles_to_us(self.total_cycles)
    }
}

/// The assembled Eventor device model.
#[derive(Debug, Clone)]
pub struct EventorDevice {
    config: AcceleratorConfig,
    /// The `Buf_E` words of the frame in flight decoded to coordinates,
    /// kept between frames (always empty there) like `Buf_I`.
    events: Vec<PackedCoord>,
    /// The `Buf_I` contents of the frame in flight, kept between frames
    /// (always empty there) so that a frame allocates no survivor buffer.
    survivors: Vec<PackedCoord>,
    /// The vote pass's scratch, kept like `Buf_I`.
    arena: VoteArena,
}

impl EventorDevice {
    /// Builds a device for a configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            events: Vec::new(),
            survivors: Vec::new(),
            arena: VoteArena::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Runs one frame on the DSI `dsi` and returns its execution record.
    ///
    /// The frame pass runs the kernel on the shipped words. A key frame
    /// first resets `dsi`. `PE_Z0` ([`batch::project_z0_batch`] over the
    /// decoded `Buf_E` words) writes the survivors of the projection-missing
    /// judgement into `Buf_I`. Then
    /// [`DsiVolume::vote_batch`] runs, plane by plane, the `PE_Zi` array
    /// over every survivor and the Vote Execute Unit's saturating increment
    /// at each in-sensor vote: the voting engine's window pass over a window
    /// of this one frame.
    ///
    /// Returns `None`, and touches nothing, when the frame is empty, its
    /// plane count differs from the configured DSI depth, or `dsi` is not
    /// the configured sensor width × height × depth (the frame cost charges
    /// a key frame's reset from the configured size).
    pub fn run_frame(
        &mut self,
        job: &FrameJob,
        dsi: &mut DsiVolume<u16>,
    ) -> Option<FrameExecution> {
        let config = &self.config;
        if job.event_words.is_empty()
            || job.phi_words.len() != config.num_depth_planes
            || (dsi.width(), dsi.height(), dsi.num_planes())
                != (
                    config.sensor_width,
                    config.sensor_height,
                    config.num_depth_planes,
                )
        {
            return None;
        }
        if job.kind == FrameKind::Key {
            dsi.reset();
        }
        self.events
            .extend(job.event_words.iter().map(|&w| PackedCoord::from_word(w)));
        batch::project_z0_batch(&job.homography_words, &self.events, &mut self.survivors);
        self.events.clear();
        let votes_before = dsi.votes_cast();
        dsi.vote_batch(&self.survivors, &job.phi_words, &mut self.arena);
        let votes = dsi.votes_cast() - votes_before;
        let events_in = job.event_words.len() as u64;
        let survivors = self.survivors.len() as u64;
        self.survivors.clear();
        let timing = frame_cost(
            config,
            job.kind,
            events_in,
            survivors,
            votes,
            job.payload_bytes(),
        );
        Some(FrameExecution {
            kind: job.kind,
            events_in,
            events_dropped: events_in - survivors,
            transfers_missed: survivors * job.phi_words.len() as u64 - votes,
            votes_applied: votes,
            dma_cycles: timing.dma_cycles,
            canonical_cycles: timing.canonical_cycles,
            proportional_cycles: timing.proportional_cycles,
            reset_cycles: timing.reset_cycles,
            total_cycles: timing.total_cycles,
        })
    }
}

/// A zeroed DSI of the configuration's size, for the crate's tests.
#[cfg(test)]
pub(crate) fn dsi_for(config: &AcceleratorConfig) -> DsiVolume<u16> {
    let planes = eventor_dsi::DepthPlanes::uniform_inverse_depth(1.0, 2.0, config.num_depth_planes)
        .expect("at least two planes");
    DsiVolume::new(config.sensor_width, config.sensor_height, planes).expect("a non-empty sensor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_fixed::kernel;

    fn identity_job(events: usize, planes: usize, kind: FrameKind) -> FrameJob {
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        FrameJob {
            event_words: (0..events)
                .map(|i| PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word())
                .collect(),
            homography_words: kernel::quantize_homography(&[
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]),
            phi_words: vec![phi; planes],
            kind,
        }
    }

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig::default()
            .with_events_per_frame(64)
            .with_depth_planes(10)
    }

    #[test]
    fn identity_frame_votes_every_event_on_every_plane() {
        let config = small_config();
        let mut device = EventorDevice::new(config.clone());
        let mut dsi = dsi_for(&config);
        let job = identity_job(64, 10, FrameKind::Key);
        let exec = device.run_frame(&job, &mut dsi).unwrap();
        assert_eq!(exec.events_in, 64);
        assert_eq!(exec.events_dropped, 0);
        assert_eq!(exec.transfers_missed, 0);
        assert_eq!(exec.votes_applied, 64 * 10);
        assert_eq!(dsi.total_score(), 640.0);
        assert_eq!((dsi.votes_cast(), dsi.votes_missed()), (640, 0));
        // The identity projection votes exactly where the event sits.
        assert_eq!(dsi.score(5, 5, 0), 1.0);
    }

    #[test]
    fn empty_or_mismatched_jobs_raise_error_status() {
        let config = small_config();
        let mut device = EventorDevice::new(config.clone());
        let mut dsi = dsi_for(&config);
        let mut empty = identity_job(0, 10, FrameKind::Normal);
        empty.event_words.clear();
        assert!(device.run_frame(&empty, &mut dsi).is_none());

        let wrong_planes = identity_job(16, 3, FrameKind::Normal);
        assert!(device.run_frame(&wrong_planes, &mut dsi).is_none());

        // A DSI of another size than the configured one is refused, key
        // frame or not, and left as it was.
        let mut small = dsi_for(&config.clone().with_depth_planes(9));
        small.vote_at(1, 1, 1);
        let before = small.clone();
        for kind in [FrameKind::Key, FrameKind::Normal] {
            assert!(device
                .run_frame(&identity_job(16, 10, kind), &mut small)
                .is_none());
        }
        assert_eq!(small, before);
        assert_eq!(dsi, dsi_for(&config));
    }

    #[test]
    fn key_frames_reset_the_dsi_and_cost_more() {
        let config = small_config();
        let mut device = EventorDevice::new(config.clone());
        let mut dsi = dsi_for(&config);
        let normal = device
            .run_frame(&identity_job(64, 10, FrameKind::Normal), &mut dsi)
            .unwrap();
        assert_eq!(dsi.total_score(), 640.0);
        let key = device
            .run_frame(&identity_job(64, 10, FrameKind::Key), &mut dsi)
            .unwrap();
        // The key frame zeroed the DSI before voting again.
        assert_eq!(dsi.total_score(), 640.0);
        assert_eq!(dsi.votes_cast(), 640);
        assert!(key.total_cycles > normal.total_cycles);
        assert!(key.reset_cycles > 0);
        assert_eq!(normal.reset_cycles, 0);
    }

    #[test]
    fn paper_scale_frame_latency_matches_analytic_schedule() {
        // A full frame, in which every event survives and every transfer
        // votes, costs exactly what the analytic schedule charges.
        for num_pe in [1, 2, 4] {
            let config = AcceleratorConfig::default().with_pe_zi(num_pe);
            let mut device = EventorDevice::new(config.clone());
            let mut dsi = dsi_for(&config);
            for kind in [FrameKind::Normal, FrameKind::Key] {
                let exec = device
                    .run_frame(&identity_job(1024, 100, kind), &mut dsi)
                    .unwrap();
                let analytic = crate::schedule::frame_timing(&config, kind);
                assert_eq!(
                    [
                        exec.canonical_cycles,
                        exec.proportional_cycles,
                        exec.dma_cycles,
                        exec.reset_cycles,
                        exec.total_cycles
                    ],
                    [
                        analytic.canonical_cycles,
                        analytic.proportional_cycles,
                        analytic.dma_cycles,
                        analytic.reset_cycles,
                        analytic.total_cycles
                    ]
                );
            }
        }
        let config = AcceleratorConfig::default();
        let exec = EventorDevice::new(config.clone())
            .run_frame(
                &identity_job(1024, 100, FrameKind::Normal),
                &mut dsi_for(&config),
            )
            .unwrap();
        assert!((exec.total_us(&config) - 551.58).abs() < 30.0);
    }

    #[test]
    fn dropped_events_reduce_vote_traffic() {
        let config = small_config();
        let mut device = EventorDevice::new(config.clone());
        // A scaling homography throws most events out of the Q9.7 range.
        let mut job = identity_job(64, 10, FrameKind::Normal);
        job.homography_words =
            kernel::quantize_homography(&[[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 1.0]]);
        let exec = device.run_frame(&job, &mut dsi_for(&config)).unwrap();
        assert!(exec.events_dropped > 0);
        assert!(exec.votes_applied < 64 * 10);
        assert_eq!(
            exec.votes_applied + exec.transfers_missed,
            (exec.events_in - exec.events_dropped) * 10
        );
    }

    /// The per-vote path the frame pass replaced: each event through
    /// `kernel::project_z0`, each survivor through `kernel::transfer_nearest`
    /// on every plane, each in-sensor vote deposited alone with
    /// `DsiVolume::vote_at`, and the frame record costed from those counts.
    fn reference_frame(
        config: &AcceleratorConfig,
        dsi: &mut DsiVolume<u16>,
        job: &FrameJob,
    ) -> FrameExecution {
        let (width, height) = (config.sensor_width as u32, config.sensor_height as u32);
        if job.kind == FrameKind::Key {
            dsi.reset();
        }
        let (mut survivors, mut votes, mut missed) = (0u64, 0u64, 0u64);
        for &word in &job.event_words {
            let Some(c) = kernel::project_z0(&job.homography_words, PackedCoord::from_word(word))
            else {
                continue;
            };
            survivors += 1;
            for (plane, phi) in job.phi_words.iter().enumerate() {
                match kernel::transfer_nearest(phi, c, width, height).address() {
                    Some((x, y)) => {
                        dsi.vote_at(x, y, plane);
                        votes += 1;
                    }
                    None => missed += 1,
                }
            }
        }
        let events_in = job.event_words.len() as u64;
        let canonical_cycles = events_in + config.pe_z0_pipeline_overhead;
        let planes_per_pe = config.num_depth_planes.div_ceil(config.num_pe_zi) as u64;
        let address_cycles = survivors * planes_per_pe + config.pe_zi_pipeline_overhead;
        let vote_cycles = (votes as f64 / config.votes_per_cycle()).ceil() as Cycles;
        let proportional_cycles = address_cycles.max(vote_cycles);
        let dma_cycles = config.dma_setup_cycles
            + (job.payload_bytes() as f64 / config.dma_bytes_per_cycle).ceil() as Cycles;
        let exposed_dma = if config.double_buffering {
            0
        } else {
            dma_cycles
        };
        let (reset_cycles, total_cycles) = match job.kind {
            FrameKind::Normal => (0, proportional_cycles + exposed_dma),
            FrameKind::Key => {
                let dsi_bytes =
                    (config.sensor_width * config.sensor_height * config.num_depth_planes * 2)
                        as f64;
                let bytes_per_cycle = config.dram_peak_bandwidth() * config.dram_efficiency * 2.0
                    / config.fabric_clock.frequency_hz;
                (
                    (dsi_bytes / bytes_per_cycle).ceil() as Cycles,
                    canonical_cycles + proportional_cycles + exposed_dma,
                )
            }
        };
        FrameExecution {
            kind: job.kind,
            events_in,
            events_dropped: events_in - survivors,
            transfers_missed: missed,
            votes_applied: votes,
            dma_cycles,
            canonical_cycles,
            proportional_cycles,
            reset_cycles,
            total_cycles,
        }
    }

    #[test]
    fn frame_pass_matches_the_per_vote_reference() {
        const PLANES: usize = 6;
        let job =
            |kind, h: [[f64; 3]; 3], phi: &dyn Fn(usize) -> PhiWords, events: Vec<(f64, f64)>| {
                FrameJob {
                    event_words: events
                        .into_iter()
                        .map(|(x, y)| PackedCoord::from_f64(x, y).to_word())
                        .collect(),
                    homography_words: kernel::quantize_homography(&h),
                    phi_words: (0..PLANES).map(phi).collect(),
                    kind,
                }
            };
        let identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        let spread: Vec<(f64, f64)> = (0..200)
            .map(|i| ((i % 40) as f64 + 0.25, ((i * 7) % 30) as f64 - 0.5))
            .collect();
        // Voxel (3, 4) of every plane receives 33 000 votes a frame, so the
        // second such frame drives it 465 votes past u16::MAX.
        let pile: Vec<(f64, f64)> = (0..36_000)
            .map(|i| if i % 12 == 0 { (7.0, 8.0) } else { (3.0, 4.0) })
            .collect();
        let jobs = [
            // Scaling by 8 drops every event at x >= 32 (past the Q9.7
            // range); a scale of 1/8 brings the survivors back on the sensor.
            job(
                FrameKind::Key,
                [[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 1.0]],
                &|_| PhiWords::from_f64(0.125, 0.0, 0.0),
                spread.clone(),
            ),
            // Growing epipole offsets push more of each plane off the sensor.
            job(
                FrameKind::Normal,
                identity,
                &|i| {
                    PhiWords::from_f64(
                        1.0 - 0.05 * i as f64,
                        9.0 * i as f64 - 10.0,
                        -4.0 * i as f64,
                    )
                },
                spread,
            ),
            job(
                FrameKind::Normal,
                identity,
                &|_| PhiWords::from_f64(1.0, 0.0, 0.0),
                pile.clone(),
            ),
            job(
                FrameKind::Normal,
                identity,
                &|_| PhiWords::from_f64(1.0, 0.0, 0.0),
                pile,
            ),
        ];
        for num_pe in [1, 2, 4] {
            let mut config = AcceleratorConfig::default()
                .with_pe_zi(num_pe)
                .with_depth_planes(PLANES)
                .with_double_buffering(num_pe != 4);
            config.sensor_width = 40;
            config.sensor_height = 30;
            let mut device = EventorDevice::new(config.clone());
            let (mut dsi, mut reference) = (dsi_for(&config), dsi_for(&config));
            let execs = jobs.each_ref().map(|job| {
                let exec = device.run_frame(job, &mut dsi).expect("a valid job");
                assert_eq!(exec, reference_frame(&config, &mut reference, job));
                assert_eq!(dsi, reference, "DSI bytes or vote counts diverged");
                exec
            });
            assert!(execs[0].events_dropped > 0);
            assert!(execs[1].transfers_missed > 0 && execs[1].votes_applied > 0);
            assert_eq!(
                dsi.votes_cast(),
                execs.iter().map(|e| e.votes_applied).sum::<u64>()
            );
            assert_eq!(dsi.votes_missed(), 0);
            // 66 000 votes landed on each plane's (3, 4); the score stopped
            // at u16::MAX.
            assert_eq!(execs[2].votes_applied, PLANES as u64 * 36_000);
            assert_eq!(dsi.score(3, 4, PLANES - 1), f64::from(u16::MAX));
            assert_eq!(dsi.score(7, 8, 0), 6_000.0);
        }
    }

    #[test]
    fn frame_job_payload_accounts_for_all_buffers() {
        let job = identity_job(64, 10, FrameKind::Normal);
        assert_eq!(job.payload_bytes(), 64 * 4 + 10 * 12 + 36);
    }
}
