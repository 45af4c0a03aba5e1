//! The full functional device model: register file, the `PE_Z0` /
//! `PE_Zi` frame pass, Vote Execute Unit and DDR3-backed DSI, assembled the
//! way Fig. 5 assembles the prototype.
//!
//! [`EventorDevice`] is what the host driver in `eventor-core` talks to. A
//! frame is processed the same way the ARM PS drives the PL:
//!
//! 1. the driver stages a [`FrameJob`] (packed event words, `H_{Z0}` words
//!    and per-plane `φ` words) and the DMA streams it into the double
//!    buffers,
//! 2. the driver writes the control register to start the frame,
//! 3. `PE_Z0` writes the canonical projections of the surviving events into
//!    `Buf_I`; then, plane by plane, the `PE_Zi` array transfers every
//!    survivor and the Vote Execute Unit applies each in-sensor vote to that
//!    plane of the DSI in DRAM,
//! 4. the driver polls the status register, reads back the result counters
//!    and (at key-frame boundaries) reads the DSI out of DRAM.
//!
//! Step 3 runs the bit-true integer kernel of [`eventor_fixed::kernel`] on
//! the words the job shipped, as shipped: [`kernel::project_z0`] on the
//! `Buf_H` words, [`kernel::transfer_nearest`] on each plane's `Buf_P`
//! [`PhiWords`]. The host fills the job from the parameter block of
//! `eventor-emvs`, whose words the voting engine and the golden-model tests
//! hand to the same functions, so device ↔ golden-model agreement holds by
//! construction; `tests/cosim_equivalence.rs` asserts it end to end.
//!
//! A frame's cycles are the frame cost of [`crate::schedule`] charged with
//! the *actual* work performed (events surviving the projection-missing
//! judgement, votes that landed inside the sensor, the payload moved). The
//! analytic schedule is the same cost at full-frame counts, so the two agree
//! on full frames by construction, and the device model additionally
//! reflects dropped events and out-of-sensor transfers. Every counter — the
//! DRAM access statistics, the [`FrameExecution`] record, the lifetime
//! [`DeviceStats`] and the result registers — is charged from counts once
//! per plane or once per frame, never per vote.

use crate::dram::DsiDram;
use crate::registers::{ctrl, status, Register, RegisterFile};
use crate::schedule::{dma_cycles, frame_cost, payload_bytes, FrameKind};
use crate::timing::{AcceleratorConfig, Cycles};
use eventor_fixed::kernel::{self, batch, PhiWords};
use eventor_fixed::PackedCoord;

/// The per-frame input set staged by the host driver.
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

/// Aggregate statistics over the device's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Frames executed.
    pub frames: u64,
    /// Key frames executed.
    pub key_frames: u64,
    /// Total events received.
    pub events_in: u64,
    /// Total events dropped.
    pub events_dropped: u64,
    /// Total votes applied.
    pub votes_applied: u64,
    /// Total cycles of accelerator busy time.
    pub busy_cycles: Cycles,
}

/// The assembled Eventor device model.
#[derive(Debug, Clone, PartialEq)]
pub struct EventorDevice {
    config: AcceleratorConfig,
    registers: RegisterFile,
    dram: DsiDram,
    /// The `Buf_I` contents of the frame in flight, kept between frames
    /// (always empty there) so that a frame allocates no survivor buffer.
    survivors: Vec<PackedCoord>,
    staged: Option<FrameJob>,
    stats: DeviceStats,
}

impl EventorDevice {
    /// Builds a device for a configuration, with a zeroed DSI in DRAM.
    pub fn new(config: AcceleratorConfig) -> Self {
        let mut registers = RegisterFile::new();
        registers.write(Register::NumPlanes, config.num_depth_planes as u32);
        registers.write(Register::SensorWidth, config.sensor_width as u32);
        registers.write(Register::SensorHeight, config.sensor_height as u32);
        Self {
            dram: DsiDram::for_config(&config),
            survivors: Vec::new(),
            registers,
            staged: None,
            stats: DeviceStats::default(),
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Host view of the register file.
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.registers
    }

    /// Read-only view of the register file.
    pub fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    /// The DSI volume stored in DRAM.
    pub fn dsi(&self) -> &DsiDram {
        &self.dram
    }

    /// Lifetime statistics of the device.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Zeroes the DSI region (the host-initiated reset outside frame
    /// processing).
    pub fn reset_dsi(&mut self) {
        self.dram.reset();
    }

    /// Overwrites the DSI region with a snapshotted score image (the
    /// checkpoint-restore path: a host-side DMA that bypasses the Vote
    /// Execute Unit, so access statistics are untouched).
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not cover the DSI region exactly.
    pub fn load_dsi(&mut self, scores: &[u16]) {
        self.dram.load_scores(scores);
    }

    /// Stages a frame job and performs the DMA transfer into the input
    /// buffers, returning the transfer cycles (the frame record's
    /// [`FrameExecution::dma_cycles`]).
    ///
    /// The transfer is rejected (status `ERROR` raised, `None` returned) when
    /// the frame is empty or its plane count disagrees with the configured
    /// DSI depth.
    pub fn load_frame(&mut self, job: FrameJob) -> Option<Cycles> {
        if job.event_words.is_empty() || job.phi_words.len() != self.config.num_depth_planes {
            self.registers.set_status(status::ERROR);
            return None;
        }
        self.registers.clear_status(status::ERROR | status::DONE);
        let cycles = dma_cycles(&self.config, job.payload_bytes());
        self.registers
            .write(Register::NumEvents, job.event_words.len() as u32);
        self.registers.write(
            Register::FrameKind,
            match job.kind {
                FrameKind::Normal => 0,
                FrameKind::Key => 1,
            },
        );
        self.registers.clear_status(status::BUF_E_READY);
        self.staged = Some(job);
        Some(cycles)
    }

    /// Starts the staged frame by writing the control register, runs it to
    /// completion and returns its execution record.
    ///
    /// The frame pass runs the kernel on the staged words. A key frame first
    /// resets the DSI. `PE_Z0` ([`kernel::project_z0`]) writes the survivors
    /// of the projection-missing judgement into `Buf_I`. Then, plane by
    /// plane, the `PE_Zi` array ([`kernel::transfer_nearest`]) transfers
    /// every survivor and the Vote Execute Unit applies each in-sensor vote
    /// to the plane's DSI slab ([`DsiDram::vote_plane`]).
    ///
    /// Returns `None` (with status `ERROR`) when no frame is staged.
    pub fn start_frame(&mut self) -> Option<FrameExecution> {
        let Some(job) = self.staged.take() else {
            self.registers.set_status(status::ERROR);
            return None;
        };
        let mut control = ctrl::START | ctrl::IRQ_ENABLE;
        if job.kind == FrameKind::Key {
            control |= ctrl::RESET_DSI;
        }
        self.registers.write(Register::Control, control);
        self.registers.set_status(status::BUSY);
        self.registers.clear_status(status::DONE);

        if job.kind == FrameKind::Key {
            self.dram.reset();
        }
        self.survivors.extend(
            job.event_words.iter().filter_map(|&w| {
                kernel::project_z0(&job.homography_words, PackedCoord::from_word(w))
            }),
        );
        let (width, height) = (
            self.config.sensor_width as u32,
            self.config.sensor_height as u32,
        );
        let mut votes = 0;
        for (plane, phi) in job.phi_words.iter().enumerate() {
            // Have the next plane's slab on its way into L2 while this one
            // is voted, as the engine's window pass does; a hint changes no
            // value.
            if plane + 1 < job.phi_words.len() {
                batch::prefetch_l2(self.dram.plane_scores(plane + 1));
            }
            votes += self.dram.vote_plane(
                plane,
                self.survivors
                    .iter()
                    .filter_map(|&c| kernel::transfer_nearest(phi, c, width, height).address()),
            );
        }
        let events_in = job.event_words.len() as u64;
        let survivors = self.survivors.len() as u64;
        self.survivors.clear();
        let timing = frame_cost(
            &self.config,
            job.kind,
            events_in,
            survivors,
            votes,
            job.payload_bytes(),
        );
        let execution = FrameExecution {
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
        };

        self.registers.clear_status(status::BUSY);
        self.registers
            .set_status(status::DONE | status::BUF_E_READY);
        self.registers
            .write(Register::VotesApplied, execution.votes_applied as u32);
        self.registers
            .write(Register::EventsDropped, execution.events_dropped as u32);
        self.registers.set_cycle_result(execution.total_cycles);
        self.registers.write(Register::InterruptStatus, 1);

        self.stats.frames += 1;
        if execution.kind == FrameKind::Key {
            self.stats.key_frames += 1;
        }
        self.stats.events_in += execution.events_in;
        self.stats.events_dropped += execution.events_dropped;
        self.stats.votes_applied += execution.votes_applied;
        self.stats.busy_cycles += execution.total_cycles;
        Some(execution)
    }

    /// Convenience wrapper: stage, transfer and execute a frame in one call,
    /// the way the interrupt-driven driver loop does.
    pub fn run_frame(&mut self, job: FrameJob) -> Option<FrameExecution> {
        self.load_frame(job)?;
        self.start_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let job = identity_job(64, 10, FrameKind::Key);
        let exec = device.run_frame(job).unwrap();
        assert_eq!(exec.events_in, 64);
        assert_eq!(exec.events_dropped, 0);
        assert_eq!(exec.transfers_missed, 0);
        assert_eq!(exec.votes_applied, 64 * 10);
        assert_eq!(device.dsi().total_score(), 64 * 10);
        assert_eq!(device.stats().frames, 1);
        assert_eq!(device.stats().key_frames, 1);
        // The identity projection votes exactly where the event sits.
        assert_eq!(device.dsi().score(5, 5, 0), Some(1));
    }

    #[test]
    fn register_interface_reports_results() {
        let config = small_config();
        let mut device = EventorDevice::new(config);
        let job = identity_job(32, 10, FrameKind::Normal);
        let exec = device.run_frame(job).unwrap();
        assert!(device.registers().status_is(status::DONE));
        assert!(!device.registers().status_is(status::BUSY));
        assert_eq!(
            device.registers().peek(Register::VotesApplied) as u64,
            exec.votes_applied
        );
        assert_eq!(device.registers().cycle_result(), exec.total_cycles);
        assert_eq!(device.registers().peek(Register::NumEvents), 32);
        assert!(device.registers().peek(Register::Control) & ctrl::START != 0);
    }

    #[test]
    fn empty_or_mismatched_jobs_raise_error_status() {
        let config = small_config();
        let mut device = EventorDevice::new(config);
        let mut empty = identity_job(0, 10, FrameKind::Normal);
        empty.event_words.clear();
        assert!(device.load_frame(empty).is_none());
        assert!(device.registers().status_is(status::ERROR));

        let wrong_planes = identity_job(16, 3, FrameKind::Normal);
        assert!(device.load_frame(wrong_planes).is_none());

        // Starting without a staged frame is also an error.
        assert!(device.start_frame().is_none());
    }

    #[test]
    fn key_frames_reset_the_dsi_and_cost_more() {
        let config = small_config();
        let mut device = EventorDevice::new(config);
        let normal = device
            .run_frame(identity_job(64, 10, FrameKind::Normal))
            .unwrap();
        assert_eq!(device.dsi().total_score(), 640);
        let key = device
            .run_frame(identity_job(64, 10, FrameKind::Key))
            .unwrap();
        // The key frame zeroed the DSI before voting again.
        assert_eq!(device.dsi().total_score(), 640);
        assert!(key.total_cycles > normal.total_cycles);
        assert!(key.reset_cycles > 0);
        assert_eq!(normal.reset_cycles, 0);
    }

    #[test]
    fn paper_scale_frame_latency_matches_analytic_schedule() {
        // A full frame, in which every event survives and every transfer
        // votes, costs exactly what the analytic schedule charges, and the
        // DMA cycles of its transfer are the ones its record reports.
        for num_pe in [1, 2, 4] {
            let config = AcceleratorConfig::default().with_pe_zi(num_pe);
            let mut device = EventorDevice::new(config.clone());
            for kind in [FrameKind::Normal, FrameKind::Key] {
                let dma = device.load_frame(identity_job(1024, 100, kind)).unwrap();
                let exec = device.start_frame().unwrap();
                let analytic = crate::schedule::frame_timing(&config, kind);
                assert_eq!(dma, exec.dma_cycles);
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
            .run_frame(identity_job(1024, 100, FrameKind::Normal))
            .unwrap();
        assert!((exec.total_us(&config) - 551.58).abs() < 30.0);
    }

    #[test]
    fn dropped_events_reduce_vote_traffic() {
        let config = small_config();
        let mut device = EventorDevice::new(config);
        // A scaling homography throws most events out of the Q9.7 range.
        let mut job = identity_job(64, 10, FrameKind::Normal);
        job.homography_words =
            kernel::quantize_homography(&[[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 1.0]]);
        let exec = device.run_frame(job).unwrap();
        assert!(exec.events_dropped > 0);
        assert!(exec.votes_applied < 64 * 10);
        assert_eq!(
            exec.votes_applied + exec.transfers_missed,
            (exec.events_in - exec.events_dropped) * 10
        );
    }

    #[test]
    fn device_accumulates_lifetime_stats() {
        let config = small_config();
        let mut device = EventorDevice::new(config);
        for i in 0..5 {
            let kind = if i == 0 {
                FrameKind::Key
            } else {
                FrameKind::Normal
            };
            device.run_frame(identity_job(64, 10, kind)).unwrap();
        }
        let stats = device.stats();
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.key_frames, 1);
        assert_eq!(stats.events_in, 320);
        assert_eq!(stats.votes_applied, 5 * 640);
        assert!(stats.busy_cycles > 0);
        device.reset_dsi();
        assert_eq!(device.dsi().total_score(), 0);
    }

    /// The per-vote path the frame pass replaced: each event through
    /// `kernel::project_z0`, each survivor through `kernel::transfer_nearest`
    /// on every plane, each in-sensor vote applied alone with
    /// `DsiDram::vote`, and the frame record costed from those counts.
    fn reference_frame(
        config: &AcceleratorConfig,
        dram: &mut DsiDram,
        job: &FrameJob,
    ) -> FrameExecution {
        let (width, height) = (config.sensor_width as u32, config.sensor_height as u32);
        if job.kind == FrameKind::Key {
            dram.reset();
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
                        let addr = dram.linear_address(x as usize, y as usize, plane);
                        dram.vote(addr.expect("in-sensor voxel"))
                            .expect("in the DSI");
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
            let mut reference = DsiDram::for_config(&config);
            let execs = jobs.each_ref().map(|job| {
                let exec = device.run_frame(job.clone()).expect("a valid job");
                assert_eq!(exec, reference_frame(&config, &mut reference, job));
                assert_eq!(
                    device.dsi(),
                    &reference,
                    "DSI bytes or DRAM statistics diverged"
                );
                exec
            });
            assert!(execs[0].events_dropped > 0);
            assert!(execs[1].transfers_missed > 0 && execs[1].votes_applied > 0);
            assert_eq!(
                device.dsi().stats().saturated_votes,
                PLANES as u64 * (66_000 - u16::MAX as u64)
            );
            assert_eq!(device.dsi().score(3, 4, PLANES - 1), Some(u16::MAX));
            assert_eq!(device.dsi().score(7, 8, 0), Some(6_000));
        }
    }

    #[test]
    fn frame_job_payload_accounts_for_all_buffers() {
        let job = identity_job(64, 10, FrameKind::Normal);
        assert_eq!(job.payload_bytes(), 64 * 4 + 10 * 12 + 36);
    }
}
