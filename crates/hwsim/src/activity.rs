//! Activity-based energy model: energy per frame derived from the *actual*
//! work the functional device performed, rather than from average power
//! alone.
//!
//! The static [`crate::PowerModel`] reproduces the Table 3 power row (1.86 W
//! for the prototype). This module complements it with a bottom-up view:
//! per-operation energies for the `PE_Z0` MACs, the per-plane transfers of
//! the `PE_Zi` array, the DSI read-modify-write traffic, the on-chip buffer
//! accesses and the DMA input stream, plus the platform's static power over
//! the frame latency. Fed with a [`FrameExecution`] from the device model it
//! yields an energy breakdown whose implied average power agrees with the
//! calibrated static model on paper-scale frames, and which additionally
//! shows *where* the energy goes and how it shifts when events are dropped,
//! planes are reduced or frames shrink.

use crate::device::FrameExecution;
use crate::schedule::payload_bytes;
use crate::timing::AcceleratorConfig;

/// Per-operation energy constants of the activity model, in picojoules, plus
/// the platform's static power.
///
/// The defaults are calibrated so that a full 1024-event, 100-plane frame
/// (102 400 votes, 551.58 µs) lands at the paper's 1.86 W average power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityEnergyModel {
    /// Energy of one canonical projection (3×3 MAC + normalization) in `PE_Z0`.
    pub pj_per_canonical_projection: f64,
    /// Energy of one plane transfer (scalar MAC + nearest-voxel find + vote
    /// address generation) in a `PE_Zi`.
    pub pj_per_plane_transfer: f64,
    /// Energy per byte of DSI read-modify-write traffic at the DDR3 interface.
    pub pj_per_dram_byte: f64,
    /// Energy per on-chip buffer (BRAM) access.
    pub pj_per_bram_access: f64,
    /// Energy per byte streamed in by the DMA engine.
    pub pj_per_dma_byte: f64,
    /// Static platform power (PS, PL static, DRAM background), watts.
    pub static_power_w: f64,
}

impl Default for ActivityEnergyModel {
    fn default() -> Self {
        Self {
            pj_per_canonical_projection: 5_000.0,
            pj_per_plane_transfer: 1_000.0,
            pj_per_dram_byte: 200.0,
            pj_per_bram_access: 100.0,
            pj_per_dma_byte: 50.0,
            static_power_w: 1.48,
        }
    }
}

/// Energy breakdown of one frame (or an accumulated set of frames), joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Canonical-projection (`PE_Z0`) energy.
    pub canonical_j: f64,
    /// Proportional-projection / vote-generation (`PE_Zi` array) energy.
    pub proportional_j: f64,
    /// DSI read-modify-write energy at the DRAM interface.
    pub vote_dram_j: f64,
    /// On-chip buffer access energy.
    pub bram_j: f64,
    /// DMA input-stream energy.
    pub dma_j: f64,
    /// Static platform energy over the frame latency.
    pub static_j: f64,
    /// Frame latency the static share was integrated over, seconds.
    pub seconds: f64,
    /// Events that entered the frame(s).
    pub events: u64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.canonical_j
            + self.proportional_j
            + self.vote_dram_j
            + self.bram_j
            + self.dma_j
            + self.static_j
    }

    /// Dynamic (activity-proportional) energy in joules.
    pub fn dynamic_j(&self) -> f64 {
        self.total_j() - self.static_j
    }

    /// Implied average power over the frame latency, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.total_j() / self.seconds
    }

    /// Energy per event in nanojoules.
    pub fn nj_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.total_j() * 1e9 / self.events as f64
    }

    /// Accumulates another breakdown (for whole-sequence totals).
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.canonical_j += other.canonical_j;
        self.proportional_j += other.proportional_j;
        self.vote_dram_j += other.vote_dram_j;
        self.bram_j += other.bram_j;
        self.dma_j += other.dma_j;
        self.static_j += other.static_j;
        self.seconds += other.seconds;
        self.events += other.events;
    }
}

impl ActivityEnergyModel {
    /// Computes the energy breakdown of one executed frame.
    pub fn frame_energy(
        &self,
        execution: &FrameExecution,
        config: &AcceleratorConfig,
    ) -> EnergyBreakdown {
        let pj = 1e-12;
        let surviving = execution.events_in - execution.events_dropped;
        let transfers = execution.votes_applied + execution.transfers_missed;
        let seconds = config
            .fabric_clock
            .cycles_to_seconds(execution.total_cycles);

        // Input payload: packed events, per-plane phi and the homography.
        let dma_bytes = payload_bytes(execution.events_in as usize, config.num_depth_planes) as f64;
        // Buffer traffic: each event word is written and read once in Buf_E,
        // each surviving canonical projection is written and read once in
        // Buf_I, each vote address is written and read once in Buf_V.
        let bram_accesses = 2.0 * execution.events_in as f64
            + 2.0 * surviving as f64
            + 2.0 * execution.votes_applied as f64;

        EnergyBreakdown {
            canonical_j: self.pj_per_canonical_projection * execution.events_in as f64 * pj,
            proportional_j: self.pj_per_plane_transfer * transfers as f64 * pj,
            vote_dram_j: self.pj_per_dram_byte
                * (execution.votes_applied as f64 * config.bytes_per_vote as f64)
                * pj,
            bram_j: self.pj_per_bram_access * bram_accesses * pj,
            dma_j: self.pj_per_dma_byte * dma_bytes * pj,
            static_j: self.static_power_w * seconds,
            seconds,
            events: execution.events_in,
        }
    }

    /// Accumulates the energy of a sequence of executed frames.
    pub fn sequence_energy(
        &self,
        executions: &[FrameExecution],
        config: &AcceleratorConfig,
    ) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for e in executions {
            total.accumulate(&self.frame_energy(e, config));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{dsi_for, EventorDevice, FrameJob};
    use crate::schedule::FrameKind;
    use eventor_fixed::kernel::{self, PhiWords};
    use eventor_fixed::PackedCoord;

    const IDENTITY: [[f64; 3]; 3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];

    fn paper_scale_execution() -> (FrameExecution, AcceleratorConfig) {
        let config = AcceleratorConfig::default();
        let mut device = EventorDevice::new(config.clone());
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        let job = FrameJob {
            event_words: (0..1024)
                .map(|i| PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word())
                .collect(),
            homography_words: kernel::quantize_homography(&IDENTITY),
            phi_words: vec![phi; 100],
            kind: FrameKind::Normal,
        };
        let exec = device
            .run_frame(&job, &mut dsi_for(&config))
            .expect("frame accepted");
        (exec, config)
    }

    #[test]
    fn paper_scale_frame_average_power_matches_static_model() {
        let (exec, config) = paper_scale_execution();
        let breakdown = ActivityEnergyModel::default().frame_energy(&exec, &config);
        let power = breakdown.average_power_w();
        // The static model (Table 3) puts the prototype at 1.86 W; the
        // activity model must agree to within ~10 % on a full frame.
        assert!((power - 1.86).abs() < 0.2, "average power {power} W");
        assert!(breakdown.total_j() > 0.0);
        assert!(breakdown.dynamic_j() > 0.0);
        assert!(
            breakdown.static_j > breakdown.dynamic_j(),
            "static power dominates at 130 MHz"
        );
        // Roughly 1 µJ per event at ~1.86 W and ~1.86 Mev/s.
        let nj = breakdown.nj_per_event();
        assert!(nj > 500.0 && nj < 2000.0, "{nj} nJ per event");
    }

    #[test]
    fn vote_traffic_dominates_the_dynamic_energy() {
        let (exec, config) = paper_scale_execution();
        let b = ActivityEnergyModel::default().frame_energy(&exec, &config);
        assert!(b.proportional_j + b.vote_dram_j > b.canonical_j + b.dma_j);
        assert!(b.vote_dram_j > b.dma_j);
    }

    #[test]
    fn fewer_planes_reduce_dynamic_energy_proportionally() {
        let config_full = AcceleratorConfig::default();
        let config_half = AcceleratorConfig::default().with_depth_planes(50);
        let model = ActivityEnergyModel::default();

        let run = |config: &AcceleratorConfig| {
            let mut device = EventorDevice::new(config.clone());
            let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
            let job = FrameJob {
                event_words: (0..512)
                    .map(|i| PackedCoord::from_f64((i % 200) as f64, (i % 150) as f64).to_word())
                    .collect(),
                homography_words: kernel::quantize_homography(&IDENTITY),
                phi_words: vec![phi; config.num_depth_planes],
                kind: FrameKind::Normal,
            };
            device
                .run_frame(&job, &mut dsi_for(config))
                .expect("frame accepted")
        };

        let full = model.frame_energy(&run(&config_full), &config_full);
        let half = model.frame_energy(&run(&config_half), &config_half);
        let ratio = half.dynamic_j() / full.dynamic_j();
        assert!(ratio > 0.4 && ratio < 0.65, "dynamic energy ratio {ratio}");
    }

    #[test]
    fn sequence_energy_accumulates_frames() {
        let (exec, config) = paper_scale_execution();
        let model = ActivityEnergyModel::default();
        let single = model.frame_energy(&exec, &config);
        let triple = model.sequence_energy(&[exec, exec, exec], &config);
        assert!((triple.total_j() - 3.0 * single.total_j()).abs() < 1e-12);
        assert_eq!(triple.events, 3 * single.events);
        assert!((triple.seconds - 3.0 * single.seconds).abs() < 1e-12);
        assert!((triple.average_power_w() - single.average_power_w()).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = EnergyBreakdown::default();
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.average_power_w(), 0.0);
        assert_eq!(b.nj_per_event(), 0.0);
    }
}
