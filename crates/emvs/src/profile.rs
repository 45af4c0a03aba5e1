//! Per-stage runtime profiling of the EMVS pipeline.
//!
//! The paper motivates the hardware partition with two measurements on the
//! CPU implementation: event back-projection (`𝒫`) plus volumetric
//! ray-counting (`ℛ`) account for over 80 % of the total runtime, and four
//! hot sub-tasks (`𝒫{Z0}`, `𝒫{Z0;Zi}`, `𝒢`, `𝒱`) account for over 90 % of
//! `𝒫 + ℛ`. [`StageProfile`] reproduces that breakdown and feeds the CPU
//! column of Table 3.

use std::fmt;
use std::time::Duration;

/// The pipeline stages that are timed individually.
///
/// Every stage holds measured time only, never a share of a fused
/// interval. The built-in backends fuse the vote `𝒱` into the transfer loop,
/// so they report it inside [`Stage::ProportionalProjection`] and leave
/// [`Stage::VoteDsi`] empty. The voting engine runs the canonical projection
/// on the calling thread at every shard count, so
/// [`Stage::CanonicalProjection`] is measured everywhere; above one shard
/// the vote interval also includes the worker spawn and join. Table 3
/// row 2, the §2.1 shares and the `emvs.vote_fused_us_per_frame` benchmark
/// metric read only the sum of the two vote-side stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Event aggregation `𝒜`.
    Aggregation,
    /// Event distortion correction.
    DistortionCorrection,
    /// Computing the homography `H_{Z0}` (once per frame).
    ComputeHomography,
    /// Canonical event back-projection `𝒫{Z0}` (per event).
    CanonicalProjection,
    /// Computing the proportional coefficients `φ` (once per frame).
    ComputeCoefficients,
    /// Proportional back-projection `𝒫{Z0;Zi}` and vote generation `𝒢`
    /// (per event, per plane) — with the DSI vote `𝒱` fused in on the
    /// built-in backends, and the shard spawn and join above one shard.
    ProportionalProjection,
    /// Voting DSI voxels `𝒱`, for a profile that times it apart from
    /// `𝒫{Z0;Zi} + 𝒢` (the built-in backends do not).
    VoteDsi,
    /// Scene structure detection `𝒟` (on the one DSI: no tile reduction
    /// hides here).
    Detection,
    /// Map merging `ℳ` (reset DSI, point-cloud conversion, map update).
    Merging,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Aggregation,
        Stage::DistortionCorrection,
        Stage::ComputeHomography,
        Stage::CanonicalProjection,
        Stage::ComputeCoefficients,
        Stage::ProportionalProjection,
        Stage::VoteDsi,
        Stage::Detection,
        Stage::Merging,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Aggregation => "aggregation",
            Self::DistortionCorrection => "distortion correction",
            Self::ComputeHomography => "compute H_Z0",
            Self::CanonicalProjection => "P{Z0}",
            Self::ComputeCoefficients => "compute phi",
            Self::ProportionalProjection => "P{Z0;Zi} + G",
            Self::VoteDsi => "vote DSI (V)",
            Self::Detection => "detection",
            Self::Merging => "merging",
        }
    }

    /// Whether the stage belongs to `𝒫` (back-projection) or `ℛ`
    /// (ray-counting) — the portion the paper offloads to the FPGA.
    pub fn is_projection_or_raycounting(self) -> bool {
        matches!(
            self,
            Self::ComputeHomography
                | Self::CanonicalProjection
                | Self::ComputeCoefficients
                | Self::ProportionalProjection
                | Self::VoteDsi
        )
    }

    /// Whether the stage is one of the four hot sub-tasks accelerated on the
    /// FPGA (`𝒫{Z0}`, `𝒫{Z0;Zi}`, `𝒢`, `𝒱`).
    pub fn is_fpga_subtask(self) -> bool {
        matches!(
            self,
            Self::CanonicalProjection | Self::ProportionalProjection | Self::VoteDsi
        )
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Accumulated per-stage runtimes plus event/frame counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageProfile {
    durations: [Duration; 9],
    /// Number of events processed.
    pub events_processed: u64,
    /// Number of event frames processed.
    pub frames_processed: u64,
    /// Number of key frames selected.
    pub keyframes: u64,
}

impl StageProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(stage: Stage) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage is in ALL")
    }

    /// Adds elapsed time to a stage.
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.durations[Self::slot(stage)] += elapsed;
    }

    /// Total accumulated time of one stage.
    pub fn stage_time(&self, stage: Stage) -> Duration {
        self.durations[Self::slot(stage)]
    }

    /// Total time across all stages.
    pub fn total_time(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Time spent in `𝒫 + ℛ` (the portion the paper accelerates).
    pub fn projection_raycounting_time(&self) -> Duration {
        Stage::ALL
            .iter()
            .filter(|s| s.is_projection_or_raycounting())
            .map(|&s| self.stage_time(s))
            .sum()
    }

    /// Fraction of the total runtime spent in `𝒫 + ℛ` (the paper reports
    /// over 80 %).
    pub fn projection_raycounting_fraction(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.projection_raycounting_time().as_secs_f64() / total
    }

    /// Fraction of `𝒫 + ℛ` spent in the four FPGA-accelerated sub-tasks
    /// (the paper reports over 90 %).
    pub fn fpga_subtask_fraction(&self) -> f64 {
        let pr = self.projection_raycounting_time().as_secs_f64();
        if pr <= 0.0 {
            return 0.0;
        }
        let hot: f64 = Stage::ALL
            .iter()
            .filter(|s| s.is_fpga_subtask())
            .map(|&s| self.stage_time(s).as_secs_f64())
            .sum();
        hot / pr
    }

    /// Mean runtime of `𝒫{Z0}` per event frame, in microseconds
    /// (Table 3, first row).
    pub fn canonical_us_per_frame(&self) -> f64 {
        if self.frames_processed == 0 {
            return 0.0;
        }
        self.stage_time(Stage::CanonicalProjection).as_secs_f64() * 1e6
            / self.frames_processed as f64
    }

    /// Mean runtime of `𝒫{Z0;Zi} + ℛ` per event frame, in microseconds
    /// (Table 3, second row).
    pub fn proportional_raycount_us_per_frame(&self) -> f64 {
        if self.frames_processed == 0 {
            return 0.0;
        }
        let t = self.stage_time(Stage::ProportionalProjection) + self.stage_time(Stage::VoteDsi);
        t.as_secs_f64() * 1e6 / self.frames_processed as f64
    }

    /// Mean total runtime per event frame in microseconds, counting only the
    /// frame-rate stages (`𝒫 + ℛ`), i.e. the Table 3 "runtime per event
    /// frame" rows.
    pub fn frame_us(&self) -> f64 {
        self.canonical_us_per_frame() + self.proportional_raycount_us_per_frame()
    }

    /// Event processing rate in events per second implied by the `𝒫 + ℛ`
    /// runtime (Table 3, "event processing rate").
    pub fn event_rate(&self) -> f64 {
        let t = self.projection_raycounting_time().as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        self.events_processed as f64 / t
    }

    /// Formats the per-stage breakdown as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let total = self.total_time().as_secs_f64().max(1e-12);
        out.push_str(&format!(
            "{:<24} {:>12} {:>8}\n",
            "stage", "time (ms)", "share"
        ));
        for stage in Stage::ALL {
            let t = self.stage_time(stage).as_secs_f64();
            out.push_str(&format!(
                "{:<24} {:>12.3} {:>7.1}%\n",
                stage.name(),
                t * 1e3,
                100.0 * t / total
            ));
        }
        out.push_str(&format!(
            "P+R share of total: {:.1}%   hot sub-tasks share of P+R: {:.1}%\n",
            100.0 * self.projection_raycounting_fraction(),
            100.0 * self.fpga_subtask_fraction()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_classification() {
        assert!(Stage::CanonicalProjection.is_projection_or_raycounting());
        assert!(Stage::VoteDsi.is_fpga_subtask());
        assert!(!Stage::Detection.is_projection_or_raycounting());
        assert!(!Stage::ComputeHomography.is_fpga_subtask());
        assert!(Stage::ComputeHomography.is_projection_or_raycounting());
        assert_eq!(Stage::ALL.len(), 9);
    }

    #[test]
    fn accumulation_and_fractions() {
        let mut p = StageProfile::new();
        p.add(Stage::CanonicalProjection, Duration::from_millis(10));
        p.add(Stage::ProportionalProjection, Duration::from_millis(60));
        p.add(Stage::VoteDsi, Duration::from_millis(20));
        p.add(Stage::Detection, Duration::from_millis(10));
        assert_eq!(p.total_time(), Duration::from_millis(100));
        assert!((p.projection_raycounting_fraction() - 0.9).abs() < 1e-9);
        assert!((p.fpga_subtask_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_frame_metrics() {
        let mut p = StageProfile::new();
        p.frames_processed = 10;
        p.events_processed = 10 * 1024;
        p.add(Stage::CanonicalProjection, Duration::from_micros(224));
        p.add(Stage::ProportionalProjection, Duration::from_micros(4000));
        p.add(Stage::VoteDsi, Duration::from_micros(1595));
        assert!((p.canonical_us_per_frame() - 22.4).abs() < 1e-6);
        assert!((p.proportional_raycount_us_per_frame() - 559.5).abs() < 1e-6);
        assert!(p.frame_us() > 500.0);
        assert!(p.event_rate() > 1e6);
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let p = StageProfile::new();
        assert_eq!(p.total_time(), Duration::ZERO);
        assert_eq!(p.projection_raycounting_fraction(), 0.0);
        assert_eq!(p.fpga_subtask_fraction(), 0.0);
        assert_eq!(p.event_rate(), 0.0);
        assert_eq!(p.frame_us(), 0.0);
        assert!(!p.to_table().is_empty());
    }
}
