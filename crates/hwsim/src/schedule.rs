//! Frame-level pipeline schedule of the accelerator (Fig. 6 of the paper):
//! the one cost function of an event frame, and the Table 3 performance
//! figures (Eventor column), which are that cost at full-frame counts.
//!
//! For a **normal** frame the Canonical Projection Module runs concurrently
//! with the Proportional Projection Module working on the previous frame's
//! canonical output, so the per-frame latency is the Proportional Projection
//! Module's time alone (`𝒫{Z0}` is hidden). For a **key** frame the DSI is
//! reset and the pipeline drains: the canonical projection of the key frame
//! cannot be overlapped, so its latency adds to the frame time.
//!
//! Every unit is fully pipelined with an initiation interval of one, so its
//! time for a frame is `work_items + pipeline_overhead` cycles.

use crate::timing::{AcceleratorConfig, Cycles};

/// Frame type within the pipeline schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A regular event frame: `𝒫{Z0}` is overlapped with the previous frame.
    Normal,
    /// The first frame after a new key reference view was selected.
    Key,
}

/// Latency breakdown of a single event frame on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameTiming {
    /// Cycles spent in the Canonical Projection Module (`𝒫{Z0}`): `PE_Z0`
    /// projects one event per cycle.
    pub canonical_cycles: Cycles,
    /// Cycles the `PE_Zi` array needs to generate the vote addresses: each
    /// surviving event visits every depth plane, and the planes are divided
    /// evenly among the `PE_Zi`.
    pub address_cycles: Cycles,
    /// Cycles the Vote Execute Unit needs to apply the in-sensor votes
    /// (read-modify-write of 16-bit scores over the AXI-HP ports).
    pub vote_cycles: Cycles,
    /// Cycles spent in the Proportional Projection Module (`𝒫{Z0;Zi}` + `ℛ`).
    pub proportional_cycles: Cycles,
    /// Cycles the DMA needs to move the frame's input set into the buffers.
    pub dma_cycles: Cycles,
    /// Cycles of DMA input transfer that are *not* hidden by double
    /// buffering (zero when double buffering is enabled).
    pub exposed_dma_cycles: Cycles,
    /// Cycles spent resetting the DSI (key frames only).
    pub reset_cycles: Cycles,
    /// Total frame latency in cycles as seen by the pipeline.
    pub total_cycles: Cycles,
}

/// Bytes of a frame's input set: 4 per event (two packed Q9.7
/// coordinates), 12 per depth plane (three Q11.21 `φ` words) and the nine
/// Q11.21 words of `H_{Z0}`.
pub(crate) fn payload_bytes(events: usize, planes: usize) -> usize {
    events * 4 + planes * 12 + 36
}

/// DMA cycles to stream `payload_bytes` into the input buffers: a per-frame
/// setup plus the payload at the DMA's bandwidth.
pub(crate) fn dma_cycles(config: &AcceleratorConfig, payload_bytes: usize) -> Cycles {
    config.dma_setup_cycles + (payload_bytes as f64 / config.dma_bytes_per_cycle).ceil() as Cycles
}

/// The cost of one frame from its counts: `events_in` events shipped,
/// `survivors` of them kept by the projection-missing judgement of `PE_Z0`,
/// `votes` in-sensor votes applied and `payload_bytes` moved by the DMA.
pub(crate) fn frame_cost(
    config: &AcceleratorConfig,
    kind: FrameKind,
    events_in: u64,
    survivors: u64,
    votes: u64,
    payload_bytes: usize,
) -> FrameTiming {
    let canonical = events_in + config.pe_z0_pipeline_overhead;
    let planes_per_pe = config.num_depth_planes.div_ceil(config.num_pe_zi) as Cycles;
    let address = survivors * planes_per_pe + config.pe_zi_pipeline_overhead;
    let vote = (votes as f64 / config.votes_per_cycle()).ceil() as Cycles;
    // The PE array and the Vote Execute Unit stream through Buf_V and
    // overlap, so the slower one bounds the proportional-module time.
    let proportional = address.max(vote);
    let dma = dma_cycles(config, payload_bytes);
    let exposed_dma = if config.double_buffering { 0 } else { dma };
    let (reset, total) = match kind {
        // P{Z0} of frame N overlaps with P{Z0;Zi}+R of frame N-1 (and P{Z0}
        // is shorter), so only the proportional module time is exposed.
        FrameKind::Normal => (0, proportional + exposed_dma),
        // A key frame flushes the pipeline: the canonical projection runs
        // first, then the proportional module. Its DSI reset zeroes the
        // 16-bit score volume at the DRAM write bandwidth as background
        // traffic, which the paper's key-frame latency (Table 3) does not
        // include.
        FrameKind::Key => {
            let dsi_bytes =
                (config.sensor_width * config.sensor_height * config.num_depth_planes * 2) as f64;
            let bytes_per_cycle = config.dram_peak_bandwidth() * config.dram_efficiency * 2.0
                / config.fabric_clock.frequency_hz;
            let reset = (dsi_bytes / bytes_per_cycle).ceil() as Cycles;
            (reset, canonical + proportional + exposed_dma)
        }
    };
    FrameTiming {
        canonical_cycles: canonical,
        address_cycles: address,
        vote_cycles: vote,
        proportional_cycles: proportional,
        dma_cycles: dma,
        exposed_dma_cycles: exposed_dma,
        reset_cycles: reset,
        total_cycles: total,
    }
}

/// Computes the latency of one full frame of the given kind: the cost of a
/// frame of the configured size in which every event survives and every
/// plane transfer votes.
pub fn frame_timing(config: &AcceleratorConfig, kind: FrameKind) -> FrameTiming {
    let events = config.events_per_frame;
    frame_cost(
        config,
        kind,
        events as u64,
        events as u64,
        config.votes_per_frame(),
        payload_bytes(events, config.num_depth_planes),
    )
}

/// The accelerator-side performance summary reported in Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorPerformance {
    /// `𝒫{Z0}` runtime per event frame, microseconds.
    pub canonical_us: f64,
    /// `𝒫{Z0;Zi}` + `ℛ` runtime per event frame, microseconds.
    pub proportional_us: f64,
    /// Total runtime per normal event frame, microseconds.
    pub normal_frame_us: f64,
    /// Total runtime per key event frame, microseconds.
    pub key_frame_us: f64,
    /// Event processing rate for normal frames, events per second.
    pub event_rate_normal: f64,
    /// Event processing rate for key frames, events per second.
    pub event_rate_key: f64,
}

/// Computes the Table 3 performance summary for a configuration.
pub fn performance(config: &AcceleratorConfig) -> AcceleratorPerformance {
    let clk = config.fabric_clock;
    let normal = frame_timing(config, FrameKind::Normal);
    let key = frame_timing(config, FrameKind::Key);
    let events = config.events_per_frame as f64;
    let normal_us = clk.cycles_to_us(normal.total_cycles);
    let key_us = clk.cycles_to_us(key.total_cycles);
    AcceleratorPerformance {
        canonical_us: clk.cycles_to_us(normal.canonical_cycles),
        proportional_us: clk.cycles_to_us(normal.proportional_cycles),
        normal_frame_us: normal_us,
        key_frame_us: key_us,
        event_rate_normal: events / (normal_us * 1e-6),
        event_rate_key: events / (key_us * 1e-6),
    }
}

/// Total accelerator busy time for a whole sequence of frames, in seconds.
///
/// `normal_frames` and `key_frames` are the counts of each frame kind
/// (every key-frame switch turns exactly one frame into a key frame).
pub fn sequence_runtime_seconds(
    config: &AcceleratorConfig,
    normal_frames: u64,
    key_frames: u64,
) -> f64 {
    let clk = config.fabric_clock;
    let normal = frame_timing(config, FrameKind::Normal).total_cycles;
    let key = frame_timing(config, FrameKind::Key).total_cycles;
    clk.cycles_to_seconds(normal * normal_frames + key * key_frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_is_reproduced() {
        let perf = performance(&AcceleratorConfig::default());
        // Paper: 8.24 us / 551.58 us / 551.58 us / 559.82 us, 1.86 / 1.83 Meps.
        assert!(
            (perf.canonical_us - 8.24).abs() < 0.1,
            "{}",
            perf.canonical_us
        );
        assert!(
            (perf.proportional_us - 551.58).abs() < 15.0,
            "{}",
            perf.proportional_us
        );
        assert!((perf.normal_frame_us - perf.proportional_us).abs() < 1e-9);
        assert!((perf.key_frame_us - (perf.normal_frame_us + perf.canonical_us)).abs() < 1e-9);
        assert!(
            (perf.event_rate_normal / 1e6 - 1.86).abs() < 0.06,
            "{}",
            perf.event_rate_normal
        );
        assert!(
            (perf.event_rate_key / 1e6 - 1.83).abs() < 0.06,
            "{}",
            perf.event_rate_key
        );
        assert!(perf.event_rate_normal > perf.event_rate_key);
    }

    #[test]
    fn key_frames_are_slower_than_normal_frames() {
        let config = AcceleratorConfig::default();
        let normal = frame_timing(&config, FrameKind::Normal);
        let key = frame_timing(&config, FrameKind::Key);
        assert!(key.total_cycles > normal.total_cycles);
        assert_eq!(
            key.total_cycles - normal.total_cycles,
            normal.canonical_cycles
        );
    }

    #[test]
    fn disabling_double_buffering_exposes_dma_time() {
        let with = AcceleratorConfig::default();
        let without = AcceleratorConfig::default().with_double_buffering(false);
        let t_with = frame_timing(&with, FrameKind::Normal);
        let t_without = frame_timing(&without, FrameKind::Normal);
        assert_eq!(t_with.exposed_dma_cycles, 0);
        assert!(t_without.exposed_dma_cycles > 0);
        assert!(t_without.total_cycles > t_with.total_cycles);
    }

    #[test]
    fn sequence_runtime_accumulates_frames() {
        let config = AcceleratorConfig::default();
        let t = sequence_runtime_seconds(&config, 100, 5);
        let normal_s = config
            .fabric_clock
            .cycles_to_seconds(frame_timing(&config, FrameKind::Normal).total_cycles);
        assert!(t > 100.0 * normal_s);
        assert!(t < 106.0 * normal_s);
        assert_eq!(sequence_runtime_seconds(&config, 0, 0), 0.0);
    }

    #[test]
    fn event_rate_improves_with_fewer_planes() {
        let full = performance(&AcceleratorConfig::default());
        let half = performance(&AcceleratorConfig::default().with_depth_planes(50));
        assert!(half.event_rate_normal > full.event_rate_normal);
    }

    fn normal(config: &AcceleratorConfig) -> FrameTiming {
        frame_timing(config, FrameKind::Normal)
    }

    #[test]
    fn vote_unit_is_the_bottleneck_in_default_config() {
        let t = normal(&AcceleratorConfig::default());
        assert!(t.vote_cycles > t.address_cycles);
    }

    #[test]
    fn more_pe_zi_reduces_address_generation_time() {
        let two = normal(&AcceleratorConfig::default());
        let four = normal(&AcceleratorConfig::default().with_pe_zi(4));
        assert!(four.address_cycles < two.address_cycles);
        // But the overall proportional module time saturates once the vote
        // unit dominates.
        assert_eq!(four.proportional_cycles, four.vote_cycles);
    }

    #[test]
    fn single_pe_zi_makes_address_generation_dominate() {
        let one = normal(&AcceleratorConfig::default().with_pe_zi(1));
        assert!(one.address_cycles > one.vote_cycles);
        assert_eq!(one.proportional_cycles, one.address_cycles);
    }

    #[test]
    fn fewer_planes_scale_both_units_down() {
        let full = normal(&AcceleratorConfig::default());
        let half = normal(&AcceleratorConfig::default().with_depth_planes(50));
        assert!(half.address_cycles < full.address_cycles);
        assert!(half.vote_cycles < full.vote_cycles);
    }
}
