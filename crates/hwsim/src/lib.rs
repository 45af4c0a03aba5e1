//! # eventor-hwsim
//!
//! A cycle-approximate model of the **Eventor** FPGA accelerator platform
//! (Xilinx Zynq XC7Z020, 130 MHz fabric clock, 32-bit DDR3-533), standing in
//! for the hand-optimized RTL prototype the paper evaluates:
//!
//! * [`AcceleratorConfig`] — the architectural knobs (number of `PE_Zi`,
//!   frame size, depth planes, double buffering, AXI-HP ports),
//! * [`EventorDevice`] — the functional device the co-simulation drives: a
//!   `PE_Z0` / `PE_Zi` frame pass that runs the bit-true kernel of
//!   `eventor_fixed::kernel` on the shipped words and votes into the
//!   `eventor_dsi::DsiVolume<u16>` the host owns, as the prototype's PL
//!   votes into the DSI in the PS's DDR3,
//! * [`frame_timing`] / [`performance`] — the frame-pipelined schedule of
//!   Fig. 6 and the Table 3 performance numbers: the frame cost the device
//!   charges with each frame's own counts, evaluated at full-frame counts,
//! * [`estimate_resources`] — the Table 2 LUT/FF/BRAM utilization,
//! * [`PowerModel`] / [`EnergyComparison`] — the Table 3 power row and the
//!   24× energy-efficiency headline.
//!
//! The per-component costs and memory-efficiency factors are calibrated
//! against the paper's published prototype figures; scaling experiments
//! (more PEs, different plane counts, no double buffering) extrapolate from
//! that calibration. See `docs/ARCHITECTURE.md` (section 4) for the
//! golden-model-versus-device co-simulation lifecycle this crate's device
//! participates in.
//!
//! ## Example
//!
//! ```
//! use eventor_hwsim::{performance, AcceleratorConfig};
//!
//! let perf = performance(&AcceleratorConfig::default());
//! // The prototype processes ~1.86 million events per second (Table 3).
//! assert!(perf.event_rate_normal > 1.7e6 && perf.event_rate_normal < 2.0e6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod activity;
mod device;
mod energy;
mod memory;
mod resources;
mod schedule;
mod timing;

pub use activity::{ActivityEnergyModel, EnergyBreakdown};
pub use device::{EventorDevice, FrameExecution, FrameJob};
pub use energy::{EnergyComparison, PowerModel, INTEL_I5_POWER_W};
pub use memory::{BufferInventory, DoubleBuffer};
pub use resources::{estimate_resources, ComponentCost, DeviceCapacity, ResourceReport, XC7Z020};
pub use schedule::{
    frame_timing, performance, sequence_runtime_seconds, AcceleratorPerformance, FrameKind,
    FrameTiming,
};
pub use timing::{AcceleratorConfig, ClockDomain, Cycles};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn key_frames_never_faster_than_normal_frames(
            n_pe in 1usize..8,
            planes in 2usize..200,
            events in 64usize..4096,
        ) {
            let config = AcceleratorConfig::default()
                .with_pe_zi(n_pe)
                .with_depth_planes(planes)
                .with_events_per_frame(events);
            let normal = frame_timing(&config, FrameKind::Normal);
            let key = frame_timing(&config, FrameKind::Key);
            prop_assert!(key.total_cycles >= normal.total_cycles);
            prop_assert!(normal.total_cycles >= normal.proportional_cycles);
        }

        #[test]
        fn adding_pe_zi_never_slows_the_frame(
            planes in 2usize..200,
            events in 64usize..4096,
        ) {
            let base = AcceleratorConfig::default()
                .with_depth_planes(planes)
                .with_events_per_frame(events);
            let mut prev = frame_timing(&base.clone().with_pe_zi(1), FrameKind::Normal).total_cycles;
            for n in 2..6 {
                let cur = frame_timing(&base.clone().with_pe_zi(n), FrameKind::Normal).total_cycles;
                prop_assert!(cur <= prev, "{} PEs slower than {}", n, n - 1);
                prev = cur;
            }
        }

        #[test]
        fn resource_estimate_scales_monotonically(n_pe in 1usize..8) {
            let smaller = estimate_resources(&AcceleratorConfig::default().with_pe_zi(n_pe));
            let larger = estimate_resources(&AcceleratorConfig::default().with_pe_zi(n_pe + 1));
            prop_assert!(larger.total_luts() > smaller.total_luts());
            prop_assert!(larger.total_flip_flops() > smaller.total_flip_flops());
        }

        #[test]
        fn power_stays_far_below_cpu(n_pe in 1usize..8, planes in 2usize..200) {
            let config = AcceleratorConfig::default().with_pe_zi(n_pe).with_depth_planes(planes);
            let p = PowerModel::default().accelerator_power_w(&config, &estimate_resources(&config));
            prop_assert!(p > 1.0 && p < 6.0, "power {}", p);
            prop_assert!(p < INTEL_I5_POWER_W / 5.0);
        }
    }
}
