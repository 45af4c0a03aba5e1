//! # eventor-core
//!
//! The paper's primary contribution, reproduced as a library: **Eventor**, an
//! algorithm/hardware co-designed event-based monocular multi-view stereo
//! (EMVS) accelerator.
//!
//! The crate provides:
//!
//! * [`EventorOptions`] — the hardware-friendly *reformulated* EMVS dataflow
//!   (streaming distortion correction, pre-computed proportional
//!   coefficients, nearest voting, Table 1 hybrid quantization), with each
//!   approximation individually switchable; [`EventorOptions::exact`] is the
//!   original EMVS,
//! * [`QuantizedHomography`] / [`QuantizedCoefficients`] — re-exported from
//!   `eventor-emvs`: one frame's `Buf_H` / `Buf_P` parameter block in
//!   Table 1's raw Q11.21 words. The engine and the `eventor-hwsim`
//!   device's frame pass both call the bit-true kernel in
//!   `eventor_fixed::kernel` on these words, so co-simulation agreement
//!   holds by construction,
//! * [`AcceleratorRun`] — binding a reconstruction workload to the
//!   `eventor-hwsim` hardware model to obtain Table 3 runtimes, event rates,
//!   power and the energy-efficiency comparison against the Intel i5
//!   baseline,
//! * [`run_variant`] / [`PipelineVariant`] — the accuracy-comparison harness
//!   behind Fig. 4a, Fig. 4b and Fig. 7a,
//! * [`EventorSession`] — the unified **streaming** API: push-based
//!   incremental ingestion (`push_pose` / `push_events` / `poll`) over a
//!   pluggable [`ExecutionBackend`] — the one [`VotingEngine`] of
//!   `eventor-emvs` (spelled [`SoftwareBackend`] at one shard,
//!   [`ShardedBackend`] above) or the [`CosimBackend`] — with optional
//!   incremental `eventor-map` fusion. [`SessionBuilder::reconstruct`] runs
//!   a whole recording through one session: the batch entry point.
//!
//! ## Quick start
//!
//! ```no_run
//! use eventor_core::{config_for_sequence, EventorOptions, EventorSession};
//! use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sequence = SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())?;
//! let config = config_for_sequence(&sequence, 100);
//! let output = EventorSession::builder(sequence.camera, config)
//!     .software(EventorOptions::accelerator())
//!     .reconstruct(&sequence.events, &sequence.trajectory)?
//!     .output;
//! let depth_map = &output.keyframes[0].depth_map;
//! println!("estimated {} semi-dense pixels", depth_map.valid_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod checkpoint;
mod compare;
mod cosim;
mod session;

pub use accel::AcceleratorRun;
pub use checkpoint::SessionCheckpoint;
pub use compare::{
    config_for_sequence, run_variant, run_variants, PipelineVariant, VariantAccuracy,
};
pub use cosim::{CosimBackend, CosimReport};
pub use session::{EventorSession, SessionBuilder, SessionOutput, ShardedBackend, SoftwareBackend};
// The session contract and the per-frame parameter block live in
// `eventor-emvs`; re-export them so downstream users need only this crate.
pub use eventor_emvs::{
    quantize_event_pixel, EventorOptions, ExecutionBackend, FrameWork, ParallelConfig,
    QuantizedCoefficients, QuantizedHomography, SessionDriver, SessionEvent, VotingEngine,
    COORD_QUANTIZATION_ERROR, DEFAULT_MAX_PENDING_EVENTS, VOTE_WINDOW_EVENTS,
};

#[cfg(test)]
mod cosim_proptests {
    //! Golden-model-versus-device properties: the kernel called on the
    //! per-frame parameter block and the functional device
    //! (`eventor-hwsim`) must agree on each event's projection-missing
    //! judgement and on each plane's vote, not just end to end.

    use super::*;
    use eventor_dsi::{DepthPlanes, DsiVolume};
    use eventor_fixed::{kernel, PackedCoord};
    use eventor_geom::{
        CameraIntrinsics, CanonicalHomography, Pose, ProportionalCoefficients, Vec3,
    };
    use eventor_hwsim::{AcceleratorConfig, EventorDevice, FrameExecution, FrameJob, FrameKind};
    use proptest::prelude::*;

    fn geometry(
        tx: f64,
        ty: f64,
        tz: f64,
        n_planes: usize,
    ) -> Option<(CanonicalHomography, ProportionalCoefficients, Vec<f64>)> {
        let intrinsics = CameraIntrinsics::davis240_default();
        let reference = Pose::identity();
        let camera = Pose::from_translation(Vec3::new(tx, ty, tz));
        let depths: Vec<f64> = (0..n_planes)
            .map(|i| {
                let t = i as f64 / (n_planes - 1) as f64;
                1.0 / ((1.0 - t) / 1.0 + t / 5.0)
            })
            .collect();
        let z0 = *depths.last().unwrap();
        let h = CanonicalHomography::compute(&reference, &camera, &intrinsics, z0).ok()?;
        let phi = ProportionalCoefficients::compute(&reference, &camera, &intrinsics, &depths, z0)
            .ok()?;
        Some((h, phi, depths))
    }

    /// Runs one event at `(px, py)` through a 240×180 device as a key
    /// frame, shipping the golden model's own `Buf_H` / `Buf_P` words, and
    /// returns the DSI it voted into.
    fn one_event_frame(
        golden_h: &QuantizedHomography,
        golden_phi: &QuantizedCoefficients,
        px: f64,
        py: f64,
    ) -> (DsiVolume<u16>, FrameExecution) {
        // The planes of `geometry`: the device reads only their count.
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 5.0, golden_phi.len())
            .expect("at least two planes");
        let mut dsi = DsiVolume::new(240, 180, planes).expect("a 240x180 DSI");
        let exec =
            EventorDevice::new(AcceleratorConfig::default().with_depth_planes(golden_phi.len()))
                .run_frame(
                    &FrameJob {
                        event_words: vec![PackedCoord::from_f64(px, py).to_word()],
                        homography_words: golden_h.raw_words(),
                        phi_words: golden_phi.words().to_vec(),
                        kind: FrameKind::Key,
                    },
                    &mut dsi,
                )
                .expect("a one-event frame is a valid job");
        (dsi, exec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pe_z0_device_matches_quantized_homography(
            tx in -0.15..0.15f64,
            ty in -0.15..0.15f64,
            tz in -0.05..0.05f64,
            px in 0.0..239.0f64,
            py in 0.0..179.0f64,
        ) {
            let Some((h, phi, _)) = geometry(tx, ty, tz, 20) else { return Ok(()) };
            let golden = QuantizedHomography::from_homography(&h);
            let golden_phi = QuantizedCoefficients::from_coefficients(&phi);
            let (_, exec) = one_event_frame(&golden, &golden_phi, px, py);
            let sw_dropped =
                kernel::project_z0(&golden.raw_words(), PackedCoord::from_f64(px, py)).is_none();
            prop_assert_eq!(
                exec.events_dropped,
                u64::from(sw_dropped),
                "projection-missing judgement diverged at ({}, {})", px, py
            );
        }

        #[test]
        fn pe_zi_device_matches_quantized_coefficients(
            tx in -0.15..0.15f64,
            ty in -0.15..0.15f64,
            px in 0.0..239.0f64,
            py in 0.0..179.0f64,
            n_planes in 4usize..40,
        ) {
            let Some((h, phi, _)) = geometry(tx, ty, 0.0, n_planes) else { return Ok(()) };
            let golden_h = QuantizedHomography::from_homography(&h);
            let golden_phi = QuantizedCoefficients::from_coefficients(&phi);
            let coord = PackedCoord::from_f64(px, py);
            let Some(canonical) = kernel::project_z0(&golden_h.raw_words(), coord) else {
                return Ok(());
            };

            let (dsi, exec) = one_event_frame(&golden_h, &golden_phi, px, py);
            prop_assert_eq!(exec.events_dropped, 0);

            // Each plane of the device's DSI must hold exactly the one vote
            // the golden model's Nearest Voxel Finder produces, or none when
            // the transfer leaves the sensor.
            for (i, words) in golden_phi.words().iter().enumerate() {
                let voted: Vec<(u16, u16, u16)> = dsi
                    .plane_scores(i)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &score)| score > 0)
                    .map(|(k, &score)| ((k % 240) as u16, (k / 240) as u16, score))
                    .collect();
                let expected = kernel::transfer_nearest(words, canonical, 240, 180)
                    .address()
                    .map(|(x, y)| (x, y, 1));
                prop_assert_eq!(voted, Vec::from_iter(expected), "plane {}", i);
            }
        }
    }
}
