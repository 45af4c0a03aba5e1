//! Hardware/software co-simulation: the host-side driver that runs the
//! reformulated EMVS dataflow on the functional device model of
//! `eventor-hwsim`.
//!
//! [`CosimBackend`] plays the role of the ARM firmware in the prototype
//! behind the streaming session contract: it performs the PS-side per-frame
//! stages (streaming distortion correction through the camera's
//! [`UndistortionLut`], Q9.7 transport encoding, register/BRAM parameter
//! staging) and drives the PL-side stages (`𝒫{Z0}`, `𝒫{Z0;Zi}`, `𝒢`, `𝒱`)
//! through the register/DMA interface of [`EventorDevice`]. A batch run is
//! [`SessionBuilder::cosim`](crate::SessionBuilder::cosim) followed by
//! [`SessionBuilder::reconstruct`](crate::SessionBuilder::reconstruct).
//!
//! The device datapath and the software datapath of the
//! [`VotingEngine`](crate::VotingEngine) are both thin wrappers over the
//! **bit-true integer kernel** in [`eventor_fixed::kernel`] — same raw
//! fixed-point words, same wide-MAC/normalization/judgement functions — so
//! the two produce **identical DSI volumes** for identical inputs *by
//! construction*; the workspace integration tests assert this bit-exact
//! agreement, which is the co-verification argument of the accelerator
//! design.

use crate::quantized::quantize_event_pixel;
use eventor_dsi::{DepthPlanes, DetectionConfig, DsiVolume};
use eventor_emvs::{
    finalize_volume, import_vote_volume, run_sharded, BackendVoteState, EmvsConfig, EmvsError,
    EventorOptions, ExecutionBackend, FrameGeometry, FrameWork, KeyframeReconstruction,
    ParallelConfig, Stage, StageProfile,
};
use eventor_events::UndistortionLut;
use eventor_geom::{CameraModel, Pose};
use eventor_hwsim::{
    AcceleratorConfig, ActivityEnergyModel, EnergyBreakdown, EventorDevice, FrameExecution,
    FrameKind, HomographyRegisters, PhiEntry,
};
use std::time::{Duration, Instant};

/// Summary of the accelerator activity during one co-simulated
/// reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CosimReport {
    /// Frames executed on the device.
    pub frames: u64,
    /// Key frames executed on the device.
    pub key_frames: u64,
    /// Events shipped to the device.
    pub events_in: u64,
    /// Events dropped by the projection-missing judgement.
    pub events_dropped: u64,
    /// Votes applied to the DSI in device DRAM.
    pub votes_applied: u64,
    /// Total modelled accelerator busy time, seconds.
    pub accelerator_seconds: f64,
    /// Mean modelled latency of a normal frame, microseconds.
    pub mean_normal_frame_us: f64,
    /// Mean modelled latency of a key frame, microseconds.
    pub mean_key_frame_us: f64,
    /// Activity-based energy breakdown of the accelerator work (joules),
    /// accumulated over every executed frame.
    pub energy: EnergyBreakdown,
}

/// The co-simulated execution backend: PS-side firmware stages plus the
/// functional PL device model, behind the `eventor-backend/1` session
/// contract.
///
/// The device resets its DSI DRAM on every `FrameKind::Key` job, so the
/// backend marks the first frame after each retirement as a key frame — the
/// same protocol the batch firmware loop used.
#[derive(Debug)]
pub struct CosimBackend {
    camera: CameraModel,
    undistortion: UndistortionLut,
    detection: DetectionConfig,
    planes: DepthPlanes,
    parallel: ParallelConfig,
    device: EventorDevice,
    report: CosimReport,
    normal_us_sum: f64,
    key_us_sum: f64,
    votes_in_keyframe: u64,
    next_is_key: bool,
}

impl CosimBackend {
    /// Creates a backend with a fresh device whose accelerator configuration
    /// is aligned with the EMVS configuration (frame size, plane count and
    /// sensor resolution are taken from `config` / `camera`), and builds the
    /// camera's undistortion table. `parallel` chunks the PS-side per-event
    /// stages over worker shards; the device itself stays serial, as it
    /// models a single accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations,
    /// among them a sensor wider or taller than the accelerator datapath
    /// addresses ([`EventorOptions::check_sensor`]).
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        accelerator: AcceleratorConfig,
        parallel: ParallelConfig,
    ) -> Result<Self, EmvsError> {
        EventorOptions::accelerator().check_sensor(&camera.intrinsics)?;
        let planes = config.depth_planes()?;
        let mut accelerator = accelerator;
        accelerator.events_per_frame = config.events_per_frame;
        accelerator.num_depth_planes = config.num_depth_planes;
        accelerator.sensor_width = camera.intrinsics.width as usize;
        accelerator.sensor_height = camera.intrinsics.height as usize;
        Ok(Self {
            camera,
            undistortion: UndistortionLut::build(&camera),
            detection: config.detection,
            planes,
            parallel,
            device: EventorDevice::new(accelerator),
            report: CosimReport::default(),
            normal_us_sum: 0.0,
            key_us_sum: 0.0,
            votes_in_keyframe: 0,
            next_is_key: true,
        })
    }

    /// The device model (for DSI readback and traffic inspection).
    pub fn device(&self) -> &EventorDevice {
        &self.device
    }

    /// The accelerator activity report accumulated so far, with the mean
    /// frame latencies computed from the running sums.
    pub fn report(&self) -> CosimReport {
        let mut report = self.report;
        report.mean_normal_frame_us = if report.frames > report.key_frames {
            self.normal_us_sum / (report.frames - report.key_frames) as f64
        } else {
            0.0
        };
        report.mean_key_frame_us = if report.key_frames > 0 {
            self.key_us_sum / report.key_frames as f64
        } else {
            0.0
        };
        report
    }

    /// Builds the per-frame job shipped to the device: the frame's Q9.7
    /// event words plus the quantized `H_{Z0}` and `φ` parameter payloads.
    fn frame_job(
        geometry: &FrameGeometry,
        event_words: Vec<u32>,
        kind: FrameKind,
    ) -> eventor_hwsim::FrameJob {
        let homography_words =
            HomographyRegisters::from_matrix(&geometry.homography.h.m).raw_words();
        let phi = &geometry.coefficients;
        let phi_words: Vec<[i32; 3]> = (0..phi.len())
            .map(|i| PhiEntry::from_f64(phi.scale[i], phi.offset_x[i], phi.offset_y[i]).raw_words())
            .collect();
        eventor_hwsim::FrameJob {
            event_words,
            homography_words,
            phi_words,
            kind,
        }
    }

    fn charge_profile(
        profile: &mut StageProfile,
        execution: &FrameExecution,
        fabric: eventor_hwsim::ClockDomain,
    ) {
        let canonical =
            Duration::from_secs_f64(fabric.cycles_to_seconds(execution.canonical_cycles));
        let proportional =
            Duration::from_secs_f64(fabric.cycles_to_seconds(execution.proportional_cycles));
        // The PE_Zi array transfers and votes in one pipelined interval:
        // `V` is fused into `P{Z0;Zi} + G`, as on the software engines.
        profile.add(Stage::CanonicalProjection, canonical);
        profile.add(Stage::ProportionalProjection, proportional);
    }

    fn charge_report(&mut self, execution: &FrameExecution, fabric: eventor_hwsim::ClockDomain) {
        self.report.frames += 1;
        self.report.events_in += execution.events_in;
        self.report.events_dropped += execution.events_dropped;
        self.report.votes_applied += execution.votes_applied;
        let us = fabric.cycles_to_us(execution.total_cycles);
        self.report.accelerator_seconds += us * 1e-6;
        match execution.kind {
            FrameKind::Key => {
                self.report.key_frames += 1;
                self.key_us_sum += us;
            }
            FrameKind::Normal => self.normal_us_sum += us,
        }
    }
}

impl ExecutionBackend for CosimBackend {
    fn name(&self) -> &'static str {
        "cosim"
    }

    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        let fabric = self.device.config().fabric_clock;
        // PS side: streaming distortion correction (one table read per
        // event) + Q9.7 transport encoding, chunked over the configured
        // worker shards (bit-identical for any shard count — both stages are
        // per-event pure maps). One shard is one job, run inline.
        let lut = &self.undistortion;
        let mut event_words = vec![0u32; work.events.len()];
        let chunk = work.events.len().div_ceil(self.parallel.shards()).max(1);
        run_sharded(
            work.events.chunks(chunk).zip(event_words.chunks_mut(chunk)),
            |(events, words)| {
                for (word, e) in words.iter_mut().zip(events) {
                    *word = quantize_event_pixel(lut.correct_event(e)).to_word();
                }
            },
        );
        let kind = if self.next_is_key {
            FrameKind::Key
        } else {
            FrameKind::Normal
        };
        let job = Self::frame_job(work.geometry, event_words, kind);

        // PL side: run the frame on the device. `next_is_key` is only
        // cleared on success: the driver keeps a failed frame buffered for
        // retry, and the retried job must still be a Key frame so the device
        // resets its DSI for the new key frame.
        let execution = self
            .device
            .run_frame(job)
            .ok_or_else(|| EmvsError::InvalidConfig {
                reason: "accelerator rejected the staged frame".into(),
            })?;
        self.next_is_key = false;
        Self::charge_profile(profile, &execution, fabric);
        self.charge_report(&execution, fabric);
        self.report.energy.accumulate(
            &ActivityEnergyModel::default().frame_energy(&execution, self.device.config()),
        );
        self.votes_in_keyframe += execution.votes_applied;
        Ok(())
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        // Read the DSI back from device DRAM and run the PS-side detection
        // and point-cloud conversion.
        let t = Instant::now();
        let dram = self.device.dsi();
        let dsi: DsiVolume<u16> = DsiVolume::from_scores(
            dram.width(),
            dram.height(),
            self.planes.clone(),
            dram.scores().to_vec(),
            self.votes_in_keyframe,
        )?;
        let reconstruction = finalize_volume(
            &dsi,
            &self.detection,
            &self.camera,
            reference_pose,
            frames_used,
            events_used,
        );
        profile.add(Stage::Detection, t.elapsed());
        // The device clears its DSI on the next Key frame job.
        self.votes_in_keyframe = 0;
        self.next_is_key = true;
        Ok(reconstruction)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn export_vote_state(
        &mut self,
        _profile: &mut StageProfile,
    ) -> Result<BackendVoteState, EmvsError> {
        let dram = self.device.dsi();
        // Right after a retirement the device DRAM still holds the *retired*
        // key frame's scores (the device only resets on the next Key job), so
        // the open key frame's true partial state is an empty volume.
        let dsi: DsiVolume<u16> = if self.next_is_key {
            DsiVolume::new(dram.width(), dram.height(), self.planes.clone())?
        } else {
            DsiVolume::from_scores(
                dram.width(),
                dram.height(),
                self.planes.clone(),
                dram.scores().to_vec(),
                self.votes_in_keyframe,
            )?
        };
        Ok(BackendVoteState::Quantized(dsi))
    }

    fn import_vote_state(
        &mut self,
        state: BackendVoteState,
        _profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        let volume = match state {
            BackendVoteState::Quantized(volume) => volume,
            BackendVoteState::Float(_) => {
                return Err(EmvsError::Checkpoint {
                    reason: "float vote state cannot restore into the co-simulated device".into(),
                })
            }
        };
        // Check the volume against the device's DSI geometry and image it
        // into device DRAM.
        let dram = self.device.dsi();
        let mut canonical: DsiVolume<u16> =
            DsiVolume::new(dram.width(), dram.height(), self.planes.clone())?;
        import_vote_volume(volume, &mut canonical, "cosim")?;
        self.votes_in_keyframe = canonical.votes_cast();
        self.device.load_dsi(canonical.raw_scores());
        // The DSI image already reflects the open key frame (all zeros when
        // the checkpoint fell on a key-frame boundary), so the next frame
        // must NOT be a Key job — that would wipe the restored votes.
        self.next_is_key = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventorOptions, EventorSession};
    use eventor_emvs::SessionDriver;
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

    fn sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    #[test]
    fn sensors_past_256_pixels_are_rejected() {
        // The device runs the quantized datapath: 8-bit plane addresses.
        let config = EmvsConfig::default().with_depth_planes(4);
        let camera = |width, height| {
            let intrinsics =
                eventor_geom::CameraIntrinsics::new(200.0, 200.0, 128.0, 120.0, width, height)
                    .unwrap();
            CameraModel::new(intrinsics, eventor_geom::DistortionModel::none())
        };
        let new = |camera| {
            CosimBackend::new(
                camera,
                &config,
                AcceleratorConfig::default(),
                ParallelConfig::sequential(),
            )
        };
        assert!(matches!(
            new(camera(320, 240)),
            Err(EmvsError::InvalidConfig { .. })
        ));
        assert!(new(camera(256, 256)).is_ok());
    }

    #[test]
    fn cosim_matches_the_software_quantized_pipeline_bit_exactly() {
        let seq = sequence();
        let builder = || EventorSession::builder(seq.camera, config_for(&seq));
        let sw = builder()
            .software(EventorOptions::accelerator())
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap()
            .output;
        let hw = builder()
            .cosim(AcceleratorConfig::default())
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap()
            .output;

        assert_eq!(sw.keyframes.len(), hw.keyframes.len());
        for (s, h) in sw.keyframes.iter().zip(&hw.keyframes) {
            assert_eq!(s.votes_cast, h.votes_cast, "vote counts diverged");
            assert_eq!(s.depth_map.valid_count(), h.depth_map.valid_count());
            assert_eq!(
                s.depth_map.depth_data(),
                h.depth_map.depth_data(),
                "depth maps diverged"
            );
        }
    }

    #[test]
    fn cosim_report_is_consistent_with_device_stats() {
        let seq = sequence();
        let config = config_for(&seq);
        let backend = CosimBackend::new(
            seq.camera,
            &config,
            AcceleratorConfig::default(),
            ParallelConfig::sequential(),
        )
        .unwrap();
        let mut driver = SessionDriver::new(seq.camera, config.clone(), backend)
            .unwrap()
            .with_max_pending_events(usize::MAX);
        driver.push_trajectory(&seq.trajectory).unwrap();
        driver.push_events(seq.events.as_slice()).unwrap();
        let (out, cosim) = driver.finish_with_backend();
        let out = out.unwrap();
        let report = cosim.report();
        let stats = cosim.device().stats();
        assert_eq!(report.frames, stats.frames);
        assert_eq!(report.votes_applied, stats.votes_applied);
        assert_eq!(report.key_frames as usize, out.keyframes.len());
        assert!(report.accelerator_seconds > 0.0);
        assert!(report.mean_normal_frame_us > 0.0);
        assert!(report.mean_key_frame_us >= report.mean_normal_frame_us);
        assert_eq!(report.events_in, out.profile.events_processed);
        assert_eq!(
            cosim.device().config().num_depth_planes,
            config.num_depth_planes
        );
        // The activity-based energy accounting covers every executed frame.
        assert_eq!(report.energy.events, report.events_in);
        assert!(report.energy.total_j() > 0.0);
        assert!(report.energy.average_power_w() > 1.0 && report.energy.average_power_w() < 4.0);
        assert!((report.energy.seconds - report.accelerator_seconds).abs() < 1e-9);
    }
}
