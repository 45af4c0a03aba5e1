//! Hardware/software co-simulation: the host-side driver that runs the
//! reformulated EMVS dataflow on the functional device model of
//! `eventor-hwsim`.
//!
//! [`CosimBackend`] plays the role of the ARM firmware in the prototype
//! behind the streaming session contract: it performs the PS-side per-frame
//! stages (streaming distortion correction and Q9.7 transport encoding, one
//! read per event of the camera's [`TransportTable`], and parameter
//! staging) and runs
//! the PL-side stages (`𝒫{Z0}`, `𝒫{Z0;Zi}`, `𝒢`, `𝒱`) on [`EventorDevice`].
//! As in the prototype, where the DSI sits in the PS's DDR3 and the PL votes
//! into it, the backend owns the one DSI ([`DsiVolume<u16>`]) and hands it to
//! the device with every frame; retirement, checkpoint export and import
//! work on that volume the way the [`VotingEngine`](crate::VotingEngine)
//! works on its own. A batch run is
//! [`SessionBuilder::cosim`](crate::SessionBuilder::cosim) followed by
//! [`SessionBuilder::reconstruct`](crate::SessionBuilder::reconstruct).
//!
//! Each frame's `Buf_H` / `Buf_P` payload is the engine's parameter block
//! ([`QuantizedHomography`], [`QuantizedCoefficients`]), encoded once into
//! the [`FrameJob`] the backend keeps and refills for every frame. The
//! device's frame pass and the software
//! datapath of the [`VotingEngine`](crate::VotingEngine) both run the
//! **bit-true integer kernel** in [`eventor_fixed::kernel`] on those words —
//! same wide-MAC/normalization/judgement functions — so the two produce
//! **identical DSI volumes** for identical inputs *by construction*; the
//! workspace integration tests assert this bit-exact agreement, which is the
//! co-verification argument of the accelerator design.

use eventor_dsi::{DetectionConfig, DsiVolume};
use eventor_emvs::{
    finalize_volume, import_vote_volume, BackendVoteState, EmvsConfig, EmvsError, EventorOptions,
    ExecutionBackend, FrameWork, KeyframeReconstruction, ParallelConfig, QuantizedCoefficients,
    QuantizedHomography, Stage, StageProfile, TransportTable,
};
use eventor_geom::{CameraModel, Pose};
use eventor_hwsim::{
    AcceleratorConfig, ActivityEnergyModel, EnergyBreakdown, EventorDevice, FrameExecution,
    FrameJob, FrameKind,
};
use std::sync::Arc;
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
    /// Votes applied to the DSI.
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
/// Retirement resets the DSI, as the voting engine's does, and the backend
/// marks the first frame after each retirement as a key frame, whose job
/// the device charges the DSI reset to — the same protocol the batch
/// firmware loop used.
#[derive(Debug)]
pub struct CosimBackend {
    camera: CameraModel,
    transport: Arc<TransportTable>,
    detection: DetectionConfig,
    device: EventorDevice,
    /// The job of the frame in flight, refilled for every frame.
    job: FrameJob,
    /// The one DSI: the device votes into it, retirement detects structure
    /// in it, and checkpoints export and import it.
    dsi: DsiVolume<u16>,
    report: CosimReport,
    normal_us_sum: f64,
    key_us_sum: f64,
    next_is_key: bool,
}

impl CosimBackend {
    /// Creates a backend with a fresh device whose accelerator configuration
    /// is aligned with the EMVS configuration (frame size, plane count and
    /// sensor resolution are taken from `config` / `camera`), and takes the
    /// camera's per-pixel transport table, which sessions on one camera
    /// share ([`TransportTable::shared`]). `parallel` changes nothing: the
    /// device models a single accelerator, and the PS-side ingest is one
    /// table read per event, run on the calling thread.
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
        _parallel: ParallelConfig,
    ) -> Result<Self, EmvsError> {
        EventorOptions::accelerator().check_sensor(&camera.intrinsics)?;
        let dsi = DsiVolume::new(
            camera.intrinsics.width as usize,
            camera.intrinsics.height as usize,
            config.depth_planes()?,
        )?;
        let mut accelerator = accelerator;
        accelerator.events_per_frame = config.events_per_frame;
        accelerator.num_depth_planes = config.num_depth_planes;
        accelerator.sensor_width = camera.intrinsics.width as usize;
        accelerator.sensor_height = camera.intrinsics.height as usize;
        Ok(Self {
            camera,
            transport: TransportTable::shared(&camera),
            detection: config.detection,
            device: EventorDevice::new(accelerator),
            job: FrameJob {
                event_words: Vec::new(),
                homography_words: [0; 9],
                phi_words: Vec::new(),
                kind: FrameKind::Key,
            },
            dsi,
            report: CosimReport::default(),
            normal_us_sum: 0.0,
            key_us_sum: 0.0,
            next_is_key: true,
        })
    }

    /// The device model.
    pub fn device(&self) -> &EventorDevice {
        &self.device
    }

    /// The DSI the device votes into; retirement resets it.
    pub fn dsi(&self) -> &DsiVolume<u16> {
        &self.dsi
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
        // PS side: streaming distortion correction and Q9.7 transport
        // encoding, one table read per event, then the frame's parameter
        // block, encoded once into the job.
        let (job, table) = (&mut self.job, &self.transport);
        job.event_words.clear();
        job.event_words
            .extend(work.events.iter().map(|e| table.encode(e).to_word()));
        job.homography_words =
            QuantizedHomography::from_homography(&work.geometry.homography).raw_words();
        job.phi_words.clear();
        QuantizedCoefficients::append_words(&work.geometry.coefficients, &mut job.phi_words);
        job.kind = if self.next_is_key {
            FrameKind::Key
        } else {
            FrameKind::Normal
        };

        // PL side: run the frame on the device. `next_is_key` is only
        // cleared on success: the driver keeps a failed frame buffered for
        // retry, and the retried job must still be a Key frame, the one the
        // frame cost charges the DSI reset to.
        let execution =
            self.device
                .run_frame(job, &mut self.dsi)
                .ok_or_else(|| EmvsError::InvalidConfig {
                    reason: "accelerator rejected the staged frame".into(),
                })?;
        self.next_is_key = false;
        Self::charge_profile(profile, &execution, fabric);
        self.charge_report(&execution, fabric);
        self.report.energy.accumulate(
            &ActivityEnergyModel::default().frame_energy(&execution, self.device.config()),
        );
        Ok(())
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        // The PS-side detection and point-cloud conversion, on the DSI the
        // device voted into.
        let t = Instant::now();
        let reconstruction = finalize_volume(
            &self.dsi,
            &self.detection,
            &self.camera,
            reference_pose,
            frames_used,
            events_used,
        );
        profile.add(Stage::Detection, t.elapsed());
        // Reset here, as the voting engine does, so that a retirement with
        // no frame after the last one finds an empty DSI; the next frame is
        // a Key job, which the frame cost charges the reset to.
        let t = Instant::now();
        self.dsi.reset();
        profile.add(Stage::Merging, t.elapsed());
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
        Ok(BackendVoteState::Quantized(self.dsi.clone()))
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
        // Check the volume against the DSI's geometry and take it.
        import_vote_volume(volume, &mut self.dsi, "cosim")?;
        // The device deposits only in-sensor votes, so its DSI counts no
        // missed vote: a volume that counts some keeps only its scores and
        // `votes_cast`.
        if self.dsi.votes_missed() != 0 {
            self.dsi = DsiVolume::from_scores(
                self.dsi.width(),
                self.dsi.height(),
                self.dsi.planes().clone(),
                self.dsi.raw_scores().to_vec(),
                self.dsi.votes_cast(),
            )?;
        }
        // The DSI already reflects the open key frame (all zeros when the
        // checkpoint fell on a key-frame boundary), so the next frame must
        // NOT be a Key job — that would wipe the restored votes.
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
    fn imported_vote_state_keeps_its_scores_and_votes_cast() {
        let seq = sequence();
        let config = config_for(&seq);
        let mut backend = CosimBackend::new(
            seq.camera,
            &config,
            AcceleratorConfig::default(),
            ParallelConfig::sequential(),
        )
        .unwrap();
        let (width, height) = (seq.camera.intrinsics.width, seq.camera.intrinsics.height);
        let mut volume: DsiVolume<u16> = DsiVolume::new(
            width as usize,
            height as usize,
            config.depth_planes().unwrap(),
        )
        .unwrap();
        volume.vote_at(3, 4, 5);
        volume.vote_at(3, 4, 5);
        volume.vote_at(width as u16, 0, 0);
        assert_eq!((volume.votes_cast(), volume.votes_missed()), (2, 1));
        let mut profile = StageProfile::new();
        backend
            .import_vote_state(BackendVoteState::Quantized(volume.clone()), &mut profile)
            .unwrap();
        // The device's DSI counts no missed vote, so an export after the
        // import writes the same state whatever the checkpoint counted.
        let BackendVoteState::Quantized(exported) =
            backend.export_vote_state(&mut profile).unwrap()
        else {
            panic!("cosim exports a quantized vote state");
        };
        assert_eq!(exported.raw_scores(), volume.raw_scores());
        assert_eq!((exported.votes_cast(), exported.votes_missed()), (2, 0));
        assert_eq!(backend.dsi(), &exported);
    }

    #[test]
    fn back_to_back_retirements_return_an_empty_key_frame_on_every_backend() {
        // The backend contract allows a retirement with no frame since the
        // last one; it must not hand the previous key frame back again.
        fn retire_twice<B: ExecutionBackend>(backend: B, seq: &SyntheticSequence) {
            let name = backend.name();
            let mut driver = SessionDriver::new(seq.camera, config_for(seq), backend)
                .unwrap()
                .with_max_pending_events(usize::MAX);
            driver.push_trajectory(&seq.trajectory).unwrap();
            driver.push_events(seq.events.as_slice()).unwrap();
            // `finish` retires the open key frame; retire once more.
            let (output, mut backend) = driver.finish_with_backend();
            let last = output.unwrap().keyframes.pop().unwrap();
            assert!(last.votes_cast > 0, "{name}");
            assert!(last.depth_map.valid_count() > 0, "{name}");
            let again = backend
                .retire_keyframe(&Pose::identity(), 0, 0, &mut StageProfile::new())
                .unwrap();
            assert_eq!(again.votes_cast, 0, "{name}");
            assert_eq!(again.depth_map.valid_count(), 0, "{name}");
        }
        let seq = sequence();
        let config = config_for(&seq);
        for shards in [1, 2] {
            let parallel = ParallelConfig::with_shards(shards);
            let options = EventorOptions::accelerator();
            retire_twice(
                crate::VotingEngine::new(seq.camera, &config, options, parallel).unwrap(),
                &seq,
            );
        }
        let accelerator = AcceleratorConfig::default();
        let sequential = ParallelConfig::sequential();
        retire_twice(
            CosimBackend::new(seq.camera, &config, accelerator, sequential).unwrap(),
            &seq,
        );
    }

    #[test]
    fn cosim_report_is_consistent_with_the_output_profile() {
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
        assert_eq!(report.frames, out.profile.frames_processed);
        assert_eq!(
            report.votes_applied,
            out.keyframes.iter().map(|k| k.votes_cast).sum::<u64>()
        );
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
