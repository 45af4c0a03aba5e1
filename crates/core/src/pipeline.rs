//! The Eventor pipeline: the hardware-friendly **reformulated** EMVS dataflow
//! of Fig. 3 (right).
//!
//! Differences from the baseline [`eventor_emvs::EmvsMapper`]:
//!
//! * **Rescheduling** — event distortion correction runs per event *before*
//!   aggregation (streaming), and the proportional back-projection
//!   coefficients `φ` are pre-computed (together with `H_{Z0}`) before the
//!   canonical projection so the four hot sub-tasks can run back-to-back on
//!   the FPGA.
//! * **Approximate computing** — nearest voting instead of bilinear voting.
//! * **Hybrid quantization** — Table 1 fixed-point formats on every datum
//!   crossing the FPGA datapath, with 16-bit integer DSI scores; the
//!   arithmetic between the quantization points is the bit-true integer
//!   kernel of [`eventor_fixed::kernel`], shared with the `eventor-hwsim`
//!   device model.
//!
//! Both approximations can be toggled independently through
//! [`EventorOptions`], which is what the Fig. 4a / Fig. 4b / Fig. 7a
//! ablations sweep.
//!
//! The datapaths live in the one [`VotingEngine`] of `eventor-emvs`, and
//! [`EventorPipeline::reconstruct`] is a thin batch wrapper over a session
//! running it.

use crate::parallel::ParallelConfig;
use eventor_emvs::{
    reconstruct_with_backend, EmvsConfig, EmvsError, EmvsOutput, EventorOptions, VotingEngine,
};
use eventor_events::EventStream;
use eventor_geom::{CameraModel, Trajectory};

/// The Eventor reformulated EMVS pipeline.
///
/// # Examples
///
/// ```no_run
/// use eventor_core::{EventorOptions, EventorPipeline};
/// use eventor_emvs::EmvsConfig;
/// use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())?;
/// let config = EmvsConfig::default().with_depth_range(seq.depth_range.0, seq.depth_range.1);
/// let pipeline = EventorPipeline::new(seq.camera, config, EventorOptions::accelerator())?;
/// let output = pipeline.reconstruct(&seq.events, &seq.trajectory)?;
/// println!("{} key frames", output.keyframes.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventorPipeline {
    camera: CameraModel,
    config: EmvsConfig,
    options: EventorOptions,
    parallel: ParallelConfig,
}

impl EventorPipeline {
    /// Creates a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations (same
    /// contract as [`eventor_emvs::EmvsMapper::new`], via the shared
    /// [`EmvsConfig::validate`]).
    pub fn new(
        camera: CameraModel,
        config: EmvsConfig,
        options: EventorOptions,
    ) -> Result<Self, EmvsError> {
        config.validate()?;
        Ok(Self {
            camera,
            config,
            options,
            parallel: ParallelConfig::sequential(),
        })
    }

    /// Sets the shard count of the [`VotingEngine`].
    ///
    /// With [`ParallelConfig::sequential`] (the default) every frame votes
    /// on the calling thread. With more than one shard the DSI's depth
    /// planes are split over worker shards. For every datapath the output
    /// is bit-identical to the one-shard result at every shard count.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use eventor_core::{EventorOptions, EventorPipeline, ParallelConfig};
    /// use eventor_emvs::EmvsConfig;
    /// use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())?;
    /// let config = EmvsConfig::default().with_depth_range(seq.depth_range.0, seq.depth_range.1);
    /// let pipeline = EventorPipeline::new(seq.camera, config, EventorOptions::accelerator())?
    ///     .with_parallelism(ParallelConfig::auto());
    /// let output = pipeline.reconstruct(&seq.events, &seq.trajectory)?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The active reformulation options.
    pub fn options(&self) -> &EventorOptions {
        &self.options
    }

    /// The EMVS configuration.
    pub fn config(&self) -> &EmvsConfig {
        &self.config
    }

    /// The active parallelism configuration.
    pub fn parallelism(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Runs the reformulated reconstruction — a batch wrapper over a
    /// streaming session on the [`VotingEngine`].
    ///
    /// # Errors
    ///
    /// Same error contract as [`eventor_emvs::EmvsMapper::reconstruct`].
    pub fn reconstruct(
        &self,
        events: &EventStream,
        trajectory: &Trajectory,
    ) -> Result<EmvsOutput, EmvsError> {
        let backend = VotingEngine::new(self.camera, &self.config, self.options, self.parallel)?;
        reconstruct_with_backend(
            self.camera,
            self.config.clone(),
            backend,
            events,
            trajectory,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_emvs::VotingMode;
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
    use eventor_geom::Pose;

    fn sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    #[test]
    fn options_presets() {
        assert_eq!(EventorOptions::accelerator().voting, VotingMode::Nearest);
        assert!(EventorOptions::accelerator().quantize);
        assert!(!EventorOptions::nearest_only().quantize);
        assert_eq!(
            EventorOptions::quantized_only().voting,
            VotingMode::Bilinear
        );
        assert_eq!(
            EventorOptions::exact(),
            EventorOptions {
                voting: VotingMode::Bilinear,
                quantize: false
            }
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let cam = CameraModel::davis240_ideal();
        let bad = EmvsConfig {
            num_depth_planes: 1,
            ..Default::default()
        };
        assert!(EventorPipeline::new(cam, bad, EventorOptions::default()).is_err());
    }

    #[test]
    fn empty_stream_is_error() {
        let cam = CameraModel::davis240_ideal();
        let p =
            EventorPipeline::new(cam, EmvsConfig::default(), EventorOptions::default()).unwrap();
        let traj = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 1.0, 2);
        assert!(matches!(
            p.reconstruct(&EventStream::new(), &traj),
            Err(EmvsError::NoEvents)
        ));
    }

    #[test]
    fn accelerator_pipeline_reconstructs_with_low_abs_rel() {
        let seq = sequence();
        let pipeline =
            EventorPipeline::new(seq.camera, config_for(&seq), EventorOptions::accelerator())
                .unwrap();
        let out = pipeline.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let primary = out.primary().expect("at least one key frame");
        assert!(primary.depth_map.valid_count() > 50);
        let gt = seq.ground_truth_depth_at(&primary.reference_pose);
        let m = primary
            .depth_map
            .compare_to_ground_truth(gt.as_slice())
            .unwrap();
        assert!(m.abs_rel < 0.12, "AbsRel {:.4}", m.abs_rel);
    }

    #[test]
    fn reformulated_accuracy_close_to_baseline() {
        // The Fig. 7a claim: the fully reformulated pipeline stays within a
        // small AbsRel difference of the original EMVS.
        let seq = sequence();
        let baseline = eventor_emvs::EmvsMapper::new(seq.camera, config_for(&seq)).unwrap();
        let reformulated =
            EventorPipeline::new(seq.camera, config_for(&seq), EventorOptions::accelerator())
                .unwrap();
        let out_base = baseline.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let out_ref = reformulated
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap();
        let gt_b = seq.ground_truth_depth_at(&out_base.primary().unwrap().reference_pose);
        let gt_r = seq.ground_truth_depth_at(&out_ref.primary().unwrap().reference_pose);
        let m_b = out_base
            .primary()
            .unwrap()
            .depth_map
            .compare_to_ground_truth(gt_b.as_slice())
            .unwrap();
        let m_r = out_ref
            .primary()
            .unwrap()
            .depth_map
            .compare_to_ground_truth(gt_r.as_slice())
            .unwrap();
        assert!(
            (m_r.abs_rel - m_b.abs_rel).abs() < 0.05,
            "reformulated {:.4} vs baseline {:.4}",
            m_r.abs_rel,
            m_b.abs_rel
        );
    }

    #[test]
    fn exact_options_match_baseline_votes() {
        // With both approximations disabled the reformulated schedule performs
        // the same mathematical operations as the baseline mapper.
        let seq = sequence();
        let baseline = eventor_emvs::EmvsMapper::new(seq.camera, config_for(&seq)).unwrap();
        let exact =
            EventorPipeline::new(seq.camera, config_for(&seq), EventorOptions::exact()).unwrap();
        let out_base = baseline.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let out_exact = exact.reconstruct(&seq.events, &seq.trajectory).unwrap();
        assert_eq!(out_base.keyframes.len(), out_exact.keyframes.len());
        let b = out_base.primary().unwrap();
        let e = out_exact.primary().unwrap();
        assert_eq!(b.votes_cast, e.votes_cast);
        assert_eq!(b.depth_map.valid_count(), e.depth_map.valid_count());
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential_on_slider() {
        let seq = sequence();
        let sequential =
            EventorPipeline::new(seq.camera, config_for(&seq), EventorOptions::accelerator())
                .unwrap()
                .reconstruct(&seq.events, &seq.trajectory)
                .unwrap();
        let parallel =
            EventorPipeline::new(seq.camera, config_for(&seq), EventorOptions::accelerator())
                .unwrap()
                .with_parallelism(ParallelConfig::with_shards(4))
                .reconstruct(&seq.events, &seq.trajectory)
                .unwrap();
        assert_eq!(sequential.keyframes.len(), parallel.keyframes.len());
        for (s, p) in sequential.keyframes.iter().zip(&parallel.keyframes) {
            assert_eq!(s.votes_cast, p.votes_cast);
            assert_eq!(s.depth_map.depth_data(), p.depth_map.depth_data());
        }
    }

    #[test]
    fn parallelism_defaults_to_sequential_and_is_configurable() {
        let cam = CameraModel::davis240_ideal();
        let p =
            EventorPipeline::new(cam, EmvsConfig::default(), EventorOptions::default()).unwrap();
        assert!(!p.parallelism().is_parallel());
        let p = p.with_parallelism(ParallelConfig::with_shards(8));
        assert_eq!(p.parallelism().shards(), 8);
    }

    #[test]
    fn quantized_only_and_nearest_only_both_work() {
        let seq = sequence();
        for options in [
            EventorOptions::quantized_only(),
            EventorOptions::nearest_only(),
        ] {
            let pipeline = EventorPipeline::new(seq.camera, config_for(&seq), options).unwrap();
            let out = pipeline.reconstruct(&seq.events, &seq.trajectory).unwrap();
            let primary = out.primary().unwrap();
            let gt = seq.ground_truth_depth_at(&primary.reference_pose);
            let m = primary
                .depth_map
                .compare_to_ground_truth(gt.as_slice())
                .unwrap();
            assert!(m.abs_rel < 0.15, "{options:?}: AbsRel {:.4}", m.abs_rel);
            assert!(primary.depth_map.valid_count() > 30, "{options:?}");
        }
    }
}
