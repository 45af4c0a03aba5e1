//! The full EMVS space-sweep mapper (baseline CPU implementation).
//!
//! This is the algorithm the paper's Intel i5 column of Table 3 measures:
//! event aggregation, per-frame back-projection geometry, canonical and
//! proportional event back-projection, DSI voting (bilinear by default),
//! key-frame management, scene-structure detection and map merging — all in
//! double/single-precision floating point.
//!
//! [`EmvsMapper::reconstruct`] is a thin batch wrapper over the session core
//! ([`crate::SessionDriver`]) running the [`VotingEngine`] on the float
//! datapath ([`EventorOptions`] with `quantize: false` and the configured
//! voting mode): the same per-event arithmetic in the same order as the
//! original in-line loop.

use crate::config::{EmvsConfig, EventorOptions};
use crate::engine::VotingEngine;
use crate::parallel::ParallelConfig;
use crate::profile::StageProfile;
use crate::session::reconstruct_with_backend;
use crate::EmvsError;
use eventor_dsi::{DepthMap, PointCloud};
use eventor_events::EventStream;
use eventor_geom::{CameraModel, Pose, Trajectory};

/// The reconstruction produced for one key reference view.
#[derive(Debug, Clone)]
pub struct KeyframeReconstruction {
    /// Camera-to-world pose of the key reference (virtual camera) view.
    pub reference_pose: Pose,
    /// Semi-dense depth map extracted from the local DSI.
    pub depth_map: DepthMap,
    /// The depth map converted to a world-frame point cloud.
    pub local_cloud: PointCloud,
    /// Number of event frames accumulated into this DSI.
    pub frames_used: usize,
    /// Number of events accumulated into this DSI.
    pub events_used: usize,
    /// Number of DSI votes cast for this key frame.
    pub votes_cast: u64,
}

/// Output of a full EMVS reconstruction run.
#[derive(Debug, Clone)]
pub struct EmvsOutput {
    /// Per-key-frame reconstructions, in trajectory order.
    pub keyframes: Vec<KeyframeReconstruction>,
    /// The merged global point cloud.
    pub global_map: PointCloud,
    /// Per-stage runtime profile of the run.
    pub profile: StageProfile,
}

impl EmvsOutput {
    /// The first key frame's reconstruction (the one the accuracy figures
    /// evaluate), if any.
    pub fn primary(&self) -> Option<&KeyframeReconstruction> {
        self.keyframes.first()
    }
}

/// The baseline EMVS mapper.
#[derive(Debug, Clone)]
pub struct EmvsMapper {
    camera: CameraModel,
    config: EmvsConfig,
    parallel: ParallelConfig,
}

impl EmvsMapper {
    /// Creates a mapper for the given camera and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] for unusable configurations
    /// (zero frame size, fewer than two depth planes, inverted depth range)
    /// — the shared [`EmvsConfig::validate`] contract.
    pub fn new(camera: CameraModel, config: EmvsConfig) -> Result<Self, EmvsError> {
        config.validate()?;
        Ok(Self {
            camera,
            config,
            parallel: ParallelConfig::sequential(),
        })
    }

    /// Sets the shard count of the [`VotingEngine`] for this mapper.
    ///
    /// With [`ParallelConfig::sequential`] (the default) every frame votes
    /// on the calling thread. With more than one shard the DSI's depth
    /// planes are split over worker shards. Either way the output is
    /// bit-identical, bilinear voting included.
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The camera model.
    pub fn camera(&self) -> &CameraModel {
        &self.camera
    }

    /// The configuration.
    pub fn config(&self) -> &EmvsConfig {
        &self.config
    }

    /// The active parallelism configuration.
    pub fn parallelism(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Runs the full reconstruction on an event stream with a known
    /// trajectory — the batch wrapper over a streaming session on the
    /// [`VotingEngine`] with quantization off.
    ///
    /// # Errors
    ///
    /// * [`EmvsError::NoEvents`] when the stream is empty,
    /// * [`EmvsError::Geometry`] when a frame pose cannot be interpolated or
    ///   induces degenerate geometry,
    /// * [`EmvsError::Dsi`] when the DSI cannot be allocated.
    pub fn reconstruct(
        &self,
        events: &EventStream,
        trajectory: &Trajectory,
    ) -> Result<EmvsOutput, EmvsError> {
        let options = EventorOptions {
            voting: self.config.voting,
            quantize: false,
        };
        let backend = VotingEngine::new(self.camera, &self.config, options, self.parallel)?;
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
    use crate::config::VotingMode;
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

    fn slider_sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    #[test]
    fn invalid_configurations_rejected() {
        let cam = CameraModel::davis240_ideal();
        let bad = EmvsConfig {
            events_per_frame: 0,
            ..Default::default()
        };
        assert!(EmvsMapper::new(cam, bad).is_err());
        let bad = EmvsConfig {
            num_depth_planes: 1,
            ..Default::default()
        };
        assert!(EmvsMapper::new(cam, bad).is_err());
        let bad = EmvsConfig {
            depth_range: (2.0, 1.0),
            ..Default::default()
        };
        assert!(EmvsMapper::new(cam, bad).is_err());
        assert!(EmvsMapper::new(cam, EmvsConfig::default()).is_ok());
    }

    #[test]
    fn empty_stream_is_an_error() {
        let cam = CameraModel::davis240_ideal();
        let mapper = EmvsMapper::new(cam, EmvsConfig::default()).unwrap();
        let traj = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 1.0, 2);
        assert!(matches!(
            mapper.reconstruct(&EventStream::new(), &traj),
            Err(EmvsError::NoEvents)
        ));
    }

    #[test]
    fn reconstructs_slider_scene_with_low_abs_rel() {
        let seq = slider_sequence();
        let mapper = EmvsMapper::new(seq.camera, config_for(&seq)).unwrap();
        let out = mapper.reconstruct(&seq.events, &seq.trajectory).unwrap();
        assert!(!out.keyframes.is_empty());
        let primary = out.primary().unwrap();
        assert!(
            primary.depth_map.valid_count() > 50,
            "too sparse: {}",
            primary.depth_map.valid_count()
        );

        let gt = seq.ground_truth_depth_at(&primary.reference_pose);
        let metrics = primary
            .depth_map
            .compare_to_ground_truth(gt.as_slice())
            .unwrap();
        assert!(
            metrics.abs_rel < 0.12,
            "AbsRel too high: {:.4} ({} px compared)",
            metrics.abs_rel,
            metrics.compared_pixels
        );
        assert!(metrics.compared_pixels > 50);
        assert!(!out.global_map.is_empty());
    }

    #[test]
    fn profile_shows_backprojection_dominates() {
        let seq = slider_sequence();
        let mapper = EmvsMapper::new(seq.camera, config_for(&seq)).unwrap();
        let out = mapper.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let p = &out.profile;
        assert!(p.frames_processed > 0);
        assert_eq!(p.events_processed as usize, seq.events.len());
        // The paper reports >80% on the full-resolution dataset; on the small
        // test configuration the share is still clearly dominant.
        assert!(
            p.projection_raycounting_fraction() > 0.5,
            "P+R fraction unexpectedly low: {:.2}",
            p.projection_raycounting_fraction()
        );
        assert!(p.fpga_subtask_fraction() > 0.7);
        assert!(p.frame_us() > 0.0);
        assert!(p.event_rate() > 0.0);
    }

    #[test]
    fn nearest_voting_accuracy_is_close_to_bilinear() {
        let seq = slider_sequence();
        let bilinear = EmvsMapper::new(seq.camera, config_for(&seq)).unwrap();
        let nearest = EmvsMapper::new(
            seq.camera,
            config_for(&seq).with_voting(VotingMode::Nearest),
        )
        .unwrap();
        let out_b = bilinear.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let out_n = nearest.reconstruct(&seq.events, &seq.trajectory).unwrap();
        let gt_b = seq.ground_truth_depth_at(&out_b.primary().unwrap().reference_pose);
        let gt_n = seq.ground_truth_depth_at(&out_n.primary().unwrap().reference_pose);
        let m_b = out_b
            .primary()
            .unwrap()
            .depth_map
            .compare_to_ground_truth(gt_b.as_slice())
            .unwrap();
        let m_n = out_n
            .primary()
            .unwrap()
            .depth_map
            .compare_to_ground_truth(gt_n.as_slice())
            .unwrap();
        // Fig. 4a: the nearest-voting accuracy loss is small (paper: <1.18%
        // AbsRel difference). Allow a slightly wider band on the tiny test set.
        assert!(
            (m_n.abs_rel - m_b.abs_rel).abs() < 0.05,
            "nearest {:.4} vs bilinear {:.4}",
            m_n.abs_rel,
            m_b.abs_rel
        );
    }

    #[test]
    fn parallel_mapper_matches_sequential_nearest_voting() {
        let seq = slider_sequence();
        let config = config_for(&seq).with_voting(VotingMode::Nearest);
        let sequential = EmvsMapper::new(seq.camera, config.clone())
            .unwrap()
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap();
        let parallel = EmvsMapper::new(seq.camera, config)
            .unwrap()
            .with_parallelism(ParallelConfig::with_shards(4))
            .reconstruct(&seq.events, &seq.trajectory)
            .unwrap();
        assert_eq!(sequential.keyframes.len(), parallel.keyframes.len());
        for (s, p) in sequential.keyframes.iter().zip(&parallel.keyframes) {
            assert_eq!(s.votes_cast, p.votes_cast);
            assert_eq!(s.depth_map.depth_data(), p.depth_map.depth_data());
        }
        assert_eq!(
            sequential.profile.events_processed,
            parallel.profile.events_processed
        );
    }

    #[test]
    fn long_trajectory_produces_multiple_keyframes() {
        let seq = slider_sequence();
        let config = config_for(&seq).with_keyframe_distance(0.02);
        let mapper = EmvsMapper::new(seq.camera, config).unwrap();
        let out = mapper.reconstruct(&seq.events, &seq.trajectory).unwrap();
        assert!(
            out.keyframes.len() >= 2,
            "expected multiple keyframes, got {}",
            out.keyframes.len()
        );
        assert_eq!(out.profile.keyframes as usize, out.keyframes.len());
        // Reference poses advance along the trajectory.
        let first = out.keyframes.first().unwrap().reference_pose;
        let last = out.keyframes.last().unwrap().reference_pose;
        assert!(first.translation_distance(&last) > 0.02);
    }
}
