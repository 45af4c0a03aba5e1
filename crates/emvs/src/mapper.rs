//! Output types of an EMVS reconstruction: one [`KeyframeReconstruction`]
//! per key reference view, gathered with the merged global map and the
//! stage profile into an [`EmvsOutput`].

use crate::profile::StageProfile;
use eventor_dsi::{DepthMap, PointCloud};
use eventor_geom::Pose;

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

#[cfg(test)]
mod tests {
    //! The baseline EMVS (the paper's CPU column): the one-shard voting
    //! engine on the float datapath.

    use super::*;
    use crate::session::reconstruct_with_backend;
    use crate::{EmvsConfig, EventorOptions, ParallelConfig, VotingEngine};
    use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

    fn slider_sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test()).unwrap()
    }

    fn config_for(seq: &SyntheticSequence) -> EmvsConfig {
        EmvsConfig::default()
            .with_depth_range(seq.depth_range.0, seq.depth_range.1)
            .with_depth_planes(60)
    }

    fn reconstruct(
        seq: &SyntheticSequence,
        config: EmvsConfig,
        options: EventorOptions,
    ) -> EmvsOutput {
        let engine =
            VotingEngine::new(seq.camera, &config, options, ParallelConfig::sequential()).unwrap();
        reconstruct_with_backend(seq.camera, config, engine, &seq.events, &seq.trajectory).unwrap()
    }

    #[test]
    fn reconstructs_slider_scene_with_low_abs_rel() {
        let seq = slider_sequence();
        let out = reconstruct(&seq, config_for(&seq), EventorOptions::exact());
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
        let out = reconstruct(&seq, config_for(&seq), EventorOptions::exact());
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
        let out_b = reconstruct(&seq, config_for(&seq), EventorOptions::exact());
        let out_n = reconstruct(&seq, config_for(&seq), EventorOptions::nearest_only());
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
    fn long_trajectory_produces_multiple_keyframes() {
        let seq = slider_sequence();
        let config = config_for(&seq).with_keyframe_distance(0.02);
        let out = reconstruct(&seq, config, EventorOptions::exact());
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
