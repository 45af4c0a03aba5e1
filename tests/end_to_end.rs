//! Cross-crate integration tests: full reconstructions on synthetic
//! sequences, baseline-versus-Eventor consistency, and the accelerator
//! evaluation driven by a real workload.

use eventor::core::{
    config_for_sequence, run_variant, AcceleratorRun, EventorOptions, EventorSession,
    PipelineVariant,
};
use eventor::dsi::PointCloud;
use eventor::emvs::{EmvsConfig, EmvsOutput};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::hwsim::AcceleratorConfig;

fn sequence(kind: SequenceKind) -> SyntheticSequence {
    SyntheticSequence::generate(kind, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

/// A batch reconstruction of `seq` on the one-shard engine.
fn reconstruct(seq: &SyntheticSequence, config: EmvsConfig, options: EventorOptions) -> EmvsOutput {
    EventorSession::builder(seq.camera, config)
        .software(options)
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap_or_else(|e| panic!("{options:?}: reconstruction failed: {e}"))
        .output
}

#[test]
fn baseline_reconstructs_every_sequence() {
    for kind in SequenceKind::ALL {
        let seq = sequence(kind);
        let config = config_for_sequence(&seq, 60);
        let output = reconstruct(&seq, config, EventorOptions::exact());
        assert!(!output.keyframes.is_empty(), "{kind:?}: no key frames");
        let primary = output.keyframes.first().expect("nonempty");
        assert!(
            primary.depth_map.valid_count() > 30,
            "{kind:?}: too few estimated pixels ({})",
            primary.depth_map.valid_count()
        );
        let gt = seq.ground_truth_depth_at(&primary.reference_pose);
        let metrics = primary
            .depth_map
            .compare_to_ground_truth(gt.as_slice())
            .expect("same size");
        // Absolute accuracy at the reduced test scale is limited by the small
        // focal length and baseline; the slider sequences are geometrically
        // easier than the wide-depth-range simulation scenes.
        let bound = match kind {
            SequenceKind::SliderClose | SequenceKind::SliderFar => 0.15,
            _ => 0.30,
        };
        assert!(
            metrics.abs_rel < bound,
            "{kind:?}: AbsRel {:.3} above {bound}",
            metrics.abs_rel
        );
    }
}

#[test]
fn eventor_pipeline_tracks_baseline_accuracy_on_all_sequences() {
    // The Fig. 7a claim, checked end-to-end on every sequence at test scale:
    // the fully reformulated pipeline stays within a few percentage points of
    // the original EMVS.
    for kind in SequenceKind::ALL {
        let seq = sequence(kind);
        let config = config_for_sequence(&seq, 60);
        let original =
            run_variant(&seq, PipelineVariant::OriginalBilinear, &config).expect("baseline runs");
        let reformulated =
            run_variant(&seq, PipelineVariant::Reformulated, &config).expect("reformulated runs");
        let diff = (reformulated.metrics.abs_rel - original.metrics.abs_rel).abs();
        assert!(
            diff < 0.06,
            "{kind:?}: |reformulated - original| = {diff:.4} (orig {:.4}, ref {:.4})",
            original.metrics.abs_rel,
            reformulated.metrics.abs_rel
        );
    }
}

#[test]
fn voting_and_quantization_ablations_are_small_perturbations() {
    let seq = sequence(SequenceKind::ThreePlanes);
    let config = config_for_sequence(&seq, 60);
    let results: Vec<_> = PipelineVariant::ALL
        .iter()
        .map(|&v| run_variant(&seq, v, &config).expect("variant runs"))
        .collect();
    let baseline = results[0].metrics.abs_rel;
    for r in &results {
        assert!(r.metrics.compared_pixels > 30, "{}: too sparse", r.variant);
        assert!(
            (r.metrics.abs_rel - baseline).abs() < 0.06,
            "{}: abs_rel {:.4} vs baseline {:.4}",
            r.variant,
            r.metrics.abs_rel,
            baseline
        );
    }
}

#[test]
fn nearest_voting_baseline_matches_dedicated_mapper() {
    // The OriginalNearest variant run through the comparison harness must
    // agree with a session built by hand on the float nearest datapath.
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 50);
    let via_harness = run_variant(&seq, PipelineVariant::OriginalNearest, &config).unwrap();
    let direct = reconstruct(&seq, config, EventorOptions::nearest_only());
    let primary = direct.keyframes.first().unwrap();
    assert_eq!(
        via_harness.metrics.estimated_pixels,
        primary.depth_map.valid_count()
    );
}

#[test]
fn accelerator_evaluation_from_real_workload() {
    let seq = sequence(SequenceKind::SliderFar);
    let config = config_for_sequence(&seq, 100);
    let output = reconstruct(&seq, config.clone(), EventorOptions::exact());

    let accel_config = AcceleratorConfig::default()
        .with_events_per_frame(config.events_per_frame)
        .with_depth_planes(config.num_depth_planes);
    let run = AcceleratorRun::evaluate_from_profile(&accel_config, &output.profile);
    assert_eq!(
        run.normal_frames + run.key_frames,
        output.profile.frames_processed
    );
    assert!(run.total_seconds > 0.0);
    // Power and resources stay at the paper's prototype values.
    assert_eq!(run.resources.total_luts(), 17_538);
    assert!((run.power_w - 1.86).abs() < 0.15);
    // Energy efficiency against the measured CPU profile is at least an order
    // of magnitude (the paper reports 24x against an Intel i5).
    let energy = run.energy_versus_cpu(&output.profile);
    assert!(
        energy.power_reduction() > 20.0,
        "power reduction {:.1}",
        energy.power_reduction()
    );
}

#[test]
fn global_map_accumulates_across_keyframes() {
    let seq = sequence(SequenceKind::ThreeWalls);
    // Force several key frames with a small key-frame distance.
    let config = config_for_sequence(&seq, 50).with_keyframe_distance(0.08);
    let output = reconstruct(&seq, config, EventorOptions::accelerator());
    assert!(output.keyframes.len() >= 2, "expected several key frames");
    let merged: usize = output.keyframes.iter().map(|k| k.local_cloud.len()).sum();
    assert_eq!(output.global_map.len(), merged);

    // The global map can be post-processed and exported.
    let filtered = output.global_map.radius_outlier_filtered(0.2, 1);
    assert!(filtered.len() <= output.global_map.len());
    let mut ply = Vec::new();
    filtered.write_ply(&mut ply).unwrap();
    assert!(String::from_utf8(ply).unwrap().starts_with("ply"));
    let _ = PointCloud::new();
}

#[test]
fn distorted_camera_pipeline_round_trip() {
    // Exercise the event distortion-correction stage end to end with a
    // distorted lens model.
    let mut dataset = DatasetConfig::fast_test();
    dataset.camera = eventor::geom::CameraModel::new(
        dataset.camera.intrinsics,
        eventor::geom::DistortionModel::radial(-0.25, 0.08, 0.0),
    );
    let seq = SyntheticSequence::generate(SequenceKind::SliderClose, &dataset).unwrap();
    let config = config_for_sequence(&seq, 60);
    let output = reconstruct(&seq, config, EventorOptions::accelerator());
    let primary = output.keyframes.first().unwrap();
    let gt = seq.ground_truth_depth_at(&primary.reference_pose);
    let metrics = primary
        .depth_map
        .compare_to_ground_truth(gt.as_slice())
        .unwrap();
    assert!(
        metrics.abs_rel < 0.20,
        "distorted-lens AbsRel {:.3}",
        metrics.abs_rel
    );
}
