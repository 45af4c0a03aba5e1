//! Integration of the reconstruction pipelines with the global mapping
//! substrate: key-frame depth maps flow into the voxel-grid map, fusion
//! tightens overlapping estimates, and the map statistics stay consistent
//! with the reconstruction output.

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::map::{DepthFusion, FusionConfig, GlobalMap, GlobalMapConfig};

fn sequence(kind: SequenceKind) -> SyntheticSequence {
    SyntheticSequence::generate(kind, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

#[test]
fn pipeline_keyframes_populate_the_global_map() {
    let seq = sequence(SequenceKind::ThreePlanes);
    let config = config_for_sequence(&seq, 50);
    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("run")
        .output;

    let mut map = GlobalMap::new(GlobalMapConfig::default()).expect("config");
    let mut raw_points = 0usize;
    for kf in &output.keyframes {
        raw_points +=
            map.insert_depth_map(&kf.depth_map, &seq.camera.intrinsics, &kf.reference_pose);
    }
    let stats = map.statistics();
    assert_eq!(stats.keyframes, output.keyframes.len());
    assert_eq!(stats.raw_points as usize, raw_points);
    assert!(stats.map_points > 0);
    assert!(
        stats.map_points <= raw_points,
        "voxel grid never grows the cloud"
    );
    // The map extent must be commensurate with the scene depth range.
    assert!(stats.extent.z > 0.0 && stats.extent.z < 2.0 * seq.depth_range.1);
}

#[test]
fn voxel_map_is_no_larger_than_naive_concatenation() {
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 50);
    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("run")
        .output;

    let mut map = GlobalMap::new(GlobalMapConfig {
        voxel_resolution: 0.03,
        min_voxel_support: 1,
    })
    .expect("config");
    for kf in &output.keyframes {
        map.insert_cloud(&kf.local_cloud, &kf.reference_pose);
    }
    // `EmvsOutput::global_map` is the naive concatenation of the key-frame
    // clouds; the voxel-grid map deduplicates overlapping structure.
    assert!(map.point_cloud().len() <= output.global_map.len());
    assert_eq!(map.num_keyframes(), output.keyframes.len());
}

#[test]
fn fusing_keyframe_depth_maps_increases_or_preserves_coverage() {
    let seq = sequence(SequenceKind::SliderFar);
    let config = config_for_sequence(&seq, 50);
    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("run")
        .output;
    let first = &output.keyframes[0].depth_map;

    let mut fusion =
        DepthFusion::new(first.width(), first.height(), FusionConfig::default()).expect("dims");
    for kf in &output.keyframes {
        // All key-frame depth maps share the sensor resolution, so they can be
        // fused in the image domain (the views are close for these sequences).
        fusion.fuse(&kf.depth_map).expect("same dimensions");
    }
    let fused = fusion.finalize().expect("at least one map fused");
    assert!(fused.valid_count() >= first.valid_count());
    assert!(fusion.maps_fused() as usize == output.keyframes.len());
}

#[test]
fn map_export_round_trips_through_ply_text() {
    let seq = sequence(SequenceKind::ThreeWalls);
    let config = config_for_sequence(&seq, 40);
    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("run")
        .output;

    let mut map = GlobalMap::new(GlobalMapConfig::default()).expect("config");
    for kf in &output.keyframes {
        map.insert_cloud(&kf.local_cloud, &kf.reference_pose);
    }
    let mut buffer = Vec::new();
    map.write_ply(&mut buffer).expect("in-memory write");
    let text = String::from_utf8(buffer).expect("ascii ply");
    assert!(text.starts_with("ply"));
    let vertex_line = format!("element vertex {}", map.point_cloud().len());
    assert!(
        text.contains(&vertex_line),
        "header must declare every exported point"
    );
}
