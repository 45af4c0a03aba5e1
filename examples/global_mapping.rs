//! Full-trajectory global mapping: reconstruct a sequence key frame by key
//! frame, merge every local depth map into the voxel-grid global map, fuse
//! overlapping depth maps at the image level, and export the result as a PLY
//! point cloud.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example global_mapping
//! ```

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::map::{DepthFusion, FusionConfig, GlobalMap, GlobalMapConfig};
use std::error::Error;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Reconstruct the three-walls scene with the Eventor pipeline.
    let sequence =
        SyntheticSequence::generate(SequenceKind::ThreeWalls, &DatasetConfig::fast_test())?;
    // Tighten the key-frame spacing so the trajectory yields several key
    // reference views to merge (the default spacing targets larger scenes).
    let keyframe_distance = (sequence.trajectory.path_length() / 4.0).max(1e-3);
    let config = config_for_sequence(&sequence, 80).with_keyframe_distance(keyframe_distance);
    let output = EventorSession::builder(sequence.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;
    println!(
        "reconstructed `{}`: {} key frames, {} raw map points",
        sequence.name(),
        output.keyframes.len(),
        output.global_map.len()
    );

    // 2. Merge every key frame into the voxel-grid global map (the EMVS
    //    map-updating stage, with deduplication and support-based pruning).
    let mut map = GlobalMap::new(GlobalMapConfig {
        voxel_resolution: 0.02,
        min_voxel_support: 1,
    })?;
    for (i, kf) in output.keyframes.iter().enumerate() {
        let contributed = map.insert_depth_map(
            &kf.depth_map,
            &sequence.camera.intrinsics,
            &kf.reference_pose,
        );
        println!(
            "  keyframe {i}: {} semi-dense pixels -> {} points (mean depth {:.2} m)",
            kf.depth_map.valid_count(),
            contributed,
            map.keyframes()[i].mean_depth
        );
    }
    let stats = map.statistics();
    println!("\n--- global map ---");
    println!("key frames       : {}", stats.keyframes);
    println!("raw points       : {}", stats.raw_points);
    println!(
        "map points       : {} ({} voxels occupied)",
        stats.map_points, stats.occupied_voxels
    );
    println!("mean confidence  : {:.1}", stats.mean_confidence);
    println!(
        "extent           : {:.2} x {:.2} x {:.2} m",
        stats.extent.x, stats.extent.y, stats.extent.z
    );

    // 3. Image-domain fusion of the key-frame depth maps (all key frames of
    //    these sequences share the sensor resolution and a nearby viewpoint).
    let first = &output.keyframes[0].depth_map;
    let mut fusion = DepthFusion::new(first.width(), first.height(), FusionConfig::default())?;
    for kf in &output.keyframes {
        fusion.fuse(&kf.depth_map)?;
    }
    let fused = fusion.finalize()?;
    println!("\n--- depth-map fusion ---");
    println!("maps fused       : {}", fusion.maps_fused());
    println!(
        "coverage         : {} -> {} valid pixels",
        first.valid_count(),
        fused.valid_count()
    );
    println!("rejected outliers: {}", fusion.rejected_observations());

    // 4. Export the deduplicated global map for external viewers.
    let path = "results/global_map_3walls.ply";
    std::fs::create_dir_all("results")?;
    map.write_ply(BufWriter::new(File::create(path)?))?;
    println!("\nwrote {path} ({} points)", map.point_cloud().len());

    Ok(())
}
