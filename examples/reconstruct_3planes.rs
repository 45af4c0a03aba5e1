//! Reconstruct the `simulation_3planes` scene and export the semi-dense map
//! as a PLY point cloud — the workflow behind Fig. 7b of the paper.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example reconstruct_3planes
//! ```
//!
//! The point cloud is written to `results/example_3planes.ply`.

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::dsi::PointCloud;
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use std::error::Error;
use std::fs;

fn main() -> Result<(), Box<dyn Error>> {
    let sequence =
        SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())?;
    println!(
        "generated `{}`: {} events, ground-truth depth {:.2}..{:.2} m",
        sequence.name(),
        sequence.events.len(),
        sequence.ground_truth_depth.min_finite().unwrap_or(f64::NAN),
        sequence.ground_truth_depth.max_finite().unwrap_or(f64::NAN),
    );

    let config = config_for_sequence(&sequence, 100);
    let output = EventorSession::builder(sequence.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;

    // Merge the per-key-frame clouds into a global map and drop isolated
    // outliers (the "map updating" step of the paper's workflow).
    let mut global = PointCloud::new();
    for keyframe in &output.keyframes {
        println!(
            "key frame at {}: {} events, {} map points",
            keyframe.reference_pose.translation,
            keyframe.events_used,
            keyframe.local_cloud.len()
        );
        global.merge(&keyframe.local_cloud);
    }
    let filtered = global.radius_outlier_filtered(0.1, 2);

    fs::create_dir_all("results")?;
    let path = "results/example_3planes.ply";
    filtered.write_ply(std::io::BufWriter::new(fs::File::create(path)?))?;
    println!("wrote {} points to {path}", filtered.len());

    // The scene contains three planes at 1.2 m, 2.0 m and 3.0 m: report how
    // close the reconstructed points lie to them.
    let mean_distance = filtered.mean_z_distance_to_planes(&[1.2, 2.0, 3.0])?;
    println!("mean |z - nearest plane| = {mean_distance:.3} m");
    Ok(())
}
