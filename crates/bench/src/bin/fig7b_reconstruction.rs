//! Regenerates **Fig. 7b**: a 3-D view of the scene structure reconstructed
//! from the `simulation_3planes` sequence.
//!
//! The reconstructed semi-dense point cloud is written as an ASCII PLY file
//! (default `results/fig7b_3planes.ply`) that any point-cloud viewer can
//! open; summary statistics are printed so the result can be checked without
//! a viewer.

use eventor_bench::{experiment_config, fast_mode, generate_sequence, print_header};
use eventor_core::{EventorOptions, EventorSession};
use eventor_dsi::PointCloud;
use eventor_events::SequenceKind;
use std::fs;
use std::path::PathBuf;

fn main() {
    let fast = fast_mode();
    let seq = generate_sequence(SequenceKind::ThreePlanes, fast);
    let config = experiment_config(&seq);

    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("reconstruction succeeds on the synthetic sequence")
        .output;

    let mut cloud = PointCloud::new();
    for kf in &output.keyframes {
        cloud.merge(&kf.local_cloud);
    }
    let filtered = cloud.radius_outlier_filtered(0.08, 2);

    let out_dir = PathBuf::from("results");
    fs::create_dir_all(&out_dir).expect("can create the results directory");
    let path = out_dir.join("fig7b_3planes.ply");
    let file = fs::File::create(&path).expect("can create the PLY file");
    filtered
        .write_ply(std::io::BufWriter::new(file))
        .expect("can write the PLY file");

    print_header("Fig. 7b: reconstructed scene structure (simulation_3planes)");
    println!("key frames          : {}", output.keyframes.len());
    println!("raw points          : {}", cloud.len());
    println!("filtered points     : {}", filtered.len());
    if let Some((min, max)) = filtered.bounds() {
        println!("bounding box (m)    : {min} .. {max}");
    }
    if let Some(centroid) = filtered.centroid() {
        println!("centroid (m)        : {centroid}");
    }
    // The scene has three planes at z = 1.2, 2.0 and 3.0 m; report how close
    // the reconstruction lies to them.
    if let Ok(d) = filtered.mean_z_distance_to_planes(&[1.2, 2.0, 3.0]) {
        println!("mean |z - plane| (m): {d:.4}  (ground-truth planes at 1.2 / 2.0 / 3.0 m)");
    }
    println!("point cloud written : {}", path.display());
}
