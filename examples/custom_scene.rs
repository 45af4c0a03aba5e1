//! Build a custom scene and trajectory from scratch, simulate an event
//! camera flying through it, and reconstruct the scene with Eventor — the
//! workflow a user would follow to test the system on their own geometry
//! rather than the four built-in evaluation sequences.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_scene
//! ```

use eventor::core::{EventorOptions, EventorSession};
use eventor::emvs::EmvsConfig;
use eventor::events::{EventCameraSimulator, PlanarPatch, Scene, SimulatorConfig, Texture};
use eventor::geom::{
    CameraIntrinsics, CameraModel, DistortionModel, Pose, Trajectory, UnitQuaternion, Vec3,
};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A custom camera: half-resolution DAVIS with a mild lens distortion.
    let camera = CameraModel::new(
        CameraIntrinsics::new(100.0, 100.0, 60.0, 45.0, 120, 90)?,
        DistortionModel::radial(-0.2, 0.05, 0.0),
    );

    // 2. A custom scene: a slanted billboard and a distant backdrop.
    let mut scene = Scene::new();
    scene.add_patch(PlanarPatch::oriented(
        Vec3::new(-0.2, 0.0, 1.4),
        Vec3::new(1.0, 0.0, 0.35),
        Vec3::Y,
        0.8,
        0.6,
        Texture::Blobs {
            spacing: 0.18,
            radius_fraction: 0.4,
            seed: 2024,
        },
    ));
    scene.add_patch(PlanarPatch::frontoparallel(
        Vec3::new(0.3, 0.1, 2.8),
        3.0,
        2.4,
        Texture::MultiScaleSine {
            base_frequency: 2.0,
            octaves: 4,
            phase: 0.2,
        },
    ));

    // 3. A custom trajectory: a sideways sweep with a slight yaw.
    let start = Pose::new(
        UnitQuaternion::from_euler(0.0, 0.0, 0.03),
        Vec3::new(-0.35, 0.0, 0.0),
    );
    let end = Pose::new(
        UnitQuaternion::from_euler(0.0, 0.0, -0.03),
        Vec3::new(0.35, 0.05, 0.0),
    );
    let trajectory = Trajectory::linear(start, end, 0.0, 1.5, 80);

    // 4. Simulate the event camera.
    let simulator = EventCameraSimulator::new(
        camera,
        SimulatorConfig {
            samples: 120,
            contrast_threshold: 0.15,
            noise_rate: 0.02,
            ..Default::default()
        },
    );
    let (events, stats) = simulator.simulate(&scene, &trajectory)?;
    println!(
        "simulated {} events ({} noise, {:.2} Mev/s)",
        stats.total_events,
        stats.noise_events,
        stats.mean_event_rate / 1e6
    );

    // 5. Reconstruct with the Eventor pipeline.
    let config = EmvsConfig::default()
        .with_depth_range(0.8, 4.0)
        .with_depth_planes(100)
        .with_keyframe_distance(0.5);
    let output = EventorSession::builder(camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&events, &trajectory)?
        .output;

    for (i, keyframe) in output.keyframes.iter().enumerate() {
        println!(
            "key frame {i}: {} semi-dense pixels, mean depth {:.2} m",
            keyframe.depth_map.valid_count(),
            keyframe.depth_map.mean_depth()
        );
    }
    println!("global map: {} points", output.global_map.len());
    Ok(())
}
