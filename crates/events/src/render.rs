//! Rendering synthetic scenes to intensity and depth images.
//!
//! The event simulator samples log-intensity images along the trajectory;
//! the dataset builders render ground-truth *depth* at the reference views
//! used for the accuracy evaluation (Fig. 4 / Fig. 7a).

use crate::image::Image;
use crate::scene::Scene;
use crate::undistort::UndistortionLut;
use eventor_geom::{CameraModel, Pose, Vec2};

/// Renders the scene's *log* intensity as seen by `camera` at `pose`.
///
/// Each pixel's viewing ray is cast through the scene; the returned image
/// stores `ln(intensity + eps)` which is the quantity event cameras threshold.
pub fn render_log_intensity(scene: &Scene, camera: &CameraModel, pose: &Pose) -> Image {
    render_log_intensity_through(scene, &UndistortionLut::build(camera), pose)
}

/// [`render_log_intensity`] for the camera of `lut`, reading each pixel's
/// lens correction from the table: the simulator renders many samples
/// through one table.
pub(crate) fn render_log_intensity_through(
    scene: &Scene,
    lut: &UndistortionLut,
    pose: &Pose,
) -> Image {
    let camera = lut.camera();
    let w = camera.intrinsics.width as usize;
    let h = camera.intrinsics.height as usize;
    let mut img = Image::filled(w, h, 0.0);
    let eps = 1e-3;
    for y in 0..h {
        for x in 0..w {
            // The sensor observes the *distorted* image; undistort the pixel
            // to find its true viewing direction.
            let ideal = lut.pixel(x, y);
            let bearing_cam = camera.pixel_to_bearing(ideal);
            let dir_world = pose.rotate(bearing_cam);
            let radiance = scene.radiance(pose.translation, dir_world);
            img.set(x, y, (radiance + eps).ln());
        }
    }
    img
}

/// Renders the ground-truth depth map (Z-coordinate in the camera frame, not
/// ray length) as seen by `camera` at `pose`.
///
/// Pixels whose ray misses every patch are `f64::INFINITY`. Lens distortion is
/// ignored for the ground-truth view: the EMVS depth map is expressed in the
/// ideal (undistorted) pinhole geometry of the virtual camera.
pub fn render_depth(scene: &Scene, camera: &CameraModel, pose: &Pose) -> Image {
    let w = camera.intrinsics.width as usize;
    let h = camera.intrinsics.height as usize;
    let mut img = Image::filled(w, h, f64::INFINITY);
    for y in 0..h {
        for x in 0..w {
            let px = Vec2::new(x as f64, y as f64);
            let bearing_cam = camera.intrinsics.unproject(px);
            let norm = bearing_cam.norm();
            let dir_world = pose.rotate(bearing_cam / norm);
            let ray_len = scene.ray_depth(pose.translation, dir_world);
            if ray_len.is_finite() {
                // Convert ray length to camera-frame depth Z: the unprojected
                // bearing has z = 1 before normalization, so Z = len / norm.
                img.set(x, y, ray_len / norm);
            }
        }
    }
    img
}

/// Renders an *edge-strength* map: the magnitude of the spatial gradient of
/// the log intensity. Pixels with strong gradients are where an ideal event
/// camera fires events; used by the dataset builders to report how much
/// structure a sequence contains and by tests as a sanity check.
pub fn render_edge_map(scene: &Scene, camera: &CameraModel, pose: &Pose) -> Image {
    let log_img = render_log_intensity(scene, camera, pose);
    let w = log_img.width();
    let h = log_img.height();
    let mut edges = Image::filled(w, h, 0.0);
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let gx = 0.5 * (log_img.get(x + 1, y) - log_img.get(x - 1, y));
            let gy = 0.5 * (log_img.get(x, y + 1) - log_img.get(x, y - 1));
            edges.set(x, y, (gx * gx + gy * gy).sqrt());
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{PlanarPatch, Texture};
    use eventor_geom::{CameraIntrinsics, DistortionModel, Vec3};

    fn small_camera() -> CameraModel {
        CameraModel::new(
            CameraIntrinsics::new(40.0, 40.0, 24.0, 18.0, 48, 36).unwrap(),
            DistortionModel::none(),
        )
    }

    fn plane_scene(depth: f64) -> Scene {
        let mut scene = Scene::new();
        scene.add_patch(PlanarPatch::frontoparallel(
            Vec3::new(0.0, 0.0, depth),
            10.0,
            10.0,
            Texture::Checkerboard { period: 0.25 },
        ));
        scene
    }

    #[test]
    fn depth_of_frontoparallel_plane_is_constant() {
        let cam = small_camera();
        let scene = plane_scene(2.0);
        let depth = render_depth(&scene, &cam, &Pose::identity());
        for y in 0..depth.height() {
            for x in 0..depth.width() {
                let d = depth.get(x, y);
                assert!(
                    (d - 2.0).abs() < 1e-9,
                    "pixel ({x},{y}) depth {d} should be 2.0 for a fronto-parallel plane"
                );
            }
        }
    }

    #[test]
    fn log_intensity_shows_texture_contrast() {
        let cam = small_camera();
        let scene = plane_scene(1.5);
        let img = render_log_intensity(&scene, &cam, &Pose::identity());
        let min = img.min_finite().unwrap();
        let max = img.max_finite().unwrap();
        assert!(
            max - min > 0.5,
            "checkerboard should produce contrast, got {min}..{max}"
        );
    }

    #[test]
    fn empty_scene_has_infinite_depth_and_flat_intensity() {
        let cam = small_camera();
        let scene = Scene::new();
        let depth = render_depth(&scene, &cam, &Pose::identity());
        assert_eq!(depth.finite_fraction(), 0.0);
        let img = render_log_intensity(&scene, &cam, &Pose::identity());
        assert!((img.max_finite().unwrap() - img.min_finite().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn edge_map_nonzero_on_textured_plane() {
        let cam = small_camera();
        let scene = plane_scene(2.0);
        let edges = render_edge_map(&scene, &cam, &Pose::identity());
        assert!(edges.max_finite().unwrap() > 0.0);
    }

    #[test]
    fn camera_translation_changes_depth() {
        let cam = small_camera();
        let scene = plane_scene(3.0);
        let moved = Pose::from_translation(Vec3::new(0.0, 0.0, 1.0));
        let depth = render_depth(&scene, &cam, &moved);
        assert!((depth.get(24, 18) - 2.0).abs() < 1e-9);
    }
}
