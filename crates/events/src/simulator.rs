//! Contrast-threshold event-camera simulator.
//!
//! The DAVIS dataset the paper evaluates on combines real recordings and the
//! simulator of Mueggler et al. (IJRR 2017). This module is a from-scratch
//! equivalent: the scene is rendered to log-intensity images at a fixed
//! sampling rate along the trajectory, and each pixel emits an event whenever
//! its log intensity drifts by more than the contrast threshold from its last
//! reference level — with timestamps linearly interpolated inside the
//! sampling interval, per-pixel refractory filtering, and optional noise
//! events.

use crate::event::{Event, Polarity};
use crate::render::render_log_intensity_through;
use crate::scene::Scene;
use crate::stream::EventStream;
use crate::undistort::UndistortionLut;
use crate::EventError;
use eventor_geom::{CameraModel, Trajectory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the event simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorConfig {
    /// Contrast threshold `C`: an event fires when `|Δ log I| >= C`.
    pub contrast_threshold: f64,
    /// Number of log-intensity samples rendered along the trajectory.
    pub samples: usize,
    /// Per-pixel refractory period in seconds (events closer together are
    /// dropped, mimicking the pixel dead time of the sensor).
    pub refractory_period: f64,
    /// Expected number of uniformly distributed noise events per pixel per
    /// second (shot noise / background activity). Zero disables noise.
    pub noise_rate: f64,
    /// RNG seed for noise generation (the signal path is deterministic).
    pub seed: u64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            contrast_threshold: 0.15,
            samples: 240,
            refractory_period: 1e-4,
            noise_rate: 0.0,
            seed: 0xEB5E,
        }
    }
}

/// Summary statistics reported by a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulationStats {
    /// Total number of events generated (signal + noise).
    pub total_events: usize,
    /// Number of noise events injected.
    pub noise_events: usize,
    /// Number of events suppressed by the refractory period.
    pub refractory_dropped: usize,
    /// Mean event rate over the simulated time span, events per second.
    pub mean_event_rate: f64,
}

/// The event-camera simulator.
#[derive(Debug, Clone)]
pub struct EventCameraSimulator {
    camera: CameraModel,
    config: SimulatorConfig,
}

impl EventCameraSimulator {
    /// Creates a simulator for the given camera model.
    pub fn new(camera: CameraModel, config: SimulatorConfig) -> Self {
        Self { camera, config }
    }

    /// The camera model being simulated.
    pub fn camera(&self) -> &CameraModel {
        &self.camera
    }

    /// The active configuration.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Simulates the sensor observing `scene` while moving along `trajectory`.
    ///
    /// Returns the generated event stream together with run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidSimulation`] when the configuration is
    /// unusable (fewer than two samples, non-positive contrast threshold) or
    /// the trajectory is shorter than two samples require.
    pub fn simulate(
        &self,
        scene: &Scene,
        trajectory: &Trajectory,
    ) -> Result<(EventStream, SimulationStats), EventError> {
        let cfg = &self.config;
        if cfg.samples < 2 {
            return Err(EventError::InvalidSimulation {
                reason: "simulator needs at least two samples".to_string(),
            });
        }
        if cfg.contrast_threshold <= 0.0 || !cfg.contrast_threshold.is_finite() {
            return Err(EventError::InvalidSimulation {
                reason: format!(
                    "contrast threshold {} must be positive",
                    cfg.contrast_threshold
                ),
            });
        }
        let (t0, t1) = match (trajectory.start_time(), trajectory.end_time()) {
            (Some(a), Some(b)) if b > a => (a, b),
            _ => {
                return Err(EventError::InvalidSimulation {
                    reason: "trajectory must span a positive duration".to_string(),
                })
            }
        };

        let w = self.camera.intrinsics.width as usize;
        let h = self.camera.intrinsics.height as usize;
        let n_px = w * h;

        let dt = (t1 - t0) / (cfg.samples - 1) as f64;
        let pose0 = trajectory
            .pose_at(t0)
            .map_err(|e| EventError::InvalidSimulation {
                reason: e.to_string(),
            })?;
        // One lens-correction table serves every rendered sample.
        let lut = UndistortionLut::build(&self.camera);
        let first = render_log_intensity_through(scene, &lut, &pose0);

        // Per-pixel state: reference level and time of the last emitted event.
        let mut reference: Vec<f64> = first.as_slice().to_vec();
        let mut previous: Vec<f64> = reference.clone();
        let mut last_event_time: Vec<f64> = vec![f64::NEG_INFINITY; n_px];

        let mut events: Vec<Event> = Vec::new();
        let mut refractory_dropped = 0usize;

        for k in 1..cfg.samples {
            let t = t0 + k as f64 * dt;
            let pose =
                trajectory
                    .pose_at(t.min(t1))
                    .map_err(|e| EventError::InvalidSimulation {
                        reason: e.to_string(),
                    })?;
            let current = render_log_intensity_through(scene, &lut, &pose);
            let cur = current.as_slice();
            let t_prev = t - dt;

            for y in 0..h {
                for x in 0..w {
                    let idx = y * w + x;
                    let i_prev = previous[idx];
                    let i_cur = cur[idx];
                    let mut reference_level = reference[idx];
                    let delta_total = i_cur - reference_level;
                    let c = cfg.contrast_threshold;
                    if delta_total.abs() < c {
                        continue;
                    }
                    let polarity = Polarity::from_sign(delta_total);
                    let n_events = (delta_total.abs() / c).floor() as usize;
                    let slope = i_cur - i_prev;
                    for e_i in 0..n_events {
                        let crossing = reference_level + polarity.sign() * c * (e_i + 1) as f64;
                        // Linear interpolation of the crossing time inside the
                        // sampling interval; degenerate slopes fall back to the
                        // interval end.
                        let alpha = if slope.abs() > 1e-12 {
                            ((crossing - i_prev) / slope).clamp(0.0, 1.0)
                        } else {
                            1.0
                        };
                        let te = t_prev + alpha * dt;
                        if te - last_event_time[idx] < cfg.refractory_period {
                            refractory_dropped += 1;
                            continue;
                        }
                        last_event_time[idx] = te;
                        events.push(Event::new(te, x as u16, y as u16, polarity));
                    }
                    reference_level += polarity.sign() * c * n_events as f64;
                    reference[idx] = reference_level;
                }
            }
            previous.copy_from_slice(cur);
        }

        // Inject uniformly distributed noise events.
        let mut noise_events = 0usize;
        if cfg.noise_rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let expected = cfg.noise_rate * (t1 - t0) * n_px as f64;
            let n_noise = expected.round() as usize;
            for _ in 0..n_noise {
                let t = rng.gen_range(t0..t1);
                let x = rng.gen_range(0..w) as u16;
                let y = rng.gen_range(0..h) as u16;
                let polarity = if rng.gen_bool(0.5) {
                    Polarity::Positive
                } else {
                    Polarity::Negative
                };
                events.push(Event::new(t, x, y, polarity));
                noise_events += 1;
            }
        }

        let stream = EventStream::from_unsorted(events);
        let stats = SimulationStats {
            total_events: stream.len(),
            noise_events,
            refractory_dropped,
            mean_event_rate: stream.event_rate(),
        };
        Ok((stream, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{PlanarPatch, Texture};
    use eventor_geom::{CameraIntrinsics, DistortionModel, Pose, Vec3};

    fn small_camera() -> CameraModel {
        CameraModel::new(
            CameraIntrinsics::new(40.0, 40.0, 24.0, 18.0, 48, 36).unwrap(),
            DistortionModel::none(),
        )
    }

    fn textured_scene() -> Scene {
        let mut scene = Scene::new();
        scene.add_patch(PlanarPatch::frontoparallel(
            Vec3::new(0.0, 0.0, 2.0),
            6.0,
            6.0,
            Texture::Checkerboard { period: 0.3 },
        ));
        scene
    }

    fn slider_trajectory(extent: f64) -> Trajectory {
        Trajectory::linear(
            Pose::from_translation(Vec3::new(-extent, 0.0, 0.0)),
            Pose::from_translation(Vec3::new(extent, 0.0, 0.0)),
            0.0,
            1.0,
            60,
        )
    }

    #[test]
    fn moving_camera_over_textured_scene_generates_events() {
        let sim = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                samples: 60,
                ..SimulatorConfig::default()
            },
        );
        let (stream, stats) = sim
            .simulate(&textured_scene(), &slider_trajectory(0.2))
            .unwrap();
        assert!(
            stream.len() > 500,
            "expected many events, got {}",
            stream.len()
        );
        assert_eq!(stats.total_events, stream.len());
        assert!(stats.mean_event_rate > 0.0);
        // Events must be time sorted and within the trajectory span.
        assert!(stream.start_time().unwrap() >= 0.0);
        assert!(stream.end_time().unwrap() <= 1.0 + 1e-9);
        // A sideways slider produces both polarities (leading and trailing edges).
        let pf = stream.positive_fraction();
        assert!(pf > 0.1 && pf < 0.9, "positive fraction {pf}");
    }

    #[test]
    fn static_camera_generates_no_signal_events() {
        let sim = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                samples: 30,
                ..SimulatorConfig::default()
            },
        );
        let static_traj = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 1.0, 10);
        let (stream, _) = sim.simulate(&textured_scene(), &static_traj).unwrap();
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn noise_injection_adds_events_even_without_motion() {
        let sim = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                samples: 10,
                noise_rate: 0.5,
                ..SimulatorConfig::default()
            },
        );
        let static_traj = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 1.0, 10);
        let (stream, stats) = sim.simulate(&Scene::new(), &static_traj).unwrap();
        assert!(stats.noise_events > 0);
        assert_eq!(stream.len(), stats.noise_events);
    }

    #[test]
    fn higher_contrast_threshold_gives_fewer_events() {
        let scene = textured_scene();
        let traj = slider_trajectory(0.2);
        let low = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                contrast_threshold: 0.1,
                samples: 40,
                ..SimulatorConfig::default()
            },
        );
        let high = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                contrast_threshold: 0.4,
                samples: 40,
                ..SimulatorConfig::default()
            },
        );
        let (s_low, _) = low.simulate(&scene, &traj).unwrap();
        let (s_high, _) = high.simulate(&scene, &traj).unwrap();
        assert!(s_low.len() > s_high.len());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let cam = small_camera();
        let traj = slider_trajectory(0.1);
        let scene = textured_scene();

        let sim = EventCameraSimulator::new(
            cam,
            SimulatorConfig {
                samples: 1,
                ..Default::default()
            },
        );
        assert!(sim.simulate(&scene, &traj).is_err());

        let sim = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                contrast_threshold: 0.0,
                ..Default::default()
            },
        );
        assert!(sim.simulate(&scene, &traj).is_err());

        // Zero-duration trajectory.
        let sim = EventCameraSimulator::new(small_camera(), SimulatorConfig::default());
        let degenerate = Trajectory::from_samples(vec![(0.0, Pose::identity())]).unwrap();
        assert!(sim.simulate(&scene, &degenerate).is_err());
    }

    #[test]
    fn simulation_is_deterministic() {
        let sim = EventCameraSimulator::new(
            small_camera(),
            SimulatorConfig {
                samples: 30,
                noise_rate: 0.1,
                ..SimulatorConfig::default()
            },
        );
        let scene = textured_scene();
        let traj = slider_trajectory(0.15);
        let (a, _) = sim.simulate(&scene, &traj).unwrap();
        let (b, _) = sim.simulate(&scene, &traj).unwrap();
        assert_eq!(a, b);
    }
}
