//! Configuration of the EMVS space-sweep mapper.

use crate::EmvsError;
use eventor_dsi::{DepthPlanes, DetectionConfig};
use eventor_events::DEFAULT_EVENTS_PER_FRAME;
use eventor_fixed::PlaneCoord;
use eventor_geom::CameraIntrinsics;

/// DSI voting mode.
///
/// The baseline EMVS uses [`VotingMode::Bilinear`]; the Eventor accelerator
/// substitutes [`VotingMode::Nearest`] (the paper's approximate-computing
/// optimization, evaluated in Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VotingMode {
    /// Split each vote over the four surrounding voxels by bilinear weights.
    #[default]
    Bilinear,
    /// Deposit the whole vote on the nearest voxel.
    Nearest,
}

impl std::fmt::Display for VotingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bilinear => write!(f, "bilinear"),
            Self::Nearest => write!(f, "nearest"),
        }
    }
}

/// Reformulation/approximation switches of the Eventor datapath: the two
/// approximations of the paper, each switchable on its own. Together they
/// select one of four datapaths of the [`VotingEngine`](crate::VotingEngine);
/// [`EventorOptions::exact`] is the baseline EMVS datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventorOptions {
    /// DSI voting mode (the accelerator uses nearest voting).
    pub voting: VotingMode,
    /// Apply the Table 1 hybrid fixed-point quantization.
    pub quantize: bool,
}

impl Default for EventorOptions {
    fn default() -> Self {
        Self {
            voting: VotingMode::Nearest,
            quantize: true,
        }
    }
}

impl EventorOptions {
    /// The full Eventor datapath (nearest voting + quantization), as deployed
    /// on the FPGA.
    pub fn accelerator() -> Self {
        Self::default()
    }

    /// Nearest voting only (Fig. 4a ablation).
    pub fn nearest_only() -> Self {
        Self {
            voting: VotingMode::Nearest,
            quantize: false,
        }
    }

    /// Quantization only (Fig. 4b ablation).
    pub fn quantized_only() -> Self {
        Self {
            voting: VotingMode::Bilinear,
            quantize: true,
        }
    }

    /// No approximation at all: the baseline EMVS datapath (the paper's CPU
    /// column and the "Original" bars of Fig. 4 and Fig. 7a).
    pub fn exact() -> Self {
        Self {
            voting: VotingMode::Bilinear,
            quantize: false,
        }
    }

    /// Checks that the datapath can address every pixel of `camera`'s
    /// sensor. The float datapaths take any size; the quantized ones
    /// (Table 1) address at most [`PlaneCoord::MAX_SENSOR_SIDE`] pixels a
    /// side.
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] when `quantize` is set and the
    /// sensor is wider or taller than that.
    pub fn check_sensor(&self, camera: &CameraIntrinsics) -> Result<(), EmvsError> {
        let max = PlaneCoord::MAX_SENSOR_SIDE;
        if self.quantize && (camera.width > max || camera.height > max) {
            return Err(EmvsError::InvalidConfig {
                reason: format!(
                    "a {}x{} sensor exceeds the quantized datapath's {max}x{max} pixels \
                     (Q9.7 coordinates, 8-bit plane addresses)",
                    camera.width, camera.height
                ),
            });
        }
        Ok(())
    }
}

/// Configuration of an EMVS reconstruction, shared by every datapath and
/// backend.
#[derive(Debug, Clone, PartialEq)]
pub struct EmvsConfig {
    /// Events per aggregated frame (the paper uses 1024).
    pub events_per_frame: usize,
    /// Number of DSI depth planes `N_z`.
    pub num_depth_planes: usize,
    /// Near and far limits of the DSI depth range, in metres.
    pub depth_range: (f64, f64),
    /// DSI voting mode recorded with the configuration. No backend reads it:
    /// the datapath comes from [`EventorOptions`]. It is carried in session
    /// checkpoints, so it stays part of the configuration's identity.
    pub voting: VotingMode,
    /// Scene-structure detection parameters.
    pub detection: DetectionConfig,
    /// Translation distance (metres) between the current camera pose and the
    /// key reference view beyond which a new key frame is selected.
    pub keyframe_distance: f64,
    /// Minimum number of event frames that must be processed into a DSI
    /// before a key-frame switch is allowed (avoids key frames with too few
    /// votes to detect anything).
    pub min_frames_per_keyframe: usize,
}

impl Default for EmvsConfig {
    fn default() -> Self {
        Self {
            events_per_frame: DEFAULT_EVENTS_PER_FRAME,
            num_depth_planes: 100,
            depth_range: (0.6, 6.0),
            voting: VotingMode::Bilinear,
            detection: DetectionConfig::default(),
            keyframe_distance: 0.25,
            min_frames_per_keyframe: 4,
        }
    }
}

impl EmvsConfig {
    /// Validates the configuration.
    ///
    /// This is the single validation path: every backend constructor and
    /// the session driver reach it through [`EmvsConfig::depth_planes`].
    ///
    /// # Errors
    ///
    /// Returns [`EmvsError::InvalidConfig`] when the frame size is zero,
    /// fewer than two depth planes are requested, or the depth range is
    /// non-positive or inverted.
    pub fn validate(&self) -> Result<(), EmvsError> {
        if self.events_per_frame == 0 {
            return Err(EmvsError::InvalidConfig {
                reason: "events_per_frame must be positive".into(),
            });
        }
        if self.num_depth_planes < 2 {
            return Err(EmvsError::InvalidConfig {
                reason: "need at least two depth planes".into(),
            });
        }
        if !self.depth_range.0.is_finite()
            || !self.depth_range.1.is_finite()
            || self.depth_range.0 <= 0.0
            || self.depth_range.1 <= self.depth_range.0
        {
            return Err(EmvsError::InvalidConfig {
                reason: format!("invalid depth range {:?}", self.depth_range),
            });
        }
        Ok(())
    }

    /// Validates the configuration and constructs its DSI depth planes — the
    /// one place the `depth_range` / `num_depth_planes` pair is turned into
    /// geometry, so a configuration that validates is guaranteed to
    /// construct.
    ///
    /// # Errors
    ///
    /// Same contract as [`EmvsConfig::validate`].
    pub fn depth_planes(&self) -> Result<DepthPlanes, EmvsError> {
        self.validate()?;
        Ok(DepthPlanes::uniform_inverse_depth(
            self.depth_range.0,
            self.depth_range.1,
            self.num_depth_planes,
        )?)
    }

    /// Builder-style override of the depth range.
    pub fn with_depth_range(mut self, z_min: f64, z_max: f64) -> Self {
        self.depth_range = (z_min, z_max);
        self
    }

    /// Builder-style override of the voting mode.
    pub fn with_voting(mut self, voting: VotingMode) -> Self {
        self.voting = voting;
        self
    }

    /// Builder-style override of the number of depth planes.
    pub fn with_depth_planes(mut self, n: usize) -> Self {
        self.num_depth_planes = n;
        self
    }

    /// Builder-style override of the key-frame distance threshold.
    pub fn with_keyframe_distance(mut self, distance: f64) -> Self {
        self.keyframe_distance = distance;
        self
    }

    /// Builder-style override of the detection parameters.
    pub fn with_detection(mut self, detection: DetectionConfig) -> Self {
        self.detection = detection;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = EmvsConfig::default();
        assert_eq!(c.events_per_frame, 1024);
        assert_eq!(c.num_depth_planes, 100);
        assert_eq!(c.voting, VotingMode::Bilinear);
    }

    #[test]
    fn builder_overrides() {
        let c = EmvsConfig::default()
            .with_depth_range(1.0, 3.0)
            .with_voting(VotingMode::Nearest)
            .with_depth_planes(50)
            .with_keyframe_distance(0.4);
        assert_eq!(c.depth_range, (1.0, 3.0));
        assert_eq!(c.voting, VotingMode::Nearest);
        assert_eq!(c.num_depth_planes, 50);
        assert_eq!(c.keyframe_distance, 0.4);
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        assert!(EmvsConfig::default().validate().is_ok());
        let bad = EmvsConfig {
            events_per_frame: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EmvsConfig {
            num_depth_planes: 1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        assert!(EmvsConfig::default()
            .with_depth_range(2.0, 1.0)
            .validate()
            .is_err());
        assert!(EmvsConfig::default()
            .with_depth_range(0.0, 1.0)
            .validate()
            .is_err());
        // Non-finite ranges must be rejected by validation, not surface later
        // as a planes-construction failure (or a panic behind an `expect`).
        assert!(EmvsConfig::default()
            .with_depth_range(1.0, f64::INFINITY)
            .validate()
            .is_err());
        assert!(EmvsConfig::default()
            .with_depth_range(f64::NAN, f64::NAN)
            .validate()
            .is_err());
        assert!(EmvsConfig::default().depth_planes().is_ok());
    }

    #[test]
    fn options_presets() {
        assert_eq!(EventorOptions::accelerator().voting, VotingMode::Nearest);
        assert!(EventorOptions::accelerator().quantize);
        assert!(!EventorOptions::nearest_only().quantize);
        assert_eq!(
            EventorOptions::quantized_only().voting,
            VotingMode::Bilinear
        );
        assert_eq!(
            EventorOptions::exact(),
            EventorOptions {
                voting: VotingMode::Bilinear,
                quantize: false
            }
        );
    }

    #[test]
    fn voting_mode_display() {
        assert_eq!(VotingMode::Bilinear.to_string(), "bilinear");
        assert_eq!(VotingMode::Nearest.to_string(), "nearest");
    }
}
