//! # eventor-scenarios
//!
//! The versioned scenario corpus of the Eventor reproduction: a library of
//! parameterized synthetic worlds — trajectory shapes (orbit, spiral, dolly,
//! shake, slide), sensor degradations (hot pixels, event bursts, background
//! clutter, dropout windows) and depth structures (sparse, dense,
//! multi-plane) — each deterministic in a single `u64` seed.
//!
//! The corpus turns scenario diversity into **data**:
//!
//! * every test, bench and example sources its scenes from here instead of
//!   synthesizing private copies,
//! * each scenario has a committed **golden digest** (an FNV-1a 64 hash of
//!   the quantized-nearest reconstruction's depth maps, [`digest_output`]),
//!   so a bit-identity regression surfaces as a *named scenario failure* in
//!   CI rather than an unexplained test diff,
//! * a recorded run replays bit-identically through the `eventor-evtr/1`
//!   container (`eventor_events::write_evtr` / `read_evtr`).
//!
//! ## Example
//!
//! ```
//! use eventor_scenarios::{corpus, find, BackendKind, Scenario};
//!
//! # fn main() -> Result<(), eventor_scenarios::ScenarioError> {
//! assert!(corpus().len() >= 10);
//! let scenario = find("shake_closeup").expect("corpus scenario");
//! let world = scenario.build(scenario.default_seed())?;
//! assert!(!world.events.is_empty());
//! assert_eq!(world.trajectory.len() > 2, true);
//! // `BackendKind::ALL` names every execution path a world can run through.
//! assert!(BackendKind::ALL.len() >= 4);
//! # Ok(())
//! # }
//! ```
//!
//! The catalog, the digest workflow and the `.evtr` format are documented in
//! `docs/SCENARIOS.md`; `eventor-cli` exposes the corpus on the command line
//! (`list`, `generate`, `replay`, `check`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fuzz;
mod golden;
pub mod invariants;
mod noise;
mod runner;
mod shrink;
mod worlds;

pub use error::ScenarioError;
pub use fuzz::{
    NoiseSpec, SceneKind, TrajectoryKind, WorldSpec, FUZZWORLD_HEADER, MAX_NOISE_STAGES,
    MAX_PLANES, MAX_SAMPLES, MIN_EVENT_CAP, MIN_PLANES, MIN_SAMPLES,
};
pub use golden::{golden_digest, GOLDEN_DIGESTS};
pub use invariants::{check_invariant, Invariant, Violation, F1_MAX_DIFF_FRACTION};
pub use noise::{apply_noise, BurstNoise, DropoutNoise, NoiseStage};
pub use runner::{
    builder_for_profile, digest_output, digest_world, run_world, serve_worlds, session_for_profile,
    BackendKind,
};
pub use shrink::{minimize_spec, run_fuzz, FuzzOptions, FuzzReport, WorldReport};
pub use worlds::{corpus, find, heterogeneous_pool, CorpusScenario};

use eventor_emvs::EmvsConfig;
use eventor_events::EventStream;
use eventor_geom::{CameraModel, Trajectory};

/// A fully materialized scenario: everything a reconstruction session needs.
///
/// Produced by [`Scenario::build`]; deterministic in the `(scenario, seed)`
/// pair down to the last bit, so two builds of the same pair always hash to
/// the same digest.
#[derive(Debug, Clone)]
pub struct ScenarioWorld {
    /// Name of the scenario that built this world.
    pub name: String,
    /// The seed the world was built from.
    pub seed: u64,
    /// Camera model the events were simulated with.
    pub camera: CameraModel,
    /// Ground-truth camera trajectory (the poses fed to the session).
    pub trajectory: Trajectory,
    /// The simulated (and possibly degraded) event stream.
    pub events: EventStream,
    /// Reconstruction configuration matched to the world's depth structure.
    pub config: EmvsConfig,
}

impl ScenarioWorld {
    /// A copy of this world whose stream is truncated to at most
    /// `max_events` events (used by benches to equalize workload sizes).
    pub fn truncated(&self, max_events: usize) -> Self {
        let events: EventStream = self
            .events
            .as_slice()
            .iter()
            .take(max_events)
            .copied()
            .collect();
        Self {
            events,
            ..self.clone()
        }
    }
}

/// A named, seeded, parameterized synthetic world.
///
/// Implementations must be **deterministic**: the same seed must yield a
/// bit-identical [`ScenarioWorld`] on every build, on every host. All
/// randomness must derive from the seed (splitmix-style hashing; no
/// `std::time`, no global RNG state).
pub trait Scenario {
    /// Unique scenario name (`snake_case`; the CLI addresses scenarios by
    /// this name).
    fn name(&self) -> &'static str;

    /// One-line human description for the catalog.
    fn description(&self) -> &'static str;

    /// Coarse facets (`trajectory:*`, `noise:*`, `depth:*`) for filtering.
    fn tags(&self) -> &'static [&'static str];

    /// The seed the golden digest is recorded at.
    fn default_seed(&self) -> u64;

    /// Materializes the world for `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the underlying simulator rejects the
    /// generated configuration (cannot happen for the built-in corpus).
    fn build(&self, seed: u64) -> Result<ScenarioWorld, ScenarioError>;
}

/// Deterministic seed mixer (splitmix64 finalizer) used to derive per-stage
/// sub-seeds from a scenario seed without correlation between stages.
pub(crate) fn mix_seed(seed: u64, stage: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stage.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_tagged() {
        let mut names = std::collections::HashSet::new();
        for s in corpus() {
            assert!(names.insert(s.name()), "duplicate scenario {}", s.name());
            assert!(!s.description().is_empty());
            let tags = s.tags();
            assert!(
                tags.iter().any(|t| t.starts_with("trajectory:")),
                "{} missing trajectory tag",
                s.name()
            );
            assert!(
                tags.iter().any(|t| t.starts_with("depth:")),
                "{} missing depth tag",
                s.name()
            );
        }
        assert!(names.len() >= 10, "corpus has only {} worlds", names.len());
    }

    #[test]
    fn mix_seed_separates_stages() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
