//! # eventor-bench
//!
//! Experiment harness for the Eventor reproduction: shared helpers used by
//! the per-table / per-figure binaries in `src/bin/` and the Criterion
//! benches in `benches/`.
//!
//! Every binary accepts `--fast` (or the `EVENTOR_FAST=1` environment
//! variable) to switch from the full DAVIS-resolution configuration to the
//! reduced test configuration, which makes the whole experiment suite run in
//! seconds for smoke-testing.
//!
//! Which binary reproduces which paper artefact (and how to read the
//! outputs) is documented in the repository's `README.md` and
//! `docs/BENCHMARKS.md`.
//!
//! ## Example
//!
//! Generating an experiment workload and its configuration, exactly the way
//! the `src/bin/` binaries do:
//!
//! ```
//! use eventor_bench::{dataset_config, experiment_config, EXPERIMENT_DEPTH_PLANES};
//! use eventor_events::{SequenceKind, SyntheticSequence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // `true` = the reduced-scale fast mode the test suite uses.
//! let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &dataset_config(true))?;
//! let config = experiment_config(&seq);
//! assert_eq!(config.num_depth_planes, EXPERIMENT_DEPTH_PLANES);
//! assert!((config.depth_range.0, config.depth_range.1) == seq.depth_range);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod enforce;
pub mod trend;

use eventor_core::config_for_sequence;
use eventor_emvs::EmvsConfig;
use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};

/// Number of DSI depth planes used by the experiments (the paper's `N_z`).
pub const EXPERIMENT_DEPTH_PLANES: usize = 100;

/// Whether the harness should run in fast (reduced-scale) mode.
///
/// Fast mode is selected by passing `--fast` on the command line or setting
/// `EVENTOR_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--fast")
        || std::env::var("EVENTOR_FAST")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// The dataset configuration for the current mode.
pub fn dataset_config(fast: bool) -> DatasetConfig {
    if fast {
        DatasetConfig::fast_test()
    } else {
        DatasetConfig::paper_scale()
    }
}

/// Generates one sequence in the current mode, logging progress to stderr.
///
/// # Panics
///
/// Panics if the simulator rejects the configuration (which cannot happen for
/// the built-in configurations).
pub fn generate_sequence(kind: SequenceKind, fast: bool) -> SyntheticSequence {
    eprintln!(
        "[eventor-bench] generating {} ({} mode)...",
        kind.name(),
        if fast { "fast" } else { "paper-scale" }
    );
    let seq = SyntheticSequence::generate(kind, &dataset_config(fast))
        .expect("built-in dataset configurations are valid");
    eprintln!(
        "[eventor-bench]   {} events, {:.2} s, {:.2} Mev/s",
        seq.events.len(),
        seq.events.duration(),
        seq.stats.mean_event_rate / 1e6
    );
    seq
}

/// Generates all four evaluation sequences in the current mode.
pub fn generate_all_sequences(fast: bool) -> Vec<SyntheticSequence> {
    SequenceKind::ALL
        .iter()
        .map(|&k| generate_sequence(k, fast))
        .collect()
}

/// The EMVS configuration the experiments use for a sequence.
pub fn experiment_config(sequence: &SyntheticSequence) -> EmvsConfig {
    config_for_sequence(sequence, EXPERIMENT_DEPTH_PLANES)
}

/// Formats a row of an aligned text table.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a named separator line.
pub fn print_header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_config_switches_resolution() {
        let fast = dataset_config(true);
        let full = dataset_config(false);
        assert!(fast.camera.intrinsics.width < full.camera.intrinsics.width);
        assert_eq!(full.camera.intrinsics.width, 240);
    }

    #[test]
    fn format_row_aligns() {
        let row = format_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }

    #[test]
    fn experiment_config_uses_100_planes() {
        let seq = generate_sequence(SequenceKind::SliderClose, true);
        let cfg = experiment_config(&seq);
        assert_eq!(cfg.num_depth_planes, EXPERIMENT_DEPTH_PLANES);
    }
}
