//! Accuracy comparison harness: runs the baseline and the reformulated
//! variants on a synthetic sequence and reports the AbsRel depth error for
//! each — the machinery behind Fig. 4a, Fig. 4b and Fig. 7a.

use crate::EventorSession;
use eventor_dsi::DepthMetrics;
use eventor_emvs::{EmvsConfig, EmvsError, EventorOptions};
use eventor_events::SyntheticSequence;

/// The pipeline variants compared in the paper's accuracy figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineVariant {
    /// Original EMVS: bilinear voting, full precision (the baseline).
    OriginalBilinear,
    /// Original EMVS with nearest voting (Fig. 4a "Nearest").
    OriginalNearest,
    /// Quantized datapath with bilinear voting (Fig. 4b "Quantized").
    QuantizedBilinear,
    /// Fully reformulated Eventor datapath: rescheduled, nearest voting and
    /// quantized (Fig. 7a "Nearest, Quantized, Rescheduled").
    Reformulated,
}

impl PipelineVariant {
    /// All variants in presentation order.
    pub const ALL: [PipelineVariant; 4] = [
        PipelineVariant::OriginalBilinear,
        PipelineVariant::OriginalNearest,
        PipelineVariant::QuantizedBilinear,
        PipelineVariant::Reformulated,
    ];

    /// Human-readable label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Self::OriginalBilinear => "Bilinear, Unquantized (Original)",
            Self::OriginalNearest => "Nearest Voting",
            Self::QuantizedBilinear => "Quantized",
            Self::Reformulated => "Nearest, Quantized, Rescheduled (Eventor)",
        }
    }

    /// The datapath preset this variant runs on the voting engine.
    fn options(self) -> EventorOptions {
        match self {
            Self::OriginalBilinear => EventorOptions::exact(),
            Self::OriginalNearest => EventorOptions::nearest_only(),
            Self::QuantizedBilinear => EventorOptions::quantized_only(),
            Self::Reformulated => EventorOptions::accelerator(),
        }
    }
}

impl std::fmt::Display for PipelineVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Accuracy of one variant on one sequence.
#[derive(Debug, Clone)]
pub struct VariantAccuracy {
    /// Which variant was run.
    pub variant: PipelineVariant,
    /// Sequence name.
    pub sequence: &'static str,
    /// Depth metrics of the primary key frame against ground truth.
    pub metrics: DepthMetrics,
    /// Number of key frames reconstructed.
    pub keyframes: usize,
}

/// Runs one variant on a sequence, on the one-shard voting engine.
///
/// The variant picks the datapath; the depth range is taken from the
/// sequence.
///
/// # Errors
///
/// Propagates reconstruction errors from the session.
pub fn run_variant(
    sequence: &SyntheticSequence,
    variant: PipelineVariant,
    base_config: &EmvsConfig,
) -> Result<VariantAccuracy, EmvsError> {
    let config = base_config
        .clone()
        .with_depth_range(sequence.depth_range.0, sequence.depth_range.1);
    let output = EventorSession::builder(sequence.camera, config)
        .software(variant.options())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;
    let primary = output.primary().ok_or(EmvsError::NoEvents)?;
    let gt = sequence.ground_truth_depth_at(&primary.reference_pose);
    let metrics = primary.depth_map.compare_to_ground_truth(gt.as_slice())?;
    Ok(VariantAccuracy {
        variant,
        sequence: sequence.name(),
        metrics,
        keyframes: output.keyframes.len(),
    })
}

/// Runs a set of variants on a sequence.
///
/// # Errors
///
/// Fails on the first variant that fails to reconstruct.
pub fn run_variants(
    sequence: &SyntheticSequence,
    variants: &[PipelineVariant],
    base_config: &EmvsConfig,
) -> Result<Vec<VariantAccuracy>, EmvsError> {
    variants
        .iter()
        .map(|&v| run_variant(sequence, v, base_config))
        .collect()
}

/// Picks an EMVS configuration adapted to a sequence: depth range from the
/// sequence metadata and a key-frame distance proportional to the mean scene
/// depth (the heuristic EMVS front-ends use in practice).
pub fn config_for_sequence(sequence: &SyntheticSequence, num_depth_planes: usize) -> EmvsConfig {
    let mean_depth = sequence
        .ground_truth_depth
        .mean_finite()
        .max(sequence.depth_range.0);
    EmvsConfig::default()
        .with_depth_range(sequence.depth_range.0, sequence.depth_range.1)
        .with_depth_planes(num_depth_planes)
        .with_keyframe_distance(0.30 * mean_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_events::{DatasetConfig, SequenceKind};

    #[test]
    fn variants_run_the_four_presets() {
        use PipelineVariant::*;
        assert_eq!(OriginalBilinear.options(), EventorOptions::exact());
        assert_eq!(OriginalNearest.options(), EventorOptions::nearest_only());
        assert_eq!(
            QuantizedBilinear.options(),
            EventorOptions::quantized_only()
        );
        assert_eq!(Reformulated.options(), EventorOptions::accelerator());
    }

    #[test]
    fn variant_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            PipelineVariant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), PipelineVariant::ALL.len());
    }

    #[test]
    fn all_variants_run_and_stay_close_on_a_small_sequence() {
        let seq =
            SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
                .unwrap();
        let config = config_for_sequence(&seq, 60);
        let results = run_variants(&seq, &PipelineVariant::ALL, &config).unwrap();
        assert_eq!(results.len(), 4);
        let baseline = results
            .iter()
            .find(|r| r.variant == PipelineVariant::OriginalBilinear)
            .unwrap()
            .metrics
            .abs_rel;
        for r in &results {
            assert!(r.metrics.compared_pixels > 30, "{}: too sparse", r.variant);
            assert!(
                (r.metrics.abs_rel - baseline).abs() < 0.06,
                "{}: {:.4} vs baseline {:.4}",
                r.variant,
                r.metrics.abs_rel,
                baseline
            );
            assert_eq!(r.sequence, "slider_close");
        }
    }

    #[test]
    fn config_for_sequence_uses_sequence_metadata() {
        let seq = SyntheticSequence::generate(SequenceKind::SliderFar, &DatasetConfig::fast_test())
            .unwrap();
        let config = config_for_sequence(&seq, 80);
        assert_eq!(config.num_depth_planes, 80);
        assert_eq!(config.depth_range, seq.depth_range);
        assert!(config.keyframe_distance > 0.3);
    }
}
