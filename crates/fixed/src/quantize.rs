//! Quantization error analysis helpers used by the Table 1 / Fig. 4b
//! experiments.

use crate::fix::{Fix, FixedStorage};

/// Summary statistics of the error introduced by quantizing a set of values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantizationReport {
    /// Number of samples analysed.
    pub count: usize,
    /// Mean absolute error.
    pub mean_abs_error: f64,
    /// Maximum absolute error.
    pub max_abs_error: f64,
    /// Root-mean-square error.
    pub rms_error: f64,
    /// Fraction of samples that saturated.
    pub saturation_rate: f64,
}

/// Quantizes every value through format `Fix<S, FRAC>` and reports the error.
pub fn analyze<S: FixedStorage, const FRAC: u32>(values: &[f64]) -> QuantizationReport {
    if values.is_empty() {
        return QuantizationReport::default();
    }
    let mut sum_abs = 0.0;
    let mut max_abs: f64 = 0.0;
    let mut sum_sq = 0.0;
    let mut saturated = 0usize;
    for &v in values {
        let q = Fix::<S, FRAC>::from_f64(v);
        let err = (q.to_f64() - v).abs();
        sum_abs += err;
        sum_sq += err * err;
        max_abs = max_abs.max(err);
        if q.is_saturated() {
            saturated += 1;
        }
    }
    let n = values.len() as f64;
    QuantizationReport {
        count: values.len(),
        mean_abs_error: sum_abs / n,
        max_abs_error: max_abs,
        rms_error: (sum_sq / n).sqrt(),
        saturation_rate: saturated as f64 / n,
    }
}

/// Quantizes a value through format `Fix<S, FRAC>` and returns the
/// reconstructed `f64` — a "round trip through the hardware datapath".
pub fn round_trip<S: FixedStorage, const FRAC: u32>(v: f64) -> f64 {
    Fix::<S, FRAC>::from_f64(v).to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_gives_default_report() {
        let r = analyze::<i16, 7>(&[]);
        assert_eq!(r.count, 0);
        assert_eq!(r.mean_abs_error, 0.0);
    }

    #[test]
    fn error_bounded_by_half_lsb_when_in_range() {
        let values: Vec<f64> = (0..500).map(|i| i as f64 * 0.377 - 90.0).collect();
        let r = analyze::<i16, 7>(&values);
        assert_eq!(r.count, 500);
        assert!(r.max_abs_error <= 0.5 / 128.0 + 1e-12);
        assert!(r.mean_abs_error <= r.max_abs_error);
        assert!(r.rms_error <= r.max_abs_error);
        assert_eq!(r.saturation_rate, 0.0);
    }

    #[test]
    fn saturation_detected() {
        let values = [1000.0, -1000.0, 1.0];
        let r = analyze::<i16, 7>(&values);
        assert!((r.saturation_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!(r.max_abs_error > 100.0);
    }

    #[test]
    fn high_precision_format_has_tiny_error() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.01).sin() * 2.0).collect();
        let r = analyze::<i32, 21>(&values);
        assert!(r.max_abs_error < 1e-6);
    }

    #[test]
    fn round_trip_is_idempotent() {
        let v = 12.3456789;
        let once = round_trip::<i32, 21>(v);
        let twice = round_trip::<i32, 21>(once);
        assert_eq!(once, twice);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn q9_7_error_bounded(v in -255.0..255.0f64) {
            let err = (round_trip::<i16, 7>(v) - v).abs();
            prop_assert!(err <= 0.5 / 128.0 + 1e-12);
        }

        #[test]
        fn q11_21_error_bounded(v in -1023.0..1023.0f64) {
            let err = (round_trip::<i32, 21>(v) - v).abs();
            prop_assert!(err <= 0.5 / (1u64 << 21) as f64 + 1e-12);
        }

        #[test]
        fn quantization_is_monotonic(a in -250.0..250.0f64, b in -250.0..250.0f64) {
            let qa = Fix::<i16, 7>::from_f64(a).raw();
            let qb = Fix::<i16, 7>::from_f64(b).raw();
            if a <= b {
                prop_assert!(qa <= qb);
            } else {
                prop_assert!(qa >= qb);
            }
        }
    }
}
