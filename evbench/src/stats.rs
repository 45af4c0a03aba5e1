//! Order statistics with the benchmark's tail rule.
//!
//! A tail percentile is only meaningful when enough samples lie beyond it:
//! the benchmark reports `p99` only when at least [`MIN_BEYOND`] samples are
//! above it, and otherwise the highest percentile that still has that many
//! samples beyond it (`1 - MIN_BEYOND / n`). The quantile actually used and
//! the sample count travel with every tail figure.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail figure together with the quantile it was taken at and the number
/// of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub quantile: f64,
    pub samples: usize,
}

/// The quantile of `want` that the tail rule allows for `n` samples: `want`
/// itself when at least [`MIN_BEYOND`] samples lie beyond it, else the
/// highest quantile that keeps [`MIN_BEYOND`] samples beyond (never below
/// the median).
pub fn allowed_quantile(want: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = 1.0 - MIN_BEYOND as f64 / n as f64;
    want.min(highest).max(0.5)
}

/// Linear-interpolated quantile of an ascending-sorted slice (`q` in
/// `[0, 1]`); 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Sorts a sample set in place (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of a sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The tail of `samples` at `want` (e.g. `0.99`) under the tail rule.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let mut v = samples.to_vec();
    sort(&mut v);
    let quantile = allowed_quantile(want, v.len());
    Tail {
        value: quantile_sorted(&v, quantile),
        quantile,
        samples: v.len(),
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond() {
        // 1000 samples: 1 % of them (10) lie beyond p99.
        assert_eq!(allowed_quantile(0.99, 1000), 0.99);
        assert_eq!(allowed_quantile(0.99, 5000), 0.99);
    }

    #[test]
    fn p99_falls_back_to_the_highest_quantile_with_ten_beyond() {
        let q = allowed_quantile(0.99, 200);
        assert!((q - 0.95).abs() < 1e-12, "{q}");
        // Count the samples strictly above the reported value.
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        let t = tail(&samples, 0.99);
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} beyond {}", t.value);
        assert_eq!(t.samples, 200);
    }

    #[test]
    fn tiny_sample_sets_never_report_below_the_median() {
        assert_eq!(allowed_quantile(0.99, 12), 0.5);
        assert_eq!(allowed_quantile(0.99, 0), 0.5);
        let t = tail(&[3.0, 1.0, 2.0], 0.99);
        assert_eq!(t.value, 2.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
