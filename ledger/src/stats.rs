//! Order statistics for the reported numbers: medians, nearest-rank
//! percentiles and the "ten samples beyond" rule that says which
//! percentile a sample can support.

/// A percentile is only reported as a tail figure when at least this
/// many samples lie strictly beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the two middle samples for an even count). Panics on
/// an empty sample: every reported median has at least one measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let s = sorted(samples);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile as a
/// tail: at least [`MIN_BEYOND`] of them lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// By what share of `base` the value `new` is worse, for a metric where
/// lower (`lower_is_better`) or higher is better; negative = improved.
pub fn worse_by(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        new - base
    } else {
        base - new
    };
    delta / base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // Few samples: the tail percentile degrades to the maximum.
        assert_eq!(percentile(&[7.0, 9.0, 8.0], 90.0), 9.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples sits at rank 90: exactly ten lie beyond.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        // The issue's sizing: >= 180 pooled epochs leave >= 10 beyond p90.
        assert!(samples_beyond(180, 90.0) >= MIN_BEYOND);
        // p99 needs a thousand.
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, false) - 0.20).abs() < 1e-12);
    }
}
