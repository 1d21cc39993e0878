//! Robust estimators over small sample sets.
//!
//! Every number the ledger reports is one of these applied to samples
//! taken across the whole run (one per round, pass, window or request),
//! never a single timing: on the 2-vCPU sandbox a single-thread spin
//! loop swings ±20 % between half-second slices, so one slice is not a
//! measurement.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics — the same rule as Python's
/// `statistics.quantiles(method="inclusive")`.
///
/// # Panics
/// On an empty slice: every caller owns a non-empty sample set, and an
/// empty one is a broken run, not a value to report.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The 25th percentile. Used across windows for tail metrics: a stall
/// that lands in one window inflates that window's p99, and the lower
/// quartile of the per-window p99s ignores up to three quarters of such
/// windows (`deadline_ok_share` is where those stalls are counted).
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample set");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The fastest sample. Everything else that runs on the box can only
/// add time to a pass, a launch or a window, never take any away, so
/// the fastest of many repetitions of the same work estimates the
/// undisturbed time, and it repeats between runs several times better
/// than their median does (NOISE.md has the comparison).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// [`min`] for rates.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// p75 ÷ p25: the spread witness printed beside the calibration spin.
pub fn quartile_ratio(samples: &[f64]) -> f64 {
    quantile(samples, 0.75) / quantile(samples, 0.25)
}

/// Median and p99 of one window's latencies.
pub fn window_p50_p99(latencies_us: &[f64]) -> (f64, f64) {
    (quantile(latencies_us, 0.50), quantile(latencies_us, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_series() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&s), 3.0);
        assert_eq!(lower_quartile(&s), 2.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        // Interpolates between order statistics and ignores input order.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_ignores_a_minority_of_stalled_windows() {
        // Eight windows with a p99 near 4 ms, two hit by a 40 ms stall.
        let p99s = [4.0, 4.1, 3.9, 40.0, 4.0, 4.2, 3.8, 41.0, 4.1, 4.0];
        assert!(lower_quartile(&p99s) < 4.05);
        assert!(mean(&p99s) > 10.0, "the mean is what the stall would have moved");
    }

    #[test]
    fn window_percentiles_have_ten_samples_beyond_p99() {
        let lat: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p50, p99) = window_p50_p99(&lat);
        assert_eq!(p50, 499.5);
        assert!((p99 - 989.01).abs() < 1e-9);
        assert_eq!(lat.iter().filter(|&&v| v > p99).count(), 10);
    }

    #[test]
    fn spread_witness_and_min() {
        assert_eq!(quartile_ratio(&[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(quartile_ratio(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(max(&[3.0, 1.5, 2.0]), 3.0);
    }
}
