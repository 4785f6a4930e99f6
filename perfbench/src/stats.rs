//! Estimators over repeated units of work.
//!
//! The CPU of a shared host runs up to ~50% slower in phases that last
//! seconds, so a whole-run mean or median moves between runs of the same
//! code. Every timing metric is therefore built from many identical units
//! (synthesis chunks, training epochs, serving windows) and summarised
//! with a low-order statistic, which the slow phases rarely reach.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The unit-time estimator: the fastest of identical units. A unit can
/// be slowed by the host but not sped up, so the minimum is the unit's
/// cost with the least interference.
pub fn low(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "estimate over no units");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The window estimator for sub-millisecond operations: the lower
/// quartile of per-window values. Such operations repeat thousands of
/// times, so the very fastest window catches rare uncontended moments;
/// the lower quartile is steadier between runs.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Nearest-rank `p`-th percentile, reported only when at least ten
/// samples lie strictly beyond it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let value = v[rank.min(v.len()) - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= 10).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn low_is_the_fastest_unit() {
        assert_eq!(low(&[3.0, 1.5, 2.0]), 1.5);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(low(&v), 1.0);
    }

    #[test]
    fn low_ignores_a_slow_phase() {
        // A third of the units run 50% slower: the estimator stays on the
        // fast units, the median does not.
        let mut v = vec![1.0; 20];
        v.extend(vec![1.5; 10]);
        assert_eq!(low(&v), 1.0);
        assert!(median(&v) >= 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None); // 9 samples beyond p99
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_counts_ties_as_not_beyond() {
        let mut v = vec![1.0; 995];
        v.extend(vec![2.0; 5]);
        assert_eq!(percentile(&v, 50.0), None);
    }
}
