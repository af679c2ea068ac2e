//! Order statistics for timing samples.

/// The values sorted ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// a spread read here matches one computed from the JSON by that rule.
/// A single value is its own quartiles; empty input gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, with its value: with 120 samples that is
/// p90 (12 beyond), with 1000 it is p99. `None` below 20 samples, where
/// even the median has fewer than ten above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(values, p)))
}

/// Smallest and largest value; zeros when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    (v.first().copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert!((percentile(&v, 95.0) - 9.5).abs() < 1e-12);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let of = |n: usize| tail(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).map(|t| t.0);
        assert_eq!(of(120), Some(90.0)); // 12 beyond p90, 6 beyond p95
        assert_eq!(of(200), Some(95.0)); // exactly 10 beyond p95
        assert_eq!(of(199), Some(90.0));
        assert_eq!(of(1000), Some(99.0));
        assert_eq!(of(40), Some(75.0));
        assert_eq!(of(20), Some(50.0));
        assert_eq!(of(19), None);
    }

    #[test]
    fn min_max_of_unsorted_values() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }
}
