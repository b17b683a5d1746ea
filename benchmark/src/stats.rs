//! Order statistics the benchmark reports: nearest-rank percentiles within
//! a segment, and the median and quartile spread across segments.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (all values are finite timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0.0 when empty so an absent layer reads as "not applicable".
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median —
/// the spread `compare` holds against a metric's bound. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the acceptance driver computes over its runs.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(3) - quartile(1)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 120 samples: p90 is the 108th smallest.
        let w: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), Some(108.0));
    }

    #[test]
    fn median_of_segments_ignores_a_short_stall() {
        // Seven quiet segments and three caught in a stall: the median
        // stays on the quiet level, the mean would not.
        let segments = [1.0, 1.02, 0.99, 2.1, 2.0, 1.01, 1.9, 1.0, 0.98, 1.03];
        assert!((median(&segments) - 1.015).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        assert!((iqr_share(&[10.0, 12.0, 11.0, 13.0, 50.0]) - 21.0 / 12.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0]), 0.0);
    }
}
