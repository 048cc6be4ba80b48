//! Order statistics over run samples.

/// The values sorted ascending. Samples are measured times and counts,
/// never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartiles by the exclusive method, the
/// default of Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative at the ends of short samples: Python extrapolates
        // past the extremes there, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance over the median: the run-to-run spread the
/// bounds in `BENCHMARK.json` are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at p90, as `(percentile, value)`; `None` with fewer than
/// twenty samples, where no such percentile reaches the median.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 20 {
        return None;
    }
    // Nearest rank of p90, then stepped down until ten samples remain
    // above it.
    let p90 = (9 * n).div_ceil(10) - 1;
    let index = p90.min(n - 11);
    Some((100.0 * (index + 1) as f64 / n as f64, v[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 6]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 is rank 90 with exactly ten above.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        // 20 samples: p90 would leave two above, so step down to p50.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 19 samples: nothing at or above the median has ten beyond it.
        let nineteen: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(tail(&nineteen), None);
        // 200 samples: p90 itself qualifies.
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&many), Some((90.0, 180.0)));
    }
}
