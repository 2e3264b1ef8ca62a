//! Order statistics and the difference quotient the metrics are built from.

/// Median of `values` (mean of the two middle values for an even count).
/// NaN when there are no values, which marks the metric, and with it the
/// result, as not measured.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    quantile(values, 0.5)
}

/// The first and third quartiles of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here matches one computed from the result lines
/// with Python's `statistics` module.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let ld = s.len();
    let m = ld + 1;
    // Python's exclusive method, integer arithmetic included: j is the
    // 1-based order statistic left of position i*m/4, clamped to the
    // sample, and delta/4 the weight of its right neighbour (negative or
    // above 1 when the clamp extrapolates, as Python does).
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Steady-state cost per unit of work from a short and a long run:
/// `(t_long - t_short) / (n_long - n_short)`. Fixed costs common to both
/// runs (set-up, first touch of buffers) cancel.
pub fn difference_quotient(n_short: u64, t_short: f64, n_long: u64, t_long: f64) -> f64 {
    assert!(n_long > n_short, "the long run must do more work");
    (t_long - t_short) / (n_long - n_short) as f64
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(values.iter().all(|v| !v.is_nan()), "NaN measurement");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn difference_quotient_cancels_fixed_cost() {
        // 0.5 s of set-up plus 0.1 s per iteration.
        let t = |n: u64| 0.5 + 0.1 * n as f64;
        let q = difference_quotient(2, t(2), 12, t(12));
        assert!((q - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more work")]
    fn difference_quotient_rejects_equal_counts() {
        difference_quotient(3, 1.0, 3, 1.0);
    }
}
