//! Order statistics used by every metric: median, quartiles (the same
//! interpolation as Python's `statistics.quantiles(values, n=4)`) and the
//! geometric mean.

/// Median of `values`; `None` when empty. Even lengths average the two
/// middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values` by the "exclusive" method, which
/// is the default of Python's `statistics.quantiles(values, n=4)`: with
/// `m = len + 1`, quartile `i` interpolates between the order statistics
/// around position `i·m/4`. A single value is its own quartiles; `None`
/// when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile range as a share of the median (the noise measure the
/// bounds are checked against); 0 for a constant or empty sample.
pub fn relative_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(med)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Geometric mean of strictly positive `values`; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_spread(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn geomean_of_known_vectors() {
        assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
        assert!(close(geomean(&[5.0]).unwrap(), 5.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }
}
