//! Order statistics with the sample-count rule: a tail percentile is
//! reported only when at least ten observations lie beyond it, so a p99
//! needs 1000 samples. A median needs one.

/// Observations that must lie beyond a tail percentile before it is
/// reported.
const BEYOND: usize = 10;

/// The fewest samples that support the `pct`-th percentile.
pub fn min_samples(pct: u32) -> usize {
    assert!((1..100).contains(&pct), "percentile {pct} out of 1..=99");
    if pct <= 50 {
        return 1;
    }
    let above = (100 - pct) as usize;
    (BEYOND * 100).div_ceil(above)
}

/// The nearest-rank `pct`-th percentile of `values` (any order), or
/// `None` when too few samples support it.
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    if values.len() < min_samples(pct) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank.max(1) - 1])
}

/// First quartile, median and third quartile, by the same "exclusive"
/// interpolation as Python's `statistics.quantiles(values, n=4)`.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => None,
        1 => Some((d[0], d[0], d[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// Mean, or `None` for no values.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 1);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), None, "999 samples cannot carry a p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
        assert_eq!(percentile(&v, 50), Some(500.0));
        assert_eq!(percentile(&v[..99], 90), None);
        assert_eq!(percentile(&v[..100], 90), Some(90.0));
        assert_eq!(percentile(&v[..3], 50), Some(2.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&v, 99);
        v.reverse();
        assert_eq!(a, percentile(&v, 99));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
