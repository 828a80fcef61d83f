//! Order statistics over per-operation samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The latency tail: the highest of p99, p90 and p50 (nearest rank) with
/// at least ten samples beyond it, labelled by that percentile. The
/// candidates are far apart so that runs of one workload, whose sample
/// counts differ a little, report the same percentile. With too few
/// samples for any of them the tail is the maximum, labelled `max`.
pub fn tail(values: &[f64]) -> (String, f64) {
    let v = sorted(values);
    let n = v.len();
    for p in [99usize, 90, 50] {
        // nearest rank: the smallest index covering p% of the samples
        let rank = (p * n).div_ceil(100).max(1);
        if n >= rank + 10 {
            return (format!("p{p}"), v[rank - 1]);
        }
    }
    ("max".to_string(), v.last().copied().unwrap_or(0.0))
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&v), ("p90".to_string(), 270.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), ("p90".to_string(), 90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), ("p50".to_string(), 20.0));
        assert_eq!(tail(&[5.0, 7.0, 6.0]), ("max".to_string(), 7.0));
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[0.4, 0.4, 0.4]) - 0.4).abs() < 1e-12);
    }
}
