//! Order statistics and answer-quality arithmetic.

use std::collections::BTreeSet;
use std::time::Duration;

/// The nearest-rank quantile of `values`: the smallest sample with at least a
/// `q` share of the samples at or below it, so the result is always a measured
/// value. `None` for no samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`quantile`] at one half.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Durations in milliseconds, for the quantile helpers.
pub fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Share of the `exact` answer set found in the `served` answer set; 1 when
/// the exact answer is empty (nothing could be missed).
pub fn overlap(served: &[(String, String)], exact: &[(String, String)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let served: BTreeSet<&(String, String)> = served.iter().collect();
    let hits = exact.iter().filter(|id| served.contains(id)).count();
    hits as f64 / exact.len() as f64
}

/// The mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_return_samples() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), Some(50.0));
        assert_eq!(quantile(&values, 0.95), Some(95.0));
        assert_eq!(quantile(&values, 1.0), Some(100.0));
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.5], 0.95), Some(7.5));
    }

    #[test]
    fn millis_converts_durations() {
        let ms = millis(&[Duration::from_micros(1500), Duration::from_secs(2)]);
        assert_eq!(ms, vec![1.5, 2000.0]);
    }

    #[test]
    fn overlap_counts_exact_members_found() {
        let id = |t: &str, c: &str| (t.to_string(), c.to_string());
        let exact = vec![id("a", "x"), id("b", "x"), id("c", "y"), id("d", "z")];
        let served = vec![id("b", "x"), id("a", "x"), id("e", "x"), id("c", "z")];
        assert_eq!(overlap(&served, &exact), 0.5);
        assert_eq!(overlap(&served, &[]), 1.0);
        assert_eq!(overlap(&[], &exact), 0.0);
        assert_eq!(overlap(&exact, &exact), 1.0);
    }

    #[test]
    fn mean_and_ratio_guard_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
