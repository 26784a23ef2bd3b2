//! Order statistics for timing samples: medians, nearest-rank
//! percentiles, window rates and the tail-percentile rule.
//!
//! A tail percentile is only worth reporting when enough samples lie
//! beyond it: next to every metric's sample count the report states the
//! highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
//! samples above it.

use std::collections::BTreeMap;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples a run must collect so the p75 is reportable under the rule
/// (`40 - ceil(0.75 * 40) = 10` beyond it).
pub const MIN_P75_SAMPLES: usize = 40;

/// Nearest-rank index of percentile `q` among `n` sorted samples.
fn rank(n: usize, q: u32) -> usize {
    (q as usize * n).div_ceil(100).max(1) - 1
}

/// Samples strictly beyond percentile `q` of `n` samples (nearest rank).
pub fn beyond(n: usize, q: u32) -> usize {
    n - (rank(n, q) + 1)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank percentile `q` of `samples` (any order).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], q: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q)]
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Median over work windows of `work / wall`: a rate that one burst of
/// host interference shorter than half the run cannot move.
///
/// # Panics
/// Panics on no windows.
pub fn window_rate(work: &[f64], wall_s: &[f64]) -> f64 {
    let rates: Vec<f64> = work.iter().zip(wall_s).map(|(w, t)| w / t).collect();
    median(&rates)
}

/// Sum of `samples` with each sample replaced by the median of its class
/// (`class[i]` is sample `i`'s class): the total of a run of mixed work
/// that a burst of interference covering less than half of each class's
/// samples cannot move.
///
/// # Panics
/// Panics when `class` and `samples` differ in length.
pub fn class_median_total(samples: &[f64], class: &[usize]) -> f64 {
    assert_eq!(samples.len(), class.len(), "one class per sample");
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&x, &c) in samples.iter().zip(class) {
        by_class.entry(c).or_default().push(x);
    }
    by_class
        .values()
        .map(|xs| median(xs) * xs.len() as f64)
        .sum()
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(39), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 1..2000 {
            if let Some(q) = tail_percentile(n) {
                assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
                // No higher rung of the ladder would also qualify.
                for &h in TAIL_LADDER.iter().filter(|&&h| h > q) {
                    assert!(beyond(n, h) < MIN_BEYOND, "n={n}: p{h} also qualifies");
                }
            }
        }
        assert_eq!(tail_percentile(MIN_P75_SAMPLES), Some(75));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 20.0);
        assert_eq!(percentile(&s, 75), 30.0);
        assert_eq!(percentile(&s, 100), 40.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(window_rate(&[4.0, 4.0, 8.0], &[1.0, 4.0, 2.0]), 4.0);
    }

    #[test]
    fn class_medians_ignore_a_burst() {
        let steps = [1.0, 1.0, 100.0, 2.0, 2.0, 2.5];
        assert_eq!(class_median_total(&steps, &[1, 1, 1, 4, 4, 4]), 9.0);
        assert_eq!(class_median_total(&[3.0, 5.0], &[2, 2]), 8.0);
        assert_eq!(class_median_total(&[], &[]), 0.0);
    }
}
