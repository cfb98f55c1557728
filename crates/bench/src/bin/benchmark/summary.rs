//! Order statistics for timing samples.
//!
//! A percentile is reportable only when at least ten samples lie beyond
//! it; with fewer, only the median is named (min/max stay in the result
//! file as plain fields, never as metrics).

/// Samples that must lie beyond a percentile before it may be reported.
pub const BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1) - 1
}

/// Nearest-rank percentile `p`, or `None` when fewer than [`BEYOND`]
/// samples lie beyond it.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - (rank(n, p) + 1) < BEYOND {
        return None;
    }
    Some(sorted(values)[rank(n, p)])
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
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th: exactly ten lie beyond it.
        assert_eq!(percentile(&v, 90), Some(90.0));
        // p99 would leave one sample beyond; p91 leaves nine.
        assert_eq!(percentile(&v, 99), None);
        assert_eq!(percentile(&v, 91), None);
        assert_eq!(percentile(&v[..99], 90), None);
        assert_eq!(percentile(&v[..20], 50), Some(10.0));
        assert_eq!(percentile(&v[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn p99_is_reportable_from_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
    }
}
