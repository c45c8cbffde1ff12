//! Order statistics over latency samples.

/// Sorts samples ascending. Every sample is a measured duration or a
/// rate derived from one, so a NaN here is a harness bug.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile of an ascending slice (the repo's convention:
/// index `round((len - 1) * q)`). NaN for an empty slice, so a metric
/// with no samples fails the finite check instead of reading as zero.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_convention() {
        let s = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!(percentile(&[], 0.99).is_nan());
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
