//! Exact order statistics over per-operation samples.
//!
//! Every percentile the benchmark reports comes from here: the samples
//! are sorted and the nearest-rank element is returned, so no bucketing
//! error enters a reported latency.

/// Nearest-rank percentile summary of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    /// Samples ranked above the percentile's rank.
    pub beyond: usize,
}

/// The `q`-quantile (0 < q <= 1) of `samples` by nearest rank.
pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    if samples.is_empty() {
        return Quantile { value: 0.0, beyond: 0 };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile { value: v[rank - 1], beyond: n - rank }
}

/// Median of `samples` (lower middle element for even counts, so the
/// value is always one that was measured).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).value
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Mean of the slowest `share` of `samples` (at least one sample) and
/// how many samples that is.
pub fn tail_mean(samples: &[f64], share: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (mean(&v[..k]), k)
}

/// `num / den`, or 0 when the denominator is 0.
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
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(median(&v), 500.0);
        assert_eq!(quantile(&[7.0], 0.999).value, 7.0);
        assert_eq!(tail_mean(&v, 0.01), (995.5, 10));
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
