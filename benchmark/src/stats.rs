//! Order statistics of rep times.
//!
//! The work of a rep is deterministic, so every difference between two reps
//! is interference the host added, and the **minimum** is the estimate of the
//! program's own cost. The other quantiles are reported for information:
//! `(p10 − min) / min` says how noisy the host was.

/// Summary of one workload's rep times, in the unit of the input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Smallest value — the estimator every gated metric uses.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation between
/// closest ranks.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `values` (any order).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("rep times are never NaN"));
    Summary {
        n: sorted.len(),
        min: sorted[0],
        p10: quantile(&sorted, 0.10),
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.50),
        q3: quantile(&sorted, 0.75),
    }
}

impl Summary {
    /// `(p10 − min) / min`: how far the low end of the distribution sits
    /// above its floor.
    pub fn floor_spread(&self) -> f64 {
        (self.p10 - self.min) / self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_is_order_independent_and_min_based() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0, 11.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.n, s.min, s.median), (11, 1.0, 6.0));
        assert_eq!((s.p10, s.q1, s.q3), (2.0, 3.5, 8.5));
        assert!((s.floor_spread() - 1.0).abs() < 1e-12);
    }
}
