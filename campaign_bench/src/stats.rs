//! Order statistics for timings: medians, interpolated quantiles, and
//! the tail percentile a sample count can support.

use std::fmt;

/// Standard tail percentiles, in per-mille, lowest first.
const TAIL_PERMILLE: [u32; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending (total order, so NaN cannot panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice
/// (the `statistics.quantiles(method="inclusive")` convention). Empty
/// input gives NaN.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `xs`; NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// The highest standard percentile (in per-mille) that leaves at least
/// ten of `n` samples beyond it, or `None` when `n` is too small for
/// any — the rule for which tail a timing may honestly report.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_PERMILLE.iter().rev().copied().find(|&p| n * (1000 - p as usize) >= MIN_BEYOND * 1000)
}

/// A timing reported as its median plus the highest supportable tail
/// percentile, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median value.
    pub median: f64,
    /// `(per-mille, value)` of the reported tail percentile.
    pub tail: Option<(u32, f64)>,
}

impl Timing {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let s = sorted(xs);
        let tail = tail_permille(s.len()).map(|p| (p, quantile_sorted(&s, p as f64 / 1000.0)));
        Timing { n: s.len(), median: quantile_sorted(&s, 0.5), tail }
    }

    /// The tail value, or the median when the count supports no tail.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median {}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{} {v}", p as f64 / 10.0)?;
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn timing_reports_tail_only_when_supported() {
        let few: Vec<f64> = (0..15).map(f64::from).collect();
        let t = Timing::of(&few);
        assert_eq!((t.n, t.median, t.tail), (15, 7.0, None));
        assert_eq!(t.tail_or_median(), 7.0);

        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = Timing::of(&many);
        let (p, v) = t.tail.expect("1000 samples support p99");
        assert_eq!(p, 990);
        assert!((v - 989.01).abs() < 1e-9, "{v}");
        assert!(t.to_string().contains("p99 ") && t.to_string().contains("n=1000"));
    }
}
