//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the harness that gates on
//! this benchmark computes: a spread printed here is the spread it sees.

use crate::json::ObjWriter;

/// The `p`-quantile (0 < p < 1) of ascending `sorted`, exclusive method:
/// position `p·(n+1)` in 1-based ranks, linear interpolation, clamped to
/// the sample range (Python extrapolates past it for n = 2; we do not).
///
/// # Panics
///
/// On an empty slice — every caller has at least one sample.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    let v = sorted[j - 1] + frac * (sorted[j] - sorted[j - 1]);
    v.clamp(sorted[0], sorted[n - 1])
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `samples` (any order).
    ///
    /// # Panics
    ///
    /// On an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        Summary {
            n: s.len(),
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a zero
    /// median, which only an all-zero failure count produces).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `{"n":..,"median":..,"q1":..,"q3":..}`.
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.u64_field("n", self.n as u64)
            .f64_field("median", self.median)
            .f64_field("q1", self.q1)
            .f64_field("q3", self.q3);
        o.finish()
    }
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The `p`-quantile of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    quantile(&s, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
    }

    #[test]
    fn small_samples_stay_inside_their_range() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        let s = Summary::of(&[2.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 5.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
