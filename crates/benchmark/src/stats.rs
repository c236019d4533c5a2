//! Order statistics over in-process repetitions.
//!
//! The reference box is a shared microVM whose speed alternates between
//! two modes up to 1.9x apart, each lasting seconds (contention from the
//! host, not from this process). A median over a ten-second window flips
//! with whichever mode filled more of it; the *best* repetition — the
//! minimum of a time, the maximum of a rate — is the one statistic that
//! repeats, because interference only ever slows a repetition down. So
//! every repeated measurement is reported as its best sample, with
//! median, quartiles and count printed beside it.

use std::fmt;

/// Which end of a sample set is its best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times: the smallest sample.
    Lower,
    /// Rates: the largest sample.
    Higher,
}

/// The noise of a repeated measurement, printed beside its best sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.6}, q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {}",
            self.median, self.q1, self.q3, self.min, self.max, self.n
        )
    }
}

/// The `q`-quantile (linear interpolation between order statistics) of
/// an ascending slice; 0 for an empty one.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Summarizes `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        min: s.first().copied().unwrap_or(0.0),
        max: s.last().copied().unwrap_or(0.0),
        n: s.len(),
    }
}

impl Summary {
    /// The best sample.
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Smallest of `samples` (0 when empty): the best repetition of a time.
pub fn fastest(samples: &[f64]) -> f64 {
    summarize(samples).min
}

/// The `q`-quantile of `samples` by nearest rank (an observed value,
/// never an interpolation — what a latency percentile should be).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n => s[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_percentiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.min, s.n), (3.0, 2.0, 4.0, 1.0, 5));
        assert_eq!((s.best(Better::Lower), s.best(Better::Higher)), (1.0, 5.0));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
