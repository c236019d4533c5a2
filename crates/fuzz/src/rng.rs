//! The harness's own splitmix64 stream — deliberately independent of the
//! vendored `rand` so a corpus script's behaviour is pinned by this
//! crate alone.

use hsgd_core::scheduler::Task;
use mf_sparse::hash::splitmix64;

use crate::script::Latency;

/// Deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)` (53-bit mantissa).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// A heavy-tailed (bounded Pareto) multiplicative latency factor in
/// `[1, cap]`, derived from a hash `h`: `(1 − u)^{−1/α}` for uniform `u`.
/// Small `α` (≈1) gives frequent large stragglers; large `α` concentrates
/// near 1. This is the adversarial stand-in for the benign ±5% jitter the
/// production devices model.
pub fn pareto_factor(h: u64, alpha: f64, cap: f64) -> f64 {
    let u = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
    (1.0 - u).powf(-1.0 / alpha.max(0.1)).min(cap.max(1.0))
}

/// One seat's [`pareto_factor`] for `task`, keyed by `(salt, first
/// block, pass)`, so a replay draws the same stretch whatever order the
/// tasks run in.
pub fn task_stretch(latency: Latency, salt: u64, task: &Task) -> f64 {
    let b = task.blocks[0];
    let h = splitmix64(
        ((b.row as u64) << 40) ^ ((b.col as u64) << 20) ^ (task.pass as u64) ^ salt.rotate_left(17),
    );
    pareto_factor(h, latency.alpha, latency.cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SplitMix::new(3);
        for _ in 0..1000 {
            let v = r.range(2, 5);
            assert!((2..=5).contains(&v));
            let f = r.range_f64(0.5, 1.5);
            assert!((0.5..1.5).contains(&f));
        }
    }

    #[test]
    fn pareto_factor_is_bounded_and_heavy_tailed() {
        let mut big = 0usize;
        for h in 0..10_000u64 {
            let f = pareto_factor(h, 1.3, 16.0);
            assert!((1.0..=16.0).contains(&f), "factor {f}");
            if f > 4.0 {
                big += 1;
            }
        }
        // The tail actually occurs: a few percent of draws are > 4x.
        assert!(big > 50, "only {big} straggler draws in 10k");
    }

    #[test]
    fn task_stretch_is_deterministic_and_bounded() {
        let latency = Latency {
            alpha: 1.3,
            cap: 8.0,
        };
        let task = Task {
            blocks: vec![mf_sparse::BlockId::new(0, 0)],
            points: 2,
            p_rows: 0..4,
            q_cols: 0..2,
            pass: 0,
            stolen: false,
        };
        let a = task_stretch(latency, 7, &task);
        assert_eq!(a, task_stretch(latency, 7, &task), "same salt must replay");
        assert!((1.0..=8.0).contains(&a), "stretch out of bounds: {a}");
    }
}
