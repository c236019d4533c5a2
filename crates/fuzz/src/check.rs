//! Seeded property checks that shrink.
//!
//! [`check`] runs a property on inputs built by a generator closure from
//! a [`Gen`], which records each draw as an offset from the low end of
//! its range. A failing input shrinks by dropping, zeroing or halving
//! recorded draws and rebuilding it: a missing draw reads as the low end,
//! an oversized one clamps to the top, and draws map to values
//! monotonically, so a smaller record never gives a larger input.

use std::any::Any;
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::SplitMix;

/// Reruns the shrinker may spend on one failing case.
const MAX_RERUNS: usize = 2_000;

/// The draw source handed to a generator: a seeded stream while
/// searching, a recorded draw list while shrinking. Either way every
/// draw it hands out is recorded.
pub struct Gen {
    rng: Option<SplitMix>,
    replay: Vec<u64>,
    draws: Vec<u64>,
}

impl Gen {
    fn new(rng: Option<SplitMix>, replay: &[u64]) -> Gen {
        let (replay, draws) = (replay.to_vec(), Vec::new());
        Gen { rng, replay, draws }
    }

    /// The next draw: an offset in `0..=max`.
    fn draw(&mut self, max: u64) -> u64 {
        let d = match &mut self.rng {
            Some(rng) => rng.next_u64() % (max + 1),
            None => self.replay.get(self.draws.len()).map_or(0, |&d| d.min(max)),
        };
        self.draws.push(d);
        d
    }

    /// A uniform integer in `r`.
    pub fn int<T: Copy + TryInto<i128> + TryFrom<i128>>(&mut self, r: Range<T>) -> T {
        let wide = |x: T| x.try_into().ok().expect("integer types fit in i128");
        let (lo, hi) = (wide(r.start), wide(r.end));
        assert!(lo < hi, "empty range {lo}..{hi}");
        let d = self.draw((hi - lo - 1) as u64);
        T::try_from(lo + d as i128)
            .ok()
            .expect("the offset stays in range")
    }

    /// A uniform `f64` in `r`, on a grid of 2⁵³ steps.
    pub fn f64(&mut self, r: Range<f64>) -> f64 {
        assert!(r.start < r.end, "empty range {r:?}");
        let unit = self.draw((1 << 53) - 1) as f64 / (1u64 << 53) as f64;
        // Rounding can land on `end`; the top step stays inside.
        (r.start + unit * (r.end - r.start)).min(r.end.next_down())
    }

    /// A uniform `f32` in `r`, drawn as an `f64` and rounded.
    pub fn f32(&mut self, r: Range<f32>) -> f32 {
        (self.f64(r.start as f64..r.end as f64) as f32).min(r.end.next_down())
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.draw(1) == 1
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Runs `prop`, which fails by panicking (std `assert!`s), on `cases`
/// inputs drawn by `gen` from streams seeded by `seed` and the case
/// index. The first failing input is shrunk, and `check` panics with the
/// seed, the case, the shrunk input and the property's message for it.
pub fn check<T: Debug>(
    cases: u32,
    seed: u64,
    mut gen: impl FnMut(&mut Gen) -> T,
    mut prop: impl FnMut(T),
) {
    // One run: the draws its input took, and its message if it failed.
    let mut run = |mut g: Gen| {
        let input = gen(&mut g);
        (g.draws, failure(|| prop(input)))
    };
    for case in 0..cases {
        let stream = SplitMix::new(seed ^ u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if let (draws, Some(_)) = run(Gen::new(Some(stream), &[])) {
            let mut reruns = 0;
            let draws = shrink(draws, &mut |cand| {
                reruns += 1;
                let (used, failed) = run(Gen::new(None, cand));
                failed.map(|_| used)
            });
            let msg = run(Gen::new(None, &draws)).1;
            let input = gen(&mut Gen::new(None, &draws));
            panic!(
                "property failed: seed {seed:#x}, case {case}, shrunk in {reruns} reruns\n\
                 input: {input:?}\n{}",
                msg.expect("the shrunk input still fails")
            );
        }
    }
}

/// Greedy shrink of a failing draw record within [`MAX_RERUNS`] reruns.
/// `rerun` answers a candidate that still fails with the draws it took.
fn shrink(mut cur: Vec<u64>, rerun: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>) -> Vec<u64> {
    let mut budget = MAX_RERUNS;
    let mut attempt = |cand: &[u64]| {
        budget = budget.checked_sub(1)?;
        rerun(cand)
    };
    loop {
        let before = cur.clone();
        cur = drop_one(cur, |cand| attempt(cand).is_some());
        let mut i = 0;
        while i < cur.len() {
            let d = cur[i];
            let mut cand = cur.clone();
            let edits = std::iter::once(0).chain((d > 1).then_some(d / 2));
            match edits.filter(|&e| e < d).find_map(|e| {
                cand[i] = e;
                attempt(&cand)
            }) {
                Some(used) => cur = used,
                None => i += 1,
            }
        }
        if cur == before {
            return cur;
        }
    }
}

/// Drops entries of `items` one at a time, keeping each drop after which
/// `still_fails` holds, to a fixpoint where every entry left is needed
/// for the failure. The shrink step of every minimiser in this crate.
pub fn drop_one<T: Clone>(mut items: Vec<T>, mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    loop {
        let before = items.len();
        let mut i = 0;
        while i < items.len() {
            let mut cand = items.clone();
            cand.remove(i);
            if still_fails(&cand) {
                items = cand;
            } else {
                i += 1;
            }
        }
        if items.len() == before {
            return items;
        }
    }
}

thread_local! {
    /// Set while this thread runs a property: its panics are caught and
    /// reported by [`check`], not printed one per shrink step.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, returning its panic message if it panics.
fn failure(f: impl FnOnce()) -> Option<String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                print(info)
            }
        }));
    });
    let was_quiet = QUIET.replace(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.set(was_quiet);
    outcome.err().map(|payload| panic_message(&*payload))
}

/// The message a panic was raised with.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    let msg = payload.downcast_ref::<String>().cloned();
    let msg = msg.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    msg.unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cases() {
        let cases = |seed| {
            let mut seen = Vec::new();
            let input = |g: &mut Gen| (g.int(0u64..u64::MAX), g.vec(0..9, Gen::bool));
            check(32, seed, input, |x| seen.push(format!("{x:?}")));
            seen
        };
        assert_eq!(cases(7), cases(7));
        assert_ne!(cases(7), cases(8));
    }

    #[test]
    fn draws_stay_in_range() {
        let input = |g: &mut Gen| (g.int(-3i32..4), g.f32(-2.5..2.5), g.f64(1e-9..2e-9));
        check(512, 1, input, |(i, f, d)| {
            assert!((-3..4).contains(&i) && (-2.5..2.5).contains(&f));
            assert!((1e-9..2e-9).contains(&d));
        });
    }

    #[test]
    fn a_missing_draw_reads_as_the_low_end() {
        let mut g = Gen::new(None, &[u64::MAX]);
        assert_eq!(g.int(10u8..20), 19, "an oversized draw clamps to the top");
        assert_eq!(g.int(10u8..20), 10);
        assert_eq!(g.f32(-4.0..4.0), -4.0);
        assert!(g.vec(3..9, Gen::bool).iter().all(|&b| !b));
    }

    #[test]
    fn failures_shrink_to_a_minimal_input() {
        let input = |g: &mut Gen| g.vec(0..100, |g| g.int(0u32..1000));
        let msg = failure(|| {
            check(256, 0x5eed, input, |v| {
                assert!(v.iter().all(|&x| x < 10), "element >= 10 in {v:?}")
            })
        })
        .expect("the planted property fails");
        assert!(msg.contains("seed 0x5eed, case "), "{msg}");
        let input = msg.lines().find_map(|l| l.strip_prefix("input: ")).unwrap();
        let shrunk: Vec<u32> = input
            .trim_matches(['[', ']'])
            .split(", ")
            .map(|x| x.parse().unwrap())
            .collect();
        assert!(shrunk.len() == 1 && (10..20).contains(&shrunk[0]), "{msg}");
        assert!(msg.ends_with(&format!("element >= 10 in {input}")), "{msg}");
    }

    #[test]
    fn drop_one_keeps_only_what_the_failure_needs() {
        let needed = |v: &[u32]| v.contains(&3) && v.contains(&7);
        assert_eq!(drop_one((0..10).collect(), needed), vec![3, 7]);
    }
}
