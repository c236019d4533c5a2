//! Property tests for the equal-weight band cutter that every grid layout
//! depends on: validity, exact coverage, no empty bands when avoidable,
//! and bounded band-weight imbalance.

use mf_fuzz::{check, Gen};
use mf_sparse::balanced_cuts;

#[test]
fn cuts_are_valid_and_cover() {
    let input = |g: &mut Gen| (g.vec(1..200, |g| g.int(0u32..1000)), g.int(1u32..20));
    check(256, 1, input, |(weights, bands)| {
        let cuts = balanced_cuts(&weights, bands);
        assert_eq!(cuts.len(), bands as usize + 1);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), weights.len() as u32);
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1], "cuts must be monotone: {cuts:?}");
        }
    });
}

#[test]
fn no_empty_bands_when_dim_allows() {
    let input = |g: &mut Gen| {
        // At least as many weights as bands, by construction.
        let bands = g.int(1u32..20);
        (g.vec(bands as usize..200, |g| g.int(1u32..1000)), bands)
    };
    check(256, 2, input, |(weights, bands)| {
        let cuts = balanced_cuts(&weights, bands);
        for w in cuts.windows(2) {
            assert!(w[1] > w[0], "empty band in {cuts:?}");
        }
    });
}

#[test]
fn band_weight_excess_bounded_by_heaviest_item() {
    let input = |g: &mut Gen| {
        // At least two weights per band and a positive total, by
        // construction: one drawn slot is forced nonzero.
        let bands = g.int(2u32..16);
        let mut weights = g.vec(2 * bands as usize..200, |g| g.int(0u32..1000));
        let nonzero = g.int(0..weights.len());
        weights[nonzero] = g.int(1u32..1000);
        (weights, bands)
    };
    check(256, 3, input, |(weights, bands)| {
        let cuts = balanced_cuts(&weights, bands);
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let ideal = total as f64 / bands as f64;
        let heaviest = *weights.iter().max().unwrap() as f64;
        for w in cuts.windows(2) {
            let band: u64 = weights[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&x| x as u64)
                .sum();
            // Greedy cutting can overshoot the ideal share by at most
            // one item's weight (plus strictness adjustments worth one
            // item).
            let (lo, hi) = (w[0], w[1]);
            assert!(
                band as f64 <= ideal + 2.0 * heaviest + 1.0,
                "band {lo}..{hi} holds {band} vs ideal {ideal:.1} (heaviest {heaviest})"
            );
        }
    });
}

#[test]
fn uniform_weights_give_near_uniform_bands() {
    // Every band count below 10 fits in a length of at least 10.
    let input = |g: &mut Gen| (g.int(10usize..200), g.int(1u32..10));
    check(256, 4, input, |(len, bands)| {
        let weights = vec![7u32; len];
        let cuts = balanced_cuts(&weights, bands);
        let sizes: Vec<u32> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "uniform weights should split evenly: {sizes:?}"
        );
    });
}
