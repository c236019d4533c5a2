//! The fault-injected durability suite: a batch of fresh generated
//! scenarios and a negative test proving the harness actually detects
//! silent corruption. The committed scenarios replay in `adversarial.rs`
//! with the rest of the corpus.

use mf_fuzz::{
    probe_offsets, run, shrink, Clock, Event, Options, Script, Stats, StoreSetup, Subject,
};

/// Freshly generated hostile scenarios hold the durability contract.
#[test]
fn fresh_io_seeds_hold_the_contract() {
    for seed in 0..30u64 {
        let script = Script::generate(seed, Clock::Bytes);
        if let Err(f) = run(&script, Options::default()) {
            let minimal = shrink(&script, |c| run(c, Options::default()).is_err());
            panic!("seed {seed}: {f}\nshrunk:\n{minimal}");
        }
    }
}

/// A scenario whose only fault is a bit flip in a mid-chain acked
/// delta: honestly audited it passes (recovery degrades to the last
/// intact prefix, which the oracle expects), but an oracle that
/// pretends the flip never happened must be caught — proving the
/// harness detects silently corrupted recoveries rather than
/// vacuously passing.
#[test]
fn harness_detects_silent_corruption() {
    let setup = StoreSetup {
        users: 24,
        items: 32,
        k: 6,
        epochs: 5,
        per_epoch: 25,
        new_user_frac: 0.08,
        new_item_frac: 0.04,
        snapshot_every: 10, // all deltas: the chain is load-bearing
    };
    let offsets = probe_offsets(17, &setup);
    let script = Script {
        seed: 17,
        subject: Subject::Lifecycle(setup),
        events: vec![
            // Flip a byte of epoch 2's delta once epoch 3 is writing;
            // then the chain 0 → 1 → 2 → … is severed at 1.
            Event::BitFlip {
                at: offsets[2] + 1,
                file: "delta_epoch_00002.mfckd".to_string(),
                byte: 321,
            },
            // Kill the run mid-way through epoch 5's delta.
            Event::Crash {
                at: offsets[4] + 40,
            },
        ],
    };
    let flip_blind = Options {
        ignore_flips: true,
        ..Options::default()
    };

    let stats = match run(&script, Options::default()) {
        Ok(Stats::Lifecycle(stats)) => stats,
        other => panic!("honest audit must be green: {other:?}"),
    };
    assert!(stats.crashed);
    assert_eq!(
        stats.recovered_epoch,
        Some(1),
        "the flip severs the chain after epoch 1"
    );

    let fail = run(&script, flip_blind).expect_err("a flip-blind oracle must be caught");
    assert!(
        fail.violations
            .iter()
            .any(|v| v.contains("recovered epoch")),
        "wrong violation class: {fail}"
    );

    // Shrinking under the broken oracle keeps both events: the flip
    // causes the divergence, the crash makes epoch 4 acked-but-lost.
    let minimal = shrink(&script, |c| run(c, flip_blind).is_err());
    assert!(
        minimal
            .events
            .iter()
            .any(|e| matches!(e, Event::BitFlip { .. })),
        "shrink dropped the load-bearing flip: {minimal}"
    );
}
