//! End-to-end adversarial runs: generated seeds and the committed
//! regression corpus, replayed through both execution worlds.

use mf_fuzz::{replay_corpus, run, shrink, Clock, Event, Options, Script, Stats};

/// Pinned seeds exercised in both worlds on every test run. The
/// `fuzz_smoke` bench binary covers a much wider random batch.
const PINNED_SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

#[test]
fn pinned_seeds_hold_invariants_in_both_worlds() {
    for &seed in &PINNED_SEEDS {
        let script = Script::generate(seed, Clock::Passes);
        if let Err(f) = run(&script, Options::default()) {
            panic!("seed {seed} violated invariants:\n{f}script:\n{script}");
        }
    }
}

#[test]
fn fresh_seed_batch_holds_invariants_in_both_worlds() {
    // A wider sweep: both worlds are cheap enough at fuzz geometry to run
    // dozens of hostile scenarios per test invocation.
    for seed in 100..140u64 {
        let script = Script::generate(seed, Clock::Passes);
        if let Err(f) = run(&script, Options::default()) {
            panic!("seed {seed} violated invariants:\n{f}script:\n{script}");
        }
    }
}

/// A scripted mid-run GPU death, timed (pass 38) so the device dies
/// *holding work in flight*. With the drain fix on, the lost task is
/// requeued and the CPU side steals its way to full completion; with
/// the fix reverted the pass silently vanishes — and the run still
/// claims success, which is exactly why the monitor audit exists.
fn gpu_death_script() -> Script {
    let script: Script = "hsgd-fuzz v1\n\
                          seed 4242\n\
                          data users=48 items=48 train=2000 test=200\n\
                          sched star nc=2 ng=1 alpha=0.5 steal_ratio=1.0\n\
                          workers nc=2 ng=1\n\
                          iters 2\n\
                          fail gpu0 at=38\n"
        .parse()
        .expect("valid script");
    assert!(matches!(script.events[..], [Event::Fail { .. }]));
    script
}

/// The drain fix reverted — the negative-test switch.
const NO_DRAIN: Options = Options {
    drain_failed: false,
    ignore_flips: false,
};

#[test]
fn gpu_death_with_drain_fix_satisfies_invariants() {
    match run(&gpu_death_script(), Options::default()) {
        Err(f) => panic!("drain fix on, but:\n{f}"),
        Ok(Stats::Scheduler(virt, _)) => assert!(
            !virt.ended_early,
            "drain fix should let the survivors finish the full schedule: {virt:?}"
        ),
        Ok(other) => panic!("not a scheduler run: {other:?}"),
    }
}

/// The acceptance-gate negative test: with the drain fix reverted, the
/// same scripted GPU death *must* trip the monitor — the dead device's
/// in-flight tasks vanish instead of being requeued, and the audit
/// reports them as lost. This proves the monitor actually detects the
/// bug class the fix exists for.
#[test]
#[should_panic(expected = "lost in flight")]
fn gpu_death_with_drain_fix_reverted_trips_the_monitor() {
    let script = gpu_death_script();
    match run(&script, NO_DRAIN) {
        Ok(stats) => {
            panic!("expected a violation with the drain fix reverted, got a clean run: {stats:?}")
        }
        Err(f) => {
            let joined = f.violations.join("; ");
            panic!("{joined}");
        }
    }
}

#[test]
fn shrinking_reduces_to_the_fatal_event() {
    // Pad the failing script with no-op noise events (factor-1 slowdowns
    // change nothing); the shrinker must strip them all and keep exactly
    // the device death.
    let mut script = gpu_death_script();
    script.events.push(Event::Slow {
        dev: "cpu0".parse().unwrap(),
        at: 3,
        factor: 1.0,
    });
    script.events.push(Event::Freeze {
        dev: "gpu0".parse().unwrap(),
        at: 5,
        passes: 4,
        factor: 1.0,
    });
    script.events.push(Event::Slow {
        dev: "cpu1".parse().unwrap(),
        at: 10,
        factor: 1.0,
    });

    let minimal = shrink(&script, |cand| run(cand, NO_DRAIN).is_err());
    assert_eq!(
        minimal.events.len(),
        1,
        "expected only the fail event to survive shrinking, got: {:?}",
        minimal.events
    );
    assert!(
        matches!(minimal.events[0], Event::Fail { .. }),
        "surviving event is not the device death: {:?}",
        minimal.events[0]
    );
}

#[test]
fn corpus_scripts_replay_green_in_both_worlds() {
    let mut io_scripts = 0;
    replay_corpus(|name, outcome| {
        let stats = outcome.unwrap_or_else(|f| panic!("{name} failed its harness:\n{f}"));
        // A storage scenario must actually strike: crash, degrade the
        // recovery, or damage a block.
        let exercised = match stats {
            Stats::Scheduler(..) => return,
            Stats::Lifecycle(s) => s.crashed || s.recovered_epoch.is_some(),
            Stats::Arena(s) => s.crashed || s.clean_blocks < s.blocks,
        };
        assert!(exercised, "{name}: scenario exercised nothing");
        io_scripts += 1;
    })
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        io_scripts >= 3,
        "expected ≥ 3 committed storage scenarios, found {io_scripts}"
    );
}
