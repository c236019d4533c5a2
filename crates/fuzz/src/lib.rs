//! Adversarial validation: one seeded fault-script grammar aimed at the
//! HSGD\* schedulers and at the durable artifacts their factors feed.
//!
//! The schedulers promise conflict-free block assignment, no lost or
//! double-executed passes, progress under device faults, and feedback
//! that re-converges after bad measurements; the storage layer promises
//! that a crash, a torn rename or a flipped bit never yields wrong
//! factors. A [`Script`] ([`script`]) names a seed, a [`Subject`]
//! (scheduler, lifecycle or arena) and the events that attack it, each
//! on its subject's clock: completed block passes, fired by
//! [`MonitoredScheduler`] ([`monitor`]) into the seats' health cells and
//! drawn as heavy-tailed latency ([`rng::task_stretch`]), or bytes
//! written, fired by [`FaultFs`] ([`iofault`]). [`run`]
//! ([`harness`]) replays a script against its subject, [`shrink`]
//! minimizes a failing one, and [`replay_corpus`] replays the
//! regressions committed under `tests/fuzz_corpus/`; this crate's
//! `fuzz_smoke` binary runs the corpus and fresh seeds in CI.
//!
//! Property tests across the workspace run on [`check`](check()): a
//! seeded generator closure over a [`Gen`] that records its draws, so a
//! failing input shrinks by editing the record. Its drop pass,
//! [`drop_one`], is also the step of the script shrinker.

pub mod check;
pub mod harness;
pub mod iofault;
pub mod monitor;
pub mod rng;
pub mod script;

pub use check::{check, drop_one, Gen};
pub use harness::{replay_corpus, run, shrink, Failure, Options, RunStats, Stats, World};
pub use iofault::{
    probe_offsets, ArenaStats, FaultFs, LifecycleStats, ARENA_SUBJECT_FILE, CRASH_MSG,
};
pub use monitor::MonitoredScheduler;
pub use script::{
    Clock, DevId, Event, Latency, SchedKind, SchedSetup, Script, StoreSetup, Subject,
};
