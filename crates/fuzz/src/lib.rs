//! Adversarial scheduler validation: seeded timing-fuzz and
//! fault-injection for the HSGD\* schedulers, across both execution
//! worlds.
//!
//! The production schedulers ([`hsgd_core::scheduler::UniformScheduler`],
//! [`hsgd_core::scheduler::StarScheduler`]) promise a safety contract —
//! conflict-free block assignment, no lost or double-executed passes,
//! progress under device faults, feedback that re-converges after bad
//! measurements. This crate *attacks* that contract:
//!
//! * [`script`] — deterministic event scripts: dataset/scheduler
//!   geometry plus injected faults (slowdowns, freezes, permanent
//!   failures, cost-model lies), keyed by completed block passes so the
//!   same script replays identically in virtual time and on real
//!   threads. Serialized as a small text format for the regression
//!   corpus in `tests/fuzz_corpus/`.
//! * [`monitor`] — [`monitor::MonitoredScheduler`], a transparent
//!   scheduler wrapper asserting the contract at every
//!   dispatch/release, which doubles as the fault-injection clock.
//! * [`devices`] — [`devices::AdversarialDevice`], a virtual-device
//!   wrapper adding heavy-tailed latency and health-cell slowdowns.
//! * [`harness`] — [`harness::run_script`] drives one script through
//!   the DES world or the real-thread exclusive world;
//!   [`harness::shrink`] minimizes failing scripts to the events that
//!   matter.
//!
//! A second fuzz surface attacks the **durability layer** instead of
//! the schedulers:
//!
//! * [`iofault`] — [`iofault::FaultFs`], an in-memory filesystem
//!   injecting short writes, ENOSPC, byte-exact crash kills, torn
//!   renames, and bit flips under the live train-and-serve loop
//!   (`mf_serve::live`), plus [`iofault::run_io_script`], the
//!   kill-and-recover harness auditing `mf_serve::delta::recover`
//!   against a shadow log of acked epochs. Scenarios serialize as
//!   `hsgd-fuzz io v1` scripts next to the scheduler ones. The same
//!   faults also attack the out-of-core spill path (`subject arena`
//!   scripts): the MFCK v3 block arena is written and spill-read
//!   through the faulted filesystem, and corruption must surface as
//!   typed errors before any byte reaches a kernel.
//!
//! Property tests across the workspace run on [`check`](check()): a
//! seeded generator closure over a [`Gen`] that records its draws, so a
//! failing input shrinks by editing the record. Its drop pass,
//! [`drop_one`], is also the step of both script shrinkers.
//!
//! `mf-bench`'s `fuzz_smoke` binary replays the committed corpus (both
//! script kinds) and a batch of fresh seeds in CI.

pub mod check;
pub mod devices;
pub mod harness;
pub mod iofault;
pub mod monitor;
pub mod rng;
pub mod script;

pub use check::{check, drop_one, Gen};
pub use harness::{fuzz_seed, run_script, run_script_all, shrink, FuzzFailure, RunStats, World};
pub use iofault::{
    fuzz_io_seed, probe_offsets, run_io_script, run_io_script_with, shrink_io, FaultFs, IoEvent,
    IoFailure, IoOptions, IoRunStats, IoScript, IoSubject, ARENA_SUBJECT_FILE, CRASH_MSG,
};
pub use monitor::MonitoredScheduler;
pub use script::{DevId, Event, Latency, SchedKind, Script};
