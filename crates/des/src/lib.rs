//! # mf-des — deterministic discrete-event simulation core
//!
//! The heterogeneous CPU-GPU experiments in this workspace run in **virtual
//! time**: every device (a CPU worker thread, a GPU) performs real SGD
//! arithmetic, but the *duration* of each unit of work comes from a
//! calibrated performance model. This crate provides the simulation
//! machinery those experiments are built on:
//!
//! * [`SimTime`] — a totally ordered, finite wrapper around `f64` seconds.
//! * [`EventQueue`] — a priority queue of `(time, payload)` pairs with
//!   stable FIFO tie-breaking, so simulations are deterministic even when
//!   many events share a timestamp.
//! * [`Engine`] — a convenience driver that pops events in order and hands
//!   them to a handler until the queue drains or a horizon is reached,
//!   advancing a monotone virtual clock that panics on rewind.
//!
//! The design goal is determinism: given the same inputs, a simulation
//! produces bit-identical results on every run. That is what makes the
//! reproduction experiments in `hsgd-core` testable.
//!
//! ```
//! use mf_des::{Engine, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule(SimTime::from_secs(2.0), "second");
//! engine.schedule(SimTime::from_secs(1.0), "first");
//! let mut order = Vec::new();
//! engine.run(|_now, ev, _eng| order.push(ev));
//! assert_eq!(order, vec!["first", "second"]);
//! ```

mod clock;
mod engine;
mod queue;
mod time;

pub use engine::{Engine, EngineHandle};
pub use queue::{EventQueue, ScheduledEvent};
pub use time::SimTime;
