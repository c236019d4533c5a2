//! Hostile virtual devices: a [`Device`] wrapper that stretches
//! completion times by heavy-tailed per-task latency draws and by
//! whatever slowdown its shared health cell currently dictates.
//!
//! The wrapper is installed through `VirtualExecutor::with_device_wrapper`
//! so the production CPU/GPU device models run unmodified underneath —
//! the adversary only distorts *when* their results land, never *what*
//! they compute. That is exactly the class of perturbation the
//! conflict-free invariants must survive: scheduling order changes,
//! arithmetic does not.

use std::sync::Arc;

use hsgd_core::executor::{Device, DeviceCompletion, DeviceHealth, HealthCell};
use hsgd_core::scheduler::Task;
use mf_des::SimTime;
use mf_sgd::{HyperParams, Model};
use mf_sparse::hash::splitmix64;
use mf_sparse::GridPartition;

use crate::rng::pareto_factor;
use crate::script::Latency;

/// A fault-injecting wrapper around one production device.
pub struct AdversarialDevice {
    inner: Box<dyn Device>,
    cell: Arc<HealthCell>,
    latency: Option<Latency>,
    salt: u64,
}

impl AdversarialDevice {
    /// Wraps `inner`. Health is read from `cell` (which the monitor's
    /// fault actions write); `latency`, when present, adds a bounded
    /// Pareto stretch per task, keyed by `(salt, block, pass)` so replays
    /// are order-independent and bit-identical.
    pub fn new(
        inner: Box<dyn Device>,
        cell: Arc<HealthCell>,
        latency: Option<Latency>,
        salt: u64,
    ) -> AdversarialDevice {
        AdversarialDevice {
            inner,
            cell,
            latency,
            salt,
        }
    }

    fn stretch_for(&self, task: &Task) -> f64 {
        let mut stretch = match self.cell.get() {
            DeviceHealth::Degraded(f) => f.max(1.0),
            _ => 1.0,
        };
        if let Some(l) = self.latency {
            let b = task.blocks[0];
            let h = splitmix64(
                ((b.row as u64) << 40)
                    ^ ((b.col as u64) << 20)
                    ^ (task.pass as u64)
                    ^ self.salt.rotate_left(17),
            );
            stretch *= pareto_factor(h, l.alpha, l.cap);
        }
        stretch
    }
}

impl Device for AdversarialDevice {
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn health(&self) -> DeviceHealth {
        self.cell.get()
    }

    fn process(
        &mut self,
        now: SimTime,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> DeviceCompletion {
        let comp = self.inner.process(now, model, part, task, gamma, hyper);
        let stretch = self.stretch_for(task);
        if stretch == 1.0 {
            return comp;
        }
        let dur = (comp.done.as_secs() - now.as_secs()).max(0.0) * stretch;
        DeviceCompletion {
            done: now + SimTime::from_secs(dur),
            busy_secs: comp.busy_secs * stretch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit-time stub device.
    struct Stub;
    impl Device for Stub {
        fn queue_depth(&self) -> usize {
            1
        }
        fn process(
            &mut self,
            now: SimTime,
            _: &mut Model,
            _: &GridPartition,
            _: &Task,
            _: f32,
            _: &HyperParams,
        ) -> DeviceCompletion {
            DeviceCompletion {
                done: now + SimTime::from_secs(1.0),
                busy_secs: 1.0,
            }
        }
    }

    fn fixture() -> (Model, GridPartition, Task, HyperParams) {
        let m = mf_sparse::SparseMatrix::from_triples((0..8u32).map(|i| (i, i % 4, 3.0f32)));
        let spec = hsgd_core::layout::uniform_layout(&m, 2, 2);
        let part = GridPartition::build(&m, spec);
        let model = Model::init_for_ratings(m.nrows(), m.ncols(), 4, 1, m.mean_rating());
        let task = Task {
            blocks: vec![mf_sparse::BlockId::new(0, 0)],
            points: 2,
            p_rows: 0..4,
            q_cols: 0..2,
            pass: 0,
            stolen: false,
        };
        (model, part, task, HyperParams::movielens(4))
    }

    #[test]
    fn degraded_cell_stretches_completion() {
        let (mut model, part, task, hyper) = fixture();
        let cell = Arc::new(HealthCell::new());
        let mut dev = AdversarialDevice::new(Box::new(Stub), cell.clone(), None, 7);
        let base = dev.process(SimTime::ZERO, &mut model, &part, &task, 0.01, &hyper);
        assert!((base.done.as_secs() - 1.0).abs() < 1e-12);

        cell.set(DeviceHealth::Degraded(4.0));
        assert_eq!(dev.health(), DeviceHealth::Degraded(4.0));
        let slow = dev.process(SimTime::ZERO, &mut model, &part, &task, 0.01, &hyper);
        assert!((slow.done.as_secs() - 4.0).abs() < 1e-12);
        assert!((slow.busy_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn latency_stretch_is_deterministic_and_bounded() {
        let (mut model, part, task, hyper) = fixture();
        let lat = Some(Latency {
            alpha: 1.3,
            cap: 8.0,
        });
        let run = |salt: u64| {
            let cell = Arc::new(HealthCell::new());
            let mut dev = AdversarialDevice::new(Box::new(Stub), cell, lat, salt);
            let mut model2 = model.clone();
            dev.process(SimTime::ZERO, &mut model2, &part, &task, 0.01, &hyper)
                .done
                .as_secs()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same salt must replay identically");
        assert!((1.0..=8.0).contains(&a), "stretch out of bounds: {a}");
        let _ = &mut model;
    }
}
