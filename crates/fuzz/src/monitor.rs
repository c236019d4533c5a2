//! The invariant monitor: a transparent [`BlockScheduler`] wrapper that
//! validates every dispatch/release the execution world performs against
//! the HSGD* safety contract, and doubles as the fault-injection clock.
//!
//! Checked at every scheduler interaction:
//!
//! 1. **Race freedom** — no two in-flight tasks share a row band or a
//!    column band (the conflict-free property SGD correctness rests on).
//! 2. **Conservation** — every assigned block pass is released or
//!    requeued exactly once; nothing in flight at the end of a run.
//! 3. **Bounded progress** — the world cannot spin on the scheduler
//!    forever without completing passes (livelock cap).
//! 4. **Feedback sanity** — pathological `observe_throughput` lies never
//!    leave the policy's dynamic ratio non-finite, and a subsequent sane
//!    observation re-converges it to exactly `gpu/cpu`.
//!
//! The monitor also *fires the script's events*: fault actions are keyed
//! by the monitor's completed-pass counter, the one clock both execution
//! worlds share, so the same script replays identically under virtual
//! time and real threads.

use std::collections::HashMap;
use std::sync::Arc;

use hsgd_core::executor::{DeviceHealth, HealthCell};
use hsgd_core::scheduler::{BlockScheduler, Task, WorkerClass};
use mf_sparse::{GridPartition, GridSpec};

use crate::script::{DevId, Event};

/// Scheduler-interaction budget per run: `next_task`/`release` calls
/// beyond this many per scheduled block pass indicate a livelock.
const OPS_PER_PASS_BUDGET: u64 = 50_000;

/// One compiled fault action, fired when the completed-pass counter
/// reaches its key.
#[derive(Debug, Clone)]
enum Action {
    /// Overwrite a device's health cell.
    SetHealth(DevId, DeviceHealth),
    /// Feed hostile throughputs into the policy.
    Lie(f64, f64),
    /// Feed sane throughputs and assert re-convergence.
    Observe(f64, f64),
}

/// A [`BlockScheduler`] wrapper that validates the safety contract and
/// injects a script's faults at deterministic pass boundaries.
///
/// The harness keeps ownership (it drives `Executor::execute` directly
/// rather than the scheduler-consuming convenience entry points), so
/// violations are collected in plain fields and read back after the run
/// via [`MonitoredScheduler::finish`].
pub struct MonitoredScheduler<S> {
    inner: S,
    /// In-flight reference counts per row band / column band. Counters,
    /// not flags: one task may legally cover several blocks in the same
    /// band (it executes them serially on one device).
    row_busy: Vec<u32>,
    col_busy: Vec<u32>,
    /// In-flight block passes: block → outstanding count (must stay ≤ 1).
    inflight: HashMap<(u32, u32), u32>,
    /// Block passes released so far — the event clock.
    passes: u64,
    /// Budget accounting for the livelock check.
    ops: u64,
    ops_budget: u64,
    /// Compiled events sorted by trigger pass; `next` indexes the first
    /// unfired one.
    actions: Vec<(u64, Action)>,
    next: usize,
    /// Health cells by device, supplied by the world-specific harness.
    cells: Vec<(DevId, Arc<HealthCell>)>,
    /// Whether a permanent `Fail` action has actually been applied —
    /// the only licence for an early (stalled) end.
    fail_applied: bool,
    violations: Vec<String>,
}

impl<S: BlockScheduler> MonitoredScheduler<S> {
    /// Wraps `inner`, compiling a scheduler script's `events` against the
    /// health `cells` the execution world will consult; the script's
    /// `total_passes` sizes the livelock budget. A `Freeze` expands into
    /// a degrade action plus a matching recovery action `passes` later.
    pub fn new(
        inner: S,
        events: &[Event],
        total_passes: u64,
        cells: Vec<(DevId, Arc<HealthCell>)>,
    ) -> Self {
        let spec = inner.spec().clone();
        let mut actions: Vec<(u64, Action)> = Vec::new();
        for e in events {
            match *e {
                Event::Slow { dev, at, factor } => {
                    actions.push((at, Action::SetHealth(dev, DeviceHealth::Degraded(factor))));
                }
                Event::Freeze {
                    dev,
                    at,
                    passes,
                    factor,
                } => {
                    actions.push((at, Action::SetHealth(dev, DeviceHealth::Degraded(factor))));
                    actions.push((at + passes, Action::SetHealth(dev, DeviceHealth::Ok)));
                }
                Event::Fail { dev, at } => {
                    actions.push((at, Action::SetHealth(dev, DeviceHealth::Failed)));
                }
                Event::Lie { at, cpu, gpu } => actions.push((at, Action::Lie(cpu, gpu))),
                Event::Observe { at, cpu, gpu } => {
                    actions.push((at, Action::Observe(cpu, gpu)));
                }
                // Byte-clock events: `harness::run` refuses them before a
                // world starts.
                _ => {}
            }
        }
        actions.sort_by_key(|(at, _)| *at);
        let total = total_passes.max(1);
        MonitoredScheduler {
            inner,
            row_busy: vec![0; spec.nrow_blocks() as usize],
            col_busy: vec![0; spec.ncol_blocks() as usize],
            inflight: HashMap::new(),
            passes: 0,
            ops: 0,
            ops_budget: total.saturating_mul(OPS_PER_PASS_BUDGET),
            actions,
            next: 0,
            cells,
            fail_applied: false,
            violations: Vec::new(),
        }
    }

    /// Block passes released so far (the event clock).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    fn violation(&mut self, msg: String) {
        // Keep the first few; a single broken invariant usually cascades.
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }

    fn charge_op(&mut self) {
        self.ops += 1;
        assert!(
            self.ops <= self.ops_budget,
            "fuzz monitor: livelock — {} scheduler ops but only {} passes completed",
            self.ops,
            self.passes
        );
    }

    fn cell_for(&self, dev: DevId) -> Option<Arc<HealthCell>> {
        self.cells
            .iter()
            .find(|(d, _)| *d == dev)
            .map(|(_, c)| c.clone())
    }

    fn fire_due_actions(&mut self) {
        while self.next < self.actions.len() && self.actions[self.next].0 <= self.passes {
            let (_, action) = self.actions[self.next].clone();
            self.next += 1;
            match action {
                Action::SetHealth(dev, health) => {
                    let Some(cell) = self.cell_for(dev) else {
                        self.violation(format!("script names unknown device {dev}"));
                        continue;
                    };
                    if matches!(health, DeviceHealth::Failed) {
                        cell.fail();
                        self.fail_applied = true;
                    } else {
                        cell.set(health);
                    }
                }
                Action::Lie(cpu, gpu) => {
                    self.inner.observe_throughput(cpu, gpu);
                    if let Some(r) = self.inner.dynamic_ratio() {
                        if !r.is_finite() {
                            self.violation(format!(
                                "lie (cpu={cpu}, gpu={gpu}) poisoned dynamic ratio: {r}"
                            ));
                        }
                    }
                }
                Action::Observe(cpu, gpu) => {
                    self.inner.observe_throughput(cpu, gpu);
                    if let Some(r) = self.inner.dynamic_ratio() {
                        let want = gpu / cpu;
                        if !(r.is_finite() && (r - want).abs() <= 1e-9 * want.abs().max(1.0)) {
                            self.violation(format!(
                                "dynamic ratio did not re-converge: have {r}, measured {want}"
                            ));
                        }
                    }
                }
            }
        }
    }

    fn mark(&mut self, task: &Task) {
        // Occupancy is only updated after every block has been checked,
        // so during the check loop the busy counters reflect exclusively
        // *other* in-flight tasks — any overlap at all is a race.
        for b in &task.blocks {
            let key = (b.row, b.col);
            if self.inflight.contains_key(&key) {
                self.violation(format!(
                    "block ({}, {}) assigned while already in flight",
                    b.row, b.col
                ));
            }
            if self.row_busy[b.row as usize] > 0 {
                self.violation(format!(
                    "row band {} shared by two in-flight tasks (block ({}, {}))",
                    b.row, b.row, b.col
                ));
            }
            if self.col_busy[b.col as usize] > 0 {
                self.violation(format!(
                    "column band {} shared by two in-flight tasks (block ({}, {}))",
                    b.col, b.row, b.col
                ));
            }
        }
        for b in &task.blocks {
            *self.inflight.entry((b.row, b.col)).or_insert(0) += 1;
            self.row_busy[b.row as usize] += 1;
            self.col_busy[b.col as usize] += 1;
        }
    }

    /// Returns whether every block of `task` was actually in flight; a
    /// `false` means the release/requeue is bogus and must not be
    /// delegated (the inner policy would assert on it, masking the
    /// violation we just recorded).
    fn unmark(&mut self, task: &Task, verb: &str) -> bool {
        let mut ok = true;
        for b in &task.blocks {
            let key = (b.row, b.col);
            match self.inflight.get_mut(&key) {
                Some(n) => {
                    *n -= 1;
                    if *n == 0 {
                        self.inflight.remove(&key);
                    }
                    self.row_busy[b.row as usize] = self.row_busy[b.row as usize].saturating_sub(1);
                    self.col_busy[b.col as usize] = self.col_busy[b.col as usize].saturating_sub(1);
                }
                None => {
                    ok = false;
                    self.violation(format!(
                        "block ({}, {}) {verb}d but was never assigned",
                        b.row, b.col
                    ));
                }
            }
        }
        ok
    }

    /// End-of-run audit. `ended_early` is the world's report that it gave
    /// up before the schedule drained. Returns all violations, including
    /// any recorded during the run.
    pub fn finish(mut self, ended_early: bool) -> Vec<String> {
        if !self.inflight.is_empty() {
            let mut lost: Vec<_> = self.inflight.keys().copied().collect();
            lost.sort_unstable();
            self.violation(format!(
                "{} block pass(es) lost in flight at end of run: {:?}",
                lost.len(),
                lost
            ));
        }
        if ended_early && !self.fail_applied {
            self.violation(
                "run ended early (stalled) without a permanent device failure".to_string(),
            );
        }
        if !ended_early {
            if self.inner.remaining() != 0 {
                self.violation(format!(
                    "run reported complete but {} passes remain unassigned",
                    self.inner.remaining()
                ));
            }
            if self.inner.completed() != self.passes {
                self.violation(format!(
                    "pass accounting mismatch: policy completed {}, monitor saw {}",
                    self.inner.completed(),
                    self.passes
                ));
            }
            let counted: u64 = self.inner.counts().iter().map(|&c| c as u64).sum();
            if counted != self.passes {
                self.violation(format!(
                    "per-block counts sum to {counted}, monitor saw {} passes",
                    self.passes
                ));
            }
        }
        if self.next < self.actions.len() && !ended_early && !self.fail_applied {
            // Purely informational: a fully drained run should have
            // consumed every event keyed within its pass range.
            let unfired = self.actions.len() - self.next;
            let last_at = self.actions.last().map(|(at, _)| *at).unwrap_or(0);
            if last_at <= self.passes {
                self.violation(format!("{unfired} due event(s) never fired"));
            }
        }
        self.violations
    }
}

impl<S: BlockScheduler> BlockScheduler for MonitoredScheduler<S> {
    fn spec(&self) -> &GridSpec {
        self.inner.spec()
    }

    fn next_task(&mut self, who: WorkerClass, part: &GridPartition) -> Option<Task> {
        self.charge_op();
        let task = self.inner.next_task(who, part)?;
        if task.blocks.is_empty() {
            self.violation("scheduler returned an empty task".to_string());
        }
        self.mark(&task);
        Some(task)
    }

    fn release(&mut self, task: &Task) {
        self.charge_op();
        if !self.unmark(task, "release") {
            return;
        }
        self.inner.release(task);
        self.passes += task.blocks.len() as u64;
        self.fire_due_actions();
    }

    fn requeue(&mut self, task: &Task) {
        self.charge_op();
        if !self.unmark(task, "requeue") {
            return;
        }
        self.inner.requeue(task);
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn counts(&self) -> &[u32] {
        self.inner.counts()
    }

    fn steals(&self) -> u64 {
        self.inner.steals()
    }

    fn observe_throughput(&mut self, cpu_points_per_sec: f64, gpu_points_per_sec: f64) {
        self.inner
            .observe_throughput(cpu_points_per_sec, gpu_points_per_sec);
    }

    fn dynamic_ratio(&self) -> Option<f64> {
        self.inner.dynamic_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsgd_core::scheduler::UniformScheduler;
    use mf_sparse::{BlockId, SparseMatrix};

    fn tiny_part(rows: u32, cols: u32) -> (GridPartition, GridSpec) {
        let m = SparseMatrix::from_triples(
            (0..rows * 8).flat_map(|u| (0..cols * 4).map(move |v| (u, v, 3.0f32))),
        );
        let spec = hsgd_core::layout::uniform_layout(&m, rows, cols);
        let part = GridPartition::build(&m, spec.clone());
        (part, spec)
    }

    #[test]
    fn clean_run_has_no_violations() {
        let (part, spec) = tiny_part(2, 2);
        let inner = UniformScheduler::new(spec, 1, true);
        let mut m = MonitoredScheduler::new(inner, &[], 4, Vec::new());
        let mut done = 0;
        while done < 4 {
            let t = m.next_task(WorkerClass::Cpu, &part).expect("work left");
            m.release(&t);
            done += 1;
        }
        assert_eq!(m.passes(), 4);
        let v = m.finish(false);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn lost_block_is_reported() {
        let (part, spec) = tiny_part(2, 2);
        let inner = UniformScheduler::new(spec, 1, true);
        let mut m = MonitoredScheduler::new(inner, &[], 4, Vec::new());
        let _leaked = m.next_task(WorkerClass::Cpu, &part).expect("work left");
        // Never released: the audit must flag it.
        let v = m.finish(true);
        assert!(
            v.iter().any(|s| s.contains("lost in flight")),
            "missing lost-block violation: {v:?}"
        );
    }

    #[test]
    fn double_release_is_reported() {
        let (part, spec) = tiny_part(2, 2);
        let inner = UniformScheduler::new(spec, 2, false);
        let mut m = MonitoredScheduler::new(inner, &[], 4, Vec::new());
        let t = m.next_task(WorkerClass::Cpu, &part).expect("work left");
        m.release(&t);
        m.release(&t);
        assert!(
            m.violations().iter().any(|s| s.contains("never assigned")),
            "missing double-release violation: {:?}",
            m.violations()
        );
    }

    #[test]
    fn conflicting_assignment_is_reported() {
        // A malicious scheduler that hands out the same block twice
        // concurrently — the monitor must catch the row/col conflict.
        struct Evil {
            spec: GridSpec,
            counts: Vec<u32>,
        }
        impl BlockScheduler for Evil {
            fn spec(&self) -> &GridSpec {
                &self.spec
            }
            fn next_task(&mut self, _: WorkerClass, _: &GridPartition) -> Option<Task> {
                Some(Task {
                    blocks: vec![BlockId::new(0, 0)],
                    points: 1,
                    p_rows: 0..1,
                    q_cols: 0..1,
                    pass: 0,
                    stolen: false,
                })
            }
            fn release(&mut self, _: &Task) {}
            fn remaining(&self) -> u64 {
                1
            }
            fn completed(&self) -> u64 {
                0
            }
            fn counts(&self) -> &[u32] {
                &self.counts
            }
        }
        let (part, spec) = tiny_part(2, 2);
        let evil = Evil {
            spec: spec.clone(),
            counts: vec![0; 4],
        };
        let mut m = MonitoredScheduler::new(evil, &[], 4, Vec::new());
        let _a = m.next_task(WorkerClass::Cpu, &part).unwrap();
        let _b = m.next_task(WorkerClass::Cpu, &part).unwrap();
        assert!(
            m.violations()
                .iter()
                .any(|s| s.contains("already in flight")),
            "missing conflict violation: {:?}",
            m.violations()
        );
    }

    #[test]
    fn freeze_event_sets_and_restores_health() {
        let (part, spec) = tiny_part(2, 2);
        let inner = UniformScheduler::new(spec, 2, false);
        let cell = Arc::new(HealthCell::new());
        let freeze = [Event::Freeze {
            dev: DevId::Cpu(0),
            at: 2,
            passes: 2,
            factor: 8.0,
        }];
        let mut m = MonitoredScheduler::new(inner, &freeze, 8, vec![(DevId::Cpu(0), cell.clone())]);
        for step in 1..=8u64 {
            let t = m.next_task(WorkerClass::Cpu, &part).expect("work left");
            m.release(&t);
            match step {
                0..=1 => assert_eq!(cell.get(), DeviceHealth::Ok),
                2..=3 => assert!(matches!(cell.get(), DeviceHealth::Degraded(f) if f == 8.0)),
                _ => assert_eq!(cell.get(), DeviceHealth::Ok),
            }
        }
        assert!(m.finish(false).is_empty());
    }
}
