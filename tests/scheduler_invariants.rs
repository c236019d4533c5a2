//! Property tests over the heterogeneous scheduler: for random task
//! request/release interleavings, the conflict-freedom and accounting
//! invariants must hold — checked two ways at once:
//!
//! * pairwise: no two held tasks share a block-level conflict
//!   (`BlockId::conflicts_with`), and
//! * against an independent **band-occupancy oracle**: a plain
//!   `row_busy`/`col_busy` bitmap maintained outside the scheduler. Every
//!   acquire must land on bands the oracle says are free, and every
//!   release must return exactly the bands the oracle says are held.
//!
//! Both schedulers are driven through every policy variant: the uniform
//! scheduler with the per-block cap on and off, the star scheduler with
//! dynamic stealing on and off and across steal-ratio settings.

use hsgd_star::fuzz::{check, Gen};
use hsgd_star::hetero::layout::StarLayout;
use hsgd_star::hetero::scheduler::{BlockScheduler, StarScheduler, UniformScheduler, WorkerClass};
use hsgd_star::sparse::{GridPartition, GridSpec, Rating, SparseMatrix};

fn dense(m: u32, n: u32) -> SparseMatrix {
    let mut e = Vec::new();
    for u in 0..m {
        for v in 0..n {
            e.push(Rating::new(u, v, 1.0));
        }
    }
    SparseMatrix::new(m, n, e).unwrap()
}

/// The independent safety oracle: band-granularity occupancy, maintained
/// from the task stream alone (no scheduler internals).
struct OccupancyOracle {
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
}

impl OccupancyOracle {
    fn new(spec: &GridSpec) -> OccupancyOracle {
        OccupancyOracle {
            row_busy: vec![false; spec.nrow_blocks() as usize],
            col_busy: vec![false; spec.ncol_blocks() as usize],
        }
    }

    /// Marks a task's bands busy, failing if any already were.
    fn acquire(&mut self, task: &hsgd_star::hetero::scheduler::Task) {
        let col = task.blocks[0].col as usize;
        assert!(
            !self.col_busy[col],
            "scheduler assigned column band {col} while the oracle holds it busy"
        );
        self.col_busy[col] = true;
        for b in &task.blocks {
            assert_eq!(
                b.col as usize, col,
                "multi-block task must stay in one column band"
            );
            let r = b.row as usize;
            assert!(
                !self.row_busy[r],
                "scheduler assigned row band {r} while the oracle holds it busy"
            );
            self.row_busy[r] = true;
        }
    }

    /// Clears a task's bands, failing if any were not held.
    fn release(&mut self, task: &hsgd_star::hetero::scheduler::Task) {
        let col = task.blocks[0].col as usize;
        assert!(
            self.col_busy[col],
            "released a column band the oracle thinks is free"
        );
        self.col_busy[col] = false;
        for b in &task.blocks {
            let r = b.row as usize;
            assert!(
                self.row_busy[r],
                "released a row band the oracle thinks is free"
            );
            self.row_busy[r] = false;
        }
    }
}

/// Drives a scheduler with a random interleaving of "request work for X"
/// and "release the oldest held task", checking invariants throughout.
fn drive<S: BlockScheduler>(
    mut sched: S,
    part: &GridPartition,
    ops: &[(u8, bool)],
    workers: &[WorkerClass],
) {
    let mut oracle = OccupancyOracle::new(sched.spec());
    let mut held: Vec<hsgd_star::hetero::scheduler::Task> = Vec::new();
    for &(widx, is_release) in ops {
        if is_release {
            if !held.is_empty() {
                let t = held.remove(0);
                oracle.release(&t);
                sched.release(&t);
            }
        } else {
            let who = workers[widx as usize % workers.len()];
            if let Some(t) = sched.next_task(who, part) {
                // Invariant 1: no block-level conflict with any held task.
                for other in &held {
                    for a in &t.blocks {
                        for b in &other.blocks {
                            assert!(!a.conflicts_with(*b), "conflicting assignment {a} vs {b}");
                        }
                    }
                }
                // Invariant 2: the occupancy oracle agrees the bands were
                // free (and now holds them).
                oracle.acquire(&t);
                held.push(t);
            }
        }
    }
    // Drain and check accounting.
    for t in held.drain(..) {
        oracle.release(&t);
        sched.release(&t);
    }
    assert!(oracle.row_busy.iter().all(|&b| !b), "rows leaked");
    assert!(oracle.col_busy.iter().all(|&b| !b), "columns leaked");
    let assigned: u64 = sched.counts().iter().map(|&c| c as u64).sum();
    assert_eq!(assigned, sched.completed());
}

/// Request/release traffic: each op names a worker slot and whether it
/// releases the oldest held task instead.
fn ops(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<(u8, bool)> {
    g.vec(len, |g| (g.int(0u8..8), g.bool()))
}

#[test]
fn uniform_scheduler_never_conflicts() {
    let input = |g: &mut Gen| (ops(g, 1..400), g.int(3u32..8), g.int(3u32..8), g.bool());
    check(64, 1, input, |(ops, rows, cols, cap_per_block)| {
        let data = dense(32, 32);
        let spec = GridSpec::uniform(32, 32, rows, cols);
        let part = GridPartition::build(&data, spec.clone());
        let sched = UniformScheduler::new(spec, 3, cap_per_block);
        let workers = [WorkerClass::Cpu, WorkerClass::Gpu(0)];
        drive(sched, &part, &ops, &workers);
    });
}

#[test]
fn star_scheduler_never_conflicts() {
    let input = |g: &mut Gen| {
        let ops = ops(g, 1..400);
        let (nc, ng, alpha) = (g.int(2u32..5), g.int(1u32..3), g.f64(0.1..0.9));
        (ops, (nc, ng, alpha), g.bool(), g.f64(0.0..4.0))
    };
    check(
        64,
        2,
        input,
        |(ops, (nc, ng, alpha), dynamic, steal_ratio)| {
            let data = dense(48, 48);
            let layout = StarLayout::build(&data, nc, ng, alpha);
            let part = GridPartition::build(&data, layout.spec.clone());
            let sched = StarScheduler::new(layout, 2, dynamic).with_steal_ratio(steal_ratio);
            let workers = [
                WorkerClass::Cpu,
                WorkerClass::Gpu(0),
                WorkerClass::Gpu(ng - 1),
            ];
            drive(sched, &part, &ops, &workers);
        },
    );
}

#[test]
fn star_scheduler_safe_under_measured_feedback() {
    let input = |g: &mut Gen| {
        let ops = ops(g, 1..300);
        let (nc, ng, alpha) = (g.int(2u32..5), g.int(1u32..3), g.f64(0.1..0.9));
        let rates = g.vec(1..8, |g| (g.f64(1.0..1e8), g.f64(1.0..1e8)));
        (ops, (nc, ng, alpha), rates)
    };
    check(64, 3, input, |(ops, (nc, ng, alpha), rates)| {
        // The real-thread runtime re-derives the steal ratio from
        // measured rates mid-run; safety must be unaffected no matter
        // when or with what values that happens.
        let data = dense(48, 48);
        let layout = StarLayout::build(&data, nc, ng, alpha);
        let part = GridPartition::build(&data, layout.spec.clone());
        let mut sched = StarScheduler::new(layout, 2, true);
        let mut oracle = OccupancyOracle::new(sched.spec());
        let mut held: Vec<hsgd_star::hetero::scheduler::Task> = Vec::new();
        let workers = [WorkerClass::Cpu, WorkerClass::Gpu(0)];
        for (i, &(widx, is_release)) in ops.iter().enumerate() {
            if i % 7 == 3 {
                let (c, g) = rates[i % rates.len()];
                sched.observe_throughput(c, g);
                assert!((sched.steal_ratio() - g / c).abs() < 1e-9);
            }
            if is_release {
                if !held.is_empty() {
                    let t = held.remove(0);
                    oracle.release(&t);
                    sched.release(&t);
                }
            } else if let Some(t) = sched.next_task(workers[widx as usize % 2], &part) {
                oracle.acquire(&t);
                held.push(t);
            }
        }
        for t in held.drain(..) {
            sched.release(&t);
        }
        let assigned: u64 = sched.counts().iter().map(|&c| c as u64).sum();
        assert_eq!(assigned, sched.completed());
    });
}

#[test]
fn star_budget_is_exact_when_fully_drained() {
    let input = |g: &mut Gen| {
        (
            g.int(2u32..5),
            g.int(1u32..3),
            g.f64(0.1..0.9),
            g.int(1u32..4),
        )
    };
    check(64, 4, input, |(nc, ng, alpha, iterations)| {
        // Sequentially drain everything: total passes must equal
        // blocks × iterations exactly, and every count must respect
        // the soft cap.
        let data = dense(40, 40);
        let layout = StarLayout::build(&data, nc, ng, alpha);
        let part = GridPartition::build(&data, layout.spec.clone());
        let blocks = layout.spec.block_count() as u64;
        let mut sched = StarScheduler::new(layout, iterations, true);
        loop {
            let cpu = sched.next_task(WorkerClass::Cpu, &part);
            if let Some(t) = cpu {
                sched.release(&t);
                continue;
            }
            let gpu = sched.next_task(WorkerClass::Gpu(0), &part);
            if let Some(t) = gpu {
                sched.release(&t);
                continue;
            }
            break;
        }
        assert_eq!(sched.remaining(), 0);
        assert_eq!(sched.completed(), blocks * iterations as u64);
        let cap = iterations + hsgd_star::hetero::scheduler::SOFT_CAP_SLACK;
        assert!(sched.counts().iter().all(|&c| c <= cap));
    });
}
