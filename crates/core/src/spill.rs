//! Out-of-core training: disk as one more asynchronous device.
//!
//! A spill-backed [`GridPartition`] keeps its rating blocks in an
//! on-disk arena (`mf_sparse::arena`, the `MFCK` v3 format) behind a
//! byte-budgeted LRU cache. This module closes the loop on the trainer
//! side so block *loads* overlap SGD *compute* exactly like H2D
//! transfers do:
//!
//! * In the virtual-time world, the DES pins each task's blocks at
//!   dispatch and models its cache misses as one read on the run's
//!   single-disk `IoTimeline` — the same treatment `gpu-sim` gives the
//!   PCIe bus. The seat starts when the read is done, so a GPU's
//!   two-deep in-flight window hides the prefetched task's IO behind the
//!   current kernel, and any seat's IO overlaps every other seat's
//!   compute.
//! * In the real-thread world, a [`Prefetcher`] IO thread per arena
//!   warms upcoming blocks through a depth-[`PREFETCH_WINDOW`] fetch
//!   window (mirroring the GPU worker's task window) while workers
//!   compute; the workers' pin path then mostly hits.
//!
//! Determinism is preserved where the in-RAM worlds guarantee it: disk
//! reads only move *completion times* in the DES, never the
//! dispatch/release sequence of a single-slot run; the exclusive-mode
//! real runtime derives each round purely from scheduler state, so
//! warming is invisible to the result. Training on a spilled partition
//! is therefore bit-identical to in-RAM for any cache budget that admits
//! forward progress (see `tests/spill_identity.rs` at the workspace
//! root).
//!
//! A failed block load (torn frame, checksum mismatch) is a *typed*
//! failure: in the DES the seat's health cell fails without running the
//! kernel, and the failed-device drain requeues its work — corrupt
//! bytes never reach a kernel, mirroring the checkpoint loader's
//! fail-closed rule.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use mf_des::SimTime;
use mf_sparse::{ArenaError, BlockOrder, GridPartition, GridSpec, SparseMatrix, SpillHandle, Vfs};

use crate::config::HeteroConfig;
use crate::executor::{train_with_executor_on, DevicePool, TrainOutcome};
use crate::runtime::{ExecMode, ThreadedExecutor};
use crate::scheduler::{BlockScheduler, Task};
use crate::trainer::VirtualExecutor;

/// File name of the training arena inside the spill directory.
pub const ARENA_FILE: &str = "train.arena";

/// Blocks the real-thread prefetch thread keeps in its fetch window —
/// the IO analogue of [`crate::runtime::GPU_QUEUE_DEPTH`].
pub const PREFETCH_WINDOW: usize = 2;

/// Performance model of the spill device (one disk or SSD), in the same
/// affine style as [`crate::config::CpuSpec`]: a fixed per-read latency
/// plus streaming bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoSpec {
    /// Sustained sequential read bandwidth, bytes/second.
    pub bytes_per_sec: f64,
    /// Fixed per-read latency (seek + syscall + frame checksum), seconds.
    pub latency_secs: f64,
}

impl Default for IoSpec {
    /// A mid-range NVMe device: 500 MB/s sustained, 100 µs per read.
    fn default() -> IoSpec {
        IoSpec {
            bytes_per_sec: 500e6,
            latency_secs: 100e-6,
        }
    }
}

impl IoSpec {
    /// Modeled time to read `bytes` from the arena in one request.
    pub fn time_secs(&self, bytes: u64) -> f64 {
        self.latency_secs + bytes as f64 / self.bytes_per_sec
    }

    /// Rescales the fixed latency for an experiment run at `1/scale` of
    /// the paper's dataset sizes, mirroring
    /// [`crate::config::CpuSpec::scaled_down`]: byte counts shrink with
    /// the data, so only the latency needs dividing for every virtual
    /// duration to shrink uniformly.
    pub fn scaled_down(mut self, scale: f64) -> IoSpec {
        assert!(scale >= 1.0, "scale must be >= 1");
        self.latency_secs /= scale;
        self
    }
}

/// The virtual world's single disk: every modeled read of one run
/// queues here behind the previous one, exactly like kernel launches
/// queue on one GPU.
#[derive(Debug)]
pub(crate) struct IoTimeline {
    io: IoSpec,
    free: SimTime,
}

impl IoTimeline {
    /// An idle disk that reads at `io`.
    pub(crate) fn new(io: IoSpec) -> IoTimeline {
        IoTimeline {
            io,
            free: SimTime::ZERO,
        }
    }

    /// Reserves `secs` of disk time starting no earlier than `now`;
    /// returns the completion instant.
    fn reserve(&mut self, now: SimTime, secs: f64) -> SimTime {
        let start = if self.free > now { self.free } else { now };
        self.free = start + SimTime::from_secs(secs);
        self.free
    }

    /// Pins `task`'s blocks at `now`, loading misses through the cache,
    /// and returns when the seat can start: once the disk has read the
    /// bytes of exactly the non-resident blocks (hits are free, like an
    /// H2D of data already on the device). A resident partition starts
    /// at `now`. On `Ok` the caller unpins after the kernel.
    pub(crate) fn pin(
        &mut self,
        part: &GridPartition,
        task: &Task,
        now: SimTime,
    ) -> Result<SimTime, ArenaError> {
        let Some(handle) = part.spill() else {
            return Ok(now);
        };
        let spec = part.spec();
        let mut miss_bytes = 0u64;
        for &b in &task.blocks {
            let flat = spec.flat_index(b);
            if !handle.is_resident(flat) {
                miss_bytes += handle.block_wire_bytes(flat) as u64;
            }
        }
        part.pin_blocks(&task.blocks)?;
        Ok(if miss_bytes == 0 {
            now
        } else {
            self.reserve(now, self.io.time_secs(miss_bytes))
        })
    }
}

/// The real-thread world's IO thread: one per arena, warming upcoming
/// blocks through a bounded fetch window while the workers compute.
///
/// Feeding is strictly advisory — a full window drops the hint rather
/// than block compute, and a failed warm is ignored here because the
/// same typed error resurfaces on the pin path of whichever worker
/// actually needs the block. Dropping the `Prefetcher` closes the
/// window and joins the thread.
pub struct Prefetcher {
    tx: Option<SyncSender<Vec<usize>>>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("window", &PREFETCH_WINDOW)
            .finish()
    }
}

impl Prefetcher {
    /// Spawns the IO thread over `handle`'s arena and cache.
    pub fn spawn(handle: SpillHandle) -> Prefetcher {
        let (tx, rx) = sync_channel::<Vec<usize>>(PREFETCH_WINDOW);
        let join = std::thread::Builder::new()
            .name("mf-spill-prefetch".into())
            .spawn(move || {
                while let Ok(flats) = rx.recv() {
                    for flat in flats {
                        // Advisory: errors resurface, typed, on the pin
                        // path of the worker that needs the block.
                        let _ = handle.warm(flat);
                    }
                }
            })
            .expect("spawn spill prefetch thread");
        Prefetcher {
            tx: Some(tx),
            join: Some(join),
        }
    }

    /// Queues flat block indices for background warming; drops the hint
    /// when the window is full.
    pub fn feed(&self, flats: Vec<usize>) {
        if let Some(tx) = &self.tx {
            match tx.try_send(flats) {
                Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// [`Prefetcher::feed`] for a task's block list.
    pub fn feed_task(&self, part: &GridPartition, task: &Task) {
        let spec = part.spec();
        self.feed(task.blocks.iter().map(|&b| spec.flat_index(b)).collect());
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Writes `train` as a block arena under `dir` (file [`ARENA_FILE`],
/// atomic-publish discipline) and reopens it spill-backed with the
/// given cache budget. The fully resident partition exists only
/// transiently inside this call.
pub fn spill_partition(
    train: &SparseMatrix,
    spec: GridSpec,
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    budget_bytes: usize,
) -> Result<GridPartition, ArenaError> {
    let resident = GridPartition::build_with_order(train, spec, BlockOrder::UserMajor);
    resident.write_arena(vfs.as_ref(), dir, ARENA_FILE)?;
    drop(resident);
    GridPartition::open_spilled(vfs, &dir.join(ARENA_FILE), budget_bytes)
}

/// Out-of-core training in the virtual-time world: spills `train` to an
/// arena under `dir`, then runs the DES with block reads modeled on
/// `io`, so they overlap modeled compute. `report.spill` carries the
/// cache counters.
#[allow(clippy::too_many_arguments)]
pub fn train_out_of_core_virtual<S: BlockScheduler + Send>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    budget_bytes: usize,
    io: IoSpec,
    alpha_planned: Option<f64>,
    label: &str,
) -> Result<TrainOutcome, ArenaError> {
    let part = spill_partition(train, scheduler.spec().clone(), vfs, dir, budget_bytes)?;
    let mut exec = VirtualExecutor::new().with_io(io);
    Ok(train_with_executor_on(
        &part,
        train.mean_rating(),
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        |_, _| {},
        &mut exec,
    ))
}

/// Out-of-core training on real threads: spills `train` to an arena
/// under `dir`, then runs the [`ThreadedExecutor`] in the given mode.
/// The runtime pins blocks around every kernel, warms ahead through a
/// [`Prefetcher`], and (relaxed mode) feeds the measured cache hit rate
/// back through [`BlockScheduler::observe_io`]. `report.spill` carries
/// the cache counters. `dir` must exist.
#[allow(clippy::too_many_arguments)]
pub fn train_out_of_core_real<S: BlockScheduler + Send>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    mode: ExecMode,
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    budget_bytes: usize,
    alpha_planned: Option<f64>,
    label: &str,
) -> Result<TrainOutcome, ArenaError> {
    let part = spill_partition(train, scheduler.spec().clone(), vfs, dir, budget_bytes)?;
    let mut exec = ThreadedExecutor::new(mode);
    Ok(train_with_executor_on(
        &part,
        train.mean_rating(),
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        |_, _| {},
        &mut exec,
    ))
}

/// A scratch directory for spill artifacts: `MF_SPILL_DIR` when set,
/// else a per-process subdirectory of the system temp dir, created on
/// demand.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = mf_sparse::arena::dir_from_env();
    let dir = base.join(format!("mf_spill_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create spill scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::{assert_points_are_released_passes, low_rank_data, test_cfg};
    use crate::layout::uniform_layout;
    use crate::scheduler::UniformScheduler;
    use mf_sparse::RealFs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mf_core_spill_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn io_spec_time_is_affine_and_scales() {
        let io = IoSpec::default();
        assert!((io.time_secs(0) - 100e-6).abs() < 1e-12);
        assert!((io.time_secs(500_000_000) - (1.0 + 100e-6)).abs() < 1e-9);
        let s = io.scaled_down(100.0);
        assert!((s.latency_secs - 1e-6).abs() < 1e-15);
        assert_eq!(s.bytes_per_sec, io.bytes_per_sec);
    }

    #[test]
    fn io_timeline_serializes_reads() {
        let mut tl = IoTimeline::new(IoSpec::default());
        let a = tl.reserve(SimTime::ZERO, 1.0);
        assert!((a.as_secs() - 1.0).abs() < 1e-12);
        // A second read issued at t=0 queues behind the first.
        let b = tl.reserve(SimTime::ZERO, 0.5);
        assert!((b.as_secs() - 1.5).abs() < 1e-12);
        // A read issued after the disk went idle starts immediately.
        let c = tl.reserve(SimTime::from_secs(10.0), 0.25);
        assert!((c.as_secs() - 10.25).abs() < 1e-12);
    }

    #[test]
    fn virtual_out_of_core_trains_and_reports_cache_counters() {
        let (train, test) = low_rank_data(48, 40, 21);
        let cfg = test_cfg(8);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![],
            gpu_start: vec![],
        };
        let dir = scratch("virt");
        // A budget around half the arena forces real eviction traffic.
        let total: usize = train.nnz() * mf_sparse::Rating::WIRE_BYTES;
        let out = train_out_of_core_virtual(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            Arc::new(RealFs),
            &dir,
            total / 2,
            IoSpec::default().scaled_down(1000.0),
            None,
            "OOC/virtual",
        )
        .unwrap();
        assert!(out.report.final_test_rmse < 0.5);
        let spill = out.report.spill.expect("spilled run must report counters");
        assert!(spill.bytes_read > 0, "the arena was never read");
        assert!(spill.evictions > 0, "half budget must evict");
        assert!(out.report.virtual_secs > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn plain_virtual_executor_trains_a_spilled_partition() {
        // No out-of-core front-end: the DES itself pins each task's
        // blocks, so any spilled partition trains on a plain executor.
        let (train, test) = low_rank_data(40, 36, 24);
        let cfg = test_cfg(4);
        let dir = scratch("plain");
        let spec = uniform_layout(&train, 4, 4);
        let total: usize = train.nnz() * mf_sparse::Rating::WIRE_BYTES;
        let part =
            spill_partition(&train, spec.clone(), Arc::new(RealFs), &dir, total / 4).unwrap();
        let out = train_with_executor_on(
            &part,
            train.mean_rating(),
            &test,
            UniformScheduler::new(spec, cfg.iterations, true),
            DevicePool {
                cpu_workers: 2,
                gpus: vec![],
                gpu_start: vec![],
            },
            &cfg,
            None,
            "plain",
            |_, _| {},
            &mut VirtualExecutor::new(),
        );
        assert_eq!(out.report.total_passes, 16 * cfg.iterations as u64);
        let spill = out.report.spill.expect("spilled run must report counters");
        assert!(spill.bytes_read > 0 && spill.evictions > 0, "{spill:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn real_out_of_core_matches_in_ram_exclusive() {
        let (train, test) = low_rank_data(40, 36, 22);
        let cfg = test_cfg(6);
        let pool = || DevicePool {
            cpu_workers: 2,
            gpus: vec![],
            gpu_start: vec![],
        };
        let make_sched =
            || UniformScheduler::new(uniform_layout(&train, 4, 4), cfg.iterations, true);
        let baseline = crate::runtime::run_training_real(
            &train,
            &test,
            make_sched(),
            pool(),
            &cfg,
            ExecMode::Exclusive,
            None,
            "in-ram",
        );
        let dir = scratch("real");
        let total: usize = train.nnz() * mf_sparse::Rating::WIRE_BYTES;
        let spilled = train_out_of_core_real(
            &train,
            &test,
            make_sched(),
            pool(),
            &cfg,
            ExecMode::Exclusive,
            Arc::new(RealFs),
            &dir,
            total / 4,
            None,
            "OOC/real",
        )
        .unwrap();
        assert_eq!(
            baseline.model, spilled.model,
            "spill-backed exclusive training must be bit-identical to in-RAM"
        );
        let counters = spilled.report.spill.unwrap();
        assert!(counters.bytes_read > 0, "the arena was never read");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_arena_fails_device_without_touching_factors() {
        // Flip one payload byte after writing the arena: the DES seat
        // must die with a typed failure instead of training on garbage,
        // and the run must end early via the failed-device path.
        let (train, test) = low_rank_data(32, 32, 23);
        let cfg = test_cfg(4);
        let dir = scratch("corrupt");
        let spec = uniform_layout(&train, 3, 3);
        let part =
            spill_partition(&train, spec.clone(), Arc::new(RealFs), &dir, usize::MAX / 4).unwrap();
        drop(part);
        // Corrupt one byte well inside the first block frame's payload.
        let path = dir.join(ARENA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = 48 + 8 + (spec.row_cuts().len() + spec.col_cuts().len()) * 4 + 8;
        let dir_end = header_end + spec.block_count() * 8 + 8;
        bytes[dir_end + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let spilled = GridPartition::open_spilled(Arc::new(RealFs), &path, usize::MAX / 4).unwrap();
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let out = train_with_executor_on(
            &spilled,
            train.mean_rating(),
            &test,
            sched,
            DevicePool {
                cpu_workers: 1,
                gpus: vec![],
                gpu_start: vec![],
            },
            &cfg,
            None,
            "corrupt",
            |_, _| {},
            &mut VirtualExecutor::new(),
        );
        // The single CPU device died on the bad block: strictly fewer
        // passes than the budget, and exact accounting for what did run,
        // the points of the block that never ran not among them.
        assert!(out.report.total_passes < 9 * cfg.iterations as u64);
        assert_points_are_released_passes(&spilled, &out.report);
        let _ = std::fs::remove_dir_all(dir);
    }
}
