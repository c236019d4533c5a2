//! Out-of-core training: disk as one more asynchronous device.
//!
//! A spill-backed [`GridPartition`] keeps its rating blocks in an
//! on-disk arena (`mf_sparse::arena`, the `MFCK` v3 format) behind a
//! byte-budgeted LRU cache. This module closes the loop on the trainer
//! side so block *loads* overlap SGD *compute* exactly like H2D
//! transfers do:
//!
//! * In the virtual-time world, [`PrefetchDevice`] wraps every device
//!   ([`crate::trainer::VirtualExecutor::with_device_wrapper`]) and
//!   models each cache miss as a read on a shared single-disk
//!   [`IoTimeline`] — the same treatment `gpu-sim` gives the PCIe bus.
//!   A GPU's two-deep in-flight window then hides the prefetched
//!   task's IO behind the current kernel, and any device's IO overlaps
//!   every other device's compute.
//! * In the real-thread world, a [`Prefetcher`] IO thread per arena
//!   warms upcoming blocks through a depth-[`PREFETCH_WINDOW`] fetch
//!   window (mirroring the GPU worker's task window) while workers
//!   compute; the workers' pin path then mostly hits.
//!
//! Determinism is preserved where the in-RAM worlds guarantee it:
//! [`PrefetchDevice`] inherits its inner device's queue depth and only
//! moves *completion times*, never the dispatch/release sequence of a
//! single-slot DES run; the exclusive-mode real runtime derives each
//! round purely from scheduler state, so warming is invisible to the
//! result. Training on a spilled partition is therefore bit-identical
//! to in-RAM for any cache budget that admits forward progress (see
//! `tests/spill_identity.rs` at the workspace root).
//!
//! A failed block load (torn frame, checksum mismatch) is a *typed*
//! failure: the device reports [`DeviceHealth::Failed`] without running
//! the kernel, and the failed-device drain requeues its work — corrupt
//! bytes never reach a kernel, mirroring the checkpoint loader's
//! fail-closed rule.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mf_des::SimTime;
use mf_sgd::{HyperParams, Model};
use mf_sparse::{ArenaError, BlockOrder, GridPartition, GridSpec, SparseMatrix, SpillHandle, Vfs};

use crate::config::HeteroConfig;
use crate::executor::{
    train_with_executor_on, Device, DeviceCompletion, DeviceHealth, DevicePool, HealthCell,
    TrainOutcome,
};
use crate::runtime::{lock, ExecMode, ThreadedExecutor};
use crate::scheduler::{BlockScheduler, Task};
use crate::trainer::{DeviceWrapper, VirtualExecutor};

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

#[derive(Debug, Default, Clone, Copy)]
struct IoTimelineState {
    free: SimTime,
    busy_secs: f64,
}

/// The shared single-disk timeline of the virtual world: every
/// [`PrefetchDevice`] over one arena serializes its modeled reads here,
/// so concurrent misses queue behind each other exactly like kernel
/// launches queue on one GPU.
#[derive(Debug, Default)]
pub struct IoTimeline(Mutex<IoTimelineState>);

impl IoTimeline {
    /// Reserves `secs` of disk time starting no earlier than `now`;
    /// returns the completion instant.
    fn reserve(&self, now: SimTime, secs: f64) -> SimTime {
        let mut st = lock(&self.0);
        let start = if st.free > now { st.free } else { now };
        let done = start + SimTime::from_secs(secs);
        st.free = done;
        st.busy_secs += secs;
        done
    }

    /// Total modeled seconds the disk spent reading.
    pub fn busy_secs(&self) -> f64 {
        lock(&self.0).busy_secs
    }
}

/// A virtual device whose block inputs live in a spill arena: on each
/// task it pins the task's blocks (loading misses through the cache),
/// charges the modeled read time to the shared [`IoTimeline`], and only
/// then lets the inner device start — so the kernel's modeled start is
/// `max(device free, IO done)`, the same max-of-pipelines shape as the
/// GPU H2D/kernel/D2H cost model.
///
/// Queue depth is inherited from the inner device, so a GPU keeps its
/// two-deep prefetch window (the *next* task's IO overlaps the current
/// kernel) and a CPU worker stays single-slot (its dispatch/release
/// sequence — and hence bit-determinism — is untouched).
pub struct PrefetchDevice {
    inner: Box<dyn Device>,
    io: IoSpec,
    timeline: Arc<IoTimeline>,
    health: Arc<HealthCell>,
}

impl PrefetchDevice {
    /// Wraps `inner`, sharing `timeline` with the other devices over the
    /// same arena.
    pub fn new(inner: Box<dyn Device>, io: IoSpec, timeline: Arc<IoTimeline>) -> PrefetchDevice {
        PrefetchDevice {
            inner,
            io,
            timeline,
            health: Arc::new(HealthCell::new()),
        }
    }

    /// The health cell this wrapper fails on a bad block load.
    pub fn health_handle(&self) -> Arc<HealthCell> {
        Arc::clone(&self.health)
    }
}

impl Device for PrefetchDevice {
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn health(&self) -> DeviceHealth {
        if self.health.is_failed() {
            DeviceHealth::Failed
        } else {
            self.inner.health()
        }
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
        let Some(handle) = part.spill() else {
            return self.inner.process(now, model, part, task, gamma, hyper);
        };
        // Bytes that must come off the disk for this task: exactly the
        // non-resident blocks (hits are free, like an H2D of data already
        // on the device).
        let spec = part.spec();
        let mut miss_bytes = 0u64;
        for &b in &task.blocks {
            let flat = spec.flat_index(b);
            if !handle.is_resident(flat) {
                miss_bytes += handle.block_wire_bytes(flat) as u64;
            }
        }
        if let Err(e) = part.pin_blocks(&task.blocks) {
            // Typed failure: never run a kernel over bytes that did not
            // verify. The device dies; the world's failed-device drain
            // requeues this task for a healthy device.
            eprintln!("spill: block load failed, failing device: {e}");
            self.health.fail();
            return DeviceCompletion {
                done: now,
                busy_secs: 0.0,
                cost: None,
            };
        }
        let ready = if miss_bytes == 0 {
            now
        } else {
            self.timeline.reserve(now, self.io.time_secs(miss_bytes))
        };
        let comp = self.inner.process(ready, model, part, task, gamma, hyper);
        // The DES applies the task's arithmetic inside `process`, so the
        // pins can drop immediately — nothing touches the slices after.
        part.unpin_blocks(&task.blocks);
        comp
    }
}

/// Builds a [`VirtualExecutor`] device wrapper that threads every device
/// through a [`PrefetchDevice`] over one shared disk timeline. Returns
/// the timeline too, so callers can read the modeled IO busy time (the
/// overlap denominator in the bench's IO-overlap fraction).
pub fn prefetch_wrapper(io: IoSpec) -> (Box<DeviceWrapper>, Arc<IoTimeline>) {
    let timeline = Arc::new(IoTimeline::default());
    let shared = Arc::clone(&timeline);
    (
        Box::new(move |dev, _class| Box::new(PrefetchDevice::new(dev, io, Arc::clone(&shared)))),
        timeline,
    )
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
/// arena under `dir`, then runs the DES with every device wrapped in a
/// [`PrefetchDevice`] so modeled block reads overlap modeled compute.
/// `report.spill` carries the cache counters.
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
    let (wrap, _timeline) = prefetch_wrapper(io);
    let mut exec = VirtualExecutor::new().with_device_wrapper(wrap);
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
    use crate::config::{CostModelKind, CpuSpec};
    use crate::layout::uniform_layout;
    use crate::scheduler::UniformScheduler;
    use mf_sgd::HyperParams;
    use mf_sparse::{Rating, RealFs};

    fn low_rank_data(m: u32, n: u32, seed: u64) -> (SparseMatrix, SparseMatrix) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<[f32; 2]> = (0..m).map(|_| [rng.random(), rng.random()]).collect();
        let b: Vec<[f32; 2]> = (0..n).map(|_| [rng.random(), rng.random()]).collect();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for u in 0..m {
            for v in 0..n {
                let x: f32 = rng.random();
                if x < 0.7 {
                    let r = 1.0
                        + 2.0
                            * (a[u as usize][0] * b[v as usize][0]
                                + a[u as usize][1] * b[v as usize][1]);
                    if x < 0.6 {
                        train.push(Rating::new(u, v, r));
                    } else {
                        test.push(Rating::new(u, v, r));
                    }
                }
            }
        }
        (
            SparseMatrix::new(m, n, train).unwrap(),
            SparseMatrix::new(m, n, test).unwrap(),
        )
    }

    fn test_cfg(iterations: u32) -> HeteroConfig {
        HeteroConfig {
            hyper: HyperParams {
                k: 8,
                lambda_p: 0.01,
                lambda_q: 0.01,
                gamma: 0.05,
                schedule: mf_sgd::LearningRate::Fixed,
            },
            nc: 4,
            ng: 0,
            gpu: gpu_sim::GpuSpec::default().scaled_down(1000.0),
            cpu: CpuSpec::default(),
            iterations,
            seed: 9,
            dynamic_scheduling: true,
            cost_model: CostModelKind::Tailored,
            probe_interval_secs: None,
            target_rmse: None,
        }
    }

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
        let tl = IoTimeline::default();
        let a = tl.reserve(SimTime::ZERO, 1.0);
        assert!((a.as_secs() - 1.0).abs() < 1e-12);
        // A second read issued at t=0 queues behind the first.
        let b = tl.reserve(SimTime::ZERO, 0.5);
        assert!((b.as_secs() - 1.5).abs() < 1e-12);
        // A read issued after the disk went idle starts immediately.
        let c = tl.reserve(SimTime::from_secs(10.0), 0.25);
        assert!((c.as_secs() - 10.25).abs() < 1e-12);
        assert!((tl.busy_secs() - 1.75).abs() < 1e-12);
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
        // Flip one payload byte after writing the arena: the DES device
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
        let (wrap, _tl) = prefetch_wrapper(IoSpec::default().scaled_down(1000.0));
        let mut exec = VirtualExecutor::new().with_device_wrapper(wrap);
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
            &mut exec,
        );
        // The single CPU device died on the bad block: strictly fewer
        // passes than the budget, and exact accounting for what did run.
        assert!(out.report.total_passes < 9 * cfg.iterations as u64);
        let _ = std::fs::remove_dir_all(dir);
    }
}
