//! Conflict-aware block scheduling.
//!
//! Two policies, one interface:
//!
//! * [`UniformScheduler`] — the classic FPSGD policy over a uniform grid:
//!   any worker gets the *free* block (row band and column band both
//!   unoccupied) with the least update count. With a per-block pass cap it
//!   is CPU-Only/GPU-Only; without the cap it is HSGD, whose least-count
//!   policy under a fast GPU produces the update imbalance of Example 3.
//! * [`StarScheduler`] — the HSGD\* policy over a [`StarLayout`]: CPU
//!   threads draw small blocks from the CPU region, each GPU draws
//!   whole-group static tasks from its own row group, and when one side
//!   exhausts its region the dynamic phase lets it steal from the other at
//!   sub-row granularity.
//!
//! Schedulers hand out [`Task`]s and get them back via
//! [`BlockScheduler::release`]; between those calls the task's row bands
//! and column band are marked busy, which is the invariant that makes the
//! factor updates race-free.

use std::ops::Range;

use mf_sparse::{BlockId, FreeBlockPool, GridPartition, GridSpec};

use crate::layout::StarLayout;

/// Slack allowed above the per-block pass target. An *exact* cap
/// level-synchronizes the run: the last pass level drains with ever fewer
/// eligible blocks, chained by row/column conflicts, and measured time
/// balloons by 2-3× while workers idle. A slack of two passes bounds the
/// maximum at target + 2 while letting every worker stay busy until the
/// global budget is spent. It bounds nothing below: the budget is global,
/// so the passes some blocks take above the target leave others short of
/// it, and free-running workers drift further than exclusive rounds.
/// Contrast HSGD's unbounded skew in Example 3.
pub const SOFT_CAP_SLACK: u32 = 2;

/// Who is asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerClass {
    /// A CPU worker thread.
    Cpu,
    /// GPU number `g`.
    Gpu(u32),
}

/// A unit of assigned work: one or more blocks sharing a column band.
/// Multi-block tasks are GPU static-phase tasks (a whole row group in one
/// column, shipped as a single transfer).
#[derive(Debug, Clone)]
pub struct Task {
    /// The grid blocks, all in column `q_col_band`.
    pub blocks: Vec<BlockId>,
    /// Total ratings across the blocks.
    pub points: usize,
    /// Matrix rows spanned (for `P` transfer accounting).
    pub p_rows: Range<u32>,
    /// Matrix columns spanned (for `Q` transfer accounting).
    pub q_cols: Range<u32>,
    /// Pass number (minimum prior count among the blocks) — drives the
    /// learning-rate schedule.
    pub pass: u32,
    /// True when assigned across regions in the dynamic phase.
    pub stolen: bool,
}

/// The scheduling interface the trainer drives.
pub trait BlockScheduler {
    /// The grid this scheduler works over.
    fn spec(&self) -> &GridSpec;

    /// Tries to assign work to `who`. `None` means: nothing assignable
    /// right now (conflicts or no remaining passes for this class).
    fn next_task(&mut self, who: WorkerClass, part: &GridPartition) -> Option<Task>;

    /// Returns a finished task's bands to the free pool.
    fn release(&mut self, task: &Task);

    /// Takes back a task that was assigned but will **not** execute — its
    /// device failed before starting it. The inverse of `next_task`:
    /// bands are freed, per-block counts rewound, and the pass budget
    /// restored, so another device can be assigned the same work.
    /// `completed` is unchanged (nothing ran). Policies that cannot
    /// un-assign work keep this default, which panics — requeue support
    /// is what makes a policy safe to drive over failing devices.
    fn requeue(&mut self, task: &Task) {
        panic!(
            "scheduler cannot requeue {:?}: policy has no device-failure support",
            task.blocks
        );
    }

    /// Block passes not yet assigned.
    fn remaining(&self) -> u64;

    /// Block passes completed (released).
    fn completed(&self) -> u64;

    /// Per-block update counts, row-major over `spec()`.
    fn counts(&self) -> &[u32];

    /// Number of cross-region (dynamic phase) assignments so far.
    fn steals(&self) -> u64 {
        0
    }

    /// Feeds *measured* per-worker throughputs back into the policy:
    /// points/second sustained by one CPU thread and by one GPU, as
    /// observed by a real execution world. The default ignores the
    /// measurement; [`StarScheduler`] re-derives its dynamic steal
    /// break-even ratio from it, replacing the calibration-time estimate
    /// with reality (see [`StarScheduler::with_steal_ratio`]).
    fn observe_throughput(&mut self, _cpu_points_per_sec: f64, _gpu_points_per_sec: f64) {}

    /// Feeds *measured* block-cache behaviour of a spill-backed
    /// partition back into the policy: the cache hit rate so far and the
    /// sustained arena read bandwidth (bytes/second). Worlds call it
    /// alongside [`BlockScheduler::observe_throughput`] when the
    /// partition is out-of-core. The default ignores it;
    /// [`StarScheduler`] derives an IO penalty that raises its steal
    /// break-even depth when CPU compute is stalling on block loads.
    fn observe_io(&mut self, _hit_rate: f64, _io_bytes_per_sec: f64) {}

    /// The current dynamic-phase balance parameter, if this policy has
    /// one (`StarScheduler`'s steal break-even ratio). Reporting only.
    fn dynamic_ratio(&self) -> Option<f64> {
        None
    }
}

/// Shared busy-tracking helpers.
#[derive(Debug, Clone)]
struct Occupancy {
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
}

impl Occupancy {
    fn new(rows: u32, cols: u32) -> Occupancy {
        Occupancy {
            row_busy: vec![false; rows as usize],
            col_busy: vec![false; cols as usize],
        }
    }

    fn acquire(&mut self, task: &Task) {
        for b in &task.blocks {
            debug_assert!(!self.row_busy[b.row as usize], "row band already busy");
            self.row_busy[b.row as usize] = true;
        }
        let col = task.blocks[0].col;
        debug_assert!(!self.col_busy[col as usize], "column band already busy");
        self.col_busy[col as usize] = true;
    }

    fn release(&mut self, task: &Task) {
        for b in &task.blocks {
            debug_assert!(self.row_busy[b.row as usize]);
            self.row_busy[b.row as usize] = false;
        }
        self.col_busy[task.blocks[0].col as usize] = false;
    }
}

fn task_from_blocks(
    spec: &GridSpec,
    part: &GridPartition,
    blocks: Vec<BlockId>,
    pass: u32,
    stolen: bool,
) -> Task {
    debug_assert!(!blocks.is_empty());
    let col = blocks[0].col;
    debug_assert!(blocks.iter().all(|b| b.col == col));
    let points = blocks.iter().map(|&b| part.block_len(b)).sum();
    let row_start = blocks
        .iter()
        .map(|b| spec.row_range(b.row).start)
        .min()
        .unwrap();
    let row_end = blocks
        .iter()
        .map(|b| spec.row_range(b.row).end)
        .max()
        .unwrap();
    Task {
        points,
        p_rows: row_start..row_end,
        q_cols: spec.col_range(col),
        pass,
        stolen,
        blocks,
    }
}

// ---------------------------------------------------------------------------
// Uniform scheduler (CPU-Only / GPU-Only / HSGD)
// ---------------------------------------------------------------------------

/// FPSGD-style scheduling over a uniform grid — the paper's CPU-Only
/// baseline on either execution world.
///
/// Selection is delegated to a [`FreeBlockPool`]: grids of at most
/// [`mf_sparse::pool::SCAN_MAX_BLOCKS`] blocks take its linear scan,
/// larger ones its two-level heap (amortized O(log B)). The policy (least
/// count, row-major tie-break, per-block soft cap) is the same either way
/// — the pool tests cross-check the heap against the scan.
#[derive(Debug, Clone)]
pub struct UniformScheduler {
    spec: GridSpec,
    /// Free-block selection + per-block counts + band occupancy. The cap
    /// (`iterations + SOFT_CAP_SLACK` when per-block capping is on, `None`
    /// for the HSGD policy Example 3 shows can go badly unbalanced) lives
    /// inside the pool.
    pool: FreeBlockPool,
    remaining: u64,
    completed: u64,
}

impl UniformScheduler {
    /// Creates the scheduler. Total work is `blocks × iterations` passes;
    /// `cap_per_block` caps each block at `iterations + SOFT_CAP_SLACK`.
    pub fn new(spec: GridSpec, iterations: u32, cap_per_block: bool) -> UniformScheduler {
        let blocks = spec.block_count();
        UniformScheduler {
            pool: FreeBlockPool::new(
                spec.nrow_blocks(),
                spec.ncol_blocks(),
                cap_per_block.then_some(iterations + SOFT_CAP_SLACK),
            ),
            remaining: blocks as u64 * iterations as u64,
            completed: 0,
            spec,
        }
    }
}

impl BlockScheduler for UniformScheduler {
    fn spec(&self) -> &GridSpec {
        &self.spec
    }

    fn next_task(&mut self, _who: WorkerClass, part: &GridPartition) -> Option<Task> {
        if self.remaining == 0 {
            return None;
        }
        let (id, count) = self.pool.acquire()?;
        self.remaining -= 1;
        Some(task_from_blocks(&self.spec, part, vec![id], count, false))
    }

    fn release(&mut self, task: &Task) {
        debug_assert_eq!(task.blocks.len(), 1, "uniform tasks are single blocks");
        self.pool.release(task.blocks[0]);
        self.completed += task.blocks.len() as u64;
    }

    fn requeue(&mut self, task: &Task) {
        debug_assert_eq!(task.blocks.len(), 1, "uniform tasks are single blocks");
        self.pool.unacquire(task.blocks[0]);
        self.remaining += 1;
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn counts(&self) -> &[u32] {
        self.pool.counts()
    }
}

// ---------------------------------------------------------------------------
// Star scheduler (HSGD*)
// ---------------------------------------------------------------------------

/// The HSGD\* region/phase scheduler.
#[derive(Debug)]
pub struct StarScheduler {
    layout: StarLayout,
    occ: Occupancy,
    counts: Vec<u32>,
    target: u32,
    /// Signed pass budgets: slack (over-target) passes inside a group
    /// task can overdraw a budget, and keeping the debt (rather than
    /// saturating at zero) is what makes [`BlockScheduler::requeue`] an
    /// exact inverse of assignment. Every `> 0` check and the public
    /// [`BlockScheduler::remaining`] clamp at zero, so the debt is
    /// invisible outside this struct.
    cpu_remaining: i64,
    gpu_remaining: i64,
    completed: u64,
    dynamic_enabled: bool,
    steals: u64,
    /// How many GPU-column times one CPU thread needs per column —
    /// the break-even depth for CPU→R_g stealing (see `with_steal_ratio`).
    steal_ratio: f64,
    /// Multiplier ≥ 1 applied to measured CPU slowness when the
    /// partition is spill-backed: a CPU thief stalling on block loads is
    /// effectively slower than its busy-time rate suggests (the GPU's
    /// prefetch window hides the same IO), so the steal break-even depth
    /// rises by this factor. 1.0 (no effect) until
    /// [`BlockScheduler::observe_io`] reports a sub-unity hit rate.
    io_penalty: f64,
    /// Stolen R_g tasks currently in flight.
    active_stolen: u32,
}

impl StarScheduler {
    /// Creates the scheduler for `iterations` passes per block. The steal
    /// ratio defaults to 0 (always steal when idle); production callers
    /// should set it via [`StarScheduler::with_steal_ratio`].
    pub fn new(layout: StarLayout, iterations: u32, dynamic_enabled: bool) -> StarScheduler {
        let spec = &layout.spec;
        let cols = spec.ncol_blocks() as i64;
        let cpu_blocks = layout.cpu_bands as i64 * cols;
        let gpu_blocks = (layout.total_bands() - layout.cpu_bands) as i64 * cols;
        StarScheduler {
            occ: Occupancy::new(spec.nrow_blocks(), spec.ncol_blocks()),
            counts: vec![0; spec.block_count()],
            target: iterations,
            cpu_remaining: cpu_blocks * iterations as i64,
            gpu_remaining: gpu_blocks * iterations as i64,
            completed: 0,
            dynamic_enabled,
            steals: 0,
            steal_ratio: 0.0,
            io_penalty: 1.0,
            active_stolen: 0,
            layout,
        }
    }

    /// Sets the CPU→R_g steal break-even ratio: the number of GPU column
    /// times one CPU thread spends per stolen column
    /// (`t_cpu(column) / t_gpu(column)` from the calibrated cost models).
    ///
    /// A steal only pays when the GPU's remaining queue is deeper than the
    /// thief's own finishing time — otherwise the slow thief holds a
    /// column hostage that the fast owner would have cleared sooner. The
    /// gate admits a steal only while
    /// `remaining_column_passes > ratio + active_stolen`.
    pub fn with_steal_ratio(mut self, ratio: f64) -> StarScheduler {
        self.steal_ratio = ratio.max(0.0);
        self
    }

    /// The layout geometry.
    pub fn layout(&self) -> &StarLayout {
        &self.layout
    }

    /// The current steal break-even ratio (initially from
    /// [`StarScheduler::with_steal_ratio`], later possibly replaced by
    /// measured throughputs via
    /// [`BlockScheduler::observe_throughput`]).
    pub fn steal_ratio(&self) -> f64 {
        self.steal_ratio
    }

    /// Picks the least-count free single block among `bands`, or `None`.
    fn pick_single(&self, bands: Range<u32>) -> Option<(u32, BlockId)> {
        let spec = &self.layout.spec;
        let mut best: Option<(u32, BlockId)> = None;
        for r in bands {
            if self.occ.row_busy[r as usize] {
                continue;
            }
            for c in 0..spec.ncol_blocks() {
                if self.occ.col_busy[c as usize] {
                    continue;
                }
                let id = BlockId::new(r, c);
                let count = self.counts[spec.flat_index(id)];
                if count >= self.target + SOFT_CAP_SLACK {
                    continue;
                }
                if best.is_none_or(|(b, _)| count < b) {
                    best = Some((count, id));
                }
            }
        }
        best
    }

    /// Picks a static GPU task in `group`: for the best free column,
    /// every free, under-cap sub-block of the group.
    fn pick_group_task(&self, group: Range<u32>) -> Option<(u32, Vec<BlockId>)> {
        let spec = &self.layout.spec;
        // Preference order: the most *complete* task first (a full group in
        // one transfer — the big blocks Observation 1 wants), breaking ties
        // by least pass count. Fragmented tasks (some sub-rows stolen or
        // already capped) only run when nothing complete is available,
        // which keeps dynamic-phase stealing from starving the GPU into a
        // stream of tiny launches.
        let mut best: Option<(usize, u32, Vec<BlockId>)> = None;
        for c in 0..spec.ncol_blocks() {
            if self.occ.col_busy[c as usize] {
                continue;
            }
            let mut blocks = Vec::new();
            let mut min_count = u32::MAX;
            for r in group.clone() {
                if self.occ.row_busy[r as usize] {
                    continue;
                }
                let id = BlockId::new(r, c);
                let count = self.counts[spec.flat_index(id)];
                if count >= self.target + SOFT_CAP_SLACK {
                    continue;
                }
                min_count = min_count.min(count);
                blocks.push(id);
            }
            if blocks.is_empty() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((len, count, _)) => {
                    blocks.len() > *len || (blocks.len() == *len && min_count < *count)
                }
            };
            if better {
                best = Some((blocks.len(), min_count, blocks));
            }
        }
        best.map(|(_, count, blocks)| (count, blocks))
    }

    /// Chooses a GPU-region sub-block for a stealing CPU: among free
    /// columns with assignable sub-blocks, the column with the *least*
    /// remaining passes wins (ties to the lowest column), then the
    /// least-count free sub-block within it.
    fn pick_steal_from_gpu_region(&self) -> Option<(u32, BlockId)> {
        let spec = &self.layout.spec;
        let bands = self.layout.cpu_bands..self.layout.total_bands();
        let cap = self.target + SOFT_CAP_SLACK;
        let mut best_col: Option<(u64, u32)> = None; // (remaining, col)
        for c in 0..spec.ncol_blocks() {
            if self.occ.col_busy[c as usize] {
                continue;
            }
            let mut remaining = 0u64;
            let mut assignable = false;
            for r in bands.clone() {
                let count = self.counts[spec.flat_index(BlockId::new(r, c))];
                remaining += (self.target.max(count) - count.min(self.target)) as u64;
                if !self.occ.row_busy[r as usize] && count < cap {
                    assignable = true;
                }
            }
            if !assignable || remaining == 0 {
                continue;
            }
            if best_col.is_none_or(|(b, _)| remaining < b) {
                best_col = Some((remaining, c));
            }
        }
        let (_, col) = best_col?;
        let mut best: Option<(u32, BlockId)> = None;
        for r in bands {
            if self.occ.row_busy[r as usize] {
                continue;
            }
            let id = BlockId::new(r, col);
            let count = self.counts[spec.flat_index(id)];
            if count >= cap {
                continue;
            }
            if best.is_none_or(|(b, _)| count < b) {
                best = Some((count, id));
            }
        }
        best
    }

    fn assign(
        &mut self,
        part: &GridPartition,
        blocks: Vec<BlockId>,
        pass: u32,
        stolen: bool,
    ) -> Task {
        let spec = &self.layout.spec;
        for b in &blocks {
            self.counts[spec.flat_index(*b)] += 1;
            if self.layout.is_cpu_band(b.row) {
                self.cpu_remaining -= 1;
            } else {
                self.gpu_remaining -= 1;
            }
        }
        if stolen {
            self.steals += 1;
            if !self.layout.is_cpu_band(blocks[0].row) {
                self.active_stolen += 1;
            }
        }
        let task = task_from_blocks(spec, part, blocks, pass, stolen);
        self.occ.acquire(&task);
        task
    }
}

impl BlockScheduler for StarScheduler {
    fn spec(&self) -> &GridSpec {
        &self.layout.spec
    }

    fn next_task(&mut self, who: WorkerClass, part: &GridPartition) -> Option<Task> {
        match who {
            WorkerClass::Cpu => {
                // Own region first (while its budget lasts).
                if self.cpu_remaining > 0 {
                    if let Some((count, id)) = self.pick_single(0..self.layout.cpu_bands) {
                        return Some(self.assign(part, vec![id], count, false));
                    }
                }
                // Dynamic phase: steal GPU sub-rows once the CPU region is
                // fully assigned — with *column affinity*: finish the
                // column that is already closest to done before opening
                // another one. Scattering steals across many columns would
                // leave every column partially eaten, so the GPU could
                // never assemble a full group task again and would decay
                // into a stream of fragmented small launches.
                if self.dynamic_enabled && self.cpu_remaining == 0 && self.gpu_remaining > 0 {
                    let remaining_cols =
                        self.gpu_remaining as f64 / self.layout.sub_rows_per_gpu as f64;
                    if remaining_cols > self.steal_ratio + self.active_stolen as f64 {
                        if let Some((count, id)) = self.pick_steal_from_gpu_region() {
                            return Some(self.assign(part, vec![id], count, true));
                        }
                    }
                }
                None
            }
            WorkerClass::Gpu(g) => {
                if self.gpu_remaining > 0 {
                    // Two tiers: under-target work anywhere in the GPU
                    // region beats slack (over-target) work, so a GPU
                    // moves on to a sibling's group rather than burning
                    // budget re-running its own. Within a tier, the own
                    // group (pinned P segment) comes first.
                    let own = self.pick_group_task(self.layout.gpu_group_bands(g));
                    if let Some((count, blocks)) = &own {
                        if *count < self.target {
                            let blocks = blocks.clone();
                            return Some(self.assign(part, blocks, *count, false));
                        }
                    }
                    let mut fallback = own;
                    for other in 0..self.layout.ng {
                        if other == g {
                            continue;
                        }
                        if let Some((count, blocks)) =
                            self.pick_group_task(self.layout.gpu_group_bands(other))
                        {
                            if count < self.target {
                                return Some(self.assign(part, blocks, count, false));
                            }
                            if fallback.is_none() {
                                fallback = Some((count, blocks));
                            }
                        }
                    }
                    if let Some((count, blocks)) = fallback {
                        return Some(self.assign(part, blocks, count, false));
                    }
                }
                // Dynamic phase: steal CPU blocks once R_g is exhausted.
                if self.dynamic_enabled && self.gpu_remaining == 0 && self.cpu_remaining > 0 {
                    if let Some((count, id)) = self.pick_single(0..self.layout.cpu_bands) {
                        return Some(self.assign(part, vec![id], count, true));
                    }
                }
                None
            }
        }
    }

    fn release(&mut self, task: &Task) {
        self.occ.release(task);
        self.completed += task.blocks.len() as u64;
        if task.stolen && !self.layout.is_cpu_band(task.blocks[0].row) {
            self.active_stolen -= 1;
        }
    }

    fn requeue(&mut self, task: &Task) {
        let spec = &self.layout.spec;
        for b in &task.blocks {
            let idx = spec.flat_index(*b);
            assert!(self.counts[idx] > 0, "requeue of never-assigned block {b}");
            self.counts[idx] -= 1;
            if self.layout.is_cpu_band(b.row) {
                self.cpu_remaining += 1;
            } else {
                self.gpu_remaining += 1;
            }
        }
        if task.stolen {
            self.steals -= 1;
            if !self.layout.is_cpu_band(task.blocks[0].row) {
                self.active_stolen -= 1;
            }
        }
        self.occ.release(task);
    }

    fn remaining(&self) -> u64 {
        (self.cpu_remaining.max(0) + self.gpu_remaining.max(0)) as u64
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn counts(&self) -> &[u32] {
        &self.counts
    }

    fn steals(&self) -> u64 {
        self.steals
    }

    fn observe_throughput(&mut self, cpu_points_per_sec: f64, gpu_points_per_sec: f64) {
        // The break-even depth is t_cpu(column) / t_gpu(column); for
        // measured mean rates that collapses to the rate ratio. Guard
        // against warm-up garbage — a zero or non-finite rate keeps the
        // previous (calibrated or earlier-measured) ratio.
        if cpu_points_per_sec > 0.0
            && gpu_points_per_sec > 0.0
            && cpu_points_per_sec.is_finite()
            && gpu_points_per_sec.is_finite()
        {
            // On a spill-backed partition the effective CPU rate is
            // further divided by the IO penalty (cache misses stall the
            // thief between kernels; busy-time rates do not see that).
            self.steal_ratio = gpu_points_per_sec / cpu_points_per_sec * self.io_penalty;
        }
    }

    fn observe_io(&mut self, hit_rate: f64, _io_bytes_per_sec: f64) {
        // A hit rate of h means roughly 1/h arena touches per served
        // block; clamp the derived penalty so cold-start noise (h near 0
        // on the first few tasks) cannot freeze stealing entirely.
        if hit_rate.is_finite() && (0.0..=1.0).contains(&hit_rate) {
            self.io_penalty = (1.0 / hit_rate.max(0.25)).min(4.0);
        }
    }

    fn dynamic_ratio(&self) -> Option<f64> {
        Some(self.steal_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Rating, SparseMatrix};

    fn dense_matrix(m: u32, n: u32) -> SparseMatrix {
        let mut entries = Vec::new();
        for u in 0..m {
            for v in 0..n {
                entries.push(Rating::new(u, v, 1.0));
            }
        }
        SparseMatrix::new(m, n, entries).unwrap()
    }

    fn build_star(
        nc: u32,
        ng: u32,
        alpha: f64,
        iterations: u32,
        dynamic: bool,
    ) -> (StarScheduler, GridPartition) {
        let data = dense_matrix(64, 64);
        let layout = StarLayout::build(&data, nc, ng, alpha);
        let part = GridPartition::build(&data, layout.spec.clone());
        (StarScheduler::new(layout, iterations, dynamic), part)
    }

    #[test]
    fn uniform_assigns_conflict_free_blocks() {
        let data = dense_matrix(16, 16);
        let spec = GridSpec::uniform(16, 16, 4, 4);
        let part = GridPartition::build(&data, spec.clone());
        let mut sched = UniformScheduler::new(spec, 2, true);
        let t1 = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let t2 = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let t3 = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let t4 = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let ids = [t1.blocks[0], t2.blocks[0], t3.blocks[0], t4.blocks[0]];
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(!ids[i].conflicts_with(ids[j]), "{} vs {}", ids[i], ids[j]);
            }
        }
        // Grid is 4x4: a fifth concurrent task is impossible.
        assert!(sched.next_task(WorkerClass::Cpu, &part).is_none());
        // Releasing one frees its row and column.
        sched.release(&t1);
        assert!(sched.next_task(WorkerClass::Cpu, &part).is_some());
    }

    #[test]
    fn uniform_with_cap_finishes_exact_counts() {
        let data = dense_matrix(12, 12);
        let spec = GridSpec::uniform(12, 12, 3, 3);
        let part = GridPartition::build(&data, spec.clone());
        let mut sched = UniformScheduler::new(spec, 4, true);
        // Drain sequentially: with every block always free, min-count
        // selection keeps counts exactly level.
        while let Some(t) = sched.next_task(WorkerClass::Cpu, &part) {
            sched.release(&t);
        }
        assert_eq!(sched.remaining(), 0);
        assert!(sched.counts().iter().all(|&c| c == 4));
        assert_eq!(sched.completed(), 9 * 4);
    }

    /// The pre-pool `next_task`: an exhaustive O(rows × cols) scan for the
    /// least-count free block. Kept as the oracle the pool-backed
    /// scheduler is cross-checked against — deliberately *not* expressed
    /// via `FreeBlockPool::scan_reference_pick`, so this test stays an
    /// independent replica of the replaced implementation (own state, own
    /// pick loop) rather than validating the pool against itself.
    struct ScanOracle {
        rows: u32,
        cols: u32,
        row_busy: Vec<bool>,
        col_busy: Vec<bool>,
        counts: Vec<u32>,
        cap: Option<u32>,
    }

    impl ScanOracle {
        fn new(rows: u32, cols: u32, cap: Option<u32>) -> ScanOracle {
            ScanOracle {
                rows,
                cols,
                row_busy: vec![false; rows as usize],
                col_busy: vec![false; cols as usize],
                counts: vec![0; (rows * cols) as usize],
                cap,
            }
        }

        fn next(&mut self) -> Option<BlockId> {
            let mut best: Option<(u32, BlockId)> = None;
            for r in 0..self.rows {
                if self.row_busy[r as usize] {
                    continue;
                }
                for c in 0..self.cols {
                    if self.col_busy[c as usize] {
                        continue;
                    }
                    let count = self.counts[(r * self.cols + c) as usize];
                    if self.cap.is_some_and(|cap| count >= cap) {
                        continue;
                    }
                    if best.is_none_or(|(b, _)| count < b) {
                        best = Some((count, BlockId::new(r, c)));
                    }
                }
            }
            let (_, id) = best?;
            self.counts[(id.row * self.cols + id.col) as usize] += 1;
            self.row_busy[id.row as usize] = true;
            self.col_busy[id.col as usize] = true;
            Some(id)
        }

        fn release(&mut self, id: BlockId) {
            self.row_busy[id.row as usize] = false;
            self.col_busy[id.col as usize] = false;
        }
    }

    #[test]
    fn uniform_pool_matches_exhaustive_scan_oracle() {
        for cap_per_block in [true, false] {
            let iterations = 3;
            let data = dense_matrix(12, 20);
            let spec = GridSpec::uniform(12, 20, 6, 5);
            let part = GridPartition::build(&data, spec.clone());
            let mut sched = UniformScheduler::new(spec, iterations, cap_per_block);
            let cap = cap_per_block.then_some(iterations + SOFT_CAP_SLACK);
            let mut oracle = ScanOracle::new(6, 5, cap);
            let mut held: Vec<Task> = Vec::new();
            // Deterministic mixed acquire/release traffic, as a worker
            // pool would generate it.
            for step in 0..500u64 {
                if step % 4 == 3 && !held.is_empty() {
                    let t = held.remove(step as usize % held.len());
                    oracle.release(t.blocks[0]);
                    sched.release(&t);
                } else {
                    let want = if sched.remaining() == 0 {
                        None
                    } else {
                        oracle.next()
                    };
                    let got = sched.next_task(WorkerClass::Cpu, &part);
                    assert_eq!(
                        got.as_ref().map(|t| t.blocks[0]),
                        want,
                        "step {step}: pool pick diverged from scan oracle"
                    );
                    match got {
                        Some(t) => held.push(t),
                        None if held.is_empty() => break,
                        None => {}
                    }
                }
            }
            assert_eq!(sched.counts(), &oracle.counts[..]);
        }
    }

    #[test]
    fn uniform_requeue_restores_assignment() {
        let data = dense_matrix(12, 12);
        let spec = GridSpec::uniform(12, 12, 3, 3);
        let part = GridPartition::build(&data, spec.clone());
        let mut sched = UniformScheduler::new(spec, 2, true);
        let t = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let before_remaining = sched.remaining() + 1; // t holds one pass
        sched.requeue(&t);
        assert_eq!(sched.remaining(), before_remaining);
        assert_eq!(sched.completed(), 0, "a requeued task never ran");
        assert!(sched.counts().iter().all(|&c| c == 0));
        // The identical grant is offered again, and the full drain still
        // reaches exact per-block counts — the pass was not lost.
        let again = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        assert_eq!(again.blocks, t.blocks);
        assert_eq!(again.pass, t.pass);
        sched.release(&again);
        while let Some(t) = sched.next_task(WorkerClass::Cpu, &part) {
            sched.release(&t);
        }
        assert_eq!(sched.remaining(), 0);
        assert!(sched.counts().iter().all(|&c| c == 2));
    }

    #[test]
    fn star_requeue_is_exact_inverse_of_assignment() {
        let (mut sched, part) = build_star(2, 1, 0.5, 2, true);
        let remaining0 = sched.remaining();
        let counts0 = sched.counts().to_vec();
        // A multi-block GPU group task is the hardest case: several
        // blocks' counts and budget entries must all rewind.
        let t = sched.next_task(WorkerClass::Gpu(0), &part).unwrap();
        assert!(t.blocks.len() > 1);
        sched.requeue(&t);
        assert_eq!(sched.remaining(), remaining0);
        assert_eq!(sched.counts(), &counts0[..]);
        assert_eq!(sched.completed(), 0);
        let again = sched.next_task(WorkerClass::Gpu(0), &part).unwrap();
        assert_eq!(again.blocks, t.blocks, "identical task re-offered");
        sched.release(&again);
        // Requeue of a *stolen* task also rewinds the steal accounting.
        while let Some(t) = sched.next_task(WorkerClass::Cpu, &part) {
            if t.stolen {
                let steals = sched.steals();
                sched.requeue(&t);
                assert_eq!(sched.steals(), steals - 1);
                let redo = sched.next_task(WorkerClass::Cpu, &part).unwrap();
                sched.release(&redo);
                continue;
            }
            sched.release(&t);
        }
        // The run still drains completely after all that churn.
        loop {
            let cpu = sched.next_task(WorkerClass::Cpu, &part);
            let gpu = sched.next_task(WorkerClass::Gpu(0), &part);
            if cpu.is_none() && gpu.is_none() {
                break;
            }
            if let Some(t) = cpu {
                sched.release(&t);
            }
            if let Some(t) = gpu {
                sched.release(&t);
            }
        }
        assert_eq!(sched.remaining(), 0);
    }

    #[test]
    fn uncapped_hsgd_policy_can_skew_counts() {
        // Reproduce Example 3 mechanically: two slow "CPU" tasks pin rows
        // 0 and 1; a fast worker drains the rest of the budget from the
        // remaining rows. Without a per-block cap the counts skew heavily.
        let data = dense_matrix(12, 16);
        let spec = GridSpec::uniform(12, 16, 3, 4);
        let part = GridPartition::build(&data, spec.clone());
        let iterations = 10;
        let mut sched = UniformScheduler::new(spec, iterations, false);
        let slow_a = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        let slow_b = sched.next_task(WorkerClass::Cpu, &part).unwrap();
        // The "GPU" spins on whatever remains free.
        let mut fast_done = 0u64;
        while sched.remaining() > 0 {
            match sched.next_task(WorkerClass::Gpu(0), &part) {
                Some(t) => {
                    sched.release(&t);
                    fast_done += 1;
                }
                None => break,
            }
        }
        assert!(fast_done > 0);
        let max = *sched.counts().iter().max().unwrap();
        let min = *sched.counts().iter().min().unwrap();
        assert!(
            max >= 2 * iterations && min == 0,
            "expected heavy skew, got min={min} max={max}"
        );
        sched.release(&slow_a);
        sched.release(&slow_b);
    }

    #[test]
    fn star_gpu_gets_whole_group_tasks() {
        let (mut sched, part) = build_star(4, 1, 0.5, 2, false);
        let sub = sched.layout().sub_rows_per_gpu;
        let t = sched.next_task(WorkerClass::Gpu(0), &part).unwrap();
        assert_eq!(t.blocks.len(), sub as usize, "static task spans the group");
        // All in one column.
        assert!(t.blocks.iter().all(|b| b.col == t.blocks[0].col));
        // Block rows are exactly the group bands.
        let bands = sched.layout().gpu_group_bands(0);
        for (b, r) in t.blocks.iter().zip(bands) {
            assert_eq!(b.row, r);
        }
        assert!(t.points > 0);
    }

    #[test]
    fn star_cpu_stays_in_region_without_dynamic() {
        let (mut sched, part) = build_star(2, 1, 0.5, 1, false);
        let cpu_bands = sched.layout().cpu_bands;
        // Drain in rounds: grab every conflict-free block, then release
        // them all; stop when a fresh round yields nothing.
        let mut held: Vec<Task> = Vec::new();
        loop {
            if let Some(t) = sched.next_task(WorkerClass::Cpu, &part) {
                assert!(
                    t.blocks.iter().all(|b| b.row < cpu_bands),
                    "CPU must not leave its region when dynamic is off"
                );
                assert!(!t.stolen);
                held.push(t);
                continue;
            }
            if held.is_empty() {
                break;
            }
            for t in held.drain(..) {
                sched.release(&t);
            }
        }
        // CPU budget fully spent inside the region (soft caps allow a
        // per-block spread), GPU region untouched.
        let spec = sched.spec().clone();
        let mut cpu_total = 0u64;
        for r in 0..spec.nrow_blocks() {
            for c in 0..spec.ncol_blocks() {
                let count = sched.counts()[spec.flat_index(BlockId::new(r, c))];
                if r < cpu_bands {
                    assert!(count <= 1 + SOFT_CAP_SLACK, "cpu block B{r},{c}: {count}");
                    cpu_total += count as u64;
                } else {
                    assert_eq!(count, 0, "gpu block B{r},{c}");
                }
            }
        }
        assert_eq!(cpu_total, cpu_bands as u64 * spec.ncol_blocks() as u64);
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn star_dynamic_lets_cpu_steal_gpu_blocks() {
        let (mut sched, part) = build_star(2, 1, 0.5, 1, true);
        // Drain the CPU region sequentially.
        while let Some(t) = sched.next_task(WorkerClass::Cpu, &part) {
            let was_cpu = t.blocks[0].row < sched.layout().cpu_bands;
            sched.release(&t);
            if !was_cpu {
                assert!(t.stolen);
            }
        }
        // Everything is done: CPU finished its region then stole all of
        // the GPU's work.
        assert_eq!(sched.remaining(), 0);
        assert!(sched.steals() > 0);
        let total: u64 = sched.counts().iter().map(|&c| c as u64).sum();
        assert_eq!(total, sched.completed());
        assert!(sched.counts().iter().all(|&c| c <= 1 + SOFT_CAP_SLACK));
    }

    #[test]
    fn star_dynamic_lets_gpu_steal_cpu_blocks() {
        let (mut sched, part) = build_star(2, 1, 0.3, 1, true);
        while let Some(t) = sched.next_task(WorkerClass::Gpu(0), &part) {
            sched.release(&t);
        }
        assert_eq!(sched.remaining(), 0, "GPU should finish everything");
        assert!(sched.steals() > 0);
        assert!(sched.counts().iter().all(|&c| c <= 1 + SOFT_CAP_SLACK));
    }

    #[test]
    fn star_no_dynamic_leaves_other_region() {
        let (mut sched, part) = build_star(2, 1, 0.4, 1, false);
        while let Some(t) = sched.next_task(WorkerClass::Gpu(0), &part) {
            sched.release(&t);
        }
        // GPU drained its region but cannot touch the CPU's.
        assert!(sched.remaining() > 0);
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn multi_gpu_groups_are_disjoint() {
        let (mut sched, part) = build_star(4, 2, 0.6, 1, false);
        let t0 = sched.next_task(WorkerClass::Gpu(0), &part).unwrap();
        let t1 = sched.next_task(WorkerClass::Gpu(1), &part).unwrap();
        // Tasks from different groups never share bands or columns.
        for a in &t0.blocks {
            for b in &t1.blocks {
                assert!(!a.conflicts_with(*b));
            }
        }
        sched.release(&t0);
        sched.release(&t1);
    }

    #[test]
    fn gpu_helps_other_group_when_own_is_done() {
        let (mut sched, part) = build_star(4, 2, 0.6, 1, false);
        // GPU 0 drains its own group...
        let own = sched.layout().gpu_group_bands(0);
        while let Some(t) = sched.next_task(WorkerClass::Gpu(0), &part) {
            let in_own = t.blocks[0].row < own.end && t.blocks[0].row >= own.start;
            sched.release(&t);
            if !in_own {
                // ...then moves into GPU 1's group.
                assert!(sched.layout().gpu_of_band(t.blocks[0].row) == Some(1));
                return; // observed the helping behaviour
            }
        }
        panic!("GPU 0 never helped group 1");
    }
}
