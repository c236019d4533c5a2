//! Batched top-k: plan a query batch, then sweep each tile **once**.
//!
//! The per-query scan in [`crate::store`] re-streams every item tile
//! from memory for every query — at serving sizes the factor matrix
//! does not fit in cache, so throughput is pinned to memory bandwidth
//! no matter how fast the dot kernel is. This module restructures the
//! loop the way cuMF batches its GEMMs: group queries into a
//! [`BatchPlan`], then walk tiles in the *outer* loop and score a
//! register-resident panel of up to [`PANEL_W`] query factors against
//! each tile with [`mf_sgd::sweep::dot_panel`]. Each 512-item tile is
//! fetched from memory once per batch (once per task when the pool
//! splits the panels) and consumed by every panel while cache-hot, and
//! the dot arithmetic vectorizes across queries.
//!
//! # Answer preservation
//!
//! [`FactorStore::sweep_batch`] returns **bit-identical** answers to
//! [`FactorStore::serve_one`] (and therefore to `Model::recommend`) for
//! every query. The argument, in three steps — ARCHITECTURE.md §
//! "Batched serving" gives the full version:
//!
//! 1. **Batching is a loop interchange.** For any single query, the
//!    sweep still visits items in ascending id order and offers each
//!    non-excluded item's score to the same k-heap with the same
//!    `total_cmp` comparison. Other queries in the panel share the tile
//!    *reads* but no per-query state.
//! 2. **Same scores.** The panel kernel reproduces `kernel::dot`'s
//!    split-accumulator association order per query, so every score it
//!    offers has exactly the bits the serial scan would compute.
//! 3. **A superset of dots is harmless.** The batched sweep prunes at
//!    tile granularity (same bound, same slack, same total-order
//!    comparison as the serial scan) but not per item; anything the
//!    serial scan's finer pruning skipped is *provably losing*, so
//!    computing its score and offering it to the heap is a no-op.
//!
//! Per-(query, chunk) heap maintenance is kept off the hot path with an
//! integer *beat filter*: [`mf_sgd::sweep::panel_max_keys`] reduces
//! each 128-item score chunk to one [`total_key`] per query, and a
//! chunk whose max key does not exceed the key of the query's current
//! k-th best provably contains no heap update, so it is skipped with
//! one compare. Only chunks that actually displace something — a few
//! dozen per query over a whole catalog — are walked scalarly.
//!
//! # Deduplication
//!
//! Real traffic is Zipf-skewed, so identical `(user, count, exclude)`
//! queries recur within a batch. [`BatchPlan::build`] canonicalizes
//! exclude lists and groups identical queries; each unique group is
//! scanned once and its answer fanned back out to all members. Cache
//! accounting stays **per query**: a cached group's every member counts
//! one hit, a scanned group's every member counts one miss.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Mutex;

use mf_par::ThreadPool;
use mf_sgd::sweep::{self, total_key, PANEL_W};

use crate::store::{
    prunable, CacheKey, FactorStore, Query, QueryUser, Tile, TopK, Worst, BOUND_SLACK,
};

/// Items scored per inner step: the `128 × PANEL_W` f32 score scratch
/// is 8 KiB — half of L1 — and one beat-filter reduction covers 128
/// items at once.
const CHUNK_ITEMS: usize = 128;

/// One unique query and how many batch members it answers.
struct Group {
    /// The canonical query (exclude sorted + deduped).
    query: Query,
    /// How many batch positions map here.
    members: u32,
}

/// Identity of a query for grouping: factor queries group by exact bit
/// pattern (two NaN-free factors that differ in the last ulp are
/// different queries; two bit-equal ones are the same scan).
#[derive(PartialEq, Eq, Hash)]
enum UserKey {
    Id(u32),
    Factor(Vec<u32>),
}

/// A grouped, canonicalized query batch: the unit [`FactorStore::sweep_batch`]
/// executes. Duplicate queries — common under Zipf-skewed traffic —
/// collapse into one group each, so a batch of 1024 requests over a hot
/// user set may cost only a few hundred scans.
pub struct BatchPlan {
    groups: Vec<Group>,
    /// `assign[i]` = group index answering original query `i`.
    assign: Vec<u32>,
}

impl BatchPlan {
    /// Groups a batch: canonicalizes each exclude list (sort + dedup)
    /// and collapses queries identical under `(user, count, exclude)`.
    /// Group order is first-appearance order, so planning is
    /// deterministic.
    pub fn build(queries: &[Query]) -> BatchPlan {
        let mut groups: Vec<Group> = Vec::new();
        let mut assign = Vec::with_capacity(queries.len());
        let mut index: HashMap<(UserKey, usize, Vec<u32>), u32> = HashMap::new();
        for q in queries {
            let mut exclude = q.exclude.clone();
            exclude.sort_unstable();
            exclude.dedup();
            let ukey = match &q.user {
                QueryUser::Id(u) => UserKey::Id(*u),
                QueryUser::Factor(f) => UserKey::Factor(f.iter().map(|x| x.to_bits()).collect()),
            };
            match index.entry((ukey, q.count, exclude)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let ix = *e.get();
                    groups[ix as usize].members += 1;
                    assign.push(ix);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let ix = groups.len() as u32;
                    groups.push(Group {
                        query: Query {
                            user: q.user.clone(),
                            count: q.count,
                            exclude: e.key().2.clone(),
                        },
                        members: 1,
                    });
                    e.insert(ix);
                    assign.push(ix);
                }
            }
        }
        BatchPlan { groups, assign }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True when the batch has no queries.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of unique query groups (scans actually performed).
    pub fn unique(&self) -> usize {
        self.groups.len()
    }

    /// Fans per-group answers back out to the original query order.
    fn scatter(&self, answers: Vec<TopK>) -> Vec<TopK> {
        debug_assert_eq!(answers.len(), self.groups.len());
        self.assign
            .iter()
            .map(|&ix| answers[ix as usize].clone())
            .collect()
    }
}

/// Per-query scan state inside one panel. The beat-filter threshold
/// lives in [`PanelState::worst_keys`], not here, so the per-chunk mask
/// computation touches one flat array instead of chasing lane structs.
struct Lane<'a> {
    /// Index into the panel's output slots.
    slot: usize,
    count: usize,
    exclude: &'a [u32],
    p_norm: f32,
    heap: BinaryHeap<Worst>,
}

impl FactorStore {
    /// Answers a batch with the tile-sweep path on the process-wide
    /// pool. Bit-identical to mapping [`FactorStore::serve_one`] over
    /// `queries` — batching, deduplication, pruning, and the panel
    /// kernel are execution strategy, not semantics.
    pub fn sweep_batch(&self, queries: &[Query]) -> Vec<TopK> {
        self.sweep_batch_in(queries, ThreadPool::global())
    }

    /// [`FactorStore::sweep_batch`] on an explicit pool. Query panels
    /// are fixed by the plan (never by thread count or timing), each
    /// panel's sweep is independent, and cache updates happen serially
    /// in group order afterwards — so the answers *and* the cache state
    /// are the same for any thread count.
    pub fn sweep_batch_in(&self, queries: &[Query], pool: &ThreadPool) -> Vec<TopK> {
        let plan = BatchPlan::build(queries);
        let mut answers: Vec<Option<TopK>> = Vec::with_capacity(plan.groups.len());
        // Probe the cache per group under one lock; count per *member*
        // so the stats mean "queries answered from cache / by scanning"
        // even when batching collapses duplicates. `keys[i]` is group
        // `scan[i]`'s key, built once and kept for the publish phase.
        let mut scan: Vec<usize> = Vec::new();
        let mut keys: Vec<Option<CacheKey>> = Vec::new();
        {
            let mut cache = self.cache.as_ref().map(|c| c.lock().expect("cache lock"));
            for (ix, g) in plan.groups.iter().enumerate() {
                let key = self.canonical_cache_key(&g.query);
                if let (Some(cache), Some(key)) = (&mut cache, &key) {
                    if let Some(hit) = cache.get(key) {
                        self.hits
                            .fetch_add(g.members as u64, AtomicOrdering::Relaxed);
                        answers.push(Some(hit));
                        continue;
                    }
                    self.misses
                        .fetch_add(g.members as u64, AtomicOrdering::Relaxed);
                }
                answers.push(None);
                scan.push(ix);
                keys.push(key);
            }
        }
        // Sweep the uncached groups, a panel of PANEL_W at a time. One
        // task per pool thread, each owning a contiguous run of panels:
        // within a task, *tiles* are the outer loop, so each tile is
        // fetched from memory once per task (once per batch on a single
        // thread) and stays cache-resident across every panel. The run
        // length fixes the task count, not the reverse: 5 panels on 4
        // threads is 3 runs of 2, 2, 1 — there is no fourth.
        let panels: Vec<&[usize]> = scan.chunks(PANEL_W).collect();
        let per_task = panels.len().div_ceil(pool.threads()).max(1);
        let runs: Vec<&[&[usize]]> = panels.chunks(per_task).collect();
        let slots: Vec<Mutex<Vec<Vec<TopK>>>> =
            runs.iter().map(|_| Mutex::new(Vec::new())).collect();
        pool.run_indexed(runs.len(), |t| {
            let out = self.sweep_panels(&plan.groups, runs[t]);
            *slots[t].lock().expect("slot lock") = out;
        });
        for (run, slot) in runs.iter().zip(slots) {
            let outs = slot.into_inner().expect("slot lock");
            for (panel, out) in run.iter().zip(outs) {
                for (&g_ix, topk) in panel.iter().zip(out) {
                    answers[g_ix] = Some(topk);
                }
            }
        }
        // Publish scanned answers to the cache serially, in group
        // order and under one lock, so the LRU's recency order is
        // deterministic too.
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().expect("cache lock");
            for (&g_ix, key) in scan.iter().zip(keys) {
                if let Some(key) = key {
                    cache.insert(key, answers[g_ix].clone().expect("group swept"));
                }
            }
        }
        plan.scatter(
            answers
                .into_iter()
                .map(|a| a.expect("every group answered"))
                .collect(),
        )
    }

    /// Sweeps a contiguous run of panels with tiles as the *outer* loop:
    /// every panel's lanes advance through tile `t` before any panel
    /// sees tile `t + 1`, so one 512-item tile is fetched once per call
    /// and serves every query in the run while cache-hot. Per lane,
    /// items are still visited in ascending id order — the serial
    /// scan's order — so heap evolution (and thus the answer) is
    /// identical per query no matter how panels are grouped into runs.
    fn sweep_panels(&self, groups: &[Group], panels: &[&[usize]]) -> Vec<Vec<TopK>> {
        let k = self.k();
        let mut states: Vec<PanelState> = panels
            .iter()
            .map(|members| self.prepare_panel(groups, members))
            .collect();
        let mut scores = vec![0f32; CHUNK_ITEMS * PANEL_W];
        let mut keys = [0i32; PANEL_W];
        for tile in &self.tiles {
            for st in &mut states {
                sweep_tile(tile, k, st, &mut scores, &mut keys);
            }
        }
        states
            .into_iter()
            .zip(panels)
            .map(|(st, members)| finalize_panel(st, members.len()))
            .collect()
    }

    /// Builds one panel's scan state: a lane per non-trivial group plus
    /// the packed column-major query-factor panel they share.
    fn prepare_panel<'a>(&'a self, groups: &'a [Group], members: &[usize]) -> PanelState<'a> {
        let k = self.k();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut factors: Vec<&[f32]> = Vec::new();
        for (slot, &g_ix) in members.iter().enumerate() {
            let g = &groups[g_ix];
            if g.query.count == 0 {
                // Empty answers stay empty without a scan, exactly like
                // the serial path's early return.
                continue;
            }
            let p: &[f32] = match &g.query.user {
                QueryUser::Id(u) => self.user_factor(*u),
                QueryUser::Factor(f) => {
                    assert_eq!(f.len(), k, "query factor has wrong dimension");
                    f
                }
            };
            // Same expression as the serial scan, so prune decisions
            // agree bitwise (not that the answer depends on it: pruning
            // only ever skips provably-losing work).
            let p_norm = p.iter().map(|x| x * x).sum::<f32>().sqrt();
            factors.push(p);
            lanes.push(Lane {
                slot,
                count: g.query.count,
                exclude: &g.query.exclude,
                p_norm,
                heap: BinaryHeap::with_capacity(g.query.count + 1),
            });
        }
        let mut panel = Vec::new();
        if !lanes.is_empty() {
            sweep::pack_panel(&factors, k, &mut panel);
        }
        // `PANEL_W <= 32` so the lane masks fit a u32.
        let notfull = if lanes.is_empty() {
            0
        } else {
            u32::MAX >> (32 - lanes.len())
        };
        PanelState {
            lanes,
            panel,
            worst_keys: [i32::MAX; PANEL_W],
            notfull,
        }
    }
}

/// One packed panel mid-sweep: up to [`PANEL_W`] query lanes plus the
/// column-major factor panel they share. Lane state (heap, prune
/// threshold) persists across tiles, which is what lets the tile loop
/// sit *outside* the panel loop.
struct PanelState<'a> {
    lanes: Vec<Lane<'a>>,
    panel: Vec<f32>,
    /// Per-lane beat-filter thresholds: `total_key` of the lane's
    /// current k-th best once its heap is full, `i32::MAX` otherwise
    /// (so a not-yet-full or unused lane never looks beaten — those
    /// lanes are forced into the walk via `notfull` instead). Flat so
    /// the per-chunk mask is one branchless 16-wide compare.
    worst_keys: [i32; PANEL_W],
    /// Bitmask of lanes whose heap has not filled yet; they must walk
    /// every chunk regardless of the beat filter.
    notfull: u32,
}

/// Advances every lane of one panel through one tile. `scores` and
/// `keys` are caller-owned scratch (shared across panels so the chunk
/// buffer stays the same hot 8 KiB).
fn sweep_tile(
    tile: &Tile,
    k: usize,
    st: &mut PanelState,
    scores: &mut [f32],
    keys: &mut [i32; PANEL_W],
) {
    let PanelState {
        ref mut lanes,
        ref panel,
        ref mut worst_keys,
        ref mut notfull,
    } = *st;
    if lanes.is_empty() {
        return;
    }
    // Per-(query, tile) Cauchy–Schwarz prune — the serial scan's tile
    // bound, evaluated per lane.
    let mut active: u32 = 0;
    for (lane, l) in lanes.iter().enumerate() {
        let keep = if l.heap.len() == l.count {
            let worst = l.heap.peek().expect("full heap").score;
            !prunable(l.p_norm * tile.max_norm * BOUND_SLACK, worst)
        } else {
            true
        };
        active |= (keep as u32) << lane;
    }
    if active == 0 {
        return;
    }
    let len = tile.norms.len();
    let mut c = 0;
    while c < len {
        let clen = CHUNK_ITEMS.min(len - c);
        let rows = &tile.rows[c * k..(c + clen) * k];
        let chunk_scores = &mut scores[..clen * PANEL_W];
        sweep::dot_panel(panel, k, rows, chunk_scores);
        sweep::panel_max_keys(chunk_scores, keys);
        // Beat filter, branchless: a lane with a full heap survives the
        // chunk untouched unless some score's total-order key exceeds
        // its current worst's; not-yet-full lanes always walk. One
        // 16-wide compare and a single branch retire the common
        // nothing-to-do chunk.
        let mut need = *notfull;
        for lane in 0..PANEL_W {
            need |= ((keys[lane] > worst_keys[lane]) as u32) << lane;
        }
        need &= active;
        let first = tile.base + c as u32;
        let mut nm = need;
        while nm != 0 {
            let lane = nm.trailing_zeros() as usize;
            nm &= nm - 1;
            let l = &mut lanes[lane];
            let mut e = l.exclude.partition_point(|&x| x < first);
            for i in 0..clen {
                let item = first + i as u32;
                let score = chunk_scores[i * PANEL_W + lane];
                // Per-item beat filter once the heap is full: a score
                // whose total-order key does not exceed the current
                // worst's can neither enter the heap nor change the
                // exclusion outcome, so skip the cursor work entirely.
                // (`total_key` is order-isomorphic to `total_cmp`, so
                // this is the heap's own admission test, done early.)
                if l.heap.len() == l.count && total_key(score) <= worst_keys[lane] {
                    continue;
                }
                while e < l.exclude.len() && l.exclude[e] < item {
                    e += 1;
                }
                if e < l.exclude.len() && l.exclude[e] == item {
                    continue;
                }
                if l.heap.len() < l.count {
                    l.heap.push(Worst { item, score });
                    if l.heap.len() == l.count {
                        worst_keys[lane] = total_key(l.heap.peek().expect("full heap").score);
                        *notfull &= !(1u32 << lane);
                    }
                } else if score.total_cmp(&l.heap.peek().expect("full heap").score)
                    == std::cmp::Ordering::Greater
                {
                    l.heap.pop();
                    l.heap.push(Worst { item, score });
                    worst_keys[lane] = total_key(l.heap.peek().expect("full heap").score);
                }
            }
        }
        c += clen;
    }
}

/// Drains a panel's lanes into per-slot answers, sorted by the serial
/// scan's `(score desc, id asc)` total order.
fn finalize_panel(st: PanelState, nslots: usize) -> Vec<TopK> {
    let mut out: Vec<TopK> = vec![TopK { items: Vec::new() }; nslots];
    for l in st.lanes {
        let mut items: Vec<(u32, f32)> = l.heap.into_iter().map(|w| (w.item, w.score)).collect();
        items.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out[l.slot] = TopK { items };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_identical_queries() {
        let q = |u: u32, count: usize, excl: Vec<u32>| Query {
            user: QueryUser::Id(u),
            count,
            exclude: excl,
        };
        let batch = vec![
            q(1, 5, vec![3, 1, 3]),
            q(2, 5, vec![]),
            q(1, 5, vec![1, 3]), // same as #0 after canonicalization
            q(1, 6, vec![1, 3]), // different count → own group
            q(2, 5, vec![]),
        ];
        let plan = BatchPlan::build(&batch);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.unique(), 3);
        assert_eq!(plan.assign, vec![0, 1, 0, 2, 1]);
        assert_eq!(plan.groups[0].members, 2);
        assert_eq!(plan.groups[0].query.exclude, vec![1, 3]);
    }

    #[test]
    fn plan_groups_factor_queries_by_bits() {
        let f1 = vec![0.5f32, -0.25];
        let mut f2 = f1.clone();
        f2[1] = f32::from_bits((-0.25f32).to_bits() + 1); // one ulp off → different group
        let mk = |f: &Vec<f32>| Query {
            user: QueryUser::Factor(f.clone()),
            count: 3,
            exclude: vec![],
        };
        let plan = BatchPlan::build(&[mk(&f1), mk(&f2), mk(&f1)]);
        assert_eq!(plan.unique(), 2);
        assert_eq!(plan.groups[0].members, 2);
    }
}
