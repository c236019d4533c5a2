//! The crash-safe continuous train-and-serve loop: epoch-versioned
//! serving plus incremental durable checkpoints.
//!
//! Two halves, joined by an atomic pointer flip:
//!
//! * [`LiveStore`] — readers always hold a complete, immutable
//!   [`FactorStore`] at some epoch N. Publishing N+1 swaps an
//!   `Arc` pointer under a lock held only for the swap/clone itself
//!   (no reader ever waits behind a store build or a disk write), so a
//!   reader observes either all of version N or all of N+1 — never a
//!   half-swapped hybrid. The result cache is keyed by epoch already,
//!   so stale hits are structurally impossible. Staleness (trainer
//!   epoch minus serving epoch) is recorded per read into an
//!   [`hsgd_core::stats::EpochLag`].
//! * [`LiveTrainer`] — the single-writer side: ingest ratings, fold in
//!   unseen users/items (the model grows), run SGD passes over the new
//!   ratings, then persist the epoch *incrementally* as an `MFCK` v2
//!   delta of exactly the touched rows ([`crate::delta`]), through the
//!   atomic-publish discipline of [`mf_sparse::vfs`]. Every
//!   `snapshot_every` epochs the trainer re-bases with a full v1
//!   snapshot so recovery chains stay short.
//!
//! **Cost of an epoch.** O(batch + new ids + touched rows) before the
//! record write and the store build: fold-in groups the batch by new id
//! in one stable counting pass per side (each id's ratings keep batch
//! order), the touched rows are sorted, deduplicated id vectors the
//! delta writer borrows, and the serving store is encoded straight from
//! the trainer's borrowed factors. The record write is bound by its
//! fsync, so the store is built on a scoped thread while the record is
//! written and synced; the swap waits for both.
//!
//! **Durability contract.** An epoch is *acked* once its record is
//! published (fsync + rename). If a write fails (ENOSPC, crash), the
//! epoch is simply not acked: its touched rows stay in the trainer's
//! touched set and roll into the next successful delta, whose
//! `base_epoch` is the last *acked* epoch — so the on-disk chain never
//! has holes, and [`crate::delta::recover`] always reconstructs exactly
//! the last acked state. Serving, by design, may run ahead of
//! durability (the freshest model serves even while the disk is
//! misbehaving); a restart rewinds to the last acked epoch.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hsgd_core::stats::EpochLag;
use mf_sgd::{kernel, Model};

use crate::checkpoint::{self, CheckpointMeta};
use crate::delta::{self, DeltaMeta, Recovery};
use crate::foldin::{FoldIn, FoldInConfig};
use crate::store::FactorStore;
use mf_sparse::vfs::Vfs;

/// The reader-facing side of the live loop: a versioned, atomically
/// swappable [`FactorStore`].
pub struct LiveStore {
    /// The serving version. The mutex guards only the pointer swap and
    /// clone — O(1), never held across a build, a scan, or I/O.
    current: Mutex<Arc<FactorStore>>,
    serving_epoch: AtomicU64,
    trained_epoch: AtomicU64,
    swaps: AtomicU64,
    lag: Mutex<EpochLag>,
}

impl LiveStore {
    /// A live store serving `store` as its first version.
    pub fn new(store: FactorStore) -> Arc<LiveStore> {
        let epoch = store.epoch();
        Arc::new(LiveStore {
            current: Mutex::new(Arc::new(store)),
            serving_epoch: AtomicU64::new(epoch),
            trained_epoch: AtomicU64::new(epoch),
            swaps: AtomicU64::new(0),
            lag: Mutex::new(EpochLag::new()),
        })
    }

    /// The current serving version. Readers keep the returned `Arc` for
    /// a whole request; a concurrent publish never invalidates it —
    /// old versions die when their last reader drops them. Records one
    /// staleness sample (trainer epoch − serving epoch).
    pub fn current(&self) -> Arc<FactorStore> {
        let store = self.current.lock().expect("poisoned").clone();
        let lag = self
            .trained_epoch
            .load(Ordering::Acquire)
            .saturating_sub(store.epoch());
        self.lag.lock().expect("poisoned").record(lag);
        store
    }

    /// The trainer announces it finished computing `epoch` (before the
    /// store for it is built) — the clock staleness is measured
    /// against.
    pub fn mark_trained(&self, epoch: u64) {
        self.trained_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Atomically swaps the serving version to `store`.
    ///
    /// # Panics
    ///
    /// Panics unless `store.epoch()` strictly exceeds the serving
    /// epoch — versions move forward only, so a reader can treat epoch
    /// as a monotonic clock.
    pub fn publish(&self, store: FactorStore) {
        let epoch = store.epoch();
        self.mark_trained(epoch);
        let mut cur = self.current.lock().expect("poisoned");
        assert!(
            epoch > cur.epoch(),
            "non-monotonic publish: epoch {epoch} after {}",
            cur.epoch()
        );
        *cur = Arc::new(store);
        // Ordering: serving_epoch trails the swap; readers that load it
        // see an epoch ≤ the store `current()` hands them.
        self.serving_epoch.store(epoch, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Epoch of the version readers get right now.
    pub fn serving_epoch(&self) -> u64 {
        self.serving_epoch.load(Ordering::Acquire)
    }

    /// Newest epoch the trainer has finished computing.
    pub fn trained_epoch(&self) -> u64 {
        self.trained_epoch.load(Ordering::Acquire)
    }

    /// Completed version swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// The staleness distribution observed by readers so far.
    pub fn lag_stats(&self) -> EpochLag {
        self.lag.lock().expect("poisoned").clone()
    }
}

impl std::fmt::Debug for LiveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveStore")
            .field("serving_epoch", &self.serving_epoch())
            .field("trained_epoch", &self.trained_epoch())
            .field("swaps", &self.swaps())
            .finish()
    }
}

/// Hyper-parameters of the live loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// SGD step size for online updates over newly ingested ratings.
    pub gamma: f32,
    /// Ridge term for both factor sides.
    pub lambda: f32,
    /// Passes over each epoch's new ratings.
    pub passes: u32,
    /// Fold-in solve parameters for unseen users/items.
    pub foldin: FoldInConfig,
    /// Write a full re-basing snapshot when the chain from the last
    /// snapshot reaches this many epochs (≥ 1; 1 = snapshot always,
    /// never a delta).
    pub snapshot_every: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            gamma: 0.02,
            lambda: 0.02,
            passes: 2,
            foldin: FoldInConfig::default(),
            snapshot_every: 8,
        }
    }
}

/// What kind of durable record an epoch produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Full v1 `MFCK` snapshot (re-base).
    Snapshot,
    /// v2 delta of the rows touched since the last acked epoch.
    Delta,
}

/// The outcome of one [`LiveTrainer::step`].
#[derive(Debug)]
pub struct EpochReport {
    /// The epoch this step completed.
    pub epoch: u64,
    /// Ratings trained on.
    pub ingested: usize,
    /// New user rows folded in.
    pub folded_users: u32,
    /// New item rows folded in.
    pub folded_items: u32,
    /// The record kind this epoch attempted to persist.
    pub kind: RecordKind,
    /// File name of the record (attempted; durable only if acked).
    pub file: String,
    /// Bytes the record serialized to (0 when the write failed before
    /// completing).
    pub bytes: u64,
    /// Whether the record was durably published. When `false`, the
    /// epoch's touched rows roll into the next record and
    /// [`EpochReport::ckpt_error`] says why.
    pub acked: bool,
    /// The publish failure, when not acked.
    pub ckpt_error: Option<io::Error>,
}

/// The single-writer trainer of the live loop. See the module docs for
/// the durability contract.
pub struct LiveTrainer {
    fs: Arc<dyn Vfs>,
    dir: PathBuf,
    cfg: LiveConfig,
    seed: u64,
    model: Model,
    /// Last completed (trained, possibly unacked) epoch.
    epoch: u64,
    /// Last durably published epoch.
    acked_epoch: u64,
    /// Epoch of the last durable full snapshot.
    snapshot_epoch: u64,
    /// User (`touched_p`) and item (`touched_q`) rows touched since
    /// `acked_epoch`: ascending and unique at the end of every `step`,
    /// across unacked epochs too, so they are the delta's row lists as
    /// they stand. Each step appends its ids and re-sorts once,
    /// O(touched · log touched).
    touched_p: Vec<u32>,
    touched_q: Vec<u32>,
    pending: Vec<(u32, u32, f32)>,
    live: Arc<LiveStore>,
}

impl LiveTrainer {
    /// Starts a live loop from a trained model: writes the base
    /// snapshot at `meta.epoch` (everything later chains from it) and
    /// begins serving it.
    ///
    /// # Errors
    ///
    /// The base snapshot write — without a durable base there is
    /// nothing to recover to, so the loop refuses to start.
    pub fn bootstrap(
        fs: Arc<dyn Vfs>,
        dir: PathBuf,
        model: Model,
        meta: CheckpointMeta,
        cfg: LiveConfig,
    ) -> io::Result<LiveTrainer> {
        assert!(cfg.snapshot_every >= 1, "snapshot_every must be ≥ 1");
        let name = checkpoint::epoch_file_name(meta.epoch);
        fs.publish(&dir, &name, &mut |w| {
            checkpoint::write_checkpoint(&model, meta, w)
        })?;
        let live = LiveStore::new(FactorStore::from_model(&model, meta.epoch));
        Ok(LiveTrainer {
            fs,
            dir,
            cfg,
            seed: meta.seed,
            model,
            epoch: meta.epoch,
            acked_epoch: meta.epoch,
            snapshot_epoch: meta.epoch,
            touched_p: Default::default(),
            touched_q: Default::default(),
            pending: Vec::new(),
            live,
        })
    }

    /// Resumes a live loop from a [`Recovery`] — the restart path after
    /// a crash. No write happens: the recovered epoch is already
    /// durable; the next snapshot is due `snapshot_every` epochs after
    /// the recovered chain's base.
    pub fn resume(
        fs: Arc<dyn Vfs>,
        dir: PathBuf,
        recovery: Recovery,
        cfg: LiveConfig,
    ) -> LiveTrainer {
        assert!(cfg.snapshot_every >= 1, "snapshot_every must be ≥ 1");
        let ck = recovery.checkpoint;
        let live = LiveStore::new(FactorStore::from_model(&ck.model, ck.meta.epoch));
        LiveTrainer {
            fs,
            dir,
            cfg,
            seed: ck.meta.seed,
            epoch: ck.meta.epoch,
            acked_epoch: ck.meta.epoch,
            snapshot_epoch: recovery.base_epoch,
            model: ck.model,
            touched_p: Default::default(),
            touched_q: Default::default(),
            pending: Vec::new(),
            live,
        }
    }

    /// Queues one rating for the next epoch. Unseen user/item ids are
    /// folded in when the epoch runs.
    pub fn ingest(&mut self, user: u32, item: u32, rating: f32) {
        self.pending.push((user, item, rating));
    }

    /// The reader handle; clone freely across threads.
    pub fn live(&self) -> Arc<LiveStore> {
        self.live.clone()
    }

    /// The trainer's current model (the state serving will hold after
    /// the next publish).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Last completed epoch (may be ahead of [`LiveTrainer::acked_epoch`]
    /// when checkpoint writes are failing).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Last durably published epoch.
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch
    }

    /// A deterministic placeholder factor row for an id that arrived
    /// with no usable ratings (a gap in the new ids, or a new item rated
    /// only by new users): small pseudo-random entries derived from
    /// `(seed, side, id)`, the live-loop analogue of `Model::init`.
    fn seeded_row(&self, side: u8, id: u32) -> Vec<f32> {
        let k = self.model.k();
        let scale = 1.0 / (k as f32).sqrt();
        (0..k)
            .map(|j| {
                let h = mf_sparse::hash::xxh64(
                    &[
                        self.seed.to_le_bytes().as_slice(),
                        &[side],
                        &id.to_le_bytes(),
                        &(j as u32).to_le_bytes(),
                    ]
                    .concat(),
                );
                (h >> 40) as f32 / (1u64 << 24) as f32 * scale
            })
            .collect()
    }

    /// Grows the model with fold-in rows for every unseen user/item in
    /// `batch`. Items first (against existing user factors), then users
    /// (against the now-complete item set) — a deterministic policy, so
    /// replaying the same ingest stream reproduces the same factors.
    /// Returns `(new_users, new_items)`.
    ///
    /// O(batch + new ids): one stable counting pass per side groups the
    /// batch by new id — an item takes its ratings from known users
    /// (`v ≥ n0 && u < m0`), a user all of its ratings (`u ≥ m0`) — and
    /// each id's solve reads its own group, in batch order. No loop over
    /// new ids walks the batch. An id with no usable rating (a gap in
    /// the ids, or an item rated only by new users) gets
    /// [`LiveTrainer::seeded_row`].
    fn fold_in_unseen(&mut self, batch: &[(u32, u32, f32)]) -> (u32, u32) {
        let (m0, n0) = (self.model.nrows(), self.model.ncols());
        let max_item = batch.iter().map(|&(_, v, _)| v).max().unwrap_or(0);
        let max_user = batch.iter().map(|&(u, _, _)| u).max().unwrap_or(0);

        // Items: solve each new row against frozen existing-user
        // factors, then append all rows at once.
        if max_item >= n0 {
            let by_item = ById::group(
                n0,
                max_item,
                batch
                    .iter()
                    .filter(|&&(u, v, _)| v >= n0 && u < m0)
                    .map(|&(u, v, r)| (v, u, r)),
            );
            let fold = FoldIn::with_config(&self.model, self.cfg.foldin);
            let mut rows = Vec::new();
            for (i, v) in (n0..=max_item).enumerate() {
                let ratings = by_item.ratings(i);
                rows.extend(if ratings.is_empty() {
                    self.seeded_row(b'Q', v)
                } else {
                    fold.new_item(ratings)
                });
            }
            let (m, _, k, p, mut q) =
                std::mem::replace(&mut self.model, Model::constant(1, 1, 1, 0.0)).into_parts();
            q.extend_from_slice(&rows);
            self.model = Model::from_parts(m, max_item + 1, k, p, q);
            self.touched_q.extend(n0..=max_item);
        }

        // Users: every item an id rates now exists.
        if max_user >= m0 {
            let by_user = ById::group(
                m0,
                max_user,
                batch.iter().filter(|&&(u, _, _)| u >= m0).copied(),
            );
            let fold = FoldIn::with_config(&self.model, self.cfg.foldin);
            let mut rows = Vec::new();
            for (i, u) in (m0..=max_user).enumerate() {
                let ratings = by_user.ratings(i);
                rows.extend(if ratings.is_empty() {
                    self.seeded_row(b'P', u)
                } else {
                    fold.new_user(ratings)
                });
            }
            let (_, n, k, mut p, q) =
                std::mem::replace(&mut self.model, Model::constant(1, 1, 1, 0.0)).into_parts();
            p.extend_from_slice(&rows);
            self.model = Model::from_parts(max_user + 1, n, k, p, q);
            self.touched_p.extend(m0..=max_user);
        }
        (self.model.nrows() - m0, self.model.ncols() - n0)
    }

    /// Runs one epoch: fold in unseen ids, SGD over the pending
    /// ratings, persist (delta or re-basing snapshot) while the next
    /// serving store is built, then publish that store. Never fails the
    /// *training* side: a checkpoint write error leaves the epoch
    /// unacked (see the module docs) and is reported in the returned
    /// [`EpochReport`].
    pub fn step(&mut self) -> EpochReport {
        let batch = std::mem::take(&mut self.pending);
        let (folded_users, folded_items) = self.fold_in_unseen(&batch);
        for _ in 0..self.cfg.passes {
            for &(u, v, r) in &batch {
                let (pu, qv) = self.model.pq_rows_mut(u, v);
                kernel::sgd_step(pu, qv, r, self.cfg.gamma, self.cfg.lambda, self.cfg.lambda);
            }
        }
        self.touched_p.extend(batch.iter().map(|&(u, _, _)| u));
        self.touched_q.extend(batch.iter().map(|&(_, v, _)| v));
        for rows in [&mut self.touched_p, &mut self.touched_q] {
            rows.sort_unstable();
            rows.dedup();
        }
        self.epoch += 1;
        self.live.mark_trained(self.epoch);

        // Persist: re-base with a full snapshot when the delta chain is
        // long enough, else a delta of everything touched since the
        // last *acked* epoch.
        let snapshot_due = self.epoch - self.snapshot_epoch >= self.cfg.snapshot_every;
        let (kind, name) = if snapshot_due {
            (
                RecordKind::Snapshot,
                checkpoint::epoch_file_name(self.epoch),
            )
        } else {
            (RecordKind::Delta, delta::delta_file_name(self.epoch))
        };
        // The serving store is built while the record is written and
        // synced; both only read the model, and the swap waits for both.
        let ((write_res, bytes), store) = std::thread::scope(|s| {
            let build = s.spawn(|| FactorStore::from_model(&self.model, self.epoch));
            let written = self.write_record(kind, &name);
            let store = build
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (written, store)
        });
        let (acked, ckpt_error) = match write_res {
            Ok(()) => {
                self.acked_epoch = self.epoch;
                if kind == RecordKind::Snapshot {
                    self.snapshot_epoch = self.epoch;
                }
                self.touched_p.clear();
                self.touched_q.clear();
                (true, None)
            }
            // Unacked: touched rows stay put and roll into the next
            // record, whose base is still the last acked epoch.
            Err(e) => (false, Some(e)),
        };

        self.live.publish(store);
        EpochReport {
            epoch: self.epoch,
            ingested: batch.len(),
            folded_users,
            folded_items,
            kind,
            file: name,
            bytes,
            acked,
            ckpt_error,
        }
    }

    /// Publishes this epoch's record under `name`: a full snapshot, or a
    /// delta of the rows touched since the last acked epoch. Returns the
    /// publish result and the bytes the record serialized to.
    fn write_record(&self, kind: RecordKind, name: &str) -> (io::Result<()>, u64) {
        let (model, seed, epoch) = (&self.model, self.seed, self.epoch);
        let mut bytes = 0u64;
        let res = self.fs.publish(&self.dir, name, &mut |w| {
            let mut w = CountingWriter { inner: w, count: 0 };
            let res = match kind {
                RecordKind::Snapshot => {
                    checkpoint::write_checkpoint(model, CheckpointMeta { seed, epoch }, &mut w)
                }
                RecordKind::Delta => delta::write_delta(
                    model,
                    DeltaMeta {
                        seed,
                        epoch,
                        base_epoch: self.acked_epoch,
                    },
                    &self.touched_p,
                    &self.touched_q,
                    &mut w,
                ),
            };
            bytes = w.count;
            res
        });
        (res, bytes)
    }
}

impl std::fmt::Debug for LiveTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveTrainer")
            .field("epoch", &self.epoch)
            .field("acked_epoch", &self.acked_epoch)
            .field("snapshot_epoch", &self.snapshot_epoch)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Counts bytes flowing through a writer (for [`EpochReport::bytes`]).
struct CountingWriter<'a> {
    inner: &'a mut dyn Write,
    count: u64,
}

impl Write for CountingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A batch's ratings grouped by new id, for the ids `base..=last`: id
/// `base + i` owns `pairs[starts[i]..starts[i + 1]]`, its
/// `(other id, rating)` pairs in batch order.
struct ById {
    starts: Vec<usize>,
    pairs: Vec<(u32, f32)>,
}

impl ById {
    /// Groups `(id, other id, rating)` entries, every id in
    /// `base..=last`, with one stable counting sort.
    fn group(base: u32, last: u32, entries: impl Iterator<Item = (u32, u32, f32)> + Clone) -> ById {
        let ids = (last - base) as usize + 1;
        let mut starts = vec![0usize; ids + 1];
        for (id, _, _) in entries.clone() {
            starts[(id - base) as usize + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut starts {
            sum += *s;
            *s = sum;
        }
        let mut next = starts[..ids].to_vec();
        let mut pairs = vec![(0, 0.0); starts[ids]];
        for (id, other, r) in entries {
            let slot = &mut next[(id - base) as usize];
            pairs[*slot] = (other, r);
            *slot += 1;
        }
        ById { starts, pairs }
    }

    /// The ratings of id `base + i`.
    fn ratings(&self, i: usize) -> &[(u32, f32)] {
        &self.pairs[self.starts[i]..self.starts[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Query, QueryUser};
    use mf_sparse::RealFs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mf_serve_live_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn boot(dir: &std::path::Path, cfg: LiveConfig) -> LiveTrainer {
        LiveTrainer::bootstrap(
            Arc::new(RealFs),
            dir.to_path_buf(),
            Model::init(10, 12, 4, 7),
            CheckpointMeta { seed: 7, epoch: 0 },
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn epochs_ack_deltas_and_rebase_snapshots() {
        let dir = tmp_dir("ack");
        let mut t = boot(
            &dir,
            LiveConfig {
                snapshot_every: 3,
                ..Default::default()
            },
        );
        for e in 1..=6u64 {
            t.ingest(e as u32 % 10, e as u32 % 12, 3.0);
            let rep = t.step();
            assert!(rep.acked, "epoch {e}: {:?}", rep.ckpt_error);
            assert_eq!(rep.epoch, e);
            let expect_snapshot = e % 3 == 0;
            assert_eq!(
                rep.kind == RecordKind::Snapshot,
                expect_snapshot,
                "epoch {e}"
            );
            assert!(rep.bytes > 0);
        }
        // Recovery of the directory lands exactly on the last epoch.
        let rec = delta::recover(&dir).unwrap();
        assert_eq!(rec.epoch(), 6);
        assert_eq!(rec.base_epoch, 6); // epoch 6 was itself a snapshot
        assert_eq!(rec.checkpoint.model, *t.model());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unseen_ids_grow_the_model_and_survive_recovery() {
        let dir = tmp_dir("grow");
        let mut t = boot(&dir, LiveConfig::default());
        // User 10 and item 12 don't exist yet; item 13 arrives rated
        // only by the new user (the degenerate new×new pair).
        t.ingest(10, 3, 4.0);
        t.ingest(10, 13, 5.0);
        t.ingest(2, 12, 1.0);
        let rep = t.step();
        assert!(rep.acked);
        assert_eq!((rep.folded_users, rep.folded_items), (1, 2));
        assert_eq!(t.model().nrows(), 11);
        assert_eq!(t.model().ncols(), 14);
        // The new rows are real (non-zero) factors.
        assert!(t.model().p_row(10).iter().any(|&x| x != 0.0));
        assert!(t.model().q_row(13).iter().any(|&x| x != 0.0));
        let rec = delta::recover(&dir).unwrap();
        assert_eq!(rec.checkpoint.model, *t.model());
        assert_eq!(rec.deltas_applied, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn readers_swap_atomically_and_observe_bounded_lag() {
        let dir = tmp_dir("swap");
        let mut t = boot(&dir, LiveConfig::default());
        let live = t.live();
        let before = live.current();
        assert_eq!(before.epoch(), 0);
        t.ingest(1, 1, 5.0);
        t.step();
        // The old handle still serves version 0, complete and intact.
        assert_eq!(before.epoch(), 0);
        let after = live.current();
        assert_eq!(after.epoch(), 1);
        assert_eq!(live.serving_epoch(), 1);
        assert_eq!(live.swaps(), 1);
        // Every factor row in the new store matches the trainer model —
        // no partially-swapped hybrid.
        for u in 0..t.model().nrows() {
            assert_eq!(after.user_factor(u), t.model().p_row(u));
        }
        let top = after.serve_one(&Query {
            user: QueryUser::Id(1),
            count: 3,
            exclude: vec![],
        });
        assert_eq!(top.items.len(), 3);
        let lag = live.lag_stats();
        assert!(lag.count() >= 2);
        assert_eq!(lag.max(), 0, "single-threaded reads always see fresh state");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "non-monotonic publish")]
    fn non_monotonic_publish_panics() {
        let live = LiveStore::new(FactorStore::new(Model::init(2, 2, 2, 1), 5));
        live.publish(FactorStore::new(Model::init(2, 2, 2, 1), 5));
    }

    #[test]
    fn resume_continues_the_chain() {
        let dir = tmp_dir("resume");
        let mut t = boot(&dir, LiveConfig::default());
        for i in 0..3 {
            t.ingest(i, i, 2.0);
            assert!(t.step().acked);
        }
        let model_at_3 = t.model().clone();
        drop(t);
        let rec = delta::recover(&dir).unwrap();
        assert_eq!(rec.epoch(), 3);
        let mut t2 = LiveTrainer::resume(Arc::new(RealFs), dir.clone(), rec, LiveConfig::default());
        assert_eq!(*t2.model(), model_at_3);
        t2.ingest(0, 1, 4.0);
        let rep = t2.step();
        assert!(rep.acked);
        assert_eq!(rep.epoch, 4);
        let rec2 = delta::recover(&dir).unwrap();
        assert_eq!(rec2.epoch(), 4);
        assert_eq!(rec2.checkpoint.model, *t2.model());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A trainer over `model` that has written nothing: `resume` from an
    /// in-memory recovery touches no file.
    fn detached(model: Model) -> LiveTrainer {
        let recovery = Recovery {
            checkpoint: crate::checkpoint::Checkpoint {
                model,
                meta: CheckpointMeta { seed: 7, epoch: 0 },
            },
            base_epoch: 0,
            deltas_applied: 0,
            notes: Vec::new(),
        };
        LiveTrainer::resume(
            Arc::new(RealFs),
            PathBuf::new(),
            recovery,
            LiveConfig::default(),
        )
    }

    /// The fold-in the grouped one replaced, kept as its oracle: every
    /// new id filters the whole batch for its ratings.
    fn fold_in_filtered(t: &mut LiveTrainer, batch: &[(u32, u32, f32)]) -> (u32, u32) {
        let (m0, n0) = (t.model.nrows(), t.model.ncols());
        let max_item = batch.iter().map(|&(_, v, _)| v).max().unwrap_or(0);
        let max_user = batch.iter().map(|&(u, _, _)| u).max().unwrap_or(0);
        if max_item >= n0 {
            let fold = FoldIn::with_config(&t.model, t.cfg.foldin);
            let mut q = t.model.q_raw().to_vec();
            for v in n0..=max_item {
                let ratings: Vec<(u32, f32)> = batch
                    .iter()
                    .filter(|&&(u, bv, _)| bv == v && u < m0)
                    .map(|&(u, _, r)| (u, r))
                    .collect();
                q.extend(if ratings.is_empty() {
                    t.seeded_row(b'Q', v)
                } else {
                    fold.new_item(&ratings)
                });
            }
            let p = t.model.p_raw().to_vec();
            t.model = Model::from_parts(m0, max_item + 1, t.model.k(), p, q);
        }
        if max_user >= m0 {
            let fold = FoldIn::with_config(&t.model, t.cfg.foldin);
            let mut p = t.model.p_raw().to_vec();
            for u in m0..=max_user {
                let ratings: Vec<(u32, f32)> = batch
                    .iter()
                    .filter(|&&(bu, _, _)| bu == u)
                    .map(|&(_, v, r)| (v, r))
                    .collect();
                p.extend(if ratings.is_empty() {
                    t.seeded_row(b'P', u)
                } else {
                    fold.new_user(&ratings)
                });
            }
            let q = t.model.q_raw().to_vec();
            t.model = Model::from_parts(max_user + 1, t.model.ncols(), t.model.k(), p, q);
        }
        (t.model.nrows() - m0, t.model.ncols() - n0)
    }

    #[test]
    fn grouped_fold_in_matches_the_per_id_filter_bitwise() {
        // Base 10 users × 12 items. Each case lists the grown rows that
        // must come out seeded (no usable rating).
        type Case = (&'static str, Vec<(u32, u32, f32)>, Vec<(u8, u32)>);
        let cases: Vec<Case> = vec![
            (
                "one new user repeated, out of order",
                vec![
                    (12, 3, 4.0),
                    (2, 5, 1.0),
                    (10, 1, 2.5),
                    (12, 7, 3.0),
                    (4, 13, 5.0),
                    (12, 13, 2.0),
                    (11, 12, 1.5),
                    (6, 12, 3.5),
                    (12, 0, 4.5),
                ],
                vec![],
            ),
            (
                "a new user rating only new items",
                vec![(10, 12, 4.0), (3, 12, 1.0), (10, 13, 2.0), (5, 13, 3.0)],
                vec![],
            ),
            (
                "a new item rated only by new users",
                vec![(10, 12, 4.0), (11, 0, 3.0), (11, 12, 2.0)],
                vec![(b'Q', 12)],
            ),
            (
                "gaps in both id ranges",
                vec![(12, 2, 4.0), (1, 14, 2.0)],
                vec![(b'P', 10), (b'P', 11), (b'Q', 12), (b'Q', 13)],
            ),
            (
                "no new ids",
                vec![(0, 0, 1.0), (9, 11, 5.0), (3, 3, 2.0)],
                vec![],
            ),
            ("an empty batch", vec![], vec![]),
        ];
        let bits = |m: &Model| {
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (m.nrows(), m.ncols(), bits(m.p_raw()), bits(m.q_raw()))
        };
        for (name, batch, seeded) in &cases {
            let base = Model::init(10, 12, 4, 7);
            let (mut grouped, mut filtered) = (detached(base.clone()), detached(base));
            let got = grouped.fold_in_unseen(batch);
            assert_eq!(got, fold_in_filtered(&mut filtered, batch), "{name}");
            assert_eq!(bits(&grouped.model), bits(&filtered.model), "{name}");
            for &(side, id) in seeded {
                let row = match side {
                    b'P' => grouped.model.p_row(id),
                    _ => grouped.model.q_row(id),
                };
                assert_eq!(row, grouped.seeded_row(side, id), "{name}: {side} {id}");
            }
        }
    }

    /// [`RealFs`] whose `fail_at`-th publish (counting from 1) fails.
    struct FailOnce {
        publishes: std::sync::atomic::AtomicUsize,
        fail_at: usize,
    }

    impl Vfs for FailOnce {
        fn list(&self, dir: &std::path::Path) -> io::Result<Vec<String>> {
            RealFs.list(dir)
        }

        fn open(&self, path: &std::path::Path) -> io::Result<Box<dyn io::Read + Send>> {
            RealFs.open(path)
        }

        fn publish(
            &self,
            dir: &std::path::Path,
            name: &str,
            write: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
        ) -> io::Result<()> {
            if self.publishes.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_at {
                return Err(io::Error::other("injected publish failure"));
            }
            RealFs.publish(dir, name, write)
        }
    }

    /// Everything a reader can observe of a store, as bits.
    fn store_bits(s: &FactorStore) -> (u64, Vec<u32>, Vec<u32>, Vec<u32>) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let users = (0..s.nusers()).flat_map(|u| bits(s.user_factor(u)));
        let items = (0..s.nitems()).flat_map(|v| bits(&s.item_row_f32(v)));
        let norms = s
            .tiles
            .iter()
            .flat_map(|t| bits(&t.norms).into_iter().chain([t.max_norm.to_bits()]));
        (s.epoch(), users.collect(), items.collect(), norms.collect())
    }

    /// Every step, acked or not, swaps in the store of the model it
    /// trained (serving may lead durability); an unacked step's rows
    /// roll into the next delta.
    #[test]
    fn unacked_rows_roll_into_the_next_delta_sorted() {
        let dir = tmp_dir("rollforward");
        // Publish 1 is the bootstrap snapshot, 2 epoch 1's delta, and 3
        // epoch 2's, which fails.
        let fs = Arc::new(FailOnce {
            publishes: Default::default(),
            fail_at: 3,
        });
        let mut t = LiveTrainer::bootstrap(
            fs,
            dir.clone(),
            Model::init(10, 12, 4, 7),
            CheckpointMeta { seed: 7, epoch: 0 },
            LiveConfig::default(),
        )
        .unwrap();
        let batches = [
            vec![(1, 2, 3.0), (4, 5, 2.0)],
            // Grows users 10..=12 (10 and 11 are gaps) and items
            // 12..=13 (12 is a gap); ids arrive out of order.
            vec![(9, 3, 4.0), (12, 1, 2.0), (2, 13, 5.0), (1, 2, 1.0)],
            vec![(0, 11, 3.0), (13, 4, 2.5), (9, 3, 1.0)],
        ];
        let (mut want_p, mut want_q) = (Vec::new(), Vec::new());
        for (ix, batch) in batches.iter().enumerate() {
            let (m0, n0) = (t.model().nrows(), t.model().ncols());
            for &(u, v, r) in batch {
                t.ingest(u, v, r);
            }
            let rep = t.step();
            assert_eq!(
                rep.acked,
                ix != 1,
                "epoch {}: {:?}",
                rep.epoch,
                rep.ckpt_error
            );
            assert_eq!(
                store_bits(&t.live().current()),
                store_bits(&FactorStore::new(t.model().clone(), rep.epoch)),
                "epoch {}",
                rep.epoch
            );
            if ix >= 1 {
                want_p.extend(
                    batch
                        .iter()
                        .map(|&(u, _, _)| u)
                        .chain(m0..t.model().nrows()),
                );
                want_q.extend(
                    batch
                        .iter()
                        .map(|&(_, v, _)| v)
                        .chain(n0..t.model().ncols()),
                );
            }
        }
        assert!(t.touched_p.is_empty() && t.touched_q.is_empty());
        for want in [&mut want_p, &mut want_q] {
            want.sort_unstable();
            want.dedup();
        }
        assert!(!dir.join(delta::delta_file_name(2)).exists());
        let file = std::fs::File::open(dir.join(delta::delta_file_name(3))).unwrap();
        let d = delta::read_delta(file).unwrap();
        assert_eq!((d.meta.epoch, d.meta.base_epoch), (3, 1));
        let rows = |runs: &[delta::Run]| -> Vec<u32> {
            runs.iter()
                .flat_map(|run| run.start..run.start + run.len)
                .collect()
        };
        assert_eq!(rows(&d.p_runs), want_p);
        assert_eq!(rows(&d.q_runs), want_q);
        let rec = delta::recover(&dir).unwrap();
        assert_eq!(rec.epoch(), 3);
        assert_eq!(rec.checkpoint.model, *t.model());
        let _ = std::fs::remove_dir_all(dir);
    }
}
