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
    /// At-rest item-factor precision of every [`FactorStore`] the loop
    /// publishes. Training and checkpoints stay full f32 — only the
    /// serving tiles are quantized, so a restart (or a precision
    /// change) rebuilds them from the exact factors.
    pub precision: crate::store::Precision,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            gamma: 0.02,
            lambda: 0.02,
            passes: 2,
            foldin: FoldInConfig::default(),
            snapshot_every: 8,
            precision: crate::store::Precision::F32,
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
    /// User rows touched since `acked_epoch`, kept sorted on write.
    touched_p: std::collections::BTreeSet<u32>,
    touched_q: std::collections::BTreeSet<u32>,
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
        let live = LiveStore::new(FactorStore::with_precision(
            model.clone(),
            meta.epoch,
            cfg.precision,
        ));
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
        let live = LiveStore::new(FactorStore::with_precision(
            ck.model.clone(),
            ck.meta.epoch,
            cfg.precision,
        ));
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

    /// Ratings queued for the next epoch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
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
    /// with no usable ratings (e.g. a new user whose only ratings name
    /// new items): small pseudo-random entries derived from
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
    fn fold_in_unseen(&mut self, batch: &[(u32, u32, f32)]) -> (u32, u32) {
        let (m0, n0) = (self.model.nrows(), self.model.ncols());
        let max_item = batch.iter().map(|&(_, v, _)| v).max().unwrap_or(0);
        let max_user = batch.iter().map(|&(u, _, _)| u).max().unwrap_or(0);

        // Items: solve each new row against frozen existing-user
        // factors, then append all rows at once.
        if max_item >= n0 {
            let fold = FoldIn::with_config(&self.model, self.cfg.foldin);
            let mut rows: Vec<Vec<f32>> = Vec::new();
            for v in n0..=max_item {
                let ratings: Vec<(u32, f32)> = batch
                    .iter()
                    .filter(|&&(u, bv, _)| bv == v && u < m0)
                    .map(|&(u, _, r)| (u, r))
                    .collect();
                rows.push(if ratings.is_empty() {
                    self.seeded_row(b'Q', v)
                } else {
                    fold.new_item(&ratings)
                });
            }
            let (m, n, k, p, mut q) =
                std::mem::replace(&mut self.model, Model::constant(1, 1, 1, 0.0)).into_parts();
            for row in &rows {
                q.extend_from_slice(row);
            }
            self.model = Model::from_parts(m, n + rows.len() as u32, k, p, q);
            self.touched_q.extend(n0..=max_item);
        }

        // Users: every item an id rates now exists.
        if max_user >= m0 {
            let fold = FoldIn::with_config(&self.model, self.cfg.foldin);
            let mut rows: Vec<Vec<f32>> = Vec::new();
            for u in m0..=max_user {
                let ratings: Vec<(u32, f32)> = batch
                    .iter()
                    .filter(|&&(bu, _, _)| bu == u)
                    .map(|&(_, v, r)| (v, r))
                    .collect();
                rows.push(if ratings.is_empty() {
                    self.seeded_row(b'P', u)
                } else {
                    fold.new_user(&ratings)
                });
            }
            let (m, n, k, mut p, q) =
                std::mem::replace(&mut self.model, Model::constant(1, 1, 1, 0.0)).into_parts();
            for row in &rows {
                p.extend_from_slice(row);
            }
            self.model = Model::from_parts(m + rows.len() as u32, n, k, p, q);
            self.touched_p.extend(m0..=max_user);
        }
        (self.model.nrows() - m0, self.model.ncols() - n0)
    }

    /// Runs one epoch: fold in unseen ids, SGD over the pending
    /// ratings, persist (delta or re-basing snapshot), publish the new
    /// serving version. Never fails the *training* side: a checkpoint
    /// write error leaves the epoch unacked (see the module docs) and
    /// is reported in the returned [`EpochReport`].
    pub fn step(&mut self) -> EpochReport {
        let batch = std::mem::take(&mut self.pending);
        let (folded_users, folded_items) = self.fold_in_unseen(&batch);
        for _ in 0..self.cfg.passes {
            for &(u, v, r) in &batch {
                let (pu, qv) = self.model.pq_rows_mut(u, v);
                kernel::sgd_step(pu, qv, r, self.cfg.gamma, self.cfg.lambda, self.cfg.lambda);
            }
        }
        for &(u, v, _) in &batch {
            self.touched_p.insert(u);
            self.touched_q.insert(v);
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
        let mut bytes = 0u64;
        let write_res = {
            let model = &self.model;
            let seed = self.seed;
            let epoch = self.epoch;
            let base_epoch = self.acked_epoch;
            let p_rows: Vec<u32> = self.touched_p.iter().copied().collect();
            let q_rows: Vec<u32> = self.touched_q.iter().copied().collect();
            let bytes_out = &mut bytes;
            self.fs.publish(&self.dir, &name, &mut |w| {
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
                            base_epoch,
                        },
                        &p_rows,
                        &q_rows,
                        &mut w,
                    ),
                };
                *bytes_out = w.count;
                res
            })
        };
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

        self.live.publish(FactorStore::with_precision(
            self.model.clone(),
            self.epoch,
            self.cfg.precision,
        ));
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
}
