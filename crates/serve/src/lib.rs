//! # mf-serve — the artifact lifecycle of a trained factor model
//!
//! Training produces two dense matrices; everything a deployment does
//! afterwards — persist them, admit new users, answer ranking queries —
//! lives here, in three layers:
//!
//! * [`checkpoint`] — the versioned, checksummed `MFCK` on-disk format
//!   (byte-level spec in `docs/FORMAT.md`): save/load streams factor
//!   payloads in 64 KiB chunks, round-trips are bit-identical, and every
//!   section carries an XXH64 checksum so corruption is detected at load
//!   rather than discovered at serve time. `checkpoint::epoch_hook`
//!   plugs into `hsgd_core::trainer::run_training_with_hook` to emit one
//!   checkpoint per training epoch.
//! * [`foldin`] — [`foldin::FoldIn`] solves the fixed-`Q` (or fixed-`P`)
//!   single-row least-squares problem with deterministic SGD passes over
//!   the new row's ratings, reusing the training kernel's scalar steps —
//!   new users and items get factors without a retrain.
//! * [`store`] — [`store::FactorStore`] re-shards item factors into
//!   cache-friendly tiles with precomputed norms and answers batched
//!   top-k queries over the `mf-par` pool, deterministically for any
//!   thread count, with a norm-bound prune and an LRU result cache keyed
//!   on `(user, epoch)`.
//! * [`batch`] — the high-throughput query path:
//!   [`batch::BatchPlan`] deduplicates a query batch, then
//!   `FactorStore::sweep_batch` walks item tiles in the *outer* loop and
//!   scores a register-resident panel of query factors against each
//!   cache-hot tile, bit-identical to the per-query scan (module docs
//!   and ARCHITECTURE.md § "Batched serving" give the argument).
//! * [`sched`] — the admission layer in front of the sweep:
//!   [`sched::Batcher`] cuts arriving queries into batches under an
//!   adaptive `min_batch..=max_batch` size and a `max_delay` bound, and
//!   [`sched::run_load`] replays a timestamped query mix against a
//!   store, reporting per-query latencies for histogramming.
//! * [`live`] + [`delta`] — the crash-safe **online
//!   lifecycle**: [`live::LiveStore`] serves version N through an
//!   atomic pointer flip while [`live::LiveTrainer`] ingests ratings,
//!   folds in unseen ids, and persists each epoch as an `MFCK` v2
//!   delta of the touched rows ([`delta`]), written with the
//!   temp + fsync + rename discipline of [`mf_sparse::vfs`];
//!   [`delta::recover`] walks a crashed directory back to the newest
//!   checksum-valid state and reports what it salvaged.
//!
//! The intended flow, end to end (this is `examples/serve_topk.rs`;
//! `examples/live_loop.rs` adds the continuous lifecycle on top):
//!
//! ```text
//! train ──► checkpoint::save ──► checkpoint::load ──► FactorStore
//!                                      │                  │
//!                        FoldIn::new_user(ratings)        │
//!                                      └── QueryUser::Factor ──► sweep_batch ──► TopK
//!
//! ingest ──► LiveTrainer::step ──► delta/snapshot (atomic publish)
//!                  │                        │ crash?
//!                  ▼                        ▼
//!            LiveStore::publish ◄── delta::recover(dir)
//! ```

pub mod batch;
pub mod checkpoint;
pub mod delta;
pub mod foldin;
pub mod live;
pub mod sched;
pub mod store;

pub use batch::BatchPlan;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointMeta};
pub use delta::{Delta, DeltaMeta, RecoverError, Recovery};
pub use foldin::{FoldIn, FoldInConfig};
pub use live::{LiveConfig, LiveStore, LiveTrainer};
pub use mf_sparse::{RealFs, Vfs};
pub use sched::{BatchPolicy, Batcher, LoadReport};
pub use store::{FactorStore, Query, QueryUser, TopK};
