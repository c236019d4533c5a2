//! Storage fault injection: [`FaultFs`] and the harnesses of the two
//! storage subjects.
//!
//! [`FaultFs`] is an in-memory filesystem that injects the byte-clock
//! events of a [`crate::Script`] — short writes, ENOSPC, byte-exact
//! crash kills, torn renames and bit flips — keyed by **cumulative
//! bytes written**.
//!
//! The **lifecycle** subject drives `mf_serve`'s live train-and-serve
//! loop against it, kills the loop and asserts the recovery contract:
//!
//! * recovery **never loads a corrupt factor** (every recovered byte
//!   re-fingerprints to a state the trainer actually acked);
//! * recovery **never loses an acked epoch** (the recovered epoch is
//!   exactly the newest epoch reachable from intact acked records —
//!   bit-flipped records are the one way an acked epoch can degrade,
//!   and then recovery lands on the last consistent prefix);
//! * readers **never observe a partially-swapped store** (sampled rows
//!   of the serving store always match the trainer's model bit-exactly);
//! * after recovery the loop **resumes**: one more epoch chains onto
//!   the recovered state and recovers again.
//!
//! The **arena** subject aims the same faults at the out-of-core
//! training path's MFCK v3 block arena (`mf_sparse::arena`); its spill
//! contract is listed on `run_arena`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mf_data::{ingest_stream, IngestConfig};
use mf_serve::checkpoint::{self, CheckpointMeta};
use mf_serve::delta::{recover_in, RecoverError};
use mf_serve::live::{LiveConfig, LiveTrainer, RecordKind};
use mf_sgd::Model;
use mf_sparse::arena::BlockArena;
use mf_sparse::vfs::{Vfs, TMP_SUFFIX};
use mf_sparse::{BlockOrder, GridPartition, GridSpec, Rating, SparseMatrix};

use crate::harness::Failure;
use crate::rng::SplitMix;
use crate::script::{Event, StoreSetup};

/// The message every injected kill carries. The harness matches on it
/// to tell "the disk died" (stop and recover) from ordinary write
/// failures like ENOSPC (keep training unacked).
pub const CRASH_MSG: &str = "injected crash: storage stopped mid-operation";

fn crash_err() -> io::Error {
    io::Error::other(CRASH_MSG)
}

struct FaultState {
    /// Committed files, name → bytes (the post-rename namespace).
    files: BTreeMap<String, Vec<u8>>,
    /// Cumulative bytes accepted across all writes — the fault clock.
    written: u64,
    events: Vec<Event>,
    fired: Vec<bool>,
    crashed: bool,
    /// Files an [`Event::BitFlip`] actually damaged.
    flipped: Vec<String>,
}

impl FaultState {
    /// Fires every due bit flip. Called on each write and at commit, so
    /// a flip lands as soon as the clock passes it.
    fn fire_flips(&mut self) {
        for i in 0..self.events.len() {
            if self.fired[i] {
                continue;
            }
            if let Event::BitFlip { at, file, byte } = &self.events[i] {
                if self.written >= *at {
                    self.fired[i] = true;
                    if let Some(data) = self.files.get_mut(file) {
                        if !data.is_empty() {
                            let idx = (*byte % data.len() as u64) as usize;
                            data[idx] ^= 1 << (*byte % 8);
                            self.flipped.push(file.clone());
                        }
                    }
                }
            }
        }
    }
}

/// An in-memory [`Vfs`] with deterministic fault injection, shared
/// between the trainer under test and the harness.
pub struct FaultFs {
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// A fresh filesystem armed with `events` (byte-clock kinds fire).
    pub fn new(events: Vec<Event>) -> FaultFs {
        let fired = vec![false; events.len()];
        FaultFs {
            state: Mutex::new(FaultState {
                files: BTreeMap::new(),
                written: 0,
                events,
                fired,
                crashed: false,
                flipped: Vec::new(),
            }),
        }
    }

    /// The byte clock — useful for calibrating `at=` values in
    /// hand-written corpus scripts.
    pub fn written(&self) -> u64 {
        self.state.lock().expect("poisoned").written
    }

    /// Whether a crash-class event has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("poisoned").crashed
    }

    /// Names of committed files a bit flip actually damaged.
    pub fn flipped(&self) -> Vec<String> {
        self.state.lock().expect("poisoned").flipped.clone()
    }

    /// "Replace the disk": clears the crashed flag and disarms every
    /// remaining event, keeping the (possibly damaged) contents — the
    /// restart-after-crash environment the resume path runs against.
    pub fn heal(&self) {
        let mut st = self.state.lock().expect("poisoned");
        st.crashed = false;
        for f in st.fired.iter_mut() {
            *f = true;
        }
    }
}

/// The writer side of one in-flight publish: consults the fault state
/// on every write, appending accepted bytes to a staging buffer.
struct FaultWriter<'a> {
    st: &'a mut FaultState,
    buf: Vec<u8>,
}

impl Write for FaultWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.st.crashed {
            return Err(crash_err());
        }
        self.st.fire_flips();
        let clock = self.st.written;
        for i in 0..self.st.events.len() {
            if self.st.fired[i] {
                continue;
            }
            match self.st.events[i].clone() {
                Event::Crash { at } if clock + data.len() as u64 > at => {
                    // Byte-exact: accept up to the kill point, then die.
                    self.st.fired[i] = true;
                    let accept = (at.saturating_sub(clock) as usize).min(data.len());
                    self.buf.extend_from_slice(&data[..accept]);
                    self.st.written += accept as u64;
                    self.st.crashed = true;
                    return Err(crash_err());
                }
                Event::Enospc { at } if clock + data.len() as u64 > at => {
                    self.st.fired[i] = true;
                    return Err(io::Error::other("injected ENOSPC: no space left on device"));
                }
                Event::ShortWrite { at, len } if clock + data.len() as u64 > at => {
                    self.st.fired[i] = true;
                    let accept = len.min(data.len());
                    self.buf.extend_from_slice(&data[..accept]);
                    self.st.written += accept as u64;
                    return Ok(accept);
                }
                _ => {}
            }
        }
        self.buf.extend_from_slice(data);
        self.st.written += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.st.crashed {
            return Err(crash_err());
        }
        Ok(())
    }
}

impl Vfs for FaultFs {
    fn list(&self, _dir: &Path) -> io::Result<Vec<String>> {
        // Names sort ascending for free out of the BTreeMap.
        Ok(self
            .state
            .lock()
            .expect("poisoned")
            .files
            .keys()
            .cloned()
            .collect())
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        let name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
            .to_string_lossy()
            .into_owned();
        let st = self.state.lock().expect("poisoned");
        let data = st
            .files
            .get(&name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name))?;
        Ok(Box::new(io::Cursor::new(data)))
    }

    fn publish(
        &self,
        _dir: &Path,
        name: &str,
        write: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut st = self.state.lock().expect("poisoned");
        if st.crashed {
            return Err(crash_err());
        }
        let mut w = FaultWriter {
            st: &mut st,
            buf: Vec::new(),
        };
        let res = write(&mut w);
        let buf = std::mem::take(&mut w.buf);
        if let Err(e) = res {
            if st.crashed {
                // A dead writer leaves its accepted prefix as an
                // orphaned temporary — exactly what a killed RealFs
                // publish leaves on disk.
                st.files.insert(format!("{name}{TMP_SUFFIX}"), buf);
            }
            return Err(e);
        }
        st.fire_flips();
        for i in 0..st.events.len() {
            if st.fired[i] {
                continue;
            }
            if let Event::TornRename { at, keep } = st.events[i].clone() {
                if st.written >= at {
                    st.fired[i] = true;
                    // Clamp to a proper prefix: a complete file under
                    // the final name would (correctly) be recovered,
                    // which is a different scenario than a torn rename.
                    let keep = (keep as usize).min(buf.len().saturating_sub(1));
                    st.files.insert(name.to_string(), buf[..keep].to_vec());
                    st.crashed = true;
                    return Err(crash_err());
                }
            }
        }
        st.files.insert(name.to_string(), buf);
        Ok(())
    }
}

impl fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().expect("poisoned");
        f.debug_struct("FaultFs")
            .field("files", &st.files.len())
            .field("written", &st.written)
            .field("crashed", &st.crashed)
            .field("flipped", &st.flipped)
            .finish()
    }
}

/// What a clean lifecycle kill-and-recover run reports.
#[derive(Debug, Clone)]
pub struct LifecycleStats {
    /// Epochs the loop completed before the end (or the kill).
    pub epochs_run: u64,
    /// Epochs durably acked.
    pub acked_epochs: u64,
    /// Whether a crash-class event fired.
    pub crashed: bool,
    /// Epoch recovery landed on (`None` when nothing was salvageable,
    /// which the oracle confirmed was correct).
    pub recovered_epoch: Option<u64>,
    /// Whether the post-recovery resume epoch ran and re-recovered.
    pub resumed: bool,
    /// The byte clock after the bootstrap snapshot (entry 0) and after
    /// each epoch's step.
    pub offsets: Vec<u64>,
}

/// What a clean arena write-and-spill run reports.
#[derive(Debug, Clone)]
pub struct ArenaStats {
    /// Blocks in the arena's grid.
    pub blocks: u64,
    /// Blocks served bit-identical to the in-RAM truth through the
    /// spill cache; the rest failed their load with a typed error.
    pub clean_blocks: u64,
    /// Failed arena publishes that were retried.
    pub rewrites: u64,
    /// Whether a crash-class event fired.
    pub crashed: bool,
}

/// One acked durable record, as the harness saw it happen: the shadow
/// log recovery is audited against.
struct AckedRec {
    name: String,
    kind: RecordKind,
    epoch: u64,
    base_epoch: u64,
    fingerprint: u64,
}

/// Content fingerprint of a model state: the XXH64 of its canonical v1
/// serialization (covers geometry, seed, epoch, and every factor byte).
fn fingerprint(model: &Model, meta: CheckpointMeta) -> u64 {
    let mut buf = Vec::new();
    checkpoint::write_checkpoint(model, meta, &mut buf)
        .expect("in-memory serialization cannot fail");
    mf_sparse::hash::xxh64(&buf)
}

/// The epoch recovery *must* land on, given the shadow log and the set
/// of bit-flip-damaged files: the longest `snapshot + deltas` chain
/// over intact acked records — the same walk `recover_in` performs, but
/// over ground truth instead of disk bytes.
fn expected_epoch(shadow: &[AckedRec], damaged: &BTreeSet<String>) -> Option<u64> {
    let deltas: BTreeMap<u64, u64> = shadow
        .iter()
        .filter(|r| r.kind == RecordKind::Delta && !damaged.contains(&r.name))
        .map(|r| (r.base_epoch, r.epoch))
        .collect();
    let reach = |start: u64| {
        let mut e = start;
        while let Some(&next) = deltas.get(&e) {
            e = next;
        }
        e
    };
    shadow
        .iter()
        .filter(|r| r.kind == RecordKind::Snapshot && !damaged.contains(&r.name))
        .map(|r| reach(r.epoch))
        .max()
}

/// Replays one lifecycle scenario end to end: bootstrap → ingest/step
/// epochs under fault injection (with reader-consistency checks after
/// every publish) → kill → recover → audit against the shadow log →
/// heal, resume, and re-recover one epoch further. `ignore_flips`
/// deliberately mis-builds the oracle (treating bit-flipped records as
/// intact) so a negative test can prove the audit sees silent
/// corruption.
pub(crate) fn run_lifecycle(
    seed: u64,
    setup: &StoreSetup,
    events: &[Event],
    ignore_flips: bool,
) -> Result<LifecycleStats, Failure> {
    let mut violations: Vec<String> = Vec::new();
    let fs = Arc::new(FaultFs::new(events.to_vec()));
    let dir = PathBuf::from("/lifecycle");
    let cfg = LiveConfig {
        snapshot_every: setup.snapshot_every,
        ..Default::default()
    };
    let model = Model::init(setup.users, setup.items, setup.k, seed);
    let base_meta = CheckpointMeta { seed, epoch: 0 };
    let base_fp = fingerprint(&model, base_meta);

    let mut shadow: Vec<AckedRec> = Vec::new();
    let mut offsets = Vec::new();
    let mut epochs_run = 0u64;
    let mut crashed = false;

    let trainer = match LiveTrainer::bootstrap(fs.clone(), dir.clone(), model, base_meta, cfg) {
        Ok(t) => {
            offsets.push(fs.written());
            shadow.push(AckedRec {
                name: checkpoint::epoch_file_name(0),
                kind: RecordKind::Snapshot,
                epoch: 0,
                base_epoch: 0,
                fingerprint: base_fp,
            });
            Some(t)
        }
        Err(e) => {
            // A fault killed even the base snapshot: nothing is acked,
            // so recovery must salvage nothing.
            crashed = e.to_string().contains(CRASH_MSG);
            None
        }
    };

    if let Some(mut t) = trainer {
        let stream = ingest_stream(
            &IngestConfig {
                users: setup.users,
                items: setup.items,
                new_user_frac: setup.new_user_frac,
                new_item_frac: setup.new_item_frac,
                seed,
            },
            setup.epochs as usize * setup.per_epoch,
        );
        let live = t.live();
        for chunk in stream.chunks(setup.per_epoch.max(1)) {
            for ev in chunk {
                t.ingest(ev.user, ev.item, ev.rating);
            }
            // A delta acked by this step chains off the epoch that was
            // acked *before* it ran.
            let base_of_step = t.acked_epoch();
            let rep = t.step();
            epochs_run += 1;
            offsets.push(fs.written());

            // Reader-side invariants hold on every epoch, acked or not:
            // serving is exactly the trained state, never a hybrid.
            let store = live.current();
            if store.epoch() != t.epoch() {
                violations.push(format!(
                    "reader observes epoch {} after publish of {}",
                    store.epoch(),
                    t.epoch()
                ));
            }
            let m = t.model().nrows();
            for u in [0, m / 2, m - 1] {
                if store.user_factor(u) != t.model().p_row(u) {
                    violations.push(format!(
                        "partially-swapped store: row {u} of epoch {} differs from the model",
                        store.epoch()
                    ));
                }
            }
            let lag = t.epoch().saturating_sub(live.serving_epoch());
            if lag > 1 {
                violations.push(format!("staleness bound broken: lag {lag} after publish"));
            }

            if rep.acked {
                shadow.push(AckedRec {
                    name: rep.file.clone(),
                    kind: rep.kind,
                    epoch: rep.epoch,
                    base_epoch: base_of_step,
                    fingerprint: fingerprint(
                        t.model(),
                        CheckpointMeta {
                            seed,
                            epoch: rep.epoch,
                        },
                    ),
                });
            } else if let Some(e) = &rep.ckpt_error {
                if e.to_string().contains(CRASH_MSG) {
                    crashed = true;
                    break;
                }
            }
        }
    }

    // ---- The kill happened (or the script ran dry). Recover. ----
    let damaged: BTreeSet<String> = if ignore_flips {
        BTreeSet::new()
    } else {
        fs.flipped().into_iter().collect()
    };
    let expect = expected_epoch(&shadow, &damaged);
    let recovery = recover_in(fs.as_ref(), &dir);
    let mut recovered_epoch = None;
    let mut resumable = None;
    match (&recovery, expect) {
        (Ok(rec), Some(want)) => {
            recovered_epoch = Some(rec.epoch());
            if rec.epoch() != want {
                violations.push(format!(
                    "recovered epoch {} but the newest intact acked epoch is {want}",
                    rec.epoch()
                ));
            } else {
                let want_fp = shadow
                    .iter()
                    .find(|r| r.epoch == want)
                    .map(|r| r.fingerprint)
                    .expect("expected epoch comes from the shadow log");
                let got_fp = fingerprint(&rec.checkpoint.model, rec.checkpoint.meta);
                if got_fp != want_fp {
                    violations.push(format!(
                        "recovered state at epoch {want} does not match the acked \
                         state (corrupt factors reached recovery)"
                    ));
                } else {
                    resumable = Some(rec.clone());
                }
            }
        }
        (Ok(rec), None) => {
            violations.push(format!(
                "recovery produced epoch {} but no intact acked chain exists",
                rec.epoch()
            ));
        }
        (Err(RecoverError::NothingSalvageable { .. }), None) => {}
        (Err(e), Some(want)) => {
            violations.push(format!(
                "recovery failed ({e}) but acked epoch {want} is intact on disk"
            ));
        }
        (Err(e), None) => {
            violations.push(format!("recovery scan failed: {e}"));
        }
    }

    // ---- Restart: heal the disk, resume, prove the chain continues. ----
    let mut resumed = false;
    if let Some(rec) = resumable {
        fs.heal();
        let before = rec.epoch();
        let mut t = LiveTrainer::resume(fs.clone(), dir.clone(), rec, cfg);
        for ev in ingest_stream(
            &IngestConfig {
                users: t.model().nrows(),
                items: t.model().ncols(),
                new_user_frac: 0.0,
                new_item_frac: 0.0,
                seed: seed ^ 1,
            },
            setup.per_epoch.max(1),
        ) {
            t.ingest(ev.user, ev.item, ev.rating);
        }
        let rep = t.step();
        if !rep.acked {
            violations.push(format!(
                "post-recovery epoch failed to ack on a healthy disk: {:?}",
                rep.ckpt_error
            ));
        } else {
            match recover_in(fs.as_ref(), &dir) {
                Ok(rec2) if rec2.epoch() == before + 1 => {
                    let meta = CheckpointMeta {
                        seed,
                        epoch: rec2.epoch(),
                    };
                    let want = fingerprint(t.model(), meta);
                    let got = fingerprint(&rec2.checkpoint.model, rec2.checkpoint.meta);
                    if got != want {
                        violations.push(
                            "resumed chain recovers to a state that differs from the \
                             trainer's model"
                                .to_string(),
                        );
                    } else {
                        resumed = true;
                    }
                }
                Ok(rec2) => violations.push(format!(
                    "resumed chain recovers to epoch {} instead of {}",
                    rec2.epoch(),
                    before + 1
                )),
                Err(e) => violations.push(format!("re-recovery after resume failed: {e}")),
            }
        }
    }

    if violations.is_empty() {
        Ok(LifecycleStats {
            epochs_run,
            acked_epochs: shadow.len().saturating_sub(1) as u64,
            crashed,
            recovered_epoch,
            resumed,
            offsets,
        })
    } else {
        Err(Failure::storage(violations))
    }
}

// ---------------------------------------------------------------------------
// The arena subject
// ---------------------------------------------------------------------------

/// File name the arena subject's one durable artifact is published as.
pub const ARENA_SUBJECT_FILE: &str = "train.arena";

/// The deterministic rating matrix an arena scenario spills: geometry
/// from the setup, `epochs * per_epoch` ratings from the seed.
fn arena_matrix(seed: u64, setup: &StoreSetup) -> SparseMatrix {
    let mut rng = SplitMix::new(seed ^ ARENA_SUBJECT_SEED_SALT);
    let (m, n) = (setup.users, setup.items);
    let mut mat = SparseMatrix::empty(m, n);
    for _ in 0..(setup.epochs as usize * setup.per_epoch).max(1) {
        let u = rng.range(0, m as u64 - 1) as u32;
        let v = rng.range(0, n as u64 - 1) as u32;
        mat.push(Rating::new(u, v, (1.0 + 4.0 * rng.unit()) as f32));
    }
    mat
}

/// Replays one **arena-subject** scenario: build a partition, publish
/// its MFCK v3 block arena through the fault-injecting filesystem
/// (retrying failed publishes, healing after a kill — the spill path's
/// restart), then re-open it spill-backed and audit the out-of-core
/// contract:
///
/// * a crash mid-write leaves at worst an orphaned `*.tmp` — the final
///   name never appears from a killed publish, and a torn rename's
///   truncated final name is detected as a typed torn/corrupt arena,
///   never opened clean;
/// * after healing, a rewrite commits and the arena round-trips;
/// * a bit flip in the committed arena surfaces as a typed
///   [`mf_sparse::arena::ArenaError`] on open or on the pinned block
///   load — corrupt factor bytes never reach a kernel;
/// * every block that *does* load is bit-identical to the in-RAM truth.
///
/// `ignore_flips` makes the oracle treat a flipped arena as intact, for
/// the negative test.
pub(crate) fn run_arena(
    seed: u64,
    setup: &StoreSetup,
    events: &[Event],
    ignore_flips: bool,
) -> Result<ArenaStats, Failure> {
    let mut violations: Vec<String> = Vec::new();
    // The subject has exactly one durable artifact: aim every flip at it.
    let mut aimed = events.to_vec();
    for e in &mut aimed {
        if let Event::BitFlip { file, .. } = e {
            *file = ARENA_SUBJECT_FILE.to_string();
        }
    }
    let fs = Arc::new(FaultFs::new(aimed));
    let dir = PathBuf::from("/arena");
    let mat = arena_matrix(seed, setup);
    let part = GridPartition::build_with_order(
        &mat,
        GridSpec::uniform(setup.users, setup.items, 4, 3),
        BlockOrder::UserMajor,
    );
    let blocks = part.spec().block_count();
    let final_name = ARENA_SUBJECT_FILE.to_string();
    let orphan_name = format!("{ARENA_SUBJECT_FILE}{TMP_SUFFIX}");

    // ---- Write under fire; every failed publish is retried. ----
    let mut crashed = false;
    let mut committed = false;
    let mut rewrites = 0u64;
    for _ in 0..events.len() + 2 {
        match part.write_arena(fs.as_ref(), &dir, ARENA_SUBJECT_FILE) {
            Ok(()) => {
                committed = true;
                break;
            }
            Err(e) => {
                rewrites += 1;
                let names = fs.list(&dir).unwrap_or_default();
                if fs.crashed() {
                    crashed = true;
                    if names.contains(&final_name) {
                        // Torn rename: the truncated final name must read
                        // as a typed torn/corrupt arena, never clean.
                        let verdict = BlockArena::open(fs.clone(), &dir.join(ARENA_SUBJECT_FILE))
                            .and_then(|a| a.verify());
                        if verdict.is_ok() {
                            violations
                                .push("a torn arena rename opened and verified clean".to_string());
                        }
                    } else if !names.contains(&orphan_name) {
                        violations.push(
                            "crash mid-arena-write left neither an orphan temp nor a torn final"
                                .to_string(),
                        );
                    }
                    fs.heal();
                } else if names.contains(&final_name) {
                    violations.push(format!(
                        "failed arena publish ({e}) left a final name without a crash"
                    ));
                }
            }
        }
    }
    if !committed {
        violations
            .push("arena never committed despite retrying past every armed fault".to_string());
        return Err(Failure::storage(violations));
    }

    // ---- Advance the byte clock past any still-armed flip so it lands
    // on the committed arena (flips only fire on write activity). ----
    let max_flip_at = events
        .iter()
        .filter_map(|e| match e {
            Event::BitFlip { at, .. } => Some(*at),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut guard = 0;
    while fs.written() <= max_flip_at && guard < 64 {
        let need = ((max_flip_at - fs.written()) as usize + 1).min(1 << 16);
        let poke = vec![0u8; need];
        if fs
            .publish(&dir, "poke.bin", &mut |w| w.write_all(&poke))
            .is_err()
            && fs.crashed()
        {
            crashed = true;
            fs.heal();
        }
        guard += 1;
    }

    // ---- Re-open spill-backed and serve every block through the
    // pinned kernel path, against the in-RAM truth. ----
    let damaged = !ignore_flips && fs.flipped().iter().any(|f| f == ARENA_SUBJECT_FILE);
    let budget = (part.total_nnz() * Rating::WIRE_BYTES / 3).max(64);
    let mut clean_blocks = 0u64;
    let mut detected = false;
    match GridPartition::open_spilled(fs.clone(), &dir.join(ARENA_SUBJECT_FILE), budget) {
        Err(e) => {
            detected = true;
            if !damaged {
                violations.push(format!("intact arena failed to open spill-backed: {e}"));
            }
        }
        Ok(spilled) => {
            if spilled.spec() != part.spec() {
                violations.push("spilled arena decoded a different grid geometry".to_string());
            }
            for id in part.spec().blocks() {
                match spilled.pin_blocks(&[id]) {
                    Err(e) => {
                        // Typed failure before any byte reached a kernel.
                        detected = true;
                        if !damaged {
                            violations
                                .push(format!("intact block {id:?} failed its pinned load: {e}"));
                        }
                    }
                    Ok(()) => {
                        let got = spilled.block(id);
                        let want = part.block(id);
                        if got.rows != want.rows || got.cols != want.cols || got.vals != want.vals {
                            violations.push(format!(
                                "block {id:?} reached the kernel with corrupt factors"
                            ));
                        } else {
                            clean_blocks += 1;
                        }
                        spilled.unpin_blocks(&[id]);
                    }
                }
            }
        }
    }
    if damaged && !detected {
        violations
            .push("silent corruption: a fired bit flip passed every arena checksum".to_string());
    }

    if violations.is_empty() {
        Ok(ArenaStats {
            blocks: blocks as u64,
            clean_blocks,
            rewrites,
            crashed,
        })
    } else {
        Err(Failure::storage(violations))
    }
}

/// Domain-separates the arena subject's rating stream from everything
/// else derived from the same master seed.
const ARENA_SUBJECT_SEED_SALT: u64 = 0x5b21_c6d8_0f73_a94e;

/// Byte-clock values of a **fault-free** lifecycle run of `setup` under
/// `seed` ([`LifecycleStats::offsets`]). Deterministic, so `at=` values
/// chosen between two entries land inside that epoch's write — this is
/// how corpus scenarios and the negative tests are calibrated.
pub fn probe_offsets(seed: u64, setup: &StoreSetup) -> Vec<u64> {
    run_lifecycle(seed, setup, &[], false)
        .expect("a fault-free lifecycle run holds the contract")
        .offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_leaves_an_orphan_temp_with_the_accepted_prefix() {
        let fs = FaultFs::new(vec![Event::Crash { at: 10 }]);
        let err = fs
            .publish(Path::new("/d"), "a.bin", &mut |w| {
                w.write_all(b"0123456789abcdef")
            })
            .expect_err("crash must fail the publish");
        assert!(err.to_string().contains(CRASH_MSG));
        assert!(fs.crashed());
        let names = fs.list(Path::new("/d")).unwrap();
        assert_eq!(names, vec!["a.bin.tmp".to_string()]);
        let mut buf = Vec::new();
        fs.open(Path::new("/d/a.bin.tmp"))
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        assert_eq!(buf, b"0123456789");
        // The disk is dead until healed.
        assert!(fs
            .publish(Path::new("/d"), "b.bin", &mut |w| w.write_all(b"x"))
            .is_err());
        fs.heal();
        fs.publish(Path::new("/d"), "b.bin", &mut |w| w.write_all(b"x"))
            .unwrap();
    }

    #[test]
    fn torn_rename_truncates_the_final_name() {
        let fs = FaultFs::new(vec![Event::TornRename { at: 5, keep: 4 }]);
        let err = fs.publish(Path::new("/d"), "a.bin", &mut |w| {
            w.write_all(b"0123456789")
        });
        assert!(err.is_err());
        let mut buf = Vec::new();
        fs.open(Path::new("/d/a.bin"))
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        assert_eq!(buf, b"0123");
    }

    #[test]
    fn short_writes_and_enospc_are_survivable() {
        let fs = FaultFs::new(vec![
            Event::ShortWrite { at: 0, len: 3 },
            Event::Enospc { at: 20 },
        ]);
        // write_all retries past the short write; the publish commits.
        fs.publish(Path::new("/d"), "a.bin", &mut |w| {
            w.write_all(b"0123456789")
        })
        .unwrap();
        // The ENOSPC one-shot fails exactly one publish…
        assert!(fs
            .publish(Path::new("/d"), "b.bin", &mut |w| {
                w.write_all(b"0123456789abcdef")
            })
            .is_err());
        // …and the next succeeds; no temp debris shadows anything.
        fs.publish(Path::new("/d"), "b.bin", &mut |w| w.write_all(b"ok"))
            .unwrap();
        assert_eq!(
            fs.list(Path::new("/d")).unwrap(),
            vec!["a.bin".to_string(), "b.bin".to_string()]
        );
        assert!(!fs.crashed());
    }

    #[test]
    fn bit_flip_damages_a_committed_file_once() {
        let fs = FaultFs::new(vec![Event::BitFlip {
            at: 5,
            file: "a.bin".to_string(),
            byte: 2,
        }]);
        fs.publish(Path::new("/d"), "a.bin", &mut |w| w.write_all(b"abcd"))
            .unwrap();
        // The flip fires on the next write activity after the clock
        // passes `at`.
        fs.publish(Path::new("/d"), "b.bin", &mut |w| w.write_all(b"xy"))
            .unwrap();
        assert_eq!(fs.flipped(), vec!["a.bin".to_string()]);
        let mut buf = Vec::new();
        fs.open(Path::new("/d/a.bin"))
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        assert_ne!(buf, b"abcd");
        assert_eq!(buf.len(), 4);
    }

    /// Runs the arena subject on the geometry every inline scenario
    /// below uses.
    fn run_arena_with(events: Vec<Event>, ignore_flips: bool) -> Result<ArenaStats, Failure> {
        let setup = StoreSetup {
            users: 32,
            items: 24,
            k: 6,
            epochs: 5,
            per_epoch: 60,
            new_user_frac: 0.0,
            new_item_frac: 0.0,
            snapshot_every: 3,
        };
        run_arena(13, &setup, &events, ignore_flips)
    }

    #[test]
    fn arena_crash_mid_write_leaves_orphan_and_rewrite_round_trips() {
        // ~4 KB arena (300 ratings); the kill lands mid-block-frames.
        let stats = run_arena_with(vec![Event::Crash { at: 2000 }], false)
            .expect("arena crash scenario must hold the contract");
        assert!(stats.crashed, "the crash event never fired");
        assert!(
            stats.rewrites > 0,
            "the rewrite after healing never happened"
        );
        assert_eq!(
            stats.clean_blocks, stats.blocks,
            "the rewritten arena must serve every block clean"
        );
    }

    #[test]
    fn arena_bitflip_is_typed_and_detected() {
        // The flip arms past the arena's ~4 KB: it fires on the poke
        // writes, damaging the *committed* file before the spill reads.
        let flip = || {
            vec![Event::BitFlip {
                at: 4500,
                file: ARENA_SUBJECT_FILE.to_string(),
                byte: 1234,
            }]
        };
        let stats = run_arena_with(flip(), false).expect("typed detection is green");
        assert!(
            stats.clean_blocks < stats.blocks,
            "the flip damaged nothing ({} of {} blocks clean)",
            stats.clean_blocks,
            stats.blocks
        );
        // A flip-blind oracle must be caught: the damaged load errors
        // become violations, proving the harness sees the corruption.
        let fail = run_arena_with(flip(), true).expect_err("a flip-blind oracle must be caught");
        assert!(
            fail.violations.iter().any(|v| v.contains("intact")),
            "wrong violation class: {fail}"
        );
    }

    #[test]
    fn arena_enospc_retries_to_a_clean_commit() {
        let stats =
            run_arena_with(vec![Event::Enospc { at: 1500 }], false).expect("survivable fault");
        assert!(!stats.crashed);
        assert!(
            stats.rewrites > 0,
            "the failed publish must have been retried"
        );
        assert_eq!(stats.clean_blocks, stats.blocks);
    }
}
