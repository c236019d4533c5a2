//! IO fault injection for the crash-safe online lifecycle.
//!
//! [`crate::script`] attacks the *schedulers*; this module attacks the
//! *durability layer*: it drives `mf_serve`'s live train-and-serve loop
//! against an in-memory filesystem ([`FaultFs`]) that injects short
//! writes, ENOSPC, byte-exact crash kills, torn renames, and bit flips
//! — keyed by **cumulative bytes written**, the one deterministic clock
//! the storage path has — then kills the loop and asserts the recovery
//! contract:
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
//! Scenarios are serialized as [`IoScript`]s in the same line-oriented
//! `.fz` style as scheduler scripts (magic `hsgd-fuzz io v1`), replayed
//! by the `fuzz_smoke` CI gate, and shrunk by [`shrink_io`] when a
//! fresh seed fails.
//!
//! A second **subject** shares the script format and fault vocabulary:
//! `subject arena` scenarios attack the out-of-core training path
//! instead of the serving lifecycle — the MFCK v3 block arena
//! (`mf_sparse::arena`) is written through the same [`FaultFs`], then
//! re-opened spill-backed, and the contract audited is the spill
//! contract: a crash mid-write leaves at worst orphaned `*.tmp` debris,
//! a bit flip in a spilled block surfaces as a typed
//! [`mf_sparse::arena::ArenaError`] before any byte reaches a kernel,
//! and every block that does load is bit-identical to the in-RAM truth.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use mf_data::{ingest_stream, IngestConfig};
use mf_serve::checkpoint::{self, CheckpointMeta};
use mf_serve::delta::{self, recover_in, RecoverError};
use mf_serve::live::{LiveConfig, LiveTrainer, RecordKind};
use mf_sgd::Model;
use mf_sparse::arena::BlockArena;
use mf_sparse::vfs::{Vfs, TMP_SUFFIX};
use mf_sparse::{BlockOrder, GridPartition, GridSpec, Rating, SparseMatrix};

use crate::check::drop_one;
use crate::rng::SplitMix;
use crate::script::Fields;

/// The message every injected kill carries. The harness matches on it
/// to tell "the disk died" (stop and recover) from ordinary write
/// failures like ENOSPC (keep training unacked).
pub const CRASH_MSG: &str = "injected crash: storage stopped mid-operation";

fn crash_err() -> io::Error {
    io::Error::other(CRASH_MSG)
}

/// One injected storage fault. `at` is the cumulative-bytes-written
/// clock value at which the event arms; each event fires at most once.
#[derive(Debug, Clone, PartialEq)]
pub enum IoEvent {
    /// The next `write` accepts at most `len` bytes — exercises the
    /// caller's retry path (`write_all` must finish the record).
    ShortWrite {
        /// Byte-clock trigger.
        at: u64,
        /// Bytes the throttled write accepts (0 = a `WriteZero` error,
        /// which fails the publish without crashing).
        len: usize,
    },
    /// One write fails with "no space left" — the publish fails, the
    /// epoch goes unacked, and the loop must keep going.
    Enospc {
        /// Byte-clock trigger.
        at: u64,
    },
    /// The storage dies exactly at byte `at`: the in-flight temporary
    /// keeps its accepted prefix as an orphan, nothing is renamed, and
    /// every later operation fails with [`CRASH_MSG`].
    Crash {
        /// Byte-clock trigger (the kill is byte-exact).
        at: u64,
    },
    /// The rename itself tears: the *final* name appears holding only
    /// the first `keep` bytes (clamped to a proper prefix), then the
    /// storage dies. Recovery must classify the file as torn, never
    /// load it.
    TornRename {
        /// Byte-clock trigger, checked at commit time.
        at: u64,
        /// Bytes of the record that survive under the final name.
        keep: u64,
    },
    /// Silent corruption: one bit of committed file `file` flips when
    /// the clock passes `at` (no-op if the file doesn't exist yet).
    BitFlip {
        /// Byte-clock trigger.
        at: u64,
        /// Target file name within the lifecycle directory.
        file: String,
        /// Selects the flipped byte (`byte % file_len`) and bit
        /// (`byte % 8`).
        byte: u64,
    },
}

impl IoEvent {
    /// The event's byte-clock trigger.
    pub fn at(&self) -> u64 {
        match self {
            IoEvent::ShortWrite { at, .. }
            | IoEvent::Enospc { at }
            | IoEvent::Crash { at }
            | IoEvent::TornRename { at, .. }
            | IoEvent::BitFlip { at, .. } => *at,
        }
    }
}

struct FaultState {
    /// Committed files, name → bytes (the post-rename namespace).
    files: BTreeMap<String, Vec<u8>>,
    /// Cumulative bytes accepted across all writes — the fault clock.
    written: u64,
    events: Vec<IoEvent>,
    fired: Vec<bool>,
    crashed: bool,
    /// Files a [`IoEvent::BitFlip`] actually damaged.
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
            if let IoEvent::BitFlip { at, file, byte } = &self.events[i] {
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
    /// A fresh filesystem armed with `events`.
    pub fn new(events: Vec<IoEvent>) -> FaultFs {
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
                IoEvent::Crash { at } if clock + data.len() as u64 > at => {
                    // Byte-exact: accept up to the kill point, then die.
                    self.st.fired[i] = true;
                    let accept = (at.saturating_sub(clock) as usize).min(data.len());
                    self.buf.extend_from_slice(&data[..accept]);
                    self.st.written += accept as u64;
                    self.st.crashed = true;
                    return Err(crash_err());
                }
                IoEvent::Enospc { at } if clock + data.len() as u64 > at => {
                    self.st.fired[i] = true;
                    return Err(io::Error::other("injected ENOSPC: no space left on device"));
                }
                IoEvent::ShortWrite { at, len } if clock + data.len() as u64 > at => {
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
            if let IoEvent::TornRename { at, keep } = st.events[i].clone() {
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

/// One serialized lifecycle-fault scenario:
///
/// ```text
/// hsgd-fuzz io v1
/// seed 42
/// geometry users=32 items=48 k=8
/// stream epochs=8 per_epoch=40 new_user_frac=0.1 new_item_frac=0.05
/// snapshot every=3
/// shortwrite at=5000 len=7
/// enospc at=9000
/// bitflip at=20000 file=delta_epoch_00002.mfckd byte=517
/// crash at=31000
/// ```
///
/// Fault events are keyed by cumulative bytes written — the storage
/// path's deterministic clock, playing the role completed passes play
/// for scheduler scripts.
///
/// An optional `subject arena` line switches the harness from the
/// serving lifecycle to the out-of-core block arena (same faults, same
/// clock, different durable artifact and contract).
#[derive(Debug, Clone, PartialEq)]
pub struct IoScript {
    /// What the faults are aimed at (default: the serving lifecycle).
    pub subject: IoSubject,
    /// Master seed: model init, ingest stream, and fold-in rows.
    pub seed: u64,
    /// Users at bootstrap.
    pub users: u32,
    /// Items at bootstrap.
    pub items: u32,
    /// Latent dimension.
    pub k: usize,
    /// Epochs the loop attempts before the (possibly early) end.
    pub epochs: u32,
    /// Ratings ingested per epoch.
    pub per_epoch: usize,
    /// Fraction of events naming an unseen user.
    pub new_user_frac: f64,
    /// Fraction of events naming an unseen item.
    pub new_item_frac: f64,
    /// Re-basing snapshot cadence ([`LiveConfig::snapshot_every`]).
    pub snapshot_every: u64,
    /// Injected storage faults.
    pub events: Vec<IoEvent>,
}

/// Which durable artifact an [`IoScript`]'s faults attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoSubject {
    /// The live train-and-serve loop: snapshots, deltas, recovery.
    #[default]
    Lifecycle,
    /// The out-of-core training path: one MFCK v3 block arena, written
    /// and spill-read through the faulted filesystem.
    Arena,
}

impl IoScript {
    /// First line of every serialized IO script.
    pub const MAGIC: &'static str = "hsgd-fuzz io v1";

    /// A hostile-but-well-formed scenario for `seed`.
    pub fn generate(seed: u64) -> IoScript {
        let mut rng = SplitMix::new(seed ^ IO_SCRIPT_SEED_SALT);
        let users = rng.range(24, 64) as u32;
        let items = rng.range(32, 96) as u32;
        let k = rng.range(4, 12) as usize;
        let epochs = rng.range(5, 12) as u32;
        let per_epoch = rng.range(20, 60) as usize;
        let snapshot_every = rng.range(2, 6);
        // Rough bytes-per-record bound (the model roughly doubles by
        // fold-in over a run); events land somewhere inside the run.
        let est_total =
            (epochs as u64 + 1) * (72 + 2 * (users as u64 + items as u64) * k as u64 * 4);
        let mut events = Vec::new();
        let mut fatal = false;
        for _ in 0..rng.range(1, 3) {
            let at = rng.range(1, est_total);
            match rng.range(0, 4) {
                0 => events.push(IoEvent::ShortWrite {
                    at,
                    len: rng.range(1, 4096) as usize,
                }),
                1 => events.push(IoEvent::Enospc { at }),
                2 if !fatal => {
                    fatal = true;
                    events.push(IoEvent::Crash { at });
                }
                3 if !fatal => {
                    fatal = true;
                    events.push(IoEvent::TornRename {
                        at,
                        keep: rng.range(0, 4096),
                    });
                }
                _ => {
                    let epoch = rng.range(1, epochs as u64);
                    let file = if rng.unit() < 0.5 || !epoch.is_multiple_of(snapshot_every) {
                        delta::delta_file_name(epoch)
                    } else {
                        checkpoint::epoch_file_name(epoch)
                    };
                    events.push(IoEvent::BitFlip {
                        at,
                        file,
                        byte: rng.range(0, 1 << 17),
                    });
                }
            }
        }
        let mut script = IoScript {
            subject: IoSubject::Lifecycle,
            seed,
            users,
            items,
            k,
            epochs,
            per_epoch,
            new_user_frac: rng.range_f64(0.0, 0.15),
            new_item_frac: rng.range_f64(0.0, 0.15),
            snapshot_every,
            events,
        };
        // Subject drawn *last* so lifecycle scenarios for a given seed
        // are unchanged by the arena subject's existence.
        if rng.unit() < 0.35 {
            script.subject = IoSubject::Arena;
            // The arena is a far smaller artifact than a whole lifecycle
            // run; rescale the byte-clock triggers so faults land inside
            // the write (or just past it, where bit flips strike the
            // committed file).
            let arena_est = script.epochs as u64 * script.per_epoch as u64 * 12 + 600;
            for e in &mut script.events {
                match e {
                    IoEvent::ShortWrite { at, .. }
                    | IoEvent::Enospc { at }
                    | IoEvent::Crash { at }
                    | IoEvent::TornRename { at, .. }
                    | IoEvent::BitFlip { at, .. } => *at = *at % arena_est + 1,
                }
            }
        }
        script
    }
}

impl fmt::Display for IoScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", IoScript::MAGIC)?;
        writeln!(f, "seed {}", self.seed)?;
        if self.subject == IoSubject::Arena {
            writeln!(f, "subject arena")?;
        }
        writeln!(
            f,
            "geometry users={} items={} k={}",
            self.users, self.items, self.k
        )?;
        writeln!(
            f,
            "stream epochs={} per_epoch={} new_user_frac={} new_item_frac={}",
            self.epochs, self.per_epoch, self.new_user_frac, self.new_item_frac
        )?;
        writeln!(f, "snapshot every={}", self.snapshot_every)?;
        for e in &self.events {
            match e {
                IoEvent::ShortWrite { at, len } => writeln!(f, "shortwrite at={at} len={len}")?,
                IoEvent::Enospc { at } => writeln!(f, "enospc at={at}")?,
                IoEvent::Crash { at } => writeln!(f, "crash at={at}")?,
                IoEvent::TornRename { at, keep } => {
                    writeln!(f, "tornrename at={at} keep={keep}")?;
                }
                IoEvent::BitFlip { at, file, byte } => {
                    writeln!(f, "bitflip at={at} file={file} byte={byte}")?;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for IoScript {
    type Err = String;

    fn from_str(s: &str) -> Result<IoScript, String> {
        let mut lines = s
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(IoScript::MAGIC) {
            return Err(format!("missing {:?} header", IoScript::MAGIC));
        }
        let mut subject = IoSubject::Lifecycle;
        let mut seed = None;
        let mut geometry = None;
        let mut stream = None;
        let mut snapshot_every = None;
        let mut events = Vec::new();
        for line in lines {
            let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
            if word == "seed" {
                seed = Some(
                    rest.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed in {line:?}"))?,
                );
                continue;
            }
            if word == "subject" {
                subject = match rest.trim() {
                    "lifecycle" => IoSubject::Lifecycle,
                    "arena" => IoSubject::Arena,
                    other => return Err(format!("unknown subject {other:?} in {line:?}")),
                };
                continue;
            }
            let f = Fields::parse(line, rest)?;
            match word {
                "geometry" => {
                    geometry = Some((
                        f.get::<u32>("users")?,
                        f.get::<u32>("items")?,
                        f.get::<usize>("k")?,
                    ));
                }
                "stream" => {
                    stream = Some((
                        f.get::<u32>("epochs")?,
                        f.get::<usize>("per_epoch")?,
                        f.get::<f64>("new_user_frac")?,
                        f.get::<f64>("new_item_frac")?,
                    ));
                }
                "snapshot" => snapshot_every = Some(f.get::<u64>("every")?),
                "shortwrite" => events.push(IoEvent::ShortWrite {
                    at: f.get("at")?,
                    len: f.get("len")?,
                }),
                "enospc" => events.push(IoEvent::Enospc { at: f.get("at")? }),
                "crash" => events.push(IoEvent::Crash { at: f.get("at")? }),
                "tornrename" => events.push(IoEvent::TornRename {
                    at: f.get("at")?,
                    keep: f.get("keep")?,
                }),
                "bitflip" => events.push(IoEvent::BitFlip {
                    at: f.get("at")?,
                    file: f.get("file")?,
                    byte: f.get("byte")?,
                }),
                other => return Err(format!("unknown directive {other:?} in {line:?}")),
            }
        }
        let (users, items, k) = geometry.ok_or("missing geometry line")?;
        let (epochs, per_epoch, new_user_frac, new_item_frac) =
            stream.ok_or("missing stream line")?;
        Ok(IoScript {
            subject,
            seed: seed.ok_or("missing seed line")?,
            users,
            items,
            k,
            epochs,
            per_epoch,
            new_user_frac,
            new_item_frac,
            snapshot_every: snapshot_every.ok_or("missing snapshot line")?,
            events,
        })
    }
}

/// What a clean kill-and-recover run reports.
#[derive(Debug, Clone)]
pub struct IoRunStats {
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
}

/// A failed run: every durability-contract violation observed.
#[derive(Debug, Clone)]
pub struct IoFailure {
    /// Violations in detection order.
    pub violations: Vec<String>,
}

impl fmt::Display for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[io] {} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Harness knobs. The defaults are the real contract; `ignore_flips`
/// deliberately mis-builds the oracle (treating bit-flipped records as
/// intact) so the negative test can prove the harness detects silent
/// corruption.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoOptions {
    /// Build the expected-state oracle as if no bit flip had fired.
    pub ignore_flips: bool,
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
fn fingerprint(model: &Model, seed: u64, epoch: u64) -> u64 {
    let mut buf = Vec::new();
    checkpoint::write_checkpoint(model, CheckpointMeta { seed, epoch }, &mut buf)
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

/// Replays `script` with the default (honest) oracle.
pub fn run_io_script(script: &IoScript) -> Result<IoRunStats, IoFailure> {
    run_io_script_with(script, IoOptions::default())
}

/// Replays one scenario end to end: bootstrap → ingest/step epochs
/// under fault injection (with reader-consistency checks after every
/// publish) → kill → recover → audit against the shadow log → heal,
/// resume, and re-recover one epoch further.
pub fn run_io_script_with(script: &IoScript, opts: IoOptions) -> Result<IoRunStats, IoFailure> {
    if script.subject == IoSubject::Arena {
        return run_arena_script(script, opts);
    }
    let mut violations: Vec<String> = Vec::new();
    let fs = Arc::new(FaultFs::new(script.events.clone()));
    let dir = PathBuf::from("/lifecycle");
    let cfg = LiveConfig {
        snapshot_every: script.snapshot_every,
        ..Default::default()
    };
    let model = Model::init(script.users, script.items, script.k, script.seed);
    let base_fp = fingerprint(&model, script.seed, 0);

    let mut shadow: Vec<AckedRec> = Vec::new();
    let mut epochs_run = 0u64;
    let mut crashed = false;

    let trainer = match LiveTrainer::bootstrap(
        fs.clone(),
        dir.clone(),
        model,
        CheckpointMeta {
            seed: script.seed,
            epoch: 0,
        },
        cfg,
    ) {
        Ok(t) => {
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
                users: script.users,
                items: script.items,
                new_user_frac: script.new_user_frac,
                new_item_frac: script.new_item_frac,
                seed: script.seed,
            },
            script.epochs as usize * script.per_epoch,
        );
        let live = t.live();
        for chunk in stream.chunks(script.per_epoch.max(1)) {
            for ev in chunk {
                t.ingest(ev.user, ev.item, ev.rating);
            }
            // A delta acked by this step chains off the epoch that was
            // acked *before* it ran.
            let base_of_step = t.acked_epoch();
            let rep = t.step();
            epochs_run += 1;

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
                    fingerprint: fingerprint(t.model(), script.seed, rep.epoch),
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
    let damaged: BTreeSet<String> = if opts.ignore_flips {
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
                let got_fp = fingerprint(
                    &rec.checkpoint.model,
                    rec.checkpoint.meta.seed,
                    rec.checkpoint.meta.epoch,
                );
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
                seed: script.seed ^ 1,
            },
            script.per_epoch.max(1),
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
                    let want = fingerprint(t.model(), script.seed, rec2.epoch());
                    let got = fingerprint(
                        &rec2.checkpoint.model,
                        rec2.checkpoint.meta.seed,
                        rec2.checkpoint.meta.epoch,
                    );
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
        Ok(IoRunStats {
            epochs_run,
            acked_epochs: shadow.len().saturating_sub(1) as u64,
            crashed,
            recovered_epoch,
            resumed,
        })
    } else {
        Err(IoFailure { violations })
    }
}

/// Generates and replays the IO scenario for `seed`.
pub fn fuzz_io_seed(seed: u64) -> Result<IoRunStats, IoFailure> {
    run_io_script(&IoScript::generate(seed))
}

// ---------------------------------------------------------------------------
// The arena subject
// ---------------------------------------------------------------------------

/// File name the arena subject's one durable artifact is published as.
pub const ARENA_SUBJECT_FILE: &str = "train.arena";

/// The deterministic rating matrix an arena scenario spills: geometry
/// from the script, `epochs * per_epoch` ratings from its seed.
fn arena_matrix(script: &IoScript) -> SparseMatrix {
    let mut rng = SplitMix::new(script.seed ^ ARENA_SUBJECT_SEED_SALT);
    let (m, n) = (script.users, script.items);
    let mut mat = SparseMatrix::empty(m, n);
    for _ in 0..(script.epochs as usize * script.per_epoch).max(1) {
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
/// Stats mapping (the struct is shared with the lifecycle subject):
/// `epochs_run` = total blocks, `acked_epochs` = blocks served clean
/// through the spill cache, `resumed` = a failed write was retried to a
/// committed arena.
fn run_arena_script(script: &IoScript, opts: IoOptions) -> Result<IoRunStats, IoFailure> {
    let mut violations: Vec<String> = Vec::new();
    // The subject has exactly one durable artifact: aim every flip at it.
    let events: Vec<IoEvent> = script
        .events
        .iter()
        .cloned()
        .map(|e| match e {
            IoEvent::BitFlip { at, byte, .. } => IoEvent::BitFlip {
                at,
                file: ARENA_SUBJECT_FILE.to_string(),
                byte,
            },
            other => other,
        })
        .collect();
    let fs = Arc::new(FaultFs::new(events));
    let dir = PathBuf::from("/arena");
    let mat = arena_matrix(script);
    let part = GridPartition::build_with_order(
        &mat,
        GridSpec::uniform(script.users, script.items, 4, 3),
        BlockOrder::UserMajor,
    );
    let blocks = part.spec().block_count();
    let final_name = ARENA_SUBJECT_FILE.to_string();
    let orphan_name = format!("{ARENA_SUBJECT_FILE}{TMP_SUFFIX}");

    // ---- Write under fire; every failed publish is retried. ----
    let mut crashed = false;
    let mut committed = false;
    let mut write_failures = 0u32;
    for _ in 0..script.events.len() + 2 {
        match part.write_arena(fs.as_ref(), &dir, ARENA_SUBJECT_FILE) {
            Ok(()) => {
                committed = true;
                break;
            }
            Err(e) => {
                write_failures += 1;
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
        return Err(IoFailure { violations });
    }

    // ---- Advance the byte clock past any still-armed flip so it lands
    // on the committed arena (flips only fire on write activity). ----
    let max_flip_at = script
        .events
        .iter()
        .filter_map(|e| match e {
            IoEvent::BitFlip { at, .. } => Some(*at),
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
    let damaged = !opts.ignore_flips && fs.flipped().iter().any(|f| f == ARENA_SUBJECT_FILE);
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
        Ok(IoRunStats {
            epochs_run: blocks as u64,
            acked_epochs: clean_blocks,
            crashed,
            recovered_epoch: None,
            resumed: write_failures > 0,
        })
    } else {
        Err(IoFailure { violations })
    }
}

/// Domain-separates the arena subject's rating stream from everything
/// else derived from the same master seed.
const ARENA_SUBJECT_SEED_SALT: u64 = 0x5b21_c6d8_0f73_a94e;

/// Byte-clock values of a **fault-free** replay of `script`: entry 0 is
/// the clock after the bootstrap snapshot, entry `e` after epoch `e`'s
/// record commits. Deterministic in the script, so `at=` values chosen
/// between two entries land inside that epoch's write — this is how
/// corpus scenarios and the negative tests are calibrated.
pub fn probe_offsets(script: &IoScript) -> Vec<u64> {
    let fs = Arc::new(FaultFs::new(Vec::new()));
    let dir = PathBuf::from("/lifecycle");
    let cfg = LiveConfig {
        snapshot_every: script.snapshot_every,
        ..Default::default()
    };
    let mut t = LiveTrainer::bootstrap(
        fs.clone(),
        dir,
        Model::init(script.users, script.items, script.k, script.seed),
        CheckpointMeta {
            seed: script.seed,
            epoch: 0,
        },
        cfg,
    )
    .expect("fault-free bootstrap");
    let mut offsets = vec![fs.written()];
    let stream = ingest_stream(
        &IngestConfig {
            users: script.users,
            items: script.items,
            new_user_frac: script.new_user_frac,
            new_item_frac: script.new_item_frac,
            seed: script.seed,
        },
        script.epochs as usize * script.per_epoch,
    );
    for chunk in stream.chunks(script.per_epoch.max(1)) {
        for ev in chunk {
            t.ingest(ev.user, ev.item, ev.rating);
        }
        assert!(t.step().acked, "fault-free step must ack");
        offsets.push(fs.written());
    }
    offsets
}

/// Greedy event shrinking for IO scripts — [`drop_one`] over
/// storage-fault events, as [`crate::harness::shrink`] does over
/// scheduler faults.
pub fn shrink_io(script: &IoScript, mut still_fails: impl FnMut(&IoScript) -> bool) -> IoScript {
    let mut cand = script.clone();
    cand.events = drop_one(script.events.clone(), |events| {
        cand.events = events.to_vec();
        still_fails(&cand)
    });
    cand
}

/// Domain-separates IO-script generation from scheduler-script
/// generation under the same master seed.
const IO_SCRIPT_SEED_SALT: u64 = 0x7d3a_9c15_e842_06bf;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_scripts_round_trip_through_text() {
        for seed in 0..50u64 {
            let s = IoScript::generate(seed);
            let text = s.to_string();
            let back: IoScript = text.parse().unwrap_or_else(|e| {
                panic!("seed {seed}: parse failed: {e}\n{text}");
            });
            assert_eq!(text, back.to_string(), "seed {seed} round-trip");
        }
    }

    #[test]
    fn parses_hand_written_io_script() {
        let text = "hsgd-fuzz io v1\n\
                    # lifecycle scenario\n\
                    seed 9\n\
                    geometry users=32 items=48 k=8\n\
                    stream epochs=6 per_epoch=30 new_user_frac=0.1 new_item_frac=0.05\n\
                    snapshot every=3\n\
                    shortwrite at=100 len=7\n\
                    bitflip at=5000 file=delta_epoch_00002.mfckd byte=517\n\
                    crash at=9000\n";
        let s: IoScript = text.parse().expect("parse");
        assert_eq!(s.seed, 9);
        assert_eq!((s.users, s.items, s.k), (32, 48, 8));
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[2], IoEvent::Crash { at: 9000 }));
    }

    #[test]
    fn crash_leaves_an_orphan_temp_with_the_accepted_prefix() {
        let fs = FaultFs::new(vec![IoEvent::Crash { at: 10 }]);
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
        let fs = FaultFs::new(vec![IoEvent::TornRename { at: 5, keep: 4 }]);
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
            IoEvent::ShortWrite { at: 0, len: 3 },
            IoEvent::Enospc { at: 20 },
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
        let fs = FaultFs::new(vec![IoEvent::BitFlip {
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

    /// The arena-subject script fields every inline scenario below uses.
    fn arena_script(events: Vec<IoEvent>) -> IoScript {
        IoScript {
            subject: IoSubject::Arena,
            seed: 13,
            users: 32,
            items: 24,
            k: 6,
            epochs: 5,
            per_epoch: 60,
            new_user_frac: 0.0,
            new_item_frac: 0.0,
            snapshot_every: 3,
            events,
        }
    }

    #[test]
    fn arena_crash_mid_write_leaves_orphan_and_rewrite_round_trips() {
        // ~4 KB arena (300 ratings); the kill lands mid-block-frames.
        let stats = run_io_script(&arena_script(vec![IoEvent::Crash { at: 2000 }]))
            .expect("arena crash scenario must hold the contract");
        assert!(stats.crashed, "the crash event never fired");
        assert!(stats.resumed, "the rewrite after healing never happened");
        assert_eq!(
            stats.acked_epochs, stats.epochs_run,
            "the rewritten arena must serve every block clean"
        );
    }

    #[test]
    fn arena_bitflip_is_typed_and_detected() {
        // The flip arms past the arena's ~4 KB: it fires on the poke
        // writes, damaging the *committed* file before the spill reads.
        let script = arena_script(vec![IoEvent::BitFlip {
            at: 4500,
            file: ARENA_SUBJECT_FILE.to_string(),
            byte: 1234,
        }]);
        let stats = run_io_script(&script).expect("typed detection is green");
        assert!(
            stats.acked_epochs < stats.epochs_run,
            "the flip damaged nothing ({} of {} blocks clean)",
            stats.acked_epochs,
            stats.epochs_run
        );
        // A flip-blind oracle must be caught: the damaged load errors
        // become violations, proving the harness sees the corruption.
        let fail = run_io_script_with(&script, IoOptions { ignore_flips: true })
            .expect_err("a flip-blind oracle must be caught");
        assert!(
            fail.violations.iter().any(|v| v.contains("intact")),
            "wrong violation class: {fail}"
        );
    }

    #[test]
    fn arena_enospc_retries_to_a_clean_commit() {
        let stats = run_io_script(&arena_script(vec![IoEvent::Enospc { at: 1500 }]))
            .expect("survivable fault");
        assert!(!stats.crashed);
        assert!(stats.resumed, "the failed publish must have been retried");
        assert_eq!(stats.acked_epochs, stats.epochs_run);
    }

    #[test]
    fn generated_io_scripts_are_well_formed() {
        for seed in 0..100u64 {
            let s = IoScript::generate(seed);
            assert!(s.users >= 1 && s.items >= 1 && s.k >= 1, "seed {seed}");
            assert!(s.snapshot_every >= 1, "seed {seed}");
            assert!(!s.events.is_empty(), "seed {seed}: no faults generated");
            let fatal = s
                .events
                .iter()
                .filter(|e| matches!(e, IoEvent::Crash { .. } | IoEvent::TornRename { .. }))
                .count();
            assert!(fatal <= 1, "seed {seed}: {fatal} crash-class events");
        }
    }
}
