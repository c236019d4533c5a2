//! `MFCK` v2 **delta** records and crash recovery — the durable half of
//! the online lifecycle.
//!
//! A continuously training model rewrites only the rows its new ratings
//! touch; persisting the full factors every epoch would move the whole
//! model to amortize a sliver of change. A v2 delta stores just the
//! touched rows, as runs, against a named base epoch:
//!
//! ```text
//! magic "MFCK" · version=2 · m · n · k · seed · epoch · base_epoch
//! header checksum (XXH64 of the 48 header bytes)
//! P-runs section: count · (start, len)… · row payloads… · XXH64
//! Q-runs section: count · (start, len)… · row payloads… · XXH64
//! ```
//!
//! Framing is [`mf_sparse::frame`], shared with v1 and v3; the header
//! is the v1 layout (`docs/FORMAT.md`) with `version = 2` and the
//! reserved u64 at offset 40 carrying `base_epoch` — legal, since v1
//! readers reject the version before interpreting reserved bytes.
//! `m`/`n` are the geometry **after** the epoch (the model may have
//! grown by fold-in); every grown row is by definition touched, so
//! applying a delta to the smaller base leaves no uninitialized rows.
//!
//! [`recover`] is the other half: scan a directory of snapshots and
//! deltas (plus whatever debris a crash left), classify every file —
//! applied, superseded, unreachable, torn tail, corrupt, orphaned temp —
//! chain the longest valid `base + deltas` prefix, and report exactly
//! what was salvaged. Each file is read and verified once, and the
//! files are scanned in parallel.
//! Torn files (truncated mid-record: the expected residue of a kill)
//! are distinguished from corrupt ones (checksum mismatch on bytes that
//! exist); both simply end the chain early, never load.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Mutex;

use mf_par::ThreadPool;
use mf_sgd::Model;

use crate::checkpoint::{
    self, checked_section_lens, model_header, Checkpoint, CheckpointError, CheckpointMeta,
};
use mf_sparse::frame::{FrameReader, FrameWriter};
use mf_sparse::vfs::{RealFs, Vfs, TMP_SUFFIX};

/// The format version of delta records. Full snapshots stay at
/// [`checkpoint::VERSION`] (= 1); each reader accepts exactly its own
/// version.
pub const DELTA_VERSION: u32 = 2;

/// Provenance of a delta record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaMeta {
    /// Master seed of the run (must match the base's seed).
    pub seed: u64,
    /// The epoch this delta advances the model **to**.
    pub epoch: u64,
    /// The epoch of the state this delta patches — the previous *acked*
    /// record, which is not necessarily `epoch − 1` when intermediate
    /// checkpoint writes failed (their touched rows roll forward into
    /// the next successful delta).
    pub base_epoch: u64,
}

/// One contiguous run of touched rows in a factor matrix. Its payload
/// is the run's slice of its section's buffer ([`Delta::p_data`] or
/// [`Delta::q_data`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First row of the run.
    pub start: u32,
    /// Rows in the run (≥ 1).
    pub len: u32,
}

/// A parsed delta record.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// User rows **after** this epoch (≥ the base's `m`).
    pub m: u32,
    /// Item rows after this epoch.
    pub n: u32,
    /// Latent dimension (must match the base).
    pub k: usize,
    /// Seed, epoch, and base epoch from the header.
    pub meta: DeltaMeta,
    /// Touched runs of `P`, ascending and non-overlapping.
    pub p_runs: Vec<Run>,
    /// Row payloads of `p_runs`, run after run, `k` floats per row.
    pub p_data: Vec<f32>,
    /// Touched runs of `Q`, ascending and non-overlapping.
    pub q_runs: Vec<Run>,
    /// Row payloads of `q_runs`, run after run, `k` floats per row.
    pub q_data: Vec<f32>,
}

/// The file name a delta is written under.
pub fn delta_file_name(epoch: u64) -> String {
    format!("delta_epoch_{epoch:05}.mfckd")
}

/// Compresses a sorted, deduplicated row-id list into `(start, len)`
/// runs.
///
/// # Panics
///
/// Panics if `rows` is not strictly ascending.
pub fn rows_to_runs(rows: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &r in rows {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == r => *len += 1,
            Some((start, len)) => {
                assert!(r > *start + *len - 1, "row ids must be strictly ascending");
                runs.push((r, 1));
            }
            None => runs.push((r, 1)),
        }
    }
    runs
}

/// Writes one run section: `count`, the run table, then the row
/// payloads in run order, sealed with the section checksum.
fn write_runs_section<'m, W: Write>(
    w: &mut FrameWriter<W>,
    rows: &[u32],
    row: impl Fn(u32) -> &'m [f32],
) -> io::Result<()> {
    let runs = rows_to_runs(rows);
    w.put(&[runs.len() as u32])?;
    for &(start, len) in &runs {
        w.put(&[start, len])?;
    }
    for &(start, len) in &runs {
        for r in start..start + len {
            w.put(row(r))?;
        }
    }
    w.seal()
}

/// Writes a delta record: the `p_rows`/`q_rows` of `model` (sorted,
/// deduplicated row ids) against base epoch `meta.base_epoch`.
///
/// # Errors
///
/// `InvalidInput` for a `k = 0` model, unsorted row lists, out-of-range
/// rows, or `meta.epoch ≤ meta.base_epoch` — all would produce a file
/// the reader rejects.
pub fn write_delta<W: Write>(
    model: &Model,
    meta: DeltaMeta,
    p_rows: &[u32],
    q_rows: &[u32],
    w: W,
) -> io::Result<()> {
    let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg.to_string()));
    if model.k() == 0 {
        return invalid("k = 0 model cannot be delta-checkpointed");
    }
    if meta.epoch <= meta.base_epoch {
        return invalid("delta epoch must exceed its base epoch");
    }
    let sorted_in = |rows: &[u32], max: u32| {
        rows.windows(2).all(|p| p[0] < p[1]) && rows.last().is_none_or(|&r| r < max)
    };
    if !sorted_in(p_rows, model.nrows()) || !sorted_in(q_rows, model.ncols()) {
        return invalid("touched rows must be strictly ascending and in range");
    }
    let mut w = FrameWriter::new(BufWriter::new(w));
    let header = model_header(DELTA_VERSION, model, meta.seed, meta.epoch);
    w.header(&header.with(40, meta.base_epoch))?;
    write_runs_section(&mut w, p_rows, |r| model.p_row(r))?;
    write_runs_section(&mut w, q_rows, |r| model.q_row(r))?;
    w.flush()
}

/// Reads one run section, validating the run table (ascending,
/// non-overlapping, in `0..max_rows`) before any payload is read, and
/// the section checksum after. Every run's payload lands in the one
/// returned buffer, in run order.
fn read_runs_section<R: Read>(
    r: &mut FrameReader<R>,
    k: usize,
    max_rows: u32,
    section: &'static str,
) -> Result<(Vec<Run>, Vec<f32>), CheckpointError> {
    let count = r.take_vec::<u32>(1, section)?[0];
    // Each run covers ≥ 1 distinct row, so the table can't be longer
    // than the matrix.
    if count > max_rows {
        return Err(CheckpointError::BadRuns { section });
    }
    let table = r.take_vec::<u32>((count as usize).saturating_mul(2), section)?;
    let mut next_free = 0u64;
    let mut rows = 0usize;
    let runs = table
        .chunks_exact(2)
        .map(|run| {
            let (start, end) = (run[0] as u64, run[0] as u64 + run[1] as u64);
            if run[1] == 0 || start < next_free || end > max_rows as u64 {
                return Err(CheckpointError::BadRuns { section });
            }
            next_free = end;
            rows += run[1] as usize;
            Ok(Run {
                start: run[0],
                len: run[1],
            })
        })
        .collect::<Result<Vec<Run>, CheckpointError>>()?;
    // The runs are disjoint rows of `0..max_rows`, so `rows · k` is at
    // most the section size `checked_section_lens` already bounded.
    let data = r.take_vec(rows * k, section)?;
    r.seal(section)?;
    Ok((runs, data))
}

/// Reads a delta record from any source, verifying all three checksums
/// and the run-table invariants.
pub fn read_delta<R: Read>(r: R) -> Result<Delta, CheckpointError> {
    let mut r = FrameReader::new(BufReader::new(r));
    let header = r.header()?;
    let version = header.version();
    if version != DELTA_VERSION {
        return Err(CheckpointError::BadVersion { version });
    }
    let (m, n, k): (u32, u32, u64) = (header.get(8), header.get(12), header.get(16));
    if checked_section_lens(m, n, k).is_none() {
        return Err(CheckpointError::BadGeometry { m, n, k });
    }
    let meta = DeltaMeta {
        seed: header.get(24),
        epoch: header.get(32),
        base_epoch: header.get(40),
    };
    if meta.epoch <= meta.base_epoch {
        return Err(CheckpointError::BadGeometry { m, n, k });
    }
    let k = k as usize;
    let (p_runs, p_data) = read_runs_section(&mut r, k, m, "P-runs")?;
    let (q_runs, q_data) = read_runs_section(&mut r, k, n, "Q-runs")?;
    Ok(Delta {
        m,
        n,
        k,
        meta,
        p_runs,
        p_data,
        q_runs,
        q_data,
    })
}

impl Delta {
    /// Number of rows this delta rewrites (P + Q).
    pub fn touched_rows(&self) -> u64 {
        let rows = |runs: &[Run]| runs.iter().map(|r| u64::from(r.len)).sum::<u64>();
        rows(&self.p_runs) + rows(&self.q_runs)
    }

    /// Checks that the delta fits `base` without touching payloads:
    /// the chain lines up (base epoch and seed), `k` matches, the
    /// matrices don't shrink, and every grown row is covered by a run
    /// (a gap would serve uninitialized zeros).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BaseMismatch`] when the chain doesn't line
    /// up, [`CheckpointError::BadGeometry`] for an incompatible `k` or
    /// a shrinking matrix, [`CheckpointError::BadRuns`] when a grown
    /// row isn't covered.
    pub fn can_apply(&self, base: &Checkpoint) -> Result<(), CheckpointError> {
        let model = &base.model;
        self.fits(base.meta, model.k(), model.nrows(), model.ncols())
    }

    /// [`Delta::can_apply`] against a base known only by its provenance
    /// and its `m × n × k` geometry.
    fn fits(&self, base: CheckpointMeta, k: usize, m: u32, n: u32) -> Result<(), CheckpointError> {
        if self.meta.base_epoch != base.epoch || self.meta.seed != base.seed {
            return Err(CheckpointError::BaseMismatch {
                delta_base: self.meta.base_epoch,
                have_epoch: base.epoch,
            });
        }
        if self.k != k || self.m < m || self.n < n {
            return Err(CheckpointError::BadGeometry {
                m: self.m,
                n: self.n,
                k: self.k as u64,
            });
        }
        let covered = |runs: &[Run], grown_from: u32, rows: u32, section: &'static str| {
            let mut covered_to = grown_from;
            for run in runs {
                let end = run.start + run.len;
                if run.start <= covered_to {
                    covered_to = covered_to.max(end);
                }
            }
            if covered_to < rows {
                Err(CheckpointError::BadRuns { section })
            } else {
                Ok(())
            }
        };
        covered(&self.p_runs, m, self.m, "P-runs")?;
        covered(&self.q_runs, n, self.n, "Q-runs")
    }

    /// Applies the delta to a base state, producing the checkpoint at
    /// `self.meta.epoch`. The model may grow (`m`/`n` larger than the
    /// base); [`Delta::can_apply`] validates everything first, so no
    /// uninitialized factor can reach serving.
    ///
    /// # Errors
    ///
    /// Exactly [`Delta::can_apply`]'s.
    pub fn apply(&self, base: Checkpoint) -> Result<Checkpoint, CheckpointError> {
        self.can_apply(&base)?;
        let (_, _, k0, mut p, mut q) = base.model.into_parts();
        let patch = |buf: &mut Vec<f32>, rows: u32, runs: &[Run], data: &[f32]| {
            buf.resize(rows as usize * k0, 0.0);
            let mut from = 0;
            for run in runs {
                let (start, len) = (run.start as usize * k0, run.len as usize * k0);
                buf[start..start + len].copy_from_slice(&data[from..from + len]);
                from += len;
            }
        };
        patch(&mut p, self.m, &self.p_runs, &self.p_data);
        patch(&mut q, self.n, &self.q_runs, &self.q_data);
        Ok(Checkpoint {
            model: Model::from_parts(self.m, self.n, k0, p, q),
            meta: CheckpointMeta {
                seed: self.meta.seed,
                epoch: self.meta.epoch,
            },
        })
    }
}

/// One line of the recovery report: what a file in the directory turned
/// out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNote {
    /// File name within the scanned directory.
    pub name: String,
    /// Human-readable classification ("applied", "torn tail …", …).
    pub detail: String,
}

impl std::fmt::Display for FileNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.detail)
    }
}

/// The outcome of a successful [`recover`] scan.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The reconstructed state at the newest reachable epoch — every
    /// byte of it came from checksum-verified records.
    pub checkpoint: Checkpoint,
    /// Epoch of the full snapshot the chain started from.
    pub base_epoch: u64,
    /// Deltas applied on top of the base snapshot.
    pub deltas_applied: usize,
    /// Per-file classification of everything found in the directory.
    pub notes: Vec<FileNote>,
}

impl Recovery {
    /// Epoch of the recovered state.
    pub fn epoch(&self) -> u64 {
        self.checkpoint.meta.epoch
    }
}

/// Errors from [`recover`].
#[derive(Debug)]
pub enum RecoverError {
    /// The directory itself could not be scanned.
    Io(io::Error),
    /// No valid base snapshot survived — nothing to serve. The notes
    /// say what was found and why each file was rejected.
    NothingSalvageable {
        /// Per-file classification of the rejected directory contents.
        notes: Vec<FileNote>,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery scan failed: {e}"),
            RecoverError::NothingSalvageable { notes } => {
                write!(f, "no valid checkpoint chain found ({} files:", notes.len())?;
                for n in notes {
                    write!(f, "\n  {n}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// Classifies a load failure for the report: torn tails are the
/// expected debris of an interrupted write; everything else means the
/// bytes themselves are wrong.
fn classify(e: &CheckpointError) -> String {
    match e {
        CheckpointError::Torn { section } => {
            format!("torn tail (ends mid-{section}) — interrupted write, skipped")
        }
        other => format!("corrupt ({other}) — skipped"),
    }
}

/// What one listed file holds, read and verified once by the scan.
enum Scanned {
    /// A `*.tmp` left by an interrupted publish; never opened.
    Orphan,
    /// A `*.mfck` full snapshot.
    Snapshot(Result<Checkpoint, CheckpointError>),
    /// A `*.mfckd` delta.
    Delta(Result<Delta, CheckpointError>),
    /// Anything else; never opened.
    Unrecognized,
}

/// Reads and verifies `dir/name` according to its suffix.
fn scan(fs: &dyn Vfs, dir: &Path, name: &str) -> Scanned {
    let open = || fs.open(&dir.join(name)).map_err(CheckpointError::Io);
    if name.ends_with(TMP_SUFFIX) {
        Scanned::Orphan
    } else if name.ends_with(".mfck") {
        Scanned::Snapshot(open().and_then(checkpoint::read_checkpoint))
    } else if name.ends_with(".mfckd") {
        Scanned::Delta(open().and_then(read_delta))
    } else {
        Scanned::Unrecognized
    }
}

/// Scans `dir` through `fs` and reconstructs the newest state reachable
/// from intact records: the best valid full snapshot plus every delta
/// that chains from it (`delta.base_epoch` = current epoch, repeatedly).
///
/// Guarantees, under any combination of torn tails, truncated files,
/// and flipped bytes:
///
/// * **never loads a corrupt factor** — every record in the chain
///   passed all its checksums; anything else is skipped with a note;
/// * **truncates to the last valid prefix** — a torn or corrupt delta
///   ends the chain at the record before it;
/// * **reports exactly what was salvaged** — every file in the
///   directory appears in [`Recovery::notes`], classified.
///
/// Orphaned `*.tmp` files (a writer died mid-publish) are noted and
/// ignored; they are never loaded.
///
/// Each file is read and verified once, on
/// [`ThreadPool::global`](mf_par::ThreadPool::global), one task per
/// listed name. The results are consumed in [`Vfs::list`] order, so the
/// duplicate-delta choice, the chain and the report do not depend on
/// the pool size or on which file finished first.
pub fn recover_in(fs: &dyn Vfs, dir: &Path) -> Result<Recovery, RecoverError> {
    let names = fs.list(dir).map_err(RecoverError::Io)?;
    let slots: Vec<Mutex<Option<Scanned>>> = names.iter().map(|_| Mutex::new(None)).collect();
    ThreadPool::global().run_indexed(names.len(), |i| {
        *slots[i].lock().expect("poisoned") = Some(scan(fs, dir, &names[i]));
    });
    let mut notes = Vec::new();
    let mut snapshots: Vec<(String, Option<Checkpoint>)> = Vec::new();
    // base_epoch → (name, delta). One outgoing delta per acked epoch:
    // a writer acks sequentially, so a collision means foreign files —
    // keep the first (list order) and note the other.
    let mut deltas: BTreeMap<u64, (String, Delta)> = BTreeMap::new();
    for (name, slot) in names.into_iter().zip(slots) {
        let note = |detail: String| FileNote {
            name: name.clone(),
            detail,
        };
        match slot
            .into_inner()
            .expect("poisoned")
            .expect("every name scanned")
        {
            Scanned::Orphan => notes.push(note(
                "orphaned temp from an interrupted write — ignored".to_string(),
            )),
            Scanned::Snapshot(Ok(ck)) => snapshots.push((name, Some(ck))),
            Scanned::Delta(Ok(d)) => {
                if let Some((prev, _)) = deltas.get(&d.meta.base_epoch) {
                    notes.push(note(format!(
                        "duplicate delta for base epoch {} (already have {prev}) — ignored",
                        d.meta.base_epoch
                    )));
                } else {
                    deltas.insert(d.meta.base_epoch, (name, d));
                }
            }
            Scanned::Snapshot(Err(e)) | Scanned::Delta(Err(e)) => notes.push(note(classify(&e))),
            Scanned::Unrecognized => notes.push(note("unrecognized file — ignored".to_string())),
        }
    }

    // Chain length is a pure function of (snapshot epoch, delta map):
    // follow base-epoch links without touching payloads, then
    // materialize only the winning chain. Newest snapshot wins ties —
    // fewer deltas to apply for the same final epoch.
    snapshots.sort_by(|a, b| {
        let e = |s: &(String, Option<Checkpoint>)| s.1.as_ref().map(|c| c.meta.epoch);
        e(b).cmp(&e(a))
    });
    let reach = |start: u64| {
        let mut e = start;
        while let Some((_, d)) = deltas.get(&e) {
            e = d.meta.epoch;
        }
        e
    };
    let mut best: Option<usize> = None;
    for (i, (_, ck)) in snapshots.iter().enumerate() {
        let start = ck.as_ref().expect("unconsumed").meta.epoch;
        let candidate = reach(start);
        if best.is_none_or(|b| {
            candidate > reach(snapshots[b].1.as_ref().expect("unconsumed").meta.epoch)
        }) {
            best = Some(i);
        }
    }
    let Some(best) = best else {
        return Err(RecoverError::NothingSalvageable { notes });
    };

    let mut current = snapshots[best].1.take().expect("selected once");
    let base_epoch = current.meta.epoch;
    // Grow the factor buffers once, to the geometry at the end of the
    // chain, so no `apply` reallocates them. The walk stops where the
    // apply loop below will: only deltas that fit count, so every
    // reserved row is one a verified run delivers.
    let (seed, k) = (current.meta.seed, current.model.k());
    let (mut m, mut n, mut epoch) = (current.model.nrows(), current.model.ncols(), base_epoch);
    while let Some((_, d)) = deltas.get(&epoch) {
        if d.fits(CheckpointMeta { seed, epoch }, k, m, n).is_err() {
            break;
        }
        (m, n, epoch) = (d.m, d.n, d.meta.epoch);
    }
    current.model = reserve_rows(current.model, m, n);
    notes.push(FileNote {
        name: snapshots[best].0.clone(),
        detail: format!("base snapshot at epoch {base_epoch} — chain start"),
    });
    for (name, ck) in snapshots.iter().filter(|(_, c)| c.is_some()) {
        notes.push(FileNote {
            name: name.clone(),
            detail: format!(
                "valid snapshot at epoch {} — superseded, not loaded",
                ck.as_ref().expect("filtered").meta.epoch
            ),
        });
    }
    let mut applied = 0usize;
    while let Some((name, d)) = deltas.remove(&current.meta.epoch) {
        // The epochs line up by construction, but a checksummed-yet-
        // foreign file can still disagree on seed, geometry, or run
        // coverage — validate before consuming the base so the chain
        // ends at the last good state instead of serving a mongrel.
        if let Err(e) = d.can_apply(&current) {
            notes.push(FileNote {
                name,
                detail: format!("does not fit the recovered state ({e}) — chain ends here"),
            });
            break;
        }
        notes.push(FileNote {
            name,
            detail: format!(
                "delta to epoch {} (base {}, {} rows) — applied",
                d.meta.epoch,
                d.meta.base_epoch,
                d.touched_rows()
            ),
        });
        current = d.apply(current).expect("pre-validated by can_apply");
        applied += 1;
    }
    // Remaining deltas either end at or before the chain's base (the
    // base snapshot already holds their state) or chain from epochs we
    // never reached (their base record was lost or they belong to a
    // dead branch).
    for (base, (name, d)) in deltas {
        let detail = if d.meta.epoch <= base_epoch {
            format!(
                "delta to epoch {} (base {base}) — superseded by the base snapshot at epoch \
                 {base_epoch}, not loaded",
                d.meta.epoch
            )
        } else {
            format!(
                "delta to epoch {} unreachable (no valid record at its base epoch {base}) — skipped",
                d.meta.epoch
            )
        };
        notes.push(FileNote { name, detail });
    }
    Ok(Recovery {
        checkpoint: current,
        base_epoch,
        deltas_applied: applied,
        notes,
    })
}

/// `model` with capacity for `m × n` factors, its values untouched.
fn reserve_rows(model: Model, m: u32, n: u32) -> Model {
    let (m0, n0, k, mut p, mut q) = model.into_parts();
    p.reserve((m as usize * k).saturating_sub(p.len()));
    q.reserve((n as usize * k).saturating_sub(q.len()));
    Model::from_parts(m0, n0, k, p, q)
}

/// [`recover_in`] over the real filesystem — the production entry
/// point: `recover(dir)` after a crash yields the newest
/// checksum-verified state and a per-file report.
pub fn recover<P: AsRef<Path>>(dir: P) -> Result<Recovery, RecoverError> {
    recover_in(&RealFs, dir.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::HEADER_LEN;

    fn base_model() -> Model {
        Model::init(6, 8, 4, 9)
    }

    fn meta(epoch: u64, base: u64) -> DeltaMeta {
        DeltaMeta {
            seed: 9,
            epoch,
            base_epoch: base,
        }
    }

    #[test]
    fn runs_compress_and_round_trip() {
        assert_eq!(rows_to_runs(&[]), vec![]);
        assert_eq!(rows_to_runs(&[3]), vec![(3, 1)]);
        assert_eq!(
            rows_to_runs(&[0, 1, 2, 5, 7, 8]),
            vec![(0, 3), (5, 1), (7, 2)]
        );
    }

    #[test]
    fn delta_round_trip_is_bit_identical() {
        let model = base_model();
        let mut buf = Vec::new();
        write_delta(&model, meta(5, 4), &[1, 2, 4], &[0, 7], &mut buf).unwrap();
        let d = read_delta(&buf[..]).unwrap();
        assert_eq!(d.meta, meta(5, 4));
        assert_eq!((d.m, d.n, d.k), (6, 8, 4));
        let run = |start, len| Run { start, len };
        assert_eq!(d.p_runs, [run(1, 2), run(4, 1)]);
        assert_eq!(d.q_runs, [run(0, 1), run(7, 1)]);
        let rows = |row: fn(&Model, u32) -> &[f32], ids: &[u32]| {
            ids.iter()
                .flat_map(|&r| row(&model, r))
                .copied()
                .collect::<Vec<f32>>()
        };
        assert_eq!(d.p_data, rows(Model::p_row, &[1, 2, 4]));
        assert_eq!(d.q_data, rows(Model::q_row, &[0, 7]));
        assert_eq!(d.touched_rows(), 5);
    }

    #[test]
    fn apply_patches_only_touched_rows_and_grows() {
        // Base at epoch 4; new state has one more user, rows 1 and 6
        // (the grown one) touched in P, row 0 in Q.
        let base = Checkpoint {
            model: base_model(),
            meta: CheckpointMeta { seed: 9, epoch: 4 },
        };
        let mut next = Model::from_parts(
            7,
            8,
            4,
            [base.model.p_raw(), &[9.0; 4][..]].concat(),
            base.model.q_raw().to_vec(),
        );
        next.p_row_mut(1).fill(5.0);
        next.q_row_mut(0).fill(-1.0);
        let mut buf = Vec::new();
        write_delta(&next, meta(5, 4), &[1, 6], &[0], &mut buf).unwrap();
        let d = read_delta(&buf[..]).unwrap();
        let out = d.apply(base.clone()).unwrap();
        assert_eq!(out.meta.epoch, 5);
        assert_eq!(out.model, next);

        // Wrong base epoch refuses to chain.
        let stale = Checkpoint {
            meta: CheckpointMeta { seed: 9, epoch: 3 },
            ..base.clone()
        };
        assert!(matches!(
            d.apply(stale),
            Err(CheckpointError::BaseMismatch { .. })
        ));

        // A grown row not covered by any run is rejected.
        let mut buf = Vec::new();
        write_delta(&next, meta(5, 4), &[1], &[0], &mut buf).unwrap();
        let d = read_delta(&buf[..]).unwrap();
        assert!(matches!(
            d.apply(base),
            Err(CheckpointError::BadRuns { section: "P-runs" })
        ));
    }

    #[test]
    fn v1_reader_rejects_deltas_and_vice_versa() {
        let model = base_model();
        let mut dbuf = Vec::new();
        write_delta(&model, meta(2, 1), &[0], &[], &mut dbuf).unwrap();
        assert!(matches!(
            checkpoint::read_checkpoint(&dbuf[..]),
            Err(CheckpointError::BadVersion { version: 2 })
        ));
        let mut cbuf = Vec::new();
        checkpoint::write_checkpoint(&model, CheckpointMeta { seed: 9, epoch: 1 }, &mut cbuf)
            .unwrap();
        assert!(matches!(
            read_delta(&cbuf[..]),
            Err(CheckpointError::BadVersion { version: 1 })
        ));
    }

    #[test]
    fn torn_and_corrupt_deltas_are_distinguished() {
        let model = base_model();
        let mut buf = Vec::new();
        write_delta(&model, meta(2, 1), &[0, 1], &[3], &mut buf).unwrap();
        // Torn: any strict prefix.
        assert!(matches!(
            read_delta(&buf[..buf.len() - 2]),
            Err(CheckpointError::Torn { .. })
        ));
        assert!(matches!(
            read_delta(&buf[..20]),
            Err(CheckpointError::Torn { section: "header" })
        ));
        // Corrupt: flip one payload byte.
        let mut bad = buf.clone();
        let at = HEADER_LEN + 8 + 4 + 8 + 6; // inside the first P run payload
        bad[at] ^= 0x10;
        assert!(matches!(
            read_delta(&bad[..]),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn writer_rejects_garbage_inputs() {
        let model = base_model();
        let kinds = [
            write_delta(&model, meta(1, 1), &[0], &[], &mut Vec::new()), // epoch ≤ base
            write_delta(&model, meta(2, 1), &[2, 1], &[], &mut Vec::new()), // unsorted
            write_delta(&model, meta(2, 1), &[0], &[99], &mut Vec::new()), // out of range
        ];
        for r in kinds {
            assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
    }
}
