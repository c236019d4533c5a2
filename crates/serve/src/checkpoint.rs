//! The `MFCK` checkpoint format — the long-lived artifact of a training
//! run.
//!
//! A checkpoint is the factor matrices plus the minimal provenance needed
//! to keep serving honest: the geometry `(m, n, k)`, the training `seed`,
//! and the `epoch` the factors were captured at (the serving cache keys
//! results on it). The byte-level layout is specified field by field in
//! `docs/FORMAT.md` — this module is the reference implementation:
//!
//! ```text
//! magic "MFCK" · version · m · n · k · seed · epoch · reserved
//! header checksum (XXH64 of the 48 header bytes)
//! P payload (m·k f32 LE) · P checksum (XXH64 of the payload)
//! Q payload (n·k f32 LE) · Q checksum
//! ```
//!
//! This module is the v1 *schema* — field offsets, version check,
//! geometry validation. The header, the checksummed sections, the
//! torn-vs-corrupt split and the 64 KiB streaming (a Yahoo!Music-scale
//! checkpoint, ~800 MB at k = 128, never materializes a second copy of
//! the factors) are [`mf_sparse::frame`]. Round-trips are
//! **bit-identical**, NaN payloads included.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use mf_sgd::Model;
use mf_sparse::frame::{FrameError, FrameReader, FrameWriter, Header};

pub use mf_sparse::frame::{HEADER_LEN, MAGIC};

/// The format version this build writes and the only one it reads.
/// Compatibility rules live in `docs/FORMAT.md`: readers reject any
/// other version rather than guess.
pub const VERSION: u32 = 1;

/// Training provenance stored alongside the factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Master seed of the training run that produced the factors.
    pub seed: u64,
    /// Completed training epochs at capture time. Serving keys its
    /// result cache on this, so two checkpoints of one run never serve
    /// stale hits to each other.
    pub epoch: u64,
}

/// A loaded checkpoint: the model plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The factor model, bit-identical to what was saved.
    pub model: Model,
    /// Seed and epoch read from the header.
    pub meta: CheckpointMeta,
}

/// Errors arising while loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (including truncation).
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header declares a version this build does not read.
    BadVersion {
        /// Version field from the header.
        version: u32,
    },
    /// Geometry fields are unusable (zero or overflowing `k`).
    BadGeometry {
        /// Rows read from the header.
        m: u32,
        /// Columns read from the header.
        n: u32,
        /// Latent dimension read from the header.
        k: u64,
    },
    /// A checksum did not match its section's bytes.
    ChecksumMismatch {
        /// Which section failed: `"header"`, `"P"`, or `"Q"`.
        section: &'static str,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum computed over the bytes actually read.
        actual: u64,
    },
    /// The reserved header field was not zero (set by a future writer).
    ReservedNonZero,
    /// The file ended mid-record — a torn tail from an interrupted
    /// write, not corruption of bytes that exist. Recovery treats the
    /// two differently: torn files are the expected debris of a crash
    /// (truncate back to the last durable record); checksum mismatches
    /// mean bytes rotted in place.
    Torn {
        /// The section the stream ran dry in: `"header"`, `"P"`, `"Q"`,
        /// or (for v2 deltas) `"P-runs"` / `"Q-runs"`.
        section: &'static str,
    },
    /// A v2 delta's run table is inconsistent (overlapping, descending,
    /// or out-of-range row runs) despite a valid checksum — a bogus
    /// file written whole, not an accident.
    BadRuns {
        /// The section with the bad run table.
        section: &'static str,
    },
    /// A v2 delta was applied to a model at the wrong epoch: deltas
    /// chain strictly (`delta.base_epoch` must equal the epoch of the
    /// state it patches).
    BaseMismatch {
        /// The base epoch the delta expects.
        delta_base: u64,
        /// The epoch of the state it was applied to.
        have_epoch: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an MFCK checkpoint file"),
            CheckpointError::BadVersion { version } => {
                write!(f, "unsupported checkpoint version {version} (reader: {VERSION})")
            }
            CheckpointError::BadGeometry { m, n, k } => {
                write!(f, "unusable checkpoint geometry: m={m}, n={n}, k={k}")
            }
            CheckpointError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {section} section: stored {expected:#018x}, computed {actual:#018x}"
            ),
            CheckpointError::ReservedNonZero => {
                write!(f, "reserved header field is non-zero (written by a newer format?)")
            }
            CheckpointError::Torn { section } => {
                write!(f, "torn tail: file ends mid-{section} (interrupted write)")
            }
            CheckpointError::BadRuns { section } => {
                write!(f, "invalid row-run table in {section} section")
            }
            CheckpointError::BaseMismatch {
                delta_base,
                have_epoch,
            } => write!(
                f,
                "delta chains from epoch {delta_base} but the state is at epoch {have_epoch}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => CheckpointError::Io(e),
            FrameError::BadMagic => CheckpointError::BadMagic,
            FrameError::Torn { section } => CheckpointError::Torn { section },
            FrameError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => CheckpointError::ChecksumMismatch {
                section,
                expected,
                actual,
            },
        }
    }
}

/// The header fields v1 and v2 share, at their frozen offsets.
pub(crate) fn model_header(version: u32, model: &Model, seed: u64, epoch: u64) -> Header {
    Header::new(version)
        .with(8, model.nrows())
        .with(12, model.ncols())
        .with(16, model.k() as u64)
        .with(24, seed)
        .with(32, epoch)
}

/// Writes a checkpoint to any sink. The sink receives exactly
/// `72 + (m + n)·k·4` bytes (48-byte header, 8-byte header checksum,
/// two payloads each trailed by an 8-byte section checksum).
///
/// # Errors
///
/// Returns `InvalidInput` for a `k = 0` model: the reader rejects zero
/// `k` as [`CheckpointError::BadGeometry`], so writing one would
/// produce a file nothing can load.
pub fn write_checkpoint<W: Write>(model: &Model, meta: CheckpointMeta, w: W) -> io::Result<()> {
    if model.k() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "k = 0 model cannot be checkpointed (the MFCK reader rejects zero k)",
        ));
    }
    let mut w = FrameWriter::new(BufWriter::new(w));
    w.header(&model_header(VERSION, model, meta.seed, meta.epoch))?;
    for factors in [model.p_raw(), model.q_raw()] {
        w.put(factors)?;
        w.seal()?;
    }
    w.flush()
}

/// Saves a checkpoint to a file path **atomically**: the bytes stream
/// into `path + ".tmp"`, are fsynced, and only then renamed over
/// `path` — a crash at any byte leaves either the previous file intact
/// or orphaned temp debris, never a half-written checkpoint under the
/// final name (see [`mf_sparse::vfs`]).
pub fn save<P: AsRef<Path>>(model: &Model, meta: CheckpointMeta, path: P) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    mf_sparse::vfs::Vfs::publish(&mf_sparse::RealFs, dir, &name, &mut |w| {
        write_checkpoint(model, meta, w)
    })
}

/// Checked section lengths (`p_len`, `q_len` in floats) for a claimed
/// geometry, or `None` when it is unusable: zero/oversized `k`, or a
/// `rows · k · 4` overflowing the address space. Header fields are
/// corruption-controlled and must never drive unchecked allocation
/// arithmetic. Shared with [`crate::delta`].
pub(crate) fn checked_section_lens(m: u32, n: u32, k: u64) -> Option<(usize, usize)> {
    let section_len = |rows: u32| -> Option<usize> {
        let bytes = (rows as u64).checked_mul(k)?.checked_mul(4)?;
        usize::try_from(bytes).ok().map(|b| b / 4)
    };
    if k != 0 && k <= u32::MAX as u64 {
        section_len(m).zip(section_len(n))
    } else {
        None
    }
}

/// Reads a checkpoint from any source, verifying all three checksums.
pub fn read_checkpoint<R: Read>(r: R) -> Result<Checkpoint, CheckpointError> {
    let mut r = FrameReader::new(BufReader::new(r));
    let header = r.header()?;
    let version = header.version();
    if version != VERSION {
        return Err(CheckpointError::BadVersion { version });
    }
    let (m, n, k): (u32, u32, u64) = (header.get(8), header.get(12), header.get(16));
    if header.get::<u64>(40) != 0 {
        return Err(CheckpointError::ReservedNonZero);
    }
    // Checked geometry: zero k, oversized k, and any `rows · k · 4`
    // that overflows the address space are all `BadGeometry` — the
    // header checksum guards against *accidental* flips, not a bogus
    // file written whole.
    let Some((p_len, q_len)) = checked_section_lens(m, n, k) else {
        return Err(CheckpointError::BadGeometry { m, n, k });
    };
    let meta = CheckpointMeta {
        seed: header.get(24),
        epoch: header.get(32),
    };
    let p = r.take_vec(p_len, "P")?;
    r.seal("P")?;
    let q = r.take_vec(q_len, "Q")?;
    r.seal("Q")?;
    Ok(Checkpoint {
        model: Model::from_parts(m, n, k as usize, p, q),
        meta,
    })
}

/// Loads a checkpoint from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
    read_checkpoint(File::open(path)?)
}

/// The file name a per-epoch checkpoint is written under.
pub fn epoch_file_name(epoch: u64) -> String {
    format!("ckpt_epoch_{epoch:05}.mfck")
}

/// A per-epoch checkpoint hook for
/// `hsgd_core::trainer::run_training_with_hook`: returns a closure that
/// writes `dir/ckpt_epoch_NNNNN.mfck` each time the trainer reports a
/// completed epoch — atomically, via `ckpt_epoch_NNNNN.mfck.tmp` +
/// fsync + rename (see [`save`]), so a crash mid-epoch never leaves a
/// half-written file a later load must reject. I/O failures panic — a
/// trainer asked to checkpoint onto a dead disk has nothing sensible to
/// continue with.
pub fn epoch_hook(dir: PathBuf, seed: u64) -> impl FnMut(u64, &Model) {
    move |epoch, model| {
        let path = dir.join(epoch_file_name(epoch));
        save(model, CheckpointMeta { seed, epoch }, &path)
            .unwrap_or_else(|e| panic!("checkpoint write to {} failed: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::hash::xxh64;

    fn meta() -> CheckpointMeta {
        CheckpointMeta { seed: 42, epoch: 7 }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let model = Model::init(37, 23, 16, 99);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        let back = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(back.meta, meta());
        assert_eq!(back.model.nrows(), 37);
        assert_eq!(back.model.ncols(), 23);
        assert_eq!(back.model.k(), 16);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.model.p_raw()), bits(model.p_raw()));
        assert_eq!(bits(back.model.q_raw()), bits(model.q_raw()));
    }

    #[test]
    fn nan_payloads_survive() {
        // Bit-exactness must hold even for payloads PartialEq can't see.
        let mut p = vec![1.0f32; 4];
        p[2] = f32::from_bits(0x7FC0_1234); // a quiet NaN with payload
        let model = Model::from_parts(2, 2, 2, p.clone(), vec![0.5; 4]);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        let back = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(back.model.p_raw()[2].to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn exact_size() {
        let (m, n, k) = (5u32, 3u32, 8usize);
        let model = Model::constant(m, n, k, 0.25);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        assert_eq!(
            buf.len(),
            HEADER_LEN + 8 + (m as usize + n as usize) * k * 4 + 16
        );
    }

    #[test]
    fn multi_chunk_payload_round_trips() {
        // P alone is > 64 KiB so the streaming loop really iterates.
        let model = Model::init(600, 100, 32, 3);
        assert!(model.p_raw().len() * 4 > 64 * 1024);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        let back = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(back.model, model);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let model = Model::constant(2, 2, 2, 1.0);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_checkpoint(&bad[..]),
            Err(CheckpointError::BadMagic)
        ));
        let mut bad = buf.clone();
        bad[4] = 2;
        // Version is covered by the header checksum, so the flip is
        // caught there first unless the checksum is recomputed — both
        // rejections are correct; recompute to reach the version check.
        let ck = xxh64(&bad[..HEADER_LEN]);
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(
            read_checkpoint(&bad[..]),
            Err(CheckpointError::BadVersion { version: 2 })
        ));
    }

    #[test]
    fn writer_rejects_k_zero() {
        let model = Model::from_parts(2, 3, 0, vec![], vec![]);
        let err = write_checkpoint(&model, meta(), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn huge_claimed_geometry_errors_without_allocating() {
        // A self-consistent header (valid checksum!) declaring terabytes
        // of payload must fail as truncation when the stream ends — not
        // abort in the allocator trying to reserve the claimed size.
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // m
        header[12..16].copy_from_slice(&1000u32.to_le_bytes()); // n
        header[16..24].copy_from_slice(&1024u64.to_le_bytes()); // k
        let mut buf = Vec::new();
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&xxh64(&header).to_le_bytes());
        buf.extend_from_slice(&[0u8; 256]); // far short of m·k·4
        assert!(matches!(
            read_checkpoint(&buf[..]),
            Err(CheckpointError::Torn { section: "P" })
        ));
        // m·k·4 overflowing u64 entirely is BadGeometry up front.
        header[16..24].copy_from_slice(&(u32::MAX as u64).to_le_bytes()); // k
        let mut buf = Vec::new();
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&xxh64(&header).to_le_bytes());
        assert!(matches!(
            read_checkpoint(&buf[..]),
            Err(CheckpointError::BadGeometry { .. })
        ));
    }

    #[test]
    fn detects_payload_corruption() {
        let model = Model::init(8, 8, 8, 1);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        let payload_at = HEADER_LEN + 8 + 10; // somewhere inside P
        buf[payload_at] ^= 0x01;
        assert!(matches!(
            read_checkpoint(&buf[..]),
            Err(CheckpointError::ChecksumMismatch { section: "P", .. })
        ));
    }

    #[test]
    fn truncation_is_typed_as_torn() {
        let model = Model::init(8, 8, 8, 2);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_checkpoint(&buf[..]),
            Err(CheckpointError::Torn { section: "Q" })
        ));
    }

    #[test]
    fn empty_and_header_only_files_are_torn_not_corrupt() {
        // Recovery distinguishes "the write was interrupted" (expected
        // crash debris — fall back to the previous record) from "bytes
        // rotted in place" — so a zero-length or header-only file must
        // come back as `Torn`, never a generic checksum failure.
        assert!(matches!(
            read_checkpoint(&[][..]),
            Err(CheckpointError::Torn { section: "header" })
        ));
        let model = Model::init(4, 4, 4, 3);
        let mut buf = Vec::new();
        write_checkpoint(&model, meta(), &mut buf).unwrap();
        // Truncated mid-header.
        assert!(matches!(
            read_checkpoint(&buf[..HEADER_LEN - 5]),
            Err(CheckpointError::Torn { section: "header" })
        ));
        // Header + checksum only, payload never arrived.
        assert!(matches!(
            read_checkpoint(&buf[..HEADER_LEN + 8]),
            Err(CheckpointError::Torn { section: "P" })
        ));
    }

    #[test]
    fn file_round_trip_and_epoch_hook() {
        let dir = std::env::temp_dir().join("mf_serve_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = Model::init(6, 9, 8, 11);
        let mut hook = epoch_hook(dir.clone(), 77);
        hook(1, &model);
        hook(2, &model);
        let path = dir.join(epoch_file_name(2));
        let back = load(&path).unwrap();
        assert_eq!(back.model, model);
        assert_eq!(back.meta, CheckpointMeta { seed: 77, epoch: 2 });
        let _ = std::fs::remove_dir_all(dir);
    }
}
