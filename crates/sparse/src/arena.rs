//! Spill-backed partition storage: the on-disk **block arena** (`MFCK`
//! version 3) and the byte-budgeted, pin-aware LRU block cache in front
//! of it.
//!
//! Out-of-core training keeps the [`crate::GridPartition`] geometry in
//! RAM but moves the SoA block payloads to an arena file: one
//! checksummed [`crate::frame`] section per block, written and read
//! through the [`crate::vfs::Vfs`] seam so the fault-injecting
//! filesystem in `mf-fuzz` exercises the format unchanged. The byte
//! layout is specified in `docs/FORMAT.md` ("Version 3: block arena");
//! [`BlockArena`] is the reference implementation of that schema.
//!
//! In front of the arena sits [`BlockCache`]: an LRU over loaded blocks
//! with an exact byte budget (`MF_SPILL_BUDGET`) and a **pin** count per
//! block. The cache's two invariants, both enforced by panics because a
//! violation means a kernel could read freed or mid-replacement memory:
//!
//! 1. **Pin-while-in-flight** — a pinned block is never evicted, not by
//!    the LRU trim (which skips pinned entries, letting the cache run
//!    over budget by at most the pinned working set) and not by an
//!    explicit [`BlockCache::evict`] (which panics).
//! 2. **No unpinned access** — reading a spilled block's slices without
//!    holding a pin panics ([`GridPartition::block`] checks on every
//!    spilled access).
//!
//! Every load verifies the frame checksum before any byte reaches a
//! kernel: a corrupted spilled block surfaces as
//! [`ArenaError::ChecksumMismatch`], never as wrong factors.
//!
//! The cache lock guards bookkeeping only. A miss reads its block with
//! the lock dropped, so the prefetch thread's reads never stall a
//! worker's pin of a resident block or its release, and each block is
//! read by one acquirer at a time (single-flight; see
//! [`BlockCache::acquire`]).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::frame::{FrameError, FrameReader, FrameWriter, Header, HEADER_LEN};
use crate::grid::{GridPartition, GridSpec};
use crate::matrix::{BlockSlices, Rating};
use crate::vfs::Vfs;

/// Format version this module writes and reads (`docs/FORMAT.md`,
/// "Version 3: block arena").
pub const ARENA_VERSION: u32 = 3;

/// Hard ceiling on bands per axis (`docs/FORMAT.md`); a header past it
/// is [`ArenaError::BadGeometry`].
const MAX_BANDS: u32 = 1 << 20;

/// Environment variable naming the cache byte budget (see
/// [`budget_from_env`]).
pub const ENV_BUDGET: &str = "MF_SPILL_BUDGET";

/// Environment variable naming the directory arenas are written to when
/// the caller does not pick one (examples and benches honor it).
pub const ENV_DIR: &str = "MF_SPILL_DIR";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of arena open/load. Mirrors the checkpoint reader's
/// taxonomy: **torn** (bytes missing — crash residue) vs **corrupt**
/// (bytes present but wrong) vs structurally invalid, and a load never
/// returns block data from a frame that fails any check.
#[derive(Debug)]
pub enum ArenaError {
    /// Underlying I/O failure (not a truncation we could classify).
    Io(io::Error),
    /// The first four bytes are not `MFCK`.
    BadMagic,
    /// A well-formed `MFCK` header of a version this reader does not
    /// implement.
    BadVersion(u32),
    /// Reserved header fields must be zero in version 3.
    ReservedNonZero,
    /// The file ends mid-section — the residue of an interrupted write.
    Torn {
        /// Which section was cut short.
        section: &'static str,
    },
    /// A checksum over present bytes does not match — bit rot or a
    /// buggy writer, never loaded.
    ChecksumMismatch {
        /// Which section mismatched (`header`, `cuts`, `directory`, or
        /// `block <flat>`).
        section: String,
    },
    /// Structurally invalid geometry or directory (cuts that do not
    /// cover the matrix, lens that do not sum to `nnz`, absurd band
    /// counts).
    BadGeometry(String),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Io(e) => write!(f, "arena io error: {e}"),
            ArenaError::BadMagic => write!(f, "not an MFCK file (bad magic)"),
            ArenaError::BadVersion(v) => write!(f, "unsupported MFCK version {v} (expected 3)"),
            ArenaError::ReservedNonZero => write!(f, "reserved header field nonzero"),
            ArenaError::Torn { section } => write!(f, "arena torn mid-{section}"),
            ArenaError::ChecksumMismatch { section } => {
                write!(f, "arena checksum mismatch in {section}")
            }
            ArenaError::BadGeometry(why) => write!(f, "arena geometry invalid: {why}"),
        }
    }
}

impl std::error::Error for ArenaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArenaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArenaError {
    fn from(e: io::Error) -> ArenaError {
        ArenaError::Io(e)
    }
}

impl From<FrameError> for ArenaError {
    fn from(e: FrameError) -> ArenaError {
        match e {
            FrameError::Io(e) => ArenaError::Io(e),
            FrameError::BadMagic => ArenaError::BadMagic,
            FrameError::Torn { section } => ArenaError::Torn { section },
            FrameError::ChecksumMismatch { section, .. } => ArenaError::ChecksumMismatch {
                section: section.into(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The arena file
// ---------------------------------------------------------------------------

/// One loaded block: owned SoA buffers, checksum-verified at load time.
/// The buffers never move or mutate after the load, which is what makes
/// the pinned-slice borrows in [`GridPartition::block`] sound.
#[derive(Debug)]
pub struct BlockBuf {
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl BlockBuf {
    /// The block's ratings as kernel-ready SoA slices.
    pub fn slices(&self) -> BlockSlices<'_> {
        BlockSlices::new(&self.rows, &self.cols, &self.vals)
    }

    /// Ratings in the block.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block holds no ratings.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cache-accounted bytes: the wire size of the ratings (12 bytes
    /// each), the same quantity the arena frames store.
    pub fn wire_bytes(&self) -> usize {
        self.len() * Rating::WIRE_BYTES
    }
}

/// An opened `MFCK` v3 arena: validated geometry plus the directory of
/// per-block frame offsets. Holds no block data — [`BlockArena::
/// load_block`] streams one frame on demand through the [`Vfs`].
pub struct BlockArena {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    nrows: u32,
    ncols: u32,
    nnz: u64,
    spec: GridSpec,
    /// Ratings per block, flat row-major over the grid.
    lens: Vec<usize>,
    /// Absolute file offset of each block's frame.
    frame_offsets: Vec<u64>,
}

impl fmt::Debug for BlockArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockArena")
            .field("path", &self.path)
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz)
            .field("blocks", &self.lens.len())
            .finish()
    }
}

impl BlockArena {
    /// Streams `part` into `dir/name` as an `MFCK` v3 arena via the
    /// atomic-publish discipline: the final name appears only once every
    /// frame (and its checksum) is durable.
    ///
    /// # Panics
    ///
    /// Panics if `part` is itself spill-backed — arenas are written from
    /// resident partitions.
    pub fn write(vfs: &dyn Vfs, dir: &Path, name: &str, part: &GridPartition) -> io::Result<()> {
        assert!(
            !part.is_spilled(),
            "writing an arena from a spill-backed partition is not supported"
        );
        let spec = part.spec().clone();
        let lens: Vec<u64> = spec.blocks().map(|id| part.block_len(id) as u64).collect();
        vfs.publish(dir, name, &mut |w| {
            let mut w = FrameWriter::new(w);
            // Offsets 32..48 stay zero: reserved in version 3.
            w.header(
                &Header::new(ARENA_VERSION)
                    .with(8, part.nrows())
                    .with(12, part.ncols())
                    .with(16, part.total_nnz() as u64)
                    .with(24, spec.nrow_blocks())
                    .with(28, spec.ncol_blocks()),
            )?;
            w.put(spec.row_cuts())?;
            w.put(spec.col_cuts())?;
            w.seal()?;
            // Directory: ratings per block, flat row-major.
            w.put(&lens)?;
            w.seal()?;
            for id in spec.blocks() {
                let b = part.block(id);
                w.put(b.rows)?;
                w.put(b.cols)?;
                w.put(b.vals)?;
                w.seal()?;
            }
            Ok(())
        })
    }

    /// Opens and validates an arena's header, cut points, and directory
    /// (one sequential pass over the metadata; block frames are not
    /// touched). Validation order mirrors the checkpoint reader: magic →
    /// header checksum → version → reserved → geometry → cuts →
    /// directory, and no value is trusted for allocation before its
    /// checksum and sanity bounds pass.
    pub fn open(vfs: Arc<dyn Vfs>, path: &Path) -> Result<BlockArena, ArenaError> {
        let mut r = FrameReader::new(vfs.open(path)?);
        let header = r.header()?;
        if header.version() != ARENA_VERSION {
            return Err(ArenaError::BadVersion(header.version()));
        }
        if header.get::<u64>(32) != 0 || header.get::<u64>(40) != 0 {
            return Err(ArenaError::ReservedNonZero);
        }
        let (nrows, ncols, nnz): (u32, u32, u64) = (header.get(8), header.get(12), header.get(16));
        let (rb, cb): (u32, u32) = (header.get(24), header.get(28));
        if rb == 0 || cb == 0 || rb > MAX_BANDS || cb > MAX_BANDS {
            return Err(ArenaError::BadGeometry(format!("band counts {rb}x{cb}")));
        }
        if nnz > usize::MAX as u64 / Rating::WIRE_BYTES as u64 {
            return Err(ArenaError::BadGeometry(format!("nnz {nnz} unaddressable")));
        }

        let row_cuts: Vec<u32> = r.take_vec(rb as usize + 1, "cuts")?;
        let col_cuts: Vec<u32> = r.take_vec(cb as usize + 1, "cuts")?;
        r.seal("cuts")?;
        if row_cuts.last() != Some(&nrows) || col_cuts.last() != Some(&ncols) {
            return Err(ArenaError::BadGeometry(
                "cuts do not end at the matrix shape".into(),
            ));
        }
        let spec = GridSpec::from_cuts(row_cuts, col_cuts)
            .map_err(|e| ArenaError::BadGeometry(e.to_string()))?;

        let nblocks = (rb as usize).saturating_mul(cb as usize);
        let directory: Vec<u64> = r.take_vec(nblocks, "directory")?;
        r.seal("directory")?;
        // Summed wide so no directory can wrap its way to `nnz`; equality
        // also bounds every entry by `nnz`, which fits `usize`.
        let total: u128 = directory.iter().map(|&len| len as u128).sum();
        if total != nnz as u128 {
            return Err(ArenaError::BadGeometry(format!(
                "directory sums to {total} ratings, header says {nnz}"
            )));
        }
        let lens: Vec<usize> = directory.iter().map(|&len| len as usize).collect();

        // Frame offsets: frames are back to back after the directory.
        let cut_bytes = (rb as usize + 1 + cb as usize + 1) * 4;
        let mut off = (HEADER_LEN + 8 + cut_bytes + 8 + nblocks * 8 + 8) as u64;
        let frame_offsets = lens
            .iter()
            .map(|&len| {
                let at = off;
                off += (len * Rating::WIRE_BYTES) as u64 + 8;
                at
            })
            .collect();

        Ok(BlockArena {
            vfs,
            path: path.to_path_buf(),
            nrows,
            ncols,
            nnz,
            spec,
            lens,
            frame_offsets,
        })
    }

    /// Matrix row count.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Matrix column count.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Total ratings across all blocks.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The grid geometry the arena was partitioned with.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Ratings in block `flat`.
    pub fn block_len(&self, flat: usize) -> usize {
        self.lens[flat]
    }

    /// Wire bytes of block `flat` (the quantity the cache budget
    /// accounts in).
    pub fn block_wire_bytes(&self, flat: usize) -> usize {
        self.lens[flat] * Rating::WIRE_BYTES
    }

    /// Loads and checksum-verifies one block frame. A frame that fails
    /// any check yields a typed error and **no data** — a corrupt
    /// spilled block can never reach a kernel.
    pub fn load_block(&self, flat: usize) -> Result<BlockBuf, ArenaError> {
        const SECTION: &str = "block frame";
        // `open_at` reports a file that ends before the frame starts as
        // EOF: torn, like one that ends inside it.
        let r = self.vfs.open_at(&self.path, self.frame_offsets[flat]);
        let mut r = FrameReader::new(r.map_err(|e| FrameError::from_read(e, SECTION))?);
        let len = self.lens[flat];
        let rows = r.take_vec(len, SECTION)?;
        let cols = r.take_vec(len, SECTION)?;
        let vals = r.take_vec(len, SECTION)?;
        r.seal(SECTION).map_err(|e| match e {
            FrameError::ChecksumMismatch { .. } => ArenaError::ChecksumMismatch {
                section: format!("block {flat}"),
            },
            e => e.into(),
        })?;
        Ok(BlockBuf { rows, cols, vals })
    }

    /// Streams every frame and verifies every checksum — the full-file
    /// integrity pass (used by tests and the fuzz harness; training
    /// verifies lazily, per load).
    pub fn verify(&self) -> Result<(), ArenaError> {
        for flat in 0..self.lens.len() {
            self.load_block(flat)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The LRU block cache
// ---------------------------------------------------------------------------

struct Entry {
    buf: Arc<BlockBuf>,
    bytes: usize,
    pins: u32,
    last_use: u64,
}

struct CacheInner {
    resident: HashMap<usize, Entry>,
    /// Blocks whose load is running outside the lock; each is read by
    /// exactly one acquirer while the others wait on `BlockCache::loaded`.
    loading: HashSet<usize>,
    /// Exact bytes of all resident blocks, pinned included.
    used: usize,
    /// Logical clock: bumped on every touch, orders LRU eviction.
    tick: u64,
}

/// Hit/miss/eviction/IO counters, updated atomically so readers (the
/// scheduler feedback loop, the bench harness) can snapshot without
/// taking the cache lock.
#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    prefetched: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    load_nanos: AtomicU64,
}

/// A snapshot of one spill cache's counters — the out-of-core run's
/// observability surface, carried into `RunReport` by the trainers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillCounters {
    /// Demand pins served from the cache.
    pub hits: u64,
    /// Demand pins that read the block from the arena or waited for a
    /// read already in flight.
    pub misses: u64,
    /// Blocks the prefetch thread read from the arena ahead of demand
    /// (warms of a resident block are not counted). Never a hit or a
    /// miss: only pins are.
    pub prefetched: u64,
    /// Blocks evicted by the LRU trim.
    pub evictions: u64,
    /// Payload bytes read from the arena.
    pub bytes_read: u64,
    /// Wall seconds spent inside block loads.
    pub load_secs: f64,
    /// Resident bytes at snapshot time (pinned included).
    pub resident_bytes: u64,
    /// Bytes of currently pinned blocks at snapshot time.
    pub pinned_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

impl SpillCounters {
    /// Fraction of demand pins served without waiting on the arena.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }

    /// Sustained arena read bandwidth over the run (bytes/s; 0 when no
    /// load happened).
    pub fn io_bytes_per_sec(&self) -> f64 {
        if self.load_secs <= 0.0 {
            return 0.0;
        }
        self.bytes_read as f64 / self.load_secs
    }
}

/// Byte-budgeted LRU over loaded blocks with per-block pin counts.
///
/// Accounting is exact: `resident_bytes` is the sum of the wire bytes of
/// every resident block, pinned or not. The trim evicts
/// least-recently-used **unpinned** blocks until the budget holds; when
/// the pinned working set alone exceeds the budget the cache stays over
/// budget rather than violate pin-safety (so any budget that admits the
/// largest concurrent pin set makes forward progress).
pub struct BlockCache {
    budget: usize,
    inner: Mutex<CacheInner>,
    /// Signalled whenever an in-flight load ends, admitted or failed.
    loaded: Condvar,
    stats: StatCells,
}

/// Drop guard of one in-flight load: clears the block's mark and wakes
/// its waiters however the load ends, so a failed or panicking read
/// never strands a waiter.
struct InFlight<'a> {
    cache: &'a BlockCache,
    flat: usize,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.cache.state().loading.remove(&self.flat);
        self.cache.loaded.notify_all();
    }
}

impl fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("resident_bytes", &c.resident_bytes)
            .field("hits", &c.hits)
            .field("misses", &c.misses)
            .field("prefetched", &c.prefetched)
            .field("evictions", &c.evictions)
            .finish()
    }
}

impl BlockCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> BlockCache {
        BlockCache {
            budget: budget_bytes,
            inner: Mutex::new(CacheInner {
                resident: HashMap::new(),
                loading: HashSet::new(),
                used: 0,
                tick: 0,
            }),
            loaded: Condvar::new(),
            stats: StatCells::default(),
        }
    }

    /// The cache state. Poison is absorbed, as in `mf-par`: the panics
    /// under this lock (an unpin without a pin, an evict of a pinned
    /// block) fire before any mutation and are already unwinding through
    /// their caller, so the flag carries no extra information. A
    /// panicking `load` runs with the lock dropped and never poisons it.
    fn state(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires block `flat` **pinned**. A hit refreshes its LRU
    /// position. A miss marks the block in flight, runs `load` (the read
    /// and checksum) *outside* the cache lock, then admits the result, so
    /// hits, releases and misses on other blocks never queue behind a
    /// read. Loads are single-flight: a second acquirer of a block in
    /// flight waits for that one read instead of starting its own, and
    /// retries the load itself if that read failed. The pin must be
    /// returned with [`BlockCache::release`]; while held, the block
    /// cannot be evicted.
    pub fn acquire(
        &self,
        flat: usize,
        load: impl FnOnce() -> Result<BlockBuf, ArenaError>,
    ) -> Result<Arc<BlockBuf>, ArenaError> {
        self.fetch(flat, load, true)
    }

    /// Pins block `flat`, loading it on a miss. A `demand` fetch (a
    /// worker's pin) counts as a hit, or as a miss when it had to read or
    /// wait for a read in flight; a prefetch warm counts in `prefetched`
    /// when it reads and nowhere otherwise.
    fn fetch(
        &self,
        flat: usize,
        load: impl FnOnce() -> Result<BlockBuf, ArenaError>,
        demand: bool,
    ) -> Result<Arc<BlockBuf>, ArenaError> {
        let mut inner = self.state();
        let mut waited = false;
        loop {
            let st = &mut *inner;
            if let Some(e) = st.resident.get_mut(&flat) {
                st.tick += 1;
                e.last_use = st.tick;
                e.pins += 1;
                if demand {
                    let cell = if waited {
                        &self.stats.misses
                    } else {
                        &self.stats.hits
                    };
                    cell.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(Arc::clone(&e.buf));
            }
            if st.loading.insert(flat) {
                break;
            }
            waited = true;
            inner = self
                .loaded
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(inner);
        let cell = if demand {
            &self.stats.misses
        } else {
            &self.stats.prefetched
        };
        cell.fetch_add(1, Ordering::Relaxed);
        // Clears the in-flight mark and wakes waiters on every exit,
        // including an `Err` from `load` and an unwind out of it.
        let _in_flight = InFlight { cache: self, flat };
        let t0 = Instant::now();
        let buf = Arc::new(load()?);
        self.stats
            .load_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let bytes = buf.wire_bytes();
        self.stats
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let mut inner = self.state();
        inner.tick += 1;
        let tick = inner.tick;
        inner.used += bytes;
        inner.resident.insert(
            flat,
            Entry {
                buf: Arc::clone(&buf),
                bytes,
                pins: 1,
                last_use: tick,
            },
        );
        self.trim(&mut inner);
        // Unlock before the guard relocks to clear the in-flight mark.
        drop(inner);
        Ok(buf)
    }

    /// Returns one pin on block `flat`, then re-trims (a block whose
    /// last pin just dropped becomes evictable if the cache is over
    /// budget).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident or not pinned — an unpin
    /// without a matching pin is an executor bug.
    pub fn release(&self, flat: usize) {
        let mut inner = self.state();
        let e = inner
            .resident
            .get_mut(&flat)
            .unwrap_or_else(|| panic!("release of non-resident block {flat}"));
        assert!(e.pins > 0, "release of unpinned block {flat}");
        e.pins -= 1;
        self.trim(&mut inner);
    }

    /// Loads block `flat` into the cache without leaving it pinned —
    /// the prefetch thread's warm path. Counted in `prefetched` when it
    /// reads the block, not as a hit or miss.
    pub fn warm(
        &self,
        flat: usize,
        load: impl FnOnce() -> Result<BlockBuf, ArenaError>,
    ) -> Result<(), ArenaError> {
        self.fetch(flat, load, false)?;
        self.release(flat);
        Ok(())
    }

    /// Explicitly evicts block `flat`. Returns whether it was resident.
    ///
    /// # Panics
    ///
    /// Panics if the block is pinned — **pin-while-in-flight**: a
    /// dispatched block can never be evicted.
    pub fn evict(&self, flat: usize) -> bool {
        let mut inner = self.state();
        match inner.resident.get(&flat) {
            None => false,
            Some(e) => {
                assert!(
                    e.pins == 0,
                    "evicting pinned block {flat} (pins={}) — pin-while-in-flight invariant violated",
                    e.pins
                );
                let e = inner.resident.remove(&flat).expect("present");
                inner.used -= e.bytes;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Evicts least-recently-used unpinned blocks until the budget
    /// holds. Pinned blocks are skipped unconditionally.
    fn trim(&self, inner: &mut CacheInner) {
        while inner.used > self.budget {
            let victim = inner
                .resident
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&flat, _)| flat);
            let Some(flat) = victim else { break };
            let e = inner.resident.remove(&flat).expect("victim resident");
            debug_assert_eq!(e.pins, 0);
            inner.used -= e.bytes;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether block `flat` is currently resident.
    pub fn is_resident(&self, flat: usize) -> bool {
        self.state().resident.contains_key(&flat)
    }

    /// Pins currently held on block `flat` (0 when absent).
    pub fn pin_count(&self, flat: usize) -> u32 {
        self.state().resident.get(&flat).map_or(0, |e| e.pins)
    }

    /// Exact resident bytes (pinned included).
    pub fn resident_bytes(&self) -> usize {
        self.state().used
    }

    /// Bytes of currently pinned blocks.
    pub fn pinned_bytes(&self) -> usize {
        self.state()
            .resident
            .values()
            .filter(|e| e.pins > 0)
            .map(|e| e.bytes)
            .sum()
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> SpillCounters {
        let (resident, pinned) = {
            let inner = self.state();
            (
                inner.used as u64,
                inner
                    .resident
                    .values()
                    .filter(|e| e.pins > 0)
                    .map(|e| e.bytes as u64)
                    .sum(),
            )
        };
        SpillCounters {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            prefetched: self.stats.prefetched.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            load_secs: self.stats.load_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            resident_bytes: resident,
            pinned_bytes: pinned,
            budget_bytes: self.budget as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// The spill handle: arena + cache, shared by partition and executors
// ---------------------------------------------------------------------------

struct SpillState {
    arena: BlockArena,
    cache: BlockCache,
}

/// Shared handle to one spill-backed partition's arena and cache.
/// Cloning is cheap (`Arc`); the trainer's prefetch thread, the
/// executors' pin/unpin paths, and the partition's `block()` accessor
/// all hold clones of the same state.
#[derive(Clone)]
pub struct SpillHandle(Arc<SpillState>);

impl fmt::Debug for SpillHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillHandle")
            .field("arena", &self.0.arena)
            .field("cache", &self.0.cache)
            .finish()
    }
}

impl SpillHandle {
    /// Opens `path` as an arena fronted by a fresh cache with the given
    /// byte budget.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        budget_bytes: usize,
    ) -> Result<SpillHandle, ArenaError> {
        let arena = BlockArena::open(vfs, path)?;
        Ok(SpillHandle(Arc::new(SpillState {
            arena,
            cache: BlockCache::new(budget_bytes),
        })))
    }

    /// The underlying arena (geometry, per-block sizes, direct loads).
    pub fn arena(&self) -> &BlockArena {
        &self.0.arena
    }

    /// The cache in front of it (budget, counters).
    pub fn cache(&self) -> &BlockCache {
        &self.0.cache
    }

    /// Pins block `flat`, loading it from the arena on a miss. Every
    /// `pin` must be matched by an [`SpillHandle::unpin`] once the
    /// kernel consuming the block has returned.
    pub fn pin(&self, flat: usize) -> Result<(), ArenaError> {
        self.0
            .cache
            .acquire(flat, || self.0.arena.load_block(flat))
            .map(|_| ())
    }

    /// Returns one pin on block `flat`.
    pub fn unpin(&self, flat: usize) {
        self.0.cache.release(flat);
    }

    /// Warms block `flat` (resident but unpinned) — the prefetch
    /// thread's load-ahead path.
    pub fn warm(&self, flat: usize) -> Result<(), ArenaError> {
        self.0.cache.warm(flat, || self.0.arena.load_block(flat))
    }

    /// Whether block `flat` is resident (pinned or not).
    pub fn is_resident(&self, flat: usize) -> bool {
        self.0.cache.is_resident(flat)
    }

    /// Wire bytes of block `flat`.
    pub fn block_wire_bytes(&self, flat: usize) -> usize {
        self.0.arena.block_wire_bytes(flat)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SpillCounters {
        self.0.cache.counters()
    }

    /// The pinned block's SoA slices, borrowed for `'a`.
    ///
    /// # Safety
    ///
    /// The caller must hold a pin on `flat` for the whole lifetime of
    /// the returned slices (checked: an unpinned or non-resident access
    /// panics at entry, and pinned blocks are never evicted, so the
    /// `Arc<BlockBuf>` held by the resident map — whose buffers never
    /// move after load — stays alive while the pin is held). Unpinning
    /// before the borrow ends would let a concurrent eviction free the
    /// buffers; that is the one obligation the type system cannot see.
    pub(crate) unsafe fn pinned_slices(&self, flat: usize) -> BlockSlices<'_> {
        let inner = self.0.cache.state();
        let e = inner.resident.get(&flat).unwrap_or_else(|| {
            panic!("spilled block {flat} accessed while not resident — pin it first")
        });
        assert!(
            e.pins > 0,
            "spilled block {flat} accessed without a pin — pin-while-in-flight protocol violated"
        );
        let len = e.buf.len();
        let (rp, cp, vp) = (
            e.buf.rows.as_ptr(),
            e.buf.cols.as_ptr(),
            e.buf.vals.as_ptr(),
        );
        drop(inner);
        // SAFETY: per the function contract the pin outlives the borrow,
        // the pinned entry (and its Arc'd, never-moving buffers) outlives
        // the pin, and loaded blocks are immutable.
        BlockSlices::new(
            std::slice::from_raw_parts(rp, len),
            std::slice::from_raw_parts(cp, len),
            std::slice::from_raw_parts(vp, len),
        )
    }
}

// ---------------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------------

/// Parses a byte count with an optional binary suffix: `4096`, `64k`,
/// `16M`, `1G` (case-insensitive, powers of 1024). `None` on anything
/// else.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'm' => (&s[..s.len() - 1], 1usize << 20),
        b'g' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

/// The cache byte budget: `MF_SPILL_BUDGET` when set and parseable
/// (`4096`, `64k`, `16M`, `1G`), else `default_bytes`. This is how the
/// CI spill leg forces every spill-aware test down to a pathologically
/// tight cache without touching the tests themselves.
pub fn budget_from_env(default_bytes: usize) -> usize {
    match std::env::var(ENV_BUDGET) {
        Ok(v) => parse_bytes(&v).unwrap_or(default_bytes),
        Err(_) => default_bytes,
    }
}

/// The directory arena files are written into: `MF_SPILL_DIR` when set,
/// else the system temp directory.
pub fn dir_from_env() -> PathBuf {
    match std::env::var(ENV_DIR) {
        Ok(v) if !v.is_empty() => PathBuf::from(v),
        _ => std::env::temp_dir(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SparseMatrix;
    use crate::vfs::RealFs;
    use crate::BlockOrder;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mf_sparse_arena_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_partition(seed: u64) -> GridPartition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, n) = (64u32, 48u32);
        let mut mat = SparseMatrix::empty(m, n);
        for _ in 0..2000 {
            let u = rng.random::<u32>() % m;
            let v = rng.random::<u32>() % n;
            mat.push(Rating::new(u, v, 1.0 + 4.0 * rng.random::<f32>()));
        }
        GridPartition::build_with_order(&mat, GridSpec::uniform(m, n, 4, 3), BlockOrder::UserMajor)
    }

    #[test]
    fn arena_roundtrips_every_block() {
        let dir = tmp_dir("rt");
        let part = demo_partition(7);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let arena = BlockArena::open(Arc::new(RealFs), &dir.join("a.mfcka")).unwrap();
        assert_eq!(arena.nnz(), part.total_nnz() as u64);
        assert_eq!(arena.spec(), part.spec());
        for (flat, id) in part.spec().blocks().enumerate() {
            let want = part.block(id);
            let got = arena.load_block(flat).unwrap();
            let got = got.slices();
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.cols, want.cols);
            assert_eq!(got.vals, want.vals);
        }
        arena.verify().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let dir = tmp_dir("flip");
        let part = demo_partition(9);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let path = dir.join("a.mfcka");
        let clean = std::fs::read(&path).unwrap();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let at = rng.random::<usize>() % clean.len();
            let mut bad = clean.clone();
            bad[at] ^= 1 << (rng.random::<u32>() % 8);
            std::fs::write(&path, &bad).unwrap();
            let verdict = BlockArena::open(Arc::new(RealFs), &path).and_then(|a| a.verify());
            assert!(verdict.is_err(), "flip at byte {at} went undetected");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_is_torn_not_corrupt() {
        let dir = tmp_dir("torn");
        let part = demo_partition(11);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let path = dir.join("a.mfcka");
        let clean = std::fs::read(&path).unwrap();
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        let err = BlockArena::open(Arc::new(RealFs), &path)
            .and_then(|a| a.verify())
            .unwrap_err();
        assert!(matches!(err, ArenaError::Torn { .. }), "got {err}");
        // Header-only file: torn at the cuts.
        std::fs::write(&path, &clean[..60]).unwrap();
        let err = BlockArena::open(Arc::new(RealFs), &path).unwrap_err();
        assert!(
            matches!(err, ArenaError::Torn { section: "cuts" }),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_version_rejected() {
        let dir = tmp_dir("ver");
        let part = demo_partition(13);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let path = dir.join("a.mfcka");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 9; // version = 9
                      // Re-seal the header checksum so only the version check can fire.
        let d = crate::hash::xxh64(&bytes[..48]);
        bytes[48..56].copy_from_slice(&d.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = BlockArena::open(Arc::new(RealFs), &path).unwrap_err();
        assert!(matches!(err, ArenaError::BadVersion(9)), "got {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_budget_accounting_is_exact() {
        let dir = tmp_dir("cache");
        let part = demo_partition(17);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let path = dir.join("a.mfcka");
        let nblocks = part.spec().block_count();
        // Room for the largest block alone: each warm evicts the last.
        let wire = |id| part.block_len(id) * Rating::WIRE_BYTES;
        let budget = part.spec().blocks().map(wire).max().unwrap();
        let h = SpillHandle::open(Arc::new(RealFs), &path, budget).unwrap();
        for flat in 0..nblocks {
            h.warm(flat).unwrap();
            h.pin(flat).unwrap();
            h.unpin(flat);
            assert!(
                h.cache().resident_bytes() <= budget,
                "unpinned cache over budget"
            );
        }
        // Warms are counted apart from pins: every block was read ahead
        // of its pin, so every pin hit.
        let c = h.counters();
        assert_eq!(c.prefetched, nblocks as u64);
        assert_eq!((c.hits, c.misses), (nblocks as u64, 0));
        let total = part.total_nnz() * Rating::WIRE_BYTES;
        assert_eq!(c.bytes_read, total as u64);
        assert!(c.evictions > 0, "tight budget must evict");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "pin-while-in-flight")]
    fn evicting_a_pinned_block_panics() {
        let dir = tmp_dir("pinned");
        let part = demo_partition(19);
        BlockArena::write(&RealFs, &dir, "a.mfcka", &part).unwrap();
        let h = SpillHandle::open(Arc::new(RealFs), &dir.join("a.mfcka"), usize::MAX).unwrap();
        h.pin(0).unwrap();
        h.cache().evict(0);
    }

    /// A four-rating block, standing in for a load from an arena.
    fn tiny_block() -> BlockBuf {
        BlockBuf {
            rows: vec![0, 1, 2, 3],
            cols: vec![3, 2, 1, 0],
            vals: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    fn torn() -> ArenaError {
        ArenaError::Torn {
            section: "block frame",
        }
    }

    /// Generous bound for a step that takes microseconds: a failure
    /// here means a thread is stuck, not slow.
    const STUCK: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn concurrent_cold_acquires_share_one_read() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let cache = BlockCache::new(usize::MAX);
        let loads = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let bufs: Vec<Arc<BlockBuf>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache
                            .acquire(5, || {
                                loads.fetch_add(1, Ordering::Relaxed);
                                // Widens the window for the others to
                                // arrive mid-read. The assertions hold
                                // in every interleaving: a late thread
                                // hits the admitted block instead.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok(tiny_block())
                            })
                            .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            loads.load(Ordering::Relaxed),
            1,
            "the block was read more than once"
        );
        assert!(bufs.iter().all(|b| Arc::ptr_eq(b, &bufs[0])));
        assert_eq!(cache.pin_count(5), THREADS as u32);
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, THREADS as u64);
        assert_eq!(c.bytes_read, tiny_block().wire_bytes() as u64);
        for _ in 0..THREADS {
            cache.release(5);
        }
        assert_eq!(cache.pin_count(5), 0);
    }

    #[test]
    fn a_read_in_flight_does_not_block_other_blocks() {
        use std::sync::mpsc::channel;
        let cache = BlockCache::new(usize::MAX);
        cache.warm(1, || Ok(tiny_block())).unwrap();
        let (started_tx, started_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let cache = &cache;
        let verdict = std::thread::scope(|s| {
            s.spawn(move || {
                cache
                    .acquire(0, || {
                        started_tx.send(()).unwrap();
                        gate_rx.recv().unwrap();
                        Ok(tiny_block())
                    })
                    .unwrap();
                cache.release(0);
            });
            started_rx
                .recv_timeout(STUCK)
                .expect("load of block 0 never started");
            // Block 0's read is now parked inside `load`: a pin and a
            // release of resident block 1 must go ahead regardless.
            s.spawn(move || {
                cache
                    .acquire(1, || unreachable!("block 1 is resident"))
                    .unwrap();
                cache.release(1);
                done_tx.send(()).unwrap();
            });
            let verdict = done_rx.recv_timeout(STUCK);
            // Open the gate before judging, so a failure cannot hang the
            // scope's join.
            gate_tx.send(()).unwrap();
            verdict
        });
        assert!(
            verdict.is_ok(),
            "a pin of a resident block queued behind another block's read"
        );
        assert!(cache.is_resident(0) && cache.is_resident(1));
    }

    #[test]
    fn a_failed_or_panicking_read_leaves_no_in_flight_mark() {
        use std::sync::mpsc::channel;
        let cache = BlockCache::new(usize::MAX);
        let no_mark = |cache: &BlockCache| cache.state().loading.is_empty();

        // A typed error: reported, unmarked, and retried by the next pin.
        let err = cache.acquire(2, || Err(torn())).unwrap_err();
        assert!(matches!(err, ArenaError::Torn { .. }), "got {err}");
        assert!(no_mark(&cache) && !cache.is_resident(2));
        let err = cache.acquire(2, || Err(torn())).unwrap_err();
        assert!(matches!(err, ArenaError::Torn { .. }), "retry got {err}");

        // A panicking read unwinds through the guard.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.acquire(2, || panic!("read blew up"))
        }));
        assert!(unwound.is_err());
        assert!(no_mark(&cache) && !cache.is_resident(2));
        let err = cache.acquire(2, || Err(torn())).unwrap_err();
        assert!(matches!(err, ArenaError::Torn { .. }), "retry got {err}");

        // A waiter on a read that panics retries with its own read and
        // gets that read's typed error; nothing hangs.
        let (started_tx, started_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let cache = &cache;
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                cache.acquire(3, || {
                    started_tx.send(()).unwrap();
                    gate_rx.recv().unwrap();
                    panic!("read blew up")
                })
            });
            started_rx
                .recv_timeout(STUCK)
                .expect("load of block 3 never started");
            s.spawn(move || done_tx.send(cache.acquire(3, || Err(torn()))).unwrap());
            // Gives the waiter time to park on the read; if it arrives
            // after the panic instead, it reads alone, with the same
            // outcome.
            std::thread::sleep(std::time::Duration::from_millis(20));
            gate_tx.send(()).unwrap();
            assert!(reader.join().is_err(), "the reader's panic was swallowed");
            let waited = done_rx.recv_timeout(STUCK).expect("waiter stranded");
            assert!(matches!(waited, Err(ArenaError::Torn { .. })));
        });
        assert!(no_mark(cache));
        cache.acquire(3, || Ok(tiny_block())).unwrap();
        cache.release(3);
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes(" 16M "), Some(16 << 20));
        assert_eq!(parse_bytes("1G"), Some(1 << 30));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
    }
}
