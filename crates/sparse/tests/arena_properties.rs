//! Property tests for the spill arena's LRU block cache.
//!
//! A `BlockCache` is driven through `SpillHandle` with random
//! pin/unpin/warm/evict sequences and compared after every op against a
//! straight-line reference oracle that re-implements the cache contract
//! in the most obvious way possible: unique-tick LRU with pinned blocks
//! unconditionally skipped by trim, and exact byte accounting. Any
//! divergence in the resident set is by construction a divergence in
//! eviction order.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use mf_fuzz::{check, Gen};
use mf_sparse::arena::{budget_from_env, parse_bytes, ArenaError, BlockArena, SpillHandle};
use mf_sparse::vfs::RealFs;
use mf_sparse::{BlockOrder, GridPartition, GridSpec, Rating, SparseMatrix};

/// One arena file shared by every case: (path, per-block wire bytes).
fn shared_arena() -> &'static (PathBuf, Vec<usize>) {
    static ARENA: OnceLock<(PathBuf, Vec<usize>)> = OnceLock::new();
    ARENA.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dir =
            std::env::temp_dir().join(format!("mf_sparse_arena_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(0x41_52_45_4e);
        let (m, n) = (96u32, 72u32);
        let mut mat = SparseMatrix::empty(m, n);
        for _ in 0..3000 {
            let u = rng.random::<u32>() % m;
            let v = rng.random::<u32>() % n;
            mat.push(Rating::new(u, v, 1.0 + 4.0 * rng.random::<f32>()));
        }
        let part = GridPartition::build_with_order(
            &mat,
            GridSpec::uniform(m, n, 4, 4),
            BlockOrder::UserMajor,
        );
        BlockArena::write(&RealFs, &dir, "props.mfcka", &part).unwrap();
        let path = dir.join("props.mfcka");
        let arena = BlockArena::open(Arc::new(RealFs), &path).unwrap();
        let bytes = (0..part.spec().block_count())
            .map(|flat| arena.block_wire_bytes(flat))
            .collect();
        (path, bytes)
    })
}

fn open_handle(budget: usize) -> SpillHandle {
    let (path, _) = shared_arena();
    SpillHandle::open(Arc::new(RealFs), path, budget).unwrap()
}

/// The reference oracle: the cache contract, written as a scan.
struct Oracle {
    /// Per-flat state: `Some((last_use, pins))` when resident.
    resident: Vec<Option<(u64, u32)>>,
    bytes: Vec<usize>,
    budget: usize,
    used: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    prefetched: u64,
    evictions: u64,
}

impl Oracle {
    fn new(bytes: &[usize], budget: usize) -> Oracle {
        Oracle {
            resident: vec![None; bytes.len()],
            bytes: bytes.to_vec(),
            budget,
            used: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            prefetched: 0,
            evictions: 0,
        }
    }

    /// Evict least-recently-used unpinned entries until the budget holds.
    fn trim(&mut self) {
        while self.used > self.budget {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter_map(|(flat, e)| match e {
                    Some((last_use, 0)) => Some((*last_use, flat)),
                    _ => None,
                })
                .min();
            let Some((_, flat)) = victim else { break };
            self.resident[flat] = None;
            self.used -= self.bytes[flat];
            self.evictions += 1;
        }
    }

    /// A pin (`demand`) counts as a hit or a miss; a warm counts only
    /// the reads it makes, as `prefetched`.
    fn acquire(&mut self, flat: usize, demand: bool) {
        self.tick += 1;
        if let Some((last_use, pins)) = &mut self.resident[flat] {
            *last_use = self.tick;
            *pins += 1;
            if demand {
                self.hits += 1;
            }
            return;
        }
        if demand {
            self.misses += 1;
        } else {
            self.prefetched += 1;
        }
        self.used += self.bytes[flat];
        self.resident[flat] = Some((self.tick, 1));
        self.trim();
    }

    fn release(&mut self, flat: usize) {
        let (_, pins) = self.resident[flat]
            .as_mut()
            .expect("release of resident block");
        *pins -= 1;
        self.trim();
    }

    fn evict(&mut self, flat: usize) -> bool {
        match self.resident[flat] {
            None => false,
            Some((_, pins)) => {
                assert_eq!(pins, 0, "oracle never evicts pinned blocks");
                self.resident[flat] = None;
                self.used -= self.bytes[flat];
                self.evictions += 1;
                true
            }
        }
    }

    fn pins(&self, flat: usize) -> u32 {
        self.resident[flat].map_or(0, |(_, p)| p)
    }

    fn pinned_bytes(&self) -> usize {
        self.resident
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Some((_, p)) if *p > 0))
            .map(|(flat, _)| self.bytes[flat])
            .sum()
    }
}

/// Asserts every observable of `handle` against the oracle; `at` names
/// the op just applied.
fn compare(handle: &SpillHandle, oracle: &Oracle, at: &str) {
    let cache = handle.cache();
    for flat in 0..oracle.resident.len() {
        let (got, want) = (handle.is_resident(flat), oracle.resident[flat].is_some());
        assert_eq!(got, want, "{at}: block {flat} residency diverged");
        let (got, want) = (cache.pin_count(flat), oracle.pins(flat));
        assert_eq!(got, want, "{at}: block {flat} pin count diverged");
    }
    let used = oracle.used;
    assert_eq!(
        cache.resident_bytes(),
        used,
        "{at}: resident bytes diverged"
    );
    let pinned = oracle.pinned_bytes();
    assert_eq!(cache.pinned_bytes(), pinned, "{at}: pinned bytes diverged");
    let c = handle.counters();
    let want = (
        oracle.hits,
        oracle.misses,
        oracle.prefetched,
        oracle.evictions,
    );
    assert_eq!(
        (c.hits, c.misses, c.prefetched, c.evictions),
        want,
        "{at}: hits/misses/prefetched/evictions diverged"
    );
    // Over-budget residency is legal only when every unpinned byte is gone.
    let any_unpinned = oracle.resident.iter().any(|e| matches!(e, Some((_, 0))));
    assert!(
        used <= oracle.budget || !any_unpinned,
        "{at}: over budget ({used} > {}) with unpinned residents",
        oracle.budget
    );
}

/// Random pin/unpin/warm/evict sequences: the cache's resident set, pin
/// counts, byte accounting, and hit/miss/prefetch/eviction counters all
/// track the scan oracle exactly — so eviction *order* does too.
#[test]
fn cache_tracks_lru_oracle() {
    let input = |g: &mut Gen| {
        let budget_pct = g.int(3usize..140);
        (
            budget_pct,
            g.vec(1..300, |g| (g.int(0u8..4), g.int(0usize..4096))),
        )
    };
    check(48, 1, input, |(budget_pct, ops)| {
        let (_, bytes) = shared_arena();
        let total: usize = bytes.iter().sum();
        let budget = total * budget_pct / 100;
        let handle = open_handle(budget);
        let mut oracle = Oracle::new(bytes, budget);
        for (i, &(op, raw)) in ops.iter().enumerate() {
            let flat = raw % bytes.len();
            match op {
                0 => {
                    handle.pin(flat).unwrap();
                    oracle.acquire(flat, true);
                }
                1 => {
                    // Unpin only when a pin is held — a bare release
                    // is an executor bug the cache panics on (tested
                    // separately).
                    if oracle.pins(flat) > 0 {
                        handle.unpin(flat);
                        oracle.release(flat);
                    }
                }
                2 => {
                    handle.warm(flat).unwrap();
                    oracle.acquire(flat, false);
                    oracle.release(flat);
                }
                _ => {
                    // Explicit evict of an unpinned block; pinned
                    // targets are skipped here (panic path tested
                    // separately).
                    if oracle.pins(flat) == 0 {
                        let got = handle.cache().evict(flat);
                        let want = oracle.evict(flat);
                        assert_eq!(got, want, "op {i}: evict return diverged");
                    }
                }
            }
            compare(
                &handle,
                &oracle,
                &format!("after op {i} ({op}, block {flat})"),
            );
        }
    });
}

/// Pin safety: evicting a pinned block panics, and the panicking evict
/// mutates nothing — the block stays resident, pinned, and fully
/// accounted.
#[test]
fn evicting_pinned_block_panics_and_mutates_nothing() {
    let input = |g: &mut Gen| {
        (
            g.int(3usize..140),
            g.vec(0..40, |g| g.int(0usize..4096)),
            g.int(0usize..4096),
        )
    };
    check(48, 2, input, |(budget_pct, warm_ops, target)| {
        let (_, bytes) = shared_arena();
        let total: usize = bytes.iter().sum();
        let handle = open_handle(total * budget_pct / 100);
        for &raw in &warm_ops {
            handle.warm(raw % bytes.len()).unwrap();
        }
        let flat = target % bytes.len();
        handle.pin(flat).unwrap();
        let before = handle.counters();
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.cache().evict(flat)));
        assert!(
            verdict.is_err(),
            "evicting pinned block {flat} did not panic"
        );
        assert!(
            handle.is_resident(flat),
            "pinned block evicted by panicking call"
        );
        assert_eq!(handle.cache().pin_count(flat), 1);
        let after = handle.counters();
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.resident_bytes, before.resident_bytes);
        assert_eq!(after.pinned_bytes, before.pinned_bytes);
        handle.unpin(flat);
    });
}

#[test]
fn parse_bytes_accepts_binary_suffixes() {
    assert_eq!(parse_bytes("4096"), Some(4096));
    assert_eq!(parse_bytes("64k"), Some(64 << 10));
    assert_eq!(parse_bytes(" 16M "), Some(16 << 20));
    assert_eq!(parse_bytes("1G"), Some(1 << 30));
    assert_eq!(parse_bytes("2g"), Some(2 << 30));
    assert_eq!(parse_bytes(""), None);
    assert_eq!(parse_bytes("k"), None);
    assert_eq!(parse_bytes("12q"), None);
    assert_eq!(parse_bytes("-3"), None);
}

#[test]
fn budget_from_env_overrides_default() {
    // Process-global env: no other test in this binary reads the budget
    // (the property tests above pass explicit budgets).
    std::env::set_var("MF_SPILL_BUDGET", "64k");
    assert_eq!(budget_from_env(123), 64 << 10);
    std::env::set_var("MF_SPILL_BUDGET", "not a size");
    assert_eq!(budget_from_env(123), 123);
    std::env::remove_var("MF_SPILL_BUDGET");
    assert_eq!(budget_from_env(456), 456);
}

/// A prelude whose every checksum is valid but whose band counts claim
/// a 2⁴⁰-entry directory: the open must run dry reading it, not size an
/// allocation from the header's word.
#[test]
fn huge_claimed_directory_is_torn_without_allocating() {
    use mf_sparse::hash::xxh64;
    let bands = 1u32 << 20;
    let mut header = [0u8; 48];
    header[0..4].copy_from_slice(b"MFCK");
    header[4..8].copy_from_slice(&3u32.to_le_bytes());
    header[24..28].copy_from_slice(&bands.to_le_bytes());
    header[28..32].copy_from_slice(&bands.to_le_bytes());
    // m = n = nnz = 0, so all-zero cuts are a valid (degenerate) grid.
    let cuts = vec![0u8; 2 * (bands as usize + 1) * 4];
    let mut file = Vec::new();
    file.extend_from_slice(&header);
    file.extend_from_slice(&xxh64(&header).to_le_bytes());
    file.extend_from_slice(&cuts);
    file.extend_from_slice(&xxh64(&cuts).to_le_bytes());
    let dir = std::env::temp_dir().join(format!("mf_sparse_arena_huge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.mfcka");
    std::fs::write(&path, &file).unwrap();
    let err = BlockArena::open(Arc::new(RealFs), &path).unwrap_err();
    assert!(
        matches!(
            err,
            ArenaError::Torn {
                section: "directory"
            }
        ),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
