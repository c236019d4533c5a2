//! A small std-only streaming 64-bit hash for on-disk checksums, and the
//! splitmix64 mixer every seeded hash stream in the workspace uses.
//!
//! This is the XXH64 algorithm (Collet's xxHash, 64-bit variant) written
//! out in ~100 lines: four parallel accumulators over 32-byte stripes, a
//! rotate-multiply round function, and a final avalanche. It is *not* a
//! cryptographic hash — the on-disk checksums defend against bit rot,
//! truncation, and transport corruption, not against an adversary — but
//! it detects every single-byte flip (the property the checkpoint tests
//! pin) and its throughput is far above the disk bandwidth the reader
//! streams at.
//!
//! Shared by every `MFCK`-family format: the v1/v2 checkpoint and delta
//! records in `mf-serve` and the v3 block arena in [`crate::arena`]. It
//! lives in `mf-sparse` (the lowest crate that persists data) so both
//! layers hash with the same implementation. The code is deliberately
//! dependency-free so the workspace stays buildable in the registry-less
//! environment; the test vectors below pin the exact output so the
//! on-disk format (`docs/FORMAT.md`) is reproducible by any conforming
//! XXH64 implementation.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming 64-bit hasher. Feed bytes with [`Xxh64::update`] in any
/// chunking — the digest depends only on the byte stream — and finish
/// with [`Xxh64::digest`].
#[derive(Debug, Clone)]
pub struct Xxh64 {
    /// The four stripe accumulators.
    acc: [u64; 4],
    /// Holds a partial 32-byte stripe between `update` calls.
    buf: [u8; 32],
    /// Valid bytes in `buf`.
    buf_len: usize,
    /// Total bytes consumed.
    total: u64,
    seed: u64,
}

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

impl Xxh64 {
    /// A fresh hasher with the given seed (the checkpoint format uses
    /// seed 0).
    pub fn new(seed: u64) -> Xxh64 {
        Xxh64 {
            acc: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            buf: [0; 32],
            buf_len: 0,
            total: 0,
            seed,
        }
    }

    /// Consumes one full 32-byte stripe.
    #[inline]
    fn consume_stripe(&mut self, stripe: &[u8]) {
        debug_assert_eq!(stripe.len(), 32);
        for (i, a) in self.acc.iter_mut().enumerate() {
            *a = round(*a, read_u64(&stripe[i * 8..]));
        }
    }

    /// Feeds `data` into the hash. Chunking is irrelevant: any split of
    /// the same byte stream yields the same digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        // Top up a partial stripe first.
        if self.buf_len > 0 {
            let take = (32 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 32 {
                let stripe = self.buf;
                self.consume_stripe(&stripe);
                self.buf_len = 0;
            }
        }
        // Whole stripes straight from the input.
        while data.len() >= 32 {
            self.consume_stripe(&data[..32]);
            data = &data[32..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash over everything fed so far. The hasher may keep
    /// receiving `update`s afterwards (digest is non-destructive).
    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.acc;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            h = merge_round(h, v1);
            h = merge_round(h, v2);
            h = merge_round(h, v3);
            h = merge_round(h, v4);
            h
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        h = h.wrapping_add(self.total);
        // The buffered tail (< 32 bytes).
        let mut rest = &self.buf[..self.buf_len];
        while rest.len() >= 8 {
            h ^= round(0, read_u64(rest));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            h ^= (read_u32(rest) as u64).wrapping_mul(PRIME_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= (b as u64).wrapping_mul(PRIME_5);
            h = h.rotate_left(11).wrapping_mul(PRIME_1);
        }
        // Avalanche.
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^= h >> 32;
        h
    }
}

/// One-shot hash of a byte slice with seed 0 — the checksum function of
/// the checkpoint format (`docs/FORMAT.md`).
pub fn xxh64(data: &[u8]) -> u64 {
    let mut h = Xxh64::new(0);
    h.update(data);
    h.digest()
}

/// The splitmix64 finalizer (Steele, Lea & Flood): a bijective 64-bit
/// mixer. The workspace's one copy — the parallel shuffle's bucket hash,
/// the DES jitter and the fuzz harness's seeded stream each feed it
/// their own input.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference digests from the canonical xxHash implementation.
    #[test]
    fn known_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    /// The first output of the reference splitmix64 stream seeded with 0.
    #[test]
    fn splitmix64_known_vector() {
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn seed_changes_digest() {
        let mut a = Xxh64::new(0);
        let mut b = Xxh64::new(1);
        a.update(b"hello world");
        b.update(b"hello world");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn chunking_is_irrelevant() {
        // Long enough to cross several stripes; split at awkward points.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = xxh64(&data);
        for splits in [vec![1, 31, 32, 63, 500], vec![999], vec![32, 32, 32]] {
            let mut h = Xxh64::new(0);
            let mut rest = &data[..];
            for s in splits {
                let (head, tail) = rest.split_at(s.min(rest.len()));
                h.update(head);
                rest = tail;
            }
            h.update(rest);
            assert_eq!(h.digest(), whole);
        }
    }

    #[test]
    fn single_byte_flips_change_digest() {
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let base = xxh64(&data);
        for at in [0usize, 7, 31, 32, 100, 255] {
            let mut flipped = data.clone();
            flipped[at] ^= 0x40;
            assert_ne!(xxh64(&flipped), base, "flip at {at} undetected");
        }
    }

    #[test]
    fn digest_is_non_destructive() {
        let mut h = Xxh64::new(0);
        h.update(b"abc");
        let d1 = h.digest();
        assert_eq!(d1, h.digest());
        h.update(b"def");
        assert_eq!(h.digest(), xxh64(b"abcdef"));
    }
}
