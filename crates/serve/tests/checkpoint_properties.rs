//! Property tests for the `MFCK` checkpoint format: round-trips are
//! bit-identical for arbitrary geometry (including NaN/∞ payload bits),
//! and *every* single-byte corruption anywhere in the file is rejected —
//! the header checksum covers the header, each section checksum covers
//! its payload, and flips inside a stored checksum disagree with the
//! recomputed digest.

use mf_fuzz::{check, Gen};
use mf_serve::checkpoint::{self, CheckpointMeta};
use mf_sgd::Model;

/// Builds a model whose factor buffers carry arbitrary *bit patterns*
/// (reinterpreted u32s), so the round-trip property covers NaNs,
/// infinities, and denormals — everything `PartialEq` on floats would
/// hide.
fn model_from_bits(m: u32, n: u32, k: usize, bits: &[u32]) -> Model {
    let need = (m as usize + n as usize) * k;
    let buf: Vec<f32> = (0..need)
        .map(|i| f32::from_bits(bits[i % bits.len()].wrapping_add(i as u32)))
        .collect();
    let (p, q) = buf.split_at(m as usize * k);
    Model::from_parts(m, n, k, p.to_vec(), q.to_vec())
}

fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn round_trip_is_bit_identical() {
    let input = |g: &mut Gen| {
        let shape = (g.int(1u32..40), g.int(1u32..40), g.int(1usize..20));
        let meta = CheckpointMeta {
            seed: g.int(0u64..u64::MAX),
            epoch: g.int(0u64..u64::MAX),
        };
        (shape, meta, g.vec(1..64, |g| g.int(0u32..u32::MAX)))
    };
    check(256, 1, input, |((m, n, k), meta, bits)| {
        let model = model_from_bits(m, n, k, &bits);
        let mut buf = Vec::new();
        checkpoint::write_checkpoint(&model, meta, &mut buf).unwrap();
        let back = checkpoint::read_checkpoint(&buf[..]).unwrap();
        assert_eq!(back.meta, meta);
        assert_eq!(
            (back.model.nrows(), back.model.ncols(), back.model.k()),
            (m, n, k)
        );
        assert_eq!(bits_of(back.model.p_raw()), bits_of(model.p_raw()));
        assert_eq!(bits_of(back.model.q_raw()), bits_of(model.q_raw()));
    });
}

#[test]
fn any_single_byte_corruption_is_detected() {
    let input = |g: &mut Gen| {
        let shape = (g.int(1u32..12), g.int(1u32..12), g.int(1usize..10));
        let flip = (g.int(0u64..u64::MAX), g.int(0u8..8));
        (shape, flip, g.vec(1..16, |g| g.int(0u32..u32::MAX)))
    };
    check(
        256,
        2,
        input,
        |((m, n, k), (flip_pos_raw, flip_bit), bits)| {
            let model = model_from_bits(m, n, k, &bits);
            let meta = CheckpointMeta { seed: 1, epoch: 2 };
            let mut buf = Vec::new();
            checkpoint::write_checkpoint(&model, meta, &mut buf).unwrap();
            let at = (flip_pos_raw % buf.len() as u64) as usize;
            buf[at] ^= 1 << flip_bit;
            // A flipped byte may surface as any error variant (bad magic,
            // bad version, bad geometry, checksum mismatch, or truncation-
            // style I/O if a length field grew) — but never as a clean
            // load.
            assert!(
                checkpoint::read_checkpoint(&buf[..]).is_err(),
                "flip at byte {at} bit {flip_bit} loaded cleanly"
            );
        },
    );
}

#[test]
fn truncation_at_any_point_is_detected() {
    let input = |g: &mut Gen| {
        let shape = (g.int(1u32..10), g.int(1u32..10), g.int(1usize..8));
        (shape, g.int(0u64..u64::MAX))
    };
    check(256, 3, input, |((m, n, k), cut_raw)| {
        let model = Model::init(m, n, k, 5);
        let mut buf = Vec::new();
        checkpoint::write_checkpoint(&model, CheckpointMeta { seed: 0, epoch: 0 }, &mut buf)
            .unwrap();
        let cut = (cut_raw % buf.len() as u64) as usize;
        assert!(checkpoint::read_checkpoint(&buf[..cut]).is_err());
    });
}

/// A 60-byte v2 delta: valid header checksum, `m = u32::MAX` so the
/// `count ≤ rows` rule admits `count = u32::MAX`, then nothing. The run
/// table must run dry, not be allocated on the count's word.
#[test]
fn huge_claimed_run_count_is_torn_without_allocating() {
    use mf_serve::{delta, CheckpointError};
    let mut header = [0u8; checkpoint::HEADER_LEN];
    header[0..4].copy_from_slice(&checkpoint::MAGIC);
    header[4..8].copy_from_slice(&delta::DELTA_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // m
    header[12..16].copy_from_slice(&1u32.to_le_bytes()); // n
    header[16..24].copy_from_slice(&1u64.to_le_bytes()); // k
    header[32..40].copy_from_slice(&1u64.to_le_bytes()); // epoch; base_epoch stays 0
    let mut file = Vec::new();
    file.extend_from_slice(&header);
    file.extend_from_slice(&mf_sparse::hash::xxh64(&header).to_le_bytes());
    file.extend_from_slice(&u32::MAX.to_le_bytes()); // P-runs count
    assert_eq!(file.len(), 60);
    let err = delta::read_delta(&file[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Torn { section: "P-runs" }),
        "got {err}"
    );
}
