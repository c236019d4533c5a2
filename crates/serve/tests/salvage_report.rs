//! The salvage report of [`delta::recover`], pinned line for line over a
//! directory that holds one of every kind of file recovery classifies:
//! a chain to follow, a superseded snapshot and its deltas, a duplicate
//! delta, a torn delta, a snapshot whose stored checksum was flipped, an
//! orphaned temporary, a delta whose base never landed and a foreign
//! file.
//!
//! The report, the recovered epoch and the recovered factor bits must
//! not depend on how the scan is scheduled, so this suite runs under
//! every `MF_PAR_THREADS` setting the CI matrix uses.

use std::path::PathBuf;

use mf_serve::checkpoint::{self, CheckpointMeta};
use mf_serve::delta::{self, DeltaMeta};
use mf_sgd::Model;

const SEED: u64 = 11;
const K: usize = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mf_serve_salvage_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `model` grown to `m × n` (new rows filled with `fill`), then every
/// row in `p_rows` / `q_rows` overwritten with `fill` too.
fn next(model: &Model, m: u32, n: u32, p_rows: &[u32], q_rows: &[u32], fill: f32) -> Model {
    let grow = |raw: &[f32], rows: u32| {
        let mut buf = raw.to_vec();
        buf.resize(rows as usize * K, fill);
        buf
    };
    let mut out = Model::from_parts(m, n, K, grow(model.p_raw(), m), grow(model.q_raw(), n));
    for &r in p_rows {
        out.p_row_mut(r).fill(fill);
    }
    for &r in q_rows {
        out.q_row_mut(r).fill(fill);
    }
    out
}

fn snapshot_bytes(model: &Model, epoch: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::write_checkpoint(model, CheckpointMeta { seed: SEED, epoch }, &mut buf).unwrap();
    buf
}

fn delta_bytes(model: &Model, epoch: u64, base_epoch: u64, p: &[u32], q: &[u32]) -> Vec<u8> {
    let meta = DeltaMeta {
        seed: SEED,
        epoch,
        base_epoch,
    };
    let mut buf = Vec::new();
    delta::write_delta(model, meta, p, q, &mut buf).unwrap();
    buf
}

fn bits(m: &Model) -> (u32, u32, Vec<u32>, Vec<u32>) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
    (m.nrows(), m.ncols(), bits(m.p_raw()), bits(m.q_raw()))
}

#[test]
fn salvage_report_is_pinned() {
    let dir = tmp_dir("pin");
    let write = |name: &str, bytes: &[u8]| std::fs::write(dir.join(name), bytes).unwrap();

    // Epochs 0..=3 of one run: epoch 1 grows a user, epoch 3 an item.
    let m0 = Model::init(6, 5, K, SEED);
    let m1 = next(&m0, 7, 5, &[1, 6], &[0], 1.5);
    let m2 = next(&m1, 7, 5, &[2], &[3, 4], -2.0);
    let m3 = next(&m2, 7, 6, &[0, 1, 5], &[5], 0.25);
    write(&checkpoint::epoch_file_name(0), &snapshot_bytes(&m0, 0));
    write(
        &delta::delta_file_name(1),
        &delta_bytes(&m1, 1, 0, &[1, 6], &[0]),
    );
    write(
        &delta::delta_file_name(2),
        &delta_bytes(&m2, 2, 1, &[2], &[3, 4]),
    );
    write(&checkpoint::epoch_file_name(2), &snapshot_bytes(&m2, 2));
    write(
        &delta::delta_file_name(3),
        &delta_bytes(&m3, 3, 2, &[0, 1, 5], &[5]),
    );

    // A foreign branch off epoch 2: valid, but it sorts after the delta
    // already chaining from 2, so it is the duplicate.
    let branch = next(&m2, 7, 5, &[4], &[], 9.0);
    write(
        &delta::delta_file_name(4),
        &delta_bytes(&branch, 4, 2, &[4], &[]),
    );
    // A delta cut off mid-record and a snapshot whose last checksum
    // byte was flipped.
    let m5 = next(&m3, 7, 6, &[3], &[1], 4.0);
    let torn = delta_bytes(&m5, 5, 3, &[3], &[1]);
    write(&delta::delta_file_name(5), &torn[..torn.len() - 5]);
    let mut flipped = snapshot_bytes(&m3, 4);
    *flipped.last_mut().unwrap() ^= 0x01;
    write(&checkpoint::epoch_file_name(4), &flipped);
    // Debris of a writer killed mid-publish, a delta chaining from the
    // record that never landed, and a foreign file.
    write("ckpt_epoch_00006.mfck.tmp", b"half a snapshot");
    let m7 = next(&m3, 7, 6, &[2], &[2], 3.0);
    write(
        &delta::delta_file_name(7),
        &delta_bytes(&m7, 7, 6, &[2], &[2]),
    );
    write("notes.txt", b"not a record");

    let rec = delta::recover(&dir).unwrap();
    assert_eq!(rec.epoch(), 3);
    assert_eq!(rec.base_epoch, 2);
    assert_eq!(rec.deltas_applied, 1);
    assert_eq!(
        rec.checkpoint.meta,
        CheckpointMeta {
            seed: SEED,
            epoch: 3
        }
    );
    assert_eq!(bits(&rec.checkpoint.model), bits(&m3));
    let notes: Vec<(&str, &str)> = rec
        .notes
        .iter()
        .map(|n| (n.name.as_str(), n.detail.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = vec![
        (
            "ckpt_epoch_00004.mfck",
            "corrupt (checksum mismatch in Q section: stored 0x9c7c4ee0bbfd3254, \
             computed 0x9d7c4ee0bbfd3254) — skipped",
        ),
        (
            "ckpt_epoch_00006.mfck.tmp",
            "orphaned temp from an interrupted write — ignored",
        ),
        (
            "delta_epoch_00004.mfckd",
            "duplicate delta for base epoch 2 (already have delta_epoch_00003.mfckd) — ignored",
        ),
        (
            "delta_epoch_00005.mfckd",
            "torn tail (ends mid-Q-runs) — interrupted write, skipped",
        ),
        ("notes.txt", "unrecognized file — ignored"),
        (
            "ckpt_epoch_00002.mfck",
            "base snapshot at epoch 2 — chain start",
        ),
        (
            "ckpt_epoch_00000.mfck",
            "valid snapshot at epoch 0 — superseded, not loaded",
        ),
        (
            "delta_epoch_00003.mfckd",
            "delta to epoch 3 (base 2, 4 rows) — applied",
        ),
        (
            "delta_epoch_00001.mfckd",
            "delta to epoch 1 (base 0) — superseded by the base snapshot at epoch 2, not loaded",
        ),
        (
            "delta_epoch_00002.mfckd",
            "delta to epoch 2 (base 1) — superseded by the base snapshot at epoch 2, not loaded",
        ),
        (
            "delta_epoch_00007.mfckd",
            "delta to epoch 7 unreachable (no valid record at its base epoch 6) — skipped",
        ),
    ];
    assert_eq!(notes, want);
    let _ = std::fs::remove_dir_all(dir);
}
