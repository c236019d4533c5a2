//! Absolute pins of out-of-core training in virtual time.
//!
//! `spill_identity.rs` proves a spilled DES run trains the same factors
//! as an in-RAM one, but compares no times: the modeled disk reads that
//! stretch each completion could move and it would not notice. These
//! pins fix the bits of `report.virtual_secs` and the XXH64 of the
//! trained factors at `spill_identity`'s three cache budgets on one CPU
//! slot, and once on two CPU slots, where both slots share one modeled
//! disk, so the order of their reads decides the order of completions.
//!
//! The factor hash has two values, keyed by whether the process
//! dispatches the scalar-level kernels (`MF_SIMD=scalar`, non-x86) or a
//! fused one, as in `golden_bits.rs`. Virtual time does not depend on
//! the kernel level.

use hsgd_star::hetero::layout::uniform_layout;
use hsgd_star::hetero::scheduler::UniformScheduler;
use hsgd_star::hetero::{
    train_out_of_core_virtual, CostModelKind, CpuSpec, DevicePool, HeteroConfig, IoSpec,
};
use hsgd_star::sgd::simd::{self, SimdLevel};
use hsgd_star::sgd::{HyperParams, Model};
use hsgd_star::sparse::hash::Xxh64;
use hsgd_star::sparse::{Rating, RealFs, SparseMatrix};
use std::sync::Arc;

/// `spill_identity`'s dataset.
fn dataset() -> (SparseMatrix, SparseMatrix) {
    let ds = hsgd_star::data::generator::generate(&hsgd_star::data::GeneratorConfig {
        name: "spill-identity".into(),
        num_users: 600,
        num_items: 400,
        num_train: 15_000,
        num_test: 1_500,
        planted_rank: 4,
        noise_std: 0.4,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.4,
        item_skew: 0.4,
        seed: 31,
    });
    (ds.train, ds.test)
}

/// `spill_identity`'s rig.
fn cfg(nc: usize) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams {
            k: 8,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: hsgd_star::sgd::LearningRate::Fixed,
        },
        nc,
        ng: 0,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(100.0),
        cpu: CpuSpec::default().scaled_down(100.0),
        iterations: 5,
        seed: 17,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

fn hash_model(model: &Model) -> u64 {
    let mut h = Xxh64::new(0);
    for x in model.p_raw().iter().chain(model.q_raw()) {
        h.update(&x.to_bits().to_le_bytes());
    }
    h.digest()
}

/// `(rig, virtual_secs bits, factor hash scalar, factor hash fused)`.
type Row = (&'static str, u64, u64, u64);

const PINS: &[Row] = &[
    (
        "generous-2x",
        0x3f8f_93c7_550b_672e,
        0x7177_20ab_2098_a232,
        0x39dc_7432_9ddc_f961,
    ),
    (
        "tight-quarter",
        0x3f91_4579_4d19_c7b3,
        0x7177_20ab_2098_a232,
        0x39dc_7432_9ddc_f961,
    ),
    (
        "pathological-1B",
        0x3f91_4579_4d19_c7b3,
        0x7177_20ab_2098_a232,
        0x39dc_7432_9ddc_f961,
    ),
    (
        "tight-quarter/2-slots",
        0x3f81_6aa6_f64b_cf67,
        0xc398_3eb0_257e_3d15,
        0xc7bd_b897_c5c1_5a4c,
    ),
];

#[test]
fn spilled_des_times_and_factors_are_pinned() {
    let (train, test) = dataset();
    let total = train.nnz() * Rating::WIRE_BYTES;
    let fused = simd::level() != SimdLevel::Scalar;
    // `(rig, CPU slots, cache budget)`.
    let rigs = [
        ("generous-2x", 1, total * 2),
        ("tight-quarter", 1, total / 4),
        ("pathological-1B", 1, 1),
        ("tight-quarter/2-slots", 2, total / 4),
    ];
    let mut got = Vec::new();
    for (label, nc, budget) in rigs {
        let cfg = cfg(nc);
        let dir = std::env::temp_dir().join(format!(
            "mf_des_spill_pins_{}_{}",
            label.replace('/', "_"),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let out = train_out_of_core_virtual(
            &train,
            &test,
            UniformScheduler::new(uniform_layout(&train, 5, 4), cfg.iterations, true),
            DevicePool {
                cpu_workers: nc,
                gpus: vec![],
                gpu_start: vec![],
            },
            &cfg,
            Arc::new(RealFs),
            &dir,
            budget,
            IoSpec::default().scaled_down(1000.0),
            None,
            "spill-pins",
        )
        .expect("spilled virtual run");
        let _ = std::fs::remove_dir_all(dir);
        got.push((
            label,
            out.report.virtual_secs.to_bits(),
            hash_model(&out.model),
        ));
    }
    let table: String = got
        .iter()
        .map(|(l, t, h)| format!("    ({l:?}, {t:#018x}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "pin table out of date; this build (fused = {fused}) reads:\n{table}"
    );
    for (&(label, secs, hash), &(pin_label, pin_secs, scalar, fused_pin)) in got.iter().zip(PINS) {
        assert_eq!(label, pin_label, "rig order changed");
        assert_eq!(secs, pin_secs, "{label}: virtual_secs moved:\n{table}");
        let want = if fused { fused_pin } else { scalar };
        assert_eq!(hash, want, "{label}: factors moved:\n{table}");
    }
}
