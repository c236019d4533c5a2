//! Absolute bit pins across commits.
//!
//! Every other identity suite in this repo is *relative* — A ≡ B inside
//! one build (DES ≡ threads, spill ≡ RAM, batched ≡ serial). Nothing
//! there notices a refactor that moves A and B together. These tests
//! pin XXH64 constants of trained factors, checkpoint bytes and served
//! answers, so "same behaviour" is checkable from one commit to the next.
//!
//! Inputs and grids come from integer arithmetic only: explicit cut
//! lists, no cost-model fit, no libm call whose last bit could differ
//! between hosts. Each pin has two values, keyed by whether the process
//! dispatches the scalar-level kernels (`MF_SIMD=scalar`, non-x86) or a
//! fused one — the AVX2 and AVX-512 updates are bit-equal to each other
//! (see `mf_sgd::simd`), so the `MF_SIMD=scalar` and `MF_SIMD=avx2` CI
//! legs between them cover both columns.
//!
//! A constant may change only in a PR that says which arithmetic it
//! changed and why.

use hsgd_star::hetero::executor::train_with_executor;
use hsgd_star::hetero::layout::StarLayout;
use hsgd_star::hetero::runtime::ThreadedExecutor;
use hsgd_star::hetero::scheduler::{StarScheduler, UniformScheduler};
use hsgd_star::hetero::trainer::run_training;
use hsgd_star::hetero::{CostModelKind, CpuSpec, DevicePool, HeteroConfig, TrainOutcome};
use hsgd_star::par::ThreadPool;
use hsgd_star::serve::checkpoint::write_checkpoint;
use hsgd_star::serve::delta::{read_delta, write_delta, DeltaMeta};
use hsgd_star::serve::{Checkpoint, CheckpointMeta, FactorStore, LiveConfig, LiveTrainer, Query};
use hsgd_star::sgd::simd::{self, SimdLevel};
use hsgd_star::sgd::{HyperParams, LearningRate, Model};
use hsgd_star::sparse::arena::BlockArena;
use hsgd_star::sparse::hash::Xxh64;
use hsgd_star::sparse::{BlockOrder, GridPartition, GridSpec, Rating, RealFs, SparseMatrix};
use mf_des::SimTime;

const USERS: u32 = 96;
const ITEMS: u32 = 600;

/// One pinned value per kernel family.
struct Pin {
    scalar: u64,
    fused: u64,
}

impl Pin {
    fn expected(&self) -> u64 {
        if simd::level() == SimdLevel::Scalar {
            self.scalar
        } else {
            self.fused
        }
    }
}

/// About a fifth of the `USERS × ITEMS` cells, chosen and valued by
/// integer mixing; ratings are multiples of 0.5 in `[1, 5]`, all exact
/// in `f32`. Every seventh kept cell goes to the test split.
fn dataset() -> (SparseMatrix, SparseMatrix) {
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for u in 0..USERS {
        for v in 0..ITEMS {
            let h = (u * 2_654_435 + v * 40_503 + u * v) % 1_000;
            if h >= 200 {
                continue;
            }
            let r = 1.0 + ((u * 7 + v * 13 + h) % 9) as f32 * 0.5;
            if h % 7 == 0 {
                test.push(Rating::new(u, v, r));
            } else {
                train.push(Rating::new(u, v, r));
            }
        }
    }
    (
        SparseMatrix::new(USERS, ITEMS, train).unwrap(),
        SparseMatrix::new(USERS, ITEMS, test).unwrap(),
    )
}

fn hyper(k: usize) -> HyperParams {
    HyperParams {
        k,
        lambda_p: 0.05,
        lambda_q: 0.05,
        gamma: 0.01,
        schedule: LearningRate::Fixed,
    }
}

/// HSGD\* rig: two CPU workers, one GPU, stealing on.
fn hetero_cfg() -> HeteroConfig {
    HeteroConfig {
        hyper: hyper(16),
        nc: 2,
        ng: 1,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(100.0),
        cpu: CpuSpec::default().scaled_down(100.0),
        iterations: 4,
        seed: 5,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

/// The Sec. VI grid for `nc = 2`, `ng = 1`, written out by hand: six CPU
/// row bands over users `0..60`, one GPU group of three sub-rows over
/// `60..96`, five column bands.
fn star_spec() -> GridSpec {
    let row_cuts = vec![0, 10, 20, 30, 40, 50, 60, 72, 84, 96];
    let col_cuts = vec![0, 120, 240, 360, 480, 600];
    GridSpec::from_cuts(row_cuts, col_cuts).unwrap()
}

fn star_scheduler(iterations: u32) -> StarScheduler {
    let layout = StarLayout {
        spec: star_spec(),
        alpha: 0.375,
        cpu_bands: 6,
        sub_rows_per_gpu: 3,
        nc: 2,
        ng: 1,
        row_split: 60,
    };
    StarScheduler::new(layout, iterations, true).with_steal_ratio(2.0)
}

fn device_pool(cfg: &HeteroConfig) -> DevicePool {
    DevicePool {
        cpu_workers: cfg.nc,
        gpus: vec![hsgd_star::hetero::devices::GpuWorker::new(cfg.gpu)],
        gpu_start: vec![SimTime::ZERO],
    }
}

fn hash_f32s(h: &mut Xxh64, xs: &[f32]) {
    for x in xs {
        h.update(&x.to_bits().to_le_bytes());
    }
}

fn hash_model(model: &Model) -> u64 {
    let mut h = Xxh64::new(0);
    hash_f32s(&mut h, model.p_raw());
    hash_f32s(&mut h, model.q_raw());
    h.digest()
}

fn exclusive_run(threads: usize) -> TrainOutcome {
    let (train, test) = dataset();
    let cfg = hetero_cfg();
    let pool = ThreadPool::new(threads);
    let mut exec = ThreadedExecutor::with_pool(&pool);
    train_with_executor(
        &train,
        &test,
        star_scheduler(cfg.iterations),
        device_pool(&cfg),
        &cfg,
        None,
        "golden/exclusive",
        |_, _| {},
        &mut exec,
    )
}

#[test]
fn hsgd_star_exclusive_factors_are_pinned() {
    const PIN: Pin = Pin {
        scalar: 0xbeb3_116d_ef4e_9d5b,
        fused: 0x6e41_452a_1dd6_b91c,
    };
    let one = exclusive_run(1);
    let four = exclusive_run(4);
    assert_eq!(one.model, four.model, "1 vs 4 pool threads");
    assert!(one.report.gpu_points > 0 && one.report.cpu_points > 0);
    assert_eq!(
        hash_model(&one.model),
        PIN.expected(),
        "got {:#018x}",
        hash_model(&one.model)
    );
}

#[test]
fn hsgd_star_des_factors_are_pinned() {
    const PIN: Pin = Pin {
        scalar: 0xb0b6_13e3_c334_63b0,
        fused: 0x17d2_31e0_e13d_de12,
    };
    let (train, test) = dataset();
    let cfg = hetero_cfg();
    let out = run_training(
        &train,
        &test,
        star_scheduler(cfg.iterations),
        device_pool(&cfg),
        &cfg,
        None,
        "golden/des",
    );
    assert!(out.report.gpu_points > 0 && out.report.cpu_points > 0);
    assert_eq!(
        hash_model(&out.model),
        PIN.expected(),
        "got {:#018x}",
        hash_model(&out.model)
    );
}

/// CPU-Only (the FPSGD policy: a capped `UniformScheduler`) in exclusive
/// mode on a pool of `threads`: each round's task set, and so the update
/// order, is a function of the data alone.
fn cpu_only_model(k: usize, threads: usize) -> Model {
    let (train, test) = dataset();
    let cfg = HeteroConfig {
        hyper: hyper(k),
        iterations: 3,
        seed: 7,
        ..hetero_cfg()
    };
    let pool = ThreadPool::new(threads);
    train_with_executor(
        &train,
        &test,
        UniformScheduler::new(GridSpec::uniform(USERS, ITEMS, 4, 3), 3, true),
        DevicePool {
            cpu_workers: 1,
            gpus: vec![],
            gpu_start: vec![],
        },
        &cfg,
        None,
        "golden/cpu-only",
        |_, _| {},
        &mut ThreadedExecutor::with_pool(&pool),
    )
    .model
}

#[test]
fn fpsgd_single_thread_factors_are_pinned() {
    // k = 8 takes the kernel's lean small-row loop, k = 16 the
    // prefetching one, k = 12 the scalar fallback for a dimension
    // without a monomorphized kernel (one value in both columns).
    const PINS: [(usize, Pin); 3] = [
        (
            8,
            Pin {
                scalar: 0xa7f4_c2f8_6782_046d,
                fused: 0xd582_5bdd_e5a0_af72,
            },
        ),
        (
            12,
            Pin {
                scalar: 0xb5c8_2e64_ab9d_d099,
                fused: 0xb5c8_2e64_ab9d_d099,
            },
        ),
        (
            16,
            Pin {
                scalar: 0x640d_c072_af92_e2b9,
                fused: 0xde25_16bd_93cc_cb8a,
            },
        ),
    ];
    for (k, pin) in &PINS {
        let model = cpu_only_model(*k, 1);
        assert_eq!(model, cpu_only_model(*k, 4), "k={k}: 1 vs 4 pool threads");
        let got = hash_model(&model);
        assert_eq!(got, pin.expected(), "k={k}: got {got:#018x}");
    }
}

#[test]
fn checkpoint_bytes_are_pinned() {
    const PIN: Pin = Pin {
        scalar: 0x5d71_7b77_5fa5_91ed,
        fused: 0x3317_ef0e_0966_8d6f,
    };
    let mut bytes = Vec::new();
    write_checkpoint(
        &cpu_only_model(16, 1),
        CheckpointMeta { seed: 7, epoch: 3 },
        &mut bytes,
    )
    .unwrap();
    let got = hsgd_star::sparse::hash::xxh64(&bytes);
    assert_eq!(
        got,
        PIN.expected(),
        "got {got:#018x} over {} bytes",
        bytes.len()
    );
}

/// The epoch after `cpu_only_model(16, 1)`'s: user rows 3 and 4 and item rows
/// 10..13 halved (exact in `f32`), and one new user whose row is built
/// from integers. Returns the base and the grown model.
fn delta_fixture() -> (Model, Model) {
    let base = cpu_only_model(16, 1);
    let k = base.k();
    let grown_row = (0..k).map(|i| (i as f32 - 8.0) * 0.125);
    let mut next = Model::from_parts(
        USERS + 1,
        ITEMS,
        k,
        base.p_raw().iter().copied().chain(grown_row).collect(),
        base.q_raw().to_vec(),
    );
    for u in [3, 4] {
        next.p_row_mut(u).iter_mut().for_each(|x| *x *= 0.5);
    }
    for v in 10..13 {
        next.q_row_mut(v).iter_mut().for_each(|x| *x *= 0.5);
    }
    (base, next)
}

#[test]
fn delta_bytes_are_pinned() {
    const PIN: Pin = Pin {
        scalar: 0xaac8_aeff_4da4_d6ea,
        fused: 0xc53f_ba26_860d_d922,
    };
    let (base, next) = delta_fixture();
    let meta = DeltaMeta {
        seed: 7,
        epoch: 4,
        base_epoch: 3,
    };
    // Two P runs (rows 3..5 and the grown row 96), one Q run.
    let mut bytes = Vec::new();
    write_delta(&next, meta, &[3, 4, USERS], &[10, 11, 12], &mut bytes).unwrap();
    let got = hsgd_star::sparse::hash::xxh64(&bytes);
    assert_eq!(
        got,
        PIN.expected(),
        "got {got:#018x} over {} bytes",
        bytes.len()
    );
    let delta = read_delta(&bytes[..]).unwrap();
    assert_eq!(delta.meta, meta);
    assert_eq!((delta.p_runs.len(), delta.q_runs.len()), (2, 1));
    let applied = delta
        .apply(Checkpoint {
            model: base,
            meta: CheckpointMeta { seed: 7, epoch: 3 },
        })
        .unwrap();
    assert_eq!(applied.meta, CheckpointMeta { seed: 7, epoch: 4 });
    assert_eq!(hash_model(&applied.model), hash_model(&next));
}

#[test]
fn arena_bytes_are_pinned() {
    // No kernel touches these bytes: one value for every SIMD level.
    const PIN: u64 = 0x52e7_d25a_e15a_5a10;
    let (train, _) = dataset();
    let part = GridPartition::build_with_order(&train, star_spec(), BlockOrder::UserMajor);
    let dir = std::env::temp_dir().join(format!("golden_bits_arena_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    BlockArena::write(&RealFs, &dir, "golden.mfcka", &part).unwrap();
    let path = dir.join("golden.mfcka");
    let bytes = std::fs::read(&path).unwrap();
    let got = hsgd_star::sparse::hash::xxh64(&bytes);
    assert_eq!(got, PIN, "got {got:#018x} over {} bytes", bytes.len());
    let arena = BlockArena::open(std::sync::Arc::new(RealFs), &path).unwrap();
    arena.verify().unwrap();
    assert_eq!(arena.spec(), part.spec());
    assert_eq!(arena.nnz(), train.nnz() as u64);
    for (flat, id) in part.spec().blocks().enumerate() {
        let (got, want) = (arena.load_block(flat).unwrap(), part.block(id));
        let got = got.slices();
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "block {flat}");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.vals), bits(want.vals), "block {flat}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn served_top10_is_pinned() {
    const PIN: Pin = Pin {
        scalar: 0x6a54_4b7c_f73b_66ec,
        fused: 0xa376_f14d_9ace_0b6d,
    };
    let store = FactorStore::new(cpu_only_model(16, 1), 3);
    let queries: Vec<Query> = (0..64).map(|u| Query::top_k(u, 10)).collect();
    let answers = store.sweep_batch(&queries);
    let serial: Vec<_> = queries.iter().map(|q| store.serve_one(q)).collect();
    assert_eq!(answers, serial, "sweep_batch vs serve_one");
    let mut h = Xxh64::new(0);
    for a in &answers {
        assert_eq!(a.items.len(), 10);
        for &(item, score) in &a.items {
            h.update(&item.to_le_bytes());
            h.update(&score.to_bits().to_le_bytes());
        }
    }
    assert_eq!(h.digest(), PIN.expected(), "got {:#018x}", h.digest());
}

const LIVE_USERS: u32 = 40;
const LIVE_ITEMS: u32 = 30;

/// The live loop's starting model: `LIVE_USERS × LIVE_ITEMS` at k = 8,
/// every entry a multiple of 1/128 in `[0, 0.5)`.
fn live_base() -> Model {
    let k = 8;
    let cell = |i: u32| ((i * 37 + 11) % 64) as f32 / 128.0;
    Model::from_parts(
        LIVE_USERS,
        LIVE_ITEMS,
        k as usize,
        (0..LIVE_USERS * k).map(cell).collect(),
        (0..LIVE_ITEMS * k).map(|i| cell(i + 5)).collect(),
    )
}

/// Epoch `epoch`'s ratings against a model of `m` users and `n` items:
/// 48 over known ids, and in epochs 1, 3 and 4 ten more naming four new
/// users and four new items, spread through the batch out of id order.
/// User `m + 1` rates only new items, item `n + 1` is rated only by a
/// new user, and user `m + 2` and item `n + 2` are gaps no rating names.
/// Epoch 5 is empty.
fn live_events(epoch: u32, m: u32, n: u32) -> Vec<(u32, u32, f32)> {
    if epoch == 5 {
        return Vec::new();
    }
    let r = |i: u32| 1.0 + ((i * 5 + epoch) % 9) as f32 * 0.5;
    let fresh = match epoch {
        1 | 3 | 4 => vec![
            (m + 3, 2, r(1)),
            (m + 1, n + 1, r(2)),
            (7, n, r(3)),
            (m, 4, r(4)),
            (m + 1, n + 3, r(5)),
            (m, n, r(6)),
            (3, n + 3, r(7)),
            (m + 3, 9, r(8)),
            (m, 11, r(9)),
            (12, n, r(10)),
        ],
        _ => Vec::new(),
    };
    let mut events = Vec::new();
    for i in 0..48 {
        events.push(((i * 7 + epoch * 3) % m, (i * 11 + epoch) % n, r(i)));
        if i % 5 == 2 {
            events.extend(fresh.get(i as usize / 5).copied());
        }
    }
    events
}

#[test]
fn live_loop_records_are_pinned() {
    // Bootstrap snapshot, deltas 1–2, the re-basing snapshot at 3 and
    // deltas 4–5. No kernel reaches the bootstrap bytes or the empty
    // epoch's row-less delta: one value each.
    const RECORDS: [(&str, Pin); 6] = [
        (
            "ckpt_epoch_00000.mfck",
            Pin {
                scalar: 0x7ce6_eb21_fb6e_f79d,
                fused: 0x7ce6_eb21_fb6e_f79d,
            },
        ),
        (
            "ckpt_epoch_00003.mfck",
            Pin {
                scalar: 0x6bde_3669_d874_3368,
                fused: 0xbef5_ecfb_7797_8634,
            },
        ),
        (
            "delta_epoch_00001.mfckd",
            Pin {
                scalar: 0xdb87_4779_be98_1ff5,
                fused: 0xd74f_16c8_0343_f6f6,
            },
        ),
        (
            "delta_epoch_00002.mfckd",
            Pin {
                scalar: 0x2a35_c66d_86a6_f83c,
                fused: 0xe042_a305_0fb3_368d,
            },
        ),
        (
            "delta_epoch_00004.mfckd",
            Pin {
                scalar: 0xd0bf_df28_53c7_888d,
                fused: 0xf042_645e_4ea0_ed53,
            },
        ),
        (
            "delta_epoch_00005.mfckd",
            Pin {
                scalar: 0xf2a4_a18e_cf90_444e,
                fused: 0xf2a4_a18e_cf90_444e,
            },
        ),
    ];
    const FACTORS: Pin = Pin {
        scalar: 0x5543_b206_7c75_3638,
        fused: 0xc5f6_eec4_f1be_f6dc,
    };
    let dir = std::env::temp_dir().join(format!("golden_bits_live_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = LiveConfig {
        snapshot_every: 3,
        ..LiveConfig::default()
    };
    let meta = CheckpointMeta { seed: 11, epoch: 0 };
    let mut t = LiveTrainer::bootstrap(
        std::sync::Arc::new(RealFs),
        dir.clone(),
        live_base(),
        meta,
        cfg,
    )
    .unwrap();
    for epoch in 1..=5 {
        let (m, n) = (t.model().nrows(), t.model().ncols());
        for (u, v, r) in live_events(epoch, m, n) {
            t.ingest(u, v, r);
        }
        let rep = t.step();
        assert!(rep.acked, "epoch {epoch}: {:?}", rep.ckpt_error);
    }
    let model = t.model();
    assert_eq!(
        (model.nrows(), model.ncols()),
        (LIVE_USERS + 12, LIVE_ITEMS + 12)
    );
    assert!(model
        .p_raw()
        .iter()
        .chain(model.q_raw())
        .all(|x| x.is_finite()));

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let want_names: Vec<&str> = RECORDS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, want_names);
    let got: Vec<u64> = names
        .iter()
        .map(|name| hsgd_star::sparse::hash::xxh64(&std::fs::read(dir.join(name)).unwrap()))
        .chain([hash_model(model)])
        .collect();
    let want: Vec<u64> = RECORDS
        .iter()
        .map(|(_, pin)| pin.expected())
        .chain([FACTORS.expected()])
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(
        got, want,
        "got {got:#018x?} (records by name, then factors)"
    );
}
