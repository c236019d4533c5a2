//! The full artifact lifecycle: train → checkpoint per epoch → load →
//! fold-in a brand-new user → serve batched top-k from the factor store.
//!
//! This is the deployment loop the `mf-serve` crate exists for: the
//! trainer emits one `MFCK` checkpoint per epoch (byte format in
//! `docs/FORMAT.md`), a serving process loads the latest one into a
//! tiled [`FactorStore`], and traffic — including users who did not
//! exist at training time — is answered without touching the trainer.
//!
//! Run with: `cargo run --release --example serve_topk`

use hsgd_star::data::{preset, PresetName};
use hsgd_star::hetero::layout::uniform_layout;
use hsgd_star::hetero::scheduler::UniformScheduler;
use hsgd_star::hetero::trainer::{run_training_with_hook, DevicePool};
use hsgd_star::hetero::{CostModelKind, CpuSpec, HeteroConfig};
use hsgd_star::serve::{checkpoint, FactorStore, FoldIn, Query, QueryUser};
use hsgd_star::sgd::{HyperParams, LearningRate};

fn main() {
    // 1. Train on a MovieLens-shaped dataset, checkpointing every epoch.
    const SCALE: u64 = 800;
    let ds = preset(PresetName::MovieLens, SCALE, 7).build();
    println!(
        "dataset: {} users × {} items, {} train ratings",
        ds.train.nrows(),
        ds.train.ncols(),
        ds.train.nnz()
    );

    let cfg = HeteroConfig {
        hyper: HyperParams {
            k: 16,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: LearningRate::Fixed,
        },
        nc: 4,
        ng: 0,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(SCALE as f64),
        cpu: CpuSpec::default().scaled_down(SCALE as f64),
        iterations: 12,
        seed: 7,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    };
    let ckpt_dir = std::env::temp_dir().join("hsgd_star_serve_topk");
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");

    let spec = uniform_layout(&ds.train, 5, 4);
    let sched = UniformScheduler::new(spec, cfg.iterations, true);
    let pool = DevicePool {
        cpu_workers: 4,
        gpus: vec![],
        gpu_start: vec![],
    };
    let out = run_training_with_hook(
        &ds.train,
        &ds.test,
        sched,
        pool,
        &cfg,
        None,
        "CPU-Only",
        checkpoint::epoch_hook(ckpt_dir.clone(), cfg.seed),
    );
    println!(
        "trained {} epochs, test RMSE {:.4}; checkpoints in {}",
        cfg.iterations,
        out.report.final_test_rmse,
        ckpt_dir.display()
    );

    // 2. Load the last checkpoint — a different process would start here.
    let last = ckpt_dir.join(checkpoint::epoch_file_name(cfg.iterations as u64));
    let ckpt = checkpoint::load(&last).expect("load checkpoint");
    assert_eq!(
        ckpt.model, out.model,
        "checkpoint round-trip must be bit-identical"
    );
    println!(
        "loaded {} (epoch {}, seed {}) — bit-identical to the trained model",
        last.display(),
        ckpt.meta.epoch,
        ckpt.meta.seed
    );

    // 3. Fold in a brand-new user from a handful of ratings: they loved
    //    the items user 0 rated highest and hated user 0's lowest.
    let liked: Vec<(u32, f32)> = out
        .model
        .recommend(0, &[], 3)
        .iter()
        .map(|&(v, _)| (v, 5.0))
        .collect();
    let model_for_foldin = ckpt.model.clone();
    let fold = FoldIn::new(&model_for_foldin);
    let new_user_factor = fold.new_user(&liked);
    println!(
        "\nfolded in a new user from {} ratings (no retrain, {} SGD passes over one row)",
        liked.len(),
        fold.config().passes
    );

    // 4. Serve a mixed batch: stored users and the folded-in newcomer.
    let store = FactorStore::from_checkpoint(ckpt).with_cache(1024);
    let mut queries: Vec<Query> = (0..3).map(|u| Query::top_k(u, 5)).collect();
    queries.push(Query {
        user: QueryUser::Factor(new_user_factor),
        count: 5,
        exclude: liked.iter().map(|&(v, _)| v).collect(),
    });
    let answers = store.sweep_batch(&queries);
    println!(
        "serving epoch {}: {} item tiles, {} queries answered\n",
        store.epoch(),
        store.ntiles(),
        answers.len()
    );
    for (i, top) in answers.iter().enumerate() {
        let who = if i < 3 {
            format!("user{i}")
        } else {
            "new user (fold-in)".to_string()
        };
        let items: Vec<String> = top
            .items
            .iter()
            .map(|(v, s)| format!("item{v} ({s:.2})"))
            .collect();
        println!("  {who}: {}", items.join(", "));
    }

    // Re-serving the same batch hits the LRU cache for the stored users.
    let again = store.sweep_batch(&queries);
    assert_eq!(answers, again, "cached answers must be identical");
    let stats = store.cache_stats();
    println!(
        "\nre-served the batch: {} cache hits / {} misses (fold-in queries always scan)",
        stats.hits, stats.misses
    );

    let _ = std::fs::remove_dir_all(ckpt_dir);
}
