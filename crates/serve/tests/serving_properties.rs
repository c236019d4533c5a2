//! Property and quality tests for the serving layer.
//!
//! * `sweep_batch` is **thread-count invariant** and equal to the serial
//!   oracle `Model::recommend` for arbitrary stores, queries, counts,
//!   and exclusion lists — the tiled scan + norm prune + pool fan-out is
//!   an execution strategy, not a semantics change.
//! * Fold-in quality: factors solved against a frozen `Q` score within a
//!   tight RMSE band of the factors full training produced (the
//!   acceptance bar for admitting users without a retrain).

use mf_fuzz::{check, Gen};
use mf_par::ThreadPool;
use mf_serve::{FactorStore, FoldIn, Query, QueryUser, TopK};
use mf_sgd::Model;

#[test]
fn sweep_batch_matches_serial_oracle_for_any_thread_count() {
    let input = |g: &mut Gen| {
        let (m, n, k) = (g.int(1u32..10), g.int(1u32..1200), g.int(1usize..20));
        let seed = g.int(0u64..u64::MAX);
        let queries = g.vec(1..20, |g| Query {
            user: QueryUser::Id(g.int(0..m)),
            count: g.int(0usize..40),
            // Exclusions may be unsorted, duplicated, out of range.
            exclude: g.vec(0..30, |g| g.int(0..n + 3)),
        });
        ((m, n, k), seed, queries)
    };
    check(24, 1, input, |((m, n, k), seed, queries)| {
        let model = Model::init(m, n, k, seed);
        let store = FactorStore::new(model.clone(), 1);
        // Serial oracle: the documented Model::recommend contract.
        let oracle: Vec<TopK> = queries
            .iter()
            .map(|q| {
                let QueryUser::Id(u) = q.user else {
                    unreachable!()
                };
                TopK {
                    items: model.recommend(u, &q.exclude, q.count),
                }
            })
            .collect();
        for threads in [1usize, 2, 3, 7] {
            let pool = ThreadPool::new(threads);
            let got = store.sweep_batch_in(&queries, &pool);
            assert_eq!(&got, &oracle, "threads={threads}");
        }
    });
}

#[test]
fn cached_store_answers_identically() {
    let input = |g: &mut Gen| (g.int(1u32..400), g.int(1usize..12), g.int(0u64..u64::MAX));
    check(24, 2, input, |(n, k, seed)| {
        let model = Model::init(6, n, k, seed);
        let plain = FactorStore::new(model.clone(), 9);
        // Capacity must hold the whole working set: 12 distinct keys
        // against a smaller LRU would thrash (each pass evicts what
        // the next lookup wants) and legitimately never hit.
        let cached = FactorStore::new(model, 9).with_cache(16);
        let queries: Vec<Query> = (0..12)
            .map(|i| Query::top_k(i % 6, 1 + (i as usize % 5)))
            .collect();
        let a = plain.sweep_batch_in(&queries, &ThreadPool::new(1));
        // Twice through the cached store: cold pass fills, warm pass
        // hits.
        let b1 = cached.sweep_batch_in(&queries, &ThreadPool::new(2));
        let b2 = cached.sweep_batch_in(&queries, &ThreadPool::new(2));
        assert_eq!(&a, &b1);
        assert_eq!(&a, &b2);
        assert!(cached.cache_stats().hits > 0, "warm pass should hit");
    });
}

/// Fold-in quality: train a model on a generated dataset, then pretend a
/// slice of users are new — re-derive their factors from their *train*
/// ratings with fixed-`Q` fold-in and compare test RMSE (over those
/// users' test ratings) against the fully trained factors. The band is
/// the ISSUE's acceptance bar: fold-in within 0.05 RMSE of full
/// retrain.
#[test]
fn fold_in_rmse_within_band_of_full_retrain() {
    use mf_data::generator::{generate, GeneratorConfig};

    let cfg = GeneratorConfig {
        num_users: 250,
        num_items: 180,
        num_train: 15_000,
        num_test: 1_500,
        ..GeneratorConfig::tiny("foldin", 31)
    };
    let ds = generate(&cfg);
    let tc = mf_sgd::sequential::TrainConfig {
        hyper: mf_sgd::HyperParams {
            k: 16,
            lambda_p: 0.02,
            lambda_q: 0.02,
            gamma: 0.03,
            schedule: mf_sgd::LearningRate::Fixed,
        },
        iterations: 30,
        seed: 7,
        reshuffle: true,
    };
    let model = mf_sgd::sequential::train(&ds.train, &tc);

    // "New" users: every 5th user that has both train and test ratings.
    let fold = FoldIn::new(&model);
    let mut fold_users = Vec::new();
    for u in (0..cfg.num_users).step_by(5) {
        let train_ratings: Vec<(u32, f32)> = ds
            .train
            .entries()
            .iter()
            .filter(|e| e.u == u)
            .map(|e| (e.v, e.r))
            .collect();
        let has_test = ds.test.entries().iter().any(|e| e.u == u);
        if train_ratings.len() >= 3 && has_test {
            fold_users.push((u, fold.new_user(&train_ratings)));
        }
    }
    assert!(
        fold_users.len() >= 20,
        "only {} fold users",
        fold_users.len()
    );

    // RMSE over the fold users' test ratings: trained row vs folded row.
    let mut sq_full = 0f64;
    let mut sq_fold = 0f64;
    let mut count = 0usize;
    for e in ds.test.entries() {
        if let Some((_, p_fold)) = fold_users.iter().find(|&&(u, _)| u == e.u) {
            let full = mf_sgd::kernel::dot(model.p_row(e.u), model.q_row(e.v));
            let folded = mf_sgd::kernel::dot(p_fold, model.q_row(e.v));
            sq_full += ((e.r - full) as f64).powi(2);
            sq_fold += ((e.r - folded) as f64).powi(2);
            count += 1;
        }
    }
    assert!(count >= 50, "only {count} test ratings over fold users");
    let rmse_full = (sq_full / count as f64).sqrt();
    let rmse_fold = (sq_fold / count as f64).sqrt();
    assert!(
        rmse_fold <= rmse_full + 0.05,
        "fold-in RMSE {rmse_fold:.4} vs full-retrain RMSE {rmse_full:.4} (band 0.05)"
    );
    // Sanity: fold-in actually fit something (far below the blind mean
    // predictor, whose RMSE is ≥ the rating spread ~1).
    assert!(
        rmse_fold < 0.9,
        "fold-in failed to fit: RMSE {rmse_fold:.4}"
    );
}

/// The end-to-end integration the example walks: train → checkpoint →
/// load → store → fold-in → serve, all deterministic.
#[test]
fn checkpoint_to_serving_pipeline() {
    use mf_serve::checkpoint::{self, CheckpointMeta};

    let model = Model::init(40, 900, 16, 77);
    let mut buf = Vec::new();
    checkpoint::write_checkpoint(
        &model,
        CheckpointMeta {
            seed: 77,
            epoch: 12,
        },
        &mut buf,
    )
    .unwrap();
    let ckpt = checkpoint::read_checkpoint(&buf[..]).unwrap();
    assert_eq!(ckpt.model, model);

    let store = FactorStore::from_checkpoint(ckpt).with_cache(16);
    assert_eq!(store.epoch(), 12);
    assert_eq!(store.ntiles(), 2); // 900 items / 512-item tiles

    let folded = FoldIn::new(&model).new_user(&[(0, 4.0), (3, 5.0), (800, 1.0)]);
    let queries = vec![
        Query::top_k(0, 5),
        Query {
            user: QueryUser::Factor(folded),
            count: 5,
            exclude: vec![0, 3, 800],
        },
    ];
    let a = store.sweep_batch(&queries);
    let b = store.sweep_batch(&queries);
    assert_eq!(a, b);
    assert_eq!(a[0].items.len(), 5);
    assert_eq!(a[1].items.len(), 5);
    // The fold-in query's exclusions are honored.
    for &(v, _) in &a[1].items {
        assert!(![0u32, 3, 800].contains(&v));
    }
}
