//! Property tests for the batched tile-sweep serving path.
//!
//! The contract under test: [`FactorStore::sweep_batch`] is
//! **bit-identical** to the serial oracle `Model::recommend` — same item
//! ids, same score *bits* — for arbitrary stores (any `k`, mono or not;
//! any tile count), arbitrary batches (duplicates, arbitrary exclude
//! lists, mixed counts, fold-in factor queries), and any thread count.
//! Scores are compared via `to_bits`, so NaN payloads and signed zeros
//! must survive exactly too.

use mf_fuzz::{check, Gen};
use mf_par::ThreadPool;
use mf_serve::{BatchPlan, FactorStore, Query, QueryUser, TopK};
use mf_sgd::sweep::PANEL_W;
use mf_sgd::Model;

/// `(item, score-bits)` view: bitwise equality, NaN-proof.
fn bits(t: &TopK) -> Vec<(u32, u32)> {
    t.items.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

fn oracle(model: &Model, q: &Query) -> Vec<(u32, u32)> {
    let items = match &q.user {
        QueryUser::Id(u) => model.recommend(*u, &q.exclude, q.count),
        QueryUser::Factor(_) => unreachable!("oracle needs a known user"),
    };
    bits(&TopK { items })
}

/// The headline property: random store, random batch with forced
/// duplicates, arbitrary excludes — batched answers equal the serial
/// oracle bit for bit, on 1/2/5-thread pools alike.
#[test]
fn sweep_batch_is_bit_identical_to_oracle() {
    let input = |g: &mut Gen| {
        let (m, n, k) = (g.int(1u32..12), g.int(1u32..1400), g.int(1usize..36));
        let seed = g.int(0u64..u64::MAX);
        let queries = g.vec(1..40, |g| Query {
            user: QueryUser::Id(g.int(0..m)),
            count: g.int(0usize..40),
            exclude: g.vec(0..30, |g| g.int(0..n + 3)),
        });
        ((m, n, k), seed, queries, g.int(1usize..5))
    };
    check(
        24,
        1,
        input,
        |((m, n, k), seed, mut queries, dup_stride)| {
            let model = Model::init(m, n, k, seed);
            let store = FactorStore::new(model.clone(), 1);
            // Force duplicate users into the batch (Zipf traffic's common
            // case): every dup_stride-th query repeats query 0 verbatim.
            let first = queries[0].clone();
            for i in (0..queries.len()).step_by(dup_stride) {
                queries[i] = first.clone();
            }
            let expect: Vec<Vec<(u32, u32)>> = queries.iter().map(|q| oracle(&model, q)).collect();
            for threads in [1usize, 2, 5] {
                let pool = ThreadPool::new(threads);
                let got: Vec<Vec<(u32, u32)>> = store
                    .sweep_batch_in(&queries, &pool)
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(&got, &expect, "threads={threads}");
            }
        },
    );
}

/// Mono-dimension stores big enough to span several tiles, with a band
/// of inflated norms so tile pruning actually fires, plus NaN and
/// signed-zero rows — the paths where batched pruning and the beat
/// filter could plausibly diverge from the oracle. The serial
/// `serve_one` scan prunes on the same bounds and is held to the same
/// oracle.
#[test]
fn sweep_batch_matches_oracle_across_tiles_and_nans() {
    let input = |g: &mut Gen| {
        (
            g.int(0u64..u64::MAX),
            g.int(1usize..30),
            g.int(0u32..1100),
            g.int(0u32..1100),
            g.int(2u32..20),
        )
    };
    check(24, 2, input, |(seed, count, nan_item, zero_item, boost)| {
        let n = 1100u32; // 3 tiles (512 + 512 + 76)
        let k = 16usize;
        let mut model = Model::init(6, n, k, seed);
        for v in (n - boost)..n {
            for x in model.q_row_mut(v) {
                *x *= 10.0;
            }
        }
        for x in model.q_row_mut(nan_item) {
            *x = f32::NAN;
        }
        for x in model.q_row_mut(zero_item) {
            *x = -0.0;
        }
        let store = FactorStore::new(model.clone(), 1);
        let queries: Vec<Query> = (0..12)
            .map(|i| Query {
                user: QueryUser::Id(i % 6),
                count,
                exclude: if i % 2 == 0 {
                    vec![nan_item]
                } else {
                    Vec::new()
                },
            })
            .collect();
        let expect: Vec<Vec<(u32, u32)>> = queries.iter().map(|q| oracle(&model, q)).collect();
        let serial: Vec<Vec<(u32, u32)>> =
            queries.iter().map(|q| bits(&store.serve_one(q))).collect();
        assert_eq!(&serial, &expect, "serve_one");
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads);
            let got: Vec<Vec<(u32, u32)>> = store
                .sweep_batch_in(&queries, &pool)
                .iter()
                .map(bits)
                .collect();
            assert_eq!(&got, &expect, "threads={threads}");
        }
    });
}

/// Fold-in style factor queries (including bit-duplicates, which the
/// plan dedups) answer exactly like the stored row they carry.
#[test]
fn factor_queries_sweep_like_id_queries() {
    let input = |g: &mut Gen| {
        (
            g.int(1u32..900),
            g.int(1usize..20),
            g.int(0u64..u64::MAX),
            g.int(0usize..25),
        )
    };
    check(24, 3, input, |(n, k, seed, count)| {
        let model = Model::init(4, n, k, seed);
        let store = FactorStore::new(model.clone(), 1);
        let queries: Vec<Query> = (0..8)
            .map(|i| {
                let u = i % 4;
                if i < 4 {
                    Query::top_k(u, count)
                } else {
                    Query {
                        user: QueryUser::Factor(model.p_row(u).to_vec()),
                        count,
                        exclude: Vec::new(),
                    }
                }
            })
            .collect();
        let got = store.sweep_batch_in(&queries, &ThreadPool::new(2));
        for i in 0..4 {
            assert_eq!(
                bits(&got[i + 4]),
                bits(&got[i]),
                "factor vs id for user {i}"
            );
            assert_eq!(bits(&got[i]), oracle(&model, &queries[i]));
        }
    });
}

/// The plan dedups semantically identical queries, and scattered
/// answers still line up one-to-one with the original batch.
#[test]
fn duplicate_heavy_batch_dedups_and_scatters_correctly() {
    let model = Model::init(3, 700, 8, 5);
    let store = FactorStore::new(model.clone(), 1);
    // 64 queries over 3 users with order/dup-variant excludes: few
    // unique groups.
    let queries: Vec<Query> = (0..64)
        .map(|i| Query {
            user: QueryUser::Id(i % 3),
            count: 10,
            exclude: if i % 2 == 0 {
                vec![5, 2, 5]
            } else {
                vec![2, 5]
            },
        })
        .collect();
    let plan = BatchPlan::build(&queries);
    assert_eq!(plan.len(), 64);
    assert_eq!(
        plan.unique(),
        3,
        "excludes canonicalize to one list per user"
    );
    let got = store.sweep_batch(&queries);
    assert_eq!(got.len(), 64);
    for (q, topk) in queries.iter().zip(&got) {
        assert_eq!(bits(topk), oracle(&model, q));
    }
}

/// Regression: the panel → task split must never start a task past the
/// last panel. `ceil(panels / threads)` panels per task can need fewer
/// tasks than threads — 5 panels on 4 threads is runs of 2, 2, 1, and a
/// fourth task used to slice `panels[6..5]` and abort the sweep. Every
/// `(panels, threads)` shape in `0..=40 × 1..=8`, with the last panel
/// both partial and full, must return and match the serial scan.
#[test]
fn panel_split_covers_every_panel_and_thread_count() {
    const MAX_PANELS: usize = 40;
    let users = (MAX_PANELS * PANEL_W) as u32;
    let store = FactorStore::new(Model::init(users, 100, 8, 3), 1);
    let queries: Vec<Query> = (0..users).map(|u| Query::top_k(u, 5)).collect();
    let serial: Vec<TopK> = queries.iter().map(|q| store.serve_one(q)).collect();
    // The global pool rides along: under CI's `MF_PAR_THREADS` legs it
    // is the one pool whose width the test does not choose.
    let pools: Vec<ThreadPool> = (1..=8).map(ThreadPool::new).collect();
    for pool in pools.iter().chain([ThreadPool::global()]) {
        for panels in 0..=MAX_PANELS {
            for batch in [(panels * PANEL_W).saturating_sub(3), panels * PANEL_W] {
                let got = store.sweep_batch_in(&queries[..batch], pool);
                assert!(
                    got.iter().map(bits).eq(serial[..batch].iter().map(bits)),
                    "panels={panels} threads={} batch={batch}",
                    pool.threads()
                );
            }
        }
    }
}

/// Empty batches and count-0 queries pass through the sweep unharmed.
#[test]
fn empty_and_zero_count_edges() {
    let store = FactorStore::new(Model::init(2, 100, 8, 3), 1);
    assert!(store.sweep_batch(&[]).is_empty());
    let got = store.sweep_batch(&[Query::top_k(0, 0), Query::top_k(1, 4)]);
    assert!(got[0].items.is_empty());
    assert_eq!(got[1].items.len(), 4);
}

/// Satellite regression: LRU accounting under batching is per *query*,
/// not per batch or per unique group — a mixed hit/miss batch with
/// duplicates splits exactly into (cached members → hits) and (scanned
/// members → misses).
#[test]
fn cache_accounting_is_per_query_for_mixed_batches() {
    let model = Model::init(8, 300, 8, 21);
    let store = FactorStore::new(model, 1).with_cache(32);

    // Warm the cache with users 0 and 1.
    store.sweep_batch(&[Query::top_k(0, 5), Query::top_k(1, 5)]);
    let warm = store.cache_stats();
    assert_eq!((warm.hits, warm.misses), (0, 2));

    // Mixed batch: 3 copies of cached user 0, 2 of cached user 1, 4
    // copies of uncached user 2, 1 of uncached user 3, and one
    // uncacheable factor query (counted in neither bucket, exactly like
    // serve_one).
    let f = store.user_factor(2).to_vec();
    let batch = vec![
        Query::top_k(0, 5),
        Query::top_k(2, 5),
        Query::top_k(0, 5),
        Query::top_k(1, 5),
        Query::top_k(2, 5),
        Query::top_k(3, 5),
        Query::top_k(2, 5),
        Query::top_k(1, 5),
        Query::top_k(0, 5),
        Query::top_k(2, 5),
        Query {
            user: QueryUser::Factor(f),
            count: 5,
            exclude: Vec::new(),
        },
    ];
    let answers = store.sweep_batch(&batch);
    assert_eq!(answers.len(), batch.len());
    let stats = store.cache_stats();
    assert_eq!(
        (stats.hits - warm.hits, stats.misses - warm.misses),
        (5, 5),
        "3+2 cached members hit, 4+1 uncached members miss, factor query uncounted"
    );

    // The batch populated the cache: repeating it is all hits (except
    // the factor query, still uncounted).
    let again = store.sweep_batch(&batch);
    assert_eq!(answers, again, "cache returns identical answers");
    let stats2 = store.cache_stats();
    assert_eq!(
        (stats2.hits - stats.hits, stats2.misses - stats.misses),
        (10, 0)
    );
}
