//! The result cache is invisible in the answers and exact in its
//! books: recurring users through a small LRU, batch after batch, on
//! 1-, 2- and 4-thread pools.
//!
//! Two stores over the same factors, same cache capacity:
//!
//! * the **batched** store takes each batch through `sweep_batch_in`;
//! * the **serial** store replays the same queries one `serve_one` at a
//!   time.
//!
//! Answers must be bit-equal to a cache-less store's, and after every
//! batch `cache_stats()` must agree between the two — which pins the
//! eviction order end to end, since one wrong victim turns a later hit
//! into a miss on one side only.
//!
//! A batch probes all of its groups and *then* publishes the ones it
//! scanned, where `serve_one` probes and publishes query by query; the
//! two only keep the same books when no publish lands before a probe.
//! So users are distinct within a batch (a duplicate would be a second
//! miss to the batch but a hit to the replay) and the serial store
//! replays each batch resident users first. Which users are resident
//! comes from a ten-line recency model that no store feeds — if the
//! real cache ever evicts a different key than the model, the books
//! split and the test fails.

use hsgd_star::fuzz::rng::SplitMix;
use hsgd_star::par::ThreadPool;
use hsgd_star::serve::{FactorStore, Query, QueryUser, TopK};
use hsgd_star::sgd::Model;

const USERS: u32 = 120;
const BATCHES: usize = 12;

/// User `u`'s query. The exclude list is a function of the user, but
/// `scrambled` presents it reversed with a duplicate — the same query
/// to the cache, which keys on the canonical list.
fn query(u: u32, scrambled: bool) -> Query {
    let mut exclude: Vec<u32> = (0..u % 4).map(|i| (u * 7 + i * 13) % 600).collect();
    if scrambled {
        exclude.reverse();
        exclude.extend(exclude.first().copied());
    }
    Query {
        user: QueryUser::Id(u),
        count: 5,
        exclude,
    }
}

fn bits(t: &TopK) -> Vec<(u32, u32)> {
    t.items.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

fn books(store: &FactorStore) -> (u64, u64) {
    let stats = store.cache_stats();
    (stats.hits, stats.misses)
}

#[test]
fn batched_cache_matches_serial_replay() {
    let model = Model::init(USERS, 600, 8, 3);
    let plain = FactorStore::new(model.clone(), 1);
    let mut rng = SplitMix::new(0xcac4e);
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        for capacity in 2..=8usize {
            let batched = FactorStore::new(model.clone(), 1).with_cache(capacity);
            let serial = FactorStore::new(model.clone(), 1).with_cache(capacity);
            // Front = most recently used; never longer than `capacity`.
            let mut recency: Vec<u32> = Vec::new();
            for batch_ix in 0..BATCHES {
                // Mostly a hot set barely larger than the cache, so
                // users recur across batches and evictions are
                // constant; every fourth batch is 80 users wide, so the
                // sweep spans five panels and splits over the pool.
                let (universe, len) = if batch_ix % 4 == 3 {
                    (USERS, 80)
                } else {
                    (
                        capacity as u32 + 3,
                        1 + rng.next_u64() as usize % (capacity + 2),
                    )
                };
                let mut users: Vec<u32> = Vec::new();
                while users.len() < len {
                    let u = rng.next_u64() as u32 % universe;
                    if !users.contains(&u) {
                        users.push(u);
                    }
                }
                let scrambled = batch_ix % 2 == 1;
                let queries: Vec<Query> = users.iter().map(|&u| query(u, scrambled)).collect();

                let got = batched.sweep_batch_in(&queries, &pool);
                for (q, answer) in queries.iter().zip(&got) {
                    assert_eq!(bits(answer), bits(&plain.serve_one(q)), "{q:?}");
                }

                let (hits, misses): (Vec<u32>, Vec<u32>) =
                    users.iter().partition(|u| recency.contains(u));
                for &u in hits.iter().chain(&misses) {
                    let q = query(u, scrambled);
                    assert_eq!(bits(&serial.serve_one(&q)), bits(&plain.serve_one(&q)));
                    recency.retain(|&r| r != u);
                    recency.insert(0, u);
                    recency.truncate(capacity);
                }
                assert_eq!(
                    books(&batched),
                    books(&serial),
                    "threads={threads} capacity={capacity} batch={batch_ix} users={users:?}"
                );
            }
            // The two paths build one key: an answer the sweep published
            // is a hit to `serve_one` (which canonicalizes the exclude
            // list itself), and the other way round.
            let resident = query(recency[0], true);
            let (b, s) = (books(&batched), books(&serial));
            batched.serve_one(&resident);
            serial.sweep_batch_in(&[resident], &pool);
            assert_eq!(books(&batched), (b.0 + 1, b.1), "serve_one missed");
            assert_eq!(books(&serial), (s.0 + 1, s.1), "the sweep missed");

            let (hits, misses) = books(&batched);
            assert!(
                hits > 0 && misses > capacity as u64,
                "traffic must both hit and evict: {hits} hits, {misses} misses"
            );
        }
    }
}
