//! Zipf-skewed serving traffic: who queries, with what history, when.
//!
//! The serving benches need a query stream that looks like production
//! top-k traffic rather than a uniform sweep over users. Three
//! properties matter, and each is deliberate here:
//!
//! * **Popularity skew.** Users are drawn from [`Zipf`], so a hot head
//!   of users recurs constantly — the regime where batched serving's
//!   deduplication and result caching actually earn their keep.
//! * **Stable per-user history.** A user's exclude list models their
//!   already-rated items, which are a function of the *user*, not of
//!   the request — so repeat queries from the same user are *identical*
//!   requests. Drawing fresh random excludes per request would make
//!   every query unique and silently disable dedup/caching, which is
//!   not how serving traffic behaves. Histories are derived from
//!   `(seed, user)` and item popularity is itself Zipf-skewed (people
//!   have seen the popular items).
//! * **Memoryless arrivals.** [`poisson_arrivals`] spaces requests with
//!   exponential gaps at a configured rate, the standard open-loop load
//!   model — bursts happen, so queue-delay percentiles mean something.
//!
//! Everything is deterministic in the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Shape of a synthetic query stream.
#[derive(Debug, Clone)]
pub struct QueryMixConfig {
    /// User universe (`0..users`).
    pub users: u32,
    /// Item universe (`0..items`) the exclude lists draw from.
    pub items: u32,
    /// Zipf exponent over users (0 = uniform; ~1 = production-like
    /// head-heavy).
    pub user_s: f64,
    /// Top-k size every query asks for.
    pub count: usize,
    /// Largest per-user history (exclude list) length; actual lengths
    /// vary per user in `0..=max_history`.
    pub max_history: usize,
    /// Master seed; streams and histories are functions of it.
    pub seed: u64,
}

impl QueryMixConfig {
    /// A production-flavored default over a given universe: exponent
    /// 1.05, top-10, histories up to 32 items.
    pub fn serving(users: u32, items: u32, seed: u64) -> QueryMixConfig {
        QueryMixConfig {
            users,
            items,
            user_s: 1.05,
            count: 10,
            max_history: 32,
            seed,
        }
    }
}

/// One request: serve `count` best items for `user`, withholding
/// `exclude` (the user's rating history). Serving-crate-agnostic — the
/// bench maps these onto `mf-serve` queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Requesting user.
    pub user: u32,
    /// Top-k size.
    pub count: usize,
    /// The user's seen items (unsorted, may repeat — consumers
    /// canonicalize).
    pub exclude: Vec<u32>,
}

/// The rating history of `user` under `cfg`: a deterministic function
/// of `(cfg.seed, user)` — *not* of the request — so the same user
/// always presents the same exclude list and repeat queries dedup.
/// Items are Zipf-skewed (s = 1.0) toward the popular head.
pub fn user_history(cfg: &QueryMixConfig, user: u32) -> Vec<u32> {
    history_from(cfg, user, item_table(cfg).as_ref())
}

/// The item-popularity table histories draw from, or `None` when every
/// history is empty. Building it is O(items), which is why
/// [`query_mix`] builds it once per stream rather than once per query.
fn item_table(cfg: &QueryMixConfig) -> Option<Zipf> {
    (cfg.max_history > 0 && cfg.items > 0).then(|| Zipf::new(cfg.items as usize, 1.0))
}

/// [`user_history`] over a prebuilt [`item_table`].
fn history_from(cfg: &QueryMixConfig, user: u32, items: Option<&Zipf>) -> Vec<u32> {
    let Some(items) = items else {
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15 ^ (user as u64) << 17);
    // Modulo bias over a tiny range is immaterial for a synthetic mix.
    let len = rng.random::<u64>() as usize % (cfg.max_history + 1);
    (0..len).map(|_| items.sample(&mut rng)).collect()
}

/// Draws `n` queries: users Zipf-sampled per `cfg`, each carrying their
/// stable history. Deterministic in `cfg.seed`.
pub fn query_mix(cfg: &QueryMixConfig, n: usize) -> Vec<QuerySpec> {
    assert!(cfg.users > 0, "need at least one user");
    let users = Zipf::new(cfg.users as usize, cfg.user_s);
    let items = item_table(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..n)
        .map(|_| {
            let user = users.sample(&mut rng);
            QuerySpec {
                user,
                count: cfg.count,
                exclude: history_from(cfg, user, items.as_ref()),
            }
        })
        .collect()
}

/// `n` Poisson arrival times (seconds, ascending, starting after 0) at
/// `rate` requests/second: i.i.d. exponential gaps, the open-loop load
/// model. Deterministic in `seed`.
///
/// # Panics
///
/// Panics unless `rate` is positive and finite.
pub fn poisson_arrivals(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "invalid arrival rate {rate}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential; 1−u ∈ (0, 1] keeps ln finite.
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QueryMixConfig {
        QueryMixConfig::serving(1000, 5000, 42)
    }

    #[test]
    fn mix_is_deterministic_and_in_range() {
        let a = query_mix(&cfg(), 500);
        let b = query_mix(&cfg(), 500);
        assert_eq!(a, b);
        for q in &a {
            assert!(q.user < 1000);
            assert_eq!(q.count, 10);
            assert!(q.exclude.len() <= 32);
            assert!(q.exclude.iter().all(|&v| v < 5000));
        }
    }

    /// Pinned before `query_mix` started sharing one item table across
    /// its histories: the stream is part of the benches' inputs, so a
    /// refactor of the generator must not move a single byte of it.
    #[test]
    fn query_mix_stream_is_pinned() {
        let mut bytes = Vec::new();
        for q in query_mix(&cfg(), 500) {
            bytes.extend_from_slice(&q.user.to_le_bytes());
            bytes.extend_from_slice(&(q.count as u64).to_le_bytes());
            bytes.extend_from_slice(&(q.exclude.len() as u64).to_le_bytes());
            for v in q.exclude {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        assert_eq!(mf_sparse::hash::xxh64(&bytes), 0xf72d_02a4_af0f_3a7c);
    }

    #[test]
    fn repeat_users_carry_identical_histories() {
        let qs = query_mix(&cfg(), 2000);
        for q in &qs {
            assert_eq!(
                q.exclude,
                user_history(&cfg(), q.user),
                "history must be a function of the user"
            );
        }
        // Zipf head-heaviness: with s≈1 over 1000 users, 2000 draws
        // must revisit users — the dedup opportunity the serving bench
        // depends on.
        let mut users: Vec<u32> = qs.iter().map(|q| q.user).collect();
        users.sort_unstable();
        users.dedup();
        assert!(
            users.len() < qs.len() / 2,
            "only {} unique users in {} queries — no skew?",
            users.len(),
            qs.len()
        );
    }

    #[test]
    fn histories_favor_popular_items() {
        let c = QueryMixConfig {
            max_history: 64,
            ..cfg()
        };
        let mut head = 0usize;
        let mut total = 0usize;
        for u in 0..500 {
            for &v in &user_history(&c, u) {
                total += 1;
                if v < 500 {
                    head += 1; // top 10% of 5000 items
                }
            }
        }
        assert!(total > 1000, "histories too short to judge");
        assert!(
            head as f64 / total as f64 > 0.4,
            "popular head underrepresented: {head}/{total}"
        );
    }

    #[test]
    fn poisson_arrivals_are_ascending_at_roughly_the_rate() {
        let rate = 2000.0;
        let at = poisson_arrivals(rate, 4000, 7);
        assert_eq!(at.len(), 4000);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at[0] > 0.0);
        let span = at.last().unwrap();
        let measured = 4000.0 / span;
        assert!(
            (measured / rate - 1.0).abs() < 0.1,
            "measured rate {measured:.0} vs {rate:.0}"
        );
        // Determinism.
        assert_eq!(at, poisson_arrivals(rate, 4000, 7));
    }
}
