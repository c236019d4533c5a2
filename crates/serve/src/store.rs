//! The read-optimized factor store and the batched top-k query path.
//!
//! Training wants factors mutable and block-partitioned; serving wants
//! them immutable and *scan-friendly*. [`FactorStore`] re-shards a
//! trained model's item factors into fixed-size **tiles** — contiguous
//! runs of [`TILE_ITEMS`] f32 item rows exactly as trained, each with
//! its item norms and the tile-maximum norm precomputed — and answers
//! top-k queries by scanning tiles in item order with a Cauchy–Schwarz
//! prune: a tile whose bound `|p|·max_norm` cannot strictly beat the
//! current k-th best score is skipped whole. The prune never changes the
//! answer (see the determinism argument in ARCHITECTURE.md → "Serving &
//! persistence"):
//! items are visited in ascending id, ties break toward lower ids, and a
//! skipped tile is skipped precisely because no item in it can win a
//! tie-break or a strict comparison.
//!
//! [`FactorStore::serve_one`] is the per-query scan and the serial
//! oracle. An optional LRU result cache (keyed on
//! `(user, epoch, count, canonicalized exclude list)`) only ever returns
//! values equal to what recomputation would produce.
//! [`FactorStore::sweep_batch`] (in [`crate::batch`]) answers batches:
//! it plans the batch, dedups identical queries, and streams each tile
//! through the core **once per batch** with the `mf-sgd` panel kernel —
//! the same bits as mapping `serve_one`, for any thread count, in one
//! catalog pass.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;

use mf_sgd::{kernel, Model};

/// Item rows per tile. 512 rows at k = 32 is a 64 KiB factor block —
/// the scan works through one L2-resident tile at a time while the
/// norms array (2 KiB) rides along in L1.
pub const TILE_ITEMS: usize = 512;

/// One contiguous shard of item factors.
pub(crate) struct Tile {
    /// First item id in the tile.
    pub(crate) base: u32,
    /// `len × k` row-major factor rows, exactly as trained.
    pub(crate) rows: Vec<f32>,
    /// Per-item Euclidean norms `|q_v|`.
    pub(crate) norms: Vec<f32>,
    /// `max(norms)` — the tile's prune bound.
    pub(crate) max_norm: f32,
}

/// Widens every Cauchy–Schwarz bound past the computed-arithmetic
/// rounding window (see the comment in [`FactorStore::serve_one`]'s
/// scan), so a prune can only ever skip provably-losing work. Shared by
/// the serial scan and the batched tile sweep ([`crate::batch`]), which
/// must prune under identical conditions to stay answer-identical.
pub(crate) const BOUND_SLACK: f32 = 1.0 + 1e-4;

/// Whether a Cauchy–Schwarz `bound` proves that nothing it covers can
/// displace the current k-th best `worst` under the oracle's *total*
/// order. IEEE `<=` would also skip a `+0.0` bound against a `−0.0`
/// worst (which `total_cmp` ranks strictly lower), and a NaN on either
/// side makes the bound meaningless — Cauchy–Schwarz says nothing about
/// NaN scores, so NaN disables pruning.
#[inline]
pub(crate) fn prunable(bound: f32, worst: f32) -> bool {
    !bound.is_nan() && !worst.is_nan() && bound.total_cmp(&worst) != Ordering::Greater
}

/// Who a query scores for.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryUser {
    /// A user the store has factors for (checkpointed `P` row).
    Id(u32),
    /// An explicit factor vector — the hand-off from
    /// [`crate::foldin::FoldIn::new_user`], which is exactly how a
    /// fold-in user gets served without a retrain or a store rebuild.
    Factor(Vec<f32>),
}

/// One top-k request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Whose factor to score with.
    pub user: QueryUser,
    /// How many items to return (`count = 0` is answered with an empty
    /// result).
    pub count: usize,
    /// Item ids to withhold (already-seen items). May be unsorted and
    /// contain duplicates or out-of-range ids.
    pub exclude: Vec<u32>,
}

impl Query {
    /// A plain top-`count` query for a known user.
    pub fn top_k(user: u32, count: usize) -> Query {
        Query {
            user: QueryUser::Id(user),
            count,
            exclude: Vec::new(),
        }
    }
}

/// A query answer: `(item, score)` pairs sorted by score descending,
/// exact ties by ascending item id — the same total order as
/// [`Model::recommend`], which doubles as this type's serial oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// The ranked items.
    pub items: Vec<(u32, f32)>,
}

/// Max-heap entry ordered so the heap's *top* is the current **loser**:
/// lowest score first, ties preferring to evict the *larger* item id
/// (the one that loses the ascending-id tie-break).
pub(crate) struct Worst {
    pub(crate) item: u32,
    pub(crate) score: f32,
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// Counters the example and benches print; cheap enough to keep always.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Queries answered from the LRU cache.
    pub hits: u64,
    /// Queries that went to the scan.
    pub misses: u64,
}

/// A cache key: `(user, epoch, count, sorted-deduped exclude list)`.
/// The exclude list is stored canonicalized and whole — not hashed — so
/// two queries share an entry exactly when they are semantically the
/// same query; a digest here would let a collision serve one query
/// another's withheld items.
pub(crate) type CacheKey = (u32, u64, usize, Vec<u32>);

/// One resident answer, threaded on the recency ring by slab index:
/// `prev` leads towards more recently used entries, `next` away.
struct Node {
    key: CacheKey,
    value: TopK,
    prev: u32,
    next: u32,
}

/// The LRU result cache: a key → slot `HashMap` over a slab of nodes
/// threaded on an index-linked recency ring — `get`, `insert` and
/// eviction are O(1), std-only and `unsafe`-free.
///
/// **Eviction-order contract.** A hit or an insert (fresh *or* of a
/// resident key) makes that entry the most recently used; inserting a
/// non-resident key into a full cache evicts exactly the least recently
/// used entry, and re-inserting a resident key never evicts. This is the
/// order of the min-stamp map it replaced (the test oracle below):
/// stamps were unique and handed out in touch order, so "minimum stamp"
/// and "ring tail" name the same entry after any operation sequence.
/// That map found its victim by scanning every entry — a measured
/// 32–38 µs per miss at capacity 4 096, several times the tile sweep
/// the miss had just paid for, serialized under the cache mutex; here
/// a miss costs ≈ 0.5 µs at any capacity.
pub(crate) struct Lru {
    cap: usize,
    index: HashMap<CacheKey, u32>,
    /// Slot 0 is the ring's sentinel: its `next` is the most recently
    /// used entry, its `prev` the next victim. Entries fill slots
    /// `1..=cap`, then eviction recycles the victim's slot — nothing
    /// leaves any other way, so there is no free list.
    nodes: Vec<Node>,
}

impl Lru {
    fn new(cap: usize) -> Lru {
        let sentinel = Node {
            key: (0, 0, 0, Vec::new()),
            value: TopK { items: Vec::new() },
            prev: 0,
            next: 0,
        };
        Lru {
            cap,
            index: HashMap::new(),
            nodes: vec![sentinel],
        }
    }

    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<TopK> {
        let slot = *self.index.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.nodes[slot as usize].value.clone())
    }

    pub(crate) fn insert(&mut self, key: CacheKey, value: TopK) {
        let slot = if let Some(&slot) = self.index.get(&key) {
            self.nodes[slot as usize].value = value;
            self.unlink(slot);
            slot
        } else {
            let node = Node {
                key: key.clone(),
                value,
                prev: 0,
                next: 0,
            };
            let slot = if self.nodes.len() <= self.cap {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let victim = self.nodes[0].prev;
                self.unlink(victim);
                let evicted = std::mem::replace(&mut self.nodes[victim as usize], node);
                self.index.remove(&evicted.key);
                victim
            };
            self.index.insert(key, slot);
            slot
        };
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Links `slot` in as the most recently used entry.
    fn push_front(&mut self, slot: u32) {
        let first = self.nodes[0].next;
        self.nodes[slot as usize].prev = 0;
        self.nodes[slot as usize].next = first;
        self.nodes[first as usize].prev = slot;
        self.nodes[0].next = slot;
    }
}

/// The serving store: tiled item factors, user factors, and an optional
/// result cache. Build one per loaded checkpoint.
pub struct FactorStore {
    k: usize,
    m: u32,
    n: u32,
    epoch: u64,
    /// User factors, row-major (`m × k`).
    p: Vec<f32>,
    pub(crate) tiles: Vec<Tile>,
    pub(crate) cache: Option<Mutex<Lru>>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl FactorStore {
    /// Builds a store from a trained model, consuming it (the factor
    /// buffers are re-sharded, not copied twice). `epoch` is the
    /// checkpoint epoch the factors came from; it keys the result cache
    /// so two stores of one training run never alias entries.
    pub fn new(model: Model, epoch: u64) -> FactorStore {
        let (m, n, k, p, q) = model.into_parts();
        FactorStore::build(m, n, k, p, &q, epoch)
    }

    /// [`FactorStore::new`] from a borrowed model: copies `P` and tiles
    /// `Q` straight from the model, with no model clone in between —
    /// how the live loop publishes while it keeps training.
    pub(crate) fn from_model(model: &Model, epoch: u64) -> FactorStore {
        FactorStore::build(
            model.nrows(),
            model.ncols(),
            model.k(),
            model.p_raw().to_vec(),
            model.q_raw(),
            epoch,
        )
    }

    /// The one tile builder: shards `q` (`n × k` row-major) into tiles.
    fn build(m: u32, n: u32, k: usize, p: Vec<f32>, q: &[f32], epoch: u64) -> FactorStore {
        let mut tiles = Vec::with_capacity((n as usize).div_ceil(TILE_ITEMS));
        for tile_ix in 0..(n as usize).div_ceil(TILE_ITEMS) {
            let base = tile_ix * TILE_ITEMS;
            let len = TILE_ITEMS.min(n as usize - base);
            let rows = q[base * k..(base + len) * k].to_vec();
            let norms: Vec<f32> = (0..len)
                .map(|i| {
                    rows[i * k..(i + 1) * k]
                        .iter()
                        .map(|x| x * x)
                        .sum::<f32>()
                        .sqrt()
                })
                .collect();
            // A NaN factor row has a NaN norm; `f32::max` would *drop*
            // it (returning the other operand), producing a finite tile
            // bound that lets the prune skip an item the oracle ranks
            // first (total_cmp puts NaN above +∞). Force such tiles
            // unprunable instead.
            let max_norm =
                norms.iter().fold(
                    0.0f32,
                    |a, &b| {
                        if b.is_nan() {
                            f32::INFINITY
                        } else {
                            a.max(b)
                        }
                    },
                );
            tiles.push(Tile {
                base: base as u32,
                rows,
                norms,
                max_norm,
            });
        }
        FactorStore {
            k,
            m,
            n,
            epoch,
            p,
            tiles,
            cache: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Builds a store straight from a loaded checkpoint (the epoch comes
    /// from the header).
    pub fn from_checkpoint(ckpt: crate::checkpoint::Checkpoint) -> FactorStore {
        let epoch = ckpt.meta.epoch;
        FactorStore::new(ckpt.model, epoch)
    }

    /// Enables the LRU result cache with room for `capacity` answers.
    pub fn with_cache(mut self, capacity: usize) -> FactorStore {
        assert!(capacity > 0, "cache capacity must be positive");
        self.cache = Some(Mutex::new(Lru::new(capacity)));
        self
    }

    /// Latent dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users with stored factors.
    pub fn nusers(&self) -> u32 {
        self.m
    }

    /// Number of items in the catalog.
    pub fn nitems(&self) -> u32 {
        self.n
    }

    /// Checkpoint epoch the store serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of item tiles.
    pub fn ntiles(&self) -> usize {
        self.tiles.len()
    }

    /// A copy of item `v`'s stored factor row — the trained row
    /// exactly, the values scoring dots against.
    pub fn item_row_f32(&self, v: u32) -> Vec<f32> {
        assert!(v < self.n, "item {v} out of range");
        let i = v as usize % TILE_ITEMS;
        self.tiles[v as usize / TILE_ITEMS].rows[i * self.k..(i + 1) * self.k].to_vec()
    }

    /// Cache hit/miss counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
        }
    }

    /// The stored factor row of user `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user_factor(&self, u: u32) -> &[f32] {
        assert!(u < self.m, "user {u} out of range");
        &self.p[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// Answers one query. Identical to
    /// `Model::recommend(user, &exclude, count)` on the model the store
    /// was built from — the tiled scan plus pruning is an execution
    /// strategy, not a semantics change.
    pub fn serve_one(&self, query: &Query) -> TopK {
        let key = self.cache_key(query);
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(hit) = cache.lock().expect("cache lock").get(key) {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                return hit;
            }
            self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        }
        let result = self.scan(query);
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache
                .lock()
                .expect("cache lock")
                .insert(key, result.clone());
        }
        result
    }

    /// The cache key of a query, if it is cacheable (known user id).
    /// Folded-in factors are anonymous — there is no stable identity to
    /// key on, so they always scan. The exclude list is canonicalized
    /// (sorted, deduped), so order/duplicate variants of the same query
    /// share one entry.
    pub(crate) fn cache_key(&self, query: &Query) -> Option<CacheKey> {
        self.cache.as_ref()?;
        match query.user {
            QueryUser::Id(u) => {
                let mut excl = query.exclude.clone();
                excl.sort_unstable();
                excl.dedup();
                Some((u, self.epoch, query.count, excl))
            }
            QueryUser::Factor(_) => None,
        }
    }

    /// [`FactorStore::cache_key`] for a query whose exclude list is
    /// already sorted and deduped (a batch plan's groups): the same key
    /// without the re-sort. It stands beside `cache_key` instead of
    /// under it on a measurement: delegating changed `serve_one`'s
    /// codegen enough to move the benchmark's `live_loop` by 17 %.
    pub(crate) fn canonical_cache_key(&self, query: &Query) -> Option<CacheKey> {
        self.cache.as_ref()?;
        match query.user {
            QueryUser::Id(u) => Some((u, self.epoch, query.count, query.exclude.clone())),
            QueryUser::Factor(_) => None,
        }
    }

    /// The pruned tile scan.
    fn scan(&self, query: &Query) -> TopK {
        if query.count == 0 {
            return TopK { items: Vec::new() };
        }
        let p: &[f32] = match &query.user {
            QueryUser::Id(u) => self.user_factor(*u),
            QueryUser::Factor(f) => {
                assert_eq!(f.len(), self.k, "query factor has wrong dimension");
                f
            }
        };
        let p_norm = p.iter().map(|x| x * x).sum::<f32>().sqrt();
        let mut excluded = query.exclude.clone();
        excluded.sort_unstable();
        excluded.dedup();

        // Cauchy–Schwarz gives score ≤ |p|·|q| in exact arithmetic; the
        // *computed* dot can exceed the *computed* norm product by a few
        // ulps of accumulated rounding. BOUND_SLACK widens every bound
        // past that window so the prune can only ever skip
        // provably-losing work — keeping the scan's answer equal to the
        // unpruned oracle's bit for bit.
        let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(query.count + 1);
        for tile in &self.tiles {
            // Tile prune: no score inside can exceed |p|·max|q|. Once the
            // heap is full, a candidate must beat the current worst
            // *strictly* (items arrive in ascending id order, so an equal
            // score always loses the tie-break) — `bound ≤ worst` proves
            // the whole tile irrelevant. See `prunable` for why the
            // comparison runs under the oracle's total order.
            if heap.len() == query.count {
                let worst = heap.peek().expect("full heap").score;
                if prunable(p_norm * tile.max_norm * BOUND_SLACK, worst) {
                    continue;
                }
            }
            let full_exclusion_possible = !excluded.is_empty();
            for i in 0..tile.norms.len() {
                let item = tile.base + i as u32;
                if full_exclusion_possible && excluded.binary_search(&item).is_ok() {
                    continue;
                }
                // Per-item prune on the precomputed norm, same argument
                // as the tile bound.
                if heap.len() == query.count {
                    let worst = heap.peek().expect("full heap").score;
                    if prunable(p_norm * tile.norms[i] * BOUND_SLACK, worst) {
                        continue;
                    }
                }
                let score = kernel::dot(p, &tile.rows[i * self.k..(i + 1) * self.k]);
                if heap.len() < query.count {
                    heap.push(Worst { item, score });
                } else if score.total_cmp(&heap.peek().expect("full heap").score)
                    == Ordering::Greater
                {
                    // total_cmp, not `>`: the oracle's order ranks NaN
                    // above everything and +0.0 above −0.0, and IEEE
                    // `>` disagrees on exactly those pairs.
                    heap.pop();
                    heap.push(Worst { item, score });
                }
            }
        }
        let mut items: Vec<(u32, f32)> = heap.into_iter().map(|w| (w.item, w.score)).collect();
        items.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        TopK { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_par::ThreadPool;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_from(model: Model) -> FactorStore {
        FactorStore::new(model, 3)
    }

    fn oracle(model: &Model, q: &Query) -> TopK {
        let u = match q.user {
            QueryUser::Id(u) => u,
            QueryUser::Factor(_) => panic!("oracle needs a known user"),
        };
        TopK {
            items: model.recommend(u, &q.exclude, q.count),
        }
    }

    #[test]
    fn matches_model_recommend() {
        let model = Model::init(8, 700, 16, 42);
        let store = store_from(model.clone());
        for user in [0u32, 3, 7] {
            for count in [1usize, 5, 50, 699, 700, 2000] {
                let q = Query::top_k(user, count);
                assert_eq!(
                    store.serve_one(&q),
                    oracle(&model, &q),
                    "user={user} count={count}"
                );
            }
        }
    }

    #[test]
    fn exclusion_matches_oracle() {
        let model = Model::init(4, 600, 8, 7);
        let store = store_from(model.clone());
        let exclude: Vec<u32> = (0..600).filter(|v| v % 3 == 0).collect();
        let q = Query {
            user: QueryUser::Id(2),
            count: 20,
            exclude,
        };
        assert_eq!(store.serve_one(&q), oracle(&model, &q));
        // Everything excluded → empty.
        let q = Query {
            user: QueryUser::Id(2),
            count: 20,
            exclude: (0..600).collect(),
        };
        assert!(store.serve_one(&q).items.is_empty());
    }

    #[test]
    fn folded_factor_queries_score_like_a_stored_row() {
        let model = Model::init(5, 300, 8, 9);
        let store = store_from(model.clone());
        // A Factor query carrying user 4's own row must answer exactly
        // like the Id query.
        let f = model.p_row(4).to_vec();
        let by_id = store.serve_one(&Query::top_k(4, 10));
        let by_factor = store.serve_one(&Query {
            user: QueryUser::Factor(f),
            count: 10,
            exclude: Vec::new(),
        });
        assert_eq!(by_id, by_factor);
    }

    #[test]
    fn batch_matches_serial() {
        let model = Model::init(16, 900, 16, 11);
        let store = store_from(model.clone());
        let queries: Vec<Query> = (0..16).map(|u| Query::top_k(u, 7)).collect();
        let serial: Vec<TopK> = queries.iter().map(|q| store.serve_one(q)).collect();
        for threads in [1usize, 2, 5] {
            let pool = ThreadPool::new(threads);
            assert_eq!(store.sweep_batch_in(&queries, &pool), serial);
        }
    }

    #[test]
    fn cache_hits_return_identical_results() {
        let model = Model::init(6, 400, 8, 13);
        let store = store_from(model.clone()).with_cache(8);
        let q = Query::top_k(3, 5);
        let cold = store.serve_one(&q);
        let warm = store.serve_one(&q);
        assert_eq!(cold, warm);
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Different exclude list → different key, not a stale hit.
        let q2 = Query {
            exclude: vec![cold.items[0].0],
            ..q.clone()
        };
        let shifted = store.serve_one(&q2);
        assert_ne!(cold, shifted);
        assert_eq!(shifted.items[0], cold.items[1]);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let model = Model::init(10, 100, 8, 17);
        let store = store_from(model).with_cache(2);
        let (a, b, c) = (Query::top_k(0, 3), Query::top_k(1, 3), Query::top_k(2, 3));
        store.serve_one(&a); // miss, cached
        store.serve_one(&b); // miss, cached
        store.serve_one(&a); // hit — refreshes a
        store.serve_one(&c); // miss — evicts b (stalest)
        store.serve_one(&a); // hit
        store.serve_one(&b); // miss again: b was evicted
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 4));
    }

    /// The min-stamp map [`Lru`] replaced, kept as its behavioural
    /// spec: a logical clock stamps every touch, and a full cache
    /// evicts the entry with the smallest stamp (found by a full scan —
    /// the cost that got it replaced).
    struct StampLru {
        cap: usize,
        tick: u64,
        map: HashMap<CacheKey, (u64, TopK)>,
    }

    impl StampLru {
        fn get(&mut self, key: &CacheKey) -> Option<TopK> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(key).map(|slot| {
                slot.0 = tick;
                slot.1.clone()
            })
        }

        fn insert(&mut self, key: CacheKey, value: TopK) {
            self.tick += 1;
            if self.map.len() >= self.cap && !self.map.contains_key(&key) {
                if let Some(stalest) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&stalest);
                }
            }
            self.map.insert(key, (self.tick, value));
        }
    }

    #[test]
    fn lru_matches_the_min_stamp_oracle() {
        fn sorted<'a>(keys: impl Iterator<Item = &'a CacheKey>) -> Vec<CacheKey> {
            let mut keys: Vec<CacheKey> = keys.cloned().collect();
            keys.sort();
            keys
        }
        // Re-inserts of a resident key into a full cache: the case the
        // resident-set comparison below must have seen not evict.
        let mut reinserts_at_capacity = 0;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut next = move || rng.random::<u64>();
        for cap in [1usize, 2, 8, 64] {
            for universe in [cap, 2 * cap, 4 * cap] {
                let mut lru = Lru::new(cap);
                let mut oracle = StampLru {
                    cap,
                    tick: 0,
                    map: HashMap::new(),
                };
                for step in 0..40 * universe as u64 {
                    let user = (next() % universe as u64) as u32;
                    // Keys differ in the exclude list too, so eviction
                    // has to drop the *whole* key from the index.
                    let key: CacheKey = (user, 7, 10, vec![user; (user % 3) as usize]);
                    if next() % 2 == 0 {
                        assert_eq!(lru.get(&key), oracle.get(&key), "get {key:?}");
                    } else {
                        // A fresh value per insert: re-inserting a
                        // resident key must replace what `get` returns.
                        let value = TopK {
                            items: vec![(user, step as f32)],
                        };
                        if oracle.map.len() == cap && oracle.map.contains_key(&key) {
                            reinserts_at_capacity += 1;
                        }
                        lru.insert(key.clone(), value.clone());
                        oracle.insert(key, value);
                    }
                    assert_eq!(
                        sorted(lru.index.keys()),
                        sorted(oracle.map.keys()),
                        "cap={cap} universe={universe} step={step}"
                    );
                    assert!(lru.nodes.len() <= cap + 1, "slab outgrew the capacity");
                }
            }
        }
        assert!(reinserts_at_capacity > 100, "{reinserts_at_capacity}");
    }

    #[test]
    fn count_zero_is_empty() {
        let model = Model::init(2, 50, 8, 19);
        let store = store_from(model);
        assert!(store.serve_one(&Query::top_k(0, 0)).items.is_empty());
    }

    #[test]
    fn tie_break_is_ascending_item_id() {
        // Two tiles worth of items, constant factors → all scores tie.
        let n = (TILE_ITEMS + 10) as u32;
        let model = Model::constant(1, n, 2, 0.5);
        let store = store_from(model);
        let top = store.serve_one(&Query::top_k(0, 4));
        let ids: Vec<u32> = top.items.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_and_signed_zero_scores_match_oracle() {
        // Checkpoints round-trip NaN payloads, so the store must rank
        // them exactly like Model::recommend's total_cmp order (NaN
        // first) — including across prunable tiles. Signed zeros get the
        // same treatment (+0.0 ranks above −0.0).
        let n = (2 * TILE_ITEMS + 50) as u32;
        let mut model = Model::init(2, n, 4, 29);
        for x in model.q_row_mut(700) {
            *x = f32::NAN;
        }
        for x in model.q_row_mut(10) {
            *x = 0.0;
        }
        let store = store_from(model.clone());
        for count in [1usize, 5, 40] {
            let q = Query::top_k(1, count);
            let got = store.serve_one(&q);
            let expect = oracle(&model, &q);
            // NaN != NaN under PartialEq, so compare ids and score bits.
            let untie = |t: &TopK| {
                t.items
                    .iter()
                    .map(|&(v, s)| (v, s.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(untie(&got), untie(&expect), "count={count}");
            assert_eq!(got.items[0].0, 700, "NaN item must rank first");
        }
    }

    #[test]
    fn multi_tile_store_matches_oracle() {
        // > 2 tiles with skewed norms so pruning actually skips tiles.
        let n = (3 * TILE_ITEMS + 77) as u32;
        let mut model = Model::init(3, n, 8, 23);
        // Inflate a band of late items so the top-k lives in the last
        // tile and earlier tiles become prunable.
        for v in (n - 40)..n {
            for x in model.q_row_mut(v) {
                *x *= 10.0;
            }
        }
        let store = store_from(model.clone());
        let q = Query::top_k(1, 25);
        assert_eq!(store.serve_one(&q), oracle(&model, &q));
    }
}
