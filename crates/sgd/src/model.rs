//! The factor matrices `P` and `Q`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense result of matrix factorization: `P ∈ R^{m×k}` and
/// `Q ∈ R^{k×n}`, with `R ≈ P·Q` (paper Eq. 1).
///
/// `Q` is stored **transposed** (one contiguous `k`-vector per item), so a
/// single rating update reads and writes two contiguous cache-resident
/// vectors — the same layout LIBMF and cuMF_SGD use.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    m: u32,
    n: u32,
    k: usize,
    /// `m × k`, row-major: `p[u*k..][..k]` is the user-`u` factor `p_u`.
    p: Vec<f32>,
    /// `n × k`, row-major: `q[v*k..][..k]` is the item-`v` factor `q_v`.
    q: Vec<f32>,
}

impl Model {
    /// Random initialization: entries uniform in `[0, 1/√k)`, the standard
    /// scheme for ~unit-scale ratings. For wider rating scales (Yahoo's
    /// 0–100) use [`Model::init_for_ratings`], which centers the initial
    /// prediction on the observed mean — without it the first SGD steps
    /// see errors the size of the rating range and diverge. Deterministic
    /// in `seed`.
    pub fn init(m: u32, n: u32, k: usize, seed: u64) -> Model {
        Model::init_with_scale(m, n, k, seed, 1.0 / (k as f32).sqrt())
    }

    /// Random initialization with factor entries uniform in `[0, scale)`.
    pub fn init_with_scale(m: u32, n: u32, k: usize, seed: u64, scale: f32) -> Model {
        assert!(k > 0, "latent dimension must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "invalid init scale");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fill =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.random::<f32>() * scale).collect() };
        let p = fill(m as usize * k);
        let q = fill(n as usize * k);
        Model { m, n, k, p, q }
    }

    /// Initialization matched to a rating scale: entries uniform in
    /// `[0, 2·√(mean/k))`, so the expected initial prediction
    /// `E[p·q] = k·(√(mean/k))² = mean`. Falls back to [`Model::init`]
    /// when `mean_rating` is not positive (empty data).
    pub fn init_for_ratings(m: u32, n: u32, k: usize, seed: u64, mean_rating: f64) -> Model {
        if mean_rating <= 0.0 || !mean_rating.is_finite() {
            return Model::init(m, n, k, seed);
        }
        let scale = 2.0 * (mean_rating as f32 / k as f32).sqrt();
        Model::init_with_scale(m, n, k, seed, scale)
    }

    /// A model with every factor entry set to `value` (tests, ALS warm
    /// starts).
    pub fn constant(m: u32, n: u32, k: usize, value: f32) -> Model {
        Model {
            m,
            n,
            k,
            p: vec![value; m as usize * k],
            q: vec![value; n as usize * k],
        }
    }

    /// Builds a model from explicit factor buffers.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with `m`, `n`, `k`.
    pub fn from_parts(m: u32, n: u32, k: usize, p: Vec<f32>, q: Vec<f32>) -> Model {
        assert_eq!(p.len(), m as usize * k, "P buffer length");
        assert_eq!(q.len(), n as usize * k, "Q buffer length");
        Model { m, n, k, p, q }
    }

    /// Number of users (rows of `R`).
    #[inline]
    pub fn nrows(&self) -> u32 {
        self.m
    }

    /// Number of items (columns of `R`).
    #[inline]
    pub fn ncols(&self) -> u32 {
        self.n
    }

    /// Latent dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The user-`u` factor vector `p_u`.
    #[inline]
    pub fn p_row(&self, u: u32) -> &[f32] {
        &self.p[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// The item-`v` factor vector `q_v`.
    #[inline]
    pub fn q_row(&self, v: u32) -> &[f32] {
        &self.q[v as usize * self.k..(v as usize + 1) * self.k]
    }

    /// Mutable user factor.
    #[inline]
    pub fn p_row_mut(&mut self, u: u32) -> &mut [f32] {
        &mut self.p[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// Mutable item factor.
    #[inline]
    pub fn q_row_mut(&mut self, v: u32) -> &mut [f32] {
        &mut self.q[v as usize * self.k..(v as usize + 1) * self.k]
    }

    /// Both factor vectors of a rating, mutably — the borrow shape the SGD
    /// kernel needs. `p` and `q` are separate allocations, so this is safe
    /// without `split_at_mut` gymnastics.
    #[inline]
    pub fn pq_rows_mut(&mut self, u: u32, v: u32) -> (&mut [f32], &mut [f32]) {
        let k = self.k;
        (
            &mut self.p[u as usize * k..(u as usize + 1) * k],
            &mut self.q[v as usize * k..(v as usize + 1) * k],
        )
    }

    /// Predicted rating `p_u · q_v`.
    #[inline]
    pub fn predict(&self, u: u32, v: u32) -> f32 {
        crate::kernel::dot(self.p_row(u), self.q_row(v))
    }

    /// Raw `P` buffer (benchmarks, serialization).
    pub fn p_raw(&self) -> &[f32] {
        &self.p
    }

    /// Raw `Q` buffer.
    pub fn q_raw(&self) -> &[f32] {
        &self.q
    }

    /// Decomposes the model into `(m, n, k, p, q)`, handing the factor
    /// buffers to the caller without copying — the constructor
    /// [`Model::from_parts`] inverts it. Used by the serving layer to
    /// re-shard a loaded checkpoint's item factors in place.
    pub fn into_parts(self) -> (u32, u32, usize, Vec<f32>, Vec<f32>) {
        (self.m, self.n, self.k, self.p, self.q)
    }

    /// Raw pointers + geometry for the shared-memory trainers. See
    /// [`crate::shared::SharedModel`].
    pub(crate) fn raw_parts_mut(&mut self) -> (*mut f32, *mut f32, usize, u32, u32) {
        (
            self.p.as_mut_ptr(),
            self.q.as_mut_ptr(),
            self.k,
            self.m,
            self.n,
        )
    }

    /// Bytes needed to ship the factors of `rows` user rows over a bus:
    /// `rows · k · 4`. Used by the GPU transfer model.
    pub fn factor_bytes(&self, rows: u64) -> u64 {
        rows * self.k as u64 * 4
    }

    /// Top-`count` items for user `u` by predicted score, excluding
    /// `exclude` (already-rated items), as `(item, score)` pairs sorted
    /// descending. The recommendation primitive used by the examples and
    /// the serial oracle `mf-serve`'s batched top-k is verified against.
    ///
    /// **Ordering contract:** results are sorted by score descending,
    /// with exact ties broken by ascending item id — a total order, so
    /// the result is unique and deterministic. Scores are compared with
    /// `f32::total_cmp` (NaN orders above +∞ and thus sorts first; a
    /// trained model never produces one, but the call stays total).
    ///
    /// **Edge cases** (all non-panicking): `count = 0` and empty
    /// candidate sets (everything excluded, or `n = 0`) return an empty
    /// vector; `count` larger than the candidate set returns every
    /// candidate; `exclude` may be unsorted, contain duplicates, or name
    /// out-of-range items; a degenerate `k = 0` model scores every item
    /// `0.0` and the tie-break returns the first `count` item ids in
    /// ascending order.
    ///
    /// Runs in `O(n·k + |exclude|·log|exclude| + n·log|exclude| + n +
    /// count·log count)`: the exclusion test is a binary search over a
    /// sorted copy of `exclude` (not an `O(|exclude|)` linear probe per
    /// item), and only the top `count` survivors are selected
    /// (`select_nth_unstable`) and sorted — not the full item catalog.
    pub fn recommend(&self, u: u32, exclude: &[u32], count: usize) -> Vec<(u32, f32)> {
        if count == 0 {
            return Vec::new();
        }
        let mut excluded = exclude.to_vec();
        excluded.sort_unstable();
        let mut scored: Vec<(u32, f32)> = (0..self.n)
            .filter(|v| excluded.binary_search(v).is_err())
            .map(|v| (v, self.predict(u, v)))
            .collect();
        let desc = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        if count < scored.len() {
            // Partition so the `count` best items occupy the head, then
            // sort only that head.
            scored.select_nth_unstable_by(count, desc);
            scored.truncate(count);
        }
        scored.sort_by(desc);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_scaled() {
        let a = Model::init(10, 8, 16, 7);
        let b = Model::init(10, 8, 16, 7);
        assert_eq!(a, b);
        let c = Model::init(10, 8, 16, 8);
        assert_ne!(a, c);
        let bound = 1.0 / 4.0;
        assert!(a.p_raw().iter().all(|&x| (0.0..bound).contains(&x)));
        assert!(a.q_raw().iter().all(|&x| (0.0..bound).contains(&x)));
    }

    #[test]
    fn init_for_ratings_centers_predictions() {
        let mean = 50.0;
        let m = Model::init_for_ratings(200, 200, 16, 3, mean);
        // Average prediction over a grid of pairs should land near the
        // mean (law of large numbers over uniform factors).
        let mut acc = 0.0f64;
        let mut count = 0;
        for u in (0..200).step_by(7) {
            for v in (0..200).step_by(7) {
                acc += m.predict(u, v) as f64;
                count += 1;
            }
        }
        let avg = acc / count as f64;
        assert!(
            (avg - mean).abs() / mean < 0.25,
            "avg initial prediction {avg:.1} vs mean {mean}"
        );
        // Non-positive mean falls back to the unit-scale init.
        assert_eq!(
            Model::init_for_ratings(4, 4, 8, 1, 0.0),
            Model::init(4, 4, 8, 1)
        );
    }

    #[test]
    fn row_accessors() {
        let mut m = Model::constant(3, 2, 4, 1.0);
        m.p_row_mut(1)[2] = 9.0;
        assert_eq!(m.p_row(1), &[1.0, 1.0, 9.0, 1.0]);
        assert_eq!(m.p_row(0), &[1.0; 4]);
        m.q_row_mut(0)[0] = -1.0;
        assert_eq!(m.q_row(0)[0], -1.0);
        assert_eq!(m.q_row(1), &[1.0; 4]);
    }

    #[test]
    fn pq_rows_mut_returns_correct_rows() {
        let mut m = Model::constant(2, 2, 2, 0.0);
        {
            let (p, q) = m.pq_rows_mut(1, 0);
            p[0] = 5.0;
            q[1] = 7.0;
        }
        assert_eq!(m.p_row(1), &[5.0, 0.0]);
        assert_eq!(m.q_row(0), &[0.0, 7.0]);
        assert_eq!(m.p_row(0), &[0.0, 0.0]);
    }

    #[test]
    fn predict_is_dot_product() {
        let p = vec![1.0, 2.0, 1.0, 0.0];
        let q = vec![3.0, 4.0, 0.5, 0.5];
        let m = Model::from_parts(2, 2, 2, p, q);
        assert_eq!(m.predict(0, 0), 11.0); // 1*3 + 2*4
        assert_eq!(m.predict(1, 1), 0.5);
    }

    #[test]
    fn recommend_excludes_and_sorts() {
        // Item scores for user 0: item0=1, item1=3, item2=2.
        let p = vec![1.0];
        let q = vec![1.0, 3.0, 2.0];
        let m = Model::from_parts(1, 3, 1, p, q);
        let rec = m.recommend(0, &[1], 5);
        assert_eq!(rec.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![2, 0]);
        let top1 = m.recommend(0, &[], 1);
        assert_eq!(top1[0].0, 1);
    }

    #[test]
    fn recommend_partial_selection_matches_full_sort() {
        let m = Model::init(4, 500, 8, 11);
        let exclude: Vec<u32> = (0..500).filter(|v| v % 7 == 0).collect();
        for count in [0usize, 1, 10, 400, 600] {
            let fast = m.recommend(2, &exclude, count);
            // Reference: score everything, full sort, truncate.
            let mut full: Vec<(u32, f32)> = (0..500)
                .filter(|v| !exclude.contains(v))
                .map(|v| (v, m.predict(2, v)))
                .collect();
            full.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            full.truncate(count);
            assert_eq!(fast, full, "count={count}");
        }
    }

    #[test]
    fn recommend_count_larger_than_candidate_set() {
        // 3 items, 1 excluded → 2 candidates; asking for 10 returns both.
        let m = Model::from_parts(1, 3, 1, vec![1.0], vec![1.0, 3.0, 2.0]);
        let rec = m.recommend(0, &[1], 10);
        assert_eq!(rec.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn recommend_all_items_excluded_is_empty() {
        let m = Model::from_parts(1, 3, 1, vec![1.0], vec![1.0, 3.0, 2.0]);
        assert!(m.recommend(0, &[0, 1, 2], 5).is_empty());
        // Duplicates and out-of-range ids in `exclude` are harmless.
        assert!(m.recommend(0, &[0, 0, 1, 1, 2, 2, 99], 5).is_empty());
        assert_eq!(m.recommend(0, &[], 0), vec![]);
    }

    #[test]
    fn recommend_k_zero_model_does_not_panic() {
        // A k = 0 model scores every item 0.0; the tie-break returns the
        // lowest item ids in ascending order.
        let m = Model::from_parts(2, 5, 0, vec![], vec![]);
        let rec = m.recommend(1, &[2], 3);
        assert_eq!(rec, vec![(0, 0.0), (1, 0.0), (3, 0.0)]);
        assert_eq!(
            Model::constant(2, 2, 0, 0.0).recommend(0, &[], 1),
            vec![(0, 0.0)]
        );
    }

    #[test]
    fn recommend_tie_break_is_ascending_item_id() {
        // Items 1, 3, 4 tie at the top score; ties resolve by id.
        let q = vec![2.0, 5.0, 1.0, 5.0, 5.0];
        let m = Model::from_parts(1, 5, 1, vec![1.0], q);
        let rec = m.recommend(0, &[], 4);
        assert_eq!(
            rec,
            vec![(1, 5.0), (3, 5.0), (4, 5.0), (0, 2.0)],
            "ties must break by ascending item id"
        );
    }

    #[test]
    fn factor_bytes() {
        let m = Model::constant(4, 4, 32, 0.0);
        assert_eq!(m.factor_bytes(10), 10 * 32 * 4);
    }

    #[test]
    #[should_panic(expected = "P buffer length")]
    fn from_parts_validates() {
        let _ = Model::from_parts(2, 2, 2, vec![0.0; 3], vec![0.0; 4]);
    }
}
