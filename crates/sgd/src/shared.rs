//! Shared-memory access to a [`Model`] from multiple worker threads.
//!
//! One concurrency regime exists in this workspace — **disjoint regions**
//! (FPSGD, HSGD, HSGD\*): the block scheduler guarantees that concurrently
//! processed blocks share no row band and no column band, so the factor
//! rows they touch are disjoint. [`SharedModel::sgd_block_exclusive`] uses
//! plain raw-pointer access at full (vectorizable) speed; the scheduler
//! invariant is the safety contract.

use mf_sparse::BlockSlices;

use crate::kernel;
use crate::model::Model;

/// A raw view over a model's factor buffers, shareable across threads.
///
/// Construction borrows the model mutably for the lifetime `'a`, so no
/// safe alias can exist while workers run.
pub struct SharedModel<'a> {
    p: *mut f32,
    q: *mut f32,
    k: usize,
    m: u32,
    n: u32,
    _marker: std::marker::PhantomData<&'a mut Model>,
}

// SAFETY: the raw pointers refer to buffers owned by the exclusively
// borrowed Model; all concurrent access goes through the disjoint-rows
// discipline documented on the module.
unsafe impl Send for SharedModel<'_> {}
unsafe impl Sync for SharedModel<'_> {}

impl<'a> SharedModel<'a> {
    /// Creates the shared view.
    pub fn new(model: &'a mut Model) -> SharedModel<'a> {
        let (p, q, k, m, n) = model.raw_parts_mut();
        SharedModel {
            p,
            q,
            k,
            m,
            n,
            _marker: std::marker::PhantomData,
        }
    }

    /// Latent dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of user rows (`P` height).
    pub fn nrows(&self) -> u32 {
        self.m
    }

    /// Number of item rows (`Q` height).
    pub fn ncols(&self) -> u32 {
        self.n
    }

    /// Runs the SGD kernel over a whole structure-of-arrays block at full
    /// speed — the layout [`mf_sparse::GridPartition`] hands out.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that, for the duration of this call, no
    /// other thread accesses the factor rows of any user or item appearing
    /// in `block`. The FPSGD/HSGD schedulers provide exactly this guarantee
    /// by never co-scheduling blocks that share a row band or column band.
    pub unsafe fn sgd_block_exclusive(
        &self,
        block: BlockSlices<'_>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f64 {
        #[cfg(debug_assertions)]
        for e in block.iter() {
            debug_assert!(e.u < self.m && e.v < self.n);
        }
        // SAFETY: rows are in bounds (matrix invariant) and exclusively
        // ours (caller contract); dispatch to the monomorphized kernel
        // happens once for the whole block.
        unsafe {
            kernel::sgd_block_raw_soa(self.p, self.q, self.k, block, gamma, lambda_p, lambda_q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Rating, SoaRatings};

    #[test]
    fn exclusive_block_matches_direct_kernel() {
        let k = 4;
        let mut a = Model::init(4, 4, k, 3);
        let mut b = a.clone();
        let block = vec![
            Rating::new(0, 1, 3.0),
            Rating::new(2, 3, 4.0),
            Rating::new(0, 1, 2.0),
        ];
        let soa = SoaRatings::from_entries(&block);
        // Direct path.
        let mut direct_sq = 0.0;
        for e in &block {
            let (p, q) = a.pq_rows_mut(e.u, e.v);
            let err = kernel::sgd_step(p, q, e.r, 0.01, 0.05, 0.05);
            direct_sq += (err as f64) * (err as f64);
        }
        // Shared path.
        let shared_sq = {
            let shared = SharedModel::new(&mut b);
            unsafe { shared.sgd_block_exclusive(soa.as_slices(), 0.01, 0.05, 0.05) }
        };
        assert_eq!(a, b);
        assert_eq!(direct_sq, shared_sq);
    }

    #[test]
    fn concurrent_disjoint_blocks_from_threads() {
        // Two threads update blocks with disjoint rows & columns; the result
        // must equal sequential application (in any order).
        let k = 4;
        let mut par = Model::init(8, 8, k, 5);
        let mut seq = par.clone();
        let block_a: Vec<Rating> = (0..4).map(|i| Rating::new(i, i, 2.0)).collect();
        let block_b: Vec<Rating> = (4..8).map(|i| Rating::new(i, i, 3.0)).collect();
        let soa_a = SoaRatings::from_entries(&block_a);
        let soa_b = SoaRatings::from_entries(&block_b);

        {
            let shared = SharedModel::new(&mut par);
            std::thread::scope(|s| {
                let sa = &shared;
                let ba = soa_a.as_slices();
                let bb = soa_b.as_slices();
                s.spawn(move || unsafe {
                    sa.sgd_block_exclusive(ba, 0.01, 0.0, 0.0);
                });
                s.spawn(move || unsafe {
                    sa.sgd_block_exclusive(bb, 0.01, 0.0, 0.0);
                });
            });
        }

        for e in block_a.iter().chain(&block_b) {
            let (p, q) = seq.pq_rows_mut(e.u, e.v);
            kernel::sgd_step(p, q, e.r, 0.01, 0.0, 0.0);
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn large_k_fine_on_exclusive_path() {
        // The exclusive path (and everything built on it, e.g. the SIMT
        // kernel) must support any latent dimension.
        let k = 520;
        let mut a = Model::init(2, 2, k, 3);
        let mut b = a.clone();
        let block = vec![Rating::new(0, 1, 3.0)];
        let soa = SoaRatings::from_entries(&block);
        let mut direct_sq = 0.0;
        for e in &block {
            let (p, q) = a.pq_rows_mut(e.u, e.v);
            let err = kernel::sgd_step(p, q, e.r, 0.01, 0.05, 0.05);
            direct_sq += (err as f64) * (err as f64);
        }
        let shared = SharedModel::new(&mut b);
        let shared_sq = unsafe { shared.sgd_block_exclusive(soa.as_slices(), 0.01, 0.05, 0.05) };
        assert_eq!(a, b);
        assert_eq!(direct_sq, shared_sq);
    }
}
