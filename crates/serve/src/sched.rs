//! Admission control for batched serving: when to cut a batch.
//!
//! The tile sweep ([`crate::batch`]) gets cheaper per query the more
//! queries share a sweep — but a query sitting in the queue is latency
//! spent before its batch even starts. [`Batcher`] owns that trade with
//! three knobs ([`BatchPolicy`]): a batch is cut as soon as the queue
//! reaches the current dispatch target or the oldest queued query has
//! waited **`max_delay`**, whichever binds first. The target self-tunes
//! inside **`[min_batch, max_batch]`** the way rayon-adaptive's
//! `Policy::Adaptive` grows its block sizes: start small, *double* the
//! target after every batch whose measured service time fits comfortably
//! inside the delay budget, halve it when a batch blows the budget.
//! Under light load the queue drains in small low-latency batches;
//! under pressure the target climbs geometrically to the
//! throughput-optimal size within a handful of batches. A fixed-size
//! policy is `min_batch == max_batch`.
//!
//! [`run_load`] closes the loop for benchmarking: it replays a timed
//! arrival schedule against a [`FactorStore`] on a *virtual* clock —
//! arrivals advance the clock per the schedule, service advances it by
//! the measured wall time of each [`FactorStore::sweep_batch_in`] call
//! — and reports per-query latencies (queue wait + own batch service)
//! plus batch-size telemetry. Virtual arrivals make the offered load
//! reproducible; real measured service keeps the latency distribution
//! honest.

use std::collections::VecDeque;
use std::time::Instant;

use mf_par::ThreadPool;

use crate::batch::BatchPlan;
use crate::store::{FactorStore, Query};

/// The admission knobs. Times are in seconds (the unit everything in
/// the load layer uses).
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Hard cap on queries per dispatched batch.
    pub max_batch: usize,
    /// Hard cap on how long the oldest queued query may wait (seconds)
    /// before a batch is cut regardless of size.
    pub max_delay: f64,
    /// Smallest dispatch target (and its starting value).
    pub min_batch: usize,
}

impl BatchPolicy {
    /// Adaptive batching: the dispatch target starts at `min_batch`,
    /// doubles after each batch served within half the delay budget,
    /// and halves after each batch that overran the budget.
    /// `adaptive(n, n, max_delay)` dispatches at exactly `n` queries.
    pub fn adaptive(min_batch: usize, max_batch: usize, max_delay: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_delay,
            min_batch,
        }
    }
}

/// One dispatched batch: the queries plus their arrival stamps (for
/// latency accounting).
#[derive(Debug)]
pub struct Batch {
    /// Arrival time (seconds) of each query, aligned with `queries`.
    pub arrivals: Vec<f64>,
    /// The queries, in arrival order.
    pub queries: Vec<Query>,
}

/// The batching queue. Single-owner and clock-explicit: callers pass
/// `now` into every time-sensitive method, so the batcher works equally
/// under the bench's virtual clock and a real one.
pub struct Batcher {
    policy: BatchPolicy,
    target: usize,
    queue: VecDeque<(f64, Query)>,
}

impl Batcher {
    /// Creates an empty batcher.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ min_batch ≤ max_batch` and `max_delay ≥ 0`.
    pub fn new(policy: BatchPolicy) -> Batcher {
        assert!(policy.min_batch >= 1, "min_batch must be at least 1");
        assert!(
            policy.min_batch <= policy.max_batch,
            "min_batch must not exceed max_batch"
        );
        assert!(
            policy.max_delay >= 0.0 && policy.max_delay.is_finite(),
            "max_delay must be a finite non-negative time"
        );
        let target = policy.min_batch;
        Batcher {
            policy,
            target,
            queue: VecDeque::new(),
        }
    }

    /// Enqueues a query that arrived at time `now`.
    pub fn offer(&mut self, now: f64, query: Query) {
        self.queue.push_back((now, query));
    }

    /// Queries currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The current dispatch target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Whether a batch should be cut at time `now`: the queue has
    /// reached the dispatch target, or the oldest query has waited
    /// `max_delay`.
    pub fn ready(&self, now: f64) -> bool {
        if self.queue.len() >= self.target {
            return true;
        }
        // `now >= oldest + max_delay`, written as the *same expression*
        // `next_deadline` returns: `now - oldest >= max_delay` can
        // round the other way, leaving a caller that slept until the
        // deadline not-ready — which would stall `run_load`'s
        // wake-at-deadline loop forever.
        match self.next_deadline() {
            Some(deadline) => now >= deadline,
            None => false,
        }
    }

    /// When the oldest queued query hits its delay bound — the next
    /// time [`Batcher::ready`] can flip true without a new arrival.
    pub fn next_deadline(&self) -> Option<f64> {
        self.queue
            .front()
            .map(|&(oldest, _)| oldest + self.policy.max_delay)
    }

    /// Cuts a batch if [`Batcher::ready`], draining up to the dispatch
    /// target (never more than `max_batch`) in arrival order.
    pub fn take(&mut self, now: f64) -> Option<Batch> {
        if !self.ready(now) {
            return None;
        }
        let n = self.queue.len().min(self.target);
        let mut arrivals = Vec::with_capacity(n);
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let (at, q) = self.queue.pop_front().expect("n <= len");
            arrivals.push(at);
            queries.push(q);
        }
        Some(Batch { arrivals, queries })
    }

    /// Feeds back the measured service time of the last batch, moving
    /// the dispatch target geometrically — double while batches finish
    /// inside half the delay budget, halve when one overruns it.
    pub fn observe(&mut self, service_secs: f64) {
        if service_secs > self.policy.max_delay {
            self.target = (self.target / 2).max(self.policy.min_batch);
        } else if service_secs * 2.0 <= self.policy.max_delay {
            self.target = (self.target * 2).min(self.policy.max_batch);
        }
    }
}

/// What [`run_load`] measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Per-query latency (seconds): completion − arrival, in completion
    /// order.
    pub latencies: Vec<f64>,
    /// Size of each dispatched batch, in dispatch order.
    pub batch_sizes: Vec<usize>,
    /// Unique query groups actually swept, summed over batches (the
    /// dedup win: `served − unique` scans were avoided).
    pub unique: usize,
    /// Total measured sweep time (seconds) across all batches.
    pub service_secs: f64,
    /// Queries served.
    pub served: usize,
}

/// Replays a timed arrival schedule (`(arrival_seconds, query)`, sorted
/// by arrival) through `batcher` against `store`, serving each cut
/// batch with [`FactorStore::sweep_batch_in`] on `pool`.
///
/// The clock is virtual but the service is real: admission and
/// deadlines follow the schedule's timestamps, and each dispatched
/// batch advances the clock by its *measured* sweep wall time — so
/// queueing, delay-bound flushes, and latency all behave as they would
/// on a live single-server instance at that offered load.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted by arrival time.
pub fn run_load(
    store: &FactorStore,
    arrivals: &[(f64, Query)],
    batcher: &mut Batcher,
    pool: &ThreadPool,
) -> LoadReport {
    assert!(
        arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
        "arrivals must be sorted by time"
    );
    let mut report = LoadReport {
        latencies: Vec::with_capacity(arrivals.len()),
        batch_sizes: Vec::new(),
        unique: 0,
        service_secs: 0.0,
        served: 0,
    };
    let mut next = 0usize;
    let mut now = 0.0f64;
    while next < arrivals.len() || !batcher.is_empty() {
        while next < arrivals.len() && arrivals[next].0 <= now {
            batcher.offer(arrivals[next].0, arrivals[next].1.clone());
            next += 1;
        }
        if let Some(batch) = batcher.take(now) {
            let t0 = Instant::now();
            let answers = store.sweep_batch_in(&batch.queries, pool);
            let dt = t0.elapsed().as_secs_f64();
            debug_assert_eq!(answers.len(), batch.queries.len());
            batcher.observe(dt);
            let done = now + dt;
            for &at in &batch.arrivals {
                report.latencies.push(done - at);
            }
            report.batch_sizes.push(batch.queries.len());
            report.unique += BatchPlan::build(&batch.queries).unique();
            report.service_secs += dt;
            report.served += batch.queries.len();
            now = done;
            continue;
        }
        // Idle: jump to the next event — an arrival or the oldest
        // queued query's delay deadline.
        let next_arrival = arrivals.get(next).map_or(f64::INFINITY, |&(at, _)| at);
        let deadline = batcher.next_deadline().unwrap_or(f64::INFINITY);
        let wake = next_arrival.min(deadline);
        debug_assert!(wake.is_finite(), "load loop would stall");
        now = wake.max(now);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sgd::Model;

    fn q(u: u32) -> Query {
        Query::top_k(u, 3)
    }

    #[test]
    fn fixed_policy_cuts_at_size_or_deadline() {
        let mut b = Batcher::new(BatchPolicy::adaptive(3, 3, 0.010));
        assert!(b.take(0.0).is_none());
        b.offer(0.000, q(0));
        b.offer(0.001, q(1));
        assert!(!b.ready(0.005), "two queued, deadline not hit");
        b.offer(0.002, q(2));
        assert!(b.ready(0.002), "target reached");
        let batch = b.take(0.002).expect("ready");
        assert_eq!(batch.queries.len(), 3);
        assert_eq!(batch.arrivals, vec![0.000, 0.001, 0.002]);
        // Deadline path: one query, ready only after max_delay.
        b.offer(0.100, q(3));
        assert!(!b.ready(0.105));
        assert_eq!(b.next_deadline(), Some(0.110));
        assert!(b.ready(0.110));
        assert_eq!(b.take(0.110).expect("deadline").queries.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn take_never_exceeds_target() {
        let mut b = Batcher::new(BatchPolicy::adaptive(4, 4, 1.0));
        for i in 0..10 {
            b.offer(0.0, q(i));
        }
        assert_eq!(b.take(0.0).expect("over target").queries.len(), 4);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn adaptive_target_doubles_and_halves_within_bounds() {
        let mut b = Batcher::new(BatchPolicy::adaptive(2, 16, 0.010));
        assert_eq!(b.target(), 2);
        b.observe(0.001); // fast → double
        assert_eq!(b.target(), 4);
        b.observe(0.001);
        b.observe(0.001);
        assert_eq!(b.target(), 16);
        b.observe(0.001); // clamped at max
        assert_eq!(b.target(), 16);
        b.observe(0.020); // overran the budget → halve
        assert_eq!(b.target(), 8);
        b.observe(0.007); // inside budget but not comfortably → hold
        assert_eq!(b.target(), 8);
        for _ in 0..5 {
            b.observe(1.0);
        }
        assert_eq!(b.target(), 2, "clamped at min");
    }

    #[test]
    fn run_load_serves_every_query_once() {
        let store = FactorStore::new(Model::init(20, 300, 8, 77), 1);
        let pool = ThreadPool::new(1);
        let arrivals: Vec<(f64, Query)> = (0..40)
            .map(|i| (i as f64 * 1e-5, Query::top_k(i % 20, 5)))
            .collect();
        let mut batcher = Batcher::new(BatchPolicy::adaptive(8, 8, 0.001));
        let report = run_load(&store, &arrivals, &mut batcher, &pool);
        assert_eq!(report.served, 40);
        assert_eq!(report.latencies.len(), 40);
        assert_eq!(report.batch_sizes.iter().sum::<usize>(), 40);
        assert!(report.batch_sizes.iter().all(|&s| s <= 8));
        assert!(report.unique <= 40);
        assert!(report.latencies.iter().all(|&l| l >= 0.0));
        assert!(report.service_secs > 0.0);
    }

    #[test]
    fn run_load_flushes_the_tail_on_deadline() {
        let store = FactorStore::new(Model::init(5, 100, 8, 78), 1);
        let pool = ThreadPool::new(1);
        // 3 queries, batch target 100: only the delay bound can flush.
        let arrivals: Vec<(f64, Query)> = (0..3).map(|i| (0.0, Query::top_k(i, 2))).collect();
        let mut batcher = Batcher::new(BatchPolicy::adaptive(100, 100, 0.005));
        let report = run_load(&store, &arrivals, &mut batcher, &pool);
        assert_eq!(report.served, 3);
        assert_eq!(report.batch_sizes, vec![3]);
        // All three waited out the full delay bound.
        assert!(report.latencies.iter().all(|&l| l >= 0.005));
    }
}
