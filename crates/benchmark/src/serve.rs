//! The two open-loop serving workloads, `serve_zipf` and
//! `serve_uniform`: same store, policy, cache and rates; only the query
//! mix differs (hot users recur, or no user repeats).
//!
//! Arrivals are *scheduled* (Poisson, on a virtual clock) and service is
//! *measured* wall time, exactly as `mf_serve::sched::run_load` does it —
//! the loop here is that loop, copied so queue wait and service can be
//! told apart and answers sampled. Latency runs from the scheduled
//! arrival, so a stall is charged to every query behind it; the
//! generator itself cannot run late (lateness is 0 by construction).

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use mf_data::{poisson_arrivals, Zipf};
use mf_par::ThreadPool;
use mf_serve::{BatchPlan, BatchPolicy, Batcher, FactorStore, Query, QueryUser, TopK};
use mf_sgd::{sweep, Model};
use mf_sparse::shuffle::random_permutation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::machine;
use crate::metrics::Report;
use crate::stats::{fastest, median, percentile, Better};
use crate::trace::Tracer;
use crate::workload::{Opts, Size, Workload};

/// The latency limit on p99, seconds.
const LIMIT_SECS: f64 = 0.010;
/// Fixed offered rates (q/s) whose latencies are reported.
const RATE_LOW: f64 = 2_000.0;
const RATE_HIGH: f64 = 8_000.0;
/// Overload rate (q/s): arrivals outrun service, so served / service
/// seconds is the capacity of the sweep path at this mix.
const RATE_OVERLOAD: f64 = 64_000.0;
/// One answer in this many is checked against the serial oracle.
const SAMPLE_EVERY: usize = 64;
/// Arrival seeds per rate in the SLO bisection.
const SLO_SEEDS: u64 = 3;
/// Bisection steps of the SLO search.
const SLO_STEPS: usize = 6;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    users: u32,
    items: u32,
    k: usize,
    /// Queries per load.
    queries: usize,
    /// Distinct query windows the loads cycle through.
    windows: usize,
    cache: usize,
    min_passes: usize,
}

impl Sizes {
    fn of(size: Size) -> Sizes {
        match size {
            Size::Full => Sizes {
                users: 100_000,
                items: 40_000,
                k: 32,
                queries: 5_000,
                windows: 20,
                cache: 4_096,
                min_passes: 3,
            },
            // One tile of items: the smoke test runs an unoptimized
            // build, where a sweep costs ~100x the release one.
            Size::Smoke => Sizes {
                users: 400,
                items: 512,
                k: 32,
                queries: 80,
                windows: 5,
                cache: 32,
                min_passes: 2,
            },
        }
    }
}

fn policy() -> BatchPolicy {
    BatchPolicy::adaptive(1, 1024, 0.002)
}

/// One of the two serving workloads.
pub struct Serve {
    zipf: bool,
}

impl Serve {
    /// Hot users recur: dedup and the result cache carry load.
    pub fn zipf() -> Serve {
        Serve { zipf: true }
    }

    /// No user repeats: dedup and cache do nothing, the tile sweep does
    /// everything.
    pub fn uniform() -> Serve {
        Serve { zipf: false }
    }
}

/// Inputs of a serving workload.
pub struct ServeInputs {
    sizes: Sizes,
    /// The store under test, result cache on.
    store: FactorStore,
    /// The same factors with no cache: the serial oracle.
    oracle: FactorStore,
    /// Query windows; load `i` replays window `i mod windows`, so a
    /// window comes round again only after `windows − 1` others have
    /// gone through the (much smaller) result cache.
    windows: Vec<Vec<Query>>,
    /// Loads replayed so far (picks the next window).
    loads: Cell<usize>,
    build_s: f64,
}

/// The rating history of `user`: a function of `(seed, user)` only, so
/// a recurring user presents the same exclude list and repeat queries
/// are identical requests. Up to 32 items, biased to the popular head
/// (`P(item < x·n) = √x`).
fn history(seed: u64, user: u32, items: u32) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(user) << 17);
    let len = rng.random::<u64>() % 33;
    (0..len)
        .map(|_| {
            let x: f64 = rng.random();
            ((x * x * f64::from(items)) as u32).min(items - 1)
        })
        .collect()
}

/// A factor model with head-heavy item norms: item `v`'s row is scaled
/// by `(1 + v)^-0.3`, so early tiles carry the large scores and the
/// Cauchy–Schwarz prune has a tail to cut — the shape of a catalog
/// sorted by popularity.
fn head_heavy_model(sizes: &Sizes, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let k = sizes.k;
    let p: Vec<f32> = (0..sizes.users as usize * k)
        .map(|_| rng.random::<f32>() - 0.5)
        .collect();
    let q: Vec<f32> = (0..sizes.items as usize * k)
        .map(|i| {
            let v = (i / k) as f32;
            (rng.random::<f32>() - 0.5) * (1.0 + v).powf(-0.3)
        })
        .collect();
    Model::from_parts(sizes.users, sizes.items, k, p, q)
}

/// What one replayed load measured.
struct Load {
    /// Completion − scheduled arrival, per query.
    latencies: Vec<f64>,
    /// Dispatch − scheduled arrival, per query.
    waits: Vec<f64>,
    batches: usize,
    unique: usize,
    service_secs: f64,
    served: usize,
    target_final: usize,
    /// Virtual time the last answer left minus the last arrival.
    drain_secs: f64,
    /// `(query index, answer)` for one query in [`SAMPLE_EVERY`].
    sampled: Vec<(usize, TopK)>,
}

impl Load {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
    }

    fn late(&self) -> u64 {
        self.latencies.iter().filter(|&&l| l > LIMIT_SECS).count() as u64
    }

    /// No backlog was left growing: the last answer left within the
    /// limit of the last arrival.
    fn drained(&self) -> bool {
        self.drain_secs <= LIMIT_SECS
    }
}

/// `run_load`'s loop: virtual arrivals, measured service.
fn replay(
    store: &FactorStore,
    queries: &[Query],
    arrivals: &[f64],
    pool: &ThreadPool,
    tr: &mut Tracer,
) -> Load {
    let mut batcher = Batcher::new(policy());
    let n = queries.len();
    let mut load = Load {
        latencies: Vec::with_capacity(n),
        waits: Vec::with_capacity(n),
        batches: 0,
        unique: 0,
        service_secs: 0.0,
        served: 0,
        target_final: 0,
        drain_secs: 0.0,
        sampled: Vec::with_capacity(n / SAMPLE_EVERY + 1),
    };
    let mut next = 0usize;
    let mut dispatched = 0usize;
    let mut now = 0.0f64;
    tr.span("load", |tr| {
        while next < n || !batcher.is_empty() {
            let batch = tr.span("mf-serve.sched.admit", |_| {
                while next < n && arrivals[next] <= now {
                    batcher.offer(arrivals[next], queries[next].clone());
                    next += 1;
                }
                batcher.take(now)
            });
            let Some(batch) = batch else {
                // Idle: jump to the next arrival or the oldest queued
                // query's delay deadline.
                let arrival = arrivals.get(next).copied().unwrap_or(f64::INFINITY);
                let deadline = batcher.next_deadline().unwrap_or(f64::INFINITY);
                now = arrival.min(deadline).max(now);
                continue;
            };
            let (answers, dt) = tr.span("mf-serve.batch.sweep_batch", |_| {
                let t0 = Instant::now();
                let answers = store.sweep_batch_in(&batch.queries, pool);
                (answers, t0.elapsed().as_secs_f64())
            });
            batcher.observe(dt);
            let done = now + dt;
            for &at in &batch.arrivals {
                load.waits.push(now - at);
                load.latencies.push(done - at);
            }
            // Queries leave the batcher in arrival order, so the batch
            // covers indices dispatched .. dispatched + len.
            for (i, answer) in answers.into_iter().enumerate() {
                if (dispatched + i).is_multiple_of(SAMPLE_EVERY) {
                    load.sampled.push((dispatched + i, answer));
                }
                load.served += 1;
            }
            dispatched += batch.queries.len();
            load.batches += 1;
            load.unique += BatchPlan::build(&batch.queries).unique();
            load.service_secs += dt;
            now = done;
        }
    });
    load.target_final = batcher.target();
    load.drain_secs = now - arrivals.last().copied().unwrap_or(0.0);
    load
}

/// The three loads of one pass.
struct Pass {
    low: Load,
    high: Load,
    overload: Load,
}

/// One measuring pass of a serving workload.
pub struct ServeRun {
    passes: Vec<Pass>,
    pass_secs: Vec<f64>,
    cache_hit_rate: f64,
}

impl ServeInputs {
    /// The next window in the cycle.
    fn next_window(&self) -> &[Query] {
        let ix = self.loads.get();
        self.loads.set(ix + 1);
        &self.windows[ix % self.windows.len()]
    }

    /// Replays the next window at `rate` and checks it: everything
    /// offered was served, and the sampled answers are bit-equal to the
    /// serial scan. A query over the latency limit is reported (see
    /// `end_to_end`) but is not a failed operation: on a shared host a
    /// single descheduled batch is late through no fault of the program.
    fn checked_load(
        &self,
        rate: f64,
        arrival_seed: u64,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Load {
        let queries = self.next_window();
        let arrivals = poisson_arrivals(rate, queries.len(), arrival_seed);
        let load = replay(&self.store, queries, &arrivals, ThreadPool::global(), tr);
        let offered = queries.len();
        let unanswered = (offered - load.served.min(offered)) as u64;
        let wrong = load
            .sampled
            .iter()
            .filter(|(ix, answer)| self.oracle.serve_one(&queries[*ix]) != *answer)
            .count() as u64;
        report.count(offered as u64, unanswered + wrong);
        report.check(unanswered == 0, || {
            format!("{rate} q/s: served {} of {offered} offered", load.served)
        });
        report.check(wrong == 0, || {
            format!("{rate} q/s: {wrong} sampled answers differ from FactorStore::serve_one")
        });
        load
    }
}

impl Workload for Serve {
    type Inputs = ServeInputs;
    type Run = ServeRun;

    fn name(&self) -> &'static str {
        if self.zipf {
            "serve_zipf"
        } else {
            "serve_uniform"
        }
    }

    fn setup(&self, opts: &Opts, report: &mut Report) -> ServeInputs {
        let sizes = Sizes::of(opts.size);
        let model = head_heavy_model(&sizes, opts.seed);
        let t0 = Instant::now();
        let store = FactorStore::new(model.clone(), 1).with_cache(sizes.cache);
        let build_s = t0.elapsed().as_secs_f64();
        let oracle = FactorStore::new(model, 1);
        let total = sizes.queries * sizes.windows;
        let users: Vec<u32> = if self.zipf {
            let zipf = Zipf::new(sizes.users as usize, 1.05);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x717e);
            (0..total).map(|_| zipf.sample(&mut rng)).collect()
        } else {
            // Uniform over users without replacement: no user repeats
            // anywhere in the stream.
            assert!(total <= sizes.users as usize, "not enough distinct users");
            let mut perm = random_permutation(sizes.users, opts.seed ^ 0x0717);
            perm.truncate(total);
            perm
        };
        let windows: Vec<Vec<Query>> = users
            .chunks(sizes.queries)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&user| Query {
                        user: QueryUser::Id(user),
                        count: 10,
                        exclude: history(opts.seed, user, sizes.items),
                    })
                    .collect()
            })
            .collect();
        report.note(format!(
            "{} users x {} items, k = {}, {} queries per load ({}), top-10 with exclude lists, \
             result cache {}, adaptive(1, 1024, 2 ms), rates {RATE_LOW}/{RATE_HIGH}/{RATE_OVERLOAD} q/s, \
             p99 limit {} ms, open loop on a virtual clock (generator lateness 0 by construction)",
            sizes.users,
            sizes.items,
            sizes.k,
            sizes.queries,
            if self.zipf { "Zipf 1.05" } else { "uniform, no repeats" },
            sizes.cache,
            LIMIT_SECS * 1e3
        ));
        ServeInputs {
            sizes,
            store,
            oracle,
            windows,
            loads: Cell::new(0),
            build_s,
        }
    }

    fn measure(
        &self,
        inp: &ServeInputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> ServeRun {
        let start = Instant::now();
        let before = inp.store.cache_stats();
        // An unrecorded warm-up load: page in the tiles, fill the cache.
        inp.checked_load(
            RATE_HIGH,
            opts.seed,
            &mut Tracer::new(false),
            &mut Report::new(self.name()),
        );
        let mut passes = Vec::new();
        let mut pass_secs = Vec::new();
        while passes.len() < inp.sizes.min_passes || start.elapsed().as_secs_f64() < opts.seconds {
            let ix = passes.len() as u64 + 1;
            tr.set_rep(ix as u32);
            let seed = opts.seed.wrapping_mul(0x9e37_79b9).wrapping_add(ix);
            let t0 = Instant::now();
            passes.push(Pass {
                low: inp.checked_load(RATE_LOW, seed ^ 1, tr, report),
                high: inp.checked_load(RATE_HIGH, seed ^ 2, tr, report),
                overload: inp.checked_load(RATE_OVERLOAD, seed ^ 3, tr, report),
            });
            pass_secs.push(t0.elapsed().as_secs_f64());
        }
        let after = inp.store.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        ServeRun {
            passes,
            pass_secs,
            cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        }
    }

    fn end_to_end(&self, run: &ServeRun, report: &mut Report) {
        let over = |f: &dyn Fn(&Pass) -> f64| run.passes.iter().map(f).collect::<Vec<_>>();
        let p99_low = over(&|p| p.low.p(0.99) * 1e3);
        let p50_high = over(&|p| p.high.p(0.50) * 1e3);
        let p99_high = over(&|p| p.high.p(0.99) * 1e3);
        let capacity = over(&|p| p.overload.served as f64 / p.overload.service_secs);
        // One pass's work: all three loads' measured service.
        let busy = over(&|p| p.low.service_secs + p.high.service_secs + p.overload.service_secs);
        report.set_samples("e2e.serve_p99_ms_r2000", &p99_low, Better::Lower);
        report.set_samples("e2e.serve_p50_ms_r8000", &p50_high, Better::Lower);
        let p99 = report.set_samples("e2e.serve_p99_ms_r8000", &p99_high, Better::Lower);
        let capacity = report.set_samples("e2e.serve_capacity_qps", &capacity, Better::Higher);
        report.set("job_s", fastest(&busy));
        report.set("wait_ms", p99);
        report.set("rate_per_s", capacity);
        let late: u64 = run
            .passes
            .iter()
            .map(|p| p.low.late() + p.high.late())
            .sum();
        report.note(format!(
            "{} passes; {late} queries over the limit at the fixed rates (reported, not failed); \
             overload batcher target at end {}",
            run.passes.len(),
            run.passes[run.passes.len() - 1].overload.target_final
        ));
    }

    fn layers(
        &self,
        inp: &ServeInputs,
        traced: &ServeRun,
        tr: &Tracer,
        opts: &Opts,
        report: &mut Report,
    ) {
        let over =
            |f: &dyn Fn(&Pass) -> f64| median(&traced.passes.iter().map(f).collect::<Vec<_>>());
        report.set(
            "mf-serve.sched.queue_wait_ms_p50",
            over(&|p| percentile(&p.high.waits, 0.50) * 1e3),
        );
        report.set(
            "mf-serve.sched.queue_wait_ms_p99",
            over(&|p| percentile(&p.high.waits, 0.99) * 1e3),
        );
        report.set(
            "mf-serve.sched.mean_batch",
            over(&|p| p.high.served as f64 / p.high.batches.max(1) as f64),
        );
        report.set("mf-serve.sched.batches", over(&|p| p.high.batches as f64));
        report.set(
            "mf-serve.sched.target_final",
            over(&|p| p.overload.target_final as f64),
        );
        report.set("mf-serve.sched.generator_lateness_ms", 0.0);
        report.set(
            "mf-serve.batch.unique_frac",
            over(&|p| p.overload.unique as f64 / p.overload.served.max(1) as f64),
        );
        report.set(
            "mf-serve.batch.sweep_us_per_unique_query",
            over(&|p| p.overload.service_secs * 1e6 / p.overload.unique.max(1) as f64),
        );
        report.set("mf-serve.store.cache_hit_rate", traced.cache_hit_rate);
        report.set("mf-serve.store.build_s", inp.build_s);
        report.set("trace.cover_frac", tr.child_cover("load"));

        // Isolated replays.
        let t0 = Instant::now();
        let mut planned = 0usize;
        let window = &inp.windows[0];
        for chunk in window.chunks(1024) {
            black_box(BatchPlan::build(chunk));
            planned += chunk.len();
        }
        report.set(
            "mf-serve.batch.plan_build_us_per_query",
            t0.elapsed().as_secs_f64() * 1e6 / planned.max(1) as f64,
        );

        let sample: Vec<&Query> = window.iter().step_by(window.len() / 512 + 1).collect();
        let t0 = Instant::now();
        for q in &sample {
            black_box(inp.oracle.serve_one(q));
        }
        report.set(
            "mf-serve.store.serve_one_us",
            t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
        );

        // mf-sgd.sweep: one full panel against one 512-item tile.
        let k = inp.sizes.k;
        let tile_items = mf_serve::store::TILE_ITEMS;
        let factors: Vec<&[f32]> = (0..sweep::PANEL_W as u32)
            .map(|u| inp.store.user_factor(u))
            .collect();
        let mut panel = Vec::new();
        sweep::pack_panel(&factors, k, &mut panel);
        let rows: Vec<f32> = (0..tile_items as u32)
            .flat_map(|v| inp.store.item_row_f32(v))
            .collect();
        let mut out = vec![0.0f32; tile_items * sweep::PANEL_W];
        const CALLS: usize = 2_000;
        let t0 = Instant::now();
        for _ in 0..CALLS {
            sweep::dot_panel(black_box(&panel), k, black_box(&rows), &mut out);
            black_box(&mut out);
        }
        let flops = 2.0 * (k * tile_items * sweep::PANEL_W * CALLS) as f64;
        report.set(
            "mf-sgd.sweep.dot_panel_gflops",
            flops / t0.elapsed().as_secs_f64() / 1e9,
        );
        // Per (query, tile): the tile's rows amortized over a full
        // panel, plus the query's own score column.
        report.set(
            "mf-sgd.sweep.bytes_per_query_tile_computed",
            (tile_items * k * 4) as f64 / sweep::PANEL_W as f64 + (tile_items * 4) as f64,
        );
        machine::host().report(report);
        machine::pool_probe(report);

        // The highest rate whose median-of-seeds p99 meets the limit
        // with the backlog drained: bisect between the low fixed rate
        // and the measured capacity.
        let capacity = report
            .get("e2e.serve_capacity_qps")
            .unwrap_or(RATE_OVERLOAD);
        let meets = |rate: f64, report: &mut Report| {
            let mut side = Report::new(report.workload);
            let loads: Vec<Load> = (0..SLO_SEEDS)
                .map(|s| {
                    let seed = opts.seed ^ (rate as u64) << 8 ^ s;
                    inp.checked_load(rate, seed, &mut Tracer::new(false), &mut side)
                })
                .collect();
            report.problems.append(&mut side.problems);
            let p99 = median(&loads.iter().map(|l| l.p(0.99)).collect::<Vec<_>>());
            p99 <= LIMIT_SECS && loads.iter().all(Load::drained)
        };
        let (mut lo, mut hi) = (RATE_LOW, capacity.max(RATE_LOW));
        let mut slo = if meets(lo, report) { lo } else { 0.0 };
        if slo > 0.0 {
            for _ in 0..SLO_STEPS {
                let mid = 0.5 * (lo + hi);
                if meets(mid, report) {
                    lo = mid;
                    slo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        report.set("e2e.serve_slo_qps", slo);
    }

    fn rep_secs(&self, run: &ServeRun) -> f64 {
        fastest(&run.pass_secs)
    }
}
