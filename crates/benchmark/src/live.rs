//! `live_loop`: writes beside reads. A `LiveTrainer` ingests, trains,
//! durably publishes and swaps every epoch while one closed-loop reader
//! (one client, next query after the previous answer) serves top-10
//! from `live.current()`; then the writer dies, the newest record is
//! torn, and the directory is recovered and resumed.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mf_data::{ingest_stream, IngestConfig, IngestEvent};
use mf_serve::checkpoint::CheckpointMeta;
use mf_serve::delta;
use mf_serve::live::{LiveConfig, LiveStore, LiveTrainer, RecordKind};
use mf_serve::{FactorStore, FoldIn, FoldInConfig, Query, RealFs, TopK};
use mf_sgd::Model;

use crate::machine;
use crate::metrics::Report;
use crate::stats::{fastest, median, percentile, Better};
use crate::trace::Tracer;
use crate::workload::{Opts, Scratch, Size, Workload};

#[derive(Debug, Clone, Copy)]
struct Sizes {
    users: u32,
    items: u32,
    k: usize,
    epochs: u64,
    events_per_epoch: usize,
    snapshot_every: u64,
    /// Warm `delta::recover` calls after the cold one.
    warm_recovers: usize,
    min_reps: usize,
}

impl Sizes {
    fn of(size: Size) -> Sizes {
        match size {
            Size::Full => Sizes {
                users: 50_000,
                items: 20_000,
                k: 32,
                epochs: 12,
                events_per_epoch: 20_000,
                snapshot_every: 8,
                warm_recovers: 3,
                min_reps: 3,
            },
            Size::Smoke => Sizes {
                users: 1_500,
                items: 800,
                k: 32,
                epochs: 6,
                events_per_epoch: 400,
                snapshot_every: 4,
                warm_recovers: 2,
                min_reps: 2,
            },
        }
    }

    fn config(&self) -> LiveConfig {
        LiveConfig {
            // The default fold-in solve (gamma 0.1, 64 passes) diverges
            // to inf/NaN factors on this stream at the full size: new
            // users' first ratings land on hot items whose rows have
            // grown. A gentler solve keeps every factor finite, which
            // the workload checks.
            foldin: FoldInConfig {
                passes: 16,
                gamma: 0.02,
                ..FoldInConfig::default()
            },
            snapshot_every: self.snapshot_every,
            ..LiveConfig::default()
        }
    }
}

/// The live-loop workload.
pub struct LiveLoop;

/// Inputs of `live_loop`.
pub struct LiveInputs {
    sizes: Sizes,
    model: Model,
    /// `epochs + 1` epochs' worth: the last batch feeds the resumed step.
    events: Vec<IngestEvent>,
    queries: Vec<Query>,
    scratch: Scratch,
}

/// One `LiveTrainer::step` as the writer saw it.
struct Step {
    secs: f64,
    kind: RecordKind,
    bytes: u64,
    folded: u32,
}

/// One repetition.
struct Rep {
    rep_s: f64,
    steps: Vec<Step>,
    read_qps: f64,
    reads: u64,
    recover_cold_s: f64,
    recover_warm_s: Vec<f64>,
    dir_bytes: u64,
    files_classified: usize,
    lag_p99: u64,
}

/// One measuring pass of `live_loop`.
pub struct LiveRun {
    reps: Vec<Rep>,
}

/// What the reader thread saw.
struct Reader {
    answers: u64,
    went_backwards: bool,
}

fn read_until(stop: &AtomicBool, live: &LiveStore, queries: &[Query]) -> Reader {
    let mut seen = 0u64;
    let mut out = Reader {
        answers: 0,
        went_backwards: false,
    };
    for q in queries.iter().cycle() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let store = live.current();
        out.went_backwards |= store.epoch() < seen;
        seen = store.epoch();
        black_box(store.serve_one(q));
        out.answers += 1;
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl LiveInputs {
    fn epoch_events(&self, epoch: u64) -> &[IngestEvent] {
        let n = self.sizes.events_per_epoch;
        &self.events[(epoch as usize - 1) * n..epoch as usize * n]
    }

    /// Ingests `epoch`'s events and steps once, checking the ack.
    fn step(
        &self,
        trainer: &mut LiveTrainer,
        epoch: u64,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Step {
        for ev in self.epoch_events(epoch) {
            trainer.ingest(ev.user, ev.item, ev.rating);
        }
        let t0 = Instant::now();
        let rep = tr.span("mf-serve.live.step", |_| trainer.step());
        let secs = t0.elapsed().as_secs_f64();
        report.count(1, u64::from(!rep.acked));
        report.check(rep.acked && rep.epoch == epoch, || {
            format!(
                "step {epoch}: epoch {} acked {} ({:?})",
                rep.epoch, rep.acked, rep.ckpt_error
            )
        });
        Step {
            secs,
            kind: rep.kind,
            bytes: rep.bytes,
            folded: rep.folded_users + rep.folded_items,
        }
    }

    fn repetition(&self, ix: usize, tr: &mut Tracer, report: &mut Report) -> Rep {
        let sizes = &self.sizes;
        let cfg = sizes.config();
        let dir = self.scratch.subdir("live");
        let t_rep = Instant::now();
        let mut trainer = tr.span("mf-serve.live.bootstrap", |_| {
            LiveTrainer::bootstrap(
                Arc::new(RealFs),
                dir.clone(),
                self.model.clone(),
                CheckpointMeta { seed: 0, epoch: 0 },
                cfg,
            )
            .expect("bootstrap base snapshot")
        });
        let live = trainer.live();

        // Writer on this thread, one reader beside it.
        let stop = AtomicBool::new(false);
        let t_loop = Instant::now();
        let (steps, reader) = std::thread::scope(|s| {
            let reader = s.spawn(|| read_until(&stop, &live, &self.queries));
            let steps: Vec<Step> = (1..=sizes.epochs)
                .map(|epoch| self.step(&mut trainer, epoch, tr, report))
                .collect();
            stop.store(true, Ordering::Release);
            (steps, reader.join().expect("reader thread panicked"))
        });
        let loop_secs = t_loop.elapsed().as_secs_f64();
        report.check(!reader.went_backwards, || {
            format!("rep {ix}: the reader saw the serving epoch go backwards")
        });
        report.check(reader.answers > 0, || {
            format!("rep {ix}: the reader answered nothing")
        });
        report.check(trainer.acked_epoch() == sizes.epochs, || {
            format!(
                "rep {ix}: acked epoch {} after {} steps",
                trainer.acked_epoch(),
                sizes.epochs
            )
        });
        let model = trainer.model();
        report.check(
            model
                .p_raw()
                .iter()
                .chain(model.q_raw())
                .all(|x| x.is_finite()),
            || format!("rep {ix}: the live model holds non-finite factors"),
        );
        let lag_p99 = live.lag_stats().p99();
        drop(trainer); // the writer process is gone

        // The newest record is a delta (sizes keep `epochs` off the
        // snapshot cadence); tear it to a 100-byte prefix.
        let torn = dir.join(delta::delta_file_name(sizes.epochs));
        let bytes = std::fs::read(&torn).expect("read the newest delta");
        std::fs::write(&torn, &bytes[..100.min(bytes.len())]).expect("tear the newest delta");
        let total_bytes = dir_bytes(&dir);

        let recover = |tr: &mut Tracer| {
            let t0 = Instant::now();
            let rec = tr.span("mf-serve.delta.recover", |_| {
                delta::recover(&dir).expect("recover the live directory")
            });
            (rec, t0.elapsed().as_secs_f64())
        };
        let (mut recovery, recover_cold_s) = recover(tr);
        let mut recover_warm_s = Vec::with_capacity(sizes.warm_recovers);
        for _ in 0..sizes.warm_recovers {
            let (rec, secs) = recover(tr);
            recovery = rec;
            recover_warm_s.push(secs);
        }
        report.check(recovery.epoch() == sizes.epochs - 1, || {
            format!(
                "rep {ix}: recovered epoch {} instead of the last intact acked epoch {}",
                recovery.epoch(),
                sizes.epochs - 1
            )
        });
        let files_classified = recovery.notes.len();

        let mut trainer = tr.span("mf-serve.live.resume", |_| {
            LiveTrainer::resume(Arc::new(RealFs), dir.clone(), recovery, cfg)
        });
        // The torn epoch's own events are lost with the writer; the
        // resumed step re-runs that epoch number on the next batch.
        let resumed = {
            for ev in self.epoch_events(sizes.epochs + 1) {
                trainer.ingest(ev.user, ev.item, ev.rating);
            }
            tr.span("mf-serve.live.step", |_| trainer.step())
        };
        report.count(1, u64::from(!resumed.acked));
        report.check(resumed.acked && resumed.epoch == sizes.epochs, || {
            format!(
                "rep {ix}: resumed step gave epoch {} acked {}",
                resumed.epoch, resumed.acked
            )
        });
        let store = trainer.live().current();
        let wrong = self
            .queries
            .iter()
            .take(32)
            .filter(|q| {
                let mf_serve::QueryUser::Id(user) = q.user else {
                    return true;
                };
                let oracle = TopK {
                    items: trainer.model().recommend(user, &q.exclude, q.count),
                };
                store.serve_one(q) != oracle
            })
            .count();
        report.check(wrong == 0, || {
            format!("rep {ix}: {wrong} post-resume answers differ from Model::recommend")
        });
        Rep {
            rep_s: t_rep.elapsed().as_secs_f64(),
            steps,
            read_qps: reader.answers as f64 / loop_secs,
            reads: reader.answers,
            recover_cold_s,
            recover_warm_s,
            dir_bytes: total_bytes,
            files_classified,
            lag_p99,
        }
    }
}

impl Workload for LiveLoop {
    type Inputs = LiveInputs;
    type Run = LiveRun;

    fn name(&self) -> &'static str {
        "live_loop"
    }

    fn setup(&self, opts: &Opts, report: &mut Report) -> LiveInputs {
        let sizes = Sizes::of(opts.size);
        assert!(
            !sizes.epochs.is_multiple_of(sizes.snapshot_every),
            "the newest record must be a delta"
        );
        let model = Model::init(sizes.users, sizes.items, sizes.k, opts.seed);
        let events = ingest_stream(
            &IngestConfig::lifecycle(sizes.users, sizes.items, opts.seed),
            (sizes.epochs as usize + 1) * sizes.events_per_epoch,
        );
        // Readers ask for users known at bootstrap: every version serves
        // them.
        let queries: Vec<Query> = (0..1024u32)
            .map(|i| Query::top_k(i.wrapping_mul(2_654_435_761) % sizes.users, 10))
            .collect();
        report.note(format!(
            "{} users x {} items, k = {}, {} epochs x {} ingest events (10 % new users, 5 % new items), \
             snapshot every {}, 1 closed-loop reader, 1 cold + {} warm recovers",
            sizes.users,
            sizes.items,
            sizes.k,
            sizes.epochs,
            sizes.events_per_epoch,
            sizes.snapshot_every,
            sizes.warm_recovers
        ));
        LiveInputs {
            sizes,
            model,
            events,
            queries,
            scratch: Scratch::new("live_loop"),
        }
    }

    fn measure(
        &self,
        inp: &LiveInputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> LiveRun {
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < inp.sizes.min_reps || start.elapsed().as_secs_f64() < opts.seconds {
            let ix = reps.len() + 1;
            tr.set_rep(ix as u32);
            reps.push(tr.span("repetition", |tr| inp.repetition(ix, tr, report)));
        }
        report.count(reps.iter().map(|r| r.reads).sum(), 0);
        LiveRun { reps }
    }

    fn end_to_end(&self, run: &LiveRun, report: &mut Report) {
        let step_ms: Vec<f64> = run
            .reps
            .iter()
            .flat_map(|r| r.steps.iter().map(|s| s.secs * 1e3))
            .collect();
        let read_qps: Vec<f64> = run.reps.iter().map(|r| r.read_qps).collect();
        let recover_ms: Vec<f64> = run
            .reps
            .iter()
            .flat_map(|r| r.recover_warm_s.iter().map(|s| s * 1e3))
            .collect();
        let rep_s: Vec<f64> = run.reps.iter().map(|r| r.rep_s).collect();
        let step = report.set_samples("e2e.live_epoch_ms", &step_ms, Better::Lower);
        let reads = report.set_samples("e2e.live_read_qps", &read_qps, Better::Higher);
        report.set_samples("e2e.recover_ms", &recover_ms, Better::Lower);
        report.set("job_s", fastest(&rep_s));
        report.set("wait_ms", step);
        report.set("rate_per_s", reads);
    }

    fn layers(
        &self,
        inp: &LiveInputs,
        traced: &LiveRun,
        tr: &Tracer,
        _opts: &Opts,
        report: &mut Report,
    ) {
        let steps = || traced.reps.iter().flat_map(|r| r.steps.iter());
        let ms_of = |kind: RecordKind| {
            steps()
                .filter(|s| s.kind == kind)
                .map(|s| s.secs * 1e3)
                .collect::<Vec<_>>()
        };
        let all_ms: Vec<f64> = steps().map(|s| s.secs * 1e3).collect();
        report.set(
            "mf-serve.live.step_ms_delta_p50",
            median(&ms_of(RecordKind::Delta)),
        );
        report.set(
            "mf-serve.live.step_ms_snapshot_p50",
            median(&ms_of(RecordKind::Snapshot)),
        );
        report.set("mf-serve.live.step_ms_p99", percentile(&all_ms, 0.99));
        report.set(
            "mf-serve.live.lag_p99",
            traced.reps.iter().map(|r| r.lag_p99).max().unwrap_or(0) as f64,
        );
        let deltas: Vec<&Step> = steps().filter(|s| s.kind == RecordKind::Delta).collect();
        let delta_bytes: f64 = deltas.iter().map(|s| s.bytes as f64).sum();
        let delta_secs: f64 = deltas.iter().map(|s| s.secs).sum();
        report.set(
            "mf-serve.delta.bytes_per_epoch",
            delta_bytes / deltas.len().max(1) as f64,
        );
        // Record bytes over the whole step's wall (fold-in and training
        // included): what a publisher sustains, not the disk's rate.
        report.set("mf-serve.delta.write_mbs", delta_bytes / 1e6 / delta_secs);
        let warm = median(
            &traced
                .reps
                .iter()
                .flat_map(|r| r.recover_warm_s.iter().copied())
                .collect::<Vec<_>>(),
        );
        let first = &traced.reps[0];
        report.set(
            "mf-serve.delta.recover_mbs",
            first.dir_bytes as f64 / 1e6 / warm,
        );
        report.set(
            "mf-serve.delta.recover_cold_ms",
            median(
                &traced
                    .reps
                    .iter()
                    .map(|r| r.recover_cold_s * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "mf-serve.delta.files_classified",
            first.files_classified as f64,
        );
        report.set(
            "mf-serve.foldin.folded_rows",
            first.steps.iter().map(|s| f64::from(s.folded)).sum(),
        );
        report.set("trace.cover_frac", tr.child_cover("repetition"));
        machine::host().report(report);

        // Isolated replays. `LiveStore::publish` alone: prebuilt
        // full-size versions, only the swap timed.
        const SWAPS: u64 = 16;
        let t0 = Instant::now();
        let versions: Vec<FactorStore> = (1..=SWAPS + 1)
            .map(|epoch| FactorStore::new(inp.model.clone(), epoch))
            .collect();
        report.set(
            "mf-serve.store.build_s",
            t0.elapsed().as_secs_f64() / versions.len() as f64,
        );
        let mut versions = versions.into_iter();
        let live = LiveStore::new(versions.next().expect("SWAPS + 1 versions"));
        let swap_us: Vec<f64> = versions
            .map(|v| {
                let t0 = Instant::now();
                live.publish(v);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.set("mf-serve.live.swap_us_p99", percentile(&swap_us, 0.99));

        // One new-user fold-in solve on 20 ratings.
        let foldin = FoldIn::new(&inp.model);
        const SOLVES: u32 = 256;
        let t0 = Instant::now();
        for u in 0..SOLVES {
            let ratings: Vec<(u32, f32)> = (0..20u32)
                .map(|j| ((u * 131 + j * 17) % inp.sizes.items, 1.0 + (j % 5) as f32))
                .collect();
            black_box(foldin.new_user(&ratings));
        }
        report.set(
            "mf-serve.foldin.new_user_us",
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(SOLVES),
        );
    }

    fn rep_secs(&self, run: &LiveRun) -> f64 {
        fastest(&run.reps.iter().map(|r| r.rep_s).collect::<Vec<_>>())
    }
}
