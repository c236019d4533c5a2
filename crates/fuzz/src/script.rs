//! Fault scripts: the serialized form of one adversarial run.
//!
//! A script pins *everything* a run needs to replay bit-identically — a
//! seed, a **subject** (what the faults attack, with its geometry) and
//! the injected events — in a line-oriented text format small enough to
//! read in a failing CI log. Every event kind runs on one of two
//! deterministic clocks, and every subject owns exactly one of them:
//!
//! * **Completed block passes** drive the *scheduler* subject. Both
//!   execution worlds release passes in a well-defined order, so a pass
//!   count is the one clock they share, and the same script replays
//!   identically under the virtual-time DES and the real-thread exclusive
//!   mode:
//!
//!   ```text
//!   hsgd-fuzz v1
//!   seed 42
//!   data users=64 items=48 train=3000 test=300
//!   sched star nc=2 ng=1 alpha=0.5 steal_ratio=1.5
//!   workers nc=2 ng=1
//!   iters 3
//!   latency alpha=1.5 cap=8
//!   freeze gpu0 at=12 passes=30 factor=6
//!   lie at=20 cpu=inf gpu=0
//!   observe at=50 cpu=1000000 gpu=50000000
//!   ```
//!
//! * **Cumulative bytes written** drive the two storage subjects: the
//!   *lifecycle* (`mf_serve::live`'s snapshots, deltas and recovery) and,
//!   with a `subject arena` line, the *arena* (one MFCK v3 block arena on
//!   the out-of-core spill path). The storage path has no other
//!   deterministic clock:
//!
//!   ```text
//!   hsgd-fuzz io v1
//!   seed 42
//!   geometry users=32 items=48 k=8
//!   stream epochs=8 per_epoch=40 new_user_frac=0.1 new_item_frac=0.05
//!   snapshot every=3
//!   shortwrite at=5000 len=7
//!   bitflip at=20000 file=delta_epoch_00002.mfckd byte=517
//!   crash at=31000
//!   ```
//!
//! The magic first line picks the clock. An event of the other clock
//! fails to parse, with an error that names its line.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use mf_serve::{checkpoint, delta};

use crate::rng::SplitMix;

/// The two event clocks. Each subject runs on one, and so does each
/// event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Completed block passes: the scheduler subject.
    Passes,
    /// Cumulative bytes written: the lifecycle and arena subjects.
    Bytes,
}

impl Clock {
    /// The magic first line of a script on this clock.
    pub fn magic(self) -> &'static str {
        match self {
            Clock::Passes => "hsgd-fuzz v1",
            Clock::Bytes => "hsgd-fuzz io v1",
        }
    }
}

/// One device named by a script (`cpu0`, `gpu1`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevId {
    /// CPU worker `i` (0-based).
    Cpu(u32),
    /// GPU `g` (0-based).
    Gpu(u32),
}

impl fmt::Display for DevId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevId::Cpu(i) => write!(f, "cpu{i}"),
            DevId::Gpu(g) => write!(f, "gpu{g}"),
        }
    }
}

impl FromStr for DevId {
    type Err = String;

    fn from_str(s: &str) -> Result<DevId, String> {
        match (s.get(..3), s.get(3..).map(str::parse)) {
            (Some("cpu"), Some(Ok(i))) => Ok(DevId::Cpu(i)),
            (Some("gpu"), Some(Ok(g))) => Ok(DevId::Gpu(g)),
            _ => Err(format!("unknown device {s:?} (want cpuN or gpuN)")),
        }
    }
}

/// One injected hostile event. `at` is the value of the event's
/// [`Clock`] at which it fires: the completed-pass count for the first
/// five kinds (applied at the release that reaches it), the
/// bytes-written count for the last five (each fires at most once).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Permanently degrade `dev` by `factor` (completion times stretch).
    Slow {
        /// Target device.
        dev: DevId,
        /// Completed-pass trigger.
        at: u64,
        /// Slowdown multiplier (≥ 1 stretches).
        factor: f64,
    },
    /// Degrade `dev` by `factor` for `passes` completed passes, then
    /// restore it to full health — a transient freeze/recovery.
    Freeze {
        /// Target device.
        dev: DevId,
        /// Completed-pass trigger.
        at: u64,
        /// Duration of the freeze, in completed passes.
        passes: u64,
        /// Slowdown multiplier while frozen.
        factor: f64,
    },
    /// Permanently fail `dev`: it accepts no further work and its queue
    /// must drain back to the scheduler.
    Fail {
        /// Target device.
        dev: DevId,
        /// Completed-pass trigger.
        at: u64,
    },
    /// Feed pathological throughputs into the scheduler's
    /// `observe_throughput` seam — inverted rates, zeros, infinities.
    Lie {
        /// Completed-pass trigger.
        at: u64,
        /// Claimed CPU points/second.
        cpu: f64,
        /// Claimed GPU points/second.
        gpu: f64,
    },
    /// Feed *sane* measured throughputs and assert the policy's dynamic
    /// ratio re-converges to exactly `gpu/cpu` — the post-lie recovery
    /// check.
    Observe {
        /// Completed-pass trigger.
        at: u64,
        /// Measured CPU points/second.
        cpu: f64,
        /// Measured GPU points/second.
        gpu: f64,
    },
    /// The next `write` accepts at most `len` bytes — exercises the
    /// caller's retry path (`write_all` must finish the record).
    ShortWrite {
        /// Byte-clock trigger.
        at: u64,
        /// Bytes the throttled write accepts (0 = a `WriteZero` error,
        /// which fails the publish without crashing).
        len: usize,
    },
    /// One write fails with "no space left" — the publish fails, the
    /// epoch goes unacked, and the loop must keep going.
    Enospc {
        /// Byte-clock trigger.
        at: u64,
    },
    /// The storage dies exactly at byte `at`: the in-flight temporary
    /// keeps its accepted prefix as an orphan, nothing is renamed, and
    /// every later operation fails with [`crate::CRASH_MSG`].
    Crash {
        /// Byte-clock trigger (the kill is byte-exact).
        at: u64,
    },
    /// The rename itself tears: the *final* name appears holding only
    /// the first `keep` bytes (clamped to a proper prefix), then the
    /// storage dies. Recovery must classify the file as torn, never
    /// load it.
    TornRename {
        /// Byte-clock trigger, checked at commit time.
        at: u64,
        /// Bytes of the record that survive under the final name.
        keep: u64,
    },
    /// Silent corruption: one bit of committed file `file` flips when
    /// the clock passes `at` (no-op if the file doesn't exist yet).
    BitFlip {
        /// Byte-clock trigger.
        at: u64,
        /// Target file name within the subject's directory.
        file: String,
        /// Selects the flipped byte (`byte % file_len`) and bit
        /// (`byte % 8`).
        byte: u64,
    },
}

impl Event {
    /// The clock this kind of event runs on.
    pub fn clock(&self) -> Clock {
        match self {
            Event::Slow { .. }
            | Event::Freeze { .. }
            | Event::Fail { .. }
            | Event::Lie { .. }
            | Event::Observe { .. } => Clock::Passes,
            Event::ShortWrite { .. }
            | Event::Enospc { .. }
            | Event::Crash { .. }
            | Event::TornRename { .. }
            | Event::BitFlip { .. } => Clock::Bytes,
        }
    }

    /// Parses one event line; `None` when `word` names no event kind.
    fn parse(word: &str, f: &Fields<'_>) -> Result<Option<Event>, String> {
        Ok(Some(match word {
            "slow" => Event::Slow {
                dev: f.head()?,
                at: f.get("at")?,
                factor: f.get("factor")?,
            },
            "freeze" => Event::Freeze {
                dev: f.head()?,
                at: f.get("at")?,
                passes: f.get("passes")?,
                factor: f.get("factor")?,
            },
            "fail" => Event::Fail {
                dev: f.head()?,
                at: f.get("at")?,
            },
            "lie" | "observe" => {
                let (at, cpu, gpu) = (f.get("at")?, f.get("cpu")?, f.get("gpu")?);
                if word == "lie" {
                    Event::Lie { at, cpu, gpu }
                } else {
                    Event::Observe { at, cpu, gpu }
                }
            }
            "shortwrite" => Event::ShortWrite {
                at: f.get("at")?,
                len: f.get("len")?,
            },
            "enospc" => Event::Enospc { at: f.get("at")? },
            "crash" => Event::Crash { at: f.get("at")? },
            "tornrename" => Event::TornRename {
                at: f.get("at")?,
                keep: f.get("keep")?,
            },
            "bitflip" => Event::BitFlip {
                at: f.get("at")?,
                file: f.get("file")?,
                byte: f.get("byte")?,
            },
            _ => return Ok(None),
        }))
    }
}

impl fmt::Display for Event {
    /// One script line. `{}` prints floats as "inf"/"NaN", both of which
    /// `f64::from_str` accepts, with enough digits to round-trip exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Slow { dev, at, factor } => write!(f, "slow {dev} at={at} factor={factor}"),
            Event::Freeze {
                dev,
                at,
                passes,
                factor,
            } => write!(f, "freeze {dev} at={at} passes={passes} factor={factor}"),
            Event::Fail { dev, at } => write!(f, "fail {dev} at={at}"),
            Event::Lie { at, cpu, gpu } => write!(f, "lie at={at} cpu={cpu} gpu={gpu}"),
            Event::Observe { at, cpu, gpu } => write!(f, "observe at={at} cpu={cpu} gpu={gpu}"),
            Event::ShortWrite { at, len } => write!(f, "shortwrite at={at} len={len}"),
            Event::Enospc { at } => write!(f, "enospc at={at}"),
            Event::Crash { at } => write!(f, "crash at={at}"),
            Event::TornRename { at, keep } => write!(f, "tornrename at={at} keep={keep}"),
            Event::BitFlip { at, file, byte } => {
                write!(f, "bitflip at={at} file={file} byte={byte}")
            }
        }
    }
}

/// Scheduler policy + geometry under test.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedKind {
    /// `UniformScheduler` over a `rows × cols` grid.
    Uniform {
        /// Row bands.
        rows: u32,
        /// Column bands.
        cols: u32,
        /// Per-block pass cap on (FPSGD) vs off (HSGD).
        cap: bool,
    },
    /// `StarScheduler` over a `StarLayout`.
    Star {
        /// CPU threads the layout is built for.
        nc: u32,
        /// GPUs the layout is built for.
        ng: u32,
        /// Target GPU workload fraction.
        alpha: f64,
        /// Initial steal break-even ratio.
        steal_ratio: f64,
    },
}

/// The heavy-tailed per-task latency model (virtual world only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Pareto shape (smaller = heavier stragglers).
    pub alpha: f64,
    /// Upper bound on the multiplicative factor.
    pub cap: f64,
}

/// The scheduler subject's geometry: one small training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedSetup {
    /// Synthetic dataset shape: users, items, train nnz, test nnz.
    pub data: (u32, u32, usize, usize),
    /// Scheduler under test.
    pub sched: SchedKind,
    /// Devices driving it: CPU workers, GPUs.
    pub workers: (u32, u32),
    /// Passes per block.
    pub iters: u32,
    /// Optional adversarial latency model.
    pub latency: Option<Latency>,
}

impl SchedSetup {
    /// Total block passes this run schedules — the range event `at`
    /// keys should fall in.
    pub fn total_passes(&self) -> u64 {
        let blocks = match self.sched {
            SchedKind::Uniform { rows, cols, .. } => rows as u64 * cols as u64,
            SchedKind::Star { nc, ng, .. } => {
                let bands = 2 * (nc + ng) as u64 + ng as u64 * (nc + ng).div_ceil(ng) as u64;
                bands * (nc + 2 * ng + 1) as u64
            }
        };
        blocks * self.iters as u64
    }
}

/// The storage subjects' geometry: a bootstrap model and the rating
/// stream that grows it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSetup {
    /// Users at bootstrap.
    pub users: u32,
    /// Items at bootstrap.
    pub items: u32,
    /// Latent dimension.
    pub k: usize,
    /// Epochs the loop attempts before the (possibly early) end.
    pub epochs: u32,
    /// Ratings ingested per epoch.
    pub per_epoch: usize,
    /// Fraction of events naming an unseen user.
    pub new_user_frac: f64,
    /// Fraction of events naming an unseen item.
    pub new_item_frac: f64,
    /// Re-basing snapshot cadence (`mf_serve::live::LiveConfig::snapshot_every`).
    pub snapshot_every: u64,
}

/// What a script's faults attack.
#[derive(Debug, Clone, PartialEq)]
pub enum Subject {
    /// The HSGD\* schedulers, replayed in both execution worlds under
    /// the invariant monitor.
    Scheduler(SchedSetup),
    /// The live train-and-serve loop: snapshots, deltas, recovery.
    Lifecycle(StoreSetup),
    /// The out-of-core training path: one MFCK v3 block arena, written
    /// and spill-read through the faulted filesystem.
    Arena(StoreSetup),
}

impl Subject {
    /// The clock this subject's events run on.
    pub fn clock(&self) -> Clock {
        match self {
            Subject::Scheduler(_) => Clock::Passes,
            Subject::Lifecycle(_) | Subject::Arena(_) => Clock::Bytes,
        }
    }
}

/// A complete adversarial run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Master seed: dataset or stream, model init, latency hashes.
    pub seed: u64,
    /// What the events attack.
    pub subject: Subject,
    /// Injected events, all on the subject's clock, any order (fired in
    /// `at` order, ties in listed order).
    pub events: Vec<Event>,
}

impl Script {
    /// Draws a random hostile scenario on `clock` from `seed`: a
    /// scheduler script for [`Clock::Passes`], a lifecycle or arena
    /// script for [`Clock::Bytes`]. Geometry is kept small so a fuzz
    /// iteration runs in milliseconds, and events are drawn so the run
    /// *should* still satisfy every invariant — any violation is a real
    /// bug.
    pub fn generate(seed: u64, clock: Clock) -> Script {
        match clock {
            Clock::Passes => generate_sched(seed),
            Clock::Bytes => generate_store(seed),
        }
    }
}

/// Every `Freeze` recovers, at most one device `Fail`s (leaving
/// survivors to finish), and every `Lie` is followed by an `Observe`
/// recovery probe.
fn generate_sched(seed: u64) -> Script {
    let mut rng = SplitMix::new(seed ^ SCRIPT_SEED_SALT);
    let workers_nc = rng.range(1, 3) as u32;
    let workers_ng = rng.range(0, 1) as u32;
    let star = workers_ng >= 1 && rng.unit() < 0.7;
    let (sched, workers) = if star {
        (
            SchedKind::Star {
                nc: workers_nc,
                ng: workers_ng,
                alpha: rng.range_f64(0.2, 0.8),
                steal_ratio: rng.range_f64(0.0, 3.0),
            },
            (workers_nc, workers_ng),
        )
    } else {
        (
            SchedKind::Uniform {
                rows: rng.range(3, 6) as u32,
                cols: rng.range(3, 6) as u32,
                cap: rng.unit() < 0.8,
            },
            (workers_nc.max(1), workers_ng),
        )
    };
    let data = (
        rng.range(32, 96) as u32,
        rng.range(32, 96) as u32,
        rng.range(1500, 4000) as usize,
        rng.range(150, 400) as usize,
    );
    let iters = rng.range(2, 4) as u32;
    let latency = (rng.unit() < 0.7).then(|| Latency {
        alpha: rng.range_f64(1.1, 3.0),
        cap: rng.range_f64(4.0, 16.0),
    });
    let setup = SchedSetup {
        data,
        sched,
        workers,
        iters,
        latency,
    };

    let total = setup.total_passes();
    let pick_dev = |rng: &mut SplitMix| {
        if workers.1 > 0 && rng.unit() < 0.6 {
            DevId::Gpu(rng.range(0, workers.1 as u64 - 1) as u32)
        } else {
            DevId::Cpu(rng.range(0, workers.0 as u64 - 1) as u32)
        }
    };
    let mut events = Vec::new();
    let mut failed_once = false;
    for _ in 0..rng.range(0, 5) {
        let at = rng.range(1, (total * 3 / 4).max(2));
        match rng.range(0, 3) {
            0 => events.push(Event::Slow {
                dev: pick_dev(&mut rng),
                at,
                factor: rng.range_f64(1.5, 10.0),
            }),
            1 => events.push(Event::Freeze {
                dev: pick_dev(&mut rng),
                at,
                passes: rng.range(3, 30),
                factor: rng.range_f64(2.0, 12.0),
            }),
            2 if !failed_once => {
                // Only GPUs fail in generated scripts: a survivor class
                // is guaranteed (CPU workers always exist), so the run
                // must still complete via the drain + steal path.
                if workers.1 > 0 {
                    failed_once = true;
                    events.push(Event::Fail {
                        dev: DevId::Gpu(rng.range(0, workers.1 as u64 - 1) as u32),
                        at,
                    });
                }
            }
            _ => {
                // A lie followed by a recovery observation.
                let menu = [
                    (0.0, 1e9),           // zero CPU rate
                    (1e9, 0.0),           // zero GPU rate
                    (f64::INFINITY, 1e3), // infinite CPU rate
                    (1e3, f64::INFINITY), // infinite GPU rate
                    (f64::NAN, f64::NAN), // garbage
                    (5e8, 1e3),           // inverted: CPU ≫ GPU
                    (1e-3, 1e12),         // absurd spread
                ];
                let (cpu, gpu) = menu[rng.range(0, menu.len() as u64 - 1) as usize];
                events.push(Event::Lie { at, cpu, gpu });
                events.push(Event::Observe {
                    at: (at + rng.range(2, 20)).min(total),
                    cpu: rng.range_f64(1e6, 1e7),
                    gpu: rng.range_f64(1e7, 1e8),
                });
            }
        }
    }
    Script {
        seed,
        subject: Subject::Scheduler(setup),
        events,
    }
}

/// One to three storage faults, at most one of them crash-class (a
/// crash or a torn rename), so every scenario ends in one kill at most.
fn generate_store(seed: u64) -> Script {
    let mut rng = SplitMix::new(seed ^ IO_SCRIPT_SEED_SALT);
    let users = rng.range(24, 64) as u32;
    let items = rng.range(32, 96) as u32;
    let k = rng.range(4, 12) as usize;
    let epochs = rng.range(5, 12) as u32;
    let per_epoch = rng.range(20, 60) as usize;
    let snapshot_every = rng.range(2, 6);
    // Rough bytes-per-record bound (the model roughly doubles by
    // fold-in over a run); events land somewhere inside the run.
    let est_total = (epochs as u64 + 1) * (72 + 2 * (users as u64 + items as u64) * k as u64 * 4);
    let mut events = Vec::new();
    let mut fatal = false;
    for _ in 0..rng.range(1, 3) {
        let at = rng.range(1, est_total);
        match rng.range(0, 4) {
            0 => events.push(Event::ShortWrite {
                at,
                len: rng.range(1, 4096) as usize,
            }),
            1 => events.push(Event::Enospc { at }),
            2 if !fatal => {
                fatal = true;
                events.push(Event::Crash { at });
            }
            3 if !fatal => {
                fatal = true;
                events.push(Event::TornRename {
                    at,
                    keep: rng.range(0, 4096),
                });
            }
            _ => {
                let epoch = rng.range(1, epochs as u64);
                let file = if rng.unit() < 0.5 || !epoch.is_multiple_of(snapshot_every) {
                    delta::delta_file_name(epoch)
                } else {
                    checkpoint::epoch_file_name(epoch)
                };
                events.push(Event::BitFlip {
                    at,
                    file,
                    byte: rng.range(0, 1 << 17),
                });
            }
        }
    }
    let setup = StoreSetup {
        users,
        items,
        k,
        epochs,
        per_epoch,
        new_user_frac: rng.range_f64(0.0, 0.15),
        new_item_frac: rng.range_f64(0.0, 0.15),
        snapshot_every,
    };
    // Subject drawn *last* so lifecycle scenarios for a given seed are
    // unchanged by the arena subject's existence.
    let subject = if rng.unit() < 0.35 {
        // The arena is a far smaller artifact than a whole lifecycle
        // run; rescale the byte-clock triggers so faults land inside the
        // write (or just past it, where bit flips strike the committed
        // file).
        let arena_est = setup.epochs as u64 * setup.per_epoch as u64 * 12 + 600;
        for e in &mut events {
            if let Event::ShortWrite { at, .. }
            | Event::Enospc { at }
            | Event::Crash { at }
            | Event::TornRename { at, .. }
            | Event::BitFlip { at, .. } = e
            {
                *at = *at % arena_est + 1;
            }
        }
        Subject::Arena(setup)
    } else {
        Subject::Lifecycle(setup)
    };
    Script {
        seed,
        subject,
        events,
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.subject.clock().magic())?;
        writeln!(f, "seed {}", self.seed)?;
        match &self.subject {
            Subject::Scheduler(s) => {
                let (u, i, tr, te) = s.data;
                writeln!(f, "data users={u} items={i} train={tr} test={te}")?;
                match &s.sched {
                    SchedKind::Uniform { rows, cols, cap } => {
                        writeln!(f, "sched uniform rows={rows} cols={cols} cap={cap}")?;
                    }
                    SchedKind::Star {
                        nc,
                        ng,
                        alpha,
                        steal_ratio,
                    } => writeln!(
                        f,
                        "sched star nc={nc} ng={ng} alpha={alpha} steal_ratio={steal_ratio}"
                    )?,
                }
                writeln!(f, "workers nc={} ng={}", s.workers.0, s.workers.1)?;
                writeln!(f, "iters {}", s.iters)?;
                if let Some(l) = &s.latency {
                    writeln!(f, "latency alpha={} cap={}", l.alpha, l.cap)?;
                }
            }
            Subject::Lifecycle(s) | Subject::Arena(s) => {
                if matches!(self.subject, Subject::Arena(_)) {
                    writeln!(f, "subject arena")?;
                }
                writeln!(f, "geometry users={} items={} k={}", s.users, s.items, s.k)?;
                writeln!(
                    f,
                    "stream epochs={} per_epoch={} new_user_frac={} new_item_frac={}",
                    s.epochs, s.per_epoch, s.new_user_frac, s.new_item_frac
                )?;
                writeln!(f, "snapshot every={}", s.snapshot_every)?;
            }
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// One script line after its directive word: a bare head for the
/// directives that take one (`star`, `gpu0`, `arena`, `7`), then
/// `key=value` pairs. Every error it reports names the line.
struct Fields<'a> {
    n: usize,
    text: &'a str,
    head: Option<&'a str>,
    pairs: Vec<(&'a str, &'a str)>,
    /// `read[i]`: a lookup has asked for `pairs[i]`.
    read: Vec<Cell<bool>>,
}

impl<'a> Fields<'a> {
    fn parse(n: usize, text: &'a str, word: &str, rest: &'a str) -> Result<Fields<'a>, String> {
        let mut toks = rest.split_whitespace();
        let takes_head = [
            "seed", "iters", "sched", "subject", "slow", "freeze", "fail",
        ];
        let head = takes_head.contains(&word).then(|| toks.next()).flatten();
        let mut f = Fields {
            n,
            text,
            head,
            pairs: Vec::new(),
            read: Vec::new(),
        };
        for tok in toks {
            let pair = tok.split_once('=');
            f.pairs
                .push(pair.ok_or_else(|| f.err(format!("expected key=value, got {tok:?}")))?);
        }
        f.read = vec![Cell::new(false); f.pairs.len()];
        Ok(f)
    }

    fn err(&self, e: String) -> String {
        format!("line {} {:?}: {e}", self.n, self.text)
    }

    fn head<T: FromStr>(&self) -> Result<T, String> {
        let v = self.head.ok_or_else(|| self.err("missing value".into()))?;
        v.parse().map_err(|_| self.err(format!("bad value {v:?}")))
    }

    fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let at = self.pairs.iter().position(|(k, _)| *k == key);
        let at = at.ok_or_else(|| self.err(format!("missing {key}=")))?;
        self.read[at].set(true);
        self.pairs[at]
            .1
            .parse()
            .map_err(|_| self.err(format!("bad value for {key}")))
    }

    /// Fails on the first key no lookup asked for: a misspelt, repeated
    /// or foreign key would otherwise be dropped without a word.
    fn all_read(&self) -> Result<(), String> {
        match self.pairs.iter().zip(&self.read).find(|(_, r)| !r.get()) {
            Some(((k, _), _)) => Err(self.err(format!("unexpected key {k:?}"))),
            None => Ok(()),
        }
    }
}

impl FromStr for Script {
    type Err = String;

    fn from_str(s: &str) -> Result<Script, String> {
        let mut lines = s
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let clock = match lines.next() {
            Some((_, l)) if l == Clock::Passes.magic() => Clock::Passes,
            Some((_, l)) if l == Clock::Bytes.magic() => Clock::Bytes,
            _ => {
                let (p, b) = (Clock::Passes.magic(), Clock::Bytes.magic());
                return Err(format!("missing {p:?} or {b:?} header"));
            }
        };
        let header_words: &[&str] = match clock {
            Clock::Passes => &["seed", "data", "sched", "workers", "iters", "latency"],
            Clock::Bytes => &["seed", "subject", "geometry", "stream", "snapshot"],
        };
        let mut header = HashMap::new();
        let mut events = Vec::new();
        for (n, text) in lines {
            let (word, rest) = text.split_once(' ').unwrap_or((text, ""));
            let f = Fields::parse(n, text, word, rest)?;
            if let Some(event) = Event::parse(word, &f)? {
                if event.clock() != clock {
                    let want = event.clock().magic();
                    return Err(f.err(format!("{word} belongs in a {want:?} script")));
                }
                f.all_read()?;
                events.push(event);
            } else if header_words.contains(&word) {
                header.insert(word, f);
            } else {
                return Err(f.err(format!("unknown directive {word:?}")));
            }
        }
        let line = |word: &str| header.get(word).ok_or(format!("missing {word} line"));
        let subject = match clock {
            Clock::Passes => {
                let (d, s, w) = (line("data")?, line("sched")?, line("workers")?);
                Subject::Scheduler(SchedSetup {
                    data: (
                        d.get("users")?,
                        d.get("items")?,
                        d.get("train")?,
                        d.get("test")?,
                    ),
                    sched: match s.head {
                        Some("uniform") => SchedKind::Uniform {
                            rows: s.get("rows")?,
                            cols: s.get("cols")?,
                            cap: s.get("cap")?,
                        },
                        Some("star") => SchedKind::Star {
                            nc: s.get("nc")?,
                            ng: s.get("ng")?,
                            alpha: s.get("alpha")?,
                            steal_ratio: s.get("steal_ratio")?,
                        },
                        other => return Err(s.err(format!("unknown scheduler {other:?}"))),
                    },
                    workers: (w.get("nc")?, w.get("ng")?),
                    iters: line("iters")?.head()?,
                    latency: match header.get("latency") {
                        Some(l) => Some(Latency {
                            alpha: l.get("alpha")?,
                            cap: l.get("cap")?,
                        }),
                        None => None,
                    },
                })
            }
            Clock::Bytes => {
                let (g, st) = (line("geometry")?, line("stream")?);
                let setup = StoreSetup {
                    users: g.get("users")?,
                    items: g.get("items")?,
                    k: g.get("k")?,
                    epochs: st.get("epochs")?,
                    per_epoch: st.get("per_epoch")?,
                    new_user_frac: st.get("new_user_frac")?,
                    new_item_frac: st.get("new_item_frac")?,
                    snapshot_every: line("snapshot")?.get("every")?,
                };
                match header.get("subject").map(|f| (f, f.head)) {
                    None | Some((_, Some("lifecycle"))) => Subject::Lifecycle(setup),
                    Some((_, Some("arena"))) => Subject::Arena(setup),
                    Some((f, other)) => return Err(f.err(format!("unknown subject {other:?}"))),
                }
            }
        };
        let seed = line("seed")?.head()?;
        let mut header: Vec<&Fields<'_>> = header.values().collect();
        header.sort_by_key(|f| f.n);
        for f in header {
            f.all_read()?;
        }
        Ok(Script {
            seed,
            subject,
            events,
        })
    }
}

/// A constant XOR so scheduler scripts and dataset seeds derived from
/// `seed` don't collide with other consumers of the same seed.
const SCRIPT_SEED_SALT: u64 = 0xf0bb_5c41_9e1d_2277;

/// Domain-separates storage-script generation from scheduler-script
/// generation under the same master seed.
const IO_SCRIPT_SEED_SALT: u64 = 0x7d3a_9c15_e842_06bf;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        for clock in [Clock::Passes, Clock::Bytes] {
            for seed in 0..50u64 {
                let s = Script::generate(seed, clock);
                let text = s.to_string();
                let back: Script = text.parse().unwrap_or_else(|e| {
                    panic!("{clock:?} seed {seed}: parse failed: {e}\n{text}");
                });
                // NaN lies break PartialEq; compare the re-serialization.
                assert_eq!(text, back.to_string(), "{clock:?} seed {seed} round-trip");
            }
        }
    }

    #[test]
    fn parses_hand_written_script() {
        let text = "hsgd-fuzz v1\n\
                    # a comment\n\
                    seed 7\n\
                    data users=64 items=48 train=3000 test=300\n\
                    sched star nc=2 ng=1 alpha=0.5 steal_ratio=1.5\n\
                    workers nc=2 ng=1\n\
                    iters 3\n\
                    latency alpha=1.5 cap=8\n\
                    freeze gpu0 at=12 passes=30 factor=6\n\
                    lie at=20 cpu=inf gpu=0\n\
                    observe at=50 cpu=1000000 gpu=50000000\n";
        let s: Script = text.parse().expect("parse");
        assert_eq!(s.seed, 7);
        let Subject::Scheduler(setup) = &s.subject else {
            panic!("not a scheduler script: {s:?}");
        };
        assert_eq!(setup.workers, (2, 1));
        assert_eq!(s.events.len(), 3);
        assert!(matches!(
            s.events[1],
            Event::Lie { at: 20, cpu, gpu } if cpu.is_infinite() && gpu == 0.0
        ));
    }

    #[test]
    fn parses_hand_written_io_script() {
        let text = "hsgd-fuzz io v1\n\
                    # lifecycle scenario\n\
                    seed 9\n\
                    geometry users=32 items=48 k=8\n\
                    stream epochs=6 per_epoch=30 new_user_frac=0.1 new_item_frac=0.05\n\
                    snapshot every=3\n\
                    shortwrite at=100 len=7\n\
                    bitflip at=5000 file=delta_epoch_00002.mfckd byte=517\n\
                    crash at=9000\n";
        let s: Script = text.parse().expect("parse");
        assert_eq!(s.seed, 9);
        let Subject::Lifecycle(setup) = &s.subject else {
            panic!("not a lifecycle script: {s:?}");
        };
        assert_eq!((setup.users, setup.items, setup.k), (32, 48, 8));
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[2], Event::Crash { at: 9000 }));
        let arena: Script = text
            .replace("seed 9\n", "seed 9\nsubject arena\n")
            .parse()
            .expect("parse arena");
        assert!(matches!(arena.subject, Subject::Arena(_)));
    }

    #[test]
    fn rejects_garbage() {
        let sched = "hsgd-fuzz v1\nseed 1\ndata users=8 items=8 train=9 test=1\n\
                     sched uniform rows=2 cols=2 cap=true\nworkers nc=1 ng=0\niters 1\n";
        let store = "hsgd-fuzz io v1\nseed 1\ngeometry users=8 items=8 k=2\n\
                     stream epochs=2 per_epoch=5 new_user_frac=0 new_item_frac=0\n\
                     snapshot every=2\n";
        assert!(sched.parse::<Script>().is_ok() && store.parse::<Script>().is_ok());
        assert!("".parse::<Script>().is_err());
        assert!("hsgd-fuzz v1\nseed x\n".parse::<Script>().is_err());
        assert!("hsgd-fuzz v1\nseed 1\nwat 3\n".parse::<Script>().is_err());
        assert!(format!("{store}crash junk at=5\n")
            .parse::<Script>()
            .is_err());
        // A key no directive reads is an error naming the line and the
        // key, in events and header lines alike.
        for (text, names, key) in [
            (
                format!("{sched}slow cpu0 at=3 factor=2 facter=9\n"),
                "line 7",
                "facter",
            ),
            (format!("{sched}fail gpu0 at=3 at=4\n"), "line 7", "at"),
            (
                sched.replace("iters 1", "iters 1 epochs=2"),
                "line 6",
                "epochs",
            ),
            (format!("{store}crash at=5 keep=1\n"), "line 6", "keep"),
        ] {
            let err = text.parse::<Script>().expect_err(names);
            let unexpected = format!("unexpected key {key:?}");
            assert!(
                err.starts_with(names) && err.ends_with(&unexpected),
                "{err}"
            );
        }
        for line in ["geometry", "stream", "snapshot"] {
            let text: String = store
                .lines()
                .filter(|l| !l.starts_with(line))
                .map(|l| format!("{l}\n"))
                .collect();
            let err = text.parse::<Script>().expect_err(line);
            assert!(err.contains(line), "{line}: {err}");
        }
        let err = format!("{store}subject spill\n")
            .parse::<Script>()
            .expect_err("unknown subject");
        assert!(err.starts_with("line 6") && err.contains("spill"), "{err}");
    }

    #[test]
    fn rejects_events_from_the_other_clock() {
        let cases = [
            (
                "hsgd-fuzz v1\nseed 1\ndata users=8 items=8 train=9 test=1\n\
                 sched uniform rows=2 cols=2 cap=true\nworkers nc=1 ng=0\niters 1\n\
                 \ncrash at=5\n",
                "line 8 \"crash at=5\"",
            ),
            (
                "hsgd-fuzz io v1\nseed 1\ngeometry users=8 items=8 k=2\n\
                 stream epochs=2 per_epoch=5 new_user_frac=0 new_item_frac=0\n\
                 snapshot every=2\nfail gpu0 at=3\n",
                "line 6 \"fail gpu0 at=3\"",
            ),
        ];
        for (text, names_line) in cases {
            let err = text.parse::<Script>().expect_err(names_line);
            assert!(
                err.starts_with(names_line) && err.contains("belongs in"),
                "{names_line}: {err}"
            );
        }
    }

    #[test]
    fn generated_scripts_are_well_formed() {
        for seed in 0..100u64 {
            let s = Script::generate(seed, Clock::Passes);
            let Subject::Scheduler(setup) = &s.subject else {
                panic!("seed {seed}: not a scheduler script");
            };
            assert!(setup.workers.0 >= 1, "seed {seed}: no CPU workers");
            assert!(setup.total_passes() > 0);
            if let SchedKind::Star { ng, .. } = setup.sched {
                assert!(
                    setup.workers.1 >= 1 && ng >= 1,
                    "seed {seed}: star needs a GPU"
                );
            }
            for e in &s.events {
                let (Event::Slow { at, .. }
                | Event::Freeze { at, .. }
                | Event::Fail { at, .. }
                | Event::Lie { at, .. }
                | Event::Observe { at, .. }) = e
                else {
                    panic!("seed {seed}: {e} is not a completed-pass event");
                };
                assert!(*at >= 1, "seed {seed}: event before first pass");
            }
            // Every lie has a later (or equal) observe recovery.
            for (i, e) in s.events.iter().enumerate() {
                if let Event::Lie { at, .. } = e {
                    assert!(
                        s.events[i + 1..]
                            .iter()
                            .any(|e| matches!(e, Event::Observe { at: o, .. } if o >= at)),
                        "seed {seed}: lie without recovery observe"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_io_scripts_are_well_formed() {
        for seed in 0..100u64 {
            let s = Script::generate(seed, Clock::Bytes);
            let (Subject::Lifecycle(setup) | Subject::Arena(setup)) = &s.subject else {
                panic!("seed {seed}: not a storage script");
            };
            assert!(
                setup.users >= 1 && setup.items >= 1 && setup.k >= 1,
                "seed {seed}"
            );
            assert!(setup.snapshot_every >= 1, "seed {seed}");
            assert!(!s.events.is_empty(), "seed {seed}: no faults generated");
            let fatal = s
                .events
                .iter()
                .filter(|e| matches!(e, Event::Crash { .. } | Event::TornRename { .. }))
                .count();
            assert!(fatal <= 1, "seed {seed}: {fatal} crash-class events");
        }
    }
}
