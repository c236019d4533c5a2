//! Event scripts: the serialized form of one adversarial run.
//!
//! A script pins *everything* a run needs to replay bit-identically —
//! dataset shape, scheduler policy and geometry, worker counts, the
//! heavy-tailed latency model, and the injected fault/lie events — in a
//! line-oriented text format small enough to read in a failing CI log:
//!
//! ```text
//! hsgd-fuzz v1
//! seed 42
//! data users=64 items=48 train=3000 test=300
//! sched star nc=2 ng=1 alpha=0.5 steal_ratio=1.5
//! workers nc=2 ng=1
//! iters 3
//! latency alpha=1.5 cap=8
//! freeze gpu0 at=12 passes=30 factor=6
//! fail cpu1 at=40
//! lie at=20 cpu=inf gpu=0
//! observe at=50 cpu=1000000 gpu=50000000
//! ```
//!
//! Fault events are keyed by **completed block passes** (`at=`), not by
//! time: both execution worlds release passes in a well-defined order, so
//! a pass count is the one clock they share, and the same script replays
//! identically under the virtual-time DES and the real-thread exclusive
//! mode.

use std::fmt;
use std::str::FromStr;

use crate::rng::SplitMix;

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
        let parse = |rest: &str| {
            rest.parse::<u32>()
                .map_err(|_| format!("bad device index in {s:?}"))
        };
        if let Some(rest) = s.strip_prefix("cpu") {
            return Ok(DevId::Cpu(parse(rest)?));
        }
        if let Some(rest) = s.strip_prefix("gpu") {
            return Ok(DevId::Gpu(parse(rest)?));
        }
        Err(format!("unknown device {s:?} (want cpuN or gpuN)"))
    }
}

/// One injected hostile event. `at` is the completed-pass count at which
/// the event fires (applied at the release that reaches that count).
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
}

impl Event {
    /// The completed-pass count at which this event fires.
    pub fn at(&self) -> u64 {
        match *self {
            Event::Slow { at, .. }
            | Event::Freeze { at, .. }
            | Event::Fail { at, .. }
            | Event::Lie { at, .. }
            | Event::Observe { at, .. } => at,
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

/// A complete adversarial run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Master seed: dataset, model init, latency hashes.
    pub seed: u64,
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
    /// Injected events, any order (fired in `at` order, ties in listed
    /// order).
    pub events: Vec<Event>,
}

impl Script {
    /// Format magic — first line of every serialized script.
    pub const MAGIC: &'static str = "hsgd-fuzz v1";

    /// Total block passes this script schedules — the range event `at`
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

    /// Whether any event permanently kills a device — the only condition
    /// under which an early (stalled) end is legitimate.
    pub fn has_fail(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::Fail { .. }))
    }

    /// Draws a random hostile scenario from `seed`. Geometry is kept
    /// small (tens of blocks, a few thousand ratings) so a fuzz iteration
    /// runs in milliseconds; events are drawn so the run *should* still
    /// satisfy every invariant — any violation is a real bug. In
    /// particular every `Freeze` recovers, at most one device `Fail`s
    /// (leaving survivors to finish), and every `Lie` is followed by an
    /// `Observe` recovery probe.
    pub fn generate(seed: u64) -> Script {
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

        let mut script = Script {
            seed,
            data,
            sched,
            workers,
            iters,
            latency,
            events: Vec::new(),
        };
        let total = script.total_passes();
        let pick_dev = |rng: &mut SplitMix| {
            if workers.1 > 0 && rng.unit() < 0.6 {
                DevId::Gpu(rng.range(0, workers.1 as u64 - 1) as u32)
            } else {
                DevId::Cpu(rng.range(0, workers.0 as u64 - 1) as u32)
            }
        };
        let mut failed_once = false;
        for _ in 0..rng.range(0, 5) {
            let at = rng.range(1, (total * 3 / 4).max(2));
            match rng.range(0, 3) {
                0 => script.events.push(Event::Slow {
                    dev: pick_dev(&mut rng),
                    at,
                    factor: rng.range_f64(1.5, 10.0),
                }),
                1 => script.events.push(Event::Freeze {
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
                        script.events.push(Event::Fail {
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
                    script.events.push(Event::Lie { at, cpu, gpu });
                    script.events.push(Event::Observe {
                        at: (at + rng.range(2, 20)).min(total),
                        cpu: rng.range_f64(1e6, 1e7),
                        gpu: rng.range_f64(1e7, 1e8),
                    });
                }
            }
        }
        script
    }
}

fn write_f64(f: f64) -> String {
    // `{}` prints "inf"/"NaN", both of which `f64::from_str` accepts, and
    // enough digits to round-trip exactly.
    format!("{f}")
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", Script::MAGIC)?;
        writeln!(f, "seed {}", self.seed)?;
        let (u, i, tr, te) = self.data;
        writeln!(f, "data users={u} items={i} train={tr} test={te}")?;
        match &self.sched {
            SchedKind::Uniform { rows, cols, cap } => {
                writeln!(f, "sched uniform rows={rows} cols={cols} cap={cap}")?;
            }
            SchedKind::Star {
                nc,
                ng,
                alpha,
                steal_ratio,
            } => {
                writeln!(
                    f,
                    "sched star nc={nc} ng={ng} alpha={} steal_ratio={}",
                    write_f64(*alpha),
                    write_f64(*steal_ratio)
                )?;
            }
        }
        writeln!(f, "workers nc={} ng={}", self.workers.0, self.workers.1)?;
        writeln!(f, "iters {}", self.iters)?;
        if let Some(l) = &self.latency {
            writeln!(
                f,
                "latency alpha={} cap={}",
                write_f64(l.alpha),
                write_f64(l.cap)
            )?;
        }
        for e in &self.events {
            match e {
                Event::Slow { dev, at, factor } => {
                    writeln!(f, "slow {dev} at={at} factor={}", write_f64(*factor))?;
                }
                Event::Freeze {
                    dev,
                    at,
                    passes,
                    factor,
                } => {
                    writeln!(
                        f,
                        "freeze {dev} at={at} passes={passes} factor={}",
                        write_f64(*factor)
                    )?;
                }
                Event::Fail { dev, at } => writeln!(f, "fail {dev} at={at}")?,
                Event::Lie { at, cpu, gpu } => {
                    writeln!(
                        f,
                        "lie at={at} cpu={} gpu={}",
                        write_f64(*cpu),
                        write_f64(*gpu)
                    )?;
                }
                Event::Observe { at, cpu, gpu } => {
                    writeln!(
                        f,
                        "observe at={at} cpu={} gpu={}",
                        write_f64(*cpu),
                        write_f64(*gpu)
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// key=value accessor over one line's fields. Shared with the
/// IO-fault script parser ([`crate::iofault`]).
pub(crate) struct Fields<'a> {
    line: &'a str,
    parts: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    pub(crate) fn parse(line: &'a str, rest: &'a str) -> Result<Fields<'a>, String> {
        let mut parts = Vec::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?} in {line:?}"))?;
            parts.push((k, v));
        }
        Ok(Fields { line, parts })
    }

    pub(crate) fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let (_, v) = self
            .parts
            .iter()
            .find(|(k, _)| *k == key)
            .ok_or_else(|| format!("missing {key}= in {:?}", self.line))?;
        v.parse::<T>()
            .map_err(|_| format!("bad value for {key} in {:?}", self.line))
    }
}

impl FromStr for Script {
    type Err = String;

    fn from_str(s: &str) -> Result<Script, String> {
        let mut lines = s
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(Script::MAGIC) {
            return Err(format!("missing {:?} header", Script::MAGIC));
        }
        let mut seed = None;
        let mut data = None;
        let mut sched = None;
        let mut workers = None;
        let mut iters = None;
        let mut latency = None;
        let mut events = Vec::new();
        for line in lines {
            let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
            match word {
                "seed" => {
                    seed = Some(
                        rest.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed in {line:?}"))?,
                    );
                }
                "data" => {
                    let f = Fields::parse(line, rest)?;
                    data = Some((
                        f.get::<u32>("users")?,
                        f.get::<u32>("items")?,
                        f.get::<usize>("train")?,
                        f.get::<usize>("test")?,
                    ));
                }
                "sched" => {
                    let (kind, rest) = rest
                        .trim()
                        .split_once(' ')
                        .ok_or_else(|| format!("truncated sched line {line:?}"))?;
                    let f = Fields::parse(line, rest)?;
                    sched = Some(match kind {
                        "uniform" => SchedKind::Uniform {
                            rows: f.get("rows")?,
                            cols: f.get("cols")?,
                            cap: f.get("cap")?,
                        },
                        "star" => SchedKind::Star {
                            nc: f.get("nc")?,
                            ng: f.get("ng")?,
                            alpha: f.get("alpha")?,
                            steal_ratio: f.get("steal_ratio")?,
                        },
                        other => return Err(format!("unknown scheduler {other:?}")),
                    });
                }
                "workers" => {
                    let f = Fields::parse(line, rest)?;
                    workers = Some((f.get::<u32>("nc")?, f.get::<u32>("ng")?));
                }
                "iters" => {
                    iters = Some(
                        rest.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad iters in {line:?}"))?,
                    );
                }
                "latency" => {
                    let f = Fields::parse(line, rest)?;
                    latency = Some(Latency {
                        alpha: f.get("alpha")?,
                        cap: f.get("cap")?,
                    });
                }
                "slow" | "freeze" | "fail" => {
                    let (dev, rest) = rest
                        .trim()
                        .split_once(' ')
                        .ok_or_else(|| format!("truncated event line {line:?}"))?;
                    let dev: DevId = dev.parse()?;
                    let f = Fields::parse(line, rest)?;
                    events.push(match word {
                        "slow" => Event::Slow {
                            dev,
                            at: f.get("at")?,
                            factor: f.get("factor")?,
                        },
                        "freeze" => Event::Freeze {
                            dev,
                            at: f.get("at")?,
                            passes: f.get("passes")?,
                            factor: f.get("factor")?,
                        },
                        _ => Event::Fail {
                            dev,
                            at: f.get("at")?,
                        },
                    });
                }
                "lie" | "observe" => {
                    let f = Fields::parse(line, rest)?;
                    let (at, cpu, gpu) = (f.get("at")?, f.get("cpu")?, f.get("gpu")?);
                    events.push(if word == "lie" {
                        Event::Lie { at, cpu, gpu }
                    } else {
                        Event::Observe { at, cpu, gpu }
                    });
                }
                other => return Err(format!("unknown directive {other:?} in {line:?}")),
            }
        }
        Ok(Script {
            seed: seed.ok_or("missing seed line")?,
            data: data.ok_or("missing data line")?,
            sched: sched.ok_or("missing sched line")?,
            workers: workers.ok_or("missing workers line")?,
            iters: iters.ok_or("missing iters line")?,
            latency,
            events,
        })
    }
}

/// A constant XOR so `Script::generate(s)` and dataset seeds derived from
/// `s` don't collide with other consumers of the same seed.
const SCRIPT_SEED_SALT: u64 = 0xf0bb_5c41_9e1d_2277;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        for seed in 0..50u64 {
            let s = Script::generate(seed);
            let text = s.to_string();
            let back: Script = text.parse().unwrap_or_else(|e| {
                panic!("seed {seed}: parse failed: {e}\n{text}");
            });
            // NaN lies break PartialEq; compare the re-serialization.
            assert_eq!(text, back.to_string(), "seed {seed} round-trip");
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
        assert_eq!(s.workers, (2, 1));
        assert_eq!(s.events.len(), 3);
        assert!(matches!(
            s.events[1],
            Event::Lie { at: 20, cpu, gpu } if cpu.is_infinite() && gpu == 0.0
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Script>().is_err());
        assert!("hsgd-fuzz v1\nseed x\n".parse::<Script>().is_err());
        assert!("hsgd-fuzz v1\nseed 1\nwat 3\n".parse::<Script>().is_err());
    }

    #[test]
    fn generated_scripts_are_well_formed() {
        for seed in 0..100u64 {
            let s = Script::generate(seed);
            assert!(s.workers.0 >= 1, "seed {seed}: no CPU workers");
            assert!(s.total_passes() > 0);
            if let SchedKind::Star { ng, .. } = s.sched {
                assert!(s.workers.1 >= 1 && ng >= 1, "seed {seed}: star needs a GPU");
            }
            for e in &s.events {
                assert!(e.at() >= 1, "seed {seed}: event before first pass");
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
}
