//! What every workload has in common: options, the measuring protocol
//! (set-up, an untraced pass, optionally a traced pass), scratch space.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::Report;
use crate::stats::Better;
use crate::trace::Tracer;

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The committed sizes (see the README).
    Full,
    /// Seconds-long preset for `tests/smoke.rs`: same code paths, same
    /// checks, toy inputs.
    Smoke,
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Drives every generator: same seed, same inputs.
    pub seed: u64,
    /// How long each measuring pass runs.
    pub seconds: f64,
    /// Whether to add the traced pass and the isolated replays.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// Set-up is repeated at least this often for `setup_s` …
const SETUP_MIN_REPS: usize = 3;
/// … and, while it is cheap, until this many seconds or this many
/// repetitions are spent: a 10 ms set-up needs more samples than a
/// half-second one before its best is steady.
const SETUP_BUDGET_SECS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 20;

/// One named workload. `measure` is the same code traced and untraced;
/// only the tracer it is handed differs.
pub trait Workload {
    /// Generated inputs (and anything built from them before timing).
    type Inputs;
    /// Raw samples and counts of one measuring pass.
    type Run;

    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Generates every input from `opts.seed`.
    fn setup(&self, opts: &Opts, report: &mut Report) -> Self::Inputs;

    /// Measures for `opts.seconds`, checking outputs as it goes.
    fn measure(
        &self,
        inputs: &Self::Inputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Self::Run;

    /// Sets the end-to-end metrics from the untraced pass.
    fn end_to_end(&self, run: &Self::Run, report: &mut Report);

    /// Sets the per-layer metrics from the traced pass and runs the
    /// isolated replays.
    fn layers(
        &self,
        inputs: &Self::Inputs,
        traced: &Self::Run,
        tr: &Tracer,
        opts: &Opts,
        report: &mut Report,
    );

    /// Wall seconds of the fastest repetition — what
    /// `trace.overhead_frac` compares between the two passes.
    fn rep_secs(&self, run: &Self::Run) -> f64;
}

/// Runs `w` under the protocol and returns its report plus the traced
/// pass's spans (when tracing).
pub fn run<W: Workload>(w: &W, opts: &Opts) -> (Report, Option<Tracer>) {
    let mut report = Report::new(w.name());

    // Set-up is repeated so `setup_s` is the best of several, not one
    // sample; the last set of inputs is the one measured.
    let setup_start = Instant::now();
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    while setup_secs.len() < SETUP_MIN_REPS
        || (setup_secs.len() < SETUP_MAX_REPS
            && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
    {
        drop(inputs.take());
        let mut notes = Report::new(w.name());
        let t0 = Instant::now();
        inputs = Some(w.setup(opts, &mut notes));
        setup_secs.push(t0.elapsed().as_secs_f64());
        report.notes = notes.notes;
    }
    let inputs = inputs.expect("SETUP_MIN_REPS >= 1");
    report.set_samples("setup_s", &setup_secs, Better::Lower);

    let base = w.measure(&inputs, opts, &mut Tracer::new(false), &mut report);
    w.end_to_end(&base, &mut report);

    let tracer = opts.trace.then(|| {
        let mut tr = Tracer::new(true);
        // The traced pass repeats the checks but must not double-count
        // operations: `attempted`/`failed` describe one pass.
        let mut side = Report::new(w.name());
        let traced = w.measure(&inputs, opts, &mut tr, &mut side);
        report.problems.append(&mut side.problems);
        w.layers(&inputs, &traced, &tr, opts, &mut report);
        let (off, on) = (w.rep_secs(&base), w.rep_secs(&traced));
        report.set("trace.overhead_frac", (on - off) / off);
        tr
    });
    (report, tracer)
}

/// Where scratch goes when `MF_SPILL_DIR` is unset (git-ignored).
const DEFAULT_SCRATCH: &str = ".bench_scratch";

/// A per-process scratch directory, removed on drop (so on success, on
/// failed checks, and on unwinding alike). Lives under `MF_SPILL_DIR`
/// when set, else under `.bench_scratch/` in the working directory — the
/// benchmark writes nowhere else.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `…/<pid>_<tag>`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created: without scratch space
    /// no storage workload can run.
    pub fn new(tag: &str) -> Scratch {
        let base = std::env::var_os(mf_sparse::arena::ENV_DIR)
            .map_or_else(|| PathBuf::from(DEFAULT_SCRATCH), PathBuf::from);
        let dir = base.join(format!("{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", dir.display()));
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory `name`.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Best effort: drop our own parent too once it is empty (never a
        // directory the user named).
        if let Some(parent) = self.0.parent() {
            if parent.ends_with(DEFAULT_SCRATCH) {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }
}
