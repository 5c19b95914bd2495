//! What a workload hands back to `main`, and the bookkeeping every
//! workload shares: repeated set-up, per-pass layer accounting for the
//! traced run, and the process's peak memory.

use std::time::Instant;

use emx::core::EnergyMacroModel;
use emx::obs::json::Value;
use emx::obs::Collector;

use crate::stats::median;

/// How one invocation was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured time budget, seconds.
    pub seconds: f64,
    /// `true` for the traced run, which reports per-layer metrics.
    pub trace: bool,
}

/// The committed macro-model. `calibrate` must reproduce it byte for
/// byte; `explore` and `serve` price with it.
pub const COMMITTED_MODEL: &str = include_str!("../../model.txt");

/// Parses [`COMMITTED_MODEL`] (the "model load" of every set-up).
///
/// # Errors
///
/// When the committed text does not parse.
pub fn committed_model() -> Result<EnergyMacroModel, String> {
    EnergyMacroModel::from_text(COMMITTED_MODEL).map_err(|e| format!("model.txt: {e}"))
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload's unit of work).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Facts that explain a delta without re-running: sizes, counts,
    /// sample counts.
    pub context: Vec<(String, Value)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one context fact.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.context.push((key.to_owned(), value.into()));
    }

    /// Counts `attempted` operations of which `failed` failed, with the
    /// reason when any did.
    pub fn ops(&mut self, attempted: usize, failed: usize, why: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.problems.push(why());
        }
    }

    /// Records a failed check that is not tied to a counted operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// The wall times of a run's [`SETUP_REPEATS`] set-ups. The first
/// set-up makes the run's inputs; the others are spread over the run,
/// between passes, so that `setup_s` samples the same host conditions
/// as the passes rather than those of the run's first moments. Their
/// median is `setup_s`, so one slow set-up cannot move it.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs and times one set-up.
    ///
    /// # Errors
    ///
    /// The set-up's failure.
    pub fn run<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (made, took) = timed(setup);
        self.0.push(took);
        made
    }

    /// Between passes: runs and times one more set-up, dropping what it
    /// made, when fewer than the share of [`SETUP_REPEATS`] that
    /// `elapsed` of `budget` seconds calls for have run.
    ///
    /// # Errors
    ///
    /// The set-up's failure.
    pub fn between<T>(
        &mut self,
        elapsed: f64,
        budget: f64,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        let due = (SETUP_REPEATS as f64 * elapsed / budget).ceil() as usize;
        if self.0.len() < due.min(SETUP_REPEATS) {
            self.run(setup)?;
        }
        Ok(())
    }

    /// Runs the set-ups still missing, then returns the median time.
    ///
    /// # Errors
    ///
    /// The first set-up failure.
    pub fn median<T>(
        mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<f64, String> {
        while self.0.len() < SETUP_REPEATS {
            self.run(&mut setup)?;
        }
        Ok(median(&self.0))
    }
}

/// Reports `phase<n>_s`, the median of the phase's raw samples, with
/// their count (`phase<n>_samples`) as context.
pub fn phase_metric(out: &mut Outcome, n: usize, samples: &[f64]) {
    out.metric(format!("phase{n}_s"), median(samples), "s");
    out.note(&format!("phase{n}_samples"), samples.len());
}

/// Layer times and counts of one traced pass, in first-recorded order.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    values: Vec<(String, f64, &'static str)>,
}

impl Pass {
    /// Adds `value` to the metric `name` (created at zero).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 += value,
            None => self.values.push((name.to_owned(), value, unit)),
        }
    }

    /// Times `f` and adds its wall time, in seconds, to `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, took) = timed(f);
        self.add(name, took, "s");
        out
    }

    /// Adds every value of `other` into this pass.
    pub fn merge(&mut self, other: &Pass) {
        for (name, value, unit) in &other.values {
            self.add(name, *value, unit);
        }
    }

    /// The accumulated value of `name` (zero if never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Adds the summed durations of the closed spans `obs` recorded
    /// under each `(span, metric)` name pair, in seconds.
    pub fn add_spans(&mut self, obs: &Collector, names: &[(&str, &str)]) {
        let spans = obs.spans();
        for (span, metric) in names {
            let us: u64 = spans
                .iter()
                .filter(|s| s.name == *span)
                .map(|s| s.dur_us)
                .sum();
            self.add(metric, us as f64 / 1e6, "s");
        }
    }

    /// The accounting check of one phase: the self-times of the layers
    /// it calls one after another must sum to no more than its wall
    /// time. Records the unattributed remainder as
    /// `unattributed_s.<phase>` and a problem if the sum overshoots.
    pub fn account(&mut self, phase: &str, wall_s: f64, layers: &[&str], out: &mut Outcome) {
        let attributed: f64 = layers.iter().map(|name| self.get(name)).sum();
        // Span durations are whole microseconds; allow their rounding.
        if attributed > wall_s + 1e-3 {
            out.problem(format!(
                "layer accounting: {phase} layers {layers:?} sum to {attributed:.6} s, \
                 more than the phase's {wall_s:.6} s wall time"
            ));
        }
        self.add(&format!("unattributed_s.{phase}"), wall_s - attributed, "s");
    }
}

/// The per-layer metrics of a traced run: each name's median over the
/// traced passes.
pub fn layer_metrics(passes: &[Pass], out: &mut Outcome) {
    let Some(first) = passes.first() else { return };
    for (name, _, unit) in &first.values {
        let values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
        out.metric(name.clone(), median(&values), unit);
    }
}

/// `obs.trace_overhead_pct`: how much slower the median traced pass was
/// than the median untraced pass of the same run.
pub fn trace_overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// A scratch directory under the working directory (the checkout),
/// removed with everything in it when dropped.
pub struct WorkDir(std::path::PathBuf);

impl WorkDir {
    /// Creates `.perfbench-work-<pid>-<n>`, unique within the process.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new() -> Result<WorkDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::path::PathBuf::from(format!(".perfbench-work-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// A path for `name` inside the directory.
    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
