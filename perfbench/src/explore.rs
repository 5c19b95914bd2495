//! The `explore` workload: the design-space loop of docs/GUIDE.md §4–5.
//!
//! The seed picks `K` of the candidates discovered on the rs1
//! Reed–Solomon build, with pairwise-disjoint sites. One pass is
//!
//! 1. **cold:** `discover::discover`, `bridge::candidate_space`,
//!    `dse::explore` with an empty cache, `EstimationCache::save` —
//!    the ISS-extraction and serial enumeration path (writes);
//! 2. **warm:** `EstimationCache::load_or_recover`, then `dse::explore`
//!    again with the same model — the same `dse` layer the other way
//!    round (reads, zero ISS runs).
//!
//! The cold pass is phase 1 (`phase1_s`), the warm pass phase 2
//! (`phase2_s`).
//!
//! Operation unit: one candidate evaluation.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use emx::core::EnergyMacroModel;
use emx::discover::report::Report;
use emx::discover::{bridge, discover, DiscoverConfig};
use emx::dse::{self, CandidateEstimator, CandidateSpace, EstimationCache, Exploration};
use emx::isa::Program;
use emx::obs::Collector;
use emx::rtlpower::Energy;
use emx::sim::{ExecStats, ProcConfig, SimError};
use emx::tie::ExtensionSet;
use emx::workloads::{registry, Workload};

use crate::bench::{self, layer_metrics, secs, timed, Outcome, Pass, RunSpec, SetupTimes, WorkDir};
use crate::gen;
use crate::stats::median;

/// Options per space: `2^K` = 128 candidates, every one a survivor.
/// The seed commit's warm pass grows quadratically with cache entries;
/// at K = 7 it stays near 0.5 s, so a run holds dozens of passes.
pub const K: usize = 7;

/// The Reed–Solomon build. Fixed, not seeded: the builds differ by up
/// to 1.7x in instructions simulated per candidate, so a seeded build
/// would spread the cold pass's time across seeds by more than any bound.
pub const RS_BUILD: &str = "rs1";

/// Worker threads for discovery and evaluation: the benchmark targets a
/// two-core machine.
pub const JOBS: usize = 2;

/// What one pass needs, made by the set-up.
pub struct Inputs {
    /// The committed model.
    pub model: EnergyMacroModel,
    /// The Reed–Solomon build.
    pub base: Workload,
    /// Indices of the seeded candidates in the discovery report.
    pub picked: Vec<usize>,
    /// The set-up's discovery report; every pass must rediscover it.
    pub report: String,
}

fn discover_config() -> DiscoverConfig {
    DiscoverConfig {
        jobs: JOBS,
        ..DiscoverConfig::default()
    }
}

/// Set-up: model load, build assembly, and the discovery run the seed
/// picks `k` candidates from.
///
/// # Errors
///
/// When the build does not assemble or discover, or has too few
/// disjoint candidates.
pub fn setup(seed: u64, k: usize) -> Result<Inputs, String> {
    let model = bench::committed_model()?;
    let base = registry::by_name(RS_BUILD).ok_or_else(|| format!("no workload `{RS_BUILD}`"))?;
    let report = discover(&base, &discover_config()).map_err(|e| format!("discover: {e}"))?;
    let members: Vec<BTreeSet<usize>> = report
        .candidates
        .iter()
        .map(|c| {
            c.sites
                .iter()
                .flat_map(|s| s.members.iter().copied())
                .collect()
        })
        .collect();
    let picked = gen::disjoint_subset(seed, &members, k)
        .ok_or_else(|| format!("{RS_BUILD}: fewer than {k} disjoint candidates"))?;
    Ok(Inputs {
        model,
        base,
        picked,
        report: report.to_json().to_string(),
    })
}

/// The seeded candidates of `report`, in rank order.
fn subset(report: &Report, picked: &[usize]) -> Report {
    let mut sub = report.clone();
    sub.candidates = picked
        .iter()
        .map(|&i| report.candidates[i].clone())
        .collect();
    sub
}

/// The outputs of a cold pass, for the warm pass and the checks.
pub struct Cold {
    /// This pass's discovery report.
    pub report: Report,
    /// The candidate space it built.
    pub space: CandidateSpace,
    /// The cold exploration.
    pub exploration: Exploration,
    /// The cache it saved.
    pub cache: EstimationCache,
}

/// The cold pass. `obs` receives the engine's spans, `layers` the
/// discovery, space and save times.
///
/// # Errors
///
/// Discovery, space, enumeration or save failures.
pub fn cold_pass<E: CandidateEstimator>(
    inputs: &Inputs,
    estimator: &E,
    cache_path: &str,
    obs: &mut Collector,
    layers: &mut Pass,
) -> Result<Cold, String> {
    let report = layers
        .time("discover.discover_s", || {
            discover(&inputs.base, &discover_config())
        })
        .map_err(|e| format!("discover: {e}"))?;
    let space = layers.time("discover.space_s", || {
        bridge::candidate_space(&subset(&report, &inputs.picked), inputs.picked.len())
    })?;
    let mut cache = EstimationCache::new();
    let config = ProcConfig::default();
    let exploration = dse::explore_with(estimator, &space, None, &config, JOBS, &mut cache, obs)
        .map_err(|e| format!("cold explore: {e}"))?;
    layers
        .time("dse.cache_save_s", || cache.save(cache_path))
        .map_err(|e| format!("cache save: {e}"))?;
    Ok(Cold {
        report,
        space,
        exploration,
        cache,
    })
}

/// The warm pass over the cache the cold pass saved.
///
/// # Errors
///
/// A cache the recovery path cannot read, or an enumeration failure.
pub fn warm_pass<E: CandidateEstimator + ?Sized>(
    estimator: &E,
    space: &CandidateSpace,
    cache_path: &str,
    obs: &mut Collector,
    layers: &mut Pass,
) -> Result<(Exploration, Option<String>), String> {
    let (mut cache, recovery) = layers
        .time("dse.cache_load_s", || {
            EstimationCache::load_or_recover(cache_path)
        })
        .map_err(|e| format!("cache load: {e}"))?;
    let config = ProcConfig::default();
    let exploration = dse::explore_with(estimator, space, None, &config, JOBS, &mut cache, obs)
        .map_err(|e| format!("warm explore: {e}"))?;
    Ok((exploration, recovery.map(|r| r.to_string())))
}

/// The space's option table, as `emx-dse` passes it to the report.
pub fn options(space: &CandidateSpace) -> Vec<(String, f64)> {
    space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect()
}

/// The checks on one cold/warm pair, as candidate evaluations that
/// failed: every failed candidate, every warm row that differs from its
/// cold row, and every warm candidate that was re-simulated. Also
/// requires the two `emx.dse-report/1` renderings to be byte-identical.
pub fn check_pair(
    cold: &Exploration,
    warm: &Exploration,
    options: &[(String, f64)],
) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let mut failed = cold.failed.len() + warm.failed.len();
    for f in cold.failed.iter().chain(&warm.failed) {
        problems.push(format!("candidate {} failed: {}", f.name, f.error));
    }
    let cold_rows = dse::report::inputs(cold, options).candidates;
    let warm_rows = dse::report::inputs(warm, options).candidates;
    let differing = cold_rows
        .iter()
        .zip(&warm_rows)
        .filter(|(c, w)| c != w)
        .count()
        + cold_rows.len().abs_diff(warm_rows.len());
    if differing > 0 {
        failed += differing;
        problems.push(format!("{differing} warm row(s) differ from the cold pass"));
    }
    if warm.evaluated != 0 {
        failed += warm.evaluated;
        problems.push(format!(
            "warm pass re-simulated {} candidate(s)",
            warm.evaluated
        ));
    }
    let cold_bytes = dse::report::to_json(cold, options).to_string();
    let warm_bytes = dse::report::to_json(warm, options).to_string();
    if cold_bytes != warm_bytes {
        problems.push("warm emx.dse-report/1 is not byte-identical to the cold one".to_owned());
    }
    (failed, problems)
}

/// A [`CandidateEstimator`] that times every call into the wrapped one
/// and counts the instructions its extractions simulate. Fingerprints
/// are forwarded, so it shares cache entries with the wrapped estimator.
pub struct Timing<'a, E> {
    inner: &'a E,
    extract_ns: AtomicU64,
    extract_calls: AtomicU64,
    extract_insts: AtomicU64,
    price_ns: AtomicU64,
    price_calls: AtomicU64,
}

impl<'a, E: CandidateEstimator> Timing<'a, E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a E) -> Self {
        Timing {
            inner,
            extract_ns: AtomicU64::new(0),
            extract_calls: AtomicU64::new(0),
            extract_insts: AtomicU64::new(0),
            price_ns: AtomicU64::new(0),
            price_calls: AtomicU64::new(0),
        }
    }

    /// Seconds spent in `extract`, summed over the worker threads.
    pub fn extract_s(&self) -> f64 {
        self.extract_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `extract` calls.
    pub fn extract_calls(&self) -> f64 {
        self.extract_calls.load(Ordering::Relaxed) as f64
    }

    /// Instructions the extractions simulated.
    pub fn extract_insts(&self) -> f64 {
        self.extract_insts.load(Ordering::Relaxed) as f64
    }

    /// Seconds spent in `price`.
    pub fn price_s(&self) -> f64 {
        self.price_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `price` calls.
    pub fn price_calls(&self) -> f64 {
        self.price_calls.load(Ordering::Relaxed) as f64
    }
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

impl<E: CandidateEstimator> CandidateEstimator for Timing<'_, E> {
    fn extract(
        &self,
        program: &Program,
        ext: &ExtensionSet,
        config: ProcConfig,
    ) -> Result<ExecStats, SimError> {
        let start = Instant::now();
        let stats = self.inner.extract(program, ext, config);
        add_elapsed(&self.extract_ns, start);
        self.extract_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(stats) = &stats {
            self.extract_insts
                .fetch_add(stats.inst_count, Ordering::Relaxed);
        }
        stats
    }

    fn price(&self, stats: &ExecStats) -> (Energy, u64) {
        let start = Instant::now();
        let priced = self.inner.price(stats);
        add_elapsed(&self.price_ns, start);
        self.price_calls.fetch_add(1, Ordering::Relaxed);
        priced
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn pricing_fingerprint(&self) -> u64 {
        self.inner.pricing_fingerprint()
    }
}

/// Instructions the cold pass's extractions simulated.
fn extracted_insts(cache: &EstimationCache) -> u64 {
    cache.entries().map(|(_, e)| e.stats.inst_count).sum()
}

/// One cold/warm pair and what the checks need from it.
struct Pair {
    cold_s: f64,
    warm_s: f64,
    cold: Cold,
    warm: Exploration,
    /// What the warm pass's cache load had to recover, if anything.
    recovery: Option<String>,
}

/// One untraced cold/warm pair.
fn plain_pair(inputs: &Inputs, cache_path: &str) -> Result<Pair, String> {
    let mut obs = Collector::disabled();
    let mut layers = Pass::default();
    let (cold, cold_s) =
        timed(|| cold_pass(inputs, &inputs.model, cache_path, &mut obs, &mut layers));
    let cold = cold?;
    let (warm, warm_s) = timed(|| {
        warm_pass(
            &inputs.model,
            &cold.space,
            cache_path,
            &mut obs,
            &mut layers,
        )
    });
    let (warm, recovery) = warm?;
    Ok(Pair {
        cold_s,
        warm_s,
        cold,
        warm,
        recovery,
    })
}

/// One traced cold/warm pair and its per-layer split.
fn traced_pair(
    inputs: &Inputs,
    cache_path: &str,
    out: &mut Outcome,
) -> Result<(Pair, Pass), String> {
    let cold_timing = Timing::new(&inputs.model);
    let mut cold_obs = Collector::new();
    let mut cold_layers = Pass::default();
    let (cold, cold_s) = timed(|| {
        cold_pass(
            inputs,
            &cold_timing,
            cache_path,
            &mut cold_obs,
            &mut cold_layers,
        )
    });
    let cold = cold?;

    let warm_timing = Timing::new(&inputs.model);
    let mut warm_obs = Collector::new();
    let mut warm_layers = Pass::default();
    let (warm, warm_s) = timed(|| {
        warm_pass(
            &warm_timing,
            &cold.space,
            cache_path,
            &mut warm_obs,
            &mut warm_layers,
        )
    });
    let (warm, recovery) = warm?;

    // The JSON parse the reload pays for, alone, on the same text.
    let text = std::fs::read_to_string(cache_path).map_err(|e| format!("{cache_path}: {e}"))?;
    let ((), parse_s) = timed(|| {
        std::hint::black_box(emx::obs::json::Value::parse(&text)).ok();
    });

    cold_layers.add_spans(
        &cold_obs,
        &[
            ("dse.enumerate", "dse.enumerate_s.cold"),
            ("dse.evaluate", "dse.evaluate_s.cold"),
        ],
    );
    cold_layers.account(
        "phase1",
        cold_s,
        &[
            "discover.discover_s",
            "discover.space_s",
            "dse.enumerate_s.cold",
            "dse.evaluate_s.cold",
            "dse.cache_save_s",
        ],
        out,
    );
    warm_layers.add_spans(
        &warm_obs,
        &[
            ("dse.enumerate", "dse.enumerate_s.warm"),
            ("dse.evaluate", "dse.evaluate_s.warm"),
        ],
    );
    warm_layers.account(
        "phase2",
        warm_s,
        &[
            "dse.cache_load_s",
            "dse.enumerate_s.warm",
            "dse.evaluate_s.warm",
        ],
        out,
    );

    let c = &cold.exploration;
    let extract_s = cold_timing.extract_s();
    let insts = cold_timing.extract_insts();
    let mut pass = cold_layers;
    pass.add(
        "discover.candidates",
        cold.report.candidates.len() as f64,
        "count",
    );
    pass.add("dse.enumerated", c.enumeration.enumerated as f64, "count");
    pass.add("dse.pruned", c.enumeration.pruned as f64, "count");
    pass.add("dse.survivors", c.survivors_total as f64, "count");
    pass.add("dse.extract_s", extract_s, "s");
    pass.add("dse.extract_calls", cold_timing.extract_calls(), "count");
    pass.add("sim.iss_s", extract_s, "s");
    pass.add("sim.iss_insts", insts, "count");
    pass.add("sim.iss_ns_per_inst", extract_s / insts * 1e9, "ns");
    let evaluate_s = pass.get("dse.evaluate_s.cold");
    pass.add(
        "dse.worker_busy_ratio",
        extract_s / (evaluate_s * JOBS as f64),
        "ratio",
    );
    pass.add("dse.cache_hit_ratio.cold", hit_ratio(c), "ratio");
    pass.merge(&warm_layers);
    pass.add("dse.price_s", warm_timing.price_s(), "s");
    pass.add("dse.price_calls", warm_timing.price_calls(), "count");
    pass.add("dse.cache_hit_ratio.warm", hit_ratio(&warm), "ratio");
    pass.add("dse.cache_bytes", text.len() as f64, "bytes");
    pass.add("obs.json_parse_s", parse_s, "s");
    let pair = Pair {
        cold_s,
        warm_s,
        cold,
        warm,
        recovery,
    };
    Ok((pair, pass))
}

fn hit_ratio(e: &Exploration) -> f64 {
    e.reused as f64 / (e.reused + e.evaluated).max(1) as f64
}

/// Runs the workload for `spec.seconds`.
///
/// # Errors
///
/// Set-up failures and pass failures that leave nothing to check.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.run(|| setup(spec.seed, K))?;
    let work = WorkDir::new()?;
    let cache_path = work.file("dse-cache.json");
    let mut out = Outcome::default();

    let mut cold_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut ns_per_inst = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes = Vec::new();
    let mut last = None;

    let start = Instant::now();
    let min_passes = if spec.trace { 4 } else { 2 };
    let mut i = 0usize;
    while i < min_passes || secs(start) < spec.seconds {
        let traced = spec.trace && i % 2 == 1;
        i += 1;
        let pair = if traced {
            let (pair, pass) = traced_pair(&inputs, &cache_path, &mut out)?;
            passes.push(pass);
            traced_s.push(pair.cold_s + pair.warm_s);
            pair
        } else {
            let pair = plain_pair(&inputs, &cache_path)?;
            untraced_s.push(pair.cold_s + pair.warm_s);
            pair
        };
        std::fs::remove_file(&cache_path).map_err(|e| format!("{cache_path}: {e}"))?;

        let options = options(&pair.cold.space);
        let (failed, mut problems) = check_pair(&pair.cold.exploration, &pair.warm, &options);
        if let Some(recovery) = &pair.recovery {
            problems.push(format!("the saved cache needed recovery: {recovery}"));
        }
        if pair.cold.report.to_json().to_string() != inputs.report {
            problems.push("discovery report differs from the set-up's".to_owned());
        }
        let attempted = pair.cold.exploration.survivors_total + pair.warm.survivors_total;
        out.ops(attempted, failed, || problems.join("; "));
        if failed == 0 && !problems.is_empty() {
            out.problem(problems.join("; "));
        }
        if !traced {
            let insts = extracted_insts(&pair.cold.cache);
            cold_s.push(pair.cold_s);
            warm_s.push(pair.warm_s);
            ns_per_inst.push(pair.cold_s / insts as f64 * 1e9);
        }
        last = Some(pair.cold);
        setups.between(secs(start), spec.seconds, || setup(spec.seed, K))?;
    }

    let cold = last.expect("at least one pass ran");
    let names: Vec<&str> = cold
        .space
        .options()
        .iter()
        .map(|o| o.name.as_str())
        .collect();
    out.note("rs_build", cold.report.workload.as_str());
    out.note("candidates", names.join("+"));
    out.note("survivors", cold.exploration.survivors_total);
    out.note("cache_entries", cold.cache.len());
    out.note("cache_bytes", cold.cache.to_json().to_string().len() + 1);
    out.note("insts_per_cold_pass", extracted_insts(&cold.cache));
    out.note("passes", i);
    if spec.trace {
        layer_metrics(&passes, &mut out);
        let isa_s = timed(|| registry::by_name(cold.report.workload.as_str())).1;
        out.metric("isa.assemble_s", isa_s, "s");
        out.metric(
            "obs.trace_overhead_pct",
            bench::trace_overhead_pct(&untraced_s, &traced_s),
            "%",
        );
    } else {
        out.metric("setup_s", setups.median(|| setup(spec.seed, K))?, "s");
        bench::phase_metric(&mut out, 1, &cold_s);
        bench::phase_metric(&mut out, 2, &warm_s);
        out.metric("host_ns_per_inst", median(&ns_per_inst), "ns");
        out.metric("peak_rss_mb", bench::peak_rss_mib()?, "MiB");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prices one picojoule above the wrapped model.
    struct PerturbedPrice<'a>(&'a EnergyMacroModel);

    impl CandidateEstimator for PerturbedPrice<'_> {
        fn extract(
            &self,
            program: &Program,
            ext: &ExtensionSet,
            config: ProcConfig,
        ) -> Result<ExecStats, SimError> {
            self.0.extract(program, ext, config)
        }

        fn price(&self, stats: &ExecStats) -> (Energy, u64) {
            let (energy, cycles) = self.0.price(stats);
            (
                Energy::from_picojoules(energy.as_picojoules() + 1.0),
                cycles,
            )
        }

        fn fingerprint(&self) -> u64 {
            self.0.fingerprint()
        }
    }

    /// Extracts like the wrapped model but under another fingerprint, so
    /// none of the cold pass's cache entries match.
    struct OtherFingerprint<'a>(&'a EnergyMacroModel);

    impl CandidateEstimator for OtherFingerprint<'_> {
        fn extract(
            &self,
            program: &Program,
            ext: &ExtensionSet,
            config: ProcConfig,
        ) -> Result<ExecStats, SimError> {
            self.0.extract(program, ext, config)
        }

        fn price(&self, stats: &ExecStats) -> (Energy, u64) {
            self.0.price(stats)
        }

        fn fingerprint(&self) -> u64 {
            self.0.fingerprint() ^ 1
        }
    }

    /// A cold pass with the model, then a warm pass with `warm`; returns
    /// the check's verdict.
    fn pair_checked(
        warm: impl FnOnce(&EnergyMacroModel) -> Box<dyn CandidateEstimator + '_>,
    ) -> (usize, Vec<String>) {
        let inputs = setup(1, 3).expect("set-up");
        let work = WorkDir::new().expect("scratch directory");
        let path = work.file("cache.json");
        let cold = cold_pass(
            &inputs,
            &inputs.model,
            &path,
            &mut Collector::disabled(),
            &mut Pass::default(),
        )
        .expect("cold pass");
        let estimator = warm(&inputs.model);
        let (warm, recovery) = warm_pass(
            &*estimator,
            &cold.space,
            &path,
            &mut Collector::disabled(),
            &mut Pass::default(),
        )
        .expect("warm pass");
        assert_eq!(recovery, None);
        assert_eq!(
            cold.exploration.survivors_total, 8,
            "3 disjoint options give 2^3 survivors"
        );
        check_pair(&cold.exploration, &warm, &options(&cold.space))
    }

    #[test]
    fn an_honest_warm_pass_passes() {
        let (failed, problems) = pair_checked(|m| Box::new(m));
        assert_eq!(failed, 0, "{problems:?}");
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn a_perturbed_price_fails_every_candidate() {
        let (failed, problems) = pair_checked(|m| Box::new(PerturbedPrice(m)));
        assert_eq!(failed, 8, "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("byte-identical")),
            "{problems:?}"
        );
    }

    #[test]
    fn a_warm_pass_that_resimulates_fails() {
        let (failed, problems) = pair_checked(|m| Box::new(OtherFingerprint(m)));
        assert_eq!(failed, 8, "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("re-simulated")),
            "{problems:?}"
        );
    }

    #[test]
    fn the_seed_picks_the_option_subset() {
        let a = setup(1, K).expect("set-up").picked;
        let b = setup(2, K).expect("set-up").picked;
        assert_eq!(a.len(), K);
        assert_ne!(a, b);
    }
}
