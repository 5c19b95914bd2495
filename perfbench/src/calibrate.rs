//! The `calibrate` workload: the once-per-processor flow.
//!
//! One pass characterizes the processor over the fixed 63-program
//! training suite with its coverage gate (as `emx-characterize` does),
//! then prices a seeded differential-fuzz campaign through
//! `fuzz::build` and `fuzz::differential`. The RTL-level reference is
//! most of both; `explore` and `serve` never call it. The
//! characterization is phase 1 (`phase1_s`), the campaign phase 2
//! (`phase2_s`).
//!
//! Operation unit: one training case or one fuzz case.

use std::time::Instant;

use emx::core::{Characterizer, EnergyMacroModel};
use emx::coverage::{analyze, Thresholds};
use emx::isa::Program;
use emx::obs::Collector;
use emx::rtlpower::RtlEnergyEstimator;
use emx::sim::{Interp, ProcConfig};
use emx::tie::ExtensionSet;
use emx::validate::fuzz::{self, BuiltCase, FuzzCase, FuzzConfig};
use emx::workloads::{suite, Workload};

use crate::bench::{self, layer_metrics, secs, timed, Outcome, Pass, RunSpec, SetupTimes};
use crate::gen;
use crate::stats::median;

/// Recipes per fuzz campaign. A recipe's loop runs 8–256 times, so the
/// campaign's work and mean error vary with the seed; 800 recipes keep
/// both within a few percent from seed to seed.
pub const FUZZ_CASES: usize = 800;

/// Cycle budget of every simulation, as in `RtlEnergyEstimator::estimate`.
const MAX_CYCLES: u64 = u32::MAX as u64;

/// What one pass needs, made by the set-up.
pub struct Inputs {
    /// The committed model the fuzz campaign prices with.
    pub model: EnergyMacroModel,
    /// The assembled training suite.
    pub suite: Vec<Workload>,
    /// The seeded fuzz recipes.
    pub recipes: Vec<FuzzCase>,
}

/// Set-up: model load, suite assembly, recipe generation.
///
/// # Errors
///
/// When the committed model does not parse.
pub fn setup(seed: u64) -> Result<Inputs, String> {
    Ok(Inputs {
        model: bench::committed_model()?,
        suite: suite::full_training_suite(),
        recipes: gen::fuzz_recipes(seed, FUZZ_CASES),
    })
}

/// The outputs of one characterization, for checking.
pub struct Characterized {
    /// The fitted model.
    pub model: EnergyMacroModel,
    /// Coverage-gate failures (empty when the gate passes).
    pub coverage_gaps: Vec<String>,
}

/// One characterization plus its coverage gate, as `emx-characterize`
/// runs it. `obs` receives the characterizer's own spans; `layers`
/// receives the coverage analysis time.
///
/// # Errors
///
/// When characterization or the coverage analysis fails outright.
pub fn characterize(
    inputs: &Inputs,
    obs: &mut Collector,
    layers: &mut Pass,
) -> Result<Characterized, String> {
    let cases = suite::training_cases(&inputs.suite);
    let (result, _, dataset) = Characterizer::new(ProcConfig::default())
        .characterize_with_dataset(&cases, obs)
        .map_err(|e| format!("characterization failed: {e}"))?;
    let analysis = layers
        .time("coverage.analyze_s", || {
            analyze(&dataset, &Thresholds::default())
        })
        .map_err(|e| format!("coverage analysis failed: {e}"))?;
    Ok(Characterized {
        model: result.model,
        coverage_gaps: analysis.failures(),
    })
}

/// The check on one characterization: the fitted model must render
/// byte-identical to the committed `model.txt`, and the coverage gate
/// must pass. Returns the failures.
pub fn check_characterized(c: &Characterized) -> Vec<String> {
    let mut problems = c.coverage_gaps.clone();
    if c.model.to_text() != bench::COMMITTED_MODEL {
        problems.push("fitted model differs from the committed model.txt".to_owned());
    }
    problems
}

/// One priced fuzz case: `(macro-model pJ, reference pJ)`.
pub type Priced = (f64, f64);

/// The fuzz campaign through the library's own differential path.
pub fn fuzz_campaign(model: &EnergyMacroModel, recipes: &[FuzzCase]) -> Vec<Priced> {
    recipes
        .iter()
        .map(|case| {
            let (model_pj, ref_pj, _) = fuzz::differential(model, &fuzz::build(case));
            (model_pj, ref_pj)
        })
        .collect()
}

/// The same campaign with each layer call timed: `fuzz::differential`
/// split into the two public calls it makes. Its prices must equal the
/// untraced campaign's.
///
/// # Errors
///
/// A simulation failure on either path.
pub fn fuzz_campaign_traced(
    model: &EnergyMacroModel,
    recipes: &[FuzzCase],
    obs: &mut Collector,
    layers: &mut Pass,
) -> Result<Vec<Priced>, String> {
    let reference = RtlEnergyEstimator::new();
    let mut prices = Vec::with_capacity(recipes.len());
    for case in recipes {
        let built = layers.time("tie.compile_s", || fuzz::build(case));
        if !built.ext.is_empty() {
            layers.add("tie.extensions", 1.0, "count");
        }
        let config = ProcConfig::default();
        let est = layers
            .time("sim.iss_s", || {
                model.estimate(&built.program, &built.ext, config.clone())
            })
            .map_err(|e| format!("fuzz case on the ISS: {e}"))?;
        layers.add("sim.iss_insts", est.stats.inst_count as f64, "count");
        let report = layers
            .time("rtlpower.estimate_s", || {
                reference.estimate_traced(&built.program, &built.ext, config, MAX_CYCLES, obs)
            })
            .map_err(|e| format!("fuzz case on the reference: {e}"))?;
        layers.add("rtlpower.insts", report.stats.inst_count as f64, "count");
        prices.push((est.energy.as_picojoules(), report.total.as_picojoules()));
    }
    Ok(prices)
}

/// Signed percent error of one priced case, as `fuzz::differential`
/// computes it.
pub fn percent_error((model_pj, ref_pj): Priced) -> f64 {
    if ref_pj == 0.0 {
        0.0
    } else {
        (model_pj - ref_pj) / ref_pj * 100.0
    }
}

/// Fuzz cases that fail their check, one entry per case: an error
/// beyond the validator's tolerance, or energies that differ from the
/// first pass's.
pub fn check_campaign(prices: &[Priced], first: &[Priced]) -> Vec<String> {
    let tolerance = FuzzConfig::default().tolerance_percent;
    let mut problems = Vec::new();
    for (i, (&price, &expected)) in prices.iter().zip(first).enumerate() {
        let mut why = Vec::new();
        let pct = percent_error(price);
        if pct.abs() > tolerance {
            why.push(format!("model error {pct:+.2}% > {tolerance}%"));
        }
        if price.0.to_bits() != expected.0.to_bits() || price.1.to_bits() != expected.1.to_bits() {
            why.push(format!(
                "energies {price:?} differ from the first pass's {expected:?}"
            ));
        }
        if !why.is_empty() {
            problems.push(format!("fuzz case {i}: {}", why.join(", ")));
        }
    }
    if prices.len() != first.len() {
        problems.push(format!(
            "campaign priced {} cases, the first pass {}",
            prices.len(),
            first.len()
        ));
    }
    problems
}

fn instructions(program: &Program, ext: &ExtensionSet) -> Result<u64, String> {
    let mut sim = Interp::new(program, ext, ProcConfig::default());
    sim.run(MAX_CYCLES)
        .map(|run| run.stats.inst_count)
        .map_err(|e| format!("counting instructions: {e}"))
}

/// The per-layer split of one traced pass from its characterize and
/// fuzz phases (collector, timed calls, wall seconds). Each phase is
/// accounted on its own; the training suite's `train_insts` are counted
/// for the ISS and, since it simulates the same instruction streams, for
/// the reference.
fn traced_layers(phases: [(Collector, Pass, f64); 2], train_insts: u64, out: &mut Outcome) -> Pass {
    let [(char_obs, mut pass, char_s), (fuzz_obs, mut fuzz, fuzz_s)] = phases;
    pass.add_spans(
        &char_obs,
        &[
            ("iss-simulate", "sim.iss_s"),
            ("rtl-activity-trace", "rtlpower.trace_s"),
            ("rtl-energy-integration", "rtlpower.integrate_s"),
            ("least-squares-solve", "regress.fit_s"),
        ],
    );
    let char_layers = [
        "sim.iss_s",
        "rtlpower.trace_s",
        "rtlpower.integrate_s",
        "regress.fit_s",
        "coverage.analyze_s",
    ];
    pass.account("phase1", char_s, &char_layers, out);
    fuzz.account(
        "phase2",
        fuzz_s,
        &["tie.compile_s", "sim.iss_s", "rtlpower.estimate_s"],
        out,
    );
    // The reference calls of the characterization sit inside the
    // characterizer, so its two spans stand for them.
    let char_reference = pass.get("rtlpower.trace_s") + pass.get("rtlpower.integrate_s");
    pass.add("rtlpower.estimate_s", char_reference, "s");
    pass.add("rtlpower.estimate_s.characterize", char_reference, "s");
    pass.add("rtlpower.insts", train_insts as f64, "count");
    pass.add("sim.iss_insts", train_insts as f64, "count");
    pass.merge(&fuzz);
    pass.add_spans(
        &fuzz_obs,
        &[
            ("rtl-activity-trace", "rtlpower.trace_s"),
            ("rtl-energy-integration", "rtlpower.integrate_s"),
        ],
    );
    let ns = |s: f64, n: f64| s / n * 1e9;
    let rtl_ns = ns(pass.get("rtlpower.estimate_s"), pass.get("rtlpower.insts"));
    let iss_ns = ns(pass.get("sim.iss_s"), pass.get("sim.iss_insts"));
    pass.add("rtlpower.ns_per_inst", rtl_ns, "ns");
    pass.add("sim.iss_ns_per_inst", iss_ns, "ns");
    pass
}

/// Runs the workload for `spec.seconds`.
///
/// # Errors
///
/// Set-up failures and simulation failures that leave nothing to check.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.run(|| setup(spec.seed))?;
    let mut out = Outcome::default();

    // Instructions one pass simulates, counted once on the ISS; the
    // reference simulates the same instruction streams.
    let mut train_insts = 0;
    for w in &inputs.suite {
        train_insts += instructions(w.program(), w.ext())?;
    }
    let built: Vec<BuiltCase> = inputs.recipes.iter().map(fuzz::build).collect();
    let mut fuzz_insts = 0;
    for b in &built {
        fuzz_insts += instructions(&b.program, &b.ext)?;
    }
    let pass_insts = 2 * (train_insts + fuzz_insts);

    let mut characterize_s = Vec::new();
    let mut fuzz_s = Vec::new();
    let mut ns_per_inst = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes = Vec::new();
    let mut first: Option<Vec<Priced>> = None;

    let start = Instant::now();
    let min_passes = if spec.trace { 4 } else { 2 };
    let mut i = 0usize;
    while i < min_passes || secs(start) < spec.seconds {
        let traced = spec.trace && i % 2 == 1;
        i += 1;

        let collector = || {
            if traced {
                Collector::new()
            } else {
                Collector::disabled()
            }
        };
        let mut char_obs = collector();
        let mut char_layers = Pass::default();
        let (fitted, c_s) = timed(|| characterize(&inputs, &mut char_obs, &mut char_layers));
        let fitted = fitted?;

        let mut fuzz_obs = collector();
        let mut fuzz_layers = Pass::default();
        let (prices, f_s) = if traced {
            let (prices, f_s) = timed(|| {
                fuzz_campaign_traced(
                    &inputs.model,
                    &inputs.recipes,
                    &mut fuzz_obs,
                    &mut fuzz_layers,
                )
            });
            (prices?, f_s)
        } else {
            timed(|| fuzz_campaign(&inputs.model, &inputs.recipes))
        };

        let problems = check_characterized(&fitted);
        out.ops(
            inputs.suite.len(),
            if problems.is_empty() {
                0
            } else {
                inputs.suite.len()
            },
            || problems.join("; "),
        );
        let reference = first.get_or_insert_with(|| prices.clone());
        let problems = check_campaign(&prices, reference);
        let bad_cases = problems.len().min(prices.len());
        out.ops(prices.len(), bad_cases, || problems.join("; "));

        if traced {
            traced_s.push(c_s + f_s);
            let phases = [(char_obs, char_layers, c_s), (fuzz_obs, fuzz_layers, f_s)];
            passes.push(traced_layers(phases, train_insts, &mut out));
        } else {
            untraced_s.push(c_s + f_s);
            characterize_s.push(c_s);
            fuzz_s.push(f_s);
            ns_per_inst.push((c_s + f_s) / pass_insts as f64 * 1e9);
        }
        setups.between(secs(start), spec.seconds, || setup(spec.seed))?;
    }

    let first = first.expect("at least one pass ran");
    let mean_abs_err =
        first.iter().map(|&p| percent_error(p).abs()).sum::<f64>() / first.len() as f64;
    out.note("training_cases", inputs.suite.len());
    out.note("fuzz_cases", inputs.recipes.len());
    out.note(
        "fuzz_extensions",
        built.iter().filter(|b| !b.ext.is_empty()).count(),
    );
    out.note("insts_per_pass", pass_insts);
    out.note("passes", i);
    if spec.trace {
        layer_metrics(&passes, &mut out);
        let isa_s = timed(suite::full_training_suite).1;
        out.metric("isa.assemble_s", isa_s, "s");
        out.metric(
            "obs.trace_overhead_pct",
            bench::trace_overhead_pct(&untraced_s, &traced_s),
            "%",
        );
    } else {
        out.metric("setup_s", setups.median(|| setup(spec.seed))?, "s");
        bench::phase_metric(&mut out, 1, &characterize_s);
        bench::phase_metric(&mut out, 2, &fuzz_s);
        out.metric("model_err_pct", mean_abs_err, "%");
        out.metric("host_ns_per_inst", median(&ns_per_inst), "ns");
        out.metric("peak_rss_mb", bench::peak_rss_mib()?, "MiB");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn characterized(model: EnergyMacroModel) -> Characterized {
        Characterized {
            model,
            coverage_gaps: Vec::new(),
        }
    }

    #[test]
    fn a_model_with_one_coefficient_changed_fails_the_check() {
        let model = bench::committed_model().expect("model");
        assert!(check_characterized(&characterized(model.clone())).is_empty());
        let mut coefficients = model.coefficients().to_vec();
        coefficients[3] *= 1.000_001;
        let changed = EnergyMacroModel::new(*model.spec(), coefficients);
        assert_eq!(check_characterized(&characterized(changed)).len(), 1);
    }

    #[test]
    fn a_moved_or_inaccurate_fuzz_price_fails_the_check() {
        let model = bench::committed_model().expect("model");
        let prices = fuzz_campaign(&model, &gen::fuzz_recipes(3, 4));
        assert!(check_campaign(&prices, &prices).is_empty());

        let mut moved = prices.clone();
        moved[1].0 += 1.0;
        assert_eq!(check_campaign(&moved, &prices).len(), 1);

        let mut inaccurate = prices.clone();
        inaccurate[2].0 = inaccurate[2].1 * 1.5;
        let problems = check_campaign(&inaccurate, &inaccurate);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("model error"), "{problems:?}");
    }

    #[test]
    fn the_traced_campaign_prices_like_the_library_path() {
        let model = bench::committed_model().expect("model");
        let recipes = gen::fuzz_recipes(5, 6);
        let mut layers = Pass::default();
        let traced = fuzz_campaign_traced(&model, &recipes, &mut Collector::new(), &mut layers)
            .expect("traced campaign");
        assert_eq!(traced, fuzz_campaign(&model, &recipes));
        assert!(layers.get("rtlpower.estimate_s") > 0.0);
        assert_eq!(layers.get("sim.iss_insts"), layers.get("rtlpower.insts"));
    }
}
