use std::time::Instant;

use emx_isa::Program;
use emx_obs::json::Value;
use emx_obs::Collector;
use emx_regress::{Dataset, FitMethod, FitOptions, LinearFit};
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{Interp, ProcConfig};
use emx_tie::ExtensionSet;

use crate::{CoreError, EnergyMacroModel, ModelSpec};

fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One test program of the characterization suite: its name, its code,
/// and the extension set of the custom processor it runs on.
///
/// "While custom processors are generated during characterization, they
/// are not needed for using the macro-model" — each training case carries
/// its own extended configuration, and the fitted model generalizes to
/// any other.
#[derive(Debug, Clone, Copy)]
pub struct TrainingCase<'a> {
    /// Display name (appears in the fitting-error report, Fig. 3).
    pub name: &'a str,
    /// The assembled test program.
    pub program: &'a Program,
    /// The extension set it was assembled against.
    pub ext: &'a ExtensionSet,
}

/// The output of characterization: the fitted macro-model plus the full
/// regression diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// The fitted macro-model (ready for [`EnergyMacroModel::estimate`]).
    pub model: EnergyMacroModel,
    /// Regression diagnostics: per-test-program fitting errors (the data
    /// behind Fig. 3), RMS and maximum error, R².
    pub fit: LinearFit,
}

/// Per-phase timing and fit quality of one training case, gathered by
/// [`Characterizer::characterize_instrumented`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// Training-case name.
    pub name: String,
    /// Simulated cycles of the case on the fast ISS.
    pub cycles: u64,
    /// Wall-clock microseconds of the fast ISS + resource-usage analysis.
    pub iss_micros: u64,
    /// Wall-clock microseconds of the RTL-level reference estimation.
    pub reference_micros: u64,
    /// The measured (dependent-variable) energy, in picojoules.
    pub measured_picojoules: f64,
    /// Signed percent fitting error of this case (Fig. 3 data point).
    pub percent_error: f64,
}

/// Phase timings and fit quality of one characterization run — the
/// document behind `emx-characterize --report`.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeReport {
    /// One entry per training case, in suite order.
    pub cases: Vec<CaseReport>,
    /// Total wall-clock microseconds of fast instruction-set simulation.
    pub simulate_micros: u64,
    /// Total wall-clock microseconds of RTL-level reference estimation.
    pub reference_micros: u64,
    /// Wall-clock microseconds of the least-squares solve.
    pub solve_micros: u64,
    /// Root-mean-square percent fitting error over the suite.
    pub rms_percent_error: f64,
    /// Largest absolute percent fitting error over the suite.
    pub max_abs_percent_error: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
    /// Reference wall-time divided by ISS wall-time — how much faster the
    /// macro-model's simulation side is than the path it replaces (the
    /// paper's §V speedup, measured on this host for this suite).
    pub speedup: f64,
}

impl CharacterizeReport {
    /// Serializes the report with the stable schema
    /// `emx.characterize-report/1`: fit quality (`rms_percent_error`,
    /// `max_abs_percent_error`, `r_squared`), phase timings in
    /// microseconds (`timing_us.{iss_simulate, reference_estimate,
    /// solve}`), the measured `speedup`, and one `cases[]` entry per
    /// training case (`name`, `cycles`, `iss_us`, `reference_us`,
    /// `measured_pj`, `percent_error`).
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("schema", "emx.characterize-report/1");

        let mut fit = Value::object();
        fit.set("rms_percent_error", self.rms_percent_error);
        fit.set("max_abs_percent_error", self.max_abs_percent_error);
        fit.set("r_squared", self.r_squared);
        doc.set("fit", fit);

        let mut timing = Value::object();
        timing.set("iss_simulate", self.simulate_micros);
        timing.set("reference_estimate", self.reference_micros);
        timing.set("solve", self.solve_micros);
        doc.set("timing_us", timing);
        doc.set("speedup", self.speedup);

        let mut cases = Value::array();
        for case in &self.cases {
            let mut entry = Value::object();
            entry.set("name", case.name.as_str());
            entry.set("cycles", case.cycles);
            entry.set("iss_us", case.iss_micros);
            entry.set("reference_us", case.reference_micros);
            entry.set("measured_pj", case.measured_picojoules);
            entry.set("percent_error", case.percent_error);
            cases.push(entry);
        }
        doc.set("cases", cases);
        doc
    }
}

/// Runs the paper's characterization flow (steps 1–8 of Fig. 2).
///
/// For every training case, the characterizer
///
/// 1. cross-"compiles" and simulates the test program on the fast ISS to
///    gather the macro-model's independent variables (instruction-set
///    simulation + dynamic resource-usage analysis),
/// 2. measures the dependent variable — the program's energy on the
///    extended processor — with the RTL-level reference estimator,
///
/// and finally solves the resulting linear system by least squares.
#[derive(Debug, Clone, Default)]
pub struct Characterizer {
    config: ProcConfig,
    spec: ModelSpec,
    estimator: RtlEnergyEstimator,
    fit_options: FitOptions,
    max_cycles: u64,
}

impl Characterizer {
    /// Creates a characterizer for the paper's full template on the given
    /// base-processor configuration.
    pub fn new(config: ProcConfig) -> Self {
        Characterizer {
            config,
            spec: ModelSpec::paper(),
            estimator: RtlEnergyEstimator::new(),
            fit_options: FitOptions {
                method: FitMethod::Qr,
                ridge: 0.0,
            },
            max_cycles: u64::from(u32::MAX),
        }
    }

    /// Uses a different macro-model template (ablation studies).
    pub fn with_spec(mut self, spec: ModelSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Uses a different reference estimator (sensitivity studies).
    pub fn with_estimator(mut self, estimator: RtlEnergyEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Uses the paper's pseudo-inverse (normal-equations) solver instead
    /// of QR, optionally with ridge regularization.
    pub fn with_fit_options(mut self, options: FitOptions) -> Self {
        self.fit_options = options;
        self
    }

    /// The template in use.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Characterizes the processor over the given suite.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Sim`] if a test program fails to run (on either
    ///   simulation path),
    /// * [`CoreError::Regress`] if the system cannot be solved — fewer
    ///   programs than template variables, or a variable never exercised
    ///   by the suite (the paper: the suite must "cover the instruction
    ///   space" and "all the custom hardware library components").
    pub fn characterize(&self, cases: &[TrainingCase<'_>]) -> Result<Characterization, CoreError> {
        self.characterize_instrumented(cases, &mut Collector::disabled())
            .map(|(characterization, _)| characterization)
    }

    /// Like [`Characterizer::characterize`], with the whole flow
    /// instrumented on `obs` and a [`CharacterizeReport`] of per-phase
    /// wall-clock timings and per-case fit quality returned alongside.
    ///
    /// Spans: one `characterize` span around the run, one `case:<name>`
    /// span per training case (wrapping an `iss-simulate` span and the
    /// reference estimator's own `rtl-*` spans), and a
    /// `least-squares-solve` span around the fit. Histograms:
    /// `characterize.case_cycles`. The collector never influences the
    /// result — [`Characterizer::characterize`] is this method with a
    /// disabled collector, minus the report.
    ///
    /// # Errors
    ///
    /// As for [`Characterizer::characterize`].
    pub fn characterize_instrumented(
        &self,
        cases: &[TrainingCase<'_>],
        obs: &mut Collector,
    ) -> Result<(Characterization, CharacterizeReport), CoreError> {
        self.characterize_with_dataset(cases, obs)
            .map(|(characterization, report, _)| (characterization, report))
    }

    /// Like [`Characterizer::characterize_instrumented`], additionally
    /// returning the assembled regression [`Dataset`] — the exact design
    /// matrix and measured energies the model was fitted from — so
    /// callers can run suite-quality gates (`emx-coverage`) on it without
    /// a second simulation pass.
    ///
    /// # Errors
    ///
    /// As for [`Characterizer::characterize`].
    pub fn characterize_with_dataset(
        &self,
        cases: &[TrainingCase<'_>],
        obs: &mut Collector,
    ) -> Result<(Characterization, CharacterizeReport, Dataset), CoreError> {
        let whole = obs.begin("characterize");
        let (dataset, mut case_reports) = self.simulate_cases(cases, obs)?;

        let solve_started = Instant::now();
        let solve_span = obs.begin("least-squares-solve");
        let fit = dataset.fit(self.fit_options)?;
        obs.end(solve_span);
        let solve_micros = elapsed_micros(solve_started);
        obs.end(whole);

        // `Dataset` preserves suite order, so sample errors line up with
        // the per-case reports by index.
        for (case, err) in case_reports.iter_mut().zip(fit.sample_errors()) {
            case.percent_error = err.percent;
        }
        let simulate_micros: u64 = case_reports.iter().map(|c| c.iss_micros).sum();
        let reference_micros: u64 = case_reports.iter().map(|c| c.reference_micros).sum();
        let report = CharacterizeReport {
            cases: case_reports,
            simulate_micros,
            reference_micros,
            solve_micros,
            rms_percent_error: fit.rms_percent_error(),
            max_abs_percent_error: fit.max_abs_percent_error(),
            r_squared: fit.r_squared(),
            speedup: reference_micros as f64 / simulate_micros.max(1) as f64,
        };

        let model = EnergyMacroModel::new(self.spec, fit.coefficients().to_vec());
        Ok((Characterization { model, fit }, report, dataset))
    }

    /// Runs steps 1–7 only: simulates every training case and assembles
    /// the regression dataset (variables + measured energies) without
    /// fitting it. Exposed so suite-quality diagnostics
    /// ([`emx_regress::diagnostics`]) can inspect the design matrix.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sim`] if a test program fails to run on either
    /// simulation path.
    pub fn build_dataset(&self, cases: &[TrainingCase<'_>]) -> Result<Dataset, CoreError> {
        self.simulate_cases(cases, &mut Collector::disabled())
            .map(|(dataset, _)| dataset)
    }

    /// The shared steps-1–7 loop: per case, ISS simulation for the
    /// independent variables and reference estimation for the dependent
    /// one, with spans and timings on `obs`. Case reports come back with
    /// `percent_error` unset (no fit has happened yet).
    fn simulate_cases(
        &self,
        cases: &[TrainingCase<'_>],
        obs: &mut Collector,
    ) -> Result<(Dataset, Vec<CaseReport>), CoreError> {
        let mut dataset = Dataset::new(self.spec.variable_names());
        let mut case_reports = Vec::with_capacity(cases.len());
        for case in cases {
            let case_span = obs.begin(format!("case:{}", case.name));

            // Independent variables: fast ISS + resource-usage analysis.
            let iss_started = Instant::now();
            let iss_span = obs.begin("iss-simulate");
            let mut iss = Interp::new(case.program, case.ext, self.config.clone());
            let run = iss.run(self.max_cycles);
            obs.end(iss_span);
            let iss_micros = elapsed_micros(iss_started);
            let run = run.map_err(|source| CoreError::Sim {
                program: case.name.to_owned(),
                source,
            })?;
            let x = self.spec.variables(&run.stats);

            // Dependent variable: RTL-level energy of the extended
            // processor (the "synthesize + ModelSim + WattWatcher" path).
            let reference_started = Instant::now();
            let report = self
                .estimator
                .estimate_traced(
                    case.program,
                    case.ext,
                    self.config.clone(),
                    self.max_cycles,
                    obs,
                )
                .map_err(|source| CoreError::Sim {
                    program: case.name.to_owned(),
                    source,
                })?;
            let reference_micros = elapsed_micros(reference_started);

            obs.end(case_span);
            obs.record("characterize.case_cycles", run.stats.total_cycles);

            dataset.push_sample(case.name, &x, report.total.as_picojoules())?;
            case_reports.push(CaseReport {
                name: case.name.to_owned(),
                cycles: run.stats.total_cycles,
                iss_micros,
                reference_micros,
                measured_picojoules: report.total.as_picojoules(),
                percent_error: 0.0,
            });
        }
        Ok((dataset, case_reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_isa::asm::Assembler;

    /// A small synthetic suite of base-ISA-only programs, diverse enough
    /// to identify the instruction-level coefficients. With no custom
    /// instructions in any program the structural variables are all-zero
    /// columns, so the tests use the instruction-level-only spec.
    fn base_suite() -> Vec<(String, Program)> {
        let srcs: Vec<(&str, String)> = vec![
            (
                "arith",
                "movi a2, 200\nl: addi a2, a2, -1\nbnez a2, l\nhalt".into(),
            ),
            (
                "mixed",
                "movi a2, 100\nmovi a3, 0\nl: add a3, a3, a2\nxor a4, a3, a2\n\
                 slli a5, a4, 2\naddi a2, a2, -1\nbnez a2, l\nhalt"
                    .into(),
            ),
            (
                "loads",
                ".data\nbuf: .space 256\n.text\nmovi a2, buf\nmovi a3, 64\n\
                 l: l32i a4, 0(a2)\naddi a2, a2, 4\naddi a3, a3, -1\nbnez a3, l\nhalt"
                    .into(),
            ),
            (
                "stores",
                ".data\nbuf: .space 256\n.text\nmovi a2, buf\nmovi a3, 64\nmovi a4, 7\n\
                 l: s32i a4, 0(a2)\naddi a2, a2, 4\naddi a3, a3, -1\nbnez a3, l\nhalt"
                    .into(),
            ),
            (
                "calls",
                "movi a2, 40\nl: call f\naddi a2, a2, -1\nbnez a2, l\nhalt\nf: ret".into(),
            ),
            (
                "branches",
                "movi a2, 100\nmovi a3, 0\nl: andi a4, a2, 1\nbeqz a4, even\naddi a3, a3, 1\n\
                 even: addi a2, a2, -1\nbnez a2, l\nhalt"
                    .into(),
            ),
            (
                "interlocks",
                ".data\nv: .word 3\n.text\nmovi a2, v\nmovi a3, 50\n\
                 l: l32i a4, 0(a2)\nadd a5, a4, a4\nmul a6, a5, a4\nadd a7, a6, a5\n\
                 addi a3, a3, -1\nbnez a3, l\nhalt"
                    .into(),
            ),
            (
                "strided",
                "movi a2, 0x40000\nmovi a3, 200\nl: l32i a4, 0(a2)\naddi a2, a2, 64\n\
                 addi a3, a3, -1\nbnez a3, l\nhalt"
                    .into(),
            ),
            (
                "uncached",
                ".uncached\nmovi a2, 60\nl: addi a2, a2, -1\nbnez a2, l\nhalt".into(),
            ),
            (
                "shifts",
                "movi a2, 150\nmovi a3, 0x1234\nl: slli a4, a3, 3\nsrli a5, a3, 2\n\
                 ror a6, a3, a2\naddi a2, a2, -1\nbnez a2, l\nhalt"
                    .into(),
            ),
            (
                "muls",
                "movi a2, 120\nmovi a3, 77\nl: mul a4, a3, a2\nmulh a5, a4, a3\n\
                 addi a2, a2, -1\nbnez a2, l\nhalt"
                    .into(),
            ),
            (
                "jumps",
                "movi a2, 80\nl: j step\nstep: addi a2, a2, -1\nbnez a2, l\nhalt".into(),
            ),
        ];
        let mut suite: Vec<(String, Program)> = srcs
            .into_iter()
            .map(|(name, src)| (name.to_owned(), Assembler::new().assemble(&src).unwrap()))
            .collect();
        // I-cache-capacity programs: loop bodies larger than the 16 KB
        // cache so `n_icm` has real variance across the suite.
        for (name, body, iters) in [("icache_a", 5000, 8), ("icache_b", 7000, 4)] {
            let mut src = String::from("movi a2, ");
            src.push_str(&format!("{iters}\nl:\n"));
            for i in 0..body {
                src.push_str(["add a3, a3, a2\n", "xor a4, a4, a2\n", "addi a5, a5, 3\n"][i % 3]);
            }
            src.push_str("addi a2, a2, -1\nbnez a2, l\nhalt\n");
            suite.push((name.to_owned(), Assembler::new().assemble(&src).unwrap()));
        }
        suite
    }

    #[test]
    fn characterizes_base_processor_accurately() {
        let suite = base_suite();
        let ext = ExtensionSet::empty();
        let cases: Vec<TrainingCase<'_>> = suite
            .iter()
            .map(|(name, p)| TrainingCase {
                name,
                program: p,
                ext: &ext,
            })
            .collect();
        let result = Characterizer::new(ProcConfig::default())
            .with_spec(ModelSpec::instruction_level_only())
            .characterize(&cases)
            .unwrap();

        // The reference model is approximately linear in the template
        // variables, so the fit should be tight (paper: RMS 3.8%).
        assert!(
            result.fit.rms_percent_error() < 10.0,
            "rms = {}",
            result.fit.rms_percent_error()
        );
        assert!(result.fit.r_squared() > 0.99);

        // Coefficients should be positive energies with sane ordering:
        // a cache miss costs far more than one arithmetic cycle.
        let a = result.model.coefficient("alpha_A").unwrap();
        let icm = result.model.coefficient("beta_icm").unwrap();
        assert!(a > 0.0, "alpha_A = {a}");
        assert!(icm > a, "beta_icm = {icm} vs alpha_A = {a}");
    }

    #[test]
    fn estimation_tracks_reference_on_held_out_program(// Held-out: not in the training suite.
    ) {
        let suite = base_suite();
        let ext = ExtensionSet::empty();
        let cases: Vec<TrainingCase<'_>> = suite
            .iter()
            .map(|(name, p)| TrainingCase {
                name,
                program: p,
                ext: &ext,
            })
            .collect();
        let result = Characterizer::new(ProcConfig::default())
            .with_spec(ModelSpec::instruction_level_only())
            .characterize(&cases)
            .unwrap();

        let held_out = Assembler::new()
            .assemble(
                ".data\nbuf: .space 400\n.text\nmovi a2, buf\nmovi a3, 100\nmovi a5, 0\n\
                 l: l32i a4, 0(a2)\nadd a5, a5, a4\ns32i a5, 0(a2)\naddi a2, a2, 4\n\
                 addi a3, a3, -1\nbnez a3, l\nhalt",
            )
            .unwrap();
        let est = result
            .model
            .estimate(&held_out, &ext, ProcConfig::default())
            .unwrap();
        let truth = RtlEnergyEstimator::new()
            .estimate(&held_out, &ext, ProcConfig::default())
            .unwrap();
        let err = est.energy.percent_error_vs(truth.total).abs();
        assert!(err < 15.0, "held-out error {err}%");
    }

    #[test]
    fn instrumented_characterization_reports_phases_and_changes_nothing() {
        let suite = base_suite();
        let ext = ExtensionSet::empty();
        let cases: Vec<TrainingCase<'_>> = suite
            .iter()
            .map(|(name, p)| TrainingCase {
                name,
                program: p,
                ext: &ext,
            })
            .collect();
        let characterizer = Characterizer::new(ProcConfig::default())
            .with_spec(ModelSpec::instruction_level_only());

        let plain = characterizer.characterize(&cases).unwrap();
        let mut obs = Collector::new();
        let (instrumented, report) = characterizer
            .characterize_instrumented(&cases, &mut obs)
            .unwrap();

        // Observability must not change the fitted model.
        assert_eq!(plain.model, instrumented.model);

        // One case report per training case, in order, with real work in
        // both phases and the fit errors wired through.
        assert_eq!(report.cases.len(), cases.len());
        for (case, expected) in report.cases.iter().zip(&cases) {
            assert_eq!(case.name, expected.name);
            assert!(case.cycles > 0);
            assert!(case.measured_picojoules > 0.0);
        }
        assert!(report.cases.iter().any(|c| c.percent_error != 0.0));
        assert!(report.simulate_micros > 0);
        assert!(report.reference_micros > 0);
        assert!(
            report.speedup > 1.0,
            "reference flow must be slower than the ISS (speedup {})",
            report.speedup
        );
        assert!((report.r_squared - plain.fit.r_squared()).abs() < 1e-12);

        // Spans: the top-level phase, one per case, the solve, and the
        // reference estimator's one fused pass nested per case.
        let spans = obs.spans();
        assert_eq!(spans[0].name, "characterize");
        assert_eq!(
            spans.iter().filter(|s| s.name.starts_with("case:")).count(),
            cases.len()
        );
        assert_eq!(
            spans.iter().filter(|s| s.name == "iss-simulate").count(),
            cases.len()
        );
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name == "rtl-energy-integration")
                .count(),
            cases.len()
        );
        assert!(spans.iter().any(|s| s.name == "least-squares-solve"));
        assert_eq!(
            obs.histogram("characterize.case_cycles").unwrap().count(),
            cases.len() as u64
        );

        // The JSON report round-trips and keeps the schema tag.
        let doc = emx_obs::json::Value::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(emx_obs::json::Value::as_str),
            Some("emx.characterize-report/1")
        );
        assert_eq!(
            doc.get("cases")
                .and_then(emx_obs::json::Value::as_array)
                .map(|a| a.len()),
            Some(cases.len())
        );
    }

    #[test]
    fn too_few_programs_is_a_regression_error() {
        let suite = base_suite();
        let ext = ExtensionSet::empty();
        let cases: Vec<TrainingCase<'_>> = suite
            .iter()
            .take(3)
            .map(|(name, p)| TrainingCase {
                name,
                program: p,
                ext: &ext,
            })
            .collect();
        let result = Characterizer::new(ProcConfig::default())
            .with_spec(ModelSpec::instruction_level_only())
            .characterize(&cases);
        assert!(matches!(result, Err(CoreError::Regress(_))));
    }

    #[test]
    fn pseudo_inverse_matches_qr() {
        let suite = base_suite();
        let ext = ExtensionSet::empty();
        let cases: Vec<TrainingCase<'_>> = suite
            .iter()
            .map(|(name, p)| TrainingCase {
                name,
                program: p,
                ext: &ext,
            })
            .collect();
        let spec = ModelSpec::instruction_level_only();
        let qr = Characterizer::new(ProcConfig::default())
            .with_spec(spec)
            .characterize(&cases)
            .unwrap();
        let ne = Characterizer::new(ProcConfig::default())
            .with_spec(spec)
            .with_fit_options(FitOptions {
                method: FitMethod::NormalEquations,
                ridge: 0.0,
            })
            .characterize(&cases)
            .unwrap();
        for (a, b) in qr.model.coefficients().iter().zip(ne.model.coefficients()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "{a} vs {b}");
        }
    }
}
