//! `perfbench`: the emx repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <calibrate|explore|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives them through
//! the library's public entry points for about `--seconds`, checks every
//! output against the repository's byte-identity contracts, and prints
//! one JSON object as the last line of standard output: `correct`,
//! `attempted`, `failed` and `metrics` (the [`END_TO_END`] metrics with
//! `--trace 0`, the [`PER_LAYER`] metrics with `--trace 1`, the same
//! names for every workload). A `context` line before it records what
//! explains a delta without re-running, including the workload's own
//! metrics under `other_metrics`. See README.md for the workloads and
//! metrics.

mod bench;
mod calibrate;
mod explore;
mod gen;
mod serve;
mod stats;

use std::process::{Command, ExitCode};

use emx::obs::json::Value;

use bench::{Metric, Outcome, RunSpec};

const USAGE: &str = "usage: perfbench --workload <calibrate|explore|serve> --seed <n> \
                     --seconds <n> --trace <0|1>";

/// The three workloads, by name.
pub const WORKLOADS: [&str; 3] = ["calibrate", "explore", "serve"];

/// The result line's metrics with `--trace 0`, `(name, unit)`, as
/// `BENCHMARK.json` lists them. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("phase1_s", "s"),
    ("phase2_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The result line's metrics with `--trace 1`, `(name, unit)`, as
/// `BENCHMARK.json` lists them. Every workload reports each one.
pub const PER_LAYER: [(&str, &str); 7] = [
    ("isa.assemble_s", "s"),
    ("sim.iss_s", "s"),
    ("sim.iss_insts", "count"),
    ("sim.iss_ns_per_inst", "ns"),
    ("unattributed_s.phase1", "s"),
    ("unattributed_s.phase2", "s"),
    ("obs.trace_overhead_pct", "%"),
];

fn parse_args(args: &[String]) -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => spec.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad())?;
                if !(spec.seconds > 0.0 && spec.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(bad()),
        }
    }
    Ok((workload.ok_or("--workload is required")?, spec))
}

fn run(workload: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match workload {
        "calibrate" => calibrate::run(spec),
        "explore" => explore::run(spec),
        _ => serve::run(spec),
    }
}

/// Splits a workload's metrics into the result line's, exactly
/// `listed` in its order, and the rest.
///
/// # Errors
///
/// A listed metric that is missing or in another unit, or a name
/// reported twice.
fn split_metrics(
    metrics: Vec<Metric>,
    listed: &[(&str, &str)],
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    for (i, m) in metrics.iter().enumerate() {
        if metrics[..i].iter().any(|earlier| earlier.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
    }
    let (mut result, rest): (Vec<Metric>, Vec<Metric>) = metrics
        .into_iter()
        .partition(|m| listed.iter().any(|(name, _)| *name == m.name));
    let mut ordered = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let at = result
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} not reported"))?;
        let m = result.swap_remove(at);
        if m.unit != *unit {
            return Err(format!("metric {name} in {}, not {unit}", m.unit));
        }
        ordered.push(m);
    }
    Ok((ordered, rest))
}

/// `metrics` as a JSON object of `{"value", "unit"}` entries.
fn metrics_json(metrics: &[Metric]) -> Value {
    let mut doc = Value::object();
    for m in metrics {
        let mut entry = Value::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        doc.set(&m.name, entry);
    }
    doc
}

/// Standard output of `program args`, trimmed, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where the numbers came from: revision, toolchain, cores, seed.
fn environment(workload: &str, spec: &RunSpec) -> Value {
    let mut doc = Value::object();
    let rev = command_output("git", &["rev-parse", "HEAD"]);
    doc.set(
        "git_rev",
        rev.clone().unwrap_or_else(|| "unknown".to_owned()),
    );
    match rev
        .and_then(|_| command_output("git", &["status", "--porcelain", "--untracked-files=no"]))
    {
        Some(status) => doc.set("git_dirty", !status.is_empty()),
        None => doc.set("git_dirty", "unknown"),
    }
    doc.set(
        "rustc",
        command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
    );
    doc.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    doc.set("workload", workload);
    doc.set("seed", spec.seed);
    doc.set("seconds", spec.seconds);
    doc.set("trace", spec.trace);
    doc
}

/// `value` on one line. The in-tree writer pretty-prints; strings never
/// hold a raw newline (the writer escapes it), so joining the trimmed
/// lines yields the same document.
fn one_line(value: &Value) -> String {
    value.to_string().lines().map(str::trim_start).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &spec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = outcome.correct();
    let listed: &[(&str, &str)] = if spec.trace { &PER_LAYER } else { &END_TO_END };
    let (metrics, others) = match split_metrics(outcome.metrics, listed) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut context = environment(&workload, &spec);
    for (key, value) in &outcome.context {
        context.set(key, value.clone());
    }
    context.set("other_metrics", metrics_json(&others));
    let mut line = Value::object();
    line.set("context", context);
    println!("{}", one_line(&line));

    let mut result = Value::object();
    result.set("correct", correct);
    result.set("attempted", outcome.attempted);
    result.set("failed", outcome.failed);
    result.set("metrics", metrics_json(&metrics));
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, spec) = parse_args(&args(&[
            "--workload",
            "explore",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(w, "explore");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.seconds, 10.0);
        assert!(spec.trace);
    }

    /// The names of the result line's metrics and of the context's
    /// `other_metrics` of one short run.
    fn metric_names(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Vec<String>) {
        let spec = RunSpec {
            seed,
            seconds: 0.5,
            trace,
        };
        let outcome = run(workload, &spec).expect("workload runs");
        assert!(
            outcome.correct(),
            "{workload} seed {seed}: {:?}",
            outcome.problems
        );
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let (result, others) = split_metrics(outcome.metrics, listed).expect("listed metrics");
        let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect();
        (names(result), names(others))
    }

    /// The generated inputs depend on the seed (see the `gen`, `explore`
    /// and `serve` tests); the metrics a run reports must not, and every
    /// workload reports every listed metric.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs every workload; use cargo test --release"
    )]
    fn every_workload_reports_every_listed_metric_under_any_seed() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (result, others) = metric_names(workload, 1, trace);
                let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let want: Vec<&str> = listed.iter().map(|(name, _)| *name).collect();
                assert_eq!(result, want, "{workload}, trace {trace}");
                assert_eq!(
                    (result, others),
                    metric_names(workload, 2, trace),
                    "{workload}, trace {trace}"
                );
            }
        }
    }

    fn manifest_metrics(manifest: &Value, key: &str) -> Vec<(String, String)> {
        let entries = manifest.get(key).and_then(Value::as_array);
        entries
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_listed_metrics_are_the_manifests() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let manifest = Value::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(manifest_metrics(&manifest, "end_to_end"), own(&END_TO_END));
        assert_eq!(manifest_metrics(&manifest, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn a_missing_or_mistyped_listed_metric_is_refused() {
        let metric = |name: &str, unit| Metric {
            name: name.to_owned(),
            value: 1.0,
            unit,
        };
        let full: Vec<Metric> = END_TO_END.iter().map(|(n, u)| metric(n, u)).collect();
        let (result, others) = split_metrics(
            [vec![metric("extra", "s")], full.clone()].concat(),
            &END_TO_END,
        )
        .expect("complete");
        assert_eq!(result, full);
        assert_eq!(others, vec![metric("extra", "s")]);
        assert!(split_metrics(full[1..].to_vec(), &END_TO_END).is_err());
        let mut mistyped = full.clone();
        mistyped[0].unit = "ms";
        assert!(split_metrics(mistyped, &END_TO_END).is_err());
        assert!(split_metrics([full.clone(), full].concat(), &END_TO_END).is_err());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "serve", "--trace", "2"],
            &["--workload", "serve", "--seconds", "0"],
            &["--workload", "serve", "--seed"],
            &["--workload", "serve", "--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
