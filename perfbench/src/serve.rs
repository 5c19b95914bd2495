//! The `serve` workload: an in-process `emx_serve::Server` under a
//! closed loop (each client waits for its reply), in two phases against
//! the same server, each after an untimed warm-up: one keep-alive
//! client, then two. Nine in ten requests are by-name estimates of the
//! Table II applications (cache hits); one in ten carries a unique
//! inline program (a cache miss that runs the ISS).
//!
//! This is the only workload where connection handling and the
//! batcher's coalescing window set the result: one client never
//! coalesces, two do.
//!
//! Phase 1 is the one-client phase and phase 2 the two-client phase;
//! `phase1_s` and `phase2_s` are the median time each took to answer a
//! block of [`BLOCK`] requests.
//!
//! Operation unit: one request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use emx::core::{EmxError, EnergyMacroModel};
use emx::dse::cache::content_fingerprint;
use emx::obs::json::Value;
use emx::serve::{request_once, wire, BatchConfig, HttpClient, ServeConfig, ServeSummary, Server};
use emx::sim::ProcConfig;
use emx::tie::ExtensionSet;
use emx::workloads::{apps, Workload};

use crate::bench::{self, layer_metrics, timed, Outcome, Pass, RunSpec, SetupTimes};
use crate::gen::{self, Request};
use crate::stats::{median, percentile};

/// Client threads (and connections) of the two phases, with the
/// suffix of their phase's context facts.
pub const PHASES: [(usize, &str); 2] = [(1, "c1"), (2, "c2")];

/// Requests per block of a phase's timeline.
pub const BLOCK: usize = 100;

/// Requests per second of the two phases on the two-vCPU machine this
/// benchmark was tuned on. A phase's share of `--seconds` times its rate
/// fixes how many requests it answers: the work of a run, and with it
/// the service's memory (its cache keeps every miss), does not follow
/// the host's speed.
const NOMINAL_RPS: [f64; 2] = [1700.0, 420.0];

/// Untimed warm-up requests before each phase: they let the batcher's
/// adaptive window settle for the new client count.
const WARMUP: u64 = 200;

/// A running server on its own thread. Dropping it shuts it down.
pub struct Running {
    addr: String,
    thread: Option<JoinHandle<Result<ServeSummary, EmxError>>>,
}

impl Running {
    /// Binds `127.0.0.1:0` and serves on a new thread, with two
    /// connection workers and two evaluation workers.
    ///
    /// # Errors
    ///
    /// When the listener cannot bind.
    pub fn start(model: EnergyMacroModel) -> Result<Running, String> {
        let config = ServeConfig {
            workers: 2,
            batch: BatchConfig {
                jobs: 2,
                ..BatchConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::bind(model, config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            thread: Some(thread),
        })
    }

    /// The server's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asks the server to shut down and waits for it.
    ///
    /// # Errors
    ///
    /// A refused shutdown, a failed drain, or a panicked server thread.
    pub fn stop(mut self) -> Result<ServeSummary, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<ServeSummary, String> {
        let Some(thread) = self.thread.take() else {
            return Err("server already stopped".to_owned());
        };
        let answer = request_once(&self.addr, "POST", "/v1/shutdown", None);
        let joined = thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?;
        answer.map_err(|e| format!("shutdown request: {e}"))?;
        joined.map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// What the phases need, made by the set-up.
pub struct Inputs {
    /// The committed model, for the one-shot expected answers.
    pub model: EnergyMacroModel,
    /// The Table II applications.
    pub apps: Vec<Workload>,
    /// The server, bound and warmed up.
    pub server: Running,
}

/// Set-up: model load, application assembly, server bind, and a warm-up
/// that prices every application once.
///
/// # Errors
///
/// Bind failures and warm-up requests that do not succeed.
pub fn setup() -> Result<Inputs, String> {
    let model = bench::committed_model()?;
    let apps = apps::all();
    let server = Running::start(model.clone())?;
    let mut client = HttpClient::new(server.addr());
    for app in &apps {
        let (status, _) = client
            .post_json("/v1/estimate", &wire::estimate_request(app.name()))
            .map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!(
                "warm-up estimate of {} answered {status}",
                app.name()
            ));
        }
    }
    Ok(Inputs {
        model,
        apps,
        server,
    })
}

/// The request body of plan entry `index`.
pub fn body(seed: u64, index: u64, apps: &[Workload]) -> Vec<u8> {
    match gen::serve_request(seed, index, apps.len()) {
        Request::App(i) => wire::estimate_request(apps[i].name()),
        Request::Inline(program) => {
            let mut doc = Value::object();
            doc.set("schema", wire::REQUEST_SCHEMA);
            doc.set("kind", "estimate");
            doc.set("program", program);
            doc
        }
    }
    .to_string()
    .into_bytes()
}

/// One answered request. The body is kept as a fingerprint only, so
/// holding every sample of a phase does not move `peak_rss_mb` with the
/// request rate.
pub struct Sample {
    /// Its plan index.
    pub index: u64,
    /// Send to full response, seconds.
    pub latency_s: f64,
    /// Phase start to full response, seconds.
    pub done_s: f64,
    /// HTTP status (0 when the request failed on the socket).
    pub status: u16,
    /// FNV-1a fingerprint of the response body.
    pub body_hash: u64,
    /// The body (or socket error) of a non-`200` answer, for the report.
    pub error: Option<String>,
}

/// Drives `clients` closed-loop keep-alive clients until they have sent
/// `requests` requests between them, taking plan indices from `next`.
/// Returns the samples and the wall time.
fn drive(
    addr: &str,
    seed: u64,
    apps: &[Workload],
    clients: usize,
    next: &AtomicU64,
    requests: u64,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let end = next.load(Ordering::Relaxed) + requests;
    let lanes: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= end {
                            break;
                        }
                        let body = body(seed, index, apps);
                        let sent = Instant::now();
                        let response = client.request("POST", "/v1/estimate", Some(&body));
                        let latency_s = sent.elapsed().as_secs_f64();
                        let done_s = start.elapsed().as_secs_f64();
                        let (status, body) = match response {
                            Ok(r) => (r.status, r.body),
                            Err(e) => (0, e.to_string().into_bytes()),
                        };
                        samples.push(Sample {
                            index,
                            latency_s,
                            done_s,
                            status,
                            body_hash: content_fingerprint(&body),
                            error: (status != 200)
                                .then(|| String::from_utf8_lossy(&body).into_owned()),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = bench::secs(start);
    (lanes.into_iter().flatten().collect(), wall)
}

/// The counters of `GET /v1/stats` a phase is accounted by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// `serve.batches`.
    pub batches: f64,
    /// `dse.cache.hits`.
    pub hits: f64,
    /// `dse.cache.misses`.
    pub misses: f64,
    /// Samples in the `serve.batch_size` histogram.
    pub batch_count: f64,
    /// Their mean.
    pub batch_mean: f64,
    /// Requests in the server's `serve.latency_us` histogram.
    pub latency_count: f64,
    /// Their mean, µs.
    pub latency_mean_us: f64,
}

fn stats(addr: &str) -> Result<Stats, String> {
    let response =
        request_once(addr, "GET", "/v1/stats", None).map_err(|e| format!("stats: {e}"))?;
    let doc = response.json().map_err(|e| format!("stats: {e}"))?;
    let result = doc.get("result").ok_or("stats without a result")?;
    let counter = |name: &str| {
        result
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |name: &str, field: &str| {
        result
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Stats {
        batches: counter("serve.batches"),
        hits: counter("dse.cache.hits"),
        misses: counter("dse.cache.misses"),
        batch_count: hist("serve.batch_size", "count"),
        batch_mean: hist("serve.batch_size", "mean"),
        latency_count: hist("serve.latency_us", "count"),
        latency_mean_us: hist("serve.latency_us", "mean"),
    })
}

/// The one-shot `(energy pJ, cycles)` of every application.
///
/// # Errors
///
/// When an application fails to simulate.
pub fn app_answers(model: &EnergyMacroModel, apps: &[Workload]) -> Result<Vec<(f64, u64)>, String> {
    apps.iter()
        .map(|w| {
            model
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .map(|e| (e.energy.as_picojoules(), e.stats.total_cycles))
                .map_err(|e| format!("{}: {e}", w.name()))
        })
        .collect()
}

/// The `emx.serve-response/1` success envelope of an estimate, built
/// here from the documented layout rather than through the service's
/// own `wire` helpers, so a fault in those cannot cancel out of the
/// check.
pub fn envelope(workload: &str, energy_pj: f64, cycles: u64) -> String {
    let mut result = Value::object();
    result.set("workload", workload);
    result.set("energy_pj", energy_pj);
    result.set("cycles", cycles);
    let mut doc = Value::object();
    doc.set("schema", wire::RESPONSE_SCHEMA);
    doc.set("status", "ok");
    doc.set("kind", "estimate");
    doc.set("result", result);
    doc.to_string()
}

/// The response the one-shot path gives for a request: the success
/// envelope around `EnergyMacroModel::estimate`'s energy and cycles,
/// with the instructions the request makes the server simulate (none
/// for a by-name estimate, which the cache answers).
///
/// # Errors
///
/// When an inline program does not assemble or simulate.
pub fn expected(
    seed: u64,
    index: u64,
    model: &EnergyMacroModel,
    apps: &[Workload],
    app_answers: &[(f64, u64)],
) -> Result<(String, u64), String> {
    let (name, energy_pj, cycles, insts) = match gen::serve_request(seed, index, apps.len()) {
        Request::App(i) => (apps[i].name(), app_answers[i].0, app_answers[i].1, 0),
        Request::Inline(program) => {
            let w = Workload::try_assemble(
                "inline",
                "inline request",
                ExtensionSet::empty(),
                &program,
                vec![],
            )
            .map_err(|e| format!("inline program {index}: {e}"))?;
            let est = model
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .map_err(|e| format!("inline program {index}: {e}"))?;
            (
                "inline",
                est.energy.as_picojoules(),
                est.stats.total_cycles,
                est.stats.inst_count,
            )
        }
    };
    Ok((envelope(name, energy_pj, cycles), insts))
}

/// The check on one response: `200` with exactly the one-shot path's
/// bytes.
pub fn check_response(sample: &Sample, want: &str) -> Result<(), String> {
    if sample.status != 200 {
        let body = sample.error.as_deref().unwrap_or_default();
        return Err(format!(
            "request {}: status {}: {body}",
            sample.index, sample.status
        ));
    }
    if sample.body_hash != content_fingerprint(want.as_bytes()) {
        return Err(format!(
            "request {}: response differs from the one-shot answer {want}",
            sample.index
        ));
    }
    Ok(())
}

/// The phase's timeline cut into consecutive blocks of [`BLOCK`]
/// answered requests (in completion order, from the phase's start):
/// the duration of each whole block. A run's phases answer at least one
/// block each.
pub fn block_times(samples: &[Sample]) -> Vec<f64> {
    let mut done: Vec<f64> = samples.iter().map(|s| s.done_s).collect();
    done.sort_by(f64::total_cmp);
    let mut previous = 0.0;
    done.iter()
        .skip(BLOCK - 1)
        .step_by(BLOCK)
        .map(|&end| {
            let took = end - previous;
            previous = end;
            took
        })
        .collect()
}

/// The ISS layer on a pass's cache misses: the one-shot
/// `EnergyMacroModel::estimate` of every inline program among
/// `samples`, the same programs the server simulated for them.
///
/// # Errors
///
/// When an inline program does not assemble or simulate.
fn iss_layer(
    seed: u64,
    samples: &[&Sample],
    model: &EnergyMacroModel,
    apps: &[Workload],
    layers: &mut Pass,
) -> Result<(), String> {
    for sample in samples {
        let Request::Inline(program) = gen::serve_request(seed, sample.index, apps.len()) else {
            continue;
        };
        let w = Workload::try_assemble(
            "inline",
            "inline request",
            ExtensionSet::empty(),
            &program,
            vec![],
        )
        .map_err(|e| format!("inline program {}: {e}", sample.index))?;
        let est = layers
            .time("sim.iss_s", || {
                model.estimate(w.program(), w.ext(), ProcConfig::default())
            })
            .map_err(|e| format!("inline program {}: {e}", sample.index))?;
        layers.add("sim.iss_insts", est.stats.inst_count as f64, "count");
    }
    let ns = layers.get("sim.iss_s") / layers.get("sim.iss_insts") * 1e9;
    layers.add("sim.iss_ns_per_inst", ns, "ns");
    Ok(())
}

/// The measured part of one phase.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    before: Stats,
    after: Stats,
}

/// Seconds of one untraced pass, both phases, at [`NOMINAL_RPS`]. A run
/// holds `--seconds` / `PASS_S` passes (at least one), so each phase is
/// measured across the whole run rather than in one half of it.
const PASS_S: f64 = 6.0;

/// Runs both phases once, each after its warm-up, answering `requests`
/// requests per phase, and appends the warm-up samples to `warmups`.
fn pass(
    inputs: &Inputs,
    seed: u64,
    next: &AtomicU64,
    requests: [u64; 2],
    warmups: &mut Vec<Sample>,
) -> Result<Vec<Phase>, String> {
    let addr = inputs.server.addr();
    let mut phases = Vec::with_capacity(PHASES.len());
    for ((clients, _), requests) in PHASES.into_iter().zip(requests) {
        warmups.extend(drive(addr, seed, &inputs.apps, clients, next, WARMUP).0);
        let before = stats(addr)?;
        let (samples, wall_s) = drive(addr, seed, &inputs.apps, clients, next, requests);
        let after = stats(addr)?;
        phases.push(Phase {
            samples,
            wall_s,
            before,
            after,
        });
    }
    Ok(phases)
}

/// The per-layer split of one traced pass.
fn traced_layers(
    seed: u64,
    model: &EnergyMacroModel,
    apps: &[Workload],
    phases: &[Phase],
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut layers = Pass::default();
    for (i, ((clients, name), phase)) in PHASES.iter().zip(phases).enumerate() {
        let (b, a) = (&phase.before, &phase.after);
        let hits = a.hits - b.hits;
        let misses = a.misses - b.misses;
        // The stats document summarizes histograms since start-up;
        // counts and exact means difference into per-phase means.
        let delta_mean = |mean_a: f64, n_a: f64, mean_b: f64, n_b: f64| {
            (mean_a * n_a - mean_b * n_b) / (n_a - n_b).max(1.0)
        };
        layers.add(
            &format!("serve.batches.{name}"),
            a.batches - b.batches,
            "count",
        );
        layers.add(
            &format!("serve.batch_size_mean.{name}"),
            delta_mean(a.batch_mean, a.batch_count, b.batch_mean, b.batch_count),
            "count",
        );
        layers.add(
            &format!("serve.server_mean_ms.{name}"),
            delta_mean(
                a.latency_mean_us,
                a.latency_count,
                b.latency_mean_us,
                b.latency_count,
            ) / 1e3,
            "ms",
        );
        layers.add(
            &format!("dse.cache_hit_ratio.{name}"),
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        let busy: f64 = phase.samples.iter().map(|s| s.latency_s).sum();
        layers.add(&format!("serve.request_s.{name}"), busy, "s");
        layers.account(
            &format!("phase{}", i + 1),
            phase.wall_s * *clients as f64,
            &[&format!("serve.request_s.{name}")],
            out,
        );
    }
    let samples: Vec<&Sample> = phases.iter().flat_map(|p| &p.samples).collect();
    iss_layer(seed, &samples, model, apps, &mut layers)?;
    Ok(layers)
}

/// Mean request latency over `passes`, seconds.
fn mean_latency<'a>(passes: impl Iterator<Item = &'a Vec<Phase>>) -> f64 {
    let (sum, n) = passes
        .flatten()
        .flat_map(|p| &p.samples)
        .fold((0.0, 0u32), |(s, n), x| (s + x.latency_s, n + 1));
    sum / f64::from(n.max(1))
}

/// Runs the workload for `spec.seconds`.
///
/// # Errors
///
/// Set-up failures, unreachable stats, or a server that fails to stop.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.run(setup)?;
    let mut out = Outcome::default();
    let next = AtomicU64::new(0);

    // The traced run alternates untraced and traced passes.
    let untraced = ((spec.seconds / PASS_S).round() as usize).max(1);
    let passes = if spec.trace { 2 * untraced } else { untraced };
    let phase_s = spec.seconds / (2 * passes) as f64;
    let requests = NOMINAL_RPS.map(|rps| ((phase_s * rps) as u64).max(BLOCK as u64));
    let start = Instant::now();
    let mut warmups = Vec::new();
    let mut plain: Vec<Vec<Phase>> = Vec::new();
    let mut traced: Vec<Vec<Phase>> = Vec::new();
    for i in 0..passes {
        let phases = pass(&inputs, spec.seed, &next, requests, &mut warmups)?;
        if spec.trace && i % 2 == 1 {
            traced.push(phases);
        } else {
            plain.push(phases);
        }
        setups.between(bench::secs(start), spec.seconds, setup)?;
    }
    let summary = inputs.server.stop()?;

    let app_answers = app_answers(&inputs.model, &inputs.apps)?;
    let mut failed = Vec::new();
    let checked = warmups.iter().chain(
        plain
            .iter()
            .chain(&traced)
            .flatten()
            .flat_map(|p| &p.samples),
    );
    let mut attempted = 0;
    let mut insts = 0;
    for sample in checked {
        attempted += 1;
        let (want, simulated) = expected(
            spec.seed,
            sample.index,
            &inputs.model,
            &inputs.apps,
            &app_answers,
        )?;
        insts += simulated;
        if let Err(why) = check_response(sample, &want) {
            failed.push(why);
        }
    }
    out.ops(attempted, failed.len(), || {
        format!("{} bad response(s), first: {}", failed.len(), failed[0])
    });
    out.note("requests", summary.requests);
    out.note("batches", summary.batches);
    out.note("insts_simulated", insts);
    out.note("passes", passes);

    if spec.trace {
        let mut layers = Vec::with_capacity(traced.len());
        for phases in &traced {
            layers.push(traced_layers(
                spec.seed,
                &inputs.model,
                &inputs.apps,
                phases,
                &mut out,
            )?);
        }
        layer_metrics(&layers, &mut out);
        let isa_s = timed(apps::all).1;
        out.metric("isa.assemble_s", isa_s, "s");
        out.metric(
            "obs.trace_overhead_pct",
            (mean_latency(traced.iter()) / mean_latency(plain.iter()) - 1.0) * 100.0,
            "%",
        );
    } else {
        out.metric("setup_s", setups.median(setup)?, "s");
        for (i, (_, name)) in PHASES.iter().enumerate() {
            let phases: Vec<&Phase> = plain.iter().map(|pass| &pass[i]).collect();
            let blocks: Vec<f64> = phases
                .iter()
                .flat_map(|p| block_times(&p.samples))
                .collect();
            let lat: Vec<f64> = phases
                .iter()
                .flat_map(|p| p.samples.iter().map(|s| s.latency_s))
                .collect();
            let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
            let delta = |f: fn(&Stats) -> f64| -> f64 {
                phases.iter().map(|p| f(&p.after) - f(&p.before)).sum()
            };
            bench::phase_metric(&mut out, i + 1, &blocks);
            out.metric(format!("rps_{name}"), lat.len() as f64 / wall_s, "rps");
            out.metric(format!("p50_ms_{name}"), median(&lat) * 1e3, "ms");
            out.metric(format!("p99_ms_{name}"), percentile(&lat, 99.0) * 1e3, "ms");
            out.note(&format!("samples_{name}"), lat.len());
            out.note(&format!("blocks_{name}"), blocks.len());
            out.note(&format!("hits_{name}"), delta(|s| s.hits));
            out.note(&format!("misses_{name}"), delta(|s| s.misses));
            out.note(&format!("batches_{name}"), delta(|s| s.batches));
        }
        out.metric("peak_rss_mb", bench::peak_rss_mib()?, "MiB");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_match_the_one_shot_path_and_a_wrong_answer_fails() {
        let inputs = setup().expect("set-up");
        let next = AtomicU64::new(0);
        let (samples, _) = drive(inputs.server.addr(), 5, &inputs.apps, 1, &next, 60);
        let answers = app_answers(&inputs.model, &inputs.apps).expect("one-shot answers");
        let mut inline = 0;
        for sample in &samples {
            let (want, _) =
                expected(5, sample.index, &inputs.model, &inputs.apps, &answers).expect("expected");
            check_response(sample, &want).expect("the service agrees with the one-shot path");
            let (name, energy, cycles) =
                match gen::serve_request(5, sample.index, inputs.apps.len()) {
                    Request::App(i) => (inputs.apps[i].name(), answers[i].0, answers[i].1),
                    Request::Inline(_) => {
                        inline += 1;
                        continue;
                    }
                };
            for (energy, cycles) in [(energy * 1.000_001, cycles), (energy, cycles + 1)] {
                assert!(check_response(sample, &envelope(name, energy, cycles)).is_err());
            }
        }
        assert!(
            samples.len() >= 10 && inline >= 1,
            "{} samples, {inline} inline",
            samples.len()
        );
        inputs.server.stop().expect("clean shutdown");
    }

    #[test]
    fn blocks_are_whole_runs_of_answered_requests() {
        let answered = |n: u64, every_s: f64| -> Vec<Sample> {
            (0..n)
                .map(|index| Sample {
                    index,
                    latency_s: every_s,
                    done_s: every_s * (index + 1) as f64,
                    status: 200,
                    body_hash: 0,
                    error: None,
                })
                .rev()
                .collect()
        };
        let blocks = block_times(&answered(250, 0.01));
        assert_eq!(blocks.len(), 2, "the last 50 requests are no whole block");
        for took in blocks {
            assert!((took - 1.0).abs() < 1e-9, "{took}");
        }
    }

    #[test]
    fn the_seed_orders_the_requests() {
        let apps = apps::all();
        let plan = |seed| (0..50).map(|i| body(seed, i, &apps)).collect::<Vec<_>>();
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
    }
}
