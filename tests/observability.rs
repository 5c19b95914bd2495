//! Integration tests for the observability CLI surface: `emx-run
//! --stats-json` must round-trip through the JSON parser with the
//! documented `emx.exec-stats/1` schema, and `--chrome-trace` must emit
//! a valid Chrome `trace_event` file (well-formed JSON, known phase
//! codes, monotone timestamps per track) that Perfetto will load.

use std::path::PathBuf;
use std::process::Command;

use emx::obs::json::Value;

const PROGRAM: &str = "\
movi a2, 100
movi a3, 0
l: add a3, a3, a2
addi a2, a2, -1
bnez a2, l
halt
";

/// Materializes the test program and output paths in the target tmpdir,
/// runs `emx-run` once with both JSON outputs enabled, and returns the
/// parsed stats and trace documents.
fn run_emx_run(tag: &str) -> (Value, Value) {
    let dir = std::env::temp_dir().join(format!("emx-obs-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let program = dir.join("loop.s");
    let stats: PathBuf = dir.join("stats.json");
    let trace: PathBuf = dir.join("trace.json");
    std::fs::write(&program, PROGRAM).expect("write program");

    let output = Command::new(env!("CARGO_BIN_EXE_emx-run"))
        .arg(&program)
        .arg("--energy")
        .arg("--stats-json")
        .arg(&stats)
        .arg("--chrome-trace")
        .arg(&trace)
        .output()
        .expect("spawn emx-run");
    assert!(
        output.status.success(),
        "emx-run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stats_text = std::fs::read_to_string(&stats).expect("stats file written");
    let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_dir_all(&dir);
    (
        Value::parse(&stats_text).expect("stats output is valid JSON"),
        Value::parse(&trace_text).expect("chrome trace output is valid JSON"),
    )
}

#[test]
fn stats_json_round_trips_with_the_documented_schema() {
    let (stats, _) = run_emx_run("stats");

    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some("emx.exec-stats/1")
    );
    let instructions = stats
        .get("instructions")
        .and_then(Value::as_u64)
        .expect("instructions field");
    let cycles = stats
        .get("total_cycles")
        .and_then(Value::as_u64)
        .expect("total_cycles field");
    // The 100-iteration loop retires 3 instructions per trip plus setup,
    // and every retirement costs at least one cycle.
    assert!(instructions > 300, "instructions = {instructions}");
    assert!(cycles >= instructions, "cycles = {cycles}");

    // Per-class breakdown must itself sum back to the totals: the JSON
    // is a faithful projection of ExecStats, not a re-derivation.
    let classes = stats
        .get("classes")
        .and_then(Value::as_object)
        .expect("classes object");
    let class_insts: u64 = classes
        .iter()
        .filter_map(|(_, c)| c.get("count").and_then(Value::as_u64))
        .sum();
    assert_eq!(class_insts, instructions);

    for key in ["icache_misses", "dcache_misses", "interlocks", "structural"] {
        assert!(stats.get(key).is_some(), "missing field `{key}`");
    }
}

#[test]
fn chrome_trace_is_valid_trace_event_json_with_monotone_timestamps() {
    let (_, trace) = run_emx_run("trace");

    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");

    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut depth = 0i64;
    let mut phase_names = Vec::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .expect("event has a phase code");
        assert!(
            matches!(ph, "M" | "B" | "E" | "i" | "C" | "X"),
            "unknown phase code `{ph}`"
        );
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let pid = event.get("pid").and_then(Value::as_u64).expect("pid");
        let tid = event.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let ts = event.get("ts").and_then(Value::as_f64).expect("ts");
        let previous = last_ts.insert((pid, tid), ts);
        if let Some(previous) = previous {
            assert!(
                ts >= previous,
                "timestamps regress on track ({pid},{tid}): {previous} -> {ts}"
            );
        }
        match ph {
            "B" => {
                depth += 1;
                if let Some(name) = event.get("name").and_then(Value::as_str) {
                    phase_names.push(name.to_owned());
                }
            }
            "E" => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "E event without a matching B");
    }
    assert_eq!(depth, 0, "unbalanced B/E span events");

    // The run must record both pipeline phases the CLI wraps in spans.
    for expected in ["iss-simulate", "rtl-energy-integration"] {
        assert!(
            phase_names.iter().any(|n| n == expected),
            "span `{expected}` missing from trace (got {phase_names:?})"
        );
    }

    // Counter series from the instruction stream must be present: the
    // windowed ISS sink emits sim.* tracks, the estimator rtl.* ones.
    let counter_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        counter_names.iter().any(|n| n.starts_with("sim.")),
        "no sim.* counter series in trace (got {counter_names:?})"
    );
}
