//! Report round-trip properties and the regression gate's behaviour on
//! real measured distributions: a deliberately slowed benchmark must
//! trip the gate, and a report must always be clean against itself.

use proptest::prelude::*;

use emx_bench::compare::{self, Verdict, DEFAULT_THRESHOLD_PCT};
use emx_bench::harness::{Bench, BenchOptions, BenchRecord};
use emx_bench::report::{BenchEntry, BenchReport, Environment};
use emx_obs::Histogram;

fn test_environment() -> Environment {
    Environment {
        rustc: "rustc 1.80.0 (test)".into(),
        target: "x86_64-linux".into(),
        cpu_count: 8,
        opt_level: "release".into(),
        git_rev: "0123456789ab".into(),
    }
}

fn record(group: &str, id: &str, samples: &[u64]) -> BenchRecord {
    let mut hist = Histogram::new();
    for &v in samples {
        hist.record(v);
    }
    BenchRecord {
        group: group.to_owned(),
        id: id.to_owned(),
        samples: samples.len(),
        iters_per_sample: 1,
        throughput_elements: None,
        hist,
    }
}

/// Measures the same two closures twice through the real harness — one
/// fast, one ~20× slower in the second run — and checks the gate trips
/// on the slowed one only.
#[test]
fn slowed_benchmark_trips_the_gate() {
    fn spin(rounds: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            std::hint::black_box(acc);
        }
        acc
    }
    let measure = |slow_rounds: u64| -> BenchReport {
        let mut bench = Bench::with_options(BenchOptions {
            samples: Some(5),
            ..BenchOptions::default()
        });
        let mut group = bench.group("gate");
        group.bench("steady", || spin(20_000));
        group.bench("victim", || spin(slow_rounds));
        group.finish();
        BenchReport::new(test_environment(), &bench.finish())
    };

    let baseline = measure(20_000);
    let slowed = measure(400_000);

    // Compare at a 100 % threshold: host scheduling noise between the
    // two passes can exceed the default 10 % on a loaded machine, but
    // only the deliberate 20× slowdown clears a 2× bar.
    let cmp = compare::compare(&baseline, &slowed, 100.0);
    assert!(!cmp.passed(), "a 20× slowdown must regress");
    let victim = cmp.rows.iter().find(|r| r.name == "gate/victim").unwrap();
    assert_eq!(victim.verdict, Verdict::Regressed);
    assert!(victim.delta_pct > 100.0, "delta {}", victim.delta_pct);

    // The untouched benchmark stays inside its own noise band.
    let steady = cmp.rows.iter().find(|r| r.name == "gate/steady").unwrap();
    assert_ne!(steady.verdict, Verdict::Regressed);

    // And a report is always clean against itself.
    let self_cmp = compare::compare(&baseline, &baseline, DEFAULT_THRESHOLD_PCT);
    assert!(self_cmp.passed());
    assert!(self_cmp.rows.iter().all(|r| r.delta_pct == 0.0));
}

/// Strategy for plausible per-iteration latencies (ns): sub-µs to
/// tens of ms.
fn latencies() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(100u64..50_000_000, 2..40)
}

proptest! {
    #[test]
    fn report_round_trip_is_exact(
        a in latencies(),
        b in latencies(),
        throughput in (any::<bool>(), 1u64..1_000_000).prop_map(|(some, v)| some.then_some(v)),
    ) {
        let mut first = record("iss", "alpha", &a);
        first.throughput_elements = throughput;
        let second = record("lstsq", "qr/25", &b);
        let report = BenchReport::new(
            test_environment(),
            &[first, second],
        );
        let back = BenchReport::parse(&report.to_text()).expect("round-trip parses");
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(back.to_text(), report.to_text());
    }

    #[test]
    fn entry_stats_agree_with_their_histogram(samples in latencies()) {
        let entry = BenchEntry::from_record(&record("g", "x", &samples));
        prop_assert_eq!(entry.min_ns, entry.hist.min());
        prop_assert_eq!(entry.p50_ns, entry.hist.percentile(50.0));
        prop_assert_eq!(entry.p90_ns, entry.hist.percentile(90.0));
        prop_assert!(entry.min_ns <= entry.p50_ns && entry.p50_ns <= entry.p90_ns);
        prop_assert_eq!(entry.hist.count(), samples.len() as u64);
    }

    #[test]
    fn self_comparison_never_regresses(a in latencies(), b in latencies()) {
        let report = BenchReport::new(
            test_environment(),
            &[record("g", "a", &a), record("g", "b", &b)],
        );
        let cmp = compare::compare(&report, &report, DEFAULT_THRESHOLD_PCT);
        prop_assert!(cmp.passed());
        prop_assert!(cmp.missing.is_empty() && cmp.added.is_empty());
    }
}
