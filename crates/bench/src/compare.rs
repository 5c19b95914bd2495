//! Noise-aware comparison of two `emx.bench-report/1` snapshots.
//!
//! Plain percent-delta gates flap: micro-benchmarks jitter by several
//! percent run to run, so a naive `p50 > p50 × 1.05` check raises false
//! alarms weekly. The rule here demands that the *distributions*
//! separate before it believes a delta (see DESIGN.md §14):
//!
//! * **regressed** — current p50 above the baseline's p90 (the runs'
//!   noise bands no longer overlap) *and* the p50 delta exceeds the
//!   threshold;
//! * **improved** — mirror image: current p90 below the baseline's p50
//!   and the delta exceeds the threshold downward;
//! * **unchanged** — everything else, including benchmarks whose bands
//!   overlap no matter how large the nominal delta is.

use crate::report::{BenchEntry, BenchReport};

/// Default p50 delta (percent) a verdict must exceed.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Per-benchmark comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Noise bands separated upward and the delta beat the threshold.
    Regressed,
    /// Noise bands separated downward and the delta beat the threshold.
    Improved,
    /// Within noise (or within threshold).
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "ok",
        }
    }
}

/// One benchmark present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Full `group/id` name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub base_p50: u64,
    /// Baseline 90th percentile, nanoseconds.
    pub base_p90: u64,
    /// Current median, nanoseconds.
    pub cur_p50: u64,
    /// Current 90th percentile, nanoseconds.
    pub cur_p90: u64,
    /// Signed p50 delta, percent of the baseline.
    pub delta_pct: f64,
    /// The verdict under the noise-aware rule.
    pub verdict: Verdict,
}

/// The outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per benchmark present in both reports, in current-report
    /// order.
    pub rows: Vec<Row>,
    /// Benchmarks in the baseline only (renamed or removed).
    pub missing: Vec<String>,
    /// Benchmarks in the current report only (new).
    pub added: Vec<String>,
}

impl Comparison {
    /// Rows that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regressed)
    }

    /// `true` when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }
}

fn judge(base: &BenchEntry, cur: &BenchEntry, threshold_pct: f64) -> Row {
    let delta_pct = if base.p50_ns == 0 {
        0.0
    } else {
        100.0 * (cur.p50_ns as f64 - base.p50_ns as f64) / base.p50_ns as f64
    };
    let verdict = if cur.p50_ns > base.p90_ns && delta_pct > threshold_pct {
        Verdict::Regressed
    } else if cur.p90_ns < base.p50_ns && delta_pct < -threshold_pct {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        name: cur.name.clone(),
        base_p50: base.p50_ns,
        base_p90: base.p90_ns,
        cur_p50: cur.p50_ns,
        cur_p90: cur.p90_ns,
        delta_pct,
        verdict,
    }
}

/// Compares `current` against `baseline` benchmark by benchmark.
/// `threshold_pct` is the minimum p50 delta (percent) a verdict needs;
/// pass [`DEFAULT_THRESHOLD_PCT`] unless the caller overrides it.
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold_pct: f64) -> Comparison {
    let rows = current
        .benchmarks
        .iter()
        .filter_map(|cur| {
            baseline
                .benchmark(&cur.name)
                .map(|base| judge(base, cur, threshold_pct))
        })
        .collect();
    let missing = baseline
        .benchmarks
        .iter()
        .filter(|b| current.benchmark(&b.name).is_none())
        .map(|b| b.name.clone())
        .collect();
    let added = current
        .benchmarks
        .iter()
        .filter(|b| baseline.benchmark(&b.name).is_none())
        .map(|b| b.name.clone())
        .collect();
    Comparison {
        rows,
        missing,
        added,
    }
}

/// Renders the comparison as a fixed-width table plus a summary line.
pub fn format_table(comparison: &Comparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:>12} {:>12} {:>8}  {}\n",
        "benchmark", "base p50", "cur p50", "delta", "verdict"
    ));
    for row in &comparison.rows {
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>+7.1}%  {}\n",
            row.name,
            crate::harness::fmt_nanos(row.base_p50),
            crate::harness::fmt_nanos(row.cur_p50),
            row.delta_pct,
            row.verdict.label()
        ));
    }
    for name in &comparison.missing {
        out.push_str(&format!("{name:<40} missing from current run\n"));
    }
    for name in &comparison.added {
        out.push_str(&format!("{name:<40} new (no baseline)\n"));
    }
    let regressed = comparison.regressions().count();
    let improved = comparison
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Improved)
        .count();
    out.push_str(&format!(
        "\n{} compared: {} regressed, {} improved, {} unchanged\n",
        comparison.rows.len(),
        regressed,
        improved,
        comparison.rows.len() - regressed - improved
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::BenchRecord;
    use crate::report::{BenchReport, Environment};
    use emx_obs::Histogram;

    fn env() -> Environment {
        Environment {
            rustc: "rustc 1.80.0".into(),
            target: "x86_64-linux".into(),
            cpu_count: 8,
            opt_level: "release".into(),
            git_rev: "abc".into(),
        }
    }

    fn report_with(entries: &[(&str, &[u64])]) -> BenchReport {
        let records: Vec<BenchRecord> = entries
            .iter()
            .map(|(name, samples)| {
                let mut hist = Histogram::new();
                for &v in *samples {
                    hist.record(v);
                }
                BenchRecord {
                    group: "g".into(),
                    id: (*name).to_owned(),
                    samples: samples.len(),
                    iters_per_sample: 1,
                    throughput_elements: None,
                    hist,
                }
            })
            .collect();
        BenchReport::new(env(), &records)
    }

    #[test]
    fn self_comparison_is_clean() {
        let report = report_with(&[("a", &[100, 110, 120]), ("b", &[5000, 5100, 5200])]);
        let cmp = compare(&report, &report, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.passed());
        assert_eq!(cmp.rows.len(), 2);
        assert!(cmp.missing.is_empty() && cmp.added.is_empty());
        assert!(cmp.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn clear_slowdown_regresses() {
        let base = report_with(&[("a", &[1000, 1000, 1100])]);
        let cur = report_with(&[("a", &[4000, 4000, 4400])]);
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert!(!cmp.passed());
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
        assert!(cmp.rows[0].delta_pct > 100.0);
    }

    #[test]
    fn overlapping_bands_stay_unchanged_despite_large_p50_delta() {
        // Baseline is noisy: p90 far above p50. A current p50 inside the
        // baseline's band is not evidence of a regression.
        let base = report_with(&[(
            "a",
            &[1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 4000, 4000],
        )]);
        let cur = report_with(&[("a", &[2000, 2000, 2000])]);
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        let row = &cmp.rows[0];
        assert!(row.delta_pct > 50.0, "delta {}", row.delta_pct);
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn clear_speedup_improves() {
        let base = report_with(&[("a", &[4000, 4000, 4400])]);
        let cur = report_with(&[("a", &[1000, 1000, 1100])]);
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert_eq!(cmp.rows[0].verdict, Verdict::Improved);
        assert!(cmp.passed(), "improvements never fail the gate");
    }

    #[test]
    fn renames_are_reported_not_judged() {
        let base = report_with(&[("old", &[100, 100])]);
        let cur = report_with(&[("new", &[100, 100])]);
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.rows.is_empty());
        assert_eq!(cmp.missing, vec!["g/old".to_owned()]);
        assert_eq!(cmp.added, vec!["g/new".to_owned()]);
        assert!(cmp.passed());
        let table = format_table(&cmp);
        assert!(table.contains("missing from current run"));
        assert!(table.contains("new (no baseline)"));
    }
}
