//! Differential suite for the ISS and the reference estimator against a
//! frozen golden.
//!
//! `tests/golden/iss-golden.txt` holds what the retired single-step
//! interpreter observed on every input below: for each entry, FNV-1a
//! digests of the canonical `ExecStats::to_json()` text, of the final
//! registers, pc and run outcome (halt or typed error), and of the full
//! `InstRecord` activity stream. The micro-op engine must reproduce every
//! entry byte for byte, with its activity sink both on and off, so the
//! oracle outlives the engine that produced it.
//!
//! Inputs: all 63 training programs (25 kernels + 9 calibration pairs +
//! 6 width variants + 23 directed cases), the Table II applications,
//! starved cycle budgets that cut programs off mid-flight, the error-path
//! and zero-cost-branch micro-cases, and the 64 deterministic cases of
//! each proptest below (the vendored proptest seeds every test from its
//! name, so the generated programs are fixed). A generated case with no
//! golden entry fails; it is never skipped.
//!
//! The `reference/*` entries pin the RTL reference estimator on the 63
//! training programs and the Table II applications: one FNV-1a digest
//! over the f64 bits of the total, of every `EnergyBreakdown` field and
//! of every window of a 256-cycle power profile. The validate golden
//! fixes only the training totals, so these catch a reordered
//! floating-point sum in any block or window.
//!
//! Regenerate only after a deliberate semantics change:
//! `cargo test --release --test differential -- --ignored`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use emx::isa::{encode, Program, Reg};
use emx::rtlpower::RtlEnergyEstimator;
use emx::sim::{
    ActivitySink, ExecStats, InstKind, InstRecord, Interp, ProcConfig, RunResult, SimError,
};
use emx::workloads::{suite, Workload};

const BUDGET: u64 = u32::MAX as u64;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/iss-golden.txt");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.bytes(bytes);
        h.0
    }
}

/// Folds every field of every record into one digest.
struct RecordDigest<'p> {
    program: &'p Program,
    hash: Fnv,
    count: u64,
}

impl ActivitySink for RecordDigest<'_> {
    fn record(&mut self, r: &InstRecord<'_>) {
        // `inst` is the static instruction at `pc`; check it rather than
        // hash a formatted copy per record.
        assert_eq!(
            Some(&r.inst),
            self.program.fetch(r.pc),
            "inst at {:#x}",
            r.pc
        );
        assert_eq!(r.word, encode(&r.inst), "word at {:#x}", r.pc);
        let h = &mut self.hash;
        h.u32(r.pc);
        h.u32(r.word);
        match r.kind {
            InstKind::Base(class, unit) => h.bytes(&[0, class.index() as u8, unit as u8]),
            InstKind::Custom(id) => {
                h.bytes(&[1]);
                h.u32(u32::from(id.0));
            }
        }
        h.u32(r.operand_a);
        h.u32(r.operand_b);
        match r.result {
            Some((reg, value)) => {
                h.bytes(&[1, reg.index() as u8]);
                h.u32(value);
            }
            None => h.bytes(&[0]),
        }
        h.u32(r.cycles);
        h.u32(r.stall_cycles);
        h.u32(r.flush_cycles);
        h.bytes(&[u8::from(r.fetch_hit), u8::from(r.fetch_uncached)]);
        match r.mem {
            Some(m) => {
                h.bytes(&[1]);
                h.u32(m.addr);
                h.u32(m.size);
                h.u32(m.value);
                h.bytes(&[u8::from(m.write), u8::from(m.hit), u8::from(m.writeback)]);
                h.bytes(&[u8::from(m.uncached)]);
            }
            None => h.bytes(&[0]),
        }
        match r.custom {
            Some(c) => {
                h.bytes(&[1]);
                h.u32(u32::from(c.id.0));
                h.bytes(&[c.latency, u8::from(c.uses_gpr)]);
                h.u64(c.node_values.len() as u64);
                for &v in c.node_values {
                    h.u64(v);
                }
            }
            None => h.bytes(&[0]),
        }
        self.count += 1;
    }
}

fn state_digest(sim: &Interp<'_>, outcome: &Result<RunResult, SimError>) -> u64 {
    let mut text = match outcome {
        Ok(run) => format!("halted={}", run.halted),
        Err(e) => format!("error={e:?}"),
    };
    let _ = write!(text, " pc={:#x}", sim.state().pc());
    for r in 0..16u8 {
        let _ = write!(text, " a{r}={:#x}", sim.state().reg(Reg::new(r)));
    }
    Fnv::of(text.as_bytes())
}

/// Runs `w` with the activity sink on and off, asserts the two runs
/// agree, and returns the golden line of digests of what they observed.
fn observe(w: &Workload, config: &ProcConfig, budget: u64) -> String {
    let mut digest = RecordDigest {
        program: w.program(),
        hash: Fnv::new(),
        count: 0,
    };
    let mut sunk = Interp::new(w.program(), w.ext(), config.clone());
    let sunk_run = sunk.run_with_sink(&mut digest, budget);

    let mut plain = Interp::new(w.program(), w.ext(), config.clone());
    let plain_run = plain.run(budget);
    assert_eq!(
        sunk_run,
        plain_run,
        "{}: sink changed the outcome",
        w.name()
    );
    assert_eq!(
        sunk.stats(),
        plain.stats(),
        "{}: sink changed stats",
        w.name()
    );
    if let Ok(run) = &plain_run {
        assert_eq!(&run.stats, plain.stats(), "{}: returned stats", w.name());
    }
    assert_eq!(
        digest.count,
        plain.stats().inst_count,
        "{}: one record per retired instruction",
        w.name()
    );

    let state = state_digest(&plain, &plain_run);
    assert_eq!(
        state,
        state_digest(&sunk, &sunk_run),
        "{}: sink changed the final state",
        w.name()
    );
    format!(
        "stats={:016x} state={state:016x} records={:016x}",
        Fnv::of(plain.stats().to_json().to_string().as_bytes()),
        digest.hash.0
    )
}

thread_local! {
    /// `Some` while the ignored bless test is regenerating the golden.
    static BLESSING: RefCell<Option<BTreeMap<String, String>>> = const { RefCell::new(None) };
}

fn golden() -> &'static BTreeMap<String, String> {
    static GOLDEN_MAP: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    GOLDEN_MAP.get_or_init(|| {
        let text = std::fs::read_to_string(GOLDEN).expect("tests/golden/iss-golden.txt exists");
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, value) = l.split_once(' ').expect("`<key> <digests>` line");
                (key.to_owned(), value.to_owned())
            })
            .collect()
    })
}

/// Checks `w` against the golden entry `key` (or records it while
/// blessing).
fn check(key: &str, w: &Workload, config: &ProcConfig, budget: u64) {
    check_line(key, observe(w, config, budget));
}

/// Checks `line` against the golden entry `key` (or records it while
/// blessing).
fn check_line(key: &str, line: String) {
    let blessed = BLESSING.with(|b| {
        b.borrow_mut().as_mut().map(|map| {
            if let Some(old) = map.insert(key.to_owned(), line.clone()) {
                assert_eq!(old, line, "{key}: one input, two observations");
            }
        })
    });
    if blessed.is_none() {
        let Some(expected) = golden().get(key) else {
            panic!("{key}: no golden entry (regenerate only after a deliberate semantics change)");
        };
        assert_eq!(&line, expected, "{key}: diverges from the frozen golden");
    }
}

/// The full 63-program training suite plus the Table II applications.
fn committed_workloads() -> Vec<Workload> {
    let mut all = suite::full_training_suite();
    all.extend(emx::workloads::apps::all());
    assert!(all.len() >= 63 + 5, "the committed corpus shrank");
    all
}

/// Every committed workload reproduces the legacy interpreter's frozen
/// stats, state and activity stream.
#[test]
fn micro_op_engine_matches_legacy_on_every_committed_workload() {
    for w in &committed_workloads() {
        check(
            &format!("workload/{}", w.name()),
            w,
            &ProcConfig::default(),
            BUDGET,
        );
    }
}

/// Every committed workload reproduces the reference estimator's frozen
/// total, per-block breakdown and 256-cycle power profile, bit for bit.
#[test]
fn reference_estimator_matches_the_golden_on_every_committed_workload() {
    let estimator = RtlEnergyEstimator::new();
    for w in &committed_workloads() {
        let (report, profile) = estimator
            .estimate_profiled(w.program(), w.ext(), ProcConfig::default(), 256)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let b = &report.breakdown;
        let mut h = Fnv::new();
        for e in [
            report.total,
            b.clock,
            b.fetch,
            b.decode,
            b.regfile,
            b.buses,
            b.execute,
            b.dmem,
            b.stall,
            b.custom,
            b.control,
            b.leakage,
        ]
        .into_iter()
        .chain(profile.windows())
        {
            h.u64(e.as_picojoules().to_bits());
        }
        check_line(
            &format!("reference/{}", w.name()),
            format!("energy={:016x}", h.0),
        );
    }
}

/// A starved cycle budget turns most suite programs into `CycleLimit`
/// errors mid-flight; the partial execution must match too, for every
/// budget shape.
#[test]
fn engines_agree_under_starved_cycle_budgets() {
    for (i, w) in suite::characterization_suite().iter().enumerate() {
        // Budgets spread from "dies in the prologue" to "dies deep in
        // the loop", varying per program so cut points differ.
        let budget = [3, 17, 101, 997][i % 4];
        check(
            &format!("starved/{}/{budget}", w.name()),
            w,
            &ProcConfig::default(),
            budget,
        );
    }
}

/// Directed error paths — falling off the text segment, an unaligned
/// load, the cycle limit — leave the frozen partial stats and state, and
/// a zero-cost branch/jump config yields the frozen flush accounting.
#[test]
fn error_paths_and_zero_cost_branches_match_the_golden() {
    let micro = |name: &str, src: &str| {
        Workload::try_assemble(
            name,
            "directed micro-case",
            emx::tie::ExtensionSet::empty(),
            src,
            vec![],
        )
        .expect("micro-case assembles")
    };
    for (name, src) in [
        ("invalid-pc", "nop\nnop\n"),
        ("unaligned", "movi a2, 1\nl32i a3, 0(a2)\nhalt"),
        ("cycle-limit", "l: j l\n"),
    ] {
        check(
            &format!("micro/{name}"),
            &micro(name, src),
            &ProcConfig::default(),
            100,
        );
    }
    let zero_cost = ProcConfig {
        branch_taken_cycles: 0,
        jump_cycles: 0,
        ..ProcConfig::default()
    };
    check(
        "micro/zero-cost-branches",
        &micro(
            "zero-cost-branches",
            "movi a2, 2\nl: addi a2, a2, -1\nbnez a2, l\nj done\ndone: halt",
        ),
        &zero_cost,
        10_000,
    );
}

/// Regenerates `tests/golden/iss-golden.txt` from the current engine and
/// reference estimator by running every golden-checking test in record
/// mode. Run only after a deliberate semantics change:
/// `cargo test --release --test differential -- --ignored`.
#[test]
#[ignore = "rewrites the ISS golden"]
fn bless_iss_golden() {
    BLESSING.with(|b| *b.borrow_mut() = Some(BTreeMap::new()));
    micro_op_engine_matches_legacy_on_every_committed_workload();
    reference_estimator_matches_the_golden_on_every_committed_workload();
    engines_agree_under_starved_cycle_budgets();
    error_paths_and_zero_cost_branches_match_the_golden();
    engines_agree_on_generated_programs();
    generated_program_stats_round_trip_json();
    let map = BLESSING
        .with(|b| b.borrow_mut().take())
        .expect("blessing map");
    let mut text = String::from(
        "# ISS golden: FNV-1a digests of ExecStats::to_json(), the final state and the\n\
         # InstRecord stream per input; reference/* digest the RTL reference estimator's\n\
         # total, breakdown and power profile. Regenerate: see tests/differential.rs.\n",
    );
    for (key, line) in &map {
        let _ = writeln!(text, "{key} {line}");
    }
    std::fs::write(GOLDEN, text).expect("golden written");
}

// ---------------------------------------------------------------------
// Randomized differential: generated loop programs with ALU and memory
// bodies. The generator only emits well-formed instructions; malformed
// encodings are the assembler's tests' concern, not the engine's.
// ---------------------------------------------------------------------

use proptest::prelude::*;

/// One random body instruction. Register operands stay in a2..=a11
/// (initialized by the prologue), the memory base in a12 points at a
/// 32-byte scratch buffer, and the loop counter lives in a13.
#[derive(Debug, Clone)]
enum BodyOp {
    Alu {
        op: &'static str,
        d: u8,
        s: u8,
        t: u8,
    },
    AluImm {
        d: u8,
        s: u8,
        imm: i32,
    },
    Load {
        d: u8,
        off: u32,
    },
    Store {
        s: u8,
        off: u32,
    },
    Skip {
        s: u8,
    },
}

impl BodyOp {
    fn emit(&self, line: usize) -> String {
        match *self {
            BodyOp::Alu { op, d, s, t } => format!("{op} a{d}, a{s}, a{t}"),
            BodyOp::AluImm { d, s, imm } => format!("addi a{d}, a{s}, {imm}"),
            BodyOp::Load { d, off } => format!("l32i a{d}, {off}(a12)"),
            BodyOp::Store { s, off } => format!("s32i a{s}, {off}(a12)"),
            // A forward branch over one nop: taken or untaken depending
            // on the (random) register contents at this point.
            BodyOp::Skip { s } => format!("beqz a{s}, sk{line}\nnop\nsk{line}:"),
        }
    }
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    let alu_ops = select(vec![
        "add", "sub", "and", "or", "xor", "mul", "slt", "sltu", "min", "maxu", "sll", "srl", "sra",
    ]);
    // One flat tuple of every field a variant might need, then a
    // weighted tag picks the variant (the vendored proptest has no
    // `prop_oneof!`).
    (
        (0u8..10, alu_ops, -128i32..128),
        (2u8..=11, 2u8..=11, 2u8..=11, 0u32..8),
    )
        .prop_map(|((tag, op, imm), (d, s, t, off))| match tag {
            0..=3 => BodyOp::Alu { op, d, s, t },
            4 | 5 => BodyOp::AluImm { d, s, imm },
            6 | 7 => BodyOp::Load { d, off: off * 4 },
            8 => BodyOp::Store { s, off: off * 4 },
            _ => BodyOp::Skip { s },
        })
}

/// Assembles a counted loop around the generated body, keyed in the
/// golden by a digest of its source.
fn loop_program(seeds: &[i32], body: &[BodyOp], iters: u32) -> (String, Workload) {
    let mut src = String::from(".data\nbuf: .word 11, 22, 33, 44, 55, 66, 77, 88\n.text\n");
    for (i, seed) in seeds.iter().enumerate() {
        src.push_str(&format!("movi a{}, {seed}\n", i + 2));
    }
    src.push_str(&format!("movi a12, buf\nmovi a13, {iters}\nloop:\n"));
    for (i, op) in body.iter().enumerate() {
        src.push_str(&op.emit(i));
        src.push('\n');
    }
    src.push_str("addi a13, a13, -1\nbnez a13, loop\nhalt\n");
    let key = format!("generated/{:016x}", Fnv::of(src.as_bytes()));
    let w = Workload::try_assemble(
        "generated",
        "proptest differential program",
        emx::tie::ExtensionSet::empty(),
        &src,
        vec![],
    )
    .expect("generated source assembles");
    (key, w)
}

proptest! {
    /// Any generated loop program matches the golden both to completion
    /// and under a starved budget that cuts it off mid-loop (including
    /// mid-interlock and mid-miss).
    #[test]
    fn engines_agree_on_generated_programs(
        seeds in proptest::collection::vec(-1000i32..1000, 10),
        body in proptest::collection::vec(body_op(), 1..24),
        iters in 1u32..24,
        starved_budget in 5u64..400,
    ) {
        let (key, w) = loop_program(&seeds, &body, iters);
        let config = ProcConfig::default();
        check(&format!("{key}/{BUDGET}"), &w, &config, BUDGET);
        check(&format!("{key}/{starved_budget}"), &w, &config, starved_budget);
    }

    /// The stats documents round-trip — ties the golden to the
    /// persisted-extraction representation the DSE cache relies on.
    #[test]
    fn generated_program_stats_round_trip_json(
        seeds in proptest::collection::vec(-50i32..50, 10),
        body in proptest::collection::vec(body_op(), 1..12),
        iters in 1u32..8,
    ) {
        let (key, w) = loop_program(&seeds, &body, iters);
        check(&format!("{key}/{BUDGET}"), &w, &ProcConfig::default(), BUDGET);
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let stats = sim.run(BUDGET).expect("halts").stats;
        prop_assert_eq!(ExecStats::from_json(&stats.to_json()), Some(stats));
    }
}
