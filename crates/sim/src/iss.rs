use emx_isa::{Program, Reg};
use emx_tie::ExtensionSet;

use crate::record::{ActivitySink, NullSink};
use crate::{Cache, CoreState, ExecStats, ProcConfig, SimError};

/// What kind of delayed-result hazard the previous instruction left
/// behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HazKind {
    Load,
    Mul,
    Custom,
}

/// Result of a completed simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The gathered execution statistics.
    pub stats: ExecStats,
    /// `true` if the program reached `halt` (always true on `Ok`; kept for
    /// symmetry with partial-run extensions).
    pub halted: bool,
}

/// The functional instruction-set simulator (the paper's "instruction set
/// simulation" step).
///
/// Executes a program on a base-plus-extension processor configuration,
/// modeling exactly the micro-architectural effects the macro-model
/// variables observe: per-class cycles, I/D-cache misses, uncached
/// fetches, pipeline interlocks, custom-instruction latencies and GPR
/// coupling, and the dynamic resource usage of the custom hardware.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Interp<'a> {
    pub(crate) program: &'a Program,
    pub(crate) ext: &'a ExtensionSet,
    pub(crate) config: ProcConfig,
    pub(crate) state: CoreState,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) stats: ExecStats,
    pub(crate) hazard: Option<(Reg, HazKind)>,
}

impl<'a> Interp<'a> {
    /// Creates a simulator at the program's entry point.
    pub fn new(program: &'a Program, ext: &'a ExtensionSet, config: ProcConfig) -> Self {
        Interp {
            program,
            ext,
            state: CoreState::new(program, ext),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            stats: ExecStats::new(ext.len()),
            config,
            hazard: None,
        }
    }

    /// The architectural state (registers, memory, custom state).
    pub fn state(&self) -> &CoreState {
        &self.state
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The processor configuration in use.
    pub fn config(&self) -> &ProcConfig {
        &self.config
    }

    /// Runs until `halt`, or until `max_cycles` simulated cycles have
    /// elapsed.
    ///
    /// This executes over a pre-decoded micro-op table (see the `uop`
    /// module) with no activity sink attached.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the budget is exhausted, plus any
    /// executor error ([`SimError::InvalidPc`], [`SimError::Unaligned`],
    /// …).
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        crate::uop::run(self, max_cycles, &mut NullSink)
    }

    /// Runs like [`Interp::run`] (micro-op engine) while counting retired
    /// executions of each static instruction into `counts`, indexed like
    /// `Program::text`. `counts` is resized to the program length; a
    /// caller-provided buffer lets repeated runs reuse one allocation.
    ///
    /// This is the observation hook behind
    /// [`observe::exec_counts`](crate::observe::exec_counts), which
    /// custom-instruction discovery uses to weight basic blocks by how
    /// often they executed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interp::run`]; on error, `counts` covers the
    /// instructions retired before the error fired.
    pub fn run_with_exec_counts(
        &mut self,
        max_cycles: u64,
        counts: &mut Vec<u64>,
    ) -> Result<RunResult, SimError> {
        counts.clear();
        counts.resize(self.program.len(), 0);
        crate::uop::run_counting(self, max_cycles, counts)
    }

    /// Runs like [`Interp::run`] while streaming one
    /// [`InstRecord`](crate::InstRecord) per retired instruction into
    /// `sink`: the full stage-level activity (fetched encoding, operand
    /// and result buses, cache behaviour, custom-datapath node values,
    /// stall and flush cycles) that the RTL-level reference energy
    /// estimator integrates, playing the role of the paper's ModelSim
    /// trace generation.
    ///
    /// The same micro-op loop runs with or without a sink, so statistics,
    /// state and errors are identical to [`Interp::run`]'s; only the
    /// record construction is added.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use emx_isa::asm::Assembler;
    /// use emx_sim::{InstRecord, Interp, ProcConfig};
    /// use emx_tie::ExtensionSet;
    ///
    /// let program = Assembler::new().assemble("movi a2, 3\nhalt")?;
    /// let ext = ExtensionSet::empty();
    /// let mut cycles = 0u64;
    /// let mut sink = |r: &InstRecord<'_>| cycles += u64::from(r.cycles);
    /// let mut sim = Interp::new(&program, &ext, ProcConfig::default());
    /// let run = sim.run_with_sink(&mut sink, 1_000)?;
    /// assert_eq!(cycles, run.stats.total_cycles);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interp::run`].
    pub fn run_with_sink<S: ActivitySink>(
        &mut self,
        sink: &mut S,
        max_cycles: u64,
    ) -> Result<RunResult, SimError> {
        crate::uop::run(self, max_cycles, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{InstKind, InstRecord};
    use emx_isa::asm::Assembler;
    use emx_isa::DynClass;

    fn sim(src: &str) -> (ExecStats, u32) {
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        let run = interp.run(10_000_000).unwrap();
        let a2 = interp.state().reg(Reg::new(2));
        (run.stats, a2)
    }

    /// Runs `src` to `halt` and returns the final architectural state.
    fn run_to_halt(src: &str) -> CoreState {
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        assert!(interp.run(100_000).unwrap().halted);
        interp.state().clone()
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn counts_classes() {
        let (stats, _) =
            sim("movi a2, 3\nmovi a3, 0\nl: addi a3, a3, 1\naddi a2, a2, -1\nbnez a2, l\nhalt");
        // movi×2 + (addi,addi)×3 = 8 arithmetic instructions.
        assert_eq!(stats.count_of(DynClass::Arithmetic), 8);
        assert_eq!(stats.count_of(DynClass::BranchTaken), 2);
        assert_eq!(stats.count_of(DynClass::BranchUntaken), 1);
        // halt counts as one jump-class instruction at 1 cycle.
        assert_eq!(stats.count_of(DynClass::Jump), 1);
        assert_eq!(stats.cycles_of(DynClass::Jump), 1);
        // Taken branches occupy 3 cycles each by default.
        assert_eq!(stats.cycles_of(DynClass::BranchTaken), 6);
    }

    #[test]
    fn load_use_interlock_detected() {
        let (with, _) =
            sim(".data\nv: .word 5\n.text\nmovi a2, v\nl32i a3, 0(a2)\nadd a4, a3, a3\nhalt");
        let (without, _) =
            sim(".data\nv: .word 5\n.text\nmovi a2, v\nl32i a3, 0(a2)\nnop\nadd a4, a3, a3\nhalt");
        assert_eq!(with.interlocks, 1);
        assert_eq!(without.interlocks, 0);
    }

    #[test]
    fn mul_result_interlock() {
        let (stats, _) = sim("movi a2, 3\nmovi a3, 4\nmul a4, a2, a3\nadd a5, a4, a4\nhalt");
        assert_eq!(stats.interlocks, 1);
        let (stats2, _) = sim("movi a2, 3\nmovi a3, 4\nmul a4, a2, a3\nadd a5, a2, a3\nhalt");
        assert_eq!(stats2.interlocks, 0);
    }

    #[test]
    fn icache_misses_counted() {
        // 6 instructions fit in a single 32-byte line starting at 0.
        let (stats, _) = sim("nop\nnop\nnop\nnop\nnop\nhalt");
        assert_eq!(stats.icache_misses, 1);
        assert_eq!(stats.uncached_fetches, 0);
    }

    #[test]
    fn uncached_fetch_counted() {
        let (stats, _) = sim(".uncached\nnop\nnop\nhalt");
        assert_eq!(stats.uncached_fetches, 3);
        assert_eq!(stats.icache_misses, 0);
        // Each uncached fetch costs its penalty on top of the base cycle.
        let cfg = ProcConfig::default();
        assert_eq!(
            stats.total_cycles,
            3 + 3 * u64::from(cfg.uncached_fetch_penalty)
        );
    }

    #[test]
    fn dcache_misses_counted() {
        // Two loads from the same line: one miss, one hit.
        let (stats, _) =
            sim(".data\nv: .word 1, 2\n.text\nmovi a2, v\nl32i a3, 0(a2)\nl32i a4, 4(a2)\nhalt");
        assert_eq!(stats.dcache_misses, 1);
    }

    #[test]
    fn cycle_limit_enforced() {
        let program = Assembler::new().assemble("l: j l\n").unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        assert_eq!(interp.run(100), Err(SimError::CycleLimit(100)));
    }

    #[test]
    fn total_cycles_decompose() {
        let (stats, _) = sim("movi a2, 2\nl: addi a2, a2, -1\nbnez a2, l\nhalt");
        let cfg = ProcConfig::default();
        let expected = stats.base_class_cycles()
            + stats.icache_misses * u64::from(cfg.icache_miss_penalty)
            + stats.dcache_misses * u64::from(cfg.dcache_miss_penalty)
            + stats.uncached_fetches * u64::from(cfg.uncached_fetch_penalty)
            + stats.interlocks
            + stats.custom_cycles;
        assert_eq!(stats.total_cycles, expected);
    }

    #[test]
    fn sink_sees_every_instruction() {
        let program = Assembler::new()
            .assemble("movi a2, 1\nadd a3, a2, a2\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        let mut seen = Vec::new();
        let mut sink = |r: &InstRecord<'_>| seen.push((r.pc, r.cycles));
        interp.run_with_sink(&mut sink, 1_000).unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 4);
    }

    #[test]
    fn record_cycles_sum_to_total() {
        let program = Assembler::new()
            .assemble(
                ".data\nv: .word 1,2,3,4\n.text\nmovi a2, v\nmovi a3, 4\nmovi a5, 0\n\
                 l: l32i a4, 0(a2)\nadd a5, a5, a4\naddi a2, a2, 4\naddi a3, a3, -1\n\
                 bnez a3, l\nhalt",
            )
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut sum = 0u64;
        let mut stalls = 0u64;
        let mut sink = |r: &InstRecord<'_>| {
            sum += u64::from(r.cycles);
            stalls += u64::from(r.stall_cycles);
        };
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        let run = sim.run_with_sink(&mut sink, 100_000).unwrap();
        assert_eq!(sum, run.stats.total_cycles);
        assert_eq!(stalls, run.stats.interlocks);
        assert_eq!(sim.state().reg(Reg::new(5)), 10);
    }

    #[test]
    fn fetch_flags_in_records() {
        let program = Assembler::new().assemble("nop\nnop\nhalt").unwrap();
        let ext = ExtensionSet::empty();
        let mut hits = Vec::new();
        let mut sink = |r: &InstRecord<'_>| hits.push(r.fetch_hit);
        Interp::new(&program, &ext, ProcConfig::default())
            .run_with_sink(&mut sink, 1_000)
            .unwrap();
        // First fetch misses the cold cache, the rest of the line hits.
        assert_eq!(hits, vec![false, true, true]);
    }

    #[test]
    fn zero_cost_branch_config_does_not_underflow() {
        // Regression: flush_cycles was computed as `cost - 1`, which
        // panicked in debug builds when branch_taken_cycles or
        // jump_cycles was configured to 0. The sinked run is the one
        // that materializes flush_cycles. tests/differential.rs pins
        // this case in the ISS golden.
        let src = "movi a2, 2\nl: addi a2, a2, -1\nbnez a2, l\nj done\ndone: halt";
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let config = ProcConfig {
            branch_taken_cycles: 0,
            jump_cycles: 0,
            ..ProcConfig::default()
        };
        let mut flushes = Vec::new();
        let mut sink = |r: &InstRecord<'_>| flushes.push(r.flush_cycles);
        let mut interp = Interp::new(&program, &ext, config.clone());
        let run = interp.run_with_sink(&mut sink, 10_000).unwrap();
        assert!(run.halted);
        assert!(flushes.iter().all(|&f| f == 0));
        // The run without a sink accepts the same config and agrees.
        let mut fast = Interp::new(&program, &ext, config);
        assert_eq!(fast.run(10_000).unwrap().stats, run.stats);
    }

    #[test]
    fn sink_on_and_off_agree_on_error_paths() {
        // Errors must leave identical partial stats and state with and
        // without a sink: invalid pc (fall off the end), unaligned
        // access, and the cycle limit. tests/differential.rs pins these
        // cases in the ISS golden.
        for (src, expected) in [
            ("nop\nnop\n", SimError::InvalidPc(8)),
            (
                "movi a2, 1\nl32i a3, 0(a2)\nhalt",
                SimError::Unaligned { addr: 1, size: 4 },
            ),
            ("l: j l\n", SimError::CycleLimit(100)),
        ] {
            let program = Assembler::new().assemble(src).unwrap();
            let ext = ExtensionSet::empty();
            let mut fast = Interp::new(&program, &ext, ProcConfig::default());
            let fast_err = fast.run(100).unwrap_err();
            let mut sunk = Interp::new(&program, &ext, ProcConfig::default());
            let mut records = 0u64;
            let mut sink = |_: &InstRecord<'_>| records += 1;
            let sunk_err = sunk.run_with_sink(&mut sink, 100).unwrap_err();
            assert_eq!(fast_err, expected, "{src:?}");
            assert_eq!(sunk_err, expected, "{src:?}");
            assert_eq!(fast.stats(), sunk.stats(), "{src:?}");
            assert_eq!(fast.state().pc(), sunk.state().pc(), "{src:?}");
            // The failing instruction retires nothing and emits no record.
            assert_eq!(records, sunk.stats().inst_count, "{src:?}");
        }
    }

    #[test]
    fn stats_match_between_fast_and_sinked_runs() {
        let src = "movi a2, 50\nmovi a3, 0\nl: add a3, a3, a2\naddi a2, a2, -1\nbnez a2, l\nhalt";
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let mut fast = Interp::new(&program, &ext, ProcConfig::default());
        let fast_stats = fast.run(1_000_000).unwrap().stats;
        let mut slow = Interp::new(&program, &ext, ProcConfig::default());
        let mut sink = |_: &InstRecord<'_>| {};
        let slow_stats = slow.run_with_sink(&mut sink, 1_000_000).unwrap().stats;
        assert_eq!(fast_stats, slow_stats);
    }

    // ---- instruction semantics --------------------------------------------

    #[test]
    fn arithmetic_semantics() {
        let s = run_to_halt(
            "movi a2, 7\nmovi a3, -3\nadd a4, a2, a3\nsub a5, a2, a3\nmul a6, a2, a3\n\
             neg a7, a3\nabs a8, a3\nclz a9, a2\nmax a10, a2, a3\nminu a11, a2, a3\nhalt",
        );
        assert_eq!(s.reg(r(4)), 4);
        assert_eq!(s.reg(r(5)), 10);
        assert_eq!(s.reg(r(6)) as i32, -21);
        assert_eq!(s.reg(r(7)), 3);
        assert_eq!(s.reg(r(8)), 3);
        assert_eq!(s.reg(r(9)), 29);
        assert_eq!(s.reg(r(10)), 7);
        assert_eq!(s.reg(r(11)), 7); // unsigned: -3 is huge
    }

    #[test]
    fn shift_semantics() {
        let s = run_to_halt(
            "movi a2, 0x80000001\nslli a3, a2, 1\nsrli a4, a2, 1\nsrai a5, a2, 1\n\
             rori a6, a2, 1\nmovi a7, 4\nsll a8, a2, a7\nhalt",
        );
        assert_eq!(s.reg(r(3)), 2);
        assert_eq!(s.reg(r(4)), 0x4000_0000);
        assert_eq!(s.reg(r(5)), 0xc000_0000);
        assert_eq!(s.reg(r(6)), 0xc000_0000);
        assert_eq!(s.reg(r(8)), 0x10);
    }

    #[test]
    fn mul_variants() {
        let s = run_to_halt(
            "movi a2, 0x10000\nmovi a3, 0x10000\nmulh a4, a2, a3\nmuluh a5, a2, a3\n\
             movi a6, -2\nmovi a7, 3\nmul16s a8, a6, a7\nmul16u a9, a6, a7\nhalt",
        );
        assert_eq!(s.reg(r(4)), 1);
        assert_eq!(s.reg(r(5)), 1);
        assert_eq!(s.reg(r(8)) as i32, -6);
        assert_eq!(s.reg(r(9)), 0xfffe * 3);
    }

    #[test]
    fn extui_and_sext() {
        let s = run_to_halt(
            "movi a2, 0x12345678\nextui a3, a2, 8, 12\nmovi a4, 0x80\nsext8 a5, a4\n\
             movi a6, 0x8000\nsext16 a7, a6\nhalt",
        );
        assert_eq!(s.reg(r(3)), 0x456);
        assert_eq!(s.reg(r(5)), 0xffff_ff80);
        assert_eq!(s.reg(r(7)), 0xffff_8000);
    }

    #[test]
    fn conditional_moves() {
        let s = run_to_halt(
            "movi a2, 5\nmovi a3, 0\nmovi a4, 99\nmoveqz a4, a2, a3\n\
             movi a5, 99\nmovnez a5, a2, a3\nmovi a6, -1\nmovi a7, 99\nmovltz a7, a2, a6\nhalt",
        );
        assert_eq!(s.reg(r(4)), 5); // a3 == 0 → moved
        assert_eq!(s.reg(r(5)), 99); // a3 == 0 → not moved
        assert_eq!(s.reg(r(7)), 5); // a6 < 0 → moved
    }

    #[test]
    fn memory_round_trip() {
        let s = run_to_halt(
            ".data\nbuf: .space 16\n.text\nmovi a2, buf\nmovi a3, 0x1234abcd\n\
             s32i a3, 0(a2)\nl32i a4, 0(a2)\nl16ui a5, 0(a2)\nl16si a6, 2(a2)\n\
             l8ui a7, 3(a2)\ns8i a3, 8(a2)\nl8si a8, 8(a2)\nhalt",
        );
        assert_eq!(s.reg(r(4)), 0x1234_abcd);
        assert_eq!(s.reg(r(5)), 0xabcd);
        assert_eq!(s.reg(r(6)), 0x1234);
        assert_eq!(s.reg(r(7)), 0x12);
        assert_eq!(s.reg(r(8)), 0xffff_ffcd);
    }

    #[test]
    fn unaligned_access_faults() {
        let program = Assembler::new()
            .assemble("movi a2, 1\nl32i a3, 0(a2)\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        assert_eq!(
            interp.run(1_000),
            Err(SimError::Unaligned { addr: 1, size: 4 })
        );
    }

    #[test]
    fn calls_and_returns() {
        let s = run_to_halt("movi a2, 1\ncall fn\nmovi a4, 7\nhalt\nfn: movi a3, 6\nret");
        assert_eq!(s.reg(r(3)), 6);
        assert_eq!(s.reg(r(4)), 7);
    }

    #[test]
    fn computed_jump() {
        let s = run_to_halt("movi a2, tgt\njx a2\nmovi a3, 1\nhalt\ntgt: movi a3, 2\nhalt");
        assert_eq!(s.reg(r(3)), 2);
    }

    #[test]
    fn branch_taken_and_untaken() {
        let program = Assembler::new()
            .assemble("movi a2, 0\nbeqz a2, yes\nnop\nyes: bnez a2, no\nhalt\nno: nop\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut kinds = Vec::new();
        let mut sink = |r: &InstRecord<'_>| kinds.push(r.kind);
        Interp::new(&program, &ext, ProcConfig::default())
            .run_with_sink(&mut sink, 1_000)
            .unwrap();
        let class = |i: usize| match kinds[i] {
            InstKind::Base(class, _) => class,
            InstKind::Custom(id) => panic!("unexpected custom {id}"),
        };
        assert_eq!(class(1), DynClass::BranchTaken);
        assert_eq!(class(2), DynClass::BranchUntaken);
    }

    #[test]
    fn mask_branches() {
        let s = run_to_halt(
            "movi a2, 0b1110\nmovi a3, 0b0110\nmovi a4, 0\n\
             ball a2, a3, t1\nj end\nt1: addi a4, a4, 1\n\
             bany a2, a3, t2\nj end\nt2: addi a4, a4, 1\n\
             movi a5, 0b0001\nbnone a2, a5, t3\nj end\nt3: addi a4, a4, 1\n\
             end: halt",
        );
        assert_eq!(s.reg(r(4)), 3);
    }

    #[test]
    fn invalid_pc_detected() {
        let program = Assembler::new().assemble("nop\nnop\n").unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        assert_eq!(interp.run(1_000), Err(SimError::InvalidPc(8)));
    }

    #[test]
    fn l32r_reads_literal() {
        let s = run_to_halt(".data\nk: .word 0xcafef00d\n.text\nl32r a2, k\nhalt");
        assert_eq!(s.reg(r(2)), 0xcafe_f00d);
    }
}
