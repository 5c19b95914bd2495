use emx_hwlib::{Category, DfGraph, HwEnergyParams};
use emx_isa::{CustomId, Program};
use emx_obs::Collector;
use emx_sim::{ActivitySink, ExecStats, InstKind, InstRecord, Interp, ProcConfig, SimError};
use emx_tie::{ExtensionSet, InputBind, OutputBind};

use crate::gates::ExStageNets;
use crate::{BaseEnergyParams, Energy, EnergyBreakdown};

/// Counts toggled bits between two 32-bit net vectors the way an RTL
/// power tool does: by walking the nets. (Deliberately not `count_ones`;
/// per-net iteration is the granularity the reference flow pays for.)
fn net_toggles32(a: u32, b: u32) -> f64 {
    let x = a ^ b;
    let mut n = 0u32;
    for bit in 0..32 {
        n += (x >> bit) & 1;
    }
    f64::from(n)
}

fn net_toggles64(a: u64, b: u64) -> f64 {
    let x = a ^ b;
    let mut n = 0u64;
    for bit in 0..64 {
        n += (x >> bit) & 1;
    }
    n as f64
}

/// One energy-relevant component of a custom instruction's datapath, with
/// the dataflow node whose value determines its switching.
#[derive(Debug, Clone)]
struct PlanComponent {
    node: usize,
    category: Category,
    complexity: f64,
}

/// Precompiled energy plan for one custom instruction.
#[derive(Debug, Clone)]
struct InstPlan<'e> {
    /// The instruction's datapath, re-evaluated on every idle cycle.
    graph: &'e DfGraph,
    components: Vec<PlanComponent>,
    control: f64,
    gpr_read_ports: u32,
    /// Values fed to the graph when the instruction is *idle*: the
    /// GPR-bound inputs follow the shared operand buses, everything else
    /// holds zero (decoder outputs are quiescent).
    idle_input_template: Vec<IdleInput>,
    has_gpr_input: bool,
}

#[derive(Debug, Clone, Copy)]
enum IdleInput {
    BusA,
    BusB,
    Zero,
}

fn build_plans(ext: &ExtensionSet) -> Vec<InstPlan<'_>> {
    ext.iter()
        .map(|inst| {
            let graph = inst.graph();
            let mut components: Vec<PlanComponent> = graph
                .op_nodes()
                .into_iter()
                .map(|info| PlanComponent {
                    node: info.id.index(),
                    category: info.category,
                    complexity: info.complexity(),
                })
                .collect();
            // Custom-register reads: state-bound inputs.
            for (bind, id) in inst.input_binds().iter().zip(graph.input_ids()) {
                if let InputBind::State(_) = bind {
                    let w = graph.width(*id);
                    components.push(PlanComponent {
                        node: id.index(),
                        category: Category::CustomReg,
                        complexity: Category::CustomReg.complexity(w, 0),
                    });
                }
            }
            // Custom-register writes: state-bound outputs.
            for (bind, id) in inst.output_binds().iter().zip(graph.output_ids()) {
                if let OutputBind::State(_) = bind {
                    let w = graph.width(*id);
                    components.push(PlanComponent {
                        node: id.index(),
                        category: Category::CustomReg,
                        complexity: Category::CustomReg.complexity(w, 0),
                    });
                }
            }
            let sig = inst.signature();
            let idle_input_template: Vec<IdleInput> = inst
                .input_binds()
                .iter()
                .map(|b| match b {
                    InputBind::GprS => IdleInput::BusA,
                    InputBind::GprT => IdleInput::BusB,
                    _ => IdleInput::Zero,
                })
                .collect();
            let has_gpr_input = idle_input_template
                .iter()
                .any(|i| !matches!(i, IdleInput::Zero));
            InstPlan {
                graph,
                components,
                control: inst.control_complexity(),
                gpr_read_ports: u32::from(sig.gpr_reads),
                idle_input_template,
                has_gpr_input,
            }
        })
        .collect()
}

/// The net-level energy integrator (WattWatcher's role). It is the
/// detailed simulation's activity sink: each retired instruction is
/// charged cycle by cycle and net by net as it streams out of the engine,
/// so no trace is ever stored.
struct Integrator<'p> {
    base: &'p BaseEnergyParams,
    hw: &'p HwEnergyParams,
    plans: Vec<InstPlan<'p>>,
    prev_word: u32,
    prev_a: u32,
    prev_b: u32,
    prev_result: u32,
    /// Per-instruction node values at the last *execution*.
    prev_active_nodes: Vec<Vec<u64>>,
    /// Per-instruction node values of the most recent idle-churn
    /// evaluation (the combinational datapath follows the operand buses
    /// even when its instruction is not decoded).
    idle_nodes: Vec<Vec<u64>>,
    idle_scratch: Vec<u64>,
    ex_nets: ExStageNets,
    leak_complexity: f64,
    bd: EnergyBreakdown,
    cycle: u64,
    /// Per-window energies, accumulated when a profile was asked for.
    profile: Option<&'p mut PowerProfile>,
}

impl ActivitySink for Integrator<'_> {
    fn record(&mut self, r: &InstRecord<'_>) {
        let before = self.bd.total();
        self.step(r);
        if let Some(profile) = &mut self.profile {
            let delta = (self.bd.total() - before).as_picojoules();
            let window = (self.cycle / profile.window_cycles) as usize;
            if profile.windows.len() <= window {
                profile.windows.resize(window + 1, 0.0);
            }
            profile.windows[window] += delta;
        }
        self.cycle += u64::from(r.cycles);
    }
}

impl<'p> Integrator<'p> {
    fn new(
        base: &'p BaseEnergyParams,
        hw: &'p HwEnergyParams,
        ext: &'p ExtensionSet,
        profile: Option<&'p mut PowerProfile>,
    ) -> Self {
        let plans = build_plans(ext);
        let prev_active_nodes: Vec<Vec<u64>> = plans
            .iter()
            .map(|p| vec![0u64; p.graph.node_count()])
            .collect();
        let idle_nodes = prev_active_nodes.clone();
        let leak_complexity = ext.instantiated_complexity().iter().sum::<f64>();
        Integrator {
            base,
            hw,
            plans,
            prev_word: 0,
            prev_a: 0,
            prev_b: 0,
            prev_result: 0,
            prev_active_nodes,
            idle_nodes,
            idle_scratch: Vec::new(),
            ex_nets: ExStageNets::new(),
            leak_complexity,
            bd: EnergyBreakdown::default(),
            cycle: 0,
            profile,
        }
    }

    fn pj(slot: &mut Energy, amount: f64) {
        *slot += Energy::from_picojoules(amount);
    }

    fn step(&mut self, r: &InstRecord<'_>) {
        let base = self.base;

        // Clock tree, pipeline registers and custom-hardware leakage are
        // charged cycle by cycle (an RTL flow sees every edge, including
        // stall and miss cycles).
        for _ in 0..r.cycles {
            Self::pj(&mut self.bd.clock, base.clock_per_cycle);
            if self.leak_complexity > 0.0 {
                Self::pj(
                    &mut self.bd.leakage,
                    self.hw.leakage_per_cycle() * self.leak_complexity,
                );
            }
        }

        // Fetch path.
        if r.fetch_uncached {
            Self::pj(&mut self.bd.fetch, base.uncached_access);
        } else {
            let toggles = net_toggles32(self.prev_word, r.word);
            Self::pj(
                &mut self.bd.fetch,
                base.fetch_access + base.fetch_toggle * toggles,
            );
            if !r.fetch_hit {
                Self::pj(&mut self.bd.fetch, base.icache_miss);
            }
        }
        self.prev_word = r.word;

        // Decode.
        Self::pj(&mut self.bd.decode, base.decode);

        // Operand buses and register-file read ports.
        let ham_a = net_toggles32(self.prev_a, r.operand_a);
        let ham_b = net_toggles32(self.prev_b, r.operand_b);
        Self::pj(&mut self.bd.buses, base.bus_toggle * (ham_a + ham_b));
        let read_ports = match r.kind {
            InstKind::Base(..) => 2.0,
            InstKind::Custom(id) => f64::from(self.plans[id.0 as usize].gpr_read_ports),
        };
        Self::pj(&mut self.bd.regfile, base.regfile_read * read_ports);
        self.prev_a = r.operand_a;
        self.prev_b = r.operand_b;

        // EX stage. None of the functional units are operand-isolated:
        // every one of them — including the 32×32 multiplier array — sees
        // the operand buses and switches its internal nets whenever the
        // operands change, whichever result the EX mux selects. The active
        // unit is additionally charged its data-independent energy.
        let ex = self.ex_nets.drive(r.operand_a, r.operand_b);
        Self::pj(
            &mut self.bd.execute,
            base.ex_net_toggle * f64::from(ex.total()),
        );
        if let InstKind::Base(_, unit) = r.kind {
            Self::pj(&mut self.bd.execute, base.alu_energy(unit));
        }

        // Result bus + register write.
        if let Some((_, value)) = r.result {
            Self::pj(
                &mut self.bd.buses,
                base.bus_toggle * net_toggles32(self.prev_result, value),
            );
            Self::pj(&mut self.bd.regfile, base.regfile_write);
            self.prev_result = value;
        }

        // Data memory.
        if let Some(m) = r.mem {
            if m.uncached {
                Self::pj(&mut self.bd.dmem, base.uncached_access);
            } else {
                let access = if m.write {
                    base.dcache_write
                } else {
                    base.dcache_read
                };
                Self::pj(&mut self.bd.dmem, access);
                if !m.hit {
                    Self::pj(&mut self.bd.dmem, base.dcache_miss);
                }
                if m.writeback {
                    Self::pj(&mut self.bd.dmem, base.dcache_writeback);
                }
            }
        }

        // Stall / flush overhead.
        Self::pj(
            &mut self.bd.stall,
            base.stall_per_cycle * f64::from(r.stall_cycles + r.flush_cycles),
        );

        // Custom hardware. The combinational datapath of *every* custom
        // instruction is wired to the shared operand buses, so it churns
        // on every instruction, executing or not — exactly what an RTL
        // simulation of the extended core evaluates. The instruction that
        // actually executes is charged full per-category activation
        // energy; the idle ones are charged the (clock-gated) coupling
        // energy per toggled net.
        let executing = r.custom.map(|c| c.id);
        for idx in 0..self.plans.len() {
            if Some(CustomId(idx as u16)) == executing {
                continue;
            }
            if !self.plans[idx].has_gpr_input {
                continue;
            }
            self.idle_churn(idx, r.operand_a, r.operand_b);
        }
        if let Some(c) = r.custom {
            let node_values = c.node_values;
            let idx = c.id.0 as usize;
            let plan = &self.plans[idx];
            let prev = &mut self.prev_active_nodes[idx];
            let mut datapath = 0.0;
            for comp in &plan.components {
                let toggles = net_toggles64(prev[comp.node], node_values[comp.node]);
                datapath += self.hw.base(comp.category) * comp.complexity
                    + self.hw.toggle_per_bit(comp.category) * toggles;
            }
            prev.copy_from_slice(node_values);
            // The active datapath values also become the idle baseline.
            self.idle_nodes[idx].copy_from_slice(node_values);
            Self::pj(&mut self.bd.custom, datapath);
            Self::pj(&mut self.bd.control, base.tie_control * plan.control);
        }
    }

    /// Re-evaluates an idle custom datapath on the current operand-bus
    /// values and charges coupling energy for every toggled net.
    fn idle_churn(&mut self, idx: usize, bus_a: u32, bus_b: u32) {
        let plan = &self.plans[idx];
        let mut inputs = [0u64; 16];
        for (slot, kind) in inputs.iter_mut().zip(&plan.idle_input_template) {
            *slot = match kind {
                IdleInput::BusA => u64::from(bus_a),
                IdleInput::BusB => u64::from(bus_b),
                IdleInput::Zero => 0,
            };
        }
        let n = plan.idle_input_template.len();
        if plan
            .graph
            .eval_into(&inputs[..n], &mut self.idle_scratch)
            .is_err()
        {
            return; // cannot happen for a compiled instruction
        }
        let prev = &mut self.idle_nodes[idx];
        let mut toggles = 0.0;
        for (p, &v) in prev.iter_mut().zip(self.idle_scratch.iter()) {
            toggles += net_toggles64(*p, v);
            *p = v;
        }
        Self::pj(
            &mut self.bd.custom,
            self.hw.idle_coupling_per_bit() * toggles,
        );
    }
}

/// Energy over time at fixed cycle-window granularity — the
/// power-waveform view an RTL power tool reports alongside totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    window_cycles: u64,
    windows: Vec<f64>,
}

impl PowerProfile {
    /// Window size in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Energy per window, in execution order.
    pub fn windows(&self) -> Vec<Energy> {
        self.windows
            .iter()
            .map(|&pj| Energy::from_picojoules(pj))
            .collect()
    }

    /// Average power of the busiest window, in milliwatts at `clock_mhz`.
    pub fn peak_power_mw(&self, clock_mhz: f64) -> f64 {
        self.windows.iter().fold(0.0f64, |m, &pj| m.max(pj)) * clock_mhz
            / self.window_cycles as f64
            / 1000.0
    }

    /// Mean window power in milliwatts at `clock_mhz`.
    pub fn average_power_mw(&self, clock_mhz: f64) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let total: f64 = self.windows.iter().sum();
        total * clock_mhz / (self.window_cycles as f64 * self.windows.len() as f64) / 1000.0
    }

    /// Exports the profile as a `rtl.window_energy_pj` counter series on
    /// the collector's simulated-time track (one sample per window, at
    /// the window's end cycle) — the Chrome trace then shows the power
    /// waveform against the same cycle axis as the ISS counters.
    pub fn export_to(&self, obs: &mut Collector) {
        for (i, &pj) in self.windows.iter().enumerate() {
            let ts = (i as u64 + 1) * self.window_cycles;
            obs.sample_at("rtl.window_energy_pj", ts, pj);
        }
    }
}

/// Result of one reference energy estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Total energy.
    pub total: Energy,
    /// Per-block decomposition.
    pub breakdown: EnergyBreakdown,
    /// Execution statistics of the underlying detailed simulation.
    pub stats: ExecStats,
}

impl EnergyReport {
    /// Average power at the given clock, in milliwatts.
    pub fn average_power_mw(&self, clock_mhz: f64) -> f64 {
        self.total
            .average_power_mw(self.stats.total_cycles, clock_mhz)
    }
}

/// Cycle budget of the entry points that take none: 2³² cycles.
const BUDGET: u64 = u32::MAX as u64;

/// The RTL-level reference energy estimator (WattWatcher substitute).
///
/// Estimation mirrors the paper's setup in one pass: the detailed
/// pipeline simulation (ModelSim's role) streams every retired
/// instruction's activity straight into a net-level integrator, which
/// charges it **cycle by cycle and net by net** — per-bit bus/fetch
/// toggle counting, per-cycle clock and leakage accounting, full
/// re-evaluation of every custom datapath's combinational logic on each
/// instruction's operand-bus values whether or not its instruction
/// executes (WattWatcher's role). This is intentionally the *slow,
/// accurate* path of the methodology; the macro-model exists so that
/// design-space exploration does not have to run it.
///
/// Construct one (optionally with custom block parameters), then call
/// [`RtlEnergyEstimator::estimate`] for each program × extended-processor
/// configuration. See the crate-level docs for the modeling scope.
#[derive(Debug, Clone, Default)]
pub struct RtlEnergyEstimator {
    base: BaseEnergyParams,
    hw: HwEnergyParams,
}

impl RtlEnergyEstimator {
    /// Creates an estimator with the default 0.25 µm-class parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an estimator with explicit block parameters (for ablation
    /// and sensitivity studies).
    pub fn with_params(base: BaseEnergyParams, hw: HwEnergyParams) -> Self {
        RtlEnergyEstimator { base, hw }
    }

    /// The base-block parameters in use.
    pub fn base_params(&self) -> &BaseEnergyParams {
        &self.base
    }

    /// The custom-hardware parameters in use.
    pub fn hw_params(&self) -> &HwEnergyParams {
        &self.hw
    }

    /// Runs the detailed simulation of `program` on the extended processor
    /// `ext` and integrates per-activity energy.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; uses a generous internal cycle budget
    /// of 2³² cycles (a program that runs longer returns
    /// [`SimError::CycleLimit`]).
    pub fn estimate(
        &self,
        program: &Program,
        ext: &ExtensionSet,
        config: ProcConfig,
    ) -> Result<EnergyReport, SimError> {
        self.integrate(
            program,
            ext,
            config,
            BUDGET,
            None,
            &mut Collector::disabled(),
        )
    }

    /// Like [`RtlEnergyEstimator::estimate`] with an explicit cycle
    /// budget, instrumented on `obs`: an `rtl-energy-integration` span
    /// around the simulation and its integration, and an `rtl.energy_pj`
    /// counter. A disabled collector makes this identical to
    /// [`RtlEnergyEstimator::estimate`] at the same budget.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors, including [`SimError::CycleLimit`].
    pub fn estimate_traced(
        &self,
        program: &Program,
        ext: &ExtensionSet,
        config: ProcConfig,
        max_cycles: u64,
        obs: &mut Collector,
    ) -> Result<EnergyReport, SimError> {
        self.integrate(program, ext, config, max_cycles, None, obs)
    }

    /// Like [`RtlEnergyEstimator::estimate`], additionally returning the
    /// energy-over-time profile at `window_cycles` granularity (peak and
    /// average power, per-window energies).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn estimate_profiled(
        &self,
        program: &Program,
        ext: &ExtensionSet,
        config: ProcConfig,
        window_cycles: u64,
    ) -> Result<(EnergyReport, PowerProfile), SimError> {
        assert!(window_cycles > 0, "window size must be nonzero");
        let mut profile = PowerProfile {
            window_cycles,
            windows: Vec::new(),
        };
        let report = self.integrate(
            program,
            ext,
            config,
            BUDGET,
            Some(&mut profile),
            &mut Collector::disabled(),
        )?;
        Ok((report, profile))
    }

    /// The one run path: simulates `program` with the integrator as its
    /// activity sink, filling `profile` if one is given.
    fn integrate(
        &self,
        program: &Program,
        ext: &ExtensionSet,
        config: ProcConfig,
        max_cycles: u64,
        profile: Option<&mut PowerProfile>,
        obs: &mut Collector,
    ) -> Result<EnergyReport, SimError> {
        let span = obs.begin("rtl-energy-integration");
        let mut integrator = Integrator::new(&self.base, &self.hw, ext, profile);
        let run = Interp::new(program, ext, config).run_with_sink(&mut integrator, max_cycles);
        obs.end(span);
        let run = run?;
        let total = integrator.bd.total();
        obs.add("rtl.energy_pj", total.as_picojoules());
        Ok(EnergyReport {
            total,
            breakdown: integrator.bd,
            stats: run.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_hwlib::PrimOp;
    use emx_isa::asm::Assembler;
    use emx_tie::ExtensionBuilder;

    fn estimate_src(src: &str) -> EnergyReport {
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        RtlEnergyEstimator::new()
            .estimate(&program, &ext, ProcConfig::default())
            .unwrap()
    }

    #[test]
    fn net_toggle_helpers_match_popcount() {
        for (a, b) in [(0u32, 0u32), (0, u32::MAX), (0x1234, 0x4321), (7, 8)] {
            assert_eq!(net_toggles32(a, b), f64::from((a ^ b).count_ones()));
        }
        assert_eq!(net_toggles64(0, u64::MAX), 64.0);
    }

    #[test]
    fn energy_is_positive_and_scales_with_work() {
        let short = estimate_src("movi a2, 1\nhalt");
        let long = estimate_src(
            "movi a2, 200\nmovi a3, 0\nl: add a3, a3, a2\naddi a2, a2, -1\nbnez a2, l\nhalt",
        );
        assert!(short.total.as_picojoules() > 0.0);
        assert!(long.total.as_picojoules() > 10.0 * short.total.as_picojoules());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let rep = estimate_src("movi a2, 5\nmovi a3, 6\nmul a4, a2, a3\nhalt");
        let sum = rep.breakdown.total();
        assert!((sum.as_picojoules() - rep.total.as_picojoules()).abs() < 1e-6);
    }

    #[test]
    fn base_processor_has_no_custom_energy() {
        let rep = estimate_src("movi a2, 1\naddi a2, a2, 2\nhalt");
        assert_eq!(rep.breakdown.custom_total().as_picojoules(), 0.0);
    }

    #[test]
    fn multiplies_cost_more_than_adds() {
        let adds = estimate_src(
            "movi a2, 100\nmovi a3, 3\nmovi a4, 5\nl: add a5, a3, a4\naddi a2, a2, -1\nbnez a2, l\nhalt",
        );
        let muls = estimate_src(
            "movi a2, 100\nmovi a3, 3\nmovi a4, 5\nl: mul a5, a3, a4\naddi a2, a2, -1\nbnez a2, l\nhalt",
        );
        assert!(
            muls.breakdown.execute.as_picojoules() > adds.breakdown.execute.as_picojoules() * 1.5
        );
    }

    #[test]
    fn custom_instruction_charges_custom_blocks() {
        let mut ext = ExtensionBuilder::new("demo");
        let mut g = DfGraph::new();
        let a = g.input("a", 32);
        let b = g.input("b", 32);
        let m = g.node(PrimOp::Mul, 32, &[a, b]).unwrap();
        g.output(m);
        ext.instruction("cmul", g)
            .unwrap()
            .bind_input(emx_tie::InputBind::GprS)
            .unwrap()
            .bind_input(emx_tie::InputBind::GprT)
            .unwrap()
            .bind_output(emx_tie::OutputBind::Gpr)
            .unwrap();
        let set = ext.build().unwrap();

        let mut asm = Assembler::new();
        set.register_mnemonics(&mut asm);
        let program = asm
            .assemble("movi a2, 123\nmovi a3, 77\ncmul a4, a2, a3\ncmul a5, a4, a3\nhalt")
            .unwrap();
        let rep = RtlEnergyEstimator::new()
            .estimate(&program, &set, ProcConfig::default())
            .unwrap();
        assert!(rep.breakdown.custom.as_picojoules() > 0.0);
        assert!(rep.breakdown.control.as_picojoules() > 0.0);
        assert!(rep.breakdown.leakage.as_picojoules() > 0.0);
    }

    #[test]
    fn instantiated_but_unused_extension_leaks_and_churns() {
        let mut ext = ExtensionBuilder::new("demo");
        let mut g = DfGraph::new();
        let a = g.input("a", 32);
        let n = g.node(PrimOp::Not, 32, &[a]).unwrap();
        g.output(n);
        ext.instruction("cnot", g)
            .unwrap()
            .bind_input(emx_tie::InputBind::GprS)
            .unwrap()
            .bind_output(emx_tie::OutputBind::Gpr)
            .unwrap();
        let set = ext.build().unwrap();

        // The program never uses `cnot`, but the hardware is instantiated:
        // leakage + idle datapath churn still show up.
        let mut asm = Assembler::new();
        set.register_mnemonics(&mut asm);
        let program = asm
            .assemble("movi a2, 5\nmovi a3, 9\nadd a4, a2, a3\nhalt")
            .unwrap();
        let rep = RtlEnergyEstimator::new()
            .estimate(&program, &set, ProcConfig::default())
            .unwrap();
        assert!(rep.breakdown.leakage.as_picojoules() > 0.0);
        assert!(rep.breakdown.custom.as_picojoules() > 0.0); // idle churn
        assert_eq!(rep.breakdown.control.as_picojoules(), 0.0); // never decoded
    }

    #[test]
    fn data_dependent_energy() {
        // Same instruction counts, different data activity.
        let quiet = estimate_src(
            "movi a2, 0\nmovi a3, 0\nmovi a4, 100\nl: xor a5, a2, a3\naddi a4, a4, -1\nbnez a4, l\nhalt",
        );
        let noisy = estimate_src(
            "movi a2, 0xffffffff\nmovi a3, 0x55555555\nmovi a4, 100\nl: xor a5, a2, a3\nxor a5, a5, a2\naddi a4, a4, -1\nbnez a4, l\nhalt",
        );
        let q = quiet.total.as_picojoules() / quiet.stats.total_cycles as f64;
        let n = noisy.total.as_picojoules() / noisy.stats.total_cycles as f64;
        assert!(n > q, "noisy {n} vs quiet {q}");
    }

    #[test]
    fn power_profile_accounts_for_all_energy() {
        let program = Assembler::new()
            .assemble(
                "movi a2, 300\nmovi a3, 7\nl:\nmul a4, a3, a3\nadd a5, a4, a3\n\
                 addi a2, a2, -1\nbnez a2, l\nhalt",
            )
            .unwrap();
        let ext = ExtensionSet::empty();
        let (report, profile) = RtlEnergyEstimator::new()
            .estimate_profiled(&program, &ext, ProcConfig::default(), 100)
            .unwrap();
        let window_sum: f64 = profile.windows().iter().map(|e| e.as_picojoules()).sum();
        assert!(
            (window_sum - report.total.as_picojoules()).abs() < 1e-6,
            "profile must conserve energy"
        );
        assert_eq!(profile.window_cycles(), 100);
        // Profiling must not change the estimate, to the bit: `Debug`
        // prints every f64 in its shortest round-trip form.
        let plain = RtlEnergyEstimator::new()
            .estimate(&program, &ext, ProcConfig::default())
            .unwrap();
        assert_eq!(format!("{report:?}"), format!("{plain:?}"));
        assert!(profile.peak_power_mw(187.0) >= profile.average_power_mw(187.0));
        assert!(profile.average_power_mw(187.0) > 10.0);
    }

    #[test]
    fn power_profile_shows_phases() {
        // A multiplier-heavy phase followed by a nop-ish phase: the first
        // windows must be hotter than the last.
        let program = Assembler::new()
            .assemble(
                "movi a2, 200\nhot:\nmul a4, a2, a2\nmul a5, a4, a2\naddi a2, a2, -1\nbnez a2, hot\n\
                 movi a2, 200\ncool:\nnop\nnop\naddi a2, a2, -1\nbnez a2, cool\nhalt",
            )
            .unwrap();
        let ext = ExtensionSet::empty();
        let (_, profile) = RtlEnergyEstimator::new()
            .estimate_profiled(&program, &ext, ProcConfig::default(), 128)
            .unwrap();
        let w = profile.windows();
        assert!(w.len() > 4);
        let first = w[1].as_picojoules();
        let last = w[w.len() - 2].as_picojoules();
        assert!(first > 1.15 * last, "hot {first} vs cool {last}");
    }

    #[test]
    fn traced_estimation_matches_untraced_and_records_phases() {
        let program = Assembler::new()
            .assemble("movi a2, 50\nl: addi a2, a2, -1\nbnez a2, l\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let est = RtlEnergyEstimator::new();

        let plain = est.estimate(&program, &ext, ProcConfig::default()).unwrap();
        let mut obs = Collector::new();
        let traced = est
            .estimate_traced(
                &program,
                &ext,
                ProcConfig::default(),
                u64::from(u32::MAX),
                &mut obs,
            )
            .unwrap();

        // Instrumentation must not change the estimate.
        assert_eq!(plain.total, traced.total);
        assert_eq!(plain.stats, traced.stats);

        let spans = obs.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rtl-energy-integration"]);
        assert_eq!(obs.counter("rtl.energy_pj"), plain.total.as_picojoules());
    }

    #[test]
    fn profile_exports_counter_series() {
        let program = Assembler::new()
            .assemble("movi a2, 100\nl: mul a3, a2, a2\naddi a2, a2, -1\nbnez a2, l\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let (_, profile) = RtlEnergyEstimator::new()
            .estimate_profiled(&program, &ext, ProcConfig::default(), 64)
            .unwrap();
        let mut obs = Collector::new();
        profile.export_to(&mut obs);
        let samples: Vec<u64> = obs
            .events()
            .iter()
            .filter(|e| e.name == "rtl.window_energy_pj")
            .map(|e| e.ts)
            .collect();
        assert_eq!(samples.len(), profile.windows().len());
        assert!(samples.windows(2).all(|w| w[1] == w[0] + 64));
    }

    #[test]
    fn cache_misses_add_energy() {
        let misses = estimate_src(
            "movi a2, 0x40000\nmovi a3, 512\nl: l32i a4, 0(a2)\naddi a2, a2, 128\naddi a3, a3, -1\nbnez a3, l\nhalt",
        );
        let hits = estimate_src(
            "movi a2, 0x40000\nmovi a3, 512\nl: l32i a4, 0(a2)\naddi a3, a3, -1\nbnez a3, l\nhalt",
        );
        assert!(misses.stats.dcache_misses > 400);
        assert!(hits.stats.dcache_misses < 4);
        assert!(misses.breakdown.dmem.as_picojoules() > 2.0 * hits.breakdown.dmem.as_picojoules());
    }
}
