//! Architectural state and custom-instruction execution.
//!
//! Base-instruction semantics live in the micro-op engine (`uop`); this
//! module holds the core state it mutates and the one entry point into a
//! compiled TIE datapath.

use emx_isa::program::layout;
use emx_isa::{Program, Reg};
use emx_tie::ExtensionSet;

use crate::{Memory, SimError};

/// Architectural state of the core: GPRs, PC, memory and custom
/// (extension) state.
#[derive(Debug, Clone)]
pub struct CoreState {
    regs: [u32; 16],
    pc: u32,
    /// Data memory (public so tests and workloads can inspect results).
    pub mem: Memory,
    ext_state: Vec<u64>,
    /// Scratch buffer holding the dataflow node values of the most recent
    /// custom-instruction execution (reused to avoid allocation).
    pub(crate) scratch: Vec<u64>,
}

impl CoreState {
    /// Creates the reset state for a program + extension set: PC at the
    /// entry point, stack pointer at the top of the stack region, data
    /// segment loaded, custom state zeroed.
    pub fn new(program: &Program, ext: &ExtensionSet) -> Self {
        let mut regs = [0u32; 16];
        regs[Reg::SP.index()] = layout::STACK_TOP;
        CoreState {
            regs,
            pc: program.entry(),
            mem: Memory::with_program(program),
            ext_state: ext.initial_state(),
            scratch: Vec::new(),
        }
    }

    /// Reads a GPR.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a GPR.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Overrides the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The extension state vector (custom registers), indexable by
    /// [`emx_tie::StateId::index`].
    pub fn ext_state(&self) -> &[u64] {
        &self.ext_state
    }

    /// Node values of the most recent custom-instruction execution.
    pub fn last_custom_nodes(&self) -> &[u64] {
        &self.scratch
    }
}

/// What one custom execution exposes to the engine: the two
/// operand values and the GPR writeback (register, value), if any.
pub(crate) type CustomOutcome = (u32, u32, Option<(Reg, u32)>);

/// Executes one custom instruction against an already-resolved spec,
/// returning the operand values and the GPR writeback (if any). The
/// node values stay in [`CoreState::last_custom_nodes`] for the activity
/// record; on a datapath error the scratch buffer is dropped.
#[inline]
pub(crate) fn execute_custom(
    state: &mut CoreState,
    spec: &emx_tie::CompiledInst,
    c: &emx_isa::CustomSlot,
) -> Result<CustomOutcome, SimError> {
    let rs = state.reg(c.rs);
    let rt = state.reg(c.rt);
    let mut scratch = std::mem::take(&mut state.scratch);
    let gpr = spec.execute_into(rs, rt, c.imm, &mut state.ext_state, &mut scratch)?;
    state.scratch = scratch;
    let result = gpr.map(|v| {
        let v = v as u32;
        state.set_reg(c.rd, v);
        (c.rd, v)
    });
    Ok((rs, rt, result))
}
