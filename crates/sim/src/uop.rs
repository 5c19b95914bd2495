//! Pre-decoded micro-op execution engine — the one ISS.
//!
//! [`crate::Interp::run`] decodes each static instruction **once** into a
//! dense micro-op table (dynamic class, cycle cost, register read mask and
//! icache line resolved up front) and then drives execution by dispatching
//! over that table, keeping every counter in a register-resident local
//! that is flushed into [`crate::ExecStats`] only when the run exits.
//! Consecutive fetches from the same icache line are batched into a
//! single cache access (see the proof at [`run`]), which amortizes the
//! fetch bookkeeping over straight-line blocks.
//!
//! The loop is generic over an [`ActivitySink`]: it builds an
//! [`InstRecord`] per retired instruction only when `S::ACTIVE`, so the
//! [`NullSink`] instantiation behind `Interp::run` carries no record
//! bookkeeping, while `Interp::run_with_sink` streams the full
//! stage-level activity the RTL-level reference estimator integrates.
//! `tests/golden/iss-golden.txt` pins both against the outputs of the
//! single-step interpreter this engine replaced.

use emx_isa::program::layout;
use emx_isa::{encode, BaseClass, DynClass, Inst, Opcode, Program, Reg};
use emx_tie::{CompiledInst, ExtensionSet};

use crate::iss::{HazKind, Interp, RunResult};
use crate::record::{ActivitySink, CustomActivity, InstKind, InstRecord, MemAccess, NullSink};
use crate::SimError;

/// Sentinel icache line id for instructions in the uncached region.
/// Cached text addresses are below `layout::UNCACHED_BASE`, so their line
/// ids can never reach this value.
const UNCACHED_LINE: u32 = u32::MAX;

/// One pre-decoded instruction: the decoded form plus every per-step
/// quantity that is a pure function of the static instruction and the
/// processor configuration.
struct Uop {
    /// The decoded instruction (copied out of the program once).
    inst: Inst,
    /// icache line id of this instruction's fetch, or [`UNCACHED_LINE`].
    line: u32,
    /// [`DynClass::index`] the instruction retires as — for branches, the
    /// taken variant (base instructions only).
    class_taken: u8,
    /// Untaken-branch class; equals `class_taken` for everything else.
    class_untaken: u8,
    /// Base cycle cost when retiring as `class_taken`.
    cost_taken: u32,
    /// Base cycle cost when retiring as `class_untaken`.
    cost_untaken: u32,
    /// [`Opcode::index`] for per-opcode cycle attribution (base only).
    op_idx: u8,
    /// Bitmask of GPRs this instruction reads (hazard detection).
    read_mask: u32,
}

/// Per-custom-instruction constants, resolved once per run.
struct CustomMeta<'e> {
    spec: &'e CompiledInst,
    cost: u32,
    uses_gpr: bool,
    resource_vector: [f64; 10],
    resource_counts: [f64; 10],
}

fn reg_bit(r: Option<Reg>) -> u32 {
    r.map_or(0, |r| 1u32 << r.index())
}

fn build<'e>(
    program: &Program,
    ext: &'e ExtensionSet,
    config: &crate::ProcConfig,
) -> (Vec<Uop>, Vec<CustomMeta<'e>>) {
    let line_bytes = config.icache.line_bytes;
    let metas: Vec<CustomMeta<'e>> = ext
        .iter()
        .map(|spec| CustomMeta {
            spec,
            cost: u32::from(spec.latency()),
            uses_gpr: spec.uses_gpr(),
            resource_vector: *spec.resource_vector(),
            resource_counts: *spec.resource_counts(),
        })
        .collect();

    let uops = (0..program.len())
        .map(|i| {
            let pc = program.address_of(i);
            let line = if layout::is_uncached(pc) {
                UNCACHED_LINE
            } else {
                pc / line_bytes
            };
            let inst = *program.fetch(pc).expect("index within text segment");
            match inst {
                Inst::Base(b) => {
                    let (ra, rb) = b.read_regs();
                    let class = b.op.base_class();
                    let (cost_taken, cost_untaken, taken, untaken) = match class {
                        BaseClass::Branch => (
                            config.branch_taken_cycles,
                            1,
                            DynClass::BranchTaken,
                            DynClass::BranchUntaken,
                        ),
                        BaseClass::Jump if b.op != Opcode::Halt => (
                            config.jump_cycles,
                            config.jump_cycles,
                            DynClass::Jump,
                            DynClass::Jump,
                        ),
                        _ => {
                            let c = DynClass::from_base(class, false);
                            (1, 1, c, c)
                        }
                    };
                    Uop {
                        inst,
                        line,
                        class_taken: taken.index() as u8,
                        class_untaken: untaken.index() as u8,
                        cost_taken,
                        cost_untaken,
                        op_idx: b.op.index() as u8,
                        read_mask: reg_bit(ra) | reg_bit(rb),
                    }
                }
                Inst::Custom(c) => {
                    // An id outside the extension set builds a zero mask;
                    // execution errors with `UnknownCustom` before the mask
                    // is ever consulted.
                    let read_mask = ext.get(c.id).map_or(0, |spec| {
                        let sig = spec.signature();
                        reg_bit((sig.gpr_reads >= 1).then_some(c.rs))
                            | reg_bit((sig.gpr_reads >= 2).then_some(c.rt))
                    });
                    Uop {
                        inst,
                        line,
                        class_taken: 0,
                        class_untaken: 0,
                        cost_taken: 0,
                        cost_untaken: 0,
                        op_idx: 0,
                        read_mask,
                    }
                }
            }
        })
        .collect();
    (uops, metas)
}

/// Runs the micro-op engine until `halt` or `max_cycles`, streaming one
/// activity record per retired instruction into `sink`.
///
/// Fetch batching: consecutive fetches from the same icache line (with
/// no other icache access in between) collapse into one cache access.
/// This is stats-identical to probing on every fetch: the skipped
/// accesses are guaranteed hits (the line was just filled or touched,
/// and nothing else entered its set since), so no miss counter fires and
/// the record's `fetch_hit` is `true`, and the skipped LRU refresh cannot
/// change any later victim choice because the line is already the most
/// recently used way of its set. Uncached fetches never touch the icache,
/// so they do not interrupt a same-line span.
///
/// # Errors
///
/// [`SimError::CycleLimit`], [`SimError::InvalidPc`],
/// [`SimError::Unaligned`], [`SimError::UnknownCustom`] or a custom
/// datapath error. The counters bumped before the error fired stay in
/// the interpreter's statistics; the failing instruction emits no record.
pub(crate) fn run<'a, S: ActivitySink>(
    it: &mut Interp<'a>,
    max_cycles: u64,
    sink: &mut S,
) -> Result<RunResult, SimError> {
    run_impl::<S, false>(it, max_cycles, &mut [], sink)
}

/// Runs like [`run`] while counting retired executions of each static
/// instruction into `counts` (indexed like `Program::text`). The counting
/// arm is monomorphized separately, so the plain [`run`] hot path is
/// unchanged.
///
/// # Errors
///
/// Same conditions as [`run`]; counts cover the instructions retired
/// before the error fired.
pub(crate) fn run_counting<'a>(
    it: &mut Interp<'a>,
    max_cycles: u64,
    counts: &mut [u64],
) -> Result<RunResult, SimError> {
    run_impl::<NullSink, true>(it, max_cycles, counts, &mut NullSink)
}

#[allow(clippy::too_many_lines)] // one arm per opcode: flat is clearest
fn run_impl<'a, S: ActivitySink, const COUNT: bool>(
    it: &mut Interp<'a>,
    max_cycles: u64,
    counts: &mut [u64],
    sink: &mut S,
) -> Result<RunResult, SimError> {
    let program: &'a Program = it.program;
    let ext: &'a ExtensionSet = it.ext;
    let (uops, metas) = build(program, ext, &it.config);
    let text_base = program.address_of(0);
    // Fetched encodings, for the records' fetch-switching energy.
    let words: Vec<u32> = if S::ACTIVE {
        program.text().iter().map(encode).collect()
    } else {
        Vec::new()
    };

    let Interp {
        config,
        state,
        icache,
        dcache,
        stats,
        hazard,
        ..
    } = it;

    let icm_pen = config.icache_miss_penalty;
    let dcm_pen = config.dcache_miss_penalty;
    let ucf_pen = config.uncached_fetch_penalty;

    // Register-resident counters, flushed into `stats` on every exit.
    let mut total = stats.total_cycles;
    let mut insts = stats.inst_count;
    let mut icm = stats.icache_misses;
    let mut dcm = stats.dcache_misses;
    let mut ucf = stats.uncached_fetches;
    let mut ilk = stats.interlocks;
    let mut ci = stats.ci_gpr_cycles;
    let mut custom_cy = stats.custom_cycles;
    let mut class_cycles = stats.class_cycles;
    let mut class_counts = stats.class_counts;
    let mut struct_activity = stats.struct_activity;
    let mut struct_activations = stats.struct_activations;
    let mut opcode_cycles = std::mem::take(&mut stats.opcode_cycles);
    let mut custom_counts = std::mem::take(&mut stats.custom_counts);

    let mut haz: Option<(Reg, HazKind)> = *hazard;
    let mut haz_mask: u32 = haz.map_or(0, |(r, _)| 1u32 << r.index());
    let mut pc = state.pc();
    let mut last_line: u64 = u64::MAX;

    macro_rules! flush {
        () => {{
            stats.total_cycles = total;
            stats.inst_count = insts;
            stats.icache_misses = icm;
            stats.dcache_misses = dcm;
            stats.uncached_fetches = ucf;
            stats.interlocks = ilk;
            stats.ci_gpr_cycles = ci;
            stats.custom_cycles = custom_cy;
            stats.class_cycles = class_cycles;
            stats.class_counts = class_counts;
            stats.struct_activity = struct_activity;
            stats.struct_activations = struct_activations;
            stats.opcode_cycles = opcode_cycles;
            stats.custom_counts = custom_counts;
            *hazard = haz;
            state.set_pc(pc);
        }};
    }

    loop {
        if total >= max_cycles {
            flush!();
            return Err(SimError::CycleLimit(max_cycles));
        }

        // ---- fetch + decode over the pre-decoded table ---------------------
        let idx = if pc >= text_base && pc.is_multiple_of(layout::INST_BYTES) {
            let i = ((pc - text_base) / layout::INST_BYTES) as usize;
            (i < uops.len()).then_some(i)
        } else {
            None
        };
        let Some(idx) = idx else {
            // The fetch is charged before the bad pc is discovered; keep
            // those counter bumps on the error path.
            if layout::is_uncached(pc) {
                ucf += 1;
            } else if !icache.access(pc, false).hit {
                icm += 1;
            }
            flush!();
            return Err(SimError::InvalidPc(pc));
        };
        let uop = &uops[idx];

        let mut penalty: u32 = 0;
        let fetch_uncached = uop.line == UNCACHED_LINE;
        let mut fetch_hit = !fetch_uncached;
        if fetch_uncached {
            ucf += 1;
            penalty += ucf_pen;
        } else if u64::from(uop.line) != last_line {
            last_line = u64::from(uop.line);
            if !icache.access(pc, false).hit {
                icm += 1;
                penalty += icm_pen;
                fetch_hit = false;
            }
        }

        // ---- execute + per-kind accounting ---------------------------------
        let mut next_pc = pc.wrapping_add(layout::INST_BYTES);
        let mut halted = false;

        match uop.inst {
            Inst::Base(b) => {
                use Opcode::*;
                let rs = state.reg(b.rs);
                let rt = state.reg(b.rt);
                let imm = b.imm;
                let mut class_idx = uop.class_taken as usize;
                let mut cost = uop.cost_taken;
                let mut haz_new: Option<(Reg, HazKind)> = None;
                // (address, write, size, value loaded or stored)
                let mut mem_access: Option<(u32, bool, u32, u32)> = None;
                let mut result: Option<(Reg, u32)> = None;

                macro_rules! wr {
                    ($v:expr) => {{
                        let v: u32 = $v;
                        state.set_reg(b.rd, v);
                        if S::ACTIVE {
                            result = Some((b.rd, v));
                        }
                    }};
                }
                macro_rules! aligned {
                    ($addr:expr, $size:expr) => {
                        if !$addr.is_multiple_of($size) {
                            flush!();
                            return Err(SimError::Unaligned {
                                addr: $addr,
                                size: $size,
                            });
                        }
                    };
                }

                match b.op {
                    // --- arithmetic --------------------------------------
                    Add => wr!(rs.wrapping_add(rt)),
                    Sub => wr!(rs.wrapping_sub(rt)),
                    And => wr!(rs & rt),
                    Or => wr!(rs | rt),
                    Xor => wr!(rs ^ rt),
                    Sll => wr!(rs.wrapping_shl(rt & 31)),
                    Srl => wr!(rs.wrapping_shr(rt & 31)),
                    Sra => wr!(((rs as i32).wrapping_shr(rt & 31)) as u32),
                    Ror => wr!(rs.rotate_right(rt & 31)),
                    Slt => wr!(u32::from((rs as i32) < (rt as i32))),
                    Sltu => wr!(u32::from(rs < rt)),
                    Min => wr!((rs as i32).min(rt as i32) as u32),
                    Max => wr!((rs as i32).max(rt as i32) as u32),
                    Minu => wr!(rs.min(rt)),
                    Maxu => wr!(rs.max(rt)),
                    Moveqz => {
                        if rt == 0 {
                            wr!(rs);
                        }
                    }
                    Movnez => {
                        if rt != 0 {
                            wr!(rs);
                        }
                    }
                    Movltz => {
                        if (rt as i32) < 0 {
                            wr!(rs);
                        }
                    }
                    Movgez => {
                        if (rt as i32) >= 0 {
                            wr!(rs);
                        }
                    }
                    Mul => {
                        wr!(rs.wrapping_mul(rt));
                        haz_new = Some((b.rd, HazKind::Mul));
                    }
                    Mulh => {
                        wr!(((i64::from(rs as i32) * i64::from(rt as i32)) >> 32) as u32);
                        haz_new = Some((b.rd, HazKind::Mul));
                    }
                    Muluh => {
                        wr!(((u64::from(rs) * u64::from(rt)) >> 32) as u32);
                        haz_new = Some((b.rd, HazKind::Mul));
                    }
                    Mul16s => {
                        wr!((i32::from(rs as i16).wrapping_mul(i32::from(rt as i16))) as u32);
                        haz_new = Some((b.rd, HazKind::Mul));
                    }
                    Mul16u => {
                        wr!((rs & 0xffff).wrapping_mul(rt & 0xffff));
                        haz_new = Some((b.rd, HazKind::Mul));
                    }
                    Addi => wr!(rs.wrapping_add(imm as u32)),
                    Addmi => wr!(rs.wrapping_add((imm as u32) << 8)),
                    Andi => wr!(rs & imm as u32),
                    Ori => wr!(rs | imm as u32),
                    Xori => wr!(rs ^ imm as u32),
                    Slti => wr!(u32::from((rs as i32) < imm)),
                    Sltiu => wr!(u32::from(rs < imm as u32)),
                    Slli => wr!(rs.wrapping_shl(imm as u32 & 31)),
                    Srli => wr!(rs.wrapping_shr(imm as u32 & 31)),
                    Srai => wr!(((rs as i32).wrapping_shr(imm as u32 & 31)) as u32),
                    Rori => wr!(rs.rotate_right(imm as u32 & 31)),
                    Extui => {
                        let sa = imm as u32 & 31;
                        let len = u32::from(b.len).clamp(1, 32);
                        let mask = if len == 32 {
                            u32::MAX
                        } else {
                            (1u32 << len) - 1
                        };
                        wr!((rs >> sa) & mask);
                    }
                    Neg => wr!((rs as i32).wrapping_neg() as u32),
                    Abs => wr!((rs as i32).wrapping_abs() as u32),
                    Not => wr!(!rs),
                    Mov => wr!(rs),
                    Sext8 => wr!(i32::from(rs as i8) as u32),
                    Sext16 => wr!(i32::from(rs as i16) as u32),
                    Clz => wr!(rs.leading_zeros()),
                    Movi => wr!(imm as u32),
                    Nop => {}
                    // --- loads -------------------------------------------
                    L8ui | L8si | L16ui | L16si | L32i => {
                        let addr = rs.wrapping_add(imm as u32);
                        let (size, raw) = match b.op {
                            L8ui | L8si => (1, u32::from(state.mem.read_u8(addr))),
                            L16ui | L16si => {
                                aligned!(addr, 2);
                                (2, u32::from(state.mem.read_u16(addr)))
                            }
                            _ => {
                                aligned!(addr, 4);
                                (4, state.mem.read_u32(addr))
                            }
                        };
                        let value = match b.op {
                            L8si => i32::from(raw as u8 as i8) as u32,
                            L16si => i32::from(raw as u16 as i16) as u32,
                            _ => raw,
                        };
                        wr!(value);
                        mem_access = Some((addr, false, size, raw));
                        haz_new = Some((b.rd, HazKind::Load));
                    }
                    L32r => {
                        let addr = b.target;
                        aligned!(addr, 4);
                        let value = state.mem.read_u32(addr);
                        wr!(value);
                        mem_access = Some((addr, false, 4, value));
                        haz_new = Some((b.rd, HazKind::Load));
                    }
                    // --- stores ------------------------------------------
                    S8i | S16i | S32i => {
                        let addr = rs.wrapping_add(imm as u32);
                        let size = match b.op {
                            S8i => {
                                state.mem.write_u8(addr, rt as u8);
                                1
                            }
                            S16i => {
                                aligned!(addr, 2);
                                state.mem.write_u16(addr, rt as u16);
                                2
                            }
                            _ => {
                                aligned!(addr, 4);
                                state.mem.write_u32(addr, rt);
                                4
                            }
                        };
                        mem_access = Some((addr, true, size, rt));
                    }
                    // --- jumps -------------------------------------------
                    J => next_pc = b.target,
                    Jx => next_pc = rs,
                    Call => {
                        state.set_reg(Reg::LINK, next_pc);
                        if S::ACTIVE {
                            result = Some((Reg::LINK, next_pc));
                        }
                        next_pc = b.target;
                    }
                    Callx => {
                        state.set_reg(Reg::LINK, next_pc);
                        if S::ACTIVE {
                            result = Some((Reg::LINK, next_pc));
                        }
                        next_pc = rs;
                    }
                    Ret => next_pc = state.reg(Reg::LINK),
                    // --- branches ----------------------------------------
                    Beq | Bne | Blt | Bge | Bltu | Bgeu | Ball | Bnall | Bany | Bnone | Beqz
                    | Bnez | Bltz | Bgez | Beqi | Bnei | Blti | Bgei | Bltui | Bgeui => {
                        let taken = match b.op {
                            Beq => rs == rt,
                            Bne => rs != rt,
                            Blt => (rs as i32) < (rt as i32),
                            Bge => (rs as i32) >= (rt as i32),
                            Bltu => rs < rt,
                            Bgeu => rs >= rt,
                            Ball => (!rs & rt) == 0,
                            Bnall => (!rs & rt) != 0,
                            Bany => (rs & rt) != 0,
                            Bnone => (rs & rt) == 0,
                            Beqz => rs == 0,
                            Bnez => rs != 0,
                            Bltz => (rs as i32) < 0,
                            Bgez => (rs as i32) >= 0,
                            Beqi => rs == imm as u32,
                            Bnei => rs != imm as u32,
                            Blti => (rs as i32) < imm,
                            Bgei => (rs as i32) >= imm,
                            Bltui => rs < imm as u32,
                            Bgeui => rs >= imm as u32,
                            _ => unreachable!(),
                        };
                        if taken {
                            next_pc = b.target;
                        } else {
                            class_idx = uop.class_untaken as usize;
                            cost = uop.cost_untaken;
                        }
                    }
                    // --- system ------------------------------------------
                    Halt => {
                        halted = true;
                        next_pc = pc;
                    }
                }

                let stall = u32::from(uop.read_mask & haz_mask != 0);
                ilk += u64::from(stall);

                class_cycles[class_idx] += u64::from(cost);
                class_counts[class_idx] += 1;
                opcode_cycles[uop.op_idx as usize] += u64::from(cost);

                let mut mem = None;
                if let Some((addr, write, size, value)) = mem_access {
                    let uncached = layout::is_uncached(addr);
                    let (hit, writeback) = if uncached {
                        dcm += 1;
                        penalty += ucf_pen;
                        (false, false)
                    } else {
                        let acc = dcache.access(addr, write);
                        if !acc.hit {
                            dcm += 1;
                            penalty += dcm_pen;
                        }
                        (acc.hit, acc.writeback)
                    };
                    if S::ACTIVE {
                        mem = Some(MemAccess {
                            addr,
                            size,
                            write,
                            value,
                            hit,
                            writeback,
                            uncached,
                        });
                    }
                }

                haz = haz_new;
                haz_mask = haz_new.map_or(0, |(r, _)| 1u32 << r.index());
                let cycles = cost + stall + penalty;
                total += u64::from(cycles);

                if S::ACTIVE {
                    sink.record(&InstRecord {
                        pc,
                        word: words[idx],
                        inst: uop.inst,
                        kind: InstKind::Base(DynClass::ALL[class_idx], b.op.exec_unit()),
                        operand_a: rs,
                        operand_b: rt,
                        result,
                        cycles,
                        stall_cycles: stall,
                        // `saturating_sub`: a zero-cost branch/jump config
                        // (legal, if unusual) has no flush cycles.
                        flush_cycles: cost.saturating_sub(1),
                        fetch_hit,
                        fetch_uncached,
                        mem,
                        custom: None,
                    });
                }
            }
            Inst::Custom(c) => {
                let Some(meta) = metas.get(c.id.0 as usize) else {
                    flush!();
                    return Err(SimError::UnknownCustom(c.id));
                };
                let (rs, rt, result) = match crate::exec::execute_custom(state, meta.spec, &c) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        flush!();
                        return Err(e);
                    }
                };

                let stall = u32::from(uop.read_mask & haz_mask != 0);
                ilk += u64::from(stall);

                custom_cy += u64::from(meta.cost);
                if meta.uses_gpr {
                    ci += u64::from(meta.cost);
                }
                custom_counts[c.id.0 as usize] += 1;
                for (acc, add) in struct_activity.iter_mut().zip(&meta.resource_vector) {
                    *acc += add;
                }
                for (acc, add) in struct_activations.iter_mut().zip(&meta.resource_counts) {
                    *acc += add;
                }

                haz = result.map(|(r, _)| (r, HazKind::Custom));
                haz_mask = haz.map_or(0, |(r, _)| 1u32 << r.index());
                let cycles = meta.cost + stall + penalty;
                total += u64::from(cycles);

                if S::ACTIVE {
                    sink.record(&InstRecord {
                        pc,
                        word: words[idx],
                        inst: uop.inst,
                        kind: InstKind::Custom(c.id),
                        operand_a: rs,
                        operand_b: rt,
                        result,
                        cycles,
                        stall_cycles: stall,
                        flush_cycles: 0,
                        fetch_hit,
                        fetch_uncached,
                        mem: None,
                        custom: Some(CustomActivity {
                            id: c.id,
                            latency: meta.spec.latency(),
                            uses_gpr: meta.uses_gpr,
                            node_values: state.last_custom_nodes(),
                        }),
                    });
                }
            }
        }

        if COUNT {
            counts[idx] += 1;
        }
        insts += 1;
        pc = next_pc;

        if halted {
            flush!();
            return Ok(RunResult {
                stats: stats.clone(),
                halted: true,
            });
        }
    }
}
