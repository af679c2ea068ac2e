//! The five-stage pipeline and the [`Cpu`] façade.

use crate::activity::{read_ports, Bus, BusSample, CycleActivity, ExActivity, MemActivity};
use crate::backend::{ArchState, CpuBackend};
use crate::hook::{NullHook, RailSkew};
use crate::live::LiveSet;
use crate::memory::{AccessError, DataMemory};
use emask_isa::{encode, Instruction, Op, OpClass, Program, Reg};
use std::fmt;
use std::ops::ControlFlow;

/// Why a simulation stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuErrorKind {
    /// A data-memory access fault.
    Memory(AccessError),
    /// Integer division by zero in EX.
    DivideByZero,
    /// The PC ran past the end of the text segment without a `halt`.
    PcOutOfRange {
        /// The out-of-range PC.
        pc: u32,
    },
    /// The cycle budget was exhausted before `halt` retired.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// A secure-tagged dual-rail sample carried an ill-formed complement:
    /// the two rails agreed on at least one bit. Raised by the dual-rail
    /// integrity checker (a [`PipelineHook`](crate::PipelineHook)) — the
    /// architectural signature of a single-rail fault on a protected path.
    DualRailViolation {
        /// The bus/latch whose sample violated the invariant.
        bus: Bus,
        /// The bits on which the rails agreed (nonzero).
        agreeing: u32,
    },
}

/// A simulation fault, with the cycle at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuError {
    /// The cycle at which the fault was detected.
    pub cycle: u64,
    /// What went wrong.
    pub kind: CpuErrorKind,
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CpuErrorKind::Memory(e) => write!(f, "cycle {}: {e}", self.cycle),
            CpuErrorKind::DivideByZero => write!(f, "cycle {}: division by zero", self.cycle),
            CpuErrorKind::PcOutOfRange { pc } => {
                write!(f, "cycle {}: pc {pc} past end of text without halt", self.cycle)
            }
            CpuErrorKind::CycleLimit { limit } => {
                write!(f, "cycle limit {limit} exhausted before halt")
            }
            CpuErrorKind::DualRailViolation { bus, agreeing } => {
                write!(
                    f,
                    "cycle {}: dual-rail violation on {bus:?} bus (rails agree on {agreeing:#010x})",
                    self.cycle
                )
            }
        }
    }
}

impl std::error::Error for CpuError {}

/// Aggregate statistics of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunResult {
    /// Total clock cycles simulated.
    pub cycles: u64,
    /// Instructions retired (reached write-back), including `halt`.
    pub retired: u64,
    /// Retired instructions carrying the secure bit.
    pub retired_secure: u64,
    /// Load-use interlock stall cycles.
    pub stalls: u64,
    /// Wrong-path instructions squashed by branch/jump resolution.
    pub flushed: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IfId {
    pub(crate) pc: u32,
    pub(crate) inst: Instruction,
    pub(crate) valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdEx {
    pub(crate) pc: u32,
    pub(crate) inst: Instruction,
    /// rs value read in ID.
    pub(crate) a: u32,
    /// rt value read in ID.
    pub(crate) b: u32,
    pub(crate) valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExMem {
    pub(crate) inst: Instruction,
    /// ALU result or memory address.
    pub(crate) alu: u32,
    /// Store data (forwarded rt).
    pub(crate) store_val: u32,
    pub(crate) valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemWb {
    pub(crate) inst: Instruction,
    pub(crate) value: u32,
    pub(crate) valid: bool,
}

const BUBBLE: Instruction = Instruction {
    op: Op::Sll,
    rd: Reg::Zero,
    rs: Reg::Zero,
    rt: Reg::Zero,
    imm: 0,
    target: 0,
    secure: false,
};

/// The simulated processor.
///
/// Construct with [`Cpu::new`], then call [`Cpu::run`] (collect nothing),
/// [`Cpu::run_collecting`] (collect every [`CycleActivity`]) or
/// [`CpuBackend::run_with`] (stream records to a callback that may stop
/// the run, with an optional [`PipelineHook`](crate::PipelineHook)).
///
/// A machine has one equality, [`Cpu::eq_on`]: agreement on the control
/// state and on the registers and data words a run goes on to read. A
/// fault trial stops where it rejoins the clean run in this sense.
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) text: Vec<Instruction>,
    pub(crate) arch: ArchState,
    pub(crate) pipe: Pipeline,
}

/// The pipeline's own state beside its [`ArchState`]: the fetch flag, the
/// four latches and any pending rail skew. A checkpoint saves and restores
/// it whole; the skew is clean between cycles, so a restore clears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    pub(crate) fetch_enabled: bool,
    pub(crate) if_id: IfId,
    pub(crate) id_ex: IdEx,
    pub(crate) ex_mem: ExMem,
    pub(crate) mem_wb: MemWb,
    /// Complement-rail disagreement injected this cycle by a hook; folded
    /// into the activity record by [`CpuBackend::step`] and cleared.
    pub(crate) rail_skew: RailSkew,
}

impl Cpu {
    /// Builds a processor with the program loaded: text in instruction ROM
    /// and the architectural state of [`ArchState`]'s reset.
    pub fn new(program: &Program) -> Self {
        Self {
            text: program.text.clone(),
            arch: ArchState::load(program),
            pipe: Pipeline {
                fetch_enabled: true,
                if_id: IfId { pc: 0, inst: BUBBLE, valid: false },
                id_ex: IdEx { pc: 0, inst: BUBBLE, a: 0, b: 0, valid: false },
                ex_mem: ExMem { inst: BUBBLE, alu: 0, store_val: 0, valid: false },
                mem_wb: MemWb { inst: BUBBLE, value: 0, valid: false },
                rail_skew: RailSkew::default(),
            },
        }
    }

    /// Whether `self` and `other` agree on the state a clock cycle reads,
    /// where that state is live: the program, the [`Pipeline`] state, PC,
    /// cycle count and halt flag in full, and the registers and data words
    /// only where `live` holds them — not the rest of the statistics,
    /// which the clock only adds to, nor the dirty-page set, which is
    /// checkpoint bookkeeping.
    ///
    /// When `live` holds everything the rest of a run reads (a clean
    /// run's [`LastReads::live_from`](crate::LastReads::live_from) at
    /// this cycle), two machines that agree on it run on identically: each
    /// cycle reads only agreed values, so both make the same writes and
    /// add the same to their statistics, and a location on which they
    /// differ is never read again.
    pub fn eq_on(&self, other: &Cpu, live: &LiveSet) -> bool {
        // Exhaustive, so that a new field has to be placed in or out.
        let Cpu { text, arch: ArchState { regs, mem, pc, halted, stats }, pipe } = self;
        let o = &other.arch;
        *pipe == other.pipe
            && *pc == o.pc
            && stats.cycles == o.stats.cycles
            && *halted == o.halted
            && *text == other.text
            && regs.eq_on(&o.regs, live.regs)
            && mem.eq_on(&o.mem, &live.words)
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.arch.regs.read(r)
    }

    /// Mutable view of data memory (for harness setup, e.g. poking inputs).
    pub fn memory_mut(&mut self) -> &mut DataMemory {
        &mut self.arch.mem
    }

    /// Runs to completion, discarding activity records.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on memory faults, division by zero, a runaway
    /// PC, or an exhausted cycle budget.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, CpuError> {
        self.run_with(max_cycles, &mut NullHook, |_| ControlFlow::Continue(()))
    }

    /// Runs to completion, returning every cycle's activity record.
    ///
    /// # Errors
    ///
    /// As for [`Cpu::run`].
    pub fn run_collecting(
        &mut self,
        max_cycles: u64,
    ) -> Result<(RunResult, Vec<CycleActivity>), CpuError> {
        let mut v = Vec::new();
        let r = self.run_with(max_cycles, &mut NullHook, |a| {
            v.push(a.clone());
            ControlFlow::Continue(())
        })?;
        Ok((r, v))
    }

    /// Advances the pipeline one clock cycle with no hook — the body of
    /// [`CpuBackend::step`].
    pub(crate) fn clock(&mut self) -> Result<CycleActivity, CpuError> {
        let cycle = self.arch.stats.cycles;
        let mut act = CycleActivity::idle(cycle);
        let fault = |kind| CpuError { cycle, kind };

        // Snapshot the latches as they stood at the start of the cycle.
        let Pipeline { if_id, id_ex, ex_mem, mem_wb, .. } = self.pipe;

        // ---- WB (first half: write register file) ----
        if mem_wb.valid {
            if let Some(dest) = mem_wb.inst.dest() {
                self.arch.regs.write(dest, mem_wb.value);
                act.regfile_write = true;
            }
            act.retired = Some(mem_wb.inst);
            self.arch.stats.retired += 1;
            if mem_wb.inst.secure {
                self.arch.stats.retired_secure += 1;
            }
            match mem_wb.inst.class() {
                OpClass::Load => self.arch.stats.loads += 1,
                OpClass::Store => self.arch.stats.stores += 1,
                OpClass::Halt => self.arch.halted = true,
                _ => {}
            }
        }

        // ---- MEM ----
        let mut new_mem_wb = MemWb { inst: BUBBLE, value: 0, valid: false };
        if ex_mem.valid {
            let inst = ex_mem.inst;
            let value = match inst.class() {
                OpClass::Load => {
                    let v = self
                        .arch
                        .mem
                        .load(ex_mem.alu)
                        .map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                    act.mem = Some(MemActivity {
                        is_store: false,
                        addr: ex_mem.alu,
                        data: v,
                        secure: inst.secure,
                    });
                    act.mem_bus = BusSample::new(v, inst.secure);
                    v
                }
                OpClass::Store => {
                    self.arch
                        .mem
                        .store(ex_mem.alu, ex_mem.store_val)
                        .map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                    act.mem = Some(MemActivity {
                        is_store: true,
                        addr: ex_mem.alu,
                        data: ex_mem.store_val,
                        secure: inst.secure,
                    });
                    act.mem_bus = BusSample::new(ex_mem.store_val, inst.secure);
                    ex_mem.alu
                }
                _ => ex_mem.alu,
            };
            new_mem_wb = MemWb { inst, value, valid: true };
            act.mem_wb_value = BusSample::new(value, inst.secure);
        }

        // ---- EX ----
        let mut new_ex_mem = ExMem { inst: BUBBLE, alu: 0, store_val: 0, valid: false };
        let mut redirect: Option<u32> = None;
        if id_ex.valid {
            let inst = id_ex.inst;
            // Forwarding: EX/MEM (ALU results only — a load's data is not
            // yet available there; the interlock guarantees that case never
            // arises) then MEM/WB.
            let fwd = |reg: Reg, read: u32| -> u32 {
                if reg.is_zero() {
                    return 0;
                }
                if ex_mem.valid && !ex_mem.inst.is_load() && ex_mem.inst.dest() == Some(reg) {
                    return ex_mem.alu;
                }
                if mem_wb.valid && mem_wb.inst.dest() == Some(reg) {
                    return mem_wb.value;
                }
                read
            };
            // Operand isolation: only operands the instruction actually
            // uses are driven onto the operand buses; unused buses stay
            // gated. The bus carries the post-forwarding value — the
            // stale ID-read value never reaches an energy-visible node.
            let (use_rs, use_rt) = inst.sources();
            let a = if use_rs.is_some() { fwd(inst.rs, id_ex.a) } else { 0 };
            let b_reg = if use_rt.is_some() { fwd(inst.rt, id_ex.b) } else { 0 };
            act.id_ex_a = BusSample::new(a, inst.secure);
            act.id_ex_b = BusSample::new(b_reg, inst.secure);
            let imm = inst.imm;
            let (alu_a, alu_b) = alu_inputs(&inst, a, b_reg, imm);
            let alu =
                alu_exec(inst.op, alu_a, alu_b).ok_or_else(|| fault(CpuErrorKind::DivideByZero))?;
            // Control flow resolves here.
            match inst.class() {
                OpClass::Branch if branch_taken(inst.op, a, b_reg) => {
                    redirect = Some((id_ex.pc as i64 + 1 + i64::from(imm)) as u32);
                }
                OpClass::Jump => {
                    redirect = Some(match inst.op {
                        Op::J | Op::Jal => inst.target,
                        Op::Jr | Op::Jalr => a,
                        _ => unreachable!(),
                    });
                }
                _ => {}
            }
            // Link value for jal/jalr.
            let result = match inst.op {
                Op::Jal | Op::Jalr => id_ex.pc + 1,
                _ => alu,
            };
            act.ex = Some(ExActivity {
                pc: id_ex.pc,
                op: inst.op,
                class: inst.class(),
                a: alu_a,
                b: alu_b,
                result,
                secure: inst.secure,
            });
            act.ex_mem_result = BusSample::new(result, inst.secure);
            new_ex_mem = ExMem { inst, alu: result, store_val: b_reg, valid: true };
        }

        // ---- ID ----
        let mut stall = false;
        let mut new_id_ex = IdEx { pc: 0, inst: BUBBLE, a: 0, b: 0, valid: false };
        if if_id.valid {
            let inst = if_id.inst;
            // Load-use interlock: the instruction in EX is a load whose
            // destination this instruction reads.
            if id_ex.valid && id_ex.inst.is_load() {
                if let Some(dest) = id_ex.inst.dest() {
                    let (s1, s2) = inst.sources();
                    if s1 == Some(dest) || s2 == Some(dest) {
                        stall = true;
                    }
                }
            }
            if !stall {
                // Read ports are enabled per operand: an instruction that
                // does not use rs/rt must not drive a stale register value
                // (possibly a secret left by an earlier instruction) onto
                // the operand latches.
                let (use_rs, use_rt) = inst.sources();
                let a = use_rs.map_or(0, |r| self.arch.regs.read(r));
                let b = use_rt.map_or(0, |r| self.arch.regs.read(r));
                act.regfile_reads = read_ports(use_rs, use_rt);
                // Note: the operand-bus samples (act.id_ex_a/b) are driven
                // by the EX stage above, post-forwarding.
                new_id_ex = IdEx { pc: if_id.pc, inst, a, b, valid: true };
            }
        }

        // ---- IF ----
        let mut new_if_id = IfId { pc: 0, inst: BUBBLE, valid: false };
        if stall {
            act.stalled = true;
            self.arch.stats.stalls += 1;
            new_if_id = if_id; // hold
        } else if self.pipe.fetch_enabled {
            if let Some(&inst) = self.text.get(self.arch.pc as usize) {
                act.fetch_pc = Some(self.arch.pc);
                act.inst_word = BusSample::new(encode(&inst), inst.secure);
                new_if_id = IfId { pc: self.arch.pc, inst, valid: true };
                if inst.op == Op::Halt {
                    // Nothing meaningful follows a halt; stop fetching.
                    self.pipe.fetch_enabled = false;
                }
                self.arch.pc += 1;
            }
            // A PC past the end of text is tolerated here: it may be a
            // wrong-path fetch that an in-flight branch is about to squash.
            // The true-runaway check happens after the redirect below.
        }

        // ---- control-flow redirect overrides everything younger ----
        if let Some(target) = redirect {
            let squashed = u8::from(new_if_id.valid) + u8::from(new_id_ex.valid);
            act.flushed = squashed;
            self.arch.stats.flushed += u64::from(squashed);
            new_if_id = IfId { pc: 0, inst: BUBBLE, valid: false };
            new_id_ex = IdEx { pc: 0, inst: BUBBLE, a: 0, b: 0, valid: false };
            act.stalled = false;
            self.arch.pc = target;
            self.pipe.fetch_enabled = true;
        }

        // True runaway: nothing left in flight, fetch still wanted, but the
        // PC points past the end of text and no halt has retired.
        if !self.arch.halted
            && self.pipe.fetch_enabled
            && self.arch.pc as usize >= self.text.len()
            && !new_if_id.valid
            && !new_id_ex.valid
            && !new_ex_mem.valid
            && !new_mem_wb.valid
        {
            return Err(fault(CpuErrorKind::PcOutOfRange { pc: self.arch.pc }));
        }

        self.pipe.if_id = new_if_id;
        self.pipe.id_ex = new_id_ex;
        self.pipe.ex_mem = new_ex_mem;
        self.pipe.mem_wb = new_mem_wb;
        self.arch.stats.cycles += 1;
        Ok(act)
    }
}

/// Selects the operand values presented to the functional unit. Shared
/// with the reference interpreter so both backends use one ALU semantics.
pub(crate) fn alu_inputs(inst: &Instruction, a: u32, b_reg: u32, imm: i32) -> (u32, u32) {
    match inst.class() {
        OpClass::AluReg => (a, b_reg),
        OpClass::AluImm => match inst.op {
            Op::Lui => (imm as u32, 16),
            op if op.zero_extends_imm() => (a, imm as u32 & 0xFFFF),
            _ => (a, imm as u32),
        },
        OpClass::ShiftImm => (b_reg, imm as u32),
        OpClass::Load | OpClass::Store => (a, imm as u32),
        OpClass::Branch => (a, b_reg),
        OpClass::Jump | OpClass::Halt => (a, 0),
    }
}

/// Executes an operation; `None` signals division by zero. Shared with
/// the reference interpreter.
pub(crate) fn alu_exec(op: Op, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        Op::Addu | Op::Addiu | Op::Lw | Op::Sw => a.wrapping_add(b),
        Op::Subu => a.wrapping_sub(b),
        Op::And | Op::Andi => a & b,
        Op::Or | Op::Ori => a | b,
        Op::Xor | Op::Xori => a ^ b,
        Op::Nor => !(a | b),
        Op::Sll | Op::Sllv => a.wrapping_shl(b & 31),
        Op::Srl | Op::Srlv => a.wrapping_shr(b & 31),
        Op::Sra | Op::Srav => ((a as i32).wrapping_shr(b & 31)) as u32,
        Op::Slt | Op::Slti => u32::from((a as i32) < (b as i32)),
        Op::Sltu | Op::Sltiu => u32::from(a < b),
        Op::Mul => a.wrapping_mul(b),
        Op::Div => {
            if b == 0 {
                return None;
            }
            ((a as i32).wrapping_div(b as i32)) as u32
        }
        Op::Rem => {
            if b == 0 {
                return None;
            }
            ((a as i32).wrapping_rem(b as i32)) as u32
        }
        Op::Lui => a << 16,
        Op::Beq | Op::Bne | Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => a.wrapping_sub(b),
        Op::J | Op::Jal | Op::Jr | Op::Jalr | Op::Halt => a,
    })
}

pub(crate) fn branch_taken(op: Op, a: u32, b: u32) -> bool {
    let sa = a as i32;
    match op {
        Op::Beq => a == b,
        Op::Bne => a != b,
        Op::Blez => sa <= 0,
        Op::Bgtz => sa > 0,
        Op::Bltz => sa < 0,
        Op::Bgez => sa >= 0,
        _ => false,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_isa::{assemble, DATA_BASE, STACK_TOP};

    fn run_asm(src: &str) -> Cpu {
        let p = assemble(src).expect("asm");
        let mut cpu = Cpu::new(&p);
        cpu.run(100_000).expect("run");
        cpu
    }

    #[test]
    fn straight_line_arithmetic() {
        let cpu = run_asm(
            ".text\n li $t0, 6\n li $t1, 7\n addu $t2, $t0, $t1\n subu $t3, $t0, $t1\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T2), 13);
        assert_eq!(cpu.reg(Reg::T3), (-1i32) as u32);
    }

    #[test]
    fn decode_records_each_read_port_even_when_both_name_one_register() {
        // `b` is `beq $zero,$zero`: two ports on `$zero`; the `xor` reads
        // `$t1` on both. Both backends record the same ports.
        let p = assemble(".text\n xor $t0, $t1, $t1\n b end\nend: halt\n").unwrap();
        let xor = 1 << Reg::T1.number() | 1 << (32 + Reg::T1.number());
        let beq = 1 | 1 << 32;
        let (_, acts) = Cpu::new(&p).run_collecting(100).unwrap();
        let reads: Vec<u64> = acts.iter().map(|a| a.regfile_reads).filter(|&r| r != 0).collect();
        assert_eq!(reads, [xor, beq]);
        let mut iss = crate::Interpreter::new(&p);
        let mut iss_reads = Vec::new();
        iss.run_with(100, &mut NullHook, |a| {
            iss_reads.push(a.regfile_reads);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(iss_reads, [xor, beq, 0]);
        assert_eq!(xor.count_ones(), 2);
        assert_eq!(beq.count_ones(), 2);
    }

    #[test]
    fn forwarding_from_ex_mem() {
        // Back-to-back dependent ALU ops exercise EX/MEM forwarding.
        let cpu = run_asm(".text\n li $t0, 1\n addu $t1, $t0, $t0\n addu $t2, $t1, $t1\n addu $t3, $t2, $t2\n halt\n");
        assert_eq!(cpu.reg(Reg::T3), 8);
    }

    #[test]
    fn forwarding_from_mem_wb() {
        // One-apart dependence exercises MEM/WB forwarding.
        let cpu = run_asm(".text\n li $t0, 5\n nop\n addu $t1, $t0, $t0\n halt\n");
        assert_eq!(cpu.reg(Reg::T1), 10);
    }

    #[test]
    fn load_use_interlock_stalls_once() {
        let p = assemble(
            ".data\nv: .word 21\n.text\n la $t0, v\n lw $t1, 0($t0)\n addu $t2, $t1, $t1\n halt\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg::T2), 42);
        assert_eq!(r.stalls, 1);
    }

    #[test]
    fn store_then_load_round_trips() {
        let cpu = run_asm(
            ".data\nbuf: .space 8\n.text\n la $t0, buf\n li $t1, 0x1234\n sw $t1, 4($t0)\n lw $t2, 4($t0)\n addu $t3, $t2, $zero\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T3), 0x1234);
    }

    #[test]
    fn store_data_forwarded_from_prior_alu() {
        // The stored rt is produced by the immediately preceding add.
        let cpu = run_asm(
            ".data\nbuf: .space 4\n.text\n la $t0, buf\n li $t1, 20\n addu $t2, $t1, $t1\n sw $t2, 0($t0)\n lw $t3, 0($t0)\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T3), 40);
    }

    #[test]
    fn load_then_store_dependency() {
        // lw then sw of the same register: interlock + forwarding.
        let cpu = run_asm(
            ".data\na: .word 77\nb: .space 4\n.text\n la $t0, a\n la $t1, b\n lw $t2, 0($t0)\n sw $t2, 0($t1)\n lw $t3, 0($t1)\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T3), 77);
    }

    #[test]
    fn taken_branch_flushes_two() {
        let p = assemble(
            ".text\n li $t0, 1\n beq $t0, $t0, skip\n li $t1, 99\n li $t2, 99\nskip: li $t3, 5\n halt\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg::T1), 0);
        assert_eq!(cpu.reg(Reg::T2), 0);
        assert_eq!(cpu.reg(Reg::T3), 5);
        assert_eq!(r.flushed, 2);
    }

    #[test]
    fn not_taken_branch_flushes_nothing() {
        let p =
            assemble(".text\n li $t0, 1\n bne $t0, $t0, skip\n li $t1, 4\nskip: halt\n").unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg::T1), 4);
        assert_eq!(r.flushed, 0);
    }

    #[test]
    fn loop_sums_correctly() {
        let cpu = run_asm(
            ".text\n li $t0, 0\n li $t1, 0\nloop: addu $t1, $t1, $t0\n addiu $t0, $t0, 1\n li $t2, 10\n bne $t0, $t2, loop\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T1), 45);
    }

    #[test]
    fn jal_jr_function_call() {
        let cpu = run_asm(
            ".text\n li $a0, 5\n jal double\n move $t9, $v0\n halt\ndouble: addu $v0, $a0, $a0\n jr $ra\n",
        );
        assert_eq!(cpu.reg(Reg::T9), 10);
    }

    #[test]
    fn jalr_indirect_call() {
        let cpu = run_asm(
            ".text\n li $t0, 6\n li $t1, 7\n jal main\n halt\nmain: addu $v0, $t0, $t1\n jr $ra\n",
        );
        assert_eq!(cpu.reg(Reg::V0), 13);
    }

    #[test]
    fn signed_comparisons() {
        let cpu = run_asm(
            ".text\n li $t0, -3\n li $t1, 2\n slt $t2, $t0, $t1\n sltu $t3, $t0, $t1\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T2), 1, "-3 < 2 signed");
        assert_eq!(cpu.reg(Reg::T3), 0, "0xFFFFFFFD > 2 unsigned");
    }

    #[test]
    fn shifts_behave() {
        let cpu = run_asm(
            ".text\n li $t0, -8\n sra $t1, $t0, 1\n srl $t2, $t0, 1\n sll $t3, $t0, 1\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T1) as i32, -4);
        assert_eq!(cpu.reg(Reg::T2), 0x7FFF_FFFC);
        assert_eq!(cpu.reg(Reg::T3) as i32, -16);
    }

    #[test]
    fn mul_div_rem() {
        let cpu = run_asm(
            ".text\n li $t0, -7\n li $t1, 2\n mul $t2, $t0, $t1\n div $t3, $t0, $t1\n rem $t4, $t0, $t1\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T2) as i32, -14);
        assert_eq!(cpu.reg(Reg::T3) as i32, -3);
        assert_eq!(cpu.reg(Reg::T4) as i32, -1);
    }

    #[test]
    fn divide_by_zero_faults() {
        let p = assemble(".text\n li $t0, 1\n li $t1, 0\n div $t2, $t0, $t1\n halt\n").unwrap();
        let e = Cpu::new(&p).run(1000).unwrap_err();
        assert_eq!(e.kind, CpuErrorKind::DivideByZero);
    }

    #[test]
    fn unaligned_access_faults() {
        let p = assemble(".text\n li $t0, 2\n lw $t1, 0($t0)\n halt\n").unwrap();
        let e = Cpu::new(&p).run(1000).unwrap_err();
        assert!(matches!(e.kind, CpuErrorKind::Memory(AccessError::Unaligned { addr: 2 })));
    }

    #[test]
    fn runaway_pc_faults() {
        let p = assemble(".text\n nop\n nop\n").unwrap();
        let e = Cpu::new(&p).run(1000).unwrap_err();
        assert!(matches!(e.kind, CpuErrorKind::PcOutOfRange { .. }));
    }

    #[test]
    fn cycle_limit_enforced() {
        let p = assemble(".text\nspin: b spin\n halt\n").unwrap();
        let e = Cpu::new(&p).run(50).unwrap_err();
        assert_eq!(e.kind, CpuErrorKind::CycleLimit { limit: 50 });
    }

    #[test]
    fn stack_pointer_initialized() {
        let p = assemble(".text\n halt\n").unwrap();
        let cpu = Cpu::new(&p);
        assert_eq!(cpu.reg(Reg::Sp), STACK_TOP);
        assert_eq!(cpu.reg(Reg::Gp), DATA_BASE);
    }

    #[test]
    fn push_pop_through_stack() {
        let cpu = run_asm(
            ".text\n addiu $sp, $sp, -8\n li $t0, 31\n sw $t0, 0($sp)\n li $t1, 41\n sw $t1, 4($sp)\n lw $t2, 0($sp)\n lw $t3, 4($sp)\n addiu $sp, $sp, 8\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T2), 31);
        assert_eq!(cpu.reg(Reg::T3), 41);
    }

    #[test]
    fn run_result_counts_plausibly() {
        let p = assemble(".text\n li $t0, 1\n li $t1, 2\n addu $t2, $t0, $t1\n halt\n").unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1000).unwrap();
        assert_eq!(r.retired, 4);
        // 4 instructions + 4-cycle fill for the last one to reach WB.
        assert_eq!(r.cycles, 8);
        assert!(r.ipc() > 0.0 && r.ipc() <= 1.0);
    }

    #[test]
    fn secure_instructions_counted() {
        let p = assemble(
            ".data\nv: .word 3\n.text\n la $t0, v\n slw $t1, 0($t0)\n sxor $t2, $t1, $t1\n halt\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1000).unwrap();
        assert_eq!(r.retired_secure, 2);
    }

    #[test]
    fn activity_stream_is_consistent() {
        let p = assemble(
            ".data\nv: .word 9\n.text\n la $t0, v\n slw $t1, 0($t0)\n addu $t2, $t1, $t1\n halt\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let (r, acts) = cpu.run_collecting(1000).unwrap();
        assert_eq!(acts.len() as u64, r.cycles);
        // Exactly one secure memory access, a load of 9.
        let loads: Vec<_> = acts.iter().filter_map(|a| a.mem).filter(|m| !m.is_store).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].data, 9);
        assert!(loads[0].secure);
        // Retired instruction stream matches the program.
        let retired: Vec<_> = acts.iter().filter_map(|a| a.retired).collect();
        assert_eq!(retired.len(), 5); // lui, ori, slw, addu, halt
        assert_eq!(retired.last().unwrap().op, Op::Halt);
        // Cycle numbering is dense and ordered.
        for (i, a) in acts.iter().enumerate() {
            assert_eq!(a.cycle, i as u64);
        }
    }

    #[test]
    fn backward_branch_interacting_with_stall() {
        // A load feeding the loop-condition branch: interlock and flush
        // must compose without losing instructions.
        let cpu = run_asm(
            ".data\nlimit: .word 5\n.text\n la $t0, limit\n li $t1, 0\nloop: addiu $t1, $t1, 1\n lw $t2, 0($t0)\n bne $t1, $t2, loop\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T1), 5);
    }

    #[test]
    fn branch_squash_does_not_corrupt_memory() {
        // A wrong-path store must never commit: the store sits right after
        // a taken branch.
        let cpu = run_asm(
            ".data\nv: .word 1\n.text\n la $t0, v\n li $t1, 1\n beq $t1, $t1, out\n li $t2, 99\n sw $t2, 0($t0)\nout: lw $t3, 0($t0)\n halt\n",
        );
        assert_eq!(cpu.reg(Reg::T3), 1);
    }

    #[test]
    fn error_display_names_every_fault_kind() {
        let cases = [
            (
                CpuErrorKind::Memory(crate::memory::AccessError::Unaligned { addr: 6 }),
                "cycle 7: unaligned word access at 0x00000006",
            ),
            (CpuErrorKind::DivideByZero, "cycle 7: division by zero"),
            (CpuErrorKind::PcOutOfRange { pc: 40 }, "cycle 7: pc 40 past end of text without halt"),
            (CpuErrorKind::CycleLimit { limit: 99 }, "cycle limit 99 exhausted before halt"),
            (
                CpuErrorKind::DualRailViolation { bus: Bus::OperandA, agreeing: 1 << 4 },
                "cycle 7: dual-rail violation on OperandA bus (rails agree on 0x00000010)",
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(CpuError { cycle: 7, kind }.to_string(), expected);
        }
    }
}
