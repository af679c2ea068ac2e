//! A reference instruction-set interpreter (ISS).
//!
//! Executes one instruction per step with no pipeline, no forwarding and
//! no hazards — the architectural specification the 5-stage
//! [`Cpu`](crate::Cpu) must agree with. The workspace property tests run
//! both on random programs and demand identical final register/memory
//! state and identical retirement order; any divergence is a pipeline bug
//! (lost forwarding, wrong-path commit, interlock failure, ...).
//!
//! The interpreter is a full [`CpuBackend`](crate::CpuBackend): each
//! executed instruction synthesizes one [`CycleActivity`] record (all five
//! stage roles collapsed into a single "cycle"), so phase-marker
//! detection, hook attachment and per-backend energy accounting work on it
//! exactly as on the pipeline — the *values* on the buses are
//! architectural and agree with the pipeline's post-forwarding buses,
//! while the cycle placement is the backend's own microarchitecture.

use crate::activity::{BusSample, CycleActivity, ExActivity, MemActivity};
use crate::hook::RailSkew;
use crate::memory::DataMemory;
use crate::pipeline::{alu_exec, alu_inputs, branch_taken, CpuError, CpuErrorKind, RunResult};
use crate::regfile::RegisterFile;
use emask_isa::program::{DATA_BASE, MEM_SIZE, STACK_TOP};
use emask_isa::{encode, Instruction, Op, OpClass, Program, Reg};

/// The reference interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter {
    pub(crate) text: Vec<Instruction>,
    pub(crate) regs: RegisterFile,
    pub(crate) mem: DataMemory,
    pub(crate) pc: u32,
    pub(crate) halted: bool,
    pub(crate) executed: u64,
    pub(crate) stats: RunResult,
}

impl Interpreter {
    /// Loads a program exactly as [`crate::Cpu::new`] does (same memory
    /// map, same `$sp`/`$gp` initialization).
    pub fn new(program: &Program) -> Self {
        let mut mem = DataMemory::new(MEM_SIZE);
        mem.load_image(DATA_BASE, &program.data);
        let mut regs = RegisterFile::new();
        regs.write(Reg::Sp, STACK_TOP.min(mem.size() - 16));
        regs.write(Reg::Gp, DATA_BASE);
        Self {
            text: program.text.clone(),
            regs,
            mem,
            pc: 0,
            halted: false,
            executed: 0,
            stats: RunResult::default(),
        }
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs.read(r)
    }

    /// Sets a register before (or between) runs — harness argument passing.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs.write(r, value);
    }

    /// Immutable view of data memory.
    pub fn memory(&self) -> &DataMemory {
        &self.mem
    }

    /// Mutable view of data memory (harness setup).
    pub fn memory_mut(&mut self) -> &mut DataMemory {
        &mut self.mem
    }

    /// The current program counter (text index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// A snapshot of all registers.
    pub fn registers(&self) -> [u32; 32] {
        self.regs.snapshot()
    }

    /// Statistics accumulated so far, in [`RunResult`] form. `retired`
    /// equals `cycles` equals instructions executed; `stalls` and
    /// `flushed` are always zero (there is no pipeline to stall or flush).
    pub fn stats(&self) -> RunResult {
        self.stats
    }

    /// Executes one instruction and synthesizes its activity record: the
    /// fetch, operand, execute, memory and write-back roles of the five
    /// pipeline stages collapsed into a single record whose `cycle` is the
    /// instruction index. Bus values are architectural (the interpreter
    /// has no stale-forwarding window), and operand gating matches the
    /// pipeline: unused operand buses stay at 0. The body of
    /// [`CpuBackend::step`](crate::CpuBackend::step); its errors use the
    /// pipeline's taxonomy with `cycle` meaning "instructions executed".
    pub(crate) fn clock(&mut self) -> Result<CycleActivity, CpuError> {
        let cycle = self.executed;
        let fault = |kind| CpuError { cycle, kind };
        let Some(&inst) = self.text.get(self.pc as usize) else {
            return Err(fault(CpuErrorKind::PcOutOfRange { pc: self.pc }));
        };
        let mut act = CycleActivity::idle(cycle);
        act.fetch_pc = Some(self.pc);
        act.inst_word = BusSample::new(encode(&inst), inst.secure);

        // Operand read with per-port gating, as in the pipeline's ID/EX.
        let (use_rs, use_rt) = inst.sources();
        let a = use_rs.map_or(0, |r| self.regs.read(r));
        let b = use_rt.map_or(0, |r| self.regs.read(r));
        act.regfile_reads = u8::from(use_rs.is_some()) + u8::from(use_rt.is_some());
        act.id_ex_a = BusSample::new(a, inst.secure);
        act.id_ex_b = BusSample::new(b, inst.secure);

        // One ALU semantics for both backends.
        let imm = inst.imm;
        let (alu_a, alu_b) = alu_inputs(&inst, a, b, imm);
        let alu =
            alu_exec(inst.op, alu_a, alu_b).ok_or_else(|| fault(CpuErrorKind::DivideByZero))?;

        let mut next_pc = self.pc + 1;
        match inst.class() {
            OpClass::Branch if branch_taken(inst.op, a, b) => {
                next_pc = (i64::from(self.pc) + 1 + i64::from(imm)) as u32;
            }
            OpClass::Jump => {
                next_pc = match inst.op {
                    Op::J | Op::Jal => inst.target,
                    Op::Jr | Op::Jalr => a,
                    _ => unreachable!(),
                };
            }
            _ => {}
        }
        let result = match inst.op {
            Op::Jal | Op::Jalr => self.pc + 1,
            _ => alu,
        };
        act.ex = Some(ExActivity {
            pc: self.pc,
            op: inst.op,
            class: inst.class(),
            a: alu_a,
            b: alu_b,
            result,
            secure: inst.secure,
        });
        act.ex_mem_result = BusSample::new(result, inst.secure);

        // Memory access + write-back value, as the MEM stage computes it.
        let value = match inst.class() {
            OpClass::Load => {
                let v = self.mem.load(alu).map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                act.mem =
                    Some(MemActivity { is_store: false, addr: alu, data: v, secure: inst.secure });
                act.mem_bus = BusSample::new(v, inst.secure);
                self.stats.loads += 1;
                v
            }
            OpClass::Store => {
                self.mem.store(alu, b).map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                act.mem =
                    Some(MemActivity { is_store: true, addr: alu, data: b, secure: inst.secure });
                act.mem_bus = BusSample::new(b, inst.secure);
                self.stats.stores += 1;
                alu
            }
            _ => result,
        };
        act.mem_wb_value = BusSample::new(value, inst.secure);

        // Write-back / retirement.
        if let Some(d) = inst.dest() {
            self.regs.write(d, value);
            act.regfile_write = true;
        }
        act.retired = Some(inst);
        self.stats.retired += 1;
        if inst.secure {
            self.stats.retired_secure += 1;
        }
        if inst.class() == OpClass::Halt {
            self.halted = true;
        }
        self.pc = next_pc;
        self.executed += 1;
        self.stats.cycles = self.executed;
        Ok(act)
    }
}

/// A restorable snapshot of the interpreter, with the same incremental
/// dirty-page memory scheme as [`crate::CpuCheckpoint`]: a full shadow
/// copy kept in sync at capture/refresh boundaries, with only the pages
/// dirtied since the last boundary moved on refresh/restore.
#[derive(Debug, Clone)]
pub struct InterpCheckpoint {
    regs: RegisterFile,
    pc: u32,
    halted: bool,
    executed: u64,
    stats: RunResult,
    shadow: DataMemory,
    last_pages_moved: usize,
}

impl InterpCheckpoint {
    /// Snapshots `iss` and starts dirty-page tracking from this point.
    pub fn capture(iss: &mut Interpreter) -> Self {
        iss.mem.clear_dirty();
        Self {
            regs: iss.regs.clone(),
            pc: iss.pc,
            halted: iss.halted,
            executed: iss.executed,
            stats: iss.stats,
            shadow: iss.mem.clone(),
            last_pages_moved: 0,
        }
    }

    /// Advances the checkpoint to the interpreter's current state,
    /// moving only the pages dirtied since the previous boundary.
    pub fn refresh(&mut self, iss: &mut Interpreter) {
        let dirty = iss.mem.dirty_pages();
        self.last_pages_moved = dirty.len();
        for page in dirty {
            self.shadow.copy_page_from(&iss.mem, page);
        }
        iss.mem.clear_dirty();
        self.regs = iss.regs.clone();
        self.pc = iss.pc;
        self.halted = iss.halted;
        self.executed = iss.executed;
        self.stats = iss.stats;
    }

    /// Rolls `iss` back to this checkpoint.
    pub fn restore(&mut self, iss: &mut Interpreter) {
        let dirty = iss.mem.dirty_pages();
        self.last_pages_moved = dirty.len();
        for page in dirty {
            iss.mem.copy_page_from(&self.shadow, page);
        }
        iss.mem.clear_dirty();
        iss.regs = self.regs.clone();
        iss.pc = self.pc;
        iss.halted = self.halted;
        iss.executed = self.executed;
        iss.stats = self.stats;
        // Symmetry with CpuCheckpoint::restore; the interpreter records no
        // rail skew (flip_lane is a no-op there), so this is always clean.
        let _ = RailSkew::default();
    }

    /// The instruction count at the checkpoint boundary.
    pub fn cycle(&self) -> u64 {
        self.executed
    }

    /// Instructions retired as of the boundary (same as
    /// [`InterpCheckpoint::cycle`] on this backend).
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Pages copied by the most recent refresh or restore.
    pub fn pages_moved(&self) -> usize {
        self.last_pages_moved
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::hook::{NullHook, PipelineHook};
    use crate::pipeline::Cpu;
    use crate::CpuBackend;
    use emask_isa::assemble;
    use std::ops::ControlFlow;

    fn both(src: &str) -> (Cpu, Interpreter) {
        let p = assemble(src).expect("asm");
        let mut cpu = Cpu::new(&p);
        let mut iss = Interpreter::new(&p);
        cpu.run(1_000_000).expect("pipeline run");
        iss.run(1_000_000).expect("iss run");
        (cpu, iss)
    }

    fn assert_state_matches(cpu: &Cpu, iss: &Interpreter) {
        for r in Reg::ALL {
            assert_eq!(cpu.reg(r), iss.reg(r), "register {r} diverged");
        }
        // Compare a slab of data memory.
        assert_eq!(cpu.memory().read_words(DATA_BASE, 64), iss.memory().read_words(DATA_BASE, 64));
    }

    #[test]
    fn straight_line_agrees() {
        let (cpu, iss) =
            both(".text\n li $t0, 6\n li $t1, 7\n mul $t2, $t0, $t1\n subu $t3, $t2, $t0\n halt\n");
        assert_state_matches(&cpu, &iss);
        assert_eq!(cpu.reg(Reg::T2), 42);
    }

    #[test]
    fn loops_and_memory_agree() {
        let (cpu, iss) = both(
            ".data\nbuf: .space 40\n.text\n la $t0, buf\n li $t1, 0\nloop: sll $t2, $t1, 2\n addu $t2, $t0, $t2\n mul $t3, $t1, $t1\n sw $t3, 0($t2)\n addiu $t1, $t1, 1\n li $t4, 10\n bne $t1, $t4, loop\n lw $t5, 36($t0)\n halt\n",
        );
        assert_state_matches(&cpu, &iss);
        assert_eq!(cpu.reg(Reg::T5), 81);
    }

    #[test]
    fn calls_agree() {
        let (cpu, iss) = both(
            ".text\n li $a0, 9\n jal triple\n move $s0, $v0\n halt\ntriple: addu $v0, $a0, $a0\n addu $v0, $v0, $a0\n jr $ra\n",
        );
        assert_state_matches(&cpu, &iss);
        assert_eq!(cpu.reg(Reg::S0), 27);
    }

    #[test]
    fn faults_agree_in_kind() {
        let p = assemble(".text\n li $t0, 1\n li $t1, 0\n div $t2, $t0, $t1\n halt\n").unwrap();
        let pe = Cpu::new(&p).run(1000).unwrap_err();
        let ie = Interpreter::new(&p).run(1000).unwrap_err();
        assert_eq!(pe.kind, ie.kind);
        assert_eq!(ie.kind, CpuErrorKind::DivideByZero);
    }

    #[test]
    fn instruction_count_equals_pipeline_retired() {
        let p = assemble(
            ".text\n li $t0, 0\nloop: addiu $t0, $t0, 1\n li $t1, 7\n bne $t0, $t1, loop\n halt\n",
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let stats = cpu.run(10_000).unwrap();
        let mut iss = Interpreter::new(&p);
        let executed = iss.run(10_000).unwrap().retired;
        assert_eq!(stats.retired, executed, "pipeline must retire what the ISS executes");
    }

    #[test]
    fn activity_records_are_architecturally_faithful() {
        let p = assemble(
            ".data\nv: .word 9\n.text\n la $t0, v\n slw $t1, 0($t0)\n addu $t2, $t1, $t1\n halt\n",
        )
        .unwrap();
        let mut iss = Interpreter::new(&p);
        let mut acts = Vec::new();
        let stats = iss
            .run_with(1000, &mut NullHook, |a| {
                acts.push(a.clone());
                ControlFlow::Continue(())
            })
            .unwrap();
        // One record per instruction, densely numbered.
        assert_eq!(acts.len() as u64, stats.retired);
        for (i, a) in acts.iter().enumerate() {
            assert_eq!(a.cycle, i as u64);
            assert!(a.retired.is_some(), "every ISS record retires");
        }
        // The single secure load is visible to marker/energy consumers.
        let loads: Vec<_> = acts.iter().filter_map(|a| a.mem).filter(|m| !m.is_store).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].data, 9);
        assert!(loads[0].secure);
        assert_eq!(stats.loads, 1);
        // Retirement order matches the program.
        assert_eq!(acts.last().unwrap().retired.unwrap().op, Op::Halt);
    }

    #[test]
    fn retirement_order_matches_pipeline() {
        let src = ".text\n li $t0, 3\nloop: addiu $t0, $t0, -1\n bgtz $t0, loop\n halt\n";
        let p = assemble(src).unwrap();
        let mut cpu = Cpu::new(&p);
        let (_, cpu_acts) = cpu.run_collecting(100_000).unwrap();
        let cpu_retired: Vec<_> = cpu_acts.iter().filter_map(|a| a.retired).collect();
        let mut iss = Interpreter::new(&p);
        let mut iss_retired = Vec::new();
        iss.run_with(100_000, &mut NullHook, |a| {
            iss_retired.extend(a.retired);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(cpu_retired, iss_retired);
    }

    #[test]
    fn hooked_run_with_null_hook_matches_plain() {
        let p = assemble(".text\n li $t0, 5\n mul $t1, $t0, $t0\n halt\n").unwrap();
        // A hook with behavior takes the hooked route through `step`; the
        // null hook takes the plain one. Both must land in the same state.
        struct Count(u64);
        impl PipelineHook for Count {
            fn after_cycle(&mut self, _act: &CycleActivity) -> Result<(), CpuErrorKind> {
                self.0 += 1;
                Ok(())
            }
        }
        let mut a = Interpreter::new(&p);
        let mut b = Interpreter::new(&p);
        a.run(1000).unwrap();
        let mut count = Count(0);
        b.run_with(1000, &mut count, |_| ControlFlow::Continue(())).unwrap();
        assert_eq!(count.0, b.executed());
        assert_eq!(a.registers(), b.registers());
        assert_eq!(a.executed(), b.executed());
    }

    #[test]
    fn checkpoint_restore_rewinds_and_replays_identically() {
        let p = assemble(
            ".data\nbuf: .space 16\n.text\n la $t0, buf\n li $t1, 0\nloop: sw $t1, 0($t0)\n addiu $t1, $t1, 1\n li $t2, 6\n bne $t1, $t2, loop\n halt\n",
        )
        .unwrap();
        let mut reference = Interpreter::new(&p);
        reference.run(10_000).unwrap();
        let mut iss = Interpreter::new(&p);
        for _ in 0..5 {
            iss.step(&mut NullHook).unwrap();
        }
        let mut cp = InterpCheckpoint::capture(&mut iss);
        assert_eq!(cp.cycle(), 5);
        assert_eq!(cp.retired(), 5);
        for _ in 0..7 {
            iss.step(&mut NullHook).unwrap();
        }
        cp.restore(&mut iss);
        assert_eq!(iss.executed(), 5);
        while !iss.is_halted() {
            iss.step(&mut NullHook).unwrap();
        }
        assert_eq!(iss.registers(), reference.registers());
        assert_eq!(iss.memory(), reference.memory());
        assert_eq!(iss.stats(), reference.stats());
    }

    #[test]
    fn checkpoint_refresh_moves_only_dirty_pages() {
        let p = assemble(
            ".data\nbuf: .space 16\n.text\n la $t0, buf\n li $t1, 77\n sw $t1, 0($t0)\n halt\n",
        )
        .unwrap();
        let mut iss = Interpreter::new(&p);
        let mut cp = InterpCheckpoint::capture(&mut iss);
        iss.run(1000).unwrap();
        cp.refresh(&mut iss);
        assert!(cp.pages_moved() >= 1);
        assert!(cp.pages_moved() <= 2, "nowhere near the whole RAM");
        // The baseline moved: restoring now is a no-op.
        let end = iss.registers();
        cp.restore(&mut iss);
        assert_eq!(iss.registers(), end);
    }
}
