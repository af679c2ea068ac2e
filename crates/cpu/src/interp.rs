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

use crate::activity::{read_ports, BusSample, CycleActivity, ExActivity, MemActivity};
use crate::backend::ArchState;
use crate::pipeline::{alu_exec, alu_inputs, branch_taken, CpuError, CpuErrorKind};
use emask_isa::{encode, Instruction, Op, OpClass, Program};

/// The reference interpreter: the program text and an [`ArchState`],
/// with no microarchitecture beside them.
#[derive(Debug, Clone)]
pub struct Interpreter {
    pub(crate) text: Vec<Instruction>,
    pub(crate) arch: ArchState,
}

impl Interpreter {
    /// Loads a program exactly as [`crate::Cpu::new`] does.
    pub fn new(program: &Program) -> Self {
        Self { text: program.text.clone(), arch: ArchState::load(program) }
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
        let cycle = self.arch.stats.cycles;
        let fault = |kind| CpuError { cycle, kind };
        let Some(&inst) = self.text.get(self.arch.pc as usize) else {
            return Err(fault(CpuErrorKind::PcOutOfRange { pc: self.arch.pc }));
        };
        let mut act = CycleActivity::idle(cycle);
        act.fetch_pc = Some(self.arch.pc);
        act.inst_word = BusSample::new(encode(&inst), inst.secure);

        // Operand read with per-port gating, as in the pipeline's ID/EX.
        let (use_rs, use_rt) = inst.sources();
        let a = use_rs.map_or(0, |r| self.arch.regs.read(r));
        let b = use_rt.map_or(0, |r| self.arch.regs.read(r));
        act.regfile_reads = read_ports(use_rs, use_rt);
        act.id_ex_a = BusSample::new(a, inst.secure);
        act.id_ex_b = BusSample::new(b, inst.secure);

        // One ALU semantics for both backends.
        let imm = inst.imm;
        let (alu_a, alu_b) = alu_inputs(&inst, a, b, imm);
        let alu =
            alu_exec(inst.op, alu_a, alu_b).ok_or_else(|| fault(CpuErrorKind::DivideByZero))?;

        let mut next_pc = self.arch.pc + 1;
        match inst.class() {
            OpClass::Branch if branch_taken(inst.op, a, b) => {
                next_pc = (i64::from(self.arch.pc) + 1 + i64::from(imm)) as u32;
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
            Op::Jal | Op::Jalr => self.arch.pc + 1,
            _ => alu,
        };
        act.ex = Some(ExActivity {
            pc: self.arch.pc,
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
                let v = self.arch.mem.load(alu).map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                act.mem =
                    Some(MemActivity { is_store: false, addr: alu, data: v, secure: inst.secure });
                act.mem_bus = BusSample::new(v, inst.secure);
                self.arch.stats.loads += 1;
                v
            }
            OpClass::Store => {
                self.arch.mem.store(alu, b).map_err(|e| fault(CpuErrorKind::Memory(e)))?;
                act.mem =
                    Some(MemActivity { is_store: true, addr: alu, data: b, secure: inst.secure });
                act.mem_bus = BusSample::new(b, inst.secure);
                self.arch.stats.stores += 1;
                alu
            }
            _ => result,
        };
        act.mem_wb_value = BusSample::new(value, inst.secure);

        // Write-back / retirement.
        if let Some(d) = inst.dest() {
            self.arch.regs.write(d, value);
            act.regfile_write = true;
        }
        act.retired = Some(inst);
        self.arch.stats.retired += 1;
        if inst.secure {
            self.arch.stats.retired_secure += 1;
        }
        if inst.class() == OpClass::Halt {
            self.arch.halted = true;
        }
        self.arch.pc = next_pc;
        self.arch.stats.cycles += 1;
        Ok(act)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::hook::{NullHook, PipelineHook};
    use crate::pipeline::Cpu;
    use crate::CpuBackend;
    use emask_isa::{assemble, Reg, DATA_BASE};
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
        assert_eq!(count.0, b.cycles());
        assert_eq!(a.registers(), b.registers());
        assert_eq!(a.cycles(), b.cycles());
    }
}
