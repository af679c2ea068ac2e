//! Differential fuzzing of the pipeline against the reference
//! interpreter with randomly generated straight-line programs — dense in
//! back-to-back dependencies, load-use pairs, and stores, i.e. exactly the
//! forwarding/interlock corner cases.

use emask_cpu::{Cpu, CpuBackend, Interpreter};
use emask_isa::program::DATA_BASE;
use emask_isa::{Instruction, Op, Program, Reg};
use proptest::prelude::*;

/// The registers random programs operate on (no specials).
const POOL: [Reg; 6] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::S0, Reg::S1];

/// A step of a random program, kept abstract so proptest can shrink it.
#[derive(Debug, Clone)]
enum Step {
    /// `rd = op(rs, rt)` over the pool.
    Alu { op_idx: u8, rd: u8, rs: u8, rt: u8 },
    /// `rd = imm`.
    Li { rd: u8, imm: i16 },
    /// `rd = sll/srl/sra(rt, shamt)`.
    Shift { op_idx: u8, rd: u8, rt: u8, shamt: u8 },
    /// `rd = mem[buf + 4*slot]` — guaranteed in range.
    Load { rd: u8, slot: u8 },
    /// `mem[buf + 4*slot] = rt`.
    Store { rt: u8, slot: u8 },
    /// Make some instructions secure to exercise that path too.
    SecureXor { rd: u8, rs: u8, rt: u8 },
}

fn reg(i: u8) -> Reg {
    POOL[i as usize % POOL.len()]
}

fn build(steps: &[Step]) -> Program {
    let alu_ops = [Op::Addu, Op::Subu, Op::And, Op::Or, Op::Xor, Op::Nor, Op::Slt, Op::Mul];
    let shift_ops = [Op::Sll, Op::Srl, Op::Sra];
    let mut text = Vec::with_capacity(steps.len() + 3);
    // $gp = DATA_BASE points at a 64-word scratch buffer (zero-initialized
    // data segment).
    for s in steps {
        let inst = match *s {
            Step::Alu { op_idx, rd, rs, rt } => {
                Instruction::r(alu_ops[op_idx as usize % alu_ops.len()], reg(rd), reg(rs), reg(rt))
            }
            Step::Li { rd, imm } => Instruction::i(Op::Addiu, reg(rd), Reg::Zero, i32::from(imm)),
            Step::Shift { op_idx, rd, rt, shamt } => Instruction::shift(
                shift_ops[op_idx as usize % shift_ops.len()],
                reg(rd),
                reg(rt),
                u32::from(shamt % 32),
            ),
            Step::Load { rd, slot } => Instruction::lw(reg(rd), 4 * i32::from(slot % 64), Reg::Gp),
            Step::Store { rt, slot } => Instruction::sw(reg(rt), 4 * i32::from(slot % 64), Reg::Gp),
            Step::SecureXor { rd, rs, rt } => {
                Instruction::r(Op::Xor, reg(rd), reg(rs), reg(rt)).into_secure()
            }
        };
        text.push(inst);
    }
    text.push(Instruction::halt());
    Program { text, data: vec![0; 64], symbols: Default::default() }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op_idx, rd, rs, rt)| Step::Alu { op_idx, rd, rs, rt }),
        (any::<u8>(), any::<i16>()).prop_map(|(rd, imm)| Step::Li { rd, imm }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op_idx, rd, rt, shamt)| Step::Shift { op_idx, rd, rt, shamt }),
        (any::<u8>(), any::<u8>()).prop_map(|(rd, slot)| Step::Load { rd, slot }),
        (any::<u8>(), any::<u8>()).prop_map(|(rt, slot)| Step::Store { rt, slot }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rd, rs, rt)| Step::SecureXor {
            rd,
            rs,
            rt
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pipeline_agrees_with_iss_on_random_programs(
        steps in proptest::collection::vec(step_strategy(), 1..60)
    ) {
        let program = build(&steps);
        let mut cpu = Cpu::new(&program);
        let mut iss = Interpreter::new(&program);
        let stats = cpu.run(100_000).expect("pipeline");
        let executed = iss.run(100_000).expect("iss").retired;
        prop_assert_eq!(stats.retired, executed);
        for r in Reg::ALL {
            prop_assert_eq!(cpu.reg(r), iss.reg(r), "register {} diverged", r);
        }
        prop_assert_eq!(
            cpu.memory().read_words(DATA_BASE, 64),
            iss.memory().read_words(DATA_BASE, 64)
        );
    }

    #[test]
    fn pipeline_stats_are_internally_consistent(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let program = build(&steps);
        let mut cpu = Cpu::new(&program);
        let stats = cpu.run(100_000).expect("pipeline");
        // Single-issue in-order: at most one retirement per cycle, and the
        // last instruction needs the 4-cycle fill to reach write-back.
        prop_assert!(stats.cycles >= stats.retired + 4);
        // Straight-line programs never flush.
        prop_assert_eq!(stats.flushed, 0);
        // Every stall costs exactly one cycle of retirement opportunity.
        prop_assert!(stats.stalls <= stats.cycles);
        prop_assert_eq!(
            stats.loads + stats.stores,
            program
                .text
                .iter()
                .filter(|i| i.is_load() || i.is_store())
                .count() as u64
        );
    }
}
