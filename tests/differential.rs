//! Differential testing: the pipelined core against the reference
//! interpreter on randomly generated Tiny-C programs, and on the real DES
//! program. Any divergence is a pipeline bug.

use emask::cc::{compile, CompileOptions, MaskPolicy};
use emask::core::{des_source, DesProgramSpec};
use emask::cpu::{Cpu, CpuBackend, Interpreter};
use emask::isa::Reg;
use emask::isa::DATA_BASE;
use proptest::prelude::*;
use std::ops::ControlFlow;

fn run_both(program: &emask::isa::Program) -> (Cpu, Interpreter) {
    let mut cpu = Cpu::new(program);
    let mut iss = Interpreter::new(program);
    cpu.run(20_000_000).expect("pipeline");
    iss.run(20_000_000).expect("iss");
    (cpu, iss)
}

fn assert_agreement(program: &emask::isa::Program, words: usize) {
    let (cpu, iss) = run_both(program);
    for r in Reg::ALL {
        assert_eq!(cpu.reg(r), iss.reg(r), "register {r} diverged");
    }
    assert_eq!(
        cpu.memory().read_words(DATA_BASE, words),
        iss.memory().read_words(DATA_BASE, words),
        "data memory diverged"
    );
}

#[test]
fn des_program_agrees_between_pipeline_and_iss() {
    let src = des_source(&DesProgramSpec { rounds: 2 });
    let out = compile(&src, CompileOptions::paper_style(MaskPolicy::Selective)).expect("compile");
    assert_agreement(&out.program, 512);
}

/// Running under the fault hook with nothing injected — and with the
/// dual-rail checker armed — must be indistinguishable from the plain
/// pipeline: same statistics, same architectural state, no violations.
#[test]
fn hooked_run_with_armed_checker_is_transparent() {
    let src = des_source(&DesProgramSpec { rounds: 1 });
    let out = compile(&src, CompileOptions::paper_style(MaskPolicy::Selective)).expect("compile");
    let mut plain = Cpu::new(&out.program);
    let plain_stats = plain.run(20_000_000).expect("plain run");
    let mut hooked = Cpu::new(&out.program);
    let mut hook = (emask::cpu::NullHook, emask::fault::DualRailChecker::new());
    let hooked_stats =
        hooked.run_with(20_000_000, &mut hook, |_| ControlFlow::Continue(())).expect("hooked run");
    assert_eq!(plain_stats, hooked_stats, "run statistics diverged");
    for r in Reg::ALL {
        assert_eq!(plain.reg(r), hooked.reg(r), "register {r} diverged");
    }
    assert_eq!(
        plain.memory().read_words(DATA_BASE, 512),
        hooked.memory().read_words(DATA_BASE, 512),
        "data memory diverged"
    );
    let checker = hook.1;
    assert_eq!(checker.cycles_checked(), hooked_stats.cycles);
    assert!(checker.samples_checked() > 0, "a masked DES run must expose secure samples");
}

// The random Tiny-C program family lives in `emask-conformance` now,
// shared with the three-way differential and conformance suites.
use emask_conformance::random_program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_programs_agree(
        seed in proptest::collection::vec(0u32..10_000, 2..6),
        ops in proptest::collection::vec(any::<u8>(), 1..5),
        bound in 1u32..4,
    ) {
        let src = random_program(&seed, &ops, bound);
        for opts in [
            CompileOptions::with_policy(MaskPolicy::None),
            CompileOptions::paper_style(MaskPolicy::Selective),
        ] {
            let out = compile(&src, opts).expect("compile");
            let (cpu, iss) = run_both(&out.program);
            for r in Reg::ALL {
                prop_assert_eq!(cpu.reg(r), iss.reg(r), "register {} diverged\n{}", r, src);
            }
            prop_assert_eq!(
                cpu.memory().read_words(DATA_BASE, seed.len()),
                iss.memory().read_words(DATA_BASE, seed.len())
            );
        }
    }

    #[test]
    fn pipeline_retires_exactly_what_the_iss_executes(
        seed in proptest::collection::vec(0u32..100, 2..5),
        bound in 1u32..4,
    ) {
        let src = random_program(&seed, &[0, 1], bound);
        let out = compile(&src, CompileOptions::with_policy(MaskPolicy::None)).expect("compile");
        let mut cpu = Cpu::new(&out.program);
        let stats = cpu.run(20_000_000).expect("pipeline");
        let mut iss = Interpreter::new(&out.program);
        let executed = iss.run(20_000_000).expect("iss").retired;
        prop_assert_eq!(stats.retired, executed);
        // A pipelined in-order core can never beat 1 IPC and the fill/
        // drain plus hazards cost at least 4 cycles.
        prop_assert!(stats.cycles >= executed + 4);
    }
}
