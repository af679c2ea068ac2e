//! The dual-rail integrity checker.

use emask_cpu::{Bus, BusSample, CpuErrorKind, CycleActivity, PipelineHook};

/// A [`PipelineHook`] asserting, every cycle, that each **active,
/// secure-tagged** bus/latch sample carries a well-formed complement rail
/// (`complement == !value`). The first violation aborts the run with
/// [`CpuErrorKind::DualRailViolation`] naming the bus and the bits on
/// which the rails agreed.
///
/// This is the simulator's stand-in for the self-checking property of
/// dual-rail logic: a single-rail upset on a protected path cannot be
/// mistaken for valid data, because the rails no longer encode a legal
/// codeword. Faults that flip *both* rails consistently — or hit
/// non-secure, single-rail state — are architectural and pass the check
/// by design; the campaign harness classifies those by their effect on
/// the ciphertext instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualRailChecker {
    cycles_checked: u64,
    samples_checked: u64,
}

impl DualRailChecker {
    /// A fresh checker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cycles examined so far.
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }

    /// Active secure samples examined so far.
    pub fn samples_checked(&self) -> u64 {
        self.samples_checked
    }

    /// The sample carried on each checkable bus this cycle.
    fn samples(act: &CycleActivity) -> [(Bus, BusSample); 6] {
        [
            (Bus::Instruction, act.inst_word),
            (Bus::OperandA, act.id_ex_a),
            (Bus::OperandB, act.id_ex_b),
            (Bus::Result, act.ex_mem_result),
            (Bus::Memory, act.mem_bus),
            (Bus::Writeback, act.mem_wb_value),
        ]
    }
}

impl PipelineHook for DualRailChecker {
    fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
        self.cycles_checked += 1;
        for (bus, sample) in Self::samples(act) {
            if sample.active && sample.secure {
                self.samples_checked += 1;
                let agreeing = sample.rail_agreement();
                if agreeing != 0 {
                    return Err(CpuErrorKind::DualRailViolation { bus, agreeing });
                }
            }
        }
        Ok(())
    }

    /// Always: the checker never changes the core, and the ill-formed
    /// pairs it vetoes exist only in a cycle where a single-rail fault
    /// was injected — by another hook, whose own inertness rules that
    /// out. Its counters do keep counting while a run goes on, so they
    /// stop wherever a runner stops an inert run early.
    fn is_inert(&self, _cycle: u64) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger};
    use crate::FaultInjector;
    use emask_cpu::{Cpu, CpuBackend, FaultLane, RailMode};
    use emask_isa::assemble;
    use std::ops::ControlFlow;

    /// A secure load + secure xor: plenty of secure-tagged samples.
    fn secure_program() -> emask_isa::Program {
        assemble(
            ".data\nv: .word 9\n.text\n la $t0, v\n slw $t1, 0($t0)\n nop\n nop\n sxor $t2, $t1, $t1\n halt\n",
        )
        .expect("asm")
    }

    #[test]
    fn clean_secure_run_passes_and_counts_samples() {
        let p = secure_program();
        let mut checker = DualRailChecker::new();
        Cpu::new(&p)
            .run_with(10_000, &mut checker, |_| ControlFlow::Continue(()))
            .expect("clean run");
        assert!(checker.cycles_checked() > 0);
        assert!(checker.samples_checked() > 0, "secure samples must be reached");
    }

    #[test]
    fn single_rail_upset_on_secure_lane_is_detected() {
        let p = secure_program();
        let plan = FaultPlan::single(FaultSpec {
            // Strike while the (secure) slw occupies ID/EX — the only
            // Load-class instruction in the program.
            trigger: FaultTrigger::OnOpClass { class: emask_isa::OpClass::Load, skip: 0 },
            target: FaultTarget::Lane(FaultLane::IdExB, RailMode::TrueOnly),
            model: FaultModel::BitFlip { bit: 4 },
        });
        let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
        let err = Cpu::new(&p)
            .run_with(10_000, &mut hook, |_| ControlFlow::Continue(()))
            .expect_err("must be detected");
        // The checker flags the very cycle the skewed sample is driven, so
        // the run ends in a DualRailViolation, never silent corruption.
        assert!(
            matches!(err.kind, CpuErrorKind::DualRailViolation { agreeing, .. } if agreeing == 1 << 4),
            "got {:?}",
            err.kind
        );
    }

    #[test]
    fn complement_only_upset_is_detected_without_value_change() {
        let p = secure_program();
        let plan = FaultPlan::single(FaultSpec {
            // The only AluReg-class instruction is the secure sxor.
            trigger: FaultTrigger::OnOpClass { class: emask_isa::OpClass::AluReg, skip: 0 },
            target: FaultTarget::Lane(FaultLane::IdExA, RailMode::ComplementOnly),
            model: FaultModel::BitFlip { bit: 7 },
        });
        let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
        let err = Cpu::new(&p)
            .run_with(10_000, &mut hook, |_| ControlFlow::Continue(()))
            .expect_err("must be detected");
        assert!(matches!(err.kind, CpuErrorKind::DualRailViolation { .. }));
    }

    #[test]
    fn both_rail_fault_passes_the_rail_check() {
        // A consistent both-rail flip is architecturally visible but
        // rail-legal: the checker must NOT fire.
        let p = secure_program();
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::OnOpClass { class: emask_isa::OpClass::Load, skip: 0 },
            target: FaultTarget::Lane(FaultLane::IdExB, RailMode::Both),
            model: FaultModel::BitFlip { bit: 4 },
        });
        let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
        Cpu::new(&p)
            .run_with(10_000, &mut hook, |_| ControlFlow::Continue(()))
            .expect("rail-legal run");
        assert!(hook.0.any_injected());
    }
}
