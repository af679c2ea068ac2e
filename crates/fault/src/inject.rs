//! The [`FaultInjector`]: a [`PipelineHook`] that executes a [`FaultPlan`]
//! against a live core.

use crate::plan::{FaultModel, FaultPlan, FaultTarget, FaultTrigger};
use emask_cpu::{FaultLane, HookCtx, PipelineHook};

/// Per-fault bookkeeping across the run.
#[derive(Debug, Clone, Copy, Default)]
struct FaultState {
    /// A one-shot model (bit-flip, glitch trigger) has gone off.
    fired: bool,
    /// Remaining glitch cycles.
    glitch_left: u32,
    /// Matching op-class occurrences seen so far (for `OnOpClass::skip`).
    class_seen: u64,
}

/// Executes a [`FaultPlan`] as a pipeline hook.
///
/// Each cycle, every planned fault whose trigger is active computes a
/// disturbance mask from its [`FaultModel`] and applies it to its
/// [`FaultTarget`] through the [`HookCtx`]. One-shot models (bit-flips,
/// glitch triggers) re-arm if the strike could not land (e.g. the targeted
/// latch held a bubble), so window- and retirement-triggered transients
/// keep trying until they hit something real; a strike that lands is
/// counted (see [`FaultInjector::any_injected`]).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Vec<FaultState>,
    /// Strikes that landed.
    strikes: u64,
}

impl FaultInjector {
    /// An injector for `plan`, armed and unfired.
    pub fn new(plan: FaultPlan) -> Self {
        let state = vec![FaultState::default(); plan.len()];
        Self { plan, state, strikes: 0 }
    }

    /// How many strikes landed.
    #[cfg(test)]
    pub(crate) fn strikes(&self) -> u64 {
        self.strikes
    }

    /// True if at least one strike landed.
    pub fn any_injected(&self) -> bool {
        self.strikes > 0
    }

    /// Whether `trigger` is active this cycle.
    fn trigger_active(ctx: &HookCtx<'_>, trigger: FaultTrigger, st: &mut FaultState) -> bool {
        match trigger {
            FaultTrigger::AtCycle(c) => ctx.cycle() == c,
            FaultTrigger::CycleWindow { start, end } => (start..end).contains(&ctx.cycle()),
            FaultTrigger::AtRetired(n) => ctx.retired() >= n,
            FaultTrigger::OnOpClass { class, skip } => {
                // "Occurrence" = a valid ID/EX occupancy of the class; the
                // core is single-issue, so each occupancy is one cycle.
                match ctx.lane(FaultLane::IdExA) {
                    Some(view) if view.class == class => {
                        let occurrence = st.class_seen;
                        st.class_seen += 1;
                        occurrence >= skip
                    }
                    _ => false,
                }
            }
        }
    }

    /// The value currently held by `target`, for stuck-at evaluation.
    /// `FetchSquash` reads as 0 so stuck-at-1 means "squash every active
    /// cycle".
    fn current_value(ctx: &HookCtx<'_>, target: FaultTarget) -> Option<u32> {
        match target {
            FaultTarget::Lane(lane, _) => ctx.lane(lane).map(|v| v.value),
            FaultTarget::Register(n) => Some(ctx.reg(n)),
            FaultTarget::Memory { addr } => ctx.mem_word(addr).ok(),
            FaultTarget::FetchSquash => Some(0),
        }
    }

    /// Applies `mask` to `target`; true if the strike landed.
    fn apply(ctx: &mut HookCtx<'_>, target: FaultTarget, mask: u32) -> bool {
        match target {
            FaultTarget::Lane(lane, rail) => ctx.flip_lane(lane, mask, rail),
            FaultTarget::Register(n) => {
                ctx.flip_reg(n, mask);
                true
            }
            FaultTarget::Memory { addr } => ctx.flip_mem(addr, mask).is_ok(),
            FaultTarget::FetchSquash => ctx.squash_if_id(),
        }
    }
}

impl PipelineHook for FaultInjector {
    fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
        for (i, spec) in self.plan.faults().iter().enumerate() {
            let st = &mut self.state[i];
            let active = Self::trigger_active(ctx, spec.trigger, st);
            let mask = match spec.model {
                FaultModel::BitFlip { bit } => {
                    if active && !st.fired {
                        st.fired = true;
                        Some(1u32 << (bit & 31))
                    } else {
                        None
                    }
                }
                FaultModel::StuckAt { bit, stuck_one } => {
                    if active {
                        Self::current_value(ctx, spec.target).and_then(|v| {
                            let bitmask = 1u32 << (bit & 31);
                            let is_one = v & bitmask != 0;
                            (is_one != stuck_one).then_some(bitmask)
                        })
                    } else {
                        None
                    }
                }
                FaultModel::Glitch { mask, cycles } => {
                    if active && !st.fired {
                        st.fired = true;
                        st.glitch_left = cycles;
                    }
                    if st.glitch_left > 0 {
                        st.glitch_left -= 1;
                        Some(mask)
                    } else {
                        None
                    }
                }
            };
            let Some(mask) = mask else { continue };
            if mask == 0 {
                continue;
            }
            if Self::apply(ctx, spec.target, mask) {
                self.strikes += 1;
            } else if matches!(spec.model, FaultModel::BitFlip { .. }) {
                // The transient hit nothing (bubble / bad address): re-arm
                // so a window or retirement trigger can try again.
                st.fired = false;
            }
        }
    }

    /// Every planned fault is spent: its trigger window closed before
    /// `cycle` (an `AtCycle` or `CycleWindow` fault, stuck-ats included),
    /// or its one-shot model already went off — a landed bit-flip, or a
    /// glitch with no glitch cycles left. An active stuck-at is never
    /// inert, nor is an unfired transient on a retirement or op-class
    /// trigger, which can still come true.
    fn is_inert(&self, cycle: u64) -> bool {
        self.plan.faults().iter().zip(&self.state).all(|(spec, st)| {
            let closed = match spec.trigger {
                FaultTrigger::AtCycle(c) => c < cycle,
                FaultTrigger::CycleWindow { end, .. } => end <= cycle,
                FaultTrigger::AtRetired(_) | FaultTrigger::OnOpClass { .. } => false,
            };
            match spec.model {
                FaultModel::BitFlip { .. } => closed || st.fired,
                FaultModel::StuckAt { .. } => closed,
                FaultModel::Glitch { .. } => (closed || st.fired) && st.glitch_left == 0,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, FaultSpec};
    use emask_cpu::{Cpu, CpuBackend, CpuError, RailMode, RunResult};
    use emask_isa::{assemble, OpClass, Program, Reg};
    use std::ops::ControlFlow;

    fn program() -> emask_isa::Program {
        assemble(".text\n li $t0, 6\n li $t1, 7\n nop\n nop\n nop\n addu $t2, $t0, $t1\n halt\n")
            .expect("asm")
    }

    fn run_with_plan(plan: FaultPlan) -> (Cpu, FaultInjector) {
        let p = program();
        let mut cpu = Cpu::new(&p);
        let mut inj = FaultInjector::new(plan);
        cpu.run_with(10_000, &mut inj, |_| ControlFlow::Continue(())).expect("run");
        (cpu, inj)
    }

    /// Runs `program` on backend `B` with `plan` injected, returning the
    /// final machine, the spent injector and the run outcome.
    fn run_plan_on<B: CpuBackend>(
        program: &Program,
        plan: FaultPlan,
        max_cycles: u64,
    ) -> (B, FaultInjector, Result<RunResult, CpuError>) {
        let mut cpu = B::load(program);
        let mut inj = FaultInjector::new(plan);
        let outcome = cpu.run_with(max_cycles, &mut inj, |_| ControlFlow::Continue(()));
        (cpu, inj, outcome)
    }

    #[test]
    fn register_bit_flip_lands_once_and_propagates() {
        // Flip bit 0 of $t0 after both li's have retired: 6^1=7, 7+7=14.
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::AtRetired(2),
            target: FaultTarget::Register(8), // $t0
            model: FaultModel::BitFlip { bit: 0 },
        });
        let (cpu, inj) = run_with_plan(plan);
        assert_eq!(inj.strikes(), 1);
        assert_eq!(cpu.reg(Reg::T2), 14);
    }

    #[test]
    fn stuck_at_keeps_forcing_the_bit() {
        // $t1 stuck-at-0 on bit 0 for the whole run: 7 -> 6, sum = 12.
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::CycleWindow { start: 0, end: u64::MAX },
            target: FaultTarget::Register(9), // $t1
            model: FaultModel::StuckAt { bit: 0, stuck_one: false },
        });
        let (cpu, inj) = run_with_plan(plan);
        // The li rewrites the bit, the defect re-clears it next cycle.
        assert!(inj.strikes() > 0);
        assert_eq!(cpu.reg(Reg::T2), 12);
    }

    #[test]
    fn glitch_persists_for_its_duration() {
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::AtCycle(1),
            target: FaultTarget::Register(10),
            model: FaultModel::Glitch { mask: 0b11, cycles: 3 },
        });
        // Records the cycles at which the injector's strike count rises.
        struct StrikeCycles(FaultInjector, Vec<u64>);
        impl PipelineHook for StrikeCycles {
            fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
                let before = self.0.strikes();
                self.0.before_cycle(ctx);
                if self.0.strikes() > before {
                    self.1.push(ctx.cycle());
                }
            }
        }
        let mut hook = StrikeCycles(FaultInjector::new(plan), Vec::new());
        let mut cpu = Cpu::new(&program());
        cpu.run_with(10_000, &mut hook, |_| ControlFlow::Continue(())).expect("run");
        assert_eq!(hook.1, vec![1, 2, 3]);
    }

    #[test]
    fn op_class_trigger_strikes_the_alu_op() {
        // Strike operand lane A while an AluReg instruction (the addu) is
        // in ID/EX: the architectural sum changes.
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::OnOpClass { class: OpClass::AluReg, skip: 0 },
            target: FaultTarget::Lane(FaultLane::IdExA, RailMode::Both),
            model: FaultModel::BitFlip { bit: 0 },
        });
        let (cpu, inj) = run_with_plan(plan);
        assert!(inj.any_injected());
        assert_eq!(cpu.reg(Reg::T2), 14);
    }

    #[test]
    fn memory_fault_on_bad_address_is_silently_skipped() {
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::AtCycle(0),
            target: FaultTarget::Memory { addr: 0xFFFF_0001 },
            model: FaultModel::StuckAt { bit: 3, stuck_one: true },
        });
        let (cpu, inj) = run_with_plan(plan);
        assert!(!inj.any_injected());
        assert_eq!(cpu.reg(Reg::T2), 13);
    }

    #[test]
    fn transient_on_a_bubble_rearms_until_it_lands() {
        // AtRetired(1) becomes active during a stretch where ID/EX may
        // hold bubbles; the flip must still land exactly once.
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::AtRetired(1),
            target: FaultTarget::Lane(FaultLane::IdExB, RailMode::Both),
            model: FaultModel::BitFlip { bit: 2 },
        });
        let (_, inj) = run_with_plan(plan);
        assert_eq!(inj.strikes(), 1);
    }

    #[test]
    fn empty_plan_is_inert() {
        let (cpu, inj) = run_with_plan(FaultPlan::new());
        assert!(!inj.any_injected());
        assert_eq!(cpu.reg(Reg::T2), 13);
    }

    #[test]
    fn architectural_faults_replay_identically_on_every_backend() {
        // A register strike is architectural: both backends corrupt the
        // same downstream sum. (Lane strikes are microarchitectural and
        // deliberately excluded from this cross-backend contract.)
        fn strike<B: emask_cpu::CpuBackend>() -> u32 {
            let plan = FaultPlan::single(FaultSpec {
                trigger: FaultTrigger::AtRetired(2),
                target: FaultTarget::Register(8),
                model: FaultModel::BitFlip { bit: 0 },
            });
            let (cpu, inj, outcome) = run_plan_on::<B>(&program(), plan, 10_000);
            outcome.expect("run");
            assert_eq!(inj.strikes(), 1, "{}", B::NAME);
            cpu.reg(Reg::T2)
        }
        assert_eq!(strike::<Cpu>(), 14);
        assert_eq!(strike::<emask_cpu::Interpreter>(), 14);
    }

    #[test]
    fn lane_strikes_degrade_to_no_ops_on_the_interpreter() {
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::CycleWindow { start: 0, end: u64::MAX },
            target: FaultTarget::Lane(FaultLane::IdExA, RailMode::Both),
            model: FaultModel::StuckAt { bit: 0, stuck_one: true },
        });
        let (cpu, inj, outcome) = run_plan_on::<emask_cpu::Interpreter>(&program(), plan, 10_000);
        outcome.expect("run");
        assert!(!inj.any_injected(), "no latch lanes to strike");
        assert_eq!(cpu.reg(Reg::T2), 13, "architectural result untouched");
    }

    #[test]
    fn inert_once_the_trigger_closes_or_the_transient_is_spent() {
        use FaultTrigger::{AtCycle, AtRetired, CycleWindow};
        /// The first cycle boundary at which the injector (paired with
        /// the always-inert checker) is inert; it must stay inert after.
        fn first_inert(model: FaultModel, trigger: FaultTrigger) -> Option<u64> {
            let spec = FaultSpec { trigger, target: FaultTarget::Register(10), model };
            let mut hook =
                (FaultInjector::new(FaultPlan::single(spec)), crate::DualRailChecker::new());
            let mut cpu = Cpu::new(&program());
            let mut first = hook.is_inert(0).then_some(0);
            while !cpu.is_halted() {
                cpu.step(&mut hook).expect("step");
                let inert = hook.is_inert(cpu.cycles());
                assert!(inert || first.is_none(), "{model:?} on {trigger:?} woke up again");
                first = first.or(inert.then_some(cpu.cycles()));
            }
            first
        }
        let flip = FaultModel::BitFlip { bit: 0 };
        let stuck = FaultModel::StuckAt { bit: 0, stuck_one: true };
        let glitch = FaultModel::Glitch { mask: 1, cycles: 3 };
        // A point strike is spent once its cycle has passed, stuck-at
        // included; a glitch also has to use up its cycles (2, 3, 4).
        assert_eq!(first_inert(flip, AtCycle(2)), Some(3));
        assert_eq!(first_inert(stuck, AtCycle(2)), Some(3));
        assert_eq!(first_inert(glitch, AtCycle(2)), Some(5));
        // A window closes at its end, even over an active stuck-at.
        assert_eq!(first_inert(stuck, CycleWindow { start: 1, end: 4 }), Some(4));
        // A retirement trigger never closes: a flip is spent once it
        // lands, a stuck-at stays live to the end.
        assert!(first_inert(flip, AtRetired(2)).is_some_and(|c| c > 0));
        assert_eq!(first_inert(stuck, AtRetired(2)), None);
        assert!(crate::DualRailChecker::new().is_inert(0));
    }
}
