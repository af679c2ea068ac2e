//! The multi-backend CPU abstraction.
//!
//! The whole contract is documented on [`CpuBackend`].

use crate::activity::CycleActivity;
use crate::checkpoint::CpuCheckpoint;
use crate::hook::{HookCtx, NullHook, PipelineHook, RailSkew};
use crate::interp::{InterpCheckpoint, Interpreter};
use crate::memory::DataMemory;
use crate::pipeline::{Cpu, CpuError, CpuErrorKind, RunResult};
use emask_isa::{Program, Reg};
use std::ops::ControlFlow;

/// A restorable snapshot of one backend's full execution state, with
/// incremental (dirty-page) memory tracking. Every [`CpuBackend`]
/// provides one.
pub trait BackendCheckpoint {
    /// The backend clock at the checkpoint boundary — the length an energy
    /// trace must be truncated to on rollback.
    fn cycle(&self) -> u64;

    /// Instructions retired as of the checkpoint boundary.
    fn retired(&self) -> u64;

    /// Pages copied by the most recent refresh or restore.
    fn pages_moved(&self) -> usize;
}

/// A CPU execution engine the workspace runners can drive generically.
///
/// The trait surface is the union of what `emask-core`'s DES runner, the
/// `emask-fault` injection campaigns, and the differential test harnesses
/// need: program load, hooked stepping, a stoppable run loop with activity
/// streaming, architectural state access, and checkpointing.
///
/// A backend is any engine that executes an [`emask_isa::Program`]
/// and exposes the *architectural contract* the rest of the workspace
/// builds on: register/memory/PC state, retirement accounting, per-cycle
/// [`CycleActivity`] emission for the energy model, [`PipelineHook`]
/// attachment, and (where supported) checkpoint/rollback. The five-stage
/// pipelined [`Cpu`] and the reference [`Interpreter`] are sibling
/// implementations; future cores (bitsliced batch lanes, randomized issue)
/// plug in as one more `impl` plus one conformance-suite registration.
///
/// # Architectural contract vs per-backend microarchitecture
///
/// Two backends must agree on everything *architectural*: final register
/// and data-memory state, the retirement order of instructions, the error
/// taxonomy ([`CpuErrorKind`]), and the placement of memory traffic in the
/// retirement stream (which is what phase-marker detection keys on). They
/// are free to disagree on everything *microarchitectural*: cycle counts,
/// stall/flush statistics, which latch lanes exist for fault injection,
/// and the per-cycle energy figures derived from bus toggling. The generic
/// conformance suite in `emask-conformance` checks exactly this split.
///
/// # One loop
///
/// A backend implements one clock, [`CpuBackend::step`], and inherits the
/// one run loop, [`CpuBackend::run_with`]: step until `halt`, charge the
/// cycle budget before each step, and hand every activity record to a
/// callback that may stop the run early by returning
/// [`ControlFlow::Break`]. Full runs, windowed acquisition (stop at the
/// window's end marker) and hooked fault campaigns all go through it.
///
/// Dispatch is **static** throughout: `emask-core`'s runner is generic
/// over `B: CpuBackend`, the hook type and the callback, and each
/// backend's `step` routes [`NullHook`] runs to its bare clock at compile
/// time, so the unmasked-`encrypt` loop carries no hook machinery — the
/// trait costs nothing at runtime.
pub trait CpuBackend: Sized {
    /// Stable backend name, used in conformance reports and energy CSVs.
    const NAME: &'static str;

    /// The backend's checkpoint type.
    type Checkpoint: BackendCheckpoint;

    /// Loads `program` into a fresh backend with the standard memory map
    /// (`.data` at `DATA_BASE`, `$sp`/`$gp` initialized).
    fn load(program: &Program) -> Self;

    /// Current value of a register.
    fn reg(&self, r: Reg) -> u32;

    /// Sets a register before (or between) runs — harness argument passing.
    fn set_reg(&mut self, r: Reg, value: u32);

    /// A snapshot of all 32 registers.
    fn registers(&self) -> [u32; 32];

    /// Immutable view of data memory.
    fn memory(&self) -> &DataMemory;

    /// Mutable view of data memory (harness setup, e.g. poking inputs).
    fn memory_mut(&mut self) -> &mut DataMemory;

    /// The current program counter (text index).
    fn pc(&self) -> u32;

    /// True once `halt` has retired.
    fn is_halted(&self) -> bool;

    /// The backend clock: cycles for the pipeline, instructions executed
    /// for the interpreter. Only comparable *within* one backend.
    fn cycles(&self) -> u64;

    /// Statistics accumulated so far. `retired`, `loads` and `stores` are
    /// architectural and must agree across backends; `cycles`, `stalls`
    /// and `flushed` are microarchitectural.
    fn stats(&self) -> RunResult;

    /// Instructions retired so far (architectural).
    fn retired(&self) -> u64 {
        self.stats().retired
    }

    /// Advances the backend one clock with a hook intervening:
    /// `before_cycle`, the clock itself, then `after_cycle`, which may veto
    /// the cycle with a typed fault. Implementations route a hook with
    /// [`PipelineHook::IS_NULL`] straight to the bare clock.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on memory faults, division by zero, a runaway
    /// PC, or whatever the hook's `after_cycle` raises.
    fn step<H: PipelineHook>(&mut self, hook: &mut H) -> Result<CycleActivity, CpuError>;

    /// The run loop: [`CpuBackend::step`]s with `hook` until `halt` retires
    /// or `on_cycle` returns [`ControlFlow::Break`] for the record of the
    /// cycle just stepped. `max_cycles` budgets the backend clock
    /// ([`CpuBackend::cycles`]) and is checked before each step. Returns
    /// the statistics so far either way; [`CpuBackend::is_halted`] tells a
    /// finished run from a stopped one, and a stopped run resumes where it
    /// left off with another `run_with`.
    ///
    /// # Errors
    ///
    /// As for [`CpuBackend::step`], plus
    /// [`CpuErrorKind::CycleLimit`] on an exhausted budget.
    // Inlined so each caller's loop keeps the machine and the callback's
    // captures in its own frame; out of line, windowed acquisition ran a
    // few percent slower.
    #[inline]
    fn run_with<H: PipelineHook>(
        &mut self,
        max_cycles: u64,
        hook: &mut H,
        mut on_cycle: impl FnMut(&CycleActivity) -> ControlFlow<()>,
    ) -> Result<RunResult, CpuError> {
        while !self.is_halted() {
            if self.cycles() >= max_cycles {
                return Err(CpuError {
                    cycle: self.cycles(),
                    kind: CpuErrorKind::CycleLimit { limit: max_cycles },
                });
            }
            let act = self.step(hook)?;
            if on_cycle(&act).is_break() {
                break;
            }
        }
        Ok(self.stats())
    }

    /// Runs to completion with no hook, discarding activity records.
    ///
    /// # Errors
    ///
    /// As for [`CpuBackend::run_with`].
    fn run(&mut self, max_cycles: u64) -> Result<RunResult, CpuError> {
        self.run_with(max_cycles, &mut NullHook, |_| ControlFlow::Continue(()))
    }

    /// Snapshots the backend and starts dirty-page tracking.
    fn checkpoint(&mut self) -> Self::Checkpoint;

    /// Advances `cp` to the backend's current state (dirty pages only).
    fn checkpoint_refresh(&mut self, cp: &mut Self::Checkpoint);

    /// Rolls the backend back to `cp` (dirty pages only).
    fn checkpoint_restore(&mut self, cp: &mut Self::Checkpoint);
}

impl BackendCheckpoint for CpuCheckpoint {
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn retired(&self) -> u64 {
        self.retired()
    }
    fn pages_moved(&self) -> usize {
        self.pages_moved()
    }
}

impl CpuBackend for Cpu {
    const NAME: &'static str = "pipeline5";
    type Checkpoint = CpuCheckpoint;

    fn load(program: &Program) -> Self {
        Cpu::new(program)
    }
    fn reg(&self, r: Reg) -> u32 {
        Cpu::reg(self, r)
    }
    fn set_reg(&mut self, r: Reg, value: u32) {
        Cpu::set_reg(self, r, value);
    }
    fn registers(&self) -> [u32; 32] {
        Cpu::registers(self)
    }
    fn memory(&self) -> &DataMemory {
        Cpu::memory(self)
    }
    fn memory_mut(&mut self) -> &mut DataMemory {
        Cpu::memory_mut(self)
    }
    fn pc(&self) -> u32 {
        self.pc
    }
    fn is_halted(&self) -> bool {
        Cpu::is_halted(self)
    }
    fn cycles(&self) -> u64 {
        Cpu::cycles(self)
    }
    fn stats(&self) -> RunResult {
        Cpu::stats(self)
    }
    fn step<H: PipelineHook>(&mut self, hook: &mut H) -> Result<CycleActivity, CpuError> {
        // A null hook gets the bare clock: no context, no copy of the
        // activity record through the skew fold below.
        if H::IS_NULL {
            return self.clock();
        }
        hook.before_cycle(&mut HookCtx::for_cpu(self));
        let cycle = self.cycle;
        let mut act = self.clock()?;
        // Fold the single-rail skew a lane fault recorded this cycle into
        // the complement rails of the affected samples.
        if !self.rail_skew.is_clean() {
            act.id_ex_a.complement ^= self.rail_skew.id_ex_a;
            act.id_ex_b.complement ^= self.rail_skew.id_ex_b;
            act.mem_bus.complement ^= self.rail_skew.mem_bus;
            act.mem_wb_value.complement ^= self.rail_skew.mem_wb_value;
            self.rail_skew = RailSkew::default();
        }
        hook.after_cycle(&act).map_err(|kind| CpuError { cycle, kind })?;
        Ok(act)
    }
    fn checkpoint(&mut self) -> CpuCheckpoint {
        CpuCheckpoint::capture(self)
    }
    fn checkpoint_refresh(&mut self, cp: &mut CpuCheckpoint) {
        cp.refresh(self);
    }
    fn checkpoint_restore(&mut self, cp: &mut CpuCheckpoint) {
        cp.restore(self);
    }
}

impl BackendCheckpoint for InterpCheckpoint {
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn retired(&self) -> u64 {
        self.retired()
    }
    fn pages_moved(&self) -> usize {
        self.pages_moved()
    }
}

impl CpuBackend for Interpreter {
    const NAME: &'static str = "interp";
    type Checkpoint = InterpCheckpoint;

    fn load(program: &Program) -> Self {
        Interpreter::new(program)
    }
    fn reg(&self, r: Reg) -> u32 {
        Interpreter::reg(self, r)
    }
    fn set_reg(&mut self, r: Reg, value: u32) {
        Interpreter::set_reg(self, r, value);
    }
    fn registers(&self) -> [u32; 32] {
        Interpreter::registers(self)
    }
    fn memory(&self) -> &DataMemory {
        Interpreter::memory(self)
    }
    fn memory_mut(&mut self) -> &mut DataMemory {
        Interpreter::memory_mut(self)
    }
    fn pc(&self) -> u32 {
        Interpreter::pc(self)
    }
    fn is_halted(&self) -> bool {
        Interpreter::is_halted(self)
    }
    fn cycles(&self) -> u64 {
        self.executed()
    }
    fn stats(&self) -> RunResult {
        Interpreter::stats(self)
    }
    fn step<H: PipelineHook>(&mut self, hook: &mut H) -> Result<CycleActivity, CpuError> {
        if H::IS_NULL {
            return self.clock();
        }
        hook.before_cycle(&mut HookCtx::for_interp(self));
        let cycle = self.executed;
        let act = self.clock()?;
        hook.after_cycle(&act).map_err(|kind| CpuError { cycle, kind })?;
        Ok(act)
    }
    fn checkpoint(&mut self) -> InterpCheckpoint {
        InterpCheckpoint::capture(self)
    }
    fn checkpoint_refresh(&mut self, cp: &mut InterpCheckpoint) {
        cp.refresh(self);
    }
    fn checkpoint_restore(&mut self, cp: &mut InterpCheckpoint) {
        cp.restore(self);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_isa::assemble;

    fn program() -> Program {
        assemble(
            ".data\nbuf: .space 16\n.text\n la $t0, buf\n li $t1, 5\n li $t2, 0\n\
             loop: sw $t2, 0($t0)\n addiu $t2, $t2, 1\n bne $t2, $t1, loop\n\
             mul $t3, $t2, $t2\n halt\n",
        )
        .expect("asm")
    }

    fn run_generic<B: CpuBackend>() -> ([u32; 32], u64, RunResult) {
        let p = program();
        let mut b = B::load(&p);
        let stats = CpuBackend::run(&mut b, 1_000_000).expect("run");
        assert!(b.is_halted());
        (b.registers(), b.retired(), stats)
    }

    #[test]
    fn both_backends_agree_architecturally_via_the_trait() {
        let (regs_p, ret_p, stats_p) = run_generic::<Cpu>();
        let (regs_i, ret_i, stats_i) = run_generic::<Interpreter>();
        assert_eq!(regs_p, regs_i);
        assert_eq!(ret_p, ret_i);
        assert_eq!(stats_p.retired, stats_i.retired);
        assert_eq!(stats_p.loads, stats_i.loads);
        assert_eq!(stats_p.stores, stats_i.stores);
    }

    #[test]
    fn backend_names_are_distinct() {
        assert_ne!(<Cpu as CpuBackend>::NAME, <Interpreter as CpuBackend>::NAME);
    }

    #[test]
    fn generic_checkpoint_round_trip() {
        fn round_trip<B: CpuBackend>() {
            let p = program();
            let mut b = B::load(&p);
            for _ in 0..6 {
                b.step(&mut NullHook).expect("step");
            }
            let mut cp = b.checkpoint();
            assert_eq!(BackendCheckpoint::cycle(&cp), b.cycles());
            let regs_at_cp = b.registers();
            for _ in 0..6 {
                b.step(&mut NullHook).expect("step");
            }
            b.checkpoint_restore(&mut cp);
            assert_eq!(b.registers(), regs_at_cp);
            while !b.is_halted() {
                b.step(&mut NullHook).expect("step");
            }
            let mut fresh = B::load(&p);
            CpuBackend::run(&mut fresh, 1_000_000).expect("run");
            assert_eq!(b.registers(), fresh.registers());
            assert_eq!(b.memory(), fresh.memory());
        }
        round_trip::<Cpu>();
        round_trip::<Interpreter>();
    }
}
