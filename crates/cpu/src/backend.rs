//! The multi-backend CPU abstraction: the architectural state every
//! backend holds, and the trait the workspace drives backends through.
//!
//! The whole contract is documented on [`CpuBackend`].

use crate::activity::CycleActivity;
use crate::checkpoint::Checkpoint;
use crate::hook::{HookCtx, NullHook, PipelineHook, RailSkew};
use crate::interp::Interpreter;
use crate::memory::DataMemory;
use crate::pipeline::{Cpu, CpuError, CpuErrorKind, Pipeline, RunResult};
use crate::regfile::RegisterFile;
use emask_isa::{Program, Reg, DATA_BASE, MEM_SIZE, STACK_TOP};
use std::fmt::Debug;
use std::ops::ControlFlow;

/// The architectural state of a machine: registers, data memory, PC, the
/// halt flag and the run statistics, whose `cycles` is the machine's one
/// clock. Every [`CpuBackend`] holds one, and beside it only the program
/// text and its own [`CpuBackend::Pipeline`] state.
#[derive(Debug, Clone)]
pub struct ArchState {
    pub(crate) regs: RegisterFile,
    pub(crate) mem: DataMemory,
    pub(crate) pc: u32,
    pub(crate) halted: bool,
    pub(crate) stats: RunResult,
}

impl ArchState {
    /// The state at reset with `program` loaded: its `.data` image at
    /// [`DATA_BASE`] in a [`MEM_SIZE`]-byte RAM, `$sp` at [`STACK_TOP`],
    /// `$gp` at [`DATA_BASE`], PC 0 and a clock at 0.
    ///
    /// # Panics
    ///
    /// Panics if the data image does not fit in the RAM.
    pub(crate) fn load(program: &Program) -> Self {
        let mut mem = DataMemory::new(MEM_SIZE);
        mem.load_image(DATA_BASE, &program.data);
        let mut regs = RegisterFile::new();
        regs.write(Reg::Sp, STACK_TOP.min(mem.size() - 16));
        regs.write(Reg::Gp, DATA_BASE);
        Self { regs, mem, pc: 0, halted: false, stats: RunResult::default() }
    }
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
/// attachment, and checkpoint/rollback. The five-stage
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
/// # One architectural state
///
/// A backend holds the architectural half as one [`ArchState`]
/// ([`CpuBackend::arch`]) and everything else a clock cycle changes as its
/// [`CpuBackend::Pipeline`]. The register, memory, PC, clock and
/// statistics accessors, the [`HookCtx`](crate::HookCtx) operations on
/// them and the [`Checkpoint`] are written once, over those two, so a
/// backend implements only `load`, the four state accessors and `step`.
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

    /// The backend's own state beside its [`ArchState`], which a
    /// [`Checkpoint`] saves and restores with it: the pipeline's latches,
    /// fetch flag and rail skew, and `()` for the interpreter.
    type Pipeline: Clone + Debug;

    /// Loads `program` into a fresh backend with the standard memory map
    /// ([`ArchState`]'s reset).
    fn load(program: &Program) -> Self;

    /// The architectural state.
    fn arch(&self) -> &ArchState;

    /// The architectural state, mutably.
    fn arch_mut(&mut self) -> &mut ArchState;

    /// A copy of the backend's own state.
    fn pipeline(&self) -> Self::Pipeline;

    /// Replaces the backend's own state.
    fn set_pipeline(&mut self, pipeline: Self::Pipeline);

    /// Current value of a register.
    fn reg(&self, r: Reg) -> u32 {
        self.arch().regs.read(r)
    }

    /// Sets a register before (or between) runs — harness argument passing.
    fn set_reg(&mut self, r: Reg, value: u32) {
        self.arch_mut().regs.write(r, value);
    }

    /// A snapshot of all 32 registers.
    fn registers(&self) -> [u32; 32] {
        self.arch().regs.snapshot()
    }

    /// Immutable view of data memory.
    fn memory(&self) -> &DataMemory {
        &self.arch().mem
    }

    /// Mutable view of data memory (harness setup, e.g. poking inputs).
    fn memory_mut(&mut self) -> &mut DataMemory {
        &mut self.arch_mut().mem
    }

    /// The current program counter (text index).
    fn pc(&self) -> u32 {
        self.arch().pc
    }

    /// True once `halt` has retired.
    fn is_halted(&self) -> bool {
        self.arch().halted
    }

    /// The backend clock, `stats().cycles`: cycles for the pipeline,
    /// instructions executed for the interpreter. Only comparable
    /// *within* one backend.
    fn cycles(&self) -> u64 {
        self.arch().stats.cycles
    }

    /// Statistics accumulated so far. `retired`, `loads` and `stores` are
    /// architectural and must agree across backends; `cycles`, `stalls`
    /// and `flushed` are microarchitectural. On the interpreter, one
    /// instruction a step and no pipeline: `retired` equals `cycles`, and
    /// `stalls` and `flushed` stay zero.
    fn stats(&self) -> RunResult {
        self.arch().stats
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
    fn checkpoint(&mut self) -> Checkpoint<Self> {
        Checkpoint::capture(self)
    }

    /// Advances `cp` to the backend's current state (dirty pages only).
    fn checkpoint_refresh(&mut self, cp: &mut Checkpoint<Self>) {
        cp.refresh(self);
    }

    /// Rolls the backend back to `cp` (dirty pages only).
    fn checkpoint_restore(&mut self, cp: &mut Checkpoint<Self>) {
        cp.restore(self);
    }
}

impl CpuBackend for Cpu {
    const NAME: &'static str = "pipeline5";
    type Pipeline = Pipeline;

    fn load(program: &Program) -> Self {
        Cpu::new(program)
    }
    fn arch(&self) -> &ArchState {
        &self.arch
    }
    fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }
    fn pipeline(&self) -> Pipeline {
        self.pipe
    }
    fn set_pipeline(&mut self, pipeline: Pipeline) {
        self.pipe = pipeline;
    }
    fn step<H: PipelineHook>(&mut self, hook: &mut H) -> Result<CycleActivity, CpuError> {
        // A null hook gets the bare clock: no context, no copy of the
        // activity record through the skew fold below.
        if H::IS_NULL {
            return self.clock();
        }
        hook.before_cycle(&mut HookCtx { arch: &mut self.arch, pipe: Some(&mut self.pipe) });
        let cycle = self.cycles();
        let mut act = self.clock()?;
        // Fold the single-rail skew a lane fault recorded this cycle into
        // the complement rails of the affected samples.
        let skew = &mut self.pipe.rail_skew;
        if !skew.is_clean() {
            act.id_ex_a.complement ^= skew.id_ex_a;
            act.id_ex_b.complement ^= skew.id_ex_b;
            act.mem_bus.complement ^= skew.mem_bus;
            act.mem_wb_value.complement ^= skew.mem_wb_value;
            *skew = RailSkew::default();
        }
        hook.after_cycle(&act).map_err(|kind| CpuError { cycle, kind })?;
        Ok(act)
    }
}

impl CpuBackend for Interpreter {
    const NAME: &'static str = "interp";
    type Pipeline = ();

    fn load(program: &Program) -> Self {
        Interpreter::new(program)
    }
    fn arch(&self) -> &ArchState {
        &self.arch
    }
    fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }
    fn pipeline(&self) {}
    fn set_pipeline(&mut self, (): ()) {}
    fn step<H: PipelineHook>(&mut self, hook: &mut H) -> Result<CycleActivity, CpuError> {
        if H::IS_NULL {
            return self.clock();
        }
        hook.before_cycle(&mut HookCtx { arch: &mut self.arch, pipe: None });
        let cycle = self.cycles();
        let act = self.clock()?;
        hook.after_cycle(&act).map_err(|kind| CpuError { cycle, kind })?;
        Ok(act)
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
        (b.registers(), b.stats().retired, stats)
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
}
