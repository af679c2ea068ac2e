//! Pluggable pipeline *hooks* — mutable mid-simulation access to the core.
//!
//! A [`PipelineHook`] may *change* the core mid-run: every cycle it
//! receives a [`HookCtx`] with mutable access to the pipeline latches, the
//! register file and data memory, and after the cycle it may veto the run
//! with a typed [`CpuErrorKind`]. This is the substrate the `emask-fault`
//! crate builds its fault injectors and dual-rail integrity checker on.
//! Watching the run needs no hook: the per-cycle callback of
//! [`CpuBackend::run_with`](crate::CpuBackend::run_with) sees every
//! activity record.
//!
//! Dispatch is **static**: [`CpuBackend::step`](crate::CpuBackend::step)
//! is generic over the hook type and routes [`NullHook`] to the bare clock
//! at compile time, so a run with no fault plan installed pays nothing.
//!
//! Hooks compose structurally: `(A, B)` runs both halves in order (`A`'s
//! state mutations are visible to `B`; `B`'s `after_cycle` only runs if
//! `A`'s accepted the cycle), and `&mut H` forwards to `H`.

use crate::activity::CycleActivity;
use crate::interp::Interpreter;
use crate::memory::AccessError;
use crate::pipeline::{Cpu, CpuErrorKind};
use emask_isa::{OpClass, Reg};

/// A faultable 32-bit datum inside a pipeline latch, named after the value
/// it carries. Each lane also names the bus sample where a rail fault on
/// it becomes visible to the dual-rail checker this cycle:
///
/// | lane | latch field | checked at |
/// |------|-------------|------------|
/// | [`IdExA`](FaultLane::IdExA) | ID/EX operand A | `id_ex_a` operand bus |
/// | [`IdExB`](FaultLane::IdExB) | ID/EX operand B | `id_ex_b` operand bus |
/// | [`ExMemAlu`](FaultLane::ExMemAlu) | EX/MEM ALU result / address | `mem_wb_value` latch |
/// | [`ExMemStore`](FaultLane::ExMemStore) | EX/MEM store data | `mem_bus` data bus |
/// | [`MemWbValue`](FaultLane::MemWbValue) | MEM/WB write-back value | *(past the check point)* |
///
/// A `MemWbValue` upset lands after the last sampled bus and goes straight
/// into the register file — deliberately outside the checker's coverage,
/// modelling the boundary of what rail integrity can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLane {
    /// Operand A in the ID/EX latch.
    IdExA,
    /// Operand B in the ID/EX latch.
    IdExB,
    /// ALU result (or memory address) in the EX/MEM latch.
    ExMemAlu,
    /// Store data in the EX/MEM latch.
    ExMemStore,
    /// Write-back value in the MEM/WB latch.
    MemWbValue,
}

impl FaultLane {
    /// All lanes, in pipeline order.
    pub const ALL: [FaultLane; 5] = [
        FaultLane::IdExA,
        FaultLane::IdExB,
        FaultLane::ExMemAlu,
        FaultLane::ExMemStore,
        FaultLane::MemWbValue,
    ];

    /// A short stable name (used in campaign reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultLane::IdExA => "id_ex.a",
            FaultLane::IdExB => "id_ex.b",
            FaultLane::ExMemAlu => "ex_mem.alu",
            FaultLane::ExMemStore => "ex_mem.store",
            FaultLane::MemWbValue => "mem_wb.value",
        }
    }
}

/// Which rail(s) of a dual-rail pair a lane fault hits.
///
/// Physically a transient upset flips *one wire*; only a coordinated (or
/// single-rail-datapath) fault changes both rails consistently. The
/// distinction is what makes dual-rail logic a fault *detector*: a
/// single-rail upset leaves the pair in an ill-formed state the integrity
/// checker can see, while a both-rail fault is architecturally silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RailMode {
    /// Flip the true rail and the complement rail together: the value
    /// changes, the pair stays well-formed (undetectable by rail checking;
    /// also the only meaningful mode for non-secure lanes, registers and
    /// memory, which have no complement rail).
    #[default]
    Both,
    /// Flip only the true rail: the value changes *and* the pair becomes
    /// ill-formed — detectable.
    TrueOnly,
    /// Flip only the complement rail: the value is untouched but the pair
    /// becomes ill-formed — detectable, architecturally harmless.
    ComplementOnly,
}

/// A read-only view of what currently occupies a latch lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneView {
    /// The latched value.
    pub value: u32,
    /// Whether the owning instruction carries the secure bit.
    pub secure: bool,
    /// The owning instruction's class.
    pub class: OpClass,
}

/// The live core a [`HookCtx`] points into. The pipeline variant exposes
/// the full microarchitecture (latch lanes, IF/ID squash, rail skew); the
/// interpreter has no latches, so lane-level operations degrade to no-ops
/// there while the architectural operations (registers, memory, PC) work
/// identically on both.
#[derive(Debug)]
pub(crate) enum CoreView<'a> {
    /// The five-stage pipeline.
    Pipeline(&'a mut Cpu),
    /// The reference interpreter.
    Interp(&'a mut Interpreter),
}

/// Mutable per-cycle access to the live core, handed to
/// [`PipelineHook::before_cycle`] at the top of every simulated cycle,
/// before any stage logic runs. State changed here is what the stages see
/// this cycle.
///
/// The same context type serves every [`crate::CpuBackend`]: architectural
/// accessors (registers, memory, PC, retirement count) behave identically
/// everywhere, while the latch-lane operations are inherently
/// microarchitectural — on a backend without pipeline latches,
/// [`HookCtx::lane`] returns `None` and [`HookCtx::flip_lane`] /
/// [`HookCtx::squash_if_id`] return `false`, exactly as they do when a
/// pipeline latch holds a bubble.
#[derive(Debug)]
pub struct HookCtx<'a> {
    pub(crate) core: CoreView<'a>,
}

impl<'a> HookCtx<'a> {
    pub(crate) fn for_cpu(cpu: &'a mut Cpu) -> Self {
        Self { core: CoreView::Pipeline(cpu) }
    }

    pub(crate) fn for_interp(interp: &'a mut Interpreter) -> Self {
        Self { core: CoreView::Interp(interp) }
    }

    /// The stable name of the backend behind this context.
    pub fn backend_name(&self) -> &'static str {
        match &self.core {
            CoreView::Pipeline(_) => "pipeline5",
            CoreView::Interp(_) => "interp",
        }
    }

    /// The cycle about to be simulated (instructions executed, on the
    /// interpreter).
    pub fn cycle(&self) -> u64 {
        match &self.core {
            CoreView::Pipeline(cpu) => cpu.cycle,
            CoreView::Interp(i) => i.executed,
        }
    }

    /// Instructions retired so far (before this cycle's write-back).
    pub fn retired(&self) -> u64 {
        match &self.core {
            CoreView::Pipeline(cpu) => cpu.stats.retired,
            CoreView::Interp(i) => i.stats.retired,
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        match &self.core {
            CoreView::Pipeline(cpu) => cpu.pc,
            CoreView::Interp(i) => i.pc,
        }
    }

    /// What occupies `lane`, or `None` while the latch holds a bubble (or
    /// the backend has no pipeline latches at all).
    pub fn lane(&self, lane: FaultLane) -> Option<LaneView> {
        let CoreView::Pipeline(cpu) = &self.core else {
            return None;
        };
        let (valid, value, inst) = match lane {
            FaultLane::IdExA => (cpu.id_ex.valid, cpu.id_ex.a, cpu.id_ex.inst),
            FaultLane::IdExB => (cpu.id_ex.valid, cpu.id_ex.b, cpu.id_ex.inst),
            FaultLane::ExMemAlu => (cpu.ex_mem.valid, cpu.ex_mem.alu, cpu.ex_mem.inst),
            FaultLane::ExMemStore => (cpu.ex_mem.valid, cpu.ex_mem.store_val, cpu.ex_mem.inst),
            FaultLane::MemWbValue => (cpu.mem_wb.valid, cpu.mem_wb.value, cpu.mem_wb.inst),
        };
        valid.then(|| LaneView { value, secure: inst.secure, class: inst.class() })
    }

    /// XORs `mask` into `lane` under the given [`RailMode`]. Returns
    /// `false` (and does nothing) if the latch holds a bubble or the
    /// backend has no latches.
    ///
    /// [`RailMode::Both`] changes the latched value only.
    /// [`RailMode::TrueOnly`] also records that the complement rail went
    /// stale, so the lane's bus sample this cycle carries an ill-formed
    /// pair; [`RailMode::ComplementOnly`] records the stale complement
    /// without touching the value.
    pub fn flip_lane(&mut self, lane: FaultLane, mask: u32, rail: RailMode) -> bool {
        let CoreView::Pipeline(cpu) = &mut self.core else {
            return false;
        };
        let valid = match lane {
            FaultLane::IdExA | FaultLane::IdExB => cpu.id_ex.valid,
            FaultLane::ExMemAlu | FaultLane::ExMemStore => cpu.ex_mem.valid,
            FaultLane::MemWbValue => cpu.mem_wb.valid,
        };
        if !valid || mask == 0 {
            return false;
        }
        let value: &mut u32 = match lane {
            FaultLane::IdExA => &mut cpu.id_ex.a,
            FaultLane::IdExB => &mut cpu.id_ex.b,
            FaultLane::ExMemAlu => &mut cpu.ex_mem.alu,
            FaultLane::ExMemStore => &mut cpu.ex_mem.store_val,
            FaultLane::MemWbValue => &mut cpu.mem_wb.value,
        };
        if !matches!(rail, RailMode::ComplementOnly) {
            *value ^= mask;
        }
        if !matches!(rail, RailMode::Both) {
            cpu.rail_skew.record(lane, mask);
        }
        true
    }

    /// Squashes whatever sits in the IF/ID latch — the classic
    /// *instruction-skip* fault. Returns `false` if it already held a
    /// bubble (or the backend has no fetch latch).
    pub fn squash_if_id(&mut self) -> bool {
        let CoreView::Pipeline(cpu) = &mut self.core else {
            return false;
        };
        if !cpu.if_id.valid {
            return false;
        }
        cpu.if_id.valid = false;
        true
    }

    /// Reads architectural register `n & 31`.
    pub fn reg(&self, n: u8) -> u32 {
        let r = Reg::from_number(n & 31);
        match &self.core {
            CoreView::Pipeline(cpu) => cpu.regs.read(r),
            CoreView::Interp(i) => i.regs.read(r),
        }
    }

    /// XORs `mask` into architectural register `n & 31` (writes to `$zero`
    /// are discarded, as in hardware).
    pub fn flip_reg(&mut self, n: u8, mask: u32) {
        let r = Reg::from_number(n & 31);
        match &mut self.core {
            CoreView::Pipeline(cpu) => {
                let v = cpu.regs.read(r);
                cpu.regs.write(r, v ^ mask);
            }
            CoreView::Interp(i) => {
                let v = i.regs.read(r);
                i.regs.write(r, v ^ mask);
            }
        }
    }

    /// Reads the data-memory word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misaligned or out-of-range addresses.
    pub fn mem_word(&self, addr: u32) -> Result<u32, AccessError> {
        match &self.core {
            CoreView::Pipeline(cpu) => cpu.mem.load(addr),
            CoreView::Interp(i) => i.mem.load(addr),
        }
    }

    /// XORs `mask` into the data-memory word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misaligned or out-of-range addresses.
    pub fn flip_mem(&mut self, addr: u32, mask: u32) -> Result<(), AccessError> {
        let mem = match &mut self.core {
            CoreView::Pipeline(cpu) => &mut cpu.mem,
            CoreView::Interp(i) => &mut i.mem,
        };
        let v = mem.load(addr)?;
        mem.store(addr, v ^ mask)
    }
}

/// Per-cycle pipeline intervention callbacks. All defaults are no-ops, so
/// [`NullHook`] (and any hook that only implements one side) costs
/// nothing.
pub trait PipelineHook {
    /// `true` only when this hook (transitively) does nothing at all.
    /// [`CpuBackend::step`](crate::CpuBackend::step) uses it to route such
    /// hooks straight to the bare clock at compile time, keeping the
    /// unfaulted path byte-identical to an unhooked run. Leave it `false`
    /// in any hook with behavior — a `true` here silently disables the
    /// hook.
    const IS_NULL: bool = false;

    /// Called at the top of every cycle, before any stage logic, with
    /// mutable access to the core. Faults injected here are what the
    /// stages compute with this cycle.
    fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
        let _ = ctx;
    }

    /// Called with the completed activity record. Returning an error kind
    /// aborts the run as a *detected* fault at this cycle — this is how
    /// the dual-rail integrity checker reports violations.
    ///
    /// # Errors
    ///
    /// Implementations return the [`CpuErrorKind`] to fault the run with.
    fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
        let _ = act;
        Ok(())
    }
}

/// The do-nothing hook. [`CpuBackend::step`](crate::CpuBackend::step) with
/// this type compiles to the bare clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl PipelineHook for NullHook {
    const IS_NULL: bool = true;
}

impl<H: PipelineHook + ?Sized> PipelineHook for &mut H {
    const IS_NULL: bool = H::IS_NULL;

    fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
        (**self).before_cycle(ctx);
    }
    fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
        (**self).after_cycle(act)
    }
}

impl<A: PipelineHook, B: PipelineHook> PipelineHook for (A, B) {
    const IS_NULL: bool = A::IS_NULL && B::IS_NULL;

    fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
        self.0.before_cycle(ctx);
        self.1.before_cycle(ctx);
    }
    fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
        self.0.after_cycle(act)?;
        self.1.after_cycle(act)
    }
}

/// Complement-rail disagreement accumulated by single-rail lane faults
/// this cycle, applied to the affected bus samples when the activity
/// record is assembled and then cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RailSkew {
    pub(crate) id_ex_a: u32,
    pub(crate) id_ex_b: u32,
    pub(crate) mem_bus: u32,
    pub(crate) mem_wb_value: u32,
}

impl RailSkew {
    pub(crate) fn record(&mut self, lane: FaultLane, mask: u32) {
        match lane {
            FaultLane::IdExA => self.id_ex_a ^= mask,
            FaultLane::IdExB => self.id_ex_b ^= mask,
            FaultLane::ExMemStore => self.mem_bus ^= mask,
            // The corrupted EX/MEM value surfaces in the MEM/WB latch
            // sample; a MEM/WB upset happens past the last sampled bus and
            // is intentionally invisible to the checker.
            FaultLane::ExMemAlu => self.mem_wb_value ^= mask,
            FaultLane::MemWbValue => {}
        }
    }

    pub(crate) fn is_clean(&self) -> bool {
        *self == RailSkew::default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::activity::CycleActivity;
    use crate::pipeline::Cpu;
    use crate::CpuBackend;
    use emask_isa::assemble;
    use std::ops::ControlFlow;

    fn run_hooked<H: PipelineHook>(
        cpu: &mut Cpu,
        hook: &mut H,
    ) -> Result<crate::RunResult, crate::CpuError> {
        cpu.run_with(1000, hook, |_| ControlFlow::Continue(()))
    }

    /// A hook that flips one lane bit at a fixed cycle and counts calls.
    struct FlipAt {
        cycle: u64,
        lane: FaultLane,
        rail: RailMode,
        applied: bool,
        cycles_seen: u64,
    }

    impl PipelineHook for FlipAt {
        fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
            if ctx.cycle() == self.cycle {
                self.applied = ctx.flip_lane(self.lane, 1, self.rail);
            }
        }
        fn after_cycle(&mut self, _act: &CycleActivity) -> Result<(), CpuErrorKind> {
            self.cycles_seen += 1;
            Ok(())
        }
    }

    fn program() -> emask_isa::Program {
        assemble(".text\n li $t0, 6\n li $t1, 7\n addu $t2, $t0, $t1\n halt\n").expect("asm")
    }

    #[test]
    fn null_hook_run_matches_plain_run() {
        let p = program();
        let mut a = Cpu::new(&p);
        let mut b = Cpu::new(&p);
        let ra = a.run(1000).expect("plain");
        // A hook with behavior takes the hooked route through `step`.
        let mut hook = FlipAt {
            cycle: u64::MAX,
            lane: FaultLane::IdExA,
            rail: RailMode::Both,
            applied: false,
            cycles_seen: 0,
        };
        let rb = run_hooked(&mut b, &mut hook).expect("hooked");
        assert_eq!(hook.cycles_seen, rb.cycles);
        assert_eq!(ra, rb);
        for r in emask_isa::Reg::ALL {
            assert_eq!(a.reg(r), b.reg(r));
        }
    }

    #[test]
    fn lane_flip_changes_architectural_result() {
        // Space the producers out so the addu's operands really come from
        // the ID/EX latch (forwarding would bypass the corrupted latch).
        let p = assemble(
            ".text\n li $t0, 6\n li $t1, 7\n nop\n nop\n nop\n addu $t2, $t0, $t1\n halt\n",
        )
        .expect("asm");
        // Find the cycle where the addu sits in EX (operand lanes live):
        // scan a clean run for it.
        let mut probe = Cpu::new(&p);
        let (_, acts) = probe.run_collecting(1000).expect("probe");
        let target = acts
            .iter()
            .find(|a| a.ex.is_some_and(|e| e.op == emask_isa::Op::Addu))
            .expect("addu executes")
            .cycle;
        let mut hook = FlipAt {
            cycle: target,
            lane: FaultLane::IdExA,
            rail: RailMode::Both,
            applied: false,
            cycles_seen: 0,
        };
        let mut cpu = Cpu::new(&p);
        run_hooked(&mut cpu, &mut hook).expect("run");
        assert!(hook.applied);
        assert!(hook.cycles_seen > 0);
        // 6^1 + 7 = 14, not 13: the flipped operand reached the ALU.
        assert_eq!(cpu.reg(emask_isa::Reg::T2), 14);
    }

    #[test]
    fn flip_lane_refuses_bubbles_and_zero_masks() {
        let p = program();
        let mut cpu = Cpu::new(&p);
        let mut ctx = HookCtx::for_cpu(&mut cpu);
        // Cycle 0: every latch is a bubble.
        assert!(ctx.lane(FaultLane::IdExA).is_none());
        assert!(!ctx.flip_lane(FaultLane::IdExA, 1, RailMode::Both));
        assert!(!ctx.flip_lane(FaultLane::ExMemAlu, 0, RailMode::Both));
        assert!(!ctx.squash_if_id());
    }

    #[test]
    fn interp_ctx_degrades_lanes_but_keeps_architectural_access() {
        let p = program();
        let mut iss = crate::Interpreter::new(&p);
        let mut ctx = HookCtx::for_interp(&mut iss);
        assert_eq!(ctx.backend_name(), "interp");
        // No latches: every lane operation reports "bubble".
        for lane in FaultLane::ALL {
            assert!(ctx.lane(lane).is_none());
            assert!(!ctx.flip_lane(lane, 1, RailMode::Both));
        }
        assert!(!ctx.squash_if_id());
        // Architectural access works exactly as on the pipeline.
        ctx.flip_reg(9, 0b11);
        assert_eq!(ctx.reg(9), 0b11);
        ctx.flip_mem(0x1000, 0xAA).expect("in range");
        assert_eq!(ctx.mem_word(0x1000).expect("in range"), 0xAA);
        assert_eq!(ctx.pc(), 0);
        assert_eq!(ctx.cycle(), 0);
    }

    #[test]
    fn reg_and_mem_flips_round_trip() {
        let p = program();
        let mut cpu = Cpu::new(&p);
        let mut ctx = HookCtx::for_cpu(&mut cpu);
        ctx.flip_reg(8, 0b101);
        assert_eq!(ctx.reg(8), 0b101);
        // $zero stays hardwired.
        ctx.flip_reg(0, u32::MAX);
        assert_eq!(ctx.reg(0), 0);
        ctx.flip_mem(0x1000, 0xFF).expect("in range");
        assert_eq!(ctx.mem_word(0x1000).expect("in range"), 0xFF);
        assert!(ctx.flip_mem(2, 1).is_err());
        assert!(ctx.flip_mem(0xFFFF_0000, 1).is_err());
    }

    #[test]
    fn squash_if_id_skips_an_instruction() {
        // Squash the li $t1 while it sits in IF/ID: $t1 keeps its reset
        // value and the sum changes accordingly.
        struct Squash {
            done: bool,
        }
        impl PipelineHook for Squash {
            fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
                if !self.done && ctx.cycle() == 2 {
                    self.done = ctx.squash_if_id();
                }
            }
        }
        let p = program();
        let mut hook = Squash { done: false };
        let mut cpu = Cpu::new(&p);
        run_hooked(&mut cpu, &mut hook).expect("run");
        assert!(hook.done);
        assert_eq!(cpu.reg(emask_isa::Reg::T1), 0);
        assert_eq!(cpu.reg(emask_isa::Reg::T2), 6);
    }

    #[test]
    fn hook_pair_composes_and_short_circuits() {
        struct Veto;
        impl PipelineHook for Veto {
            fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
                if act.cycle == 3 {
                    Err(CpuErrorKind::CycleLimit { limit: 3 })
                } else {
                    Ok(())
                }
            }
        }
        struct Count(u64);
        impl PipelineHook for Count {
            fn after_cycle(&mut self, _act: &CycleActivity) -> Result<(), CpuErrorKind> {
                self.0 += 1;
                Ok(())
            }
        }
        let p = program();
        let mut hook = (Veto, Count(0));
        let err = run_hooked(&mut Cpu::new(&p), &mut hook).expect_err("vetoed");
        assert_eq!(err.cycle, 3);
        // The second hook never saw the vetoed cycle.
        assert_eq!(hook.1 .0, 3);
    }
}
