//! Checkpoints for rollback recovery, one type for every backend.
//!
//! A [`Checkpoint`] snapshots everything a clock cycle of a
//! [`CpuBackend`] can change: its [`ArchState`] (registers, PC, halt flag,
//! run statistics and data memory) and the backend's own
//! [`CpuBackend::Pipeline`] state (the pipeline's latches, fetch flag and
//! rail skew; nothing for the interpreter). Memory is the only large
//! piece, so it is handled incrementally: the checkpoint keeps a *shadow*
//! copy and relies on [`DataMemory`](crate::DataMemory)'s dirty-page set
//! to move only the pages touched since the last checkpoint boundary —
//! `O(dirty pages)` per refresh or restore instead of `O(RAM)`.
//!
//! The three operations are the [`CpuBackend`] methods, in the intended
//! loop of `emask-core`'s recovery runner:
//!
//! 1. [`CpuBackend::checkpoint`] once before the run starts;
//! 2. execute until a checkpoint boundary, then
//!    [`CpuBackend::checkpoint_refresh`];
//! 3. on a detected fault, [`CpuBackend::checkpoint_restore`] and
//!    re-execute the window.
//!
//! Program text is immutable (a Harvard instruction ROM that no hook or
//! instruction can write), so it is deliberately not part of the snapshot.

use crate::backend::{ArchState, CpuBackend};

/// A restorable snapshot of a backend's full state, with incremental
/// (dirty-page) memory tracking.
#[derive(Debug, Clone)]
pub struct Checkpoint<B: CpuBackend> {
    /// The architectural state at the last boundary; its memory is the
    /// shadow copy.
    arch: ArchState,
    /// The backend's own state at the last boundary.
    pipeline: B::Pipeline,
    /// Pages moved by the most recent refresh or restore.
    pages_moved: usize,
}

impl<B: CpuBackend> Checkpoint<B> {
    /// Snapshots `machine` and starts dirty-page tracking from this point:
    /// the shadow memory is a full copy, and the live memory's dirty set is
    /// cleared so later stores record exactly the delta against it.
    pub(crate) fn capture(machine: &mut B) -> Self {
        machine.arch_mut().mem.clear_dirty();
        Self { arch: machine.arch().clone(), pipeline: machine.pipeline(), pages_moved: 0 }
    }

    /// Advances the checkpoint to the machine's current state, copying
    /// into the shadow only the pages dirtied since the previous boundary.
    pub(crate) fn refresh(&mut self, machine: &mut B) {
        let pages = machine.arch().mem.dirty_pages();
        copy(&mut self.arch, machine.arch(), &pages);
        machine.arch_mut().mem.clear_dirty();
        self.pipeline = machine.pipeline();
        self.pages_moved = pages.len();
    }

    /// Rolls `machine` back to the checkpoint, copying back from the
    /// shadow only the pages dirtied since the boundary.
    pub(crate) fn restore(&mut self, machine: &mut B) {
        let pages = machine.arch().mem.dirty_pages();
        copy(machine.arch_mut(), &self.arch, &pages);
        machine.arch_mut().mem.clear_dirty();
        machine.set_pipeline(self.pipeline.clone());
        self.pages_moved = pages.len();
    }

    /// Pages copied by the most recent refresh or restore — the measurable
    /// cost of the incremental scheme.
    pub fn pages_moved(&self) -> usize {
        self.pages_moved
    }
}

/// Makes `to` equal to `from`, given that their memories differ at most
/// on `pages`.
fn copy(to: &mut ArchState, from: &ArchState, pages: &[usize]) {
    // Exhaustive, so that a new field has to be placed in or out.
    let ArchState { regs, mem, pc, halted, stats } = from;
    for &page in pages {
        to.mem.copy_page_from(mem, page);
    }
    to.regs = regs.clone();
    to.pc = *pc;
    to.halted = *halted;
    to.stats = *stats;
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Cpu, Interpreter, NullHook};
    use emask_isa::{assemble, Program, Reg};

    fn program() -> Program {
        assemble(
            ".data\nbuf: .space 16\n.text\n la $t0, buf\n li $t1, 0\n li $t3, 0\n\
             loop: sw $t1, 0($t0)\n addu $t3, $t3, $t1\n addiu $t1, $t1, 1\n\
             li $t2, 8\n bne $t1, $t2, loop\n halt\n",
        )
        .expect("asm")
    }

    fn steps<B: CpuBackend>(machine: &mut B, n: usize) {
        for _ in 0..n {
            machine.step(&mut NullHook).expect("step");
        }
    }

    fn state_of<B: CpuBackend>(machine: &B) -> ([u32; 32], u32, u64, bool) {
        (machine.registers(), machine.pc(), machine.cycles(), machine.is_halted())
    }

    #[test]
    fn restore_rewinds_to_the_captured_state() {
        fn check<B: CpuBackend>() {
            let mut machine = B::load(&program());
            steps(&mut machine, 10);
            let mut cp = machine.checkpoint();
            let (snap, mem_snap) = (state_of(&machine), machine.memory().clone());
            // Run further, corrupting a register mid-flight like a fault would.
            steps(&mut machine, 15);
            machine.set_reg(Reg::T3, 0xDEAD_BEEF);
            machine.checkpoint_restore(&mut cp);
            assert_eq!(state_of(&machine), snap, "{}", B::NAME);
            assert_eq!(*machine.memory(), mem_snap, "{}", B::NAME);
        }
        check::<Cpu>();
        check::<Interpreter>();
    }

    #[test]
    fn replay_after_restore_reaches_the_same_final_state() {
        fn check<B: CpuBackend>() {
            let mut reference = B::load(&program());
            CpuBackend::run(&mut reference, 10_000).expect("run");
            let mut machine = B::load(&program());
            steps(&mut machine, 12);
            let mut cp = machine.checkpoint();
            steps(&mut machine, 9);
            machine.checkpoint_restore(&mut cp);
            CpuBackend::run(&mut machine, 10_000).expect("run");
            assert_eq!(machine.registers(), reference.registers(), "{}", B::NAME);
            assert_eq!(machine.memory(), reference.memory(), "{}", B::NAME);
            assert_eq!(machine.stats(), reference.stats(), "{}: the clock rolls back", B::NAME);
        }
        check::<Cpu>();
        check::<Interpreter>();
    }

    #[test]
    fn refresh_moves_only_dirty_pages_and_advances_the_baseline() {
        fn check<B: CpuBackend>() {
            let mut machine = B::load(&program());
            let mut cp = machine.checkpoint();
            // The loop writes a single 16-byte buffer: one dirty page.
            CpuBackend::run(&mut machine, 10_000).expect("run");
            let end = state_of(&machine);
            machine.checkpoint_refresh(&mut cp);
            assert!(cp.pages_moved() >= 1, "{}: the store loop dirtied a page", B::NAME);
            assert!(cp.pages_moved() <= 2, "{}: but nowhere near the whole RAM", B::NAME);
            // The baseline moved: restoring now is a no-op, not a rewind.
            machine.checkpoint_restore(&mut cp);
            assert_eq!(state_of(&machine), end, "{}", B::NAME);
        }
        check::<Cpu>();
        check::<Interpreter>();
    }

    #[test]
    fn restore_discards_pending_rail_skew() {
        let mut cpu = Cpu::new(&program());
        let mut cp = cpu.checkpoint();
        cpu.clock().expect("step");
        cpu.pipe.rail_skew.mem_bus = 0xFF;
        cpu.checkpoint_restore(&mut cp);
        assert!(cpu.pipe.rail_skew.is_clean());
    }
}
