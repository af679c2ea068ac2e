//! Architectural checkpoints for rollback recovery.
//!
//! A [`CpuCheckpoint`] snapshots everything a [`Cpu`] clock cycle
//! can change: the register file, the four pipeline latches, PC, cycle
//! count, halt/fetch flags, run statistics, and data memory. Memory is the
//! only large piece, so it is handled incrementally: the checkpoint keeps a
//! *shadow* copy and relies on [`DataMemory`]'s dirty-page set to move only
//! the pages touched since the last checkpoint boundary — `O(dirty pages)`
//! per [`CpuCheckpoint::refresh`] / [`CpuCheckpoint::restore`] instead of
//! `O(RAM)`.
//!
//! The intended loop (see `emask-core`'s recovery runner):
//!
//! 1. [`CpuCheckpoint::capture`] once before the run starts;
//! 2. execute until a checkpoint boundary, then [`CpuCheckpoint::refresh`];
//! 3. on a detected fault, [`CpuCheckpoint::restore`] and re-execute the
//!    window.
//!
//! Program text is immutable (a Harvard instruction ROM that no hook or
//! instruction can write), so it is deliberately not part of the snapshot.

use crate::hook::RailSkew;
use crate::memory::DataMemory;
use crate::pipeline::{Cpu, ExMem, IdEx, IfId, MemWb, RunResult};
use crate::regfile::RegisterFile;

/// A restorable snapshot of the full architectural + microarchitectural
/// state of a [`Cpu`], with incremental (dirty-page) memory tracking.
#[derive(Debug, Clone)]
pub struct CpuCheckpoint {
    regs: RegisterFile,
    pc: u32,
    cycle: u64,
    halted: bool,
    fetch_enabled: bool,
    if_id: IfId,
    id_ex: IdEx,
    ex_mem: ExMem,
    mem_wb: MemWb,
    stats: RunResult,
    /// Full-size copy of data memory, kept in sync at every
    /// capture/refresh boundary.
    shadow: DataMemory,
    /// Pages moved by the most recent refresh/restore — exposed for
    /// telemetry and tests.
    last_pages_moved: usize,
}

impl CpuCheckpoint {
    /// Snapshots `cpu` and starts dirty-page tracking from this point: the
    /// shadow memory is a full copy, and the live memory's dirty set is
    /// cleared so subsequent stores record exactly the delta against this
    /// checkpoint.
    pub fn capture(cpu: &mut Cpu) -> Self {
        cpu.mem.clear_dirty();
        Self {
            regs: cpu.regs.clone(),
            pc: cpu.pc,
            cycle: cpu.cycle,
            halted: cpu.halted,
            fetch_enabled: cpu.fetch_enabled,
            if_id: cpu.if_id,
            id_ex: cpu.id_ex,
            ex_mem: cpu.ex_mem,
            mem_wb: cpu.mem_wb,
            stats: cpu.stats,
            shadow: cpu.mem.clone(),
            last_pages_moved: 0,
        }
    }

    /// Advances the checkpoint to the CPU's current state: copies every
    /// page dirtied since the previous boundary into the shadow, then
    /// re-snapshots the architectural state and clears the dirty set.
    /// Cost is proportional to the pages actually written in the window.
    pub fn refresh(&mut self, cpu: &mut Cpu) {
        let dirty = cpu.mem.dirty_pages();
        self.last_pages_moved = dirty.len();
        for page in dirty {
            self.shadow.copy_page_from(&cpu.mem, page);
        }
        cpu.mem.clear_dirty();
        self.regs = cpu.regs.clone();
        self.pc = cpu.pc;
        self.cycle = cpu.cycle;
        self.halted = cpu.halted;
        self.fetch_enabled = cpu.fetch_enabled;
        self.if_id = cpu.if_id;
        self.id_ex = cpu.id_ex;
        self.ex_mem = cpu.ex_mem;
        self.mem_wb = cpu.mem_wb;
        self.stats = cpu.stats;
    }

    /// Rolls `cpu` back to this checkpoint: pages dirtied since the
    /// boundary are copied back from the shadow, the architectural state is
    /// restored, the dirty set is cleared, and any pending single-rail skew
    /// a hook injected this cycle is discarded (the fault it modelled is
    /// part of the rolled-back window).
    pub fn restore(&mut self, cpu: &mut Cpu) {
        let dirty = cpu.mem.dirty_pages();
        self.last_pages_moved = dirty.len();
        for page in dirty {
            cpu.mem.copy_page_from(&self.shadow, page);
        }
        cpu.mem.clear_dirty();
        cpu.regs = self.regs.clone();
        cpu.pc = self.pc;
        cpu.cycle = self.cycle;
        cpu.halted = self.halted;
        cpu.fetch_enabled = self.fetch_enabled;
        cpu.if_id = self.if_id;
        cpu.id_ex = self.id_ex;
        cpu.ex_mem = self.ex_mem;
        cpu.mem_wb = self.mem_wb;
        cpu.stats = self.stats;
        cpu.rail_skew = RailSkew::default();
    }

    /// The cycle count at the checkpoint boundary — the length an energy
    /// trace must be truncated to on rollback so re-executed cycles are not
    /// double-counted.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions retired as of the checkpoint boundary.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Pages copied by the most recent refresh or restore — the measurable
    /// cost of the incremental scheme.
    pub fn pages_moved(&self) -> usize {
        self.last_pages_moved
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_isa::{assemble, Program, Reg};

    fn program() -> Program {
        assemble(
            ".data\nbuf: .space 16\n.text\n la $t0, buf\n li $t1, 0\n li $t3, 0\n\
             loop: sw $t1, 0($t0)\n addu $t3, $t3, $t1\n addiu $t1, $t1, 1\n\
             li $t2, 8\n bne $t1, $t2, loop\n halt\n",
        )
        .expect("asm")
    }

    fn state_of(cpu: &Cpu) -> ([u32; 32], u32, u64, bool) {
        (cpu.regs.snapshot(), cpu.pc, cpu.cycle, cpu.halted)
    }

    #[test]
    fn restore_rewinds_to_the_captured_state() {
        let mut cpu = Cpu::new(&program());
        for _ in 0..10 {
            cpu.clock().expect("step");
        }
        let mut cp = CpuCheckpoint::capture(&mut cpu);
        let snap = state_of(&cpu);
        let mem_snap = cpu.mem.clone();
        // Run further, corrupting a register mid-flight like a fault would.
        for _ in 0..15 {
            cpu.clock().expect("step");
        }
        cpu.regs.write(Reg::T3, 0xDEAD_BEEF);
        cp.restore(&mut cpu);
        assert_eq!(state_of(&cpu), snap);
        assert_eq!(cpu.mem, mem_snap);
    }

    #[test]
    fn replay_after_restore_reaches_the_same_final_state() {
        let mut reference = Cpu::new(&program());
        while !reference.is_halted() {
            reference.clock().expect("step");
        }
        let mut cpu = Cpu::new(&program());
        for _ in 0..12 {
            cpu.clock().expect("step");
        }
        let mut cp = CpuCheckpoint::capture(&mut cpu);
        for _ in 0..9 {
            cpu.clock().expect("step");
        }
        cp.restore(&mut cpu);
        while !cpu.is_halted() {
            cpu.clock().expect("step");
        }
        assert_eq!(cpu.regs.snapshot(), reference.regs.snapshot());
        assert_eq!(cpu.mem, reference.mem);
        assert_eq!(cpu.cycle, reference.cycle, "cycle count is part of the rollback");
        assert_eq!(cpu.stats, reference.stats);
    }

    #[test]
    fn refresh_moves_only_dirty_pages_and_advances_the_baseline() {
        let mut cpu = Cpu::new(&program());
        let mut cp = CpuCheckpoint::capture(&mut cpu);
        // The loop writes a single 16-byte buffer: one dirty page.
        while !cpu.is_halted() {
            cpu.clock().expect("step");
        }
        let end = state_of(&cpu);
        cp.refresh(&mut cpu);
        assert!(cp.pages_moved() >= 1, "the store loop dirtied at least one page");
        assert!(cp.pages_moved() <= 2, "but nowhere near the whole RAM");
        // The baseline moved: restoring now is a no-op, not a rewind.
        cp.restore(&mut cpu);
        assert_eq!(state_of(&cpu), end);
    }

    #[test]
    fn restore_discards_pending_rail_skew() {
        let mut cpu = Cpu::new(&program());
        let mut cp = CpuCheckpoint::capture(&mut cpu);
        cpu.clock().expect("step");
        cpu.rail_skew.mem_bus = 0xFF;
        cp.restore(&mut cpu);
        assert!(cpu.rail_skew.is_clean());
    }

    #[test]
    fn checkpoint_cycle_and_retired_reporting() {
        let mut cpu = Cpu::new(&program());
        for _ in 0..10 {
            cpu.clock().expect("step");
        }
        let cp = CpuCheckpoint::capture(&mut cpu);
        assert_eq!(cp.cycle(), 10);
        assert_eq!(cp.retired(), cpu.stats.retired);
    }
}
