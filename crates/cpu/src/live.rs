//! Live state: the registers and data words a run reads from some cycle
//! on.
//!
//! A fault trial forked from a clean run may stop once it agrees with the
//! clean run on the control state and on everything the clean run's
//! remainder reads: from there on every cycle reads only agreed values,
//! so both runs make the same writes. A flipped word or register that the
//! remainder never reads can then differ for good without keeping the
//! trial running. [`LastReads`] records, as a hook on the clean run, the
//! last cycle at which each register and word is read;
//! [`LastReads::live_from`] turns that into the [`LiveSet`] of one cycle,
//! and [`Cpu::eq_on`](crate::Cpu::eq_on) compares two machines on it.

use crate::activity::CycleActivity;
use crate::hook::PipelineHook;
use crate::pipeline::CpuErrorKind;
use emask_isa::MEM_SIZE;

/// Data-memory words of a [`Cpu`](crate::Cpu).
const WORDS: usize = (MEM_SIZE / 4) as usize;

/// A set of registers and data-memory words: the state a run reads from
/// some cycle on ([`LastReads::live_from`]), on which
/// [`Cpu::eq_on`](crate::Cpu::eq_on) compares two machines.
#[derive(Debug, Clone)]
pub struct LiveSet {
    /// Bit `r`: register `r`.
    pub(crate) regs: u32,
    /// Bit `w % 64` of entry `w / 64`: the word at byte address `4 * w`.
    pub(crate) words: [u64; WORDS / 64],
}

/// Where a run last read each register and data word.
///
/// As a [`PipelineHook`] it records the reads in each activity record:
/// the register read ports of ID ([`CycleActivity::regfile_reads`],
/// squashed decodes included) and the address of each load. It never
/// touches the core and is inert from the start.
#[derive(Debug, Clone)]
pub struct LastReads {
    /// Per register, one past the cycle of its last read; 0 if unread.
    regs: [u64; 32],
    /// Per data word, likewise.
    words: Vec<u64>,
}

impl Default for LastReads {
    fn default() -> Self {
        Self { regs: [0; 32], words: vec![0; WORDS] }
    }
}

impl LastReads {
    /// Records a read of the word at byte address `addr` after the run's
    /// last cycle, as when a harness reads a result out of the halted
    /// machine. An address outside memory is not state and is ignored.
    pub fn read_after_run(&mut self, addr: u32) {
        if let Some(end) = self.words.get_mut((addr / 4) as usize) {
            *end = u64::MAX;
        }
    }

    /// The registers and words the run reads at machine cycle `cycle` or
    /// later.
    pub fn live_from(&self, cycle: u64) -> LiveSet {
        let mut live = LiveSet { regs: 0, words: [0; WORDS / 64] };
        for (r, &end) in self.regs.iter().enumerate() {
            live.regs |= u32::from(end > cycle) << r;
        }
        for (w, &end) in self.words.iter().enumerate() {
            live.words[w / 64] |= u64::from(end > cycle) << (w % 64);
        }
        live
    }
}

impl PipelineHook for LastReads {
    fn after_cycle(&mut self, act: &CycleActivity) -> Result<(), CpuErrorKind> {
        let end = act.cycle + 1;
        let mut regs = act.regfile_reads as u32 | (act.regfile_reads >> 32) as u32;
        while regs != 0 {
            self.regs[regs.trailing_zeros() as usize] = end;
            regs &= regs - 1;
        }
        if let Some(load) = act.mem.filter(|m| !m.is_store) {
            if let Some(w) = self.words.get_mut((load.addr / 4) as usize) {
                *w = end;
            }
        }
        Ok(())
    }

    fn is_inert(&self, _cycle: u64) -> bool {
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Cpu, CpuBackend};
    use emask_isa::{assemble, Program, Reg};
    use std::ops::ControlFlow;

    fn program() -> Program {
        assemble(
            ".data\na: .word 5\nb: .word 7\nc: .word 0\n.text\n la $t0, a\n lw $t1, 0($t0)\n\
             lw $t2, 4($t0)\n addu $t3, $t1, $t2\n halt\n",
        )
        .unwrap()
    }

    /// The clean run of [`program`] and its reads.
    fn clean() -> (Cpu, LastReads) {
        let mut reads = LastReads::default();
        let mut cpu = Cpu::new(&program());
        cpu.run_with(1000, &mut reads, |_| ControlFlow::Continue(())).unwrap();
        (cpu, reads)
    }

    fn word(addr: u32) -> (usize, u64) {
        let w = (addr / 4) as usize;
        (w / 64, 1 << (w % 64))
    }

    #[test]
    fn live_sets_hold_the_decode_and_load_reads_still_to_come() {
        let (cpu, mut reads) = clean();
        let p = program();
        let live = reads.live_from(0);
        for r in [Reg::T0, Reg::T1, Reg::T2] {
            assert_ne!(live.regs & 1 << r.number(), 0, "{r}");
        }
        assert_eq!(live.regs & 1 << Reg::T3.number(), 0, "written, never read");
        for (name, read) in [("a", true), ("b", true), ("c", false)] {
            let (i, bit) = word(p.data_addr(name));
            assert_eq!(live.words[i] & bit != 0, read, "{name}");
        }
        // Past the last cycle nothing is read, until a harness reads a
        // result out of the halted machine.
        let end = reads.live_from(cpu.cycles());
        assert!(end.regs == 0 && end.words.iter().all(|&w| w == 0));
        reads.read_after_run(p.data_addr("c"));
        let (i, bit) = word(p.data_addr("c"));
        assert_eq!(reads.live_from(cpu.cycles()).words[i], bit);
    }

    #[test]
    fn eq_on_compares_registers_and_words_only_where_live() {
        let (_, reads) = clean();
        let live = reads.live_from(0);
        let p = program();
        let base = Cpu::new(&p);
        let differs = |change: &dyn Fn(&mut Cpu)| {
            let mut other = base.clone();
            change(&mut other);
            !base.eq_on(&other, &live)
        };
        assert!(!differs(&|_| {}));
        assert!(!differs(&|c| c.set_reg(Reg::T5, 1)), "a register never read");
        assert!(
            !differs(&|c| c.memory_mut().store(p.data_addr("c"), 1).unwrap()),
            "a word never read"
        );
        assert!(differs(&|c| c.set_reg(Reg::T1, 1)), "a register read later");
        assert!(
            differs(&|c| c.memory_mut().store(p.data_addr("b"), 1).unwrap()),
            "a word loaded later"
        );
        assert!(differs(&|c| c.arch.pc = 1), "control state in full");
        assert!(differs(&|c| c.arch.halted = true), "the halt flag");
        assert!(differs(&|c| c.arch.stats.cycles += 1), "the clock");
        assert!(!differs(&|c| c.arch.stats.retired = 9), "not the statistics");
    }
}
