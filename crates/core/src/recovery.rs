//! Checkpoint/rollback recovery policy for masked-DES runs.
//!
//! The paper's smart-card setting pairs power-analysis masking with the
//! sibling threat of *fault* attacks: an adversary glitches the core and
//! reads secrets out of the wrong ciphertext (Biham–Shamir differential
//! fault analysis). PR 2 added the attacker side — fault injection plus
//! dual-rail detection — but detection alone just kills the run. This
//! module closes the loop from **detection to tolerance**:
//!
//! * the core takes a checkpoint ([`emask_cpu::Checkpoint`]) at every
//!   DES phase marker;
//! * on a detected fault (dual-rail violation, memory fault, divide by
//!   zero, runaway PC) the run rolls back to the last checkpoint and
//!   re-executes — a transient fault has already been spent, so the replay
//!   is clean and the run completes with the golden-checked ciphertext and
//!   the retired-instruction counts of a fault-free run;
//! * a *persistent* fault re-fires on every replay; after
//!   [`RecoveryPolicy::MAX_RETRIES`] rollbacks the runner **zeroizes** the
//!   key material ([`zeroize_secrets`]) and aborts with
//!   [`crate::RunError::Zeroized`] — the standard smart-card response to
//!   an attack in progress (key destruction beats key disclosure).
//!
//! The entry point is [`crate::MaskedDes::encrypt_recovered`]. Its runs
//! are architectural: a fault trial is judged by its result, so they model
//! no energy, and only the machine state rolls back. The conformance
//! suite's checkpoint round trip (a bit-identical activity stream after a
//! restore) is what shows that a rollback replays exactly.
//!
//! A fault campaign runs many faults against one block, so the same
//! step loop also records the block's clean run as a [`CleanLadder`] —
//! the machine at each checkpoint boundary, with the registers and data
//! words the clean run reads from there on — and
//! [`crate::MaskedDes::encrypt_forked`] starts each trial from the last
//! rung before its fault and stops it where it rejoins the clean run: where
//! it agrees with a rung on the control state and on that live state.

use crate::runner::RecoveredRun;
use emask_cpu::{Cpu, CpuBackend, CpuErrorKind, LiveSet};
use emask_isa::Reg;

/// How a run responds to detected faults. The policy is fixed: a
/// checkpoint at every DES phase marker (initial permutation, key
/// permutation, each round, output permutation), so a detected fault
/// re-executes at most one round, and zeroization after
/// [`RecoveryPolicy::MAX_RETRIES`] rollbacks. Make one with
/// `RecoveryPolicy::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RecoveryPolicy;

impl RecoveryPolicy {
    /// Total rollback budget for the whole run. A transient fault needs
    /// exactly one; a persistent fault burns the budget and triggers
    /// zeroization.
    pub const MAX_RETRIES: u32 = 8;
}

/// What recovery did during one run — attached to the result so campaigns
/// can report detection→recovery coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Checkpoints taken (excluding the implicit one at cycle 0).
    pub checkpoints: u64,
    /// Rollback/re-execute events. Zero means the run was clean end to
    /// end; nonzero on a successful run means the fault was *recovered*.
    pub rollbacks: u32,
    /// Total dirty pages moved by checkpoint refreshes and restores — the
    /// measurable cost of the incremental memory scheme.
    pub pages_moved: u64,
}

/// A machine at a checkpoint boundary, with the recovery counters the run
/// had there: the start of a run of the recovering step loop, and each
/// rung of a [`CleanLadder`].
#[derive(Debug, Clone)]
pub(crate) struct Rung<B> {
    pub(crate) machine: B,
    pub(crate) recovery: RecoveryStats,
}

/// The clean run of one block, kept as a ladder of its machine at every
/// checkpoint boundary — the base fault trials fork from
/// ([`MaskedDes::clean_ladder`](crate::MaskedDes::clean_ladder),
/// [`MaskedDes::encrypt_forked`](crate::MaskedDes::encrypt_forked)).
///
/// Rung 0 is the loaded machine at cycle 0; one rung per phase marker
/// follows in cycle order (20 on 16 rounds). Each holds the machine right
/// after the boundary's checkpoint refresh, with the run's
/// [`RecoveryStats`] there, and the [`LiveSet`] of the run from there on:
/// the registers its decodes read, the words its loads read and the 64
/// `output` words read after `halt` — a 32-bit register mask and a 1 KiB
/// word bitmap.
#[derive(Debug, Clone)]
pub struct CleanLadder {
    pub(crate) plaintext: u64,
    pub(crate) key: u64,
    pub(crate) rungs: Vec<Rung<Cpu>>,
    /// `live[i]`: what the clean run reads from `rungs[i]` on.
    pub(crate) live: Vec<LiveSet>,
    pub(crate) run: RecoveredRun,
}

impl CleanLadder {
    /// The clean run's result: its pipeline statistics (the baseline
    /// cycle count among them) and checkpoint counters.
    pub fn run(&self) -> &RecoveredRun {
        &self.run
    }
}

/// Whether a fault of this kind is a candidate for rollback recovery.
///
/// Everything the architecture can *detect mid-run* is recoverable:
/// dual-rail violations (the paper's integrity signature), memory faults,
/// divide-by-zero, and a runaway PC. [`CpuErrorKind::CycleLimit`] is not —
/// the budget bounds total work including re-execution, so retrying a
/// timeout would retry forever.
#[must_use]
pub(crate) fn recoverable(kind: CpuErrorKind) -> bool {
    !matches!(kind, CpuErrorKind::CycleLimit { .. })
}

/// Destroys the key material in a compromised core: zeroes the 64-word
/// bit-per-word key array at `key_addr` and the entire register file.
/// Called when the rollback budget is exhausted, before the runner aborts
/// with [`crate::RunError::Zeroized`] — a persistent fault means an attack
/// in progress, and key destruction beats key disclosure. Works on any
/// [`CpuBackend`].
pub(crate) fn zeroize_secrets<B: CpuBackend>(cpu: &mut B, key_addr: u32) {
    for i in 0..64u32 {
        // The key array was poked through the same addresses at setup, so
        // these stores cannot fail; ignore errors anyway — zeroization
        // must never abort halfway.
        let _ = cpu.memory_mut().store(key_addr + 4 * i, 0);
    }
    for r in Reg::ALL {
        cpu.set_reg(r, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emask_cpu::AccessError;
    use emask_cpu::{Bus, Cpu, Interpreter};
    use emask_isa::assemble;

    #[test]
    fn recoverable_kinds_exclude_only_cycle_limit() {
        assert!(recoverable(CpuErrorKind::DualRailViolation { bus: Bus::OperandA, agreeing: 1 }));
        assert!(recoverable(CpuErrorKind::Memory(AccessError::Unaligned { addr: 2 })));
        assert!(recoverable(CpuErrorKind::DivideByZero));
        assert!(recoverable(CpuErrorKind::PcOutOfRange { pc: 9 }));
        assert!(!recoverable(CpuErrorKind::CycleLimit { limit: 10 }));
    }

    #[test]
    fn zeroize_clears_key_words_and_registers_on_every_backend() {
        fn check<B: CpuBackend>() {
            let p = assemble(".data\nkey: .space 256\n.text\n halt\n").expect("asm");
            let mut cpu = B::load(&p);
            let key_addr = p.data_addr("key");
            for i in 0..64u32 {
                cpu.memory_mut().store(key_addr + 4 * i, 1).expect("store");
            }
            cpu.set_reg(Reg::T0, 0xDEAD_BEEF);
            zeroize_secrets(&mut cpu, key_addr);
            for i in 0..64u32 {
                assert_eq!(cpu.memory().load(key_addr + 4 * i).expect("load"), 0, "{}", B::NAME);
            }
            for r in Reg::ALL {
                assert_eq!(cpu.reg(r), 0, "{} {r}", B::NAME);
            }
        }
        check::<Cpu>();
        check::<Interpreter>();
    }
}
