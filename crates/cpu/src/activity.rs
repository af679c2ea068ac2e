//! Per-cycle microarchitectural activity records.
//!
//! A [`CycleActivity`] is the complete "what toggled this cycle" report the
//! energy model consumes: the value driven onto each bus / latched into each
//! pipeline register, tagged with the owning instruction's secure bit. The
//! split mirrors the components SimplePower models (buses, pipeline
//! registers, functional units, register file, memory) and the components
//! the paper's architecture modifies (Figure 3).

use emask_isa::{Instruction, Op, OpClass, Reg};

/// One 32-bit bus or pipeline-register sample.
///
/// When `active` is false the latch was not clocked this cycle (a bubble or
/// a gated stage); the energy model charges no switching for it. When
/// `secure` is true the value travelled on the dual-rail pre-charged path,
/// and `complement` records what the complement rail actually carried. A
/// healthy pipeline always drives `!value` there; a single-rail upset (one
/// wire of the pair flipped by a fault) makes the rails agree on some bit,
/// which the dual-rail integrity checker reports as a
/// [`CpuErrorKind::DualRailViolation`](crate::CpuErrorKind::DualRailViolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusSample {
    /// The value driven/latched (the true rail).
    pub value: u32,
    /// What the complement rail carried; `!value` when well-formed. Only
    /// meaningful for active secure samples — single-rail normal buses
    /// leave it at the constructor default.
    pub complement: u32,
    /// Whether the owning instruction carries the secure bit.
    pub secure: bool,
    /// Whether the bus/latch toggled at all this cycle.
    pub active: bool,
}

impl BusSample {
    /// An inactive (gated) sample.
    pub(crate) fn idle() -> Self {
        Self::default()
    }

    /// An active sample with a well-formed complement rail.
    pub fn new(value: u32, secure: bool) -> Self {
        Self { value, complement: !value, secure, active: true }
    }

    /// Bits on which the two rails *agree* — zero for a well-formed
    /// dual-rail pair. Only meaningful for active secure samples.
    pub fn rail_agreement(&self) -> u32 {
        !(self.value ^ self.complement)
    }
}

/// Functional-unit activity in the EX stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExActivity {
    /// Program counter of the executing instruction (its text index) —
    /// the attribution key for per-instruction leakage profiling.
    pub pc: u32,
    /// The executed operation.
    pub op: Op,
    /// Its class (selects the energy table).
    pub class: OpClass,
    /// First operand as presented to the unit.
    pub a: u32,
    /// Second operand (immediate already substituted).
    pub b: u32,
    /// Unit output.
    pub result: u32,
    /// Secure-path execution (complementary unit active).
    pub secure: bool,
}

/// Data-memory activity in the MEM stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemActivity {
    /// True for a store, false for a load.
    pub is_store: bool,
    /// Byte address.
    pub addr: u32,
    /// The word moved on the memory data bus.
    pub data: u32,
    /// Secure access (dual-rail pre-charged data bus).
    pub secure: bool,
}

/// Everything that happened in one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleActivity {
    /// Cycle number, starting at 0.
    pub cycle: u64,
    /// PC fetched this cycle, if the fetch stage was active.
    pub fetch_pc: Option<u32>,
    /// Instruction bus (the fetched encoding).
    pub inst_word: BusSample,
    /// The register-file reads of ID, one bit per read port: bit `r` when
    /// port A (`rs`) read register `r`, bit `32 + r` when port B (`rt`)
    /// did. `count_ones()` is the number of ports exercised, two when
    /// both name the same register. Squashed decodes keep their reads.
    pub regfile_reads: u64,
    /// Whether WB wrote the register file.
    pub regfile_write: bool,
    /// Operand bus A feeding EX (post-forwarding; gated when unused).
    pub id_ex_a: BusSample,
    /// Operand bus B feeding EX (post-forwarding; gated when unused).
    pub id_ex_b: BusSample,
    /// Functional-unit activity, if EX executed a real instruction.
    pub ex: Option<ExActivity>,
    /// Result latched into EX/MEM.
    pub ex_mem_result: BusSample,
    /// Data-memory activity, if MEM accessed memory.
    pub mem: Option<MemActivity>,
    /// Memory data bus (load data in, store data out); idle when MEM did
    /// not access memory.
    pub mem_bus: BusSample,
    /// Value latched into MEM/WB.
    pub mem_wb_value: BusSample,
    /// The instruction that completed write-back this cycle.
    pub retired: Option<Instruction>,
    /// The decode stage stalled (load-use interlock).
    pub stalled: bool,
    /// Number of wrong-path instructions squashed this cycle (0 or 2).
    pub flushed: u8,
}

impl CycleActivity {
    /// An all-idle record for `cycle`.
    pub fn idle(cycle: u64) -> Self {
        Self {
            cycle,
            fetch_pc: None,
            inst_word: BusSample::idle(),
            regfile_reads: 0,
            regfile_write: false,
            id_ex_a: BusSample::idle(),
            id_ex_b: BusSample::idle(),
            ex: None,
            ex_mem_result: BusSample::idle(),
            mem: None,
            mem_bus: BusSample::idle(),
            mem_wb_value: BusSample::idle(),
            retired: None,
            stalled: false,
            flushed: 0,
        }
    }

    /// True if any stage carried a secure instruction this cycle.
    pub fn any_secure(&self) -> bool {
        (self.inst_word.active && self.inst_word.secure)
            || (self.id_ex_a.active && self.id_ex_a.secure)
            || self.ex.is_some_and(|e| e.secure)
            || self.mem.is_some_and(|m| m.secure)
            || (self.mem_wb_value.active && self.mem_wb_value.secure)
    }
}

/// The [`CycleActivity::regfile_reads`] of a decode that reads `rs` on
/// port A and `rt` on port B.
pub(crate) fn read_ports(rs: Option<Reg>, rt: Option<Reg>) -> u64 {
    let port =
        |r: Option<Reg>, shift: u32| r.map_or(0, |r| 1u64 << (u32::from(r.number()) + shift));
    port(rs, 0) | port(rt, 32)
}

/// Which bus or pipeline latch a [`BusSample`] was captured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bus {
    /// Instruction bus (fetched encoding).
    Instruction,
    /// Operand bus A into EX (post-forwarding).
    OperandA,
    /// Operand bus B into EX (post-forwarding).
    OperandB,
    /// Result latched into EX/MEM.
    Result,
    /// Data-memory bus.
    Memory,
    /// Value latched into MEM/WB.
    Writeback,
}

impl Bus {
    /// All buses, in pipeline order.
    pub const ALL: [Bus; 6] =
        [Bus::Instruction, Bus::OperandA, Bus::OperandB, Bus::Result, Bus::Memory, Bus::Writeback];

    /// A short stable name.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Bus::Instruction => "inst",
            Bus::OperandA => "op_a",
            Bus::OperandB => "op_b",
            Bus::Result => "result",
            Bus::Memory => "mem",
            Bus::Writeback => "wb",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn idle_record_is_fully_inactive() {
        let a = CycleActivity::idle(7);
        assert_eq!(a.cycle, 7);
        assert!(!a.inst_word.active);
        assert!(a.ex.is_none() && a.mem.is_none() && a.retired.is_none());
        assert!(!a.any_secure());
    }

    #[test]
    fn any_secure_detects_each_stage() {
        let mut a = CycleActivity::idle(0);
        assert!(!a.any_secure());
        a.mem = Some(MemActivity { is_store: false, addr: 0, data: 0, secure: true });
        assert!(a.any_secure());
        let mut b = CycleActivity::idle(0);
        b.id_ex_a = BusSample::new(5, true);
        assert!(b.any_secure());
        let mut c = CycleActivity::idle(0);
        c.id_ex_a = BusSample::new(5, false);
        assert!(!c.any_secure());
    }

    #[test]
    fn bus_sample_constructors() {
        assert!(!BusSample::idle().active);
        let s = BusSample::new(9, true);
        assert!(s.active && s.secure);
        assert_eq!(s.value, 9);
        assert_eq!(s.complement, !9u32);
        assert_eq!(s.rail_agreement(), 0);
    }

    #[test]
    fn rail_agreement_flags_single_rail_upsets() {
        let mut s = BusSample::new(0b1010, true);
        assert_eq!(s.rail_agreement(), 0);
        // A fault flips bit 3 of the true rail only: the rails now agree
        // there (both low-ish), and nowhere else.
        s.value ^= 1 << 3;
        assert_eq!(s.rail_agreement(), 1 << 3);
        // Flipping the complement rail too restores the invariant.
        s.complement ^= 1 << 3;
        assert_eq!(s.rail_agreement(), 0);
    }

    #[test]
    fn bus_names_are_unique() {
        let names: std::collections::BTreeSet<_> = Bus::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), Bus::ALL.len());
    }
}
