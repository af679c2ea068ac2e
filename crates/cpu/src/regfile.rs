//! The 32-entry architectural register file.

use emask_isa::Reg;

/// The register file. Register `$zero` reads as 0 and discards writes, as
/// in every MIPS-style core.
///
/// The paper treats register-file energy as data-independent ("the energy
/// consumed in writing to a register is independent of the data as the
/// register file can be considered as another memory array"), so this type
/// only reports access *counts* to the energy model, not values.
#[derive(Debug, Clone)]
pub(crate) struct RegisterFile {
    regs: [u32; 32],
}

impl RegisterFile {
    /// A register file with all registers zero.
    pub(crate) fn new() -> Self {
        Self { regs: [0; 32] }
    }

    /// Reads a register.
    pub(crate) fn read(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes a register; writes to `$zero` are discarded.
    pub(crate) fn write(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Whether the registers in `mask` (bit `r`: register `r`) agree.
    pub(crate) fn eq_on(&self, other: &Self, mask: u32) -> bool {
        (0..32).all(|r| mask & (1 << r) == 0 || self.regs[r] == other.regs[r])
    }

    /// A snapshot of all 32 registers, indexed by register number.
    pub(crate) fn snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::Zero, 0xFFFF_FFFF);
        assert_eq!(rf.read(Reg::Zero), 0);
    }

    #[test]
    fn writes_persist() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::T3, 17);
        assert_eq!(rf.read(Reg::T3), 17);
        rf.write(Reg::T3, 18);
        assert_eq!(rf.read(Reg::T3), 18);
    }

    #[test]
    fn registers_are_independent() {
        let mut rf = RegisterFile::new();
        for r in Reg::ALL {
            rf.write(r, u32::from(r.number()) * 3);
        }
        for r in Reg::ALL {
            let expect = if r.is_zero() { 0 } else { u32::from(r.number()) * 3 };
            assert_eq!(rf.read(r), expect);
        }
    }
}
