//! The 32-entry architectural register file.

use emask_isa::Reg;
use std::fmt;

/// The register file. Register `$zero` reads as 0 and discards writes, as
/// in every MIPS-style core.
///
/// The paper treats register-file energy as data-independent ("the energy
/// consumed in writing to a register is independent of the data as the
/// register file can be considered as another memory array"), so this type
/// only reports access *counts* to the energy model, not values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    regs: [u32; 32],
}

impl RegisterFile {
    /// A register file with all registers zero.
    pub fn new() -> Self {
        Self { regs: [0; 32] }
    }

    /// Reads a register.
    pub fn read(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes a register; writes to `$zero` are discarded.
    pub fn write(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Whether the registers in `mask` (bit `r`: register `r`) agree.
    pub(crate) fn eq_on(&self, other: &Self, mask: u32) -> bool {
        (0..32).all(|r| mask & (1 << r) == 0 || self.regs[r] == other.regs[r])
    }

    /// A snapshot of all 32 registers, indexed by register number.
    pub fn snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for RegisterFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, chunk) in self.regs.chunks(4).enumerate() {
            for (j, v) in chunk.iter().enumerate() {
                let r = Reg::from_number((i * 4 + j) as u8);
                write!(f, "{r:>5}={v:08X} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
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

    #[test]
    fn display_lists_registers() {
        let s = RegisterFile::new().to_string();
        assert!(s.contains("$zero"));
        assert!(s.contains("$ra"));
    }
}
