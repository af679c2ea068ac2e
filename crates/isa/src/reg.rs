//! Architectural registers and their MIPS-convention names.

use std::fmt;
use std::str::FromStr;

/// One of the 32 general-purpose registers.
///
/// Register 0 is hard-wired to zero. Conventional names follow the MIPS
/// o32 ABI, which the `emask-cc` code generator also obeys.
///
/// # Examples
///
/// ```
/// use emask_isa::Reg;
/// assert_eq!("$t0".parse::<Reg>()?, Reg::T0);
/// assert_eq!("$8".parse::<Reg>()?, Reg::T0);
/// assert_eq!(Reg::T0.to_string(), "$t0");
/// # Ok::<(), emask_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // the names are the documentation
pub enum Reg {
    Zero = 0,
    At = 1,
    V0 = 2,
    V1 = 3,
    A0 = 4,
    A1 = 5,
    A2 = 6,
    A3 = 7,
    T0 = 8,
    T1 = 9,
    T2 = 10,
    T3 = 11,
    T4 = 12,
    T5 = 13,
    T6 = 14,
    T7 = 15,
    S0 = 16,
    S1 = 17,
    S2 = 18,
    S3 = 19,
    S4 = 20,
    S5 = 21,
    S6 = 22,
    S7 = 23,
    T8 = 24,
    T9 = 25,
    K0 = 26,
    K1 = 27,
    Gp = 28,
    Sp = 29,
    Fp = 30,
    Ra = 31,
}

impl Reg {
    /// All registers in numeric order.
    pub const ALL: [Reg; 32] = [
        Reg::Zero,
        Reg::At,
        Reg::V0,
        Reg::V1,
        Reg::A0,
        Reg::A1,
        Reg::A2,
        Reg::A3,
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
        Reg::T7,
        Reg::S0,
        Reg::S1,
        Reg::S2,
        Reg::S3,
        Reg::S4,
        Reg::S5,
        Reg::S6,
        Reg::S7,
        Reg::T8,
        Reg::T9,
        Reg::K0,
        Reg::K1,
        Reg::Gp,
        Reg::Sp,
        Reg::Fp,
        Reg::Ra,
    ];

    const NAMES: [&'static str; 32] = [
        "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3", "$t0", "$t1", "$t2", "$t3",
        "$t4", "$t5", "$t6", "$t7", "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7", "$t8",
        "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
    ];

    /// The register's 5-bit encoding.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Constructs a register from its 5-bit number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn from_number(n: u8) -> Reg {
        assert!(n < 32, "register number {n} out of range");
        Reg::ALL[n as usize]
    }

    /// True for `$zero`, whose writes are discarded.
    pub fn is_zero(self) -> bool {
        self == Reg::Zero
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Self::NAMES[self.number() as usize])
    }
}

/// Error produced when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register `{}`", self.text)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRegError { text: s.to_owned() };
        let body = s.strip_prefix('$').ok_or_else(err)?;
        if let Ok(n) = body.parse::<u8>() {
            if n < 32 {
                return Ok(Reg::from_number(n));
            }
            return Err(err());
        }
        Reg::NAMES
            .iter()
            .position(|&name| &name[1..] == body)
            .map(|i| Reg::from_number(i as u8))
            .ok_or_else(err)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for n in 0..32 {
            assert_eq!(Reg::from_number(n).number(), n);
        }
    }

    #[test]
    fn names_parse_back() {
        for r in Reg::ALL {
            assert_eq!(r.to_string().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        assert_eq!("$0".parse::<Reg>().unwrap(), Reg::Zero);
        assert_eq!("$31".parse::<Reg>().unwrap(), Reg::Ra);
    }

    #[test]
    fn bad_names_rejected() {
        for bad in ["t0", "$t10", "$32", "$", "$xy"] {
            let e = bad.parse::<Reg>().unwrap_err();
            assert!(e.to_string().contains(bad));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_number_rejects_32() {
        Reg::from_number(32);
    }
}
