//! Functional-unit energy: transition-sensitive tables per unit.
//!
//! Four units make up the EX stage, mirroring the SimplePower datapath
//! decomposition: the adder (arithmetic, comparisons, address generation),
//! the bitwise logic array, the barrel shifter, and the multiply/divide
//! unit. Each keeps its previous operand/result values; a new operation
//! charges the base activation energy plus `C·V²` per toggled node —
//! or, in secure mode, the constant dual-rail pre-charged cost.

use crate::tech::{EnergyParams, SecureStyle};
use emask_isa::Op;

/// The EX-stage functional units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionalUnit {
    /// Adder/subtractor/comparator — also generates load/store addresses
    /// and branch comparisons.
    Adder,
    /// Bitwise logic array (and/or/xor/nor and their immediates).
    Logic,
    /// Barrel shifter (also implements `lui`).
    Shifter,
    /// Multiply/divide unit.
    MulDiv,
}

impl FunctionalUnit {
    /// Which unit executes `op`; `None` for operations that exercise no
    /// datapath unit (jumps, halt).
    pub(crate) fn for_op(op: Op) -> Option<FunctionalUnit> {
        use Op::*;
        Some(match op {
            Addu | Subu | Addiu | Slt | Sltu | Slti | Sltiu | Lw | Sw | Beq | Bne | Blez | Bgtz
            | Bltz | Bgez => FunctionalUnit::Adder,
            And | Or | Xor | Nor | Andi | Ori | Xori => FunctionalUnit::Logic,
            Sll | Srl | Sra | Sllv | Srlv | Srav | Lui => FunctionalUnit::Shifter,
            Mul | Div | Rem => FunctionalUnit::MulDiv,
            J | Jal | Jr | Jalr | Halt => return None,
        })
    }

    fn cap_pf(self, p: &EnergyParams) -> f64 {
        match self {
            FunctionalUnit::Adder => p.unit_cap_pf.adder,
            FunctionalUnit::Logic => p.unit_cap_pf.logic,
            FunctionalUnit::Shifter => p.unit_cap_pf.shifter,
            FunctionalUnit::MulDiv => p.unit_cap_pf.muldiv,
        }
    }

    fn base_pj(self, p: &EnergyParams) -> f64 {
        match self {
            FunctionalUnit::Adder => p.unit_base_pj.adder,
            FunctionalUnit::Logic => p.unit_base_pj.logic,
            FunctionalUnit::Shifter => p.unit_base_pj.shifter,
            FunctionalUnit::MulDiv => p.unit_base_pj.muldiv,
        }
    }
}

/// Previous operands and result of each unit (transition-sensitive state).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitState {
    prev: [(u32, u32, u32); 4],
}

impl UnitState {
    /// Fresh state with all-zero previous values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one operation on `unit` with operands `a`, `b` producing
    /// `result`, in secure or normal mode, and updates the unit's state.
    /// Returns picojoules.
    pub fn operate(
        &mut self,
        p: &EnergyParams,
        unit: FunctionalUnit,
        a: u32,
        b: u32,
        result: u32,
        secure: bool,
    ) -> f64 {
        let idx = unit as usize;
        let (pa, pb, pr) = self.prev[idx];
        let e = p.toggle_pj(unit.cap_pf(p));
        let toggles =
            f64::from((pa ^ a).count_ones() + (pb ^ b).count_ones() + (pr ^ result).count_ones());
        let switching = match (secure, p.secure_style) {
            // 3 values × 32 dual-rail discharges, data-independent; the
            // trailing pre-charge leaves the arrays high so the next normal
            // operation's transition count cannot depend on the secret.
            (true, SecureStyle::Precharged) => {
                self.prev[idx] = (u32::MAX, u32::MAX, u32::MAX);
                96.0
            }
            // Complement mirrors the true lines: doubled but still
            // data-dependent.
            (true, SecureStyle::ComplementOnly) => {
                self.prev[idx] = (a, b, result);
                2.0 * toggles
            }
            (false, _) => {
                self.prev[idx] = (a, b, result);
                toggles
            }
        };
        // Ungated complementary path burns its idle dual-rail clocking even
        // for normal operations.
        let ungated = if !secure && !p.gate_complementary { 96.0 } else { 0.0 };
        unit.base_pj(p) + e * (switching + ungated)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn params() -> EnergyParams {
        EnergyParams::calibrated()
    }

    #[test]
    fn every_datapath_op_maps_to_a_unit() {
        use Op::*;
        for op in [
            Addu, Subu, And, Or, Xor, Nor, Sllv, Srlv, Srav, Slt, Sltu, Mul, Div, Rem, Addiu, Andi,
            Ori, Xori, Slti, Sltiu, Lui, Sll, Srl, Sra, Lw, Sw, Beq, Bne, Blez, Bgtz, Bltz, Bgez,
        ] {
            assert!(FunctionalUnit::for_op(op).is_some(), "{op}");
        }
        for op in [Op::J, Op::Jal, Op::Jr, Op::Jalr, Op::Halt] {
            assert!(FunctionalUnit::for_op(op).is_none(), "{op}");
        }
    }

    #[test]
    fn secure_xor_costs_exactly_0_6_pj() {
        let p = params();
        let mut st = UnitState::new();
        // Any operands: secure cost must be data-independent.
        let e1 = st.operate(&p, FunctionalUnit::Logic, 0xFFFF_FFFF, 0, 0xFFFF_FFFF, true);
        let e2 = st.operate(&p, FunctionalUnit::Logic, 0x0000_0001, 1, 0, true);
        assert!((e1 - 0.6).abs() < 1e-9, "{e1}");
        assert!((e2 - 0.6).abs() < 1e-9, "{e2}");
    }

    #[test]
    fn normal_xor_averages_near_0_3_pj() {
        // Pseudo-random operand stream: mean ≈ 48 toggles → ≈ 0.3 pJ.
        let p = params();
        let mut st = UnitState::new();
        let mut x = 0x1234_5678u32;
        let mut total = 0.0;
        let n = 10_000;
        for _ in 0..n {
            // xorshift32
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let a = x;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let b = x;
            total += st.operate(&p, FunctionalUnit::Logic, a, b, a ^ b, false);
        }
        let mean = total / f64::from(n);
        assert!((mean - 0.3).abs() < 0.02, "mean normal XOR = {mean} pJ");
    }

    #[test]
    fn normal_mode_is_data_dependent() {
        let p = params();
        let mut st = UnitState::new();
        st.operate(&p, FunctionalUnit::Logic, 0, 0, 0, false);
        let no_change = st.operate(&p, FunctionalUnit::Logic, 0, 0, 0, false);
        let full_flip = st.operate(&p, FunctionalUnit::Logic, u32::MAX, u32::MAX, u32::MAX, false);
        assert!(full_flip > no_change, "toggling must cost energy");
    }

    #[test]
    fn complement_only_style_still_leaks() {
        let mut p = params();
        p.secure_style = SecureStyle::ComplementOnly;
        let mut st = UnitState::new();
        st.operate(&p, FunctionalUnit::Logic, 0, 0, 0, true);
        let quiet = st.operate(&p, FunctionalUnit::Logic, 0, 0, 0, true);
        let loud = st.operate(&p, FunctionalUnit::Logic, u32::MAX, 0, u32::MAX, true);
        assert!(loud > quiet, "complement-only dual rail must remain data-dependent");
    }

    #[test]
    fn ungated_complementary_path_taxes_normal_ops() {
        let mut p = params();
        p.gate_complementary = false;
        let gated = params();
        let mut st1 = UnitState::new();
        let mut st2 = UnitState::new();
        let e_ungated = st1.operate(&p, FunctionalUnit::Adder, 1, 2, 3, false);
        let e_gated = st2.operate(&gated, FunctionalUnit::Adder, 1, 2, 3, false);
        assert!(e_ungated > e_gated);
    }

    #[test]
    fn units_have_independent_state() {
        let p = params();
        let mut st = UnitState::new();
        st.operate(&p, FunctionalUnit::Adder, u32::MAX, u32::MAX, u32::MAX, false);
        // The logic unit's previous state is still zero, so a zero op on it
        // pays only its (zero) base.
        let e = st.operate(&p, FunctionalUnit::Logic, 0, 0, 0, false);
        assert!(e.abs() < 1e-12, "logic unit charged {e} pJ with no toggles");
    }
}
