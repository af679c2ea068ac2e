//! Technology parameters and the energy parameter set.

/// How the dual-rail secure path is built — the paper's design versus the
/// broken strawman used in the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecureStyle {
    /// Dual rail **with pre-charge**: all 64 lines pre-charge high, exactly
    /// 32 discharge each evaluate phase → constant energy (the paper's
    /// design).
    #[default]
    Precharged,
    /// Dual rail **without pre-charge**: the complement lines simply toggle
    /// alongside the true lines. The transition count becomes
    /// `2 · hamming(prev, cur)` — doubled but still data-dependent, i.e.
    /// still a DPA leak. Included to demonstrate why pre-charging matters.
    ComplementOnly,
}

/// Every knob of the energy model, in picojoules and picofarads.
///
/// The defaults are calibrated to the paper's reported operating points:
/// 2.5 V supply; an XOR unit averaging 0.3 pJ normal / 0.6 pJ secure; an
/// original-DES average near 165 pJ/cycle; and the masking-policy energy
/// ratios of the paper's totals (46.4 / 52.6 / 63.6 / 83.5 µJ →
/// 1.13× / 1.37× / 1.80×). The paper's worked example of a 1 pF internal
/// wire costing 6.25 pJ per toggle is `toggle_pj(1.0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Supply voltage in volts.
    pub supply_v: f64,
    /// Instruction-bus capacitance per line, pF.
    pub inst_bus_cap_pf: f64,
    /// Pipeline operand/result latch capacitance per bit, pF.
    pub latch_cap_pf: f64,
    /// Result-bus capacitance per line, pF.
    pub result_bus_cap_pf: f64,
    /// Memory data-bus capacitance per line, pF.
    pub mem_bus_cap_pf: f64,
    /// Functional-unit internal array capacitance per node, pF, by unit.
    pub unit_cap_pf: UnitCaps,
    /// Base activation energy per functional-unit operation, pJ, by unit.
    pub unit_base_pj: UnitBases,
    /// Register-file energy per read port access, pJ (data-independent).
    pub regfile_read_pj: f64,
    /// Register-file energy per write, pJ (data-independent).
    pub regfile_write_pj: f64,
    /// Memory-array energy per load/store access, pJ (differential sense,
    /// data-independent).
    pub memory_access_pj: f64,
    /// Constant clock / control energy per cycle, pJ.
    pub clock_pj: f64,
    /// Inter-wire coupling capacitance between adjacent bus lines, pF
    /// (Sotiriadis & Chandrakasan, the paper's reference \[8\]). Defaults to
    /// 0 — the paper's model. Setting it nonzero reproduces the
    /// limitation the paper's conclusion predicts: dual-rail pre-charging
    /// equalizes per-line switching but *not* adjacent-line interaction,
    /// so the masked device leaks again through this channel.
    pub coupling_cap_pf: f64,
    /// Whether the complementary (secure) path is clock gated off for
    /// normal instructions. The paper gates it; `false` models the naive
    /// always-on implementation for the ablation bench.
    pub gate_complementary: bool,
    /// The secure-path circuit style.
    pub secure_style: SecureStyle,
}

/// Per-unit array capacitance (pF per internal node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCaps {
    /// Adder/subtractor/comparator (also computes addresses).
    pub adder: f64,
    /// Bitwise logic array (and/or/xor/nor).
    pub logic: f64,
    /// Barrel shifter.
    pub shifter: f64,
    /// Multiply/divide unit.
    pub muldiv: f64,
}

/// Per-unit base activation energy (pJ per operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitBases {
    /// Adder/subtractor/comparator.
    pub adder: f64,
    /// Bitwise logic array.
    pub logic: f64,
    /// Barrel shifter.
    pub shifter: f64,
    /// Multiply/divide unit.
    pub muldiv: f64,
}

impl EnergyParams {
    /// The calibrated defaults described in the type-level docs.
    pub fn calibrated() -> Self {
        Self {
            supply_v: 2.5,
            inst_bus_cap_pf: 0.05,
            latch_cap_pf: 0.153,
            result_bus_cap_pf: 0.23,
            // Calibrated against the paper's policy totals (46.4 / 52.6 /
            // 63.6 / 83.5 µJ ratios); the paper's illustrative 1 pF wire
            // (6.25 pJ per toggle) remains expressible via `toggle_pj`.
            mem_bus_cap_pf: 0.30,
            unit_cap_pf: UnitCaps {
                adder: 0.038,
                // Pinned so the XOR unit averages 0.3 pJ normal and costs
                // exactly 0.6 pJ secure (paper, §4.2): with zero base
                // energy, e·96 = 0.6 pJ → e = 0.00625 pJ = C·V² at 1 fF.
                logic: 0.001,
                shifter: 0.023,
                muldiv: 0.29,
            },
            unit_base_pj: UnitBases { adder: 1.2, logic: 0.0, shifter: 0.8, muldiv: 6.0 },
            regfile_read_pj: 2.2,
            regfile_write_pj: 3.0,
            memory_access_pj: 9.0,
            // Dominant constant clock/control draw of the smart-card core;
            // sets the original DES average near the paper's 165 pJ/cycle.
            clock_pj: 143.0,
            coupling_cap_pf: 0.0,
            gate_complementary: true,
            secure_style: SecureStyle::Precharged,
        }
    }

    /// Energy of one full-swing transition on a wire of `cap_pf`
    /// picofarads: `C·V²`, in picojoules.
    pub(crate) fn toggle_pj(&self, cap_pf: f64) -> f64 {
        cap_pf * self.supply_v * self.supply_v
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn paper_wire_example_is_6_25_pj() {
        let p = EnergyParams::calibrated();
        assert!((p.toggle_pj(1.0) - 6.25).abs() < 1e-12);
    }

    #[test]
    fn xor_secure_is_0_6_pj() {
        // 96 dual-rail nodes (two operands + result) at the logic cap.
        let p = EnergyParams::calibrated();
        let secure = p.unit_base_pj.logic + 96.0 * p.toggle_pj(p.unit_cap_pf.logic);
        assert!((secure - 0.6).abs() < 1e-9, "secure XOR = {secure}");
    }

    #[test]
    fn defaults_are_calibrated() {
        assert_eq!(EnergyParams::default(), EnergyParams::calibrated());
    }

    #[test]
    fn default_style_is_precharged_and_gated() {
        let p = EnergyParams::default();
        assert_eq!(p.secure_style, SecureStyle::Precharged);
        assert!(p.gate_complementary);
        // Coupling off by default — the paper's model.
        assert_eq!(p.coupling_cap_pf, 0.0);
    }
}
