//! The per-cycle energy model over [`CycleActivity`] records.

use crate::tech::{EnergyParams, SecureStyle};
use crate::units::{FunctionalUnit, UnitState};
use emask_cpu::{BusSample, CycleActivity};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Energy of one cycle, broken down by component (picojoules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentEnergy {
    /// Instruction bus switching.
    pub inst_bus: f64,
    /// ID/EX operand latches.
    pub operand_latches: f64,
    /// EX functional units.
    pub functional_units: f64,
    /// EX/MEM result bus + latch.
    pub result_bus: f64,
    /// Memory data bus.
    pub mem_bus: f64,
    /// MEM/WB latch.
    pub writeback_latch: f64,
    /// Register-file access (data-independent).
    pub regfile: f64,
    /// Memory-array access (data-independent).
    pub memory: f64,
    /// Clock and control.
    pub clock: f64,
}

impl ComponentEnergy {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.inst_bus
            + self.operand_latches
            + self.functional_units
            + self.result_bus
            + self.mem_bus
            + self.writeback_latch
            + self.regfile
            + self.memory
            + self.clock
    }

    /// The data-dependent portion only — what a DPA attacker can exploit.
    pub fn data_dependent(&self) -> f64 {
        self.inst_bus
            + self.operand_latches
            + self.functional_units
            + self.result_bus
            + self.mem_bus
            + self.writeback_latch
    }
}

impl Add for ComponentEnergy {
    type Output = ComponentEnergy;

    fn add(mut self, rhs: ComponentEnergy) -> ComponentEnergy {
        self += rhs;
        self
    }
}

impl AddAssign for ComponentEnergy {
    fn add_assign(&mut self, rhs: ComponentEnergy) {
        self.inst_bus += rhs.inst_bus;
        self.operand_latches += rhs.operand_latches;
        self.functional_units += rhs.functional_units;
        self.result_bus += rhs.result_bus;
        self.mem_bus += rhs.mem_bus;
        self.writeback_latch += rhs.writeback_latch;
        self.regfile += rhs.regfile;
        self.memory += rhs.memory;
        self.clock += rhs.clock;
    }
}

impl fmt::Display for ComponentEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ibus {:.2} | latch {:.2} | fu {:.2} | rbus {:.2} | mbus {:.2} | wb {:.2} | rf {:.2} | mem {:.2} | clk {:.2} = {:.2} pJ",
            self.inst_bus,
            self.operand_latches,
            self.functional_units,
            self.result_bus,
            self.mem_bus,
            self.writeback_latch,
            self.regfile,
            self.memory,
            self.clock,
            self.total()
        )
    }
}

/// One cycle's energy report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEnergy {
    /// The cycle number (copied from the activity record).
    pub cycle: u64,
    /// The component breakdown.
    pub components: ComponentEnergy,
}

impl CycleEnergy {
    /// Total picojoules this cycle.
    pub fn total_pj(&self) -> f64 {
        self.components.total()
    }
}

/// One 32-bit bus/latch with transition-sensitive state.
#[derive(Debug, Clone, Copy, Default)]
struct BusState {
    prev: u32,
}

/// Adjacent-pair disagreement count of `v`: how many of the 31 neighbor
/// pairs hold opposite values. For an interleaved dual-rail bus
/// (d₀ ¬d₀ d₁ ¬d₁ …) the intra-pair neighbors are constant by
/// construction; the *inter-pair* neighbors (¬dᵢ, dᵢ₊₁) discharge
/// together exactly when dᵢ ≠ dᵢ₊₁ is false — either way, a function of
/// the data pattern. This is the coupling channel of the paper's
/// conclusion.
fn adjacent_disagreements(v: u32) -> f64 {
    // Mask off the phantom pair beyond the MSB: 31 real neighbor pairs.
    f64::from(((v ^ (v >> 1)) & 0x7FFF_FFFF).count_ones())
}

impl BusState {
    /// Charges a sample against this bus and updates state; returns pJ.
    fn observe(&mut self, p: &EnergyParams, cap_pf: f64, s: BusSample) -> f64 {
        if !s.active {
            // Latch not clocked: no switching, no pre-charge activity.
            return 0.0;
        }
        let e = p.toggle_pj(cap_pf);
        let ec = p.toggle_pj(p.coupling_cap_pf);
        let toggles = f64::from((self.prev ^ s.value).count_ones());
        match (s.secure, p.secure_style) {
            (true, SecureStyle::Precharged) => {
                // 32 of 64 pre-charged dual-rail lines discharge during
                // evaluate and are restored by the trailing pre-charge:
                // constant energy, and the wires are left high. Leaving
                // `prev` at all-ones is what stops a *second-order* leak:
                // the next normal value's transition count depends only on
                // itself, never on the secret that just left the bus.
                self.prev = u32::MAX;
                // Per-line energy is constant — but inter-wire coupling
                // between adjacent pairs still depends on the data
                // pattern, the residual channel the paper's conclusion
                // predicts dual rail cannot mask.
                32.0 * e + ec * adjacent_disagreements(s.value)
            }
            (true, SecureStyle::ComplementOnly) => {
                // No pre-charge: true + complement lines both toggle.
                // Doubled energy, still data-dependent — the leak the
                // ablation study demonstrates.
                let cost = 2.0 * toggles * e + ec * adjacent_disagreements(self.prev ^ s.value);
                self.prev = s.value;
                cost
            }
            (false, _) => {
                let ungated = if p.gate_complementary { 0.0 } else { 32.0 * e };
                // Normal coupling: adjacent lines switching in opposite
                // directions pay the Miller-doubled capacitance; modelled
                // as proportional to adjacent disagreement of the
                // transition pattern.
                let cost = toggles * e + ec * adjacent_disagreements(self.prev ^ s.value) + ungated;
                self.prev = s.value;
                cost
            }
        }
    }
}

/// The stateful cycle-by-cycle energy estimator.
///
/// Feed it every [`CycleActivity`] of a run **in order** (it carries
/// transition state between cycles). One model instance corresponds to one
/// power trace.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    params: EnergyParams,
    inst_bus: BusState,
    id_ex_a: BusState,
    id_ex_b: BusState,
    ex_mem: BusState,
    mem_bus: BusState,
    mem_wb: BusState,
    units: UnitState,
}

impl EnergyModel {
    /// A model with [`EnergyParams::calibrated`] parameters.
    pub fn new() -> Self {
        Self::with_params(EnergyParams::calibrated())
    }

    /// A model with explicit parameters.
    pub fn with_params(params: EnergyParams) -> Self {
        Self {
            params,
            inst_bus: BusState::default(),
            id_ex_a: BusState::default(),
            id_ex_b: BusState::default(),
            ex_mem: BusState::default(),
            mem_bus: BusState::default(),
            mem_wb: BusState::default(),
            units: UnitState::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Charges one cycle of activity and returns its energy.
    pub fn observe(&mut self, act: &CycleActivity) -> CycleEnergy {
        let p = self.params;
        let mut c = ComponentEnergy { clock: p.clock_pj, ..ComponentEnergy::default() };

        // Instruction fetch: the bus value is the encoding — program-
        // dependent, not data-dependent, so it is never run dual-rail.
        let ibus_sample = BusSample { secure: false, ..act.inst_word };
        c.inst_bus = self.inst_bus.observe(&p, p.inst_bus_cap_pf, ibus_sample);

        // Operand latches.
        c.operand_latches = self.id_ex_a.observe(&p, p.latch_cap_pf, act.id_ex_a)
            + self.id_ex_b.observe(&p, p.latch_cap_pf, act.id_ex_b);

        // Functional units.
        if let Some(ex) = act.ex {
            if let Some(unit) = FunctionalUnit::for_op(ex.op) {
                c.functional_units = self.units.operate(&p, unit, ex.a, ex.b, ex.result, ex.secure);
            }
        }

        // Result bus / EX-MEM latch.
        c.result_bus = self.ex_mem.observe(&p, p.result_bus_cap_pf, act.ex_mem_result);

        // Memory data bus and array.
        c.mem_bus = self.mem_bus.observe(&p, p.mem_bus_cap_pf, act.mem_bus);
        if act.mem.is_some() {
            c.memory = p.memory_access_pj;
        }

        // Write-back latch.
        c.writeback_latch = self.mem_wb.observe(&p, p.latch_cap_pf, act.mem_wb_value);

        // Register file: counts only (data-independent array).
        c.regfile = f64::from(act.regfile_reads) * p.regfile_read_pj
            + if act.regfile_write { p.regfile_write_pj } else { 0.0 };

        CycleEnergy { cycle: act.cycle, components: c }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_cpu::{Cpu, CpuBackend, CycleActivity, MemActivity, NullHook};
    use emask_isa::assemble;
    use std::ops::ControlFlow;

    fn run_energy(src: &str) -> (f64, Vec<CycleEnergy>) {
        let p = assemble(src).expect("asm");
        let mut cpu = Cpu::new(&p);
        let mut model = EnergyModel::new();
        let mut cycles = Vec::new();
        cpu.run_with(100_000, &mut NullHook, |act| {
            cycles.push(model.observe(act));
            ControlFlow::Continue(())
        })
        .expect("run");
        (cycles.iter().map(CycleEnergy::total_pj).sum(), cycles)
    }

    #[test]
    fn idle_cycle_costs_only_clock() {
        let mut m = EnergyModel::new();
        let e = m.observe(&CycleActivity::idle(0));
        assert!((e.total_pj() - m.params().clock_pj).abs() < 1e-12);
    }

    #[test]
    fn secure_load_energy_is_data_independent() {
        // Two programs loading very different words through a secure load
        // must consume identical energy on the memory bus.
        let src =
            |v: u32| format!(".data\nv: .word {v}\n.text\n la $t0, v\n slw $t1, 0($t0)\n halt\n");
        let (e_zero, _) = run_energy(&src(0));
        let (e_ones, _) = run_energy(&src(0xFFFF_FFFF));
        assert!((e_zero - e_ones).abs() < 1e-9, "secure load leaked: {e_zero} vs {e_ones}");
    }

    #[test]
    fn normal_load_energy_leaks_the_data() {
        let src =
            |v: u32| format!(".data\nv: .word {v}\n.text\n la $t0, v\n lw $t1, 0($t0)\n halt\n");
        let (e_zero, _) = run_energy(&src(0));
        let (e_ones, _) = run_energy(&src(0xFFFF_FFFF));
        assert!((e_zero - e_ones).abs() > 1.0, "normal load should leak: {e_zero} vs {e_ones}");
    }

    #[test]
    fn secure_costs_more_than_normal_on_average() {
        let norm = ".data\nv: .word 0x5A5A5A5A\n.text\n la $t0, v\n lw $t1, 0($t0)\n sw $t1, 4($t0)\n halt\n";
        let sec = ".data\nv: .word 0x5A5A5A5A\n.text\n la $t0, v\n slw $t1, 0($t0)\n ssw $t1, 4($t0)\n halt\n";
        let (e_norm, _) = run_energy(norm);
        let (e_sec, _) = run_energy(sec);
        assert!(e_sec > e_norm, "masking must cost energy: {e_sec} vs {e_norm}");
    }

    #[test]
    fn complement_only_style_still_leaks_loads() {
        let src =
            |v: u32| format!(".data\nv: .word {v}\n.text\n la $t0, v\n slw $t1, 0($t0)\n halt\n");
        let run = |s: &str| {
            let p = assemble(s).unwrap();
            let mut cpu = Cpu::new(&p);
            let mut params = EnergyParams::calibrated();
            params.secure_style = SecureStyle::ComplementOnly;
            let mut model = EnergyModel::with_params(params);
            let mut total = 0.0;
            cpu.run_with(10_000, &mut NullHook, |a| {
                total += model.observe(a).total_pj();
                ControlFlow::Continue(())
            })
            .unwrap();
            total
        };
        let e0 = run(&src(0));
        let e1 = run(&src(0xFFFF_FFFF));
        assert!((e0 - e1).abs() > 1.0, "complement-only must leak: {e0} vs {e1}");
    }

    #[test]
    fn mem_bus_bit_difference_is_6_25_pj() {
        // The paper's worked example: one extra toggled bit on a 1 pF
        // memory-bus wire in consecutive cycles costs 6.25 pJ more.
        let mut params = EnergyParams::calibrated();
        params.mem_bus_cap_pf = 1.0;
        let mut m = EnergyModel::with_params(params);
        let mut act = CycleActivity::idle(0);
        act.mem = Some(MemActivity { is_store: false, addr: 0, data: 0, secure: false });
        act.mem_bus = emask_cpu::BusSample::new(0, false);
        let e0 = m.observe(&act).components.mem_bus;
        let mut act1 = act.clone();
        act1.mem_bus = emask_cpu::BusSample::new(1, false);
        let e1 = m.observe(&act1).components.mem_bus;
        assert!(((e1 - e0) - 6.25).abs() < 1e-9, "delta = {}", e1 - e0);
    }

    #[test]
    fn coupling_defeats_the_masking_as_the_paper_predicts() {
        // The paper's conclusion: "Current dual-rail encoding schemes do
        // not mask the key leakage arising due to [adjacent-line]
        // differences." With coupling enabled, a secure load's energy
        // becomes data-dependent again.
        let mut params = EnergyParams::calibrated();
        params.coupling_cap_pf = 0.05;
        let run = |v: u32| {
            let src = format!(".data\nv: .word {v}\n.text\n la $t0, v\n slw $t1, 0($t0)\n halt\n");
            let p = assemble(&src).unwrap();
            let mut cpu = Cpu::new(&p);
            let mut model = EnergyModel::with_params(params);
            let mut total = 0.0;
            cpu.run_with(10_000, &mut NullHook, |a| {
                total += model.observe(a).total_pj();
                ControlFlow::Continue(())
            })
            .unwrap();
            total
        };
        // 0x00000000 and 0x55555555 have equal Hamming weight classes on
        // the dual-rail bus but maximally different adjacency patterns.
        let smooth = run(0x0000_0000);
        let alternating = run(0x5555_5555);
        assert!(
            (smooth - alternating).abs() > 0.5,
            "coupling must re-open the leak: {smooth} vs {alternating}"
        );
    }

    #[test]
    fn without_coupling_the_same_pair_is_indistinguishable() {
        let run = |v: u32| {
            let src = format!(".data\nv: .word {v}\n.text\n la $t0, v\n slw $t1, 0($t0)\n halt\n");
            let p = assemble(&src).unwrap();
            let mut cpu = Cpu::new(&p);
            let mut model = EnergyModel::new();
            let mut total = 0.0;
            cpu.run_with(10_000, &mut NullHook, |a| {
                total += model.observe(a).total_pj();
                ControlFlow::Continue(())
            })
            .unwrap();
            total
        };
        assert!((run(0x0000_0000) - run(0x5555_5555)).abs() < 1e-9);
    }

    #[test]
    fn adjacent_disagreement_counts() {
        assert_eq!(super::adjacent_disagreements(0), 0.0);
        assert_eq!(super::adjacent_disagreements(u32::MAX), 0.0);
        assert_eq!(super::adjacent_disagreements(0x5555_5555), 31.0);
        assert_eq!(super::adjacent_disagreements(0b1100), 2.0);
    }

    #[test]
    fn component_breakdown_sums_to_total() {
        let (_, cycles) = run_energy(
            ".data\nv: .word 7\n.text\n la $t0, v\n lw $t1, 0($t0)\n xor $t2, $t1, $t0\n sw $t2, 0($t0)\n halt\n",
        );
        for c in &cycles {
            let manual = c.components.inst_bus
                + c.components.operand_latches
                + c.components.functional_units
                + c.components.result_bus
                + c.components.mem_bus
                + c.components.writeback_latch
                + c.components.regfile
                + c.components.memory
                + c.components.clock;
            assert!((manual - c.total_pj()).abs() < 1e-12);
        }
    }

    #[test]
    fn component_energy_adds() {
        let a = ComponentEnergy { clock: 1.0, inst_bus: 2.0, ..Default::default() };
        let b = ComponentEnergy { clock: 3.0, memory: 4.0, ..Default::default() };
        let s = a + b;
        assert!((s.total() - 10.0).abs() < 1e-12);
        assert!((s.clock - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_total() {
        let c = ComponentEnergy { clock: 52.0, ..Default::default() };
        assert!(c.to_string().contains("52.00 pJ"));
    }

    #[test]
    fn data_dependent_excludes_constant_parts() {
        let c = ComponentEnergy {
            clock: 52.0,
            regfile: 5.0,
            memory: 9.0,
            mem_bus: 10.0,
            inst_bus: 3.0,
            ..Default::default()
        };
        assert!((c.data_dependent() - 13.0).abs() < 1e-12);
    }
}
