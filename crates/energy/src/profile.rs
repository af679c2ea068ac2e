//! Per-instruction leakage attribution.
//!
//! DPA exploits the *variance* of data-dependent energy across traces:
//! an instruction whose energy bill changes with the processed data is a
//! leak; one whose bill is constant is not. A [`LeakageProfiler`] watches
//! many encryption runs and attributes each cycle's data-dependent energy
//! (see [`ComponentEnergy::data_dependent`]) to the program counter of
//! the instruction executing that cycle, then computes per-PC
//! mean/variance *across traces*. Ranking PCs by that variance names the
//! exact instructions an attacker can key on — and shows that the paper's
//! selective masking (secure loads/stores around the S-box tables) covers
//! precisely the top of the list while leaving the bulk of the program
//! cheap and unmasked.
//!
//! The profiler is attack-agnostic: it never looks at plaintexts or keys,
//! only at the energy stream — the same vantage point as the adversary.
//!
//! [`ComponentEnergy::data_dependent`]: crate::ComponentEnergy::data_dependent

use crate::model::CycleEnergy;
use emask_cpu::CycleActivity;
use emask_isa::Instruction;
use std::collections::BTreeMap;

/// Scalar Welford accumulator (mean / sample variance of per-trace
/// energy totals).
#[derive(Debug, Clone, Default, PartialEq)]
struct ScalarWelford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl ScalarWelford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// This trace's running attribution for one PC.
#[derive(Debug, Clone)]
struct TraceCell {
    energy_pj: f64,
    cycles: u64,
    phase: String,
}

/// Cross-trace statistics for one PC.
#[derive(Debug, Clone)]
struct PcStats {
    phase: String,
    cycles: u64,
    energy: ScalarWelford,
}

/// Attributes per-trace data-dependent energy to program counters.
///
/// Feed it one run at a time: [`record`](Self::record) every cycle (with
/// [`set_phase`](Self::set_phase) on phase-marker crossings), then
/// [`end_trace`](Self::end_trace) when the run completes. After any
/// number of traces, [`profile`](Self::profile) returns the per-PC
/// ranking. In the telemetry layer the same three calls are wired to the
/// `RunObserver` callbacks, so `MaskedDes::encrypt_observed` drives the
/// profiler directly.
#[derive(Debug, Clone, Default)]
pub struct LeakageProfiler {
    phase: String,
    current: BTreeMap<u32, TraceCell>,
    stats: BTreeMap<u32, PcStats>,
    traces: u64,
}

impl LeakageProfiler {
    /// An empty profiler (phase starts as `"startup"`).
    pub fn new() -> Self {
        Self { phase: "startup".into(), ..Self::default() }
    }

    /// The current phase label; subsequent attributions are tagged with it.
    pub fn set_phase(&mut self, name: &str) {
        if self.phase != name {
            self.phase = name.to_string();
        }
    }

    /// Attribute one cycle: if EX executed an instruction, its PC is
    /// charged the cycle's data-dependent energy.
    pub fn record(&mut self, act: &CycleActivity, energy: &CycleEnergy) {
        if let Some(ex) = &act.ex {
            let cell = self.current.entry(ex.pc).or_insert_with(|| TraceCell {
                energy_pj: 0.0,
                cycles: 0,
                phase: self.phase.clone(),
            });
            cell.energy_pj += energy.components.data_dependent();
            cell.cycles += 1;
        }
    }

    /// Close the current trace: fold its per-PC totals into the
    /// cross-trace statistics. A PC absent from this trace contributes a
    /// zero (it consumed no data-dependent energy this run), and a PC
    /// seen for the first time is back-filled with zeros for every
    /// earlier trace — so every PC's variance is over the same trace
    /// count and "sometimes executed" is itself visible as variance.
    pub fn end_trace(&mut self) {
        for (pc, cell) in std::mem::take(&mut self.current) {
            let entry = self.stats.entry(pc).or_insert_with(|| {
                let mut fresh = PcStats {
                    phase: cell.phase.clone(),
                    cycles: 0,
                    energy: ScalarWelford::default(),
                };
                for _ in 0..self.traces {
                    fresh.energy.push(0.0);
                }
                fresh
            });
            entry.energy.push(cell.energy_pj);
            entry.cycles += cell.cycles;
        }
        self.traces += 1;
        let n = self.traces;
        for stats in self.stats.values_mut() {
            if stats.energy.n < n {
                stats.energy.push(0.0);
            }
        }
    }

    /// The per-PC leakage ranking over all completed traces.
    pub fn profile(&self) -> LeakageProfile {
        let mut rows: Vec<LeakageRow> = self
            .stats
            .iter()
            .map(|(&pc, s)| LeakageRow {
                pc,
                phase: s.phase.clone(),
                hits: s.cycles,
                mean_pj: s.energy.mean,
                variance_pj: s.energy.variance(),
            })
            .collect();
        rows.sort_by(|a, b| b.variance_pj.total_cmp(&a.variance_pj).then_with(|| a.pc.cmp(&b.pc)));
        LeakageProfile { traces: self.traces, rows }
    }
}

/// One PC's cross-trace leakage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageRow {
    /// Program counter (text index) of the instruction.
    pub pc: u32,
    /// The phase the PC was first attributed in (e.g. `"round 1"`).
    pub phase: String,
    /// Total EX cycles attributed to this PC across all traces.
    pub hits: u64,
    /// Mean per-trace data-dependent energy, pJ.
    pub mean_pj: f64,
    /// Sample variance of per-trace data-dependent energy, pJ² — the
    /// leakage figure of merit; ≈0 means the instruction cannot be a DPA
    /// target.
    pub variance_pj: f64,
}

/// A completed per-instruction leakage profile, rows sorted by variance
/// descending (rank 0 leaks most).
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageProfile {
    /// Traces the statistics cover.
    pub traces: u64,
    /// Per-PC rows, most leaky first.
    pub rows: Vec<LeakageRow>,
}

impl LeakageProfile {
    /// The CSV header matching [`csv_rows`](Self::csv_rows).
    pub const CSV_HEADER: &'static str =
        "rank,policy,pc,instruction,phase,hits,mean_pj,variance_pj";

    /// Total data-dependent variance across all PCs — the program-level
    /// leakage budget the rows partition.
    pub fn total_variance(&self) -> f64 {
        self.rows.iter().map(|r| r.variance_pj).sum()
    }

    /// Renders the profile as CSV rows (no header), one per PC in rank
    /// order, disassembling each PC against `text` (the program's text
    /// segment; out-of-range PCs render as `<pc N>`). `policy` labels the
    /// masking configuration the traces were collected under, so profiles
    /// of several policies concatenate into one comparable file.
    pub fn csv_rows(&self, policy: &str, text: &[Instruction]) -> String {
        let mut out = String::new();
        for (rank, row) in self.rows.iter().enumerate() {
            let disasm = text
                .get(row.pc as usize)
                .map(|i| i.to_string())
                .unwrap_or_else(|| format!("<pc {}>", row.pc));
            out.push_str(&format!(
                "{},{},{},\"{}\",{},{},{:.6},{:.6}\n",
                rank, policy, row.pc, disasm, row.phase, row.hits, row.mean_pj, row.variance_pj
            ));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::ComponentEnergy;
    use emask_cpu::ExActivity;
    use emask_isa::{Op, OpClass, Reg};

    fn ex_cycle(cycle: u64, pc: u32, data_pj: f64) -> (CycleActivity, CycleEnergy) {
        let mut act = CycleActivity::idle(cycle);
        act.ex = Some(ExActivity {
            pc,
            op: Op::Xor,
            class: OpClass::AluReg,
            a: 0,
            b: 0,
            result: 0,
            secure: false,
        });
        let energy = CycleEnergy {
            cycle,
            components: ComponentEnergy { result_bus: data_pj, ..Default::default() },
        };
        (act, energy)
    }

    #[test]
    fn constant_energy_has_zero_variance_and_varying_energy_ranks_first() {
        let mut prof = LeakageProfiler::new();
        for (t, leak) in [0.0f64, 10.0, 0.0, 10.0].iter().enumerate() {
            prof.set_phase("round 1");
            // PC 0 is constant across traces; PC 1 swings with the data.
            let (a, e) = ex_cycle(2 * t as u64, 0, 5.0);
            prof.record(&a, &e);
            let (a, e) = ex_cycle(2 * t as u64 + 1, 1, *leak);
            prof.record(&a, &e);
            prof.end_trace();
        }
        let p = prof.profile();
        assert_eq!(p.traces, 4);
        assert_eq!(p.rows[0].pc, 1, "the data-dependent PC must rank first");
        assert!(p.rows[0].variance_pj > 1.0);
        let constant = p.rows.iter().find(|r| r.pc == 0).unwrap();
        assert!(constant.variance_pj.abs() < 1e-12);
        assert!((constant.mean_pj - 5.0).abs() < 1e-12);
        assert_eq!(constant.hits, 4);
        assert_eq!(constant.phase, "round 1");
    }

    #[test]
    fn late_and_missing_pcs_are_zero_backfilled() {
        let mut prof = LeakageProfiler::new();
        // Trace 0: only PC 3. Trace 1: only PC 7 (first seen late).
        let (a, e) = ex_cycle(0, 3, 4.0);
        prof.record(&a, &e);
        prof.end_trace();
        let (a, e) = ex_cycle(0, 7, 6.0);
        prof.record(&a, &e);
        prof.end_trace();
        let p = prof.profile();
        for row in &p.rows {
            // Both PCs average over BOTH traces: 4/2 and 6/2.
            let expect = if row.pc == 3 { 2.0 } else { 3.0 };
            assert!((row.mean_pj - expect).abs() < 1e-12, "pc {}: {}", row.pc, row.mean_pj);
            assert!(row.variance_pj > 0.0, "intermittent execution is variance");
        }
    }

    #[test]
    fn idle_cycles_attribute_nothing() {
        let mut prof = LeakageProfiler::new();
        let energy = CycleEnergy {
            cycle: 0,
            components: ComponentEnergy { clock: 9.0, ..Default::default() },
        };
        prof.record(&CycleActivity::idle(0), &energy);
        prof.end_trace();
        assert!(prof.profile().rows.is_empty());
    }

    #[test]
    fn csv_renders_rank_order_with_disassembly() {
        let mut prof = LeakageProfiler::new();
        for leak in [0.0f64, 8.0] {
            let (a, e) = ex_cycle(0, 0, leak);
            prof.record(&a, &e);
            let (a, e) = ex_cycle(1, 99, 1.0);
            prof.record(&a, &e);
            prof.end_trace();
        }
        let p = prof.profile();
        let text = vec![Instruction::r(Op::Xor, Reg::Zero, Reg::Zero, Reg::Zero)];
        let csv = p.csv_rows("none", &text);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("0,none,0,"), "varying PC 0 ranks first: {}", lines[0]);
        assert!(lines[0].contains("xor"), "PC 0 disassembles: {}", lines[0]);
        assert!(lines[1].contains("<pc 99>"), "out-of-range PC disassembles to a placeholder");
    }
}
