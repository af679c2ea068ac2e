//! CSV and human-readable exports.
//!
//! * [`CycleCsv`] — a [`RunObserver`] that streams every cycle's
//!   per-component energy into a CSV document;
//! * [`metrics_csv`] — per-phase × per-component energy totals from a
//!   [`MetricsSnapshot`] (the `--metrics-out` format);
//! * [`summary`] — the human-readable run report behind `--summary`;
//! * [`campaign_csv`] / [`campaign_summary`] — one row per
//!   fault-injection trial ([`CampaignTrial`]) and the classified outcome
//!   totals of a whole campaign (the `--fault-out` formats).

use crate::metrics::{op_class_name, MetricsSnapshot, OP_CLASSES};
use crate::observer::{PhaseEvent, RunObserver};
use emask_cpu::{CycleActivity, RunResult};
use emask_energy::{ComponentEnergy, CycleEnergy};
use std::fmt::Write as _;

/// The component column order shared by both CSV exports.
pub const COMPONENT_COLUMNS: [&str; 9] = [
    "inst_bus",
    "operand_latches",
    "functional_units",
    "result_bus",
    "mem_bus",
    "writeback_latch",
    "regfile",
    "memory",
    "clock",
];

fn component_values(e: &ComponentEnergy) -> [f64; 9] {
    [
        e.inst_bus,
        e.operand_latches,
        e.functional_units,
        e.result_bus,
        e.mem_bus,
        e.writeback_latch,
        e.regfile,
        e.memory,
        e.clock,
    ]
}

/// Streams per-cycle component energy into CSV (`--trace-out`'s sibling
/// dump; header `cycle,<components…>,total,phase`).
#[derive(Debug, Clone)]
pub struct CycleCsv {
    out: String,
    phase: String,
}

impl Default for CycleCsv {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleCsv {
    /// An empty document with the header row written.
    pub fn new() -> Self {
        let mut out = String::from("cycle");
        for c in COMPONENT_COLUMNS {
            out.push(',');
            out.push_str(c);
        }
        out.push_str(",total,phase\n");
        CycleCsv { out, phase: "startup".to_string() }
    }

    /// The finished CSV document.
    pub fn into_csv(self) -> String {
        self.out
    }
}

impl RunObserver for CycleCsv {
    fn on_cycle(&mut self, act: &CycleActivity, energy: &CycleEnergy) {
        let _ = write!(self.out, "{}", act.cycle);
        for v in component_values(&energy.components) {
            let _ = write!(self.out, ",{v}");
        }
        let _ = writeln!(self.out, ",{},{}", energy.total_pj(), self.phase);
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.phase = event.name.clone();
    }

    fn on_finish(&mut self, _stats: &RunResult) {}
}

/// Renders per-phase × per-component energy totals as CSV.
///
/// One row per phase (marker order, including the synthetic `startup`
/// region) plus a trailing `total` row; columns are
/// `phase,start_cycle,cycles,<components…>,total_pj,min_pj,max_pj,p50_pj,p95_pj,p99_pj`.
/// Each named phase's `total_pj` equals the sum of
/// `EncryptionRun::phase_trace` for that phase, by the shared
/// start-inclusive attribution convention. The five distribution columns
/// describe the run-wide per-cycle energy histogram
/// ([`MetricsSnapshot::cycle_energy`], quantiles per
/// [`Histogram::quantile`](crate::Histogram::quantile)); the histogram is
/// not phase-attributed, so phase rows leave them empty and only the
/// `total` row carries values.
pub fn metrics_csv(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("phase,start_cycle,cycles");
    for c in COMPONENT_COLUMNS {
        out.push(',');
        out.push_str(c);
    }
    out.push_str(",total_pj,min_pj,max_pj,p50_pj,p95_pj,p99_pj\n");
    for p in &snap.phases {
        let _ = write!(out, "{},{},{}", p.name, p.start_cycle, p.cycles);
        for v in component_values(&p.energy) {
            let _ = write!(out, ",{v}");
        }
        let _ = writeln!(out, ",{},,,,,", p.energy.total());
    }
    let _ = write!(out, "total,0,{}", snap.cycles);
    for v in component_values(&snap.energy) {
        let _ = write!(out, ",{v}");
    }
    let h = &snap.cycle_energy;
    let _ = writeln!(
        out,
        ",{},{},{},{},{},{}",
        snap.energy.total(),
        h.min(),
        h.max(),
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    );
    out
}

/// Renders the human-readable run report (`--summary`).
pub fn summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run summary");
    let _ = writeln!(out, "===========");
    let _ = writeln!(
        out,
        "cycles {:>12}   retired {:>12}   ipc {:.3}",
        snap.cycles,
        snap.retired,
        snap.ipc()
    );
    let _ = writeln!(
        out,
        "stalls {:>12}   flushed {:>12}   secure cycles {} ({:.1}%)",
        snap.stall_cycles,
        snap.flushed,
        snap.secure_cycles,
        if snap.cycles == 0 { 0.0 } else { 100.0 * snap.secure_cycles as f64 / snap.cycles as f64 }
    );
    let _ = writeln!(
        out,
        "energy {:>12.1} pJ ({:.3} µJ), mean {:.1} pJ/cycle, peak {:.1} pJ",
        snap.total_pj(),
        snap.total_pj() / 1e6,
        snap.cycle_energy.mean(),
        snap.cycle_energy.max()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "instruction mix (normal / secure)");
    for (i, &class) in OP_CLASSES.iter().enumerate() {
        let m = snap.mix[i];
        if m.total() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>10} / {:<10} ({:.1}%)",
            op_class_name(class),
            m.normal,
            m.secure,
            if snap.retired == 0 { 0.0 } else { 100.0 * m.total() as f64 / snap.retired as f64 }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "phase energy");
    for p in &snap.phases {
        let _ = writeln!(
            out,
            "  {:<22} @{:<9} {:>8} cycles {:>14.1} pJ ({:>5.1} pJ data-dep/cycle)",
            p.name,
            p.start_cycle,
            p.cycles,
            p.energy.total(),
            if p.cycles == 0 { 0.0 } else { p.energy.data_dependent() / p.cycles as f64 }
        );
    }
    out
}

/// [`summary`] with the execution host's context appended — the
/// self-describing form campaign reports use, so a number measured in a
/// constrained container says so.
pub fn summary_with_host(snap: &MetricsSnapshot, host: &HostContext) -> String {
    let mut out = summary(snap);
    out.push('\n');
    out.push_str(&host.render());
    out
}

/// The execution host's context, recorded alongside campaign reports so
/// numbers from constrained containers (a single-CPU CI runner, a pinned
/// cpuset) are self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostContext {
    /// CPUs visible to this process (`std::thread::available_parallelism`).
    pub cpus: usize,
    /// The cgroup cpuset restriction, when one is readable (e.g. `0-3`).
    pub cpuset: Option<String>,
    /// The `--jobs` worker count in effect, when the caller has one.
    pub jobs: Option<usize>,
}

impl HostContext {
    /// One human-readable line, appended to run/campaign summaries.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("host: {} cpu(s) visible", self.cpus);
        if let Some(set) = &self.cpuset {
            let _ = write!(out, ", cpuset {set}");
        }
        if let Some(jobs) = self.jobs {
            let _ = write!(out, ", jobs {jobs}");
        }
        out.push('\n');
        out
    }
}

/// Detects the host context: visible CPU count, the cgroup cpuset (v2
/// `cpuset.cpus.effective`, falling back to the v1 path) when readable,
/// and the caller's `--jobs` setting.
#[must_use]
pub fn host_context(jobs: Option<usize>) -> HostContext {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpuset = ["/sys/fs/cgroup/cpuset.cpus.effective", "/sys/fs/cgroup/cpuset/cpuset.cpus"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    HostContext { cpus, cpuset, jobs }
}

/// One fault-injection trial's result, as reported by a campaign runner.
///
/// Telemetry deliberately knows nothing about fault plans; the campaign
/// harness renders its targets, models and outcomes to stable short
/// strings so this layer stays a pure exporter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTrial {
    /// Trial index within the campaign.
    pub index: usize,
    /// The cycle (or first cycle) at which the fault was scheduled.
    pub cycle: u64,
    /// The bit position disturbed.
    pub bit: u8,
    /// Target name (e.g. `id_ex.a`, `regfile`, `memory`).
    pub target: String,
    /// Fault-model name (e.g. `bit-flip`, `stuck-at`, `glitch`).
    pub model: String,
    /// Outcome classification (e.g. `no-effect`, `detected`,
    /// `wrong-ciphertext`, `crash`, `hang`).
    pub outcome: String,
    /// Free-form detail (an error message, or empty).
    pub detail: String,
}

/// Renders campaign trials as CSV, one row per trial
/// (`trial,cycle,bit,target,model,outcome,detail`). Commas and newlines
/// in the free-form detail are replaced with `;` so the document stays
/// one-row-per-trial without a quoting dialect.
pub fn campaign_csv(trials: &[CampaignTrial]) -> String {
    let mut out = String::from("trial,cycle,bit,target,model,outcome,detail\n");
    for t in trials {
        let detail: String =
            t.detail.chars().map(|c| if c == ',' || c == '\n' { ';' } else { c }).collect();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{detail}",
            t.index, t.cycle, t.bit, t.target, t.model, t.outcome
        );
    }
    out
}

/// Renders a campaign's classified outcome totals: one
/// `<outcome> <count> (<percent>)` line per outcome in first-seen order,
/// then a `sum N/N` line asserting every trial was classified.
pub fn campaign_summary(trials: &[CampaignTrial]) -> String {
    let mut order: Vec<&str> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for t in trials {
        match order.iter().position(|&o| o == t.outcome) {
            Some(i) => counts[i] += 1,
            None => {
                order.push(&t.outcome);
                counts.push(1);
            }
        }
    }
    let mut out = String::from("fault campaign summary\n======================\n");
    let total = trials.len();
    for (o, n) in order.iter().zip(&counts) {
        let pct = if total == 0 { 0.0 } else { 100.0 * *n as f64 / total as f64 };
        let _ = writeln!(out, "  {o:<18} {n:>6} ({pct:.1}%)");
    }
    let classified: usize = counts.iter().sum();
    let _ = writeln!(out, "  sum {classified}/{total}");
    out
}

/// Aggregate checkpoint/rollback counters for a whole campaign or batch
/// of recovered runs.
///
/// Telemetry deliberately knows nothing about recovery policies; the
/// runner reports its per-run counters as plain numbers through
/// [`RecoveryTotals::absorb`] and this layer stays a pure aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryTotals {
    /// Runs absorbed into these totals.
    pub runs: u64,
    /// Checkpoints taken across all runs (excluding the implicit one at
    /// cycle 0 of each run).
    pub checkpoints: u64,
    /// Rollback/re-execute events across all runs.
    pub rollbacks: u64,
    /// Dirty pages moved by checkpoint refreshes and restores — the
    /// measurable memory cost of the incremental checkpoint scheme.
    pub pages_moved: u64,
}

impl RecoveryTotals {
    /// Folds one run's recovery counters into the totals.
    pub fn absorb(&mut self, checkpoints: u64, rollbacks: u64, pages_moved: u64) {
        self.runs += 1;
        self.checkpoints += checkpoints;
        self.rollbacks += rollbacks;
        self.pages_moved += pages_moved;
    }

    /// Merges another accumulator into this one (shard reduction).
    pub fn merge(&mut self, other: &RecoveryTotals) {
        self.runs += other.runs;
        self.checkpoints += other.checkpoints;
        self.rollbacks += other.rollbacks;
        self.pages_moved += other.pages_moved;
    }
}

/// Renders the aggregate checkpoint/rollback counters as a short
/// human-readable block (appended to the campaign summary when recovery
/// is enabled).
pub fn recovery_summary(totals: &RecoveryTotals) -> String {
    let mut out = String::from("recovery totals\n---------------\n");
    let _ = writeln!(out, "  runs        {:>8}", totals.runs);
    let _ = writeln!(out, "  checkpoints {:>8}", totals.checkpoints);
    let _ = writeln!(out, "  rollbacks   {:>8}", totals.rollbacks);
    let _ = writeln!(out, "  pages moved {:>8}", totals.pages_moved);
    out
}

/// Renders detection→recovery coverage per fault target: for each target
/// (first-seen order), how many trials were run, how many faults were
/// *detected* (outcomes `detected`, `recovered`, `zeroized`), and how
/// many of those detections were *handled* safely (`recovered` — the run
/// completed with a correct result — or `zeroized` — the key was
/// destroyed before disclosure). The final column is handled/detected.
pub fn recovery_coverage(trials: &[CampaignTrial]) -> String {
    struct Row {
        trials: usize,
        detected: usize,
        recovered: usize,
        zeroized: usize,
    }
    let mut order: Vec<&str> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for t in trials {
        let i = match order.iter().position(|&o| o == t.target) {
            Some(i) => i,
            None => {
                order.push(&t.target);
                rows.push(Row { trials: 0, detected: 0, recovered: 0, zeroized: 0 });
                rows.len() - 1
            }
        };
        let row = &mut rows[i];
        row.trials += 1;
        match t.outcome.as_str() {
            "detected" => row.detected += 1,
            "recovered" => row.recovered += 1,
            "zeroized" => row.zeroized += 1,
            _ => {}
        }
    }
    let mut out = String::from("detection\u{2192}recovery coverage by target\n");
    out.push_str("target                 trials  detected  recovered  zeroized  coverage\n");
    let mut tot = Row { trials: 0, detected: 0, recovered: 0, zeroized: 0 };
    for (name, r) in order.iter().zip(&rows) {
        let detections = r.detected + r.recovered + r.zeroized;
        let handled = r.recovered + r.zeroized;
        let cov = if detections == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * handled as f64 / detections as f64)
        };
        let _ = writeln!(
            out,
            "  {name:<20} {:>6} {:>9} {:>10} {:>9} {cov:>9}",
            r.trials, detections, r.recovered, r.zeroized
        );
        tot.trials += r.trials;
        tot.detected += detections;
        tot.recovered += r.recovered;
        tot.zeroized += r.zeroized;
    }
    let handled = tot.recovered + tot.zeroized;
    let cov = if tot.detected == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * handled as f64 / tot.detected as f64)
    };
    let _ = writeln!(
        out,
        "  {:<20} {:>6} {:>9} {:>10} {:>9} {cov:>9}",
        "total", tot.trials, tot.detected, tot.recovered, tot.zeroized
    );
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn tiny_snapshot() -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let energy = CycleEnergy {
            cycle: 0,
            components: ComponentEnergy { clock: 2.0, regfile: 1.0, ..Default::default() },
        };
        reg.on_cycle(&CycleActivity::idle(0), &energy);
        reg.on_phase(&PhaseEvent { name: "round 1".into(), cycle: 1, index: 0 });
        reg.on_cycle(&CycleActivity::idle(1), &energy);
        reg.on_finish(&RunResult::default());
        reg.snapshot()
    }

    #[test]
    fn metrics_csv_has_phase_and_total_rows() {
        let snap = tiny_snapshot();
        let csv = metrics_csv(&snap);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + startup + round 1 + total
        assert!(lines[0].starts_with("phase,start_cycle,cycles,inst_bus"));
        assert!(lines[0].ends_with(",total_pj,min_pj,max_pj,p50_pj,p95_pj,p99_pj"));
        assert!(lines[1].starts_with("startup,0,1,"));
        assert!(lines[2].starts_with("round 1,1,1,"));
        assert!(lines[3].starts_with("total,0,2,"));
        // Every row has a value (possibly empty) for every header column.
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        // The distribution columns are phase-blind: empty on phase rows,
        // populated from the run-wide histogram on the total row.
        let fields = |line: &str| line.split(',').map(str::to_string).collect::<Vec<_>>();
        for line in &lines[1..3] {
            assert!(fields(line)[cols - 5..].iter().all(String::is_empty), "{line}");
        }
        let total_fields = fields(lines[3]);
        assert_eq!(total_fields[cols - 5], format!("{}", snap.cycle_energy.min()));
        assert_eq!(total_fields[cols - 4], format!("{}", snap.cycle_energy.max()));
        assert_eq!(total_fields[cols - 3], format!("{}", snap.cycle_energy.quantile(0.50)));
        // Phase totals sum to the grand total (total_pj is 6th from the end).
        let total = |line: &str| fields(line)[cols - 6].parse::<f64>().unwrap();
        assert!((total(lines[1]) + total(lines[2]) - total(lines[3])).abs() < 1e-12);
    }

    #[test]
    fn cycle_csv_tags_rows_with_the_current_phase() {
        let mut csv = CycleCsv::new();
        let energy = CycleEnergy { cycle: 0, components: ComponentEnergy::default() };
        csv.on_cycle(&CycleActivity::idle(0), &energy);
        csv.on_phase(&PhaseEvent { name: "key permutation".into(), cycle: 1, index: 0 });
        let energy1 = CycleEnergy { cycle: 1, components: ComponentEnergy::default() };
        csv.on_cycle(&CycleActivity::idle(1), &energy1);
        let doc = csv.into_csv();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].ends_with(",startup"));
        assert!(lines[2].ends_with(",key permutation"));
        // Header column count matches data column count.
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    fn trial(i: usize, outcome: &str, detail: &str) -> CampaignTrial {
        CampaignTrial {
            index: i,
            cycle: 10 * i as u64,
            bit: (i % 32) as u8,
            target: "id_ex.a".into(),
            model: "bit-flip".into(),
            outcome: outcome.into(),
            detail: detail.into(),
        }
    }

    #[test]
    fn campaign_csv_is_one_row_per_trial_with_sanitized_detail() {
        let trials = vec![
            trial(0, "no-effect", ""),
            trial(1, "crash", "cycle 3: fault, with comma\nnewline"),
        ];
        let csv = campaign_csv(&trials);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "trial,cycle,bit,target,model,outcome,detail");
        assert_eq!(lines[1], "0,0,0,id_ex.a,bit-flip,no-effect,");
        // The detail's comma and newline were flattened to ';'.
        assert_eq!(lines[2].split(',').count(), lines[0].split(',').count());
        assert!(lines[2].ends_with("cycle 3: fault; with comma;newline"));
    }

    #[test]
    fn campaign_summary_totals_classify_every_trial() {
        let trials = vec![
            trial(0, "no-effect", ""),
            trial(1, "detected", ""),
            trial(2, "no-effect", ""),
            trial(3, "wrong-ciphertext", ""),
        ];
        let s = campaign_summary(&trials);
        assert!(s.contains("no-effect"));
        assert!(s.contains("2 (50.0%)"));
        assert!(s.contains("sum 4/4"));
        assert!(campaign_summary(&[]).contains("sum 0/0"));
    }

    #[test]
    fn recovery_totals_absorb_and_merge() {
        let mut a = RecoveryTotals::default();
        a.absorb(3, 1, 40);
        a.absorb(2, 0, 10);
        assert_eq!(a, RecoveryTotals { runs: 2, checkpoints: 5, rollbacks: 1, pages_moved: 50 });
        let mut b = RecoveryTotals::default();
        b.absorb(1, 2, 5);
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert_eq!(a.rollbacks, 3);
        let s = recovery_summary(&a);
        assert!(s.contains("rollbacks"));
        assert!(s.contains("3"));
    }

    #[test]
    fn recovery_coverage_groups_by_target() {
        let mut t0 = trial(0, "recovered", "");
        t0.target = "regfile:r8".into();
        let mut t1 = trial(1, "zeroized", "");
        t1.target = "regfile:r8".into();
        let t2 = trial(2, "no-effect", "");
        let cov = recovery_coverage(&[t0, t1, t2]);
        assert!(cov.contains("regfile:r8"), "{cov}");
        assert!(cov.contains("100.0%"), "{cov}");
        // The no-effect-only target has no detections: coverage is '-'.
        let id_ex = cov.lines().find(|l| l.trim_start().starts_with("id_ex.a")).expect("row");
        assert!(id_ex.trim_end().ends_with('-'), "{id_ex}");
        assert!(cov.lines().last().expect("total").trim_start().starts_with("total"));
    }

    #[test]
    fn host_context_reports_cpus_and_renders_one_line() {
        let ctx = host_context(Some(4));
        assert!(ctx.cpus >= 1);
        assert_eq!(ctx.jobs, Some(4));
        let line = ctx.render();
        assert!(line.starts_with("host: "), "{line}");
        assert!(line.contains("jobs 4"), "{line}");
        // Without a jobs setting, the field is simply absent.
        let bare = HostContext { cpus: 1, cpuset: None, jobs: None };
        assert_eq!(bare.render(), "host: 1 cpu(s) visible\n");
        let pinned = HostContext { cpus: 8, cpuset: Some("0-3".into()), jobs: Some(2) };
        assert_eq!(pinned.render(), "host: 8 cpu(s) visible, cpuset 0-3, jobs 2\n");
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let s = summary(&tiny_snapshot());
        assert!(s.contains("run summary"));
        assert!(s.contains("cycles"));
        assert!(s.contains("round 1"));
        assert!(s.contains("pJ"));
    }
}
