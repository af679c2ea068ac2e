//! CSV and human-readable run exports.
//!
//! * [`metrics_csv`] — per-phase × per-component energy totals from a
//!   [`MetricsSnapshot`] (the `--metrics-out` format);
//! * [`summary`] — the human-readable run report behind `--summary`;
//! * [`summary_with_host`] — the same report with the host's
//!   [`HostContext`] appended.

use crate::metrics::{op_class_name, MetricsSnapshot, OP_CLASSES};
use emask_energy::ComponentEnergy;
use std::fmt::Write as _;

/// The component column order of [`metrics_csv`].
const COMPONENT_COLUMNS: [&str; 9] = [
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::observer::{PhaseEvent, RunObserver};
    use emask_cpu::{CycleActivity, RunResult};
    use emask_energy::CycleEnergy;

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
