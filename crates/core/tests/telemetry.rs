//! Integration tests for the telemetry layer: the observer-fed metrics
//! must agree with the trace algebra the rest of the evaluation uses, and
//! the exporters must produce byte-stable artifacts.

use emask_core::{
    ChromeTrace, DesProgramSpec, EncryptionRun, MaskPolicy, MaskedDes, MetricsRegistry,
};
use emask_telemetry::{fnv1a, metrics_csv, summary};

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

/// One selectively-masked 1-round encryption, observed by `obs`.
fn observed_run<O: emask_core::RunObserver>(obs: &mut O) -> EncryptionRun {
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile");
    des.encrypt_observed(PLAINTEXT, KEY, obs).expect("run")
}

#[test]
fn metrics_phase_totals_match_phase_trace_sums() {
    let mut metrics = MetricsRegistry::new();
    let run = observed_run(&mut metrics);
    let snapshot = metrics.snapshot();

    // Every marker-derived phase of the run must appear in the snapshot
    // with exactly the energy the trace algebra assigns to its window.
    assert!(!run.markers.is_empty());
    for marker in &run.markers {
        let expected = run.phase_trace(marker.phase).expect("window").total_pj();
        let got = snapshot
            .phase(&marker.phase.to_string())
            .unwrap_or_else(|| panic!("phase {} missing from snapshot", marker.phase))
            .energy
            .total();
        assert!(
            (got - expected).abs() < 1e-6,
            "{}: metrics {got} pJ vs phase_trace {expected} pJ",
            marker.phase
        );
    }

    // The phases partition the run: startup + marked phases == whole trace.
    let phase_sum: f64 = snapshot.phases.iter().map(|p| p.energy.total()).sum();
    assert!((phase_sum - run.trace.total_pj()).abs() < 1e-6);
    assert!((snapshot.total_pj() - run.trace.total_pj()).abs() < 1e-6);
    assert_eq!(snapshot.cycles, run.stats.cycles);
    assert_eq!(snapshot.retired, run.stats.retired);
    assert_eq!(snapshot.phases[0].name, "startup");
}

#[test]
fn composed_observers_each_see_the_full_run() {
    let mut obs = (MetricsRegistry::new(), MetricsRegistry::new());
    let run = observed_run(&mut obs);
    let (a, b) = (obs.0.snapshot(), obs.1.snapshot());
    assert_eq!(a.cycles, run.stats.cycles);
    assert_eq!(a.cycles, b.cycles);
    assert!((a.total_pj() - b.total_pj()).abs() < 1e-12);
    assert_eq!(a.phases.len(), b.phases.len());
}

#[test]
fn chrome_trace_export_is_golden() {
    let mut chrome = ChromeTrace::new();
    let run = observed_run(&mut chrome);
    let json = chrome.render();

    // Structural checks: valid-looking trace-event JSON with one instant
    // event per phase marker.
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.ends_with("]}\n") || json.ends_with("]}"));
    assert_eq!(json.matches("\"ph\":\"i\"").count(), run.markers.len());
    assert_eq!(json.matches("\"thread_name\"").count(), 7);
    let braces: i64 = json
        .bytes()
        .map(|b| match b {
            b'{' => 1,
            b'}' => -1,
            _ => 0,
        })
        .sum();
    assert_eq!(braces, 0, "unbalanced braces");

    // Golden fingerprint of the byte-exact output for the fixed
    // key/plaintext 1-round run. If an intentional format change lands,
    // regenerate with: cargo run -p emask-bench --bin repro -- --rounds 1
    // --trace-out /tmp/t.json and re-fingerprint.
    assert_eq!(json.len(), 1_569_808, "trace JSON length drifted");
    assert_eq!(fnv1a(json.as_bytes()), 0x6491_FE90_7741_551F, "trace JSON bytes drifted");
}

#[test]
fn metrics_csv_and_summary_render_the_run() {
    let mut metrics = MetricsRegistry::new();
    let run = observed_run(&mut metrics);
    let snapshot = metrics.snapshot();

    let csv = metrics_csv(&snapshot);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "phase,start_cycle,cycles,inst_bus,operand_latches,functional_units,\
         result_bus,mem_bus,writeback_latch,regfile,memory,clock,total_pj,\
         min_pj,max_pj,p50_pj,p95_pj,p99_pj"
    );
    // startup + IP + PC-1 + round 1 + FP, plus the trailing total row.
    assert_eq!(csv.lines().count(), 1 + 5 + 1);
    let total_row = csv.lines().last().unwrap();
    assert!(total_row.starts_with("total,0,"));
    // total_pj sits 5 fields before the end (the per-cycle distribution
    // columns trail it) and must reconcile with the trace algebra.
    let fields: Vec<&str> = total_row.split(',').collect();
    let total: f64 = fields[fields.len() - 6].parse().unwrap();
    assert!((total - run.trace.total_pj()).abs() < 1e-6);

    let report = summary(&snapshot);
    assert!(report.contains("run summary"));
    assert!(report.contains("instruction mix"));
    assert!(report.contains("round 1"));
}
