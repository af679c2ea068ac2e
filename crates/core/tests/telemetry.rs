//! Integration tests for the telemetry layer: the per-cycle metrics
//! must agree with the trace algebra the rest of the evaluation uses, and
//! the exporters must produce byte-stable artifacts.

use emask_core::{
    ChromeTrace, DesProgramSpec, EncryptionRun, MaskPolicy, MaskedDes, MetricsRegistry, Phase,
};
use emask_cpu::{CycleActivity, RunResult};
use emask_energy::CycleEnergy;
use emask_telemetry::{fnv1a, metrics_csv, summary};

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

/// One 1-round encryption under `policy`, each cycle handed to `observe`.
fn observed_run(
    policy: MaskPolicy,
    observe: impl FnMut(&CycleActivity, &CycleEnergy, Option<Phase>),
) -> EncryptionRun {
    let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 1 }).expect("compile");
    des.encrypt_observed(PLAINTEXT, KEY, observe).expect("run")
}

/// The selectively-masked 1-round run's metrics, with its statistics set.
fn metered_run() -> (MetricsRegistry, EncryptionRun) {
    let mut metrics = MetricsRegistry::new();
    let run = observed_run(MaskPolicy::Selective, |act, energy, phase| {
        metrics.record(act, energy, phase.map(|p| p.to_string()).as_deref());
    });
    metrics.run = run.stats;
    (metrics, run)
}

#[test]
fn metrics_phase_totals_match_phase_trace_sums() {
    let (snapshot, run) = metered_run();

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
    assert!((snapshot.energy.total() - run.trace.total_pj()).abs() < 1e-6);
    let cycles: u64 = snapshot.phases.iter().map(|p| p.cycles).sum();
    assert_eq!(cycles, run.stats.cycles);
    assert_eq!(snapshot.cycle_energy.count(), run.stats.cycles);
    let mix: u64 = snapshot.mix.iter().map(|m| m.total()).sum();
    assert_eq!(mix, run.stats.retired);
    assert_eq!(snapshot.phases[0].name, "startup");
}

#[test]
fn the_activity_stream_recounts_the_run_result() {
    // The metrics keep the pipeline's own counters instead of recounting
    // them from the activity stream; this pins that the two agree.
    for policy in [
        MaskPolicy::None,
        MaskPolicy::Selective,
        MaskPolicy::AllLoadsStores,
        MaskPolicy::AllInstructions,
    ] {
        let mut counted = RunResult::default();
        let run = observed_run(policy, |act, _, _| {
            counted.cycles += 1;
            counted.stalls += u64::from(act.stalled);
            counted.flushed += u64::from(act.flushed);
            if let Some(inst) = &act.retired {
                counted.retired += 1;
                counted.retired_secure += u64::from(inst.secure);
            }
        });
        counted.loads = run.stats.loads;
        counted.stores = run.stats.stores;
        assert_eq!(counted, run.stats, "{policy}");
        assert!(run.stats.retired_secure > 0 || policy == MaskPolicy::None, "{policy}");
    }
}

#[test]
fn chrome_trace_export_is_golden() {
    let mut chrome = ChromeTrace::new();
    let run = observed_run(MaskPolicy::Selective, |act, _, phase| {
        chrome.record(act, phase.map(|p| p.to_string()).as_deref());
    });
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
    let (snapshot, run) = metered_run();

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

#[test]
fn metrics_csv_and_summary_are_golden() {
    let (snapshot, _) = metered_run();

    // Golden fingerprints of the byte-exact exporter output for the fixed
    // key/plaintext 1-round run, the files `repro fig6 --rounds 1
    // --metrics-out m.csv --summary` writes and prints.
    let csv = metrics_csv(&snapshot);
    assert_eq!(csv.len(), 1_219, "metrics CSV length drifted");
    assert_eq!(fnv1a(csv.as_bytes()), 0x4737_67C3_DEBE_F86B, "metrics CSV bytes drifted");
    let report = summary(&snapshot);
    assert_eq!(report.len(), 1_105, "summary length drifted");
    assert_eq!(fnv1a(report.as_bytes()), 0x4405_20C5_507F_149A, "summary bytes drifted");
}
