//! End-to-end fault tolerance: a *real* injected fault — planted with the
//! same `FaultInjector` + `DualRailChecker` pair the campaigns use — must
//! be detected by the dual-rail discipline, rolled back, and re-executed
//! so transparently that the recovered run is indistinguishable from a
//! clean one: a golden-checked ciphertext and the same retired-instruction
//! stream. (Recovered runs model no energy; the conformance suite's
//! checkpoint round trip shows that a rollback replays the activity
//! stream bit for bit.) Persistent faults must
//! exhaust the rollback budget and zeroize; campaign-level panics, hangs,
//! and kill/resume are covered by the crate's unit tests and by the
//! 4-job campaign test below.

use emask_bench::run_campaign;
use emask_bench::{CampaignConfig, CampaignReport, FaultOutcome};
use emask_core::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes, RecoveryPolicy, RunError};
use emask_cpu::{CpuErrorKind, FaultLane, RailMode};
use emask_fault::{
    DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
};
use emask_par::{CancelToken, Jobs};
use emask_telemetry::NullSink;

const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;
const KEY: u64 = 0x1334_5779_9BBC_DFF1;

/// An uncheckpointed, uncancelled campaign at `jobs` workers.
fn campaign(des: &MaskedDes, cfg: &CampaignConfig, jobs: usize) -> CampaignReport {
    let jobs = Jobs::new(jobs).expect("jobs");
    run_campaign(des, cfg, jobs, &CancelToken::new(), None, &NullSink).expect("campaign")
}

fn device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round selective device")
}

/// A transient single-rail strike timed to hit a secure store while its
/// data sits in the EX/MEM latch — the fault family the dual-rail
/// checker reliably detects. The exact cycle depends on the compiled
/// program, so the caller calibrates it against the clean run.
fn transient_spec(cycle: u64) -> FaultSpec {
    FaultSpec {
        trigger: FaultTrigger::AtCycle(cycle),
        target: FaultTarget::Lane(FaultLane::ExMemStore, RailMode::TrueOnly),
        model: FaultModel::BitFlip { bit: 15 },
    }
}

/// Scans the middle of the clean run for a strike cycle whose fault the
/// checker detects fail-stop, proving the fault is real before the
/// recovery differential uses it.
fn calibrate_detected_strike(des: &MaskedDes, clean_cycles: u64) -> u64 {
    for step in 0..200 {
        let cycle = clean_cycles * 3 / 10 + step * clean_cycles / 400;
        let mut hook =
            (FaultInjector::new(FaultPlan::single(transient_spec(cycle))), DualRailChecker::new());
        let result = des.encrypt_hooked(PLAINTEXT, KEY, &mut hook);
        if let Err(RunError::Cpu(e)) = &result {
            if matches!(e.kind, CpuErrorKind::DualRailViolation { .. }) {
                assert!(hook.0.any_injected(), "detection without a landed strike");
                return cycle;
            }
        }
    }
    panic!("no strike cycle in the scanned window was detected");
}

#[test]
fn real_injected_fault_is_detected_then_recovered_transparently() {
    let des = device();
    let clean = des.encrypt(PLAINTEXT, KEY).expect("clean run");
    // Fail-stop detection first: encrypt_hooked dies on this fault.
    let strike = calibrate_detected_strike(&des, clean.stats.cycles);

    // With recovery, the same fault rolls back and replays to the clean
    // run's result.
    let mut hook =
        (FaultInjector::new(FaultPlan::single(transient_spec(strike))), DualRailChecker::new());
    let recovered = des
        .encrypt_recovered(PLAINTEXT, KEY, &mut hook, &RecoveryPolicy::default())
        .expect("transient fault must recover");
    assert!(hook.0.any_injected());
    assert!(recovered.recovery.rollbacks >= 1, "{:?}", recovered.recovery);
    assert_eq!(recovered.stats, clean.stats, "retired stream must replay identically");
}

#[test]
fn persistent_fault_exhausts_the_budget_and_zeroizes() {
    let des = device();
    // A stuck-at line re-asserts itself on every replay: the injector's
    // one-shot state does not apply, so each rollback re-detects.
    let spec = FaultSpec {
        trigger: FaultTrigger::CycleWindow { start: 0, end: u64::MAX },
        target: FaultTarget::Lane(FaultLane::IdExA, RailMode::TrueOnly),
        model: FaultModel::StuckAt { bit: 0, stuck_one: true },
    };
    let mut hook = (FaultInjector::new(FaultPlan::single(spec)), DualRailChecker::new());
    let err = des
        .encrypt_recovered(PLAINTEXT, KEY, &mut hook, &RecoveryPolicy::default())
        .expect_err("persistent fault must not complete");
    match err {
        RunError::Zeroized { rollbacks, .. } => assert_eq!(rollbacks, RecoveryPolicy::MAX_RETRIES),
        other => panic!("expected Zeroized, got {other}"),
    }
}

#[test]
fn recovery_campaign_under_4_jobs_matches_serial_and_covers_detections() {
    let des = device();
    let cfg = CampaignConfig {
        trials: 60,
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    };
    let serial = campaign(&des, &cfg, 1);
    let par = campaign(&des, &cfg, 4);
    assert_eq!(par.csv(), serial.csv());
    assert_eq!(par.summary(), serial.summary());
    assert_eq!(par.recovery, serial.recovery);
    // Recovery leaves no fail-stop detections behind: every detected
    // fault was either replayed to a correct result or zeroized.
    assert_eq!(par.count(FaultOutcome::Detected), 0, "summary:\n{}", par.summary());
    assert!(par.count(FaultOutcome::Recovered) > 0, "summary:\n{}", par.summary());
}

#[test]
fn panicking_trial_in_a_4_job_campaign_is_data_not_fatal() {
    let des = device();
    let cfg = CampaignConfig {
        trials: 24,
        panic_trial: Some(7),
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    };
    let report = campaign(&des, &cfg, 4);
    assert_eq!(report.total(), 24);
    assert_eq!(report.count(FaultOutcome::Panic), 1);
    assert_eq!(report.trials[7].outcome, FaultOutcome::Panic);
}
