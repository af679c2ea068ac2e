//! End-to-end determinism of the parallel execution layer: the fault
//! campaign and the attack campaigns must produce byte-identical reports
//! for any `--jobs` count, and the fault campaign must produce the same
//! bytes with or without its checkpoint store.

use emask_bench::run_campaign;
use emask_bench::CampaignConfig;
use emask_bench::{dpa_attack, tvla};
use emask_core::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes, RecoveryPolicy};
use emask_par::{CancelToken, Jobs};
use emask_telemetry::{Event, EventSink, NullSink};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round selective device")
}

/// An ordered in-memory sink.
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn new() -> Self {
        Collect(Mutex::new(Vec::new()))
    }

    /// The replayable JSONL document this campaign would stream.
    fn replayable_jsonl(&self) -> String {
        let events = self.0.lock().expect("collect sink");
        events.iter().filter(|e| e.is_replayable()).map(|e| e.to_json() + "\n").collect()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: Event) {
        self.0.lock().expect("collect sink").push(event);
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("emask-parallel-{}-{name}.ckpt", std::process::id()))
}

#[test]
fn fault_campaign_is_byte_identical_for_jobs_1_4_and_7() {
    let des = device();
    let cfg = CampaignConfig { trials: 60, ..CampaignConfig::default() };
    let run = |jobs: usize| {
        let jobs = Jobs::new(jobs).unwrap();
        run_campaign(&des, &cfg, jobs, &CancelToken::new(), None, &NullSink).expect("campaign")
    };
    let serial = run(1);
    for jobs in [4, 7] {
        let par = run(jobs);
        assert_eq!(par.csv(), serial.csv(), "jobs={jobs} changed the trial rows");
        assert_eq!(par.counts, serial.counts, "jobs={jobs} changed the outcome counts");
        assert_eq!(par.clean_cycles, serial.clean_cycles);
    }
}

#[test]
fn checkpointed_and_plain_campaigns_are_byte_identical_at_jobs_1_and_4() {
    let des = device();
    let cfg = CampaignConfig {
        trials: 40,
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    };
    // (CSV + summary, replayable stream) of one campaign.
    let run = |jobs: usize, checkpoint: Option<&Path>| {
        let sink = Collect::new();
        let jobs = Jobs::new(jobs).unwrap();
        let report = run_campaign(&des, &cfg, jobs, &CancelToken::new(), checkpoint, &sink)
            .expect("campaign");
        (report.csv() + &report.summary(), sink.replayable_jsonl())
    };
    let plain = run(1, None);
    assert_eq!(plain.1.lines().count(), 2 + 40, "header, one outcome per trial, trailer");
    for jobs in [1, 4] {
        let path = tmp_path(&format!("plain-vs-store-{jobs}"));
        let _ = std::fs::remove_file(&path);
        let stored = run(jobs, Some(&path));
        assert!(path.exists(), "jobs={jobs}: the checkpoint was written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(stored.0, plain.0, "jobs={jobs}: the checkpoint store changed the CSV");
        assert_eq!(stored.1, plain.1, "jobs={jobs}: the checkpoint store changed the stream");
        assert_eq!(run(jobs, None), plain, "jobs={jobs}");
    }
}

#[test]
fn dpa_experiment_peaks_are_bit_identical_across_job_counts() {
    let run = |jobs: usize| {
        let jobs = Jobs::new(jobs).unwrap();
        dpa_attack(MaskPolicy::None, 1, 64, 0, jobs, &CancelToken::new(), 0, &NullSink)
            .expect("uncancelled")
    };
    let serial = run(1);
    for jobs in [4, 7] {
        let par = run(jobs);
        assert_eq!(par.result.best_guess, serial.result.best_guess);
        for (a, b) in par.result.peaks.iter().zip(&serial.result.peaks) {
            assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs} perturbed a peak");
        }
    }
}

#[test]
fn tvla_experiment_t_statistic_is_bit_identical_across_job_counts() {
    let run = |jobs: usize| {
        let jobs = Jobs::new(jobs).unwrap();
        tvla(MaskPolicy::None, 1, 8, 3, jobs, &CancelToken::new(), 0, &NullSink)
            .expect("uncancelled")
    };
    let (serial, par) = (run(1), run(5));
    assert_eq!(par.max_t.to_bits(), serial.max_t.to_bits());
    assert_eq!(par.leaky_cycles, serial.leaky_cycles);
}
