//! `repro loadgen`: a many-client load generator and chaos-soak verifier
//! for the campaign service.
//!
//! N client threads submit a deterministic mixed-priority stream of small
//! jobs (the spec of job *k* is a pure function of `--seed` and *k*),
//! optionally cancelling a deterministic fraction, then wait for every
//! tracked job to reach a terminal state. Submission is *resilient*:
//! connection failures and `queue_full`/`class_quota` rejections back off
//! and retry, so the generator rides out the SIGTERM/SIGKILL restarts a
//! chaos harness injects between submissions.
//!
//! `--verify` is the determinism oracle: every job the service reports
//! `completed` is re-run *in this process* from its persisted spec — one
//! worker, no scheduler, no preemption — and the service's CSV must be
//! byte-identical to the solo run. Preempted, retried, parked, and
//! resumed jobs all pass through the same comparison; any supervision
//! history that changes a result byte is a bug this tool turns into a
//! nonzero exit.

use crate::service::BenchRunner;
use emask_par::CancelToken;
use emask_serve::json::{parse, Json};
use emask_serve::{client, ExperimentRunner, JobCtx, JobSink, JobSpec, RunStatus};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything `repro loadgen` configures.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server's Unix socket.
    pub socket: PathBuf,
    /// The server's state directory (spec/CSV files; used by `verify`).
    pub state_dir: PathBuf,
    /// Concurrent client threads.
    pub clients: usize,
    /// Jobs each client submits.
    pub per_client: usize,
    /// Base seed: the whole submitted workload is a pure function of it.
    pub seed: u64,
    /// Percent (0..=100) of submitted jobs each client cancels right
    /// after submission.
    pub cancel_pct: u32,
    /// Overall budget for submitting and draining, in seconds.
    pub wait_secs: u64,
    /// Re-run every completed job solo and byte-compare its CSV.
    pub verify: bool,
}

/// What one `loadgen` run did and observed.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    /// Jobs successfully submitted (tracked ids).
    pub submitted: u64,
    /// Cancel requests issued.
    pub cancels: u64,
    /// Submissions given up on (server unreachable past the deadline or
    /// rejected for a non-transient reason).
    pub failed_submits: u64,
    /// Terminal state of every tracked job, by state name.
    pub by_state: BTreeMap<String, u64>,
    /// Completed jobs whose CSV was byte-compared against a solo re-run.
    pub verified: u64,
    /// Verified jobs whose CSV differed — any nonzero count is a
    /// determinism bug.
    pub mismatches: u64,
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "loadgen: {} submitted, {} cancels, {} failed submits",
            self.submitted, self.cancels, self.failed_submits
        )?;
        for (state, n) in &self.by_state {
            writeln!(f, "  {state}: {n}")?;
        }
        if self.verified > 0 || self.mismatches > 0 {
            writeln!(
                f,
                "  verified {} completed jobs against solo re-runs: {} mismatches",
                self.verified, self.mismatches
            )?;
        }
        Ok(())
    }
}

/// SplitMix64: the workload's deterministic generator.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spec of workload job `index` — a pure function of `(seed, index)`,
/// so two loadgen runs with the same flags submit the same workload.
#[must_use]
pub fn workload_spec(seed: u64, index: u64) -> JobSpec {
    let r = mix(seed ^ mix(index));
    let priority = match r % 10 {
        0 | 1 => "high",
        2..=6 => "normal",
        _ => "batch",
    };
    let mut spec = JobSpec {
        priority: priority.into(),
        jobs: 1 + usize::try_from((r >> 8) % 4).unwrap_or(0),
        seed: (r >> 16) % 97,
        ..JobSpec::default()
    };
    match (r >> 4) % 10 {
        // Fault campaigns dominate: they checkpoint, so they exercise
        // the preempt/park/resume machinery hardest.
        0..=3 => {
            spec.experiment = "fault".into();
            spec.trials = 48 + usize::try_from((r >> 24) % 64).unwrap_or(0);
            spec.recover = true;
        }
        4..=6 => {
            spec.experiment = "tvla".into();
            spec.trials = 8 + usize::try_from((r >> 24) % 8).unwrap_or(0);
        }
        7 | 8 => {
            spec.experiment = "dpa".into();
            spec.trials = 32 + usize::try_from((r >> 24) % 32).unwrap_or(0);
        }
        _ => {
            spec.experiment = "leakage".into();
            spec.trials = 16;
        }
    }
    spec
}

/// Submits one spec, riding out server restarts and admission
/// backpressure until `deadline`. Returns the job id, or `None` once the
/// deadline passes or the rejection is non-transient.
fn resilient_submit(socket: &Path, spec_json: &str, deadline: Instant) -> Option<u64> {
    loop {
        match client::submit(socket, spec_json) {
            Ok(id) => return Some(id),
            // The server is down (chaos restart) or saturated: both heal.
            Err(client::ClientError::Io(_)) => {}
            Err(client::ClientError::Rejected(kind, _))
                if kind == "queue_full" || kind == "class_quota" => {}
            Err(_) => return None,
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls `status` until every tracked job is terminal (or the deadline
/// passes), returning each job's last observed state name.
fn drain(socket: &Path, tracked: &[u64], deadline: Instant) -> BTreeMap<u64, String> {
    let mut states: BTreeMap<u64, String> = BTreeMap::new();
    loop {
        if let Ok(line) = client::status(socket) {
            if let Ok(doc) = parse(&line) {
                if let Some(Json::Arr(rows)) = doc.get("jobs") {
                    for row in rows {
                        let (Some(id), Some(state)) = (
                            row.get("job").and_then(Json::as_u64),
                            row.get("state").and_then(Json::as_str),
                        ) else {
                            continue;
                        };
                        if tracked.contains(&id) {
                            states.insert(id, state.to_string());
                        }
                    }
                }
            }
        }
        let all_terminal = tracked.len() == states.len()
            && states.values().all(|s| s != "queued" && s != "running");
        if all_terminal || Instant::now() >= deadline {
            return states;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Re-runs a completed job's persisted spec solo (one worker, no
/// scheduler) and byte-compares the service's CSV. `Ok(true)` =
/// identical.
fn verify_job(state_dir: &Path, id: u64) -> Result<bool, String> {
    let spec_text = std::fs::read_to_string(state_dir.join(format!("job-{id}.spec.json")))
        .map_err(|e| format!("job {id}: spec: {e}"))?;
    let spec = JobSpec::from_json(&spec_text).map_err(|e| format!("job {id}: {e}"))?;
    let service_csv = std::fs::read_to_string(state_dir.join(format!("job-{id}.csv")))
        .map_err(|e| format!("job {id}: csv: {e}"))?;
    let scratch =
        std::env::temp_dir().join(format!("emask-loadgen-verify-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let sink = JobSink::open(&scratch.join("events.jsonl")).map_err(|e| e.to_string())?;
    let token = CancelToken::new();
    let ctx = JobCtx {
        token: &token,
        sink: &sink,
        checkpoint: &scratch.join("ckpt"),
        span: emask_telemetry::SpanId::ROOT,
        workers: 1,
    };
    let status = BenchRunner.run(&spec, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    match status {
        RunStatus::Done { csv } => Ok(csv == service_csv),
        other => Err(format!("job {id}: solo re-run did not complete: {other:?}")),
    }
}

/// Runs the whole load generation: submit from N clients, drain, verify.
///
/// # Errors
///
/// Setup/verification IO failures. Determinism mismatches are *not*
/// errors here — they are counted in the report so the caller can decide
/// the exit code (and print the report first).
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let deadline = Instant::now() + Duration::from_secs(cfg.wait_secs.max(1));
    let mut report = LoadgenReport::default();
    let tracked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let counters: Mutex<(u64, u64, u64)> = Mutex::new((0, 0, 0)); // submitted, cancels, failed
    std::thread::scope(|scope| {
        for c in 0..cfg.clients.max(1) {
            let (tracked, counters) = (&tracked, &counters);
            scope.spawn(move || {
                for k in 0..cfg.per_client {
                    let index = (c * cfg.per_client + k) as u64;
                    let spec = workload_spec(cfg.seed, index);
                    let Some(id) = resilient_submit(&cfg.socket, &spec.to_json(), deadline) else {
                        counters.lock().expect("loadgen poisoned").2 += 1;
                        continue;
                    };
                    tracked.lock().expect("loadgen poisoned").push(id);
                    counters.lock().expect("loadgen poisoned").0 += 1;
                    // The cancel decision is part of the deterministic
                    // workload too (whether it lands before the job
                    // finishes is scheduling-dependent, and both
                    // outcomes are valid terminal histories).
                    if mix(cfg.seed ^ mix(index ^ 0xCA4C)) % 100 < u64::from(cfg.cancel_pct)
                        && client::cancel(&cfg.socket, id).is_ok()
                    {
                        counters.lock().expect("loadgen poisoned").1 += 1;
                    }
                }
            });
        }
    });
    let mut tracked = tracked.into_inner().expect("loadgen poisoned");
    tracked.sort_unstable();
    let (submitted, cancels, failed) = counters.into_inner().expect("loadgen poisoned");
    report.submitted = submitted;
    report.cancels = cancels;
    report.failed_submits = failed;
    let states = drain(&cfg.socket, &tracked, deadline);
    for id in &tracked {
        let state = states.get(id).cloned().unwrap_or_else(|| "unknown".into());
        *report.by_state.entry(state).or_insert(0) += 1;
    }
    if cfg.verify {
        for (&id, state) in &states {
            if state == "completed" {
                report.verified += 1;
                if !verify_job(&cfg.state_dir, id)? {
                    eprintln!("loadgen: job {id}: CSV differs from its solo re-run");
                    report.mismatches += 1;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_a_pure_function_of_seed_and_index() {
        for index in 0..64 {
            let a = workload_spec(7, index);
            let b = workload_spec(7, index);
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json());
        }
        assert_ne!(workload_spec(7, 0).to_json(), workload_spec(8, 0).to_json());
    }

    #[test]
    fn workload_specs_are_valid_and_mixed() {
        let mut classes = std::collections::BTreeSet::new();
        let mut experiments = std::collections::BTreeSet::new();
        for index in 0..200 {
            let spec = workload_spec(42, index);
            // Every generated spec must round-trip and be admissible.
            assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
            BenchRunner.admit(&spec).unwrap();
            classes.insert(spec.priority.clone());
            experiments.insert(spec.experiment.clone());
        }
        assert_eq!(classes.len(), 3, "all three priority classes appear: {classes:?}");
        assert!(experiments.len() >= 3, "a real experiment mix: {experiments:?}");
    }
}
