//! Property test for the supervisor state machine: random sequences of
//! submit (any class) / cancel / deadline / preemption-pressure
//! operations against a live multi-executor supervisor never produce an
//! illegal lifecycle transition, and every terminal job records exactly
//! one terminal event in its replayable `events.jsonl` history.
//!
//! The legal machine (mirrored from the module docs of
//! `supervisor.rs`):
//!
//! ```text
//! (none) --job_queued--> Queued --job_started--> Running
//! Running --job_preempted--> Queued          (requeued at class front)
//! Queued  --job_promoted--> Queued           (class change only)
//! Running --job_retried--> Running           (backoff between attempts)
//! Queued|Running --job_cancelled--> terminal
//! Running --job_completed|job_deadline_exceeded--> terminal
//! ```

#![allow(clippy::unwrap_used)]

use emask_par::Interrupted;
use emask_serve::{ExperimentRunner, JobCtx, JobSpec, RunStatus, ServerConfig, Supervisor};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic LCG experiment, one trial per millisecond, with the
/// same checkpoint/park protocol the real campaigns use.
struct StepRunner;

impl ExperimentRunner for StepRunner {
    fn admit(&self, spec: &JobSpec) -> Result<u64, String> {
        if spec.experiment != "step" {
            return Err(format!("unknown experiment '{}'", spec.experiment));
        }
        Ok(spec.trials as u64 * 1024)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
        let (start, mut acc) = std::fs::read_to_string(ctx.checkpoint)
            .ok()
            .and_then(|s| {
                let (t, a) = s.trim().split_once(' ')?;
                Some((t.parse().ok()?, a.parse().ok()?))
            })
            .unwrap_or((0usize, spec.seed));
        for t in start..spec.trials {
            if let Err(reason) = ctx.token.check() {
                std::fs::write(ctx.checkpoint, format!("{t} {acc}")).unwrap();
                return RunStatus::Interrupted(Interrupted { reason, completed_trials: t - start });
            }
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(t as u64);
            std::thread::sleep(Duration::from_millis(1));
        }
        RunStatus::Done { csv: format!("trials,acc\n{},{acc}\n", spec.trials) }
    }
}

/// Unique state dir per proptest case (cases run in one process).
fn case_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("emask-serve-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CLASSES: [&str; 3] = ["high", "normal", "batch"];

/// Decode one opcode byte into an operation against the supervisor.
/// Submission failures (quota, queue depth) are legal outcomes, not
/// errors — the property is about the jobs that were admitted.
fn apply_op(sup: &Supervisor<StepRunner>, b: u8, ids: &mut Vec<u64>) {
    match b % 8 {
        // Submit: class and length drawn from the high bits.
        0..=3 => {
            let spec = JobSpec {
                experiment: "step".into(),
                trials: 1 + (b as usize >> 2) % 40,
                priority: CLASSES[(b as usize >> 3) % 3].into(),
                ..JobSpec::default()
            };
            if let Ok(id) = sup.submit(spec) {
                ids.push(id);
            }
        }
        // Submit a longer batch job — preemption fodder for later highs.
        4 => {
            let spec = JobSpec {
                experiment: "step".into(),
                trials: 120,
                priority: "batch".into(),
                ..JobSpec::default()
            };
            if let Ok(id) = sup.submit(spec) {
                ids.push(id);
            }
        }
        // Submit with a short deadline over an unfinishable run.
        5 => {
            let spec = JobSpec {
                experiment: "step".into(),
                trials: 100_000,
                deadline_ms: Some(10),
                priority: CLASSES[(b as usize >> 3) % 3].into(),
                ..JobSpec::default()
            };
            if let Ok(id) = sup.submit(spec) {
                ids.push(id);
            }
        }
        // Cancel one of the jobs submitted so far (already-terminal is a
        // typed error, which is fine).
        6 => {
            if !ids.is_empty() {
                let _ = sup.cancel(ids[(b as usize >> 3) % ids.len()]);
            }
        }
        // Let the executors make progress.
        _ => std::thread::sleep(Duration::from_millis(2)),
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum S {
    Queued,
    Running,
    Terminal,
}

/// Replays one job's `events.jsonl` through the legal state machine.
fn validate_history(events: &str) -> Result<(), String> {
    let mut state: Option<S> = None;
    let mut terminals = 0u32;
    for line in events.lines() {
        let kind = match line.split("\"event\":\"").nth(1).and_then(|r| r.split('"').next()) {
            Some(k) => k,
            None => continue,
        };
        let expected: &[Option<S>] = match kind {
            "job_queued" => &[None],
            "job_started" => &[Some(S::Queued)],
            "job_preempted" => &[Some(S::Running)],
            "job_promoted" => &[Some(S::Queued)],
            "job_retried" => &[Some(S::Running)],
            "job_completed" | "job_cancelled" | "job_deadline_exceeded" => {
                &[Some(S::Queued), Some(S::Running)]
            }
            // Span open/close and operational kinds carry no state.
            _ => continue,
        };
        if !expected.contains(&state) {
            return Err(format!("illegal {kind} from {state:?} in:\n{events}"));
        }
        state = Some(match kind {
            "job_started" => S::Running,
            "job_preempted" | "job_promoted" => S::Queued,
            "job_retried" => S::Running,
            "job_queued" => S::Queued,
            _ => {
                terminals += 1;
                S::Terminal
            }
        });
    }
    if state != Some(S::Terminal) {
        return Err(format!("history ends non-terminal ({state:?}):\n{events}"));
    }
    if terminals != 1 {
        return Err(format!("{terminals} terminal events (want exactly 1):\n{events}"));
    }
    Ok(())
}

fn run_sequence(ops: &[u8]) {
    let dir = case_dir();
    let cfg = ServerConfig {
        executors: 2,
        thread_budget: 2,
        aging_threshold: 2,
        ..ServerConfig::new(dir.clone())
    };
    let sup = Arc::new(Supervisor::new(cfg, StepRunner).unwrap());
    let execs: Vec<_> = (0..2)
        .map(|_| {
            let sup = Arc::clone(&sup);
            std::thread::spawn(move || sup.run_executor())
        })
        .collect();

    let mut ids = Vec::new();
    for &b in ops {
        apply_op(&sup, b, &mut ids);
    }

    // Drain: every admitted job reaches a terminal state (all runs are
    // short, cancelled, or deadline-bounded).
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in &ids {
        loop {
            let state = sup.job_state(id).unwrap();
            if state.terminal() {
                break;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in {state}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    sup.begin_shutdown();
    for e in execs {
        e.join().unwrap();
    }

    for &id in &ids {
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        if let Err(e) = validate_history(&events) {
            panic!("job {id}: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_op_sequences_never_break_the_state_machine(
        ops in proptest::collection::vec(any::<u8>(), 1..48)
    ) {
        run_sequence(&ops);
    }
}
