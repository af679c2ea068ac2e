//! Supervision semantics under a deterministic mock experiment:
//! cancellation, deadlines, retry/backoff, admission control, and the
//! shutdown→restart→resume byte-identity contract.

#![allow(clippy::unwrap_used)]

use emask_par::Interrupted;
use emask_serve::{
    client, ExperimentRunner, JobCtx, JobSpec, JobState, RejectReason, RunStatus, ServerConfig,
    Supervisor,
};
use emask_telemetry::{Event, EventSink, Span};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic "experiment": `trials` LCG steps from `seed`, one
/// trial per `step_ms`, checkpointing `(next_trial, acc)` when the token
/// trips. The final CSV is a pure function of the spec — byte-identical
/// however often the run is interrupted and resumed.
struct StepRunner {
    step_ms: u64,
    /// Panic on this many initial attempts (transient-failure injection).
    panic_attempts: AtomicU32,
}

impl StepRunner {
    fn new(step_ms: u64) -> Self {
        StepRunner { step_ms, panic_attempts: AtomicU32::new(0) }
    }

    fn expected_csv(spec: &JobSpec) -> String {
        let mut acc = spec.seed;
        for t in 0..spec.trials {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(t as u64);
        }
        format!("trials,acc\n{},{acc}\n", spec.trials)
    }
}

impl ExperimentRunner for StepRunner {
    fn admit(&self, spec: &JobSpec) -> Result<u64, String> {
        if spec.experiment != "step" {
            return Err(format!("unknown experiment '{}'", spec.experiment));
        }
        Ok(spec.trials as u64 * 1024)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
        if self
            .panic_attempts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected transient failure");
        }
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
            ctx.sink.emit(Event::TrialCompleted { trial: t as u64 });
            std::thread::sleep(Duration::from_millis(self.step_ms));
        }
        RunStatus::Done { csv: format!("trials,acc\n{},{acc}\n", spec.trials) }
    }
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emask-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(trials: usize) -> JobSpec {
    JobSpec { experiment: "step".into(), trials, ..JobSpec::default() }
}

fn spec_class(trials: usize, priority: &str) -> JobSpec {
    JobSpec { priority: priority.into(), ..spec(trials) }
}

fn wait_terminal<R: ExperimentRunner>(sup: &Supervisor<R>, id: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = sup.job_state(id).unwrap();
        if state.terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn with_executor<R: ExperimentRunner + 'static>(
    sup: &Arc<Supervisor<R>>,
    body: impl FnOnce(&Supervisor<R>),
) {
    let exec = std::thread::spawn({
        let sup = Arc::clone(sup);
        move || sup.run_executor()
    });
    body(sup);
    sup.begin_shutdown();
    exec.join().unwrap();
}

#[test]
fn completed_job_writes_the_deterministic_csv() {
    let dir = state_dir("complete");
    let sup =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(0)).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(spec(50)).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::Completed);
        let csv = std::fs::read_to_string(sup.csv_path(id)).unwrap();
        assert_eq!(csv, StepRunner::expected_csv(&spec(50)));
        // The replayable history records the full lifecycle.
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        for kind in ["job_queued", "job_started", "job_completed"] {
            assert!(events.contains(kind), "missing {kind} in {events}");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_stops_at_a_trial_boundary() {
    let dir = state_dir("cancel");
    let sup =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(2)).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(spec(10_000)).unwrap();
        while sup.job_state(id).unwrap() != JobState::Running {
            std::thread::sleep(Duration::from_millis(2));
        }
        sup.cancel(id).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::Cancelled);
        assert!(!sup.csv_path(id).exists(), "no result for a cancelled job");
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        assert!(events.contains("job_cancelled"));
        // Cancelling a terminal job is a typed error, not a panic.
        assert!(sup.cancel(id).is_err());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_job_cancels_without_ever_running() {
    let dir = state_dir("cancel-queued");
    let sup =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(2)).unwrap());
    with_executor(&sup, |sup| {
        let running = sup.submit(spec(10_000)).unwrap();
        let queued = sup.submit(spec(10)).unwrap();
        sup.cancel(queued).unwrap();
        assert_eq!(sup.job_state(queued).unwrap(), JobState::Cancelled);
        sup.cancel(running).unwrap();
        wait_terminal(sup, running);
        let events =
            std::fs::read_to_string(dir.join(format!("job-{queued}.events.jsonl"))).unwrap();
        assert!(!events.contains("job_started"), "queued job must never start: {events}");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_trips_the_token_mid_run() {
    let dir = state_dir("deadline");
    let sup =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(2)).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(JobSpec { deadline_ms: Some(40), ..spec(100_000) }).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::DeadlineExceeded);
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        assert!(events.contains("job_deadline_exceeded"));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_failures_retry_with_recorded_backoff_then_succeed() {
    let dir = state_dir("retry");
    let runner = StepRunner::new(0);
    runner.panic_attempts.store(2, Ordering::SeqCst);
    let sup = Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), runner).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(JobSpec { max_retries: 2, backoff_ms: 5, ..spec(20) }).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::Completed);
        let csv = std::fs::read_to_string(sup.csv_path(id)).unwrap();
        assert_eq!(csv, StepRunner::expected_csv(&spec(20)), "retries never change the result");
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        // Deterministic schedule: retry 1 at base, retry 2 at 2×base.
        assert!(
            events.contains("\"event\":\"job_retried\",\"job\":1,\"attempt\":2,\"backoff_ms\":5")
        );
        assert!(
            events.contains("\"event\":\"job_retried\",\"job\":1,\"attempt\":3,\"backoff_ms\":10")
        );
        assert_eq!(events.matches("job_started").count(), 3);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_fail_the_job_permanently() {
    let dir = state_dir("retry-exhausted");
    let runner = StepRunner::new(0);
    runner.panic_attempts.store(10, Ordering::SeqCst);
    let sup = Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), runner).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(JobSpec { max_retries: 1, backoff_ms: 1, ..spec(5) }).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::Failed);
        let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
        assert!(events.contains("\"outcome\":\"failed\""));
        assert_eq!(events.matches("job_started").count(), 2, "1 attempt + 1 retry");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The causal-span contract: a completed job's history brackets the
/// lifecycle with deterministically-derived span ids — job around
/// everything, one queue wait ending at dequeue, one attempt per
/// `job_started` — and a retried job adds backoff spans between
/// attempts, all with parent links matching the pure derivation.
#[test]
fn span_stream_nests_job_attempt_and_backoff_deterministically() {
    let dir = state_dir("spans");
    let runner = StepRunner::new(0);
    runner.panic_attempts.store(1, Ordering::SeqCst);
    let sup = Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), runner).unwrap());
    with_executor(&sup, |sup| {
        let id = sup.submit(JobSpec { max_retries: 1, backoff_ms: 5, ..spec(20) }).unwrap();
        assert_eq!(wait_terminal(sup, id), JobState::Completed);
    });
    let events = std::fs::read_to_string(dir.join("job-1.events.jsonl")).unwrap();
    let job = Span::root("job", 1);
    // Open events carry the parent link of the derived tree.
    for (span, items) in [
        (job, 2),                        // closes with the attempt count
        (job.child("queue_wait", 1), 1), // closes with the enqueue count
        (job.child("attempt", 1), 0),    // the injected panic: no trials
        (job.child("backoff", 1), 5),    // closes with the planned ms
        (job.child("attempt", 2), 20),   // the successful attempt
    ] {
        let open = span.opened().to_json();
        let close = span.closed(items).to_json();
        assert!(events.contains(&open), "missing {open} in {events}");
        assert!(events.contains(&close), "missing {close} in {events}");
    }
    // Bracketing: the job span opens before and closes after everything.
    let lines: Vec<&str> = events.lines().collect();
    let pos = |needle: &str| lines.iter().position(|l| l.contains(needle)).unwrap();
    assert!(pos(&job.opened().to_json()) < pos(&job.child("attempt", 1).opened().to_json()));
    assert_eq!(
        lines.len() - 1,
        pos(&job.closed(2).to_json()),
        "job close is the final history line: {events}"
    );
    // Every open has a close: the stream balances.
    assert_eq!(events.matches("span_opened").count(), events.matches("span_closed").count());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_with_typed_reasons() {
    let dir = state_dir("admission");
    let cfg =
        ServerConfig { queue_depth: 1, memory_budget: 64 * 1024, ..ServerConfig::new(dir.clone()) };
    let sup = Supervisor::new(cfg, StepRunner::new(0)).unwrap();
    // No executor: everything stays queued.
    assert!(matches!(
        sup.submit(JobSpec { experiment: "bogus".into(), ..JobSpec::default() }),
        Err(RejectReason::Invalid(_))
    ));
    assert!(
        matches!(sup.submit(spec(1_000_000)), Err(RejectReason::Budget { .. })),
        "1M trials × 1 KiB must blow a 64 KiB budget"
    );
    sup.submit(spec(5)).unwrap();
    assert!(matches!(sup.submit(spec(5)), Err(RejectReason::QueueFull { depth: 1 })));
    sup.begin_shutdown();
    assert!(matches!(sup.submit(spec(5)), Err(RejectReason::ShuttingDown)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole contract: SIGTERM-style shutdown parks the in-flight job
/// with its checkpoint; a fresh supervisor over the same state directory
/// auto-resumes it; the final CSV is byte-identical to an uninterrupted
/// run.
#[test]
fn shutdown_restart_resume_is_byte_identical() {
    let dir = state_dir("resume");
    let job_spec = spec(400);
    let expected = StepRunner::expected_csv(&job_spec);

    // First server: start the job, shut down mid-run.
    let sup1 =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(1)).unwrap());
    let exec1 = std::thread::spawn({
        let sup = Arc::clone(&sup1);
        move || sup.run_executor()
    });
    let id = sup1.submit(job_spec).unwrap();
    while sup1.job_state(id).unwrap() != JobState::Running {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(30)); // let some trials land
    sup1.begin_shutdown();
    exec1.join().unwrap();
    assert_eq!(sup1.job_state(id).unwrap(), JobState::Queued, "parked, not failed");
    assert!(dir.join(format!("job-{id}.ckpt")).exists(), "checkpoint persisted on park");
    assert!(!dir.join(format!("job-{id}.done")).exists(), "parked jobs have no done marker");
    drop(sup1);

    // Second server over the same state dir: rescan resumes the job.
    let sup2 =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(0)).unwrap());
    let resumed = sup2.rescan().unwrap();
    assert_eq!(resumed, vec![id]);
    with_executor(&sup2, |sup| {
        assert_eq!(wait_terminal(sup, id), JobState::Completed);
        let csv = std::fs::read_to_string(sup.csv_path(id)).unwrap();
        assert_eq!(csv, expected, "resumed result must be byte-identical");
    });
    let events = std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).unwrap();
    assert!(events.contains("job_resumed"), "resume is part of the replayable history");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scheduler contract: a High submission against a saturated
/// executor pool preempts the running Batch job at a trial boundary,
/// runs to completion first, and the Batch job then resumes from its
/// checkpoint to a byte-identical result.
#[test]
fn high_submission_preempts_the_running_batch_job() {
    let dir = state_dir("preempt");
    let cfg = ServerConfig { executors: 1, ..ServerConfig::new(dir.clone()) };
    let sup = Arc::new(Supervisor::new(cfg, StepRunner::new(1)).unwrap());
    with_executor(&sup, |sup| {
        let batch = sup.submit(spec_class(2_000, "batch")).unwrap();
        while sup.job_state(batch).unwrap() != JobState::Running {
            std::thread::sleep(Duration::from_millis(1));
        }
        let high = sup.submit(spec_class(50, "high")).unwrap();
        assert_eq!(wait_terminal(sup, high), JobState::Completed);
        assert_ne!(
            sup.job_state(batch).unwrap(),
            JobState::Completed,
            "the high job must finish before the much longer batch job"
        );
        assert_eq!(wait_terminal(sup, batch), JobState::Completed);
        let csv = std::fs::read_to_string(sup.csv_path(batch)).unwrap();
        assert_eq!(
            csv,
            StepRunner::expected_csv(&spec(2_000)),
            "preemption never changes the result"
        );
        let events =
            std::fs::read_to_string(dir.join(format!("job-{batch}.events.jsonl"))).unwrap();
        assert!(events.contains("job_preempted"), "missing job_preempted in {events}");
        assert_eq!(
            events.matches("job_started").count(),
            2,
            "one start per side of the preemption: {events}"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starvation avoidance: with `aging_threshold` dispatches skipping a
/// queued Batch job, the scheduler promotes it into the Normal class and
/// records the promotion in its replayable history.
#[test]
fn starved_batch_jobs_age_into_the_normal_class() {
    let dir = state_dir("aging");
    let cfg = ServerConfig { executors: 1, aging_threshold: 2, ..ServerConfig::new(dir.clone()) };
    let sup = Arc::new(Supervisor::new(cfg, StepRunner::new(0)).unwrap());
    // Queue up before any executor runs: one Batch job behind a wall of
    // Normal jobs, so the dispatch-count aging must trigger.
    let batch = sup.submit(spec_class(5, "batch")).unwrap();
    let normals: Vec<u64> = (0..4).map(|_| sup.submit(spec(5)).unwrap()).collect();
    with_executor(&sup, |sup| {
        assert_eq!(wait_terminal(sup, batch), JobState::Completed);
        for id in normals {
            assert_eq!(wait_terminal(sup, id), JobState::Completed);
        }
    });
    let events = std::fs::read_to_string(dir.join(format!("job-{batch}.events.jsonl"))).unwrap();
    assert!(events.contains("job_promoted"), "two skips must promote the batch job: {events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-class admission quotas are independent: saturating one class
/// rejects only that class with a typed reason.
#[test]
fn class_quota_rejects_only_the_saturated_class() {
    let dir = state_dir("quota");
    let cfg = ServerConfig { class_quotas: [1, 1, 1], ..ServerConfig::new(dir.clone()) };
    let sup = Supervisor::new(cfg, StepRunner::new(0)).unwrap();
    // No executor: everything stays queued against its quota.
    sup.submit(spec_class(5, "batch")).unwrap();
    let err = sup.submit(spec_class(5, "batch")).unwrap_err();
    assert!(matches!(err, RejectReason::ClassQuota { class: "batch", quota: 1 }), "{err}");
    sup.submit(spec(5)).unwrap();
    sup.submit(spec_class(5, "high")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rescan resumes interrupted jobs sorted by job id — never in
/// filesystem directory-iteration order — so a restarted server replays
/// its queue deterministically.
#[test]
fn rescan_resumes_interrupted_jobs_in_id_order() {
    let dir = state_dir("rescan-order");
    let sup = Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(0)).unwrap();
    let ids = vec![
        sup.submit(spec_class(5, "normal")).unwrap(),
        sup.submit(spec_class(5, "batch")).unwrap(),
        sup.submit(spec_class(5, "high")).unwrap(),
    ];
    drop(sup);
    let sup =
        Arc::new(Supervisor::new(ServerConfig::new(dir.clone()), StepRunner::new(0)).unwrap());
    let resumed = sup.rescan().unwrap();
    assert_eq!(resumed, ids, "rescan order is sorted by job id, not directory order");
    with_executor(&sup, |sup| {
        for &id in &ids {
            assert_eq!(wait_terminal(sup, id), JobState::Completed);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end over the real Unix socket: submit and watch through the
/// protocol, shut down through the protocol, and verify exit.
#[test]
fn socket_protocol_round_trip() {
    let dir = state_dir("socket");
    let cfg = ServerConfig::new(dir.clone());
    let socket = cfg.socket.clone();
    let server = std::thread::spawn(move || emask_serve::serve(&cfg, StepRunner::new(0)));
    // Wait for the listener.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(Duration::from_millis(5));
    }

    let id = client::submit(&socket, &spec(30).to_json()).unwrap();
    let mut streamed = Vec::new();
    let final_line = client::watch(&socket, id, &mut streamed).unwrap();
    assert!(final_line.contains("\"state\":\"completed\""), "got: {final_line}");
    let text = String::from_utf8(streamed).unwrap();
    assert!(text.contains("job_queued") && text.contains("job_completed"), "got: {text}");

    let status = client::status(&socket).unwrap();
    assert!(status.contains("\"state\":\"completed\""), "got: {status}");

    // The stats verb: strict JSON with gauges, per-state counts, latency
    // quantiles, and the dropped-event ledger.
    let stats_line = client::stats(&socket).unwrap();
    let doc = emask_serve::json::parse(&stats_line).unwrap();
    use emask_serve::json::Json;
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(0));
    let states = doc.get("states").unwrap();
    assert_eq!(states.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(states.get("running").and_then(Json::as_u64), Some(0));
    let latencies = doc.get("latencies").unwrap();
    for name in ["queue_wait_ms", "run_ms", "backoff_ms"] {
        let l = latencies.get(name).unwrap_or_else(|| panic!("no {name} in {stats_line}"));
        for field in ["count", "mean", "min", "max", "p50", "p95", "p99"] {
            assert!(l.get(field).is_some(), "no {name}.{field} in {stats_line}");
        }
    }
    assert_eq!(
        latencies.get("queue_wait_ms").unwrap().get("count").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(latencies.get("run_ms").unwrap().get("count").and_then(Json::as_u64), Some(1));
    assert!(doc.get("dropped_events").and_then(Json::as_u64).is_some(), "got: {stats_line}");
    assert!(doc.get("dropped_by_kind").is_some(), "got: {stats_line}");
    // Bad specs come back as typed rejections over the wire.
    let err = client::submit(&socket, "{\"experiment\":\"bogus\"}").unwrap_err();
    assert!(
        matches!(err, client::ClientError::Rejected(ref kind, _) if kind == "invalid"),
        "{err}"
    );
    // A request line that is not UTF-8 gets the typed protocol error, and
    // the connection stays open for the next request.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut conn = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        conn.write_all(b"{\"cmd\":\"status\",\"id\":\"\xff\"}\n").unwrap();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"kind\":\"protocol\""), "got: {reply}");
        reply.clear();
        conn.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "got: {reply}");
    }
    // A request line one byte over the 64 KiB bound gets the typed
    // protocol error, then the server closes the connection.
    {
        use std::io::{BufRead, BufReader, Read, Write};
        let mut conn = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        // Fail rather than hang on a server that waits for the newline.
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap());
        conn.write_all(&vec![b'a'; 64 * 1024 + 1]).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"kind\":\"protocol\""), "got: {reply}");
        assert!(reply.contains("exceeds"), "got: {reply}");
        let mut rest = Vec::new();
        assert_eq!(replies.read_to_end(&mut rest).unwrap(), 0, "connection closed after the reply");
    }

    client::shutdown(&socket).unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket removed on graceful exit");
    let _ = std::fs::remove_dir_all(&dir);
}
