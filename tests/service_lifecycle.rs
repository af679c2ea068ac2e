//! The campaign service's job lifecycle, driven through its public API: a
//! `Supervisor` with one executor, a stub experiment runner, and a High
//! submission that preempts the claimed Batch job. Every job's history
//! must show exactly one terminal event, and the preempted job one
//! `job_preempted` before it completes.
//!
//! The runner reports each start over a channel and the Batch job's
//! first run stops at its token, so the test waits on events, never on a
//! sleep.

use emask::par::Interrupted;
use emask_serve::{
    ExperimentRunner, JobCtx, JobSpec, JobState, RunStatus, ServerConfig, Supervisor,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reports the priority of every run it starts. The first Batch run
/// waits for its token and stops there (giving up after 30 s, so a
/// lost preemption fails the test instead of hanging it); every other
/// run completes at once, whatever its token says.
struct ReportingRunner {
    started: Mutex<Sender<String>>,
    batch_ran: AtomicBool,
}

impl ExperimentRunner for ReportingRunner {
    fn admit(&self, _spec: &JobSpec) -> Result<u64, String> {
        Ok(0)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
        let first_batch = spec.priority == "batch" && !self.batch_ran.swap(true, Ordering::SeqCst);
        let _ = self.started.lock().expect("runner poisoned").send(spec.priority.clone());
        if first_batch {
            let give_up = Instant::now() + Duration::from_secs(30);
            while Instant::now() < give_up {
                if let Err(reason) = ctx.token.check() {
                    return RunStatus::Interrupted(Interrupted { reason, completed_trials: 0 });
                }
                std::thread::yield_now();
            }
        }
        RunStatus::Done { csv: format!("{}\n", spec.priority) }
    }
}

/// Shuts the supervisor down when dropped, so its executor thread ends
/// even when an assertion fails first.
struct ShutdownOnDrop<'a, R: ExperimentRunner>(&'a Supervisor<R>);

impl<R: ExperimentRunner> Drop for ShutdownOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.begin_shutdown();
    }
}

fn job(priority: &str) -> JobSpec {
    JobSpec { experiment: "stub".into(), priority: priority.into(), ..JobSpec::default() }
}

/// The event names of job `id`'s persisted history, in order.
fn history(dir: &Path, id: u64) -> Vec<String> {
    let text =
        std::fs::read_to_string(dir.join(format!("job-{id}.events.jsonl"))).expect("job history");
    text.lines()
        .map(|line| {
            let start = line.find("\"event\":\"").expect("event field") + 9;
            let rest = &line[start..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn count(events: &[String], name: &str) -> usize {
    events.iter().filter(|e| *e == name).count()
}

fn terminals(events: &[String]) -> usize {
    ["job_completed", "job_cancelled", "job_deadline_exceeded"]
        .iter()
        .map(|name| count(events, name))
        .sum()
}

#[test]
fn a_high_submission_preempts_the_claimed_batch_job_once() {
    let dir = std::env::temp_dir().join(format!("emask-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (tx, started) = channel();
    let runner = ReportingRunner { started: Mutex::new(tx), batch_ran: AtomicBool::new(false) };
    let cfg = ServerConfig { executors: 1, thread_budget: 1, ..ServerConfig::new(dir.clone()) };
    let sup = Supervisor::new(cfg, runner).expect("supervisor");
    let next = || started.recv_timeout(Duration::from_secs(30)).expect("a job starts");

    let (batch, high) = std::thread::scope(|s| {
        let stop = ShutdownOnDrop(&sup);
        let executor = s.spawn(|| sup.run_executor());
        let batch = sup.submit(job("batch")).expect("batch admitted");
        assert_eq!(next(), "batch");
        // The only executor is busy with the Batch job: the High job
        // trips its token, and the freed executor runs the High job
        // before the Batch job resumes.
        let high = sup.submit(job("high")).expect("high admitted");
        assert_eq!(next(), "high");
        assert_eq!(next(), "batch");
        // The resumed Batch run completes whatever its token says, so a
        // shutdown now lets the executor finish it and return.
        drop(stop);
        executor.join().expect("executor");
        (batch, high)
    });

    assert_eq!(sup.job_state(batch), Some(JobState::Completed));
    assert_eq!(sup.job_state(high), Some(JobState::Completed));
    assert_eq!(std::fs::read_to_string(sup.csv_path(batch)).expect("batch csv"), "batch\n");

    let b = history(&dir, batch);
    assert_eq!(terminals(&b), 1, "{b:?}");
    assert_eq!(count(&b, "job_preempted"), 1, "{b:?}");
    assert_eq!(count(&b, "job_started"), 2, "one start on each side of the preemption: {b:?}");
    let preempted = b.iter().position(|e| e == "job_preempted");
    let completed = b.iter().position(|e| e == "job_completed");
    assert!(preempted < completed, "preempted, then completed: {b:?}");

    let h = history(&dir, high);
    assert_eq!(terminals(&h), 1, "{h:?}");
    assert_eq!(count(&h, "job_preempted"), 0, "{h:?}");
    assert_eq!(count(&h, "job_started"), 1, "{h:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
