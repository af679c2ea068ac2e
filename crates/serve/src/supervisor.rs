//! The supervised job executor: queue, admission, retry, cancellation,
//! deadlines, and crash-safe state.
//!
//! ## State machine
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Completed
//!              │           │  ├────▶ Failed            (retries exhausted)
//!              │           │  ├────▶ Cancelled         (client cancel)
//!              │           │  ├────▶ DeadlineExceeded  (wall-clock budget)
//!              │           │  ├─ Interrupted(Shutdown) ─▶ Queued (resumes
//!              ▼           │  │                            on restart)
//!          Cancelled       │  └─ Interrupted(Preempted) ─▶ Queued (front
//!                          │                                of its class)
//!                          └─ transient failure ─▶ backoff ─▶ Running
//! ```
//!
//! ## Durability layout
//!
//! Each job owns five files in the state directory, all keyed by id:
//! `job-<id>.spec.json` (canonical spec), `job-<id>.events.jsonl`
//! (replayable history, appended across retries/resumes),
//! `job-<id>.ckpt` (the experiment's own checkpoint, e.g. the fault
//! campaign snapshot), `job-<id>.csv` (final result), and `job-<id>.done`
//! (terminal-state marker; its absence is what makes a job resumable).
//! [`Supervisor::rescan`] rebuilds the queue from exactly these files, so
//! a server killed at any point resumes its interrupted jobs
//! automatically — and because every experiment is deterministic and
//! fault campaigns resume from their checkpoint, the final CSV is
//! byte-identical to an uninterrupted run.

use crate::retry::RetryPolicy;
use crate::scheduler::{ClassQueues, Priority};
use crate::sink::JobSink;
use crate::spec::{JobSpec, SpecError};
use emask_par::{CancelReason, CancelToken, Interrupted, Jobs, Lease, ThreadBudget};
use emask_telemetry::{Event, EventSink, Histogram, Span, SpanId};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the executor (also the parked state across a
    /// shutdown/restart).
    Queued,
    /// The executor is running it.
    Running,
    /// Finished; the result CSV is on disk.
    Completed,
    /// Failed permanently (retries exhausted or permanent error).
    Failed,
    /// Cancelled by a client.
    Cancelled,
    /// Ran out of wall-clock budget.
    DeadlineExceeded,
}

impl JobState {
    /// Stable lowercase name, used on the wire and in the done marker.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// Whether the job can never run again.
    #[must_use]
    pub fn terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            "deadline_exceeded" => JobState::DeadlineExceeded,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one experiment attempt produced.
#[derive(Debug)]
pub enum RunStatus {
    /// The experiment completed; `csv` is the deterministic result
    /// document to persist.
    Done {
        /// The final CSV (byte-identical however the job was supervised).
        csv: String,
    },
    /// The cooperative token tripped at a trial boundary.
    Interrupted(Interrupted),
    /// The experiment failed. `transient: true` failures are retried
    /// within the job's budget; permanent ones fail the job immediately.
    Failed {
        /// Human-readable cause, recorded in the job history.
        reason: String,
        /// Whether a retry could plausibly succeed.
        transient: bool,
    },
}

/// Everything an [`ExperimentRunner`] gets from the supervisor.
#[derive(Debug)]
pub struct JobCtx<'a> {
    /// Cooperative cancellation: checked by the experiment at trial
    /// boundaries; tripped on client cancel, deadline, or shutdown.
    pub token: &'a CancelToken,
    /// Per-job event sink (replayable history + live fanout).
    pub sink: &'a JobSink,
    /// The job's private checkpoint path — persists across retries and
    /// restarts, so resumable experiments continue instead of starting
    /// over.
    pub checkpoint: &'a Path,
    /// The id of the supervisor's *attempt* span for this run. Runners
    /// that emit their own spans (e.g. the post-merge shard ladder) hang
    /// them below this id with [`Span::below`], so the offline trace
    /// nests job → attempt → shard without the runner knowing job ids.
    pub span: SpanId,
    /// Worker threads granted by the scheduler's lease for this attempt —
    /// the upper bound the runner should size its pool to (the lease on
    /// the token may shrink it further mid-run).
    pub workers: usize,
}

/// The experiment side of the service: validates and sizes specs at
/// admission, runs them under supervision.
pub trait ExperimentRunner: Send + Sync {
    /// Validates the spec and estimates its peak accumulator footprint in
    /// bytes (the admission-control input).
    ///
    /// # Errors
    ///
    /// A human-readable reason when the spec is not runnable at all
    /// (unknown experiment, unusable sizing).
    fn admit(&self, spec: &JobSpec) -> Result<u64, String>;

    /// Runs (or resumes) the experiment. Must be deterministic: the same
    /// spec must produce the same `csv` bytes no matter how often the run
    /// is interrupted and resumed.
    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus;
}

/// Why a submission was turned away before touching the queue.
#[derive(Debug)]
pub enum RejectReason {
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The queue is at capacity.
    QueueFull {
        /// The configured bound.
        depth: usize,
    },
    /// The job's class is at its admission quota (the global queue may
    /// still have room for other classes).
    ClassQuota {
        /// The class that is full.
        class: &'static str,
        /// Its configured quota.
        quota: usize,
    },
    /// The job's estimated accumulator footprint exceeds the budget.
    Budget {
        /// Runner's estimate for this spec, bytes.
        estimated: u64,
        /// Configured per-job budget, bytes.
        budget: u64,
    },
    /// The runner rejected the spec outright.
    Invalid(String),
    /// The spec document itself was malformed.
    Spec(SpecError),
    /// Persisting the job failed.
    Io(String),
}

impl RejectReason {
    /// Stable machine-readable kind, used on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::ClassQuota { .. } => "class_quota",
            RejectReason::Budget { .. } => "budget",
            RejectReason::Invalid(_) => "invalid",
            RejectReason::Spec(_) => "spec",
            RejectReason::Io(_) => "io",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
            RejectReason::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            RejectReason::ClassQuota { class, quota } => {
                write!(f, "{class} class at its admission quota ({quota})")
            }
            RejectReason::Budget { estimated, budget } => write!(
                f,
                "estimated accumulator footprint {estimated} B exceeds the per-job budget {budget} B"
            ),
            RejectReason::Invalid(reason) => write!(f, "unrunnable spec: {reason}"),
            RejectReason::Spec(e) => write!(f, "{e}"),
            RejectReason::Io(e) => write!(f, "could not persist job: {e}"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// One row of [`Supervisor::status`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Experiment name.
    pub experiment: String,
    /// Current state.
    pub state: JobState,
    /// Current scheduling class (aging may have promoted it above the
    /// spec's class).
    pub priority: Priority,
    /// Attempts started so far (0 = not yet run).
    pub attempt: u32,
}

/// Everything `repro serve` configures: the socket and the supervisor's
/// tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The Unix socket path [`serve`](crate::serve) listens on.
    pub socket: PathBuf,
    /// Directory for specs, events, checkpoints, results, and markers.
    pub state_dir: PathBuf,
    /// Max jobs waiting in the queue before submissions bounce.
    pub queue_depth: usize,
    /// Per-job accumulator budget in bytes; the runner's estimate must
    /// fit or the submission bounces with [`RejectReason::Budget`].
    pub memory_budget: u64,
    /// Concurrent executor threads draining the queue.
    pub executors: usize,
    /// Worker threads in the shared [`ThreadBudget`] the executors'
    /// campaigns lease from.
    pub thread_budget: usize,
    /// Starvation-avoidance aging: after this many High/Normal dispatches
    /// that bypass waiting Batch work, the oldest Batch job is promoted
    /// to Normal. 0 disables aging.
    pub aging_threshold: u64,
    /// Per-class admission quotas (High, Normal, Batch order), layered on
    /// top of the global `queue_depth`.
    pub class_quotas: [usize; 3],
}

impl ServerConfig {
    /// Defaults around a state directory: socket `<dir>/serve.sock`,
    /// depth 32, budget 512 MiB, executors and thread budget at the
    /// machine's parallelism, aging after 8 bypasses, per-class quotas
    /// equal to the global depth (i.e. only the global bound).
    #[must_use]
    pub fn new(state_dir: PathBuf) -> Self {
        let parallelism = Jobs::auto().get();
        ServerConfig {
            socket: state_dir.join("serve.sock"),
            state_dir,
            queue_depth: 32,
            memory_budget: 512 * 1024 * 1024,
            executors: parallelism,
            thread_budget: parallelism,
            aging_threshold: 8,
            class_quotas: [32; 3],
        }
    }
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Scheduling class. Starts as the spec's priority; aging may promote
    /// a Batch job to Normal for the rest of its life.
    class: Priority,
    attempt: u32,
    cancel_requested: bool,
    token: Option<CancelToken>,
    /// The running job's claim on the shared thread budget; present
    /// exactly while an attempt runs.
    lease: Option<Lease>,
    sink: Arc<JobSink>,
    /// When the job last entered the queue (set at submit, park, rescan);
    /// feeds the queue-wait latency histogram at dequeue.
    queued_at: Instant,
    /// How many times the job has been enqueued — the index of its
    /// current `queue_wait` span.
    waits: u64,
}

/// A job aging just promoted from Batch to Normal, with its event sink.
type Promotion = (u64, Arc<JobSink>);

struct Inner {
    jobs: BTreeMap<u64, JobRecord>,
    queues: ClassQueues,
    /// Executors currently inside `run_job` — the preemption trigger's
    /// "are we saturated" gauge.
    running: usize,
    next_id: u64,
}

/// Latency histograms for the service as a whole, in milliseconds.
///
/// These are wall-clock measurements — scheduling-dependent by nature, so
/// they live here (and in the operational plane) rather than in the
/// replayable stream. Widths are coarse on purpose: the histograms answer
/// "is the queue backing up" / "are runs slowing down", not profiling
/// questions.
struct LatencyHistograms {
    queue_wait_ms: Histogram,
    run_ms: Histogram,
    backoff_ms: Histogram,
    /// Queue wait broken out per scheduling class (High, Normal, Batch
    /// order) — the starvation/priority-inversion dashboard.
    queue_wait_class_ms: [Histogram; 3],
}

impl LatencyHistograms {
    fn new() -> Self {
        LatencyHistograms {
            queue_wait_ms: Histogram::new(25.0, 40),
            run_ms: Histogram::new(25.0, 40),
            backoff_ms: Histogram::new(25.0, 40),
            queue_wait_class_ms: [
                Histogram::new(25.0, 40),
                Histogram::new(25.0, 40),
                Histogram::new(25.0, 40),
            ],
        }
    }
}

/// A named latency summary in [`ServiceStats`]: count plus the
/// distribution's extremes and quantiles (per [`Histogram::quantile`]).
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Which latency: `queue_wait_ms`, `run_ms`, or `backoff_ms`.
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Mean of the finite samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencyStats {
    fn summarize(name: &'static str, h: &Histogram) -> LatencyStats {
        LatencyStats {
            name,
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// A point-in-time snapshot of the service: queue gauge, per-state job
/// counts, latency distributions, and the dropped-event ledger. Rendered
/// by the `stats` protocol verb and summarized into the periodic
/// [`Event::ServiceMetrics`] heartbeat.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// The same gauge broken out per scheduling class, dispatch order
    /// (`high`, `normal`, `batch`), every class present.
    pub queue_by_class: Vec<(&'static str, u64)>,
    /// Jobs per state, in [`JobState`] declaration order; every state is
    /// present (zero counts included) so consumers needn't special-case.
    pub states: Vec<(&'static str, u64)>,
    /// Latency summaries: queue wait, run, retry backoff.
    pub latencies: Vec<LatencyStats>,
    /// Operational events shed under backpressure, all jobs, aggregate.
    pub dropped_events: u64,
    /// The same drops keyed by event kind, ascending by kind.
    pub dropped_by_kind: Vec<(String, u64)>,
}

/// The supervised campaign queue. N executor threads drain it
/// ([`run_executor`](Supervisor::run_executor)), arbitrating one shared
/// [`ThreadBudget`] via leases; any number of protocol threads
/// submit/cancel/observe.
pub struct Supervisor<R> {
    cfg: ServerConfig,
    runner: R,
    inner: Mutex<Inner>,
    work: Condvar,
    shutdown: AtomicBool,
    stats: Mutex<LatencyHistograms>,
    budget: ThreadBudget,
}

impl<R> fmt::Debug for Supervisor<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("state_dir", &self.cfg.state_dir).finish_non_exhaustive()
    }
}

impl<R: ExperimentRunner> Supervisor<R> {
    /// Creates the supervisor (and its state directory).
    ///
    /// # Errors
    ///
    /// Forwards the directory-creation error.
    pub fn new(cfg: ServerConfig, runner: R) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let budget = ThreadBudget::new(cfg.thread_budget);
        Ok(Supervisor {
            cfg,
            runner,
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queues: ClassQueues::new(),
                running: 0,
                next_id: 1,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(LatencyHistograms::new()),
            budget,
        })
    }

    /// The job's top-level span — a pure function of the id, so any code
    /// path (submit, cancel, finish, a restarted process) derives the
    /// same tree.
    fn job_span(id: u64) -> Span {
        Span::root("job", id)
    }

    fn path(&self, id: u64, ext: &str) -> PathBuf {
        self.cfg.state_dir.join(format!("job-{id}.{ext}"))
    }

    /// The job's result CSV path (exists once the job completes).
    #[must_use]
    pub fn csv_path(&self, id: u64) -> PathBuf {
        self.path(id, "csv")
    }

    /// Rebuilds the queue from the state directory: every spec without a
    /// done marker is re-enqueued into its class queue (emitting
    /// [`Event::JobResumed`]); jobs with a marker are registered in their
    /// terminal state so `status` still reports them. Job ids are sorted
    /// before re-enqueue, so resume order is a deterministic function of
    /// the directory's contents, never of its iteration order. Returns
    /// the resumed ids, ascending.
    ///
    /// # Errors
    ///
    /// Forwards directory/file IO errors; a malformed spec file is an
    /// error too (state corruption should be loud, not silent).
    pub fn rescan(&self) -> Result<Vec<u64>, String> {
        let mut found: Vec<u64> = Vec::new();
        let entries = std::fs::read_dir(&self.cfg.state_dir).map_err(|e| e.to_string())?;
        for entry in entries {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_prefix("job-").and_then(|r| r.strip_suffix(".spec.json")) {
                found.push(id.parse::<u64>().map_err(|e| format!("bad job file {name}: {e}"))?);
            }
        }
        found.sort_unstable();
        let mut resumed = Vec::new();
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        for id in found {
            let text = std::fs::read_to_string(self.path(id, "spec.json"))
                .map_err(|e| format!("job {id}: {e}"))?;
            let spec = JobSpec::from_json(&text).map_err(|e| format!("job {id}: {e}"))?;
            let sink = Arc::new(
                JobSink::open(&self.path(id, "events.jsonl"))
                    .map_err(|e| format!("job {id}: {e}"))?,
            );
            let class = Priority::from_name(&spec.priority).unwrap_or(Priority::Normal);
            let state = match std::fs::read_to_string(self.path(id, "done")) {
                Ok(marker) => JobState::from_name(marker.trim()).unwrap_or(JobState::Failed),
                Err(_) => {
                    sink.emit(Event::JobResumed { job: id });
                    resumed.push(id);
                    inner.queues.push_back(class, id);
                    JobState::Queued
                }
            };
            // No span events here: the job and queue-wait opens from the
            // original submit are already in the file, and the eventual
            // dequeue closes across the restart — the replayed stream
            // shows one queue wait spanning the outage.
            inner.jobs.insert(
                id,
                JobRecord {
                    spec,
                    state,
                    class,
                    attempt: 0,
                    cancel_requested: false,
                    token: None,
                    lease: None,
                    sink,
                    queued_at: Instant::now(),
                    waits: 1,
                },
            );
            inner.next_id = inner.next_id.max(id + 1);
        }
        drop(inner);
        if !resumed.is_empty() {
            self.work.notify_all();
        }
        Ok(resumed)
    }

    /// Admits a job: validates via the runner, checks queue depth, class
    /// quota, and memory budget, persists the spec, emits
    /// [`Event::JobQueued`], and wakes an executor. A High submission
    /// that finds every executor saturated preempts the youngest running
    /// Batch job (its token trips with [`CancelReason::Preempted`]; it
    /// parks at its next trial boundary and resumes later from its
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// [`RejectReason`] — the typed admission verdict.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, RejectReason> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(RejectReason::ShuttingDown);
        }
        let estimated = self.runner.admit(&spec).map_err(RejectReason::Invalid)?;
        if estimated > self.cfg.memory_budget {
            return Err(RejectReason::Budget { estimated, budget: self.cfg.memory_budget });
        }
        let class = Priority::from_name(&spec.priority).unwrap_or(Priority::Normal);
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        if inner.queues.total() >= self.cfg.queue_depth {
            return Err(RejectReason::QueueFull { depth: self.cfg.queue_depth });
        }
        let quota = self.cfg.class_quotas[class.index()];
        if inner.queues.depth(class) >= quota {
            return Err(RejectReason::ClassQuota { class: class.name(), quota });
        }
        let id = inner.next_id;
        std::fs::write(self.path(id, "spec.json"), spec.to_json())
            .map_err(|e| RejectReason::Io(e.to_string()))?;
        let sink = Arc::new(
            JobSink::open(&self.path(id, "events.jsonl"))
                .map_err(|e| RejectReason::Io(e.to_string()))?,
        );
        sink.emit(Event::JobQueued {
            job: id,
            experiment: spec.experiment.clone(),
            trials: spec.trials as u64,
        });
        // The job's causal tree starts here: the job span arcs to the
        // terminal event; the first queue-wait span arcs to the dequeue.
        let job = Self::job_span(id);
        job.open_on(&*sink);
        job.child("queue_wait", 1).open_on(&*sink);
        inner.next_id = id + 1;
        inner.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                class,
                attempt: 0,
                cancel_requested: false,
                token: None,
                lease: None,
                sink,
                queued_at: Instant::now(),
                waits: 1,
            },
        );
        inner.queues.push_back(class, id);
        if class == Priority::High && inner.running >= self.cfg.executors.max(1) {
            // Every executor is busy: a High job must not sit behind
            // Batch work. Trip the youngest running Batch job; it parks
            // at its next trial boundary and the freed executor picks
            // this job up.
            let victim = inner
                .jobs
                .iter()
                .filter(|(_, r)| {
                    r.state == JobState::Running
                        && r.class == Priority::Batch
                        && r.token.as_ref().is_some_and(|t| !t.is_cancelled())
                })
                .map(|(&vid, _)| vid)
                .next_back();
            if let Some(vid) = victim {
                if let Some(token) = inner.jobs.get(&vid).and_then(|r| r.token.as_ref()) {
                    token.cancel(CancelReason::Preempted);
                }
            }
        }
        drop(inner);
        self.work.notify_all();
        Ok(id)
    }

    /// Cancels a job: a running job's token trips (it stops at the next
    /// trial boundary); a queued job is cancelled in place.
    ///
    /// # Errors
    ///
    /// A description when the job is unknown or already terminal.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        let rec = inner.jobs.get_mut(&id).ok_or_else(|| format!("unknown job {id}"))?;
        if rec.state.terminal() {
            return Err(format!("job {id} is already {}", rec.state));
        }
        rec.cancel_requested = true;
        if let Some(token) = &rec.token {
            token.cancel(CancelReason::Cancelled);
            return Ok(());
        }
        if rec.state == JobState::Queued {
            // Not running: finalize right here.
            rec.state = JobState::Cancelled;
            let sink = Arc::clone(&rec.sink);
            let waits = rec.waits;
            inner.queues.remove(id);
            drop(inner);
            let job = Self::job_span(id);
            job.child("queue_wait", waits).close_on(&*sink, waits);
            sink.emit(Event::JobCancelled { job: id });
            job.close_on(&*sink, 0);
            self.finish_files(id, JobState::Cancelled, &sink);
        }
        Ok(())
    }

    /// A snapshot of every known job, ascending by id.
    #[must_use]
    pub fn status(&self) -> Vec<JobStatus> {
        let inner = self.inner.lock().expect("supervisor poisoned");
        inner
            .jobs
            .iter()
            .map(|(&id, rec)| JobStatus {
                id,
                experiment: rec.spec.experiment.clone(),
                state: rec.state,
                priority: rec.class,
                attempt: rec.attempt,
            })
            .collect()
    }

    /// Subscribes to a job's event stream: everything already recorded,
    /// then live events until the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// A description when the job is unknown or its history unreadable.
    pub(crate) fn subscribe(&self, id: u64) -> Result<(String, Receiver<String>), String> {
        let inner = self.inner.lock().expect("supervisor poisoned");
        let rec = inner.jobs.get(&id).ok_or_else(|| format!("unknown job {id}"))?;
        let sink = Arc::clone(&rec.sink);
        let terminal = rec.state.terminal();
        drop(inner);
        let (snapshot, rx) =
            sink.subscribe(&self.path(id, "events.jsonl")).map_err(|e| e.to_string())?;
        if terminal {
            // Nothing further will arrive; end the live stream at once.
            sink.disconnect_subscribers();
        }
        Ok((snapshot, rx))
    }

    /// Current state of one job.
    #[must_use]
    pub fn job_state(&self, id: u64) -> Option<JobState> {
        self.inner.lock().expect("supervisor poisoned").jobs.get(&id).map(|r| r.state)
    }

    /// Counts jobs per state, every state present, declaration order.
    fn state_counts(inner: &Inner) -> Vec<(&'static str, u64)> {
        const STATES: [JobState; 6] = [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
            JobState::DeadlineExceeded,
        ];
        STATES
            .iter()
            .map(|&s| (s.name(), inner.jobs.values().filter(|r| r.state == s).count() as u64))
            .collect()
    }

    /// A point-in-time service snapshot: queue gauge, per-state counts,
    /// latency distributions, and the dropped-event ledger (aggregate +
    /// per kind, summed over every job's sink).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let inner = self.inner.lock().expect("supervisor poisoned");
        let queue_depth = inner.queues.total() as u64;
        let queue_by_class: Vec<(&'static str, u64)> =
            Priority::ALL.iter().map(|&c| (c.name(), inner.queues.depth(c) as u64)).collect();
        let states = Self::state_counts(&inner);
        let mut dropped_events = 0u64;
        let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
        for rec in inner.jobs.values() {
            dropped_events += rec.sink.dropped();
            for (kind, n) in rec.sink.dropped_by_kind() {
                *by_kind.entry(kind).or_insert(0) += n;
            }
        }
        drop(inner);
        let h = self.stats.lock().expect("stats poisoned");
        let latencies = vec![
            LatencyStats::summarize("queue_wait_ms", &h.queue_wait_ms),
            LatencyStats::summarize("run_ms", &h.run_ms),
            LatencyStats::summarize("backoff_ms", &h.backoff_ms),
            LatencyStats::summarize("queue_wait_high_ms", &h.queue_wait_class_ms[0]),
            LatencyStats::summarize("queue_wait_normal_ms", &h.queue_wait_class_ms[1]),
            LatencyStats::summarize("queue_wait_batch_ms", &h.queue_wait_class_ms[2]),
        ];
        drop(h);
        ServiceStats {
            queue_depth,
            queue_by_class,
            states,
            latencies,
            dropped_events,
            dropped_by_kind: by_kind.into_iter().collect(),
        }
    }

    /// Emits one [`Event::ServiceMetrics`] gauge snapshot to every
    /// non-terminal job's sink. The event is operational — never
    /// persisted, forwarded best-effort to live `watch` subscribers and
    /// drop-counted under backpressure — so the periodic heartbeat leaves
    /// the replayable history byte-for-byte untouched.
    pub(crate) fn emit_service_metrics(&self) {
        let inner = self.inner.lock().expect("supervisor poisoned");
        let states = Self::state_counts(&inner);
        let gauge = |name: &str| states.iter().find(|(n, _)| *n == name).map_or(0, |(_, c)| *c);
        let event = Event::ServiceMetrics {
            queued: gauge("queued"),
            running: gauge("running"),
            completed: gauge("completed"),
            failed: gauge("failed"),
            cancelled: gauge("cancelled"),
            deadline_exceeded: gauge("deadline_exceeded"),
        };
        let live: Vec<Arc<JobSink>> = inner
            .jobs
            .values()
            .filter(|r| !r.state.terminal())
            .map(|r| Arc::clone(&r.sink))
            .collect();
        drop(inner);
        for sink in live {
            sink.emit(event.clone());
        }
    }

    /// Emits one [`Event::SchedulerHeartbeat`] gauge snapshot (per-class
    /// queue depths, running jobs, executor count, unleased workers) to
    /// every non-terminal job's sink. Operational, like
    /// [`emit_service_metrics`](Supervisor::emit_service_metrics): never
    /// persisted, so the replayable history is untouched.
    pub(crate) fn emit_scheduler_heartbeat(&self) {
        let inner = self.inner.lock().expect("supervisor poisoned");
        let depth = |c: Priority| inner.queues.depth(c) as u64;
        let event = Event::SchedulerHeartbeat {
            high: depth(Priority::High),
            normal: depth(Priority::Normal),
            batch: depth(Priority::Batch),
            running: inner.running as u64,
            executors: self.cfg.executors as u64,
            pool_available: u64::try_from(self.budget.available()).unwrap_or(0),
        };
        let live: Vec<Arc<JobSink>> = inner
            .jobs
            .values()
            .filter(|r| !r.state.terminal())
            .map(|r| Arc::clone(&r.sink))
            .collect();
        drop(inner);
        for sink in live {
            sink.emit(event.clone());
        }
    }

    /// Starts graceful shutdown: no new admissions; running Batch and
    /// Normal jobs trip with [`CancelReason::Shutdown`] and park at their
    /// next trial boundary (Batch tokens are swept first), while running
    /// High jobs are left to finish within their deadline — the drain
    /// order the scheduler promises. Executors exit once their in-flight
    /// job parks or finishes.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let inner = self.inner.lock().expect("supervisor poisoned");
        for sweep in [Priority::Batch, Priority::Normal] {
            for rec in inner.jobs.values() {
                if rec.class == sweep {
                    if let Some(token) = &rec.token {
                        token.cancel(CancelReason::Shutdown);
                    }
                }
            }
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Whether [`begin_shutdown`](Supervisor::begin_shutdown) has run.
    #[must_use]
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The executor loop: runs queued jobs until shutdown. Call from N
    /// dedicated threads (one per configured executor); each returns once
    /// shutdown is requested and its in-flight job (if any) has parked or
    /// finished.
    pub fn run_executor(&self) {
        loop {
            let (id, promoted) = {
                let mut inner = self.inner.lock().expect("supervisor poisoned");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(claimed) = self.claim_next(&mut inner) {
                        break claimed;
                    }
                    inner = self.work.wait(inner).expect("supervisor poisoned");
                }
            };
            if let Some((pid, sink)) = promoted {
                sink.emit(Event::JobPromoted {
                    job: pid,
                    from: Priority::Batch.name().into(),
                    to: Priority::Normal.name().into(),
                });
            }
            self.run_job(id);
            let mut inner = self.inner.lock().expect("supervisor poisoned");
            inner.running = inner.running.saturating_sub(1);
        }
    }

    /// Pops the next runnable job and claims it for the calling executor,
    /// returning its id and the job aging promoted on the way, if any. The
    /// job turns `Running` inside the caller's critical section, so a
    /// `cancel` between this pop and `run_job` finds it running (and
    /// leaves the finish to `run_job`) instead of finalizing a job that is
    /// about to start.
    fn claim_next(&self, inner: &mut Inner) -> Option<(u64, Option<Promotion>)> {
        while let Some((id, promoted)) = inner.queues.pop(self.cfg.aging_threshold) {
            // Jobs cancelled while queued are already terminal.
            let Some(rec) = inner.jobs.get_mut(&id).filter(|r| !r.state.terminal()) else {
                continue;
            };
            rec.state = JobState::Running;
            // Aging promoted a starved Batch job: it is Normal from here on.
            let promoted = promoted.and_then(|pid| {
                let rec = inner.jobs.get_mut(&pid)?;
                rec.class = Priority::Normal;
                Some((pid, Arc::clone(&rec.sink)))
            });
            inner.running += 1;
            return Some((id, promoted));
        }
        None
    }

    fn finish_files(&self, id: u64, state: JobState, sink: &JobSink) {
        if let Err(e) = std::fs::write(self.path(id, "done"), state.name()) {
            eprintln!("emask-serve: job {id}: could not write done marker: {e}");
        }
        sink.disconnect_subscribers();
    }

    fn finish(&self, id: u64, state: JobState, event: Event) {
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        let Some(rec) = inner.jobs.get_mut(&id) else { return };
        rec.state = state;
        rec.token = None;
        if let Some(lease) = rec.lease.take() {
            lease.release();
        }
        let sink = Arc::clone(&rec.sink);
        let attempts = u64::from(rec.attempt);
        drop(inner);
        sink.emit(event);
        // The job span closes right after its terminal event; its extent
        // is the number of attempts the job consumed.
        Self::job_span(id).close_on(&*sink, attempts);
        self.finish_files(id, state, &sink);
    }

    /// Parks a job for the next server start (shutdown path): state back
    /// to queued, no done marker, history keeps its events.
    fn park(&self, id: u64) {
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        let mut class = Priority::Normal;
        if let Some(rec) = inner.jobs.get_mut(&id) {
            rec.state = JobState::Queued;
            rec.token = None;
            if let Some(lease) = rec.lease.take() {
                lease.release();
            }
            rec.waits += 1;
            rec.queued_at = Instant::now();
            class = rec.class;
            // A parked job waits again: open the next queue-wait span.
            Self::job_span(id).child("queue_wait", rec.waits).open_on(&*rec.sink);
            // End live watch streams; watchers reconnect after restart.
            rec.sink.disconnect_subscribers();
        }
        inner.queues.push_front(class, id);
    }

    /// Requeues a preempted job (state back to queued at the *front* of
    /// its class, lease returned to the budget) and records the
    /// preemption in its replayable history. Unlike [`park`], watchers
    /// stay connected: the job resumes in this same process.
    fn requeue_after_preempt(&self, id: u64) {
        let mut inner = self.inner.lock().expect("supervisor poisoned");
        let Some(rec) = inner.jobs.get_mut(&id) else { return };
        rec.state = JobState::Queued;
        rec.token = None;
        if let Some(lease) = rec.lease.take() {
            lease.release();
        }
        rec.waits += 1;
        rec.queued_at = Instant::now();
        let sink = Arc::clone(&rec.sink);
        let waits = rec.waits;
        let class = rec.class;
        inner.queues.push_front(class, id);
        drop(inner);
        sink.emit(Event::JobPreempted { job: id });
        Self::job_span(id).child("queue_wait", waits).open_on(&*sink);
        self.work.notify_all();
    }

    fn run_job(&self, id: u64) {
        let job = Self::job_span(id);
        let (spec, sink, class, wait_ms, waits) = {
            let inner = self.inner.lock().expect("supervisor poisoned");
            let Some(rec) = inner.jobs.get(&id) else { return };
            let wait_ms = rec.queued_at.elapsed().as_secs_f64() * 1e3;
            (rec.spec.clone(), Arc::clone(&rec.sink), rec.class, wait_ms, rec.waits)
        };
        {
            let mut h = self.stats.lock().expect("stats poisoned");
            h.queue_wait_ms.record(wait_ms);
            h.queue_wait_class_ms[class.index()].record(wait_ms);
        }
        // Close the pending queue-wait span. Its open may sit on the
        // other side of a server restart — the replayed stream then shows
        // one queue wait arcing over the outage, which is the truth.
        job.child("queue_wait", waits).close_on(&*sink, waits);
        // Lease workers from the shared budget. A High job that finds the
        // pool drained first shrinks running Batch jobs down to one worker
        // each (they yield at their next shard boundary); whatever is
        // still short after that, the minimum-grant rule covers.
        let want = spec.jobs.max(1);
        if class == Priority::High && self.budget.available() < want as i64 {
            let inner = self.inner.lock().expect("supervisor poisoned");
            for rec in inner.jobs.values() {
                if self.budget.available() >= want as i64 {
                    break;
                }
                if rec.state == JobState::Running && rec.class == Priority::Batch {
                    if let Some(lease) = &rec.lease {
                        lease.shrink(1);
                    }
                }
            }
        }
        let lease = self.budget.lease(want);
        {
            let mut inner = self.inner.lock().expect("supervisor poisoned");
            let Some(rec) = inner.jobs.get_mut(&id) else { return };
            rec.lease = Some(lease.clone());
        }
        let policy = RetryPolicy {
            max_retries: spec.max_retries,
            base_ms: spec.backoff_ms,
            ..RetryPolicy::default()
        };
        let started = Instant::now();
        let ckpt = self.path(id, "ckpt");
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            {
                let mut inner = self.inner.lock().expect("supervisor poisoned");
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.attempt = attempt;
                }
            }
            // The deadline is a whole-job wall-clock budget: each attempt
            // gets whatever remains of it. The token carries the lease so
            // the campaign's workers observe shrinks at shard boundaries.
            let deadline = match spec.deadline_ms {
                Some(ms) => {
                    let total = Duration::from_millis(ms);
                    let elapsed = started.elapsed();
                    if elapsed >= total {
                        self.finish(
                            id,
                            JobState::DeadlineExceeded,
                            Event::JobDeadlineExceeded { job: id },
                        );
                        return;
                    }
                    Some(total - elapsed)
                }
                None => None,
            };
            let token = CancelToken::for_job(deadline, Some(lease.clone()));
            {
                let mut inner = self.inner.lock().expect("supervisor poisoned");
                let Some(rec) = inner.jobs.get_mut(&id) else { return };
                if rec.cancel_requested {
                    drop(inner);
                    self.finish(id, JobState::Cancelled, Event::JobCancelled { job: id });
                    return;
                }
                rec.token = Some(token.clone());
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Lost the race with begin_shutdown after it swept tokens.
                self.park(id);
                return;
            }
            sink.emit(Event::JobStarted { job: id, attempt: u64::from(attempt) });
            // The attempt span brackets exactly one runner invocation;
            // its id is what the runner hangs shard spans below.
            let attempt_span = job.child("attempt", u64::from(attempt));
            attempt_span.open_on(&*sink);
            let ctx = JobCtx {
                token: &token,
                sink: &sink,
                checkpoint: &ckpt,
                span: attempt_span.id,
                workers: lease.allowed().max(1),
            };
            let run_started = Instant::now();
            let status = catch_unwind(AssertUnwindSafe(|| self.runner.run(&spec, &ctx)));
            self.stats
                .lock()
                .expect("stats poisoned")
                .run_ms
                .record(run_started.elapsed().as_secs_f64() * 1e3);
            {
                let mut inner = self.inner.lock().expect("supervisor poisoned");
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.token = None;
                }
            }
            let (reason, transient) = match status {
                Ok(RunStatus::Done { csv }) => {
                    if let Err(e) = std::fs::write(self.csv_path(id), csv) {
                        attempt_span.close_on(&*sink, 0);
                        ("result write failed: ".to_string() + &e.to_string(), false)
                    } else {
                        attempt_span.close_on(&*sink, spec.trials as u64);
                        self.finish(
                            id,
                            JobState::Completed,
                            Event::JobCompleted { job: id, outcome: "completed".into() },
                        );
                        return;
                    }
                }
                Ok(RunStatus::Interrupted(i)) => {
                    attempt_span.close_on(&*sink, i.completed_trials as u64);
                    match i.reason {
                        CancelReason::Cancelled => {
                            self.finish(id, JobState::Cancelled, Event::JobCancelled { job: id });
                            return;
                        }
                        CancelReason::DeadlineExceeded => {
                            self.finish(
                                id,
                                JobState::DeadlineExceeded,
                                Event::JobDeadlineExceeded { job: id },
                            );
                            return;
                        }
                        CancelReason::Shutdown => {
                            self.park(id);
                            return;
                        }
                        CancelReason::Preempted => {
                            self.requeue_after_preempt(id);
                            return;
                        }
                    }
                }
                Ok(RunStatus::Failed { reason, transient }) => {
                    attempt_span.close_on(&*sink, 0);
                    (reason, transient)
                }
                Err(panic) => {
                    attempt_span.close_on(&*sink, 0);
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    (format!("worker panic: {msg}"), true)
                }
            };
            if !transient || !policy.allows(attempt) {
                eprintln!("emask-serve: job {id} failed permanently: {reason}");
                self.finish(
                    id,
                    JobState::Failed,
                    Event::JobCompleted { job: id, outcome: "failed".into() },
                );
                return;
            }
            let backoff = policy.backoff_ms(attempt);
            sink.emit(Event::JobRetried {
                job: id,
                attempt: u64::from(attempt + 1),
                backoff_ms: backoff,
            });
            // The backoff span's extent is the *planned* sleep — a pure
            // function of the retry policy, so the stream stays
            // deterministic; the measured sleep goes to the histogram.
            let backoff_span = job.child("backoff", u64::from(attempt));
            backoff_span.open_on(&*sink);
            self.stats.lock().expect("stats poisoned").backoff_ms.record(backoff as f64);
            // Sleep in slices so shutdown and cancel stay responsive.
            let wake = Instant::now() + Duration::from_millis(backoff);
            loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    backoff_span.close_on(&*sink, backoff);
                    self.park(id);
                    return;
                }
                let cancelled = {
                    let inner = self.inner.lock().expect("supervisor poisoned");
                    inner.jobs.get(&id).is_some_and(|r| r.cancel_requested)
                };
                if cancelled {
                    backoff_span.close_on(&*sink, backoff);
                    self.finish(id, JobState::Cancelled, Event::JobCancelled { job: id });
                    return;
                }
                let now = Instant::now();
                if now >= wake {
                    break;
                }
                std::thread::sleep((wake - now).min(Duration::from_millis(10)));
            }
            backoff_span.close_on(&*sink, backoff);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Finishes every job at once.
    struct DoneRunner;

    impl ExperimentRunner for DoneRunner {
        fn admit(&self, _spec: &JobSpec) -> Result<u64, String> {
            Ok(0)
        }

        fn run(&self, _spec: &JobSpec, _ctx: &JobCtx<'_>) -> RunStatus {
            RunStatus::Done { csv: String::new() }
        }
    }

    #[test]
    fn cancel_between_claim_and_start_records_one_terminal() {
        let dir = std::env::temp_dir().join(format!("emask-serve-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig { executors: 1, thread_budget: 1, ..ServerConfig::new(dir.clone()) };
        let sup = Supervisor::new(cfg, DoneRunner).unwrap();
        let id = sup.submit(JobSpec { experiment: "done".into(), ..JobSpec::default() }).unwrap();
        // What an executor does, with a cancel landing between its pop and
        // the start of the job.
        let claimed = sup.claim_next(&mut sup.inner.lock().unwrap()).map(|(id, _)| id);
        assert_eq!(claimed, Some(id));
        sup.cancel(id).unwrap();
        sup.run_job(id);
        assert_eq!(sup.job_state(id), Some(JobState::Cancelled));
        let events = std::fs::read_to_string(sup.path(id, "events.jsonl")).unwrap();
        assert_eq!(events.matches("\"event\":\"job_cancelled\"").count(), 1, "{events}");
        assert_eq!(events.matches("\"event\":\"job_started\"").count(), 0, "{events}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
