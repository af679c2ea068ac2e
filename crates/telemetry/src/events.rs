//! Structured campaign events and the zero-cost event-sink contract.
//!
//! A long campaign (a million-trace DPA, a resumable fault sweep) is a
//! black box without a live event stream. This module defines the
//! **vocabulary** of that stream — one [`Event`] per thing worth knowing
//! about a running campaign — and the [`EventSink`] trait through which
//! producers (`emask-par` workers, the `emask-bench` campaign and
//! experiment runners) hand events to whoever is listening.
//!
//! ## Replayable vs operational events
//!
//! Every event is one of two kinds, split by [`Event::is_replayable`]:
//!
//! * **Replayable** events are part of the campaign's *result*: the run
//!   header, periodic attack-convergence snapshots, per-trial fault
//!   outcomes, the completion record. They are emitted in a deterministic
//!   order from deterministic data, carry no wall-clock fields, and the
//!   JSONL stream built from them is **byte-identical** for any `--jobs`
//!   count and across a SIGKILL + `--resume` (CI `cmp`s it).
//! * **Operational** events describe the *execution*, not the result:
//!   per-trial completions, shard completions, checkpoint writes,
//!   recovery attempts. Their interleaving depends on scheduling, so they
//!   never enter the replayable stream — they drive the live stderr
//!   progress/ETA line and the live watchers, and a sink may drop them
//!   under backpressure (counted in [`EventSink::dropped`]).
//!
//! ## Zero cost when disabled
//!
//! [`EventSink`] follows the same compile-time routing pattern as the
//! CPU's `PipelineHook`: the associated [`EventSink::ACTIVE`] constant is
//! `false` for [`NullSink`], so emission sites guarded by
//! `if S::ACTIVE { … }` are dead-code-eliminated when no sink is
//! installed and the unobserved hot path is untouched.

use crate::chrome::escape_json;
use std::fmt::Write as _;

/// One structured campaign event.
///
/// Field order in [`Event::to_json`] is fixed, fields never carry wall
/// clock time, and numeric formatting uses Rust's shortest-roundtrip
/// float display — together these make the replayable JSONL stream
/// deterministic down to the byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Replayable stream header: the campaign began.
    CampaignStarted {
        /// Experiment name (`"dpa"`, `"tvla"`, `"fault"`, …).
        experiment: String,
        /// Total trial count the campaign will run.
        trials: u64,
        /// Base seed the per-trial seeds derive from.
        seed: u64,
        /// Snapshot cadence in trials (0 = final snapshot only).
        cadence: u64,
    },
    /// Replayable DPA convergence snapshot after `trials` traces.
    DpaConvergence {
        /// Traces folded into the accumulators so far.
        trials: u64,
        /// Current best key-guess (0..64).
        best_guess: u8,
        /// The best guess's differential peak.
        best_peak: f64,
        /// Best-vs-runner-up peak ratio margin.
        margin: f64,
        /// Sample offset (cycle within the window) of the best peak.
        peak_cycle: u64,
        /// Per-guess key rank: `ranks[g]` is the 0-based rank of guess
        /// `g` (0 = current leader) — the key-rank evolution curve.
        ranks: Vec<u8>,
    },
    /// Replayable TVLA convergence snapshot after `trials` trace pairs.
    TvlaConvergence {
        /// Fixed/random trace pairs folded so far.
        trials: u64,
        /// Max |t| over the trace window.
        max_t: f64,
        /// Sample offset of the max |t|.
        at_cycle: u64,
        /// Number of samples with |t| above the 4.5 TVLA threshold.
        leaky_cycles: u64,
    },
    /// Replayable per-trial fault-campaign outcome (emitted in trial
    /// order after the deterministic merge, never from workers).
    FaultOutcome {
        /// Trial index.
        trial: u64,
        /// Outcome class name (`"detected"`, `"recovered"`, …).
        outcome: String,
    },
    /// Replayable stream trailer: the campaign finished.
    CampaignCompleted {
        /// Total trials run.
        trials: u64,
        /// Operational events dropped under backpressure by the sink
        /// during this campaign, as observed at trailer-emission time
        /// (see [`EventSink::dropped`]). Zero whenever the consumer kept
        /// up — the stream stays byte-identical across `--jobs` counts in
        /// that (normal) case, and a nonzero value is precisely the
        /// signal that heartbeats were silently shed.
        dropped_events: u64,
        /// The same drops broken down by event kind (ascending by kind
        /// tag; empty when nothing was shed), so a reader can tell shed
        /// trial heartbeats from shed checkpoint notices. See
        /// [`EventSink::dropped_by_kind`].
        dropped_by_kind: Vec<(String, u64)>,
    },
    /// Replayable job-lifecycle event: the job entered the service queue.
    JobQueued {
        /// Service-assigned job id.
        job: u64,
        /// Experiment name (`"dpa"`, `"tvla"`, `"fault"`, …).
        experiment: String,
        /// Total trial count the job will run.
        trials: u64,
    },
    /// Replayable job-lifecycle event: an execution attempt began.
    JobStarted {
        /// Service-assigned job id.
        job: u64,
        /// 1-based attempt number (1 = first execution).
        attempt: u64,
    },
    /// Replayable job-lifecycle event: the previous attempt died (worker
    /// panic, checkpoint corruption restart, transient IO) and the job
    /// will re-run after a deterministic backoff.
    JobRetried {
        /// Service-assigned job id.
        job: u64,
        /// 1-based attempt number of the attempt about to start.
        attempt: u64,
        /// Deterministic exponential backoff slept before the retry.
        backoff_ms: u64,
    },
    /// Replayable job-lifecycle event: a client cancelled the job.
    JobCancelled {
        /// Service-assigned job id.
        job: u64,
    },
    /// Replayable job-lifecycle event: the job's deadline expired.
    JobDeadlineExceeded {
        /// Service-assigned job id.
        job: u64,
    },
    /// Replayable job-lifecycle event: a restarted server picked the job
    /// back up from its checkpoint.
    JobResumed {
        /// Service-assigned job id.
        job: u64,
    },
    /// Replayable job-lifecycle event: the scheduler parked the running
    /// job at a trial boundary to free its workers for higher-priority
    /// work; the job went back to the front of its class queue.
    JobPreempted {
        /// Service-assigned job id.
        job: u64,
    },
    /// Replayable job-lifecycle event: starvation-avoidance aging
    /// promoted the job to a higher priority class.
    JobPromoted {
        /// Service-assigned job id.
        job: u64,
        /// The class the job left (`"batch"`).
        from: String,
        /// The class the job joined (`"normal"`).
        to: String,
    },
    /// Replayable job-lifecycle event: the job reached a terminal state.
    JobCompleted {
        /// Service-assigned job id.
        job: u64,
        /// Terminal outcome: `"completed"`, `"failed"`, `"cancelled"`,
        /// or `"deadline_exceeded"`.
        outcome: String,
    },
    /// Replayable: a causal span opened (see [`crate::Span`]). Emitted
    /// only at deterministic points, so the span stream keeps the
    /// byte-identity contract.
    SpanOpened {
        /// Deterministic span id ([`crate::SpanId`]).
        span: u64,
        /// The parent span's id (0 for top-level spans).
        parent: u64,
        /// Span kind: `"job"`, `"attempt"`, `"queue_wait"`, `"backoff"`,
        /// `"shard"`, `"trial"`, …
        name: String,
        /// Sibling index (job id, attempt number, shard index, …).
        index: u64,
    },
    /// Replayable: a causal span closed. Consumers pair it with the
    /// nearest prior unmatched open of the same id.
    SpanClosed {
        /// Deterministic span id.
        span: u64,
        /// Logical extent of the span — trials in a shard, planned
        /// backoff milliseconds; never wall clock.
        items: u64,
    },
    /// Operational: a periodic snapshot of the service gauges, pushed
    /// into live watch streams so a dashboard needs no polling. Values
    /// are whole-service (not per-job) and scheduling-dependent, so the
    /// event never enters the replayable stream.
    ServiceMetrics {
        /// Jobs waiting in the queue.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
        /// Jobs finished successfully.
        completed: u64,
        /// Jobs failed permanently.
        failed: u64,
        /// Jobs cancelled by a client.
        cancelled: u64,
        /// Jobs that ran out of wall-clock budget.
        deadline_exceeded: u64,
    },
    /// Operational: a periodic snapshot of the multi-executor scheduler —
    /// per-class queue depths plus pool occupancy. Scheduling-dependent
    /// by nature, so it never enters the replayable stream.
    SchedulerHeartbeat {
        /// High-priority jobs waiting.
        high: u64,
        /// Normal-priority jobs waiting.
        normal: u64,
        /// Batch jobs waiting.
        batch: u64,
        /// Jobs currently executing.
        running: u64,
        /// Configured executor count.
        executors: u64,
        /// Unleased worker threads in the shared pool (0 when the
        /// minimum-grant rule has it oversubscribed).
        pool_available: u64,
    },
    /// Operational: one trial finished on some worker.
    TrialCompleted {
        /// Trial index.
        trial: u64,
    },
    /// Operational: a worker finished a whole shard.
    ShardCompleted {
        /// Shard index.
        shard: u64,
        /// Number of trials in the shard.
        len: u64,
    },
    /// Operational: a campaign checkpoint was persisted.
    CheckpointWritten {
        /// Shards recorded in the checkpoint so far.
        shards_done: u64,
    },
    /// Operational: a trial rolled back and re-executed.
    RecoveryAttempted {
        /// Trial index.
        trial: u64,
    },
}

impl Event {
    /// Whether this event belongs to the deterministic replayable stream
    /// (see the module docs for the split).
    #[must_use]
    pub fn is_replayable(&self) -> bool {
        matches!(
            self,
            Event::CampaignStarted { .. }
                | Event::DpaConvergence { .. }
                | Event::TvlaConvergence { .. }
                | Event::FaultOutcome { .. }
                | Event::CampaignCompleted { .. }
                | Event::JobQueued { .. }
                | Event::JobStarted { .. }
                | Event::JobRetried { .. }
                | Event::JobCancelled { .. }
                | Event::JobDeadlineExceeded { .. }
                | Event::JobResumed { .. }
                | Event::JobPreempted { .. }
                | Event::JobPromoted { .. }
                | Event::JobCompleted { .. }
                | Event::SpanOpened { .. }
                | Event::SpanClosed { .. }
        )
    }

    /// Every event tag, ascending — the authority consumers (e.g.
    /// `repro events validate`) check unknown streams against.
    pub const KINDS: [&'static str; 22] = [
        "campaign_completed",
        "campaign_started",
        "checkpoint_written",
        "dpa_convergence",
        "fault_outcome",
        "job_cancelled",
        "job_completed",
        "job_deadline_exceeded",
        "job_preempted",
        "job_promoted",
        "job_queued",
        "job_resumed",
        "job_retried",
        "job_started",
        "recovery_attempted",
        "scheduler_heartbeat",
        "service_metrics",
        "shard_completed",
        "span_closed",
        "span_opened",
        "trial_completed",
        "tvla_convergence",
    ];

    /// The event's type tag, as it appears in the JSON `"event"` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStarted { .. } => "campaign_started",
            Event::DpaConvergence { .. } => "dpa_convergence",
            Event::TvlaConvergence { .. } => "tvla_convergence",
            Event::FaultOutcome { .. } => "fault_outcome",
            Event::CampaignCompleted { .. } => "campaign_completed",
            Event::JobQueued { .. } => "job_queued",
            Event::JobStarted { .. } => "job_started",
            Event::JobRetried { .. } => "job_retried",
            Event::JobCancelled { .. } => "job_cancelled",
            Event::JobDeadlineExceeded { .. } => "job_deadline_exceeded",
            Event::JobResumed { .. } => "job_resumed",
            Event::JobPreempted { .. } => "job_preempted",
            Event::JobPromoted { .. } => "job_promoted",
            Event::JobCompleted { .. } => "job_completed",
            Event::SpanOpened { .. } => "span_opened",
            Event::SpanClosed { .. } => "span_closed",
            Event::ServiceMetrics { .. } => "service_metrics",
            Event::SchedulerHeartbeat { .. } => "scheduler_heartbeat",
            Event::TrialCompleted { .. } => "trial_completed",
            Event::ShardCompleted { .. } => "shard_completed",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::RecoveryAttempted { .. } => "recovery_attempted",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Hand-assembled (the build vendors no serde) with a fixed field
    /// order; strings pass through [`escape_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, r#"{{"event":"{}""#, self.kind());
        match self {
            Event::CampaignStarted { experiment, trials, seed, cadence } => {
                let _ = write!(
                    s,
                    r#","experiment":"{}","trials":{trials},"seed":{seed},"cadence":{cadence}"#,
                    escape_json(experiment)
                );
            }
            Event::DpaConvergence { trials, best_guess, best_peak, margin, peak_cycle, ranks } => {
                let _ = write!(
                    s,
                    r#","trials":{trials},"best_guess":{best_guess},"best_peak":{best_peak},"margin":{margin},"peak_cycle":{peak_cycle},"ranks":["#
                );
                for (i, r) in ranks.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{r}");
                }
                s.push(']');
            }
            Event::TvlaConvergence { trials, max_t, at_cycle, leaky_cycles } => {
                let _ = write!(
                    s,
                    r#","trials":{trials},"max_t":{max_t},"at_cycle":{at_cycle},"leaky_cycles":{leaky_cycles}"#
                );
            }
            Event::FaultOutcome { trial, outcome } => {
                let _ = write!(s, r#","trial":{trial},"outcome":"{}""#, escape_json(outcome));
            }
            Event::CampaignCompleted { trials, dropped_events, dropped_by_kind } => {
                let _ = write!(
                    s,
                    r#","trials":{trials},"dropped_events":{dropped_events},"dropped_by_kind":{{"#
                );
                for (i, (kind, n)) in dropped_by_kind.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, r#""{}":{n}"#, escape_json(kind));
                }
                s.push('}');
            }
            Event::JobQueued { job, experiment, trials } => {
                let _ = write!(
                    s,
                    r#","job":{job},"experiment":"{}","trials":{trials}"#,
                    escape_json(experiment)
                );
            }
            Event::JobStarted { job, attempt } => {
                let _ = write!(s, r#","job":{job},"attempt":{attempt}"#);
            }
            Event::JobRetried { job, attempt, backoff_ms } => {
                let _ = write!(s, r#","job":{job},"attempt":{attempt},"backoff_ms":{backoff_ms}"#);
            }
            Event::JobCancelled { job }
            | Event::JobDeadlineExceeded { job }
            | Event::JobResumed { job }
            | Event::JobPreempted { job } => {
                let _ = write!(s, r#","job":{job}"#);
            }
            Event::JobPromoted { job, from, to } => {
                let _ = write!(
                    s,
                    r#","job":{job},"from":"{}","to":"{}""#,
                    escape_json(from),
                    escape_json(to)
                );
            }
            Event::JobCompleted { job, outcome } => {
                let _ = write!(s, r#","job":{job},"outcome":"{}""#, escape_json(outcome));
            }
            Event::SpanOpened { span, parent, name, index } => {
                let _ = write!(
                    s,
                    r#","span":{span},"parent":{parent},"name":"{}","index":{index}"#,
                    escape_json(name)
                );
            }
            Event::SpanClosed { span, items } => {
                let _ = write!(s, r#","span":{span},"items":{items}"#);
            }
            Event::ServiceMetrics {
                queued,
                running,
                completed,
                failed,
                cancelled,
                deadline_exceeded,
            } => {
                let _ = write!(
                    s,
                    r#","queued":{queued},"running":{running},"completed":{completed},"failed":{failed},"cancelled":{cancelled},"deadline_exceeded":{deadline_exceeded}"#
                );
            }
            Event::SchedulerHeartbeat {
                high,
                normal,
                batch,
                running,
                executors,
                pool_available,
            } => {
                let _ = write!(
                    s,
                    r#","high":{high},"normal":{normal},"batch":{batch},"running":{running},"executors":{executors},"pool_available":{pool_available}"#
                );
            }
            Event::TrialCompleted { trial } => {
                let _ = write!(s, r#","trial":{trial}"#);
            }
            Event::ShardCompleted { shard, len } => {
                let _ = write!(s, r#","shard":{shard},"len":{len}"#);
            }
            Event::CheckpointWritten { shards_done } => {
                let _ = write!(s, r#","shards_done":{shards_done}"#);
            }
            Event::RecoveryAttempted { trial } => {
                let _ = write!(s, r#","trial":{trial}"#);
            }
        }
        s.push('}');
        s
    }
}

/// Where campaign events go.
///
/// Producers are generic over `S: EventSink` and guard emission sites
/// with `if S::ACTIVE`, so the [`NullSink`] path monomorphizes to the
/// event-free code — the same zero-cost routing as `PipelineHook`'s
/// `IS_NULL`. Sinks take `&self` (workers share one sink across
/// threads), so an implementation must be `Sync`.
pub trait EventSink: Sync {
    /// `false` only for sinks that discard everything; lets emission
    /// sites compile away entirely.
    const ACTIVE: bool = true;

    /// Accepts one event. Implementations decide the delivery policy
    /// (block, drop, buffer); `emask-serve`'s `JobSink` writes
    /// replayable events losslessly and sheds operational ones.
    fn emit(&self, event: Event);

    /// Operational events this sink has shed under backpressure so far.
    /// Lossless sinks (the default) report 0; campaign drivers fold the
    /// value into their `campaign_completed` trailer so silent drops are
    /// visible in the stream itself.
    fn dropped(&self) -> u64 {
        0
    }

    /// The shed events broken down by [`Event::kind`], ascending by kind
    /// tag. Lossless sinks (the default) report nothing; lossy sinks keep
    /// per-kind counters so a reader can tell which signal was lost —
    /// shed trial heartbeats are routine, shed checkpoint notices are
    /// not. The entries sum to [`EventSink::dropped`].
    fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// The discarding sink: `ACTIVE = false`, so guarded emission sites
/// vanish at compile time and the unobserved campaign path is untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    const ACTIVE: bool = false;

    fn emit(&self, _event: Event) {}
}

impl<S: EventSink> EventSink for &S {
    const ACTIVE: bool = S::ACTIVE;

    fn emit(&self, event: Event) {
        (**self).emit(event);
    }

    fn dropped(&self) -> u64 {
        (**self).dropped()
    }

    fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        (**self).dropped_by_kind()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn replayable_split_matches_the_stream_contract() {
        let replayable = [
            Event::CampaignStarted { experiment: "dpa".into(), trials: 8, seed: 1, cadence: 2 },
            Event::DpaConvergence {
                trials: 4,
                best_guess: 7,
                best_peak: 1.5,
                margin: 2.0,
                peak_cycle: 3,
                ranks: vec![7, 1],
            },
            Event::TvlaConvergence { trials: 4, max_t: 9.5, at_cycle: 2, leaky_cycles: 6 },
            Event::FaultOutcome { trial: 3, outcome: "detected".into() },
            Event::CampaignCompleted { trials: 8, dropped_events: 0, dropped_by_kind: vec![] },
            Event::JobQueued { job: 1, experiment: "fault".into(), trials: 8 },
            Event::JobStarted { job: 1, attempt: 1 },
            Event::JobRetried { job: 1, attempt: 2, backoff_ms: 250 },
            Event::JobCancelled { job: 1 },
            Event::JobDeadlineExceeded { job: 1 },
            Event::JobResumed { job: 1 },
            Event::JobPreempted { job: 1 },
            Event::JobPromoted { job: 1, from: "batch".into(), to: "normal".into() },
            Event::JobCompleted { job: 1, outcome: "completed".into() },
            Event::SpanOpened { span: 7, parent: 0, name: "job".into(), index: 1 },
            Event::SpanClosed { span: 7, items: 8 },
        ];
        let operational = [
            Event::TrialCompleted { trial: 0 },
            Event::ShardCompleted { shard: 1, len: 16 },
            Event::CheckpointWritten { shards_done: 2 },
            Event::RecoveryAttempted { trial: 5 },
            Event::ServiceMetrics {
                queued: 1,
                running: 1,
                completed: 0,
                failed: 0,
                cancelled: 0,
                deadline_exceeded: 0,
            },
            Event::SchedulerHeartbeat {
                high: 0,
                normal: 1,
                batch: 2,
                running: 1,
                executors: 3,
                pool_available: 4,
            },
        ];
        assert!(replayable.iter().all(Event::is_replayable));
        assert!(operational.iter().all(|e| !e.is_replayable()));
    }

    #[test]
    fn json_has_fixed_field_order_and_escapes_strings() {
        let e = Event::CampaignStarted {
            experiment: "dpa \"x\"".into(),
            trials: 512,
            seed: 42,
            cadence: 64,
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"campaign_started","experiment":"dpa \"x\"","trials":512,"seed":42,"cadence":64}"#
        );
        let e = Event::DpaConvergence {
            trials: 128,
            best_guess: 27,
            best_peak: 0.5,
            margin: 1.25,
            peak_cycle: 91,
            ranks: vec![27, 3, 60],
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"dpa_convergence","trials":128,"best_guess":27,"best_peak":0.5,"margin":1.25,"peak_cycle":91,"ranks":[27,3,60]}"#
        );
        let e = Event::SpanOpened { span: 11, parent: 3, name: "shard".into(), index: 4 };
        assert_eq!(
            e.to_json(),
            r#"{"event":"span_opened","span":11,"parent":3,"name":"shard","index":4}"#
        );
        let e = Event::SpanClosed { span: 11, items: 12 };
        assert_eq!(e.to_json(), r#"{"event":"span_closed","span":11,"items":12}"#);
        let e = Event::CampaignCompleted {
            trials: 4,
            dropped_events: 3,
            dropped_by_kind: vec![("shard_completed".into(), 1), ("trial_completed".into(), 2)],
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"campaign_completed","trials":4,"dropped_events":3,"dropped_by_kind":{"shard_completed":1,"trial_completed":2}}"#
        );
    }

    #[test]
    fn json_is_balanced_for_every_variant() {
        let all = [
            Event::CampaignStarted { experiment: "t".into(), trials: 1, seed: 0, cadence: 0 },
            Event::DpaConvergence {
                trials: 1,
                best_guess: 0,
                best_peak: 0.0,
                margin: 0.0,
                peak_cycle: 0,
                ranks: vec![0],
            },
            Event::TvlaConvergence { trials: 1, max_t: 0.0, at_cycle: 0, leaky_cycles: 0 },
            Event::FaultOutcome { trial: 0, outcome: "no-effect".into() },
            Event::CampaignCompleted {
                trials: 1,
                dropped_events: 1,
                dropped_by_kind: vec![("trial_completed".into(), 1)],
            },
            Event::JobQueued { job: 0, experiment: "dpa".into(), trials: 1 },
            Event::JobStarted { job: 0, attempt: 1 },
            Event::JobRetried { job: 0, attempt: 2, backoff_ms: 0 },
            Event::JobCancelled { job: 0 },
            Event::JobDeadlineExceeded { job: 0 },
            Event::JobResumed { job: 0 },
            Event::JobPreempted { job: 0 },
            Event::JobPromoted { job: 0, from: "batch".into(), to: "normal".into() },
            Event::JobCompleted { job: 0, outcome: "failed".into() },
            Event::SpanOpened { span: 1, parent: 0, name: "job".into(), index: 1 },
            Event::SpanClosed { span: 1, items: 0 },
            Event::ServiceMetrics {
                queued: 0,
                running: 0,
                completed: 0,
                failed: 0,
                cancelled: 0,
                deadline_exceeded: 0,
            },
            Event::SchedulerHeartbeat {
                high: 0,
                normal: 0,
                batch: 0,
                running: 0,
                executors: 1,
                pool_available: 1,
            },
            Event::TrialCompleted { trial: 0 },
            Event::ShardCompleted { shard: 0, len: 1 },
            Event::CheckpointWritten { shards_done: 1 },
            Event::RecoveryAttempted { trial: 0 },
        ];
        for e in &all {
            let json = e.to_json();
            assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
            assert!(json.starts_with(&format!(r#"{{"event":"{}""#, e.kind())), "{json}");
        }
        // The KINDS table is the complete, sorted vocabulary.
        let mut kinds: Vec<&str> = all.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, Event::KINDS, "KINDS must list every variant, ascending");
    }

    #[test]
    fn null_sink_is_inactive_and_references_forward() {
        const { assert!(!NullSink::ACTIVE) };
        const { assert!(!<&NullSink as EventSink>::ACTIVE) };
        struct Collect(std::sync::Mutex<Vec<Event>>);
        impl EventSink for Collect {
            fn emit(&self, event: Event) {
                self.0.lock().expect("poisoned").push(event);
            }
        }
        const { assert!(<&Collect as EventSink>::ACTIVE) };
        let c = Collect(std::sync::Mutex::new(Vec::new()));
        let via_ref: &Collect = &c;
        via_ref.emit(Event::TrialCompleted { trial: 9 });
        assert_eq!(c.0.lock().expect("poisoned").len(), 1);
    }
}
