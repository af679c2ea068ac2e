//! The event sink: a JSONL document of record plus live fanout.
//!
//! Replayable events (the campaign's deterministic stream **and** the
//! job-lifecycle events) are written to the document losslessly; a write
//! blocks the emitting thread, so a slow document throttles the campaign
//! instead of losing events. Operational heartbeats are never written;
//! they are forwarded best-effort to live subscribers (`watch`
//! connections) through bounded channels, dropped and counted per kind
//! under backpressure.
//!
//! The service gives every job one append-only `job-<id>.events.jsonl`
//! ([`JobSink::open`]): appended across retries and resumes, the file is
//! the job's full supervision history. `repro --live-out` writes one
//! campaign's document to a fresh file or to stdout ([`JobSink::new`])
//! and registers no subscribers, so nothing is dropped there.

use emask_telemetry::{Event, EventSink};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

/// Buffered lines per live subscriber before heartbeats start dropping.
const SUBSCRIBER_DEPTH: usize = 256;

struct SinkState {
    out: Box<dyn Write + Send>,
    /// The first failed write, kept for [`JobSink::flush`].
    failed: Option<std::io::Error>,
    subscribers: Vec<SyncSender<String>>,
}

/// The [`EventSink`] behind every job and `repro --live-out`: lossless
/// JSONL document + lossy live fanout.
pub struct JobSink {
    state: Mutex<SinkState>,
    dropped: AtomicU64,
    /// Per-kind breakdown of `dropped` — a lossy counter is only
    /// actionable if it says *what* was shed (all heartbeats? or
    /// convergence snapshots a dashboard was relying on?).
    dropped_kinds: Mutex<BTreeMap<&'static str, u64>>,
}

impl std::fmt::Debug for JobSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSink").field("dropped", &self.dropped).finish_non_exhaustive()
    }
}

impl JobSink {
    /// A sink writing its replayable lines to `out`.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        JobSink {
            state: Mutex::new(SinkState {
                out: Box::new(out),
                failed: None,
                subscribers: Vec::new(),
            }),
            dropped: AtomicU64::new(0),
            dropped_kinds: Mutex::new(BTreeMap::new()),
        }
    }

    /// Opens (appending) the job's event file.
    ///
    /// # Errors
    ///
    /// Forwards the underlying IO error.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(OpenOptions::new().create(true).append(true).open(path)?))
    }

    /// Registers a live subscriber: returns the channel end to stream
    /// from, after `snapshot` receives everything already on disk at
    /// `path`, the file this sink was [`open`](JobSink::open)ed on. The
    /// snapshot read and the registration happen under one lock, so no
    /// event is missed or duplicated at the handoff.
    ///
    /// # Errors
    ///
    /// Forwards the underlying IO error from the snapshot read.
    pub(crate) fn subscribe(&self, path: &Path) -> std::io::Result<(String, Receiver<String>)> {
        let mut st = self.state.lock().expect("job sink poisoned");
        let snapshot = std::fs::read_to_string(path)?;
        let (tx, rx) = sync_channel(SUBSCRIBER_DEPTH);
        st.subscribers.push(tx);
        Ok((snapshot, rx))
    }

    fn deliver(&self, line: &str, kind: &'static str, persist: bool) {
        let mut st = self.state.lock().expect("job sink poisoned");
        if persist {
            // An unwritable document is a lost history, not a lost
            // campaign — the CSV/summary results don't pass through here.
            // Surface the first failure on stderr and keep it for
            // `flush` rather than killing the job.
            if let Err(e) = writeln!(st.out, "{line}") {
                if st.failed.is_none() {
                    eprintln!("error: event stream write failed: {e}");
                    st.failed = Some(e);
                }
            }
        }
        let mut dropped = 0u64;
        st.subscribers.retain(|tx| match tx.try_send(line.to_string()) {
            Ok(()) => true,
            // Replayable lines survive in the document either way; the
            // shed live copy is still counted so drops are never silent.
            Err(TrySendError::Full(_)) => {
                dropped += 1;
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        drop(st);
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
            let mut kinds = self.dropped_kinds.lock().expect("job sink poisoned");
            let slot = kinds.entry(kind).or_insert(0);
            *slot = slot.saturating_add(dropped);
        }
    }

    /// Flushes the document.
    ///
    /// # Errors
    ///
    /// The first write that failed since the last `flush`, if any, else
    /// the flush's own error.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut st = self.state.lock().expect("job sink poisoned");
        let flushed = st.out.flush();
        st.failed.take().map_or(flushed, Err)
    }

    /// Drops every live subscriber (their streams end); the document
    /// stays open for further writes.
    pub(crate) fn disconnect_subscribers(&self) {
        self.state.lock().expect("job sink poisoned").subscribers.clear();
    }
}

impl EventSink for JobSink {
    fn emit(&self, event: Event) {
        let persist = event.is_replayable();
        self.deliver(&event.to_json(), event.kind(), persist);
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        let kinds = self.dropped_kinds.lock().expect("job sink poisoned");
        kinds.iter().map(|(k, &n)| ((*k).to_string(), n)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emask-serve-{}-{name}.jsonl", std::process::id()));
        p
    }

    #[test]
    fn replayable_events_append_across_reopens() {
        let path = tmp("append");
        let _ = std::fs::remove_file(&path);
        {
            let sink = JobSink::open(&path).unwrap();
            sink.emit(Event::JobQueued { job: 1, experiment: "fault".into(), trials: 4 });
            sink.emit(Event::TrialCompleted { trial: 0 }); // operational: not persisted
        }
        {
            let sink = JobSink::open(&path).unwrap();
            sink.emit(Event::JobStarted { job: 1, attempt: 1 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                let start = l.find("\"event\":\"").unwrap() + 9;
                let rest = &l[start..];
                &rest[..rest.find('"').unwrap()]
            })
            .collect();
        assert_eq!(kinds, vec!["job_queued", "job_started"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn subscribers_get_snapshot_then_live_events() {
        let path = tmp("subscribe");
        let _ = std::fs::remove_file(&path);
        let sink = JobSink::open(&path).unwrap();
        sink.emit(Event::JobQueued { job: 2, experiment: "tvla".into(), trials: 8 });
        let (snapshot, rx) = sink.subscribe(&path).unwrap();
        assert!(snapshot.contains("job_queued"));
        sink.emit(Event::JobStarted { job: 2, attempt: 1 });
        let live = rx.recv().unwrap();
        assert!(live.contains("job_started"));
        drop(rx);
        // A disconnected subscriber is pruned on the next delivery.
        sink.emit(Event::JobCompleted { job: 2, outcome: "completed".into() });
        assert_eq!(sink.state.lock().unwrap().subscribers.len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_subscribers_shed_and_count() {
        let path = tmp("shed");
        let _ = std::fs::remove_file(&path);
        let sink = JobSink::open(&path).unwrap();
        let (_snapshot, rx) = sink.subscribe(&path).unwrap();
        for t in 0..(SUBSCRIBER_DEPTH as u64 + 10) {
            sink.emit(Event::TrialCompleted { trial: t });
        }
        assert_eq!(EventSink::dropped(&sink), 10, "overflow heartbeats are counted");
        assert_eq!(sink.dropped_by_kind(), vec![("trial_completed".to_string(), 10)]);
        drop(rx);
        let _ = std::fs::remove_file(&path);
    }

    /// A writer that fails every write, counting the attempts.
    struct Full(std::sync::Arc<AtomicU64>);

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::other("device full"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_returns_the_first_failed_write() {
        let attempts = std::sync::Arc::new(AtomicU64::new(0));
        let sink = JobSink::new(Full(std::sync::Arc::clone(&attempts)));
        sink.emit(Event::JobQueued { job: 3, experiment: "dpa".into(), trials: 2 });
        sink.emit(Event::JobStarted { job: 3, attempt: 1 });
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "every replayable line is attempted");
        assert_eq!(sink.flush().unwrap_err().to_string(), "device full");
        assert!(sink.flush().is_ok(), "the failure is reported once");
    }
}
