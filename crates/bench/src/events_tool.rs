//! Offline analysis of campaign event streams — the `repro events`
//! toolchain.
//!
//! Consumes the JSONL documents the service and the `--live-out` flag
//! produce (per-job `job-<id>.events.jsonl` histories, captured live
//! streams) and turns them into:
//!
//! * [`validate`] — strict schema checking: every line must parse as a
//!   JSON object whose `event` tag is a known kind ([`Event::KINDS`]).
//! * [`summarize`] — a human report: event counts, job lifecycle, the
//!   final convergence verdicts, span-extent percentile tables (built on
//!   [`Histogram::quantile`]), and dropped-event accounting.
//! * [`tail`] — the last `n` lines, for quick peeks at long histories.
//! * [`trace`] — a Chrome trace-event document: the causal span tree
//!   (job → attempt → shard) as nested `"X"` rows, lifecycle and
//!   convergence events as instants. One stream line maps to one
//!   microsecond of trace time, so positions read as line numbers —
//!   deliberate: replayable streams carry no wall clock, and the trace
//!   must be as deterministic as the stream it renders.
//!
//! Consumers are tolerant where producers are honest: a close without a
//! prior open (history rotated away), a re-opened id (a second attempt
//! after a park), and spans still open at EOF (a live capture mid-run)
//! all render sensibly instead of erroring.

use emask_serve::json::{parse, Json};
use emask_telemetry::{chrome_trace_json, escape_json, Event, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed stream line we care about.
struct Line {
    /// 0-based line index — the stream's logical clock.
    index: u64,
    kind: String,
    doc: Json,
}

fn parse_lines(text: &str) -> Result<Vec<Line>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let doc = parse(raw).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(kind) = doc.get("event").and_then(Json::as_str) else {
            return Err(format!("line {}: not an event object (no 'event' member)", i + 1));
        };
        out.push(Line { index: i as u64, kind: kind.to_string(), doc });
    }
    Ok(out)
}

/// Validates a stream: every line parses, every event kind is known.
/// Returns a one-line-per-kind accounting report.
///
/// # Errors
///
/// The first offending line, 1-based, with the parse or schema reason.
pub fn validate_events(text: &str) -> Result<String, String> {
    let lines = parse_lines(text)?;
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for line in &lines {
        if !Event::KINDS.contains(&line.kind.as_str()) {
            return Err(format!("line {}: unknown event kind '{}'", line.index + 1, line.kind));
        }
        *counts.entry(line.kind.as_str()).or_insert(0) += 1;
    }
    let mut out = format!("ok: {} events, {} kinds\n", lines.len(), counts.len());
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {kind:<22} {n}");
    }
    Ok(out)
}

/// The last `n` non-empty lines, verbatim.
#[must_use]
pub fn tail_events(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let start = lines.len().saturating_sub(n);
    let mut out = String::new();
    for line in &lines[start..] {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn num(doc: &Json, key: &str) -> f64 {
    match doc.get(key) {
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Float(f)) => *f,
        _ => 0.0,
    }
}

fn uint(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Summarizes a stream: counts, job lifecycle, final convergence
/// verdicts, span-extent percentile tables, and dropped-event
/// accounting.
///
/// # Errors
///
/// The first unparseable line (summaries of corrupt streams would lie).
pub fn summarize_events(text: &str) -> Result<String, String> {
    let lines = parse_lines(text)?;
    let mut out = String::from("event stream summary\n");
    let _ = writeln!(out, "  events: {}", lines.len());

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in &lines {
        *counts.entry(line.kind.clone()).or_insert(0) += 1;
    }
    for (kind, n) in &counts {
        let _ = writeln!(out, "    {kind:<22} {n}");
    }

    // Job lifecycle: last state-bearing event per job id.
    let mut jobs: BTreeMap<u64, &str> = BTreeMap::new();
    for line in &lines {
        let verdict = match line.kind.as_str() {
            // A preempted job is back in its class queue; `job_promoted`
            // only changes the class, not the state, so it is skipped.
            "job_queued" | "job_resumed" | "job_preempted" => "queued",
            "job_started" | "job_retried" => "running",
            "job_cancelled" => "cancelled",
            "job_deadline_exceeded" => "deadline_exceeded",
            "job_completed" => {
                if line.doc.get("outcome").and_then(Json::as_str) == Some("failed") {
                    "failed"
                } else {
                    "completed"
                }
            }
            _ => continue,
        };
        jobs.insert(uint(&line.doc, "job"), verdict);
    }
    if !jobs.is_empty() {
        out.push_str("  jobs:\n");
        for (id, state) in &jobs {
            let _ = writeln!(out, "    job {id}: {state}");
        }
    }

    // Final convergence verdicts, per experiment family.
    if let Some(last) = lines.iter().rfind(|l| l.kind == "dpa_convergence") {
        let _ = writeln!(
            out,
            "  dpa: best_guess {} margin {:.3} after {} trials",
            uint(&last.doc, "best_guess"),
            num(&last.doc, "margin"),
            uint(&last.doc, "trials"),
        );
    }
    if let Some(last) = lines.iter().rfind(|l| l.kind == "tvla_convergence") {
        let _ = writeln!(
            out,
            "  tvla: max_t {:.3} leaky_cycles {} after {} trace pairs",
            num(&last.doc, "max_t"),
            uint(&last.doc, "leaky_cycles"),
            // The event field is named `trials`; each TVLA trial is one
            // fixed/random trace pair.
            uint(&last.doc, "trials"),
        );
    }

    // Span-extent percentile tables: one histogram of `items` per span
    // name. Extents are logical units (trials, planned backoff ms), so
    // the quantiles are deterministic properties of the stream.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut extents: BTreeMap<String, Histogram> = BTreeMap::new();
    for line in &lines {
        match line.kind.as_str() {
            "span_opened" => {
                if let Some(name) = line.doc.get("name").and_then(Json::as_str) {
                    names.insert(uint(&line.doc, "span"), name.to_string());
                }
            }
            "span_closed" => {
                let name = names
                    .get(&uint(&line.doc, "span"))
                    .cloned()
                    .unwrap_or_else(|| "(unmatched)".into());
                extents
                    .entry(name)
                    .or_insert_with(|| Histogram::new(8.0, 32))
                    .record(num(&line.doc, "items"));
            }
            _ => {}
        }
    }
    if !extents.is_empty() {
        out.push_str("  span extents (items):      n     mean      p50      p95      p99\n");
        for (name, h) in &extents {
            let _ = writeln!(
                out,
                "    {name:<18} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        let opened = counts.get("span_opened").copied().unwrap_or(0);
        let closed = counts.get("span_closed").copied().unwrap_or(0);
        let _ = writeln!(out, "  spans: {opened} opened, {closed} closed");
    }

    // Dropped-event accounting from the campaign trailers.
    let mut dropped = 0u64;
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for line in lines.iter().filter(|l| l.kind == "campaign_completed") {
        dropped += uint(&line.doc, "dropped_events");
        if let Some(Json::Obj(members)) = line.doc.get("dropped_by_kind") {
            for (kind, n) in members {
                *by_kind.entry(kind.clone()).or_insert(0) += n.as_u64().unwrap_or(0);
            }
        }
    }
    let _ = writeln!(out, "  dropped operational events: {dropped}");
    for (kind, n) in &by_kind {
        let _ = writeln!(out, "    {kind:<22} {n}");
    }
    Ok(out)
}

/// Lifecycle and convergence kinds worth an instant row in the trace.
/// Per-trial kinds (`fault_outcome`, `trial_completed`, heartbeats) are
/// deliberately absent — thousands of instants bury the span tree.
const INSTANT_KINDS: [&str; 14] = [
    "campaign_completed",
    "campaign_started",
    "checkpoint_written",
    "dpa_convergence",
    "job_cancelled",
    "job_completed",
    "job_deadline_exceeded",
    "job_preempted",
    "job_promoted",
    "job_queued",
    "job_resumed",
    "job_retried",
    "job_started",
    "tvla_convergence",
];

/// Renders the stream as a Chrome trace-event document.
///
/// Span open/close pairs become `"X"` complete events whose lane (`tid`)
/// is the span's depth in the causal tree, so the job → attempt → shard
/// nesting reads directly as indentation in `chrome://tracing` /
/// Perfetto. The time axis is the stream's line index (1 line = 1 µs):
/// replayable streams carry no wall clock, and a deterministic stream
/// deserves a deterministic trace. Instants ride lane 0.
///
/// # Errors
///
/// The first unparseable line.
pub fn trace_events(text: &str) -> Result<String, String> {
    let lines = parse_lines(text)?;
    let end_tick = lines.last().map_or(1, |l| l.index + 1);

    struct Open {
        start: u64,
        name: String,
        index: u64,
        depth: u64,
    }
    // span id → stack of unmatched opens (re-opened ids pair innermost).
    let mut open: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut depths: BTreeMap<u64, u64> = BTreeMap::new();
    let mut max_depth = 1u64;
    let mut events: Vec<String> = Vec::new();

    let close_span = |o: Open, end: u64, items: f64| {
        let dur = (end - o.start).max(1);
        format!(
            r#"{{"name":"{} {}","ph":"X","ts":{},"dur":{dur},"pid":1,"tid":{},"args":{{"items":{items}}}}}"#,
            escape_json(&o.name),
            o.index,
            o.start,
            o.depth,
        )
    };

    for line in &lines {
        match line.kind.as_str() {
            "span_opened" => {
                let id = uint(&line.doc, "span");
                let parent = uint(&line.doc, "parent");
                let depth = depths.get(&parent).map_or(1, |d| d + 1);
                depths.insert(id, depth);
                max_depth = max_depth.max(depth);
                open.entry(id).or_default().push(Open {
                    start: line.index,
                    name: line.doc.get("name").and_then(Json::as_str).unwrap_or("span").to_string(),
                    index: uint(&line.doc, "index"),
                    depth,
                });
            }
            "span_closed" => {
                let id = uint(&line.doc, "span");
                let items = num(&line.doc, "items");
                match open.get_mut(&id).and_then(Vec::pop) {
                    Some(o) => events.push(close_span(o, line.index, items)),
                    // Close without an open (rotated history): a 1-tick
                    // marker at the close position.
                    None => events.push(close_span(
                        Open { start: line.index, name: "(unmatched)".into(), index: id, depth: 1 },
                        line.index,
                        items,
                    )),
                }
            }
            kind if INSTANT_KINDS.contains(&kind) => {
                events.push(format!(
                    r#"{{"name":"{}","ph":"i","ts":{},"pid":1,"tid":0,"s":"p"}}"#,
                    escape_json(kind),
                    line.index,
                ));
            }
            _ => {}
        }
    }
    // Spans still open at EOF (a live capture mid-run) extend to the end.
    for (_, stack) in open {
        for o in stack {
            events.push(close_span(o, end_tick, 0.0));
        }
    }

    let mut lanes = vec!["events".to_string()];
    lanes.extend((1..=max_depth).map(|d| format!("depth {d}")));
    Ok(chrome_trace_json(&lanes, &events))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_telemetry::Span;

    /// A small synthetic but schema-true stream: one job, one attempt,
    /// two shards, plus campaign bookkeeping.
    fn sample_stream() -> String {
        let job = Span::root("job", 1);
        let queue = job.child("queue_wait", 1);
        let attempt = job.child("attempt", 1);
        let s0 = attempt.child("shard", 0);
        let s1 = attempt.child("shard", 1);
        let events = vec![
            Event::JobQueued { job: 1, experiment: "dpa".into(), trials: 48 },
            job.opened(),
            queue.opened(),
            queue.closed(1),
            Event::JobStarted { job: 1, attempt: 1 },
            attempt.opened(),
            Event::CampaignStarted { experiment: "dpa".into(), trials: 48, seed: 7, cadence: 16 },
            Event::DpaConvergence {
                trials: 48,
                best_guess: 33,
                best_peak: 1.5,
                margin: 2.0,
                peak_cycle: 100,
                ranks: vec![0; 64],
            },
            Event::CampaignCompleted {
                trials: 48,
                dropped_events: 3,
                dropped_by_kind: vec![("trial_completed".into(), 3)],
            },
            s0.opened(),
            s0.closed(24),
            s1.opened(),
            s1.closed(24),
            attempt.closed(48),
            Event::JobCompleted { job: 1, outcome: "completed".into() },
            job.closed(1),
        ];
        events.iter().map(|e| e.to_json() + "\n").collect()
    }

    #[test]
    fn validate_accepts_real_streams_and_rejects_junk() {
        let report = validate_events(&sample_stream()).unwrap();
        assert!(report.starts_with("ok: 16 events"), "{report}");
        assert!(report.contains("span_opened"), "{report}");
        assert!(validate_events("not json\n").is_err());
        assert_eq!(
            validate_events("{\"event\":\"martian\"}\n").unwrap_err(),
            "line 1: unknown event kind 'martian'"
        );
        assert!(validate_events("{\"no_event\":1}\n").is_err());
    }

    #[test]
    fn summarize_reports_lifecycle_convergence_and_drops() {
        let report = summarize_events(&sample_stream()).unwrap();
        assert!(report.contains("job 1: completed"), "{report}");
        assert!(report.contains("dpa: best_guess 33 margin 2.000 after 48 trials"), "{report}");
        assert!(report.contains("dropped operational events: 3"), "{report}");
        assert!(report.contains("trial_completed"), "{report}");
        assert!(report.contains("5 opened, 5 closed"), "{report}");
        // The shard extent table sees two 24-trial shards.
        assert!(report.contains("shard"), "{report}");
    }

    #[test]
    fn tail_returns_the_last_lines_verbatim() {
        let stream = sample_stream();
        let t = tail_events(&stream, 2);
        assert_eq!(t.lines().count(), 2);
        assert!(stream.ends_with(&t), "tail must be a suffix");
        assert_eq!(tail_events(&stream, 10_000), stream, "n past EOF returns everything");
    }

    #[test]
    fn trace_nests_job_attempt_shard_and_parses_as_strict_json() {
        let doc = trace_events(&sample_stream()).unwrap();
        let parsed = parse(&doc).unwrap();
        let rows = match parsed.get("traceEvents") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("no traceEvents array: {other:?}"),
        };
        // Depth = lane: job on 1, queue_wait/attempt on 2, shards on 3.
        let tid_of = |name: &str| {
            rows.iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no row '{name}' in {doc}"))
                .get("tid")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(tid_of("job 1"), 1);
        assert_eq!(tid_of("attempt 1"), 2);
        assert_eq!(tid_of("shard 0"), 3);
        assert_eq!(tid_of("shard 1"), 3);
        // Nesting: the attempt's interval contains the shards'.
        let span_of = |name: &str| {
            let row =
                rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name)).unwrap();
            let ts = row.get("ts").unwrap().as_u64().unwrap();
            (ts, ts + row.get("dur").unwrap().as_u64().unwrap())
        };
        let (a0, a1) = span_of("attempt 1");
        let (j0, j1) = span_of("job 1");
        let (s0, s1) = span_of("shard 0");
        assert!(j0 <= a0 && a1 <= j1, "job must contain attempt: {doc}");
        assert!(a0 <= s0 && s1 <= a1, "attempt must contain shard: {doc}");
        // Instants land on lane 0.
        assert_eq!(tid_of("job_completed"), 0);
    }

    #[test]
    fn trace_tolerates_unmatched_and_unclosed_spans() {
        let job = Span::root("job", 9);
        let stream = format!(
            "{}\n{}\n{}\n",
            job.child("queue_wait", 2).closed(2).to_json(), // close w/o open
            job.opened().to_json(),                         // open w/o close
            Event::JobResumed { job: 9 }.to_json(),
        );
        let doc = trace_events(&stream).unwrap();
        assert!(parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("(unmatched)"), "{doc}");
        assert!(doc.contains("job 9"), "unclosed span still rendered: {doc}");
    }
}
