//! Golden tests for the `repro events` toolchain over a small committed
//! fixture stream (`tests/fixtures/events.jsonl`).
//!
//! The fixture is a two-job service history — a retried TVLA job next to a
//! clean DPA job with its span tree and campaign bookkeeping — plus one
//! deliberately malformed line (an unknown event kind). That line is valid
//! JSON, so the tolerant consumers (`summarize`, `trace`) must sail past
//! it, while strict `validate` must reject it with a precise 1-based line
//! number.
//!
//! The expected outputs are committed verbatim next to the fixture. To
//! refresh them after an intentional format change, run:
//!
//! ```text
//! cargo test -p emask-bench --test events_tool_golden -- --ignored
//! ```
//!
//! and review the diff like any other code change.

use emask_bench::{summarize_events, tail_events, trace_events, validate_events};

const FIXTURE: &str = include_str!("fixtures/events.jsonl");
const VALIDATE_GOLDEN: &str = include_str!("fixtures/validate.golden.txt");
const SUMMARY_GOLDEN: &str = include_str!("fixtures/summary.golden.txt");
const TRACE_GOLDEN: &str = include_str!("fixtures/trace.golden.json");

/// The malformed line's 1-based position in the fixture, and its kind tag.
const MARTIAN_LINE: usize = 24;
const MARTIAN_KIND: &str = "martian_probe";

/// Strict validation rejects the stream at exactly the malformed line.
#[test]
fn validate_rejects_the_unknown_event_kind_with_its_line_number() {
    let err = validate_events(FIXTURE).expect_err("fixture contains a malformed line");
    assert_eq!(err, format!("line {MARTIAN_LINE}: unknown event kind '{MARTIAN_KIND}'"));
}

/// With the malformed line removed the stream is schema-clean, and the
/// accounting report matches the committed golden byte-for-byte.
#[test]
fn validate_accepts_the_cleaned_stream_and_matches_golden() {
    let cleaned = cleaned_fixture();
    let report = validate_events(&cleaned).expect("cleaned fixture must validate");
    assert_eq!(report, VALIDATE_GOLDEN);
    assert!(!report.contains(MARTIAN_KIND));
}

/// `summarize` tolerates the unknown kind (it still counts it) and the
/// whole report — lifecycle, convergence verdicts, span extents, drop
/// accounting — matches the committed golden byte-for-byte.
#[test]
fn summarize_matches_golden() {
    let report = summarize_events(FIXTURE).expect("summarize tolerates unknown kinds");
    assert_eq!(report, SUMMARY_GOLDEN);
    // Spot checks so a regenerated golden can't silently go hollow.
    assert!(report.contains("job 1: completed"), "{report}");
    assert!(report.contains("job 2: failed"), "{report}");
    assert!(report.contains("dpa: best_guess 33 margin 2.000 after 64 trials"), "{report}");
    assert!(report.contains("tvla: max_t 6.125 leaky_cycles 3 after 32 trace pairs"), "{report}");
    assert!(report.contains("dropped operational events: 2"), "{report}");
    assert!(report.contains(MARTIAN_KIND), "unknown kinds still counted: {report}");
}

/// `trace` skips the unknown kind, renders the span tree, and the Chrome
/// trace document matches the committed golden byte-for-byte — and stays
/// parseable by the workspace's own strict JSON parser.
#[test]
fn trace_matches_golden_and_parses_as_strict_json() {
    let doc = trace_events(FIXTURE).expect("trace tolerates unknown kinds");
    assert_eq!(doc, TRACE_GOLDEN);
    let parsed = emask_serve::json::parse(&doc).expect("trace output must be strict JSON");
    let rows = match parsed.get("traceEvents") {
        Some(emask_serve::json::Json::Arr(rows)) => rows,
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert!(!rows.is_empty());
    assert!(!doc.contains(MARTIAN_KIND), "unknown kinds must not leak into the trace");
}

/// `tail` returns a verbatim suffix of the fixture, malformed line and all.
#[test]
fn tail_is_a_verbatim_suffix_of_the_fixture() {
    let t = tail_events(FIXTURE, 3);
    assert_eq!(t.lines().count(), 3);
    assert!(FIXTURE.ends_with(&t), "tail must be a suffix");
    assert!(t.contains(MARTIAN_KIND), "the malformed line sits in the last 3");
}

/// Strips the malformed line, preserving every other byte.
fn cleaned_fixture() -> String {
    FIXTURE
        .lines()
        .enumerate()
        .filter(|(i, _)| i + 1 != MARTIAN_LINE)
        .map(|(_, l)| format!("{l}\n"))
        .collect()
}

/// Regenerates the fixture and all three goldens from the event
/// constructors and the tools themselves. Ignored by default — run
/// explicitly after an intentional format change and review the diff.
#[test]
#[ignore = "golden regeneration; run with -- --ignored and review the diff"]
fn regenerate_goldens() {
    use emask_telemetry::{Event, Span};
    use std::path::Path;

    let ranks_early: Vec<u8> = (0..64).map(|g| (g as u8).wrapping_add(5) % 64).collect();
    let ranks_final: Vec<u8> = (0..64).map(|g| if g == 33 { 0 } else { (g as u8) + 1 }).collect();

    // Job 1: a clean DPA campaign with its full span tree.
    let job = Span::root("job", 1);
    let queue = job.child("queue_wait", 1);
    let attempt = job.child("attempt", 1);
    let s0 = attempt.child("shard", 0);
    let s1 = attempt.child("shard", 1);
    let events = vec![
        Event::JobQueued { job: 1, experiment: "dpa".into(), trials: 64 },
        job.opened(),
        queue.opened(),
        queue.closed(1),
        Event::JobStarted { job: 1, attempt: 1 },
        attempt.opened(),
        Event::CampaignStarted { experiment: "dpa".into(), trials: 64, seed: 42, cadence: 16 },
        Event::TrialCompleted { trial: 0 },
        Event::DpaConvergence {
            trials: 16,
            best_guess: 12,
            best_peak: 0.9,
            margin: 1.2,
            peak_cycle: 96,
            ranks: ranks_early,
        },
        s0.opened(),
        s0.closed(32),
        Event::CheckpointWritten { shards_done: 1 },
        s1.opened(),
        s1.closed(32),
        Event::DpaConvergence {
            trials: 64,
            best_guess: 33,
            best_peak: 1.5,
            margin: 2.0,
            peak_cycle: 100,
            ranks: ranks_final,
        },
        Event::CampaignCompleted {
            trials: 64,
            dropped_events: 2,
            dropped_by_kind: vec![("trial_completed".into(), 2)],
        },
        attempt.closed(64),
        Event::JobCompleted { job: 1, outcome: "completed".into() },
        job.closed(1),
        // Job 2: a TVLA job that retries once and then fails.
        Event::JobQueued { job: 2, experiment: "tvla".into(), trials: 32 },
        Event::JobStarted { job: 2, attempt: 1 },
        Event::JobRetried { job: 2, attempt: 2, backoff_ms: 250 },
        Event::TvlaConvergence { trials: 32, max_t: 6.125, at_cycle: 77, leaky_cycles: 3 },
    ];
    let mut stream: String = events.iter().map(|e| e.to_json() + "\n").collect();
    // The malformed line: valid JSON, unknown kind. Must land on
    // MARTIAN_LINE so the validate test's expected error stays true.
    assert_eq!(stream.lines().count() + 1, MARTIAN_LINE);
    stream.push_str(&format!("{{\"event\":\"{MARTIAN_KIND}\",\"job\":2}}\n"));
    stream.push_str(&(Event::JobCompleted { job: 2, outcome: "failed".into() }.to_json() + "\n"));

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).expect("fixtures dir");
    std::fs::write(dir.join("events.jsonl"), &stream).expect("write fixture");

    let cleaned: String = stream
        .lines()
        .enumerate()
        .filter(|(i, _)| i + 1 != MARTIAN_LINE)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    std::fs::write(dir.join("validate.golden.txt"), validate_events(&cleaned).expect("validate"))
        .expect("write validate golden");
    std::fs::write(dir.join("summary.golden.txt"), summarize_events(&stream).expect("summarize"))
        .expect("write summary golden");
    std::fs::write(dir.join("trace.golden.json"), trace_events(&stream).expect("trace"))
        .expect("write trace golden");
}
