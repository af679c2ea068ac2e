//! End-to-end contract of the live observability layer: the replayable
//! JSONL stream must be schema-stable (golden test), byte-identical at
//! any `--jobs` count, and continuous across a kill + `--resume` of a
//! checkpointed fault campaign.

use emask_bench::{dpa_attack, tvla};
use emask_bench::{run_campaign, run_campaign_resumable_events, CampaignCheckpoint};
use emask_bench::{CampaignConfig, CampaignReport};
use emask_core::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes};
use emask_par::{CancelToken, Jobs};
use emask_serve::JobSink;
use emask_telemetry::{fnv1a, Event, EventSink, NullSink};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// An ordered in-memory sink.
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn new() -> Self {
        Collect(Mutex::new(Vec::new()))
    }

    fn events(&self) -> Vec<Event> {
        self.0.lock().expect("collect sink").clone()
    }

    /// The replayable JSONL document this campaign would stream.
    fn replayable_jsonl(&self) -> String {
        self.events().iter().filter(|e| e.is_replayable()).map(|e| e.to_json() + "\n").collect()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: Event) {
        self.0.lock().expect("collect sink").push(event);
    }
}

fn device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round selective device")
}

/// The uncheckpointed, uncancelled fault campaign streaming to `sink`.
fn fault_campaign<S: EventSink>(
    des: &MaskedDes,
    cfg: &CampaignConfig,
    jobs: Jobs,
    sink: &S,
) -> CampaignReport {
    run_campaign(des, cfg, jobs, &CancelToken::new(), None, sink).expect("fault campaign")
}

/// The 48-trace unmasked DPA streaming to `sink` at `cadence`.
fn dpa_stream<S: EventSink>(jobs: Jobs, cadence: usize, sink: &S) {
    dpa_attack(MaskPolicy::None, 1, 48, 0, jobs, &CancelToken::new(), cadence, sink)
        .expect("uncancelled");
}

/// The 8-pair unmasked TVLA streaming to `sink` at `cadence`.
fn tvla_stream<S: EventSink>(jobs: Jobs, cadence: usize, sink: &S) {
    tvla(MaskPolicy::None, 1, 8, 3, jobs, &CancelToken::new(), cadence, sink).expect("uncancelled");
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("emask-live-{}-{name}.ckpt", std::process::id()));
    p
}

#[test]
fn golden_dpa_jsonl_schema_is_stable() {
    let sink = Collect::new();
    dpa_stream(Jobs::serial(), 16, &sink);
    let jsonl = sink.replayable_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    // Header, snapshots at 16/32/48, trailer.
    assert_eq!(lines.len(), 5, "{jsonl}");
    assert_eq!(
        lines[0],
        r#"{"event":"campaign_started","experiment":"dpa","trials":48,"seed":3855227614,"cadence":16}"#
    );
    for (i, trials) in [16, 32, 48].into_iter().enumerate() {
        let line = lines[1 + i];
        assert!(line.starts_with(r#"{"event":"dpa_convergence","trials":"#), "{line}");
        assert!(line.contains(&format!(r#""trials":{trials},"best_guess":"#)), "{line}");
        for field in ["best_peak", "margin", "peak_cycle", "ranks"] {
            assert!(line.contains(&format!(r#""{field}":"#)), "missing {field}: {line}");
        }
        // The rank vector covers all 64 guesses.
        let ranks = line.split("\"ranks\":[").nth(1).expect("ranks array");
        assert_eq!(ranks.trim_end_matches("]}").split(',').count(), 64, "{line}");
    }
    assert_eq!(
        lines[4],
        r#"{"event":"campaign_completed","trials":48,"dropped_events":0,"dropped_by_kind":{}}"#
    );
}

/// Snapshot cadences the DPA and TVLA streams are pinned at: final-only,
/// every trial, one that straddles shard ends, and one that lands on some.
const CADENCES: [usize; 4] = [0, 1, 7, 16];

/// FNV-1a digests of the replayable DPA and TVLA streams at each of
/// [`CADENCES`] (the DPA and TVLA calls below), as the collect-then-merge
/// executor with one-by-one DPA pushes produced them. Merge order, fold
/// order and accumulator reuse must not move a single bit of any
/// snapshot; a change that does shows here.
const STREAM_DIGESTS: [(u64, u64); 4] = [
    (0x4715_afd0_6ac3_b4d9, 0x9674_cf99_39a5_f901),
    (0xd0bf_97b3_6b19_ae2c, 0x43fa_ed49_9bd5_77d5),
    (0xa808_4031_3854_928e, 0x64a0_09b4_a16f_3cc0),
    (0x9c90_1622_71ed_460f, 0xaa5e_b8bc_863e_aec8),
];

#[test]
fn replayable_streams_are_byte_identical_across_jobs() {
    let des = device();
    let cfg = CampaignConfig { trials: 60, ..CampaignConfig::default() };
    let streams: Vec<(String, Vec<(String, String)>)> = [1, 4, 7]
        .into_iter()
        .map(|jobs| {
            let jobs = Jobs::new(jobs).unwrap();
            let fault = Collect::new();
            fault_campaign(&des, &cfg, jobs, &fault);
            let attacks = CADENCES
                .into_iter()
                .map(|cadence| {
                    let dpa = Collect::new();
                    dpa_stream(jobs, cadence, &dpa);
                    let tvla = Collect::new();
                    tvla_stream(jobs, cadence, &tvla);
                    (dpa.replayable_jsonl(), tvla.replayable_jsonl())
                })
                .collect();
            (fault.replayable_jsonl(), attacks)
        })
        .collect();
    for s in &streams[1..] {
        assert_eq!(s.0, streams[0].0, "fault stream moved with jobs");
        for (cadence, (got, want)) in CADENCES.iter().zip(s.1.iter().zip(&streams[0].1)) {
            assert_eq!(got.0, want.0, "dpa stream moved with jobs at cadence {cadence}");
            assert_eq!(got.1, want.1, "tvla stream moved with jobs at cadence {cadence}");
        }
    }
    let digests: Vec<(u64, u64)> = streams[0]
        .1
        .iter()
        .map(|(dpa, tvla)| (fnv1a(dpa.as_bytes()), fnv1a(tvla.as_bytes())))
        .collect();
    assert_eq!(digests, STREAM_DIGESTS, "{digests:#018x?}");
    // The fault stream carries one outcome row per trial, in trial order.
    let outcomes: Vec<u64> = streams[0]
        .0
        .lines()
        .filter(|l| l.contains(r#""event":"fault_outcome""#))
        .map(|l| l.split(r#""trial":"#).nth(1).unwrap().split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(outcomes, (0..60).collect::<Vec<u64>>());
}

#[test]
fn events_path_report_matches_the_plain_parallel_path() {
    let des = device();
    let cfg = CampaignConfig { trials: 40, ..CampaignConfig::default() };
    let sink = Collect::new();
    let evented = fault_campaign(&des, &cfg, Jobs::new(4).unwrap(), &sink);
    let plain = fault_campaign(&des, &cfg, Jobs::serial(), &NullSink);
    assert_eq!(evented.csv(), plain.csv(), "the sink must not change the report");
    assert_eq!(evented.counts, plain.counts);
}

#[test]
fn resumed_campaign_stream_is_identical_to_uninterrupted() {
    let des = device();
    let cfg = CampaignConfig { trials: 64, ..CampaignConfig::default() };
    let path = tmp_path("stream-resume");
    let _ = std::fs::remove_file(&path);

    let full_sink = Collect::new();
    let full = run_campaign_resumable_events(&des, &cfg, Jobs::serial(), &path, &full_sink)
        .expect("full run");

    // Simulate a SIGKILL partway through: drop every other completed
    // shard from the snapshot, then resume with a fresh sink.
    let mut cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
    let completed = cp.completed();
    assert!(completed.len() > 1, "need multiple shards to forget one");
    for s in completed.iter().filter(|s| *s % 2 == 1) {
        cp.forget(*s);
    }
    cp.save(&path).expect("save partial");

    let resumed_sink = Collect::new();
    let resumed =
        run_campaign_resumable_events(&des, &cfg, Jobs::new(4).unwrap(), &path, &resumed_sink)
            .expect("resumed run");

    assert_eq!(resumed.csv(), full.csv());
    assert_eq!(
        resumed_sink.replayable_jsonl(),
        full_sink.replayable_jsonl(),
        "a kill + resume must not change the replayable stream"
    );
    // The resumed run recomputed only the forgotten shards, so it emitted
    // fewer operational trial heartbeats than the uninterrupted run.
    let heartbeats = |events: &[Event]| {
        events.iter().filter(|e| matches!(e, Event::TrialCompleted { .. })).count()
    };
    let full_beats = heartbeats(&full_sink.events());
    let resumed_beats = heartbeats(&resumed_sink.events());
    assert_eq!(full_beats, 64);
    assert!(
        resumed_beats < full_beats,
        "resume re-ran everything: {resumed_beats} vs {full_beats}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A writer into a buffer the test keeps a handle on.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("shared buffer").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn job_sink_document_equals_the_replayable_stream() {
    let des = device();
    let cfg = CampaignConfig { trials: 24, ..CampaignConfig::default() };
    let out = Shared::default();
    let sink = JobSink::new(out.clone());
    let report = fault_campaign(&des, &cfg, Jobs::new(4).unwrap(), &sink);
    sink.flush().expect("flush");
    let jsonl = String::from_utf8(out.0.lock().expect("shared buffer").clone()).expect("utf-8");
    let direct = Collect::new();
    fault_campaign(&des, &cfg, Jobs::new(2).unwrap(), &direct);
    assert_eq!(jsonl, direct.replayable_jsonl(), "the sink must write the replayable stream");
    assert_eq!(report.total(), 24);
}
