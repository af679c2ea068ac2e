//! The artifact-digest lock: an FNV-1a digest of every `repro` artifact,
//! computed at reduced size (1-round device, 2 workers) and compared with
//! the committed `tests/artifact_digests.txt`. Two lines run long: `fault_r16`
//! anchors the fault campaign on the 16-round device, and `dpa_r1_1100` a
//! DPA campaign whose shards span several fold blocks. Their tests are
//! ignored in the debug run and run in release with
//! `cargo test --release --test artifact_digests -- --ignored`.
//!
//! Run-against-run checks (jobs 1 vs 4, resumed vs uninterrupted) cannot
//! see a change that moves both sides the same way; this file can. A
//! change that is meant to move an artifact re-records its line with
//!
//! ```text
//! EMASK_BLESS=1 cargo test --test artifact_digests
//! ```
//!
//! and the diff of the `.txt` file shows, in review, exactly which
//! artifacts moved. Floats are hashed through `to_bits`, so a result that
//! prints the same but differs in the last bit still shows.

use emask::par::{CancelToken, Jobs};
use emask::telemetry::{fnv1a, Event, EventSink, NullSink};
use emask::{MaskPolicy, MaskedDes};
use emask_bench::run_campaign;
use emask_bench::BenchRunner;
use emask_bench::{coupling_study, cpa_attack, dpa_attack, dpa_sample_sweep, tvla, KEY, PLAINTEXT};
use emask_bench::{CampaignConfig, CampaignReport};
use emask_core::DesProgramSpec;
use emask_core::RecoveryPolicy;
use emask_serve::{ExperimentRunner, JobCtx, JobSink, JobSpec, RunStatus};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::path::PathBuf;
use std::sync::Mutex;

/// Every artifact runs on the 1-round device at this many workers.
const JOBS: usize = 2;

/// Snapshot cadence of the replayable convergence streams.
const CADENCE: usize = 8;

/// Serializes read-modify-write of the digest file while blessing.
static FILE: Mutex<()> = Mutex::new(());

fn digest_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/artifact_digests.txt")
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .map(|(name, hex)| (name.to_string(), hex.trim().to_string()))
        .collect()
}

/// Checks `artifact`'s digest against the committed line `name`, or
/// rewrites that line when `EMASK_BLESS=1`.
fn check(name: &str, artifact: &str) {
    let got = format!("{:016x}", fnv1a(artifact.as_bytes()));
    let _guard = FILE.lock().unwrap_or_else(|e| e.into_inner());
    let text = std::fs::read_to_string(digest_file()).unwrap_or_default();
    let mut digests = parse(&text);
    if std::env::var("EMASK_BLESS").as_deref() == Ok("1") {
        digests.insert(name.to_string(), got);
        let mut out = String::from(
            "# FNV-1a digests of the repro artifacts at reduced size (tests/artifact_digests.rs).\n\
             # Re-record with: EMASK_BLESS=1 cargo test --test artifact_digests\n",
        );
        for (name, hex) in &digests {
            let _ = writeln!(out, "{name} {hex}");
        }
        std::fs::write(digest_file(), out).expect("write the digest file");
        return;
    }
    let want = digests.get(name).unwrap_or_else(|| {
        panic!("no digest recorded for `{name}`; run with EMASK_BLESS=1 to record it")
    });
    assert_eq!(&got, want, "artifact `{name}` changed; EMASK_BLESS=1 re-records it");
}

fn jobs() -> Jobs {
    Jobs::new(JOBS).expect("nonzero")
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn floats(xs: &[f64]) -> String {
    xs.iter().map(|&x| bits(x)).collect::<Vec<_>>().join(",")
}

fn guesses(peaks: &[f64; 64], cycles: &[usize; 64], best: u8, margin: f64) -> String {
    format!("{}|{cycles:?}|{best}|{}", floats(peaks), bits(margin))
}

/// An ordered in-memory sink whose replayable events form the JSONL
/// document `--live-out` writes.
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn new() -> Self {
        Collect(Mutex::new(Vec::new()))
    }

    fn replayable_jsonl(&self) -> String {
        let events = self.0.lock().expect("collect sink");
        events.iter().filter(|e| e.is_replayable()).map(|e| e.to_json() + "\n").collect()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: Event) {
        self.0.lock().expect("collect sink").push(event);
    }
}

fn fault_device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile the 1-round selective device")
}

fn fault_config() -> CampaignConfig {
    CampaignConfig {
        trials: 24,
        plaintext: PLAINTEXT,
        key: KEY,
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    }
}

/// The fault campaign at [`JOBS`], checkpointing to `checkpoint` if given.
fn fault_campaign<S: EventSink>(checkpoint: Option<&Path>, sink: &S) -> CampaignReport {
    let (des, cfg) = (fault_device(), fault_config());
    run_campaign(&des, &cfg, jobs(), &CancelToken::new(), checkpoint, sink).expect("campaign")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("emask-digests-{}-{name}", std::process::id()))
}

/// The result CSV `repro serve` stores for `spec`, run at [`JOBS`].
fn service_csv(experiment: &str, trials: usize, policy: &str) -> String {
    let spec = JobSpec {
        experiment: experiment.into(),
        trials,
        rounds: 1,
        policy: policy.into(),
        seed: 11,
        recover: true,
        cadence: CADENCE,
        jobs: JOBS,
        ..JobSpec::default()
    };
    let (events, ckpt) = (tmp(&format!("{experiment}.events")), tmp(&format!("{experiment}.ckpt")));
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&ckpt);
    let sink = JobSink::open(&events).expect("open the job event file");
    let token = CancelToken::new();
    let ctx = JobCtx {
        token: &token,
        sink: &sink,
        checkpoint: &ckpt,
        span: emask::telemetry::SpanId::ROOT,
        workers: JOBS,
    };
    let status = BenchRunner.run(&spec, &ctx);
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&ckpt);
    match status {
        RunStatus::Done { csv } => csv,
        other => panic!("{experiment} job did not complete: {other:?}"),
    }
}

#[test]
fn dpa_result() {
    let mut out = String::new();
    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        let o = dpa_attack(policy, 1, 16, 0, jobs(), &CancelToken::new(), 0, &NullSink)
            .expect("uncancelled");
        let r = &o.result;
        let _ = writeln!(
            out,
            "{}|{}|{}",
            guesses(&r.peaks, &r.peak_cycles, r.best_guess, r.margin),
            o.true_subkey,
            o.recovered
        );
    }
    check("dpa_result", &out);
}

#[test]
fn cpa_result() {
    let o =
        cpa_attack(MaskPolicy::None, 1, 16, 0, jobs(), &CancelToken::new()).expect("uncancelled");
    let r = &o.result;
    let out = format!(
        "{}|{}|{}",
        guesses(&r.peaks, &r.peak_cycles, r.best_guess, r.margin),
        o.true_subkey,
        o.recovered
    );
    check("cpa_result", &out);
}

#[test]
fn tvla_result() {
    let r = tvla(MaskPolicy::None, 1, 8, 11, jobs(), &CancelToken::new(), 0, &NullSink)
        .expect("uncancelled");
    let out = format!("{}|{}|{}|{}|{r}", bits(r.max_t), r.at_cycle, r.leaky_cycles, r.group_size);
    check("tvla_result", &out);
}

#[test]
fn fault_csv() {
    let report = fault_campaign(None, &NullSink);
    check("fault_csv", &(report.csv() + &report.summary()));
}

#[test]
fn fault_failstop() {
    let cfg = CampaignConfig { recovery: None, ..fault_config() };
    let report = run_campaign(&fault_device(), &cfg, jobs(), &CancelToken::new(), None, &NullSink)
        .expect("campaign");
    check("fault_failstop", &(report.csv() + &report.summary()));
}

/// The 16-round anchor of the forked fault path: a 64-trial campaign on
/// the full selective device, recovering and fail-stop. The 1-round lines
/// above never reach the later rounds' rungs.
#[test]
#[ignore = "the 16-round device: a few seconds in release; CI runs it"]
fn fault_r16() {
    let des = MaskedDes::compile(MaskPolicy::Selective).expect("compile the 16-round device");
    let mut out = String::new();
    for recovery in [Some(RecoveryPolicy::default()), None] {
        let cfg = CampaignConfig { trials: 64, recovery, ..fault_config() };
        let report = run_campaign(&des, &cfg, jobs(), &CancelToken::new(), None, &NullSink)
            .expect("campaign");
        out += &(report.csv() + &report.summary());
    }
    check("fault_r16", &out);
}

/// The anchor of the multi-block DPA fold: 1,100 traces cut into shards
/// of 34 and 35, so every shard folds two full blocks and ends with a
/// partial one, and the snapshot boundaries (every 100 trials) fall
/// inside shards. The 16-trace lines above never fill a block per shard.
#[test]
#[ignore = "1,100 one-round traces: a few seconds in release; CI runs it"]
fn dpa_r1_1100() {
    let sink = Collect::new();
    let o = dpa_attack(MaskPolicy::None, 1, 1100, 0, jobs(), &CancelToken::new(), 100, &sink)
        .expect("uncancelled");
    let r = &o.result;
    let out = format!(
        "{}|{}|{}\n{}",
        guesses(&r.peaks, &r.peak_cycles, r.best_guess, r.margin),
        o.true_subkey,
        o.recovered,
        sink.replayable_jsonl()
    );
    check("dpa_r1_1100", &out);
}

#[test]
fn fault_csv_checkpointed() {
    let path = tmp("fault.ckpt");
    let _ = std::fs::remove_file(&path);
    let report = fault_campaign(Some(&path), &NullSink);
    let _ = std::fs::remove_file(&path);
    check("fault_csv_checkpointed", &(report.csv() + &report.summary()));
}

#[test]
fn dpa_stream() {
    let sink = Collect::new();
    dpa_attack(MaskPolicy::None, 1, 16, 0, jobs(), &CancelToken::new(), CADENCE, &sink)
        .expect("uncancelled");
    check("dpa_stream", &sink.replayable_jsonl());
}

#[test]
fn tvla_stream() {
    let sink = Collect::new();
    tvla(MaskPolicy::None, 1, 16, 3, jobs(), &CancelToken::new(), CADENCE, &sink)
        .expect("uncancelled");
    check("tvla_stream", &sink.replayable_jsonl());
}

#[test]
fn fault_stream() {
    let sink = Collect::new();
    fault_campaign(None, &sink);
    check("fault_stream", &sink.replayable_jsonl());
}

#[test]
fn service_dpa_csv() {
    check("service_dpa_csv", &service_csv("dpa", 16, "none"));
}

#[test]
fn service_cpa_csv() {
    check("service_cpa_csv", &service_csv("cpa", 16, "none"));
}

#[test]
fn service_tvla_csv() {
    check("service_tvla_csv", &service_csv("tvla", 8, "none"));
}

#[test]
fn service_fault_csv() {
    check("service_fault_csv", &service_csv("fault", 24, "selective"));
}

#[test]
fn service_leakage_csv() {
    check("service_leakage_csv", &service_csv("leakage", 6, "selective"));
}

#[test]
fn sweep() {
    let mut out = String::new();
    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        for p in dpa_sample_sweep(policy, 1, &[8, 16], jobs()) {
            let _ = writeln!(
                out,
                "{policy}|{}|{}|{}|{}",
                p.samples,
                p.recovered,
                bits(p.best_peak),
                bits(p.margin)
            );
        }
    }
    check("sweep", &out);
}

#[test]
fn coupling() {
    let r = coupling_study(1, 16, 0.05, jobs());
    let d = &r.dpa_through_coupling;
    let out = format!(
        "{}|{}|{}|{}|{}",
        bits(r.leak_without_coupling_pj),
        bits(r.leak_with_coupling_pj),
        guesses(&d.result.peaks, &d.result.peak_cycles, d.result.best_guess, d.result.margin),
        d.true_subkey,
        d.recovered
    );
    check("coupling", &out);
}

#[test]
fn fig6() {
    let (trace, spa) = emask_bench::fig6_round_trace(1);
    check("fig6", &format!("{}|{spa}", floats(trace.samples())));
}

#[test]
fn fig7_8() {
    let (full, round1) = emask_bench::key_differential(MaskPolicy::None, 1);
    check("fig7_8", &format!("{}|{}", floats(full.samples()), floats(round1.samples())));
}

#[test]
fn fig9() {
    let (full, round1) = emask_bench::key_differential(MaskPolicy::Selective, 1);
    check("fig9", &format!("{}|{}", floats(full.samples()), floats(round1.samples())));
}

#[test]
fn fig10() {
    let (ip, round1) = emask_bench::plaintext_differential(MaskPolicy::None, 1);
    check("fig10", &format!("{}|{}", floats(ip.samples()), floats(round1.samples())));
}

#[test]
fn fig11() {
    let (ip, round1) = emask_bench::plaintext_differential(MaskPolicy::Selective, 1);
    check("fig11", &format!("{}|{}", floats(ip.samples()), floats(round1.samples())));
}

#[test]
fn fig12() {
    let (extra, mean_extra, original_mean) = emask_bench::masking_overhead_trace(1);
    check(
        "fig12",
        &format!("{}|{}|{}", floats(extra.samples()), bits(mean_extra), bits(original_mean)),
    );
}

#[test]
fn table1() {
    let t = emask_bench::policy_totals(1);
    let out = format!(
        "{}|{}|{}|{:?}|{t}",
        floats(&t.totals_uj),
        floats(&t.means_pj),
        t.cycles,
        t.secure_counts
    );
    check("table1", &out);
}

#[test]
fn xor() {
    let (normal, secure) = emask_bench::xor_unit(100_000);
    check("xor", &format!("{}|{}", bits(normal), bits(secure)));
}

#[test]
fn spa() {
    let r = emask_bench::spa_rounds(1);
    check("spa", &format!("{}|{}|{}|{r}", r.detected_rounds, r.period, bits(r.score)));
}

#[test]
fn perclass() {
    let mut out = String::new();
    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        let c = emask_bench::energy_by_class(policy, 1);
        for (name, pj, cycles) in &c.rows {
            let _ = writeln!(out, "{policy}|{name}|{}|{cycles}", bits(*pj));
        }
        out.push_str(&c.to_string());
    }
    check("perclass", &out);
}

#[test]
fn ablations() {
    let r = emask_bench::ablations(1);
    let out = format!(
        "{}|{r}",
        floats(&[
            r.precharged_leak_pj,
            r.complement_only_leak_pj,
            r.unmasked_leak_pj,
            r.gated_mean_pj,
            r.ungated_mean_pj,
            r.seeds_only_leak_pj,
        ])
    );
    check("ablations", &out);
}

#[test]
fn leakage() {
    let r = emask_bench::leakage_attribution(1, 6, 0xACC0);
    check("leakage", &format!("{r}\n{}", r.csv));
}
