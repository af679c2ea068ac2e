//! Every call the benchmark makes into the system, and nothing else.
//!
//! This is the only file that names an emask crate. The other files see
//! plain functions and small value types, so a refactor that renames or
//! merges an entry point edits this file call for call and leaves what
//! is timed, and how, untouched.

use emask_attack::dpa::{recover_subkey_multibit_par, DpaConfig, DpaResult};
use emask_attack::{OnlineDpa, OnlineWelch};
use emask_bench::experiments::{KEY, PLAINTEXT};
use emask_bench::{
    run_campaign_resumable, run_campaign_resumable_events, BenchRunner, CampaignCheckpoint,
    CampaignConfig, CampaignReport, FaultOutcome,
};
use emask_core::{DesProgramSpec, EncryptionRun, MaskPolicy, MaskedDes, Phase, RecoveryPolicy};
use emask_cpu::{Cpu, CycleActivity};
use emask_energy::{EnergyModel, EnergyParams};
use emask_fault::{DualRailChecker, FaultInjector, FaultPlan};
use emask_par::{CancelToken, Jobs};
use emask_serve::json::{parse, Json};
use emask_serve::{client, ExperimentRunner, JobCtx, JobSink, JobSpec, RunStatus, ServerConfig};
use emask_telemetry::{Event, EventSink, SpanId};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Worker threads of every sharded call: the reference host has 2 CPUs.
pub const JOBS: usize = 2;

fn jobs() -> Jobs {
    Jobs::new(JOBS).unwrap_or_else(Jobs::serial)
}

/// The two masking policies the workloads attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No secure instructions: the leaky device.
    None,
    /// The paper's selective masking.
    Selective,
}

impl Policy {
    fn mask(self) -> MaskPolicy {
        match self {
            Policy::None => MaskPolicy::None,
            Policy::Selective => MaskPolicy::Selective,
        }
    }

    /// The policy name the service's job specs use.
    pub fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Selective => "selective",
        }
    }
}

/// A compiled device plus what its probe run (paper plaintext, paper
/// key) established.
#[derive(Debug, Clone)]
pub struct Device {
    des: MaskedDes,
    /// DES rounds compiled in.
    pub rounds: usize,
    /// The masking policy.
    pub policy: Policy,
    /// The round-1 cycle window the DPA attacks.
    pub window: Range<usize>,
    /// Key permutation through the last round: the TVLA window.
    pub tvla_window: Range<usize>,
    /// Simulated cycles of one encryption.
    pub cycles: u64,
    /// `f64::to_bits` of the probe run's total energy in pJ.
    pub total_pj_bits: u64,
}

fn compile(policy: Policy, rounds: usize) -> Result<MaskedDes, String> {
    MaskedDes::compile_spec(policy.mask(), &DesProgramSpec { rounds })
        .map_err(|e| format!("compiling {rounds}-round {} DES: {e}", policy.name()))
}

impl Device {
    /// Compiles the device and makes the window probe run.
    ///
    /// # Errors
    ///
    /// A compile or simulation failure, or a run without round markers.
    pub fn setup(policy: Policy, rounds: usize) -> Result<Device, String> {
        let des = compile(policy, rounds)?;
        let run = des.encrypt(PLAINTEXT, KEY).map_err(|e| format!("probe run: {e}"))?;
        let window = run.phase_window(Phase::Round(1)).ok_or("probe run has no round 1")?;
        let kp =
            run.phase_window(Phase::KeyPermutation).ok_or("probe run has no key permutation")?;
        let last = u8::try_from(rounds).map_err(|_| "rounds out of range")?;
        let end = run.phase_window(Phase::Round(last)).ok_or("probe run has no last round")?;
        Ok(Device {
            rounds,
            policy,
            window,
            tvla_window: kp.start..end.end,
            cycles: run.stats.cycles,
            total_pj_bits: run.trace.total_pj().to_bits(),
            des,
        })
    }
}

/// Compiles without the probe run: the compiler layer alone.
///
/// # Errors
///
/// A compile failure.
pub fn compile_only(policy: Policy, rounds: usize) -> Result<(), String> {
    compile(policy, rounds).map(drop)
}

/// One simulated encryption.
#[derive(Debug)]
pub struct Run(EncryptionRun);

impl Run {
    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.0.stats.cycles
    }

    /// The trace oracle's copy of a window: the same two copies it makes.
    pub fn window_copy(&self, window: &Range<usize>) -> Vec<f64> {
        self.0.trace.window(window.clone()).samples().to_vec()
    }
}

/// Encrypts `plaintext` under the paper key on the device.
///
/// # Errors
///
/// A simulation fault or a golden-model mismatch.
pub fn encrypt(dev: &Device, plaintext: u64) -> Result<Run, String> {
    dev.des.encrypt(plaintext, KEY).map(Run).map_err(|e| format!("encrypt: {e}"))
}

/// A DPA result, bit-comparable.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The top-ranked subkey guess.
    pub best_guess: u8,
    /// Peak difference of means per guess, pJ.
    pub peaks: [f64; 64],
    peak_cycles: [usize; 64],
    margin: f64,
}

impl Verdict {
    fn from_result(r: &DpaResult) -> Verdict {
        Verdict {
            best_guess: r.best_guess,
            peaks: r.peaks,
            peak_cycles: r.peak_cycles,
            margin: r.margin,
        }
    }

    /// Bit-for-bit equality of every field.
    pub fn bits_eq(&self, other: &Verdict) -> bool {
        self.best_guess == other.best_guess
            && self.peak_cycles == other.peak_cycles
            && self.margin.to_bits() == other.margin.to_bits()
            && self.peaks.iter().zip(&other.peaks).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The round-1 subkey slice of S-box 1 under the paper key: what the
/// unmasked device must rank first.
pub fn true_subkey() -> u8 {
    emask_des::KeySchedule::new(KEY).round_key(1).sbox_slice(0)
}

/// The repo's multibit online DPA on S-box 1: `traces` plaintexts from
/// `seed`, acquired through the device's trace oracle at [`JOBS`].
pub fn dpa_campaign(dev: &Device, traces: usize, seed: u64) -> Verdict {
    let oracle = dev.des.trace_oracle(KEY, dev.window.clone());
    let cfg = DpaConfig { samples: traces, sbox: 0, bit: 0, seed };
    Verdict::from_result(&recover_subkey_multibit_par(&oracle, &cfg, jobs()))
}

/// The plaintext of trial `index` of a DPA campaign seeded with `seed`.
pub fn plaintext_for(seed: u64, index: u64) -> u64 {
    emask_attack::dpa::plaintext_for(seed, index)
}

/// The multibit online DPA accumulator [`dpa_campaign`] folds into.
#[derive(Debug, Clone)]
pub struct DpaAcc(OnlineDpa);

impl DpaAcc {
    /// An empty accumulator on S-box 1, peaks reported for bit 0.
    pub fn new() -> DpaAcc {
        DpaAcc(OnlineDpa::multibit(0, 0))
    }

    /// Folds one trace.
    ///
    /// # Errors
    ///
    /// A trace of another width than the ones before it.
    pub fn push(&mut self, plaintext: u64, trace: &[f64]) -> Result<(), String> {
        self.0.push(plaintext, trace).map_err(|e| e.to_string())
    }

    /// Absorbs another shard's accumulator.
    ///
    /// # Errors
    ///
    /// Shards of different trace widths.
    pub fn merge(&mut self, other: &DpaAcc) -> Result<(), String> {
        self.0.merge(&other.0).map_err(|e| e.to_string())
    }

    /// The ranked result.
    pub fn result(&self) -> Verdict {
        Verdict::from_result(&self.0.result())
    }
}

/// Runs `worker(shard, trials)` over the fixed shard plan of `0..n` at
/// [`JOBS`] threads; results in shard order.
pub fn run_sharded<A, F>(n: usize, worker: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, Range<usize>) -> A + Sync,
{
    emask_par::run_sharded(jobs(), n, worker)
}

/// The fixed-order left fold of shard results.
pub fn merge_shards<A>(accs: Vec<A>, merge: impl FnMut(&mut A, A)) -> Option<A> {
    emask_par::merge_shards(accs, merge)
}

/// What a fault campaign's report says about its own health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTally {
    /// Rows in the report.
    pub rows: usize,
    /// Rows counted under some outcome.
    pub classified: usize,
    /// Trials whose worker panicked.
    pub panics: usize,
    /// Detected + recovered + zeroized trials.
    pub caught: usize,
}

fn tally(report: &CampaignReport) -> FaultTally {
    FaultTally {
        rows: report.total(),
        classified: report.counts.iter().sum(),
        panics: report.count(FaultOutcome::Panic),
        caught: report.count(FaultOutcome::Detected)
            + report.count(FaultOutcome::Recovered)
            + report.count(FaultOutcome::Zeroized),
    }
}

fn fault_config(trials: usize, plaintext: u64) -> CampaignConfig {
    CampaignConfig {
        trials,
        plaintext,
        key: KEY,
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    }
}

/// The resumable fault campaign with default recovery, checkpointing to
/// `path` after every shard, at [`JOBS`].
///
/// # Errors
///
/// The campaign's own error (clean run, checkpoint I/O).
pub fn fault_campaign(
    dev: &Device,
    trials: usize,
    plaintext: u64,
    path: &Path,
) -> Result<FaultTally, String> {
    run_campaign_resumable(&dev.des, &fault_config(trials, plaintext), jobs(), path)
        .map(|r| tally(&r))
        .map_err(|e| e.to_string())
}

/// A point in a fault campaign's progress, as its event stream reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Clean run and checkpoint load done; the shards start.
    Started,
    /// A worker finished this trial.
    Trial(u64),
    /// A worker persisted the checkpoint after its shard.
    Saved,
    /// The merge emitted its first per-trial outcome (final save done).
    Merging,
    /// The report is complete.
    Completed,
}

struct MarkSink<F>(F);

impl<F: Fn(Mark) + Sync> EventSink for MarkSink<F> {
    fn emit(&self, event: Event) {
        let mark = match event {
            Event::CampaignStarted { .. } => Mark::Started,
            Event::TrialCompleted { trial } => Mark::Trial(trial),
            Event::CheckpointWritten { .. } => Mark::Saved,
            Event::FaultOutcome { trial: 0, .. } => Mark::Merging,
            Event::CampaignCompleted { .. } => Mark::Completed,
            _ => return,
        };
        (self.0)(mark);
    }
}

/// [`fault_campaign`] through the event-streaming entry point, calling
/// `on_mark` on the emitting thread at each [`Mark`].
///
/// # Errors
///
/// As for [`fault_campaign`].
pub fn fault_campaign_marked<F: Fn(Mark) + Sync>(
    dev: &Device,
    trials: usize,
    plaintext: u64,
    path: &Path,
    on_mark: F,
) -> Result<FaultTally, String> {
    let sink = MarkSink(on_mark);
    run_campaign_resumable_events(&dev.des, &fault_config(trials, plaintext), jobs(), path, &sink)
        .map(|r| tally(&r))
        .map_err(|e| e.to_string())
}

/// A loaded campaign checkpoint.
#[derive(Debug)]
pub struct Checkpoint(CampaignCheckpoint);

/// Loads the checkpoint file at `path`.
///
/// # Errors
///
/// Unreadable, missing or corrupt file.
pub fn checkpoint_load(path: &Path) -> Result<Checkpoint, String> {
    match CampaignCheckpoint::load(path) {
        Ok(Some(cp)) => Ok(Checkpoint(cp)),
        Ok(None) => Err(format!("{}: no valid checkpoint", path.display())),
        Err(e) => Err(e.to_string()),
    }
}

impl Checkpoint {
    /// Atomically rewrites the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// Write or rename failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        self.0.save(path).map_err(|e| e.to_string())
    }
}

/// A core loaded with the device's program, key and plaintext poked in:
/// the state `encrypt` starts simulating from.
#[derive(Debug)]
pub struct LoadedCpu(Cpu);

/// Loads the device's program and pokes the paper key and `plaintext`.
///
/// # Errors
///
/// An image without the `key`/`data` arrays.
pub fn cpu_load(dev: &Device, plaintext: u64) -> Result<LoadedCpu, String> {
    let program = dev.des.program();
    let mut cpu = Cpu::new(program);
    for (name, value) in [("key", KEY), ("data", plaintext)] {
        let base = program.try_data_addr(name).ok_or_else(|| format!("no `{name}` symbol"))?;
        for (i, bit) in emask_des::bits::to_bit_vec(value).iter().enumerate() {
            let addr = u32::try_from(i).map_err(|e| e.to_string())? * 4 + base;
            cpu.memory_mut().store(addr, u32::from(*bit)).map_err(|e| e.to_string())?;
        }
    }
    Ok(LoadedCpu(cpu))
}

/// Runs a loaded core to `halt` with no observer; returns the cycles.
///
/// # Errors
///
/// A simulation fault.
pub fn cpu_run(mut cpu: LoadedCpu) -> Result<u64, String> {
    cpu.0.run(50_000_000).map(|r| r.cycles).map_err(|e| e.to_string())
}

/// Every cycle's activity record of one run, for replaying the energy
/// model on its own.
#[derive(Debug)]
pub struct Activity(Vec<CycleActivity>);

impl Activity {
    /// Cycles recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Records the activity stream of one run.
///
/// # Errors
///
/// A simulation fault.
pub fn record_activity(dev: &Device, plaintext: u64) -> Result<Activity, String> {
    let mut cpu = cpu_load(dev, plaintext)?.0;
    cpu.run_collecting(50_000_000).map(|(_, acts)| Activity(acts)).map_err(|e| e.to_string())
}

/// The calibrated energy model over a recorded stream; returns total pJ.
pub fn energy_replay(acts: &Activity) -> f64 {
    let mut model = EnergyModel::with_params(EnergyParams::calibrated());
    acts.0.iter().map(|a| model.observe(a).total_pj()).sum()
}

/// An encryption with an empty fault plan and the dual-rail checker
/// hooked in: the fault campaign's per-trial path without a strike.
///
/// # Errors
///
/// A simulation fault or a checker detection.
pub fn encrypt_hooked(dev: &Device, plaintext: u64) -> Result<(), String> {
    let mut hook = (FaultInjector::new(FaultPlan::new()), DualRailChecker::new());
    dev.des.encrypt_hooked(plaintext, KEY, &mut hook).map(drop).map_err(|e| e.to_string())
}

/// An encryption under the default checkpoint/rollback recovery policy.
///
/// # Errors
///
/// A simulation fault.
pub fn encrypt_recovered(dev: &Device, plaintext: u64) -> Result<(), String> {
    let mut hook = (FaultInjector::new(FaultPlan::new()), DualRailChecker::new());
    dev.des
        .encrypt_recovered(plaintext, KEY, &mut hook, &RecoveryPolicy::default())
        .map(drop)
        .map_err(|e| e.to_string())
}

/// The TVLA accumulator's fixed-group half.
#[derive(Debug, Default)]
pub struct Welch(OnlineWelch);

impl Welch {
    /// Folds one trace into group 0.
    ///
    /// # Errors
    ///
    /// A trace of another width than the ones before it.
    pub fn push(&mut self, trace: &[f64]) -> Result<(), String> {
        self.0.g0.push(trace).map_err(|e| e.to_string())
    }
}

/// An in-process campaign service running the production runner.
#[derive(Debug)]
pub struct Server {
    socket: PathBuf,
    state_dir: PathBuf,
    thread: JoinHandle<Result<(), String>>,
}

impl Server {
    /// Starts a server with 2 executors sharing a 2-thread budget, state
    /// in `dir`. Returns at once; the socket appears once it is bound.
    pub fn start(dir: &Path) -> Server {
        let mut cfg = ServerConfig::new(dir.to_path_buf());
        cfg.executors = JOBS;
        cfg.thread_budget = JOBS;
        let (socket, state_dir) = (cfg.socket.clone(), cfg.state_dir.clone());
        let thread = std::thread::spawn(move || emask_serve::serve(&cfg, BenchRunner));
        Server { socket, state_dir, thread }
    }

    /// The socket clients talk to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Where the server keeps specs, CSVs and event histories.
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// Asks the server to drain and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The server's own error, or a panic in its thread.
    pub fn stop(self) -> Result<(), String> {
        // A server that never bound has already returned its error.
        let _ = client::shutdown(&self.socket);
        self.thread.join().map_err(|_| "server thread panicked".to_string())?
    }
}

/// Submits a job spec (JSON object text); returns the job id.
///
/// # Errors
///
/// Transport failure or a rejection.
pub fn submit(socket: &Path, spec_json: &str) -> Result<u64, String> {
    client::submit(socket, spec_json).map_err(|e| e.to_string())
}

/// Every job's `(id, state)` from one `status` round trip.
///
/// # Errors
///
/// Transport failure or an unreadable reply.
pub fn status(socket: &Path) -> Result<Vec<(u64, String)>, String> {
    let line = client::status(socket).map_err(|e| e.to_string())?;
    let doc = parse(&line).map_err(|e| e.to_string())?;
    let Some(Json::Arr(rows)) = doc.get("jobs") else {
        return Err(format!("status reply without jobs: {line}"));
    };
    Ok(rows
        .iter()
        .filter_map(|row| {
            let id = row.get("job").and_then(Json::as_u64)?;
            let state = row.get("state").and_then(Json::as_str)?;
            Some((id, state.to_string()))
        })
        .collect())
}

/// Whether a job state is final.
pub fn is_terminal(state: &str) -> bool {
    state != "queued" && state != "running"
}

/// The state a job that produced its CSV ends in.
pub const COMPLETED: &str = "completed";

/// The service's own latency means from a `stats` round trip, ms. The
/// means, not the histogram quantiles: those are interpolated in 25 ms
/// buckets and repeat exactly on short jobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    /// Mean time jobs waited in the queue.
    pub queue_wait_mean_ms: f64,
    /// Mean run time of an attempt.
    pub run_mean_ms: f64,
}

/// Reads [`ServeStats`].
///
/// # Errors
///
/// Transport failure or an unreadable reply.
pub fn stats(socket: &Path) -> Result<ServeStats, String> {
    let line = client::stats(socket).map_err(|e| e.to_string())?;
    let doc = parse(&line).map_err(|e| e.to_string())?;
    let mean = |name: &str| -> Result<f64, String> {
        match doc.get("latencies").and_then(|l| l.get(name)).and_then(|h| h.get("mean")) {
            Some(Json::Float(v)) => Ok(*v),
            Some(Json::Int(v)) => Ok(*v as f64),
            _ => Err(format!("stats reply without {name}.mean: {line}")),
        }
    };
    Ok(ServeStats { queue_wait_mean_ms: mean("queue_wait_ms")?, run_mean_ms: mean("run_ms")? })
}

/// The `repro loadgen --seed` the CI chaos soak runs with.
const SOAK_SEED: u64 = 11;

/// Job `k` of the CI chaos soak's traffic — its class, experiment, size
/// and worker request — with its own data seed `data_seed`.
pub fn mix_spec(k: u64, data_seed: u64) -> String {
    let mut spec = emask_bench::loadgen::workload_spec(SOAK_SEED, k);
    spec.seed = data_seed;
    spec.to_json()
}

/// A plain job spec.
pub fn job_spec(experiment: &str, trials: usize, rounds: usize, policy: Policy) -> String {
    JobSpec {
        experiment: experiment.into(),
        trials,
        rounds,
        policy: policy.name().into(),
        recover: experiment == "fault",
        jobs: JOBS,
        ..JobSpec::default()
    }
    .to_json()
}

/// `(history lines, job_preempted events)` of one job's persisted
/// event history.
///
/// # Errors
///
/// Unreadable history or a line that is not JSON.
pub fn job_events(state_dir: &Path, id: u64) -> Result<(usize, usize), String> {
    let path = state_dir.join(format!("job-{id}.events.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut preempted = 0;
    for line in text.lines() {
        let doc = parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("event").and_then(Json::as_str) == Some("job_preempted") {
            preempted += 1;
        }
    }
    Ok((text.lines().count(), preempted))
}

/// Re-runs a completed job's persisted spec alone (one worker, no
/// scheduler) with scratch files in `scratch`, and reports whether its
/// CSV is byte-identical to the one the service wrote.
///
/// # Errors
///
/// Missing files, or a solo run that did not complete.
pub fn solo_rerun(state_dir: &Path, id: u64, scratch: &Path) -> Result<bool, String> {
    let read = |ext: &str| {
        let path = state_dir.join(format!("job-{id}.{ext}"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let spec = JobSpec::from_json(&read("spec.json")?).map_err(|e| e.to_string())?;
    let service_csv = read("csv")?;
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let sink = JobSink::open(&scratch.join("events.jsonl")).map_err(|e| e.to_string())?;
    let token = CancelToken::new();
    let ctx = JobCtx {
        token: &token,
        sink: &sink,
        checkpoint: &scratch.join("ckpt"),
        span: SpanId::ROOT,
        workers: 1,
    };
    match BenchRunner.run(&spec, &ctx) {
        RunStatus::Done { csv } => Ok(csv == service_csv),
        other => Err(format!("job {id}: solo re-run did not complete: {other:?}")),
    }
}

/// Whether `text` is one well-formed JSON document.
#[cfg(test)]
pub fn json_is_valid(text: &str) -> bool {
    parse(text).is_ok()
}
