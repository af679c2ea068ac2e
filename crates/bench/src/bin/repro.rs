//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p emask-bench --bin repro -- all
//! cargo run --release -p emask-bench --bin repro -- fig6 fig9 table1
//! cargo run --release -p emask-bench --bin repro -- dpa --rounds 2 --samples 128
//! ```
//!
//! Every figure prints its data series (CSV-ish) plus an ASCII rendering;
//! EXPERIMENTS.md records the paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use emask_bench::run_campaign;
use emask_bench::{BenchRunner, CampaignReport};
use emask_bench::{CampaignConfig, FaultOutcome};
use emask_bench::{KEY, PLAINTEXT};
use emask_core::{
    ChromeTrace, DesProgramSpec, EncryptionRun, EnergyTrace, MaskPolicy, MaskedDes,
    MetricsRegistry, RecoveryPolicy,
};
use emask_par::{CancelToken, Interrupted, Jobs};
use emask_serve::{client, JobSink, ServerConfig};
use emask_telemetry::{host_context, metrics_csv, summary_with_host, Event, EventSink, NullSink};
use std::env;
use std::fs;
use std::io::{BufWriter, IsTerminal, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// Every runnable experiment, as listed in `usage()`; `all` expands to the
/// full sequence.
const EXPERIMENTS: [&str; 19] = [
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "xor",
    "spa",
    "dpa",
    "cpa",
    "tvla",
    "sweep",
    "coupling",
    "perclass",
    "ablations",
    "fault",
    "leakage",
];

struct Opts {
    rounds: usize,
    samples: usize,
    plot: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    summary: bool,
    fault_trials: usize,
    fault_bits: Vec<u8>,
    fault_out: Option<String>,
    checkpoint: Option<String>,
    resume: bool,
    recover: bool,
    jobs: Jobs,
    live_out: Option<String>,
    cadence: usize,
    quiet: bool,
    leakage_out: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // The campaign-service subcommands have their own flag grammar.
    if matches!(
        args.first().map(String::as_str),
        Some("serve" | "submit" | "status" | "stats" | "cancel" | "watch" | "loadgen")
    ) {
        return service_cli(&args);
    }
    // So does the offline events toolchain.
    if args.first().map(String::as_str) == Some("events") {
        return events_cli(&args[1..]);
    }
    let mut cmds: Vec<String> = Vec::new();
    let mut opts = Opts {
        rounds: 16,
        samples: 128,
        plot: true,
        trace_out: None,
        metrics_out: None,
        summary: false,
        fault_trials: 1000,
        fault_bits: CampaignConfig::default().bits,
        fault_out: None,
        checkpoint: None,
        resume: false,
        recover: false,
        jobs: Jobs::serial(),
        live_out: None,
        cadence: 32,
        quiet: false,
        leakage_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if (1..=16).contains(&v) => opts.rounds = v,
                _ => return usage("--rounds needs a value in 1..=16"),
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.samples = v,
                _ => return usage("--samples needs a positive value"),
            },
            "--no-plot" => opts.plot = false,
            "--trace-out" => match it.next() {
                Some(path) => opts.trace_out = Some(path.clone()),
                None => return usage("--trace-out needs a file path"),
            },
            "--metrics-out" => match it.next() {
                Some(path) => opts.metrics_out = Some(path.clone()),
                None => return usage("--metrics-out needs a file path"),
            },
            "--summary" => opts.summary = true,
            "--fault-trials" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.fault_trials = v,
                _ => return usage("--fault-trials needs a positive value"),
            },
            "--fault-bits" => {
                let parsed = it.next().map(|v| {
                    v.split(',').map(|s| s.trim().parse::<u8>()).collect::<Result<Vec<u8>, _>>()
                });
                match parsed {
                    Some(Ok(bits)) if !bits.is_empty() && bits.iter().all(|&b| b < 32) => {
                        opts.fault_bits = bits;
                    }
                    _ => return usage("--fault-bits needs a comma list of bits in 0..=31"),
                }
            }
            "--fault-out" => match it.next() {
                Some(path) => opts.fault_out = Some(path.clone()),
                None => return usage("--fault-out needs a file path"),
            },
            "--checkpoint" => match it.next() {
                Some(path) => opts.checkpoint = Some(path.clone()),
                None => return usage("--checkpoint needs a file path"),
            },
            "--resume" => opts.resume = true,
            "--recover" => opts.recover = true,
            "--jobs" => match it.next().map(|v| Jobs::parse(v)) {
                Some(Ok(jobs)) => opts.jobs = jobs,
                Some(Err(e)) => return usage(&e),
                None => return usage("--jobs needs a thread count or `auto`"),
            },
            "--live-out" => match it.next() {
                Some(path) => opts.live_out = Some(path.clone()),
                None => return usage("--live-out needs a file path or `-` for stdout"),
            },
            "--cadence" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.cadence = v,
                None => return usage("--cadence needs a trial count (0 = final snapshot only)"),
            },
            "--quiet" => opts.quiet = true,
            "--leakage-out" => match it.next() {
                Some(path) => opts.leakage_out = Some(path.clone()),
                None => return usage("--leakage-out needs a file path"),
            },
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag `{flag}`"));
            }
            _ => cmds.push(a.clone()),
        }
    }
    let instrumented = opts.trace_out.is_some() || opts.metrics_out.is_some() || opts.summary;
    if cmds.is_empty() && !instrumented {
        return usage("no experiment named");
    }
    // Validate every named experiment before running anything, so a typo
    // in the third name does not waste the first two experiments' work.
    for cmd in &cmds {
        if cmd != "all" && !EXPERIMENTS.contains(&cmd.as_str()) {
            return usage(&format!("unknown experiment `{cmd}`"));
        }
    }
    if cmds.iter().any(|c| c == "all") {
        cmds = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if opts.samples < 2 && cmds.iter().any(|c| c == "cpa") {
        return usage("cpa needs --samples 2 or more: correlation is undefined on one trace");
    }
    if opts.resume && opts.checkpoint.is_none() {
        return usage("--resume needs --checkpoint <path>");
    }
    if let Some(path) = &opts.checkpoint {
        if !opts.resume && Path::new(path).exists() {
            eprintln!(
                "error: checkpoint {path} already exists; pass --resume to continue it \
                 or delete the file to start over"
            );
            return ExitCode::FAILURE;
        }
    }
    // Probe every requested output path *before* any experiment runs, so
    // a typo'd directory fails in milliseconds instead of erroring after
    // minutes of simulation.
    if let Err(e) = validate_out_paths(&opts) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("# emask repro — key {KEY:016X}, plaintext {PLAINTEXT:016X}, {} rounds", opts.rounds);
    print!("# {}", host_context(Some(opts.jobs.get())).render());
    println!();

    // `--live-out` writes the replayable events as a JSONL document
    // (`-` = stdout); on a terminal, unless `--quiet`, campaign headers
    // and trial heartbeats also drive a stderr progress/ETA line.
    let live = match &opts.live_out {
        Some(path) => match Live::create(path, !opts.quiet && std::io::stderr().is_terminal()) {
            Ok(live) => Some(live),
            Err(e) => {
                eprintln!("error: live event stream failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut failed = false;
    for cmd in &cmds {
        match cmd.as_str() {
            "fig6" => fig6(&opts),
            "fig7" | "fig8" => fig78(&opts),
            "fig9" => fig9(&opts),
            "fig10" => fig10(&opts),
            "fig11" => fig11(&opts),
            "fig12" => fig12(&opts),
            "table1" => table1(&opts),
            "xor" => xor(),
            "spa" => spa(&opts),
            "dpa" => dpa(&opts, live.as_ref()),
            "cpa" => cpa(&opts),
            "sweep" => sweep(&opts),
            "coupling" => coupling(&opts),
            "perclass" => perclass(&opts),
            "tvla" => tvla(&opts, live.as_ref()),
            "ablations" => ablations(&opts),
            "fault" => {
                if let Err(e) = fault(&opts, live.as_ref()) {
                    eprintln!("error: fault campaign failed: {e}");
                    failed = true;
                }
            }
            "leakage" => {
                if let Err(e) = leakage(&opts) {
                    eprintln!("error: leakage attribution failed: {e}");
                    failed = true;
                }
            }
            _ => unreachable!("validated above"),
        }
        if failed {
            break;
        }
        println!();
    }

    if let Some(live) = &live {
        if let Err(e) = live.finish() {
            eprintln!("error: live event stream failed: {e}");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    if instrumented {
        if let Err(e) = telemetry_run(&opts) {
            eprintln!("error: telemetry run failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Seconds between redraws of the stderr progress line.
const PROGRESS_REDRAW_S: f64 = 0.1;

/// The `--live-out` sink: every event goes to the [`JobSink`] that
/// writes the JSONL document. No subscriber is registered, so nothing
/// is ever dropped and the trait's default `dropped` of 0 holds.
struct Live {
    sink: JobSink,
    /// The stderr progress/ETA line, when one is drawn.
    progress: Option<Mutex<Progress>>,
}

/// Progress state, reset by each campaign header.
struct Progress {
    experiment: String,
    total: u64,
    done: u64,
    started: Instant,
    drawn: Option<Instant>,
}

impl Live {
    /// Truncates `path` (`-` = stdout) for the document.
    fn create(path: &str, progress: bool) -> std::io::Result<Self> {
        let sink = if path == "-" {
            JobSink::new(std::io::stdout())
        } else {
            JobSink::new(BufWriter::new(fs::File::create(path)?))
        };
        let progress = progress.then(|| {
            Mutex::new(Progress {
                experiment: String::new(),
                total: 0,
                done: 0,
                started: Instant::now(),
                drawn: None,
            })
        });
        Ok(Live { sink, progress })
    }

    /// Ends the progress line and flushes the document.
    fn finish(&self) -> std::io::Result<()> {
        if let Some(progress) = &self.progress {
            if progress.lock().expect("progress line poisoned").drawn.is_some() {
                eprintln!();
            }
        }
        self.sink.flush()
    }
}

impl Progress {
    /// Folds in one event and redraws the line at most every
    /// [`PROGRESS_REDRAW_S`], and at the last trial.
    fn update(&mut self, event: &Event) {
        match event {
            Event::CampaignStarted { experiment, trials, .. } => {
                self.experiment.clone_from(experiment);
                self.total = *trials;
                self.done = 0;
                self.started = Instant::now();
            }
            Event::TrialCompleted { .. } => self.done += 1,
            _ => return,
        }
        let due = self.drawn.is_none_or(|t| t.elapsed().as_secs_f64() >= PROGRESS_REDRAW_S);
        if self.total == 0 || !(due || self.done == self.total) {
            return;
        }
        let (experiment, done, total) = (&self.experiment, self.done, self.total);
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        let eta = if rate > 0.0 && done < total {
            format!("{:.0}s", (total - done) as f64 / rate)
        } else {
            "--".into()
        };
        eprint!("\r{experiment}: {done}/{total} trials ({rate:.0}/s, ETA {eta})    ");
        let _ = std::io::stderr().flush();
        self.drawn = Some(Instant::now());
    }
}

impl EventSink for Live {
    fn emit(&self, event: Event) {
        if let Some(progress) = &self.progress {
            progress.lock().expect("progress line poisoned").update(&event);
        }
        self.sink.emit(event);
    }
}

/// The `repro serve|submit|status|stats|cancel|watch` subcommands — the
/// CLI face of the `emask-serve` campaign service.
fn service_cli(args: &[String]) -> ExitCode {
    let cmd = args[0].as_str();
    let mut state_dir = String::from("emask-serve-state");
    let mut socket: Option<String> = None;
    let mut queue_depth = 32usize;
    let mut budget_mb = 512u64;
    let mut executors: Option<usize> = None;
    let mut thread_budget: Option<usize> = None;
    let mut aging: Option<u64> = None;
    let mut quotas: [Option<usize>; 3] = [None; 3];
    let mut clients = 4usize;
    let mut per_client = 6usize;
    let mut seed = 7u64;
    let mut cancel_pct = 10u32;
    let mut wait_secs = 120u64;
    let mut verify = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--state-dir" => match it.next() {
                Some(dir) => state_dir = dir.clone(),
                None => return service_usage("--state-dir needs a directory path"),
            },
            "--socket" => match it.next() {
                Some(path) => socket = Some(path.clone()),
                None => return service_usage("--socket needs a socket path"),
            },
            "--queue-depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => queue_depth = v,
                _ => return service_usage("--queue-depth needs a positive count"),
            },
            "--memory-budget-mb" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => budget_mb = v,
                _ => return service_usage("--memory-budget-mb needs a positive size"),
            },
            "--executors" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => executors = Some(v),
                _ => return service_usage("--executors needs a positive count"),
            },
            "--thread-budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => thread_budget = Some(v),
                _ => return service_usage("--thread-budget needs a positive count"),
            },
            "--aging" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => aging = Some(v),
                _ => return service_usage("--aging needs a dispatch count (0 disables)"),
            },
            "--quota-high" | "--quota-normal" | "--quota-batch" => {
                let slot = match a.as_str() {
                    "--quota-high" => 0,
                    "--quota-normal" => 1,
                    _ => 2,
                };
                match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => quotas[slot] = Some(v),
                    _ => return service_usage(&format!("{a} needs a positive count")),
                }
            }
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => clients = v,
                _ => return service_usage("--clients needs a positive count"),
            },
            "--per-client" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => per_client = v,
                _ => return service_usage("--per-client needs a positive count"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                _ => return service_usage("--seed needs a number"),
            },
            "--cancel-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v <= 100 => cancel_pct = v,
                _ => return service_usage("--cancel-pct needs a percent in 0..=100"),
            },
            "--wait-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => wait_secs = v,
                _ => return service_usage("--wait-secs needs a positive count"),
            },
            "--verify" => verify = true,
            flag if flag.starts_with("--") => {
                return service_usage(&format!("unknown flag `{flag}`"));
            }
            _ => positional.push(a.clone()),
        }
    }
    let socket_path =
        std::path::PathBuf::from(socket.unwrap_or_else(|| format!("{state_dir}/serve.sock")));
    let job_arg = |positional: &[String]| -> Result<u64, ExitCode> {
        positional
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| service_usage(&format!("{cmd} needs a job id")))
    };
    match cmd {
        "serve" => {
            let mut cfg = ServerConfig::new(std::path::PathBuf::from(&state_dir));
            cfg.socket = socket_path;
            cfg.queue_depth = queue_depth;
            cfg.memory_budget = budget_mb * 1024 * 1024;
            if let Some(n) = executors {
                cfg.executors = n;
            }
            if let Some(n) = thread_budget {
                cfg.thread_budget = n;
            }
            if let Some(n) = aging {
                cfg.aging_threshold = n;
            }
            for (slot, quota) in quotas.iter().enumerate() {
                if let Some(q) = quota {
                    cfg.class_quotas[slot] = *q;
                }
            }
            match emask_serve::serve(&cfg, BenchRunner) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "loadgen" => {
            let cfg = emask_bench::LoadgenConfig {
                socket: socket_path,
                state_dir: std::path::PathBuf::from(&state_dir),
                clients,
                per_client,
                seed,
                cancel_pct,
                wait_secs,
                verify,
            };
            match emask_bench::loadgen::run(&cfg) {
                Ok(report) => {
                    print!("{report}");
                    let undrained = report.by_state.iter().any(|(s, n)| {
                        (s == "queued" || s == "running" || s == "unknown") && *n > 0
                    });
                    if report.mismatches > 0 || undrained {
                        eprintln!("error: loadgen found mismatches or undrained jobs");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "submit" => {
            let Some(spec) = positional.first() else {
                return service_usage("submit needs a spec JSON argument");
            };
            match client::submit(&socket_path, spec) {
                Ok(id) => {
                    println!("{id}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "status" => match client::status(&socket_path) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "stats" => match client::stats(&socket_path) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "cancel" => {
            let id = match job_arg(&positional) {
                Ok(id) => id,
                Err(code) => return code,
            };
            match client::cancel(&socket_path, id) {
                Ok(()) => {
                    println!("cancelled job {id}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "watch" => {
            let id = match job_arg(&positional) {
                Ok(id) => id,
                Err(code) => return code,
            };
            let mut out = std::io::stdout();
            match client::watch(&socket_path, id, &mut out) {
                Ok(final_line) => {
                    println!("{final_line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => unreachable!("routed in main"),
    }
}

fn service_usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro serve  [--state-dir DIR] [--socket PATH] [--queue-depth N] [--memory-budget-mb N]"
    );
    eprintln!(
        "                    [--executors N] [--thread-budget N] [--aging N] \
         [--quota-high N] [--quota-normal N] [--quota-batch N]"
    );
    eprintln!(
        "       repro submit [--socket PATH] '{{\"experiment\":\"fault\",\"trials\":400,\"priority\":\"batch\",...}}'"
    );
    eprintln!("       repro status [--socket PATH]");
    eprintln!("       repro stats  [--socket PATH]");
    eprintln!("       repro cancel [--socket PATH] JOB");
    eprintln!("       repro watch  [--socket PATH] JOB");
    eprintln!(
        "       repro loadgen [--socket PATH] [--state-dir DIR] [--clients N] [--per-client N]"
    );
    eprintln!("                    [--seed N] [--cancel-pct N] [--wait-secs N] [--verify]");
    eprintln!("  the default socket is <state-dir>/serve.sock (state dir: emask-serve-state)");
    eprintln!("  `submit` prints the job id; results land in <state-dir>/job-<id>.csv");
    eprintln!("  spec 'priority' is high|normal|batch; High preempts Batch under saturation");
    eprintln!("  SIGTERM drains gracefully; a restarted server auto-resumes parked jobs");
    eprintln!(
        "  `loadgen --verify` re-runs every completed job solo and byte-compares its CSV \
         (nonzero exit on any mismatch)"
    );
    ExitCode::FAILURE
}

/// The `repro events <summarize|tail|validate|trace>` toolchain —
/// offline analysis of the JSONL event streams the service and
/// `--live-out` produce (see `emask_bench::validate_events` and its siblings).
fn events_cli(args: &[String]) -> ExitCode {
    let events_usage = |err: &str| -> ExitCode {
        eprintln!("error: {err}");
        eprintln!("usage: repro events summarize FILE");
        eprintln!("       repro events tail      FILE [-n N]");
        eprintln!("       repro events validate  FILE");
        eprintln!("       repro events trace     FILE [-o TRACE.json]");
        eprintln!("  FILE is a JSONL event stream (`-` = stdin): a service job's");
        eprintln!("  events.jsonl history or a `--live-out` capture");
        eprintln!("  `trace` writes a Chrome trace-event document (job > attempt > shard)");
        ExitCode::FAILURE
    };
    let Some(cmd) = args.first().map(String::as_str) else {
        return events_usage("events needs a subcommand");
    };
    let mut file: Option<String> = None;
    let mut tail_n = 10usize;
    let mut out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => tail_n = v,
                _ => return events_usage("-n needs a positive count"),
            },
            "-o" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return events_usage("-o needs a file path"),
            },
            flag if flag.starts_with('-') && flag != "-" => {
                return events_usage(&format!("unknown flag `{flag}`"));
            }
            _ => {
                if file.replace(a.clone()).is_some() {
                    return events_usage("events takes exactly one FILE");
                }
            }
        }
    }
    let Some(file) = file else {
        return events_usage(&format!("{cmd} needs a FILE argument"));
    };
    let text = if file == "-" {
        let mut s = String::new();
        match std::io::Read::read_to_string(&mut std::io::stdin(), &mut s) {
            Ok(_) => s,
            Err(e) => {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let rendered = match cmd {
        "summarize" => emask_bench::summarize_events(&text),
        "tail" => Ok(emask_bench::tail_events(&text, tail_n)),
        "validate" => emask_bench::validate_events(&text),
        "trace" => emask_bench::trace_events(&text),
        other => return events_usage(&format!("unknown events subcommand `{other}`")),
    };
    match rendered {
        Ok(doc) => {
            if let Some(out) = out {
                if let Err(e) = fs::write(&out, doc) {
                    eprintln!("error: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{doc}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro [--rounds N] [--samples N] [--jobs N|auto] [--no-plot] [--trace-out FILE] \
         [--metrics-out FILE] [--summary] [--fault-trials N] [--fault-bits B,B,...] \
         [--fault-out FILE] [--live-out FILE|-] [--cadence N] [--quiet] [--leakage-out FILE] \
         <all|{}>...",
        EXPERIMENTS.join("|")
    );
    eprintln!("  --rounds/--samples may be given more than once; the last value wins");
    eprintln!(
        "  --jobs        worker threads for dpa/cpa/tvla/sweep/coupling/fault (`auto` = all cores); \
         results are identical for any value"
    );
    eprintln!(
        "  --live-out    stream replayable campaign events (dpa/tvla/fault) as JSONL to this \
         file (`-` = stdout); byte-identical for any --jobs value"
    );
    eprintln!(
        "  --cadence     trials between convergence snapshots on the live stream \
         (default 32; 0 = final snapshot only)"
    );
    eprintln!("  --quiet       suppress the stderr progress/ETA line");
    eprintln!(
        "  --leakage-out write the `leakage` experiment's per-instruction CSV here \
         (default leakage_profile.csv)"
    );
    eprintln!("  --trace-out   write a Chrome trace-event JSON of one observed encryption");
    eprintln!("  --metrics-out write per-phase x per-component energy CSV of that run");
    eprintln!("  --summary     print the human-readable telemetry report of that run");
    eprintln!("  --fault-trials number of faults the `fault` campaign injects (default 1000)");
    eprintln!("  --fault-bits  comma list of bit positions the campaign cycles through");
    eprintln!("  --fault-out   write the per-trial campaign CSV to this file");
    eprintln!("  --recover     run fault trials under checkpoint/rollback recovery");
    eprintln!("  --checkpoint  persist fault-campaign progress to this file after every shard");
    eprintln!("  --resume      continue a killed campaign from its --checkpoint file");
    eprintln!(
        "  see also: `repro serve|submit|status|stats|cancel|watch` (campaign service) and \
         `repro events summarize|tail|validate|trace` (event-stream analysis)"
    );
    ExitCode::FAILURE
}

/// Verifies that every requested output file can actually be created,
/// returning the flag and OS error of the first one that cannot. The
/// probe is an append-mode open, so an existing file's content is left
/// untouched.
fn validate_out_paths(opts: &Opts) -> Result<(), String> {
    let live_out = opts.live_out.as_ref().filter(|p| p.as_str() != "-").cloned();
    let outputs = [
        ("--trace-out", &opts.trace_out),
        ("--metrics-out", &opts.metrics_out),
        ("--fault-out", &opts.fault_out),
        ("--checkpoint", &opts.checkpoint),
        ("--live-out", &live_out),
        ("--leakage-out", &opts.leakage_out),
    ];
    for (flag, path) in outputs {
        if let Some(path) = path {
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{flag} {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs one selectively-masked encryption with the telemetry recorders
/// attached and writes/prints whatever `--trace-out`, `--metrics-out`,
/// and `--summary` asked for.
fn telemetry_run(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== telemetry: one observed encryption (selective masking, {} rounds) ==",
        opts.rounds
    );
    let des =
        MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: opts.rounds })?;
    let mut chrome = ChromeTrace::new();
    let mut metrics = MetricsRegistry::new();
    let run: EncryptionRun = des.encrypt_observed(PLAINTEXT, KEY, |act, energy, phase| {
        let name = phase.map(|p| p.to_string());
        chrome.record(act, name.as_deref());
        metrics.record(act, energy, name.as_deref());
    })?;
    metrics.run = run.stats;
    println!(
        "{} cycles, {:.2} µJ, ciphertext {:016X}",
        run.stats.cycles,
        run.trace.total_uj(),
        run.ciphertext
    );
    if let Some(path) = &opts.trace_out {
        fs::write(path, chrome.render())?;
        println!("wrote Chrome trace-event JSON to {path} (open in chrome://tracing)");
    }
    if let Some(path) = &opts.metrics_out {
        fs::write(path, metrics_csv(&metrics))?;
        println!("wrote per-phase metrics CSV to {path}");
    }
    if opts.summary {
        print!("{}", summary_with_host(&metrics, &host_context(Some(opts.jobs.get()))));
    }
    Ok(())
}

fn plot(opts: &Opts, trace: &EnergyTrace) {
    if opts.plot && !trace.is_empty() {
        print!("{}", trace.ascii_plot(100, 12));
    }
}

fn series(name: &str, values: &[f64], stride: usize) {
    println!("## series {name} (every {stride} values)");
    let pts: Vec<String> =
        values.iter().step_by(stride.max(1)).map(|v| format!("{v:.2}")).collect();
    println!("{}", pts.join(","));
}

fn fig6(opts: &Opts) {
    println!("== Figure 6: energy trace of encryption (per-100-cycle buckets) ==");
    let (trace, spa) = emask_bench::fig6_round_trace(opts.rounds);
    let buckets = trace.bucketed(100);
    println!(
        "{} cycles, {:.1} pJ/cycle mean, {:.2} µJ total",
        trace.len(),
        trace.mean_pj(),
        trace.total_uj()
    );
    println!("SPA on the round region: {spa}");
    series("fig6_bucketed_pj_per_100_cycles", &buckets, buckets.len().div_ceil(160));
    plot(opts, &trace);
}

fn fig78(opts: &Opts) {
    println!("== Figures 7/8: ΔE two keys (bit 1), BEFORE masking, round 1 ==");
    let (full, round1) = emask_bench::key_differential(MaskPolicy::None, opts.rounds);
    println!(
        "round-1 window: max |ΔE| = {:.2} pJ, rms = {:.3} pJ (nonzero: the key leaks)",
        round1.max_abs(),
        round1.rms()
    );
    println!("whole run:     max |ΔE| = {:.2} pJ", full.max_abs());
    series("fig8_round1_diff_pj", round1.samples(), round1.len().div_ceil(160));
    plot(opts, &round1);
}

fn fig9(opts: &Opts) {
    println!("== Figure 9: ΔE two keys, AFTER masking, round 1 ==");
    let (_, round1) = emask_bench::key_differential(MaskPolicy::Selective, opts.rounds);
    println!(
        "round-1 window: max |ΔE| = {:.6} pJ (zero: masking removes the key dependence)",
        round1.max_abs()
    );
}

fn fig10(opts: &Opts) {
    println!("== Figure 10: ΔE two plaintexts, BEFORE masking ==");
    let (ip, round1) = emask_bench::plaintext_differential(MaskPolicy::None, opts.rounds);
    println!("initial permutation: max |ΔE| = {:.2} pJ", ip.max_abs());
    println!("round 1:             max |ΔE| = {:.2} pJ", round1.max_abs());
    series("fig10_round1_diff_pj", round1.samples(), round1.len().div_ceil(160));
}

fn fig11(opts: &Opts) {
    println!("== Figure 11: ΔE two plaintexts, AFTER masking ==");
    let (ip, round1) = emask_bench::plaintext_differential(MaskPolicy::Selective, opts.rounds);
    println!(
        "initial permutation: max |ΔE| = {:.2} pJ (insecure by design — public plaintext)",
        ip.max_abs()
    );
    println!("round 1:             max |ΔE| = {:.6} pJ (secure region is clean)", round1.max_abs());
}

fn fig12(opts: &Opts) {
    println!("== Figure 12: additional energy of masking, 1st key permutation ==");
    let (extra, mean_extra, original_mean) = emask_bench::masking_overhead_trace(opts.rounds);
    println!(
        "mean additional energy: {:.1} pJ/cycle over an original average of {:.1} pJ/cycle",
        mean_extra, original_mean
    );
    println!("(paper: ≈45 pJ/cycle over ≈165 pJ/cycle)");
    series("fig12_extra_pj", extra.samples(), extra.len().div_ceil(160));
    plot(opts, &extra);
}

fn table1(opts: &Opts) {
    println!("== Totals table (paper: 46.4 / 52.6 / 63.6 / 83.5 µJ) ==");
    let t = emask_bench::policy_totals(opts.rounds);
    println!("{t}");
    println!(
        "ratios vs none: selective {:.3} (paper 1.134), all-ls {:.3} (paper 1.371), all {:.3} (paper 1.800)",
        t.totals_uj[1] / t.totals_uj[0],
        t.totals_uj[2] / t.totals_uj[0],
        t.totals_uj[3] / t.totals_uj[0]
    );
}

fn xor() {
    println!("== XOR unit (paper: 0.3 pJ normal / 0.6 pJ secure) ==");
    let (normal, secure) = emask_bench::xor_unit(100_000);
    println!("normal mode mean: {normal:.4} pJ");
    println!("secure mode:      {secure:.4} pJ (constant)");
}

fn spa(opts: &Opts) {
    println!("== SPA: round structure in a single trace ==");
    let report = emask_bench::spa_rounds(opts.rounds);
    println!("unmasked: {report}");
    println!("(paper Figure 6: the 16 rounds are clearly visible)");
}

/// The result of a campaign run under a private token, which nothing
/// cancels.
fn uninterrupted<T>(result: Result<T, Interrupted>) -> T {
    result.unwrap_or_else(|_| unreachable!("a private never-cancelled token cannot interrupt"))
}

fn dpa(opts: &Opts, live: Option<&Live>) {
    println!(
        "== DPA: round-1 subkey recovery, S-box 1, {} samples, {} jobs ==",
        opts.samples,
        opts.jobs.get()
    );
    let token = CancelToken::new();
    let (rounds, samples, jobs, cadence) = (opts.rounds, opts.samples, opts.jobs, opts.cadence);
    let run = |policy| {
        uninterrupted(match live {
            Some(live) => {
                emask_bench::dpa_attack(policy, rounds, samples, 0, jobs, &token, cadence, live)
            }
            None => emask_bench::dpa_attack(
                policy, rounds, samples, 0, jobs, &token, cadence, &NullSink,
            ),
        })
    };
    let unmasked = run(MaskPolicy::None);
    println!("before masking: {unmasked}");
    let masked = run(MaskPolicy::Selective);
    println!("after masking:  {masked}");
    let ok = unmasked.recovered && !masked.recovered;
    println!(
        "verdict: {}",
        if ok { "masking defeats DPA (as the paper claims)" } else { "UNEXPECTED RESULT" }
    );
}

fn cpa(opts: &Opts) {
    println!(
        "== CPA: Hamming-weight correlation, S-box 1, {} samples (extension) ==",
        opts.samples
    );
    let token = CancelToken::new();
    let run = |policy| {
        uninterrupted(emask_bench::cpa_attack(
            policy,
            opts.rounds,
            opts.samples,
            0,
            opts.jobs,
            &token,
        ))
    };
    let unmasked = run(MaskPolicy::None);
    println!("before masking: {unmasked}");
    let masked = run(MaskPolicy::Selective);
    println!("after masking:  {masked}");
}

fn tvla(opts: &Opts, live: Option<&Live>) {
    println!("== TVLA: fixed-vs-random-key Welch t (extension; threshold 4.5) ==");
    let rounds = opts.rounds.min(2);
    let groups = (opts.samples / 4).max(8);
    let token = CancelToken::new();
    let (jobs, cadence) = (opts.jobs, opts.cadence);
    let run = |policy| {
        uninterrupted(match live {
            Some(live) => {
                emask_bench::tvla(policy, rounds, groups, 11, jobs, &token, cadence, live)
            }
            None => emask_bench::tvla(policy, rounds, groups, 11, jobs, &token, cadence, &NullSink),
        })
    };
    let unmasked = run(MaskPolicy::None);
    println!("before masking: {unmasked}");
    let masked = run(MaskPolicy::Selective);
    println!("after masking:  {masked}");
}

/// The leakage attribution study: per-instruction energy-variance
/// profiles of the unmasked vs selectively masked device, exported as
/// the `leakage_profile.csv` document (`--leakage-out` overrides the
/// path).
fn leakage(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let rounds = opts.rounds.min(2);
    let traces = (opts.samples / 8).clamp(6, 48);
    println!(
        "== Leakage attribution: per-instruction energy variance, {traces} traces, {rounds} rounds =="
    );
    let cmp = emask_bench::leakage_attribution(rounds, traces, 0xACC0);
    println!("{cmp}");
    let path = opts.leakage_out.as_deref().unwrap_or("leakage_profile.csv");
    fs::write(path, &cmp.csv)?;
    println!("wrote per-instruction leakage profile CSV to {path}");
    Ok(())
}

fn sweep(opts: &Opts) {
    println!("== DPA sample-complexity sweep (S-box 1, round 1) ==");
    let rounds = opts.rounds.min(2);
    let counts = [16usize, 32, 64, 128, 256]
        .into_iter()
        .filter(|&c| c <= opts.samples.max(64))
        .collect::<Vec<_>>();
    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        println!("device: {policy}");
        for p in emask_bench::dpa_sample_sweep(policy, rounds, &counts, opts.jobs) {
            println!(
                "  {:>5} traces: peak {:>7.3} pJ, margin {:>5.2}x — {}",
                p.samples,
                p.best_peak,
                p.margin,
                if p.recovered { "recovered" } else { "nothing" }
            );
        }
    }
}

fn coupling(opts: &Opts) {
    println!("== Coupling: the conclusion's predicted dual-rail limitation ==");
    println!("(inter-wire capacitance per the paper's reference [8]; 0.05 pF here)");
    let rounds = opts.rounds.min(2);
    let report = emask_bench::coupling_study(rounds, opts.samples, 0.05, opts.jobs);
    println!("{report}");
}

fn perclass(opts: &Opts) {
    println!("== Energy by instruction class (SimplePower-style breakdown) ==");
    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        println!("policy: {policy}");
        print!("{}", emask_bench::energy_by_class(policy, opts.rounds));
    }
}

fn ablations(opts: &Opts) {
    println!("== Ablations: pre-charge, clock gating, forward slicing ==");
    let rounds = opts.rounds.min(4);
    let report = emask_bench::ablations(rounds);
    println!("{report}");
}

/// The robustness experiment: a deterministic fault-injection campaign
/// against the selectively-masked device, with the dual-rail checker
/// armed, classifying every trial into one outcome category. With
/// `--recover` the trials run under checkpoint/rollback recovery; with
/// `--checkpoint` the campaign itself persists progress after every
/// shard and `--resume` continues a killed run byte-identically.
fn fault(opts: &Opts, live: Option<&Live>) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== Fault campaign: {} trials, bits {:?}, selective masking, {} rounds, {} jobs{} ==",
        opts.fault_trials,
        opts.fault_bits,
        opts.rounds,
        opts.jobs.get(),
        if opts.recover { ", recovery on" } else { "" }
    );
    let des =
        MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: opts.rounds })?;
    let cfg = CampaignConfig {
        trials: opts.fault_trials,
        bits: opts.fault_bits.clone(),
        plaintext: PLAINTEXT,
        key: KEY,
        recovery: opts.recover.then(RecoveryPolicy::default),
        ..CampaignConfig::default()
    };
    let token = CancelToken::new();
    let checkpoint = opts.checkpoint.as_deref().map(Path::new);
    let report: CampaignReport = match live {
        Some(live) => run_campaign(&des, &cfg, opts.jobs, &token, checkpoint, live)?,
        None => run_campaign(&des, &cfg, opts.jobs, &token, checkpoint, &NullSink)?,
    };
    println!("clean run: {} cycles; cycle budget per trial: 2x", report.clean_cycles);
    print!("{}", report.summary());
    let detected = report.count(FaultOutcome::Detected)
        + report.count(FaultOutcome::Recovered)
        + report.count(FaultOutcome::Zeroized);
    println!(
        "dual-rail checker detected {detected} of {} injected faults ({:.1}%)",
        report.total(),
        100.0 * detected as f64 / report.total().max(1) as f64
    );
    if let Some(path) = &opts.fault_out {
        fs::write(path, report.csv())?;
        println!("wrote per-trial campaign CSV to {path}");
    }
    if let Some(path) = &opts.checkpoint {
        println!("campaign checkpoint saved to {path}");
    }
    Ok(())
}
