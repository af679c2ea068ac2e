//! The repository benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark run   [WORKLOAD...] [--seed N] [--runs K] [--seconds S]
//! benchmark trace [WORKLOAD...] [--seed N] [--seconds S]
//! ```
//!
//! The first form is one run of one workload: it prints `metric NAME
//! VALUE UNIT` lines and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones), and exits nonzero when a check
//! failed. `run` starts one child process per workload and run, so peak
//! RSS is per workload, and reports medians, quartiles and extremes in
//! `target/bench/benchmark.json`. `trace` does the same for the traced
//! run and assembles `target/bench/layers.json`. See README.md.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

mod drive;
mod host;
mod probes;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use workloads::{Outcome, Plan, Workload};

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 30.0;
/// The seed `run` and `trace` start from.
const DEFAULT_SEED: u64 = 1;
/// Where reports, traces and scratch files go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = "target/bench";

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1
  benchmark run   [WORKLOAD...] [--seed N] [--runs K] [--seconds S]
  benchmark trace [WORKLOAD...] [--seed N] [--seconds S]
workloads: dpa_r1 dpa_r16 fault_r16 serve_mix";

#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Once { workload: Workload, seed: u64, seconds: f64, trace: bool },
    Many { workloads: Vec<Workload>, seed: u64, runs: u64, seconds: f64, trace: bool },
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let (many, trace_many, rest) = match args.first().map(String::as_str) {
        Some("run") => (true, false, &args[1..]),
        Some("trace") => (true, true, &args[1..]),
        _ => (false, false, args),
    };
    let mut workloads = Vec::new();
    let (mut seed, mut runs, mut seconds, mut trace) = (None, None, None, None);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workloads.push(value("--workload")?.clone()),
            "--seed" => seed = Some(parse_num::<u64>("--seed", value("--seed")?)?),
            "--runs" if many => runs = Some(parse_num::<u64>("--runs", value("--runs")?)?),
            "--seconds" => seconds = Some(parse_num::<f64>("--seconds", value("--seconds")?)?),
            "--trace" if !many => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            name if many && !name.starts_with('-') => workloads.push(name.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let mut parsed = workloads
        .iter()
        .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(s) = seconds {
        if !(s.is_finite() && s >= 0.0) {
            return Err(format!("--seconds must be a non-negative number, not {s}"));
        }
    }
    if many {
        if parsed.is_empty() {
            parsed = Workload::ALL.to_vec();
        }
        let default_seconds = if trace_many { RUN_SECONDS / 4.0 } else { RUN_SECONDS };
        return Ok(Cmd::Many {
            workloads: parsed,
            seed: seed.unwrap_or(DEFAULT_SEED),
            runs: runs.unwrap_or(1).max(1),
            seconds: seconds.unwrap_or(default_seconds),
            trace: trace_many,
        });
    }
    match (parsed.as_slice(), seed, seconds, trace) {
        ([workload], Some(seed), Some(seconds), Some(trace)) => {
            Ok(Cmd::Once { workload: *workload, seed, seconds, trace })
        }
        _ => Err("one run needs --workload, --seed, --seconds and --trace".into()),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag} takes a number, not `{text}`"))
}

/// The result line: the last line one run prints.
fn result_json(o: &Outcome) -> String {
    let finite = o.metrics.iter().all(|m| m.value.is_finite());
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(metrics, "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        finite && o.checks.failed == 0,
        o.checks.attempted.max(1),
        o.checks.failed
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn once(w: Workload, seed: u64, seconds: f64, trace: bool) -> i32 {
    let out = Path::new(OUT_DIR);
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: {}: {e}", work.display());
        return 1;
    }
    let plan = Plan::standard(w, seconds);
    let result = if trace {
        traced::trace(w, seed, &plan, &work).and_then(|t| {
            write_file(
                &out.join(format!("trace-{}.json", w.name())),
                &spans::chrome_trace(&t.spans),
            )?;
            write_file(&out.join(format!("layers-{}.json", w.name())), &t.layers_json)?;
            Ok(t.outcome)
        })
    } else {
        workloads::measure(w, seed, &plan, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(o) => {
            for m in o.metrics.iter().chain(&o.notes) {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            println!("ops {} {}", o.checks.attempted, o.checks.failed);
            println!("{}", result_json(&o));
            i32::from(o.checks.failed > 0)
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            1
        }
    }
}

/// What the child runs of one workload reported.
#[derive(Debug, Default)]
struct Collected {
    values: BTreeMap<String, (String, Vec<f64>)>,
    order: Vec<String>,
    ops: u64,
    ops_failed: u64,
    errors: u64,
}

impl Collected {
    fn absorb(&mut self, stdout: &str) -> bool {
        let mut saw_result = false;
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", name, value, unit] => {
                    let Ok(v) = value.parse::<f64>() else { return false };
                    if !self.values.contains_key(*name) {
                        self.order.push((*name).to_string());
                    }
                    let e = self.values.entry((*name).to_string()).or_default();
                    e.0 = (*unit).to_string();
                    e.1.push(v);
                }
                ["ops", attempted, failed] => {
                    self.ops += attempted.parse::<u64>().unwrap_or(0);
                    self.ops_failed += failed.parse::<u64>().unwrap_or(0);
                    saw_result = true;
                }
                _ => {}
            }
        }
        saw_result
    }
}

fn host_line() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, cpu)
}

fn json_str(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The summary document `run` and `trace` write.
fn summary_json(
    results: &[(Workload, Collected)],
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
) -> String {
    let (nproc, cpu) = host_line();
    let mut out = format!(
        "{{\"host\":{{\"nproc\":{nproc},\"cpu\":\"{}\"}},\"seed\":{seed},\"runs\":{runs},\"seconds\":{seconds},\"trace\":{trace},\"workloads\":{{",
        json_str(&cpu)
    );
    for (i, (w, c)) in results.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"ops\":{},\"ops_failed\":{},\"failed_runs\":{},\"metrics\":{{",
            w.name(),
            c.ops,
            c.ops_failed,
            c.errors
        );
        for (j, name) in c.order.iter().enumerate() {
            let Some((unit, v)) = c.values.get(name) else { continue };
            let (q1, q3) = stats::quartiles(v);
            let (min, max) = stats::min_max(v);
            let med = stats::median(v);
            let iqr = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
            let values: Vec<String> = v.iter().map(f64::to_string).collect();
            let sep = if j > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"unit\":\"{unit}\",\"median\":{med},\"q1\":{q1},\"q3\":{q3},\"iqr_frac\":{iqr},\"min\":{min},\"max\":{max},\"values\":[{}]}}",
                values.join(",")
            );
        }
        out.push_str("}}");
    }
    out.push_str("}}\n");
    out
}

fn many(workloads: &[Workload], seed: u64, runs: u64, seconds: f64, trace: bool) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let (nproc, cpu) = host_line();
    eprintln!("host: nproc {nproc}, {cpu}");
    let mut results: Vec<(Workload, Collected)> =
        workloads.iter().map(|&w| (w, Collected::default())).collect();
    // Runs interleave the workloads, so slow drift of the host spreads
    // over all of them; run r uses seed + r.
    for r in 0..runs {
        for (w, c) in &mut results {
            let s = seed + r;
            eprintln!("{} run {}/{runs} (seed {s})", w.name(), r + 1);
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let ok = match out {
                Ok(o) => c.absorb(&String::from_utf8_lossy(&o.stdout)) && o.status.success(),
                Err(e) => {
                    eprintln!("benchmark: starting a run: {e}");
                    false
                }
            };
            c.errors += u64::from(!ok);
        }
    }
    for (w, c) in &results {
        println!("{} ops {}", w.name(), c.ops);
        println!("{} ops_failed {}", w.name(), c.ops_failed);
        for name in &c.order {
            let Some((unit, v)) = c.values.get(name) else { continue };
            let med = stats::median(v);
            if v.len() > 1 {
                let (q1, q3) = stats::quartiles(v);
                let (min, max) = stats::min_max(v);
                println!(
                    "{} {name} {med} {unit} q1 {q1} q3 {q3} iqr {:.2}% min {min} max {max}",
                    w.name(),
                    100.0 * (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
                );
            } else {
                println!("{} {name} {med} {unit}", w.name());
            }
        }
    }
    let out = Path::new(OUT_DIR);
    let mut written = std::fs::create_dir_all(out).map_err(|e| e.to_string()).and_then(|()| {
        let file = if trace { "benchmark-trace.json" } else { "benchmark.json" };
        write_file(&out.join(file), &summary_json(&results, seed, runs, seconds, trace))
    });
    if trace {
        written = written.and_then(|()| {
            let mut layers = String::from("{");
            for (i, w) in workloads.iter().enumerate() {
                let path = out.join(format!("layers-{}.json", w.name()));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(layers, "{sep}\"{}\":{}", w.name(), text.trim());
            }
            layers.push_str("}\n");
            write_file(&out.join("layers.json"), &layers)
        });
    }
    if let Err(e) = written {
        eprintln!("benchmark: {e}");
        return 1;
    }
    let bad = results.iter().any(|(_, c)| c.errors > 0 || c.ops_failed > 0);
    i32::from(bad)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Cmd::Once { workload, seed, seconds, trace }) => once(workload, seed, seconds, trace),
        Ok(Cmd::Many { workloads, seed, runs, seconds, trace }) => {
            many(&workloads, seed, runs, seconds, trace)
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Checks, Metric};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn one_run_needs_every_flag() {
        let cmd = parse_args(&args("--workload dpa_r1 --seed 3 --seconds 20 --trace 1"));
        assert_eq!(
            cmd,
            Ok(Cmd::Once { workload: Workload::DpaR1, seed: 3, seconds: 20.0, trace: true })
        );
        assert!(parse_args(&args("--workload dpa_r1 --seed 3 --seconds 20")).is_err());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&args("--workload dpa_r1 --seed 3 --seconds 20 --trace 2")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn run_and_trace_default_to_every_workload() {
        match parse_args(&args("run --runs 5")) {
            Ok(Cmd::Many { workloads, runs: 5, seconds, trace: false, .. }) => {
                assert_eq!(workloads, Workload::ALL.to_vec());
                assert_eq!(seconds, RUN_SECONDS);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("trace serve_mix --seed 9")) {
            Ok(Cmd::Many { workloads, seed: 9, trace: true, seconds, .. }) => {
                assert_eq!(workloads, vec![Workload::ServeMix]);
                assert_eq!(seconds, RUN_SECONDS / 4.0);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("run --trace 1")).is_err());
    }

    #[test]
    fn result_line_is_well_formed_json() {
        let o = Outcome {
            metrics: vec![
                Metric { name: "work_per_s", value: 312.5, unit: "1/s" },
                Metric { name: "setup_s", value: 0.0041, unit: "s" },
            ],
            notes: vec![Metric { name: "raw.setup_s", value: 0.0045, unit: "s" }],
            checks: Checks { attempted: 12, failed: 0 },
        };
        let line = result_json(&o);
        assert!(drive::json_is_valid(&line), "{line}");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":0,"));
        assert!(!line.contains("raw."), "notes stay out of the result line: {line}");
        let bad = Outcome {
            metrics: vec![Metric { name: "x", value: f64::NAN, unit: "s" }],
            notes: Vec::new(),
            checks: Checks::default(),
        };
        let line = result_json(&bad);
        assert!(drive::json_is_valid(&line), "{line}");
        assert!(line.contains("\"correct\":false") && line.contains("\"attempted\":1"));
    }

    #[test]
    fn summary_is_well_formed_json() {
        let mut c = Collected::default();
        assert!(c.absorb("metric work_per_s 300.5 1/s\nmetric setup_s 0.01 s\nops 10 0\n{}"));
        assert!(c.absorb("metric work_per_s 310 1/s\nmetric setup_s 0.02 s\nops 10 1\n"));
        assert_eq!((c.ops, c.ops_failed), (20, 1));
        let text = summary_json(&[(Workload::DpaR1, c)], 1, 2, 20.0, false);
        assert!(drive::json_is_valid(&text), "{text}");
        assert!(text.contains("\"median\":305.25"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let expect = |section: &str, list: &[(&str, &str)]| {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            for (name, unit) in list {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&needle), "{section} lacks {needle}");
            }
        };
        expect("end_to_end", &workloads::END_TO_END);
        expect("per_layer", &probes::PER_LAYER);
        assert!(text.contains(&format!("\"run_seconds\": {}", RUN_SECONDS as u64)));
        for w in Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
