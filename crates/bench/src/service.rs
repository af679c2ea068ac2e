//! The bench-side [`ExperimentRunner`]: maps `emask-serve` job specs
//! onto the deterministic campaign drivers.
//!
//! This is the glue the `repro serve` subcommand installs. Every
//! experiment driver takes the job's token, so the service actually stops
//! work at trial boundaries; the fault campaign additionally checkpoints
//! to the job's private `.ckpt` path, which is what makes
//! shutdown→restart→resume byte-identical for long campaigns. Result
//! CSVs are pure functions of the spec — the supervision history
//! (cancelled, retried, resumed) never changes a byte of them.

use crate::campaign::CampaignConfig;
use crate::checkpoint::{run_campaign, CampaignError};
use crate::experiments::{self, TvlaReport, KEY, PLAINTEXT};
use emask_core::{DesProgramSpec, MaskPolicy, MaskedDes, RecoveryPolicy};
use emask_par::{shard_plan, Jobs};
use emask_serve::{ExperimentRunner, JobCtx, JobSpec, RunStatus};
use emask_telemetry::{EventSink as _, Span};

/// The production runner behind `repro serve`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchRunner;

/// The experiments the runner understands.
const EXPERIMENTS: [&str; 5] = ["dpa", "cpa", "tvla", "fault", "leakage"];

fn parse_policy(name: &str) -> Result<MaskPolicy, String> {
    Ok(match name {
        "none" => MaskPolicy::None,
        "selective" => MaskPolicy::Selective,
        "all-loads-stores" => MaskPolicy::AllLoadsStores,
        "all-instructions" => MaskPolicy::AllInstructions,
        other => {
            return Err(format!(
                "unknown policy '{other}' (none|selective|all-loads-stores|all-instructions)"
            ))
        }
    })
}

/// An upper bound on the cycles of one DES round window — the measured
/// windows are 19,380–19,401 cycles under every policy and round count.
/// Only used to size accumulators for admission control, so generous is
/// fine.
const ROUND_WINDOW_LEN: u64 = 20_480;

/// An upper bound on the cycles of the key-permutation window (measured
/// 2,339).
const KEY_PERM_WINDOW_LEN: u64 = 4_096;

/// Samples a TVLA trace holds: the key permutation plus `rounds` rounds.
fn tvla_window_len(rounds: usize) -> u64 {
    KEY_PERM_WINDOW_LEN + ROUND_WINDOW_LEN * rounds as u64
}

/// The rounds a TVLA or leakage job runs on: the device is capped at two,
/// whatever round count the job names. Admission sizes the job by the
/// same number.
fn studied_rounds(rounds: usize) -> usize {
    rounds.min(2)
}

fn compile(policy: MaskPolicy, rounds: usize) -> Result<MaskedDes, String> {
    MaskedDes::compile_spec(policy, &DesProgramSpec { rounds })
        .map_err(|e| format!("device compile failed: {e}"))
}

/// The tvla result CSV: one header and one row, the verdict last.
fn tvla_csv(report: &TvlaReport) -> String {
    format!(
        "group_size,max_t,at_cycle,leaky_cycles,leaking\n{},{},{},{},{}\n",
        report.group_size,
        report.max_t,
        report.at_cycle,
        report.leaky_cycles,
        report.leaks(),
    )
}

/// The attack-result CSV shared by dpa and cpa: one row per subkey
/// guess, then the verdict block. Pure function of the result.
fn guesses_csv(
    metric: &str,
    peaks: &[f64; 64],
    peak_cycles: &[usize; 64],
    best_guess: u8,
    margin: f64,
    true_subkey: u8,
    recovered: bool,
) -> String {
    let mut csv = format!("guess,{metric},peak_cycle\n");
    for g in 0..64 {
        csv.push_str(&format!("{g},{},{}\n", peaks[g], peak_cycles[g]));
    }
    csv.push_str(&format!(
        "# best_guess,{best_guess}\n# margin,{margin}\n# true_subkey,{true_subkey}\n# recovered,{recovered}\n"
    ));
    csv
}

impl ExperimentRunner for BenchRunner {
    fn admit(&self, spec: &JobSpec) -> Result<u64, String> {
        if !EXPERIMENTS.contains(&spec.experiment.as_str()) {
            return Err(format!(
                "unknown experiment '{}' ({})",
                spec.experiment,
                EXPERIMENTS.join("|")
            ));
        }
        parse_policy(&spec.policy)?;
        if !(1..=16).contains(&spec.rounds) {
            return Err("rounds must be in 1..=16".into());
        }
        if spec.trials == 0 {
            return Err("trials must be positive".into());
        }
        if spec.experiment == "cpa" && spec.trials < 2 {
            return Err("cpa needs at least 2 trials: correlation is undefined on one trace".into());
        }
        if spec.sbox >= 8 {
            return Err("sbox must be in 0..=7".into());
        }
        // Peak accumulator footprint per experiment: the sample vectors
        // of one accumulator, times the accumulators a sharded fold
        // holds at once (one per worker plus the merged prefix). The
        // attacks accumulate only the round-1 window at any round count.
        // For DPA this is an upper bound: a shard of at most 16 traces
        // keeps them raw and its merge folds them into the prefix, so
        // only the prefix allocates sums; a longer shard allocates its
        // own.
        let vectors = |count: u64, window: u64| {
            let accumulators = spec.jobs.min(shard_plan(spec.trials).len()) as u64 + 1;
            count * window * std::mem::size_of::<f64>() as u64 * accumulators
        };
        Ok(match spec.experiment.as_str() {
            // `OnlineDpa::multibit`: 4 bits × 64 guesses of group-1 sums
            // plus the all-trace total.
            "dpa" => vectors(4 * 64 + 1, ROUND_WINDOW_LEN),
            // `OnlineCpa`: Σt and Σt² plus Σh·t for each of 64 guesses.
            "cpa" => vectors(2 + 64, ROUND_WINDOW_LEN),
            // `OnlineWelch`: two Welford groups × (mean, m2).
            "tvla" => vectors(2 * 2, tvla_window_len(studied_rounds(spec.rounds))),
            // One outcome record per trial plus the recovery journal.
            "fault" => spec.trials as u64 * 128,
            // Per-instruction profile, bounded by program length.
            "leakage" => 1024 * 64,
            _ => unreachable!("filtered above"),
        })
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
        let status = run_experiment(spec, ctx);
        // A completed sharded campaign gets its shard ladder appended to
        // the replayable stream: one span per entry of the deterministic
        // shard plan, hung below the supervisor's attempt span. Emitted
        // here — after the merge, in shard order — rather than live from
        // workers, so the stream stays byte-identical at any worker
        // count; `items` is the shard's trial count. (`leakage` has no
        // trial sharding, so it gets no ladder.)
        if matches!(status, RunStatus::Done { .. }) && spec.experiment != "leakage" {
            for (index, range) in shard_plan(spec.trials) {
                let shard = Span::below(ctx.span, "shard", index as u64);
                shard.open_on(ctx.sink);
                shard.close_on(ctx.sink, range.len() as u64);
            }
        }
        status
    }
}

fn run_experiment(spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
    {
        let policy = match parse_policy(&spec.policy) {
            Ok(p) => p,
            Err(reason) => return RunStatus::Failed { reason, transient: false },
        };
        // The spec's worker count is an upper bound; the scheduler's
        // lease (ctx.workers) is the actual grant. Results are
        // byte-identical at any worker count, so the clamp is free.
        let jobs = Jobs::new(spec.jobs.clamp(1, ctx.workers.max(1))).unwrap_or_else(Jobs::serial);
        match spec.experiment.as_str() {
            "fault" => {
                let des = match compile(policy, spec.rounds) {
                    Ok(d) => d,
                    Err(reason) => return RunStatus::Failed { reason, transient: false },
                };
                let cfg = CampaignConfig {
                    trials: spec.trials,
                    plaintext: PLAINTEXT,
                    key: KEY,
                    recovery: spec.recover.then(RecoveryPolicy::default),
                    ..CampaignConfig::default()
                };
                match run_campaign(&des, &cfg, jobs, ctx.token, Some(ctx.checkpoint), ctx.sink) {
                    Ok(report) => RunStatus::Done { csv: report.csv() },
                    Err(CampaignError::Interrupted(i)) => RunStatus::Interrupted(i),
                    // A torn/corrupt checkpoint heals on retry (the
                    // campaign restarts from scratch deterministically);
                    // IO errors are worth another attempt too.
                    Err(e @ CampaignError::Io { .. }) => {
                        RunStatus::Failed { reason: e.to_string(), transient: true }
                    }
                    Err(e) => RunStatus::Failed { reason: e.to_string(), transient: false },
                }
            }
            "dpa" => {
                match experiments::dpa_attack(
                    policy,
                    spec.rounds,
                    spec.trials,
                    spec.sbox,
                    jobs,
                    ctx.token,
                    spec.cadence,
                    ctx.sink,
                ) {
                    Ok(outcome) => RunStatus::Done {
                        csv: guesses_csv(
                            "peak_pj",
                            &outcome.result.peaks,
                            &outcome.result.peak_cycles,
                            outcome.result.best_guess,
                            outcome.result.margin,
                            outcome.true_subkey,
                            outcome.recovered,
                        ),
                    },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "cpa" => {
                match experiments::cpa_attack(
                    policy,
                    spec.rounds,
                    spec.trials,
                    spec.sbox,
                    jobs,
                    ctx.token,
                ) {
                    Ok(outcome) => RunStatus::Done {
                        csv: guesses_csv(
                            "peak_r",
                            &outcome.result.peaks,
                            &outcome.result.peak_cycles,
                            outcome.result.best_guess,
                            outcome.result.margin,
                            outcome.true_subkey,
                            outcome.recovered,
                        ),
                    },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "tvla" => {
                let rounds = studied_rounds(spec.rounds);
                match experiments::tvla(
                    policy,
                    rounds,
                    spec.trials,
                    spec.seed,
                    jobs,
                    ctx.token,
                    spec.cadence,
                    ctx.sink,
                ) {
                    Ok(report) => RunStatus::Done { csv: tvla_csv(&report) },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "leakage" => {
                // Attribution is short and has no trial loop; honor the
                // token at its one boundary (before the work).
                if let Err(reason) = ctx.token.check() {
                    return RunStatus::Interrupted(emask_par::Interrupted {
                        reason,
                        completed_trials: 0,
                    });
                }
                let rounds = studied_rounds(spec.rounds);
                let traces = spec.trials.clamp(6, 48);
                let cmp = experiments::leakage_attribution(rounds, traces, spec.seed);
                ctx.sink.emit(emask_telemetry::Event::CampaignCompleted {
                    trials: traces as u64,
                    dropped_events: ctx.sink.dropped(),
                    dropped_by_kind: ctx.sink.dropped_by_kind(),
                });
                RunStatus::Done { csv: cmp.csv }
            }
            other => RunStatus::Failed {
                reason: format!("unknown experiment '{other}'"),
                transient: false,
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_par::CancelToken;
    use emask_serve::JobSink;
    use emask_telemetry::NullSink;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emask-bench-service-{}-{name}", std::process::id()))
    }

    fn run(spec: &JobSpec, tag: &str) -> RunStatus {
        let events = tmp(&format!("{tag}.events"));
        let ckpt = tmp(&format!("{tag}.ckpt"));
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&ckpt);
        let sink = JobSink::open(&events).unwrap();
        let token = CancelToken::new();
        let status = BenchRunner.run(
            spec,
            &JobCtx {
                token: &token,
                sink: &sink,
                checkpoint: &ckpt,
                span: emask_telemetry::SpanId::ROOT,
                workers: 1,
            },
        );
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&ckpt);
        status
    }

    #[test]
    fn admission_estimates_and_rejections() {
        let r = BenchRunner;
        assert!(r.admit(&JobSpec { experiment: "nope".into(), ..JobSpec::default() }).is_err());
        assert!(r
            .admit(&JobSpec {
                experiment: "dpa".into(),
                policy: "bogus".into(),
                ..JobSpec::default()
            })
            .is_err());
        assert!(r
            .admit(&JobSpec { experiment: "dpa".into(), sbox: 8, ..JobSpec::default() })
            .is_err());
        let small = r
            .admit(&JobSpec { experiment: "tvla".into(), rounds: 1, ..JobSpec::default() })
            .unwrap();
        let big = r
            .admit(&JobSpec { experiment: "dpa".into(), rounds: 16, jobs: 8, ..JobSpec::default() })
            .unwrap();
        assert!(big > small, "dpa at 16 rounds x 8 workers dwarfs a 1-round tvla");
    }

    #[test]
    fn dpa_admission_at_one_worker_covers_two_real_accumulators() {
        // A one-worker fold holds its shard's accumulator and the merged
        // prefix: two `OnlineDpa::multibit`s, each 4 × 64 group-1 sum
        // vectors plus the total over the measured round-1 window.
        for rounds in [1usize, 16] {
            let run =
                compile(MaskPolicy::Selective, rounds).unwrap().encrypt(PLAINTEXT, KEY).unwrap();
            let window = run.phase_window(emask_core::Phase::Round(1)).unwrap().len() as u64;
            let accumulator = (4 * 64 + 1) * window * std::mem::size_of::<f64>() as u64;
            let spec = JobSpec {
                experiment: "dpa".into(),
                rounds,
                trials: 64,
                jobs: 1,
                ..JobSpec::default()
            };
            let estimate = BenchRunner.admit(&spec).unwrap();
            assert!(estimate >= 2 * accumulator, "{rounds} rounds: {estimate} < 2 × {accumulator}");
        }
    }

    #[test]
    fn the_chaos_soak_mix_fits_the_default_memory_budget() {
        // `repro loadgen --seed 11` is the CI chaos soak's traffic, and the
        // benchmark's `serve_mix` replays it: every job of it (worker
        // requests 1–4) must be admitted under the supervisor's default
        // budget.
        let budget = emask_serve::ServerConfig::new(PathBuf::new()).memory_budget;
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..256 {
            let spec = crate::loadgen::workload_spec(11, k);
            seen.insert((spec.experiment.clone(), spec.jobs));
            let estimate = BenchRunner.admit(&spec).unwrap();
            assert!(estimate <= budget, "job {k} ({spec:?}): {estimate} > {budget}");
        }
        for experiment in ["dpa", "tvla", "fault"] {
            for jobs in 1..=4 {
                assert!(seen.contains(&(experiment.to_string(), jobs)), "{experiment} at {jobs}");
            }
        }
    }

    #[test]
    fn admission_windows_cover_the_measured_windows() {
        use emask_core::Phase;
        for rounds in [1usize, 2, 16] {
            let run =
                compile(MaskPolicy::Selective, rounds).unwrap().encrypt(PLAINTEXT, KEY).unwrap();
            let window = |p| run.phase_window(p).unwrap();
            let kp = window(Phase::KeyPermutation);
            let round1 = window(Phase::Round(1));
            let last = window(Phase::Round(rounds as u8));
            assert!(ROUND_WINDOW_LEN >= round1.len() as u64, "{rounds} rounds: {round1:?}");
            assert!(tvla_window_len(rounds) >= (last.end - kp.start) as u64, "{rounds} rounds");
        }
    }

    #[test]
    fn tvla_admission_sizes_the_rounds_the_job_runs() {
        let tvla = |rounds| JobSpec { experiment: "tvla".into(), rounds, ..JobSpec::default() };
        let two = BenchRunner.admit(&tvla(2)).unwrap();
        assert_eq!(BenchRunner.admit(&tvla(16)).unwrap(), two);
        assert!(BenchRunner.admit(&tvla(1)).unwrap() < two);
    }

    #[test]
    fn one_trial_cpa_is_rejected_at_admission() {
        let one = JobSpec { experiment: "cpa".into(), trials: 1, ..JobSpec::default() };
        let err = BenchRunner.admit(&one).expect_err("one trace has no correlation");
        assert!(err.contains("at least 2 trials"), "{err}");
        let two = JobSpec { trials: 2, ..one };
        assert!(BenchRunner.admit(&two).is_ok());
    }

    #[test]
    fn tvla_leaking_column_agrees_with_the_report_at_the_threshold() {
        let at = TvlaReport { max_t: 4.5, at_cycle: 3, leaky_cycles: 1, group_size: 8 };
        assert!(tvla_csv(&at).ends_with(",true\n"), "{}", tvla_csv(&at));
        assert!(at.to_string().ends_with("LEAKS"));
        let below = TvlaReport { max_t: 4.0, ..at };
        assert!(tvla_csv(&below).ends_with(",false\n"), "{}", tvla_csv(&below));
    }

    #[test]
    fn fault_job_csv_matches_the_direct_campaign() {
        let spec = JobSpec {
            experiment: "fault".into(),
            trials: 64,
            rounds: 1,
            recover: true,
            ..JobSpec::default()
        };
        let RunStatus::Done { csv } = run(&spec, "fault") else {
            panic!("fault job should complete")
        };
        // The same campaign, driven directly.
        let des = compile(MaskPolicy::Selective, 1).unwrap();
        let cfg = CampaignConfig {
            trials: 64,
            plaintext: PLAINTEXT,
            key: KEY,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let report =
            run_campaign(&des, &cfg, Jobs::serial(), &CancelToken::new(), None, &NullSink).unwrap();
        assert_eq!(csv, report.csv(), "service supervision must not change a byte");
    }

    #[test]
    fn tvla_job_reports_the_unmasked_leak() {
        let spec = JobSpec {
            experiment: "tvla".into(),
            trials: 8,
            rounds: 1,
            policy: "none".into(),
            seed: 11,
            ..JobSpec::default()
        };
        let RunStatus::Done { csv } = run(&spec, "tvla") else {
            panic!("tvla job should complete")
        };
        assert!(csv.starts_with("group_size,max_t,"), "got: {csv}");
        assert!(csv.lines().count() == 2, "one header + one row: {csv}");
    }

    #[test]
    fn pre_cancelled_job_interrupts_without_output() {
        let events = tmp("cancelled.events");
        let ckpt = tmp("cancelled.ckpt");
        let _ = std::fs::remove_file(&events);
        let sink = JobSink::open(&events).unwrap();
        let token = CancelToken::new();
        token.cancel(emask_par::CancelReason::Cancelled);
        let spec =
            JobSpec { experiment: "dpa".into(), trials: 64, rounds: 1, ..JobSpec::default() };
        let status = BenchRunner.run(
            &spec,
            &JobCtx {
                token: &token,
                sink: &sink,
                checkpoint: &ckpt,
                span: emask_telemetry::SpanId::ROOT,
                workers: 1,
            },
        );
        assert!(matches!(status, RunStatus::Interrupted(i) if i.completed_trials == 0));
        let _ = std::fs::remove_file(&events);
    }
}
