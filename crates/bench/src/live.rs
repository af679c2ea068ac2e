//! Live-observability experiment drivers: the DPA/TVLA campaigns
//! instrumented with periodic convergence snapshots, plus the
//! per-instruction leakage attribution study.
//!
//! These are the event-emitting analogues of the batch experiments in
//! [`experiments`](crate::experiments): same compiled device, same
//! per-trial seeding, same verdicts — with an [`EventSink`] threaded
//! through so a live consumer can watch the attack converge while it
//! runs. All replayable events are emitted from deterministic points
//! (the pre-run header, the serialized snapshot ladder inside
//! [`run_sharded_snapshotted_cancellable`], the post-run trailer), so the
//! replayable stream is **byte-identical at any `--jobs` count**; only the
//! operational [`Event::TrialCompleted`] heartbeats interleave freely.
//! Pass [`NullSink`](emask_telemetry::NullSink) and every emission site
//! compiles away — the drivers then cost exactly what their batch
//! counterparts do.

use crate::experiments::{compile, DpaOutcome, TvlaReport, KEY, PLAINTEXT};
use emask_attack::dpa::{
    plaintext_for, recover_subkey_multibit_par_snapshotted_cancellable, DpaConfig,
};
use emask_attack::online::OnlineWelch;
use emask_attack::progress::guess_ranks;
use emask_core::{MaskPolicy, Phase};
use emask_des::KeySchedule;
use emask_energy::{LeakageProfile, LeakageProfiler};
use emask_par::{run_sharded_snapshotted_cancellable, trial_seed, CancelToken, Interrupted, Jobs};
use emask_telemetry::{Event, EventSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// [`dpa_attack_par`](crate::experiments::dpa_attack_par) with a live
/// convergence stream: every `cadence` traces (plus once at the end) the
/// serialized snapshot ladder emits an [`Event::DpaConvergence`] carrying
/// the current best guess, its peak, the best/runner-up margin, and the
/// full 64-guess key-rank vector. `cadence == 0` emits the final
/// snapshot only. The verdict is identical to `dpa_attack_par` for any
/// `jobs` and `cadence` value.
pub fn dpa_attack_convergence<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
    cadence: usize,
    sink: &S,
) -> DpaOutcome {
    match dpa_attack_convergence_cancellable(
        policy,
        rounds,
        samples,
        sbox,
        jobs,
        cadence,
        &CancelToken::new(),
        sink,
    ) {
        Ok(outcome) => outcome,
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// [`dpa_attack_convergence`] under a cooperative [`CancelToken`]: the
/// token is checked at every trial boundary, so a trip (client cancel,
/// deadline, shutdown) stops the attack cleanly with a typed
/// [`Interrupted`]. The replayable events emitted before the trip are a
/// byte-identical prefix of the uninterrupted stream; no
/// [`Event::CampaignCompleted`] trailer is emitted for an interrupted
/// run — the supervisor's job-lifecycle events record the outcome
/// instead. A rerun recomputes the same verdict from the same seeds, so
/// retry-from-zero still satisfies the byte-identity contract.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trace has
/// been folded.
#[allow(clippy::too_many_arguments)]
pub fn dpa_attack_convergence_cancellable<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
    cadence: usize,
    token: &CancelToken,
    sink: &S,
) -> Result<DpaOutcome, Interrupted> {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = des.trace_oracle(KEY, window);
    let cfg = DpaConfig { samples, sbox, bit: 0, seed: 0xE5CA_1ADE };
    if S::ACTIVE {
        sink.emit(Event::CampaignStarted {
            experiment: "dpa".into(),
            trials: samples as u64,
            seed: cfg.seed,
            cadence: cadence as u64,
        });
    }
    let result = recover_subkey_multibit_par_snapshotted_cancellable(
        &oracle,
        &cfg,
        jobs,
        cadence,
        token,
        |trials, r| {
            if S::ACTIVE {
                sink.emit(Event::DpaConvergence {
                    trials: trials as u64,
                    best_guess: r.best_guess,
                    best_peak: r.peaks[r.best_guess as usize],
                    margin: r.margin,
                    peak_cycle: r.peak_cycles[r.best_guess as usize] as u64,
                    ranks: guess_ranks(&r.peaks).to_vec(),
                });
            }
        },
        |i| {
            if S::ACTIVE {
                sink.emit(Event::TrialCompleted { trial: i as u64 });
            }
        },
    )?;
    if S::ACTIVE {
        sink.emit(Event::CampaignCompleted {
            trials: samples as u64,
            dropped_events: sink.dropped(),
            dropped_by_kind: sink.dropped_by_kind(),
        });
    }
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.5;
    Ok(DpaOutcome { true_subkey, result, recovered })
}

/// Max |t|, its sample offset, and the count of samples over the 4.5
/// TVLA threshold — the three numbers every snapshot and the final
/// report share.
fn welch_stats(acc: &OnlineWelch) -> (f64, usize, usize) {
    let t = acc.welch_t();
    let (at_cycle, max_t) =
        t.iter().enumerate().fold(
            (0, 0.0f64),
            |best, (i, &v)| {
                if v.abs() > best.1 {
                    (i, v.abs())
                } else {
                    best
                }
            },
        );
    let leaky_cycles = t.iter().filter(|v| v.abs() >= 4.5).count();
    (max_t, at_cycle, leaky_cycles)
}

/// [`tvla_par`](crate::experiments::tvla_par) with a live convergence
/// stream: every `cadence` trace pairs the snapshot ladder recomputes
/// Welch's *t* from the merged accumulators and emits an
/// [`Event::TvlaConvergence`] — the traces-to-detection curve. The final
/// report is bit-identical to `tvla_par` for any `jobs` and `cadence`.
pub fn tvla_convergence<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    group_size: usize,
    seed: u64,
    jobs: Jobs,
    cadence: usize,
    sink: &S,
) -> TvlaReport {
    match tvla_convergence_cancellable(
        policy,
        rounds,
        group_size,
        seed,
        jobs,
        cadence,
        &CancelToken::new(),
        sink,
    ) {
        Ok(report) => report,
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// [`tvla_convergence`] under a cooperative [`CancelToken`] — the same
/// trial-boundary cancellation contract as
/// [`dpa_attack_convergence_cancellable`].
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trace pair
/// has been folded.
#[allow(clippy::too_many_arguments)]
pub fn tvla_convergence_cancellable<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    group_size: usize,
    seed: u64,
    jobs: Jobs,
    cadence: usize,
    token: &CancelToken,
    sink: &S,
) -> Result<TvlaReport, Interrupted> {
    let des = compile(policy, rounds);
    let probe = des.encrypt(PLAINTEXT, KEY).expect("probe");
    let start = probe.phase_window(Phase::KeyPermutation).expect("kp").start;
    let end = probe.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
    if S::ACTIVE {
        sink.emit(Event::CampaignStarted {
            experiment: "tvla".into(),
            trials: group_size as u64,
            seed,
            cadence: cadence as u64,
        });
    }
    let acc = run_sharded_snapshotted_cancellable(
        jobs,
        group_size,
        cadence,
        token,
        |_| OnlineWelch::new(),
        |acc: &mut OnlineWelch, trials| {
            for (done, i) in trials.enumerate() {
                token.check().map_err(|_| done)?;
                let f = des.encrypt(PLAINTEXT, KEY).expect("fixed run");
                acc.g0.push(f.trace.window(start..end).samples()).expect("aligned traces");
                let k: u64 = StdRng::seed_from_u64(trial_seed(seed, i as u64)).gen();
                let r = des.encrypt(PLAINTEXT, k).expect("random run");
                acc.g1.push(r.trace.window(start..end).samples()).expect("aligned traces");
                if S::ACTIVE {
                    sink.emit(Event::TrialCompleted { trial: i as u64 });
                }
            }
            Ok(())
        },
        |a, b| a.merge(b).expect("aligned shards"),
        |trials, acc| {
            if S::ACTIVE {
                let (max_t, at_cycle, leaky_cycles) = welch_stats(acc);
                sink.emit(Event::TvlaConvergence {
                    trials: trials as u64,
                    max_t,
                    at_cycle: at_cycle as u64,
                    leaky_cycles: leaky_cycles as u64,
                });
            }
        },
    )?
    .unwrap_or_default();
    if S::ACTIVE {
        sink.emit(Event::CampaignCompleted {
            trials: group_size as u64,
            dropped_events: sink.dropped(),
            dropped_by_kind: sink.dropped_by_kind(),
        });
    }
    let (max_t, at_cycle, leaky_cycles) = welch_stats(&acc);
    Ok(TvlaReport { max_t, at_cycle, leaky_cycles, group_size })
}

/// The per-instruction leakage attribution study: unmasked vs
/// selectively masked profiles over the same plaintext stream, plus the
/// combined `leakage_profile.csv` document.
#[derive(Debug, Clone)]
pub struct LeakageComparison {
    /// Profile of the unmasked device.
    pub unmasked: LeakageProfile,
    /// Profile of the selectively masked device.
    pub selective: LeakageProfile,
    /// The combined CSV (header + one rank-ordered block per policy).
    pub csv: String,
}

impl LeakageComparison {
    /// How much of the program-level data-dependent variance selective
    /// masking removed, in percent — the attribution-level restatement of
    /// the paper's claim that masking the key-dependent instructions
    /// silences the DPA channel.
    #[must_use]
    pub fn variance_reduction_percent(&self) -> f64 {
        let u = self.unmasked.total_variance();
        if u == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.selective.total_variance() / u)
        }
    }
}

impl fmt::Display for LeakageComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "leakage attribution over {} traces ({} unmasked / {} selective PCs):",
            self.unmasked.traces,
            self.unmasked.rows.len(),
            self.selective.rows.len()
        )?;
        writeln!(f, "  unmasked  total variance: {:>12.3} pJ²", self.unmasked.total_variance())?;
        writeln!(f, "  selective total variance: {:>12.3} pJ²", self.selective.total_variance())?;
        writeln!(f, "  variance reduction      : {:>11.2} %", self.variance_reduction_percent())?;
        write!(f, "top unmasked leakers (pc, phase, variance pJ²):")?;
        for row in self.unmasked.rows.iter().take(5) {
            write!(f, "\n  pc {:>4}  {:<16} {:>12.3}", row.pc, row.phase, row.variance_pj)?;
        }
        Ok(())
    }
}

/// Runs the attribution study: `traces` observed encryptions per policy
/// with plaintexts from the shared `(seed, index)` stream, profiled by a
/// [`LeakageProfiler`] riding the `RunObserver` hooks. The two programs
/// are instruction-identical apart from secure bits, so their per-PC
/// rows compare directly — the CSV concatenates both rankings under one
/// header.
pub fn leakage_attribution(rounds: usize, traces: usize, seed: u64) -> LeakageComparison {
    let mut csv = String::from(LeakageProfile::CSV_HEADER);
    csv.push('\n');
    let run = |policy: MaskPolicy, name: &str, csv: &mut String| -> LeakageProfile {
        let des = compile(policy, rounds);
        let mut prof = LeakageProfiler::new();
        for i in 0..traces {
            des.encrypt_observed(plaintext_for(seed, i as u64), KEY, &mut prof)
                .expect("observed run");
        }
        let profile = prof.profile();
        csv.push_str(&profile.csv_rows(name, &des.program().text));
        profile
    };
    let unmasked = run(MaskPolicy::None, "none", &mut csv);
    let selective = run(MaskPolicy::Selective, "selective", &mut csv);
    LeakageComparison { unmasked, selective, csv }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::{dpa_attack_par, tvla_par};
    use emask_telemetry::NullSink;
    use std::sync::Mutex;

    /// A sink that records everything, in order.
    struct Collect(Mutex<Vec<Event>>);

    impl Collect {
        fn new() -> Self {
            Collect(Mutex::new(Vec::new()))
        }

        fn replayable_jsonl(&self) -> String {
            self.0
                .lock()
                .expect("collect sink")
                .iter()
                .filter(|e| e.is_replayable())
                .map(|e| e.to_json() + "\n")
                .collect()
        }
    }

    impl EventSink for Collect {
        fn emit(&self, event: Event) {
            self.0.lock().expect("collect sink").push(event);
        }
    }

    #[test]
    fn dpa_convergence_matches_batch_verdict_and_streams_snapshots() {
        let sink = Collect::new();
        let live =
            dpa_attack_convergence(MaskPolicy::None, 1, 96, 0, Jobs::new(4).unwrap(), 32, &sink);
        let batch = dpa_attack_par(MaskPolicy::None, 1, 96, 0, Jobs::serial());
        assert_eq!(live.result, batch.result, "snapshot ladder must not change the verdict");
        assert!(live.recovered, "{live}");

        let events = sink.0.lock().expect("collect sink");
        let snaps: Vec<(u64, u8)> = events
            .iter()
            .filter_map(|e| match e {
                Event::DpaConvergence { trials, best_guess, ranks, .. } => {
                    assert_eq!(ranks.len(), 64);
                    assert_eq!(ranks[*best_guess as usize], 0, "leader has rank 0");
                    Some((*trials, *best_guess))
                }
                _ => None,
            })
            .collect();
        // Cadence 32 over 96 traces: snapshots at 32, 64, 96.
        assert_eq!(snaps.iter().map(|s| s.0).collect::<Vec<_>>(), vec![32, 64, 96]);
        assert_eq!(snaps.last().unwrap().1, live.result.best_guess);
        assert!(matches!(events.first(), Some(Event::CampaignStarted { .. })));
        assert!(matches!(events.last(), Some(Event::CampaignCompleted { .. })));
    }

    #[test]
    fn dpa_replayable_stream_is_byte_identical_across_jobs() {
        let streams: Vec<String> = [1, 4, 7]
            .into_iter()
            .map(|j| {
                let sink = Collect::new();
                dpa_attack_convergence(
                    MaskPolicy::None,
                    1,
                    64,
                    0,
                    Jobs::new(j).unwrap(),
                    16,
                    &sink,
                );
                sink.replayable_jsonl()
            })
            .collect();
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
        assert!(streams[0].lines().count() >= 2 + 4, "header, 4 snapshots, trailer");
    }

    #[test]
    fn tvla_convergence_matches_batch_report() {
        let sink = Collect::new();
        let live = tvla_convergence(MaskPolicy::None, 1, 8, 5, Jobs::new(4).unwrap(), 4, &sink);
        let batch = tvla_par(MaskPolicy::None, 1, 8, 5, Jobs::serial());
        assert_eq!(live.max_t.to_bits(), batch.max_t.to_bits(), "bit-identical t");
        assert_eq!(live.at_cycle, batch.at_cycle);
        assert_eq!(live.leaky_cycles, batch.leaky_cycles);
        assert!(live.max_t >= 4.5, "{live}");

        let events = sink.0.lock().expect("collect sink");
        let snap_trials: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::TvlaConvergence { trials, .. } => Some(*trials),
                _ => None,
            })
            .collect();
        assert_eq!(snap_trials, vec![4, 8]);
    }

    #[test]
    fn cancelled_dpa_convergence_streams_a_replayable_prefix() {
        // Reference: the full uninterrupted replayable stream.
        let full_sink = Collect::new();
        dpa_attack_convergence(MaskPolicy::None, 1, 96, 0, Jobs::serial(), 32, &full_sink);
        let full = full_sink.replayable_jsonl();

        // Cancel from inside the snapshot ladder after the first snapshot.
        let token = CancelToken::new();
        let sink = Collect::new();
        struct CancelOnSnapshot<'a> {
            inner: &'a Collect,
            token: &'a CancelToken,
        }
        impl EventSink for CancelOnSnapshot<'_> {
            fn emit(&self, event: Event) {
                let snap = matches!(event, Event::DpaConvergence { .. });
                self.inner.emit(event);
                if snap {
                    self.token.cancel(emask_par::CancelReason::Cancelled);
                }
            }
        }
        let err = dpa_attack_convergence_cancellable(
            MaskPolicy::None,
            1,
            96,
            0,
            Jobs::serial(),
            32,
            &token,
            &CancelOnSnapshot { inner: &sink, token: &token },
        )
        .expect_err("tripped token must interrupt");
        assert_eq!(err.reason, emask_par::CancelReason::Cancelled);

        let prefix = sink.replayable_jsonl();
        assert!(!prefix.is_empty());
        assert!(
            full.starts_with(&prefix),
            "interrupted replayable stream must be a byte-identical prefix"
        );
        assert!(!prefix.contains("campaign_completed"), "no trailer on an interrupted run");
    }

    #[test]
    fn uncancelled_tvla_cancellable_matches_plain() {
        let plain =
            tvla_convergence(MaskPolicy::None, 1, 8, 5, Jobs::new(4).unwrap(), 4, &NullSink);
        let token = CancelToken::new();
        let live = tvla_convergence_cancellable(
            MaskPolicy::None,
            1,
            8,
            5,
            Jobs::new(4).unwrap(),
            4,
            &token,
            &NullSink,
        )
        .expect("untripped token never interrupts");
        assert_eq!(live.max_t.to_bits(), plain.max_t.to_bits());
        assert_eq!(live.at_cycle, plain.at_cycle);
        assert_eq!(live.leaky_cycles, plain.leaky_cycles);
    }

    #[test]
    fn null_sink_drivers_agree_with_batch() {
        let live = tvla_convergence(MaskPolicy::Selective, 1, 6, 5, Jobs::serial(), 0, &NullSink);
        let batch = tvla_par(MaskPolicy::Selective, 1, 6, 5, Jobs::serial());
        assert_eq!(live.max_t.to_bits(), batch.max_t.to_bits());
        assert_eq!(live.leaky_cycles, 0, "{live}");
    }

    #[test]
    fn leakage_attribution_tells_the_masking_story() {
        let cmp = leakage_attribution(1, 6, 0xACC0);
        // The unmasked device's top instructions carry real variance; the
        // selectively masked device silences (nearly all of) it.
        assert!(cmp.unmasked.total_variance() > 1.0, "{cmp}");
        assert!(
            cmp.variance_reduction_percent() > 90.0,
            "selective masking must remove the bulk of the variance: {cmp}"
        );
        assert_eq!(cmp.unmasked.traces, 6);
        // CSV: one header + one block per policy, labelled.
        let mut lines = cmp.csv.lines();
        assert_eq!(lines.next(), Some(LeakageProfile::CSV_HEADER));
        assert!(cmp.csv.contains(",none,"));
        assert!(cmp.csv.contains(",selective,"));
        let s = cmp.to_string();
        assert!(s.contains("variance reduction"));
    }
}
