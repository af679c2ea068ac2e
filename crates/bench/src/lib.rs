//! # emask-bench — the evaluation harness
//!
//! Code that regenerates every table and figure of the paper's evaluation
//! (§4.3). The library holds the experiment implementations; the `repro`
//! binary drives them (`cargo run --release -p emask-bench --bin repro --
//! all`). The repository benchmark (`benchmark/`) times them.
//!
//! Experiment ↔ paper mapping:
//!
//! | id | paper | function |
//! |----|-------|----------|
//! | `fig6` | energy trace of encryption, per-100-cycle buckets, 16 rounds visible | [`experiments::fig6_round_trace`] |
//! | `fig7`/`fig8` | differential trace, two keys, before masking | [`experiments::key_differential`] |
//! | `fig9` | differential trace, two keys, after masking (≈0) | [`experiments::key_differential`] |
//! | `fig10`/`fig11` | differential trace, two plaintexts, before/after | [`experiments::plaintext_differential`] |
//! | `fig12` | additional energy of masking during the 1st key permutation | [`experiments::masking_overhead_trace`] |
//! | table (totals) | 46.4 / 52.6 / 63.6 / 83.5 µJ | [`experiments::policy_totals`] |
//! | XOR unit | 0.3 pJ normal / 0.6 pJ secure | [`experiments::xor_unit`] |
//! | SPA/DPA | attacks defeated by masking | [`experiments::spa_rounds`], [`experiments::dpa_attack`] |
//! | ablations | pre-charge, gating, slicing | [`experiments::ablations`] |
//! | `fault` | robustness: fault campaign + dual-rail detection | [`checkpoint::run_campaign`] |
//!
//! Each experiment family is one function that takes its worker count
//! (`jobs`) and a cooperative [`CancelToken`](emask_par::CancelToken):
//! [`experiments::dpa_attack`], [`experiments::cpa_attack`],
//! [`experiments::tvla`] and [`checkpoint::run_campaign`]. They shard
//! trials across an `emask-par` worker pool, draw every random input
//! from `(seed, trial index)`, and return reports bit-identical for any
//! `--jobs` count. The campaigns with a live stream also take an
//! [`EventSink`](emask_telemetry::EventSink): replayable convergence
//! snapshots and outcomes (byte-identical at any `--jobs` count) plus
//! lossy operational heartbeats; with
//! [`NullSink`](emask_telemetry::NullSink) the emission sites compile
//! away. [`experiments::leakage_attribution`] is the per-instruction
//! study behind `leakage_profile.csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod campaign;
mod checkpoint;
mod events_tool;
pub mod experiments;
pub mod loadgen;
mod service;

pub use campaign::{
    run_campaign_from_reset, CampaignConfig, CampaignReport, CampaignTrial, FaultOutcome,
    RecoveryTotals, OUTCOME_COUNT,
};
pub use checkpoint::{
    run_campaign, run_campaign_resumable, run_campaign_resumable_events, CampaignCheckpoint,
    CampaignError,
};
pub use events_tool::{summarize_events, tail_events, trace_events, validate_events};
pub use experiments::{
    ablations, coupling_study, cpa_attack, dpa_attack, dpa_sample_sweep, energy_by_class,
    fig6_round_trace, key_differential, leakage_attribution, masking_overhead_trace,
    plaintext_differential, policy_totals, spa_rounds, tvla, xor_unit, AblationReport, ClassEnergy,
    CouplingReport, CpaOutcome, DpaOutcome, LeakageComparison, PolicyTotals, SweepPoint,
    TvlaReport, KEY, PLAINTEXT,
};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use service::BenchRunner;
