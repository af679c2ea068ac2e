//! Fault-injection campaigns: sweep faults across cycles × bit positions
//! × locations, classify every outcome, and export the results.
//!
//! A campaign takes a compiled [`MaskedDes`] and runs it once cleanly
//! (baseline cycle count, golden-model check), then once per trial with a
//! single planned fault installed through
//! [`MaskedDes::encrypt_hooked`] as a `(FaultInjector, DualRailChecker)`
//! hook pair. Each trial is classified into exactly one
//! [`FaultOutcome`]:
//!
//! * **no-effect** — the run completed and the ciphertext matched the
//!   reference DES (the runner validates every accepted run against the
//!   golden model, so `Ok` can never hide silent corruption);
//! * **detected** — the dual-rail checker caught an ill-formed secure
//!   sample ([`CpuErrorKind::DualRailViolation`]) and the run aborted
//!   (recovery disabled);
//! * **recovered** — a fault was detected, the core rolled back to its
//!   last checkpoint, and the re-execution completed with the *correct*
//!   ciphertext (recovery enabled, [`CampaignConfig::recovery`]);
//! * **zeroized** — detections exhausted the rollback budget and the
//!   runner destroyed the key material before aborting
//!   ([`RunError::Zeroized`]);
//! * **wrong-ciphertext** — the run completed but the result disagreed
//!   with the reference DES (or broke the bit-per-word output contract);
//! * **crash** — the core faulted (memory fault, divide by zero, runaway
//!   PC) or the harness could not set the image up;
//! * **hang** — the cycle budget (2× the clean run) expired, i.e. the
//!   fault sent the program into an endless loop;
//! * **panic** — the trial's worker panicked; the panic is caught per
//!   trial ([`emask_par::catch_trial`]) and classified as data instead of
//!   tearing down the campaign.
//!
//! The trial lattice is deterministic — a pure function of the trial
//! index — so campaigns are exactly reproducible and need no RNG: the
//! strike cycle sweeps the whole run, the bit position cycles through the
//! configured list, and the target/rail/model rotation covers every
//! pipeline lane × rail mode, registers, data memory, fetch squash, and
//! op-class-triggered strikes on the secure load path.

use emask_core::{MaskedDes, RecoveryPolicy, RecoveryStats, RunError};
use emask_cpu::{CpuErrorKind, FaultLane, NullHook, RailMode};
use emask_fault::{
    DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
};
use emask_isa::OpClass;
use emask_par::catch_trial;
use emask_telemetry::{
    campaign_csv, campaign_summary, recovery_coverage, recovery_summary, CampaignTrial,
    RecoveryTotals,
};

/// Number of [`FaultOutcome`] categories.
pub const OUTCOME_COUNT: usize = 8;

/// The outcome classification of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Run completed, ciphertext matched the reference DES.
    NoEffect,
    /// The dual-rail integrity checker reported the fault (and, with
    /// recovery disabled, the run aborted there).
    Detected,
    /// A detected fault was rolled back and the re-execution completed
    /// with the correct ciphertext.
    Recovered,
    /// Detections exhausted the rollback budget; the key material was
    /// destroyed before the run aborted.
    Zeroized,
    /// Run completed but the result disagreed with the reference DES.
    WrongCiphertext,
    /// The core faulted or the image setup failed.
    Crash,
    /// The cycle budget expired — the fault caused an endless loop.
    Hang,
    /// The trial's worker panicked; caught per trial and classified.
    Panic,
}

impl FaultOutcome {
    /// All outcomes, in report order.
    pub const ALL: [FaultOutcome; OUTCOME_COUNT] = [
        FaultOutcome::NoEffect,
        FaultOutcome::Detected,
        FaultOutcome::Recovered,
        FaultOutcome::Zeroized,
        FaultOutcome::WrongCiphertext,
        FaultOutcome::Crash,
        FaultOutcome::Hang,
        FaultOutcome::Panic,
    ];

    /// The stable report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::NoEffect => "no-effect",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::Zeroized => "zeroized",
            FaultOutcome::WrongCiphertext => "wrong-ciphertext",
            FaultOutcome::Crash => "crash",
            FaultOutcome::Hang => "hang",
            FaultOutcome::Panic => "panic",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            FaultOutcome::NoEffect => 0,
            FaultOutcome::Detected => 1,
            FaultOutcome::Recovered => 2,
            FaultOutcome::Zeroized => 3,
            FaultOutcome::WrongCiphertext => 4,
            FaultOutcome::Crash => 5,
            FaultOutcome::Hang => 6,
            FaultOutcome::Panic => 7,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of fault trials.
    pub trials: usize,
    /// Bit positions cycled through by the lattice.
    pub bits: Vec<u8>,
    /// The plaintext block of every trial.
    pub plaintext: u64,
    /// The key of every trial.
    pub key: u64,
    /// Checkpoint/rollback recovery policy. `None` (the default) runs
    /// each trial fail-stop through `encrypt_hooked` — a detected fault
    /// aborts the run ([`FaultOutcome::Detected`]). `Some` routes trials
    /// through `encrypt_recovered`, turning detections into
    /// [`FaultOutcome::Recovered`] or [`FaultOutcome::Zeroized`].
    pub recovery: Option<RecoveryPolicy>,
    /// Overrides the per-trial cycle budget. `None` (the default) uses
    /// 2× the clean baseline (min 10 000); a tiny explicit budget makes
    /// every trial classify as [`FaultOutcome::Hang`], which is how the
    /// hang path is exercised in tests.
    pub cycle_limit: Option<u64>,
    /// Self-test knob: makes the given trial index panic inside the
    /// worker. Exists to prove panic isolation — the trial classifies as
    /// [`FaultOutcome::Panic`] and its siblings are undisturbed.
    pub panic_trial: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            bits: vec![0, 1, 7, 15, 31],
            plaintext: 0x0123_4567_89AB_CDEF,
            key: 0x1334_5779_9BBC_DFF1,
            recovery: None,
            cycle_limit: None,
            panic_trial: None,
        }
    }
}

/// A completed campaign: every trial row plus the classified totals.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One row per trial, in trial order.
    pub trials: Vec<CampaignTrial>,
    /// Outcome totals, indexed as [`FaultOutcome::ALL`].
    pub counts: [usize; OUTCOME_COUNT],
    /// Cycle count of the clean (unfaulted) baseline run.
    pub clean_cycles: u64,
    /// Aggregate checkpoint/rollback counters (all zero when recovery is
    /// disabled).
    pub recovery: RecoveryTotals,
}

impl CampaignReport {
    /// Trials classified as `outcome`.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.counts[outcome.index()]
    }

    /// Total trials run.
    pub fn total(&self) -> usize {
        self.trials.len()
    }

    /// The per-trial CSV document.
    pub fn csv(&self) -> String {
        campaign_csv(&self.trials)
    }

    /// The human-readable classified-totals summary. When recovery ran,
    /// the detection→recovery coverage table and the aggregate
    /// checkpoint/rollback counters are appended.
    pub fn summary(&self) -> String {
        let mut out = campaign_summary(&self.trials);
        if self.recovery.runs > 0 {
            out.push('\n');
            out.push_str(&self.coverage());
            out.push('\n');
            out.push_str(&recovery_summary(&self.recovery));
        }
        out
    }

    /// The detection→recovery coverage table, grouped by fault target.
    pub fn coverage(&self) -> String {
        recovery_coverage(&self.trials)
    }
}

/// How a lane fault's rail mode reads in reports.
fn rail_name(rail: RailMode) -> &'static str {
    match rail {
        RailMode::Both => "both",
        RailMode::TrueOnly => "true",
        RailMode::ComplementOnly => "comp",
    }
}

/// The deterministic trial lattice: trial index → one fault spec plus its
/// report names. `cycle` is the scheduled strike cycle, already spread
/// across the clean run by the caller.
fn trial_spec(i: usize, cycle: u64, bit: u8, key_addr: Option<u32>) -> (FaultSpec, String) {
    const RAILS: [RailMode; 3] = [RailMode::TrueOnly, RailMode::Both, RailMode::ComplementOnly];
    // Temporal model: mostly transients, a sprinkling of defects/glitches.
    let model = match i % 7 {
        5 => FaultModel::StuckAt { bit, stuck_one: (i / 7) % 2 == 1 },
        6 => FaultModel::Glitch { mask: 1u32 << (bit & 31), cycles: 3 },
        _ => FaultModel::BitFlip { bit },
    };
    // A window lets one-shot transients re-arm past bubbles; a point
    // trigger models a precisely timed strike.
    let windowed = i.is_multiple_of(4);
    let trigger = if windowed {
        FaultTrigger::CycleWindow { start: cycle, end: cycle.saturating_add(200) }
    } else {
        FaultTrigger::AtCycle(cycle)
    };
    let (trigger, target, name) = match i % 10 {
        // Pipeline-latch lanes under every rail mode.
        k @ 0..=5 => {
            let lane = FaultLane::ALL[i % FaultLane::ALL.len()];
            let rail = RAILS[(i / 2 + k) % RAILS.len()];
            let target = FaultTarget::Lane(lane, rail);
            (trigger, target, format!("{}:{}", lane.name(), rail_name(rail)))
        }
        // Architectural register file ($t0..$t7).
        6 => {
            let n = 8 + (i / 10 % 8) as u8;
            (trigger, FaultTarget::Register(n), format!("regfile:r{n}"))
        }
        // Data memory inside the key bit array (word-aligned).
        7 => {
            let addr = key_addr.unwrap_or(0x1000) + 4 * (i as u32 / 10 % 64);
            (trigger, FaultTarget::Memory { addr }, "memory:key".to_string())
        }
        // Instruction skip.
        8 => (trigger, FaultTarget::FetchSquash, "fetch-squash".to_string()),
        // Retirement-indexed strike on the secure load path: the trigger
        // follows the instruction stream, not the cycle count.
        _ => {
            let lane = if i % 20 == 9 { FaultLane::IdExB } else { FaultLane::IdExA };
            let target = FaultTarget::Lane(lane, RailMode::TrueOnly);
            let trigger =
                FaultTrigger::OnOpClass { class: OpClass::Load, skip: (i as u64 / 10) % 64 };
            (trigger, target, format!("{}:true@load", lane.name()))
        }
    };
    (FaultSpec { trigger, target, model }, name)
}

/// Classifies one trial's result: the recovery counters of a completed
/// run, or the error that ended it.
fn classify(result: &Result<RecoveryStats, RunError>) -> (FaultOutcome, String) {
    match result {
        Ok(rec) if rec.rollbacks > 0 => {
            (FaultOutcome::Recovered, format!("recovered after {} rollback(s)", rec.rollbacks))
        }
        Ok(_) => (FaultOutcome::NoEffect, String::new()),
        Err(e @ RunError::Zeroized { .. }) => (FaultOutcome::Zeroized, e.to_string()),
        Err(RunError::Cpu(e)) => match e.kind {
            CpuErrorKind::DualRailViolation { .. } => (FaultOutcome::Detected, e.to_string()),
            CpuErrorKind::CycleLimit { .. } => (FaultOutcome::Hang, e.to_string()),
            _ => (FaultOutcome::Crash, e.to_string()),
        },
        Err(e @ (RunError::Mismatch { .. } | RunError::GarbledOutput { .. })) => {
            (FaultOutcome::WrongCiphertext, e.to_string())
        }
        Err(e) => (FaultOutcome::Crash, e.to_string()),
    }
}

/// Maps a stable outcome report name back to the [`FaultOutcome`] —
/// the inverse of [`FaultOutcome::name`], used when reloading persisted
/// campaign rows.
pub(crate) fn outcome_from_name(name: &str) -> Option<FaultOutcome> {
    FaultOutcome::ALL.into_iter().find(|o| o.name() == name)
}

/// The prepared per-trial execution context of
/// [`run_campaign`](crate::run_campaign): the cycle-limited core plus the
/// lattice parameters derived from the clean baseline run.
pub(crate) struct TrialRunner {
    des: MaskedDes,
    cfg: CampaignConfig,
    bits: Vec<u8>,
    clean_cycles: u64,
    key_addr: Option<u32>,
}

impl TrialRunner {
    /// Runs the clean baseline and derives the trial lattice parameters.
    pub(crate) fn prepare(des: &MaskedDes, cfg: &CampaignConfig) -> Result<Self, RunError> {
        let clean_cycles = des.encrypt_hooked(cfg.plaintext, cfg.key, &mut NullHook)?.cycles;
        // A faulted run that loops forever must terminate promptly:
        // twice the clean run is generous for any non-looping
        // perturbation. An explicit override exists for hang-path tests.
        let limit = cfg.cycle_limit.unwrap_or_else(|| clean_cycles.saturating_mul(2).max(10_000));
        let des = des.clone().with_cycle_limit(limit);
        let key_addr = des.program().try_data_addr("key");
        let bits = if cfg.bits.is_empty() { vec![0u8] } else { cfg.bits.clone() };
        Ok(Self { des, cfg: cfg.clone(), bits, clean_cycles, key_addr })
    }

    /// Cycle count of the clean baseline run.
    pub(crate) fn clean_cycles(&self) -> u64 {
        self.clean_cycles
    }

    /// Whether trials run under a recovery policy.
    pub(crate) fn recovery_enabled(&self) -> bool {
        self.cfg.recovery.is_some()
    }

    /// Runs trial `i` of the deterministic lattice and classifies it.
    /// Never panics outward: the trial body runs under a per-trial panic
    /// catch, so a panicking trial becomes data, its shard keeps going,
    /// and the campaign completes.
    pub(crate) fn run_trial(&self, i: usize) -> (CampaignTrial, FaultOutcome, RecoveryStats) {
        let cfg = &self.cfg;
        // Spread strike cycles across the whole clean run. The spec and
        // its report names are computed *outside* the panic catch so a
        // panicking trial still reports what it was attempting.
        let cycle = (i as u64).wrapping_mul(self.clean_cycles) / cfg.trials.max(1) as u64;
        let bit = self.bits[i % self.bits.len()];
        let (spec, target_name) = trial_spec(i, cycle, bit, self.key_addr);
        let model_name = spec.model.name().to_string();
        let caught = catch_trial(i, || {
            if cfg.panic_trial == Some(i) {
                panic!("campaign self-test panic (trial {i})");
            }
            let mut hook = (FaultInjector::new(FaultPlan::single(spec)), DualRailChecker::new());
            match &cfg.recovery {
                Some(policy) => self
                    .des
                    .encrypt_recovered(cfg.plaintext, cfg.key, &mut hook, policy)
                    .map(|r| r.recovery),
                None => self
                    .des
                    .encrypt_hooked(cfg.plaintext, cfg.key, &mut hook)
                    .map(|_| RecoveryStats::default()),
            }
        });
        let (outcome, detail, stats) = match caught {
            Ok(result) => {
                let stats = match &result {
                    Ok(s) => *s,
                    // A zeroized run still spent its rollback budget —
                    // count the work in the totals.
                    Err(RunError::Zeroized { rollbacks, .. }) => {
                        RecoveryStats { rollbacks: *rollbacks, ..RecoveryStats::default() }
                    }
                    Err(_) => RecoveryStats::default(),
                };
                let (outcome, detail) = classify(&result);
                (outcome, detail, stats)
            }
            Err(p) => (FaultOutcome::Panic, p.to_string(), RecoveryStats::default()),
        };
        let trial = CampaignTrial {
            index: i,
            cycle,
            bit,
            target: target_name,
            model: model_name,
            outcome: outcome.name().to_string(),
            detail,
        };
        (trial, outcome, stats)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::run_campaign;
    use emask_cc::MaskPolicy;
    use emask_core::DesProgramSpec;
    use emask_par::{CancelToken, Jobs};
    use emask_telemetry::NullSink;

    /// An uncheckpointed, uncancelled campaign at `jobs` workers.
    fn campaign(des: &MaskedDes, cfg: &CampaignConfig, jobs: usize) -> CampaignReport {
        let jobs = Jobs::new(jobs).expect("jobs");
        run_campaign(des, cfg, jobs, &CancelToken::new(), None, &NullSink).expect("campaign")
    }

    fn small_des() -> MaskedDes {
        MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
            .expect("compile")
    }

    #[test]
    fn small_campaign_classifies_every_trial() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 80, ..CampaignConfig::default() };
        let report = campaign(&des, &cfg, 1);
        assert_eq!(report.total(), 80);
        assert_eq!(report.counts.iter().sum::<usize>(), 80, "every trial classified");
        // The lattice's single-rail strikes on the secure load path must
        // be caught by the dual-rail checker, not surface as silent
        // corruption.
        assert!(report.count(FaultOutcome::Detected) > 0, "summary:\n{}", report.summary());
        // And some faults must perturb the architectural result.
        assert!(
            report.count(FaultOutcome::WrongCiphertext)
                + report.count(FaultOutcome::Crash)
                + report.count(FaultOutcome::Hang)
                > 0,
            "summary:\n{}",
            report.summary()
        );
        // Exports agree with the counts.
        assert!(report.summary().contains("sum 80/80"));
        assert_eq!(report.csv().lines().count(), 81);
    }

    #[test]
    fn campaign_is_deterministic() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 12, ..CampaignConfig::default() };
        let a = campaign(&des, &cfg, 1);
        let b = campaign(&des, &cfg, 1);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn outcome_names_are_the_eight_categories() {
        let names: Vec<&str> = FaultOutcome::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            [
                "no-effect",
                "detected",
                "recovered",
                "zeroized",
                "wrong-ciphertext",
                "crash",
                "hang",
                "panic"
            ]
        );
        for (i, o) in FaultOutcome::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn recovery_turns_detections_into_recovered_trials() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 80, ..CampaignConfig::default() };
        let baseline = campaign(&des, &cfg, 1);
        assert!(baseline.count(FaultOutcome::Detected) > 0);
        assert_eq!(baseline.recovery, RecoveryTotals::default());

        let recovered_cfg =
            CampaignConfig { recovery: Some(RecoveryPolicy::default()), ..cfg.clone() };
        let report = campaign(&des, &recovered_cfg, 1);
        assert_eq!(report.total(), 80);
        // With rollback enabled, no detection is left fail-stop: every
        // detected fault either recovers or zeroizes.
        assert_eq!(report.count(FaultOutcome::Detected), 0, "summary:\n{}", report.summary());
        assert!(report.count(FaultOutcome::Recovered) > 0, "summary:\n{}", report.summary());
        assert!(report.recovery.rollbacks > 0);
        assert_eq!(report.recovery.runs, 80);
        let summary = report.summary();
        assert!(summary.contains("coverage"), "{summary}");
        assert!(summary.contains("recovery totals"), "{summary}");
    }

    #[test]
    fn panicking_trial_is_classified_not_fatal() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 16, panic_trial: Some(5), ..CampaignConfig::default() };
        let report = campaign(&des, &cfg, 4);
        assert_eq!(report.total(), 16);
        assert_eq!(report.count(FaultOutcome::Panic), 1);
        assert_eq!(report.trials[5].outcome, "panic");
        assert!(
            report.trials[5].detail.contains("trial 5 panicked"),
            "{}",
            report.trials[5].detail
        );
        // Sibling trials are untouched by the panic.
        let baseline_cfg = CampaignConfig { panic_trial: None, ..cfg };
        let baseline = campaign(&des, &baseline_cfg, 1);
        for i in (0..16).filter(|&i| i != 5) {
            assert_eq!(report.trials[i], baseline.trials[i], "trial {i}");
        }
    }

    #[test]
    fn tiny_cycle_budget_classifies_as_hang_without_disturbing_siblings() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 8, cycle_limit: Some(40), ..CampaignConfig::default() };
        let a = campaign(&des, &cfg, 1);
        assert_eq!(a.count(FaultOutcome::Hang), 8, "summary:\n{}", a.summary());
        // Jobs-invariant: the hang classification is identical at any
        // worker count.
        let b = campaign(&des, &cfg, 4);
        assert_eq!(a.trials, b.trials);
    }
}
