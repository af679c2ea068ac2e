//! Fault-injection campaigns: sweep faults across cycles × bit positions
//! × locations, classify every outcome, and export the results.
//!
//! A campaign takes a compiled [`MaskedDes`] and records its clean run
//! once as a [`CleanLadder`] (baseline cycle count, golden-model check,
//! the machine at every checkpoint boundary), then runs each trial with a
//! single planned fault installed as a `(FaultInjector, DualRailChecker)`
//! hook pair. Every trial uses the same block, so a trial forks from the
//! last rung before its fault can strike and stops once its machine
//! rejoins the clean run ([`MaskedDes::encrypt_forked`]); it classifies
//! exactly as the same trial simulated from reset
//! ([`run_campaign_from_reset`]). Each trial is classified into exactly
//! one [`FaultOutcome`]:
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

use emask_core::{CleanLadder, MaskedDes, RecoveryPolicy, RecoveryStats, RunError};
use emask_cpu::{CpuErrorKind, FaultLane, PipelineHook, RailMode};
use emask_fault::{
    DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
};
use emask_isa::OpClass;
use emask_par::catch_trial;
use std::fmt::Write as _;

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
    /// each trial fail-stop, as `encrypt_hooked` would — a detected fault
    /// aborts the run ([`FaultOutcome::Detected`]). `Some` runs trials as
    /// `encrypt_recovered` would, turning detections into
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

/// One fault-injection trial's result: one row of the campaign CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTrial {
    /// Trial index within the campaign.
    pub index: usize,
    /// The cycle (or first cycle) at which the fault was scheduled.
    pub cycle: u64,
    /// The bit position disturbed.
    pub bit: u8,
    /// Target name (e.g. `id_ex.a:true`, `regfile:r8`, `memory:key`).
    pub target: String,
    /// Fault-model name (e.g. `bit-flip`, `stuck-at`, `glitch`).
    pub model: String,
    /// The classified outcome.
    pub outcome: FaultOutcome,
    /// Free-form detail (an error message, or empty), with every comma
    /// and newline turned into `;`.
    pub detail: String,
}

impl CampaignTrial {
    /// Appends the trial as one CSV row
    /// (`trial,cycle,bit,target,model,outcome,detail` and a newline) —
    /// the row of both the campaign CSV and the campaign checkpoint. A
    /// campaign's details hold no comma or newline (they become `;` when
    /// the trial is classified), so the row needs no quoting dialect.
    pub(crate) fn write_row(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            self.index,
            self.cycle,
            self.bit,
            self.target,
            self.model,
            self.outcome.name(),
            self.detail
        );
    }
}

/// Aggregate checkpoint/rollback counters of a campaign's recovered
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryTotals {
    /// Runs absorbed into these totals.
    pub runs: u64,
    /// Checkpoints taken across all runs (excluding the implicit one at
    /// cycle 0 of each run).
    pub checkpoints: u64,
    /// Rollback/re-execute events across all runs.
    pub rollbacks: u64,
    /// Dirty pages moved by checkpoint refreshes and restores — the
    /// measurable memory cost of the incremental checkpoint scheme.
    pub pages_moved: u64,
}

impl RecoveryTotals {
    /// Folds one run's recovery counters into the totals.
    pub(crate) fn absorb(&mut self, stats: &RecoveryStats) {
        self.runs += 1;
        self.checkpoints += stats.checkpoints;
        self.rollbacks += u64::from(stats.rollbacks);
        self.pages_moved += stats.pages_moved;
    }

    /// Merges another shard's totals into these.
    pub(crate) fn merge(&mut self, other: &RecoveryTotals) {
        self.runs += other.runs;
        self.checkpoints += other.checkpoints;
        self.rollbacks += other.rollbacks;
        self.pages_moved += other.pages_moved;
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
    /// The report of `trials` (in trial order), with the outcome totals
    /// counted from them.
    pub(crate) fn new(
        trials: Vec<CampaignTrial>,
        clean_cycles: u64,
        recovery: RecoveryTotals,
    ) -> Self {
        let mut counts = [0usize; OUTCOME_COUNT];
        for t in &trials {
            counts[t.outcome.index()] += 1;
        }
        Self { trials, counts, clean_cycles, recovery }
    }

    /// Trials classified as `outcome`.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.counts[outcome.index()]
    }

    /// Total trials run.
    pub fn total(&self) -> usize {
        self.trials.len()
    }

    /// The per-trial CSV document: a header, then one row per trial
    /// (see [`CampaignTrial`]).
    pub fn csv(&self) -> String {
        let mut out = String::from("trial,cycle,bit,target,model,outcome,detail\n");
        for t in &self.trials {
            t.write_row(&mut out);
        }
        out
    }

    /// The human-readable classified totals: one
    /// `<outcome> <count> (<percent>)` line per outcome in first-seen
    /// order, then a `sum N/N` line asserting every trial was classified.
    /// When recovery ran, the detection→recovery coverage table and the
    /// aggregate checkpoint/rollback counters are appended.
    pub fn summary(&self) -> String {
        let mut seen: Vec<FaultOutcome> = Vec::new();
        for t in &self.trials {
            if !seen.contains(&t.outcome) {
                seen.push(t.outcome);
            }
        }
        let mut out = String::from("fault campaign summary\n======================\n");
        let total = self.total();
        for &o in &seen {
            let n = self.count(o);
            let pct = if total == 0 { 0.0 } else { 100.0 * n as f64 / total as f64 };
            let _ = writeln!(out, "  {:<18} {n:>6} ({pct:.1}%)", o.name());
        }
        let classified: usize = self.counts.iter().sum();
        let _ = writeln!(out, "  sum {classified}/{total}");
        if self.recovery.runs > 0 {
            let r = &self.recovery;
            out.push('\n');
            out.push_str(&self.coverage());
            out.push_str("\nrecovery totals\n---------------\n");
            let _ = writeln!(out, "  runs        {:>8}", r.runs);
            let _ = writeln!(out, "  checkpoints {:>8}", r.checkpoints);
            let _ = writeln!(out, "  rollbacks   {:>8}", r.rollbacks);
            let _ = writeln!(out, "  pages moved {:>8}", r.pages_moved);
        }
        out
    }

    /// The detection→recovery coverage table: for each fault target
    /// (first-seen order), how many trials ran, how many faults were
    /// *detected* ([`FaultOutcome::Detected`], [`FaultOutcome::Recovered`]
    /// or [`FaultOutcome::Zeroized`]), and how many of those detections
    /// were *handled* safely (recovered — the run completed with a correct
    /// result — or zeroized — the key was destroyed before disclosure).
    /// The final column is handled/detected.
    pub fn coverage(&self) -> String {
        // Per target: trials, detections, recovered, zeroized.
        let mut rows: Vec<(&str, [usize; 4])> = Vec::new();
        for t in &self.trials {
            let i = rows.iter().position(|(name, _)| *name == t.target).unwrap_or_else(|| {
                rows.push((&t.target, [0; 4]));
                rows.len() - 1
            });
            let row = &mut rows[i].1;
            row[0] += 1;
            match t.outcome {
                FaultOutcome::Detected => row[1] += 1,
                FaultOutcome::Recovered => {
                    row[1] += 1;
                    row[2] += 1;
                }
                FaultOutcome::Zeroized => {
                    row[1] += 1;
                    row[3] += 1;
                }
                _ => {}
            }
        }
        let mut out = String::from("detection\u{2192}recovery coverage by target\n");
        out.push_str("target                 trials  detected  recovered  zeroized  coverage\n");
        let mut total = [0; 4];
        for (name, row) in &rows {
            coverage_row(&mut out, name, *row);
            for (sum, n) in total.iter_mut().zip(row) {
                *sum += n;
            }
        }
        coverage_row(&mut out, "total", total);
        out
    }
}

/// One line of [`CampaignReport::coverage`]: trials, detections,
/// recovered, zeroized, then handled/detections.
fn coverage_row(
    out: &mut String,
    name: &str,
    [trials, detections, recovered, zeroized]: [usize; 4],
) {
    let cov = if detections == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * (recovered + zeroized) as f64 / detections as f64)
    };
    let _ = writeln!(
        out,
        "  {name:<20} {trials:>6} {detections:>9} {recovered:>10} {zeroized:>9} {cov:>9}"
    );
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

/// The earliest cycle at which a fault on `trigger` can strike. A trial
/// forks from the clean run's last rung at or below it. Retirement and
/// op-class triggers count from reset, so their trials fork from cycle 0.
fn earliest_strike(trigger: FaultTrigger) -> u64 {
    match trigger {
        FaultTrigger::AtCycle(c) | FaultTrigger::CycleWindow { start: c, .. } => c,
        FaultTrigger::AtRetired(_) | FaultTrigger::OnOpClass { .. } => 0,
    }
}

/// The hook of one trial: the planned fault and the dual-rail checker.
type TrialHook = (FaultInjector, DualRailChecker);

/// The prepared per-trial execution context of
/// [`run_campaign`](crate::run_campaign): the cycle-limited core, the
/// clean run's ladder, and the lattice parameters derived from it.
pub(crate) struct TrialRunner {
    des: MaskedDes,
    cfg: CampaignConfig,
    bits: Vec<u8>,
    ladder: CleanLadder,
    key_addr: Option<u32>,
}

impl TrialRunner {
    /// Records the clean run as a ladder and derives the trial lattice
    /// parameters from it.
    pub(crate) fn prepare(des: &MaskedDes, cfg: &CampaignConfig) -> Result<Self, RunError> {
        let ladder = des.clean_ladder(cfg.plaintext, cfg.key)?;
        let clean_cycles = ladder.run().stats.cycles;
        // A faulted run that loops forever must terminate promptly:
        // twice the clean run is generous for any non-looping
        // perturbation. An explicit override exists for hang-path tests.
        let limit = cfg.cycle_limit.unwrap_or_else(|| clean_cycles.saturating_mul(2).max(10_000));
        let des = des.clone().with_cycle_limit(limit);
        let key_addr = des.program().try_data_addr("key");
        let bits = if cfg.bits.is_empty() { vec![0u8] } else { cfg.bits.clone() };
        Ok(Self { des, cfg: cfg.clone(), bits, ladder, key_addr })
    }

    /// Cycle count of the clean baseline run.
    pub(crate) fn clean_cycles(&self) -> u64 {
        self.ladder.run().stats.cycles
    }

    /// Whether trials run under a recovery policy.
    pub(crate) fn recovery_enabled(&self) -> bool {
        self.cfg.recovery.is_some()
    }

    /// Runs trial `i` of the deterministic lattice, forked from the clean
    /// run's ladder, and classifies it.
    pub(crate) fn run_trial(&self, i: usize) -> (CampaignTrial, RecoveryStats) {
        self.trial(i, |hook, fork_at| self.run_forked(hook, fork_at))
    }

    /// One trial's run, forked from the ladder at `fork_at`. A fail-stop
    /// trial reports no recovery counters.
    fn run_forked<H: PipelineHook>(
        &self,
        hook: &mut H,
        fork_at: u64,
    ) -> Result<RecoveryStats, RunError> {
        let policy = self.cfg.recovery.as_ref();
        let run = self.des.encrypt_forked(&self.ladder, fork_at, hook, policy)?;
        Ok(if policy.is_some() { run.recovery } else { RecoveryStats::default() })
    }

    /// One trial's run from reset: the reference a forked trial must
    /// match.
    fn run_from_reset<H: PipelineHook>(&self, hook: &mut H) -> Result<RecoveryStats, RunError> {
        let (plaintext, key) = (self.cfg.plaintext, self.cfg.key);
        match &self.cfg.recovery {
            Some(policy) => {
                self.des.encrypt_recovered(plaintext, key, hook, policy).map(|r| r.recovery)
            }
            None => self.des.encrypt_hooked(plaintext, key, hook).map(|_| RecoveryStats::default()),
        }
    }

    /// Builds trial `i`'s fault, runs it with `run(hook, earliest strike)`
    /// and classifies the result. Never panics outward: the run goes
    /// under a per-trial panic catch, so a panicking trial becomes data,
    /// its shard keeps going, and the campaign completes.
    fn trial(
        &self,
        i: usize,
        run: impl FnOnce(&mut TrialHook, u64) -> Result<RecoveryStats, RunError>,
    ) -> (CampaignTrial, RecoveryStats) {
        let cfg = &self.cfg;
        // Spread strike cycles across the whole clean run. The spec and
        // its report names are computed *outside* the panic catch so a
        // panicking trial still reports what it was attempting.
        let cycle = (i as u64).wrapping_mul(self.clean_cycles()) / cfg.trials.max(1) as u64;
        let bit = self.bits[i % self.bits.len()];
        let (spec, target_name) = trial_spec(i, cycle, bit, self.key_addr);
        let model_name = spec.model.name().to_string();
        let caught = catch_trial(i, || {
            if cfg.panic_trial == Some(i) {
                panic!("campaign self-test panic (trial {i})");
            }
            let mut hook = (FaultInjector::new(FaultPlan::single(spec)), DualRailChecker::new());
            run(&mut hook, earliest_strike(spec.trigger))
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
        // Commas and newlines in the free-form detail become `;` once,
        // here, so the CSV stays one row per trial without a quoting
        // dialect and a row read back from a checkpoint equals this one.
        let detail = detail.replace([',', '\n'], ";");
        let trial = CampaignTrial {
            index: i,
            cycle,
            bit,
            target: target_name,
            model: model_name,
            outcome,
            detail,
        };
        (trial, stats)
    }
}

/// The reference a fault campaign is held to: every trial of `cfg`'s
/// lattice run serially **from reset** — a fresh machine simulated from
/// cycle 0 to the end through [`MaskedDes::encrypt_recovered`], or
/// [`MaskedDes::encrypt_hooked`] when trials are fail-stop — instead of
/// forked from the clean run's ladder as
/// [`run_campaign`](crate::run_campaign) runs them. Its trials and
/// recovery totals equal the campaign's; it only simulates more cycles.
///
/// # Errors
///
/// The clean baseline run's [`RunError`], as for `run_campaign`.
pub fn run_campaign_from_reset(
    des: &MaskedDes,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, RunError> {
    let runner = TrialRunner::prepare(des, cfg)?;
    let mut recovery = RecoveryTotals::default();
    let trials = (0..cfg.trials)
        .map(|i| {
            let (trial, stats) = runner.trial(i, |hook, _| runner.run_from_reset(hook));
            if runner.recovery_enabled() {
                recovery.absorb(&stats);
            }
            trial
        })
        .collect();
    Ok(CampaignReport::new(trials, runner.clean_cycles(), recovery))
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
        assert_eq!(report.trials[5].outcome, FaultOutcome::Panic);
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

    fn trial(i: usize, outcome: FaultOutcome, detail: &str) -> CampaignTrial {
        CampaignTrial {
            index: i,
            cycle: 10 * i as u64,
            bit: (i % 32) as u8,
            target: "id_ex.a".into(),
            model: "bit-flip".into(),
            outcome,
            detail: detail.into(),
        }
    }

    fn report(trials: Vec<CampaignTrial>) -> CampaignReport {
        CampaignReport::new(trials, 0, RecoveryTotals::default())
    }

    #[test]
    fn campaign_csv_is_one_row_per_trial_with_sanitized_detail() {
        let cfg = CampaignConfig { trials: 2, ..CampaignConfig::default() };
        let runner = TrialRunner::prepare(&small_des(), &cfg).unwrap();
        let (clean, _) = runner.trial(0, |_, _| Ok(RecoveryStats::default()));
        let name = "fault, with comma\nnewline".to_string();
        let (crash, _) = runner.trial(1, |_, _| Err(RunError::MissingSymbol { name }));
        // The detail is flattened when the trial is classified, so the
        // row a checkpoint reads back equals the trial itself.
        assert_eq!(crash.detail, "program has no data symbol `fault; with comma;newline`");
        let csv = report(vec![clean, crash]).csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "trial,cycle,bit,target,model,outcome,detail");
        assert!(
            lines[1].starts_with("0,0,0,") && lines[1].ends_with(",no-effect,"),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2].split(',').count(), lines[0].split(',').count());
        assert!(lines[2].ends_with(",crash,program has no data symbol `fault; with comma;newline`"));
    }

    #[test]
    fn campaign_summary_totals_classify_every_trial() {
        let trials = vec![
            trial(0, FaultOutcome::NoEffect, ""),
            trial(1, FaultOutcome::Detected, ""),
            trial(2, FaultOutcome::NoEffect, ""),
            trial(3, FaultOutcome::WrongCiphertext, ""),
        ];
        let s = report(trials).summary();
        assert!(s.contains("no-effect"));
        assert!(s.contains("2 (50.0%)"));
        assert!(s.contains("sum 4/4"));
        assert!(report(Vec::new()).summary().contains("sum 0/0"));
    }

    #[test]
    fn recovery_totals_absorb_and_merge() {
        let stats = |checkpoints, rollbacks, pages_moved| RecoveryStats {
            checkpoints,
            rollbacks,
            pages_moved,
        };
        let mut a = RecoveryTotals::default();
        a.absorb(&stats(3, 1, 40));
        a.absorb(&stats(2, 0, 10));
        assert_eq!(a, RecoveryTotals { runs: 2, checkpoints: 5, rollbacks: 1, pages_moved: 50 });
        let mut b = RecoveryTotals::default();
        b.absorb(&stats(1, 2, 5));
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert_eq!(a.rollbacks, 3);
        let s = CampaignReport::new(vec![trial(0, FaultOutcome::NoEffect, "")], 0, a).summary();
        assert!(s.contains("rollbacks"));
        assert!(s.contains("3"));
    }

    #[test]
    fn recovery_coverage_groups_by_target() {
        let mut t0 = trial(0, FaultOutcome::Recovered, "");
        t0.target = "regfile:r8".into();
        let mut t1 = trial(1, FaultOutcome::Zeroized, "");
        t1.target = "regfile:r8".into();
        let t2 = trial(2, FaultOutcome::NoEffect, "");
        let cov = report(vec![t0, t1, t2]).coverage();
        assert!(cov.contains("regfile:r8"), "{cov}");
        assert!(cov.contains("100.0%"), "{cov}");
        // The no-effect-only target has no detections: coverage is '-'.
        let id_ex = cov.lines().find(|l| l.trim_start().starts_with("id_ex.a")).expect("row");
        assert!(id_ex.trim_end().ends_with('-'), "{id_ex}");
        assert!(cov.lines().last().expect("total").trim_start().starts_with("total"));
    }

    /// Counts the cycles a hook is stepped through, forwarding the rest.
    struct CountSteps<'a, H> {
        inner: H,
        steps: &'a std::cell::Cell<u64>,
    }

    impl<H: PipelineHook> PipelineHook for CountSteps<'_, H> {
        fn before_cycle(&mut self, ctx: &mut emask_cpu::HookCtx<'_>) {
            self.steps.set(self.steps.get() + 1);
            self.inner.before_cycle(ctx);
        }
        fn after_cycle(&mut self, act: &emask_cpu::CycleActivity) -> Result<(), CpuErrorKind> {
            self.inner.after_cycle(act)
        }
        fn is_inert(&self, cycle: u64) -> bool {
            self.inner.is_inert(cycle)
        }
    }

    /// Prints one mode's steps per target, forked and from reset, with
    /// the trial count; `--nocapture` shows it.
    fn print_step_table(mode: &str, rows: &std::collections::BTreeMap<String, [u64; 3]>) {
        eprintln!(
            "{mode:<10} {:<20} {:>6} {:>12} {:>12}",
            "target", "trials", "forked", "from reset"
        );
        let mut total = [0u64; 3];
        for (target, row) in rows {
            eprintln!("{mode:<10} {target:<20} {:>6} {:>12} {:>12}", row[0], row[1], row[2]);
            total.iter_mut().zip(row).for_each(|(t, r)| *t += r);
        }
        eprintln!("{mode:<10} {:<20} {:>6} {:>12} {:>12}", "total", total[0], total[1], total[2]);
    }

    #[test]
    #[ignore = "the 16-round lattice both ways: about 10 s in release; CI runs it"]
    fn forked_16_round_trials_match_runs_from_reset_in_a_third_of_the_steps() {
        let des = MaskedDes::compile(MaskPolicy::Selective).unwrap();
        for recovery in [None, Some(RecoveryPolicy::default())] {
            let cfg = CampaignConfig { trials: 128, recovery, ..CampaignConfig::default() };
            let runner = TrialRunner::prepare(&des, &cfg).unwrap();
            let (forked_steps, reset_steps) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
            // Trials, forked steps and from-reset steps per target, the
            // eight `regfile:rN` targets as one.
            let mut rows = std::collections::BTreeMap::<String, [u64; 3]>::new();
            for i in 0..cfg.trials {
                let before = [forked_steps.get(), reset_steps.get()];
                let forked = runner.trial(i, |hook, fork_at| {
                    runner
                        .run_forked(&mut CountSteps { inner: hook, steps: &forked_steps }, fork_at)
                });
                let reset = runner.trial(i, |hook, _| {
                    runner.run_from_reset(&mut CountSteps { inner: hook, steps: &reset_steps })
                });
                assert_eq!(forked, reset, "trial {i}, recovery {recovery:?}");
                let target = &forked.0.target;
                let target = if target.starts_with("regfile:") { "regfile" } else { target };
                let row = rows.entry(target.to_string()).or_default();
                row[0] += 1;
                row[1] += forked_steps.get() - before[0];
                row[2] += reset_steps.get() - before[1];
            }
            print_step_table(if recovery.is_some() { "recovering" } else { "fail-stop" }, &rows);
            let (forked, reset) = (forked_steps.get(), reset_steps.get());
            assert!(3 * forked <= reset, "{forked} forked vs {reset} steps from reset");
            // The totals at the last change of the fork or rejoin rules; a
            // change that saves steps lowers them.
            let most = if recovery.is_some() { 4_957_666 } else { 4_561_246 };
            assert!(forked <= most, "{forked} forked steps, more than the {most} before");
        }
    }
}
