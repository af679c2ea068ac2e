//! The experiment implementations behind every figure and table.

use emask_attack::{
    cpa_recover_subkey, detect_rounds, guess_ranks, plaintext_for, recover_subkey,
    recover_subkey_multibit_par, CpaConfig, CpaResult, DpaConfig, DpaResult, OnlineWelch,
    SpaReport,
};
use emask_core::{DesProgramSpec, EnergyParams, EnergyTrace, MaskPolicy, MaskedDes, Phase};
use emask_core::{RunObserver, SecureStyle};
use emask_cpu::CycleActivity;
use emask_des::KeySchedule;
use emask_energy::{CycleEnergy, FunctionalUnit, LeakageProfile, LeakageProfiler, UnitState};
use emask_isa::OpClass;
use emask_par::{fold_sharded, CancelToken, Interrupted, Jobs};
use emask_telemetry::{Event, EventSink};
use std::collections::BTreeMap;
use std::fmt;

/// The paper's evaluation key (the classic FIPS walk-through key) and
/// plaintext.
pub const KEY: u64 = 0x1334_5779_9BBC_DFF1;
/// The paper-style evaluation plaintext.
pub const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

pub(crate) fn compile(policy: MaskPolicy, rounds: usize) -> MaskedDes {
    MaskedDes::compile_spec(policy, &DesProgramSpec { rounds })
        .expect("generated DES program compiles")
}

/// Figure 6: the per-100-cycle energy trace of a full unmasked
/// encryption, plus the SPA analysis showing the 16 rounds.
///
/// A device with fewer than two rounds reports no round structure:
/// autocorrelation finds rounds only as a repeat, and one round has none
/// (its eight S-box iterations would otherwise read as eight rounds).
pub fn fig6_round_trace(rounds: usize) -> (EnergyTrace, SpaReport) {
    let des = compile(MaskPolicy::None, rounds);
    let run = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
    if rounds < 2 {
        return (run.trace, SpaReport { detected_rounds: 0, period: 0, score: 0.0 });
    }
    // SPA over the round region only (fill/drain phases would skew the
    // period estimate).
    let w_start = run.phase_window(Phase::Round(1)).expect("round 1").start;
    let w_end = run.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
    let region = run.trace.window(w_start..w_end);
    let spa = detect_rounds(region.samples(), 100, 2, 32);
    (run.trace, spa)
}

/// Figures 7/8/9: the differential trace for two keys differing in key
/// bit 1 (MSB), for the given policy, windowed to round 1 as in the paper.
///
/// Returns `(full differential, round-1 differential)`.
pub fn key_differential(policy: MaskPolicy, rounds: usize) -> (EnergyTrace, EnergyTrace) {
    let des = compile(policy, rounds);
    let a = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
    let b = des.encrypt(PLAINTEXT, KEY ^ (1u64 << 63)).expect("encrypt");
    let diff = a.trace.diff(&b.trace);
    let w = a.phase_window(Phase::Round(1)).expect("round 1");
    let round1 = diff.window(w);
    (diff, round1)
}

/// Figures 10/11: the differential trace for two plaintexts differing in
/// one bit under the same key.
///
/// Returns `(initial-permutation differential, round-1 differential)`.
pub fn plaintext_differential(policy: MaskPolicy, rounds: usize) -> (EnergyTrace, EnergyTrace) {
    let des = compile(policy, rounds);
    let a = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
    let b = des.encrypt(PLAINTEXT ^ (1u64 << 63), KEY).expect("encrypt");
    let diff = a.trace.diff(&b.trace);
    let ip = diff.window(a.phase_window(Phase::InitialPermutation).expect("ip"));
    let round1 = diff.window(a.phase_window(Phase::Round(1)).expect("round 1"));
    (ip, round1)
}

/// Figure 12: the additional energy consumed by masking during the first
/// key permutation — masked run minus original run, over the key
/// permutation window.
///
/// Returns `(per-cycle additional-energy trace, mean additional pJ/cycle,
/// original mean pJ/cycle)`; the paper reports ≈45 pJ/cycle of overhead
/// against a ≈165 pJ/cycle original average.
pub fn masking_overhead_trace(rounds: usize) -> (EnergyTrace, f64, f64) {
    let masked = compile(MaskPolicy::Selective, rounds);
    let original = compile(MaskPolicy::None, rounds);
    let m = masked.encrypt(PLAINTEXT, KEY).expect("encrypt");
    let o = original.encrypt(PLAINTEXT, KEY).expect("encrypt");
    // The two programs are instruction-identical apart from secure bits,
    // so the traces align cycle for cycle.
    assert_eq!(m.trace.len(), o.trace.len(), "policy change altered timing");
    let w = m.phase_window(Phase::KeyPermutation).expect("key permutation");
    let extra = m.trace.window(w.clone()).diff(&o.trace.window(w));
    let mean_extra = extra.total_pj() / extra.len() as f64;
    (extra, mean_extra, o.trace.mean_pj())
}

/// The in-text totals table: total energy per masking policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTotals {
    /// Total µJ for (none, selective, all-loads-stores, all-instructions).
    pub totals_uj: [f64; 4],
    /// Mean pJ/cycle for the same order.
    pub means_pj: [f64; 4],
    /// Cycle count (identical across policies).
    pub cycles: usize,
    /// Static secure-instruction counts.
    pub secure_counts: [usize; 4],
}

impl PolicyTotals {
    /// `selective_overhead / all_instructions_overhead` — the paper's
    /// headline says selective consumes *83 % less* masking energy, i.e.
    /// this ratio is ≈0.17.
    pub(crate) fn overhead_ratio(&self) -> f64 {
        (self.totals_uj[1] - self.totals_uj[0]) / (self.totals_uj[3] - self.totals_uj[0])
    }

    /// The headline percentage (≈83).
    pub(crate) fn overhead_reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.overhead_ratio())
    }
}

impl fmt::Display for PolicyTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = ["none", "selective", "all-loads-stores", "all-instructions"];
        writeln!(f, "{:>18} {:>10} {:>12} {:>8}", "policy", "total µJ", "pJ/cycle", "secure")?;
        for (i, name) in names.iter().enumerate() {
            writeln!(
                f,
                "{:>18} {:>10.2} {:>12.1} {:>8}",
                name, self.totals_uj[i], self.means_pj[i], self.secure_counts[i]
            )?;
        }
        writeln!(f, "cycles per encryption: {}", self.cycles)?;
        write!(
            f,
            "masking-overhead reduction: {:.1} % (paper: 83 %)",
            self.overhead_reduction_percent()
        )
    }
}

/// Runs the totals table for `rounds`-round DES.
pub fn policy_totals(rounds: usize) -> PolicyTotals {
    let mut totals_uj = [0.0; 4];
    let mut means_pj = [0.0; 4];
    let mut secure_counts = [0; 4];
    let mut cycles = 0;
    for (i, policy) in [
        MaskPolicy::None,
        MaskPolicy::Selective,
        MaskPolicy::AllLoadsStores,
        MaskPolicy::AllInstructions,
    ]
    .into_iter()
    .enumerate()
    {
        let des = compile(policy, rounds);
        let run = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
        totals_uj[i] = run.trace.total_uj();
        means_pj[i] = run.trace.mean_pj();
        secure_counts[i] = des.program().secure_instruction_count();
        cycles = run.trace.len();
    }
    PolicyTotals { totals_uj, means_pj, cycles, secure_counts }
}

/// The XOR-unit microbenchmark: mean normal-mode energy over a random
/// operand stream, and the (constant) secure-mode energy. The paper quotes
/// 0.3 pJ and 0.6 pJ.
pub fn xor_unit(samples: usize) -> (f64, f64) {
    let p = EnergyParams::calibrated();
    let mut st = UnitState::new();
    let mut x = 0x2545_F491u32;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let mut normal = 0.0;
    for _ in 0..samples {
        let (a, b) = (rng(), rng());
        normal += st.operate(&p, FunctionalUnit::Logic, a, b, a ^ b, false);
    }
    let secure = st.operate(&p, FunctionalUnit::Logic, 1, 2, 3, true);
    (normal / samples as f64, secure)
}

/// SPA round detection on an unmasked trace (the Figure 6 claim: the 16
/// rounds are visible in a single trace).
pub fn spa_rounds(rounds: usize) -> SpaReport {
    fig6_round_trace(rounds).1
}

/// The trace oracle of the round-1 attacks: `plaintext ↦` the energy of
/// round 1 (where the targeted intermediate lives) under [`KEY`].
fn round1_oracle(des: &MaskedDes) -> impl Fn(u64) -> Vec<f64> + Sync + '_ {
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    des.trace_oracle(KEY, window)
}

/// The round-1 subkey slice of S-box `sbox` under [`KEY`]: what an attack
/// must single out.
fn true_subkey(sbox: usize) -> u8 {
    KeySchedule::new(KEY).round_key(1).sbox_slice(sbox)
}

/// Outcome of a DPA campaign against the simulator.
#[derive(Debug, Clone)]
pub struct DpaOutcome {
    /// The true round-1 subkey slice of the targeted S-box.
    pub true_subkey: u8,
    /// The raw campaign result.
    pub result: DpaResult,
    /// Whether the attack singled out the true subkey.
    pub recovered: bool,
}

impl DpaOutcome {
    /// Judges `result`: recovery means the true subkey wins with a peak
    /// above `floor` pJ. In a noise-free simulator the margin over the
    /// runner-up converges to a constant set by DES's well-known
    /// ghost-peak correlations (wrong guesses whose predictions correlate
    /// with other intermediate bits), so a large-margin criterion is wrong
    /// here; the peak floor is what separates a real leak from the ~0
    /// peaks of a masked device.
    fn judge(result: DpaResult, sbox: usize, floor: f64) -> Self {
        let true_subkey = true_subkey(sbox);
        let best = result.peaks[result.best_guess as usize];
        let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > floor;
        DpaOutcome { true_subkey, result, recovered }
    }
}

impl fmt::Display for DpaOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} — true subkey {:#04X}: {}",
            self.result,
            self.true_subkey,
            if self.recovered { "RECOVERED" } else { "not recovered" }
        )
    }
}

/// Runs the round-1 multi-bit DPA of §1 against the simulated device
/// under `policy`: `samples` traces windowed to round 1, trial `i`'s
/// plaintext from `plaintext_for(0xE5CA1ADE, i)`, acquisition sharded
/// across `jobs` workers — the verdict is identical for any `jobs`.
///
/// `sink` receives the campaign as replayable events: a
/// [`Event::CampaignStarted`] header, an [`Event::DpaConvergence`] every
/// `cadence` traces (plus once at the end; `0` = the end only) carrying
/// the best guess, its peak, the margin and the full 64-guess key-rank
/// vector, and an [`Event::CampaignCompleted`] trailer — byte-identical
/// at any `jobs` count — plus operational [`Event::TrialCompleted`]
/// heartbeats. With [`NullSink`](emask_telemetry::NullSink) every
/// emission compiles away and no snapshot is taken.
///
/// `token` is checked at every trial boundary. An interrupted run emits
/// no trailer, and the events before the trip are a byte-identical
/// prefix of the uninterrupted stream; a rerun recomputes the same
/// verdict from the same seeds.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trace has
/// been folded.
#[allow(clippy::too_many_arguments)]
pub fn dpa_attack<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
    token: &CancelToken,
    cadence: usize,
    sink: &S,
) -> Result<DpaOutcome, Interrupted> {
    let des = compile(policy, rounds);
    let cfg = DpaConfig { samples, sbox, bit: 0, seed: 0xE5CA_1ADE };
    started(sink, "dpa", samples, cfg.seed, cadence);
    let result = recover_subkey(
        &round1_oracle(&des),
        &cfg,
        jobs,
        token,
        S::ACTIVE.then_some(cadence),
        |trials, r| {
            sink.emit(Event::DpaConvergence {
                trials: trials as u64,
                best_guess: r.best_guess,
                best_peak: r.peaks[r.best_guess as usize],
                margin: r.margin,
                peak_cycle: r.peak_cycles[r.best_guess as usize] as u64,
                ranks: guess_ranks(&r.peaks).to_vec(),
            });
        },
        |i| trial_completed(sink, i),
    )?;
    completed(sink, samples);
    Ok(DpaOutcome::judge(result, sbox, 0.5))
}

/// Emits a campaign's replayable header.
fn started<S: EventSink>(sink: &S, experiment: &str, trials: usize, seed: u64, cadence: usize) {
    if S::ACTIVE {
        sink.emit(Event::CampaignStarted {
            experiment: experiment.into(),
            trials: trials as u64,
            seed,
            cadence: cadence as u64,
        });
    }
}

/// Emits the operational heartbeat of trial `i`.
fn trial_completed<S: EventSink>(sink: &S, i: usize) {
    if S::ACTIVE {
        sink.emit(Event::TrialCompleted { trial: i as u64 });
    }
}

/// Emits a completed campaign's replayable trailer.
fn completed<S: EventSink>(sink: &S, trials: usize) {
    if S::ACTIVE {
        sink.emit(Event::CampaignCompleted {
            trials: trials as u64,
            dropped_events: sink.dropped(),
            dropped_by_kind: sink.dropped_by_kind(),
        });
    }
}

/// Outcome of a CPA campaign against the simulator.
#[derive(Debug, Clone)]
pub struct CpaOutcome {
    /// The true round-1 subkey slice of the targeted S-box.
    pub true_subkey: u8,
    /// The raw campaign result.
    pub result: CpaResult,
    /// Whether CPA singled out the true subkey with a meaningful
    /// correlation.
    pub recovered: bool,
}

impl fmt::Display for CpaOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} — true subkey {:#04X}: {}",
            self.result,
            self.true_subkey,
            if self.recovered { "RECOVERED" } else { "not recovered" }
        )
    }
}

/// Runs Hamming-weight CPA (an attack one generation past the paper)
/// against the simulated device under `policy`, with the trace oracle,
/// seeding and sharding of [`dpa_attack`]. CPA has no convergence
/// stream, so it takes no sink.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trace has
/// been folded.
///
/// # Panics
///
/// Panics if `samples < 2`: correlation needs two traces.
pub fn cpa_attack(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
    token: &CancelToken,
) -> Result<CpaOutcome, Interrupted> {
    let des = compile(policy, rounds);
    let cfg = CpaConfig { samples, sbox, seed: 0xCAFE };
    let result = cpa_recover_subkey(&round1_oracle(&des), &cfg, jobs, token)?;
    let true_subkey = true_subkey(sbox);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.2;
    Ok(CpaOutcome { true_subkey, result, recovered })
}

/// Energy attributed to the instruction class executing in EX each cycle
/// — the SimplePower-style breakdown of where the µJ go.
#[derive(Debug, Clone, Default)]
pub struct ClassEnergy {
    /// `(class name, total pJ, cycles)` rows, largest first, including an
    /// `"(idle)"` row for bubble/stall cycles.
    pub rows: Vec<(String, f64, u64)>,
}

impl fmt::Display for ClassEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>12} {:>12} {:>10} {:>10}", "class", "total µJ", "cycles", "pJ/cycle")?;
        for (name, pj, cycles) in &self.rows {
            writeln!(
                f,
                "{:>12} {:>12.3} {:>10} {:>10.1}",
                name,
                pj / 1e6,
                cycles,
                if *cycles > 0 { pj / *cycles as f64 } else { 0.0 }
            )?;
        }
        Ok(())
    }
}

/// Sums each cycle's energy under the class of the instruction in EX.
#[derive(Default)]
struct ClassTally(BTreeMap<&'static str, (f64, u64)>);

impl RunObserver for ClassTally {
    fn on_cycle(&mut self, act: &CycleActivity, energy: &CycleEnergy) {
        let name = match act.ex.map(|x| x.class) {
            Some(OpClass::AluReg) => "alu-reg",
            Some(OpClass::AluImm) => "alu-imm",
            Some(OpClass::ShiftImm) => "shift",
            Some(OpClass::Load) => "load",
            Some(OpClass::Store) => "store",
            Some(OpClass::Branch) => "branch",
            Some(OpClass::Jump) => "jump",
            Some(OpClass::Halt) => "halt",
            None => "(idle)",
        };
        let slot = self.0.entry(name).or_default();
        slot.0 += energy.total_pj();
        slot.1 += 1;
    }
}

/// Attributes each cycle's total energy to the EX-stage instruction class.
pub fn energy_by_class(policy: MaskPolicy, rounds: usize) -> ClassEnergy {
    let mut tally = ClassTally::default();
    compile(policy, rounds).encrypt_observed(PLAINTEXT, KEY, &mut tally).expect("encrypt");
    let mut rows: Vec<(String, f64, u64)> =
        tally.0.into_iter().map(|(k, (pj, c))| (k.to_string(), pj, c)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    ClassEnergy { rows }
}

/// The future-work experiment from the paper's conclusion: with
/// inter-wire coupling modelled (reference \[8\] of the paper), dual-rail
/// pre-charging no longer masks everything.
#[derive(Debug, Clone)]
pub struct CouplingReport {
    /// Max |ΔE| (two keys, secure region) without coupling — zero.
    pub leak_without_coupling_pj: f64,
    /// Same with coupling enabled — nonzero: the predicted residual
    /// channel.
    pub leak_with_coupling_pj: f64,
    /// DPA against the masked-but-coupled device.
    pub dpa_through_coupling: DpaOutcome,
}

impl fmt::Display for CouplingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "masked device, no coupling : max |ΔE| = {:.6} pJ",
            self.leak_without_coupling_pj
        )?;
        writeln!(
            f,
            "masked device, with coupling: max |ΔE| = {:.3} pJ (the paper's predicted residual channel)",
            self.leak_with_coupling_pj
        )?;
        write!(f, "DPA through the coupling channel: {}", self.dpa_through_coupling)
    }
}

/// Runs the coupling study: measure the masked key differential with and
/// without inter-wire coupling, then attack the coupled device with the
/// DPA of [`dpa_attack`] (`samples` traces, trial `i`'s plaintext from
/// `plaintext_for(0xC0DE, i)`, sharded across `jobs` workers).
pub fn coupling_study(
    rounds: usize,
    samples: usize,
    coupling_cap_pf: f64,
    jobs: Jobs,
) -> CouplingReport {
    let mut coupled_params = EnergyParams::calibrated();
    coupled_params.coupling_cap_pf = coupling_cap_pf;

    let leak = |des: &MaskedDes| {
        let a = des.encrypt(PLAINTEXT, KEY).expect("run");
        let b = des.encrypt(PLAINTEXT, KEY ^ (1u64 << 63)).expect("run");
        let start = a.phase_window(Phase::KeyPermutation).expect("kp").start;
        let end = a.phase_window(Phase::Round(rounds as u8)).expect("last").end;
        a.trace.window(start..end).diff(&b.trace.window(start..end)).max_abs()
    };
    let clean = compile(MaskPolicy::Selective, rounds);
    let coupled = compile(MaskPolicy::Selective, rounds).with_params(coupled_params);
    let leak_without = leak(&clean);
    let leak_with = leak(&coupled);

    // DPA against the masked, coupled device.
    let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 0xC0DE };
    let result = recover_subkey_multibit_par(&round1_oracle(&coupled), &cfg, jobs);
    CouplingReport {
        leak_without_coupling_pj: leak_without,
        leak_with_coupling_pj: leak_with,
        dpa_through_coupling: DpaOutcome::judge(result, 0, 0.1),
    }
}

/// One point of the sample-complexity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Trace count of this campaign.
    pub samples: usize,
    /// Whether the true subkey won.
    pub recovered: bool,
    /// Peak of the winning guess (pJ).
    pub best_peak: f64,
    /// Best/runner-up ratio.
    pub margin: f64,
}

/// Sample-complexity sweep: how many traces multi-bit DPA needs against
/// the device under `policy`, one campaign per count in `counts` (trial
/// `i`'s plaintext from `plaintext_for(0x5EED, i)`, so a smaller campaign
/// is a prefix of a larger one), each sharded across `jobs` workers. The
/// paper argues masking pushes the number "to an infeasible number" —
/// here to infinity, since the masked peaks are identically zero at any
/// trace count.
pub fn dpa_sample_sweep(
    policy: MaskPolicy,
    rounds: usize,
    counts: &[usize],
    jobs: Jobs,
) -> Vec<SweepPoint> {
    let des = compile(policy, rounds);
    let oracle = round1_oracle(&des);
    counts
        .iter()
        .map(|&samples| {
            let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 0x5EED };
            let result = recover_subkey_multibit_par(&oracle, &cfg, jobs);
            let best_peak = result.peaks[result.best_guess as usize];
            SweepPoint {
                samples,
                recovered: result.best_guess == true_subkey(0) && best_peak > 0.5,
                best_peak,
                margin: result.margin,
            }
        })
        .collect()
}

/// |t| at or above this flags a leak: the standard TVLA threshold.
const TVLA_THRESHOLD: f64 = 4.5;

/// A TVLA-style fixed-vs-random leakage assessment (an extension beyond
/// the paper, using the now-standard Welch *t* methodology): half the
/// traces use a fixed key, half use random keys, all with the same
/// plaintext; |t| ≥ 4.5 at any cycle flags a leak.
#[derive(Debug, Clone)]
pub struct TvlaReport {
    /// Max |t| over the assessed window.
    pub max_t: f64,
    /// The cycle of the maximum.
    pub at_cycle: usize,
    /// Number of cycles with |t| at or above the 4.5 threshold.
    pub leaky_cycles: usize,
    /// Traces per group.
    pub group_size: usize,
}

impl TvlaReport {
    /// The report over the merged fixed/random accumulators.
    fn from_welch(acc: &OnlineWelch, group_size: usize) -> Self {
        let t = acc.welch_t();
        let (at_cycle, max_t) = t.iter().enumerate().fold((0, 0.0f64), |best, (i, &v)| {
            if v.abs() > best.1 {
                (i, v.abs())
            } else {
                best
            }
        });
        let leaky_cycles = t.iter().filter(|v| v.abs() >= TVLA_THRESHOLD).count();
        TvlaReport { max_t, at_cycle, leaky_cycles, group_size }
    }

    /// The verdict: max |t| at or above the 4.5 threshold.
    #[must_use]
    pub fn leaks(&self) -> bool {
        self.max_t >= TVLA_THRESHOLD
    }
}

impl fmt::Display for TvlaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TVLA: max |t| = {:.1} at cycle {} ({} cycles over 4.5, {} traces/group) — {}",
            self.max_t,
            self.at_cycle,
            self.leaky_cycles,
            self.group_size,
            if self.leaks() { "LEAKS" } else { "clean" }
        )
    }
}

/// Runs the fixed-vs-random-key TVLA against the simulator under `policy`,
/// windowed from the key permutation through the last round (the output
/// permutation carries the public ciphertext and is excluded by design).
/// Acquisition is sharded across `jobs` workers, folding each trace pair
/// straight into streaming [`OnlineWelch`] accumulators — no trace matrix
/// is retained — and trial `i`'s random key is `plaintext_for(seed, i)`,
/// so the report is identical for any `jobs` value.
///
/// `sink` and `token` work as in [`dpa_attack`]: every `cadence` trace
/// pairs an [`Event::TvlaConvergence`] carries Welch's *t* over the
/// merged accumulators — the traces-to-detection curve.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trace pair
/// has been folded.
#[allow(clippy::too_many_arguments)]
pub fn tvla<S: EventSink>(
    policy: MaskPolicy,
    rounds: usize,
    group_size: usize,
    seed: u64,
    jobs: Jobs,
    token: &CancelToken,
    cadence: usize,
    sink: &S,
) -> Result<TvlaReport, Interrupted> {
    let des = compile(policy, rounds);
    let probe = des.encrypt(PLAINTEXT, KEY).expect("probe");
    let start = probe.phase_window(Phase::KeyPermutation).expect("kp").start;
    let end = probe.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
    // The simulator is deterministic: every fixed-group trace is the
    // probe's own window, so only the random group is simulated.
    let fixed = &probe.trace.samples()[start..end];
    started(sink, "tvla", group_size, seed, cadence);
    let acc = fold_sharded(
        jobs,
        group_size,
        token,
        S::ACTIVE.then_some(cadence),
        |_| OnlineWelch::new(),
        |acc: &mut OnlineWelch, trials| {
            for (done, i) in trials.enumerate() {
                token.check().map_err(|_| done)?;
                acc.g0.push(fixed).expect("aligned traces");
                let r = des
                    .encrypt_window(PLAINTEXT, plaintext_for(seed, i as u64), start..end)
                    .expect("random run");
                acc.g1.push(&r).expect("aligned traces");
                trial_completed(sink, i);
            }
            Ok(())
        },
        |a, b| a.merge(b).expect("aligned shards"),
        |trials, acc| {
            let r = TvlaReport::from_welch(acc, group_size);
            sink.emit(Event::TvlaConvergence {
                trials: trials as u64,
                max_t: r.max_t,
                at_cycle: r.at_cycle as u64,
                leaky_cycles: r.leaky_cycles as u64,
            });
        },
    )?
    .unwrap_or_default();
    completed(sink, group_size);
    Ok(TvlaReport::from_welch(&acc, group_size))
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
    pub(crate) fn variance_reduction_percent(&self) -> f64 {
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

/// The ablation studies of the design choices DESIGN.md calls out.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Max |differential| (two keys, round-1 window) with the paper's
    /// pre-charged dual rail. Should be 0.
    pub precharged_leak_pj: f64,
    /// Same with complement-only (no pre-charge) dual rail. Nonzero: the
    /// pre-charge is load-bearing.
    pub complement_only_leak_pj: f64,
    /// Same with masking disabled entirely.
    pub unmasked_leak_pj: f64,
    /// Mean pJ/cycle with the complementary path clock-gated (the paper's
    /// design) on an unmasked run.
    pub gated_mean_pj: f64,
    /// Mean pJ/cycle with the gate removed: every normal instruction pays
    /// the idle dual-rail clocking.
    pub ungated_mean_pj: f64,
    /// Max |differential| when only the annotated seeds (the `key` array
    /// accesses themselves) are secured, without forward slicing —
    /// demonstrates the indirect leak the paper's slicing exists to stop.
    pub seeds_only_leak_pj: f64,
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "secure-style ablation (max |ΔE| over rounds, two keys):")?;
        writeln!(
            f,
            "  pre-charged dual rail : {:>8.2} pJ (paper design)",
            self.precharged_leak_pj
        )?;
        writeln!(
            f,
            "  complement only       : {:>8.2} pJ (no pre-charge → still leaks)",
            self.complement_only_leak_pj
        )?;
        writeln!(f, "  unmasked              : {:>8.2} pJ", self.unmasked_leak_pj)?;
        writeln!(f, "clock-gating ablation (unmasked run):")?;
        writeln!(f, "  gated   : {:>8.1} pJ/cycle", self.gated_mean_pj)?;
        writeln!(f, "  ungated : {:>8.1} pJ/cycle", self.ungated_mean_pj)?;
        writeln!(f, "forward-slicing ablation:")?;
        write!(
            f,
            "  seeds-only masking leak: {:>8.2} pJ (indirect flow unprotected)",
            self.seeds_only_leak_pj
        )
    }
}

/// Runs all ablations on a reduced-round instance.
pub fn ablations(rounds: usize) -> AblationReport {
    let leak = |des: &MaskedDes| -> f64 {
        let a = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
        let b = des.encrypt(PLAINTEXT, KEY ^ (1u64 << 63)).expect("encrypt");
        let start = a.phase_window(Phase::KeyPermutation).expect("kp").start;
        let end = a.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
        a.trace.window(start..end).diff(&b.trace.window(start..end)).max_abs()
    };

    let precharged = compile(MaskPolicy::Selective, rounds);
    let mut complement_params = EnergyParams::calibrated();
    complement_params.secure_style = SecureStyle::ComplementOnly;
    let complement = compile(MaskPolicy::Selective, rounds).with_params(complement_params);
    let unmasked = compile(MaskPolicy::None, rounds);

    let mut ungated_params = EnergyParams::calibrated();
    ungated_params.gate_complementary = false;
    let gated_run = unmasked.encrypt(PLAINTEXT, KEY).expect("encrypt");
    let ungated_run = compile(MaskPolicy::None, rounds)
        .with_params(ungated_params)
        .encrypt(PLAINTEXT, KEY)
        .expect("encrypt");

    // Seeds-only: secure the key array's own accesses but nothing derived
    // from them. Emulated by running the *unmasked* program and measuring
    // the differential strictly after the key permutation: the key loads
    // themselves are excluded, everything indirect (which seeds-only would
    // also leave unprotected) remains.
    let seeds_only_leak = {
        let a = unmasked.encrypt(PLAINTEXT, KEY).expect("encrypt");
        let b = unmasked.encrypt(PLAINTEXT, KEY ^ (1u64 << 63)).expect("encrypt");
        let w = a.phase_window(Phase::Round(1)).expect("round 1");
        let start = w.start;
        let end = a.phase_window(Phase::Round(rounds as u8)).expect("last").end;
        a.trace.window(start..end).diff(&b.trace.window(start..end)).max_abs()
    };

    AblationReport {
        precharged_leak_pj: leak(&precharged),
        complement_only_leak_pj: leak(&complement),
        unmasked_leak_pj: leak(&unmasked),
        gated_mean_pj: gated_run.trace.mean_pj(),
        ungated_mean_pj: ungated_run.trace.mean_pj(),
        seeds_only_leak_pj: seeds_only_leak,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
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

    fn jobs(n: usize) -> Jobs {
        Jobs::new(n).unwrap()
    }

    /// [`dpa_attack`], uncancelled, no event stream.
    fn dpa(policy: MaskPolicy, rounds: usize, samples: usize, jobs: Jobs) -> DpaOutcome {
        dpa_attack(policy, rounds, samples, 0, jobs, &CancelToken::new(), 0, &NullSink).unwrap()
    }

    /// [`cpa_attack`], uncancelled.
    fn cpa(policy: MaskPolicy, rounds: usize, samples: usize, jobs: Jobs) -> CpaOutcome {
        cpa_attack(policy, rounds, samples, 0, jobs, &CancelToken::new()).unwrap()
    }

    /// [`tvla`] at one round, uncancelled, streaming to `sink`.
    fn tvla_to<S: EventSink>(
        policy: MaskPolicy,
        groups: usize,
        jobs: Jobs,
        cadence: usize,
        sink: &S,
    ) -> TvlaReport {
        tvla(policy, 1, groups, 5, jobs, &CancelToken::new(), cadence, sink).unwrap()
    }

    // Experiments run at 2 rounds in unit tests; the repro binary runs the
    // full 16 in release mode.

    #[test]
    fn fig6_trace_has_round_structure() {
        let (trace, _) = fig6_round_trace(2);
        assert!(trace.len() > 10_000);
        assert!(trace.mean_pj() > 100.0);
    }

    #[test]
    fn spa_counts_the_rounds_the_device_has() {
        // One round has no repeat to find; two and four rounds are
        // counted exactly.
        assert_eq!(fig6_round_trace(1).1.detected_rounds, 0);
        for rounds in [2, 4] {
            assert_eq!(fig6_round_trace(rounds).1.detected_rounds, rounds, "{rounds} rounds");
        }
    }

    #[test]
    fn fig8_unmasked_key_differential_is_nonzero() {
        let (_, round1) = key_differential(MaskPolicy::None, 2);
        assert!(round1.max_abs() > 1.0, "unmasked must leak: {}", round1.max_abs());
    }

    #[test]
    fn fig9_masked_key_differential_is_zero() {
        let (_, round1) = key_differential(MaskPolicy::Selective, 2);
        assert!(round1.max_abs() < 1e-9, "masked leaked {}", round1.max_abs());
    }

    #[test]
    fn fig10_11_plaintext_differentials() {
        let (ip_none, r1_none) = plaintext_differential(MaskPolicy::None, 2);
        let (ip_masked, r1_masked) = plaintext_differential(MaskPolicy::Selective, 2);
        // Before masking: differences everywhere.
        assert!(ip_none.max_abs() > 0.5);
        assert!(r1_none.max_abs() > 0.5);
        // After masking: the insecure initial permutation still differs,
        // the secure round does not.
        assert!(ip_masked.max_abs() > 0.5, "IP is insecure by design");
        assert!(r1_masked.max_abs() < 1e-9, "round 1 leaked {}", r1_masked.max_abs());
    }

    #[test]
    fn fig12_overhead_is_positive_and_bounded() {
        let (extra, mean_extra, original_mean) = masking_overhead_trace(2);
        assert!(!extra.is_empty());
        assert!(mean_extra > 0.0, "masking must cost energy");
        // Shape check: overhead is a fraction of the original average
        // (paper: 45 pJ vs 165 pJ/cycle).
        assert!(
            mean_extra < original_mean,
            "overhead {mean_extra} should not exceed the baseline {original_mean}"
        );
    }

    #[test]
    fn totals_table_matches_paper_shape() {
        let t = policy_totals(2);
        assert!(t.totals_uj[0] < t.totals_uj[1], "{t}");
        assert!(t.totals_uj[1] < t.totals_uj[2], "{t}");
        assert!(t.totals_uj[2] < t.totals_uj[3], "{t}");
        let r = t.overhead_reduction_percent();
        assert!((60.0..95.0).contains(&r), "overhead reduction {r}% out of band");
    }

    #[test]
    fn xor_unit_matches_paper_numbers() {
        let (normal, secure) = xor_unit(20_000);
        assert!((normal - 0.3).abs() < 0.02, "normal XOR {normal}");
        assert!((secure - 0.6).abs() < 1e-9, "secure XOR {secure}");
    }

    #[test]
    fn dpa_recovers_from_unmasked_device() {
        let outcome = dpa(MaskPolicy::None, 2, 96, Jobs::serial());
        assert!(outcome.recovered, "{outcome}");
    }

    #[test]
    fn dpa_fails_on_masked_device() {
        let outcome = dpa(MaskPolicy::Selective, 2, 96, Jobs::serial());
        assert!(!outcome.recovered, "{outcome}");
        // All guesses are indistinguishable on a fully masked round.
        assert!(outcome.result.peaks.iter().all(|&p| p < 1e-6));
    }

    #[test]
    fn class_attribution_covers_every_cycle() {
        let report = energy_by_class(MaskPolicy::None, 1);
        let total_cycles: u64 = report.rows.iter().map(|r| r.2).sum();
        let des = compile(MaskPolicy::None, 1);
        let run = des.encrypt(PLAINTEXT, KEY).expect("run");
        assert_eq!(total_cycles as usize, run.trace.len());
        let total_pj: f64 = report.rows.iter().map(|r| r.1).sum();
        assert!((total_pj - run.trace.total_pj()).abs() < 1e-6);
        // The address-generation-heavy ISA makes alu-imm (lui/ori/li)
        // the top class; memory classes must still be present and busy.
        for class in ["load", "store", "alu-imm"] {
            let row = report
                .rows
                .iter()
                .find(|r| r.0 == class)
                .unwrap_or_else(|| panic!("missing class `{class}`:\n{report}"));
            assert!(row.2 > 100, "class `{class}` barely ran:\n{report}");
        }
    }

    #[test]
    fn coupling_reopens_the_leak_as_the_conclusion_predicts() {
        let report = coupling_study(1, 48, 0.05, jobs(2));
        assert!(report.leak_without_coupling_pj < 1e-9, "{report}");
        assert!(report.leak_with_coupling_pj > 0.1, "{report}");
        let s = report.to_string();
        assert!(s.contains("residual channel"));
    }

    #[test]
    fn sample_sweep_shape() {
        let unmasked = dpa_sample_sweep(MaskPolicy::None, 1, &[16, 64], jobs(2));
        assert_eq!(unmasked.len(), 2);
        // More traces never shrink the physical peak to zero.
        assert!(unmasked.iter().all(|p| p.best_peak > 0.1));
        let masked = dpa_sample_sweep(MaskPolicy::Selective, 1, &[16, 64], jobs(2));
        assert!(
            masked.iter().all(|p| !p.recovered && p.best_peak < 1e-6),
            "masked sweep leaked: {masked:?}"
        );
    }

    #[test]
    fn cpa_recovers_from_unmasked_and_fails_on_masked() {
        let unmasked = cpa(MaskPolicy::None, 2, 96, Jobs::serial());
        assert!(unmasked.recovered, "{unmasked}");
        let masked = cpa(MaskPolicy::Selective, 2, 96, Jobs::serial());
        assert!(!masked.recovered, "{masked}");
        assert!(masked.result.peaks.iter().all(|&p| p < 1e-6), "{masked}");
    }

    #[test]
    fn tvla_flags_the_unmasked_device_and_clears_the_masked_one() {
        let unmasked = tvla_to(MaskPolicy::None, 10, Jobs::serial(), 0, &NullSink);
        assert!(unmasked.leaks(), "{unmasked}");
        let masked = tvla_to(MaskPolicy::Selective, 10, Jobs::serial(), 0, &NullSink);
        assert!(!masked.leaks(), "{masked}");
        assert_eq!(masked.leaky_cycles, 0, "{masked}");
        assert!(masked.to_string().contains("clean"));
    }

    #[test]
    fn tvla_verdict_at_exactly_the_threshold_is_a_leak() {
        let report = TvlaReport { max_t: 4.5, at_cycle: 3, leaky_cycles: 1, group_size: 8 };
        assert!(report.leaks());
        assert!(report.to_string().ends_with("LEAKS"), "{report}");
        let below = TvlaReport { max_t: 4.499_999, ..report };
        assert!(!below.leaks());
        assert!(below.to_string().ends_with("clean"), "{below}");
    }

    #[test]
    fn parallel_dpa_experiment_recovers_and_ignores_job_count() {
        let serial = dpa(MaskPolicy::None, 1, 96, Jobs::serial());
        assert!(serial.recovered, "{serial}");
        let par = dpa(MaskPolicy::None, 1, 96, jobs(4));
        assert_eq!(par.result, serial.result, "jobs must not change the result");
        assert_eq!(par.recovered, serial.recovered);
    }

    #[test]
    fn parallel_cpa_experiment_recovers_and_ignores_job_count() {
        let serial = cpa(MaskPolicy::None, 1, 48, Jobs::serial());
        assert!(serial.recovered, "{serial}");
        let par = cpa(MaskPolicy::None, 1, 48, jobs(3));
        assert_eq!(par.result, serial.result, "jobs must not change the result");
    }

    #[test]
    fn parallel_tvla_flags_unmasked_and_ignores_job_count() {
        let serial = tvla_to(MaskPolicy::None, 8, Jobs::serial(), 0, &NullSink);
        assert!(serial.leaks(), "{serial}");
        let par = tvla_to(MaskPolicy::None, 8, jobs(4), 0, &NullSink);
        assert_eq!(par.max_t.to_bits(), serial.max_t.to_bits(), "bit-identical t");
        assert_eq!(par.at_cycle, serial.at_cycle);
        assert_eq!(par.leaky_cycles, serial.leaky_cycles);
    }

    #[test]
    fn dpa_convergence_matches_batch_verdict_and_streams_snapshots() {
        let sink = Collect::new();
        let token = CancelToken::new();
        let live = dpa_attack(MaskPolicy::None, 1, 96, 0, jobs(4), &token, 32, &sink).unwrap();
        let quiet = dpa(MaskPolicy::None, 1, 96, Jobs::serial());
        assert_eq!(live.result, quiet.result, "snapshot ladder must not change the verdict");
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
                let token = CancelToken::new();
                dpa_attack(MaskPolicy::None, 1, 64, 0, jobs(j), &token, 16, &sink).unwrap();
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
        let live = tvla_to(MaskPolicy::None, 8, jobs(4), 4, &sink);
        let quiet = tvla_to(MaskPolicy::None, 8, Jobs::serial(), 4, &NullSink);
        assert_eq!(live.max_t.to_bits(), quiet.max_t.to_bits(), "bit-identical t");
        assert_eq!(live.at_cycle, quiet.at_cycle);
        assert_eq!(live.leaky_cycles, quiet.leaky_cycles);
        assert!(live.leaks(), "{live}");

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
        let token = CancelToken::new();
        dpa_attack(MaskPolicy::None, 1, 96, 0, Jobs::serial(), &token, 32, &full_sink).unwrap();
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
        let err = dpa_attack(
            MaskPolicy::None,
            1,
            96,
            0,
            Jobs::serial(),
            &token,
            32,
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
    fn null_sink_drivers_agree_with_batch() {
        let quiet = tvla_to(MaskPolicy::Selective, 6, Jobs::serial(), 0, &NullSink);
        let live = tvla_to(MaskPolicy::Selective, 6, Jobs::serial(), 0, &Collect::new());
        assert_eq!(live.max_t.to_bits(), quiet.max_t.to_bits());
        assert_eq!(quiet.leaky_cycles, 0, "{quiet}");
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

    #[test]
    fn ablation_report_shape() {
        let r = ablations(2);
        assert!(r.precharged_leak_pj < 1e-9);
        assert!(r.complement_only_leak_pj > 1.0, "complement-only must leak");
        assert!(r.unmasked_leak_pj > 1.0);
        assert!(r.ungated_mean_pj > r.gated_mean_pj, "gating must save energy");
        assert!(r.seeds_only_leak_pj > 1.0, "indirect flows leak without slicing");
        let s = r.to_string();
        assert!(s.contains("pre-charged"));
    }
}
