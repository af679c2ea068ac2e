//! The experiment implementations behind every figure and table.

use emask_attack::cpa::{cpa_recover_subkey, cpa_recover_subkey_par, CpaConfig, CpaResult};
use emask_attack::dpa::{
    recover_subkey_multibit, recover_subkey_multibit_par, DpaConfig, DpaResult,
};
use emask_attack::online::OnlineWelch;
use emask_attack::spa::{detect_rounds, SpaReport};
use emask_attack::stats::{welch_t, TraceMatrix};
use emask_core::desgen::DesProgramSpec;
use emask_core::{EnergyParams, EnergyTrace, MaskPolicy, MaskedDes, Phase, SecureStyle};
use emask_cpu::Cpu;
use emask_des::bits::to_bit_vec;
use emask_des::KeySchedule;
use emask_energy::EnergyModel;
use emask_energy::{FunctionalUnit, UnitState};
use emask_isa::OpClass;
use emask_par::{fold_sharded, trial_seed, CancelToken, Jobs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
pub fn fig6_round_trace(rounds: usize) -> (EnergyTrace, SpaReport) {
    let des = compile(MaskPolicy::None, rounds);
    let run = des.encrypt(PLAINTEXT, KEY).expect("encrypt");
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
    pub fn overhead_ratio(&self) -> f64 {
        (self.totals_uj[1] - self.totals_uj[0]) / (self.totals_uj[3] - self.totals_uj[0])
    }

    /// The headline percentage (≈83).
    pub fn overhead_reduction_percent(&self) -> f64 {
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

/// Runs the round-1 DPA of §1 against the simulated device under the given
/// policy. Traces are windowed to round 1 (where the targeted intermediate
/// lives) to keep the trace matrix small.
pub fn dpa_attack(policy: MaskPolicy, rounds: usize, samples: usize, sbox: usize) -> DpaOutcome {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = |plaintext: u64| -> Vec<f64> {
        let run = des.encrypt(plaintext, KEY).expect("oracle run");
        run.trace.window(window.clone()).samples().to_vec()
    };
    let cfg = DpaConfig { samples, sbox, bit: 0, seed: 0xE5CA_1ADE };
    let result = recover_subkey_multibit(oracle, &cfg);
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
    // Recovery = the right guess wins with a physically meaningful peak.
    // In a noise-free simulator the margin over the runner-up converges to
    // a constant set by DES's well-known ghost-peak correlations (wrong
    // guesses whose predictions correlate with other intermediate bits),
    // so a large-margin criterion is wrong here; the peak floor is what
    // separates a real leak from the ~0 peaks of a masked device.
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.5;
    DpaOutcome { true_subkey, result, recovered }
}

/// [`dpa_attack`] with trace acquisition sharded across `jobs` worker
/// threads, each driving the shared compiled simulator through
/// [`MaskedDes::trace_oracle`] and folding traces into single-pass
/// accumulators. Plaintexts are seeded per trial, so the verdict is
/// identical for any `jobs` value (but uses a different trace set than the
/// sequential-RNG [`dpa_attack`]).
pub fn dpa_attack_par(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
) -> DpaOutcome {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = des.trace_oracle(KEY, window);
    let cfg = DpaConfig { samples, sbox, bit: 0, seed: 0xE5CA_1ADE };
    let result = recover_subkey_multibit_par(&oracle, &cfg, jobs);
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.5;
    DpaOutcome { true_subkey, result, recovered }
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
/// against the simulated device under `policy`.
pub fn cpa_attack(policy: MaskPolicy, rounds: usize, samples: usize, sbox: usize) -> CpaOutcome {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = |plaintext: u64| -> Vec<f64> {
        let run = des.encrypt(plaintext, KEY).expect("oracle run");
        run.trace.window(window.clone()).samples().to_vec()
    };
    let cfg = CpaConfig { samples, sbox, seed: 0xCAFE };
    let result = cpa_recover_subkey(oracle, &cfg);
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.2;
    CpaOutcome { true_subkey, result, recovered }
}

/// [`cpa_attack`] with trace acquisition sharded across `jobs` worker
/// threads; see [`dpa_attack_par`] for the seeding and sharing contract.
pub fn cpa_attack_par(
    policy: MaskPolicy,
    rounds: usize,
    samples: usize,
    sbox: usize,
    jobs: Jobs,
) -> CpaOutcome {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = des.trace_oracle(KEY, window);
    let cfg = CpaConfig { samples, sbox, seed: 0xCAFE };
    let result = cpa_recover_subkey_par(&oracle, &cfg, jobs);
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.2;
    CpaOutcome { true_subkey, result, recovered }
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

/// Attributes each cycle's total energy to the EX-stage instruction class.
pub fn energy_by_class(policy: MaskPolicy, rounds: usize) -> ClassEnergy {
    let des = compile(policy, rounds);
    let mut cpu = Cpu::new(des.program());
    let key_addr = des.program().data_addr("key");
    let data_addr = des.program().data_addr("data");
    for (i, b) in to_bit_vec(KEY).iter().enumerate() {
        cpu.memory_mut().store(key_addr + 4 * i as u32, u32::from(*b)).expect("in range");
    }
    for (i, b) in to_bit_vec(PLAINTEXT).iter().enumerate() {
        cpu.memory_mut().store(data_addr + 4 * i as u32, u32::from(*b)).expect("in range");
    }
    let mut model = EnergyModel::new();
    let mut acc: std::collections::BTreeMap<&'static str, (f64, u64)> = Default::default();
    cpu.run_with(50_000_000, |act| {
        let e = model.observe(act).total_pj();
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
        let slot = acc.entry(name).or_default();
        slot.0 += e;
        slot.1 += 1;
    })
    .expect("run");
    let mut rows: Vec<(String, f64, u64)> =
        acc.into_iter().map(|(k, (pj, c))| (k.to_string(), pj, c)).collect();
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
/// without inter-wire coupling, then attack the coupled device with DPA.
pub fn coupling_study(rounds: usize, samples: usize, coupling_cap_pf: f64) -> CouplingReport {
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
    let window = coupled
        .encrypt(PLAINTEXT, KEY)
        .expect("probe")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let oracle = |plaintext: u64| -> Vec<f64> {
        coupled
            .encrypt(plaintext, KEY)
            .expect("oracle run")
            .trace
            .window(window.clone())
            .samples()
            .to_vec()
    };
    let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 0xC0DE };
    let result = recover_subkey_multibit(oracle, &cfg);
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let best = result.peaks[result.best_guess as usize];
    let recovered = result.best_guess == true_subkey && result.margin > 1.0 && best > 0.1;
    CouplingReport {
        leak_without_coupling_pj: leak_without,
        leak_with_coupling_pj: leak_with,
        dpa_through_coupling: DpaOutcome { true_subkey, result, recovered },
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
/// the device under `policy`. The paper argues masking pushes the number
/// "to an infeasible number" — here to infinity, since the masked peaks
/// are identically zero at any trace count.
pub fn dpa_sample_sweep(policy: MaskPolicy, rounds: usize, counts: &[usize]) -> Vec<SweepPoint> {
    let des = compile(policy, rounds);
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("probe run")
        .phase_window(Phase::Round(1))
        .expect("round 1");
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    counts
        .iter()
        .map(|&samples| {
            let oracle = |plaintext: u64| -> Vec<f64> {
                let run = des.encrypt(plaintext, KEY).expect("oracle run");
                run.trace.window(window.clone()).samples().to_vec()
            };
            let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 0x5EED };
            let result = recover_subkey_multibit(oracle, &cfg);
            let best_peak = result.peaks[result.best_guess as usize];
            SweepPoint {
                samples,
                recovered: result.best_guess == true_subkey && best_peak > 0.5,
                best_peak,
                margin: result.margin,
            }
        })
        .collect()
}

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
    /// Number of cycles with |t| above the 4.5 threshold.
    pub leaky_cycles: usize,
    /// Traces per group.
    pub group_size: usize,
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
            if self.max_t >= 4.5 { "LEAKS" } else { "clean" }
        )
    }
}

/// Runs the fixed-vs-random-key TVLA against the simulator under `policy`,
/// windowed from the key permutation through the last round (the output
/// permutation carries the public ciphertext and is excluded by design).
pub fn tvla(policy: MaskPolicy, rounds: usize, group_size: usize, seed: u64) -> TvlaReport {
    let des = compile(policy, rounds);
    let probe = des.encrypt(PLAINTEXT, KEY).expect("probe");
    let start = probe.phase_window(Phase::KeyPermutation).expect("kp").start;
    let end = probe.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fixed = TraceMatrix::new();
    let mut random = TraceMatrix::new();
    for _ in 0..group_size {
        let f = des.encrypt(PLAINTEXT, KEY).expect("fixed run");
        fixed.push(f.trace.window(start..end).samples().to_vec());
        let k: u64 = rng.gen();
        let r = des.encrypt(PLAINTEXT, k).expect("random run");
        random.push(r.trace.window(start..end).samples().to_vec());
    }
    let t = welch_t(&fixed, &random);
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
    TvlaReport { max_t, at_cycle, leaky_cycles, group_size }
}

/// [`tvla`] with acquisition sharded across `jobs` workers, folding each
/// trace pair straight into streaming [`OnlineWelch`] accumulators — no
/// trace matrix is retained, and the per-trial random key is derived from
/// `(seed, trial index)`, so the report is identical for any `jobs` value
/// (but uses a different key stream than the sequential-RNG [`tvla`]).
pub fn tvla_par(
    policy: MaskPolicy,
    rounds: usize,
    group_size: usize,
    seed: u64,
    jobs: Jobs,
) -> TvlaReport {
    let des = compile(policy, rounds);
    let probe = des.encrypt(PLAINTEXT, KEY).expect("probe");
    let start = probe.phase_window(Phase::KeyPermutation).expect("kp").start;
    let end = probe.phase_window(Phase::Round(rounds as u8)).expect("last round").end;
    let acc = fold_sharded(
        jobs,
        group_size,
        &CancelToken::new(),
        |_| OnlineWelch::new(),
        |acc, trials| {
            for i in trials {
                let f = des.encrypt(PLAINTEXT, KEY).expect("fixed run");
                acc.g0.push(f.trace.window(start..end).samples()).expect("aligned traces");
                let k: u64 = StdRng::seed_from_u64(trial_seed(seed, i as u64)).gen();
                let r = des.encrypt(PLAINTEXT, k).expect("random run");
                acc.g1.push(r.trace.window(start..end).samples()).expect("aligned traces");
            }
            Ok(())
        },
        |a, b| a.merge(b).expect("aligned shards"),
    )
    .unwrap_or_else(|_| unreachable!("a private never-cancelled token cannot interrupt"))
    .unwrap_or_default();
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
    TvlaReport { max_t, at_cycle, leaky_cycles, group_size }
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

    // Experiments run at 2 rounds in unit tests; the repro binary runs the
    // full 16 in release mode.

    #[test]
    fn fig6_trace_has_round_structure() {
        let (trace, _) = fig6_round_trace(2);
        assert!(trace.len() > 10_000);
        assert!(trace.mean_pj() > 100.0);
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
        let outcome = dpa_attack(MaskPolicy::None, 2, 96, 0);
        assert!(outcome.recovered, "{outcome}");
    }

    #[test]
    fn dpa_fails_on_masked_device() {
        let outcome = dpa_attack(MaskPolicy::Selective, 2, 96, 0);
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
        let report = coupling_study(1, 48, 0.05);
        assert!(report.leak_without_coupling_pj < 1e-9, "{report}");
        assert!(report.leak_with_coupling_pj > 0.1, "{report}");
        let s = report.to_string();
        assert!(s.contains("residual channel"));
    }

    #[test]
    fn sample_sweep_shape() {
        let unmasked = dpa_sample_sweep(MaskPolicy::None, 1, &[16, 64]);
        assert_eq!(unmasked.len(), 2);
        // More traces never shrink the physical peak to zero.
        assert!(unmasked.iter().all(|p| p.best_peak > 0.1));
        let masked = dpa_sample_sweep(MaskPolicy::Selective, 1, &[16, 64]);
        assert!(
            masked.iter().all(|p| !p.recovered && p.best_peak < 1e-6),
            "masked sweep leaked: {masked:?}"
        );
    }

    #[test]
    fn cpa_recovers_from_unmasked_and_fails_on_masked() {
        let unmasked = cpa_attack(MaskPolicy::None, 2, 96, 0);
        assert!(unmasked.recovered, "{unmasked}");
        let masked = cpa_attack(MaskPolicy::Selective, 2, 96, 0);
        assert!(!masked.recovered, "{masked}");
        assert!(masked.result.peaks.iter().all(|&p| p < 1e-6), "{masked}");
    }

    #[test]
    fn tvla_flags_the_unmasked_device_and_clears_the_masked_one() {
        let unmasked = tvla(MaskPolicy::None, 1, 10, 5);
        assert!(unmasked.max_t >= 4.5, "{unmasked}");
        let masked = tvla(MaskPolicy::Selective, 1, 10, 5);
        assert!(masked.max_t < 4.5, "{masked}");
        assert_eq!(masked.leaky_cycles, 0, "{masked}");
        assert!(masked.to_string().contains("clean"));
    }

    #[test]
    fn parallel_dpa_experiment_recovers_and_ignores_job_count() {
        let serial = dpa_attack_par(MaskPolicy::None, 1, 96, 0, Jobs::serial());
        assert!(serial.recovered, "{serial}");
        let par = dpa_attack_par(MaskPolicy::None, 1, 96, 0, Jobs::new(4).unwrap());
        assert_eq!(par.result, serial.result, "jobs must not change the result");
        assert_eq!(par.recovered, serial.recovered);
    }

    #[test]
    fn parallel_cpa_experiment_recovers_and_ignores_job_count() {
        let serial = cpa_attack_par(MaskPolicy::None, 1, 48, 0, Jobs::serial());
        assert!(serial.recovered, "{serial}");
        let par = cpa_attack_par(MaskPolicy::None, 1, 48, 0, Jobs::new(3).unwrap());
        assert_eq!(par.result, serial.result, "jobs must not change the result");
    }

    #[test]
    fn parallel_tvla_flags_unmasked_and_ignores_job_count() {
        let serial = tvla_par(MaskPolicy::None, 1, 8, 5, Jobs::serial());
        assert!(serial.max_t >= 4.5, "{serial}");
        let par = tvla_par(MaskPolicy::None, 1, 8, 5, Jobs::new(4).unwrap());
        assert_eq!(par.max_t.to_bits(), serial.max_t.to_bits(), "bit-identical t");
        assert_eq!(par.at_cycle, serial.at_cycle);
        assert_eq!(par.leaky_cycles, serial.leaky_cycles);
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
