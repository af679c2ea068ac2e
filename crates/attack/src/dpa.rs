//! Differential power analysis against round 1 of DES.
//!
//! Implements the attack the paper defends against (§1, after Kocher et
//! al. and Goubin & Patarin): collect traces for many random plaintexts
//! under a fixed unknown key; for each 6-bit guess of one S-box's round-1
//! subkey, predict an intermediate bit, split the traces into two groups
//! by that bit, and compute the difference of means. The correct guess
//! produces a genuine physical partition and hence a peak; wrong guesses
//! decorrelate and flatten; a masked implementation flattens *every*
//! guess.

use crate::online::OnlineDpa;
use crate::progress::AttackProgress;
use crate::stats::{difference_of_means, peak, TraceMatrix};
use emask_des::bits::permute;
use emask_des::cipher::sbox_lookup;
use emask_des::tables::{E, IP};
use emask_par::{
    fold_sharded, par_map, run_sharded_snapshotted_cancellable, trial_seed, CancelToken,
    Interrupted, Jobs,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;

/// DPA campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpaConfig {
    /// Number of random plaintexts / traces.
    pub samples: usize,
    /// Which S-box to target (0-based, S1 = 0).
    pub sbox: usize,
    /// Which of the S-box's 4 output bits to predict (0 = MSB).
    pub bit: usize,
    /// RNG seed for plaintext sampling (reproducibility).
    pub seed: u64,
}

impl Default for DpaConfig {
    fn default() -> Self {
        Self { samples: 200, sbox: 0, bit: 0, seed: 0xD5A }
    }
}

/// Outcome of a DPA campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DpaResult {
    /// Peak |difference-of-means| for each of the 64 subkey guesses.
    pub peaks: [f64; 64],
    /// The cycle index of each guess's peak.
    pub peak_cycles: [usize; 64],
    /// The guess with the highest peak.
    pub best_guess: u8,
    /// `best peak / second-best peak` — the attack's confidence; ≈1 means
    /// the attack found nothing.
    pub margin: f64,
}

impl DpaResult {
    /// True if the campaign singled out `subkey` with a margin of at least
    /// `min_margin`.
    pub fn recovered(&self, subkey: u8, min_margin: f64) -> bool {
        self.best_guess == subkey && self.margin >= min_margin
    }
}

impl fmt::Display for DpaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DPA: best guess {:#04X} (peak {:.2} pJ, margin {:.2}x)",
            self.best_guess, self.peaks[self.best_guess as usize], self.margin
        )
    }
}

/// The selection function: the predicted value of output bit `bit` of
/// S-box `sbox` in round 1, for `plaintext` under 6-bit subkey `guess`.
///
/// This is pure DES structure — `IP`, then `E(R0)`, then the guessed
/// subkey XOR, then the S-box — exactly what an attacker computes.
///
/// # Panics
///
/// Panics if `sbox >= 8`, `bit >= 4`, or `guess >= 64`.
pub fn selection_bit(plaintext: u64, guess: u8, sbox: usize, bit: usize) -> bool {
    assert!(sbox < 8 && bit < 4 && guess < 64);
    let s_out = sbox_lookup(sbox, sbox_chunk(plaintext, sbox) ^ guess);
    (s_out >> (3 - bit)) & 1 == 1
}

/// The 6-bit S-box input chunk `E(R0)` feeds into S-box `sbox` in round 1,
/// before the subkey XOR — the plaintext-derived half of the selection
/// function. Computing it once per trace lets single-pass accumulators
/// evaluate all 64 guesses with one table lookup each instead of repeating
/// the permutations per guess.
///
/// # Panics
///
/// Panics if `sbox >= 8`.
pub fn sbox_chunk(plaintext: u64, sbox: usize) -> u8 {
    assert!(sbox < 8);
    let permuted = permute(plaintext, 64, &IP);
    let r0 = permuted as u32;
    let expanded = permute(u64::from(r0), 32, &E);
    ((expanded >> (42 - 6 * sbox)) & 0x3F) as u8
}

/// Collects the trace set for a campaign: `samples` random plaintexts and
/// their traces from `oracle`.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn collect_traces<F>(oracle: F, samples: usize, seed: u64) -> (Vec<u64>, Vec<Vec<f64>>)
where
    F: FnMut(u64) -> Vec<f64>,
{
    collect_traces_with(oracle, samples, seed, &mut ())
}

/// [`collect_traces`] with per-trace progress reporting:
/// [`AttackProgress::on_trace`] fires as each trace lands — the campaign's
/// dominant cost against the cycle-accurate simulator.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn collect_traces_with<F, P>(
    mut oracle: F,
    samples: usize,
    seed: u64,
    progress: &mut P,
) -> (Vec<u64>, Vec<Vec<f64>>)
where
    F: FnMut(u64) -> Vec<f64>,
    P: AttackProgress,
{
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let plaintexts: Vec<u64> = (0..samples).map(|_| rng.gen()).collect();
    let traces: Vec<Vec<f64>> = plaintexts
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let t = oracle(p);
            progress.on_trace(i, samples, t.len());
            t
        })
        .collect();
    (plaintexts, traces)
}

/// The plaintext of trial `index` in a seed-per-trial campaign: drawn from
/// an RNG seeded with [`trial_seed`]`(seed, index)`, so it is a pure
/// function of the pair — any worker can produce trial `index`'s input
/// without consuming a shared RNG stream. The parallel entry points use
/// this instead of the sequential draw in [`collect_traces`], which is why
/// their trace sets differ from the legacy serial ones (but are identical
/// across `--jobs` counts).
#[must_use]
pub fn plaintext_for(seed: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(trial_seed(seed, index)).gen()
}

/// Parallel [`collect_traces`]: shards acquisition across `jobs` workers
/// with per-trial plaintexts from [`plaintext_for`]. The returned vectors
/// are in trial order and identical for any `jobs` value.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn collect_traces_par<F>(
    oracle: &F,
    samples: usize,
    seed: u64,
    jobs: Jobs,
) -> (Vec<u64>, Vec<Vec<f64>>)
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    assert!(samples > 0, "need at least one sample");
    let pairs = par_map(jobs, samples, |i| {
        let p = plaintext_for(seed, i as u64);
        let t = oracle(p);
        (p, t)
    });
    pairs.into_iter().unzip()
}

/// Partition-and-difference analysis over an already-collected trace set:
/// the peak |difference of means| per guess for one selection bit.
///
/// # Panics
///
/// Panics if `sbox >= 8` or `bit >= 4`.
pub fn analyze_bit(
    plaintexts: &[u64],
    traces: &[Vec<f64>],
    sbox: usize,
    bit: usize,
) -> ([f64; 64], [usize; 64]) {
    assert!(sbox < 8 && bit < 4);
    let mut peaks = [0.0f64; 64];
    let mut peak_cycles = [0usize; 64];
    for guess in 0..64u8 {
        let mut g0 = TraceMatrix::new();
        let mut g1 = TraceMatrix::new();
        for (p, t) in plaintexts.iter().zip(traces) {
            if selection_bit(*p, guess, sbox, bit) {
                g1.push(t.clone());
            } else {
                g0.push(t.clone());
            }
        }
        let dom = difference_of_means(&g0, &g1);
        let (cycle, magnitude) = peak(&dom);
        peaks[guess as usize] = magnitude;
        peak_cycles[guess as usize] = cycle;
    }
    (peaks, peak_cycles)
}

pub(crate) fn result_from_peaks(peaks: [f64; 64], peak_cycles: [usize; 64]) -> DpaResult {
    let best_guess = (0..64).max_by(|&a, &b| peaks[a].total_cmp(&peaks[b])).unwrap_or(0) as u8;
    let best = peaks[best_guess as usize];
    let second = peaks
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best_guess as usize)
        .map(|(_, &v)| v)
        .fold(0.0f64, f64::max);
    let margin = if second > 1e-12 {
        best / second
    } else if best > 1e-12 {
        f64::INFINITY
    } else {
        1.0
    };
    DpaResult { peaks, peak_cycles, best_guess, margin }
}

/// Runs a single-bit DPA campaign. `oracle` maps a plaintext to its power
/// trace — the physical measurement in the field, the simulator here.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
pub fn recover_subkey<F>(oracle: F, cfg: &DpaConfig) -> DpaResult
where
    F: FnMut(u64) -> Vec<f64>,
{
    recover_subkey_with(oracle, cfg, &mut ())
}

/// [`recover_subkey`] with progress reporting: per-trace collection,
/// per-guess difference-of-means peaks, and the final verdict.
///
/// # Panics
///
/// As for [`recover_subkey`].
pub fn recover_subkey_with<F, P>(oracle: F, cfg: &DpaConfig, progress: &mut P) -> DpaResult
where
    F: FnMut(u64) -> Vec<f64>,
    P: AttackProgress,
{
    let (plaintexts, traces) = collect_traces_with(oracle, cfg.samples, cfg.seed, progress);
    let (peaks, cycles) = analyze_bit(&plaintexts, &traces, cfg.sbox, cfg.bit);
    for g in 0..64 {
        progress.on_guess(g as u8, peaks[g], cycles[g]);
    }
    let result = result_from_peaks(peaks, cycles);
    progress.on_complete(result.best_guess, result.margin);
    result
}

/// Multi-bit DPA: aggregates the difference-of-means peaks of **all four**
/// output bits of the targeted S-box per guess. DES single-bit DPA suffers
/// well-known ghost peaks (wrong guesses whose selection bit correlates
/// with the true one); the four bits decorrelate differently per guess, so
/// summing their peaks suppresses ghosts at the same trace budget.
///
/// # Panics
///
/// As for [`recover_subkey`].
pub fn recover_subkey_multibit<F>(oracle: F, cfg: &DpaConfig) -> DpaResult
where
    F: FnMut(u64) -> Vec<f64>,
{
    recover_subkey_multibit_with(oracle, cfg, &mut ())
}

/// [`recover_subkey_multibit`] with progress reporting; per-guess events
/// carry the four-bit aggregate peak.
///
/// # Panics
///
/// As for [`recover_subkey`].
pub fn recover_subkey_multibit_with<F, P>(oracle: F, cfg: &DpaConfig, progress: &mut P) -> DpaResult
where
    F: FnMut(u64) -> Vec<f64>,
    P: AttackProgress,
{
    let (plaintexts, traces) = collect_traces_with(oracle, cfg.samples, cfg.seed, progress);
    let mut peaks = [0.0f64; 64];
    let mut peak_cycles = [0usize; 64];
    for bit in 0..4 {
        let (p, c) = analyze_bit(&plaintexts, &traces, cfg.sbox, bit);
        for g in 0..64 {
            peaks[g] += p[g];
            if bit == cfg.bit {
                peak_cycles[g] = c[g];
            }
        }
    }
    for g in 0..64 {
        progress.on_guess(g as u8, peaks[g], peak_cycles[g]);
    }
    let result = result_from_peaks(peaks, peak_cycles);
    progress.on_complete(result.best_guess, result.margin);
    result
}

/// Traces a DPA shard acquires before folding them in one
/// [`OnlineDpa::push_block`]: the 256 sum vectors (40 MB for a 1-round
/// window) then stream through memory once per 16 traces, not per trace.
const BLOCK: usize = 16;

/// A shard's empty accumulator: a spent one cleared for reuse, else a
/// clone of `proto`.
fn recycled(spent: Option<OnlineDpa>, proto: &OnlineDpa) -> OnlineDpa {
    match spent {
        Some(mut acc) => {
            acc.clear();
            acc
        }
        None => proto.clone(),
    }
}

/// Acquires `trials` in blocks of [`BLOCK`] and folds each block into
/// `acc`, checking `token` before each trial and calling `on_trial(i)`
/// once trial `i` is folded. A trip returns `Err(trials folded)`; the
/// traces acquired for the unfinished block are dropped.
fn fold_trials<F, T>(
    acc: &mut OnlineDpa,
    trials: Range<usize>,
    seed: u64,
    oracle: &F,
    token: &CancelToken,
    on_trial: T,
) -> Result<(), usize>
where
    F: Fn(u64) -> Vec<f64>,
    T: Fn(usize),
{
    let mut plaintexts = Vec::with_capacity(BLOCK);
    let mut traces = Vec::with_capacity(BLOCK);
    for start in trials.clone().step_by(BLOCK) {
        let block = start..trials.end.min(start + BLOCK);
        plaintexts.clear();
        traces.clear();
        for i in block.clone() {
            token.check().map_err(|_| start - trials.start)?;
            let p = plaintext_for(seed, i as u64);
            plaintexts.push(p);
            traces.push(oracle(p));
        }
        acc.push_block(&plaintexts, &traces).expect("oracle produced a misaligned trace");
        block.for_each(&on_trial);
    }
    Ok(())
}

/// Shards a streaming-DPA campaign across `jobs` workers: each shard
/// folds its trials into its accumulator a block at a time, and shards
/// merge in fixed order as they finish.
fn run_online_dpa<F>(
    oracle: &F,
    samples: usize,
    seed: u64,
    jobs: Jobs,
    proto: OnlineDpa,
) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    assert!(samples > 0, "need at least one sample");
    let token = CancelToken::new();
    let folded = fold_sharded(
        jobs,
        samples,
        &token,
        |spent| recycled(spent, &proto),
        |acc, trials| fold_trials(acc, trials, seed, oracle, &token, |_| {}),
        |a, b| a.merge(b).expect("shards saw traces of different widths"),
    );
    match folded {
        Ok(acc) => acc.unwrap_or(proto).result(),
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// Parallel, single-pass [`recover_subkey`]: trace acquisition is sharded
/// across `jobs` workers and traces are folded, a block at a time, into
/// [`OnlineDpa`] accumulators; the result is bit-identical for any `jobs`
/// value. Memory does not grow with `cfg.samples`: at most one merged
/// prefix, one accumulator per worker, and the shards that finished
/// ahead of a slower earlier shard (see `emask_par::fold_sharded`) are
/// alive at once, each O(guesses × trace_len) — two at `jobs = 1`.
/// Plaintexts come from [`plaintext_for`], so the trace set differs from
/// the sequential-RNG [`recover_subkey`] at the same seed.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
pub fn recover_subkey_par<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    run_online_dpa(oracle, cfg.samples, cfg.seed, jobs, OnlineDpa::single(cfg.sbox, cfg.bit))
}

/// Parallel, single-pass [`recover_subkey_multibit`]; see
/// [`recover_subkey_par`] for the sharding and seeding contract.
///
/// # Panics
///
/// As for [`recover_subkey_par`].
pub fn recover_subkey_multibit_par<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    run_online_dpa(oracle, cfg.samples, cfg.seed, jobs, OnlineDpa::multibit(cfg.sbox, cfg.bit))
}

/// [`recover_subkey_multibit_par`] with a live convergence feed: every
/// `cadence` trials (and once at the end) the merged accumulator over
/// trials `0..b` is sampled and handed to `on_snapshot(b, &result)` — the
/// full 64-guess peak vector, so callers can chart key-rank evolution and
/// best-vs-runner-up margin as the campaign runs. `on_trial(i)` fires from
/// the worker that folded trial `i` (unordered, possibly concurrent) for
/// cheap throughput/ETA accounting.
///
/// Snapshots arrive in ascending trial order and are **bit-identical for
/// any `jobs` count** — see `run_sharded_snapshotted_cancellable` for the
/// merge-order contract. `cadence == 0` emits only the final snapshot. A
/// slow `on_snapshot` backpressures the delivering worker rather than
/// buffering unboundedly.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
pub fn recover_subkey_multibit_par_snapshotted<F, S, T>(
    oracle: &F,
    cfg: &DpaConfig,
    jobs: Jobs,
    cadence: usize,
    on_snapshot: S,
    on_trial: T,
) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
    S: Fn(usize, &DpaResult) + Sync,
    T: Fn(usize) + Sync,
{
    match recover_subkey_multibit_par_snapshotted_cancellable(
        oracle,
        cfg,
        jobs,
        cadence,
        &CancelToken::new(),
        on_snapshot,
        on_trial,
    ) {
        Ok(result) => result,
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// [`recover_subkey_multibit_par_snapshotted`] under a cooperative
/// [`CancelToken`]: the token is checked at every trial boundary, and a
/// trip (client cancel, deadline, shutdown) stops the campaign cleanly
/// with a typed [`Interrupted`] carrying the number of fully folded
/// trials. The snapshot stream delivered before the interrupt is a
/// **prefix** of the uninterrupted stream — byte-identical snapshots in
/// the same ascending order — so supervision (emask-serve) can resume the
/// attack later and splice the streams without re-emitting or diverging.
/// A token that trips after the last trial folds has no effect: a
/// completed run is always delivered.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trial has been
/// folded and merged.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
#[allow(clippy::too_many_arguments)]
pub fn recover_subkey_multibit_par_snapshotted_cancellable<F, S, T>(
    oracle: &F,
    cfg: &DpaConfig,
    jobs: Jobs,
    cadence: usize,
    token: &CancelToken,
    on_snapshot: S,
    on_trial: T,
) -> Result<DpaResult, Interrupted>
where
    F: Fn(u64) -> Vec<f64> + Sync,
    S: Fn(usize, &DpaResult) + Sync,
    T: Fn(usize) + Sync,
{
    assert!(cfg.samples > 0, "need at least one sample");
    let proto = OnlineDpa::multibit(cfg.sbox, cfg.bit);
    let seed = cfg.seed;
    let acc = run_sharded_snapshotted_cancellable(
        jobs,
        cfg.samples,
        cadence,
        token,
        |spent| recycled(spent, &proto),
        |acc, trials| fold_trials(acc, trials, seed, oracle, token, &on_trial),
        |a, b| a.merge(b).expect("shards saw traces of different widths"),
        |trials, acc| on_snapshot(trials, &acc.result()),
    )?;
    Ok(acc.unwrap_or(proto).result())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_des::KeySchedule;

    const KEY: u64 = 0x1334_5779_9BBC_DFF1;

    /// A leakage-model oracle: the trace has one sample whose energy is
    /// proportional to the true selection bit, plus deterministic "noise"
    /// elsewhere — the idealized physical device.
    fn leaky_oracle(sbox: usize, bit: usize) -> impl FnMut(u64) -> Vec<f64> {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
        move |p: u64| {
            let b = selection_bit(p, subkey, sbox, bit);
            let filler = (p % 17) as f64; // plaintext-correlated clutter
            vec![100.0 + filler, 100.0 + if b { 25.0 } else { 0.0 }, 100.0 - filler]
        }
    }

    /// A perfectly masked oracle: constant energy regardless of data.
    fn flat_oracle(_p: u64) -> Vec<f64> {
        vec![150.0; 3]
    }

    #[test]
    fn selection_bit_matches_golden_first_round() {
        // Against the traced golden model: the selection function under
        // the *true* subkey must equal the actual S-box output bit.
        let ks = KeySchedule::new(KEY);
        let des = emask_des::Des::new(KEY);
        for p in [0u64, 0x0123_4567_89AB_CDEF, 0xFFFF_FFFF_0000_0000] {
            let (_, trace) = des.encrypt_block_traced(p);
            for sbox in 0..8 {
                let subkey = ks.round_key(1).sbox_slice(sbox);
                let sbox_in = ((trace.sbox_in[0] >> (42 - 6 * sbox)) & 0x3F) as u8;
                let s_out = sbox_lookup(sbox, sbox_in);
                for bit in 0..4 {
                    let expect = (s_out >> (3 - bit)) & 1 == 1;
                    assert_eq!(selection_bit(p, subkey, sbox, bit), expect);
                }
            }
        }
    }

    #[test]
    fn dpa_recovers_subkey_from_leaky_device() {
        for sbox in [0usize, 3, 7] {
            let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
            let cfg = DpaConfig { samples: 400, sbox, bit: 0, seed: 42 };
            let result = recover_subkey(leaky_oracle(sbox, 0), &cfg);
            assert!(
                result.recovered(subkey, 1.5),
                "S{} expected {subkey:#04X}: {result}",
                sbox + 1
            );
        }
    }

    #[test]
    fn dpa_finds_nothing_on_flat_traces() {
        let cfg = DpaConfig { samples: 200, ..DpaConfig::default() };
        let result = recover_subkey(flat_oracle, &cfg);
        assert!(result.peaks.iter().all(|&p| p < 1e-9), "flat traces must not leak");
        assert!((result.margin - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dpa_peak_lands_on_the_leaky_cycle() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 7 };
        let result = recover_subkey(leaky_oracle(0, 0), &cfg);
        assert_eq!(result.peak_cycles[subkey as usize], 1, "leak injected at cycle 1");
    }

    #[test]
    fn margin_reflects_sample_count() {
        // More samples → cleaner partition → larger margin.
        let small = recover_subkey(
            leaky_oracle(0, 0),
            &DpaConfig { samples: 50, sbox: 0, bit: 0, seed: 3 },
        );
        let large = recover_subkey(
            leaky_oracle(0, 0),
            &DpaConfig { samples: 800, sbox: 0, bit: 0, seed: 3 },
        );
        assert!(
            large.margin >= small.margin * 0.8,
            "large {} small {}",
            large.margin,
            small.margin
        );
        assert!(large.margin > 1.5);
    }

    #[test]
    fn result_display_mentions_guess() {
        let cfg = DpaConfig { samples: 100, sbox: 0, bit: 0, seed: 9 };
        let r = recover_subkey(leaky_oracle(0, 0), &cfg);
        assert!(r.to_string().contains("best guess"));
    }

    #[test]
    fn progress_counters_see_the_whole_campaign() {
        use crate::progress::ProgressCounters;
        let cfg = DpaConfig { samples: 50, sbox: 0, bit: 0, seed: 11 };
        let mut prog = ProgressCounters::new();
        let result = recover_subkey_with(leaky_oracle(0, 0), &cfg, &mut prog);
        assert_eq!(prog.traces, 50);
        assert_eq!(prog.trace_samples, 50 * 3);
        assert_eq!(prog.guesses, 64);
        assert_eq!(prog.outcome, Some((result.best_guess, result.margin)));
        assert_eq!(prog.leader.map(|(g, _)| g), Some(result.best_guess));
        // A genuine leak converges: far fewer lead changes than guesses.
        assert!(prog.lead_changes < 64);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let cfg = DpaConfig { samples: 0, ..DpaConfig::default() };
        recover_subkey(flat_oracle, &cfg);
    }

    /// The leaky oracle as a `Fn + Sync` closure for the parallel paths.
    fn sync_leaky_oracle(sbox: usize, bit: usize) -> impl Fn(u64) -> Vec<f64> + Sync {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
        move |p: u64| {
            let b = selection_bit(p, subkey, sbox, bit);
            let filler = (p % 17) as f64;
            vec![100.0 + filler, 100.0 + if b { 25.0 } else { 0.0 }, 100.0 - filler]
        }
    }

    #[test]
    fn parallel_dpa_recovers_subkey_and_ignores_job_count() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let oracle = sync_leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 42 };
        let serial = recover_subkey_par(&oracle, &cfg, Jobs::serial());
        assert!(serial.recovered(subkey, 1.5), "{serial}");
        for jobs in [2usize, 4, 7] {
            let par = recover_subkey_par(&oracle, &cfg, Jobs::new(jobs).unwrap());
            assert_eq!(par, serial, "jobs = {jobs}");
        }
        // The multibit variant wants all four output bits leaking — give it
        // a Hamming-weight oracle and it singles the subkey out sharply.
        let hw_oracle = move |p: u64| {
            let hw: f64 = (0..4).map(|b| f64::from(selection_bit(p, subkey, 0, b))).sum();
            vec![100.0 + (p % 17) as f64, 100.0 + 10.0 * hw]
        };
        let multi = recover_subkey_multibit_par(&hw_oracle, &cfg, Jobs::new(4).unwrap());
        assert!(multi.recovered(subkey, 1.5), "{multi}");
        assert_eq!(multi, recover_subkey_multibit_par(&hw_oracle, &cfg, Jobs::new(7).unwrap()));
    }

    /// The snapshot stream of a run as comparable bytes: `(trials,
    /// best_guess, margin bits, peak bits)` per snapshot.
    fn snapshot_stream(
        cfg: &DpaConfig,
        jobs: usize,
        cadence: usize,
    ) -> Vec<(usize, u8, u64, Vec<u64>)> {
        let oracle = sync_leaky_oracle(0, 0);
        let log = std::sync::Mutex::new(Vec::new());
        recover_subkey_multibit_par_snapshotted(
            &oracle,
            cfg,
            Jobs::new(jobs).unwrap(),
            cadence,
            |trials, r: &DpaResult| {
                log.lock().unwrap().push((
                    trials,
                    r.best_guess,
                    r.margin.to_bits(),
                    r.peaks.iter().map(|p| p.to_bits()).collect(),
                ));
            },
            |_| {},
        );
        log.into_inner().unwrap()
    }

    #[test]
    fn snapshotted_dpa_matches_plain_parallel_run_and_any_job_count() {
        let oracle = sync_leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let plain = recover_subkey_multibit_par(&oracle, &cfg, Jobs::new(4).unwrap());
        let snapped = recover_subkey_multibit_par_snapshotted(
            &oracle,
            &cfg,
            Jobs::new(4).unwrap(),
            50,
            |_, _| {},
            |_| {},
        );
        assert_eq!(snapped, plain, "snapshotting must not perturb the verdict");

        let serial = snapshot_stream(&cfg, 1, 50);
        // Boundaries 50, 100, 150, and the final 160, in ascending order.
        assert_eq!(serial.iter().map(|s| s.0).collect::<Vec<_>>(), vec![50, 100, 150, 160]);
        for jobs in [4usize, 7] {
            assert_eq!(snapshot_stream(&cfg, jobs, 50), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn uncancelled_snapshotted_cancellable_dpa_is_bit_identical() {
        let oracle = sync_leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let plain = recover_subkey_multibit_par_snapshotted(
            &oracle,
            &cfg,
            Jobs::new(4).unwrap(),
            50,
            |_, _| {},
            |_| {},
        );
        let token = CancelToken::new();
        let cancellable = recover_subkey_multibit_par_snapshotted_cancellable(
            &oracle,
            &cfg,
            Jobs::new(4).unwrap(),
            50,
            &token,
            |_, _| {},
            |_| {},
        )
        .expect("untripped token never interrupts");
        assert_eq!(cancellable, plain, "cancellable harness must be bit-identical");
    }

    #[test]
    fn cancelled_snapshotted_dpa_streams_a_prefix_then_interrupts() {
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let full = snapshot_stream(&cfg, 1, 50);
        let oracle = sync_leaky_oracle(0, 0);
        let token = CancelToken::new();
        let log = std::sync::Mutex::new(Vec::new());
        let err = recover_subkey_multibit_par_snapshotted_cancellable(
            &oracle,
            &cfg,
            Jobs::new(1).unwrap(),
            50,
            &token,
            |trials, r: &DpaResult| {
                log.lock().unwrap().push((
                    trials,
                    r.best_guess,
                    r.margin.to_bits(),
                    r.peaks.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
                ));
                if trials == 50 {
                    token.cancel(emask_par::CancelReason::Cancelled);
                }
            },
            |_| {},
        )
        .expect_err("a token tripped mid-run must interrupt");
        assert_eq!(err.reason, emask_par::CancelReason::Cancelled);
        let emitted = log.into_inner().unwrap();
        assert!(!emitted.is_empty());
        assert_eq!(
            emitted.as_slice(),
            &full[..emitted.len()],
            "interrupted stream must be a bit-identical prefix of the full one"
        );
    }

    #[test]
    fn snapshotted_dpa_last_snapshot_is_the_final_verdict() {
        let oracle = sync_leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 120, sbox: 0, bit: 0, seed: 9 };
        let last = std::sync::Mutex::new(None);
        let trials_seen = std::sync::atomic::AtomicUsize::new(0);
        let result = recover_subkey_multibit_par_snapshotted(
            &oracle,
            &cfg,
            Jobs::new(2).unwrap(),
            0, // final-only cadence
            |trials, r: &DpaResult| {
                *last.lock().unwrap() = Some((trials, r.clone()));
            },
            |_| {
                trials_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        );
        let (trials, snap) = last.into_inner().unwrap().expect("final snapshot fired");
        assert_eq!(trials, 120);
        assert_eq!(snap, result);
        assert_eq!(trials_seen.into_inner(), 120, "on_trial fires once per trial");
    }

    #[test]
    fn parallel_collection_is_in_trial_order_for_any_job_count() {
        let oracle = |p: u64| vec![(p % 251) as f64];
        let (p1, t1) = collect_traces_par(&oracle, 100, 7, Jobs::serial());
        let (p4, t4) = collect_traces_par(&oracle, 100, 7, Jobs::new(4).unwrap());
        assert_eq!(p1, p4);
        assert_eq!(t1, t4);
        assert_eq!(p1[3], plaintext_for(7, 3));
    }
}
