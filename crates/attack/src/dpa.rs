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

use crate::online::{OnlineDpa, BLOCK};
use emask_des::bits::permute;
use emask_des::sbox_lookup;
use emask_des::{E, IP};
use emask_par::{fold_sharded, trial_seed, CancelToken, Interrupted, Jobs};
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

#[cfg(test)]
impl DpaResult {
    /// True if the campaign singled out `subkey` with a margin of at least
    /// `min_margin`.
    pub(crate) fn recovered(&self, subkey: u8, min_margin: f64) -> bool {
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

/// Ranks the 64 subkey guesses by their peak statistic: `ranks[g]` is the
/// 0-based rank of guess `g`, with rank 0 the leading guess. Ties break
/// toward the *higher* guess index, matching the argmax the DPA verdict
/// uses, so rank 0 always names `DpaResult::best_guess`. The rank of the
/// true subkey over a campaign is the standard key-rank convergence curve.
#[must_use]
pub fn guess_ranks(peaks: &[f64; 64]) -> [u8; 64] {
    let mut order: [u8; 64] = std::array::from_fn(|i| i as u8);
    order.sort_by(|&a, &b| peaks[b as usize].total_cmp(&peaks[a as usize]).then_with(|| b.cmp(&a)));
    let mut ranks = [0u8; 64];
    for (rank, &guess) in order.iter().enumerate() {
        ranks[guess as usize] = rank as u8;
    }
    ranks
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
pub(crate) fn sbox_chunk(plaintext: u64, sbox: usize) -> u8 {
    assert!(sbox < 8);
    let permuted = permute(plaintext, 64, &IP);
    let r0 = permuted as u32;
    let expanded = permute(u64::from(r0), 32, &E);
    ((expanded >> (42 - 6 * sbox)) & 0x3F) as u8
}

/// The plaintext of trial `index` in a seed-per-trial campaign: drawn from
/// an RNG seeded with [`trial_seed`]`(seed, index)`, so it is a pure
/// function of the pair — any worker can produce trial `index`'s input
/// without consuming a shared RNG stream. This is the one trial-identity
/// rule of every campaign: trial `i` sees the same plaintext at any
/// `--jobs` count and in any shard.
#[must_use]
pub fn plaintext_for(seed: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(trial_seed(seed, index)).gen()
}

/// The verdict over 64 per-guess peaks: the winning guess (the last of
/// equal maxima) and its margin over the runner-up — ∞ when only the
/// winner has a peak, 1 when no guess has one.
pub(crate) fn verdict(peaks: &[f64; 64]) -> (u8, f64) {
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
    (best_guess, margin)
}

pub(crate) fn result_from_peaks(peaks: [f64; 64], peak_cycles: [usize; 64]) -> DpaResult {
    let (best_guess, margin) = verdict(&peaks);
    DpaResult { peaks, peak_cycles, best_guess, margin }
}

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

/// Acquires `trials` in blocks of [`BLOCK`] and pushes each block into
/// `acc`, checking `token` before each trial and calling `on_trial(i)`
/// once trial `i` is pushed. `acc` folds each block when the next one
/// arrives; the last one stays pending until the shard's merge folds it
/// into the prefix, so a shard of at most one block never allocates sum
/// vectors. A trip returns `Err(trials pushed)`; the traces acquired for
/// the unfinished block are dropped.
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

/// Runs a multi-bit DPA campaign: `cfg.samples` traces from `oracle`,
/// the plaintext of trial `i` drawn by [`plaintext_for`]. `oracle` maps a
/// plaintext to its power trace — the physical measurement in the field,
/// the simulator here.
///
/// Multi-bit DPA aggregates the difference-of-means peaks of **all four**
/// output bits of the targeted S-box per guess; `peak_cycles` report the
/// peak of bit `cfg.bit`. Single-bit DES DPA suffers well-known ghost
/// peaks (wrong guesses whose selection bit correlates with the true
/// one); the four bits decorrelate differently per guess, so summing
/// their peaks suppresses ghosts at the same trace budget.
///
/// Acquisition is sharded across `jobs` workers and traces are folded, a
/// block at a time, into [`OnlineDpa`] accumulators that merge in fixed
/// shard order (see `emask_par::fold_sharded`): the result is
/// bit-identical for any `jobs` value, and memory does not grow with
/// `cfg.samples` — at most one merged prefix and one accumulator per
/// worker are alive at once, each O(guesses × trace_len); two at
/// `jobs = 1`. A shard of at most 16 traces holds only its raw traces,
/// which its merge folds straight into the prefix.
///
/// With `cadence: Some(c)`, every `c` trials (and once at the end; only
/// at the end for `Some(0)`) the merged accumulator over trials `0..b` is
/// handed to `on_snapshot(b, &result)` — the full 64-guess peak vector,
/// so callers can chart key-rank evolution and margin as the campaign
/// runs. Snapshots arrive in ascending trial order and are bit-identical
/// for any `jobs` count; a slow `on_snapshot` backpressures the
/// delivering worker. `None` takes no snapshots and clones nothing.
/// `on_trial(i)` fires from the worker that folded trial `i` (unordered,
/// possibly concurrent) for cheap throughput accounting.
///
/// `token` is checked at every trial boundary: a trip (client cancel,
/// deadline, shutdown) stops the campaign with a typed [`Interrupted`]
/// carrying the number of fully folded trials, and the snapshots
/// delivered before it are a byte-identical prefix of the uninterrupted
/// stream. A token that trips after the last trial folds has no effect.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trial has been
/// folded and merged.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
pub fn recover_subkey<F, S, T>(
    oracle: &F,
    cfg: &DpaConfig,
    jobs: Jobs,
    token: &CancelToken,
    cadence: Option<usize>,
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
    let acc = fold_sharded(
        jobs,
        cfg.samples,
        token,
        cadence,
        |spent| recycled(spent, &proto),
        |acc, trials| fold_trials(acc, trials, seed, oracle, token, &on_trial),
        |a, b| a.merge(b).expect("shards saw traces of different widths"),
        |trials, acc| on_snapshot(trials, &acc.result()),
    )?;
    Ok(acc.unwrap_or(proto).result())
}

/// [`recover_subkey`] with no token, snapshots or trial callback.
///
/// # Panics
///
/// As for [`recover_subkey`].
pub fn recover_subkey_multibit_par<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    recover_subkey(oracle, cfg, jobs, &CancelToken::new(), None, |_, _| {}, |_| {})
        .unwrap_or_else(|_| unreachable!("a private never-cancelled token cannot interrupt"))
}

/// Partition-and-difference analysis over an already-collected trace set:
/// the peak |difference of means| per guess for one selection bit. The
/// batch reference the single-pass [`OnlineDpa`] is checked against.
///
/// # Panics
///
/// Panics if `sbox >= 8` or `bit >= 4`.
#[cfg(test)]
pub(crate) fn analyze_bit(
    plaintexts: &[u64],
    traces: &[Vec<f64>],
    sbox: usize,
    bit: usize,
) -> ([f64; 64], [usize; 64]) {
    use crate::stats::{difference_of_means, peak, TraceMatrix};
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_des::KeySchedule;
    use std::sync::Mutex;

    const KEY: u64 = 0x1334_5779_9BBC_DFF1;

    /// A leakage-model oracle: one sample whose energy is proportional to
    /// the Hamming weight of the true S-box output, plus deterministic
    /// plaintext-correlated clutter elsewhere — the idealized physical
    /// device, leaking all four bits the multi-bit attack sums.
    fn leaky_oracle(sbox: usize) -> impl Fn(u64) -> Vec<f64> + Sync {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
        move |p: u64| {
            let hw: f64 = (0..4).map(|b| f64::from(selection_bit(p, subkey, sbox, b))).sum();
            let filler = (p % 17) as f64;
            vec![100.0 + filler, 100.0 + 10.0 * hw, 100.0 - filler]
        }
    }

    /// A perfectly masked oracle: constant energy regardless of data.
    fn flat_oracle(_p: u64) -> Vec<f64> {
        vec![150.0; 3]
    }

    /// [`recover_subkey`] at `jobs` workers, uncancelled, no snapshots.
    fn run<F: Fn(u64) -> Vec<f64> + Sync>(oracle: &F, cfg: &DpaConfig, jobs: usize) -> DpaResult {
        let jobs = Jobs::new(jobs).unwrap();
        recover_subkey(oracle, cfg, jobs, &CancelToken::new(), None, |_, _| {}, |_| {}).unwrap()
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
            let result = run(&leaky_oracle(sbox), &cfg, 1);
            let top = result.peaks.iter().copied().fold(0.0, f64::max);
            assert_eq!(result.peaks[subkey as usize], top, "S{}: {result}", sbox + 1);
            // On S4 another guess ties the true one on this Hamming-weight
            // leak (margin 1 at any trace count); elsewhere it stands out.
            if sbox != 3 {
                assert!(
                    result.recovered(subkey, 1.5),
                    "S{} expected {subkey:#04X}: {result}",
                    sbox + 1
                );
            }
        }
    }

    #[test]
    fn dpa_finds_nothing_on_flat_traces() {
        let cfg = DpaConfig { samples: 200, ..DpaConfig::default() };
        let result = run(&flat_oracle, &cfg, 1);
        assert!(result.peaks.iter().all(|&p| p < 1e-9), "flat traces must not leak");
        assert!((result.margin - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dpa_peak_lands_on_the_leaky_cycle() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 7 };
        let result = run(&leaky_oracle(0), &cfg, 1);
        assert_eq!(result.peak_cycles[subkey as usize], 1, "leak injected at cycle 1");
    }

    #[test]
    fn margin_reflects_sample_count() {
        // More samples → cleaner partition → larger margin.
        let small = run(&leaky_oracle(0), &DpaConfig { samples: 50, sbox: 0, bit: 0, seed: 3 }, 1);
        let large = run(&leaky_oracle(0), &DpaConfig { samples: 800, sbox: 0, bit: 0, seed: 3 }, 1);
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
        let r = run(&leaky_oracle(0), &cfg, 1);
        assert!(r.to_string().contains("best guess"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let cfg = DpaConfig { samples: 0, ..DpaConfig::default() };
        run(&flat_oracle, &cfg, 1);
    }

    #[test]
    fn trial_i_is_drawn_by_plaintext_for() {
        let seen = Mutex::new(Vec::new());
        let oracle = |p: u64| {
            seen.lock().unwrap().push(p);
            vec![(p % 251) as f64]
        };
        run(&oracle, &DpaConfig { samples: 100, sbox: 0, bit: 0, seed: 7 }, 4);
        let mut seen = seen.into_inner().unwrap();
        let mut want: Vec<u64> = (0..100).map(|i| plaintext_for(7, i)).collect();
        seen.sort_unstable();
        want.sort_unstable();
        assert_eq!(seen, want, "each trial's plaintext, each exactly once");
    }

    #[test]
    fn parallel_dpa_recovers_subkey_and_ignores_job_count() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let oracle = leaky_oracle(0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 42 };
        let serial = run(&oracle, &cfg, 1);
        assert!(serial.recovered(subkey, 1.5), "{serial}");
        for jobs in [2usize, 4, 7] {
            assert_eq!(run(&oracle, &cfg, jobs), serial, "jobs = {jobs}");
        }
        assert_eq!(recover_subkey_multibit_par(&oracle, &cfg, Jobs::new(4).unwrap()), serial);
    }

    /// One snapshot as comparable bytes: `(trials, best_guess, margin
    /// bits, peak bits)`.
    type Snap = (usize, u8, u64, Vec<u64>);

    fn snap(trials: usize, r: &DpaResult) -> Snap {
        (trials, r.best_guess, r.margin.to_bits(), r.peaks.iter().map(|p| p.to_bits()).collect())
    }

    /// The snapshot stream of a run.
    fn snapshot_stream(cfg: &DpaConfig, jobs: usize, cadence: usize) -> Vec<Snap> {
        let oracle = leaky_oracle(0);
        let log = Mutex::new(Vec::new());
        recover_subkey(
            &oracle,
            cfg,
            Jobs::new(jobs).unwrap(),
            &CancelToken::new(),
            Some(cadence),
            |trials, r: &DpaResult| log.lock().unwrap().push(snap(trials, r)),
            |_| {},
        )
        .unwrap();
        log.into_inner().unwrap()
    }

    #[test]
    fn snapshotted_dpa_matches_plain_parallel_run_and_any_job_count() {
        let oracle = leaky_oracle(0);
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let plain = run(&oracle, &cfg, 4);
        let snapped = recover_subkey(
            &oracle,
            &cfg,
            Jobs::new(4).unwrap(),
            &CancelToken::new(),
            Some(50),
            |_, _| {},
            |_| {},
        )
        .unwrap();
        assert_eq!(snapped, plain, "snapshotting must not perturb the verdict");

        let serial = snapshot_stream(&cfg, 1, 50);
        // Boundaries 50, 100, 150, and the final 160, in ascending order.
        assert_eq!(serial.iter().map(|s| s.0).collect::<Vec<_>>(), vec![50, 100, 150, 160]);
        for jobs in [4usize, 7] {
            assert_eq!(snapshot_stream(&cfg, jobs, 50), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn cancelled_snapshotted_dpa_streams_a_prefix_then_interrupts() {
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let full = snapshot_stream(&cfg, 1, 50);
        let oracle = leaky_oracle(0);
        let token = CancelToken::new();
        let log = Mutex::new(Vec::new());
        let err = recover_subkey(
            &oracle,
            &cfg,
            Jobs::new(1).unwrap(),
            &token,
            Some(50),
            |trials, r: &DpaResult| {
                log.lock().unwrap().push(snap(trials, r));
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
        let oracle = leaky_oracle(0);
        let cfg = DpaConfig { samples: 120, sbox: 0, bit: 0, seed: 9 };
        let last = Mutex::new(None);
        let trials_seen = std::sync::atomic::AtomicUsize::new(0);
        let result = recover_subkey(
            &oracle,
            &cfg,
            Jobs::new(2).unwrap(),
            &CancelToken::new(),
            Some(0), // final-only cadence
            |trials, r: &DpaResult| {
                *last.lock().unwrap() = Some((trials, r.clone()));
            },
            |_| {
                trials_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        )
        .unwrap();
        let (trials, snap) = last.into_inner().unwrap().expect("final snapshot fired");
        assert_eq!(trials, 120);
        assert_eq!(snap, result);
        assert_eq!(trials_seen.into_inner(), 120, "on_trial fires once per trial");
    }

    #[test]
    fn no_cadence_takes_no_snapshots() {
        let cfg = DpaConfig { samples: 40, sbox: 0, bit: 0, seed: 9 };
        let oracle = leaky_oracle(0);
        let jobs = Jobs::new(2).unwrap();
        let token = CancelToken::new();
        recover_subkey(&oracle, &cfg, jobs, &token, None, |_, _| panic!("snapshot"), |_| {})
            .unwrap();
    }

    #[test]
    fn guess_ranks_orders_by_peak_descending() {
        let mut peaks = [0.0f64; 64];
        peaks[5] = 3.0;
        peaks[17] = 2.0;
        peaks[40] = 1.0;
        let ranks = guess_ranks(&peaks);
        assert_eq!(ranks[5], 0);
        assert_eq!(ranks[17], 1);
        assert_eq!(ranks[40], 2);
        // Every rank 0..64 appears exactly once.
        let mut seen = [false; 64];
        for &r in &ranks {
            assert!(!seen[r as usize], "rank {r} assigned twice");
            seen[r as usize] = true;
        }
    }

    #[test]
    fn guess_ranks_ties_break_toward_higher_guess() {
        // All-equal peaks: the verdict's `max_by` keeps the last maximum,
        // so rank 0 must be guess 63.
        let peaks = [1.0f64; 64];
        let ranks = guess_ranks(&peaks);
        assert_eq!(ranks[63], 0);
        assert_eq!(ranks[0], 63);
    }
}
