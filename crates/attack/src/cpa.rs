//! Correlation power analysis (CPA) — the modern refinement of DPA.
//!
//! Where DPA partitions traces by a single predicted bit, CPA correlates
//! the trace at every cycle with a *leakage model* of a predicted
//! intermediate — here the Hamming weight of the round-1 S-box output —
//! using Pearson's r. CPA extracts more of the signal per trace and is the
//! standard attack the later literature evaluates against; a masking
//! scheme that only defeated single-bit DPA would not survive it, so this
//! crate brings it to bear on the simulator too.

use crate::dpa::plaintext_for;
use crate::online::OnlineCpa;
use emask_par::{fold_sharded, CancelToken, Interrupted, Jobs};
use std::fmt;

/// CPA campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpaConfig {
    /// Number of random plaintexts / traces.
    pub samples: usize,
    /// Which S-box to target (0-based).
    pub sbox: usize,
    /// RNG seed for plaintext sampling.
    pub seed: u64,
}

impl Default for CpaConfig {
    fn default() -> Self {
        Self { samples: 200, sbox: 0, seed: 0xC0A }
    }
}

/// Outcome of a CPA campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaResult {
    /// Peak |Pearson r| per subkey guess.
    pub peaks: [f64; 64],
    /// Cycle of each guess's peak.
    pub peak_cycles: [usize; 64],
    /// The winning guess.
    pub best_guess: u8,
    /// Best peak / runner-up peak.
    pub margin: f64,
}

impl fmt::Display for CpaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CPA: best guess {:#04X} (|r| = {:.3}, margin {:.2}x)",
            self.best_guess, self.peaks[self.best_guess as usize], self.margin
        )
    }
}

/// The leakage model: Hamming weight of the predicted round-1 S-box
/// output under `guess`.
///
/// # Panics
///
/// Panics if `sbox >= 8` or `guess >= 64`.
#[cfg(test)]
pub(crate) fn predicted_hamming_weight(plaintext: u64, guess: u8, sbox: usize) -> u32 {
    (0..4).map(|bit| u32::from(crate::dpa::selection_bit(plaintext, guess, sbox, bit))).sum()
}

/// Runs a CPA campaign: `cfg.samples` traces from `oracle`, the plaintext
/// of trial `i` drawn by [`plaintext_for`]. Acquisition is sharded across
/// `jobs` workers and each trace is folded straight into an [`OnlineCpa`]
/// accumulator; shards merge in fixed order as they finish (see
/// [`fold_sharded`]), so memory does not grow with `cfg.samples` and the
/// result is bit-identical for any `jobs` value.
///
/// `token` is checked before each trace is acquired, so a trip (client
/// cancel, deadline, shutdown) stops the campaign at a trial boundary
/// with a typed [`Interrupted`] carrying the number of fully folded
/// trials. A token that trips after the last trial has no effect.
///
/// # Errors
///
/// Returns [`Interrupted`] if the token trips before every trial has been
/// folded.
///
/// # Panics
///
/// Panics if `cfg.samples < 2` or `cfg.sbox >= 8`.
pub fn cpa_recover_subkey<F>(
    oracle: &F,
    cfg: &CpaConfig,
    jobs: Jobs,
    token: &CancelToken,
) -> Result<CpaResult, Interrupted>
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    assert!(cfg.samples >= 2, "correlation needs at least two samples");
    let proto = OnlineCpa::new(cfg.sbox);
    let acc = fold_sharded(
        jobs,
        cfg.samples,
        token,
        None,
        |_| proto.clone(),
        |acc, trials| {
            for (done, i) in trials.enumerate() {
                token.check().map_err(|_| done)?;
                let p = plaintext_for(cfg.seed, i as u64);
                acc.push(p, &oracle(p)).expect("oracle produced a misaligned trace");
            }
            Ok(())
        },
        |a, b| a.merge(b).expect("shards saw traces of different widths"),
        |_, _| {},
    )?;
    Ok(acc.expect("samples >= 2 yields at least one shard").result())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_des::KeySchedule;

    const KEY: u64 = 0x1334_5779_9BBC_DFF1;

    /// A Hamming-weight-leaking oracle: one sample proportional to the
    /// true S-box output weight, clutter elsewhere.
    fn hw_oracle(sbox: usize) -> impl Fn(u64) -> Vec<f64> + Sync {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
        move |p: u64| {
            let hw = f64::from(predicted_hamming_weight(p, subkey, sbox));
            vec![100.0 + (p % 23) as f64, 100.0 + 3.0 * hw, 100.0 - (p % 7) as f64]
        }
    }

    /// [`cpa_recover_subkey`] at `jobs` workers, uncancelled.
    fn run<F: Fn(u64) -> Vec<f64> + Sync>(oracle: &F, cfg: &CpaConfig, jobs: usize) -> CpaResult {
        cpa_recover_subkey(oracle, cfg, Jobs::new(jobs).unwrap(), &CancelToken::new()).unwrap()
    }

    #[test]
    fn predicted_weight_is_bounded() {
        for p in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
            for g in 0..64 {
                let w = predicted_hamming_weight(p, g, 0);
                assert!(w <= 4);
            }
        }
    }

    #[test]
    fn cpa_recovers_subkey_from_hw_leak() {
        for sbox in [0usize, 5] {
            let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
            let cfg = CpaConfig { samples: 300, sbox, seed: 77 };
            let result = run(&hw_oracle(sbox), &cfg, 1);
            assert_eq!(result.best_guess, subkey, "S{}: {result}", sbox + 1);
            assert!(result.peaks[subkey as usize] > 0.95, "{result}");
        }
    }

    #[test]
    fn cpa_finds_nothing_on_constant_traces() {
        let cfg = CpaConfig { samples: 100, sbox: 0, seed: 5 };
        let result = run(&|_| vec![42.0; 4], &cfg, 1);
        assert!(result.peaks.iter().all(|&p| p < 1e-9), "{result}");
    }

    #[test]
    fn pre_cancelled_cpa_interrupts_with_zero_trials() {
        let cfg = CpaConfig { samples: 100, sbox: 0, seed: 5 };
        let token = emask_par::CancelToken::new();
        token.cancel(emask_par::CancelReason::Cancelled);
        let oracle = |_: u64| vec![42.0; 4];
        let err = cpa_recover_subkey(&oracle, &cfg, Jobs::new(2).unwrap(), &token)
            .expect_err("tripped token must interrupt");
        assert_eq!(err.completed_trials, 0);
        assert_eq!(err.reason, emask_par::CancelReason::Cancelled);
    }

    #[test]
    fn cpa_peak_lands_on_the_leaky_cycle() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let cfg = CpaConfig { samples: 300, sbox: 0, seed: 9 };
        let result = run(&hw_oracle(0), &cfg, 1);
        assert_eq!(result.peak_cycles[subkey as usize], 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_sample_rejected() {
        let cfg = CpaConfig { samples: 1, sbox: 0, seed: 0 };
        run(&|_| vec![0.0], &cfg, 1);
    }

    #[test]
    fn display_shows_r() {
        let cfg = CpaConfig { samples: 64, sbox: 0, seed: 3 };
        let r = run(&hw_oracle(0), &cfg, 1);
        assert!(r.to_string().contains("|r|"));
    }

    #[test]
    fn parallel_cpa_recovers_subkey_and_ignores_job_count() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let oracle = hw_oracle(0);
        let cfg = CpaConfig { samples: 300, sbox: 0, seed: 77 };
        let serial = run(&oracle, &cfg, 1);
        assert_eq!(serial.best_guess, subkey, "{serial}");
        assert!(serial.peaks[subkey as usize] > 0.95, "{serial}");
        for jobs in [2usize, 4, 7] {
            assert_eq!(run(&oracle, &cfg, jobs), serial, "jobs = {jobs}");
        }
    }
}
