//! Attacks against the real simulator (not synthetic traces): SPA sees
//! the round structure of the unmasked device; DPA recovers subkey
//! material before masking and nothing after.

use emask::attack::detect_rounds;
use emask::attack::{recover_subkey, DpaConfig};
use emask::core::DesProgramSpec;
use emask::par::{CancelToken, Jobs};
use emask::{KeySchedule, MaskPolicy, MaskedDes, Phase};

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

#[test]
fn spa_counts_sixteen_rounds_on_the_unmasked_device() {
    let des = MaskedDes::compile(MaskPolicy::None).expect("compile");
    let run = des.encrypt(PLAINTEXT, KEY).expect("run");
    let start = run.phase_window(Phase::Round(1)).expect("round 1").start;
    let end = run.phase_window(Phase::Round(16)).expect("round 16").end;
    let region = run.trace.window(start..end);
    let report = detect_rounds(region.samples(), 100, 2, 32);
    assert_eq!(report.detected_rounds, 16, "{report}");
    assert!(report.score > 0.5, "{report}");
}

fn dpa_against(policy: MaskPolicy, samples: usize) -> (u8, emask::attack::DpaResult) {
    let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 2 }).expect("compile");
    let window =
        des.encrypt(PLAINTEXT, KEY).expect("probe").phase_window(Phase::Round(1)).expect("round 1");
    let oracle = des.trace_oracle(KEY, window);
    let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 3 };
    let true_subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let token = CancelToken::new();
    let result = recover_subkey(&oracle, &cfg, Jobs::serial(), &token, None, |_, _| {}, |_| {});
    (true_subkey, result.expect("never cancelled"))
}

#[test]
fn dpa_recovers_the_round1_subkey_before_masking() {
    let (true_subkey, result) = dpa_against(MaskPolicy::None, 96);
    assert_eq!(result.best_guess, true_subkey, "{result}");
    assert!(result.peaks[true_subkey as usize] > 0.5, "{result}");
}

#[test]
fn dpa_finds_nothing_after_masking() {
    let (_, result) = dpa_against(MaskPolicy::Selective, 96);
    assert!(result.peaks.iter().all(|&p| p < 1e-6), "masked device produced DPA peaks: {result}");
}

#[test]
fn dpa_peak_grows_with_sample_count_on_unmasked_device() {
    let (_, small) = dpa_against(MaskPolicy::None, 32);
    let (true_subkey, large) = dpa_against(MaskPolicy::None, 96);
    // With more traces the true-guess peak converges to the physical
    // difference while ghost variance shrinks; demand the large campaign
    // is at least as decisive.
    assert_eq!(large.best_guess, true_subkey);
    assert!(
        large.peaks[true_subkey as usize] > 0.5 * small.peaks[small.best_guess as usize],
        "peaks collapsed: small {:?} large {:?}",
        small.peaks[small.best_guess as usize],
        large.peaks[true_subkey as usize]
    );
}
