//! End-to-end integration: the full compile → simulate → measure →
//! validate pipeline across all crates.

use emask::core::desgen::DesProgramSpec;
use emask::cpu::CpuBackend;
use emask::{Des, MaskPolicy, MaskedDes, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

#[test]
fn full_des_walkthrough_vector_on_every_policy() {
    for policy in [
        MaskPolicy::None,
        MaskPolicy::Selective,
        MaskPolicy::AllLoadsStores,
        MaskPolicy::AllInstructions,
    ] {
        let des = MaskedDes::compile(policy).expect("compile");
        let run = des.encrypt(PLAINTEXT, KEY).expect("run");
        assert_eq!(run.ciphertext, 0x85E8_1354_0F0A_B405, "{policy}");
    }
}

#[test]
fn random_inputs_match_golden_model() {
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 16 })
        .expect("compile");
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let key: u64 = rng.gen();
        let plaintext: u64 = rng.gen();
        let run = des.encrypt(plaintext, key).expect("run");
        assert_eq!(run.ciphertext, Des::new(key).encrypt_block(plaintext));
    }
}

#[test]
fn sixteen_round_markers_all_present() {
    let des = MaskedDes::compile(MaskPolicy::None).expect("compile");
    let run = des.encrypt(PLAINTEXT, KEY).expect("run");
    for r in 1..=16 {
        assert!(run.phase_window(Phase::Round(r)).is_some(), "round {r} marker missing");
    }
    assert!(run.phase_window(Phase::InitialPermutation).is_some());
    assert!(run.phase_window(Phase::KeyPermutation).is_some());
    assert!(run.phase_window(Phase::OutputPermutation).is_some());
}

#[test]
fn round_cycle_counts_track_the_shift_table() {
    // Every round executes the same code; the only timing difference is
    // the rotate-by-1 vs rotate-by-2 branch pattern of the key schedule
    // (public data — rounds 1, 2, 9, 16 rotate by 1). Widths must
    // therefore fall into exactly two groups matching FIPS table SHIFTS,
    // a few cycles apart — the Figure 6 periodicity.
    let des = MaskedDes::compile(MaskPolicy::None).expect("compile");
    let run = des.encrypt(PLAINTEXT, KEY).expect("run");
    let widths: Vec<usize> =
        (1..=16).map(|r| run.phase_window(Phase::Round(r)).expect("window").len()).collect();
    let min = *widths.iter().min().expect("16 rounds");
    let max = *widths.iter().max().expect("16 rounds");
    assert!(max - min <= 32, "round widths vary too much: {widths:?}");
    for (i, &w) in widths.iter().enumerate() {
        let single_shift = emask::des::tables::SHIFTS[i] == 1;
        // Round 16 additionally ends at the output-permutation marker, so
        // allow it either group; all others must match their shift class.
        if i == 15 {
            continue;
        }
        assert_eq!(
            w < (min + max) / 2,
            single_shift,
            "round {} width {w} does not match shift {}",
            i + 1,
            emask::des::tables::SHIFTS[i]
        );
    }
}

#[test]
fn energy_totals_are_invariant_across_runs() {
    // The simulator is deterministic: same inputs, same energy.
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 2 })
        .expect("compile");
    let a = des.encrypt(PLAINTEXT, KEY).expect("run");
    let b = des.encrypt(PLAINTEXT, KEY).expect("run");
    assert_eq!(a.trace.samples(), b.trace.samples());
    assert_eq!(a.stats, b.stats);
}

#[test]
fn pipeline_stats_are_consistent() {
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 2 })
        .expect("compile");
    let run = des.encrypt(PLAINTEXT, KEY).expect("run");
    let s = run.stats;
    assert_eq!(s.cycles as usize, run.trace.len());
    assert!(s.retired > 0 && s.retired <= s.cycles);
    assert!(s.retired_secure > 0, "selective masking must retire secure instructions");
    assert!(s.loads > 0 && s.stores > 0);
    assert!(s.ipc() > 0.3 && s.ipc() <= 1.0, "ipc {}", s.ipc());
}

#[test]
fn simulated_encrypt_then_decrypt_round_trips() {
    // Both directions run on the simulated core; decryption inverts
    // encryption through the machine itself, not just the golden model.
    let enc = MaskedDes::compile(MaskPolicy::Selective).expect("compile enc");
    let dec = MaskedDes::compile_decryptor(MaskPolicy::Selective).expect("compile dec");
    let c = enc.encrypt(PLAINTEXT, KEY).expect("encrypt").ciphertext;
    let p = dec.decrypt(c, KEY).expect("decrypt").ciphertext;
    assert_eq!(p, PLAINTEXT);
}

#[test]
fn xtea_companion_workload_runs_end_to_end() {
    let xtea = emask::MaskedXtea::compile(MaskPolicy::Selective).expect("compile");
    let key = [0xDEAD_BEEF, 0x0BAD_F00D, 0x1234_5678, 0x9ABC_DEF0];
    let run = xtea.encrypt([1, 2], key).expect("run");
    assert_eq!(run.ciphertext, emask::core::xtea_encrypt([1, 2], key));
    assert_eq!(emask::core::xtea_decrypt(run.ciphertext, key), [1, 2]);
}

#[test]
fn facade_reexports_compose() {
    // The root crate's re-exports are enough to drive everything.
    let program =
        emask::isa::assemble(".text\n li $t0, 5\n sxor $t1, $t0, $t0\n halt\n").expect("asm");
    let mut cpu = emask::cpu::Cpu::new(&program);
    let mut model = emask::energy::EnergyModel::new();
    let mut trace = emask::EnergyTrace::new();
    cpu.run_with(1_000, &mut emask::cpu::NullHook, |a| {
        trace.push(model.observe(a));
        ControlFlow::Continue(())
    })
    .expect("run");
    assert!(trace.total_pj() > 0.0);
    assert_eq!(cpu.reg(emask::isa::Reg::T1), 0);
}
