//! The security properties the paper claims, tested end to end against
//! the cycle-accurate simulator: masked runs are energy-indistinguishable
//! in every secure region, for many random key pairs, while unmasked runs
//! leak.

use emask::cc::{compile, CompileOptions};
use emask::core::{des_source, DesProgramSpec};
use emask::{MaskPolicy, MaskedDes, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

/// Max |ΔE| between two keys over the secure region (key permutation
/// through the last round).
fn key_leak(des: &MaskedDes, k1: u64, k2: u64) -> f64 {
    let a = des.encrypt(PLAINTEXT, k1).expect("run");
    let b = des.encrypt(PLAINTEXT, k2).expect("run");
    let start = a.phase_window(Phase::KeyPermutation).expect("kp").start;
    let end = a.phase_window(Phase::Round(des.rounds() as u8)).expect("last round").end;
    a.trace.window(start..end).diff(&b.trace.window(start..end)).max_abs()
}

#[test]
fn masked_runs_are_key_indistinguishable_for_random_key_pairs() {
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 2 })
        .expect("compile");
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..6 {
        let k1: u64 = rng.gen();
        let k2: u64 = rng.gen();
        let leak = key_leak(&des, k1, k2);
        assert!(leak < 1e-9, "pair {i}: masked leak {leak} pJ for {k1:016X}/{k2:016X}");
    }
}

#[test]
fn masked_runs_are_key_indistinguishable_for_single_bit_flips() {
    // Single-bit key differences are the paper's Figures 8/9 setting and
    // the hardest case (smallest physical difference).
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 2 })
        .expect("compile");
    let base = 0x1334_5779_9BBC_DFF1u64;
    for bit in [0u32, 17, 33, 62] {
        let leak = key_leak(&des, base, base ^ (1 << bit));
        assert!(leak < 1e-9, "bit {bit}: masked leak {leak} pJ");
    }
}

#[test]
fn unmasked_runs_leak_every_single_key_bit() {
    // Every effective (non-parity) key bit must be visible to a
    // differential measurement on the unmasked device — this is what
    // makes DPA possible at all.
    let des =
        MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 }).expect("compile");
    let base = 0x1334_5779_9BBC_DFF1u64;
    for pos in [1u32, 2, 9, 30, 47, 63] {
        // pos is the 1-based MSB-first key bit index; skip parity bits.
        assert_ne!(pos % 8, 0);
        let flipped = base ^ (1u64 << (64 - pos));
        let leak = key_leak(&des, base, flipped);
        assert!(leak > 0.5, "key bit {pos} invisible on unmasked device ({leak} pJ)");
    }
}

#[test]
fn parity_bits_do_not_leak_even_unmasked() {
    // Parity bits never enter the computation (PC-1 drops them), so even
    // the unmasked device shows nothing — but only after the key loads
    // themselves, which do touch all 64 stored bits. Measure from round 1.
    let des =
        MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 }).expect("compile");
    let base = 0x1334_5779_9BBC_DFF1u64;
    let flipped = base ^ (1u64 << (64 - 8)); // key bit 8 = first parity bit
    let a = des.encrypt(PLAINTEXT, base).expect("run");
    let b = des.encrypt(PLAINTEXT, flipped).expect("run");
    let w = a.phase_window(Phase::Round(1)).expect("round 1");
    let leak = a.trace.window(w.clone()).diff(&b.trace.window(w)).max_abs();
    assert!(leak < 1e-9, "parity bit influenced round energy: {leak} pJ");
}

#[test]
fn all_policies_but_none_protect_the_rounds() {
    let base = 0x1334_5779_9BBC_DFF1u64;
    for policy in [MaskPolicy::Selective, MaskPolicy::AllLoadsStores, MaskPolicy::AllInstructions] {
        let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 2 }).expect("compile");
        let a = des.encrypt(PLAINTEXT, base).expect("run");
        let b = des.encrypt(PLAINTEXT, base ^ (1 << 62)).expect("run");
        let w = a.phase_window(Phase::Round(1)).expect("round 1");
        let leak = a.trace.window(w.clone()).diff(&b.trace.window(w)).max_abs();
        if policy == MaskPolicy::AllLoadsStores {
            // Loads/stores alone leave ALU/latch traffic exposed: the
            // naive policy is *more expensive* yet still leaks a little —
            // an observation the paper's selective approach sidesteps by
            // construction (it secures every tainted instruction).
            continue;
        }
        assert!(leak < 1e-9, "{policy}: round-1 leak {leak} pJ");
    }
}

#[test]
fn all_loads_stores_policy_still_leaks_through_the_alu() {
    // The quantitative version of the note above: securing every load and
    // store without compiler analysis leaves the xor/shift datapath
    // unprotected.
    let des = MaskedDes::compile_spec(MaskPolicy::AllLoadsStores, &DesProgramSpec { rounds: 2 })
        .expect("compile");
    let base = 0x1334_5779_9BBC_DFF1u64;
    let a = des.encrypt(PLAINTEXT, base).expect("run");
    let b = des.encrypt(PLAINTEXT, base ^ (1 << 62)).expect("run");
    let w = a.phase_window(Phase::Round(1)).expect("round 1");
    let leak = a.trace.window(w.clone()).diff(&b.trace.window(w)).max_abs();
    assert!(leak > 0.1, "expected residual ALU leak, got {leak} pJ");
}

#[test]
fn masking_never_changes_timing() {
    // Constant cycle count across policies — energy masking must not
    // introduce the very timing channel it defends against.
    let cycle_counts: Vec<u64> = [
        MaskPolicy::None,
        MaskPolicy::Selective,
        MaskPolicy::AllLoadsStores,
        MaskPolicy::AllInstructions,
    ]
    .iter()
    .map(|&p| {
        MaskedDes::compile_spec(p, &DesProgramSpec { rounds: 2 })
            .expect("compile")
            .encrypt(PLAINTEXT, 0x1334_5779_9BBC_DFF1)
            .expect("run")
            .stats
            .cycles
    })
    .collect();
    assert!(
        cycle_counts.windows(2).all(|w| w[0] == w[1]),
        "cycle counts differ across policies: {cycle_counts:?}"
    );
}

/// Hashes the control half of every cycle: the fetch PC, the EX PC, the
/// stall and flush signals and whether MEM stores. Data values and
/// addresses stay out.
#[derive(Default)]
struct ControlStream(std::collections::hash_map::DefaultHasher);

impl emask::cpu::PipelineHook for ControlStream {
    fn after_cycle(
        &mut self,
        act: &emask::cpu::CycleActivity,
    ) -> Result<(), emask::cpu::CpuErrorKind> {
        use std::hash::Hash;
        let store = act.mem.is_some_and(|m| m.is_store);
        (act.fetch_pc, act.ex.map(|e| e.pc), act.stalled, act.flushed, store).hash(&mut self.0);
        Ok(())
    }
}

/// The control-stream hash of one encryption.
fn control_hash(des: &MaskedDes, plaintext: u64, key: u64) -> u64 {
    use std::hash::Hasher;
    let mut stream = ControlStream::default();
    des.encrypt_hooked(plaintext, key, &mut stream).expect("run");
    stream.0.finish()
}

#[test]
fn the_control_schedule_is_the_same_for_every_input() {
    // The SPA argument, and any acquisition that shares one schedule
    // across traces, rest on this: only data moves with the key and the
    // plaintext (and with the policy, which changes energy, not control).
    let inputs =
        [(0, 0), (u64::MAX, u64::MAX), (PLAINTEXT, 0x1334_5779_9BBC_DFF1), (!PLAINTEXT, 7)];
    let policies = [MaskPolicy::None, MaskPolicy::Selective, MaskPolicy::AllInstructions];
    for rounds in [1, 2] {
        let mut hashes = std::collections::BTreeSet::new();
        for policy in policies {
            let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds }).expect("compile");
            for (plaintext, key) in inputs {
                hashes.insert(control_hash(&des, plaintext, key));
            }
        }
        assert_eq!(hashes.len(), 1, "{rounds} rounds: {} control schedules", hashes.len());
    }
    let des = MaskedDes::compile(MaskPolicy::Selective).expect("compile");
    let [a, b, ..] = inputs;
    assert_eq!(control_hash(&des, a.0, a.1), control_hash(&des, b.0, b.1), "16 rounds");
}

/// The branches whose condition the compiler's slice finds tainted when
/// the plaintext is secure too, so every input-dependent branch shows.
fn tainted_branches(source: &str, policy: MaskPolicy) -> Vec<(String, usize)> {
    let source = source.replacen("int data[64];", "secure int data[64];", 1);
    let out = compile(&source, CompileOptions::paper_style(policy)).expect("compile");
    out.report.tainted_branches
}

#[test]
fn no_branch_depends_on_the_key_or_the_plaintext() {
    // The static twin of the test above: the slice finds no branch whose
    // condition the key or the plaintext reaches.
    let policies = [MaskPolicy::None, MaskPolicy::Selective, MaskPolicy::AllInstructions];
    for rounds in [1, 2, 16] {
        let source = des_source(&DesProgramSpec { rounds });
        for policy in policies {
            let branches = tainted_branches(&source, policy);
            assert!(branches.is_empty(), "{rounds} rounds, {policy:?}: {branches:?}");
        }
    }
    // A plaintext-dependent branch at the top of `main` is found.
    let source = des_source(&DesProgramSpec { rounds: 1 });
    let mutant =
        source.replacen("int main() {", "int main() {\n    if (data[0]) { marker = 0; }", 1);
    assert_ne!(mutant, source, "the mutant must change the source");
    let branches = tainted_branches(&mutant, MaskPolicy::Selective);
    assert!(!branches.is_empty() && branches.iter().all(|(f, _)| f == "main"), "{branches:?}");
}
