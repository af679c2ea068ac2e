//! The attacker's view: run the differential power analysis of Kocher et
//! al. against the simulated smart card, before and after masking.
//!
//! The attack samples random plaintexts, records the per-cycle energy of
//! round 1, guesses each 6-bit subkey of S-box 1, partitions the traces by
//! a predicted S-box output bit, and looks for a difference-of-means peak.
//! Against the unmasked card the true subkey wins; against the masked card
//! every guess is flat.
//!
//! ```text
//! cargo run --release --example dpa_attack [samples]
//! ```

use emask::attack::{recover_subkey_multibit_par, DpaConfig};
use emask::core::DesProgramSpec;
use emask::par::Jobs;
use emask::{KeySchedule, MaskPolicy, MaskedDes, Phase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let samples: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(128);
    let key = 0x1334_5779_9BBC_DFF1;
    let true_subkey = KeySchedule::new(key).round_key(1).sbox_slice(0);
    println!("secret key {key:016X}; the round-1 subkey of S-box 1 is {true_subkey:#04X}");
    println!("campaign: {samples} random plaintexts per device\n");

    for policy in [MaskPolicy::None, MaskPolicy::Selective] {
        // Round 1 is all the attack needs — a 2-round device keeps each
        // simulated trace short.
        let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 2 })?;
        let window = des.encrypt(0, key)?.phase_window(Phase::Round(1)).expect("round 1");
        let oracle = des.trace_oracle(key, window);
        let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 1 };
        let result = recover_subkey_multibit_par(&oracle, &cfg, Jobs::auto());

        println!("device: {policy}");
        println!("  {result}");
        // Show the top guesses as a mini leaderboard.
        let mut ranked: Vec<(u8, f64)> = (0..64u8).map(|g| (g, result.peaks[g as usize])).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("  top guesses:");
        for (g, p) in ranked.iter().take(4) {
            let mark = if *g == true_subkey { "  <-- true subkey" } else { "" };
            println!("    {g:#04X}: peak {p:.3} pJ{mark}");
        }
        let recovered =
            result.best_guess == true_subkey && result.peaks[result.best_guess as usize] > 0.5;
        println!(
            "  verdict: {}\n",
            if recovered { "KEY MATERIAL RECOVERED" } else { "attack found nothing" }
        );
    }
    Ok(())
}
