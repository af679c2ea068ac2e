//! The security/energy trade-off across the paper's four masking
//! policies: no masking, compiler-selected (forward slicing), naive
//! all-loads/stores, and whole-program dual rail — the in-text totals
//! table of the evaluation (46.4 / 52.6 / 63.6 / 83.5 µJ in the paper).
//!
//! ```text
//! cargo run --release --example masking_tradeoff [rounds]
//! ```

use emask::core::DesProgramSpec;
use emask::{MaskPolicy, MaskedDes, Phase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .filter(|r| (1..=16).contains(r))
        .unwrap_or(16);
    let key = 0x1334_5779_9BBC_DFF1;
    let plaintext = 0x0123_4567_89AB_CDEF;

    println!(
        "{:>18} {:>10} {:>10} {:>8} {:>14}",
        "policy", "total µJ", "pJ/cycle", "secure", "round-1 leak"
    );
    let mut totals = Vec::new();
    for policy in [
        MaskPolicy::None,
        MaskPolicy::Selective,
        MaskPolicy::AllLoadsStores,
        MaskPolicy::AllInstructions,
    ] {
        let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds })?;
        let a = des.encrypt(plaintext, key)?;
        let b = des.encrypt(plaintext, key ^ (1 << 63))?;
        let w = a.phase_window(Phase::Round(1)).expect("round 1");
        let leak = a.trace.window(w.clone()).diff(&b.trace.window(w)).max_abs();
        println!(
            "{:>18} {:>10.2} {:>10.1} {:>8} {:>11.2} pJ",
            policy.to_string(),
            a.trace.total_uj(),
            a.trace.mean_pj(),
            des.program().secure_instruction_count(),
            leak
        );
        totals.push(a.trace.total_uj());
    }

    println!();
    println!(
        "selective masking costs {:.1}% extra energy; whole-program dual rail costs {:.1}%",
        100.0 * (totals[1] / totals[0] - 1.0),
        100.0 * (totals[3] / totals[0] - 1.0)
    );
    println!(
        "the compiler's slice spends {:.0}% less masking energy than dual-rail-everything \
         (paper: 83%)",
        100.0 * (1.0 - (totals[1] - totals[0]) / (totals[3] - totals[0]))
    );
    Ok(())
}
