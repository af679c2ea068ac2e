//! Exports the paper's figure data as CSV files for external plotting
//! (gnuplot, matplotlib, a spreadsheet — anything that reads CSV).
//!
//! ```text
//! cargo run --release --example trace_export [out_dir]
//! ```
//!
//! Writes `fig6_trace.csv`, `fig8_key_diff.csv`, `fig9_masked_diff.csv`
//! and `fig12_overhead.csv` into `out_dir` (default `target/figures`).

use emask::core::DesProgramSpec;
use emask::{MaskPolicy, MaskedDes, Phase};
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir: PathBuf =
        std::env::args().nth(1).unwrap_or_else(|| "target/figures".into()).into();
    fs::create_dir_all(&out_dir)?;
    let key = 0x1334_5779_9BBC_DFF1u64;
    let key2 = key ^ (1u64 << 63);
    let plaintext = 0x0123_4567_89AB_CDEF;
    // Two rounds keep this example quick; pass the full experience through
    // `repro` instead.
    let spec = DesProgramSpec { rounds: 2 };

    println!("simulating (policy: none)...");
    let original = MaskedDes::compile_spec(MaskPolicy::None, &spec)?;
    let o1 = original.encrypt(plaintext, key)?;
    let o2 = original.encrypt(plaintext, key2)?;

    println!("simulating (policy: selective)...");
    let masked = MaskedDes::compile_spec(MaskPolicy::Selective, &spec)?;
    let m1 = masked.encrypt(plaintext, key)?;
    let m2 = masked.encrypt(plaintext, key2)?;

    let round1 = o1.phase_window(Phase::Round(1)).expect("round 1");
    let files = [
        ("fig6_trace.csv", o1.trace.to_csv()),
        (
            "fig8_key_diff.csv",
            o1.trace.window(round1.clone()).diff(&o2.trace.window(round1.clone())).to_csv(),
        ),
        (
            "fig9_masked_diff.csv",
            m1.trace.window(round1.clone()).diff(&m2.trace.window(round1.clone())).to_csv(),
        ),
        ("fig12_overhead.csv", {
            let kp = m1.phase_window(Phase::KeyPermutation).expect("kp");
            m1.trace.window(kp.clone()).diff(&o1.trace.window(kp)).to_csv()
        }),
    ];
    for (name, csv) in files {
        let path = out_dir.join(name);
        fs::write(&path, &csv)?;
        println!("wrote {} ({} rows)", path.display(), csv.lines().count() - 1);
    }
    println!("\nplot with e.g.:");
    println!("  gnuplot -e \"set datafile separator ','; plot '{}/fig6_trace.csv' using 1:2 with lines\"", out_dir.display());
    Ok(())
}
