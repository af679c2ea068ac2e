//! Demonstrates the single-pass attack engine's memory bound: online DPA
//! folds each trace into O(guesses × trace length) accumulators the moment
//! it is produced, so peak RSS is flat in the number of traces — where the
//! batch path's trace matrix grows linearly.
//!
//! A sharded campaign holds at most one merged prefix and one accumulator
//! per worker; at `Jobs::serial()`, as here, that is two accumulators
//! whatever the trace count. A shard's last block of at most 16 traces
//! stays raw until its merge folds it into the prefix, so a campaign of
//! at most 32 × 16 = 512 traces allocates sum vectors for the prefix
//! alone; these runs' 31–313-trace shards allocate their own too.
//!
//! ```text
//! cargo run --release --example online_memory [traces] [--batch]
//! ```
//!
//! Run it at 1 000 and 10 000 traces and compare the printed `VmHWM`
//! (peak resident set, Linux): online stays put, `--batch` grows ~10×.

use emask::attack::OnlineDpa;
use emask::attack::{plaintext_for, recover_subkey_multibit_par, selection_bit, DpaConfig};
use emask::par::Jobs;
use emask::KeySchedule;

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const TRACE_LEN: usize = 2048;

/// A synthetic oracle with the true round-1 leak embedded — long traces so
/// the matrix-vs-accumulator difference dominates the process baseline.
fn oracle(p: u64) -> Vec<f64> {
    let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let b = selection_bit(p, subkey, 0, 0);
    let mut t = vec![160.0; TRACE_LEN];
    t[100] += if b { 5.0 } else { 0.0 };
    t[7] += (p % 13) as f64;
    t
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let batch = args.next().as_deref() == Some("--batch");
    let cfg = DpaConfig { samples, sbox: 0, bit: 0, seed: 7 };

    let result = if batch {
        // The old shape: materialize every trace, then analyze.
        let plaintexts: Vec<u64> =
            (0..samples as u64).map(|i| plaintext_for(cfg.seed, i)).collect();
        let traces: Vec<Vec<f64>> = plaintexts.iter().map(|&p| oracle(p)).collect();
        let mut acc = OnlineDpa::multibit(cfg.sbox, cfg.bit);
        for (p, t) in plaintexts.iter().zip(&traces) {
            acc.push(*p, t).expect("aligned traces");
        }
        acc.result()
    } else {
        recover_subkey_multibit_par(&oracle, &cfg, Jobs::serial())
    };

    let mode = if batch { "batch (trace matrix)" } else { "online (single-pass)" };
    println!("{mode}: {samples} traces x {TRACE_LEN} samples — {result}");
    match peak_rss_kb() {
        Some(kb) => println!("VmHWM (peak RSS): {kb} kB"),
        None => println!("VmHWM unavailable on this platform"),
    }
}
