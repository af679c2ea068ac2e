//! Parallel-engine benchmarks: serial vs sharded trace acquisition against
//! the real reduced-round simulator, the batch (matrix-in-memory) vs
//! online (single-pass accumulator) DPA statistics engines over the same
//! synthetic trace set, and the accumulation path of a sharded DPA
//! campaign on real round-1 windows — one trace at a time vs blocked, and
//! collect-then-merge vs the streaming in-order merge.
//!
//! ```text
//! cargo bench -p emask-bench --bench parallel
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emask_attack::OnlineDpa;
use emask_attack::{
    analyze_bit, plaintext_for, recover_subkey_multibit_par, selection_bit, DpaConfig,
};
use emask_core::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes, Phase};
use emask_des::KeySchedule;
use emask_par::{fold_sharded, merge_shards, run_sharded, CancelToken, Jobs};
use std::hint::black_box;

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const SEED: u64 = 0x000B_E9C4;

/// A cheap synthetic oracle with the true round-1 leak embedded, for the
/// engine benches (attack cost isolated from simulator cost).
fn synthetic_oracle(p: u64) -> Vec<f64> {
    let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let b = selection_bit(p, subkey, 0, 0);
    let mut t = vec![160.0; 256];
    t[100] += if b { 5.0 } else { 0.0 };
    t[7] += (p % 13) as f64;
    t
}

/// The unmasked 1-round device and its round-1 window.
fn round1_device() -> (MaskedDes, std::ops::Range<usize>) {
    let des = MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round device");
    let window =
        des.encrypt(0, KEY).expect("probe run").phase_window(Phase::Round(1)).expect("round 1");
    (des, window)
}

/// Serial vs `--jobs 4` acquisition of 64 round-1 windows from the real
/// unmasked 1-round simulator.
fn bench_acquisition(c: &mut Criterion) {
    let (des, window) = round1_device();
    let oracle = des.trace_oracle(KEY, window);
    let acquire = |jobs: Jobs| {
        run_sharded(jobs, 64, |_, trials| {
            trials.map(|i| oracle(plaintext_for(SEED, i as u64))).collect::<Vec<_>>()
        })
    };
    let mut g = c.benchmark_group("acquire");
    g.sample_size(10);
    g.throughput(Throughput::Elements(64));
    g.bench_function("serial_64_traces", |b| b.iter(|| acquire(black_box(Jobs::serial()))));
    if let Some(jobs) = Jobs::new(4) {
        g.bench_function("jobs4_64_traces", |b| b.iter(|| acquire(black_box(jobs))));
    }
    g.finish();
}

/// Batch two-pass matrix DPA vs the single-pass online accumulator over
/// an identical 256-trace synthetic set.
fn bench_dpa_engines(c: &mut Criterion) {
    let plaintexts: Vec<u64> = (0..256).map(|i| plaintext_for(7, i)).collect();
    let traces: Vec<Vec<f64>> = plaintexts.iter().map(|&p| synthetic_oracle(p)).collect();
    let mut g = c.benchmark_group("dpa_engine");
    g.throughput(Throughput::Elements(64 * 256));
    g.bench_function("batch_analyze_256x256", |b| {
        b.iter(|| analyze_bit(black_box(&plaintexts), black_box(&traces), 0, 0))
    });
    g.bench_function("online_analyze_256x256", |b| {
        b.iter(|| {
            let mut acc = OnlineDpa::single(0, 0);
            for (p, t) in plaintexts.iter().zip(&traces) {
                acc.push(black_box(*p), black_box(t)).expect("aligned traces");
            }
            acc.result()
        })
    });
    g.bench_function("online_end_to_end_256", |b| {
        let cfg = DpaConfig { samples: 256, sbox: 0, bit: 0, seed: 7 };
        b.iter(|| recover_subkey_multibit_par(black_box(&synthetic_oracle), &cfg, Jobs::serial()))
    });
    g.finish();
}

/// Traces per block, as the library's sharded DPA folds them.
const BLOCK: usize = 16;

/// The accumulation path of a multibit DPA campaign on real round-1
/// windows of the unmasked 1-round device (19,380 samples each). A bank
/// of [`BLOCK`] simulated windows stands in for the simulator, so these
/// rows time the attack layer, not the encryption.
fn bench_dpa_accumulation(c: &mut Criterion) {
    let (des, window) = round1_device();
    let oracle = des.trace_oracle(KEY, window);
    let plaintexts: Vec<u64> = (0..BLOCK as u64).map(|i| plaintext_for(SEED, i)).collect();
    let bank: Vec<Vec<f64>> = plaintexts.iter().map(|&p| oracle(p)).collect();

    // One block into a warm accumulator: every (bit, guess) slot already
    // holds a sum, so both variants only add.
    let mut g = c.benchmark_group("dpa_push");
    g.throughput(Throughput::Elements(BLOCK as u64));
    let mut warm = OnlineDpa::multibit(0, 0);
    warm.push_block(&plaintexts, &bank).expect("aligned traces");
    let mut acc = warm.clone();
    g.bench_function("per_trace_push_x16", |b| {
        b.iter(|| {
            for (&p, t) in plaintexts.iter().zip(&bank) {
                acc.push(black_box(p), black_box(t)).expect("aligned traces");
            }
        })
    });
    let mut acc = warm;
    g.bench_function("push_block_16", |b| {
        b.iter(|| acc.push_block(black_box(&plaintexts), black_box(&bank)).expect("aligned traces"))
    });
    g.finish();

    // A 512-trace campaign at 2 workers, from the bank.
    let banked = |p: u64| bank[(p % BLOCK as u64) as usize].clone();
    let proto = OnlineDpa::multibit(0, 0);
    let jobs = Jobs::new(2).unwrap_or_else(Jobs::serial);
    let mut g = c.benchmark_group("dpa_campaign_512");
    g.sample_size(10);
    g.throughput(Throughput::Elements(512));
    g.bench_function("run_sharded_merge_shards_push", |b| {
        b.iter(|| {
            let accs = run_sharded(jobs, 512, |_, trials| {
                let mut acc = proto.clone();
                for i in trials {
                    let p = plaintext_for(SEED, i as u64);
                    acc.push(p, &banked(p)).expect("aligned traces");
                }
                acc
            });
            merge_shards(accs, |a, b| a.merge(&b).expect("aligned shards")).map(|a| a.result())
        })
    });
    g.bench_function("fold_sharded_push", |b| {
        b.iter(|| {
            fold_sharded(
                jobs,
                512,
                &CancelToken::new(),
                None,
                |spent: Option<OnlineDpa>| match spent {
                    Some(mut acc) => {
                        acc.clear();
                        acc
                    }
                    None => proto.clone(),
                },
                |acc, trials| {
                    for i in trials {
                        let p = plaintext_for(SEED, i as u64);
                        acc.push(p, &banked(p)).expect("aligned traces");
                    }
                    Ok(())
                },
                |a, b| a.merge(b).expect("aligned shards"),
                |_, _| {},
            )
            .map(|a| a.map(|a| a.result()))
        })
    });
    let cfg = DpaConfig { samples: 512, sbox: 0, bit: 0, seed: SEED };
    g.bench_function("fold_sharded_push_block_16", |b| {
        b.iter(|| recover_subkey_multibit_par(black_box(&banked), &cfg, jobs))
    });
    g.finish();
}

criterion_group!(benches, bench_acquisition, bench_dpa_engines, bench_dpa_accumulation);
criterion_main!(benches);
