//! Attack-side benchmarks: SPA round detection and the DPA
//! difference-of-means engine over synthetic trace sets (so the attack
//! cost is measured separately from the simulator cost).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emask_attack::detect_rounds;
use emask_attack::{analyze_bit, plaintext_for, selection_bit};
use emask_attack::{difference_of_means, welch_t, TraceMatrix};
use emask_des::KeySchedule;
use std::hint::black_box;

const KEY: u64 = 0x1334_5779_9BBC_DFF1;

/// A cheap synthetic oracle with the true round-1 leak embedded.
fn oracle(p: u64) -> Vec<f64> {
    let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
    let b = selection_bit(p, subkey, 0, 0);
    let mut t = vec![160.0; 256];
    t[100] += if b { 5.0 } else { 0.0 };
    t[7] += (p % 13) as f64;
    t
}

fn bench_spa(c: &mut Criterion) {
    // 16 synthetic rounds of 400 cycles.
    let mut trace = Vec::new();
    for _ in 0..16 {
        for i in 0..400 {
            trace.push(160.0 + 40.0 * (i as f64 / 400.0 * std::f64::consts::TAU).sin());
        }
    }
    c.bench_function("spa_detect_rounds_6400c", |b| {
        b.iter(|| detect_rounds(black_box(&trace), 100, 2, 32))
    });
}

fn bench_dpa_analysis(c: &mut Criterion) {
    let plaintexts: Vec<u64> = (0..256).map(|i| plaintext_for(7, i)).collect();
    let traces: Vec<Vec<f64>> = plaintexts.iter().map(|&p| oracle(p)).collect();
    let mut g = c.benchmark_group("dpa");
    g.throughput(Throughput::Elements(64 * 256));
    g.bench_function("analyze_bit_256x256", |b| {
        b.iter(|| analyze_bit(black_box(&plaintexts), black_box(&traces), 0, 0))
    });
    g.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let g0: TraceMatrix = (0..128).map(|i| vec![160.0 + (i % 7) as f64; 512]).collect();
    let g1: TraceMatrix = (0..128).map(|i| vec![161.0 + (i % 5) as f64; 512]).collect();
    let mut g = c.benchmark_group("stats");
    g.bench_function("difference_of_means_128x512", |b| {
        b.iter(|| difference_of_means(black_box(&g0), black_box(&g1)))
    });
    g.bench_function("welch_t_128x512", |b| b.iter(|| welch_t(black_box(&g0), black_box(&g1))));
    g.finish();
}

criterion_group!(benches, bench_spa, bench_dpa_analysis, bench_statistics);
criterion_main!(benches);
