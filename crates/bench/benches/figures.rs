//! Benchmarks of the figure-regeneration pipeline (Figures 6–12): full
//! trace capture, differential traces, and the masking-overhead window.
//!
//! Runs on reduced-round instances so `cargo bench` stays fast; the
//! `repro` binary produces the full 16-round figures.

use criterion::{criterion_group, criterion_main, Criterion};
use emask_core::MaskPolicy;
use std::hint::black_box;

fn bench_fig6_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig6_round_trace_2r", |b| {
        b.iter(|| emask_bench::fig6_round_trace(black_box(2)))
    });
    g.finish();
}

fn bench_differentials(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig8_key_differential_unmasked_1r", |b| {
        b.iter(|| emask_bench::key_differential(black_box(MaskPolicy::None), 1))
    });
    g.bench_function("fig9_key_differential_masked_1r", |b| {
        b.iter(|| emask_bench::key_differential(black_box(MaskPolicy::Selective), 1))
    });
    g.bench_function("fig11_plaintext_differential_masked_1r", |b| {
        b.iter(|| emask_bench::plaintext_differential(black_box(MaskPolicy::Selective), 1))
    });
    g.finish();
}

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig12_masking_overhead_1r", |b| {
        b.iter(|| emask_bench::masking_overhead_trace(black_box(1)))
    });
    g.finish();
}

criterion_group!(benches, bench_fig6_trace, bench_differentials, bench_overhead);
criterion_main!(benches);
