//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! pre-charged vs complement-only dual rail, complementary-path clock
//! gating, and optimizing vs paper-style (memory-resident locals) codegen.
//! The *result* side of these ablations (leak magnitudes) is produced by
//! `repro -- ablations`; these benches measure their cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emask_bench::{KEY, PLAINTEXT};
use emask_cc::{compile, CompileOptions, MaskPolicy};
use emask_core::{des_source, DesProgramSpec};
use emask_core::{EnergyParams, MaskedDes, SecureStyle};
use std::hint::black_box;

fn bench_secure_styles(c: &mut Criterion) {
    let mut g = c.benchmark_group("secure_style_encrypt_1r");
    g.sample_size(10);
    for (name, style) in
        [("precharged", SecureStyle::Precharged), ("complement_only", SecureStyle::ComplementOnly)]
    {
        let mut params = EnergyParams::calibrated();
        params.secure_style = style;
        let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
            .expect("compile")
            .with_params(params);
        g.bench_with_input(BenchmarkId::from_parameter(name), &des, |b, des| {
            b.iter(|| des.encrypt(black_box(PLAINTEXT), black_box(KEY)).expect("run"))
        });
    }
    g.finish();
}

fn bench_gating(c: &mut Criterion) {
    let mut g = c.benchmark_group("clock_gating_encrypt_1r");
    g.sample_size(10);
    for (name, gated) in [("gated", true), ("ungated", false)] {
        let mut params = EnergyParams::calibrated();
        params.gate_complementary = gated;
        let des = MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 })
            .expect("compile")
            .with_params(params);
        g.bench_with_input(BenchmarkId::from_parameter(name), &des, |b, des| {
            b.iter(|| des.encrypt(black_box(PLAINTEXT), black_box(KEY)).expect("run"))
        });
    }
    g.finish();
}

fn bench_codegen_styles(c: &mut Criterion) {
    // Optimizing (registers) vs paper-style (memory-resident locals)
    // compilation of the full DES source.
    let src = des_source(&DesProgramSpec { rounds: 4 });
    let mut g = c.benchmark_group("codegen_compile_4r");
    g.sample_size(10);
    for (name, opts) in [
        ("optimizing", CompileOptions::with_policy(MaskPolicy::Selective)),
        ("paper_style", CompileOptions::paper_style(MaskPolicy::Selective)),
        (
            "unoptimized",
            CompileOptions {
                policy: MaskPolicy::Selective,
                no_optimize: true,
                locals_in_memory: false,
            },
        ),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| compile(black_box(&src), *opts).expect("compile"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_secure_styles, bench_gating, bench_codegen_styles);
criterion_main!(benches);
