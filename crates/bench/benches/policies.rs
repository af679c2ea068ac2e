//! The totals-table benchmark: one simulated encryption per masking
//! policy (the machinery behind the 46.4 / 52.6 / 63.6 / 83.5 µJ table),
//! plus compilation cost per policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emask_bench::{KEY, PLAINTEXT};
use emask_core::{des_source, DesProgramSpec};
use emask_core::{MaskPolicy, MaskedDes};
use std::hint::black_box;

const POLICIES: [MaskPolicy; 4] = [
    MaskPolicy::None,
    MaskPolicy::Selective,
    MaskPolicy::AllLoadsStores,
    MaskPolicy::AllInstructions,
];

fn bench_encrypt_per_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_encrypt_2r");
    g.sample_size(10);
    for policy in POLICIES {
        let des = MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 2 }).expect("compile");
        g.bench_with_input(BenchmarkId::from_parameter(policy), &des, |b, des| {
            b.iter(|| des.encrypt(black_box(PLAINTEXT), black_box(KEY)).expect("run"))
        });
    }
    g.finish();
}

fn bench_compile_per_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_compile_16r");
    g.sample_size(10);
    for policy in POLICIES {
        g.bench_with_input(BenchmarkId::from_parameter(policy), &policy, |b, &policy| {
            b.iter(|| {
                MaskedDes::compile_spec(black_box(policy), &DesProgramSpec::default())
                    .expect("compile")
            })
        });
    }
    g.finish();
}

fn bench_source_generation(c: &mut Criterion) {
    c.bench_function("des_source_16r", |b| {
        b.iter(|| des_source(black_box(&DesProgramSpec::default())))
    });
}

criterion_group!(
    benches,
    bench_encrypt_per_policy,
    bench_compile_per_policy,
    bench_source_generation
);
criterion_main!(benches);
