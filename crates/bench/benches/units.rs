//! Unit-level benchmarks: the XOR unit in normal vs secure mode (the
//! paper's 0.3 / 0.6 pJ point), the energy model's per-cycle throughput,
//! and the raw pipeline simulation rate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emask_cpu::{Cpu, CpuBackend, NullHook};
use emask_energy::{EnergyModel, EnergyParams, FunctionalUnit, UnitState};
use emask_isa::assemble;
use std::hint::black_box;
use std::ops::ControlFlow;

fn bench_xor_unit(c: &mut Criterion) {
    let params = EnergyParams::calibrated();
    let mut g = c.benchmark_group("xor_unit");
    g.bench_function("normal", |b| {
        let mut st = UnitState::new();
        let mut x = 1u32;
        b.iter(|| {
            x = x.wrapping_mul(0x9E37_79B9).rotate_left(7);
            st.operate(&params, FunctionalUnit::Logic, black_box(x), x ^ 0xFFFF, x >> 1, false)
        })
    });
    g.bench_function("secure", |b| {
        let mut st = UnitState::new();
        let mut x = 1u32;
        b.iter(|| {
            x = x.wrapping_mul(0x9E37_79B9).rotate_left(7);
            st.operate(&params, FunctionalUnit::Logic, black_box(x), x ^ 0xFFFF, x >> 1, true)
        })
    });
    g.finish();
}

fn loop_program() -> emask_isa::Program {
    assemble(
        ".data\nv: .word 0x5A5A5A5A\n.text\n la $t0, v\n li $t1, 0\nloop: slw $t2, 0($t0)\n sxor $t3, $t2, $t1\n ssw $t3, 0($t0)\n addiu $t1, $t1, 1\n li $t4, 2000\n bne $t1, $t4, loop\n halt\n",
    )
    .expect("asm")
}

fn bench_pipeline_rate(c: &mut Criterion) {
    let program = loop_program();
    // One run is ~14k cycles; report cycles/second.
    let cycles = {
        let mut cpu = Cpu::new(&program);
        cpu.run(1_000_000).expect("run").cycles
    };
    let mut g = c.benchmark_group("simulation_rate");
    g.throughput(Throughput::Elements(cycles));
    g.bench_function("pipeline_only", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(&program);
            cpu.run(1_000_000).expect("run")
        })
    });
    g.bench_function("pipeline_plus_energy", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(&program);
            let mut model = EnergyModel::new();
            let mut total = 0.0;
            cpu.run_with(1_000_000, &mut NullHook, |a| {
                total += model.observe(a).total_pj();
                ControlFlow::Continue(())
            })
            .expect("run");
            total
        })
    });
    g.finish();
}

criterion_group!(benches, bench_xor_unit, bench_pipeline_rate);
criterion_main!(benches);
