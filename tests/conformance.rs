//! The multi-backend conformance suite, instantiated for every registered
//! backend pair, plus the mid-DES checkpoint round-trip property test
//! (satellite of the `CpuBackend` refactor).

use emask::cc::{compile, CompileOptions, MaskPolicy};
use emask::core::{des_source, DesProgramSpec};
use emask::cpu::{Cpu, CpuBackend, CycleActivity, Interpreter, NullHook};
use emask_conformance::{assert_checkpoint_round_trip, conformance_suite, conformance_suite_pair};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// The pipeline against the reference interpreter — the pair that catches
/// pipeline bugs. Coverage floors are asserted on the report, not assumed.
#[test]
fn pipeline_conforms_to_the_reference_interpreter() {
    let report = conformance_suite::<Cpu>();
    assert_eq!(report.backend, "pipeline5");
    assert_eq!(report.reference, "interp");
    assert!(report.programs >= 256, "corpus shrank: {}", report.programs);
    assert_eq!(report.des_binaries, 2, "masked + unmasked DES");
    assert!(report.checkpoint_round_trips > 0);
    assert!(report.hook_checks > 0);
    assert!(report.stop_resume_checks > 0);
    assert_eq!(report.energy_csvs.len(), 4, "one CSV per (backend, DES binary)");
    for p in &report.energy_csvs {
        assert!(p.exists(), "energy CSV not emitted: {}", p.display());
    }
}

/// The remaining pairs of the two-backend registry: self-conformance for
/// both backends, and the mirrored ordering. Self-pairs pin determinism
/// (two runs of the same backend agree with themselves); the mirrored pair
/// pins that the comparison is symmetric.
#[test]
fn every_remaining_backend_pair_conforms() {
    let r = conformance_suite_pair::<Interpreter, Cpu>();
    assert!(r.programs >= 256);
    let r = conformance_suite_pair::<Cpu, Cpu>();
    assert!(r.programs >= 256);
    let r = conformance_suite::<Interpreter>();
    assert!(r.programs >= 256);
}

/// Compiles the reduced-round masked DES binary the checkpoint property
/// tests interrupt.
fn masked_des_program() -> emask::isa::Program {
    let src = des_source(&DesProgramSpec { rounds: 2 });
    compile(&src, CompileOptions::paper_style(MaskPolicy::Selective)).expect("compile").program
}

/// Satellite: mid-DES checkpoint round-trip through the generic harness on
/// every checkpoint-capable backend, at the harness's standard midpoint.
#[test]
fn mid_des_checkpoint_round_trip_on_every_capable_backend() {
    let program = masked_des_program();
    const { assert!(Cpu::SUPPORTS_CHECKPOINT && Interpreter::SUPPORTS_CHECKPOINT) };
    assert_checkpoint_round_trip::<Cpu>(&program, "mid-des");
    assert_checkpoint_round_trip::<Interpreter>(&program, "mid-des");
}

/// The property form: the snapshot point must not matter. Snapshot after a
/// proptest-chosen fraction of the run, overshoot, restore, complete — the
/// activity stream (and therefore the energy trace) must be bit-identical
/// to an uninterrupted run for any interruption point.
fn round_trip_at<B: CpuBackend>(program: &emask::isa::Program, num: u64, den: u64) {
    let mut reference: Vec<CycleActivity> = Vec::new();
    let mut cpu = B::load(program);
    cpu.run_with(20_000_000, &mut NullHook, |act| {
        reference.push(act.clone());
        ControlFlow::Continue(())
    })
    .expect("reference run");
    let cut = (reference.len() as u64 * num / den).max(1) as usize;

    let mut cpu = B::load(program);
    let mut stream: Vec<CycleActivity> = Vec::new();
    for _ in 0..cut {
        stream.push(cpu.step(&mut NullHook).expect("step"));
    }
    let mut cp = cpu.checkpoint();
    for _ in 0..97 {
        if cpu.is_halted() {
            break;
        }
        let _ = cpu.step(&mut NullHook).expect("overshoot step");
    }
    cpu.checkpoint_restore(&mut cp);
    while !cpu.is_halted() {
        stream.push(cpu.step(&mut NullHook).expect("replay step"));
    }
    assert_eq!(stream, reference, "{}: snapshot at {num}/{den} not transparent", B::NAME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn checkpoint_position_is_transparent_mid_des(num in 1u64..10) {
        let program = masked_des_program();
        round_trip_at::<Cpu>(&program, num, 10);
        round_trip_at::<Interpreter>(&program, num, 10);
    }
}
