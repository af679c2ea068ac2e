//! The generic multi-backend conformance suite.
//!
//! [`conformance_suite`] checks one [`CpuBackend`] against the reference
//! interpreter; [`conformance_suite_pair`] checks any explicit pair. Both
//! verify the **architectural contract** of
//! [`emask_cpu::CpuBackend`]: identical final register and data-memory state,
//! identical retirement order, identical memory-traffic counts, hook
//! transparency (a non-null hook that does nothing must not perturb the
//! run), stop and resume through [`CpuBackend::run_with`], checkpoint
//! round-trips (where supported), and per-backend energy CSV emission.
//! Microarchitectural figures — cycle counts, stalls, per-cycle energy —
//! are deliberately *not* compared across backends.
//!
//! The corpus is deterministic ([`crate::programs::corpus`]): 256
//! generated Tiny-C programs plus the real masked and unmasked DES
//! binaries, so a reported divergence always reproduces bit-for-bit.

use crate::programs::corpus;
use emask_cc::{compile, CompileOptions, MaskPolicy};
use emask_core::{des_source, DesProgramSpec};
use emask_cpu::{
    CpuBackend, CycleActivity, DataMemory, HookCtx, Interpreter, NullHook, PipelineHook,
};
use emask_energy::{EnergyModel, EnergyTrace};
use emask_isa::{Instruction, Program};
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Cycle/instruction budget for every conformance run — generous enough
/// for the full 16-round DES binary on the slowest backend.
const LIMIT: u64 = 20_000_000;

/// Generated programs per suite run (acceptance floor: 256).
const CORPUS_SIZE: usize = 256;

/// Expensive per-program properties (hook transparency, checkpoint
/// round-trip) run on every `SPOT_CHECK_STRIDE`-th corpus program — plus,
/// always, on both DES binaries.
const SPOT_CHECK_STRIDE: usize = 16;

/// What one suite invocation covered — returned so callers (and CI logs)
/// can assert the coverage floor instead of trusting it.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// `B::NAME` of the backend under test.
    pub backend: &'static str,
    /// `NAME` of the reference backend it was compared against.
    pub reference: &'static str,
    /// Generated corpus programs compared (≥ 256).
    pub programs: usize,
    /// Real DES binaries compared (masked + unmasked = 2).
    pub des_binaries: usize,
    /// Checkpoint round-trips exercised (0 when unsupported).
    pub checkpoint_round_trips: usize,
    /// Hook-transparency checks exercised.
    pub hook_checks: usize,
    /// Stop-and-resume checks exercised (three stop points each).
    pub stop_resume_checks: usize,
    /// Energy CSV files emitted, one per (backend, DES binary).
    pub energy_csvs: Vec<PathBuf>,
}

/// The architectural fingerprint of one completed run: everything two
/// conforming backends must agree on, and nothing they may not.
struct ArchRun {
    regs: [u32; 32],
    mem: DataMemory,
    retired: Vec<Instruction>,
    loads: u64,
    stores: u64,
    trace: EnergyTrace,
}

/// A hook that observes every cycle without touching anything — non-null
/// by construction (`IS_NULL = false`), so it forces the hooked execution
/// path and lets the suite prove that path is architecturally transparent.
struct InertHook {
    cycles_seen: u64,
}

impl PipelineHook for InertHook {
    fn before_cycle(&mut self, ctx: &mut HookCtx<'_>) {
        // Architectural reads only; no mutation.
        let _ = ctx.pc();
        self.cycles_seen += 1;
    }
}

fn run_arch<B: CpuBackend, H: PipelineHook>(program: &Program, hook: &mut H) -> ArchRun {
    let mut cpu = B::load(program);
    let mut model = EnergyModel::new();
    let mut trace = EnergyTrace::new();
    let mut retired = Vec::new();
    let stats = cpu
        .run_with(LIMIT, hook, |act| {
            trace.push(model.observe(act));
            if let Some(inst) = act.retired {
                retired.push(inst);
            }
            ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("{} run failed: {e}", B::NAME));
    ArchRun {
        regs: cpu.registers(),
        mem: cpu.memory().clone(),
        retired,
        loads: stats.loads,
        stores: stats.stores,
        trace,
    }
}

fn assert_arch_agreement(a: &ArchRun, b: &ArchRun, names: (&str, &str), what: &str) {
    let (an, bn) = names;
    assert_eq!(a.regs, b.regs, "[{what}] final registers diverged: {an} vs {bn}");
    assert_eq!(a.mem, b.mem, "[{what}] final data memory diverged: {an} vs {bn}");
    assert_eq!(
        a.retired.len(),
        b.retired.len(),
        "[{what}] retirement count diverged: {an} vs {bn}"
    );
    for (i, (x, y)) in a.retired.iter().zip(&b.retired).enumerate() {
        assert_eq!(x, y, "[{what}] retirement order diverged at index {i}: {an} vs {bn}");
    }
    assert_eq!(a.loads, b.loads, "[{what}] load count diverged: {an} vs {bn}");
    assert_eq!(a.stores, b.stores, "[{what}] store count diverged: {an} vs {bn}");
}

/// Hook transparency on one backend: a non-null, do-nothing hook must
/// leave every architectural observable identical to the unhooked run.
fn assert_hook_transparent<B: CpuBackend>(program: &Program, what: &str) {
    let plain = run_arch::<B, _>(program, &mut NullHook);
    let mut inert = InertHook { cycles_seen: 0 };
    let hooked = run_arch::<B, _>(program, &mut inert);
    assert!(inert.cycles_seen > 0, "[{what}] inert hook never ran on {}", B::NAME);
    assert_arch_agreement(&plain, &hooked, (B::NAME, B::NAME), what);
    // On a single backend even the microarchitectural stream must match.
    assert_eq!(
        plain.trace,
        hooked.trace,
        "[{what}] inert hook changed the energy trace on {}",
        B::NAME
    );
}

/// The uninterrupted activity stream of `program` on `B`, and the halted
/// machine that produced it.
fn reference_stream<B: CpuBackend>(program: &Program, what: &str) -> (B, Vec<CycleActivity>) {
    let mut reference: Vec<CycleActivity> = Vec::new();
    let mut cpu = B::load(program);
    cpu.run_with(LIMIT, &mut NullHook, |act| {
        reference.push(act.clone());
        ControlFlow::Continue(())
    })
    .unwrap_or_else(|e| panic!("[{what}] {} reference run failed: {e}", B::NAME));
    (cpu, reference)
}

/// Stop and resume on one backend: a [`CpuBackend::run_with`] whose
/// callback breaks after `k` cycles, followed by a second `run_with` to
/// `halt`, must produce the uninterrupted run's activity stream, registers
/// and data memory — for `k` at the first cycle, the midpoint and the last
/// cycle before `halt`. This is the property windowed acquisition (stop
/// at a marker) and any stop-then-continue caller rely on.
///
/// # Panics
///
/// Panics on divergence, or if the stopped run claims to have halted.
pub(crate) fn assert_stop_resume<B: CpuBackend>(program: &Program, what: &str) {
    let (full, reference) = reference_stream::<B>(program, what);
    let total = reference.len();
    assert!(total > 2, "[{what}] program too short to stop mid-run");
    for k in [1, total / 2, total - 1] {
        let mut cpu = B::load(program);
        let mut seen = 0usize;
        let mut check = |act: &CycleActivity| {
            assert_eq!(
                act,
                &reference[seen],
                "[{what}] {} activity stream diverged at cycle {seen} (stop at {k})",
                B::NAME
            );
            seen += 1;
            seen
        };
        cpu.run_with(LIMIT, &mut NullHook, |act| {
            if check(act) == k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap_or_else(|e| panic!("[{what}] {} stopped run failed: {e}", B::NAME));
        assert!(!cpu.is_halted(), "[{what}] {} halted instead of stopping at {k}", B::NAME);
        assert_eq!(cpu.cycles(), k as u64, "[{what}] {} stopped at the wrong cycle", B::NAME);
        cpu.run_with(LIMIT, &mut NullHook, |act| {
            check(act);
            ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("[{what}] {} resumed run failed: {e}", B::NAME));
        assert_eq!(seen, total, "[{what}] {} resumed run length diverged", B::NAME);
        assert_eq!(cpu.registers(), full.registers(), "[{what}] {} registers diverged", B::NAME);
        assert_eq!(cpu.memory(), full.memory(), "[{what}] {} memory diverged", B::NAME);
        assert_eq!(cpu.stats(), full.stats(), "[{what}] {} statistics diverged", B::NAME);
    }
}

/// Checkpoint round-trip on one backend: interrupt a run mid-flight,
/// wander past the snapshot, restore, and finish — the completed activity
/// stream must be bit-identical to an uninterrupted run's.
///
/// Exposed for the mid-DES checkpoint property test; panics on divergence.
pub fn assert_checkpoint_round_trip<B: CpuBackend>(program: &Program, what: &str) {
    let (_, reference) = reference_stream::<B>(program, what);
    let total = reference.len();
    assert!(total > 4, "[{what}] program too short to interrupt");

    // Interrupted run: half-way snapshot, overshoot, rollback, complete.
    let mut cpu = B::load(program);
    let mut stream: Vec<CycleActivity> = Vec::new();
    for _ in 0..total / 2 {
        let act = cpu
            .step(&mut NullHook)
            .unwrap_or_else(|e| panic!("[{what}] {} step failed: {e}", B::NAME));
        stream.push(act);
    }
    let mut cp = cpu.checkpoint();
    for _ in 0..(total - total / 2).min(64) {
        if cpu.is_halted() {
            break;
        }
        let _ = cpu
            .step(&mut NullHook)
            .unwrap_or_else(|e| panic!("[{what}] {} overshoot step failed: {e}", B::NAME));
    }
    cpu.checkpoint_restore(&mut cp);
    while !cpu.is_halted() {
        let act = cpu
            .step(&mut NullHook)
            .unwrap_or_else(|e| panic!("[{what}] {} replay step failed: {e}", B::NAME));
        stream.push(act);
    }
    assert_eq!(
        stream.len(),
        reference.len(),
        "[{what}] {} interrupted run length diverged",
        B::NAME
    );
    for (i, (x, y)) in stream.iter().zip(&reference).enumerate() {
        assert_eq!(
            x,
            y,
            "[{what}] {} activity stream diverged at cycle {i} after rollback",
            B::NAME
        );
    }
}

/// Emits backend `B`'s energy trace for `program` as a CSV file under the
/// system temp directory and validates it re-parses; returns the path.
fn emit_energy_csv<B: CpuBackend>(trace: &EnergyTrace, label: &str) -> PathBuf {
    let csv = trace.to_csv();
    let reparsed = EnergyTrace::from_csv(&csv).expect("emitted CSV must re-parse");
    assert_eq!(&reparsed, trace, "CSV round-trip lost samples");
    let path = std::env::temp_dir().join(format!("emask-conformance-{}-{label}.csv", B::NAME));
    std::fs::write(&path, csv).expect("write energy CSV");
    path
}

/// The compile options the corpus alternates through — both codegen
/// styles, so backend conformance is checked on optimizing *and*
/// paper-style code.
fn corpus_options(i: usize) -> CompileOptions {
    if i.is_multiple_of(2) {
        CompileOptions::with_policy(MaskPolicy::None)
    } else {
        CompileOptions::paper_style(MaskPolicy::Selective)
    }
}

/// Runs the full conformance suite for backend pair `(A, B)`: 256
/// generated programs plus the real masked and unmasked DES binaries,
/// compared architecturally; hook transparency, stop and resume, and
/// checkpoint round-trips spot-checked on both
/// sides; per-backend energy CSVs emitted for the DES binaries.
///
/// # Panics
///
/// Panics (with the offending program and property named) on any
/// conformance violation — this is test support, not a library API.
#[must_use]
pub fn conformance_suite_pair<A: CpuBackend, B: CpuBackend>() -> ConformanceReport {
    let mut report = ConformanceReport {
        backend: A::NAME,
        reference: B::NAME,
        programs: 0,
        des_binaries: 0,
        checkpoint_round_trips: 0,
        hook_checks: 0,
        stop_resume_checks: 0,
        energy_csvs: Vec::new(),
    };

    for (i, src) in corpus(0xC0DE_2003, CORPUS_SIZE).iter().enumerate() {
        let what = format!("corpus[{i}]");
        let out = compile(src, corpus_options(i))
            .unwrap_or_else(|e| panic!("[{what}] compile failed: {e}\n{src}"));
        let a = run_arch::<A, _>(&out.program, &mut NullHook);
        let b = run_arch::<B, _>(&out.program, &mut NullHook);
        assert_arch_agreement(&a, &b, (A::NAME, B::NAME), &what);
        report.programs += 1;

        if i % SPOT_CHECK_STRIDE == 0 {
            assert_hook_transparent::<A>(&out.program, &what);
            assert_hook_transparent::<B>(&out.program, &what);
            report.hook_checks += 2;
            assert_stop_resume::<A>(&out.program, &what);
            assert_stop_resume::<B>(&out.program, &what);
            report.stop_resume_checks += 2;
            assert_checkpoint_round_trip::<A>(&out.program, &what);
            assert_checkpoint_round_trip::<B>(&out.program, &what);
            report.checkpoint_round_trips += 2;
        }
    }

    // The real DES binaries: the paper's unmasked baseline and the
    // selectively masked build, full 16 rounds.
    let src = des_source(&DesProgramSpec::default());
    for (label, policy) in [("unmasked", MaskPolicy::None), ("masked", MaskPolicy::Selective)] {
        let what = format!("des-{label}");
        let out = compile(&src, CompileOptions::paper_style(policy))
            .unwrap_or_else(|e| panic!("[{what}] compile failed: {e}"));
        let a = run_arch::<A, _>(&out.program, &mut NullHook);
        let b = run_arch::<B, _>(&out.program, &mut NullHook);
        assert_arch_agreement(&a, &b, (A::NAME, B::NAME), &what);
        assert_hook_transparent::<A>(&out.program, &what);
        report.hook_checks += 1;
        assert_stop_resume::<A>(&out.program, &what);
        assert_stop_resume::<B>(&out.program, &what);
        report.stop_resume_checks += 2;
        assert_checkpoint_round_trip::<A>(&out.program, &what);
        report.checkpoint_round_trips += 1;
        report.energy_csvs.push(emit_energy_csv::<A>(&a.trace, label));
        report.energy_csvs.push(emit_energy_csv::<B>(&b.trace, label));
        report.des_binaries += 1;
    }

    report
}

/// [`conformance_suite_pair`] against the reference [`Interpreter`] — the
/// entry point every new backend registers itself with.
#[must_use]
pub fn conformance_suite<B: CpuBackend>() -> ConformanceReport {
    conformance_suite_pair::<B, Interpreter>()
}
