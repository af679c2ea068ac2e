//! Fault-injection robustness: corrupting the program image (tables,
//! text, state) must always surface as a clean error — a golden-model
//! mismatch or a CPU fault — never a panic, hang, or silently wrong
//! accepted result.

use emask::core::DesProgramSpec;
use emask::{MaskPolicy, MaskedDes};

const KEY: u64 = 0x1334_5779_9BBC_DFF1;
const PLAINTEXT: u64 = 0x0123_4567_89AB_CDEF;

fn des() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::None, &DesProgramSpec { rounds: 1 })
        .expect("compile")
        // A fault can turn the program into an endless loop; a tight
        // budget converts that into a prompt CycleLimit fault.
        .with_cycle_limit(200_000)
}

#[test]
fn data_table_corruption_never_panics_and_never_lies() {
    let reference = des();
    let baseline = reference.encrypt(PLAINTEXT, KEY).expect("clean run");
    // Sweep a sample of data words: flip one bit, run, demand a clean
    // outcome. (Corrupting working-state arrays that the program fully
    // overwrites before reading is legitimately harmless.)
    let words = reference.program().data.len();
    let mut outcomes = [0usize; 3]; // [ok-identical, mismatch, cpu-fault]
    for w in (0..words).step_by(23) {
        let mut victim = reference.clone();
        victim.program_mut().data[w] ^= 1;
        match victim.encrypt(PLAINTEXT, KEY) {
            Ok(run) => {
                // Accepted runs must equal the golden model (encrypt
                // validates internally); also the trace length must be
                // unchanged (no data-dependent timing from the flip).
                assert_eq!(run.ciphertext, baseline.ciphertext);
                assert_eq!(run.trace.len(), baseline.trace.len());
                outcomes[0] += 1;
            }
            Err(
                emask::core::RunError::Mismatch { .. }
                | emask::core::RunError::GarbledOutput { .. },
            ) => outcomes[1] += 1,
            Err(emask::core::RunError::Cpu(_)) => outcomes[2] += 1,
            // Data corruption cannot remove symbols or resize memory.
            Err(e) => panic!("unexpected setup error from a data flip: {e}"),
        }
    }
    // The sweep must actually have hit live table data.
    assert!(outcomes[1] > 0, "no corruption was detected: {outcomes:?}");
}

#[test]
fn text_corruption_never_panics() {
    let reference = des();
    let baseline = reference.encrypt(PLAINTEXT, KEY).expect("clean run").ciphertext;
    let n = reference.program().text.len();
    let mut detected = 0;
    for i in (0..n).step_by(29) {
        let mut victim = reference.clone();
        // Instruction-skip fault model: replace one instruction with a nop.
        victim.program_mut().text[i] = emask::isa::Instruction::nop();
        match victim.encrypt(PLAINTEXT, KEY) {
            Ok(run) => assert_eq!(run.ciphertext, baseline),
            Err(_) => detected += 1,
        }
    }
    assert!(detected > 0, "instruction-skip faults must be observable");
}

/// A single-rail upset in a secure-tagged pipeline register must be
/// caught by the dual-rail checker as a typed `DualRailViolation` —
/// end-to-end through the public `encrypt_hooked` API.
#[test]
fn single_rail_fault_in_secure_latch_is_detected() {
    use emask::cpu::{CpuErrorKind, FaultLane, RailMode};
    use emask::fault::{
        DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
    };
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile")
        .with_cycle_limit(400_000);
    // The program mixes secure (`slw`) and normal (`lw`) loads, and only
    // secure samples are rail-checked, so sweep the load index until the
    // strike lands on a secure one — it must then be *detected*, because a
    // true-rail-only flip leaves the complement rail stale. (The first
    // few hundred loads are the public initial permutation; the secure
    // key-permutation loads follow.)
    let mut detected = false;
    for skip in (0..600).step_by(6) {
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::OnOpClass { class: emask::isa::OpClass::Load, skip },
            target: FaultTarget::Lane(FaultLane::IdExB, RailMode::TrueOnly),
            model: FaultModel::BitFlip { bit: 3 },
        });
        let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
        match des.encrypt_hooked(PLAINTEXT, KEY, &mut hook) {
            Err(emask::core::RunError::Cpu(e))
                if matches!(e.kind, CpuErrorKind::DualRailViolation { .. }) =>
            {
                assert!(hook.0.any_injected(), "detection without an injection");
                detected = true;
                break;
            }
            // A strike on a normal load is outside the checker's remit.
            Ok(_) | Err(_) => {}
        }
    }
    assert!(detected, "no strike on a secure load was reported as a dual-rail violation");
}

/// A small sweep of pipeline-latch faults across the run: every trial
/// must end in a clean classified outcome, never a panic, and a
/// consistent-rail (`Both`) strike must never trip the checker — that
/// fault is architectural, not a rail defect.
#[test]
fn lane_fault_sweep_classifies_cleanly() {
    use emask::cpu::{CpuErrorKind, FaultLane, RailMode};
    use emask::fault::{
        DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
    };
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile")
        .with_cycle_limit(400_000);
    let clean_cycles = des.encrypt(PLAINTEXT, KEY).expect("clean run").stats.cycles;
    let mut outcomes = [0usize; 4]; // [no-effect, detected, wrong, crash/hang]
    for i in 0..24usize {
        let lane = emask::cpu::FaultLane::ALL[i % FaultLane::ALL.len()];
        let rail = [RailMode::Both, RailMode::TrueOnly][i % 2];
        let cycle = (i as u64) * clean_cycles / 24;
        let plan = FaultPlan::single(FaultSpec {
            trigger: FaultTrigger::CycleWindow { start: cycle, end: cycle + 300 },
            target: FaultTarget::Lane(lane, rail),
            model: FaultModel::BitFlip { bit: (i % 32) as u8 },
        });
        let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
        match des.encrypt_hooked(PLAINTEXT, KEY, &mut hook) {
            Ok(_) => outcomes[0] += 1,
            Err(emask::core::RunError::Cpu(e)) => {
                if matches!(e.kind, CpuErrorKind::DualRailViolation { .. }) {
                    assert!(
                        rail != RailMode::Both,
                        "a consistent dual-rail fault cannot trip the rail checker"
                    );
                    outcomes[1] += 1;
                } else {
                    outcomes[3] += 1;
                }
            }
            Err(
                emask::core::RunError::Mismatch { .. }
                | emask::core::RunError::GarbledOutput { .. },
            ) => outcomes[2] += 1,
            Err(e) => panic!("unexpected setup error from a lane fault: {e}"),
        }
    }
    assert_eq!(outcomes.iter().sum::<usize>(), 24, "every trial classified");
}

#[test]
fn memory_exhaustion_is_a_clean_fault() {
    // A store far out of range faults with OutOfBounds, surfaced as
    // RunError::Cpu, not a panic.
    let p =
        emask::isa::assemble(".text\n li $t0, 0x7FFF0000\n sw $t1, 0($t0)\n halt\n").expect("asm");
    let mut cpu = emask::cpu::Cpu::new(&p);
    let err = cpu.run(1_000).unwrap_err();
    assert!(matches!(err.kind, emask::cpu::CpuErrorKind::Memory(_)));
}

#[test]
fn corrupted_sbox_fails_the_round_one_window_check() {
    // `encrypt_window` stops at the marker that ends its window, before
    // the ciphertext exists, so the round-state check there is the only
    // thing between a corrupted table and an accepted attack trace.
    // Flip bit 0 of every S-box 1 entry: round 1's f output changes.
    let mut des = des();
    let window = des
        .encrypt(PLAINTEXT, KEY)
        .expect("clean run")
        .phase_window(emask::Phase::Round(1))
        .expect("round 1");
    let base = ((des.program().data_addr("sbox") - emask::isa::DATA_BASE) / 4) as usize;
    for entry in &mut des.program_mut().data[base..base + 64] {
        *entry ^= 1;
    }
    let err = des.encrypt_window(PLAINTEXT, KEY, window).expect_err("corrupted S-box 1");
    assert!(matches!(err, emask::core::RunError::Mismatch { .. }), "{err:?}");
}

/// A campaign forks each trial from the clean run's ladder and stops it
/// where it rejoins the clean run. Every lattice class (target `i % 10`
/// × model `i % 7`, 70 trials) must classify exactly as the same trial
/// simulated from reset to the end, fail-stop and recovering alike, with
/// the same recovery counters.
#[test]
fn forked_campaign_trials_equal_trials_run_from_reset() {
    use emask::core::RecoveryPolicy;
    use emask::par::{CancelToken, Jobs};
    use emask_bench::{run_campaign, run_campaign_from_reset, CampaignConfig};
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile");
    for recovery in [None, Some(RecoveryPolicy::default())] {
        let cfg = CampaignConfig { trials: 70, recovery, ..CampaignConfig::default() };
        let forked = run_campaign(
            &des,
            &cfg,
            Jobs::serial(),
            &CancelToken::new(),
            None,
            &emask::telemetry::NullSink,
        )
        .expect("forked campaign");
        let reset = run_campaign_from_reset(&des, &cfg).expect("campaign from reset");
        for (f, r) in forked.trials.iter().zip(&reset.trials) {
            assert_eq!(f, r, "recovery {recovery:?}");
        }
        assert_eq!(forked.trials.len(), reset.trials.len());
        assert_eq!(forked.recovery, reset.recovery, "recovery {recovery:?}");
        assert_eq!(forked.clean_cycles, reset.clean_cycles);
    }
}

/// Counts the cycles a hook is stepped through, forwarding the rest.
struct CountSteps<H> {
    inner: H,
    steps: u64,
}

impl<H: emask::cpu::PipelineHook> emask::cpu::PipelineHook for CountSteps<H> {
    fn before_cycle(&mut self, ctx: &mut emask::cpu::HookCtx<'_>) {
        self.steps += 1;
        self.inner.before_cycle(ctx);
    }
    fn after_cycle(
        &mut self,
        act: &emask::cpu::CycleActivity,
    ) -> Result<(), emask::cpu::CpuErrorKind> {
        self.inner.after_cycle(act)
    }
    fn is_inert(&self, cycle: u64) -> bool {
        self.inner.is_inert(cycle)
    }
}

/// Runs `spec` forked from `ladder` and from reset, under `policy`
/// (`None`: fail-stop), demands the same result, and returns the forked
/// run's steps.
fn forked_steps_equal_from_reset(
    des: &MaskedDes,
    ladder: &emask::core::CleanLadder,
    spec: emask::fault::FaultSpec,
    policy: Option<&emask::core::RecoveryPolicy>,
) -> u64 {
    use emask::fault::{DualRailChecker, FaultInjector, FaultPlan, FaultTrigger};
    let hook = || (FaultInjector::new(FaultPlan::single(spec)), DualRailChecker::new());
    let fork_at = match spec.trigger {
        FaultTrigger::AtCycle(c) | FaultTrigger::CycleWindow { start: c, .. } => c,
        FaultTrigger::AtRetired(_) | FaultTrigger::OnOpClass { .. } => 0,
    };
    let mut counted = CountSteps { inner: hook(), steps: 0 };
    let forked = des.encrypt_forked(ladder, fork_at, &mut counted, policy);
    match policy {
        Some(p) => {
            let reset = des.encrypt_recovered(PLAINTEXT, KEY, &mut hook(), p);
            assert_eq!(forked, reset, "{spec:?}");
        }
        None => {
            let reset = des.encrypt_hooked(PLAINTEXT, KEY, &mut hook());
            assert_eq!(forked.map(|run| run.stats), reset, "{spec:?}");
        }
    }
    counted.steps
}

/// Random fault plans (target, model, trigger cycle, bit) on the 1-round
/// device, fail-stop and recovering: a run forked from the clean run's
/// ladder ends exactly as the same fault run from reset. A flipped key
/// parity bit, which the key permutation never reads, stops well short of
/// `halt`: the trial rejoins the clean run on live state.
#[test]
fn forked_runs_equal_runs_from_reset_for_random_fault_plans() {
    use emask::core::RecoveryPolicy;
    use emask::cpu::{FaultLane, RailMode};
    use emask::fault::{FaultModel, FaultSpec, FaultTarget, FaultTrigger};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile");
    let clean = des.encrypt(PLAINTEXT, KEY).expect("clean run");
    let (clean_cycles, last_marker) = (clean.stats.cycles, clean.markers.last().expect("OP").cycle);
    // A fault can loop the program; campaigns allow twice the clean run.
    let des = des.with_cycle_limit(2 * clean_cycles);
    let ladder = des.clean_ladder(PLAINTEXT, KEY).expect("clean run");
    let key = des.program().data_addr("key");
    let data_words = des.program().data.len() as u64;
    const RAILS: [RailMode; 3] = [RailMode::TrueOnly, RailMode::Both, RailMode::ComplementOnly];
    let mut rng = StdRng::seed_from_u64(27);
    let policy = RecoveryPolicy::default();
    for policy in [None, Some(&policy)] {
        for _ in 0..40 {
            let cycle = rng.gen_range(0..clean_cycles);
            let bit = rng.gen_range(0..32) as u8;
            let target = match rng.gen_range(0..4) {
                0 => FaultTarget::Lane(
                    FaultLane::ALL[rng.gen_range(0..5) as usize],
                    RAILS[rng.gen_range(0..3) as usize],
                ),
                1 => FaultTarget::Register(rng.gen_range(0..32) as u8),
                2 => FaultTarget::Memory {
                    addr: emask::isa::DATA_BASE + 4 * rng.gen_range(0..data_words) as u32,
                },
                _ => FaultTarget::FetchSquash,
            };
            let model = match rng.gen_range(0..3) {
                0 => FaultModel::BitFlip { bit },
                1 => FaultModel::StuckAt { bit, stuck_one: rng.gen() },
                _ => FaultModel::Glitch { mask: 1 << bit, cycles: 1 + rng.gen_range(0..4) as u32 },
            };
            let trigger = if rng.gen() {
                FaultTrigger::AtCycle(cycle)
            } else {
                FaultTrigger::CycleWindow { start: cycle, end: cycle + rng.gen_range(1..300) }
            };
            forked_steps_equal_from_reset(
                &des,
                &ladder,
                FaultSpec { trigger, target, model },
                policy,
            );
        }
        // Key words 7, 15, …, 63 hold the parity bits, flipped here
        // before the last rung (the output permutation's marker). A hook
        // that is never inert runs the same fork to `halt`.
        struct Busy;
        impl emask::cpu::PipelineHook for Busy {}
        for word in (7..64).step_by(8) {
            let cycle = u64::from(word) * last_marker / 64;
            let spec = FaultSpec {
                trigger: FaultTrigger::AtCycle(cycle),
                target: FaultTarget::Memory { addr: key + 4 * word },
                model: FaultModel::BitFlip { bit: 0 },
            };
            let steps = forked_steps_equal_from_reset(&des, &ladder, spec, policy);
            let mut busy = CountSteps { inner: Busy, steps: 0 };
            des.encrypt_forked(&ladder, cycle, &mut busy, policy).expect("clean fork");
            assert!(
                steps < busy.steps,
                "key word {word} flipped at cycle {cycle} ran all {steps} steps to halt"
            );
        }
    }
}

/// A fault that re-fires on every replay spends the whole fixed rollback
/// budget, `RecoveryPolicy::MAX_RETRIES` = 8, and zeroizes the key; a
/// recovering campaign classifies such a trial as `zeroized`.
#[test]
fn persistent_fault_spends_the_fixed_rollback_budget_and_zeroizes() {
    use emask::core::{RecoveryPolicy, RunError};
    use emask::cpu::{FaultLane, RailMode};
    use emask::fault::{
        DualRailChecker, FaultInjector, FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger,
    };
    use emask::par::{CancelToken, Jobs};
    use emask_bench::{run_campaign, CampaignConfig, FaultOutcome};
    let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile");
    // A stuck-at on one rail of an operand latch for the whole run: each
    // replay meets it again.
    let spec = FaultSpec {
        trigger: FaultTrigger::CycleWindow { start: 0, end: u64::MAX },
        target: FaultTarget::Lane(FaultLane::IdExA, RailMode::TrueOnly),
        model: FaultModel::StuckAt { bit: 0, stuck_one: true },
    };
    let mut hook = (FaultInjector::new(FaultPlan::single(spec)), DualRailChecker::new());
    let err = des
        .encrypt_recovered(PLAINTEXT, KEY, &mut hook, &RecoveryPolicy::default())
        .expect_err("a persistent fault must not complete");
    assert!(matches!(err, RunError::Zeroized { rollbacks: 8, .. }), "{err}");

    // Trial 0 of the campaign lattice is a one-shot bit flip, so a
    // one-trial campaign cannot zeroize. The first lattice stuck-at the
    // checker meets on every replay is trial 12 of a 13-trial campaign:
    // a stuck-at-1 on the complement rail of the EX/MEM ALU latch.
    let cfg = CampaignConfig {
        trials: 13,
        recovery: Some(RecoveryPolicy::default()),
        ..CampaignConfig::default()
    };
    let report = run_campaign(
        &des,
        &cfg,
        Jobs::serial(),
        &CancelToken::new(),
        None,
        &emask::telemetry::NullSink,
    )
    .expect("campaign");
    let trial = &report.trials[12];
    assert_eq!((trial.target.as_str(), trial.model.as_str()), ("ex_mem.alu:comp", "stuck-at"));
    assert_eq!(trial.outcome, FaultOutcome::Zeroized, "{}", report.summary());
    assert!(trial.detail.starts_with("key zeroized after 8 rollbacks"), "{}", trial.detail);
    assert_eq!(report.count(FaultOutcome::Zeroized), 1, "{}", report.summary());
}

/// Rollback rests on the checkpoint's page bookkeeping, on both backends
/// mid-DES: a refresh brings every page written since the boundary before
/// into the shadow, a restore rewinds every page and the statistics to
/// the last refresh, and each boundary starts an empty dirty set.
#[test]
fn checkpoints_rewind_every_page_to_the_last_refresh_and_move_only_fresh_ones() {
    use emask::cpu::{Cpu, CpuBackend, Interpreter, NullHook};
    fn check<B: CpuBackend>(des: &MaskedDes) {
        let steps = |m: &mut B| {
            for _ in 0..3000 {
                m.step(&mut NullHook).expect("step");
            }
        };
        let state = |m: &B| (m.registers(), m.memory().clone(), m.stats());
        let mut m = B::load(des.program());
        let mut cp = m.checkpoint();
        m.checkpoint_refresh(&mut cp);
        assert_eq!(cp.pages_moved(), 0, "{}: loading the image is no store", B::NAME);
        steps(&mut m);
        m.checkpoint_refresh(&mut cp);
        assert!(cp.pages_moved() > 0, "{}: the run stored", B::NAME);
        let at_refresh = state(&m);
        steps(&mut m);
        // A store to every page: the restore must rewind them all.
        for addr in (0..emask::isa::MEM_SIZE).step_by(256) {
            m.memory_mut().store(addr, 0xA5A5_A5A5).expect("in range");
        }
        m.checkpoint_restore(&mut cp);
        assert!(state(&m) == at_refresh, "{}: the restore missed state", B::NAME);
        m.checkpoint_refresh(&mut cp);
        assert_eq!(cp.pages_moved(), 0, "{}: a restore starts a new boundary", B::NAME);
    }
    let des = des();
    check::<Cpu>(&des);
    check::<Interpreter>(&des);
}
