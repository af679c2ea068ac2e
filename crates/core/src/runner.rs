//! Compiling, running, measuring, and validating masked DES encryptions.

use crate::desgen::{
    des_source_with, DesProgramSpec, MARKER_INITIAL_PERM, MARKER_KEY_PERM, MARKER_OUTPUT_PERM,
    MARKER_ROUND,
};
use crate::recovery::{
    recoverable, zeroize_secrets, CleanLadder, RecoveryPolicy, RecoveryStats, Rung,
};
use emask_cc::{compile, CompileError, CompileOptions, MaskPolicy, SliceReport};
use emask_cpu::AccessError;
use emask_cpu::{
    Cpu, CpuBackend, CpuError, CpuErrorKind, CycleActivity, LastReads, NullHook, PipelineHook,
    RunResult,
};
use emask_des::bits::{from_bit_vec, to_bit_vec};
use emask_des::BitArrayState;
use emask_energy::{CycleEnergy, EnergyModel, EnergyParams, EnergyTrace};
use emask_isa::Program;
use std::fmt;
use std::ops::{ControlFlow, Range};

/// An execution phase of the DES program, derived from phase markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Initial (plaintext) permutation.
    InitialPermutation,
    /// Key permutation (PC-1).
    KeyPermutation,
    /// Feistel round `1..=16`.
    Round(u8),
    /// Output inverse permutation.
    OutputPermutation,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::InitialPermutation => f.write_str("initial permutation"),
            Phase::KeyPermutation => f.write_str("key permutation"),
            Phase::Round(n) => write!(f, "round {n}"),
            Phase::OutputPermutation => f.write_str("output permutation"),
        }
    }
}

/// A phase boundary observed during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMarker {
    /// The phase that starts here.
    pub phase: Phase,
    /// The cycle of the marker store's memory access.
    pub cycle: u64,
}

/// Everything measured from one simulated encryption.
#[derive(Debug, Clone)]
pub struct EncryptionRun {
    /// The ciphertext read back from the simulated data memory, already
    /// validated against the golden model.
    pub ciphertext: u64,
    /// The per-cycle energy trace.
    pub trace: EnergyTrace,
    /// Pipeline statistics.
    pub stats: RunResult,
    /// Phase boundaries in cycle order.
    pub markers: Vec<PhaseMarker>,
}

impl EncryptionRun {
    /// The cycle window of `phase` (start inclusive, end exclusive; the
    /// end is the next marker or the end of the trace).
    pub fn phase_window(&self, phase: Phase) -> Option<Range<usize>> {
        let i = self.markers.iter().position(|m| m.phase == phase)?;
        let start = self.markers[i].cycle as usize;
        let end =
            self.markers.get(i + 1).map(|m| m.cycle as usize).unwrap_or_else(|| self.trace.len());
        Some(start..end)
    }

    /// The energy sub-trace of `phase`.
    pub fn phase_trace(&self, phase: Phase) -> Option<EnergyTrace> {
        self.phase_window(phase).map(|w| self.trace.window(w))
    }
}

/// Failures while running a compiled cipher program (DES or XTEA).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The simulated CPU faulted.
    Cpu(CpuError),
    /// The simulated ciphertext disagreed with the golden model — a
    /// simulator or compiler bug, never silently ignored.
    Mismatch {
        /// What the simulation produced.
        simulated: u64,
        /// What the golden model says.
        expected: u64,
    },
    /// An output word was not a bit (0/1) — the bit-per-word contract was
    /// violated, e.g. by an injected fault.
    GarbledOutput {
        /// Index of the offending output word.
        word: usize,
        /// Its value.
        value: u32,
    },
    /// A data symbol the harness relies on (DES: `key`, `data`, `marker`,
    /// `output`; XTEA: `key`, `vin`, `vout`) is absent from the compiled
    /// program — a malformed or hand-edited image, surfaced as an error
    /// instead of a panic.
    MissingSymbol {
        /// The absent symbol.
        name: String,
    },
    /// Poking an input array or reading the output array hit a memory
    /// fault — the image layout disagrees with the data-memory size.
    ImageAccess {
        /// The symbol whose array was being accessed.
        name: String,
        /// Word index within the array.
        index: usize,
        /// The underlying access fault.
        source: AccessError,
    },
    /// Recovery exhausted its rollback budget on a persistent fault: the
    /// key material (the key array and the register file) was destroyed
    /// and the run aborted. The smart-card response to an attack in
    /// progress — key destruction beats key disclosure.
    Zeroized {
        /// Rollbacks spent before giving up.
        rollbacks: u32,
        /// The detection that exhausted the budget.
        last: CpuError,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Cpu(e) => write!(f, "cpu fault: {e}"),
            RunError::Mismatch { simulated, expected } => write!(
                f,
                "ciphertext mismatch: simulated {simulated:016X}, golden model {expected:016X}"
            ),
            RunError::GarbledOutput { word, value } => {
                write!(f, "output word {word} is not a bit: {value}")
            }
            RunError::MissingSymbol { name } => {
                write!(f, "program has no data symbol `{name}`")
            }
            RunError::ImageAccess { name, index, source } => {
                write!(f, "accessing `{name}[{index}]`: {source}")
            }
            RunError::Zeroized { rollbacks, last } => {
                write!(f, "key zeroized after {rollbacks} rollbacks; last detection: {last}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<CpuError> for RunError {
    fn from(e: CpuError) -> Self {
        RunError::Cpu(e)
    }
}

/// A compiled, reusable masked-DES instance: one program, one policy.
///
/// Compilation happens once; every [`MaskedDes::encrypt`] call loads a
/// fresh simulated machine, pokes the key and plaintext bits into data
/// memory, runs to `halt`, and returns the validated [`EncryptionRun`].
/// Because the program has no data-dependent control flow, every run takes
/// the same number of cycles and traces are perfectly aligned — the
/// best case for the attacker, as the paper intends.
#[derive(Debug, Clone)]
pub struct MaskedDes {
    program: Program,
    report: SliceReport,
    spec: DesProgramSpec,
    params: EnergyParams,
    decryptor: bool,
    cycle_limit: u64,
}

impl MaskedDes {
    /// Compiles full 16-round DES under `policy` with calibrated energy
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the generated program fails to compile —
    /// which would be a bug in `emask-cc`, surfaced loudly.
    pub fn compile(policy: MaskPolicy) -> Result<Self, CompileError> {
        Self::compile_spec(policy, &DesProgramSpec::default())
    }

    /// Compiles a reduced-round variant (the digest lock and CI smokes use
    /// 1–2 rounds to keep whole-run experiments short).
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::compile`].
    pub fn compile_spec(policy: MaskPolicy, spec: &DesProgramSpec) -> Result<Self, CompileError> {
        Self::compile_with(policy, spec, false)
    }

    /// Compiles the full 16-round DES **decryptor** under `policy` — the
    /// same Figure 2 structure with the reverse (right-rotating) key
    /// schedule. Use [`MaskedDes::decrypt`] on the result.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::compile`].
    pub fn compile_decryptor(policy: MaskPolicy) -> Result<Self, CompileError> {
        Self::compile_with(policy, &DesProgramSpec::default(), true)
    }

    fn compile_with(
        policy: MaskPolicy,
        spec: &DesProgramSpec,
        decrypt: bool,
    ) -> Result<Self, CompileError> {
        let src = des_source_with(spec, decrypt);
        let out = compile(&src, CompileOptions::paper_style(policy))?;
        Ok(Self {
            program: out.program,
            report: out.report,
            spec: *spec,
            params: EnergyParams::calibrated(),
            decryptor: decrypt,
            cycle_limit: 50_000_000,
        })
    }

    /// Replaces the per-run cycle budget (default 50 M). Fault-injection
    /// harnesses lower it so a fault that produces an endless loop is
    /// detected quickly as [`emask_cpu::CpuErrorKind::CycleLimit`].
    pub fn with_cycle_limit(mut self, cycle_limit: u64) -> Self {
        self.cycle_limit = cycle_limit;
        self
    }

    /// Replaces the energy parameters (ablation studies).
    pub fn with_params(mut self, params: EnergyParams) -> Self {
        self.params = params;
        self
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable access to the compiled program — for **fault-injection
    /// experiments** (flip table bits, skip instructions) in the spirit of
    /// the fault-generation attacks the paper's related work surveys.
    /// Every run still validates against the golden model, so injected
    /// faults surface as [`RunError::Mismatch`] rather than wrong results.
    pub fn program_mut(&mut self) -> &mut Program {
        &mut self.program
    }

    /// The forward-slice report.
    pub fn report(&self) -> &SliceReport {
        &self.report
    }

    /// Number of rounds in this instance.
    pub fn rounds(&self) -> usize {
        self.spec.rounds
    }

    /// Encrypts one block, returning the full measured run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Cpu`] on a simulation fault and
    /// [`RunError::Mismatch`] if the ciphertext disagrees with the golden
    /// model.
    pub fn encrypt(&self, plaintext: u64, key: u64) -> Result<EncryptionRun, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        self.run_block_full_on::<Cpu>(plaintext, key, |_, _, _| {})
    }

    /// [`MaskedDes::encrypt`] with a per-cycle observer: `observe` gets
    /// every cycle's activity and energy, and `Some(phase)` on the cycle
    /// of the marker store that starts `phase`. That cycle belongs to the
    /// new phase, so an observer that switches buckets on `Some` uses the
    /// same start-inclusive windows as [`EncryptionRun::phase_window`].
    /// The pipeline statistics come back in the run's `stats`.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt`].
    pub fn encrypt_observed(
        &self,
        plaintext: u64,
        key: u64,
        observe: impl FnMut(&CycleActivity, &CycleEnergy, Option<Phase>),
    ) -> Result<EncryptionRun, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        self.run_block_full_on::<Cpu>(plaintext, key, observe)
    }

    /// Encrypts one block with a [`PipelineHook`] installed on the
    /// simulated core — the entry point for **fault-injection campaigns**:
    /// pass a `(FaultInjector, DualRailChecker)` tuple from `emask-fault`
    /// and every planned fault strikes the live pipeline while the checker
    /// audits each cycle's dual-rail samples. A violation the checker
    /// raises surfaces as [`RunError::Cpu`] with
    /// [`emask_cpu::CpuErrorKind::DualRailViolation`]; silent corruption
    /// is still caught downstream by the golden-model validation.
    ///
    /// The run is architectural: a fault trial is judged by its result
    /// alone, so no energy is modelled and only the pipeline statistics
    /// come back — the ciphertext has already been checked against the
    /// golden model.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt`], plus whatever fault the hook raises.
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor.
    pub fn encrypt_hooked<H: PipelineHook>(
        &self,
        plaintext: u64,
        key: u64,
        hook: &mut H,
    ) -> Result<RunResult, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        let (mut cpu, _) = self.load_block::<Cpu>(plaintext, key)?;
        let stats = cpu.run_with(self.cycle_limit, hook, |_| ControlFlow::Continue(()))?;
        self.read_validated_output(&cpu, plaintext, key)?;
        Ok(stats)
    }

    /// Decrypts one block on a decryptor instance (see
    /// [`MaskedDes::compile_decryptor`]), with the same measurement and
    /// golden-model validation as [`MaskedDes::encrypt`].
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt`].
    ///
    /// # Panics
    ///
    /// Panics if this instance is an encryptor.
    pub fn decrypt(&self, ciphertext: u64, key: u64) -> Result<EncryptionRun, RunError> {
        assert!(self.decryptor, "this instance was compiled as an encryptor; use encrypt()");
        self.run_block_full_on::<Cpu>(ciphertext, key, |_, _, _| {})
    }

    /// Encrypts one block and returns only the energy samples of the cycle
    /// `window` — bit-identical to `encrypt(..).trace.window(window)` —
    /// without simulating past the window's end.
    ///
    /// Every cycle from reset still passes through the energy model (its
    /// charges depend on transitions), but the run stops at the first
    /// phase-marker store at or past `window.end`. There the Figure 4
    /// `l[32]`/`r[32]` arrays are checked against the golden model
    /// advanced by the rounds that marker says are done, so a corrupted
    /// round is still caught. A window that reaches past the last marker
    /// runs to `halt` and gets the full ciphertext check of
    /// [`MaskedDes::encrypt`].
    ///
    /// # Errors
    ///
    /// [`RunError::Cpu`] on a simulation fault (including the cycle
    /// limit), [`RunError::Mismatch`] if the round state (packed
    /// `(l << 32) | r`) or the ciphertext disagrees with the golden model,
    /// and [`RunError::GarbledOutput`] if one of the checked words is not
    /// a bit.
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor, or if the program halts
    /// before `window` is filled.
    pub fn encrypt_window(
        &self,
        plaintext: u64,
        key: u64,
        window: Range<usize>,
    ) -> Result<Vec<f64>, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        let (mut cpu, marker_addr) = self.load_block::<Cpu>(plaintext, key)?;
        let mut model = EnergyModel::with_params(self.params);
        let mut samples = Vec::with_capacity(window.len());
        let mut stop = None;
        cpu.run_with(self.cycle_limit, &mut NullHook, |act| {
            let energy = model.observe(act);
            let cycle = act.cycle as usize;
            if cycle >= window.end {
                if let Some(mem) = act.mem.filter(|m| m.is_store && m.addr == marker_addr) {
                    stop = phase_of_marker(mem.data).and_then(|p| self.rounds_done(p));
                    if stop.is_some() {
                        return ControlFlow::Break(());
                    }
                }
            } else if cycle >= window.start {
                samples.push(energy.total_pj());
            }
            ControlFlow::Continue(())
        })?;
        if let Some(done) = stop {
            self.check_round_state(&cpu, plaintext, key, done)?;
            return Ok(samples);
        }
        self.read_validated_output(&cpu, plaintext, key)?;
        assert_eq!(
            samples.len(),
            window.len(),
            "window {window:?} reaches past the end of the {}-cycle run",
            cpu.cycles()
        );
        Ok(samples)
    }

    /// A shareable trace oracle for the attack suite: maps a plaintext to
    /// [`MaskedDes::encrypt_window`]'s samples of `window` under the fixed
    /// `key`. The closure borrows `self` immutably — and `MaskedDes` is
    /// `Sync` (all-owned compiled state, no interior mutability) — so the
    /// same instance drives the `_par` attack entry points from every
    /// worker thread without cloning the compiled program.
    ///
    /// # Panics
    ///
    /// The returned closure panics if an encryption fails — a simulator
    /// bug, not a data condition, and attack campaigns have no way to
    /// use a partial trace set.
    pub fn trace_oracle(
        &self,
        key: u64,
        window: Range<usize>,
    ) -> impl Fn(u64) -> Vec<f64> + Sync + '_ {
        move |plaintext| self.encrypt_window(plaintext, key, window.clone()).expect("oracle run")
    }

    /// The byte address of a required data symbol, as a typed error when
    /// absent (a malformed image must not panic a CLI run).
    fn data_sym(&self, name: &str) -> Result<u32, RunError> {
        self.program
            .try_data_addr(name)
            .ok_or_else(|| RunError::MissingSymbol { name: name.to_string() })
    }

    /// Pokes a 64-bit value into a bit-per-word data array, MSB first
    /// (paper Figure 4 layout), on any backend.
    fn poke_bits<B: CpuBackend>(
        cpu: &mut B,
        name: &str,
        base: u32,
        value: u64,
    ) -> Result<(), RunError> {
        for (i, b) in to_bit_vec(value).iter().enumerate() {
            cpu.memory_mut().store(base + 4 * i as u32, u32::from(*b)).map_err(|source| {
                RunError::ImageAccess { name: name.to_string(), index: i, source }
            })?;
        }
        Ok(())
    }

    /// A fresh `B` with the program loaded and `key` and `input` poked into
    /// their bit-per-word arrays, plus the phase-marker address.
    fn load_block<B: CpuBackend>(&self, input: u64, key: u64) -> Result<(B, u32), RunError> {
        let mut cpu = B::load(&self.program);
        let key_addr = self.data_sym("key")?;
        let data_addr = self.data_sym("data")?;
        Self::poke_bits(&mut cpu, "key", key_addr, key)?;
        Self::poke_bits(&mut cpu, "data", data_addr, input)?;
        Ok((cpu, self.data_sym("marker")?))
    }

    fn run_block_full_on<B: CpuBackend>(
        &self,
        input: u64,
        key: u64,
        mut observe: impl FnMut(&CycleActivity, &CycleEnergy, Option<Phase>),
    ) -> Result<EncryptionRun, RunError> {
        let (mut cpu, marker_addr) = self.load_block::<B>(input, key)?;
        let mut model = EnergyModel::with_params(self.params);
        let mut trace = EnergyTrace::new();
        let mut markers = Vec::new();
        let stats = cpu.run_with(self.cycle_limit, &mut NullHook, |act| {
            let energy = model.observe(act);
            // The marker cycle belongs to the *new* phase (start-inclusive
            // windows).
            let phase = act
                .mem
                .filter(|m| m.is_store && m.addr == marker_addr)
                .and_then(|m| phase_of_marker(m.data));
            if let Some(phase) = phase {
                markers.push(PhaseMarker { phase, cycle: act.cycle });
            }
            observe(act, &energy, phase);
            trace.push(energy);
            ControlFlow::Continue(())
        })?;
        let ciphertext = self.read_validated_output(&cpu, input, key)?;
        Ok(EncryptionRun { ciphertext, trace, stats, markers })
    }

    /// Reads the 64-word ciphertext array back from a halted machine and
    /// validates it against the golden model.
    fn read_validated_output<B: CpuBackend>(
        &self,
        cpu: &B,
        input: u64,
        key: u64,
    ) -> Result<u64, RunError> {
        let out_addr = self.data_sym("output")?;
        let mut bits = [0u8; 64];
        for (i, bit) in bits.iter_mut().enumerate() {
            let w = cpu.memory().load(out_addr + 4 * i as u32).map_err(|source| {
                RunError::ImageAccess { name: "output".to_string(), index: i, source }
            })?;
            if w > 1 {
                // A fault (injected or otherwise) broke the bit-per-word
                // contract: surface it cleanly rather than panicking.
                return Err(RunError::GarbledOutput { word: i, value: w });
            }
            *bit = w as u8;
        }
        let ciphertext = from_bit_vec(&bits);
        let expected = if self.decryptor {
            emask_des::Des::new(key).decrypt_block(input)
        } else {
            golden(input, key, self.spec.rounds)
        };
        if ciphertext != expected {
            return Err(RunError::Mismatch { simulated: ciphertext, expected });
        }
        Ok(ciphertext)
    }

    /// How many rounds are complete when the marker of `phase` is stored,
    /// or `None` before the round state exists (the initial permutation
    /// has not written `l`/`r` yet).
    fn rounds_done(&self, phase: Phase) -> Option<usize> {
        match phase {
            Phase::InitialPermutation => None,
            Phase::KeyPermutation => Some(0),
            Phase::Round(k) => Some(usize::from(k) - 1),
            Phase::OutputPermutation => Some(self.spec.rounds),
        }
    }

    /// Checks the Figure 4 round state `l[32]`/`r[32]` of a machine
    /// stopped after `rounds` rounds against the golden model.
    fn check_round_state(
        &self,
        cpu: &Cpu,
        plaintext: u64,
        key: u64,
        rounds: usize,
    ) -> Result<(), RunError> {
        let mut bits = [0u8; 64];
        for (half, name) in ["l", "r"].into_iter().enumerate() {
            let base = self.data_sym(name)?;
            for i in 0..32 {
                let w = cpu.memory().load(base + 4 * i as u32).map_err(|source| {
                    RunError::ImageAccess { name: name.to_string(), index: i, source }
                })?;
                let word = 32 * half + i;
                if w > 1 {
                    return Err(RunError::GarbledOutput { word, value: w });
                }
                bits[word] = w as u8;
            }
        }
        let st = golden_state(plaintext, key, rounds);
        let mut golden = [0u8; 64];
        for (g, &w) in golden.iter_mut().zip(st.l.iter().chain(&st.r)) {
            *g = w as u8;
        }
        let (simulated, expected) = (from_bit_vec(&bits), from_bit_vec(&golden));
        if simulated != expected {
            return Err(RunError::Mismatch { simulated, expected });
        }
        Ok(())
    }

    /// [`MaskedDes::encrypt_hooked`] with checkpoint/rollback **recovery**
    /// under the fixed [`RecoveryPolicy`]: the run takes an architectural
    /// checkpoint at every phase marker, and a fault the core *detects*
    /// (dual-rail violation, memory fault, divide-by-zero, runaway PC)
    /// rolls the machine back to the last checkpoint and re-executes
    /// instead of aborting.
    ///
    /// A transient fault (the usual glitch model) has already fired when
    /// the replay starts, so the replay is clean: the run completes with a
    /// golden-checked ciphertext and the retired-instruction statistics of
    /// a fault-free run. Like [`MaskedDes::encrypt_hooked`], the run models
    /// no energy. A persistent fault re-fires on every replay; after
    /// [`RecoveryPolicy::MAX_RETRIES`] rollbacks the key material is
    /// zeroized and the run aborts with [`RunError::Zeroized`].
    ///
    /// This is the one recovering step loop, run from reset with no clean
    /// run to rejoin; [`MaskedDes::encrypt_forked`] runs the same loop
    /// from a rung of a [`CleanLadder`] and stops where the run rejoins
    /// it.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt_hooked`], plus [`RunError::Zeroized`]
    /// on budget exhaustion. [`emask_cpu::CpuErrorKind::CycleLimit`] is
    /// never retried: the cycle budget bounds *total* work including
    /// re-execution.
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor.
    pub fn encrypt_recovered<H: PipelineHook>(
        &self,
        plaintext: u64,
        key: u64,
        hook: &mut H,
        _policy: &RecoveryPolicy,
    ) -> Result<RecoveredRun, RunError> {
        self.encrypt_recovered_on::<Cpu, H>(plaintext, key, hook)
    }

    /// [`MaskedDes::encrypt_recovered`] on an explicit [`CpuBackend`].
    /// Rollback cost is microarchitectural — the interpreter counts
    /// instructions where the pipeline counts cycles — but the recovered
    /// ciphertext and retired-instruction stream are architectural and
    /// identical across backends.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt_recovered`].
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor.
    fn encrypt_recovered_on<B: CpuBackend, H: PipelineHook>(
        &self,
        plaintext: u64,
        key: u64,
        hook: &mut H,
    ) -> Result<RecoveredRun, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        let (machine, _) = self.load_block::<B>(plaintext, key)?;
        let start = Rung { machine, recovery: RecoveryStats::default() };
        self.step_loop((plaintext, key), start, hook, true, |_, _, _| ControlFlow::Continue(()))
    }

    /// Records the clean run of one block as a [`CleanLadder`]: the
    /// recovering step loop with no hook, keeping the machine at every
    /// checkpoint boundary. Fault campaigns record it once and fork every
    /// trial from it with [`MaskedDes::encrypt_forked`].
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt_hooked`]: the clean run must complete
    /// within the cycle budget and match the golden model.
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor.
    pub fn clean_ladder(&self, plaintext: u64, key: u64) -> Result<CleanLadder, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        let (machine, _) = self.load_block::<Cpu>(plaintext, key)?;
        let start = Rung { machine, recovery: RecoveryStats::default() };
        let mut rungs = vec![start.clone()];
        let mut reads = LastReads::default();
        let run =
            self.step_loop((plaintext, key), start, &mut reads, false, |cpu, recovery, _| {
                rungs.push(Rung { machine: cpu.clone(), recovery: *recovery });
                ControlFlow::Continue(())
            })?;
        // `read_validated_output` reads the 64 output words after halt.
        let out_addr = self.data_sym("output")?;
        for i in 0..64 {
            reads.read_after_run(out_addr + 4 * i);
        }
        let live = rungs.iter().map(|r| reads.live_from(r.machine.cycles())).collect();
        Ok(CleanLadder { plaintext, key, rungs, live, run })
    }

    /// Runs the block of `ladder` with `hook` installed, **forked** from
    /// the clean run: the run starts from the last rung at or below
    /// `fork_at`, and stops as soon as it rejoins the clean run. Its
    /// result equals that of running the same hook from reset —
    /// [`MaskedDes::encrypt_recovered`] under `Some(policy)`, or a
    /// fail-stop [`MaskedDes::encrypt_hooked`] under `None` — when the
    /// hook leaves the machine alone before cycle `fork_at`.
    ///
    /// The run starts with the rung's cycle as its executed-steps count
    /// and the rung's [`RecoveryStats`]. After each checkpoint refresh it
    /// stops when three things hold:
    ///
    /// 1. the hook [is inert](PipelineHook::is_inert) from there on;
    /// 2. the machine agrees with the ladder's rung at the same cycle on
    ///    the state the clean run reads from there on
    ///    ([`Cpu::eq_on`](emask_cpu::Cpu::eq_on)): the control state in
    ///    full, and only the registers and data words the clean remainder
    ///    reads, its final read of the output included — so a flipped key
    ///    word or register that is never read again does not keep the
    ///    trial running;
    /// 3. the clean run's remaining cycles still fit the cycle budget.
    ///
    /// It then returns its own pipeline statistics and checkpoint and
    /// page counters with the clean remainder's added: each counter's
    /// clean total minus its value at the rung. The comparison leaves the
    /// statistics out, so a trial that skipped or squashed an instruction
    /// on the way rejoins too. The hook's own state (counters, event
    /// logs) stops where the run does.
    ///
    /// Under `None` a detected fault ends the run as in
    /// [`MaskedDes::encrypt_hooked`]; the checkpoints only serve to meet
    /// the ladder, and the counters count them.
    ///
    /// # Errors
    ///
    /// As for [`MaskedDes::encrypt_recovered`] under `Some`, and as for
    /// [`MaskedDes::encrypt_hooked`] under `None`.
    ///
    /// # Panics
    ///
    /// Panics if this instance is a decryptor.
    pub fn encrypt_forked<H: PipelineHook>(
        &self,
        ladder: &CleanLadder,
        fork_at: u64,
        hook: &mut H,
        recovery: Option<&RecoveryPolicy>,
    ) -> Result<RecoveredRun, RunError> {
        assert!(!self.decryptor, "this instance was compiled as a decryptor; use decrypt()");
        // A rung past the budget would skip the cycle-limit error a run
        // from reset meets on the way there.
        let from = fork_at.min(self.cycle_limit);
        let start = ladder
            .rungs
            .iter()
            .rev()
            .find(|r| r.machine.cycles() <= from)
            .expect("rung 0 sits at cycle 0");
        let clean = &ladder.run;
        let block = (ladder.plaintext, ladder.key);
        self.step_loop(block, start.clone(), hook, recovery.is_some(), |cpu, own, executed| {
            let cycle = cpu.cycles();
            let Ok(i) = ladder.rungs.binary_search_by_key(&cycle, |r| r.machine.cycles()) else {
                return ControlFlow::Continue(());
            };
            let rung = &ladder.rungs[i];
            let fits = executed + (clean.stats.cycles - cycle) <= self.cycle_limit;
            if !fits || !rung.machine.eq_on(cpu, &ladder.live[i]) {
                return ControlFlow::Continue(());
            }
            // Each counter: this run's count plus the clean run's past the
            // rung.
            let (o, c, r) = (cpu.stats(), clean.stats, rung.machine.stats());
            ControlFlow::Break(RecoveredRun {
                stats: RunResult {
                    cycles: o.cycles + c.cycles - r.cycles,
                    retired: o.retired + c.retired - r.retired,
                    retired_secure: o.retired_secure + c.retired_secure - r.retired_secure,
                    stalls: o.stalls + c.stalls - r.stalls,
                    flushed: o.flushed + c.flushed - r.flushed,
                    loads: o.loads + c.loads - r.loads,
                    stores: o.stores + c.stores - r.stores,
                },
                recovery: RecoveryStats {
                    checkpoints: own.checkpoints + clean.recovery.checkpoints
                        - rung.recovery.checkpoints,
                    rollbacks: own.rollbacks,
                    pages_moved: own.pages_moved + clean.recovery.pages_moved
                        - rung.recovery.pages_moved,
                },
            })
        })
    }

    /// The recovering step loop, from `start` until `halt` or until
    /// `at_rest` breaks. It takes a checkpoint at every phase-marker
    /// store. With `recover`, a step error the core detects rolls back to
    /// the last one, up to [`RecoveryPolicy::MAX_RETRIES`] times, and
    /// zeroizes the key when the budget runs out; without it, the error
    /// ends the run (fail-stop). After each checkpoint refresh at which
    /// the hook is inert, `at_rest(machine, counters, executed)` may end
    /// the run with a result of its own.
    fn step_loop<B: CpuBackend, H: PipelineHook>(
        &self,
        (plaintext, key): (u64, u64),
        start: Rung<B>,
        hook: &mut H,
        recover: bool,
        mut at_rest: impl FnMut(&B, &RecoveryStats, u64) -> ControlFlow<RecoveredRun>,
    ) -> Result<RecoveredRun, RunError> {
        let marker_addr = self.data_sym("marker")?;
        let Rung { machine: mut cpu, mut recovery } = start;
        // The checkpoint at the start: cycle 0, or the rung forked from.
        let mut cp = cpu.checkpoint();
        // Steps actually executed, *including* re-executed windows. The
        // architectural cycle counter rolls back with the checkpoint, so
        // the budget is enforced on this monotone counter instead. That,
        // and catching each step's error to roll back, is why this loop
        // drives `step` itself rather than `run_with`, whose budget is the
        // backend clock and which ends the run on the first error.
        let mut executed: u64 = cpu.cycles();

        while !cpu.is_halted() {
            if executed >= self.cycle_limit {
                return Err(RunError::Cpu(CpuError {
                    cycle: cpu.cycles(),
                    kind: CpuErrorKind::CycleLimit { limit: self.cycle_limit },
                }));
            }
            executed += 1;
            match cpu.step(hook) {
                Ok(act) => {
                    let boundary = act.mem.is_some_and(|m| {
                        m.is_store && m.addr == marker_addr && phase_of_marker(m.data).is_some()
                    });
                    if boundary {
                        cpu.checkpoint_refresh(&mut cp);
                        recovery.checkpoints += 1;
                        recovery.pages_moved += cp.pages_moved() as u64;
                        // Decided only here: no later rollback goes below
                        // this refresh, so an inert hook stays inert.
                        if hook.is_inert(cpu.cycles()) {
                            if let ControlFlow::Break(run) = at_rest(&cpu, &recovery, executed) {
                                return Ok(run);
                            }
                        }
                    }
                }
                Err(e) if recover && recoverable(e.kind) => {
                    if recovery.rollbacks >= RecoveryPolicy::MAX_RETRIES {
                        zeroize_secrets(&mut cpu, self.data_sym("key")?);
                        return Err(RunError::Zeroized { rollbacks: recovery.rollbacks, last: e });
                    }
                    recovery.rollbacks += 1;
                    cpu.checkpoint_restore(&mut cp);
                    recovery.pages_moved += cp.pages_moved() as u64;
                }
                Err(e) => return Err(RunError::Cpu(e)),
            }
        }
        self.read_validated_output(&cpu, plaintext, key)?;
        Ok(RecoveredRun { stats: cpu.stats(), recovery })
    }
}

/// The result of a run under a [`RecoveryPolicy`]: the pipeline
/// statistics of the completed run, with the recovery bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredRun {
    /// Pipeline statistics — those of a fault-free run when every fault
    /// was recovered.
    pub stats: RunResult,
    /// Checkpoints taken, rollbacks spent, pages moved.
    pub recovery: RecoveryStats,
}

/// The golden-model reference for `rounds`-round DES.
fn golden(plaintext: u64, key: u64, rounds: usize) -> u64 {
    golden_state(plaintext, key, rounds).output()
}

/// The golden-model bit-array state after `rounds` rounds.
fn golden_state(plaintext: u64, key: u64, rounds: usize) -> BitArrayState {
    let mut st = BitArrayState::new(plaintext, key);
    for m in 1..=rounds {
        st.round(m);
    }
    st
}

fn phase_of_marker(value: u32) -> Option<Phase> {
    match value {
        MARKER_INITIAL_PERM => Some(Phase::InitialPermutation),
        MARKER_KEY_PERM => Some(Phase::KeyPermutation),
        MARKER_OUTPUT_PERM => Some(Phase::OutputPermutation),
        v if v > MARKER_ROUND && v <= MARKER_ROUND + 16 => {
            Some(Phase::Round((v - MARKER_ROUND) as u8))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emask_des::Des;

    const KEY: u64 = 0x1334_5779_9BBC_DFF1;
    const PLAIN: u64 = 0x0123_4567_89AB_CDEF;

    fn two_rounds(policy: MaskPolicy) -> MaskedDes {
        MaskedDes::compile_spec(policy, &DesProgramSpec { rounds: 2 }).expect("compile")
    }

    #[test]
    fn full_des_matches_fips_walkthrough() {
        let des = MaskedDes::compile(MaskPolicy::None).expect("compile");
        let run = des.encrypt(PLAIN, KEY).expect("run");
        assert_eq!(run.ciphertext, 0x85E8_1354_0F0A_B405);
        assert_eq!(run.ciphertext, Des::new(KEY).encrypt_block(PLAIN));
    }

    #[test]
    fn encrypt_on_backends_agree_architecturally() {
        // The same compiled program on the reference interpreter produces
        // the same ciphertext, retirement/memory-traffic counts and phase
        // sequence as the pipeline — only microarchitectural figures
        // (cycles, stalls, per-cycle energy) may differ.
        let des = two_rounds(MaskPolicy::Selective);
        let pipe = des.encrypt(PLAIN, KEY).expect("pipeline run");
        let interp = des
            .run_block_full_on::<emask_cpu::Interpreter>(PLAIN, KEY, |_, _, _| {})
            .expect("interp run");
        assert_eq!(interp.ciphertext, pipe.ciphertext);
        assert_eq!(interp.stats.retired, pipe.stats.retired);
        assert_eq!(interp.stats.loads, pipe.stats.loads);
        assert_eq!(interp.stats.stores, pipe.stats.stores);
        let phases = |run: &EncryptionRun| run.markers.iter().map(|m| m.phase).collect::<Vec<_>>();
        assert_eq!(phases(&interp), phases(&pipe));
        assert!(!interp.trace.is_empty());
    }

    #[test]
    fn recovery_on_interpreter_recovers_a_transient_fault() {
        // The recovery loop is generic: the interpreter's checkpoint
        // rewinds instructions instead of pipeline cycles, but the
        // recovered run still retires exactly what a clean one does.
        let des = two_rounds(MaskPolicy::Selective);
        let clean = des
            .run_block_full_on::<emask_cpu::Interpreter>(PLAIN, KEY, |_, _, _| {})
            .expect("clean run");
        let mut hook = TransientFault { at_cycle: clean.stats.cycles / 2, fired: false };
        let rec = des
            .encrypt_recovered_on::<emask_cpu::Interpreter, _>(PLAIN, KEY, &mut hook)
            .expect("recovered run");
        assert_eq!(rec.recovery.rollbacks, 1);
        assert_eq!(rec.stats, clean.stats);
    }

    #[test]
    fn full_des_matches_under_selective_masking() {
        let des = MaskedDes::compile(MaskPolicy::Selective).expect("compile");
        let run = des.encrypt(PLAIN, KEY).expect("run");
        assert_eq!(run.ciphertext, 0x85E8_1354_0F0A_B405);
        assert!(des.program().secure_instruction_count() > 0);
    }

    #[test]
    fn reduced_round_variants_match_golden_model() {
        for rounds in [1usize, 2, 4] {
            let des = MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds })
                .expect("compile");
            let run = des.encrypt(PLAIN, KEY).expect("run");
            assert_eq!(run.ciphertext, golden(PLAIN, KEY, rounds), "{rounds} rounds");
        }
    }

    #[test]
    fn traces_are_aligned_across_inputs() {
        // No data-dependent control flow → identical cycle counts.
        let des = two_rounds(MaskPolicy::None);
        let a = des.encrypt(0, 0).expect("run");
        let b = des.encrypt(u64::MAX, 0xFFFF_FFFF_0000_0000).expect("run");
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.stats.cycles, b.stats.cycles);
    }

    #[test]
    fn masked_des_is_shareable_across_threads() {
        // The parallel attack layer hands one `&MaskedDes` to every
        // worker; this pins the auto-traits that makes that legal.
        fn assert_sync_send_clone<T: Sync + Send + Clone>() {}
        assert_sync_send_clone::<MaskedDes>();
    }

    #[test]
    fn trace_oracle_reproduces_encrypt_windows() {
        let des = two_rounds(MaskPolicy::None);
        let run = des.encrypt(PLAIN, KEY).expect("run");
        let window = run.phase_window(Phase::Round(1)).expect("round 1 window");
        let oracle = des.trace_oracle(KEY, window.clone());
        let direct = run.trace.window(window).samples().to_vec();
        assert_eq!(oracle(PLAIN), direct);
        assert!(!oracle(PLAIN).is_empty());
        // And it is genuinely usable from multiple threads at once.
        std::thread::scope(|s| {
            let a = s.spawn(|| oracle(0));
            let b = s.spawn(|| oracle(0));
            assert_eq!(a.join().expect("thread a"), b.join().expect("thread b"));
        });
    }

    /// The plaintext/key pairs the windowed-acquisition tests sweep.
    const WINDOW_PAIRS: [(u64, u64); 4] = [
        (PLAIN, KEY),
        (0, 0),
        (u64::MAX, 0x0E32_9232_EA6D_0D73),
        (0x5A5A_A5A5_3C3C_C3C3, 0xFFFF_FFFF_0000_0000),
    ];

    /// The phases whose windows the bit-identity test covers: both
    /// permutations, the first two rounds, the last round and the output.
    fn window_phases(rounds: usize) -> Vec<Phase> {
        let mut phases = vec![Phase::InitialPermutation, Phase::KeyPermutation, Phase::Round(1)];
        if rounds >= 2 {
            phases.push(Phase::Round(2));
        }
        if rounds > 2 {
            phases.push(Phase::Round(rounds as u8));
        }
        phases.push(Phase::OutputPermutation);
        phases
    }

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn encrypt_window_is_bit_identical_to_encrypt_windows() {
        for rounds in [1usize, 16] {
            for policy in [MaskPolicy::None, MaskPolicy::Selective] {
                let des =
                    MaskedDes::compile_spec(policy, &DesProgramSpec { rounds }).expect("compile");
                for (plain, key) in WINDOW_PAIRS {
                    let run = des.encrypt(plain, key).expect("run");
                    for phase in window_phases(rounds) {
                        let w = run.phase_window(phase).expect("phase window");
                        let got = des.encrypt_window(plain, key, w.clone()).expect("window run");
                        assert_eq!(
                            bits(&got),
                            bits(run.trace.window(w).samples()),
                            "{rounds} rounds, {policy}, {phase}, {plain:016X}/{key:016X}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupted_sbox_fails_the_round_one_window() {
        // Flip bit 0 of every S-box 1 entry: round 1's f output changes,
        // so the round state at the Round(2) marker must disagree with
        // the golden model even though the run never reaches `halt`.
        let mut des = two_rounds(MaskPolicy::Selective);
        let w = des.encrypt(PLAIN, KEY).expect("run").phase_window(Phase::Round(1)).expect("r1");
        let base = ((des.program.data_addr("sbox") - emask_isa::DATA_BASE) / 4) as usize;
        for entry in &mut des.program_mut().data[base..base + 64] {
            *entry ^= 1;
        }
        let err = des.encrypt_window(PLAIN, KEY, w).expect_err("corrupted S-box");
        assert!(matches!(err, RunError::Mismatch { .. }), "{err:?}");
    }

    #[test]
    fn table_corruption_past_the_last_marker_fails_the_ciphertext_check() {
        // `ipinv` is read only after the OutputPermutation marker, so no
        // round-state check can see it: the output window runs to `halt`
        // and the full ciphertext check must catch it.
        let mut des = two_rounds(MaskPolicy::None);
        let w = des
            .encrypt(PLAIN, KEY)
            .expect("run")
            .phase_window(Phase::OutputPermutation)
            .expect("output window");
        let base = ((des.program.data_addr("ipinv") - emask_isa::DATA_BASE) / 4) as usize;
        des.program_mut().data.swap(base, base + 1);
        let err = des.encrypt_window(PLAIN, KEY, w).expect_err("corrupted ipinv");
        assert!(matches!(err, RunError::Mismatch { .. }), "{err:?}");
    }

    #[test]
    fn encrypt_window_stops_at_the_window_end_marker() {
        // A cycle budget just past the round-1 window: the windowed run
        // fits, the full run to `halt` does not.
        let des = MaskedDes::compile(MaskPolicy::None).expect("compile");
        let w = des.encrypt(PLAIN, KEY).expect("run").phase_window(Phase::Round(1)).expect("r1");
        let limit = w.end as u64 + 64;
        let des = des.with_cycle_limit(limit);
        assert_eq!(des.encrypt_window(PLAIN, KEY, w.clone()).expect("windowed run").len(), w.len());
        let err = des.encrypt(PLAIN, KEY).expect_err("full run exceeds the budget");
        assert!(matches!(
            err,
            RunError::Cpu(CpuError { kind: CpuErrorKind::CycleLimit { limit: l }, .. }) if l == limit
        ));
    }

    #[test]
    fn markers_cover_all_phases_in_order() {
        let des = two_rounds(MaskPolicy::None);
        let run = des.encrypt(PLAIN, KEY).expect("run");
        let phases: Vec<Phase> = run.markers.iter().map(|m| m.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::InitialPermutation,
                Phase::KeyPermutation,
                Phase::Round(1),
                Phase::Round(2),
                Phase::OutputPermutation,
            ]
        );
        // Strictly increasing cycles.
        assert!(run.markers.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn phase_windows_partition_the_run() {
        let des = two_rounds(MaskPolicy::None);
        let run = des.encrypt(PLAIN, KEY).expect("run");
        let w1 = run.phase_window(Phase::Round(1)).expect("round 1 window");
        let w2 = run.phase_window(Phase::Round(2)).expect("round 2 window");
        assert_eq!(w1.end, w2.start);
        assert!(run.phase_trace(Phase::Round(1)).expect("round 1 trace").total_pj() > 0.0);
        assert!(run.phase_window(Phase::Round(3)).is_none());
    }

    #[test]
    fn phase_lookup_handles_missing_and_out_of_range_phases() {
        let des = two_rounds(MaskPolicy::None);
        let run = des.encrypt(PLAIN, KEY).expect("run");
        // Rounds the reduced-round program never reaches, plus round
        // numbers no program can emit (markers only encode 1..=16).
        for phase in [Phase::Round(3), Phase::Round(0), Phase::Round(17), Phase::Round(255)] {
            assert_eq!(run.phase_window(phase), None, "{phase:?}");
            assert_eq!(run.phase_trace(phase), None, "{phase:?}");
        }
    }

    #[test]
    fn phase_lookup_on_empty_run_is_none() {
        let run = EncryptionRun {
            ciphertext: 0,
            trace: EnergyTrace::new(),
            stats: Default::default(),
            markers: Vec::new(),
        };
        assert_eq!(run.phase_window(Phase::InitialPermutation), None);
        assert_eq!(run.phase_trace(Phase::Round(1)), None);
    }

    #[test]
    fn last_phase_window_extends_to_trace_end() {
        let des = two_rounds(MaskPolicy::None);
        let run = des.encrypt(PLAIN, KEY).expect("run");
        let w = run.phase_window(Phase::OutputPermutation).expect("output window");
        assert_eq!(w.end, run.trace.len());
        // A marker sitting past the recorded trace must not panic the
        // window slice; exercise via a hand-built run.
        let tiny = EncryptionRun {
            ciphertext: 0,
            trace: EnergyTrace::from_samples(vec![1.0, 2.0]),
            stats: Default::default(),
            markers: vec![PhaseMarker { phase: Phase::Round(1), cycle: 1 }],
        };
        assert_eq!(tiny.phase_trace(Phase::Round(1)).expect("round 1 trace").samples(), &[2.0]);
    }

    #[test]
    fn secure_counts_ordered_across_policies() {
        let none = two_rounds(MaskPolicy::None);
        let sel = two_rounds(MaskPolicy::Selective);
        let ls = two_rounds(MaskPolicy::AllLoadsStores);
        let all = two_rounds(MaskPolicy::AllInstructions);
        let count = |d: &MaskedDes| d.program().secure_instruction_count();
        assert_eq!(count(&none), 0);
        assert!(count(&sel) > 0);
        assert!(count(&sel) < count(&all));
        assert!(count(&ls) < count(&all));
        // Everything except the 2-instruction startup stub (jal main;
        // halt), which is outside the compiled program.
        assert_eq!(count(&all), all.program().text.len() - 2);
    }

    #[test]
    fn energy_ordering_matches_paper_table() {
        // none < selective < all-loads-stores < all-instructions.
        let key = KEY;
        let totals: Vec<f64> = [
            MaskPolicy::None,
            MaskPolicy::Selective,
            MaskPolicy::AllLoadsStores,
            MaskPolicy::AllInstructions,
        ]
        .iter()
        .map(|&p| two_rounds(p).encrypt(PLAIN, key).expect("run").trace.total_pj())
        .collect();
        assert!(totals[0] < totals[1], "selective must cost more than none: {totals:?}");
        assert!(totals[1] < totals[2], "selective must beat all-loads-stores: {totals:?}");
        assert!(totals[2] < totals[3], "all-loads-stores must beat all-secure: {totals:?}");
    }

    #[test]
    fn masked_key_energy_is_key_independent() {
        // The core claim: with selective masking, two different keys give
        // *identical* energy traces for the same plaintext.
        let des = two_rounds(MaskPolicy::Selective);
        let a = des.encrypt(PLAIN, KEY).expect("run");
        let b = des.encrypt(PLAIN, KEY ^ (1 << 62)).expect("run");
        // The output permutation legitimately differs: different keys give
        // different (public) ciphertexts. Everything before it must be
        // bit-for-bit identical in energy.
        let end = a.phase_window(Phase::OutputPermutation).expect("marker").start;
        let diff = a.trace.window(0..end).diff(&b.trace.window(0..end));
        assert!(diff.max_abs() < 1e-9, "masked traces differ by up to {} pJ", diff.max_abs());
    }

    #[test]
    fn unmasked_key_energy_leaks() {
        let des = two_rounds(MaskPolicy::None);
        let a = des.encrypt(PLAIN, KEY).expect("run");
        let b = des.encrypt(PLAIN, KEY ^ (1 << 62)).expect("run");
        let diff = a.trace.diff(&b.trace);
        assert!(diff.max_abs() > 1.0, "unmasked traces must differ: {}", diff.max_abs());
    }

    #[test]
    fn plaintext_differences_survive_masking_only_in_initial_permutation() {
        let des = two_rounds(MaskPolicy::Selective);
        let a = des.encrypt(PLAIN, KEY).expect("run");
        let b = des.encrypt(PLAIN ^ (1 << 40), KEY).expect("run");
        let diff = a.trace.diff(&b.trace);
        // Differences exist (the plaintext is public and unmasked)...
        assert!(diff.max_abs() > 1.0);
        // ...but none in the secure rounds' key-generation region: check
        // the full key permutation window is clean.
        let w = a.phase_window(Phase::KeyPermutation).expect("key perm window");
        let kp = diff.window(w);
        assert!(kp.max_abs() < 1e-9, "key permutation leaked plaintext: {}", kp.max_abs());
    }

    #[test]
    fn decryptor_inverts_the_golden_encryption() {
        let dec = MaskedDes::compile_decryptor(MaskPolicy::None).expect("compile");
        let run = dec.decrypt(0x85E8_1354_0F0A_B405, KEY).expect("run");
        assert_eq!(run.ciphertext, PLAIN);
    }

    #[test]
    fn masked_decryptor_is_key_indistinguishable() {
        let dec = MaskedDes::compile_decryptor(MaskPolicy::Selective).expect("compile");
        let a = dec.decrypt(PLAIN, KEY).expect("run");
        let b = dec.decrypt(PLAIN, KEY ^ (1 << 62)).expect("run");
        let end = a.phase_window(Phase::OutputPermutation).expect("marker").start;
        let diff = a.trace.window(0..end).diff(&b.trace.window(0..end));
        assert!(diff.max_abs() < 1e-9, "masked decryptor leaked {} pJ", diff.max_abs());
    }

    #[test]
    #[should_panic(expected = "compiled as an encryptor")]
    fn decrypt_on_encryptor_panics() {
        let des = two_rounds(MaskPolicy::None);
        let _ = des.decrypt(0, 0);
    }

    /// A one-shot transient: corrupts a register at `at_cycle` and reports
    /// a dual-rail detection the same cycle — the recover-once scenario.
    struct TransientFault {
        at_cycle: u64,
        fired: bool,
    }

    impl PipelineHook for TransientFault {
        fn before_cycle(&mut self, ctx: &mut emask_cpu::HookCtx<'_>) {
            if !self.fired && ctx.cycle() == self.at_cycle {
                ctx.flip_reg(9, 0xFFFF);
            }
        }
        fn after_cycle(&mut self, act: &emask_cpu::CycleActivity) -> Result<(), CpuErrorKind> {
            if !self.fired && act.cycle == self.at_cycle {
                self.fired = true;
                return Err(CpuErrorKind::DualRailViolation {
                    bus: emask_cpu::Bus::OperandA,
                    agreeing: 0xFFFF,
                });
            }
            Ok(())
        }
        fn is_inert(&self, cycle: u64) -> bool {
            self.fired || self.at_cycle < cycle
        }
    }

    /// A persistent (stuck-at) detection: fires at every cycle at or past
    /// `from_cycle`, so every replay detects again.
    struct PersistentFault {
        from_cycle: u64,
    }

    impl PipelineHook for PersistentFault {
        fn after_cycle(&mut self, act: &emask_cpu::CycleActivity) -> Result<(), CpuErrorKind> {
            if act.cycle >= self.from_cycle {
                return Err(CpuErrorKind::DualRailViolation {
                    bus: emask_cpu::Bus::Memory,
                    agreeing: 1,
                });
            }
            Ok(())
        }
    }

    #[test]
    fn clean_run_under_recovery_matches_plain_encrypt() {
        let des = two_rounds(MaskPolicy::Selective);
        let clean = des.encrypt(PLAIN, KEY).expect("clean run");
        let rec = des
            .encrypt_recovered(PLAIN, KEY, &mut NullHook, &RecoveryPolicy::default())
            .expect("recovered run");
        assert_eq!(rec.stats, clean.stats);
        assert_eq!(rec.recovery.rollbacks, 0);
        // One checkpoint per phase marker: two permutations, two rounds,
        // the output permutation.
        assert_eq!(rec.recovery.checkpoints, 5);
    }

    #[test]
    fn transient_fault_is_recovered_transparently() {
        let des = two_rounds(MaskPolicy::Selective);
        let clean = des.encrypt(PLAIN, KEY).expect("clean run");
        let at_cycle = clean.stats.cycles / 2;
        // Without recovery the same hook kills the run.
        let mut hook = TransientFault { at_cycle, fired: false };
        let err = des.encrypt_hooked(PLAIN, KEY, &mut hook).expect_err("detected");
        assert!(matches!(
            err,
            RunError::Cpu(CpuError { kind: CpuErrorKind::DualRailViolation { .. }, .. })
        ));
        // With recovery the run completes like a clean one: a
        // golden-checked ciphertext and the same retired-instruction
        // counts — checkpoint/rollback is transparent.
        let mut hook = TransientFault { at_cycle, fired: false };
        let rec = des
            .encrypt_recovered(PLAIN, KEY, &mut hook, &RecoveryPolicy::default())
            .expect("recovered run");
        assert_eq!(rec.recovery.rollbacks, 1, "exactly one rollback");
        assert_eq!(rec.stats, clean.stats, "retired stream must match");
    }

    #[test]
    fn persistent_fault_exhausts_budget_and_zeroizes() {
        let des = two_rounds(MaskPolicy::Selective);
        let clean_cycles = des.encrypt(PLAIN, KEY).expect("clean run").stats.cycles;
        let mut hook = PersistentFault { from_cycle: clean_cycles / 2 };
        let err = des
            .encrypt_recovered(PLAIN, KEY, &mut hook, &RecoveryPolicy::default())
            .expect_err("budget exhausted");
        match err {
            RunError::Zeroized { rollbacks, last } => {
                assert_eq!(rollbacks, RecoveryPolicy::MAX_RETRIES);
                assert!(matches!(last.kind, CpuErrorKind::DualRailViolation { .. }));
            }
            other => panic!("expected Zeroized, got {other:?}"),
        }
        assert!(err.to_string().contains("zeroized after 8 rollbacks"));
    }

    #[test]
    fn cycle_limit_is_never_retried() {
        // The budget bounds total work including re-execution: a run that
        // exceeds it surfaces CycleLimit even under recovery.
        let des = two_rounds(MaskPolicy::None).with_cycle_limit(100);
        let err = des
            .encrypt_recovered(PLAIN, KEY, &mut NullHook, &RecoveryPolicy::default())
            .expect_err("tiny budget");
        assert!(matches!(
            err,
            RunError::Cpu(CpuError { kind: CpuErrorKind::CycleLimit { limit: 100 }, .. })
        ));
    }

    /// An instruction skip: squashes the IF/ID latch at the first cycle
    /// at or past `at_cycle` at which it holds an instruction, and
    /// records the last cycle it saw.
    struct Squash {
        at_cycle: u64,
        done: bool,
        last_cycle: u64,
    }

    impl PipelineHook for Squash {
        fn before_cycle(&mut self, ctx: &mut emask_cpu::HookCtx<'_>) {
            self.last_cycle = ctx.cycle();
            if !self.done && ctx.cycle() >= self.at_cycle {
                self.done = ctx.squash_if_id();
            }
        }
        fn is_inert(&self, _cycle: u64) -> bool {
            self.done
        }
    }

    /// Runs `fault()` forked from `ladder` at `at_cycle` and from reset,
    /// recovering and fail-stop, demands equal results and returns the
    /// forked recovering run with its hook.
    fn forked_equals_reset<H: PipelineHook>(
        des: &MaskedDes,
        ladder: &CleanLadder,
        at_cycle: u64,
        fault: impl Fn() -> H,
    ) -> (Result<RecoveredRun, RunError>, H) {
        let policy = RecoveryPolicy::default();
        let mut hook = fault();
        let forked = des.encrypt_forked(ladder, at_cycle, &mut hook, Some(&policy));
        let reset = des.encrypt_recovered(PLAIN, KEY, &mut fault(), &policy);
        assert_eq!(forked, reset, "recovering, strike at {at_cycle}");
        let failstop = des.encrypt_forked(ladder, at_cycle, &mut fault(), None);
        let reset = des.encrypt_hooked(PLAIN, KEY, &mut fault());
        assert_eq!(failstop.map(|r| r.stats), reset, "fail-stop, strike at {at_cycle}");
        (forked, hook)
    }

    #[test]
    fn forked_runs_equal_runs_from_reset() {
        let des = two_rounds(MaskPolicy::Selective);
        let clean = des.encrypt(PLAIN, KEY).expect("clean run").stats;
        // Rung 0 and one rung per phase marker.
        let ladder = des.clean_ladder(PLAIN, KEY).expect("ladder");
        assert_eq!(ladder.rungs.len(), 6);
        assert!(ladder.rungs.windows(2).all(|w| w[0].machine.cycles() < w[1].machine.cycles()));
        assert_eq!(ladder.run.stats, clean);
        for at_cycle in [clean.cycles / 5, clean.cycles / 2, clean.cycles * 4 / 5] {
            let fault = || TransientFault { at_cycle, fired: false };
            let (forked, _) = forked_equals_reset(&des, &ladder, at_cycle, fault);
            assert_eq!(forked.expect("recovered").recovery.rollbacks, 1);
        }
        // A skipped instruction the program can do without leaves the
        // machine equal to the clean run's but its counters apart: the
        // forked run rejoins and must still count like a run from reset.
        let mut rejoined_apart = 0;
        for k in 1..16 {
            let at_cycle = clean.cycles * k / 16;
            let fault = || Squash { at_cycle, done: false, last_cycle: 0 };
            let (forked, hook) = forked_equals_reset(&des, &ladder, at_cycle, fault);
            if let Ok(run) = forked {
                if run.stats != clean && hook.last_cycle + 1 < run.stats.cycles {
                    rejoined_apart += 1;
                }
            }
        }
        assert!(rejoined_apart > 0, "no squash rejoined with counters of its own");
    }

    #[test]
    fn a_rung_ignores_only_the_words_the_rest_of_the_run_never_reads() {
        let des = two_rounds(MaskPolicy::Selective);
        let ladder = des.clean_ladder(PLAIN, KEY).expect("ladder");
        let (key, out) = (des.program.data_addr("key"), des.program.data_addr("output"));
        // Whether rung `i` still agrees with its own machine after a flip
        // of the word at `addr`.
        let agrees_flipped = |i: usize, addr: u32| {
            let mut machine = ladder.rungs[i].machine.clone();
            let word = machine.memory().load(addr).expect("load");
            machine.memory_mut().store(addr, word ^ 1).expect("store");
            ladder.rungs[i].machine.eq_on(&machine, &ladder.live[i])
        };
        let last = ladder.rungs.len() - 1;
        for i in 0..=last {
            // The output is read after halt; key parity bits never.
            assert!(!agrees_flipped(i, out + 4 * 63), "rung {i}");
            assert!(agrees_flipped(i, key + 4 * 7), "rung {i}");
        }
        // The key permutation loads the key after rung 0; nothing does
        // after the output permutation's rung.
        assert!(!agrees_flipped(0, key));
        assert!(agrees_flipped(last, key));
    }

    #[test]
    fn a_forked_run_rejoins_only_within_the_cycle_budget() {
        // The replay after a rollback pushes the run past a budget just
        // above the clean run: from reset it is a hang, and the forked run
        // must not rejoin the clean run to finish inside the budget.
        let des = two_rounds(MaskPolicy::Selective);
        let ladder = des.clean_ladder(PLAIN, KEY).expect("ladder");
        let clean_cycles = ladder.run().stats.cycles;
        let tight = des.with_cycle_limit(clean_cycles + 10);
        let at_cycle = clean_cycles / 2;
        let policy = RecoveryPolicy::default();
        let fault = || TransientFault { at_cycle, fired: false };
        let reset = tight.encrypt_recovered(PLAIN, KEY, &mut fault(), &policy);
        assert!(matches!(
            reset,
            Err(RunError::Cpu(CpuError { kind: CpuErrorKind::CycleLimit { .. }, .. }))
        ));
        assert_eq!(tight.encrypt_forked(&ladder, at_cycle, &mut fault(), Some(&policy)), reset);
    }

    #[test]
    fn mismatch_error_is_loud() {
        // Corrupt the round-1 rotation amount (1 -> 0): K1 changes for
        // any key whose C0/D0 are not rotation-invariant, so the
        // ciphertext must diverge from the golden model.
        let mut des = two_rounds(MaskPolicy::None);
        let addr = des.program.data_addr("shifts");
        let word = ((addr - emask_isa::DATA_BASE) / 4) as usize;
        des.program.data[word] ^= 1;
        let err = des.encrypt(PLAIN, KEY).expect_err("corrupted shifts");
        assert!(matches!(err, RunError::Mismatch { .. }));
        assert!(err.to_string().contains("mismatch"));
    }
}
