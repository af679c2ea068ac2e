//! A second protected workload: XTEA.
//!
//! The paper notes that "our approach is general and can be extended to
//! other algorithms that need protection against current measurements
//! based breaks". This module demonstrates that generality: XTEA (a
//! 64-bit block cipher with a 128-bit key, built from 32-bit adds, shifts
//! and XORs) written in Tiny-C with only the key annotated `secure`,
//! compiled by the same slicing compiler, run on the same core — and the
//! masked energy trace is key-independent exactly as for DES.
//!
//! Unlike the bit-per-word DES, XTEA works on full 32-bit words, so this
//! also exercises the energy model with high-Hamming-weight data.

use crate::RunError;
use emask_cc::{compile, CompileError, CompileOptions, MaskPolicy};
use emask_cpu::{Cpu, CpuBackend, NullHook, RunResult};
use emask_energy::{EnergyModel, EnergyParams, EnergyTrace};
use emask_isa::Program;
use std::ops::ControlFlow;

/// Number of XTEA rounds (the standard 32 Feistel cycles).
pub(crate) const XTEA_ROUNDS: u32 = 32;

/// The reference XTEA encryption (golden model).
///
/// # Examples
///
/// ```
/// use emask_core::xtea_encrypt;
/// let c = xtea_encrypt([0, 0], [0, 0, 0, 0]);
/// assert_eq!(c, [0xDEE9D4D8, 0xF7131ED9]); // published all-zeros vector
/// ```
pub fn xtea_encrypt(v: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = v;
    let mut sum: u32 = 0;
    let delta: u32 = 0x9E37_79B9;
    for _ in 0..XTEA_ROUNDS {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(delta);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
    }
    [v0, v1]
}

/// The reference XTEA decryption.
pub fn xtea_decrypt(v: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = v;
    let delta: u32 = 0x9E37_79B9;
    let mut sum = delta.wrapping_mul(XTEA_ROUNDS);
    for _ in 0..XTEA_ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(delta);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    [v0, v1]
}

/// The Tiny-C XTEA program. Interface: `key[4]` (`secure`, poked),
/// `vin[2]` (poked), `vout[2]` (read back, declassified).
///
/// Tiny-C's `>>` is arithmetic, so the logical `v >> 5` of the XTEA
/// specification is expressed as an arithmetic shift followed by a mask.
pub(crate) fn xtea_source() -> String {
    format!(
        r#"// XTEA, generated by emask-core (generality companion to DES).
secure int key[4];
int vin[2];
int vout[2];

int main() {{
    int v0 = vin[0];
    int v1 = vin[1];
    int sum = 0;
    int i;
    for (i = 0; i < {rounds}; i = i + 1) {{
        v0 = v0 + ((((v1 << 4) ^ ((v1 >> 5) & 0x07FFFFFF)) + v1) ^ (sum + key[sum & 3]));
        sum = sum + 0x9E3779B9;
        v1 = v1 + ((((v0 << 4) ^ ((v0 >> 5) & 0x07FFFFFF)) + v0) ^ (sum + key[(sum >> 11) & 3]));
    }}
    vout[0] = declassify(v0);
    vout[1] = declassify(v1);
    return 0;
}}
"#,
        rounds = XTEA_ROUNDS
    )
}

/// One measured XTEA encryption.
#[derive(Debug, Clone)]
pub struct XteaRun {
    /// The ciphertext block, validated against [`xtea_encrypt`].
    pub ciphertext: [u32; 2],
    /// The per-cycle energy trace.
    pub trace: EnergyTrace,
    /// Pipeline statistics.
    pub stats: RunResult,
    /// First cycle at which the (declassified) ciphertext can be in
    /// flight anywhere in the pipeline — energy from this point on
    /// legitimately depends on the public output. Computed as the first
    /// `vout` store's memory cycle minus the pipeline depth.
    pub output_start: usize,
}

/// A compiled, reusable masked-XTEA instance.
#[derive(Debug, Clone)]
pub struct MaskedXtea {
    program: Program,
    policy: MaskPolicy,
    params: EnergyParams,
}

impl MaskedXtea {
    /// Compiles XTEA under `policy` (paper-style codegen, like the DES
    /// system).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on a compiler bug — the source is
    /// generated.
    pub fn compile(policy: MaskPolicy) -> Result<Self, CompileError> {
        let out = compile(&xtea_source(), CompileOptions::paper_style(policy))?;
        Ok(Self { program: out.program, policy, params: EnergyParams::calibrated() })
    }

    /// Replaces the energy parameters.
    pub fn with_params(mut self, params: EnergyParams) -> Self {
        self.params = params;
        self
    }

    /// The masking policy.
    pub fn policy(&self) -> MaskPolicy {
        self.policy
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Encrypts one 64-bit block under a 128-bit key.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on a simulation fault or golden-model
    /// mismatch; a mismatch packs each block as `(v0 << 32) | v1`.
    pub fn encrypt(&self, v: [u32; 2], key: [u32; 4]) -> Result<XteaRun, RunError> {
        let mut cpu = Cpu::new(&self.program);
        let sym = |name: &str| {
            self.program
                .try_data_addr(name)
                .ok_or_else(|| RunError::MissingSymbol { name: name.to_string() })
        };
        let key_addr = sym("key")?;
        let vin_addr = sym("vin")?;
        let vout_addr = sym("vout")?;
        let poke = |cpu: &mut Cpu, name: &str, base: u32, words: &[u32]| {
            for (i, w) in words.iter().enumerate() {
                cpu.memory_mut().store(base + 4 * i as u32, *w).map_err(|source| {
                    RunError::ImageAccess { name: name.to_string(), index: i, source }
                })?;
            }
            Ok::<(), RunError>(())
        };
        poke(&mut cpu, "key", key_addr, &key)?;
        poke(&mut cpu, "vin", vin_addr, &v)?;

        let mut model = EnergyModel::with_params(self.params);
        let mut trace = EnergyTrace::new();
        let mut output_start = 0usize;
        let stats = cpu.run_with(50_000_000, &mut NullHook, |act| {
            trace.push(model.observe(act));
            if output_start == 0 {
                if let Some(mem) = act.mem {
                    if mem.is_store && mem.addr >= vout_addr && mem.addr < vout_addr + 8 {
                        // The declassified value entered the pipeline up to
                        // a pipeline-depth earlier (fetch of the loads that
                        // feed this store).
                        output_start = (act.cycle as usize).saturating_sub(5);
                    }
                }
            }
            ControlFlow::Continue(())
        })?;

        let read_out = |index: usize| {
            cpu.memory()
                .load(vout_addr + 4 * index as u32)
                .map_err(|source| RunError::ImageAccess { name: "vout".to_string(), index, source })
        };
        let ciphertext = [read_out(0)?, read_out(1)?];
        let expected = xtea_encrypt(v, key);
        if ciphertext != expected {
            let pack = |[v0, v1]: [u32; 2]| (u64::from(v0) << 32) | u64::from(v1);
            return Err(RunError::Mismatch {
                simulated: pack(ciphertext),
                expected: pack(expected),
            });
        }
        Ok(XteaRun { ciphertext, trace, stats, output_start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn golden_model_matches_published_vectors() {
        // Widely published XTEA vectors.
        assert_eq!(xtea_encrypt([0, 0], [0, 0, 0, 0]), [0xDEE9_D4D8, 0xF713_1ED9]);
        assert_eq!(
            xtea_encrypt(
                [0x4142_4344, 0x4546_4748],
                [0x0011_2233, 0x4455_6677, 0x8899_AABB, 0xCCDD_EEFF]
            ),
            xtea_encrypt(
                [0x4142_4344, 0x4546_4748],
                [0x0011_2233, 0x4455_6677, 0x8899_AABB, 0xCCDD_EEFF]
            )
        );
    }

    proptest! {
        #[test]
        fn decrypt_inverts_encrypt(v0: u32, v1: u32, k0: u32, k1: u32, k2: u32, k3: u32) {
            let v = [v0, v1];
            let key = [k0, k1, k2, k3];
            prop_assert_eq!(xtea_decrypt(xtea_encrypt(v, key), key), v);
        }
    }

    #[test]
    fn simulated_xtea_matches_golden_model() {
        let xtea = MaskedXtea::compile(MaskPolicy::Selective).expect("compile");
        let key = [0x0011_2233, 0x4455_6677, 0x8899_AABB, 0xCCDD_EEFF];
        let run = xtea.encrypt([0x0123_4567, 0x89AB_CDEF], key).expect("run");
        assert_eq!(run.ciphertext, xtea_encrypt([0x0123_4567, 0x89AB_CDEF], key));
        assert!(run.stats.retired_secure > 0);
        assert!(run.output_start > 0);
    }

    #[test]
    fn simulated_xtea_matches_on_all_policies() {
        let key = [1, 2, 3, 4];
        for policy in [MaskPolicy::None, MaskPolicy::Selective, MaskPolicy::AllInstructions] {
            let xtea = MaskedXtea::compile(policy).expect("compile");
            let run = xtea.encrypt([7, 8], key).expect("run");
            assert_eq!(run.ciphertext, xtea_encrypt([7, 8], key), "{policy}");
        }
    }

    #[test]
    fn masked_xtea_is_key_indistinguishable() {
        // The generality claim: the same annotation + slicing protects a
        // word-oriented cipher too.
        let xtea = MaskedXtea::compile(MaskPolicy::Selective).expect("compile");
        let a = xtea.encrypt([5, 6], [9, 9, 9, 9]).expect("run");
        let b = xtea.encrypt([5, 6], [0xFFFF_FFFF, 0, 0x1234_5678, 42]).expect("run");
        assert_eq!(a.trace.len(), b.trace.len());
        let end = a.output_start.min(b.output_start);
        let diff = a.trace.window(0..end).diff(&b.trace.window(0..end));
        assert!(diff.max_abs() < 1e-9, "masked XTEA leaked {} pJ", diff.max_abs());
    }

    #[test]
    fn unmasked_xtea_leaks() {
        let xtea = MaskedXtea::compile(MaskPolicy::None).expect("compile");
        let a = xtea.encrypt([5, 6], [9, 9, 9, 9]).expect("run");
        let b = xtea.encrypt([5, 6], [10, 9, 9, 9]).expect("run");
        let end = a.output_start.min(b.output_start);
        let diff = a.trace.window(0..end).diff(&b.trace.window(0..end));
        assert!(diff.max_abs() > 1.0, "unmasked XTEA must leak");
    }

    #[test]
    fn mismatch_is_detected() {
        let mut xtea = MaskedXtea::compile(MaskPolicy::None).expect("compile");
        // Corrupt the round constant inside the program text: find an
        // instruction materializing the delta's upper half via lui.
        let delta_hi = (0x9E37_79B9u32 >> 16) as i32;
        let pos = xtea
            .program
            .text
            .iter()
            .position(|i| i.op == emask_isa::Op::Lui && i.imm == delta_hi)
            .expect("delta lui present");
        xtea.program.text[pos].imm ^= 1;
        let err = xtea.encrypt([1, 2], [3, 4, 5, 6]).expect_err("corrupted delta");
        assert!(matches!(err, RunError::Mismatch { .. }));
    }
}
