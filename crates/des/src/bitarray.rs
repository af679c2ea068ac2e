//! The *bit-per-word* DES representation of the simulated smart-card
//! program.
//!
//! Figure 4 of the paper shows the software DES the authors compiled: bits
//! are stored one per 32-bit word (`newL[i] = oldR[i]`), so a secure load /
//! store / XOR of a *word* protects exactly one DES *bit*. This module
//! provides that representation in Rust, plus [`BitArrayState`], a literal
//! transcription of the modified DES algorithm of Figure 2. It serves two
//! purposes:
//!
//! 1. it is the executable specification of the Tiny-C program that
//!    `emask-core` compiles and runs on the simulated pipeline, and
//! 2. every intermediate array is cross-checked against the packed golden
//!    model ([`Des`](crate::Des)) in the tests, so a simulator bug cannot hide
//!    behind a matching-but-wrong reference.

// The round code below uses explicit index loops deliberately: it is a
// line-by-line transcription of the paper's Figure 2 bit-array algorithm
// (and the executable spec for the generated Tiny-C program).
#![allow(clippy::needless_range_loop)]

use crate::bits::{from_bit_vec, to_bit_vec};

use crate::tables::{sboxes_flat, E, IP, IP_INV, P, PC1, PC2, SHIFTS};

/// Expands a packed block to one `u32` word per bit, MSB first.
fn expand(block: u64) -> [u32; 64] {
    to_bit_vec(block).map(u32::from)
}

/// Packs one word per bit back to a `u64`.
///
/// # Panics
///
/// Panics if any word is not 0 or 1.
fn pack(words: &[u32; 64]) -> u64 {
    from_bit_vec(&words.map(|w| {
        assert!(w <= 1, "expanded word {w} is not a bit");
        w as u8
    }))
}

/// The complete bit-array working state of the Figure 2 algorithm: every
/// array the simulated program keeps in data memory.
///
/// Field names follow the paper's notation so the memory-layout mapping in
/// `emask-core` reads one-to-one.
#[derive(Debug, Clone)]
pub struct BitArrayState {
    /// `L` half, one bit per word.
    pub l: [u32; 32],
    /// `R` half.
    pub r: [u32; 32],
    /// Key-schedule `C` register (28 bits).
    pub c: [u32; 28],
    /// Key-schedule `D` register.
    pub d: [u32; 28],
    /// Current round key `Km` (48 bits).
    pub k: [u32; 48],
    /// Expanded `E(R)` (48 bits).
    pub er: [u32; 48],
    /// `E(R) ⊕ K` S-box input (48 bits).
    pub xored: [u32; 48],
    /// S-box output before `P` (32 bits).
    pub sout: [u32; 32],
    /// `f(R, K)` after `P` (32 bits).
    pub f: [u32; 32],
}

impl BitArrayState {
    /// Runs initial permutation and key permutation (PC-1), producing the
    /// pre-round state — the first two boxes of Figure 2.
    pub fn new(plaintext: u64, key: u64) -> Self {
        let data = expand(plaintext);
        let keyw = expand(key);
        let mut l = [0u32; 32];
        let mut r = [0u32; 32];
        // (L, R) = PermuteIP(Data)
        for i in 0..32 {
            l[i] = data[(IP[i] - 1) as usize];
            r[i] = data[(IP[i + 32] - 1) as usize];
        }
        // (C, D) = PermuteK1(Key)
        let mut c = [0u32; 28];
        let mut d = [0u32; 28];
        for i in 0..28 {
            c[i] = keyw[(PC1[i] - 1) as usize];
            d[i] = keyw[(PC1[i + 28] - 1) as usize];
        }
        Self { l, r, c, d, k: [0; 48], er: [0; 48], xored: [0; 48], sout: [0; 32], f: [0; 32] }
    }

    /// Executes one round (`m` in `1..=16`): key generation (rotate + PC-2),
    /// left-side assignment, and the right-side `f` computation — exactly
    /// the three boxes inside the round of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `1..=16`.
    pub fn round(&mut self, m: usize) {
        assert!((1..=16).contains(&m), "round {m} out of 1..=16");
        let sboxes = sboxes_flat();
        // Key generation: Cm = Rotate(Cm-1, n); Dm = Rotate(Dm-1, n).
        let n = SHIFTS[m - 1] as usize;
        self.c.rotate_left(n);
        self.d.rotate_left(n);
        // Km = PermuteK2(Cm, Dm).
        for i in 0..48 {
            let sel = (PC2[i] - 1) as usize;
            self.k[i] = if sel < 28 { self.c[sel] } else { self.d[sel - 28] };
        }
        // E(R) = PermuteE(Rm-1).
        for i in 0..48 {
            self.er[i] = self.r[(E[i] - 1) as usize];
        }
        // S-box input: E(R) (+) Km.
        for i in 0..48 {
            self.xored[i] = self.er[i] ^ self.k[i];
        }
        // S(E(R) (+) Km): build each 6-bit index from bit words, then a
        // single table lookup — the *indexing operation* the paper's secure
        // indexing protects.
        for b in 0..8 {
            let mut idx = 0u32;
            for j in 0..6 {
                idx = (idx << 1) | self.xored[6 * b + j];
            }
            let four = u32::from(sboxes[b][idx as usize]);
            for j in 0..4 {
                self.sout[4 * b + j] = (four >> (3 - j)) & 1;
            }
        }
        // f = P(sout).
        for i in 0..32 {
            self.f[i] = self.sout[(P[i] - 1) as usize];
        }
        // Left side: Lm = Rm-1; Right side: Rm = Lm-1 (+) f.
        let old_l = self.l;
        self.l = self.r;
        for i in 0..32 {
            self.r[i] = old_l[i] ^ self.f[i];
        }
    }

    /// Output inverse permutation: `Output = PermuteIP⁻¹(R16, L16)`.
    pub fn output(&self) -> u64 {
        let mut preout = [0u32; 64];
        preout[..32].copy_from_slice(&self.r);
        preout[32..].copy_from_slice(&self.l);
        let mut out = [0u32; 64];
        for i in 0..64 {
            out[i] = preout[(IP_INV[i] - 1) as usize];
        }
        pack(&out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cipher::Des;
    use crate::key::KeySchedule;
    use proptest::prelude::*;

    #[test]
    fn expanded_block_round_trips() {
        for v in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(pack(&expand(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "not a bit")]
    fn packing_non_bit_words_panics() {
        let mut e = expand(0);
        e[3] = 2;
        pack(&e);
    }

    /// Runs all 16 rounds and returns the ciphertext.
    fn encrypt_block(plaintext: u64, key: u64) -> u64 {
        let mut st = BitArrayState::new(plaintext, key);
        for m in 1..=16 {
            st.round(m);
        }
        st.output()
    }

    /// Packs a bit-per-word array, MSB first.
    fn packed(bits: &[u32]) -> u64 {
        bits.iter().fold(0, |v, &b| (v << 1) | u64::from(b))
    }

    #[test]
    fn initial_state_matches_golden_ip_and_pc1() {
        let key = 0x1334_5779_9BBC_DFF1;
        let p = 0x0123_4567_89AB_CDEF;
        let st = BitArrayState::new(p, key);
        let ks = KeySchedule::new(key);
        let (_, trace) = Des::new(key).encrypt_block_traced(p);
        assert_eq!(packed(&st.l), u64::from(trace.l[0]));
        assert_eq!(packed(&st.r), u64::from(trace.r[0]));
        assert_eq!((packed(&st.c) as u32, packed(&st.d) as u32), ks.cd(0));
    }

    #[test]
    fn per_round_state_matches_golden_model() {
        let key = 0x1334_5779_9BBC_DFF1;
        let p = 0x0123_4567_89AB_CDEF;
        let mut st = BitArrayState::new(p, key);
        let ks = KeySchedule::new(key);
        let (_, trace) = Des::new(key).encrypt_block_traced(p);
        for m in 1..=16 {
            st.round(m);
            assert_eq!(packed(&st.l), u64::from(trace.l[m]), "L after round {m}");
            assert_eq!(packed(&st.r), u64::from(trace.r[m]), "R after round {m}");
            assert_eq!(packed(&st.k), ks.round_key(m).value(), "K{m}");
            assert_eq!((packed(&st.c) as u32, packed(&st.d) as u32), ks.cd(m), "C{m}, D{m}");
        }
    }

    #[test]
    fn walkthrough_ciphertext() {
        assert_eq!(
            encrypt_block(0x0123_4567_89AB_CDEF, 0x1334_5779_9BBC_DFF1),
            0x85E8_1354_0F0A_B405
        );
    }

    #[test]
    #[should_panic(expected = "out of 1..=16")]
    fn round_seventeen_panics() {
        BitArrayState::new(0, 0).round(17);
    }

    proptest! {
        #[test]
        fn bitarray_equals_golden_model(key: u64, plain: u64) {
            prop_assert_eq!(encrypt_block(plain, key), Des::new(key).encrypt_block(plain));
        }

        #[test]
        fn all_state_words_remain_bits(key: u64, plain: u64) {
            let mut st = BitArrayState::new(plain, key);
            for m in 1..=16 {
                st.round(m);
                prop_assert!(st.l.iter().chain(&st.r).chain(&st.k).all(|&w| w <= 1));
            }
        }
    }
}
