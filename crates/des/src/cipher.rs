//! The DES block cipher core: the `f` function and the 16-round Feistel
//! network, with an optional per-round trace for validating the simulated
//! software DES.

use crate::bits::{join64, permute, split64};
use crate::key::{KeySchedule, RoundKey};
use crate::tables::{E, IP, IP_INV, P, SBOXES};
use std::fmt;

/// A single-key DES block cipher.
///
/// # Examples
///
/// ```
/// use emask_des::Des;
/// let des = Des::new(0x0123456789ABCDEF);
/// let c = des.encrypt_block(0x4E6F772069732074);
/// assert_eq!(des.decrypt_block(c), 0x4E6F772069732074);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Des {
    schedule: KeySchedule,
}

/// The `(L, R)` state after each stage of an encryption, captured by
/// [`Des::encrypt_block_traced`]. Entry 0 is the post-IP state; entry `n`
/// the state after round `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTrace {
    /// `L` halves: `l[0]` = post-IP, `l[n]` = after round `n`.
    pub l: [u32; 17],
    /// `R` halves, same indexing as `l`.
    pub r: [u32; 17],
    /// The `f(R, K)` output of each round (index 0 = round 1).
    pub f_out: [u32; 16],
    /// The 48-bit `E(R) ⊕ K` S-box inputs of each round.
    pub sbox_in: [u64; 16],
}

impl Des {
    /// Creates a cipher from a 64-bit key (parity bits ignored).
    pub fn new(key: u64) -> Self {
        Self { schedule: KeySchedule::new(key) }
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, plaintext: u64) -> u64 {
        self.crypt(plaintext, Direction::Encrypt)
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, ciphertext: u64) -> u64 {
        self.crypt(ciphertext, Direction::Decrypt)
    }

    /// Encrypts one block and returns the full per-round trace alongside the
    /// ciphertext. Used to validate the simulated software DES round by
    /// round.
    pub fn encrypt_block_traced(&self, plaintext: u64) -> (u64, RoundTrace) {
        let permuted = permute(plaintext, 64, &IP);
        let (mut l, mut r) = split64(permuted);
        let mut trace = RoundTrace { l: [0; 17], r: [0; 17], f_out: [0; 16], sbox_in: [0; 16] };
        trace.l[0] = l;
        trace.r[0] = r;
        for round in 0..16 {
            let k = self.schedule.round_key(round + 1);
            let expanded = permute(u64::from(r), 32, &E);
            let sbox_in = expanded ^ k.value();
            let f = f_function_from_sbox_input(sbox_in);
            let new_r = l ^ f;
            l = r;
            r = new_r;
            trace.l[round + 1] = l;
            trace.r[round + 1] = r;
            trace.f_out[round] = f;
            trace.sbox_in[round] = sbox_in;
        }
        // Pre-output swap: the final block is (R16, L16).
        let preoutput = join64(r, l);
        (permute(preoutput, 64, &IP_INV), trace)
    }

    fn crypt(&self, block: u64, dir: Direction) -> u64 {
        let permuted = permute(block, 64, &IP);
        let (mut l, mut r) = split64(permuted);
        for round in 0..16 {
            let k = match dir {
                Direction::Encrypt => self.schedule.round_key(round + 1),
                Direction::Decrypt => self.schedule.round_key(16 - round),
            };
            let new_r = l ^ f_function(r, k);
            l = r;
            r = new_r;
        }
        permute(join64(r, l), 64, &IP_INV)
    }
}

impl fmt::Display for Des {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DES(key={:016X})", self.schedule.key())
    }
}

#[derive(Debug, Clone, Copy)]
enum Direction {
    Encrypt,
    Decrypt,
}

/// The DES round function `f(R, K) = P(S(E(R) ⊕ K))`.
pub(crate) fn f_function(r: u32, k: RoundKey) -> u32 {
    let expanded = permute(u64::from(r), 32, &E);
    f_function_from_sbox_input(expanded ^ k.value())
}

/// The S-box + P stage of `f`, given the already-XORed 48-bit S-box input.
fn f_function_from_sbox_input(sbox_in: u64) -> u32 {
    let mut s_out = 0u32;
    for box_idx in 0..8 {
        let six = ((sbox_in >> (42 - 6 * box_idx)) & 0x3F) as u8;
        s_out = (s_out << 4) | u32::from(sbox_lookup(box_idx, six));
    }
    permute(u64::from(s_out), 32, &P) as u32
}

/// Looks up S-box `box_idx` (0-based) with a raw 6-bit input, using the
/// FIPS row/column convention.
///
/// # Panics
///
/// Panics if `box_idx >= 8` or `six >= 64`.
pub fn sbox_lookup(box_idx: usize, six: u8) -> u8 {
    assert!(box_idx < 8 && six < 64);
    let row = (((six >> 4) & 0b10) | (six & 1)) as usize;
    let col = ((six >> 1) & 0b1111) as usize;
    SBOXES[box_idx][row][col]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Classic FIPS walk-through vector.
    #[test]
    fn walkthrough_vector() {
        let des = Des::new(0x1334_5779_9BBC_DFF1);
        assert_eq!(des.encrypt_block(0x0123_4567_89AB_CDEF), 0x85E8_1354_0F0A_B405);
    }

    /// Vectors cross-checked against multiple independent DES
    /// implementations.
    #[test]
    fn known_answer_vectors() {
        let cases: &[(u64, u64, u64)] = &[
            (0x0101_0101_0101_0101, 0x0000_0000_0000_0000, 0x8CA6_4DE9_C1B1_23A7),
            (0xFEDC_BA98_7654_3210, 0x0123_4567_89AB_CDEF, 0xED39_D950_FA74_BCC4),
            (0x0123_4567_89AB_CDEF, 0x4E6F_7720_6973_2074, 0x3FA4_0E8A_984D_4815),
            (0x7CA1_1045_4A1A_6E57, 0x01A1_D6D0_3977_6742, 0x690F_5B0D_9A26_939B),
            (0x0131_D961_9DC1_376E, 0x5CD5_4CA8_3DEF_57DA, 0x7A38_9D10_354B_D271),
        ];
        for &(key, plain, cipher) in cases {
            let des = Des::new(key);
            assert_eq!(des.encrypt_block(plain), cipher, "key {key:016X}");
            assert_eq!(des.decrypt_block(cipher), plain, "key {key:016X}");
        }
    }

    #[test]
    fn traced_encrypt_matches_plain_encrypt() {
        let des = Des::new(0x1334_5779_9BBC_DFF1);
        let (c, trace) = des.encrypt_block_traced(0x0123_4567_89AB_CDEF);
        assert_eq!(c, des.encrypt_block(0x0123_4567_89AB_CDEF));
        // Walk-through intermediate values.
        assert_eq!(trace.l[0], 0b1100_1100_0000_0000_1100_1100_1111_1111);
        assert_eq!(trace.r[0], 0b1111_0000_1010_1010_1111_0000_1010_1010);
        assert_eq!(trace.r[1], 0b1110_1111_0100_1010_0110_0101_0100_0100);
        // Feistel invariant: L_n = R_{n-1}.
        for n in 1..=16 {
            assert_eq!(trace.l[n], trace.r[n - 1]);
        }
    }

    #[test]
    fn f_function_walkthrough_round1() {
        // From the classic walk-through: f(R0, K1) = 0010 0011 0100 1010 1010 1001 1011 1011.
        let ks = KeySchedule::new(0x1334_5779_9BBC_DFF1);
        let r0 = 0b1111_0000_1010_1010_1111_0000_1010_1010u32;
        assert_eq!(f_function(r0, ks.round_key(1)), 0b0010_0011_0100_1010_1010_1001_1011_1011);
    }

    #[test]
    fn sbox_lookup_classic_example() {
        // S1(011011) = 5: row 01 = 1, column 1101 = 13.
        assert_eq!(sbox_lookup(0, 0b011011), 5);
    }

    #[test]
    fn complementation_property() {
        // DES(k̄, p̄) = ¬DES(k, p) — a classical structural property that
        // any correct implementation must satisfy.
        let key = 0x0123_4567_89AB_CDEF;
        let plain = 0x4E6F_7720_6973_2074;
        let c1 = Des::new(key).encrypt_block(plain);
        let c2 = Des::new(!key).encrypt_block(!plain);
        assert_eq!(c2, !c1);
    }

    #[test]
    fn weak_keys_are_self_inverse() {
        // Encrypting twice with a weak key is the identity.
        for key in [
            0x0101_0101_0101_0101u64,
            0xFEFE_FEFE_FEFE_FEFE,
            0xE0E0_E0E0_F1F1_F1F1,
            0x1F1F_1F1F_0E0E_0E0E,
        ] {
            let des = Des::new(key);
            let p = 0xDEAD_BEEF_0BAD_F00D;
            assert_eq!(des.encrypt_block(des.encrypt_block(p)), p, "weak key {key:016X}");
        }
    }

    #[test]
    fn display_shows_key() {
        let des = Des::new(0xABCD);
        assert!(format!("{des}").contains("000000000000ABCD"));
    }

    proptest! {
        #[test]
        fn decrypt_inverts_encrypt(key: u64, plain: u64) {
            let des = Des::new(key);
            prop_assert_eq!(des.decrypt_block(des.encrypt_block(plain)), plain);
        }

        #[test]
        fn complementation_holds_for_random_inputs(key: u64, plain: u64) {
            let c1 = Des::new(key).encrypt_block(plain);
            let c2 = Des::new(!key).encrypt_block(!plain);
            prop_assert_eq!(c2, !c1);
        }

        #[test]
        fn avalanche_in_plaintext(key: u64, plain: u64, bit in 0u32..64) {
            // Flipping one plaintext bit flips a nontrivial number of
            // ciphertext bits (SAC-style sanity band).
            let des = Des::new(key);
            let c1 = des.encrypt_block(plain);
            let c2 = des.encrypt_block(plain ^ (1u64 << bit));
            let dist = (c1 ^ c2).count_ones();
            prop_assert!((10..=54).contains(&dist), "avalanche distance {dist}");
        }

        #[test]
        fn avalanche_in_key(key: u64, plain: u64, bit in 0u32..64) {
            // Non-parity key bits avalanche; parity bits change nothing.
            let pos_msb1 = 64 - bit; // 1-based, MSB-first; parity bits are 8, 16, …
            let c1 = Des::new(key).encrypt_block(plain);
            let c2 = Des::new(key ^ (1u64 << bit)).encrypt_block(plain);
            if pos_msb1.is_multiple_of(8) {
                prop_assert_eq!(c1, c2);
            } else {
                let dist = (c1 ^ c2).count_ones();
                prop_assert!((10..=54).contains(&dist), "avalanche distance {dist}");
            }
        }
    }
}
