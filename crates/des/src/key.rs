//! The DES key schedule.
//!
//! A 64-bit key (56 effective bits + 8 odd-parity bits) is permuted by PC-1
//! into two 28-bit registers `C0`/`D0`; each round rotates both left by a
//! per-round amount and selects a 48-bit round key through PC-2. The paper's
//! *key generation* and *key permutation* operations (Figure 2) correspond
//! exactly to this module, and are precisely the operations its compiler must
//! protect with secure instructions.

use crate::bits::{permute, rotl};
use crate::tables::{PC1, PC2, SHIFTS};
use std::fmt;

/// One 48-bit round key, stored in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RoundKey(pub u64);

impl RoundKey {
    /// The raw 48-bit value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The 6-bit slice feeding S-box `sbox` (0-based, S1 = 0).
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8`.
    pub fn sbox_slice(self, sbox: usize) -> u8 {
        assert!(sbox < 8, "S-box index {sbox} out of range");
        ((self.0 >> (42 - 6 * sbox)) & 0x3F) as u8
    }
}

impl fmt::Display for RoundKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:012X}", self.0)
    }
}

/// The 16 round keys of a 64-bit key.
///
/// # Examples
///
/// ```
/// use emask_des::KeySchedule;
/// let ks = KeySchedule::new(0x133457799BBCDFF1);
/// assert_eq!(ks.round_key(1).value(), 0x1B02EFFC7072);
/// assert_eq!(ks.round_key(16).value(), 0xCB3D8B0E17F5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySchedule {
    key: u64,
    round_keys: [RoundKey; 16],
}

impl KeySchedule {
    /// Derives the schedule from a 64-bit key. Parity bits are ignored, as
    /// PC-1 drops them.
    pub fn new(key: u64) -> Self {
        let cd = permute(key, 64, &PC1);
        let (mut c, mut d) = (cd >> 28, cd & 0x0FFF_FFFF);
        let mut round_keys = [RoundKey::default(); 16];
        for (rk, &s) in round_keys.iter_mut().zip(&SHIFTS) {
            c = rotl(c, 28, u32::from(s));
            d = rotl(d, 28, u32::from(s));
            *rk = RoundKey(permute((c << 28) | d, 56, &PC2));
        }
        Self { key, round_keys }
    }

    /// The original 64-bit key.
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Round key `Kn` for round `n` in `1..=16`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=16`.
    pub fn round_key(&self, n: usize) -> RoundKey {
        assert!((1..=16).contains(&n), "round {n} out of 1..=16");
        self.round_keys[n - 1]
    }

    /// The `C`/`D` registers after round `n` (`n = 0` gives the PC-1
    /// outputs), recomputed for the tests that check the bit-array state
    /// against them.
    #[cfg(test)]
    pub(crate) fn cd(&self, n: usize) -> (u32, u32) {
        let cd = permute(self.key, 64, &PC1);
        let s = SHIFTS[..n].iter().map(|&s| u32::from(s)).sum();
        (rotl(cd >> 28, 28, s) as u32, rotl(cd & 0x0FFF_FFFF, 28, s) as u32)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fully worked key schedule for 0x133457799BBCDFF1 from the classic
    /// FIPS walk-through.
    const WALKTHROUGH_KEY: u64 = 0x1334_5779_9BBC_DFF1;

    #[test]
    fn walkthrough_c0_d0() {
        let ks = KeySchedule::new(WALKTHROUGH_KEY);
        assert_eq!(ks.cd(0), (0b1111000011001100101010101111, 0b0101010101100110011110001111));
    }

    #[test]
    fn walkthrough_k1_and_k16() {
        let ks = KeySchedule::new(WALKTHROUGH_KEY);
        assert_eq!(ks.round_key(1).value(), 0x1B02_EFFC_7072);
        assert_eq!(ks.round_key(16).value(), 0xCB3D_8B0E_17F5);
    }

    #[test]
    fn c16_d16_return_to_start() {
        // The shifts sum to 28 so the registers complete a full rotation.
        let ks = KeySchedule::new(WALKTHROUGH_KEY);
        assert_eq!(ks.cd(16), ks.cd(0));
    }

    #[test]
    #[should_panic(expected = "out of 1..=16")]
    fn round_zero_panics() {
        KeySchedule::new(0).round_key(0);
    }

    #[test]
    fn sbox_slice_partitions_round_key() {
        let ks = KeySchedule::new(WALKTHROUGH_KEY);
        let k1 = ks.round_key(1);
        let mut rebuilt = 0u64;
        for s in 0..8 {
            rebuilt = (rebuilt << 6) | u64::from(k1.sbox_slice(s));
        }
        assert_eq!(rebuilt, k1.value());
    }

    proptest! {
        #[test]
        fn parity_bits_never_affect_schedule(key: u64, flip in 0usize..8) {
            let ks1 = KeySchedule::new(key);
            let ks2 = KeySchedule::new(key ^ (1u64 << (8 * flip)));
            for n in 1..=16 {
                prop_assert_eq!(ks1.round_key(n), ks2.round_key(n));
            }
        }

        #[test]
        fn round_keys_have_at_most_48_bits(key: u64) {
            let ks = KeySchedule::new(key);
            for n in 1..=16 {
                prop_assert!(ks.round_key(n).value() < (1u64 << 48));
            }
        }
    }
}
