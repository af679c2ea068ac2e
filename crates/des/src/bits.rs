//! MSB-first bit utilities matching the FIPS 46-3 numbering convention.
//!
//! FIPS tables number bits from 1 at the most-significant end. A 64-bit
//! block's "bit 1" is therefore bit 63 of the containing `u64`. These helpers
//! keep that convention in one place so the cipher code reads like the
//! standard.

/// Returns bit `pos` (1-based, MSB-first) of a `width`-bit value stored in
/// the low bits of `value`.
///
/// # Panics
///
/// Panics if `pos` is zero or greater than `width`, or `width > 64`.
pub(crate) fn bit(value: u64, width: u32, pos: u32) -> u64 {
    assert!(width <= 64, "width {width} exceeds 64");
    assert!(pos >= 1 && pos <= width, "bit {pos} out of 1..={width}");
    (value >> (width - pos)) & 1
}

/// Applies a FIPS-style permutation/selection table.
///
/// `table[i]` gives the 1-based source position (within a `src_width`-bit
/// input) of output bit `i + 1`. The output has `table.len()` bits, MSB
/// first, in the low bits of the returned `u64`.
///
/// # Panics
///
/// Panics if the table is longer than 64 entries or references a source bit
/// outside `1..=src_width`.
///
/// # Examples
///
/// ```
/// use emask_des::bits::permute;
/// // Swap the two halves of a 4-bit value.
/// assert_eq!(permute(0b1100, 4, &[3, 4, 1, 2]), 0b0011);
/// ```
pub fn permute(value: u64, src_width: u32, table: &[u8]) -> u64 {
    assert!(table.len() <= 64, "permutation output exceeds 64 bits");
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | bit(value, src_width, u32::from(src));
    }
    out
}

/// Rotates the low `width` bits of `value` left by `n`.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 64.
pub(crate) fn rotl(value: u64, width: u32, n: u32) -> u64 {
    assert!((1..=64).contains(&width));
    let n = n % width;
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    ((value << n) | (value >> (width - n))) & mask
}

/// Splits a 64-bit block into its 32-bit (left, right) halves.
pub(crate) fn split64(block: u64) -> (u32, u32) {
    ((block >> 32) as u32, block as u32)
}

/// Joins 32-bit (left, right) halves into a 64-bit block.
pub(crate) fn join64(left: u32, right: u32) -> u64 {
    (u64::from(left) << 32) | u64::from(right)
}

/// Converts a 64-bit block to an MSB-first array of 64 single-bit values,
/// the layout used by the simulated bit-per-word DES program.
pub fn to_bit_vec(block: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((block >> (63 - i)) & 1) as u8;
    }
    out
}

/// Reassembles a 64-bit block from an MSB-first array of single-bit values.
///
/// # Panics
///
/// Panics if any element is not 0 or 1.
pub fn from_bit_vec(bits: &[u8; 64]) -> u64 {
    let mut out = 0u64;
    for &b in bits {
        assert!(b <= 1, "bit array element must be 0 or 1");
        out = (out << 1) | u64::from(b);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_numbering_is_msb_first() {
        let v = 0x8000_0000_0000_0000u64;
        assert_eq!(bit(v, 64, 1), 1);
        assert_eq!(bit(v, 64, 64), 0);
        assert_eq!(bit(1, 64, 64), 1);
    }

    #[test]
    fn identity_permutation_is_identity() {
        let table: Vec<u8> = (1..=32).collect();
        assert_eq!(permute(0xDEAD_BEEF, 32, &table), 0xDEAD_BEEF);
    }

    #[test]
    fn rotl_wraps_within_width() {
        assert_eq!(rotl(0b1000, 4, 1), 0b0001);
        assert_eq!(rotl(0b1001, 4, 2), 0b0110);
        assert_eq!(rotl(0xF000_0000, 32, 4), 0x0000_000F);
    }

    #[test]
    fn split_join_round_trip() {
        let (l, r) = split64(0x0123_4567_89AB_CDEF);
        assert_eq!(l, 0x0123_4567);
        assert_eq!(r, 0x89AB_CDEF);
        assert_eq!(join64(l, r), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bit_zero_position_panics() {
        bit(0, 32, 0);
    }

    proptest! {
        #[test]
        fn bit_vec_round_trips(block: u64) {
            prop_assert_eq!(from_bit_vec(&to_bit_vec(block)), block);
        }

        #[test]
        fn rotl_by_width_is_identity(v in 0u64..(1 << 28)) {
            prop_assert_eq!(rotl(v, 28, 28), v);
        }

        #[test]
        fn rotl_composes(v in 0u64..(1 << 28), a in 0u32..28, b in 0u32..28) {
            prop_assert_eq!(rotl(rotl(v, 28, a), 28, b), rotl(v, 28, a + b));
        }

        #[test]
        fn permute_preserves_popcount_for_permutations(block: u64) {
            use crate::tables::IP;
            prop_assert_eq!(permute(block, 64, &IP).count_ones(), block.count_ones());
        }
    }
}
