//! The constant tables of FIPS 46-3.
//!
//! All tables use the standard's 1-based, MSB-first bit numbering: entry `t`
//! of a table selecting from an `n`-bit source means "output the `t`-th bit
//! of the source, counting from 1 at the most-significant end".
//!
//! These tables are shared by the golden model ([`crate::cipher`]) and by the
//! program generator in `emask-core`, which embeds them into the simulated
//! smart card's data memory.

/// Initial permutation `IP` (64 → 64).
pub const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, //
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8, //
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, //
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation `IP⁻¹` (64 → 64), the inverse of [`IP`].
pub const IP_INV: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, //
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29, //
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27, //
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion table `E` (32 → 48) feeding the S-boxes.
pub const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, //
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, //
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25, //
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation `P` (32 → 32) applied to the concatenated S-box outputs.
pub const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, //
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 `PC-1` (64 → 56): drops the 8 parity bits and permutes
/// the remaining 56 key bits into the `C`/`D` halves.
pub const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, //
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36, //
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, //
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 `PC-2` (56 → 48): selects the round key from `C‖D`.
pub const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, //
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, //
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48, //
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Per-round left-rotation amounts for the `C` and `D` key halves.
pub const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes, each a 4×16 table indexed by (row, column).
///
/// Row = bits 1 and 6 of the 6-bit input, column = bits 2–5, per FIPS 46-3.
pub(crate) const SBOXES: [[[u8; 16]; 4]; 8] = [
    [
        [14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7],
        [0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8],
        [4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0],
        [15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13],
    ],
    [
        [15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10],
        [3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5],
        [0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15],
        [13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9],
    ],
    [
        [10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8],
        [13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1],
        [13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7],
        [1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12],
    ],
    [
        [7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15],
        [13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9],
        [10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4],
        [3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14],
    ],
    [
        [2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9],
        [14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6],
        [4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14],
        [11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3],
    ],
    [
        [12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11],
        [10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8],
        [9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6],
        [4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13],
    ],
    [
        [4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1],
        [13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6],
        [1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2],
        [6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12],
    ],
    [
        [13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7],
        [1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2],
        [7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8],
        [2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11],
    ],
];

/// The S-boxes flattened to `8 × 64` entries indexed directly by the raw
/// 6-bit S-box input (the layout the simulated smart-card program embeds in
/// data memory so a single *secure indexing* load performs the lookup).
///
/// `SBOXES_FLAT[box][v]` equals `SBOXES[box][row(v)][col(v)]`.
pub fn sboxes_flat() -> [[u8; 64]; 8] {
    let mut flat = [[0u8; 64]; 8];
    for (b, table) in SBOXES.iter().enumerate() {
        for v in 0..64u8 {
            let row = ((v >> 4) & 0b10) | (v & 1);
            let col = (v >> 1) & 0b1111;
            flat[b][v as usize] = table[row as usize][col as usize];
        }
    }
    flat
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ip_and_inverse_compose_to_identity() {
        // IP_INV[IP[i]-1] must map position i+1 back to itself.
        for (i, &via) in IP.iter().enumerate() {
            assert_eq!(IP_INV[(via - 1) as usize] as usize, i + 1);
        }
    }

    #[test]
    fn ip_is_a_permutation() {
        let set: HashSet<u8> = IP.iter().copied().collect();
        assert_eq!(set.len(), 64);
        assert!(set.iter().all(|&v| (1..=64).contains(&v)));
    }

    #[test]
    fn ip_inv_is_a_permutation() {
        let set: HashSet<u8> = IP_INV.iter().copied().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn p_is_a_permutation_of_32() {
        let set: HashSet<u8> = P.iter().copied().collect();
        assert_eq!(set.len(), 32);
        assert!(set.iter().all(|&v| (1..=32).contains(&v)));
    }

    #[test]
    fn e_covers_all_32_bits() {
        let set: HashSet<u8> = E.iter().copied().collect();
        assert_eq!(set.len(), 32, "every data bit must feed some S-box");
    }

    #[test]
    fn e_duplicates_exactly_sixteen_bits() {
        let mut counts = [0u8; 33];
        for &v in &E {
            counts[v as usize] += 1;
        }
        let dups = counts.iter().filter(|&&c| c == 2).count();
        assert_eq!(dups, 16);
        assert!(counts[1..].iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn pc1_skips_parity_bits() {
        // Parity bits are 8, 16, ..., 64 and must not appear in PC-1.
        for &v in &PC1 {
            assert_ne!(v % 8, 0, "parity bit {v} selected by PC-1");
        }
        let set: HashSet<u8> = PC1.iter().copied().collect();
        assert_eq!(set.len(), 56);
    }

    #[test]
    fn pc2_selects_48_distinct_of_56() {
        let set: HashSet<u8> = PC2.iter().copied().collect();
        assert_eq!(set.len(), 48);
        assert!(set.iter().all(|&v| (1..=56).contains(&v)));
    }

    #[test]
    fn shifts_sum_to_28() {
        // Total rotation over 16 rounds returns C and D to their start.
        assert_eq!(SHIFTS.iter().map(|&s| s as u32).sum::<u32>(), 28);
    }

    #[test]
    fn sbox_rows_are_permutations_of_0_to_15() {
        for table in &SBOXES {
            for row in table {
                let set: HashSet<u8> = row.iter().copied().collect();
                assert_eq!(set.len(), 16);
            }
        }
    }

    #[test]
    fn flat_sbox_matches_row_column_form() {
        let flat = sboxes_flat();
        // Spot-check the classic S1 corner entries.
        assert_eq!(flat[0][0b000000], 14);
        assert_eq!(flat[0][0b000001], 0); // row 1, col 0
        assert_eq!(flat[0][0b111111], 13);
        for b in 0..8 {
            for v in 0..64u8 {
                let row = (((v >> 4) & 0b10) | (v & 1)) as usize;
                let col = ((v >> 1) & 0b1111) as usize;
                assert_eq!(flat[b][v as usize], SBOXES[b][row][col]);
            }
        }
    }
}
