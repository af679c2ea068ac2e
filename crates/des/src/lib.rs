//! # emask-des — reference DES golden model
//!
//! A from-scratch implementation of the Data Encryption Standard
//! ([FIPS 46-3]) used as the *golden model* for the emask reproduction of
//! "Masking the Energy Behavior of DES Encryption" (DATE 2003).
//!
//! The crate provides:
//!
//! * [`Des`] — single-key DES block cipher (encrypt/decrypt one 64-bit
//!   block, optionally with the per-round [`RoundTrace`]),
//! * [`KeySchedule`] — the 16 48-bit round keys, exposed so the simulator-side
//!   software DES can be validated round by round,
//! * [`bits`] — MSB-first bit utilities matching FIPS table numbering,
//! * [`BitArrayState`] — the *bit-per-word* expanded representation used by
//!   the simulated smart-card program (one 32-bit word per DES bit, exactly
//!   the coding style of Figure 4 of the paper),
//! * the FIPS tables the generated program embeds ([`IP`], [`E`], [`P`],
//!   [`PC1`], [`PC2`], [`SHIFTS`], [`sboxes_flat`], …).
//!
//! The paper's simulated processor runs a software DES compiled from a small
//! C-like source; everything that program computes is cross-checked against
//! this crate in the workspace integration tests.
//!
//! ## Example
//!
//! ```
//! use emask_des::Des;
//!
//! let des = Des::new(0x133457799BBCDFF1);
//! let cipher = des.encrypt_block(0x0123456789ABCDEF);
//! assert_eq!(cipher, 0x85E813540F0AB405);
//! assert_eq!(des.decrypt_block(cipher), 0x0123456789ABCDEF);
//! ```
//!
//! [FIPS 46-3]: https://csrc.nist.gov/publications/detail/fips/46/3/archive/1999-10-25

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod bitarray;
pub mod bits;
mod cipher;
mod key;
mod tables;

pub use bitarray::BitArrayState;
pub use cipher::{sbox_lookup, Des, RoundTrace};
pub use key::{KeySchedule, RoundKey};
pub use tables::{sboxes_flat, E, IP, IP_INV, P, PC1, PC2, SHIFTS};
