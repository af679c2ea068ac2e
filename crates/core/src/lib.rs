//! # emask-core — energy-masked DES, end to end
//!
//! The paper's complete system assembled from the workspace substrates:
//!
//! 1. [`des_source`] generates the **bit-per-word DES program** of the paper's
//!    Figure 2/Figure 4 in Tiny-C, with the key annotated `secure` and the
//!    output inverse permutation declassified;
//! 2. `emask-cc` compiles it under a [`MaskPolicy`] (forward slicing
//!    selects the secure instructions);
//! 3. `emask-cpu` executes it cycle-by-cycle on the 5-stage smart-card
//!    core;
//! 4. `emask-energy` converts the activity stream into a per-cycle
//!    picojoule trace;
//! 5. the ciphertext is validated against the `emask-des` golden model on
//!    every run — a wrong simulation can never masquerade as a result.
//!
//! [`MaskedDes`] is the user-facing entry point; [`EncryptionRun`] carries
//! the ciphertext, the [`EnergyTrace`], pipeline statistics, and the phase
//! markers used to window the paper's figures (key permutation, each of
//! the 16 rounds, output permutation).
//!
//! ## Example
//!
//! ```no_run
//! use emask_core::{MaskedDes, MaskPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let des = MaskedDes::compile(MaskPolicy::Selective)?;
//! let run = des.encrypt(0x0123456789ABCDEF, 0x133457799BBCDFF1)?;
//! assert_eq!(run.ciphertext, 0x85E813540F0AB405);
//! println!("{} pJ/cycle over {} cycles", run.trace.mean_pj(), run.trace.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod desgen;
mod recovery;
mod runner;
mod xtea;

pub use desgen::{des_source, DesProgramSpec};
pub use emask_cc::MaskPolicy;
pub use emask_energy::{EnergyParams, EnergyTrace, SecureStyle};
pub use emask_telemetry::{ChromeTrace, MetricsRegistry};
pub use recovery::{CleanLadder, RecoveryPolicy, RecoveryStats};
pub use runner::{EncryptionRun, MaskedDes, Phase, PhaseMarker, RecoveredRun, RunError};
pub use xtea::{xtea_decrypt, xtea_encrypt, MaskedXtea, XteaRun};
