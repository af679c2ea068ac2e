//! # emask — masking the energy behavior of DES encryption
//!
//! A from-scratch Rust reproduction of *"Masking the Energy Behavior of
//! DES Encryption"* (Saputra, Vijaykrishnan, Kandemir, Irwin, Brooks, Kim,
//! Zhang — DATE 2003): secure-instruction ISA extensions for a smart-card
//! processor, an optimizing compiler with forward slicing, a cycle-accurate
//! 5-stage pipeline simulator with a transition-sensitive energy model, and
//! the SPA/DPA attacks the masking defeats.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`des`] — golden-model DES ([`emask_des`]);
//! * [`isa`] — the 32-bit RISC ISA with the secure bit ([`emask_isa`]);
//! * [`cpu`] — the five-stage pipeline simulator ([`emask_cpu`]);
//! * [`energy`] — SimplePower-style energy models ([`emask_energy`]);
//! * [`cc`] — the Tiny-C compiler with forward slicing ([`emask_cc`]);
//! * [`attack`] — SPA and DPA ([`emask_attack`]);
//! * [`telemetry`] — run observers, metrics, and trace export
//!   ([`emask_telemetry`]);
//! * [`fault`] — fault injection and dual-rail integrity checking
//!   ([`emask_fault`]);
//! * [`par`] — the deterministic parallel execution layer
//!   ([`emask_par`]);
//! * [`core`] — the assembled end-to-end system ([`emask_core`]).
//!
//! ## Quickstart
//!
//! ```no_run
//! use emask::{MaskPolicy, MaskedDes};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compile the paper's bit-per-word DES with compiler-selected masking.
//! let des = MaskedDes::compile(MaskPolicy::Selective)?;
//! let run = des.encrypt(0x0123456789ABCDEF, 0x133457799BBCDFF1)?;
//! assert_eq!(run.ciphertext, 0x85E813540F0AB405); // validated vs FIPS 46-3
//! println!(
//!     "{} cycles at {:.1} pJ/cycle — {} secure instructions",
//!     run.trace.len(),
//!     run.trace.mean_pj(),
//!     des.program().secure_instruction_count()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the DPA attack demo, the masking-policy trade-off
//! study, and direct use of the compiler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emask_attack as attack;
pub use emask_cc as cc;
pub use emask_core as core;
pub use emask_cpu as cpu;
pub use emask_des as des;
pub use emask_energy as energy;
pub use emask_fault as fault;
pub use emask_isa as isa;
pub use emask_par as par;
pub use emask_telemetry as telemetry;

pub use emask_core::{
    ChromeTrace, EncryptionRun, EnergyParams, EnergyTrace, MaskPolicy, MaskedDes, MaskedXtea,
    MetricsRegistry, Phase, SecureStyle,
};
pub use emask_des::{Des, KeySchedule};
