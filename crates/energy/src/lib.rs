//! # emask-energy — transition-sensitive energy models
//!
//! A SimplePower-style per-cycle energy estimator for the
//! [`emask-cpu`](emask_cpu) pipeline, reproducing the measurement
//! infrastructure of "Masking the Energy Behavior of DES Encryption"
//! (DATE 2003). All figures are in **picojoules**, for a 0.25 µm process at
//! a 2.5 V supply (the paper's technology point).
//!
//! ## The physical model
//!
//! Switching energy per toggled line is `E = C·V²` — with the paper's 1 pF
//! internal wire at 2.5 V, 6.25 pJ, exactly the figure the paper quotes for
//! a single memory-bus bit difference. Each modelled component (instruction
//! bus, operand latches, functional-unit arrays, result bus, memory data
//! bus, write-back latch) charges:
//!
//! * **normal mode** — `e · hamming(previous value, current value)`:
//!   data-dependent, the leak DPA exploits;
//! * **secure mode** (dual-rail, pre-charged) — `e · 32` per 32-bit value:
//!   exactly 32 of the 64 true/complement lines discharge each evaluate
//!   phase and are re-precharged, so the energy is a constant, independent
//!   of the data. The constant equals **2×** the random-data average of the
//!   normal mode, matching the paper's observation that naive whole-program
//!   dual-rail "can increase overall power consumption by almost two
//!   times".
//!
//! Register-file and memory-array access energy is data-independent
//! (differential bit lines), as the paper assumes; only access *counts*
//! matter there.
//!
//! The complementary path is **clock gated**: a normal instruction pays
//! nothing for the secure circuitry. [`EnergyParams::gate_complementary`]
//! turns the gate off for the ablation study, and
//! [`SecureStyle::ComplementOnly`] models dual-rail *without* pre-charge —
//! which the tests show still leaks, the paper's argument for the
//! pre-charged design.
//!
//! ## Example
//!
//! ```
//! use emask_cpu::{Cpu, CpuBackend, NullHook};
//! use emask_energy::{EnergyModel, EnergyTrace};
//! use emask_isa::assemble;
//! use std::ops::ControlFlow;
//!
//! let p = assemble(".text\n li $t0, 0x5555\n xor $t1, $t0, $t0\n halt\n")
//!     .expect("asm");
//! let mut cpu = Cpu::new(&p);
//! let mut model = EnergyModel::new();
//! let mut trace = EnergyTrace::new();
//! cpu.run_with(1_000, &mut NullHook, |act| {
//!     trace.push(model.observe(act));
//!     ControlFlow::Continue(())
//! })?;
//! assert!(trace.total_pj() > 0.0);
//! # Ok::<(), emask_cpu::CpuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod model;
mod profile;
mod tech;
mod trace;
mod units;

pub use model::{ComponentEnergy, CycleEnergy, EnergyModel};
pub use profile::{LeakageProfile, LeakageProfiler, LeakageRow};
pub use tech::{EnergyParams, SecureStyle, UnitBases, UnitCaps};
pub use trace::EnergyTrace;
pub use units::{FunctionalUnit, UnitState};
