//! # emask-cpu — the simulated smart-card processor
//!
//! A cycle-accurate, in-order, single-issue **five-stage pipeline**
//! (fetch, decode, execute, memory access, write back) for the
//! [`emask-isa`](emask_isa) instruction set — the "simple five-stage
//! pipelined smart card processor" of the paper, in the mould of the
//! SimpleScalar core that SimplePower instruments.
//!
//! Microarchitecture:
//!
//! * full forwarding from EX/MEM and MEM/WB into the EX operand inputs;
//! * a one-cycle load-use interlock (the consumer stalls in ID);
//! * branches and jumps resolve in EX; the two younger wrong-path
//!   instructions are flushed (no delay slots);
//! * write-back writes the register file in the first half of the cycle,
//!   decode reads in the second half;
//! * Harvard memories: decoded instruction ROM + a byte-addressed data RAM.
//!
//! Every cycle produces a [`CycleActivity`] record capturing the values
//! latched into the pipeline registers and driven onto the instruction,
//! operand, result and memory buses, each tagged with the owning
//! instruction's **secure bit**. The `emask-energy` crate turns this record
//! stream into per-cycle picojoule figures; this crate deliberately knows
//! nothing about energy.
//!
//! Every backend drives its clock through one loop: a [`CpuBackend`]
//! implements [`CpuBackend::step`] (one cycle, with a [`PipelineHook`]
//! intervening) and inherits [`CpuBackend::run_with`], which steps until
//! `halt`, an exhausted cycle budget, or a per-cycle callback that returns
//! [`ControlFlow::Break`](std::ops::ControlFlow::Break). [`Cpu::run`] and
//! [`Cpu::run_collecting`] are thin conveniences over that loop.
//!
//! Both backends hold their architectural state as one [`ArchState`]:
//! the pipelined [`Cpu`] keeps its [`Pipeline`] (latches, fetch flag, rail
//! skew) beside it, the reference [`Interpreter`] nothing, and one
//! [`Checkpoint`] type saves and restores either.
//!
//! ## Example
//!
//! ```
//! use emask_cpu::Cpu;
//! use emask_isa::assemble;
//!
//! let program = assemble(
//!     ".text\n li $t0, 6\n li $t1, 7\n mul $t2, $t0, $t1\n halt\n",
//! ).expect("valid asm");
//! let mut cpu = Cpu::new(&program);
//! let result = cpu.run(10_000)?;
//! assert_eq!(cpu.reg(emask_isa::Reg::T2), 42);
//! assert!(result.cycles > 4); // pipeline fill + drain
//! # Ok::<(), emask_cpu::CpuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod activity;
mod backend;
mod checkpoint;
mod hook;
mod interp;
mod live;
mod memory;
mod pipeline;
mod regfile;

pub use activity::{Bus, BusSample, CycleActivity, ExActivity, MemActivity};
pub use backend::{ArchState, CpuBackend};
pub use checkpoint::Checkpoint;
pub use hook::{FaultLane, HookCtx, LaneView, NullHook, PipelineHook, RailMode};
pub use interp::Interpreter;
pub use live::{LastReads, LiveSet};
pub use memory::{AccessError, DataMemory};
pub use pipeline::{Cpu, CpuError, CpuErrorKind, Pipeline, RunResult};
