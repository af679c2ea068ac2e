//! # emask-fault — fault injection and dual-rail integrity checking
//!
//! The paper's security argument hinges on secure instructions carrying
//! complementary dual-rail values through the pipeline. This crate turns
//! that from an assumption into a *checked, attackable* runtime property:
//!
//! * [`FaultPlan`] / [`FaultSpec`] — a declarative description of faults:
//!   a [`FaultTrigger`] (cycle, cycle window, retired-instruction index,
//!   op class), a [`FaultTarget`] (pipeline-latch lane, register, memory
//!   word, fetch squash) and a [`FaultModel`] (transient bit-flip,
//!   stuck-at defect, multi-cycle glitch).
//! * [`FaultInjector`] — a [`PipelineHook`](emask_cpu::PipelineHook) that
//!   executes a plan against a live [`Cpu`](emask_cpu::Cpu), counting
//!   the strikes that land.
//! * [`DualRailChecker`] — the per-cycle integrity monitor: every active
//!   secure-tagged bus sample must carry `complement == !value`; a
//!   single-rail upset is reported as
//!   [`CpuErrorKind::DualRailViolation`](emask_cpu::CpuErrorKind) instead
//!   of silently corrupting the ciphertext.
//!
//! Both say when they are done with a run
//! ([`PipelineHook::is_inert`](emask_cpu::PipelineHook::is_inert)): the
//! injector once every planned fault is spent, the checker always, since
//! only an injected single-rail fault gives it something to veto. That is
//! what lets a fault campaign stop a trial once it rejoins the clean run.
//!
//! Injector and checker compose as a hook tuple, so a typical faulted run
//! is `cpu.run_with(limit, &mut (injector, checker), |_| Continue(()))`
//! through [`CpuBackend::run_with`](emask_cpu::CpuBackend::run_with), the
//! one run loop every backend shares. With no plan installed the hook
//! machinery disappears entirely — the unfaulted path is the bare clock
//! that [`Cpu::run`](emask_cpu::Cpu::run) drives.
//!
//! Everything here works against any [`CpuBackend`](emask_cpu::CpuBackend),
//! not just the pipeline: the same plan replays on any backend's
//! `run_with`, and latch-lane strikes degrade to no-ops on backends without
//! pipeline latches (the reference interpreter), the same way a strike on
//! a bubble lands nowhere on the pipeline. Register and memory faults are
//! architectural and reproduce identically everywhere.
//!
//! ## Example
//!
//! ```
//! use emask_fault::{DualRailChecker, FaultInjector, FaultModel, FaultPlan,
//!     FaultSpec, FaultTarget, FaultTrigger};
//! use emask_cpu::{Cpu, CpuBackend, CpuErrorKind, FaultLane, RailMode};
//! use emask_isa::{assemble, OpClass};
//! use std::ops::ControlFlow;
//!
//! let p = assemble(
//!     ".data\nv: .word 9\n.text\n la $t0, v\n slw $t1, 0($t0)\n halt\n",
//! ).expect("asm");
//! let plan = FaultPlan::single(FaultSpec {
//!     trigger: FaultTrigger::OnOpClass { class: OpClass::Load, skip: 0 },
//!     target: FaultTarget::Lane(FaultLane::IdExB, RailMode::TrueOnly),
//!     model: FaultModel::BitFlip { bit: 5 },
//! });
//! let mut hook = (FaultInjector::new(plan), DualRailChecker::new());
//! let err = Cpu::new(&p)
//!     .run_with(10_000, &mut hook, |_| ControlFlow::Continue(()))
//!     .unwrap_err();
//! assert!(matches!(err.kind, CpuErrorKind::DualRailViolation { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod check;
mod inject;
mod plan;

pub use check::DualRailChecker;
pub use inject::FaultInjector;
pub use plan::{FaultModel, FaultPlan, FaultSpec, FaultTarget, FaultTrigger};
