//! # emask-conformance — multi-backend conformance test support
//!
//! The workspace's CPU abstraction ([`emask_cpu::CpuBackend`]) promises
//! that every backend implements the same *architectural contract* while
//! remaining free in its *microarchitecture* (see
//! [`emask_cpu::CpuBackend`]). This crate is the executable form of that
//! promise:
//!
//! * [`random_program`] and its siblings — the shared random Tiny-C
//!   program generators that used to be copy-pasted across the workspace
//!   integration tests, plus a deterministic [`corpus`] expansion;
//! * [`conformance_suite`], which runs ≥256 generated programs plus the
//!   real masked/unmasked DES binaries against a backend pair and checks
//!   final register/memory state, retirement order, hook transparency,
//!   stop and resume, checkpoint round-trips (where supported), and
//!   per-backend energy CSV emission.
//!
//! A new backend's bring-up checklist is one line:
//! `conformance_suite::<MyBackend>();`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod programs;
mod suite;

pub use programs::{
    corpus, random_array_source, random_expression_source, random_program, random_reduce_source,
};
pub use suite::{
    assert_checkpoint_round_trip, conformance_suite, conformance_suite_pair, ConformanceReport,
};
