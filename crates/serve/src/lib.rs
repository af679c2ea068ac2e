//! emask-serve: the resilient campaign service.
//!
//! A small, dependency-free job service over the deterministic campaign
//! stack: clients submit experiment specs (JSON over a Unix socket), a
//! supervised executor runs them one at a time under a cooperative
//! [`CancelToken`](emask_par::CancelToken), and every run streams the
//! replayable PR-5 event vocabulary to its subscribers while appending
//! it losslessly to a per-job history file.
//!
//! The service exists to make long campaigns survivable without
//! sacrificing the workspace's determinism contract:
//!
//! * **Cancellation and deadlines** trip the token; experiments stop at
//!   the next *trial boundary*, so every event already emitted is a
//!   prefix of the uninterrupted stream.
//! * **Retry** is bounded and deterministic ([`RetryPolicy`]): no
//!   jitter, pure doubling from a base — the same failure history always
//!   produces the same schedule. Resumable experiments continue from
//!   their last good checkpoint instead of starting over.
//! * **Admission control** bounds the queue depth and each job's
//!   estimated accumulator footprint, rejecting with a typed
//!   [`RejectReason`] instead of degrading everyone.
//! * **Graceful shutdown** (SIGTERM or the `shutdown` command) stops
//!   admissions, parks the in-flight job at a trial boundary with its
//!   checkpoint on disk, and exits 0. A restarted server rescans the
//!   state directory and resumes parked jobs automatically — and because
//!   every experiment is deterministic, the final CSV is byte-identical
//!   to an uninterrupted run.
//!
//! The crate is experiment-agnostic: it depends only on `emask-par` and
//! `emask-telemetry`, and the binary installs an [`ExperimentRunner`]
//! that maps specs onto actual campaigns (see `emask-bench`).

#![deny(unsafe_code)] // `signal.rs` carries the one audited allow
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

pub mod client;
pub mod json;
mod retry;
mod scheduler;
mod server;
mod signal;
mod sink;
mod spec;
mod supervisor;

pub use retry::{RetryPolicy, MAX_BACKOFF_MS};
pub use scheduler::Priority;
pub use server::serve;
pub use sink::JobSink;
pub use spec::{JobSpec, SpecError};
pub use supervisor::{
    ExperimentRunner, JobCtx, JobState, JobStatus, LatencyStats, RejectReason, RunStatus,
    ServerConfig, ServiceStats, Supervisor,
};
