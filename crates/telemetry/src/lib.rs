//! # emask-telemetry — metrics, trace export and the campaign event stream
//!
//! The observability layer for the simulated smart card: a metrics
//! registry and exporters for external tooling, fed one cycle at a time
//! from the closure of `MaskedDes::encrypt_observed`, plus the live
//! campaign event stream.
//!
//! * [`MetricsRegistry`] — the instruction mix by class (secure vs
//!   normal), secure cycles, a per-cycle energy histogram and per-phase ×
//!   per-component energy attribution, beside the run's own
//!   [`RunResult`](emask_cpu::RunResult) (cycles, retirement, stalls,
//!   flushes), which the caller sets from the finished run.
//! * [`ChromeTrace`] — Chrome trace-event JSON (one lane per pipeline
//!   stage, phase markers as instant events) for `chrome://tracing` /
//!   Perfetto; [`chrome_trace_json`] renders the document wrapper for
//!   any lane set.
//! * [`metrics_csv`], [`summary`] — the per-phase metrics CSV and the
//!   human-readable run report.
//! * [`Event`] / [`EventSink`] — the live campaign event stream:
//!   structured replayable + operational events and a zero-cost null
//!   sink (same compile-time routing as `PipelineHook`). The sink that
//!   writes the JSONL document is `emask-serve`'s `JobSink`.
//! * [`Span`] / [`SpanId`] — causal spans over the event stream:
//!   deterministic hierarchical ids (job → attempt → shard → trial)
//!   emitted as replayable open/close events, rebuildable offline into a
//!   nested Chrome trace.
//!
//! Both per-cycle recorders take the cycle's activity and, on the cycle
//! of a phase-marker store, the name of the phase that marker starts;
//! that cycle belongs to the new phase (start-inclusive windows).
//!
//! ## Example
//!
//! ```
//! use emask_telemetry::MetricsRegistry;
//! use emask_cpu::CycleActivity;
//! use emask_energy::{ComponentEnergy, CycleEnergy};
//!
//! let mut metrics = MetricsRegistry::new();
//! let energy = CycleEnergy { cycle: 0, components: ComponentEnergy::default() };
//! metrics.record(&CycleActivity::idle(0), &energy, Some("round 1"));
//! assert_eq!(metrics.phase("round 1").unwrap().cycles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod chrome;
mod events;
mod export;
mod metrics;
mod span;

pub use chrome::{chrome_trace_json, escape_json, ChromeTrace};
pub use events::{Event, EventSink, NullSink};
pub use export::{host_context, metrics_csv, summary, summary_with_host, HostContext};
pub use metrics::{Histogram, MetricsRegistry, MixEntry, PhaseMetrics, OP_CLASSES};
pub use span::{Span, SpanId};

/// 64-bit FNV-1a: the dependency-free hash behind checkpoint fingerprints
/// and checksums and the committed digests that pin exporter output.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
