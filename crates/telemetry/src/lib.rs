//! # emask-telemetry — observers, metrics, and structured trace export
//!
//! The observability layer for the simulated smart card: pluggable run
//! observers, a metrics registry, and exporters for external tooling.
//!
//! * [`RunObserver`] — the run-level contract: per-cycle activity +
//!   energy, phase-marker crossings, and final statistics. The unit type
//!   `()` is the free no-op observer; `(A, B)` composes two observers.
//!   (Tools that need the raw activity stream without the energy model
//!   read it from the per-cycle callback of
//!   [`CpuBackend::run_with`](emask_cpu::CpuBackend::run_with).)
//! * [`MetricsRegistry`] — counters (instruction mix by class, secure vs
//!   normal retirement, stalls, flushes), a per-cycle energy histogram,
//!   and per-phase × per-component energy attribution; snapshot into the
//!   typed [`MetricsSnapshot`].
//! * [`ChromeTrace`] — Chrome trace-event JSON (one lane per pipeline
//!   stage, phase markers as instant events) for `chrome://tracing` /
//!   Perfetto.
//! * [`CycleCsv`], [`metrics_csv`], [`summary`] — per-cycle energy CSV,
//!   per-phase metrics CSV, and the human-readable run report.
//! * [`Event`] / [`EventSink`] / [`EventBus`] — the live campaign event
//!   stream: structured replayable + operational events, a zero-cost
//!   null sink (same compile-time routing as `PipelineHook`), and a
//!   bounded backpressure-aware bus for live consumers.
//! * [`Span`] / [`SpanId`] — causal spans over the event stream:
//!   deterministic hierarchical ids (job → attempt → shard → trial)
//!   emitted as replayable open/close events, rebuildable offline into a
//!   nested Chrome trace.
//!
//! ## Example
//!
//! ```
//! use emask_telemetry::{MetricsRegistry, RunObserver, PhaseEvent};
//! use emask_cpu::CycleActivity;
//! use emask_energy::{ComponentEnergy, CycleEnergy};
//!
//! let mut metrics = MetricsRegistry::new();
//! let energy = CycleEnergy { cycle: 0, components: ComponentEnergy::default() };
//! metrics.on_phase(&PhaseEvent { name: "round 1".into(), cycle: 0, index: 0 });
//! metrics.on_cycle(&CycleActivity::idle(0), &energy);
//! assert_eq!(metrics.snapshot().phase("round 1").unwrap().cycles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod chrome;
pub mod events;
pub mod export;
pub mod metrics;
pub mod observer;
pub mod span;
pub mod stream;

pub use chrome::{escape_json, ChromeTrace};
pub use events::{Event, EventSink, NullSink};
pub use export::{
    campaign_csv, campaign_summary, host_context, metrics_csv, recovery_coverage, recovery_summary,
    summary, summary_with_host, CampaignTrial, CycleCsv, HostContext, RecoveryTotals,
    COMPONENT_COLUMNS,
};
pub use metrics::{
    op_class_name, Histogram, MergeError, MetricsRegistry, MetricsSnapshot, MixEntry, PhaseMetrics,
    OP_CLASSES,
};
pub use observer::{PhaseEvent, RunObserver};
pub use span::{Span, SpanId};
pub use stream::{EventBus, DEFAULT_BUS_CAPACITY};

/// 64-bit FNV-1a: the dependency-free hash behind checkpoint fingerprints
/// and checksums and the committed digests that pin exporter output.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
