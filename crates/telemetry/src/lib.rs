//! # scs-telemetry
//!
//! Observability substrate for the DSSP pipeline, dependency-free so
//! every layer of the workspace can use it:
//!
//! * [`Histogram`] — a log-scale histogram with bounded relative error,
//!   recorded in place and merged bucket-wise.
//! * [`MetricsSnapshot`] — a proxy's counters and histograms rendered
//!   under stable names (the proxy itself keeps them in plain fields);
//!   snapshots merge, which is how a fleet rolls up.
//! * [`Tracer`] / [`TraceEvent`] — a structured event stream
//!   (query hit/miss, update applied, entry invalidated/evicted, fault
//!   handling, overload; each carrying template ids, exposure level, and
//!   the strategy's decision path) fanned out to pluggable
//!   [`TraceSink`]s, such as the [`TimeSeriesSink`] that buckets them
//!   into per-window curves.
//!
//! The scalability observatory adds the *temporal* axis the aggregates
//! above lack:
//!
//! * [`span`] — per-request causal span trees: a root span per
//!   query/update/invalidation with phase-tagged children (cache lookup,
//!   crypto, home trip, fan-out, recovery), summarized per template as a
//!   critical path.
//! * [`timeseries`] — a sim-time windowed recorder (fixed-width buckets
//!   over `at_micros` holding counter deltas and mergeable histograms)
//!   so runs export throughput / hit-rate / latency *curves* with
//!   visible outage dips instead of smeared totals.
//! * [`slo`] — declarative objectives (quantile limits, counter caps,
//!   ratio and rate floors) evaluated with burn-rate-style sliding-window
//!   checks against a [`TimeSeries`].
//!
//! Two shared logs answer per-request questions: [`provenance`] (the
//! freshness plane: why a served result is as fresh as it is) and
//! [`audit`] (the leakage plane: what the proxy saw).
//!
//! The [`json`] module carries a minimal JSON value type (render + parse)
//! used by every export, the experiment binary's `telemetry.json`
//! included; it exists so the telemetry path stays hermetic.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod audit;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use audit::{
    shared_audit, AuditLog, RequestRoot, RevealEvent, RevealStamp, SharedAudit,
    EVENT_CAP as AUDIT_EVENT_CAP,
};
pub use hist::Histogram;
pub use json::Json;
pub use metrics::MetricsSnapshot;
pub use provenance::{
    shared_provenance, ApplyKind, FailoverStamp, FlushTrigger, MembershipKind, MembershipStamp,
    ProvenanceLog, SharedProvenance,
};
pub use slo::{evaluate_all, Objective, SloResult, SloSpec};
pub use span::{CriticalPathRow, Span, SpanId, SpanPhase, SpanRecorder, SpanTimer};
pub use timeseries::{ratio, SharedTimeSeries, TimeSeries, TimeSeriesSink, Window};
pub use trace::{TraceEvent, TraceEventKind, TraceSink, Tracer};
