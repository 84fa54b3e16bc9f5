//! # scs-telemetry
//!
//! Observability substrate for the DSSP pipeline. Three pieces, all
//! dependency-free so every layer of the workspace can use them:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and log-scale
//!   [`LogHistogram`]s behind cheap `Arc` handles. Registration takes a
//!   short-lived mutex; the hot recording path is a single relaxed atomic
//!   op. Registries snapshot and merge, which is how per-tenant metrics
//!   roll up into node-level totals.
//! * [`Tracer`] / [`TraceEvent`] — a structured event stream
//!   (query hit/miss, update applied, entry invalidated/evicted; each
//!   carrying tenant, template ids, exposure level, and the strategy's
//!   decision path) fanned out to pluggable [`TraceSink`]s, such as the
//!   [`TimeSeriesSink`] that buckets them into per-window curves.
//! * [`AttributionMatrix`] — the *empirical* counterpart of the static
//!   invalidation-probability matrix (IPM) from `scs-core`: per
//!   (update-template × query-template) counts of runtime invalidations,
//!   diffable against the analysis' A=0 predictions to catch
//!   analysis/runtime divergence.
//!
//! The scalability observatory adds the *temporal* axis the aggregates
//! above lack:
//!
//! * [`span`] — per-request causal span trees: a root span per
//!   query/update/invalidation with phase-tagged children (cache lookup,
//!   crypto, home trip, fan-out, recovery), exportable as JSONL plus a
//!   per-template critical-path summary.
//! * [`timeseries`] — a sim-time windowed recorder (fixed-width buckets
//!   over `at_micros` holding counter deltas and mergeable histogram
//!   snapshots) so runs export throughput / hit-rate / latency *curves*
//!   with visible outage dips instead of smeared totals.
//! * [`slo`] — declarative objectives (quantile limits, counter caps,
//!   ratio and rate floors) evaluated with burn-rate-style sliding-window
//!   checks against a [`TimeSeries`].
//!
//! The [`json`] module carries a minimal JSON value type (render + parse)
//! used by every export, the experiment binary's `telemetry.json`
//! included; it exists so the telemetry path stays hermetic.

pub mod attribution;
pub mod audit;
pub mod hist;
pub mod json;
pub mod provenance;
pub mod registry;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use attribution::AttributionMatrix;
pub use audit::{
    shared_audit, AuditLog, RequestRoot, RevealEvent, RevealStamp, SharedAudit,
    EVENT_CAP as AUDIT_EVENT_CAP,
};
pub use hist::{HistogramSnapshot, LogHistogram};
pub use json::Json;
pub use provenance::{
    shared_provenance, ApplyKind, FailoverStamp, FlushTrigger, MembershipKind, MembershipStamp,
    ProvenanceLog, SharedProvenance,
};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use slo::{evaluate_all, Objective, SloResult, SloSpec};
pub use span::{CriticalPathRow, Span, SpanId, SpanPhase, SpanRecorder, SpanTimer};
pub use timeseries::{ratio, SharedTimeSeries, TimeSeries, TimeSeriesSink, Window};
pub use trace::{TraceEvent, TraceEventKind, TraceSink, Tracer};
