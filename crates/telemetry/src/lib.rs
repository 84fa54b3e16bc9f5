//! # scs-telemetry
//!
//! Observability substrate for the DSSP pipeline, dependency-free so
//! every layer of the workspace can use it:
//!
//! * [`Histogram`] — a log-scale histogram with bounded relative error,
//!   recorded in place and merged bucket-wise.
//! * [`MetricsSnapshot`] — a proxy's counters and histograms under stable
//!   names; snapshots merge, which is how a fleet rolls up.
//! * [`Tracer`] / [`TraceEvent`] — the one structured event stream
//!   (serves, fills, misses, updates and their commits, invalidations,
//!   deliveries, faults, overload, fanout, membership, reveals) fanned out
//!   to pluggable [`TraceSink`]s.
//! * [`span`] — per-request causal span trees, summarized per template
//!   as a critical path.
//! * [`timeseries`] — a sim-time windowed recorder; its
//!   [`TimeSeriesSink`] turns the event stream into per-window curves
//!   with visible outage dips instead of smeared totals.
//! * [`slo`] — declarative objectives evaluated with sliding-window
//!   checks against a [`TimeSeries`].
//! * [`provenance`] (the freshness plane: why a served result is as fresh
//!   as it is) and [`audit`] (the leakage plane: what the proxy saw) —
//!   each a pure [`Fold`] over the event stream, attached to a tracer as
//!   a [`PlaneSink`]; no producer knows a plane exists.
//! * [`json`] — a minimal JSON value type (render + parse) used by every
//!   export, so the telemetry path stays hermetic.

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

pub use audit::{shared_audit, AuditLog, RequestRoot, RevealEvent, SharedAudit};
pub use hist::Histogram;
pub use json::Json;
pub use metrics::MetricsSnapshot;
pub use provenance::{shared_provenance, ProvenanceLog, SharedProvenance, Staleness};
pub use slo::{evaluate_all, Objective, SloResult, SloSpec};
pub use span::{CriticalPathRow, Span, SpanId, SpanPhase, SpanRecorder, SpanTimer};
pub use timeseries::{ratio, SharedTimeSeries, TimeSeries, TimeSeriesSink, Window};
pub use trace::{
    ApplyKind, Commit, FlushTrigger, Fold, MembershipKind, PlaneSink, RevealStamp, TraceEvent,
    TraceEventKind, TraceSink, Tracer,
};

/// Locks `m`, recovering the guard when a panicking holder poisoned it.
/// Every mutex this workspace shares holds telemetry that only counts
/// and appends — valid at every step — so a poisoned one is still one to
/// read or fold into, and neither the serving path nor a post-run reader
/// may panic over it.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cap on each plane journal (a replica's freshness events, the leakage
/// plane's reveals and request roots). Ledgers, histograms and counters
/// are unbounded (constant space); a journal exists for `explain_*` and
/// stops growing here, counting the overflow instead.
pub const EVENT_CAP: usize = 1 << 16;

/// Appends `ev` to a journal below [`EVENT_CAP`]; counts it as dropped
/// past the cap.
fn push_capped<T>(journal: &mut Vec<T>, ev: T, dropped: &mut u64) {
    if journal.len() < EVENT_CAP {
        journal.push(ev);
    } else {
        *dropped += 1;
    }
}

/// One step of an `explain_*` causal chain.
fn step<const N: usize>(name: &str, at: u64, fields: [(&'static str, Json); N]) -> Json {
    let mut kv: Vec<(&'static str, Json)> = vec![("step", name.into()), ("at_micros", at.into())];
    kv.extend(fields);
    Json::obj(kv)
}
