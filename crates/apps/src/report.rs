//! Machine-readable telemetry reports for the experiment binaries.
//!
//! The `fig3`/`fig8` binaries (and anything else driving a
//! [`DsspWorkload`](crate::driver::DsspWorkload)) assemble one JSON
//! *entry* per (application, configuration) probe run, combining:
//!
//! * the proxy's named counters: per-template hit/miss/invalidation
//!   counts and the invalidation-scan-size histogram;
//! * the empirical invalidation-attribution matrix next to the static
//!   IPM's A=0 predictions (plus any divergence — pairs the analysis
//!   proved conflict-free that nonetheless invalidated at runtime);
//! * the simulator's latency breakdown: response-time quantiles and
//!   per-service-center wait/service histograms.
//!
//! The schema is documented in `EXPERIMENTS.md`; everything renders via
//! the hermetic `scs-telemetry` JSON type, so reports stay dependency
//! free and round-trip through [`Json::parse`].

use crate::scenario::{knee_index, CurvePoint, Scenario, ScenarioReport};
use scs_dssp::Dssp;
use scs_netsim::{CenterTelemetry, RunMetrics};
use scs_telemetry::{
    evaluate_all, lock, Histogram, Json, MetricsSnapshot, SharedAudit, SloSpec, TimeSeries, Tracer,
};
use std::path::PathBuf;

/// Bumped whenever the report layout changes incompatibly. The `regress`
/// gate refuses to diff reports whose version differs from its own —
/// regenerate stale baselines instead of comparing mismatched shapes.
///
/// History: 1 = initial versioned schema; 2 = freshness-plane entries
/// (`freshness.points` curves from the provenance log); 3 = leakage
/// audit plane (`dssp.leakage` ledgers) and `frontier` entries; 4 =
/// durable home tier (`failover` entries: unavailability windows,
/// acked-write durability ledger, fencing counters); 5 = host timing
/// (`total_ns`, `critical_phase`) out of `dssp.spans.critical_path` —
/// every remaining leaf is deterministic per seed.
pub const SCHEMA_VERSION: u64 = 5;

/// Environment variable overriding the output path of
/// [`write_telemetry`].
pub const TELEMETRY_OUT_ENV: &str = "SCS_TELEMETRY_OUT";

/// Summary of a latency histogram: count/mean/extremes plus nearest-rank
/// quantiles as `[lo, hi]` bucket bounds (the true sample lies within).
pub fn histogram_json(h: &Histogram) -> Json {
    let bounds = |q: f64| -> Json {
        h.quantile_bounds(q)
            .map(|(lo, hi)| Json::from(vec![lo, hi]))
            .into()
    };
    Json::obj([
        ("count", h.count.into()),
        ("mean_us", h.mean().into()),
        ("min_us", h.min.into()),
        ("max_us", h.max.into()),
        ("p50_us", bounds(0.5)),
        ("p90_us", bounds(0.9)),
        ("p99_us", bounds(0.99)),
    ])
}

fn center_json(c: &CenterTelemetry) -> Json {
    Json::obj([
        ("wait", histogram_json(&c.wait)),
        ("service", histogram_json(&c.service)),
    ])
}

/// The simulator's view of one run: load, utilizations, and the
/// queueing-delay vs service-time breakdown per shared center.
pub fn run_metrics_json(m: &RunMetrics) -> Json {
    Json::obj([
        ("users", m.users.into()),
        ("requests_completed", m.requests_completed.into()),
        ("ops_executed", m.ops_executed.into()),
        ("throughput_rps", m.throughput().into()),
        ("hit_rate", m.hit_rate.into()),
        ("dssp_utilization", m.dssp_utilization.into()),
        ("home_utilization", m.home_utilization.into()),
        ("home_link_utilization", m.home_link_utilization.into()),
        ("response", histogram_json(&m.response_hist)),
        ("dssp_cpu", center_json(&m.dssp_cpu_telemetry)),
        ("home_cpu", center_json(&m.home_cpu_telemetry)),
        ("home_link", center_json(&m.home_link_telemetry)),
    ])
}

/// Health of the trace pipeline itself: whether any sink lost events or
/// failed to write. A report whose curves were built from a lossy trace
/// stream must say so.
pub fn trace_health_json(tracer: &Tracer) -> Json {
    Json::obj([
        ("active", tracer.is_active().into()),
        ("events_emitted", tracer.events_emitted().into()),
        ("events_dropped", tracer.events_dropped().into()),
        ("write_errors", tracer.write_errors().into()),
    ])
}

/// The `leakage` report section: what the proxy actually saw. With the
/// audit log the caller attached to `dssp` this is the full ledger
/// summary (per-template and per-tenant reveal counters, journal sink
/// health, the proxy's envelope seal/open meter); without one,
/// `{"enabled": false}` — the plane is inert and there is nothing to
/// report.
pub fn leakage_json(dssp: &Dssp, audit: Option<&SharedAudit>) -> Json {
    let Some(audit) = audit else {
        return Json::obj([("enabled", false.into())]);
    };
    let mut doc = lock(audit).summary_json();
    let crypto: Json = dssp
        .crypto_meter()
        .map(|m| {
            Json::obj([
                ("seals", m.seals().into()),
                ("seal_bytes", m.seal_bytes().into()),
                ("opens", m.opens().into()),
                ("open_bytes", m.open_bytes().into()),
            ])
        })
        .into();
    if let Json::Obj(kv) = &mut doc {
        kv.push(("crypto".to_string(), crypto));
    }
    doc
}

/// SLO verdicts for one run as a JSON array (see `scs_telemetry::slo`).
pub fn slo_results_json(specs: &[SloSpec], series: &TimeSeries) -> Json {
    Json::from(
        evaluate_all(specs, series)
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<Json>>(),
    )
}

/// The proxy's view: aggregate stats, per-template counters, and the
/// empirical-vs-predicted invalidation attribution, plus the leakage
/// `audit` folded from it, if any.
pub fn dssp_telemetry_json(dssp: &Dssp, audit: Option<&SharedAudit>) -> Json {
    let snap = dssp.metrics();
    let stats = dssp.stats();
    let tally = dssp.tally();
    let ipm = dssp.ipm();
    let counter = |name: String| -> Json { (*snap.counters.get(&name).unwrap_or(&0)).into() };

    // One object per template: its id, then each counter by its suffix.
    let templates = |prefix: &str, count: usize, facts: &[&'static str]| -> Vec<Json> {
        (0..count)
            .map(|id| {
                let mut fields = vec![("id", id.into())];
                fields.extend(
                    facts
                        .iter()
                        .map(|&fact| (fact, counter(format!("{prefix}.{id}.{fact}")))),
                );
                Json::obj(fields)
            })
            .collect()
    };
    let query_templates = templates("query_template", tally.query_templates(), &QUERY_FACTS);
    let update_templates = templates("update_template", tally.update_templates(), &UPDATE_FACTS);

    let predicted_a_zero: Vec<Json> = (0..tally.update_templates())
        .map(|u| {
            Json::from(
                (0..tally.query_templates())
                    .map(|q| ipm.entry(u, q).all_zero())
                    .collect::<Vec<bool>>(),
            )
        })
        .collect();
    let divergence: Vec<Json> = tally
        .divergence(|u, q| ipm.entry(u, q).all_zero())
        .into_iter()
        .map(|(u, q, n)| {
            Json::obj([
                ("update", u.into()),
                ("query", q.into()),
                ("count", n.into()),
            ])
        })
        .collect();

    let scan_hist = snap
        .histograms
        .get("dssp.invalidation_scan_size")
        .cloned()
        .unwrap_or_default();

    Json::obj([
        (
            "stats",
            Json::obj([
                ("queries", stats.queries.into()),
                ("hits", stats.hits.into()),
                ("misses", stats.misses.into()),
                ("updates", stats.updates.into()),
                ("invalidations", stats.invalidations.into()),
                ("entries_scanned", stats.entries_scanned.into()),
                ("evictions", stats.evictions.into()),
                ("hit_rate", stats.hit_rate().into()),
                (
                    "invalidations_per_update",
                    stats.invalidations_per_update().into(),
                ),
            ]),
        ),
        ("query_templates", Json::from(query_templates)),
        ("update_templates", Json::from(update_templates)),
        (
            "attribution",
            Json::obj([
                ("updates_applied", tally.updates_applied().to_vec().into()),
                (
                    "counts",
                    Json::from(
                        tally
                            .invalidation_counts()
                            .into_iter()
                            .map(Json::from)
                            .collect::<Vec<Json>>(),
                    ),
                ),
                ("predicted_a_zero", Json::from(predicted_a_zero)),
                ("divergence", Json::from(divergence)),
            ]),
        ),
        ("invalidation_scan_size", histogram_json(&scan_hist)),
        ("faults", fault_counters_json(&snap)),
        ("trace", trace_health_json(dssp.tracer())),
        ("spans", dssp.spans().summary_json()),
        ("leakage", leakage_json(dssp, audit)),
    ])
}

/// The per-template counters `query_template.<q>.<fact>`, in export
/// order.
pub const QUERY_FACTS: [&str; 4] = ["hits", "misses", "invalidated", "evicted"];

/// The per-template counters `update_template.<u>.<fact>`, in export
/// order.
pub const UPDATE_FACTS: [&str; 2] = ["applied", "invalidations"];

/// The proxy's fault/recovery counters, in export order.
pub const FAULT_COUNTERS: [&str; 9] = [
    "epoch_gaps",
    "recovery_flushes",
    "recovery_flushed_entries",
    "duplicate_invalidations",
    "lease_expirations",
    "home_retries",
    "home_unavailable",
    "degraded_serves",
    "restarts",
];

/// The `dssp.<name>` counter of a proxy (or fleet roll-up) snapshot.
pub fn dssp_counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counters
        .get(&format!("dssp.{name}"))
        .copied()
        .unwrap_or(0)
}

/// Sum of the fault/recovery counters — zero exactly when the run saw
/// no fault handling at all.
pub fn fault_total(m: &MetricsSnapshot) -> u64 {
    FAULT_COUNTERS.iter().map(|n| dssp_counter(m, n)).sum()
}

/// Each named counter as a report field.
fn counter_fields(m: &MetricsSnapshot, names: &[&'static str]) -> Vec<(&'static str, Json)> {
    names
        .iter()
        .map(|&n| (n, dssp_counter(m, n).into()))
        .collect()
}

/// The fault/recovery counters as a report section. All-zero under
/// perfect delivery; chaos runs (`scs-bench chaos`, `EXPERIMENTS.md`)
/// must show nonzero handling here when injection is enabled.
pub fn fault_counters_json(m: &MetricsSnapshot) -> Json {
    let mut fields = counter_fields(m, &FAULT_COUNTERS);
    fields.push(("total", fault_total(m).into()));
    Json::obj(fields)
}

/// One chaos-run entry: the fault schedule, the oracle's staleness
/// verdict, serve/availability accounting, channel-level delivery stats,
/// and the proxy's fault/recovery counters (see `EXPERIMENTS.md`).
pub fn chaos_entry_json(label: &str, cfg: &Scenario, report: &ScenarioReport) -> Json {
    let outage_windows: Vec<Json> = cfg
        .outages
        .iter()
        .map(|&(s, e)| Json::from(vec![s, e]))
        .collect();
    // The chaos SLO: nothing served is ever stale beyond the lease — the
    // single objective the whole fault-tolerance layer exists to meet.
    let slo: Json = report
        .timeseries
        .as_ref()
        .map(|ts| {
            slo_results_json(
                &[SloSpec::counter_at_most(
                    "stale_beyond_lease_zero",
                    "stale_beyond_lease",
                    0,
                )],
                ts,
            )
        })
        .into();
    Json::obj([
        ("config", label.into()),
        ("seed", cfg.seed.into()),
        ("ops", (cfg.ops as u64).into()),
        ("lease_micros", cfg.lease_micros.into()),
        // Every proxy recovers with the affected-templates flush; the key
        // stays in the export's schema.
        ("recovery", "flush_affected".into()),
        ("strategy", cfg.strategy.name().into()),
        ("stale_beyond_lease", report.stale_beyond_lease.into()),
        (
            "max_observed_staleness_micros",
            report.max_observed_staleness_micros.into(),
        ),
        ("queries_served", report.queries_served.into()),
        ("hits", report.hits.into()),
        ("degraded_serves", report.degraded_serves.into()),
        ("queries_unavailable", report.queries_unavailable.into()),
        ("updates_applied", report.updates_applied.into()),
        ("updates_unavailable", report.updates_unavailable.into()),
        ("updates_rejected", report.updates_rejected.into()),
        (
            "channel",
            Json::obj([
                ("sent", report.channel.sent.into()),
                ("dropped", report.channel.dropped.into()),
                ("duplicated", report.channel.duplicated.into()),
                ("delayed", report.channel.delayed.into()),
                ("delivered", report.channel.delivered.into()),
            ]),
        ),
        ("faults", fault_counters_json(&report.metrics)),
        ("outage_windows", Json::from(outage_windows)),
        (
            "timeseries",
            report.timeseries.as_ref().map(TimeSeries::to_json).into(),
        ),
        ("slo", slo),
    ])
}

/// One failover-run entry: the home-tier shape, the promotion record,
/// the unavailability-window accounting, and the durability/freshness
/// oracle verdicts. `goodput_retained` compares serves against the
/// steady single-home run of the same script (`None` for the steady
/// run itself). Keyed `app`/`config` so the regression gate diffs it
/// like any other probe entry; the `regress` detectors
/// `failover_window_rise` and `acked_write_lost` read the `failover`
/// section.
pub fn failover_entry_json(
    label: &str,
    cfg: &Scenario,
    report: &ScenarioReport,
    goodput_retained: Option<f64>,
) -> Json {
    let worst_window = report
        .failovers
        .iter()
        .map(|f| f.unavailable_micros)
        .max()
        .unwrap_or(0);
    // The promotion-latency budget: each failover may cost at most the
    // detection lease plus two heartbeat ticks of slack.
    let window_bound = report.failovers.len() as u64
        * (cfg.replication.lease_micros + 2 * cfg.replication.heartbeat_micros);
    let promotions: Vec<Json> = report
        .failovers
        .iter()
        .map(|f| {
            Json::obj([
                ("at_micros", f.at_micros.into()),
                ("new_term", f.new_term.into()),
                ("barrier_epoch", f.barrier_epoch.into()),
                ("lost_records", f.lost_records.into()),
                ("lost_acked", f.lost_acked.into()),
                ("unavailable_micros", f.unavailable_micros.into()),
            ])
        })
        .collect();
    Json::obj([
        ("app", "toystore".into()),
        ("config", label.into()),
        ("seed", cfg.seed.into()),
        ("ops", (cfg.ops as u64).into()),
        ("lease_micros", cfg.lease_micros.into()),
        ("strategy", cfg.strategy.name().into()),
        ("stale_beyond_lease", report.stale_beyond_lease.into()),
        (
            "max_observed_staleness_micros",
            report.max_observed_staleness_micros.into(),
        ),
        (
            "failover",
            Json::obj([
                ("mode", cfg.replication.mode.name().into()),
                ("standbys", (cfg.replication.standbys as u64).into()),
                ("heartbeat_micros", cfg.replication.heartbeat_micros.into()),
                (
                    "detection_lease_micros",
                    cfg.replication.lease_micros.into(),
                ),
                ("failovers", (report.failovers.len() as u64).into()),
                ("promotions", Json::from(promotions)),
                (
                    "unavailable_micros_total",
                    report.unavailable_micros_total.into(),
                ),
                ("worst_window_micros", worst_window.into()),
                ("window_bound_micros", window_bound.into()),
                ("lost_records", report.lost_records_total.into()),
                ("lost_acked", report.lost_acked_total.into()),
                (
                    "external_lost_acked",
                    report.external_lost_acked_total.into(),
                ),
                ("ledger_consistent", report.ledger_consistent.into()),
                ("durability_ok", report.durability_ok.into()),
                ("conservation_balanced", report.conservation_balanced.into()),
                ("fenced_records", report.fenced_records.into()),
                ("zombie_writes_applied", report.zombie_writes_applied.into()),
                ("divergence_discarded", report.divergence_discarded.into()),
                ("fanout_lost_on_crash", report.fanout_lost_on_crash.into()),
                (
                    "recovery_flushes",
                    report.counter("recovery_flushes").into(),
                ),
                ("failover_stamps", (report.failover_stamps as u64).into()),
                ("queries_served", report.queries_served.into()),
                ("queries_unavailable", report.queries_unavailable.into()),
                ("updates_acked", report.updates_acked.into()),
                (
                    "updates_applied_unacked",
                    report.updates_applied_unacked.into(),
                ),
                ("updates_unavailable", report.updates_unavailable.into()),
                ("goodput_retained", goodput_retained.into()),
                ("final_epoch", report.final_epoch.into()),
            ]),
        ),
        (
            "timeseries",
            report.timeseries.as_ref().map(TimeSeries::to_json).into(),
        ),
    ])
}

/// The overload SLOs evaluated against a run's merged time series:
/// staleness stays lease-bounded no matter how hard the system sheds,
/// the worst 300 ms of the run still completes at least `min_goodput` of
/// what was offered, and completion latency stays deadline-shaped.
pub fn overload_slos(min_goodput: f64, p99_limit_micros: u64) -> Vec<SloSpec> {
    // Three buckets per SLO group, so a single thin bucket at a spike
    // edge can't fail the ratio on noise.
    vec![
        SloSpec::counter_at_most("stale_beyond_lease_zero", "stale_beyond_lease", 0),
        SloSpec::ratio_at_least("goodput_floor", "timely", "offered", min_goodput, 3, 30),
        SloSpec::quantile_at_most(
            "response_p99_bounded",
            "response_us",
            0.99,
            p99_limit_micros,
            3,
        ),
    ]
}

/// The proxy's shed counters, in export order.
pub const SHED_COUNTERS: [&str; 4] = [
    "shed_admission",
    "shed_breaker_open",
    "shed_brownout",
    "shed_queue_full",
];

/// The breaker/brownout/trip counters the overload section exports after
/// the shed counters.
pub const OVERLOAD_COUNTERS: [&str; 8] = [
    "breaker_opens",
    "breaker_half_opens",
    "breaker_closes",
    "brownout_entries",
    "brownout_exits",
    "brownout_serves",
    "home_retries",
    "home_unavailable",
];

/// The proxy's shed/breaker/brownout counters as a report section.
pub fn overload_counters_json(m: &MetricsSnapshot) -> Json {
    let mut fields = counter_fields(m, &SHED_COUNTERS);
    let total: u64 = SHED_COUNTERS.iter().map(|n| dssp_counter(m, n)).sum();
    fields.push(("shed_total", total.into()));
    fields.extend(counter_fields(m, &OVERLOAD_COUNTERS));
    Json::obj(fields)
}

/// One overload-run entry: offered-vs-goodput accounting, the shed and
/// breaker counters, the overload SLO verdicts, and (when recorded) the
/// merged harness + proxy trace curves. Keyed `app`/`config` so the
/// regression gate diffs it like any other probe entry.
pub fn overload_entry_json(label: &str, cfg: &Scenario, report: &ScenarioReport) -> Json {
    // With a scripted total home outage in the run, the worst windows are
    // the outage itself, where goodput is legitimately bounded by the
    // degraded-serve rate: the floor then asserts service *continuity*
    // (brownout keeps serving within-lease hits), not shedding headroom.
    let min_goodput = if cfg.outages.is_empty() { 0.35 } else { 0.05 };
    let (protected, deadline) = cfg
        .home_queue
        .as_ref()
        .map_or((false, 0), |q| (q.protection.is_some(), q.deadline_micros));
    let slo: Json = report
        .timeseries
        .as_ref()
        .map(|ts| slo_results_json(&overload_slos(min_goodput, deadline + deadline / 2), ts))
        .into();
    Json::obj([
        ("app", "toystore".into()),
        ("config", label.into()),
        ("seed", cfg.seed.into()),
        ("ops", (cfg.ops as u64).into()),
        ("protected", protected.into()),
        ("deadline_micros", deadline.into()),
        ("lease_micros", cfg.lease_micros.into()),
        (
            "overload",
            Json::obj([
                ("offered", report.offered().into()),
                ("completed", report.completed().into()),
                ("timely", report.timely.into()),
                ("shed", report.shed.into()),
                ("deadline_missed", report.deadline_missed.into()),
                ("hits", report.hits.into()),
                ("degraded_serves", report.degraded_serves.into()),
                ("unavailable", report.queries_unavailable.into()),
                ("updates_applied", report.updates_applied.into()),
                ("queue_rejections", report.queue_rejections.into()),
                ("offered_rps", report.offered_rps().into()),
                ("goodput_rps", report.goodput_rps().into()),
                ("shed_ratio", report.shed_ratio().into()),
                ("queue_wait_p99_micros", report.queue_wait_p99_micros.into()),
                ("response_p99_micros", report.response_p99_micros.into()),
                ("duration_micros", report.duration_micros.into()),
                ("counters", overload_counters_json(&report.metrics)),
            ]),
        ),
        ("stale_beyond_lease", report.stale_beyond_lease.into()),
        (
            "max_observed_staleness_micros",
            report.max_observed_staleness_micros.into(),
        ),
        (
            "timeseries",
            report.timeseries.as_ref().map(TimeSeries::to_json).into(),
        ),
        ("slo", slo),
    ])
}

/// An offered-load vs goodput curve as a report section: one point per
/// multiplier, with the knee index alongside so readers (and the
/// regression gate's collapse detector) don't have to re-derive it.
pub fn overload_curve_json(label: &str, points: &[CurvePoint]) -> Json {
    let knee = knee_index(points);
    let pts: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("multiplier", p.multiplier.into()),
                ("offered_rps", p.offered_rps.into()),
                ("goodput_rps", p.goodput_rps.into()),
                ("shed_ratio", p.shed_ratio.into()),
                ("p99_response_micros", p.p99_response_micros.into()),
                ("stale_beyond_lease", p.stale_beyond_lease.into()),
            ])
        })
        .collect();
    Json::obj([
        ("label", label.into()),
        ("knee_index", (knee as u64).into()),
        (
            "knee_goodput_rps",
            points.get(knee).map(|p| p.goodput_rps).into(),
        ),
        ("points", Json::from(pts)),
    ])
}

/// One report entry: an (application, configuration) probe run.
pub fn telemetry_entry(
    app: &str,
    config: &str,
    scalability_users: Option<usize>,
    dssp: &Dssp,
    audit: Option<&SharedAudit>,
    metrics: &RunMetrics,
) -> Json {
    Json::obj([
        ("app", app.into()),
        ("config", config.into()),
        ("scalability_users", scalability_users.into()),
        ("sim", run_metrics_json(metrics)),
        ("dssp", dssp_telemetry_json(dssp, audit)),
    ])
}

/// Like [`telemetry_entry`] but for observed runs: merges the proxy's
/// trace-event time series into the simulator's windowed curves (the
/// counter namespaces are disjoint; both series must use the same bucket
/// width), evaluates `slos` against the merged series, and appends the
/// result as `timeseries` / `slo` sections.
#[allow(clippy::too_many_arguments)]
pub fn telemetry_entry_observed(
    app: &str,
    config: &str,
    scalability_users: Option<usize>,
    dssp: &Dssp,
    audit: Option<&SharedAudit>,
    metrics: &RunMetrics,
    proxy_series: Option<&TimeSeries>,
    slos: &[SloSpec],
) -> Json {
    let merged = match (metrics.timeseries.as_ref(), proxy_series) {
        (Some(sim), Some(proxy)) => {
            let mut m = sim.clone();
            m.merge(proxy);
            Some(m)
        }
        (Some(sim), None) => Some(sim.clone()),
        (None, Some(proxy)) => Some(proxy.clone()),
        (None, None) => None,
    };
    let slo: Json = merged.as_ref().map(|ts| slo_results_json(slos, ts)).into();
    Json::obj([
        ("app", app.into()),
        ("config", config.into()),
        ("scalability_users", scalability_users.into()),
        ("sim", run_metrics_json(metrics)),
        ("dssp", dssp_telemetry_json(dssp, audit)),
        (
            "timeseries",
            merged.as_ref().map(TimeSeries::to_json).into(),
        ),
        ("slo", slo),
    ])
}

/// Wraps entries into the versioned top-level document.
pub fn telemetry_report(entries: Vec<Json>) -> Json {
    Json::obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("entries", Json::from(entries)),
    ])
}

/// Writes a report to `default_path` (or `$SCS_TELEMETRY_OUT` when set),
/// pretty-printed; returns the path written.
pub fn write_telemetry(report: &Json, default_path: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(
        std::env::var(TELEMETRY_OUT_ENV).unwrap_or_else(|_| default_path.to_string()),
    );
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = report.render_pretty();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DsspWorkload;
    use crate::gen::IdSpaces;
    use crate::toystore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scs_dssp::StrategyKind;
    use scs_netsim::Workload;
    use scs_storage::Database;

    fn toystore_workload(kind: StrategyKind, seed: u64) -> DsspWorkload {
        let app = toystore::toystore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        toystore::populate(&mut db, 50, 30, &mut rng);
        let mut ids = IdSpaces::default();
        ids.declare("toys", 50);
        ids.declare("customers", 30);
        ids.declare("credit_card", 15);
        let exposures = kind.exposures(app.updates.len(), app.queries.len());
        DsspWorkload::new(&app, db, ids, exposures, 1.0, seed)
    }

    fn drive(w: &mut DsspWorkload, requests: usize) {
        for _ in 0..requests {
            let n = w.begin_request(0);
            for i in 0..n {
                w.execute_op(0, i);
            }
        }
    }

    #[test]
    fn report_round_trips_through_parse() {
        let mut w = toystore_workload(StrategyKind::ViewInspection, 7);
        drive(&mut w, 200);
        let metrics = RunMetrics::default();
        let entry = telemetry_entry("toystore", "MVIS", Some(128), w.dssp(), None, &metrics);
        let report = telemetry_report(vec![entry]);
        let parsed = Json::parse(&report.render_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        let entry = parsed.get("entries").unwrap().index(0).unwrap();
        assert_eq!(entry.get("app").unwrap().as_str(), Some("toystore"));
        assert_eq!(entry.get("scalability_users").unwrap().as_u64(), Some(128));
        let stats = entry.get("dssp").unwrap().get("stats").unwrap();
        let queries = stats.get("queries").unwrap().as_u64().unwrap();
        assert_eq!(queries, w.dssp().stats().queries);
        assert!(queries > 0);
    }

    #[test]
    fn per_template_counts_sum_to_totals() {
        let mut w = toystore_workload(StrategyKind::StatementInspection, 8);
        drive(&mut w, 300);
        let doc = dssp_telemetry_json(w.dssp(), None);
        let stats = w.dssp().stats();
        let sum_field = |list: &str, field: &str| -> u64 {
            doc.get(list)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|t| t.get(field).unwrap().as_u64().unwrap())
                .sum()
        };
        assert_eq!(sum_field("query_templates", "hits"), stats.hits);
        assert_eq!(sum_field("query_templates", "misses"), stats.misses);
        assert_eq!(sum_field("update_templates", "applied"), stats.updates);
        assert_eq!(
            sum_field("update_templates", "invalidations"),
            stats.invalidations
        );
    }

    #[test]
    fn empirical_attribution_matches_ipm_on_toystore() {
        // Under any template-informed strategy (MTIS and up), pairs the
        // static analysis characterizes as A=0 must never invalidate at
        // runtime — the report's divergence list stays empty.
        for kind in [
            StrategyKind::TemplateInspection,
            StrategyKind::StatementInspection,
            StrategyKind::ViewInspection,
        ] {
            let mut w = toystore_workload(kind, 9);
            drive(&mut w, 500);
            assert!(w.dssp().stats().invalidations > 0, "{kind:?}: no traffic");
            let doc = dssp_telemetry_json(w.dssp(), None);
            let attribution = doc.get("attribution").unwrap();
            let divergence = attribution.get("divergence").unwrap().as_arr().unwrap();
            assert!(
                divergence.is_empty(),
                "{kind:?}: A=0 pairs invalidated at runtime: {divergence:?}"
            );
        }
    }

    /// Every counter name a report or scenario reads is one the proxy
    /// exports, so a renamed counter fails here instead of reading 0.
    #[test]
    fn every_counter_name_read_is_exported() {
        let w = toystore_workload(StrategyKind::ViewInspection, 3);
        let (metrics, tally) = (w.dssp().metrics(), w.dssp().tally());
        let mut read: Vec<String> = Vec::new();
        for q in 0..tally.query_templates() {
            read.extend(
                QUERY_FACTS
                    .iter()
                    .map(|f| format!("query_template.{q}.{f}")),
            );
        }
        for u in 0..tally.update_templates() {
            read.extend(
                UPDATE_FACTS
                    .iter()
                    .map(|f| format!("update_template.{u}.{f}")),
            );
        }
        let fanout = ["fanout_batches_applied", "fanout_batch_msgs"];
        let totals = [
            &FAULT_COUNTERS[..],
            &SHED_COUNTERS,
            &OVERLOAD_COUNTERS,
            &fanout,
        ];
        read.extend(totals.concat().iter().map(|n| format!("dssp.{n}")));
        assert!(tally.query_templates() > 0 && tally.update_templates() > 0);
        let missing: Vec<&String> = read
            .iter()
            .filter(|n| !metrics.counters.contains_key(*n))
            .collect();
        assert!(missing.is_empty(), "read but never exported: {missing:?}");
        assert!(metrics
            .histograms
            .contains_key("dssp.invalidation_scan_size"));
    }

    #[test]
    fn fault_section_is_all_zero_under_perfect_delivery() {
        let mut w = toystore_workload(StrategyKind::ViewInspection, 13);
        drive(&mut w, 200);
        let doc = dssp_telemetry_json(w.dssp(), None);
        let faults = doc.get("faults").unwrap();
        for key in [
            "epoch_gaps",
            "recovery_flushes",
            "duplicate_invalidations",
            "lease_expirations",
            "home_retries",
            "home_unavailable",
            "degraded_serves",
            "restarts",
            "total",
        ] {
            assert_eq!(faults.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn fault_section_reflects_chaos_counters() {
        let report = Scenario::chaotic(23, 800).run();
        let doc = fault_counters_json(&report.metrics);
        let total = fault_total(&report.metrics);
        assert_eq!(doc.get("total").unwrap().as_u64(), Some(total));
        assert!(total > 0, "chaos run recorded no faults");
    }

    #[test]
    fn observed_entry_merges_curves_and_reports_slo_verdicts() {
        let mut w = toystore_workload(StrategyKind::ViewInspection, 11);
        let series = w.attach_observatory(scs_netsim::SEC);
        drive(&mut w, 300);
        assert!(w.dssp().stats().hits > 0, "fixture produced no hits");

        // Derive a per-window `queries` denominator for the hit-rate SLO.
        let mut proxy = lock(&series).clone();
        let totals: Vec<(u64, u64)> = proxy
            .windows()
            .iter()
            .map(|win| {
                (
                    win.start_micros,
                    win.counter("query_hit") + win.counter("query_miss"),
                )
            })
            .collect();
        for (start, n) in totals {
            proxy.add(start, "queries", n);
        }

        let mut metrics = RunMetrics::default();
        let mut sim = TimeSeries::new(scs_netsim::SEC);
        sim.incr(0, "requests");
        metrics.timeseries = Some(sim);

        let slos = [
            SloSpec::ratio_at_least("hit_rate_floor", "query_hit", "queries", 0.01, 1, 10),
            SloSpec::counter_at_most("no_misses_ever", "query_miss", 0), // must fail
        ];
        let entry = telemetry_entry_observed(
            "toystore",
            "MVIS",
            None,
            w.dssp(),
            None,
            &metrics,
            Some(&proxy),
            &slos,
        );
        let parsed = Json::parse(&entry.render_pretty()).unwrap();

        // The merged series carries sim and proxy counters side by side.
        let w0 = parsed
            .get("timeseries")
            .unwrap()
            .get("windows")
            .unwrap()
            .index(0)
            .unwrap();
        let counters = w0.get("counters").unwrap();
        assert!(counters.get("requests").is_some(), "sim counter missing");
        assert!(
            counters.get("query_miss").is_some(),
            "proxy counter missing"
        );

        let slo = parsed.get("slo").unwrap().as_arr().unwrap();
        assert_eq!(slo.len(), 2);
        assert_eq!(slo[0].get("passed").unwrap().as_bool(), Some(true));
        assert_eq!(slo[1].get("passed").unwrap().as_bool(), Some(false));

        // Trace health and span summary ride along under `dssp`.
        let dssp = parsed.get("dssp").unwrap();
        let emitted = dssp.get("trace").unwrap().get("events_emitted").unwrap();
        assert!(emitted.as_u64().unwrap() > 0);
        assert!(dssp.get("spans").unwrap().get("enabled").is_some());
    }

    #[test]
    fn chaos_entry_exports_outage_curves_and_slo() {
        let cfg = Scenario::outage_demo(7, 1_500);
        let report = cfg.run();
        let doc = chaos_entry_json("outage_demo", &cfg, &report);
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        let windows = parsed.get("outage_windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), cfg.outages.len());
        assert!(!windows.is_empty());
        let ts = parsed.get("timeseries").unwrap();
        assert_eq!(ts.get("width_us").unwrap().as_u64(), cfg.bucket_micros);
        let slo = parsed.get("slo").unwrap().as_arr().unwrap();
        assert_eq!(
            slo[0].get("name").unwrap().as_str(),
            Some("stale_beyond_lease_zero")
        );
        assert_eq!(slo[0].get("passed").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn histogram_json_reports_quantile_bounds() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let doc = histogram_json(&h);
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(1000));
        let p90 = doc.get("p90_us").unwrap().as_arr().unwrap();
        let (lo, hi) = (p90[0].as_u64().unwrap(), p90[1].as_u64().unwrap());
        assert!(lo <= 900 && 900 <= hi, "p90 bounds [{lo}, {hi}]");
        // Empty histograms render null quantiles but still parse.
        let empty = histogram_json(&Histogram::default());
        assert!(empty.get("p50_us").unwrap().as_arr().is_none());
    }
}
