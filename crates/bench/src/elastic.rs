//! The elastic-fleet probe: the flash-crowd scenario run once
//! autoscaled and once at each bracketing static fleet size.
//!
//! Each variant drives [`scs_apps::run_elastic`]: a closed-loop
//! population whose think time collapses on one hash-pinned hot
//! template for a scripted window (the flash crowd). The autoscaled
//! variant watches the busiest live replica's windowed utilization and
//! grows/shrinks the fleet through the live join/leave path — state
//! handoff, epoch cursors, atomic ring cutover — while the static
//! variants pin the size for the whole run. The probe reads back the
//! SLO verdict, the node-seconds integral (the waste metric), the
//! membership timeline, and the freshness-plane oracle
//! (stale-beyond-lease and the epoch conservation balance across every
//! replica that ever existed).
//!
//! The full-fidelity bracket is the scenario's thesis: static-2 fails
//! the paper SLO, static-4 (the smallest robustly passing static) and
//! static-8 pass it, and the autoscaled fleet passes while spending
//! fewer node-seconds than either passing static. The 60 s scenario of
//! every other mode (the committed baseline's) keeps only the
//! seed-robust facts as gates (the crowd trips a join, the too-small
//! static fails, freshness holds); the SLO/waste bracket is enforced by
//! `--full` (the 150 s scenario) and, against the committed baseline,
//! by the `autoscale_slo_flip` regression detector.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{run_elastic, ElasticReport, ElasticRunConfig};
use scs_dssp::ScaleAction;
use scs_telemetry::{Json, TimeSeries};

/// The canonical probe seed (shared with the committed baseline).
pub const SEED: u64 = 7;

/// Static fleet sizes bracketing the autoscaled run: too small (fails
/// the SLO), the smallest robustly passing size, and oversized.
pub const STATIC_SIZES: &[usize] = &[2, 4, 8];

/// The flash-crowd configuration for one variant: autoscaled when
/// `static_size` is `None`, pinned otherwise. The sizes are not a
/// user-count knob: they are the two calibrated scenarios in
/// [`ElasticRunConfig`].
fn variant_config(mode: Mode, seed: u64, static_size: Option<usize>) -> ElasticRunConfig {
    let mut cfg = ElasticRunConfig::flash_crowd(seed);
    if mode != Mode::Full {
        cfg = cfg.smoke();
    }
    match static_size {
        Some(n) => cfg.static_fleet(n),
        None => cfg,
    }
}

/// One probe variant and what its run produced.
pub struct ElasticVariant {
    /// `"auto"` or `"static{n}"`.
    pub name: String,
    /// `None` for the autoscaled variant.
    pub static_size: Option<usize>,
    pub report: ElasticReport,
}

/// Runs the autoscaled variant plus every [`STATIC_SIZES`] bracket,
/// evaluates the acceptance checks, and assembles entries and text.
pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let seed = seed.unwrap_or(SEED);
    let variants: Vec<ElasticVariant> = std::iter::once(None)
        .chain(STATIC_SIZES.iter().copied().map(Some))
        .map(|static_size| ElasticVariant {
            name: static_size.map_or("auto".to_string(), |n| format!("static{n}")),
            static_size,
            report: run_elastic(&variant_config(mode, seed, static_size)),
        })
        .collect();

    let mut failures = Vec::new();
    check_variants(&variants, mode, &mut failures);
    ProbeRun {
        entries: variants.iter().map(|v| variant_entry(v, seed)).collect(),
        failures,
        text: render(&variants, mode, seed),
    }
}

fn render(variants: &[ElasticVariant], mode: Mode, seed: u64) -> String {
    let mut text = String::new();
    outln!(
        text,
        "Elastic — flash crowd: autoscaled fleet vs. static bracket"
    );
    outln!(
        text,
        "(static sizes {STATIC_SIZES:?}; seed {seed}; {} s scenario)\n",
        variant_config(mode, seed, None).duration / scs_netsim::SEC
    );
    let mut table = TextTable::new(&[
        "Variant",
        "Replicas (start>peak>end)",
        "Joins",
        "Leaves",
        "Handed",
        "p90 (ms)",
        "SLO",
        "Node-s",
        "Stale>lease",
        "Balanced",
    ]);
    for v in variants {
        let r = &v.report;
        table.row(&[
            v.name.clone(),
            format!(
                "{}>{}>{}",
                r.replicas_start, r.replicas_peak, r.replicas_end
            ),
            r.joins.to_string(),
            r.leaves.to_string(),
            r.handed_entries.to_string(),
            r.p90_micros
                .map_or("-".to_string(), |t| (t / 1_000).to_string()),
            if r.slo_ok { "pass" } else { "FAIL" }.to_string(),
            format!("{:.1}", r.node_seconds),
            r.stale_beyond_lease.to_string(),
            r.conservation_balanced.to_string(),
        ]);
    }
    outln!(text, "{}", table.render());
    outln!(
        text,
        "Shape: the too-small static fails the 2 s p90 SLO; the autoscaled\n\
         fleet joins under the crowd, leaves after it, and (at --full)\n\
         passes the SLO on fewer node-seconds than any passing static.\n\
         Freshness holds across every membership change: zero serves\n\
         beyond the lease, conservation balanced on all replica ledgers."
    );
    let auto = &variants[0].report;
    if !auto.timeline.is_empty() {
        outln!(text, "\nMembership timeline (autoscaled):");
        for c in &auto.timeline {
            outln!(
                text,
                "  t={:>5.1}s {:>5} replica {} (live {} after, busiest util {:.2}, {} entries handed)",
                c.at_micros as f64 / 1e6,
                action_name(c.action),
                c.replica,
                c.live_after,
                c.busiest_util,
                c.handed
            );
        }
    }
    text
}

fn action_name(action: ScaleAction) -> &'static str {
    match action {
        ScaleAction::Out => "join",
        ScaleAction::In => "leave",
    }
}

/// The acceptance checks. Freshness and membership facts gate every
/// mode; the SLO/waste bracket is full-only (the short scenario makes
/// it seed-sensitive — the regression gate holds that line via the
/// committed baseline instead).
fn check_variants(variants: &[ElasticVariant], mode: Mode, out: &mut Vec<String>) {
    for v in variants {
        let r = &v.report;
        if r.metrics.requests_completed == 0 {
            out.push(format!("{}: no requests completed", v.name));
        }
        if r.stale_beyond_lease > 0 {
            out.push(format!(
                "{}: {} serves stale beyond the lease across membership changes",
                v.name, r.stale_beyond_lease
            ));
        }
        if !r.conservation_balanced {
            out.push(format!(
                "{}: epoch conservation does not balance across membership epochs",
                v.name
            ));
        }
        match v.static_size {
            // A static fleet must never see a membership change.
            Some(n) => {
                if !r.timeline.is_empty() {
                    out.push(format!(
                        "{}: static fleet saw {} membership change(s)",
                        v.name,
                        r.timeline.len()
                    ));
                }
                if r.replicas_end != n {
                    out.push(format!(
                        "{}: ended with {} replicas, expected {n}",
                        v.name, r.replicas_end
                    ));
                }
            }
            // The crowd must trip at least one live join, and every
            // membership change must be journaled on the freshness
            // plane.
            None => {
                if r.joins == 0 {
                    out.push(format!(
                        "{}: the flash crowd tripped no scale-out (peak util {:.2})",
                        v.name, r.peak_busiest_util
                    ));
                }
                if r.replicas_peak <= r.replicas_start {
                    out.push(format!(
                        "{}: peak fleet {} never exceeded the initial {}",
                        v.name, r.replicas_peak, r.replicas_start
                    ));
                }
                if r.membership_stamps < r.joins + r.leaves {
                    out.push(format!(
                        "{}: {} membership stamps journaled for {} changes",
                        v.name,
                        r.membership_stamps,
                        r.joins + r.leaves
                    ));
                }
            }
        }
    }

    // Seed-robust in both scenarios: the too-small static drowns.
    let smallest = variants
        .iter()
        .find(|v| v.static_size == Some(STATIC_SIZES[0]))
        .expect("bracket always includes the smallest static");
    if smallest.report.slo_ok {
        out.push(format!(
            "{}: too-small static unexpectedly met the SLO (p90 {:?}us)",
            smallest.name, smallest.report.p90_micros
        ));
    }

    if mode == Mode::Full {
        let auto = &variants[0].report;
        let passing: Vec<&ElasticVariant> = variants
            .iter()
            .filter(|v| v.static_size.is_some_and(|n| n > STATIC_SIZES[0]))
            .collect();
        if !auto.slo_ok {
            out.push(format!(
                "auto: autoscaled fleet missed the SLO (p90 {:?}us)",
                auto.p90_micros
            ));
        }
        for v in passing {
            if !v.report.slo_ok {
                out.push(format!(
                    "{}: bracketing static missed the SLO (p90 {:?}us)",
                    v.name, v.report.p90_micros
                ));
            }
            if auto.node_seconds >= v.report.node_seconds {
                out.push(format!(
                    "auto: spent {:.1} node-seconds, not below {}'s {:.1}",
                    auto.node_seconds, v.name, v.report.node_seconds
                ));
            }
        }
    }
}

/// The report entry the regression gate diffs: the SLO verdict and
/// waste metric under `elastic` (the `autoscale_slo_flip` and
/// `handoff_stale_rise` detectors read them), the membership timeline,
/// and the windowed time series with the membership events merged in
/// as `fleet_join` / `fleet_leave` counters.
fn variant_entry(v: &ElasticVariant, seed: u64) -> Json {
    let r = &v.report;
    let timeline: Vec<Json> = r
        .timeline
        .iter()
        .map(|c| {
            Json::obj([
                ("at_us", c.at_micros.into()),
                ("action", action_name(c.action).into()),
                ("replica", c.replica.into()),
                ("live_after", c.live_after.into()),
                ("busiest_util", c.busiest_util.into()),
                ("handed_entries", c.handed.into()),
            ])
        })
        .collect();
    let timeseries = r.metrics.timeseries.clone().map(|mut ts| {
        for c in &r.timeline {
            let name = match c.action {
                ScaleAction::Out => "fleet_join",
                ScaleAction::In => "fleet_leave",
            };
            ts.add(c.at_micros, name, 1);
        }
        ts
    });
    Json::obj([
        ("app", "flash_crowd".into()),
        ("config", format!("elastic_{}", v.name).into()),
        ("seed", seed.into()),
        ("users", r.metrics.users.into()),
        (
            "elastic",
            Json::obj([
                ("autoscaled", v.static_size.is_none().into()),
                ("p90_us", r.p90_micros.into()),
                ("slo_ok", r.slo_ok.into()),
                ("node_seconds", r.node_seconds.into()),
                ("replicas_start", r.replicas_start.into()),
                ("replicas_peak", r.replicas_peak.into()),
                ("replicas_end", r.replicas_end.into()),
                ("joins", r.joins.into()),
                ("leaves", r.leaves.into()),
                ("handed_entries", r.handed_entries.into()),
                ("peak_busiest_util", r.peak_busiest_util.into()),
                ("stale_beyond_lease", r.stale_beyond_lease.into()),
                ("conservation_balanced", r.conservation_balanced.into()),
                ("membership_stamps", r.membership_stamps.into()),
                ("timeline", Json::Arr(timeline)),
            ]),
        ),
        (
            "timeseries",
            timeseries.as_ref().map(TimeSeries::to_json).into(),
        ),
    ])
}
