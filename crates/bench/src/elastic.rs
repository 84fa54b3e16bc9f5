//! The elastic-fleet probe: a site-wide flash crowd on the auction app,
//! run once autoscaled and once at each bracketing static fleet size.
//!
//! Every variant is the fleet probe's deployment
//! ([`BenchApp::fleet_workload`]: MVIS, hash-by-template routing,
//! [`scs_apps::CostModel::dssp_bound`]) with the freshness plane and a
//! lease switched on as the freshness probe does, and a [`LoadProfile`]
//! on the arrival rate. The autoscaled variant adds an
//! [`AutoscalerConfig`] that grows and shrinks the fleet through the live
//! join/leave path; the static variants keep their size. The probe reads
//! back the SLO verdict, the node-seconds integral (the waste metric),
//! the membership timeline, and the freshness oracle over every replica
//! that ever existed.
//!
//! **The run shape** is derived once from the committed `fleet_MVIS`
//! knees (`scs-bench fleet --smoke`, seed 23, the paper's 7 s think
//! time): [`KNEES`] = 256, 512 and 768 users at 1, 2 and 4 proxies.
//!
//! * The crowd is the 4-proxy knee, [`CROWD_USERS`] = 768 closed-loop
//!   users, 1.5× the 2-proxy knee: inside it every variant runs the
//!   4-proxy knee trial. The midpoint of the 2- and 4-proxy knees would
//!   not do: at 640 users 2 proxies measure p90 ≈ 2 s. Nor would a
//!   smaller population with a shorter think time: a closed loop
//!   throttles itself once responses grow.
//! * The base load, [`BASE_USERS`] = 384 users' worth, is the midpoint
//!   of the 1- and 2-proxy knees. Outside the crowd the profile thins
//!   the arrival rate to 384 / 768. Every request type speeds up alike:
//!   the crowd is site-wide.
//! * The autoscaler ranges over the sizes those knees name, 2 (covers
//!   the base) to 4 (covers the crowd). Its scale-in band is 2/3 of the
//!   scale-out band, so a leave from 3 to 2, which raises each
//!   survivor's share by at most 3/2, cannot land in the scale-out band.
//! * The static bracket is 2 (drowned by the crowd), 4 and 8.
//!
//! The simulator staggers the first requests over one think period, so
//! the first seconds run above the base rate: the autoscaled fleet
//! typically joins once there and leaves again before the crowd.
//!
//! The full bracket is the probe's thesis: static-2 fails the paper SLO,
//! static-4 and static-8 pass it, and the autoscaled fleet passes on
//! fewer node-seconds than either. The 60 s scenario of every other mode
//! (the committed baseline's) gates only the seed-robust facts (the
//! crowd trips a join, the too-small static fails, freshness holds);
//! `--full` (150 s) enforces the bracket, and the `autoscale_slo_flip`
//! detector holds the committed baseline's verdict.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{BenchApp, LoadProfile};
use scs_dssp::{
    AutoscalerConfig, FleetConfig, RoutingMode, ScaleAction, ScaleDecision, StrategyKind,
};
use scs_netsim::{run_observed, RunMetrics, SimConfig, Sla, SystemSpec, Time, SEC};
use scs_telemetry::{lock, Json, TimeSeries};

/// The canonical probe seed (shared with the committed baseline).
pub const SEED: u64 = 7;

/// The committed `fleet_MVIS` knees: max users at 1, 2 and 4 proxies.
pub const KNEES: [usize; 3] = [256, 512, 768];

/// The closed-loop population, all of it active inside the crowd: the
/// 4-proxy knee.
pub const CROWD_USERS: usize = KNEES[2];

/// Users' worth of load outside the crowd: the midpoint of the 1- and
/// 2-proxy knees.
pub const BASE_USERS: usize = (KNEES[0] + KNEES[1]) / 2;

/// Static fleet sizes bracketing the autoscaled run: too small (fails
/// the SLO), the smallest size whose knee covers the crowd, and
/// oversized.
pub const STATIC_SIZES: &[usize] = &[2, 4, 8];

/// Per-entry staleness lease on every replica: long against the think
/// time, so expiry (which the knee trials did not have) moves little
/// load to the home, and short against the run, so the lease oracle
/// spans membership changes.
pub const LEASE_MICROS: u64 = 30 * SEC;

/// Observatory bucket width for the exported time series.
const BUCKET_MICROS: Time = 2 * SEC;

/// The timeline per mode: run length, warmup and the crowd window. The
/// crowd starts 30 % into the run and lasts 60 s (30 s in the 60 s run).
fn shape(mode: Mode) -> (Time, Time, (Time, Time)) {
    match mode {
        Mode::Full => (150 * SEC, 10 * SEC, (45 * SEC, 105 * SEC)),
        Mode::Smoke | Mode::Quick => (60 * SEC, 6 * SEC, (18 * SEC, 48 * SEC)),
    }
}

/// The autoscaler: from the base load's size to the crowd's, the
/// paper's scale-out band and a scale-in band 2/3 of it.
fn policy() -> AutoscalerConfig {
    let mut policy = AutoscalerConfig::paper(2, 4);
    policy.scale_in_util = policy.scale_out_util * 2.0 / 3.0;
    policy
}

/// One probe variant and what its run produced.
struct ElasticVariant {
    /// `"auto"` or `"static{n}"`.
    name: String,
    /// `None` for the autoscaled variant.
    static_size: Option<usize>,
    metrics: RunMetrics,
    p90_micros: Option<Time>,
    slo_ok: bool,
    /// [`scs_apps::FleetWorkload::membership`].
    timeline: Vec<(ScaleDecision, usize)>,
    node_seconds: f64,
    replicas_start: usize,
    replicas_end: usize,
    /// Serves beyond the lease, over every replica that ever existed.
    stale_beyond_lease: u64,
    /// Every replica ledger ever registered balances.
    conservation_balanced: bool,
    /// Membership events journaled on the freshness plane.
    membership_stamps: usize,
}

impl ElasticVariant {
    fn count(&self, action: ScaleAction) -> usize {
        self.timeline
            .iter()
            .filter(|(d, ..)| d.action == action)
            .count()
    }

    fn replicas_peak(&self) -> usize {
        let after = self.timeline.iter().map(|(d, ..)| d.live_after());
        after.fold(self.replicas_start, usize::max)
    }
}

/// Runs one variant: autoscaled from the smallest static size when
/// `static_size` is `None`, pinned otherwise.
fn run_variant(mode: Mode, seed: u64, static_size: Option<usize>) -> ElasticVariant {
    let app = BenchApp::Auction;
    let def = app.def();
    let start = static_size.unwrap_or(STATIC_SIZES[0]);
    let exposures = StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
    let fleet = FleetConfig::reliable(start, RoutingMode::HashByTemplate);
    let (duration, warmup, crowd) = shape(mode);
    let mut load = LoadProfile::constant(BASE_USERS as f64 / CROWD_USERS as f64);
    load.segments
        .extend(LoadProfile::spike(crowd.0, crowd.1, 1.0).segments);
    let mut w = app.fleet_workload(exposures, fleet, seed).with_load(load);
    if static_size.is_none() {
        w = w.with_autoscaler(policy());
    }
    w.fleet_mut().enable_provenance();
    w.fleet_mut().set_lease_micros(Some(LEASE_MICROS));
    let sim = SimConfig {
        duration,
        warmup,
        spec: SystemSpec::with_dssp_nodes(start),
        ..SimConfig::paper(CROWD_USERS, seed)
    };
    let metrics = run_observed(&sim, &mut w, Some(BUCKET_MICROS));
    w.fleet_mut().drain();

    let prov = w.fleet().provenance().expect("enabled above").clone();
    let log = lock(&prov);
    let final_epoch = w.fleet().home().epoch();
    let replicas = 0..log.replica_count();
    let sla = Sla::paper();
    ElasticVariant {
        name: static_size.map_or("auto".to_string(), |n| format!("static{n}")),
        static_size,
        p90_micros: metrics.percentile(sla.quantile),
        slo_ok: sla.met_by(&metrics),
        timeline: w.membership().to_vec(),
        node_seconds: w.node_seconds(duration),
        replicas_start: start,
        replicas_end: w.fleet().len(),
        stale_beyond_lease: replicas
            .clone()
            .map(|r| log.replica(r).stale_beyond_lease)
            .sum(),
        conservation_balanced: replicas
            .into_iter()
            .all(|r| log.conservation_on(r, 0, final_epoch).balanced()),
        membership_stamps: log.membership().len(),
        metrics,
    }
}

/// Runs the autoscaled variant plus every [`STATIC_SIZES`] bracket,
/// evaluates the acceptance checks, and assembles entries and text.
pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let seed = seed.unwrap_or(SEED);
    let variants: Vec<ElasticVariant> = std::iter::once(None)
        .chain(STATIC_SIZES.iter().copied().map(Some))
        .map(|static_size| run_variant(mode, seed, static_size))
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
        "Elastic — site-wide flash crowd on auction: autoscaled fleet vs. static bracket"
    );
    outln!(
        text,
        "({CROWD_USERS} users in the crowd, {BASE_USERS} users' worth outside it; \
         static sizes {STATIC_SIZES:?}; seed {seed}; {} s scenario)\n",
        shape(mode).0 / SEC
    );
    let mut table = TextTable::new(&[
        "Variant",
        "Replicas (start>peak>end)",
        "Joins",
        "Leaves",
        "p90 (ms)",
        "SLO",
        "Node-s",
        "Stale>lease",
        "Balanced",
    ]);
    for v in variants {
        table.row(&[
            v.name.clone(),
            format!(
                "{}>{}>{}",
                v.replicas_start,
                v.replicas_peak(),
                v.replicas_end
            ),
            v.count(ScaleAction::Out).to_string(),
            v.count(ScaleAction::In).to_string(),
            v.p90_micros
                .map_or("-".to_string(), |t| (t / 1_000).to_string()),
            if v.slo_ok { "pass" } else { "FAIL" }.to_string(),
            format!("{:.1}", v.node_seconds),
            v.stale_beyond_lease.to_string(),
            v.conservation_balanced.to_string(),
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
    let auto = &variants[0];
    if !auto.timeline.is_empty() {
        outln!(text, "\nMembership timeline (autoscaled):");
        for (d, replica) in &auto.timeline {
            outln!(
                text,
                "  t={:>5.1}s {:>5} replica {} (live {} after, busiest util {:.2})",
                d.at_micros as f64 / 1e6,
                action_name(d.action),
                replica,
                d.live_after(),
                d.busiest_util
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
        if v.metrics.requests_completed == 0 {
            out.push(format!("{}: no requests completed", v.name));
        }
        if v.stale_beyond_lease > 0 {
            out.push(format!(
                "{}: {} serves stale beyond the lease across membership changes",
                v.name, v.stale_beyond_lease
            ));
        }
        if !v.conservation_balanced {
            out.push(format!(
                "{}: epoch conservation does not balance across membership epochs",
                v.name
            ));
        }
        match v.static_size {
            // A static fleet must never see a membership change.
            Some(n) => {
                if !v.timeline.is_empty() {
                    out.push(format!(
                        "{}: static fleet saw {} membership change(s)",
                        v.name,
                        v.timeline.len()
                    ));
                }
                if v.replicas_end != n {
                    out.push(format!(
                        "{}: ended with {} replicas, expected {n}",
                        v.name, v.replicas_end
                    ));
                }
            }
            // The crowd must trip at least one live join, and each
            // membership change must be journaled on the freshness plane
            // exactly once.
            None => {
                if v.count(ScaleAction::Out) == 0 {
                    out.push(format!(
                        "{}: the flash crowd tripped no scale-out (busiest util {:.2})",
                        v.name, v.metrics.dssp_utilization
                    ));
                }
                if v.replicas_peak() <= v.replicas_start {
                    out.push(format!(
                        "{}: peak fleet {} never exceeded the initial {}",
                        v.name,
                        v.replicas_peak(),
                        v.replicas_start
                    ));
                }
                if v.membership_stamps != v.timeline.len() {
                    out.push(format!(
                        "{}: {} membership stamps journaled for {} changes",
                        v.name,
                        v.membership_stamps,
                        v.timeline.len()
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
    if smallest.slo_ok {
        out.push(format!(
            "{}: too-small static unexpectedly met the SLO (p90 {:?}us)",
            smallest.name, smallest.p90_micros
        ));
    }

    if mode == Mode::Full {
        let auto = &variants[0];
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
            if !v.slo_ok {
                out.push(format!(
                    "{}: bracketing static missed the SLO (p90 {:?}us)",
                    v.name, v.p90_micros
                ));
            }
            if auto.node_seconds >= v.node_seconds {
                out.push(format!(
                    "auto: spent {:.1} node-seconds, not below {}'s {:.1}",
                    auto.node_seconds, v.name, v.node_seconds
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
    let timeline: Vec<Json> = v
        .timeline
        .iter()
        .map(|(d, replica)| {
            Json::obj([
                ("at_us", d.at_micros.into()),
                ("action", action_name(d.action).into()),
                ("replica", (*replica).into()),
                ("live_after", d.live_after().into()),
                ("busiest_util", d.busiest_util.into()),
            ])
        })
        .collect();
    let timeseries = v.metrics.timeseries.clone().map(|mut ts| {
        for (d, _) in &v.timeline {
            let name = match d.action {
                ScaleAction::Out => "fleet_join",
                ScaleAction::In => "fleet_leave",
            };
            ts.add(d.at_micros, name, 1);
        }
        ts
    });
    Json::obj([
        ("app", "auction".into()),
        ("config", format!("elastic_{}", v.name).into()),
        ("seed", seed.into()),
        ("users", v.metrics.users.into()),
        (
            "elastic",
            Json::obj([
                ("autoscaled", v.static_size.is_none().into()),
                ("p90_us", v.p90_micros.into()),
                ("slo_ok", v.slo_ok.into()),
                ("node_seconds", v.node_seconds.into()),
                ("replicas_start", v.replicas_start.into()),
                ("replicas_peak", v.replicas_peak().into()),
                ("replicas_end", v.replicas_end.into()),
                ("joins", v.count(ScaleAction::Out).into()),
                ("leaves", v.count(ScaleAction::In).into()),
                ("stale_beyond_lease", v.stale_beyond_lease.into()),
                ("conservation_balanced", v.conservation_balanced.into()),
                ("membership_stamps", v.membership_stamps.into()),
                ("timeline", Json::Arr(timeline)),
            ]),
        ),
        (
            "timeseries",
            timeseries.as_ref().map(TimeSeries::to_json).into(),
        ),
    ])
}
