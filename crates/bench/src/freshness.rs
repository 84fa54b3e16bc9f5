//! The freshness probe: propagation-lag, staleness-age-at-serve, and
//! fanout-amplification curves across fleet sizes, under a clean and a
//! chaotic invalidation-pipe schedule.
//!
//! Each point drives the auction benchmark through a [`ProxyFleet`]
//! with the freshness plane enabled
//! ([`scs_dssp::ProxyFleet::enable_provenance`]): the home server
//! stamps every commit, the fanout layer stamps every batch flush and
//! pipe send, and each replica stamps arrivals, invalidations, stores,
//! and serves. From those stamps the probe reads per-replica
//! commit→coverage lag (p99), staleness age at serve (p99), the
//! conservation balance (no epoch lost or double-counted), and
//! per-update fanout amplification (bytes shipped per logical update).
//!
//! The text ends with an **explain demo**: a single-replica chaos run
//! whose provenance log answers "why was request X served at age t" /
//! "why did request Y miss" as causal chains (commit → flush → send →
//! deliver → invalidate → miss/serve).
//!
//! Modes: `--full` runs longer windows and more users, for local
//! investigation; anything else is the committed baseline's fidelity.
//!
//! [`ProxyFleet`]: scs_dssp::ProxyFleet

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{BenchApp, Scenario};
use scs_dssp::{FanoutConfig, FleetConfig, RoutingMode, StrategyKind};
use scs_netsim::{FaultSpec, SimConfig, SystemSpec, MS, SEC};
use scs_telemetry::Json;

/// DSSP replica counts swept per schedule.
pub const PROXY_COUNTS: &[usize] = &[1, 2, 4];

/// The canonical probe seed (shared with the committed baseline).
pub const SEED: u64 = 29;

/// Staleness lease on every replica's cache entries (µs). The
/// stale-age-at-serve distribution must stay strictly inside this.
pub const LEASE_MICROS: u64 = 250 * MS;

/// Same routing as the fleet probe: a template's working set lives on
/// exactly one replica, so serves are warm and the staleness signal is
/// not drowned in cold misses.
pub const ROUTING: RoutingMode = RoutingMode::HashByTemplate;

/// The probe's strategy. View inspection keeps the caches populated —
/// maximal exposure of entries to staleness, which is what the plane
/// exists to measure.
pub const STRATEGY: StrategyKind = StrategyKind::ViewInspection;

/// Fanout cadence: small batches with a short linger, so batching (and
/// its coalescing) is exercised without dominating the lag signal.
pub fn fanout() -> FanoutConfig {
    FanoutConfig::batched(8, 5 * MS)
}

/// The clean schedule: reliable pipes with a fixed 1 ms wire latency.
/// Propagation lag is then batching linger + wire time.
pub fn clean_pipes() -> FaultSpec {
    FaultSpec {
        base_latency_micros: MS,
        ..FaultSpec::none()
    }
}

/// The chaotic schedule: the same wire plus drops (recovered via epoch
/// gaps), duplicates, and heavy-tailed delays up to 20 ms. Lag p99 must
/// sit above the clean schedule's; staleness stays lease-bounded.
pub fn chaos_pipes() -> FaultSpec {
    FaultSpec {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        delay_probability: 0.30,
        max_delay_micros: 20 * MS,
        base_latency_micros: MS,
    }
}

/// Probe sizes: simulated run length and closed-loop user count.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub duration_secs: u64,
    pub warmup_secs: u64,
    pub users: usize,
}

impl Sizes {
    fn of(mode: Mode) -> Sizes {
        match mode {
            Mode::Smoke | Mode::Quick => Sizes {
                duration_secs: 30,
                warmup_secs: 5,
                users: 120,
            },
            Mode::Full => Sizes {
                duration_secs: 120,
                warmup_secs: 10,
                users: 200,
            },
        }
    }
}

/// One fleet size's freshness summary under one pipe schedule.
#[derive(Debug, Clone)]
pub struct FreshnessPoint {
    pub proxies: usize,
    /// Worst per-replica commit→coverage lag p99 (µs).
    pub lag_p99_us: u64,
    /// Worst per-replica staleness-age-at-serve p99 (µs).
    pub stale_age_p99_us: u64,
    /// Epochs whose lag was measured (hist sample count, fleet-wide).
    pub lag_samples: u64,
    pub serves: u64,
    pub stale_within_lease: u64,
    /// Serves older than the lease — must be zero (the lease gate rules
    /// them out; a nonzero count is a consistency bug).
    pub stale_beyond_lease: u64,
    /// Every replica's epoch conservation balanced after drain.
    pub conservation_balanced: bool,
    /// Logical updates committed at the home.
    pub updates: u64,
    /// Bytes shipped across all pipes (payload × pipes, post-coalesce).
    pub fanout_bytes: u64,
    /// Cache entries scanned by invalidation passes, fleet-wide.
    pub scanned: u64,
}

impl FreshnessPoint {
    pub fn bytes_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.fanout_bytes as f64 / self.updates as f64
        }
    }

    pub fn scanned_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.scanned as f64 / self.updates as f64
        }
    }
}

/// One pipe schedule's curve over [`PROXY_COUNTS`].
pub struct FreshnessCurve {
    /// `"clean"` or `"chaos"`.
    pub schedule: &'static str,
    pub points: Vec<FreshnessPoint>,
}

/// Runs one fleet-size point under one pipe schedule and reads the
/// freshness plane back out.
pub fn run_point(proxies: usize, spec: &FaultSpec, sizes: Sizes, seed: u64) -> FreshnessPoint {
    let app = BenchApp::Auction;
    let def = app.def();
    let exposures = STRATEGY.exposures(def.updates.len(), def.queries.len());
    let fleet_cfg = FleetConfig {
        proxies,
        routing: ROUTING,
        fanout: fanout(),
        pipe_spec: spec.clone(),
        pipe_seed: seed ^ 0x7069_7065, // "pipe"
    };
    let mut w = app.fleet_workload(exposures, fleet_cfg, seed);
    w.fleet_mut().enable_provenance();
    w.fleet_mut().set_lease_micros(Some(LEASE_MICROS));
    let cfg = SimConfig {
        users: sizes.users,
        duration: sizes.duration_secs * SEC,
        warmup: sizes.warmup_secs * SEC,
        think_mean: SEC,
        seed,
        spec: SystemSpec::with_dssp_nodes(proxies),
    };
    scs_netsim::run(&cfg, &mut w);
    w.fleet_mut().drain();

    let prov = w
        .fleet()
        .provenance()
        .expect("probe enabled the plane")
        .clone();
    let p = prov.lock().unwrap();
    let mut point = FreshnessPoint {
        proxies,
        lag_p99_us: 0,
        stale_age_p99_us: 0,
        lag_samples: 0,
        serves: 0,
        stale_within_lease: 0,
        stale_beyond_lease: 0,
        conservation_balanced: true,
        updates: 0,
        fanout_bytes: 0,
        scanned: 0,
    };
    for r in 0..proxies {
        point.lag_p99_us = point.lag_p99_us.max(p.lag_p99(r));
        point.stale_age_p99_us = point.stale_age_p99_us.max(p.stale_age_p99(r));
        let rl = p.replica(r);
        point.lag_samples += rl.lag.count;
        point.serves += rl.serves;
        point.stale_within_lease += rl.stale_within_lease;
        point.stale_beyond_lease += rl.stale_beyond_lease;
        let cons = p.conservation_on(r, 0, w.fleet().proxy(r).epoch());
        point.conservation_balanced &= cons.balanced();
    }
    for amp in p.amplification() {
        point.updates += amp.updates;
        point.fanout_bytes += amp.fanout_bytes;
        point.scanned += amp.scanned;
    }
    point
}

/// Sweeps [`PROXY_COUNTS`] for the clean and chaotic pipe schedules,
/// evaluates the acceptance checks, and assembles entries and text.
pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let (sizes, seed) = (Sizes::of(mode), seed.unwrap_or(SEED));
    let schedules: [(&'static str, FaultSpec); 2] =
        [("clean", clean_pipes()), ("chaos", chaos_pipes())];
    let mut curves = Vec::new();
    for (schedule, spec) in &schedules {
        let points = PROXY_COUNTS
            .iter()
            .map(|&n| run_point(n, spec, sizes, seed))
            .collect();
        curves.push(FreshnessCurve { schedule, points });
    }

    let mut failures = Vec::new();
    for curve in &curves {
        check_curve(curve, &mut failures);
    }
    // Chaos delays must show up in the lag distribution: at every fleet
    // size the chaotic p99 sits at or above the clean one.
    let (clean, chaos) = (&curves[0], &curves[1]);
    for (c, x) in clean.points.iter().zip(&chaos.points) {
        if x.lag_p99_us < c.lag_p99_us {
            failures.push(format!(
                "{} proxies: chaos lag p99 {}us below clean {}us",
                c.proxies, x.lag_p99_us, c.lag_p99_us
            ));
        }
    }

    let mut text = String::new();
    outln!(
        text,
        "Freshness — propagation lag / staleness age / amplification (auction)"
    );
    outln!(
        text,
        "(proxy counts {PROXY_COUNTS:?}; lease {} ms; {} users for {} s; seed {seed})\n",
        LEASE_MICROS / 1_000,
        sizes.users,
        sizes.duration_secs
    );
    let mut table = TextTable::new(&[
        "Schedule",
        "Proxies",
        "Lag p99 (us)",
        "Stale-age p99 (us)",
        "Serves",
        "Stale<=lease",
        "Beyond",
        "Bytes/update",
    ]);
    for curve in &curves {
        for p in &curve.points {
            table.row(&[
                curve.schedule.to_string(),
                p.proxies.to_string(),
                p.lag_p99_us.to_string(),
                p.stale_age_p99_us.to_string(),
                p.serves.to_string(),
                p.stale_within_lease.to_string(),
                p.stale_beyond_lease.to_string(),
                format!("{:.0}", p.bytes_per_update()),
            ]);
        }
    }
    outln!(text, "{}", table.render());
    outln!(
        text,
        "Shape: chaos lag p99 >= clean at every fleet size; staleness"
    );
    outln!(
        text,
        "stays strictly inside the lease; conservation balances.\n"
    );
    explain_demo(&mut text);

    ProbeRun {
        entries: curves
            .iter()
            .map(|c| curve_entry(BenchApp::Auction, c, seed))
            .collect(),
        failures,
        text,
    }
}

/// Runs a single-replica chaos scenario and renders one causal chain of
/// each kind the explain engine can produce.
fn explain_demo(text: &mut String) {
    outln!(text, "Explain demo — chaotic single-proxy run, seed 17:");
    let report = Scenario::chaotic(17, 1_500).run();
    let p = report.provenance.lock().unwrap();
    let rl = p.replica(0);

    // The most interesting serve: the one with the largest stale age.
    if let Some(ev) = rl
        .serve_events()
        .iter()
        .filter(|e| e.pending_epoch.is_some())
        .max_by_key(|e| e.age_micros)
    {
        if let Some(doc) = p.explain_serve(0, ev.query_template, ev.at_micros) {
            outln!(
                text,
                "\nwhy-age-t (stalest serve):\n{}",
                doc.render_pretty()
            );
        }
    }
    // The first post-invalidation miss.
    if let Some(ev) = rl.miss_events().iter().find(|e| !e.expired) {
        if let Some(doc) = p.explain_miss(0, ev.query_template, ev.at_micros) {
            outln!(text, "\nwhy-miss:\n{}", doc.render_pretty());
        }
    }
    // A degraded serve, when the outage schedule produced one.
    if let Some(ev) = rl.degraded_events().first() {
        if let Some(doc) = p.explain_degraded(0, ev.query_template, ev.at_micros) {
            outln!(text, "\nwhy-degraded:\n{}", doc.render_pretty());
        }
    }
}

/// Per-curve acceptance checks: the lease bound holds everywhere, the
/// conservation ledger balances, and every point actually measured
/// something.
fn check_curve(curve: &FreshnessCurve, failures: &mut Vec<String>) {
    let s = curve.schedule;
    for p in &curve.points {
        if p.stale_beyond_lease > 0 {
            failures.push(format!(
                "{s}/{} proxies: {} serves stale beyond the lease",
                p.proxies, p.stale_beyond_lease
            ));
        }
        if !p.conservation_balanced {
            failures.push(format!(
                "{s}/{} proxies: epoch conservation does not balance",
                p.proxies
            ));
        }
        if p.lag_samples == 0 {
            failures.push(format!(
                "{s}/{} proxies: no propagation-lag samples recorded",
                p.proxies
            ));
        }
        if p.serves == 0 {
            failures.push(format!("{s}/{} proxies: no serves recorded", p.proxies));
        }
        if p.updates == 0 || p.fanout_bytes == 0 {
            failures.push(format!(
                "{s}/{} proxies: no amplification recorded",
                p.proxies
            ));
        }
    }
}

/// The report entry the regression gate diffs: one schedule's
/// proxies→freshness curve plus enough context to reproduce it.
fn curve_entry(app: BenchApp, curve: &FreshnessCurve, seed: u64) -> Json {
    let points: Vec<Json> = curve
        .points
        .iter()
        .map(|p| {
            Json::obj([
                ("proxies", (p.proxies as u64).into()),
                ("lag_p99_us", p.lag_p99_us.into()),
                ("stale_age_p99_us", p.stale_age_p99_us.into()),
                ("lag_samples", p.lag_samples.into()),
                ("serves", p.serves.into()),
                ("stale_within_lease", p.stale_within_lease.into()),
                ("stale_beyond_lease", p.stale_beyond_lease.into()),
                ("conservation_balanced", p.conservation_balanced.into()),
                ("updates", p.updates.into()),
                ("fanout_bytes", p.fanout_bytes.into()),
                ("bytes_per_update", p.bytes_per_update().into()),
                ("scanned_per_update", p.scanned_per_update().into()),
            ])
        })
        .collect();
    Json::obj([
        ("app", app.name().into()),
        (
            "config",
            format!("freshness_{}_{}", STRATEGY.name(), curve.schedule).into(),
        ),
        ("seed", seed.into()),
        ("routing", ROUTING.name().into()),
        ("strategy", STRATEGY.name().into()),
        ("lease_micros", LEASE_MICROS.into()),
        ("freshness", Json::obj([("points", Json::Arr(points))])),
    ])
}
