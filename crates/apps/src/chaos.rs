//! Deterministic chaos harness: drives the toystore application through
//! the DSSP's request pipeline under a seeded fault schedule and checks
//! every served result against the ground-truth oracle of
//! [`crate::tally`].
//!
//! With all faults disabled the harness reduces to the classic synchronous
//! pipeline: [`run_classic`] executes the same script through
//! `execute_query` / `execute_update`, and the chaos tests assert the two
//! produce identical response sequences.

use crate::driver::analysis_matrix;
use crate::gen::{IdSpaces, ParamGen};
pub use crate::tally::OpOutcome;
use crate::tally::{ScriptOp, Tally};
use crate::toystore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_dssp::{
    Dssp, DsspConfig, FtUpdateOutcome, HomeLink, HomeServer, InvalidationMsg, OverloadConfig,
    RetryPolicy, StrategyKind,
};
use scs_netsim::{ChannelStats, FaultSpec, FaultyChannel, OutageSchedule, Time, MS, SEC};
use scs_sqlkit::{Query, Update, UpdateTemplate};
use scs_storage::Database;
use scs_telemetry::{shared_provenance, FlushTrigger, SharedProvenance, TimeSeries};
use std::sync::Arc;

/// Mean up/down durations for the proxy ↔ home link.
#[derive(Debug, Clone, Copy)]
pub struct OutageSpec {
    pub mean_up_micros: Time,
    pub mean_down_micros: Time,
}

/// One chaos scenario: a seed, an op budget, and the fault surfaces.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds the op script, the channel faults, the outage schedule, and
    /// the crash schedule (domain-separated internally).
    pub seed: u64,
    /// Operations to run.
    pub ops: usize,
    /// Simulated time between consecutive operations (µs).
    pub op_spacing_micros: Time,
    /// Staleness lease on cache entries; `None` = never expire.
    pub lease_micros: Option<u64>,
    pub strategy: StrategyKind,
    /// Faults on the home → proxy invalidation stream.
    pub channel_faults: FaultSpec,
    /// Outage windows on the proxy ↔ home link (`None` = always up).
    pub outage: Option<OutageSpec>,
    /// Explicit `[start, end)` outage windows; when set, overrides the
    /// randomized `outage` schedule. Lets a scenario place the dip
    /// exactly where a test (or a figure) wants it.
    pub scripted_outages: Option<Vec<(Time, Time)>>,
    /// Mean interval between proxy crash/restarts (`None` = never).
    pub crash_mean_interval_micros: Option<Time>,
    pub retry: RetryPolicy,
    /// When set, [`run_chaos`] records per-op outcome counters into a
    /// sim-time [`TimeSeries`] with this bucket width — the outage-dip /
    /// recovery curves exported by the `chaos` binary.
    pub timeseries_bucket_micros: Option<Time>,
}

impl ChaosConfig {
    /// All fault surfaces disabled: the run must be byte-identical to
    /// [`run_classic`] on the same seed.
    pub fn faultless(seed: u64, ops: usize) -> ChaosConfig {
        ChaosConfig {
            seed,
            ops,
            op_spacing_micros: MS,
            lease_micros: None,
            strategy: StrategyKind::ViewInspection,
            channel_faults: FaultSpec::none(),
            outage: None,
            scripted_outages: None,
            crash_mean_interval_micros: None,
            retry: RetryPolicy::no_retries(),
            timeseries_bucket_micros: None,
        }
    }

    /// Every fault surface enabled at once: lossy delayed duplicating
    /// invalidation stream, link outages, periodic crashes, and a lease
    /// bounding what any of it can cost.
    pub fn chaotic(seed: u64, ops: usize) -> ChaosConfig {
        ChaosConfig {
            lease_micros: Some(250 * MS),
            channel_faults: FaultSpec {
                drop_probability: 0.10,
                duplicate_probability: 0.10,
                delay_probability: 0.30,
                max_delay_micros: 40 * MS,
                base_latency_micros: MS,
            },
            outage: Some(OutageSpec {
                mean_up_micros: 2 * SEC,
                mean_down_micros: 100 * MS,
            }),
            crash_mean_interval_micros: Some(400 * MS),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_micros: 5 * MS,
                max_backoff_micros: 40 * MS,
                timeout_micros: 100 * MS,
                jitter: false,
            },
            ..ChaosConfig::faultless(seed, ops)
        }
    }

    /// The observability demo: a clean run except for two scripted link
    /// outages, recorded into 100 ms time-series buckets. The exported
    /// curves must show the throughput dip, the degraded-serve spike
    /// while leased hits outlive the outage, and full recovery after the
    /// link returns (the acceptance scenario in `EXPERIMENTS.md`).
    pub fn outage_demo(seed: u64, ops: usize) -> ChaosConfig {
        ChaosConfig {
            lease_micros: Some(200 * MS),
            scripted_outages: Some(vec![(SEC, SEC + 500 * MS), (2 * SEC + 500 * MS, 3 * SEC)]),
            timeseries_bucket_micros: Some(100 * MS),
            ..ChaosConfig::faultless(seed, ops)
        }
    }
}

/// The proxy's fault/recovery counters, read back from its registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    pub epoch_gaps: u64,
    pub recovery_flushes: u64,
    pub recovery_flushed_entries: u64,
    pub duplicate_invalidations: u64,
    pub lease_expirations: u64,
    pub home_retries: u64,
    pub home_unavailable: u64,
    pub degraded_serves: u64,
    pub restarts: u64,
}

impl FaultCounters {
    pub fn from_dssp(dssp: &Dssp) -> FaultCounters {
        let reg = dssp.registry();
        FaultCounters {
            epoch_gaps: reg.counter_value("dssp.epoch_gaps"),
            recovery_flushes: reg.counter_value("dssp.recovery_flushes"),
            recovery_flushed_entries: reg.counter_value("dssp.recovery_flushed_entries"),
            duplicate_invalidations: reg.counter_value("dssp.duplicate_invalidations"),
            lease_expirations: reg.counter_value("dssp.lease_expirations"),
            home_retries: reg.counter_value("dssp.home_retries"),
            home_unavailable: reg.counter_value("dssp.home_unavailable"),
            degraded_serves: reg.counter_value("dssp.degraded_serves"),
            restarts: reg.counter_value("dssp.restarts"),
        }
    }

    /// Sum of every counter — zero exactly when the run saw no fault
    /// handling at all.
    pub fn total(&self) -> u64 {
        self.epoch_gaps
            + self.recovery_flushes
            + self.recovery_flushed_entries
            + self.duplicate_invalidations
            + self.lease_expirations
            + self.home_retries
            + self.home_unavailable
            + self.degraded_serves
            + self.restarts
    }
}

/// What a chaos run observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Per-op outcomes, in script order (the baseline-equivalence unit).
    pub outcomes: Vec<OpOutcome>,
    /// Served results matching **no** master state current within the
    /// lease window — must be zero; anything else is a consistency bug.
    pub stale_beyond_lease: u64,
    /// Worst observed age of any served result (µs): time since the
    /// matched master state was superseded. Bounded by the lease.
    pub max_observed_staleness_micros: u64,
    pub queries_served: u64,
    pub hits: u64,
    pub degraded_serves: u64,
    pub queries_unavailable: u64,
    pub updates_applied: u64,
    pub updates_unavailable: u64,
    pub updates_rejected: u64,
    pub channel: ChannelStats,
    pub counters: FaultCounters,
    /// Per-op outcome counters bucketed by sim time, present when
    /// [`ChaosConfig::timeseries_bucket_micros`] was set. Counter names:
    /// `query_served`, `query_hit`, `degraded_serve`,
    /// `query_unavailable`, `update_applied`, `update_unavailable`,
    /// `update_rejected`, `stale_beyond_lease`; plus a `staleness_us`
    /// histogram of observed (within-lease) staleness.
    pub timeseries: Option<TimeSeries>,
    /// The `[start, end)` link outage windows the run actually used —
    /// exported next to the curves so dips line up with their cause.
    pub outage_windows: Vec<(Time, Time)>,
    /// The freshness plane for the run (single replica 0): commit /
    /// flush / arrival stamps plus the explain engine. `None` for
    /// [`run_classic`] baselines.
    pub provenance: Option<SharedProvenance>,
    /// The oracle's master history timeline: `master_history_micros[e]`
    /// is the sim time at which master epoch `e` became current (index 0
    /// is the initial state at t=0). The provenance plane's commit
    /// stamps must agree with this — the cross-check the freshness
    /// property tests enforce. Empty for [`run_classic`].
    pub master_history_micros: Vec<Time>,
}

impl ChaosReport {
    /// The report of a finished run: what the tally counted, plus the
    /// proxy's fault counters. The fault surfaces only [`run_chaos`] has
    /// keep their defaults.
    fn of(tally: Tally, outcomes: Vec<OpOutcome>, dssp: &Dssp) -> ChaosReport {
        ChaosReport {
            outcomes,
            stale_beyond_lease: tally.stale_beyond_lease,
            max_observed_staleness_micros: tally.max_observed_staleness_micros,
            queries_served: tally.queries_served,
            hits: tally.hits,
            degraded_serves: tally.degraded_serves,
            queries_unavailable: tally.queries_unavailable,
            updates_applied: tally.updates_applied,
            updates_unavailable: tally.updates_unavailable,
            updates_rejected: tally.updates_rejected,
            counters: FaultCounters::from_dssp(dssp),
            timeseries: tally.series,
            ..ChaosReport::default()
        }
    }
}

/// Every curve of the tally (the names [`ChaosReport::timeseries`]
/// documents).
const CURVES: &[&str] = &[
    "query_served",
    "query_hit",
    "degraded_serve",
    "query_unavailable",
    "update_applied",
    "update_unavailable",
    "update_rejected",
    "stale_beyond_lease",
    "staleness_us",
];

/// The bound application: home server, proxy, and the op script.
pub(crate) struct Scenario {
    pub(crate) dssp: Dssp,
    pub(crate) home: HomeServer,
    pub(crate) updates: Vec<Arc<UpdateTemplate>>,
    pub(crate) script: Vec<ScriptOp>,
}

/// The toystore application populated from `seed`, a proxy under
/// `strategy` with the given lease and overload protection, and `ops`
/// scripted operations.
pub(crate) fn build_scenario(
    seed: u64,
    ops: usize,
    strategy: StrategyKind,
    lease_micros: Option<u64>,
    overload: Option<OverloadConfig>,
) -> Scenario {
    let app = toystore::toystore();
    let mut db = Database::new();
    for s in &app.schemas {
        db.create_table(s.clone()).expect("static schema");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706F_7075_6C61_7465); // "populate"
    toystore::populate(&mut db, 50, 30, &mut rng);
    let mut ids = IdSpaces::default();
    ids.declare("toys", 50);
    ids.declare("customers", 30);
    ids.declare("credit_card", 15);

    let matrix = analysis_matrix(&app);
    let exposures = strategy.exposures(app.updates.len(), app.queries.len());
    let dssp = Dssp::new(DsspConfig {
        lease_micros,
        overload,
        ..DsspConfig::new("chaos", exposures, matrix)
    });
    let home = HomeServer::new(db);

    // Bind the whole op script up front so the chaos and classic runs
    // replay the identical statement sequence.
    let (queries, updates) = (app.query_templates(), app.update_templates());
    let mut gen = ParamGen::new(ids, 1.0);
    let mut script_rng = StdRng::seed_from_u64(seed ^ 0x7363_7269_7074); // "script"
    let mut script = Vec::with_capacity(ops);
    let total_weight: u32 = app.requests.iter().map(|r| r.weight).sum();
    while script.len() < ops {
        let mut pick = script_rng.gen_range(0..total_weight);
        let request = app
            .requests
            .iter()
            .find(|r| {
                if pick < r.weight {
                    true
                } else {
                    pick -= r.weight;
                    false
                }
            })
            .expect("weights sum to total");
        for op in &request.ops {
            script.push(match *op {
                crate::defs::Op::Query(tid) => {
                    let params = gen.bind_all(&app.queries[tid].params, &mut script_rng);
                    ScriptOp::Query(
                        Query::bind(tid, queries[tid].clone(), params)
                            .expect("validated definitions"),
                    )
                }
                crate::defs::Op::Update(tid) => {
                    let params = gen.bind_all(&app.updates[tid].params, &mut script_rng);
                    ScriptOp::Update(
                        Update::bind(tid, updates[tid].clone(), params)
                            .expect("validated definitions"),
                    )
                }
            });
        }
    }
    script.truncate(ops);

    Scenario {
        dssp,
        home,
        updates,
        script,
    }
}

/// Runs the request pipeline under `cfg`'s fault schedule.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let mut sc = build_scenario(cfg.seed, cfg.ops, cfg.strategy, cfg.lease_micros, None);
    // Single-replica freshness plane: the home stamps commits, the
    // channel sends are stamped inline (one-message batches), and the
    // proxy stamps arrivals/serves as replica 0.
    let prov = shared_provenance(1);
    sc.home.attach_provenance(prov.clone());
    sc.dssp.attach_provenance(prov.clone(), 0);
    let horizon = (cfg.ops as Time + 2) * cfg.op_spacing_micros;
    let link = match (&cfg.scripted_outages, cfg.outage) {
        (Some(windows), _) => HomeLink::with_outages(windows.clone()),
        (None, Some(o)) => HomeLink::with_outages(OutageSchedule::windows(
            cfg.seed,
            horizon,
            o.mean_up_micros,
            o.mean_down_micros,
        )),
        (None, None) => HomeLink::reliable(),
    };
    let crash_times: Vec<Time> = match cfg.crash_mean_interval_micros {
        Some(mean) => OutageSchedule::crash_times(cfg.seed, horizon, mean),
        None => Vec::new(),
    };
    let mut next_crash = 0usize;
    let mut channel: FaultyChannel<InvalidationMsg> =
        FaultyChannel::new(cfg.seed ^ 0x63_6861_6E6E_656C, cfg.channel_faults.clone()); // "channel"

    let mut tally = Tally::new(
        sc.home.database().clone(),
        cfg.lease_micros,
        cfg.timeseries_bucket_micros,
        CURVES,
    );
    let mut outcomes = Vec::with_capacity(sc.script.len());
    let mut clock: Time = 0;
    for op in &sc.script {
        clock += cfg.op_spacing_micros.max(1); // a zero spacing must not stall the clock
        let now = clock;
        sc.dssp.set_sim_time_micros(now);
        sc.home.set_sim_time_micros(now);
        while next_crash < crash_times.len() && crash_times[next_crash] <= now {
            sc.dssp.restart(sc.home.epoch());
            next_crash += 1;
        }
        for msg in channel.poll(now) {
            sc.dssp.apply_invalidation(&msg);
        }
        let outcome = match op {
            ScriptOp::Query(q) => {
                let resp = sc
                    .dssp
                    .execute_query_ft(q, &mut sc.home, &link, &cfg.retry, None)
                    .expect("toystore queries never error");
                OpOutcome::of_query(resp.outcome)
            }
            ScriptOp::Update(u) => {
                let resp = sc
                    .dssp
                    .execute_update_ft(u, &mut sc.home, &link, &cfg.retry, None);
                let outcome = OpOutcome::of_update(&resp);
                if let Ok(FtUpdateOutcome::Applied { msg, .. }) = resp.map(|r| r.outcome) {
                    tally.master_changed(now, sc.home.database().clone());
                    // The classic chaos channel ships each notification
                    // unbatched: stamp a one-message flush + send so the
                    // plane sees the same flush/send/arrival shape as the
                    // fleet fanout.
                    {
                        let mut p = prov.lock().unwrap();
                        let id = p.note_flush(
                            msg.epoch,
                            msg.epoch,
                            1,
                            0,
                            now,
                            FlushTrigger::Inline,
                            vec![(u.template_id, msg.payload_bytes())],
                        );
                        p.note_send(0, id, now);
                    }
                    channel.send(now, msg);
                }
                outcome
            }
        };
        tally.record(now, op, &outcome);
        outcomes.push(outcome);
        // A zero-latency channel delivers within the same step, which is
        // exactly the classic synchronous pipeline.
        for msg in channel.poll(now) {
            sc.dssp.apply_invalidation(&msg);
        }
    }
    // The stream eventually drains; late messages arrive as duplicates or
    // gaps and must be absorbed cleanly either way.
    for msg in channel.drain() {
        sc.dssp.apply_invalidation(&msg);
    }

    let master_history_micros = tally.master_history_micros();
    ChaosReport {
        channel: channel.stats(),
        outage_windows: link.outages().to_vec(),
        provenance: Some(prov),
        master_history_micros,
        ..ChaosReport::of(tally, outcomes, &sc.dssp)
    }
}

/// Runs the identical script through the classic synchronous pipeline
/// (perfect delivery): the no-fault baseline.
pub fn run_classic(cfg: &ChaosConfig) -> ChaosReport {
    let mut sc = build_scenario(cfg.seed, cfg.ops, cfg.strategy, cfg.lease_micros, None);
    let mut tally = Tally::new(sc.home.database().clone(), cfg.lease_micros, None, CURVES);
    let mut outcomes = Vec::with_capacity(sc.script.len());
    let mut clock: Time = 0;
    for op in &sc.script {
        clock += cfg.op_spacing_micros.max(1); // a zero spacing must not stall the clock
        let now = clock;
        sc.dssp.set_sim_time_micros(now);
        let outcome = match op {
            ScriptOp::Query(q) => {
                let resp = sc
                    .dssp
                    .execute_query(q, &mut sc.home)
                    .expect("toystore queries never error");
                OpOutcome::Query {
                    hit: resp.hit,
                    degraded: false,
                    result: resp.result,
                }
            }
            ScriptOp::Update(u) => match sc.dssp.execute_update(u, &mut sc.home) {
                Ok(_) => {
                    tally.master_changed(now, sc.home.database().clone());
                    OpOutcome::UpdateApplied
                }
                Err(_) => OpOutcome::UpdateRejected,
            },
        };
        tally.record(now, op, &outcome);
        outcomes.push(outcome);
    }
    ChaosReport::of(tally, outcomes, &sc.dssp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_chaos_equals_classic_pipeline() {
        for seed in [1u64, 7, 21] {
            let cfg = ChaosConfig::faultless(seed, 400);
            let chaos = run_chaos(&cfg);
            let classic = run_classic(&cfg);
            assert_eq!(chaos.outcomes, classic.outcomes, "seed {seed}");
            assert_eq!(chaos.counters.total(), 0, "no fault handling occurred");
            assert_eq!(classic.counters.total(), 0);
            assert_eq!(chaos.stale_beyond_lease, 0);
            assert_eq!(chaos.max_observed_staleness_micros, 0);
        }
    }

    #[test]
    fn chaotic_run_exercises_faults_and_keeps_the_lease_bound() {
        let cfg = ChaosConfig::chaotic(17, 1_500);
        let report = run_chaos(&cfg);
        assert_eq!(
            report.stale_beyond_lease, 0,
            "a served result was stale beyond the lease"
        );
        assert!(
            report.max_observed_staleness_micros <= cfg.lease_micros.unwrap(),
            "staleness {} exceeds lease {}",
            report.max_observed_staleness_micros,
            cfg.lease_micros.unwrap()
        );
        assert!(report.channel.dropped > 0, "schedule produced no drops");
        assert!(report.counters.total() > 0, "no fault handling recorded");
        assert!(report.counters.restarts > 0, "no crash/restart happened");
    }

    #[test]
    fn outage_demo_curves_show_dip_spike_and_recovery() {
        let cfg = ChaosConfig::outage_demo(42, 4_000);
        let report = run_chaos(&cfg);
        assert_eq!(report.stale_beyond_lease, 0);
        let ts = report.timeseries.as_ref().expect("demo records a series");
        let windows = &report.outage_windows;
        assert_eq!(windows, cfg.scripted_outages.as_ref().unwrap());

        let width = cfg.timeseries_bucket_micros.unwrap();
        let in_outage = |start: Time| {
            let end = start + width;
            windows.iter().any(|&(s, e)| start < e && s < end)
        };
        let served = ts.counter_curve("query_served");
        let unavailable = ts.counter_curve("query_unavailable");
        let degraded = ts.counter_curve("degraded_serve");
        let starts: Vec<Time> = ts.windows().iter().map(|w| w.start_micros).collect();

        // Unavailability and degraded serves happen only while the link
        // is down; every bucket clear of the outage windows is clean.
        for (i, &start) in starts.iter().enumerate() {
            if !in_outage(start) {
                assert_eq!(unavailable[i], 0, "unavailable outside outage at {start}");
                assert_eq!(degraded[i], 0, "degraded serve outside outage at {start}");
            }
        }
        assert!(
            report.queries_unavailable > 0,
            "outage produced no unavailability at all"
        );
        assert!(
            report.degraded_serves > 0,
            "no leased hit was served while the link was down"
        );

        // The throughput dip: a bucket fully inside the first outage
        // serves strictly less than the bucket just before the outage,
        // and the first bucket after the link returns recovers.
        let (o_start, o_end) = windows[0];
        let bucket_of = |t: Time| starts.iter().position(|&s| s == t).expect("dense buckets");
        let pre = bucket_of(o_start - width);
        let mid = bucket_of(o_start + width); // fully inside the 500 ms window
        let post = bucket_of(o_end);
        assert!(
            served[mid] < served[pre],
            "no dip: served {} mid-outage vs {} before",
            served[mid],
            served[pre]
        );
        assert_eq!(unavailable[post], 0, "unavailability outlived the outage");
        assert!(
            served[post] > served[mid],
            "no recovery: served {} after vs {} during",
            served[post],
            served[mid]
        );
    }

    #[test]
    fn chaos_runs_replay_per_seed() {
        let cfg = ChaosConfig::chaotic(5, 600);
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.channel, b.channel);
        let other = run_chaos(&ChaosConfig::chaotic(6, 600));
        assert_ne!(a.outcomes, other.outcomes, "seed must matter");
    }
}
