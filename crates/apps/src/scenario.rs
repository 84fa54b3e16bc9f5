//! One scripted scenario: the toystore application driven through a
//! [`ProxyFleet`] under a seeded fault schedule, every served result
//! checked by the outcome tally's freshness oracle ([`crate::tally`]) and
//! every commit by an external durability oracle.
//!
//! A [`Scenario`] is a value: the op script (seed, op count, spacing, a
//! [`LoadProfile`]), the proxies' lease and strategy, the fleet shape
//! (replicas, home replication, fanout, pipe faults), the link's outage
//! windows, one list of failure injections ([`CrashEvent`]: proxy
//! restarts and home-tier crash/partition/zombie/rejoin/standby events),
//! the retry policy, an optional bounded home queue ([`HomeQueue`]) and
//! the curve bucket. [`Scenario::run`] is the one loop that executes it.
//! The constructors name the schedules the tests and probes use —
//! [`Scenario::chaotic`], [`Scenario::outage_demo`],
//! [`Scenario::spike_demo`], [`Scenario::crash_mid_update`], … — and the
//! features of any of them compose in one value, with one ordering rule:
//! zombie writes come after the promotion ([`CrashKind::ZombieWrites`]).
//!
//! Three oracles audit every run:
//!
//! * **Freshness** — a result matching no master state current within
//!   the lease window is stale beyond the lease (the tally's check); the
//!   count must be zero under any schedule. A promotion re-appends the
//!   surviving state, so the history stays linear when a failover rolls
//!   a branch away.
//! * **Durability** — the master is snapshotted after every committed
//!   update (keyed by stream epoch) and a promotion prunes the snapshots
//!   its barrier rolled away. At the end the surviving primary must equal
//!   the newest surviving snapshot byte-for-byte.
//! * **Ack ledger** — every acked epoch is journaled; at each failover
//!   the acked epochs above `promoted_applied` must match the group's own
//!   `lost_acked` (zero under sync-quorum).

use crate::driver::analysis_matrix;
use crate::gen::{BoundOp, IdSpaces, ParamGen, RequestSampler};
pub use crate::tally::OpOutcome;
use crate::tally::Tally;
use crate::toystore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs_dssp::{
    DsspConfig, FailoverRecord, FanoutConfig, FleetConfig, FtUpdateOutcome, HomeLink, HomeServer,
    OverloadConfig, ProxyFleet, QueueState, ReplicationConfig, ReplicationMode, RetryPolicy,
    RoutingMode, StrategyKind,
};
use scs_netsim::{ChannelStats, FaultSpec, OutageSchedule, QueueCap, ServiceCenter, Time, MS, SEC};
use scs_sqlkit::{Update, UpdateTemplate, Value};
use scs_storage::Database;
use scs_telemetry::{Histogram, MetricsSnapshot, SharedProvenance, TimeSeries, TimeSeriesSink};
use std::sync::{Arc, Mutex};

/// The tenant id every scripted run carries: it keys the cache envelope
/// and salts retry jitter, so the committed artifacts depend on it.
const APP_ID: &str = "chaos";

/// One piece of a scripted arrival-rate profile. Multipliers scale the
/// base arrival rate: 1.0 is the baseline, 4.0 packs four times the
/// arrivals into the same wall of sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadSegment {
    /// Constant multiplier over `[start, end)`.
    Step {
        start: Time,
        end: Time,
        multiplier: f64,
    },
    /// Linear interpolation from `from` to `to` over `[start, end)`.
    Ramp {
        start: Time,
        end: Time,
        from: f64,
        to: f64,
    },
}

/// A piecewise arrival-rate multiplier over sim time. Outside every
/// segment the multiplier is 1.0; where segments overlap, the last one
/// listed wins (so a profile can layer a spike on a ramp).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadProfile {
    pub segments: Vec<LoadSegment>,
}

impl LoadProfile {
    /// The baseline profile: multiplier 1.0 everywhere.
    pub fn flat() -> LoadProfile {
        LoadProfile::default()
    }

    /// A constant multiplier over the whole run.
    pub fn constant(multiplier: f64) -> LoadProfile {
        LoadProfile::spike(0, Time::MAX, multiplier)
    }

    /// A step spike: `multiplier`× the base rate over `[start, end)`.
    pub fn spike(start: Time, end: Time, multiplier: f64) -> LoadProfile {
        LoadProfile {
            segments: vec![LoadSegment::Step {
                start,
                end,
                multiplier,
            }],
        }
    }

    /// The arrival-rate multiplier at instant `t`.
    pub fn multiplier_at(&self, t: Time) -> f64 {
        let mut m = 1.0;
        for seg in &self.segments {
            match *seg {
                LoadSegment::Step {
                    start,
                    end,
                    multiplier,
                } if start <= t && t < end => m = multiplier,
                LoadSegment::Ramp {
                    start,
                    end,
                    from,
                    to,
                } if start <= t && t < end => {
                    let frac = (t - start) as f64 / (end - start).max(1) as f64;
                    m = from + (to - from) * frac;
                }
                _ => {}
            }
        }
        m
    }

    /// Advances the arrival clock by one op: `spacing` divided by the
    /// multiplier at the previous instant (open-loop arrivals), floored at
    /// 1 µs so neither a spike nor a zero spacing can stall the clock. At
    /// multiplier 1 the step is exactly `spacing`.
    fn next_arrival(&self, spacing: Time, clock: Time) -> Time {
        let mult = self.multiplier_at(clock);
        let step = if mult == 1.0 {
            spacing
        } else {
            (spacing as f64 / mult.max(1e-9)).round() as Time
        };
        clock + step.max(1)
    }
}

/// One scripted failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Crash and restart proxy replica `id`: its cache is lost and its
    /// epoch re-handshakes from the home tier.
    RestartProxy(usize),
    /// Hard-crash the home primary (memory gone, durable log survives).
    CrashPrimary,
    /// Partition the primary away; it keeps running its divergent
    /// branch, unheard by the group.
    PartitionPrimary,
    /// The partitioned zombie's stale-term writes reach the standbys.
    /// Fired after promotion, every record is fenced. Schedule it after
    /// the promotion: fired before, the writes ship on the current term,
    /// the standbys accept them, and the promoted primary holds writes
    /// the durability oracle never journaled (`durability_ok` false; the
    /// ignored case in `tests/scenario.rs` pins it).
    ZombieWrites(u32),
    /// Rejoin the crashed old primary as a snapshot-resyncing standby.
    RejoinCrashed,
    /// Heal the partition: the zombie discards its divergent tail and
    /// rejoins as a standby.
    RejoinZombie,
    /// Kill standby `id` (stops receiving the ship stream).
    CrashStandby(usize),
    /// Revive standby `id` with its log intact (now lagging).
    ReviveStandby(usize),
}

/// A failure injection pinned to a sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    pub at_micros: Time,
    pub kind: CrashKind,
}

/// A bounded home service queue behind the proxies, and the overload
/// gate in front of it. Only operations that take a home round trip
/// (query misses, applied updates) occupy it; a completion is *timely*
/// when its queueing delay plus retry backoff meets the deadline.
#[derive(Debug, Clone)]
pub struct HomeQueue {
    /// The goodput deadline (µs).
    pub deadline_micros: Time,
    /// Service demand per home round trip (µs).
    pub service_micros: Time,
    /// The queue's bound: the backstop behind admission.
    pub cap: QueueCap,
    /// Every proxy's admission/breaker/brownout gate; `None` = unprotected.
    pub protection: Option<OverloadConfig>,
}

/// One scripted run. See the module docs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seeds the op script, the pipes and the random schedules
    /// (domain-separated).
    pub seed: u64,
    pub ops: usize,
    /// Base gap between consecutive operations (µs); `load` divides it.
    pub op_spacing_micros: Time,
    pub load: LoadProfile,
    /// Staleness lease on every proxy's cache; `None` = never expire.
    pub lease_micros: Option<u64>,
    pub strategy: StrategyKind,
    pub proxies: usize,
    /// The home tier: mode, standby count, ship faults, detection lease.
    pub replication: ReplicationConfig,
    pub fanout: FanoutConfig,
    /// Faults on the home → proxy invalidation pipes.
    pub pipe_faults: FaultSpec,
    /// `[start, end)` windows the proxy ↔ home link is down.
    pub outages: Vec<(Time, Time)>,
    /// Failure injections, any order (the run sorts them by time, stably).
    pub events: Vec<CrashEvent>,
    pub retry: RetryPolicy,
    pub home_queue: Option<HomeQueue>,
    /// When set, per-op outcome curves land in a sim-time series with
    /// this bucket width (µs).
    pub bucket_micros: Option<Time>,
}

impl Scenario {
    /// The base every constructor refines: one proxy over a single-node
    /// home, perfect delivery, no faults. Its responses equal the classic
    /// synchronous pipeline's, op for op.
    pub fn faultless(seed: u64, ops: usize) -> Scenario {
        let mut replication = ReplicationConfig::group(ReplicationMode::Async, 0);
        replication.seed = seed ^ 0x7265_706C; // "repl"
        Scenario {
            seed,
            ops,
            op_spacing_micros: MS,
            load: LoadProfile::flat(),
            lease_micros: None,
            strategy: StrategyKind::ViewInspection,
            proxies: 1,
            replication,
            fanout: FanoutConfig::immediate(),
            pipe_faults: FaultSpec::none(),
            outages: Vec::new(),
            events: Vec::new(),
            retry: RetryPolicy::no_retries(),
            home_queue: None,
            bucket_micros: None,
        }
    }

    /// Every delivery fault at once: a lossy, delayed, duplicating pipe,
    /// random link outages, random proxy restarts, retries, and a lease
    /// bounding what any of it can cost.
    pub fn chaotic(seed: u64, ops: usize) -> Scenario {
        Scenario {
            lease_micros: Some(250 * MS),
            pipe_faults: FaultSpec {
                drop_probability: 0.10,
                duplicate_probability: 0.10,
                delay_probability: 0.30,
                max_delay_micros: 40 * MS,
                base_latency_micros: MS,
            },
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_micros: 5 * MS,
                max_backoff_micros: 40 * MS,
                timeout_micros: 100 * MS,
                jitter: false,
            },
            ..Scenario::faultless(seed, ops)
        }
        .random_outages(2 * SEC, 100 * MS)
        .random_restarts(400 * MS)
    }

    /// The observability demo: a clean run except for two scripted link
    /// outages, recorded into 100 ms buckets. The curves must show the
    /// throughput dip, the degraded-serve spike while leased hits outlive
    /// the outage, and full recovery after the link returns.
    pub fn outage_demo(seed: u64, ops: usize) -> Scenario {
        Scenario {
            lease_micros: Some(200 * MS),
            outages: vec![(SEC, SEC + 500 * MS), (2 * SEC + 500 * MS, 3 * SEC)],
            bucket_micros: Some(100 * MS),
            ..Scenario::faultless(seed, ops)
        }
    }

    /// The overload acceptance run: a 4× step spike over `[1 s, 2 s)` on
    /// a system whose baseline runs well below the knee, plus one link
    /// outage after the spike so the breaker's full open → half-open →
    /// close cycle lands in the curves.
    pub fn spike_demo(seed: u64) -> Scenario {
        let mut protection = OverloadConfig::default();
        protection.admission.deadline_micros = 20 * MS;
        protection.admission.service_estimate_micros = MS;
        protection.breaker.failure_threshold = 3;
        protection.breaker.open_micros = 150 * MS;
        protection.brownout.window_micros = 100 * MS;
        protection.brownout.shed_ratio_threshold = 0.5;
        protection.brownout.min_offered = 20;
        Scenario {
            lease_micros: Some(200 * MS),
            load: LoadProfile::spike(SEC, 2 * SEC, 4.0),
            home_queue: Some(HomeQueue {
                deadline_micros: 25 * MS,
                service_micros: MS,
                cap: QueueCap::max_wait(30 * MS),
                protection: Some(protection),
            }),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_micros: 5 * MS,
                max_backoff_micros: 20 * MS,
                timeout_micros: 50 * MS,
                jitter: true,
            },
            outages: vec![(2 * SEC + 400 * MS, 2 * SEC + 700 * MS)],
            bucket_micros: Some(100 * MS),
            ..Scenario::faultless(seed, 6_000)
        }
    }

    /// A short flat-load run for goodput sweeps ([`goodput_curve`]
    /// substitutes the multiplier). The lease is short so most queries
    /// miss: the home queue is then the binding resource and the curve
    /// shows the saturation knee instead of cache hits that cost nothing.
    pub fn sweep_point(seed: u64) -> Scenario {
        Scenario {
            ops: 2_500,
            lease_micros: Some(5 * MS),
            load: LoadProfile::flat(),
            outages: Vec::new(),
            bucket_micros: None,
            ..Scenario::spike_demo(seed)
        }
    }

    /// Strips the overload gate and unbounds the home queue: the baseline
    /// the goodput curve collapses against.
    pub fn unprotected(mut self) -> Scenario {
        if let Some(q) = self.home_queue.as_mut() {
            q.protection = None;
            q.cap = QueueCap::unbounded();
        }
        self
    }

    /// Two proxies over a replicated home tier with `standbys` standbys
    /// and a 250 ms lease: the failover schedules' shape.
    fn replicated(seed: u64, ops: usize, mode: ReplicationMode, standbys: usize) -> Scenario {
        let mut sc = Scenario {
            lease_micros: Some(250 * MS),
            proxies: 2,
            ..Scenario::faultless(seed, ops)
        };
        sc.replication.mode = mode;
        sc.replication.standbys = standbys;
        sc
    }

    /// Schedules `kind` at `num / den` of the script's horizon.
    fn at(mut self, num: Time, den: Time, kind: CrashKind) -> Scenario {
        let at_micros = self.ops as Time * self.op_spacing_micros * num / den;
        self.events.push(CrashEvent { at_micros, kind });
        self
    }

    /// The failover baseline: the same shape with a single un-replicated
    /// home and no failures.
    pub fn steady(seed: u64, ops: usize) -> Scenario {
        Scenario::replicated(seed, ops, ReplicationMode::Async, 0)
    }

    /// Crash the primary at 40% of the horizon; the old primary rejoins
    /// as a standby at 70%.
    pub fn crash_mid_update(seed: u64, ops: usize) -> Scenario {
        Scenario::replicated(seed, ops, ReplicationMode::Async, 2)
            .at(2, 5, CrashKind::CrashPrimary)
            .at(7, 10, CrashKind::RejoinCrashed)
    }

    /// [`Scenario::crash_mid_update`] while the fanout buffer holds
    /// undelivered notifications: they die with the primary and surface
    /// as a stream gap the recovery flush absorbs.
    pub fn crash_mid_fanout(seed: u64, ops: usize) -> Scenario {
        let mut sc = Scenario::crash_mid_update(seed, ops);
        sc.fanout = FanoutConfig::batched(64, 30 * MS);
        sc
    }

    /// Two failovers back to back: the promoted primary crashes too.
    pub fn double_failover(seed: u64, ops: usize) -> Scenario {
        Scenario::replicated(seed, ops, ReplicationMode::Async, 3)
            .at(3, 10, CrashKind::CrashPrimary)
            .at(3, 5, CrashKind::CrashPrimary)
    }

    /// [`Scenario::crash_mid_update`] over a lossy, laggy ship stream, so
    /// the promoted standby is genuinely behind the dead primary's tip:
    /// the async lost tail must be exactly accounted.
    pub fn lagging_standby(seed: u64, ops: usize) -> Scenario {
        Scenario::crash_mid_update(seed, ops).lossy()
    }

    /// Partition the primary instead of crashing it: once a standby has
    /// been promoted, the zombie writes on its stale term (every record
    /// fenced), then heals and discards its divergent branch.
    pub fn zombie(seed: u64, ops: usize) -> Scenario {
        Scenario::replicated(seed, ops, ReplicationMode::Async, 2)
            .at(2, 5, CrashKind::PartitionPrimary)
            .at(3, 5, CrashKind::ZombieWrites(5))
            .at(3, 4, CrashKind::RejoinZombie)
    }

    /// The same schedule under sync-quorum replication: no failover may
    /// lose an acked write. Each scheduled primary crash adds a standby,
    /// so a promotable majority outlives the whole schedule.
    pub fn sync(mut self) -> Scenario {
        self.replication.mode = ReplicationMode::SyncQuorum;
        self.replication.standbys += self
            .events
            .iter()
            .filter(|e| e.kind == CrashKind::CrashPrimary)
            .count();
        self
    }

    /// The same schedule over a dropping/duplicating/delaying ship
    /// stream. Composed with `zombie`, this races stale-term records
    /// against the new primary's first post-promotion ship.
    pub fn lossy(mut self) -> Scenario {
        self.replication.ship_faults = FaultSpec {
            drop_probability: 0.25,
            duplicate_probability: 0.05,
            delay_probability: 0.5,
            max_delay_micros: 25 * MS,
            base_latency_micros: MS,
        };
        self
    }

    /// Replaces the outage windows with random ones (exponential up and
    /// down times with these means) over the script's horizon.
    pub fn random_outages(mut self, mean_up_micros: Time, mean_down_micros: Time) -> Scenario {
        let horizon = (self.ops as Time + 2) * self.op_spacing_micros;
        self.outages =
            OutageSchedule::windows(self.seed, horizon, mean_up_micros, mean_down_micros);
        self
    }

    /// Adds proxy restarts at random instants (exponential gaps with this
    /// mean) over the script's horizon, round-robin over the replicas.
    pub fn random_restarts(mut self, mean_interval_micros: Time) -> Scenario {
        let horizon = (self.ops as Time + 2) * self.op_spacing_micros;
        let times = OutageSchedule::crash_times(self.seed, horizon, mean_interval_micros);
        for (k, at_micros) in times.into_iter().enumerate() {
            let kind = CrashKind::RestartProxy(k % self.proxies);
            self.events.push(CrashEvent { at_micros, kind });
        }
        self
    }

    /// The curves the run draws, derived from what it turns on. A queued
    /// run draws goodput curves and takes hits, serves and degraded serves
    /// from the proxies' own trace stream; a replicated home splits
    /// applied updates by ack and marks each promotion; a run with
    /// neither draws every serve curve plus the staleness histogram.
    fn curves(&self) -> Vec<&'static str> {
        let queued = self.home_queue.is_some();
        let replicated = self.replication.standbys > 0;
        let mut curves = vec![
            "query_unavailable",
            "update_unavailable",
            "update_rejected",
            "stale_beyond_lease",
        ];
        if queued {
            curves.extend([
                "offered",
                "completed",
                "timely",
                "deadline_missed",
                "response_us",
            ]);
        } else {
            curves.extend(["query_served", "degraded_serve"]);
        }
        if replicated {
            curves.extend(["update_acked", "update_applied_unacked", "failover"]);
        } else {
            curves.push("update_applied");
            if !queued {
                curves.extend(["query_hit", "staleness_us"]);
            }
        }
        curves
    }

    /// The toystore master populated from the seed and the bound op
    /// script: every run of this seed replays the identical statements.
    pub fn bind(&self) -> (Database, Vec<BoundOp>) {
        let app = toystore::toystore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).expect("static schema");
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x706F_7075_6C61_7465); // "populate"
        toystore::populate(&mut db, 50, 30, &mut rng);
        let mut ids = IdSpaces::default();
        ids.declare("toys", 50);
        ids.declare("customers", 30);
        ids.declare("credit_card", 15);

        let seed = self.seed ^ 0x7363_7269_7074; // "script"
        let mut stream = RequestSampler::new(&app, ParamGen::new(ids, 1.0), seed);
        let mut script = Vec::with_capacity(self.ops);
        while script.len() < self.ops {
            script.extend(stream.draw());
        }
        script.truncate(self.ops);
        (db, script)
    }

    /// Executes the scenario end to end and audits it.
    ///
    /// Per op, at its arrival instant: home-tier events due by then fire
    /// at their own instants, proxy restarts take effect at the op's
    /// instant before its deliveries, the fleet clock advances (deliveries
    /// due land), and the op runs. A tail then waits for a downed home
    /// tier, lets pipes settle for 60 ms, flushes and drains.
    pub fn run(&self) -> ScenarioReport {
        let app = toystore::toystore();
        let (master, script) = self.bind();
        let zombie_update = app.update_templates()[0].clone();
        let exposures = self
            .strategy
            .exposures(app.updates.len(), app.queries.len());
        let dssp = DsspConfig {
            lease_micros: self.lease_micros,
            overload: self.home_queue.as_ref().and_then(|q| q.protection),
            ..DsspConfig::new(APP_ID, exposures, analysis_matrix(&app))
        };
        let fleet_cfg = FleetConfig {
            proxies: self.proxies,
            routing: RoutingMode::HashByTemplate,
            fanout: self.fanout,
            pipe_spec: self.pipe_faults.clone(),
            pipe_seed: self.seed ^ 0x63_6861_6E6E_656C, // "channel"
        };
        let mut fleet = ProxyFleet::replicated(
            dssp,
            HomeServer::new(master.clone()),
            fleet_cfg,
            self.replication.clone(),
        );
        let prov = fleet.enable_provenance();
        let link = HomeLink::with_outages(self.outages.clone());
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at_micros);

        let mut tally = Tally::new(
            master.clone(),
            self.lease_micros,
            self.bucket_micros,
            self.curves(),
        );
        let mut report = ScenarioReport {
            ledger_consistent: true,
            provenance: prov.clone(),
            ..ScenarioReport::default()
        };
        let mut ledger = Ledger::default();
        let mut queue = self
            .home_queue
            .as_ref()
            .map(|q| (q, ServiceCenter::bounded(1, q.cap)));
        // A queued run merges the proxies' own trace curves (shed,
        // breaker, brownout, hits) into the report's series.
        let proxy_series = self.bucket_micros.filter(|_| queue.is_some()).map(|w| {
            let shared = Arc::new(Mutex::new(TimeSeries::new(w)));
            for id in fleet.replica_ids() {
                let sink = TimeSeriesSink::for_series(shared.clone());
                fleet.proxy_mut(id).add_trace_sink(Box::new(sink));
            }
            shared
        });
        let (mut wait_hist, mut response_hist) = (Histogram::default(), Histogram::default());
        // A completion `delay` µs after its arrival: timely when it met
        // the deadline.
        let deadline = self.home_queue.as_ref().map_or(0, |q| q.deadline_micros);
        let mut complete =
            |report: &mut ScenarioReport, tally: &mut Tally, now: Time, delay: Time| {
                response_hist.record(delay);
                tally.tick(now, "completed");
                if delay <= deadline {
                    report.timely += 1;
                    tally.tick(now, "timely");
                } else {
                    report.deadline_missed += 1;
                    tally.tick(now, "deadline_missed");
                }
            };

        let (mut clock, mut fired) = (0, 0);
        let mut restarts = Vec::new();
        for op in &script {
            clock = self.load.next_arrival(self.op_spacing_micros, clock);
            let now = clock;
            let due = fired + events[fired..].partition_point(|e| e.at_micros <= now);
            for ev in &events[fired..due] {
                let (at, kind) = (ev.at_micros, ev.kind);
                if matches!(kind, CrashKind::RestartProxy(_)) {
                    restarts.push(kind);
                } else {
                    fleet.set_sim_time_micros(at);
                    ledger.absorb(&fleet, &mut tally, &mut report, at);
                    fire(&mut fleet, &mut report, at, kind, &zombie_update);
                }
            }
            // Restarts take effect at the op's instant, before its
            // deliveries. Fired at their own instants they move
            // `duplicate_invalidations` (never an outcome) on about one
            // random restart schedule in 30.
            for kind in restarts.drain(..) {
                fire(&mut fleet, &mut report, now, kind, &zombie_update);
            }
            fired = due;
            fleet.set_sim_time_micros(now);
            ledger.absorb(&fleet, &mut tally, &mut report, now);
            tally.tick(now, "offered");
            let state = queue.as_mut().map(|(_, c)| QueueState {
                projected_wait_micros: c.projected_wait(now),
                depth: c.in_system(now),
            });

            let outcome = match op {
                BoundOp::Query(q) => {
                    let resp = fleet
                        .execute_query_ft(q, &link, &self.retry, state.as_ref())
                        .expect("toystore queries never error");
                    let backoff = resp.resp.backoff_micros;
                    let mut outcome = OpOutcome::of_query(resp.resp.outcome);
                    if let (Some((hq, c)), OpOutcome::Query { hit, .. }) = (&mut queue, &outcome) {
                        let service = hq.service_micros;
                        // A hit costs no home trip, only retry backoff.
                        let done = if *hit {
                            Ok(now)
                        } else {
                            c.try_serve(now, service)
                        };
                        match done {
                            Ok(done) => {
                                if !*hit {
                                    wait_hist.record(done.saturating_sub(now + service));
                                }
                                let delay = done.saturating_sub(now) + backoff;
                                complete(&mut report, &mut tally, now, delay);
                                tally.observe(now, "response_us", delay);
                            }
                            // The queue bound tripped: the read is shed,
                            // and the shed feeds the brownout signal.
                            Err(_) => {
                                let template = q.template_id as u32;
                                fleet.proxy_mut(resp.proxy).record_queue_rejection(template);
                                outcome = OpOutcome::Shed;
                            }
                        }
                    }
                    outcome
                }
                BoundOp::Update(u) => {
                    let resp = fleet.execute_update_ft(u, &link, &self.retry, state.as_ref());
                    if let Ok(r) = &resp {
                        if let (FtUpdateOutcome::Applied { msg, .. }, Some(ack)) =
                            (&r.resp.outcome, r.ack)
                        {
                            let state = fleet.home().database().clone();
                            ledger.snapshots.push((msg.epoch, state.clone()));
                            tally.master_changed(now, state);
                            if ack.acked {
                                report.updates_acked += 1;
                                ledger.acked_epochs.push(msg.epoch);
                                tally.tick(now, "update_acked");
                            } else {
                                report.updates_applied_unacked += 1;
                                tally.tick(now, "update_applied_unacked");
                            }
                            // An admitted update always serves: the master
                            // already applied it.
                            if let Some((hq, c)) = &mut queue {
                                let done = c.serve(now, hq.service_micros);
                                wait_hist.record(done.saturating_sub(now + hq.service_micros));
                                let delay = done.saturating_sub(now) + r.resp.backoff_micros;
                                complete(&mut report, &mut tally, now, delay);
                            }
                        }
                    }
                    OpOutcome::of_update(&resp.map(|r| r.resp))
                }
            };
            tally.record(now, op, &outcome);
            report.outcomes.push(outcome);
        }
        report.duration_micros = clock;

        // Tail: a tier still down (late crash) gets time to promote, so
        // the durability oracle has a surviving primary to audit.
        let deadline = clock + 100 * self.replication.lease_micros;
        while !fleet.home_group().is_up() && clock < deadline {
            clock += self.replication.heartbeat_micros.max(1);
            fleet.set_sim_time_micros(clock);
            ledger.absorb(&fleet, &mut tally, &mut report, clock);
        }
        report.home_recovered = fleet.home_group().is_up();
        // Let delayed ship traffic and invalidation pipes settle.
        let settled = clock + 60 * MS;
        while clock < settled {
            clock += 5 * MS;
            fleet.set_sim_time_micros(clock);
            ledger.absorb(&fleet, &mut tally, &mut report, clock);
        }
        fleet.flush_fanout();
        fleet.drain();

        let expected = ledger.snapshots.last().map_or(&master, |(_, s)| s);
        report.durability_ok = report.home_recovered && fleet.home().database() == expected;
        report.final_epoch = fleet.home_group().epoch();
        report.fenced_records = fleet.home_group().fenced_total();
        report.fanout_lost_on_crash = fleet.fanout_lost_on_crash();
        report.metrics = fleet.rollup_metrics();
        for pipe in fleet.fanout_stats().pipes {
            report.channel.sent += pipe.sent;
            report.channel.dropped += pipe.dropped;
            report.channel.duplicated += pipe.duplicated;
            report.channel.delayed += pipe.delayed;
            report.channel.delivered += pipe.delivered;
        }
        {
            let log = prov.lock().expect("no concurrent holders after the run");
            report.failover_stamps = log.failovers().len();
            report.conservation_balanced = (0..log.replica_count())
                .all(|r| log.conservation_on(r, 0, report.final_epoch).balanced());
        }
        if let Some((_, c)) = &queue {
            report.queue_rejections = c.rejections();
        }
        report.queue_wait_p99_micros = wait_hist.quantile_bounds(0.99).map_or(0, |(_, hi)| hi);
        report.response_p99_micros = response_hist.quantile_bounds(0.99).map_or(0, |(_, hi)| hi);
        report.master_history_micros = tally.master_history_micros();
        report.queries_served = tally.queries_served;
        report.hits = tally.hits;
        report.degraded_serves = tally.degraded_serves;
        report.queries_unavailable = tally.queries_unavailable;
        report.updates_applied = tally.updates_applied;
        report.updates_unavailable = tally.updates_unavailable;
        report.updates_rejected = tally.updates_rejected;
        report.shed = tally.shed;
        report.stale_beyond_lease = tally.stale_beyond_lease;
        report.max_observed_staleness_micros = tally.max_observed_staleness_micros;
        report.timeseries = tally.series.map(|mut ts| {
            if let Some(shared) = proxy_series {
                ts.merge(&shared.lock().expect("proxy series poisoned"));
            }
            ts
        });
        report
    }
}

/// Fires one failure injection at sim time `at` (the loop picks the
/// instant: its own for a home event, the op's for a restart).
fn fire(
    fleet: &mut ProxyFleet,
    report: &mut ScenarioReport,
    at: Time,
    kind: CrashKind,
    zombie_update: &Arc<UpdateTemplate>,
) {
    match kind {
        CrashKind::RestartProxy(id) => {
            fleet.proxy_mut(id).set_sim_time_micros(at);
            fleet.restart_proxy(id);
        }
        CrashKind::CrashPrimary => fleet.crash_home(),
        CrashKind::PartitionPrimary => fleet.partition_home(),
        CrashKind::ZombieWrites(writes) => {
            // The zombie serves its divergent branch: each write applies
            // locally and ships on the stale term.
            for k in 0..writes {
                let toy = (k as i64 % 50) + 1;
                let u = Update::bind(0, zombie_update.clone(), vec![Value::Int(toy)])
                    .expect("validated template");
                let group = fleet.home_group_mut();
                report.zombie_writes_applied += group.zombie_write(at, &u).is_ok() as u64;
            }
        }
        CrashKind::RejoinCrashed => {
            report.divergence_discarded += fleet.home_group_mut().rejoin_crashed(at);
        }
        CrashKind::RejoinZombie => {
            report.divergence_discarded += fleet.home_group_mut().rejoin_zombie(at);
        }
        CrashKind::CrashStandby(id) => fleet.home_group_mut().crash_standby(id),
        CrashKind::ReviveStandby(id) => fleet.home_group_mut().revive_standby(id),
    }
}

/// The durability oracle's journal: per-epoch master snapshots and the
/// acked epochs, both pruned past each promotion barrier.
#[derive(Default)]
struct Ledger {
    snapshots: Vec<(u64, Database)>,
    acked_epochs: Vec<u64>,
    seen_failovers: usize,
}

impl Ledger {
    /// Folds the promotions the group performed since the last call into
    /// the report, checks the group's loss account against this journal,
    /// and rolls both oracles back past the barrier.
    fn absorb(
        &mut self,
        fleet: &ProxyFleet,
        tally: &mut Tally,
        report: &mut ScenarioReport,
        now: Time,
    ) {
        while self.seen_failovers < fleet.home_failovers().len() {
            let fo = fleet.home_failovers()[self.seen_failovers];
            self.seen_failovers += 1;
            let barrier = fo.promoted_applied;
            let lost_acked = self.acked_epochs.iter().filter(|&&e| e > barrier).count() as u64;
            let lost = self.snapshots.iter().filter(|(e, _)| *e > barrier).count() as u64;
            report.ledger_consistent &= fo.lost_acked == lost_acked;
            // `lost_records` counts every WAL epoch in the gap; client
            // updates are a subset (barrier checkpoints carry none).
            report.ledger_consistent &= fo.lost_records >= lost;
            report.lost_records_total += fo.lost_records;
            report.lost_acked_total += fo.lost_acked;
            report.external_lost_acked_total += lost_acked;
            report.unavailable_micros_total += fo.unavailable_micros;
            self.snapshots.retain(|(e, _)| *e <= barrier);
            self.acked_epochs.retain(|&e| e <= barrier);
            // The surviving state is current again from the promotion on.
            tally.master_changed(now, fleet.home().database().clone());
            report.failovers.push(fo);
            tally.tick(now, "failover");
        }
    }
}

/// What a run observed, with every oracle verdict.
#[derive(Debug, Default)]
pub struct ScenarioReport {
    /// Per-op outcomes, in script order (the baseline-equivalence unit).
    pub outcomes: Vec<OpOutcome>,
    /// Served results matching no master state current within the lease
    /// window. Must be zero.
    pub stale_beyond_lease: u64,
    /// Worst observed age of a served result (µs); bounded by the lease.
    pub max_observed_staleness_micros: u64,
    pub queries_served: u64,
    pub hits: u64,
    pub degraded_serves: u64,
    pub queries_unavailable: u64,
    /// Updates applied at the master, acked or not.
    pub updates_applied: u64,
    pub updates_acked: u64,
    /// Sync-quorum timeouts: applied to the master but never acked.
    pub updates_applied_unacked: u64,
    pub updates_unavailable: u64,
    pub updates_rejected: u64,
    /// Requests shed by the overload gate or the home queue's bound.
    pub shed: u64,
    /// Completions that met the home queue's deadline.
    pub timely: u64,
    /// Completions that missed it (counted, not dropped).
    pub deadline_missed: u64,
    /// Reads the bounded home queue itself rejected (part of `shed`).
    pub queue_rejections: u64,
    /// p99 wait in the home queue (µs), over admitted home trips.
    pub queue_wait_p99_micros: u64,
    /// p99 end-to-end delay (µs): queue wait + service + retry backoff.
    pub response_p99_micros: u64,
    /// The last arrival instant (µs) — the goodput denominator.
    pub duration_micros: Time,
    /// Delivery counters summed over the invalidation pipes.
    pub channel: ChannelStats,
    /// Every proxy's registry, summed over the fleet.
    pub metrics: MetricsSnapshot,
    /// Present when the scenario set a bucket: the curves
    /// [`Scenario::run`] derives from its features.
    pub timeseries: Option<TimeSeries>,
    /// The freshness plane: commit / flush / send / arrival stamps plus
    /// the explain engine.
    pub provenance: SharedProvenance,
    /// When each master state became current (index 0 is the initial
    /// state at t = 0; a promotion re-appends the surviving state).
    pub master_history_micros: Vec<Time>,
    /// Every promotion the run performed, in order.
    pub failovers: Vec<FailoverRecord>,
    /// Sums of `lost_records` / `lost_acked` over all failovers (the
    /// group's account).
    pub lost_records_total: u64,
    pub lost_acked_total: u64,
    /// The external ledger's count of acked epochs above each promotion
    /// barrier. Must equal `lost_acked_total`.
    pub external_lost_acked_total: u64,
    /// The group's loss account matched the ledger at every failover.
    pub ledger_consistent: bool,
    /// The final primary equals the newest surviving snapshot (false
    /// when the tier never recovered).
    pub durability_ok: bool,
    /// The home tier was up when the run ended.
    pub home_recovered: bool,
    /// sent == applied + duplicate + recovered_over + in_flight for every
    /// proxy replica, failovers included.
    pub conservation_balanced: bool,
    /// Stale-term records rejected by standby fencing.
    pub fenced_records: u64,
    /// Writes the partitioned zombie believed it applied.
    pub zombie_writes_applied: u64,
    /// Divergent records discarded when a zombie or crashed primary
    /// rejoined.
    pub divergence_discarded: u64,
    /// Pending fanout notifications that died with a crashing primary.
    pub fanout_lost_on_crash: u64,
    /// Time the tier spent down, summed over failovers (µs).
    pub unavailable_micros_total: u64,
    /// Failover stamps journaled on the freshness plane.
    pub failover_stamps: usize,
    pub final_epoch: u64,
}

impl ScenarioReport {
    /// The fleet-wide `dssp.<name>` counter.
    pub fn counter(&self, name: &str) -> u64 {
        crate::report::dssp_counter(&self.metrics, name)
    }

    /// Operations offered (the whole script).
    pub fn offered(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// Queries served (hits included) plus updates applied.
    pub fn completed(&self) -> u64 {
        self.queries_served + self.updates_applied
    }

    fn duration_secs(&self) -> f64 {
        self.duration_micros.max(1) as f64 / 1_000_000.0
    }

    /// Offered operations per second of sim time.
    pub fn offered_rps(&self) -> f64 {
        self.offered() as f64 / self.duration_secs()
    }

    /// Timely completions per second — what must stay flat past the knee.
    pub fn goodput_rps(&self) -> f64 {
        self.timely as f64 / self.duration_secs()
    }

    /// Shed operations as a fraction of offered.
    pub fn shed_ratio(&self) -> f64 {
        scs_telemetry::ratio(self.shed, self.offered())
    }
}

/// One point on the offered-load vs goodput curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    pub multiplier: f64,
    pub offered_rps: f64,
    pub goodput_rps: f64,
    pub shed_ratio: f64,
    pub p99_response_micros: u64,
    pub stale_beyond_lease: u64,
}

/// Sweeps constant-rate runs of `base` over `multipliers` and returns the
/// goodput curve. The knee is where goodput peaks; a protected system
/// holds near it afterwards, an unprotected one collapses.
pub fn goodput_curve(base: &Scenario, multipliers: &[f64]) -> Vec<CurvePoint> {
    multipliers
        .iter()
        .map(|&m| {
            let r = Scenario {
                load: LoadProfile::constant(m),
                bucket_micros: None,
                ..base.clone()
            }
            .run();
            CurvePoint {
                multiplier: m,
                offered_rps: r.offered_rps(),
                goodput_rps: r.goodput_rps(),
                shed_ratio: r.shed_ratio(),
                p99_response_micros: r.response_p99_micros,
                stale_beyond_lease: r.stale_beyond_lease,
            }
        })
        .collect()
}

/// Index of the knee: the point of maximum goodput.
pub fn knee_index(curve: &[CurvePoint]) -> usize {
    let mut best = 0;
    for (i, p) in curve.iter().enumerate() {
        if p.goodput_rps > curve[best].goodput_rps {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_and_ramp_segments_compose() {
        assert_eq!(LoadProfile::flat().multiplier_at(100 * SEC), 1.0);
        let p = LoadProfile {
            segments: vec![
                LoadSegment::Ramp {
                    start: 0,
                    end: 1_000,
                    from: 1.0,
                    to: 3.0,
                },
                LoadSegment::Step {
                    start: 500,
                    end: 800,
                    multiplier: 4.0,
                },
            ],
        };
        assert_eq!(p.multiplier_at(0), 1.0);
        assert!((p.multiplier_at(500) - 4.0).abs() < 1e-9); // later segment wins
        assert!((p.multiplier_at(900) - (1.0 + 2.0 * 0.9)).abs() < 1e-9);
        assert_eq!(p.multiplier_at(1_000), 1.0); // end exclusive
    }

    #[test]
    fn spike_compresses_arrivals_inside_its_window() {
        let load = LoadProfile::spike(10 * MS, 20 * MS, 4.0);
        let (mut clock, mut inside) = (0, 0);
        for _ in 0..100 {
            clock = load.next_arrival(MS, clock);
            inside += (10 * MS..20 * MS).contains(&clock) as u32;
        }
        // 4× the rate in a 10 ms window: ~40 arrivals land inside where
        // 10 would at baseline.
        assert!((35..100).contains(&inside), "spike window got {inside}");
        let flat: Vec<Time> = (0..3)
            .scan(0, |c, _| {
                *c = LoadProfile::flat().next_arrival(MS, *c);
                Some(*c)
            })
            .collect();
        assert_eq!(flat, vec![MS, 2 * MS, 3 * MS], "flat replays the spacing");
    }

    #[test]
    fn outage_demo_curves_show_dip_spike_and_recovery() {
        let cfg = Scenario::outage_demo(42, 4_000);
        let report = cfg.run();
        assert_eq!(report.stale_beyond_lease, 0);
        let ts = report.timeseries.as_ref().expect("demo records a series");
        let width = cfg.bucket_micros.unwrap();
        let in_outage = |start: Time| {
            cfg.outages
                .iter()
                .any(|&(s, e)| start < e && s < start + width)
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
        assert!(report.queries_unavailable > 0, "no unavailability at all");
        assert!(
            report.degraded_serves > 0,
            "no leased hit served while down"
        );

        // The dip: a bucket fully inside the first outage serves less than
        // the bucket before it, and the first bucket after recovers.
        let (o_start, o_end) = cfg.outages[0];
        let bucket_of = |t: Time| starts.iter().position(|&s| s == t).expect("dense buckets");
        let pre = bucket_of(o_start - width);
        let mid = bucket_of(o_start + width);
        let post = bucket_of(o_end);
        assert!(
            served[mid] < served[pre],
            "no dip: {} vs {}",
            served[mid],
            served[pre]
        );
        assert_eq!(unavailable[post], 0, "unavailability outlived the outage");
        assert!(
            served[post] > served[mid],
            "no recovery: {} vs {}",
            served[post],
            served[mid]
        );
    }

    #[test]
    fn runs_replay_per_seed() {
        let (a, b) = (
            Scenario::chaotic(5, 600).run(),
            Scenario::chaotic(5, 600).run(),
        );
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.channel, b.channel);
        let other = Scenario::chaotic(6, 600).run();
        assert_ne!(a.outcomes, other.outcomes, "seed must matter");
        let spike = Scenario {
            ops: 1_500,
            ..Scenario::spike_demo(9)
        };
        let (a, b) = (spike.run(), spike.run());
        assert_eq!(
            (a.timely, a.shed, &a.metrics),
            (b.timely, b.shed, &b.metrics)
        );
    }

    #[test]
    fn spike_demo_sheds_but_never_serves_stale() {
        let report = Scenario::spike_demo(42).run();
        assert!(report.shed > 0, "4× spike must shed something");
        assert_eq!(report.stale_beyond_lease, 0);
        assert!(report.timely > 0);
    }

    #[test]
    fn protection_beats_collapse_at_sustained_overload() {
        let protected = Scenario {
            load: LoadProfile::constant(4.0),
            ..Scenario::sweep_point(7)
        };
        let p = protected.run();
        let u = protected.clone().unprotected().run();
        assert!(
            p.goodput_rps() >= u.goodput_rps(),
            "{} < {}",
            p.goodput_rps(),
            u.goodput_rps()
        );
        assert!(
            p.queue_wait_p99_micros <= 25 * MS,
            "admission must bound the queue wait, got p99 {} µs",
            p.queue_wait_p99_micros
        );
    }

    #[test]
    fn chaotic_run_exercises_faults_and_keeps_the_lease_bound() {
        let sc = Scenario::chaotic(17, 1_500);
        let r = sc.run();
        assert_eq!(r.stale_beyond_lease, 0);
        assert!(r.max_observed_staleness_micros <= sc.lease_micros.unwrap());
        assert!(r.channel.dropped > 0, "schedule produced no drops");
        assert!(r.counter("restarts") > 0, "no proxy restart happened");
    }

    #[test]
    fn crash_mid_update_promotes_and_stays_durable() {
        let r = Scenario::crash_mid_update(7, 600).run();
        assert_eq!(r.failovers.len(), 1);
        assert!(r.queries_unavailable + r.updates_unavailable > 0);
        assert_eq!(r.stale_beyond_lease, 0);
        assert!(r.ledger_consistent && r.durability_ok && r.conservation_balanced);
        assert!(r.failover_stamps >= 1, "failover journaled on the plane");
    }

    #[test]
    fn sync_quorum_loses_no_acked_write_here_either() {
        let r = Scenario::crash_mid_update(11, 600).sync().run();
        assert_eq!(r.failovers.len(), 1);
        assert_eq!(r.lost_acked_total, 0, "sync-quorum acked write lost");
        assert_eq!(r.external_lost_acked_total, 0);
        assert!(r.ledger_consistent && r.durability_ok);
        assert_eq!(r.stale_beyond_lease, 0);
    }

    #[test]
    fn steady_run_never_fails_over() {
        let r = Scenario::steady(3, 300).run();
        assert!(r.failovers.is_empty());
        assert_eq!(r.queries_unavailable + r.updates_unavailable, 0);
        assert_eq!(r.stale_beyond_lease, 0);
        assert!(r.durability_ok && r.conservation_balanced);
        assert!(r.updates_acked > 0);
    }

    /// Every standby dead, then the primary: nothing can promote. The run
    /// must still finish and report the failed verdict, not panic.
    #[test]
    fn a_tier_that_never_recovers_is_a_failed_verdict() {
        let at_micros = 150 * MS;
        let events = [
            CrashKind::CrashStandby(1),
            CrashKind::CrashStandby(2),
            CrashKind::CrashPrimary,
        ];
        let r = Scenario {
            events: events.map(|kind| CrashEvent { at_micros, kind }).to_vec(),
            ..Scenario::crash_mid_update(7, 300)
        }
        .run();
        assert!(!r.home_recovered);
        assert!(!r.durability_ok, "no surviving primary to audit");
        assert!(r.failovers.is_empty());
        assert!(r.queries_unavailable + r.updates_unavailable > 0);
        assert_eq!(r.stale_beyond_lease, 0);
    }
}
