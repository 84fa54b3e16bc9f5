//! Home-tier failover scenarios: the durable replicated home group
//! ([`scs_dssp::HomeGroup`]) driven through scripted crash schedules
//! under live toystore traffic, with every guarantee checked by an
//! *external* oracle rather than the group's own accounting.
//!
//! Each scenario replays the deterministic toystore op script from the
//! chaos harness through a [`scs_dssp::ProxyFleet`] whose home tier is
//! a primary plus N WAL-shipping standbys, and injects failures at
//! scripted sim times: hard crashes (mid-update and mid-fanout-flush),
//! double failovers, lagging standbys promoted over a lossy ship
//! stream, and a partitioned zombie primary writing on a stale term.
//!
//! Three independent oracles audit the run:
//!
//! * **Durability** — the harness snapshots the master after every
//!   committed update (keyed by stream epoch) and prunes the snapshots
//!   a failover's promotion barrier rolled away. At the end of the run
//!   the surviving primary's database must equal the newest surviving
//!   snapshot byte-for-byte. Zombie divergence and lost async tails
//!   therefore *cannot* hide: any write that survived when it should
//!   not have (or vice versa) breaks physical equality.
//! * **Ack ledger** — every acked commit epoch is journaled; at each
//!   failover the externally-counted acked epochs above
//!   `promoted_applied` must match the group's own `lost_acked`.
//!   Under sync-quorum both must be zero (no acked write is ever
//!   lost); under async the lost tail is bounded and accounted.
//! * **Freshness** — every served result is checked against the
//!   master-state history by the shared tally ([`crate::tally`]),
//!   exactly as in the chaos harness: a result matching no state
//!   current within the lease window is stale beyond the lease, and the
//!   count must be zero across every failover.

use crate::chaos::build_scenario;
use crate::driver::analysis_matrix;
use crate::tally::{tick, OpOutcome, ScriptOp, Tally};
use crate::toystore;
use scs_dssp::{
    DsspConfig, FanoutConfig, FleetConfig, FtUpdateOutcome, HomeLink, ProxyFleet,
    ReplicationConfig, ReplicationMode, RetryPolicy, RoutingMode, StrategyKind,
};
use scs_netsim::{FaultSpec, Time, MS};
use scs_sqlkit::{Update, Value};
use scs_storage::Database;
use scs_telemetry::TimeSeries;

pub use scs_dssp::FailoverRecord;

/// One scripted failure-injection event on the home tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Hard-crash the primary (memory gone, durable log survives).
    CrashPrimary,
    /// Partition the primary away; it keeps running its divergent
    /// branch, unheard by the group.
    PartitionPrimary,
    /// The partitioned zombie's stale-term writes reach the standbys
    /// (the partition healed *toward* them while the zombie still
    /// believes it is primary). Fired after promotion, every record
    /// is fenced.
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

/// One failover scenario: an op budget, the replication shape, and the
/// crash schedule.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Seeds the op script (shared with the chaos harness) and the
    /// replication ship pipes.
    pub seed: u64,
    pub ops: usize,
    pub op_spacing_micros: Time,
    /// Staleness lease on every replica's cache.
    pub lease_micros: Option<u64>,
    pub strategy: StrategyKind,
    /// Proxy replicas in front of the home group.
    pub proxies: usize,
    /// Home-tier shape: mode, standby count, ship faults, lease.
    pub replication: ReplicationConfig,
    /// Invalidation fanout trigger (batched shapes leave pending
    /// notifications to die with a crashing primary).
    pub fanout: FanoutConfig,
    /// Faults on the home → proxy invalidation pipes.
    pub pipe_faults: FaultSpec,
    /// The failure schedule, any order (sorted internally).
    pub crashes: Vec<CrashEvent>,
    /// When set, per-op outcome counters land in a sim-time series
    /// with this bucket width (the failover bench's dip/recovery
    /// curves).
    pub timeseries_bucket_micros: Option<Time>,
}

impl FailoverConfig {
    fn base(seed: u64, ops: usize, mode: ReplicationMode, standbys: usize) -> FailoverConfig {
        let mut replication = ReplicationConfig::group(mode, standbys);
        replication.seed = seed ^ 0x7265_706C; // "repl"
        FailoverConfig {
            seed,
            ops,
            op_spacing_micros: MS,
            lease_micros: Some(250 * MS),
            strategy: StrategyKind::ViewInspection,
            proxies: 2,
            replication,
            fanout: FanoutConfig::immediate(),
            pipe_faults: FaultSpec::none(),
            crashes: Vec::new(),
            timeseries_bucket_micros: None,
        }
    }

    fn horizon(&self) -> Time {
        self.ops as Time * self.op_spacing_micros
    }

    /// Baseline: the same run shape with a single un-replicated home
    /// and no failures — what the failover bench compares against.
    pub fn steady(seed: u64, ops: usize) -> FailoverConfig {
        FailoverConfig::base(seed, ops, ReplicationMode::Async, 0)
    }

    /// Crash the primary mid-update-stream at 40% of the horizon; the
    /// old primary rejoins as a standby at 70%.
    pub fn crash_mid_update(seed: u64, ops: usize) -> FailoverConfig {
        let mut cfg = FailoverConfig::base(seed, ops, ReplicationMode::Async, 2);
        let h = cfg.horizon();
        cfg.crashes = vec![
            CrashEvent {
                at_micros: h * 2 / 5,
                kind: CrashKind::CrashPrimary,
            },
            CrashEvent {
                at_micros: h * 7 / 10,
                kind: CrashKind::RejoinCrashed,
            },
        ];
        cfg
    }

    /// Crash the primary while the fanout buffer holds undelivered
    /// notifications: batched fanout with a horizon-sized interval, so
    /// the pending batch dies with the primary and its epochs surface
    /// as a stream gap the recovery flush absorbs.
    pub fn crash_mid_fanout(seed: u64, ops: usize) -> FailoverConfig {
        let mut cfg = FailoverConfig::crash_mid_update(seed, ops);
        cfg.fanout = FanoutConfig::batched(64, 30 * MS);
        cfg
    }

    /// Two failovers back to back: the promoted primary crashes too.
    pub fn double_failover(seed: u64, ops: usize) -> FailoverConfig {
        let mut cfg = FailoverConfig::base(seed, ops, ReplicationMode::Async, 3);
        let h = cfg.horizon();
        cfg.crashes = vec![
            CrashEvent {
                at_micros: h * 3 / 10,
                kind: CrashKind::CrashPrimary,
            },
            CrashEvent {
                at_micros: h * 3 / 5,
                kind: CrashKind::CrashPrimary,
            },
        ];
        cfg
    }

    /// A lossy, laggy ship stream (drops, delays) so the promoted
    /// standby is genuinely behind the dead primary's tip: the async
    /// lost tail must be exactly accounted.
    pub fn lagging_standby(seed: u64, ops: usize) -> FailoverConfig {
        let mut cfg = FailoverConfig::crash_mid_update(seed, ops);
        cfg.replication.ship_faults = FaultSpec {
            drop_probability: 0.25,
            duplicate_probability: 0.05,
            delay_probability: 0.5,
            max_delay_micros: 25 * MS,
            base_latency_micros: MS,
        };
        cfg
    }

    /// Partition the primary instead of crashing it: once a standby
    /// has been promoted, the zombie writes on its stale term (every
    /// record fenced at every standby), then heals and discards its
    /// divergent branch.
    pub fn zombie(seed: u64, ops: usize) -> FailoverConfig {
        let mut cfg = FailoverConfig::base(seed, ops, ReplicationMode::Async, 2);
        let h = cfg.horizon();
        cfg.crashes = vec![
            CrashEvent {
                at_micros: h * 2 / 5,
                kind: CrashKind::PartitionPrimary,
            },
            CrashEvent {
                at_micros: h * 3 / 5,
                kind: CrashKind::ZombieWrites(5),
            },
            CrashEvent {
                at_micros: h * 3 / 4,
                kind: CrashKind::RejoinZombie,
            },
        ];
        cfg
    }

    /// The same schedule under sync-quorum replication: acks wait for
    /// a majority, and no failover may lose an acked write. Each
    /// scheduled primary crash adds a standby, so a promotable
    /// majority (quorum overlap) outlives the whole schedule.
    pub fn sync(mut self) -> FailoverConfig {
        self.replication.mode = ReplicationMode::SyncQuorum;
        self.replication.standbys += self
            .crashes
            .iter()
            .filter(|e| e.kind == CrashKind::CrashPrimary)
            .count();
        self
    }

    /// The same schedule over a dropping/duplicating/delaying ship
    /// stream. Composed with `zombie`, this races stale-term records
    /// against the new primary's first post-promotion ship — the
    /// ordering a loss-free pipe can never produce.
    pub fn lossy(mut self) -> FailoverConfig {
        self.replication.ship_faults = FaultSpec {
            drop_probability: 0.25,
            duplicate_probability: 0.05,
            delay_probability: 0.5,
            max_delay_micros: 25 * MS,
            base_latency_micros: MS,
        };
        self
    }
}

/// A committed update's surviving snapshot: the master state right
/// after epoch `epoch` applied. Pruned when a failover rolls the
/// stream back past it.
struct EpochSnapshot {
    epoch: u64,
    state: Database,
}

/// A run's oracles and what they have found so far.
struct Audit {
    report: FailoverReport,
    /// Freshness oracle: the tally's linear master-state history.
    tally: Tally,
    /// Durability oracle: per-epoch snapshots plus the acked ledger.
    snapshots: Vec<EpochSnapshot>,
    acked_epochs: Vec<u64>,
    seen_failovers: usize,
}

impl Audit {
    /// Folds any promotions the group performed since the last check
    /// into the report, verifies the ack ledger externally, and rolls
    /// the oracles back past the barrier.
    fn absorb(&mut self, fleet: &ProxyFleet, now: Time) {
        let Audit {
            report,
            tally,
            snapshots,
            acked_epochs,
            seen_failovers,
        } = self;
        while *seen_failovers < fleet.home_failovers().len() {
            let fo = fleet.home_failovers()[*seen_failovers];
            *seen_failovers += 1;
            let external_lost_acked = acked_epochs
                .iter()
                .filter(|&&e| e > fo.promoted_applied)
                .count() as u64;
            let external_lost = snapshots
                .iter()
                .filter(|s| s.epoch > fo.promoted_applied)
                .count() as u64;
            report.ledger_consistent &= fo.lost_acked == external_lost_acked;
            // `lost_records` counts every WAL epoch in the gap; client
            // updates are a subset (barrier checkpoints carry none).
            report.ledger_consistent &= fo.lost_records >= external_lost;
            report.lost_records_total += fo.lost_records;
            report.lost_acked_total += fo.lost_acked;
            report.external_lost_acked_total += external_lost_acked;
            report.unavailable_micros_total += fo.unavailable_micros;
            snapshots.retain(|s| s.epoch <= fo.promoted_applied);
            acked_epochs.retain(|&e| e <= fo.promoted_applied);
            // The rollback: the surviving state is current again from
            // the promotion instant onward.
            tally.master_changed(now, fleet.home().database().clone());
            report.failovers.push(fo);
            tick(&mut tally.series, now, "failover");
        }
    }
}

/// What a failover run observed, with every oracle verdict.
#[derive(Debug, Default)]
pub struct FailoverReport {
    pub queries_served: u64,
    pub hits: u64,
    pub degraded_serves: u64,
    pub queries_unavailable: u64,
    /// Updates applied and acked to the client.
    pub updates_acked: u64,
    /// Sync-quorum timeouts: applied to the master but never acked.
    pub updates_applied_unacked: u64,
    pub updates_unavailable: u64,
    pub updates_rejected: u64,
    /// Every promotion the run performed, in order.
    pub failovers: Vec<FailoverRecord>,
    /// Freshness oracle: served results matching no master state
    /// current within the lease window. Must be zero.
    pub stale_beyond_lease: u64,
    pub max_observed_staleness_micros: u64,
    /// Sum of `lost_records` over all failovers (the group's account).
    pub lost_records_total: u64,
    /// Sum of `lost_acked` over all failovers (the group's account).
    pub lost_acked_total: u64,
    /// The external ack ledger's own count of acked epochs above each
    /// promotion barrier. Must equal `lost_acked_total`.
    pub external_lost_acked_total: u64,
    /// True when the group's durability account matched the external
    /// ledger at **every** failover.
    pub ledger_consistent: bool,
    /// True when the final primary state equals the newest surviving
    /// committed snapshot byte-for-byte.
    pub durability_ok: bool,
    /// PR 6 conservation: sent == applied + duplicate + recovered_over
    /// + in_flight for every proxy replica, failovers included.
    pub conservation_balanced: bool,
    /// Stale-term records rejected by standby fencing.
    pub fenced_records: u64,
    /// Writes the partitioned zombie believed it applied.
    pub zombie_writes_applied: u64,
    /// Divergent records discarded when the zombie/crashed primary
    /// rejoined.
    pub divergence_discarded: u64,
    /// Pending fanout notifications that died with a crashing primary.
    pub fanout_lost_on_crash: u64,
    /// Time the tier spent down, summed over failovers (µs).
    pub unavailable_micros_total: u64,
    /// Proxy-side gap recoveries (the `dssp.recovery_flushes` counter).
    pub recovery_flushes: u64,
    /// Failover stamps journaled on the freshness plane.
    pub failover_stamps: usize,
    pub final_epoch: u64,
    pub timeseries: Option<TimeSeries>,
}

/// Drives one failover scenario end to end and audits it.
pub fn run_failover(cfg: &FailoverConfig) -> FailoverReport {
    // The op script, populated master, and bound templates come from
    // the chaos harness so failover runs replay the same deterministic
    // workload the rest of the test plane uses.
    let sc = build_scenario(cfg.seed, cfg.ops, cfg.strategy, cfg.lease_micros, None);
    let seed_state = sc.home.database().clone();

    let app = toystore::toystore();
    let matrix = analysis_matrix(&app);
    let exposures = cfg.strategy.exposures(app.updates.len(), app.queries.len());
    let dssp_cfg = DsspConfig {
        lease_micros: cfg.lease_micros,
        ..DsspConfig::new("failover", exposures, matrix)
    };
    let fleet_cfg = FleetConfig {
        proxies: cfg.proxies,
        routing: RoutingMode::HashByTemplate,
        fanout: cfg.fanout,
        pipe_spec: cfg.pipe_faults.clone(),
        pipe_seed: cfg.seed ^ 0x666F, // "fo"
    };
    let mut fleet = ProxyFleet::replicated(dssp_cfg, sc.home, fleet_cfg, cfg.replication.clone());
    fleet.set_lease_micros(cfg.lease_micros);
    let prov = fleet.enable_provenance();

    let mut events = cfg.crashes.clone();
    events.sort_by_key(|e| e.at_micros);
    let mut next_event = 0usize;

    // Freshness oracle: the tally's linear master-state history. A
    // failover's rollback re-appends the surviving state, so validity
    // intervals stay linear even when the stream loses a branch. The
    // report splits applied updates by ack and draws no hit curve.
    let tally = Tally::new(
        seed_state.clone(),
        cfg.lease_micros,
        cfg.timeseries_bucket_micros,
        &[
            "query_served",
            "degraded_serve",
            "query_unavailable",
            "update_unavailable",
            "update_rejected",
            "stale_beyond_lease",
        ],
    );
    let mut audit = Audit {
        report: FailoverReport {
            ledger_consistent: true,
            ..FailoverReport::default()
        },
        tally,
        snapshots: Vec::new(),
        acked_epochs: Vec::new(),
        seen_failovers: 0,
    };

    let apply_event = |fleet: &mut ProxyFleet, report: &mut FailoverReport, ev: &CrashEvent| {
        match ev.kind {
            CrashKind::CrashPrimary => fleet.crash_home(),
            CrashKind::PartitionPrimary => fleet.partition_home(),
            CrashKind::ZombieWrites(zombie_writes) => {
                // The zombie serves its divergent branch: each write
                // applies locally and ships on the stale term.
                for k in 0..zombie_writes {
                    let toy = (k as i64 % 50) + 1;
                    let u = Update::bind(0, sc.updates[0].clone(), vec![Value::Int(toy)])
                        .expect("validated template");
                    if fleet
                        .home_group_mut()
                        .zombie_write(ev.at_micros, &u)
                        .is_ok()
                    {
                        report.zombie_writes_applied += 1;
                    }
                }
            }
            CrashKind::RejoinCrashed => {
                report.divergence_discarded += fleet.home_group_mut().rejoin_crashed(ev.at_micros);
            }
            CrashKind::RejoinZombie => {
                report.divergence_discarded += fleet.home_group_mut().rejoin_zombie(ev.at_micros);
            }
            CrashKind::CrashStandby(id) => fleet.home_group_mut().crash_standby(id),
            CrashKind::ReviveStandby(id) => fleet.home_group_mut().revive_standby(id),
        }
    };

    // The fleet's neutral trip policy: this harness fails the home tier,
    // not the link to it.
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    let mut clock: Time = 0;
    for op in sc.script.iter() {
        clock += cfg.op_spacing_micros;
        while next_event < events.len() && events[next_event].at_micros <= clock {
            let ev = events[next_event];
            next_event += 1;
            fleet.set_sim_time_micros(ev.at_micros);
            audit.absorb(&fleet, ev.at_micros);
            apply_event(&mut fleet, &mut audit.report, &ev);
        }
        let now = clock;
        fleet.set_sim_time_micros(now);
        audit.absorb(&fleet, now);
        let outcome = match op {
            ScriptOp::Query(q) => {
                let resp = fleet
                    .execute_query_ft(q, &link, &policy, None)
                    .expect("toystore queries never error");
                OpOutcome::of_query(resp.resp.outcome)
            }
            ScriptOp::Update(u) => {
                let resp = fleet.execute_update_ft(u, &link, &policy, None);
                if let Ok(resp) = &resp {
                    if let (FtUpdateOutcome::Applied { msg, .. }, Some(ack)) =
                        (&resp.resp.outcome, resp.ack)
                    {
                        let epoch = msg.epoch;
                        audit.snapshots.push(EpochSnapshot {
                            epoch,
                            state: fleet.home().database().clone(),
                        });
                        audit
                            .tally
                            .master_changed(now, fleet.home().database().clone());
                        if ack.acked {
                            audit.report.updates_acked += 1;
                            audit.acked_epochs.push(epoch);
                            tick(&mut audit.tally.series, now, "update_acked");
                        } else {
                            audit.report.updates_applied_unacked += 1;
                            tick(&mut audit.tally.series, now, "update_applied_unacked");
                        }
                    }
                }
                OpOutcome::of_update(&resp.map(|r| r.resp))
            }
        };
        audit.tally.record(now, op, &outcome);
    }

    // Tail: if the tier is still down (late crash), keep the clock
    // moving until the lease expires and a standby promotes, so the
    // durability oracle has a surviving primary to audit.
    let mut deadline = clock + 100 * cfg.replication.lease_micros;
    while !fleet.home_group().is_up() && clock < deadline {
        clock += cfg.replication.heartbeat_micros.max(1);
        fleet.set_sim_time_micros(clock);
        audit.absorb(&fleet, clock);
    }
    assert!(
        fleet.home_group().is_up(),
        "tier never recovered within the drain window"
    );
    // Let delayed ship traffic and invalidation pipes settle.
    deadline = clock + 60 * MS;
    while clock < deadline {
        clock += 5 * MS;
        fleet.set_sim_time_micros(clock);
        audit.absorb(&fleet, clock);
    }
    fleet.flush_fanout();
    fleet.drain();

    // ---- final audits ------------------------------------------------
    let Audit {
        mut report,
        tally,
        snapshots,
        ..
    } = audit;
    let expected = snapshots.last().map_or(&seed_state, |s| &s.state);
    report.durability_ok = fleet.home().database() == expected;
    report.final_epoch = fleet.home().epoch();
    report.fenced_records = fleet.home_group().fenced_total();
    report.fanout_lost_on_crash = fleet.fanout_lost_on_crash();
    report.recovery_flushes = fleet
        .rollup_metrics()
        .counters
        .get("dssp.recovery_flushes")
        .copied()
        .unwrap_or(0);
    {
        let log = prov.lock().expect("no concurrent holders after the run");
        report.failover_stamps = log.failovers().len();
        report.conservation_balanced =
            (0..log.replica_count()).all(|r| log.conservation(r, report.final_epoch).balanced());
    }
    report.queries_served = tally.queries_served;
    report.hits = tally.hits;
    report.degraded_serves = tally.degraded_serves;
    report.queries_unavailable = tally.queries_unavailable;
    report.updates_unavailable = tally.updates_unavailable;
    report.updates_rejected = tally.updates_rejected;
    report.stale_beyond_lease = tally.stale_beyond_lease;
    report.max_observed_staleness_micros = tally.max_observed_staleness_micros;
    report.timeseries = tally.series;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_run_never_fails_over() {
        let r = run_failover(&FailoverConfig::steady(3, 300));
        assert!(r.failovers.is_empty());
        assert_eq!(r.queries_unavailable + r.updates_unavailable, 0);
        assert_eq!(r.stale_beyond_lease, 0);
        assert!(r.durability_ok, "steady state must replay exactly");
        assert!(r.conservation_balanced);
        assert!(r.updates_acked > 0);
    }

    #[test]
    fn crash_mid_update_promotes_and_stays_durable() {
        let r = run_failover(&FailoverConfig::crash_mid_update(7, 600));
        assert_eq!(r.failovers.len(), 1);
        assert!(r.queries_unavailable + r.updates_unavailable > 0);
        assert_eq!(r.stale_beyond_lease, 0);
        assert!(r.ledger_consistent);
        assert!(r.durability_ok);
        assert!(r.conservation_balanced);
        assert!(r.failover_stamps >= 1, "failover journaled on the plane");
    }

    #[test]
    fn sync_quorum_loses_no_acked_write_here_either() {
        let r = run_failover(&FailoverConfig::crash_mid_update(11, 600).sync());
        assert_eq!(r.failovers.len(), 1);
        assert_eq!(r.lost_acked_total, 0, "sync-quorum acked write lost");
        assert_eq!(r.external_lost_acked_total, 0);
        assert!(r.ledger_consistent);
        assert!(r.durability_ok);
        assert_eq!(r.stale_beyond_lease, 0);
    }
}
