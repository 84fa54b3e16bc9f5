//! Property tests of the one scripted scenario (`scs_apps::scenario`):
//!
//! 1. under random delivery-fault schedules — pipe drops, duplicates and
//!    delays, link outages, proxy restarts — nothing served is stale
//!    beyond the lease, and injected faults show up in the counters;
//! 2. with every fault disabled the run answers op for op what the
//!    classic synchronous pipeline does (`support/classic.rs`);
//! 3. under home-tier crash schedules the group's loss account matches
//!    the external ack ledger, sync-quorum loses no acked write, zombie
//!    writes are fenced and discarded, the surviving primary equals the
//!    oracle's replay, and conservation balances on every replica;
//! 4. all of it composed in one scenario keeps every oracle;
//! 5. every constructor accounts for every op exactly once.
//!
//! `SCS_SCENARIO_CASES` sets the case count (default 24; the home-tier
//! properties run half as many).

#[path = "support/classic.rs"]
mod classic;

use proptest::prelude::*;
use scs_apps::report::fault_total;
use scs_apps::{CrashEvent, CrashKind, LoadProfile, Scenario, ScenarioReport};
use scs_dssp::{
    Home, HomeGroup, HomeServer, ReplicationConfig, ReplicationMode, RetryPolicy, StrategyKind,
};
use scs_netsim::{FaultSpec, Time, MS};
use scs_sqlkit::Value;
use scs_storage::{ColumnType, Database, TableSchema};
use std::collections::HashMap;

fn cases() -> u32 {
    std::env::var("SCS_SCENARIO_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff_micros: 5 * MS,
        max_backoff_micros: 40 * MS,
        timeout_micros: 100 * MS,
        jitter: false,
    }
}

/// Each op lands in exactly one outcome count.
fn assert_accounted(r: &ScenarioReport, ops: usize) {
    assert_eq!(
        r.updates_applied,
        r.updates_acked + r.updates_applied_unacked
    );
    assert_eq!(
        r.queries_served
            + r.queries_unavailable
            + r.updates_acked
            + r.updates_applied_unacked
            + r.updates_unavailable
            + r.updates_rejected
            + r.shed,
        ops as u64
    );
    assert_eq!(r.outcomes.len(), ops);
    assert!(r.shed >= r.queue_rejections);
}

/// The oracles every scenario must satisfy, whatever it turns on.
fn assert_oracles(name: &str, seed: u64, r: &ScenarioReport) {
    assert_eq!(r.stale_beyond_lease, 0, "{name}: stale serve (seed {seed})");
    assert!(
        r.ledger_consistent,
        "{name}: loss account != ledger (seed {seed})"
    );
    assert!(
        r.durability_ok,
        "{name}: state != oracle replay (seed {seed})"
    );
    assert!(
        r.conservation_balanced,
        "{name}: conservation (seed {seed})"
    );
    assert_eq!(
        r.lost_acked_total, r.external_lost_acked_total,
        "{name} (seed {seed})"
    );
}

fn crash_schedule(ix: usize, seed: u64, ops: usize) -> (&'static str, Scenario) {
    match ix {
        0 => ("crash_mid_update", Scenario::crash_mid_update(seed, ops)),
        1 => ("crash_mid_fanout", Scenario::crash_mid_fanout(seed, ops)),
        2 => ("double_failover", Scenario::double_failover(seed, ops)),
        _ => ("lagging_standby", Scenario::lagging_standby(seed, ops)),
    }
}

/// Every feature in one value: three proxies over lossy pipes, random
/// link outages and proxy restarts, a primary crash and rejoin, then a
/// zombie partition, async or sync replication over a clean or lossy
/// ship stream, and the overload gate over a bounded home queue at twice
/// the base arrival rate.
fn composed(seed: u64, ops: usize, sync: bool, lossy: bool) -> Scenario {
    let mut sc = Scenario {
        proxies: 3,
        load: LoadProfile::constant(2.0),
        lease_micros: Some(100 * MS),
        pipe_faults: FaultSpec {
            drop_probability: 0.05,
            duplicate_probability: 0.05,
            delay_probability: 0.30,
            max_delay_micros: 20 * MS,
            base_latency_micros: MS,
        },
        retry: retries(),
        home_queue: Scenario::spike_demo(seed).home_queue,
        ..Scenario::faultless(seed, ops)
    }
    .random_outages(300 * MS, 30 * MS)
    .random_restarts(100 * MS);
    sc.replication.standbys = 2;
    // The run lasts ops × spacing / 2 at twice the base rate.
    let h = ops as Time * sc.op_spacing_micros / 2;
    for (num, kind) in [
        (2, CrashKind::CrashPrimary),
        (4, CrashKind::RejoinCrashed),
        (5, CrashKind::PartitionPrimary),
        (8, CrashKind::ZombieWrites(5)),
        (9, CrashKind::RejoinZombie),
    ] {
        sc.events.push(CrashEvent {
            at_micros: h * num / 10,
            kind,
        });
    }
    if sync {
        sc = sc.sync();
    }
    if lossy {
        sc = sc.lossy();
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Under an arbitrary delivery-fault schedule nothing served is stale
    /// beyond the lease.
    #[test]
    fn random_fault_schedules_never_exceed_the_lease(
        seed in 0u64..1_000_000,
        ops in 300usize..800,
        drop_pct in 0u32..=30,
        dup_pct in 0u32..=20,
        delay_pct in 0u32..=50,
        max_delay_ms in 1u64..80,
        lease_ms in 50u64..400,
        strategy_ix in 0usize..4,
        with_outage in any::<bool>(),
        with_restarts in any::<bool>(),
    ) {
        let lease = lease_ms * MS;
        let mut sc = Scenario {
            lease_micros: Some(lease),
            strategy: StrategyKind::ALL[strategy_ix],
            pipe_faults: FaultSpec {
                drop_probability: drop_pct as f64 / 100.0,
                duplicate_probability: dup_pct as f64 / 100.0,
                delay_probability: delay_pct as f64 / 100.0,
                max_delay_micros: max_delay_ms * MS,
                base_latency_micros: MS,
            },
            retry: retries(),
            ..Scenario::faultless(seed, ops)
        };
        if with_outage {
            sc = sc.random_outages(1_500 * MS, 80 * MS);
        }
        if with_restarts {
            sc = sc.random_restarts(500 * MS);
        }
        // A restart instant at or before the last arrival must fire.
        let last_arrival = ops as Time * sc.op_spacing_micros;
        let restart_due = sc.events.iter().any(|e| e.at_micros <= last_arrival);
        let report = sc.run();
        prop_assert!(
            !restart_due || report.counter("restarts") > 0,
            "a scheduled restart never fired (seed {})", seed
        );
        prop_assert_eq!(report.stale_beyond_lease, 0, "seed {}", seed);
        prop_assert!(
            report.max_observed_staleness_micros <= lease,
            "staleness {} exceeds lease {} (seed {})",
            report.max_observed_staleness_micros, lease, seed
        );
        assert_accounted(&report, ops);
    }

    /// All fault surfaces off ⇒ the classic pipeline's responses, and no
    /// fault handling at all.
    #[test]
    fn disabled_faults_reproduce_the_classic_pipeline(
        seed in 0u64..1_000_000,
        ops in 100usize..400,
    ) {
        let sc = Scenario::faultless(seed, ops);
        let report = sc.run();
        prop_assert_eq!(&report.outcomes, &classic::run_classic(&sc));
        prop_assert_eq!(fault_total(&report.metrics), 0);
        prop_assert_eq!(report.stale_beyond_lease, 0);
        prop_assert_eq!(report.max_observed_staleness_micros, 0);
    }

    /// Injection on ⇒ the proxies record fault handling, and a dropped
    /// notification leaves a trace (a gap, a restart or an expiry).
    #[test]
    fn injected_faults_show_up_in_telemetry(seed in 0u64..1_000_000) {
        let r = Scenario::chaotic(seed, 600).run();
        prop_assert!(fault_total(&r.metrics) > 0, "no fault telemetry (seed {})", seed);
        if r.channel.dropped > 0 {
            prop_assert!(
                r.counter("epoch_gaps") + r.counter("restarts") + r.counter("lease_expirations") > 0,
                "drops left no trace (seed {})", seed
            );
        }
    }

    /// Every constructor, with or without its variants, accounts for every
    /// op exactly once — a read the home queue rejects included.
    #[test]
    fn every_op_is_accounted_once(seed in 0u64..1_000_000, ctor in 0usize..12) {
        let ops = 500;
        let sc = match ctor {
            0 => Scenario::faultless(seed, ops),
            1 => Scenario::chaotic(seed, ops),
            2 => Scenario::outage_demo(seed, ops),
            3 => Scenario { ops, ..Scenario::spike_demo(seed) },
            4 => Scenario { ops, ..Scenario::sweep_point(seed).unprotected() },
            5 => Scenario::steady(seed, ops),
            6 => Scenario::crash_mid_update(seed, ops).sync(),
            7 => Scenario::crash_mid_fanout(seed, ops),
            8 => Scenario::double_failover(seed, ops),
            9 => Scenario::lagging_standby(seed, ops),
            10 => Scenario::zombie(seed, ops).lossy(),
            _ => composed(seed, ops, false, false),
        };
        assert_accounted(&sc.run(), ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases() / 2))]

    /// Every crash schedule, async: failovers happen, the lost tail is
    /// exactly accounted, and the freshness and durability oracles hold.
    #[test]
    fn async_crash_schedules_stay_accounted(
        seed in 0u64..1_000_000,
        ops in 400usize..800,
        ix in 0usize..4,
    ) {
        let (name, sc) = crash_schedule(ix, seed, ops);
        let r = sc.run();
        prop_assert_eq!(r.failovers.len(), if ix == 2 { 2 } else { 1 }, "{} (seed {})", name, seed);
        prop_assert!(r.queries_unavailable + r.updates_unavailable > 0, "{} (seed {})", name, seed);
        // Promotion happens within the lease plus two heartbeats a failover.
        let bound = r.failovers.len() as u64
            * (sc.replication.lease_micros + 2 * sc.replication.heartbeat_micros);
        prop_assert!(r.unavailable_micros_total <= bound, "{} (seed {})", name, seed);
        assert_oracles(name, seed, &r);
    }

    /// The same schedules under sync-quorum: zero acked writes lost, ever.
    #[test]
    fn sync_quorum_never_loses_an_acked_write(
        seed in 0u64..1_000_000,
        ops in 400usize..800,
        ix in 0usize..4,
    ) {
        let (name, sc) = crash_schedule(ix, seed, ops);
        let r = sc.sync().run();
        prop_assert_eq!(r.lost_acked_total, 0, "{} (seed {})", name, seed);
        prop_assert!(!r.failovers.is_empty(), "{} (seed {})", name, seed);
        assert_oracles(name, seed, &r);
    }

    /// Stale-term writes are fenced at every standby and the divergent
    /// branch is discarded on rejoin. Lossy, a zombie record can reach a
    /// standby before the new primary's first post-promotion ship.
    #[test]
    fn zombie_writes_are_fenced_and_discarded(
        seed in 0u64..1_000_000,
        ops in 400usize..800,
        sync in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let mut sc = Scenario::zombie(seed, ops);
        if sync {
            sc = sc.sync();
        }
        if lossy {
            sc = sc.lossy();
        }
        let r = sc.run();
        prop_assert_eq!(r.failovers.len(), 1, "seed {}", seed);
        prop_assert_eq!(r.zombie_writes_applied, 5, "seed {}", seed);
        // A lossy pipe may drop every stale-term send before a standby
        // sees one.
        prop_assert!(lossy || r.fenced_records > 0, "nothing fenced (seed {})", seed);
        prop_assert!(r.divergence_discarded >= r.zombie_writes_applied, "seed {}", seed);
        assert_oracles("zombie", seed, &r);
    }

    /// Everything at once, under one seed: the lease bound, durability,
    /// the ack ledger and conservation hold together.
    #[test]
    fn the_composed_scenario_keeps_every_oracle(
        seed in 0u64..1_000_000,
        ops in 800usize..1_200,
        sync in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let sc = composed(seed, ops, sync, lossy);
        let r = sc.run();
        prop_assert!(r.max_observed_staleness_micros <= sc.lease_micros.unwrap(), "seed {}", seed);
        prop_assert_eq!(r.failovers.len(), 2, "crash + partition (seed {})", seed);
        assert_oracles("composed", seed, &r);
        assert_accounted(&r, ops);
    }
}

/// Zombie writes fired before any standby is promoted ship on the
/// current term: the standbys accept them, the promoted primary holds
/// them, and the durability oracle (which journals client updates only)
/// sees a state it never recorded. Minimised from the composed schedule
/// with `ZombieWrites` moved ahead of the promotion.
#[test]
#[ignore = "zombie writes before promotion reach standbys on the same term"]
fn zombie_writes_before_promotion_stay_durable() {
    let mut sc = Scenario::zombie(1, 100);
    // Fire the writes at the partition instant, before detection.
    sc.events[1].at_micros = sc.events[0].at_micros;
    sc.events[1].kind = CrashKind::ZombieWrites(1);
    let r = sc.run();
    assert_eq!(r.failovers.len(), 1);
    assert_oracles("zombie before promotion", 1, &r);
}

/// A scripted restart of a replica that is not live is refused, and a
/// refused injection is a no-op: the run completes with the faultless
/// run's outcomes.
#[test]
fn restarting_a_replica_that_is_not_live_is_a_no_op() {
    let mut sc = Scenario::faultless(7, 40);
    sc.events.push(CrashEvent {
        at_micros: 5_000,
        kind: CrashKind::RestartProxy(3),
    });
    let r = sc.run();
    assert_eq!(r.outcomes, Scenario::faultless(7, 40).run().outcomes);
    assert_eq!(r.counter("restarts"), 0);
}

/// A partitioned zombie's writes never pass through a proxy, so they
/// commit nothing on the freshness plane: every stream's commits stay
/// unique per epoch and ascend, as the promoted primary issues them.
#[test]
fn zombie_writes_commit_nothing_on_the_freshness_plane() {
    for seed in 0..4 {
        let r = Scenario::zombie(seed, 600).run();
        assert_eq!(r.zombie_writes_applied, 5, "seed {seed}");
        let log = scs_telemetry::lock(&r.provenance);
        let mut last: HashMap<u64, u64> = HashMap::new();
        for c in log.commits() {
            let before = last.insert(c.stream, c.epoch);
            assert!(
                before.is_none_or(|b| b < c.epoch),
                "seed {seed}: stream {} commits epoch {} after {before:?}",
                c.stream,
                c.epoch
            );
        }
    }
}

/// An out-of-band `mutate_database` write lands in the WAL, replicates,
/// survives a primary crash + failover, and surfaces to the proxies as
/// exactly one recoverable stream gap.
#[test]
fn out_of_band_mutation_survives_crash_and_costs_one_gap() {
    let schema = TableSchema::builder("kv")
        .column("k", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["k"])
        .build()
        .expect("static schema");
    let mut db = Database::new();
    db.create_table(schema).expect("fresh database");
    db.insert_row("kv", vec![Value::Int(1), Value::Int(10)])
        .expect("static row");

    let mut g = HomeGroup::new(
        HomeServer::new(db),
        ReplicationConfig::group(ReplicationMode::Async, 2),
    );
    assert_eq!(g.epoch(), 0);

    // The out-of-band write: no Update statement, no invalidation
    // message — a direct master mutation. It consumes a WAL epoch as a
    // checkpoint record.
    let epoch_before = g.epoch();
    g.primary_mut().mutate_database(|db| {
        db.insert_row("kv", vec![Value::Int(2), Value::Int(20)])
            .expect("fresh key");
    });
    assert!(g.commit_write(0, 0).acked);
    assert_eq!(g.epoch(), epoch_before + 1, "mutation consumed an epoch");

    // Replicate, then kill the primary before it ever fans out.
    g.tick(10_000);
    g.crash_primary(20_000).unwrap();
    let mut now = 20_000;
    let fo = loop {
        now += 5_000;
        if let Some(fo) = g.tick(now) {
            break fo;
        }
        assert!(now < 1_000_000, "no promotion");
    };
    assert_eq!(fo.lost_records, 0, "the mutation had replicated");

    // The write survived the crash byte-for-byte.
    let q = scs_sqlkit::Query::bind(
        0,
        std::sync::Arc::new(scs_sqlkit::parse_query("SELECT v FROM kv WHERE k = ?").unwrap()),
        vec![Value::Int(2)],
    )
    .unwrap();
    let res = g.primary().database().execute(&q).expect("valid query");
    assert_eq!(res.rows, vec![vec![Value::Int(20)]]);

    // The mutation's epoch never produced an invalidation message, and
    // the promotion barrier opened past it: a proxy synced before the
    // mutation sees exactly one gap and recovers with one flush.
    assert_eq!(fo.barrier_epoch, epoch_before + 2);
}
