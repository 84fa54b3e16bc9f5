//! The compositions one request pipeline makes expressible, each under
//! one oracle — an unpartitioned shadow master fed every accepted update
//! (the shape of the benchmark's sharded oracle) that checks every
//! answer:
//!
//! * overload protection (admission, breaker, brownout) and a flaky home
//!   link with a retrying policy in front of a **sharded** home — one
//!   `Dssp`, the general pair, a 4-shard [`ShardedHome`];
//! * the same trip policy through a **fleet**: three proxies over lossy,
//!   duplicating pipes with batched fanout, a sync-quorum home group
//!   whose primary crashes mid-run, jittered retries into scripted link
//!   outages, a queue that saturates for a window, one join and one
//!   leave.
//!
//! And the pins that the policy arguments cost nothing: at the neutral
//! policy the general pair is op for op the classic pair, on a `Dssp`
//! and on a `ProxyFleet`; no `OverloadConfig` or no queue snapshot is
//! the ungated pipeline.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    AdmissionConfig, BreakerConfig, BrownoutConfig, Dssp, DsspConfig, DsspStats, FanoutConfig,
    FleetConfig, FtOutcome, FtUpdateOutcome, HomeLink, HomeServer, OverloadConfig, ProxyFleet,
    QueueState, ReplicationConfig, ReplicationMode, RetryPolicy, RoutingMode, ShardedHome,
    StrategyKind,
};
use scs_netsim::FaultSpec;
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, PartitionMap, TablePlacement, TableSchema};
use scs_telemetry::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const SHARDS: usize = 4;
const USERS: i64 = 6;
const ITEMS: i64 = 12;
const LEASE: u64 = 200_000;
const DEADLINE: u64 = 50_000;

struct App {
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
    config: DsspConfig,
    db: Database,
}

/// `users` and `items` (FK `seller` → `users`), both hash-split over
/// all four shards, so a child's parent usually lives on another shard.
fn app(overload: Option<OverloadConfig>) -> App {
    let schemas = vec![
        TableSchema::builder("users")
            .column("user_id", ColumnType::Int)
            .primary_key(&["user_id"])
            .build()
            .unwrap(),
        TableSchema::builder("items")
            .column("item_id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .primary_key(&["item_id"])
            .index("seller")
            .foreign_key(&["seller"], "users", &["user_id"])
            .build()
            .unwrap(),
    ];
    let mut db = Database::new();
    for s in &schemas {
        db.create_table(s.clone()).unwrap();
    }
    for id in 0..USERS {
        db.insert_row("users", vec![Value::Int(id)]).unwrap();
    }
    for id in 0..ITEMS / 2 {
        db.insert_row("items", vec![Value::Int(id), Value::Int(id % USERS)])
            .unwrap();
    }
    let queries: Vec<Arc<QueryTemplate>> = [
        // Pinned by the partition column: routed to one shard.
        "SELECT seller FROM items WHERE item_id = ?",
        // Not pinned: scattered over all four.
        "SELECT item_id FROM items WHERE seller = ?",
    ]
    .iter()
    .map(|sql| Arc::new(parse_query(sql).unwrap()))
    .collect();
    let updates: Vec<Arc<UpdateTemplate>> = [
        // Refused when the seller is on no shard (the cross-shard FK
        // handshake) or the id is taken.
        "INSERT INTO items (item_id, seller) VALUES (?, ?)",
        "DELETE FROM items WHERE item_id = ?",
    ]
    .iter()
    .map(|sql| Arc::new(parse_update(sql).unwrap()))
    .collect();
    let matrix = characterize_app(
        &updates,
        &queries,
        &Catalog::new(schemas),
        AnalysisOptions::default(),
    );
    let exposures = StrategyKind::ViewInspection.exposures(updates.len(), queries.len());
    let config = DsspConfig {
        lease_micros: Some(LEASE),
        overload,
        ..DsspConfig::new("compose", exposures, matrix)
    };
    App {
        queries,
        updates,
        config,
        db,
    }
}

fn shard_map() -> PartitionMap {
    let hash = |column: &str| TablePlacement::Hash {
        column: column.into(),
    };
    PartitionMap::by_table(SHARDS)
        .with_placement("users", hash("user_id"))
        .with_placement("items", hash("item_id"))
}

fn protection() -> OverloadConfig {
    OverloadConfig {
        admission: AdmissionConfig {
            deadline_micros: DEADLINE,
            service_estimate_micros: 1_000,
            max_queue_depth: None,
        },
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_micros: 20_000,
        },
        brownout: BrownoutConfig {
            window_micros: 50_000,
            shed_ratio_threshold: 0.5,
            min_offered: 4,
        },
    }
}

/// The whole backoff budget of [`retrying`]: a trip offered at `t` makes
/// its last attempt no later than `t + RETRY_BUDGET`.
const RETRY_BUDGET: u64 = 40_000;

fn retrying(jitter: bool) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff_micros: 2_000,
        max_backoff_micros: 8_000,
        timeout_micros: RETRY_BUDGET,
        jitter,
    }
}

/// Whether one outage covers every instant a trip offered at `now` can
/// attempt at.
fn down_throughout(outages: &[(u64, u64)], now: u64) -> bool {
    outages
        .iter()
        .any(|&(start, end)| start <= now && now + RETRY_BUDGET < end)
}

/// Records the kind of every trace event a proxy emits, in order.
struct KindSink(Arc<Mutex<Vec<&'static str>>>);

impl TraceSink for KindSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.kind.name());
    }
}

fn traced(dssp: &mut Dssp) -> Arc<Mutex<Vec<&'static str>>> {
    let kinds = Arc::new(Mutex::new(Vec::new()));
    dssp.add_trace_sink(Box::new(KindSink(kinds.clone())));
    kinds
}

#[derive(Debug, Clone)]
enum Op {
    Advance {
        dt: u64,
    },
    Keyed {
        item: i64,
    },
    BySeller {
        user: i64,
    },
    /// `seller` ranges past the users that exist.
    Insert {
        item: i64,
        seller: i64,
    },
    Delete {
        item: i64,
    },
}

/// An operation and whether the home-side queue it meets is past the
/// admission deadline.
fn op() -> impl Strategy<Value = (Op, bool)> {
    let op = prop_oneof![
        2 => (1u64..30_000).prop_map(|dt| Op::Advance { dt }),
        4 => (0..ITEMS).prop_map(|item| Op::Keyed { item }),
        3 => (0..USERS).prop_map(|user| Op::BySeller { user }),
        3 => (0..ITEMS, 0..USERS + 2).prop_map(|(item, seller)| Op::Insert { item, seller }),
        2 => (0..ITEMS).prop_map(|item| Op::Delete { item }),
    ];
    (op, (0u32..100).prop_map(|p| p < 15))
}

/// Up to four outage windows over the ~0.3 s a script's advances span.
fn outages() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..300_000, 5_000u64..80_000), 0..5)
        .prop_map(|w| w.into_iter().map(|(at, len)| (at, at + len)).collect())
}

fn cases() -> u32 {
    std::env::var("SCS_SCENARIO_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

impl App {
    fn query(&self, op: &Op) -> Option<Query> {
        let (tid, v) = match *op {
            Op::Keyed { item } => (0, item),
            Op::BySeller { user } => (1, user),
            _ => return None,
        };
        Some(Query::bind(tid, self.queries[tid].clone(), vec![Value::Int(v)]).unwrap())
    }

    fn update(&self, op: &Op) -> Option<Update> {
        let (tid, params) = match *op {
            Op::Insert { item, seller } => (0, vec![item, seller]),
            Op::Delete { item } => (1, vec![item]),
            _ => return None,
        };
        let params = params.into_iter().map(Value::Int).collect();
        Some(Update::bind(tid, self.updates[tid].clone(), params).unwrap())
    }
}

fn queue(doomed: bool) -> QueueState {
    QueueState {
        projected_wait_micros: if doomed { DEADLINE + 1 } else { 0 },
        depth: usize::from(doomed),
    }
}

/// Every shard's epoch and WAL length: what a refused, shed or
/// unavailable update must leave as it was.
fn tier_state(home: &ShardedHome) -> Vec<(u64, usize)> {
    (0..home.shard_count())
        .map(|s| (home.epoch_of(s), home.shard(s).wal().len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Overload protection and a flaky link in front of four shards,
    /// checked against the shadow master at every step.
    #[test]
    fn guarded_flaky_pipeline_over_four_shards_matches_the_master(
        script in proptest::collection::vec(op(), 1..120),
        outages in outages(),
    ) {
        let app = app(Some(protection()));
        let mut master = app.db.clone();
        let mut home = ShardedHome::new(app.db.clone(), shard_map());
        let mut dssp = Dssp::new(app.config.clone());
        let link = HomeLink::with_outages(outages);
        let policy = retrying(false);
        let mut now = 0u64;
        // When each query instance was last filled from the home.
        let mut filled_at: HashMap<String, u64> = HashMap::new();
        for (op, doomed) in &script {
            if let Op::Advance { dt } = *op {
                now += dt;
                dssp.set_sim_time_micros(now);
                home.set_sim_time_micros(now);
                continue;
            }
            let before = tier_state(&home);
            if let Some(q) = app.query(op) {
                let resp = dssp
                    .execute_query_ft(&q, &mut home, &link, &policy, Some(&queue(*doomed)))
                    .unwrap();
                match resp.outcome {
                    FtOutcome::Served { result, hit, degraded } => {
                        // Notifications are delivered as they are issued,
                        // so a hit is as fresh as a miss.
                        prop_assert!(
                            result.multiset_eq(&master.execute(&q).unwrap()),
                            "{} served {:?} (hit: {})", q, result.rows, hit
                        );
                        if hit {
                            let filled = filled_at[&q.to_string()];
                            prop_assert!(now <= filled + LEASE, "{} served past its lease", q);
                        } else {
                            prop_assert!(!degraded, "a miss came from the home");
                            filled_at.insert(q.to_string(), now);
                        }
                    }
                    FtOutcome::Unavailable => {
                        prop_assert!(!link.is_up(now), "{} unavailable on an up link", q);
                    }
                    FtOutcome::Shed(_) => {}
                }
                prop_assert_eq!(tier_state(&home), before, "a query wrote");
                continue;
            }
            let u = app.update(op).expect("queries and advances are handled");
            match dssp.execute_update_ft(&u, &mut home, &link, &policy, Some(&queue(*doomed))) {
                Ok(resp) => match resp.outcome {
                    FtUpdateOutcome::Applied { effect, stream, msg } => {
                        let mut after = before.clone();
                        after[stream as usize].0 += 1;
                        after[stream as usize].1 += 1;
                        prop_assert_eq!(tier_state(&home), after, "one epoch, on the owner");
                        prop_assert_eq!(msg.epoch, home.epoch_of(stream as usize));
                        prop_assert_eq!(master.apply(&u).unwrap(), effect);
                        dssp.apply_invalidation_from(stream, &msg);
                    }
                    FtUpdateOutcome::Unavailable | FtUpdateOutcome::Shed(_) => {
                        prop_assert_eq!(tier_state(&home), before, "a shed update wrote");
                    }
                },
                Err(refused) => {
                    // The FK handshake or a taken key: no epoch on any
                    // stream, and the unpartitioned master agrees.
                    prop_assert_eq!(tier_state(&home), before, "a refused update wrote");
                    prop_assert_eq!(master.apply(&u).unwrap_err(), refused);
                }
            }
        }
        for s in 0..SHARDS {
            prop_assert_eq!(dssp.epoch_of(s as u64), home.epoch_of(s), "stream {}", s);
        }
        prop_assert_eq!(dssp.metrics().counters["dssp.epoch_gaps"], 0);
    }

    /// At the neutral policy — a reliable link, no retries, and either no
    /// `OverloadConfig` or no queue snapshot — the general pair is op for
    /// op the classic pair: same answers and hit pattern, same refusals,
    /// the whole `DsspStats`, the same trace-event sequence and
    /// per-stream cursors, and nothing shed however doomed the queue.
    #[test]
    fn neutral_policy_on_a_dssp_is_the_classic_pair(
        script in proptest::collection::vec(op(), 1..120),
    ) {
        let classic = dssp_trail(&app(None), &script, None);
        let unconfigured = dssp_trail(&app(None), &script, Some(true));
        let no_snapshot = dssp_trail(&app(Some(protection())), &script, Some(false));
        prop_assert_eq!(&unconfigured, &classic, "no `OverloadConfig`");
        prop_assert_eq!(&no_snapshot, &classic, "no queue snapshot");
    }

    /// The same pin one layer up: a fleet's general pair at the neutral
    /// policy is its classic pair — which replica served, every answer
    /// and ack, the rolled-up `DsspStats`, fanout accounting and every
    /// replica's trace-event sequence.
    #[test]
    fn neutral_policy_on_a_fleet_is_the_classic_pair(
        script in proptest::collection::vec(op(), 1..120),
    ) {
        prop_assert_eq!(fleet_trail(&script, true), fleet_trail(&script, false));
    }

    /// The trip policy through a fleet, every feature at once: three
    /// proxies (one joins, one leaves) over lossy, duplicating pipes with
    /// batched fanout; a sync-quorum home group whose primary crashes and
    /// is replaced mid-run; scripted link outages met with jittered
    /// retries; overload protection fed a queue that saturates for a
    /// window. Every served miss equals the shadow master, every hit is
    /// within its lease, every shed, unavailable or refused operation
    /// leaves the home's epoch and every replica's cursor where they
    /// were, no acked write is lost, and the provenance ledger balances.
    #[test]
    fn guarded_flaky_fleet_over_a_replicated_home_matches_the_master(
        script in proptest::collection::vec(op(), 20..120),
        outages in outages(),
        saturated in (0u64..300_000, 10_000u64..100_000),
        (crash_at, join_at, leave_at) in (0usize..120, 0usize..120, 0usize..120),
        seed in 0u64..1_000,
    ) {
        let app = app(Some(protection()));
        let mut master = app.db.clone();
        let mut replication = ReplicationConfig::group(ReplicationMode::SyncQuorum, 2);
        replication.seed = seed;
        let mut fleet = ProxyFleet::replicated(
            app.config.clone(),
            HomeServer::new(app.db.clone()),
            FleetConfig {
                proxies: 3,
                routing: RoutingMode::HashByTemplate,
                fanout: FanoutConfig::batched(3, 10_000),
                pipe_spec: FaultSpec {
                    drop_probability: 0.1,
                    duplicate_probability: 0.1,
                    delay_probability: 0.3,
                    max_delay_micros: 20_000,
                    base_latency_micros: 1_000,
                },
                pipe_seed: seed,
            },
            replication,
        );
        fleet.set_lease_micros(Some(LEASE));
        let prov = fleet.enable_provenance();
        let link = HomeLink::with_outages(outages.clone());
        let policy = retrying(true);
        let saturated = saturated.0..saturated.0 + saturated.1;
        let mut now = 0u64;
        let mut failovers = 0usize;
        let mut filled_at: HashMap<String, u64> = HashMap::new();
        for (i, (op, _)) in script.iter().enumerate() {
            if i == crash_at % script.len() && fleet.home_group().is_up() {
                fleet.crash_home();
            }
            if i == join_at % script.len() {
                fleet.add_replica();
            }
            if i == leave_at % script.len() {
                fleet.remove_replica(fleet.replica_ids()[0]);
            }
            if let Op::Advance { dt } = *op {
                now += dt;
                fleet.set_sim_time_micros(now);
                if fleet.home_failovers().len() > failovers {
                    failovers += 1;
                    let promoted = fleet.home_failovers()[failovers - 1];
                    prop_assert_eq!(promoted.lost_acked, 0, "a quorum-acked write was lost");
                    prop_assert!(fleet.home().database() == &master, "promotion changed the master");
                }
                continue;
            }
            // Deliver what is due at `now` first: from here only the
            // operation itself can move a cursor.
            fleet.pump_all();
            let cursors = |fleet: &ProxyFleet| -> Vec<(usize, u64)> {
                let ids = fleet.replica_ids();
                ids.into_iter().map(|id| (id, fleet.proxy(id).epoch())).collect()
            };
            let before = (fleet.home_group().epoch(), cursors(&fleet));
            let queue = queue(saturated.contains(&now));
            let reachable = fleet.home_group().is_up() && !down_throughout(&outages, now);
            if let Some(q) = app.query(op) {
                let resp = fleet.execute_query_ft(&q, &link, &policy, Some(&queue)).unwrap();
                match resp.resp.outcome {
                    FtOutcome::Served { result, hit: false, degraded } => {
                        prop_assert!(reachable, "{} fetched through a dead link or tier", q);
                        prop_assert!(!degraded, "a miss came from the home");
                        prop_assert!(
                            result.multiset_eq(&master.execute(&q).unwrap()),
                            "{} fetched {:?}", q, result.rows
                        );
                        filled_at.insert(q.to_string(), now);
                    }
                    FtOutcome::Served { .. } => {
                        let filled = filled_at[&q.to_string()];
                        prop_assert!(now <= filled + LEASE, "{} served past its lease", q);
                    }
                    FtOutcome::Unavailable => {
                        let up = link.is_up(now) && fleet.home_group().is_up();
                        prop_assert!(!up, "{} unavailable on an up link to an up tier", q);
                    }
                    FtOutcome::Shed(_) => {}
                }
                prop_assert_eq!(fleet.home_group().epoch(), before.0, "a query wrote");
                continue;
            }
            let u = app.update(op).expect("queries and advances are handled");
            match fleet.execute_update_ft(&u, &link, &policy, Some(&queue)) {
                Ok(resp) => match resp.resp.outcome {
                    FtUpdateOutcome::Applied { effect, msg, .. } => {
                        prop_assert!(reachable, "{} applied through a dead link or tier", u);
                        prop_assert_eq!(msg.epoch, before.0 + 1, "one epoch");
                        prop_assert!(resp.ack.is_some_and(|ack| ack.acked), "reliable ship pipes");
                        prop_assert_eq!(master.apply(&u).unwrap(), effect);
                    }
                    FtUpdateOutcome::Unavailable | FtUpdateOutcome::Shed(_) => {
                        prop_assert!(resp.ack.is_none());
                        prop_assert_eq!(
                            (fleet.home_group().epoch(), cursors(&fleet)),
                            before,
                            "a shed update wrote"
                        );
                    }
                },
                Err(refused) => {
                    prop_assert_eq!(
                        (fleet.home_group().epoch(), cursors(&fleet)),
                        before,
                        "a refused update wrote"
                    );
                    prop_assert_eq!(master.apply(&u).unwrap_err(), refused);
                }
            }
        }
        // Ride out a late crash, then let every pipe settle.
        while !fleet.home_group().is_up() {
            now += 10_000;
            fleet.set_sim_time_micros(now);
        }
        fleet.set_sim_time_micros(now + 100_000);
        fleet.drain();
        prop_assert!(fleet.home().database() == &master, "the tier diverged from the master");
        let final_epoch = fleet.home().epoch();
        let log = prov.lock().unwrap();
        for r in 0..log.replica_count() {
            let ledger = log.conservation_on(r, 0, final_epoch);
            prop_assert!(ledger.balanced(), "replica {}: {:?}", r, ledger);
        }
    }
}

/// What a run through one pair of a `Dssp` leaves behind.
#[derive(Debug, PartialEq)]
struct Trail {
    /// Every answer, ack and refusal, rendered.
    answers: Vec<String>,
    stats: Vec<DsspStats>,
    kinds: Vec<Vec<&'static str>>,
    epochs: Vec<u64>,
}

/// Runs `script` over four shards through the classic pair (`general:
/// None`) or through the general pair at the neutral link and retry
/// policy, passing the queue snapshot or not.
fn dssp_trail(app: &App, script: &[(Op, bool)], general: Option<bool>) -> Trail {
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    let mut home = ShardedHome::new(app.db.clone(), shard_map());
    let mut dssp = Dssp::new(app.config.clone());
    let kinds = traced(&mut dssp);
    let mut answers = Vec::new();
    let mut now = 0u64;
    for (op, doomed) in script {
        if let Op::Advance { dt } = *op {
            now += dt;
            dssp.set_sim_time_micros(now);
            continue;
        }
        let queue = queue(*doomed);
        let queue = general.and_then(|pass| pass.then_some(&queue));
        if let Some(q) = app.query(op) {
            answers.push(match general {
                None => {
                    let resp = dssp.execute_query(&q, &mut home).unwrap();
                    format!("{:?}", (resp.result, resp.hit))
                }
                Some(_) => match dssp.execute_query_ft(&q, &mut home, &link, &policy, queue) {
                    Ok(resp) => match resp.outcome {
                        FtOutcome::Served {
                            result,
                            hit,
                            degraded: false,
                        } => format!("{:?}", (result, hit)),
                        other => format!("{other:?}"),
                    },
                    Err(e) => format!("{e:?}"),
                },
            });
            continue;
        }
        let u = app.update(op).expect("queries and advances are handled");
        answers.push(match general {
            None => format!("{:?}", dssp.execute_update(&u, &mut home).map(|r| r.effect)),
            Some(_) => match dssp.execute_update_ft(&u, &mut home, &link, &policy, queue) {
                Ok(resp) => match resp.outcome {
                    FtUpdateOutcome::Applied {
                        effect,
                        stream,
                        msg,
                    } => {
                        dssp.apply_invalidation_from(stream, &msg);
                        format!("{:?}", Ok::<_, ()>(effect))
                    }
                    other => format!("{other:?}"),
                },
                Err(e) => format!("{:?}", Err::<(), _>(e)),
            },
        });
    }
    let epochs = (0..SHARDS as u64).map(|s| dssp.epoch_of(s)).collect();
    let kinds = vec![kinds.lock().unwrap().clone()];
    Trail {
        answers,
        stats: vec![dssp.stats()],
        kinds,
        epochs,
    }
}

/// Runs `script` through a 3-replica fleet with immediate fanout over a
/// single-node home: the classic pair, or the general pair at the neutral
/// policy.
fn fleet_trail(script: &[(Op, bool)], general: bool) -> (Trail, scs_dssp::FanoutStats) {
    let app = app(None);
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    let mut fleet = ProxyFleet::new(
        app.config.clone(),
        HomeServer::new(app.db.clone()),
        FleetConfig::reliable(3, RoutingMode::HashByTemplate),
    );
    let kinds: Vec<_> = (0..3).map(|id| traced(fleet.proxy_mut(id))).collect();
    let mut answers = Vec::new();
    let mut now = 0u64;
    for (op, _) in script {
        if let Op::Advance { dt } = *op {
            now += dt;
            fleet.set_sim_time_micros(now);
            continue;
        }
        if let Some(q) = app.query(op) {
            answers.push(if general {
                let ft = fleet.execute_query_ft(&q, &link, &policy, None).unwrap();
                let FtOutcome::Served { result, hit, .. } = ft.resp.outcome else {
                    panic!("{q}: {:?} at the neutral policy", ft.resp.outcome);
                };
                format!("{:?}", (ft.proxy, result, hit, ft.delivered))
            } else {
                let fr = fleet.execute_query(&q).unwrap();
                format!(
                    "{:?}",
                    (fr.proxy, fr.resp.result, fr.resp.hit, fr.delivered)
                )
            });
            continue;
        }
        let u = app.update(op).expect("queries and advances are handled");
        answers.push(if general {
            match fleet.execute_update_ft(&u, &link, &policy, None) {
                Ok(ft) => {
                    let FtUpdateOutcome::Applied { effect, msg, .. } = ft.resp.outcome else {
                        panic!("{u}: {:?} at the neutral policy", ft.resp.outcome);
                    };
                    let acked = ft.ack.map(|ack| ack.acked);
                    format!("{:?}", (ft.proxy, effect, msg.epoch, acked))
                }
                Err(e) => format!("{e:?}"),
            }
        } else {
            match fleet.execute_update(&u) {
                Ok(fr) => format!(
                    "{:?}",
                    (fr.proxy, fr.resp.effect, fr.epoch, Some(fr.ack.acked))
                ),
                Err(e) => format!("{e:?}"),
            }
        });
    }
    let trail = Trail {
        answers,
        stats: (0..3).map(|id| fleet.proxy(id).stats()).collect(),
        kinds: kinds.iter().map(|k| k.lock().unwrap().clone()).collect(),
        epochs: (0..3).map(|id| fleet.proxy(id).epoch()).collect(),
    };
    (trail, fleet.fanout_stats())
}
