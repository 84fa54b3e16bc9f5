//! The composition one request pipeline makes expressible: overload
//! protection (admission, breaker, brownout) and a flaky home link with
//! a retrying policy, in front of a **sharded** home — one `Dssp`, the
//! `_overload` entry points, a 4-shard [`ShardedHome`]. Before the
//! pipeline was generic over [`scs_dssp::Home`] the `_overload` and `_ft`
//! forms took a `HomeServer` only, so this file did not compile.
//!
//! An unpartitioned shadow master is fed every accepted update (the
//! shape of the benchmark's sharded oracle) and checks every answer;
//! with protection off and a reliable link the same entry points must be
//! op-for-op the `_sharded` forwards.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    AdmissionConfig, BreakerConfig, BrownoutConfig, Dssp, DsspConfig, HomeLink, OverloadConfig,
    OverloadOutcome, OverloadUpdateOutcome, QueueState, RetryPolicy, ShardedHome, StrategyKind,
};
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, PartitionMap, TablePlacement, TableSchema};
use std::collections::HashMap;
use std::sync::Arc;

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

fn retrying() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff_micros: 2_000,
        max_backoff_micros: 8_000,
        timeout_micros: 40_000,
        jitter: false,
    }
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
    std::env::var("SCS_CHAOS_CASES")
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
        let policy = retrying();
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
                    .execute_query_overload(&q, &mut home, &link, &policy, &queue(*doomed))
                    .unwrap();
                match resp.outcome {
                    OverloadOutcome::Served { result, hit, degraded } => {
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
                    OverloadOutcome::Unavailable => {
                        prop_assert!(!link.is_up(now), "{} unavailable on an up link", q);
                    }
                    OverloadOutcome::Shed(_) => {}
                }
                prop_assert_eq!(tier_state(&home), before, "a query wrote");
                continue;
            }
            let u = app.update(op).expect("queries and advances are handled");
            match dssp.execute_update_overload(&u, &mut home, &link, &policy, &queue(*doomed)) {
                Ok(resp) => match resp.outcome {
                    OverloadUpdateOutcome::Applied { effect, stream, msg } => {
                        let mut after = before.clone();
                        after[stream as usize].0 += 1;
                        after[stream as usize].1 += 1;
                        prop_assert_eq!(tier_state(&home), after, "one epoch, on the owner");
                        prop_assert_eq!(msg.epoch, home.epoch_of(stream as usize));
                        prop_assert_eq!(master.apply(&u).unwrap(), effect);
                        dssp.apply_invalidation_from(stream, &msg);
                    }
                    OverloadUpdateOutcome::Unavailable | OverloadUpdateOutcome::Shed(_) => {
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
        prop_assert_eq!(dssp.registry().counter_value("dssp.epoch_gaps"), 0);
    }

    /// With protection off and a reliable link, the `_overload` entry
    /// points over a sharded home are op-for-op the `_sharded` forwards:
    /// same answers and hit pattern, same refusals, same `DsspStats`,
    /// same per-stream cursors.
    #[test]
    fn unguarded_reliable_pipeline_is_the_sharded_forwards(
        script in proptest::collection::vec(op(), 1..120),
    ) {
        let app = app(None);
        let mut home = ShardedHome::new(app.db.clone(), shard_map());
        let mut twin_home = ShardedHome::new(app.db.clone(), shard_map());
        let mut dssp = Dssp::new(app.config.clone());
        let mut twin = Dssp::new(app.config.clone());
        let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
        let mut now = 0u64;
        for (op, doomed) in &script {
            if let Op::Advance { dt } = *op {
                now += dt;
                dssp.set_sim_time_micros(now);
                twin.set_sim_time_micros(now);
                continue;
            }
            if let Some(q) = app.query(op) {
                let resp = dssp
                    .execute_query_overload(&q, &mut home, &link, &policy, &queue(*doomed))
                    .unwrap();
                let want = twin.execute_query_sharded(&q, &mut twin_home).unwrap();
                let OverloadOutcome::Served { result, hit, degraded } = resp.outcome else {
                    panic!("{q}: {:?} with protection off", resp.outcome);
                };
                prop_assert_eq!((result, hit, degraded), (want.result, want.hit, false));
                continue;
            }
            let u = app.update(op).expect("queries and advances are handled");
            let got = dssp.execute_update_overload(&u, &mut home, &link, &policy, &queue(*doomed));
            let want = twin.execute_update_sharded(&u, &mut twin_home);
            match (got, want) {
                (Ok(resp), Ok((want, shard))) => {
                    let OverloadUpdateOutcome::Applied { effect, stream, msg } = resp.outcome
                    else {
                        panic!("{u}: {:?} with protection off", resp.outcome);
                    };
                    prop_assert_eq!((effect, stream), (want.effect, shard as u64));
                    dssp.apply_invalidation_from(stream, &msg);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => panic!("{u}: {got:?} against the forward's {want:?}"),
            }
        }
        prop_assert_eq!(dssp.stats(), twin.stats());
        prop_assert_eq!(home.epochs(), twin_home.epochs());
        for s in 0..SHARDS as u64 {
            prop_assert_eq!(dssp.epoch_of(s), twin.epoch_of(s), "stream {}", s);
        }
    }
}
