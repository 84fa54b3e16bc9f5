//! Property tests for the multi-proxy fleet (satellite of the scale-out
//! PR): under dropped / duplicated / delayed fanout batches every replica
//! serves only values that were master-current within the staleness
//! lease (ground-truth oracle over the full master value history), the
//! coalesced batched fanout kills exactly the same cache keys as the
//! unbatched baseline, and a single-proxy immediate fleet is
//! operation-for-operation identical to the classic standalone proxy,
//! over one home server and over a sharded home alike.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    Dssp, DsspConfig, FanoutConfig, FleetConfig, Home, HomeServer, ProxyFleet, RoutingMode,
    ShardedHome, StrategyKind,
};
use scs_netsim::FaultSpec;
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, PartitionMap, TablePlacement, TableSchema};
use std::sync::Arc;

/// Row count in the toys table (ids 0..ROWS).
const ROWS: i64 = 6;
/// Staleness lease used by the oracle runs (µs).
const LEASE: u64 = 500_000;

const QUERY_SQL: &[&str] = &["SELECT qty FROM toys WHERE id = ?"];
const UPDATE_SQL: &[&str] = &["UPDATE toys SET qty = ? WHERE id = ?"];

fn initial_qty(id: i64) -> i64 {
    10 + id
}

struct Templates {
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
}

fn build(kind: StrategyKind, lease: Option<u64>) -> (DsspConfig, HomeServer, Templates) {
    let schema = TableSchema::builder("toys")
        .column("id", ColumnType::Int)
        .column("qty", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let mut db = Database::new();
    db.create_table(schema.clone()).unwrap();
    for id in 0..ROWS {
        db.insert_row("toys", vec![Value::Int(id), Value::Int(initial_qty(id))])
            .unwrap();
    }
    let queries: Vec<Arc<QueryTemplate>> = QUERY_SQL
        .iter()
        .map(|s| Arc::new(parse_query(s).unwrap()))
        .collect();
    let updates: Vec<Arc<UpdateTemplate>> = UPDATE_SQL
        .iter()
        .map(|s| Arc::new(parse_update(s).unwrap()))
        .collect();
    let catalog = Catalog::new(vec![schema]);
    let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
    let exposures = kind.exposures(updates.len(), queries.len());
    let config = DsspConfig {
        lease_micros: lease,
        ..DsspConfig::new("fleet-prop", exposures, matrix)
    };
    (config, HomeServer::new(db), Templates { queries, updates })
}

fn bind_query(t: &Templates, id: i64) -> Query {
    Query::bind(0, t.queries[0].clone(), vec![Value::Int(id)]).unwrap()
}

fn bind_update(t: &Templates, id: i64, qty: i64) -> Update {
    Update::bind(
        0,
        t.updates[0].clone(),
        vec![Value::Int(qty), Value::Int(id)],
    )
    .unwrap()
}

/// One step of a randomized fleet script.
#[derive(Debug, Clone)]
enum ScriptOp {
    Query { id: i64 },
    Update { id: i64, qty: i64 },
    Advance { dt: u64 },
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        4 => (0..ROWS).prop_map(|id| ScriptOp::Query { id }),
        2 => ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| ScriptOp::Update { id, qty }),
        2 => (1u64..LEASE).prop_map(|dt| ScriptOp::Advance { dt }),
    ]
}

/// The master value of `id` over time: `(since_micros, qty)` entries,
/// ascending. A served value is *legal* at `now` iff its validity
/// interval intersects the lease window `[now - LEASE, now]`.
fn legal(history: &[(u64, i64)], served: i64, now: u64) -> bool {
    let window_start = now.saturating_sub(LEASE);
    for (i, &(since, qty)) in history.iter().enumerate() {
        if qty != served {
            continue;
        }
        let until = history.get(i + 1).map(|&(t, _)| t).unwrap_or(u64::MAX);
        if since <= now && until >= window_start {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Staleness oracle: a fleet whose fanout pipes drop, duplicate, and
    /// delay whole batches never serves a value that was not master-
    /// current somewhere inside the lease window. Gap recovery plus the
    /// per-entry lease must together bound staleness no matter what the
    /// delivery layer does.
    #[test]
    fn faulty_fanout_never_serves_beyond_the_lease(
        seed in any::<u64>(),
        proxies in 2usize..5,
        drop_pm in 0u32..400,
        dup_pm in 0u32..400,
        delay_pm in 0u32..400,
        script in proptest::collection::vec(script_op(), 1..80),
    ) {
        let (config, home, t) = build(StrategyKind::ViewInspection, Some(LEASE));
        let fleet_cfg = FleetConfig {
            proxies,
            routing: RoutingMode::RoundRobin,
            fanout: FanoutConfig::batched(4, 20_000),
            pipe_spec: FaultSpec {
                drop_probability: drop_pm as f64 / 1_000.0,
                duplicate_probability: dup_pm as f64 / 1_000.0,
                delay_probability: delay_pm as f64 / 1_000.0,
                max_delay_micros: LEASE / 2,
                base_latency_micros: 0,
            },
            pipe_seed: seed,
        };
        let mut fleet = ProxyFleet::new(config, home, fleet_cfg);

        let mut now = 0u64;
        fleet.set_sim_time_micros(now);
        let mut history: Vec<Vec<(u64, i64)>> =
            (0..ROWS).map(|id| vec![(0, initial_qty(id))]).collect();

        for op in &script {
            match *op {
                ScriptOp::Advance { dt } => {
                    now += dt;
                    fleet.set_sim_time_micros(now);
                }
                ScriptOp::Update { id, qty } => {
                    fleet.execute_update(&bind_update(&t, id, qty)).unwrap();
                    history[id as usize].push((now, qty));
                }
                ScriptOp::Query { id } => {
                    let fr = fleet.execute_query(&bind_query(&t, id)).unwrap();
                    prop_assert_eq!(fr.resp.result.len(), 1);
                    let served = match fr.resp.result.rows[0][0] {
                        Value::Int(q) => q,
                        ref v => panic!("qty must be an int, got {v:?}"),
                    };
                    prop_assert!(
                        legal(&history[id as usize], served, now),
                        "replica {} served qty {} for id {} at t={} — not \
                         master-current within the lease; history {:?}",
                        fr.proxy, served, id, now, history[id as usize]
                    );
                }
            }
        }
    }

    /// Coalesced fanout equivalence: over identically warmed fleets, a
    /// single coalesced batch covering a whole update script invalidates
    /// exactly the cache keys that per-update immediate fanout kills —
    /// on every replica — and lands every replica on the same epoch.
    #[test]
    fn coalesced_fanout_kills_the_same_keys_as_unbatched(
        proxies in 1usize..4,
        updates in proptest::collection::vec(((0..ROWS), 0..1_000i64), 1..20),
    ) {
        let mk = |fanout: FanoutConfig| {
            let (config, home, t) = build(StrategyKind::ViewInspection, None);
            let mut cfg = FleetConfig::reliable(proxies, RoutingMode::RoundRobin);
            cfg.fanout = fanout;
            (ProxyFleet::new(config, home, cfg), t)
        };
        let (mut immediate, t) = mk(FanoutConfig::immediate());
        let (mut batched, _) = mk(FanoutConfig::batched(1_000, u64::MAX));

        // Warm every replica with every row (round-robin: querying the
        // same id `proxies` times touches each replica once).
        for fleet in [&mut immediate, &mut batched] {
            for id in 0..ROWS {
                for _ in 0..proxies {
                    fleet.execute_query(&bind_query(&t, id)).unwrap();
                }
            }
        }

        for &(id, qty) in &updates {
            immediate.execute_update(&bind_update(&t, id, qty)).unwrap();
            batched.execute_update(&bind_update(&t, id, qty)).unwrap();
        }
        // Ship the one big coalesced batch and deliver it everywhere.
        batched.flush_fanout();
        batched.pump_all();

        let keys = |d: &Dssp| {
            let mut keys: Vec<String> = d
                .cache_entries()
                .map(|e| format!("{:?}", e.key()))
                .collect();
            keys.sort();
            keys
        };
        for p in 0..proxies {
            prop_assert_eq!(
                keys(immediate.proxy(p)),
                keys(batched.proxy(p)),
                "replica {} diverged",
                p
            );
            prop_assert_eq!(immediate.proxy(p).epoch(), batched.proxy(p).epoch());
        }
        let f = batched.fanout_stats();
        prop_assert_eq!(f.batches, 1, "one flush ships one batch");
        prop_assert_eq!(
            (f.msgs + f.coalesced) as usize,
            updates.len(),
            "every update is either retained or coalesced"
        );
    }

    /// A 1-replica immediate fleet over reliable pipes is the classic
    /// proxy: same hits, same results, same stats, same cursor on every
    /// stream, for any interleaving of queries and updates — over one
    /// home server, and over a 4-shard home, where each update's batch
    /// rides its own shard's stream.
    #[test]
    fn single_replica_fleet_is_the_classic_proxy(
        script in proptest::collection::vec(
            prop_oneof![
                (0..ROWS).prop_map(|id| ScriptOp::Query { id }),
                ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| ScriptOp::Update { id, qty }),
            ],
            1..60,
        ),
    ) {
        let (config, home, t) = build(StrategyKind::ViewInspection, None);
        let db = home.database().clone();
        let one = FleetConfig::reliable(1, RoutingMode::RoundRobin);
        let fleet = ProxyFleet::new(config.clone(), HomeServer::new(db.clone()), one.clone());
        agree(&script, &t, home, fleet, &config);

        let map = PartitionMap::by_table(4).with_placement(
            "toys",
            TablePlacement::Hash {
                column: "id".into(),
            },
        );
        let sharded = ShardedHome::new(db.clone(), map.clone());
        let fleet = ProxyFleet::over(config.clone(), ShardedHome::new(db, map), one);
        agree(&script, &t, sharded, fleet, &config);
    }
}

/// Runs `script` through a classic `Dssp` over `home` and through
/// `fleet`, checking they agree op for op and end in the same state.
fn agree<C: Home, F: Home>(
    script: &[ScriptOp],
    t: &Templates,
    mut home: C,
    mut fleet: ProxyFleet<F>,
    config: &DsspConfig,
) {
    let mut classic = Dssp::new(config.clone());
    for op in script {
        match *op {
            ScriptOp::Query { id } => {
                let q = bind_query(t, id);
                let a = classic.execute_query(&q, &mut home).unwrap();
                let b = fleet.execute_query(&q).unwrap();
                prop_assert_eq!(a.hit, b.resp.hit);
                prop_assert!(a.result.multiset_eq(&b.resp.result));
            }
            ScriptOp::Update { id, qty } => {
                let u = bind_update(t, id, qty);
                let a = classic.execute_update(&u, &mut home).unwrap();
                let b = fleet.execute_update(&u).unwrap();
                prop_assert_eq!(a.effect, b.resp.effect);
            }
            ScriptOp::Advance { .. } => unreachable!("not generated"),
        }
    }
    prop_assert_eq!(classic.stats(), fleet.rollup_stats());
    for stream in 0..home.tips().len() as u64 {
        let (a, b) = (classic.epoch_of(stream), fleet.proxy(0).epoch_of(stream));
        prop_assert_eq!(a, b, "stream {}", stream);
        prop_assert_eq!(b, home.epoch_of(stream), "stream {} behind its tip", stream);
    }
    prop_assert_eq!(classic.cache_len(), fleet.total_cache_entries());
}
