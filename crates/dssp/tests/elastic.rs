//! Property tests for the elastic fleet: consistent-hash ring remaps
//! are minimal (only arcs owned by the joining/leaving replica change
//! owner), pump/drain stay safe after a replica departs, and random
//! scripts that interleave queries, updates, time, and live membership
//! changes over faulty fanout pipes never serve a value beyond the
//! staleness lease and keep the invalidation-provenance conservation
//! ledger balanced across membership epochs.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    DsspConfig, FanoutConfig, FleetConfig, HomeServer, ProxyFleet, RoutingMode, StrategyKind,
};
use scs_netsim::FaultSpec;
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, TableSchema};
use scs_telemetry::{MembershipKind, TraceEventKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Row count in the toys table (ids 0..ROWS).
const ROWS: i64 = 6;
/// Staleness lease used by the oracle runs (µs).
const LEASE: u64 = 500_000;
/// Distinct query templates: all the same point lookup, but each owns
/// its own ring arcs, so a membership change moves real entry subsets
/// between owners.
const TEMPLATES: usize = 4;

fn initial_qty(id: i64) -> i64 {
    10 + id
}

struct Templates {
    queries: Vec<Arc<QueryTemplate>>,
    update: Arc<UpdateTemplate>,
}

fn build(lease: Option<u64>) -> (DsspConfig, HomeServer, Templates) {
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
    let queries: Vec<Arc<QueryTemplate>> = (0..TEMPLATES)
        .map(|_| Arc::new(parse_query("SELECT qty FROM toys WHERE id = ?").unwrap()))
        .collect();
    let update = Arc::new(parse_update("UPDATE toys SET qty = ? WHERE id = ?").unwrap());
    let catalog = Catalog::new(vec![schema]);
    let matrix = characterize_app(
        std::slice::from_ref(&update),
        &queries,
        &catalog,
        AnalysisOptions::default(),
    );
    let exposures = StrategyKind::ViewInspection.exposures(1, queries.len());
    let config = DsspConfig {
        lease_micros: lease,
        ..DsspConfig::new("elastic-prop", exposures, matrix)
    };
    (config, HomeServer::new(db), Templates { queries, update })
}

fn bind_query(t: &Templates, tid: usize, id: i64) -> Query {
    Query::bind(tid, t.queries[tid].clone(), vec![Value::Int(id)]).unwrap()
}

fn bind_update(t: &Templates, id: i64, qty: i64) -> Update {
    Update::bind(0, t.update.clone(), vec![Value::Int(qty), Value::Int(id)]).unwrap()
}

fn reliable_fleet(proxies: usize) -> (ProxyFleet, Templates) {
    let (config, home, t) = build(None);
    let fleet = ProxyFleet::new(
        config,
        home,
        FleetConfig::reliable(proxies, RoutingMode::HashByTemplate),
    );
    (fleet, t)
}

/// Template-owner snapshot over a range wide enough to touch every arc.
fn owners(fleet: &ProxyFleet, upto: usize) -> Vec<usize> {
    (0..upto).map(|tid| fleet.route_template(tid)).collect()
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

/// One step of a randomized elastic-fleet script.
#[derive(Debug, Clone)]
enum MemOp {
    Query { tid: usize, id: i64 },
    Update { id: i64, qty: i64 },
    Advance { dt: u64 },
    Join,
    Leave { pick: usize },
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        5 => ((0..TEMPLATES), (0..ROWS)).prop_map(|(tid, id)| MemOp::Query { tid, id }),
        3 => ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| MemOp::Update { id, qty }),
        3 => (1u64..LEASE).prop_map(|dt| MemOp::Advance { dt }),
        1 => Just(MemOp::Join),
        1 => any::<usize>().prop_map(|pick| MemOp::Leave { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring-remap minimality: adding a replica may move a template's
    /// owner only *to* the joiner; removing one may move owners only
    /// *off* the leaver; and a join followed by the same replica's
    /// leave restores the routing byte-identically (ring points are
    /// keyed by stable replica id, so the round trip is exact).
    #[test]
    fn remap_moves_only_the_joining_or_leaving_replicas_arcs(
        proxies in 2usize..6,
        pick in any::<usize>(),
    ) {
        let (mut fleet, _t) = reliable_fleet(proxies);
        let before = owners(&fleet, 256);
        let ring_before = fleet.ring().to_vec();

        let joiner = fleet.add_replica();
        let joined = owners(&fleet, 256);
        for (tid, (&old, &new)) in before.iter().zip(joined.iter()).enumerate() {
            prop_assert!(
                new == old || new == joiner,
                "template {tid} moved {old} -> {new}, neither staying nor joining {joiner}"
            );
        }
        prop_assert!(
            joined.contains(&joiner),
            "a 16-vnode joiner must own at least one arc in 256 templates"
        );

        // The joiner's leave restores the exact pre-join routing.
        fleet.remove_replica(joiner).unwrap();
        prop_assert_eq!(owners(&fleet, 256), before.clone());
        prop_assert_eq!(fleet.ring(), ring_before.as_slice());

        // An incumbent's leave moves only the arcs it owned.
        let ids = fleet.replica_ids();
        let victim = ids[pick % ids.len()];
        fleet.remove_replica(victim).unwrap();
        let after = owners(&fleet, 256);
        for (tid, (&old, &new)) in before.iter().zip(after.iter()).enumerate() {
            if old == victim {
                prop_assert!(new != victim, "template {tid} still routes to departed {victim}");
            } else {
                prop_assert_eq!(
                    new, old,
                    "template {} moved {} -> {} though {} did not own it",
                    tid, old, new, victim
                );
            }
        }
    }

    /// Pump/drain safety after departures: removing random replicas
    /// must leave `pump_all`, `drain`, and per-id `pump` working over
    /// the sparse id space (no positional indexing of departed pipes).
    #[test]
    fn pump_and_drain_survive_sparse_replica_ids(
        proxies in 3usize..6,
        removals in proptest::collection::vec(any::<usize>(), 1..3),
        ops in proptest::collection::vec(((0..TEMPLATES), (0..ROWS), 0..1_000i64), 1..15),
    ) {
        let (mut fleet, t) = reliable_fleet(proxies);
        for &(tid, id, qty) in &ops {
            fleet.execute_query(&bind_query(&t, tid, id)).unwrap();
            fleet.execute_update(&bind_update(&t, id, qty)).unwrap();
        }
        for pick in &removals {
            if fleet.len() < 3 {
                break;
            }
            let ids = fleet.replica_ids();
            fleet.remove_replica(ids[pick % ids.len()]).unwrap();
        }
        fleet.pump_all();
        for id in fleet.replica_ids() {
            fleet.pump(id);
        }
        fleet.drain();
        for &(tid, id, _) in &ops {
            let fr = fleet.execute_query(&bind_query(&t, tid, id)).unwrap();
            prop_assert_eq!(fr.resp.result.len(), 1);
        }
    }

    /// A fleet under faulty fanout pipes (drops, duplicates, delays)
    /// that joins and removes replicas mid-script never serves a value
    /// that was not master-current within the lease, ends with a zero
    /// `stale_beyond_lease` count on every replica that ever lived, and
    /// keeps the provenance conservation ledger balanced across all
    /// membership epochs.
    #[test]
    fn membership_chaos_keeps_the_lease_bound_and_balances_the_ledger(
        seed in any::<u64>(),
        proxies in 2usize..4,
        drop_pm in 0u32..400,
        dup_pm in 0u32..400,
        delay_pm in 0u32..400,
        script in proptest::collection::vec(mem_op(), 1..80),
    ) {
        let (config, home, t) = build(Some(LEASE));
        let fleet_cfg = FleetConfig {
            proxies,
            routing: RoutingMode::HashByTemplate,
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
        let prov = fleet.enable_provenance();
        fleet.set_lease_micros(Some(LEASE));

        let mut now = 0u64;
        fleet.set_sim_time_micros(now);
        let mut history: Vec<Vec<(u64, i64)>> =
            (0..ROWS).map(|id| vec![(0, initial_qty(id))]).collect();
        // Final epoch cursor of departed replicas, for the conservation
        // cut.
        let mut gone_epochs: HashMap<usize, u64> = HashMap::new();
        let (mut joins, mut leaves) = (0u64, 0u64);

        for op in &script {
            match *op {
                MemOp::Advance { dt } => {
                    now += dt;
                    fleet.set_sim_time_micros(now);
                }
                MemOp::Update { id, qty } => {
                    fleet.execute_update(&bind_update(&t, id, qty)).unwrap();
                    history[id as usize].push((now, qty));
                }
                MemOp::Query { tid, id } => {
                    let fr = fleet.execute_query(&bind_query(&t, tid, id)).unwrap();
                    prop_assert_eq!(fr.resp.result.len(), 1);
                    let served = match fr.resp.result.rows[0][0] {
                        Value::Int(q) => q,
                        ref v => panic!("qty must be an int, got {v:?}"),
                    };
                    prop_assert!(
                        legal(&history[id as usize], served, now),
                        "replica {} served qty {} for template {} id {} at t={} — \
                         not master-current within the lease; history {:?}",
                        fr.proxy, served, tid, id, now, history[id as usize]
                    );
                }
                MemOp::Join => {
                    if fleet.len() >= 6 {
                        continue;
                    }
                    fleet.add_replica();
                    joins += 1;
                }
                MemOp::Leave { pick } => {
                    if fleet.len() < 3 {
                        continue;
                    }
                    let ids = fleet.replica_ids();
                    let id = ids[pick % ids.len()];
                    gone_epochs.insert(id, fleet.remove_replica(id).unwrap());
                    leaves += 1;
                }
            }
        }

        // Settle in-flight batches, then audit the freshness plane.
        fleet.drain();
        let live = fleet.replica_ids();
        let p = prov.lock().unwrap();
        for r in 0..p.replica_count() {
            let rl = p.replica(r);
            prop_assert_eq!(
                rl.stale_beyond_lease, 0,
                "replica {}: the lease gate admitted an over-age serve", r
            );
            let final_epoch = if live.contains(&r) {
                fleet.proxy(r).epoch()
            } else {
                *gone_epochs.get(&r).expect("every non-live replica left a cursor")
            };
            let c = p.conservation_on(r, 0, final_epoch);
            prop_assert!(
                c.balanced(),
                "replica {}: sent {} != applied {} + duplicate {} + recovered {} + in-flight {}",
                r, c.sent, c.applied, c.duplicate, c.recovered_over, c.in_flight
            );
        }
        // The membership journal mirrors what actually happened.
        let count = |k: MembershipKind| {
            p.membership()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Membership { kind, .. } if kind == k))
                .count() as u64
        };
        prop_assert_eq!(count(MembershipKind::Join), joins);
        prop_assert_eq!(count(MembershipKind::Leave), leaves);
    }
}

/// The fleet's audit switch meters every replica's envelope seals and
/// opens, a joiner's included, so the `leakage` export keeps its `crypto`
/// section on any replica.
#[test]
fn enable_audit_meters_every_replica_and_joiner() {
    let (mut fleet, _) = reliable_fleet(2);
    fleet.enable_audit();
    let joiner = fleet.add_replica();
    assert_eq!(fleet.replica_ids(), [0, 1, joiner]);
    for id in fleet.replica_ids() {
        assert!(fleet.proxy(id).crypto_meter().is_some(), "replica {id}");
    }
}
