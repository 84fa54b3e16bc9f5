//! Property tests for the elastic fleet (membership PR): consistent-hash
//! ring remaps are minimal (only arcs owned by the joining/leaving
//! replica change owner), an aborted join is a byte-identical routing
//! no-op, pump/drain stay safe after a replica departs, and — the chaos
//! tentpole — random scripts that interleave queries, updates, time, and
//! live membership changes (including crash-mid-join, dropped handoff
//! streams, and donor crashes mid-handoff) over faulty fanout pipes
//! never serve a value beyond the staleness lease and keep the
//! invalidation-provenance conservation ledger balanced across
//! membership epochs.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    DsspConfig, FanoutConfig, FleetConfig, HandoffFault, HomeServer, ProxyFleet, RoutingMode,
    StrategyKind,
};
use scs_netsim::FaultSpec;
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, TableSchema};
use scs_telemetry::MembershipKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Row count in the toys table (ids 0..ROWS).
const ROWS: i64 = 6;
/// Staleness lease used by the oracle runs (µs).
const LEASE: u64 = 500_000;
/// Distinct query templates: all the same point lookup, but each owns
/// its own ring arcs, so handoffs move real entry subsets between
/// donors and joiners.
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
    Join { fault: usize },
    Leave { pick: usize },
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        5 => ((0..TEMPLATES), (0..ROWS)).prop_map(|(tid, id)| MemOp::Query { tid, id }),
        3 => ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| MemOp::Update { id, qty }),
        3 => (1u64..LEASE).prop_map(|dt| MemOp::Advance { dt }),
        1 => (0usize..4).prop_map(|fault| MemOp::Join { fault }),
        1 => any::<usize>().prop_map(|pick| MemOp::Leave { pick }),
    ]
}

fn fault_of(ix: usize) -> HandoffFault {
    match ix {
        0 => HandoffFault::None,
        1 => HandoffFault::DropStream,
        2 => HandoffFault::CrashJoiner,
        _ => HandoffFault::CrashDonor,
    }
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

        let joiner = fleet.add_replica().replica;
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
        fleet.remove_replica(joiner);
        prop_assert_eq!(owners(&fleet, 256), before.clone());
        prop_assert_eq!(fleet.ring(), ring_before.as_slice());

        // An incumbent's leave moves only the arcs it owned.
        let ids = fleet.replica_ids();
        let victim = ids[pick % ids.len()];
        fleet.remove_replica(victim);
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

    /// A join aborted by a joiner crash before warming is a no-op
    /// resize: routing, home pipe registry, membership epoch, and every
    /// incumbent's cache are byte-identical, and the fleet keeps
    /// serving correct results afterwards.
    #[test]
    fn aborted_join_leaves_the_fleet_byte_identical(
        proxies in 2usize..5,
        warm in proptest::collection::vec(((0..TEMPLATES), (0..ROWS)), 1..20),
    ) {
        let (mut fleet, t) = reliable_fleet(proxies);
        for &(tid, id) in &warm {
            fleet.execute_query(&bind_query(&t, tid, id)).unwrap();
        }
        let ring_before = fleet.ring().to_vec();
        let pipes_before: Vec<usize> = fleet
            .home()
            .registered_pipes()
            .iter()
            .map(|p| p.replica)
            .collect();
        let caches_before: Vec<usize> = fleet
            .replica_ids()
            .iter()
            .map(|&id| fleet.proxy(id).cache_len())
            .collect();
        let epoch_before = fleet.membership_epoch();

        let out = fleet.add_replica_faulted(HandoffFault::CrashJoiner);
        prop_assert!(out.aborted);
        prop_assert_eq!(out.handed, 0);

        prop_assert_eq!(fleet.ring(), ring_before.as_slice());
        let pipes_after: Vec<usize> = fleet
            .home()
            .registered_pipes()
            .iter()
            .map(|p| p.replica)
            .collect();
        prop_assert_eq!(pipes_after, pipes_before);
        let caches_after: Vec<usize> = fleet
            .replica_ids()
            .iter()
            .map(|&id| fleet.proxy(id).cache_len())
            .collect();
        prop_assert_eq!(caches_after, caches_before);
        prop_assert_eq!(fleet.membership_epoch(), epoch_before);

        // The fleet still works, and the burned id is never reused.
        fleet.pump_all();
        fleet.drain();
        let next = fleet.add_replica();
        prop_assert!(!next.aborted);
        prop_assert_eq!(next.replica, proxies + 1);
        for &(tid, id) in &warm {
            let fr = fleet.execute_query(&bind_query(&t, tid, id)).unwrap();
            prop_assert_eq!(fr.resp.result.rows[0][0].clone(), Value::Int(initial_qty(id)));
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
            fleet.remove_replica(ids[pick % ids.len()]);
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

    /// The chaos tentpole: a fleet under faulty fanout pipes (drops,
    /// duplicates, delays) that joins and removes replicas mid-script —
    /// with handoff chaos injected (dropped handoff streams, joiner
    /// crashes, donor crashes mid-handoff) — never serves a value that
    /// was not master-current within the lease, ends with a zero
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
        // Final epoch cursor of replicas that no longer exist (departed
        // or aborted), for the conservation cut.
        let mut gone_epochs: HashMap<usize, u64> = HashMap::new();
        let (mut joins, mut leaves, mut aborts) = (0u64, 0u64, 0u64);

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
                MemOp::Join { fault } => {
                    if fleet.len() >= 6 {
                        continue;
                    }
                    let out = fleet.add_replica_faulted(fault_of(fault));
                    if out.aborted {
                        aborts += 1;
                        gone_epochs.insert(out.replica, out.joined_epoch);
                    } else {
                        joins += 1;
                    }
                }
                MemOp::Leave { pick } => {
                    if fleet.len() < 3 {
                        continue;
                    }
                    let ids = fleet.replica_ids();
                    let id = ids[pick % ids.len()];
                    let out = fleet.remove_replica(id);
                    leaves += 1;
                    gone_epochs.insert(id, out.final_epoch);
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
            p.membership().iter().filter(|s| s.kind == k).count() as u64
        };
        prop_assert_eq!(count(MembershipKind::Join), joins);
        prop_assert_eq!(count(MembershipKind::Leave), leaves);
        prop_assert_eq!(count(MembershipKind::AbortJoin), aborts);
    }
}
