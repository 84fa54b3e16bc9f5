//! Property tests for the freshness plane (this PR's tentpole): under
//! arbitrary fault schedules on the fanout pipes, the provenance log's
//! epoch accounting **conserves messages** — every epoch of every batch
//! copy offered to a replica's pipe is classified exactly once as
//! applied, duplicate, recovered-over, or still in flight — and the
//! serve-side staleness accounting is internally consistent with the
//! lease gate.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    DsspConfig, FanoutConfig, FleetConfig, HomeServer, ProxyFleet, RoutingMode, StrategyKind,
};
use scs_netsim::FaultSpec;
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, TableSchema};
use scs_telemetry::SpanPhase;
use std::sync::Arc;

const ROWS: i64 = 6;
const LEASE: u64 = 500_000;

struct Templates {
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
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
        db.insert_row("toys", vec![Value::Int(id), Value::Int(10 + id)])
            .unwrap();
    }
    let queries: Vec<Arc<QueryTemplate>> = vec![Arc::new(
        parse_query("SELECT qty FROM toys WHERE id = ?").unwrap(),
    )];
    let updates: Vec<Arc<UpdateTemplate>> = vec![Arc::new(
        parse_update("UPDATE toys SET qty = ? WHERE id = ?").unwrap(),
    )];
    let catalog = Catalog::new(vec![schema]);
    let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
    let exposures = StrategyKind::ViewInspection.exposures(updates.len(), queries.len());
    let config = DsspConfig {
        lease_micros: lease,
        ..DsspConfig::new("freshness-prop", exposures, matrix)
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

#[derive(Debug, Clone)]
enum ScriptOp {
    Query { id: i64 },
    Update { id: i64, qty: i64 },
    Advance { dt: u64 },
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        4 => (0..ROWS).prop_map(|id| ScriptOp::Query { id }),
        3 => ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| ScriptOp::Update { id, qty }),
        2 => (1u64..LEASE / 2).prop_map(|dt| ScriptOp::Advance { dt }),
    ]
}

/// Asserts every replica's conservation ledger balances and that the
/// in-flight bucket is consistent with where the replica's epoch ended.
fn assert_conserved(fleet: &ProxyFleet, proxies: usize, drained: bool) {
    let prov = fleet.provenance().expect("plane enabled").clone();
    let p = prov.lock().unwrap();
    let home_epoch = fleet.home().epoch();
    for r in 0..proxies {
        let final_epoch = fleet.proxy(r).epoch();
        let c = p.conservation_on(r, 0, final_epoch);
        assert!(
            c.balanced(),
            "replica {r}: sent {} != applied {} + duplicate {} + recovered {} + in-flight {}",
            c.sent,
            c.applied,
            c.duplicate,
            c.recovered_over,
            c.in_flight
        );
        assert!(final_epoch <= home_epoch, "replica ahead of the home");
        // After a drain every queued/delayed copy was delivered; epochs
        // can remain unaccounted only when their copies were *dropped*
        // and nothing later covered them — which leaves the replica
        // visibly behind the home.
        if drained && c.in_flight > 0 {
            assert!(
                final_epoch < home_epoch,
                "replica {r} caught up (epoch {final_epoch}) yet {} epochs remain in flight",
                c.in_flight
            );
        }
        // Lag is recorded at most once per epoch per replica.
        assert!(p.replica(r).lag.count <= home_epoch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: under random drop/duplicate/delay schedules, every
    /// epoch of every batch copy the fanout offered is accounted for
    /// exactly once — mid-run (copies legitimately in flight) and after
    /// the final drain (in flight only if dropped past the stream's
    /// end). Serve accounting splits exactly into fresh / stale-within /
    /// stale-beyond, and the active lease keeps the beyond bucket empty.
    #[test]
    fn provenance_conserves_epochs_under_random_faults(
        seed in any::<u64>(),
        proxies in 1usize..5,
        drop_pm in 0u32..400,
        dup_pm in 0u32..400,
        delay_pm in 0u32..400,
        batch_max in 1usize..6,
        script in proptest::collection::vec(script_op(), 1..80),
    ) {
        let (config, home, t) = build(Some(LEASE));
        let fleet_cfg = FleetConfig {
            proxies,
            routing: RoutingMode::RoundRobin,
            fanout: FanoutConfig::batched(batch_max, 20_000),
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
        fleet.enable_provenance();
        fleet.set_lease_micros(Some(LEASE));

        let mut now = 0u64;
        fleet.set_sim_time_micros(now);
        for (i, op) in script.iter().enumerate() {
            match *op {
                ScriptOp::Advance { dt } => {
                    now += dt;
                    fleet.set_sim_time_micros(now);
                }
                ScriptOp::Update { id, qty } => {
                    fleet.execute_update(&bind_update(&t, id, qty)).unwrap();
                }
                ScriptOp::Query { id } => {
                    fleet.execute_query(&bind_query(&t, id)).unwrap();
                }
            }
            // The invariant holds at every intermediate cut, not just at
            // the end; spot-check a few to keep the test fast.
            if i % 16 == 15 {
                assert_conserved(&fleet, proxies, false);
            }
        }
        assert_conserved(&fleet, proxies, false);
        fleet.drain();
        assert_conserved(&fleet, proxies, true);

        let prov = fleet.provenance().expect("plane enabled").clone();
        let p = prov.lock().unwrap();
        for r in 0..proxies {
            let rl = p.replica(r);
            prop_assert_eq!(
                rl.serves,
                rl.fresh_serves + rl.stale_within_lease + rl.stale_beyond_lease,
                "replica {}: serve split does not add up", r
            );
            prop_assert_eq!(
                rl.stale_beyond_lease, 0,
                "replica {}: the lease gate admitted an over-age serve", r
            );
            prop_assert!(
                rl.stale_age.max.unwrap_or(0) <= LEASE,
                "replica {}: recorded stale age {:?} exceeds the lease {}",
                r, rl.stale_age.max, LEASE
            );
        }
    }

    /// Spans: the fleet's hot path journals every layer — a Routing root
    /// per routed request, a FanoutFlush root per shipped batch, and a
    /// BatchApply root per delivered batch — all as root spans (the
    /// span-tree invariant the observatory's critical-path breakdown
    /// relies on).
    #[test]
    fn fleet_spans_cover_route_flush_and_apply(
        proxies in 1usize..4,
        ops in proptest::collection::vec(((0..ROWS), 0..1_000i64), 4..24),
    ) {
        let (config, home, t) = build(None);
        let mut cfg = FleetConfig::reliable(proxies, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(4, 20_000);
        let mut fleet = ProxyFleet::new(config, home, cfg);
        fleet.enable_span_recording(10_000);
        fleet.enable_provenance();

        let mut requests = 0u64;
        for &(id, qty) in &ops {
            fleet.execute_query(&bind_query(&t, id)).unwrap();
            fleet.execute_update(&bind_update(&t, id, qty)).unwrap();
            requests += 2;
        }
        fleet.drain();
        fleet.pump_all();

        // Routing and FanoutFlush roots live in the fleet's recorder;
        // each BatchApply root lives in the applying replica's.
        let count = |phase: SpanPhase| {
            fleet.spans().spans().iter().filter(|s| s.phase == phase).count() as u64
        };
        prop_assert_eq!(count(SpanPhase::Routing), requests);
        let flushes = count(SpanPhase::FanoutFlush);
        prop_assert!(flushes > 0, "no fanout flush spans recorded");
        let applies: u64 = (0..proxies)
            .map(|p| {
                fleet
                    .proxy(p)
                    .spans()
                    .spans()
                    .iter()
                    .filter(|s| s.phase == SpanPhase::BatchApply)
                    .count() as u64
            })
            .sum();
        // Reliable pipes: every flushed batch reaches every replica.
        prop_assert_eq!(applies, flushes * proxies as u64);
        let all_spans = fleet
            .spans()
            .spans()
            .iter()
            .chain((0..proxies).flat_map(|p| fleet.proxy(p).spans().spans()));
        for s in all_spans {
            prop_assert!(
                s.phase.is_root() || s.parent != scs_telemetry::SpanId::NONE,
                "non-root span {:?} has no parent", s.phase
            );
        }

        // The provenance ledger agrees with the span story: one batch
        // stamp per flush, and conservation balances everywhere.
        let prov = fleet.provenance().expect("plane enabled").clone();
        let p = prov.lock().unwrap();
        prop_assert_eq!(p.batches().len() as u64, flushes);
        for r in 0..proxies {
            prop_assert!(p.conservation_on(r, 0, fleet.proxy(r).epoch()).balanced());
            prop_assert_eq!(p.conservation_on(r, 0, fleet.proxy(r).epoch()).in_flight, 0);
        }
    }
}
