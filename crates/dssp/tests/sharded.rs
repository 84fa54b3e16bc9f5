//! Property tests for the sharded home tier: the 1-shard equivalence
//! pin (a [`ShardedHome`] over [`PartitionMap::single`] is op-for-op
//! the classic [`HomeServer`]), per-shard conservation of the
//! multi-stream invalidation ledger at arbitrary cuts under
//! drop/duplicate/delay faults, the lease bound on staleness while a
//! replica merges interleaved shard streams, scatter-gather
//! equivalence against the unpartitioned master, exact (rows *and*
//! order) equivalence of a scatter against gather-then-execute, the
//! no-epoch contract of the cross-shard FK handshake, the whole span
//! tree a refused trip leaves behind on every entry point, and the
//! freshness plane explaining a stale serve on the entry's own stream.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    Dssp, DsspConfig, FtUpdateOutcome, Home, HomeLink, HomeServer, InvalidationBatch, RetryPolicy,
    ShardedHome, StrategyKind,
};
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, PartitionMap, TablePlacement, TableSchema};
use scs_telemetry::{
    lock, shared_provenance, FlushTrigger, Json, PlaneSink, ProvenanceLog, SharedProvenance,
    SpanPhase, TraceEvent, TraceEventKind, TraceSink,
};
use std::sync::{Arc, Mutex};

const ROWS: i64 = 8;
const LEASE: u64 = 500_000;

struct Templates {
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
}

fn toy_db() -> Database {
    let schema = TableSchema::builder("toys")
        .column("id", ColumnType::Int)
        .column("qty", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let mut db = Database::new();
    db.create_table(schema).unwrap();
    for id in 0..ROWS {
        db.insert_row("toys", vec![Value::Int(id), Value::Int(10 + id)])
            .unwrap();
    }
    db
}

fn build(lease: Option<u64>) -> (DsspConfig, Templates) {
    let [toys, ghosts] = ["toys", "ghosts"].map(|table| {
        TableSchema::builder(table)
            .column("id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    });
    let queries: Vec<Arc<QueryTemplate>> = vec![
        Arc::new(parse_query("SELECT qty FROM toys WHERE id = ?").unwrap()),
        // No restriction on the partition column: scatter-gathers.
        Arc::new(parse_query("SELECT id FROM toys WHERE qty = ?").unwrap()),
        // The application knows this table; `toy_db` never creates it,
        // so every home refuses the query.
        Arc::new(parse_query("SELECT qty FROM ghosts WHERE id = ?").unwrap()),
    ];
    let updates: Vec<Arc<UpdateTemplate>> = vec![
        Arc::new(parse_update("UPDATE toys SET qty = ? WHERE id = ?").unwrap()),
        // Rejected by the master whenever the id is taken.
        Arc::new(parse_update("INSERT INTO toys (id, qty) VALUES (?, ?)").unwrap()),
    ];
    let catalog = Catalog::new(vec![toys, ghosts]);
    let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
    let exposures = StrategyKind::ViewInspection.exposures(updates.len(), queries.len());
    let config = DsspConfig {
        lease_micros: lease,
        ..DsspConfig::new("sharded-prop", exposures, matrix)
    };
    (config, Templates { queries, updates })
}

fn toy_map(shards: usize) -> PartitionMap {
    if shards <= 1 {
        return PartitionMap::single();
    }
    PartitionMap::by_table(shards).with_placement(
        "toys",
        TablePlacement::Hash {
            column: "id".into(),
        },
    )
}

fn keyed_query(t: &Templates, id: i64) -> Query {
    Query::bind(0, t.queries[0].clone(), vec![Value::Int(id)]).unwrap()
}

fn scatter_query(t: &Templates, qty: i64) -> Query {
    Query::bind(1, t.queries[1].clone(), vec![Value::Int(qty)]).unwrap()
}

fn ghost_query(t: &Templates, id: i64) -> Query {
    Query::bind(2, t.queries[2].clone(), vec![Value::Int(id)]).unwrap()
}

fn bind_insert(t: &Templates, id: i64, qty: i64) -> Update {
    Update::bind(
        1,
        t.updates[1].clone(),
        vec![Value::Int(id), Value::Int(qty)],
    )
    .unwrap()
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
    Keyed { id: i64 },
    Scatter { qty: i64 },
    Update { id: i64, qty: i64 },
    Advance { dt: u64 },
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        3 => (0..ROWS).prop_map(|id| ScriptOp::Keyed { id }),
        2 => (10..10 + ROWS).prop_map(|qty| ScriptOp::Scatter { qty }),
        3 => ((0..ROWS), 0..1_000i64).prop_map(|(id, qty)| ScriptOp::Update { id, qty }),
        2 => (1u64..LEASE / 2).prop_map(|dt| ScriptOp::Advance { dt }),
    ]
}

/// One invalidation copy waiting on the faulty "wire".
struct Delayed {
    due: u64,
    stream: u64,
    msg: scs_dssp::InvalidationMsg,
}

/// Applies `u` at the home through the proxy (which commits it on the
/// plane); returns the owning stream and the undelivered notification.
fn commit(dssp: &mut Dssp, home: &mut ShardedHome, u: &Update) -> (u64, scs_dssp::InvalidationMsg) {
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    let resp = dssp
        .execute_update_ft(u, home, &link, &policy, None)
        .unwrap();
    let FtUpdateOutcome::Applied { stream, msg, .. } = resp.outcome else {
        panic!("a reliable trip to a sharded home applies");
    };
    (stream, msg)
}

/// Feeds the plane the fanout facts of one offered copy of `msg` on its
/// shard stream — the flush with its one message on the first copy, a
/// send on every copy — so the conservation ledger can account for it.
fn offer_copy(
    fanout: &mut PlaneSink<ProvenanceLog>,
    stream: u64,
    msg: &scs_dssp::InvalidationMsg,
    first_copy: bool,
    now: u64,
) {
    let mut emit = |kind| {
        let e = TraceEvent {
            seq: 0,
            at_micros: now,
            kind,
        };
        fanout.record(&e);
    };
    if first_copy {
        emit(TraceEventKind::BatchFlushed {
            stream,
            first_epoch: msg.epoch,
            last_epoch: msg.epoch,
            coalesced: 0,
            trigger: FlushTrigger::Size,
        });
        emit(TraceEventKind::BatchMsg {
            update_template: msg.update.template_id as u32,
            bytes: msg.payload_bytes(),
        });
    }
    emit(TraceEventKind::BatchSent {
        replica: 0,
        stream,
        first_epoch: msg.epoch,
    });
}

/// Asserts the conservation ledger balances on **every** shard stream
/// at the replica's current per-stream cursors.
fn assert_conserved_per_stream(prov: &SharedProvenance, dssp: &Dssp, shards: usize) {
    let p = lock(prov);
    for stream in 0..shards as u64 {
        let c = p.conservation_on(0, stream, dssp.epoch_of(stream));
        assert!(
            c.balanced(),
            "stream {stream}: sent {} != applied {} + duplicate {} + recovered {} + in-flight {}",
            c.sent,
            c.applied,
            c.duplicate,
            c.recovered_over,
            c.in_flight
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two satellite freshness properties, lifted to shard streams:
    /// under random drop/duplicate/delay schedules over interleaved
    /// per-shard invalidation streams, (a) every stream's conservation
    /// ledger balances at every cut — each offered epoch copy is
    /// classified exactly once as applied, duplicate, recovered-over,
    /// or in flight — and (b) the replica never serves a cache entry
    /// staler than its lease, no matter which stream's updates it
    /// missed.
    #[test]
    fn shard_streams_conserve_and_lease_bounds_staleness(
        seed in any::<u64>(),
        shards in 2usize..5,
        drop_pm in 0u32..350,
        dup_pm in 0u32..350,
        delay_pm in 0u32..350,
        script in proptest::collection::vec(script_op(), 1..80),
    ) {
        let (config, t) = build(Some(LEASE));
        let mut home = ShardedHome::new(toy_db(), toy_map(shards));
        let mut dssp = Dssp::new(config);
        let prov = shared_provenance(1);
        dssp.add_trace_sink(Box::new(ProvenanceLog::sink(&prov, 0)));
        let mut fanout = ProvenanceLog::sink(&prov, 0);
        dssp.set_lease_micros(Some(LEASE));

        // A tiny deterministic LCG drives the fault schedule so the
        // proptest shrinker stays effective on the script itself.
        let mut rng = seed | 1;
        let mut draw = move |pm: u32| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) % 1_000) < pm as u64
        };

        let mut now = 0u64;
        let mut wire: Vec<Delayed> = Vec::new();
        dssp.set_sim_time_micros(now);

        for (i, op) in script.iter().enumerate() {
            match *op {
                ScriptOp::Advance { dt } => {
                    now += dt;
                    dssp.set_sim_time_micros(now);
                    let due: Vec<usize> = (0..wire.len())
                        .rev()
                        .filter(|&j| wire[j].due <= now)
                        .collect();
                    for j in due {
                        let d = wire.swap_remove(j);
                        dssp.apply_batch_from(d.stream, &InvalidationBatch::single(d.msg));
                    }
                }
                ScriptOp::Keyed { id } => {
                    dssp.execute_query_sharded(&keyed_query(&t, id), &mut home).unwrap();
                }
                ScriptOp::Scatter { qty } => {
                    dssp.execute_query_sharded(&scatter_query(&t, qty), &mut home).unwrap();
                }
                ScriptOp::Update { id, qty } => {
                    let (stream, msg) = commit(&mut dssp, &mut home, &bind_update(&t, id, qty));
                    let copies = if draw(dup_pm) { 2 } else { 1 };
                    for copy in 0..copies {
                        offer_copy(&mut fanout, stream, &msg, copy == 0, now);
                        if draw(drop_pm) {
                            continue;
                        }
                        if draw(delay_pm) {
                            wire.push(Delayed {
                                due: now + 1 + (msg.epoch % (LEASE / 4)),
                                stream,
                                msg: msg.clone(),
                            });
                        } else {
                            dssp.apply_batch_from(stream, &InvalidationBatch::single(msg.clone()));
                        }
                    }
                }
            }
            // The ledger balances at every intermediate cut, not just
            // after the drain; spot-check a few to keep the test fast.
            if i % 8 == 7 {
                assert_conserved_per_stream(&prov, &dssp, shards);
            }
        }
        assert_conserved_per_stream(&prov, &dssp, shards);
        // Drain the wire (deliveries may still arrive out of order).
        wire.sort_by_key(|d| d.due);
        for d in std::mem::take(&mut wire) {
            dssp.apply_batch_from(d.stream, &InvalidationBatch::single(d.msg));
        }
        assert_conserved_per_stream(&prov, &dssp, shards);

        let p = lock(&prov);
        let rl = p.replica(0);
        prop_assert_eq!(
            rl.serves,
            rl.fresh_serves + rl.stale_within_lease + rl.stale_beyond_lease,
            "serve split does not add up"
        );
        prop_assert_eq!(
            rl.stale_beyond_lease, 0,
            "the lease gate admitted an over-age serve while merging shard streams"
        );
        prop_assert!(
            rl.stale_age.max.unwrap_or(0) <= LEASE,
            "recorded stale age {:?} exceeds the lease {}",
            rl.stale_age.max,
            LEASE
        );
    }

    /// Scatter-gather equivalence: any interleaving of keyed updates
    /// and queries gives, on a sharded home, exactly the results the
    /// unpartitioned master would give — for routed single-shard
    /// lookups and cross-shard scatter-gather reads alike.
    #[test]
    fn sharded_results_match_unpartitioned_master(
        shards in 2usize..5,
        script in proptest::collection::vec(script_op(), 1..40),
    ) {
        let (_, t) = build(None);
        let mut reference = toy_db();
        let mut home = ShardedHome::new(toy_db(), toy_map(shards));
        for op in &script {
            match *op {
                ScriptOp::Advance { .. } => {}
                ScriptOp::Keyed { id } => {
                    let q = keyed_query(&t, id);
                    let got = home.execute_query(&q).unwrap();
                    prop_assert_eq!(got.shards.len(), 1, "keyed lookup must route");
                    prop_assert!(got.result.multiset_eq(&reference.execute(&q).unwrap()));
                }
                ScriptOp::Scatter { qty } => {
                    let q = scatter_query(&t, qty);
                    let got = home.execute_query(&q).unwrap();
                    prop_assert!(got.result.multiset_eq(&reference.execute(&q).unwrap()));
                }
                ScriptOp::Update { id, qty } => {
                    let u = bind_update(&t, id, qty);
                    let expect_shard = home.map().shard_for_update(&reference, &u).unwrap();
                    let (_, stream, msg) = home.apply(&u).unwrap();
                    prop_assert_eq!(stream, expect_shard as u64);
                    prop_assert_eq!(msg.epoch, home.epoch_of(stream));
                    reference.apply(&u).unwrap();
                }
            }
        }
        // Per-shard epochs sum to the number of applied updates, and
        // the union of shard rows is the master's row set.
        let updates = script.iter().filter(|op| matches!(op, ScriptOp::Update { .. })).count() as u64;
        prop_assert_eq!(home.tips().iter().sum::<u64>(), updates);
        for id in 0..ROWS {
            let q = keyed_query(&t, id);
            prop_assert!(home.execute_query(&q).unwrap().result.multiset_eq(
                &reference.execute(&q).unwrap()
            ));
        }
    }
}

/// Records the kind of every trace event a proxy emits, in order.
struct KindSink(Arc<Mutex<Vec<&'static str>>>);

impl TraceSink for KindSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.kind.name());
    }
}

/// The 1-shard equivalence pin: a [`ShardedHome`] over
/// [`PartitionMap::single`] served through the sharded proxy entry
/// points behaves op-for-op like the classic [`HomeServer`] behind the
/// classic entry points — same results, same hit pattern, same update
/// effects and refusals, same epoch sequence, a byte-identical WAL and
/// master database at the end, and the same account of it all: counters,
/// attribution and the trace-event sequence, rejected updates included.
#[test]
fn one_shard_sharded_home_matches_classic_home_op_for_op() {
    let (config, t) = build(Some(LEASE));
    let mut classic_home = HomeServer::new(toy_db());
    let mut classic = Dssp::new(config.clone());
    let mut sharded_home = ShardedHome::new(toy_db(), PartitionMap::single());
    let mut sharded = Dssp::new(config);
    let classic_kinds = Arc::new(Mutex::new(Vec::new()));
    let sharded_kinds = Arc::new(Mutex::new(Vec::new()));
    classic.add_trace_sink(Box::new(KindSink(classic_kinds.clone())));
    sharded.add_trace_sink(Box::new(KindSink(sharded_kinds.clone())));

    /// The shared script vocabulary plus inserts, which the master
    /// rejects when the id is taken.
    enum Step {
        Op(ScriptOp),
        Insert { id: i64, qty: i64 },
    }

    // A fixed script interleaving keyed hits/misses, scatter-shaped
    // templates (which a 1-shard map still routes), updates, inserts of
    // taken ids (rejected) and of fresh ones, and time.
    let script: Vec<Step> = (0..160)
        .map(|i| match i % 8 {
            0 | 3 => Step::Op(ScriptOp::Keyed {
                id: (i as i64) % ROWS,
            }),
            1 => Step::Op(ScriptOp::Scatter {
                qty: 10 + (i as i64) % ROWS,
            }),
            2 | 5 => Step::Op(ScriptOp::Update {
                id: (i as i64 * 3) % ROWS,
                qty: i as i64,
            }),
            4 => Step::Op(ScriptOp::Advance { dt: 40_000 }),
            // `ROWS + 4` ids, `ROWS` of them taken from the start and
            // the rest from their first insert on.
            7 => Step::Insert {
                id: (i as i64 / 8 * 5) % (ROWS + 4),
                qty: i as i64,
            },
            _ => Step::Op(ScriptOp::Keyed {
                id: (i as i64 * 5) % ROWS,
            }),
        })
        .collect();

    let mut now = 0u64;
    let mut rejected = 0;
    for step in &script {
        match *step {
            Step::Op(ScriptOp::Advance { dt }) => {
                now += dt;
                classic.set_sim_time_micros(now);
                sharded.set_sim_time_micros(now);
            }
            Step::Op(ScriptOp::Keyed { id }) => {
                let q = keyed_query(&t, id);
                let a = classic.execute_query(&q, &mut classic_home).unwrap();
                let b = sharded
                    .execute_query_sharded(&q, &mut sharded_home)
                    .unwrap();
                assert!(a.result.multiset_eq(&b.result));
                assert_eq!(a.hit, b.hit, "hit pattern diverged");
            }
            Step::Op(ScriptOp::Scatter { qty }) => {
                let q = scatter_query(&t, qty);
                let a = classic.execute_query(&q, &mut classic_home).unwrap();
                let b = sharded
                    .execute_query_sharded(&q, &mut sharded_home)
                    .unwrap();
                assert!(a.result.multiset_eq(&b.result));
                assert_eq!(a.hit, b.hit, "hit pattern diverged");
            }
            Step::Op(ScriptOp::Update { id, qty }) => {
                let u = bind_update(&t, id, qty);
                let a = classic.execute_update(&u, &mut classic_home).unwrap();
                let (b, shard) = sharded
                    .execute_update_sharded(&u, &mut sharded_home)
                    .unwrap();
                assert_eq!(shard, 0, "1-shard map must route everything to shard 0");
                assert_eq!(a.effect, b.effect);
                assert_eq!(a.scanned, b.scanned);
                assert_eq!(a.invalidated, b.invalidated);
                assert_eq!(classic_home.epoch(), sharded_home.epoch_of(0));
            }
            Step::Insert { id, qty } => {
                let u = bind_insert(&t, id, qty);
                let a = classic.execute_update(&u, &mut classic_home);
                let b = sharded.execute_update_sharded(&u, &mut sharded_home);
                match (a, b) {
                    (Ok(a), Ok((b, _))) => {
                        assert_eq!(a.effect, b.effect);
                        assert_eq!((a.scanned, a.invalidated), (b.scanned, b.invalidated));
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "refused for different reasons");
                        rejected += 1;
                    }
                    (a, b) => panic!("one home refused what the other took: {a:?} / {b:?}"),
                }
                assert_eq!(classic_home.epoch(), sharded_home.epoch_of(0));
            }
        }
    }
    assert!(rejected >= 10, "only {rejected} rejected updates scripted");

    assert_eq!(sharded_home.shard_count(), 1);
    assert_eq!(sharded_home.scatter_queries(), 0, "1-shard never scatters");
    assert_eq!(classic_home.epoch(), sharded_home.epoch_of(0));
    assert_eq!(
        classic_home.wal(),
        sharded_home.shard(0).wal(),
        "WAL diverged from the classic home"
    );
    assert_eq!(
        classic_home.database(),
        sharded_home.shard(0).database(),
        "master state diverged from the classic home"
    );
    // One pipeline, one account: a rejected update is an update request
    // served on either home.
    assert_eq!(classic.stats(), sharded.stats());
    assert_eq!(classic.tally(), sharded.tally());
    let inserts = script.iter().filter(|s| matches!(s, Step::Insert { .. }));
    assert_eq!(
        sharded.metrics().counters["update_template.1.applied"],
        inserts.count() as u64,
        "a rejected insert was not accounted"
    );
    assert_eq!(
        *classic_kinds.lock().unwrap(),
        *sharded_kinds.lock().unwrap(),
        "trace-event sequence diverged"
    );
    assert_eq!(classic.epoch(), sharded.epoch());
}

/// A trip the home refuses — an insert the master rejects, a query on a
/// table it does not have — is a whole request on every entry point: its
/// root span has the `home_trip` child and is closed, not left as it was
/// opened.
#[test]
fn refused_trips_leave_whole_span_trees_on_every_entry_point() {
    use scs_dssp::{HomeLink, RetryPolicy};
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    for entry in ["execute", "ft", "sharded"] {
        let (config, t) = build(None);
        let mut dssp = Dssp::new(config);
        dssp.enable_span_recording(64);
        let mut home = HomeServer::new(toy_db());
        let mut shards = ShardedHome::new(toy_db(), toy_map(2));
        let (taken, ghost) = (bind_insert(&t, 3, 1), ghost_query(&t, 1));
        let (update_refused, query_refused) = match entry {
            "execute" => (
                dssp.execute_update(&taken, &mut home).is_err(),
                dssp.execute_query(&ghost, &mut home).is_err(),
            ),
            "ft" => (
                dssp.execute_update_ft(&taken, &mut home, &link, &policy, None)
                    .is_err(),
                dssp.execute_query_ft(&ghost, &mut home, &link, &policy, None)
                    .is_err(),
            ),
            _ => (
                dssp.execute_update_sharded(&taken, &mut shards).is_err(),
                dssp.execute_query_sharded(&ghost, &mut shards).is_err(),
            ),
        };
        assert!(update_refused && query_refused, "{entry}: a home accepted");
        let spans = dssp.spans().spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        let phases: Vec<_> = roots.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            [SpanPhase::UpdateRequest, SpanPhase::QueryRequest],
            "{entry}"
        );
        for root in roots {
            let trips = spans
                .iter()
                .filter(|s| s.parent == root.id && s.phase == SpanPhase::HomeTrip);
            assert_eq!(trips.count(), 1, "{entry}: {:?} trips", root.phase);
            assert_ne!(root.elapsed_nanos, 0, "{entry}: {:?} left open", root.phase);
        }
    }
}

/// A cross-shard FK violation is refused before routing and consumes no
/// epoch on any stream; the same statement with a satisfiable parent
/// routes and consumes exactly one epoch on the owner's stream.
#[test]
fn fk_rejection_consumes_no_epoch_on_any_stream() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("users")
            .column("user_id", ColumnType::Int)
            .primary_key(&["user_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("items")
            .column("item_id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .primary_key(&["item_id"])
            .foreign_key(&["seller"], "users", &["user_id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    for id in 0..4 {
        db.insert_row("users", vec![Value::Int(id)]).unwrap();
    }
    let map = PartitionMap::by_table(3)
        .with_placement(
            "users",
            TablePlacement::Hash {
                column: "user_id".into(),
            },
        )
        .with_placement(
            "items",
            TablePlacement::Hash {
                column: "item_id".into(),
            },
        );
    let mut home = ShardedHome::new(db, map);
    let tmpl = Arc::new(parse_update("INSERT INTO items (item_id, seller) VALUES (?, ?)").unwrap());

    // Seller 99 exists on no shard: the handshake refuses the insert.
    let bad = Update::bind(0, tmpl.clone(), vec![Value::Int(1), Value::Int(99)]).unwrap();
    let err = home.apply(&bad).unwrap_err();
    assert!(matches!(
        err,
        scs_storage::StorageError::ForeignKeyViolation { .. }
    ));
    assert_eq!(home.fk_rejects(), 1);
    assert_eq!(home.tips(), vec![0; 3], "a refused update moved an epoch");

    // The parent lives on whatever shard hashes user 2; the child row
    // routes by its own key, possibly to a different shard — the
    // handshake must still find the parent.
    let good = Update::bind(0, tmpl, vec![Value::Int(1), Value::Int(2)]).unwrap();
    let (_, stream, _) = home.apply(&good).unwrap();
    let mut expect = vec![0u64; 3];
    expect[stream as usize] = 1;
    assert_eq!(
        home.tips(),
        expect,
        "exactly one epoch on the owner's stream"
    );
    assert_eq!(home.fk_rejects(), 1);
}

// ---------------------------------------------------------------------
// Exact equivalence: scatter == gather-then-execute, rows and order.
// ---------------------------------------------------------------------

const ITEMS: i64 = 16;
const USERS: i64 = 6;

/// Three tables under the two placements of a 4-shard map: `items`
/// hash-split over all four, `users` whole on shard 3, `bids` hash-split
/// too but with ids drawn only from those the hash places off shard 1 —
/// an empty participant of every `bids` scatter. No FK is declared, so that any
/// interleaving of inserts and deletes is accepted; `seller` and
/// `item_id` carry explicit indexes instead. `cat`, `price` and `amount`
/// are ordered on every shard, and so is the list `(cat, price)`: a top-k
/// over one of them — inside one `cat` for the list — merges the
/// participants' index walks.
fn market_db() -> Database {
    let mut db = Database::new();
    for schema in [
        TableSchema::builder("items")
            .column("item_id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .column("cat", ColumnType::Int)
            .column("price", ColumnType::Int)
            .primary_key(&["item_id"])
            .index("seller")
            .index("cat")
            .ordered_index("cat")
            .ordered_index("price")
            .ordered_index_on(&["cat", "price"]),
        TableSchema::builder("users")
            .column("user_id", ColumnType::Int)
            .column("region", ColumnType::Int)
            .primary_key(&["user_id"])
            .index("region"),
        TableSchema::builder("bids")
            .column("bid_id", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("amount", ColumnType::Int)
            .primary_key(&["bid_id"])
            .index("item_id")
            .ordered_index("amount"),
    ] {
        db.create_table(schema.build().unwrap()).unwrap();
    }
    for id in 0..ITEMS / 2 {
        let row = vec![id, id % USERS, id % 3, 10 * (id % 4)];
        db.insert_row("items", row.into_iter().map(Value::Int).collect())
            .unwrap();
    }
    for id in 0..USERS - 2 {
        db.insert_row("users", vec![Value::Int(id), Value::Int(id % 2)])
            .unwrap();
    }
    for id in 0..6 {
        let row = vec![bid_id(2 * id), id % 4, 5 * (id % 3)];
        db.insert_row("bids", row.into_iter().map(Value::Int).collect())
            .unwrap();
    }
    db
}

/// Bid ids are the first sixteen integers the map's hash places off
/// shard 1, so that shard's `bids` part stays empty whatever the script.
fn bid_id(n: i64) -> i64 {
    let map = market_map();
    (0..)
        .filter(|id| map.route_value("bids", &Value::Int(*id)) != 1)
        .nth((n % 16) as usize)
        .expect("three shards in four take ids")
}

fn market_map() -> PartitionMap {
    PartitionMap::by_table(4)
        .with_placement(
            "items",
            TablePlacement::Hash {
                column: "item_id".into(),
            },
        )
        .with_placement("users", TablePlacement::Shard(3))
        .with_placement(
            "bids",
            TablePlacement::Hash {
                column: "bid_id".into(),
            },
        )
}

/// The scatter path this suite's reference: every table's rows gathered
/// from its owner shards, ascending shard id and ascending row id within
/// a shard, into a scratch database — what `ShardedHome` built per
/// cross-shard query before it read the shards' tables in place. The
/// scratch tables carry no ordered index: the reference scans and sorts.
fn gathered(home: &ShardedHome) -> Database {
    let mut scratch = Database::new();
    let catalog = home.shard(0).database();
    for name in catalog.table_names() {
        let mut schema = catalog.table(name).unwrap().schema().clone();
        schema.ordered_indexes.clear();
        scratch.create_table(schema).unwrap();
        for owner in home.map().table_shards(name) {
            let part = home.shard(owner).database().table(name).unwrap();
            for (_, row) in part.iter() {
                scratch.insert_row(name, row.clone()).unwrap();
            }
        }
    }
    scratch
}

/// One insert, delete or modify of one row of one table, by key.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    table: usize,
    kind: usize,
    id: i64,
    a: i64,
    b: i64,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0usize..3, 0usize..3, 0..ITEMS, 0..ITEMS, 0i64..6).prop_map(|(table, kind, id, a, b)| {
        Mutation {
            table,
            kind,
            id,
            a,
            b,
        }
    })
}

struct Market {
    /// `[table][kind]`: insert, delete, modify.
    updates: Vec<Vec<Arc<UpdateTemplate>>>,
    /// `(what it covers, template, parameter count, must scatter)`.
    queries: Vec<(&'static str, Arc<QueryTemplate>, usize, bool)>,
}

fn market() -> Market {
    let updates = [
        [
            "INSERT INTO items (item_id, seller, cat, price) VALUES (?, ?, ?, ?)",
            "DELETE FROM items WHERE item_id = ?",
            "UPDATE items SET cat = ?, price = ? WHERE item_id = ?",
        ],
        [
            "INSERT INTO users (user_id, region) VALUES (?, ?)",
            "DELETE FROM users WHERE user_id = ?",
            "UPDATE users SET region = ? WHERE user_id = ?",
        ],
        [
            "INSERT INTO bids (bid_id, item_id, amount) VALUES (?, ?, ?)",
            "DELETE FROM bids WHERE bid_id = ?",
            "UPDATE bids SET amount = ? WHERE bid_id = ?",
        ],
    ]
    .iter()
    .map(|t| {
        t.iter()
            .map(|sql| Arc::new(parse_update(sql).unwrap()))
            .collect()
    })
    .collect();
    let queries = [
        (
            "unindexed scan",
            "SELECT item_id, price FROM items WHERE price >= ?",
            1,
            true,
        ),
        (
            "indexed restriction",
            "SELECT item_id, price FROM items WHERE cat = ?",
            1,
            true,
        ),
        (
            "LIMIT without ORDER BY, scanned",
            "SELECT item_id FROM items LIMIT 5",
            0,
            true,
        ),
        (
            "LIMIT without ORDER BY, indexed",
            "SELECT item_id FROM items WHERE cat = ? LIMIT 2",
            1,
            true,
        ),
        (
            "ORDER BY with ties + LIMIT",
            "SELECT item_id, cat FROM items ORDER BY cat DESC LIMIT 5",
            0,
            true,
        ),
        (
            "GROUP BY in first-seen order",
            "SELECT cat, COUNT(*), MAX(price), AVG(price) FROM items GROUP BY cat",
            0,
            true,
        ),
        (
            "Shard-placed joined with Hash-split, probed through `seller`",
            "SELECT users.user_id, items.item_id FROM users, items \
             WHERE users.user_id = items.seller AND users.region = ?",
            1,
            true,
        ),
        (
            "Hash-split joined with Shard-placed, filtered: hashed, or probed on its key",
            "SELECT items.item_id, users.region FROM items, users \
             WHERE items.seller = users.user_id AND items.price >= ? AND users.region >= 0 \
             ORDER BY users.region LIMIT 6",
            1,
            true,
        ),
        (
            "a filtered alias joined on its primary key: probed across the parts, then filtered",
            "SELECT items.item_id, users.user_id FROM items, users \
             WHERE items.seller = users.user_id AND items.price = ? AND users.region <= ?",
            2,
            true,
        ),
        (
            "one alias pinned, one scattered",
            "SELECT items.price, bids.bid_id, bids.amount FROM items, bids \
             WHERE items.item_id = bids.item_id AND items.item_id = ?",
            1,
            true,
        ),
        (
            "a hash-split table one of whose parts is empty",
            "SELECT bid_id, amount FROM bids WHERE amount >= ? ORDER BY amount LIMIT 4",
            1,
            true,
        ),
        (
            "top-k over an ordered column: the shards' walks merged from the bound",
            "SELECT item_id, price FROM items WHERE price >= ? ORDER BY price LIMIT 4",
            1,
            true,
        ),
        (
            "descending merged walk, ties across shards, rows skipped on another column",
            "SELECT item_id, price, seller FROM items WHERE price <= ? AND seller >= 1 \
             ORDER BY price DESC LIMIT 5",
            1,
            true,
        ),
        (
            "top-k inside an indexed = restriction: the shards' walks of `(cat, price)` merged, \
             price ties in the order of the parts' `cat` lists",
            "SELECT item_id, price FROM items WHERE cat = ? ORDER BY price LIMIT 3",
            1,
            true,
        ),
        (
            "the same downwards, from a bound on the key, rows skipped on another column",
            "SELECT item_id, price FROM items WHERE price <= 20 AND cat = ? AND seller >= 1 \
             ORDER BY price DESC LIMIT 2",
            1,
            true,
        ),
        (
            "a pinned lookup still routes",
            "SELECT price FROM items WHERE item_id = ?",
            1,
            false,
        ),
    ]
    .into_iter()
    .map(|(what, sql, params, scatters)| {
        (what, Arc::new(parse_query(sql).unwrap()), params, scatters)
    })
    .collect();
    Market { updates, queries }
}

impl Market {
    fn bind(&self, m: Mutation) -> Update {
        let Mutation {
            table,
            kind,
            id,
            a,
            b,
        } = m;
        let key = match table {
            0 => id,
            1 => id % USERS,
            _ => bid_id(id),
        };
        let params = match (table, kind) {
            (0, 0) => vec![key, a % USERS, b % 3, 10 * (a % 4)],
            (0, 2) => vec![b % 3, 10 * (a % 4), key],
            (1, 0) => vec![key, b % 2],
            (1, 2) => vec![b % 2, key],
            (2, 0) => vec![key, a, 5 * (b % 3)],
            (2, 2) => vec![5 * (b % 3), key],
            _ => vec![key],
        };
        let params = params.into_iter().map(Value::Int).collect();
        Update::bind(kind, self.updates[table][kind].clone(), params).unwrap()
    }

    /// Every query, with parameter `v`, on the sharded home and on the
    /// gathered reference: equal results, rows in equal order.
    fn check(&self, home: &mut ShardedHome, v: i64) -> Result<(), String> {
        let reference = gathered(home);
        for (tid, (what, tpl, params, scatters)) in self.queries.iter().enumerate() {
            let q = Query::bind(tid, tpl.clone(), vec![Value::Int(v); *params]).unwrap();
            let before = home.scatter_queries();
            let got = home.execute_query(&q).map_err(|e| format!("{what}: {e}"))?;
            if (home.scatter_queries() - before == 1) != *scatters {
                return Err(format!("{what}: went to shards {:?}", got.shards));
            }
            let want = reference.execute(&q).unwrap();
            if got.result != want {
                return Err(format!(
                    "{what} (? = {v}): scatter returned {:?}, gather-then-execute {:?}",
                    got.result.rows, want.rows
                ));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A scatter runs the plan over the shards' own tables and indexes;
    /// it must return exactly — `==`, not `multiset_eq` — what the same
    /// plan returns on the participants' rows gathered into one scratch
    /// database, under interleavings whose deletes, re-inserts and
    /// modifies reuse slots and leave every shard's index lists
    /// unordered.
    #[test]
    fn scatter_equals_gather_then_execute_rows_and_order(
        script in proptest::collection::vec(mutation(), 1..60),
    ) {
        let market = market();
        let mut home = ShardedHome::new(market_db(), market_map());
        prop_assert!(home.shard(1).database().table("bids").unwrap().is_empty());
        for (i, m) in script.iter().enumerate() {
            // A duplicate key or a missing row is refused or a no-op on
            // both sides alike: the reference is rebuilt from the shards.
            let _ = home.apply(&market.bind(*m));
            if i % 6 == 5 {
                let checked = market.check(&mut home, m.b % 4);
                prop_assert!(checked.is_ok(), "after {} updates: {}", i + 1, checked.unwrap_err());
            }
        }
        for v in 0..3 {
            let checked = market.check(&mut home, 10 * v);
            prop_assert!(checked.is_ok(), "at the end: {}", checked.unwrap_err());
        }
        prop_assert!(home.shard(1).database().table("bids").unwrap().is_empty());
    }
}

/// On a sharded home a stale serve explains on the stream that owns its
/// entry: the chain's `committed` step is that stream's epoch 1, not
/// stream 0's epoch of the same number.
#[test]
fn a_stale_serve_explains_on_its_entry_stream() {
    let (config, t) = build(Some(LEASE));
    let mut home = ShardedHome::new(toy_db(), toy_map(2));
    let mut dssp = Dssp::new(config);
    let prov = shared_provenance(1);
    dssp.add_trace_sink(Box::new(ProvenanceLog::sink(&prov, 0)));
    let owned_by = |shard: usize| {
        (0..ROWS)
            .find(|&id| home.map().shards_for_query(&keyed_query(&t, id)) == [shard])
            .expect("both shards own a row")
    };
    let (on_0, on_1) = (owned_by(0), owned_by(1));
    // Cache a row of stream 1, then commit epoch 1 on stream 0 at 100 µs
    // and on stream 1 (the cached row) at 200 µs; deliver neither.
    dssp.execute_query(&keyed_query(&t, on_1), &mut home)
        .unwrap();
    for (at, id) in [(100, on_0), (200, on_1)] {
        dssp.set_sim_time_micros(at);
        let (_, msg) = commit(&mut dssp, &mut home, &bind_update(&t, id, 99));
        assert_eq!(msg.epoch, 1);
    }
    dssp.set_sim_time_micros(300);
    let served = dssp.execute_query(&keyed_query(&t, on_1), &mut home);
    assert!(
        served.unwrap().hit,
        "the stale entry serves within its lease"
    );
    let doc = lock(&prov)
        .explain_serve(0, 0, 300)
        .expect("the hit is journaled");
    assert_eq!(doc.get("age_micros").and_then(Json::as_u64), Some(100));
    let chain = doc.get("chain").and_then(Json::as_arr).unwrap();
    let committed = chain
        .iter()
        .find(|s| s.get("step").and_then(Json::as_str) == Some("committed"))
        .expect("the chain names the commit");
    assert_eq!(committed.get("at_micros").and_then(Json::as_u64), Some(200));
}

/// A refused update reaches the home and is an update served, but it
/// commits nothing: its `UpdateApplied` carries no commit, so the plane
/// folds none.
#[test]
fn a_refused_update_commits_nothing() {
    let (config, t) = build(None);
    let mut home = ShardedHome::new(toy_db(), PartitionMap::single());
    let mut dssp = Dssp::new(config);
    let prov = shared_provenance(1);
    dssp.add_trace_sink(Box::new(ProvenanceLog::sink(&prov, 0)));
    let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
    let taken = bind_insert(&t, 0, 1);
    let refused = dssp.execute_update_ft(&taken, &mut home, &link, &policy, None);
    assert!(refused.is_err(), "id 0 is taken");
    commit(&mut dssp, &mut home, &bind_update(&t, 0, 5));
    let epochs: Vec<u64> = lock(&prov).commits().iter().map(|c| c.epoch).collect();
    assert_eq!(epochs, [1]);
    assert_eq!(
        dssp.stats().updates,
        2,
        "the refusal is still an update served"
    );
}
