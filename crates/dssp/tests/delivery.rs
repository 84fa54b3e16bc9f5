//! Integration tests for fault-tolerant invalidation delivery: epoch
//! ordering (duplicates, gaps, recovery flushes), out-of-band master
//! writes, crash/restart resynchronization, lease expiry, graceful
//! degradation during home-link outages — the eviction → re-fill →
//! invalidation ordering hazard (a re-filled entry must never resurrect a
//! pre-update result) — and the per-stream form of the protocol: delivery
//! on any stream is the stream-0 protocol on that stream's own cursor, for
//! messages and batches alike.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    BatchOutcome, Dssp, DsspConfig, FtOutcome, FtUpdateOutcome, Home, HomeLink, HomeServer,
    InvalidationBatch, InvalidationMsg, RetryPolicy, StrategyKind,
};
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, TableSchema};
use scs_storage::{QueryResult, StorageError, UpdateEffect};
use std::sync::Arc;

const QUERY_SQL: &[&str] = &[
    "SELECT qty FROM toys WHERE id = ?",
    "SELECT id FROM toys WHERE qty > ?",
];

const UPDATE_SQL: &[&str] = &[
    "UPDATE toys SET qty = ? WHERE id = ?",
    "DELETE FROM toys WHERE id = ?",
];

struct Rig {
    dssp: Dssp,
    home: HomeServer,
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
}

fn rig_with(config: impl FnOnce(DsspConfig) -> DsspConfig) -> Rig {
    let schema = TableSchema::builder("toys")
        .column("id", ColumnType::Int)
        .column("qty", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let mut db = Database::new();
    db.create_table(schema.clone()).unwrap();
    for id in 0..4i64 {
        db.insert_row("toys", vec![Value::Int(id), Value::Int(10 + id)])
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
    let exposures = StrategyKind::ViewInspection.exposures(updates.len(), queries.len());
    let dssp = Dssp::new(config(DsspConfig::new("delivery", exposures, matrix)));
    Rig {
        dssp,
        home: HomeServer::new(db),
        queries,
        updates,
    }
}

fn rig() -> Rig {
    rig_with(|c| c)
}

impl Rig {
    fn query(&mut self, tid: usize, params: Vec<Value>) -> Query {
        Query::bind(tid, self.queries[tid].clone(), params).unwrap()
    }

    fn update(&mut self, tid: usize, params: Vec<Value>) -> Update {
        Update::bind(tid, self.updates[tid].clone(), params).unwrap()
    }

    /// Applies an update at the home server via the ft path WITHOUT
    /// delivering the invalidation message — returns it for manual
    /// (out-of-order, duplicated, ...) delivery.
    fn update_undelivered(&mut self, tid: usize, params: Vec<Value>) -> InvalidationMsg {
        let u = self.update(tid, params);
        let resp = self
            .dssp
            .execute_update_ft(
                &u,
                &mut self.home,
                &HomeLink::reliable(),
                &RetryPolicy::no_retries(),
                None,
            )
            .unwrap();
        match resp.outcome {
            FtUpdateOutcome::Applied { msg, .. } => msg,
            other => unreachable!("reliable, ungated link: {other:?}"),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.dssp.metrics().counters[name]
    }
}

/// Satellite: eviction → re-fill → invalidation ordering. An entry evicted
/// before an update and re-fetched afterwards must reflect the post-update
/// master state — the late invalidation pass (which no longer finds the
/// original entry) must not leave a pre-update result servable.
#[test]
fn eviction_then_refill_never_resurrects_pre_update_results() {
    let mut r = rig_with(|c| DsspConfig {
        cache_capacity: Some(1),
        ..c
    });
    let qa = r.query(0, vec![Value::Int(1)]);
    let qb = r.query(0, vec![Value::Int(2)]);

    // Fill with A, then evict it by filling with B (capacity 1).
    let first = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(!first.hit);
    r.dssp.execute_query(&qb, &mut r.home).unwrap();
    assert_eq!(
        r.dssp.cache_len(),
        1,
        "capacity-1 cache must have evicted A"
    );

    // Update A's row while A is absent from the cache: the invalidation
    // pass scans only the surviving entry (B).
    let u = r.update(0, vec![Value::Int(99), Value::Int(1)]);
    let resp = r.dssp.execute_update(&u, &mut r.home).unwrap();
    assert!(resp.scanned <= 1);

    // Re-fill A: must be a miss and must carry the post-update value.
    let refill = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(!refill.hit, "evicted entry must not reappear as a hit");
    let truth = r.home.database().execute(&qa).unwrap();
    assert!(refill.result.multiset_eq(&truth));
    assert!(
        format!("{:?}", refill.result).contains("99"),
        "re-filled entry must hold the post-update qty, got {:?}",
        refill.result
    );

    // And the now-cached entry serves the same fresh result.
    let again = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(again.hit);
    assert!(again.result.multiset_eq(&truth));
}

/// Satellite: out-of-band writes through `HomeServer::mutate_database`
/// bump the master epoch without emitting a notification, so the next
/// delivered message exposes a gap and forces a recovery flush.
#[test]
fn out_of_band_master_write_forces_recovery_flush() {
    let mut r = rig();
    let qa = r.query(0, vec![Value::Int(1)]);
    r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert_eq!(r.dssp.cache_len(), 1);

    // Out-of-band master write: silently stales the cached entry.
    r.home.mutate_database(|db| {
        let u = Update::bind(
            0,
            Arc::new(parse_update(UPDATE_SQL[0]).unwrap()),
            vec![Value::Int(77), Value::Int(1)],
        )
        .unwrap();
        db.apply(&u).unwrap();
    });
    assert_eq!(r.home.epoch(), 1);
    assert_eq!(r.dssp.epoch(), 0, "no notification was delivered");

    // The next routed update's notification skips an epoch: recovery.
    let u = r.update(1, vec![Value::Int(3)]);
    let resp = r.dssp.execute_update(&u, &mut r.home).unwrap();
    assert_eq!(
        resp.scanned, resp.invalidated,
        "recovery reports flushed entries, not a targeted scan"
    );
    assert_eq!(r.dssp.epoch(), 2);
    assert_eq!(r.counter("dssp.epoch_gaps"), 1);
    assert_eq!(r.counter("dssp.recovery_flushes"), 1);

    // The stale entry is gone; the re-fetch sees the out-of-band value.
    let refetch = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(!refetch.hit);
    assert!(format!("{:?}", refetch.result).contains("77"));
}

/// The recovery flush drops every entry some update template can touch
/// per the IPM — the missed update could have been any of them — and
/// spares exactly the entries of templates the analysis proved
/// conflict-free against all of them: never more than the whole cache,
/// never less than what a missed update could have staled.
#[test]
fn recovery_flush_drops_what_an_update_can_touch_and_nothing_else() {
    let schemas = [
        TableSchema::builder("toys")
            .column("id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key(&["id"]),
        TableSchema::builder("shops")
            .column("id", ColumnType::Int)
            .column("city", ColumnType::Int)
            .primary_key(&["id"]),
    ]
    .map(|s| s.build().unwrap());
    let mut db = Database::new();
    for s in &schemas {
        db.create_table(s.clone()).unwrap();
    }
    for id in 1..=3 {
        for table in ["toys", "shops"] {
            db.insert_row(table, vec![Value::Int(id), Value::Int(10)])
                .unwrap();
        }
    }
    let queries = [
        "SELECT qty FROM toys WHERE id = ?",
        "SELECT city FROM shops WHERE id = ?",
    ]
    .map(|sql| Arc::new(parse_query(sql).unwrap()));
    // Nothing ever writes `shops`.
    let updates = [Arc::new(parse_update(UPDATE_SQL[0]).unwrap())];
    let catalog = Catalog::new(schemas);
    let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
    let exposures = StrategyKind::ViewInspection.exposures(1, 2);
    let mut dssp = Dssp::new(DsspConfig::new("delivery", exposures, matrix));
    let mut home = HomeServer::new(db);
    for (tid, template) in queries.iter().enumerate() {
        for id in 1..=3 {
            let q = Query::bind(tid, template.clone(), vec![Value::Int(id)]).unwrap();
            dssp.execute_query(&q, &mut home).unwrap();
        }
    }
    let touchable = |dssp: &Dssp, qid: usize| {
        (0..dssp.ipm().update_count()).any(|uid| !dssp.ipm().entry(uid, qid).all_zero())
    };
    let cached =
        |dssp: &Dssp| -> Vec<usize> { dssp.cache_entries().map(|e| e.key().template_id).collect() };
    let before = cached(&dssp);
    assert_eq!(before.len(), 6);
    // Two master writes, the first notification lost: a gap.
    let u = Update::bind(0, updates[0].clone(), vec![Value::Int(7), Value::Int(1)]).unwrap();
    home.apply_update(&u).unwrap();
    let (_, late) = home.apply_update(&u).unwrap();
    let BatchOutcome::Recovered { flushed } =
        dssp.apply_batch_from(0, &InvalidationBatch::single(late))
    else {
        panic!("a skipped epoch must flush");
    };
    let after = cached(&dssp);
    assert!(
        after.iter().all(|&qid| !touchable(&dssp, qid)),
        "an entry a missed update could have staled survived"
    );
    let doomed = before.iter().filter(|&&qid| touchable(&dssp, qid)).count();
    assert_eq!(flushed, doomed, "a conflict-free entry was flushed");
    assert_eq!((flushed, after.len()), (3, 3));
}

#[test]
fn duplicates_and_gaps_follow_epoch_semantics() {
    let mut r = rig();
    let qa = r.query(0, vec![Value::Int(0)]);
    r.dssp.execute_query(&qa, &mut r.home).unwrap();

    let m1 = r.update_undelivered(0, vec![Value::Int(20), Value::Int(0)]);
    assert!(matches!(
        r.dssp
            .apply_batch_from(0, &InvalidationBatch::single(m1.clone())),
        BatchOutcome::Applied { .. }
    ));
    // Redelivery of the same epoch is dropped.
    assert!(matches!(
        r.dssp
            .apply_batch_from(0, &InvalidationBatch::single(m1.clone())),
        BatchOutcome::Duplicate
    ));

    let m2 = r.update_undelivered(0, vec![Value::Int(21), Value::Int(0)]);
    let m3 = r.update_undelivered(0, vec![Value::Int(22), Value::Int(0)]);
    // Reorder: epoch 3 before epoch 2 — the gap forces a flush that
    // covers both, and the late epoch-2 message is then a duplicate.
    assert!(matches!(
        r.dssp.apply_batch_from(0, &InvalidationBatch::single(m3)),
        BatchOutcome::Recovered { .. }
    ));
    assert!(matches!(
        r.dssp.apply_batch_from(0, &InvalidationBatch::single(m2)),
        BatchOutcome::Duplicate
    ));
    assert_eq!(r.dssp.epoch(), 3);
    assert_eq!(r.counter("dssp.duplicate_invalidations"), 2);
    assert_eq!(r.counter("dssp.epoch_gaps"), 1);

    // Whatever survived recovery still matches ground truth.
    for e in r.dssp.cache_entries() {
        let q = Query::bind(
            e.key().template_id,
            r.queries[e.key().template_id].clone(),
            e.key().params.clone(),
        )
        .unwrap();
        assert!(e
            .serve()
            .multiset_eq(&r.home.database().execute(&q).unwrap()));
    }
}

#[test]
fn restart_resynchronizes_with_the_home_epoch() {
    let mut r = rig();
    let qa = r.query(0, vec![Value::Int(1)]);
    r.dssp.execute_query(&qa, &mut r.home).unwrap();
    let in_flight = r.update_undelivered(0, vec![Value::Int(50), Value::Int(1)]);

    // Crash/restart: cold cache, epoch handshake with the home server.
    r.dssp.restart(&[r.home.epoch()]);
    assert_eq!(r.dssp.cache_len(), 0);
    assert_eq!(r.dssp.epoch(), r.home.epoch());
    assert_eq!(r.counter("dssp.restarts"), 1);

    // A message that was in flight across the crash arrives as a
    // duplicate — the handshake already covers it.
    assert!(matches!(
        r.dssp
            .apply_batch_from(0, &InvalidationBatch::single(in_flight)),
        BatchOutcome::Duplicate
    ));

    // First post-restart query misses and serves fresh data.
    let resp = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(!resp.hit);
    assert!(format!("{:?}", resp.result).contains("50"));
}

#[test]
fn degraded_hits_serve_during_outages_but_misses_surface_unavailable() {
    let mut r = rig_with(|c| DsspConfig {
        lease_micros: Some(10_000_000),
        ..c
    });
    r.dssp.set_sim_time_micros(1_000);
    let qa = r.query(0, vec![Value::Int(1)]);
    let qb = r.query(0, vec![Value::Int(2)]);
    r.dssp.execute_query(&qa, &mut r.home).unwrap();

    // Home link down for the rest of the test.
    let down = HomeLink::with_outages(vec![(0, u64::MAX)]);
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_micros: 100,
        max_backoff_micros: 1_000,
        timeout_micros: 10_000,
        jitter: false,
    };

    // Within-lease hit: served, flagged degraded.
    let hit = r
        .dssp
        .execute_query_ft(&qa, &mut r.home, &down, &policy, None)
        .unwrap();
    match hit.outcome {
        FtOutcome::Served { hit, degraded, .. } => {
            assert!(hit);
            assert!(degraded, "serve during an outage must be flagged");
        }
        other => panic!("within-lease hit must serve: {other:?}"),
    }

    // Miss: retries, then unavailable — never a stale substitute.
    let miss = r
        .dssp
        .execute_query_ft(&qb, &mut r.home, &down, &policy, None)
        .unwrap();
    assert!(matches!(miss.outcome, FtOutcome::Unavailable));
    assert!(
        miss.attempts >= 2,
        "outage path must retry before giving up"
    );
    assert!(r.counter("dssp.degraded_serves") >= 1);
    assert!(r.counter("dssp.home_retries") >= 1);
    assert!(r.counter("dssp.home_unavailable") >= 1);
}

#[test]
fn retries_succeed_once_a_short_outage_lifts() {
    let mut r = rig();
    r.dssp.set_sim_time_micros(0);
    // Link is down for the first 5 ms; backoff walks past the outage.
    let flaky = HomeLink::with_outages(vec![(0, 5_000)]);
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff_micros: 2_000,
        max_backoff_micros: 8_000,
        timeout_micros: 50_000,
        jitter: false,
    };
    let qa = r.query(0, vec![Value::Int(1)]);
    let resp = r
        .dssp
        .execute_query_ft(&qa, &mut r.home, &flaky, &policy, None)
        .unwrap();
    match resp.outcome {
        FtOutcome::Served { hit, degraded, .. } => {
            assert!(!hit);
            assert!(!degraded);
        }
        other => panic!("outage lifts within the retry budget: {other:?}"),
    }
    assert!(resp.attempts > 1);
    assert!(resp.backoff_micros >= 5_000);
    assert!(r.counter("dssp.home_retries") >= 1);
}

#[test]
fn expired_leases_refetch_instead_of_serving() {
    let mut r = rig_with(|c| DsspConfig {
        lease_micros: Some(1_000),
        ..c
    });
    let qa = r.query(0, vec![Value::Int(1)]);
    r.dssp.set_sim_time_micros(0);
    r.dssp.execute_query(&qa, &mut r.home).unwrap();

    // Stale the master silently; redeliver nothing. Within the lease the
    // (now stale) entry may legally serve...
    r.dssp.set_sim_time_micros(900);
    assert!(r.dssp.execute_query(&qa, &mut r.home).unwrap().hit);

    // ...but past the lease it must be dropped and re-fetched.
    r.dssp.set_sim_time_micros(2_000);
    let resp = r.dssp.execute_query(&qa, &mut r.home).unwrap();
    assert!(!resp.hit, "expired entry must not serve");
    assert_eq!(r.counter("dssp.lease_expirations"), 1);
    // The expired lookup is a miss like any other, and a query served.
    let s = r.dssp.stats();
    assert_eq!((s.queries, s.hits, s.misses), (3, 1, 2));
    assert_eq!(r.counter("query_template.0.misses"), 2);
}

// ---------------------------------------------------------------------
// Per-stream delivery is the stream-0 protocol.
// ---------------------------------------------------------------------

/// One step of a delivery script. Indexes into the notifications issued
/// so far wrap, so a script replays, skips, reorders and overlaps them
/// at will.
#[derive(Debug, Clone)]
enum Step {
    Query {
        tid: usize,
        v: i64,
    },
    /// Applied at the home; the notification is only issued, not
    /// delivered. Few distinct contents, so batches coalesce.
    Update {
        tid: usize,
        id: i64,
        qty: i64,
    },
    Msg {
        k: usize,
    },
    /// The issued run `[from, from + len)`, coalesced; `trim_tail` drops
    /// its last retained message and keeps the range (a hole at the end).
    Batch {
        from: usize,
        len: usize,
        trim_tail: bool,
    },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0usize..2, 0i64..4).prop_map(|(tid, v)| Step::Query { tid, v }),
        4 => (0usize..2, 0i64..4, 0i64..2).prop_map(|(tid, id, qty)| Step::Update { tid, id, qty }),
        3 => (0usize..64).prop_map(|k| Step::Msg { k }),
        3 => (0usize..64, 1usize..6, any::<bool>())
            .prop_map(|(from, len, trim_tail)| Step::Batch { from, len, trim_tail }),
    ]
}

fn cases() -> u32 {
    std::env::var("SCS_SCENARIO_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A home server answering as invalidation stream `.1`.
struct OnStream(HomeServer, u64);

impl Home for OnStream {
    type Streams = [u64; 1];

    fn answer(&mut self, q: &Query) -> Result<(QueryResult, [u64; 1]), StorageError> {
        Ok((self.0.execute_query(q)?, [self.1]))
    }

    fn apply(&mut self, u: &Update) -> Result<(UpdateEffect, u64, InvalidationMsg), StorageError> {
        let (effect, msg) = self.0.apply_update(u)?;
        Ok((effect, self.1, msg))
    }

    fn epoch_of(&self, stream: u64) -> u64 {
        if stream == self.1 {
            self.0.epoch()
        } else {
            0
        }
    }
}

impl Rig {
    fn bind(&mut self, step: &Step) -> Option<Update> {
        match *step {
            Step::Update { tid: 0, id, qty } => {
                Some(self.update(0, vec![Value::Int(qty), Value::Int(id)]))
            }
            Step::Update { id, .. } => Some(self.update(1, vec![Value::Int(id)])),
            _ => None,
        }
    }

    /// What the cache holds, in a comparable form: key, rows and the
    /// epoch each entry was filled at.
    fn cache_image(&self) -> Vec<String> {
        let mut image: Vec<String> = self
            .dssp
            .cache_entries()
            .map(|e| format!("{:?} {:?} @{}", e.key(), e.serve().rows, e.stored_epoch()))
            .collect();
        image.sort();
        image
    }
}

/// The ordering protocol, restated as a model of one cursor: what a
/// message at `epoch` must come back as, and where it leaves the cursor.
fn model_msg(cursor: &mut u64, epoch: u64) -> &'static str {
    if epoch <= *cursor {
        return "duplicate";
    }
    let verdict = if epoch == *cursor + 1 {
        "applied"
    } else {
        "recovered"
    };
    *cursor = epoch;
    verdict
}

/// The same for a batch covering `[first, last]`.
fn model_batch(cursor: &mut u64, first: u64, last: u64) -> &'static str {
    if last <= *cursor {
        return "duplicate";
    }
    let verdict = if first <= *cursor + 1 {
        "applied"
    } else {
        "recovered"
    };
    *cursor = last;
    verdict
}

fn batch_verdict(o: BatchOutcome) -> &'static str {
    match o {
        BatchOutcome::Applied { .. } => "applied",
        BatchOutcome::Duplicate => "duplicate",
        BatchOutcome::Recovered { .. } => "recovered",
    }
}

/// The batch a script step asks for, if enough has been issued.
fn script_batch(
    issued: &[InvalidationMsg],
    from: usize,
    len: usize,
    trim_tail: bool,
) -> Option<InvalidationBatch> {
    let from = from % issued.len().max(1);
    let run = issued.get(from..(from + len).min(issued.len()))?;
    let mut batch = InvalidationBatch::coalesce(run.to_vec())?;
    if trim_tail && batch.msgs.len() > 1 {
        batch.msgs.pop();
    }
    Some(batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A proxy fed on stream `s` and a twin fed the same sequence on
    /// stream 0 — in-order, duplicate, gapped and overlapping messages
    /// and batches, coalesced holes included — agree on every outcome
    /// (`scanned`, `invalidated`, `flushed` too), hold equal caches and
    /// equal stats, and `epoch_of(s)` of the one is `epoch()` of the
    /// other. Both follow the one-cursor model, and the stream-`s` proxy
    /// never moves its stream-0 cursor.
    #[test]
    fn delivery_on_any_stream_is_the_stream_0_protocol(
        s in prop_oneof![Just(1u64), Just(3u64)],
        script in proptest::collection::vec(step(), 1..70),
    ) {
        let mut on_s = rig();
        let mut home_s = OnStream(on_s.home.clone(), s);
        let mut on_0 = rig();
        let mut issued: Vec<InvalidationMsg> = Vec::new();
        let mut model = 0u64;
        for step in &script {
            match *step {
                Step::Query { tid, v } => {
                    let q = on_s.query(tid, vec![Value::Int(v)]);
                    let empty = on_0.dssp.cache_len() == 0;
                    let a = on_s.dssp.execute_query(&q, &mut home_s).unwrap();
                    let b = on_0.dssp.execute_query(&q, &mut on_0.home).unwrap();
                    prop_assert_eq!(a.hit, b.hit);
                    prop_assert_eq!(a.result, b.result);
                    // A miss into an empty cache handshakes the cursor.
                    if empty {
                        model = model.max(on_0.home.epoch());
                    }
                }
                Step::Update { .. } => {
                    let u = on_s.bind(step).expect("an update step binds");
                    let (_, msg) = home_s.0.apply_update(&u).unwrap();
                    let (_, twin) = on_0.home.apply_update(&u).unwrap();
                    prop_assert_eq!(msg.epoch, twin.epoch);
                    issued.push(msg);
                }
                Step::Msg { k } => {
                    let Some(msg) = issued.get(k % issued.len().max(1)) else {
                        continue;
                    };
                    let lone = InvalidationBatch::single(msg.clone());
                    let a = on_s.dssp.apply_batch_from(s, &lone);
                    let b = on_0.dssp.apply_batch_from(0, &lone);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(batch_verdict(a), model_msg(&mut model, msg.epoch));
                }
                Step::Batch { from, len, trim_tail } => {
                    let Some(batch) = script_batch(&issued, from, len, trim_tail) else {
                        continue;
                    };
                    let a = on_s.dssp.apply_batch_from(s, &batch);
                    let b = on_0.dssp.apply_batch(&batch);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(
                        batch_verdict(a),
                        model_batch(&mut model, batch.first_epoch, batch.last_epoch)
                    );
                }
            }
            prop_assert_eq!(on_s.dssp.epoch_of(s), model);
            prop_assert_eq!(on_0.dssp.epoch(), model);
            prop_assert_eq!(on_s.dssp.epoch(), 0, "stream {}'s delivery moved stream 0", s);
            prop_assert_eq!(on_s.cache_image(), on_0.cache_image());
        }
        prop_assert_eq!(on_s.dssp.stats(), on_0.dssp.stats());
        prop_assert_eq!(
            on_s.dssp.metrics().counters,
            on_0.dssp.metrics().counters
        );
    }

    /// Two streams interleaved at one proxy: every delivery moves the
    /// cursor of the stream it came on as the model says — a gap on one
    /// stream jumps that cursor alone — and leaves the other stream's,
    /// and stream 0's, where they were.
    #[test]
    fn a_gap_on_one_stream_moves_only_that_cursor(
        script in proptest::collection::vec((any::<bool>(), step()), 1..70),
    ) {
        const STREAMS: [u64; 2] = [1, 3];
        let mut r = rig();
        let mut homes = STREAMS.map(|_| rig().home);
        let mut issued: [Vec<InvalidationMsg>; 2] = [Vec::new(), Vec::new()];
        let mut model = [0u64; 2];
        for (second, step) in &script {
            let i = usize::from(*second);
            let (s, other) = (STREAMS[i], STREAMS[1 - i]);
            let other_before = r.dssp.epoch_of(other);
            match *step {
                // Hits only: a miss would handshake a cursor.
                Step::Query { .. } => continue,
                Step::Update { .. } => {
                    let u = r.bind(step).expect("an update step binds");
                    issued[i].push(homes[i].apply_update(&u).unwrap().1);
                }
                Step::Msg { k } => {
                    let Some(msg) = issued[i].get(k % issued[i].len().max(1)) else {
                        continue;
                    };
                    let got = r.dssp.apply_batch_from(s, &InvalidationBatch::single(msg.clone()));
                    prop_assert_eq!(batch_verdict(got), model_msg(&mut model[i], msg.epoch));
                }
                Step::Batch { from, len, trim_tail } => {
                    let Some(batch) = script_batch(&issued[i], from, len, trim_tail) else {
                        continue;
                    };
                    let got = r.dssp.apply_batch_from(s, &batch);
                    prop_assert_eq!(
                        batch_verdict(got),
                        model_batch(&mut model[i], batch.first_epoch, batch.last_epoch)
                    );
                }
            }
            prop_assert_eq!(r.dssp.epoch_of(s), model[i]);
            prop_assert_eq!(r.dssp.epoch_of(other), other_before);
            prop_assert_eq!(r.dssp.epoch(), 0);
        }
    }
}
