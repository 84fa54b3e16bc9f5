//! Differential oracle for the invalidation indexes (DESIGN §5,
//! invariant 10): a `Dssp` — whose pass generates candidates from a
//! parameter index and a result-key index before asking `decide` — is
//! driven step for step beside [`LinearCache`], the linear pass kept as
//! a test-only reference. After every step the two must hold the same
//! key set; every update must report the same `(scanned, invalidated)`
//! and, with the audit plane attached, stamp the same reveals. The
//! indexes may change how victims are *found*, never which entries are
//! victims.

#[path = "support/generate.rs"]
mod generate;
#[path = "support/linear.rs"]
mod linear;
#[path = "support/reference_decide.rs"]
mod reference_decide;

use generate::{
    cases, random_level, random_params, random_query, random_update, schemas, seed_database, POOL,
};
use linear::{Key, LinearCache, Reveals};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_apps::{
    analysis_matrix, auction, bboard, bookstore, toystore, BenchApp, BoundOp, IdSpaces, ParamGen,
    RequestSampler,
};
use scs_core::{
    characterize_app, compulsory_exposures, reduce_exposures, AnalysisOptions, Catalog,
    ExposureLevel, Exposures, IpmMatrix, SensitivityPolicy,
};
use scs_crypto::Encryptor;
use scs_dssp::{
    BatchOutcome, Dssp, DsspConfig, HomeServer, InvalidationBatch, InvalidationMsg, ResultCache,
    StrategyKind,
};
use scs_sqlkit::{
    parse_query, parse_update, statement_len, Query, QueryTemplate, Update, UpdateTemplate, Value,
};
use scs_storage::QueryResult;
use scs_telemetry::{shared_audit, AuditLog, SharedAudit};
use std::collections::BTreeSet;
use std::sync::Arc;

// ---- the pair under test ------------------------------------------------

fn sut_keys(dssp: &Dssp) -> BTreeSet<Key> {
    dssp.cache_entries()
        .map(|e| (e.key().template_id, format!("{:?}", e.key().params)))
        .collect()
}

/// The reveals the audit plane journaled from event `from` on, keyed like
/// the reference's.
fn journaled_reveals(audit: &SharedAudit, from: usize) -> Reveals {
    let log = audit.lock().unwrap();
    let mut reveals = Reveals::new();
    for ev in &log.events()[from..] {
        let key = (ev.template, ev.stamp.kind, ev.stamp.path, ev.stamp.level);
        let prior = reveals.insert(key, (ev.stamp.bytes, ev.stamp.pairs));
        assert!(prior.is_none(), "one stamp per key per pass: {key:?}");
    }
    reveals
}

/// A `Dssp` and the linear reference, fed the same steps.
struct Pair {
    dssp: Dssp,
    reference: LinearCache,
    audit: SharedAudit,
    /// The invalidation stream's epoch; updates are delivered straight to
    /// the pass (`apply_batch_from`, one at a time), so shapes the home would reject —
    /// an UPDATE off the primary key, a `Real` for an `Int` column —
    /// still reach it.
    epoch: u64,
    evicted: u64,
    /// Compare key sets and check the cache's invariants after queries
    /// too, not only after updates (the long replays skip
    /// it: a query changes one entry, and the hit flag and the cache
    /// length are compared regardless).
    check_queries: bool,
}

impl Pair {
    fn new(
        app: &str,
        exposures: Exposures,
        matrix: IpmMatrix,
        capacity: Option<usize>,
        lease: Option<u64>,
    ) -> Pair {
        let mut config = DsspConfig::new(app, exposures.clone(), matrix.clone());
        config.cache_capacity = capacity;
        config.lease_micros = lease;
        let mut dssp = Dssp::new(config);
        let audit = shared_audit(1);
        dssp.add_trace_sink(Box::new(AuditLog::sink(&audit, 0, app)));
        Pair {
            dssp,
            reference: LinearCache::new(exposures, matrix, capacity, lease),
            audit,
            epoch: 0,
            evicted: 0,
            check_queries: true,
        }
    }

    fn check(&self, after: &str) {
        assert_eq!(
            sut_keys(&self.dssp),
            self.reference.keys(),
            "key sets diverged after {after}"
        );
        #[cfg(debug_assertions)]
        if let Err(broken) = self.dssp.check_cache_invariants() {
            panic!("cache invariant broken after {after}: {broken}");
        }
    }

    fn query(&mut self, q: &Query, home: &mut HomeServer) {
        // A generated statement the home cannot run is not a step.
        let Ok(resp) = self.dssp.execute_query(q, home) else {
            return;
        };
        let hit = self.reference.lookup(q);
        assert_eq!(resp.hit, hit, "hit/miss diverged on {q}");
        if !hit {
            self.evicted += self.reference.store(q, resp.result).len() as u64;
        }
        assert_eq!(self.dssp.cache_len(), self.reference.len());
        if self.check_queries {
            self.check("query");
        }
    }

    /// Delivers `u`'s invalidation to both sides; returns the victims.
    fn update(&mut self, u: &Update) -> BTreeSet<Key> {
        let journaled = self.audit.lock().unwrap().events().len();
        self.epoch += 1;
        let msg = InvalidationMsg {
            epoch: self.epoch,
            update: u.clone(),
        };
        let outcome = self
            .dssp
            .apply_batch_from(0, &InvalidationBatch::single(msg));
        let pass = self.reference.invalidate(u);
        assert_eq!(
            outcome,
            BatchOutcome::Applied {
                applied: 1,
                skipped: 0,
                scanned: pass.scanned,
                invalidated: pass.victims.len(),
            },
            "pass outcome diverged on {u}"
        );
        assert_eq!(
            journaled_reveals(&self.audit, journaled),
            pass.reveals,
            "audit stamps diverged on {u}"
        );
        self.check("update");
        pass.victims
    }

    fn advance(&mut self, now: u64) {
        self.dssp.set_sim_time_micros(now);
        self.reference.set_now(now);
    }

    fn restart(&mut self) {
        self.dssp.restart(&[self.epoch]);
        self.reference.clear();
        self.check("restart");
    }

    fn finish(&self) {
        let stats = self.dssp.stats();
        assert_eq!(stats.evictions, self.evicted, "evictions");
        assert!(stats.entries_inspected <= stats.entries_scanned);
    }
}

/// One generated case: templates, exposures, a cache small enough to
/// evict, leases short enough to expire, and a step sequence.
fn run_case(seed: u64) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let (mut query_sql, mut update_sql) = (Vec::new(), Vec::new());
    let (mut queries, mut updates) = (Vec::new(), Vec::new());
    while queries.len() < 6 {
        let sql = random_query(rng);
        if let Ok(t) = parse_query(&sql.text) {
            queries.push(Arc::new(t));
            query_sql.push(sql);
        }
    }
    while updates.len() < 5 {
        let sql = random_update(rng);
        if let Ok(t) = parse_update(&sql.text) {
            updates.push(Arc::new(t));
            update_sql.push(sql);
        }
    }
    let matrix = characterize_app(
        &updates,
        &queries,
        &Catalog::new(schemas()),
        AnalysisOptions::default(),
    );
    let exposures = match rng.gen_range(0..12) {
        0..=3 => StrategyKind::ViewInspection.exposures(updates.len(), queries.len()),
        4..=5 => StrategyKind::StatementInspection.exposures(updates.len(), queries.len()),
        6 => StrategyKind::TemplateInspection.exposures(updates.len(), queries.len()),
        7 => StrategyKind::Blind.exposures(updates.len(), queries.len()),
        _ => Exposures {
            updates: updates.iter().map(|_| random_level(rng, true)).collect(),
            queries: queries.iter().map(|_| random_level(rng, false)).collect(),
        },
    };
    let capacity = rng.gen_bool(0.4).then(|| rng.gen_range(4..24));
    let lease = rng.gen_bool(0.3).then(|| rng.gen_range(50..400));
    let mut pair = Pair::new("oracle", exposures, matrix, capacity, lease);
    let mut home = HomeServer::new(seed_database());
    let mut now = 0u64;
    let bind_query = |rng: &mut StdRng, tid: usize| {
        let params = random_params(rng, &query_sql[tid].string_params, POOL);
        Query::bind(tid, queries[tid].clone(), params).unwrap()
    };
    let update = |rng: &mut StdRng, pair: &mut Pair, home: &mut HomeServer| {
        let tid = rng.gen_range(0..updates.len());
        let params = random_params(rng, &update_sql[tid].string_params, POOL);
        let u = Update::bind(tid, updates[tid].clone(), params).unwrap();
        // The master moves now and then (when it accepts the update at
        // all), so later fills see changed rows — but not so often that
        // range deletes empty it.
        if rng.gen_bool(0.2) {
            let _ = home.apply_update(&u);
        }
        pair.update(&u);
    };
    for _ in 0..rng.gen_range(250..450) {
        match rng.gen_range(0..200) {
            0..=167 => {
                let tid = rng.gen_range(0..queries.len());
                pair.query(&bind_query(rng, tid), &mut home);
            }
            168..=191 => update(rng, &mut pair, &mut home),
            192..=195 => {
                now += rng.gen_range(1..80u64);
                pair.advance(now);
            }
            // A burst over each template parity in turn: fill every
            // template of the parity, invalidate, then fill the same
            // instances again, so entries leave and come back in bulk.
            196..=198 => {
                for parity in 0..2 {
                    let burst: Vec<Query> = (parity..queries.len())
                        .step_by(2)
                        .map(|tid| bind_query(rng, tid))
                        .collect();
                    for q in &burst {
                        pair.query(q, &mut home);
                    }
                    update(rng, &mut pair, &mut home);
                    for q in &burst {
                        pair.query(q, &mut home);
                    }
                }
            }
            _ => pair.restart(),
        }
    }
    pair.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The indexed pass and the linear pass agree, step for step, on
    /// random templates, exposures, capacities, leases and bursts.
    #[test]
    fn indexed_pass_matches_linear_pass(seed in 0..u64::MAX) {
        run_case(seed);
    }
}

// ---- the benchmark applications' own streams ----------------------------

fn methodology_exposures(app: BenchApp) -> Exposures {
    let def = app.def();
    let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
    let compulsory = compulsory_exposures(
        &def.update_templates(),
        &def.query_templates(),
        &def.catalog(),
        &policy,
    );
    reduce_exposures(&analysis_matrix(&def), &compulsory)
}

/// Replays the first `requests` requests of `app`'s stream through a real
/// `Dssp` + `HomeServer` beside the reference: identical hits, identical
/// per-update victim sets.
fn replay(app: BenchApp, exposures: Exposures, capacity: Option<usize>, requests: usize) {
    let def = app.def();
    let (db, ids) = app.build_database(11);
    let mut stream = RequestSampler::new(&def, ParamGen::new(ids, 1.0), 11);
    let mut pair = Pair::new(def.name, exposures, analysis_matrix(&def), capacity, None);
    pair.check_queries = false;
    let mut home = HomeServer::new(db);
    let (mut victims, mut passes) = (0, 0);
    for op in (0..requests).flat_map(|_| stream.draw()) {
        match op {
            BoundOp::Query(q) => pair.query(&q, &mut home),
            BoundOp::Update(u) => {
                // The home rejects some (a bid on a closed auction); a
                // rejected update reaches no pass.
                if home.apply_update(&u).is_ok() {
                    victims += pair.update(&u).len();
                    passes += 1;
                }
            }
        }
    }
    pair.finish();
    assert!(passes > 100 && victims > 0, "the stream exercises the pass");
}

#[test]
fn auction_stream_has_identical_victims() {
    let def = BenchApp::Auction.def();
    let mvis = StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
    replay(BenchApp::Auction, mvis, None, 2000);
    replay(
        BenchApp::Auction,
        methodology_exposures(BenchApp::Auction),
        None,
        2000,
    );
}

#[test]
fn bookstore_stream_has_identical_victims() {
    let def = BenchApp::Bookstore.def();
    let mvis = StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
    replay(BenchApp::Bookstore, mvis, None, 2000);
    replay(
        BenchApp::Bookstore,
        methodology_exposures(BenchApp::Bookstore),
        Some(256),
        2000,
    );
}

// ---- counted == rendered ------------------------------------------------

/// A parameter the renderer has to work for: quotes to double, `?`s and
/// `?N`s that are text inside the literal, multi-byte characters, and
/// `Real`s in both of `Real`'s display forms.
fn adversarial(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..9) {
        0 => Value::str("'"),
        1 => Value::str("''"),
        2 => Value::str("?"),
        3 => Value::str("?0"),
        4 => Value::str("it's ?1 — ü 漢 ''?''"),
        5 => Value::real(rng.gen_range(-1e4..1e4)),
        6 => Value::real(rng.gen_range(-1e4..1e4f64).round()),
        7 => Value::real(1e16 * rng.gen_range(1.0..9.0)),
        _ => Value::Int(i64::MIN),
    }
}

/// A `view`/`stmt` fill counts its statement's length from its bucket's
/// rendered template instead of rendering the statement: over the four
/// applications' query templates, bound by their parameter generators
/// with a third of the parameters swapped for adversarial ones, the
/// counted length, and the stored size built from it, are the rendered
/// text's.
#[test]
fn counted_statement_length_equals_rendered() {
    let toystore_ids = {
        let mut ids = IdSpaces::default();
        ids.declare("toys", 50);
        ids.declare("customers", 30);
        ids
    };
    let apps = [
        (
            BenchApp::Auction.def(),
            auction::id_spaces(Default::default()),
        ),
        (
            BenchApp::Bboard.def(),
            bboard::id_spaces(Default::default()),
        ),
        (
            BenchApp::Bookstore.def(),
            bookstore::id_spaces(Default::default()),
        ),
        (toystore::toystore(), toystore_ids),
    ];
    let rng = &mut StdRng::seed_from_u64(13);
    for (def, ids) in apps {
        let mut gen = ParamGen::new(ids, 1.0);
        let mut cache = ResultCache::new(Encryptor::for_app(def.name));
        for _ in 0..cases() {
            for (tid, t) in def.queries.iter().enumerate() {
                let mut params = gen.bind_all(&t.params, rng);
                for p in &mut params {
                    if rng.gen_bool(0.3) {
                        *p = adversarial(rng);
                    }
                }
                let q = Query::bind(tid, t.template.clone(), params).unwrap();
                let rendered = q.statement_text().len();
                assert_eq!(statement_len(&t.template.to_string(), &q.params), rendered);
                let row = vec![Value::Int(1); t.template.select.len()];
                let result = QueryResult::new(vec![String::new(); row.len()], vec![row]);
                let level = if rng.gen_bool(0.5) {
                    ExposureLevel::View
                } else {
                    ExposureLevel::Stmt
                };
                let envelope = if level == ExposureLevel::View { 0 } else { 8 };
                let stored = rendered + result.approx_size_bytes() + envelope;
                cache.store(&q, result, level);
                assert_eq!(cache.peek(&q).unwrap().stored_bytes, stored, "{q}");
            }
        }
        #[cfg(debug_assertions)]
        cache.check_invariants().unwrap();
    }
}

// ---- pins ---------------------------------------------------------------

fn point_query_fixture() -> (Arc<QueryTemplate>, Arc<UpdateTemplate>, IpmMatrix) {
    let q = Arc::new(parse_query("SELECT id, val FROM alpha WHERE val = ?").unwrap());
    let u = Arc::new(parse_update("DELETE FROM alpha WHERE val = ?").unwrap());
    let matrix = characterize_app(
        std::slice::from_ref(&u),
        std::slice::from_ref(&q),
        &Catalog::new(schemas()),
        AnalysisOptions::default(),
    );
    (q, u, matrix)
}

/// `SELECT … WHERE val = 35.0` is cached; `DELETE … WHERE val = 35`
/// removes its row at the home. Statement inspection used to compare the
/// two equalities with derived `!=` (`Int(35) != Real(35.0)`), keep the
/// entry, and serve it stale.
#[test]
fn int_and_real_spellings_of_one_value_invalidate_each_other() {
    let (q, u, matrix) = point_query_fixture();
    for kind in [
        StrategyKind::StatementInspection,
        StrategyKind::ViewInspection,
    ] {
        let mut db = seed_database();
        let row = vec![
            Value::Int(50),
            Value::Int(0),
            Value::Int(35),
            Value::str("eve"),
        ];
        db.insert_row("alpha", row).unwrap();
        let mut home = HomeServer::new(db);
        let mut dssp = Dssp::new(DsspConfig::new(
            "repro",
            kind.exposures(1, 1),
            matrix.clone(),
        ));
        let cached = Query::bind(0, q.clone(), vec![Value::real(35.0)]).unwrap();
        let first = dssp.execute_query(&cached, &mut home).unwrap();
        assert_eq!(
            first.result.rows,
            vec![vec![Value::Int(50), Value::Int(35)]]
        );
        let delete = Update::bind(0, u.clone(), vec![Value::Int(35)]).unwrap();
        let resp = dssp.execute_update(&delete, &mut home).unwrap();
        assert_eq!(
            resp.invalidated,
            1,
            "{}: the entry is a victim",
            kind.name()
        );
        let again = dssp.execute_query(&cached, &mut home).unwrap();
        assert!(
            !again.hit && again.result.is_empty(),
            "{}: stale",
            kind.name()
        );
    }
}

/// On an MVIS point-query workload the pass decides every entry of the
/// bucket — `entries_scanned` is the reference's — but looks at almost
/// none of them.
#[test]
fn point_queries_are_scanned_but_not_inspected() {
    let (q, u, matrix) = point_query_fixture();
    let mvis = StrategyKind::ViewInspection.exposures(1, 1);
    let mut db = seed_database();
    for id in 100..400i64 {
        let row = vec![
            Value::Int(id),
            Value::Int(0),
            Value::Int(id),
            Value::str("eve"),
        ];
        db.insert_row("alpha", row).unwrap();
    }
    let mut home = HomeServer::new(db);
    let mut pair = Pair::new("pin", mvis, matrix, None, None);
    for val in 100..400i64 {
        let query = Query::bind(0, q.clone(), vec![Value::Int(val)]).unwrap();
        pair.query(&query, &mut home);
    }
    let mut scanned = 0;
    for val in (100..400i64).step_by(10) {
        let delete = Update::bind(0, u.clone(), vec![Value::Int(val)]).unwrap();
        scanned += pair.dssp.cache_len() as u64;
        assert_eq!(pair.update(&delete).len(), 1);
    }
    let stats = pair.dssp.stats();
    assert_eq!(stats.entries_scanned, scanned);
    assert_eq!(stats.entries_inspected, 30, "one probe hit per update");
    assert_eq!(stats.invalidations, 30);
    let metrics = pair.dssp.metrics();
    assert_eq!(metrics.counters["dssp.entries_inspected"], 30);
}
