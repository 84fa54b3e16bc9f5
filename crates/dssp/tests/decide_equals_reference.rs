//! `decide`'s statement and view tiers and the probe rule, against the
//! bodies they replaced, kept test-only in `support/reference_decide.rs`:
//! the tiers now read borrowed conjuncts off the templates and allocate
//! nothing, and the probe rule is derived once per pair of templates and
//! bound to each update. Compared with `==` — the same verdict, the same
//! `DecisionPath` at every pair of exposure levels, and
//! `probe_rule(u.template, q.template).bind(u)` the probe the reference
//! derives for the statement — on two sets of inputs:
//!
//! * generated (update, query, result) triples: the oracle generators'
//!   templates (self-joins, intra-relation comparisons, aggregates,
//!   `ORDER BY … LIMIT`, INSERTs listing a column twice) bound over two-
//!   to three-value domains in both `Int` and `Real` spellings, against
//!   real results and synthetic ones that do and do not hold the update's
//!   key;
//! * every IPM-conflicting pair of auction, bookstore, bboard and
//!   toystore, bound from drawn parameters against real results.

#[path = "support/generate.rs"]
mod generate;
#[path = "support/reference_decide.rs"]
mod reference_decide;

use generate::{cases, pick, random_params, random_query, random_update, schemas, NAMES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_apps::{analysis_matrix, AppDef, BenchApp, IdSpaces, ParamGen};
use scs_core::{characterize_app, AnalysisOptions, Catalog, ExposureLevel, IpmMatrix};
use scs_crypto::Encryptor;
use scs_dssp::{
    decide, probe_rule, statement_may_affect, view_may_affect, Probe, ResultCache, UpdateView,
};
use scs_sqlkit::{parse_query, parse_update, Query, Update, Value};
use scs_storage::{Database, QueryResult};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const UPDATE_LEVELS: [ExposureLevel; 3] = [
    ExposureLevel::Blind,
    ExposureLevel::Template,
    ExposureLevel::Stmt,
];

const QUERY_LEVELS: [ExposureLevel; 4] = [
    ExposureLevel::Blind,
    ExposureLevel::Template,
    ExposureLevel::Stmt,
    ExposureLevel::View,
];

/// What the compared triples exercised: pairs the statement tier spared,
/// pairs only the view tier spared, and parameter and result-key probes.
#[derive(Debug, Default, Clone, Copy)]
struct Reach {
    statement_spared: u32,
    view_spared: u32,
    param_probes: u32,
    result_key_probes: u32,
}

/// Every comparison for one (update, query, result) triple.
fn check_triple(matrix: &IpmMatrix, u: &Update, q: &Query, result: &QueryResult) -> Reach {
    let statement = statement_may_affect(u, q);
    assert_eq!(
        statement,
        reference_decide::statement_may_affect(u, q),
        "statement tier on {u} × {q}"
    );
    let view = view_may_affect(u, q, result);
    assert_eq!(
        view,
        reference_decide::view_may_affect(u, q, result),
        "view tier on {u} × {q} over {:?}",
        result.rows
    );
    let probe = probe_rule(&u.template, &q.template).bind(u);
    assert_eq!(
        probe,
        reference_decide::probe_for(u, &q.template),
        "probe of {u} against {}",
        q.template
    );
    let mut cache = ResultCache::new(Encryptor::for_app("decide"));
    for q_level in QUERY_LEVELS {
        cache.store(q, result.clone(), q_level);
        let entry = cache.lookup(q).expect("a non-empty result is cached");
        for u_level in UPDATE_LEVELS {
            let got = decide(matrix, &UpdateView::new(u, u_level), entry);
            let want = reference_decide::decide(matrix, u, u_level, q, result, q_level);
            assert_eq!(
                got, want,
                "decide at ({u_level:?}, {q_level:?}) on {u} × {q}"
            );
        }
    }
    Reach {
        statement_spared: u32::from(!statement),
        view_spared: u32::from(statement && !view),
        param_probes: u32::from(matches!(probe, Probe::Param { .. })),
        result_key_probes: u32::from(matches!(probe, Probe::ResultKey { .. })),
    }
}

fn add(total: &mut Reach, r: Reach) {
    total.statement_spared += r.statement_spared;
    total.view_spared += r.view_spared;
    total.param_probes += r.param_probes;
    total.result_key_probes += r.result_key_probes;
}

// ---- generated triples ----------------------------------------------------

/// A cell from the case's domain: mostly numbers, in either spelling.
fn random_cell(rng: &mut StdRng, pool: i64) -> Value {
    let n = rng.gen_range(0..pool);
    match rng.gen_range(0..10) {
        0..=5 => Value::Int(n),
        6..=7 => Value::real(n as f64),
        8 => Value::real(n as f64 + 0.5),
        _ => Value::str(*pick(rng, &NAMES)),
    }
}

/// One to four rows as wide as the select list, over the domain — with
/// two or three values a column, a row holding the update's key is as
/// likely as not.
fn synthetic_result(rng: &mut StdRng, q: &Query, pool: i64) -> QueryResult {
    let width = q.template.select.len();
    let rows = (0..rng.gen_range(1..=4))
        .map(|_| (0..width).map(|_| random_cell(rng, pool)).collect())
        .collect();
    QueryResult::new((0..width).map(|i| format!("c{i}")).collect(), rows)
}

fn generated_case(seed: u64, db: &Database) -> Reach {
    let rng = &mut StdRng::seed_from_u64(seed);
    let pool = rng.gen_range(2..=3);
    let (mut queries, mut updates) = (Vec::new(), Vec::new());
    while queries.len() < 4 {
        let sql = random_query(rng);
        if let Ok(t) = parse_query(&sql.text) {
            queries.push((Arc::new(t), sql.string_params));
        }
    }
    while updates.len() < 4 {
        let sql = random_update(rng);
        if let Ok(t) = parse_update(&sql.text) {
            updates.push((Arc::new(t), sql.string_params));
        }
    }
    let matrix = characterize_app(
        &updates.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
        &queries.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
        &Catalog::new(schemas()),
        AnalysisOptions::default(),
    );
    let mut reach = Reach::default();
    for _ in 0..48 {
        let tq = rng.gen_range(0..queries.len());
        let tu = rng.gen_range(0..updates.len());
        let params = random_params(rng, &queries[tq].1, pool);
        let q = Query::bind(tq, queries[tq].0.clone(), params).unwrap();
        let params = random_params(rng, &updates[tu].1, pool);
        let u = Update::bind(tu, updates[tu].0.clone(), params).unwrap();
        let real = db.execute(&q).ok().filter(|r| !r.is_empty());
        let result = match real {
            Some(r) if rng.gen_bool(0.5) => r,
            _ => synthetic_result(rng, &q, pool),
        };
        add(&mut reach, check_triple(&matrix, &u, &q, &result));
    }
    reach
}

static CASES_RUN: AtomicU32 = AtomicU32::new(0);
static REACHED: std::sync::Mutex<Reach> = std::sync::Mutex::new(Reach {
    statement_spared: 0,
    view_spared: 0,
    param_probes: 0,
    result_key_probes: 0,
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Generated triples decide as the reference at every pair of levels,
    /// and probe as it. The sweep prints what it reached and fails if some
    /// path — a statement-tier sparing, a view-only sparing, either probe
    /// — was never taken.
    #[test]
    fn decide_equals_reference(seed in 0..u64::MAX) {
        let reach = generated_case(seed, &generate::seed_database());
        let mut total = REACHED.lock().unwrap_or_else(|e| e.into_inner());
        add(&mut total, reach);
        let run = CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1;
        if run == cases() {
            println!("decide_equals_reference: {run} cases reached {:?}", *total);
            prop_assert!(
                total.statement_spared > 0
                    && total.view_spared > 0
                    && total.param_probes > 0
                    && total.result_key_probes > 0,
                "the sweep misses a path: {:?}", *total
            );
        }
    }
}

// ---- the applications' own pairs ------------------------------------------

/// Every IPM-conflicting pair of `def`: each query template bound a few
/// times from the generator against `db`'s real result, each conflicting
/// update template bound a few times against it — half its parameters
/// swapped for values the result holds, so the view rules find the row
/// they look for as often as not.
fn application_pairs(def: &AppDef, db: &Database, mut gen: ParamGen, seed: u64) -> Reach {
    let matrix = analysis_matrix(def);
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut reach = Reach::default();
    let mut pairs = 0;
    for (tq, query) in def.queries.iter().enumerate() {
        for _ in 0..6 {
            let params = gen.bind_all(&query.params, rng);
            let q = Query::bind(tq, query.template.clone(), params).unwrap();
            let Ok(result) = db.execute(&q) else {
                continue;
            };
            if result.is_empty() {
                continue;
            }
            for (tu, update) in def.updates.iter().enumerate() {
                if matrix.entry(tu, tq).all_zero() {
                    continue;
                }
                for _ in 0..4 {
                    let mut params = gen.bind_all(&update.params, rng);
                    for p in &mut params {
                        let row = &result.rows[rng.gen_range(0..result.rows.len())];
                        if rng.gen_bool(0.5) && !row.is_empty() {
                            *p = row[rng.gen_range(0..row.len())].clone();
                        }
                    }
                    let u = Update::bind(tu, update.template.clone(), params).unwrap();
                    add(&mut reach, check_triple(&matrix, &u, &q, &result));
                    pairs += 1;
                }
            }
        }
    }
    assert!(pairs > 0, "{} has conflicting pairs", def.name);
    reach
}

#[test]
fn decide_equals_reference_on_application_pairs() {
    let mut total = Reach::default();
    for app in BenchApp::ALL {
        let (db, ids) = app.build_database(5);
        let gen = ParamGen::new(ids, app.zipf_exponent());
        add(&mut total, application_pairs(&app.def(), &db, gen, 5));
    }
    let toystore = scs_apps::toystore::toystore();
    let mut db = Database::new();
    for s in &toystore.schemas {
        db.create_table(s.clone()).unwrap();
    }
    scs_apps::toystore::populate(&mut db, 50, 30, &mut StdRng::seed_from_u64(5));
    let mut ids = IdSpaces::default();
    ids.declare("toys", 50);
    ids.declare("customers", 30);
    add(
        &mut total,
        application_pairs(&toystore, &db, ParamGen::new(ids, 1.0), 5),
    );
    println!("application pairs reached {total:?}");
    assert!(total.view_spared > 0 && total.param_probes > 0 && total.result_key_probes > 0);
}
