//! End-to-end check of the experiment binaries' telemetry export: a
//! probe run writes `telemetry.json`, the file parses, and the empirical
//! attribution agrees with the static analysis — a known A=0 pair shows
//! zero runtime invalidations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs_apps::{report, toystore, DsspWorkload, IdSpaces};
use scs_dssp::StrategyKind;
use scs_netsim::{SimConfig, SEC};
use scs_storage::Database;
use scs_telemetry::Json;

fn toystore_workload(kind: StrategyKind, seed: u64) -> DsspWorkload {
    let app = toystore::toystore();
    let mut db = Database::new();
    for s in &app.schemas {
        db.create_table(s.clone()).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    toystore::populate(&mut db, 50, 30, &mut rng);
    let mut ids = IdSpaces::default();
    ids.declare("toys", 50);
    ids.declare("customers", 30);
    ids.declare("credit_card", 15);
    let exposures = kind.exposures(app.updates.len(), app.queries.len());
    DsspWorkload::new(&app, db, ids, exposures, 1.0, seed)
}

#[test]
fn telemetry_json_parses_and_a_zero_pairs_stay_zero() {
    // A short but real simulated run (the same path the fig8 probe takes).
    let mut workload = toystore_workload(StrategyKind::TemplateInspection, 31);
    let mut cfg = SimConfig::paper(30, 31);
    cfg.duration = 60 * SEC;
    cfg.warmup = 10 * SEC;
    let metrics = scs_netsim::run(&cfg, &mut workload);

    let dssp = workload.dssp();
    let entry = report::telemetry_entry("toystore", "MTIS", Some(30), dssp, None, &metrics);
    let doc = report::telemetry_report(vec![entry]);
    let path = std::env::temp_dir().join("scs_telemetry_test.json");
    std::env::remove_var(report::TELEMETRY_OUT_ENV);
    let written = report::write_telemetry(&doc, path.to_str().unwrap()).unwrap();

    let text = std::fs::read_to_string(&written).unwrap();
    std::fs::remove_file(&written).ok();
    let parsed = Json::parse(&text).expect("telemetry.json must parse");

    let entry = parsed.get("entries").unwrap().index(0).unwrap();
    let dssp = entry.get("dssp").unwrap();

    // Per-template hit/miss/invalidation counts are present and non-trivial.
    let queries = dssp.get("query_templates").unwrap().as_arr().unwrap();
    assert!(!queries.is_empty());
    let total_hits: u64 = queries
        .iter()
        .map(|q| q.get("hits").unwrap().as_u64().unwrap())
        .sum();
    assert!(total_hits > 0, "probe run produced no cache hits");

    // Request-latency histogram quantiles exist for the run.
    let response = entry.get("sim").unwrap().get("response").unwrap();
    assert!(response.get("count").unwrap().as_u64().unwrap() > 0);
    assert!(response.get("p90_us").unwrap().as_arr().is_some());

    // The paper's Table 4: toystore U2 (credit-card insert, row 1) never
    // invalidates Q1 (toy lookup, column 0) — the analysis says A=0, and
    // under a template-informed strategy the runtime must agree.
    let attribution = dssp.get("attribution").unwrap();
    let predicted = attribution.get("predicted_a_zero").unwrap();
    let counts = attribution.get("counts").unwrap();
    let pair = |m: &Json, u: usize, q: usize| m.index(u).unwrap().index(q).unwrap().clone();
    assert_eq!(pair(predicted, 1, 0).as_bool(), Some(true), "U2/Q1 is A=0");
    assert_eq!(pair(counts, 1, 0).as_u64(), Some(0), "A=0 pair invalidated");

    // And globally: every predicted-A=0 pair has a zero empirical count.
    assert!(
        attribution
            .get("divergence")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty(),
        "analysis/runtime divergence detected"
    );

    // U2 actually ran, so the zero above is not vacuous.
    let applied = attribution.get("updates_applied").unwrap();
    assert!(applied.index(1).unwrap().as_u64().unwrap() > 0);
}
