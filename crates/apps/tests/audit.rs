//! Properties of the leakage audit plane (DESIGN.md §15):
//!
//! * **lattice monotonicity** — raising any single template's exposure
//!   level never decreases any ledger counter, and blind-everywhere
//!   meters exactly zero revealed bytes;
//! * **causal explain chains** — every reveal event explains as a
//!   time-ordered request → decision-path → exposure-level → bytes
//!   chain, rooted at exactly one request;
//! * **inertness** — a proxy with no audit plane attached behaves
//!   byte-identically to an audited one (same telemetry apart from the
//!   leakage and trace sections, same simulated run), so the meter can
//!   ride in production probes for free;
//! * **sink health** — journal write failures surface as counters in
//!   the `leakage` export instead of vanishing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs_apps::{
    report, run_audited_trial, run_trial, toystore, BenchApp, DsspWorkload, Fidelity, IdSpaces,
};
use scs_core::{ExposureLevel, Exposures};
use scs_storage::Database;
use scs_telemetry::{lock, shared_audit, AuditLog, Json, SharedAudit};
use std::collections::BTreeMap;

fn toystore_workload(exposures: Exposures, seed: u64) -> DsspWorkload {
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
    DsspWorkload::new(&app, db, ids, exposures, 1.0, seed)
}

/// Drives `requests` full client requests through the proxy, outside
/// the simulator — the op stream depends only on the seed, so two
/// workloads at different exposure assignments see identical ops.
fn drive(w: &mut DsspWorkload, requests: usize) {
    use scs_netsim::Workload;
    for _ in 0..requests {
        let n = w.begin_request(0);
        for i in 0..n {
            w.execute_op(0, i);
        }
    }
}

/// Attaches a fresh audit log to the workload's proxy, and its crypto
/// meter.
fn audit(w: &mut DsspWorkload) -> SharedAudit {
    let audit = shared_audit(1);
    let sink = AuditLog::sink(&audit, 0, toystore::toystore().name);
    w.dssp_mut().add_trace_sink(Box::new(sink));
    w.dssp_mut().meter_crypto();
    audit
}

/// Runs an audited workload and returns the leakage summary.
fn audited_summary(exposures: Exposures, seed: u64, requests: usize) -> Json {
    let mut w = toystore_workload(exposures, seed);
    let audit = audit(&mut w);
    drive(&mut w, requests);
    let doc = lock(&audit).summary_json();
    doc
}

/// Flattens every numeric field to a stable path → value map. Array
/// elements are keyed by their `template`/`tenant`/`replica` identity
/// (not position) so ledgers line up across runs that touched
/// different template subsets.
fn flatten(j: &Json, prefix: String, out: &mut BTreeMap<String, f64>) {
    match j {
        Json::Num(n) => {
            out.insert(prefix, *n);
        }
        Json::Obj(kv) => {
            for (k, v) in kv {
                flatten(v, format!("{prefix}/{k}"), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let key = v
                    .get("template")
                    .and_then(Json::as_u64)
                    .map(|t| t.to_string())
                    .or_else(|| v.get("tenant").and_then(Json::as_str).map(str::to_string))
                    .or_else(|| {
                        v.get("replica")
                            .and_then(Json::as_u64)
                            .map(|r| r.to_string())
                    })
                    .unwrap_or_else(|| i.to_string());
                flatten(v, format!("{prefix}/{key}"), out);
            }
        }
        _ => {}
    }
}

fn counters(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten(doc, String::new(), &mut out);
    out
}

/// Asserts every baseline counter holds or grows in `raised`.
fn assert_monotone(base: &BTreeMap<String, f64>, raised: &BTreeMap<String, f64>, what: &str) {
    for (key, b) in base {
        let r = raised.get(key).copied().unwrap_or(0.0);
        assert!(
            r >= *b,
            "{what}: ledger counter {key} fell from {b} to {r} — \
             raising an exposure level must never shrink measured leakage"
        );
    }
}

const REQUESTS: usize = 250;
const SEED: u64 = 41;

#[test]
fn blind_everywhere_meters_exactly_zero_bytes() {
    let app = toystore::toystore();
    let exposures = Exposures {
        updates: vec![ExposureLevel::Blind; app.updates.len()],
        queries: vec![ExposureLevel::Blind; app.queries.len()],
    };
    let doc = audited_summary(exposures, SEED, REQUESTS);
    assert_eq!(doc.get("revealed_bytes").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("reveal_events").and_then(Json::as_u64), Some(0));
    // The plane still counted arrivals — zero leakage is a measurement,
    // not an absence of one.
    assert!(doc.get("requests").and_then(Json::as_u64).unwrap() > 0);
}

#[test]
fn leakage_is_monotone_in_the_exposure_lattice() {
    let app = toystore::toystore();
    let (nu, nq) = (app.updates.len(), app.queries.len());
    let mid = Exposures {
        updates: vec![ExposureLevel::Template; nu],
        queries: vec![ExposureLevel::Template; nq],
    };
    let base = counters(&audited_summary(mid.clone(), SEED, REQUESTS));

    // Raising any single update template one step never shrinks a counter.
    for i in 0..nu {
        let mut e = mid.clone();
        e.updates[i] = ExposureLevel::Stmt;
        let raised = counters(&audited_summary(e, SEED, REQUESTS));
        assert_monotone(&base, &raised, &format!("update {i} template->stmt"));
    }
    // Likewise any single query template, through both higher levels.
    for j in 0..nq {
        for to in [ExposureLevel::Stmt, ExposureLevel::View] {
            let mut e = mid.clone();
            e.queries[j] = to;
            let raised = counters(&audited_summary(e, SEED, REQUESTS));
            assert_monotone(&base, &raised, &format!("query {j} -> {}", to.as_str()));
        }
    }

    // And the uniform chain is monotone end to end: blind <= template
    // <= stmt <= stmt+view-queries.
    let uniform = |e_u: ExposureLevel, e_q: ExposureLevel| Exposures {
        updates: vec![e_u; nu],
        queries: vec![e_q; nq],
    };
    let blind = counters(&audited_summary(
        uniform(ExposureLevel::Blind, ExposureLevel::Blind),
        SEED,
        REQUESTS,
    ));
    let stmt = counters(&audited_summary(
        uniform(ExposureLevel::Stmt, ExposureLevel::Stmt),
        SEED,
        REQUESTS,
    ));
    let view = counters(&audited_summary(
        uniform(ExposureLevel::Stmt, ExposureLevel::View),
        SEED,
        REQUESTS,
    ));
    assert_monotone(&blind, &base, "uniform blind -> template");
    assert_monotone(&base, &stmt, "uniform template -> stmt");
    assert_monotone(&stmt, &view, "uniform stmt -> view queries");
}

#[test]
fn explain_chains_are_causal_and_singly_rooted() {
    let app = toystore::toystore();
    let exposures = Exposures {
        updates: vec![ExposureLevel::Stmt; app.updates.len()],
        queries: vec![ExposureLevel::View; app.queries.len()],
    };
    let mut w = toystore_workload(exposures, SEED);
    let audit = audit(&mut w);
    drive(&mut w, 200);

    let log = lock(&audit);
    assert!(!log.events().is_empty(), "run produced no reveal events");

    let root_seqs: Vec<u64> = log.roots().iter().map(|r| r.seq).collect();
    for ev in log.events() {
        // Exactly one request root owns this event.
        assert_eq!(
            root_seqs.iter().filter(|&&s| s == ev.request).count(),
            1,
            "event {} not reachable from exactly one request root",
            ev.seq
        );
        let doc = log.explain_reveal(ev.seq).expect("every event explains");
        let chain = doc.get("chain").and_then(Json::as_arr).unwrap();
        let steps: Vec<&str> = chain
            .iter()
            .map(|s| s.get("step").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            steps,
            ["request", "decision_path", "exposure_level", "reveal"],
            "chain shape for event {}",
            ev.seq
        );
        // Time-ordered: the request root precedes (or coincides with)
        // the reveal, and steps never go backwards.
        let ats: Vec<u64> = chain
            .iter()
            .map(|s| s.get("at_micros").and_then(Json::as_u64).unwrap())
            .collect();
        assert!(
            ats.windows(2).all(|p| p[0] <= p[1]),
            "chain for event {} is not time-ordered: {ats:?}",
            ev.seq
        );
        // The terminal step carries the bytes the ledger charged.
        assert_eq!(
            chain[3].get("bytes").and_then(Json::as_u64),
            Some(ev.stamp.bytes)
        );
    }
    // A seq past the journal explains to nothing, not to garbage.
    assert!(log.explain_reveal(u64::MAX).is_none());
}

#[test]
fn audit_plane_is_inert_when_disabled() {
    // Same seed, same ops; one proxy audited, one not. Everything the
    // proxy exports apart from the `leakage` section and the trace
    // health (the audited tracer emits the plane's events too) must be
    // identical.
    let app = toystore::toystore();
    let exposures = Exposures {
        updates: vec![ExposureLevel::Stmt; app.updates.len()],
        queries: vec![ExposureLevel::View; app.queries.len()],
    };
    let mut plain = toystore_workload(exposures.clone(), SEED);
    let mut audited = toystore_workload(exposures, SEED);
    let log = audit(&mut audited);
    drive(&mut plain, 300);
    drive(&mut audited, 300);

    let strip = |doc: &Json| -> Json {
        let Json::Obj(kv) = doc else {
            panic!("the proxy section is an object")
        };
        let kept = kv.iter().filter(|(k, _)| k != "leakage" && k != "trace");
        Json::Obj(kept.cloned().collect())
    };
    let a = report::dssp_telemetry_json(plain.dssp(), None);
    let b = report::dssp_telemetry_json(audited.dssp(), Some(&log));
    assert_eq!(
        strip(&a),
        strip(&b),
        "attaching the audit plane changed proxy behavior"
    );
    let active = |doc: &Json| doc.get("trace").and_then(|t| t.get("active")).cloned();
    assert_eq!(active(&a), Some(Json::Bool(false)), "no sink, not active");
    assert_eq!(active(&b), Some(Json::Bool(true)), "a sink, active");

    let enabled = report::leakage_json(audited.dssp(), Some(&log));
    assert_eq!(enabled.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(
        enabled
            .get("revealed_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let disabled = report::leakage_json(plain.dssp(), None);
    assert_eq!(disabled.get("enabled").and_then(Json::as_bool), Some(false));
}

#[test]
fn audited_simulation_runs_are_equivalent_to_plain_ones() {
    // The netsim pinning: an audited trial's simulated run is
    // op-for-op identical to the unaudited one.
    let fid = Fidelity {
        duration_secs: 10,
        warmup_secs: 2,
        max_users: 64,
        resolution: 128,
    };
    let exposures = {
        let def = BenchApp::Auction.def();
        Exposures {
            updates: vec![ExposureLevel::Stmt; def.updates.len()],
            queries: vec![ExposureLevel::View; def.queries.len()],
        }
    };
    let plain = run_trial(BenchApp::Auction, &exposures, 24, fid, SEED);
    let (metered, audit) = run_audited_trial(BenchApp::Auction, &exposures, 24, fid, SEED);
    assert_eq!(plain.ops_executed, metered.ops_executed);
    assert_eq!(plain.requests_completed, metered.requests_completed);
    assert_eq!(plain.response_times, metered.response_times);
    assert_eq!(plain.hit_rate, metered.hit_rate);
    assert!(lock(&audit).revealed_bytes() > 0);
}

#[test]
fn journal_failures_surface_in_the_leakage_export() {
    struct Broken;
    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink down"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let app = toystore::toystore();
    // Template-level queries key cache entries by sealed parameters,
    // so the crypto meter has envelope traffic to count.
    let exposures = Exposures {
        updates: vec![ExposureLevel::Stmt; app.updates.len()],
        queries: vec![ExposureLevel::Template; app.queries.len()],
    };
    let mut w = toystore_workload(exposures, SEED);
    let audit = audit(&mut w);
    lock(&audit).attach_journal(Box::new(Broken));
    drive(&mut w, 100);

    let doc = report::leakage_json(w.dssp(), Some(&audit));
    let journal = doc.get("journal").unwrap();
    assert_eq!(journal.get("active").and_then(Json::as_bool), Some(true));
    assert!(
        journal.get("write_errors").and_then(Json::as_u64).unwrap() > 0,
        "journal write failures must be counted, not swallowed"
    );
    assert_eq!(journal.get("lines").and_then(Json::as_u64), Some(0));
    // The ledger itself is unaffected by the sick sink.
    assert!(doc.get("revealed_bytes").and_then(Json::as_u64).unwrap() > 0);
    // And the crypto meter rode along.
    let crypto = doc.get("crypto").unwrap();
    assert!(crypto.get("seals").and_then(Json::as_u64).unwrap() > 0);
}
