//! The regression gate's own oracle: a hand-written fixture carrying
//! every section the detector rows read, with hand-written "worse" and
//! "better" values per leaf — so the table's directions, the point
//! matching and the synthetic degradations are each checked against
//! something the table did not generate.

use scs_bench::regress::{degradations, diff, self_check, Finding, CURVES, ROWS};
use scs_telemetry::Json;
use std::process::Command;

const FIXTURE: &str = r#"{
  "schema_version": 5,
  "entries": [
    {"app": "auction", "config": "MVIS",
     "sim": {"throughput_rps": 10.0, "response": {"p99_us": [1000, 2000]}},
     "dssp": {"leakage": {"enabled": true, "revealed_bytes": 5000}},
     "slo": [{"name": "p90", "passed": true, "detail": ""},
             {"name": "floor", "passed": true, "detail": ""}]},
    {"config": "outage_demo", "seed": 42, "stale_beyond_lease": 0,
     "slo": [{"name": "fresh", "passed": true, "detail": ""}]},
    {"app": "auction", "config": "fleet_MVIS", "fleet_curve": {"points": [
      {"proxies": 1, "max_users": 100}, {"proxies": 2, "max_users": 200},
      {"proxies": 4, "max_users": 400}]}},
    {"app": "auction", "config": "home_shards_MBS", "shard_curve": {"points": [
      {"shards": 1, "max_users": 100}, {"shards": 2, "max_users": 180},
      {"shards": 4, "max_users": 300}]}},
    {"app": "auction", "config": "home_shards_MVIS", "shard_curve": {"points": [
      {"shards": 1, "max_users": 300}, {"shards": 2, "max_users": 310},
      {"shards": 4, "max_users": 305}]}},
    {"app": "toystore", "config": "spike_demo", "stale_beyond_lease": 0,
     "overload": {"goodput_rps": 900.0}},
    {"app": "toystore", "config": "overload_curve", "goodput_curve": {"knee_index": 2, "points": [
      {"multiplier": 0.5, "goodput_rps": 400}, {"multiplier": 1, "goodput_rps": 800},
      {"multiplier": 2, "goodput_rps": 1000}, {"multiplier": 4, "goodput_rps": 950}]}},
    {"app": "auction", "config": "freshness_MVIS_clean", "freshness": {"points": [
      {"proxies": 1, "lag_p99_us": 6000, "stale_age_p99_us": 3000,
       "stale_beyond_lease": 0, "bytes_per_update": 120.0},
      {"proxies": 2, "lag_p99_us": 7000, "stale_age_p99_us": 3500,
       "stale_beyond_lease": 0, "bytes_per_update": 240.0}]}},
    {"app": "flash_crowd", "config": "elastic_auto", "elastic": {
      "stale_beyond_lease": 0, "slo_ok": true, "conservation_balanced": true,
      "node_seconds": 200.0}},
    {"app": "toystore", "config": "failover_async", "stale_beyond_lease": 0, "failover": {
      "unavailable_micros_total": 40000, "worst_window_micros": 30000, "lost_acked": 0}},
    {"app": "auction", "config": "frontier", "frontier": {"points": [
      {"label": "blind", "leakage_per_kop": 0.0, "max_users": 100, "non_dominated": true},
      {"label": "stmt", "leakage_per_kop": 500.0, "max_users": 300, "non_dominated": true},
      {"label": "view", "leakage_per_kop": 900.0, "max_users": 400, "non_dominated": true},
      {"label": "naive", "leakage_per_kop": 950.0, "max_users": 350, "non_dominated": false}]}}
  ]
}"#;

/// One leaf per row of `ROWS`, in table order: `(entry key, path from
/// the entry, a worse value, a better value, the detector the worse one
/// must trip)`.
#[rustfmt::skip]
const LEAVES: [(&str, &str, f64, f64, &str); 19] = [
    ("auction|MVIS", "sim.throughput_rps", 8.0, 12.0, "throughput_drop"),
    ("auction|MVIS", "sim.response.p99_us.1", 2500.0, 1500.0, "p99_rise"),
    ("chaos|outage_demo|42", "stale_beyond_lease", 1.0, 0.0, "stale_beyond_lease_rise"),
    ("toystore|spike_demo", "overload.goodput_rps", 700.0, 1100.0, "goodput_drop"),
    ("auction|fleet_MVIS", "fleet_curve.points.1.max_users", 170.0, 230.0, "fleet_knee_drop"),
    ("auction|home_shards_MBS", "shard_curve.points.2.max_users", 250.0, 330.0, "shard_knee_drop"),
    ("auction|freshness_MVIS_clean", "freshness.points.0.lag_p99_us", 7000.0, 5000.0, "propagation_lag_rise"),
    ("auction|freshness_MVIS_clean", "freshness.points.1.stale_age_p99_us", 4000.0, 3000.0, "stale_age_shift"),
    ("auction|freshness_MVIS_clean", "freshness.points.1.stale_beyond_lease", 2.0, 0.0, "stale_beyond_lease_rise"),
    ("auction|freshness_MVIS_clean", "freshness.points.0.bytes_per_update", 140.0, 100.0, "amplification_growth"),
    ("flash_crowd|elastic_auto", "elastic.stale_beyond_lease", 1.0, 0.0, "handoff_stale_rise"),
    ("flash_crowd|elastic_auto", "elastic.slo_ok", 0.0, 1.0, "autoscale_slo_flip"),
    ("flash_crowd|elastic_auto", "elastic.conservation_balanced", 0.0, 1.0, "conservation_broken"),
    ("flash_crowd|elastic_auto", "elastic.node_seconds", 230.0, 150.0, "node_seconds_growth"),
    ("toystore|failover_async", "failover.unavailable_micros_total", 50000.0, 30000.0, "failover_window_rise"),
    ("toystore|failover_async", "failover.worst_window_micros", 34000.0, 20000.0, "failover_window_rise"),
    ("toystore|failover_async", "failover.lost_acked", 1.0, 0.0, "acked_write_lost"),
    ("auction|frontier", "frontier.points.1.leakage_per_kop", 600.0, 400.0, "leakage_rise"),
    ("auction|MVIS", "dssp.leakage.revealed_bytes", 6000.0, 4000.0, "leakage_rise"),
];

fn fixture() -> Json {
    Json::parse(FIXTURE).expect("fixture parses")
}

fn child_mut<'a>(j: &'a mut Json, seg: &str) -> &'a mut Json {
    match j {
        Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
        Json::Obj(fields) => {
            let field = fields.iter_mut().find(|(k, _)| k == seg);
            &mut field.unwrap_or_else(|| panic!("no field {seg}")).1
        }
        _ => panic!("{seg}: not a container"),
    }
}

/// The fixture's entries, for editing.
fn entries_mut(doc: &mut Json) -> &mut Vec<Json> {
    match child_mut(doc, "entries") {
        Json::Arr(entries) => entries,
        _ => panic!("entries is an array"),
    }
}

fn entry_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let entries = entries_mut(doc);
    let found = entries
        .iter_mut()
        .find(|e| scs_bench::regress::entry_key(e) == key);
    found.unwrap_or_else(|| panic!("no entry {key}"))
}

/// `doc` with the leaf at `path` of entry `key` overwritten; a boolean
/// leaf takes `value != 0`.
fn with_leaf(doc: &Json, key: &str, path: &str, value: f64) -> Json {
    let mut doc = doc.clone();
    let leaf = path.split('.').fold(entry_mut(&mut doc, key), child_mut);
    *leaf = match leaf {
        Json::Bool(_) => Json::Bool(value != 0.0),
        _ => Json::Num(value),
    };
    doc
}

fn pairs(found: &[Finding]) -> Vec<(&str, &str)> {
    found.iter().map(|f| (f.key.as_str(), f.detector)).collect()
}

#[test]
fn identity_diff_is_clean_and_the_gate_checks_itself() {
    let doc = fixture();
    assert!(pairs(&diff(&doc, &doc, 10.0, false)).is_empty());
    self_check(&doc, 10.0).expect("fixture self-check");
    let committed = Json::parse(include_str!("../../../BENCH_baseline.json")).unwrap();
    self_check(&committed, 10.0).expect("committed baseline self-check");
}

#[test]
fn each_row_fires_alone_on_its_own_leaf_and_only_in_its_direction() {
    let doc = fixture();
    for ((key, path, worse, better, detector), row) in LEAVES.into_iter().zip(&ROWS) {
        assert_eq!(detector, row.detector, "LEAVES follows ROWS' order");
        assert!(
            path.ends_with(row.field),
            "{path} is a leaf of {}",
            row.field
        );
        let found = diff(&doc, &with_leaf(&doc, key, path, worse), 10.0, false);
        assert_eq!(pairs(&found), [(key, detector)], "{path} = {worse}");
        let found = diff(&doc, &with_leaf(&doc, key, path, better), 10.0, false);
        assert!(pairs(&found).is_empty(), "{path} = {better}: {found:?}");
    }
}

#[test]
fn thresholds_are_strict_and_counts_have_none() {
    let doc = fixture();
    // Exactly 10% down / up is still inside a 10% threshold.
    for (key, path, value) in [
        ("auction|MVIS", "sim.throughput_rps", 9.0),
        ("auction|MVIS", "sim.response.p99_us.1", 2200.0),
    ] {
        let found = diff(&doc, &with_leaf(&doc, key, path, value), 10.0, false);
        assert!(pairs(&found).is_empty(), "{path} = {value}: {found:?}");
    }
    // A wider threshold forgives what the default one reports.
    let sagged = with_leaf(&doc, "auction|MVIS", "sim.throughput_rps", 8.0);
    assert!(diff(&doc, &sagged, 25.0, false).is_empty());
    // An equal count is not a rise.
    let base = with_leaf(&doc, "toystore|failover_async", "failover.lost_acked", 3.0);
    assert!(diff(&base, &base, 10.0, false).is_empty());
    assert_eq!(
        pairs(&diff(&doc, &base, 10.0, false)),
        [("toystore|failover_async", "acked_write_lost")]
    );
}

#[test]
fn points_are_matched_by_key_not_position() {
    let doc = fixture();
    let mut shuffled = doc.clone();
    for entry in entries_mut(&mut shuffled) {
        for curve in &CURVES {
            if entry.get(curve.section).is_some() {
                match child_mut(child_mut(entry, curve.section), "points") {
                    Json::Arr(points) => points.rotate_left(1),
                    _ => panic!("points is an array"),
                }
            }
        }
    }
    assert!(pairs(&diff(&doc, &shuffled, 10.0, false)).is_empty());
    // The 2-proxy knee now sits at index 0: sag it there.
    let sagged = with_leaf(
        &shuffled,
        "auction|fleet_MVIS",
        "fleet_curve.points.0.max_users",
        150.0,
    );
    let found = diff(&doc, &sagged, 10.0, false);
    assert_eq!(pairs(&found), [("auction|fleet_MVIS", "fleet_knee_drop")]);
    assert!(
        found[0].message.contains("proxies=2"),
        "{}",
        found[0].message
    );
}

#[test]
fn hand_written_detectors_fire_on_their_shapes() {
    let doc = fixture();
    let case = |cand: Json, expected: &[(&str, &str)]| {
        assert_eq!(pairs(&diff(&doc, &cand, 10.0, false)), expected);
    };
    let failed = with_leaf(&doc, "auction|MVIS", "slo.1.passed", 0.0);
    case(failed, &[("auction|MVIS", "slo_flip")]);
    // 4 shards no better than 2: flattened, though 280 is within 10% of 300.
    let flat = with_leaf(
        &doc,
        "auction|home_shards_MBS",
        "shard_curve.points.1.max_users",
        280.0,
    );
    let flat = with_leaf(
        &flat,
        "auction|home_shards_MBS",
        "shard_curve.points.2.max_users",
        280.0,
    );
    case(
        flat,
        &[("auction|home_shards_MBS", "shard_curve_flattened")],
    );
    // `view` loses its payoff: `stmt` (less leakage, more users) dominates it.
    let receded = with_leaf(
        &doc,
        "auction|frontier",
        "frontier.points.2.max_users",
        290.0,
    );
    case(receded, &[("auction|frontier", "frontier_dominated")]);
    // Past the knee (index 2) goodput must hold 80% of the knee's 1000.
    let collapsed = with_leaf(
        &doc,
        "toystore|overload_curve",
        "goodput_curve.points.3.goodput_rps",
        700.0,
    );
    case(
        collapsed,
        &[("toystore|overload_curve", "goodput_collapse")],
    );
    // A vanished point and a vanished entry.
    let mut lost = doc.clone();
    match child_mut(
        child_mut(entry_mut(&mut lost, "auction|frontier"), "frontier"),
        "points",
    ) {
        Json::Arr(points) => points.retain(|p| p.get("label").unwrap().as_str() != Some("naive")),
        _ => unreachable!(),
    }
    case(lost, &[("auction|frontier", "frontier_point_missing")]);
    let mut gone = doc.clone();
    entries_mut(&mut gone).remove(1);
    case(gone, &[("chaos|outage_demo|42", "entry_missing")]);
}

/// Between them the single-edit degradations name every detector the
/// gate has — on the fixture and on the committed baseline — and each,
/// applied alone, is caught as exactly that detector on that entry.
#[test]
fn the_degradations_cover_all_25_detectors_one_at_a_time() {
    const DETECTORS: [&str; 25] = [
        "entry_missing",
        "throughput_drop",
        "p99_rise",
        "slo_flip",
        "stale_beyond_lease_rise",
        "goodput_drop",
        "goodput_collapse",
        "fleet_point_missing",
        "fleet_knee_drop",
        "shard_point_missing",
        "shard_knee_drop",
        "shard_curve_flattened",
        "freshness_point_missing",
        "propagation_lag_rise",
        "stale_age_shift",
        "amplification_growth",
        "handoff_stale_rise",
        "autoscale_slo_flip",
        "conservation_broken",
        "node_seconds_growth",
        "failover_window_rise",
        "acked_write_lost",
        "frontier_point_missing",
        "leakage_rise",
        "frontier_dominated",
    ];
    let committed = Json::parse(include_str!("../../../BENCH_baseline.json")).unwrap();
    for doc in [fixture(), committed] {
        let all = degradations(&doc);
        let mut named: Vec<&str> = all.iter().map(|d| d.detector).collect();
        named.sort_unstable();
        named.dedup();
        let mut expected = DETECTORS.to_vec();
        expected.sort_unstable();
        assert_eq!(named, expected);
        for d in &all {
            let mut cand = doc.clone();
            let key = scs_bench::regress::entry_key(&entries_mut(&mut cand)[d.entry]);
            d.apply(entries_mut(&mut cand));
            let found = diff(&doc, &cand, 10.0, false);
            assert!(
                found.iter().all(|f| f.key == key),
                "{} on {key} leaked onto another entry: {found:?}",
                d.detector
            );
            assert!(
                found.iter().any(|f| f.detector == d.detector),
                "{} on {key} went unnoticed: {found:?}",
                d.detector
            );
        }
    }
}

/// `--subset` forgives the missing entry and nothing else.
#[test]
fn subset_only_spares_the_missing_entry() {
    let doc = fixture();
    let mut worse = with_leaf(&doc, "auction|MVIS", "sim.throughput_rps", 5.0);
    worse = with_leaf(
        &worse,
        "toystore|failover_async",
        "failover.lost_acked",
        2.0,
    );
    entries_mut(&mut worse).retain(|e| e.get("config").unwrap().as_str() != Some("outage_demo"));
    let rest = [
        ("auction|MVIS", "throughput_drop"),
        ("toystore|failover_async", "acked_write_lost"),
    ];
    assert_eq!(pairs(&diff(&doc, &worse, 10.0, true)), rest);
    // Without it the missing entry is reported where the baseline lists it.
    let full = [rest[0], ("chaos|outage_demo|42", "entry_missing"), rest[1]];
    assert_eq!(pairs(&diff(&doc, &worse, 10.0, false)), full);
}

#[test]
fn a_row_that_matches_no_leaf_fails_the_self_check() {
    // Every row and curve of the table has a degradation on the fixture…
    let doc = fixture();
    let all = degradations(&doc);
    for row in &ROWS {
        assert!(
            all.iter().any(|d| d.detector == row.detector),
            "{}",
            row.detector
        );
    }
    // …and a report whose `elastic` section was renamed does not pass.
    let renamed = Json::parse(&FIXTURE.replace("\"elastic\":", "\"elastic_v2\":")).unwrap();
    let err = self_check(&renamed, 10.0).expect_err("a disabled row must fail the self-check");
    assert!(err.contains("handoff_stale_rise"), "{err}");
    // So does one whose verdict can no longer flip.
    let stuck = with_leaf(&doc, "flash_crowd|elastic_auto", "elastic.slo_ok", 0.0);
    let err = self_check(&stuck, 10.0).expect_err("nothing left to flip");
    assert!(err.contains("autoscale_slo_flip"), "{err}");
}

fn scs_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scs-bench"))
        .args(args)
        .output()
        .expect("scs-bench runs")
}

#[test]
fn exit_codes_are_0_clean_1_regressed_2_usage() {
    let dir = std::env::temp_dir().join(format!("scs-regress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("base.json", FIXTURE.to_string());
    let worse = with_leaf(&fixture(), "auction|MVIS", "sim.throughput_rps", 5.0);
    let worse = write("worse.json", worse.render_pretty());
    let stale = write(
        "stale.json",
        FIXTURE.replace("\"schema_version\": 5", "\"schema_version\": 4"),
    );

    let code = |args: &[&str]| scs_bench(args).status.code();
    assert_eq!(
        code(&["regress", "--baseline", &base, "--candidate", &base]),
        Some(0)
    );
    assert_eq!(
        code(&["regress", "--baseline", &base, "--self-check"]),
        Some(0)
    );
    assert_eq!(
        code(&["regress", "--baseline", &base, "--candidate", &worse]),
        Some(1)
    );
    for usage in [
        &["regress", "--baseline", &base, "--candidate", &stale][..],
        &["regress", "--baseline", &stale, "--self-check"],
        &["regress", "--baseline", &base],
        &["regress", "--candidate", &base],
        &[
            "regress",
            "--baseline",
            &base,
            "--candidate",
            &base,
            "--threshold-pct",
            "abc",
        ],
        &[
            "regress",
            "--baseline",
            &base,
            "--candidate",
            &base,
            "--frobnicate",
        ],
        &[
            "regress",
            "--baseline",
            &dir.join("absent.json").to_string_lossy(),
            "--self-check",
        ],
        &["regres"],
        &[],
    ] {
        assert_eq!(code(usage), Some(2), "{usage:?}");
    }

    // `--json` keeps its shape: verdicts with entry keys on stdout.
    let out = scs_bench(&[
        "regress",
        "--baseline",
        &base,
        "--candidate",
        &worse,
        "--json",
    ]);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("--json prints JSON");
    let keys: Vec<&str> = match &doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("an object"),
    };
    assert_eq!(
        keys,
        [
            "schema_version",
            "baseline",
            "candidate",
            "threshold_pct",
            "subset",
            "passed",
            "regressions"
        ]
    );
    assert_eq!(doc.get("passed").unwrap().as_bool(), Some(false));
    let first = doc.get("regressions").unwrap().index(0).unwrap();
    for field in ["entry", "detector", "message"] {
        assert!(first.get(field).unwrap().as_str().is_some(), "{field}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
