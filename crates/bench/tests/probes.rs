//! The probe table's contract with the binary and with the regression
//! gate: a row's name is its subcommand and its artifact stem, and what
//! the scale-out probe emits along either axis is exactly what the
//! gate's rows read.

use scs_apps::Fidelity;
use scs_bench::regress::{self, CURVES, ROWS};
use scs_bench::scaleout::{self, HOME_SHARDS, PROXIES};
use scs_bench::PROBES;
use scs_dssp::StrategyKind;
use scs_telemetry::Json;
use std::process::Command;

#[test]
fn probe_names_are_unique_subcommands_and_artifact_stems() {
    let usage = Command::new(env!("CARGO_BIN_EXE_scs-bench"))
        .output()
        .expect("scs-bench runs");
    assert_eq!(
        usage.status.code(),
        Some(2),
        "no arguments is a usage error"
    );
    let table = String::from_utf8(usage.stderr).unwrap();
    for p in &PROBES {
        // Listed once — so no other probe or command shares the name —
        // with the row's own description.
        let listed = table
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(p.name))
            .collect::<Vec<_>>();
        assert_eq!(listed.len(), 1, "{}: {listed:?}", p.name);
        assert!(listed[0].ends_with(p.about), "{}", listed[0]);
    }

    // Running a row writes `artifacts/<name>.json` under the cwd.
    let dir = std::env::temp_dir().join(format!("scs-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let probe = PROBES.iter().find(|p| p.name == "failover").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_scs-bench"))
        .args([probe.name, "--smoke"])
        .current_dir(&dir)
        .env_remove(scs_apps::report::TELEMETRY_OUT_ENV)
        .output()
        .expect("scs-bench runs");
    assert_eq!(run.status.code(), Some(0), "{:?}", run);
    let artifact = dir.join("artifacts").join(format!("{}.json", probe.name));
    let doc = Json::parse(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64(),
        Some(scs_apps::report::SCHEMA_VERSION)
    );
    assert_eq!(doc.get("entries").unwrap().as_arr().unwrap().len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scaleout_emits_what_the_gate_rows_read_on_both_axes() {
    let tiny = Fidelity {
        duration_secs: 20,
        warmup_secs: 5,
        max_users: 16,
        resolution: 16,
    };
    for (axis, knee_row, missing) in [
        (&PROXIES, "fleet_knee_drop", "fleet_point_missing"),
        (&HOME_SHARDS, "shard_knee_drop", "shard_point_missing"),
    ] {
        let run = scaleout::run_with(axis, &[StrategyKind::Blind], tiny, scaleout::SEED);
        assert_eq!(run.entries.len(), 1);
        let entry = &run.entries[0];
        let config = entry.get("config").unwrap().as_str().unwrap();
        assert_eq!(config, format!("{}_MBS", axis.name));
        assert_eq!(
            entry.get("routing").is_some(),
            axis.name == PROXIES.name,
            "only a fleet routes"
        );

        // The curve section, its point key and the knee field…
        let points = entry.get(axis.section).unwrap().get("points").unwrap();
        let points = points.as_arr().unwrap();
        let sizes: Vec<u64> = points
            .iter()
            .map(|p| p.get(axis.key).unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(sizes, scaleout::COUNTS.map(|n| n as u64));
        assert!(points
            .iter()
            .all(|p| p.get("max_users").unwrap().as_u64() > Some(0)));

        // …are the ones a curve and a row of the gate are keyed on, so
        // the gate finds a knee to guard at every point and a point to
        // miss.
        let curve = CURVES.iter().find(|c| c.missing == missing).unwrap();
        assert_eq!((curve.section, curve.key), (axis.section, axis.key));
        let row = ROWS.iter().find(|r| r.detector == knee_row).unwrap();
        assert_eq!(row.curve.unwrap().section, axis.section);
        let report = scs_apps::report::telemetry_report(run.entries.clone());
        let guarded = regress::degradations(&report);
        let count = |detector| guarded.iter().filter(|d| d.detector == detector).count();
        assert_eq!(count(knee_row), scaleout::COUNTS.len());
        assert_eq!(count(missing), 1);
    }
}
