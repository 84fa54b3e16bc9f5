//! Chaos experiment: fault-tolerant invalidation delivery under a
//! deterministic fault schedule (message drops / delays / duplicates on
//! the invalidation stream, home-link outages, proxy crash/restarts),
//! checked against a ground-truth staleness oracle.
//!
//! For each seed the toystore workload runs twice — once with every
//! fault surface disabled (no fault counter may move; that it equals the
//! classic synchronous pipeline op for op is a tier-1 property of
//! `scs-apps`) and once under the chaotic schedule — and the oracle
//! verdict is tabulated next to the proxy's fault/recovery counters. A
//! `faults` section per run lands in `artifacts/telemetry.json`
//! (`$SCS_TELEMETRY_OUT` overrides the path; schema in `EXPERIMENTS.md`).
//!
//! Modes: `--smoke` is the CI run — one seed (42 unless `--seed`), short
//! scripts; anything else is five seeds of long scripts.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{report, Scenario, ScenarioReport};
use scs_telemetry::Json;

pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let smoke = mode == Mode::Smoke;
    let seeds: Vec<u64> = match seed {
        Some(s) => vec![s],
        None if smoke => vec![42],
        None => vec![1, 2, 3, 4, 5],
    };
    let (faultless_ops, chaotic_ops) = if smoke { (200, 400) } else { (1_000, 3_000) };

    let mut table = TextTable::new(&[
        "config",
        "seed",
        "stale>lease",
        "max stale (ms)",
        "served",
        "degraded",
        "unavail",
        "drops",
        "gaps",
        "flushes",
        "restarts",
    ]);
    let mut entries = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for &seed in &seeds {
        let cfg = Scenario::faultless(seed, faultless_ops);
        let rep = cfg.run();
        let faults = report::fault_total(&rep.metrics);
        if faults != 0 {
            failures.push(format!(
                "seed {seed}: fault counters nonzero ({faults}) with injection disabled"
            ));
        }
        failures.extend(check_oracle("faultless", &cfg, &rep));
        push(&mut table, &mut entries, "faultless", &cfg, &rep);

        let cfg = Scenario::chaotic(seed, chaotic_ops);
        let rep = cfg.run();
        if report::fault_total(&rep.metrics) == 0 {
            failures.push(format!(
                "seed {seed}: chaotic schedule left all fault counters at zero"
            ));
        }
        failures.extend(check_oracle("chaotic", &cfg, &rep));
        push(&mut table, &mut entries, "chaotic", &cfg, &rep);
    }

    let (demo_cfg, demo) = outage_demo(&mut failures);
    push(&mut table, &mut entries, "outage_demo", &demo_cfg, &demo);

    let mut text = String::new();
    outln!(
        text,
        "Chaos — epoched invalidation delivery under injected faults"
    );
    outln!(
        text,
        "(toystore; faultless {faultless_ops} ops vs chaotic {chaotic_ops} ops per seed; \
         oracle bound: no serve stale beyond its lease)\n"
    );
    text.push_str(&table.render());
    ProbeRun {
        entries,
        failures,
        text,
    }
}

/// The observability demo: a clean run except for two scripted link
/// outages, recorded into 100 ms time-series buckets. Its entry carries
/// `timeseries` / `outage_windows` / `slo` sections whose curves must
/// show the throughput dip, the degraded-serve spike, and the recovery
/// once the link returns (`EXPERIMENTS.md`) — and the one SLO the
/// fault-tolerance layer exists to meet (stale-beyond-lease == 0).
pub fn outage_demo(failures: &mut Vec<String>) -> (Scenario, ScenarioReport) {
    let cfg = Scenario::outage_demo(42, 4_000);
    let demo = cfg.run();
    failures.extend(check_oracle("outage_demo", &cfg, &demo));
    if demo.queries_unavailable == 0 || demo.degraded_serves == 0 {
        failures.push(format!(
            "outage_demo: no visible dip (unavailable {}, degraded {})",
            demo.queries_unavailable, demo.degraded_serves
        ));
    }
    (cfg, demo)
}

fn check_oracle(label: &str, cfg: &Scenario, rep: &ScenarioReport) -> Option<String> {
    (rep.stale_beyond_lease > 0).then(|| {
        format!(
            "seed {} ({label}): {} serve(s) stale beyond the lease",
            cfg.seed, rep.stale_beyond_lease
        )
    })
}

fn push(
    table: &mut TextTable,
    entries: &mut Vec<Json>,
    label: &str,
    cfg: &Scenario,
    rep: &ScenarioReport,
) {
    table.row(&[
        label.to_string(),
        cfg.seed.to_string(),
        rep.stale_beyond_lease.to_string(),
        format!("{:.1}", rep.max_observed_staleness_micros as f64 / 1_000.0),
        rep.queries_served.to_string(),
        rep.degraded_serves.to_string(),
        (rep.queries_unavailable + rep.updates_unavailable).to_string(),
        rep.channel.dropped.to_string(),
        rep.counter("epoch_gaps").to_string(),
        rep.counter("recovery_flushes").to_string(),
        rep.counter("restarts").to_string(),
    ]);
    entries.push(report::chaos_entry_json(label, cfg, rep));
}
