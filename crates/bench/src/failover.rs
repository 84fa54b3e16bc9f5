//! The failover probe: the durable replicated home tier under scripted
//! primary crashes, measured against the steady single-home run of the
//! same op script.
//!
//! Five deterministic runs per invocation:
//!
//! * `failover_steady` — no standbys, no crashes: the single-home
//!   baseline every dip/recovery number is read against;
//! * `failover_async` — async replication, primary crash mid-update
//!   (the curves entry: its time series shows the dip and recovery);
//! * `failover_sync` — the same crash under sync-quorum: the acked-write
//!   durability ledger must read zero lost;
//! * `failover_double` — two primary crashes back to back (the second
//!   promotion runs from an already-promoted standby);
//! * `failover_zombie` — a partitioned primary keeps writing while the
//!   healed side promotes: fencing + divergence-discard counters.
//!
//! Acceptance (at every mode; `--smoke` runs the 600-op scripts the
//! committed baseline carries, anything else the 2 400-op long trial):
//!
//! * the steady run never fails over and is never unavailable;
//! * every run's freshness oracle holds (`stale_beyond_lease == 0`)
//!   and its durability/conservation/ledger audits pass;
//! * every crash run promotes the expected number of times, and the
//!   total unavailability stays within the promotion-latency budget
//!   (detection lease + two heartbeats per failover);
//! * sync-quorum loses **zero** acked writes;
//! * the async crash run still serves at least
//!   [`GOODPUT_RETENTION_FLOOR`] of the steady run's queries — a
//!   failover is a dip, not an outage;
//! * the zombie run fences stale-term records and discards the
//!   divergent branch wholesale.
//!
//! The emitted entries are the reference for the `regress` gate's
//! `failover_window_rise` and `acked_write_lost` detectors.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::report::failover_entry_json;
use scs_apps::{Scenario, ScenarioReport};

/// Pinned probe seed — the entries diff cleanly against the committed
/// baseline.
pub const SEED: u64 = 29;

/// The async crash run must retain at least this fraction of the
/// steady run's served queries.
pub const GOODPUT_RETENTION_FLOOR: f64 = 0.80;

/// Time-series bucket width for the async run's dip/recovery curves.
const BUCKET_MICROS: u64 = 25_000;

/// Runs the five scenarios, audits them against the steady baseline,
/// and assembles entries and text.
pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let seed = seed.unwrap_or(SEED);
    let ops = if mode == Mode::Smoke { 600 } else { 2_400 };
    let async_cfg = Scenario {
        bucket_micros: Some(BUCKET_MICROS),
        ..Scenario::crash_mid_update(seed, ops)
    };
    let scenarios: Vec<(&'static str, Scenario)> = vec![
        ("failover_steady", Scenario::steady(seed, ops)),
        ("failover_async", async_cfg),
        (
            "failover_sync",
            Scenario::crash_mid_update(seed, ops).sync(),
        ),
        ("failover_double", Scenario::double_failover(seed, ops)),
        ("failover_zombie", Scenario::zombie(seed, ops)),
    ];

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    let mut steady_served = None;
    let mut table = TextTable::new(&[
        "config",
        "mode",
        "failovers",
        "down (ms)",
        "budget (ms)",
        "goodput kept",
        "lost acked",
        "fenced",
        "stale>lease",
    ]);

    for (name, cfg) in scenarios {
        let r = cfg.run();
        audit(name, &cfg, &r, steady_served, &mut failures);
        let retained = match (name, steady_served) {
            ("failover_steady", _) => {
                steady_served = Some(r.queries_served);
                None
            }
            (_, Some(base)) if base > 0 => Some(r.queries_served as f64 / base as f64),
            _ => None,
        };
        entries.push(failover_entry_json(name, &cfg, &r, retained));
        table.row(&[
            name.to_string(),
            cfg.replication.mode.name().to_string(),
            r.failovers.len().to_string(),
            format!("{:.1}", r.unavailable_micros_total as f64 / 1_000.0),
            format!("{:.1}", window_budget(&cfg, &r) as f64 / 1_000.0),
            retained.map_or("-".into(), |g| format!("{:.0}%", g * 100.0)),
            r.lost_acked_total.to_string(),
            r.fenced_records.to_string(),
            r.stale_beyond_lease.to_string(),
        ]);
    }

    let mut text = String::new();
    outln!(
        text,
        "Failover — replicated home tier under scripted crashes"
    );
    outln!(
        text,
        "(toystore; {ops} ops per run; steady run is the single-home baseline; seed {seed})\n"
    );
    text.push_str(&table.render());
    ProbeRun {
        entries,
        failures,
        text,
    }
}

/// The promotion-latency budget: detection lease + two heartbeats per
/// failover.
fn window_budget(cfg: &Scenario, r: &ScenarioReport) -> u64 {
    r.failovers.len() as u64 * (cfg.replication.lease_micros + 2 * cfg.replication.heartbeat_micros)
}

/// The per-run acceptance checks (doc comment above lists them).
fn audit(
    name: &str,
    cfg: &Scenario,
    r: &ScenarioReport,
    steady_served: Option<u64>,
    failures: &mut Vec<String>,
) {
    if r.stale_beyond_lease > 0 {
        failures.push(format!(
            "{name}: {} serve(s) stale beyond the lease",
            r.stale_beyond_lease
        ));
    }
    if !r.home_recovered {
        failures.push(format!("{name}: home tier never recovered"));
    } else if !r.durability_ok {
        failures.push(format!(
            "{name}: surviving state diverged from the oracle replay"
        ));
    }
    if !r.ledger_consistent {
        failures.push(format!(
            "{name}: group durability account disagrees with the external ledger"
        ));
    }
    if !r.conservation_balanced {
        failures.push(format!(
            "{name}: invalidation conservation unbalanced across failover"
        ));
    }

    match name {
        "failover_steady" => {
            if !r.failovers.is_empty() {
                failures.push(format!(
                    "{name}: {} failover(s) with no crash scheduled",
                    r.failovers.len()
                ));
            }
            if r.unavailable_micros_total > 0 || r.queries_unavailable > 0 {
                failures.push(format!(
                    "{name}: unavailability ({}us, {} queries) without a crash",
                    r.unavailable_micros_total, r.queries_unavailable
                ));
            }
            return;
        }
        "failover_double" => {
            if r.failovers.len() != 2 {
                failures.push(format!(
                    "{name}: expected 2 promotions, saw {}",
                    r.failovers.len()
                ));
            }
        }
        _ => {
            if r.failovers.len() != 1 {
                failures.push(format!(
                    "{name}: expected 1 promotion, saw {}",
                    r.failovers.len()
                ));
            }
        }
    }

    let bound = window_budget(cfg, r);
    if r.unavailable_micros_total > bound {
        failures.push(format!(
            "{name}: tier down {}us, promotion-latency budget {}us",
            r.unavailable_micros_total, bound
        ));
    }

    if name == "failover_sync" && r.lost_acked_total > 0 {
        failures.push(format!(
            "{name}: sync-quorum lost {} acked write(s)",
            r.lost_acked_total
        ));
    }
    if name == "failover_async" {
        if let Some(base) = steady_served {
            let retained = r.queries_served as f64 / base.max(1) as f64;
            if retained < GOODPUT_RETENTION_FLOOR {
                failures.push(format!(
                    "{name}: retained only {:.0}% of steady serves (floor {:.0}%)",
                    retained * 100.0,
                    GOODPUT_RETENTION_FLOOR * 100.0
                ));
            }
        }
    }
    if name == "failover_zombie" {
        if r.fenced_records == 0 {
            failures.push(format!("{name}: no stale-term record was fenced"));
        }
        if r.divergence_discarded < r.zombie_writes_applied {
            failures.push(format!(
                "{name}: zombie branch not discarded wholesale ({} < {})",
                r.divergence_discarded, r.zombie_writes_applied
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_telemetry::Json;

    #[test]
    fn smoke_probe_passes_its_own_gate() {
        let probe = run(Mode::Smoke, None);
        assert!(
            probe.failures.is_empty(),
            "probe failures: {:?}",
            probe.failures
        );
        assert_eq!(probe.entries.len(), 5);
        // The async entry carries dip/recovery curves; the steady one
        // records no failover and anchors goodput_retained.
        let by_name = |n: &str| {
            probe
                .entries
                .iter()
                .find(|e| e.get("config").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        let steady = by_name("failover_steady").get("failover").unwrap();
        assert_eq!(steady.get("failovers").unwrap().as_u64(), Some(0));
        let a = by_name("failover_async");
        assert!(a.get("timeseries").unwrap().get("windows").is_some());
        let af = a.get("failover").unwrap();
        assert_eq!(af.get("failovers").unwrap().as_u64(), Some(1));
        assert!(af.get("goodput_retained").unwrap().as_f64().unwrap() >= GOODPUT_RETENTION_FLOOR);
        let sync = by_name("failover_sync").get("failover").unwrap();
        assert_eq!(sync.get("lost_acked").unwrap().as_u64(), Some(0));
    }
}
