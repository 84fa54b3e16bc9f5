//! The scalability observatory: a small, fixed, deterministic set of
//! probe runs whose windowed time-series curves, SLO verdicts, span
//! summaries, and trace health land in one report — the committed
//! performance baseline (`BENCH_baseline.json`) that [`crate::regress`]
//! gates CI against.
//!
//! The report carries, in order:
//! * the auction benchmark under MVIS and MBS at a fixed user count —
//!   the two ends of the exposure spectrum, with causal span recording
//!   enabled so the entries carry per-phase critical-path rows, and with
//!   the **leakage audit plane** attached: each `dssp.leakage` section
//!   holds the reveal ledger of what the proxy actually observed, so the
//!   baseline pins plaintext exposure alongside throughput;
//! * the chaos `outage_demo` — two scripted link outages whose curves
//!   must show the throughput dip, the degraded-serve spike, and the
//!   recovery once the link returns;
//! * every row of [`crate::PROBES`] at [`Mode::Smoke`] — this is the
//!   only place CI runs them, and their entries are the reference for
//!   the regression gate's detector rows.
//!
//! Every leaf of the report is deterministic per seed, so a regenerated
//! baseline is checked with plain `git diff`. The spans' wall-clock
//! nanoseconds (and the dominant phase they imply) go to
//! `artifacts/observatory.host.json`, which is never committed.
//!
//! Output: `artifacts/observatory.json` (`SCS_TELEMETRY_OUT` overrides).
//! Exits nonzero when any SLO or probe acceptance check fails — the
//! same gate `regress` enforces on the diff against the baseline.

use crate::{chaos, finish_run, slo_failures, Mode, PROBES};
use scs_apps::{report, BenchApp};
use scs_dssp::StrategyKind;
use scs_netsim::{SimConfig, Sla, Time, SEC};
use scs_telemetry::{lock, shared_audit, AuditLog, Json, SloSpec};

/// Time-series bucket width (sim time) shared by the sim recorder and
/// the proxy trace sink so the two series merge window-for-window.
const BUCKET: Time = 10 * SEC;
const USERS: usize = 48;
const SEED: u64 = 18;
const SPAN_CAPACITY: usize = 200_000;

/// Where the spans' host timing goes (see the module docs).
const HOST_TIMING_PATH: &str = "artifacts/observatory.host.json";

pub fn run() -> i32 {
    println!("Observatory — windowed probe runs for the perf-regression gate\n");
    let mut entries = Vec::new();
    let mut failed: Vec<String> = Vec::new();
    let mut host = Vec::new();

    for kind in [StrategyKind::ViewInspection, StrategyKind::Blind] {
        let (entry, host_timing) = probe(BenchApp::Auction, kind);
        slo_failures(&entry, &mut failed);
        entries.push(entry);
        host.push(host_timing);
    }

    let (demo_cfg, demo) = chaos::outage_demo(&mut failed);
    let demo_entry = report::chaos_entry_json("outage_demo", &demo_cfg, &demo);
    slo_failures(&demo_entry, &mut failed);
    println!(
        "  [outage_demo] served {} / unavailable {} / degraded {} / stale-beyond-lease {}",
        demo.queries_served,
        demo.queries_unavailable,
        demo.degraded_serves,
        demo.stale_beyond_lease
    );
    entries.push(demo_entry);

    for p in &PROBES {
        let run = (p.run)(Mode::Smoke, None);
        println!("\n== {} — {} ==\n{}", p.name, p.about, run.text);
        failed.extend(run.failures);
        entries.extend(run.entries);
    }

    // Diagnostics only: a host file that cannot be written costs the
    // timing breakdown, not the gate.
    let host_doc = report::telemetry_report(host).render_pretty() + "\n";
    if let Err(e) = std::fs::create_dir_all("artifacts")
        .and_then(|()| std::fs::write(HOST_TIMING_PATH, host_doc))
    {
        eprintln!("Failed to write {HOST_TIMING_PATH}: {e}");
    }
    finish_run(
        "observatory",
        "artifacts/observatory.json",
        entries,
        &failed,
    )
}

/// One observed probe run: spans on, sim + proxy series merged, SLOs
/// evaluated. Returns the report entry and the run's host-timing rows.
fn probe(app: BenchApp, kind: StrategyKind) -> (Json, Json) {
    let def = app.def();
    let exposures = kind.exposures(def.updates.len(), def.queries.len());
    let mut workload = app.workload(exposures, SEED);
    workload.dssp_mut().enable_span_recording(SPAN_CAPACITY);
    // The leakage audit plane: the entry's `dssp.leakage` section pins
    // what the proxy observed, so `regress` can catch a moved
    // encryption boundary (`leakage_rise`) against this baseline.
    let audit = shared_audit(1);
    let sink = AuditLog::sink(&audit, 0, def.name);
    workload.dssp_mut().add_trace_sink(Box::new(sink));
    workload.dssp_mut().meter_crypto();
    let series = workload.attach_observatory(BUCKET);

    let mut cfg = SimConfig::paper(USERS, SEED);
    cfg.duration = 120 * SEC;
    cfg.warmup = 20 * SEC;
    let m = scs_netsim::run_observed(&cfg, &mut workload, Some(BUCKET));

    // Derive the per-window `queries` denominator for the hit-rate SLO.
    let mut proxy = lock(&series).clone();
    let totals: Vec<(Time, u64)> = proxy
        .windows()
        .iter()
        .map(|w| {
            (
                w.start_micros,
                w.counter("query_hit") + w.counter("query_miss"),
            )
        })
        .collect();
    for (start, n) in totals {
        proxy.add(start, "queries", n);
    }

    let entry = report::telemetry_entry_observed(
        def.name,
        kind.name(),
        None,
        workload.dssp(),
        Some(&audit),
        &m,
        Some(&proxy),
        &probe_slos(kind),
    );
    println!(
        "  [{}/{}] throughput {:.1} rps / hit rate {:.2} / {} windows",
        def.name,
        kind.name(),
        m.throughput(),
        m.hit_rate,
        proxy.len()
    );
    let host_timing = Json::obj([
        ("app", def.name.into()),
        ("config", kind.name().into()),
        ("critical_path", workload.dssp().spans().host_json()),
    ]);
    (entry, host_timing)
}

/// The probe-run objectives. Every strategy must stay responsive and
/// busy; only template-informed strategies carry the hit-rate floor
/// (MBS legitimately runs nearly hitless).
fn probe_slos(kind: StrategyKind) -> Vec<SloSpec> {
    let mut slos = vec![
        Sla::paper().response_slo(3),
        SloSpec::rate_at_least("ops_floor", "ops", 1.0, 3),
    ];
    if kind != StrategyKind::Blind {
        slos.push(SloSpec::ratio_at_least(
            "hit_rate_floor",
            "query_hit",
            "queries",
            0.10,
            2,
            50,
        ));
    }
    slos
}
