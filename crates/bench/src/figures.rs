//! The paper's figures: **Figure 3** (bookstore security–scalability
//! tradeoff), **Figure 7** (exposure levels before/after static
//! analysis) and **Figure 8** (scalability vs. invalidation strategy).
//!
//! Figures 3 and 8 run scalability searches — minutes at the default
//! quick fidelity, the paper's 10-minute trials under `--full` — and
//! export one observed probe trial per configuration (per-template
//! counts, attribution matrix, latency histograms; schema in
//! `EXPERIMENTS.md`).

use crate::{exposure_strip, finish_run, Mode, TextTable};
use scs_apps::{measure_scalability, report, BenchApp, DsspWorkload, Fidelity};
use scs_core::{
    compulsory_exposures, reduce_exposures, ExposureLevel, Exposures, SensitivityPolicy,
};
use scs_dssp::StrategyKind;
use scs_netsim::{RunMetrics, SimConfig, Sla, SEC};
use scs_telemetry::{lock, Json, SloSpec};

/// One observed probe trial at a measured knee (time-series buckets of
/// 10 s of sim time): the telemetry entry, plus the run's metrics and
/// the workload for the mechanism columns.
fn knee_probe(
    app: BenchApp,
    label: &str,
    exposures: &Exposures,
    max_users: usize,
    fidelity: Fidelity,
    seed: u64,
    slos: &[SloSpec],
) -> (Json, RunMetrics, DsspWorkload) {
    let bucket = 10 * SEC;
    let mut cfg = SimConfig::paper(max_users.max(8), seed);
    cfg.duration = fidelity.duration_secs * SEC;
    cfg.warmup = fidelity.warmup_secs * SEC;
    let mut workload = app.workload(exposures.clone(), seed);
    let series = workload.attach_observatory(bucket);
    let m = scs_netsim::run_observed(&cfg, &mut workload, Some(bucket));
    let proxy = lock(&series).clone();
    let entry = report::telemetry_entry_observed(
        app.name(),
        label,
        Some(max_users),
        workload.dssp(),
        None,
        &m,
        Some(&proxy),
        slos,
    );
    (entry, m, workload)
}

/// **Figure 3**: the security–scalability tradeoff for the TPC-W
/// bookstore. X-axis: security, measured as the number of query
/// templates whose results are encrypted; Y-axis: scalability.
///
/// Points produced:
/// * **no encryption** — everything exposed (MVIS; x = 0);
/// * a **naive sweep** — encrypting k query-template results chosen
///   *without* the static analysis (and the update statements
///   alongside), showing scalability degrading as k grows;
/// * **analysis only** — exactly the provably-free set, no Step-1
///   mandate: must match the no-encryption point;
/// * **our approach** — Step 1 (CA law) + Step 2 (static analysis):
///   encrypts 21+ result sets at the no-encryption scalability level;
/// * **full encryption** — everything encrypted (MBS; x = 28).
///
/// Output: `artifacts/fig3_telemetry.json`.
pub fn fig3(mode: Mode) -> i32 {
    let fidelity = mode.search_fidelity();
    let app = BenchApp::Bookstore;
    let def = app.def();
    let matrix = scs_apps::analysis_matrix(&def);
    let (nu, nq) = (def.updates.len(), def.queries.len());

    println!("Figure 3 — security–scalability tradeoff (bookstore)");
    println!("(x = number of query templates with encrypted results)\n");

    let mvis = StrategyKind::ViewInspection.exposures(nu, nq);
    // (progress tag, configuration label, x, exposures)
    let mut points: Vec<(String, String, usize, Exposures)> = vec![(
        "no-encryption".into(),
        "no encryption (MVIS)".into(),
        0,
        mvis.clone(),
    )];
    // Naive sweep: encrypt the first k query results (exposure stmt) and
    // k/3 of the update statements (exposure template) without consulting
    // the analysis — the dashed tradeoff curve of Figure 3.
    for k in [7usize, 14, 21, 28] {
        let mut exp = mvis.clone();
        for j in 0..k.min(nq) {
            exp.queries[j] = ExposureLevel::Template;
        }
        for i in 0..(k / 3).min(nu) {
            exp.updates[i] = ExposureLevel::Template;
        }
        points.push((
            format!("naive k={k}"),
            format!("naive encryption of {k} templates"),
            k,
            exp,
        ));
    }
    let free = reduce_exposures(&matrix, &Exposures::maximum(nu, nq));
    points.push((
        "analysis-only".into(),
        "analysis only (no mandate)".into(),
        free.encrypted_query_results(),
        free,
    ));
    let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
    let step1 = compulsory_exposures(
        &def.update_templates(),
        &def.query_templates(),
        &def.catalog(),
        &policy,
    );
    let ours = reduce_exposures(&matrix, &step1);
    let x_ours = ours.encrypted_query_results();
    points.push(("our-approach".into(), "our approach".into(), x_ours, ours));
    points.push((
        "full-encryption".into(),
        "full encryption (MBS)".into(),
        nq,
        StrategyKind::Blind.exposures(nu, nq),
    ));

    let mut table = TextTable::new(&["Configuration", "x (encrypted results)", "Scalability"]);
    let mut entries = Vec::new();
    for (tag, label, x, exposures) in &points {
        let r = measure_scalability(app, exposures, fidelity, 23);
        table.row(&[label.clone(), x.to_string(), r.max_users.to_string()]);
        let slos = [Sla::paper().response_slo(3)];
        entries.push(knee_probe(app, label, exposures, r.max_users, fidelity, 24, &slos).0);
        eprintln!("  [{tag}] {} users", r.max_users);
    }

    println!("{}", table.render());
    println!("\nStatic analysis identified {x_ours} of {nq} query templates whose results");
    println!("can be encrypted without impacting scalability (paper: 21 of 28).");
    println!("Expected shape: 'our approach' matches 'no encryption' scalability;");
    println!("naive encryption degrades toward the 'full encryption' floor.");
    finish_run("fig3", "artifacts/fig3_telemetry.json", entries, &[])
}

/// **Figure 7**: per-template exposure levels before (dashed line: the
/// California-data-privacy-law mandate only) and after (solid line: +
/// our static analysis) for all three applications — for each, two
/// "strips" of exposure levels, one character per template, sorted by
/// increasing final exposure as in the paper's plots, plus summary
/// counts.
pub fn fig7() {
    println!("Figure 7 — exposure reduction from static analysis");
    println!("(b = blind, t = template, s = stmt, v = view; one char per template,");
    println!(" sorted by increasing final exposure)\n");

    for app in BenchApp::ALL {
        let def = app.def();
        let catalog = def.catalog();
        let matrix = scs_apps::analysis_matrix(&def);
        let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
        let initial = compulsory_exposures(
            &def.update_templates(),
            &def.query_templates(),
            &catalog,
            &policy,
        );
        let fin = reduce_exposures(&matrix, &initial);

        // Sort templates by (final, initial) exposure for the plot shape.
        let mut q_order: Vec<usize> = (0..def.queries.len()).collect();
        q_order.sort_by_key(|j| (fin.queries[*j], initial.queries[*j]));
        let mut u_order: Vec<usize> = (0..def.updates.len()).collect();
        u_order.sort_by_key(|i| (fin.updates[*i], initial.updates[*i]));

        let pick = |levels: &[ExposureLevel], order: &[usize]| -> Vec<ExposureLevel> {
            order.iter().map(|i| levels[*i]).collect()
        };

        println!("== {} ==", def.name);
        println!("query templates  ({}):", def.queries.len());
        println!(
            "  initial (CA law): {}",
            exposure_strip(&pick(&initial.queries, &q_order))
        );
        println!(
            "  final (analysis): {}",
            exposure_strip(&pick(&fin.queries, &q_order))
        );
        println!("update templates ({}):", def.updates.len());
        println!(
            "  initial (CA law): {}",
            exposure_strip(&pick(&initial.updates, &u_order))
        );
        println!(
            "  final (analysis): {}",
            exposure_strip(&pick(&fin.updates, &u_order))
        );

        let reduced_q = (0..def.queries.len())
            .filter(|j| fin.queries[*j] < initial.queries[*j])
            .count();
        let reduced_u = (0..def.updates.len())
            .filter(|i| fin.updates[*i] < initial.updates[*i])
            .count();
        println!(
            "  reduced: {reduced_q}/{} query and {reduced_u}/{} update templates",
            def.queries.len(),
            def.updates.len()
        );
        println!(
            "  query results encrypted at no scalability cost: {}/{}",
            fin.encrypted_query_results(),
            def.queries.len()
        );

        // Moderately sensitive data now secured for free (§5.4 examples).
        let freebies: Vec<&str> = def
            .queries
            .iter()
            .enumerate()
            .filter(|(j, q)| {
                q.sensitivity == scs_apps::Sensitivity::Moderate
                    && fin.queries[*j] < ExposureLevel::View
                    && initial.queries[*j] == ExposureLevel::View
            })
            .map(|(_, q)| q.name)
            .collect();
        println!("  moderately sensitive results secured for free: {freebies:?}\n");
    }
}

/// **Figure 8**: scalability (max concurrent users with the
/// 90th-percentile response time under 2 s) of each benchmark
/// application under the four coarse-grain invalidation strategies
/// MVIS, MSIS, MTIS, MBS — plus the mechanism behind the figure: cache
/// hit rate and invalidations per update at the measured knee.
///
/// Output: `artifacts/telemetry.json`.
pub fn fig8(mode: Mode) -> i32 {
    let fidelity = mode.search_fidelity();
    println!("Figure 8 — scalability vs. invalidation strategy");
    println!("(quick mode by default; pass --full for the paper's 10-minute trials)\n");

    let mut table = TextTable::new(&[
        "Application",
        "Strategy",
        "Scalability (users)",
        "Hit rate",
        "Inv/update",
    ]);
    let mut entries = Vec::new();
    // The probe-run objectives: the paper's SLA sharpened to any three
    // consecutive buckets, plus an activity floor so a stalled run
    // cannot pass vacuously.
    let slos = [
        Sla::paper().response_slo(3),
        SloSpec::rate_at_least("ops_floor", "ops", 1.0, 3),
    ];

    for app in BenchApp::ALL {
        let def = app.def();
        for kind in StrategyKind::ALL {
            let exposures = kind.exposures(def.updates.len(), def.queries.len());
            let result = measure_scalability(app, &exposures, fidelity, 17);
            let (entry, m, workload) = knee_probe(
                app,
                kind.name(),
                &exposures,
                result.max_users,
                fidelity,
                18,
                &slos,
            );
            table.row(&[
                def.name.to_string(),
                kind.name().to_string(),
                result.max_users.to_string(),
                format!("{:.2}", m.hit_rate),
                format!("{:.1}", workload.dssp().stats().invalidations_per_update()),
            ]);
            entries.push(entry);
            eprintln!(
                "  [{} / {}] scalability = {} users ({} trials)",
                def.name,
                kind.name(),
                result.max_users,
                result.trials.len()
            );
        }
    }

    println!("{}", table.render());
    println!("Paper's shape: MVIS >= MSIS >= MTIS >> MBS for every application;");
    println!("bboard (~10 queries/request) collapses under MTIS and MBS.");
    finish_run("fig8", "artifacts/telemetry.json", entries, &[])
}
