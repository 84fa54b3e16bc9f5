//! Ablations beyond the paper: the §4.5 integrity-constraint
//! refinements on/off, and a finite DSSP cache.

use crate::TextTable;
use scs_apps::{analysis_matrix, BenchApp};
use scs_core::{characterize_app, AnalysisOptions};
use scs_dssp::{DsspConfig, StrategyKind};
use scs_netsim::{as_secs, SimConfig, SEC};

/// Ablation (extension beyond the paper): how much do the §4.5
/// **integrity-constraint refinements** (primary-/foreign-key reasoning
/// for insertions) contribute? Reports, per application: the IPM tally
/// with and without the refinements, and the invalidations observed on
/// a fixed workload under template-inspection exposure (where the
/// `A = 0` entries matter most).
pub fn ablation_ic() {
    println!("Ablation — §4.5 integrity-constraint refinements on/off\n");
    let mut table = TextTable::new(&[
        "Application",
        "A=0 pairs (with IC)",
        "A=0 pairs (without)",
        "Inv/update (with)",
        "Inv/update (without)",
        "Hit rate (with)",
        "Hit rate (without)",
    ]);

    for app in BenchApp::ALL {
        let def = app.def();
        let with = characterize_app(
            &def.update_templates(),
            &def.query_templates(),
            &def.catalog(),
            AnalysisOptions {
                use_integrity_constraints: true,
            },
        );
        let without = characterize_app(
            &def.update_templates(),
            &def.query_templates(),
            &def.catalog(),
            AnalysisOptions {
                use_integrity_constraints: false,
            },
        );
        let (inv_w, hit_w) = run_fixed(app, with.clone());
        let (inv_wo, hit_wo) = run_fixed(app, without.clone());
        table.row(&[
            def.name.to_string(),
            with.tally().a_zero.to_string(),
            without.tally().a_zero.to_string(),
            format!("{inv_w:.1}"),
            format!("{inv_wo:.1}"),
            format!("{hit_w:.2}"),
            format!("{hit_wo:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!("Insert-heavy applications benefit most: without the PK/FK rules,");
    println!("every insertion invalidates all instances of the queries it touches.");
}

/// Runs a fixed 64-user, 90-second workload at template-inspection
/// exposure with the given matrix; returns (invalidations/update, hit rate).
fn run_fixed(app: BenchApp, matrix: scs_core::IpmMatrix) -> (f64, f64) {
    let def = app.def();
    let exposures =
        StrategyKind::TemplateInspection.exposures(def.updates.len(), def.queries.len());
    let mut workload = app.workload_with_matrix(exposures, matrix, 31);
    let mut cfg = SimConfig::paper(64, 31);
    cfg.duration = 90 * SEC;
    cfg.warmup = 15 * SEC;
    scs_netsim::run(&cfg, &mut workload);
    let stats = workload.dssp().stats();
    (stats.invalidations_per_update(), stats.hit_rate())
}

/// Ablation (extension): finite DSSP cache capacity. The paper's
/// prototype cache is unbounded; a real shared DSSP node slices finite
/// memory across tenants. Sweeps the cache capacity (entries) for the
/// bookstore under MVIS and reports hit rate, evictions, and the p90
/// response time at a fixed load — showing where capacity, rather than
/// invalidation, becomes the hit-rate limiter.
pub fn ablation_cache() {
    let app = BenchApp::Bookstore;
    let users = 192;

    println!("Ablation — DSSP cache capacity (bookstore, MVIS, {users} users)\n");
    let mut table = TextTable::new(&[
        "Capacity (entries)",
        "Hit rate",
        "Evictions",
        "p90 response (s)",
    ]);

    for capacity in [
        Some(25usize),
        Some(50),
        Some(100),
        Some(250),
        Some(1000),
        None,
    ] {
        let (hit, evictions, p90) = run_with_capacity(app, users, capacity);
        table.row(&[
            capacity.map_or("unbounded".into(), |c| c.to_string()),
            format!("{hit:.2}"),
            evictions.to_string(),
            format!("{p90:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!("Small caches evict hot entries and behave like low-exposure");
    println!("configurations; past the working-set size, capacity stops mattering.");
}

/// A capacity-bounded variant of the standard workload driver: same app,
/// same cost model, different cache construction.
fn run_with_capacity(app: BenchApp, users: usize, capacity: Option<usize>) -> (f64, u64, f64) {
    let def = app.def();
    let exposures = StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
    let matrix = analysis_matrix(&def);
    let (db, ids) = app.build_database(47);
    let mut workload = scs_apps::DsspWorkload::with_config(
        &def,
        db,
        ids,
        DsspConfig {
            cache_capacity: capacity,
            ..DsspConfig::new(def.name, exposures, matrix)
        },
        app.zipf_exponent(),
        47,
    );
    let mut cfg = SimConfig::paper(users, 47);
    cfg.duration = 150 * SEC;
    cfg.warmup = 30 * SEC;
    let m = scs_netsim::run(&cfg, &mut workload);
    let dssp = workload.dssp();
    (
        m.hit_rate,
        dssp.cache_evictions(),
        m.percentile(0.9).map(as_secs).unwrap_or(f64::INFINITY),
    )
}
