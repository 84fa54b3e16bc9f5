//! The security/scalability **frontier** probe: turns the paper's Step-3
//! "manual tradeoff" into a measured Pareto curve.
//!
//! The paper leaves the final exposure assignment to an administrator
//! weighing security against scalability (§4, Step 3). This probe makes
//! that judgement quantitative: it sweeps the exposure lattice —
//! every uniform `UPDATE_LEVELS × QUERY_LEVELS` assignment, the
//! greedy Step-2b assignment from static analysis, and the residual
//! Step-3 single-step reductions around it — and measures, for each
//! assignment:
//!
//! * **leakage**: plaintext bytes the proxy actually observed per
//!   thousand executed operations, from the [`scs_telemetry::AuditLog`]
//!   ledger of a fixed-population audited trial; and
//! * **scalability**: max users under the paper's 2-second 90th
//!   percentile SLA, from the usual doubling-plus-bisection search.
//!
//! Points that no other assignment beats on both axes form the Pareto
//! frontier. The acceptance checks pin the shape the paper's argument
//! predicts: the frontier is non-trivial (≥ 3 non-dominated points),
//! and the greedy assignment sits *on* the frontier of naive uniform
//! assignments — security gained by analysis comes at no measured
//! scalability cost.
//!
//! The text ends with an **explain demo**: one `explain_reveal` causal
//! chain (request → decision path → exposure level → bytes) from a
//! short audited greedy run's reveal journal.
//!
//! Modes: `--full` sweeps all three applications at paper-style windows;
//! anything else is auction only at short windows (the committed
//! baseline's configuration).

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{measure_scalability, run_audited_trial, BenchApp, Fidelity};
use scs_core::{
    compulsory_exposures, reduce_exposures, residual_options, ExposureLevel, Exposures,
    SensitivityPolicy,
};
use scs_telemetry::Json;

use crate::exposure_strip;

/// The canonical seed of every frontier trial (shared with the
/// committed baseline).
pub const SEED: u64 = 37;

/// Fixed user population for the audited leakage trial. Leakage is
/// normalized per thousand ops, so the absolute population only needs
/// to be busy enough to exercise hits, misses, and invalidation scans.
pub const LEAKAGE_USERS: usize = 48;

/// How many residual Step-3 options to measure around the greedy
/// assignment (cheapest first, by affected pairs). Each one is a full
/// scalability search, so the probe bounds them.
pub const RESIDUAL_LIMIT: usize = 3;

/// Frontier sizes: which applications, the scalability-search knobs,
/// and the length of the fixed-population audited trial.
struct Sizes {
    apps: &'static [BenchApp],
    /// Scalability-search fidelity (trial length, user cap, resolution).
    search: Fidelity,
    /// Simulated seconds of the audited leakage trial.
    leakage_secs: u64,
    /// Warmup of the audited leakage trial (audit meters the whole run;
    /// warmup only affects the response-time stats, not the ledger).
    leakage_warmup_secs: u64,
}

impl Sizes {
    fn of(mode: Mode) -> Sizes {
        match mode {
            // Short windows, but a search fine enough that the stmt- and
            // view-level knees separate — the frontier's whole point is
            // resolving *that* gap against the leakage axis.
            Mode::Smoke | Mode::Quick => Sizes {
                apps: &[BenchApp::Auction],
                search: Fidelity {
                    duration_secs: 30,
                    warmup_secs: 5,
                    max_users: 2_048,
                    resolution: 16,
                },
                leakage_secs: 60,
                leakage_warmup_secs: 5,
            },
            Mode::Full => Sizes {
                apps: &BenchApp::ALL,
                search: Fidelity {
                    duration_secs: 120,
                    warmup_secs: 15,
                    max_users: 4_096,
                    resolution: 64,
                },
                leakage_secs: 180,
                leakage_warmup_secs: 15,
            },
        }
    }
}

/// One candidate exposure assignment in the sweep.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Stable label, e.g. `uniform_blind_template` or `greedy`.
    pub label: String,
    /// `uniform`, `greedy`, or `residual`.
    pub kind: &'static str,
    pub exposures: Exposures,
}

/// One measured point of the frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    pub label: String,
    pub kind: &'static str,
    pub updates_strip: String,
    pub queries_strip: String,
    /// Max users under the paper SLA.
    pub max_users: usize,
    /// Plaintext bytes the proxy observed, total over the audited trial.
    pub revealed_bytes: u64,
    /// Reveal events over the audited trial.
    pub reveal_events: u64,
    /// Ops executed in the audited trial (normalization denominator).
    pub ops: u64,
    /// `revealed_bytes / ops * 1000` — the leakage axis.
    pub leakage_per_kop: f64,
    /// No other measured point is at least as good on both axes and
    /// strictly better on one.
    pub non_dominated: bool,
}

/// One application's measured frontier.
pub struct FrontierCurve {
    pub app: BenchApp,
    pub points: Vec<FrontierPoint>,
}

/// Enumerates the sweep for `app`: all uniform lattice assignments, the
/// greedy Step-2b assignment, and up to [`RESIDUAL_LIMIT`] residual
/// Step-3 reductions around it (cheapest by affected pairs first).
pub fn assignments(app: BenchApp) -> Vec<Assignment> {
    let def = app.def();
    let (nu, nq) = (def.updates.len(), def.queries.len());
    let mut out = Vec::new();
    for e_u in ExposureLevel::UPDATE_LEVELS {
        for e_q in ExposureLevel::QUERY_LEVELS {
            out.push(Assignment {
                label: format!("uniform_{}_{}", e_u.as_str(), e_q.as_str()),
                kind: "uniform",
                exposures: Exposures {
                    updates: vec![e_u; nu],
                    queries: vec![e_q; nq],
                },
            });
        }
    }

    let catalog = def.catalog();
    let matrix = scs_apps::analysis_matrix(&def);
    let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
    let initial = compulsory_exposures(
        &def.update_templates(),
        &def.query_templates(),
        &catalog,
        &policy,
    );
    let greedy = reduce_exposures(&matrix, &initial);
    out.push(Assignment {
        label: "greedy".to_string(),
        kind: "greedy",
        exposures: greedy.clone(),
    });

    let mut residuals = residual_options(&matrix, &greedy);
    residuals.sort_by_key(|r| (r.affected_pairs, r.is_update, r.index));
    for r in residuals.into_iter().take(RESIDUAL_LIMIT) {
        let mut exposures = greedy.clone();
        let side = if r.is_update {
            exposures.updates[r.index] = r.to;
            "u"
        } else {
            exposures.queries[r.index] = r.to;
            "q"
        };
        out.push(Assignment {
            label: format!("residual_{side}{}_{}", r.index, r.to.as_str()),
            kind: "residual",
            exposures,
        });
    }
    out
}

/// Measures one assignment: an audited fixed-population trial for the
/// leakage axis, then a scalability search for the users axis.
fn run_point(app: BenchApp, a: &Assignment, sizes: &Sizes, seed: u64) -> FrontierPoint {
    let leak_fid = Fidelity {
        duration_secs: sizes.leakage_secs,
        warmup_secs: sizes.leakage_warmup_secs,
        ..sizes.search
    };
    let (metrics, audit) = run_audited_trial(app, &a.exposures, LEAKAGE_USERS, leak_fid, seed);
    let (revealed_bytes, reveal_events) = {
        let log = audit.lock().unwrap();
        (log.revealed_bytes(), log.events_total())
    };
    let ops = metrics.ops_executed;
    let leakage_per_kop = if ops == 0 {
        0.0
    } else {
        revealed_bytes as f64 / ops as f64 * 1000.0
    };
    let scal = measure_scalability(app, &a.exposures, sizes.search, seed);
    FrontierPoint {
        label: a.label.clone(),
        kind: a.kind,
        updates_strip: exposure_strip(&a.exposures.updates),
        queries_strip: exposure_strip(&a.exposures.queries),
        max_users: scal.max_users,
        revealed_bytes,
        reveal_events,
        ops,
        leakage_per_kop,
        non_dominated: false,
    }
}

/// `true` when `b` is at least as good as `a` on both axes (less-or-equal
/// leakage, greater-or-equal users) and strictly better on at least one.
pub fn dominates(b: &FrontierPoint, a: &FrontierPoint) -> bool {
    let leq = b.leakage_per_kop <= a.leakage_per_kop && b.max_users >= a.max_users;
    let strict = b.leakage_per_kop < a.leakage_per_kop || b.max_users > a.max_users;
    leq && strict
}

/// Marks each point's `non_dominated` flag against the whole set.
pub fn mark_frontier(points: &mut [FrontierPoint]) {
    for i in 0..points.len() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && dominates(other, &points[i]));
        points[i].non_dominated = !dominated;
    }
}

/// Sweeps the lattice for each application, evaluates the acceptance
/// checks, and assembles entries and text.
pub fn run(mode: Mode, seed: Option<u64>) -> ProbeRun {
    let (sizes, seed) = (Sizes::of(mode), seed.unwrap_or(SEED));
    let mut run = ProbeRun {
        entries: Vec::new(),
        failures: Vec::new(),
        text: String::new(),
    };
    outln!(
        run.text,
        "Frontier — leakage vs. max users across the exposure lattice"
    );
    outln!(
        run.text,
        "(apps {:?}; {LEAKAGE_USERS} leakage users; seed {seed})\n",
        sizes.apps.iter().map(|a| a.name()).collect::<Vec<_>>()
    );
    for &app in sizes.apps {
        let mut points: Vec<FrontierPoint> = assignments(app)
            .iter()
            .map(|a| run_point(app, a, &sizes, seed))
            .collect();
        mark_frontier(&mut points);
        let curve = FrontierCurve { app, points };
        check_curve(&curve, &mut run.failures);
        run.entries.push(curve_entry(&curve, seed));
        render_curve(&curve, &mut run.text);
    }
    outln!(
        run.text,
        "Shape: '*' rows are Pareto non-dominated; greedy rides the"
    );
    outln!(
        run.text,
        "frontier of the uniform assignments (analysis is free).\n"
    );
    explain_demo(seed, &mut run.text);
    run
}

fn render_curve(curve: &FrontierCurve, text: &mut String) {
    outln!(text, "== {} ==", curve.app.name());
    let mut table = TextTable::new(&[
        "Assignment",
        "Kind",
        "Updates",
        "Queries",
        "B/kop",
        "Max users",
        "Frontier",
    ]);
    let mut sorted: Vec<_> = curve.points.iter().collect();
    sorted.sort_by(|a, b| {
        a.leakage_per_kop
            .total_cmp(&b.leakage_per_kop)
            .then(a.max_users.cmp(&b.max_users))
    });
    for p in sorted {
        table.row(&[
            p.label.clone(),
            p.kind.to_string(),
            p.updates_strip.clone(),
            p.queries_strip.clone(),
            format!("{:.1}", p.leakage_per_kop),
            p.max_users.to_string(),
            if p.non_dominated { "*" } else { "" }.to_string(),
        ]);
    }
    outln!(text, "{}", table.render());
}

/// Runs one short audited greedy trial and renders an `explain_reveal`
/// chain for the largest view-read event in the journal.
fn explain_demo(seed: u64, text: &mut String) {
    outln!(text, "Explain demo — audited greedy auction run:");
    let app = BenchApp::Auction;
    let sweep = assignments(app);
    let greedy = sweep
        .iter()
        .find(|a| a.kind == "greedy")
        .expect("sweep carries greedy");
    let fid = Fidelity {
        duration_secs: 20,
        warmup_secs: 2,
        max_users: 64,
        resolution: 128,
    };
    let (_, audit) = run_audited_trial(app, &greedy.exposures, 32, fid, seed);
    let log = audit.lock().unwrap();
    let biggest = log
        .events()
        .iter()
        .max_by_key(|e| e.stamp.bytes)
        .map(|e| e.seq);
    match biggest.and_then(|seq| log.explain_reveal(seq)) {
        Some(doc) => outln!(
            text,
            "\nwhy-revealed (largest event):\n{}",
            doc.render_pretty()
        ),
        None => outln!(text, "\n(no reveal events in the journal — all-blind run?)"),
    }
}

/// The frontier acceptance checks.
fn check_curve(curve: &FrontierCurve, failures: &mut Vec<String>) {
    let name = curve.app.name();
    let frontier = curve.points.iter().filter(|p| p.non_dominated).count();
    if frontier < 3 {
        failures.push(format!(
            "{name}: Pareto frontier has {frontier} points, expected >= 3 \
             (security/scalability tradeoff degenerated)"
        ));
    }

    // The paper's core claim, measured: the greedy Step-2b assignment
    // must sit on the frontier of the naive uniform assignments — no
    // uniform point may beat it on both axes.
    let Some(greedy) = curve.points.iter().find(|p| p.kind == "greedy") else {
        failures.push(format!("{name}: greedy assignment missing from sweep"));
        return;
    };
    for p in curve.points.iter().filter(|p| p.kind == "uniform") {
        if dominates(p, greedy) {
            failures.push(format!(
                "{name}: uniform assignment {} dominates greedy \
                 ({:.1} B/kop @ {} users vs {:.1} B/kop @ {} users)",
                p.label, p.leakage_per_kop, p.max_users, greedy.leakage_per_kop, greedy.max_users
            ));
        }
    }

    // Blind-everywhere must meter exactly zero revealed bytes: the
    // audit plane's ground truth for "the proxy saw nothing".
    if let Some(blind) = curve
        .points
        .iter()
        .find(|p| p.label == "uniform_blind_blind")
    {
        if blind.revealed_bytes != 0 {
            failures.push(format!(
                "{name}: blind-everywhere revealed {} bytes, expected 0",
                blind.revealed_bytes
            ));
        }
    }
}

fn point_json(p: &FrontierPoint) -> Json {
    Json::obj([
        ("label", Json::Str(p.label.clone())),
        ("kind", Json::Str(p.kind.to_string())),
        ("updates", Json::Str(p.updates_strip.clone())),
        ("queries", Json::Str(p.queries_strip.clone())),
        ("max_users", Json::Num(p.max_users as f64)),
        ("revealed_bytes", Json::Num(p.revealed_bytes as f64)),
        ("reveal_events", Json::Num(p.reveal_events as f64)),
        ("ops", Json::Num(p.ops as f64)),
        ("leakage_per_kop", Json::Num(p.leakage_per_kop)),
        ("non_dominated", Json::Bool(p.non_dominated)),
    ])
}

/// One report entry per application, keyed `app|frontier`.
fn curve_entry(curve: &FrontierCurve, seed: u64) -> Json {
    Json::obj([
        ("app", Json::Str(curve.app.name().to_string())),
        ("config", Json::Str("frontier".to_string())),
        ("seed", Json::Num(seed as f64)),
        ("leakage_users", Json::Num(LEAKAGE_USERS as f64)),
        (
            "frontier",
            Json::obj([(
                "points",
                Json::Arr(curve.points.iter().map(point_json).collect()),
            )]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_lattice_greedy_and_residuals() {
        let sweep = assignments(BenchApp::Auction);
        let uniform = sweep.iter().filter(|a| a.kind == "uniform").count();
        assert_eq!(
            uniform,
            ExposureLevel::UPDATE_LEVELS.len() * ExposureLevel::QUERY_LEVELS.len()
        );
        assert_eq!(sweep.iter().filter(|a| a.kind == "greedy").count(), 1);
        assert!(sweep.iter().filter(|a| a.kind == "residual").count() <= RESIDUAL_LIMIT);
        // Labels are unique (they key the regression diff).
        let mut labels: Vec<&str> = sweep.iter().map(|a| a.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), sweep.len());
        // Every assignment is valid for updates (no View updates).
        for a in &sweep {
            assert!(a.exposures.updates.iter().all(|e| e.valid_for_update()));
        }
    }

    #[test]
    fn pareto_marking_matches_dominance_by_hand() {
        let mk = |label: &str, leak: f64, users: usize| FrontierPoint {
            label: label.to_string(),
            kind: "uniform",
            updates_strip: String::new(),
            queries_strip: String::new(),
            max_users: users,
            revealed_bytes: leak as u64,
            reveal_events: 0,
            ops: 1000,
            leakage_per_kop: leak,
            non_dominated: false,
        };
        let mut pts = vec![
            mk("secure", 0.0, 100), // frontier: least leakage
            mk("fast", 900.0, 900), // frontier: most users
            mk("mid", 400.0, 600),  // frontier: between
            mk("bad", 500.0, 500),  // dominated by mid
            mk("tie", 400.0, 600),  // duplicate of mid: both survive
        ];
        mark_frontier(&mut pts);
        let flags: Vec<bool> = pts.iter().map(|p| p.non_dominated).collect();
        assert_eq!(flags, [true, true, true, false, true]);
    }
}
