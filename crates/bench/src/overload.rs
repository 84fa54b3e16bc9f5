//! The overload probe: graceful degradation under a 4× scripted load
//! spike (protected and unprotected) plus a goodput-vs-offered-load
//! sweep past the saturation knee, with one set of acceptance checks —
//! bounded p99 queueing delay, flat goodput while shedding, a complete
//! breaker open → half-open → close cycle in the exported timeseries,
//! and zero stale-beyond-lease serves.
//!
//! The configurations are the same at every [`Mode`]; only `--seed`
//! moves them off the committed baseline's.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{
    goodput_curve, knee_index, report, CurvePoint, LoadSegment, Scenario, ScenarioReport,
};
use scs_netsim::Time;
use scs_telemetry::Json;

/// Arrival-rate multipliers swept for the goodput curve.
pub const SWEEP_MULTIPLIERS: &[f64] = &[0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];

/// Past the knee, goodput must hold at least this fraction of the
/// knee's goodput — the acceptance bar for graceful degradation.
pub const KNEE_HOLD_FRACTION: f64 = 0.8;

/// The canonical probe seed (shared with the committed baseline).
pub const SEED: u64 = 42;

/// Runs the spike demo (protected and unprotected) and the goodput
/// sweep, evaluates every acceptance check, and assembles entries and
/// text.
pub fn run(_mode: Mode, seed: Option<u64>) -> ProbeRun {
    let seed = seed.unwrap_or(SEED);
    let demo_cfg = Scenario::spike_demo(seed);
    let demo = demo_cfg.run();
    // The unprotected contrast run skips the time series (and therefore
    // the SLO section): its whole point is to violate the objectives.
    let demo_unprotected_cfg = Scenario {
        bucket_micros: None,
        ..demo_cfg.clone().unprotected()
    };
    let demo_unprotected = demo_unprotected_cfg.run();

    let base = Scenario::sweep_point(seed);
    let protected_curve = goodput_curve(&base, SWEEP_MULTIPLIERS);
    let unprotected_curve = goodput_curve(&base.clone().unprotected(), SWEEP_MULTIPLIERS);

    let mut failures = Vec::new();
    check_demo(&demo_cfg, &demo, &mut failures);
    check_curves(&base, &protected_curve, &unprotected_curve, &mut failures);

    let entries = vec![
        report::overload_entry_json("spike_demo", &demo_cfg, &demo),
        report::overload_entry_json(
            "spike_demo_unprotected",
            &demo_unprotected_cfg,
            &demo_unprotected,
        ),
        Json::obj([
            ("app", "toystore".into()),
            ("config", "overload_curve".into()),
            ("seed", seed.into()),
            (
                "goodput_curve",
                report::overload_curve_json("protected", &protected_curve),
            ),
            (
                "contrast_curve",
                report::overload_curve_json("unprotected", &unprotected_curve),
            ),
        ]),
    ];
    for entry in &entries {
        crate::slo_failures(entry, &mut failures);
    }

    let mut text = String::new();
    outln!(
        text,
        "Overload — admission control, circuit breaker, and brownout serving"
    );
    outln!(
        text,
        "(toystore; 4x spike over [1 s, 2 s); deadline {} ms; seed {seed})\n",
        deadline(&demo_cfg) / 1_000
    );
    let mut table = TextTable::new(&[
        "config",
        "offered",
        "goodput rps",
        "shed",
        "degraded",
        "deadline miss",
        "stale>lease",
        "wait p99 (ms)",
        "resp p99 (ms)",
    ]);
    demo_row(&mut table, "spike_demo", &demo);
    demo_row(&mut table, "spike_demo_unprotected", &demo_unprotected);
    text.push_str(&table.render());

    let c = |name| demo.counter(name);
    outln!(
        text,
        "\nbreaker: {} open / {} half-open / {} close; brownout: {} entered, {} degraded serves",
        c("breaker_opens"),
        c("breaker_half_opens"),
        c("breaker_closes"),
        c("brownout_entries"),
        c("brownout_serves")
    );
    outln!(
        text,
        "shed by: admission {} / breaker {} / brownout {} / queue {}",
        c("shed_admission"),
        c("shed_breaker_open"),
        c("shed_brownout"),
        c("shed_queue_full")
    );
    outln!(
        text,
        "\nGoodput curve (flat offered load at each multiplier; past-knee hold >= {:.0}%; knee {:.0} rps)\n",
        KNEE_HOLD_FRACTION * 100.0,
        protected_curve[knee_index(&protected_curve)].goodput_rps
    );
    let mut curve = TextTable::new(&[
        "multiplier",
        "offered rps",
        "protected rps",
        "shed%",
        "p99 (ms)",
        "unprotected rps",
        "p99 (ms)",
    ]);
    for (p, u) in protected_curve.iter().zip(&unprotected_curve) {
        curve.row(&[
            format!("{:.1}x", p.multiplier),
            format!("{:.0}", p.offered_rps),
            format!("{:.0}", p.goodput_rps),
            format!("{:.0}", p.shed_ratio * 100.0),
            format!("{:.1}", p.p99_response_micros as f64 / 1_000.0),
            format!("{:.0}", u.goodput_rps),
            format!("{:.1}", u.p99_response_micros as f64 / 1_000.0),
        ]);
    }
    text.push_str(&curve.render());

    ProbeRun {
        entries,
        failures,
        text,
    }
}

fn demo_row(table: &mut TextTable, label: &str, r: &ScenarioReport) {
    table.row(&[
        label.to_string(),
        r.offered().to_string(),
        format!("{:.0}", r.goodput_rps()),
        r.shed.to_string(),
        r.degraded_serves.to_string(),
        r.deadline_missed.to_string(),
        r.stale_beyond_lease.to_string(),
        format!("{:.1}", r.queue_wait_p99_micros as f64 / 1_000.0),
        format!("{:.1}", r.response_p99_micros as f64 / 1_000.0),
    ]);
}

/// The home queue's goodput deadline (µs).
fn deadline(cfg: &Scenario) -> Time {
    cfg.home_queue.as_ref().map_or(0, |q| q.deadline_micros)
}

/// The spike window `[start, end)` from the demo's load profile.
fn spike_window(cfg: &Scenario) -> Option<(Time, Time)> {
    cfg.load.segments.iter().find_map(|s| match *s {
        LoadSegment::Step { start, end, .. } => Some((start, end)),
        LoadSegment::Ramp { .. } => None,
    })
}

fn check_demo(cfg: &Scenario, r: &ScenarioReport, failures: &mut Vec<String>) {
    if r.stale_beyond_lease != 0 {
        failures.push(format!(
            "spike_demo: {} serve(s) stale beyond the lease under overload",
            r.stale_beyond_lease
        ));
    }
    if r.shed == 0 {
        failures.push("spike_demo: a 4x spike shed nothing".to_string());
    }
    let (opens, half_opens, closes) = (
        r.counter("breaker_opens"),
        r.counter("breaker_half_opens"),
        r.counter("breaker_closes"),
    );
    if opens == 0 || half_opens == 0 || closes == 0 {
        failures.push(format!(
            "spike_demo: breaker cycle incomplete (opens {opens}, half-opens {half_opens}, closes {closes})"
        ));
    }
    if let Some(p) = cfg.home_queue.as_ref().and_then(|q| q.protection) {
        if r.queue_wait_p99_micros > p.admission.deadline_micros {
            failures.push(format!(
                "spike_demo: p99 queue wait {} us exceeds the {} us admission deadline",
                r.queue_wait_p99_micros, p.admission.deadline_micros
            ));
        }
    }
    // Admitted work must stay deadline-shaped: at most 1% of completions
    // blew the deadline.
    if r.deadline_missed * 100 > r.completed() {
        failures.push(format!(
            "spike_demo: {} of {} completions missed the deadline",
            r.deadline_missed,
            r.completed()
        ));
    }
    // Goodput stays flat while shedding: the spike window's timely rate
    // must hold against the pre-spike rate.
    if let (Some(ts), Some((start, end))) = (r.timeseries.as_ref(), spike_window(cfg)) {
        let rate = |a: Time, b: Time| -> f64 {
            let timely: u64 = ts
                .windows()
                .iter()
                .filter(|w| w.start_micros >= a && w.start_micros < b)
                .map(|w| w.counter("timely"))
                .sum();
            timely as f64 / ((b - a).max(1) as f64 / 1_000_000.0)
        };
        let before = rate(0, start);
        let during = rate(start, end);
        if during < before * KNEE_HOLD_FRACTION {
            failures.push(format!(
                "spike_demo: goodput sagged under the spike ({during:.0} rps vs {before:.0} before)"
            ));
        }
        for name in ["breaker_open", "breaker_half_open", "breaker_close"] {
            if ts.counter_total(name) == 0 {
                failures.push(format!(
                    "spike_demo: '{name}' transition missing from the exported timeseries"
                ));
            }
        }
    } else {
        failures.push("spike_demo: no timeseries recorded".to_string());
    }
}

fn check_curves(
    base: &Scenario,
    protected: &[CurvePoint],
    unprotected: &[CurvePoint],
    failures: &mut Vec<String>,
) {
    for p in protected.iter().chain(unprotected) {
        if p.stale_beyond_lease != 0 {
            failures.push(format!(
                "sweep x{}: {} stale-beyond-lease serve(s)",
                p.multiplier, p.stale_beyond_lease
            ));
        }
    }
    let knee = knee_index(protected);
    let knee_goodput = protected[knee].goodput_rps;
    for p in &protected[knee + 1..] {
        if p.goodput_rps < knee_goodput * KNEE_HOLD_FRACTION {
            failures.push(format!(
                "sweep x{}: protected goodput {:.0} rps collapsed below {:.0}% of the knee's {:.0}",
                p.multiplier,
                p.goodput_rps,
                KNEE_HOLD_FRACTION * 100.0,
                knee_goodput
            ));
        }
    }
    let (Some(pt), Some(ut)) = (protected.last(), unprotected.last()) else {
        failures.push("sweep: empty curve".to_string());
        return;
    };
    if pt.goodput_rps < ut.goodput_rps {
        failures.push(format!(
            "sweep x{}: protection lost to the unprotected baseline ({:.0} vs {:.0} rps)",
            pt.multiplier, pt.goodput_rps, ut.goodput_rps
        ));
    }
    // The contrast that motivates the whole layer: past the knee the
    // unprotected p99 runs away while the protected one stays bounded.
    if pt.p99_response_micros > 2 * deadline(base) {
        failures.push(format!(
            "sweep x{}: protected p99 {} us lost its deadline shape",
            pt.multiplier, pt.p99_response_micros
        ));
    }
    if ut.p99_response_micros < 4 * deadline(base) {
        failures.push(format!(
            "sweep x{}: unprotected p99 {} us never degraded — overload not reached",
            ut.multiplier, ut.p99_response_micros
        ));
    }
}
