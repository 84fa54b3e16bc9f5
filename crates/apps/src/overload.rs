//! Overload harness: drives the toystore application through the DSSP's
//! request pipeline with its overload gate on under scripted load spikes and measures what
//! the paper's knee looks like *past* the knee — offered load vs goodput.
//!
//! The model is deliberately small: an open-loop arrival process (the
//! chaos script replayed with a [`LoadProfile`] compressing inter-op
//! gaps), a single bounded [`ServiceCenter`] standing in for the home
//! server's CPU, and the proxy's admission/breaker/brownout machinery fed
//! the center's live queue state. A *completion* is timely when its
//! queueing delay plus retry backoff meets the deadline; **goodput** is
//! timely completions per second. An unprotected run (no
//! [`OverloadConfig`], unbounded queue) lets the backlog grow without
//! bound, so response times — and goodput — collapse past the knee; the
//! protected run sheds at arrival and keeps the goodput curve flat.
//!
//! Every served result is still checked against the chaos oracle:
//! degradation may *reject* work, but it must never serve a result stale
//! beyond the lease.

use crate::chaos::build_scenario;
use crate::tally::{tick, OpOutcome, ScriptOp, Tally};
use scs_dssp::{FtOutcome, FtUpdateOutcome, OverloadConfig, QueueState, RetryPolicy, StrategyKind};
use scs_netsim::{QueueCap, ServiceCenter, Time, MS, SEC};
use scs_telemetry::{LogHistogram, TimeSeries, TimeSeriesSink};

/// One piece of a scripted arrival-rate profile. Multipliers scale the
/// base arrival rate: 1.0 is the baseline, 4.0 packs four times the
/// arrivals into the same wall of sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadSegment {
    /// Constant multiplier over `[start, end)`.
    Step {
        start: Time,
        end: Time,
        multiplier: f64,
    },
    /// Linear interpolation from `from` to `to` over `[start, end)`.
    Ramp {
        start: Time,
        end: Time,
        from: f64,
        to: f64,
    },
}

/// A piecewise arrival-rate multiplier over sim time. Outside every
/// segment the multiplier is 1.0; where segments overlap, the last one
/// listed wins (so a profile can layer a spike on a ramp).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadProfile {
    pub segments: Vec<LoadSegment>,
}

impl LoadProfile {
    /// The baseline profile: multiplier 1.0 everywhere.
    pub fn flat() -> LoadProfile {
        LoadProfile::default()
    }

    /// A constant multiplier over the whole run.
    pub fn constant(multiplier: f64) -> LoadProfile {
        LoadProfile {
            segments: vec![LoadSegment::Step {
                start: 0,
                end: Time::MAX,
                multiplier,
            }],
        }
    }

    /// A step spike: `multiplier`× the base rate over `[start, end)`.
    pub fn spike(start: Time, end: Time, multiplier: f64) -> LoadProfile {
        LoadProfile {
            segments: vec![LoadSegment::Step {
                start,
                end,
                multiplier,
            }],
        }
    }

    /// The arrival-rate multiplier at instant `t`.
    pub fn multiplier_at(&self, t: Time) -> f64 {
        let mut m = 1.0;
        for seg in &self.segments {
            match *seg {
                LoadSegment::Step {
                    start,
                    end,
                    multiplier,
                } if start <= t && t < end => m = multiplier,
                LoadSegment::Ramp {
                    start,
                    end,
                    from,
                    to,
                } if start <= t && t < end => {
                    let frac = (t - start) as f64 / (end - start).max(1) as f64;
                    m = from + (to - from) * frac;
                }
                _ => {}
            }
        }
        m
    }
}

/// One overload scenario: arrivals, the home-queue model, the deadline,
/// and the protection (or its absence).
#[derive(Debug, Clone)]
pub struct OverloadRunConfig {
    pub seed: u64,
    pub ops: usize,
    /// Baseline inter-arrival gap (µs); the [`LoadProfile`] divides it.
    pub op_spacing_micros: Time,
    pub lease_micros: Option<u64>,
    pub strategy: StrategyKind,
    pub load: LoadProfile,
    /// A completion counts toward goodput only when its queueing delay
    /// plus retry backoff is at most this (µs).
    pub deadline_micros: Time,
    /// Home-server service demand per miss/update round trip (µs).
    pub home_service_micros: Time,
    /// Bound on the home service queue (the backstop behind admission).
    pub queue_cap: QueueCap,
    /// Admission/breaker/brownout settings; `None` = unprotected run.
    pub protection: Option<OverloadConfig>,
    pub retry: RetryPolicy,
    /// Scripted link outages, to exercise the breaker during the run.
    pub scripted_outages: Option<Vec<(Time, Time)>>,
    pub timeseries_bucket_micros: Option<Time>,
}

impl OverloadRunConfig {
    /// The acceptance scenario: a 4× step spike over `[1 s, 2 s)` on a
    /// system whose baseline runs well below the knee, plus one scripted
    /// link outage after the spike so the breaker's full
    /// open → half-open → close cycle lands in the exported curves.
    pub fn spike_demo(seed: u64) -> OverloadRunConfig {
        OverloadRunConfig {
            seed,
            ops: 6_000,
            op_spacing_micros: MS,
            lease_micros: Some(200 * MS),
            strategy: StrategyKind::ViewInspection,
            load: LoadProfile::spike(SEC, 2 * SEC, 4.0),
            deadline_micros: 25 * MS,
            home_service_micros: MS,
            queue_cap: QueueCap::max_wait(30 * MS),
            protection: Some({
                let mut p = OverloadConfig::default();
                p.admission.deadline_micros = 20 * MS;
                p.admission.service_estimate_micros = MS;
                p.breaker.failure_threshold = 3;
                p.breaker.open_micros = 150 * MS;
                p.brownout.window_micros = 100 * MS;
                p.brownout.shed_ratio_threshold = 0.5;
                p.brownout.min_offered = 20;
                p
            }),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_micros: 5 * MS,
                max_backoff_micros: 20 * MS,
                timeout_micros: 50 * MS,
                jitter: true,
            },
            scripted_outages: Some(vec![(2 * SEC + 400 * MS, 2 * SEC + 700 * MS)]),
            timeseries_bucket_micros: Some(100 * MS),
        }
    }

    /// A short flat-load run for goodput-curve sweeps (the per-point
    /// config; [`goodput_curve`] substitutes the multiplier). The lease
    /// is deliberately short so most queries miss: the home queue is
    /// then the binding resource and the curve shows the textbook
    /// saturation knee, instead of being averaged away by cache hits
    /// that cost nothing at any offered load.
    pub fn sweep_point(seed: u64) -> OverloadRunConfig {
        OverloadRunConfig {
            ops: 2_500,
            lease_micros: Some(5 * MS),
            load: LoadProfile::flat(),
            scripted_outages: None,
            timeseries_bucket_micros: None,
            ..OverloadRunConfig::spike_demo(seed)
        }
    }

    /// Strips all protection: no admission, no breaker, no brownout, and
    /// an unbounded home queue. The baseline the goodput curve collapses
    /// against.
    pub fn unprotected(mut self) -> OverloadRunConfig {
        self.protection = None;
        self.queue_cap = QueueCap::unbounded();
        self
    }
}

/// The proxy's overload counters, read back from its registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadCounters {
    pub shed_admission: u64,
    pub shed_breaker_open: u64,
    pub shed_brownout: u64,
    pub shed_queue_full: u64,
    pub breaker_opens: u64,
    pub breaker_half_opens: u64,
    pub breaker_closes: u64,
    pub brownout_entries: u64,
    pub brownout_exits: u64,
    pub brownout_serves: u64,
    pub home_retries: u64,
    pub home_unavailable: u64,
}

impl OverloadCounters {
    pub fn from_dssp(dssp: &scs_dssp::Dssp) -> OverloadCounters {
        let reg = dssp.registry();
        OverloadCounters {
            shed_admission: reg.counter_value("dssp.shed_admission"),
            shed_breaker_open: reg.counter_value("dssp.shed_breaker_open"),
            shed_brownout: reg.counter_value("dssp.shed_brownout"),
            shed_queue_full: reg.counter_value("dssp.shed_queue_full"),
            breaker_opens: reg.counter_value("dssp.breaker_opens"),
            breaker_half_opens: reg.counter_value("dssp.breaker_half_opens"),
            breaker_closes: reg.counter_value("dssp.breaker_closes"),
            brownout_entries: reg.counter_value("dssp.brownout_entries"),
            brownout_exits: reg.counter_value("dssp.brownout_exits"),
            brownout_serves: reg.counter_value("dssp.brownout_serves"),
            home_retries: reg.counter_value("dssp.home_retries"),
            home_unavailable: reg.counter_value("dssp.home_unavailable"),
        }
    }

    /// Requests turned away before costing the home tier anything.
    pub fn shed_total(&self) -> u64 {
        self.shed_admission + self.shed_breaker_open + self.shed_brownout + self.shed_queue_full
    }
}

/// What an overload run observed.
#[derive(Debug, Clone, Default)]
pub struct OverloadReport {
    /// Operations offered (the whole script).
    pub offered: u64,
    /// Operations that completed: queries served (hits included) plus
    /// updates applied.
    pub completed: u64,
    /// Completions (queries + updates) whose delay met the deadline.
    pub timely: u64,
    pub hits: u64,
    pub degraded_serves: u64,
    /// Requests shed by protection (admission/breaker/brownout/queue).
    pub shed: u64,
    /// Queries admitted but failed through every retry (link down).
    pub unavailable: u64,
    /// Completions that missed the deadline (counted, not dropped).
    pub deadline_missed: u64,
    pub updates_applied: u64,
    pub updates_rejected: u64,
    pub updates_unavailable: u64,
    /// Served results matching no master state within the lease window —
    /// must stay zero under any overload whatsoever.
    pub stale_beyond_lease: u64,
    pub max_observed_staleness_micros: u64,
    /// p99 wait in the home queue (µs), over admitted home trips.
    pub queue_wait_p99_micros: u64,
    /// p99 end-to-end delay (µs): queue wait + service + retry backoff.
    pub response_p99_micros: u64,
    /// Rejections at the bounded home queue itself.
    pub queue_rejections: u64,
    /// Final arrival instant (µs) — the goodput denominator.
    pub duration_micros: Time,
    pub counters: OverloadCounters,
    /// Present when `timeseries_bucket_micros` was set: harness counters
    /// (`offered`, `completed`, `timely`, `deadline_missed`) merged with
    /// the proxy's own trace curves (`request_shed`, `breaker_open`,
    /// `breaker_half_open`, `breaker_close`, `brownout_enter`,
    /// `brownout_exit`, `degraded_serve`, …), plus `queue_wait_us` and
    /// `response_us` histograms per window.
    pub timeseries: Option<TimeSeries>,
}

impl OverloadReport {
    fn duration_secs(&self) -> f64 {
        (self.duration_micros.max(1)) as f64 / 1_000_000.0
    }

    /// Offered operations per second of sim time.
    pub fn offered_rps(&self) -> f64 {
        self.offered as f64 / self.duration_secs()
    }

    /// Timely completions per second — the quantity that must stay flat
    /// past the knee.
    pub fn goodput_rps(&self) -> f64 {
        self.timely as f64 / self.duration_secs()
    }

    /// Shed operations as a fraction of offered.
    pub fn shed_ratio(&self) -> f64 {
        scs_telemetry::ratio(self.shed, self.offered)
    }
}

/// Advances the arrival clock by one op: the base spacing divided by the
/// load profile's multiplier at the previous instant (open-loop
/// arrivals), floored at 1 µs so a spike can never stall the clock. At
/// multiplier 1 the step is exactly `spacing`.
fn next_arrival(load: &LoadProfile, spacing: Time, clock: Time) -> Time {
    let mult = load.multiplier_at(clock);
    let step = if mult == 1.0 {
        spacing
    } else {
        (spacing as f64 / mult.max(1e-9)).round() as Time
    };
    clock + step.max(1)
}

/// Runs one overload scenario.
///
/// Modeling notes: only operations that actually take a home round trip
/// (query misses, applied updates) occupy the bounded service center; a
/// fresh cache hit completes immediately. A *read* rejected by the
/// bounded queue is simply discarded (reads are side-effect-free), and
/// the rejection is fed back to the proxy via
/// [`scs_dssp::Dssp::record_queue_rejection`] so the brownout shed-ratio
/// sees it; admitted *updates* always serve (the master already applied
/// them — the admission gate, not the queue bound, is what protects
/// their latency). Invalidations are delivered perfectly: this harness
/// isolates overload from delivery faults, which `chaos.rs` owns.
pub fn run_overload(cfg: &OverloadRunConfig) -> OverloadReport {
    let mut sc = build_scenario(
        cfg.seed,
        cfg.ops,
        cfg.strategy,
        cfg.lease_micros,
        cfg.protection,
    );
    let link = match &cfg.scripted_outages {
        Some(windows) => scs_dssp::HomeLink::with_outages(windows.clone()),
        None => scs_dssp::HomeLink::reliable(),
    };
    let mut center = ServiceCenter::bounded(1, cfg.queue_cap);
    // Hit, degraded-serve and served curves come from the proxy's own
    // trace stream (below), so the tally draws only the rest.
    let mut tally = Tally::new(
        sc.home.database().clone(),
        cfg.lease_micros,
        cfg.timeseries_bucket_micros,
        &[
            "query_unavailable",
            "update_applied",
            "update_unavailable",
            "update_rejected",
            "stale_beyond_lease",
        ],
    );
    // The proxy's trace stream (shed/breaker/brownout events) lands in a
    // shared series merged into the report at the end.
    let proxy_series = cfg.timeseries_bucket_micros.map(|w| {
        let (sink, shared) = TimeSeriesSink::new(w);
        sc.dssp.add_trace_sink(Box::new(sink));
        shared
    });
    let wait_hist = LogHistogram::new();
    let response_hist = LogHistogram::new();
    let mut report = OverloadReport::default();
    // A completion — a served query or an applied update — `delay` µs
    // after its arrival: timely when it met the deadline.
    let complete =
        |report: &mut OverloadReport, series: &mut Option<TimeSeries>, now: Time, delay: Time| {
            response_hist.record(delay);
            tick(series, now, "completed");
            if delay <= cfg.deadline_micros {
                report.timely += 1;
                tick(series, now, "timely");
            } else {
                report.deadline_missed += 1;
                tick(series, now, "deadline_missed");
            }
        };

    let mut clock: Time = 0;
    for op in &sc.script {
        clock = next_arrival(&cfg.load, cfg.op_spacing_micros, clock);
        let now = clock;
        sc.dssp.set_sim_time_micros(now);
        report.offered += 1;
        tick(&mut tally.series, now, "offered");
        let queue = QueueState {
            projected_wait_micros: center.projected_wait(now),
            depth: center.in_system(now),
        };
        let outcome = match op {
            ScriptOp::Query(q) => {
                let resp = sc
                    .dssp
                    .execute_query_ft(q, &mut sc.home, &link, &cfg.retry, Some(&queue))
                    .expect("toystore queries never error");
                if let FtOutcome::Served { hit, .. } = resp.outcome {
                    let delay = if hit {
                        // Answered from the proxy's cache: no home
                        // queue, only whatever backoff retries cost.
                        resp.backoff_micros
                    } else {
                        match center.try_serve(now, cfg.home_service_micros) {
                            Ok(done) => {
                                wait_hist
                                    .record(done.saturating_sub(now + cfg.home_service_micros));
                                done.saturating_sub(now) + resp.backoff_micros
                            }
                            Err(_) => {
                                // The backstop queue bound tripped; the
                                // read is discarded and the shed feeds
                                // the brownout signal.
                                sc.dssp.record_queue_rejection(q.template_id as u32);
                                continue;
                            }
                        }
                    };
                    complete(&mut report, &mut tally.series, now, delay);
                    // The exported per-window response curve is the
                    // reads'; `response_p99_micros` covers both.
                    if let Some(ts) = tally.series.as_mut() {
                        ts.observe(now, "response_us", delay);
                    }
                }
                OpOutcome::of_query(resp.outcome)
            }
            ScriptOp::Update(u) => {
                let resp =
                    sc.dssp
                        .execute_update_ft(u, &mut sc.home, &link, &cfg.retry, Some(&queue));
                let outcome = OpOutcome::of_update(&resp);
                if let Ok(resp) = resp {
                    if let FtUpdateOutcome::Applied { msg, .. } = resp.outcome {
                        let done = center.serve(now, cfg.home_service_micros);
                        wait_hist.record(done.saturating_sub(now + cfg.home_service_micros));
                        let delay = done.saturating_sub(now) + resp.backoff_micros;
                        complete(&mut report, &mut tally.series, now, delay);
                        tally.master_changed(now, sc.home.database().clone());
                        // Perfect (instant, lossless) delivery: overload
                        // is isolated from delivery faults, which
                        // `chaos.rs` owns.
                        sc.dssp.apply_invalidation(&msg);
                    }
                }
                outcome
            }
        };
        tally.record(now, op, &outcome);
    }

    report.duration_micros = clock;
    report.queue_rejections = center.rejections();
    report.queue_wait_p99_micros = wait_hist.quantile_bounds(0.99).map_or(0, |(_, hi)| hi);
    report.response_p99_micros = response_hist.quantile_bounds(0.99).map_or(0, |(_, hi)| hi);
    report.counters = OverloadCounters::from_dssp(&sc.dssp);
    report.completed = tally.queries_served + tally.updates_applied;
    report.hits = tally.hits;
    report.degraded_serves = tally.degraded_serves;
    // Every rejection at the bounded queue was a read shed by the
    // harness (admitted updates always serve).
    report.shed = tally.shed + report.queue_rejections;
    report.unavailable = tally.queries_unavailable;
    report.updates_applied = tally.updates_applied;
    report.updates_rejected = tally.updates_rejected;
    report.updates_unavailable = tally.updates_unavailable;
    report.stale_beyond_lease = tally.stale_beyond_lease;
    report.max_observed_staleness_micros = tally.max_observed_staleness_micros;
    if let Some(mut ts) = tally.series {
        if let Some(shared) = proxy_series {
            let proxy = shared.lock().expect("proxy series poisoned");
            ts.merge(&proxy);
        }
        report.timeseries = Some(ts);
    }
    report
}

/// One point on the offered-load vs goodput curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    pub multiplier: f64,
    pub offered_rps: f64,
    pub goodput_rps: f64,
    pub shed_ratio: f64,
    pub p99_response_micros: u64,
    pub stale_beyond_lease: u64,
}

/// Sweeps constant-rate runs over `multipliers` (each relative to
/// `base`'s spacing) and returns the goodput curve. The knee is where
/// goodput peaks; a healthy protected system holds near it afterwards,
/// an unprotected one collapses.
pub fn goodput_curve(base: &OverloadRunConfig, multipliers: &[f64]) -> Vec<CurvePoint> {
    multipliers
        .iter()
        .map(|&m| {
            let mut cfg = base.clone();
            cfg.load = LoadProfile::constant(m);
            cfg.timeseries_bucket_micros = None;
            let r = run_overload(&cfg);
            CurvePoint {
                multiplier: m,
                offered_rps: r.offered_rps(),
                goodput_rps: r.goodput_rps(),
                shed_ratio: r.shed_ratio(),
                p99_response_micros: r.response_p99_micros,
                stale_beyond_lease: r.stale_beyond_lease,
            }
        })
        .collect()
}

/// Index of the knee: the point of maximum goodput.
pub fn knee_index(curve: &[CurvePoint]) -> usize {
    let mut best = 0;
    for (i, p) in curve.iter().enumerate() {
        if p.goodput_rps > curve[best].goodput_rps {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_is_identity() {
        let p = LoadProfile::flat();
        for t in [0, 1, SEC, 100 * SEC] {
            assert_eq!(p.multiplier_at(t), 1.0);
        }
    }

    #[test]
    fn step_and_ramp_segments_compose() {
        let p = LoadProfile {
            segments: vec![
                LoadSegment::Ramp {
                    start: 0,
                    end: 1_000,
                    from: 1.0,
                    to: 3.0,
                },
                LoadSegment::Step {
                    start: 500,
                    end: 800,
                    multiplier: 4.0,
                },
            ],
        };
        assert_eq!(p.multiplier_at(0), 1.0);
        assert!((p.multiplier_at(500) - 4.0).abs() < 1e-9); // later segment wins
        assert!((p.multiplier_at(900) - (1.0 + 2.0 * 0.9)).abs() < 1e-9);
        assert_eq!(p.multiplier_at(1_000), 1.0); // end exclusive
    }

    #[test]
    fn spike_compresses_arrivals_inside_its_window() {
        let load = LoadProfile::spike(10 * MS, 20 * MS, 4.0);
        let mut clock = 0;
        let mut inside = 0;
        let mut outside = 0;
        for _ in 0..100 {
            clock = next_arrival(&load, MS, clock);
            if (10 * MS..20 * MS).contains(&clock) {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        // 4× the rate in a 10 ms window: ~40 arrivals land inside where
        // 10 would at baseline.
        assert!(inside >= 35, "spike window got {inside} arrivals");
        assert!(outside > 0);
    }

    #[test]
    fn a_flat_profile_replays_the_base_spacing() {
        let mut clock = 0;
        let arrivals: Vec<Time> = (0..10)
            .map(|_| {
                clock = next_arrival(&LoadProfile::flat(), MS, clock);
                clock
            })
            .collect();
        let expected: Vec<Time> = (1..=10).map(|i| i * MS).collect();
        assert_eq!(arrivals, expected);
    }

    #[test]
    fn spike_demo_sheds_but_never_serves_stale() {
        let report = run_overload(&OverloadRunConfig::spike_demo(42));
        assert!(report.shed > 0, "4× spike must shed something");
        assert_eq!(report.stale_beyond_lease, 0);
        assert!(report.completed > 0);
        assert!(report.timely > 0);
    }

    #[test]
    fn protection_beats_collapse_at_sustained_overload() {
        let seed = 7;
        let mut protected = OverloadRunConfig::sweep_point(seed);
        protected.load = LoadProfile::constant(4.0);
        let mut unprotected = OverloadRunConfig::sweep_point(seed).unprotected();
        unprotected.load = LoadProfile::constant(4.0);
        let p = run_overload(&protected);
        let u = run_overload(&unprotected);
        assert!(
            p.goodput_rps() >= u.goodput_rps(),
            "protected {} < unprotected {}",
            p.goodput_rps(),
            u.goodput_rps()
        );
        assert!(
            p.queue_wait_p99_micros <= protected.deadline_micros,
            "admission must bound the queue wait, got p99 {} µs",
            p.queue_wait_p99_micros
        );
    }

    #[test]
    fn overload_runs_replay_per_seed() {
        let a = run_overload(&OverloadRunConfig::spike_demo(9));
        let b = run_overload(&OverloadRunConfig::spike_demo(9));
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.timely, b.timely);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.counters, b.counters);
    }
}
