//! Run metrics: response-time percentiles, resource utilizations, and
//! the queueing-delay vs service-time breakdown per service center.

use crate::units::{as_secs, Time};
use scs_telemetry::{Histogram, SloSpec, TimeSeries};

/// Queueing-delay and service-time distributions at one service center
/// (times in µs). The wait histogram is the congestion signal: at a
/// saturated center it grows without bound while service times stay flat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CenterTelemetry {
    /// Time jobs spent queued before service started.
    pub wait: Histogram,
    /// Time jobs spent in service.
    pub service: Histogram,
}

/// Measurements from one simulation run (the measurement window only —
/// warmup excluded).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Response time of each completed request, finish-time order.
    pub response_times: Vec<Time>,
    /// Operations executed (queries + updates), including warmup.
    pub ops_executed: u64,
    /// Requests completed in the measurement window.
    pub requests_completed: usize,
    /// Requests *offered* in the measurement window — started (or
    /// presented for admission), whether or not they were admitted or
    /// finished. Under overload protection this exceeds
    /// `requests_completed`; the gap is shed plus still-in-flight load.
    pub requests_offered: usize,
    /// Requests turned away by admission control / bounded queues in the
    /// window (0 for unprotected runs — netsim itself never sheds; the
    /// overload harness fills this in).
    pub requests_shed: usize,
    /// Simulated users.
    pub users: usize,
    /// Measurement-window length.
    pub window: Time,
    /// DSSP CPU utilization over the window. With a multi-node DSSP
    /// tier ([`crate::sim::SystemSpec::dssp_nodes`] > 1) this is the
    /// busiest *live* node's utilization — a replica that left an
    /// elastic fleet mid-run keeps its series slot below but is
    /// excluded here.
    pub dssp_utilization: f64,
    /// Per-node DSSP CPU utilization, indexed by **stable replica id**
    /// (ids are never reused, so the series is append-only). For a
    /// static fleet that is `dssp_nodes` dense entries (a single entry
    /// for classic runs); an elastic fleet grows the vector as joiners
    /// take ids past the initial count, and a departed replica's slot
    /// stays — its utilization simply freezes once it stops serving.
    pub dssp_node_utilization: Vec<f64>,
    /// Home-server CPU utilization over the window.
    pub home_utilization: f64,
    /// Per-shard home-tier utilization, indexed by shard id (one entry
    /// for a classic single home; `home_utilization` is the max).
    pub home_shard_utilization: Vec<f64>,
    /// Home-link (downstream, results) utilization over the window.
    pub home_link_utilization: f64,
    /// Cache hit rate observed by the workload (filled in by the driver;
    /// 0 when unknown).
    pub hit_rate: f64,
    /// Wait/service breakdown at the DSSP CPU (whole run incl. warmup).
    pub dssp_cpu_telemetry: CenterTelemetry,
    /// Wait/service breakdown at the home-server CPU.
    pub home_cpu_telemetry: CenterTelemetry,
    /// Wait/service breakdown at the home link (downstream, results).
    pub home_link_telemetry: CenterTelemetry,
    /// Request response times as a mergeable histogram (µs; measurement
    /// window only, same population as `response_times`).
    pub response_hist: Histogram,
    /// Sim-time windowed curves (`requests` / `response_us` within the
    /// measurement window, `ops` across the whole run), present when the
    /// run was driven through [`crate::sim::run_observed`] with a bucket
    /// width.
    pub timeseries: Option<TimeSeries>,
}

impl RunMetrics {
    /// The `q`-quantile response time (nearest-rank); `None` when no
    /// requests completed.
    pub fn percentile(&self, q: f64) -> Option<Time> {
        if self.response_times.is_empty() {
            return None;
        }
        let mut sorted = self.response_times.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Mean response time in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        if self.response_times.is_empty() {
            return f64::INFINITY;
        }
        let total: u128 = self.response_times.iter().map(|t| *t as u128).sum();
        as_secs((total / self.response_times.len() as u128) as Time)
    }

    /// Request throughput over the window (requests/second).
    pub fn throughput(&self) -> f64 {
        if self.window == 0 {
            return 0.0;
        }
        self.requests_completed as f64 / as_secs(self.window)
    }

    /// Offered load over the window (requests/second) — what arrived,
    /// not what finished. Falls back to the completion rate when the
    /// driver did not record offers (legacy runs).
    pub fn offered_rate(&self) -> f64 {
        if self.window == 0 {
            return 0.0;
        }
        self.requests_offered.max(self.requests_completed) as f64 / as_secs(self.window)
    }

    /// *Goodput*: completions that met `deadline`, per second. This is
    /// the quantity overload protection must keep flat past the knee —
    /// raw throughput can stay high while every response is uselessly
    /// late.
    pub fn goodput(&self, deadline: Time) -> f64 {
        if self.window == 0 {
            return 0.0;
        }
        let timely = self
            .response_times
            .iter()
            .filter(|rt| **rt <= deadline)
            .count();
        timely as f64 / as_secs(self.window)
    }

    /// Fraction of offered requests shed (0 when nothing was offered).
    pub fn shed_ratio(&self) -> f64 {
        let offered = self.requests_offered.max(self.requests_completed);
        if offered == 0 {
            return 0.0;
        }
        self.requests_shed as f64 / offered as f64
    }
}

/// The paper's scalability criterion (§5.2): response time below the limit
/// for the given fraction of requests, with a completion floor so that a
/// totally collapsed system (few requests finish at all) also fails.
#[derive(Debug, Clone, Copy)]
pub struct Sla {
    /// Response-time quantile that must meet the limit (paper: 0.90).
    pub quantile: f64,
    /// The response-time limit (paper: 2 seconds).
    pub limit: Time,
    /// Minimum completed requests per user in the window (guards against
    /// vacuously passing when almost nothing completes).
    pub min_requests_per_user: f64,
}

impl Sla {
    /// The paper's setting: 90% of requests under 2 seconds.
    pub fn paper() -> Sla {
        Sla {
            quantile: 0.90,
            limit: 2 * crate::units::SEC,
            min_requests_per_user: 1.0,
        }
    }

    /// The windowed (burn-rate-style) sharpening of this SLA: the same
    /// quantile/limit pair, but required to hold over *any*
    /// `window_count` consecutive time-series buckets of the
    /// `response_us` histogram — a transient collapse that the whole-run
    /// percentile would absorb fails this objective.
    pub fn response_slo(&self, window_count: usize) -> SloSpec {
        SloSpec::quantile_at_most(
            &format!(
                "p{:.0}_response_le_{}s_windowed",
                self.quantile * 100.0,
                self.limit / crate::units::SEC
            ),
            "response_us",
            self.quantile,
            self.limit,
            window_count,
        )
    }

    /// Whether a run satisfies the SLA.
    pub fn met_by(&self, m: &RunMetrics) -> bool {
        let floor = (self.min_requests_per_user * m.users as f64).ceil() as usize;
        if m.requests_completed < floor.max(1) {
            return false;
        }
        match m.percentile(self.quantile) {
            Some(p) => p <= self.limit,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SEC;

    fn metrics(times: Vec<Time>, users: usize) -> RunMetrics {
        RunMetrics {
            requests_completed: times.len(),
            response_times: times,
            users,
            window: 60 * SEC,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let m = metrics((1..=10).map(|i| i * SEC).collect(), 1);
        assert_eq!(m.percentile(0.9), Some(9 * SEC));
        assert_eq!(m.percentile(0.5), Some(5 * SEC));
        assert_eq!(m.percentile(1.0), Some(10 * SEC));
        assert_eq!(metrics(vec![], 1).percentile(0.9), None);
    }

    #[test]
    fn sla_pass_and_fail() {
        let sla = Sla::paper();
        let good = metrics(vec![SEC; 100], 10);
        assert!(sla.met_by(&good));
        let slow = metrics(vec![3 * SEC; 100], 10);
        assert!(!sla.met_by(&slow));
        // 9 fast + 1 slow of 10: the 90th percentile is the 9th value.
        let mut mixed = vec![SEC; 9];
        mixed.push(10 * SEC);
        assert!(sla.met_by(&metrics(mixed, 5)));
    }

    #[test]
    fn sla_completion_floor() {
        let sla = Sla::paper();
        // 100 users but only 3 requests finished: collapsed.
        let collapsed = metrics(vec![SEC; 3], 100);
        assert!(!sla.met_by(&collapsed));
    }

    #[test]
    fn throughput() {
        let m = metrics(vec![SEC; 120], 10);
        assert!((m.throughput() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_counts_only_timely_completions() {
        // 60 fast + 60 late completions over a 60 s window.
        let mut times = vec![SEC; 60];
        times.extend(vec![5 * SEC; 60]);
        let mut m = metrics(times, 10);
        m.requests_offered = 180;
        m.requests_shed = 60;
        assert!((m.throughput() - 2.0).abs() < 1e-9);
        assert!(
            (m.goodput(2 * SEC) - 1.0).abs() < 1e-9,
            "late ones excluded"
        );
        assert!((m.offered_rate() - 3.0).abs() < 1e-9);
        assert!((m.shed_ratio() - 60.0 / 180.0).abs() < 1e-9);
    }

    #[test]
    fn offered_rate_falls_back_to_completions() {
        // Legacy runs never fill requests_offered; the offered rate must
        // not read as zero there.
        let m = metrics(vec![SEC; 120], 10);
        assert_eq!(m.requests_offered, 0);
        assert!((m.offered_rate() - m.throughput()).abs() < 1e-9);
        assert_eq!(m.shed_ratio(), 0.0);
        assert_eq!(RunMetrics::default().offered_rate(), 0.0);
        assert_eq!(RunMetrics::default().goodput(SEC), 0.0);
    }

    #[test]
    fn empty_run_rates_stay_finite() {
        // A default-constructed run (zero window, zero completions) is
        // what an all-outage chaos window produces: every rate must come
        // back 0, not NaN or a divide-by-zero panic.
        let empty = RunMetrics::default();
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.percentile(0.99), None);
        assert!(!Sla::paper().met_by(&empty));
        // A window with no completions still has a defined throughput.
        let idle = metrics(vec![], 10);
        assert_eq!(idle.throughput(), 0.0);
        // mean_response_secs is deliberately infinite on empty runs (the
        // scalability search treats "nothing finished" as unusable), and
        // the JSON layer renders non-finite as null.
        assert!(empty.mean_response_secs().is_infinite());
    }

    #[test]
    fn response_slo_mirrors_sla_on_windowed_data() {
        use scs_telemetry::TimeSeries;
        let sla = Sla::paper();
        let slo = sla.response_slo(2);
        let mut ts = TimeSeries::new(SEC);
        for w in 0..4u64 {
            for _ in 0..50 {
                ts.observe(w * SEC, "response_us", SEC / 2);
            }
        }
        assert!(slo.evaluate(&ts).passed);
        // One collapsed window (p90 >> 2s there) fails the windowed
        // objective even though the whole-run p90 (20 slow of 220
        // samples, under the 10% budget) would still pass.
        for _ in 0..20 {
            ts.observe(2 * SEC, "response_us", 10 * SEC);
        }
        let r = slo.evaluate(&ts);
        assert!(!r.passed, "{}", r.detail);
        let merged = ts.merged_hist("response_us");
        let (_, hi) = merged.quantile_bounds(sla.quantile).unwrap();
        assert!(hi <= sla.limit, "whole-run p90 still under the limit");
    }
}
