//! Declarative service-level objectives evaluated against a
//! [`TimeSeries`].
//!
//! An SLO here is a *windowed* check in the burn-rate style: instead of
//! asking "was whole-run p99 under the limit" (which lets a 10-second
//! outage hide inside a 10-minute run), each objective slides a group of
//! `window_count` consecutive buckets across the series and must hold in
//! **every** group — the worst group is what gets reported. This is the
//! temporal sharpening of `netsim::Sla`: the same quantile/limit pair,
//! but quantified over "any N-window span" rather than the run total.
//!
//! Objectives are data, not code, so the `observatory` binary can export
//! them next to their verdicts and the `regress` gate can diff verdicts
//! across runs without re-deriving thresholds.

use crate::json::Json;
use crate::timeseries::{ratio, TimeSeries, Window};

/// What a single objective asserts about the series.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// The `quantile` of histogram `hist`, merged over any
    /// `window_count` consecutive windows, stays ≤ `limit` (bucket upper
    /// bound is compared, so the check is conservative).
    QuantileAtMost {
        hist: String,
        quantile: f64,
        limit: u64,
        window_count: usize,
    },
    /// The whole-run total of `counter` stays ≤ `max_total` (e.g.
    /// "stale-beyond-lease == 0" is `max_total: 0`).
    CounterAtMost { counter: String, max_total: u64 },
    /// `numerator / denominator` over any `window_count` consecutive
    /// windows stays ≥ `min_ratio`; groups whose denominator sum is
    /// below `min_denominator` are skipped (too little traffic to
    /// judge).
    RatioAtLeast {
        numerator: String,
        denominator: String,
        min_ratio: f64,
        window_count: usize,
        min_denominator: u64,
    },
    /// `counter` accrues at ≥ `min_per_sec` over any `window_count`
    /// consecutive windows (a throughput floor).
    RateAtLeast {
        counter: String,
        min_per_sec: f64,
        window_count: usize,
    },
}

/// A named objective, ready to evaluate and export.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub name: String,
    pub objective: Objective,
}

impl SloSpec {
    pub fn quantile_at_most(
        name: &str,
        hist: &str,
        quantile: f64,
        limit: u64,
        window_count: usize,
    ) -> SloSpec {
        assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
        SloSpec {
            name: name.to_string(),
            objective: Objective::QuantileAtMost {
                hist: hist.to_string(),
                quantile,
                limit,
                window_count,
            },
        }
    }

    pub fn counter_at_most(name: &str, counter: &str, max_total: u64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::CounterAtMost {
                counter: counter.to_string(),
                max_total,
            },
        }
    }

    pub fn ratio_at_least(
        name: &str,
        numerator: &str,
        denominator: &str,
        min_ratio: f64,
        window_count: usize,
        min_denominator: u64,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::RatioAtLeast {
                numerator: numerator.to_string(),
                denominator: denominator.to_string(),
                min_ratio,
                window_count,
                min_denominator,
            },
        }
    }

    pub fn rate_at_least(
        name: &str,
        counter: &str,
        min_per_sec: f64,
        window_count: usize,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::RateAtLeast {
                counter: counter.to_string(),
                min_per_sec,
                window_count,
            },
        }
    }

    /// Evaluates the objective against `series`. A series with no
    /// qualifying data passes vacuously, with the reason in `detail` —
    /// callers who need "there must be traffic" should pair the latency
    /// SLO with a `rate_at_least` floor.
    pub fn evaluate(&self, series: &TimeSeries) -> SloResult {
        match &self.objective {
            Objective::QuantileAtMost {
                hist,
                quantile,
                limit,
                window_count,
            } => {
                // Worst group = largest quantile upper bound.
                let mut worst: Option<(u64, u64)> = None;
                for (start, group) in window_groups(series, *window_count) {
                    let mut merged = crate::hist::Histogram::default();
                    for w in group {
                        if let Some(h) = w.hist(hist) {
                            merged.merge(h);
                        }
                    }
                    if let Some((_, hi)) = merged.quantile_bounds(*quantile) {
                        if worst.is_none_or(|(b, _)| hi > b) {
                            worst = Some((hi, start));
                        }
                    }
                }
                match worst {
                    Some((hi, start)) => self.result(
                        hi <= *limit,
                        hi as f64,
                        *limit as f64,
                        Some(start),
                        format!(
                            "worst {}-window p{} ≤ {}µs (limit {}µs)",
                            window_count,
                            quantile * 100.0,
                            hi,
                            limit
                        ),
                    ),
                    None => self.vacuous(*limit as f64, format!("no '{hist}' samples")),
                }
            }
            Objective::CounterAtMost { counter, max_total } => {
                let total = series.counter_total(counter);
                let worst = series
                    .windows()
                    .iter()
                    .filter(|w| w.counter(counter) > 0)
                    .max_by_key(|w| w.counter(counter))
                    .map(|w| w.start_micros);
                self.result(
                    total <= *max_total,
                    total as f64,
                    *max_total as f64,
                    worst,
                    format!("total '{counter}' = {total} (max {max_total})"),
                )
            }
            Objective::RatioAtLeast {
                numerator,
                denominator,
                min_ratio,
                window_count,
                min_denominator,
            } => {
                let floor = (*min_denominator).max(1);
                let mut worst: Option<(f64, u64)> = None;
                for (start, group) in window_groups(series, *window_count) {
                    let num: u64 = group.iter().map(|w| w.counter(numerator)).sum();
                    let den: u64 = group.iter().map(|w| w.counter(denominator)).sum();
                    if den < floor {
                        continue;
                    }
                    let r = ratio(num, den);
                    if worst.is_none_or(|(b, _)| r < b) {
                        worst = Some((r, start));
                    }
                }
                match worst {
                    Some((r, start)) => self.result(
                        r >= *min_ratio,
                        r,
                        *min_ratio,
                        Some(start),
                        format!(
                            "worst {window_count}-window {numerator}/{denominator} = {r:.4} \
                             (min {min_ratio})"
                        ),
                    ),
                    None => self.vacuous(
                        *min_ratio,
                        format!("no group reached {floor} '{denominator}' events"),
                    ),
                }
            }
            Objective::RateAtLeast {
                counter,
                min_per_sec,
                window_count,
            } => {
                let mut worst: Option<(f64, u64)> = None;
                for (start, group) in window_groups(series, *window_count) {
                    let total: u64 = group.iter().map(|w| w.counter(counter)).sum();
                    let secs = group.len() as f64 * series.width_micros() as f64 / 1_000_000.0;
                    let rate = if secs > 0.0 { total as f64 / secs } else { 0.0 };
                    if worst.is_none_or(|(b, _)| rate < b) {
                        worst = Some((rate, start));
                    }
                }
                match worst {
                    Some((rate, start)) => self.result(
                        rate >= *min_per_sec,
                        rate,
                        *min_per_sec,
                        Some(start),
                        format!(
                            "worst {window_count}-window '{counter}' rate = {rate:.2}/s \
                             (min {min_per_sec}/s)"
                        ),
                    ),
                    None => self.vacuous(*min_per_sec, "empty series".to_string()),
                }
            }
        }
    }

    fn result(
        &self,
        passed: bool,
        observed: f64,
        threshold: f64,
        worst_window_start_micros: Option<u64>,
        detail: String,
    ) -> SloResult {
        SloResult {
            name: self.name.clone(),
            passed,
            observed,
            threshold,
            worst_window_start_micros,
            detail,
        }
    }

    fn vacuous(&self, threshold: f64, why: String) -> SloResult {
        SloResult {
            name: self.name.clone(),
            passed: true,
            observed: 0.0,
            threshold,
            worst_window_start_micros: None,
            detail: format!("vacuous pass: {why}"),
        }
    }
}

/// Sliding groups of `window_count` consecutive windows (clamped to the
/// series length so short runs still evaluate as one whole-run group),
/// each tagged with its first window's start time.
fn window_groups(series: &TimeSeries, window_count: usize) -> Vec<(u64, &[Window])> {
    let windows = series.windows();
    if windows.is_empty() {
        return Vec::new();
    }
    let size = window_count.clamp(1, windows.len());
    windows
        .windows(size)
        .map(|g| (g[0].start_micros, g))
        .collect()
}

/// Verdict for one objective: the worst qualifying window group and
/// whether it met the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SloResult {
    pub name: String,
    pub passed: bool,
    pub observed: f64,
    pub threshold: f64,
    pub worst_window_start_micros: Option<u64>,
    pub detail: String,
}

impl SloResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.as_str().into()),
            ("passed", self.passed.into()),
            ("observed", self.observed.into()),
            ("threshold", self.threshold.into()),
            (
                "worst_window_start_us",
                self.worst_window_start_micros.into(),
            ),
            ("detail", self.detail.as_str().into()),
        ])
    }

    /// Parses [`SloResult::to_json`] output (used by the `regress` gate
    /// to compare verdicts across exports).
    pub fn from_json(doc: &Json) -> Option<SloResult> {
        Some(SloResult {
            name: doc.get("name")?.as_str()?.to_string(),
            passed: doc.get("passed")?.as_bool()?,
            observed: doc.get("observed")?.as_f64().unwrap_or(0.0),
            threshold: doc.get("threshold")?.as_f64().unwrap_or(0.0),
            worst_window_start_micros: doc.get("worst_window_start_us").and_then(Json::as_u64),
            detail: doc.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// Evaluates every spec against the same series.
pub fn evaluate_all(specs: &[SloSpec], series: &TimeSeries) -> Vec<SloResult> {
    specs.iter().map(|s| s.evaluate(series)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with_latencies(groups: &[&[u64]]) -> TimeSeries {
        let mut ts = TimeSeries::new(1_000);
        for (i, vals) in groups.iter().enumerate() {
            for &v in *vals {
                ts.observe(i as u64 * 1_000, "lat", v);
                ts.incr(i as u64 * 1_000, "served");
            }
        }
        ts
    }

    #[test]
    fn quantile_slo_catches_one_bad_window() {
        let good: Vec<u64> = vec![100; 20];
        let bad: Vec<u64> = vec![100_000; 20];
        let ts = series_with_latencies(&[&good, &good, &bad, &good]);
        let spec = SloSpec::quantile_at_most("p99", "lat", 0.99, 10_000, 1);
        let r = spec.evaluate(&ts);
        assert!(!r.passed);
        assert_eq!(r.worst_window_start_micros, Some(2_000));
        assert!(r.observed >= 100_000.0);

        // Whole-run aggregate hides it once the window spans everything:
        // 20 of 80 samples bad keeps p50 tiny.
        let loose = SloSpec::quantile_at_most("p50-run", "lat", 0.50, 10_000, 10);
        assert!(loose.evaluate(&ts).passed);
    }

    #[test]
    fn counter_slo_is_exact() {
        let mut ts = TimeSeries::new(1_000);
        assert!(
            SloSpec::counter_at_most("stale", "stale", 0)
                .evaluate(&ts)
                .passed
        );
        ts.incr(5_500, "stale");
        let r = SloSpec::counter_at_most("stale", "stale", 0).evaluate(&ts);
        assert!(!r.passed);
        assert_eq!(r.observed, 1.0);
        assert_eq!(r.worst_window_start_micros, Some(5_000));
    }

    #[test]
    fn ratio_slo_skips_thin_windows() {
        let mut ts = TimeSeries::new(1_000);
        // Window 0: 90/100 hits. Window 1: 0/2 hits but under the
        // traffic floor, so it must not fail the objective.
        ts.add(0, "hits", 90);
        ts.add(0, "lookups", 100);
        ts.add(1_500, "lookups", 2);
        let spec = SloSpec::ratio_at_least("hit-rate", "hits", "lookups", 0.5, 1, 10);
        let r = spec.evaluate(&ts);
        assert!(r.passed, "{}", r.detail);
        assert!((r.observed - 0.9).abs() < 1e-9);

        let strict = SloSpec::ratio_at_least("hit-rate", "hits", "lookups", 0.5, 1, 1);
        assert!(!strict.evaluate(&strict_series()).passed);
    }

    fn strict_series() -> TimeSeries {
        let mut ts = TimeSeries::new(1_000);
        ts.add(0, "hits", 1);
        ts.add(0, "lookups", 10);
        ts
    }

    #[test]
    fn rate_slo_sees_throughput_dip() {
        let mut ts = TimeSeries::new(1_000_000);
        ts.add(0, "served", 500);
        ts.add(1_000_000, "served", 20); // outage window
        ts.add(2_000_000, "served", 500);
        let r = SloSpec::rate_at_least("floor", "served", 100.0, 1).evaluate(&ts);
        assert!(!r.passed);
        assert_eq!(r.worst_window_start_micros, Some(1_000_000));
        assert!((r.observed - 20.0).abs() < 1e-9);
        // Averaged over 3-window spans the dip is absorbed.
        assert!(
            SloSpec::rate_at_least("avg", "served", 100.0, 3)
                .evaluate(&ts)
                .passed
        );
    }

    #[test]
    fn empty_series_passes_vacuously() {
        let ts = TimeSeries::new(1_000);
        for spec in [
            SloSpec::quantile_at_most("q", "lat", 0.99, 1, 1),
            SloSpec::ratio_at_least("r", "a", "b", 0.9, 1, 1),
            SloSpec::rate_at_least("t", "c", 1.0, 1),
        ] {
            let r = spec.evaluate(&ts);
            assert!(r.passed);
            assert!(r.detail.starts_with("vacuous pass"), "{}", r.detail);
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = SloResult {
            name: "p99".to_string(),
            passed: false,
            observed: 123.5,
            threshold: 100.0,
            worst_window_start_micros: Some(9_000),
            detail: "worst window".to_string(),
        };
        let back = SloResult::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, r);
        let vacuous = SloResult {
            worst_window_start_micros: None,
            ..r
        };
        let back = SloResult::from_json(&vacuous.to_json()).unwrap();
        assert_eq!(back.worst_window_start_micros, None);
    }
}
