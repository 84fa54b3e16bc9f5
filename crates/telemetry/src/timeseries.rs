//! Sim-time windowed recorder: fixed-width buckets over `at_micros`,
//! each holding named counter deltas and mergeable histogram snapshots.
//!
//! A [`TimeSeries`] turns end-of-run aggregates into *curves*: the
//! simulator records per-window request completions and response-time
//! samples, the proxy's trace stream buckets hit/miss/fault events via a
//! [`TimeSeriesSink`], and the chaos harness records serve/availability
//! outcomes — so a link outage shows up as a visible dip-and-recovery
//! rather than a smeared total. Windows are dense from `t = 0`
//! (`window i` covers `[i·width, (i+1)·width)`), which keeps merging two
//! series trivially positional.
//!
//! The structural invariant the property tests pin down: summing a
//! counter over all windows equals the whole-run total, and merging all
//! per-window histogram snapshots equals the histogram of the whole run.

use crate::hist::Histogram;
use crate::json::Json;
use crate::trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A shared handle to a series filled concurrently by a
/// [`TimeSeriesSink`] while the owner keeps reading it afterwards.
pub type SharedTimeSeries = Arc<Mutex<TimeSeries>>;

/// One bucket of the series: counter deltas and histogram samples whose
/// `at_micros` fell inside `[start_micros, start_micros + width)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub start_micros: u64,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Histogram>,
}

impl Window {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }
}

/// Fixed-width windowed recorder over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    width_micros: u64,
    windows: Vec<Window>,
}

impl TimeSeries {
    pub fn new(width_micros: u64) -> TimeSeries {
        assert!(width_micros > 0, "window width must be positive");
        TimeSeries {
            width_micros,
            windows: Vec::new(),
        }
    }

    pub fn width_micros(&self) -> u64 {
        self.width_micros
    }

    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn window_mut(&mut self, at_micros: u64) -> &mut Window {
        let idx = (at_micros / self.width_micros) as usize;
        while self.windows.len() <= idx {
            let start = self.windows.len() as u64 * self.width_micros;
            self.windows.push(Window {
                start_micros: start,
                ..Window::default()
            });
        }
        &mut self.windows[idx]
    }

    /// Adds `delta` to counter `name` in the window containing
    /// `at_micros`.
    pub fn add(&mut self, at_micros: u64, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let w = self.window_mut(at_micros);
        *w.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// `add(at, name, 1)`.
    pub fn incr(&mut self, at_micros: u64, name: &str) {
        self.add(at_micros, name, 1);
    }

    /// Records a histogram sample into the window containing `at_micros`.
    pub fn observe(&mut self, at_micros: u64, name: &str, value: u64) {
        self.window_mut(at_micros)
            .hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Whole-run total of counter `name` (sums the window deltas).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.windows.iter().map(|w| w.counter(name)).sum()
    }

    /// Per-window values of counter `name`, in window order.
    pub fn counter_curve(&self, name: &str) -> Vec<u64> {
        self.windows.iter().map(|w| w.counter(name)).collect()
    }

    /// Whole-run histogram of `name` (merges the window snapshots).
    pub fn merged_hist(&self, name: &str) -> Histogram {
        let mut out = Histogram::default();
        for w in &self.windows {
            if let Some(h) = w.hists.get(name) {
                out.merge(h);
            }
        }
        out
    }

    /// Positional merge of `other` into `self` (same window width
    /// required): counters add, histograms merge.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.width_micros, other.width_micros,
            "cannot merge series with different window widths"
        );
        for (idx, w) in other.windows.iter().enumerate() {
            let dst = self.window_mut(idx as u64 * self.width_micros);
            for (name, &n) in &w.counters {
                *dst.counters.entry(name.clone()).or_insert(0) += n;
            }
            for (name, h) in &w.hists {
                dst.hists.entry(name.clone()).or_default().merge(h);
            }
        }
    }

    /// Full-fidelity JSON, round-trippable through
    /// [`TimeSeries::from_json`].
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|w| {
                let counters: Vec<(String, Json)> = w
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::from(v)))
                    .collect();
                let hists: Vec<(String, Json)> = w
                    .hists
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect();
                Json::Obj(vec![
                    ("start_us".to_string(), w.start_micros.into()),
                    ("counters".to_string(), Json::Obj(counters)),
                    ("hists".to_string(), Json::Obj(hists)),
                ])
            })
            .collect();
        Json::obj([
            ("width_us", self.width_micros.into()),
            ("windows", Json::from(windows)),
        ])
    }

    /// Parses the [`TimeSeries::to_json`] representation.
    pub fn from_json(doc: &Json) -> Option<TimeSeries> {
        let width = doc.get("width_us")?.as_u64()?;
        if width == 0 {
            return None;
        }
        let mut series = TimeSeries::new(width);
        for w in doc.get("windows")?.as_arr()? {
            let start = w.get("start_us")?.as_u64()?;
            let idx = (start / width) as usize;
            while series.windows.len() <= idx {
                let s = series.windows.len() as u64 * width;
                series.windows.push(Window {
                    start_micros: s,
                    ..Window::default()
                });
            }
            let dst = &mut series.windows[idx];
            if let Some(Json::Obj(fields)) = w.get("counters") {
                for (name, v) in fields {
                    dst.counters.insert(name.clone(), v.as_u64()?);
                }
            }
            if let Some(Json::Obj(fields)) = w.get("hists") {
                for (name, v) in fields {
                    dst.hists.insert(name.clone(), Histogram::from_json(v)?);
                }
            }
        }
        Some(series)
    }
}

/// Guarded ratio: 0 when the denominator is 0 (empty windows are routine
/// in chaos runs — an outage window may complete nothing at all).
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// A [`TraceSink`] that buckets every trace event into a shared
/// [`TimeSeries`] by event name — attach it to a `Tracer` and the
/// proxy's hit/miss/invalidation/fault stream becomes per-window curves
/// with no extra call sites.
pub struct TimeSeriesSink {
    series: SharedTimeSeries,
}

impl TimeSeriesSink {
    /// Creates the sink plus the shared handle the owner keeps.
    pub fn new(width_micros: u64) -> (TimeSeriesSink, SharedTimeSeries) {
        let series = Arc::new(Mutex::new(TimeSeries::new(width_micros)));
        (
            TimeSeriesSink {
                series: Arc::clone(&series),
            },
            series,
        )
    }

    /// A sink feeding an existing shared series (e.g. one series merged
    /// across several proxies).
    pub fn for_series(series: SharedTimeSeries) -> TimeSeriesSink {
        TimeSeriesSink { series }
    }
}

impl TraceSink for TimeSeriesSink {
    /// The sink only adds counts, so a series poisoned by a panic
    /// elsewhere is still one to count into: the serving path that emits
    /// the event must not panic in turn.
    fn record(&mut self, event: &TraceEvent) {
        let mut series = self.series.lock().unwrap_or_else(PoisonError::into_inner);
        series.incr(event.at_micros, event.kind.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEventKind, Tracer};

    #[test]
    fn counters_land_in_their_windows() {
        let mut ts = TimeSeries::new(100);
        ts.incr(0, "x");
        ts.incr(99, "x");
        ts.incr(100, "x");
        ts.add(350, "x", 4);
        assert_eq!(ts.counter_curve("x"), vec![2, 1, 0, 4]);
        assert_eq!(ts.counter_total("x"), 7);
        assert_eq!(ts.windows()[3].start_micros, 300);
        assert_eq!(ts.counter_total("missing"), 0);
    }

    #[test]
    fn windowed_hist_merge_equals_whole_run() {
        let mut ts = TimeSeries::new(1_000);
        let mut whole = Histogram::default();
        for (at, v) in [(0u64, 5u64), (500, 900), (1_500, 5), (9_999, 1 << 30)] {
            ts.observe(at, "lat", v);
            whole.record(v);
        }
        assert_eq!(ts.merged_hist("lat"), whole);
        assert_eq!(ts.merged_hist("lat").count, 4);
    }

    #[test]
    fn merge_is_positional_and_additive() {
        let mut a = TimeSeries::new(10);
        a.incr(5, "n");
        a.observe(5, "h", 7);
        let mut b = TimeSeries::new(10);
        b.add(5, "n", 2);
        b.incr(25, "n");
        b.observe(25, "h", 9);
        a.merge(&b);
        assert_eq!(a.counter_curve("n"), vec![3, 0, 1]);
        let merged = a.merged_hist("h");
        assert_eq!(merged.count, 2);
        assert_eq!((merged.min, merged.max), (Some(7), Some(9)));
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(10);
        a.merge(&TimeSeries::new(20));
    }

    #[test]
    fn json_round_trips() {
        let mut ts = TimeSeries::new(250);
        ts.incr(0, "served");
        ts.add(600, "served", 3);
        ts.observe(600, "resp_us", 12_345);
        let back = TimeSeries::from_json(&ts.to_json()).unwrap();
        assert_eq!(back, ts);
        let reparsed = TimeSeries::from_json(&Json::parse(&ts.to_json().render()).unwrap());
        assert_eq!(reparsed.unwrap(), ts);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 2), 0.5);
    }

    #[test]
    fn sink_buckets_trace_events_by_name() {
        let (sink, series) = TimeSeriesSink::new(1_000);
        let mut tracer = Tracer::new();
        tracer.add_sink(Box::new(sink));
        let hit = TraceEventKind::QueryHit {
            query_template: 0,
            exposure: 3,
        };
        let miss = TraceEventKind::QueryMiss {
            query_template: 0,
            exposure: 3,
        };
        tracer.emit(100, hit);
        tracer.emit(150, miss);
        tracer.emit(1_100, hit);
        let series = series.lock().unwrap();
        assert_eq!(series.counter_curve("query_hit"), vec![1, 1]);
        assert_eq!(series.counter_total("query_miss"), 1);
    }
}
