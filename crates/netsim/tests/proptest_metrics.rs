//! Property tests tying the three latency representations together:
//! the exact sorted-vector percentile ([`RunMetrics::percentile`]), the
//! log-bucket histogram ([`Histogram::quantile_bounds`]), and the
//! windowed time-series recorder whose per-window histograms must merge
//! back into the whole-run aggregate.

use proptest::prelude::*;
use scs_netsim::RunMetrics;
use scs_telemetry::{Histogram, TimeSeries};

proptest! {
    /// `RunMetrics::percentile` (nearest-rank on the raw vector) always
    /// lands inside the bucket bounds a `Histogram` of the same
    /// samples reports for the same quantile.
    #[test]
    fn percentile_agrees_with_histogram_within_bucket_error(
        times in proptest::collection::vec(0u64..30_000_000, 1..150),
    ) {
        let mut hist = Histogram::default();
        for &t in &times {
            hist.record(t);
        }
        let m = RunMetrics {
            requests_completed: times.len(),
            response_times: times,
            ..RunMetrics::default()
        };
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = m.percentile(q).expect("non-empty");
            let (lo, hi) = hist.quantile_bounds(q).expect("non-empty");
            prop_assert!(
                lo <= exact && exact <= hi,
                "q={q}: exact {exact} outside bucket [{lo}, {hi}]"
            );
        }
    }

    /// Splitting a sample stream into fixed-width windows loses nothing:
    /// counter totals and merged window histograms equal the whole-run
    /// aggregate regardless of how samples fall across window edges.
    #[test]
    fn windowed_merge_equals_whole_run(
        samples in proptest::collection::vec((0u64..500_000, 0u64..10_000_000), 0..200),
        width in 1_000u64..1_000_000,
    ) {
        let mut ts = TimeSeries::new(width);
        let mut whole = Histogram::default();
        let mut total = 0u64;
        for &(at, v) in &samples {
            ts.incr(at, "n");
            ts.observe(at, "v", v);
            whole.record(v);
            total += 1;
        }
        prop_assert_eq!(ts.counter_total("n"), total);
        prop_assert_eq!(ts.merged_hist("v"), whole);
        let curve = ts.counter_curve("n");
        prop_assert_eq!(curve.iter().sum::<u64>(), total);
        // Merging two half-streams window-wise gives the same series as
        // recording the whole stream into one.
        let (mut a, mut b) = (TimeSeries::new(width), TimeSeries::new(width));
        for (i, &(at, v)) in samples.iter().enumerate() {
            let dst = if i % 2 == 0 { &mut a } else { &mut b };
            dst.incr(at, "n");
            dst.observe(at, "v", v);
        }
        a.merge(&b);
        prop_assert_eq!(a.counter_total("n"), ts.counter_total("n"));
        prop_assert_eq!(a.merged_hist("v"), ts.merged_hist("v"));
        prop_assert_eq!(a.counter_curve("n"), curve);
    }
}
