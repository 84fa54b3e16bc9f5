//! Property test: [`Histogram`] quantile bounds always bracket the
//! exact nearest-rank quantile computed from a sorted vector of the same
//! samples, and the bracket is tight (≤ ~3.1% relative width).

use proptest::prelude::*;
use scs_telemetry::Histogram;

/// Exact nearest-rank quantile of a sorted sample vector.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn quantile_bounds_bracket_sorted_oracle(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        small in proptest::collection::vec(0u64..5_000, 1..200),
    ) {
        for samples in [&values, &small] {
            let mut h = Histogram::default();
            for &v in samples.iter() {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let exact = oracle(&sorted, q);
                let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
                prop_assert!(
                    lo <= exact && exact <= hi,
                    "q={q}: exact {exact} outside [{lo}, {hi}] for {sorted:?}"
                );
                // Log-bucket width bound: hi - lo < lo/32 + 1 (exact below 64).
                prop_assert!(hi - lo <= lo / 32 + 1, "loose bucket [{lo}, {hi}]");
            }
        }
    }
}
