//! Order statistics for the benchmark's own numbers.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentiles a report may quote, most extreme first, in basis
/// points (integers, so `n / 10` samples beyond p90 is exact).
const TAIL_CANDIDATES_BP: [usize; 5] = [9999, 9990, 9900, 9500, 9000];

/// The highest candidate percentile that still has at least ten samples
/// beyond it in a sample of `n`; `None` when even p90 has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_BP
        .into_iter()
        .find(|bp| n * (10_000 - bp) / 10_000 >= 10)
        .map(|bp| bp as f64 / 10_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle: the smallest sample value with at least a `q`
    /// share of the sample at or below it.
    fn percentile_oracle(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        *v.iter()
            .find(|&&x| v.iter().filter(|&&y| y <= x).count() as f64 >= q * v.len() as f64)
            .unwrap()
    }

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut x = 12345u64;
        for n in [1usize, 2, 3, 10, 101, 1000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 40) as f64
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    percentile_sorted(&sorted, q),
                    percentile_oracle(&values, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(20_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
