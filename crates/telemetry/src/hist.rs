//! Log-scale histogram with bounded relative error, mergeable across
//! windows, proxies and runs.
//!
//! Values 0–63 get exact unit buckets; above that, each power-of-two
//! octave is split into 32 sub-buckets, so any recorded value lands in a
//! bucket whose width is at most 1/32 (~3.1%) of its magnitude. Quantile
//! queries therefore return a `(lo, hi)` bound pair rather than a point
//! estimate; callers that want a single number use the upper bound
//! (conservative for latency SLOs).
//!
//! Every owner records from one thread, so the state is plain data: the
//! non-zero buckets kept sparse and sorted, plus the summary fields.

/// Sub-buckets per octave = 2^SUB_BITS.
const SUB_BITS: u32 = 5;
const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Exact unit buckets for values below 2^(SUB_BITS + 1).
const LINEAR_LIMIT: u64 = (SUBBUCKETS as u64) * 2;
/// First octave handled logarithmically: exponent SUB_BITS + 1.
const FIRST_OCTAVE: u32 = SUB_BITS + 1;
#[cfg(test)]
const BUCKETS: usize = LINEAR_LIMIT as usize + (64 - FIRST_OCTAVE) as usize * SUBBUCKETS;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= FIRST_OCTAVE
    let sub = ((v >> (exp - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    LINEAR_LIMIT as usize + (exp - FIRST_OCTAVE) as usize * SUBBUCKETS + sub
}

/// Smallest and largest value mapping to bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if (i as u64) < LINEAR_LIMIT {
        return (i as u64, i as u64);
    }
    let rel = i - LINEAR_LIMIT as usize;
    let exp = FIRST_OCTAVE + (rel / SUBBUCKETS) as u32;
    let sub = (rel % SUBBUCKETS) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + sub * width;
    (lo, lo + (width - 1))
}

/// Log-scale histogram of `u64` samples (typically latencies in
/// microseconds): sparse non-zero buckets plus the summary fields.
/// Serializable, mergeable, and able to answer quantile queries. See the
/// module docs for the bucketing scheme.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    /// Wrapping sum of the samples (advisory; count and buckets carry
    /// the distribution).
    pub sum: u64,
    pub min: Option<u64>,
    pub max: Option<u64>,
    /// `(bucket index, count)`, ascending by index, zero counts omitted.
    pub buckets: Vec<(u32, u64)>,
}

impl Histogram {
    /// Records one sample. A sample lands in the same bucket wherever it
    /// is recorded, so windowed histograms merge into exactly the
    /// whole-run one.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Full-fidelity JSON (sparse buckets included), round-trippable
    /// through [`Histogram::from_json`] — unlike the summary rendering
    /// the report layer uses, this loses nothing.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .map(|&(i, n)| Json::from(vec![i as u64, n]))
            .collect();
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("buckets", Json::from(buckets)),
        ])
    }

    /// Parses the [`Histogram::to_json`] representation.
    pub fn from_json(doc: &crate::json::Json) -> Option<Histogram> {
        let mut buckets = Vec::new();
        for pair in doc.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            buckets.push((pair.first()?.as_u64()? as u32, pair.get(1)?.as_u64()?));
        }
        Some(Histogram {
            count: doc.get("count")?.as_u64()?,
            sum: doc.get("sum")?.as_u64()?,
            min: doc.get("min").and_then(|v| v.as_u64()),
            max: doc.get("max").and_then(|v| v.as_u64()),
            buckets,
        })
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(lo, hi)` bounds of the bucket holding the `q`-quantile sample
    /// (nearest-rank), or `None` on an empty histogram. The true sample
    /// value satisfies `lo <= v <= hi`.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the k-th smallest sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx as usize);
                // Tighten with the tracked extremes.
                let lo = self.min.map_or(lo, |m| lo.max(m.min(hi)));
                let hi = self.max.map_or(hi, |m| hi.min(m.max(lo)));
                return Some((lo, hi));
            }
        }
        None
    }

    /// Upper bound of the quantile bucket — the conservative single
    /// number for latency reporting.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(ai, an)), Some(&(bi, bn))) if ai == bi => {
                    merged.push((ai, an + bn));
                    i += 1;
                    j += 1;
                }
                (Some(&(ai, an)), Some(&(bi, _))) if ai < bi => {
                    merged.push((ai, an));
                    i += 1;
                }
                (Some(_), Some(&(bi, bn))) => {
                    merged.push((bi, bn));
                    j += 1;
                }
                (Some(&(ai, an)), None) => {
                    merged.push((ai, an));
                    i += 1;
                }
                (None, Some(&(bi, bn))) => {
                    merged.push((bi, bn));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..LINEAR_LIMIT {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert_eq!(lo, hi, "unit buckets give exact quantiles");
        }
        assert_eq!(h.quantile_bounds(0.5).unwrap().0, LINEAR_LIMIT / 2 - 1);
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        let probes = [
            0,
            1,
            63,
            64,
            65,
            100,
            1_000,
            4_095,
            4_096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ];
        for v in probes {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            // Relative bucket width bound: width <= lo / 32 for log buckets.
            if v >= LINEAR_LIMIT {
                assert!(hi - lo < lo / SUBBUCKETS as u64 + 1);
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_across_boundaries() {
        let mut prev = bucket_index(0);
        for v in 1..10_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev);
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [3u64, 900, 17, 1 << 40, 0, 65, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 900, 1 << 20] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000, 1 << 40] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Empty histograms round-trip too (min/max stay None).
        let empty = Histogram::default();
        assert_eq!(Histogram::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!((h.min, h.max), (None, None));
        assert_eq!(h.mean(), 0.0);
    }
}
