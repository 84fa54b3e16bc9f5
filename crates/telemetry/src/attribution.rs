//! Empirical invalidation attribution: which update templates actually
//! killed which cached query templates at runtime.
//!
//! This is the measured counterpart of the static invalidation
//! probability matrix (IPM) in `scs-core::ipm`. The analysis predicts,
//! per (update template `u`, query template `q`) pair, whether an
//! instance of `u` can ever invalidate a cached instance of `q`
//! (`A = 0` means provably never). The proxy feeds every runtime
//! invalidation into this matrix, so tests and operators can diff
//! observed behaviour against the prediction: a nonzero cell on a
//! predicted-`A = 0` pair means either the analysis or the runtime is
//! wrong — exactly the divergence worth an alarm.

/// Dense (update-template × query-template) counts of runtime
/// invalidations, plus per-update-template application counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionMatrix {
    updates: usize,
    queries: usize,
    /// Row-major: `counts[u * queries + q]`.
    counts: Vec<u64>,
    updates_applied: Vec<u64>,
}

impl AttributionMatrix {
    pub fn new(updates: usize, queries: usize) -> AttributionMatrix {
        AttributionMatrix {
            updates,
            queries,
            counts: vec![0; updates * queries],
            updates_applied: vec![0; updates],
        }
    }

    pub fn update_count(&self) -> usize {
        self.updates
    }

    pub fn query_count(&self) -> usize {
        self.queries
    }

    /// Records that an instance of update template `u` was applied.
    pub fn record_update(&mut self, u: usize) {
        self.updates_applied[u] += 1;
    }

    /// Records that an instance of `u` invalidated a cached instance of `q`.
    pub fn record_invalidation(&mut self, u: usize, q: usize) {
        self.counts[u * self.queries + q] += 1;
    }

    /// Observed invalidations of `q`-entries caused by `u`-instances.
    pub fn count(&self, u: usize, q: usize) -> u64 {
        self.counts[u * self.queries + q]
    }

    /// Times update template `u` was applied.
    pub fn updates_applied(&self, u: usize) -> u64 {
        self.updates_applied[u]
    }

    /// Total invalidations attributed to update template `u`.
    pub fn invalidations_for_update(&self, u: usize) -> u64 {
        self.counts[u * self.queries..(u + 1) * self.queries]
            .iter()
            .sum()
    }

    /// Folds another matrix (e.g. a different tenant's) into this one.
    /// Panics on shape mismatch: attribution only merges within one
    /// application's template tables.
    pub fn merge(&mut self, other: &AttributionMatrix) {
        assert_eq!(
            (self.updates, self.queries),
            (other.updates, other.queries),
            "attribution matrices must share template tables to merge"
        );
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        for (dst, src) in self.updates_applied.iter_mut().zip(&other.updates_applied) {
            *dst += src;
        }
    }

    /// Pairs where the static analysis says invalidation is impossible
    /// (`predicted_a_zero(u, q)` is true) yet runtime observed some —
    /// each returned as `(u, q, observed_count)`. Empty means the
    /// runtime stayed inside the analysis' envelope.
    ///
    /// Takes the prediction as a closure so this crate needs no
    /// dependency on `scs-core`; callers pass
    /// `|u, q| matrix.entry(u, q).all_zero()`.
    pub fn divergence(
        &self,
        predicted_a_zero: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for u in 0..self.updates {
            for q in 0..self.queries {
                let observed = self.count(u, q);
                if observed > 0 && predicted_a_zero(u, q) {
                    out.push((u, q, observed));
                }
            }
        }
        out
    }

    /// Row-major copy of the counts (`updates × queries`), for export.
    pub fn dense_counts(&self) -> Vec<Vec<u64>> {
        (0..self.updates)
            .map(|u| self.counts[u * self.queries..(u + 1) * self.queries].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_rates() {
        let mut m = AttributionMatrix::new(3, 2);
        m.record_update(1);
        m.record_update(1);
        m.record_invalidation(1, 0);
        m.record_invalidation(1, 0);
        m.record_invalidation(1, 1);
        assert_eq!(m.count(1, 0), 2);
        assert_eq!(m.invalidations_for_update(1), 3);
        assert_eq!(m.updates_applied(1), 2);
        assert_eq!(m.updates_applied(0), 0);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = AttributionMatrix::new(2, 2);
        let mut b = AttributionMatrix::new(2, 2);
        a.record_invalidation(0, 1);
        b.record_invalidation(0, 1);
        b.record_invalidation(1, 0);
        b.record_update(0);
        a.merge(&b);
        assert_eq!(a.count(0, 1), 2);
        assert_eq!(a.count(1, 0), 1);
        assert_eq!(a.updates_applied(0), 1);
    }

    #[test]
    #[should_panic(expected = "share template tables")]
    fn merge_shape_mismatch_panics() {
        let mut a = AttributionMatrix::new(2, 2);
        a.merge(&AttributionMatrix::new(2, 3));
    }

    #[test]
    fn divergence_flags_only_predicted_zero_pairs() {
        let mut m = AttributionMatrix::new(2, 2);
        m.record_invalidation(0, 0);
        m.record_invalidation(1, 1);
        // Analysis claims (0, 0) and (0, 1) can never invalidate.
        let diverged = m.divergence(|u, _q| u == 0);
        assert_eq!(diverged, vec![(0, 0, 1)]);
        // Honest analysis: no divergence.
        assert!(m.divergence(|_, _| false).is_empty());
    }

    #[test]
    fn dense_counts_roundtrip() {
        let mut m = AttributionMatrix::new(2, 3);
        m.record_invalidation(1, 2);
        assert_eq!(m.dense_counts(), vec![vec![0, 0, 0], vec![0, 0, 1]]);
    }
}
