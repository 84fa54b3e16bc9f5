//! DSSP runtime statistics.

/// Counters accumulated by a [`crate::Dssp`] proxy. The hit rate and
/// invalidation volume are the mechanism behind the paper's Figure 8:
/// lower exposure ⇒ more invalidations ⇒ lower hit rate ⇒ more home-server
/// load ⇒ lower scalability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsspStats {
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub updates: u64,
    /// Total cache entries invalidated across all updates.
    pub invalidations: u64,
    /// Total (update, entry) pairs invalidation passes decided: the sizes
    /// of the buckets and the blind set each pass covered.
    pub entries_scanned: u64,
    /// How many of those pairs the strategy had to look at; the rest an
    /// index ruled out unseen.
    pub entries_inspected: u64,
    /// Cache entries dropped by capacity pressure (not by invalidation).
    pub evictions: u64,
}

impl DsspStats {
    /// Folds another proxy's counters into this one — the tenant
    /// roll-up operation. Associative and commutative.
    pub fn merge(&mut self, other: &DsspStats) {
        self.queries += other.queries;
        self.hits += other.hits;
        self.misses += other.misses;
        self.updates += other.updates;
        self.invalidations += other.invalidations;
        self.entries_scanned += other.entries_scanned;
        self.entries_inspected += other.entries_inspected;
        self.evictions += other.evictions;
    }

    /// Cache hit rate in `[0, 1]` (0 when no queries ran).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    /// Mean entries invalidated per update (0 when no updates ran).
    pub fn invalidations_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.invalidations as f64 / self.updates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = DsspStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.invalidations_per_update(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = DsspStats {
            queries: 10,
            hits: 7,
            misses: 3,
            updates: 4,
            invalidations: 6,
            entries_scanned: 40,
            entries_inspected: 5,
            evictions: 2,
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.invalidations_per_update() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fieldwise_and_is_associative() {
        let mk = |n: u64| DsspStats {
            queries: 10 * n,
            hits: 7 * n,
            misses: 3 * n,
            updates: 4 * n,
            invalidations: 6 * n,
            entries_scanned: 40 * n,
            entries_inspected: 5 * n,
            evictions: n,
        };
        let (a, b, c) = (mk(1), mk(2), mk(5));

        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, mk(8));
    }
}
