//! DSSP runtime statistics: the one tally of what a proxy counted.
//!
//! A [`Tally`] keeps every count in plain fields. A fact a trace event
//! names is counted by folding that event (`Tally::note`), so the
//! count and the event cannot drift apart; facts no event names are
//! plain adds at their sites. A total that is a sum of per-template
//! counts is derived, never kept beside them. [`DsspStats`] and the
//! named [`MetricsSnapshot`] are views of the tally, and this module is
//! the only one that knows the counter names.

use scs_telemetry::{Histogram, MetricsSnapshot, TraceEventKind};

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
    /// Folds another proxy's counters into this one — the fleet
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

/// Every count one proxy keeps. Per-template vectors are indexed by
/// template id; an event naming an id outside the tables counts in no
/// per-template cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    query_hits: Vec<u64>,
    query_misses: Vec<u64>,
    query_evicted: Vec<u64>,
    update_applied: Vec<u64>,
    /// Invalidations per (update template, query template), row-major:
    /// `by_pair[u * query_templates + q]` — the empirical counterpart of
    /// the static IPM.
    by_pair: Vec<u64>,
    /// Victims whatever their template ids, so not the sum of `by_pair`.
    invalidations: u64,
    /// Likewise not the sum of `query_evicted`.
    evictions: u64,
    epoch_gaps: u64,
    recovery_flushes: u64,
    recovery_flushed_entries: u64,
    lease_expirations: u64,
    home_retries: u64,
    home_unavailable: u64,
    degraded_serves: u64,
    restarts: u64,
    /// Sheds by `ShedReason` code.
    shed: [u64; 4],
    /// Breaker transitions by target `BreakerState` code.
    breaker_to: [u64; 3],
    brownout_entries: u64,
    brownout_exits: u64,
    entries_scanned: u64,
    entries_inspected: u64,
    /// Pairs decided per invalidation pass.
    scan_size: Histogram,
    // Facts no trace event names: plain adds at their sites.
    pub(crate) cache_replacements: u64,
    pub(crate) duplicate_invalidations: u64,
    pub(crate) brownout_serves: u64,
    pub(crate) fanout_batches_applied: u64,
    pub(crate) fanout_batch_msgs: u64,
    pub(crate) fanout_batch_duplicates: u64,
}

/// `slots[i] += 1`, when `i` is in range.
fn bump(slots: &mut [u64], i: impl TryInto<usize>) {
    if let Some(n) = i.try_into().ok().and_then(|i| slots.get_mut(i)) {
        *n += 1;
    }
}

impl Tally {
    pub(crate) fn new(update_templates: usize, query_templates: usize) -> Tally {
        Tally {
            query_hits: vec![0; query_templates],
            query_misses: vec![0; query_templates],
            query_evicted: vec![0; query_templates],
            update_applied: vec![0; update_templates],
            by_pair: vec![0; update_templates * query_templates],
            ..Tally::default()
        }
    }

    /// Counts the fact `kind` names.
    pub(crate) fn note(&mut self, kind: TraceEventKind) {
        use TraceEventKind as K;
        match kind {
            K::QueryHit { query_template, .. } => bump(&mut self.query_hits, query_template),
            K::QueryMiss { query_template, .. } => bump(&mut self.query_misses, query_template),
            K::UpdateApplied {
                update_template, ..
            } => bump(&mut self.update_applied, update_template),
            K::EntryInvalidated {
                update_template: u,
                query_template: q,
                ..
            } => {
                self.invalidations += 1;
                let (u, q, queries) = (u as usize, q as usize, self.query_templates());
                if u < self.update_templates() && q < queries {
                    self.by_pair[u * queries + q] += 1;
                }
            }
            K::EntryEvicted { query_template } => {
                self.evictions += 1;
                bump(&mut self.query_evicted, query_template);
            }
            K::EpochGap { .. } => self.epoch_gaps += 1,
            K::RecoveryFlush { flushed, .. } => {
                self.recovery_flushes += 1;
                self.recovery_flushed_entries += flushed;
            }
            K::LeaseExpired { .. } => self.lease_expirations += 1,
            K::HomeRetry { .. } => self.home_retries += 1,
            K::HomeUnreachable { .. } => self.home_unavailable += 1,
            K::DegradedServe { .. } => self.degraded_serves += 1,
            K::NodeRestart { .. } => self.restarts += 1,
            K::RequestShed { reason, .. } => bump(&mut self.shed, reason),
            K::BreakerTransition { to, .. } => bump(&mut self.breaker_to, to),
            K::BrownoutMode { active: true } => self.brownout_entries += 1,
            K::BrownoutMode { active: false } => self.brownout_exits += 1,
            K::InvalidationPass {
                scanned, inspected, ..
            } => {
                self.entries_scanned += scanned;
                self.entries_inspected += inspected;
                self.scan_size.record(scanned);
            }
            // Facts only the planes and the curves fold.
            _ => {}
        }
    }

    pub fn query_templates(&self) -> usize {
        self.query_hits.len()
    }

    pub fn update_templates(&self) -> usize {
        self.update_applied.len()
    }

    /// Times each update template was applied, by template id.
    pub fn updates_applied(&self) -> &[u64] {
        &self.update_applied
    }

    /// Row `u` of the invalidation matrix: `u`'s victims per query
    /// template.
    fn row(&self, u: usize) -> &[u64] {
        let queries = self.query_templates();
        &self.by_pair[u * queries..(u + 1) * queries]
    }

    /// Invalidations per (update template, query template), one row per
    /// update template — for export.
    pub fn invalidation_counts(&self) -> Vec<Vec<u64>> {
        (0..self.update_templates())
            .map(|u| self.row(u).to_vec())
            .collect()
    }

    /// Pairs where the static analysis says invalidation is impossible
    /// (`predicted_a_zero(u, q)`) yet the runtime invalidated, each as
    /// `(u, q, observed)`. Empty means the runtime stayed inside the
    /// analysis' envelope; callers pass
    /// `|u, q| matrix.entry(u, q).all_zero()`.
    pub fn divergence(
        &self,
        predicted_a_zero: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for u in 0..self.update_templates() {
            for (q, &observed) in self.row(u).iter().enumerate() {
                if observed > 0 && predicted_a_zero(u, q) {
                    out.push((u, q, observed));
                }
            }
        }
        out
    }

    /// The headline counters.
    pub(crate) fn stats(&self) -> DsspStats {
        let hits = self.query_hits.iter().sum();
        let misses = self.query_misses.iter().sum();
        DsspStats {
            queries: hits + misses,
            hits,
            misses,
            updates: self.update_applied.iter().sum(),
            invalidations: self.invalidations,
            entries_scanned: self.entries_scanned,
            entries_inspected: self.entries_inspected,
            evictions: self.evictions,
        }
    }

    /// Every count under its exported name, the zero-valued ones
    /// included: `dssp.<fact>` totals, `query_template.<q>.<fact>` and
    /// `update_template.<u>.<fact>` per template, and the
    /// `dssp.invalidation_scan_size` histogram.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let s = self.stats();
        let totals = [
            ("queries", s.queries),
            ("hits", s.hits),
            ("misses", s.misses),
            ("updates", s.updates),
            ("invalidations", s.invalidations),
            ("entries_scanned", s.entries_scanned),
            ("entries_inspected", s.entries_inspected),
            ("evictions", s.evictions),
            ("cache_replacements", self.cache_replacements),
            ("epoch_gaps", self.epoch_gaps),
            ("recovery_flushes", self.recovery_flushes),
            ("recovery_flushed_entries", self.recovery_flushed_entries),
            ("duplicate_invalidations", self.duplicate_invalidations),
            ("lease_expirations", self.lease_expirations),
            ("home_retries", self.home_retries),
            ("home_unavailable", self.home_unavailable),
            ("degraded_serves", self.degraded_serves),
            ("restarts", self.restarts),
            ("shed_admission", self.shed[0]),
            ("shed_breaker_open", self.shed[1]),
            ("shed_brownout", self.shed[2]),
            ("shed_queue_full", self.shed[3]),
            ("breaker_closes", self.breaker_to[0]),
            ("breaker_opens", self.breaker_to[1]),
            ("breaker_half_opens", self.breaker_to[2]),
            ("brownout_entries", self.brownout_entries),
            ("brownout_exits", self.brownout_exits),
            ("brownout_serves", self.brownout_serves),
            ("fanout_batches_applied", self.fanout_batches_applied),
            ("fanout_batch_msgs", self.fanout_batch_msgs),
            ("fanout_batch_duplicates", self.fanout_batch_duplicates),
        ];
        let mut m = MetricsSnapshot::default();
        let mut put = |name: String, n: u64| m.counters.insert(name, n);
        for (fact, n) in totals {
            put(format!("dssp.{fact}"), n);
        }
        for q in 0..self.query_templates() {
            let invalidated = (0..self.update_templates()).map(|u| self.row(u)[q]).sum();
            put(format!("query_template.{q}.hits"), self.query_hits[q]);
            put(format!("query_template.{q}.misses"), self.query_misses[q]);
            put(format!("query_template.{q}.invalidated"), invalidated);
            put(format!("query_template.{q}.evicted"), self.query_evicted[q]);
        }
        for (u, &applied) in self.update_applied.iter().enumerate() {
            let invalidations = self.row(u).iter().sum();
            put(format!("update_template.{u}.applied"), applied);
            put(format!("update_template.{u}.invalidations"), invalidations);
        }
        m.histograms.insert(
            "dssp.invalidation_scan_size".to_string(),
            self.scan_size.clone(),
        );
        m
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

    fn invalidated(u: u32, q: u32) -> TraceEventKind {
        TraceEventKind::EntryInvalidated {
            update_template: u,
            query_template: q,
            exposure: 3,
            decision: 0,
            stream: 0,
            epoch: 1,
        }
    }

    /// The matrix records per pair; its row and column sums are the
    /// per-template counters, and the divergence list names only pairs
    /// the prediction rules out.
    #[test]
    fn invalidations_fold_into_the_matrix() {
        let mut t = Tally::new(3, 2);
        for kind in [invalidated(1, 0), invalidated(1, 0), invalidated(1, 1)] {
            t.note(kind);
        }
        t.note(invalidated(0, 0));
        assert_eq!(t.invalidation_counts(), [[1, 0], [2, 1], [0, 0]]);
        let m = t.metrics();
        assert_eq!(m.counters["update_template.1.invalidations"], 3);
        assert_eq!(m.counters["query_template.0.invalidated"], 3);
        assert_eq!(m.counters["dssp.invalidations"], 4);
        // Analysis claims update 0 can never invalidate anything.
        assert_eq!(t.divergence(|u, _| u == 0), [(0, 0, 1)]);
        assert!(t.divergence(|_, _| false).is_empty());
    }

    /// A victim or an eviction naming a template outside the tables still
    /// counts in its total, and in no per-template cell.
    #[test]
    fn out_of_range_templates_count_only_in_totals() {
        let mut t = Tally::new(1, 1);
        t.note(invalidated(0, 5));
        t.note(invalidated(4, 0));
        t.note(TraceEventKind::EntryEvicted { query_template: 9 });
        let m = t.metrics();
        assert_eq!(m.counters["dssp.invalidations"], 2);
        assert_eq!(m.counters["dssp.evictions"], 1);
        assert_eq!(t.invalidation_counts(), [[0]]);
        assert_eq!(m.counters["query_template.0.evicted"], 0);
    }
}
