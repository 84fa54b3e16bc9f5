//! A point-in-time copy of a proxy's named counters and histograms.
//!
//! The proxy keeps its counts in plain fields and renders them under
//! stable names here; fleet roll-ups merge the copies. Merge is
//! associative and commutative, which the roll-up relies on.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// Named counters and histograms; mergeable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counters add and histograms merge bucket-wise; names unknown to
    /// `self` are added.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_registers_and_is_associative_and_commutative() {
        let make = |seed: u64| {
            let mut m = MetricsSnapshot::default();
            m.counters.insert("c".into(), seed);
            m.counters.insert(format!("only_{seed}"), 1);
            let h = m.histograms.entry("h".into()).or_default();
            for i in 0..seed * 3 {
                h.record(i * seed);
            }
            m
        };
        let (x, y, z) = (make(2), make(5), make(9));

        let mut xy = x.clone();
        xy.merge(&y);
        assert_eq!(xy.counters["c"], 7);
        assert_eq!(xy.counters["only_5"], 1, "unknown names are added");
        assert_eq!(xy.histograms["h"].count, 21);

        let mut xy_z = xy.clone();
        xy_z.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut x_yz = x.clone();
        x_yz.merge(&yz);
        assert_eq!(xy_z, x_yz, "merge is associative");

        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx, "merge is commutative");
    }
}
