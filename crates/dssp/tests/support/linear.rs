//! Test-only reference for the invalidation-index oracle: a cache whose
//! invalidation pass is the linear one the DSSP ran before it grew value
//! indexes — walk every entry of every IPM-conflicting template (and
//! every blind entry; every entry at all for a blind update) and decide
//! each pair on its own. It keeps its own entries, LRU clock and leases,
//! so a `Dssp` driven alongside it must agree on the key set after every
//! step, not just on the victims of one pass.
//!
//! The per-pair decision is re-stated here from the Figure-6 cell over
//! the retired statement and view tiers kept in `reference_decide.rs`
//! (the including test declares that module too), so the oracle also pins
//! `decide` itself, and not against its own code.

use crate::reference_decide::{statement_may_affect, view_may_affect};
use scs_core::{ExposureLevel, Exposures, IpmMatrix};
use scs_sqlkit::{Query, Update, Value};
use scs_storage::QueryResult;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A cached instance's identity, `(template id, bound parameters)`, with
/// the parameters in `Debug` form: `Value`'s order calls `Int(1)` and
/// `Real(1.0)` equal, which an ordered set of keys must not.
pub type Key = (usize, String);

type Instance = (usize, Vec<Value>);

/// What a pass revealed, keyed as the audit plane keys its scan stamps:
/// `(entry template, reveal kind, decision path, entry level)` →
/// `(bytes, pairs)`.
pub type Reveals = BTreeMap<(usize, &'static str, &'static str, &'static str), (u64, u64)>;

#[derive(Debug, Clone)]
pub struct LinearEntry {
    pub query: Query,
    pub result: QueryResult,
    pub level: ExposureLevel,
    last_used: u64,
    expires_at: u64,
}

/// What one linear pass did.
#[derive(Debug, Default)]
pub struct Pass {
    pub scanned: usize,
    pub victims: BTreeSet<Key>,
    pub reveals: Reveals,
}

pub struct LinearCache {
    exposures: Exposures,
    matrix: IpmMatrix,
    entries: HashMap<Instance, LinearEntry>,
    capacity: Option<usize>,
    lease: Option<u64>,
    now: u64,
    clock: u64,
}

fn instance_of(q: &Query) -> Instance {
    (q.template_id, q.params.clone())
}

fn key_of(instance: &Instance) -> Key {
    (instance.0, format!("{:?}", instance.1))
}

impl LinearCache {
    pub fn new(
        exposures: Exposures,
        matrix: IpmMatrix,
        capacity: Option<usize>,
        lease: Option<u64>,
    ) -> LinearCache {
        LinearCache {
            exposures,
            matrix,
            entries: HashMap::new(),
            capacity,
            lease,
            now: 0,
            clock: 0,
        }
    }

    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    pub fn keys(&self) -> BTreeSet<Key> {
        self.entries.keys().map(key_of).collect()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A lease-aware lookup: `true` on a servable hit; an entry past its
    /// lease is dropped and reads as a miss.
    pub fn lookup(&mut self, q: &Query) -> bool {
        self.clock += 1;
        let key = instance_of(q);
        match self.entries.get_mut(&key) {
            None => false,
            Some(e) if e.expires_at < self.now => {
                self.entries.remove(&key);
                false
            }
            Some(e) => {
                e.last_used = self.clock;
                true
            }
        }
    }

    /// Stores a miss fill under the template's exposure level; returns
    /// the keys the capacity bound evicted.
    pub fn store(&mut self, q: &Query, result: QueryResult) -> Vec<Key> {
        if result.is_empty() {
            return Vec::new();
        }
        self.clock += 1;
        let e = LinearEntry {
            query: q.clone(),
            result,
            level: self.exposures.queries[q.template_id],
            last_used: self.clock,
            expires_at: self.lease.map_or(u64::MAX, |l| self.now.saturating_add(l)),
        };
        self.entries.insert(instance_of(q), e);
        self.evict()
    }

    fn evict(&mut self) -> Vec<Key> {
        let mut evicted = Vec::new();
        while self.capacity.is_some_and(|cap| self.entries.len() > cap) {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.last_used);
            let Some(instance) = oldest.map(|(k, _)| k.clone()) else {
                break;
            };
            self.entries.remove(&instance);
            evicted.push(key_of(&instance));
        }
        evicted
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The Figure-6 cell for one pair: `(invalidate, decision path)`.
    fn decide(&self, u: &Update, e: &LinearEntry) -> (bool, &'static str) {
        let u_level = self.exposures.updates[u.template_id];
        if u_level == ExposureLevel::Blind || e.level == ExposureLevel::Blind {
            return (true, "blind_side");
        }
        if self
            .matrix
            .entry(u.template_id, e.query.template_id)
            .all_zero()
        {
            return (false, "template");
        }
        if u_level < ExposureLevel::Stmt || e.level < ExposureLevel::Stmt {
            return (true, "template");
        }
        if e.level == ExposureLevel::View {
            (view_may_affect(u, &e.query, &e.result), "view")
        } else {
            (statement_may_affect(u, &e.query), "statement")
        }
    }

    /// The linear invalidation pass for `u`.
    pub fn invalidate(&mut self, u: &Update) -> Pass {
        let u_level = self.exposures.updates[u.template_id];
        let mut pass = Pass::default();
        let mut victims = Vec::new();
        for (key, e) in &self.entries {
            let candidate = u_level == ExposureLevel::Blind
                || e.level == ExposureLevel::Blind
                || !self.matrix.entry(u.template_id, key.0).all_zero();
            if !candidate {
                continue;
            }
            pass.scanned += 1;
            let (kill, path) = self.decide(u, e);
            let mut note = |kind: &'static str, bytes: u64| {
                let slot = pass
                    .reveals
                    .entry((key.0, kind, path, e.level.as_str()))
                    .or_insert((0, 0));
                slot.0 += bytes;
                slot.1 += 1;
            };
            if path != "blind_side" {
                note("template_id", 8);
            }
            if path == "statement" || path == "view" {
                note("params", e.query.statement_text().len() as u64);
            }
            if path == "view" {
                note("view_rows", e.result.approx_size_bytes() as u64);
            }
            if kill {
                victims.push(key.clone());
            }
        }
        for instance in &victims {
            self.entries.remove(instance);
            pass.victims.insert(key_of(instance));
        }
        pass
    }
}
