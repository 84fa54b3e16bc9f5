//! The one outcome tally under the scripted runs of [`crate::scenario`].
//!
//! Every front end answers with one outcome vocabulary
//! ([`FtOutcome`] / [`FtUpdateOutcome`]; the classic pair is its
//! always-served corner), so what an operation *did* — an [`OpOutcome`] —
//! is counted once, here: the outcome counters, their time-series
//! curves, and the freshness oracle. The oracle keeps a snapshot of the
//! master database after every applied update. A result served at time
//! `t` under lease `L` must equal the query evaluated against *some*
//! master state that was current during `[t - L, t]` — the paper's
//! freshness guarantee, relaxed by exactly the lease window. A result
//! matching no such state is **stale beyond the lease**, the failure the
//! epoch/lease machinery exists to rule out.
//!
//! The scenario keeps what is its own — its fault and crash schedule,
//! its bounded service centre, its durability ledger — and names the
//! curves its report exports; the tally never learns which features it
//! serves.

use crate::gen::BoundOp;
use scs_dssp::{FtOutcome, FtUpdateOutcome, FtUpdateResponse};
use scs_netsim::Time;
use scs_sqlkit::Query;
use scs_storage::{Database, QueryResult, StorageError};
use scs_telemetry::TimeSeries;

/// What one operation produced — the unit of baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    Query {
        hit: bool,
        degraded: bool,
        result: QueryResult,
    },
    QueryUnavailable,
    UpdateApplied,
    UpdateUnavailable,
    /// The master rejected the statement (FK violation, duplicate key);
    /// nothing changed.
    UpdateRejected,
    /// Overload protection turned the request away; nothing changed.
    Shed,
}

impl OpOutcome {
    pub(crate) fn of_query(outcome: FtOutcome) -> OpOutcome {
        match outcome {
            FtOutcome::Served {
                result,
                hit,
                degraded,
            } => OpOutcome::Query {
                hit,
                degraded,
                result,
            },
            FtOutcome::Unavailable => OpOutcome::QueryUnavailable,
            FtOutcome::Shed(_) => OpOutcome::Shed,
        }
    }

    pub(crate) fn of_update(outcome: &Result<FtUpdateResponse, StorageError>) -> OpOutcome {
        match outcome.as_ref().map(|resp| &resp.outcome) {
            Ok(FtUpdateOutcome::Applied { .. }) => OpOutcome::UpdateApplied,
            Ok(FtUpdateOutcome::Unavailable) => OpOutcome::UpdateUnavailable,
            Ok(FtUpdateOutcome::Shed(_)) => OpOutcome::Shed,
            Err(_) => OpOutcome::UpdateRejected,
        }
    }
}

/// Checks a served result against the oracle; returns the observed
/// staleness (µs), or `None` when the result matches no state current
/// within `[now - lease, now]`.
fn staleness_within_lease(
    oracle: &[(Time, Database)],
    q: &Query,
    served: &QueryResult,
    now: Time,
    lease: Option<Time>,
) -> Option<Time> {
    let window_start = match lease {
        Some(l) => now.saturating_sub(l),
        None => 0,
    };
    // Walk states newest-first; state i is current over
    // [since_i, since_{i+1}). Stop once a state's validity ends before
    // the window opens.
    let mut valid_until = now; // exclusive end of the newest state = "now"
    for (i, (since, state)) in oracle.iter().enumerate().rev() {
        let truth = state.execute(q).expect("oracle replays valid queries");
        if served.multiset_eq(&truth) {
            let staleness = if i == oracle.len() - 1 {
                0
            } else {
                now.saturating_sub(valid_until)
            };
            return Some(staleness);
        }
        if *since <= window_start {
            break; // older states were never current inside the window
        }
        valid_until = *since;
    }
    None
}

/// What a scripted run's operations did, and whether anything served was
/// stale beyond the lease.
pub(crate) struct Tally {
    /// `(since_micros, state)`: the master as of each applied update
    /// (and each failover rollback).
    oracle: Vec<(Time, Database)>,
    lease: Option<Time>,
    /// The curves the run's report exports — the tally's own outcome
    /// curves and the scenario's; the rest are not recorded, so an
    /// exported series keeps exactly its keys.
    curves: Vec<&'static str>,
    /// Present when the scenario asked for sim-time curves.
    pub(crate) series: Option<TimeSeries>,
    pub(crate) queries_served: u64,
    pub(crate) hits: u64,
    pub(crate) degraded_serves: u64,
    pub(crate) queries_unavailable: u64,
    /// Requests (queries and updates) the proxy's overload gate shed.
    pub(crate) shed: u64,
    pub(crate) updates_applied: u64,
    pub(crate) updates_unavailable: u64,
    pub(crate) updates_rejected: u64,
    /// Served results matching **no** master state current within the
    /// lease window — must be zero.
    pub(crate) stale_beyond_lease: u64,
    /// Worst observed age of a served result (µs); bounded by the lease.
    pub(crate) max_observed_staleness_micros: u64,
}

impl Tally {
    pub(crate) fn new(
        seed_state: Database,
        lease: Option<Time>,
        bucket_micros: Option<Time>,
        curves: Vec<&'static str>,
    ) -> Tally {
        Tally {
            oracle: vec![(0, seed_state)],
            lease,
            curves,
            series: bucket_micros.map(TimeSeries::new),
            queries_served: 0,
            hits: 0,
            degraded_serves: 0,
            queries_unavailable: 0,
            shed: 0,
            updates_applied: 0,
            updates_unavailable: 0,
            updates_rejected: 0,
            stale_beyond_lease: 0,
            max_observed_staleness_micros: 0,
        }
    }

    /// The master changed at `now` — an applied update, or a failover
    /// rolling the stream back: `state` is current from here on.
    pub(crate) fn master_changed(&mut self, now: Time, state: Database) {
        self.oracle.push((now, state));
    }

    /// When each master state became current (index 0 is the initial
    /// state at t = 0).
    pub(crate) fn master_history_micros(&self) -> Vec<Time> {
        self.oracle.iter().map(|&(t, _)| t).collect()
    }

    /// Counts one `name` event at `at`, when `name` is a curve of this run.
    pub(crate) fn tick(&mut self, at: Time, name: &str) {
        if let (Some(ts), true) = (self.series.as_mut(), self.curves.contains(&name)) {
            ts.incr(at, name);
        }
    }

    /// Records one `name` histogram sample, when `name` is a curve.
    pub(crate) fn observe(&mut self, at: Time, name: &str, value: u64) {
        if let (Some(ts), true) = (self.series.as_mut(), self.curves.contains(&name)) {
            ts.observe(at, name, value);
        }
    }

    /// Accounts what `op` produced; a served result is checked against
    /// the oracle. The caller reports an applied update's new master
    /// state through [`Tally::master_changed`].
    pub(crate) fn record(&mut self, now: Time, op: &BoundOp, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Query {
                hit,
                degraded,
                result,
            } => {
                self.queries_served += 1;
                self.hits += *hit as u64;
                self.degraded_serves += *degraded as u64;
                self.tick(now, "query_served");
                if *hit {
                    self.tick(now, "query_hit");
                }
                if *degraded {
                    self.tick(now, "degraded_serve");
                }
                let BoundOp::Query(q) = op else {
                    return; // only a query produces a result to check
                };
                match staleness_within_lease(&self.oracle, q, result, now, self.lease) {
                    Some(staleness) => {
                        self.max_observed_staleness_micros =
                            self.max_observed_staleness_micros.max(staleness);
                        self.observe(now, "staleness_us", staleness);
                    }
                    None => {
                        self.stale_beyond_lease += 1;
                        self.tick(now, "stale_beyond_lease");
                    }
                }
            }
            OpOutcome::QueryUnavailable => {
                self.queries_unavailable += 1;
                self.tick(now, "query_unavailable");
            }
            OpOutcome::UpdateApplied => {
                self.updates_applied += 1;
                self.tick(now, "update_applied");
            }
            OpOutcome::UpdateUnavailable => {
                self.updates_unavailable += 1;
                self.tick(now, "update_unavailable");
            }
            OpOutcome::UpdateRejected => {
                self.updates_rejected += 1;
                self.tick(now, "update_rejected");
            }
            OpOutcome::Shed => self.shed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_dssp::Overloaded;
    use scs_sqlkit::{parse_query, Value};
    use scs_storage::{ColumnType, TableSchema};
    use std::sync::Arc;

    fn toys(qty: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("id", ColumnType::Int)
                .column("qty", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert_row("toys", vec![Value::Int(1), Value::Int(qty)])
            .unwrap();
        db
    }

    fn qty_of_one() -> BoundOp {
        let tpl = Arc::new(parse_query("SELECT qty FROM toys WHERE id = ?").unwrap());
        BoundOp::Query(Query::bind(0, tpl, vec![Value::Int(1)]).unwrap())
    }

    fn served(db: &Database, op: &BoundOp, hit: bool) -> OpOutcome {
        let BoundOp::Query(q) = op else {
            panic!("a query op")
        };
        OpOutcome::Query {
            result: db.execute(q).unwrap(),
            hit,
            degraded: false,
        }
    }

    /// A shed request is not a serve: it moves `shed` and nothing else,
    /// and draws no curve.
    #[test]
    fn a_shed_request_counts_as_shed_only() {
        let mut t = Tally::new(toys(10), None, Some(100), vec!["query_served"]);
        let q = qty_of_one();
        let shed_query = OpOutcome::of_query(FtOutcome::Shed(Overloaded::Brownout));
        t.record(5, &q, &shed_query);
        t.record(6, &q, &OpOutcome::of_update(&Ok(shed_update())));
        assert_eq!(t.shed, 2);
        assert_eq!(t.queries_served + t.queries_unavailable, 0);
        assert_eq!(t.updates_applied + t.updates_unavailable, 0);
        assert!(t.series.as_ref().unwrap().is_empty());
    }

    fn shed_update() -> FtUpdateResponse {
        FtUpdateResponse {
            outcome: FtUpdateOutcome::Shed(Overloaded::Brownout),
            attempts: 0,
            backoff_micros: 0,
        }
    }

    /// A result equal to a superseded state is within the lease while
    /// that state was current inside the window, and beyond it after.
    #[test]
    fn staleness_is_judged_against_the_lease_window() {
        let (old, new) = (toys(10), toys(11));
        let q = qty_of_one();
        let mut t = Tally::new(old.clone(), Some(50), Some(100), vec!["stale_beyond_lease"]);
        t.master_changed(100, new.clone());
        t.record(120, &q, &served(&new, &q, false));
        assert_eq!(
            (t.stale_beyond_lease, t.max_observed_staleness_micros),
            (0, 0)
        );
        // The old state stopped being current at 100: 20 µs stale at 120.
        t.record(120, &q, &served(&old, &q, true));
        assert_eq!(
            (t.stale_beyond_lease, t.max_observed_staleness_micros),
            (0, 20)
        );
        // At 151 the window opens at 101, after the old state ended.
        t.record(151, &q, &served(&old, &q, true));
        assert_eq!(t.stale_beyond_lease, 1);
        assert_eq!((t.queries_served, t.hits), (3, 2));
        let ts = t.series.as_ref().unwrap();
        assert_eq!(ts.counter_total("stale_beyond_lease"), 1);
        assert_eq!(ts.counter_total("query_served"), 0, "not a curve asked for");
    }
}
