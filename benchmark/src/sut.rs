//! The systems under test behind one face.
//!
//! This file is the only place the request-path APIs of the program are
//! named (the README lists them): a refactor of `scs-dssp`'s entry points
//! changes this file and nothing else in the benchmark. The isolated
//! probes in `probes.rs` name layer functions directly — that is their
//! point — and are listed in the README too.

use crate::workloads::{Inputs, Topology};
use scs_apps::{home_shard_map, DsspWorkload, FleetWorkload, ShardedWorkload};
use scs_dssp::{
    Dssp, DsspStats, FleetConfig, HomeServer, ProxyFleet, QueryResponse, RoutingMode, ShardedHome,
    UpdateResponse,
};
use scs_netsim::{RunMetrics, SimConfig, SystemSpec, SEC};
use scs_sqlkit::{Query, SelectItem, Update, Value};
use scs_storage::{Database, QueryResult, StorageError};
use std::sync::Arc;

/// Spans the program's own recorder may hold when it is switched on —
/// above any pass's span count, so nothing is dropped.
const SPAN_CAPACITY: usize = 1 << 21;

pub enum Sut {
    Single {
        dssp: Dssp,
        home: HomeServer,
    },
    Sharded {
        dssp: Dssp,
        home: ShardedHome,
        /// The oracle's master copy: a sharded home has no single
        /// database to ask, so traced runs feed an unsharded shadow the
        /// same accepted updates.
        shadow: Option<Database>,
    },
    Fleet(ProxyFleet),
}

impl Sut {
    /// Builds the system for `topology` over `inputs`' database and
    /// configuration. `with_oracle` keeps what [`Sut::master_execute`]
    /// needs (only the sharded home needs anything).
    pub fn build(topology: Topology, inputs: &Inputs, with_oracle: bool) -> Sut {
        let config = inputs.config.clone();
        let db = inputs.db.clone();
        match topology {
            Topology::Single => Sut::Single {
                dssp: Dssp::new(config),
                home: HomeServer::new(db),
            },
            Topology::Shards(n) => Sut::Sharded {
                dssp: Dssp::new(config),
                shadow: with_oracle.then(|| db.clone()),
                home: ShardedHome::new(db, home_shard_map(&inputs.def, n)),
            },
            Topology::Fleet(n) => Sut::Fleet(ProxyFleet::new(
                config,
                HomeServer::new(db),
                FleetConfig::reliable(n, RoutingMode::HashByTemplate),
            )),
        }
    }

    pub fn query(&mut self, q: &Query) -> Result<QueryResponse, StorageError> {
        match self {
            Sut::Single { dssp, home } => dssp.execute_query(q, home),
            Sut::Sharded { dssp, home, .. } => dssp.execute_query_sharded(q, home),
            Sut::Fleet(fleet) => fleet.execute_query(q).map(|r| r.resp),
        }
    }

    pub fn update(&mut self, u: &Update) -> Result<UpdateResponse, StorageError> {
        match self {
            Sut::Single { dssp, home } => dssp.execute_update(u, home),
            Sut::Sharded { dssp, home, .. } => dssp.execute_update_sharded(u, home).map(|r| r.0),
            Sut::Fleet(fleet) => fleet.execute_update(u).map(|r| r.resp),
        }
    }

    fn master(&self) -> &Database {
        match self {
            Sut::Single { home, .. } => home.database(),
            Sut::Sharded { shadow, .. } => shadow
                .as_ref()
                .expect("sharded oracle needs build(with_oracle = true)"),
            Sut::Fleet(fleet) => fleet.home().database(),
        }
    }

    /// The oracle: is `served` an answer to `q` on the master copy as it
    /// stands now? Either it equals the master's own answer as a multiset,
    /// or the query has a top-k cut and `served` is another right answer:
    /// rows tied with the k-th on the `ORDER BY` keys (every row, when
    /// there is no `ORDER BY`) are interchangeable, and which of them a
    /// plan returns depends on storage order.
    pub fn oracle_accepts(&self, q: &Query, served: &QueryResult) -> bool {
        let master = self.master();
        let Ok(truth) = master.execute(q) else {
            return false;
        };
        if truth.multiset_eq(served) {
            return true;
        }
        if q.template.limit.is_none()
            || served.columns != truth.columns
            || served.len() != truth.len()
        {
            return false;
        }
        // The uncut answer in `ORDER BY` order, each row followed by its keys.
        let width = q.template.select.len();
        let mut wide = (*q.template).clone();
        wide.limit = None;
        let keys = wide
            .order_by
            .iter()
            .map(|k| SelectItem::Column(k.column.clone()));
        wide.select.extend(keys.collect::<Vec<_>>());
        let Ok(wide) = Query::bind(q.template_id, Arc::new(wide), q.params.clone()) else {
            return false;
        };
        let Ok(all) = master.execute(&wide) else {
            return false;
        };
        let Some(cut_row) = served.len().checked_sub(1).and_then(|i| all.rows.get(i)) else {
            return false;
        };
        let cut_key = &cut_row[width..];
        let tie_start = all
            .rows
            .iter()
            .position(|row| &row[width..] == cut_key)
            .expect("the k-th row carries the cut key");
        // Everything ahead of the tie group must be served; the rest of
        // the served rows must come out of the tie group.
        let mut ahead: Vec<&[Value]> = all.rows[..tie_start].iter().map(|r| &r[..width]).collect();
        let mut tied: Vec<&[Value]> = all.rows[tie_start..]
            .iter()
            .take_while(|row| &row[width..] == cut_key)
            .map(|r| &r[..width])
            .collect();
        let take = |pool: &mut Vec<&[Value]>, row: &[Value]| {
            pool.iter()
                .position(|r| *r == row)
                .map(|i| pool.swap_remove(i))
                .is_some()
        };
        served
            .rows
            .iter()
            .all(|row| take(&mut ahead, row) || take(&mut tied, row))
            && ahead.is_empty()
    }

    /// Tells the oracle an update was accepted (outside any timed span).
    pub fn oracle_note_update(&mut self, u: &Update) {
        if let Sut::Sharded {
            shadow: Some(shadow),
            ..
        } = self
        {
            shadow
                .apply(u)
                .expect("the shadow master accepts what the sharded home accepted");
        }
    }

    /// Sums `f` over every home server (one, or one per shard).
    fn home_sum(&self, f: impl Fn(&HomeServer) -> u64) -> u64 {
        match self {
            Sut::Single { home, .. } => f(home),
            Sut::Sharded { home, .. } => (0..home.shard_count()).map(|s| f(home.shard(s))).sum(),
            Sut::Fleet(fleet) => f(fleet.home()),
        }
    }

    /// Nanoseconds the home tier has spent executing against the master
    /// copy so far — the `home` child span is this counter's delta
    /// across one call.
    pub fn home_nanos(&self) -> u64 {
        self.home_sum(HomeServer::service_nanos)
    }

    /// Switches on the program's own span recorder (the
    /// `telemetry.spans_on_ratio` run).
    pub fn enable_program_spans(&mut self) {
        match self {
            Sut::Single { dssp, .. } | Sut::Sharded { dssp, .. } => {
                dssp.enable_span_recording(SPAN_CAPACITY)
            }
            Sut::Fleet(fleet) => fleet.enable_span_recording(SPAN_CAPACITY),
        }
    }

    /// The program's public counters after a pass. Every field repeats
    /// exactly for a fixed seed.
    pub fn counters(&self) -> Counters {
        let (stats, cache_entries) = match self {
            Sut::Single { dssp, .. } | Sut::Sharded { dssp, .. } => {
                (dssp.stats(), dssp.cache_len())
            }
            Sut::Fleet(fleet) => (fleet.rollup_stats(), fleet.total_cache_entries()),
        };
        Counters {
            stats,
            cache_entries: cache_entries as u64,
            home_queries: self.home_sum(HomeServer::queries_served),
            home_updates: self.home_sum(HomeServer::updates_applied),
            scatter_queries: match self {
                Sut::Sharded { home, .. } => home.scatter_queries(),
                _ => 0,
            },
            fanout_msgs: match self {
                Sut::Fleet(fleet) => fleet.fanout_stats().pipes.iter().map(|p| p.sent).sum(),
                _ => 0,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub stats: DsspStats,
    pub cache_entries: u64,
    /// Query executions at the home tier (a scatter-gather counts once
    /// per participating shard).
    pub home_queries: u64,
    pub home_updates: u64,
    pub scatter_queries: u64,
    /// Invalidation batches put on replica pipes (fleet only).
    pub fanout_msgs: u64,
}

/// Simulated users of the sim-time trial, and its trial length: half of
/// `Fidelity::quick()`'s, because the sharded workload's trial executes
/// ~1 ms scatter queries for real and must fit the per-run time cap.
const SIM_USERS: usize = 256;
const SIM_DURATION_SECS: u64 = 90;
const SIM_WARMUP_SECS: u64 = 15;

/// One `scs_netsim` trial of the workload's own configuration: the
/// simulator's workload driver over the same database, exposures, cache
/// capacity and request weights, on the matching system shape.
pub fn sim_trial(topology: Topology, inputs: Inputs, zipf_exponent: f64, seed: u64) -> RunMetrics {
    let mut cfg = SimConfig::paper(SIM_USERS, seed);
    cfg.duration = SIM_DURATION_SECS * SEC;
    cfg.warmup = SIM_WARMUP_SECS * SEC;
    let Inputs {
        def,
        db,
        ids,
        config,
    } = inputs;
    match topology {
        Topology::Single => {
            let mut w = DsspWorkload::with_config(&def, db, ids, config, zipf_exponent, seed);
            scs_netsim::run(&cfg, &mut w)
        }
        Topology::Shards(n) => {
            cfg.spec = SystemSpec::with_home_shards(n);
            let map = home_shard_map(&def, n);
            let mut w =
                ShardedWorkload::new(&def, db, ids, config.exposures, map, zipf_exponent, seed);
            scs_netsim::run(&cfg, &mut w)
        }
        Topology::Fleet(n) => {
            cfg.spec = SystemSpec::with_dssp_nodes(n);
            let fleet = FleetConfig::reliable(n, RoutingMode::HashByTemplate);
            let mut w =
                FleetWorkload::with_config(&def, db, ids, config, fleet, zipf_exponent, seed);
            scs_netsim::run(&cfg, &mut w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_inputs, find, gen_stream, BoundOp};
    use scs_sqlkit::Value;

    fn auction_queries() -> (Sut, Vec<Query>) {
        let spec = find("auction_view").unwrap();
        let inputs = build_inputs(spec, 42);
        let stream = gen_stream(spec, &inputs, 42, 300);
        let queries = stream
            .iter()
            .flat_map(|r| &r.ops)
            .filter_map(|op| match op {
                BoundOp::Query(q) => Some(q.clone()),
                BoundOp::Update(_) | BoundOp::RejectedUpdate(_) => None,
            })
            .collect();
        (Sut::build(spec.topology, &inputs, true), queries)
    }

    #[test]
    fn oracle_accepts_the_masters_answer_and_rejects_a_changed_one() {
        let (sut, queries) = auction_queries();
        let mut rejected = 0;
        for q in &queries {
            let truth = sut.master().execute(q).unwrap();
            assert!(sut.oracle_accepts(q, &truth));
            if truth.is_empty() {
                continue;
            }
            let mut short = truth.clone();
            short.rows.pop();
            assert!(
                !sut.oracle_accepts(q, &short),
                "a missing row goes unnoticed: {q}"
            );
            let mut wrong = truth.clone();
            wrong.rows[0] = vec![Value::Int(-1); truth.columns.len()];
            assert!(
                !sut.oracle_accepts(q, &wrong),
                "a changed row goes unnoticed: {q}"
            );
            rejected += 1;
        }
        assert!(rejected > 100, "only {rejected} non-empty answers sampled");
    }

    /// `ORDER BY it_nb_of_bids DESC LIMIT 10`: many items tie at the cut, and
    /// which of them a plan returns depends on storage order (a sharded
    /// home gathers rows shard by shard).
    #[test]
    fn oracle_accepts_another_choice_among_rows_tied_at_the_cut() {
        let (sut, queries) = auction_queries();
        let q = queries
            .iter()
            .find(|q| q.template.limit == Some(10) && !q.template.order_by.is_empty())
            .expect("the most-bids page is in the mix");
        let truth = sut.master().execute(q).unwrap();
        let mut uncut = (*q.template).clone();
        uncut.limit = None;
        let uncut = Query::bind(q.template_id, Arc::new(uncut), q.params.clone()).unwrap();
        let all = sut.master().execute(&uncut).unwrap();
        let key = |row: &[Value]| row[2].clone(); // it_nb_of_bids
        let cut = key(truth.rows.last().unwrap());
        let beyond = &all.rows[truth.len()..];
        let tied = beyond
            .iter()
            .find(|r| key(r) == cut)
            .expect("seed 42 ties at the cut");
        let worse = beyond
            .iter()
            .find(|r| key(r) != cut)
            .expect("rows below the cut");

        let mut swapped = truth.clone();
        *swapped.rows.last_mut().unwrap() = tied.clone();
        assert!(sut.oracle_accepts(q, &swapped));
        *swapped.rows.last_mut().unwrap() = worse.clone();
        assert!(
            !sut.oracle_accepts(q, &swapped),
            "a row from below the cut is no answer"
        );
        // A better row may not be displaced by a tied one either.
        let mut displaced = truth.clone();
        displaced.rows[0] = tied.clone();
        assert_eq!(
            key(&truth.rows[0]) != cut,
            !sut.oracle_accepts(q, &displaced)
        );
    }
}
