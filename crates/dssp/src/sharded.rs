//! The sharded home tier: one [`HomeServer`] per partition, per-shard
//! epoched invalidation streams, and scatter-gather routing.
//!
//! A [`ShardedHome`] splits the master database across N shards under a
//! [`PartitionMap`] (see `scs-storage`): every shard carries the full
//! catalog but only its own rows, and every shard runs its own
//! [`HomeServer`] — its own WAL, its own monotone update epoch, and its
//! own invalidation stream, labeled with the shard id (stream id =
//! shard id) on the freshness plane. The single global epoch of the
//! classic home becomes a *vector* of per-shard epochs; replicas merge
//! the streams with one gap/duplicate cursor per shard (see
//! `Dssp::apply_invalidation_from`).
//!
//! To the proxy a sharded home is a home like any other: [`ShardedHome`]
//! implements [`Home`] (an answer names the shards it came from, an
//! update the shard that owns it), and the proxy's one request pipeline
//! and one delivery protocol run over it — there is no sharded copy of
//! either.
//!
//! Routing:
//!
//! * **updates** route to the owning shard ([`PartitionMap::shard_for_update`])
//!   and consume one epoch on that shard's stream only;
//! * **single-shard queries** (the common case — the §2.1 workloads
//!   restrict by key) route to the one owner and execute there;
//! * **cross-shard queries** scatter: the one plan the classic home
//!   would run executes once, reading each `FROM` table as a
//!   [`PartitionedTable`] — the owning shards' own tables, in ascending
//!   shard id, probed through their own equality indexes. No row is
//!   copied and no index built; the result is, rows and order, what the
//!   plan returns on one table holding the parts' rows in that order
//!   (`scs_storage::executor`'s row-order contract). Each participant
//!   is charged an equal share of the service time; the home-bound cost
//!   model in `scs-netsim` prices the cross-shard traffic explicitly.
//!
//! Referential integrity across shards: a shard database applies
//! statements *unchecked* (its FK parents may live elsewhere), so the
//! sharded home verifies every FK probe of an insert against the
//! parent's owner shard **before** routing
//! ([`Database::check_foreign_keys_with`] /
//! [`PartitionMap::shard_for_key`] / [`Database::fk_parent_exists`]). A
//! violation is refused up front and consumes **no epoch on any
//! stream** — exactly the classic home's "failed updates change
//! nothing" contract, lifted across shards.
//!
//! A 1-shard [`ShardedHome`] built over [`PartitionMap::single`] is
//! op-for-op equivalent to a classic [`HomeServer`]: every statement
//! routes to shard 0, stream 0, and the epoch sequence, WAL,
//! invalidation messages, proxy counters and trace events are identical
//! (pinned by `tests/sharded.rs`).

use crate::delivery::InvalidationMsg;
use crate::home::{Home, HomeServer};
use scs_sqlkit::{Query, Update};
use scs_storage::{
    executor, Database, PartitionMap, PartitionedTable, PlanMemo, QueryResult, StorageError,
    UpdateEffect,
};
use scs_telemetry::SharedProvenance;

/// One query answered by the sharded home tier.
#[derive(Debug, Clone)]
pub struct ShardedQueryResponse {
    pub result: QueryResult,
    /// Participating shards, ascending. One element = routed; more =
    /// scatter-gathered.
    pub shards: Vec<usize>,
}

/// One update applied by the sharded home tier.
#[derive(Debug, Clone)]
pub struct ShardedUpdateResponse {
    pub effect: UpdateEffect,
    /// The owning shard — also the invalidation stream `msg` rides on.
    pub shard: usize,
    /// Epoch-stamped for the owning shard's stream.
    pub msg: InvalidationMsg,
}

/// The home tier as a set of per-shard [`HomeServer`]s behind one
/// routing facade.
#[derive(Debug, Clone)]
pub struct ShardedHome {
    map: PartitionMap,
    shards: Vec<HomeServer>,
    /// The plans of the templates scattered so far, over the catalog every
    /// shard carries (a routed query is planned by its shard's database).
    plans: PlanMemo,
    /// Cross-shard scatter-gather queries executed (0 when every query
    /// pins one shard).
    scatter_queries: u64,
    /// Updates refused by the cross-shard FK handshake before routing.
    fk_rejects: u64,
}

impl ShardedHome {
    /// Partitions `db` under `map` and boots one [`HomeServer`] per
    /// shard, each labeled with its shard id as its invalidation-stream
    /// id. Panics if the map references a column the schema lacks
    /// (partitioning is configuration; a bad map is a bug, not input).
    pub fn new(db: Database, map: PartitionMap) -> ShardedHome {
        let shard_dbs = map
            .partition(&db)
            .expect("partition map must agree with the schema");
        let shards = shard_dbs
            .into_iter()
            .enumerate()
            .map(|(id, sdb)| {
                let mut h = HomeServer::new(sdb);
                h.set_stream_label(id as u64);
                h
            })
            .collect();
        ShardedHome {
            map,
            shards,
            plans: PlanMemo::default(),
            scatter_queries: 0,
            fk_rejects: 0,
        }
    }

    /// The partition map routing this tier.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's home server (read access).
    pub fn shard(&self, id: usize) -> &HomeServer {
        &self.shards[id]
    }

    /// The per-shard epoch vector: `epochs()[s]` is stream `s`'s tip.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|h| h.epoch()).collect()
    }

    /// Stream `shard`'s current epoch.
    pub fn epoch_of(&self, shard: usize) -> u64 {
        self.shards[shard].epoch()
    }

    /// Cross-shard scatter-gather queries executed.
    pub fn scatter_queries(&self) -> u64 {
        self.scatter_queries
    }

    /// Updates refused by the cross-shard FK handshake (no epoch was
    /// consumed on any stream for these).
    pub fn fk_rejects(&self) -> u64 {
        self.fk_rejects
    }

    /// Attaches one shared freshness plane to every shard; each shard
    /// stamps commits on its own stream (stream id = shard id).
    pub fn attach_provenance(&mut self, prov: SharedProvenance) {
        for h in &mut self.shards {
            h.attach_provenance(prov.clone());
        }
    }

    /// Advances every shard's simulated clock.
    pub fn set_sim_time_micros(&mut self, micros: u64) {
        for h in &mut self.shards {
            h.set_sim_time_micros(micros);
        }
    }

    /// Executes a query: routed to the one owner shard when the
    /// partition map pins it, scattered across the participants
    /// otherwise.
    pub fn execute_query(&mut self, q: &Query) -> Result<ShardedQueryResponse, StorageError> {
        let shards = self.map.shards_for_query(q);
        if let [only] = shards[..] {
            let result = self.shards[only].execute_query(q)?;
            return Ok(ShardedQueryResponse { result, shards });
        }
        let start = std::time::Instant::now();
        // Every shard owning a slice of a table contributes its part, a
        // pinned alias's table included: the restriction that pinned it
        // filters the other parts' rows out.
        let mut tables = Vec::with_capacity(q.template.from.len());
        for tref in &q.template.from {
            let parts = self
                .map
                .table_shards(&tref.table)
                .map(|owner| self.shards[owner].database().table(&tref.table));
            tables.push(parts.collect::<Result<PartitionedTable, _>>()?);
        }
        self.scatter_queries += 1;
        let result = executor::execute_partitioned(&self.plans, q, tables)?;
        let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let share = elapsed / shards.len().max(1) as u64;
        for &s in &shards {
            self.shards[s].note_scatter_query(share);
        }
        Ok(ShardedQueryResponse { result, shards })
    }

    /// Applies an update: cross-shard FK probes verify against the
    /// parents' owner shards first, then the statement routes to its
    /// owning shard, whose stream gains exactly one epoch. A refused
    /// update — FK violation or any storage error — consumes no epoch
    /// on any stream.
    pub fn execute_update(&mut self, u: &Update) -> Result<ShardedUpdateResponse, StorageError> {
        // Any shard can plan the statement (full catalog everywhere);
        // shard 0 stands in for routing decisions and probe extraction.
        // An insert's row is bound once, here: it routes the statement,
        // carries the FK probes' keys, and is the row the owner stores.
        let catalog = self.shards[0].database();
        let candidate = catalog.insert_candidate(u)?;
        let owner = self
            .map
            .shard_for_candidate(catalog, u, candidate.as_ref())?;
        if let Some(row) = &candidate {
            let checked = catalog.check_foreign_keys_with(u.template.table(), row, |fk, key| {
                let holders =
                    match self
                        .map
                        .shard_for_key(&fk.parent_table, &fk.parent_columns, key)
                    {
                        Some(s) => s..s + 1,
                        None => self.map.table_shards(&fk.parent_table),
                    };
                for s in holders {
                    if self.shards[s].database().fk_parent_exists(fk, key)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            });
            if let Err(e) = checked {
                if matches!(e, StorageError::ForeignKeyViolation { .. }) {
                    self.fk_rejects += 1;
                }
                return Err(e);
            }
        }
        let (effect, msg) = self.shards[owner].apply_update_unchecked(u, candidate)?;
        Ok(ShardedUpdateResponse {
            effect,
            shard: owner,
            msg,
        })
    }
}

/// One stream per shard (stream id = shard id): an answer depends on
/// the shards it was routed or scattered to, an update is owned by the
/// shard it routes to.
impl Home for ShardedHome {
    type Streams = Vec<u64>;

    fn answer(&mut self, q: &Query) -> Result<(QueryResult, Vec<u64>), StorageError> {
        let resp = self.execute_query(q)?;
        let streams = resp.shards.iter().map(|&s| s as u64).collect();
        Ok((resp.result, streams))
    }

    fn apply(&mut self, u: &Update) -> Result<(UpdateEffect, u64, InvalidationMsg), StorageError> {
        let resp = self.execute_update(u)?;
        Ok((resp.effect, resp.shard as u64, resp.msg))
    }

    fn epoch_of(&self, stream: u64) -> u64 {
        self.shards
            .get(stream as usize)
            .map_or(0, HomeServer::epoch)
    }
}
