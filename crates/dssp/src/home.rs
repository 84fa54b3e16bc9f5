//! The application home server: master copies of all data (Figure 1).
//!
//! Every successfully applied update bumps a **monotone update epoch**,
//! and the epoch is stamped on the invalidation notification the home
//! server hands back (see [`crate::delivery::InvalidationMsg`]). Proxies
//! track the last epoch they applied; a skipped epoch is proof that an
//! invalidation was lost (or that the master was written out of band) and
//! triggers a recovery flush. This turns silent delivery failures —
//! the one failure mode a transparent-invalidation system must rule
//! out — into detected, recoverable events.

use crate::delivery::InvalidationMsg;
use crate::replication::{CommitAck, FailoverRecord};
use scs_sqlkit::{Query, Update};
use scs_storage::{Database, QueryResult, Row, StorageError, UpdateEffect, Wal};
/// The home tier as the proxy's request pipeline sees it: the four
/// questions [`crate::Dssp`] asks of whatever holds the master copy,
/// plus the three hooks a [`crate::ProxyFleet`] drives (the stream tips
/// a joiner handshakes at, the commit after a write, the clock tick),
/// whose defaults are a lone server's. A [`HomeServer`] answers for its
/// one invalidation stream, a [`crate::HomeGroup`] for its current
/// primary, a [`crate::ShardedHome`] for one stream per shard — so
/// every entry point of the proxy and of the fleet runs over any of the
/// three.
pub trait Home {
    /// The invalidation streams one answer depends on, ascending. A
    /// single-stream home returns an array, so a miss allocates nothing
    /// for it.
    type Streams: AsRef<[u64]>;

    /// Whether a trip can be made now. The pipeline asks before every
    /// trip (and to flag a hit served meanwhile as degraded) and calls
    /// nothing else on a home that answers `false`.
    fn is_up(&self) -> bool {
        true
    }

    /// Answers a query on the master copy: the result and the streams
    /// whose updates could change it.
    fn answer(&mut self, q: &Query) -> Result<(QueryResult, Self::Streams), StorageError>;

    /// Applies an update to the master copy: the effect, the stream that
    /// owns it, and the notification stamped with that stream's new
    /// epoch. A refused update consumes no epoch on any stream.
    fn apply(&mut self, u: &Update) -> Result<(UpdateEffect, u64, InvalidationMsg), StorageError>;

    /// The last epoch issued on `stream` (0 for a stream this home does
    /// not have).
    fn epoch_of(&self, stream: u64) -> u64;

    /// Every stream's tip, indexed by stream id: where a joining proxy
    /// handshakes and a restarted one restarts.
    fn tips(&self) -> Vec<u64> {
        vec![self.epoch_of(0)]
    }

    /// The step after a write applied on `stream`: replication, and the
    /// ack its client gets. A lone server acks at once.
    fn commit_write(&mut self, stream: u64, _now_micros: u64) -> CommitAck {
        CommitAck {
            acked: true,
            epoch: self.epoch_of(stream),
            wait_micros: 0,
        }
    }

    /// Advances the tier's clock to `now_micros`: every failover it has
    /// completed so far (a tier that cannot fail over has none).
    fn advance_clock(&mut self, _now_micros: u64) -> &[FailoverRecord] {
        &[]
    }
}

/// Wraps the master database with simple accounting — the home server's
/// load (queries served on cache misses + updates) is what limits
/// scalability in the evaluation — plus the update-epoch counter that
/// sequences the invalidation stream.
#[derive(Debug, Clone, Default)]
pub struct HomeServer {
    db: Database,
    queries_served: u64,
    updates_applied: u64,
    /// Monotone sequence number of the last applied master write
    /// (updates *and* out-of-band [`HomeServer::mutate_database`] calls).
    epoch: u64,
    /// Total wall-clock time spent executing queries and updates against
    /// the master copy (ns) — the home side of the span pipeline's
    /// `home_trip` phase.
    service_nanos: u64,
    /// The durable write-ahead log: every master write — statement-form
    /// updates *and* out-of-band [`HomeServer::mutate_database`] calls —
    /// appends one epoch-stamped record. The log is what survives a
    /// crash ([`HomeServer::crash`] / [`HomeServer::recover`]) and what
    /// a replication group ships to standbys.
    wal: Wal,
}

impl HomeServer {
    pub fn new(db: Database) -> HomeServer {
        let wal = Wal::new(db.clone(), 0);
        HomeServer {
            db,
            queries_served: 0,
            updates_applied: 0,
            epoch: 0,
            service_nanos: 0,
            wal,
        }
    }

    /// Rebuilds a home server from a durable log: the database is the
    /// log's full replay and the epoch resumes at the log's tip. This is
    /// both crash recovery (replaying your own log) and standby
    /// promotion (replaying the log you were shipped). Load accounting
    /// restarts at zero — the process is new even if the state is not.
    /// Panics if the log is corrupt (a record fails to re-apply).
    pub fn recover(wal: Wal) -> HomeServer {
        let db = wal
            .replay()
            .expect("WAL records re-apply cleanly: corrupt log");
        HomeServer {
            db,
            queries_served: 0,
            updates_applied: 0,
            epoch: wal.last_epoch(),
            service_nanos: 0,
            wal,
        }
    }

    /// Crashes the server: the in-memory state is gone; only the durable
    /// log survives, and this returns it.
    pub fn crash(self) -> Wal {
        self.wal
    }

    /// The durable log (read access: replication ships from here).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Folds every log record at or below `epoch` into the base
    /// snapshot, bounding log growth. Records below the new base can no
    /// longer be shipped individually — callers must keep the compaction
    /// point at or below every standby's acked epoch.
    pub fn compact_wal_to(&mut self, epoch: u64) {
        self.wal
            .compact_to(epoch)
            .expect("WAL records re-apply cleanly: corrupt log");
    }

    /// Advances the epoch to exactly `epoch` (which must be ahead) by
    /// writing one checkpoint record — the **promotion barrier**. A
    /// standby promoted after a failover calls this with the group's
    /// high-water epoch + 1: epochs the dead primary issued but never
    /// replicated become a permanent, *detectable* gap in the stream
    /// (never reused for different content), and the checkpoint pins the
    /// fenced state the new primary resumes from.
    pub fn advance_epoch_to(&mut self, epoch: u64) {
        assert!(
            epoch > self.epoch,
            "promotion barrier must move the epoch forward: {} -> {}",
            self.epoch,
            epoch
        );
        // One checkpoint record at the barrier epoch; the interior
        // skipped epochs become an explicit WAL gap (the gap is the
        // point), so the barrier costs O(database), not O(gap ×
        // database).
        self.epoch = epoch;
        self.wal.append_checkpoint(epoch, self.db.clone());
    }

    /// Executes a query against the master copy (a DSSP cache miss).
    pub fn execute_query(&mut self, q: &Query) -> Result<QueryResult, StorageError> {
        self.queries_served += 1;
        let start = std::time::Instant::now();
        let result = self.db.execute(q);
        self.service_nanos = self
            .service_nanos
            .saturating_add(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        result
    }

    /// Accounts one scatter-gather sub-query served by this shard
    /// (`nanos` of master service time) without executing anything: the
    /// sharded home executes the gathered plan once centrally and
    /// charges each participating shard its share of the work.
    pub fn note_scatter_query(&mut self, nanos: u64) {
        self.queries_served += 1;
        self.service_nanos = self.service_nanos.saturating_add(nanos);
    }

    /// Applies an update to the master copy; on success the update epoch
    /// advances and the epoch-stamped invalidation notification for the
    /// proxy-bound stream is returned alongside the effect. Failed
    /// updates change nothing and do **not** consume an epoch.
    pub fn apply_update(
        &mut self,
        u: &Update,
    ) -> Result<(UpdateEffect, InvalidationMsg), StorageError> {
        self.apply_update_inner(u, true, None)
    }

    /// [`HomeServer::apply_update`] without the storage-level FK check.
    /// A sharded home owns only its shard's rows, so a child row's parent
    /// may legitimately live on another shard; the sharded home verifies
    /// every FK probe against the parent's owner shard *before* routing
    /// here (see `crate::sharded::ShardedHome`), making the local check
    /// both wrong (spurious violations) and redundant. `candidate` is the
    /// [`Database::insert_candidate`] of `u` it routed and verified by.
    pub fn apply_update_unchecked(
        &mut self,
        u: &Update,
        candidate: Option<Row>,
    ) -> Result<(UpdateEffect, InvalidationMsg), StorageError> {
        self.apply_update_inner(u, false, candidate)
    }

    fn apply_update_inner(
        &mut self,
        u: &Update,
        check_fks: bool,
        candidate: Option<Row>,
    ) -> Result<(UpdateEffect, InvalidationMsg), StorageError> {
        self.updates_applied += 1;
        let start = std::time::Instant::now();
        // Busy until the notification is built: the WAL append is the
        // home's work too. A refused update stops the clock at once.
        let applied = if check_fks {
            self.db.apply(u)
        } else {
            self.db.apply_routed(u, candidate)
        }
        .map(|effect| {
            self.epoch += 1;
            self.wal.append_statement(self.epoch, u.clone());
            let msg = InvalidationMsg {
                epoch: self.epoch,
                update: u.clone(),
            };
            (effect, msg)
        });
        self.service_nanos = self
            .service_nanos
            .saturating_add(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        applied
    }

    /// The current update epoch: the sequence number of the most recent
    /// master write. Piggybacked on query responses so proxies can
    /// handshake after a restart.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Read access for tests and ground-truth checks (not part of the DSSP
    /// pathway).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutates the master copy outside the DSSP update pathway
    /// (test fixtures, administrative repairs). The write consumes an
    /// epoch **without** emitting an invalidation, so the next message a
    /// proxy receives exposes a gap and forces a recovery flush — an
    /// out-of-band write can desynchronize a cache only detectably,
    /// never silently.
    ///
    /// The write is durable: the closure is not replayable, so the WAL
    /// records the full post-write state as a checkpoint under the
    /// consumed epoch. A crash after an out-of-band write therefore
    /// recovers it, and it still surfaces to proxies as exactly one gap.
    /// The epoch advances and the checkpoint lands only after the
    /// closure returns — a panicking closure consumes nothing, leaving
    /// epoch and WAL consistent.
    pub fn mutate_database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        let r = f(&mut self.db);
        self.epoch += 1;
        self.wal.append_checkpoint(self.epoch, self.db.clone());
        r
    }

    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Total wall-clock time spent executing against the master copy
    /// (ns).
    pub fn service_nanos(&self) -> u64 {
        self.service_nanos
    }
}

/// A home server is the one invalidation stream 0.
impl Home for HomeServer {
    type Streams = [u64; 1];

    fn answer(&mut self, q: &Query) -> Result<(QueryResult, [u64; 1]), StorageError> {
        Ok((self.execute_query(q)?, [0]))
    }

    fn apply(&mut self, u: &Update) -> Result<(UpdateEffect, u64, InvalidationMsg), StorageError> {
        let (effect, msg) = self.apply_update(u)?;
        Ok((effect, 0, msg))
    }

    fn epoch_of(&self, stream: u64) -> u64 {
        if stream == 0 {
            self.epoch
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_sqlkit::{parse_update, Value};
    use scs_storage::{ColumnType, TableSchema};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn seed_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert_row("toys", vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        db
    }

    fn insert(id: i64, qty: i64) -> Update {
        Update::bind(
            0,
            Arc::new(parse_update("INSERT INTO toys (toy_id, qty) VALUES (?, ?)").unwrap()),
            vec![Value::Int(id), Value::Int(qty)],
        )
        .unwrap()
    }

    /// A panicking out-of-band mutation must not consume an epoch: the
    /// epoch advances and the checkpoint lands only after the closure
    /// returns, so the server stays usable (no "WAL append out of
    /// order" wedge on the next write).
    #[test]
    fn panicking_out_of_band_mutation_consumes_nothing() {
        let mut h = HomeServer::new(seed_db());
        let before = h.epoch();
        let wal_len = h.wal().len();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            h.mutate_database(|_db| -> () { panic!("mutation failed") });
        }));
        assert!(caught.is_err());
        assert_eq!(h.epoch(), before, "no epoch consumed");
        assert_eq!(h.wal().len(), wal_len, "no record appended");
        // The server is not wedged: the normal pathway still works and
        // the log still replays to the live state.
        h.apply_update(&insert(2, 2)).expect("server still usable");
        assert_eq!(h.epoch(), before + 1);
        assert_eq!(h.wal().replay().unwrap(), *h.database());
    }

    /// The promotion barrier is one checkpoint record no matter how
    /// wide the lost tail: the interior epochs become an explicit WAL
    /// gap instead of one full-state clone each.
    #[test]
    fn promotion_barrier_is_one_record_regardless_of_gap() {
        let mut h = HomeServer::new(seed_db());
        h.apply_update(&insert(2, 2)).unwrap();
        let len = h.wal().len();
        h.advance_epoch_to(1_000); // a 998-epoch lost tail
        assert_eq!(h.epoch(), 1_000);
        assert_eq!(h.wal().len(), len + 1, "one checkpoint, not one per epoch");
        assert_eq!(h.wal().last_epoch(), 1_000);
        let recovered = HomeServer::recover(h.wal().clone());
        assert_eq!(recovered.epoch(), 1_000);
        assert_eq!(recovered.database(), h.database());
    }
}
