//! Epoch-stamped write-ahead log with snapshot + replay.
//!
//! The home tier's durability substrate: every master write appends one
//! record stamped with the update epoch it produced, so the log is a
//! total order aligned with the invalidation stream. A crashed server
//! rebuilds its exact pre-crash state by replaying the log over the last
//! snapshot — *physically* exact (`Database` equality compares slot
//! layout and indexes), which is what lets a recovered primary resume an
//! epoch stream that proxies are mid-way through consuming.
//!
//! Two record forms cover the two master-write pathways:
//!
//! * [`WalPayload::Statement`] — the DSSP update pathway. The statement
//!   (template + bound parameters) is the record; replay re-executes it.
//! * [`WalPayload::Checkpoint`] — an out-of-band write
//!   (`HomeServer::mutate_database` runs an arbitrary closure, which is
//!   not replayable) or a promotion barrier. The record carries the full
//!   post-write state; replay installs it wholesale.
//!
//! The log also serves as the replication ship source: a primary streams
//! `records_since(standby_acked_epoch)` to each standby (see
//! `scs_dssp::replication`), and a promoted standby's log *is* its
//! recovery story.

use crate::database::Database;
use crate::error::StorageError;
use scs_sqlkit::Update;

/// What one WAL record replays as.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// A statement-form master write: replay applies the statement.
    Statement(Update),
    /// A full-state image: replay replaces the database with it. Written
    /// for out-of-band mutations (closures are not replayable) and for
    /// promotion barriers (the fenced state a new primary resumes from).
    Checkpoint(Database),
}

/// One durable log record: the epoch the write produced plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The update epoch this write advanced the master to (post-write).
    pub epoch: u64,
    pub payload: WalPayload,
}

/// The write-ahead log: a base snapshot plus an epoch-ordered run of
/// records.
///
/// Invariant: record epochs are strictly increasing above `base_epoch`.
/// Statement appends must be exactly contiguous (`last_epoch() + 1`);
/// a **checkpoint** may land at any higher epoch, representing the
/// interior skipped epochs as an explicit, permanent gap — this is how
/// a promotion barrier rolls a lost tail into one record instead of
/// one full-state clone per skipped epoch. Replay treats gap epochs as
/// no-ops: the state at a gap epoch is the state at the last record at
/// or below it. [`Wal::compact_to`] folds a prefix into the base
/// snapshot without changing what replay produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wal {
    base: Database,
    base_epoch: u64,
    records: Vec<WalRecord>,
}

impl Wal {
    /// Opens a log whose base snapshot is `base` as of `base_epoch`.
    pub fn new(base: Database, base_epoch: u64) -> Wal {
        Wal {
            base,
            base_epoch,
            records: Vec::new(),
        }
    }

    /// The epoch of the base snapshot (everything at or below it is
    /// folded into `base`).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The highest epoch the log covers; replaying the whole log lands
    /// exactly here.
    pub fn last_epoch(&self) -> u64 {
        self.records.last().map_or(self.base_epoch, |r| r.epoch)
    }

    /// Number of un-compacted records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one record. A statement's epoch must be exactly
    /// `last_epoch() + 1`; a checkpoint may land at any higher epoch
    /// (it carries the full state, so the skipped interior becomes an
    /// explicit gap). Anything else is a sequencing bug in the caller
    /// and panics.
    pub fn append(&mut self, record: WalRecord) {
        match record.payload {
            WalPayload::Statement(_) => assert_eq!(
                record.epoch,
                self.last_epoch() + 1,
                "WAL append out of order: got epoch {}, expected {}",
                record.epoch,
                self.last_epoch() + 1
            ),
            WalPayload::Checkpoint(_) => assert!(
                record.epoch > self.last_epoch(),
                "WAL append out of order: checkpoint epoch {} not above tip {}",
                record.epoch,
                self.last_epoch()
            ),
        }
        self.records.push(record);
    }

    /// Appends a statement record for `epoch`.
    pub fn append_statement(&mut self, epoch: u64, update: Update) {
        self.append(WalRecord {
            epoch,
            payload: WalPayload::Statement(update),
        });
    }

    /// Appends a checkpoint record for `epoch` carrying `state`.
    pub fn append_checkpoint(&mut self, epoch: u64, state: Database) {
        self.append(WalRecord {
            epoch,
            payload: WalPayload::Checkpoint(state),
        });
    }

    /// The records strictly above `epoch` — what a standby acked through
    /// `epoch` still needs. Clamped: asking below the base returns every
    /// record (the caller must resync from a snapshot if the gap matters,
    /// which [`Wal::covers`] detects).
    pub fn records_since(&self, epoch: u64) -> &[WalRecord] {
        let from = self.records.partition_point(|r| r.epoch <= epoch);
        &self.records[from..]
    }

    /// Whether the log can still serve records strictly above `epoch`
    /// (i.e. nothing needed has been compacted away).
    pub fn covers(&self, epoch: u64) -> bool {
        epoch >= self.base_epoch
    }

    /// Replays the log through `epoch` (which must lie in
    /// `[base_epoch, last_epoch()]`), returning the reconstructed state.
    /// An `epoch` inside a checkpoint gap replays to the last record at
    /// or below it (gap epochs carry no writes on this stream).
    ///
    /// Statement replay re-executes writes that already succeeded once
    /// against the same state sequence, so a replay error means the log
    /// itself is corrupt; it surfaces as `Err` rather than a panic so
    /// recovery code can refuse the log.
    pub fn replay_to(&self, epoch: u64) -> Result<Database, StorageError> {
        assert!(
            epoch >= self.base_epoch && epoch <= self.last_epoch(),
            "replay target {} outside log range [{}, {}]",
            epoch,
            self.base_epoch,
            self.last_epoch()
        );
        let upto = self.records.partition_point(|r| r.epoch <= epoch);
        let mut db = self.base.clone();
        for record in &self.records[..upto] {
            match &record.payload {
                WalPayload::Statement(u) => {
                    // The record was FK-validated when it first
                    // committed; replay must not re-fail against a
                    // partially rebuilt parent set.
                    db.apply_unchecked(u)?;
                }
                WalPayload::Checkpoint(state) => db = state.clone(),
            }
        }
        Ok(db)
    }

    /// Replays the full log: the crashed server's exact last state.
    pub fn replay(&self) -> Result<Database, StorageError> {
        self.replay_to(self.last_epoch())
    }

    /// Folds every record at or below `epoch` into the base snapshot.
    /// Replay results are unchanged; records below the new base are no
    /// longer individually shippable.
    pub fn compact_to(&mut self, epoch: u64) -> Result<(), StorageError> {
        if epoch <= self.base_epoch {
            return Ok(());
        }
        let state = self.replay_to(epoch)?;
        let upto = self.records.partition_point(|r| r.epoch <= epoch);
        self.records.drain(..upto);
        self.base = state;
        self.base_epoch = epoch;
        Ok(())
    }

    /// Discards every record strictly above `epoch` — a deposed primary
    /// rewinding its divergent unreplicated tail before rejoining as a
    /// standby. Returns the dropped records (the accounted loss).
    pub fn truncate_after(&mut self, epoch: u64) -> Vec<WalRecord> {
        if epoch >= self.last_epoch() {
            return Vec::new();
        }
        let keep = self.records.partition_point(|r| r.epoch <= epoch);
        self.records.split_off(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use scs_sqlkit::{parse_update, Value};
    use std::sync::Arc;

    /// `toys`, ordered on the column list `(qty, toy_id)`: physical equality
    /// of the replayed state covers that index's permutation, which the
    /// inserts extend and the modifies of `qty` re-key.
    fn seed_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .ordered_index_on(&["qty", "toy_id"])
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

    fn modify(id: i64, qty: i64) -> Update {
        Update::bind(
            1,
            Arc::new(parse_update("UPDATE toys SET qty = ? WHERE toy_id = ?").unwrap()),
            vec![Value::Int(qty), Value::Int(id)],
        )
        .unwrap()
    }

    /// Drives a live database and a WAL side by side through a scripted
    /// mix of statements and out-of-band checkpoints; at every prefix the
    /// replayed state must equal the live state *physically*.
    #[test]
    fn replay_is_byte_identical_at_every_prefix() {
        let mut live = seed_db();
        let mut wal = Wal::new(live.clone(), 0);
        let mut epoch = 0u64;
        for step in 0..40u64 {
            epoch += 1;
            if step % 7 == 3 {
                // Out-of-band write: mutate directly, checkpoint the state.
                live.insert_row("toys", vec![Value::Int(1000 + step as i64), Value::Int(1)])
                    .unwrap();
                wal.append_checkpoint(epoch, live.clone());
            } else if step % 3 == 0 {
                let u = insert(100 + step as i64, step as i64);
                live.apply(&u).unwrap();
                wal.append_statement(epoch, u);
            } else {
                let u = modify(1, step as i64);
                live.apply(&u).unwrap();
                wal.append_statement(epoch, u);
            }
            assert_eq!(wal.replay().unwrap(), live, "diverged at epoch {epoch}");
        }
        // Replay to an interior epoch matches the state the live db had
        // there — spot-check by re-deriving from a fresh replay chain.
        let mid = wal.replay_to(20).unwrap();
        let mut wal2 = Wal::new(seed_db(), 0);
        for r in wal.records_since(0).iter().take(20) {
            wal2.append(r.clone());
        }
        assert_eq!(wal2.replay().unwrap(), mid);
    }

    #[test]
    fn compaction_preserves_replay_and_ship_window() {
        let mut live = seed_db();
        let mut wal = Wal::new(live.clone(), 0);
        for e in 1..=10u64 {
            let u = insert(e as i64 + 100, e as i64);
            live.apply(&u).unwrap();
            wal.append_statement(e, u);
        }
        let full = wal.replay().unwrap();
        wal.compact_to(6).unwrap();
        assert_eq!(wal.base_epoch(), 6);
        assert_eq!(wal.last_epoch(), 10);
        assert_eq!(wal.replay().unwrap(), full);
        assert_eq!(wal.records_since(6).len(), 4);
        assert!(wal.covers(6));
        assert!(!wal.covers(5), "compacted epochs are gone");
        assert_eq!(full, live);
    }

    #[test]
    fn truncate_after_drops_the_divergent_tail() {
        let mut live = seed_db();
        let mut wal = Wal::new(live.clone(), 0);
        for e in 1..=8u64 {
            let u = insert(e as i64 + 100, e as i64);
            live.apply(&u).unwrap();
            wal.append_statement(e, u);
        }
        let dropped = wal.truncate_after(5);
        assert_eq!(dropped.len(), 3);
        assert_eq!(dropped[0].epoch, 6);
        assert_eq!(wal.last_epoch(), 5);
        // The rewound log replays to the epoch-5 state.
        let mut expect = seed_db();
        for e in 1..=5u64 {
            expect.apply(&insert(e as i64 + 100, e as i64)).unwrap();
        }
        assert_eq!(wal.replay().unwrap(), expect);
        assert!(wal.truncate_after(5).is_empty(), "idempotent at the tip");
    }

    #[test]
    #[should_panic(expected = "WAL append out of order")]
    fn out_of_order_append_panics() {
        let mut wal = Wal::new(seed_db(), 0);
        wal.append_statement(2, insert(5, 5));
    }

    /// A checkpoint may jump the epoch, leaving an explicit gap — the
    /// promotion-barrier form. One record covers the whole lost tail,
    /// gap epochs replay as no-ops, and statement contiguity resumes
    /// from the checkpoint's epoch.
    #[test]
    fn checkpoint_jump_leaves_an_explicit_gap() {
        let mut live = seed_db();
        let mut wal = Wal::new(live.clone(), 0);
        for e in 1..=3u64 {
            let u = insert(e as i64 + 100, e as i64);
            live.apply(&u).unwrap();
            wal.append_statement(e, u);
        }
        // Barrier over a 6-epoch lost tail: exactly one record.
        wal.append_checkpoint(10, live.clone());
        assert_eq!(wal.last_epoch(), 10);
        assert_eq!(wal.len(), 4);
        // Gap epochs replay to the last record at or below them.
        let at_gap = wal.replay_to(7).unwrap();
        assert_eq!(at_gap, wal.replay_to(3).unwrap());
        assert_eq!(wal.replay().unwrap(), live);
        // The ship window skips the gap: nothing owed between 3 and 10.
        assert_eq!(wal.records_since(3).len(), 1);
        assert_eq!(wal.records_since(3)[0].epoch, 10);
        assert_eq!(wal.records_since(7).len(), 1, "gap epochs owe nothing");
        // Contiguity resumes above the checkpoint.
        let u = insert(200, 1);
        live.apply(&u).unwrap();
        wal.append_statement(11, u);
        assert_eq!(wal.replay().unwrap(), live);
        // Compaction and truncation stay epoch-keyed across the gap.
        let full = wal.replay().unwrap();
        let mut compacted = wal.clone();
        compacted.compact_to(7).unwrap();
        assert_eq!(compacted.base_epoch(), 7);
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted.replay().unwrap(), full);
        let dropped = wal.truncate_after(6);
        assert_eq!(dropped.len(), 2, "checkpoint and trailing statement");
        assert_eq!(wal.last_epoch(), 3);
    }

    #[test]
    #[should_panic(expected = "WAL append out of order")]
    fn checkpoint_at_or_below_tip_panics() {
        let mut live = seed_db();
        let mut wal = Wal::new(live.clone(), 0);
        let u = insert(101, 1);
        live.apply(&u).unwrap();
        wal.append_statement(1, u);
        wal.append_checkpoint(1, live);
    }
}
