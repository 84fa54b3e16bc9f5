//! Table / key-hash partitioning over [`Database`] — the storage half
//! of the sharded home tier.
//!
//! A [`PartitionMap`] assigns every table to shards in one of two ways
//! (the DDIA "Partitioning" patterns):
//!
//! * **table placement** — the whole table lives on one shard, picked
//!   explicitly or by a stable hash of the table name (the default);
//! * **key-hash placement** — rows spread over *all* shards by a stable
//!   hash of one column's value, so a statement restricted by that
//!   column routes to exactly one shard and everything else scatters.
//!   Hashing trades range locality for load balance: a Zipf-hot head of
//!   the key space scatters uniformly instead of piling onto the one
//!   shard a sorted-boundary split would give it (which is why the
//!   key-range placement this replaced is gone).
//!
//! [`PartitionMap::partition`] materializes the shard databases: every
//! shard carries the **full catalog** (all table schemas) but only the
//! rows of the tables (or hash slices) it owns. Keeping the catalog
//! everywhere lets any shard bind, type-check, and execute any
//! statement — only the data is partitioned — and is what makes
//! cross-shard scatter-gather a pure data-movement problem.
//!
//! Referential integrity across shards is deliberately **not** this
//! layer's job: a shard database applies statements through
//! [`Database::apply_unchecked`], and the sharded home verifies FK
//! probes against the parent's owner shard before routing (see
//! `scs-dssp`'s sharded home). [`PartitionMap::shard_for_key`] is the
//! routing half of that handshake.

use crate::database::Database;
use crate::error::StorageError;
use crate::table::Row;
use scs_sqlkit::{CmpOp, Query, Update, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

/// Where one table's rows live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TablePlacement {
    /// The whole table on one shard.
    Shard(usize),
    /// Rows spread over all the map's shards by a stable hash of
    /// `column`'s value: inserts route by the candidate row,
    /// deletes/modifies and queries pin a shard via an equality
    /// restriction on `column`, and hot keys scatter uniformly.
    Hash { column: String },
}

impl TablePlacement {
    /// The shard, of a map's `shards`, owning a row whose partition-column
    /// value is `v` (a whole-table placement ignores `v`).
    fn route(&self, v: &Value, shards: usize) -> usize {
        match self {
            TablePlacement::Shard(s) => *s,
            TablePlacement::Hash { .. } => hash_value_shard(v, shards),
        }
    }
}

/// A table/key-hash partitioning map over a [`Database`].
#[derive(Debug, Clone)]
pub struct PartitionMap {
    shards: usize,
    placements: BTreeMap<String, TablePlacement>,
}

impl PartitionMap {
    /// The trivial 1-shard map: everything on shard 0. A sharded home
    /// built over this map is op-for-op equivalent to the classic
    /// single home.
    pub fn single() -> PartitionMap {
        PartitionMap::by_table(1)
    }

    /// Table-granularity map over `shards` shards: each table hashes to
    /// one shard by name (stable across runs), overridable per table
    /// via [`PartitionMap::with_placement`].
    pub fn by_table(shards: usize) -> PartitionMap {
        assert!(shards >= 1, "a partition map covers at least one shard");
        PartitionMap {
            shards,
            placements: BTreeMap::new(),
        }
    }

    /// Pins `table` to an explicit placement. Panics if the placement
    /// names a shard outside the map.
    pub fn with_placement(mut self, table: &str, placement: TablePlacement) -> PartitionMap {
        // Hash placement spreads over however many shards the map has —
        // nothing to validate.
        if let TablePlacement::Shard(s) = &placement {
            assert!(*s < self.shards, "shard {s} outside 0..{}", self.shards)
        }
        self.placements.insert(table.to_string(), placement);
        self
    }

    /// Number of shards the map covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The placement of `table` (the hash default if never pinned).
    pub fn placement(&self, table: &str) -> Cow<'_, TablePlacement> {
        match self.placements.get(table) {
            Some(p) => Cow::Borrowed(p),
            None => Cow::Owned(TablePlacement::Shard(hash_shard(table, self.shards))),
        }
    }

    /// Every shard holding any part of `table`, ascending.
    pub fn table_shards(&self, table: &str) -> Range<usize> {
        match &*self.placement(table) {
            TablePlacement::Shard(s) => *s..*s + 1,
            TablePlacement::Hash { .. } => 0..self.shards,
        }
    }

    /// The shard owning a row of `table` whose partition-column value is
    /// `v` (tables under `Shard` placement ignore `v`).
    pub fn route_value(&self, table: &str, v: &Value) -> usize {
        self.placement(table).route(v, self.shards)
    }

    /// The single shard a probe on `table` restricted to `columns = key`
    /// routes to, or `None` when the restriction does not pin one (the
    /// caller must scatter over [`PartitionMap::table_shards`]).
    pub fn shard_for_key(&self, table: &str, columns: &[String], key: &[Value]) -> Option<usize> {
        let placement = self.placement(table);
        match &*placement {
            TablePlacement::Shard(s) => Some(*s),
            TablePlacement::Hash { column } => columns
                .iter()
                .position(|c| c == column)
                .map(|i| placement.route(&key[i], self.shards)),
        }
    }

    /// The shard an update statement routes to. Inserts on hash-split
    /// tables route by the candidate row's partition-column
    /// value; deletes/modifies need an equality restriction on the
    /// partition column (the §2.1 benchmark updates restrict by primary
    /// key, which splits are declared on).
    pub fn shard_for_update(&self, db: &Database, u: &Update) -> Result<usize, StorageError> {
        self.shard_for_candidate(db, u, db.insert_candidate(u)?.as_ref())
    }

    /// [`PartitionMap::shard_for_update`] for a caller that already holds
    /// `u`'s [`Database::insert_candidate`].
    pub fn shard_for_candidate(
        &self,
        db: &Database,
        u: &Update,
        candidate: Option<&Row>,
    ) -> Result<usize, StorageError> {
        let table = u.template.table();
        let placement = self.placement(table);
        let column = match &*placement {
            TablePlacement::Shard(s) => return Ok(*s),
            TablePlacement::Hash { column } => column,
        };
        if let Some(row) = candidate {
            let schema = db.table(table)?.schema();
            let pos = schema
                .column_index(column)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: table.to_string(),
                    column: column.to_string(),
                })?;
            return Ok(placement.route(&row[pos], self.shards));
        }
        u.template
            .predicates()
            .iter()
            .find_map(|p| {
                p.as_restriction()
                    .filter(|(c, op, _)| *op == CmpOp::Eq && c.column == *column)
                    .map(|(_, _, s)| placement.route(u.resolve(s), self.shards))
            })
            .ok_or_else(|| {
                StorageError::BadModify(format!(
                    "update on partitioned `{table}` lacks an equality \
                     restriction on partition column `{column}`"
                ))
            })
    }

    /// Every shard a query touches: the union over its `FROM` tables,
    /// with a hash-split table narrowed to one shard when
    /// the query carries an equality restriction on the partition
    /// column. Ascending and deduplicated; a single-element result
    /// means the query executes wholly on that shard.
    pub fn shards_for_query(&self, q: &Query) -> Vec<usize> {
        let mut out = Vec::new();
        for tref in &q.template.from {
            let placement = self.placement(&tref.table);
            match &*placement {
                TablePlacement::Shard(s) => out.push(*s),
                TablePlacement::Hash { column } => {
                    let pinned = q.template.predicates.iter().find_map(|p| {
                        p.as_restriction()
                            .filter(|(c, op, _)| {
                                *op == CmpOp::Eq && c.qualifier == tref.alias && c.column == *column
                            })
                            .map(|(_, _, s)| placement.route(q.resolve(s), self.shards))
                    });
                    match pinned {
                        Some(s) => out.push(s),
                        None => out.extend(self.table_shards(&tref.table)),
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Materializes the shard databases: every shard gets the full
    /// catalog, each row goes to its owner shard.
    pub fn partition(&self, db: &Database) -> Result<Vec<Database>, StorageError> {
        let mut out = vec![Database::new(); self.shards];
        for name in db.table_names() {
            let table = db.table(name)?;
            for shard in &mut out {
                shard.create_table(table.schema().clone())?;
            }
            let placement = self.placement(name);
            match &*placement {
                TablePlacement::Shard(s) => {
                    for (_, row) in table.iter() {
                        out[*s].insert_row(name, row.clone())?;
                    }
                }
                TablePlacement::Hash { column } => {
                    let pos = table.schema().column_index(column).ok_or_else(|| {
                        StorageError::UnknownColumn {
                            table: name.to_string(),
                            column: column.clone(),
                        }
                    })?;
                    for (_, row) in table.iter() {
                        out[placement.route(&row[pos], self.shards)]
                            .insert_row(name, row.clone())?;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Stable table-name hash → shard (FNV-1a folded through one splitmix64
/// round, so placement never shifts between runs or platforms).
fn hash_shard(table: &str, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in table.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    (splitmix64(h) % shards as u64) as usize
}

/// Stable value hash → shard for [`TablePlacement::Hash`]: a canonical
/// byte encoding folded through FNV-1a + splitmix64, so routing never
/// shifts between runs or platforms.
fn hash_value_shard(v: &Value, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    match v {
        Value::Int(i) => eat(&i.to_le_bytes()),
        Value::Real(r) => eat(&r.get().to_bits().to_le_bytes()),
        Value::Str(s) => eat(s.as_bytes()),
    }
    (splitmix64(h) % shards.max(1) as u64) as usize
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use scs_sqlkit::{parse_query, parse_update};
    use std::sync::Arc;

    fn two_table_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("users")
                .column("user_id", ColumnType::Int)
                .column("name", ColumnType::Str)
                .primary_key(&["user_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("items")
                .column("item_id", ColumnType::Int)
                .column("seller", ColumnType::Int)
                .primary_key(&["item_id"])
                .foreign_key(&["seller"], "users", &["user_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for id in 0..6 {
            db.insert_row("users", vec![Value::Int(id), Value::str(format!("u{id}"))])
                .unwrap();
        }
        for id in 0..6 {
            db.insert_row("items", vec![Value::Int(id), Value::Int(id % 3)])
                .unwrap();
        }
        db
    }

    #[test]
    fn single_map_puts_everything_on_shard_zero() {
        let db = two_table_db();
        let map = PartitionMap::single();
        let shards = map.partition(&db).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], db, "1-shard partition is the identity");
    }

    #[test]
    fn table_placement_splits_rows_but_replicates_the_catalog() {
        let db = two_table_db();
        let map = PartitionMap::by_table(2)
            .with_placement("users", TablePlacement::Shard(0))
            .with_placement("items", TablePlacement::Shard(1));
        let shards = map.partition(&db).unwrap();
        // Both shards know both schemas...
        for s in &shards {
            assert!(s.table("users").is_ok());
            assert!(s.table("items").is_ok());
        }
        // ...but each holds only its own rows.
        assert_eq!(shards[0].table("users").unwrap().len(), 6);
        assert_eq!(shards[0].table("items").unwrap().len(), 0);
        assert_eq!(shards[1].table("items").unwrap().len(), 6);
        assert_eq!(map.table_shards("users"), 0..1);
    }

    #[test]
    fn unpinned_update_on_a_split_table_is_rejected_loudly() {
        let db = two_table_db();
        let map = PartitionMap::by_table(2).with_placement(
            "items",
            TablePlacement::Hash {
                column: "item_id".into(),
            },
        );
        let u = Update::bind(
            0,
            Arc::new(parse_update("DELETE FROM items WHERE seller = ?").unwrap()),
            vec![Value::Int(0)],
        )
        .unwrap();
        assert!(matches!(
            map.shard_for_update(&db, &u),
            Err(StorageError::BadModify(_))
        ));
    }

    #[test]
    fn shard_for_key_pins_fk_probes() {
        let map = PartitionMap::by_table(4)
            .with_placement("users", TablePlacement::Shard(3))
            .with_placement(
                "items",
                TablePlacement::Hash {
                    column: "item_id".into(),
                },
            );
        assert_eq!(
            map.shard_for_key("users", &["user_id".into()], &[Value::Int(1)]),
            Some(3)
        );
        assert_eq!(
            map.shard_for_key("items", &["item_id".into()], &[Value::Int(11)]),
            Some(map.route_value("items", &Value::Int(11)))
        );
        // A probe not on the partition column cannot pin a shard.
        assert_eq!(
            map.shard_for_key("items", &["seller".into()], &[Value::Int(1)]),
            None
        );
    }

    #[test]
    fn hash_placement_scatters_rows_and_pins_keyed_statements() {
        let db = two_table_db();
        let map = PartitionMap::by_table(3)
            .with_placement("users", TablePlacement::Shard(0))
            .with_placement(
                "items",
                TablePlacement::Hash {
                    column: "item_id".into(),
                },
            );
        assert_eq!(map.table_shards("items"), 0..3);
        let shards = map.partition(&db).unwrap();
        // Every row landed exactly where route_value says, and the
        // shard populations cover all six rows.
        let total: usize = shards.iter().map(|s| s.table("items").unwrap().len()).sum();
        assert_eq!(total, 6);
        for id in 0..6 {
            let owner = map.route_value("items", &Value::Int(id));
            let t = shards[owner].table("items").unwrap();
            assert!(
                t.iter().any(|(_, r)| r[0] == Value::Int(id)),
                "item {id} missing from its owner shard {owner}"
            );
        }
        // Keyed statements pin the owner; unkeyed ones scatter.
        let del = Update::bind(
            0,
            Arc::new(parse_update("DELETE FROM items WHERE item_id = ?").unwrap()),
            vec![Value::Int(5)],
        )
        .unwrap();
        assert_eq!(
            map.shard_for_update(&db, &del).unwrap(),
            map.route_value("items", &Value::Int(5))
        );
        let pinned = Query::bind(
            0,
            Arc::new(parse_query("SELECT seller FROM items WHERE item_id = ?").unwrap()),
            vec![Value::Int(4)],
        )
        .unwrap();
        assert_eq!(
            map.shards_for_query(&pinned),
            vec![map.route_value("items", &Value::Int(4))]
        );
        let scatter = Query::bind(
            0,
            Arc::new(parse_query("SELECT item_id FROM items WHERE seller = ?").unwrap()),
            vec![Value::Int(0)],
        )
        .unwrap();
        assert_eq!(map.shards_for_query(&scatter), vec![0, 1, 2]);
        assert_eq!(
            map.shard_for_key("items", &["item_id".into()], &[Value::Int(4)]),
            Some(map.route_value("items", &Value::Int(4)))
        );
    }

    #[test]
    fn hash_default_is_stable_and_in_range() {
        let map = PartitionMap::by_table(4);
        for t in ["users", "items", "bids", "comments", "regions"] {
            let s = map.table_shards(t);
            assert_eq!(s.len(), 1);
            assert!(s.start < 4);
            assert_eq!(s, map.table_shards(t), "placement is deterministic");
        }
    }
}
