//! Row storage with slot reuse, primary-key enforcement, and equality
//! indexes.

use crate::error::StorageError;
use crate::schema::TableSchema;
use scs_sqlkit::Value;
use std::collections::HashMap;

/// A stored row: values in schema column order.
pub type Row = Vec<Value>;

/// Stable row identifier within a table (slot index; slots are reused after
/// deletion, so an id is only meaningful while the row is live).
pub type RowId = usize;

/// A table: schema + slotted row storage + indexes.
///
/// Equality compares the *full physical state* — schema, slot layout
/// (including dead slots and the free list), and indexes — so two tables
/// compare equal exactly when they are byte-for-byte interchangeable.
/// WAL replay (see `wal`) is pinned against this: recovery must land on
/// the identical physical state, not merely the same logical rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: TableSchema,
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    /// Composite primary key -> row id (absent when the table is keyless).
    pk_index: HashMap<Vec<Value>, RowId>,
    pk_positions: Vec<usize>,
    /// Single-column equality indexes: column position -> value -> row ids.
    eq_indexes: HashMap<usize, HashMap<Value, Vec<RowId>>>,
}

impl Table {
    /// Creates an empty table for `schema` (assumed validated).
    pub fn new(schema: TableSchema) -> Table {
        let pk_positions = schema
            .primary_key
            .iter()
            .map(|c| schema.column_index(c).expect("validated schema"))
            .collect();
        let eq_indexes = schema
            .indexed_columns()
            .iter()
            .map(|c| {
                (
                    schema.column_index(c).expect("validated schema"),
                    HashMap::new(),
                )
            })
            .collect();
        Table {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_index: HashMap::new(),
            pk_positions,
            eq_indexes,
        }
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots, live or dead: one past the largest row id in use.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The row stored at `id`, if live.
    pub fn row(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id).and_then(|s| s.as_ref())
    }

    /// The row stored at `id`, or [`StorageError::DanglingRow`]: the fetch
    /// every query and update path goes through, so that an id which
    /// outlived its row surfaces as an error, not a process abort.
    pub(crate) fn live_row(&self, id: RowId) -> Result<&Row, StorageError> {
        self.row(id).ok_or_else(|| StorageError::DanglingRow {
            table: self.schema.name.clone(),
            id,
        })
    }

    /// Iterates over `(RowId, &Row)` for all live rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.as_ref().map(|r| (id, r)))
    }

    /// Row ids whose indexed column `pos` equals `v` (empty if no index or
    /// no match). Returns `None` when the column has no index.
    pub fn index_lookup(&self, pos: usize, v: &Value) -> Option<&[RowId]> {
        self.eq_indexes
            .get(&pos)
            .map(|idx| idx.get(v).map_or(&[][..], |ids| ids.as_slice()))
    }

    /// Whether column position `pos` carries an equality index.
    pub fn has_index(&self, pos: usize) -> bool {
        self.eq_indexes.contains_key(&pos)
    }

    /// Looks up a row by its full primary key.
    pub fn pk_lookup(&self, key: &[Value]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Type-checks and inserts a full row (schema column order), enforcing
    /// primary-key uniqueness. Returns the new row's id.
    pub fn insert(&mut self, row: Row) -> Result<RowId, StorageError> {
        if row.len() != self.schema.columns.len() {
            return Err(StorageError::BadInsert(format!(
                "table `{}` has {} columns, row has {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (col, v) in self.schema.columns.iter().zip(&row) {
            if !col.ty.admits(v) {
                return Err(StorageError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                    value: v.clone(),
                });
            }
        }
        if !self.pk_positions.is_empty() {
            let key = pk_of(&self.pk_positions, &row);
            if self.pk_index.contains_key(&key) {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key,
                });
            }
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id] = Some(row);
                id
            }
            None => {
                self.slots.push(Some(row));
                self.slots.len() - 1
            }
        };
        self.live += 1;
        self.index_add(id);
        Ok(id)
    }

    /// Removes the row at `id`; returns the removed row.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        if self.slots.get(id)?.is_none() {
            return None;
        }
        self.index_remove(id);
        let row = self.slots[id].take();
        self.free.push(id);
        self.live -= 1;
        row
    }

    /// Replaces non-key attributes of the row at `id`. `changes` maps column
    /// positions to new values (positions must be non-key, pre-validated by
    /// the database layer). Returns the old row.
    pub fn modify(&mut self, id: RowId, changes: &[(usize, Value)]) -> Option<Row> {
        self.slots.get(id)?.as_ref()?;
        self.index_remove(id);
        let row = self.slots[id].as_mut()?;
        let old = row.clone();
        for (pos, v) in changes {
            row[*pos] = v.clone();
        }
        self.index_add(id);
        Some(old)
    }

    // Both index maintainers read the key columns from the stored row
    // itself, borrowing `slots` and the index maps side by side.

    fn index_add(&mut self, id: RowId) {
        let Table {
            slots,
            pk_positions,
            pk_index,
            eq_indexes,
            ..
        } = self;
        let Some(row) = slots.get(id).and_then(Option::as_ref) else {
            return;
        };
        if !pk_positions.is_empty() {
            pk_index.insert(pk_of(pk_positions, row), id);
        }
        for (pos, idx) in eq_indexes.iter_mut() {
            idx.entry(row[*pos].clone()).or_default().push(id);
        }
    }

    fn index_remove(&mut self, id: RowId) {
        let Table {
            slots,
            pk_positions,
            pk_index,
            eq_indexes,
            ..
        } = self;
        let Some(row) = slots.get(id).and_then(Option::as_ref) else {
            return;
        };
        if !pk_positions.is_empty() {
            pk_index.remove(&pk_of(pk_positions, row));
        }
        for (pos, idx) in eq_indexes.iter_mut() {
            if let Some(ids) = idx.get_mut(&row[*pos]) {
                if let Some(at) = ids.iter().position(|x| *x == id) {
                    ids.swap_remove(at);
                }
                if ids.is_empty() {
                    idx.remove(&row[*pos]);
                }
            }
        }
    }
}

fn pk_of(pk_positions: &[usize], row: &Row) -> Vec<Value> {
    pk_positions.iter().map(|&p| row[p].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn toys_table() -> Table {
        Table::new(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .index("toy_name")
                .build()
                .unwrap(),
        )
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        vec![Value::Int(id), Value::str(name), Value::Int(qty)]
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = toys_table();
        let id = t.insert(row(1, "bear", 10)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(id).unwrap()[1], Value::str("bear"));
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), Some(id));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = toys_table();
        t.insert(row(1, "bear", 10)).unwrap();
        assert!(matches!(
            t.insert(row(1, "car", 2)),
            Err(StorageError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = toys_table();
        let r = t.insert(vec![Value::str("x"), Value::str("bear"), Value::Int(1)]);
        assert!(matches!(r, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = toys_table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn delete_frees_slot_and_indexes() {
        let mut t = toys_table();
        let a = t.insert(row(1, "bear", 10)).unwrap();
        t.insert(row(2, "car", 5)).unwrap();
        assert_eq!(t.delete(a).unwrap()[0], Value::Int(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), None);
        assert!(t.delete(a).is_none(), "double delete is a no-op");
        // Slot reuse.
        let c = t.insert(row(3, "kite", 7)).unwrap();
        assert_eq!(c, a);
        // PK 1 is free again.
        t.insert(row(1, "bear2", 1)).unwrap();
    }

    #[test]
    fn eq_index_tracks_changes() {
        let mut t = toys_table();
        let name_pos = 1;
        let a = t.insert(row(1, "bear", 10)).unwrap();
        let b = t.insert(row(2, "bear", 3)).unwrap();
        let ids = t.index_lookup(name_pos, &Value::str("bear")).unwrap();
        assert_eq!(
            {
                let mut v = ids.to_vec();
                v.sort();
                v
            },
            vec![a, b]
        );
        t.modify(b, &[(2, Value::Int(9)), (name_pos, Value::str("wolf"))]);
        assert_eq!(t.index_lookup(name_pos, &Value::str("bear")).unwrap(), &[a]);
        assert_eq!(t.index_lookup(name_pos, &Value::str("wolf")).unwrap(), &[b]);
        t.delete(a);
        assert!(t
            .index_lookup(name_pos, &Value::str("bear"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unindexed_column_lookup_is_none() {
        let t = toys_table();
        assert!(t.index_lookup(2, &Value::Int(10)).is_none());
        assert!(t.has_index(0));
        assert!(!t.has_index(2));
    }

    #[test]
    fn modify_updates_pk_free_of_changes() {
        let mut t = toys_table();
        let a = t.insert(row(1, "bear", 10)).unwrap();
        let old = t.modify(a, &[(2, Value::Int(99))]).unwrap();
        assert_eq!(old[2], Value::Int(10));
        assert_eq!(t.row(a).unwrap()[2], Value::Int(99));
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), Some(a));
    }

    #[test]
    fn iter_skips_dead_rows() {
        let mut t = toys_table();
        let a = t.insert(row(1, "a", 1)).unwrap();
        t.insert(row(2, "b", 2)).unwrap();
        t.delete(a);
        let ids: Vec<RowId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 1);
    }
}
