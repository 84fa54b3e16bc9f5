//! A test-only reference for `Table`'s index lists: the scheme the table
//! kept before each key column was indexed once. It holds a primary-key map
//! beside the equality indexes, posts every value as a `Vec` of row ids,
//! and on a modify takes the row out of every equality list and pushes it
//! back, whether or not that list's column changed.
//!
//! It keeps no rows' order of its own beyond the slots and the lists, and
//! no ordered index: what it answers is the lists `Table::index_lookup`
//! yields (ids *and* order), `Table::pk_lookup`, the ids `insert` hands
//! out and the error a refused insert gives.

use scs_sqlkit::Value;
use scs_storage::{Row, RowId, StorageError, TableSchema};
use std::collections::HashMap;

pub struct ReferenceTable {
    schema: TableSchema,
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    pk_index: HashMap<Vec<Value>, RowId>,
    pk_positions: Vec<usize>,
    /// (column position, value -> row ids in insertion order).
    eq_indexes: Vec<(usize, HashMap<Value, Vec<RowId>>)>,
}

impl ReferenceTable {
    pub fn new(schema: TableSchema) -> ReferenceTable {
        let position = |c: &String| schema.column_index(c).unwrap();
        let pk_positions = schema.primary_key.iter().map(position).collect();
        let eq_indexes = schema
            .indexed_columns()
            .iter()
            .map(|c| (position(c), HashMap::new()))
            .collect();
        ReferenceTable {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            pk_index: HashMap::new(),
            pk_positions,
            eq_indexes,
        }
    }

    pub fn index_lookup(&self, pos: usize, v: &Value) -> Option<&[RowId]> {
        let (_, idx) = self.eq_indexes.iter().find(|(p, _)| *p == pos)?;
        Some(idx.get(v).map_or(&[], Vec::as_slice))
    }

    pub fn pk_lookup(&self, key: &[Value]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    fn pk_of(&self, row: &Row) -> Vec<Value> {
        self.pk_positions.iter().map(|&p| row[p].clone()).collect()
    }

    /// Rows of the right arity and types only: the checks before the key
    /// check are the table's own and not modelled here.
    pub fn insert(&mut self, row: Row) -> Result<RowId, StorageError> {
        if !self.pk_positions.is_empty() {
            let key = self.pk_of(&row);
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
        self.index_add(id);
        Ok(id)
    }

    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        self.slots.get(id)?.as_ref()?;
        self.index_remove(id);
        self.free.push(id);
        self.slots[id].take()
    }

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

    fn index_add(&mut self, id: RowId) {
        let row = self.slots[id].clone().unwrap();
        if !self.pk_positions.is_empty() {
            self.pk_index.insert(self.pk_of(&row), id);
        }
        for (pos, idx) in &mut self.eq_indexes {
            idx.entry(row[*pos].clone()).or_default().push(id);
        }
    }

    fn index_remove(&mut self, id: RowId) {
        let row = self.slots[id].clone().unwrap();
        if !self.pk_positions.is_empty() {
            self.pk_index.remove(&self.pk_of(&row));
        }
        for (pos, idx) in &mut self.eq_indexes {
            let ids = idx.get_mut(&row[*pos]).unwrap();
            let at = ids.iter().position(|x| *x == id).unwrap();
            ids.swap_remove(at);
            if ids.is_empty() {
                idx.remove(&row[*pos]);
            }
        }
    }
}
