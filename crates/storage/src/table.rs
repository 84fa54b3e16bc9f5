//! Row storage with slot reuse, primary-key enforcement, equality indexes
//! and ordered indexes.
//!
//! The equality indexes sit in *slots*: one per column of
//! [`TableSchema::indexed_columns`], in that order, so a query plan names an
//! index by a number it resolved once (`TableSchema::index_slot`) and a
//! probe is one hash look-up. Each key column is indexed once: the primary
//! key's columns come first in that list, and the key is looked up and
//! enforced through its first column's slot. A value held by one row — every
//! value of a key column — posts that row's id inline, with no list. The
//! index maps hash through the crate's keyed hasher (`hash.rs`); table
//! equality compares their contents, never their layout.

use crate::error::StorageError;
use crate::hash::KeyMap;
use crate::schema::TableSchema;
use scs_sqlkit::{CmpOp, Value};
use std::cmp::Ordering;

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
    /// The primary key's column positions (empty when the table is
    /// keyless); the first one's equality index is slot 0.
    pk_positions: Vec<usize>,
    /// Single-column equality indexes, slot by slot: (column position,
    /// value -> row ids in insertion order).
    eq_indexes: Vec<(usize, KeyMap<Value, Posting>)>,
    /// Ordered indexes, one per declared column list: the key columns'
    /// positions -> the live row ids sorted by `(Value::cmp of each key
    /// column in turn, row id)`. A permutation, not a tree: four bytes a
    /// row, keys read through the rows; an insert or a removal shifts the
    /// ids behind its position.
    ord_indexes: Vec<(Vec<usize>, Vec<u32>)>,
}

impl Table {
    /// Creates an empty table for `schema`, if [`TableSchema::validate`] passes.
    pub fn new(schema: TableSchema) -> Result<Table, StorageError> {
        schema.validate()?;
        // Validated: every key and index column resolves.
        let position = |c: &String| schema.column_index(c);
        let pk_positions = schema.primary_key.iter().filter_map(position).collect();
        let eq_indexes = schema
            .indexed_columns()
            .iter()
            .filter_map(|c| Some((position(c)?, KeyMap::default())))
            .collect();
        let mut ord_indexes: Vec<(Vec<usize>, Vec<u32>)> = Vec::new();
        for list in &schema.ordered_indexes {
            let cols: Vec<usize> = list.iter().filter_map(position).collect();
            if !ord_indexes.iter().any(|(c, _)| *c == cols) {
                ord_indexes.push((cols, Vec::new()));
            }
        }
        Ok(Table {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_positions,
            eq_indexes,
            ord_indexes,
        })
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

    /// Row ids whose column `pos` equals `v`, in the order its equality
    /// index lists them (empty when nothing matches); `None` when the
    /// column has no equality index.
    pub fn index_lookup(&self, pos: usize, v: &Value) -> Option<&[RowId]> {
        let slot = self.eq_indexes.iter().position(|(p, _)| *p == pos)?;
        Some(self.slot_lookup(slot, v))
    }

    /// [`Table::index_lookup`] through the index's slot
    /// ([`TableSchema::index_slot`] of its column).
    pub(crate) fn slot_lookup(&self, slot: usize, v: &Value) -> &[RowId] {
        let (_, idx) = &self.eq_indexes[slot];
        idx.get(v).map_or(&[], Posting::as_slice)
    }

    /// A walk along the ordered index on the column list `cols`: the rows
    /// that tie (under `Value::cmp`) with `prefix` on the columns before
    /// the last and whose last column — the sort key — satisfies every one
    /// of `bounds` (`column op value` each), in key order — descending keys
    /// when `desc` — and ascending row id within equal keys: the order a
    /// sort by that key gives those rows of a scan. `None` when no ordered
    /// index is declared on `cols`; an id that outlived its row is
    /// [`StorageError::DanglingRow`], from the searches here or from the
    /// walk.
    pub(crate) fn ordered_walk(
        &self,
        cols: &[usize],
        prefix: &[&Value],
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Result<Option<OrderedWalk<'_>>, StorageError> {
        let Some((_, ids)) = self.ord_indexes.iter().find(|(c, _)| c == cols) else {
            return Ok(None);
        };
        let Some((&pos, leading)) = cols.split_last() else {
            return Ok(None);
        };
        debug_assert_eq!(leading.len(), prefix.len());
        // Each search runs inside what the one before left: there the
        // index is sorted on the next column.
        let mut ids = &ids[..];
        for (&col, v) in leading.iter().zip(prefix) {
            ids = self.narrow(ids, col, CmpOp::Eq, v)?;
        }
        for &(op, v) in bounds {
            ids = self.narrow(ids, pos, op, v)?;
        }
        let (rest, group) = if desc { (ids, &[][..]) } else { (&[][..], ids) };
        Ok(Some(OrderedWalk {
            table: self,
            pos,
            rest,
            group,
        }))
    }

    /// The ids of `ids` — listed in the order of column `pos` — whose
    /// column `pos` satisfies `op v`.
    fn narrow<'a>(
        &self,
        ids: &'a [u32],
        pos: usize,
        op: CmpOp,
        v: &Value,
    ) -> Result<&'a [u32], StorageError> {
        // `op.eval` is monotone along the index (both follow `Value::cmp`):
        // the keys passing an upper bound are a prefix, those failing a
        // lower bound are one too.
        let first_ge = |ids| partition(ids, |id| Ok(self.ord_key(id, pos)? < v));
        let first_gt = |ids| partition(ids, |id| Ok(self.ord_key(id, pos)? <= v));
        Ok(match op {
            CmpOp::Ge => &ids[first_ge(ids)?..],
            CmpOp::Gt => &ids[first_gt(ids)?..],
            CmpOp::Lt => &ids[..first_ge(ids)?],
            CmpOp::Le => &ids[..first_gt(ids)?],
            CmpOp::Eq => {
                let ids = &ids[first_ge(ids)?..];
                &ids[..first_gt(ids)?]
            }
        })
    }

    /// The ordered-index key of the row listed as `id`: its column `pos`.
    fn ord_key(&self, id: u32, pos: usize) -> Result<&Value, StorageError> {
        Ok(&self.live_row(id as RowId)?[pos])
    }

    /// Looks up a row by its full primary key.
    pub fn pk_lookup(&self, key: &[Value]) -> Option<RowId> {
        let whole = key.len() == self.pk_positions.len();
        whole.then(|| self.pk_find(|i| &key[i])).flatten()
    }

    /// The live row whose primary key's `i`-th column holds `key(i)`, for
    /// every `i`: the rows its first column's list holds for `key(0)`,
    /// filtered on the rest (`None` on a keyless table).
    fn pk_find<'k>(&self, key: impl Fn(usize) -> &'k Value) -> Option<RowId> {
        let (_, rest) = self.pk_positions.split_first()?;
        // `indexed_columns` lists the key's columns first.
        let listed = self.slot_lookup(0, key(0));
        listed.iter().copied().find(|&id| {
            self.row(id)
                .is_some_and(|row| rest.iter().enumerate().all(|(i, &p)| row[p] == *key(i + 1)))
        })
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
        if self.pk_find(|i| &row[self.pk_positions[i]]).is_some() {
            return Err(StorageError::DuplicateKey {
                table: self.schema.name.clone(),
                key: self.pk_positions.iter().map(|&p| row[p].clone()).collect(),
            });
        }
        // An ordered index lists row ids as `u32`s.
        let next = self.free.last().copied().unwrap_or(self.slots.len());
        if !self.ord_indexes.is_empty() && u32::try_from(next).is_err() {
            return Err(StorageError::BadInsert(format!(
                "table `{}` is full: its ordered indexes address 2^32 rows",
                self.schema.name
            )));
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
        self.index_add(id, |_| true);
        Ok(id)
    }

    /// Removes the row at `id`; returns the removed row.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        if self.slots.get(id)?.is_none() {
            return None;
        }
        self.index_remove(id, |_| true);
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
        // No key column changes. List order is observable under the
        // executor's row-order contract: a modified row moves to the end of
        // each of its equality lists, re-joining those of the columns that
        // change and moving in place in the others.
        let changed = |cols: &[usize]| changes.iter().any(|(p, _)| cols.contains(p));
        self.index_remove(id, changed);
        let row = self.slots[id].as_mut()?;
        let old = row.clone();
        for (pos, v) in changes {
            row[*pos] = v.clone();
        }
        self.index_add(id, changed);
        Some(old)
    }

    // The index maintainers read the key columns from the stored row
    // itself, borrowing `slots` and the index maps side by side.

    /// Enters row `id` into the indexes whose column lists `rekeyed` names
    /// (an equality index's list is its one column).
    fn index_add(&mut self, id: RowId, rekeyed: impl Fn(&[usize]) -> bool) {
        let Table {
            slots,
            eq_indexes,
            ord_indexes,
            ..
        } = self;
        let Some(row) = slots.get(id).and_then(Option::as_ref) else {
            return;
        };
        for (pos, idx) in eq_indexes.iter_mut().filter(|(pos, _)| rekeyed(&[*pos])) {
            // The key is cloned only for a value no row held.
            match idx.get_mut(&row[*pos]) {
                Some(ids) => ids.push(id),
                None => {
                    idx.insert(row[*pos].clone(), Posting::One(id));
                }
            }
        }
        // `insert` admits no id beyond `u32` where there is an ordered index.
        let Ok(id32) = u32::try_from(id) else {
            return;
        };
        for (cols, ids) in ord_indexes.iter_mut().filter(|(cols, _)| rekeyed(cols)) {
            // A listed id whose row is gone counts as sorted before every
            // row: an update steps over it, the walk that meets it reports it.
            let before = |x: u32| {
                slots
                    .get(x as usize)
                    .and_then(Option::as_ref)
                    .is_none_or(|listed| {
                        let mut by_col = cols.iter().map(|&c| listed[c].cmp(&row[c]));
                        let by_key = by_col.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal);
                        by_key.then(x.cmp(&id32)).is_lt()
                    })
            };
            let at = ids.partition_point(|&x| before(x));
            ids.insert(at, id32);
        }
    }

    /// Takes row `id` out of what [`Table::index_add`] enters it into, and
    /// moves it to the end of its other equality lists.
    fn index_remove(&mut self, id: RowId, rekeyed: impl Fn(&[usize]) -> bool) {
        let Table {
            slots,
            eq_indexes,
            ord_indexes,
            ..
        } = self;
        let Some(row) = slots.get(id).and_then(Option::as_ref) else {
            return;
        };
        for (pos, idx) in eq_indexes.iter_mut() {
            let stays = !rekeyed(&[*pos]);
            if idx
                .get_mut(&row[*pos])
                .is_some_and(|ids| !ids.move_last(id, stays))
            {
                idx.remove(&row[*pos]);
            }
        }
        // Found by id, not by key: a search through the rows waits on
        // a chain of loads per step, the scan of the ids streams; and it
        // holds where `Value::cmp` is not transitive (an `Int` beyond 2^53
        // beside a `Real`), which would mislead a search by key.
        for (_, ids) in ord_indexes.iter_mut().filter(|(cols, _)| rekeyed(cols)) {
            // `contains` tests a chunk without an early exit, which
            // vectorises; `position` alone does not.
            const CHUNK: usize = 64;
            let found = u32::try_from(id).ok().and_then(|id| {
                let chunk = ids.chunks(CHUNK).position(|c| c.contains(&id))?;
                let within = ids[chunk * CHUNK..].iter().position(|x| *x == id)?;
                Some(chunk * CHUNK + within)
            });
            if let Some(at) = found {
                ids.remove(at);
            }
        }
    }
}

/// The number of leading `ids` that `pred` holds for, `pred` holding for a
/// prefix of them: `partition_point` with a predicate that can fail.
fn partition(
    ids: &[u32],
    pred: impl Fn(u32) -> Result<bool, StorageError>,
) -> Result<usize, StorageError> {
    let (mut lo, mut hi) = (0, ids.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(ids[mid])? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// A walk along part of an ordered index; see [`Table::ordered_walk`].
pub(crate) struct OrderedWalk<'a> {
    table: &'a Table,
    /// The sort key's column: the last of the index's.
    pos: usize,
    /// Ids still to be split into value groups, in index order: all of
    /// them on a descending walk, which takes groups off the end, none on
    /// an ascending one.
    rest: &'a [u32],
    /// Ids to yield next, front first.
    group: &'a [u32],
}

impl<'a> Iterator for OrderedWalk<'a> {
    type Item = Result<(RowId, &'a Row), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (table, pos) = (self.table, self.pos);
        if self.group.is_empty() {
            // The group of keys that tie (under `cmp`) with the last one.
            let start = table
                .ord_key(*self.rest.last()?, pos)
                .and_then(|v| partition(self.rest, |id| Ok(table.ord_key(id, pos)? < v)));
            match start {
                Ok(start) => (self.rest, self.group) = self.rest.split_at(start),
                Err(e) => {
                    self.rest = &[];
                    return Some(Err(e));
                }
            }
        }
        let (&id, group) = self.group.split_first()?;
        self.group = group;
        let id = id as RowId;
        Some(table.live_row(id).map(|row| (id, row)))
    }
}

/// The ids of the rows an equality index lists for one value, in
/// insertion order. One row — every value of a key column — is held
/// inline; a list is a `Vec` from the second row on and turns inline again
/// when it falls back to one, so the form is a function of the list.
#[derive(Debug, Clone, PartialEq)]
enum Posting {
    One(RowId),
    Many(Vec<RowId>),
}

impl Posting {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: RowId) {
        match self {
            Posting::One(first) => *self = Posting::Many(vec![*first, id]),
            Posting::Many(ids) => ids.push(id),
        }
    }

    /// Moves `id` to the end by swapping it with the last id — where taking
    /// it out and pushing it again would leave it — and takes it out from
    /// there unless it `stays` (what `Vec::swap_remove` does); `false` when
    /// no row is left.
    fn move_last(&mut self, id: RowId, stays: bool) -> bool {
        match self {
            Posting::One(one) => stays || *one != id,
            Posting::Many(ids) => {
                if let Some(at) = ids.iter().position(|x| *x == id) {
                    let last = ids.len() - 1;
                    ids.swap(at, last);
                    if !stays {
                        ids.pop();
                    }
                }
                if let [one] = ids[..] {
                    *self = Posting::One(one);
                }
                true
            }
        }
    }
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
        .unwrap()
    }

    /// `TableSchema`'s fields are public, so a schema that names a key
    /// or index column it lacks reaches `Table::new` unvalidated: refused.
    #[test]
    fn a_schema_naming_a_missing_column_is_refused() {
        let mut schema = toys_table().schema().clone();
        schema.primary_key = vec!["toy".into()];
        assert!(matches!(
            Table::new(schema),
            Err(StorageError::BadSchema(_))
        ));
        let mut schema = toys_table().schema().clone();
        schema
            .ordered_indexes
            .push(vec!["qty".into(), "price".into()]);
        assert!(matches!(
            Table::new(schema),
            Err(StorageError::BadSchema(_))
        ));
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

    /// `toys` ordered by `qty`, with an `Int`/`Real` pair that ties.
    fn ranked_table() -> Table {
        Table::new(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Real)
                .primary_key(&["toy_id"])
                .index("toy_name")
                .ordered_index("qty")
                .ordered_index("toy_name")
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn walk(t: &Table, pos: usize, bounds: &[(CmpOp, &Value)], desc: bool) -> Vec<RowId> {
        walk_within(t, &[pos], &[], bounds, desc).unwrap()
    }

    /// The row ids [`Table::ordered_walk`] yields, or its first error.
    fn walk_within(
        t: &Table,
        cols: &[usize],
        prefix: &[&Value],
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Result<Vec<RowId>, StorageError> {
        let walk = t.ordered_walk(cols, prefix, bounds, desc)?.unwrap();
        walk.map(|walked| {
            let (id, row) = walked?;
            assert_eq!(t.row(id), Some(row));
            Ok(id)
        })
        .collect()
    }

    #[test]
    fn ordered_walk_is_key_order_then_ascending_row_id() {
        let mut t = ranked_table();
        for (id, qty) in [(1, 5), (2, 3), (3, 5), (4, 1), (5, 3)] {
            t.insert(row(id, "x", qty)).unwrap();
        }
        assert_eq!(walk(&t, 2, &[], false), vec![3, 1, 4, 0, 2]);
        // Groups downwards, ids still upwards inside a group.
        assert_eq!(walk(&t, 2, &[], true), vec![0, 2, 1, 4, 3]);
        let undeclared = t.ordered_walk(&[0], &[], &[], false).unwrap();
        assert!(undeclared.is_none());
        // `Int(3)` and `Real(3.0)` tie under `cmp`, though not under `==`:
        // one group, whichever the bound is written as.
        t.modify(4, &[(2, Value::real(3.0))]).unwrap();
        assert_eq!(walk(&t, 2, &[], true), vec![0, 2, 1, 4, 3]);
        let three = Value::real(3.0);
        assert_eq!(walk(&t, 2, &[(CmpOp::Eq, &three)], true), vec![1, 4]);
        assert_eq!(
            walk(&t, 2, &[(CmpOp::Eq, &Value::Int(3))], false),
            vec![1, 4]
        );
    }

    /// The walk ends where the key's bounds end: an upper bound stops an
    /// ascending walk, a lower bound a descending one.
    #[test]
    fn ordered_walk_starts_and_stops_at_the_bounds() {
        let mut t = ranked_table();
        for id in 0..10 {
            t.insert(row(id, "x", id / 2)).unwrap(); // qty 0 0 1 1 2 2 3 3 4 4
        }
        let (one, three) = (Value::Int(1), Value::Int(3));
        assert_eq!(walk(&t, 2, &[(CmpOp::Le, &one)], false), vec![0, 1, 2, 3]);
        assert_eq!(walk(&t, 2, &[(CmpOp::Lt, &one)], false), vec![0, 1]);
        assert_eq!(walk(&t, 2, &[(CmpOp::Ge, &three)], true), vec![8, 9, 6, 7]);
        assert_eq!(walk(&t, 2, &[(CmpOp::Gt, &three)], true), vec![8, 9]);
        let both = [(CmpOp::Gt, &one), (CmpOp::Le, &three), (CmpOp::Ge, &one)];
        assert_eq!(walk(&t, 2, &both, false), vec![4, 5, 6, 7]);
        assert_eq!(walk(&t, 2, &both, true), vec![6, 7, 4, 5]);
        // Bounds that cross, or lie outside the keys, leave nothing.
        let crossed = [(CmpOp::Ge, &three), (CmpOp::Lt, &one)];
        assert_eq!(walk(&t, 2, &crossed, false), Vec::<RowId>::new());
        assert_eq!(walk(&t, 2, &[(CmpOp::Gt, &Value::Int(9))], true), vec![]);
        assert_eq!(walk(&t, 2, &[(CmpOp::Eq, &Value::str("x"))], false), vec![]);
    }

    #[test]
    fn ordered_index_tracks_delete_slot_reuse_and_modify() {
        let mut t = ranked_table();
        for (id, qty) in [(1, 5), (2, 3), (3, 5), (4, 1)] {
            t.insert(row(id, "x", qty)).unwrap();
        }
        t.delete(0);
        assert_eq!(walk(&t, 2, &[], false), vec![3, 1, 2]);
        // Slot 0 comes back with a key that ties slot 2's: lower id first.
        assert_eq!(t.insert(row(9, "x", 5)).unwrap(), 0);
        assert_eq!(walk(&t, 2, &[], false), vec![3, 1, 0, 2]);
        // A modify re-keys the ordered column it sets...
        t.modify(3, &[(2, Value::Int(7))]).unwrap();
        assert_eq!(walk(&t, 2, &[], false), vec![1, 0, 2, 3]);
        // ...and leaves the other ordered index and the key index alone.
        assert_eq!(walk(&t, 1, &[], false), vec![0, 1, 2, 3]);
        assert_eq!(t.pk_lookup(&[Value::Int(4)]), Some(3));
        let replayed = {
            let mut r = ranked_table();
            for (id, qty) in [(9, 5), (2, 3), (3, 5), (4, 7)] {
                r.insert(row(id, "x", qty)).unwrap();
            }
            r
        };
        assert_eq!(
            replayed.ord_indexes, t.ord_indexes,
            "a function of the rows"
        );
    }

    /// `toys` ordered by `(toy_name, qty)`, and by `toy_name` alone.
    fn shelved_table() -> Table {
        Table::new(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Real)
                .column("note", ColumnType::Int)
                .primary_key(&["toy_id"])
                .ordered_index_on(&["toy_name", "qty"])
                .ordered_index("toy_name")
                .ordered_index_on(&["toy_name", "qty"])
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn shelved(id: i64, name: &str, qty: Value) -> Row {
        vec![Value::Int(id), Value::str(name), qty, Value::Int(0)]
    }

    #[test]
    fn column_list_walk_stays_inside_its_prefix() {
        let mut t = shelved_table();
        assert_eq!(t.ord_indexes.len(), 2, "a list declared twice is kept once");
        for (id, name, qty) in [
            (0, "car", 5),
            (1, "bear", 3),
            (2, "car", 1),
            (3, "bear", 3),
            (4, "car", 5),
            (5, "ant", 9),
            (6, "bear", 1),
        ] {
            t.insert(shelved(id, name, Value::Int(qty))).unwrap();
        }
        let (bear, car, yak) = (Value::str("bear"), Value::str("car"), Value::str("yak"));
        let by = |name, bounds: &[(CmpOp, &Value)], desc| {
            walk_within(&t, &[1, 2], &[name], bounds, desc).unwrap()
        };
        // Key order inside the prefix, ascending row id between equal keys.
        assert_eq!(by(&bear, &[], false), vec![6, 1, 3]);
        assert_eq!(by(&bear, &[], true), vec![1, 3, 6]);
        assert_eq!(by(&car, &[], true), vec![0, 4, 2]);
        assert_eq!(by(&yak, &[], false), Vec::<RowId>::new());
        // The key's bounds are searched for inside the prefix's rows only:
        // `ant`'s 9 and `bear`'s 1 lie outside `car`'s.
        let (two, five) = (Value::Int(2), Value::Int(5));
        assert_eq!(by(&car, &[(CmpOp::Ge, &two)], false), vec![0, 4]);
        assert_eq!(by(&car, &[(CmpOp::Lt, &five)], true), vec![2]);
        assert_eq!(by(&car, &[(CmpOp::Gt, &five)], false), vec![]);
        assert_eq!(
            by(&bear, &[(CmpOp::Le, &two), (CmpOp::Ge, &two)], true),
            vec![]
        );
        // The one-column list is another index; a list is used whole.
        assert_eq!(walk(&t, 1, &[], false), vec![5, 1, 3, 6, 0, 2, 4]);
        assert!(t.ordered_walk(&[2], &[], &[], false).unwrap().is_none());
        assert!(t
            .ordered_walk(&[2, 1], &[&two], &[], false)
            .unwrap()
            .is_none());
    }

    /// A prefix value selects the rows that tie with it under `cmp`:
    /// `Int(1)` and `Real(1.0)` are one prefix, whichever way it is asked.
    #[test]
    fn column_list_prefix_ties_an_int_with_a_real() {
        let schema = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("c", ColumnType::Real)
            .column("d", ColumnType::Int)
            .ordered_index_on(&["c", "d"]);
        let mut t = Table::new(schema.build().unwrap()).unwrap();
        for (id, c, d) in [
            (0, Value::Int(1), 7),
            (1, Value::real(1.0), 3),
            (2, Value::real(2.5), 1),
            (3, Value::Int(1), 3),
            (4, Value::real(0.5), 9),
        ] {
            t.insert(vec![Value::Int(id), c, Value::Int(d)]).unwrap();
        }
        for one in [Value::Int(1), Value::real(1.0)] {
            let got = walk_within(&t, &[1, 2], &[&one], &[], false).unwrap();
            assert_eq!(got, vec![1, 3, 0], "{one:?}");
            let got = walk_within(&t, &[1, 2], &[&one], &[], true).unwrap();
            assert_eq!(got, vec![0, 1, 3], "{one:?}");
        }
    }

    /// A modify re-keys a list when one of *its* columns changes — the
    /// prefix column as much as the last — and touches none otherwise.
    #[test]
    fn column_list_index_is_rekeyed_by_its_own_columns_only() {
        let mut t = shelved_table();
        for (id, name, qty) in [
            (0, "bear", 4),
            (1, "bear", 2),
            (2, "car", 3),
            (3, "bear", 2),
        ] {
            t.insert(shelved(id, name, Value::Int(qty))).unwrap();
        }
        let all = |t: &Table| (t.ord_indexes[0].1.clone(), t.ord_indexes[1].1.clone());
        assert_eq!(all(&t), (vec![1, 3, 0, 2], vec![0, 1, 3, 2]));
        // Not a key column: both permutations stay as they are.
        t.modify(1, &[(3, Value::Int(9))]).unwrap();
        assert_eq!(all(&t), (vec![1, 3, 0, 2], vec![0, 1, 3, 2]));
        // The last column: `(toy_name, qty)` moves the row, `toy_name` not.
        t.modify(1, &[(2, Value::Int(8))]).unwrap();
        assert_eq!(all(&t), (vec![3, 0, 1, 2], vec![0, 1, 3, 2]));
        // The prefix column: both move it.
        t.modify(0, &[(1, Value::str("dog"))]).unwrap();
        assert_eq!(all(&t), (vec![3, 1, 2, 0], vec![1, 3, 2, 0]));
        // A function of the rows alone: the same rows inserted afresh.
        let mut fresh = shelved_table();
        for (id, row) in t.iter() {
            assert_eq!(fresh.insert(row.clone()).unwrap(), id);
        }
        assert_eq!(fresh.ord_indexes, t.ord_indexes);
    }

    fn dangling<T: std::fmt::Debug>(r: Result<T, StorageError>, id: RowId) {
        match r {
            Err(StorageError::DanglingRow { table, id: got }) => {
                assert_eq!((table.as_str(), got), ("toys", id));
            }
            other => panic!("expected a dangling row {id}, got {other:?}"),
        }
    }

    /// An id that outlived its row — slot 3 dead, slot 99 never there — in
    /// a permutation: the walk, its searches for a prefix or a bound and
    /// its descending group search answer `DanglingRow`; an update steps
    /// over the id.
    #[test]
    fn a_dead_id_in_an_ordered_index_is_an_error_not_a_panic() {
        let mut t = shelved_table();
        for id in 0..8 {
            t.insert(shelved(id, "bear", Value::Int(id))).unwrap();
        }
        t.delete(3);
        for dead in [3u32, 99] {
            for at in [0, 4, 7] {
                let mut t = t.clone();
                t.ord_indexes[0].1.insert(at, dead);
                let dead = dead as RowId;
                for desc in [false, true] {
                    dangling(
                        walk_within(&t, &[1, 2], &[&Value::str("bear")], &[], desc),
                        dead,
                    );
                }
                // Every search meets the poked id on its way to slot 6.
                let six = Value::Int(6);
                if at == 4 {
                    let bound = [(CmpOp::Ge, &six)];
                    dangling(
                        walk_within(&t, &[1, 2], &[&Value::str("bear")], &bound, false),
                        dead,
                    );
                }
                t.insert(shelved(8, "bear", Value::Int(6))).unwrap();
                t.modify(0, &[(2, Value::Int(9))]).unwrap();
                t.delete(1).unwrap();
            }
        }
        // The partitioned walk hands the error on.
        let mut broken = t.clone();
        broken.ord_indexes[1].1.insert(2, 3);
        use crate::executor::PartitionedTable;
        let q = scs_sqlkit::parse_query("SELECT toy_id FROM toys ORDER BY toy_name LIMIT 99");
        let q = scs_sqlkit::Query::bind(0, std::sync::Arc::new(q.unwrap()), vec![]).unwrap();
        let parts: PartitionedTable = [&t, &broken].into_iter().collect();
        let got = crate::executor::execute_partitioned(&Default::default(), &q, vec![parts]);
        dangling(got, 3);
    }

    /// A permutation lists ids as `u32`s: a row whose slot lies beyond them
    /// is refused by `insert`, before anything changes.
    #[test]
    fn an_ordered_table_refuses_a_slot_beyond_u32() {
        let mut t = shelved_table();
        t.insert(shelved(0, "bear", Value::Int(1))).unwrap();
        let mut full = t.clone();
        full.free.push(1 << 32);
        let before = full.clone();
        let refused = full.insert(shelved(1, "car", Value::Int(1)));
        assert!(
            matches!(refused, Err(StorageError::BadInsert(_))),
            "{refused:?}"
        );
        assert_eq!(full, before);
    }

    /// `Int(2^53 + 1)` and `Int(2^53)` both tie with `Real(2^53)` yet differ
    /// from each other, so no order of them is sorted and a binary search
    /// for row 0's key ends beside it; removal goes by id and finds it.
    /// Re-entered, row 0 would land elsewhere: a modify of another column
    /// shows that it leaves the list alone.
    #[test]
    fn ordered_index_drops_a_row_its_key_order_hides() {
        let big = 1i64 << 53;
        let mut t = ranked_table();
        for (id, qty) in [
            (1, Value::Int(big + 1)),
            (2, Value::real(big as f64)),
            (3, Value::Int(big)),
            (4, Value::Int(big + 1)),
        ] {
            t.insert(vec![Value::Int(id), Value::str("x"), qty])
                .unwrap();
        }
        assert_eq!(walk(&t, 2, &[], false), vec![0, 1, 2, 3]);
        t.modify(0, &[(1, Value::str("x"))]).unwrap();
        assert_eq!(walk(&t, 2, &[], false), vec![0, 1, 2, 3]);
        t.delete(0);
        assert_eq!(walk(&t, 2, &[], false), vec![1, 2, 3]);
    }

    /// List order is observable (an indexed restriction yields it): a
    /// modified row moves to the end of every equality list it is in,
    /// whether or not that list's column changed — the row that was last
    /// taking its place.
    #[test]
    fn modify_moves_the_row_to_the_end_of_its_equality_lists() {
        let mut t = ranked_table();
        for id in 0..3 {
            t.insert(row(id, "bear", 1)).unwrap();
        }
        t.modify(0, &[(2, Value::Int(2))]).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("bear")).unwrap(), &[2, 1, 0]);
        t.modify(2, &[(2, Value::Int(3))]).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("bear")).unwrap(), &[0, 1, 2]);
    }

    /// A list left with one row is the list of one a fresh insert makes:
    /// table equality, which WAL replay pins, sees lists, not their history.
    #[test]
    fn a_list_left_with_one_row_equals_one_made_with_one() {
        let mut shrunk = toys_table();
        shrunk.insert(row(1, "bear", 1)).unwrap();
        shrunk.insert(row(2, "bear", 2)).unwrap();
        shrunk.delete(0);
        let mut fresh = toys_table();
        fresh.insert(row(1, "kite", 1)).unwrap();
        fresh.insert(row(2, "bear", 2)).unwrap();
        fresh.delete(0);
        assert_eq!(shrunk, fresh);
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
