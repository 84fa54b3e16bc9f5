//! The database: a catalog of tables plus update application.
//!
//! This is the *home server*'s master copy in the paper's architecture
//! (Figure 1): all updates are applied here directly, and the DSSP caches
//! read-only query results derived from it.
//!
//! Beside the tables the database keeps the *plans* of the query templates
//! it has executed (`plan.rs`): a query is planned on its template's first
//! statement and only bound and run afterwards. The plans are derived
//! state — no part of the database's equality, gone whenever the catalog
//! changes, absent from a clone.

use crate::error::StorageError;
use crate::executor;
use crate::plan::PlanMemo;
use crate::result::QueryResult;
use crate::schema::{ForeignKey, TableSchema};
use crate::table::{Row, RowId, Table};
use scs_sqlkit::{CmpOp, Predicate, Query, Scalar, Update, UpdateTemplate, Value};
use std::collections::BTreeMap;

/// What an update did to the master database. The DSSP's invalidation
/// pathway only sees the update *statement* (never the effect); effects are
/// used by tests as ground truth and by the home server for accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateEffect {
    Inserted {
        table: String,
        row: Row,
    },
    Deleted {
        table: String,
        rows: Vec<Row>,
    },
    /// `(old, new)` pairs for each modified row.
    Modified {
        table: String,
        changes: Vec<(Row, Row)>,
    },
}

impl UpdateEffect {
    /// True if the update changed nothing (§2.1.1 assumes updates always
    /// have an effect; workload generators uphold this, but the engine
    /// tolerates no-ops).
    pub fn is_noop(&self) -> bool {
        match self {
            UpdateEffect::Inserted { .. } => false,
            UpdateEffect::Deleted { rows, .. } => rows.is_empty(),
            UpdateEffect::Modified { changes, .. } => changes.iter().all(|(old, new)| old == new),
        }
    }
}

/// An in-memory relational database.
///
/// Equality is physical-state equality (see [`Table`]): the property the
/// write-ahead log's replay test pins — a recovered database must be
/// indistinguishable from the pre-crash one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// The plans of the query templates executed so far: derived state,
    /// outside equality, emptied whenever the catalog changes.
    plans: PlanMemo,
}

/// A predicate bound to concrete values and column positions, ready to
/// evaluate against rows of one table.
enum BoundPred {
    ColScalar { pos: usize, op: CmpOp, value: Value },
    ColCol { lhs: usize, op: CmpOp, rhs: usize },
}

impl BoundPred {
    fn eval(&self, row: &Row) -> bool {
        match self {
            BoundPred::ColScalar { pos, op, value } => op.eval(&row[*pos], value),
            BoundPred::ColCol { lhs, op, rhs } => op.eval(&row[*lhs], &row[*rhs]),
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds a table; fails if the name is taken or the schema is invalid.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        schema.validate()?;
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::BadSchema(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        self.tables.insert(schema.name.clone(), Table::new(schema));
        self.plans.clear();
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Directly inserts a full row in schema order (used by data population;
    /// enforces PK but not FK, since bulk loads insert parents and children
    /// in arbitrary order).
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<RowId, StorageError> {
        self.table_mut(table)?.insert(row)
    }

    /// Executes a query statement against the current state: binds it to
    /// its template's plan (planned on the template's first statement) and
    /// runs that.
    pub fn execute(&self, q: &Query) -> Result<QueryResult, StorageError> {
        executor::execute(self, q)
    }

    /// Which top-k path `q`'s template is planned to take: `Some(n)` when
    /// it walks an ordered index under `n` leading columns bound by `=`,
    /// `None` when it sorts, has nothing to sort, or does not plan. The
    /// path shows in no result; tests and profiles that must know which one
    /// ran ask here.
    pub fn walk_prefix(&self, q: &Query) -> Option<usize> {
        executor::walk_prefix(self, q)
    }

    pub(crate) fn plans(&self) -> &PlanMemo {
        &self.plans
    }

    /// Applies an update statement, enforcing the integrity constraints of
    /// §4.5 (primary keys always; foreign keys on insertion).
    pub fn apply(&mut self, u: &Update) -> Result<UpdateEffect, StorageError> {
        self.apply_inner(u, true, None)
    }

    /// Applies an update statement enforcing primary keys but **not**
    /// foreign keys. Two callers are entitled to skip the check: WAL
    /// replay (the record was FK-validated when it first committed, and
    /// must not re-fail) and a partitioned home shard (a child row's
    /// parent may live on another shard, so referential integrity is
    /// verified cross-shard *before* the statement is routed here — see
    /// [`Database::apply_routed`]).
    pub fn apply_unchecked(&mut self, u: &Update) -> Result<UpdateEffect, StorageError> {
        self.apply_inner(u, false, None)
    }

    /// [`Database::apply_unchecked`] for the partitioned home, which built
    /// `u`'s [`Database::insert_candidate`] to route the statement here and
    /// to verify its foreign keys: `candidate` is that row, inserted as it
    /// is instead of being bound a second time.
    pub fn apply_routed(
        &mut self,
        u: &Update,
        candidate: Option<Row>,
    ) -> Result<UpdateEffect, StorageError> {
        self.apply_inner(u, false, candidate)
    }

    fn apply_inner(
        &mut self,
        u: &Update,
        check_fks: bool,
        candidate: Option<Row>,
    ) -> Result<UpdateEffect, StorageError> {
        match &*u.template {
            UpdateTemplate::Insert(ins) => {
                let row = match candidate {
                    Some(row) => {
                        debug_assert_eq!(self.insert_candidate(u)?.as_ref(), Some(&row));
                        row
                    }
                    None => {
                        let schema = self.table(&ins.table)?.schema();
                        build_insert_row(schema, &ins.columns, &ins.values, u)?
                    }
                };
                if check_fks {
                    self.check_foreign_keys(&ins.table, &row)?;
                }
                self.table_mut(&ins.table)?.insert(row.clone())?;
                Ok(UpdateEffect::Inserted {
                    table: ins.table.clone(),
                    row,
                })
            }
            UpdateTemplate::Delete(del) => {
                let victims = {
                    let table = self.table(&del.table)?;
                    let preds = bind_preds(table.schema(), &del.predicates, u)?;
                    matching_rows(table, &preds)?
                };
                let table = self.table_mut(&del.table)?;
                let mut rows = Vec::with_capacity(victims.len());
                for id in victims {
                    if let Some(row) = table.delete(id) {
                        rows.push(row);
                    }
                }
                Ok(UpdateEffect::Deleted {
                    table: del.table.clone(),
                    rows,
                })
            }
            UpdateTemplate::Modify(m) => {
                let (targets, changes) = {
                    let table = self.table(&m.table)?;
                    let schema = table.schema();
                    let mut changes = Vec::with_capacity(m.set.len());
                    for (col, scalar) in &m.set {
                        let pos = schema.column_index(col).ok_or_else(|| {
                            StorageError::UnknownColumn {
                                table: m.table.clone(),
                                column: col.clone(),
                            }
                        })?;
                        if schema.is_key_column(col) {
                            return Err(StorageError::BadModify(format!(
                                "modification sets key attribute `{}.{col}`",
                                m.table
                            )));
                        }
                        let value = u.resolve(scalar).clone();
                        if !schema.columns[pos].ty.admits(&value) {
                            return Err(StorageError::TypeMismatch {
                                table: m.table.clone(),
                                column: col.clone(),
                                value,
                            });
                        }
                        changes.push((pos, value));
                    }
                    let preds = bind_preds(schema, &m.predicates, u)?;
                    (matching_rows(table, &preds)?, changes)
                };
                let table = self.table_mut(&m.table)?;
                let mut out = Vec::with_capacity(targets.len());
                for id in targets {
                    if let Some(old) = table.modify(id, &changes) {
                        let new = table.live_row(id)?.clone();
                        out.push((old, new));
                    }
                }
                Ok(UpdateEffect::Modified {
                    table: m.table.clone(),
                    changes: out,
                })
            }
        }
    }

    /// The fully-bound row an insert statement would add, without
    /// applying it (`None` for non-inserts). Partition routing inspects
    /// the partition column's value here before the statement is
    /// shipped to its owner shard.
    pub fn insert_candidate(&self, u: &Update) -> Result<Option<Row>, StorageError> {
        let UpdateTemplate::Insert(ins) = &*u.template else {
            return Ok(None);
        };
        let table = self.table(&ins.table)?;
        Ok(Some(build_insert_row(
            table.schema(),
            &ins.columns,
            &ins.values,
            u,
        )?))
    }

    /// Whether `fk.parent_table` **in this database** holds a row whose
    /// `fk.parent_columns` equal `key`.
    pub fn fk_parent_exists(&self, fk: &ForeignKey, key: &[Value]) -> Result<bool, StorageError> {
        let parent = self.table(&fk.parent_table)?;
        if fk.parent_columns == parent.schema().primary_key {
            return Ok(parent.pk_lookup(key).is_some());
        }
        // FK referencing a non-PK column set: fall back to a scan.
        let positions: Vec<usize> = fk
            .parent_columns
            .iter()
            .map(|c| {
                parent
                    .schema()
                    .column_index(c)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        table: fk.parent_table.clone(),
                        column: c.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(parent
            .iter()
            .any(|(_, prow)| positions.iter().zip(key).all(|(p, k)| &prow[*p] == k)))
    }

    /// Verifies every foreign key of `table` for a candidate `row`.
    fn check_foreign_keys(&self, table: &str, row: &Row) -> Result<(), StorageError> {
        self.check_foreign_keys_with(table, row, |fk, key| self.fk_parent_exists(fk, key))
    }

    /// Verifies every foreign key of `table` for a candidate `row`, asking
    /// `parent_exists` whether a row with `key` in `fk.parent_columns` is
    /// held anywhere. The model only enforces FKs on insertion; a sharded
    /// home answers each probe from the shard that owns the parent, before
    /// routing the statement to the child's owner.
    pub fn check_foreign_keys_with(
        &self,
        table: &str,
        row: &Row,
        mut parent_exists: impl FnMut(&ForeignKey, &[Value]) -> Result<bool, StorageError>,
    ) -> Result<(), StorageError> {
        let schema = self.table(table)?.schema();
        for fk in &schema.foreign_keys {
            let key = fk_key(schema, fk, row)?;
            if !parent_exists(fk, &key)? {
                return Err(StorageError::ForeignKeyViolation {
                    table: table.to_string(),
                    constraint: format!(
                        "{} -> {}({})",
                        fk.columns.join(","),
                        fk.parent_table,
                        fk.parent_columns.join(",")
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The values `row` (of `schema`'s table) carries in `fk`'s columns.
fn fk_key(schema: &TableSchema, fk: &ForeignKey, row: &Row) -> Result<Vec<Value>, StorageError> {
    fk.columns
        .iter()
        .map(|c| {
            let pos = schema
                .column_index(c)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: schema.name.clone(),
                    column: c.clone(),
                })?;
            Ok(row[pos].clone())
        })
        .collect()
}

/// Assembles a full row in schema order from an insert's column/value lists.
fn build_insert_row(
    schema: &TableSchema,
    columns: &[String],
    values: &[Scalar],
    u: &Update,
) -> Result<Row, StorageError> {
    let mut row: Vec<Option<Value>> = vec![None; schema.columns.len()];
    for (col, scalar) in columns.iter().zip(values) {
        let pos = schema
            .column_index(col)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: schema.name.clone(),
                column: col.clone(),
            })?;
        if row[pos].is_some() {
            return Err(StorageError::BadInsert(format!(
                "column `{col}` listed twice"
            )));
        }
        row[pos] = Some(u.resolve(scalar).clone());
    }
    row.into_iter()
        .enumerate()
        .map(|(i, v)| {
            v.ok_or_else(|| {
                StorageError::BadInsert(format!(
                    "insert into `{}` misses column `{}` (insertions fully specify a row)",
                    schema.name, schema.columns[i].name
                ))
            })
        })
        .collect()
}

/// Binds a single-table update's predicates to column positions and values.
fn bind_preds(
    schema: &TableSchema,
    preds: &[Predicate],
    u: &Update,
) -> Result<Vec<BoundPred>, StorageError> {
    let col_pos = |cref: &scs_sqlkit::ColumnRef| {
        schema
            .column_index(&cref.column)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: schema.name.clone(),
                column: cref.column.clone(),
            })
    };
    preds
        .iter()
        .map(|p| {
            if let Some((c, op, s)) = p.as_restriction() {
                Ok(BoundPred::ColScalar {
                    pos: col_pos(c)?,
                    op,
                    value: u.resolve(s).clone(),
                })
            } else if let Some((l, op, r)) = p.as_join() {
                Ok(BoundPred::ColCol {
                    lhs: col_pos(l)?,
                    op,
                    rhs: col_pos(r)?,
                })
            } else {
                Err(StorageError::BadQuery(format!(
                    "predicate `{p}` compares no column"
                )))
            }
        })
        .collect()
}

/// Row ids satisfying all bound predicates, using an equality index when one
/// applies.
fn matching_rows(table: &Table, preds: &[BoundPred]) -> Result<Vec<RowId>, StorageError> {
    // Fast path: an indexed equality restriction narrows the scan.
    for p in preds {
        if let BoundPred::ColScalar {
            pos,
            op: CmpOp::Eq,
            value,
        } = p
        {
            if let Some(ids) = table.index_lookup(*pos, value) {
                let mut hits = Vec::with_capacity(ids.len());
                for &id in ids {
                    let row = table.live_row(id)?;
                    if preds.iter().all(|p| p.eval(row)) {
                        hits.push(id);
                    }
                }
                return Ok(hits);
            }
        }
    }
    Ok(table
        .iter()
        .filter(|(_, row)| preds.iter().all(|p| p.eval(row)))
        .map(|(id, _)| id)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use scs_sqlkit::{parse_update, Update};
    use std::sync::Arc;

    fn toystore_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("customers")
                .column("cust_id", ColumnType::Int)
                .column("cust_name", ColumnType::Str)
                .primary_key(&["cust_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("credit_card")
                .column("cid", ColumnType::Int)
                .column("number", ColumnType::Str)
                .column("zip_code", ColumnType::Int)
                .primary_key(&["cid"])
                .foreign_key(&["cid"], "customers", &["cust_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name, qty) in [(1, "bear", 10), (2, "car", 5), (3, "kite", 0)] {
            db.insert_row(
                "toys",
                vec![Value::Int(id), Value::str(name), Value::Int(qty)],
            )
            .unwrap();
        }
        db.insert_row("customers", vec![Value::Int(1), Value::str("ada")])
            .unwrap();
        db
    }

    fn upd(sql: &str, params: Vec<Value>) -> Update {
        Update::bind(0, Arc::new(parse_update(sql).unwrap()), params).unwrap()
    }

    #[test]
    fn insert_via_template() {
        let mut db = toystore_db();
        let u = upd(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("drone"), Value::Int(4)],
        );
        let eff = db.apply(&u).unwrap();
        assert!(matches!(eff, UpdateEffect::Inserted { .. }));
        assert_eq!(db.table("toys").unwrap().len(), 4);
    }

    #[test]
    fn insert_missing_column_rejected() {
        let mut db = toystore_db();
        let u = upd(
            "INSERT INTO toys (toy_id, toy_name) VALUES (?, ?)",
            vec![Value::Int(9), Value::str("drone")],
        );
        assert!(matches!(db.apply(&u), Err(StorageError::BadInsert(_))));
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = toystore_db();
        let good = upd(
            "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)",
            vec![Value::Int(1), Value::str("4111"), Value::Int(15213)],
        );
        db.apply(&good).unwrap();
        let bad = upd(
            "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)",
            vec![Value::Int(77), Value::str("4111"), Value::Int(15213)],
        );
        assert!(matches!(
            db.apply(&bad),
            Err(StorageError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn delete_by_pk() {
        let mut db = toystore_db();
        let u = upd("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(2)]);
        match db.apply(&u).unwrap() {
            UpdateEffect::Deleted { rows, .. } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][1], Value::str("car"));
            }
            _ => panic!(),
        }
        assert_eq!(db.table("toys").unwrap().len(), 2);
    }

    #[test]
    fn delete_by_range() {
        let mut db = toystore_db();
        let u = upd("DELETE FROM toys WHERE qty <= ?", vec![Value::Int(5)]);
        match db.apply(&u).unwrap() {
            UpdateEffect::Deleted { rows, .. } => assert_eq!(rows.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn delete_no_match_is_noop() {
        let mut db = toystore_db();
        let u = upd("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(404)]);
        let eff = db.apply(&u).unwrap();
        assert!(eff.is_noop());
    }

    #[test]
    fn modify_by_pk() {
        let mut db = toystore_db();
        let u = upd(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(42), Value::Int(1)],
        );
        match db.apply(&u).unwrap() {
            UpdateEffect::Modified { changes, .. } => {
                assert_eq!(changes.len(), 1);
                assert_eq!(changes[0].0[2], Value::Int(10));
                assert_eq!(changes[0].1[2], Value::Int(42));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn modify_rejects_key_attribute() {
        let mut db = toystore_db();
        let u = upd(
            "UPDATE toys SET toy_id = ? WHERE toy_id = ?",
            vec![Value::Int(9), Value::Int(1)],
        );
        assert!(matches!(db.apply(&u), Err(StorageError::BadModify(_))));
    }

    /// The parser rejects a predicate without a column; a hand-built
    /// template must get an error back, not abort the home server.
    #[test]
    fn scalar_only_predicate_is_an_error() {
        use scs_sqlkit::{DeleteTemplate, Operand};
        let mut db = toystore_db();
        let one = || Operand::Scalar(Scalar::Literal(Value::Int(1)));
        let tpl = UpdateTemplate::Delete(DeleteTemplate {
            table: "toys".into(),
            predicates: vec![Predicate {
                lhs: one(),
                op: CmpOp::Eq,
                rhs: one(),
            }],
            param_count: 0,
        });
        let u = Update::bind(0, Arc::new(tpl), vec![]).unwrap();
        assert!(matches!(db.apply(&u), Err(StorageError::BadQuery(_))));
        assert_eq!(db.table("toys").unwrap().len(), 3);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = toystore_db();
        let r = db.create_table(
            TableSchema::builder("toys")
                .column("x", ColumnType::Int)
                .build()
                .unwrap(),
        );
        assert!(r.is_err());
    }
}
