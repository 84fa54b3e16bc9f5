//! The executor as it stood before the index-nested-loop / top-k / flat-tuple
//! rewrite, kept verbatim as the oracle of `tests/differential_executor.rs`:
//! per-alias candidate filtering, greedy join order, a hash join built over
//! the whole candidate list, a full stable sort on cloned keys, and one
//! `Vec<Value>` per group per aggregate. Slow and obviously right; built on
//! the public `Database::table` / `Table::{row, iter, index_lookup}` API
//! only, and not compiled into the library.
//!
//! Its panics (`expect("live")`, the scalar-only-predicate `unreachable!`)
//! are left in: the differential tests feed it parser-built queries over
//! consistent tables, where none of them can fire.

use scs_sqlkit::{AggFunc, CmpOp, ColumnRef, Query, SelectItem, Value};
use scs_storage::{Database, QueryResult, Row, RowId, StorageError, Table};
use std::collections::HashMap;

/// Executes `q` against `db`, producing a materialized result.
pub fn execute(db: &Database, q: &Query) -> Result<QueryResult, StorageError> {
    let tpl = &q.template;
    let tables: Vec<&Table> = tpl
        .from
        .iter()
        .map(|tr| db.table(&tr.table))
        .collect::<Result<_, _>>()?;

    let ctx = Context::new(q, &tables)?;
    let tuples = ctx.join()?;
    ctx.finish(tuples)
}

/// A column resolved to (alias index, column position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Col {
    alias: usize,
    pos: usize,
}

/// `column op value`, local to one alias.
struct Restriction {
    col: Col,
    op: CmpOp,
    value: Value,
}

/// `column op column` within one alias (violates the paper's §2.1.1
/// assumption but is still executable).
struct LocalColCol {
    alias: usize,
    lhs: usize,
    op: CmpOp,
    rhs: usize,
}

/// `column op column` across two aliases (a join condition).
struct JoinPred {
    lhs: Col,
    op: CmpOp,
    rhs: Col,
}

struct Context<'a> {
    q: &'a Query,
    tables: Vec<&'a Table>,
    restrictions: Vec<Restriction>,
    locals: Vec<LocalColCol>,
    joins: Vec<JoinPred>,
}

impl<'a> Context<'a> {
    fn new(q: &'a Query, tables: &[&'a Table]) -> Result<Context<'a>, StorageError> {
        let mut ctx = Context {
            q,
            tables: tables.to_vec(),
            restrictions: Vec::new(),
            locals: Vec::new(),
            joins: Vec::new(),
        };
        for p in &q.template.predicates {
            if let Some((c, op, s)) = p.as_restriction() {
                let col = ctx.resolve(c)?;
                ctx.restrictions.push(Restriction {
                    col,
                    op,
                    value: q.resolve(s).clone(),
                });
            } else if let Some((l, op, r)) = p.as_join() {
                let lc = ctx.resolve(l)?;
                let rc = ctx.resolve(r)?;
                if lc.alias == rc.alias {
                    ctx.locals.push(LocalColCol {
                        alias: lc.alias,
                        lhs: lc.pos,
                        op,
                        rhs: rc.pos,
                    });
                } else {
                    ctx.joins.push(JoinPred {
                        lhs: lc,
                        op,
                        rhs: rc,
                    });
                }
            } else {
                unreachable!("parser rejects scalar-only predicates");
            }
        }
        Ok(ctx)
    }

    fn resolve(&self, c: &ColumnRef) -> Result<Col, StorageError> {
        let alias = self
            .q
            .template
            .from
            .iter()
            .position(|t| t.alias == c.qualifier)
            .ok_or_else(|| {
                StorageError::BadQuery(format!("unresolved qualifier `{}`", c.qualifier))
            })?;
        let pos = self.tables[alias]
            .schema()
            .column_index(&c.column)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.tables[alias].schema().name.clone(),
                column: c.column.clone(),
            })?;
        Ok(Col { alias, pos })
    }

    /// Candidate row ids for one alias after local filtering.
    fn candidates(&self, alias: usize) -> Vec<RowId> {
        let table = self.tables[alias];
        let my_restrictions: Vec<&Restriction> = self
            .restrictions
            .iter()
            .filter(|r| r.col.alias == alias)
            .collect();
        let my_locals: Vec<&LocalColCol> =
            self.locals.iter().filter(|l| l.alias == alias).collect();
        let passes = |row: &Row| {
            my_restrictions
                .iter()
                .all(|r| r.op.eval(&row[r.col.pos], &r.value))
                && my_locals
                    .iter()
                    .all(|l| l.op.eval(&row[l.lhs], &row[l.rhs]))
        };
        // Indexed equality fast path.
        for r in &my_restrictions {
            if r.op == CmpOp::Eq {
                if let Some(ids) = table.index_lookup(r.col.pos, &r.value) {
                    return ids
                        .iter()
                        .copied()
                        .filter(|id| passes(table.row(*id).expect("live")))
                        .collect();
                }
            }
        }
        table
            .iter()
            .filter(|(_, row)| passes(row))
            .map(|(id, _)| id)
            .collect()
    }

    /// Performs the join; returns tuples as row-id vectors indexed by alias.
    fn join(&self) -> Result<Vec<Vec<RowId>>, StorageError> {
        let n = self.tables.len();
        let candidates: Vec<Vec<RowId>> = (0..n).map(|a| self.candidates(a)).collect();

        // Greedy join order: start at the smallest candidate set; then
        // prefer aliases reachable via an equality join from the bound set.
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let pick = if order.is_empty() {
                *remaining
                    .iter()
                    .min_by_key(|a| candidates[**a].len())
                    .expect("nonempty")
            } else {
                let connected = |a: usize| {
                    self.joins.iter().any(|j| {
                        j.op == CmpOp::Eq
                            && ((j.lhs.alias == a && order.contains(&j.rhs.alias))
                                || (j.rhs.alias == a && order.contains(&j.lhs.alias)))
                    })
                };
                *remaining
                    .iter()
                    .min_by_key(|a| (!connected(**a), candidates[**a].len()))
                    .expect("nonempty")
            };
            remaining.retain(|a| *a != pick);
            order.push(pick);
        }

        // `tuples[t][k]` = row id for alias `order[k]`.
        let mut tuples: Vec<Vec<RowId>> = candidates[order[0]].iter().map(|id| vec![*id]).collect();

        for step in 1..n {
            let alias = order[step];
            let bound = &order[..step];
            // Join predicates now fully bound and touching `alias`.
            let mut eq_keys: Vec<(usize, usize, usize)> = Vec::new(); // (bound_slot, bound_pos, new_pos)
            let mut thetas: Vec<(usize, usize, CmpOp, usize)> = Vec::new(); // (bound_slot, bound_pos, op, new_pos) lhs=bound
            for j in &self.joins {
                let (b, np, op) = if j.lhs.alias == alias && bound.contains(&j.rhs.alias) {
                    (j.rhs, j.lhs.pos, j.op.flipped())
                } else if j.rhs.alias == alias && bound.contains(&j.lhs.alias) {
                    (j.lhs, j.rhs.pos, j.op)
                } else {
                    continue;
                };
                let slot = bound.iter().position(|a| *a == b.alias).expect("bound");
                if op == CmpOp::Eq {
                    eq_keys.push((slot, b.pos, np));
                } else {
                    thetas.push((slot, b.pos, op, np));
                }
            }

            let table = self.tables[alias];
            let row_of = |t: &Vec<RowId>, slot: usize| -> &Row {
                self.tables[order[slot]].row(t[slot]).expect("live")
            };
            let theta_ok = |t: &Vec<RowId>, new_row: &Row| {
                thetas.iter().all(|(slot, bpos, op, npos)| {
                    op.eval(&row_of(t, *slot)[*bpos], &new_row[*npos])
                })
            };

            let mut next: Vec<Vec<RowId>> = Vec::new();
            if eq_keys.is_empty() {
                for t in &tuples {
                    for id in &candidates[alias] {
                        let new_row = table.row(*id).expect("live");
                        if theta_ok(t, new_row) {
                            let mut ext = t.clone();
                            ext.push(*id);
                            next.push(ext);
                        }
                    }
                }
            } else {
                // Hash join: build on the new alias's candidates.
                let mut hash: HashMap<Vec<Value>, Vec<RowId>> = HashMap::new();
                for id in &candidates[alias] {
                    let row = table.row(*id).expect("live");
                    let key: Vec<Value> =
                        eq_keys.iter().map(|(_, _, np)| row[*np].clone()).collect();
                    hash.entry(key).or_default().push(*id);
                }
                for t in &tuples {
                    let key: Vec<Value> = eq_keys
                        .iter()
                        .map(|(slot, bpos, _)| row_of(t, *slot)[*bpos].clone())
                        .collect();
                    if let Some(ids) = hash.get(&key) {
                        for id in ids {
                            let new_row = table.row(*id).expect("live");
                            if theta_ok(t, new_row) {
                                let mut ext = t.clone();
                                ext.push(*id);
                                next.push(ext);
                            }
                        }
                    }
                }
            }
            tuples = next;
            if tuples.is_empty() {
                break;
            }
        }

        // Re-order each tuple from join order back to alias order.
        let mut slot_of_alias = vec![0usize; n];
        for (slot, a) in order.iter().enumerate() {
            slot_of_alias[*a] = slot;
        }
        Ok(tuples
            .into_iter()
            .map(|t| (0..n).map(|a| t[slot_of_alias[a]]).collect())
            .collect())
    }

    /// Projection, aggregation, ordering, top-k.
    fn finish(&self, tuples: Vec<Vec<RowId>>) -> Result<QueryResult, StorageError> {
        let tpl = &self.q.template;
        let columns: Vec<String> = tpl.select.iter().map(|s| s.to_string()).collect();
        let value_at = |t: &Vec<RowId>, c: Col| -> Value {
            self.tables[c.alias].row(t[c.alias]).expect("live")[c.pos].clone()
        };

        let mut rows: Vec<Vec<Value>>;
        if tpl.has_aggregates() || !tpl.group_by.is_empty() {
            rows = self.aggregate(&tuples, &value_at)?;
            // ORDER BY on grouped output: keys must be group-by columns.
            if !tpl.order_by.is_empty() {
                let mut key_positions = Vec::with_capacity(tpl.order_by.len());
                for k in &tpl.order_by {
                    let pos = tpl
                        .select
                        .iter()
                        .position(|s| matches!(s, SelectItem::Column(c) if c == &k.column))
                        .ok_or_else(|| {
                            StorageError::BadQuery(format!(
                                "ORDER BY `{}` must be a selected group-by column",
                                k.column
                            ))
                        })?;
                    key_positions.push((pos, k.desc));
                }
                rows.sort_by(|a, b| {
                    for (pos, desc) in &key_positions {
                        let ord = a[*pos].cmp(&b[*pos]);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
        } else {
            // Plain projection; sort tuples by order-by keys first (keys may
            // be non-projected columns).
            let mut tuples = tuples;
            if !tpl.order_by.is_empty() {
                let keys: Vec<(Col, bool)> = tpl
                    .order_by
                    .iter()
                    .map(|k| Ok((self.resolve(&k.column)?, k.desc)))
                    .collect::<Result<_, StorageError>>()?;
                tuples.sort_by(|a, b| {
                    for (col, desc) in &keys {
                        let ord = value_at(a, *col).cmp(&value_at(b, *col));
                        let ord = if *desc { ord.reverse() } else { ord };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            let select_cols: Vec<Col> = tpl
                .select
                .iter()
                .map(|s| match s {
                    SelectItem::Column(c) => self.resolve(c),
                    SelectItem::Aggregate { .. } => unreachable!("no aggregates here"),
                })
                .collect::<Result<_, _>>()?;
            rows = tuples
                .iter()
                .map(|t| select_cols.iter().map(|c| value_at(t, *c)).collect())
                .collect();
        }

        if let Some(k) = tpl.limit {
            rows.truncate(k as usize);
        }
        Ok(QueryResult::new(columns, rows))
    }

    /// Grouped / scalar aggregation.
    fn aggregate(
        &self,
        tuples: &[Vec<RowId>],
        value_at: &dyn Fn(&Vec<RowId>, Col) -> Value,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let tpl = &self.q.template;
        // Validate select items: plain columns must be group-by columns.
        for s in &tpl.select {
            if let SelectItem::Column(c) = s {
                if !tpl.group_by.contains(c) {
                    return Err(StorageError::BadQuery(format!(
                        "non-aggregated column `{c}` must appear in GROUP BY"
                    )));
                }
            }
        }
        let group_cols: Vec<Col> = tpl
            .group_by
            .iter()
            .map(|c| self.resolve(c))
            .collect::<Result<_, _>>()?;

        // Group key -> member tuples, preserving first-seen group order.
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            let key: Vec<Value> = group_cols.iter().map(|c| value_at(t, *c)).collect();
            match index.get(&key) {
                Some(g) => groups[*g].1.push(i),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![i]));
                }
            }
        }
        // Scalar aggregation (no GROUP BY): a single group over all tuples.
        // Over empty input, emit one row only if every aggregate is COUNT
        // (SQL would produce NULLs, which the model lacks).
        if tpl.group_by.is_empty() {
            if tuples.is_empty() {
                let all_count = tpl.select.iter().all(|s| {
                    matches!(
                        s,
                        SelectItem::Aggregate {
                            func: AggFunc::Count,
                            ..
                        }
                    )
                });
                return Ok(if all_count {
                    vec![vec![Value::Int(0); tpl.select.len()]]
                } else {
                    Vec::new()
                });
            }
            groups = vec![(Vec::new(), (0..tuples.len()).collect())];
        }

        let mut rows = Vec::with_capacity(groups.len());
        for (key, members) in &groups {
            let mut out = Vec::with_capacity(tpl.select.len());
            for s in &tpl.select {
                match s {
                    SelectItem::Column(c) => {
                        let gpos = tpl.group_by.iter().position(|g| g == c).expect("validated");
                        out.push(key[gpos].clone());
                    }
                    SelectItem::Aggregate { func, arg } => {
                        let vals: Vec<Value> = match arg {
                            Some(c) => {
                                let col = self.resolve(c)?;
                                members.iter().map(|i| value_at(&tuples[*i], col)).collect()
                            }
                            None => Vec::new(), // COUNT(*)
                        };
                        out.push(eval_agg(*func, arg.is_some(), &vals, members.len())?);
                    }
                }
            }
            rows.push(out);
        }
        Ok(rows)
    }
}

/// Evaluates one aggregate over a group.
fn eval_agg(
    func: AggFunc,
    has_arg: bool,
    vals: &[Value],
    group_size: usize,
) -> Result<Value, StorageError> {
    let numeric = |v: &Value| {
        v.as_f64().ok_or_else(|| {
            StorageError::BadQuery(format!("{} over non-numeric value {v}", func.as_str()))
        })
    };
    match func {
        AggFunc::Count => Ok(Value::Int(group_size as i64)),
        AggFunc::Min => {
            if !has_arg {
                return Err(StorageError::BadQuery("MIN requires a column".into()));
            }
            Ok(vals.iter().min().expect("nonempty group").clone())
        }
        AggFunc::Max => {
            if !has_arg {
                return Err(StorageError::BadQuery("MAX requires a column".into()));
            }
            Ok(vals.iter().max().expect("nonempty group").clone())
        }
        AggFunc::Sum => {
            if !has_arg {
                return Err(StorageError::BadQuery("SUM requires a column".into()));
            }
            if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut acc: i64 = 0;
                for v in vals {
                    if let Value::Int(i) = v {
                        acc = acc.saturating_add(*i);
                    }
                }
                Ok(Value::Int(acc))
            } else {
                let mut acc = 0.0;
                for v in vals {
                    acc += numeric(v)?;
                }
                Ok(Value::real(acc))
            }
        }
        AggFunc::Avg => {
            if !has_arg {
                return Err(StorageError::BadQuery("AVG requires a column".into()));
            }
            let mut acc = 0.0;
            for v in vals {
                acc += numeric(v)?;
            }
            Ok(Value::real(acc / vals.len() as f64))
        }
    }
}
