//! Query plans: the part of execution that is a function of the catalog
//! and the query *template* alone, derived once per template.
//!
//! A Web application issues a fixed set of templates (§2.1), so everything
//! the executor would otherwise re-derive by name on every statement lives
//! here: each column resolved to (alias, position), the predicates sorted
//! into restrictions, same-alias comparisons and joins, each alias's own
//! predicate list and the equality-index *slot* its first indexed `=`
//! restriction reads, for each join side the slot of its column's index and
//! whether the column is the alias's whole primary key, the select / group
//! / aggregate / sort positions, whether the index-ordered top-k applies
//! and along which ordered index, under which `=` restrictions, the output
//! column names — and every name-resolution error, kept at the
//! point where execution meets it (an aggregate's bad argument only once a
//! group exists, a bad `ORDER BY` on grouped output only after the groups
//! are built).
//!
//! What depends on the data — parameter values, candidate counts, hence the
//! greedy join order and the row order — is not in a plan; see `executor`.
//!
//! [`PlanMemo`] keeps the plans (errors included) by template *identity*:
//! the address of the statement's `Arc<QueryTemplate>`, with a clone of the
//! `Arc` held beside the plan so that the address cannot be given to
//! another template while the entry lives. Two templates with one
//! `template_id` are two entries; a template bound through two `Arc`s is
//! planned twice, which costs time only. The memo empties when a table is
//! created (a plan that failed on the missing table is stale) and when it
//! reaches [`MEMO_CAP`] entries, so a caller minting templates without end
//! holds a bounded number of them alive.

use crate::error::StorageError;
use crate::hash::KeyMap;
use crate::schema::TableSchema;
use scs_sqlkit::{AggFunc, CmpOp, ColumnRef, Query, QueryTemplate, Scalar, SelectItem, Value};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

/// A column resolved to (alias index, column position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Col {
    pub(crate) alias: usize,
    pub(crate) pos: usize,
}

/// `column op scalar`, local to one alias; the scalar is bound per statement.
#[derive(Debug)]
pub(crate) struct Restriction {
    pub(crate) col: Col,
    pub(crate) op: CmpOp,
    pub(crate) scalar: Scalar,
}

/// `column op column` within one alias (violates the paper's §2.1.1
/// assumption but is still executable), as column positions.
#[derive(Debug)]
pub(crate) struct LocalColCol {
    pub(crate) lhs: usize,
    pub(crate) op: CmpOp,
    pub(crate) rhs: usize,
}

/// One side of a join condition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinSide {
    pub(crate) col: Col,
    /// The slot of the column's equality index, if it has one.
    pub(crate) slot: Option<usize>,
    /// The column is its table's whole primary key: at most one row holds
    /// any value of it.
    pub(crate) unique: bool,
}

/// `column op column` across two aliases (a join condition).
#[derive(Debug)]
pub(crate) struct JoinPred {
    pub(crate) lhs: JoinSide,
    pub(crate) op: CmpOp,
    pub(crate) rhs: JoinSide,
}

/// One `FROM` alias's own predicates and access path.
#[derive(Debug, Default)]
pub(crate) struct AliasPlan {
    /// Its restrictions: this range of [`Plan::restrictions`].
    pub(crate) restrictions: Range<usize>,
    pub(crate) locals: Vec<LocalColCol>,
    /// The first of `restrictions` that is `=` on an equality-indexed
    /// column, with that index's slot: candidates are read off its list.
    pub(crate) eq_access: Option<(usize, usize)>,
}

impl AliasPlan {
    /// True if the alias has a predicate of its own, i.e. its candidates
    /// are fewer than its table.
    pub(crate) fn is_filtered(&self) -> bool {
        !self.restrictions.is_empty() || !self.locals.is_empty()
    }
}

/// The index-ordered top-k of a single-alias query: walk an ordered index
/// that ends in the sort key, inside the rows its leading columns' `=`
/// restrictions select, between the bounds the key's own restrictions give.
#[derive(Debug)]
pub(crate) struct Walk {
    /// The index's column list: the `=`-bound prefix, then the sort key.
    pub(crate) cols: Vec<usize>,
    pub(crate) desc: bool,
    /// Column by column of the prefix, the `=` restriction that binds it,
    /// as an index into [`Plan::restrictions`].
    pub(crate) prefix: Vec<usize>,
    /// The restrictions on the key column, as indices into
    /// [`Plan::restrictions`].
    pub(crate) bounds: Vec<usize>,
}

/// One select item of an aggregating query.
#[derive(Debug)]
pub(crate) enum AggItem {
    /// A plain column: the group-by key at this position.
    GroupKey(usize),
    /// An aggregate and its argument (`None` for `*`) as an index into the
    /// folded columns. An unresolvable argument is an error only once a
    /// group's row is built.
    Agg(AggFunc, Option<Result<usize, StorageError>>),
}

/// What becomes of the joined tuples.
#[derive(Debug)]
pub(crate) enum Output {
    Project {
        select: Vec<Col>,
        /// Sort keys (possibly non-projected columns) and their directions.
        keys: Vec<Col>,
        desc: Vec<bool>,
        walk: Option<Walk>,
    },
    Aggregate {
        items: Vec<AggItem>,
        /// The aggregates' arguments, each folded into an accumulator of
        /// its own per group.
        folds: Vec<(AggFunc, Col)>,
        group: Vec<Col>,
        /// `ORDER BY` on the grouped output as (select position, descending);
        /// a key that is not a selected group-by column is an error once
        /// the groups are built.
        order: Result<Vec<(usize, bool)>, StorageError>,
    },
}

/// Everything about executing a template that its statements share.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Output column names.
    pub(crate) columns: Vec<String>,
    pub(crate) aliases: Vec<AliasPlan>,
    /// Alias by alias, in predicate order within one.
    pub(crate) restrictions: Vec<Restriction>,
    pub(crate) joins: Vec<JoinPred>,
    /// `LIMIT` as a row count; `usize::MAX` when the query has none.
    pub(crate) limit: usize,
    pub(crate) output: Output,
}

impl Plan {
    /// Plans `tpl` over tables of `schemas`, one per `FROM` entry.
    pub(crate) fn new(tpl: &QueryTemplate, schemas: &[&TableSchema]) -> Result<Plan, StorageError> {
        if schemas.is_empty() {
            return Err(StorageError::BadQuery("query has no FROM table".into()));
        }
        let resolve = |c: &ColumnRef| -> Result<Col, StorageError> {
            let alias = tpl
                .from
                .iter()
                .position(|t| t.alias == c.qualifier)
                .ok_or_else(|| {
                    StorageError::BadQuery(format!("unresolved qualifier `{}`", c.qualifier))
                })?;
            let pos = schemas[alias].column_index(&c.column).ok_or_else(|| {
                StorageError::UnknownColumn {
                    table: schemas[alias].name.clone(),
                    column: c.column.clone(),
                }
            })?;
            Ok(Col { alias, pos })
        };
        let column_name = |c: Col| &schemas[c.alias].columns[c.pos].name;
        let index_slot = |c: Col| schemas[c.alias].index_slot(column_name(c));
        let join_side = |col: Col| JoinSide {
            col,
            slot: index_slot(col),
            unique: schemas[col.alias].primary_key[..] == [column_name(col).as_str()],
        };

        let mut aliases: Vec<AliasPlan> = schemas.iter().map(|_| AliasPlan::default()).collect();
        let mut restrictions = Vec::new();
        let mut joins = Vec::new();
        for p in &tpl.predicates {
            if let Some((c, op, s)) = p.as_restriction() {
                restrictions.push(Restriction {
                    col: resolve(c)?,
                    op,
                    scalar: s.clone(),
                });
            } else if let Some((l, op, r)) = p.as_join() {
                let (lc, rc) = (resolve(l)?, resolve(r)?);
                if lc.alias == rc.alias {
                    aliases[lc.alias].locals.push(LocalColCol {
                        lhs: lc.pos,
                        op,
                        rhs: rc.pos,
                    });
                } else {
                    joins.push(JoinPred {
                        lhs: join_side(lc),
                        op,
                        rhs: join_side(rc),
                    });
                }
            } else {
                // The parser rejects these; a hand-built AST can hold one.
                return Err(StorageError::BadQuery(format!(
                    "predicate `{p}` compares no column"
                )));
            }
        }

        restrictions.sort_by_key(|r| r.col.alias); // stable
        let mut end = 0;
        for (a, alias) in aliases.iter_mut().enumerate() {
            let start = end;
            end += restrictions[start..]
                .iter()
                .take_while(|r| r.col.alias == a)
                .count();
            alias.restrictions = start..end;
            alias.eq_access = (start..end).find_map(|r| {
                let by_eq = restrictions[r].op == CmpOp::Eq;
                let slot = index_slot(restrictions[r].col).filter(|_| by_eq)?;
                Some((r, slot))
            });
        }

        let output = if tpl.has_aggregates() || !tpl.group_by.is_empty() {
            // Plain select items must be group-by columns.
            let mut items = Vec::with_capacity(tpl.select.len());
            let mut folds = Vec::new();
            for s in &tpl.select {
                items.push(match s {
                    SelectItem::Column(c) => {
                        let gpos = tpl.group_by.iter().position(|g| g == c).ok_or_else(|| {
                            StorageError::BadQuery(format!(
                                "non-aggregated column `{c}` must appear in GROUP BY"
                            ))
                        })?;
                        AggItem::GroupKey(gpos)
                    }
                    SelectItem::Aggregate { func, arg } => {
                        let fold = |col| {
                            folds.push((*func, col));
                            folds.len() - 1
                        };
                        AggItem::Agg(*func, arg.as_ref().map(|c| resolve(c).map(fold)))
                    }
                });
            }
            let group = tpl
                .group_by
                .iter()
                .map(&resolve)
                .collect::<Result<_, _>>()?;
            let order = tpl
                .order_by
                .iter()
                .map(|k| {
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
                    Ok((pos, k.desc))
                })
                .collect();
            Output::Aggregate {
                items,
                folds,
                group,
                order,
            }
        } else {
            let keys: Vec<Col> = tpl
                .order_by
                .iter()
                .map(|k| resolve(&k.column))
                .collect::<Result<_, _>>()?;
            let desc: Vec<bool> = tpl.order_by.iter().map(|k| k.desc).collect();
            let mut select = Vec::with_capacity(tpl.select.len());
            for s in &tpl.select {
                if let SelectItem::Column(c) = s {
                    select.push(resolve(c)?);
                }
            }
            // One alias, `LIMIT`, one sort key, and an ordered index that
            // ends in the key and whose columns before it are each bound
            // by an `=` restriction — the longest such. An equality list
            // the alias would read is given up only for an index that
            // narrows by the list's column too: the walk then reads no
            // more rows than the list holds.
            let walk = match (&keys[..], tpl.limit) {
                ([key], Some(_)) if schemas.len() == 1 => {
                    let bound_by_eq = |pos: &usize| {
                        let binds = |r: &Restriction| r.op == CmpOp::Eq && r.col.pos == *pos;
                        restrictions.iter().position(binds)
                    };
                    let listed = aliases[0].eq_access.map(|(r, _)| restrictions[r].col.pos);
                    let usable = schemas[0].ordered_indexes.iter().filter_map(|list| {
                        let cols = list.iter().map(|c| schemas[0].column_index(c));
                        let cols: Vec<usize> = cols.collect::<Option<_>>()?;
                        let (last, leading) = cols.split_last()?;
                        let prefix: Vec<usize> =
                            leading.iter().map(bound_by_eq).collect::<Option<_>>()?;
                        let applies =
                            *last == key.pos && listed.is_none_or(|pos| leading.contains(&pos));
                        applies.then_some((cols, prefix))
                    });
                    let longest = usable.max_by_key(|(cols, _)| cols.len());
                    longest.map(|(cols, prefix)| Walk {
                        cols,
                        desc: desc[0],
                        prefix,
                        bounds: (0..restrictions.len())
                            .filter(|r| restrictions[*r].col == *key)
                            .collect(),
                    })
                }
                _ => None,
            };
            Output::Project {
                select,
                keys,
                desc,
                walk,
            }
        };

        Ok(Plan {
            columns: tpl.select.iter().map(|s| s.to_string()).collect(),
            aliases,
            restrictions,
            joins,
            limit: tpl
                .limit
                .map_or(usize::MAX, |k| usize::try_from(k).unwrap_or(usize::MAX)),
            output,
        })
    }

    /// The value each of [`Plan::restrictions`] compares with in `q`, a
    /// statement of the planned template.
    pub(crate) fn bind<'a>(&'a self, q: &'a Query) -> Vec<&'a Value> {
        let scalars = self.restrictions.iter().map(|r| &r.scalar);
        scalars.map(|s| q.resolve(s)).collect()
    }
}

/// Entries a [`PlanMemo`] holds before it starts over.
const MEMO_CAP: usize = 1024;

/// A template's plan, or the error planning it met.
pub(crate) type Planned = Arc<Result<Plan, StorageError>>;

/// The plans of the templates executed so far; see the module comment.
///
/// Not part of what it sits in: every memo equals every other, and a clone
/// starts empty — a plan is re-derivable from catalog and template, so
/// neither changes a result.
#[derive(Default)]
pub struct PlanMemo {
    /// Template address -> (the template, pinning the address; its plan).
    plans: Mutex<KeyMap<usize, (Arc<QueryTemplate>, Planned)>>,
}

impl PlanMemo {
    /// `template`'s plan, built by `build` if this memo does not hold it.
    pub(crate) fn plan(
        &self,
        template: &Arc<QueryTemplate>,
        build: impl FnOnce() -> Result<Plan, StorageError>,
    ) -> Planned {
        let address = Arc::as_ptr(template) as usize;
        // Every update of the map is one whole insert or clear, so a
        // poisoned lock still guards a consistent map.
        if let Some((_, plan)) = self.lock().get(&address) {
            return plan.clone();
        }
        let plan = Arc::new(build());
        let mut plans = self.lock();
        if plans.len() >= MEMO_CAP {
            plans.clear();
        }
        plans.insert(address, (template.clone(), plan.clone()));
        plan
    }

    /// Forgets every plan: the catalog they were derived from has changed.
    pub(crate) fn clear(&mut self) {
        self.plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, KeyMap<usize, (Arc<QueryTemplate>, Planned)>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

impl Clone for PlanMemo {
    fn clone(&self) -> PlanMemo {
        PlanMemo::default()
    }
}

impl PartialEq for PlanMemo {
    fn eq(&self, _: &PlanMemo) -> bool {
        true
    }
}

impl fmt::Debug for PlanMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PlanMemo({} plans)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::ColumnType;
    use scs_sqlkit::parse_query;

    fn db() -> Database {
        let mut db = Database::new();
        let toys = TableSchema::builder("toys")
            .column("toy_id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key(&["toy_id"]);
        db.create_table(toys.build().unwrap()).unwrap();
        for id in 0..4 {
            db.insert_row("toys", vec![Value::Int(id), Value::Int(10 * id)])
                .unwrap();
        }
        db
    }

    fn rows(db: &Database, template: &Arc<QueryTemplate>, params: Vec<Value>) -> Vec<Vec<Value>> {
        let q = Query::bind(0, template.clone(), params).unwrap();
        db.execute(&q).unwrap().rows
    }

    #[test]
    fn a_template_is_planned_once_and_bound_per_statement() {
        let db = db();
        let by_id = Arc::new(parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap());
        for id in 0..4 {
            assert_eq!(
                rows(&db, &by_id, vec![Value::Int(id)]),
                [[Value::Int(10 * id)]]
            );
        }
        assert_eq!(db.plans().len(), 1);
        // The same text through another `Arc` is another template.
        let again = Arc::new(QueryTemplate::clone(&by_id));
        assert_eq!(rows(&db, &again, vec![Value::Int(3)]), [[Value::Int(30)]]);
        assert_eq!(db.plans().len(), 2);
        // A clone starts over and answers the same; memos never differ.
        let copy = db.clone();
        assert_eq!(copy.plans().len(), 0);
        assert_eq!(rows(&copy, &by_id, vec![Value::Int(2)]), [[Value::Int(20)]]);
        assert_eq!(copy, db);
    }

    /// Templates minted and dropped one after the other get, as a rule, one
    /// address from the allocator: the memo must not take the second for
    /// the first. Under one `template_id` throughout.
    #[test]
    fn a_dropped_templates_address_is_not_its_successors_plan() {
        let db = db();
        for round in 0..64 {
            let ids = Arc::new(parse_query("SELECT toy_id FROM toys WHERE toy_id >= ?").unwrap());
            assert_eq!(
                rows(&db, &ids, vec![Value::Int(3)]),
                [[Value::Int(3)]],
                "{round}"
            );
            drop(ids);
            let qtys = Arc::new(parse_query("SELECT qty FROM toys WHERE toy_id >= ?").unwrap());
            assert_eq!(
                rows(&db, &qtys, vec![Value::Int(3)]),
                [[Value::Int(30)]],
                "{round}"
            );
        }
    }

    /// The walk planned for `sql` over `t(id, c, d, e)` — ordered on
    /// `(c, d)`, `(c, e, d)` and `d`, with equality indexes on `listed` —
    /// as (the index's columns, the restrictions binding its prefix,
    /// the key's bounds).
    fn walk_of(sql: &str, listed: &[&str]) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let mut t = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("c", ColumnType::Int)
            .column("d", ColumnType::Int)
            .column("e", ColumnType::Int)
            .ordered_index_on(&["c", "d"])
            .ordered_index_on(&["c", "e", "d"])
            .ordered_index("d");
        for col in listed {
            t = t.index(col);
        }
        let (t, tpl) = (t.build().unwrap(), parse_query(sql).unwrap());
        let schemas: Vec<&TableSchema> = tpl.from.iter().map(|_| &t).collect();
        match Plan::new(&tpl, &schemas).unwrap().output {
            Output::Project { walk, .. } => walk.map(|w| (w.cols, w.prefix, w.bounds)),
            Output::Aggregate { .. } => None,
        }
    }

    #[test]
    fn a_walk_takes_the_longest_index_its_equalities_bind() {
        let (c, d, e) = (1, 2, 3);
        let by_c = "SELECT id FROM t WHERE d >= ? AND c = ? AND d < ? ORDER BY d LIMIT 5";
        let want = Some((vec![c, d], vec![1], vec![0, 2]));
        assert_eq!(walk_of(by_c, &[]), want);
        assert_eq!(walk_of(by_c, &["c"]), want, "the list given up is `c`'s");
        assert_eq!(
            walk_of(&by_c.replace("d LIMIT", "d DESC LIMIT"), &["c"]),
            want
        );
        let by_c_e = "SELECT id FROM t WHERE e = ? AND c = ? ORDER BY d LIMIT 5";
        let want = Some((vec![c, e, d], vec![1, 0], vec![]));
        assert_eq!(walk_of(by_c_e, &[]), want);
        assert_eq!(
            walk_of(by_c_e, &["e"]),
            want,
            "`(c, e, d)` narrows by `e` too"
        );
        // No prefix: `d` alone, as before there were column lists.
        let want = Some((vec![d], vec![], vec![0]));
        assert_eq!(
            walk_of("SELECT id FROM t WHERE d > ? ORDER BY d LIMIT 5", &["c"]),
            want
        );
        assert_eq!(
            walk_of("SELECT id FROM t ORDER BY d LIMIT 5", &[]),
            Some((vec![d], vec![], vec![]))
        );
    }

    #[test]
    fn a_walk_is_refused_where_the_rule_does_not_hold() {
        // A prefix column bound by anything but `=` binds nothing: `d`
        // alone is walked, every `c` tested row by row.
        for op in ["<", "<=", ">", ">="] {
            let sql = format!("SELECT id FROM t WHERE c {op} ? ORDER BY d LIMIT 5");
            assert_eq!(walk_of(&sql, &[]), Some((vec![2], vec![], vec![])), "{op}");
        }
        // `e`'s equality list is read unless the index narrows by `e`.
        let by_e = "SELECT id FROM t WHERE e = ? ORDER BY d LIMIT 5";
        assert!(walk_of(by_e, &[]).is_some());
        assert_eq!(walk_of(by_e, &["e"]), None);
        let by_e_c = "SELECT id FROM t WHERE e = ? AND c >= ? ORDER BY d LIMIT 5";
        assert_eq!(walk_of(by_e_c, &["e"]), None);
        // Both columns listed: the list read is `c`'s, the one `=` there is.
        let both = "SELECT id FROM t WHERE c = ? AND e >= ? ORDER BY d LIMIT 5";
        assert_eq!(
            walk_of(both, &["c", "e"]),
            Some((vec![1, 2], vec![0], vec![]))
        );
        // The sort key must end the list; one key, `LIMIT`, one alias.
        for sql in [
            "SELECT id FROM t WHERE c = ? ORDER BY e LIMIT 5",
            "SELECT id FROM t WHERE c = ? ORDER BY d",
            "SELECT id FROM t WHERE c = ? ORDER BY d, id LIMIT 5",
            "SELECT t1.id FROM t t1, t t2 WHERE t1.c = ? ORDER BY t1.d LIMIT 5",
            "SELECT c, COUNT(*) FROM t WHERE c = ? GROUP BY c ORDER BY c LIMIT 5",
        ] {
            assert_eq!(walk_of(sql, &[]), None, "{sql}");
        }
    }

    #[test]
    fn the_memo_is_bounded_and_emptied_with_the_catalog() {
        let mut db = db();
        let templates: Vec<_> = (0..10_000)
            .map(|i| Arc::new(parse_query(&format!("SELECT qty FROM toys LIMIT {i}")).unwrap()))
            .collect();
        for (i, template) in templates.iter().enumerate() {
            assert_eq!(rows(&db, template, vec![]).len(), i.min(4));
            assert!(db.plans().len() <= MEMO_CAP);
        }
        assert_ne!(db.plans().len(), 0);
        // A failed plan is remembered like any other, until the catalog
        // it failed on changes.
        let boxes = Arc::new(parse_query("SELECT box_id FROM boxes").unwrap());
        let q = Query::bind(0, boxes, vec![]).unwrap();
        for _ in 0..2 {
            assert_eq!(
                db.execute(&q),
                Err(StorageError::UnknownTable("boxes".into()))
            );
        }
        let schema = TableSchema::builder("boxes").column("box_id", ColumnType::Int);
        db.create_table(schema.build().unwrap()).unwrap();
        assert_eq!(db.plans().len(), 0);
        assert_eq!(db.execute(&q).unwrap().rows, Vec::<Vec<Value>>::new());
    }
}
