//! SPJ query execution with multiset semantics.
//!
//! Supports exactly the query model of §2.1 (+§5.1): select-project-join
//! with conjunctive predicates over the five comparison operators, optional
//! `ORDER BY`, top-k (`LIMIT`), and aggregation with `GROUP BY`.
//!
//! **Prepared, then run.** What is a function of the catalog and the query
//! *template* — names resolved, predicates classified, index slots, the
//! consumer, the errors — is a `Plan`, built once per template and kept
//! in a [`PlanMemo`] (`plan.rs`). A statement binds its parameters to the
//! plan and runs it; every choice below that depends on the data is made
//! here, per statement.
//!
//! * **Access path.** An alias with predicates of its own is filtered up
//!   front, through an equality index when one of its `=` restrictions has
//!   one, by a scan otherwise. An alias without any is never filtered: it
//!   counts as its whole table.
//! * **Join order.** Greedy: the smallest candidate count first, then
//!   aliases connected by an equality join to the bound set, smallest
//!   first.
//! * **Join step.** An unfiltered alias joined on an indexed equality
//!   column is *probed* per bound tuple (index nested loop). So is a
//!   *filtered* alias joined on its single-column primary key, its own
//!   predicates tested on the probed row: a unique key's bucket holds at
//!   most one row, so it is the hash join's answer without the hash table
//!   (the candidates are still counted, for the join order). Any other
//!   equality join builds a hash table over the alias's candidates; a join
//!   with theta predicates only is a nested loop.
//! * **The last step streams.** Steps before the last materialise their
//!   tuples; the last one hands each tuple to the query's consumer as it is
//!   produced. Projection without `ORDER BY` pushes the row and stops the
//!   step at `LIMIT`; `ORDER BY` gathers the tuple and its sort keys;
//!   aggregation finds the tuple's group and folds it in.
//! * **Top-k.** `ORDER BY` orders tuple numbers by `(keys…, arrival
//!   number)`; with `LIMIT k` only the k smallest are selected and sorted,
//!   and only they are projected.
//! * **Index-ordered top-k.** One alias, `LIMIT k`, one `ORDER BY` key,
//!   and a declared *ordered index* on a column list that ends in the key
//!   and whose columns before it are each bound by an `=` restriction (none
//!   to bind for a one-column index; of several such lists the longest) —
//!   provided the equality list the alias would otherwise read, if any, is
//!   on one of those bound columns, so that the walk visits no more rows
//!   than the list holds. Instead of the scan or the list and the sort, the
//!   index is searched for the rows under the bound prefix, walked from the
//!   bound the key's own restrictions give, every row tested for being one
//!   of the candidates the other path would have had, and the walk stops
//!   once k have passed — at the end of the group of equal keys the k-th
//!   falls in, where an equality list sets the order of ties — or at the
//!   far bound. Any other query takes the rules above.
//! * **Aggregation.** Every aggregate of every group is folded as its
//!   tuples arrive; values are cloned into output rows only.
//!
//! **Row-order contract** — what the home returns is what the cache stores
//! and which rows a top-k keeps, so every plan must produce rows in this
//! order: a scan yields ascending `RowId`; an indexed restriction yields
//! the index's own list order; a probe yields ascending `RowId` per bound
//! tuple (the order a hash bucket built from a scan has; a primary-key
//! probe yields at most one row); sort ties keep arrival order; an
//! index-ordered walk yields key order, ascending `RowId` within equal keys
//! — by construction what the sort gives a scan's candidates (`DESC`
//! reverses the keys, not the ids) — and where the candidates are an
//! equality list's, rows with equal keys in the order that list names them;
//! groups appear in first-seen order. Over a [`PartitionedTable`]: parts in
//! ascending shard id, ascending `RowId` within a part, a part's index list
//! emitted ascending, the parts' ordered walks merged by `(prefix…, key,
//! global row id)`.
//!
//! **One body, two sources.** The run reads each `FROM` alias through
//! `Source`: a `&Table` ([`execute`], the single home), or a
//! [`PartitionedTable`] ([`execute_partitioned`], the sharded home's
//! scatter) — the alias's table as the ordered list of the owning shards'
//! own tables, a row addressed by a *global row id* = its part's base (the
//! slot counts of the parts before it) + its `RowId` there. Global ids
//! order rows exactly as copying the parts, in order, into one fresh table
//! would, so a scatter returns the rows that table would give, in the same
//! order, without copying a row or building an index. The body is
//! monomorphised per source; over `&Table` every `Source` call is the
//! `Table` method of the same name. The parts of a table share one schema,
//! so one plan serves both.

use crate::database::Database;
use crate::error::StorageError;
use crate::hash::KeyIndex;
use crate::plan::{AggItem, Col, JoinSide, Output, Plan, PlanMemo, Planned, Walk};
use crate::result::QueryResult;
use crate::schema::TableSchema;
use crate::table::{Row, RowId, Table};
use scs_sqlkit::{AggFunc, CmpOp, Query, Real, Value};
use std::cmp::Ordering;

/// Executes `q` against `db`, producing a materialized result.
pub fn execute(db: &Database, q: &Query) -> Result<QueryResult, StorageError> {
    run(&planned(db, q), q, tables_of(db, q)?)
}

/// `db`'s table for each of `q`'s `FROM` entries.
fn tables_of<'a>(db: &'a Database, q: &Query) -> Result<Vec<&'a Table>, StorageError> {
    let from = q.template.from.iter();
    from.map(|tr| db.table(&tr.table)).collect()
}

/// The plan of `q`'s template over `db`'s catalog, from `db`'s memo.
fn planned(db: &Database, q: &Query) -> Planned {
    db.plans().plan(&q.template, || {
        let schemas: Vec<&TableSchema> = tables_of(db, q)?.into_iter().map(Table::schema).collect();
        Plan::new(&q.template, &schemas)
    })
}

/// See [`Database::walk_prefix`].
pub(crate) fn walk_prefix(db: &Database, q: &Query) -> Option<usize> {
    match &planned(db, q).as_ref().as_ref().ok()?.output {
        Output::Project { walk, .. } => walk.as_ref().map(|w| w.prefix.len()),
        Output::Aggregate { .. } => None,
    }
}

/// Executes `q` over partitioned tables, `tables[i]` standing for the
/// query's `i`-th `FROM` entry: the result, rows and order, that
/// [`execute`] returns on a database holding each table's parts copied, in
/// order, into one table. `plans` must only ever see tables of one catalog.
pub fn execute_partitioned(
    plans: &PlanMemo,
    q: &Query,
    tables: Vec<PartitionedTable<'_>>,
) -> Result<QueryResult, StorageError> {
    if tables.len() != q.template.from.len() || tables.iter().any(|t| t.parts.is_empty()) {
        return Err(StorageError::BadQuery(
            "a partitioned query needs one table of at least one part per FROM entry".into(),
        ));
    }
    let plan = plans.plan(&q.template, || {
        let schemas: Vec<&TableSchema> = tables.iter().map(Source::schema).collect();
        Plan::new(&q.template, &schemas)
    });
    run(&plan, q, tables)
}

/// Binds `q`'s parameters to its template's plan and runs it, or returns
/// the error planning met.
fn run<'a, S: Source<'a>>(
    planned: &'a Planned,
    q: &'a Query,
    tables: Vec<S>,
) -> Result<QueryResult, StorageError> {
    let plan = planned.as_ref().as_ref().map_err(Clone::clone)?;
    let run = Run {
        plan,
        tables,
        values: plan.bind(q),
    };
    let rows = match &plan.output {
        Output::Project {
            select,
            keys,
            desc,
            walk,
        } => run.project(select, keys, desc, walk.as_ref())?,
        Output::Aggregate {
            items,
            folds,
            group,
            order,
        } => run.aggregate(items, folds, group, order)?,
    };
    Ok(QueryResult::new(plan.columns.clone(), rows))
}

/// The rows of one `FROM` alias as the plan reads them. Row ids are the
/// source's own: whatever `scan` and `index_lookup` yield, `live_row` takes.
trait Source<'a> {
    fn schema(&self) -> &'a TableSchema;

    /// Number of live rows.
    fn len(&self) -> usize;

    /// Every live row, in ascending row id.
    fn scan(&self) -> impl Iterator<Item = (RowId, &'a Row)>;

    fn live_row(&self, id: RowId) -> Result<&'a Row, StorageError>;

    /// Row ids whose column under equality-index slot `slot` equals `v`,
    /// in the order an indexed restriction yields them. `buf` is scratch
    /// space the returned list may live in.
    fn slot_lookup<'b>(&self, slot: usize, v: &Value, buf: &'b mut Vec<RowId>) -> &'b [RowId]
    where
        'a: 'b;

    /// The rows that tie with `prefix` on the leading columns of `cols`
    /// and whose last column of `cols` satisfies every `column op value`
    /// of `bounds`, in the order of the ordered index on `cols` (see
    /// [`Table::ordered_walk`]); `None` when there is none.
    fn ordered_walk(
        &self,
        cols: &[usize],
        prefix: &[&Value],
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Result<Option<impl Iterator<Item = Walked<'a>>>, StorageError>;
}

/// What an ordered walk yields: a row and its id, or the error of an id
/// that outlived its row.
type Walked<'a> = Result<(RowId, &'a Row), StorageError>;

impl<'a> Source<'a> for &'a Table {
    fn schema(&self) -> &'a TableSchema {
        Table::schema(self)
    }

    fn len(&self) -> usize {
        Table::len(self)
    }

    fn scan(&self) -> impl Iterator<Item = (RowId, &'a Row)> {
        Table::iter(self)
    }

    fn live_row(&self, id: RowId) -> Result<&'a Row, StorageError> {
        Table::live_row(self, id)
    }

    fn slot_lookup<'b>(&self, slot: usize, v: &Value, _buf: &'b mut Vec<RowId>) -> &'b [RowId]
    where
        'a: 'b,
    {
        Table::slot_lookup(self, slot, v)
    }

    fn ordered_walk(
        &self,
        cols: &[usize],
        prefix: &[&Value],
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Result<Option<impl Iterator<Item = Walked<'a>>>, StorageError> {
        Table::ordered_walk(self, cols, prefix, bounds, desc)
    }
}

/// One table as the ordered parts of it that shards hold: collect the
/// owning shards' tables in ascending shard id. All parts must share one
/// schema (a partitioned home replicates the catalog).
#[derive(Debug, Clone, Default)]
pub struct PartitionedTable<'a> {
    /// `(base, part)`: a row of `part` has global id `base + RowId`, the
    /// base being the slot count of all parts before it.
    parts: Vec<(RowId, &'a Table)>,
    len: usize,
}

impl<'a> FromIterator<&'a Table> for PartitionedTable<'a> {
    fn from_iter<I: IntoIterator<Item = &'a Table>>(parts: I) -> Self {
        let mut out = PartitionedTable::default();
        let mut base = 0;
        for part in parts {
            debug_assert!(out
                .parts
                .first()
                .is_none_or(|(_, p)| p.schema() == part.schema()));
            out.parts.push((base, part));
            out.len += part.len();
            base += part.slot_count();
        }
        out
    }
}

impl<'a> Source<'a> for PartitionedTable<'a> {
    fn schema(&self) -> &'a TableSchema {
        self.parts[0].1.schema()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scan(&self) -> impl Iterator<Item = (RowId, &'a Row)> {
        self.parts
            .iter()
            .flat_map(|&(base, part)| part.iter().map(move |(id, row)| (base + id, row)))
    }

    fn live_row(&self, id: RowId) -> Result<&'a Row, StorageError> {
        // The last part starting at or before `id` (the first starts at
        // 0); an id past its slots is dangling there.
        let at = self.parts.partition_point(|(base, _)| *base <= id);
        let (base, part) = self.parts[at - 1];
        part.live_row(id - base)
    }

    fn slot_lookup<'b>(&self, slot: usize, v: &Value, buf: &'b mut Vec<RowId>) -> &'b [RowId]
    where
        'a: 'b,
    {
        buf.clear();
        for &(base, part) in &self.parts {
            let ids = part.slot_lookup(slot, v);
            let at = buf.len();
            buf.extend(ids.iter().map(|id| base + id));
            // Deletes and slot reuse leave a part's list unordered; the
            // table its rows were copied into would list them ascending.
            if !ids.is_sorted() {
                buf[at..].sort_unstable();
            }
        }
        buf
    }

    /// Each part walks its own index, inside the prefix's rows; the heads
    /// merge by `(prefix…, key, global row id)` — by `(key, global row
    /// id)`, every walked row tying on the prefix. Parts hold disjoint,
    /// ascending id ranges, so of tied heads the earliest part's comes
    /// first. A head that is an error comes out at once.
    fn ordered_walk(
        &self,
        cols: &[usize],
        prefix: &[&Value],
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Result<Option<impl Iterator<Item = Walked<'a>>>, StorageError> {
        let Some(&pos) = cols.last() else {
            return Ok(None);
        };
        let mut walks = Vec::with_capacity(self.parts.len());
        for &(base, part) in &self.parts {
            let Some(walk) = part.ordered_walk(cols, prefix, bounds, desc)? else {
                return Ok(None);
            };
            let global = move |walked: Walked<'a>| walked.map(|(id, row)| (base + id, row));
            walks.push(walk.map(global).peekable());
        }
        Ok(Some(std::iter::from_fn(move || {
            let mut best: Option<(usize, &Value)> = None;
            for (i, walk) in walks.iter_mut().enumerate() {
                match walk.peek() {
                    Some(Ok((_, row))) => {
                        let key = &row[pos];
                        let ahead = best.is_none_or(|(_, b)| if desc { key > b } else { key < b });
                        if ahead {
                            best = Some((i, key));
                        }
                    }
                    Some(Err(_)) => return walk.next(),
                    None => {}
                }
            }
            walks[best?.0].next()
        })))
    }
}

/// Lexicographic order of two `ORDER BY` key tuples, `desc[i]` reversing key `i`.
fn compare_keys(a: &[&Value], b: &[&Value], desc: &[bool]) -> Ordering {
    for ((x, y), desc) in a.iter().zip(b).zip(desc) {
        let ord = if *desc { y.cmp(x) } else { x.cmp(y) };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stands in a tuple for the row of an alias not bound yet.
static UNBOUND: Row = Vec::new();

/// An equality join condition between a bound column and a column of the
/// alias a step joins in.
struct EqKey {
    bound: Col,
    new: JoinSide,
}

/// One statement's run of a plan. A tuple is one row per alias, in alias
/// order; tuples lie flat, one after the other.
struct Run<'a, S> {
    plan: &'a Plan,
    tables: Vec<S>,
    /// The value of each of `plan.restrictions`.
    values: Vec<&'a Value>,
}

impl<'a, S: Source<'a>> Run<'a, S> {
    /// The conjunction of `alias`'s restrictions and column-column
    /// predicates, tested on one of its rows.
    fn passes(&self, alias: usize, row: &Row) -> bool {
        let a = &self.plan.aliases[alias];
        let restrictions = &self.plan.restrictions[a.restrictions.clone()];
        let values = &self.values[a.restrictions.clone()];
        restrictions
            .iter()
            .zip(values)
            .all(|(r, v)| r.op.eval(&row[r.col.pos], v))
            && a.locals.iter().all(|l| l.op.eval(&row[l.lhs], &row[l.rhs]))
    }

    /// Whether `row` is one of `alias`'s candidates: it passes, and it is on
    /// the list an indexed `=` restriction reads — the rows `==` to the
    /// value, which are fewer than those `=` to it where an `Int` meets a
    /// `Real` (`Int(1) = Real(1.0)`, yet they are two index keys).
    fn is_candidate(&self, alias: usize, row: &Row) -> bool {
        let listed =
            |(r, _): (usize, usize)| row[self.plan.restrictions[r].col.pos] == *self.values[r];
        self.passes(alias, row) && self.plan.aliases[alias].eq_access.is_none_or(listed)
    }

    /// Feeds `alias`'s rows that pass its own predicates to `f`, until `f`
    /// returns false: in index-list order when an indexed equality
    /// restriction narrows the scan, in ascending `RowId` order otherwise.
    fn each_candidate(
        &self,
        alias: usize,
        mut f: impl FnMut(&'a Row) -> bool,
    ) -> Result<(), StorageError> {
        let table = &self.tables[alias];
        if let Some((r, slot)) = self.plan.aliases[alias].eq_access {
            let mut buf = Vec::new();
            for &id in table.slot_lookup(slot, self.values[r], &mut buf) {
                let row = table.live_row(id)?;
                if self.passes(alias, row) && !f(row) {
                    break;
                }
            }
        } else {
            for (_, row) in table.scan() {
                if self.passes(alias, row) && !f(row) {
                    break;
                }
            }
        }
        Ok(())
    }

    fn candidates(&self, alias: usize) -> Result<Vec<&'a Row>, StorageError> {
        let mut rows = Vec::new();
        self.each_candidate(alias, |row| {
            rows.push(row);
            true
        })?;
        Ok(rows)
    }

    /// Performs the join, handing each tuple of its last step to `sink`
    /// until `sink` returns false.
    fn join(&self, mut sink: impl FnMut(&[&'a Row]) -> bool) -> Result<(), StorageError> {
        let n = self.tables.len();
        if n == 1 {
            return self.each_candidate(0, |row| sink(&[row]));
        }
        // `None`: an unfiltered alias, its whole table — counted for the
        // join order, materialised only if a step below has to scan it.
        let mut filtered: Vec<Option<Vec<&'a Row>>> = Vec::with_capacity(n);
        for (alias, a) in self.plan.aliases.iter().enumerate() {
            filtered.push(if a.is_filtered() {
                Some(self.candidates(alias)?)
            } else {
                None
            });
        }
        let count = |a: usize| filtered[a].as_ref().map_or(self.tables[a].len(), Vec::len);

        // Greedy join order: start at the smallest candidate set; then
        // prefer aliases reachable via an equality join from the bound set.
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let connected = |a: usize| {
                self.plan.joins.iter().any(|j| {
                    let (l, r) = (j.lhs.col.alias, j.rhs.col.alias);
                    j.op == CmpOp::Eq
                        && ((l == a && order.contains(&r)) || (r == a && order.contains(&l)))
                })
            };
            let Some(pick) = remaining
                .iter()
                .copied()
                .min_by_key(|a| (!order.is_empty() && !connected(*a), count(*a)))
            else {
                break;
            };
            remaining.retain(|a| *a != pick);
            order.push(pick);
        }

        let first = match filtered[order[0]].take() {
            Some(rows) => rows,
            None => self.candidates(order[0])?,
        };
        let mut tuples: Vec<&'a Row> = vec![&UNBOUND; first.len() * n];
        for (t, row) in tuples.chunks_exact_mut(n).zip(first) {
            t[order[0]] = row;
        }

        for step in 1..n {
            let alias = order[step];
            let bound = &order[..step];
            let table = &self.tables[alias];
            let last = step == n - 1;
            // Join predicates now fully bound and touching `alias`, the
            // bound side on the left.
            let mut eq_keys: Vec<EqKey> = Vec::new();
            let mut thetas: Vec<(Col, CmpOp, usize)> = Vec::new();
            for j in &self.plan.joins {
                let (l, r) = (j.lhs.col.alias, j.rhs.col.alias);
                let (b, new, op) = if l == alias && bound.contains(&r) {
                    (j.rhs.col, j.lhs, j.op.flipped())
                } else if r == alias && bound.contains(&l) {
                    (j.lhs.col, j.rhs, j.op)
                } else {
                    continue;
                };
                if op == CmpOp::Eq {
                    eq_keys.push(EqKey { bound: b, new });
                } else {
                    thetas.push((b, op, new.col.pos));
                }
            }

            let mut next: Vec<&'a Row> = Vec::new();
            let mut out: Vec<&'a Row> = vec![&UNBOUND; n];
            // `t` extended by `new_row`, if the theta predicates hold: kept
            // for the next step, or handed to the sink by the last; false
            // once the sink has enough.
            let mut emit = |t: &[&'a Row], new_row: &'a Row| -> bool {
                for (b, op, np) in &thetas {
                    if !op.eval(&t[b.alias][b.pos], &new_row[*np]) {
                        return true;
                    }
                }
                if last {
                    out.copy_from_slice(t);
                    out[alias] = new_row;
                    sink(&out)
                } else {
                    let at = next.len();
                    next.extend_from_slice(t);
                    next[at + alias] = new_row;
                    true
                }
            };

            // An unfiltered alias is probed through any indexed key; a
            // filtered one through a unique key only, where the order of
            // its candidates cannot show.
            let is_filtered = filtered[alias].is_some();
            let probe = eq_keys.iter().enumerate().find_map(|(k, key)| {
                let slot = key.new.slot.filter(|_| !is_filtered || key.new.unique)?;
                Some((k, slot))
            });
            if let Some((k, slot)) = probe {
                // Index nested loop: probe the index per bound tuple and
                // check the other equality keys, and that a filtered alias
                // counts the row among its candidates, on what it returns. Index lists are unordered after
                // deletes, a scan's hash bucket is not: emit in ascending
                // row id.
                let probe_col = eq_keys[k].bound;
                let mut buf: Vec<RowId> = Vec::new();
                let mut sorted: Vec<RowId> = Vec::new();
                'probe: for t in tuples.chunks_exact(n) {
                    let ids = table.slot_lookup(slot, &t[probe_col.alias][probe_col.pos], &mut buf);
                    let ids = if ids.windows(2).all(|w| w[0] < w[1]) {
                        ids
                    } else {
                        sorted.clear();
                        sorted.extend_from_slice(ids);
                        sorted.sort_unstable();
                        &sorted
                    };
                    for &id in ids {
                        let new_row = table.live_row(id)?;
                        let all_eq = eq_keys.iter().enumerate().all(|(i, key)| {
                            i == k || t[key.bound.alias][key.bound.pos] == new_row[key.new.col.pos]
                        });
                        if all_eq
                            && (!is_filtered || self.is_candidate(alias, new_row))
                            && !emit(t, new_row)
                        {
                            break 'probe;
                        }
                    }
                }
            } else {
                let scanned;
                let rows: &[&'a Row] = match &filtered[alias] {
                    Some(rows) => rows,
                    None => {
                        scanned = self.candidates(alias)?;
                        &scanned
                    }
                };
                if eq_keys.is_empty() {
                    'nested: for t in tuples.chunks_exact(n) {
                        for &row in rows {
                            if !emit(t, row) {
                                break 'nested;
                            }
                        }
                    }
                } else {
                    // Hash join: build on the new alias's candidates, each
                    // distinct key's rows in candidate order.
                    let mut index = KeyIndex::new(eq_keys.len());
                    let mut buckets: Vec<Vec<&'a Row>> = Vec::new();
                    for &row in rows {
                        let bucket = index.ordinal(eq_keys.iter().map(|k| &row[k.new.col.pos]));
                        if bucket == buckets.len() {
                            buckets.push(Vec::new());
                        }
                        buckets[bucket].push(row);
                    }
                    'hash: for t in tuples.chunks_exact(n) {
                        let key = eq_keys.iter().map(|k| &t[k.bound.alias][k.bound.pos]);
                        let Some(bucket) = index.find(key) else {
                            continue;
                        };
                        for &row in &buckets[bucket] {
                            if !emit(t, row) {
                                break 'hash;
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
        Ok(())
    }

    /// Plain projection with ordering and top-k.
    fn project(
        &self,
        select: &[Col],
        keys: &[Col],
        desc: &[bool],
        walk: Option<&Walk>,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let limit = self.plan.limit;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        if limit == 0 {
            return Ok(rows);
        }
        let project = |t: &[&Row]| -> Vec<Value> {
            select.iter().map(|c| t[c.alias][c.pos].clone()).collect()
        };
        // Tuples that arrive in output order are projected as they come,
        // up to `limit` of them.
        let push = |t: &[&Row]| {
            rows.push(project(t));
            rows.len() < limit
        };

        // The first `limit` rows in the order of the one sort key, read off
        // an ordered index that ends in it: the walk stays inside the rows
        // the `=` restrictions on the index's leading columns select,
        // starts and stops where the key's own restrictions bound it, and
        // every row on it is tested like a candidate of the scan or list.
        if let Some(w) = walk {
            let prefix: Vec<&Value> = w.prefix.iter().map(|r| self.values[*r]).collect();
            let bounds: Vec<(CmpOp, &Value)> = (w.bounds.iter())
                .map(|r| (self.plan.restrictions[*r].op, self.values[*r]))
                .collect();
            let walked = self.tables[0].ordered_walk(&w.cols, &prefix, &bounds, w.desc)?;
            if let Some(walked) = walked {
                self.top_of_walk(walked, keys[0].pos, push)?;
                return Ok(rows);
            }
        }
        if keys.is_empty() {
            self.join(push)?;
            return Ok(rows);
        }

        let n = self.tables.len();
        let nk = keys.len();
        let mut tuples: Vec<&Row> = Vec::new();
        let mut sort_keys: Vec<&Value> = Vec::new();
        self.join(|t| {
            tuples.extend_from_slice(t);
            sort_keys.extend(keys.iter().map(|k| &t[k.alias][k.pos]));
            true
        })?;
        // Tuple numbers in output order. Arrival number as the last key
        // makes the order total, so the unstable select and sort below are
        // deterministic and agree with a stable sort on the keys.
        let count = tuples.len() / n;
        let mut picked: Vec<usize> = (0..count).collect();
        let by_keys_then_arrival = |a: &usize, b: &usize| {
            let (ka, kb) = (&sort_keys[a * nk..][..nk], &sort_keys[b * nk..][..nk]);
            compare_keys(ka, kb, desc).then(a.cmp(b))
        };
        if limit < count {
            picked.select_nth_unstable_by(limit - 1, by_keys_then_arrival);
            picked.truncate(limit);
        }
        picked.sort_unstable_by(by_keys_then_arrival);
        Ok(picked
            .into_iter()
            .map(|i| project(&tuples[i * n..][..n]))
            .collect())
    }

    /// Hands the single alias's candidates among `walked` — a walk in the
    /// order of its column `key` — to `push`, in the order the sort by
    /// `key` gives them, until `push` returns false.
    fn top_of_walk(
        &self,
        walked: impl Iterator<Item = Walked<'a>>,
        key: usize,
        mut push: impl FnMut(&[&Row]) -> bool,
    ) -> Result<(), StorageError> {
        let Some((r, slot)) = self.plan.aliases[0].eq_access else {
            // A scan's candidates arrive in ascending row id, which is how
            // the walk lists equal keys.
            for walked in walked {
                let (_, row) = walked?;
                if self.passes(0, row) && !push(&[row]) {
                    break;
                }
            }
            return Ok(());
        };
        // The candidates are the equality list's and arrive in its order,
        // which the sort keeps between equal keys: candidates that tie on
        // the key go on in the order the list names them, and the group the
        // last wanted row falls in is walked to its end before the cut.
        let mut buf = Vec::new();
        let list = self.tables[0].slot_lookup(slot, self.values[r], &mut buf);
        let mut group: Vec<(RowId, &'a Row)> = Vec::new();
        let mut hand_on = |group: &mut Vec<(RowId, &'a Row)>| -> bool {
            if group.len() < 2 {
                return group.drain(..).all(|(_, row)| push(&[row]));
            }
            // One pass over the list, each id looked for among the group's.
            group.sort_unstable_by_key(|(id, _)| *id);
            let place = |id| group.binary_search_by_key(id, |(id, _)| *id).ok();
            let mut listed = list.iter().filter_map(place).map(|at| group[at].1);
            let more = listed.all(|row| push(&[row]));
            group.clear();
            more
        };
        for walked in walked {
            let (id, row) = walked?;
            if !self.is_candidate(0, row) {
                continue;
            }
            let tied = |(_, first): &(RowId, &Row)| first[key].cmp(&row[key]).is_eq();
            if !group.first().is_none_or(tied) && !hand_on(&mut group) {
                return Ok(());
            }
            group.push((id, row));
        }
        hand_on(&mut group);
        Ok(())
    }

    /// Grouped / scalar aggregation, then ordering and top-k on its output.
    fn aggregate(
        &self,
        items: &[AggItem],
        folds: &[(AggFunc, Col)],
        group: &[Col],
        order: &Result<Vec<(usize, bool)>, StorageError>,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        // Each tuple finds its group (first-seen order; no GROUP BY is one
        // group over everything) and is folded into that group's
        // accumulators, one per folded column.
        let width = folds.len();
        let mut groups = KeyIndex::new(group.len());
        let mut sizes: Vec<usize> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new(); // group-major, `width` each
        self.join(|t| {
            let g = groups.ordinal(group.iter().map(|c| &t[c.alias][c.pos]));
            if g == sizes.len() {
                sizes.push(0);
                accs.resize_with(accs.len() + width, Acc::default);
            }
            sizes[g] += 1;
            for ((func, col), acc) in folds.iter().zip(&mut accs[g * width..]) {
                acc.fold(*func, &t[col.alias][col.pos]);
            }
            true
        })?;

        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(sizes.len());
        for (g, size) in sizes.iter().enumerate() {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(match item {
                    AggItem::GroupKey(gpos) => groups.key(g)[*gpos].clone(),
                    AggItem::Agg(_, Some(Err(e))) => return Err(e.clone()),
                    AggItem::Agg(func, Some(Ok(a))) => accs[g * width + a].finish(*func, *size)?,
                    AggItem::Agg(AggFunc::Count, None) => Value::Int(*size as i64),
                    AggItem::Agg(func, None) => {
                        let name = func.as_str();
                        return Err(StorageError::BadQuery(format!("{name} requires a column")));
                    }
                });
            }
            rows.push(out);
        }
        // Scalar aggregation over empty input emits one row only if every
        // aggregate is COUNT (SQL would produce NULLs, which the model
        // lacks); grouped aggregation emits no group.
        let all_count = || {
            let is_count = |i: &AggItem| matches!(i, AggItem::Agg(AggFunc::Count, _));
            items.iter().all(is_count)
        };
        if sizes.is_empty() && group.is_empty() && all_count() {
            rows.push(vec![Value::Int(0); items.len()]);
        }

        // ORDER BY on grouped output. Stable, so tied groups stay in
        // first-seen order.
        let order = order.as_ref().map_err(Clone::clone)?;
        if !order.is_empty() {
            rows.sort_by(|a, b| {
                for (pos, desc) in order {
                    let ord = a[*pos].cmp(&b[*pos]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord.is_ne() {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        rows.truncate(self.plan.limit);
        Ok(rows)
    }
}

/// The running state of one aggregate over one group.
#[derive(Default)]
struct Acc<'a> {
    /// MIN / MAX so far.
    best: Option<&'a Value>,
    /// SUM over `Int`s saturates; anything else sums as a float, in
    /// arrival order.
    int_sum: i64,
    real_sum: f64,
    seen_non_int: bool,
    /// The first value SUM / AVG cannot add.
    non_numeric: Option<&'a Value>,
}

impl<'a> Acc<'a> {
    #[inline]
    fn fold(&mut self, func: AggFunc, v: &'a Value) {
        match func {
            AggFunc::Count => {}
            // Of equal values MIN keeps the first and MAX the last, as
            // `Iterator::min` / `max` do.
            AggFunc::Min => {
                if self.best.is_none_or(|b| v < b) {
                    self.best = Some(v);
                }
            }
            AggFunc::Max => {
                if self.best.is_none_or(|b| v >= b) {
                    self.best = Some(v);
                }
            }
            AggFunc::Sum | AggFunc::Avg => {
                if let Value::Int(i) = v {
                    self.int_sum = self.int_sum.saturating_add(*i);
                } else {
                    self.seen_non_int = true;
                }
                match v.as_f64() {
                    Some(x) if self.non_numeric.is_none() => self.real_sum += x,
                    Some(_) => {}
                    None => self.non_numeric = self.non_numeric.or(Some(v)),
                }
            }
        }
    }

    fn finish(&self, func: AggFunc, group_size: usize) -> Result<Value, StorageError> {
        let name = func.as_str();
        if func == AggFunc::Count {
            return Ok(Value::Int(group_size as i64));
        }
        let real = |x: f64| {
            Real::new(x)
                .map(Value::Real)
                .ok_or_else(|| StorageError::BadQuery(format!("{name} is not a number")))
        };
        match func {
            AggFunc::Min | AggFunc::Max => self
                .best
                .cloned()
                .ok_or_else(|| StorageError::BadQuery(format!("{name} over an empty group"))),
            AggFunc::Sum if !self.seen_non_int => Ok(Value::Int(self.int_sum)),
            _ => match self.non_numeric {
                Some(v) => Err(StorageError::BadQuery(format!(
                    "{name} over non-numeric value {v}"
                ))),
                None if func == AggFunc::Avg => real(self.real_sum / group_size as f64),
                None => real(self.real_sum),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use scs_sqlkit::parse_query;
    use std::sync::Arc;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .index("toy_name")
                .ordered_index("qty")
                .ordered_index_on(&["toy_name", "qty"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("orders")
                .column("order_id", ColumnType::Int)
                .column("toy_id", ColumnType::Int)
                .column("amount", ColumnType::Int)
                .primary_key(&["order_id"])
                .foreign_key(&["toy_id"], "toys", &["toy_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name, qty) in [
            (1, "bear", 10),
            (2, "car", 5),
            (3, "kite", 0),
            (4, "bear", 7),
        ] {
            db.insert_row(
                "toys",
                vec![Value::Int(id), Value::str(name), Value::Int(qty)],
            )
            .unwrap();
        }
        for (oid, tid, amt) in [(100, 1, 2), (101, 1, 1), (102, 2, 4)] {
            db.insert_row(
                "orders",
                vec![Value::Int(oid), Value::Int(tid), Value::Int(amt)],
            )
            .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str, params: Vec<Value>) -> QueryResult {
        let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
        db.execute(&q).unwrap()
    }

    fn run_err(db: &Database, sql: &str, params: Vec<Value>) -> StorageError {
        let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
        db.execute(&q).unwrap_err()
    }

    #[test]
    fn point_lookup_via_index() {
        let d = db();
        let r = run(
            &d,
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("bear")],
        );
        let mut ids: Vec<&Value> = r.rows.iter().map(|r| &r[0]).collect();
        ids.sort();
        assert_eq!(ids, vec![&Value::Int(1), &Value::Int(4)]);
    }

    #[test]
    fn range_scan() {
        let d = db();
        let r = run(
            &d,
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(5)],
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn equality_join() {
        let d = db();
        let r = run(
            &d,
            "SELECT orders.order_id, toys.toy_name FROM toys, orders \
             WHERE toys.toy_id = orders.toy_id AND toys.toy_name = ?",
            vec![Value::str("bear")],
        );
        assert_eq!(r.len(), 2);
        assert!(r.rows.iter().all(|row| row[1] == Value::str("bear")));
    }

    #[test]
    fn theta_join_self() {
        let d = db();
        // Pairs of toys where the first has strictly more stock.
        let r = run(
            &d,
            "SELECT t1.toy_id, t2.toy_id FROM toys t1, toys t2 WHERE t1.qty > t2.qty",
            vec![],
        );
        // qty values: 10,5,0,7 -> pairs with a>b: (10,5),(10,0),(10,7),(5,0),(7,5),(7,0) = 6
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn order_by_and_limit() {
        let d = db();
        let r = run(
            &d,
            "SELECT toy_id FROM toys ORDER BY qty DESC LIMIT 2",
            vec![],
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1)], vec![Value::Int(4)]],
            "top-2 by qty: bear(10), bear(7)"
        );
    }

    #[test]
    fn order_by_non_projected_column() {
        let d = db();
        let r = run(&d, "SELECT toy_name FROM toys ORDER BY toy_id", vec![]);
        assert_eq!(r.rows[0], vec![Value::str("bear")]);
        assert_eq!(r.rows[2], vec![Value::str("kite")]);
    }

    #[test]
    fn projection_keeps_duplicates() {
        let d = db();
        let r = run(&d, "SELECT toy_name FROM toys WHERE qty >= 0", vec![]);
        assert_eq!(r.len(), 4, "multiset semantics: duplicate 'bear' rows kept");
    }

    #[test]
    fn scalar_aggregates() {
        let d = db();
        let r = run(&d, "SELECT MAX(qty) FROM toys", vec![]);
        assert_eq!(r.rows, vec![vec![Value::Int(10)]]);
        let r = run(&d, "SELECT COUNT(*) FROM toys WHERE qty > 0", vec![]);
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
        let r = run(&d, "SELECT SUM(amount) FROM orders", vec![]);
        assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
        let r = run(&d, "SELECT AVG(qty) FROM toys", vec![]);
        assert_eq!(r.rows, vec![vec![Value::real(5.5)]]);
    }

    #[test]
    fn count_on_empty_input_is_zero() {
        let d = db();
        let r = run(&d, "SELECT COUNT(*) FROM toys WHERE qty > 999", vec![]);
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn max_on_empty_input_is_empty() {
        let d = db();
        let r = run(&d, "SELECT MAX(qty) FROM toys WHERE qty > 999", vec![]);
        assert!(r.is_empty());
    }

    #[test]
    fn group_by_with_count() {
        let d = db();
        let r = run(
            &d,
            "SELECT toy_name, COUNT(*) FROM toys GROUP BY toy_name ORDER BY toy_name",
            vec![],
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::str("bear"), Value::Int(2)],
                vec![Value::str("car"), Value::Int(1)],
                vec![Value::str("kite"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn group_by_join_aggregate() {
        let d = db();
        let r = run(
            &d,
            "SELECT toys.toy_name, SUM(orders.amount) FROM toys, orders \
             WHERE toys.toy_id = orders.toy_id GROUP BY toys.toy_name ORDER BY toys.toy_name",
            vec![],
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::str("bear"), Value::Int(3)],
                vec![Value::str("car"), Value::Int(4)],
            ]
        );
    }

    #[test]
    fn non_grouped_column_rejected() {
        let d = db();
        let e = run_err(&d, "SELECT toy_name, COUNT(*) FROM toys", vec![]);
        assert!(matches!(e, StorageError::BadQuery(_)));
    }

    #[test]
    fn sum_over_strings_rejected() {
        let d = db();
        let e = run_err(&d, "SELECT SUM(toy_name) FROM toys", vec![]);
        assert!(matches!(e, StorageError::BadQuery(_)));
    }

    #[test]
    fn unknown_column_rejected() {
        let d = db();
        let e = run_err(&d, "SELECT nope FROM toys", vec![]);
        assert!(matches!(e, StorageError::UnknownColumn { .. }));
    }

    #[test]
    fn empty_join_result() {
        let d = db();
        let r = run(
            &d,
            "SELECT orders.order_id FROM toys, orders \
             WHERE toys.toy_id = orders.toy_id AND toys.toy_name = ?",
            vec![Value::str("unknown")],
        );
        assert!(r.is_empty());
    }

    #[test]
    fn three_way_join() {
        let d = db();
        let r = run(
            &d,
            "SELECT o1.order_id, o2.order_id FROM toys, orders o1, orders o2 \
             WHERE toys.toy_id = o1.toy_id AND toys.toy_id = o2.toy_id AND o1.amount > o2.amount",
            vec![],
        );
        // toy 1 has orders (100,amt2),(101,amt1): one ordered pair.
        assert_eq!(r.rows, vec![vec![Value::Int(100), Value::Int(101)]]);
    }

    fn ints(r: &QueryResult) -> Vec<Vec<i64>> {
        r.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        other => panic!("expected Int, got {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    fn apply(db: &mut Database, sql: &str, params: Vec<Value>) {
        let tpl = Arc::new(scs_sqlkit::parse_update(sql).unwrap());
        db.apply(&scs_sqlkit::Update::bind(0, tpl, params).unwrap())
            .unwrap();
    }

    /// `orders` is unfiltered and joined on its indexed FK column, so it is
    /// probed; deletes and slot reuse leave that index list unsorted, and
    /// the probe must still emit in ascending row id, as a scan would.
    #[test]
    fn probe_after_delete_emits_ascending_row_ids() {
        let mut d = db();
        let sql = "SELECT orders.order_id FROM toys, orders \
                   WHERE toys.toy_id = orders.toy_id AND toys.toy_name = ?";
        apply(
            &mut d,
            "INSERT INTO orders (order_id, toy_id, amount) VALUES (?, ?, ?)",
            vec![Value::Int(103), Value::Int(1), Value::Int(9)],
        );
        // Toy 1's orders sit in slots 0, 1, 3; deleting slot 0 swaps the
        // last entry into its place: the index list reads [3, 1].
        apply(
            &mut d,
            "DELETE FROM orders WHERE order_id = ?",
            vec![Value::Int(100)],
        );
        let orders = d.table("orders").unwrap();
        assert_eq!(orders.index_lookup(1, &Value::Int(1)).unwrap(), &[3, 1]);
        let r = run(&d, sql, vec![Value::str("bear")]);
        assert_eq!(ints(&r), vec![vec![101], vec![103]]);
        // A new order reuses slot 0 and lands last in the list: [3, 1, 0].
        apply(
            &mut d,
            "INSERT INTO orders (order_id, toy_id, amount) VALUES (?, ?, ?)",
            vec![Value::Int(104), Value::Int(1), Value::Int(9)],
        );
        let r = run(&d, sql, vec![Value::str("bear")]);
        assert_eq!(ints(&r), vec![vec![104], vec![101], vec![103]]);
    }

    #[test]
    fn probe_on_non_pk_index_with_duplicates() {
        let d = db();
        // `t2` is unfiltered and `toy_name` carries a declared index with
        // two bears in it.
        let r = run(
            &d,
            "SELECT t1.toy_id, t2.toy_id FROM toys t1, toys t2 \
             WHERE t1.toy_name = t2.toy_name AND t1.toy_id = ?",
            vec![Value::Int(4)],
        );
        assert_eq!(ints(&r), vec![vec![4, 1], vec![4, 4]]);
    }

    #[test]
    fn unfiltered_alias_without_join_index_is_hash_joined() {
        let mut d = db();
        d.insert_row(
            "toys",
            vec![Value::Int(5), Value::str("kite"), Value::Int(10)],
        )
        .unwrap();
        // `qty` has no index: `t2` is scanned into a hash table, and each
        // bucket comes out in scan order all the same.
        let r = run(
            &d,
            "SELECT t1.toy_id, t2.toy_id FROM toys t1, toys t2 \
             WHERE t1.qty = t2.qty AND t1.toy_name = ?",
            vec![Value::str("bear")],
        );
        assert_eq!(ints(&r), vec![vec![1, 1], vec![1, 5], vec![4, 4]]);
    }

    /// Enough rows that the unstable select and sort really permute: ties
    /// at the cut — the k-th and (k+1)-th agree on every key — must still
    /// resolve by arrival order.
    #[test]
    fn top_k_ties_keep_arrival_order() {
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("t")
                .column("id", ColumnType::Int)
                .column("k", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for id in 0..200 {
            d.insert_row("t", vec![Value::Int(id), Value::Int(id % 3)])
                .unwrap();
        }
        let r = run(&d, "SELECT id FROM t ORDER BY k LIMIT 100", vec![]);
        let zeros = (0..200).filter(|id| id % 3 == 0);
        let ones = (0..200).filter(|id| id % 3 == 1);
        let want: Vec<Vec<i64>> = zeros.chain(ones).take(100).map(|id| vec![id]).collect();
        assert_eq!(ints(&r), want);
        let r = run(&d, "SELECT id FROM t ORDER BY k DESC", vec![]);
        assert_eq!(ints(&r)[..3], [vec![2], vec![5], vec![8]]);
    }

    #[test]
    fn order_by_non_projected_column_across_join() {
        let d = db();
        let r = run(
            &d,
            "SELECT orders.order_id FROM toys, orders WHERE toys.toy_id = orders.toy_id \
             ORDER BY toys.qty, orders.amount DESC",
            vec![],
        );
        // car (qty 5) before bear (qty 10); bear's orders by amount, 2 then 1.
        assert_eq!(ints(&r), vec![vec![102], vec![100], vec![101]]);
    }

    #[test]
    fn limit_larger_than_result() {
        let d = db();
        let r = run(
            &d,
            "SELECT toy_id FROM toys ORDER BY toy_id LIMIT 99",
            vec![],
        );
        assert_eq!(ints(&r), vec![vec![1], vec![2], vec![3], vec![4]]);
        let r = run(&d, "SELECT toy_id FROM toys LIMIT 99", vec![]);
        assert_eq!(r.len(), 4);
        let r = run(
            &d,
            "SELECT orders.order_id FROM toys, orders WHERE toys.toy_id = orders.toy_id LIMIT 2",
            vec![],
        );
        assert_eq!(ints(&r), vec![vec![100], vec![101]]);
    }

    /// The last join step hands the sink one tuple at a time and ends with
    /// the sink's first `false`: `LIMIT k` without `ORDER BY` produces k
    /// tuples, by a scan, an index list, a probe, a hash join or a nested
    /// loop alike.
    #[test]
    fn the_last_step_stops_when_the_sink_has_enough() {
        let d = db();
        for (sql, params, total) in [
            ("SELECT toy_id FROM toys", vec![], 4),
            (
                "SELECT toy_id FROM toys WHERE toy_name = ?",
                vec![Value::str("bear")],
                2,
            ),
            (
                "SELECT orders.order_id FROM toys, orders WHERE toys.toy_id = orders.toy_id",
                vec![],
                3,
            ),
            // `t2` is filtered and joined on its primary key.
            (
                "SELECT t1.toy_id FROM toys t1, toys t2 WHERE t1.toy_id = t2.toy_id AND t2.qty > ?",
                vec![Value::Int(0)],
                3,
            ),
            (
                "SELECT t1.toy_id FROM toys t1, toys t2 WHERE t1.qty = t2.qty",
                vec![],
                4,
            ),
            (
                "SELECT t1.toy_id FROM toys t1, toys t2 WHERE t1.qty > t2.qty",
                vec![],
                6,
            ),
        ] {
            let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
            let from = q.template.from.iter();
            let tables: Vec<&Table> = from.map(|tr| d.table(&tr.table).unwrap()).collect();
            let schemas: Vec<&TableSchema> = tables.iter().map(|t| t.schema()).collect();
            let plan = Plan::new(&q.template, &schemas).unwrap();
            let run = Run {
                plan: &plan,
                tables,
                values: plan.bind(&q),
            };
            for wanted in 1..=total + 1 {
                let mut handed = 0;
                run.join(|_| {
                    handed += 1;
                    handed < wanted
                })
                .unwrap();
                assert_eq!(handed, wanted.min(total), "{sql}, {wanted} wanted");
            }
        }
    }

    /// Of equal extrema MIN returns the first and MAX the last, which
    /// shows when an `Int` and a `Real` compare equal.
    #[test]
    fn min_max_among_equal_values() {
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("m")
                .column("id", ColumnType::Int)
                .column("r", ColumnType::Real)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d.insert_row("m", vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        d.insert_row("m", vec![Value::Int(2), Value::real(1.0)])
            .unwrap();
        let r = run(&d, "SELECT MIN(r), MAX(r), SUM(r) FROM m", vec![]);
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1), Value::real(1.0), Value::real(2.0)]]
        );
    }

    /// The parser rejects a predicate without a column; a hand-built
    /// template reaches the executor with one and must get an error back.
    #[test]
    fn scalar_only_predicate_is_an_error() {
        use scs_sqlkit::{Operand, Predicate, Scalar};
        let d = db();
        let mut tpl = parse_query("SELECT toy_id FROM toys").unwrap();
        tpl.predicates.push(Predicate {
            lhs: Operand::Scalar(Scalar::Literal(Value::Int(1))),
            op: CmpOp::Eq,
            rhs: Operand::Scalar(Scalar::Literal(Value::Int(1))),
        });
        let q = Query::bind(0, Arc::new(tpl), vec![]).unwrap();
        assert!(matches!(d.execute(&q), Err(StorageError::BadQuery(_))));
    }

    fn toy_part(rows: &[(i64, &str, i64)]) -> Table {
        let mut t = Table::new(db().table("toys").unwrap().schema().clone());
        for (id, name, qty) in rows {
            t.insert(vec![Value::Int(*id), Value::str(*name), Value::Int(*qty)])
                .unwrap();
        }
        t
    }

    /// Three parts, the middle one empty, the last with a dead slot and an
    /// index list that deletes and slot reuse left unordered.
    fn toy_parts() -> [Table; 3] {
        let p0 = toy_part(&[(1, "bear", 10), (2, "car", 5)]);
        let p1 = toy_part(&[]);
        let mut p2 = toy_part(&[
            (3, "bear", 1),
            (4, "bear", 2),
            (5, "kite", 3),
            (6, "bear", 4),
        ]);
        p2.delete(0);
        p2.delete(2);
        p2.insert(vec![Value::Int(7), Value::str("bear"), Value::Int(5)])
            .unwrap(); // reuses slot 2
        assert_eq!(p2.index_lookup(1, &Value::str("bear")).unwrap(), &[3, 1, 2]);
        [p0, p1, p2]
    }

    #[test]
    fn partitioned_table_addresses_rows_by_part_base_plus_row_id() {
        let parts = toy_parts();
        let t: PartitionedTable = parts.iter().collect();
        assert_eq!(t.len(), 5);
        // Bases 0, 2, 2: part 2's slots 1, 2, 3 are global 3, 4, 5.
        let scanned: Vec<(RowId, &Value)> = t.scan().map(|(id, row)| (id, &row[0])).collect();
        assert_eq!(
            scanned,
            vec![
                (0, &Value::Int(1)),
                (1, &Value::Int(2)),
                (3, &Value::Int(4)),
                (4, &Value::Int(7)),
                (5, &Value::Int(6)),
            ]
        );
        for (id, pk) in scanned {
            assert_eq!(&t.live_row(id).unwrap()[0], pk);
        }
        // Each part's list ascending, parts in order: what one table
        // loaded with these rows in scan order would list.
        let mut buf = vec![99];
        let by_name = t.schema().index_slot("toy_name").unwrap();
        let bears = t.slot_lookup(by_name, &Value::str("bear"), &mut buf);
        assert_eq!(bears, &[0, 3, 4, 5]);
        let none = t.slot_lookup(by_name, &Value::str("yak"), &mut buf);
        assert!(none.is_empty());
    }

    #[test]
    fn partitioned_dangling_ids_are_errors_not_panics() {
        let parts = toy_parts();
        let t: PartitionedTable = parts.iter().collect();
        // Global 2 is part 2's dead slot 0; 6 is one past its last slot.
        for id in [2, 6, 1_000, RowId::MAX] {
            assert!(
                matches!(t.live_row(id), Err(StorageError::DanglingRow { .. })),
                "id {id}"
            );
        }
    }

    #[test]
    fn partitioned_execution_matches_the_parts_copied_into_one_table() {
        let parts = toy_parts();
        // The copy has no ordered index: it scans and sorts.
        let mut schema = parts[0].schema().clone();
        schema.ordered_indexes.clear();
        let mut copied = Database::new();
        copied.create_table(schema).unwrap();
        for part in &parts {
            for (_, row) in part.iter() {
                copied.insert_row("toys", row.clone()).unwrap();
            }
        }
        for (sql, params) in [
            (
                "SELECT toy_id FROM toys WHERE toy_name = ?",
                vec![Value::str("bear")],
            ),
            (
                "SELECT toy_id FROM toys WHERE qty >= ? LIMIT 3",
                vec![Value::Int(2)],
            ),
            ("SELECT toy_id FROM toys ORDER BY toy_name LIMIT 3", vec![]),
            // Merged walks: toys 2 and 7 tie on qty 5 across parts, toy 6
            // fails the other restriction between them.
            ("SELECT toy_id FROM toys ORDER BY qty LIMIT 4", vec![]),
            (
                "SELECT toy_id FROM toys WHERE qty >= ? AND toy_id <= ? ORDER BY qty DESC LIMIT 3",
                vec![Value::Int(4), Value::Int(5)],
            ),
            (
                "SELECT toy_id FROM toys WHERE qty < ? ORDER BY qty DESC LIMIT 9",
                vec![Value::Int(5)],
            ),
            (
                "SELECT t1.toy_id, t2.toy_id FROM toys t1, toys t2 \
                 WHERE t1.toy_name = t2.toy_name AND t1.qty > ?",
                vec![Value::Int(3)],
            ),
            (
                "SELECT toy_name, COUNT(*), MAX(qty) FROM toys GROUP BY toy_name",
                vec![],
            ),
        ] {
            let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
            let tables = q
                .template
                .from
                .iter()
                .map(|_| parts.iter().collect())
                .collect();
            assert_eq!(
                execute_partitioned(&PlanMemo::default(), &q, tables).unwrap(),
                copied.execute(&q).unwrap(),
                "{sql}"
            );
        }
    }

    #[test]
    fn partitioned_execution_rejects_a_missing_or_empty_table() {
        let parts = toy_parts();
        let q = Query::bind(
            0,
            Arc::new(parse_query("SELECT t1.toy_id FROM toys t1, toys t2").unwrap()),
            vec![],
        )
        .unwrap();
        let one_table = vec![parts.iter().collect()];
        assert!(matches!(
            execute_partitioned(&PlanMemo::default(), &q, one_table),
            Err(StorageError::BadQuery(_))
        ));
        let empty_table = vec![parts.iter().collect(), PartitionedTable::default()];
        assert!(matches!(
            execute_partitioned(&PlanMemo::default(), &q, empty_table),
            Err(StorageError::BadQuery(_))
        ));
    }

    /// Two databases with one history — deletes, reused slots, a modify
    /// that re-keys, one that only moves its row to the end of `g`'s list —
    /// `ranked(true)` with ordered indexes on `k`, `r`, `(g, k)` and
    /// `(g, r)`, `ranked(false)` without: the scan, or the read of `g`'s
    /// list, and the sort that the walk must reproduce.
    fn ranked(ordered: bool) -> Database {
        let mut schema = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("k", ColumnType::Int)
            .column("g", ColumnType::Int)
            .column("r", ColumnType::Real)
            .primary_key(&["id"])
            .index("g");
        if ordered {
            schema = schema.ordered_index("k").ordered_index("r");
            schema = schema.ordered_index_on(&["g", "k"]);
            schema = schema.ordered_index_on(&["g", "r"]);
        }
        let mut d = Database::new();
        d.create_table(schema.build().unwrap()).unwrap();
        let insert = |d: &mut Database, id: i64| {
            let r = if id % 2 == 0 {
                Value::Int(id % 3)
            } else {
                Value::real((id % 3) as f64)
            };
            let row = vec![Value::Int(id), Value::Int(id % 5), Value::Int(id % 2), r];
            d.insert_row("t", row).unwrap();
        };
        for id in 0..30 {
            insert(&mut d, id);
        }
        for id in [3, 10, 11, 24] {
            apply(&mut d, "DELETE FROM t WHERE id = ?", vec![Value::Int(id)]);
        }
        // Slots 24, 11, 10 come back, in that order, under new keys.
        for id in [30, 31, 32] {
            insert(&mut d, id);
        }
        apply(
            &mut d,
            "UPDATE t SET k = ? WHERE id = ?",
            vec![Value::Int(9), Value::Int(7)],
        );
        // Sets what is there already: id 2 goes last on `g = 0`'s list.
        apply(
            &mut d,
            "UPDATE t SET r = ? WHERE id = ?",
            vec![Value::Int(2), Value::Int(2)],
        );
        d
    }

    /// The walk's result on `ranked(true)`, checked to be the scan's on
    /// `ranked(false)`.
    fn walked(sql: &str, params: Vec<Value>) -> Vec<Vec<i64>> {
        let got = run(&ranked(true), sql, params.clone());
        assert_eq!(got, run(&ranked(false), sql, params), "{sql}");
        ints(&got)
    }

    #[test]
    fn ascending_walk_stops_at_the_upper_bound() {
        let r = walked(
            "SELECT id, k FROM t WHERE k <= ? ORDER BY k LIMIT 100",
            vec![Value::Int(0)],
        );
        // Fewer than k matches: all of them, id 30 where its reused slot
        // 24 puts it.
        assert_eq!(r, [0, 5, 15, 20, 30, 25].map(|id| vec![id, 0]));
    }

    #[test]
    fn descending_walk_stops_at_the_lower_bound() {
        let r = walked(
            "SELECT id, k FROM t WHERE k >= ? ORDER BY k DESC LIMIT 100",
            vec![Value::Int(4)],
        );
        let mut want = vec![vec![7, 9]];
        want.extend([4, 9, 14, 19, 29].map(|id| vec![id, 4]));
        assert_eq!(r, want);
        let r = walked(
            "SELECT id FROM t WHERE k > ? AND k < ? ORDER BY k DESC LIMIT 3",
            vec![Value::Int(1), Value::Int(4)],
        );
        assert_eq!(r, vec![vec![8], vec![13], vec![18]]);
    }

    #[test]
    fn walk_honours_limit_zero_and_short_results() {
        let none = walked("SELECT id FROM t ORDER BY k LIMIT 0", vec![]);
        assert!(none.is_empty());
        let r = walked(
            "SELECT id FROM t WHERE k >= ? ORDER BY k LIMIT 5",
            vec![Value::Int(5)],
        );
        assert_eq!(r, vec![vec![7]], "one match, k = 5 asked for");
        let all = walked("SELECT id FROM t ORDER BY k DESC LIMIT 100000", vec![]);
        assert_eq!(all.len(), 29);
    }

    /// A row failing a restriction on another column is skipped; the walk
    /// goes on to the rows behind it.
    #[test]
    fn walk_skips_rows_that_fail_other_restrictions() {
        let r = walked(
            "SELECT id FROM t WHERE g >= ? AND id > ? ORDER BY r LIMIT 4",
            vec![Value::Int(1), Value::Int(5)],
        );
        assert_eq!(r, vec![vec![9], vec![15], vec![21], vec![27]]);
        let r = walked(
            "SELECT id, k FROM t WHERE id >= ? AND k <= id ORDER BY k LIMIT 3",
            vec![Value::Int(12)],
        );
        assert_eq!(r, vec![vec![15, 0], vec![20, 0], vec![30, 0]]);
    }

    /// `Int(1)` and `Real(1.0)` tie as sort keys: one group of a
    /// descending walk, in ascending row id across both.
    #[test]
    fn descending_walk_groups_keys_that_tie_under_cmp() {
        let r = walked(
            "SELECT id FROM t WHERE r >= ? ORDER BY r DESC LIMIT 12",
            vec![Value::Int(1)],
        );
        // The 2s (id 32 in slot 10), then `Real(1.0)` of id 1 and `Int(1)`
        // of id 4.
        assert_eq!(
            r,
            [2, 5, 8, 32, 14, 17, 20, 23, 26, 29, 1, 4].map(|id| vec![id])
        );
    }

    /// Under an indexed `=` restriction the candidates arrive in list
    /// order, and ties keep it: deletes swapped slot 28 forward and put id
    /// 32 in slot 10, a modify sent id 2 to the end — not the ascending
    /// row id a walk lists equal keys in.
    #[test]
    fn a_prefixed_walk_keeps_ties_in_the_equality_lists_order() {
        let d = ranked(true);
        let g = d.table("t").unwrap().index_lookup(2, &Value::Int(0));
        assert_eq!(
            g.unwrap(),
            [0, 10, 4, 6, 8, 28, 12, 14, 16, 18, 20, 22, 26, 24, 2]
        );
        let sql = "SELECT id FROM t WHERE g = ? AND k >= ? AND k <= ? ORDER BY k LIMIT 100";
        let q = Query::bind(
            0,
            Arc::new(parse_query(sql).unwrap()),
            vec![Value::Int(0); 3],
        );
        assert_eq!(d.walk_prefix(&q.unwrap()), Some(1));
        let r = walked(sql, vec![Value::Int(0), Value::Int(2), Value::Int(3)]);
        assert_eq!(r, [32, 12, 22, 2, 8, 28, 18].map(|id| vec![id]));
    }

    /// The cut falls inside a group of ties for most `LIMIT`s: the group
    /// is read to its end and put in list order before the cut, up the
    /// keys and down. A parameter `Real(1.0)` ties with `g`'s `Int(1)`s
    /// but is on no list: no candidates, though the walk finds the rows.
    #[test]
    fn a_prefixed_walk_cuts_inside_a_tie_group_as_the_sort_does() {
        let listed = [
            (Value::Int(0), 15),
            (Value::Int(1), 14),
            (Value::real(1.0), 0),
        ];
        for (g, all) in listed {
            for limit in [1, 2, 3, 4, 5, 7, 9, 14, 100] {
                for (key, dir) in [("k", ""), ("k", " DESC"), ("r", ""), ("r", " DESC")] {
                    let sql =
                        format!("SELECT id FROM t WHERE g = ? ORDER BY {key}{dir} LIMIT {limit}");
                    let r = walked(&sql, vec![g.clone()]);
                    assert_eq!(r.len(), limit.min(all), "{sql} {g:?}");
                }
            }
        }
        // Rows failing a restriction on a third column are stepped over,
        // inside a tie group too.
        let r = walked(
            "SELECT id FROM t WHERE g = ? AND id >= ? AND k >= ? ORDER BY k DESC LIMIT 4",
            vec![Value::Int(0), Value::Int(10), Value::Int(1)],
        );
        assert_eq!(r, [14, 28, 18, 32].map(|id| vec![id]));
    }

    /// The parts' prefixed walks merged: bears tie on `qty` across parts
    /// and inside one, whose list a delete and a modify left unordered.
    #[test]
    fn partitioned_prefixed_walk_merges_ties_across_parts() {
        let p0 = toy_part(&[(1, "bear", 5), (2, "car", 5), (3, "bear", 2)]);
        let mut p1 = toy_part(&[
            (4, "bear", 5),
            (5, "bear", 5),
            (6, "ant", 1),
            (7, "bear", 2),
        ]);
        p1.delete(2);
        p1.modify(0, &[(2, Value::Int(5))]).unwrap();
        assert_eq!(p1.index_lookup(1, &Value::str("bear")).unwrap(), &[3, 1, 0]);
        // An `ant` ahead of the `bear` in its part: a merge that looked
        // at heads outside the prefix would hold the `bear` back.
        let p2 = toy_part(&[(8, "ant", 9), (9, "bear", 3)]);
        let parts = [p0, p1, toy_part(&[]), p2];
        let mut schema = parts[0].schema().clone();
        schema.ordered_indexes.clear();
        let mut copied = Database::new();
        copied.create_table(schema).unwrap();
        for (_, row) in parts.iter().flat_map(Table::iter) {
            copied.insert_row("toys", row.clone()).unwrap();
        }
        for dir in ["", " DESC"] {
            for limit in 1..8 {
                let sql = format!(
                    "SELECT toy_id FROM toys WHERE toy_name = ? AND qty >= ? \
                     ORDER BY qty{dir} LIMIT {limit}"
                );
                let params = vec![Value::str("bear"), Value::Int(2)];
                let q = Query::bind(0, Arc::new(parse_query(&sql).unwrap()), params).unwrap();
                let memo = PlanMemo::default();
                let got = execute_partitioned(&memo, &q, vec![parts.iter().collect()]);
                assert_eq!(got.unwrap(), copied.execute(&q).unwrap(), "{sql}");
            }
        }
    }

    #[test]
    fn top_k_equals_prefix_of_ordered_result() {
        let d = db();
        let full = run(&d, "SELECT toy_id FROM toys ORDER BY qty DESC", vec![]);
        let topk = run(
            &d,
            "SELECT toy_id FROM toys ORDER BY qty DESC LIMIT 3",
            vec![],
        );
        assert_eq!(&full.rows[..3], &topk.rows[..]);
    }
}
