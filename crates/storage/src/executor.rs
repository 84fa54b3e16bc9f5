//! SPJ query execution with multiset semantics.
//!
//! Supports exactly the query model of §2.1 (+§5.1): select-project-join
//! with conjunctive predicates over the five comparison operators, optional
//! `ORDER BY`, top-k (`LIMIT`), and aggregation with `GROUP BY`.
//!
//! Every choice below is made from the query and the tables' indexes alone.
//!
//! * **Access path.** An alias with predicates of its own is filtered up
//!   front, through an equality index when one of its `=` restrictions has
//!   one, by a scan otherwise. An alias without any is never filtered: it
//!   counts as its whole table.
//! * **Join order.** Greedy: the smallest candidate count first, then
//!   aliases connected by an equality join to the bound set, smallest
//!   first.
//! * **Join step.** An unfiltered alias joined on an indexed equality
//!   column is *probed* per bound tuple (index nested loop); any other
//!   equality join builds a hash table over the alias's candidates; a join
//!   with theta predicates only is a nested loop.
//! * **Top-k.** `ORDER BY` gathers borrowed sort keys once and orders tuple
//!   numbers by `(keys…, arrival number)`; with `LIMIT k` only the k
//!   smallest are selected and sorted, and only they are projected.
//!   `LIMIT k` without `ORDER BY` stops the last join step at k tuples.
//! * **Index-ordered top-k.** One alias, `LIMIT k`, one `ORDER BY` key
//!   whose column carries an *ordered index*, and no `=` restriction on an
//!   equality-indexed column: instead of the scan and the sort, the index
//!   is walked from the bound the key's own restrictions give, every
//!   restriction and local predicate is tested on each row as a scan tests
//!   it, and the walk stops at the k-th row that passes or at the far
//!   bound. Any other query takes the rules above.
//! * **Aggregation.** One pass over the tuples folds every aggregate of
//!   every group; values are cloned into output rows only.
//!
//! **Row-order contract** — what the home returns is what the cache stores
//! and which rows a top-k keeps, so every plan must produce rows in this
//! order: a scan yields ascending `RowId`; an indexed restriction yields
//! the index's own list order; a probe yields ascending `RowId` per bound
//! tuple (the order a hash bucket built from a scan has); sort ties keep
//! arrival order; an index-ordered walk yields key order, ascending `RowId`
//! within equal keys — by construction what the sort gives a scan's
//! candidates (`DESC` reverses the keys, not the ids); groups appear in
//! first-seen order. Over a [`PartitionedTable`]: parts in ascending shard
//! id, ascending `RowId` within a part, a part's index list emitted
//! ascending, the parts' ordered walks merged by `(key, global row id)`.
//!
//! **One body, two sources.** The plan reads each `FROM` alias through
//! `Source`: a `&Table` ([`execute`], the single home), or a
//! [`PartitionedTable`] ([`execute_partitioned`], the sharded home's
//! scatter) — the alias's table as the ordered list of the owning shards'
//! own tables, a row addressed by a *global row id* = its part's base (the
//! slot counts of the parts before it) + its `RowId` there. Global ids
//! order rows exactly as copying the parts, in order, into one fresh table
//! would, so a scatter returns the rows that table would give, in the same
//! order, without copying a row or building an index. The body is
//! monomorphised per source; over `&Table` every `Source` call is the
//! `Table` method of the same name.

use crate::database::Database;
use crate::error::StorageError;
use crate::result::QueryResult;
use crate::schema::TableSchema;
use crate::table::{Row, RowId, Table};
use scs_sqlkit::{AggFunc, CmpOp, ColumnRef, Query, Real, SelectItem, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Executes `q` against `db`, producing a materialized result.
pub fn execute(db: &Database, q: &Query) -> Result<QueryResult, StorageError> {
    let tables: Vec<&Table> = q
        .template
        .from
        .iter()
        .map(|tr| db.table(&tr.table))
        .collect::<Result<_, _>>()?;
    run(q, tables)
}

/// Executes `q` over partitioned tables, `tables[i]` standing for the
/// query's `i`-th `FROM` entry: the result, rows and order, that
/// [`execute`] returns on a database holding each table's parts copied, in
/// order, into one table.
pub fn execute_partitioned(
    q: &Query,
    tables: Vec<PartitionedTable<'_>>,
) -> Result<QueryResult, StorageError> {
    if tables.len() != q.template.from.len() || tables.iter().any(|t| t.parts.is_empty()) {
        return Err(StorageError::BadQuery(
            "a partitioned query needs one table of at least one part per FROM entry".into(),
        ));
    }
    run(q, tables)
}

fn run<'a, S: Source<'a>>(q: &'a Query, tables: Vec<S>) -> Result<QueryResult, StorageError> {
    let tpl = &q.template;
    if tables.is_empty() {
        return Err(StorageError::BadQuery("query has no FROM table".into()));
    }

    let ctx = Context::new(q, tables)?;
    let columns: Vec<String> = tpl.select.iter().map(|s| s.to_string()).collect();
    let rows = if tpl.has_aggregates() || !tpl.group_by.is_empty() {
        ctx.aggregate()?
    } else {
        ctx.project()?
    };
    Ok(QueryResult::new(columns, rows))
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

    fn has_index(&self, pos: usize) -> bool;

    /// Row ids whose indexed column `pos` equals `v`, in the order an
    /// indexed restriction yields them; `None` when the column has no
    /// index. `buf` is scratch space the returned list may live in.
    fn index_lookup<'b>(
        &self,
        pos: usize,
        v: &Value,
        buf: &'b mut Vec<RowId>,
    ) -> Option<&'b [RowId]>
    where
        'a: 'b;

    /// The rows whose column `pos` satisfies every `column op value` of
    /// `bounds`, in the order of that column's ordered index (see
    /// [`Table::ordered_walk`]); `None` when the column has none.
    fn ordered_walk(
        &self,
        pos: usize,
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Option<impl Iterator<Item = (RowId, &'a Row)>>;
}

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

    fn has_index(&self, pos: usize) -> bool {
        Table::has_index(self, pos)
    }

    fn index_lookup<'b>(
        &self,
        pos: usize,
        v: &Value,
        _buf: &'b mut Vec<RowId>,
    ) -> Option<&'b [RowId]>
    where
        'a: 'b,
    {
        Table::index_lookup(self, pos, v)
    }

    fn ordered_walk(
        &self,
        pos: usize,
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Option<impl Iterator<Item = (RowId, &'a Row)>> {
        Table::ordered_walk(self, pos, bounds, desc)
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

    fn has_index(&self, pos: usize) -> bool {
        self.parts[0].1.has_index(pos)
    }

    fn index_lookup<'b>(
        &self,
        pos: usize,
        v: &Value,
        buf: &'b mut Vec<RowId>,
    ) -> Option<&'b [RowId]>
    where
        'a: 'b,
    {
        buf.clear();
        for &(base, part) in &self.parts {
            let ids = part.index_lookup(pos, v)?;
            let at = buf.len();
            buf.extend(ids.iter().map(|id| base + id));
            // Deletes and slot reuse leave a part's list unordered; the
            // table its rows were copied into would list them ascending.
            if !ids.is_sorted() {
                buf[at..].sort_unstable();
            }
        }
        Some(buf)
    }

    /// Each part walks its own index; the heads merge by `(key, global row
    /// id)`. Parts hold disjoint, ascending id ranges, so of tied heads the
    /// earliest part's comes first.
    fn ordered_walk(
        &self,
        pos: usize,
        bounds: &[(CmpOp, &Value)],
        desc: bool,
    ) -> Option<impl Iterator<Item = (RowId, &'a Row)>> {
        let mut walks = Vec::with_capacity(self.parts.len());
        for &(base, part) in &self.parts {
            let walk = part.ordered_walk(pos, bounds, desc)?;
            walks.push(walk.map(move |(id, row)| (base + id, row)).peekable());
        }
        Some(std::iter::from_fn(move || {
            let mut best: Option<(usize, &Value)> = None;
            for (i, walk) in walks.iter_mut().enumerate() {
                if let Some((_, row)) = walk.peek() {
                    let key = &row[pos];
                    let ahead = best.is_none_or(|(_, b)| if desc { key > b } else { key < b });
                    if ahead {
                        best = Some((i, key));
                    }
                }
            }
            walks[best?.0].next()
        }))
    }
}

/// A column resolved to (alias index, column position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Col {
    alias: usize,
    pos: usize,
}

/// `column op value`, local to one alias.
struct Restriction<'a> {
    col: Col,
    op: CmpOp,
    value: &'a Value,
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

/// `LIMIT` as a tuple count; `usize::MAX` when the query has none.
fn limit_of(q: &Query) -> usize {
    q.template
        .limit
        .map_or(usize::MAX, |k| usize::try_from(k).unwrap_or(usize::MAX))
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

struct Context<'a, S> {
    q: &'a Query,
    tables: Vec<S>,
    restrictions: Vec<Restriction<'a>>,
    locals: Vec<LocalColCol>,
    joins: Vec<JoinPred>,
}

impl<'a, S: Source<'a>> Context<'a, S> {
    fn new(q: &'a Query, tables: Vec<S>) -> Result<Context<'a, S>, StorageError> {
        let mut ctx = Context {
            q,
            tables,
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
                    value: q.resolve(s),
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
                // The parser rejects these; a hand-built AST can hold one.
                return Err(StorageError::BadQuery(format!(
                    "predicate `{p}` compares no column"
                )));
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

    /// The value of column `c` in tuple `t` (one row id per alias).
    fn value(&self, t: &[RowId], c: Col) -> Result<&'a Value, StorageError> {
        Ok(&self.tables[c.alias].live_row(t[c.alias])?[c.pos])
    }

    /// True if `alias` has a restriction or a column-column predicate of
    /// its own, i.e. its candidates are fewer than its table.
    fn is_filtered(&self, alias: usize) -> bool {
        self.restrictions.iter().any(|r| r.col.alias == alias)
            || self.locals.iter().any(|l| l.alias == alias)
    }

    /// The conjunction of `alias`'s restrictions and column-column
    /// predicates, as a test on one of its rows.
    fn local_filter(&self, alias: usize) -> impl Fn(&Row) -> bool + '_ {
        let restrictions: Vec<&Restriction> = self
            .restrictions
            .iter()
            .filter(|r| r.col.alias == alias)
            .collect();
        let locals: Vec<&LocalColCol> = self.locals.iter().filter(|l| l.alias == alias).collect();
        move |row| {
            restrictions
                .iter()
                .all(|r| r.op.eval(&row[r.col.pos], r.value))
                && locals.iter().all(|l| l.op.eval(&row[l.lhs], &row[l.rhs]))
        }
    }

    /// Up to `cap` candidate row ids for one alias after local filtering:
    /// in index-list order when an indexed equality restriction narrows the
    /// scan, in ascending `RowId` order otherwise.
    fn candidates(&self, alias: usize, cap: usize) -> Result<Vec<RowId>, StorageError> {
        let table = &self.tables[alias];
        let passes = self.local_filter(alias);
        // Indexed equality fast path.
        let mut buf = Vec::new();
        for r in self.restrictions.iter().filter(|r| r.col.alias == alias) {
            if r.op == CmpOp::Eq {
                if let Some(ids) = table.index_lookup(r.col.pos, r.value, &mut buf) {
                    let mut hits = Vec::with_capacity(ids.len().min(cap));
                    for &id in ids {
                        if hits.len() == cap {
                            break;
                        }
                        if passes(table.live_row(id)?) {
                            hits.push(id);
                        }
                    }
                    return Ok(hits);
                }
            }
        }
        Ok(table
            .scan()
            .filter(|(_, row)| passes(row))
            .map(|(id, _)| id)
            .take(cap)
            .collect())
    }

    /// The first `limit` rows of a single-alias query in the order of its
    /// one sort key, read off the key column's ordered index: the walk
    /// starts and stops where the key's own restrictions bound it, and
    /// every row on it is tested like a scan's. `None` — the caller's scan
    /// and sort stand — when the column has no ordered index, or when an
    /// indexed `=` restriction would make [`Context::candidates`] arrive
    /// in index-list order, which a walk's ties (ascending `RowId`) do not
    /// reproduce.
    fn index_ordered_top_k(&self, key: Col, desc: bool, limit: usize) -> Option<Vec<RowId>> {
        let table = &self.tables[key.alias];
        let by_eq_index = |r: &Restriction| r.op == CmpOp::Eq && table.has_index(r.col.pos);
        if self.restrictions.iter().any(by_eq_index) {
            return None;
        }
        let bounds: Vec<(CmpOp, &Value)> = self
            .restrictions
            .iter()
            .filter(|r| r.col == key)
            .map(|r| (r.op, r.value))
            .collect();
        let walk = table.ordered_walk(key.pos, &bounds, desc)?;
        let passes = self.local_filter(key.alias);
        Some(
            walk.filter(|(_, row)| passes(row))
                .map(|(id, _)| id)
                .take(limit)
                .collect(),
        )
    }

    /// Performs the join; returns up to `cap` tuples, flat: one row id per
    /// alias, in alias order, tuple after tuple.
    fn join(&self, cap: usize) -> Result<Vec<RowId>, StorageError> {
        let n = self.tables.len();
        if cap == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            return self.candidates(0, cap);
        }
        // `None`: an unfiltered alias, its whole table — counted for the
        // join order, materialised only if a step below has to scan it.
        let mut filtered: Vec<Option<Vec<RowId>>> = Vec::with_capacity(n);
        for alias in 0..n {
            filtered.push(if self.is_filtered(alias) {
                Some(self.candidates(alias, usize::MAX)?)
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
                self.joins.iter().any(|j| {
                    j.op == CmpOp::Eq
                        && ((j.lhs.alias == a && order.contains(&j.rhs.alias))
                            || (j.rhs.alias == a && order.contains(&j.lhs.alias)))
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

        // Slots of aliases not bound yet hold this placeholder.
        const UNBOUND: RowId = RowId::MAX;
        let first = match filtered[order[0]].take() {
            Some(ids) => ids,
            None => self.candidates(order[0], usize::MAX)?,
        };
        let mut tuples: Vec<RowId> = vec![UNBOUND; first.len() * n];
        for (t, id) in tuples.chunks_exact_mut(n).zip(first) {
            t[order[0]] = id;
        }

        for step in 1..n {
            let alias = order[step];
            let bound = &order[..step];
            let table = &self.tables[alias];
            // Join predicates now fully bound and touching `alias`, as
            // (bound column, column position in `alias`), bound side left.
            let mut eq_keys: Vec<(Col, usize)> = Vec::new();
            let mut thetas: Vec<(Col, CmpOp, usize)> = Vec::new();
            for j in &self.joins {
                let (b, np, op) = if j.lhs.alias == alias && bound.contains(&j.rhs.alias) {
                    (j.rhs, j.lhs.pos, j.op.flipped())
                } else if j.rhs.alias == alias && bound.contains(&j.lhs.alias) {
                    (j.lhs, j.rhs.pos, j.op)
                } else {
                    continue;
                };
                if op == CmpOp::Eq {
                    eq_keys.push((b, np));
                } else {
                    thetas.push((b, op, np));
                }
            }
            let cap = if step == n - 1 { cap } else { usize::MAX };

            let mut next: Vec<RowId> = Vec::new();
            // Appends `t` extended by `id` if the theta predicates hold;
            // false once `cap` tuples exist.
            let mut emit = |t: &[RowId], id: RowId, new_row: &Row| -> Result<bool, StorageError> {
                for (b, op, np) in &thetas {
                    if !op.eval(self.value(t, *b)?, &new_row[*np]) {
                        return Ok(true);
                    }
                }
                let at = next.len();
                next.extend_from_slice(t);
                next[at + alias] = id;
                Ok(next.len() < cap.saturating_mul(n))
            };

            let probe = match filtered[alias] {
                None => eq_keys.iter().position(|(_, np)| table.has_index(*np)),
                Some(_) => None,
            };
            if let Some(k) = probe {
                // Index nested loop: probe the index per bound tuple and
                // check the other equality keys on what it returns. Index
                // lists are unordered after deletes, a scan's hash bucket
                // is not: emit in ascending row id.
                let (probe_col, probe_pos) = eq_keys[k];
                let mut buf: Vec<RowId> = Vec::new();
                let mut sorted: Vec<RowId> = Vec::new();
                'probe: for t in tuples.chunks_exact(n) {
                    let ids = table
                        .index_lookup(probe_pos, self.value(t, probe_col)?, &mut buf)
                        .unwrap_or(&[]);
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
                        let mut all_eq = true;
                        for (i, (b, np)) in eq_keys.iter().enumerate() {
                            if i != k && self.value(t, *b)? != &new_row[*np] {
                                all_eq = false;
                                break;
                            }
                        }
                        if all_eq && !emit(t, id, new_row)? {
                            break 'probe;
                        }
                    }
                }
            } else {
                let scanned;
                let ids: &[RowId] = match &filtered[alias] {
                    Some(ids) => ids,
                    None => {
                        scanned = self.candidates(alias, usize::MAX)?;
                        &scanned
                    }
                };
                if eq_keys.is_empty() {
                    'nested: for t in tuples.chunks_exact(n) {
                        for &id in ids {
                            if !emit(t, id, table.live_row(id)?)? {
                                break 'nested;
                            }
                        }
                    }
                } else {
                    // Hash join: build on the new alias's candidates.
                    let mut hash: HashMap<Vec<&Value>, Vec<RowId>> = HashMap::new();
                    for &id in ids {
                        let row = table.live_row(id)?;
                        let key = eq_keys.iter().map(|(_, np)| &row[*np]).collect();
                        hash.entry(key).or_default().push(id);
                    }
                    let mut key: Vec<&Value> = Vec::with_capacity(eq_keys.len());
                    'hash: for t in tuples.chunks_exact(n) {
                        key.clear();
                        for (b, _) in &eq_keys {
                            key.push(self.value(t, *b)?);
                        }
                        for &id in hash.get(&key).map_or(&[][..], Vec::as_slice) {
                            if !emit(t, id, table.live_row(id)?)? {
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
        Ok(tuples)
    }

    /// Plain projection with ordering and top-k.
    fn project(&self) -> Result<Vec<Vec<Value>>, StorageError> {
        let tpl = &self.q.template;
        // Sort keys may be non-projected columns.
        let keys: Vec<Col> = tpl
            .order_by
            .iter()
            .map(|k| self.resolve(&k.column))
            .collect::<Result<_, _>>()?;
        let desc: Vec<bool> = tpl.order_by.iter().map(|k| k.desc).collect();
        let mut select_cols: Vec<Col> = Vec::with_capacity(tpl.select.len());
        for s in &tpl.select {
            if let SelectItem::Column(c) = s {
                select_cols.push(self.resolve(c)?);
            }
        }
        let limit = limit_of(self.q);
        let n = self.tables.len();

        let walked = match (&keys[..], tpl.limit) {
            ([key], Some(_)) if n == 1 => self.index_ordered_top_k(*key, desc[0], limit),
            _ => None,
        };
        // Whether the tuples arrive in output order, cut to `limit`.
        let in_order = walked.is_some() || keys.is_empty();
        let tuples = match walked {
            Some(ids) => ids,
            None => self.join(if in_order { limit } else { usize::MAX })?,
        };
        let count = tuples.len() / n;

        // Tuple numbers in output order.
        let mut picked: Vec<usize> = (0..count).collect();
        if !in_order {
            let nk = keys.len();
            let mut sort_keys: Vec<&Value> = Vec::with_capacity(count * nk);
            for t in tuples.chunks_exact(n) {
                for k in &keys {
                    sort_keys.push(self.value(t, *k)?);
                }
            }
            // Arrival number as the last key makes the order total, so
            // the unstable select and sort below are deterministic and
            // agree with a stable sort on the keys.
            let by_keys_then_arrival = |a: &usize, b: &usize| {
                let (ka, kb) = (&sort_keys[a * nk..][..nk], &sort_keys[b * nk..][..nk]);
                compare_keys(ka, kb, &desc).then(a.cmp(b))
            };
            if limit < count {
                if limit > 0 {
                    picked.select_nth_unstable_by(limit - 1, by_keys_then_arrival);
                }
                picked.truncate(limit);
            }
            picked.sort_unstable_by(by_keys_then_arrival);
        }

        let mut rows = Vec::with_capacity(picked.len());
        for i in picked {
            let t = &tuples[i * n..(i + 1) * n];
            let mut row = Vec::with_capacity(select_cols.len());
            for c in &select_cols {
                row.push(self.value(t, *c)?.clone());
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Grouped / scalar aggregation, then ordering and top-k on its output.
    fn aggregate(&self) -> Result<Vec<Vec<Value>>, StorageError> {
        let tpl = &self.q.template;
        let n = self.tables.len();
        let tuples = self.join(usize::MAX)?;

        // Plain select items must be group-by columns. An aggregate's
        // argument is resolved here, but a failure only surfaces when the
        // first group's row is built, after the items before it.
        enum Item {
            GroupKey(usize),
            Agg(AggFunc, Option<Result<Col, StorageError>>),
        }
        let mut items: Vec<Item> = Vec::with_capacity(tpl.select.len());
        for s in &tpl.select {
            items.push(match s {
                SelectItem::Column(c) => {
                    let gpos = tpl.group_by.iter().position(|g| g == c).ok_or_else(|| {
                        StorageError::BadQuery(format!(
                            "non-aggregated column `{c}` must appear in GROUP BY"
                        ))
                    })?;
                    Item::GroupKey(gpos)
                }
                SelectItem::Aggregate { func, arg } => {
                    Item::Agg(*func, arg.as_ref().map(|c| self.resolve(c)))
                }
            });
        }
        let group_cols: Vec<Col> = tpl
            .group_by
            .iter()
            .map(|c| self.resolve(c))
            .collect::<Result<_, _>>()?;

        let mut rows: Vec<Vec<Value>> = Vec::new();
        if tuples.is_empty() {
            // Scalar aggregation over empty input emits one row only if
            // every aggregate is COUNT (SQL would produce NULLs, which the
            // model lacks); grouped aggregation emits no group.
            let all_count = items
                .iter()
                .all(|i| matches!(i, Item::Agg(AggFunc::Count, _)));
            if tpl.group_by.is_empty() && all_count {
                rows.push(vec![Value::Int(0); items.len()]);
            }
        } else {
            // One pass: find each tuple's group (first-seen order; no
            // GROUP BY is one group over everything) and fold it into that
            // group's accumulators, one per select item.
            let width = items.len();
            let gk = group_cols.len();
            let mut keys: Vec<&Value> = Vec::with_capacity(tuples.len() / n * gk);
            for t in tuples.chunks_exact(n) {
                for c in &group_cols {
                    keys.push(self.value(t, *c)?);
                }
            }
            let mut groups: Vec<(usize, usize)> = Vec::new(); // (first tuple, size)
            let mut accs: Vec<Acc> = Vec::new(); // group-major, `width` each
            let mut index: HashMap<&[&Value], usize> = HashMap::new();
            for (i, t) in tuples.chunks_exact(n).enumerate() {
                let g = if gk == 0 {
                    0
                } else {
                    *index
                        .entry(&keys[i * gk..(i + 1) * gk])
                        .or_insert(groups.len())
                };
                if g == groups.len() {
                    groups.push((i, 0));
                    accs.resize_with(accs.len() + width, Acc::default);
                }
                groups[g].1 += 1;
                for (item, acc) in items.iter().zip(&mut accs[g * width..]) {
                    if let Item::Agg(func, Some(Ok(col))) = item {
                        acc.fold(*func, self.value(t, *col)?);
                    }
                }
            }

            rows.reserve(groups.len());
            for (g, (first, size)) in groups.iter().enumerate() {
                let mut out = Vec::with_capacity(width);
                for (item, acc) in items.iter().zip(&accs[g * width..]) {
                    out.push(match item {
                        Item::GroupKey(gpos) => keys[first * gk + gpos].clone(),
                        Item::Agg(_, Some(Err(e))) => return Err(e.clone()),
                        Item::Agg(func, arg) => acc.finish(*func, arg.is_some(), *size)?,
                    });
                }
                rows.push(out);
            }
        }

        // ORDER BY on grouped output: keys must be selected group-by
        // columns. Stable, so tied groups stay in first-seen order.
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
                    if ord.is_ne() {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        rows.truncate(limit_of(self.q));
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

    fn finish(
        &self,
        func: AggFunc,
        has_arg: bool,
        group_size: usize,
    ) -> Result<Value, StorageError> {
        let name = func.as_str();
        if func == AggFunc::Count {
            return Ok(Value::Int(group_size as i64));
        }
        if !has_arg {
            return Err(StorageError::BadQuery(format!("{name} requires a column")));
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
        let bears = t.index_lookup(1, &Value::str("bear"), &mut buf).unwrap();
        assert_eq!(bears, &[0, 3, 4, 5]);
        let none = t.index_lookup(1, &Value::str("yak"), &mut buf).unwrap();
        assert!(none.is_empty());
        assert!(t.index_lookup(2, &Value::Int(5), &mut buf).is_none());
        assert!(t.has_index(1) && !t.has_index(2));
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
                execute_partitioned(&q, tables).unwrap(),
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
            execute_partitioned(&q, one_table),
            Err(StorageError::BadQuery(_))
        ));
        let empty_table = vec![parts.iter().collect(), PartitionedTable::default()];
        assert!(matches!(
            execute_partitioned(&q, empty_table),
            Err(StorageError::BadQuery(_))
        ));
    }

    /// Two databases with one history — deletes, a reused slot, a modify
    /// — `ranked(true)` with ordered indexes on `k` and `r`, `ranked(false)`
    /// without: the scan + sort the walk must reproduce.
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

    /// An indexed `=` restriction keeps the plan that reads the index
    /// list: ties arrive in list order (deletes swapped slot 28 forward,
    /// id 32 joined last), not in ascending row id as a walk gives them.
    #[test]
    fn indexed_equality_restriction_keeps_the_list_order_plan() {
        let r = walked(
            "SELECT id FROM t WHERE g = ? AND k >= ? AND k <= ? ORDER BY k LIMIT 100",
            vec![Value::Int(0), Value::Int(2), Value::Int(3)],
        );
        assert_eq!(r, [2, 12, 22, 32, 8, 28, 18].map(|id| vec![id]));
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
