//! Test-only reference for the statement and view tiers of `decide` and
//! for the probe rules in front of it: the bodies the DSSP ran before the
//! tiers read their constraints straight off the templates and the probe
//! rule was memoised per (bucket, update template). They bind every
//! constraint into an owned `Constraint`, group a conjunction by column in
//! a map, collect the aliases, the preserved select positions and the
//! selection columns — and derive the probe from the two templates for
//! every call. Kept word for word (bar visibility) so the production tiers
//! are compared with `==` against something other than themselves.

#![allow(dead_code)]

use scs_core::{ExposureLevel, IpmMatrix};
use scs_dssp::{DecisionPath, Probe};
use scs_sqlkit::{
    AggFunc, CmpOp, Predicate, Query, QueryTemplate, Scalar, SelectItem, Update, UpdateTemplate,
    Value,
};
use scs_storage::QueryResult;
use std::collections::HashMap;

/// A bound single-attribute constraint: `column op value`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub column: String,
    pub op: CmpOp,
    pub value: Value,
}

/// The Figure-6 cell for one pair, over the reference tiers: the update at
/// `u_level`, the entry's statement `q` and result at `q_level`.
pub fn decide(
    matrix: &IpmMatrix,
    u: &Update,
    u_level: ExposureLevel,
    q: &Query,
    result: &QueryResult,
    q_level: ExposureLevel,
) -> (bool, DecisionPath) {
    if u_level == ExposureLevel::Blind || q_level == ExposureLevel::Blind {
        return (true, DecisionPath::BlindSide);
    }
    if matrix.entry(u.template_id, q.template_id).all_zero() {
        return (false, DecisionPath::Template);
    }
    if u_level < ExposureLevel::Stmt || q_level < ExposureLevel::Stmt {
        return (true, DecisionPath::Template);
    }
    if q_level == ExposureLevel::View {
        (view_may_affect(u, q, result), DecisionPath::View)
    } else {
        (statement_may_affect(u, q), DecisionPath::Statement)
    }
}

// ---- the statement tier ---------------------------------------------------

/// Decides whether `u` might affect `q` (`true` = must invalidate).
pub fn statement_may_affect(u: &Update, q: &Query) -> bool {
    let table = u.template.table();
    let aliases: Vec<&str> = q
        .template
        .from
        .iter()
        .filter(|t| t.table == table)
        .map(|t| t.alias.as_str())
        .collect();
    if aliases.is_empty() {
        // The updated relation does not occur in the query. (Template-level
        // ignorability normally catches this earlier.)
        return false;
    }
    // A column-column predicate inside one relation defeats the
    // per-attribute reasoning; stay conservative.
    let has_intra = q.template.predicates.iter().any(|p| {
        p.as_join()
            .is_some_and(|(l, _, r)| l.qualifier == r.qualifier)
    }) || u.template.predicates().iter().any(|p| p.is_join());
    if has_intra {
        return true;
    }

    aliases.iter().any(|alias| alias_may_affect(u, q, alias))
}

fn alias_may_affect(u: &Update, q: &Query, alias: &str) -> bool {
    let q_restrictions = query_restrictions(q, alias);
    match &*u.template {
        UpdateTemplate::Insert(ins) => {
            // The fresh row affects the query only if it satisfies the
            // query's local restrictions on this alias (join conditions
            // with other relations cannot be ruled out statically).
            let row: HashMap<&str, &Value> = ins
                .columns
                .iter()
                .map(String::as_str)
                .zip(ins.values.iter().map(|s| u.resolve(s)))
                .collect();
            q_restrictions
                .iter()
                .all(|c| match row.get(c.column.as_str()) {
                    Some(v) => c.op.eval(v, &c.value),
                    None => true, // partially specified — cannot rule out
                })
        }
        UpdateTemplate::Delete(_) => {
            // A deleted row matters only if some row can satisfy both the
            // deletion predicate and the query's restrictions.
            let mut all = update_constraints(u);
            all.extend(q_restrictions);
            constraints_satisfiable(&all)
        }
        UpdateTemplate::Modify(m) => {
            let u_constraints = update_constraints(u);
            let modified: Vec<&str> = m.set.iter().map(|(c, _)| c.as_str()).collect();

            // Direction 1 — the row *was* in the query's input: its old
            // values satisfy both the update predicate and the query's
            // restrictions.
            let mut joint = u_constraints.clone();
            joint.extend(q_restrictions.iter().cloned());
            if constraints_satisfiable(&joint) {
                return true;
            }

            // Direction 2 — the row *enters* after the update: unmodified
            // attributes still obey the update predicate + restrictions;
            // modified attributes take their known new values.
            let unmodified_ok = {
                let subset: Vec<Constraint> = joint
                    .iter()
                    .filter(|c| !modified.contains(&c.column.as_str()))
                    .cloned()
                    .collect();
                constraints_satisfiable(&subset)
            };
            let new_values_ok = q_restrictions.iter().all(|c| {
                match m.set.iter().find(|(col, _)| col == &c.column) {
                    Some((_, s)) => c.op.eval(u.resolve(s), &c.value),
                    None => true,
                }
            });
            unmodified_ok && new_values_ok
        }
    }
}

/// The query's bound `column op value` restrictions on one alias.
pub fn query_restrictions(q: &Query, alias: &str) -> Vec<Constraint> {
    q.template
        .predicates
        .iter()
        .filter_map(|p| p.as_restriction())
        .filter(|(c, _, _)| c.qualifier == alias)
        .map(|(c, op, s)| Constraint {
            column: c.column.clone(),
            op,
            value: q.resolve(s).clone(),
        })
        .collect()
}

/// The update's bound `column op value` predicates.
pub fn update_constraints(u: &Update) -> Vec<Constraint> {
    u.template
        .predicates()
        .iter()
        .filter_map(|p| p.as_restriction())
        .map(|(c, op, s)| Constraint {
            column: c.column.clone(),
            op,
            value: u.resolve(s).clone(),
        })
        .collect()
}

/// Conservative satisfiability of a conjunction of single-attribute
/// comparisons: attributes are independent (no intra-relation column
/// comparisons), so the conjunction is satisfiable iff each attribute's
/// constraint set is. Integer-domain gaps (e.g. `x > 3 ∧ x < 4`) are *not*
/// detected — reported satisfiable, which errs toward invalidation.
pub fn constraints_satisfiable(cs: &[Constraint]) -> bool {
    let mut by_col: HashMap<&str, Vec<&Constraint>> = HashMap::new();
    for c in cs {
        by_col.entry(c.column.as_str()).or_default().push(c);
    }
    by_col.values().all(|group| column_satisfiable(group))
}

fn column_satisfiable(cs: &[&Constraint]) -> bool {
    let mut eq: Option<&Value> = None;
    // (value, strict)
    let mut lower: Option<(&Value, bool)> = None;
    let mut upper: Option<(&Value, bool)> = None;
    for c in cs {
        match c.op {
            CmpOp::Eq => {
                // `cmp`, not derived `!=`: `Int(35)` and `Real(35.0)` are the
                // same value to every other comparison here and to the
                // home's executor.
                if eq.is_some_and(|prev| prev.cmp(&c.value).is_ne()) {
                    return false;
                }
                eq = Some(&c.value);
            }
            CmpOp::Gt | CmpOp::Ge => {
                let strict = c.op == CmpOp::Gt;
                lower = Some(match lower {
                    None => (&c.value, strict),
                    Some((v, s)) => match c.value.cmp(v) {
                        std::cmp::Ordering::Greater => (&c.value, strict),
                        std::cmp::Ordering::Equal => (v, s || strict),
                        std::cmp::Ordering::Less => (v, s),
                    },
                });
            }
            CmpOp::Lt | CmpOp::Le => {
                let strict = c.op == CmpOp::Lt;
                upper = Some(match upper {
                    None => (&c.value, strict),
                    Some((v, s)) => match c.value.cmp(v) {
                        std::cmp::Ordering::Less => (&c.value, strict),
                        std::cmp::Ordering::Equal => (v, s || strict),
                        std::cmp::Ordering::Greater => (v, s),
                    },
                });
            }
        }
    }
    if let Some(v) = eq {
        let lower_ok = lower.is_none_or(|(l, strict)| if strict { v > l } else { v >= l });
        let upper_ok = upper.is_none_or(|(up, strict)| if strict { v < up } else { v <= up });
        return lower_ok && upper_ok;
    }
    match (lower, upper) {
        (Some((l, ls)), Some((u, us))) => match l.cmp(u) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => !ls && !us,
            std::cmp::Ordering::Greater => false,
        },
        _ => true,
    }
}

// ---- the view tier ----------------------------------------------------------

/// Decides whether `u` might affect the cached `result` of `q`
/// (`true` = must invalidate).
pub fn view_may_affect(u: &Update, q: &Query, result: &QueryResult) -> bool {
    if !statement_may_affect(u, q) {
        return false;
    }
    let table = u.template.table();
    let aliases: Vec<&str> = q
        .template
        .from
        .iter()
        .filter(|t| t.table == table)
        .map(|t| t.alias.as_str())
        .collect();
    let [alias] = aliases.as_slice() else {
        return true; // zero is unreachable (statement said "affect")
    };

    match &*u.template {
        UpdateTemplate::Delete(_) => !delete_ruled_out(u, q, alias, result),
        UpdateTemplate::Insert(ins) => {
            let row: Vec<(&str, &Value)> = ins
                .columns
                .iter()
                .map(String::as_str)
                .zip(ins.values.iter().map(|s| u.resolve(s)))
                .collect();
            !(insert_topk_ruled_out(q, alias, result, &row)
                || insert_minmax_ruled_out(q, alias, result, &row))
        }
        UpdateTemplate::Modify(m) => {
            let set: Vec<(&str, &Value)> = m
                .set
                .iter()
                .map(|(c, s)| (c.as_str(), u.resolve(s)))
                .collect();
            !modify_ruled_out(u, q, alias, result, &set)
        }
    }
}

/// Positions of plainly selected columns of `alias` in the result, by
/// column name. Aggregate items never count.
fn preserved_positions<'q>(q: &'q Query, alias: &str) -> Vec<(&'q str, usize)> {
    q.template
        .select
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            SelectItem::Column(c) if c.qualifier == alias => Some((c.column.as_str(), i)),
            _ => None,
        })
        .collect()
}

/// Deletion rule: requires every deletion-predicate attribute to be
/// preserved; checks whether any result row satisfies the deletion
/// predicate.
fn delete_ruled_out(u: &Update, q: &Query, alias: &str, result: &QueryResult) -> bool {
    if q.template.has_aggregates() || !q.template.group_by.is_empty() {
        return false; // aggregated rows do not expose raw attribute values
    }
    let constraints = update_constraints(u);
    let preserved = preserved_positions(q, alias);
    let position_of = |col: &str| preserved.iter().find(|(c, _)| *c == col).map(|(_, i)| *i);
    // S(U) ⊆ P(Q) restricted to this alias, else no refinement.
    let positions: Option<Vec<(usize, &_)>> = constraints
        .iter()
        .map(|c| position_of(&c.column).map(|i| (i, c)))
        .collect();
    let Some(positions) = positions else {
        return false;
    };
    // If some result row satisfies the deletion predicate, it may vanish.
    !result
        .rows
        .iter()
        .any(|row| positions.iter().all(|(i, c)| c.op.eval(&row[*i], &c.value)))
}

/// Insertion/top-k rule: the result holds `k` rows and the new row ranks
/// strictly after the k-th by the order-by keys (all of which must be
/// preserved columns of this alias).
fn insert_topk_ruled_out(
    q: &Query,
    alias: &str,
    result: &QueryResult,
    row: &[(&str, &Value)],
) -> bool {
    let row_value = |col: &str| row.iter().find(|(c, _)| *c == col).map(|(_, v)| *v);
    let tpl = &q.template;
    let Some(k) = tpl.limit else {
        return false;
    };
    if tpl.order_by.is_empty()
        || tpl.has_aggregates()
        || !tpl.group_by.is_empty()
        || (result.rows.len() as u64) < k
    {
        return false;
    }
    let Some(last) = result.rows.last() else {
        return false;
    };
    let preserved = preserved_positions(q, alias);
    // Only the primary sort key is compared: strictly worse there means
    // the row sorts after the k-th regardless of further keys. Ascending ⇒
    // larger is worse, descending ⇒ smaller is worse; ties stay
    // conservative.
    let key = &tpl.order_by[0];
    if key.column.qualifier != alias {
        return false;
    }
    let Some((_, pos)) = preserved
        .iter()
        .find(|(c, _)| *c == key.column.column.as_str())
    else {
        return false;
    };
    let Some(new_v) = row_value(&key.column.column) else {
        return false;
    };
    match new_v.cmp(&last[*pos]) {
        std::cmp::Ordering::Equal => false,
        std::cmp::Ordering::Less => key.desc,
        std::cmp::Ordering::Greater => !key.desc,
    }
}

/// Insertion/extremum rule: a sole `MIN(col)`/`MAX(col)` select item over
/// this alias, with the new value unable to beat the cached extremum.
fn insert_minmax_ruled_out(
    q: &Query,
    alias: &str,
    result: &QueryResult,
    row: &[(&str, &Value)],
) -> bool {
    let row_value = |col: &str| row.iter().find(|(c, _)| *c == col).map(|(_, v)| *v);
    let tpl = &q.template;
    if tpl.select.len() != 1 || !tpl.group_by.is_empty() {
        return false;
    }
    let SelectItem::Aggregate {
        func,
        arg: Some(col),
    } = &tpl.select[0]
    else {
        return false;
    };
    if col.qualifier != alias {
        return false;
    }
    let Some(new_v) = row_value(&col.column) else {
        return false;
    };
    let Some(cached) = result.rows.first().map(|r| &r[0]) else {
        return false;
    };
    match func {
        AggFunc::Max => new_v <= cached,
        AggFunc::Min => new_v >= cached,
        _ => false, // COUNT/SUM/AVG always change when a row qualifies
    }
}

/// Modification rule: locate the target row in the result by its preserved
/// primary-key equality values; refine both the "was in the result" and
/// "enters the result" directions.
fn modify_ruled_out(
    u: &Update,
    q: &Query,
    alias: &str,
    result: &QueryResult,
    set: &[(&str, &Value)],
) -> bool {
    if q.template.has_aggregates() || !q.template.group_by.is_empty() {
        return false;
    }
    // The update's WHERE must be pure equalities (the §2.1 model: equality
    // on the primary key), giving the row's identifying values.
    let constraints = update_constraints(u);
    if constraints.is_empty() || constraints.iter().any(|c| c.op != CmpOp::Eq) {
        return false;
    }
    let preserved = preserved_positions(q, alias);
    let id_positions: Option<Vec<(usize, &Value)>> = constraints
        .iter()
        .map(|c| {
            preserved
                .iter()
                .find(|(col, _)| *col == c.column.as_str())
                .map(|(_, i)| (*i, &c.value))
        })
        .collect();
    let Some(id_positions) = id_positions else {
        return false; // identifying attributes not preserved — no refinement
    };
    let present = result.rows.iter().any(|row| {
        id_positions
            .iter()
            .all(|(i, v)| CmpOp::Eq.eval(&row[*i], v))
    });
    if present {
        return false; // the row is in the result: its change is observable
    }
    // Absent: the result can only change if the row *enters* it. Ruled out
    // when a new SET value violates one of the query's restrictions on the
    // modified attributes (the paper's `qty > 100` example), or when no
    // modified attribute participates in selection at all (satisfaction
    // unchanged ⇒ still out).
    let restrictions = query_restrictions(q, alias);
    let violates = restrictions.iter().any(|c| {
        set.iter()
            .find(|(col, _)| *col == c.column.as_str())
            .is_some_and(|(_, v)| !c.op.eval(v, &c.value))
    });
    if violates {
        return true;
    }
    let selection_cols: Vec<&str> = restrictions
        .iter()
        .map(|c| c.column.as_str())
        .chain(q.template.predicates.iter().filter_map(|p| {
            p.as_join().and_then(|(l, _, r)| {
                if l.qualifier == alias {
                    Some(l.column.as_str())
                } else if r.qualifier == alias {
                    Some(r.column.as_str())
                } else {
                    None
                }
            })
        }))
        .collect();
    set.iter().all(|(col, _)| !selection_cols.contains(col)) && q.template.order_by.is_empty()
}

// ---- the probe, derived per call ------------------------------------------

/// The probe for update `u` against a bucket of template `tpl`. Both
/// rules need the updated table under exactly one alias and no
/// column–column predicate the per-attribute reasoning cannot see
/// through — the same preconditions under which `statement_may_affect`
/// reasons about one alias at all.
pub fn probe_for<'u>(u: &'u Update, tpl: &QueryTemplate) -> Probe<'u> {
    let table = u.template.table();
    let mut aliases = tpl.from.iter().filter(|t| t.table == table);
    let (Some(alias), None) = (aliases.next(), aliases.next()) else {
        return Probe::Bucket;
    };
    let alias = alias.alias.as_str();
    let intra = |p: &Predicate| {
        p.as_join()
            .is_some_and(|(l, _, r)| l.qualifier == r.qualifier)
    };
    if tpl.predicates.iter().any(intra) || u.template.predicates().iter().any(Predicate::is_join) {
        return Probe::Bucket;
    }
    // The update's `column op scalar` conjuncts — what
    // `statement::update_constraints` binds.
    let restrictions = || {
        let conjuncts = u.template.predicates().iter();
        conjuncts.filter_map(|p| p.as_restriction())
    };
    let where_eq = |col: &str| {
        restrictions()
            .find(|(c, op, _)| *op == CmpOp::Eq && c.column == col)
            .map(|(_, _, s)| u.resolve(s))
    };

    // Rule 1 — a column the update pins: listed by an INSERT (the last
    // listing wins, as in `statement_may_affect`'s row map), or equated
    // in a DELETE / UPDATE's WHERE and, for UPDATE, not SET (a SET column
    // drops out of the row-enters direction's constraints).
    let pinned = |col: &str| match &*u.template {
        UpdateTemplate::Insert(ins) => {
            let mut listed = ins.columns.iter().zip(&ins.values).rev();
            listed.find(|(c, _)| *c == col).map(|(_, s)| u.resolve(s))
        }
        UpdateTemplate::Delete(_) => where_eq(col),
        UpdateTemplate::Modify(m) if m.set.iter().any(|(c, _)| c == col) => None,
        UpdateTemplate::Modify(_) => where_eq(col),
    };
    for p in &tpl.predicates {
        let Some((c, CmpOp::Eq, Scalar::Param(param))) = p.as_restriction() else {
            continue;
        };
        if c.qualifier != alias {
            continue;
        }
        if let Some(value) = pinned(&c.column) {
            return Probe::Param {
                param: *param,
                value,
            };
        }
    }

    // Rule 2 — the result rows expose the update's key.
    if tpl.has_aggregates() || !tpl.group_by.is_empty() {
        return Probe::Bucket;
    }
    let preserved = |col: &str| {
        tpl.select.iter().position(
            |s| matches!(s, SelectItem::Column(c) if c.qualifier == alias && c.column == col),
        )
    };
    let refinable = match &*u.template {
        UpdateTemplate::Insert(_) => false,
        // `delete_ruled_out`: every WHERE column preserved.
        UpdateTemplate::Delete(_) => restrictions().all(|(c, _, _)| preserved(&c.column).is_some()),
        // `modify_ruled_out` spares an entry without the target row
        // unconditionally only when the row cannot enter either: an
        // all-`=` WHERE on preserved columns, no ORDER BY, and no SET
        // column among this alias's restriction or join columns.
        UpdateTemplate::Modify(m) => {
            let selects_on = |col: &str| {
                tpl.predicates.iter().any(|p| {
                    let restricted = p.as_restriction().map(|(c, _, _)| c);
                    let joined = p.as_join().and_then(|(l, _, r)| {
                        [l, r].into_iter().find(|side| side.qualifier == alias)
                    });
                    restricted
                        .filter(|c| c.qualifier == alias)
                        .or(joined)
                        .is_some_and(|c| c.column == col)
                })
            };
            tpl.order_by.is_empty()
                && restrictions()
                    .all(|(c, op, _)| op == CmpOp::Eq && preserved(&c.column).is_some())
                && !m.set.iter().any(|(c, _)| selects_on(c))
        }
    };
    if !refinable {
        return Probe::Bucket;
    }
    let key = restrictions()
        .find(|(_, op, _)| *op == CmpOp::Eq)
        .and_then(|(c, _, s)| Some((preserved(&c.column)?, u.resolve(s))));
    match key {
        Some((column, value)) => Probe::ResultKey { column, value },
        None => Probe::Bucket,
    }
}
