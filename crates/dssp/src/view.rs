//! View-inspection invalidation (MVIS, §2.2): in addition to the update and
//! query statements, the strategy may inspect the cached query *result*.
//!
//! The implementation starts from the statement-level decision and refines
//! it with sound result-based rules mirroring the cases where the paper
//! shows `C < B` (§4.4):
//!
//! * **deletions** whose selection attributes are all preserved in the
//!   result: if no result row satisfies the deletion predicate, the deleted
//!   rows contributed nothing — do not invalidate;
//! * **insertions** into top-k queries: if the result already holds `k`
//!   rows and the new row ranks strictly after the k-th, the top-k is
//!   unchanged (the paper's `qty > t2.qty` example generalized);
//! * **insertions** into `MIN`/`MAX` aggregates: if the new value cannot
//!   beat the cached extremum, the result is unchanged (the paper's
//!   `SELECT MAX(qty)` example);
//! * **modifications** whose target row is provably absent from the result
//!   (its preserved primary key does not occur) and provably unable to
//!   enter it (a new SET value violates a restriction, or no modified
//!   attribute participates in selection).
//!
//! All refinements apply only when the updated relation occurs under
//! exactly one alias — with several aliases a row can contribute through
//! any of them, and attributing result columns to aliases is ambiguous.

use crate::statement::{statement_may_affect, update_constraints};
use scs_sqlkit::{AggFunc, CmpOp, Query, SelectItem, Update, UpdateTemplate, Value};
use scs_storage::QueryResult;

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
    let restrictions = crate::statement::query_restrictions(q, alias);
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

#[cfg(test)]
mod tests {
    use super::*;
    use scs_sqlkit::{parse_query, parse_update};
    use std::sync::Arc;

    fn q(sql: &str, params: Vec<Value>) -> Query {
        Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap()
    }

    fn u(sql: &str, params: Vec<Value>) -> Update {
        Update::bind(0, Arc::new(parse_update(sql).unwrap()), params).unwrap()
    }

    fn res(cols: &[&str], rows: Vec<Vec<Value>>) -> QueryResult {
        QueryResult::new(cols.iter().map(|c| c.to_string()).collect(), rows)
    }

    /// The paper's §4.4 MAX example: cached MAX(qty) = 15; inserting
    /// qty = 10 cannot change it, inserting qty = 20 can.
    #[test]
    fn max_example() {
        let query = q("SELECT MAX(qty) FROM toys", vec![]);
        let cached = res(&["MAX(toys.qty)"], vec![vec![Value::Int(15)]]);
        let low = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(15), Value::str("toyB"), Value::Int(10)],
        );
        assert!(!view_may_affect(&low, &query, &cached));
        let high = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(16), Value::str("toyC"), Value::Int(20)],
        );
        assert!(view_may_affect(&high, &query, &cached));
    }

    #[test]
    fn min_example() {
        let query = q("SELECT MIN(qty) FROM toys", vec![]);
        let cached = res(&["MIN(toys.qty)"], vec![vec![Value::Int(3)]]);
        let above = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(5)],
        );
        assert!(!view_may_affect(&above, &query, &cached));
        let below = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(1)],
        );
        assert!(view_may_affect(&below, &query, &cached));
    }

    /// Top-k: inserting a row ranking after the k-th leaves the top-k
    /// unchanged.
    #[test]
    fn topk_example() {
        let query = q(
            "SELECT toy_id, qty FROM toys ORDER BY qty DESC LIMIT 2",
            vec![],
        );
        let cached = res(
            &["toys.toy_id", "toys.qty"],
            vec![
                vec![Value::Int(1), Value::Int(50)],
                vec![Value::Int(2), Value::Int(30)],
            ],
        );
        let weak = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(10)],
        );
        assert!(!view_may_affect(&weak, &query, &cached));
        let strong = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(40)],
        );
        assert!(view_may_affect(&strong, &query, &cached));
        // A tie with the k-th row is conservative.
        let tie = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(30)],
        );
        assert!(view_may_affect(&tie, &query, &cached));
    }

    /// Under-full top-k results always admit a qualifying row.
    #[test]
    fn topk_underfull_invalidates() {
        let query = q(
            "SELECT toy_id, qty FROM toys ORDER BY qty DESC LIMIT 5",
            vec![],
        );
        let cached = res(
            &["toys.toy_id", "toys.qty"],
            vec![vec![Value::Int(1), Value::Int(50)]],
        );
        let weak = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(1)],
        );
        assert!(view_may_affect(&weak, &query, &cached));
    }

    /// Deletion with preserved selection attributes: no matching result
    /// row ⇒ do not invalidate.
    #[test]
    fn delete_checks_result_rows() {
        let query = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("bear")],
        );
        let cached = res(
            &["toys.toy_id"],
            vec![vec![Value::Int(1)], vec![Value::Int(4)]],
        );
        let hit = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(4)]);
        assert!(view_may_affect(&hit, &query, &cached));
        let miss = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(9)]);
        assert!(!view_may_affect(&miss, &query, &cached));
    }

    /// Deletion selecting on a non-preserved attribute cannot be refined.
    #[test]
    fn delete_unpreserved_attr_conservative() {
        let query = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("bear")],
        );
        let cached = res(&["toys.toy_id"], vec![vec![Value::Int(1)]]);
        let del = u("DELETE FROM toys WHERE qty < ?", vec![Value::Int(5)]);
        assert!(view_may_affect(&del, &query, &cached));
    }

    /// The paper's §4.4 modification example: row 5 absent from the cached
    /// result of `qty > 100`, and the new qty = 10 violates the
    /// restriction ⇒ do not invalidate.
    #[test]
    fn modify_example() {
        let query = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(100)],
        );
        let cached = res(
            &["toys.toy_id"],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let m = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(10), Value::Int(5)],
        );
        assert!(!view_may_affect(&m, &query, &cached));
        // New value satisfying the restriction: the row may enter.
        let enter = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(200), Value::Int(5)],
        );
        assert!(view_may_affect(&enter, &query, &cached));
        // Row present in the result: always invalidate.
        let present = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(10), Value::Int(1)],
        );
        assert!(view_may_affect(&present, &query, &cached));
    }

    /// Modification of an attribute not used in selection, target absent
    /// from the result: still out.
    #[test]
    fn modify_nonselection_attr_absent_row() {
        let query = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(100)],
        );
        let cached = res(&["toys.toy_id"], vec![vec![Value::Int(1)]]);
        let m = u(
            "UPDATE toys SET toy_name = ? WHERE toy_id = ?",
            vec![Value::str("renamed"), Value::Int(5)],
        );
        assert!(!view_may_affect(&m, &query, &cached));
    }

    /// Statement-level DNI propagates.
    #[test]
    fn statement_dni_wins() {
        let query = q("SELECT qty FROM toys WHERE toy_id = ?", vec![Value::Int(7)]);
        let cached = res(&["toys.qty"], vec![vec![Value::Int(1)]]);
        let del = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(5)]);
        assert!(!view_may_affect(&del, &query, &cached));
    }

    /// Self-joins disable refinements (conservative).
    #[test]
    fn self_join_conservative() {
        let query = q(
            "SELECT t1.toy_id FROM toys t1, toys t2 \
             WHERE t1.toy_name = ? AND t2.toy_name = ? AND t1.qty > t2.qty",
            vec![Value::str("toyA"), Value::str("toyB")],
        );
        let cached = res(&["t1.toy_id"], vec![vec![Value::Int(10)]]);
        let ins = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(15), Value::str("toyB"), Value::Int(10)],
        );
        assert!(view_may_affect(&ins, &query, &cached));
    }

    /// The target row is found in the result by numeric equality, like
    /// every other comparison here: `id = 1.0` names the row `id = 1`.
    #[test]
    fn modify_finds_the_row_across_int_and_real() {
        let query = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(100)],
        );
        let cached = res(&["toys.toy_id"], vec![vec![Value::Int(1)]]);
        let m = u(
            "UPDATE toys SET toy_name = ? WHERE toy_id = ?",
            vec![Value::str("renamed"), Value::real(1.0)],
        );
        assert!(view_may_affect(&m, &query, &cached));
    }
}
