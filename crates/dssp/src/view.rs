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
//!
//! Like the statement tier, the rules read the templates, the bound
//! parameters and the result in place and allocate nothing per pair; a
//! column's select position is found by name once per pair, not per row.
//! A result row narrower than the template's select list (a `QueryResult`
//! handed to `ResultCache::store` or `import` by a caller) lacks the cell
//! a rule would read: a missing cell never rules anything out.

use crate::statement::{query_conjuncts, statement_may_affect, update_conjuncts, Conjunct};
use scs_sqlkit::{
    AggFunc, CmpOp, ColumnRef, ModifyTemplate, Query, QueryTemplate, SelectItem, Update,
    UpdateTemplate, Value,
};
use scs_storage::QueryResult;

/// Decides whether `u` might affect the cached `result` of `q`
/// (`true` = must invalidate).
pub fn view_may_affect(u: &Update, q: &Query, result: &QueryResult) -> bool {
    if !statement_may_affect(u, q) {
        return false;
    }
    let table = u.template.table();
    let mut aliases = q.template.from.iter().filter(|t| t.table == table);
    let (Some(alias), None) = (aliases.next(), aliases.next()) else {
        return true; // zero is unreachable (statement said "affect")
    };
    let alias = alias.alias.as_str();

    match &*u.template {
        UpdateTemplate::Delete(_) => !delete_ruled_out(u, q, alias, result),
        UpdateTemplate::Insert(ins) => {
            // A column listed twice takes its first listing here.
            let row_value = |col: &str| {
                let mut row = ins.columns.iter().zip(&ins.values);
                row.find(|(c, _)| *c == col).map(|(_, s)| u.resolve(s))
            };
            !(insert_topk_ruled_out(q, alias, result, row_value)
                || insert_minmax_ruled_out(q, alias, result, row_value))
        }
        UpdateTemplate::Modify(m) => !modify_ruled_out(u, q, alias, result, m),
    }
}

/// The result position of the first plain select item `alias.col`.
/// Aggregate items never count.
pub(crate) fn preserved_position(tpl: &QueryTemplate, alias: &str, col: &str) -> Option<usize> {
    tpl.select
        .iter()
        .position(|s| matches!(s, SelectItem::Column(c) if c.qualifier == alias && c.column == col))
}

/// Whether the template selects on `alias.col`: restricts it, or joins on
/// it — a join's side of `alias` being its left column when both are.
pub(crate) fn selects_on(tpl: &QueryTemplate, alias: &str, col: &str) -> bool {
    tpl.predicates.iter().any(|p| {
        let restricted = p.as_restriction().map(|(c, _, _)| c);
        let joined = p.as_join().and_then(|(l, _, r)| {
            [l, r]
                .into_iter()
                .find(|side: &&ColumnRef| side.qualifier == alias)
        });
        restricted
            .filter(|c| c.qualifier == alias)
            .or(joined)
            .is_some_and(|c| c.column == col)
    })
}

/// Up to this many of an update's WHERE columns have their select
/// positions looked up once per pair; the §2.1 model's keys have one or
/// two, and any past these are looked up where used.
const KEY_COLUMNS: usize = 4;

/// Whether some row of `rows` agrees with every conjunct at its column's
/// select position `at(column)`. A position `at` does not know, or a cell
/// a short row lacks, agrees: it cannot rule the row out.
fn some_row_agrees<'a>(
    rows: &[Vec<Value>],
    conjuncts: impl Iterator<Item = Conjunct<'a>> + Clone,
    at: impl Fn(&str) -> Option<usize>,
) -> bool {
    let mut first = [None; KEY_COLUMNS];
    for (slot, c) in first.iter_mut().zip(conjuncts.clone()) {
        *slot = at(c.column);
    }
    rows.iter().any(|row| {
        conjuncts.clone().enumerate().all(|(j, c)| {
            let position = first.get(j).copied().unwrap_or_else(|| at(c.column));
            let cell = position.and_then(|i| row.get(i));
            cell.is_none_or(|v| c.op.eval(v, c.value))
        })
    })
}

/// Deletion rule: requires every deletion-predicate attribute to be
/// preserved; checks whether any result row satisfies the deletion
/// predicate.
fn delete_ruled_out(u: &Update, q: &Query, alias: &str, result: &QueryResult) -> bool {
    let tpl = &q.template;
    if tpl.has_aggregates() || !tpl.group_by.is_empty() {
        return false; // aggregated rows do not expose raw attribute values
    }
    let position = |col: &str| preserved_position(tpl, alias, col);
    // S(U) ⊆ P(Q) restricted to this alias, else no refinement.
    if !update_conjuncts(u).all(|c| position(c.column).is_some()) {
        return false;
    }
    // If some result row satisfies the deletion predicate, it may vanish.
    !some_row_agrees(&result.rows, update_conjuncts(u), position)
}

/// Insertion/top-k rule: the result holds `k` rows and the new row ranks
/// strictly after the k-th by the order-by keys (all of which must be
/// preserved columns of this alias).
fn insert_topk_ruled_out<'u>(
    q: &Query,
    alias: &str,
    result: &QueryResult,
    row_value: impl Fn(&str) -> Option<&'u Value>,
) -> bool {
    let tpl = &q.template;
    let Some(k) = tpl.limit else {
        return false;
    };
    if tpl.has_aggregates() || !tpl.group_by.is_empty() || (result.rows.len() as u64) < k {
        return false;
    }
    let (Some(key), Some(last)) = (tpl.order_by.first(), result.rows.last()) else {
        return false;
    };
    // Only the primary sort key is compared: strictly worse there means
    // the row sorts after the k-th regardless of further keys. Ascending ⇒
    // larger is worse, descending ⇒ smaller is worse; ties stay
    // conservative.
    if key.column.qualifier != alias {
        return false;
    }
    let column = key.column.column.as_str();
    let kth = preserved_position(tpl, alias, column).and_then(|i| last.get(i));
    let (Some(kth), Some(new_v)) = (kth, row_value(column)) else {
        return false;
    };
    match new_v.cmp(kth) {
        std::cmp::Ordering::Equal => false,
        std::cmp::Ordering::Less => key.desc,
        std::cmp::Ordering::Greater => !key.desc,
    }
}

/// Insertion/extremum rule: a sole `MIN(col)`/`MAX(col)` select item over
/// this alias, with the new value unable to beat the cached extremum.
fn insert_minmax_ruled_out<'u>(
    q: &Query,
    alias: &str,
    result: &QueryResult,
    row_value: impl Fn(&str) -> Option<&'u Value>,
) -> bool {
    let tpl = &q.template;
    if tpl.select.len() != 1 || !tpl.group_by.is_empty() {
        return false;
    }
    let Some(SelectItem::Aggregate {
        func,
        arg: Some(col),
    }) = tpl.select.first()
    else {
        return false;
    };
    if col.qualifier != alias {
        return false;
    }
    let Some(new_v) = row_value(&col.column) else {
        return false;
    };
    let Some(cached) = result.rows.first().and_then(|r| r.first()) else {
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
    m: &ModifyTemplate,
) -> bool {
    let tpl = &q.template;
    if tpl.has_aggregates() || !tpl.group_by.is_empty() {
        return false;
    }
    // The update's WHERE must be pure equalities (the §2.1 model: equality
    // on the primary key) on preserved columns, giving the row's
    // identifying values; else no refinement.
    let position = |col: &str| preserved_position(tpl, alias, col);
    let mut key = update_conjuncts(u);
    let identifies = key.clone().next().is_some()
        && key.all(|c| c.op == CmpOp::Eq && position(c.column).is_some());
    if !identifies || some_row_agrees(&result.rows, update_conjuncts(u), position) {
        return false; // no refinement, or the row is in the result
    }
    // Absent: the result can only change if the row *enters* it. Ruled out
    // when a new SET value violates one of the query's restrictions on the
    // modified attributes (the paper's `qty > 100` example), or when no
    // modified attribute participates in selection at all (satisfaction
    // unchanged ⇒ still out).
    let set_value = |col: &str| {
        m.set
            .iter()
            .find(|(c, _)| c == col)
            .map(|(_, s)| u.resolve(s))
    };
    let violates = query_conjuncts(q, alias)
        .any(|c| set_value(c.column).is_some_and(|v| !c.op.eval(v, c.value)));
    if violates {
        return true;
    }
    tpl.order_by.is_empty() && !m.set.iter().any(|(col, _)| selects_on(tpl, alias, col))
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

    /// The view rules read an INSERT that lists a column twice by its
    /// first listing (the statement tier, by its last).
    #[test]
    fn insert_listing_a_column_twice_is_read_by_its_first_listing() {
        let query = q("SELECT MAX(qty) FROM toys", vec![]);
        let cached = res(&["MAX(toys.qty)"], vec![vec![Value::Int(15)]]);
        let ins = |first: i64, last: i64| {
            u(
                "INSERT INTO toys (toy_id, qty, qty) VALUES (?, ?, ?)",
                vec![Value::Int(9), Value::Int(first), Value::Int(last)],
            )
        };
        assert!(!view_may_affect(&ins(10, 20), &query, &cached));
        assert!(view_may_affect(&ins(20, 10), &query, &cached));
    }

    /// A result whose rows are narrower than the select list (one handed
    /// to the cache from outside) lacks the cell each rule reads: every
    /// rule then keeps its hands off, and the pair is invalidated.
    #[test]
    fn a_cell_short_rows_lack_rules_nothing_out() {
        let empty_row = |cols: &[&str]| res(cols, vec![vec![]]);
        let del = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(4)]);
        let names = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("bear")],
        );
        assert!(view_may_affect(&del, &names, &empty_row(&["toys.toy_id"])));
        let absent_row = u(
            "UPDATE toys SET toy_name = ? WHERE toy_id = ?",
            vec![Value::str("renamed"), Value::Int(5)],
        );
        let big = q(
            "SELECT qty, toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(100)],
        );
        let qty_only = res(&["toys.qty", "toys.toy_id"], vec![vec![Value::Int(500)]]);
        assert!(view_may_affect(&absent_row, &big, &qty_only));
        let weak = u(
            "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::str("x"), Value::Int(1)],
        );
        let top = q(
            "SELECT toy_id, qty FROM toys ORDER BY qty DESC LIMIT 1",
            vec![],
        );
        let id_only = res(&["toys.toy_id", "toys.qty"], vec![vec![Value::Int(1)]]);
        assert!(view_may_affect(&weak, &top, &id_only));
        let max = q("SELECT MAX(qty) FROM toys", vec![]);
        assert!(view_may_affect(&weak, &max, &empty_row(&["MAX(toys.qty)"])));
    }
}
