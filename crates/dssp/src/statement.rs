//! Statement-inspection invalidation (MSIS, §2.2): given the full update
//! and query *statements* (templates + parameters), conservatively decide
//! whether the update might change the query's result on some database.
//!
//! The test is sound: it returns `false` (do-not-invalidate) only when no
//! database state could make the update affect the query. It reasons per
//! alias of the updated relation over conjunctions of single-attribute
//! comparisons (the §2.1.1 model guarantees there are no intra-relation
//! column comparisons; if one appears anyway, the test degrades to
//! "invalidate").

use scs_sqlkit::{CmpOp, Query, Update, UpdateTemplate, Value};
use std::collections::HashMap;

/// A bound single-attribute constraint: `column op value`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub column: String,
    pub op: CmpOp,
    pub value: Value,
}

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

    /// Table 2, row 3 of the paper: with statements visible, the deletion
    /// `U1(5)` invalidates `Q2(toy_id)` only when `toy_id = 5`.
    #[test]
    fn table2_statement_row() {
        let del = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(5)]);
        let q2_5 = q("SELECT qty FROM toys WHERE toy_id = ?", vec![Value::Int(5)]);
        let q2_7 = q("SELECT qty FROM toys WHERE toy_id = ?", vec![Value::Int(7)]);
        assert!(statement_may_affect(&del, &q2_5));
        assert!(!statement_may_affect(&del, &q2_7));
        // Q1 selects on toy_name: parameters incomparable — invalidate.
        let q1 = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("bear")],
        );
        assert!(statement_may_affect(&del, &q1));
        // Q3 references other relations only.
        let q3 = q(
            "SELECT cust_name FROM customers WHERE cust_id = ?",
            vec![Value::Int(1)],
        );
        assert!(!statement_may_affect(&del, &q3));
    }

    #[test]
    fn delete_range_overlap() {
        let del = u("DELETE FROM toys WHERE qty < ?", vec![Value::Int(5)]);
        let low = q(
            "SELECT toy_id FROM toys WHERE qty <= ?",
            vec![Value::Int(3)],
        );
        let high = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(10)],
        );
        assert!(statement_may_affect(&del, &low));
        assert!(
            !statement_may_affect(&del, &high),
            "qty < 5 and qty > 10 are disjoint"
        );
        let touching = q(
            "SELECT toy_id FROM toys WHERE qty >= ?",
            vec![Value::Int(4)],
        );
        assert!(
            statement_may_affect(&del, &touching),
            "qty = 4 satisfies both"
        );
    }

    #[test]
    fn insert_checked_against_restrictions() {
        let ins = |qty: i64| {
            u(
                "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
                vec![Value::Int(9), Value::str("drone"), Value::Int(qty)],
            )
        };
        let big = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(100)],
        );
        assert!(!statement_may_affect(&ins(10), &big));
        assert!(statement_may_affect(&ins(200), &big));
        let name = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("drone")],
        );
        assert!(statement_may_affect(&ins(10), &name));
        let other = q(
            "SELECT toy_id FROM toys WHERE toy_name = ?",
            vec![Value::str("kite")],
        );
        assert!(!statement_may_affect(&ins(10), &other));
    }

    #[test]
    fn insert_join_conditions_conservative() {
        let ins = u(
            "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)",
            vec![Value::Int(3), Value::str("4111"), Value::Int(15213)],
        );
        let join_match = q(
            "SELECT customers.cust_name FROM customers, credit_card \
             WHERE customers.cust_id = credit_card.cid AND credit_card.zip_code = ?",
            vec![Value::Int(15213)],
        );
        assert!(statement_may_affect(&ins, &join_match));
        let join_other = q(
            "SELECT customers.cust_name FROM customers, credit_card \
             WHERE customers.cust_id = credit_card.cid AND credit_card.zip_code = ?",
            vec![Value::Int(90210)],
        );
        assert!(!statement_may_affect(&ins, &join_other));
    }

    #[test]
    fn modify_pk_match() {
        let m = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(0), Value::Int(5)],
        );
        let same = q("SELECT qty FROM toys WHERE toy_id = ?", vec![Value::Int(5)]);
        let other = q("SELECT qty FROM toys WHERE toy_id = ?", vec![Value::Int(6)]);
        assert!(statement_may_affect(&m, &same));
        assert!(!statement_may_affect(&m, &other));
    }

    #[test]
    fn modify_entering_direction() {
        // Row 5 had unknown qty; setting qty = 50 may make it enter
        // `qty > 10` even though direction 1 also holds; setting qty = 5
        // cannot make it enter, but it may have been in the result before.
        let enter = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(50), Value::Int(5)],
        );
        let big = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(10)],
        );
        assert!(statement_may_affect(&enter, &big));
        let leave = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(5), Value::Int(5)],
        );
        assert!(
            statement_may_affect(&leave, &big),
            "row may leave the result"
        );
    }

    #[test]
    fn modify_cannot_affect_when_excluded_both_ways() {
        // Query restricted to toy_id = 7; update touches toy_id = 5 only.
        let m = u(
            "UPDATE toys SET qty = ? WHERE toy_id = ?",
            vec![Value::Int(50), Value::Int(5)],
        );
        let other = q(
            "SELECT qty FROM toys WHERE toy_id = ? AND qty > ?",
            vec![Value::Int(7), Value::Int(10)],
        );
        assert!(!statement_may_affect(&m, &other));
    }

    #[test]
    fn self_join_uses_any_alias() {
        let del = u("DELETE FROM toys WHERE toy_id = ?", vec![Value::Int(5)]);
        let sj = q(
            "SELECT t1.toy_id FROM toys t1, toys t2 \
             WHERE t1.toy_id = ? AND t2.toy_id = ?",
            vec![Value::Int(1), Value::Int(2)],
        );
        assert!(!statement_may_affect(&del, &sj), "5 matches neither alias");
        let sj_hit = q(
            "SELECT t1.toy_id FROM toys t1, toys t2 \
             WHERE t1.toy_id = ? AND t2.toy_id = ?",
            vec![Value::Int(1), Value::Int(5)],
        );
        assert!(statement_may_affect(&del, &sj_hit), "5 matches alias t2");
    }

    #[test]
    fn satisfiability_basics() {
        let c = |col: &str, op: CmpOp, v: i64| Constraint {
            column: col.into(),
            op,
            value: Value::Int(v),
        };
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Gt, 3),
            c("x", CmpOp::Lt, 10)
        ]));
        assert!(!constraints_satisfiable(&[
            c("x", CmpOp::Gt, 10),
            c("x", CmpOp::Lt, 3)
        ]));
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Ge, 5),
            c("x", CmpOp::Le, 5)
        ]));
        assert!(!constraints_satisfiable(&[
            c("x", CmpOp::Gt, 5),
            c("x", CmpOp::Le, 5)
        ]));
        assert!(!constraints_satisfiable(&[
            c("x", CmpOp::Eq, 1),
            c("x", CmpOp::Eq, 2)
        ]));
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Eq, 7),
            c("x", CmpOp::Gt, 3)
        ]));
        assert!(!constraints_satisfiable(&[
            c("x", CmpOp::Eq, 2),
            c("x", CmpOp::Gt, 3)
        ]));
        // Different columns are independent.
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Gt, 10),
            c("y", CmpOp::Lt, 3)
        ]));
        // Integer gap: conservatively satisfiable.
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Gt, 3),
            c("x", CmpOp::Lt, 4)
        ]));
        // Two equalities agree numerically across `Int`/`Real`.
        let real = Constraint {
            column: "x".into(),
            op: CmpOp::Eq,
            value: Value::real(35.0),
        };
        assert!(constraints_satisfiable(&[
            c("x", CmpOp::Eq, 35),
            real.clone()
        ]));
        assert!(!constraints_satisfiable(&[c("x", CmpOp::Eq, 36), real]));
    }
}
