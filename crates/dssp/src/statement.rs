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
//!
//! Nothing is allocated per pair (DESIGN §5): a conjunct is a
//! `(column, op, &value)` read straight off a template's predicate and the
//! statement's bound parameters, a conjunction is an iterator over the two
//! templates' conjuncts, and its satisfiability is tested column by column
//! by scanning it — no owned constraint, no map.

use scs_sqlkit::{CmpOp, Query, Update, UpdateTemplate, Value};

/// A bound single-attribute constraint: `column op value` — the owned
/// form [`constraints_satisfiable`] takes.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub column: String,
    pub op: CmpOp,
    pub value: Value,
}

/// A bound single-attribute conjunct `column op value`, borrowed from a
/// template's predicate and its statement's parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Conjunct<'a> {
    pub column: &'a str,
    pub op: CmpOp,
    pub value: &'a Value,
}

/// The update's `column op value` conjuncts (its WHERE, read in order).
pub(crate) fn update_conjuncts(u: &Update) -> impl Iterator<Item = Conjunct<'_>> + Clone {
    let restrictions = u
        .template
        .predicates()
        .iter()
        .filter_map(|p| p.as_restriction());
    restrictions.map(|(c, op, s)| Conjunct {
        column: &c.column,
        op,
        value: u.resolve(s),
    })
}

/// The query's `column op value` restrictions on one alias.
pub(crate) fn query_conjuncts<'a>(
    q: &'a Query,
    alias: &'a str,
) -> impl Iterator<Item = Conjunct<'a>> + Clone {
    let restrictions = q
        .template
        .predicates
        .iter()
        .filter_map(|p| p.as_restriction());
    restrictions
        .filter(move |(c, _, _)| c.qualifier == alias)
        .map(|(c, op, s)| Conjunct {
            column: &c.column,
            op,
            value: q.resolve(s),
        })
}

/// Decides whether `u` might affect `q` (`true` = must invalidate).
pub fn statement_may_affect(u: &Update, q: &Query) -> bool {
    let table = u.template.table();
    let mut aliases = q.template.from.iter().filter(|t| t.table == table);
    let Some(first) = aliases.next() else {
        // The updated relation does not occur in the query. (Template-level
        // ignorability normally catches this earlier.)
        return false;
    };
    // A column-column predicate inside one relation defeats the
    // per-attribute reasoning; stay conservative.
    let has_intra = q.template.predicates.iter().any(|p| {
        p.as_join()
            .is_some_and(|(l, _, r)| l.qualifier == r.qualifier)
    }) || u.template.predicates().iter().any(|p| p.is_join());
    if has_intra {
        return true;
    }

    std::iter::once(first)
        .chain(aliases)
        .any(|t| alias_may_affect(u, q, &t.alias))
}

fn alias_may_affect(u: &Update, q: &Query, alias: &str) -> bool {
    let mut restrictions = query_conjuncts(q, alias);
    match &*u.template {
        UpdateTemplate::Insert(ins) => {
            // The fresh row affects the query only if it satisfies the
            // query's local restrictions on this alias (join conditions
            // with other relations cannot be ruled out statically). A
            // column listed twice takes its last listing.
            let listed = |col: &str| {
                let mut row = ins.columns.iter().zip(&ins.values).rev();
                row.find(|(c, _)| *c == col).map(|(_, s)| u.resolve(s))
            };
            restrictions.all(|c| match listed(c.column) {
                Some(v) => c.op.eval(v, c.value),
                None => true, // partially specified — cannot rule out
            })
        }
        UpdateTemplate::Delete(_) => {
            // A deleted row matters only if some row can satisfy both the
            // deletion predicate and the query's restrictions.
            satisfiable(update_conjuncts(u).chain(restrictions))
        }
        UpdateTemplate::Modify(m) => {
            // Direction 1 — the row *was* in the query's input: its old
            // values satisfy both the update predicate and the query's
            // restrictions.
            let joint = update_conjuncts(u).chain(restrictions.clone());
            if satisfiable(joint.clone()) {
                return true;
            }

            // Direction 2 — the row *enters* after the update: unmodified
            // attributes still obey the update predicate + restrictions;
            // modified attributes take their known new values.
            let modified = |col: &str| m.set.iter().any(|(c, _)| c == col);
            let unmodified_ok = satisfiable(joint.filter(|c| !modified(c.column)));
            let new_values_ok =
                restrictions.all(|c| match m.set.iter().find(|(col, _)| col == c.column) {
                    Some((_, s)) => c.op.eval(u.resolve(s), c.value),
                    None => true,
                });
            unmodified_ok && new_values_ok
        }
    }
}

/// Conservative satisfiability of a conjunction of single-attribute
/// comparisons: attributes are independent (no intra-relation column
/// comparisons), so the conjunction is satisfiable iff each attribute's
/// constraint set is. Integer-domain gaps (e.g. `x > 3 ∧ x < 4`) are *not*
/// detected — reported satisfiable, which errs toward invalidation.
pub fn constraints_satisfiable(cs: &[Constraint]) -> bool {
    satisfiable(cs.iter().map(|c| Conjunct {
        column: &c.column,
        op: c.op,
        value: &c.value,
    }))
}

/// [`constraints_satisfiable`] over borrowed conjuncts: each conjunct's
/// column is tested against all of that column's conjuncts, in order, by
/// a scan of the (short) conjunction.
fn satisfiable<'a>(conjuncts: impl Iterator<Item = Conjunct<'a>> + Clone) -> bool {
    conjuncts.clone().all(|c| {
        let column = conjuncts.clone().filter(|d| d.column == c.column);
        column_satisfiable(column)
    })
}

fn column_satisfiable<'a>(cs: impl Iterator<Item = Conjunct<'a>>) -> bool {
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
                if eq.is_some_and(|prev| prev.cmp(c.value).is_ne()) {
                    return false;
                }
                eq = Some(c.value);
            }
            CmpOp::Gt | CmpOp::Ge => {
                let strict = c.op == CmpOp::Gt;
                lower = Some(match lower {
                    None => (c.value, strict),
                    Some((v, s)) => match c.value.cmp(v) {
                        std::cmp::Ordering::Greater => (c.value, strict),
                        std::cmp::Ordering::Equal => (v, s || strict),
                        std::cmp::Ordering::Less => (v, s),
                    },
                });
            }
            CmpOp::Lt | CmpOp::Le => {
                let strict = c.op == CmpOp::Lt;
                upper = Some(match upper {
                    None => (c.value, strict),
                    Some((v, s)) => match c.value.cmp(v) {
                        std::cmp::Ordering::Less => (c.value, strict),
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

    /// A row that was outside `qty > 10` (its old `qty < 5`) enters it
    /// when its own WHERE column is SET to 50: direction 2 drops the
    /// modified column's old constraints, or it would miss the entry.
    #[test]
    fn modify_enters_through_its_own_where_column() {
        let big = q(
            "SELECT toy_id FROM toys WHERE qty > ?",
            vec![Value::Int(10)],
        );
        let set = |v: i64| {
            u(
                "UPDATE toys SET qty = ? WHERE qty < ?",
                vec![Value::Int(v), Value::Int(5)],
            )
        };
        assert!(statement_may_affect(&set(50), &big));
        assert!(!statement_may_affect(&set(7), &big), "stays out");
    }

    /// The statement tier reads an INSERT that lists a column twice by its
    /// last listing.
    #[test]
    fn insert_listing_a_column_twice_is_read_by_its_last_listing() {
        let ins = u(
            "INSERT INTO toys (toy_id, qty, qty) VALUES (?, ?, ?)",
            vec![Value::Int(9), Value::Int(10), Value::Int(20)],
        );
        let restricted = |min: i64| {
            q(
                "SELECT toy_id FROM toys WHERE qty > ?",
                vec![Value::Int(min)],
            )
        };
        assert!(statement_may_affect(&ins, &restricted(15)));
        assert!(!statement_may_affect(&ins, &restricted(25)));
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
