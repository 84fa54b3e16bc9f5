//! The scalability-conscious security design methodology (§3).
//!
//! 1. **Step 1** — compulsory encryption: sensitive attributes (e.g. credit
//!    card data under California SB 1386) bound the maximum exposure of the
//!    templates that touch them ([`compulsory_exposures`]).
//! 2. **Step 2** — static analysis: characterize the IPM ([`crate::ipm`])
//!    and greedily reduce exposure levels wherever doing so provably leaves
//!    every pair's invalidation probability unchanged ([`reduce_exposures`]).
//! 3. **Step 3** — only the residual templates, where further reduction
//!    *would* change a probability, need a manual security-vs-scalability
//!    decision ([`residual_options`]).

use crate::attrs::{Attr, AttrSet, QueryAttrs, UpdateAttrs};
use crate::catalog::Catalog;
use crate::exposure::{cell_class, ExposureLevel};
use crate::ipm::IpmMatrix;
use scs_sqlkit::{Operand, QueryTemplate, Scalar, UpdateTemplate};

/// A per-template exposure assignment for an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exposures {
    pub updates: Vec<ExposureLevel>,
    pub queries: Vec<ExposureLevel>,
}

impl Exposures {
    /// Maximum exposure everywhere: `stmt` for updates, `view` for queries
    /// (the §3.1 starting point).
    pub fn maximum(update_count: usize, query_count: usize) -> Exposures {
        Exposures {
            updates: vec![ExposureLevel::Stmt; update_count],
            queries: vec![ExposureLevel::View; query_count],
        }
    }

    /// Component-wise minimum (combining constraints).
    pub fn meet(&self, other: &Exposures) -> Exposures {
        Exposures {
            updates: self
                .updates
                .iter()
                .zip(&other.updates)
                .map(|(a, b)| *a.min(b))
                .collect(),
            queries: self
                .queries
                .iter()
                .zip(&other.queries)
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }

    /// Number of query templates whose results are encrypted (exposure
    /// below `view`) — the simple security metric of Figure 3.
    pub fn encrypted_query_results(&self) -> usize {
        self.queries
            .iter()
            .filter(|e| **e < ExposureLevel::View)
            .count()
    }
}

/// Step 1: the compulsory-encryption policy — a set of highly sensitive
/// attributes that must never transit the DSSP in the clear.
#[derive(Debug, Clone, Default)]
pub struct SensitivityPolicy {
    pub sensitive: AttrSet,
}

impl SensitivityPolicy {
    pub fn new(attrs: impl IntoIterator<Item = Attr>) -> SensitivityPolicy {
        SensitivityPolicy {
            sensitive: attrs.into_iter().collect(),
        }
    }

    fn is_sensitive(&self, a: &Attr) -> bool {
        self.sensitive.contains(a)
    }
}

/// Computes each template's *maximum allowed* exposure under a sensitivity
/// policy:
///
/// * a query whose **result** would carry a sensitive attribute
///   (`P(Q^T)` ∩ sensitive ≠ ∅) must hide results: exposure ≤ `stmt`;
/// * a query whose **parameters** bind against a sensitive attribute must
///   hide parameters too: exposure ≤ `template`;
/// * an update that writes or selects on a sensitive attribute via
///   parameters/values must hide them: exposure ≤ `template` (the paper's
///   toystore example sets `E(U2) = template` for the credit-card insert).
pub fn compulsory_exposures(
    updates: &[impl AsRef<UpdateTemplate>],
    queries: &[impl AsRef<QueryTemplate>],
    catalog: &Catalog,
    policy: &SensitivityPolicy,
) -> Exposures {
    let mut exp = Exposures::maximum(updates.len(), queries.len());
    for (i, u) in updates.iter().enumerate() {
        let u = u.as_ref();
        if update_touches_sensitive(u, catalog, policy) {
            exp.updates[i] = ExposureLevel::Template;
        }
    }
    for (j, q) in queries.iter().enumerate() {
        let q = q.as_ref();
        let qa = QueryAttrs::of(q);
        if qa.preserved.iter().any(|a| policy.is_sensitive(a)) {
            exp.queries[j] = exp.queries[j].min(ExposureLevel::Stmt);
        }
        if query_params_touch_sensitive(q, policy) {
            exp.queries[j] = exp.queries[j].min(ExposureLevel::Template);
        }
    }
    exp
}

fn update_touches_sensitive(
    u: &UpdateTemplate,
    catalog: &Catalog,
    policy: &SensitivityPolicy,
) -> bool {
    let ua = UpdateAttrs::of(u, catalog);
    // Values written into sensitive columns.
    let writes_sensitive = match u {
        UpdateTemplate::Insert(i) => i
            .columns
            .iter()
            .any(|c| policy.is_sensitive(&Attr::new(i.table.clone(), c.clone()))),
        UpdateTemplate::Modify(m) => m
            .set
            .iter()
            .any(|(c, _)| policy.is_sensitive(&Attr::new(m.table.clone(), c.clone()))),
        UpdateTemplate::Delete(_) => false,
    };
    writes_sensitive || ua.selection.iter().any(|a| policy.is_sensitive(a))
}

fn query_params_touch_sensitive(q: &QueryTemplate, policy: &SensitivityPolicy) -> bool {
    q.predicates.iter().any(|p| {
        let has_param = [&p.lhs, &p.rhs]
            .into_iter()
            .any(|o| matches!(o, Operand::Scalar(Scalar::Param(_))));
        if !has_param {
            return false;
        }
        [&p.lhs, &p.rhs].into_iter().any(|o| {
            o.as_column().is_some_and(|c| {
                let table = q.table_of_alias(&c.qualifier).unwrap_or(&c.qualifier);
                policy.is_sensitive(&Attr::new(table, c.column.clone()))
            })
        })
    })
}

/// Step 2b: the greedy exposure-reduction algorithm (§3.1). Repeatedly
/// lowers any template's exposure by one level whenever doing so leaves the
/// canonical invalidation-probability class of **every** pair unchanged;
/// terminates at a fixpoint. The outcome is independent of iteration order
/// (verified by property test).
pub fn reduce_exposures(matrix: &IpmMatrix, initial: &Exposures) -> Exposures {
    let mut cur = initial.clone();
    let (nu, nq) = (matrix.update_count(), matrix.query_count());
    assert_eq!(cur.updates.len(), nu, "exposure/matrix shape mismatch");
    assert_eq!(cur.queries.len(), nq, "exposure/matrix shape mismatch");

    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..nu {
            while let Some(lower) = cur.updates[i].lower() {
                let safe = (0..nq).all(|j| {
                    let e = matrix.entry(i, j);
                    cell_class(e, lower, cur.queries[j])
                        == cell_class(e, cur.updates[i], cur.queries[j])
                });
                if safe {
                    cur.updates[i] = lower;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        for j in 0..nq {
            while let Some(lower) = cur.queries[j].lower() {
                let safe = (0..nu).all(|i| {
                    let e = matrix.entry(i, j);
                    cell_class(e, cur.updates[i], lower)
                        == cell_class(e, cur.updates[i], cur.queries[j])
                });
                if safe {
                    cur.queries[j] = lower;
                    changed = true;
                } else {
                    break;
                }
            }
        }
    }
    cur
}

/// A residual Step-3 option: one further single-step reduction that *would*
/// change some pair's invalidation probability, listed with the number of
/// pairs it would affect. These are exactly the decisions left to the
/// administrator's security-vs-scalability judgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualOption {
    /// `true` for an update template, `false` for a query template.
    pub is_update: bool,
    /// Template index in its set.
    pub index: usize,
    pub from: ExposureLevel,
    pub to: ExposureLevel,
    /// Number of pairs whose invalidation probability would change.
    pub affected_pairs: usize,
}

/// Enumerates the remaining exposure reductions after Step 2b and their
/// scalability footprint.
pub fn residual_options(matrix: &IpmMatrix, exposures: &Exposures) -> Vec<ResidualOption> {
    let mut out = Vec::new();
    for (i, e_u) in exposures.updates.iter().enumerate() {
        if let Some(lower) = e_u.lower() {
            let affected = (0..matrix.query_count())
                .filter(|j| {
                    let e = matrix.entry(i, *j);
                    cell_class(e, lower, exposures.queries[*j])
                        != cell_class(e, *e_u, exposures.queries[*j])
                })
                .count();
            debug_assert!(affected > 0, "Step 2b reached a fixpoint");
            out.push(ResidualOption {
                is_update: true,
                index: i,
                from: *e_u,
                to: lower,
                affected_pairs: affected,
            });
        }
    }
    for (j, e_q) in exposures.queries.iter().enumerate() {
        if let Some(lower) = e_q.lower() {
            let affected = (0..matrix.update_count())
                .filter(|i| {
                    let e = matrix.entry(*i, j);
                    cell_class(e, exposures.updates[*i], lower)
                        != cell_class(e, exposures.updates[*i], *e_q)
                })
                .count();
            debug_assert!(affected > 0, "Step 2b reached a fixpoint");
            out.push(ResidualOption {
                is_update: false,
                index: j,
                from: *e_q,
                to: lower,
                affected_pairs: affected,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipm::{characterize_app, AnalysisOptions};
    use scs_sqlkit::{parse_query, parse_update};
    use scs_storage::{ColumnType, TableSchema};
    use std::sync::Arc;

    /// Every column of `credit_card` sensitive.
    fn credit_card_sensitive() -> SensitivityPolicy {
        let columns = ["cid", "number", "zip_code"];
        SensitivityPolicy::new(columns.map(|c| Attr::new("credit_card", c)))
    }

    fn catalog() -> Catalog {
        Catalog::new([
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("toy_name", ColumnType::Str)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .build()
                .unwrap(),
            TableSchema::builder("customers")
                .column("cust_id", ColumnType::Int)
                .column("cust_name", ColumnType::Str)
                .primary_key(&["cust_id"])
                .build()
                .unwrap(),
            TableSchema::builder("credit_card")
                .column("cid", ColumnType::Int)
                .column("number", ColumnType::Str)
                .column("zip_code", ColumnType::Int)
                .primary_key(&["cid"])
                .foreign_key(&["cid"], "customers", &["cust_id"])
                .build()
                .unwrap(),
        ])
    }

    fn toystore() -> (Vec<Arc<UpdateTemplate>>, Vec<Arc<QueryTemplate>>) {
        let updates = vec![
            Arc::new(parse_update("DELETE FROM toys WHERE toy_id = ?").unwrap()),
            Arc::new(
                parse_update("INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)")
                    .unwrap(),
            ),
        ];
        let queries = vec![
            Arc::new(parse_query("SELECT toy_id FROM toys WHERE toy_name = ?").unwrap()),
            Arc::new(parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap()),
            Arc::new(
                parse_query(
                    "SELECT customers.cust_name FROM customers, credit_card \
                     WHERE customers.cust_id = credit_card.cid AND credit_card.zip_code = ?",
                )
                .unwrap(),
            ),
        ];
        (updates, queries)
    }

    /// Reproduces the §3.2 walkthrough: with E(U2) = template mandated by
    /// Step 1, Step 2b lowers Q3 from view to template and Q2 from view to
    /// stmt, leaving Q1 at view and U1 at stmt.
    #[test]
    fn toystore_walkthrough() {
        let (updates, queries) = toystore();
        let cat = catalog();
        let m = characterize_app(&updates, &queries, &cat, AnalysisOptions::default());

        let policy = credit_card_sensitive();
        let step1 = compulsory_exposures(&updates, &queries, &cat, &policy);
        assert_eq!(
            step1.updates,
            vec![ExposureLevel::Stmt, ExposureLevel::Template]
        );

        let final_exp = reduce_exposures(&m, &step1);
        assert_eq!(
            final_exp.queries,
            vec![
                ExposureLevel::View,
                ExposureLevel::Stmt,
                ExposureLevel::Template
            ],
            "Q1 stays at view; Q2 view→stmt; Q3 view→template"
        );
        assert_eq!(
            final_exp.updates[0],
            ExposureLevel::Stmt,
            "U1 stays at stmt"
        );
        // U2 touches only ignorable/A-like pairs at template... per the
        // paper U2 stays at template (not blind): lowering to blind would
        // set every U2 cell to 1.
        assert_eq!(final_exp.updates[1], ExposureLevel::Template);
    }

    #[test]
    fn reduction_never_raises_exposure() {
        let (updates, queries) = toystore();
        let cat = catalog();
        let m = characterize_app(&updates, &queries, &cat, AnalysisOptions::default());
        let init = Exposures::maximum(updates.len(), queries.len());
        let out = reduce_exposures(&m, &init);
        for (a, b) in out.updates.iter().zip(&init.updates) {
            assert!(a <= b);
        }
        for (a, b) in out.queries.iter().zip(&init.queries) {
            assert!(a <= b);
        }
    }

    #[test]
    fn reduction_is_idempotent() {
        let (updates, queries) = toystore();
        let cat = catalog();
        let m = characterize_app(&updates, &queries, &cat, AnalysisOptions::default());
        let once = reduce_exposures(&m, &Exposures::maximum(updates.len(), queries.len()));
        let twice = reduce_exposures(&m, &once);
        assert_eq!(once, twice);
    }

    #[test]
    fn residuals_are_exactly_the_blocked_moves() {
        let (updates, queries) = toystore();
        let cat = catalog();
        let m = characterize_app(&updates, &queries, &cat, AnalysisOptions::default());
        let fixed = reduce_exposures(&m, &Exposures::maximum(updates.len(), queries.len()));
        let residuals = residual_options(&m, &fixed);
        // Every non-blind template contributes exactly one blocked move.
        let non_blind = fixed
            .updates
            .iter()
            .chain(&fixed.queries)
            .filter(|e| **e != ExposureLevel::Blind)
            .count();
        assert_eq!(residuals.len(), non_blind);
        assert!(residuals.iter().all(|r| r.affected_pairs > 0));
    }

    #[test]
    fn meet_takes_componentwise_min() {
        let a = Exposures {
            updates: vec![ExposureLevel::Stmt],
            queries: vec![ExposureLevel::View, ExposureLevel::Template],
        };
        let b = Exposures {
            updates: vec![ExposureLevel::Template],
            queries: vec![ExposureLevel::View, ExposureLevel::Stmt],
        };
        let m = a.meet(&b);
        assert_eq!(m.updates, vec![ExposureLevel::Template]);
        assert_eq!(
            m.queries,
            vec![ExposureLevel::View, ExposureLevel::Template]
        );
    }

    #[test]
    fn encrypted_query_results_metric() {
        let e = Exposures {
            updates: vec![],
            queries: vec![
                ExposureLevel::View,
                ExposureLevel::Stmt,
                ExposureLevel::Blind,
            ],
        };
        assert_eq!(e.encrypted_query_results(), 2);
    }

    #[test]
    fn sensitive_query_params_force_template() {
        let cat = catalog();
        let policy = credit_card_sensitive();
        let queries = vec![Arc::new(
            parse_query(
                "SELECT customers.cust_name FROM customers, credit_card \
                 WHERE customers.cust_id = credit_card.cid AND credit_card.number = ?",
            )
            .unwrap(),
        )];
        let updates: Vec<Arc<UpdateTemplate>> = Vec::new();
        let exp = compulsory_exposures(&updates, &queries, &cat, &policy);
        assert_eq!(exp.queries[0], ExposureLevel::Template);
    }

    #[test]
    fn sensitive_result_forces_stmt() {
        let cat = catalog();
        let policy = credit_card_sensitive();
        let queries = vec![Arc::new(
            parse_query("SELECT number FROM credit_card WHERE cid = ?").unwrap(),
        )];
        let updates: Vec<Arc<UpdateTemplate>> = Vec::new();
        let exp = compulsory_exposures(&updates, &queries, &cat, &policy);
        assert_eq!(
            exp.queries[0],
            ExposureLevel::Template,
            "param also binds PK? no — cid is sensitive too (whole table)"
        );
    }
}
