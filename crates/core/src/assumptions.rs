//! The simplifying assumptions of §2.1.1 and their static checks.
//!
//! The paper's IPM characterization is proved under three template-level
//! assumptions:
//!
//! 1. each selection predicate compares attribute values across two
//!    relations, or compares an attribute with a constant (no
//!    column-to-column comparison *within* one relation);
//! 2. no constants that might aid invalidation are embedded in templates
//!    (all comparison values arrive as parameters);
//! 3. no query computes a Cartesian product (its join graph is connected).
//!
//! "Whenever the assumptions do not hold, no encryption is recommended for
//! the given update/query template pair" (§2.1.1) — the checker reports
//! violations and the IPM characterizer falls back to the fully
//! conservative entry for pairs involving a violating template.
//!
//! Aggregation / `GROUP BY` queries (7–11% of templates in the benchmark
//! applications, §5.1) are outside the proved model; the characterizer
//! handles them with documented conservative rules (see `ipm`).

use scs_sqlkit::{QueryTemplate, UpdateTemplate};

/// Which §2.1.1 assumption a template violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A predicate compares two columns of the same relation instance.
    IntraRelationComparison(String),
    /// A predicate embeds a constant instead of a parameter.
    EmbeddedConstant(String),
    /// A multi-table query whose equality/theta join graph is disconnected.
    CartesianProduct,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::IntraRelationComparison(p) => {
                write!(f, "intra-relation column comparison: {p}")
            }
            Violation::EmbeddedConstant(p) => write!(f, "embedded constant in predicate: {p}"),
            Violation::CartesianProduct => write!(f, "query computes a Cartesian product"),
        }
    }
}

/// Checks a query template against the assumptions.
pub fn check_query(q: &QueryTemplate) -> Vec<Violation> {
    let mut out = Vec::new();
    for p in &q.predicates {
        if let Some((l, _, r)) = p.as_join() {
            if l.qualifier == r.qualifier {
                out.push(Violation::IntraRelationComparison(p.to_string()));
            }
        }
        if let Some((_, _, s)) = p.as_restriction() {
            if s.as_literal().is_some() {
                out.push(Violation::EmbeddedConstant(p.to_string()));
            }
        }
    }
    if q.from.len() > 1 && !join_graph_connected(q) {
        out.push(Violation::CartesianProduct);
    }
    out
}

/// Checks an update template against the assumptions. (Insertions have no
/// predicates; `VALUES` constants are data, not invalidation-aiding
/// comparison constants, and are permitted.)
pub fn check_update(u: &UpdateTemplate) -> Vec<Violation> {
    let mut out = Vec::new();
    for p in u.predicates() {
        if p.is_join() {
            // Single-table updates: any column-column predicate is
            // intra-relation by construction.
            out.push(Violation::IntraRelationComparison(p.to_string()));
        }
        if let Some((_, _, s)) = p.as_restriction() {
            if s.as_literal().is_some() {
                out.push(Violation::EmbeddedConstant(p.to_string()));
            }
        }
    }
    out
}

/// True when every alias of a multi-table query is connected to the rest
/// through join predicates (union-find over aliases).
fn join_graph_connected(q: &QueryTemplate) -> bool {
    let n = q.from.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let alias_idx = |a: &str| {
        q.from
            .iter()
            .position(|t| t.alias == a)
            .expect("resolved template")
    };
    for p in &q.predicates {
        if let Some((l, _, r)) = p.as_join() {
            let (x, y) = (alias_idx(&l.qualifier), alias_idx(&r.qualifier));
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            parent[rx] = ry;
        }
    }
    let root = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_sqlkit::{parse_query, parse_update};

    #[test]
    fn clean_templates_pass() {
        let q = parse_query("SELECT a.x FROM alpha a, beta b WHERE a.k = b.k AND b.y = ?").unwrap();
        assert!(check_query(&q).is_empty());
        let u = parse_update("DELETE FROM alpha WHERE k = ?").unwrap();
        assert!(check_update(&u).is_empty());
        let i = parse_update("INSERT INTO alpha (k, x) VALUES (?, 7)").unwrap();
        assert!(
            check_update(&i).is_empty(),
            "VALUES constants are permitted"
        );
    }

    #[test]
    fn intra_relation_comparison_flagged() {
        let q = parse_query("SELECT t.a FROM toys t WHERE t.a = t.b").unwrap();
        assert!(matches!(
            check_query(&q)[0],
            Violation::IntraRelationComparison(_)
        ));
        // Self-join across two instances of the same table is fine — the
        // comparison is across two relation *instances*.
        let sj = parse_query("SELECT t1.a FROM toys t1, toys t2 WHERE t1.a = t2.b").unwrap();
        assert!(check_query(&sj).is_empty());
    }

    #[test]
    fn embedded_constant_flagged() {
        let q = parse_query("SELECT a FROM t WHERE a = 5").unwrap();
        assert!(matches!(check_query(&q)[0], Violation::EmbeddedConstant(_)));
        let u = parse_update("DELETE FROM t WHERE a > 10").unwrap();
        assert!(matches!(
            check_update(&u)[0],
            Violation::EmbeddedConstant(_)
        ));
    }

    #[test]
    fn cartesian_product_flagged() {
        let q = parse_query("SELECT a.x FROM alpha a, beta b WHERE a.x = ? AND b.y = ?").unwrap();
        assert!(check_query(&q).contains(&Violation::CartesianProduct));
        let three =
            parse_query("SELECT a.x FROM alpha a, beta b, gamma c WHERE a.k = b.k AND c.z = ?")
                .unwrap();
        assert!(check_query(&three).contains(&Violation::CartesianProduct));
    }

    #[test]
    fn connected_three_way_join_passes() {
        let q =
            parse_query("SELECT a.x FROM alpha a, beta b, gamma c WHERE a.k = b.k AND b.j = c.j")
                .unwrap();
        assert!(check_query(&q).is_empty());
    }

    #[test]
    fn single_table_without_where_passes() {
        // `SELECT MAX(qty) FROM toys` (paper §4.4) — a single relation is
        // never a Cartesian product.
        let q = parse_query("SELECT MAX(qty) FROM toys").unwrap();
        assert!(check_query(&q).is_empty());
    }
}
