//! Invalidation strategy dispatch (§2.2–2.3).
//!
//! The DSSP's information about an update and about each cached entry is
//! bounded by the respective templates' exposure levels; the effective
//! decision procedure for a pair is the Figure-6 cell:
//!
//! * either side `blind` → invalidate (Property 1);
//! * either side `template` → minimal template inspection: invalidate all
//!   instances unless the static analysis proved `A = 0`;
//! * both `stmt` → minimal statement inspection;
//! * update `stmt` + query `view` → minimal view inspection.
//!
//! The four *pure* strategies of §2.2 (MBS, MTIS, MSIS, MVIS) are the
//! special cases where every template sits at the same level.
//!
//! In front of [`decide`] sits the candidate generator's [`Probe`]. Which
//! probe a bucket's entries get is a function of the two *templates*
//! alone — [`probe_rule`] derives it as a [`Rule`] that names where the
//! probed value sits in the update template — so the cache derives it
//! once per (bucket, update template) and, per update, only
//! [`Rule::bind`]s it (DESIGN §5).

use crate::cache::CacheEntry;
use crate::statement::statement_may_affect;
use crate::view::{preserved_position, selects_on, view_may_affect};
use scs_core::{ExposureLevel, IpmMatrix};
use scs_sqlkit::{
    CmpOp, Predicate, QueryTemplate, Scalar, TemplateId, Update, UpdateTemplate, Value,
};

/// What the DSSP can see of an in-flight update, gated by `E(U^T)`.
#[derive(Debug, Clone, Copy)]
pub struct UpdateView<'a> {
    level: ExposureLevel,
    template_id: TemplateId,
    update: &'a Update,
}

impl<'a> UpdateView<'a> {
    /// Wraps an update at exposure `level` (must be valid for updates).
    pub fn new(update: &'a Update, level: ExposureLevel) -> UpdateView<'a> {
        assert!(level.valid_for_update(), "update exposure cannot be `view`");
        UpdateView {
            level,
            template_id: update.template_id,
            update,
        }
    }

    pub fn level(&self) -> ExposureLevel {
        self.level
    }

    /// The template id — visible at `template` exposure and above.
    pub fn visible_template_id(&self) -> Option<TemplateId> {
        (self.level >= ExposureLevel::Template).then_some(self.template_id)
    }

    /// The full statement — visible at `stmt` exposure.
    pub fn visible_statement(&self) -> Option<&'a Update> {
        (self.level >= ExposureLevel::Stmt).then_some(self.update)
    }
}

/// Which information tier settled an invalidation decision — recorded in
/// trace events so observed invalidations are attributable to the level
/// of inspection that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionPath {
    /// A blind side forced invalidation (Property 1) — no inspection ran.
    BlindSide,
    /// The statically derived template-level `A` value decided.
    Template,
    /// Statement inspection compared the two statements.
    Statement,
    /// View inspection consulted the materialized result.
    View,
}

impl DecisionPath {
    /// Stable numeric code used by `scs-telemetry` trace events.
    pub fn code(self) -> u8 {
        match self {
            DecisionPath::BlindSide => 0,
            DecisionPath::Template => 1,
            DecisionPath::Statement => 2,
            DecisionPath::View => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DecisionPath::BlindSide => "blind_side",
            DecisionPath::Template => "template",
            DecisionPath::Statement => "statement",
            DecisionPath::View => "view",
        }
    }
}

/// The minimal correct decision available at the information level of the
/// pair `(update view, cache entry)`, plus which tier produced it:
/// `true` = invalidate.
pub fn decide(matrix: &IpmMatrix, uv: &UpdateView<'_>, entry: &CacheEntry) -> (bool, DecisionPath) {
    // Property 1: a blind side leaves no information — invalidate.
    let (Some(uid), Some(qid)) = (uv.visible_template_id(), entry.visible_template_id()) else {
        return (true, DecisionPath::BlindSide);
    };
    // Template-level: the statically derived A decides; A = 0 is sound at
    // every higher level too (Property 3 collapses the gradient).
    if matrix.entry(uid, qid).all_zero() {
        return (false, DecisionPath::Template);
    }
    let (Some(u), Some(q)) = (uv.visible_statement(), entry.visible_statement()) else {
        // One side stops at template exposure: invalidate all instances
        // (A = 1 for this pair).
        return (true, DecisionPath::Template);
    };
    match entry.visible_result() {
        Some(result) => (view_may_affect(u, q, result), DecisionPath::View),
        None => (statement_may_affect(u, q), DecisionPath::Statement),
    }
}

/// Which entries of one query template's bucket [`decide`] can tell apart
/// for a statement-visible update — the candidate generator in front of
/// it (DESIGN §5, invariant 10). A probe names a value the cache has
/// indexed; every entry it does *not* return is one `decide` spares by
/// the code in [`crate::statement`] / [`crate::view`] as written, so a
/// probe can only err by returning too many entries. "Equals" is
/// [`CmpOp::Eq`]'s numeric equality throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<'u> {
    /// No rule applies: every entry of the bucket is a candidate.
    Bucket,
    /// The template restricts `alias.c = ?param` and the update pins `c`
    /// to `value`: only `stmt`/`view` entries whose bound parameter
    /// equals it can satisfy `statement_may_affect`.
    Param { param: usize, value: &'u Value },
    /// The update identifies its rows by `k = value` on a column the
    /// result preserves at select position `column`: `view` entries with
    /// no such row are spared by `delete_ruled_out` / `modify_ruled_out`.
    /// `stmt` entries of the bucket all stay candidates.
    ResultKey { column: usize, value: &'u Value },
}

/// Which [`Probe`] the instances of an update template get against a
/// bucket of a query template — a pure function of the two templates,
/// derived by [`probe_rule`] and bound to an update by [`Rule::bind`].
/// The probed value is named by where it sits in the update template, so
/// a rule is derived once per pair and kept: the cache memoises it per
/// (bucket, update template) (DESIGN §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// [`Probe::Bucket`].
    Bucket,
    /// [`Probe::Param`] for query parameter `param`, with the update's
    /// value at `value`.
    Param { param: usize, value: ScalarAt },
    /// [`Probe::ResultKey`] for select position `column`, with the
    /// update's value at `value`.
    ResultKey { column: usize, value: ScalarAt },
}

/// A scalar of an update template, by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarAt {
    /// `values[i]` of an INSERT.
    Listed(usize),
    /// The scalar side of the restriction `predicates()[i]` of a DELETE
    /// or an UPDATE.
    Conjunct(usize),
}

impl ScalarAt {
    fn of(self, template: &UpdateTemplate) -> Option<&Scalar> {
        match (self, template) {
            (ScalarAt::Listed(i), UpdateTemplate::Insert(ins)) => ins.values.get(i),
            (ScalarAt::Listed(_), _) => None,
            (ScalarAt::Conjunct(i), _) => {
                let (_, _, s) = template.predicates().get(i)?.as_restriction()?;
                Some(s)
            }
        }
    }
}

impl Rule {
    /// The probe for `u`, an instance of the update template the rule was
    /// derived for. A position `u`'s template does not have (an update of
    /// another template) gets [`Probe::Bucket`].
    pub fn bind(self, u: &Update) -> Probe<'_> {
        let value = |at: ScalarAt| at.of(&u.template).map(|s| u.resolve(s));
        let probe = match self {
            Rule::Bucket => None,
            Rule::Param { param, value: at } => {
                value(at).map(|value| Probe::Param { param, value })
            }
            Rule::ResultKey { column, value: at } => {
                value(at).map(|value| Probe::ResultKey { column, value })
            }
        };
        probe.unwrap_or(Probe::Bucket)
    }
}

/// The probe rule for instances of update template `ut` against a bucket
/// of template `tpl`. Both rules need the updated table under exactly one
/// alias and no column–column predicate the per-attribute reasoning
/// cannot see through — the same preconditions under which
/// `statement_may_affect` reasons about one alias at all.
pub fn probe_rule(ut: &UpdateTemplate, tpl: &QueryTemplate) -> Rule {
    let table = ut.table();
    let mut aliases = tpl.from.iter().filter(|t| t.table == table);
    let (Some(alias), None) = (aliases.next(), aliases.next()) else {
        return Rule::Bucket;
    };
    let alias = alias.alias.as_str();
    let intra = |p: &Predicate| {
        p.as_join()
            .is_some_and(|(l, _, r)| l.qualifier == r.qualifier)
    };
    if tpl.predicates.iter().any(intra) || ut.predicates().iter().any(Predicate::is_join) {
        return Rule::Bucket;
    }
    // The update's `column op scalar` conjuncts — what the statement tier
    // reads — by position in its WHERE.
    let restrictions = || {
        let conjuncts = ut.predicates().iter().enumerate();
        conjuncts.filter_map(|(i, p)| Some((ScalarAt::Conjunct(i), p.as_restriction()?)))
    };
    let where_eq = |col: &str| {
        restrictions()
            .find(|(_, (c, op, _))| *op == CmpOp::Eq && c.column == col)
            .map(|(at, _)| at)
    };

    // Rule 1 — a column the update pins: listed by an INSERT (the last
    // listing wins, as in `statement_may_affect`), or equated in a
    // DELETE / UPDATE's WHERE and, for UPDATE, not SET (a SET column
    // drops out of the row-enters direction's constraints).
    let pinned = |col: &str| match ut {
        UpdateTemplate::Insert(ins) => {
            let mut listed = ins.columns.iter().zip(&ins.values).enumerate().rev();
            listed
                .find(|(_, (c, _))| *c == col)
                .map(|(i, _)| ScalarAt::Listed(i))
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
            return Rule::Param {
                param: *param,
                value,
            };
        }
    }

    // Rule 2 — the result rows expose the update's key.
    if tpl.has_aggregates() || !tpl.group_by.is_empty() {
        return Rule::Bucket;
    }
    let preserved = |col: &str| preserved_position(tpl, alias, col);
    let refinable = match ut {
        UpdateTemplate::Insert(_) => false,
        // `delete_ruled_out`: every WHERE column preserved.
        UpdateTemplate::Delete(_) => {
            restrictions().all(|(_, (c, _, _))| preserved(&c.column).is_some())
        }
        // `modify_ruled_out` spares an entry without the target row
        // unconditionally only when the row cannot enter either: an
        // all-`=` WHERE on preserved columns, no ORDER BY, and no SET
        // column among this alias's restriction or join columns.
        UpdateTemplate::Modify(m) => {
            tpl.order_by.is_empty()
                && restrictions()
                    .all(|(_, (c, op, _))| op == CmpOp::Eq && preserved(&c.column).is_some())
                && !m.set.iter().any(|(c, _)| selects_on(tpl, alias, c))
        }
    };
    if !refinable {
        return Rule::Bucket;
    }
    let key = restrictions()
        .find(|(_, (_, op, _))| *op == CmpOp::Eq)
        .and_then(|(value, (c, _, _))| Some((preserved(&c.column)?, value)));
    match key {
        Some((column, value)) => Rule::ResultKey { column, value },
        None => Rule::Bucket,
    }
}

/// The probe for update `u` against a bucket of template `tpl`:
/// [`probe_rule`] of the two templates, bound to `u`.
pub fn probe_for<'u>(u: &'u Update, tpl: &QueryTemplate) -> Probe<'u> {
    probe_rule(&u.template, tpl).bind(u)
}

/// [`decide`] without the attribution — kept for callers that only need
/// the verdict.
pub fn must_invalidate(matrix: &IpmMatrix, uv: &UpdateView<'_>, entry: &CacheEntry) -> bool {
    decide(matrix, uv, entry).0
}

/// The four pure strategy classes of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// MBS — minimal blind strategy: everything encrypted.
    Blind,
    /// MTIS — minimal template-inspection strategy.
    TemplateInspection,
    /// MSIS — minimal statement-inspection strategy.
    StatementInspection,
    /// MVIS — minimal view-inspection strategy: nothing encrypted.
    ViewInspection,
}

impl StrategyKind {
    /// The uniform exposure level implementing this strategy class for
    /// update templates.
    pub fn update_level(self) -> ExposureLevel {
        match self {
            StrategyKind::Blind => ExposureLevel::Blind,
            StrategyKind::TemplateInspection => ExposureLevel::Template,
            StrategyKind::StatementInspection | StrategyKind::ViewInspection => ExposureLevel::Stmt,
        }
    }

    /// The uniform exposure level implementing this strategy class for
    /// query templates.
    pub fn query_level(self) -> ExposureLevel {
        match self {
            StrategyKind::Blind => ExposureLevel::Blind,
            StrategyKind::TemplateInspection => ExposureLevel::Template,
            StrategyKind::StatementInspection => ExposureLevel::Stmt,
            StrategyKind::ViewInspection => ExposureLevel::View,
        }
    }

    /// Uniform exposures for an application with the given template counts.
    pub fn exposures(self, update_count: usize, query_count: usize) -> scs_core::Exposures {
        scs_core::Exposures {
            updates: vec![self.update_level(); update_count],
            queries: vec![self.query_level(); query_count],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Blind => "MBS",
            StrategyKind::TemplateInspection => "MTIS",
            StrategyKind::StatementInspection => "MSIS",
            StrategyKind::ViewInspection => "MVIS",
        }
    }

    /// All four, most-exposed first (the x-axis of the paper's Figure 8 is
    /// MVIS, MSIS, MTIS, MBS).
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::ViewInspection,
        StrategyKind::StatementInspection,
        StrategyKind::TemplateInspection,
        StrategyKind::Blind,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExposureLevel::*;

    #[test]
    fn strategy_levels() {
        assert_eq!(StrategyKind::Blind.query_level(), Blind);
        assert_eq!(StrategyKind::TemplateInspection.update_level(), Template);
        assert_eq!(StrategyKind::StatementInspection.query_level(), Stmt);
        assert_eq!(StrategyKind::ViewInspection.query_level(), View);
        assert_eq!(StrategyKind::ViewInspection.update_level(), Stmt);
    }

    #[test]
    #[should_panic(expected = "update exposure")]
    fn update_view_rejects_view_level() {
        let t = std::sync::Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE a = ?").unwrap());
        let u = Update::bind(0, t, vec![scs_sqlkit::Value::Int(1)]).unwrap();
        let _ = UpdateView::new(&u, View);
    }

    fn probe(update: &str, params: Vec<Value>, query: &str) -> String {
        let u = Update::bind(
            0,
            std::sync::Arc::new(scs_sqlkit::parse_update(update).unwrap()),
            params,
        );
        let q = scs_sqlkit::parse_query(query).unwrap();
        format!("{:?}", probe_for(&u.unwrap(), &q))
    }

    #[test]
    fn parameter_probe_needs_a_pinned_restriction_column() {
        let int = |n| vec![Value::Int(n)];
        let point = "SELECT qty FROM toys WHERE toy_id = ?";
        let hit = "Param { param: 0, value: Int(5) }";
        assert_eq!(
            probe("DELETE FROM toys WHERE toy_id = ?", int(5), point),
            hit
        );
        assert_eq!(
            probe(
                "UPDATE toys SET qty = ? WHERE toy_id = ?",
                vec![Value::Int(1), Value::Int(5)],
                point
            ),
            hit
        );
        assert_eq!(
            probe(
                "INSERT INTO toys (toy_id, qty) VALUES (?, ?)",
                vec![Value::Int(5), Value::Int(1)],
                point
            ),
            hit
        );
        // The second of two `=` restrictions is the pinned one.
        assert_eq!(
            probe(
                "DELETE FROM toys WHERE toy_id = ?",
                int(5),
                "SELECT qty FROM toys WHERE qty = ? AND toy_id = ?"
            ),
            "Param { param: 1, value: Int(5) }"
        );
        // Not pinned: a range WHERE, a SET of the restricted column, a
        // partial INSERT, a range restriction, a literal restriction.
        for (update, params) in [
            ("DELETE FROM toys WHERE toy_id < ?", int(5)),
            (
                "UPDATE toys SET toy_id = ? WHERE toy_id = ?",
                vec![Value::Int(1), Value::Int(5)],
            ),
            ("INSERT INTO toys (qty) VALUES (?)", int(5)),
        ] {
            assert_eq!(
                probe(update, params, "SELECT MAX(qty) FROM toys WHERE toy_id = ?"),
                "Bucket"
            );
        }
        let delete = "DELETE FROM toys WHERE toy_id = ?";
        assert_eq!(
            probe(delete, int(5), "SELECT MAX(qty) FROM toys WHERE toy_id > ?"),
            "Bucket"
        );
        assert_eq!(
            probe(delete, int(5), "SELECT MAX(qty) FROM toys WHERE toy_id = 5"),
            "Bucket"
        );
        // Self-joins and intra-relation comparisons are off limits.
        let self_join = "SELECT t1.qty FROM toys t1, toys t2 WHERE t1.toy_id = ? AND t2.toy_id = ?";
        assert_eq!(probe(delete, int(5), self_join), "Bucket");
        assert_eq!(
            probe(
                delete,
                int(5),
                "SELECT qty FROM toys WHERE toy_id = ? AND qty < toy_id"
            ),
            "Bucket"
        );
        assert_eq!(
            probe("DELETE FROM toys WHERE toy_id = qty", vec![], point),
            "Bucket"
        );
    }

    #[test]
    fn result_key_probe_needs_the_key_preserved_and_no_way_in() {
        let int = |n| vec![Value::Int(n)];
        let list = "SELECT toy_id, qty FROM toys WHERE toy_name = ?";
        let hit = "ResultKey { column: 0, value: Int(5) }";
        assert_eq!(
            probe("DELETE FROM toys WHERE toy_id = ?", int(5), list),
            hit
        );
        assert_eq!(
            probe(
                "DELETE FROM toys WHERE qty < ? AND toy_id = ?",
                vec![Value::Int(1), Value::Int(5)],
                list
            ),
            hit
        );
        let set_qty = "UPDATE toys SET qty = ? WHERE toy_id = ?";
        let two = vec![Value::Int(1), Value::Int(5)];
        assert_eq!(probe(set_qty, two.clone(), list), hit);
        // DELETE: a WHERE column the result drops, or no `=` at all.
        assert_eq!(
            probe(
                "DELETE FROM toys WHERE toy_id = ?",
                int(5),
                "SELECT qty FROM toys WHERE toy_name = ?"
            ),
            "Bucket"
        );
        assert_eq!(
            probe("DELETE FROM toys WHERE toy_id < ?", int(5), list),
            "Bucket"
        );
        // UPDATE: the row could enter — a SET column the template selects
        // or joins on — or move within an ORDER BY.
        assert_eq!(
            probe(
                "UPDATE toys SET toy_name = ? WHERE toy_id = ?",
                two.clone(),
                list
            ),
            "Bucket"
        );
        assert_eq!(
            probe(
                set_qty,
                two.clone(),
                "SELECT toy_id, qty FROM toys WHERE toy_name = ? ORDER BY qty"
            ),
            "Bucket"
        );
        assert_eq!(
            probe(set_qty, two.clone(), "SELECT toys.toy_id, bins.id FROM toys, bins WHERE toys.qty = bins.cap AND bins.id = ?"),
            "Bucket"
        );
        // Aggregates expose no keys; INSERTs name no existing row.
        assert_eq!(
            probe(
                set_qty,
                two,
                "SELECT toy_id, COUNT(*) FROM toys WHERE toy_name = ? GROUP BY toy_id"
            ),
            "Bucket"
        );
        assert_eq!(
            probe(
                "INSERT INTO toys (toy_id, qty) VALUES (?, ?)",
                vec![Value::Int(5), Value::Int(1)],
                list
            ),
            "Bucket"
        );
    }
}
