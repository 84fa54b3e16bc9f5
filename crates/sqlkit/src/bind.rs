//! Statements: templates with parameters bound at execution time.
//!
//! Formally (§2.1): a query `Q = Q^T(Q^P)` and an update `U = U^T(U^P)`.
//! Statements carry the template by `Arc` — workloads instantiate the same
//! small set of templates millions of times.

use crate::ast::{QueryTemplate, Scalar, UpdateTemplate};
use crate::error::BindError;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifies a template within an application's fixed template sets
/// (index into the query- or update-template list).
pub type TemplateId = usize;

/// A query statement `Q = Q^T(Q^P)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Index of the template in the application's query-template set.
    pub template_id: TemplateId,
    pub template: Arc<QueryTemplate>,
    pub params: Vec<Value>,
}

impl Query {
    /// Binds `params` to `template`, checking arity.
    pub fn bind(
        template_id: TemplateId,
        template: Arc<QueryTemplate>,
        params: Vec<Value>,
    ) -> Result<Query, BindError> {
        if params.len() != template.param_count {
            return Err(BindError::ParamCount {
                expected: template.param_count,
                got: params.len(),
            });
        }
        Ok(Query {
            template_id,
            template,
            params,
        })
    }

    /// Resolves a scalar position to a concrete value.
    pub fn resolve<'a>(&'a self, s: &'a Scalar) -> &'a Value {
        match s {
            Scalar::Literal(v) => v,
            Scalar::Param(i) => &self.params[*i],
        }
    }

    /// Canonical statement text (template text with parameters substituted),
    /// used as the statement-level cache key.
    pub fn statement_text(&self) -> String {
        render(&self.template.to_string(), &self.params)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.statement_text())
    }
}

/// An update statement `U = U^T(U^P)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Update {
    /// Index of the template in the application's update-template set.
    pub template_id: TemplateId,
    pub template: Arc<UpdateTemplate>,
    pub params: Vec<Value>,
}

impl Update {
    /// Binds `params` to `template`, checking arity.
    pub fn bind(
        template_id: TemplateId,
        template: Arc<UpdateTemplate>,
        params: Vec<Value>,
    ) -> Result<Update, BindError> {
        if params.len() != template.param_count() {
            return Err(BindError::ParamCount {
                expected: template.param_count(),
                got: params.len(),
            });
        }
        Ok(Update {
            template_id,
            template,
            params,
        })
    }

    /// Resolves a scalar position to a concrete value.
    pub fn resolve<'a>(&'a self, s: &'a Scalar) -> &'a Value {
        match s {
            Scalar::Literal(v) => v,
            Scalar::Param(i) => &self.params[*i],
        }
    }

    /// Canonical statement text with parameters substituted.
    pub fn statement_text(&self) -> String {
        render(&self.template.to_string(), &self.params)
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.statement_text())
    }
}

/// The length of the statement text `template_text` renders to with
/// `params` bound — `statement_text().len()` — counted, not rendered.
/// `template_text` is the template's canonical text (`to_string()`), which
/// a caller binding one template many times renders once and keeps.
pub fn statement_len(template_text: &str, params: &[Value]) -> usize {
    let mut count = ByteCount(0);
    // Counting cannot fail.
    let _ = substitute(&mut count, template_text, params);
    count.0
}

/// Appends the statement text `template_text` renders to with `params`
/// bound — `statement_text()` — to `out`: the same substitution, into a
/// buffer a caller rendering one template many times keeps and reuses.
pub fn render_statement(out: &mut String, template_text: &str, params: &[Value]) {
    // Writing to a `String` cannot fail.
    let _ = substitute(out, template_text, params);
}

fn render(template_text: &str, params: &[Value]) -> String {
    let mut out = String::with_capacity(template_text.len() + params.len() * 8);
    render_statement(&mut out, template_text, params);
    out
}

/// A sink that keeps only the number of bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Writes canonical template text to `out` with its `?N` placeholders
/// replaced by the bound values' literal forms. A string literal of the
/// template (rendered `'...'`, an inner quote doubled) is copied through
/// as it stands: a `?` inside one is text, not a placeholder. Text between
/// placeholders goes out in runs (`'` and `?` are ASCII, so they never sit
/// inside a multi-byte character).
fn substitute(out: &mut impl fmt::Write, template_text: &str, params: &[Value]) -> fmt::Result {
    let bytes = template_text.as_bytes();
    let mut quoted = false;
    let (mut copied, mut at) = (0, 0);
    while let Some(&b) = bytes.get(at) {
        at += 1;
        // A doubled quote leaves and re-enters the literal at once.
        quoted ^= b == b'\'';
        if b != b'?' || quoted {
            continue;
        }
        out.write_str(&template_text[copied..at - 1])?;
        let mut i = 0;
        while let Some(d) = bytes.get(at).filter(|d| d.is_ascii_digit()) {
            i = i * 10 + usize::from(d - b'0');
            at += 1;
        }
        write!(out, "{}", params[i])?;
        copied = at;
    }
    out.write_str(&template_text[copied..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_update};

    #[test]
    fn bind_checks_arity() {
        let t = Arc::new(parse_query("SELECT a FROM t WHERE a = ? AND b = ?").unwrap());
        assert!(Query::bind(0, t.clone(), vec![Value::Int(1)]).is_err());
        assert!(Query::bind(0, t, vec![Value::Int(1), Value::Int(2)]).is_ok());
    }

    #[test]
    fn statement_text_substitutes_params() {
        let t = Arc::new(parse_query("SELECT toy_id FROM toys WHERE toy_name = ?").unwrap());
        let q = Query::bind(3, t, vec![Value::str("robot")]).unwrap();
        assert_eq!(
            q.statement_text(),
            "SELECT toys.toy_id FROM toys WHERE toys.toy_name = 'robot'"
        );
    }

    #[test]
    fn update_statement_text() {
        let t = Arc::new(parse_update("DELETE FROM toys WHERE toy_id = ?").unwrap());
        let u = Update::bind(0, t, vec![Value::Int(5)]).unwrap();
        assert_eq!(u.statement_text(), "DELETE FROM toys WHERE toys.toy_id = 5");
    }

    #[test]
    fn same_params_same_text_different_params_differ() {
        let t = Arc::new(parse_query("SELECT a FROM t WHERE a = ?").unwrap());
        let q1 = Query::bind(0, t.clone(), vec![Value::Int(1)]).unwrap();
        let q2 = Query::bind(0, t.clone(), vec![Value::Int(1)]).unwrap();
        let q3 = Query::bind(0, t, vec![Value::Int(2)]).unwrap();
        assert_eq!(q1.statement_text(), q2.statement_text());
        assert_ne!(q1.statement_text(), q3.statement_text());
    }

    /// A `?` inside a string literal of the template is text: it neither
    /// panics the renderer nor takes a parameter's value.
    #[test]
    fn statement_text_leaves_question_marks_in_literals_alone() {
        let q = |sql: &str, params: Vec<Value>| {
            let t = Arc::new(parse_query(sql).unwrap());
            Query::bind(0, t, params).unwrap().statement_text()
        };
        assert_eq!(
            q(
                "SELECT a FROM t WHERE b = 'who?' AND a = ?",
                vec![Value::Int(7)]
            ),
            "SELECT t.a FROM t WHERE t.b = 'who?' AND t.a = 7"
        );
        assert_eq!(
            q(
                "SELECT a FROM t WHERE b = '?0' AND a = ?",
                vec![Value::Int(7)]
            ),
            "SELECT t.a FROM t WHERE t.b = '?0' AND t.a = 7"
        );
        // Two statements that differ only in the literal keep two keys.
        assert_ne!(
            q(
                "SELECT a FROM t WHERE b = '?0' AND a = ?",
                vec![Value::Int(7)]
            ),
            q(
                "SELECT a FROM t WHERE b = '7' AND a = ?",
                vec![Value::Int(7)]
            )
        );
        // The doubled quote does not end the literal; the parameters on
        // both sides of it still bind, a quoted one included.
        assert_eq!(
            q(
                "SELECT a FROM t WHERE a = ? AND b = 'it''s ?1' AND c = ?",
                vec![Value::Int(7), Value::str("o'clock?")]
            ),
            "SELECT t.a FROM t WHERE t.a = 7 AND t.b = 'it''s ?1' AND t.c = 'o''clock?'"
        );
        let u = |sql: &str, params: Vec<Value>| {
            let t = Arc::new(parse_update(sql).unwrap());
            Update::bind(0, t, params).unwrap().statement_text()
        };
        assert_eq!(
            u("UPDATE t SET b = 'who?' WHERE a = ?", vec![Value::Int(7)]),
            "UPDATE t SET b = 'who?' WHERE t.a = 7"
        );
        assert_eq!(
            u(
                "INSERT INTO t (a, b, c) VALUES (?, '?0', 'it''s ?1')",
                vec![Value::Int(7)]
            ),
            "INSERT INTO t (a, b, c) VALUES (7, '?0', 'it''s ?1')"
        );
        assert_eq!(
            u(
                "DELETE FROM t WHERE b = '?1' AND a = ?",
                vec![Value::Int(7)]
            ),
            "DELETE FROM t WHERE t.b = '?1' AND t.a = 7"
        );
    }

    /// The counted length is the rendered one, and rendering into a buffer
    /// appends the same text, through every path of the
    /// substitution: runs of text, quoted `?`s, doubled quotes, escaped
    /// and multi-byte parameters, `Real`s.
    #[test]
    fn counted_length_is_the_rendered_length() {
        let cases = [
            ("SELECT a FROM t WHERE a = ?", vec![Value::Int(-7)]),
            (
                "SELECT a FROM t WHERE a = ? AND b = 'it''s ?1' AND c = ?",
                vec![Value::real(2.0), Value::str("o'clock? ''")],
            ),
            (
                "SELECT a FROM t WHERE b = '?0' AND a = ? AND c = ?",
                vec![Value::str("?0 ü €"), Value::real(1e300)],
            ),
            ("SELECT MAX(a) FROM t", vec![]),
        ];
        for (sql, params) in cases {
            let t = Arc::new(parse_query(sql).unwrap());
            let q = Query::bind(0, t.clone(), params).unwrap();
            let counted = statement_len(&t.to_string(), &q.params);
            assert_eq!(counted, q.statement_text().len(), "{sql}");
            let mut kept = String::from("kept: ");
            render_statement(&mut kept, &t.to_string(), &q.params);
            assert_eq!(kept, format!("kept: {}", q.statement_text()), "{sql}");
        }
    }

    #[test]
    fn resolve_literal_and_param() {
        let t = Arc::new(parse_update("UPDATE toys SET qty = 10 WHERE toy_id = ?").unwrap());
        let u = Update::bind(0, t.clone(), vec![Value::Int(5)]).unwrap();
        match &*u.template {
            UpdateTemplate::Modify(m) => {
                assert_eq!(u.resolve(&m.set[0].1), &Value::Int(10));
                let (_, _, s) = m.predicates[0].as_restriction().unwrap();
                assert_eq!(u.resolve(s), &Value::Int(5));
            }
            _ => unreachable!(),
        }
    }
}
