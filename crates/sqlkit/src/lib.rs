//! # scs-sqlkit — the query/update template language
//!
//! Implements the database-access model of *Simultaneous Scalability and
//! Security for Data-Intensive Web Applications* (SIGMOD 2006), §2.1:
//!
//! * **Queries** are select-project-join (SPJ) expressions with conjunctive
//!   selection predicates over `{<, <=, >, >=, =}`, optional `ORDER BY` and
//!   top-k (`LIMIT`), plus the aggregation/`GROUP BY` constructs that appear
//!   in the benchmark applications (§5.1). Multiset semantics; projection
//!   does not eliminate duplicates.
//! * **Updates** are insertions (fully specified rows), deletions
//!   (arithmetic predicate over one relation), and modifications (set
//!   non-key attributes of the row matching a primary-key equality).
//! * **Templates vs. statements**: applications embed a fixed set of
//!   *templates* with `?` parameters; a *statement* is a template plus bound
//!   parameters (`Q = Q^T(Q^P)`).
//!
//! The crate provides values, AST, lexer/parser, canonical rendering
//! (cache-key text), and parameter binding. Semantic analysis lives in
//! `scs-core`; execution lives in `scs-storage`.

pub mod ast;
pub mod bind;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{
    AggFunc, CmpOp, ColumnRef, DeleteTemplate, InsertTemplate, ModifyTemplate, Operand, OrderKey,
    Predicate, QueryTemplate, Scalar, SelectItem, TableRef, Template, UpdateTemplate,
};
pub use bind::{statement_len, Query, TemplateId, Update};
pub use error::{BindError, ParseError};
pub use parser::{parse_query, parse_template, parse_update};
pub use value::{Real, Value};
