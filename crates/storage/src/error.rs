//! Storage-layer errors.

use scs_sqlkit::Value;
use std::fmt;

/// Errors raised by the catalog, executor, or update application.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// No such table in the database.
    UnknownTable(String),
    /// No such column in the referenced table.
    UnknownColumn { table: String, column: String },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        table: String,
        column: String,
        value: Value,
    },
    /// An insert supplied the wrong number / set of columns.
    BadInsert(String),
    /// Primary-key uniqueness violation.
    DuplicateKey { table: String, key: Vec<Value> },
    /// Foreign-key referential-integrity violation on insert.
    ForeignKeyViolation { table: String, constraint: String },
    /// A modification's WHERE clause is not an equality on the full
    /// primary key, or it sets a key attribute (violates the §2.1 model).
    BadModify(String),
    /// A query is malformed w.r.t. the schema (e.g. plain select item not in
    /// GROUP BY, aggregate over a string column).
    BadQuery(String),
    /// Schema definition problem (duplicate table, bad PK/FK columns, ...).
    BadSchema(String),
    /// An index entry or an intermediate result named a row that is not
    /// live — an engine inconsistency, reported to the caller instead of
    /// aborting the serving process.
    DanglingRow { table: String, id: usize },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{table}.{column}`")
            }
            StorageError::TypeMismatch {
                table,
                column,
                value,
            } => {
                write!(f, "value {value} does not match type of `{table}.{column}`")
            }
            StorageError::BadInsert(m) => write!(f, "bad insert: {m}"),
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key in `{table}`: {key:?}")
            }
            StorageError::ForeignKeyViolation { table, constraint } => {
                write!(
                    f,
                    "foreign-key violation inserting into `{table}` ({constraint})"
                )
            }
            StorageError::BadModify(m) => write!(f, "bad modification: {m}"),
            StorageError::BadQuery(m) => write!(f, "bad query: {m}"),
            StorageError::BadSchema(m) => write!(f, "bad schema: {m}"),
            StorageError::DanglingRow { table, id } => {
                write!(f, "row {id} of `{table}` is not live")
            }
        }
    }
}

impl std::error::Error for StorageError {}
