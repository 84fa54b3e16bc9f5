//! Relational schema: tables, columns, primary keys, foreign keys, indexes.
//!
//! The DSSP's static analysis (§4.5 of the paper) exploits two *basic
//! database integrity constraints* — primary keys and foreign keys — which
//! the paper argues fall into the insensitive-data category for all three
//! benchmark applications, so the DSSP may know them.

use crate::error::StorageError;
use scs_sqlkit::Value;

/// Column data types (matching [`Value`] variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    Real,
    Str,
}

impl ColumnType {
    /// Whether `v` inhabits this type. `Int` values are accepted for `Real`
    /// columns (numeric widening), mirroring common SQL engines.
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Real, Value::Real(_) | Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A foreign-key constraint: `columns` of this table reference
/// `parent_columns` (the primary key) of `parent_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub parent_table: String,
    pub parent_columns: Vec<String>,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Primary-key column names (possibly composite; may be empty for
    /// keyless tables, which then reject `Modify` updates).
    pub primary_key: Vec<String>,
    pub foreign_keys: Vec<ForeignKey>,
    /// Columns to maintain single-column equality indexes on (the storage
    /// layer always indexes primary-key and foreign-key columns too).
    pub indexes: Vec<String>,
    /// Column lists to maintain *ordered* indexes on, each sorted by its
    /// columns in turn: the access path of `ORDER BY d LIMIT k` under `=`
    /// restrictions on the columns before `d` — none, for a one-column
    /// list (see `executor`). Nothing is ordered unless declared here.
    pub ordered_indexes: Vec<Vec<String>>,
}

impl TableSchema {
    /// Starts a schema builder for `name`.
    pub fn builder(name: impl Into<String>) -> TableSchemaBuilder {
        TableSchemaBuilder {
            schema: TableSchema {
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                foreign_keys: Vec::new(),
                indexes: Vec::new(),
                ordered_indexes: Vec::new(),
            },
        }
    }

    /// Position of a column by name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// The column definition by name.
    pub fn column(&self, column: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// True if `column` participates in the primary key.
    pub fn is_key_column(&self, column: &str) -> bool {
        self.primary_key.iter().any(|k| k == column)
    }

    /// All columns that should carry an equality index: PK columns, FK
    /// columns, and explicitly requested ones.
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        let mut push = |c: &str| {
            if !cols.iter().any(|x| x == c) {
                cols.push(c.to_string());
            }
        };
        for c in &self.primary_key {
            push(c);
        }
        for fk in &self.foreign_keys {
            for c in &fk.columns {
                push(c);
            }
        }
        for c in &self.indexes {
            push(c);
        }
        cols
    }

    /// The slot of `column`'s equality index in a [`crate::Table`] of this
    /// schema — its place in [`TableSchema::indexed_columns`] — or `None`
    /// when the column carries none.
    pub(crate) fn index_slot(&self, column: &str) -> Option<usize> {
        self.indexed_columns().iter().position(|c| c == column)
    }

    /// Validates internal consistency (column references resolve, no
    /// duplicate column names).
    pub fn validate(&self) -> Result<(), StorageError> {
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|d| d.name == c.name) {
                return Err(StorageError::BadSchema(format!(
                    "duplicate column `{}` in table `{}`",
                    c.name, self.name
                )));
            }
        }
        if self.ordered_indexes.iter().any(Vec::is_empty) {
            return Err(StorageError::BadSchema(format!(
                "table `{}` declares an ordered index on no column",
                self.name
            )));
        }
        for k in self
            .primary_key
            .iter()
            .chain(&self.indexes)
            .chain(self.ordered_indexes.iter().flatten())
        {
            if self.column_index(k).is_none() {
                return Err(StorageError::BadSchema(format!(
                    "table `{}` declares key/index on unknown column `{k}`",
                    self.name
                )));
            }
        }
        for fk in &self.foreign_keys {
            if fk.columns.len() != fk.parent_columns.len() || fk.columns.is_empty() {
                return Err(StorageError::BadSchema(format!(
                    "malformed foreign key on table `{}`",
                    self.name
                )));
            }
            for c in &fk.columns {
                if self.column_index(c).is_none() {
                    return Err(StorageError::BadSchema(format!(
                        "table `{}` declares foreign key on unknown column `{c}`",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`TableSchema`].
pub struct TableSchemaBuilder {
    schema: TableSchema,
}

impl TableSchemaBuilder {
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.schema.columns.push(Column::new(name, ty));
        self
    }

    /// Declares the primary key (single or composite).
    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.schema.primary_key = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Declares a foreign key to `parent_table`'s primary-key columns.
    pub fn foreign_key(mut self, cols: &[&str], parent_table: &str, parent_cols: &[&str]) -> Self {
        self.schema.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|c| c.to_string()).collect(),
            parent_table: parent_table.to_string(),
            parent_columns: parent_cols.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Requests a single-column equality index.
    pub fn index(mut self, col: &str) -> Self {
        self.schema.indexes.push(col.to_string());
        self
    }

    /// Requests an ordered index on one column.
    pub fn ordered_index(self, col: &str) -> Self {
        self.ordered_index_on(&[col])
    }

    /// Requests an ordered index on a column list: rows sorted by `cols`
    /// in turn.
    pub fn ordered_index_on(mut self, cols: &[&str]) -> Self {
        let cols = cols.iter().map(|c| c.to_string()).collect();
        self.schema.ordered_indexes.push(cols);
        self
    }

    /// Finishes the schema, validating it.
    pub fn build(self) -> Result<TableSchema, StorageError> {
        self.schema.validate()?;
        Ok(self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toys() -> TableSchema {
        TableSchema::builder("toys")
            .column("toy_id", ColumnType::Int)
            .column("toy_name", ColumnType::Str)
            .column("qty", ColumnType::Int)
            .primary_key(&["toy_id"])
            .index("toy_name")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_schema() {
        let s = toys();
        assert_eq!(s.column_index("qty"), Some(2));
        assert!(s.is_key_column("toy_id"));
        assert!(!s.is_key_column("qty"));
        assert_eq!(s.indexed_columns(), vec!["toy_id", "toy_name"]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .column("a", ColumnType::Str)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn pk_on_unknown_column_rejected() {
        let r = TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .primary_key(&["b"])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn ordered_index_on_unknown_column_rejected() {
        let r = TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .ordered_index("b")
            .build();
        assert!(r.is_err());
        let s = TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .ordered_index("a")
            .build()
            .unwrap();
        assert_eq!(s.ordered_indexes, vec![vec!["a"]]);
        assert!(
            s.indexed_columns().is_empty(),
            "no equality index rides along"
        );
        // A column list is checked column by column, and holds one at least.
        let t = || TableSchema::builder("t").column("a", ColumnType::Int);
        assert!(t().ordered_index_on(&["a", "b"]).build().is_err());
        assert!(t().ordered_index_on(&[]).build().is_err());
        let s = t()
            .column("b", ColumnType::Int)
            .ordered_index_on(&["b", "a"])
            .build()
            .unwrap();
        assert_eq!(s.ordered_indexes, vec![vec!["b", "a"]]);
    }

    #[test]
    fn fk_arity_checked() {
        let r = TableSchema::builder("t")
            .column("a", ColumnType::Int)
            .foreign_key(&["a"], "p", &["x", "y"])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn column_types_admit_values() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
        assert!(ColumnType::Real.admits(&Value::Int(1)));
        assert!(ColumnType::Real.admits(&Value::real(1.5)));
        assert!(ColumnType::Str.admits(&Value::str("x")));
        assert!(!ColumnType::Str.admits(&Value::Int(1)));
    }
}
