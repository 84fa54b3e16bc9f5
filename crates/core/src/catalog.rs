//! A lightweight schema catalog for static analysis.
//!
//! The analysis needs each relation's full column list (for `M(U^T)` of
//! insertions/deletions) and the integrity constraints of §4.5 (primary and
//! foreign keys). The paper argues these constraints are insensitive data
//! for the benchmark applications, so the DSSP may know them.

use scs_storage::TableSchema;
use std::collections::BTreeMap;

/// An immutable set of table schemas, keyed by table name.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
}

impl Catalog {
    /// Builds a catalog from table schemas (later duplicates are rejected by
    /// keeping the first definition and panicking in debug builds).
    pub fn new(schemas: impl IntoIterator<Item = TableSchema>) -> Catalog {
        let mut tables = BTreeMap::new();
        for s in schemas {
            let name = s.name.clone();
            let prev = tables.insert(name.clone(), s);
            debug_assert!(prev.is_none(), "duplicate table `{name}` in catalog");
        }
        Catalog { tables }
    }

    /// The schema of `table`, if known.
    pub fn table(&self, table: &str) -> Option<&TableSchema> {
        self.tables.get(table)
    }

    /// Iterates over all schemas.
    pub fn iter(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// True when `child.child_col` carries a declared foreign key to
    /// `parent.parent_col`.
    pub fn has_foreign_key(
        &self,
        child: &str,
        child_col: &str,
        parent: &str,
        parent_col: &str,
    ) -> bool {
        let Some(schema) = self.table(child) else {
            return false;
        };
        schema.foreign_keys.iter().any(|fk| {
            fk.parent_table == parent
                && fk
                    .columns
                    .iter()
                    .zip(&fk.parent_columns)
                    .any(|(c, p)| c == child_col && p == parent_col)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_storage::ColumnType;

    fn catalog() -> Catalog {
        Catalog::new([
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

    #[test]
    fn lookup() {
        let c = catalog();
        assert!(c.table("customers").is_some());
        assert!(c.table("nope").is_none());
    }

    #[test]
    fn foreign_key_lookup() {
        let c = catalog();
        assert!(c.has_foreign_key("credit_card", "cid", "customers", "cust_id"));
        assert!(!c.has_foreign_key("credit_card", "zip_code", "customers", "cust_id"));
        assert!(!c.has_foreign_key("customers", "cust_id", "credit_card", "cid"));
    }
}
