//! Test-only generators shared by the invalidation oracles: a three-table
//! schema and its seeded database, and random query templates (point,
//! multi-`=`, range and top-k selections, `MIN`/`MAX`/`COUNT`, `GROUP BY`,
//! self-joins, two-table joins, now and then an intra-relation column
//! comparison), update templates (full-row INSERTs — now and then listing
//! a column twice — DELETEs by `=`/range conjunctions, UPDATEs by
//! all-`=` WHEREs on the key or anything at all) and parameters from a
//! small domain that spells each number as an `Int` and as a `Real`.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::Rng;
use scs_core::ExposureLevel;
use scs_sqlkit::Value;
use scs_storage::{ColumnType, Database, TableSchema};

/// Cases a generated property runs: `SCS_INVALIDATION_CASES`, default 256
/// (CI runs 2 048).
pub fn cases() -> u32 {
    std::env::var("SCS_INVALIDATION_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

// ---- schema -----------------------------------------------------------

/// `(table, [(column, is_string)], primary key)`.
pub type TableDef = (
    &'static str,
    &'static [(&'static str, bool)],
    &'static [&'static str],
);

pub const TABLES: [TableDef; 3] = [
    (
        "alpha",
        &[
            ("id", false),
            ("grp", false),
            ("val", false),
            ("name", true),
        ],
        &["id"],
    ),
    (
        "beta",
        &[("id", false), ("aid", false), ("score", false)],
        &["id"],
    ),
    (
        "gamma",
        &[("a", false), ("b", false), ("w", false)],
        &["a", "b"],
    ),
];

pub fn schemas() -> Vec<TableSchema> {
    TABLES
        .iter()
        .map(|(table, columns, pk)| {
            let mut b = TableSchema::builder(*table);
            for (c, is_str) in *columns {
                let ty = if *is_str {
                    ColumnType::Str
                } else {
                    ColumnType::Int
                };
                b = b.column(*c, ty);
            }
            b.primary_key(pk).build().unwrap()
        })
        .collect()
}

pub const NAMES: [&str; 3] = ["ada", "bob", "cyd"];

/// Column values of the seeded database are drawn from `0..POOL`.
pub const POOL: i64 = 8;

pub fn seed_database() -> Database {
    let mut db = Database::new();
    for s in schemas() {
        db.create_table(s).unwrap();
    }
    for id in 0..POOL {
        let name = Value::str(NAMES[id as usize % NAMES.len()]);
        let row = vec![
            Value::Int(id),
            Value::Int(id % 4),
            Value::Int((id * 7) % POOL),
            name,
        ];
        db.insert_row("alpha", row).unwrap();
        let row = vec![
            Value::Int(id),
            Value::Int((id * 5) % POOL),
            Value::Int((id * 3) % POOL),
        ];
        db.insert_row("beta", row).unwrap();
    }
    for a in 0..4i64 {
        for b in 0..4i64 {
            let row = vec![Value::Int(a), Value::Int(b), Value::Int((a * b) % POOL)];
            db.insert_row("gamma", row).unwrap();
        }
    }
    db
}

// ---- random templates ---------------------------------------------------

/// A generated template: its SQL and, per `?`, whether it binds a string.
pub struct Sql {
    pub text: String,
    pub string_params: Vec<bool>,
}

pub fn pick<'a, T>(rng: &mut StdRng, from: &'a [T]) -> &'a T {
    &from[rng.gen_range(0..from.len())]
}

/// `column op ?` on a random column, equality-heavy.
pub fn restriction(rng: &mut StdRng, qualifier: &str, table: &TableDef, sql: &mut Sql) -> String {
    let (column, is_str) = *pick(rng, table.1);
    let op = if is_str {
        "="
    } else {
        *pick(rng, &["=", "=", "=", "=", "=", "=", "<", ">", "<=", ">="])
    };
    sql.string_params.push(is_str);
    format!("{qualifier}{column} {op} ?")
}

/// A column–column comparison inside one relation: outside the §2.1.1
/// model, so statement inspection must give up on it.
pub fn column_comparison(rng: &mut StdRng, table: &TableDef) -> String {
    let numeric: Vec<_> = table.1.iter().filter(|c| !c.1).collect();
    format!("{} <= {}", pick(rng, &numeric).0, pick(rng, &numeric).0)
}

pub fn some_columns(rng: &mut StdRng, table: &TableDef) -> Vec<&'static str> {
    let mut columns: Vec<&str> = table.1.iter().map(|c| c.0).collect();
    for i in (1..columns.len()).rev() {
        columns.swap(i, rng.gen_range(0..=i));
    }
    columns.truncate(rng.gen_range(1..=columns.len()));
    columns
}

/// Point, multi-`=`, range and top-k selections, `MIN`/`MAX`/`COUNT`,
/// `GROUP BY`, two-alias self-joins and two-table joins.
pub fn random_query(rng: &mut StdRng) -> Sql {
    let mut sql = Sql {
        text: String::new(),
        string_params: Vec::new(),
    };
    let table = pick(rng, &TABLES);
    let name = table.0;
    sql.text = match rng.gen_range(0..10) {
        0..=4 => {
            let select = some_columns(rng, table).join(", ");
            let n = rng.gen_range(0..=2);
            let mut conjuncts: Vec<String> = (0..n)
                .map(|_| restriction(rng, "", table, &mut sql))
                .collect();
            if rng.gen_bool(0.1) {
                conjuncts.push(column_comparison(rng, table));
            }
            let mut text = format!("SELECT {select} FROM {name}");
            if !conjuncts.is_empty() {
                text += &format!(" WHERE {}", conjuncts.join(" AND "));
            }
            if rng.gen_bool(0.3) {
                let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };
                text += &format!(" ORDER BY {}{desc}", pick(rng, table.1).0);
                if rng.gen_bool(0.6) {
                    text += &format!(" LIMIT {}", rng.gen_range(1..4));
                }
            }
            text
        }
        5 => {
            let func = *pick(rng, &["MIN", "MAX", "COUNT"]);
            let numeric: Vec<_> = table.1.iter().filter(|c| !c.1).collect();
            let mut text = format!("SELECT {func}({}) FROM {name}", pick(rng, &numeric).0);
            if rng.gen_bool(0.5) {
                text += &format!(" WHERE {}", restriction(rng, "", table, &mut sql));
            }
            text
        }
        6 => {
            let filter = if rng.gen_bool(0.5) {
                format!(" WHERE {}", restriction(rng, "", &TABLES[0], &mut sql))
            } else {
                String::new()
            };
            format!("SELECT grp, COUNT(*) FROM alpha{filter} GROUP BY grp")
        }
        7 | 8 => {
            let c1 = pick(rng, table.1).0;
            let c2 = pick(rng, table.1).0;
            let mut conjuncts = vec![
                restriction(rng, "t1.", table, &mut sql),
                restriction(rng, "t2.", table, &mut sql),
            ];
            if rng.gen_bool(0.4) {
                let numeric: Vec<_> = table.1.iter().filter(|c| !c.1).collect();
                let (l, r) = (pick(rng, &numeric).0, pick(rng, &numeric).0);
                conjuncts.push(format!("t1.{l} < t2.{r}"));
            }
            format!(
                "SELECT t1.{c1}, t2.{c2} FROM {name} t1, {name} t2 WHERE {}",
                conjuncts.join(" AND ")
            )
        }
        _ => {
            let (alpha, beta) = (&TABLES[0], &TABLES[1]);
            let a: Vec<String> = some_columns(rng, alpha)
                .iter()
                .map(|c| format!("alpha.{c}"))
                .collect();
            let b = pick(rng, beta.1).0;
            let side = if rng.gen_bool(0.5) {
                restriction(rng, "alpha.", alpha, &mut sql)
            } else {
                restriction(rng, "beta.", beta, &mut sql)
            };
            format!(
                "SELECT {}, beta.{b} FROM alpha, beta WHERE alpha.id = beta.aid AND {side}",
                a.join(", ")
            )
        }
    };
    sql
}

/// INSERT of a full row; DELETE by `=` / range conjunctions; UPDATE with
/// an all-`=` WHERE — on the primary key (the shape the home accepts) or
/// on anything at all, SETting anything at all, including a column its
/// own WHERE pins.
pub fn random_update(rng: &mut StdRng) -> Sql {
    let mut sql = Sql {
        text: String::new(),
        string_params: Vec::new(),
    };
    let table = pick(rng, &TABLES);
    let name = table.0;
    sql.text = match rng.gen_range(0..10) {
        0..=2 => {
            let mut columns: Vec<&str> = table.1.iter().map(|c| c.0).collect();
            sql.string_params.extend(table.1.iter().map(|c| c.1));
            // Now and then a column listed twice (which the home refuses,
            // but the pass must still decide the same way it always has).
            if rng.gen_bool(0.2) {
                let (column, is_str) = *pick(rng, table.1);
                columns.push(column);
                sql.string_params.push(is_str);
            }
            let marks = vec!["?"; columns.len()].join(", ");
            format!(
                "INSERT INTO {name} ({}) VALUES ({marks})",
                columns.join(", ")
            )
        }
        3..=5 => {
            let n = rng.gen_range(1..=2);
            let mut conjuncts: Vec<String> = (0..n)
                .map(|_| restriction(rng, "", table, &mut sql))
                .collect();
            if rng.gen_bool(0.1) {
                conjuncts.push(column_comparison(rng, table));
            }
            format!("DELETE FROM {name} WHERE {}", conjuncts.join(" AND "))
        }
        _ => {
            let by_key = rng.gen_bool(0.6);
            let is_key = |c: &str| table.2.contains(&c);
            let settable: Vec<_> = table
                .1
                .iter()
                .filter(|c| !(by_key && is_key(c.0)))
                .collect();
            let n_set = rng.gen_range(1..=2.min(settable.len()));
            let set: Vec<String> = (0..n_set)
                .map(|_| {
                    let (c, is_str) = **pick(rng, &settable);
                    sql.string_params.push(is_str);
                    format!("{c} = ?")
                })
                .collect();
            let keys: Vec<(&str, bool)> = if by_key {
                table.2.iter().map(|k| (*k, false)).collect()
            } else {
                let n = rng.gen_range(1..=2);
                (0..n).map(|_| *pick(rng, table.1)).collect()
            };
            let filter: Vec<String> = keys
                .iter()
                .map(|(c, is_str)| {
                    sql.string_params.push(*is_str);
                    format!("{c} = ?")
                })
                .collect();
            format!(
                "UPDATE {name} SET {} WHERE {}",
                set.join(", "),
                filter.join(" AND ")
            )
        }
    };
    sql
}

/// Parameters from `0..pool` that mix `Int(n)` with `Real(n.0)`, so equal
/// values meet in both spellings, and now and then fall between them.
pub fn random_params(rng: &mut StdRng, string_params: &[bool], pool: i64) -> Vec<Value> {
    string_params
        .iter()
        .map(|is_str| {
            let n = rng.gen_range(0..pool);
            match (is_str, rng.gen_range(0..10)) {
                (true, _) => Value::str(*pick(rng, &NAMES)),
                (false, 0..=6) => Value::Int(n),
                (false, 7..=8) => Value::real(n as f64),
                (false, _) => Value::real(n as f64 + 0.5),
            }
        })
        .collect()
}

pub fn random_level(rng: &mut StdRng, for_update: bool) -> ExposureLevel {
    match rng.gen_range(0..if for_update { 3 } else { 4 }) {
        0 => ExposureLevel::Blind,
        1 => ExposureLevel::Template,
        2 => ExposureLevel::Stmt,
        _ => ExposureLevel::View,
    }
}
