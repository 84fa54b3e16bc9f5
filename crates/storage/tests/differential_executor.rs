//! Differential tests: the executor must return, query by query, exactly
//! what the executor it replaced returns (`support/reference_executor.rs`)
//! — same columns, same rows, **same row order**, same `Err`. Row order is
//! observable: it decides which rows a top-k keeps, hence what the DSSP
//! caches and which invalidations fire.
//!
//! The executor plans a template once and keeps the plan by the template's
//! `Arc` (`scs_storage`'s `plan.rs`), so the tests hold each template's one
//! `Arc` across statements, data changes and catalog changes: a plan must
//! never hold anything a later statement of its template would contradict.

#[path = "support/reference_executor.rs"]
mod reference_executor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_apps::{BenchApp, BoundOp, ParamGen, RequestSampler};
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, Value};
use scs_storage::schema::TableSchemaBuilder;
use scs_storage::{ColumnType, Database, TableSchema};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// The three tables of a random world and their columns. Small value
/// domains make ties, duplicates and multi-row index lists the rule.
const TABLES: [(&str, &[&str]); 3] = [
    ("a", &["id", "k", "v", "s", "r"]),
    ("b", &["id", "a_id", "k", "w"]),
    ("c", &["k", "x"]), // keyless
];

fn columns_of(table: &str) -> &'static [&'static str] {
    TABLES.iter().find(|(t, _)| *t == table).unwrap().1
}

/// A value from `column`'s domain. `r` is a `Real` column that also holds
/// `Int`s: `Int(1)` and `Real(1.0)` compare equal but hash apart, so an
/// equality join on it tells a structural match from an ordered one.
fn domain_value(rng: &mut StdRng, column: &str, next_id: &mut i64) -> Value {
    match column {
        "id" => {
            *next_id += 1;
            Value::Int(*next_id)
        }
        "a_id" => Value::Int(rng.gen_range(1..12)),
        "k" => Value::Int(rng.gen_range(0..4)),
        "v" | "w" | "x" => Value::Int(rng.gen_range(-3..4)),
        "s" => Value::str(*pick(rng, &["x", "y", "z"])),
        "r" => pick(rng, &[Value::Int(1), Value::real(1.0), Value::real(2.5)]).clone(),
        other => panic!("no domain for {other}"),
    }
}

/// A value to compare `column` with (ids are drawn from those handed out).
fn probe_value(rng: &mut StdRng, column: &str, next_id: i64) -> Value {
    match column {
        "id" => Value::Int(rng.gen_range(0..next_id + 2)),
        _ => domain_value(rng, column, &mut 0),
    }
}

/// Up to two ordered indexes on lists of one to three of `columns`, drawn
/// without regard to which of them carry an equality index.
fn with_column_lists(
    rng: &mut StdRng,
    mut schema: TableSchemaBuilder,
    columns: &[&str],
) -> TableSchemaBuilder {
    for _ in 0..rng.gen_range(0..3) {
        let mut list: Vec<&str> = Vec::new();
        for _ in 0..rng.gen_range(1..=columns.len().min(3)) {
            let col = *pick(rng, columns);
            if !list.contains(&col) {
                list.push(col);
            }
        }
        schema = schema.ordered_index_on(&list);
    }
    schema
}

/// Random schemas: every join column is indexed in some worlds and not in
/// others, as a primary key, a foreign key or a declared index; every
/// column a query may order by carries an ordered index in half of them,
/// beside or without an equality index (`r`'s `Int(1)` and `Real(1.0)` tie
/// as sort keys, so they must share a value group of a descending walk);
/// and most tables carry ordered indexes on column lists, whose leading
/// columns have an equality index in some worlds and none in others.
fn random_schemas(rng: &mut StdRng) -> [TableSchema; 3] {
    let mut a = TableSchema::builder("a")
        .column("id", ColumnType::Int)
        .column("k", ColumnType::Int)
        .column("v", ColumnType::Int)
        .column("s", ColumnType::Str)
        .column("r", ColumnType::Real)
        .primary_key(&["id"]);
    for col in ["k", "s", "r"] {
        if rng.gen_bool(0.5) {
            a = a.index(col);
        }
    }
    for col in ["k", "v", "s", "r"] {
        if rng.gen_bool(0.5) {
            a = a.ordered_index(col);
        }
    }
    a = with_column_lists(rng, a, &["k", "v", "s", "r"]);
    let mut b = TableSchema::builder("b")
        .column("id", ColumnType::Int)
        .column("a_id", ColumnType::Int)
        .column("k", ColumnType::Int)
        .column("w", ColumnType::Int)
        .primary_key(&["id"]);
    match rng.gen_range(0..3) {
        0 => b = b.foreign_key(&["a_id"], "a", &["id"]),
        1 => b = b.index("a_id"),
        _ => {}
    }
    if rng.gen_bool(0.5) {
        b = b.index("k");
    }
    for col in ["k", "w"] {
        if rng.gen_bool(0.5) {
            b = b.ordered_index(col);
        }
    }
    b = with_column_lists(rng, b, &["a_id", "k", "w"]);
    let mut c = TableSchema::builder("c")
        .column("k", ColumnType::Int)
        .column("x", ColumnType::Int);
    if rng.gen_bool(0.5) {
        c = c.index("k");
    }
    for col in ["k", "x"] {
        if rng.gen_bool(0.5) {
            c = c.ordered_index(col);
        }
    }
    c = with_column_lists(rng, c, &["k", "x"]);
    [a, b, c].map(|schema| schema.build().unwrap())
}

fn update(sql: &str, params: Vec<Value>) -> Update {
    Update::bind(0, Arc::new(parse_update(sql).unwrap()), params).unwrap()
}

/// A random insert/delete/modify history. Deletes leave dead slots and
/// `swap_remove` holes in index lists; later inserts reuse the slots and
/// push low row ids behind high ones; modifies re-push entries — so scan
/// order, index-list order and ascending-`RowId` order all differ.
/// Ids go on from `next_id`, so a database takes one history after another.
fn random_history(rng: &mut StdRng, db: &mut Database, next_id: &mut i64) {
    for (table, columns) in TABLES {
        // Up to ~50 rows: past the length where an unstable sort is an
        // insertion sort (and so stable by accident).
        let ops: usize = *pick(rng, &[0, 8, 40, 80, 80]);
        for _ in 0..ops {
            match rng.gen_range(0..10) {
                0..=6 => {
                    let row = columns
                        .iter()
                        .map(|c| domain_value(rng, c, next_id))
                        .collect();
                    db.insert_row(table, row).unwrap();
                }
                7 => {
                    // By `id` one row goes; by any other column, several.
                    let col = if rng.gen_bool(0.7) {
                        columns[0]
                    } else {
                        *pick(rng, columns)
                    };
                    let v = probe_value(rng, col, *next_id);
                    db.apply(&update(
                        &format!("DELETE FROM {table} WHERE {col} = ?"),
                        vec![v],
                    ))
                    .unwrap();
                }
                _ => {
                    // Any column but the first: never a primary key.
                    let set = *pick(rng, &columns[1..]);
                    let by = *pick(rng, columns);
                    let to = domain_value(rng, set, next_id);
                    let v = probe_value(rng, by, *next_id);
                    db.apply(&update(
                        &format!("UPDATE {table} SET {set} = ? WHERE {by} = ?"),
                        vec![to, v],
                    ))
                    .unwrap();
                }
            }
        }
    }
}

/// A random query of the §2.1 model over 1–3 aliases (self-joins
/// included): restrictions, column-column predicates, equality and theta
/// joins, then either a plain projection with multi-key `ORDER BY` or
/// `GROUP BY` with every aggregate — some of them ill-typed or misnamed on
/// purpose, so `Err`s are compared too. Returned with the column each of
/// its parameters is compared with, to draw parameters from.
fn random_query(rng: &mut StdRng) -> (String, Vec<&'static str>) {
    const OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];
    let n = *pick(rng, &[1, 1, 2, 2, 2, 3]);
    let aliases: Vec<(String, &str)> = (0..n)
        .map(|i| (format!("t{i}"), pick(rng, &TABLES).0))
        .collect();
    let any_col = |rng: &mut StdRng| {
        let (alias, table) = pick(rng, &aliases);
        let col = *pick(rng, columns_of(table));
        (format!("{alias}.{col}"), col)
    };

    let mut preds: Vec<String> = Vec::new();
    let mut params: Vec<&'static str> = Vec::new();
    // Join predicates: chain each alias to an earlier one, mostly by `=`.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let joins = if n == 3 { 1 } else { rng.gen_range(0..3) };
        for extra in 0..joins {
            // Mostly columns whose domains meet, so joins have matches.
            let (lc, rc) = match (rng.gen_range(0..10), aliases[i].1, aliases[j].1) {
                (0..=2, "b", "a") => ("a_id", "id"),
                (0..=2, "a", "b") => ("id", "a_id"),
                (3, "a", _) => ("r", "k"),
                (3, _, "a") => ("k", "r"),
                (0..=6, ..) => ("k", "k"),
                _ => (
                    *pick(rng, columns_of(aliases[i].1)),
                    *pick(rng, columns_of(aliases[j].1)),
                ),
            };
            let op = if rng.gen_bool(if extra == 0 { 0.8 } else { 0.5 }) {
                "="
            } else {
                *pick(rng, &OPS)
            };
            preds.push(format!("t{i}.{lc} {op} t{j}.{rc}"));
        }
    }
    for (alias, table) in &aliases {
        for _ in 0..*pick(rng, &[0, 0, 0, 1, 1, 2]) {
            let col = *pick(rng, columns_of(table));
            if rng.gen_bool(0.15) {
                let other = *pick(rng, columns_of(table));
                preds.push(format!("{alias}.{col} {} {alias}.{other}", pick(rng, &OPS)));
            } else {
                preds.push(format!("{alias}.{col} {} ?", pick(rng, &OPS)));
                params.push(col);
            }
        }
    }
    // Shuffle: which indexed restriction comes first picks the access path.
    for i in (1..preds.len()).rev() {
        // Parameters are positional, so only param-free swaps keep the binding.
        let j = rng.gen_range(0..=i);
        if !preds[i].contains('?') && !preds[j].contains('?') {
            preds.swap(i, j);
        }
    }

    let mut sql = String::from("SELECT ");
    let mut tail = String::new();
    if rng.gen_bool(0.35) {
        let group: Vec<String> = (0..*pick(rng, &[0, 1, 1, 2]))
            .map(|_| any_col(rng).0)
            .collect();
        let mut items: Vec<String> = group
            .iter()
            .filter(|_| rng.gen_bool(0.8))
            .cloned()
            .collect();
        for _ in 0..rng.gen_range(if items.is_empty() { 1 } else { 0 }..3) {
            let func = *pick(rng, &["COUNT", "SUM", "MIN", "MAX", "AVG"]);
            let a_alias = aliases.iter().find(|(_, table)| *table == "a");
            items.push(match a_alias {
                _ if func == "COUNT" && rng.gen_bool(0.5) => "COUNT(*)".to_string(),
                // `r` mixes `Int(1)` and `Real(1.0)`: which of two equal
                // extrema MIN / MAX return, and SUM's Int-or-float rule.
                Some((alias, _)) if rng.gen_bool(0.3) => format!("{func}({alias}.r)"),
                _ => format!("{func}({})", any_col(rng).0),
            });
        }
        if rng.gen_bool(0.05) {
            items.push(any_col(rng).0); // most likely not grouped: an error
        }
        sql += &items.join(", ");
        if !group.is_empty() {
            tail += &format!(" GROUP BY {}", group.join(", "));
            if rng.gen_bool(0.5) {
                let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };
                tail += &format!(" ORDER BY {}{desc}", pick(rng, &group));
            }
        }
    } else {
        let items: Vec<String> = (0..rng.gen_range(1..4)).map(|_| any_col(rng).0).collect();
        sql += &items.join(", ");
        let keys: Vec<String> = (0..*pick(rng, &[0, 0, 1, 1, 2, 3]))
            .map(|_| {
                let desc = if rng.gen_bool(0.4) { " DESC" } else { "" };
                format!("{}{desc}", any_col(rng).0)
            })
            .collect();
        if !keys.is_empty() {
            tail += &format!(" ORDER BY {}", keys.join(", "));
        }
    }
    match rng.gen_range(0..6) {
        0 => tail += " LIMIT 0",
        1 => tail += " LIMIT 1",
        2 => tail += &format!(" LIMIT {}", rng.gen_range(2..12)),
        3 => tail += " LIMIT 100000",
        _ => {}
    }

    sql += " FROM ";
    sql += &aliases
        .iter()
        .map(|(alias, table)| format!("{table} {alias}"))
        .collect::<Vec<_>>()
        .join(", ");
    if !preds.is_empty() {
        sql += &format!(" WHERE {}", preds.join(" AND "));
    }
    if rng.gen_bool(0.02) {
        sql = sql.replacen(".k", ".nope", 1); // an unknown column somewhere
    }
    (sql + &tail, params)
}

/// A top-k aimed at one of the ordered indexes `schemas` declare: `=` on
/// each column before the list's last, `ORDER BY` the last, a small
/// `LIMIT` — the domains hold two to four values, so the cut falls inside
/// a group of ties more often than not. Now and then one condition of the
/// rule is broken (a prefix column compared by another operator or not at
/// all, a second sort key, no `LIMIT`), and further restrictions — on the
/// key, on any column — ride along, in any order.
fn prefixed_top_k(rng: &mut StdRng, schemas: &[TableSchema; 3]) -> (String, Vec<&'static str>) {
    const OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];
    let lists: Vec<(&TableSchema, &Vec<String>)> = schemas
        .iter()
        .flat_map(|t| t.ordered_indexes.iter().map(move |list| (t, list)))
        .collect();
    if lists.is_empty() {
        return random_query(rng);
    }
    let (table, list) = *pick(rng, &lists);
    let columns = columns_of(&table.name);
    let column = |name: &String| *columns.iter().find(|c| **c == name.as_str()).unwrap();
    let (key, prefix) = list.split_last().unwrap();
    let mut preds: Vec<(String, &'static str)> = Vec::new();
    for col in prefix {
        match rng.gen_range(0..20) {
            0 => {}
            1 => preds.push((format!("{col} {} ?", pick(rng, &OPS)), column(col))),
            _ => preds.push((format!("{col} = ?"), column(col))),
        }
    }
    if rng.gen_bool(0.5) {
        preds.push((format!("{key} {} ?", pick(rng, &OPS)), column(key)));
    }
    if rng.gen_bool(0.3) {
        let col = *pick(rng, columns);
        preds.push((format!("{col} {} ?", pick(rng, &OPS)), col));
    }
    for i in (1..preds.len()).rev() {
        preds.swap(i, rng.gen_range(0..=i));
    }
    let mut sql = format!("SELECT {}", pick(rng, columns));
    for _ in 0..rng.gen_range(0..2) {
        sql += &format!(", {}", pick(rng, columns));
    }
    sql += &format!(" FROM {}", table.name);
    if !preds.is_empty() {
        let texts: Vec<&str> = preds.iter().map(|(text, _)| text.as_str()).collect();
        sql += &format!(" WHERE {}", texts.join(" AND "));
    }
    sql += &format!(" ORDER BY {key}");
    if rng.gen_bool(0.5) {
        sql += " DESC";
    }
    if rng.gen_bool(0.05) {
        sql += &format!(", {}", pick(rng, columns));
    }
    if !rng.gen_bool(0.05) {
        sql += &format!(" LIMIT {}", pick(rng, &[1, 2, 3, 4, 6, 9, 100000]));
    }
    (sql, preds.into_iter().map(|(_, col)| col).collect())
}

/// A random template, parsed once, with its parameters' columns: one in
/// four is aimed at an ordered index the schemas declare.
fn random_template(
    rng: &mut StdRng,
    schemas: &[TableSchema; 3],
) -> (Arc<QueryTemplate>, Vec<&'static str>) {
    let (sql, param_columns) = if rng.gen_bool(0.25) {
        prefixed_top_k(rng, schemas)
    } else {
        random_query(rng)
    };
    let Ok(template) = parse_query(&sql) else {
        panic!("generator produced unparsable SQL: {sql}");
    };
    (Arc::new(template), param_columns)
}

/// A statement of `template` with fresh parameters. Every template of these
/// tests is bound under `template_id` 0: the id says nothing about which
/// template a statement belongs to.
fn bind_fresh(
    rng: &mut StdRng,
    (template, param_columns): &(Arc<QueryTemplate>, Vec<&'static str>),
    next_id: i64,
) -> Query {
    let params = param_columns
        .iter()
        .map(|col| probe_value(rng, col, next_id))
        .collect();
    Query::bind(0, template.clone(), params).unwrap()
}

fn cases() -> u32 {
    std::env::var("SCS_EXECUTOR_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Cases of [`executor_equals_reference`] run so far, and those of them
/// in which a statement was planned as a walk under an `=`-bound prefix.
static CASES_RUN: AtomicU32 = AtomicU32::new(0);
static CASES_PREFIXED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Over random indexed and unindexed tables with dead slots, reused
    /// slots and unsorted index lists: `execute` == the reference, as a
    /// `Result`, rows in order — for twelve templates at a time on one
    /// database, each held by one `Arc` and executed with fresh parameters
    /// before table `c` exists (a template over it is an `UnknownTable`
    /// then, and must stop being one), after a first history and after a
    /// second; then for templates minted and dropped one after the other,
    /// whose `Arc`s the allocator hands the same address. The sweep must
    /// reach the prefixed walk: the last case prints in how many cases one
    /// was planned, and fails under one in ten.
    #[test]
    fn executor_equals_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schemas = random_schemas(&mut rng);
        let [a, b, c] = schemas.clone();
        let mut db = Database::new();
        db.create_table(a).unwrap();
        db.create_table(b).unwrap();
        let templates: Vec<_> = (0..12).map(|_| random_template(&mut rng, &schemas)).collect();
        let mut c = Some(c);
        let mut next_id = 0;
        let mut prefixed = false;
        for round in 0..3 {
            for template in &templates {
                let q = bind_fresh(&mut rng, template, next_id);
                prefixed |= db.walk_prefix(&q).is_some_and(|columns| columns > 0);
                prop_assert_eq!(
                    db.execute(&q),
                    reference_executor::execute(&db, &q),
                    "seed {} round {} query `{}`", seed, round, q
                );
            }
            if let Some(c) = c.take() {
                db.create_table(c).unwrap();
            }
            random_history(&mut rng, &mut db, &mut next_id);
        }
        for _ in 0..12 {
            let template = random_template(&mut rng, &schemas);
            let q = bind_fresh(&mut rng, &template, next_id);
            prefixed |= db.walk_prefix(&q).is_some_and(|columns| columns > 0);
            prop_assert_eq!(
                db.execute(&q),
                reference_executor::execute(&db, &q),
                "seed {} query `{}`", seed, q
            );
        }
        let prefixed = CASES_PREFIXED.fetch_add(u32::from(prefixed), Ordering::Relaxed)
            + u32::from(prefixed);
        let run = CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1;
        if run == cases() {
            println!("executor_equals_reference: {prefixed} of {run} cases planned a prefixed walk");
            prop_assert!(prefixed * 10 >= run, "the sweep misses the prefixed walk");
        }
    }
}

/// The first `requests` requests of an application's stream (a request
/// type drawn by weight, each operation bound with fresh parameters — the
/// simulator's own draw sequence), replayed against one database: every
/// query answers identically under both executors, before the next update
/// moves the data on.
fn replay(app: BenchApp, requests: usize, seed: u64) {
    let def = app.def();
    let (mut db, ids) = app.build_database(seed);
    let mut stream = RequestSampler::new(&def, ParamGen::new(ids, app.zipf_exponent()), seed);
    let (mut queries, mut nonempty) = (0usize, 0usize);
    for op in (0..requests).flat_map(|_| stream.draw()) {
        match op {
            BoundOp::Query(q) => {
                let got = db.execute(&q);
                assert_eq!(
                    got,
                    reference_executor::execute(&db, &q),
                    "{} `{}`: {q}",
                    def.name,
                    def.queries[q.template_id].name
                );
                queries += 1;
                nonempty += usize::from(got.is_ok_and(|r| !r.is_empty()));
            }
            // Some inserts are rejected (a parent closed earlier).
            BoundOp::Update(u) => {
                let _ = db.apply(&u);
            }
        }
    }
    assert!(queries > requests, "{}: {queries} queries", def.name);
    assert!(nonempty * 2 > queries, "{}: mostly empty results", def.name);
}

#[test]
fn auction_stream_replays_identically() {
    replay(BenchApp::Auction, 2_000, 42);
}

#[test]
fn bookstore_stream_replays_identically() {
    replay(BenchApp::Bookstore, 2_000, 42);
}

/// `bboard` is no `dsspbench` workload: this replay is all the executor
/// coverage its five `c = ? ORDER BY d DESC LIMIT k` templates and three
/// ordered indexes get.
#[test]
fn bboard_stream_replays_identically() {
    replay(BenchApp::Bboard, 2_000, 42);
}

/// `t(id, c, d, v)` ordered on `(c, d)`, `c` with an equality index when
/// `listed`. Rows 0–7 hold `c = 1` but for row 4; `d` is 5 on rows 0, 2,
/// 5 and 7, less on rows 1 and 3, more on row 6.
fn tied(listed: bool, c_type: ColumnType) -> Database {
    let mut t = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .column("c", c_type)
        .column("d", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["id"])
        .ordered_index_on(&["c", "d"]);
    if listed {
        t = t.index("c");
    }
    let mut db = Database::new();
    db.create_table(t.build().unwrap()).unwrap();
    for (id, d) in [5, 2, 5, 3, 5, 5, 8, 5].into_iter().enumerate() {
        let c = Value::Int(if id == 4 { 2 } else { 1 });
        let row = vec![Value::Int(id as i64), c, Value::Int(d), Value::Int(0)];
        db.insert_row("t", row).unwrap();
    }
    db
}

/// The rows `sql` returns on `db`, first column as integers — checked to
/// be the reference's, and to come off a walk under a one-column prefix.
fn prefixed_ids(db: &Database, sql: &str, params: Vec<Value>) -> Vec<i64> {
    let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
    assert_eq!(db.walk_prefix(&q), Some(1), "`{q}`");
    let got = db.execute(&q);
    assert_eq!(got, reference_executor::execute(db, &q), "`{q}`");
    let ids = got.unwrap().rows.into_iter().map(|row| match row[0] {
        Value::Int(id) => id,
        ref other => panic!("expected Int, got {other:?}"),
    });
    ids.collect()
}

/// Rows tying on the sort key come out in the order the equality list
/// holds them, not in row-id order: a modify of a column that is in no
/// index sends row 2 to the end of `c = 1`'s list, a delete swaps the last
/// entry into row 0's place and a re-insert appends it — and the cut
/// falls inside the group, up the keys and down.
#[test]
fn ties_keep_the_equality_lists_order() {
    let mut db = tied(true, ColumnType::Int);
    let set_v = "UPDATE t SET v = ? WHERE id = ?";
    db.apply(&update(set_v, vec![Value::Int(9), Value::Int(2)]))
        .unwrap();
    db.apply(&update("DELETE FROM t WHERE id = ?", vec![Value::Int(0)]))
        .unwrap();
    let row = [0, 1, 5, 0].map(Value::Int).to_vec();
    assert_eq!(db.insert_row("t", row).unwrap(), 0, "slot 0 again");
    let list = db
        .table("t")
        .unwrap()
        .index_lookup(1, &Value::Int(1))
        .unwrap();
    assert_eq!(
        list,
        [2, 1, 7, 3, 5, 6, 0],
        "2 went last, 0 left, 2 took its place, 0 came back"
    );
    let one = || vec![Value::Int(1)];
    // The tie group on `d = 5` is 2, 7, 5, 0 in list order.
    let up = "SELECT id, d FROM t WHERE c = ? ORDER BY d LIMIT";
    assert_eq!(
        prefixed_ids(&db, &format!("{up} 100"), one()),
        [1, 3, 2, 7, 5, 0, 6]
    );
    assert_eq!(prefixed_ids(&db, &format!("{up} 3"), one()), [1, 3, 2]);
    assert_eq!(prefixed_ids(&db, &format!("{up} 4"), one()), [1, 3, 2, 7]);
    assert_eq!(
        prefixed_ids(&db, &format!("{up} 5"), one()),
        [1, 3, 2, 7, 5]
    );
    let down = "SELECT id, d FROM t WHERE c = ? AND d <= ? ORDER BY d DESC LIMIT";
    let five = || vec![Value::Int(1), Value::Int(5)];
    assert_eq!(prefixed_ids(&db, &format!("{down} 1"), five()), [2]);
    assert_eq!(prefixed_ids(&db, &format!("{down} 3"), five()), [2, 7, 5]);
    assert_eq!(
        prefixed_ids(&db, &format!("{down} 5"), five()),
        [2, 7, 5, 0, 3]
    );
    // Without the equality index the candidates are a scan's: row-id order.
    let mut db = tied(false, ColumnType::Int);
    db.apply(&update(set_v, vec![Value::Int(9), Value::Int(2)]))
        .unwrap();
    assert_eq!(prefixed_ids(&db, &format!("{up} 4"), one()), [1, 3, 0, 2]);
    assert_eq!(prefixed_ids(&db, &format!("{down} 3"), five()), [0, 2, 5]);
}

/// `Int(1)` and `Real(1.0)` on the prefix column tie, so the walk finds
/// both; the candidates are those the plan without the walk would have: the
/// rows on the parameter's own equality list where `c` has one, every row
/// that compares equal where it has none.
#[test]
fn an_int_and_a_real_on_the_prefix_column() {
    let sql = "SELECT id FROM t WHERE c = ? ORDER BY d LIMIT 4";
    for listed in [true, false] {
        let mut db = tied(listed, ColumnType::Real);
        for id in [1, 5, 7] {
            let set_c = "UPDATE t SET c = ? WHERE id = ?";
            db.apply(&update(set_c, vec![Value::real(1.0), Value::Int(id)]))
                .unwrap();
        }
        let as_int = prefixed_ids(&db, sql, vec![Value::Int(1)]);
        let as_real = prefixed_ids(&db, sql, vec![Value::real(1.0)]);
        if listed {
            assert_eq!((as_int, as_real), (vec![3, 0, 2, 6], vec![1, 5, 7]));
        } else {
            assert_eq!((as_int, as_real), (vec![1, 3, 0, 2], vec![1, 3, 0, 2]));
        }
    }
}

/// The plans the applications' templates get, by name: the auction's four
/// top-k templates walk, `getItemsByCategory` under its category; the
/// bookstore and the bulletin board declare no column list and walk what
/// they walked before there were any.
#[test]
fn the_applications_templates_walk_where_they_should() {
    let walks = |app: BenchApp| -> Vec<(String, usize)> {
        let (db, ids) = app.build_database(42);
        let mut rng = StdRng::seed_from_u64(42);
        let mut gen = ParamGen::new(ids, app.zipf_exponent());
        let def = app.def();
        let planned = def.queries.iter().enumerate().filter_map(|(tid, t)| {
            let params = gen.bind_all(&t.params, &mut rng);
            let q = Query::bind(tid, t.template.clone(), params).unwrap();
            Some((t.name.to_string(), db.walk_prefix(&q)?))
        });
        planned.collect()
    };
    let named = |walks: &[(&str, usize)]| -> Vec<(String, usize)> {
        walks
            .iter()
            .map(|(name, n)| (name.to_string(), *n))
            .collect()
    };
    assert_eq!(
        walks(BenchApp::Auction),
        named(&[
            ("getItemsByCategory", 1),
            ("getEndingAuctions", 0),
            ("getHotItems", 0),
            ("getCheapOpenAuctions", 0),
        ])
    );
    assert_eq!(
        walks(BenchApp::Bookstore),
        named(&[("getNewestOrders", 0), ("getCheapestInStock", 0)])
    );
    assert_eq!(
        walks(BenchApp::Bboard),
        named(&[
            ("storiesOfTheDay", 0),
            ("getTopComments", 0),
            ("getHotStories", 0)
        ])
    );
}

/// `users` and `items` of a small marketplace, twice: in `keyed`,
/// `users.u_id` is the primary key; in the `twin` it is a declared,
/// non-unique index, and one seller has two rows. Same rows otherwise,
/// same history: a modify moves user 2 to the end of its index lists, so
/// list order, scan order and ascending row id all differ.
fn marketplace(keyed: bool) -> Database {
    let users = TableSchema::builder("users")
        .column("u_id", ColumnType::Int)
        .column("region", ColumnType::Int)
        .column("score", ColumnType::Real)
        .column("name", ColumnType::Str)
        .index("region")
        .index("score");
    let users = if keyed {
        users.primary_key(&["u_id"])
    } else {
        users.index("u_id")
    };
    let items = TableSchema::builder("items")
        .column("it_id", ColumnType::Int)
        .column("seller", ColumnType::Int)
        .column("cat", ColumnType::Int)
        .column("price", ColumnType::Real)
        .column("qty", ColumnType::Int)
        .primary_key(&["it_id"])
        .index("seller")
        .index("cat");
    let mut db = Database::new();
    db.create_table(users.build().unwrap()).unwrap();
    db.create_table(items.build().unwrap()).unwrap();
    let big = 10_000_000_000_000_000i64; // 1e16: adding 1.0 to it is lost
    let scores = [Value::Int(1), Value::real(1.0), Value::real(2.5)];
    for u in 0..8i64 {
        let score = scores[u as usize % 3].clone();
        let row = vec![
            Value::Int(u),
            Value::Int(u % 2),
            score,
            Value::str(format!("u{u}")),
        ];
        db.insert_row("users", row).unwrap();
    }
    if !keyed {
        // A second user 2, in the same region.
        let row = vec![
            Value::Int(2),
            Value::Int(0),
            Value::Int(1),
            Value::str("u2b"),
        ];
        db.insert_row("users", row).unwrap();
    }
    let prices = [
        Value::Int(big),
        Value::real(1.0),
        Value::Int(-big),
        Value::real(0.5),
    ];
    for it in 0..24i64 {
        let qty = if it == 20 { i64::MAX } else { it % 5 };
        let row = vec![
            Value::Int(it),
            Value::Int((it * 3) % 8),
            Value::Int(it % 4),
            prices[it as usize % 4].clone(),
            Value::Int(qty),
        ];
        db.insert_row("items", row).unwrap();
    }
    for (sql, params) in [
        (
            "UPDATE users SET name = ? WHERE name = ?",
            vec![Value::str("u2'"), Value::str("u2")],
        ),
        ("DELETE FROM items WHERE it_id = ?", vec![Value::Int(5)]),
        (
            "UPDATE items SET qty = ? WHERE it_id = ?",
            vec![Value::Int(4), Value::Int(2)],
        ),
    ] {
        db.apply(&update(sql, params)).unwrap();
    }
    db
}

/// One case per streamed consumer and for the primary-key probe: the
/// executor against the reference on `marketplace(true)` and on its twin,
/// each template through one `Arc` for all its parameter sets.
#[test]
fn streamed_consumers_and_the_key_probe_equal_the_reference() {
    let int = |i| vec![Value::Int(i)];
    let cases: Vec<(&str, Vec<Vec<Value>>)> =
        vec![
        // Groups in first-seen order with the fold fused into the probe:
        // `users` arrives in region-list order, `items` is probed per user.
        (
            "SELECT items.cat, COUNT(*), SUM(items.qty), MIN(items.it_id) FROM users, items \
             WHERE items.seller = users.u_id AND users.region = ? GROUP BY items.cat",
            vec![int(0), int(1), int(7)],
        ),
        // SUM / AVG over `Int`s and `Real`s add as floats in arrival order
        // (1e16 + 1.0 - 1e16 is not 1.0 + 1e16 - 1e16); all-`Int` saturates.
        ("SELECT SUM(price), AVG(price), SUM(qty) FROM items", vec![vec![]]),
        (
            "SELECT seller, SUM(price), SUM(qty) FROM items WHERE cat >= ? GROUP BY seller",
            vec![int(0), int(2)],
        ),
        // Of `Int(1)` and `Real(1.0)` MIN keeps the first, MAX the last.
        ("SELECT MIN(score), MAX(score) FROM users WHERE score <= ?", vec![int(1)]),
        (
            "SELECT region, MIN(score), MAX(score) FROM users GROUP BY region ORDER BY region DESC",
            vec![vec![]],
        ),
        // `LIMIT` without `ORDER BY` cuts the stream; `LIMIT 0` is empty
        // for every consumer.
        ("SELECT it_id FROM items WHERE qty >= ? LIMIT 3", vec![int(0), int(4), int(9)]),
        (
            "SELECT items.it_id, users.name FROM users, items \
             WHERE items.seller = users.u_id AND users.region = ? LIMIT 4",
            vec![int(0), int(1)],
        ),
        ("SELECT it_id FROM items LIMIT 0", vec![vec![]]),
        ("SELECT it_id FROM items ORDER BY qty LIMIT 0", vec![vec![]]),
        ("SELECT cat, COUNT(*) FROM items GROUP BY cat LIMIT 0", vec![vec![]]),
        ("SELECT COUNT(*) FROM items LIMIT 0", vec![vec![]]),
        // A filtered alias joined on `users.u_id`, after the fewer
        // `items`: probed where that is the primary key, hashed in the
        // twin, whose two users 2 must come in region-list order (the
        // later row first).
        (
            "SELECT items.it_id, users.name FROM items, users \
             WHERE items.seller = users.u_id AND users.region = ? \
             AND items.it_id >= ? AND items.it_id <= ?",
            vec![
                vec![Value::Int(0), Value::Int(4), Value::Int(7)],
                vec![Value::Int(1), Value::Int(0), Value::Int(3)],
            ],
        ),
        (
            "SELECT users.name, COUNT(*), MAX(items.it_id) FROM items, users \
             WHERE items.seller = users.u_id AND users.region = ? AND items.cat = ? \
             AND items.it_id >= ? GROUP BY users.name",
            vec![vec![Value::Int(0), Value::Int(2), Value::Int(12)]],
        ),
        // The probed row must be a *candidate*: `score = 1` reads the
        // index list of `Int(1)`, which the `Real(1.0)` sellers of items
        // 3 and 4 are not on though they pass the comparison.
        (
            "SELECT items.it_id, users.name FROM items, users \
             WHERE items.seller = users.u_id AND users.score = ? \
             AND items.it_id >= ? AND items.it_id <= ?",
            vec![
                vec![Value::Int(1), Value::Int(3), Value::Int(4)],
                vec![Value::real(1.0), Value::Int(3), Value::Int(4)],
                vec![Value::Int(1), Value::Int(0), Value::Int(1)],
            ],
        ),
        // An aggregate's unknown argument is an error once a group exists,
        // not before.
        ("SELECT MAX(users.nope) FROM users WHERE region = ?", vec![int(9), int(0)]),
        ("SELECT COUNT(users.nope) FROM users WHERE region = ?", vec![int(9), int(0)]),
        (
            "SELECT region, SUM(users.nope) FROM users WHERE region >= ? GROUP BY region",
            vec![int(9), int(0)],
        ),
        ("SELECT region, COUNT(*) FROM users GROUP BY region ORDER BY name", vec![vec![]]),
    ];
    for db in [marketplace(true), marketplace(false)] {
        let mut nonempty = 0;
        for (sql, param_sets) in &cases {
            let template = Arc::new(parse_query(sql).unwrap());
            for params in param_sets {
                let q = Query::bind(0, template.clone(), params.clone()).unwrap();
                let got = db.execute(&q);
                assert_eq!(got, reference_executor::execute(&db, &q), "`{q}`");
                nonempty += usize::from(got.is_ok_and(|r| !r.is_empty()));
            }
        }
        assert!(nonempty >= 15, "{nonempty} non-empty results");
    }
}
