//! `Table`'s index lists against the scheme it replaced
//! (`support/reference_table.rs`): a primary-key map beside the equality
//! indexes, a `Vec` per posting, and every list left and re-joined on a
//! modify. Over random inserts (duplicate keys, reused slots), deletes and
//! modifies, on a table with a one-column key, one with a composite key and
//! a keyless one, every equality list (ids *and* order), every key look-up,
//! every returned row and the error of every refused insert must `==` the
//! reference's.
//!
//! Small value domains make multi-row lists, duplicate keys and lists that
//! shrink back to one row the rule. `SCS_EXECUTOR_CASES` sets the number of
//! cases (default 256).

#[path = "support/reference_table.rs"]
mod reference_table;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference_table::ReferenceTable;
use scs_sqlkit::Value;
use scs_storage::{ColumnType, RowId, Table, TableSchema};

/// A table's schema and each column's domain, in column order.
struct World {
    schema: TableSchema,
    domains: Vec<Vec<Value>>,
}

fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
    range.map(Value::Int).collect()
}

fn worlds() -> Vec<World> {
    let keyed = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .column("k", ColumnType::Real)
        .column("s", ColumnType::Str)
        .column("v", ColumnType::Int)
        .column("f", ColumnType::Int)
        .primary_key(&["id"])
        .foreign_key(&["f"], "p", &["id"])
        .index("k")
        .index("s");
    // `Int(1)` and `Real(1.0)` are two keys of an equality index.
    let k = vec![
        Value::Int(0),
        Value::Int(1),
        Value::real(1.0),
        Value::Int(2),
    ];
    let s = ["x", "y", "z"].into_iter().map(Value::str).collect();
    // The key's columns in another order than the table's.
    let composite = TableSchema::builder("gamma")
        .column("a", ColumnType::Int)
        .column("b", ColumnType::Int)
        .column("c", ColumnType::Int)
        .primary_key(&["b", "a"])
        .index("c");
    let keyless = TableSchema::builder("c")
        .column("k", ColumnType::Int)
        .column("x", ColumnType::Int)
        .index("k");
    vec![
        World {
            schema: keyed.build().unwrap(),
            domains: vec![ints(0..8), k, s, ints(-2..3), ints(0..3)],
        },
        World {
            schema: composite.build().unwrap(),
            domains: vec![ints(0..3), ints(0..3), ints(0..3)],
        },
        World {
            schema: keyless.build().unwrap(),
            domains: vec![ints(0..3), ints(0..3)],
        },
    ]
}

fn pick(rng: &mut StdRng, xs: &[Value]) -> Value {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// Every answer of the two tables' read surface agrees.
fn same_reads(world: &World, t: &Table, r: &ReferenceTable, step: usize) {
    for (pos, domain) in world.domains.iter().enumerate() {
        for v in domain {
            assert_eq!(
                t.index_lookup(pos, v),
                r.index_lookup(pos, v),
                "step {step}: `{}` column {pos} = {v}",
                world.schema.name
            );
        }
    }
    // Every key the domains hold, and keys one column short or long.
    let key_domains: Vec<&Vec<Value>> = world
        .schema
        .primary_key
        .iter()
        .map(|c| &world.domains[world.schema.column_index(c).unwrap()])
        .collect();
    let mut keys: Vec<Vec<Value>> = vec![vec![]];
    for domain in &key_domains {
        keys = keys
            .iter()
            .flat_map(|key| {
                domain.iter().map(move |v| {
                    let mut key = key.clone();
                    key.push(v.clone());
                    key
                })
            })
            .collect();
    }
    keys.push(vec![Value::Int(0)]);
    keys.push(vec![Value::Int(0); key_domains.len() + 1]);
    for key in &keys {
        assert_eq!(
            t.pk_lookup(key),
            r.pk_lookup(key),
            "step {step}: key {key:?}"
        );
    }
}

/// `steps` random operations on `world`'s table and on the reference.
fn drive(world: &World, rng: &mut StdRng, steps: usize) {
    let mut t = Table::new(world.schema.clone()).unwrap();
    let mut r = ReferenceTable::new(world.schema.clone());
    let unkeyed: Vec<usize> = (0..world.domains.len())
        .filter(|&p| !world.schema.is_key_column(&world.schema.columns[p].name))
        .collect();
    for step in 0..steps {
        // A live id, a dead one, or one past every live one.
        let bound: RowId = t.iter().map(|(id, _)| id + 1).max().unwrap_or(0);
        let any_id = rng.gen_range(0..bound + 1);
        match rng.gen_range(0..10) {
            0..=4 => {
                let row: Vec<Value> = world.domains.iter().map(|d| pick(rng, d)).collect();
                assert_eq!(t.insert(row.clone()), r.insert(row), "step {step}");
            }
            5..=7 => {
                let changes: Vec<(usize, Value)> = (0..rng.gen_range(1..3))
                    .map(|_| {
                        let pos = unkeyed[rng.gen_range(0..unkeyed.len())];
                        (pos, pick(rng, &world.domains[pos]))
                    })
                    .collect();
                assert_eq!(
                    t.modify(any_id, &changes),
                    r.modify(any_id, &changes),
                    "step {step}: modify {any_id} {changes:?}"
                );
            }
            _ => assert_eq!(t.delete(any_id), r.delete(any_id), "step {step}"),
        }
        same_reads(world, &t, &r, step);
    }
}

fn cases() -> u32 {
    std::env::var("SCS_EXECUTOR_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn index_lists_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for world in &worlds() {
            drive(world, &mut rng, 60);
        }
    }
}
