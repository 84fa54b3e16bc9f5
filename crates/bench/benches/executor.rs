//! Microbenchmarks: the home-server SPJ executor on the populated
//! bookstore and auction — point lookups, joins (probed and hashed), top-k
//! by scan + sort and by index walk, and grouped aggregation (the per-query
//! home CPU that the simulation's `home_cpu_query` models) — and the
//! `ShardedHome` scatter-gather layer over the same executor.

use criterion::{criterion_group, criterion_main, Criterion};
use scs_apps::{home_shard_map, BenchApp, ParamGen};
use scs_dssp::ShardedHome;
use scs_sqlkit::{parse_query, Query, Value};
use std::hint::black_box;
use std::sync::Arc;

fn bench_executor(c: &mut Criterion) {
    let (db, _) = BenchApp::Bookstore.build_database(1);
    let mut group = c.benchmark_group("executor");

    let cases: &[(&str, &str, Vec<Value>)] = &[
        (
            "pk_lookup",
            "SELECT i_title, i_cost FROM item WHERE i_id = ?",
            vec![Value::Int(42)],
        ),
        (
            "indexed_scan_order_by",
            "SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 50",
            vec![Value::str("history")],
        ),
        (
            "equality_join",
            "SELECT item.i_id, item.i_title FROM item, author \
             WHERE item.i_a_id = author.a_id AND author.a_lname = ? LIMIT 50",
            vec![Value::str("lee")],
        ),
        (
            "range_topk",
            "SELECT i_id, i_title, i_cost FROM item WHERE i_stock >= ? \
             ORDER BY i_cost LIMIT 20",
            vec![Value::Int(5)],
        ),
        (
            "group_by_join",
            "SELECT order_line.ol_i_id, SUM(order_line.ol_qty) FROM order_line, orders \
             WHERE order_line.ol_o_id = orders.o_id AND orders.o_date >= ? \
             GROUP BY order_line.ol_i_id",
            vec![Value::Int(3)],
        ),
        (
            "scalar_aggregate",
            "SELECT COUNT(*) FROM orders WHERE o_c_id = ?",
            vec![Value::Int(12)],
        ),
        // Bookstore `getCustomerAddress`: one restricted row, its partner
        // found by probing `address`'s primary-key index.
        (
            "pk_join_point",
            "SELECT address.addr_street, address.addr_city, address.addr_zip \
             FROM customer, address \
             WHERE customer.c_addr_id = address.addr_id AND customer.c_id = ?",
            vec![Value::Int(321)],
        ),
    ];

    for (name, sql, params) in cases {
        let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params.clone()).unwrap();
        group.bench_function(*name, |b| b.iter(|| black_box(db.execute(&q).unwrap())));
    }

    // Auction top-k at auction scale, 25 kept of ~1 300 items, both off an
    // ordered index: `getEndingAuctions` walks `it_end_date` from its lower
    // bound; `getItemsByCategory` walks `(it_category, it_end_date)` inside
    // one category's ~130 items instead of sorting that category's list.
    let (auction, _) = BenchApp::Auction.build_database(1);
    for (name, sql, params) in [
        (
            "range_topk_walk",
            "SELECT it_id, it_name, it_end_date FROM items WHERE it_end_date >= ? \
             ORDER BY it_end_date LIMIT 25",
            vec![Value::Int(2)],
        ),
        (
            "eq_prefix_topk_walk",
            "SELECT it_id, it_name, it_max_bid, it_end_date FROM items \
             WHERE it_category = ? AND it_end_date >= ? ORDER BY it_end_date LIMIT 25",
            vec![Value::Int(3), Value::Int(2)],
        ),
    ] {
        let q = Query::bind(0, Arc::new(parse_query(sql).unwrap()), params).unwrap();
        group.bench_function(name, |b| b.iter(|| black_box(auction.execute(&q).unwrap())));
    }
    group.finish();
    drop(db);
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_apply");
    group.bench_function("modify_by_pk", |b| {
        let (mut db, _) = BenchApp::Bookstore.build_database(2);
        let u = scs_sqlkit::Update::bind(
            0,
            Arc::new(
                scs_sqlkit::parse_update("UPDATE item SET i_stock = ? WHERE i_id = ?").unwrap(),
            ),
            vec![Value::Int(9), Value::Int(77)],
        )
        .unwrap();
        b.iter(|| black_box(db.apply(&u).unwrap()))
    });
    group.bench_function("insert_with_fk_checks", |b| {
        let (mut db, _) = BenchApp::Bookstore.build_database(3);
        let tpl = Arc::new(
            scs_sqlkit::parse_update(
                "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount) \
                 VALUES (?, ?, ?, ?, ?)",
            )
            .unwrap(),
        );
        let mut next = 1_000_000i64;
        b.iter(|| {
            next += 1;
            let u = scs_sqlkit::Update::bind(
                0,
                tpl.clone(),
                vec![
                    Value::Int(next),
                    Value::Int(100),
                    Value::Int(50),
                    Value::Int(1),
                    Value::Int(0),
                ],
            )
            .unwrap();
            black_box(db.apply(&u).unwrap())
        })
    });
    group.finish();
}

/// The auction's query templates, bound round-robin, against a 4-shard
/// home: the queries the partition map pins to one shard (routed) and the
/// ones it cannot (scattered), each set timed as one batch through
/// `ShardedHome::execute_query` and through the unsharded
/// `Database::execute` — the gap is what the sharded layer costs.
fn bench_scatter_gather(c: &mut Criterion) {
    let app = BenchApp::Auction;
    let def = app.def();
    let (db, ids) = app.build_database(1);
    let mut home = ShardedHome::new(db.clone(), home_shard_map(&def, 4));
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(1);
    let mut gen = ParamGen::new(ids, app.zipf_exponent());
    let queries: Vec<Query> = (0..4 * def.queries.len())
        .map(|i| {
            let tid = i % def.queries.len();
            let params = gen.bind_all(&def.queries[tid].params, &mut rng);
            Query::bind(tid, def.queries[tid].template.clone(), params).unwrap()
        })
        .collect();
    let (routed, scattered): (Vec<&Query>, Vec<&Query>) = queries
        .iter()
        .partition(|q| home.map().shards_for_query(q).len() == 1);

    let mut group = c.benchmark_group("scatter_gather");
    for (name, set) in [("routed", &routed), ("scattered", &scattered)] {
        group.bench_function(format!("{name}_x{}/sharded_home", set.len()), |b| {
            b.iter(|| {
                for q in set {
                    black_box(home.execute_query(q).unwrap());
                }
            })
        });
        group.bench_function(format!("{name}_x{}/unsharded", set.len()), |b| {
            b.iter(|| {
                for q in set {
                    black_box(db.execute(q).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor, bench_updates, bench_scatter_gather);
criterion_main!(benches);
