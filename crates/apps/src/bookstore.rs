//! `bookstore` — a TPC-W-like transactional e-commerce application
//! (§5.1): an online book store with **28 query templates** (the count the
//! paper reports for TPC-W in §5.4, of which its static analysis could
//! encrypt 21 result sets for free) and 12 update templates.
//!
//! Book popularity follows the Brynjolfsson et al. Zipf distribution
//! (`log Q = 10.526 − 0.871 log R`) as in the paper's modified TPC-W; the
//! workload driver samples `ParamSpec::PopularId("item")` accordingly.
//! Credit-card transactions (`cc_xacts`) are the California-SB-1386
//! sensitive data of the evaluation.

use crate::defs::{query_def, update_def, AppDef, Op, ParamSpec, RequestType, Sensitivity};
use crate::gen::words;
use rand::rngs::StdRng;
use rand::Rng;
use scs_core::Attr;
use scs_sqlkit::Value;
use scs_storage::{ColumnType, Database, TableSchema};

/// Row counts used by [`populate`] (per scale unit).
#[derive(Debug, Clone, Copy)]
pub struct BookstoreScale {
    pub items: i64,
    pub customers: i64,
    pub authors: i64,
}

impl Default for BookstoreScale {
    fn default() -> Self {
        BookstoreScale {
            items: 1_000,
            customers: 1_440,
            authors: 250,
        }
    }
}

pub fn schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("country")
            .column("co_id", ColumnType::Int)
            .column("co_name", ColumnType::Str)
            .primary_key(&["co_id"])
            .index("co_name")
            .build()
            .expect("static schema"),
        TableSchema::builder("address")
            .column("addr_id", ColumnType::Int)
            .column("addr_street", ColumnType::Str)
            .column("addr_city", ColumnType::Str)
            .column("addr_zip", ColumnType::Int)
            .column("addr_co_id", ColumnType::Int)
            .primary_key(&["addr_id"])
            .foreign_key(&["addr_co_id"], "country", &["co_id"])
            .build()
            .expect("static schema"),
        TableSchema::builder("customer")
            .column("c_id", ColumnType::Int)
            .column("c_uname", ColumnType::Str)
            .column("c_passwd", ColumnType::Str)
            .column("c_fname", ColumnType::Str)
            .column("c_lname", ColumnType::Str)
            .column("c_email", ColumnType::Str)
            .column("c_since", ColumnType::Int)
            .column("c_discount", ColumnType::Int)
            .column("c_addr_id", ColumnType::Int)
            .primary_key(&["c_id"])
            .foreign_key(&["c_addr_id"], "address", &["addr_id"])
            .index("c_uname")
            .index("c_email")
            .build()
            .expect("static schema"),
        TableSchema::builder("author")
            .column("a_id", ColumnType::Int)
            .column("a_fname", ColumnType::Str)
            .column("a_lname", ColumnType::Str)
            .primary_key(&["a_id"])
            .index("a_lname")
            .build()
            .expect("static schema"),
        TableSchema::builder("item")
            .column("i_id", ColumnType::Int)
            .column("i_title", ColumnType::Str)
            .column("i_a_id", ColumnType::Int)
            .column("i_subject", ColumnType::Str)
            .column("i_pub_date", ColumnType::Int)
            .column("i_cost", ColumnType::Real)
            .column("i_stock", ColumnType::Int)
            .column("i_related", ColumnType::Int)
            .primary_key(&["i_id"])
            .foreign_key(&["i_a_id"], "author", &["a_id"])
            .index("i_subject")
            .index("i_title")
            .ordered_index("i_cost")
            .build()
            .expect("static schema"),
        TableSchema::builder("orders")
            .column("o_id", ColumnType::Int)
            .column("o_c_id", ColumnType::Int)
            .column("o_date", ColumnType::Int)
            .column("o_total", ColumnType::Real)
            .column("o_status", ColumnType::Str)
            .primary_key(&["o_id"])
            .foreign_key(&["o_c_id"], "customer", &["c_id"])
            .ordered_index("o_date")
            .build()
            .expect("static schema"),
        TableSchema::builder("order_line")
            .column("ol_id", ColumnType::Int)
            .column("ol_o_id", ColumnType::Int)
            .column("ol_i_id", ColumnType::Int)
            .column("ol_qty", ColumnType::Int)
            .column("ol_discount", ColumnType::Int)
            .primary_key(&["ol_id"])
            .foreign_key(&["ol_o_id"], "orders", &["o_id"])
            .foreign_key(&["ol_i_id"], "item", &["i_id"])
            .build()
            .expect("static schema"),
        TableSchema::builder("cc_xacts")
            .column("cx_id", ColumnType::Int)
            .column("cx_o_id", ColumnType::Int)
            .column("cx_type", ColumnType::Str)
            .column("cx_num", ColumnType::Str)
            .column("cx_name", ColumnType::Str)
            .column("cx_expire", ColumnType::Int)
            .column("cx_amt", ColumnType::Real)
            .primary_key(&["cx_id"])
            .foreign_key(&["cx_o_id"], "orders", &["o_id"])
            .index("cx_o_id")
            .build()
            .expect("static schema"),
        TableSchema::builder("shopping_cart")
            .column("sc_id", ColumnType::Int)
            .column("sc_time", ColumnType::Int)
            .column("sc_total", ColumnType::Real)
            .primary_key(&["sc_id"])
            .build()
            .expect("static schema"),
        TableSchema::builder("shopping_cart_line")
            .column("scl_id", ColumnType::Int)
            .column("scl_sc_id", ColumnType::Int)
            .column("scl_i_id", ColumnType::Int)
            .column("scl_qty", ColumnType::Int)
            .primary_key(&["scl_id"])
            .foreign_key(&["scl_sc_id"], "shopping_cart", &["sc_id"])
            .foreign_key(&["scl_i_id"], "item", &["i_id"])
            .index("scl_sc_id")
            .build()
            .expect("static schema"),
    ]
}

/// The 28 query templates.
fn queries() -> Vec<crate::defs::TemplateDef<scs_sqlkit::QueryTemplate>> {
    use ParamSpec::*;
    use Sensitivity::*;
    vec![
        // 0
        query_def(
            "getName",
            "SELECT c_fname, c_lname FROM customer WHERE c_id = ?",
            vec![PopularId("customer")],
            Moderate,
        ),
        // 1
        query_def(
            "getBook",
            "SELECT i_title, i_cost, i_stock, i_a_id, i_subject FROM item WHERE i_id = ?",
            vec![PopularId("item")],
            Low,
        ),
        // 2
        query_def(
            "getCustomer",
            "SELECT c_id, c_uname, c_passwd, c_discount, c_addr_id FROM customer \
             WHERE c_uname = ?",
            vec![Keyed {
                table: "customer",
                pattern: "user{}",
            }],
            High,
        ),
        // 3
        query_def(
            "doSubjectSearch",
            "SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 50",
            vec![Word(words::SUBJECTS)],
            Low,
        ),
        // 4
        query_def(
            "doTitleSearch",
            "SELECT i_id, i_title, i_cost FROM item WHERE i_title = ? LIMIT 50",
            vec![Keyed {
                table: "item",
                pattern: "book title {}",
            }],
            Low,
        ),
        // 5
        query_def(
            "doAuthorSearch",
            "SELECT item.i_id, item.i_title FROM item, author \
             WHERE item.i_a_id = author.a_id AND author.a_lname = ? LIMIT 50",
            vec![Word(words::SURNAMES)],
            Low,
        ),
        // 6
        query_def(
            "getNewProducts",
            "SELECT i_id, i_title, i_pub_date FROM item WHERE i_subject = ? \
             ORDER BY i_pub_date DESC LIMIT 50",
            vec![Word(words::SUBJECTS)],
            Low,
        ),
        // 7 — aggregate/group-by template (§5.1: 7–11% of templates)
        query_def(
            "getBestSellers",
            "SELECT order_line.ol_i_id, SUM(order_line.ol_qty) FROM order_line, orders \
             WHERE order_line.ol_o_id = orders.o_id AND orders.o_date >= ? \
             GROUP BY order_line.ol_i_id",
            vec![Int(0, 7)],
            Low,
        ),
        // 8
        query_def(
            "getRelated",
            "SELECT i_related FROM item WHERE i_id = ?",
            vec![PopularId("item")],
            Moderate,
        ),
        // 9
        query_def(
            "getMostRecentOrder",
            "SELECT o_id, o_date, o_total, o_status FROM orders WHERE o_c_id = ? \
             ORDER BY o_date DESC LIMIT 1",
            vec![PopularId("customer")],
            Moderate,
        ),
        // 10
        query_def(
            "getOrderLines",
            "SELECT ol_i_id, ol_qty, ol_discount FROM order_line WHERE ol_o_id = ?",
            vec![PopularId("orders")],
            Moderate,
        ),
        // 11 — touches credit-card data
        query_def(
            "getOrderPayment",
            "SELECT orders.o_status, cc_xacts.cx_type, cc_xacts.cx_amt \
             FROM orders, cc_xacts \
             WHERE orders.o_id = cc_xacts.cx_o_id AND orders.o_id = ?",
            vec![PopularId("orders")],
            High,
        ),
        // 12
        query_def(
            "getCart",
            "SELECT sc_time, sc_total FROM shopping_cart WHERE sc_id = ?",
            vec![PopularId("shopping_cart")],
            Moderate,
        ),
        // 13
        query_def(
            "getCartLines",
            "SELECT scl_i_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ?",
            vec![PopularId("shopping_cart")],
            Moderate,
        ),
        // 14
        query_def(
            "getCartLine",
            "SELECT scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?",
            vec![ExistingId("shopping_cart"), PopularId("item")],
            Moderate,
        ),
        // 15
        query_def(
            "getStock",
            "SELECT i_stock FROM item WHERE i_id = ?",
            vec![PopularId("item")],
            Moderate,
        ),
        // 16
        query_def(
            "getAddress",
            "SELECT addr_street, addr_city, addr_zip, addr_co_id FROM address \
             WHERE addr_id = ?",
            vec![ExistingId("address")],
            Moderate,
        ),
        // 17
        query_def(
            "getCountry",
            "SELECT co_name FROM country WHERE co_id = ?",
            vec![ExistingId("country")],
            Low,
        ),
        // 18
        query_def(
            "getCountryByName",
            "SELECT co_id FROM country WHERE co_name = ?",
            vec![Word(words::REGIONS)],
            Low,
        ),
        // 19
        query_def(
            "getCustomerAddress",
            "SELECT address.addr_street, address.addr_city, address.addr_zip \
             FROM customer, address \
             WHERE customer.c_addr_id = address.addr_id AND customer.c_id = ?",
            vec![PopularId("customer")],
            Moderate,
        ),
        // 20
        query_def(
            "getItemsBySubjectPrice",
            "SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ? AND i_cost <= ? \
             ORDER BY i_cost LIMIT 50",
            vec![Word(words::SUBJECTS), Int(5, 100)],
            Low,
        ),
        // 21
        query_def(
            "getAuthor",
            "SELECT a_fname, a_lname FROM author WHERE a_id = ?",
            vec![ExistingId("author")],
            Low,
        ),
        // 22
        query_def(
            "getAuthorOfBook",
            "SELECT author.a_fname, author.a_lname FROM author, item \
             WHERE author.a_id = item.i_a_id AND item.i_id = ?",
            vec![PopularId("item")],
            Low,
        ),
        // 23 — aggregate
        query_def(
            "countCustomerOrders",
            "SELECT COUNT(*) FROM orders WHERE o_c_id = ?",
            vec![PopularId("customer")],
            Moderate,
        ),
        // 24 — aggregate
        query_def(
            "getLargestOrder",
            "SELECT MAX(o_total) FROM orders WHERE o_c_id = ?",
            vec![PopularId("customer")],
            Moderate,
        ),
        // 25
        query_def(
            "getCustomerByEmail",
            "SELECT c_id, c_uname, c_fname FROM customer WHERE c_email = ?",
            vec![Keyed {
                table: "customer",
                pattern: "user{}@example.org",
            }],
            High,
        ),
        // 26
        query_def(
            "getNewestOrders",
            "SELECT o_id, o_c_id, o_total FROM orders ORDER BY o_date DESC LIMIT 10",
            vec![],
            Moderate,
        ),
        // 27
        query_def(
            "getCheapestInStock",
            "SELECT i_id, i_title, i_cost FROM item WHERE i_stock >= ? \
             ORDER BY i_cost LIMIT 20",
            vec![Int(1, 10)],
            Low,
        ),
    ]
}

/// The 12 update templates.
fn updates() -> Vec<crate::defs::TemplateDef<scs_sqlkit::UpdateTemplate>> {
    use ParamSpec::*;
    use Sensitivity::*;
    vec![
        // 0
        update_def(
            "createAddress",
            "INSERT INTO address (addr_id, addr_street, addr_city, addr_zip, addr_co_id) \
             VALUES (?, ?, ?, ?, ?)",
            vec![
                FreshId("address"),
                Text(20),
                Text(10),
                Int(10_000, 99_999),
                ExistingId("country"),
            ],
            Moderate,
        ),
        // 1
        update_def(
            "createCustomer",
            "INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_email, \
             c_since, c_discount, c_addr_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("customer"),
                Text(10),
                Text(12),
                Word(words::GIVEN_NAMES),
                Word(words::SURNAMES),
                Text(14),
                Int(0, 1_000),
                Int(0, 30),
                ExistingId("address"),
            ],
            High,
        ),
        // 2
        update_def(
            "createOrder",
            "INSERT INTO orders (o_id, o_c_id, o_date, o_total, o_status) \
             VALUES (?, ?, ?, ?, ?)",
            vec![
                FreshId("orders"),
                ExistingId("customer"),
                Int(900, 1_100),
                Int(10, 500),
                Word(words::STATUSES),
            ],
            Moderate,
        ),
        // 3
        update_def(
            "createOrderLine",
            "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount) \
             VALUES (?, ?, ?, ?, ?)",
            vec![
                FreshId("order_line"),
                ExistingId("orders"),
                PopularId("item"),
                Int(1, 5),
                Int(0, 30),
            ],
            Moderate,
        ),
        // 4 — the credit-card transaction (compulsory encryption)
        update_def(
            "createCcXact",
            "INSERT INTO cc_xacts (cx_id, cx_o_id, cx_type, cx_num, cx_name, cx_expire, \
             cx_amt) VALUES (?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("cc_xacts"),
                ExistingId("orders"),
                Text(5),
                Text(16),
                Word(words::SURNAMES),
                Int(2_026, 2_032),
                Int(10, 500),
            ],
            High,
        ),
        // 5
        update_def(
            "createCart",
            "INSERT INTO shopping_cart (sc_id, sc_time, sc_total) VALUES (?, ?, ?)",
            vec![FreshId("shopping_cart"), Int(0, 1_000), Int(0, 0)],
            Moderate,
        ),
        // 6
        update_def(
            "addCartLine",
            "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) \
             VALUES (?, ?, ?, ?)",
            vec![
                FreshId("shopping_cart_line"),
                ExistingId("shopping_cart"),
                PopularId("item"),
                Int(1, 5),
            ],
            Moderate,
        ),
        // 7
        update_def(
            "updateCartTotal",
            "UPDATE shopping_cart SET sc_total = ?, sc_time = ? WHERE sc_id = ?",
            vec![Int(0, 800), Int(0, 2_000), ExistingId("shopping_cart")],
            Moderate,
        ),
        // 8
        update_def(
            "updateCartLineQty",
            "UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_id = ?",
            vec![Int(1, 9), ExistingId("shopping_cart_line")],
            Moderate,
        ),
        // 9
        update_def(
            "decrementStock",
            "UPDATE item SET i_stock = ? WHERE i_id = ?",
            vec![Int(0, 80), PopularId("item")],
            Moderate,
        ),
        // 10
        update_def(
            "clearCart",
            "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?",
            vec![ExistingId("shopping_cart")],
            Moderate,
        ),
        // 11
        update_def(
            "updateOrderStatus",
            "UPDATE orders SET o_status = ? WHERE o_id = ?",
            vec![Word(words::STATUSES), ExistingId("orders")],
            Moderate,
        ),
    ]
}

/// TPC-W-shaped request mix (the WIPS browsing mix: ~80% browse / 20%
/// order interactions).
fn requests() -> Vec<RequestType> {
    use Op::*;
    vec![
        RequestType {
            name: "home",
            weight: 24,
            ops: vec![Query(0), Query(6)],
        },
        RequestType {
            name: "new-products",
            weight: 14,
            ops: vec![Query(6), Query(1)],
        },
        RequestType {
            name: "best-sellers",
            weight: 14,
            ops: vec![Query(7), Query(1)],
        },
        RequestType {
            name: "product-detail",
            weight: 26,
            ops: vec![Query(1), Query(22), Query(8)],
        },
        RequestType {
            name: "search-subject",
            weight: 8,
            ops: vec![Query(3), Query(20)],
        },
        RequestType {
            name: "search-author",
            weight: 6,
            ops: vec![Query(5), Query(21)],
        },
        RequestType {
            name: "search-title",
            weight: 6,
            ops: vec![Query(4), Query(27)],
        },
        RequestType {
            name: "shopping-cart",
            weight: 4,
            ops: vec![Update(5), Update(6), Query(13), Query(12), Update(7)],
        },
        RequestType {
            name: "cart-update",
            weight: 2,
            ops: vec![Query(13), Update(8), Update(7), Query(12)],
        },
        RequestType {
            name: "customer-registration",
            weight: 1,
            ops: vec![Query(2), Update(0), Update(1)],
        },
        RequestType {
            name: "buy-request",
            weight: 3,
            ops: vec![Query(2), Query(19), Query(12), Query(13)],
        },
        RequestType {
            name: "buy-confirm",
            weight: 2,
            ops: vec![
                Update(2),
                Update(3),
                Update(3),
                Update(4),
                Update(9),
                Update(10),
                Query(9),
            ],
        },
        RequestType {
            name: "order-inquiry",
            weight: 5,
            ops: vec![Query(2), Query(9), Query(10), Query(11)],
        },
        RequestType {
            name: "account",
            weight: 2,
            ops: vec![Query(25), Query(23), Query(24), Query(16), Query(17)],
        },
        RequestType {
            name: "admin",
            weight: 1,
            ops: vec![Query(1), Query(15), Update(9)],
        },
        RequestType {
            name: "order-board",
            weight: 1,
            ops: vec![Query(26), Query(18)],
        },
    ]
}

/// The complete bookstore application definition.
pub fn bookstore() -> AppDef {
    AppDef {
        name: "bookstore",
        schemas: schemas(),
        queries: queries(),
        updates: updates(),
        requests: requests(),
        // California SB 1386: credit-card data must be encrypted, plus the
        // account credentials that unlock it.
        sensitive_attrs: vec![
            Attr::new("cc_xacts", "cx_id"),
            Attr::new("cc_xacts", "cx_o_id"),
            Attr::new("cc_xacts", "cx_type"),
            Attr::new("cc_xacts", "cx_num"),
            Attr::new("cc_xacts", "cx_name"),
            Attr::new("cc_xacts", "cx_expire"),
            Attr::new("cc_xacts", "cx_amt"),
            Attr::new("customer", "c_passwd"),
        ],
    }
}

/// Populates the bookstore; every table's ids are `1..=n`.
pub fn populate(db: &mut Database, scale: BookstoreScale, rng: &mut StdRng) {
    let countries = words::REGIONS.len() as i64;
    for id in 1..=countries {
        db.insert_row(
            "country",
            vec![
                Value::Int(id),
                Value::str(words::REGIONS[(id - 1) as usize]),
            ],
        )
        .expect("fresh id");
    }
    let addresses = scale.customers * 2;
    for id in 1..=addresses {
        db.insert_row(
            "address",
            vec![
                Value::Int(id),
                Value::Str(format!("{id} main st")),
                Value::Str(format!("city-{}", id % 97)),
                Value::Int(10_000 + (id * 31) % 90_000),
                Value::Int(1 + (id % countries)),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=scale.customers {
        db.insert_row(
            "customer",
            vec![
                Value::Int(id),
                Value::Str(format!("user{id}")),
                Value::Str(format!("pw-{id}")),
                Value::str(words::GIVEN_NAMES[(id as usize) % words::GIVEN_NAMES.len()]),
                Value::str(words::SURNAMES[(id as usize) % words::SURNAMES.len()]),
                Value::Str(format!("user{id}@example.org")),
                Value::Int(rng.gen_range(0..1_000)),
                Value::Int(rng.gen_range(0..30)),
                Value::Int(1 + (id % addresses)),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=scale.authors {
        db.insert_row(
            "author",
            vec![
                Value::Int(id),
                Value::str(words::GIVEN_NAMES[(id as usize) % words::GIVEN_NAMES.len()]),
                Value::str(words::SURNAMES[(id as usize) % words::SURNAMES.len()]),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=scale.items {
        db.insert_row(
            "item",
            vec![
                Value::Int(id),
                Value::Str(format!("book title {id}")),
                Value::Int(1 + (id % scale.authors)),
                Value::str(words::SUBJECTS[(id as usize) % words::SUBJECTS.len()]),
                Value::Int(rng.gen_range(0..1_000)),
                Value::real(rng.gen_range(500..10_000) as f64 / 100.0),
                Value::Int(rng.gen_range(0..100)),
                Value::Int(1 + (id % scale.items)),
            ],
        )
        .expect("fresh id");
    }
    let orders = (scale.customers * 9) / 10;
    for id in 1..=orders {
        db.insert_row(
            "orders",
            vec![
                Value::Int(id),
                Value::Int(1 + (id % scale.customers)),
                Value::Int(rng.gen_range(0..1_000)),
                Value::real(rng.gen_range(1_000..50_000) as f64 / 100.0),
                Value::str(words::STATUSES[(id as usize) % words::STATUSES.len()]),
            ],
        )
        .expect("fresh id");
    }
    let order_lines = orders * 3;
    for id in 1..=order_lines {
        db.insert_row(
            "order_line",
            vec![
                Value::Int(id),
                Value::Int(1 + (id % orders)),
                Value::Int(1 + (id * 7) % scale.items),
                Value::Int(rng.gen_range(1..5)),
                Value::Int(rng.gen_range(0..30)),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=orders {
        db.insert_row(
            "cc_xacts",
            vec![
                Value::Int(id),
                Value::Int(id),
                Value::str("VISA"),
                Value::Str(format!("4111{id:012}")),
                Value::str(words::SURNAMES[(id as usize) % words::SURNAMES.len()]),
                Value::Int(2_027),
                Value::real(rng.gen_range(1_000..50_000) as f64 / 100.0),
            ],
        )
        .expect("fresh id");
    }
    let carts = scale.customers / 10;
    for id in 1..=carts {
        db.insert_row(
            "shopping_cart",
            vec![
                Value::Int(id),
                Value::Int(rng.gen_range(0..1_000)),
                Value::real(0.0),
            ],
        )
        .expect("fresh id");
    }
    let cart_lines = carts * 2;
    for id in 1..=cart_lines {
        db.insert_row(
            "shopping_cart_line",
            vec![
                Value::Int(id),
                Value::Int(1 + (id % carts)),
                Value::Int(1 + (id * 11) % scale.items),
                Value::Int(rng.gen_range(1..5)),
            ],
        )
        .expect("fresh id");
    }
}

/// The initial id-space sizes matching [`populate`], for the workload
/// generators.
pub fn id_spaces(scale: BookstoreScale) -> crate::gen::IdSpaces {
    let mut ids = crate::gen::IdSpaces::default();
    let orders = (scale.customers * 9) / 10;
    let carts = scale.customers / 10;
    ids.declare("country", words::REGIONS.len() as i64);
    ids.declare("address", scale.customers * 2);
    ids.declare("customer", scale.customers);
    ids.declare("author", scale.authors);
    ids.declare("item", scale.items);
    ids.declare("orders", orders);
    ids.declare("order_line", orders * 3);
    ids.declare("cc_xacts", orders);
    ids.declare("shopping_cart", carts);
    ids.declare("shopping_cart_line", carts * 2);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn has_28_query_templates() {
        // §5.4: "our static analysis identifies 21 out of the 28 query
        // templates associated with the bookstore application".
        assert_eq!(bookstore().queries.len(), 28);
        assert_eq!(bookstore().updates.len(), 12);
    }

    #[test]
    fn validates() {
        bookstore().validate().unwrap();
    }

    #[test]
    fn aggregate_fraction_matches_paper() {
        // §5.1: between 7% and 11% of query templates have aggregation or
        // group-by constructs.
        let app = bookstore();
        let aggs = app
            .queries
            .iter()
            .filter(|q| q.template.has_aggregates() || !q.template.group_by.is_empty())
            .count();
        let frac = aggs as f64 / app.queries.len() as f64;
        assert!((0.07..=0.12).contains(&frac), "aggregate fraction {frac}");
    }

    #[test]
    fn populate_fills_all_tables() {
        let app = bookstore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let scale = BookstoreScale {
            items: 100,
            customers: 60,
            authors: 20,
        };
        let mut rng = StdRng::seed_from_u64(5);
        populate(&mut db, scale, &mut rng);
        for t in db.table_names().map(String::from).collect::<Vec<_>>() {
            assert!(!db.table(&t).unwrap().is_empty(), "table {t} is empty");
        }
        let ids = id_spaces(scale);
        assert_eq!(ids.initial("item"), 100);
        assert_eq!(db.table("item").unwrap().len(), 100);
        assert_eq!(
            db.table("orders").unwrap().len() as i64,
            ids.initial("orders")
        );
    }

    #[test]
    fn every_query_executes_on_populated_db() {
        use scs_sqlkit::Query;
        let app = bookstore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let scale = BookstoreScale {
            items: 50,
            customers: 30,
            authors: 10,
        };
        let mut rng = StdRng::seed_from_u64(6);
        populate(&mut db, scale, &mut rng);
        let mut gen = crate::gen::ParamGen::new(id_spaces(scale), 0.871);
        for (tid, qd) in app.queries.iter().enumerate() {
            let params = gen.bind_all(&qd.params, &mut rng);
            let q = Query::bind(tid, qd.template.clone(), params).unwrap();
            db.execute(&q)
                .unwrap_or_else(|e| panic!("query `{}` fails: {e}", qd.name));
        }
    }

    #[test]
    fn every_update_executes_on_populated_db() {
        use scs_sqlkit::Update;
        let app = bookstore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let scale = BookstoreScale {
            items: 50,
            customers: 30,
            authors: 10,
        };
        let mut rng = StdRng::seed_from_u64(7);
        populate(&mut db, scale, &mut rng);
        let mut gen = crate::gen::ParamGen::new(id_spaces(scale), 0.871);
        for (tid, ud) in app.updates.iter().enumerate() {
            let params = gen.bind_all(&ud.params, &mut rng);
            let u = Update::bind(tid, ud.template.clone(), params).unwrap();
            db.apply(&u)
                .unwrap_or_else(|e| panic!("update `{}` fails: {e}", ud.name));
        }
    }
}
