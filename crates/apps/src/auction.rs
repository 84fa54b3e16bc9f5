//! `auction` — a RUBiS-like auction site modeled after ebay.com (§5.1):
//! users sell items in categories and regions, place bids, buy outright,
//! and leave comments/ratings on each other.
//!
//! The historical record of user bids is the paper's example of moderately
//! sensitive auction data that the static analysis can encrypt for free
//! (§5.4).

use crate::defs::{query_def, update_def, AppDef, Op, ParamSpec, RequestType, Sensitivity};
use crate::gen::words;
use rand::rngs::StdRng;
use rand::Rng;
use scs_core::Attr;
use scs_sqlkit::Value;
use scs_storage::{ColumnType, Database, TableSchema};

/// Row counts used by [`populate`].
#[derive(Debug, Clone, Copy)]
pub struct AuctionScale {
    pub users: i64,
    pub items: i64,
}

impl Default for AuctionScale {
    fn default() -> Self {
        AuctionScale {
            users: 1_000,
            items: 1_300,
        }
    }
}

pub fn schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("regions")
            .column("r_id", ColumnType::Int)
            .column("r_name", ColumnType::Str)
            .primary_key(&["r_id"])
            .index("r_name")
            .build()
            .expect("static schema"),
        TableSchema::builder("categories")
            .column("cat_id", ColumnType::Int)
            .column("cat_name", ColumnType::Str)
            .primary_key(&["cat_id"])
            .index("cat_name")
            .build()
            .expect("static schema"),
        TableSchema::builder("users")
            .column("u_id", ColumnType::Int)
            .column("u_nickname", ColumnType::Str)
            .column("u_password", ColumnType::Str)
            .column("u_email", ColumnType::Str)
            .column("u_rating", ColumnType::Int)
            .column("u_balance", ColumnType::Real)
            .column("u_region", ColumnType::Int)
            .primary_key(&["u_id"])
            .foreign_key(&["u_region"], "regions", &["r_id"])
            .index("u_nickname")
            .build()
            .expect("static schema"),
        TableSchema::builder("items")
            .column("it_id", ColumnType::Int)
            .column("it_name", ColumnType::Str)
            .column("it_seller", ColumnType::Int)
            .column("it_category", ColumnType::Int)
            .column("it_initial_price", ColumnType::Real)
            .column("it_max_bid", ColumnType::Real)
            .column("it_nb_of_bids", ColumnType::Int)
            .column("it_end_date", ColumnType::Int)
            .primary_key(&["it_id"])
            .foreign_key(&["it_seller"], "users", &["u_id"])
            .foreign_key(&["it_category"], "categories", &["cat_id"])
            .index("it_category")
            .index("it_seller")
            .ordered_index("it_end_date")
            .ordered_index("it_nb_of_bids")
            .ordered_index("it_max_bid")
            .ordered_index_on(&["it_category", "it_end_date"])
            .build()
            .expect("static schema"),
        TableSchema::builder("bids")
            .column("b_id", ColumnType::Int)
            .column("b_user_id", ColumnType::Int)
            .column("b_item_id", ColumnType::Int)
            .column("b_qty", ColumnType::Int)
            .column("b_bid", ColumnType::Real)
            .column("b_date", ColumnType::Int)
            .primary_key(&["b_id"])
            .foreign_key(&["b_user_id"], "users", &["u_id"])
            .foreign_key(&["b_item_id"], "items", &["it_id"])
            .index("b_item_id")
            .index("b_user_id")
            .build()
            .expect("static schema"),
        TableSchema::builder("comments")
            .column("cm_id", ColumnType::Int)
            .column("cm_from", ColumnType::Int)
            .column("cm_to", ColumnType::Int)
            .column("cm_item", ColumnType::Int)
            .column("cm_rating", ColumnType::Int)
            .column("cm_text", ColumnType::Str)
            .primary_key(&["cm_id"])
            .foreign_key(&["cm_from"], "users", &["u_id"])
            .foreign_key(&["cm_to"], "users", &["u_id"])
            .foreign_key(&["cm_item"], "items", &["it_id"])
            .index("cm_to")
            .build()
            .expect("static schema"),
        TableSchema::builder("buy_now")
            .column("bn_id", ColumnType::Int)
            .column("bn_buyer", ColumnType::Int)
            .column("bn_item", ColumnType::Int)
            .column("bn_qty", ColumnType::Int)
            .column("bn_date", ColumnType::Int)
            .primary_key(&["bn_id"])
            .foreign_key(&["bn_buyer"], "users", &["u_id"])
            .foreign_key(&["bn_item"], "items", &["it_id"])
            .build()
            .expect("static schema"),
    ]
}

fn queries() -> Vec<crate::defs::TemplateDef<scs_sqlkit::QueryTemplate>> {
    use ParamSpec::*;
    use Sensitivity::*;
    vec![
        // 0
        query_def(
            "getUser",
            "SELECT u_nickname, u_rating, u_region FROM users WHERE u_id = ?",
            vec![PopularId("users")],
            Moderate,
        ),
        // 1
        query_def(
            "getUserByNickname",
            "SELECT u_id, u_password, u_email FROM users WHERE u_nickname = ?",
            vec![Keyed {
                table: "users",
                pattern: "bidder{}",
            }],
            High,
        ),
        // 2
        query_def(
            "getItem",
            "SELECT it_name, it_seller, it_initial_price, it_max_bid, it_nb_of_bids, \
             it_end_date FROM items WHERE it_id = ?",
            vec![PopularId("items")],
            Low,
        ),
        // 3
        query_def(
            "getItemsByCategory",
            "SELECT it_id, it_name, it_max_bid, it_end_date FROM items \
             WHERE it_category = ? AND it_end_date >= ? ORDER BY it_end_date LIMIT 25",
            vec![ExistingId("categories"), Int(0, 4)],
            Low,
        ),
        // 4
        query_def(
            "getItemsByRegion",
            "SELECT items.it_id, items.it_name, items.it_max_bid FROM items, users \
             WHERE items.it_seller = users.u_id AND users.u_region = ? \
             AND items.it_category = ? LIMIT 25",
            vec![ExistingId("regions"), ExistingId("categories")],
            Low,
        ),
        // 5
        query_def(
            "getCategory",
            "SELECT cat_name FROM categories WHERE cat_id = ?",
            vec![ExistingId("categories")],
            Low,
        ),
        // 6
        query_def(
            "getCategoryByName",
            "SELECT cat_id FROM categories WHERE cat_name = ?",
            vec![Word(words::CATEGORIES)],
            Low,
        ),
        // 7
        query_def(
            "getRegion",
            "SELECT r_name FROM regions WHERE r_id = ?",
            vec![ExistingId("regions")],
            Low,
        ),
        // 8
        query_def(
            "getRegionByName",
            "SELECT r_id FROM regions WHERE r_name = ?",
            vec![Word(words::REGIONS)],
            Low,
        ),
        // 9 — the bid history: moderately sensitive (§5.4)
        query_def(
            "getBidHistory",
            "SELECT bids.b_user_id, bids.b_bid, bids.b_date FROM bids \
             WHERE b_item_id = ? ORDER BY b_date DESC LIMIT 20",
            vec![PopularId("items")],
            Moderate,
        ),
        // 10 — aggregate
        query_def(
            "getMaxBid",
            "SELECT MAX(b_bid) FROM bids WHERE b_item_id = ?",
            vec![PopularId("items")],
            Moderate,
        ),
        // 11 — aggregate
        query_def(
            "countBids",
            "SELECT COUNT(*) FROM bids WHERE b_item_id = ?",
            vec![PopularId("items")],
            Low,
        ),
        // 12
        query_def(
            "getUserBids",
            "SELECT bids.b_item_id, bids.b_bid, bids.b_date FROM bids \
             WHERE b_user_id = ? ORDER BY b_date DESC LIMIT 20",
            vec![ExistingId("users")],
            Moderate,
        ),
        // 13
        query_def(
            "getUserItems",
            "SELECT it_id, it_name, it_max_bid, it_end_date FROM items \
             WHERE it_seller = ? LIMIT 25",
            vec![ExistingId("users")],
            Moderate,
        ),
        // 14
        query_def(
            "getComments",
            "SELECT cm_from, cm_rating, cm_text FROM comments WHERE cm_to = ? LIMIT 25",
            vec![PopularId("users")],
            Moderate,
        ),
        // 15 — aggregate
        query_def(
            "getUserCommentCount",
            "SELECT COUNT(*) FROM comments WHERE cm_to = ?",
            vec![PopularId("users")],
            Low,
        ),
        // 16
        query_def(
            "getEndingAuctions",
            "SELECT it_id, it_name, it_end_date FROM items WHERE it_end_date >= ? \
             ORDER BY it_end_date LIMIT 25",
            vec![Int(0, 4)],
            Low,
        ),
        // 17
        query_def(
            "getHotItems",
            "SELECT it_id, it_name, it_nb_of_bids FROM items WHERE it_nb_of_bids >= ? \
             ORDER BY it_nb_of_bids DESC LIMIT 10",
            vec![Int(8, 12)],
            Low,
        ),
        // 18
        query_def(
            "getBidderNames",
            "SELECT users.u_nickname, bids.b_bid FROM users, bids \
             WHERE users.u_id = bids.b_user_id AND bids.b_item_id = ? LIMIT 20",
            vec![PopularId("items")],
            Moderate,
        ),
        // 19
        query_def(
            "getItemSeller",
            "SELECT users.u_nickname, users.u_rating FROM users, items \
             WHERE users.u_id = items.it_seller AND items.it_id = ?",
            vec![PopularId("items")],
            Low,
        ),
        // 20
        query_def(
            "getBuyNowHistory",
            "SELECT bn_item, bn_qty, bn_date FROM buy_now WHERE bn_buyer = ? LIMIT 20",
            vec![ExistingId("users")],
            Moderate,
        ),
        // 21
        query_def(
            "getItemBuyNows",
            "SELECT bn_buyer, bn_qty, bn_date FROM buy_now WHERE bn_item = ? LIMIT 20",
            vec![PopularId("items")],
            Moderate,
        ),
        // 22
        query_def(
            "getCheapOpenAuctions",
            "SELECT it_id, it_name, it_max_bid FROM items \
             WHERE it_max_bid <= ? AND it_end_date >= ? ORDER BY it_max_bid LIMIT 25",
            vec![Int(20, 24), Int(0, 4)],
            Low,
        ),
        // 23
        query_def(
            "getUserBalance",
            "SELECT u_balance FROM users WHERE u_id = ?",
            vec![ExistingId("users")],
            High,
        ),
    ]
}

fn updates() -> Vec<crate::defs::TemplateDef<scs_sqlkit::UpdateTemplate>> {
    use ParamSpec::*;
    use Sensitivity::*;
    vec![
        // 0
        update_def(
            "registerUser",
            "INSERT INTO users (u_id, u_nickname, u_password, u_email, u_rating, \
             u_balance, u_region) VALUES (?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("users"),
                Text(10),
                Text(12),
                Text(14),
                Int(0, 0),
                Int(0, 0),
                ExistingId("regions"),
            ],
            High,
        ),
        // 1
        update_def(
            "registerItem",
            "INSERT INTO items (it_id, it_name, it_seller, it_category, \
             it_initial_price, it_max_bid, it_nb_of_bids, it_end_date) \
             VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("items"),
                Text(16),
                ExistingId("users"),
                ExistingId("categories"),
                Int(1, 500),
                Int(0, 0),
                Int(0, 0),
                Int(100, 1_000),
            ],
            Low,
        ),
        // 2
        update_def(
            "storeBid",
            "INSERT INTO bids (b_id, b_user_id, b_item_id, b_qty, b_bid, b_date) \
             VALUES (?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("bids"),
                ExistingId("users"),
                PopularId("items"),
                Int(1, 3),
                Int(1, 900),
                Int(0, 1_000),
            ],
            Moderate,
        ),
        // 3
        update_def(
            "updateItemBid",
            "UPDATE items SET it_max_bid = ?, it_nb_of_bids = ? WHERE it_id = ?",
            vec![Int(1, 900), Int(1, 50), PopularId("items")],
            Low,
        ),
        // 4
        update_def(
            "storeComment",
            "INSERT INTO comments (cm_id, cm_from, cm_to, cm_item, cm_rating, cm_text) \
             VALUES (?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("comments"),
                ExistingId("users"),
                ExistingId("users"),
                PopularId("items"),
                Int(-5, 5),
                Text(40),
            ],
            Moderate,
        ),
        // 5
        update_def(
            "updateUserRating",
            "UPDATE users SET u_rating = ? WHERE u_id = ?",
            vec![Int(-10, 100), ExistingId("users")],
            Moderate,
        ),
        // 6
        update_def(
            "storeBuyNow",
            "INSERT INTO buy_now (bn_id, bn_buyer, bn_item, bn_qty, bn_date) \
             VALUES (?, ?, ?, ?, ?)",
            vec![
                FreshId("buy_now"),
                ExistingId("users"),
                PopularId("items"),
                Int(1, 3),
                Int(0, 1_000),
            ],
            Moderate,
        ),
        // 7
        update_def(
            "updateUserBalance",
            "UPDATE users SET u_balance = ? WHERE u_id = ?",
            vec![Int(0, 10_000), ExistingId("users")],
            High,
        ),
        // 8
        update_def(
            "closeAuction",
            "DELETE FROM items WHERE it_id = ?",
            vec![ExistingId("items")],
            Low,
        ),
    ]
}

fn requests() -> Vec<RequestType> {
    use Op::*;
    vec![
        RequestType {
            name: "home",
            weight: 12,
            ops: vec![Query(16), Query(17)],
        },
        RequestType {
            name: "browse-category",
            weight: 14,
            ops: vec![Query(6), Query(3), Query(2)],
        },
        RequestType {
            name: "browse-region",
            weight: 7,
            ops: vec![Query(8), Query(4), Query(2)],
        },
        RequestType {
            name: "view-item",
            weight: 18,
            ops: vec![Query(2), Query(19), Query(10), Query(11)],
        },
        RequestType {
            name: "bid-history",
            weight: 6,
            ops: vec![Query(9), Query(18)],
        },
        RequestType {
            name: "place-bid",
            weight: 8,
            ops: vec![Query(1), Query(2), Query(10), Update(2), Update(3)],
        },
        RequestType {
            name: "buy-now",
            weight: 3,
            ops: vec![Query(1), Query(2), Update(6)],
        },
        RequestType {
            name: "view-user",
            weight: 8,
            ops: vec![Query(0), Query(14), Query(15)],
        },
        RequestType {
            name: "leave-comment",
            weight: 3,
            ops: vec![Query(1), Query(0), Update(4), Update(5)],
        },
        RequestType {
            name: "sell-item",
            weight: 4,
            ops: vec![Query(1), Query(6), Update(1)],
        },
        RequestType {
            name: "register",
            weight: 2,
            ops: vec![Query(8), Update(0)],
        },
        RequestType {
            name: "my-account",
            weight: 5,
            ops: vec![Query(1), Query(12), Query(13), Query(20), Query(23)],
        },
        RequestType {
            name: "bargains",
            weight: 4,
            ops: vec![Query(22), Query(2)],
        },
        RequestType {
            name: "close-auction",
            weight: 1,
            ops: vec![Query(13), Update(8)],
        },
    ]
}

/// The complete auction application definition.
pub fn auction() -> AppDef {
    AppDef {
        name: "auction",
        schemas: schemas(),
        queries: queries(),
        updates: updates(),
        requests: requests(),
        // Account credentials and balances (SB-1386-style account data).
        sensitive_attrs: vec![
            Attr::new("users", "u_password"),
            Attr::new("users", "u_balance"),
        ],
    }
}

/// Populates the auction site; ids are `1..=n` per table.
pub fn populate(db: &mut Database, scale: AuctionScale, rng: &mut StdRng) {
    for (id, name) in words::REGIONS.iter().enumerate() {
        db.insert_row(
            "regions",
            vec![Value::Int(id as i64 + 1), Value::str(*name)],
        )
        .expect("fresh id");
    }
    for (id, name) in words::CATEGORIES.iter().enumerate() {
        db.insert_row(
            "categories",
            vec![Value::Int(id as i64 + 1), Value::str(*name)],
        )
        .expect("fresh id");
    }
    let regions = words::REGIONS.len() as i64;
    let cats = words::CATEGORIES.len() as i64;
    for id in 1..=scale.users {
        db.insert_row(
            "users",
            vec![
                Value::Int(id),
                Value::Str(format!("bidder{id}")),
                Value::Str(format!("pw{id}")),
                Value::Str(format!("bidder{id}@example.org")),
                Value::Int(rng.gen_range(-5..100)),
                Value::real(rng.gen_range(0..100_000) as f64 / 100.0),
                Value::Int(1 + (id % regions)),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=scale.items {
        db.insert_row(
            "items",
            vec![
                Value::Int(id),
                Value::Str(format!("auction item {id}")),
                Value::Int(1 + (id % scale.users)),
                Value::Int(1 + (id % cats)),
                Value::real(rng.gen_range(100..50_000) as f64 / 100.0),
                Value::real(rng.gen_range(100..90_000) as f64 / 100.0),
                Value::Int(rng.gen_range(0..30)),
                Value::Int(rng.gen_range(0..1_000)),
            ],
        )
        .expect("fresh id");
    }
    let bids = scale.items * 5;
    for id in 1..=bids {
        db.insert_row(
            "bids",
            vec![
                Value::Int(id),
                Value::Int(1 + (id * 3) % scale.users),
                Value::Int(1 + (id * 7) % scale.items),
                Value::Int(rng.gen_range(1..3)),
                Value::real(rng.gen_range(100..90_000) as f64 / 100.0),
                Value::Int(rng.gen_range(0..1_000)),
            ],
        )
        .expect("fresh id");
    }
    let comments = scale.users * 2;
    for id in 1..=comments {
        db.insert_row(
            "comments",
            vec![
                Value::Int(id),
                Value::Int(1 + (id * 5) % scale.users),
                Value::Int(1 + (id * 11) % scale.users),
                Value::Int(1 + (id * 13) % scale.items),
                Value::Int(rng.gen_range(-5..5)),
                Value::Str(format!("comment text {id}")),
            ],
        )
        .expect("fresh id");
    }
    let buy_nows = scale.items / 4;
    for id in 1..=buy_nows {
        db.insert_row(
            "buy_now",
            vec![
                Value::Int(id),
                Value::Int(1 + (id * 17) % scale.users),
                Value::Int(1 + (id * 19) % scale.items),
                Value::Int(rng.gen_range(1..3)),
                Value::Int(rng.gen_range(0..1_000)),
            ],
        )
        .expect("fresh id");
    }
}

/// The initial id-space sizes matching [`populate`].
pub fn id_spaces(scale: AuctionScale) -> crate::gen::IdSpaces {
    let mut ids = crate::gen::IdSpaces::default();
    ids.declare("regions", words::REGIONS.len() as i64);
    ids.declare("categories", words::CATEGORIES.len() as i64);
    ids.declare("users", scale.users);
    ids.declare("items", scale.items);
    ids.declare("bids", scale.items * 5);
    ids.declare("comments", scale.users * 2);
    ids.declare("buy_now", scale.items / 4);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validates() {
        auction().validate().unwrap();
    }

    #[test]
    fn template_counts() {
        let app = auction();
        assert_eq!(app.queries.len(), 24);
        assert_eq!(app.updates.len(), 9);
    }

    #[test]
    fn aggregate_fraction_matches_paper() {
        let app = auction();
        let aggs = app
            .queries
            .iter()
            .filter(|q| q.template.has_aggregates() || !q.template.group_by.is_empty())
            .count();
        let frac = aggs as f64 / app.queries.len() as f64;
        assert!((0.07..=0.15).contains(&frac), "aggregate fraction {frac}");
    }

    #[test]
    fn all_templates_execute() {
        use scs_sqlkit::{Query, Update};
        let app = auction();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let scale = AuctionScale {
            users: 40,
            items: 50,
        };
        let mut rng = StdRng::seed_from_u64(8);
        populate(&mut db, scale, &mut rng);
        let mut gen = crate::gen::ParamGen::new(id_spaces(scale), 1.0);
        for (tid, qd) in app.queries.iter().enumerate() {
            let params = gen.bind_all(&qd.params, &mut rng);
            let q = Query::bind(tid, qd.template.clone(), params).unwrap();
            db.execute(&q)
                .unwrap_or_else(|e| panic!("query `{}` fails: {e}", qd.name));
        }
        for (tid, ud) in app.updates.iter().enumerate() {
            let params = gen.bind_all(&ud.params, &mut rng);
            let u = Update::bind(tid, ud.template.clone(), params).unwrap();
            db.apply(&u)
                .unwrap_or_else(|e| panic!("update `{}` fails: {e}", ud.name));
        }
    }
}
