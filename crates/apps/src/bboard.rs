//! `bboard` — a RUBBoS-like bulletin board inspired by slashdot.org
//! (§5.1): stories, threaded comments, user ratings, moderation.
//!
//! Each HTTP request issues **about ten database queries** (§5.3), which
//! is why the bboard collapses under blind/template-inspection strategies
//! in the paper's Figure 8. The user-to-user ratings are the paper's
//! example of moderately sensitive bboard data (§5.4).

use crate::defs::{query_def, update_def, AppDef, Op, ParamSpec, RequestType, Sensitivity};
use crate::gen::words;
use rand::rngs::StdRng;
use rand::Rng;
use scs_core::Attr;
use scs_sqlkit::Value;
use scs_storage::{ColumnType, Database, TableSchema};

/// Row counts used by [`populate`].
#[derive(Debug, Clone, Copy)]
pub struct BboardScale {
    pub users: i64,
    pub stories: i64,
}

impl Default for BboardScale {
    fn default() -> Self {
        BboardScale {
            users: 1_000,
            stories: 600,
        }
    }
}

pub fn schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("users")
            .column("u_id", ColumnType::Int)
            .column("u_nickname", ColumnType::Str)
            .column("u_password", ColumnType::Str)
            .column("u_email", ColumnType::Str)
            .column("u_rating", ColumnType::Int)
            .column("u_access", ColumnType::Int)
            .primary_key(&["u_id"])
            .index("u_nickname")
            .build()
            .expect("static schema"),
        TableSchema::builder("story_cat")
            .column("sc_id", ColumnType::Int)
            .column("sc_name", ColumnType::Str)
            .primary_key(&["sc_id"])
            .index("sc_name")
            .build()
            .expect("static schema"),
        TableSchema::builder("stories")
            .column("s_id", ColumnType::Int)
            .column("s_title", ColumnType::Str)
            .column("s_body", ColumnType::Str)
            .column("s_author", ColumnType::Int)
            .column("s_cat", ColumnType::Int)
            .column("s_date", ColumnType::Int)
            .column("s_hits", ColumnType::Int)
            .primary_key(&["s_id"])
            .foreign_key(&["s_author"], "users", &["u_id"])
            .foreign_key(&["s_cat"], "story_cat", &["sc_id"])
            .index("s_cat")
            .index("s_author")
            .ordered_index("s_date")
            .ordered_index("s_hits")
            .build()
            .expect("static schema"),
        TableSchema::builder("comments")
            .column("c_id", ColumnType::Int)
            .column("c_story", ColumnType::Int)
            .column("c_author", ColumnType::Int)
            .column("c_parent", ColumnType::Int)
            .column("c_date", ColumnType::Int)
            .column("c_subject", ColumnType::Str)
            .column("c_body", ColumnType::Str)
            .column("c_rating", ColumnType::Int)
            .primary_key(&["c_id"])
            .foreign_key(&["c_story"], "stories", &["s_id"])
            .foreign_key(&["c_author"], "users", &["u_id"])
            .index("c_story")
            .index("c_author")
            .ordered_index("c_rating")
            .build()
            .expect("static schema"),
        TableSchema::builder("moderator_log")
            .column("m_id", ColumnType::Int)
            .column("m_moderator", ColumnType::Int)
            .column("m_comment", ColumnType::Int)
            .column("m_delta", ColumnType::Int)
            .column("m_date", ColumnType::Int)
            .primary_key(&["m_id"])
            .foreign_key(&["m_moderator"], "users", &["u_id"])
            .foreign_key(&["m_comment"], "comments", &["c_id"])
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
            "storiesOfTheDay",
            "SELECT s_id, s_title, s_author, s_date FROM stories WHERE s_date >= ? \
             ORDER BY s_date DESC LIMIT 10",
            vec![Int(0, 5)],
            Low,
        ),
        // 1
        query_def(
            "getStory",
            "SELECT s_title, s_body, s_author, s_cat, s_date FROM stories WHERE s_id = ?",
            vec![PopularId("stories")],
            Low,
        ),
        // 2
        query_def(
            "getStoryComments",
            "SELECT c_id, c_author, c_subject, c_rating, c_parent FROM comments \
             WHERE c_story = ? ORDER BY c_date LIMIT 50",
            vec![PopularId("stories")],
            Low,
        ),
        // 3
        query_def(
            "getComment",
            "SELECT c_author, c_subject, c_body, c_rating FROM comments WHERE c_id = ?",
            vec![PopularId("comments")],
            Low,
        ),
        // 4
        query_def(
            "getUser",
            "SELECT u_nickname, u_rating, u_access FROM users WHERE u_id = ?",
            vec![PopularId("users")],
            Moderate,
        ),
        // 5
        query_def(
            "getUserByNickname",
            "SELECT u_id, u_password FROM users WHERE u_nickname = ?",
            vec![Keyed {
                table: "users",
                pattern: "reader{}",
            }],
            High,
        ),
        // 6 — aggregate
        query_def(
            "countStoryComments",
            "SELECT COUNT(*) FROM comments WHERE c_story = ?",
            vec![PopularId("stories")],
            Low,
        ),
        // 7
        query_def(
            "getStoriesByCategory",
            "SELECT s_id, s_title, s_date FROM stories WHERE s_cat = ? \
             ORDER BY s_date DESC LIMIT 25",
            vec![ExistingId("story_cat")],
            Low,
        ),
        // 8
        query_def(
            "getCategoryByName",
            "SELECT sc_id FROM story_cat WHERE sc_name = ?",
            vec![Word(words::CATEGORIES)],
            Low,
        ),
        // 9
        query_def(
            "getUserStories",
            "SELECT s_id, s_title, s_date FROM stories WHERE s_author = ? \
             ORDER BY s_date DESC LIMIT 25",
            vec![PopularId("users")],
            Moderate,
        ),
        // 10
        query_def(
            "getUserComments",
            "SELECT c_id, c_story, c_subject, c_rating FROM comments WHERE c_author = ? \
             ORDER BY c_date DESC LIMIT 25",
            vec![PopularId("users")],
            Moderate,
        ),
        // 11 — the user-to-user ratings view: moderately sensitive (§5.4)
        query_def(
            "getCommentAuthorRatings",
            "SELECT users.u_nickname, comments.c_rating FROM users, comments \
             WHERE users.u_id = comments.c_author AND comments.c_story = ? LIMIT 50",
            vec![PopularId("stories")],
            Moderate,
        ),
        // 12 — aggregate
        query_def(
            "getMaxCommentRating",
            "SELECT MAX(c_rating) FROM comments WHERE c_story = ?",
            vec![PopularId("stories")],
            Low,
        ),
        // 13
        query_def(
            "getStoryAuthor",
            "SELECT users.u_nickname, users.u_rating FROM users, stories \
             WHERE users.u_id = stories.s_author AND stories.s_id = ?",
            vec![PopularId("stories")],
            Low,
        ),
        // 14
        query_def(
            "getModerationLog",
            "SELECT m_comment, m_delta, m_date FROM moderator_log WHERE m_moderator = ? \
             ORDER BY m_date DESC LIMIT 20",
            vec![ExistingId("users")],
            Moderate,
        ),
        // 15
        query_def(
            "getTopComments",
            "SELECT c_id, c_subject, c_rating FROM comments WHERE c_rating >= ? \
             ORDER BY c_rating DESC LIMIT 10",
            vec![Int(4, 5)],
            Low,
        ),
        // 16
        query_def(
            "getHotStories",
            "SELECT s_id, s_title, s_hits FROM stories WHERE s_hits >= ? \
             ORDER BY s_hits DESC LIMIT 10",
            vec![Int(1, 4)],
            Low,
        ),
        // 17
        query_def(
            "getCommentReplies",
            "SELECT c_id, c_author, c_subject FROM comments WHERE c_parent = ? LIMIT 25",
            vec![PopularId("comments")],
            Low,
        ),
        // 18 — aggregate
        query_def(
            "countUserStories",
            "SELECT COUNT(*) FROM stories WHERE s_author = ?",
            vec![ExistingId("users")],
            Low,
        ),
        // 19
        query_def(
            "getCategory",
            "SELECT sc_name FROM story_cat WHERE sc_id = ?",
            vec![ExistingId("story_cat")],
            Low,
        ),
    ]
}

fn updates() -> Vec<crate::defs::TemplateDef<scs_sqlkit::UpdateTemplate>> {
    use ParamSpec::*;
    use Sensitivity::*;
    vec![
        // 0
        update_def(
            "submitStory",
            "INSERT INTO stories (s_id, s_title, s_body, s_author, s_cat, s_date, s_hits) \
             VALUES (?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("stories"),
                Text(24),
                Text(120),
                ExistingId("users"),
                ExistingId("story_cat"),
                Int(400, 600),
                Int(0, 0),
            ],
            Low,
        ),
        // 1
        update_def(
            "postComment",
            "INSERT INTO comments (c_id, c_story, c_author, c_parent, c_date, c_subject, \
             c_body, c_rating) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("comments"),
                PopularId("stories"),
                ExistingId("users"),
                Int(0, 0),
                Int(400, 600),
                Text(16),
                Text(80),
                Int(0, 0),
            ],
            Low,
        ),
        // 2
        update_def(
            "moderateComment",
            "UPDATE comments SET c_rating = ? WHERE c_id = ?",
            vec![Int(-1, 5), PopularId("comments")],
            Moderate,
        ),
        // 3
        update_def(
            "logModeration",
            "INSERT INTO moderator_log (m_id, m_moderator, m_comment, m_delta, m_date) \
             VALUES (?, ?, ?, ?, ?)",
            vec![
                FreshId("moderator_log"),
                ExistingId("users"),
                ExistingId("comments"),
                Int(-1, 1),
                Int(400, 600),
            ],
            Moderate,
        ),
        // 4
        update_def(
            "registerUser",
            "INSERT INTO users (u_id, u_nickname, u_password, u_email, u_rating, u_access) \
             VALUES (?, ?, ?, ?, ?, ?)",
            vec![
                FreshId("users"),
                Text(10),
                Text(12),
                Text(14),
                Int(0, 0),
                Int(0, 0),
            ],
            High,
        ),
        // 5
        update_def(
            "updateUserRating",
            "UPDATE users SET u_rating = ? WHERE u_id = ?",
            vec![Int(-10, 50), ExistingId("users")],
            Moderate,
        ),
        // 6
        update_def(
            "bumpStoryHits",
            "UPDATE stories SET s_hits = ? WHERE s_id = ?",
            vec![Int(0, 500), PopularId("stories")],
            Low,
        ),
        // 7
        update_def(
            "purgeOldComments",
            "DELETE FROM comments WHERE c_date < ?",
            vec![Int(0, 200)],
            Low,
        ),
    ]
}

/// Request mix — each page issues ~10 database queries (§5.3).
fn requests() -> Vec<RequestType> {
    use Op::*;
    vec![
        RequestType {
            name: "front-page",
            weight: 20,
            ops: vec![
                Query(0),
                Query(13),
                Query(13),
                Query(6),
                Query(6),
                Query(6),
                Query(16),
                Query(15),
                Query(19),
                Query(8),
            ],
        },
        RequestType {
            name: "view-story",
            weight: 22,
            ops: vec![
                Query(1),
                Query(13),
                Query(2),
                Query(6),
                Query(12),
                Query(11),
                Query(3),
                Query(3),
                Query(17),
                Update(6),
            ],
        },
        RequestType {
            name: "browse-category",
            weight: 10,
            ops: vec![
                Query(8),
                Query(7),
                Query(13),
                Query(13),
                Query(6),
                Query(6),
                Query(6),
                Query(19),
                Query(16),
                Query(0),
            ],
        },
        RequestType {
            name: "view-user",
            weight: 8,
            ops: vec![
                Query(4),
                Query(9),
                Query(10),
                Query(18),
                Query(14),
                Query(15),
                Query(16),
                Query(0),
            ],
        },
        RequestType {
            name: "post-comment",
            weight: 7,
            ops: vec![
                Query(5),
                Query(1),
                Query(2),
                Query(6),
                Update(1),
                Query(2),
                Query(6),
                Query(12),
                Query(3),
            ],
        },
        RequestType {
            name: "submit-story",
            weight: 3,
            ops: vec![
                Query(5),
                Query(8),
                Update(0),
                Query(0),
                Query(7),
                Query(13),
                Query(6),
                Query(16),
            ],
        },
        RequestType {
            name: "moderate",
            weight: 3,
            ops: vec![
                Query(5),
                Query(3),
                Update(2),
                Update(3),
                Update(5),
                Query(14),
                Query(15),
                Query(3),
            ],
        },
        RequestType {
            name: "register",
            weight: 1,
            ops: vec![Query(5), Update(4), Query(0), Query(16), Query(15)],
        },
        RequestType {
            name: "janitor",
            weight: 1,
            ops: vec![Query(5), Update(7), Query(0), Query(15)],
        },
    ]
}

/// The complete bboard application definition.
pub fn bboard() -> AppDef {
    AppDef {
        name: "bboard",
        schemas: schemas(),
        queries: queries(),
        updates: updates(),
        requests: requests(),
        sensitive_attrs: vec![Attr::new("users", "u_password")],
    }
}

/// Populates the bboard; ids are `1..=n` per table.
pub fn populate(db: &mut Database, scale: BboardScale, rng: &mut StdRng) {
    for (id, name) in words::CATEGORIES.iter().enumerate() {
        db.insert_row(
            "story_cat",
            vec![Value::Int(id as i64 + 1), Value::str(*name)],
        )
        .expect("fresh id");
    }
    let cats = words::CATEGORIES.len() as i64;
    for id in 1..=scale.users {
        db.insert_row(
            "users",
            vec![
                Value::Int(id),
                Value::Str(format!("reader{id}")),
                Value::Str(format!("pw{id}")),
                Value::Str(format!("reader{id}@example.org")),
                Value::Int(rng.gen_range(-5..50)),
                Value::Int(rng.gen_range(0..3)),
            ],
        )
        .expect("fresh id");
    }
    for id in 1..=scale.stories {
        db.insert_row(
            "stories",
            vec![
                Value::Int(id),
                Value::Str(format!("story headline {id}")),
                Value::Str(format!("story body text for story {id}")),
                Value::Int(1 + (id * 3) % scale.users),
                Value::Int(1 + (id % cats)),
                Value::Int(rng.gen_range(0..500)),
                Value::Int(rng.gen_range(0..200)),
            ],
        )
        .expect("fresh id");
    }
    let comments = scale.stories * 8;
    for id in 1..=comments {
        db.insert_row(
            "comments",
            vec![
                Value::Int(id),
                Value::Int(1 + (id % scale.stories)),
                Value::Int(1 + (id * 7) % scale.users),
                Value::Int(0),
                Value::Int(rng.gen_range(0..500)),
                Value::Str(format!("re: story {}", 1 + (id % scale.stories))),
                Value::Str(format!("comment body {id}")),
                Value::Int(rng.gen_range(-1..5)),
            ],
        )
        .expect("fresh id");
    }
    let moderations = scale.stories;
    for id in 1..=moderations {
        db.insert_row(
            "moderator_log",
            vec![
                Value::Int(id),
                Value::Int(1 + (id * 5) % scale.users),
                Value::Int(1 + (id * 9) % comments),
                Value::Int(if id % 2 == 0 { 1 } else { -1 }),
                Value::Int(rng.gen_range(0..500)),
            ],
        )
        .expect("fresh id");
    }
}

/// The initial id-space sizes matching [`populate`].
pub fn id_spaces(scale: BboardScale) -> crate::gen::IdSpaces {
    let mut ids = crate::gen::IdSpaces::default();
    ids.declare("story_cat", words::CATEGORIES.len() as i64);
    ids.declare("users", scale.users);
    ids.declare("stories", scale.stories);
    ids.declare("comments", scale.stories * 8);
    ids.declare("moderator_log", scale.stories);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validates() {
        bboard().validate().unwrap();
    }

    #[test]
    fn template_counts() {
        let app = bboard();
        assert_eq!(app.queries.len(), 20);
        assert_eq!(app.updates.len(), 8);
    }

    /// §5.3: each HTTP request results in about ten database requests.
    #[test]
    fn requests_average_ten_ops() {
        let app = bboard();
        let total_w: u32 = app.requests.iter().map(|r| r.weight).sum();
        let weighted: f64 = app
            .requests
            .iter()
            .map(|r| r.weight as f64 * r.ops.len() as f64)
            .sum::<f64>()
            / total_w as f64;
        assert!(
            (8.0..=11.0).contains(&weighted),
            "mean ops/request = {weighted}"
        );
    }

    #[test]
    fn all_templates_execute() {
        use scs_sqlkit::{Query, Update};
        let app = bboard();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let scale = BboardScale {
            users: 30,
            stories: 20,
        };
        let mut rng = StdRng::seed_from_u64(9);
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
