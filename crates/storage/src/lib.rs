//! # scs-storage — in-memory relational engine
//!
//! The *home server* substrate of the DSSP architecture (Figure 1 of the
//! paper): master copies of application data, an executor for the §2.1
//! query model, and update application with the integrity constraints the
//! static analysis exploits (§4.5):
//!
//! * **primary keys** — enforced on every insert;
//! * **foreign keys** — referential integrity enforced on insert.
//!
//! The executor implements multiset semantics (projection keeps
//! duplicates), conjunctive SPJ evaluation with index nested-loop and hash
//! joins on equality join predicates, `ORDER BY`, bounded top-k (read off
//! a declared ordered index where the query allows), and streaming
//! aggregation/`GROUP BY`. A query template is planned once — names
//! resolved, access paths and consumer chosen — and its statements bind
//! and run the plan.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod database;
pub mod error;
pub mod executor;
mod hash;
pub mod partition;
mod plan;
pub mod result;
pub mod schema;
pub mod table;
pub mod wal;

pub use database::{Database, UpdateEffect};
pub use error::StorageError;
pub use executor::PartitionedTable;
pub use hash::{KeyMap, KeyedHasher, KeyedState};
pub use partition::{PartitionMap, TablePlacement};
pub use plan::PlanMemo;
pub use result::QueryResult;
pub use schema::{Column, ColumnType, ForeignKey, TableSchema};
pub use table::{Row, RowId, Table};
pub use wal::{Wal, WalPayload, WalRecord};
