//! Compile-time pins of the `scs-sqlkit` and `scs-storage` names
//! `benchmark/` binds — what `src/workloads.rs` calls to bind a stream,
//! `src/pass.rs` to report a failed op, and `src/probes.rs` to time parse,
//! bind, render, execute, apply and the WAL. `benchmark/` is a workspace
//! of its own that `cargo test` here never builds, and no PR may change
//! it: a signature that drifts from these pins fails this file instead of
//! the benchmark's build. Coercions and field reads only — behaviour is
//! pinned elsewhere. The root package's `tests/benchmark_api.rs` includes
//! this file, so tier-1 compiles it.

use scs_sqlkit::{
    parse_query, parse_update, BindError, ParseError, Query, QueryTemplate, TemplateId, Update,
    UpdateTemplate, Value,
};
use scs_storage::{Database, QueryResult, StorageError, UpdateEffect, Wal};
use std::sync::Arc;

#[test]
fn sqlkit_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(&str) -> Result<QueryTemplate, ParseError> = parse_query;
    let _: fn(&str) -> Result<UpdateTemplate, ParseError> = parse_update;
    let _: fn(TemplateId, Arc<QueryTemplate>, Vec<Value>) -> Result<Query, BindError> = Query::bind;
    let _: fn(TemplateId, Arc<UpdateTemplate>, Vec<Value>) -> Result<Update, BindError> =
        Update::bind;
    let _: fn(&Query) -> String = Query::statement_text;
    let _: fn(&Update) -> String = Update::statement_text;
    let _: fn(&Query) -> TemplateId = |q| q.template_id;
    let _: fn(&Query) -> &Arc<QueryTemplate> = |q| &q.template;
    let _: fn(&Query) -> &[Value] = |q| &q.params;
    let _: fn(&Update) -> TemplateId = |u| u.template_id;
}

#[test]
fn storage_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(&Database, &Query) -> Result<QueryResult, StorageError> = Database::execute;
    let _: fn(&mut Database, &Update) -> Result<UpdateEffect, StorageError> = Database::apply;
    let _: fn(&Database) -> Database = Database::clone;
    let _: fn(Database, u64) -> Wal = Wal::new;
    let _: fn(&mut Wal, u64, Update) = Wal::append_statement;
    let _: fn(&Wal) -> Result<Database, StorageError> = Wal::replay;
    let _: fn(&Wal) -> usize = Wal::len;
}
