//! Compile-time pins of the `scs-dssp` names `benchmark/` binds — the
//! `scs-dssp` half of "Program API the benchmark binds to" in
//! `benchmark/README.md` (`src/sut.rs`'s request-path names, plus what
//! `src/probes.rs` and `src/workloads.rs` call on the same types).
//! `benchmark/` is a workspace of its own that `cargo test` here never
//! builds, and no PR may change it: a signature that drifts from these
//! pins fails this file instead of the benchmark's build. Coercions and
//! field reads only — behaviour is pinned elsewhere. The root package's
//! `tests/benchmark_api.rs` includes this file, so tier-1 compiles it.

use scs_core::{ExposureLevel, Exposures, IpmMatrix};
use scs_crypto::Encryptor;
use scs_dssp::{
    decide, BatchOutcome, CacheEntry, DecisionPath, Dssp, DsspConfig, DsspStats, FanoutStats,
    FleetConfig, FleetQueryResponse, FleetUpdateResponse, HomeServer, InvalidationBatch,
    InvalidationMsg, ProxyFleet, QueryResponse, ResultCache, RoutingMode, ShardedHome,
    ShardedQueryResponse, StrategyKind, UpdateResponse, UpdateView,
};
use scs_sqlkit::{Query, Update};
use scs_storage::{Database, PartitionMap, QueryResult, StorageError, UpdateEffect};

type Answer<T> = Result<T, StorageError>;

#[test]
fn proxy_and_home_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(DsspConfig) -> Dssp = Dssp::new;
    let _: fn(&mut Dssp, &Query, &mut HomeServer) -> Answer<QueryResponse> = Dssp::execute_query;
    let _: fn(&mut Dssp, &Update, &mut HomeServer) -> Answer<UpdateResponse> = Dssp::execute_update;
    let _: fn(&mut Dssp, &Query, &mut ShardedHome) -> Answer<QueryResponse> =
        Dssp::execute_query_sharded;
    let _: fn(&mut Dssp, &Update, &mut ShardedHome) -> Answer<(UpdateResponse, usize)> =
        Dssp::execute_update_sharded;
    let _: fn(&mut Dssp, &InvalidationBatch) -> BatchOutcome = Dssp::apply_batch;
    let _: fn(&Dssp) -> DsspStats = Dssp::stats;
    let _: fn(&Dssp) -> usize = Dssp::cache_len;
    let _: fn(&mut Dssp, usize) = Dssp::enable_span_recording;

    let _: fn(Database) -> HomeServer = HomeServer::new;
    let _: fn(&HomeServer) -> &Database = HomeServer::database;
    let _: fn(&HomeServer) -> u64 = HomeServer::service_nanos;
    let _: fn(&HomeServer) -> u64 = HomeServer::queries_served;
    let _: fn(&HomeServer) -> u64 = HomeServer::updates_applied;
    let _: fn(&mut HomeServer, &Update) -> Answer<(UpdateEffect, InvalidationMsg)> =
        HomeServer::apply_update;

    let _: fn(Database, PartitionMap) -> ShardedHome = ShardedHome::new;
    let _: fn(&ShardedHome, usize) -> &HomeServer = ShardedHome::shard;
    let _: fn(&ShardedHome) -> usize = ShardedHome::shard_count;
    let _: fn(&ShardedHome) -> u64 = ShardedHome::scatter_queries;
    let _: fn(&ShardedHome) -> &PartitionMap = ShardedHome::map;
    let _: fn(&mut ShardedHome, &Query) -> Answer<ShardedQueryResponse> =
        ShardedHome::execute_query;

    let _: fn(Vec<InvalidationMsg>) -> Option<InvalidationBatch> = InvalidationBatch::coalesce;
    let _: fn(&'static str, Exposures, IpmMatrix) -> DsspConfig = DsspConfig::new;
    let _: fn(&DsspConfig) -> Option<usize> = |c| c.cache_capacity;
    let _: fn(StrategyKind, usize, usize) -> Exposures = StrategyKind::exposures;
}

#[test]
fn fleet_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(DsspConfig, HomeServer, FleetConfig) -> ProxyFleet = ProxyFleet::new;
    let _: fn(&mut ProxyFleet, &Query) -> Answer<FleetQueryResponse> = ProxyFleet::execute_query;
    let _: fn(&mut ProxyFleet, &Update) -> Answer<FleetUpdateResponse> = ProxyFleet::execute_update;
    let _: fn(&ProxyFleet) -> &HomeServer = ProxyFleet::home;
    let _: fn(&ProxyFleet) -> DsspStats = ProxyFleet::rollup_stats;
    let _: fn(&ProxyFleet) -> usize = ProxyFleet::total_cache_entries;
    let _: fn(&ProxyFleet) -> FanoutStats = ProxyFleet::fanout_stats;
    let _: fn(&mut ProxyFleet, usize) = ProxyFleet::enable_span_recording;
    let _: fn(usize, RoutingMode) -> FleetConfig = FleetConfig::reliable;
    let _: RoutingMode = RoutingMode::HashByTemplate;
    let _: fn(FleetQueryResponse) -> QueryResponse = |r| r.resp;
    let _: fn(FleetUpdateResponse) -> UpdateResponse = |r| r.resp;
    let _: fn(&FanoutStats) -> u64 = |s| s.pipes.iter().map(|p| p.sent).sum();
}

#[test]
fn strategy_and_cache_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(&IpmMatrix, &UpdateView<'_>, &CacheEntry) -> (bool, DecisionPath) = decide;
    let _: fn(&'static Update, ExposureLevel) -> UpdateView<'static> = UpdateView::new;
    let _: fn(Encryptor) -> ResultCache = ResultCache::new;
    let _: fn(&mut ResultCache, &Query, QueryResult, ExposureLevel) -> bool = ResultCache::store;
    let _: for<'c> fn(&'c mut ResultCache, &Query) -> Option<&'c CacheEntry> = ResultCache::lookup;
    let _: fn(&ResultCache) -> Option<&CacheEntry> = |c| c.iter().next();
    let _: fn(&ResultCache) -> usize = ResultCache::len;
}

#[test]
fn response_and_counter_fields_are_the_ones_the_benchmark_reads() {
    let _: fn(QueryResponse) -> (QueryResult, bool) = |r| (r.result, r.hit);
    let _: fn(UpdateResponse) -> (UpdateEffect, usize, usize) =
        |r| (r.effect, r.scanned, r.invalidated);
    let DsspStats {
        queries,
        hits,
        misses,
        updates,
        invalidations,
        entries_scanned,
        entries_inspected,
        evictions,
    } = DsspStats::default();
    let _: [u64; 8] = [
        queries,
        hits,
        misses,
        updates,
        invalidations,
        entries_scanned,
        entries_inspected,
        evictions,
    ];
}
