//! The six workloads and the seeded op-stream generator.
//!
//! Everything the systems under test receive is made here, in set-up, from
//! the seed: the populated master database, the exposure assignment, and
//! the whole request stream. The timed loop only replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_apps::{analysis_matrix, AppDef, BenchApp, IdSpaces, Op, ParamGen, RequestType};
use scs_core::{compulsory_exposures, reduce_exposures, Exposures, IpmMatrix, SensitivityPolicy};
use scs_dssp::{DsspConfig, StrategyKind};
use scs_sqlkit::{Query, Update};
use scs_storage::Database;

/// How the per-template exposure levels are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exposure {
    /// One pure strategy for every template (MBS, MVIS, ...).
    Uniform(StrategyKind),
    /// The paper's methodology: compulsory encryption, then the greedy
    /// reduction — mixed levels in one cache.
    Methodology,
}

/// Which system under test serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `Dssp` proxy in front of one `HomeServer`.
    Single,
    /// One `Dssp` proxy in front of a `ShardedHome` of this many shards.
    Shards(usize),
    /// A `ProxyFleet` of this many replicas (hash-by-template routing,
    /// reliable immediate fanout) in front of one home.
    Fleet(usize),
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists: which layer does most of the work.
    pub why: &'static str,
    pub app: BenchApp,
    pub exposure: Exposure,
    pub cache_capacity: Option<usize>,
    /// Weight multiplier for every request type that carries an update.
    pub write_boost: u32,
    pub topology: Topology,
    /// Requests per pass — fixed work, so every count repeats exactly.
    pub requests: usize,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "auction_blind",
        why: "MBS: nearly every query misses, so the storage executor and the crypto seal \
              dominate and cache/invalidation work is bypassed",
        app: BenchApp::Auction,
        exposure: Exposure::Uniform(StrategyKind::Blind),
        cache_capacity: None,
        write_boost: 1,
        topology: Topology::Single,
        requests: 6_000,
    },
    WorkloadSpec {
        name: "auction_view",
        why: "the same op stream under MVIS: mostly hits, thousands of live entries, so \
              lookup, hit serving and view-level invalidation scans do the work",
        app: BenchApp::Auction,
        exposure: Exposure::Uniform(StrategyKind::ViewInspection),
        cache_capacity: None,
        write_boost: 1,
        topology: Topology::Single,
        requests: 6_000,
    },
    WorkloadSpec {
        name: "auction_view_writes",
        why: "auction_view with update-bearing requests weighted x6: home apply, WAL \
              append and the invalidation pass, so a read gain paid for on writes shows",
        app: BenchApp::Auction,
        exposure: Exposure::Uniform(StrategyKind::ViewInspection),
        cache_capacity: None,
        write_boost: 6,
        topology: Topology::Single,
        requests: 6_000,
    },
    WorkloadSpec {
        name: "bookstore_design_lru",
        why: "bookstore under the methodology's mixed exposures with a 1024-entry cache \
              below the Zipf working set: LRU eviction and every decision path at once",
        app: BenchApp::Bookstore,
        exposure: Exposure::Methodology,
        cache_capacity: Some(1024),
        write_boost: 1,
        topology: Topology::Single,
        requests: 6_000,
    },
    WorkloadSpec {
        name: "auction_view_shards4",
        why: "the auction_view stream against a 4-shard home: scatter-gather and \
              per-stream invalidation, which no other workload touches",
        app: BenchApp::Auction,
        exposure: Exposure::Uniform(StrategyKind::ViewInspection),
        cache_capacity: None,
        write_boost: 1,
        topology: Topology::Shards(4),
        requests: 1_000,
    },
    WorkloadSpec {
        name: "auction_view_fleet4",
        why: "the auction_view stream through a 4-replica fleet: routing, fanout and \
              per-replica batch apply; any gap to auction_view is fleet overhead",
        app: BenchApp::Auction,
        exposure: Exposure::Uniform(StrategyKind::ViewInspection),
        cache_capacity: None,
        write_boost: 1,
        topology: Topology::Fleet(4),
        requests: 6_000,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One bound operation of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundOp {
    Query(Query),
    Update(Update),
    /// An update the master rejects (an insert whose foreign key points at
    /// an auction closed earlier in the stream): the program must answer
    /// `Err` and change nothing.
    RejectedUpdate(Update),
}

/// One page interaction: all the operations of one HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub ops: Vec<BoundOp>,
}

/// Everything set-up derives from the seed, short of the stream.
pub struct Inputs {
    pub def: AppDef,
    pub db: Database,
    pub ids: IdSpaces,
    pub config: DsspConfig,
}

/// Multiplies the weight of every request type that carries an update.
pub fn boost_writes(requests: &mut [RequestType], factor: u32) {
    for r in requests {
        if r.ops.iter().any(|op| matches!(op, Op::Update(_))) {
            r.weight *= factor;
        }
    }
}

fn methodology_exposures(def: &AppDef, matrix: &IpmMatrix) -> Exposures {
    let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
    let compulsory = compulsory_exposures(
        &def.update_templates(),
        &def.query_templates(),
        &def.catalog(),
        &policy,
    );
    reduce_exposures(matrix, &compulsory)
}

/// DB build + IPM analysis + exposure design for `spec` at `seed`.
pub fn build_inputs(spec: &WorkloadSpec, seed: u64) -> Inputs {
    let mut def = spec.app.def();
    boost_writes(&mut def.requests, spec.write_boost);
    let (db, ids) = spec.app.build_database(seed);
    let matrix = analysis_matrix(&def);
    let exposures = match spec.exposure {
        Exposure::Uniform(kind) => kind.exposures(def.updates.len(), def.queries.len()),
        Exposure::Methodology => methodology_exposures(&def, &matrix),
    };
    let mut config = DsspConfig::new(def.name, exposures, matrix);
    config.cache_capacity = spec.cache_capacity;
    Inputs {
        def,
        db,
        ids,
        config,
    }
}

fn pick_request(requests: &[RequestType], mut pick: u32) -> &RequestType {
    for r in requests {
        if pick < r.weight {
            return r;
        }
        pick -= r.weight;
    }
    unreachable!("pick is below the weight total")
}

/// Generates `n` requests: a request type drawn by weight, each of its
/// operations bound with fresh parameters, in order — the same draw
/// sequence the simulator's own sampler makes, so the stream has the
/// application's real mix and id dynamics.
///
/// Applying the stream's updates to a scratch copy of the database as they
/// are drawn predicts which of them the master rejects. Those stay in the
/// stream, marked: a run fails an operation only when its outcome differs
/// from this prediction (or the oracle rejects what it served).
pub fn gen_stream(spec: &WorkloadSpec, inputs: &Inputs, seed: u64, n: usize) -> Vec<Request> {
    let def = &inputs.def;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = ParamGen::new(inputs.ids.clone(), spec.app.zipf_exponent());
    let mut scratch = inputs.db.clone();
    let total_weight: u32 = def.requests.iter().map(|r| r.weight).sum();
    let mut stream = Vec::with_capacity(n);
    for _ in 0..n {
        let request = pick_request(&def.requests, rng.gen_range(0..total_weight));
        let mut ops = Vec::with_capacity(request.ops.len());
        for op in &request.ops {
            match *op {
                Op::Query(tid) => {
                    let t = &def.queries[tid];
                    let params = gen.bind_all(&t.params, &mut rng);
                    let q = Query::bind(tid, t.template.clone(), params)
                        .expect("validated definitions");
                    ops.push(BoundOp::Query(q));
                }
                Op::Update(tid) => {
                    let t = &def.updates[tid];
                    let params = gen.bind_all(&t.params, &mut rng);
                    let u = Update::bind(tid, t.template.clone(), params)
                        .expect("validated definitions");
                    ops.push(match scratch.apply(&u) {
                        Ok(_) => BoundOp::Update(u),
                        Err(_) => BoundOp::RejectedUpdate(u),
                    });
                }
            }
        }
        stream.push(Request { ops });
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_stream(seed: u64) -> Vec<Request> {
        let spec = find("auction_view").unwrap();
        gen_stream(spec, &build_inputs(spec, seed), seed, 200)
    }

    #[test]
    fn stream_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(small_stream(42), small_stream(42));
        assert_ne!(small_stream(42), small_stream(7));
    }

    /// The rejection path is driven at all, and by the updates marked for it.
    #[test]
    fn stream_marks_exactly_the_updates_the_master_rejects() {
        let spec = find("auction_view_writes").unwrap();
        let inputs = build_inputs(spec, 42);
        let mut db = inputs.db.clone();
        let mut rejected = 0;
        for request in gen_stream(spec, &inputs, 42, 2_000) {
            for op in request.ops {
                match op {
                    BoundOp::Query(_) => {}
                    BoundOp::Update(u) => assert!(db.apply(&u).is_ok(), "{u}"),
                    BoundOp::RejectedUpdate(u) => {
                        assert!(db.apply(&u).is_err(), "{u}");
                        rejected += 1;
                    }
                }
            }
        }
        assert!(rejected > 0, "no update of the stream is rejected");
    }

    #[test]
    fn write_boost_leaves_query_templates_and_read_requests_untouched() {
        let plain = BenchApp::Auction.def();
        let mut boosted = BenchApp::Auction.def();
        boost_writes(&mut boosted.requests, 6);
        assert_eq!(plain.query_templates(), boosted.query_templates());
        assert_eq!(plain.update_templates(), boosted.update_templates());
        let mut boosted_some = false;
        for (p, b) in plain.requests.iter().zip(&boosted.requests) {
            assert_eq!(p.ops, b.ops);
            if p.ops.iter().any(|op| matches!(op, Op::Update(_))) {
                assert_eq!(b.weight, p.weight * 6, "{}", p.name);
                boosted_some = true;
            } else {
                assert_eq!(b.weight, p.weight, "{}", p.name);
            }
        }
        assert!(boosted_some);
    }
}
