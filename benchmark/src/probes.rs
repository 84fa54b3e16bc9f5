//! Isolated layer probes: one public function of one layer at a time, on
//! inputs taken from the workload's own generated op stream (its distinct
//! queries, their real result sets, its update sequence). Each number is
//! the median over `REPS` batches of nanoseconds per unit of work, so an
//! optimisation of one layer shows here before it shows end to end.

use crate::pass::run_pass;
use crate::stats::median;
use crate::sut::Sut;
use crate::workloads::{
    build_inputs, gen_stream, BoundOp, Inputs, Request, Topology, WorkloadSpec,
};
use scs_apps::{analysis_matrix, home_shard_map};
use scs_core::{compulsory_exposures, reduce_exposures, SensitivityPolicy};
use scs_crypto::Encryptor;
use scs_dssp::{decide, InvalidationBatch, ResultCache, ShardedHome, UpdateView};
use scs_netsim::{OpCost, SimConfig, Workload, SEC};
use scs_sqlkit::{parse_query, parse_update, Query, Update};
use scs_storage::{QueryResult, Wal};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per probe; the reported number is their median.
const REPS: usize = 5;
/// Distinct queries a probe works on (the stream's first ones).
const QUERY_SAMPLE: usize = 400;
/// Scatter-gather queries timed per batch (each rebuilds a scratch
/// database, so they are slow).
const SCATTER_SAMPLE: usize = 24;
/// Share of the stream that warms a proxy before its invalidation
/// traffic is timed.
const WARM_SHARE: usize = 4;

/// Median over `REPS` batches of nanoseconds per unit. A batch sets up
/// untimed, then returns the time it measured and the units it did.
fn probe(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (elapsed, units) = batch();
            elapsed.as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// Canonical template text prints parameters as `?N`; the parser reads
/// bare `?`.
fn strip_param_indices(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '?' {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        }
    }
    out
}

/// A constant-cost workload: what the simulator's event loop costs per
/// operation when the operation itself costs nothing.
struct StubWorkload;

impl Workload for StubWorkload {
    fn begin_request(&mut self, _client: usize) -> usize {
        3
    }

    fn execute_op(&mut self, _client: usize, _op_index: usize) -> OpCost {
        OpCost {
            dssp_cpu: 300,
            reply_bytes: 512,
            ..OpCost::default()
        }
    }
}

struct Sample {
    queries: Vec<Query>,
    /// `queries` with a non-empty result at the initial database, with it.
    results: Vec<(Query, QueryResult)>,
    /// The updates the master accepts, in stream order.
    updates: Vec<Update>,
}

fn sample(inputs: &Inputs, stream: &[Request]) -> Sample {
    let mut seen = HashSet::new();
    let mut queries = Vec::new();
    let mut updates = Vec::new();
    for op in stream.iter().flat_map(|r| &r.ops) {
        match op {
            BoundOp::Query(q) => {
                if queries.len() < QUERY_SAMPLE && seen.insert(q.clone()) {
                    queries.push(q.clone());
                }
            }
            BoundOp::Update(u) => updates.push(u.clone()),
            BoundOp::RejectedUpdate(_) => {}
        }
    }
    let results = queries
        .iter()
        .filter_map(|q| {
            let r = inputs.db.execute(q).expect("stream queries execute");
            (!r.is_empty()).then(|| (q.clone(), r))
        })
        .collect();
    Sample {
        queries,
        results,
        updates,
    }
}

pub type Probed = Vec<(&'static str, f64)>;

fn prepare(spec: &WorkloadSpec, seed: u64) -> (Inputs, Vec<Request>, Sample) {
    let inputs = build_inputs(spec, seed);
    let stream = gen_stream(spec, &inputs, seed, spec.requests);
    let s = sample(&inputs, &stream);
    (inputs, stream, s)
}

/// The probes that see only the database, the templates and the op stream:
/// workloads with the same application, request weights and seed read the
/// same, so the caller measures them once for all of those.
pub fn of_inputs(spec: &WorkloadSpec, seed: u64) -> Probed {
    let (inputs, _, s) = prepare(spec, seed);
    let def = &inputs.def;
    let mut out = Vec::new();

    // --- sqlkit -----------------------------------------------------
    let query_sql: Vec<String> = def
        .queries
        .iter()
        .map(|t| strip_param_indices(&t.template.to_string()))
        .filter(|sql| parse_query(sql).is_ok())
        .collect();
    let update_sql: Vec<String> = def
        .updates
        .iter()
        .map(|t| strip_param_indices(&t.template.to_string()))
        .filter(|sql| parse_update(sql).is_ok())
        .collect();
    assert!(
        !query_sql.is_empty() && !update_sql.is_empty(),
        "canonical template text must parse back"
    );
    out.push((
        "sqlkit.parse_ns_per_stmt",
        probe(|| {
            let d = timed(|| {
                for sql in &query_sql {
                    black_box(parse_query(sql).is_ok());
                }
                for sql in &update_sql {
                    black_box(parse_update(sql).is_ok());
                }
            });
            (d, query_sql.len() + update_sql.len())
        }),
    ));
    out.push((
        "sqlkit.bind_ns_per_stmt",
        probe(|| {
            let args: Vec<_> = s
                .queries
                .iter()
                .map(|q| (q.template_id, q.template.clone(), q.params.clone()))
                .collect();
            let n = args.len();
            let d = timed(|| {
                for (tid, template, params) in args {
                    black_box(Query::bind(tid, template, params).is_ok());
                }
            });
            (d, n)
        }),
    ));
    out.push((
        "sqlkit.text_ns_per_stmt",
        probe(|| {
            let d = timed(|| {
                for q in &s.queries {
                    black_box(q.statement_text());
                }
            });
            (d, s.queries.len())
        }),
    ));

    // --- storage ----------------------------------------------------
    out.push((
        "storage.exec_ns_per_query",
        probe(|| {
            let d = timed(|| {
                for q in &s.queries {
                    black_box(inputs.db.execute(q).is_ok());
                }
            });
            (d, s.queries.len())
        }),
    ));
    out.push((
        "storage.apply_ns_per_update",
        probe(|| {
            let mut db = inputs.db.clone();
            let d = timed(|| {
                for u in &s.updates {
                    black_box(db.apply(u).is_ok());
                }
            });
            (d, s.updates.len())
        }),
    ));
    let mut log = Wal::new(inputs.db.clone(), 0);
    out.push((
        "storage.wal.append_ns_per_rec",
        probe(|| {
            log = Wal::new(inputs.db.clone(), 0);
            let records = s.updates.clone();
            let n = records.len();
            let d = timed(|| {
                for (i, u) in records.into_iter().enumerate() {
                    log.append_statement(i as u64 + 1, u);
                }
            });
            (d, n)
        }),
    ));
    out.push((
        "storage.wal.replay_ns_per_rec",
        probe(|| (timed(|| log.replay().is_ok()), log.len())),
    ));

    // --- crypto -----------------------------------------------------
    let encryptor = Encryptor::for_app(def.name);
    let texts: Vec<String> = s.queries.iter().map(Query::statement_text).collect();
    let text_bytes: usize = texts.iter().map(String::len).sum();
    let sealed: Vec<_> = texts.iter().map(|t| encryptor.encrypt_str(t)).collect();
    out.push((
        "crypto.seal_ns_per_byte",
        probe(|| {
            let d = timed(|| {
                for t in &texts {
                    black_box(encryptor.encrypt_str(t));
                }
            });
            (d, text_bytes)
        }),
    ));
    out.push((
        "crypto.open_ns_per_byte",
        probe(|| {
            let d = timed(|| {
                for ct in &sealed {
                    black_box(encryptor.decrypt_str(ct));
                }
            });
            (d, sealed.iter().map(|ct| ct.len()).sum())
        }),
    ));

    // --- dssp::cache ------------------------------------------------
    for (name, level) in [
        ("dssp.cache.store_view_ns", scs_core::ExposureLevel::View),
        ("dssp.cache.store_blind_ns", scs_core::ExposureLevel::Blind),
    ] {
        out.push((
            name,
            probe(|| {
                let mut cache = ResultCache::new(encryptor.clone());
                let entries = s.results.clone();
                let n = entries.len();
                let d = timed(|| {
                    for (q, r) in entries {
                        black_box(cache.store(&q, r, level));
                    }
                });
                (d, n)
            }),
        ));
    }

    // --- dssp::sharded ----------------------------------------------
    let mut sharded = ShardedHome::new(inputs.db.clone(), home_shard_map(def, 4));
    let (routed, scatter): (Vec<&Query>, Vec<&Query>) = s
        .queries
        .iter()
        .partition(|q| sharded.map().shards_for_query(q).len() == 1);
    for (name, side) in [
        ("dssp.sharded.routed_ns_per_query", &routed[..]),
        (
            "dssp.sharded.scatter_ns_per_query",
            &scatter[..scatter.len().min(SCATTER_SAMPLE)],
        ),
    ] {
        out.push((
            name,
            probe(|| {
                let d = timed(|| {
                    for q in side {
                        black_box(sharded.execute_query(q).is_ok());
                    }
                });
                (d, side.len())
            }),
        ));
    }

    // --- core (per call, in ms) --------------------------------------
    out.push((
        "core.characterize_ms",
        probe(|| (timed(|| analysis_matrix(def)), 1)) / 1e6,
    ));
    let policy = SensitivityPolicy::new(def.sensitive_attrs.iter().cloned());
    out.push((
        "core.reduce_ms",
        probe(|| {
            let d = timed(|| {
                let compulsory = compulsory_exposures(
                    &def.update_templates(),
                    &def.query_templates(),
                    &def.catalog(),
                    &policy,
                );
                reduce_exposures(&inputs.config.matrix, &compulsory)
            });
            (d, 1)
        }) / 1e6,
    ));

    // --- netsim -----------------------------------------------------
    out.push((
        "netsim.event_loop_ns_per_op",
        probe(|| {
            let mut cfg = SimConfig::paper(256, seed);
            cfg.duration = 180 * SEC;
            cfg.warmup = 0;
            let mut ops = 0;
            let d = timed(|| ops = scs_netsim::run(&cfg, &mut StubWorkload).ops_executed);
            (d, ops as usize)
        }),
    ));
    out
}

/// The probes that also depend on the workload's exposure levels: cache
/// lookups, invalidation decisions and invalidation traffic.
pub fn of_config(spec: &WorkloadSpec, seed: u64) -> Probed {
    let (inputs, stream, s) = prepare(spec, seed);
    let encryptor = Encryptor::for_app(inputs.def.name);
    let mut out = Vec::new();

    // Every other sampled query is cached under the workload's own
    // exposure levels: the cached half are the hits and the decision
    // probe's entries, the other half the misses.
    let mut cache = ResultCache::new(encryptor);
    let (cached, absent): (Vec<_>, Vec<_>) =
        s.results.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    for (_, (q, r)) in &cached {
        cache.store(q, r.clone(), inputs.config.exposures.queries[q.template_id]);
    }
    for (name, side) in [
        ("dssp.cache.lookup_hit_ns", &cached),
        ("dssp.cache.lookup_miss_ns", &absent),
    ] {
        out.push((
            name,
            probe(|| {
                let d = timed(|| {
                    for (_, (q, _)) in side {
                        black_box(cache.lookup(q).is_some());
                    }
                });
                (d, side.len())
            }),
        ));
    }

    // --- dssp::strategy ---------------------------------------------
    let deciding: Vec<&Update> = s.updates.iter().take(64).collect();
    out.push((
        "dssp.strategy.decide_ns_per_pair",
        probe(|| {
            let d = timed(|| {
                for u in &deciding {
                    let view = UpdateView::new(u, inputs.config.exposures.updates[u.template_id]);
                    for entry in cache.iter() {
                        black_box(decide(&inputs.config.matrix, &view, entry));
                    }
                }
            });
            (d, deciding.len() * cache.len())
        }),
    ));

    // --- dssp::proxy / dssp::fleet: invalidation traffic on a warm cache
    let (warm, rest) = stream.split_at(stream.len() / WARM_SHARE);
    let later_updates: Vec<&Update> = rest
        .iter()
        .flat_map(|r| &r.ops)
        .filter_map(|op| match op {
            BoundOp::Update(u) => Some(u),
            BoundOp::Query(_) | BoundOp::RejectedUpdate(_) => None,
        })
        .collect();
    let chunk = later_updates.len().div_ceil(REPS).max(1);

    let mut single = Sut::build(Topology::Single, &inputs, false);
    run_pass(&mut single, warm, false);
    let Sut::Single { mut dssp, mut home } = single else {
        unreachable!("built as Single")
    };
    let mut chunks = later_updates.chunks(chunk);
    out.push((
        "dssp.proxy.apply_batch_ns_per_msg",
        probe(|| {
            let batches: Vec<InvalidationBatch> = chunks
                .next()
                .unwrap_or_default()
                .iter()
                .filter_map(|u| home.apply_update(u).ok())
                .filter_map(|(_, msg)| InvalidationBatch::coalesce(vec![msg]))
                .collect();
            let d = timed(|| {
                for b in &batches {
                    black_box(dssp.apply_batch(b));
                }
            });
            (d, batches.len())
        }),
    ));

    let mut fleet = Sut::build(Topology::Fleet(4), &inputs, false);
    run_pass(&mut fleet, warm, false);
    let mut chunks = later_updates.chunks(chunk);
    out.push((
        // A fleet update less its home busy time: replication commit,
        // fanout to every pipe, and each replica's batch apply.
        "dssp.fleet.fanout_ns_per_update",
        probe(|| {
            let updates = chunks.next().unwrap_or_default();
            let home_before = fleet.home_nanos();
            let d = timed(|| {
                for u in updates {
                    black_box(fleet.update(u).is_ok());
                }
            });
            let home = Duration::from_nanos(fleet.home_nanos() - home_before);
            (d.saturating_sub(home), updates.len())
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_indices_are_stripped() {
        assert_eq!(
            strip_param_indices("SELECT a FROM t WHERE b = ?0 AND c < ?12"),
            "SELECT a FROM t WHERE b = ? AND c < ?"
        );
    }
}
