//! Microbenchmarks: per-update invalidation cost of the four strategy
//! classes over a warm cache (the DSSP-side CPU cost that the simulation's
//! `dssp_cpu_per_scan` models).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scs_apps::{analysis_matrix, BenchApp, ParamGen};
use scs_dssp::{Dssp, DsspConfig, HomeServer, StrategyKind};
use scs_sqlkit::{Query, Update};
use std::hint::black_box;

/// Builds a DSSP with `entries` cached bookstore query results and a batch
/// of pre-bound updates.
fn warm_dssp(kind: StrategyKind, entries: usize, seed: u64) -> (Dssp, HomeServer, Vec<Update>) {
    let app = BenchApp::Bookstore;
    let def = app.def();
    let (db, ids) = app.build_database(seed);
    let mut home = HomeServer::new(db);
    let matrix = analysis_matrix(&def);
    let mut dssp = Dssp::new(DsspConfig::new(
        "bench",
        kind.exposures(def.updates.len(), def.queries.len()),
        matrix,
    ));
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
    let mut gen = ParamGen::new(ids, app.zipf_exponent());
    let mut bind_updates = |n: usize, gen: &mut ParamGen| -> Vec<Update> {
        (0..n)
            .map(|i| {
                let tid = i % def.updates.len();
                let params = gen.bind_all(&def.updates[tid].params, &mut rng);
                Update::bind(tid, def.updates[tid].template.clone(), params).unwrap()
            })
            .collect()
    };
    let mut fill_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed ^ 1);
    let mut guard = 0;
    let mut fill = |dssp: &mut Dssp, home: &mut HomeServer, gen: &mut ParamGen, upto: usize| {
        while dssp.cache_len() < upto && guard < entries * 20 {
            guard += 1;
            let tid = guard % def.queries.len();
            let params = gen.bind_all(&def.queries[tid].params, &mut fill_rng);
            let q = Query::bind(tid, def.queries[tid].template.clone(), params).unwrap();
            dssp.execute_query(&q, home).unwrap();
        }
    };
    // A proxy meets every update template early in its life, while its
    // cache is small — which is when the cache builds the value indexes
    // those updates probe. Replay that here, so the timed updates measure
    // the standing pass, not the one-time index builds.
    fill(&mut dssp, &mut home, &mut gen, entries.min(64));
    for u in bind_updates(def.updates.len(), &mut gen) {
        let _ = dssp.execute_update(&u, &mut home);
    }
    fill(&mut dssp, &mut home, &mut gen, entries);
    let updates = bind_updates(64, &mut gen);
    (dssp, home, updates)
}

fn bench_invalidation(c: &mut Criterion) {
    let mut group = c.benchmark_group("invalidation_pass");
    group.sample_size(20);
    for kind in StrategyKind::ALL {
        group.bench_function(
            BenchmarkId::new("64_updates_500_entries", kind.name()),
            |b| {
                // Rebuild per batch: updates mutate cache and master data.
                b.iter_batched(
                    || warm_dssp(kind, 500, 42),
                    |(mut dssp, mut home, updates)| {
                        for u in &updates {
                            let _ = black_box(dssp.execute_update(u, &mut home));
                        }
                        (dssp, home)
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    // The pass over a growing cache: with the value indexes in front of
    // `decide`, MVIS's cost follows the victims, not the cache size.
    for entries in [100, 1_000, 10_000] {
        group.bench_function(
            BenchmarkId::new(format!("64_updates_{entries}_entries"), "MVIS"),
            |b| {
                b.iter_batched(
                    || warm_dssp(StrategyKind::ViewInspection, entries, 42),
                    |(mut dssp, mut home, updates)| {
                        for u in &updates {
                            let _ = black_box(dssp.execute_update(u, &mut home));
                        }
                        (dssp, home)
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_invalidation);
criterion_main!(benches);
