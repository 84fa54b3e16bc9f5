//! Tier-1 (`cargo test -q` here) builds this package's tests only, and
//! `benchmark/` is built by neither: the signature pins of the names the
//! benchmark binds live beside the crates they pin and are compiled here
//! too, so an API break fails tier-1 rather than the benchmark's build.

#[path = "../crates/apps/tests/benchmark_api.rs"]
mod apps;
#[path = "../crates/dssp/tests/benchmark_api.rs"]
mod dssp;
