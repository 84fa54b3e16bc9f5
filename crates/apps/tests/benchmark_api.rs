//! Compile-time pins of the `scs-apps` names `benchmark/` binds — the
//! `scs-apps` half of "Program API the benchmark binds to" in
//! `benchmark/README.md` (the sim-trial constructors and the shard map
//! of `src/sut.rs`); see `crates/dssp/tests/benchmark_api.rs` for why
//! and for the rest. Coercions only.

use scs_apps::{home_shard_map, AppDef, DsspWorkload, FleetWorkload, IdSpaces, ShardedWorkload};
use scs_core::Exposures;
use scs_dssp::{DsspConfig, FleetConfig};
use scs_netsim::Workload;
use scs_storage::{Database, PartitionMap};

#[test]
fn sim_trial_names_keep_the_signatures_the_benchmark_binds() {
    let _: fn(&AppDef, Database, IdSpaces, DsspConfig, f64, u64) -> DsspWorkload =
        DsspWorkload::with_config;
    let _: fn(&AppDef, Database, IdSpaces, Exposures, PartitionMap, f64, u64) -> ShardedWorkload =
        ShardedWorkload::new;
    let _: fn(&AppDef, Database, IdSpaces, DsspConfig, FleetConfig, f64, u64) -> FleetWorkload =
        FleetWorkload::with_config;
    let _: fn(&AppDef, usize) -> PartitionMap = home_shard_map;
    fn runs_in_the_simulator<W: Workload>() {}
    runs_in_the_simulator::<DsspWorkload>();
    runs_in_the_simulator::<ShardedWorkload>();
    runs_in_the_simulator::<FleetWorkload>();
}
