//! # scs-apps — benchmark Web applications and the end-to-end driver
//!
//! The paper evaluates on three publicly available benchmark applications
//! (§5.1): **auction** (RUBiS, modeled after ebay.com), **bboard**
//! (RUBBoS, inspired by slashdot.org), and **bookstore** (TPC-W, an online
//! book store with Zipf-distributed book popularity after Brynjolfsson et
//! al.). This crate defines Rust equivalents — schemas, the full template
//! sets, request mixes, data population, and parameter generators — plus
//! the paper's running `toystore` examples (Tables 1 and 3) and the
//! simulation driver that connects everything to `scs-netsim`.

pub mod auction;
pub mod bboard;
pub mod bookstore;
pub mod defs;
pub mod driver;
pub mod elastic;
pub mod gen;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod tally;
pub mod toystore;

pub use defs::{AppDef, Op, ParamSpec, RequestType, Sensitivity, TemplateDef};
pub use driver::{
    analysis_matrix, home_shard_map, CostModel, DsspWorkload, FleetWorkload, ShardedWorkload,
};
pub use elastic::{
    run_elastic, ElasticFleetWorkload, ElasticReport, ElasticRunConfig, MembershipChange,
};
pub use gen::{BoundOp, IdSpaces, ParamGen, RequestSampler, Zipf, BOOK_POPULARITY_EXPONENT};
pub use runner::{
    measure_scalability, run_audited_trial, run_trial, run_trial_on, sharded_workload, sweep,
    BenchApp, Fidelity, Topology,
};
pub use scenario::{
    goodput_curve, knee_index, CrashEvent, CrashKind, CurvePoint, HomeQueue, LoadProfile,
    LoadSegment, OpOutcome, Scenario, ScenarioReport,
};
