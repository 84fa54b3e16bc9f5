//! # scs-dssp — the Database Scalability Service Provider prototype
//!
//! Implements the shaded cloud of the paper's Figure 1: a third-party node
//! that caches (possibly encrypted) query results on behalf of Web
//! applications, answers queries from the cache, forwards misses and all
//! updates to the application home server, and invalidates cached results
//! to maintain consistency (Figure 2's pathways).
//!
//! * [`cache`] — the result cache with exposure-gated visibility and
//!   deterministic-encryption key mechanics (footnote 3);
//! * [`statement`] — the minimal statement-inspection decision (MSIS);
//! * [`view`] — the minimal view-inspection decision (MVIS) with the §4.4
//!   refinement rules;
//! * [`strategy`] — the Figure-6 dispatch across exposure levels, and the
//!   four pure strategy classes (MBS/MTIS/MSIS/MVIS);
//! * [`proxy`] — the DSSP node itself: one request pipeline over any
//!   [`Home`], with the trip policy (link, retries, overload queue
//!   snapshot) as arguments whose neutral values are the paper's
//!   behaviour; [`home`] — the home server and that trait. Hosting
//!   several applications is one [`Dssp`] per `app_id`.
//!
//! Invalidation correctness (the §2.2 definition — a changed view is
//! always invalidated) is verified end-to-end by property tests in
//! `tests/correctness.rs` against ground-truth re-execution.
//!
//! The paper assumes every invalidation notification arrives, instantly
//! and in order. [`delivery`] drops that assumption: the home server
//! epoch-stamps the notification stream, proxies detect gaps and flush
//! conservatively, per-entry leases bound the staleness any *undetected*
//! failure can cause, and home-server trips retry with exponential
//! backoff. `tests/delivery.rs` covers the delivery semantics directly;
//! `scs-apps`' `tests/scenario.rs` drives random fault schedules against a
//! ground-truth oracle to verify the staleness bound.
//!
//! Past the scalability knee the right behaviour is to *bend, not
//! break*: [`admission`] adds deadline-aware admission control, a
//! per-home-link circuit breaker, and brownout serving (within-lease
//! hits degrade, misses fast-reject with [`Overloaded`]) so goodput
//! stays flat while overload is shed at arrival: step 0 of the same
//! pipeline, taken when a queue snapshot is passed ([`FtOutcome::Shed`]).

pub mod admission;
pub mod cache;
pub mod delivery;
pub mod elastic;
pub mod fleet;
pub mod home;
pub mod proxy;
pub mod replication;
pub mod sharded;
pub mod statement;
pub mod stats;
pub mod strategy;
pub mod view;

pub use admission::{
    AdmissionConfig, AdmissionController, BreakerConfig, BreakerState, BreakerTransition,
    BrownoutConfig, BrownoutController, CircuitBreaker, OverloadConfig, Overloaded, QueueState,
    Rejected, ShedReason,
};
pub use cache::{
    CacheEntry, CacheKey, Lookup, PrunedPairs, ResultCache, ScanOutcome, StoreOutcome,
};
pub use delivery::{
    BatchOutcome, DeliveryOutcome, FtOutcome, FtQueryResponse, FtUpdateOutcome, FtUpdateResponse,
    HomeLink, InvalidationBatch, InvalidationMsg, PipeRegistration, RetryPolicy,
};
pub use elastic::{
    Autoscaler, AutoscalerConfig, HandoffFault, JoinOutcome, LeaveOutcome, ScaleAction,
    ScaleDecision,
};
pub use fleet::{
    DeliveryTotals, FanoutConfig, FanoutStats, FleetConfig, FleetFtQueryResponse,
    FleetFtUpdateResponse, FleetQueryResponse, FleetUpdateResponse, ProxyFleet, RoutingMode,
};
pub use home::{Home, HomeServer};
pub use proxy::{Dssp, DsspConfig, QueryResponse, UpdateResponse};
pub use replication::{
    CommitAck, FailoverRecord, HomeGroup, ReplicationConfig, ReplicationMode, ShipMsg, Standby,
};
pub use sharded::{ShardedHome, ShardedQueryResponse, ShardedUpdateResponse};
pub use statement::statement_may_affect;
pub use stats::{DsspStats, Tally};
pub use strategy::{
    decide, must_invalidate, probe_for, probe_rule, DecisionPath, Probe, Rule, ScalarAt,
    StrategyKind, UpdateView,
};
pub use view::view_may_affect;
