//! Integration and property tests for the overload-protection layer:
//!
//! 1. the circuit-breaker state machine never serves through an `Open`
//!    breaker before the probe interval, and `HalfOpen` admits exactly
//!    one probe — under arbitrary failure/success sequences;
//! 2. deadline-aware admission is monotone: at the same offered load,
//!    goodput with shedding is never below goodput without it (per
//!    seed), because admission only removes jobs that were doomed and
//!    every removal shortens the queue behind it;
//! 3. the retry-storm regression: two proxies retrying into the same
//!    outage with the jittered policy no longer collide on identical
//!    retry schedules, while each proxy's own schedule replays exactly;
//! 4. brownout end to end: with the breaker open, a within-lease hit
//!    serves degraded, a miss fast-rejects with `Overloaded` having
//!    touched no counter but its shed counter, and an expired entry is
//!    *never* served — shedding wins over staleness;
//! 5. a request bound to an unconfigured template id is refused in front
//!    of the gate, on a lone proxy and through a fleet, with nothing
//!    moved.

use proptest::prelude::*;
use scs_core::{characterize_app, AnalysisOptions, Catalog};
use scs_dssp::{
    AdmissionConfig, AdmissionController, BreakerConfig, BreakerState, BrownoutConfig,
    CircuitBreaker, Dssp, DsspConfig, FleetConfig, FtOutcome, HomeLink, HomeServer, OverloadConfig,
    Overloaded, ProxyFleet, QueueState, RetryPolicy, RoutingMode, StrategyKind,
};
use scs_sqlkit::{parse_query, parse_update, Query, QueryTemplate, Update, UpdateTemplate, Value};
use scs_storage::{ColumnType, Database, StorageError, TableSchema};
use std::sync::Arc;

const QUERY_SQL: &[&str] = &[
    "SELECT qty FROM toys WHERE id = ?",
    "SELECT id FROM toys WHERE qty > ?",
];

const UPDATE_SQL: &[&str] = &["UPDATE toys SET qty = ? WHERE id = ?"];

struct Rig {
    /// What `dssp` was built from.
    config: DsspConfig,
    dssp: Dssp,
    home: HomeServer,
    queries: Vec<Arc<QueryTemplate>>,
    updates: Vec<Arc<UpdateTemplate>>,
}

fn rig_with(app_id: &str, config: impl FnOnce(DsspConfig) -> DsspConfig) -> Rig {
    let schema = TableSchema::builder("toys")
        .column("id", ColumnType::Int)
        .column("qty", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let mut db = Database::new();
    db.create_table(schema.clone()).unwrap();
    for id in 0..4i64 {
        db.insert_row("toys", vec![Value::Int(id), Value::Int(10 + id)])
            .unwrap();
    }
    let queries: Vec<Arc<QueryTemplate>> = QUERY_SQL
        .iter()
        .map(|s| Arc::new(parse_query(s).unwrap()))
        .collect();
    let updates: Vec<Arc<UpdateTemplate>> = UPDATE_SQL
        .iter()
        .map(|s| Arc::new(parse_update(s).unwrap()))
        .collect();
    let catalog = Catalog::new(vec![schema]);
    let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
    let exposures = StrategyKind::ViewInspection.exposures(updates.len(), queries.len());
    let config = config(DsspConfig::new(app_id, exposures, matrix));
    Rig {
        dssp: Dssp::new(config.clone()),
        config,
        home: HomeServer::new(db),
        queries,
        updates,
    }
}

impl Rig {
    fn query(&self, tid: usize, params: Vec<Value>) -> Query {
        Query::bind(tid, self.queries[tid].clone(), params).unwrap()
    }

    fn counter(&self, name: &str) -> u64 {
        self.dssp.metrics().counters[name]
    }
}

fn overload_config() -> OverloadConfig {
    OverloadConfig {
        admission: AdmissionConfig {
            deadline_micros: 50_000,
            service_estimate_micros: 1_000,
            max_queue_depth: None,
        },
        breaker: BreakerConfig {
            failure_threshold: 1,
            open_micros: 100_000,
        },
        brownout: BrownoutConfig {
            window_micros: 50_000,
            shed_ratio_threshold: 0.5,
            min_offered: 4,
        },
    }
}

// ---------------------------------------------------------------------
// 1. Breaker state machine, property-tested against a shadow model.
// ---------------------------------------------------------------------

proptest! {
    /// Under an arbitrary interleaving of time advances and home-trip
    /// outcomes, `try_acquire` never returns true inside an open
    /// breaker's probe interval, and a half-open breaker admits exactly
    /// one probe at a time.
    #[test]
    fn breaker_never_serves_through_open(
        threshold in 1u32..5,
        open_micros in 10u64..500,
        ops in proptest::collection::vec((0u64..200, 0u32..2), 1..120),
    ) {
        let cfg = BreakerConfig { failure_threshold: threshold, open_micros };
        let mut b = CircuitBreaker::new(cfg);
        let mut now = 0u64;
        // Shadow: when (if ever) the breaker last tripped open.
        let mut opened_at: Option<u64> = None;
        for (dt, ok) in ops {
            now += dt;
            let acquired = b.try_acquire(now);
            if let Some(t0) = opened_at {
                prop_assert!(
                    acquired == (now >= t0 + open_micros),
                    "open at {t0}, now {now}: acquired={acquired}"
                );
            } else {
                prop_assert!(acquired, "a never-opened breaker must admit");
            }
            if !acquired {
                continue;
            }
            if b.state() == BreakerState::HalfOpen {
                // Exactly one probe: a concurrent acquire must refuse.
                prop_assert!(!b.try_acquire(now), "second concurrent probe admitted");
            }
            let transition = if ok == 1 { b.on_success(now) } else { b.on_failure(now) };
            if let Some(t) = transition {
                match t.to {
                    BreakerState::Open => opened_at = Some(t.at_micros),
                    BreakerState::Closed => opened_at = None,
                    BreakerState::HalfOpen => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Admission monotonicity on an inline single-server FIFO model.
// ---------------------------------------------------------------------

/// Runs `jobs` (arrival gap, service demand) through one FIFO server and
/// counts completions within `deadline` of arrival. With `admission`,
/// jobs whose projected completion misses the deadline are shed at
/// arrival and never occupy the server.
fn fifo_goodput(
    jobs: &[(u64, u64)],
    admission: Option<&AdmissionController>,
    deadline: u64,
) -> u64 {
    let mut server_free = 0u64;
    let mut arrival = 0u64;
    let mut timely = 0u64;
    for &(gap, service) in jobs {
        arrival += gap;
        let wait = server_free.saturating_sub(arrival);
        if let Some(a) = admission {
            let queue = QueueState {
                projected_wait_micros: wait,
                depth: 0,
            };
            if a.admit(arrival, &queue).is_err() {
                continue;
            }
        }
        let done = arrival.max(server_free) + service;
        server_free = done;
        if done <= arrival + deadline {
            timely += 1;
        }
    }
    timely
}

proptest! {
    /// At identical offered load, goodput with deadline-aware shedding
    /// is never below goodput without it: with a service estimate no
    /// larger than any actual demand, admission only rejects jobs that
    /// were already doomed, and every rejection shortens the queue for
    /// everyone behind it.
    #[test]
    fn admission_shedding_is_goodput_monotone(
        deadline in 200u64..3_000,
        jobs in proptest::collection::vec((0u64..150, 100u64..600), 10..200),
    ) {
        let estimate = jobs.iter().map(|&(_, s)| s).min().unwrap_or(0);
        let admission = AdmissionController::new(AdmissionConfig {
            deadline_micros: deadline,
            service_estimate_micros: estimate,
            max_queue_depth: None,
        });
        let unprotected = fifo_goodput(&jobs, None, deadline);
        let protected = fifo_goodput(&jobs, Some(&admission), deadline);
        prop_assert!(
            protected >= unprotected,
            "shedding lost goodput: {protected} < {unprotected}"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Retry-storm regression: jittered proxies decorrelate.
// ---------------------------------------------------------------------

/// Drives one query through the ft path into a full outage and returns
/// the per-attempt cumulative backoff (the retry timestamps relative to
/// arrival).
fn retry_backoff_into_outage(app_id: &str) -> u64 {
    let mut r = rig_with(app_id, |c| c);
    let q = r.query(0, vec![Value::Int(1)]);
    let link = HomeLink::with_outages(vec![(0, u64::MAX)]);
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff_micros: 5_000,
        max_backoff_micros: 80_000,
        timeout_micros: 1_000_000,
        jitter: true,
    };
    let resp = r
        .dssp
        .execute_query_ft(&q, &mut r.home, &link, &policy, None)
        .unwrap();
    assert!(
        matches!(resp.outcome, FtOutcome::Unavailable),
        "the link never comes back"
    );
    assert!(resp.attempts >= 2, "must actually have retried");
    resp.backoff_micros
}

/// Two identically scripted proxies retrying into the same outage used
/// to wake at identical timestamps — a synchronized retry storm into a
/// link that is already down. Full-jitter backoff seeded per proxy
/// decorrelates them, while each proxy alone stays deterministic.
#[test]
fn jittered_proxies_do_not_storm_in_lockstep() {
    let a = retry_backoff_into_outage("proxy-a");
    let b = retry_backoff_into_outage("proxy-b");
    assert_ne!(
        a, b,
        "both proxies accumulated identical retry schedules into the outage"
    );
    // Determinism: the same proxy replays the same schedule exactly.
    assert_eq!(a, retry_backoff_into_outage("proxy-a"));
    assert_eq!(b, retry_backoff_into_outage("proxy-b"));
}

// ---------------------------------------------------------------------
// 4. Brownout end to end against the lease bound.
// ---------------------------------------------------------------------

#[test]
fn brownout_serves_fresh_hits_degraded_and_sheds_misses() {
    const LEASE: u64 = 60_000;
    let mut r = rig_with("brownout", |c| DsspConfig {
        lease_micros: Some(LEASE),
        overload: Some(overload_config()),
        ..c
    });
    let hot = r.query(0, vec![Value::Int(1)]);
    let cold = r.query(0, vec![Value::Int(2)]);
    let policy = RetryPolicy::no_retries();
    let queue = QueueState::default();

    // Warm the cache while the world is healthy.
    let up = HomeLink::reliable();
    let resp = r
        .dssp
        .execute_query_ft(&hot, &mut r.home, &up, &policy, Some(&queue))
        .unwrap();
    let baseline = match resp.outcome {
        FtOutcome::Served {
            result,
            hit,
            degraded,
        } => {
            assert!(!hit && !degraded, "first touch is a clean miss");
            result
        }
        other => panic!("expected a serve, got {other:?}"),
    };

    // The home link dies; the first admitted miss trips the breaker
    // (failure_threshold = 1).
    let down = HomeLink::with_outages(vec![(0, u64::MAX)]);
    r.dssp.set_sim_time_micros(10_000);
    let resp = r
        .dssp
        .execute_query_ft(&cold, &mut r.home, &down, &policy, Some(&queue))
        .unwrap();
    assert!(matches!(resp.outcome, FtOutcome::Unavailable));
    assert_eq!(r.dssp.breaker_state(), Some(BreakerState::Open));
    assert_eq!(r.counter("dssp.breaker_opens"), 1);

    // Breaker open ⇒ brownout: the within-lease hit still serves, but
    // degraded — by brownout alone, the link having healed meanwhile —
    // and it is the same bytes the healthy serve produced.
    r.dssp.set_sim_time_micros(20_000);
    let resp = r
        .dssp
        .execute_query_ft(&hot, &mut r.home, &up, &policy, Some(&queue))
        .unwrap();
    match resp.outcome {
        FtOutcome::Served {
            result,
            hit,
            degraded,
        } => {
            assert!(hit && degraded, "brownout hit must serve degraded");
            assert_eq!(
                result, baseline,
                "degraded serve must replay the cached within-lease bytes"
            );
        }
        other => panic!("expected a degraded hit, got {other:?}"),
    }
    assert!(r.dssp.brownout_active());
    assert_eq!(r.counter("dssp.brownout_serves"), 1);

    // A miss under brownout fast-rejects instead of queueing — at the
    // gate, in front of arrival accounting: a shed request is not a
    // query served, so it moves its shed counter and no other.
    let before = r.dssp.metrics().counters;
    let resp = r
        .dssp
        .execute_query_ft(&cold, &mut r.home, &down, &policy, Some(&queue))
        .unwrap();
    match resp.outcome {
        FtOutcome::Shed(Overloaded::BreakerOpen { retry_after_micros }) => {
            assert!(
                retry_after_micros > 0,
                "retry hint should point at the probe"
            );
        }
        other => panic!("expected a breaker-open shed, got {other:?}"),
    }
    let moved: Vec<(String, u64)> = r
        .dssp
        .metrics()
        .counters
        .into_iter()
        .filter(|(name, v)| before[name] != *v)
        .collect();
    assert_eq!(moved, [("dssp.shed_breaker_open".to_string(), 1)]);

    // Past the lease the hot entry is no longer servable: brownout sheds
    // it rather than serving stale-beyond-lease bytes.
    r.dssp.set_sim_time_micros(LEASE + 30_000);
    let resp = r
        .dssp
        .execute_query_ft(&hot, &mut r.home, &down, &policy, Some(&queue))
        .unwrap();
    assert!(
        matches!(resp.outcome, FtOutcome::Shed(_)),
        "an expired entry must shed, never serve: {:?}",
        resp.outcome
    );
    assert_eq!(
        r.counter("dssp.shed_breaker_open"),
        2,
        "the expired hit fell through to the breaker-open shed path"
    );

    // The link heals; once the probe interval elapses the breaker lets
    // one probe through, the serve succeeds, and the breaker closes.
    let probe_at = 10_000 + overload_config().breaker.open_micros + 1;
    r.dssp.set_sim_time_micros(probe_at.max(LEASE + 40_000));
    let resp = r
        .dssp
        .execute_query_ft(&hot, &mut r.home, &up, &policy, Some(&queue))
        .unwrap();
    match resp.outcome {
        FtOutcome::Served { hit, degraded, .. } => {
            assert!(!hit, "the expired entry was dropped, so this refills");
            assert!(!degraded, "healthy serve after the breaker closes");
        }
        other => panic!("expected the probe to serve, got {other:?}"),
    }
    assert_eq!(r.dssp.breaker_state(), Some(BreakerState::Closed));
    assert_eq!(r.counter("dssp.breaker_half_opens"), 1);
    assert_eq!(r.counter("dssp.breaker_closes"), 1);
    assert_eq!(
        r.counter("dssp.degraded_serves"),
        1,
        "exactly the one within-lease brownout hit served degraded"
    );
}

// ---------------------------------------------------------------------
// 5. A request bound to an unconfigured template id.
// ---------------------------------------------------------------------

/// A query or update bound to a template id past the configured tables
/// answers `Err(BadQuery)` in front of the gate: no counter, span, cache
/// entry or breaker verdict moves — on a lone proxy and through a fleet.
/// Both used to index the exposure tables with the id and unwind.
#[test]
fn unconfigured_template_ids_are_refused_before_anything_moves() {
    let mut r = rig_with("unconfigured", |c| DsspConfig {
        overload: Some(overload_config()),
        ..c
    });
    r.dssp.enable_span_recording(64);
    let warm = r.query(0, vec![Value::Int(1)]);
    r.dssp.execute_query(&warm, &mut r.home).unwrap();
    let q = Query::bind(QUERY_SQL.len(), r.queries[0].clone(), vec![Value::Int(1)]).unwrap();
    let params = vec![Value::Int(7), Value::Int(1)];
    let u = Update::bind(UPDATE_SQL.len(), r.updates[0].clone(), params).unwrap();
    let (link, policy, queue) = (
        HomeLink::reliable(),
        RetryPolicy::no_retries(),
        QueueState::default(),
    );
    let refused = |e: &StorageError| matches!(e, StorageError::BadQuery(_));

    let (metrics, cached, spans) = (
        r.dssp.metrics(),
        r.dssp.cache_len(),
        r.dssp.spans().recorded(),
    );
    let verdicts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let query = r
            .dssp
            .execute_query_ft(&q, &mut r.home, &link, &policy, Some(&queue));
        let update = r
            .dssp
            .execute_update_ft(&u, &mut r.home, &link, &policy, Some(&queue));
        (
            query.err().is_some_and(|e| refused(&e)),
            update.err().is_some_and(|e| refused(&e)),
        )
    }));
    assert_eq!(
        verdicts.ok(),
        Some((true, true)),
        "a lone proxy unwound or served"
    );
    assert_eq!(r.dssp.metrics(), metrics);
    assert_eq!(r.dssp.cache_len(), cached);
    assert_eq!(r.dssp.spans().recorded(), spans);
    assert_eq!(r.dssp.breaker_state(), Some(BreakerState::Closed));

    let home = HomeServer::new(r.home.database().clone());
    let mut fleet = ProxyFleet::new(
        r.config.clone(),
        home,
        FleetConfig::reliable(2, RoutingMode::HashByTemplate),
    );
    fleet.execute_query_ft(&warm, &link, &policy, None).unwrap();
    let (metrics, cached) = (fleet.rollup_metrics(), fleet.total_cache_entries());
    let verdicts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let query = fleet.execute_query_ft(&q, &link, &policy, None);
        let update = fleet.execute_update_ft(&u, &link, &policy, None);
        (
            query.err().is_some_and(|e| refused(&e)),
            update.err().is_some_and(|e| refused(&e)),
        )
    }));
    assert_eq!(
        verdicts.ok(),
        Some((true, true)),
        "a fleet unwound or served"
    );
    assert_eq!(fleet.rollup_metrics(), metrics);
    assert_eq!(fleet.total_cache_entries(), cached);
    assert_eq!(
        fleet.home().database(),
        r.home.database(),
        "the master moved"
    );
}
