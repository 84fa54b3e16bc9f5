//! Freshness-plane property tests against the scenario's oracle:
//!
//! 1. under random fault schedules the plane's stale-age-at-serve never
//!    exceeds the lease, and its beyond-lease count agrees with the
//!    ground-truth oracle's verdict;
//! 2. the plane's commit stamps reproduce the oracle's master history
//!    timeline exactly (same epochs, same sim times);
//! 3. for a concrete chaotic run, the explain engine's causal chains
//!    are time-ordered and their `committed` steps land on the oracle's
//!    master-history timestamps.

use proptest::prelude::*;
use scs_apps::Scenario;
use scs_netsim::{FaultSpec, MS};
use scs_telemetry::Json;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Properties 1 + 2: lease-bounded staleness cross-checked against
    /// the oracle, and commit stamps matching the master history.
    #[test]
    fn plane_staleness_is_lease_bounded_and_commits_match_the_oracle(
        seed in 0u64..1_000_000,
        ops in 300usize..700,
        drop_pct in 0u32..=25,
        dup_pct in 0u32..=20,
        delay_pct in 0u32..=50,
        max_delay_ms in 1u64..60,
        lease_ms in 50u64..400,
    ) {
        let lease = lease_ms * MS;
        let mut cfg = Scenario::chaotic(seed, ops);
        cfg.lease_micros = Some(lease);
        cfg.pipe_faults = FaultSpec {
            drop_probability: drop_pct as f64 / 100.0,
            duplicate_probability: dup_pct as f64 / 100.0,
            delay_probability: delay_pct as f64 / 100.0,
            max_delay_micros: max_delay_ms * MS,
            base_latency_micros: MS,
        };
        let report = cfg.run();
        let p = report.provenance.lock().unwrap();
        let rl = p.replica(0);

        // The oracle (full master value history) and the plane (epoch
        // stamps) measure staleness independently; both must agree that
        // nothing left the lease window.
        prop_assert_eq!(report.stale_beyond_lease, 0, "oracle verdict (seed {})", seed);
        prop_assert_eq!(rl.stale_beyond_lease, 0, "plane verdict (seed {})", seed);
        prop_assert!(
            rl.stale_age.max.unwrap_or(0) <= lease,
            "plane recorded stale age {:?} beyond the lease {} (seed {})",
            rl.stale_age.max, lease, seed
        );
        for ev in rl.serve_events() {
            prop_assert!(ev.within_lease, "journaled over-age serve at t={}", ev.at_micros);
            prop_assert!(ev.age_micros <= lease);
        }
        prop_assert_eq!(
            rl.serves,
            rl.fresh_serves + rl.stale_within_lease + rl.stale_beyond_lease
        );

        // Commit stamps ARE the master history: epoch e committed at the
        // instant the oracle snapshotted master state e.
        prop_assert_eq!(
            p.commits().len() as u64,
            report.updates_applied,
            "one commit stamp per applied update"
        );
        prop_assert_eq!(
            report.master_history_micros.len() as u64,
            report.updates_applied + 1,
            "oracle history: initial state + one entry per update"
        );
        for c in p.commits() {
            prop_assert_eq!(
                report.master_history_micros.get(c.epoch as usize).copied(),
                Some(c.at_micros),
                "commit stamp for epoch {} disagrees with the oracle timeline",
                c.epoch
            );
        }
        // Conservation holds at the end of the stream too.
        prop_assert!(p.conservation_on(0, 0, final_epoch(&p)).balanced());
    }
}

/// The replica's final epoch, recovered from the journal (the scenario
/// does not expose the proxy after the run): the largest
/// `epoch_after` any arrival reached.
fn final_epoch(p: &scs_telemetry::ProvenanceLog) -> u64 {
    p.replica(0)
        .arrivals
        .iter()
        .map(|a| a.epoch_after)
        .max()
        .unwrap_or(0)
}

/// Property 3: on a fixed chaotic run, the explain chains are causal
/// (time-ordered) and pinned to the oracle's master history.
#[test]
fn explain_chains_are_causal_and_match_the_master_history() {
    let report = Scenario::chaotic(17, 1_500).run();
    let p = report.provenance.lock().unwrap();
    let rl = p.replica(0);

    let chain_of = |doc: &Json| -> Vec<Json> {
        doc.get("chain")
            .and_then(Json::as_arr)
            .expect("explain docs carry a chain")
            .to_vec()
    };
    let step_at = |s: &Json| s.get("at_micros").and_then(Json::as_u64).unwrap();
    let step_name = |s: &Json| s.get("step").and_then(Json::as_str).unwrap().to_string();
    let assert_causal = |chain: &[Json]| {
        assert!(!chain.is_empty(), "empty causal chain");
        // Each step in the chain happens at or after... no: the chain
        // lists store (earlier) then the commit→flush→send→outcome leg;
        // the propagation leg itself must be monotone in time.
        let leg: Vec<&Json> = chain
            .iter()
            .filter(|s| {
                matches!(
                    step_name(s).as_str(),
                    "committed" | "flushed" | "sent" | "delivered" | "served" | "missed"
                )
            })
            .collect();
        for w in leg.windows(2) {
            assert!(
                step_at(w[0]) <= step_at(w[1]),
                "chain leg not time-ordered: {} at {} then {} at {}",
                step_name(w[0]),
                step_at(w[0]),
                step_name(w[1]),
                step_at(w[1])
            );
        }
    };
    // Every `committed` step anywhere must land on the oracle timeline.
    let assert_commits_match = |chain: &[Json]| {
        for s in chain.iter().filter(|s| step_name(s) == "committed") {
            let epoch = s.get("epoch").and_then(Json::as_u64).unwrap() as usize;
            assert_eq!(
                report.master_history_micros.get(epoch).copied(),
                Some(step_at(s)),
                "committed step for epoch {epoch} disagrees with the oracle"
            );
        }
    };

    // why-age-t: the stalest journaled serve.
    let stale = rl
        .serve_events()
        .iter()
        .filter(|e| e.pending_epoch.is_some())
        .max_by_key(|e| e.age_micros)
        .expect("a chaotic run serves at least one stale-within-lease hit");
    let doc = p
        .explain_serve(0, stale.query_template, stale.at_micros)
        .expect("journaled serve explains");
    assert_eq!(
        doc.get("age_micros").and_then(Json::as_u64),
        Some(stale.age_micros)
    );
    let chain = chain_of(&doc);
    assert_causal(&chain);
    assert_commits_match(&chain);
    // The age is exactly now - commit(pending epoch), per the oracle.
    let pending = stale.pending_epoch.unwrap() as usize;
    let commit_at = report.master_history_micros[pending];
    assert_eq!(stale.age_micros, stale.at_micros - commit_at);

    // why-miss: the first post-invalidation miss.
    let miss = rl
        .miss_events()
        .iter()
        .find(|e| !e.expired)
        .expect("a chaotic run records misses");
    let doc = p
        .explain_miss(0, miss.query_template, miss.at_micros)
        .expect("journaled miss explains");
    let chain = chain_of(&doc);
    assert_causal(&chain);
    assert_commits_match(&chain);

    // why-degraded, when the outage schedule produced one.
    if let Some(ev) = rl.degraded_events().first() {
        let doc = p
            .explain_degraded(0, ev.query_template, ev.at_micros)
            .expect("journaled degraded serve explains");
        assert_causal(&chain_of(&doc));
    }
}
