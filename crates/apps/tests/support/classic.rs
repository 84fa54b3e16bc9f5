//! The classic synchronous pipeline, kept as a test-only reference: a
//! scenario's op script through one bare `Dssp` in front of one
//! `HomeServer`, answered by `execute_query` / `execute_update` —
//! perfect delivery, no faults, no fleet.

use scs_apps::scenario::{OpOutcome, Scenario};
use scs_apps::{analysis_matrix, toystore, BoundOp};
use scs_dssp::{Dssp, DsspConfig, HomeServer};

/// The classic pair's responses to `sc`'s script, in script order.
pub fn run_classic(sc: &Scenario) -> Vec<OpOutcome> {
    let app = toystore::toystore();
    let (master, script) = sc.bind();
    let exposures = sc.strategy.exposures(app.updates.len(), app.queries.len());
    let mut dssp = Dssp::new(DsspConfig {
        lease_micros: sc.lease_micros,
        ..DsspConfig::new("chaos", exposures, analysis_matrix(&app))
    });
    let mut home = HomeServer::new(master);
    let mut clock = 0;
    script
        .iter()
        .map(|op| {
            clock += sc.op_spacing_micros.max(1);
            dssp.set_sim_time_micros(clock);
            match op {
                BoundOp::Query(q) => {
                    let resp = dssp.execute_query(q, &mut home).expect("valid query");
                    OpOutcome::Query {
                        hit: resp.hit,
                        degraded: false,
                        result: resp.result,
                    }
                }
                BoundOp::Update(u) => match dssp.execute_update(u, &mut home) {
                    Ok(_) => OpOutcome::UpdateApplied,
                    Err(_) => OpOutcome::UpdateRejected,
                },
            }
        })
        .collect()
}
