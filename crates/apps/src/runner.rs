//! Convenience builders: one call from (application, exposure assignment)
//! to a populated end-to-end workload, plus the scalability measurement
//! used by the Figure-3/Figure-8 experiments.

use crate::defs::AppDef;
use crate::driver::{
    analysis_matrix, home_shard_map, CostModel, DsspWorkload, FleetWorkload, ShardedWorkload,
};
use crate::gen::{IdSpaces, BOOK_POPULARITY_EXPONENT};
use crate::{auction, bboard, bookstore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs_core::{Exposures, IpmMatrix};
use scs_dssp::{DsspConfig, FleetConfig, RoutingMode};
use scs_netsim::{
    find_max_users, RunMetrics, ScalabilityResult, SearchOptions, SimConfig, Sla, SystemSpec,
};
use scs_storage::Database;
use scs_telemetry::AuditLog;

/// The three benchmark applications of the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchApp {
    Auction,
    Bboard,
    Bookstore,
}

impl BenchApp {
    pub const ALL: [BenchApp; 3] = [BenchApp::Auction, BenchApp::Bboard, BenchApp::Bookstore];

    pub fn name(self) -> &'static str {
        match self {
            BenchApp::Auction => "auction",
            BenchApp::Bboard => "bboard",
            BenchApp::Bookstore => "bookstore",
        }
    }

    /// The application definition.
    pub fn def(self) -> AppDef {
        match self {
            BenchApp::Auction => auction::auction(),
            BenchApp::Bboard => bboard::bboard(),
            BenchApp::Bookstore => bookstore::bookstore(),
        }
    }

    /// Populates a fresh master database at the default scale.
    pub fn build_database(self, seed: u64) -> (Database, IdSpaces) {
        self.build_database_scaled(seed, 1)
    }

    /// Populates a fresh master database with every scale knob divided by
    /// `div` (min 8 rows per dimension). The fleet trials use this to get
    /// a *hot* working set — the multi-proxy experiments measure how far
    /// replicated caches stretch a popular site, so the interesting
    /// regime is one where informed strategies serve mostly from cache.
    pub fn build_database_scaled(self, seed: u64, div: i64) -> (Database, IdSpaces) {
        let shrink = |n: i64| (n / div).max(8);
        let app = self.def();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).expect("static schemas");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            BenchApp::Auction => {
                let d = auction::AuctionScale::default();
                let scale = auction::AuctionScale {
                    users: shrink(d.users),
                    items: shrink(d.items),
                };
                auction::populate(&mut db, scale, &mut rng);
                (db, auction::id_spaces(scale))
            }
            BenchApp::Bboard => {
                let d = bboard::BboardScale::default();
                let scale = bboard::BboardScale {
                    users: shrink(d.users),
                    stories: shrink(d.stories),
                };
                bboard::populate(&mut db, scale, &mut rng);
                (db, bboard::id_spaces(scale))
            }
            BenchApp::Bookstore => {
                let d = bookstore::BookstoreScale::default();
                let scale = bookstore::BookstoreScale {
                    items: shrink(d.items),
                    customers: shrink(d.customers),
                    authors: shrink(d.authors),
                };
                bookstore::populate(&mut db, scale, &mut rng);
                (db, bookstore::id_spaces(scale))
            }
        }
    }

    /// Popularity skew for item-like parameters: the bookstore uses the
    /// Brynjolfsson et al. exponent (§5.1); the others use a milder skew.
    pub fn zipf_exponent(self) -> f64 {
        match self {
            BenchApp::Bookstore => BOOK_POPULARITY_EXPONENT,
            BenchApp::Auction | BenchApp::Bboard => 1.3,
        }
    }

    /// A fresh end-to-end workload under `exposures`.
    pub fn workload(self, exposures: Exposures, seed: u64) -> DsspWorkload {
        let app = self.def();
        let (db, ids) = self.build_database(seed);
        DsspWorkload::new(&app, db, ids, exposures, self.zipf_exponent(), seed)
    }

    /// As [`BenchApp::workload`] with an explicit IPM matrix (ablations).
    pub fn workload_with_matrix(
        self,
        exposures: Exposures,
        matrix: IpmMatrix,
        seed: u64,
    ) -> DsspWorkload {
        let app = self.def();
        let (db, ids) = self.build_database(seed);
        DsspWorkload::with_matrix(&app, db, ids, exposures, matrix, self.zipf_exponent(), seed)
    }

    /// A fresh multi-proxy fleet workload under `exposures`, in the
    /// DSSP-bound cost regime of the paper's multi-proxy figures: a hot
    /// working set ([`FLEET_SCALE_DIV`]) plus [`CostModel::dssp_bound`],
    /// so informed strategies' binding resource is the proxy tier.
    pub fn fleet_workload(
        self,
        exposures: Exposures,
        fleet: FleetConfig,
        seed: u64,
    ) -> FleetWorkload {
        let app = self.def();
        let (db, ids) = self.build_database_scaled(seed, FLEET_SCALE_DIV);
        let config = DsspConfig::new(app.name, exposures, analysis_matrix(&app));
        FleetWorkload::with_config(&app, db, ids, config, fleet, self.zipf_exponent(), seed)
            .with_costs(CostModel::dssp_bound())
    }
}

/// Scale divisor for fleet-trial databases (see
/// [`BenchApp::build_database_scaled`]): small enough that the view
/// strategy's working set fits hot in every replica's cache, keeping
/// its miss traffic — and hence its share of the *shared* home server —
/// low enough that added replicas keep paying off.
pub const FLEET_SCALE_DIV: i64 = 8;

/// Experiment fidelity knobs: trial length and search resolution.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    pub duration_secs: u64,
    pub warmup_secs: u64,
    pub max_users: usize,
    pub resolution: usize,
}

impl Fidelity {
    /// The paper's methodology: 10-minute runs.
    pub fn full() -> Fidelity {
        Fidelity {
            duration_secs: 600,
            warmup_secs: 60,
            max_users: 8_192,
            resolution: 16,
        }
    }

    /// Faster runs for CI / quick reproduction; same qualitative shape.
    pub fn quick() -> Fidelity {
        Fidelity {
            duration_secs: 180,
            warmup_secs: 30,
            max_users: 4_096,
            resolution: 64,
        }
    }
}

/// Where a trial's proxies and home servers sit. Each shape brings its
/// own simulator tier sizing *and* its own cost regime, so a sweep along
/// an axis measures that axis's bottleneck:
///
/// * `Single` — one proxy, one home, default (home-bound) costs;
/// * `Proxies(n, routing)` — an `n`-replica [`scs_dssp::ProxyFleet`],
///   each replica queueing on its own CPU while the home server and its
///   link stay shared, in the DSSP-bound regime of
///   [`BenchApp::fleet_workload`] — the mechanism that caps blind
///   strategies no matter how many proxies are added;
/// * `HomeShards(n)` — the master partitioned over `n` shards, one
///   service center each, DSSP node and link shared, default
///   (home-bound) costs — the experiment asks how far partitioning the
///   master stretches the strategy that lives there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Single,
    Proxies(usize, RoutingMode),
    HomeShards(usize),
}

/// The simulator configuration every trial starts from.
fn trial_config(topology: Topology, users: usize, fidelity: Fidelity, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(users, seed);
    cfg.duration = fidelity.duration_secs * scs_netsim::SEC;
    cfg.warmup = fidelity.warmup_secs * scs_netsim::SEC;
    match topology {
        Topology::Single => {}
        Topology::Proxies(n, _) => cfg.spec = SystemSpec::with_dssp_nodes(n),
        Topology::HomeShards(n) => cfg.spec = SystemSpec::with_home_shards(n),
    }
    cfg
}

/// Runs one trial of `app` under `exposures` on `topology` with `users`
/// concurrent users — fresh workload, cold caches — and returns the run
/// metrics.
pub fn run_trial_on(
    app: BenchApp,
    exposures: &Exposures,
    topology: Topology,
    users: usize,
    fidelity: Fidelity,
    seed: u64,
) -> RunMetrics {
    let cfg = trial_config(topology, users, fidelity, seed);
    let exposures = exposures.clone();
    match topology {
        Topology::Single => scs_netsim::run(&cfg, &mut app.workload(exposures, seed)),
        Topology::Proxies(n, routing) => {
            let fleet = FleetConfig::reliable(n, routing);
            scs_netsim::run(&cfg, &mut app.fleet_workload(exposures, fleet, seed))
        }
        Topology::HomeShards(n) => {
            scs_netsim::run(&cfg, &mut sharded_workload(app, exposures, n, seed))
        }
    }
}

/// [`run_trial_on`] the classic single-proxy, single-home testbed.
pub fn run_trial(
    app: BenchApp,
    exposures: &Exposures,
    users: usize,
    fidelity: Fidelity,
    seed: u64,
) -> RunMetrics {
    run_trial_on(app, exposures, Topology::Single, users, fidelity, seed)
}

/// Like [`run_trial`] but with the leakage audit plane attached to the
/// proxy: returns the run metrics together with the shared audit handle
/// so callers can read the leakage ledger after the run. The op stream
/// is identical to the unaudited trial's (same seed, same sampler).
pub fn run_audited_trial(
    app: BenchApp,
    exposures: &Exposures,
    users: usize,
    fidelity: Fidelity,
    seed: u64,
) -> (RunMetrics, scs_telemetry::SharedAudit) {
    let cfg = trial_config(Topology::Single, users, fidelity, seed);
    let mut workload = app.workload(exposures.clone(), seed);
    let audit = scs_telemetry::shared_audit(1);
    let sink = AuditLog::sink(&audit, 0, app.name());
    workload.dssp_mut().add_trace_sink(Box::new(sink));
    workload.dssp_mut().meter_crypto();
    let metrics = scs_netsim::run(&cfg, &mut workload);
    (metrics, audit)
}

/// Measures scalability (the paper's metric: max users with the 90th
/// percentile response time under 2 s) at each of `topologies` — an
/// independent search per point, fresh workload and cold caches at
/// every trial. Results come back in the order of `topologies`.
pub fn sweep(
    app: BenchApp,
    exposures: &Exposures,
    topologies: &[Topology],
    fidelity: Fidelity,
    seed: u64,
) -> Vec<ScalabilityResult> {
    let opts = SearchOptions {
        start: 8,
        max: fidelity.max_users,
        resolution: fidelity.resolution,
    };
    topologies
        .iter()
        .map(|&topology| {
            find_max_users(
                |users| run_trial_on(app, exposures, topology, users, fidelity, seed),
                &Sla::paper(),
                opts,
            )
        })
        .collect()
}

/// The one-point [`sweep`] of the single-proxy testbed (Figures 3 and 8).
pub fn measure_scalability(
    app: BenchApp,
    exposures: &Exposures,
    fidelity: Fidelity,
    seed: u64,
) -> ScalabilityResult {
    sweep(app, exposures, &[Topology::Single], fidelity, seed)
        .pop()
        .expect("one topology, one result")
}

/// A fresh sharded-home workload under `exposures`: the master database
/// is partitioned over `shards` by [`home_shard_map`] (hash splits on
/// pinnable primary keys, whole-table placement for the rest), on the same hot
/// working set as the fleet trials. The cost model stays the default
/// **home-bound** shape (see [`Topology::HomeShards`]).
pub fn sharded_workload(
    app: BenchApp,
    exposures: Exposures,
    shards: usize,
    seed: u64,
) -> ShardedWorkload {
    let def = app.def();
    let (db, ids) = app.build_database_scaled(seed, FLEET_SCALE_DIV);
    let map = home_shard_map(&def, shards);
    ShardedWorkload::new(&def, db, ids, exposures, map, app.zipf_exponent(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn databases_build_for_all_apps() {
        for app in BenchApp::ALL {
            let (db, ids) = app.build_database(3);
            let def = app.def();
            def.validate().unwrap();
            for schema in &def.schemas {
                let n = db.table(&schema.name).unwrap().len();
                assert!(n > 0, "{}: table {} empty", app.name(), schema.name);
                assert_eq!(
                    ids.initial(&schema.name),
                    n as i64,
                    "{}: id space for {} disagrees with populate",
                    app.name(),
                    schema.name
                );
            }
        }
    }

    /// The two scale-out axes measure opposite bottlenecks, so each must
    /// bill its own cost regime: `Single` and `HomeShards` the default
    /// (home-bound) model, under which the home is the busier tier even
    /// for a mostly-hitting strategy; `Proxies` the DSSP-bound model,
    /// whose per-op proxy cost is 25x the default's.
    #[test]
    fn topologies_bill_their_own_cost_regime() {
        use scs_dssp::StrategyKind;
        let app = BenchApp::Auction;
        let def = app.def();
        let mvis = StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
        let tiny = Fidelity {
            duration_secs: 30,
            warmup_secs: 5,
            max_users: 64,
            resolution: 64,
        };
        let run = |t| run_trial_on(app, &mvis, t, 32, tiny, 11);
        let single = run(Topology::Single);
        let sharded = run(Topology::HomeShards(1));
        for (name, m) in [("single", &single), ("home shards", &sharded)] {
            assert!(
                m.home_utilization > 2.0 * m.dssp_utilization,
                "{name}: home {} vs dssp {}",
                m.home_utilization,
                m.dssp_utilization
            );
        }
        // Same hot database, same op stream: only the bill differs.
        let fleet = run(Topology::Proxies(1, RoutingMode::HashByTemplate));
        assert!(
            fleet.dssp_utilization > 10.0 * sharded.dssp_utilization,
            "fleet dssp {} vs sharded dssp {}",
            fleet.dssp_utilization,
            sharded.dssp_utilization
        );
        // `run_trial` is the `Single` trial, metric for metric.
        let classic = run_trial(app, &mvis, 32, tiny, 11);
        assert_eq!(single.response_times, classic.response_times);
    }
}
