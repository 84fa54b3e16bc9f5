//! The end-to-end simulation driver: executes each simulated database
//! operation for real (through the DSSP proxy against the in-memory home
//! server) and reports its resource demands to the network simulator.

use crate::defs::{AppDef, Op};
use crate::gen::{BoundOp, IdSpaces, ParamGen, RequestSampler};
use scs_core::{characterize_app, AnalysisOptions, Exposures, IpmMatrix};
use scs_dssp::{Dssp, DsspConfig, FleetConfig, HomeServer, ProxyFleet, ShardedHome};
use scs_netsim::{HomeTrip, OpCost, Time, Workload};
use scs_sqlkit::UpdateTemplate;
use scs_storage::{Database, PartitionMap, TablePlacement};

/// CPU/size cost model calibrated to the paper's testbed shape (§5.2):
/// a fast (Xeon-class) DSSP node, a slow (P-III-class) home server running
/// the database, and statement/result wire sizes derived from actual text
/// and result sizes.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// DSSP CPU per operation (cache lookup + app logic).
    pub dssp_cpu_per_op: Time,
    /// DSSP CPU per cache entry scanned during an invalidation pass.
    pub dssp_cpu_per_scan: Time,
    /// Home CPU to execute one query (base).
    pub home_cpu_query: Time,
    /// Home CPU per returned result row.
    pub home_cpu_per_row: Time,
    /// Home CPU to apply one update.
    pub home_cpu_update: Time,
    /// Extra home CPU per *participant* of a scatter-gather query
    /// (sub-query planning plus merging its partial result). The scan
    /// itself divides across the participants — each shard reads only
    /// its slice — so a scattered query costs roughly one routed query
    /// plus this overhead times the fan-out.
    pub home_scatter_overhead: Time,
    /// Bytes of an update acknowledgement.
    pub ack_bytes: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            dssp_cpu_per_op: 300,
            dssp_cpu_per_scan: 1,
            home_cpu_query: 8_000,
            home_cpu_per_row: 40,
            home_cpu_update: 10_000,
            home_scatter_overhead: 1_500,
            ack_bytes: 100,
        }
    }
}

impl CostModel {
    /// A testbed shape where the DSSP node's CPU is the binding resource
    /// (application logic dominates: templating, session handling,
    /// encryption) and updates apply cheaply at the home server. This is
    /// the regime of the paper's multi-proxy figures: adding DSSP
    /// proxies relieves the bottleneck for strategies that serve mostly
    /// from cache, while a blind strategy keeps missing through to the
    /// *shared* home server and barely scales at all. The per-op DSSP
    /// cost must sit between the two strategies' effective per-op home
    /// demands — above the informed strategies' (their miss traffic),
    /// below the blind strategy's (nearly every op) — so the bottleneck
    /// lands on opposite tiers at the two ends of the exposure spectrum.
    pub fn dssp_bound() -> CostModel {
        CostModel {
            dssp_cpu_per_op: 7_500,
            home_cpu_update: 2_000,
            ..CostModel::default()
        }
    }
}

/// One executed operation as the cost model sees it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Executed {
    pub(crate) statement_bytes: u64,
    /// A query's answer — `(rows, bytes, served from the cache)`; `None`
    /// for an update.
    pub(crate) answer: Option<(usize, u64, bool)>,
    /// Cache entries scanned by the invalidation work billed to this
    /// operation.
    pub(crate) scanned: usize,
    /// The DSSP node that served it.
    pub(crate) proxy: usize,
    /// The home shard a trip is billed to.
    pub(crate) shard: usize,
    /// Shards a scattered miss gathered from (a routed one: 1).
    pub(crate) scatter_width: usize,
}

impl CostModel {
    /// The resource demands of one executed operation — the one place
    /// the model's constants and the wire framing (64 bytes a home leg,
    /// 128 a client reply) meet. A hit costs no home trip; a rejected
    /// update still costs its round trip.
    pub(crate) fn op_cost(&self, e: Executed) -> OpCost {
        let dssp_cpu = self.dssp_cpu_per_op + self.dssp_cpu_per_scan * e.scanned as Time;
        let request_bytes = e.statement_bytes + 64;
        match e.answer {
            Some((rows, result_bytes, hit)) => OpCost {
                dssp_cpu,
                proxy: e.proxy,
                home_trip: (!hit).then(|| HomeTrip {
                    request_bytes,
                    reply_bytes: result_bytes + 64,
                    // Each shard of a scatter scans only its slice, so
                    // the base scan does not multiply; the
                    // per-participant overhead does.
                    home_cpu: self.home_cpu_query
                        + self.home_cpu_per_row * rows as Time
                        + self.home_scatter_overhead * (e.scatter_width.max(1) - 1) as Time,
                    shard: e.shard,
                }),
                reply_bytes: result_bytes + 128,
            },
            None => OpCost {
                dssp_cpu,
                proxy: e.proxy,
                home_trip: Some(HomeTrip {
                    request_bytes,
                    reply_bytes: self.ack_bytes,
                    home_cpu: self.home_cpu_update,
                    shard: e.shard,
                }),
                reply_bytes: self.ack_bytes + 128,
            },
        }
    }
}

/// The workload-generation half shared by the drivers: the app's request
/// stream, and each client's in-flight request.
struct OpSampler {
    stream: RequestSampler,
    pending: Vec<Vec<BoundOp>>,
}

impl OpSampler {
    fn new(app: &AppDef, ids: IdSpaces, zipf_exponent: f64, seed: u64) -> OpSampler {
        OpSampler {
            stream: RequestSampler::new(app, ParamGen::new(ids, zipf_exponent), seed),
            pending: Vec::new(),
        }
    }

    fn begin_request(&mut self, client: usize) -> usize {
        if self.pending.len() <= client {
            self.pending.resize_with(client + 1, Vec::new);
        }
        self.pending[client] = self.stream.draw();
        self.pending[client].len()
    }
}

/// Drives one application instance through the DSSP for the simulator.
pub struct DsspWorkload {
    dssp: Dssp,
    home: HomeServer,
    ops: OpSampler,
    costs: CostModel,
}

impl DsspWorkload {
    /// Builds a workload over a freshly populated database.
    ///
    /// * `app` — the application definition;
    /// * `db` / `ids` — populated master database and its id spaces;
    /// * `exposures` — per-template exposure levels (strategy or
    ///   methodology output);
    /// * `zipf_exponent` — popularity skew for `ParamSpec::PopularId`.
    pub fn new(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        exposures: Exposures,
        zipf_exponent: f64,
        seed: u64,
    ) -> DsspWorkload {
        let matrix = analysis_matrix(app);
        DsspWorkload::with_matrix(app, db, ids, exposures, matrix, zipf_exponent, seed)
    }

    /// As [`DsspWorkload::new`] with a precomputed IPM matrix (ablations
    /// pass a constraint-free matrix here).
    pub fn with_matrix(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        exposures: Exposures,
        matrix: IpmMatrix,
        zipf_exponent: f64,
        seed: u64,
    ) -> DsspWorkload {
        let config = DsspConfig::new(app.name, exposures, matrix);
        DsspWorkload::with_config(app, db, ids, config, zipf_exponent, seed)
    }

    /// The fully general constructor: an explicit [`DsspConfig`] (custom
    /// cache capacity, tenant id, ...).
    pub fn with_config(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        config: DsspConfig,
        zipf_exponent: f64,
        seed: u64,
    ) -> DsspWorkload {
        assert_eq!(
            config.exposures.queries.len(),
            app.queries.len(),
            "exposure shape"
        );
        assert_eq!(
            config.exposures.updates.len(),
            app.updates.len(),
            "exposure shape"
        );
        DsspWorkload {
            dssp: Dssp::new(config),
            home: HomeServer::new(db),
            ops: OpSampler::new(app, ids, zipf_exponent, seed),
            costs: CostModel::default(),
        }
    }

    /// Replaces the cost model (builder style).
    pub fn with_costs(mut self, costs: CostModel) -> DsspWorkload {
        self.costs = costs;
        self
    }

    /// The DSSP proxy (inspection hook for reports and tests).
    pub fn dssp(&self) -> &Dssp {
        &self.dssp
    }

    /// Mutable proxy access (attach trace sinks, flush telemetry).
    pub fn dssp_mut(&mut self) -> &mut Dssp {
        &mut self.dssp
    }

    /// The home server (inspection hook).
    pub fn home(&self) -> &HomeServer {
        &self.home
    }

    /// Attaches the scalability observatory to the proxy: every trace
    /// event (hit/miss/invalidation/fault) is bucketed into the returned
    /// shared time series by simulated time, producing per-window
    /// hit/miss/invalidation curves alongside the simulator's own
    /// throughput/latency series. Merge the two after the run — the
    /// counter names are disjoint.
    pub fn attach_observatory(&mut self, width_micros: Time) -> scs_telemetry::SharedTimeSeries {
        let (sink, series) = scs_telemetry::TimeSeriesSink::new(width_micros);
        self.dssp.add_trace_sink(Box::new(sink));
        series
    }
}

/// A query response as [`Executed::answer`] wants it.
fn answer_of(resp: &scs_dssp::QueryResponse) -> (usize, u64, bool) {
    (
        resp.result.len(),
        resp.result.approx_size_bytes() as u64,
        resp.hit,
    )
}

/// Characterizes an application's IPM matrix with default options.
pub fn analysis_matrix(app: &AppDef) -> IpmMatrix {
    characterize_app(
        &app.update_templates(),
        &app.query_templates(),
        &app.catalog(),
        AnalysisOptions::default(),
    )
}

impl Workload for DsspWorkload {
    fn begin_request(&mut self, client: usize) -> usize {
        self.ops.begin_request(client)
    }

    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
        let executed = match &self.ops.pending[client][op_index] {
            BoundOp::Query(q) => {
                let resp = self
                    .dssp
                    .execute_query(q, &mut self.home)
                    .expect("validated query templates");
                Executed {
                    statement_bytes: q.statement_text().len() as u64,
                    answer: Some(answer_of(&resp)),
                    ..Executed::default()
                }
            }
            BoundOp::Update(u) => Executed {
                statement_bytes: u.statement_text().len() as u64,
                // Rejected updates (FK violation on a deleted row, ...)
                // still cost a home round trip; they change nothing and
                // trigger no invalidation.
                scanned: match self.dssp.execute_update(u, &mut self.home) {
                    Ok(resp) => resp.scanned,
                    Err(_) => 0,
                },
                ..Executed::default()
            },
        };
        self.costs.op_cost(executed)
    }

    fn hit_rate(&self) -> f64 {
        self.dssp.stats().hit_rate()
    }

    fn observe_time(&mut self, now: Time) {
        // Trace events emitted during execute_op carry simulated time.
        self.dssp.set_sim_time_micros(now);
    }
}

/// Drives one application instance through a multi-proxy [`ProxyFleet`]
/// for the simulator — the paper's scale-out deployment (§5, Fig. 8–10).
///
/// Each operation routes to one replica (per the fleet's
/// [`scs_dssp::RoutingMode`]) and its [`OpCost::proxy`] tag steers the
/// queueing cost onto that replica's service center
/// ([`scs_netsim::SystemSpec::dssp_nodes`] must match the fleet size).
/// Invalidation-scan work delivered at the serving replica just before an
/// operation is charged to that operation's DSSP CPU. An update's fanout
/// scans the *whole* fleet; that work is charged to the forwarding
/// replica — a deliberate simplification that slightly overcharges one
/// node on the (rare) updates.
pub struct FleetWorkload {
    fleet: ProxyFleet,
    ops: OpSampler,
    costs: CostModel,
}

impl FleetWorkload {
    /// Builds a fleet workload over a freshly populated database (same
    /// arguments as [`DsspWorkload::new`] plus the fleet shape).
    pub fn new(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        exposures: Exposures,
        fleet: FleetConfig,
        zipf_exponent: f64,
        seed: u64,
    ) -> FleetWorkload {
        let matrix = analysis_matrix(app);
        let config = DsspConfig::new(app.name, exposures, matrix);
        FleetWorkload::with_config(app, db, ids, config, fleet, zipf_exponent, seed)
    }

    /// The fully general constructor: an explicit [`DsspConfig`] cloned
    /// into every replica.
    pub fn with_config(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        config: DsspConfig,
        fleet: FleetConfig,
        zipf_exponent: f64,
        seed: u64,
    ) -> FleetWorkload {
        assert_eq!(
            config.exposures.queries.len(),
            app.queries.len(),
            "exposure shape"
        );
        assert_eq!(
            config.exposures.updates.len(),
            app.updates.len(),
            "exposure shape"
        );
        FleetWorkload {
            fleet: ProxyFleet::new(config, HomeServer::new(db), fleet),
            ops: OpSampler::new(app, ids, zipf_exponent, seed),
            costs: CostModel::default(),
        }
    }

    /// Replaces the cost model (builder style) — the multi-proxy figures
    /// use [`CostModel::dssp_bound`].
    pub fn with_costs(mut self, costs: CostModel) -> FleetWorkload {
        self.costs = costs;
        self
    }

    /// The fleet (inspection hook for reports and tests).
    pub fn fleet(&self) -> &ProxyFleet {
        &self.fleet
    }

    /// Mutable fleet access (attach trace sinks, inject faults).
    pub fn fleet_mut(&mut self) -> &mut ProxyFleet {
        &mut self.fleet
    }
}

impl Workload for FleetWorkload {
    fn begin_request(&mut self, client: usize) -> usize {
        self.ops.begin_request(client)
    }

    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
        let executed = match &self.ops.pending[client][op_index] {
            BoundOp::Query(q) => {
                let fr = self
                    .fleet
                    .execute_query(q)
                    .expect("validated query templates");
                Executed {
                    statement_bytes: q.statement_text().len() as u64,
                    answer: Some(answer_of(&fr.resp)),
                    scanned: fr.delivered.scanned,
                    proxy: fr.proxy,
                    ..Executed::default()
                }
            }
            BoundOp::Update(u) => {
                // Rejected updates still cost a home round trip; they
                // change nothing and trigger no invalidation. (Their
                // serving replica is unknown on rejection — node 0
                // absorbs the cost; rejections are rare.)
                let (proxy, scanned) = match self.fleet.execute_update(u) {
                    Ok(fr) => (fr.proxy, fr.resp.scanned),
                    Err(_) => (0, 0),
                };
                Executed {
                    statement_bytes: u.statement_text().len() as u64,
                    scanned,
                    proxy,
                    ..Executed::default()
                }
            }
        };
        self.costs.op_cost(executed)
    }

    fn hit_rate(&self) -> f64 {
        self.fleet.rollup_stats().hit_rate()
    }

    fn observe_time(&mut self, now: Time) {
        // Advances every replica's lease/trace clock, fires the interval
        // flush, and delivers fanout batches that became due.
        self.fleet.set_sim_time_micros(now);
    }
}

/// Builds the partition map a sharded home tier uses for `app`: every
/// table with an **eligible** integer column — one every update on the
/// table provably pins (inserts always do; deletes/modifies need an
/// equality restriction on it) — is **hash-split** across all `shards`
/// by the eligible column its *queries* restrict on most often, so the
/// common lookups route to one shard while per-key load (Zipf head
/// included) spreads uniformly. Tables with no eligible column keep
/// whole-table placement. The 1-shard map is [`PartitionMap::single`] —
/// the classic home, pinned op-for-op equivalent by the sharded-home
/// tests.
///
/// Picking the most-queried column rather than blindly the primary key
/// matters: a RUBiS-style `bids` table is keyed by `b_id` but looked up
/// by `b_item_id`, and a PK split would scatter-gather every bid-history
/// read across the whole tier.
pub fn home_shard_map(app: &AppDef, shards: usize) -> PartitionMap {
    let mut map = PartitionMap::by_table(shards);
    if shards <= 1 {
        return map;
    }
    for schema in &app.schemas {
        let best = schema
            .columns
            .iter()
            .filter(|c| c.ty == scs_storage::ColumnType::Int)
            .filter(|c| updates_pin_column(app, &schema.name, &c.name))
            .map(|c| (query_pin_weight(app, &schema.name, &c.name), &c.name))
            // `max_by_key` keeps the *last* maximum; reverse so ties go
            // to the earliest schema column (stable across runs).
            .rev()
            .max_by_key(|(w, _)| *w);
        if let Some((_, column)) = best {
            map = map.with_placement(
                &schema.name,
                TablePlacement::Hash {
                    column: column.clone(),
                },
            );
        }
    }
    map
}

/// How much query traffic an equality restriction on `column` would pin
/// to one shard: the sum of request-mix weights over query templates
/// reading `table` that restrict `column` by equality.
fn query_pin_weight(app: &AppDef, table: &str, column: &str) -> u32 {
    let mut weight_of = vec![0u32; app.queries.len()];
    for r in &app.requests {
        for op in &r.ops {
            if let Op::Query(tid) = op {
                weight_of[*tid] += r.weight;
            }
        }
    }
    app.queries
        .iter()
        .enumerate()
        .filter(|(_, q)| q.template.from.iter().any(|t| t.table == table))
        .filter(|(_, q)| {
            q.template.predicates.iter().any(|p| {
                p.as_restriction()
                    .is_some_and(|(c, op, _)| op == scs_sqlkit::CmpOp::Eq && c.column == column)
            })
        })
        .map(|(tid, _)| weight_of[tid])
        .sum()
}

/// True when every update template touching `table` routes under a
/// key split on `column`: inserts always do (the candidate row carries
/// the value); deletes/modifies must carry an equality restriction on it.
fn updates_pin_column(app: &AppDef, table: &str, column: &str) -> bool {
    app.update_templates()
        .iter()
        .filter(|t| t.table() == table)
        .all(|t| match &**t {
            UpdateTemplate::Insert(_) => true,
            _ => t.predicates().iter().any(|p| {
                p.as_restriction()
                    .is_some_and(|(c, op, _)| op == scs_sqlkit::CmpOp::Eq && c.column == column)
            }),
        })
}

/// Drives one application instance through a single DSSP proxy against a
/// **sharded** home tier — the partitioned-master deployment. Updates
/// route to their owning shard and queries scatter-gather; each home
/// trip's [`HomeTrip::shard`] tag steers its queueing cost onto that
/// shard's service center ([`scs_netsim::SystemSpec::home_shards`] must
/// match the map). Under the default (home-bound) cost model this is the
/// experiment where the blind strategy — pinned to the home tier —
/// finally scales: its binding resource is now partitioned.
pub struct ShardedWorkload {
    dssp: Dssp,
    home: ShardedHome,
    ops: OpSampler,
    costs: CostModel,
    /// Round-robin cursor spreading scatter-gather trips across their
    /// participant shards (the simulator bills one center per trip).
    scatter_rr: usize,
}

impl ShardedWorkload {
    /// Builds a sharded workload over a freshly populated database
    /// partitioned under `map` (same arguments as [`DsspWorkload::new`]
    /// plus the partition map; see [`home_shard_map`]).
    pub fn new(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        exposures: Exposures,
        map: PartitionMap,
        zipf_exponent: f64,
        seed: u64,
    ) -> ShardedWorkload {
        let matrix = analysis_matrix(app);
        let config = DsspConfig::new(app.name, exposures, matrix);
        assert_eq!(
            config.exposures.queries.len(),
            app.queries.len(),
            "exposure shape"
        );
        ShardedWorkload {
            dssp: Dssp::new(config),
            home: ShardedHome::new(db, map),
            ops: OpSampler::new(app, ids, zipf_exponent, seed),
            costs: CostModel::default(),
            scatter_rr: 0,
        }
    }

    /// Replaces the cost model (builder style).
    pub fn with_costs(mut self, costs: CostModel) -> ShardedWorkload {
        self.costs = costs;
        self
    }

    /// The DSSP proxy (inspection hook).
    pub fn dssp(&self) -> &Dssp {
        &self.dssp
    }

    /// Mutable proxy access.
    pub fn dssp_mut(&mut self) -> &mut Dssp {
        &mut self.dssp
    }

    /// The sharded home tier (inspection hook).
    pub fn home(&self) -> &ShardedHome {
        &self.home
    }
}

impl Workload for ShardedWorkload {
    fn begin_request(&mut self, client: usize) -> usize {
        self.ops.begin_request(client)
    }

    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
        let executed = match &self.ops.pending[client][op_index] {
            BoundOp::Query(q) => {
                let participants = self.home.map().shards_for_query(q);
                let resp = self
                    .dssp
                    .execute_query_sharded(q, &mut self.home)
                    .expect("validated query templates");
                let k = participants.len().max(1);
                // A routed miss queues on its one owner; a
                // scatter-gather trip is billed to one participant
                // (round-robin) — the simulator models one center per
                // trip, and round-robin spreads the aggregate scatter
                // load evenly, matching the tier-wide cost the gather
                // actually induces.
                let shard = if resp.hit {
                    0
                } else if k == 1 {
                    participants[0]
                } else {
                    self.scatter_rr += 1;
                    participants[self.scatter_rr % k]
                };
                Executed {
                    statement_bytes: q.statement_text().len() as u64,
                    answer: Some(answer_of(&resp)),
                    shard,
                    scatter_width: k,
                    ..Executed::default()
                }
            }
            BoundOp::Update(u) => {
                // Rejected updates (cross-shard FK violation on a
                // deleted parent, ...) still cost a trip to the shard
                // that would have owned them; they change nothing and
                // consume no epoch on any stream.
                let (shard, scanned) = match self.dssp.execute_update_sharded(u, &mut self.home) {
                    Ok((resp, shard)) => (shard, resp.scanned),
                    Err(_) => (
                        self.home
                            .map()
                            .shard_for_update(self.home.shard(0).database(), u)
                            .unwrap_or(0),
                        0,
                    ),
                };
                Executed {
                    statement_bytes: u.statement_text().len() as u64,
                    scanned,
                    shard,
                    ..Executed::default()
                }
            }
        };
        self.costs.op_cost(executed)
    }

    fn hit_rate(&self) -> f64 {
        self.dssp.stats().hit_rate()
    }

    fn observe_time(&mut self, now: Time) {
        self.dssp.set_sim_time_micros(now);
        self.home.set_sim_time_micros(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toystore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scs_core::ExposureLevel;
    use scs_dssp::StrategyKind;
    use scs_netsim::{run, SimConfig, SystemSpec, SEC};

    /// The toystore application, its populated database and id spaces.
    fn toystore_inputs(seed: u64) -> (AppDef, Database, IdSpaces) {
        let app = toystore::toystore();
        let mut db = Database::new();
        for s in &app.schemas {
            db.create_table(s.clone()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        toystore::populate(&mut db, 50, 30, &mut rng);
        let mut ids = IdSpaces::default();
        ids.declare("toys", 50);
        ids.declare("customers", 30);
        ids.declare("credit_card", 15);
        (app, db, ids)
    }

    fn toystore_workload(kind: StrategyKind, seed: u64) -> DsspWorkload {
        let (app, db, ids) = toystore_inputs(seed);
        let exposures = kind.exposures(app.updates.len(), app.queries.len());
        DsspWorkload::new(&app, db, ids, exposures, 1.0, seed)
    }

    fn quick_cfg(users: usize) -> SimConfig {
        SimConfig {
            users,
            duration: 90 * SEC,
            warmup: 15 * SEC,
            think_mean: 7 * SEC,
            seed: 11,
            spec: SystemSpec::default(),
        }
    }

    #[test]
    fn end_to_end_simulation_runs() {
        let mut w = toystore_workload(StrategyKind::ViewInspection, 1);
        let m = run(&quick_cfg(20), &mut w);
        assert!(m.requests_completed > 20);
        assert!(m.ops_executed > 0);
        assert!(w.dssp().stats().queries > 0);
    }

    #[test]
    fn view_inspection_gets_better_hit_rate_than_blind() {
        let mut mvis = toystore_workload(StrategyKind::ViewInspection, 2);
        let mut mbs = toystore_workload(StrategyKind::Blind, 2);
        let cfg = quick_cfg(30);
        let a = run(&cfg, &mut mvis);
        let b = run(&cfg, &mut mbs);
        assert!(
            a.hit_rate > b.hit_rate,
            "MVIS hit rate {} should beat MBS {}",
            a.hit_rate,
            b.hit_rate
        );
    }

    #[test]
    fn driver_is_deterministic_per_seed() {
        use scs_netsim::Workload;
        let mut a = toystore_workload(StrategyKind::ViewInspection, 9);
        let mut b = toystore_workload(StrategyKind::ViewInspection, 9);
        for _ in 0..50 {
            let na = a.begin_request(0);
            let nb = b.begin_request(0);
            assert_eq!(na, nb);
            for i in 0..na {
                let ca = a.execute_op(0, i);
                let cb = b.execute_op(0, i);
                assert_eq!(ca.dssp_cpu, cb.dssp_cpu);
                assert_eq!(ca.reply_bytes, cb.reply_bytes);
                assert_eq!(ca.home_trip.is_some(), cb.home_trip.is_some());
            }
        }
        assert_eq!(a.dssp().stats(), b.dssp().stats());
    }

    #[test]
    fn request_mix_respects_weights() {
        use scs_netsim::Workload;
        let mut w = toystore_workload(StrategyKind::ViewInspection, 10);
        // toystore: browse(8, 2 ops), demographics(3, 1 op),
        // discontinue(1, 1 op), add-card(1, 1 op) — expected mean ops
        // = (8*2 + 3 + 1 + 1) / 13 ≈ 1.62.
        let n = 2_000;
        let mut total_ops = 0usize;
        for _ in 0..n {
            let ops = w.begin_request(0);
            total_ops += ops;
            for i in 0..ops {
                w.execute_op(0, i);
            }
        }
        let mean = total_ops as f64 / n as f64;
        assert!((1.45..1.8).contains(&mean), "mean ops/request = {mean}");
    }

    #[test]
    fn rejected_updates_are_tolerated() {
        use scs_netsim::Workload;
        // Run enough toystore traffic that deletes + credit-card inserts
        // produce FK violations / missing rows; the driver must absorb
        // them as no-op home trips without panicking.
        let mut w = toystore_workload(StrategyKind::StatementInspection, 11);
        for _ in 0..500 {
            let ops = w.begin_request(0);
            for i in 0..ops {
                let cost = w.execute_op(0, i);
                assert!(cost.reply_bytes > 0);
            }
        }
        assert!(w.dssp().stats().updates > 0);
    }

    #[test]
    fn observatory_buckets_proxy_events_by_sim_time() {
        let mut w = toystore_workload(StrategyKind::ViewInspection, 3);
        let series = w.attach_observatory(10 * SEC);
        let m = run(&quick_cfg(10), &mut w);
        assert!(m.ops_executed > 0);
        let series = series.lock().unwrap();
        assert!(series.len() > 1, "a 90s run spans several 10s windows");
        // The windowed curves reconcile with the proxy's own counters.
        let stats = w.dssp().stats();
        assert_eq!(series.counter_total("query_hit"), stats.hits);
        assert_eq!(series.counter_total("query_miss"), stats.misses);
        assert_eq!(series.counter_total("update_applied"), stats.updates);
        assert_eq!(
            series.counter_total("entry_invalidated"),
            stats.invalidations
        );
        // Events land across the run, not all in the first window.
        let curve = series.counter_curve("query_miss");
        assert!(curve.iter().filter(|&&n| n > 0).count() > 1);
    }

    /// The same reconciliation over a sharded home, where some updates
    /// are refused (FK handshake, taken keys): `update_applied` counts
    /// every update that reached the home tier, as on the classic home.
    #[test]
    fn sharded_proxy_events_reconcile_with_its_counters() {
        let (app, db, ids) = toystore_inputs(3);
        let exposures =
            StrategyKind::ViewInspection.exposures(app.updates.len(), app.queries.len());
        let map = home_shard_map(&app, 2);
        let mut w = ShardedWorkload::new(&app, db, ids, exposures, map, 1.0, 3);
        let (sink, series) = scs_telemetry::TimeSeriesSink::new(10 * SEC);
        w.dssp_mut().add_trace_sink(Box::new(sink));
        let mut cfg = quick_cfg(40);
        cfg.spec = SystemSpec::with_home_shards(2);
        run(&cfg, &mut w);
        let series = series.lock().unwrap();
        let stats = w.dssp().stats();
        let accepted: u64 = w.home().epochs().iter().sum();
        assert!(
            accepted < stats.updates,
            "no update was refused: {accepted} of {}",
            stats.updates
        );
        assert_eq!(series.counter_total("update_applied"), stats.updates);
        assert_eq!(series.counter_total("query_miss"), stats.misses);
    }

    fn toystore_fleet(
        kind: StrategyKind,
        fleet: scs_dssp::FleetConfig,
        seed: u64,
    ) -> FleetWorkload {
        let (app, db, ids) = toystore_inputs(seed);
        let exposures = kind.exposures(app.updates.len(), app.queries.len());
        FleetWorkload::new(&app, db, ids, exposures, fleet, 1.0, seed)
    }

    #[test]
    fn fleet_simulation_runs_and_spreads_load() {
        use scs_dssp::{FleetConfig, RoutingMode};
        let n = 3;
        let mut w = toystore_fleet(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(n, RoutingMode::RoundRobin),
            5,
        );
        let mut cfg = quick_cfg(20);
        cfg.spec = SystemSpec::with_dssp_nodes(n);
        let m = run(&cfg, &mut w);
        assert!(m.requests_completed > 20);
        assert_eq!(m.dssp_node_utilization.len(), n);
        // Round-robin keeps every replica busy and roughly even.
        assert!(m.dssp_node_utilization.iter().all(|&u| u > 0.0));
        let (max, min) = m
            .dssp_node_utilization
            .iter()
            .fold((0.0f64, 1.0f64), |(hi, lo), &u| (hi.max(u), lo.min(u)));
        assert!(
            max - min < 0.1,
            "uneven spread: {:?}",
            m.dssp_node_utilization
        );
        // Every replica served queries and heard every invalidation.
        let stats = w.fleet().rollup_stats();
        assert!(stats.queries > 0);
        for p in 0..n {
            assert_eq!(w.fleet().proxy(p).epoch(), w.fleet().home().epoch());
        }
    }

    #[test]
    fn fleet_of_one_matches_single_proxy_driver() {
        use scs_dssp::{FleetConfig, RoutingMode};
        use scs_netsim::Workload;
        // Same seed ⇒ identical request streams; a 1-replica immediate
        // fleet must produce the same cache behaviour and costs as the
        // classic driver.
        let mut classic = toystore_workload(StrategyKind::ViewInspection, 7);
        let mut fleet = toystore_fleet(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(1, RoutingMode::RoundRobin),
            7,
        );
        for _ in 0..100 {
            let na = classic.begin_request(0);
            let nb = fleet.begin_request(0);
            assert_eq!(na, nb);
            for i in 0..na {
                let ca = classic.execute_op(0, i);
                let cb = fleet.execute_op(0, i);
                assert_eq!(ca.dssp_cpu, cb.dssp_cpu);
                assert_eq!(ca.reply_bytes, cb.reply_bytes);
                assert_eq!(ca.home_trip.is_some(), cb.home_trip.is_some());
                assert_eq!(cb.proxy, 0);
            }
        }
        assert_eq!(classic.dssp().stats(), fleet.fleet().rollup_stats());
    }

    #[test]
    fn exposure_shape_mismatch_panics() {
        let app = toystore::toystore();
        let db = Database::new();
        let bad = Exposures {
            updates: vec![ExposureLevel::Stmt; 99],
            queries: vec![ExposureLevel::View; 99],
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DsspWorkload::new(&app, db, IdSpaces::default(), bad, 1.0, 0)
        }));
        assert!(r.is_err());
    }
}
