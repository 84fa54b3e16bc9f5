//! The end-to-end simulation driver: executes each simulated database
//! operation for real (through the DSSP proxy against the in-memory home
//! server) and reports its resource demands to the network simulator.

use crate::defs::{AppDef, Op};
use crate::gen::{BoundOp, IdSpaces, ParamGen, RequestSampler};
use crate::scenario::LoadProfile;
use scs_core::{characterize_app, AnalysisOptions, Exposures, IpmMatrix};
use scs_dssp::{
    Autoscaler, AutoscalerConfig, Dssp, DsspConfig, FleetConfig, Home, HomeGroup, HomeServer,
    ProxyFleet, RoutingMode, ScaleAction, ScaleDecision, ShardedHome,
};
use scs_netsim::{HomeTrip, OpCost, Time, Workload, SEC};
use scs_sqlkit::{Query, Update, UpdateTemplate};
use scs_storage::{Database, PartitionMap, TablePlacement};
use std::collections::HashMap;

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

/// Drives one application instance through one DSSP proxy in front of
/// one [`HomeServer`] for the simulator — the paper's single-proxy
/// deployment (§5, Fig. 3/7/8). It is the reliable one-replica
/// [`FleetWorkload`] over that home: the fleet's op body and billing,
/// each notification delivered back as a batch of one before the
/// update returns.
pub struct DsspWorkload(FleetWorkload<HomeServer>);

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
        assert_exposure_shape(app, &config.exposures);
        let one = FleetConfig::reliable(1, RoutingMode::HashByTemplate);
        let fleet = ProxyFleet::over(config, HomeServer::new(db), one);
        DsspWorkload(FleetWorkload::over(app, fleet, ids, zipf_exponent, seed))
    }

    /// The DSSP proxy (inspection hook for reports and tests).
    pub fn dssp(&self) -> &Dssp {
        self.0.fleet.proxy(0)
    }

    /// Mutable proxy access (attach trace sinks, flush telemetry).
    pub fn dssp_mut(&mut self) -> &mut Dssp {
        self.0.fleet.proxy_mut(0)
    }

    /// The home server (inspection hook).
    pub fn home(&self) -> &HomeServer {
        self.0.fleet.tier()
    }

    /// Attaches the scalability observatory to the proxy: every trace
    /// event (hit/miss/invalidation/fault) is bucketed into the returned
    /// shared time series by simulated time, producing per-window
    /// hit/miss/invalidation curves alongside the simulator's own
    /// throughput/latency series. Merge the two after the run — the
    /// counter names are disjoint.
    pub fn attach_observatory(&mut self, width_micros: Time) -> scs_telemetry::SharedTimeSeries {
        let (sink, series) = scs_telemetry::TimeSeriesSink::new(width_micros);
        self.dssp_mut().add_trace_sink(Box::new(sink));
        series
    }
}

/// Panics unless `exposures` holds one level per template of `app`.
fn assert_exposure_shape(app: &AppDef, exposures: &Exposures) {
    assert_eq!(exposures.queries.len(), app.queries.len(), "exposure shape");
    assert_eq!(exposures.updates.len(), app.updates.len(), "exposure shape");
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
        self.0.begin_request(client)
    }

    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
        self.0.execute_op(client, op_index)
    }

    fn hit_rate(&self) -> f64 {
        self.0.hit_rate()
    }

    fn observe_time(&mut self, now: Time) {
        self.0.observe_time(now)
    }

    fn think_multiplier(&self, now: Time) -> f64 {
        self.0.think_multiplier(now)
    }

    fn live_proxies(&self) -> Option<Vec<usize>> {
        self.0.live_proxies()
    }
}

/// Drives one application instance through a multi-proxy [`ProxyFleet`]
/// over any home tier for the simulator — the paper's scale-out
/// deployment (§5, Fig. 8–10), and, with one reliable replica, one proxy
/// in front of one home server ([`DsspWorkload`]) or of a partitioned
/// master ([`ShardedWorkload`]).
///
/// Each operation routes to one replica (per the fleet's
/// [`RoutingMode`]) and its [`OpCost::proxy`] tag steers the queueing
/// cost onto that replica's service center
/// ([`scs_netsim::SystemSpec::dssp_nodes`] must match the fleet size);
/// each home trip's [`HomeTrip::shard`] tag steers it onto the home
/// center [`BilledHome`] names
/// ([`scs_netsim::SystemSpec::home_shards`] must match the tier).
/// Invalidation-scan work delivered at the serving replica just before an
/// operation is charged to that operation's DSSP CPU. An update's fanout
/// scans the *whole* fleet; that work is charged to the forwarding
/// replica — a deliberate simplification that slightly overcharges one
/// node on the (rare) updates.
///
/// Two settings make it the elastic experiment: a [`LoadProfile`] that
/// shapes the arrival rate (a flash crowd), and an [`Autoscaler`] that
/// joins and retires replicas under live load
/// ([`ProxyFleet::add_replica`] / [`ProxyFleet::remove_replica`]).
/// Without them the fleet keeps its size and the load is flat.
pub struct FleetWorkload<H: Home = HomeGroup> {
    fleet: ProxyFleet<H>,
    /// The app's request stream, and each client's in-flight request.
    stream: RequestSampler,
    pending: Vec<Vec<BoundOp>>,
    costs: CostModel,
    load: LoadProfile,
    autoscaling: Option<Autoscaling>,
    /// The round-robin cursor of [`BilledHome::query_trip`].
    scatter_rr: usize,
}

/// One DSSP proxy in front of a **sharded** home tier: updates route to
/// their owning shard, queries scatter-gather. Under the default
/// (home-bound) cost model the blind strategy finally scales here.
pub type ShardedWorkload = FleetWorkload<ShardedHome>;

/// A home tier as the simulator bills its trips: the home service
/// center each one queues on.
pub trait BilledHome: Home {
    /// The center a query's miss trip queues on, and how many shards it
    /// gathers from. `scatter_rr` is the workload's round-robin cursor
    /// over a scatter's participants.
    fn query_trip(&self, q: &Query, scatter_rr: &mut usize) -> (usize, usize);

    /// The center an update's trip queues on, applied or refused.
    fn update_trip(&self, u: &Update) -> usize;
}

/// One home, one center.
impl BilledHome for HomeGroup {
    fn query_trip(&self, _: &Query, _: &mut usize) -> (usize, usize) {
        (0, 1)
    }

    fn update_trip(&self, _: &Update) -> usize {
        0
    }
}

/// One home, one center.
impl BilledHome for HomeServer {
    fn query_trip(&self, _: &Query, _: &mut usize) -> (usize, usize) {
        (0, 1)
    }

    fn update_trip(&self, _: &Update) -> usize {
        0
    }
}

/// A routed miss queues on its one owner; a scatter-gather trip is billed
/// to one participant, round-robin — the simulator models one center per
/// trip, and round-robin spreads the aggregate scatter load evenly,
/// matching the tier-wide cost the gather actually induces. An update
/// queues on the shard that owns it; a refused one (a cross-shard FK
/// violation on a deleted parent, ...) on the shard that would have — it
/// changes nothing and consumes no epoch on any stream.
impl BilledHome for ShardedHome {
    fn query_trip(&self, q: &Query, scatter_rr: &mut usize) -> (usize, usize) {
        let participants = self.map().shards_for_query(q);
        let shard = match participants[..] {
            [] => 0,
            [owner] => owner,
            _ => {
                *scatter_rr += 1;
                participants[*scatter_rr % participants.len()]
            }
        };
        (shard, participants.len().max(1))
    }

    fn update_trip(&self, u: &Update) -> usize {
        let catalog = self.shard(0).database();
        self.map().shard_for_update(catalog, u).unwrap_or(0)
    }
}

/// The autoscaler's sample window: it is fed one sample per window.
const AUTOSCALE_SAMPLE: Time = 2 * SEC;

/// The autoscaler loop's state: the policy, the DSSP CPU each replica
/// was billed in the open sample window, and the membership timeline.
struct Autoscaling {
    policy: Autoscaler,
    window_start: Time,
    busy: HashMap<usize, Time>,
    /// Each applied decision with the replica it joined or retired.
    timeline: Vec<(ScaleDecision, usize)>,
}

impl Autoscaling {
    /// Closes the sample window once it is full: feeds the busiest live
    /// replica's utilization in it (above 1.0 when its queue grew) to
    /// the policy and applies the decision. Scale-in retires the idlest
    /// live replica of the window.
    fn tick<H: Home>(&mut self, fleet: &mut ProxyFleet<H>, now: Time) {
        let window = now.saturating_sub(self.window_start);
        if window < AUTOSCALE_SAMPLE {
            return;
        }
        let live = fleet.replica_ids();
        let busy = |id: &usize| self.busy.get(id).copied().unwrap_or(0);
        let busiest = live
            .iter()
            .map(|id| busy(id) as f64 / window as f64)
            .fold(0.0, f64::max);
        let replica = match self.policy.observe(now, busiest, live.len()) {
            Some(ScaleAction::Out) => Some(fleet.add_replica()),
            // A refused leave (the policy keeps a replica, so there are
            // two) changes nothing and joins no timeline.
            Some(ScaleAction::In) => live
                .iter()
                .min_by_key(|id| busy(id))
                .and_then(|&idlest| fleet.remove_replica(idlest).ok().map(|_| idlest)),
            None => None,
        };
        if let (Some(replica), Some(&d)) = (replica, self.policy.decisions().last()) {
            self.timeline.push((d, replica));
        }
        self.window_start = now;
        self.busy.clear();
    }
}

impl FleetWorkload<HomeGroup> {
    /// A fleet over a freshly populated database: an explicit
    /// [`DsspConfig`] cloned into every replica, in front of one home
    /// server.
    pub fn with_config(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        config: DsspConfig,
        fleet: FleetConfig,
        zipf_exponent: f64,
        seed: u64,
    ) -> FleetWorkload {
        assert_exposure_shape(app, &config.exposures);
        let fleet = ProxyFleet::new(config, HomeServer::new(db), fleet);
        FleetWorkload::over(app, fleet, ids, zipf_exponent, seed)
    }
}

impl FleetWorkload<ShardedHome> {
    /// One proxy (a reliable one-replica fleet) in front of a freshly
    /// populated database partitioned under `map` (same arguments as
    /// [`DsspWorkload::new`] plus the partition map; see
    /// [`home_shard_map`]).
    pub fn new(
        app: &AppDef,
        db: Database,
        ids: IdSpaces,
        exposures: Exposures,
        map: PartitionMap,
        zipf_exponent: f64,
        seed: u64,
    ) -> ShardedWorkload {
        let config = DsspConfig::new(app.name, exposures, analysis_matrix(app));
        assert_exposure_shape(app, &config.exposures);
        let one = FleetConfig::reliable(1, RoutingMode::HashByTemplate);
        let fleet = ProxyFleet::over(config, ShardedHome::new(db, map), one);
        FleetWorkload::over(app, fleet, ids, zipf_exponent, seed)
    }
}

impl<H: Home> FleetWorkload<H> {
    fn over(
        app: &AppDef,
        fleet: ProxyFleet<H>,
        ids: IdSpaces,
        zipf_exponent: f64,
        seed: u64,
    ) -> FleetWorkload<H> {
        FleetWorkload {
            fleet,
            stream: RequestSampler::new(app, ParamGen::new(ids, zipf_exponent), seed),
            pending: Vec::new(),
            costs: CostModel::default(),
            load: LoadProfile::flat(),
            autoscaling: None,
            scatter_rr: 0,
        }
    }

    /// Replaces the cost model (builder style) — the multi-proxy figures
    /// use [`CostModel::dssp_bound`].
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Shapes the clients' arrival rate over sim time (builder style).
    pub fn with_load(mut self, load: LoadProfile) -> Self {
        self.load = load;
        self
    }

    /// Lets an [`Autoscaler`] under `policy` resize the fleet (builder
    /// style). Every 2 s of sim time it is fed the busiest live
    /// replica's share of that window spent on billed DSSP CPU.
    pub fn with_autoscaler(mut self, policy: AutoscalerConfig) -> Self {
        self.autoscaling = Some(Autoscaling {
            policy: Autoscaler::new(policy),
            window_start: 0,
            busy: HashMap::new(),
            timeline: Vec::new(),
        });
        self
    }

    /// The membership timeline: each applied autoscaler decision with
    /// the replica it joined or retired. Empty for a fixed-size fleet.
    pub fn membership(&self) -> &[(ScaleDecision, usize)] {
        self.autoscaling.as_ref().map_or(&[], |a| &a.timeline)
    }

    /// Replica-seconds the fleet held over `[0, horizon)`: the
    /// membership timeline integrated after the run.
    pub fn node_seconds(&self, horizon: Time) -> f64 {
        let timeline = self.membership();
        let mut live = timeline.first().map_or(self.fleet.len(), |(d, ..)| d.live);
        let (mut since, mut micros) = (0, 0.0);
        for (d, _) in timeline {
            micros += live as f64 * d.at_micros.saturating_sub(since) as f64;
            since = d.at_micros;
            live = d.live_after();
        }
        micros += live as f64 * horizon.saturating_sub(since) as f64;
        micros / 1e6
    }

    /// The fleet (inspection hook for reports and tests).
    pub fn fleet(&self) -> &ProxyFleet<H> {
        &self.fleet
    }

    /// Mutable fleet access (attach trace sinks, inject faults).
    pub fn fleet_mut(&mut self) -> &mut ProxyFleet<H> {
        &mut self.fleet
    }
}

impl<H: BilledHome> Workload for FleetWorkload<H> {
    fn begin_request(&mut self, client: usize) -> usize {
        if self.pending.len() <= client {
            self.pending.resize_with(client + 1, Vec::new);
        }
        self.pending[client] = self.stream.draw();
        self.pending[client].len()
    }

    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
        let executed = match &self.pending[client][op_index] {
            BoundOp::Query(q) => {
                let fr = self
                    .fleet
                    .execute_query(q)
                    .expect("validated query templates");
                let (shard, scatter_width) = if fr.resp.hit {
                    (0, 1)
                } else {
                    self.fleet.tier().query_trip(q, &mut self.scatter_rr)
                };
                let result = &fr.resp.result;
                let answer = (result.len(), result.approx_size_bytes() as u64, fr.resp.hit);
                Executed {
                    statement_bytes: q.statement_text().len() as u64,
                    answer: Some(answer),
                    scanned: fr.delivered.scanned,
                    proxy: fr.proxy,
                    shard,
                    scatter_width,
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
                    shard: self.fleet.tier().update_trip(u),
                    ..Executed::default()
                }
            }
        };
        let cost = self.costs.op_cost(executed);
        if let Some(a) = self.autoscaling.as_mut() {
            *a.busy.entry(cost.proxy).or_insert(0) += cost.dssp_cpu;
        }
        cost
    }

    fn hit_rate(&self) -> f64 {
        self.fleet.rollup_stats().hit_rate()
    }

    fn observe_time(&mut self, now: Time) {
        // Advances every replica's lease/trace clock, fires the interval
        // flush, and delivers fanout batches that became due.
        self.fleet.set_sim_time_micros(now);
        if let Some(a) = self.autoscaling.as_mut() {
            a.tick(&mut self.fleet, now);
        }
    }

    fn think_multiplier(&self, now: Time) -> f64 {
        self.load.multiplier_at(now)
    }

    fn live_proxies(&self) -> Option<Vec<usize>> {
        self.autoscaling.as_ref().map(|_| self.fleet.replica_ids())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toystore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scs_core::ExposureLevel;
    use scs_dssp::StrategyKind;
    use scs_netsim::{run, SimConfig, SystemSpec, Workload, SEC};

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

    /// The single-proxy driver as it was before it became the
    /// one-replica fleet, kept as a test-only reference: one bare `Dssp`
    /// in front of one `HomeServer`, each op through `execute_query` /
    /// `execute_update`, billed by the default cost model.
    struct ClassicWorkload {
        dssp: Dssp,
        home: HomeServer,
        stream: RequestSampler,
        pending: Vec<Vec<BoundOp>>,
    }

    impl Workload for ClassicWorkload {
        fn begin_request(&mut self, client: usize) -> usize {
            if self.pending.len() <= client {
                self.pending.resize_with(client + 1, Vec::new);
            }
            self.pending[client] = self.stream.draw();
            self.pending[client].len()
        }

        fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost {
            let executed = match &self.pending[client][op_index] {
                BoundOp::Query(q) => {
                    let resp = self.dssp.execute_query(q, &mut self.home).unwrap();
                    let bytes = resp.result.approx_size_bytes() as u64;
                    Executed {
                        statement_bytes: q.statement_text().len() as u64,
                        answer: Some((resp.result.len(), bytes, resp.hit)),
                        ..Executed::default()
                    }
                }
                BoundOp::Update(u) => Executed {
                    statement_bytes: u.statement_text().len() as u64,
                    scanned: self
                        .dssp
                        .execute_update(u, &mut self.home)
                        .map_or(0, |resp| resp.scanned),
                    ..Executed::default()
                },
            };
            CostModel::default().op_cost(executed)
        }

        fn hit_rate(&self) -> f64 {
            self.dssp.stats().hit_rate()
        }

        fn observe_time(&mut self, now: Time) {
            self.dssp.set_sim_time_micros(now);
        }
    }

    /// `DsspWorkload` is the classic driver, run for run: the same
    /// `RunMetrics` (every response time, utilization and center
    /// telemetry) and the same proxy counters, on two apps under a blind
    /// and an inspecting strategy.
    #[test]
    fn the_one_replica_fleet_is_the_classic_single_proxy_driver() {
        let auction = crate::BenchApp::Auction;
        let (auction_db, auction_ids) =
            auction.build_database_scaled(4, crate::runner::FLEET_SCALE_DIV);
        let (toy, toy_db, toy_ids) = toystore_inputs(4);
        let apps = [
            (toy, toy_db, toy_ids, 1.0),
            (
                auction.def(),
                auction_db,
                auction_ids,
                auction.zipf_exponent(),
            ),
        ];
        for (app, db, ids, zipf) in apps {
            for kind in [StrategyKind::Blind, StrategyKind::ViewInspection] {
                let exposures = kind.exposures(app.updates.len(), app.queries.len());
                let config = DsspConfig::new(app.name, exposures, analysis_matrix(&app));
                let mut classic = ClassicWorkload {
                    dssp: Dssp::new(config.clone()),
                    home: HomeServer::new(db.clone()),
                    stream: RequestSampler::new(&app, ParamGen::new(ids.clone(), zipf), 4),
                    pending: Vec::new(),
                };
                let mut w =
                    DsspWorkload::with_config(&app, db.clone(), ids.clone(), config, zipf, 4);
                let cfg = quick_cfg(60);
                let (a, b) = (run(&cfg, &mut classic), run(&cfg, &mut w));
                assert!(b.requests_completed > 60 && w.dssp().stats().updates > 0);
                let label = format!("{} {kind:?}", app.name);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
                assert_eq!(classic.dssp.stats(), w.dssp().stats(), "{label}");
            }
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
        w.fleet_mut().proxy_mut(0).add_trace_sink(Box::new(sink));
        let mut cfg = quick_cfg(40);
        cfg.spec = SystemSpec::with_home_shards(2);
        run(&cfg, &mut w);
        let series = series.lock().unwrap();
        let stats = w.fleet().proxy(0).stats();
        let accepted: u64 = w.fleet().tier().tips().iter().sum();
        assert!(
            accepted < stats.updates,
            "no update was refused: {accepted} of {}",
            stats.updates
        );
        assert_eq!(series.counter_total("update_applied"), stats.updates);
        assert_eq!(series.counter_total("query_miss"), stats.misses);
    }

    /// The billing rules of a sharded home's trips: a routed miss queues
    /// on its owner and leaves the scatter cursor alone, consecutive
    /// scatters of one query visit each participant once, and an update
    /// queues on the shard that holds its row.
    #[test]
    fn a_sharded_home_bills_each_trip_to_its_shard() {
        use scs_sqlkit::Value;
        let (app, db, _) = toystore_inputs(5);
        let home = ShardedHome::new(db, home_shard_map(&app, 4));
        let bind =
            |tid: usize, v: Value| Query::bind(tid, app.queries[tid].template.clone(), vec![v]);
        let mut rr = 0;
        // `toys` splits on `toy_id`: a lookup by name scatters.
        let by_name = bind(0, Value::str("toy-1")).unwrap();
        let participants = home.map().shards_for_query(&by_name);
        assert_eq!(participants.len(), 4);
        let mut billed: Vec<usize> = (0..4)
            .map(|_| home.query_trip(&by_name, &mut rr))
            .map(|(shard, width)| {
                assert_eq!(width, 4);
                shard
            })
            .collect();
        billed.sort_unstable();
        assert_eq!(billed, participants, "round-robin over the participants");
        for id in 1..=8 {
            let by_id = bind(1, Value::Int(id)).unwrap();
            let [owner] = home.map().shards_for_query(&by_id)[..] else {
                panic!("a key lookup routes to one shard");
            };
            assert_eq!(home.query_trip(&by_id, &mut rr), (owner, 1));
            assert_eq!(rr, 4, "a routed trip leaves the cursor alone");
            let discontinue = &app.updates[0].template;
            let u = Update::bind(0, discontinue.clone(), vec![Value::Int(id)]).unwrap();
            let holder = (0..4).find(|&s| {
                let toys = home.shard(s).database().table("toys").unwrap();
                toys.pk_lookup(&[Value::Int(id)]).is_some()
            });
            assert_eq!(Some(home.update_trip(&u)), holder, "toy {id}");
        }
    }

    fn toystore_fleet(
        kind: StrategyKind,
        fleet: scs_dssp::FleetConfig,
        seed: u64,
    ) -> FleetWorkload {
        let (app, db, ids) = toystore_inputs(seed);
        let exposures = kind.exposures(app.updates.len(), app.queries.len());
        let config = DsspConfig::new(app.name, exposures, analysis_matrix(&app));
        FleetWorkload::with_config(&app, db, ids, config, fleet, 1.0, seed)
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

    /// The elastic probe's flash crowd at test size: 768 auction users
    /// at half rate, all of them during [18 s, 48 s), on a hash-routed
    /// MVIS fleet with the freshness plane and a 30 s lease.
    const CROWD: (Time, Time) = (18 * SEC, 48 * SEC);

    fn auction_crowd(replicas: usize, autoscale: bool) -> (FleetWorkload, SimConfig) {
        let app = crate::BenchApp::Auction;
        let def = app.def();
        let exposures =
            StrategyKind::ViewInspection.exposures(def.updates.len(), def.queries.len());
        let fleet = FleetConfig::reliable(replicas, scs_dssp::RoutingMode::HashByTemplate);
        let mut load = LoadProfile::constant(0.5);
        load.segments
            .extend(LoadProfile::spike(CROWD.0, CROWD.1, 1.0).segments);
        let mut w = app.fleet_workload(exposures, fleet, 7).with_load(load);
        if autoscale {
            let mut policy = AutoscalerConfig::paper(2, 4);
            policy.scale_in_util = policy.scale_out_util * 2.0 / 3.0;
            w = w.with_autoscaler(policy);
        }
        w.fleet_mut().enable_provenance();
        w.fleet_mut().set_lease_micros(Some(30 * SEC));
        let cfg = SimConfig {
            duration: 120 * SEC,
            warmup: 6 * SEC,
            spec: SystemSpec::with_dssp_nodes(replicas),
            ..SimConfig::paper(768, 7)
        };
        let m = run(&cfg, &mut w);
        assert!(m.requests_completed > 0);
        w.fleet_mut().drain();
        // The freshness oracle over every replica that ever existed: no
        // serve beyond the lease, every epoch ledger balanced.
        let prov = w.fleet().provenance().expect("enabled").clone();
        let log = scs_telemetry::lock(&prov);
        for r in 0..log.replica_count() {
            assert_eq!(log.replica(r).stale_beyond_lease, 0, "replica {r}");
            let ledger = log.conservation_on(r, 0, w.fleet().home().epoch());
            assert!(ledger.balanced(), "replica {r}");
        }
        (w, cfg)
    }

    #[test]
    fn a_static_fleet_keeps_its_size_through_the_crowd() {
        let (w, cfg) = auction_crowd(3, false);
        assert!(w.membership().is_empty());
        assert_eq!(w.fleet().replica_ids(), vec![0, 1, 2]);
        assert_eq!(w.live_proxies(), None, "every node that served is live");
        assert_eq!(w.node_seconds(cfg.duration), 3.0 * 120.0);
    }

    #[test]
    fn the_autoscaler_scales_out_under_the_crowd_and_back_in_after_it() {
        use scs_telemetry::{MembershipKind as K, TraceEventKind};
        let (w, cfg) = auction_crowd(2, true);
        let timeline = w.membership();
        let steps: Vec<(u64, ScaleAction, usize)> = timeline
            .iter()
            .map(|&(d, replica)| (d.at_micros, d.action, replica))
            .collect();
        let during = |at| (CROWD.0..CROWD.1).contains(&at);
        assert!(
            steps.iter().any(|s| during(s.0) && s.1 == ScaleAction::Out),
            "{steps:?}"
        );
        assert!(
            steps
                .iter()
                .any(|s| s.0 >= CROWD.1 && s.1 == ScaleAction::In),
            "{steps:?}"
        );
        // The fleet journaled exactly these joins and leaves on the
        // freshness plane: same instants and replicas.
        let prov = w.fleet().provenance().expect("enabled").clone();
        let journaled: Vec<(u64, ScaleAction, usize)> = scs_telemetry::lock(&prov)
            .membership()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Membership { kind, replica, .. } => {
                    let action = match kind {
                        K::Join => ScaleAction::Out,
                        K::Leave => ScaleAction::In,
                    };
                    Some((e.at_micros, action, replica))
                }
                _ => None,
            })
            .collect();
        assert_eq!(steps, journaled);
        let node_seconds = w.node_seconds(cfg.duration);
        assert!(2.0 * 120.0 < node_seconds && node_seconds < 4.0 * 120.0);
    }

    #[test]
    fn scale_in_retires_the_idlest_live_replica() {
        use scs_dssp::RoutingMode;
        let policy = AutoscalerConfig {
            scale_out_util: f64::INFINITY,
            scale_in_util: 1.0,
            sustain: 1,
            cooldown_micros: 0,
            min_replicas: 1,
            max_replicas: 3,
        };
        let mut w = toystore_fleet(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(3, RoutingMode::RoundRobin),
            3,
        )
        .with_autoscaler(policy);
        for (proxy, busy) in [(0, 600_000), (1, 200_000), (2, 400_000)] {
            let a = w.autoscaling.as_mut().expect("autoscaled");
            a.busy.insert(proxy, busy);
        }
        w.observe_time(AUTOSCALE_SAMPLE);
        assert_eq!(w.fleet().replica_ids(), vec![0, 2]);
        assert_eq!(w.live_proxies(), Some(vec![0, 2]));
        let timeline = w.membership();
        assert_eq!(timeline.len(), 1);
        assert_eq!((timeline[0].0.action, timeline[0].1), (ScaleAction::In, 1));
        assert_eq!(timeline[0].0.busiest_util, 0.3);
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
