//! The discrete-event simulation of the deployment in §5.2 of the paper:
//!
//! ```text
//! clients ── 5 ms / 20 Mbps each ──> DSSP node ── 100 ms / 2 Mbps ──> home
//! ```
//!
//! Emulated clients issue an HTTP-like request, wait for its response
//! (each request is a *sequence* of database operations, issued serially),
//! then think for an exponentially distributed time (mean 7 s). The DSSP
//! node and the home server are FIFO service centers; the DSSP↔home link
//! is a shared duplex pipe; client links are private.
//!
//! The *logical* behaviour of each operation (cache hit? result size?
//! invalidation work?) is delegated to a [`Workload`] implementation,
//! which executes the operation against the real DSSP + storage engine
//! and reports its resource demands as an [`OpCost`]. Operations execute
//! logically in event order, which matches their simulated serialization
//! order at the DSSP.

use crate::metrics::{CenterTelemetry, RunMetrics};
use crate::resource::{DuplexLink, Served, ServiceCenter};
use crate::units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_telemetry::TimeSeries;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The resource demands of one database operation.
#[derive(Debug, Clone, Default)]
pub struct OpCost {
    /// CPU time at the DSSP node (cache lookup, app logic, invalidation).
    pub dssp_cpu: Time,
    /// Which DSSP proxy node serves the CPU demand (fleet scale-out;
    /// see [`SystemSpec::dssp_nodes`]). 0 for single-proxy workloads.
    pub proxy: usize,
    /// A home-server round trip (cache miss or update); `None` for hits.
    pub home_trip: Option<HomeTrip>,
    /// Bytes of the reply sent back to the client.
    pub reply_bytes: u64,
}

/// One DSSP → home → DSSP round trip.
#[derive(Debug, Clone, Default)]
pub struct HomeTrip {
    /// Bytes sent to the home server (query/update statement).
    pub request_bytes: u64,
    /// Bytes returned (query result / ack).
    pub reply_bytes: u64,
    /// CPU time at the home server.
    pub home_cpu: Time,
    /// Which home shard serves the trip (sharded home tier; see
    /// [`SystemSpec::home_shards`]). 0 for single-home workloads.
    pub shard: usize,
}

/// The logical system under test, driven by the simulator.
pub trait Workload {
    /// Starts a new request for `client`; returns its operation count
    /// (must be ≥ 1).
    fn begin_request(&mut self, client: usize) -> usize;

    /// Executes operation `op_index` (0-based) of `client`'s current
    /// request — side effects happen now — and reports its cost.
    fn execute_op(&mut self, client: usize, op_index: usize) -> OpCost;

    /// Observed cache hit rate so far (for reporting), if available.
    fn hit_rate(&self) -> f64 {
        0.0
    }

    /// Informs the workload of the current simulated time (µs) just
    /// before each [`Workload::execute_op`] — workloads that carry
    /// telemetry stamp their trace events with it. Default: ignored.
    fn observe_time(&mut self, _now: Time) {}

    /// Multiplier on the client *arrival rate* at simulated time `now`
    /// (think time is divided by it). `scs_apps::FleetWorkload` returns
    /// its load profile here to shape a flash crowd without touching
    /// `SimConfig`; the default is a flat 1.0.
    fn think_multiplier(&self, _now: Time) -> f64 {
        1.0
    }

    /// Stable ids of the proxy nodes that are *live* right now, for
    /// workloads whose fleet changes membership mid-run
    /// (`scs_apps::FleetWorkload` while an autoscaler resizes it).
    /// `None` (the default) means every node that ever served is live —
    /// the static fleet case.
    fn live_proxies(&self) -> Option<Vec<usize>> {
        None
    }
}

/// Network and node parameters (defaults = the paper's §5.2 testbed).
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Client↔DSSP link: one-way latency and bandwidth (bits/s).
    pub client_latency: Time,
    pub client_bandwidth: u64,
    /// DSSP↔home link.
    pub home_latency: Time,
    pub home_bandwidth: u64,
    /// Number of CPU servers at the DSSP node / home server.
    pub dssp_servers: usize,
    pub home_servers: usize,
    /// Number of home-tier *shards* (the sharded home's scale-out axis).
    /// Each shard is its own service center with `home_servers` CPUs; a
    /// home trip is served by the shard its [`HomeTrip::shard`] selects.
    /// The DSSP↔home link stays shared — partitioning splits the master
    /// CPU, not the network.
    pub home_shards: usize,
    /// Number of DSSP proxy *nodes* (the paper's Fig. 8–10 x-axis). Each
    /// node is its own service center with `dssp_servers` CPUs; an op is
    /// served by the node its [`OpCost::proxy`] selects. The home tier
    /// and its link stay shared — that is what makes the blind strategy
    /// flat as proxies are added.
    pub dssp_nodes: usize,
    /// Bytes of a client→DSSP op request (HTTP-ish overhead).
    pub op_request_bytes: u64,
}

impl Default for SystemSpec {
    fn default() -> SystemSpec {
        SystemSpec {
            client_latency: 5 * crate::units::MS,
            client_bandwidth: 20_000_000,
            home_latency: 100 * crate::units::MS,
            home_bandwidth: 2_000_000,
            dssp_servers: 1,
            home_servers: 1,
            home_shards: 1,
            dssp_nodes: 1,
            op_request_bytes: 300,
        }
    }
}

impl SystemSpec {
    /// The default testbed scaled out to `n` DSSP proxy nodes.
    pub fn with_dssp_nodes(n: usize) -> SystemSpec {
        SystemSpec {
            dssp_nodes: n.max(1),
            ..SystemSpec::default()
        }
    }

    /// The default testbed with the home tier split into `n` shards.
    pub fn with_home_shards(n: usize) -> SystemSpec {
        SystemSpec {
            home_shards: n.max(1),
            ..SystemSpec::default()
        }
    }
}

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub users: usize,
    /// Total simulated time.
    pub duration: Time,
    /// Prefix excluded from metrics (cold cache, ramp-up).
    pub warmup: Time,
    /// Mean exponential think time (paper: 7 s).
    pub think_mean: Time,
    pub seed: u64,
    pub spec: SystemSpec,
}

impl SimConfig {
    /// The paper's methodology with a configurable user count: 10 simulated
    /// minutes, cold cache, 7 s mean think time.
    pub fn paper(users: usize, seed: u64) -> SimConfig {
        SimConfig {
            users,
            duration: 600 * crate::units::SEC,
            warmup: 60 * crate::units::SEC,
            think_mean: 7 * crate::units::SEC,
            seed,
            spec: SystemSpec::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Client sends the next op of its current request.
    Issue,
    /// The op arrives at the DSSP node.
    DsspArrive,
    /// The op's reply reaches the client.
    Reply,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: Time,
    seq: u64,
    client: usize,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct ClientState {
    link: DuplexLink,
    request_start: Time,
    ops_total: usize,
    ops_done: usize,
}

/// Runs one simulation and collects metrics.
pub fn run(cfg: &SimConfig, workload: &mut dyn Workload) -> RunMetrics {
    run_observed(cfg, workload, None)
}

/// [`run`] plus a sim-time time series: with `bucket_micros` set, the
/// returned metrics carry [`RunMetrics::timeseries`] with per-window
/// curves — counter `ops` (every executed op, warmup included, bucketed
/// by arrival time) and, within the measurement window, counter
/// `requests` plus histogram `response_us` (bucketed by completion time,
/// the same population as [`RunMetrics::response_times`], so merging the
/// window histograms reproduces [`RunMetrics::response_hist`] exactly).
///
/// This is a separate entry point rather than a `SimConfig` field because
/// the config is built by struct literal throughout the workspace;
/// existing callers keep compiling and pay nothing.
pub fn run_observed(
    cfg: &SimConfig,
    workload: &mut dyn Workload,
    bucket_micros: Option<Time>,
) -> RunMetrics {
    assert!(cfg.users >= 1, "need at least one user");
    assert!(cfg.warmup < cfg.duration, "warmup must precede the window");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nodes = cfg.spec.dssp_nodes.max(1);
    let mut dssp_cpus: Vec<ServiceCenter> = (0..nodes)
        .map(|_| ServiceCenter::new(cfg.spec.dssp_servers))
        .collect();
    let shards = cfg.spec.home_shards.max(1);
    let mut home_cpus: Vec<ServiceCenter> = (0..shards)
        .map(|_| ServiceCenter::new(cfg.spec.home_servers))
        .collect();
    let mut home_link = DuplexLink::new(cfg.spec.home_latency, cfg.spec.home_bandwidth);
    let mut clients: Vec<ClientState> = (0..cfg.users)
        .map(|_| ClientState {
            link: DuplexLink::new(cfg.spec.client_latency, cfg.spec.client_bandwidth),
            request_start: 0,
            ops_total: 0,
            ops_done: 0,
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let push = |heap: &mut BinaryHeap<Reverse<Event>>, seq: &mut u64, at, client, kind| {
        *seq += 1;
        heap.push(Reverse(Event {
            at,
            seq: *seq,
            client,
            kind,
        }));
    };

    // Stagger initial arrivals uniformly over one think period.
    for c in 0..cfg.users {
        let offset = rng.gen_range(0..=cfg.think_mean);
        push(&mut heap, &mut seq, offset, c, EventKind::Issue);
    }

    let mut metrics = RunMetrics {
        users: cfg.users,
        window: cfg.duration - cfg.warmup,
        ..RunMetrics::default()
    };
    let mut series = bucket_micros.map(TimeSeries::new);
    // Track pending per-op costs between DsspArrive and Reply scheduling.
    while let Some(Reverse(ev)) = heap.pop() {
        if ev.at >= cfg.duration {
            break;
        }
        let c = ev.client;
        match ev.kind {
            EventKind::Issue => {
                if clients[c].ops_done == 0 {
                    clients[c].ops_total = workload.begin_request(c).max(1);
                    clients[c].request_start = ev.at;
                    if ev.at >= cfg.warmup {
                        metrics.requests_offered += 1;
                    }
                }
                let arrive = clients[c].link.up.send(ev.at, cfg.spec.op_request_bytes);
                push(&mut heap, &mut seq, arrive, c, EventKind::DsspArrive);
            }
            EventKind::DsspArrive => {
                workload.observe_time(ev.at);
                let cost = workload.execute_op(c, clients[c].ops_done);
                metrics.ops_executed += 1;
                if let Some(ts) = series.as_mut() {
                    ts.incr(ev.at, "ops");
                }
                // Stable replica ids can exceed the configured node
                // count once an elastic fleet has joined replicas
                // mid-run: grow the tier on demand, one service center
                // per id ever routed to.
                if cost.proxy >= dssp_cpus.len() {
                    dssp_cpus
                        .resize_with(cost.proxy + 1, || ServiceCenter::new(cfg.spec.dssp_servers));
                }
                let dssp_served = dssp_cpus[cost.proxy].serve_traced(ev.at, cost.dssp_cpu);
                record_center(&mut metrics.dssp_cpu_telemetry, ev.at, dssp_served);
                let ready = match &cost.home_trip {
                    Some(trip) => {
                        let at_home = home_link.up.send(dssp_served.done, trip.request_bytes);
                        // Same grow-on-demand rule as the proxy tier:
                        // ids are stable, so a shard id past the
                        // configured count grows the tier.
                        if trip.shard >= home_cpus.len() {
                            home_cpus.resize_with(trip.shard + 1, || {
                                ServiceCenter::new(cfg.spec.home_servers)
                            });
                        }
                        let home_served =
                            home_cpus[trip.shard].serve_traced(at_home, trip.home_cpu);
                        record_center(&mut metrics.home_cpu_telemetry, at_home, home_served);
                        let (delivered, link_wait) = home_link
                            .down
                            .send_traced(home_served.done, trip.reply_bytes);
                        let link = &mut metrics.home_link_telemetry;
                        link.wait.record(link_wait);
                        link.service
                            .record(delivered - home_served.done - link_wait);
                        delivered
                    }
                    None => dssp_served.done,
                };
                let replied = clients[c].link.down.send(ready, cost.reply_bytes);
                push(&mut heap, &mut seq, replied, c, EventKind::Reply);
            }
            EventKind::Reply => {
                clients[c].ops_done += 1;
                if clients[c].ops_done < clients[c].ops_total {
                    push(&mut heap, &mut seq, ev.at, c, EventKind::Issue);
                } else {
                    if clients[c].request_start >= cfg.warmup {
                        metrics.requests_completed += 1;
                        let rt = ev.at - clients[c].request_start;
                        metrics.response_times.push(rt);
                        metrics.response_hist.record(rt);
                        if let Some(ts) = series.as_mut() {
                            ts.incr(ev.at, "requests");
                            ts.observe(ev.at, "response_us", rt);
                        }
                    }
                    clients[c].ops_done = 0;
                    // Flash-crowd shaping: a multiplier > 1 shrinks the
                    // think pause, multiplying the arrival rate.
                    let mult = workload.think_multiplier(ev.at).max(f64::MIN_POSITIVE);
                    let mean = ((cfg.think_mean as f64 / mult).round() as Time).max(1);
                    let think = exponential(&mut rng, mean);
                    push(&mut heap, &mut seq, ev.at + think, c, EventKind::Issue);
                }
            }
        }
    }

    let horizon = cfg.duration;
    metrics.dssp_node_utilization = dssp_cpus.iter().map(|c| c.utilization(horizon)).collect();
    // The headline DSSP utilization is the busiest *live* node: that is
    // the replica whose queue bends the response-time curve. Departed
    // replicas keep their slot in the per-node series (ids are stable)
    // but can't be the bottleneck of anything anymore.
    metrics.dssp_utilization = match workload.live_proxies() {
        Some(live) => live
            .iter()
            .filter_map(|&id| metrics.dssp_node_utilization.get(id))
            .copied()
            .fold(0.0, f64::max),
        None => metrics
            .dssp_node_utilization
            .iter()
            .copied()
            .fold(0.0, f64::max),
    };
    metrics.home_shard_utilization = home_cpus.iter().map(|c| c.utilization(horizon)).collect();
    // The headline home utilization is the busiest shard: partitioning
    // only helps until one shard's queue bends the curve.
    metrics.home_utilization = metrics
        .home_shard_utilization
        .iter()
        .copied()
        .fold(0.0, f64::max);
    metrics.home_link_utilization = home_link.down.utilization(horizon);
    metrics.hit_rate = workload.hit_rate();
    metrics.timeseries = series;
    metrics
}

/// Records one job at a shared service center. Only the three *shared*
/// centers are instrumented — per-client links are uncontended by
/// construction and would cost a histogram per simulated user.
fn record_center(center: &mut CenterTelemetry, arrived: Time, served: Served) {
    center.wait.record(served.start - arrived);
    center.service.record(served.done - served.start);
}

/// Samples an exponential duration with the given mean.
fn exponential(rng: &mut StdRng, mean: Time) -> Time {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let t = -(mean as f64) * u.ln();
    t.min(1e15) as Time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{MS, SEC};

    /// A trivial workload: every request is one op served at the DSSP.
    struct HitOnly;
    impl Workload for HitOnly {
        fn begin_request(&mut self, _c: usize) -> usize {
            1
        }
        fn execute_op(&mut self, _c: usize, _i: usize) -> OpCost {
            OpCost {
                dssp_cpu: MS,
                home_trip: None,
                reply_bytes: 1_000,
                ..OpCost::default()
            }
        }
    }

    /// Every op needs the home server.
    struct MissOnly;
    impl Workload for MissOnly {
        fn begin_request(&mut self, _c: usize) -> usize {
            1
        }
        fn execute_op(&mut self, _c: usize, _i: usize) -> OpCost {
            OpCost {
                dssp_cpu: MS,
                home_trip: Some(HomeTrip {
                    request_bytes: 300,
                    reply_bytes: 2_000,
                    home_cpu: 5 * MS,
                    shard: 0,
                }),
                reply_bytes: 2_000,
                ..OpCost::default()
            }
        }
    }

    fn quick_cfg(users: usize) -> SimConfig {
        SimConfig {
            users,
            duration: 120 * SEC,
            warmup: 20 * SEC,
            think_mean: 7 * SEC,
            seed: 42,
            spec: SystemSpec::default(),
        }
    }

    #[test]
    fn hits_are_fast() {
        let m = run(&quick_cfg(10), &mut HitOnly);
        assert!(m.requests_completed > 50, "10 users × ~14 requests each");
        // ~2 × 5 ms link latency + 1 ms CPU + serialization.
        let p90 = m.percentile(0.9).unwrap();
        assert!(p90 < 50 * MS, "hit path should be ~11 ms, got {p90}");
    }

    #[test]
    fn misses_add_home_round_trip() {
        let m = run(&quick_cfg(10), &mut MissOnly);
        let p50 = m.percentile(0.5).unwrap();
        assert!(
            (200 * MS..600 * MS).contains(&p50),
            "miss path dominated by 2 × 100 ms home link, got {p50}"
        );
    }

    #[test]
    fn saturation_raises_response_times() {
        // Home CPU capacity: 200 ops/s. 100 users ≈ 14 ops/s (fine);
        // 3000 users ≈ 430 ops/s (overload).
        let light = run(&quick_cfg(100), &mut MissOnly);
        let heavy = run(&quick_cfg(3000), &mut MissOnly);
        assert!(light.percentile(0.9).unwrap() < 2 * SEC);
        let sla = crate::metrics::Sla::paper();
        assert!(sla.met_by(&light));
        assert!(!sla.met_by(&heavy), "overloaded system must miss the SLA");
        // With 2 KB replies over 2 Mbps, the home link (8 ms/reply)
        // saturates before the home CPU (5 ms/query) — either way the
        // home side must be pinned.
        assert!(
            heavy.home_utilization.max(heavy.home_link_utilization) > 0.95,
            "home cpu {:.2} / link {:.2}",
            heavy.home_utilization,
            heavy.home_link_utilization
        );
    }

    /// Every op needs the home tier, spread round-robin over `shards`.
    struct ShardedMiss {
        shards: usize,
        next: usize,
    }
    impl Workload for ShardedMiss {
        fn begin_request(&mut self, _c: usize) -> usize {
            1
        }
        fn execute_op(&mut self, _c: usize, _i: usize) -> OpCost {
            let shard = self.next % self.shards;
            self.next += 1;
            OpCost {
                dssp_cpu: MS,
                home_trip: Some(HomeTrip {
                    request_bytes: 300,
                    reply_bytes: 2_000,
                    home_cpu: 5 * MS,
                    shard,
                }),
                reply_bytes: 2_000,
                ..OpCost::default()
            }
        }
    }

    #[test]
    fn home_shards_split_the_tier_and_relieve_saturation() {
        // 3000 users ≈ 430 ops/s against a 200 ops/s single home: pinned.
        let mut cfg = quick_cfg(3000);
        let one = run(&cfg, &mut ShardedMiss { shards: 1, next: 0 });
        assert_eq!(one.home_shard_utilization.len(), 1);
        assert!(one.home_utilization > 0.95 || one.home_link_utilization > 0.95);

        // Four shards: each center sees ~1/4 of the miss stream, so the
        // per-shard utilization drops and the headline is the busiest.
        cfg.spec = SystemSpec::with_home_shards(4);
        let four = run(&cfg, &mut ShardedMiss { shards: 4, next: 0 });
        assert_eq!(four.home_shard_utilization.len(), 4);
        let max = four
            .home_shard_utilization
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert_eq!(four.home_utilization, max);
        // Round-robin spreads the load evenly across the centers.
        let min = four
            .home_shard_utilization
            .iter()
            .cloned()
            .fold(1.0f64, f64::min);
        assert!(
            max - min < 0.1,
            "shard utilizations unbalanced: {:?}",
            four.home_shard_utilization
        );
        assert!(
            four.home_utilization < one.home_utilization,
            "4-shard busiest {:.2} vs single {:.2}",
            four.home_utilization,
            one.home_utilization
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(&quick_cfg(20), &mut MissOnly);
        let b = run(&quick_cfg(20), &mut MissOnly);
        assert_eq!(a.response_times, b.response_times);
        assert_eq!(a.requests_completed, b.requests_completed);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(20);
        let a = run(&cfg, &mut MissOnly);
        cfg.seed = 43;
        let b = run(&cfg, &mut MissOnly);
        assert_ne!(a.response_times, b.response_times);
    }

    #[test]
    fn telemetry_histograms_cover_the_run() {
        let m = run(&quick_cfg(10), &mut MissOnly);
        // Every completed request in the window appears in the response
        // histogram, with quantiles agreeing with the sorted vector up to
        // bucket resolution.
        assert_eq!(m.response_hist.count as usize, m.response_times.len());
        let p90 = m.percentile(0.9).unwrap();
        let (lo, hi) = m.response_hist.quantile_bounds(0.9).unwrap();
        assert!(lo <= p90 && p90 <= hi, "p90 {p90} outside [{lo}, {hi}]");
        // Every op passed through the DSSP CPU and (MissOnly) home CPU.
        assert_eq!(m.dssp_cpu_telemetry.service.count, m.ops_executed);
        assert_eq!(m.home_cpu_telemetry.service.count, m.ops_executed);
        assert_eq!(m.home_link_telemetry.service.count, m.ops_executed);
        // Exact 5 ms home-CPU service demand.
        assert_eq!(m.home_cpu_telemetry.service.max, Some(5 * MS));
    }

    #[test]
    fn saturation_shows_up_as_queueing_not_service() {
        let light = run(&quick_cfg(100), &mut MissOnly);
        let heavy = run(&quick_cfg(3000), &mut MissOnly);
        // Service-time distributions are load-independent…
        assert_eq!(
            light.home_link_telemetry.service.max,
            heavy.home_link_telemetry.service.max
        );
        // …while waits at the bottleneck explode under overload.
        let wait_p50 = |m: &RunMetrics| {
            m.home_link_telemetry
                .wait
                .quantile_bounds(0.5)
                .map(|(lo, _)| lo)
                .unwrap_or(0)
        };
        assert!(
            wait_p50(&heavy) > 100 * wait_p50(&light).max(1),
            "heavy wait {} vs light wait {}",
            wait_p50(&heavy),
            wait_p50(&light)
        );
    }

    #[test]
    fn observe_time_sees_nondecreasing_arrivals() {
        struct Stamped {
            inner: MissOnly,
            stamps: Vec<Time>,
        }
        impl Workload for Stamped {
            fn begin_request(&mut self, c: usize) -> usize {
                self.inner.begin_request(c)
            }
            fn execute_op(&mut self, c: usize, i: usize) -> OpCost {
                self.inner.execute_op(c, i)
            }
            fn observe_time(&mut self, now: Time) {
                self.stamps.push(now);
            }
        }
        let mut w = Stamped {
            inner: MissOnly,
            stamps: Vec::new(),
        };
        let m = run(&quick_cfg(5), &mut w);
        assert_eq!(w.stamps.len() as u64, m.ops_executed);
        assert!(w.stamps.windows(2).all(|p| p[0] <= p[1]));
    }

    /// DSSP-CPU-heavy workload routed round-robin across proxy nodes.
    struct CpuBound {
        nodes: usize,
        next: usize,
    }
    impl Workload for CpuBound {
        fn begin_request(&mut self, _c: usize) -> usize {
            1
        }
        fn execute_op(&mut self, _c: usize, _i: usize) -> OpCost {
            let proxy = self.next % self.nodes;
            self.next += 1;
            OpCost {
                dssp_cpu: 40 * MS,
                proxy,
                home_trip: None,
                reply_bytes: 1_000,
            }
        }
    }

    #[test]
    fn extra_dssp_nodes_relieve_a_cpu_bound_tier() {
        // 40 ms/op at ~70 ops/s offered: one node is at 2.8× capacity,
        // four nodes are comfortably under it.
        let mut cfg = quick_cfg(500);
        cfg.spec.dssp_nodes = 1;
        let one = run(&cfg, &mut CpuBound { nodes: 1, next: 0 });
        cfg.spec.dssp_nodes = 4;
        let four = run(&cfg, &mut CpuBound { nodes: 4, next: 0 });
        let sla = crate::metrics::Sla::paper();
        assert!(!sla.met_by(&one), "single node saturates");
        assert!(sla.met_by(&four), "four nodes meet the SLA");
        assert_eq!(four.dssp_node_utilization.len(), 4);
        assert!(one.dssp_utilization > 0.95);
        assert!(four.dssp_utilization < 0.9);
        // Round-robin load lands evenly: node utilizations agree within
        // a few percent.
        let (lo, hi) = four
            .dssp_node_utilization
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &u| (lo.min(u), hi.max(u)));
        assert!(
            hi - lo < 0.05,
            "even spread, got {:?}",
            four.dssp_node_utilization
        );
    }

    #[test]
    fn single_node_spec_is_unchanged_by_the_fleet_extension() {
        // dssp_nodes = 1 must reproduce the pre-fleet simulator exactly.
        let m = run(&quick_cfg(10), &mut MissOnly);
        assert_eq!(m.dssp_node_utilization.len(), 1);
        assert_eq!(m.dssp_node_utilization[0], m.dssp_utilization);
    }

    #[test]
    fn warmup_excluded() {
        let mut cfg = quick_cfg(5);
        cfg.warmup = 110 * SEC;
        let m = run(&cfg, &mut HitOnly);
        let full = run(&quick_cfg(5), &mut HitOnly);
        assert!(m.requests_completed < full.requests_completed);
    }

    #[test]
    fn observed_run_curves_reconcile_with_aggregates() {
        let cfg = quick_cfg(10);
        let m = run_observed(&cfg, &mut MissOnly, Some(10 * SEC));
        let ts = m.timeseries.as_ref().expect("bucket width was given");
        assert_eq!(ts.width_micros(), 10 * SEC);
        // Window totals reproduce the whole-run aggregates exactly.
        assert_eq!(ts.counter_total("ops"), m.ops_executed);
        assert_eq!(ts.counter_total("requests") as usize, m.requests_completed);
        assert_eq!(ts.merged_hist("response_us"), m.response_hist);
        // Warmup windows carry ops but no measured requests.
        let requests = ts.counter_curve("requests");
        let ops = ts.counter_curve("ops");
        assert!(ops[0] > 0, "warmup traffic is visible in the ops curve");
        assert_eq!(requests[0], 0, "warmup requests are not measured");
        assert!(requests.iter().skip(2).any(|&n| n > 0));
        // The observed run is bit-identical to the unobserved one.
        let plain = run(&cfg, &mut MissOnly);
        assert_eq!(plain.response_times, m.response_times);
        assert!(plain.timeseries.is_none());
    }
}
