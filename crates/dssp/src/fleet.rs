//! Multi-proxy scale-out: a fleet of DSSP proxies per tenant.
//!
//! The paper's evaluation (§5, Fig. 8–10) measures scalability as *max
//! users vs. number of DSSP proxy servers*, with the home server
//! broadcasting invalidations to every proxy. [`ProxyFleet`] reproduces
//! that deployment: N [`Dssp`] replicas share one home tier — any
//! [`Home`]: a [`HomeGroup`] by default (a single-node group for a plain
//! [`HomeServer`]), or a [`crate::ShardedHome`] — a load balancer routes
//! each client operation to one replica ([`RoutingMode`]), and every
//! epoch-stamped invalidation fans out to *all* replicas over per-proxy
//! delivery pipes ([`scs_netsim::fault::FaultyChannel`]), tagged with the
//! invalidation stream that owns it.
//!
//! The fleet adds routing in front of, and fanout behind, the serving
//! replica's own request pipeline ([`Dssp::execute_query_ft`] /
//! [`Dssp::execute_update_ft`] over the home tier):
//! [`ProxyFleet::execute_query_ft`] / [`ProxyFleet::execute_update_ft`]
//! take the same trip policy (link, retry schedule, queue snapshot) and
//! answer with the same outcomes (served or applied, degraded hits,
//! `Unavailable`, `Shed`), and the classic
//! [`ProxyFleet::execute_query`] / [`ProxyFleet::execute_update`] are
//! that pair at the neutral policy, promising an answer.
//!
//! Fanout is **batched and coalesced** ([`FanoutConfig`]): the home
//! side buffers notifications, one buffer per invalidation stream, and
//! ships a stream's [`InvalidationBatch`] when its buffer fills or its
//! flush interval elapses; duplicate
//! invalidations for the same update content within a batch coalesce
//! to the latest-epoch representative. [`FanoutConfig::immediate`]
//! degenerates to one message per batch, and a single-proxy immediate
//! fleet over reliable pipes behaves exactly like a standalone proxy
//! (pinned by test).
//!
//! The fleet is **elastic**: [`ProxyFleet::add_replica`] and
//! [`ProxyFleet::remove_replica`] change membership under live load.
//! Every replica carries a *stable id* that is never reused, and the
//! consistent-hash ring is keyed by those ids, so a membership change
//! remaps only the arcs the joining/leaving replica owns. No cache
//! state moves: a joiner handshakes at every stream's tip
//! ([`Home::tips`]) before its pipe joins the fanout and starts empty,
//! and a leaver drains its pipe and takes its cache with it (see
//! [`crate::elastic`]).
//!
//! Fault-tolerance semantics are per replica: each proxy tracks its
//! own position on every stream, detects gaps independently (a dropped
//! batch flushes only the replica that missed it), recovers with its
//! own flush, and — when overload protection is configured — owns its
//! own circuit breaker and brownout state. Staleness anywhere
//! in the fleet stays bounded by the per-entry lease, across
//! membership changes too, which the chaos property tests in
//! `tests/fleet.rs` and `tests/elastic.rs` verify against a
//! ground-truth oracle.

use crate::admission::QueueState;
use crate::delivery::{
    splitmix64, FtQueryResponse, FtUpdateOutcome, FtUpdateResponse, HomeLink, InvalidationBatch,
    InvalidationMsg, RetryPolicy,
};
use crate::home::{Home, HomeServer};
use crate::proxy::{Dssp, DsspConfig, QueryResponse, UpdateResponse};
use crate::replication::{
    CommitAck, FailoverRecord, HomeGroup, InjectionRefused, ReplicationConfig,
};
use crate::stats::DsspStats;
use scs_netsim::fault::{ChannelStats, FaultSpec, FaultyChannel};
use scs_sqlkit::{Query, Update};
use scs_storage::StorageError;
use scs_telemetry::{
    shared_audit, shared_provenance, AuditLog, FlushTrigger, MembershipKind, ProvenanceLog,
    SharedAudit, SharedProvenance, SpanId, SpanPhase, SpanRecorder, TraceEventKind, Tracer,
};
use std::sync::Arc;

/// How the fleet's load balancer picks a replica for an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Cycle through replicas in order. Spreads load evenly but scatters
    /// each template's working set over every cache (N cold misses per
    /// result).
    RoundRobin,
    /// Consistent hashing by template id over a ring of virtual nodes:
    /// one template's queries always land on the same replica, so its
    /// working set is cached exactly once, and adding/removing a replica
    /// remaps only the ring arcs it owned.
    HashByTemplate,
}

impl RoutingMode {
    pub fn name(self) -> &'static str {
        match self {
            RoutingMode::RoundRobin => "round_robin",
            RoutingMode::HashByTemplate => "hash_by_template",
        }
    }
}

/// When the home side ships its buffered invalidations.
#[derive(Debug, Clone, Copy)]
pub struct FanoutConfig {
    /// Flush as soon as this many notifications are buffered.
    pub max_batch: usize,
    /// Flush once the oldest buffered notification has waited this long
    /// (simulated µs). `0` means every notification ships immediately.
    pub flush_interval_micros: u64,
}

impl FanoutConfig {
    /// One message per batch, shipped synchronously — the unbatched
    /// baseline.
    pub fn immediate() -> FanoutConfig {
        FanoutConfig {
            max_batch: 1,
            flush_interval_micros: 0,
        }
    }

    /// Buffer up to `max_batch` notifications or `flush_interval_micros`
    /// of simulated time, whichever fills first.
    pub fn batched(max_batch: usize, flush_interval_micros: u64) -> FanoutConfig {
        assert!(max_batch >= 1, "a batch holds at least one message");
        FanoutConfig {
            max_batch,
            flush_interval_micros,
        }
    }
}

/// Fleet shape: replica count, routing, fanout cadence, and the fault
/// behaviour of the per-proxy delivery pipes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub proxies: usize,
    pub routing: RoutingMode,
    pub fanout: FanoutConfig,
    /// Fault spec applied to every per-proxy pipe (each pipe draws from
    /// its own seeded stream, so replicas fail independently).
    pub pipe_spec: FaultSpec,
    /// Base seed for the pipe streams; pipe `p` uses `seed ^ p`.
    pub pipe_seed: u64,
}

impl FleetConfig {
    /// N replicas, reliable pipes, immediate fanout: the paper's
    /// perfect-delivery broadcast.
    pub fn reliable(proxies: usize, routing: RoutingMode) -> FleetConfig {
        FleetConfig {
            proxies,
            routing,
            fanout: FanoutConfig::immediate(),
            pipe_spec: FaultSpec::none(),
            pipe_seed: 0,
        }
    }
}

/// A query response plus which replica served it.
#[derive(Debug)]
pub struct FleetQueryResponse {
    /// Stable id of the serving replica.
    pub proxy: usize,
    pub resp: QueryResponse,
    /// Invalidation batches delivered at the serving replica *before*
    /// the query ran (the simulation driver charges their scan work to
    /// this operation's CPU cost).
    pub delivered: DeliveryTotals,
}

/// An update response plus which replica forwarded it. The inner
/// response's `scanned`/`invalidated` totals count what *delivering
/// due fanout batches during this call* removed across the whole fleet
/// — with batching or pipe latency the work lands on later calls, so
/// the totals here can be 0 even though entries will die.
#[derive(Debug)]
pub struct FleetUpdateResponse {
    /// Stable id of the forwarding replica.
    pub proxy: usize,
    pub resp: UpdateResponse,
    /// The epoch this update landed at on its stream (its notification
    /// is in the fanout buffer or in flight).
    pub epoch: u64,
    /// The replication ack for this write (always acked for a
    /// single-node home tier and in async mode; may be unacked when a
    /// sync-quorum commit timed out).
    pub ack: CommitAck,
}

/// A query response from [`ProxyFleet::execute_query_ft`]: which replica
/// served (or failed to serve, or shed) it under the caller's trip
/// policy, and what deliveries preceded it.
#[derive(Debug)]
pub struct FleetFtQueryResponse {
    pub proxy: usize,
    pub resp: FtQueryResponse,
    pub delivered: DeliveryTotals,
}

/// An update response from [`ProxyFleet::execute_update_ft`]. Only an
/// applied update carries an `ack`; an `Unavailable` or `Shed` one left
/// the master untouched.
#[derive(Debug)]
pub struct FleetFtUpdateResponse {
    pub proxy: usize,
    pub resp: FtUpdateResponse,
    pub ack: Option<CommitAck>,
    /// What delivering the fanout batches due during this call removed
    /// across the whole fleet.
    pub delivered: DeliveryTotals,
}

/// What a pump delivered: batches applied plus the entry scan/kill
/// totals of the invalidation passes they ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTotals {
    pub batches: usize,
    pub scanned: usize,
    pub invalidated: usize,
}

impl DeliveryTotals {
    fn absorb(&mut self, other: DeliveryTotals) {
        self.batches += other.batches;
        self.scanned += other.scanned;
        self.invalidated += other.invalidated;
    }
}

/// Aggregate fanout accounting for the whole fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Batches flushed (each is sent once per replica).
    pub batches: u64,
    /// Messages retained across all flushed batches.
    pub msgs: u64,
    /// Messages coalesced away before shipping.
    pub coalesced: u64,
    /// Per-pipe channel counters (drop/duplicate/delay/delivered) for
    /// the currently-live replicas, in membership order.
    pub pipes: Vec<ChannelStats>,
}

/// Virtual nodes per replica on the consistent-hash ring. Enough to
/// spread a handful of templates roughly evenly without making ring
/// construction noticeable.
const RING_VNODES: usize = 16;

/// First point clockwise of the template's hash; wrap past the top.
pub(crate) fn ring_route(ring: &[(u64, usize)], template_id: usize) -> usize {
    let h = splitmix64(template_id as u64 ^ 0x74706c); // "tpl"
    let i = match ring.binary_search_by(|&(point, _)| point.cmp(&h)) {
        Ok(i) => i,
        Err(i) => i % ring.len(),
    };
    ring[i].1
}

/// One fleet member: a stable id (never reused within the fleet's
/// lifetime), the proxy itself, and its private delivery pipe, which
/// carries each batch with the stream it belongs to. Keeping the pipe
/// *next to* its proxy — instead of in a parallel vector — is what
/// makes membership changes safe: a removed replica takes its pipe with
/// it, so `pump_all`/`drain` can never index a departed one.
struct Replica {
    id: usize,
    dssp: Dssp,
    pipe: FaultyChannel<(u64, Arc<InvalidationBatch>)>,
}

/// One invalidation stream's fanout buffer.
#[derive(Default)]
struct Pending {
    /// Notifications awaiting flush, ascending by epoch.
    msgs: Vec<InvalidationMsg>,
    /// Sim time the oldest of them entered the buffer.
    since: u64,
}

/// N proxies, one home tier, a router in front and a fanout behind.
pub struct ProxyFleet<H: Home = HomeGroup> {
    replicas: Vec<Replica>,
    /// Next stable id to assign; ids are never reused.
    next_id: usize,
    /// Kept for spawning joiners: same app id, hence the same tenant
    /// encryption key as the founding replicas.
    config: DsspConfig,
    /// The home tier. [`ProxyFleet::new`] wraps its home server in a
    /// single-node [`HomeGroup`] (an exact passthrough);
    /// [`ProxyFleet::replicated`] builds a primary + standbys group
    /// that survives crashes via standby promotion; [`ProxyFleet::over`]
    /// takes any [`Home`].
    home: H,
    routing: RoutingMode,
    /// Sorted `(point, replica id)` ring for
    /// [`RoutingMode::HashByTemplate`]. Points are keyed by stable id,
    /// so a given replica's arcs are identical no matter who else is
    /// in the fleet — that is what makes membership remaps minimal.
    ring: Vec<(u64, usize)>,
    fanout: FanoutConfig,
    pipe_spec: FaultSpec,
    pipe_seed: u64,
    rr_cursor: usize,
    /// One fanout buffer per invalidation stream, indexed by stream id.
    pending: Vec<Pending>,
    now_micros: u64,
    batches: u64,
    msgs: u64,
    coalesced: u64,
    /// Bumped on every join and leave.
    membership_epoch: u64,
    /// Buffered fanout notifications destroyed by a home-tier crash
    /// (crash mid-fanout-flush): their epochs surface to every replica
    /// as one stream gap, which the recovery flush absorbs.
    fanout_lost_on_crash: u64,
    /// Per-replica settings replayed onto joiners; the lease starts as
    /// the config's.
    lease: Option<u64>,
    span_capacity: Option<usize>,
    /// Fleet-layer span recorder: routing decisions and fanout flushes
    /// (replica-side spans live in each proxy's own recorder).
    spans: SpanRecorder,
    /// The fleet's own facts: fanout flushes and sends, membership
    /// changes, home-tier promotions.
    tracer: Tracer,
    /// Home-tier failovers already emitted as promotions.
    failovers_seen: usize,
    /// The planes, when enabled; joiners get their sinks.
    prov: Option<SharedProvenance>,
    audit: Option<SharedAudit>,
}

/// The replication-only surface: a fleet over a [`HomeGroup`].
impl ProxyFleet<HomeGroup> {
    /// Builds the fleet over one home server, wrapped in a single-node
    /// [`HomeGroup`] (an exact passthrough). See [`ProxyFleet::over`].
    pub fn new(config: DsspConfig, home: HomeServer, fleet: FleetConfig) -> ProxyFleet {
        ProxyFleet::over(config, HomeGroup::single(home), fleet)
    }

    /// Builds the fleet over a **replicated** home tier: the home
    /// server becomes the primary of a [`HomeGroup`] per `replication`
    /// (standbys seeded from its current state). Everything else is
    /// identical to [`ProxyFleet::new`] — the replication layer sits
    /// entirely behind the [`Home`] surface.
    pub fn replicated(
        config: DsspConfig,
        home: HomeServer,
        fleet: FleetConfig,
        replication: ReplicationConfig,
    ) -> ProxyFleet {
        ProxyFleet::over(config, HomeGroup::new(home, replication), fleet)
    }

    /// The live home primary (panics while the tier is down — the
    /// fault-tolerant paths check [`HomeGroup::is_up`] first).
    pub fn home(&self) -> &HomeServer {
        self.home.primary()
    }

    /// Crashes the home primary (in-memory state lost, durable WAL
    /// survives). Buffered fanout notifications die with it — counted,
    /// and surfaced to every replica as one stream gap the recovery
    /// flush absorbs. The tier stays down until the group's lease
    /// expires and a standby promotes (advance the clock). Refused,
    /// changing nothing, while the tier is already down.
    pub fn crash_home(&mut self) -> Result<(), InjectionRefused> {
        self.home.crash_primary(self.now_micros)?;
        self.lose_pending();
        Ok(())
    }

    /// Partitions the home primary away (the zombie scenario): same
    /// fleet-side effects as a crash, but the old primary keeps
    /// running on its stale term; a refused one changes nothing.
    pub fn partition_home(&mut self) -> Result<(), InjectionRefused> {
        self.home.partition_primary(self.now_micros)?;
        self.lose_pending();
        Ok(())
    }

    /// Failovers the home tier has completed so far.
    pub fn home_failovers(&self) -> &[FailoverRecord] {
        self.home.failovers()
    }
}

impl<H: Home> ProxyFleet<H> {
    /// Builds the fleet over any home tier: each replica gets its own
    /// cache and telemetry from a clone of `config` (same app id, hence
    /// the same tenant encryption key), its own delivery pipe seeded
    /// independently, and handshakes at every stream's tip.
    pub fn over(config: DsspConfig, home: H, fleet: FleetConfig) -> ProxyFleet<H> {
        assert!(fleet.proxies >= 1, "a fleet has at least one proxy");
        let mut out = ProxyFleet {
            replicas: Vec::with_capacity(fleet.proxies),
            next_id: fleet.proxies,
            lease: config.lease_micros,
            config,
            home,
            routing: fleet.routing,
            ring: Self::build_ring(&(0..fleet.proxies).collect::<Vec<_>>()),
            fanout: fleet.fanout,
            pipe_spec: fleet.pipe_spec,
            pipe_seed: fleet.pipe_seed,
            rr_cursor: 0,
            pending: Vec::new(),
            now_micros: 0,
            batches: 0,
            msgs: 0,
            coalesced: 0,
            membership_epoch: 0,
            fanout_lost_on_crash: 0,
            span_capacity: None,
            spans: SpanRecorder::disabled(),
            tracer: Tracer::new(),
            failovers_seen: 0,
            prov: None,
            audit: None,
        };
        for id in 0..fleet.proxies {
            let replica = out.spawn(id);
            out.replicas.push(replica);
        }
        out
    }

    /// A new replica with stable id `id`: a clone of the fleet's config
    /// with its per-replica settings and plane sinks, at the fleet
    /// clock, handshaken at every stream's tip, and its own pipe.
    fn spawn(&self, id: usize) -> Replica {
        let mut dssp = Dssp::new(self.config.clone());
        dssp.set_lease_micros(self.lease);
        dssp.set_sim_time_micros(self.now_micros);
        if let Some(cap) = self.span_capacity {
            dssp.enable_span_recording(cap);
        }
        dssp.handshake(&self.home.tips());
        if let Some(prov) = &self.prov {
            dssp.add_trace_sink(Box::new(ProvenanceLog::sink(prov, id)));
        }
        if let Some(audit) = &self.audit {
            let tenant = &self.config.app_id;
            dssp.add_trace_sink(Box::new(AuditLog::sink(audit, id, tenant)));
            dssp.meter_crypto();
        }
        let pipe = FaultyChannel::new(self.pipe_seed ^ id as u64, self.pipe_spec.clone());
        Replica { id, dssp, pipe }
    }

    /// Turns on span recording at the fleet layer (routing, fanout
    /// flush) *and* on every replica (request pipeline, batch apply),
    /// each with its own `capacity` cap. Joiners inherit the setting.
    pub fn enable_span_recording(&mut self, capacity: usize) {
        self.span_capacity = Some(capacity);
        self.spans = SpanRecorder::enabled(capacity);
        for r in &mut self.replicas {
            r.dssp.enable_span_recording(capacity);
        }
    }

    /// The fleet-layer span trees (empty unless
    /// [`ProxyFleet::enable_span_recording`] was called).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Turns on the freshness plane: one shared provenance log folding
    /// what the fleet (flushes, sends, membership, promotions) and every
    /// replica (commits, arrivals, invalidations, stores, serves) emit.
    /// Joiners fold into the same log. Returns the shared handle; also
    /// available later via [`ProxyFleet::provenance`].
    pub fn enable_provenance(&mut self) -> SharedProvenance {
        let prov = shared_provenance(self.next_id);
        self.tracer
            .add_sink(Box::new(ProvenanceLog::sink(&prov, 0)));
        for r in &mut self.replicas {
            r.dssp
                .add_trace_sink(Box::new(ProvenanceLog::sink(&prov, r.id)));
        }
        self.prov = Some(prov.clone());
        prov
    }

    /// The freshness plane handle, if [`ProxyFleet::enable_provenance`]
    /// was called.
    pub fn provenance(&self) -> Option<&SharedProvenance> {
        self.prov.as_ref()
    }

    /// Turns on the leakage audit plane: one shared audit log folding
    /// what every replica reveals (request-plane and scan-time), and each
    /// replica's envelope seal/open meter ([`Dssp::meter_crypto`]).
    /// Joiners fold into the same log and meter too. Returns the shared
    /// handle; also available later via [`ProxyFleet::audit`].
    pub fn enable_audit(&mut self) -> SharedAudit {
        let audit = shared_audit(self.next_id);
        let tenant = &self.config.app_id;
        self.tracer
            .add_sink(Box::new(AuditLog::sink(&audit, 0, tenant)));
        for r in &mut self.replicas {
            r.dssp
                .add_trace_sink(Box::new(AuditLog::sink(&audit, r.id, tenant)));
            r.dssp.meter_crypto();
        }
        self.audit = Some(audit.clone());
        audit
    }

    /// The leakage audit plane handle, if [`ProxyFleet::enable_audit`]
    /// was called.
    pub fn audit(&self) -> Option<&SharedAudit> {
        self.audit.as_ref()
    }

    /// Sets (or clears) the staleness lease on every replica's cache.
    /// Joiners inherit the setting.
    pub fn set_lease_micros(&mut self, lease: Option<u64>) {
        self.lease = lease;
        for r in &mut self.replicas {
            r.dssp.set_lease_micros(lease);
        }
    }

    /// Emits a membership transition at the home's current epoch on
    /// stream 0.
    fn membership(&mut self, kind: MembershipKind, replica: usize) {
        let home_epoch = self.home.epoch_of(0);
        let event = TraceEventKind::Membership {
            kind,
            replica,
            home_epoch,
        };
        self.tracer.emit(self.now_micros, event);
    }

    fn build_ring(ids: &[usize]) -> Vec<(u64, usize)> {
        let mut ring = Vec::with_capacity(ids.len() * RING_VNODES);
        for &id in ids {
            for v in 0..RING_VNODES {
                // Domain-separated point: replica id in the high half,
                // vnode in the low, through one splitmix round.
                let point = splitmix64(((id as u64) << 32) ^ v as u64 ^ 0x72696e67); // "ring"
                ring.push((point, id));
            }
        }
        ring.sort_unstable();
        ring
    }

    /// Position of the replica with stable id `id`.
    fn idx(&self, id: usize) -> usize {
        self.replicas
            .iter()
            .position(|r| r.id == id)
            .unwrap_or_else(|| panic!("replica {id} is not in the fleet"))
    }

    /// The replica an operation on `template_id` routes to (stable id).
    pub fn route(&mut self, template_id: usize) -> usize {
        let timer = self.spans.timer();
        let id = match self.routing {
            RoutingMode::RoundRobin => {
                let pos = self.rr_cursor % self.replicas.len();
                self.rr_cursor = (pos + 1) % self.replicas.len();
                self.replicas[pos].id
            }
            RoutingMode::HashByTemplate => ring_route(&self.ring, template_id),
        };
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::Routing,
            SpanId::NONE,
            Some(template_id as u32),
            timer,
        );
        id
    }

    /// Where `template_id` would route under the current ring, without
    /// touching the round-robin cursor or span recorder. Exposed for
    /// the ring-remap property tests.
    pub fn route_template(&self, template_id: usize) -> usize {
        ring_route(&self.ring, template_id)
    }

    /// The current consistent-hash ring, sorted by point. Exposed for
    /// the ring-remap property tests.
    pub fn ring(&self) -> &[(u64, usize)] {
        &self.ring
    }

    /// Membership changes so far (joins and leaves).
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Stable ids of the live replicas, in membership order.
    pub fn replica_ids(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.id).collect()
    }

    /// Adds one replica under live load and returns its stable id. It
    /// handshakes at every stream's tip *before* its pipe joins the
    /// fanout, so everything committed later reaches it on that pipe;
    /// then the ring swaps in one assignment, so no operation routes to
    /// a half-joined replica. It starts cold: an empty cache at the tips
    /// is correct for the reason [`Dssp::restart`] is. Donors keep the
    /// entries of the arcs they lose: every fanout batch still reaches
    /// them, so those entries stay fresh for a later leave that hands
    /// the arcs back.
    pub fn add_replica(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let replica = self.spawn(id);
        self.replicas.push(replica);
        self.ring = Self::build_ring(&self.replica_ids());
        self.membership_epoch += 1;
        self.membership(MembershipKind::Join, id);
        id
    }

    /// Removes the replica with stable id `id` under live load and
    /// returns its stream-0 cursor after the final drain. Its in-flight
    /// work drains, the ring swaps, and it leaves with its cache and its
    /// drained pipe; the new owners of its arcs refill on miss. Refused,
    /// changing nothing, when `id` is not live or is the last replica.
    pub fn remove_replica(&mut self, id: usize) -> Result<u64, InjectionRefused> {
        let li = self
            .replicas
            .iter()
            .position(|r| r.id == id)
            .ok_or(InjectionRefused::NoReplica)?;
        if self.replicas.len() == 1 {
            return Err(InjectionRefused::LastReplica);
        }
        // 1. Drain in-flight: ship the fanout buffer, deliver what is
        //    due everywhere, then pump the leaver's pipe to the very
        //    end (beyond due time — its pipe is about to vanish, so
        //    nothing may be left in flight toward it).
        self.flush_fanout();
        self.pump_all();
        let rest = self.replicas[li].pipe.drain();
        for (stream, batch) in rest {
            self.replicas[li].dssp.apply_batch_from(stream, &batch);
        }
        // 2. Departure: the pipe was drained above, so the conservation
        //    ledger shows nothing in flight toward the departed replica,
        //    and no future flush will address it.
        let left = self.replicas.remove(li);
        self.ring = Self::build_ring(&self.replica_ids());
        self.membership_epoch += 1;
        self.membership(MembershipKind::Leave, id);
        Ok(left.dssp.epoch())
    }

    /// Routes a query to its replica, delivering any fanout batches due
    /// at that replica first (per-pipe FIFO order is preserved). The
    /// perfect-delivery form: [`ProxyFleet::execute_query_ft`] at the
    /// neutral policy. It promises an answer, so a miss while the home
    /// tier is down panics.
    pub fn execute_query(&mut self, q: &Query) -> Result<FleetQueryResponse, StorageError> {
        let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
        let ft = self.execute_query_ft(q, &link, &policy, None)?;
        Ok(FleetQueryResponse {
            proxy: ft.proxy,
            resp: QueryResponse::promised(ft.resp.outcome),
            delivered: ft.delivered,
        })
    }

    /// The fleet's query entry point: route, deliver what is due at the
    /// serving replica, then that replica's request pipeline over the
    /// home tier, under the caller's trip policy — so
    /// it survives the tier or the link being down (within-lease hits
    /// serve degraded, misses surface `Unavailable`) and, with `queue`,
    /// sheds at the replica's own overload gate.
    pub fn execute_query_ft(
        &mut self,
        q: &Query,
        link: &HomeLink,
        policy: &RetryPolicy,
        queue: Option<&QueueState>,
    ) -> Result<FleetFtQueryResponse, StorageError> {
        let id = self.route(q.template_id);
        let delivered = self.pump(id);
        let i = self.idx(id);
        let resp =
            self.replicas[i]
                .dssp
                .execute_query_ft(q, &mut self.home, link, policy, queue)?;
        Ok(FleetFtQueryResponse {
            proxy: id,
            resp,
            delivered,
        })
    }

    /// Routes an update through a replica to the home server. The
    /// epoch-stamped notification enters the fanout buffer — the
    /// forwarding replica does **not** invalidate inline; like every
    /// other replica it waits for its own pipe's batch, so delivery
    /// semantics are uniform across the fleet. With
    /// [`FanoutConfig::immediate`] over zero-latency reliable pipes the
    /// batch applies before this call returns. The perfect-delivery
    /// form: [`ProxyFleet::execute_update_ft`] at the neutral policy; it
    /// panics while the home tier is down.
    pub fn execute_update(&mut self, u: &Update) -> Result<FleetUpdateResponse, StorageError> {
        let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
        let ft = self.execute_update_ft(u, &link, &policy, None)?;
        let (FtUpdateOutcome::Applied { effect, msg, .. }, Some(ack)) = (ft.resp.outcome, ft.ack)
        else {
            unreachable!("the neutral policy to an up home tier never fails")
        };
        Ok(FleetUpdateResponse {
            proxy: ft.proxy,
            resp: UpdateResponse {
                effect,
                scanned: ft.delivered.scanned,
                invalidated: ft.delivered.invalidated,
            },
            epoch: msg.epoch,
            ack,
        })
    }

    /// The fleet's update entry point: the forwarding replica's pipeline
    /// over the home tier. `Unavailable` or `Shed` (master untouched)
    /// while the tier or the link is down or the replica's overload gate
    /// refuses; an applied write is committed ([`Home::commit_write`]:
    /// a group replicates it and acks), its notification buffered for
    /// fanout on its stream, and whatever is already due delivered
    /// fleet-wide.
    pub fn execute_update_ft(
        &mut self,
        u: &Update,
        link: &HomeLink,
        policy: &RetryPolicy,
        queue: Option<&QueueState>,
    ) -> Result<FleetFtUpdateResponse, StorageError> {
        let id = self.route(u.template_id);
        self.pump(id);
        let i = self.idx(id);
        let resp =
            self.replicas[i]
                .dssp
                .execute_update_ft(u, &mut self.home, link, policy, queue)?;
        let mut delivered = DeliveryTotals::default();
        let ack = match &resp.outcome {
            FtUpdateOutcome::Applied { stream, msg, .. } => {
                let (stream, msg) = (*stream, msg.clone());
                // Replicate before fanout: the ack (sync-quorum wait
                // included) reflects the write alone, not downstream
                // delivery work.
                let ack = self.home.commit_write(stream, self.now_micros);
                self.offer(stream, msg);
                // Deliver anything already due (with immediate fanout
                // over zero-latency pipes that includes the batch just
                // sent).
                delivered = self.pump_all();
                Some(ack)
            }
            FtUpdateOutcome::Unavailable | FtUpdateOutcome::Shed(_) => None,
        };
        Ok(FleetFtUpdateResponse {
            proxy: id,
            resp,
            ack,
            delivered,
        })
    }

    /// Buffers a notification under its stream, flushing that buffer on
    /// the size trigger.
    fn offer(&mut self, stream: u64, msg: InvalidationMsg) {
        let s = stream as usize;
        if s >= self.pending.len() {
            self.pending.resize_with(s + 1, Pending::default);
        }
        let buf = &mut self.pending[s];
        if buf.msgs.is_empty() {
            buf.since = self.now_micros;
        }
        buf.msgs.push(msg);
        if buf.msgs.len() >= self.fanout.max_batch {
            self.flush_stream(stream, FlushTrigger::Size);
        }
    }

    /// A home-tier crash destroys the fanout buffers: their epochs
    /// surface to every replica as stream gaps.
    fn lose_pending(&mut self) {
        let lost: usize = self.pending.iter().map(|p| p.msgs.len()).sum();
        self.fanout_lost_on_crash += lost as u64;
        self.pending.clear();
    }

    /// Coalesces and ships every stream's pending buffer to every
    /// replica's pipe, as an explicit drain.
    pub fn flush_fanout(&mut self) {
        for stream in 0..self.pending.len() as u64 {
            self.flush_stream(stream, FlushTrigger::Drain);
        }
    }

    fn flush_stream(&mut self, stream: u64, trigger: FlushTrigger) {
        let msgs = std::mem::take(&mut self.pending[stream as usize].msgs);
        let Some(batch) = InvalidationBatch::coalesce(msgs).map(Arc::new) else {
            return;
        };
        self.batches += 1;
        self.msgs += batch.len() as u64;
        self.coalesced += batch.coalesced;
        let timer = self.spans.timer();
        // Label the flush span with its template only when the batch is
        // template-uniform; a mixed batch gets `None` so per-template
        // trace rollups never misattribute the whole flush to whichever
        // update happened to be first.
        let label = batch
            .msgs
            .first()
            .map(|m| m.update.template_id)
            .filter(|&t| batch.msgs.iter().all(|m| m.update.template_id == t));
        let root = self.spans.open(
            self.now_micros,
            SpanPhase::FanoutFlush,
            SpanId::NONE,
            label.map(|t| t as u32),
        );
        let (now, first_epoch) = (self.now_micros, batch.first_epoch);
        let flushed = TraceEventKind::BatchFlushed {
            stream,
            first_epoch,
            last_epoch: batch.last_epoch,
            coalesced: batch.coalesced,
            trigger,
        };
        self.tracer.emit(now, flushed);
        // Sized only for a listener: rendering each statement costs
        // more than the flush itself.
        if self.tracer.is_active() {
            for m in &batch.msgs {
                let update_template = m.update.template_id as u32;
                let bytes = m.payload_bytes();
                let kind = TraceEventKind::BatchMsg {
                    update_template,
                    bytes,
                };
                self.tracer.emit(now, kind);
            }
        }
        for r in &mut self.replicas {
            r.pipe.send(now, (stream, Arc::clone(&batch)));
            let sent = TraceEventKind::BatchSent {
                replica: r.id,
                stream,
                first_epoch,
            };
            self.tracer.emit(now, sent);
        }
        self.spans.close(root, timer);
    }

    /// Flushes each stream's buffer whose oldest notification has
    /// waited out the configured interval.
    fn maybe_flush(&mut self) {
        for stream in 0..self.pending.len() {
            let buf = &self.pending[stream];
            if !buf.msgs.is_empty()
                && self.now_micros.saturating_sub(buf.since) >= self.fanout.flush_interval_micros
            {
                self.flush_stream(stream as u64, FlushTrigger::Interval);
            }
        }
    }

    /// Delivers every due batch at the replica in position `i`.
    fn pump_at(&mut self, i: usize) -> DeliveryTotals {
        use crate::delivery::BatchOutcome;
        let r = &mut self.replicas[i];
        let due = r.pipe.poll(self.now_micros);
        let mut totals = DeliveryTotals {
            batches: due.len(),
            ..DeliveryTotals::default()
        };
        for (stream, batch) in due {
            if let BatchOutcome::Applied {
                scanned,
                invalidated,
                ..
            } = r.dssp.apply_batch_from(stream, &batch)
            {
                totals.scanned += scanned;
                totals.invalidated += invalidated;
            }
        }
        totals
    }

    /// Delivers every batch due at the replica with stable id `id`
    /// (duplicates and gap recoveries included in `batches`; their
    /// scans are not).
    pub fn pump(&mut self, id: usize) -> DeliveryTotals {
        let i = self.idx(id);
        self.pump_at(i)
    }

    /// Delivers every due batch at every live replica. Safe across
    /// membership changes: it walks the live set, so a departed
    /// replica's pipe is never touched.
    pub fn pump_all(&mut self) -> DeliveryTotals {
        let mut totals = DeliveryTotals::default();
        for i in 0..self.replicas.len() {
            totals.absorb(self.pump_at(i));
        }
        totals
    }

    /// Advances the fleet clock: every replica's lease/trace clock moves,
    /// the interval flush fires if due, and deliveries due by `micros`
    /// drain to their replicas.
    pub fn set_sim_time_micros(&mut self, micros: u64) {
        self.now_micros = micros;
        // A replicated tier heartbeats, ships WAL records, and — when
        // the primary has been silent past its lease — promotes a
        // standby. Promotion is invisible here beyond its event: the
        // barrier epoch turns the lost tail into an ordinary stream gap.
        let failovers = self.home.advance_clock(micros);
        for f in &failovers[self.failovers_seen..] {
            let promotion = TraceEventKind::Promotion {
                from_primary: f.from_primary,
                to_primary: f.to_primary,
                barrier_epoch: f.barrier_epoch,
            };
            self.tracer.emit(f.at_micros, promotion);
        }
        self.failovers_seen = failovers.len();
        for r in &mut self.replicas {
            r.dssp.set_sim_time_micros(micros);
        }
        self.maybe_flush();
        self.pump_all();
    }

    /// End of run: ship whatever is buffered and deliver everything
    /// still in flight, regardless of due time. Like
    /// [`ProxyFleet::pump_all`], walks only the live replica set.
    pub fn drain(&mut self) {
        self.flush_fanout();
        for i in 0..self.replicas.len() {
            let rest = self.replicas[i].pipe.drain();
            for (stream, batch) in rest {
                self.replicas[i].dssp.apply_batch_from(stream, &batch);
            }
        }
    }

    /// Crash + restart one replica at sim time `at_micros`: its cache is
    /// lost and its cursors re-handshake at the home's tips (see
    /// [`Dssp::restart`]). The other replicas are untouched — recovery
    /// is independent. Refused, changing nothing, when no live replica
    /// has stable id `id`.
    pub fn restart_proxy(&mut self, id: usize, at_micros: u64) -> Result<(), InjectionRefused> {
        let tips = self.home.tips();
        let replica = self.replicas.iter_mut().find(|r| r.id == id);
        let dssp = &mut replica.ok_or(InjectionRefused::NoReplica)?.dssp;
        dssp.set_sim_time_micros(at_micros);
        dssp.restart(&tips);
        Ok(())
    }

    /// Live replica count.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica with stable id `id` (panics when not live).
    pub fn proxy(&self, id: usize) -> &Dssp {
        &self.replicas[self.idx(id)].dssp
    }

    pub fn proxy_mut(&mut self, id: usize) -> &mut Dssp {
        let i = self.idx(id);
        &mut self.replicas[i].dssp
    }

    /// The home tier.
    pub fn tier(&self) -> &H {
        &self.home
    }

    pub fn tier_mut(&mut self) -> &mut H {
        &mut self.home
    }

    /// Buffered fanout notifications destroyed by home-tier crashes.
    pub fn fanout_lost_on_crash(&self) -> u64 {
        self.fanout_lost_on_crash
    }

    /// Fanout accounting, including per-pipe fault counters.
    pub fn fanout_stats(&self) -> FanoutStats {
        FanoutStats {
            batches: self.batches,
            msgs: self.msgs,
            coalesced: self.coalesced,
            pipes: self.replicas.iter().map(|r| r.pipe.stats()).collect(),
        }
    }

    /// Fleet-wide counter roll-up ([`DsspStats::merge`] across replicas).
    pub fn rollup_stats(&self) -> DsspStats {
        let mut total = DsspStats::default();
        for r in &self.replicas {
            total.merge(&r.dssp.stats());
        }
        total
    }

    /// Fleet-wide metrics roll-up: every replica's named counters merged
    /// into one snapshot.
    pub fn rollup_metrics(&self) -> scs_telemetry::MetricsSnapshot {
        let mut total = scs_telemetry::MetricsSnapshot::default();
        for r in &self.replicas {
            total.merge(&r.dssp.metrics());
        }
        total
    }

    /// Total cached entries across replicas.
    pub fn total_cache_entries(&self) -> usize {
        self.replicas.iter().map(|r| r.dssp.cache_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use scs_core::{characterize_app, AnalysisOptions, Catalog};
    use scs_sqlkit::{parse_query, parse_update, Value};
    use scs_storage::{ColumnType, Database, TableSchema};
    use std::sync::Arc;

    struct Fixture<H: Home = HomeGroup> {
        fleet: ProxyFleet<H>,
        queries: Vec<Arc<scs_sqlkit::QueryTemplate>>,
        updates: Vec<Arc<scs_sqlkit::UpdateTemplate>>,
    }

    fn toy_config(
        kind: StrategyKind,
    ) -> (
        DsspConfig,
        HomeServer,
        Vec<Arc<scs_sqlkit::QueryTemplate>>,
        Vec<Arc<scs_sqlkit::UpdateTemplate>>,
    ) {
        let schema = TableSchema::builder("toys")
            .column("toy_id", ColumnType::Int)
            .column("toy_name", ColumnType::Str)
            .column("qty", ColumnType::Int)
            .primary_key(&["toy_id"])
            .index("toy_name")
            .build()
            .unwrap();
        let mut db = Database::new();
        db.create_table(schema.clone()).unwrap();
        for (id, name, qty) in [(1, "bear", 10), (2, "car", 5), (3, "kite", 7)] {
            db.insert_row(
                "toys",
                vec![Value::Int(id), Value::str(name), Value::Int(qty)],
            )
            .unwrap();
        }
        let queries = vec![
            Arc::new(parse_query("SELECT toy_id FROM toys WHERE toy_name = ?").unwrap()),
            Arc::new(parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap()),
        ];
        let updates = vec![Arc::new(
            parse_update("UPDATE toys SET qty = ? WHERE toy_id = ?").unwrap(),
        )];
        let catalog = Catalog::new([schema]);
        let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
        let config = DsspConfig::new(
            "toystore",
            kind.exposures(updates.len(), queries.len()),
            matrix,
        );
        (config, HomeServer::new(db), queries, updates)
    }

    fn fixture(kind: StrategyKind, fleet: FleetConfig) -> Fixture {
        let (config, home, queries, updates) = toy_config(kind);
        Fixture {
            fleet: ProxyFleet::new(config, home, fleet),
            queries,
            updates,
        }
    }

    impl<H: Home> ProxyFleet<H> {
        /// Notifications buffered for fanout, over every stream.
        fn pending_len(&self) -> usize {
            self.pending.iter().map(|p| p.msgs.len()).sum()
        }
    }

    impl<H: Home> Fixture<H> {
        fn query(&mut self, tid: usize, params: Vec<Value>) -> FleetQueryResponse {
            let q = Query::bind(tid, self.queries[tid].clone(), params).unwrap();
            self.fleet.execute_query(&q).unwrap()
        }

        fn update(&mut self, tid: usize, params: Vec<Value>) -> FleetUpdateResponse {
            let u = Update::bind(tid, self.updates[tid].clone(), params).unwrap();
            self.fleet.execute_update(&u).unwrap()
        }
    }

    #[test]
    fn round_robin_cycles_replicas() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(3, RoutingMode::RoundRobin),
        );
        let served: Vec<usize> = (0..6)
            .map(|_| f.query(1, vec![Value::Int(1)]).proxy)
            .collect();
        assert_eq!(served, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn hash_routing_pins_a_template_to_one_replica() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(4, RoutingMode::HashByTemplate),
        );
        let first = f.query(1, vec![Value::Int(1)]).proxy;
        for _ in 0..8 {
            assert_eq!(f.query(1, vec![Value::Int(2)]).proxy, first);
        }
        // The second query of the same template hits the warm cache.
        assert!(f.query(1, vec![Value::Int(1)]).resp.hit);
    }

    #[test]
    fn hash_ring_spreads_many_templates() {
        let fleet = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(4, RoutingMode::HashByTemplate),
        )
        .fleet;
        let mut used = std::collections::HashSet::new();
        for tid in 0..64 {
            used.insert(fleet.route_template(tid));
        }
        assert_eq!(used.len(), 4, "64 templates must touch every replica");
    }

    #[test]
    fn fanout_invalidates_every_replica() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(3, RoutingMode::RoundRobin),
        );
        // Warm the same entry on all three replicas (round-robin lands
        // each query on a different one).
        for _ in 0..3 {
            f.query(1, vec![Value::Int(2)]);
        }
        assert_eq!(f.fleet.total_cache_entries(), 3);
        f.update(0, vec![Value::Int(99), Value::Int(2)]);
        assert_eq!(
            f.fleet.total_cache_entries(),
            0,
            "immediate fanout reaches every replica before the update returns"
        );
        let rolled = f.fleet.rollup_stats();
        assert_eq!(rolled.invalidations, 3);
        // Every replica is at the home epoch.
        for p in 0..3 {
            assert_eq!(f.fleet.proxy(p).epoch(), f.fleet.home().epoch());
        }
    }

    #[test]
    fn single_proxy_immediate_fleet_matches_classic_proxy() {
        let (config, mut home, queries, updates) = toy_config(StrategyKind::ViewInspection);
        let mut classic = Dssp::new(config.clone());
        let (fconfig, fhome, _, _) = toy_config(StrategyKind::ViewInspection);
        let mut f = Fixture {
            fleet: ProxyFleet::new(
                fconfig,
                fhome,
                FleetConfig::reliable(1, RoutingMode::RoundRobin),
            ),
            queries: queries.clone(),
            updates: updates.clone(),
        };
        let script: Vec<(bool, usize, Vec<Value>)> = vec![
            (true, 1, vec![Value::Int(1)]),
            (true, 0, vec![Value::str("car")]),
            (false, 0, vec![Value::Int(3), Value::Int(1)]),
            (true, 1, vec![Value::Int(1)]),
            (true, 1, vec![Value::Int(2)]),
            (false, 0, vec![Value::Int(8), Value::Int(2)]),
            (true, 1, vec![Value::Int(2)]),
            (true, 0, vec![Value::str("bear")]),
        ];
        for (is_query, tid, params) in script {
            if is_query {
                let q = Query::bind(tid, queries[tid].clone(), params).unwrap();
                let a = classic.execute_query(&q, &mut home).unwrap();
                let b = f.fleet.execute_query(&q).unwrap();
                assert_eq!(a.hit, b.resp.hit);
                assert_eq!(a.result, b.resp.result);
            } else {
                let u = Update::bind(tid, updates[tid].clone(), params).unwrap();
                let a = classic.execute_update(&u, &mut home).unwrap();
                let b = f.fleet.execute_update(&u).unwrap();
                assert_eq!(a.effect, b.resp.effect);
            }
        }
        let a = classic.stats();
        let b = f.fleet.rollup_stats();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.hits, b.hits, "cache behaviour is identical");
        assert_eq!(a.invalidations, b.invalidations);
        assert_eq!(classic.epoch(), f.fleet.proxy(0).epoch());
    }

    #[test]
    fn size_trigger_batches_and_coalesces() {
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(4, u64::MAX);
        let mut f = fixture(StrategyKind::ViewInspection, cfg);
        // Warm one entry per replica.
        f.query(1, vec![Value::Int(2)]);
        f.query(1, vec![Value::Int(2)]);
        // Three updates of the same content buffer without shipping…
        for _ in 0..3 {
            f.update(0, vec![Value::Int(5), Value::Int(2)]);
        }
        assert_eq!(f.fleet.pending_len(), 3);
        assert_eq!(f.fleet.total_cache_entries(), 2, "nothing delivered yet");
        // …the fourth (identical content again) fills the batch: one
        // flush, the three earlier duplicates coalesced away.
        f.update(0, vec![Value::Int(5), Value::Int(2)]);
        assert_eq!(f.fleet.pending_len(), 0);
        let stats = f.fleet.fanout_stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.msgs, 1, "four identical updates ship as one");
        assert_eq!(stats.coalesced, 3);
        assert_eq!(f.fleet.total_cache_entries(), 0);
        // Each replica covered all four epochs from the one batch.
        for p in 0..2 {
            assert_eq!(f.fleet.proxy(p).epoch(), 4);
        }
    }

    #[test]
    fn interval_trigger_flushes_on_time_advance() {
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(1000, 10_000);
        let mut f = fixture(StrategyKind::ViewInspection, cfg);
        f.query(1, vec![Value::Int(2)]);
        f.query(1, vec![Value::Int(2)]);
        f.fleet.set_sim_time_micros(1_000);
        f.update(0, vec![Value::Int(5), Value::Int(2)]);
        assert_eq!(f.fleet.pending_len(), 1);
        // Not due yet: 9ms later.
        f.fleet.set_sim_time_micros(10_000);
        assert_eq!(f.fleet.pending_len(), 1);
        // Due: the interval has elapsed since the message buffered.
        f.fleet.set_sim_time_micros(11_000);
        assert_eq!(f.fleet.pending_len(), 0);
        assert_eq!(f.fleet.total_cache_entries(), 0, "delivered on flush");
    }

    #[test]
    fn dropped_batch_recovers_via_gap_on_next_delivery() {
        // Pipe 1 drops everything; pipe 0 is clean. After two updates,
        // replica 0 applied both batches while replica 1 saw nothing;
        // a drain-less pump leaves replica 1 stale but lease-free reads
        // never happen because the *next delivered* batch (we heal the
        // pipe by draining) arrives with a gap and flushes.
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.pipe_spec = FaultSpec::none();
        let mut f = fixture(StrategyKind::ViewInspection, cfg);
        f.query(1, vec![Value::Int(2)]);
        f.query(1, vec![Value::Int(2)]);
        // Simulate the drop by applying batch 1 only at replica 0, then
        // batch 2 at both: replica 1 sees first_epoch=2 > expected=1.
        let u = Update::bind(0, f.updates[0].clone(), vec![Value::Int(5), Value::Int(2)]).unwrap();
        let (msg1, msg2) = {
            let home = f.fleet.tier_mut().primary_mut();
            let (_, m1) = home.apply_update(&u).unwrap();
            let (_, m2) = home.apply_update(&u).unwrap();
            (m1, m2)
        };
        let b1 = InvalidationBatch::single(msg1);
        let b2 = InvalidationBatch::single(msg2);
        use crate::delivery::BatchOutcome;
        assert!(matches!(
            f.fleet.proxy_mut(0).apply_batch(&b1),
            BatchOutcome::Applied { .. }
        ));
        assert!(matches!(
            f.fleet.proxy_mut(0).apply_batch(&b2),
            BatchOutcome::Applied { .. }
        ));
        let out = f.fleet.proxy_mut(1).apply_batch(&b2);
        assert!(matches!(out, BatchOutcome::Recovered { flushed: 1 }));
        assert_eq!(f.fleet.proxy(1).epoch(), 2, "gap flush skips ahead");
        // Redelivery of the missed batch is now a harmless duplicate.
        assert_eq!(
            f.fleet.proxy_mut(1).apply_batch(&b1),
            BatchOutcome::Duplicate
        );
    }

    #[test]
    fn overlapping_batch_skips_covered_epochs() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(1, RoutingMode::RoundRobin),
        );
        let u = Update::bind(0, f.updates[0].clone(), vec![Value::Int(5), Value::Int(1)]).unwrap();
        let home = f.fleet.tier_mut().primary_mut();
        let msgs: Vec<InvalidationMsg> = (0..3)
            .map(|i| {
                let vu = Update::bind(
                    0,
                    f.updates[0].clone(),
                    vec![Value::Int(5 + i), Value::Int(1 + i)],
                )
                .unwrap();
                home.apply_update(&vu).unwrap().1
            })
            .collect();
        let _ = u;
        use crate::delivery::BatchOutcome;
        // Deliver [1..=2] first, then the overlapping [1..=3].
        let first = InvalidationBatch::coalesce(msgs[..2].to_vec()).unwrap();
        let full = InvalidationBatch::coalesce(msgs.clone()).unwrap();
        assert!(matches!(
            f.fleet.proxy_mut(0).apply_batch(&first),
            BatchOutcome::Applied {
                applied: 2,
                skipped: 0,
                ..
            }
        ));
        assert!(matches!(
            f.fleet.proxy_mut(0).apply_batch(&full),
            BatchOutcome::Applied {
                applied: 1,
                skipped: 2,
                ..
            }
        ));
        assert_eq!(f.fleet.proxy(0).epoch(), 3);
        // And a full redelivery is a batch-level duplicate.
        assert!(matches!(
            f.fleet.proxy_mut(0).apply_batch(&full),
            BatchOutcome::Duplicate
        ));
    }

    #[test]
    fn fanout_metrics_count_batches() {
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(2, u64::MAX);
        let mut f = fixture(StrategyKind::ViewInspection, cfg);
        f.update(0, vec![Value::Int(5), Value::Int(1)]);
        f.update(0, vec![Value::Int(5), Value::Int(2)]);
        let rolled = f.fleet.rollup_metrics();
        assert_eq!(rolled.counters["dssp.fanout_batches_applied"], 2);
        assert_eq!(
            rolled.counters["dssp.fanout_batch_msgs"], 4,
            "2 msgs × 2 replicas"
        );
    }

    /// A template-uniform fanout batch labels its flush span with that
    /// template; a mixed batch is labeled `None` so per-template trace
    /// rollups never charge the whole flush to whichever message was
    /// first.
    #[test]
    fn fanout_flush_span_label_is_none_for_mixed_template_batches() {
        use scs_telemetry::SpanPhase;
        let (_config, home, queries, _updates) = toy_config(StrategyKind::ViewInspection);
        let updates = vec![
            Arc::new(parse_update("UPDATE toys SET qty = ? WHERE toy_id = ?").unwrap()),
            Arc::new(parse_update("UPDATE toys SET toy_name = ? WHERE toy_id = ?").unwrap()),
        ];
        // Re-derive the matrix over both update templates so either can
        // be executed against the fleet.
        let schema = home.database().table("toys").unwrap().schema().clone();
        let catalog = Catalog::new([schema]);
        let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
        let config = DsspConfig::new(
            "toystore",
            StrategyKind::ViewInspection.exposures(updates.len(), queries.len()),
            matrix,
        );
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(2, u64::MAX);
        let mut fleet = ProxyFleet::new(config, home, cfg);
        fleet.enable_span_recording(256);
        let upd = |tid: usize, params: Vec<Value>| {
            Update::bind(tid, updates[tid].clone(), params).unwrap()
        };
        // Two different templates fill the batch: the size-triggered
        // flush is mixed.
        fleet
            .execute_update(&upd(0, vec![Value::Int(9), Value::Int(1)]))
            .unwrap();
        fleet
            .execute_update(&upd(1, vec![Value::str("ball"), Value::Int(2)]))
            .unwrap();
        // Two updates of one template: the next flush is uniform.
        fleet
            .execute_update(&upd(0, vec![Value::Int(8), Value::Int(1)]))
            .unwrap();
        fleet
            .execute_update(&upd(0, vec![Value::Int(7), Value::Int(2)]))
            .unwrap();
        let labels: Vec<Option<u32>> = fleet
            .spans()
            .spans()
            .iter()
            .filter(|s| s.phase == SpanPhase::FanoutFlush)
            .map(|s| s.template)
            .collect();
        assert_eq!(labels, vec![None, Some(0)]);
    }

    #[test]
    fn restart_rejoins_at_home_epoch() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(2, RoutingMode::RoundRobin),
        );
        f.query(1, vec![Value::Int(1)]);
        f.update(0, vec![Value::Int(4), Value::Int(1)]);
        f.update(0, vec![Value::Int(5), Value::Int(1)]);
        f.fleet.restart_proxy(1, f.fleet.now_micros).unwrap();
        assert_eq!(f.fleet.proxy(1).epoch(), f.fleet.home().epoch());
        assert_eq!(f.fleet.proxy(1).cache_len(), 0);
        // Replica 0 is untouched by its peer's crash.
        assert_eq!(f.fleet.proxy(0).epoch(), f.fleet.home().epoch());
    }

    /// A join is cold: right after `add_replica` the joiner holds
    /// nothing and sits at every stream's tip, and the donors keep what
    /// they had cached.
    #[test]
    fn a_joiner_starts_empty_at_the_home_tips() {
        let mut f = sharded_fixture(4, FleetConfig::reliable(2, RoutingMode::HashByTemplate));
        for id in 1..=3 {
            f.update(0, vec![Value::Int(20 + id), Value::Int(id)]);
            f.query(1, vec![Value::Int(id)]);
        }
        f.query(0, vec![Value::str("bear")]);
        let cached = f.fleet.total_cache_entries();
        assert_eq!(cached, 4);
        let joiner = f.fleet.add_replica();
        assert_eq!(f.fleet.proxy(joiner).cache_len(), 0);
        assert_eq!(f.fleet.proxy(joiner).cursors(), &f.fleet.tier().tips()[..]);
        assert_eq!(f.fleet.total_cache_entries(), cached, "donors keep theirs");
    }

    /// A donor keeps the entries of the arc a joiner takes, and fanout
    /// keeps them fresh while nothing routes to it: once the joiner
    /// leaves and the arc comes back, the donor serves the master's rows.
    #[test]
    fn a_donors_retained_entry_is_invalidated_while_it_is_not_routed() {
        let n = (1..8)
            .find(|&n| {
                ring_route(
                    &ProxyFleet::<HomeGroup>::build_ring(&Vec::from_iter(0..=n)),
                    1,
                ) == n
            })
            .expect("some joiner takes template 1's arc");
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(n, RoutingMode::HashByTemplate),
        );
        let owner = f.fleet.route_template(1);
        assert!(!f.query(1, vec![Value::Int(1)]).resp.hit);
        let joiner = f.fleet.add_replica();
        assert_eq!(f.fleet.route_template(1), joiner);
        assert_eq!(f.fleet.proxy(owner).cache_len(), 1, "the donor keeps it");
        f.update(0, vec![Value::Int(42), Value::Int(1)]);
        let left = f.fleet.remove_replica(joiner);
        assert_eq!(f.fleet.route_template(1), owner);
        let q = Query::bind(1, f.queries[1].clone(), vec![Value::Int(1)]).unwrap();
        let master = f.fleet.home().database().execute(&q).unwrap();
        let served = f.fleet.execute_query(&q).unwrap();
        assert_eq!(served.proxy, owner);
        assert_eq!(served.resp.result.rows, master.rows);
        assert_eq!(master.rows, vec![vec![Value::Int(42)]]);
        assert_eq!(left, Ok(f.fleet.home().epoch()), "the leaver drained");
    }

    /// A joiner takes the config's lease when the fleet's was never
    /// set, as the founders do: its entries expire like theirs.
    #[test]
    fn a_joiner_keeps_the_configs_lease() {
        let (mut config, home, queries, updates) = toy_config(StrategyKind::ViewInspection);
        config.lease_micros = Some(100);
        let cfg = FleetConfig::reliable(1, RoutingMode::RoundRobin);
        let mut f = Fixture {
            fleet: ProxyFleet::new(config, home, cfg),
            queries,
            updates,
        };
        let joiner = f.fleet.add_replica();
        let stored: Vec<usize> = (0..2)
            .map(|_| f.query(1, vec![Value::Int(2)]).proxy)
            .collect();
        assert_eq!(stored, vec![0, joiner]);
        f.fleet.set_sim_time_micros(200);
        for _ in 0..2 {
            assert!(!f.query(1, vec![Value::Int(2)]).resp.hit, "expired");
        }
    }

    /// A refused leave (an unknown id, or the last replica) changes
    /// nothing: ring, live set, membership epoch and caches.
    #[test]
    fn a_refused_leave_leaves_the_fleet_as_it_was() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(1, RoutingMode::HashByTemplate),
        );
        f.query(1, vec![Value::Int(2)]);
        let ring = f.fleet.ring().to_vec();
        assert_eq!(f.fleet.remove_replica(5), Err(InjectionRefused::NoReplica));
        assert_eq!(
            f.fleet.remove_replica(0),
            Err(InjectionRefused::LastReplica)
        );
        assert_eq!(f.fleet.ring(), &ring[..]);
        assert_eq!(f.fleet.replica_ids(), vec![0]);
        assert_eq!(f.fleet.membership_epoch(), 0);
        assert_eq!(f.fleet.proxy(0).cache_len(), 1);
        assert!(f.query(1, vec![Value::Int(2)]).resp.hit);
    }

    #[test]
    fn stable_ids_survive_interleaved_joins_and_leaves() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(2, RoutingMode::HashByTemplate),
        );
        assert_eq!(f.fleet.add_replica(), 2);
        f.fleet.remove_replica(0).unwrap();
        assert_eq!(f.fleet.replica_ids(), vec![1, 2]);
        // Operations keep working against the sparse id set.
        f.query(1, vec![Value::Int(2)]);
        f.update(0, vec![Value::Int(3), Value::Int(2)]);
        for id in f.fleet.replica_ids() {
            assert_eq!(f.fleet.proxy(id).epoch(), f.fleet.home().epoch());
        }
        // Round-trip another membership change and drain cleanly.
        assert_eq!(f.fleet.add_replica(), 3);
        f.fleet.drain();
        assert_eq!(f.fleet.membership_epoch(), 3);
    }

    // ---- replicated home tier --------------------------------------

    use crate::replication::{ReplicationConfig, ReplicationMode};

    fn replicated_fixture(standbys: usize) -> Fixture {
        let (config, home, queries, updates) = toy_config(StrategyKind::ViewInspection);
        let mut repl = ReplicationConfig::group(ReplicationMode::Async, standbys);
        repl.seed = 11;
        Fixture {
            fleet: ProxyFleet::replicated(
                config,
                home,
                FleetConfig::reliable(2, RoutingMode::RoundRobin),
                repl,
            ),
            queries,
            updates,
        }
    }

    /// Advances fleet time until the group promotes a standby.
    fn ride_out_failover(f: &mut Fixture, mut now: u64) -> u64 {
        let before = f.fleet.home_failovers().len();
        while f.fleet.home_failovers().len() == before {
            now += 10_000;
            f.fleet.set_sim_time_micros(now);
            assert!(now < 10_000_000, "failover never happened");
        }
        now
    }

    #[test]
    fn restart_handshakes_against_a_promoted_home() {
        let mut f = replicated_fixture(1);
        f.query(1, vec![Value::Int(1)]);
        for i in 0..4 {
            f.update(0, vec![Value::Int(10 + i), Value::Int(1)]);
        }
        let now = 1_000;
        f.fleet.set_sim_time_micros(now); // ships + delivers replication
        f.fleet.crash_home().unwrap();
        ride_out_failover(&mut f, now);
        let fo = *f.fleet.home_failovers().last().unwrap();
        assert_eq!(fo.lost_records, 0, "everything had replicated");
        // The promoted home opened past the old tip; a restarting
        // proxy handshakes against the *new* stream position.
        f.fleet.restart_proxy(1, f.fleet.now_micros).unwrap();
        assert_eq!(f.fleet.proxy(1).epoch(), f.fleet.home().epoch());
        assert_eq!(f.fleet.proxy(1).epoch(), fo.barrier_epoch);
        assert_eq!(f.fleet.proxy(1).cache_len(), 0);
        // And ordinary traffic keeps working against the new primary.
        let resp = f.update(0, vec![Value::Int(99), Value::Int(1)]);
        assert!(resp.ack.acked);
        assert!(resp.epoch > fo.barrier_epoch);
    }

    #[test]
    fn pump_all_and_drain_cross_a_failover_boundary() {
        let (config, home, queries, updates) = toy_config(StrategyKind::ViewInspection);
        let mut repl = ReplicationConfig::group(ReplicationMode::Async, 1);
        repl.seed = 13;
        let mut cfg = FleetConfig::reliable(2, RoutingMode::RoundRobin);
        cfg.fanout = FanoutConfig::batched(1000, u64::MAX); // hold everything
        let mut f = Fixture {
            fleet: ProxyFleet::replicated(config, home, cfg, repl),
            queries,
            updates,
        };
        // Warm both replicas, then buffer updates without flushing.
        f.query(1, vec![Value::Int(1)]);
        f.query(1, vec![Value::Int(1)]);
        for i in 0..3 {
            f.update(0, vec![Value::Int(20 + i), Value::Int(1)]);
        }
        assert_eq!(f.fleet.pending_len(), 3);
        let mut now = 1_000;
        f.fleet.set_sim_time_micros(now);
        // Crash mid-fanout-flush: the buffered notifications die with
        // the primary (counted), their epochs become a stream gap.
        f.fleet.crash_home().unwrap();
        assert_eq!(f.fleet.pending_len(), 0);
        assert_eq!(f.fleet.fanout_lost_on_crash(), 3);
        now = ride_out_failover(&mut f, now);
        // Post-failover updates fan out from the promoted primary;
        // pump_all/drain walk the same pipes as before the failover.
        f.update(0, vec![Value::Int(50), Value::Int(1)]);
        f.fleet.set_sim_time_micros(now + 1_000);
        f.fleet.flush_fanout();
        f.fleet.pump_all();
        f.fleet.drain();
        // Every replica crossed the barrier gap (recovery flush) and
        // converged on the new stream position.
        for p in 0..2 {
            assert_eq!(f.fleet.proxy(p).epoch(), f.fleet.home().epoch());
        }
        assert_eq!(f.fleet.total_cache_entries(), 0, "gap flushed the caches");
        // The lost epochs were recovered over, not silently skipped.
        let counters = f.fleet.rollup_metrics().counters;
        assert!(
            counters["dssp.recovery_flushes"] >= 1,
            "at least one replica gap-flushed"
        );
    }

    #[test]
    fn replicated_fleet_survives_failover_transparently() {
        let mut f = replicated_fixture(2);
        f.query(1, vec![Value::Int(1)]);
        f.query(1, vec![Value::Int(2)]);
        for i in 0..5 {
            f.update(0, vec![Value::Int(30 + i), Value::Int(1)]);
        }
        let mut now = 2_000;
        f.fleet.set_sim_time_micros(now);
        let epoch_before = f.fleet.home().epoch();
        f.fleet.crash_home().unwrap();
        assert!(!f.fleet.tier().is_up());
        // Queries during the outage degrade instead of panicking.
        let q = Query::bind(1, f.queries[1].clone(), vec![Value::Int(1)]).unwrap();
        let (link, policy) = (HomeLink::default(), RetryPolicy::default());
        let ha = f.fleet.execute_query_ft(&q, &link, &policy, None).unwrap();
        assert!(matches!(
            ha.resp.outcome,
            crate::delivery::FtOutcome::Unavailable | crate::delivery::FtOutcome::Served { .. }
        ));
        // Updates during the outage are refused, master untouched.
        let u = Update::bind(0, f.updates[0].clone(), vec![Value::Int(77), Value::Int(1)]).unwrap();
        let ha = f.fleet.execute_update_ft(&u, &link, &policy, None).unwrap();
        assert!(matches!(
            ha.resp.outcome,
            crate::delivery::FtUpdateOutcome::Unavailable
        ));
        assert!(ha.ack.is_none());
        now = ride_out_failover(&mut f, now);
        assert!(f.fleet.tier().is_up());
        assert!(f.fleet.home().epoch() > epoch_before, "barrier moved ahead");
        // The same paths now serve against the promoted primary.
        let ha = f.fleet.execute_update_ft(&u, &link, &policy, None).unwrap();
        assert!(ha.ack.expect("tier is up").acked);
        f.fleet.set_sim_time_micros(now + 1_000);
        f.fleet.drain();
        for p in 0..2 {
            assert_eq!(f.fleet.proxy(p).epoch(), f.fleet.home().epoch());
        }
    }

    /// A join while the home primary is down reads the tier's tip (its
    /// high-water mark) instead of panicking, and a second crash is
    /// refused; once a standby promotes, the joiner converges like every
    /// other replica.
    #[test]
    fn a_join_while_the_primary_is_crashed_handshakes_at_the_high_water_mark() {
        let mut f = replicated_fixture(1);
        f.query(1, vec![Value::Int(1)]);
        for i in 0..3 {
            f.update(0, vec![Value::Int(10 + i), Value::Int(1)]);
        }
        let now = 1_000;
        f.fleet.set_sim_time_micros(now);
        let tip = f.fleet.home().epoch();
        f.fleet.crash_home().unwrap();
        assert_eq!(f.fleet.crash_home(), Err(InjectionRefused::NoPrimary));
        let joiner = f.fleet.add_replica();
        assert_eq!(f.fleet.proxy(joiner).epoch(), tip);
        let now = ride_out_failover(&mut f, now);
        f.update(0, vec![Value::Int(99), Value::Int(1)]);
        f.fleet.set_sim_time_micros(now + 1_000);
        f.fleet.drain();
        for id in f.fleet.replica_ids() {
            assert_eq!(f.fleet.proxy(id).epoch(), f.fleet.home().epoch());
        }
    }

    // ---- sharded home tier -------------------------------------------

    use crate::sharded::ShardedHome;
    use scs_storage::{PartitionMap, TablePlacement};

    /// The toy fleet over `shards` shards, `toys` hash-split on its key.
    fn sharded_fixture(shards: usize, fleet: FleetConfig) -> Fixture<ShardedHome> {
        let (config, home, queries, updates) = toy_config(StrategyKind::ViewInspection);
        let split = TablePlacement::Hash {
            column: "toy_id".into(),
        };
        let map = PartitionMap::by_table(shards).with_placement("toys", split);
        let home = ShardedHome::new(home.database().clone(), map);
        Fixture {
            fleet: ProxyFleet::over(config, home, fleet),
            queries,
            updates,
        }
    }

    /// A joiner handshakes at every stream's tip, so over a reliable
    /// sharded fleet its first batch on each stream is in order: no
    /// replica ever sees a gap.
    #[test]
    fn a_reliable_sharded_fleets_join_causes_no_recovery_flush() {
        let mut f = sharded_fixture(4, FleetConfig::reliable(2, RoutingMode::HashByTemplate));
        for id in 1..=3 {
            f.query(1, vec![Value::Int(id)]);
            f.update(0, vec![Value::Int(20 + id), Value::Int(id)]);
        }
        let tips = f.fleet.tier().tips();
        assert!(
            tips[1..].iter().any(|&t| t > 0),
            "no stream past 0: {tips:?}"
        );
        let joiner = f.fleet.add_replica();
        for id in 1..=3 {
            f.update(0, vec![Value::Int(30 + id), Value::Int(id)]);
            f.query(0, vec![Value::str("bear")]);
        }
        let tips = f.fleet.tier().tips();
        for id in f.fleet.replica_ids() {
            assert_eq!(f.fleet.proxy(id).cursors(), &tips[..], "replica {id}");
        }
        let counters = f.fleet.rollup_metrics().counters;
        assert_eq!(counters["dssp.recovery_flushes"], 0, "joiner {joiner}");
    }
}
