//! Multi-proxy scale-out: a fleet of DSSP proxies per tenant.
//!
//! The paper's evaluation (§5, Fig. 8–10) measures scalability as *max
//! users vs. number of DSSP proxy servers*, with the home server
//! broadcasting invalidations to every proxy. [`ProxyFleet`] reproduces
//! that deployment: N [`Dssp`] replicas share one home tier (a
//! [`HomeGroup`]; a single-node group for a plain [`HomeServer`]), a
//! load balancer routes each client operation to one replica
//! ([`RoutingMode`]), and every epoch-stamped invalidation fans out to
//! *all* replicas over per-proxy delivery pipes
//! ([`scs_netsim::fault::FaultyChannel`]).
//!
//! The fleet adds routing in front of, and fanout behind, the serving
//! replica's own request pipeline ([`Dssp::execute_query_ft`] /
//! [`Dssp::execute_update_ft`] over the group as a [`crate::Home`]):
//! [`ProxyFleet::execute_query_ft`] / [`ProxyFleet::execute_update_ft`]
//! take the same trip policy (link, retry schedule, queue snapshot) and
//! answer with the same outcomes (served or applied, degraded hits,
//! `Unavailable`, `Shed`), and the classic
//! [`ProxyFleet::execute_query`] / [`ProxyFleet::execute_update`] are
//! that pair at the neutral policy, promising an answer.
//!
//! Fanout is **batched and coalesced** ([`FanoutConfig`]): the home
//! side buffers notifications and ships an [`InvalidationBatch`] when
//! the buffer fills or a flush interval elapses; duplicate
//! invalidations for the same update content within a batch coalesce
//! to the latest-epoch representative. [`FanoutConfig::immediate`]
//! degenerates to one message per batch, and a single-proxy immediate
//! fleet over reliable pipes behaves exactly like a standalone proxy
//! (pinned by test).
//!
//! The fleet is **elastic**: [`ProxyFleet::add_replica`] and
//! [`ProxyFleet::remove_replica`] change membership under live load.
//! Every replica carries a *stable id* that is never reused, the
//! consistent-hash ring is keyed by those ids (so a membership change
//! remaps only the arcs the joining/leaving replica owns), and state
//! moves between replicas by cache handoff under the join/leave
//! protocol documented in [`crate::elastic`]. The home server tracks
//! registered pipes ([`HomeServer::register_pipe`]) so a joiner's
//! epoch cursor is pinned *before* it can receive traffic.
//!
//! Fault-tolerance semantics are per replica: each proxy tracks its
//! own epoch stream position, detects gaps independently (a dropped
//! batch flushes only the replica that missed it), recovers with its
//! own flush, and — when overload protection is configured — owns its
//! own circuit breaker and brownout state. Staleness anywhere
//! in the fleet stays bounded by the per-entry lease — across
//! membership changes too, because handed-off entries keep their
//! original lease windows — which the chaos property tests in
//! `tests/fleet.rs` and `tests/elastic.rs` verify against a
//! ground-truth oracle.

use crate::admission::QueueState;
use crate::delivery::{
    splitmix64, FtQueryResponse, FtUpdateOutcome, FtUpdateResponse, HomeLink, InvalidationBatch,
    InvalidationMsg, RetryPolicy,
};
use crate::elastic::{HandoffFault, JoinOutcome, LeaveOutcome};
use crate::home::{lock_provenance, HomeServer};
use crate::proxy::{Dssp, DsspConfig, QueryResponse, UpdateResponse};
use crate::replication::{CommitAck, FailoverRecord, HomeGroup, ReplicationConfig};
use crate::stats::DsspStats;
use scs_netsim::fault::{ChannelStats, FaultSpec, FaultyChannel};
use scs_sqlkit::{Query, Update};
use scs_storage::StorageError;
use scs_telemetry::{
    shared_audit, shared_provenance, FlushTrigger, MembershipKind, MembershipStamp, SharedAudit,
    SharedProvenance, SpanId, SpanPhase, SpanRecorder,
};
use std::collections::HashMap;

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
    /// The home server's epoch after this update (its notification is
    /// in the fanout buffer or in flight).
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
    /// Times a poisoned provenance lock was recovered on the fanout
    /// path (a panicking stamper elsewhere must not wedge the flush —
    /// the log is append-only stamps, so recovery is safe).
    pub poison_recovered: u64,
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
/// lifetime), the proxy itself, and its private delivery pipe. Keeping
/// the pipe *next to* its proxy — instead of in a parallel vector — is
/// what makes membership changes safe: a removed replica takes its
/// pipe with it, so `pump_all`/`drain` can never index a departed one.
struct Replica {
    id: usize,
    dssp: Dssp,
    pipe: FaultyChannel<InvalidationBatch>,
}

/// N proxies, one home server, a router in front and a fanout behind.
pub struct ProxyFleet {
    replicas: Vec<Replica>,
    /// Next stable id to assign; ids are never reused, even for joins
    /// that abort.
    next_id: usize,
    /// Kept for spawning joiners: same app id, hence the same tenant
    /// encryption key as the founding replicas.
    config: DsspConfig,
    /// The home tier. A plain fleet wraps its home server in a
    /// single-node [`HomeGroup`] (an exact passthrough);
    /// [`ProxyFleet::replicated`] builds a primary + standbys group
    /// that survives crashes via standby promotion.
    home: HomeGroup,
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
    /// Buffered notifications awaiting flush, ascending by epoch.
    pending: Vec<InvalidationMsg>,
    /// Sim time the oldest pending notification entered the buffer.
    pending_since: u64,
    now_micros: u64,
    batches: u64,
    msgs: u64,
    coalesced: u64,
    /// Bumped on every completed join/leave (not on aborted joins).
    membership_epoch: u64,
    /// Poisoned provenance locks recovered on the fanout path.
    prov_poison_recovered: u64,
    /// Buffered fanout notifications destroyed by a home-tier crash
    /// (crash mid-fanout-flush): their epochs surface to every replica
    /// as one stream gap, which the recovery flush absorbs.
    fanout_lost_on_crash: u64,
    /// Per-replica settings replayed onto joiners.
    lease: Option<u64>,
    span_capacity: Option<usize>,
    /// Fleet-layer span recorder: routing decisions and fanout flushes
    /// (replica-side spans live in each proxy's own recorder).
    spans: SpanRecorder,
    /// The freshness plane, when enabled: commit/flush/send/arrival
    /// stamps shared by the home server and every replica.
    prov: Option<SharedProvenance>,
    audit: Option<SharedAudit>,
}

impl ProxyFleet {
    /// Builds the fleet: each replica gets its own cache and telemetry
    /// from a clone of `config` (same app id, hence the same tenant
    /// encryption key), its own delivery pipe seeded independently, and
    /// a pipe registration at the home server.
    pub fn new(config: DsspConfig, home: HomeServer, fleet: FleetConfig) -> ProxyFleet {
        Self::with_home_group(config, HomeGroup::single(home), fleet)
    }

    /// Builds the fleet over a **replicated** home tier: the home
    /// server becomes the primary of a [`HomeGroup`] per `replication`
    /// (standbys seeded from its current state). Everything else is
    /// identical to [`ProxyFleet::new`] — the replication layer sits
    /// entirely behind the home surface.
    pub fn replicated(
        config: DsspConfig,
        home: HomeServer,
        fleet: FleetConfig,
        replication: ReplicationConfig,
    ) -> ProxyFleet {
        Self::with_home_group(config, HomeGroup::new(home, replication), fleet)
    }

    fn with_home_group(config: DsspConfig, mut home: HomeGroup, fleet: FleetConfig) -> ProxyFleet {
        assert!(fleet.proxies >= 1, "a fleet has at least one proxy");
        let mut replicas = Vec::with_capacity(fleet.proxies);
        for id in 0..fleet.proxies {
            let mut dssp = Dssp::new(config.clone());
            let joined_epoch = home.register_pipe(id);
            dssp.handshake(joined_epoch);
            replicas.push(Replica {
                id,
                dssp,
                pipe: FaultyChannel::new(fleet.pipe_seed ^ id as u64, fleet.pipe_spec.clone()),
            });
        }
        let ring = Self::build_ring(&(0..fleet.proxies).collect::<Vec<_>>());
        ProxyFleet {
            replicas,
            next_id: fleet.proxies,
            config,
            home,
            routing: fleet.routing,
            ring,
            fanout: fleet.fanout,
            pipe_spec: fleet.pipe_spec,
            pipe_seed: fleet.pipe_seed,
            rr_cursor: 0,
            pending: Vec::new(),
            pending_since: 0,
            now_micros: 0,
            batches: 0,
            msgs: 0,
            coalesced: 0,
            membership_epoch: 0,
            prov_poison_recovered: 0,
            fanout_lost_on_crash: 0,
            lease: None,
            span_capacity: None,
            spans: SpanRecorder::disabled(),
            prov: None,
            audit: None,
        }
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

    /// Turns on the freshness plane: one shared provenance log wired
    /// through the home server (commit stamps), the fanout layer
    /// (flush/send stamps), and every replica (arrival, invalidate,
    /// store, serve stamps). Joiners are registered into the same log.
    /// Returns the shared handle; also available later via
    /// [`ProxyFleet::provenance`].
    pub fn enable_provenance(&mut self) -> SharedProvenance {
        let prov = shared_provenance(self.next_id);
        self.home.attach_provenance(prov.clone());
        for r in &mut self.replicas {
            r.dssp.attach_provenance(prov.clone(), r.id);
        }
        self.prov = Some(prov.clone());
        prov
    }

    /// The freshness plane handle, if [`ProxyFleet::enable_provenance`]
    /// was called.
    pub fn provenance(&self) -> Option<&SharedProvenance> {
        self.prov.as_ref()
    }

    /// Turns on the leakage audit plane: one shared audit log wired
    /// through every replica (request-plane reveals, scan-time reveals,
    /// crypto metering). Joiners are registered into the same log.
    /// Returns the shared handle; also available later via
    /// [`ProxyFleet::audit`].
    pub fn enable_audit(&mut self) -> SharedAudit {
        let audit = shared_audit(self.next_id);
        for r in &mut self.replicas {
            r.dssp.attach_audit(audit.clone(), r.id);
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

    /// Journals a membership transition on the freshness plane (no-op
    /// without provenance).
    fn stamp_membership(
        &mut self,
        kind: MembershipKind,
        replica: usize,
        peer: Option<usize>,
        entries: u64,
    ) {
        let Some(prov) = self.prov.clone() else {
            return;
        };
        let stamp = MembershipStamp {
            kind,
            replica,
            peer,
            entries,
            at_micros: self.now_micros,
            home_epoch: self.home.epoch(),
        };
        lock_provenance(&prov, &mut self.prov_poison_recovered).note_membership(stamp);
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

    /// Completed membership changes (joins and leaves; aborted joins
    /// don't count).
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Stable ids of the live replicas, in membership order.
    pub fn replica_ids(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.id).collect()
    }

    /// Adds one replica with a clean handoff. See
    /// [`ProxyFleet::add_replica_faulted`].
    pub fn add_replica(&mut self) -> JoinOutcome {
        self.add_replica_faulted(HandoffFault::None)
    }

    /// Adds one replica under live load, optionally injecting a chaos
    /// fault into the handoff. The join protocol (documented in
    /// [`crate::elastic`]): register the pipe at the home server *first*
    /// so the epoch cursor is pinned, spawn the replica live-but-unrouted
    /// (it receives fanout, takes no traffic), warm it from the donors
    /// that currently own its ring arcs under the cursor-match rule,
    /// then swap the ring in one assignment.
    pub fn add_replica_faulted(&mut self, fault: HandoffFault) -> JoinOutcome {
        let id = self.next_id;
        self.next_id += 1;
        // 1. Register before ring entry: everything committed at or
        //    before `joined_epoch` is reflected in the state the joiner
        //    warms from; everything after arrives on its own pipe.
        let joined_epoch = self.home.register_pipe(id);
        let mut dssp = Dssp::new(self.config.clone());
        dssp.set_lease_micros(self.lease);
        dssp.set_sim_time_micros(self.now_micros);
        if let Some(cap) = self.span_capacity {
            dssp.enable_span_recording(cap);
        }
        dssp.handshake(joined_epoch);
        if let Some(prov) = self.prov.clone() {
            lock_provenance(&prov, &mut self.prov_poison_recovered).register_replica(id);
            dssp.attach_provenance(prov, id);
        }
        if let Some(audit) = self.audit.clone() {
            dssp.attach_audit(audit, id);
        }
        let pipe = FaultyChannel::new(self.pipe_seed ^ id as u64, self.pipe_spec.clone());
        // 2. Live but unrouted: from here the replica receives every
        //    fanout flush, but the ring doesn't know it yet.
        self.replicas.push(Replica { id, dssp, pipe });

        if fault == HandoffFault::CrashJoiner {
            // The joiner dies before warming completes: roll back. The
            // ring was never touched, so routing is byte-identical to
            // before the join started (the no-op-resize property).
            self.replicas.pop();
            self.home.unregister_pipe(id);
            self.stamp_membership(MembershipKind::AbortJoin, id, None, 0);
            return JoinOutcome {
                replica: id,
                joined_epoch,
                handed: 0,
                skipped: 0,
                aborted: true,
            };
        }

        // 3. Warm from predecessors: compute the post-join ring but do
        //    NOT install it yet. Each donor is pumped to its delivery
        //    horizon, then hands over the entries for arcs the joiner
        //    will own. The cursor-match rule — import only when the
        //    donor's epoch equals the joiner's — makes the staleness
        //    argument airtight: a matched donor has applied exactly the
        //    invalidations the joiner's cursor covers, so a surviving
        //    entry is exactly as fresh at the joiner as it was at the
        //    donor. A mismatch costs cold misses, never staleness.
        let new_ring = Self::build_ring(&self.replica_ids());
        let donor_ids: Vec<usize> = self
            .replicas
            .iter()
            .map(|r| r.id)
            .filter(|&d| d != id)
            .collect();
        let mut handed = 0u64;
        let mut skipped = 0u64;
        let mut crash_pending = fault == HandoffFault::CrashDonor;
        for d in donor_ids {
            self.pump(d);
            let di = self.idx(d);
            let donor_epoch = self.replicas[di].dssp.epoch();
            let mut entries = self.replicas[di]
                .dssp
                .export_entries_where(|e| ring_route(&new_ring, e.key().template_id) == id);
            let exported = entries.len() as u64;
            if crash_pending {
                // The first donor crashes mid-handoff: half its export
                // is lost in transit and the donor itself restarts cold
                // from the home epoch. The surviving half still carries
                // the donor's pre-crash epoch position.
                crash_pending = false;
                entries.truncate(entries.len() / 2);
                let epoch = self.home.epoch();
                self.replicas[di].dssp.restart(epoch);
            }
            if fault == HandoffFault::DropStream {
                entries.clear();
            }
            let ji = self.idx(id);
            let imported = if donor_epoch == self.replicas[ji].dssp.epoch() {
                self.replicas[ji].dssp.import_entries(entries) as u64
            } else {
                0
            };
            handed += imported;
            skipped += exported - imported;
            if exported > 0 {
                self.stamp_membership(MembershipKind::Handoff, d, Some(id), imported);
            }
        }

        // 4. Atomic cutover: one assignment, so no operation ever
        //    routes to a half-joined replica.
        self.ring = new_ring;
        self.membership_epoch += 1;
        let ji = self.idx(id);
        self.replicas[ji].dssp.note_join(joined_epoch, handed);
        self.stamp_membership(MembershipKind::Join, id, None, handed);
        JoinOutcome {
            replica: id,
            joined_epoch,
            handed,
            skipped,
            aborted: false,
        }
    }

    /// Removes the replica with stable id `id` under live load: drain
    /// its in-flight work, swap the ring, hand its cached entries to
    /// their new owners (cursor-match rule, as on join), then
    /// unregister its pipe after the final pump. Panics when `id` is
    /// not live or when it is the last replica.
    pub fn remove_replica(&mut self, id: usize) -> LeaveOutcome {
        assert!(
            self.replicas.len() >= 2,
            "cannot remove the last replica of a fleet"
        );
        let li = self.idx(id);
        // 1. Drain in-flight: ship the fanout buffer, deliver what is
        //    due everywhere, then pump the leaver's pipe to the very
        //    end (beyond due time — its pipe is about to vanish, so
        //    nothing may be left in flight toward it).
        self.flush_fanout();
        self.pump_all();
        let rest = self.replicas[li].pipe.drain();
        for batch in rest {
            self.replicas[li].dssp.apply_batch(&batch);
        }
        let final_epoch = self.replicas[li].dssp.epoch();

        // 2. Swap the ring first so successor arcs are computable; the
        //    leaver takes no more routed traffic from this point.
        let survivors: Vec<usize> = self
            .replicas
            .iter()
            .map(|r| r.id)
            .filter(|&r| r != id)
            .collect();
        self.ring = Self::build_ring(&survivors);
        self.membership_epoch += 1;

        // 3. Hand the leaver's entries to their new owners, grouped by
        //    successor, imported only on cursor match.
        let entries = self.replicas[li].dssp.export_entries_where(|_| true);
        let exported = entries.len() as u64;
        let mut by_successor: HashMap<usize, Vec<_>> = HashMap::new();
        for e in entries {
            by_successor
                .entry(ring_route(&self.ring, e.key().template_id))
                .or_default()
                .push(e);
        }
        let mut handed = 0u64;
        let mut successors: Vec<usize> = by_successor.keys().copied().collect();
        successors.sort_unstable(); // deterministic handoff order
        for s in successors {
            let batch = by_successor.remove(&s).expect("key from the map itself");
            let count = batch.len() as u64;
            let si = self.idx(s);
            let imported = if self.replicas[si].dssp.epoch() == final_epoch {
                self.replicas[si].dssp.import_entries(batch) as u64
            } else {
                0
            };
            handed += imported;
            if count > 0 {
                self.stamp_membership(MembershipKind::Handoff, id, Some(s), imported);
            }
        }
        let skipped = exported - handed;

        // 4. Final unregistration: the pipe was drained above, so the
        //    conservation ledger shows nothing in flight toward the
        //    departed replica, and no future flush will address it.
        let li = self.idx(id);
        self.replicas[li].dssp.note_leave(final_epoch, handed);
        self.stamp_membership(MembershipKind::Leave, id, None, handed);
        self.home.unregister_pipe(id);
        self.replicas.remove(li);
        LeaveOutcome {
            replica: id,
            final_epoch,
            handed,
            skipped,
        }
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
    /// home tier as a [`HomeGroup`], under the caller's trip policy — so
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
    /// over the home tier as a [`HomeGroup`]. `Unavailable` or `Shed`
    /// (master untouched) while the tier or the link is down or the
    /// replica's overload gate refuses; an applied write is replicated
    /// (the group's commit ack), its notification buffered for fanout,
    /// and whatever is already due delivered fleet-wide.
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
            FtUpdateOutcome::Applied { msg, .. } => {
                let msg = msg.clone();
                // Replicate before fanout: the ack (sync-quorum wait
                // included) reflects the write alone, not downstream
                // delivery work.
                let ack = self.home.commit(self.now_micros);
                self.offer(msg);
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

    /// Buffers a notification, flushing on the size trigger.
    fn offer(&mut self, msg: InvalidationMsg) {
        if self.pending.is_empty() {
            self.pending_since = self.now_micros;
        }
        self.pending.push(msg);
        if self.pending.len() >= self.fanout.max_batch {
            self.flush_fanout_with(FlushTrigger::Size);
        }
    }

    /// Coalesces and ships the pending buffer to every replica's pipe.
    /// Stamped on the freshness plane as an explicit drain.
    pub fn flush_fanout(&mut self) {
        self.flush_fanout_with(FlushTrigger::Drain);
    }

    fn flush_fanout_with(&mut self, trigger: FlushTrigger) {
        let msgs = std::mem::take(&mut self.pending);
        let Some(batch) = InvalidationBatch::coalesce(msgs) else {
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
        let prov = self.prov.clone();
        let batch_id = prov.as_ref().map(|prov| {
            lock_provenance(prov, &mut self.prov_poison_recovered).note_flush_on(
                0,
                batch.first_epoch,
                batch.last_epoch,
                batch.len() as u64,
                batch.coalesced,
                self.now_micros,
                trigger,
                batch.retained_payloads(),
            )
        });
        for r in &mut self.replicas {
            r.pipe.send(self.now_micros, batch.clone());
            if let (Some(prov), Some(bid)) = (&prov, batch_id) {
                lock_provenance(prov, &mut self.prov_poison_recovered).note_send(
                    r.id,
                    bid,
                    self.now_micros,
                );
            }
        }
        self.spans.close(root, timer);
    }

    /// Flushes the buffer if the oldest pending notification has waited
    /// out the configured interval.
    fn maybe_flush(&mut self) {
        if !self.pending.is_empty()
            && self.now_micros.saturating_sub(self.pending_since)
                >= self.fanout.flush_interval_micros
        {
            self.flush_fanout_with(FlushTrigger::Interval);
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
        for batch in due {
            if let BatchOutcome::Applied {
                scanned,
                invalidated,
                ..
            } = r.dssp.apply_batch(&batch)
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
        // The group tick heartbeats, ships WAL records, and — when the
        // primary has been silent past its lease — promotes a standby.
        // Promotion is invisible here: the group re-installs the pipe
        // registry and provenance on the new primary, and its barrier
        // epoch turns the lost tail into an ordinary stream gap.
        self.home.tick(micros);
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
            for batch in rest {
                self.replicas[i].dssp.apply_batch(&batch);
            }
        }
    }

    /// Crash + restart one replica: its cache is lost and its epoch
    /// re-handshakes from the home server (see [`Dssp::restart`]). The
    /// other replicas are untouched — recovery is independent.
    pub fn restart_proxy(&mut self, id: usize) {
        let epoch = self.home.epoch();
        let i = self.idx(id);
        self.replicas[i].dssp.restart(epoch);
    }

    /// Live replica count.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// The replica with stable id `id` (panics when not live).
    pub fn proxy(&self, id: usize) -> &Dssp {
        &self.replicas[self.idx(id)].dssp
    }

    pub fn proxy_mut(&mut self, id: usize) -> &mut Dssp {
        let i = self.idx(id);
        &mut self.replicas[i].dssp
    }

    /// The live home primary (panics while the tier is down — the
    /// fault-tolerant paths check [`HomeGroup::is_up`] first).
    pub fn home(&self) -> &HomeServer {
        self.home.primary()
    }

    pub fn home_mut(&mut self) -> &mut HomeServer {
        self.home.primary_mut()
    }

    /// The home tier as a replication group (single-node for fleets
    /// built with [`ProxyFleet::new`]).
    pub fn home_group(&self) -> &HomeGroup {
        &self.home
    }

    pub fn home_group_mut(&mut self) -> &mut HomeGroup {
        &mut self.home
    }

    /// Crashes the home primary (in-memory state lost, durable WAL
    /// survives). Buffered fanout notifications die with it — counted,
    /// and surfaced to every replica as one stream gap the recovery
    /// flush absorbs. The tier stays down until the group's lease
    /// expires and a standby promotes (advance the clock).
    pub fn crash_home(&mut self) {
        self.fanout_lost_on_crash += self.pending.len() as u64;
        self.pending.clear();
        self.home.crash_primary(self.now_micros);
    }

    /// Partitions the home primary away (the zombie scenario): same
    /// fleet-side effects as a crash, but the old primary keeps
    /// running on its stale term.
    pub fn partition_home(&mut self) {
        self.fanout_lost_on_crash += self.pending.len() as u64;
        self.pending.clear();
        self.home.partition_primary(self.now_micros);
    }

    /// Failovers the home tier has completed so far.
    pub fn home_failovers(&self) -> &[FailoverRecord] {
        self.home.failovers()
    }

    /// Buffered fanout notifications destroyed by home-tier crashes.
    pub fn fanout_lost_on_crash(&self) -> u64 {
        self.fanout_lost_on_crash
    }

    /// Notifications buffered but not yet shipped.
    pub fn pending_fanout(&self) -> usize {
        self.pending.len()
    }

    /// Fanout accounting, including per-pipe fault counters.
    pub fn fanout_stats(&self) -> FanoutStats {
        FanoutStats {
            batches: self.batches,
            msgs: self.msgs,
            coalesced: self.coalesced,
            poison_recovered: self.prov_poison_recovered,
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

    struct Fixture {
        fleet: ProxyFleet,
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

    impl Fixture {
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
        assert_eq!(f.fleet.pending_fanout(), 3);
        assert_eq!(f.fleet.total_cache_entries(), 2, "nothing delivered yet");
        // …the fourth (identical content again) fills the batch: one
        // flush, the three earlier duplicates coalesced away.
        f.update(0, vec![Value::Int(5), Value::Int(2)]);
        assert_eq!(f.fleet.pending_fanout(), 0);
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
        assert_eq!(f.fleet.pending_fanout(), 1);
        // Not due yet: 9ms later.
        f.fleet.set_sim_time_micros(10_000);
        assert_eq!(f.fleet.pending_fanout(), 1);
        // Due: the interval has elapsed since the message buffered.
        f.fleet.set_sim_time_micros(11_000);
        assert_eq!(f.fleet.pending_fanout(), 0);
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
            let home = f.fleet.home_mut();
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
        let msgs: Vec<InvalidationMsg> = (0..3)
            .map(|i| {
                let vu = Update::bind(
                    0,
                    f.updates[0].clone(),
                    vec![Value::Int(5 + i), Value::Int(1 + i)],
                )
                .unwrap();
                f.fleet.home_mut().apply_update(&vu).unwrap().1
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
        f.fleet.restart_proxy(1);
        assert_eq!(f.fleet.proxy(1).epoch(), f.fleet.home().epoch());
        assert_eq!(f.fleet.proxy(1).cache_len(), 0);
        // Replica 0 is untouched by its peer's crash.
        assert_eq!(f.fleet.proxy(0).epoch(), f.fleet.home().epoch());
    }

    #[test]
    fn join_warms_the_new_replica_and_keeps_entries_moving_not_copying() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(2, RoutingMode::HashByTemplate),
        );
        // Warm both templates (they may land on the same replica —
        // hash routing, not round robin).
        f.query(0, vec![Value::str("bear")]);
        f.query(1, vec![Value::Int(2)]);
        let before = f.fleet.total_cache_entries();
        assert_eq!(before, 2);
        let out = f.fleet.add_replica();
        assert!(!out.aborted);
        assert_eq!(out.replica, 2);
        assert_eq!(f.fleet.len(), 3);
        assert_eq!(f.fleet.membership_epoch(), 1);
        // Handoff moves entries, never duplicates them.
        assert_eq!(f.fleet.total_cache_entries(), before);
        assert_eq!(out.skipped, 0, "reliable fleet always cursor-matches");
        // Everything the joiner now owns was handed to it.
        let owned_by_joiner = f.fleet.proxy(2).cache_len() as u64;
        assert_eq!(out.handed, owned_by_joiner);
        // Queries for handed templates hit the joiner's warm cache.
        for tid in 0..2usize {
            if f.fleet.route_template(tid) == 2 {
                let resp = f.query(tid, vec![Value::Int(2)]);
                let _ = resp; // params differ per template; warmth is
                              // asserted via handed == cache_len above.
            }
        }
        // The joiner is a full fanout citizen: an update reaches it.
        f.update(0, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(f.fleet.proxy(2).epoch(), f.fleet.home().epoch());
    }

    #[test]
    fn leave_hands_entries_to_successors_and_frees_the_pipe() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(3, RoutingMode::HashByTemplate),
        );
        f.query(0, vec![Value::str("car")]);
        f.query(1, vec![Value::Int(1)]);
        let before = f.fleet.total_cache_entries();
        let victim = f.fleet.route_template(1);
        let out = f.fleet.remove_replica(victim);
        assert_eq!(out.replica, victim);
        assert_eq!(out.skipped, 0, "reliable fleet always cursor-matches");
        assert_eq!(f.fleet.len(), 2);
        assert!(!f.fleet.replica_ids().contains(&victim));
        // Entries moved to survivors, none lost.
        assert_eq!(f.fleet.total_cache_entries(), before);
        // The departed pipe is gone from the home registry and from
        // fanout: updates and pumps must not touch it.
        assert!(!f
            .fleet
            .home()
            .registered_pipes()
            .iter()
            .any(|p| p.replica == victim));
        f.update(0, vec![Value::Int(9), Value::Int(1)]);
        f.fleet.pump_all();
        f.fleet.drain();
        // And the template the victim owned routes to a live replica.
        let owner = f.fleet.route_template(1);
        assert!(f.fleet.replica_ids().contains(&owner));
    }

    #[test]
    fn aborted_join_leaves_routing_byte_identical() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(2, RoutingMode::HashByTemplate),
        );
        f.query(1, vec![Value::Int(2)]);
        let ring_before = f.fleet.ring().to_vec();
        let pipes_before = f.fleet.home().registered_pipes().to_vec();
        let out = f.fleet.add_replica_faulted(HandoffFault::CrashJoiner);
        assert!(out.aborted);
        assert_eq!(f.fleet.len(), 2);
        assert_eq!(f.fleet.ring(), &ring_before[..], "ring untouched");
        assert_eq!(f.fleet.home().registered_pipes(), &pipes_before[..]);
        assert_eq!(f.fleet.membership_epoch(), 0);
        // The aborted id is burned, never reused.
        let next = f.fleet.add_replica();
        assert_eq!(next.replica, 3);
    }

    #[test]
    fn stable_ids_survive_interleaved_joins_and_leaves() {
        let mut f = fixture(
            StrategyKind::ViewInspection,
            FleetConfig::reliable(2, RoutingMode::HashByTemplate),
        );
        let j = f.fleet.add_replica();
        assert_eq!(j.replica, 2);
        f.fleet.remove_replica(0);
        assert_eq!(f.fleet.replica_ids(), vec![1, 2]);
        // Operations keep working against the sparse id set.
        f.query(1, vec![Value::Int(2)]);
        f.update(0, vec![Value::Int(3), Value::Int(2)]);
        for id in f.fleet.replica_ids() {
            assert_eq!(f.fleet.proxy(id).epoch(), f.fleet.home().epoch());
        }
        // Round-trip another membership change and drain cleanly.
        let k = f.fleet.add_replica();
        assert_eq!(k.replica, 3);
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
        f.fleet.crash_home();
        ride_out_failover(&mut f, now);
        let fo = *f.fleet.home_failovers().last().unwrap();
        assert_eq!(fo.lost_records, 0, "everything had replicated");
        // The promoted home opened past the old tip; a restarting
        // proxy handshakes against the *new* stream position.
        f.fleet.restart_proxy(1);
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
        assert_eq!(f.fleet.pending_fanout(), 3);
        let mut now = 1_000;
        f.fleet.set_sim_time_micros(now);
        // Crash mid-fanout-flush: the buffered notifications die with
        // the primary (counted), their epochs become a stream gap.
        f.fleet.crash_home();
        assert_eq!(f.fleet.pending_fanout(), 0);
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
        f.fleet.crash_home();
        assert!(!f.fleet.home_group().is_up());
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
        assert!(f.fleet.home_group().is_up());
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
}
