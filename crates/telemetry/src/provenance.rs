//! The freshness plane: invalidation provenance from home commit to
//! replica apply to cache serve.
//!
//! The DSSP pipeline's whole scalability/security tradeoff is mediated
//! by invalidation, yet counters alone cannot say *how long* an epoch
//! took to travel home → fanout batch → replica → entry kill, or how
//! stale any served hit actually was relative to master. This module is
//! the missing measurement substrate:
//!
//! * [`ProvenanceLog::note_commit_on`] stamps every invalidation epoch at
//!   birth (home commit, sim time, payload size);
//! * [`ProvenanceLog::note_flush_on`] / [`note_send`] stamp each fanout
//!   batch (epoch range, coalesce count, flush trigger) and its per-pipe
//!   sends;
//! * [`ProvenanceLog::note_arrival`] stamps each batch's fate at a
//!   replica (applied / duplicate / recovered-over) and feeds the
//!   per-replica **propagation-lag histogram** — commit time → the
//!   moment the replica first covered that epoch;
//! * [`ProvenanceLog::note_serve_on`] records, for every cache hit, the
//!   **staleness age at serve**: how long ago the oldest master commit
//!   this replica had not yet applied (and the entry does not already
//!   reflect) was committed. Fresh serves record age 0; stale serves are
//!   bucketed against the entry's lease.
//! * per-update-template **fanout amplification**: bytes shipped and
//!   scan work performed per logical update.
//!
//! On top, the `explain_*` methods walk the stamps backwards and answer
//! "why did request X miss / serve degraded / see value v at age t" as a
//! causal chain (commit → flush → deliver → apply → invalidate → miss),
//! cross-checkable against the chaos harness' master-history oracle.
//!
//! All clocks are *simulated* microseconds supplied by the caller; the
//! log never reads wall time, so runs replay bit-for-bit. Ages and lags
//! are exact sample-by-sample; only the histograms bucket them.
//!
//! [`note_send`]: ProvenanceLog::note_send
//! [`note_arrival`]: ProvenanceLog::note_arrival

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A [`ProvenanceLog`] shared between the home server, the fanout layer,
/// and every replica of a fleet. Recording takes the mutex briefly; the
/// hot paths record a handful of integers per event.
pub type SharedProvenance = Arc<Mutex<ProvenanceLog>>;

/// Builds a shareable log for `replicas` proxies.
pub fn shared_provenance(replicas: usize) -> SharedProvenance {
    Arc::new(Mutex::new(ProvenanceLog::new(replicas)))
}

/// Cap on per-replica explain-event journals. Histograms and counters
/// are unbounded (constant space); the event journals exist for the
/// explain engine and stop growing here, counting overflow instead.
pub const EVENT_CAP: usize = 1 << 16;

/// What made the fanout layer cut a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The pending buffer reached `max_batch`.
    Size,
    /// The flush interval elapsed on a sim-clock advance.
    Interval,
    /// End-of-run drain.
    Drain,
    /// Unbatched single-message delivery (classic chaos channel).
    Inline,
}

impl FlushTrigger {
    pub fn name(&self) -> &'static str {
        match self {
            FlushTrigger::Size => "size",
            FlushTrigger::Interval => "interval",
            FlushTrigger::Drain => "drain",
            FlushTrigger::Inline => "inline",
        }
    }
}

/// An invalidation epoch's birth certificate: the home commit that
/// produced it. Epochs are scoped to an invalidation **stream**: a
/// classic single home commits everything on stream 0, while a sharded
/// home runs one independent dense epoch sequence per shard (stream id =
/// shard id), so the plane keys every stamp by `(stream, epoch)`.
#[derive(Debug, Clone)]
pub struct CommitStamp {
    /// Invalidation stream (shard) the epoch belongs to; 0 for the
    /// classic single-home stream.
    pub stream: u64,
    pub epoch: u64,
    pub update_template: usize,
    pub at_micros: u64,
    pub payload_bytes: u64,
}

/// One fanout batch: a contiguous epoch range on one stream, cut at
/// `at_micros`.
#[derive(Debug, Clone)]
pub struct BatchStamp {
    pub id: usize,
    /// Invalidation stream the batch's epoch range lives on.
    pub stream: u64,
    pub first_epoch: u64,
    pub last_epoch: u64,
    /// Messages retained after coalescing.
    pub msgs: u64,
    /// Messages merged away by coalescing.
    pub coalesced: u64,
    pub at_micros: u64,
    pub trigger: FlushTrigger,
    /// `(update_template, payload_bytes)` per retained message — the
    /// amplification accounting charges these per pipe send.
    pub retained: Vec<(usize, u64)>,
}

impl BatchStamp {
    /// Epochs the batch covers (coalescing shrinks `msgs`, not the span).
    pub fn span(&self) -> u64 {
        self.last_epoch - self.first_epoch + 1
    }
}

/// One copy of a batch offered to a replica's pipe.
#[derive(Debug, Clone, Copy)]
pub struct SendStamp {
    pub batch: usize,
    pub at_micros: u64,
}

/// How a delivered batch was disposed of at a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyKind {
    Applied { applied: u64, skipped: u64 },
    Duplicate,
    Recovered { flushed: u64 },
}

impl ApplyKind {
    pub fn name(&self) -> &'static str {
        match self {
            ApplyKind::Applied { .. } => "applied",
            ApplyKind::Duplicate => "duplicate",
            ApplyKind::Recovered { .. } => "recovered",
        }
    }
}

/// One batch delivery at a replica, with the epoch movement it caused.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalStamp {
    pub batch: usize,
    pub at_micros: u64,
    pub kind: ApplyKind,
    pub epoch_before: u64,
    pub epoch_after: u64,
}

/// A cache hit, with the staleness the freshness plane computed for it.
#[derive(Debug, Clone, Copy)]
pub struct ServeEvent {
    pub query_template: usize,
    pub at_micros: u64,
    /// `now - commit(oldest unapplied epoch the entry predates)`, 0 when
    /// the replica had applied everything the entry could be stale to.
    pub age_micros: u64,
    /// The oldest epoch the serve was stale against, if any.
    pub pending_epoch: Option<u64>,
    pub stored_at_micros: u64,
    pub within_lease: bool,
}

/// A cache store (miss fill), stamped with the home epoch it reflects.
#[derive(Debug, Clone, Copy)]
pub struct StoreEvent {
    pub query_template: usize,
    pub epoch: u64,
    pub at_micros: u64,
}

/// A cache miss (cold or post-invalidation) or lease expiry.
#[derive(Debug, Clone, Copy)]
pub struct MissEvent {
    pub query_template: usize,
    pub at_micros: u64,
    /// True when the miss was a lease expiry rather than an absent entry.
    pub expired: bool,
}

/// A hit served while the home link was down (brownout serving).
#[derive(Debug, Clone, Copy)]
pub struct DegradedEvent {
    pub query_template: usize,
    pub at_micros: u64,
}

/// One cache entry killed by an invalidation pass.
#[derive(Debug, Clone, Copy)]
pub struct InvalidateEvent {
    pub query_template: usize,
    pub update_template: usize,
    pub epoch: u64,
    pub at_micros: u64,
}

/// Everything the plane recorded about one replica.
#[derive(Debug, Clone, Default)]
pub struct ReplicaLog {
    pub sent: Vec<SendStamp>,
    pub arrivals: Vec<ArrivalStamp>,
    /// Commit → first-coverage lag per epoch (µs).
    pub lag: Histogram,
    /// Staleness age at serve per cache hit (µs; fresh hits record 0).
    pub stale_age: Histogram,
    pub serves: u64,
    pub fresh_serves: u64,
    pub stale_within_lease: u64,
    pub stale_beyond_lease: u64,
    serves_ev: Vec<ServeEvent>,
    stores: Vec<StoreEvent>,
    misses: Vec<MissEvent>,
    degraded: Vec<DegradedEvent>,
    invalidations: Vec<InvalidateEvent>,
    events_dropped: u64,
}

impl ReplicaLog {
    pub fn serve_events(&self) -> &[ServeEvent] {
        &self.serves_ev
    }
    pub fn miss_events(&self) -> &[MissEvent] {
        &self.misses
    }
    pub fn degraded_events(&self) -> &[DegradedEvent] {
        &self.degraded
    }
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }
}

/// Per-update-template fanout amplification: what one logical update
/// costs the fleet in bytes shipped and cache entries scanned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Amplification {
    pub updates: u64,
    pub commit_bytes: u64,
    /// Bytes shipped across all pipes (payload × pipes, post-coalesce).
    pub fanout_bytes: u64,
    /// Retained messages shipped across all pipes.
    pub fanout_msgs: u64,
    pub scanned: u64,
    pub invalidated: u64,
}

/// Conservation accounting for one replica, in epoch units: every epoch
/// of every batch copy offered to the replica's pipe lands in exactly
/// one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Epochs offered to the pipe (batch span × send count).
    pub sent: u64,
    /// Epochs first covered by applying a delivered batch.
    pub applied: u64,
    /// Epochs that arrived already covered (batch duplicates, overlap).
    pub duplicate: u64,
    /// Epochs whose batch copy never applied but which a gap-triggered
    /// recovery flush (or a later batch) covered anyway.
    pub recovered_over: u64,
    /// Epochs still in flight (or dropped) that nothing has covered.
    pub in_flight: u64,
}

impl Conservation {
    /// The conservation invariant: nothing is lost or double-counted.
    pub fn balanced(&self) -> bool {
        self.sent == self.applied + self.duplicate + self.recovered_over + self.in_flight
    }
}

/// A fleet-membership transition, stamped on the freshness plane so
/// conservation and staleness accounting can be cut at membership
/// epochs. `Handoff` stamps carry the peer (`Some(donor)` on a join,
/// `Some(successor)` on a leave) and the entry count that moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipKind {
    /// A replica registered its pipe, warmed, and entered the ring.
    Join,
    /// A replica drained, handed off, and unregistered its pipe.
    Leave,
    /// A join was rolled back before ring entry (joiner crash); the
    /// ring never changed and the pipe was unregistered.
    AbortJoin,
    /// A batch of cache entries moved between replicas during a
    /// membership transition.
    Handoff,
}

impl MembershipKind {
    pub fn name(&self) -> &'static str {
        match self {
            MembershipKind::Join => "join",
            MembershipKind::Leave => "leave",
            MembershipKind::AbortJoin => "abort_join",
            MembershipKind::Handoff => "handoff",
        }
    }
}

/// One membership transition on the plane's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipStamp {
    pub kind: MembershipKind,
    /// The replica joining/leaving (or receiving, for `Handoff`).
    pub replica: usize,
    /// The other side of a `Handoff` (donor on join, successor on leave).
    pub peer: Option<usize>,
    /// Cache entries that moved (`Handoff`) or 0.
    pub entries: u64,
    pub at_micros: u64,
    /// Home update epoch at the transition.
    pub home_epoch: u64,
}

/// One home-tier failover on the plane's timeline: a standby promoted
/// over a dead (or partitioned-away) primary. The stamp carries the
/// full durability account — how many stream epochs the promotion
/// barrier skipped (`lost_records`) and how many of those had been
/// acked to a client (`lost_acked`, provably 0 under sync-quorum
/// replication) — so staleness and conservation anomalies around the
/// outage can be lined up against the failover that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverStamp {
    pub at_micros: u64,
    /// Node id of the primary that died.
    pub from_primary: usize,
    /// Node id of the promoted standby.
    pub to_primary: usize,
    /// Fencing term the new primary writes under.
    pub new_term: u64,
    /// The epoch the new primary opened with — the permanent stream
    /// gap proxies recover over.
    pub barrier_epoch: u64,
    /// Epochs the dead primary issued that never replicated.
    pub lost_records: u64,
    /// Of those, writes that had been acked to a client.
    pub lost_acked: u64,
    /// How long the tier was down before this promotion (µs).
    pub unavailable_micros: u64,
}

/// The freshness plane's event log. See the module docs for the model.
#[derive(Debug, Default)]
pub struct ProvenanceLog {
    commits: Vec<CommitStamp>,
    /// `(stream, epoch)` → index into `commits`.
    commit_index: HashMap<(u64, u64), usize>,
    /// Per-stream commit indices in append (= epoch) order, so staleness
    /// scans can binary-search one stream's dense sequence even when the
    /// global journal interleaves streams.
    stream_commits: HashMap<u64, Vec<usize>>,
    batches: Vec<BatchStamp>,
    /// `(stream, first_epoch)` → index into `batches`.
    batch_by_first: HashMap<(u64, u64), usize>,
    replicas: Vec<ReplicaLog>,
    amplification: Vec<Amplification>,
    membership: Vec<MembershipStamp>,
    failovers: Vec<FailoverStamp>,
}

impl ProvenanceLog {
    pub fn new(replicas: usize) -> ProvenanceLog {
        ProvenanceLog {
            replicas: vec![ReplicaLog::default(); replicas],
            ..ProvenanceLog::default()
        }
    }

    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Grows the per-replica logs to cover stable replica id `id` — an
    /// elastic fleet registers each joiner here before any stamp can
    /// name it. Ids already covered are a no-op; a departed replica's
    /// log is retained so conservation stays checkable across
    /// membership epochs.
    pub fn register_replica(&mut self, id: usize) {
        if self.replicas.len() <= id {
            self.replicas.resize_with(id + 1, ReplicaLog::default);
        }
    }

    /// Stamps a membership transition (join/leave/abort/handoff).
    pub fn note_membership(&mut self, stamp: MembershipStamp) {
        self.register_replica(stamp.replica);
        self.membership.push(stamp);
    }

    /// The membership timeline, in stamp order.
    pub fn membership(&self) -> &[MembershipStamp] {
        &self.membership
    }

    /// Stamps a home-tier failover (standby promotion).
    pub fn note_failover(&mut self, stamp: FailoverStamp) {
        self.failovers.push(stamp);
    }

    /// The failover timeline, in stamp order.
    pub fn failovers(&self) -> &[FailoverStamp] {
        &self.failovers
    }

    pub fn replica(&self, r: usize) -> &ReplicaLog {
        &self.replicas[r]
    }

    pub fn commits(&self) -> &[CommitStamp] {
        &self.commits
    }

    pub fn batches(&self) -> &[BatchStamp] {
        &self.batches
    }

    /// Per-update-template amplification rows (index = template id).
    pub fn amplification(&self) -> &[Amplification] {
        &self.amplification
    }

    /// Stamps an epoch at birth on invalidation stream `stream`: the home
    /// commit that produced it (a classic home commits on stream 0, a
    /// sharded home each shard's updates on its own stream).
    pub fn note_commit_on(
        &mut self,
        stream: u64,
        epoch: u64,
        update_template: usize,
        at: u64,
        bytes: u64,
    ) {
        let i = self.commits.len();
        self.commit_index.insert((stream, epoch), i);
        self.stream_commits.entry(stream).or_default().push(i);
        self.commits.push(CommitStamp {
            stream,
            epoch,
            update_template,
            at_micros: at,
            payload_bytes: bytes,
        });
        let amp = self.amp_mut(update_template);
        amp.updates += 1;
        amp.commit_bytes += bytes;
    }

    /// The invalidation streams that have committed at least one epoch,
    /// in ascending id order.
    pub fn streams(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self.stream_commits.keys().copied().collect();
        s.sort_unstable();
        s
    }

    /// The sim time `(stream, epoch)` was committed at the home, if
    /// stamped.
    pub fn commit_at_on(&self, stream: u64, epoch: u64) -> Option<u64> {
        self.commit_index
            .get(&(stream, epoch))
            .map(|&i| self.commits[i].at_micros)
    }

    fn commit(&self, epoch: u64) -> Option<&CommitStamp> {
        self.commit_index
            .get(&(0, epoch))
            .map(|&i| &self.commits[i])
    }

    /// Stamps a fanout batch of invalidation stream `stream` cut at `at`;
    /// returns its id. `retained` lists `(update_template, payload_bytes)`
    /// for each message that survived coalescing.
    #[allow(clippy::too_many_arguments)]
    pub fn note_flush_on(
        &mut self,
        stream: u64,
        first_epoch: u64,
        last_epoch: u64,
        msgs: u64,
        coalesced: u64,
        at: u64,
        trigger: FlushTrigger,
        retained: Vec<(usize, u64)>,
    ) -> usize {
        let id = self.batches.len();
        self.batch_by_first.insert((stream, first_epoch), id);
        self.batches.push(BatchStamp {
            id,
            stream,
            first_epoch,
            last_epoch,
            msgs,
            coalesced,
            at_micros: at,
            trigger,
            retained,
        });
        id
    }

    /// The batch covering `(stream, first_epoch)`, if stamped. Batches
    /// cover contiguous, disjoint epoch ranges per stream, so a batch's
    /// `first_epoch` identifies it within its stream — this is how the
    /// apply side, which only sees the wire format, finds the stamp.
    pub fn batch_for_epoch_on(&self, stream: u64, first_epoch: u64) -> Option<usize> {
        self.batch_by_first.get(&(stream, first_epoch)).copied()
    }

    /// Stamps one copy of `batch` offered to `replica`'s pipe, and
    /// charges the fanout amplification for the bytes shipped.
    pub fn note_send(&mut self, replica: usize, batch: usize, at: u64) {
        let retained = self.batches[batch].retained.clone();
        for (template, bytes) in retained {
            let amp = self.amp_mut(template);
            amp.fanout_bytes += bytes;
            amp.fanout_msgs += 1;
        }
        self.replicas[replica].sent.push(SendStamp {
            batch,
            at_micros: at,
        });
    }

    /// Stamps a batch delivery at `replica` and records propagation lag
    /// for every epoch the delivery newly covered: lag is `at` minus the
    /// epoch's commit time, whether coverage came from applying the
    /// message or from a gap-triggered recovery flush. The batch's
    /// stream is recorded on its flush stamp, so the epoch movement here
    /// is interpreted on that stream.
    #[allow(clippy::too_many_arguments)]
    pub fn note_arrival(
        &mut self,
        replica: usize,
        batch: usize,
        at: u64,
        kind: ApplyKind,
        epoch_before: u64,
        epoch_after: u64,
    ) {
        let stream = self.batches[batch].stream;
        for e in (epoch_before + 1)..=epoch_after {
            if let Some(commit_at) = self.commit_at_on(stream, e) {
                self.replicas[replica]
                    .lag
                    .record(at.saturating_sub(commit_at));
            }
        }
        self.replicas[replica].arrivals.push(ArrivalStamp {
            batch,
            at_micros: at,
            kind,
            epoch_before,
            epoch_after,
        });
    }

    /// Charges an invalidation pass' scan work to its update template.
    pub fn note_scan(&mut self, update_template: usize, scanned: u64, invalidated: u64) {
        let amp = self.amp_mut(update_template);
        amp.scanned += scanned;
        amp.invalidated += invalidated;
    }

    /// Records one cache entry killed by an invalidation pass.
    pub fn note_invalidate(
        &mut self,
        replica: usize,
        query_template: usize,
        update_template: usize,
        epoch: u64,
        at: u64,
    ) {
        let ev = InvalidateEvent {
            query_template,
            update_template,
            epoch,
            at_micros: at,
        };
        let r = &mut self.replicas[replica];
        push_capped(&mut r.invalidations, ev, &mut r.events_dropped);
    }

    /// Records a miss fill: the entry stored reflects home epoch `epoch`.
    pub fn note_store(&mut self, replica: usize, query_template: usize, epoch: u64, at: u64) {
        let ev = StoreEvent {
            query_template,
            epoch,
            at_micros: at,
        };
        let r = &mut self.replicas[replica];
        push_capped(&mut r.stores, ev, &mut r.events_dropped);
    }

    /// Records a cache miss (`expired` when it was a lease expiry).
    pub fn note_miss(&mut self, replica: usize, query_template: usize, at: u64, expired: bool) {
        let ev = MissEvent {
            query_template,
            at_micros: at,
            expired,
        };
        let r = &mut self.replicas[replica];
        push_capped(&mut r.misses, ev, &mut r.events_dropped);
    }

    /// Records a hit served while the home link was down.
    pub fn note_degraded(&mut self, replica: usize, query_template: usize, at: u64) {
        let ev = DegradedEvent {
            query_template,
            at_micros: at,
        };
        let r = &mut self.replicas[replica];
        push_capped(&mut r.degraded, ev, &mut r.events_dropped);
    }

    /// Records a cache hit and computes its staleness age on invalidation
    /// stream `stream`'s epoch axis: the time since the oldest master
    /// commit that (a) the replica had not yet applied
    /// (`epoch > replica_epoch`, the replica's cursor on `stream`), (b)
    /// the entry does not already reflect (`epoch > stored_epoch` and
    /// committed after the entry was fetched), and (c) had already
    /// happened at serve time. Age 0 means the serve was provably fresh
    /// with respect to everything the plane saw. A sharded replica stamps
    /// each serve against the stream that owns the entry's data.
    ///
    /// `expires_at == u64::MAX` means no lease; otherwise the age is
    /// bucketed against `expires_at - stored_at`.
    #[allow(clippy::too_many_arguments)]
    pub fn note_serve_on(
        &mut self,
        replica: usize,
        query_template: usize,
        stream: u64,
        replica_epoch: u64,
        stored_epoch: u64,
        stored_at: u64,
        expires_at: u64,
        at: u64,
    ) -> u64 {
        let floor = replica_epoch.max(stored_epoch);
        let mut pending: Option<(u64, u64)> = None; // (epoch, commit_at)
                                                    // A stream's commits are appended in epoch order; scan from the
                                                    // first epoch past the floor. Epoch numbering is dense per stream
                                                    // in every harness that attaches the plane, so the partition
                                                    // point is a binary search over the stream's index.
        let idxs = self
            .stream_commits
            .get(&stream)
            .map(|v| &v[..])
            .unwrap_or(&[]);
        let start = idxs.partition_point(|&i| self.commits[i].epoch <= floor);
        for &i in &idxs[start..] {
            let c = &self.commits[i];
            if c.at_micros > at {
                break;
            }
            if c.at_micros > stored_at {
                pending = Some((c.epoch, c.at_micros));
                break;
            }
        }
        let age = pending.map_or(0, |(_, t)| at.saturating_sub(t));
        let within = expires_at == u64::MAX || age <= expires_at.saturating_sub(stored_at);
        let r = &mut self.replicas[replica];
        r.stale_age.record(age);
        r.serves += 1;
        if age == 0 {
            r.fresh_serves += 1;
        } else if within {
            r.stale_within_lease += 1;
        } else {
            r.stale_beyond_lease += 1;
        }
        let ev = ServeEvent {
            query_template,
            at_micros: at,
            age_micros: age,
            pending_epoch: pending.map(|(e, _)| e),
            stored_at_micros: stored_at,
            within_lease: within,
        };
        push_capped(&mut r.serves_ev, ev, &mut r.events_dropped);
        age
    }

    fn amp_mut(&mut self, template: usize) -> &mut Amplification {
        if self.amplification.len() <= template {
            self.amplification
                .resize_with(template + 1, Amplification::default);
        }
        &mut self.amplification[template]
    }

    /// Classifies every epoch of every batch copy of invalidation stream
    /// `stream` offered to `replica` into the conservation buckets (see
    /// [`Conservation`]); a sharded fleet balances each shard's ledger
    /// independently. `final_epoch` is the replica's cursor on `stream`
    /// at accounting time: undrained copies whose range it already
    /// covers were recovered over; the rest are genuinely in flight.
    pub fn conservation_on(&self, replica: usize, stream: u64, final_epoch: u64) -> Conservation {
        let r = &self.replicas[replica];
        let mut sends: HashMap<usize, u64> = HashMap::new();
        for s in &r.sent {
            if self.batches[s.batch].stream == stream {
                *sends.entry(s.batch).or_insert(0) += 1;
            }
        }
        let mut arrivals: HashMap<usize, Vec<&ArrivalStamp>> = HashMap::new();
        for a in &r.arrivals {
            arrivals.entry(a.batch).or_default().push(a);
        }
        let mut c = Conservation::default();
        for (&batch, &copies) in &sends {
            let b = &self.batches[batch];
            let span = b.span();
            c.sent += span * copies;
            let arrived = arrivals.get(&batch).map_or(&[][..], |v| &v[..]);
            for i in 0..copies as usize {
                match arrived.get(i) {
                    Some(a) => match a.kind {
                        ApplyKind::Applied { .. } => {
                            // The first arrival moves the epoch to the
                            // batch's end; anything at or below the
                            // pre-arrival epoch was already covered.
                            let newly = a
                                .epoch_after
                                .saturating_sub(a.epoch_before.max(b.first_epoch - 1));
                            c.applied += newly.min(span);
                            c.duplicate += span - newly.min(span);
                        }
                        ApplyKind::Duplicate => c.duplicate += span,
                        ApplyKind::Recovered { .. } => c.recovered_over += span,
                    },
                    // This copy never arrived (dropped, or still queued).
                    None if final_epoch >= b.last_epoch => c.recovered_over += span,
                    None => c.in_flight += span,
                }
            }
        }
        c
    }

    /// Sums conservation across every stream that offered `replica` a
    /// batch copy, each stream cut at the replica's final covered epoch
    /// on that stream. Returns the totals plus whether **every**
    /// stream's ledger balanced individually (a stricter check than the
    /// summed totals balancing).
    pub fn conservation_all_streams(&self, replica: usize) -> (Conservation, bool) {
        let r = &self.replicas[replica];
        let mut finals: HashMap<u64, u64> = HashMap::new();
        for a in &r.arrivals {
            let s = self.batches[a.batch].stream;
            let e = finals.entry(s).or_insert(0);
            *e = (*e).max(a.epoch_after);
        }
        let mut streams: Vec<u64> = r
            .sent
            .iter()
            .map(|s| self.batches[s.batch].stream)
            .collect();
        streams.sort_unstable();
        streams.dedup();
        let mut total = Conservation::default();
        let mut balanced = true;
        for s in streams {
            let c = self.conservation_on(replica, s, finals.get(&s).copied().unwrap_or(0));
            total.sent += c.sent;
            total.applied += c.applied;
            total.duplicate += c.duplicate;
            total.recovered_over += c.recovered_over;
            total.in_flight += c.in_flight;
            balanced &= c.balanced();
        }
        (total, balanced)
    }

    /// Conservative single-number p99 of a replica's propagation lag.
    pub fn lag_p99(&self, replica: usize) -> u64 {
        self.replicas[replica].lag.quantile_upper(0.99).unwrap_or(0)
    }

    /// Conservative single-number p99 of a replica's stale-age-at-serve.
    pub fn stale_age_p99(&self, replica: usize) -> u64 {
        self.replicas[replica]
            .stale_age
            .quantile_upper(0.99)
            .unwrap_or(0)
    }

    /// Explains the latest cache hit of `query_template` on `replica` at
    /// or before `at`: the causal chain from the entry's store through
    /// the oldest commit the serve was stale against (commit → flush →
    /// send → serve). `None` if no such serve was journaled.
    pub fn explain_serve(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let r = &self.replicas[replica];
        let ev = last_before(
            &r.serves_ev,
            |e| (e.query_template, e.at_micros),
            query_template,
            at,
        )?;
        let mut chain = Vec::new();
        if let Some(store) = r
            .stores
            .iter()
            .rev()
            .find(|s| s.query_template == query_template && s.at_micros <= ev.at_micros)
        {
            chain.push(step(
                "stored",
                store.at_micros,
                [("epoch", store.epoch.into())],
            ));
        }
        if let Some(e) = ev.pending_epoch {
            self.push_epoch_chain(&mut chain, replica, e);
        }
        chain.push(step(
            "served",
            ev.at_micros,
            [
                ("age_us", ev.age_micros.into()),
                ("within_lease", ev.within_lease.into()),
                ("pending_epoch", ev.pending_epoch.into()),
            ],
        ));
        Some(Json::obj([
            ("kind", "serve".into()),
            ("replica", (replica as u64).into()),
            ("query_template", (query_template as u64).into()),
            ("at_micros", ev.at_micros.into()),
            ("age_micros", ev.age_micros.into()),
            ("chain", Json::from(chain)),
        ]))
    }

    /// Explains the latest miss of `query_template` on `replica` at or
    /// before `at`: the invalidation (or lease expiry) that evicted the
    /// entry, traced back to the commit and batch that caused it.
    pub fn explain_miss(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let r = &self.replicas[replica];
        let ev = last_before(
            &r.misses,
            |e| (e.query_template, e.at_micros),
            query_template,
            at,
        )?;
        let mut chain = Vec::new();
        let cause = r
            .invalidations
            .iter()
            .rev()
            .find(|i| i.query_template == query_template && i.at_micros <= ev.at_micros);
        if let Some(inv) = cause {
            self.push_epoch_chain(&mut chain, replica, inv.epoch);
            chain.push(step(
                "invalidated",
                inv.at_micros,
                [
                    ("epoch", inv.epoch.into()),
                    ("update_template", (inv.update_template as u64).into()),
                ],
            ));
        }
        chain.push(step(
            "missed",
            ev.at_micros,
            [(
                "cause",
                if ev.expired {
                    "lease_expired".into()
                } else if cause.is_some() {
                    "invalidated".into()
                } else {
                    "cold_or_evicted".into()
                },
            )],
        ));
        Some(Json::obj([
            ("kind", "miss".into()),
            ("replica", (replica as u64).into()),
            ("query_template", (query_template as u64).into()),
            ("at_micros", ev.at_micros.into()),
            ("expired", ev.expired.into()),
            ("chain", Json::from(chain)),
        ]))
    }

    /// Explains the latest degraded serve of `query_template` on
    /// `replica` at or before `at` (a hit served while the home link was
    /// down), including how stale the serve could have been.
    pub fn explain_degraded(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let r = &self.replicas[replica];
        let ev = last_before(
            &r.degraded,
            |e| (e.query_template, e.at_micros),
            query_template,
            at,
        )?;
        let mut chain = vec![step(
            "home_link_down",
            ev.at_micros,
            [("detail", "served from cache under outage".into())],
        )];
        if let Some(serve) = r
            .serves_ev
            .iter()
            .rev()
            .find(|s| s.query_template == query_template && s.at_micros <= ev.at_micros)
        {
            if let Some(e) = serve.pending_epoch {
                self.push_epoch_chain(&mut chain, replica, e);
            }
            chain.push(step(
                "served_degraded",
                serve.at_micros,
                [("age_us", serve.age_micros.into())],
            ));
        }
        Some(Json::obj([
            ("kind", "degraded".into()),
            ("replica", (replica as u64).into()),
            ("query_template", (query_template as u64).into()),
            ("at_micros", ev.at_micros.into()),
            ("chain", Json::from(chain)),
        ]))
    }

    /// Appends the commit → flush → send → arrival trail of epoch `e` as
    /// seen from `replica`.
    fn push_epoch_chain(&self, chain: &mut Vec<Json>, replica: usize, e: u64) {
        let Some(c) = self.commit(e) else { return };
        chain.push(step(
            "committed",
            c.at_micros,
            [
                ("epoch", c.epoch.into()),
                ("update_template", (c.update_template as u64).into()),
                ("payload_bytes", c.payload_bytes.into()),
            ],
        ));
        let Some(b) = self
            .batches
            .iter()
            .find(|b| b.stream == 0 && b.first_epoch <= e && e <= b.last_epoch)
        else {
            return;
        };
        chain.push(step(
            "flushed",
            b.at_micros,
            [
                ("batch", (b.id as u64).into()),
                ("epochs", Json::from(vec![b.first_epoch, b.last_epoch])),
                ("trigger", b.trigger.name().into()),
                ("coalesced", b.coalesced.into()),
            ],
        ));
        let r = &self.replicas[replica];
        if let Some(s) = r.sent.iter().find(|s| s.batch == b.id) {
            chain.push(step("sent", s.at_micros, [("batch", (b.id as u64).into())]));
        }
        if let Some(a) = r.arrivals.iter().find(|a| a.batch == b.id) {
            chain.push(step(
                "delivered",
                a.at_micros,
                [
                    ("batch", (b.id as u64).into()),
                    ("outcome", a.kind.name().into()),
                ],
            ));
        }
    }

    /// The whole plane as a report section: per-replica lag and
    /// stale-age histograms (full fidelity plus scalar p99s), serve
    /// accounting, conservation totals, and per-template amplification.
    pub fn summary_json(&self) -> Json {
        let replicas: Vec<Json> = (0..self.replicas.len())
            .map(|i| {
                let r = &self.replicas[i];
                let (c, balanced) = self.conservation_all_streams(i);
                Json::obj([
                    ("replica", (i as u64).into()),
                    ("sent_batches", (r.sent.len() as u64).into()),
                    ("arrivals", (r.arrivals.len() as u64).into()),
                    ("lag_p99_us", self.lag_p99(i).into()),
                    ("stale_age_p99_us", self.stale_age_p99(i).into()),
                    ("lag", r.lag.to_json()),
                    ("stale_age", r.stale_age.to_json()),
                    ("serves", r.serves.into()),
                    ("fresh_serves", r.fresh_serves.into()),
                    ("stale_within_lease", r.stale_within_lease.into()),
                    ("stale_beyond_lease", r.stale_beyond_lease.into()),
                    (
                        "conservation",
                        Json::obj([
                            ("sent", c.sent.into()),
                            ("applied", c.applied.into()),
                            ("duplicate", c.duplicate.into()),
                            ("recovered_over", c.recovered_over.into()),
                            ("in_flight", c.in_flight.into()),
                            ("balanced", balanced.into()),
                        ]),
                    ),
                    ("events_dropped", r.events_dropped.into()),
                ])
            })
            .collect();
        let amplification: Vec<Json> = self
            .amplification
            .iter()
            .enumerate()
            .filter(|(_, a)| a.updates > 0)
            .map(|(t, a)| {
                Json::obj([
                    ("update_template", (t as u64).into()),
                    ("updates", a.updates.into()),
                    ("commit_bytes", a.commit_bytes.into()),
                    ("fanout_bytes", a.fanout_bytes.into()),
                    ("fanout_msgs", a.fanout_msgs.into()),
                    ("scanned", a.scanned.into()),
                    ("invalidated", a.invalidated.into()),
                ])
            })
            .collect();
        let membership: Vec<Json> = self
            .membership
            .iter()
            .map(|m| {
                Json::obj([
                    ("kind", m.kind.name().into()),
                    ("replica", (m.replica as u64).into()),
                    ("peer", m.peer.map(|p| p as u64).into()),
                    ("entries", m.entries.into()),
                    ("at_micros", m.at_micros.into()),
                    ("home_epoch", m.home_epoch.into()),
                ])
            })
            .collect();
        let failovers: Vec<Json> = self
            .failovers
            .iter()
            .map(|f| {
                Json::obj([
                    ("at_micros", f.at_micros.into()),
                    ("from_primary", (f.from_primary as u64).into()),
                    ("to_primary", (f.to_primary as u64).into()),
                    ("new_term", f.new_term.into()),
                    ("barrier_epoch", f.barrier_epoch.into()),
                    ("lost_records", f.lost_records.into()),
                    ("lost_acked", f.lost_acked.into()),
                    ("unavailable_micros", f.unavailable_micros.into()),
                ])
            })
            .collect();
        Json::obj([
            ("commits", (self.commits.len() as u64).into()),
            ("streams", (self.stream_commits.len() as u64).into()),
            ("batches", (self.batches.len() as u64).into()),
            (
                "coalesced_total",
                self.batches.iter().map(|b| b.coalesced).sum::<u64>().into(),
            ),
            ("replicas", Json::from(replicas)),
            ("amplification", Json::from(amplification)),
            ("membership", Json::from(membership)),
            ("failovers", Json::from(failovers)),
        ])
    }
}

fn push_capped<T>(v: &mut Vec<T>, ev: T, dropped: &mut u64) {
    if v.len() < EVENT_CAP {
        v.push(ev);
    } else {
        *dropped += 1;
    }
}

fn step<const N: usize>(name: &str, at: u64, fields: [(&'static str, Json); N]) -> Json {
    let mut kv: Vec<(&'static str, Json)> = vec![("step", name.into()), ("at_micros", at.into())];
    kv.extend(fields);
    Json::obj(kv)
}

/// Latest event for `template` at or before `at` in an append-ordered
/// journal.
fn last_before<T>(
    events: &[T],
    key: impl Fn(&T) -> (usize, u64),
    template: usize,
    at: u64,
) -> Option<&T> {
    events.iter().rev().find(|e| {
        let (t, ev_at) = key(e);
        t == template && ev_at <= at
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_commit_to_first_coverage() {
        let mut log = ProvenanceLog::new(2);
        log.note_commit_on(0, 1, 0, 100, 32);
        log.note_commit_on(0, 2, 1, 200, 32);
        let retained = vec![(0, 32), (1, 32)];
        let b = log.note_flush_on(0, 1, 2, 2, 0, 250, FlushTrigger::Size, retained);
        log.note_send(0, b, 250);
        log.note_send(1, b, 250);
        log.note_arrival(
            0,
            b,
            300,
            ApplyKind::Applied {
                applied: 2,
                skipped: 0,
            },
            0,
            2,
        );
        log.note_arrival(
            1,
            b,
            900,
            ApplyKind::Applied {
                applied: 2,
                skipped: 0,
            },
            0,
            2,
        );
        let r0 = log.replica(0);
        assert_eq!(r0.lag.count, 2);
        assert_eq!(r0.lag.min, Some(100)); // epoch 2: 300 - 200
        assert_eq!(r0.lag.max, Some(200)); // epoch 1: 300 - 100
        assert_eq!(log.replica(1).lag.min, Some(700));
        // Amplification: each template's payload shipped once per pipe.
        assert_eq!(log.amplification()[0].fanout_bytes, 64);
        assert_eq!(log.amplification()[0].updates, 1);
    }

    #[test]
    fn duplicate_and_recovered_arrivals_record_no_lag() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 0, 100, 16);
        let b = log.note_flush_on(0, 1, 1, 1, 0, 110, FlushTrigger::Inline, vec![(0, 16)]);
        log.note_send(0, b, 110);
        log.note_send(0, b, 111);
        log.note_arrival(
            0,
            b,
            150,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            0,
            1,
        );
        log.note_arrival(0, b, 160, ApplyKind::Duplicate, 1, 1);
        assert_eq!(log.replica(0).lag.count, 1);
        let c = log.conservation_on(0, 0, 1);
        assert_eq!(
            c,
            Conservation {
                sent: 2,
                applied: 1,
                duplicate: 1,
                recovered_over: 0,
                in_flight: 0
            }
        );
        assert!(c.balanced());
    }

    #[test]
    fn conservation_classifies_drops_by_coverage() {
        let mut log = ProvenanceLog::new(1);
        for e in 1..=4 {
            log.note_commit_on(0, e, 0, e * 10, 8);
        }
        let b1 = log.note_flush_on(0, 1, 2, 2, 0, 25, FlushTrigger::Size, vec![(0, 8), (0, 8)]);
        let b2 = log.note_flush_on(0, 3, 3, 1, 0, 35, FlushTrigger::Size, vec![(0, 8)]);
        let b3 = log.note_flush_on(0, 4, 4, 1, 0, 45, FlushTrigger::Drain, vec![(0, 8)]);
        log.note_send(0, b1, 25);
        log.note_send(0, b2, 35);
        log.note_send(0, b3, 45);
        // b1 dropped; b2 arrives, gap-recovers over epochs 1..3; b3 never
        // arrives and nothing covers epoch 4.
        log.note_arrival(0, b2, 60, ApplyKind::Recovered { flushed: 5 }, 0, 3);
        let c = log.conservation_on(0, 0, 3);
        assert_eq!(c.sent, 4);
        assert_eq!(c.recovered_over, 3); // b1's two epochs + b2's own span
        assert_eq!(c.in_flight, 1); // b3
        assert_eq!(c.applied, 0);
        assert!(c.balanced());
        // Lag still recorded for epochs the recovery newly covered.
        assert_eq!(log.replica(0).lag.count, 3);
    }

    #[test]
    fn serve_age_is_zero_when_replica_caught_up() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 0, 100, 8);
        // Replica applied epoch 1; entry stored afterwards.
        let age = log.note_serve_on(0, 2, 0, 1, 1, 150, 150 + 1000, 400);
        assert_eq!(age, 0);
        assert_eq!(log.replica(0).fresh_serves, 1);
        assert_eq!(log.replica(0).stale_beyond_lease, 0);
    }

    #[test]
    fn serve_age_measures_oldest_unapplied_commit() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 0, 100, 8);
        log.note_commit_on(0, 2, 0, 300, 8);
        log.note_commit_on(0, 3, 0, 500, 8);
        // Entry stored at 200 (reflects epoch 1); replica stuck at 1.
        // Serve at 600: oldest unapplied commit after the store is epoch 2
        // at t=300 → age 300.
        let age = log.note_serve_on(0, 0, 0, 1, 1, 200, 200 + 1000, 600);
        assert_eq!(age, 300);
        let ev = log.replica(0).serve_events()[0];
        assert_eq!(ev.pending_epoch, Some(2));
        assert!(ev.within_lease);
        assert_eq!(log.replica(0).stale_within_lease, 1);
    }

    #[test]
    fn entry_stored_after_commit_is_not_stale_to_it() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 0, 100, 8);
        log.note_commit_on(0, 2, 0, 150, 8);
        // Entry fetched at 200 from the home (reflects both commits) even
        // though the replica has applied neither.
        let age = log.note_serve_on(0, 0, 0, 0, 0, 200, u64::MAX, 900);
        assert_eq!(age, 0);
    }

    #[test]
    fn explain_miss_walks_back_to_the_commit() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 3, 100, 8);
        let b = log.note_flush_on(0, 1, 1, 1, 0, 120, FlushTrigger::Interval, vec![(3, 8)]);
        log.note_send(0, b, 120);
        log.note_arrival(
            0,
            b,
            180,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            0,
            1,
        );
        log.note_invalidate(0, 7, 3, 1, 180);
        log.note_miss(0, 7, 250, false);
        let doc = log.explain_miss(0, 7, 300).unwrap();
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        let steps: Vec<&str> = chain
            .iter()
            .map(|s| s.get("step").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            steps,
            [
                "committed",
                "flushed",
                "sent",
                "delivered",
                "invalidated",
                "missed"
            ]
        );
        assert_eq!(chain[0].get("at_micros").unwrap().as_u64(), Some(100));
        assert_eq!(
            chain.last().unwrap().get("cause").unwrap().as_str(),
            Some("invalidated")
        );
    }

    #[test]
    fn explain_serve_reports_age_and_pending_epoch() {
        let mut log = ProvenanceLog::new(1);
        log.note_commit_on(0, 1, 0, 100, 8);
        log.note_store(0, 5, 0, 50);
        log.note_serve_on(0, 5, 0, 0, 0, 50, u64::MAX, 400);
        let doc = log.explain_serve(0, 5, 500).unwrap();
        assert_eq!(doc.get("age_micros").unwrap().as_u64(), Some(300));
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        let steps: Vec<&str> = chain
            .iter()
            .map(|s| s.get("step").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(steps, ["stored", "committed", "served"]);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut log = ProvenanceLog::new(2);
        log.note_commit_on(0, 1, 0, 100, 8);
        let b = log.note_flush_on(0, 1, 1, 1, 0, 110, FlushTrigger::Size, vec![(0, 8)]);
        log.note_send(0, b, 110);
        log.note_send(1, b, 110);
        log.note_arrival(
            0,
            b,
            150,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            0,
            1,
        );
        log.note_serve_on(0, 0, 0, 1, 1, 160, u64::MAX, 200);
        log.note_scan(0, 10, 2);
        let doc = log.summary_json();
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(parsed.get("commits").unwrap().as_u64(), Some(1));
        let r0 = parsed.get("replicas").unwrap().index(0).unwrap();
        assert_eq!(r0.get("serves").unwrap().as_u64(), Some(1));
        assert_eq!(
            r0.get("conservation")
                .unwrap()
                .get("balanced")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let amp = parsed.get("amplification").unwrap().index(0).unwrap();
        assert_eq!(amp.get("scanned").unwrap().as_u64(), Some(10));
        assert_eq!(amp.get("fanout_bytes").unwrap().as_u64(), Some(16));
    }

    #[test]
    fn membership_stamps_grow_the_replica_logs() {
        let mut log = ProvenanceLog::new(2);
        log.note_membership(MembershipStamp {
            kind: MembershipKind::Join,
            replica: 2,
            peer: None,
            entries: 0,
            at_micros: 500,
            home_epoch: 7,
        });
        // The joiner's log exists and can take stamps immediately.
        assert_eq!(log.replica_count(), 3);
        log.note_commit_on(0, 8, 0, 510, 8);
        let b = log.note_flush_on(0, 8, 8, 1, 0, 520, FlushTrigger::Inline, vec![(0, 8)]);
        log.note_send(2, b, 520);
        log.note_arrival(
            2,
            b,
            530,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            7,
            8,
        );
        let c = log.conservation_on(2, 0, 8);
        assert!(c.balanced());
        assert_eq!(c.applied, 1);
        // The timeline is in the summary.
        let doc = log.summary_json();
        let m = doc.get("membership").unwrap().index(0).unwrap();
        assert_eq!(m.get("kind").unwrap().as_str(), Some("join"));
        assert_eq!(m.get("home_epoch").unwrap().as_u64(), Some(7));
        // Registering an already-covered id is a no-op.
        log.register_replica(1);
        assert_eq!(log.replica_count(), 3);
    }

    #[test]
    fn failover_stamps_land_on_the_timeline_and_in_the_summary() {
        let mut log = ProvenanceLog::new(2);
        log.note_failover(FailoverStamp {
            at_micros: 90_000,
            from_primary: 0,
            to_primary: 2,
            new_term: 1,
            barrier_epoch: 41,
            lost_records: 3,
            lost_acked: 0,
            unavailable_micros: 50_000,
        });
        assert_eq!(log.failovers().len(), 1);
        assert_eq!(log.failovers()[0].barrier_epoch, 41);
        let doc = log.summary_json();
        let f = doc.get("failovers").unwrap().index(0).unwrap();
        assert_eq!(f.get("to_primary").unwrap().as_u64(), Some(2));
        assert_eq!(f.get("lost_records").unwrap().as_u64(), Some(3));
        assert_eq!(f.get("lost_acked").unwrap().as_u64(), Some(0));
        assert_eq!(f.get("unavailable_micros").unwrap().as_u64(), Some(50_000));
    }

    #[test]
    fn streams_are_independent_epoch_axes() {
        let mut log = ProvenanceLog::new(1);
        // The same epoch number on two streams names two distinct
        // commits.
        log.note_commit_on(0, 1, 0, 100, 8);
        log.note_commit_on(1, 1, 1, 120, 8);
        assert_eq!(log.commit_at_on(0, 1), Some(100));
        assert_eq!(log.commit_at_on(1, 1), Some(120));
        assert_eq!(log.streams(), vec![0, 1]);
        let b0 = log.note_flush_on(0, 1, 1, 1, 0, 130, FlushTrigger::Inline, vec![(0, 8)]);
        let b1 = log.note_flush_on(1, 1, 1, 1, 0, 135, FlushTrigger::Inline, vec![(1, 8)]);
        assert_eq!(log.batch_for_epoch_on(0, 1), Some(b0));
        assert_eq!(log.batch_for_epoch_on(1, 1), Some(b1));
        log.note_send(0, b0, 130);
        log.note_send(0, b1, 135);
        // Only stream 0's copy arrives; stream 1's stays in flight, and
        // each stream's ledger balances on its own axis.
        log.note_arrival(
            0,
            b0,
            150,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            0,
            1,
        );
        let c0 = log.conservation_on(0, 0, 1);
        assert_eq!((c0.applied, c0.in_flight), (1, 0));
        assert!(c0.balanced());
        let c1 = log.conservation_on(0, 1, 0);
        assert_eq!((c1.applied, c1.in_flight), (0, 1));
        assert!(c1.balanced());
        let (total, balanced) = log.conservation_all_streams(0);
        assert_eq!(total.sent, 2);
        assert!(balanced);
        // Lag for stream 0's epoch 1 measured against *its* commit time.
        assert_eq!(log.replica(0).lag.min, Some(50));
    }

    #[test]
    fn serve_staleness_is_scoped_to_the_entry_stream() {
        let mut log = ProvenanceLog::new(1);
        // Stream 1 commits; stream 0 stays quiet. An entry on stream 0
        // is provably fresh, while the same serve judged on stream 1's
        // axis is stale to that commit.
        log.note_commit_on(1, 1, 0, 100, 8);
        assert_eq!(log.note_serve_on(0, 0, 0, 0, 0, 50, u64::MAX, 900), 0);
        assert_eq!(log.note_serve_on(0, 0, 1, 0, 0, 50, u64::MAX, 900), 800);
    }

    #[test]
    fn event_journals_cap_and_count_overflow() {
        let mut log = ProvenanceLog::new(1);
        for i in 0..(EVENT_CAP as u64 + 10) {
            log.note_miss(0, 0, i, false);
        }
        assert_eq!(log.replica(0).miss_events().len(), EVENT_CAP);
        assert_eq!(log.replica(0).events_dropped(), 10);
    }
}
