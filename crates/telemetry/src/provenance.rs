//! The freshness plane: invalidation provenance from home commit to
//! replica apply to cache serve.
//!
//! The DSSP pipeline's whole scalability/security tradeoff is mediated
//! by invalidation, yet counters alone cannot say *how long* an epoch
//! took to travel home → fanout batch → replica → entry kill, or how
//! stale any served hit actually was relative to master. This module is
//! that measurement, a pure [`Fold`] over the trace events the proxies
//! and the fleet already emit ([`ProvenanceLog::sink`] attaches it):
//!
//! * a commit (`UpdateApplied` with its `commit`, emitted by the proxy
//!   that forwarded the update) stamps an epoch at birth: stream, sim
//!   time, payload size;
//! * the fleet's `BatchFlushed` / `BatchMsg` / `BatchSent` stamp each
//!   fanout batch (epoch range, coalesce count, flush trigger) and its
//!   per-pipe sends;
//! * a replica's `BatchArrived` stamps each batch's fate (applied /
//!   duplicate / recovered-over) and feeds the per-replica
//!   **propagation-lag histogram** — commit time → the moment the
//!   replica first covered that epoch;
//! * a `QueryHit` records the **staleness age at serve**: how long ago
//!   the oldest master commit this replica had not yet applied (and the
//!   entry does not already reflect) was committed. Fresh serves record
//!   age 0; stale serves are bucketed against the entry's lease;
//! * per-update-template **fanout amplification**: bytes shipped and
//!   scan work (`InvalidationPass`) per logical update.
//!
//! Serves, fills, misses, link-down serves and invalidations stay in one
//! capped journal of events per replica, which the `explain_*` methods
//! walk backwards: "why did request X miss / serve degraded / see value
//! v at age t", as a causal chain on the entry's own stream.
//!
//! All clocks are *simulated* microseconds carried by the events, so runs
//! replay bit-for-bit; only the histograms bucket ages and lags.

use crate::hist::Histogram;
use crate::json::Json;
use crate::trace::{ApplyKind, Commit, FlushTrigger, Fold, PlaneSink, TraceEvent, TraceEventKind};
use crate::{lock, push_capped, step};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A [`ProvenanceLog`] shared between the fleet and every replica.
/// Folding takes the mutex briefly; each event folds a handful of
/// integers.
pub type SharedProvenance = Arc<Mutex<ProvenanceLog>>;

/// Builds a shareable log for `replicas` proxies.
pub fn shared_provenance(replicas: usize) -> SharedProvenance {
    Arc::new(Mutex::new(ProvenanceLog::new(replicas)))
}

/// An invalidation epoch's birth certificate: the home commit that
/// produced it. Epochs are scoped to an invalidation **stream**: a
/// classic single home commits everything on stream 0, while a sharded
/// home runs one independent dense epoch sequence per shard (stream id =
/// shard id), so the plane keys every stamp by `(stream, epoch)`.
#[derive(Debug, Clone)]
pub struct CommitStamp {
    pub stream: u64,
    pub epoch: u64,
    pub update_template: usize,
    pub at_micros: u64,
    pub payload_bytes: u64,
    /// Position in the log's fold order.
    seq: u64,
}

/// One fanout batch: a contiguous epoch range on one stream, cut at
/// `at_micros`.
#[derive(Debug, Clone)]
pub struct BatchStamp {
    pub id: usize,
    pub stream: u64,
    pub first_epoch: u64,
    pub last_epoch: u64,
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

/// One batch delivery at a replica, with the epoch movement it caused.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalStamp {
    pub batch: usize,
    pub at_micros: u64,
    pub kind: ApplyKind,
    pub epoch_before: u64,
    pub epoch_after: u64,
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
    /// The serves, fills, misses, link-down serves and invalidations
    /// `explain_*` walks, in fold order (each event's `seq` is its
    /// position in the log's fold order).
    journal: Vec<TraceEvent>,
    events_dropped: u64,
}

impl ReplicaLog {
    pub fn journal(&self) -> &[TraceEvent] {
        &self.journal
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
    /// Bytes shipped across all pipes (payload × pipes, post-coalesce).
    pub fanout_bytes: u64,
    pub scanned: u64,
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

/// How stale one cache hit was (see [`ProvenanceLog::staleness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// `now - commit(oldest unapplied epoch the entry predates)`, 0 when
    /// the replica had applied everything the entry could be stale to.
    pub age_micros: u64,
    /// The oldest epoch the serve was stale against, if any.
    pub pending_epoch: Option<u64>,
    pub within_lease: bool,
}

/// The freshness plane's log. See the module docs for the model.
#[derive(Debug, Default)]
pub struct ProvenanceLog {
    /// Events folded so far: the fold order journaled events and
    /// commits are stamped with.
    folded: u64,
    commits: Vec<CommitStamp>,
    /// `(stream, epoch)` → index into `commits`.
    commit_index: HashMap<(u64, u64), usize>,
    /// Per-stream commit indices in append (= epoch) order, so staleness
    /// scans can binary-search one stream's dense sequence even when the
    /// global journal interleaves streams.
    stream_commits: HashMap<u64, Vec<usize>>,
    batches: Vec<BatchStamp>,
    /// `(stream, first_epoch)` → index into `batches`: batches cover
    /// contiguous, disjoint epoch ranges per stream, so a batch's first
    /// epoch identifies it within its stream — which is all the apply
    /// side, seeing only the wire format, can name.
    batch_by_first: HashMap<(u64, u64), usize>,
    replicas: Vec<ReplicaLog>,
    amplification: Vec<Amplification>,
    /// `Membership` events, in fold order.
    membership: Vec<TraceEvent>,
    /// `Promotion` events, in fold order.
    failovers: Vec<TraceEvent>,
}

impl ProvenanceLog {
    pub fn new(replicas: usize) -> ProvenanceLog {
        ProvenanceLog {
            replicas: vec![ReplicaLog::default(); replicas],
            ..ProvenanceLog::default()
        }
    }

    /// The plane's attach point for what `replica` emits (the log grows
    /// to cover it). Events the fleet emits name their own replica, so
    /// its sink's id is never read.
    pub fn sink(log: &SharedProvenance, replica: usize) -> PlaneSink<ProvenanceLog> {
        lock(log).replica_mut(replica);
        PlaneSink::new(log, replica)
    }

    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Grows the per-replica logs to cover `id`: a joiner's first event
    /// can name it before anything else has; a departed replica's log is
    /// retained so conservation stays checkable across membership epochs.
    fn replica_mut(&mut self, id: usize) -> &mut ReplicaLog {
        if self.replicas.len() <= id {
            self.replicas.resize_with(id + 1, ReplicaLog::default);
        }
        &mut self.replicas[id]
    }

    pub fn replica(&self, r: usize) -> &ReplicaLog {
        &self.replicas[r]
    }

    /// The membership timeline (`Membership` events), in fold order.
    pub fn membership(&self) -> &[TraceEvent] {
        &self.membership
    }

    /// The failover timeline (`Promotion` events), in fold order.
    pub fn failovers(&self) -> &[TraceEvent] {
        &self.failovers
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

    fn amp_mut(&mut self, template: usize) -> &mut Amplification {
        if self.amplification.len() <= template {
            self.amplification
                .resize_with(template + 1, Amplification::default);
        }
        &mut self.amplification[template]
    }

    /// The sim time `(stream, epoch)` was committed at, if stamped.
    fn commit_at_on(&self, stream: u64, epoch: u64) -> Option<u64> {
        self.commit_index
            .get(&(stream, epoch))
            .map(|&i| self.commits[i].at_micros)
    }

    fn commit(&mut self, update_template: usize, c: Commit, seq: u64, at: u64) {
        let i = self.commits.len();
        self.commit_index.insert((c.stream, c.epoch), i);
        self.stream_commits.entry(c.stream).or_default().push(i);
        self.commits.push(CommitStamp {
            stream: c.stream,
            epoch: c.epoch,
            update_template,
            at_micros: at,
            payload_bytes: c.payload_bytes,
            seq,
        });
        self.amp_mut(update_template).updates += 1;
    }

    /// One copy of the batch at `(stream, first_epoch)` offered to `to`'s
    /// pipe: charged to the fanout amplification for the bytes shipped.
    fn send(&mut self, to: usize, stream: u64, first_epoch: u64, at: u64) {
        let Some(&batch) = self.batch_by_first.get(&(stream, first_epoch)) else {
            return;
        };
        for (template, bytes) in self.batches[batch].retained.clone() {
            self.amp_mut(template).fanout_bytes += bytes;
        }
        self.replica_mut(to).sent.push(SendStamp {
            batch,
            at_micros: at,
        });
    }

    /// A delivery at `replica`, recording propagation lag for every epoch
    /// it newly covered — `at` minus the epoch's commit time, whether
    /// coverage came from applying the message or from a gap-triggered
    /// recovery flush. Arrivals of batches the fleet never flushed (the
    /// perfect-delivery entry points) are skipped.
    fn arrival(&mut self, replica: usize, e: &TraceEvent) {
        let TraceEventKind::BatchArrived {
            stream,
            first_epoch,
            outcome,
            epoch_before,
            epoch_after,
        } = e.kind
        else {
            return;
        };
        let Some(&batch) = self.batch_by_first.get(&(stream, first_epoch)) else {
            return;
        };
        for epoch in (epoch_before + 1)..=epoch_after {
            if let Some(commit_at) = self.commit_at_on(stream, epoch) {
                let lag = e.at_micros.saturating_sub(commit_at);
                self.replica_mut(replica).lag.record(lag);
            }
        }
        self.replica_mut(replica).arrivals.push(ArrivalStamp {
            batch,
            at_micros: e.at_micros,
            kind: outcome,
            epoch_before,
            epoch_after,
        });
    }

    /// How stale the journaled cache hit `ev` was, on its entry's stream:
    /// the time since the oldest master commit that (a) the replica had
    /// not yet applied (past its cursor on that stream), (b) the entry
    /// does not already reflect (past its stored epoch, committed after
    /// it was fetched), and (c) had already happened — in sim time and in
    /// fold order — when it was served. Age 0 means the serve was
    /// provably fresh with respect to everything the plane saw. `None`
    /// for any other kind of event.
    pub fn staleness(&self, ev: &TraceEvent) -> Option<Staleness> {
        let TraceEventKind::QueryHit {
            stream,
            cursor,
            stored_epoch,
            stored_at,
            expires_at,
            ..
        } = ev.kind
        else {
            return None;
        };
        // A stream's commits are appended in epoch order, so the first
        // epoch past the floor is a binary search over its index.
        let floor = cursor.max(stored_epoch);
        let idxs = self
            .stream_commits
            .get(&stream)
            .map_or(&[][..], Vec::as_slice);
        let start = idxs.partition_point(|&i| self.commits[i].epoch <= floor);
        let pending = idxs[start..]
            .iter()
            .map(|&i| &self.commits[i])
            .take_while(|c| c.seq < ev.seq && c.at_micros <= ev.at_micros)
            .find(|c| c.at_micros > stored_at);
        let age = pending.map_or(0, |c| ev.at_micros.saturating_sub(c.at_micros));
        Some(Staleness {
            age_micros: age,
            pending_epoch: pending.map(|c| c.epoch),
            within_lease: expires_at == u64::MAX || age <= expires_at.saturating_sub(stored_at),
        })
    }

    fn serve(&mut self, replica: usize, e: TraceEvent) {
        let Some(s) = self.staleness(&e) else {
            return;
        };
        let r = self.replica_mut(replica);
        r.stale_age.record(s.age_micros);
        r.serves += 1;
        if s.age_micros == 0 {
            r.fresh_serves += 1;
        } else if s.within_lease {
            r.stale_within_lease += 1;
        } else {
            r.stale_beyond_lease += 1;
        }
        push_capped(&mut r.journal, e, &mut r.events_dropped);
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
                        ApplyKind::Applied => {
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
                        ApplyKind::Recovered => c.recovered_over += span,
                    },
                    // This copy never arrived (dropped, or still queued).
                    None if final_epoch >= b.last_epoch => c.recovered_over += span,
                    None => c.in_flight += span,
                }
            }
        }
        c
    }

    /// The latest journaled `name` event of `query_template` on
    /// `replica` at or before `at`.
    fn last_before(
        &self,
        replica: usize,
        at: u64,
        name: &str,
        query_template: usize,
    ) -> Option<&TraceEvent> {
        let journal = &self.replicas.get(replica)?.journal;
        journal.iter().rev().find(|e| {
            e.at_micros <= at
                && e.kind.name() == name
                && e.kind.query_template() == Some(query_template as u32)
        })
    }

    /// Explains the latest cache hit of `query_template` on `replica` at
    /// or before `at`: the causal chain from the entry's store through
    /// the oldest commit the serve was stale against (commit → flush →
    /// send → serve). `None` if no such serve was journaled.
    pub fn explain_serve(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let ev = self.last_before(replica, at, "query_hit", query_template)?;
        let s = self.staleness(ev)?;
        let mut chain = Vec::new();
        let stored = self.last_before(replica, ev.at_micros, "entry_stored", query_template);
        if let Some(&TraceEvent {
            at_micros,
            kind: TraceEventKind::EntryStored { epoch, .. },
            ..
        }) = stored
        {
            chain.push(step("stored", at_micros, [("epoch", epoch.into())]));
        }
        self.push_stale_serve(&mut chain, replica, ev, &s);
        chain.push(step(
            "served",
            ev.at_micros,
            [
                ("age_us", s.age_micros.into()),
                ("within_lease", s.within_lease.into()),
                ("pending_epoch", s.pending_epoch.into()),
            ],
        ));
        let age = ("age_micros", s.age_micros.into());
        Some(explained("serve", replica, ev, Some(age), chain))
    }

    /// Explains the latest miss of `query_template` on `replica` at or
    /// before `at`: the invalidation (or lease expiry) that evicted the
    /// entry, traced back to the commit and batch that caused it.
    pub fn explain_miss(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let ev = self.last_before(replica, at, "query_miss", query_template)?;
        let TraceEventKind::QueryMiss { expired, .. } = ev.kind else {
            return None;
        };
        let mut chain = Vec::new();
        let cause = self.last_before(replica, ev.at_micros, "entry_invalidated", query_template);
        if let Some(&TraceEvent {
            at_micros,
            kind:
                TraceEventKind::EntryInvalidated {
                    update_template,
                    stream,
                    epoch,
                    ..
                },
            ..
        }) = cause
        {
            self.push_epoch_chain(&mut chain, replica, stream, epoch);
            let fields = [
                ("epoch", epoch.into()),
                ("update_template", u64::from(update_template).into()),
            ];
            chain.push(step("invalidated", at_micros, fields));
        }
        let cause = match (expired, cause) {
            (true, _) => "lease_expired",
            (false, Some(_)) => "invalidated",
            (false, None) => "cold_or_evicted",
        };
        chain.push(step("missed", ev.at_micros, [("cause", cause.into())]));
        Some(explained(
            "miss",
            replica,
            ev,
            Some(("expired", expired.into())),
            chain,
        ))
    }

    /// Explains the latest hit of `query_template` served on `replica`
    /// while the home link was down, at or before `at`, including how
    /// stale the serve could have been.
    pub fn explain_degraded(&self, replica: usize, query_template: usize, at: u64) -> Option<Json> {
        let ev = self.last_before(replica, at, "degraded_serve", query_template)?;
        let detail = [("detail", "served from cache under outage".into())];
        let mut chain = vec![step("home_link_down", ev.at_micros, detail)];
        if let Some(serve) = self.last_before(replica, ev.at_micros, "query_hit", query_template) {
            let s = self.staleness(serve)?;
            self.push_stale_serve(&mut chain, replica, serve, &s);
            let age = [("age_us", s.age_micros.into())];
            chain.push(step("served_degraded", serve.at_micros, age));
        }
        Some(explained("degraded", replica, ev, None, chain))
    }

    /// Appends the trail of the commit the hit `serve` was stale against,
    /// on the entry's own stream.
    fn push_stale_serve(
        &self,
        chain: &mut Vec<Json>,
        replica: usize,
        serve: &TraceEvent,
        s: &Staleness,
    ) {
        if let (TraceEventKind::QueryHit { stream, .. }, Some(e)) = (serve.kind, s.pending_epoch) {
            self.push_epoch_chain(chain, replica, stream, e);
        }
    }

    /// Appends the commit → flush → send → arrival trail of `(stream, e)`
    /// as seen from `replica`.
    fn push_epoch_chain(&self, chain: &mut Vec<Json>, replica: usize, stream: u64, e: u64) {
        let Some(c) = self
            .commit_index
            .get(&(stream, e))
            .map(|&i| &self.commits[i])
        else {
            return;
        };
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
            .find(|b| b.stream == stream && b.first_epoch <= e && e <= b.last_epoch)
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
}

/// An `explain_*` answer: what was explained, where and when, `extra`,
/// and the causal chain.
fn explained(
    kind: &str,
    replica: usize,
    ev: &TraceEvent,
    extra: Option<(&'static str, Json)>,
    chain: Vec<Json>,
) -> Json {
    let query_template = ev.kind.query_template().map(u64::from);
    let mut kv = vec![
        ("kind", kind.into()),
        ("replica", (replica as u64).into()),
        ("query_template", query_template.into()),
        ("at_micros", ev.at_micros.into()),
    ];
    kv.extend(extra);
    kv.push(("chain", Json::from(chain)));
    Json::obj(kv)
}

impl Fold for ProvenanceLog {
    fn fold(&mut self, replica: usize, event: &TraceEvent) {
        use TraceEventKind as K;
        let e = TraceEvent {
            seq: self.folded,
            ..*event
        };
        self.folded += 1;
        let at = e.at_micros;
        match e.kind {
            K::UpdateApplied {
                update_template,
                commit: Some(c),
                ..
            } => self.commit(update_template as usize, c, e.seq, at),
            K::BatchFlushed {
                stream,
                first_epoch,
                last_epoch,
                coalesced,
                trigger,
            } => {
                let id = self.batches.len();
                self.batch_by_first.insert((stream, first_epoch), id);
                self.batches.push(BatchStamp {
                    id,
                    stream,
                    first_epoch,
                    last_epoch,
                    coalesced,
                    at_micros: at,
                    trigger,
                    retained: Vec::new(),
                });
            }
            K::BatchMsg {
                update_template,
                bytes,
            } => {
                if let Some(b) = self.batches.last_mut() {
                    b.retained.push((update_template as usize, bytes));
                }
            }
            K::BatchSent {
                replica: to,
                stream,
                first_epoch,
            } => self.send(to, stream, first_epoch, at),
            K::BatchArrived { .. } => self.arrival(replica, &e),
            K::InvalidationPass {
                update_template,
                scanned,
                ..
            } => self.amp_mut(update_template as usize).scanned += scanned,
            K::QueryHit { .. } => self.serve(replica, e),
            K::QueryMiss { .. }
            | K::EntryStored { .. }
            | K::EntryInvalidated { .. }
            | K::DegradedServe {
                link_down: true, ..
            } => {
                let r = self.replica_mut(replica);
                push_capped(&mut r.journal, e, &mut r.events_dropped);
            }
            K::Membership { replica: m, .. } => {
                self.replica_mut(m);
                self.membership.push(e);
            }
            K::Promotion { .. } => self.failovers.push(e),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MembershipKind, Tracer};
    use crate::EVENT_CAP;
    use TraceEventKind as K;

    /// Folds `kind` at `at` as replica `r` emitted it.
    fn fold(log: &mut ProvenanceLog, r: usize, at: u64, kind: TraceEventKind) {
        let e = TraceEvent {
            seq: 0,
            at_micros: at,
            kind,
        };
        log.fold(r, &e);
    }

    fn commit(stream: u64, epoch: u64, template: u32) -> TraceEventKind {
        let c = Commit {
            stream,
            epoch,
            payload_bytes: 8,
        };
        K::UpdateApplied {
            update_template: template,
            exposure: 3,
            commit: Some(c),
        }
    }

    /// Flushes a batch of `stream` covering `epochs` with one 8-byte
    /// message per retained template, and sends it to each of `to`.
    fn ship(
        log: &mut ProvenanceLog,
        stream: u64,
        epochs: (u64, u64),
        at: u64,
        retained: &[u32],
        to: &[usize],
    ) {
        let (first_epoch, last_epoch) = epochs;
        let trigger = FlushTrigger::Size;
        let flushed = K::BatchFlushed {
            stream,
            first_epoch,
            last_epoch,
            coalesced: 0,
            trigger,
        };
        fold(log, 0, at, flushed);
        for &update_template in retained {
            fold(
                log,
                0,
                at,
                K::BatchMsg {
                    update_template,
                    bytes: 8,
                },
            );
        }
        for &replica in to {
            let sent = K::BatchSent {
                replica,
                stream,
                first_epoch,
            };
            fold(log, 0, at, sent);
        }
    }

    /// An arrival on stream 0 of the batch starting at `first`.
    fn arrived(first: u64, outcome: ApplyKind, epochs: (u64, u64)) -> TraceEventKind {
        K::BatchArrived {
            stream: 0,
            first_epoch: first,
            outcome,
            epoch_before: epochs.0,
            epoch_after: epochs.1,
        }
    }

    const APPLIED: ApplyKind = ApplyKind::Applied;

    /// A hit of `qt` on `stream`: cursor, stored epoch and time, lease
    /// expiry.
    fn hit(
        qt: u32,
        stream: u64,
        cursor: u64,
        stored: (u64, u64),
        expires_at: u64,
    ) -> TraceEventKind {
        K::QueryHit {
            query_template: qt,
            exposure: 3,
            stream,
            cursor,
            stored_epoch: stored.0,
            stored_at: stored.1,
            expires_at,
        }
    }

    fn steps(doc: &Json) -> Vec<&str> {
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        chain
            .iter()
            .map(|s| s.get("step").unwrap().as_str().unwrap())
            .collect()
    }

    #[test]
    fn lag_is_commit_to_first_coverage() {
        let mut log = ProvenanceLog::new(2);
        fold(&mut log, 0, 100, commit(0, 1, 0));
        fold(&mut log, 0, 200, commit(0, 2, 1));
        ship(&mut log, 0, (1, 2), 250, &[0, 1], &[0, 1]);
        fold(&mut log, 0, 300, arrived(1, APPLIED, (0, 2)));
        fold(&mut log, 1, 900, arrived(1, APPLIED, (0, 2)));
        let r0 = log.replica(0);
        assert_eq!(r0.lag.count, 2);
        assert_eq!(r0.lag.min, Some(100)); // epoch 2: 300 - 200
        assert_eq!(r0.lag.max, Some(200)); // epoch 1: 300 - 100
        assert_eq!(log.replica(1).lag.min, Some(700));
        // Amplification: each template's payload shipped once per pipe.
        assert_eq!(log.amplification()[0].fanout_bytes, 16);
        assert_eq!(log.amplification()[0].updates, 1);
    }

    #[test]
    fn duplicate_arrivals_record_no_lag() {
        let mut log = ProvenanceLog::new(1);
        fold(&mut log, 0, 100, commit(0, 1, 0));
        ship(&mut log, 0, (1, 1), 110, &[0], &[0, 0]);
        fold(&mut log, 0, 150, arrived(1, APPLIED, (0, 1)));
        fold(&mut log, 0, 160, arrived(1, ApplyKind::Duplicate, (1, 1)));
        assert_eq!(log.replica(0).lag.count, 1);
        let c = log.conservation_on(0, 0, 1);
        assert_eq!((c.sent, c.applied, c.duplicate), (2, 1, 1));
        assert!(c.balanced());
    }

    #[test]
    fn conservation_classifies_drops_by_coverage() {
        let mut log = ProvenanceLog::new(1);
        for e in 1..=4 {
            fold(&mut log, 0, e * 10, commit(0, e, 0));
        }
        ship(&mut log, 0, (1, 2), 25, &[0, 0], &[0]);
        ship(&mut log, 0, (3, 3), 35, &[0], &[0]);
        ship(&mut log, 0, (4, 4), 45, &[0], &[0]);
        // Epochs 1–2 dropped; 3 arrives and gap-recovers over 1..3; 4
        // never arrives and nothing covers it.
        fold(&mut log, 0, 60, arrived(3, ApplyKind::Recovered, (0, 3)));
        let c = log.conservation_on(0, 0, 3);
        assert_eq!(c.sent, 4);
        assert_eq!(c.recovered_over, 3); // the dropped two epochs + 3's own
        assert_eq!(c.in_flight, 1); // epoch 4
        assert_eq!(c.applied, 0);
        assert!(c.balanced());
        // Lag is recorded for the epochs the recovery newly covered too.
        assert_eq!(log.replica(0).lag.count, 3);
    }

    /// The age at serve is the time since the oldest commit the replica
    /// had not applied and the entry does not reflect, judged against
    /// the entry's own lease.
    #[test]
    fn serve_age_is_the_oldest_commit_the_entry_missed() {
        let mut log = ProvenanceLog::new(1);
        for (e, at) in [(1, 100), (2, 300), (3, 500)] {
            fold(&mut log, 0, at, commit(0, e, 0));
        }
        // (cursor, stored epoch and time, lease expiry), age, pending.
        let cases = [
            ((3, (3, 550), u64::MAX), 0, None),      // caught up
            ((1, (1, 200), 1_200), 300, Some(2)),    // stuck at epoch 1
            ((0, (0, 320), u64::MAX), 100, Some(3)), // fetched after 1 and 2
            ((1, (1, 200), 450), 300, Some(2)),      // beyond its 250 µs lease
        ];
        for ((cursor, stored, expires_at), _, _) in cases {
            fold(&mut log, 0, 600, hit(0, 0, cursor, stored, expires_at));
        }
        let r = log.replica(0);
        for (e, (_, age, pending)) in r.journal().iter().zip(cases) {
            let s = log.staleness(e).unwrap();
            assert_eq!((s.age_micros, s.pending_epoch), (age, pending));
        }
        let split = (r.fresh_serves, r.stale_within_lease, r.stale_beyond_lease);
        assert_eq!(split, (1, 2, 1));
    }

    /// A journaled serve is explained against the commits the plane had
    /// folded when it was served, not against later ones at the same
    /// instant.
    #[test]
    fn staleness_is_judged_at_fold_time() {
        let mut log = ProvenanceLog::new(1);
        fold(&mut log, 0, 500, hit(0, 0, 0, (0, 200), u64::MAX));
        fold(&mut log, 0, 500, commit(0, 1, 0));
        let served = log.replica(0).journal()[0];
        assert_eq!(log.staleness(&served).unwrap().pending_epoch, None);
        let doc = log.explain_serve(0, 0, 500).unwrap();
        assert_eq!(doc.get("age_micros").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn explain_miss_walks_back_to_the_commit() {
        let mut log = ProvenanceLog::new(1);
        fold(&mut log, 0, 100, commit(0, 1, 3));
        ship(&mut log, 0, (1, 1), 120, &[3], &[0]);
        fold(&mut log, 0, 180, arrived(1, APPLIED, (0, 1)));
        let invalidated = K::EntryInvalidated {
            update_template: 3,
            query_template: 7,
            exposure: 3,
            decision: 0,
            stream: 0,
            epoch: 1,
        };
        fold(&mut log, 0, 180, invalidated);
        let miss = K::QueryMiss {
            query_template: 7,
            exposure: 3,
            expired: false,
        };
        fold(&mut log, 0, 250, miss);
        let doc = log.explain_miss(0, 7, 300).unwrap();
        let expect = [
            "committed",
            "flushed",
            "sent",
            "delivered",
            "invalidated",
            "missed",
        ];
        assert_eq!(steps(&doc), expect);
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        assert_eq!(chain[0].get("at_micros").unwrap().as_u64(), Some(100));
        let cause = chain[5].get("cause").unwrap().as_str();
        assert_eq!(cause, Some("invalidated"));
    }

    #[test]
    fn explain_serve_reports_age_and_pending_epoch() {
        let mut log = ProvenanceLog::new(1);
        fold(&mut log, 0, 100, commit(0, 1, 0));
        let stored = K::EntryStored {
            query_template: 5,
            stream: 0,
            epoch: 0,
        };
        fold(&mut log, 0, 50, stored);
        fold(&mut log, 0, 400, hit(5, 0, 0, (0, 50), u64::MAX));
        let doc = log.explain_serve(0, 5, 500).unwrap();
        assert_eq!(doc.get("age_micros").unwrap().as_u64(), Some(300));
        assert_eq!(steps(&doc), ["stored", "committed", "served"]);
    }

    #[test]
    fn membership_events_grow_the_replica_logs() {
        let mut log = ProvenanceLog::new(2);
        let join = K::Membership {
            kind: MembershipKind::Join,
            replica: 2,
            home_epoch: 7,
        };
        fold(&mut log, 0, 500, join);
        // The joiner's log exists and takes its sends at once.
        assert_eq!(log.replica_count(), 3);
        fold(&mut log, 0, 510, commit(0, 8, 0));
        ship(&mut log, 0, (8, 8), 520, &[0], &[2]);
        fold(&mut log, 2, 530, arrived(8, APPLIED, (7, 8)));
        let c = log.conservation_on(2, 0, 8);
        assert!(c.balanced() && c.applied == 1);
        assert_eq!(log.membership()[0].kind, join);
    }

    /// Commits and promotions fold through a log a panicking holder
    /// poisoned: the master write and the promotion have already
    /// happened, and telemetry must not wedge either.
    #[test]
    fn a_poisoned_log_still_stamps_commits_and_promotions() {
        let prov = shared_provenance(1);
        let mut tracer = Tracer::new();
        tracer.add_sink(Box::new(ProvenanceLog::sink(&prov, 0)));
        let poisoner = prov.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the provenance lock");
        })
        .join()
        .unwrap_err();
        assert!(prov.lock().is_err(), "lock is poisoned");
        tracer.emit(10, commit(0, 1, 0));
        let promotion = K::Promotion {
            from_primary: 0,
            to_primary: 2,
            barrier_epoch: 41,
        };
        tracer.emit(90_000, promotion);
        let log = lock(&prov);
        assert_eq!(log.commit_at_on(0, 1), Some(10));
        assert_eq!(log.failovers()[0].kind, promotion);
        assert_eq!(tracer.write_errors(), 2, "each recovery is counted");
    }

    #[test]
    fn streams_are_independent_epoch_axes() {
        let mut log = ProvenanceLog::new(1);
        // The same epoch number on two streams names two distinct
        // commits.
        fold(&mut log, 0, 100, commit(0, 1, 0));
        fold(&mut log, 0, 120, commit(1, 1, 1));
        assert_eq!(log.commit_at_on(0, 1), Some(100));
        assert_eq!(log.commit_at_on(1, 1), Some(120));
        ship(&mut log, 0, (1, 1), 130, &[0], &[0]);
        ship(&mut log, 1, (1, 1), 135, &[1], &[0]);
        // Only stream 0's copy arrives; stream 1's stays in flight, and
        // each stream's ledger balances on its own axis.
        fold(&mut log, 0, 150, arrived(1, APPLIED, (0, 1)));
        let c0 = log.conservation_on(0, 0, 1);
        assert_eq!((c0.applied, c0.in_flight, c0.balanced()), (1, 0, true));
        let c1 = log.conservation_on(0, 1, 0);
        assert_eq!((c1.applied, c1.in_flight, c1.balanced()), (0, 1, true));
        // Lag for stream 0's epoch 1 measured against *its* commit time.
        assert_eq!(log.replica(0).lag.min, Some(50));
        // Staleness too: the replica covered stream 0's epoch 1, not stream 1's.
        fold(&mut log, 0, 900, hit(0, 0, 1, (0, 50), u64::MAX));
        fold(&mut log, 0, 900, hit(0, 1, 0, (0, 50), u64::MAX));
        let journal = log.replica(0).journal();
        let ages: Vec<u64> = journal
            .iter()
            .map(|e| log.staleness(e).unwrap().age_micros)
            .collect();
        assert_eq!(ages, [0, 780]);
    }

    #[test]
    fn the_journal_caps_and_counts_overflow() {
        let mut log = ProvenanceLog::new(1);
        let miss = K::QueryMiss {
            query_template: 0,
            exposure: 3,
            expired: false,
        };
        for i in 0..(EVENT_CAP as u64 + 10) {
            fold(&mut log, 0, i, miss);
        }
        assert_eq!(log.replica(0).journal().len(), EVENT_CAP);
        assert_eq!(log.replica(0).events_dropped(), 10);
    }
}
