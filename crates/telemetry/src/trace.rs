//! Structured event tracing: every fact the DSSP pipeline and its fleet
//! establish becomes a [`TraceEvent`] fanned out to pluggable sinks. The
//! proxy's counters, the time-series curves, the freshness plane and the
//! leakage plane are all folds over this one stream ([`Fold`], attached
//! through a [`PlaneSink`]).
//!
//! Events carry codes and static strings rather than domain enums so this
//! crate stays dependency-free: `exposure` is the rank of the exposure
//! level (`scs_core::ExposureLevel::rank`), `decision` the strategy's
//! decision path (`scs_dssp::DecisionPath::code`), and a reveal names its
//! kind, path and level as `scs_core` spells them.

use std::sync::{Arc, Mutex};

/// What made the fanout layer cut a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The pending buffer reached `max_batch`.
    Size,
    /// The flush interval elapsed on a sim-clock advance.
    Interval,
    /// End-of-run drain.
    Drain,
}

impl FlushTrigger {
    pub fn name(&self) -> &'static str {
        match self {
            FlushTrigger::Size => "size",
            FlushTrigger::Interval => "interval",
            FlushTrigger::Drain => "drain",
        }
    }
}

/// How a delivered batch (or single notification) was disposed of at a
/// replica: applied, dropped as already covered, or covered by a
/// gap-triggered recovery flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyKind {
    Applied,
    Duplicate,
    Recovered,
}

impl ApplyKind {
    pub fn name(&self) -> &'static str {
        match self {
            ApplyKind::Applied => "applied",
            ApplyKind::Duplicate => "duplicate",
            ApplyKind::Recovered => "recovered",
        }
    }
}

/// A fleet-membership transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipKind {
    /// A replica handshook at the tips, registered its pipe, and
    /// entered the ring.
    Join,
    /// A replica drained, left the ring, and unregistered its pipe.
    Leave,
}

/// What one encryption-boundary crossing revealed: the taxonomy cell
/// (`kind` × `path` × `level`) plus its measured size. `pairs` counts the
/// aggregated (update, entry) inspections a scan-time reveal covers; a
/// request-plane reveal has `pairs = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevealStamp {
    /// Reveal kind: `"template_id"`, `"params"`, or `"view_rows"`
    /// (`scs_core::RevealKind::name`).
    pub kind: &'static str,
    /// The code path that read the plaintext: a decision path name
    /// (`"template"`, `"statement"`, `"view"`), or `"request"`,
    /// `"serve"`, `"fill"`.
    pub path: &'static str,
    /// Exposure level that admitted the reveal (`ExposureLevel::as_str`).
    pub level: &'static str,
    /// Plaintext bytes read.
    pub bytes: u64,
    /// Inspected pairs aggregated into this reveal.
    pub pairs: u64,
}

/// The home commit an applied update produced: the invalidation stream
/// that owns it, the epoch it took there, and the notification's nominal
/// wire size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    pub stream: u64,
    pub epoch: u64,
    pub payload_bytes: u64,
}

/// What happened. Template ids index the application's query/update
/// template tables (same indices the IPM uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A query was served from the proxy cache. The entry was filled on
    /// invalidation stream `stream` at `stored_epoch` and `stored_at`
    /// (µs), the serving replica's cursor on that stream is `cursor`, and
    /// the entry's lease runs out at `expires_at` (`u64::MAX`: no lease).
    QueryHit {
        query_template: u32,
        exposure: u8,
        stream: u64,
        cursor: u64,
        stored_epoch: u64,
        stored_at: u64,
        expires_at: u64,
    },
    /// A query missed and was forwarded to the home server; `expired`
    /// when its entry's lease ran out rather than the entry being absent.
    QueryMiss {
        query_template: u32,
        exposure: u8,
        expired: bool,
    },
    /// An update reached the home tier and got its verdict: `commit` is
    /// the epoch it took, `None` when the master refused it.
    UpdateApplied {
        update_template: u32,
        exposure: u8,
        commit: Option<Commit>,
    },
    /// An update at `(stream, epoch)` invalidated one cached entry;
    /// `decision` records which inspection tier made the call.
    EntryInvalidated {
        update_template: u32,
        query_template: u32,
        exposure: u8,
        decision: u8,
        stream: u64,
        epoch: u64,
    },
    /// A cached entry was evicted by capacity pressure.
    EntryEvicted { query_template: u32 },
    /// The invalidation stream skipped at least one epoch — a delivery
    /// failure (or an out-of-band master write) was detected.
    EpochGap { expected: u64, got: u64 },
    /// A detected gap triggered a recovery flush; `mode` is 0, the
    /// affected-templates flush (1 was a full-cache flush no proxy does
    /// any more; the field stays so exports keep their schema).
    RecoveryFlush { flushed: u64, mode: u8 },
    /// A cached entry's staleness lease ran out before any invalidation
    /// reached it; the entry was dropped at lookup time.
    LeaseExpired { query_template: u32 },
    /// A home-server trip failed and is being retried after backoff.
    HomeRetry { attempt: u8 },
    /// All retries for a home-server trip were exhausted.
    HomeUnreachable { attempts: u8 },
    /// A cache hit was served degraded: with the home link down
    /// (`link_down`; within-lease entries keep serving), or under
    /// brownout.
    DegradedServe {
        query_template: u32,
        link_down: bool,
    },
    /// The proxy crashed and restarted: cache cleared, epoch tracker
    /// re-synchronized to the home server's epoch.
    NodeRestart { epoch: u64 },
    /// Overload protection turned a request away. `reason` is the
    /// `ShedReason` code (0 = deadline admission, 1 = breaker open,
    /// 2 = brownout, 3 = bounded queue).
    RequestShed { query_template: u32, reason: u8 },
    /// The home-link circuit breaker changed state. `from`/`to` are
    /// `BreakerState` codes (0 = Closed, 1 = Open, 2 = HalfOpen); the
    /// event *name* carries the target state so each transition kind is
    /// its own time-series counter.
    BreakerTransition { from: u8, to: u8 },
    /// Brownout mode engaged (`active = true`) or released. While
    /// active, within-lease hits serve degraded and misses fast-reject.
    BrownoutMode { active: bool },
    /// A miss fill stored an entry reflecting `(stream, epoch)`.
    EntryStored {
        query_template: u32,
        stream: u64,
        epoch: u64,
    },
    /// An update's invalidation pass finished: pairs decided
    /// (`scanned`), entries the judge read (`inspected`).
    InvalidationPass {
        update_template: u32,
        scanned: u64,
        inspected: u64,
    },
    /// A notification or batch arrived at a replica on `stream`,
    /// identified by its first epoch, and moved the replica's cursor from
    /// `epoch_before` to `epoch_after`.
    BatchArrived {
        stream: u64,
        first_epoch: u64,
        outcome: ApplyKind,
        epoch_before: u64,
        epoch_after: u64,
    },
    /// The leakage plane's request root: a query, an update, or a
    /// delivered invalidation pass (`origin` `"apply"`) the proxy
    /// handled. The reveals after it chain to it.
    AuditRequest {
        is_update: bool,
        template: u32,
        origin: &'static str,
    },
    /// Plaintext the proxy read about `template`.
    Reveal {
        is_update: bool,
        template: u32,
        stamp: RevealStamp,
    },
    /// One parameter value seen in the clear (a stable hash).
    ParamValue {
        is_update: bool,
        template: u32,
        hash: u64,
    },
    /// One result field (a hash of its column name) read in the clear.
    FieldExposed { template: u32, hash: u64 },
    /// The fanout cut a batch covering `[first_epoch, last_epoch]` of
    /// `stream`; one [`TraceEventKind::BatchMsg`] per retained message
    /// follows it.
    BatchFlushed {
        stream: u64,
        first_epoch: u64,
        last_epoch: u64,
        coalesced: u64,
        trigger: FlushTrigger,
    },
    /// A message retained in the batch just flushed.
    BatchMsg { update_template: u32, bytes: u64 },
    /// One copy of the batch starting at `(stream, first_epoch)` offered
    /// to `replica`'s pipe.
    BatchSent {
        replica: usize,
        stream: u64,
        first_epoch: u64,
    },
    /// A fleet-membership transition at home epoch `home_epoch`.
    Membership {
        kind: MembershipKind,
        replica: usize,
        home_epoch: u64,
    },
    /// A standby was promoted over a dead (or partitioned-away) primary,
    /// opening the stream at `barrier_epoch`.
    Promotion {
        from_primary: usize,
        to_primary: usize,
        barrier_epoch: u64,
    },
}

impl TraceEventKind {
    pub fn name(&self) -> &'static str {
        use TraceEventKind as K;
        match self {
            K::QueryHit { .. } => "query_hit",
            K::QueryMiss { .. } => "query_miss",
            K::UpdateApplied { .. } => "update_applied",
            K::EntryInvalidated { .. } => "entry_invalidated",
            K::EntryEvicted { .. } => "entry_evicted",
            K::EpochGap { .. } => "epoch_gap",
            K::RecoveryFlush { .. } => "recovery_flush",
            K::LeaseExpired { .. } => "lease_expired",
            K::HomeRetry { .. } => "home_retry",
            K::HomeUnreachable { .. } => "home_unreachable",
            K::DegradedServe { .. } => "degraded_serve",
            K::NodeRestart { .. } => "node_restart",
            K::RequestShed { .. } => "request_shed",
            // One name per target state: the TimeSeriesSink buckets by
            // event name, so open/half-open/close each get a curve.
            K::BreakerTransition { to: 1, .. } => "breaker_open",
            K::BreakerTransition { to: 2, .. } => "breaker_half_open",
            K::BreakerTransition { .. } => "breaker_close",
            K::BrownoutMode { active: true } => "brownout_enter",
            K::BrownoutMode { active: false } => "brownout_exit",
            K::EntryStored { .. } => "entry_stored",
            K::InvalidationPass { .. } => "invalidation_pass",
            K::BatchArrived { .. } => "batch_arrived",
            K::AuditRequest { .. } => "audit_request",
            K::Reveal { .. } => "reveal",
            K::ParamValue { .. } => "param_value",
            K::FieldExposed { .. } => "field_exposed",
            K::BatchFlushed { .. } => "batch_flushed",
            K::BatchMsg { .. } => "batch_msg",
            K::BatchSent { .. } => "batch_sent",
            K::Membership { .. } => "membership",
            K::Promotion { .. } => "promotion",
        }
    }
}

impl TraceEventKind {
    /// The query template the event is about, if any.
    pub fn query_template(&self) -> Option<u32> {
        use TraceEventKind as K;
        match *self {
            K::QueryHit { query_template, .. }
            | K::QueryMiss { query_template, .. }
            | K::EntryInvalidated { query_template, .. }
            | K::EntryEvicted { query_template }
            | K::LeaseExpired { query_template }
            | K::DegradedServe { query_template, .. }
            | K::RequestShed { query_template, .. }
            | K::EntryStored { query_template, .. } => Some(query_template),
            _ => None,
        }
    }
}

/// One pipeline event: monotone sequence number, simulation clock (µs;
/// wall-clock micros when no simulation is driving), and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub at_micros: u64,
    pub kind: TraceEventKind,
}

/// A destination for trace events.
pub trait TraceSink {
    fn record(&mut self, event: &TraceEvent);

    /// Errors swallowed so far — failed writes, poisoned locks recovered
    /// (sinks must never fail the pipeline, but the loss has to be
    /// visible in exported telemetry).
    fn write_errors(&self) -> u64 {
        0
    }

    /// Events accepted but no longer retained (overwrites, capacity
    /// drops).
    fn events_dropped(&self) -> u64 {
        0
    }
}

/// Fan-out point: stamps events with a sequence number and delivers them
/// to every attached sink. With no sinks attached, [`Tracer::emit`] is a
/// branch and an increment.
#[derive(Default)]
pub struct Tracer {
    sinks: Vec<Box<dyn TraceSink>>,
    next_seq: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    pub fn emit(&mut self, at_micros: u64, kind: TraceEventKind) {
        if !self.sinks.is_empty() {
            let event = TraceEvent {
                seq: self.next_seq,
                at_micros,
                kind,
            };
            for sink in &mut self.sinks {
                sink.record(&event);
            }
        }
        self.next_seq += 1;
    }

    pub fn events_emitted(&self) -> u64 {
        self.next_seq
    }

    /// Swallowed errors summed over every sink.
    pub fn write_errors(&self) -> u64 {
        self.sinks.iter().map(|s| s.write_errors()).sum()
    }

    /// Events accepted but no longer retained, summed over every sink.
    pub fn events_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.events_dropped()).sum()
    }
}

/// A shared log that folds the trace events of many producers: what
/// `replica` emitted is `event`.
pub trait Fold {
    fn fold(&mut self, replica: usize, event: &TraceEvent);
}

/// The one attach point of a shared [`Fold`]: a [`TraceSink`] holding the
/// log and the producer's replica id. A lock poisoned by a panic
/// elsewhere is recovered — the logs only count and append, so they are
/// valid at every step, and a commit or a promotion must not wedge over
/// telemetry — and each recovery is counted as a swallowed error.
pub struct PlaneSink<P> {
    plane: Arc<Mutex<P>>,
    replica: usize,
    recovered: u64,
}

impl<P: Fold> PlaneSink<P> {
    pub fn new(plane: &Arc<Mutex<P>>, replica: usize) -> PlaneSink<P> {
        PlaneSink {
            plane: Arc::clone(plane),
            replica,
            recovered: 0,
        }
    }
}

impl<P: Fold> TraceSink for PlaneSink<P> {
    fn record(&mut self, event: &TraceEvent) {
        self.recovered += u64::from(self.plane.is_poisoned());
        crate::lock(&self.plane).fold(self.replica, event);
    }

    fn write_errors(&self) -> u64 {
        self.recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> TraceEventKind {
        TraceEventKind::EntryEvicted { query_template: i }
    }

    /// The time-series curves key on event names: one per kind, and one
    /// per breaker target state and brownout direction. Every kind is
    /// listed, so renaming one fails here before it silently renames an
    /// exported curve.
    #[test]
    fn event_names_key_the_curves() {
        use TraceEventKind as K;
        let stamp = RevealStamp {
            kind: "params",
            path: "request",
            level: "stmt",
            bytes: 4,
            pairs: 1,
        };
        let commit = Some(Commit {
            stream: 1,
            epoch: 9,
            payload_bytes: 16,
        });
        let kinds = [
            K::QueryHit {
                query_template: 2,
                exposure: 3,
                stream: 0,
                cursor: 5,
                stored_epoch: 4,
                stored_at: 10,
                expires_at: u64::MAX,
            },
            K::QueryMiss {
                query_template: 2,
                exposure: 3,
                expired: true,
            },
            K::UpdateApplied {
                update_template: 1,
                exposure: 3,
                commit,
            },
            K::EntryInvalidated {
                update_template: 3,
                query_template: 5,
                exposure: 2,
                decision: 1,
                stream: 0,
                epoch: 6,
            },
            ev(0),
            K::EpochGap {
                expected: 4,
                got: 7,
            },
            K::RecoveryFlush {
                flushed: 3,
                mode: 0,
            },
            K::LeaseExpired { query_template: 2 },
            K::HomeRetry { attempt: 1 },
            K::HomeUnreachable { attempts: 3 },
            K::DegradedServe {
                query_template: 2,
                link_down: true,
            },
            K::NodeRestart { epoch: 8 },
            K::RequestShed {
                query_template: 4,
                reason: 2,
            },
            K::BreakerTransition { from: 0, to: 1 },
            K::BreakerTransition { from: 1, to: 2 },
            K::BreakerTransition { from: 2, to: 0 },
            K::BrownoutMode { active: true },
            K::BrownoutMode { active: false },
            K::EntryStored {
                query_template: 2,
                stream: 0,
                epoch: 4,
            },
            K::InvalidationPass {
                update_template: 1,
                scanned: 12,
                inspected: 3,
            },
            K::BatchArrived {
                stream: 0,
                first_epoch: 5,
                outcome: ApplyKind::Recovered,
                epoch_before: 3,
                epoch_after: 6,
            },
            K::AuditRequest {
                is_update: false,
                template: 2,
                origin: "query",
            },
            K::Reveal {
                is_update: false,
                template: 2,
                stamp,
            },
            K::ParamValue {
                is_update: false,
                template: 2,
                hash: 77,
            },
            K::FieldExposed {
                template: 2,
                hash: 78,
            },
            K::BatchFlushed {
                stream: 0,
                first_epoch: 5,
                last_epoch: 6,
                coalesced: 1,
                trigger: FlushTrigger::Interval,
            },
            K::BatchMsg {
                update_template: 1,
                bytes: 16,
            },
            K::BatchSent {
                replica: 2,
                stream: 0,
                first_epoch: 5,
            },
            K::Membership {
                kind: MembershipKind::Join,
                replica: 3,
                home_epoch: 7,
            },
            K::Promotion {
                from_primary: 0,
                to_primary: 1,
                barrier_epoch: 9,
            },
        ];
        let names: Vec<&str> = kinds.iter().map(TraceEventKind::name).collect();
        let expect = [
            "query_hit",
            "query_miss",
            "update_applied",
            "entry_invalidated",
            "entry_evicted",
            "epoch_gap",
            "recovery_flush",
            "lease_expired",
            "home_retry",
            "home_unreachable",
            "degraded_serve",
            "node_restart",
            "request_shed",
            "breaker_open",
            "breaker_half_open",
            "breaker_close",
            "brownout_enter",
            "brownout_exit",
            "entry_stored",
            "invalidation_pass",
            "batch_arrived",
            "audit_request",
            "reveal",
            "param_value",
            "field_exposed",
            "batch_flushed",
            "batch_msg",
            "batch_sent",
            "membership",
            "promotion",
        ];
        assert_eq!(names, expect);
    }

    /// A sink that keeps at most `cap` events, counting the rest as
    /// dropped, and reports `errors` swallowed errors.
    #[derive(Default)]
    struct Capped {
        cap: usize,
        errors: u64,
        seen: u64,
        out: Arc<Mutex<Vec<TraceEvent>>>,
    }

    impl TraceSink for Capped {
        fn record(&mut self, event: &TraceEvent) {
            self.seen += 1;
            let mut out = self.out.lock().unwrap();
            if out.len() < self.cap {
                out.push(*event);
            }
        }

        fn write_errors(&self) -> u64 {
            self.errors
        }

        fn events_dropped(&self) -> u64 {
            self.seen - self.seen.min(self.cap as u64)
        }
    }

    #[test]
    fn tracer_stamps_sequence_numbers() {
        let sink = || Capped {
            cap: 8,
            ..Capped::default()
        };
        let (a, b) = (sink(), sink());
        let (out_a, out_b) = (a.out.clone(), b.out.clone());
        let mut tracer = Tracer::new();
        assert!(!tracer.is_active());
        tracer.add_sink(Box::new(a));
        tracer.add_sink(Box::new(b));
        assert!(tracer.is_active());
        for i in 0..5 {
            tracer.emit(i, ev(0));
        }
        assert_eq!(tracer.events_emitted(), 5);
        // Every sink sees every event, each stamped once.
        for out in [out_a, out_b] {
            let seqs: Vec<u64> = out.lock().unwrap().iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    /// The health sums `trace_health_json` exports are sums over every
    /// attached sink.
    #[test]
    fn tracer_surfaces_sink_health() {
        let mut tracer = Tracer::new();
        for (cap, errors) in [(2, 0), (4, 1), (8, 1)] {
            let sink = Capped {
                cap,
                errors,
                ..Capped::default()
            };
            tracer.add_sink(Box::new(sink));
        }
        for i in 0..5 {
            tracer.emit(i, ev(0));
        }
        assert_eq!(tracer.write_errors(), 2);
        assert_eq!(tracer.events_dropped(), 3 + 1, "kept 2 and 4 of 5");
    }
}
