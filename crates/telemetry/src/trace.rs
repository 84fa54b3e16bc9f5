//! Structured event tracing: every cache-relevant action in the DSSP
//! pipeline becomes a [`TraceEvent`] fanned out to pluggable sinks.
//!
//! Events carry numeric codes rather than domain enums so this crate
//! stays dependency-free: `exposure` is the rank of the exposure level
//! (0 = Blind, 1 = Template, 2 = Stmt, 3 = View; see
//! `scs_core::ExposureLevel::rank`) and `decision` is the strategy's
//! decision path (see `scs_dssp::DecisionPath`).

/// What happened. Template ids index the application's query/update
/// template tables (same indices the IPM uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A query was served from the proxy cache.
    QueryHit { query_template: u32, exposure: u8 },
    /// A query missed and was forwarded to the home server.
    QueryMiss { query_template: u32, exposure: u8 },
    /// An update was forwarded to the home server and applied.
    UpdateApplied { update_template: u32, exposure: u8 },
    /// An update invalidated one cached entry; `decision` records which
    /// inspection tier made the call.
    EntryInvalidated {
        update_template: u32,
        query_template: u32,
        exposure: u8,
        decision: u8,
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
    /// A cache hit was served while the home link was down (graceful
    /// degradation: within-lease entries keep serving).
    DegradedServe { query_template: u32 },
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
    /// A replica joined an elastic fleet: its fanout pipe is registered
    /// and its epoch cursor handshaken to `epoch`; `handed` entries were
    /// warmed over from predecessor replicas before it entered the ring.
    ReplicaJoin { epoch: u64, handed: u64 },
    /// A replica left an elastic fleet after draining: `handed` of its
    /// hot entries moved to the successor replicas, and its pipe was
    /// unregistered at home epoch `epoch`.
    ReplicaLeave { epoch: u64, handed: u64 },
}

impl TraceEventKind {
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::QueryHit { .. } => "query_hit",
            TraceEventKind::QueryMiss { .. } => "query_miss",
            TraceEventKind::UpdateApplied { .. } => "update_applied",
            TraceEventKind::EntryInvalidated { .. } => "entry_invalidated",
            TraceEventKind::EntryEvicted { .. } => "entry_evicted",
            TraceEventKind::EpochGap { .. } => "epoch_gap",
            TraceEventKind::RecoveryFlush { .. } => "recovery_flush",
            TraceEventKind::LeaseExpired { .. } => "lease_expired",
            TraceEventKind::HomeRetry { .. } => "home_retry",
            TraceEventKind::HomeUnreachable { .. } => "home_unreachable",
            TraceEventKind::DegradedServe { .. } => "degraded_serve",
            TraceEventKind::NodeRestart { .. } => "node_restart",
            TraceEventKind::RequestShed { .. } => "request_shed",
            // One name per target state: the TimeSeriesSink buckets by
            // event name, so open/half-open/close each get a curve.
            TraceEventKind::BreakerTransition { to: 1, .. } => "breaker_open",
            TraceEventKind::BreakerTransition { to: 2, .. } => "breaker_half_open",
            TraceEventKind::BreakerTransition { .. } => "breaker_close",
            TraceEventKind::BrownoutMode { active: true } => "brownout_enter",
            TraceEventKind::BrownoutMode { active: false } => "brownout_exit",
            TraceEventKind::ReplicaJoin { .. } => "replica_join",
            TraceEventKind::ReplicaLeave { .. } => "replica_leave",
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

    fn flush(&mut self) {}

    /// I/O errors swallowed so far (sinks must never fail the pipeline,
    /// but the loss has to be visible in exported telemetry).
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
        let event = TraceEvent {
            seq: self.next_seq,
            at_micros,
            kind,
        };
        self.next_seq += 1;
        for sink in &mut self.sinks {
            sink.record(&event);
        }
    }

    pub fn events_emitted(&self) -> u64 {
        self.next_seq
    }

    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    /// Swallowed I/O errors summed over every sink.
    pub fn write_errors(&self) -> u64 {
        self.sinks.iter().map(|s| s.write_errors()).sum()
    }

    /// Events accepted but no longer retained, summed over every sink.
    pub fn events_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.events_dropped()).sum()
    }
}

impl Drop for Tracer {
    /// Flush on drop so a buffering sink that was never explicitly
    /// flushed still writes its tail — a truncated trace must not
    /// silently pass tests.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> TraceEventKind {
        TraceEventKind::QueryHit {
            query_template: i,
            exposure: 1,
        }
    }

    /// The time-series curves key on event names: one per kind, and one
    /// per breaker target state and brownout direction.
    #[test]
    fn event_names_key_the_curves() {
        let names: Vec<&str> = [
            ev(0),
            TraceEventKind::EntryInvalidated {
                update_template: 3,
                query_template: 5,
                exposure: 2,
                decision: 1,
            },
            TraceEventKind::EpochGap {
                expected: 4,
                got: 7,
            },
            TraceEventKind::RequestShed {
                query_template: 4,
                reason: 2,
            },
            TraceEventKind::BreakerTransition { from: 0, to: 1 },
            TraceEventKind::BreakerTransition { from: 1, to: 2 },
            TraceEventKind::BreakerTransition { from: 2, to: 0 },
            TraceEventKind::BrownoutMode { active: true },
            TraceEventKind::BrownoutMode { active: false },
            TraceEventKind::ReplicaLeave {
                epoch: 7,
                handed: 3,
            },
        ]
        .iter()
        .map(TraceEventKind::name)
        .collect();
        assert_eq!(
            names,
            [
                "query_hit",
                "entry_invalidated",
                "epoch_gap",
                "request_shed",
                "breaker_open",
                "breaker_half_open",
                "breaker_close",
                "brownout_enter",
                "brownout_exit",
                "replica_leave",
            ]
        );
    }

    #[test]
    fn tracer_stamps_sequence_numbers() {
        let (a, b) = (Buffered::new(8, false), Buffered::new(8, false));
        let (out_a, out_b) = (a.out.clone(), b.out.clone());
        let mut tracer = Tracer::new();
        assert!(!tracer.is_active());
        tracer.add_sink(Box::new(a));
        tracer.add_sink(Box::new(b));
        assert!(tracer.is_active());
        for i in 0..5 {
            tracer.emit(i, ev(0));
        }
        tracer.flush();
        assert_eq!(tracer.events_emitted(), 5);
        // Every sink sees every event, each stamped once.
        for out in [out_a, out_b] {
            let seqs: Vec<u64> = out.lock().unwrap().iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    /// A sink that retains at most `cap` events, counting the rest as
    /// dropped, and buffers what it retains until a flush — which fails
    /// when `broken`, counting a write error.
    struct Buffered {
        cap: usize,
        pending: Vec<TraceEvent>,
        seen: u64,
        broken: bool,
        errors: u64,
        out: std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>,
    }

    impl Buffered {
        fn new(cap: usize, broken: bool) -> Buffered {
            Buffered {
                cap,
                pending: Vec::new(),
                seen: 0,
                broken,
                errors: 0,
                out: Default::default(),
            }
        }
    }

    impl TraceSink for Buffered {
        fn record(&mut self, event: &TraceEvent) {
            self.seen += 1;
            if self.pending.len() < self.cap {
                self.pending.push(*event);
            }
        }

        fn flush(&mut self) {
            if self.broken {
                self.errors += 1;
            } else {
                self.out.lock().unwrap().append(&mut self.pending);
            }
        }

        fn write_errors(&self) -> u64 {
            self.errors
        }

        fn events_dropped(&self) -> u64 {
            self.seen - self.seen.min(self.cap as u64)
        }
    }

    /// The health sums `trace_health_json` exports are sums over every
    /// attached sink.
    #[test]
    fn tracer_surfaces_sink_health() {
        let mut tracer = Tracer::new();
        tracer.add_sink(Box::new(Buffered::new(2, false)));
        tracer.add_sink(Box::new(Buffered::new(4, true)));
        tracer.add_sink(Box::new(Buffered::new(8, true)));
        for i in 0..5 {
            tracer.emit(i, ev(0));
        }
        assert_eq!(tracer.write_errors(), 0, "nothing flushed yet");
        tracer.flush();
        assert_eq!(tracer.write_errors(), 2, "one failed flush per broken sink");
        assert_eq!(tracer.events_dropped(), 3 + 1, "kept 2 and 4 of 5");
    }

    #[test]
    fn tracer_drop_flushes_its_sinks() {
        let sink = Buffered::new(8, false);
        let out = sink.out.clone();
        {
            let mut tracer = Tracer::new();
            tracer.add_sink(Box::new(sink));
            tracer.emit(1, ev(3));
            // No explicit flush: the buffered event must still land.
        }
        let written = out.lock().unwrap();
        assert_eq!(written.len(), 1);
        assert_eq!(written[0].kind.name(), "query_hit");
    }
}
