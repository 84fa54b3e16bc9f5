//! Structured event tracing: every cache-relevant action in the DSSP
//! pipeline becomes a [`TraceEvent`] fanned out to pluggable sinks.
//!
//! Events carry numeric codes rather than domain enums so this crate
//! stays dependency-free: `exposure` is the rank of the exposure level
//! (0 = Blind, 1 = Template, 2 = Stmt, 3 = View; see
//! `scs_core::ExposureLevel::rank`) and `decision` is the strategy's
//! decision path (see `scs_dssp::DecisionPath`).

use crate::json::Json;

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
/// wall-clock micros when no simulation is driving), owning tenant, the
/// proxy replica within that tenant's fleet (0 for single-proxy
/// tenants), and the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub at_micros: u64,
    pub tenant: u32,
    /// Stable replica id within the tenant's fleet. u64 end-to-end:
    /// elastic membership never reuses ids, so the label must not
    /// truncate however long the fleet lives.
    pub proxy: u64,
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The JSON representation (schema documented in DESIGN.md §8, "Trace
    /// events").
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::from(self.seq)),
            ("at_us".to_string(), Json::from(self.at_micros)),
            ("tenant".to_string(), Json::from(self.tenant as u64)),
            ("proxy".to_string(), Json::from(self.proxy)),
            ("event".to_string(), Json::from(self.kind.name())),
        ];
        let mut push = |k: &str, v: u64| fields.push((k.to_string(), Json::from(v)));
        match self.kind {
            TraceEventKind::QueryHit {
                query_template,
                exposure,
            }
            | TraceEventKind::QueryMiss {
                query_template,
                exposure,
            } => {
                push("query_template", query_template as u64);
                push("exposure", exposure as u64);
            }
            TraceEventKind::UpdateApplied {
                update_template,
                exposure,
            } => {
                push("update_template", update_template as u64);
                push("exposure", exposure as u64);
            }
            TraceEventKind::EntryInvalidated {
                update_template,
                query_template,
                exposure,
                decision,
            } => {
                push("update_template", update_template as u64);
                push("query_template", query_template as u64);
                push("exposure", exposure as u64);
                push("decision", decision as u64);
            }
            TraceEventKind::EntryEvicted { query_template }
            | TraceEventKind::LeaseExpired { query_template }
            | TraceEventKind::DegradedServe { query_template } => {
                push("query_template", query_template as u64);
            }
            TraceEventKind::EpochGap { expected, got } => {
                push("expected", expected);
                push("got", got);
            }
            TraceEventKind::RecoveryFlush { flushed, mode } => {
                push("flushed", flushed);
                push("mode", mode as u64);
            }
            TraceEventKind::HomeRetry { attempt } => {
                push("attempt", attempt as u64);
            }
            TraceEventKind::HomeUnreachable { attempts } => {
                push("attempts", attempts as u64);
            }
            TraceEventKind::NodeRestart { epoch } => {
                push("epoch", epoch);
            }
            TraceEventKind::RequestShed {
                query_template,
                reason,
            } => {
                push("query_template", query_template as u64);
                push("reason", reason as u64);
            }
            TraceEventKind::BreakerTransition { from, to } => {
                push("from", from as u64);
                push("to", to as u64);
            }
            TraceEventKind::BrownoutMode { active } => {
                push("active", active as u64);
            }
            TraceEventKind::ReplicaJoin { epoch, handed }
            | TraceEventKind::ReplicaLeave { epoch, handed } => {
                push("epoch", epoch);
                push("handed", handed);
            }
        }
        Json::Obj(fields)
    }
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
    proxy: u64,
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

    /// Stamps every subsequent event with a fleet replica index. A
    /// tracer is owned by exactly one proxy, so this is set once at
    /// fleet construction rather than threaded through ~40 emit sites.
    pub fn set_proxy(&mut self, proxy: u64) {
        self.proxy = proxy;
    }

    pub fn proxy(&self) -> u64 {
        self.proxy
    }

    pub fn emit(&mut self, at_micros: u64, tenant: u32, kind: TraceEventKind) {
        let event = TraceEvent {
            seq: self.next_seq,
            at_micros,
            tenant,
            proxy: self.proxy,
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

    #[test]
    fn events_render_as_parseable_json() {
        let event = TraceEvent {
            seq: 7,
            at_micros: 1234,
            tenant: 2,
            proxy: 0,
            kind: TraceEventKind::EntryInvalidated {
                update_template: 3,
                query_template: 5,
                exposure: 2,
                decision: 1,
            },
        };
        let parsed = crate::json::Json::parse(&event.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("event").unwrap().as_str(),
            Some("entry_invalidated")
        );
        assert_eq!(parsed.get("update_template").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("seq").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn fault_events_render_their_fields() {
        let render = |kind: TraceEventKind| {
            TraceEvent {
                seq: 0,
                at_micros: 0,
                tenant: 0,
                proxy: 0,
                kind,
            }
            .to_json()
        };
        let gap = render(TraceEventKind::EpochGap {
            expected: 4,
            got: 7,
        });
        assert_eq!(gap.get("event").unwrap().as_str(), Some("epoch_gap"));
        assert_eq!(gap.get("expected").unwrap().as_u64(), Some(4));
        assert_eq!(gap.get("got").unwrap().as_u64(), Some(7));
        let flush = render(TraceEventKind::RecoveryFlush {
            flushed: 12,
            mode: 1,
        });
        assert_eq!(flush.get("flushed").unwrap().as_u64(), Some(12));
        assert_eq!(flush.get("mode").unwrap().as_u64(), Some(1));
        let lease = render(TraceEventKind::LeaseExpired { query_template: 3 });
        assert_eq!(lease.get("query_template").unwrap().as_u64(), Some(3));
        let retry = render(TraceEventKind::HomeRetry { attempt: 2 });
        assert_eq!(retry.get("attempt").unwrap().as_u64(), Some(2));
        let restart = render(TraceEventKind::NodeRestart { epoch: 9 });
        assert_eq!(restart.get("event").unwrap().as_str(), Some("node_restart"));
        assert_eq!(restart.get("epoch").unwrap().as_u64(), Some(9));
        let join = render(TraceEventKind::ReplicaJoin {
            epoch: 5,
            handed: 12,
        });
        assert_eq!(join.get("event").unwrap().as_str(), Some("replica_join"));
        assert_eq!(join.get("epoch").unwrap().as_u64(), Some(5));
        assert_eq!(join.get("handed").unwrap().as_u64(), Some(12));
        let leave = render(TraceEventKind::ReplicaLeave {
            epoch: 7,
            handed: 3,
        });
        assert_eq!(leave.get("event").unwrap().as_str(), Some("replica_leave"));
        assert_eq!(leave.get("handed").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn overload_events_render_their_fields() {
        let render = |kind: TraceEventKind| {
            TraceEvent {
                seq: 0,
                at_micros: 0,
                tenant: 0,
                proxy: 0,
                kind,
            }
            .to_json()
        };
        let shed = render(TraceEventKind::RequestShed {
            query_template: 4,
            reason: 2,
        });
        assert_eq!(shed.get("event").unwrap().as_str(), Some("request_shed"));
        assert_eq!(shed.get("query_template").unwrap().as_u64(), Some(4));
        assert_eq!(shed.get("reason").unwrap().as_u64(), Some(2));
        // Transition names encode the target state so the time-series
        // sink gives each kind its own counter curve.
        let open = render(TraceEventKind::BreakerTransition { from: 0, to: 1 });
        assert_eq!(open.get("event").unwrap().as_str(), Some("breaker_open"));
        assert_eq!(open.get("from").unwrap().as_u64(), Some(0));
        let half = render(TraceEventKind::BreakerTransition { from: 1, to: 2 });
        assert_eq!(
            half.get("event").unwrap().as_str(),
            Some("breaker_half_open")
        );
        let close = render(TraceEventKind::BreakerTransition { from: 2, to: 0 });
        assert_eq!(close.get("event").unwrap().as_str(), Some("breaker_close"));
        let enter = render(TraceEventKind::BrownoutMode { active: true });
        assert_eq!(enter.get("event").unwrap().as_str(), Some("brownout_enter"));
        assert_eq!(enter.get("active").unwrap().as_u64(), Some(1));
        let exit = render(TraceEventKind::BrownoutMode { active: false });
        assert_eq!(exit.get("event").unwrap().as_str(), Some("brownout_exit"));
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
            tracer.emit(i, 0, ev(0));
        }
        tracer.flush();
        assert_eq!(tracer.events_emitted(), 5);
        // Every sink sees every event, each stamped once.
        for out in [out_a, out_b] {
            let seqs: Vec<u64> = out.lock().unwrap().iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn tracer_stamps_proxy_replica_on_events() {
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);
        impl TraceSink for Shared {
            fn record(&mut self, event: &TraceEvent) {
                self.0.lock().unwrap().push(*event);
            }
        }
        let ring = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut tracer = Tracer::new();
        tracer.add_sink(Box::new(Shared(ring.clone())));
        tracer.emit(0, 0, ev(0));
        tracer.set_proxy(3);
        assert_eq!(tracer.proxy(), 3);
        tracer.emit(1, 0, ev(1));
        let events = ring.lock().unwrap();
        assert_eq!(events[0].proxy, 0, "default replica is 0");
        assert_eq!(events[1].proxy, 3, "set_proxy stamps later events");
        let json = events[1].to_json();
        assert_eq!(json.get("proxy").unwrap().as_u64(), Some(3));
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
            tracer.emit(i, 0, ev(0));
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
            tracer.emit(1, 0, ev(3));
            // No explicit flush: the buffered event must still land.
        }
        let written = out.lock().unwrap();
        assert_eq!(written.len(), 1);
        assert_eq!(written[0].kind.name(), "query_hit");
    }
}
