//! The DSSP proxy node: answers queries from the cache, forwards misses to
//! the home server, routes updates through, and invalidates affected
//! cached results (Figure 2's pathways).
//!
//! There is one request pipeline, generic over the [`Home`] it trips to
//! (a [`crate::HomeServer`], a replicated [`crate::HomeGroup`], a
//! [`ShardedHome`]) and taking the trip policy as values — a
//! [`HomeLink`], a [`RetryPolicy`] and, for overload protection, the
//! caller's [`QueueState`] snapshot: [`Dssp::execute_query_ft`] and
//! [`Dssp::execute_update_ft`]. The neutral values (reliable link, no
//! retries, no queue) are the paper's behaviour, and
//! [`Dssp::execute_query`] / [`Dssp::execute_update`] are the pipeline at
//! exactly those, with the notification delivered straight back (DESIGN
//! §9 has the table).
//!
//! Delivery of invalidations is *epoched* (see [`crate::delivery`]): the
//! home stamps each applied update with a monotone sequence number on
//! the stream that owns it, and the proxy applies a notification only in
//! order on that stream's cursor ([`Dssp::apply_invalidation_from`],
//! [`Dssp::apply_batch_from`]; stream 0 is the classic single home). A
//! skipped epoch means a lost notification (or an out-of-band master
//! write) and triggers a recovery flush; staleness from failures that
//! produce no detectable gap is bounded by the per-entry lease.

use crate::admission::{
    AdmissionController, BreakerState, BreakerTransition, BrownoutController, CircuitBreaker,
    OverloadConfig, Overloaded, QueueState, ShedReason,
};
use crate::cache::{CacheKey, Lookup, ResultCache, ScanOutcome};
use crate::delivery::{
    splitmix64, BatchOutcome, DeliveryOutcome, FtOutcome, FtQueryResponse, FtUpdateOutcome,
    FtUpdateResponse, HomeLink, InvalidationBatch, InvalidationMsg, RetryPolicy,
};
use crate::home::Home;
use crate::sharded::ShardedHome;
use crate::stats::{DsspStats, Tally};
use crate::strategy::{decide, DecisionPath, UpdateView};
use scs_core::{request_reveals, ExposureLevel, Exposures, IpmMatrix, RevealKind};
use scs_crypto::{CryptoMeter, Encryptor};
use scs_sqlkit::{Query, Update, Value};
use scs_storage::{QueryResult, StorageError, UpdateEffect};
use scs_telemetry::{
    ApplyKind, MetricsSnapshot, RevealStamp, SharedAudit, SharedProvenance, SpanId, SpanPhase,
    SpanRecorder, TraceEventKind, TraceSink, Tracer,
};
use std::sync::Arc;

/// Wire size of a template identifier as the audit plane meters it: the
/// id itself plus framing, matching the cost model's fixed-key overhead.
const TEMPLATE_ID_BYTES: u64 = 8;

/// Scan-time leakage aggregation: (entry template, reveal kind, decision
/// path, entry level) -> (bytes, inspected pairs).
type ScanAgg =
    std::collections::BTreeMap<(usize, &'static str, &'static str, &'static str), (u64, u64)>;

/// Plaintext bytes a bound parameter value exposes when inspected in the
/// clear (mirrors [`QueryResult::approx_size_bytes`]'s per-value sizing).
fn value_plain_bytes(v: &Value) -> u64 {
    match v {
        Value::Int(_) => 8,
        Value::Real(_) => 8,
        Value::Str(s) => s.len() as u64 + 4,
    }
}

/// Stable hash of a parameter value for distinct-value leakage counting.
fn value_hash(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Adds to `agg` what deciding `pairs` (update, entry) pairs of query
/// template `qid` along `path` revealed, the entries totalling
/// `statement` bytes of statement text and `rows` bytes of result.
/// Reveals are cumulative down the decision paths, like
/// `request_reveals` down the lattice: reading a statement necessarily
/// reveals the template id, and reading a view reveals both — so raising
/// a level never shrinks any single ledger counter.
fn note_scan_reveals(
    agg: &mut ScanAgg,
    qid: usize,
    path: DecisionPath,
    level: ExposureLevel,
    pairs: u64,
    statement: u64,
    rows: u64,
) {
    let mut note = |kind: RevealKind, bytes: u64| {
        let slot = agg
            .entry((qid, kind.name(), path.name(), level.as_str()))
            .or_insert((0, 0));
        slot.0 += bytes;
        slot.1 += pairs;
    };
    // A blind side inspects nothing.
    if path != DecisionPath::BlindSide {
        note(RevealKind::TemplateId, TEMPLATE_ID_BYTES * pairs);
    }
    if matches!(path, DecisionPath::Statement | DecisionPath::View) {
        note(RevealKind::Params, statement);
    }
    if path == DecisionPath::View {
        note(RevealKind::ViewRows, rows);
    }
}

/// Locks an observability plane, recovering the guard when another
/// thread panicked while holding it: the planes only count and append,
/// so their data is valid at every step, and a poisoned plane must not
/// abort an invalidation.
fn lock_plane<T>(plane: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    plane
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counts the fact `kind` names and hands the event to the tracer: the
/// one call a site makes for it. A free function so the overload gate
/// can call it while it holds the overload state; elsewhere it is
/// [`Dssp::note`].
fn note_with(tally: &mut Tally, tracer: &mut Tracer, at_micros: u64, kind: TraceEventKind) {
    tally.note(kind);
    tracer.emit(at_micros, kind);
}

/// The refusal of a request bound to a template id outside the
/// proxy's exposure tables.
fn unknown_template(kind: &str, id: usize) -> StorageError {
    StorageError::BadQuery(format!("{kind} template {id} is not configured"))
}

fn breaker_event(t: BreakerTransition) -> TraceEventKind {
    TraceEventKind::BreakerTransition {
        from: t.from.code(),
        to: t.to.code(),
    }
}

fn shed_event(template: u32, reason: ShedReason) -> TraceEventKind {
    TraceEventKind::RequestShed {
        query_template: template,
        reason: reason.code(),
    }
}

/// Configuration for one application's slice of the DSSP.
#[derive(Clone)]
pub struct DsspConfig {
    /// Application identifier (keys the tenant's encryption).
    pub app_id: String,
    /// Per-template exposure levels (from the §3 methodology, or a uniform
    /// assignment for the pure strategies of §2.2).
    pub exposures: Exposures,
    /// The statically derived IPM characterization for the application.
    pub matrix: IpmMatrix,
    /// Optional cache capacity in entries (LRU eviction); `None` =
    /// unbounded, as in the paper's prototype.
    pub cache_capacity: Option<usize>,
    /// Staleness lease on cached entries (µs); `None` = entries never
    /// expire (safe only under the paper's perfect-delivery assumption).
    pub lease_micros: Option<u64>,
    /// Overload protection (admission control, circuit breaker,
    /// brownout); `None` = accept everything, the paper's behaviour.
    pub overload: Option<OverloadConfig>,
}

impl DsspConfig {
    /// An unbounded-cache configuration (the paper's setting): no entry
    /// cap, no lease, affected-template recovery.
    pub fn new(app_id: impl Into<String>, exposures: Exposures, matrix: IpmMatrix) -> DsspConfig {
        DsspConfig {
            app_id: app_id.into(),
            exposures,
            matrix,
            cache_capacity: None,
            lease_micros: None,
            overload: None,
        }
    }
}

/// The outcome of a query through the DSSP.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub result: QueryResult,
    /// Whether the cache answered (no home-server round trip).
    pub hit: bool,
}

impl QueryResponse {
    /// The answer of a trip that cannot come back empty-handed. The
    /// perfect-delivery entry points promise an answer, so they are for a
    /// reliable, ungated link to a home tier that is up; an outage or
    /// overload belongs on the `_ft` forms, which report it.
    pub(crate) fn promised(outcome: FtOutcome) -> QueryResponse {
        match outcome {
            FtOutcome::Served { result, hit, .. } => QueryResponse { result, hit },
            _ => unreachable!("the neutral policy to an up home tier never fails"),
        }
    }
}

/// The outcome of an update through the DSSP.
#[derive(Debug, Clone)]
pub struct UpdateResponse {
    pub effect: UpdateEffect,
    /// Cache entries examined by the invalidation pass.
    pub scanned: usize,
    /// Cache entries invalidated.
    pub invalidated: usize,
}

/// Live overload-protection state (present when
/// [`DsspConfig::overload`] was set).
struct OverloadState {
    config: OverloadConfig,
    breaker: CircuitBreaker,
    brownout: BrownoutController,
    brownout_active: bool,
}

impl OverloadState {
    fn breaker_open(&self, now: u64) -> Overloaded {
        Overloaded::BreakerOpen {
            retry_after_micros: self.breaker.probe_due_micros().saturating_sub(now),
        }
    }

    /// Deadline admission, then the circuit breaker, for a request that
    /// needs the home tier. A half-open breaker admits exactly one probe.
    fn admit_trip(&mut self, now: u64, queue: &QueueState) -> Result<(), Overloaded> {
        AdmissionController::new(self.config.admission)
            .admit(now, queue)
            .map_err(Overloaded::Admission)?;
        if !self.breaker.try_acquire(now) {
            return Err(self.breaker_open(now));
        }
        Ok(())
    }
}

/// What the overload gate decided for a request it let through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Not gated: no [`DsspConfig::overload`], or no queue snapshot.
    Off,
    /// Let through; under `brownout` a cache hit serves degraded.
    Admitted { brownout: bool },
}

/// One application's DSSP proxy state.
pub struct Dssp {
    exposures: Exposures,
    matrix: IpmMatrix,
    /// Per update template, the query templates the IPM does not prove
    /// conflict-free against it — the buckets its invalidation pass
    /// visits.
    conflicting: Vec<Vec<usize>>,
    cache: ResultCache,
    /// Every count the proxy keeps (see [`Dssp::note`]).
    tally: Tally,
    tracer: Tracer,
    /// Causal span trees (disabled by default; see
    /// [`Dssp::enable_span_recording`]).
    spans: SpanRecorder,
    /// Simulation clock in µs; trace events are stamped with it. Stays 0
    /// outside a simulation.
    now_micros: u64,
    /// Last invalidation-stream epoch applied (or covered by a recovery
    /// flush) on stream 0 — the classic single-home stream.
    epoch: u64,
    /// Cursors for invalidation streams ≥ 1 (one per home shard; see
    /// [`Dssp::epoch_of`]). Stream 0 lives in `epoch`, so a single-stream
    /// proxy never touches the map.
    stream_epochs: std::collections::HashMap<u64, u64>,
    /// Overload protection; `None` = accept everything.
    overload: Option<OverloadState>,
    /// Monotone per-proxy request counter, mixed with `jitter_salt` to
    /// seed full-jitter backoff draws.
    request_seq: u64,
    /// Per-proxy jitter salt derived from the app id, so identically
    /// scripted proxies retry on decorrelated schedules.
    jitter_salt: u64,
    /// The freshness plane and this proxy's replica index on it, when a
    /// harness attached one (see [`Dssp::attach_provenance`]).
    prov: Option<(SharedProvenance, usize)>,
    /// The leakage audit plane and this proxy's replica index on it, when
    /// a harness attached one (see [`Dssp::attach_audit`]). `None` keeps
    /// the hot path stamp-free, like the other observability planes.
    audit: Option<(SharedAudit, usize)>,
    /// Envelope seal/open meter feeding the `leakage` export; attached
    /// together with the audit plane.
    crypto_meter: Option<Arc<CryptoMeter>>,
    /// Application id, kept as the tenant label on audit ledgers.
    app_id: String,
}

impl Dssp {
    pub fn new(config: DsspConfig) -> Dssp {
        let encryptor = Encryptor::for_app(&config.app_id);
        let mut cache = match config.cache_capacity {
            Some(cap) => ResultCache::with_capacity(encryptor, cap),
            None => ResultCache::new(encryptor),
        };
        cache.set_lease_micros(config.lease_micros);
        let tally = Tally::new(
            config.exposures.updates.len(),
            config.exposures.queries.len(),
        );
        let jitter_salt = config
            .app_id
            .bytes()
            .fold(0x5c5_c5c5u64, |acc, b| splitmix64(acc ^ b as u64));
        let overload = config.overload.map(|cfg| OverloadState {
            config: cfg,
            breaker: CircuitBreaker::new(cfg.breaker),
            brownout: BrownoutController::new(cfg.brownout),
            brownout_active: false,
        });
        let conflicting = (0..config.matrix.update_count())
            .map(|uid| {
                (0..config.matrix.query_count())
                    .filter(|&qid| !config.matrix.entry(uid, qid).all_zero())
                    .collect()
            })
            .collect();
        Dssp {
            cache,
            exposures: config.exposures,
            conflicting,
            matrix: config.matrix,
            tally,
            tracer: Tracer::new(),
            spans: SpanRecorder::disabled(),
            now_micros: 0,
            epoch: 0,
            stream_epochs: std::collections::HashMap::new(),
            overload,
            request_seq: 0,
            jitter_salt,
            prov: None,
            audit: None,
            crypto_meter: None,
            app_id: config.app_id,
        }
    }

    /// Attaches the freshness plane: this proxy stamps serves, misses,
    /// stores, invalidations, and batch arrivals as `replica` on the
    /// shared log, which grows to cover `replica`. The home server and the
    /// fanout layer must share the same log for the stamps to chain.
    pub fn attach_provenance(&mut self, prov: SharedProvenance, replica: usize) {
        lock_plane(&prov).register_replica(replica);
        self.prov = Some((prov, replica));
    }

    /// Attaches the leakage audit plane: this proxy stamps every
    /// encryption-boundary crossing (template ids observed, parameters
    /// inspected, view rows read) as `replica` on the shared log, and a
    /// [`CryptoMeter`] starts tallying the cache's envelope seals/opens.
    /// Without this call the proxy takes no audit locks and allocates
    /// nothing for metering.
    pub fn attach_audit(&mut self, audit: SharedAudit, replica: usize) {
        let meter = CryptoMeter::new();
        self.cache.meter_crypto(meter.clone());
        lock_plane(&audit).register_replica(replica);
        self.crypto_meter = Some(meter);
        self.audit = Some((audit, replica));
    }

    /// The attached leakage audit plane, if any.
    pub fn audit(&self) -> Option<&SharedAudit> {
        self.audit.as_ref().map(|(a, _)| a)
    }

    /// The envelope seal/open meter, if the audit plane is attached.
    pub fn crypto_meter(&self) -> Option<&Arc<CryptoMeter>> {
        self.crypto_meter.as_ref()
    }

    /// Stamps the request-plane reveals of one arriving statement
    /// (template id at `template`+, parameter values at `stmt`+) and
    /// opens the audit request root follow-on reveals chain back to.
    /// Returns `None` — without touching a lock — when no audit plane is
    /// attached.
    fn audit_arrival(
        &self,
        is_update: bool,
        template: usize,
        level: ExposureLevel,
        origin: &'static str,
        params: &[Value],
    ) -> Option<u64> {
        let (audit, replica) = self.audit.as_ref()?;
        let mut a = lock_plane(audit);
        let req = a.begin_request(
            *replica,
            &self.app_id,
            is_update,
            template,
            level.as_str(),
            origin,
            self.now_micros,
        );
        for kind in request_reveals(level) {
            let bytes = match kind {
                RevealKind::TemplateId => TEMPLATE_ID_BYTES,
                RevealKind::Params => params.iter().map(value_plain_bytes).sum(),
                RevealKind::ViewRows => continue,
            };
            a.note_reveal(
                *replica,
                req,
                &self.app_id,
                is_update,
                template,
                RevealStamp {
                    kind: kind.name(),
                    path: "request",
                    level: level.as_str(),
                    bytes,
                    pairs: 1,
                },
                self.now_micros,
            );
        }
        if RevealKind::Params.possible_at(level) {
            a.note_param_values(
                &self.app_id,
                is_update,
                template,
                params.iter().map(value_hash),
            );
        }
        Some(req)
    }

    /// Stamps a plaintext result read (`view` exposure only): a cache
    /// serve or a miss fill whose rows the proxy sees in the clear.
    fn audit_view_read(
        &self,
        request: Option<u64>,
        template: usize,
        path: &'static str,
        result: &QueryResult,
    ) {
        let (Some((audit, replica)), Some(req)) = (&self.audit, request) else {
            return;
        };
        let mut a = lock_plane(audit);
        a.note_reveal(
            *replica,
            req,
            &self.app_id,
            false,
            template,
            RevealStamp {
                kind: RevealKind::ViewRows.name(),
                path,
                level: ExposureLevel::View.as_str(),
                bytes: result.approx_size_bytes() as u64,
                pairs: 1,
            },
            self.now_micros,
        );
        a.note_fields(template, result.columns.iter());
    }

    /// Changes the staleness lease applied to subsequently stored
    /// entries (`None` = never expire). Already-stored entries keep the
    /// lease they were stored under.
    pub fn set_lease_micros(&mut self, lease: Option<u64>) {
        self.cache.set_lease_micros(lease);
    }

    /// Counts and traces entries the capacity bound pushed out, each
    /// against its query template — whether a miss fill or an elastic
    /// handoff made the cache overflow.
    fn note_evictions(&mut self, evicted: &[CacheKey]) {
        for victim in evicted {
            self.note(TraceEventKind::EntryEvicted {
                query_template: victim.template_id as u32,
            });
        }
    }

    /// Cache entries evicted by the capacity bound (0 when unbounded).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Handles a client query: serve from cache, or forward to the home
    /// server and cache the (non-empty) result.
    ///
    /// This is the paper's perfect-delivery entry point: the request
    /// pipeline ([`Dssp::execute_query_ft`]) at the neutral policy — a
    /// reliable link, no retries, no overload gate — over any [`Home`].
    pub fn execute_query<H: Home>(
        &mut self,
        q: &Query,
        home: &mut H,
    ) -> Result<QueryResponse, StorageError> {
        self.query_reliable(q, home)
    }

    /// Handles an update: apply at the home server (master copy), then
    /// invalidate affected cached results. The DSSP never sees more of the
    /// update than its exposure level allows.
    ///
    /// Perfect-delivery entry point: the epoch-stamped invalidation
    /// notification is delivered back to this proxy immediately
    /// ([`Dssp::execute_update_ft`] at the neutral policy, then
    /// [`Dssp::apply_invalidation_from`] on the owning stream). If the
    /// master was written out of band since the last notification, the
    /// delivery exposes the epoch gap here and the response reports the
    /// recovery flush instead of a targeted invalidation pass.
    pub fn execute_update<H: Home>(
        &mut self,
        u: &Update,
        home: &mut H,
    ) -> Result<UpdateResponse, StorageError> {
        self.update_reliable(u, home).map(|(resp, _)| resp)
    }

    /// [`Dssp::execute_query`] against a sharded home tier. A forward
    /// kept only because `benchmark/src/sut.rs` names it — the pipeline
    /// takes any [`Home`]; a later `[benchmark]` PR retires it.
    pub fn execute_query_sharded(
        &mut self,
        q: &Query,
        home: &mut ShardedHome,
    ) -> Result<QueryResponse, StorageError> {
        self.query_reliable(q, home)
    }

    /// [`Dssp::execute_update`] against a sharded home tier, returning
    /// the owning shard alongside the response. A forward kept only
    /// because `benchmark/src/sut.rs` names it; a later `[benchmark]` PR
    /// retires it.
    pub fn execute_update_sharded(
        &mut self,
        u: &Update,
        home: &mut ShardedHome,
    ) -> Result<(UpdateResponse, usize), StorageError> {
        self.update_reliable(u, home)
            .map(|(resp, stream)| (resp, stream as usize))
    }

    /// The pipeline under the paper's perfect-delivery assumption: a
    /// reliable link, no retries.
    fn query_reliable<H: Home>(
        &mut self,
        q: &Query,
        home: &mut H,
    ) -> Result<QueryResponse, StorageError> {
        let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
        let resp = self.execute_query_ft(q, home, &link, &policy, None)?;
        Ok(QueryResponse::promised(resp.outcome))
    }

    /// The update pipeline under perfect delivery: a reliable trip, then
    /// the notification delivered straight back on the stream that owns
    /// the update — which is returned beside the response.
    fn update_reliable<H: Home>(
        &mut self,
        u: &Update,
        home: &mut H,
    ) -> Result<(UpdateResponse, u64), StorageError> {
        let (link, policy) = (HomeLink::reliable(), RetryPolicy::no_retries());
        let resp = self.execute_update_ft(u, home, &link, &policy, None)?;
        let FtUpdateOutcome::Applied {
            effect,
            stream,
            msg,
        } = resp.outcome
        else {
            unreachable!("the neutral policy to an up home tier never fails")
        };
        let (scanned, invalidated) = match self.apply_invalidation_from(stream, &msg) {
            DeliveryOutcome::Applied {
                scanned,
                invalidated,
            } => (scanned, invalidated),
            DeliveryOutcome::Recovered { flushed } => (flushed, flushed),
            DeliveryOutcome::Duplicate => (0, 0),
        };
        let resp = UpdateResponse {
            effect,
            scanned,
            invalidated,
        };
        Ok((resp, stream))
    }

    /// The query pipeline, one body for every home tier and trip policy
    /// (the classic, `_sharded` and fleet entry points all end here).
    ///
    /// 0. **Gate** — taken only when [`DsspConfig::overload`] is set
    ///    *and* the caller passes `queue`, its snapshot of the home-side
    ///    bottleneck (queueing lives in the simulator's service centers,
    ///    not in the proxy). A fresh (within-lease) hit always passes,
    ///    served *degraded* under brownout; under brownout (breaker open,
    ///    or the last window's *backstop* rejection ratio at threshold) a
    ///    miss fast-rejects; a miss whose projected completion (`queue`
    ///    wait + service estimate) violates the deadline is shed at
    ///    arrival; an open breaker refuses the trip and a half-open one
    ///    admits exactly one probe. A shed request answers
    ///    [`FtOutcome::Shed`] having touched only its shed counter: it is
    ///    not a query served, so neither `queries` nor the audit plane
    ///    sees it.
    /// 1. Lookup and serve; on a miss, reach the home under `policy`'s
    ///    backoff schedule, handshake each participating stream's cursor
    ///    while the cache is empty, store the result stamped with its
    ///    first stream and that stream's epoch, account evictions. A
    ///    gated trip's outcome feeds the breaker (`Served` → success,
    ///    `Unavailable` → failure).
    ///
    /// Within-lease cache hits serve even while the link or the home is
    /// down (graceful degradation — counted and traced); a miss that
    /// cannot reach the home surfaces [`FtOutcome::Unavailable`], never a
    /// stale substitute. Entries whose lease ran out are dropped,
    /// counted, and re-fetched like misses. A query the home refuses is
    /// an `Err`, with its `home_trip` span recorded and its root closed
    /// like any other exit's. A query bound to a template id this proxy
    /// was not configured with is an `Err` before anything moves.
    pub fn execute_query_ft<H: Home>(
        &mut self,
        q: &Query,
        home: &mut H,
        link: &HomeLink,
        policy: &RetryPolicy,
        queue: Option<&QueueState>,
    ) -> Result<FtQueryResponse, StorageError> {
        let tid = q.template_id;
        let level = self.exposures.queries.get(tid).copied();
        let level = level.ok_or_else(|| unknown_template("query", tid))?;
        let gate = match self.gate(Some(q), tid as u32, queue) {
            Ok(gate) => gate,
            Err(why) => {
                return Ok(FtQueryResponse {
                    outcome: FtOutcome::Shed(why),
                    attempts: 0,
                    backoff_micros: 0,
                })
            }
        };
        let exposure = level.rank() as u8;
        let audit_req = self.audit_arrival(false, tid, level, "query", &q.params);
        let root = self.spans.open(
            self.now_micros,
            SpanPhase::QueryRequest,
            SpanId::NONE,
            Some(tid as u32),
        );
        let root_timer = self.spans.timer();
        let lookup_timer = self.spans.timer();
        let mut lease_expired = false;
        match self.cache.lookup_classified(q) {
            Lookup::Hit(entry) => {
                let result = entry.serve().clone();
                let plaintext_hit = entry.visible_result().is_some();
                let (stored_at, stored_epoch, stored_stream, expires_at) = (
                    entry.stored_at_micros(),
                    entry.stored_epoch(),
                    entry.stored_stream(),
                    entry.expires_at_micros(),
                );
                self.spans.record_closed(
                    self.now_micros,
                    SpanPhase::CacheLookup,
                    root,
                    Some(tid as u32),
                    lookup_timer,
                );
                self.note(TraceEventKind::QueryHit {
                    query_template: tid as u32,
                    exposure,
                });
                let link_down = !(link.is_up(self.now_micros) && home.is_up());
                let brownout = gate == Gate::Admitted { brownout: true };
                let degraded = link_down || brownout;
                if degraded {
                    self.note(TraceEventKind::DegradedServe {
                        query_template: tid as u32,
                    });
                }
                if let Some((prov, replica)) = &self.prov {
                    let mut p = lock_plane(prov);
                    // Staleness is scoped to the stream the entry was
                    // filled on (stream 0 for a classic home).
                    p.note_serve_on(
                        *replica,
                        tid,
                        stored_stream,
                        self.epoch_of(stored_stream),
                        stored_epoch,
                        stored_at,
                        expires_at,
                        self.now_micros,
                    );
                    if link_down {
                        p.note_degraded(*replica, tid, self.now_micros);
                    }
                }
                if plaintext_hit {
                    // A `view`-exposed serve reads the cached rows in the
                    // clear; lower levels return an opaque envelope.
                    self.audit_view_read(audit_req, tid, "serve", &result);
                }
                self.spans.close(root, root_timer);
                if brownout {
                    self.tally.brownout_serves += 1;
                }
                // Hits never touch the home tier: no breaker verdict.
                self.settle(gate, None);
                return Ok(FtQueryResponse {
                    outcome: FtOutcome::Served {
                        result,
                        hit: true,
                        degraded,
                    },
                    attempts: 0,
                    backoff_micros: 0,
                });
            }
            Lookup::Expired => {
                lease_expired = true;
                self.note(TraceEventKind::LeaseExpired {
                    query_template: tid as u32,
                });
            }
            Lookup::Miss => {}
        }
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::CacheLookup,
            root,
            Some(tid as u32),
            lookup_timer,
        );
        self.note(TraceEventKind::QueryMiss {
            query_template: tid as u32,
            exposure,
        });
        if let Some((prov, replica)) = &self.prov {
            lock_plane(prov).note_miss(*replica, tid, self.now_micros, lease_expired);
        }
        let (reached, attempts, backoff_micros) = self.reach_home(home, link, policy);
        if !reached {
            self.spans.close(root, root_timer);
            self.settle(gate, Some(false));
            return Ok(FtQueryResponse {
                outcome: FtOutcome::Unavailable,
                attempts,
                backoff_micros,
            });
        }
        let trip_timer = self.spans.timer();
        let answer = home.answer(q);
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::HomeTrip,
            root,
            Some(tid as u32),
            trip_timer,
        );
        let (result, streams) = match answer {
            Ok(answer) => answer,
            Err(e) => {
                self.spans.close(root, root_timer);
                return Err(e);
            }
        };
        let streams = streams.as_ref();
        // Epoch handshake on the piggybacked home epochs — but only
        // while the cache is empty. With nothing cached, skipping ahead
        // cannot leave a stale entry behind; with entries present, the
        // gap must surface on the message stream so the recovery flush
        // covers them.
        if self.cache.is_empty() {
            for &stream in streams {
                let tip = home.epoch_of(stream);
                if tip > self.epoch_of(stream) {
                    self.set_stream_cursor(stream, tip);
                }
            }
        }
        let crypto_timer = self.spans.timer();
        let outcome = self.cache.store_with_evictions(q, result.clone(), level);
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::Crypto,
            root,
            Some(tid as u32),
            crypto_timer,
        );
        if outcome.stored {
            // The fill carries its first participating stream and that
            // stream's epoch as of the miss trip: the entry is provably
            // fresh up to that point, which is the floor the
            // staleness-age accounting starts from. For a scatter-gather
            // fill this tracks only one of the streams the result
            // depends on — a documented approximation in the staleness
            // *accounting*; the lease (and the conservative cross-stream
            // recovery flush) still bound true staleness.
            let owner = streams.first().copied().unwrap_or(0);
            let fill_epoch = home.epoch_of(owner);
            self.cache.set_stored_provenance(q, owner, fill_epoch);
            if let Some((prov, replica)) = &self.prov {
                lock_plane(prov).note_store(*replica, tid, fill_epoch, self.now_micros);
            }
        }
        if outcome.replaced {
            self.tally.cache_replacements += 1;
        }
        if level == ExposureLevel::View {
            // At `view` exposure the fill is stored — and thus read —
            // as plaintext rows.
            self.audit_view_read(audit_req, tid, "fill", &result);
        }
        self.note_evictions(&outcome.evicted);
        self.spans.close(root, root_timer);
        self.settle(gate, Some(true));
        Ok(FtQueryResponse {
            outcome: FtOutcome::Served {
                result,
                hit: false,
                degraded: false,
            },
            attempts,
            backoff_micros,
        })
    }

    /// The update pipeline, one body for every home tier and trip
    /// policy: pass the overload gate, reach the home under `policy`'s
    /// retry schedule and apply at the master. On success the
    /// epoch-stamped invalidation notification is **returned, not
    /// applied**, together with the stream it rides on — the caller owns
    /// the delivery channel (the simulator may drop, delay, duplicate, or
    /// reorder it before [`Dssp::apply_invalidation_from`] sees it).
    /// While the link or the home stays down the master is untouched and
    /// the outcome is [`FtUpdateOutcome::Unavailable`].
    ///
    /// The gate (step 0, taken as in [`Dssp::execute_query_ft`]) puts
    /// deadline admission and the circuit breaker in front of an update,
    /// which always needs the home tier; brownout does **not** shed
    /// updates on its own (writes carry more value than reads, and an
    /// admitted update feeds the breaker the freshest link signal). A
    /// shed update ([`FtUpdateOutcome::Shed`]) leaves the master
    /// untouched and is not an update request served.
    ///
    /// An attempt that reaches the home is accounted (the
    /// `UpdateApplied` event) before the master's verdict: an update the
    /// master rejects is an `Err` that was still an update request
    /// served, with its `home_trip` span recorded and its root closed. An
    /// update bound to an unconfigured template id is an `Err` before
    /// anything moves.
    pub fn execute_update_ft<H: Home>(
        &mut self,
        u: &Update,
        home: &mut H,
        link: &HomeLink,
        policy: &RetryPolicy,
        queue: Option<&QueueState>,
    ) -> Result<FtUpdateResponse, StorageError> {
        let uid = u.template_id;
        let level = self.exposures.updates.get(uid).copied();
        let level = level.ok_or_else(|| unknown_template("update", uid))?;
        let gate = match self.gate(None, uid as u32, queue) {
            Ok(gate) => gate,
            Err(why) => {
                return Ok(FtUpdateResponse {
                    outcome: FtUpdateOutcome::Shed(why),
                    attempts: 0,
                    backoff_micros: 0,
                })
            }
        };
        let _ = self.audit_arrival(true, uid, level, "update", &u.params);
        let root = self.spans.open(
            self.now_micros,
            SpanPhase::UpdateRequest,
            SpanId::NONE,
            Some(uid as u32),
        );
        let root_timer = self.spans.timer();
        let (reached, attempts, backoff_micros) = self.reach_home(home, link, policy);
        if !reached {
            self.spans.close(root, root_timer);
            self.settle(gate, Some(false));
            return Ok(FtUpdateResponse {
                outcome: FtUpdateOutcome::Unavailable,
                attempts,
                backoff_micros,
            });
        }
        self.note(TraceEventKind::UpdateApplied {
            update_template: uid as u32,
            exposure: level.rank() as u8,
        });
        let trip_timer = self.spans.timer();
        let applied = home.apply(u);
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::HomeTrip,
            root,
            Some(uid as u32),
            trip_timer,
        );
        self.spans.close(root, root_timer);
        let (effect, stream, msg) = applied?;
        self.settle(gate, Some(true));
        Ok(FtUpdateResponse {
            outcome: FtUpdateOutcome::Applied {
                effect,
                stream,
                msg,
            },
            attempts,
            backoff_micros,
        })
    }

    /// Walks `policy`'s backoff schedule to the first attempt that finds
    /// both the link and the home up. Returns whether one did, the
    /// attempts made, and the simulated backoff waited (µs); a surrender
    /// is counted and traced here.
    fn reach_home<H: Home>(
        &mut self,
        home: &H,
        link: &HomeLink,
        policy: &RetryPolicy,
    ) -> (bool, u32, u64) {
        let mut attempts = 0u32;
        let mut backoff = 0u64;
        let jitter_seed = self.next_jitter_seed();
        loop {
            let next = attempts + 1;
            let wait = policy.backoff_before_seeded(next, jitter_seed);
            if next > policy.max_attempts || backoff.saturating_add(wait) > policy.timeout_micros {
                break;
            }
            attempts = next;
            backoff += wait;
            if attempts > 1 {
                self.note(TraceEventKind::HomeRetry {
                    attempt: attempts.min(u8::MAX as u32) as u8,
                });
            }
            if link.is_up(self.now_micros.saturating_add(backoff)) && home.is_up() {
                return (true, attempts, backoff);
            }
        }
        self.note(TraceEventKind::HomeUnreachable {
            attempts: attempts.min(u8::MAX as u32) as u8,
        });
        (false, attempts, backoff)
    }

    /// Step 0 of both pipelines: the admission → breaker → brownout gate
    /// in front of arrival accounting. `q` is the query being offered
    /// (`None` for an update, which brownout never sheds on its own);
    /// `template` labels the shed event. The overload state is borrowed
    /// once; everything else the gate touches is a disjoint field.
    fn gate(
        &mut self,
        q: Option<&Query>,
        template: u32,
        queue: Option<&QueueState>,
    ) -> Result<Gate, Overloaded> {
        let (Some(ol), Some(queue)) = (self.overload.as_mut(), queue) else {
            return Ok(Gate::Off);
        };
        let (tally, tracer, now) = (&mut self.tally, &mut self.tracer, self.now_micros);
        if let Some(t) = ol.breaker.poll(now) {
            note_with(tally, tracer, t.at_micros, breaker_event(t));
        }
        let mut brownout = false;
        let verdict = 'verdict: {
            if let Some(q) = q {
                let open = ol.breaker.state() == BreakerState::Open;
                brownout = ol.brownout.active(now, open);
                if ol.brownout_active != brownout {
                    ol.brownout_active = brownout;
                    let mode = TraceEventKind::BrownoutMode { active: brownout };
                    note_with(tally, tracer, now, mode);
                }
                if self.cache.peek_fresh(q) {
                    // Hits never touch the home tier, so neither
                    // admission nor the breaker applies.
                    break 'verdict Ok(());
                }
                if brownout {
                    // Brownout fast-rejects misses instead of queueing
                    // them; the breaker's state forces brownout directly.
                    break 'verdict Err(if open {
                        ol.breaker_open(now)
                    } else {
                        Overloaded::Brownout
                    });
                }
            }
            ol.admit_trip(now, queue)
        };
        match verdict {
            Ok(()) => Ok(Gate::Admitted { brownout }),
            Err(why) => {
                // No shed of the gate's own feeds the brownout trigger:
                // admission shedding is the system operating correctly
                // at overload, the breaker forces brownout by state, and
                // counting brownout's own deliberate rejects would latch
                // it for as long as the overload lasts (shed → ratio hot
                // → shed …), starving the cache of refills.
                ol.brownout.record(now, false);
                note_with(tally, tracer, now, shed_event(template, why.reason()));
                Err(why)
            }
        }
    }

    /// Closes a request the gate let through: the trip's verdict feeds
    /// the breaker (`None` for a hit, which made no trip) and the
    /// brownout window counts one offered request — never as distress.
    fn settle(&mut self, gate: Gate, trip: Option<bool>) {
        let (Gate::Admitted { .. }, Some(ol)) = (gate, self.overload.as_mut()) else {
            return;
        };
        let now = self.now_micros;
        let transition = match trip {
            Some(true) => ol.breaker.on_success(now),
            Some(false) => ol.breaker.on_failure(now),
            None => None,
        };
        ol.brownout.record(now, false);
        if let Some(t) = transition {
            note_with(
                &mut self.tally,
                &mut self.tracer,
                t.at_micros,
                breaker_event(t),
            );
        }
    }

    /// Accounts a request the *caller* shed at a bounded netsim queue
    /// (`try_serve`/`try_send` rejection) so the proxy's shed counters
    /// and brownout shed-ratio see it. Returns the error to surface.
    pub fn record_queue_rejection(&mut self, query_template: u32) -> Overloaded {
        let now = self.now_micros;
        // A backstop rejection — a bounded queue refusing admitted work —
        // is the one kind of shed that feeds the brownout trigger.
        if let Some(ol) = self.overload.as_mut() {
            ol.brownout.record(now, true);
        }
        self.note(shed_event(query_template, ShedReason::QueueFull));
        Overloaded::QueueFull
    }

    /// The circuit breaker's current state (`None` when overload
    /// protection is off).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.overload.as_ref().map(|ol| ol.breaker.state())
    }

    /// Whether brownout mode was active at the last guarded request.
    pub fn brownout_active(&self) -> bool {
        self.overload.as_ref().is_some_and(|ol| ol.brownout_active)
    }

    fn next_jitter_seed(&mut self) -> u64 {
        self.request_seq += 1;
        splitmix64(self.jitter_salt ^ self.request_seq)
    }

    /// Delivers one fanout batch on stream 0, the classic single-home
    /// stream: [`Dssp::apply_batch_from`]`(0, batch)`.
    pub fn apply_batch(&mut self, batch: &InvalidationBatch) -> BatchOutcome {
        self.apply_batch_from(0, batch)
    }

    /// Delivers one epoch-stamped invalidation notification from
    /// invalidation stream `stream`, ordered against that stream's own
    /// cursor ([`Dssp::epoch_of`]; a classic home has the one stream 0, a
    /// sharded home one per shard):
    ///
    /// * `epoch == cursor + 1` — in order: the update's invalidation pass
    ///   runs exactly as under perfect delivery.
    /// * `epoch <= cursor` — a duplicate, or a reorder whose gap already
    ///   forced a flush that covered it: dropped.
    /// * `epoch > cursor + 1` — a gap: one or more notifications were lost
    ///   *on that stream* (or its master was written out of band). The
    ///   recovery flush runs; it covers this message's own
    ///   invalidations too, so the message itself is not applied
    ///   separately.
    ///
    /// The flush is deliberately not stream-scoped: a missed update on
    /// any stream may have touched any cached entry, so the conservative
    /// sweep of the whole cache is what keeps cross-stream merges safe.
    /// Only the cursor of `stream` moves.
    pub fn apply_invalidation_from(
        &mut self,
        stream: u64,
        msg: &InvalidationMsg,
    ) -> DeliveryOutcome {
        let cursor = self.epoch_of(stream);
        let expected = cursor + 1;
        if msg.epoch < expected {
            self.tally.duplicate_invalidations += 1;
            self.prov_arrival_on(stream, msg.epoch, ApplyKind::Duplicate, cursor, cursor);
            return DeliveryOutcome::Duplicate;
        }
        let root = self.spans.open(
            self.now_micros,
            SpanPhase::InvalidationFanout,
            SpanId::NONE,
            Some(msg.update.template_id as u32),
        );
        let root_timer = self.spans.timer();
        if msg.epoch > expected {
            self.note(TraceEventKind::EpochGap {
                expected,
                got: msg.epoch,
            });
            let recovery_timer = self.spans.timer();
            let flushed = self.recovery_flush();
            self.spans.record_closed(
                self.now_micros,
                SpanPhase::Recovery,
                root,
                None,
                recovery_timer,
            );
            self.set_stream_cursor(stream, msg.epoch);
            self.prov_arrival_on(
                stream,
                msg.epoch,
                ApplyKind::Recovered {
                    flushed: flushed as u64,
                },
                cursor,
                msg.epoch,
            );
            self.spans.close(root, root_timer);
            return DeliveryOutcome::Recovered { flushed };
        }
        self.set_stream_cursor(stream, msg.epoch);
        let (scanned, invalidated) = self.run_invalidation_pass(&msg.update, msg.epoch);
        self.prov_arrival_on(
            stream,
            msg.epoch,
            ApplyKind::Applied {
                applied: 1,
                skipped: 0,
            },
            cursor,
            msg.epoch,
        );
        self.spans.close(root, root_timer);
        DeliveryOutcome::Applied {
            scanned,
            invalidated,
        }
    }

    /// Delivers one fanout batch covering the contiguous epoch range
    /// `[first_epoch, last_epoch]` of invalidation stream `stream`.
    ///
    /// Batch-level ordering mirrors [`Dssp::apply_invalidation_from`],
    /// against the same per-stream cursor:
    ///
    /// * `last_epoch <= cursor` — the whole batch is a duplicate (a
    ///   redelivered batch, or one covered by an earlier gap flush).
    /// * `first_epoch > cursor + 1` — a gap: an earlier batch was lost,
    ///   so the recovery flush runs and covers this batch's own
    ///   invalidations.
    /// * otherwise the batch attaches (possibly overlapping): retained
    ///   messages with an epoch beyond the cursor are applied in order,
    ///   the rest skipped as covered.
    ///
    /// Within an attaching batch the retained epochs may be
    /// non-contiguous — coalescing removed earlier duplicates of a
    /// later representative — so messages are **not** routed through
    /// `apply_invalidation_from` (which would misread each coalesced
    /// hole as a lost notification and flush). The hole is safe
    /// precisely because coalescing keeps the *latest*-epoch
    /// representative: the content of every removed epoch is re-stated
    /// by a message at or after it within this same batch.
    pub fn apply_batch_from(&mut self, stream: u64, batch: &InvalidationBatch) -> BatchOutcome {
        let epoch_before = self.epoch_of(stream);
        if batch.last_epoch <= epoch_before {
            self.tally.fanout_batch_duplicates += 1;
            self.tally.duplicate_invalidations += batch.msgs.len() as u64;
            self.prov_arrival_on(
                stream,
                batch.first_epoch,
                ApplyKind::Duplicate,
                epoch_before,
                epoch_before,
            );
            return BatchOutcome::Duplicate;
        }
        let root = self.spans.open(
            self.now_micros,
            SpanPhase::BatchApply,
            SpanId::NONE,
            batch.msgs.first().map(|m| m.update.template_id as u32),
        );
        let root_timer = self.spans.timer();
        let expected = epoch_before + 1;
        if batch.first_epoch > expected {
            self.tally.fanout_batch_gaps += 1;
            self.note(TraceEventKind::EpochGap {
                expected,
                got: batch.first_epoch,
            });
            let recovery_timer = self.spans.timer();
            let flushed = self.recovery_flush();
            self.spans.record_closed(
                self.now_micros,
                SpanPhase::Recovery,
                root,
                None,
                recovery_timer,
            );
            self.set_stream_cursor(stream, batch.last_epoch);
            self.prov_arrival_on(
                stream,
                batch.first_epoch,
                ApplyKind::Recovered {
                    flushed: flushed as u64,
                },
                epoch_before,
                batch.last_epoch,
            );
            self.spans.close(root, root_timer);
            return BatchOutcome::Recovered { flushed };
        }
        let mut applied = 0usize;
        let mut skipped = 0usize;
        let mut scanned = 0usize;
        let mut invalidated = 0usize;
        let mut cursor = epoch_before;
        for msg in &batch.msgs {
            if msg.epoch <= cursor {
                skipped += 1;
                self.tally.duplicate_invalidations += 1;
                continue;
            }
            cursor = msg.epoch;
            let (s, i) = self.run_invalidation_pass(&msg.update, msg.epoch);
            scanned += s;
            invalidated += i;
            applied += 1;
        }
        // Epochs past the last retained message were coalesced away;
        // their content is covered by the representatives just applied.
        self.set_stream_cursor(stream, batch.last_epoch);
        self.tally.fanout_batches_applied += 1;
        self.tally.fanout_batch_msgs += applied as u64;
        self.prov_arrival_on(
            stream,
            batch.first_epoch,
            ApplyKind::Applied {
                applied: applied as u64,
                skipped: skipped as u64,
            },
            epoch_before,
            batch.last_epoch,
        );
        self.spans.close(root, root_timer);
        BatchOutcome::Applied {
            applied,
            skipped,
            scanned,
            invalidated,
        }
    }

    /// The update's invalidation pass: generate candidates, ask the
    /// strategy per candidate, account per victim. When the update's
    /// template is visible, the pass restricts itself to blind-level
    /// entries (always victims under Property 1) plus the buckets of the
    /// query templates the IPM marks as conflicting, and — with the
    /// statement visible too — to the entries of those buckets a
    /// parameter or result-key probe returns (see
    /// [`ResultCache::invalidate_candidates`]). Every verdict still comes
    /// from [`decide`]; `scanned` counts the pairs the pass decided,
    /// probed or not. A blind update gives the strategy nothing to filter
    /// on (every entry is a victim), so it keeps the full scan.
    fn run_invalidation_pass(&mut self, u: &Update, at_epoch: u64) -> (usize, usize) {
        let uid = u.template_id;
        // A notification naming a template this proxy was not configured
        // with tells it nothing it may act on: treat it as blind.
        let level = self.exposures.updates.get(uid).copied();
        let level = level.unwrap_or(ExposureLevel::Blind);
        let view = UpdateView::new(u, level);
        let matrix = &self.matrix;
        // Collect per-victim attribution while the cache is borrowed; the
        // entry's *canonical* template id is recorded (telemetry sits
        // inside the DSSP's trust boundary and may account for entries the
        // strategy itself cannot inspect).
        let mut victims: Vec<(usize, DecisionPath, u8)> = Vec::new();
        // Scan-time leakage aggregation, keyed by (entry template, reveal
        // kind, decision path, entry level): each decided pair reveals
        // what the decision path had to read. Aggregated locally inside
        // the judge and flushed as one event per key after the scan — the
        // audit lock is never taken per pair. `None` when the plane is
        // off, keeping the closure allocation-free.
        let mut scan_agg: Option<ScanAgg> = self
            .audit
            .as_ref()
            .map(|_| std::collections::BTreeMap::new());
        let mut judge = |entry: &crate::cache::CacheEntry| {
            let (kill, path) = decide(matrix, &view, entry);
            if let Some(agg) = scan_agg.as_mut() {
                let qid = entry.key().template_id;
                let (statement, rows) = entry.inspection_bytes();
                note_scan_reveals(agg, qid, path, entry.level(), 1, statement, rows);
            }
            if kill {
                victims.push((entry.key().template_id, path, entry.level().rank() as u8));
            }
            kill
        };
        let scan = match view.visible_template_id() {
            Some(_) => self.cache.invalidate_candidates(
                self.conflicting.get(uid).map_or(&[], Vec::as_slice),
                view.visible_statement(),
                &mut judge,
            ),
            None => {
                let (scanned, invalidated) = self.cache.invalidate_where(&mut judge);
                ScanOutcome {
                    scanned,
                    inspected: scanned,
                    invalidated,
                    pruned: Vec::new(),
                }
            }
        };
        let (scanned, invalidated) = (scan.scanned, scan.invalidated);
        if let Some((prov, replica)) = &self.prov {
            let mut p = lock_plane(prov);
            p.note_scan(uid, scanned as u64, invalidated as u64);
            for (qid, _, _) in &victims {
                p.note_invalidate(*replica, *qid, uid, at_epoch, self.now_micros);
            }
        }
        if let (Some((audit, replica)), Some(mut agg)) = (&self.audit, scan_agg) {
            // A pair a probe spared the judge is metered as the verdict
            // `decide` would have reached by reading it — "keep", at the
            // inspection tier of the entry's level — so the ledger is the
            // full walk's.
            for p in &scan.pruned {
                let path = match p.level {
                    ExposureLevel::View => DecisionPath::View,
                    _ => DecisionPath::Statement,
                };
                note_scan_reveals(
                    &mut agg,
                    p.template_id,
                    path,
                    p.level,
                    p.pairs,
                    p.statement_bytes,
                    p.result_bytes,
                );
            }
            if !agg.is_empty() {
                // One audit root per invalidation pass: delivery is
                // asynchronous from the client's update request, so the
                // scan's reveals chain to an `apply`-origin root here.
                let mut a = lock_plane(audit);
                let req = a.begin_request(
                    *replica,
                    &self.app_id,
                    true,
                    uid,
                    level.as_str(),
                    "apply",
                    self.now_micros,
                );
                for ((qid, kind, path, lvl), (bytes, pairs)) in agg {
                    a.note_reveal(
                        *replica,
                        req,
                        &self.app_id,
                        false,
                        qid,
                        RevealStamp {
                            kind,
                            path,
                            level: lvl,
                            bytes,
                            pairs,
                        },
                        self.now_micros,
                    );
                }
            }
        }
        for (qid, path, entry_exposure) in victims {
            self.note(TraceEventKind::EntryInvalidated {
                update_template: uid as u32,
                query_template: qid as u32,
                exposure: entry_exposure,
                decision: path.code(),
            });
        }
        self.tally.entries_scanned += scanned as u64;
        self.tally.entries_inspected += scan.inspected as u64;
        self.tally.scan_size.record(scanned as u64);
        (scanned, invalidated)
    }

    /// Flushes what an unknown missed update could have invalidated:
    /// every entry but those whose query template the static IPM proved
    /// conflict-free against *every* update template — exposure does not
    /// matter here, because the IPM speaks about ground truth over
    /// templates, not about what the proxy may inspect at runtime.
    fn recovery_flush(&mut self) -> usize {
        let matrix = &self.matrix;
        let update_count = matrix.update_count();
        let (_, flushed) = self.cache.invalidate_where(|entry| {
            let qid = entry.key().template_id;
            (0..update_count).any(|uid| !matrix.entry(uid, qid).all_zero())
        });
        self.note(TraceEventKind::RecoveryFlush {
            flushed: flushed as u64,
            // The affected-templates flush, the one kind there is.
            mode: 0,
        });
        flushed
    }

    /// Simulates a crash + restart of this proxy: the cache is lost and
    /// the epoch tracker re-handshakes from the home server's current
    /// epoch (piggybacked on the reconnect). Starting empty makes the
    /// skip-ahead safe — there is nothing cached for a missed update to
    /// have left stale — and any in-flight notifications from before the
    /// crash then arrive as droppable duplicates.
    pub fn restart(&mut self, home_epoch: u64) {
        let timer = self.spans.timer();
        self.cache.clear();
        self.epoch = home_epoch;
        self.note(TraceEventKind::NodeRestart { epoch: home_epoch });
        self.spans.record_closed(
            self.now_micros,
            SpanPhase::Recovery,
            SpanId::NONE,
            None,
            timer,
        );
    }

    /// Last invalidation-stream epoch this proxy has applied or covered.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets a fresh joiner's epoch cursor to the home server's epoch at
    /// pipe registration. Unlike [`Dssp::restart`] this neither clears
    /// the cache nor counts as a crash: the joiner starts empty anyway,
    /// and every update ≤ `home_epoch` is already reflected in the
    /// master state it warms from, while every later one arrives on its
    /// own newly-registered pipe.
    pub fn handshake(&mut self, home_epoch: u64) {
        self.epoch = home_epoch;
    }

    /// This replica's merge cursor on invalidation stream `stream` —
    /// the last epoch applied or covered on it. Stream 0 is
    /// [`Dssp::epoch`]; unseen streams start at 0.
    pub fn epoch_of(&self, stream: u64) -> u64 {
        if stream == 0 {
            self.epoch
        } else {
            self.stream_epochs.get(&stream).copied().unwrap_or(0)
        }
    }

    fn set_stream_cursor(&mut self, stream: u64, epoch: u64) {
        if stream == 0 {
            self.epoch = epoch;
        } else {
            self.stream_epochs.insert(stream, epoch);
        }
    }

    /// Stamps a message or batch arrival on the freshness plane,
    /// resolving the batch's stamp by `(stream, first_epoch)` — epochs
    /// are unique only within one stream, and contiguous disjoint ranges
    /// make the pair unique. Silently skips arrivals the fanout layer
    /// never stamped — e.g. the perfect-delivery entry points.
    fn prov_arrival_on(
        &self,
        stream: u64,
        first_epoch: u64,
        kind: ApplyKind,
        before: u64,
        after: u64,
    ) {
        if let Some((prov, replica)) = &self.prov {
            let mut p = lock_plane(prov);
            if let Some(batch) = p.batch_for_epoch_on(stream, first_epoch) {
                p.note_arrival(*replica, batch, self.now_micros, kind, before, after);
            }
        }
    }

    /// Extracts the cached entries selected by `select` for handoff to
    /// another replica, removing them locally. Used by the elastic fleet
    /// when ring arcs change owner on a join or leave.
    pub fn export_entries_where(
        &mut self,
        select: impl FnMut(&crate::cache::CacheEntry) -> bool,
    ) -> Vec<crate::cache::CacheEntry> {
        let out = self.cache.extract_where(select);
        self.tally.handoff_exported += out.len() as u64;
        out
    }

    /// Imports entries handed off by a donor replica, preserving their
    /// original lease windows and stored epochs so the staleness bound
    /// survives the transfer. Returns how many were actually admitted
    /// (already-expired entries are dropped on arrival).
    pub fn import_entries(&mut self, entries: Vec<crate::cache::CacheEntry>) -> usize {
        let mut admitted = 0usize;
        for e in entries {
            let outcome = self.cache.import(e);
            admitted += usize::from(outcome.stored);
            self.note_evictions(&outcome.evicted);
        }
        self.tally.handoff_imported += admitted as u64;
        admitted
    }

    /// Emits the membership trace event for this replica joining the
    /// ring, with the epoch cursor it joined at and how many entries it
    /// was handed during warming.
    pub fn note_join(&mut self, epoch: u64, handed: u64) {
        self.note(TraceEventKind::ReplicaJoin { epoch, handed });
    }

    /// Emits the membership trace event for this replica leaving the
    /// ring, with its final applied epoch and how many entries it handed
    /// to its successors.
    pub fn note_leave(&mut self, epoch: u64, handed: u64) {
        self.note(TraceEventKind::ReplicaLeave { epoch, handed });
    }

    /// Counts the fact `kind` names and hands the event to the tracer,
    /// stamped with the simulation clock: the one call a site makes for
    /// a fact a trace event names.
    fn note(&mut self, kind: TraceEventKind) {
        note_with(&mut self.tally, &mut self.tracer, self.now_micros, kind);
    }

    /// Snapshot of the headline counters.
    pub fn stats(&self) -> DsspStats {
        self.tally.stats()
    }

    /// Every counter and histogram under its exported name (per-template
    /// counters, fault and overload counters, the scan-size histogram);
    /// merge snapshots for roll-ups.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.tally.metrics()
    }

    /// The counts themselves, including the empirical (update-template ×
    /// query-template) invalidation matrix.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The static IPM characterization the proxy decides with.
    pub fn ipm(&self) -> &IpmMatrix {
        &self.matrix
    }

    /// Attaches a trace sink; events flow to every attached sink.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.add_sink(sink);
    }

    /// The proxy's tracer — exposes sink health (swallowed write errors,
    /// dropped events) for the telemetry export.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Turns on causal span recording, storing up to `capacity` spans
    /// (later ones are counted as dropped). Each query/update/delivery
    /// then records a root span with phase-tagged children
    /// (cache_lookup, crypto, home_trip, recovery). A request the home
    /// refuses records its `home_trip` and closes its root like any
    /// other.
    pub fn enable_span_recording(&mut self, capacity: usize) {
        self.spans = SpanRecorder::enabled(capacity);
    }

    /// The recorded span trees (empty unless
    /// [`Dssp::enable_span_recording`] was called).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Advances the clock trace events are stamped with and leases are
    /// judged against (µs). Driven by the simulator; wall-clock-free tests
    /// may leave it at 0.
    pub fn set_sim_time_micros(&mut self, micros: u64) {
        self.now_micros = micros;
        self.cache.set_now_micros(micros);
    }

    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// [`ResultCache::check_invariants`] on this proxy's cache.
    #[cfg(any(test, debug_assertions))]
    pub fn check_cache_invariants(&self) -> Result<(), String> {
        self.cache.check_invariants()
    }

    /// Iterates over cached entries — used by correctness tests to verify
    /// freshness against re-execution, never by the serving path.
    pub fn cache_entries(&self) -> impl Iterator<Item = &crate::cache::CacheEntry> {
        self.cache.iter()
    }

    pub fn exposures(&self) -> &Exposures {
        &self.exposures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::HomeServer;
    use crate::strategy::StrategyKind;
    use scs_core::{characterize_app, AnalysisOptions, Catalog};
    use scs_sqlkit::{parse_query, parse_update, QueryTemplate, UpdateTemplate, Value};
    use scs_storage::{ColumnType, Database, TableSchema};
    use std::sync::Arc;

    struct Fixture {
        dssp: Dssp,
        home: HomeServer,
        queries: Vec<Arc<QueryTemplate>>,
        updates: Vec<Arc<UpdateTemplate>>,
    }

    fn fixture(kind: StrategyKind) -> Fixture {
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
            parse_update("DELETE FROM toys WHERE toy_id = ?").unwrap(),
        )];
        let catalog = Catalog::new([schema]);
        let matrix = characterize_app(&updates, &queries, &catalog, AnalysisOptions::default());
        let dssp = Dssp::new(DsspConfig {
            app_id: "toystore".into(),
            exposures: kind.exposures(updates.len(), queries.len()),
            matrix,
            cache_capacity: None,
            lease_micros: None,
            overload: None,
        });
        Fixture {
            dssp,
            home: HomeServer::new(db),
            queries,
            updates,
        }
    }

    impl Fixture {
        fn query(&mut self, tid: usize, params: Vec<Value>) -> QueryResponse {
            let q = Query::bind(tid, self.queries[tid].clone(), params).unwrap();
            self.dssp.execute_query(&q, &mut self.home).unwrap()
        }

        fn update(&mut self, tid: usize, params: Vec<Value>) -> UpdateResponse {
            let u = Update::bind(tid, self.updates[tid].clone(), params).unwrap();
            self.dssp.execute_update(&u, &mut self.home).unwrap()
        }
    }

    #[test]
    fn cache_hit_after_miss() {
        let mut f = fixture(StrategyKind::ViewInspection);
        let r1 = f.query(0, vec![Value::str("bear")]);
        assert!(!r1.hit);
        let r2 = f.query(0, vec![Value::str("bear")]);
        assert!(r2.hit);
        assert_eq!(r1.result, r2.result);
        assert_eq!(f.home.queries_served(), 1);
    }

    #[test]
    fn blind_strategy_clears_everything() {
        let mut f = fixture(StrategyKind::Blind);
        f.query(0, vec![Value::str("bear")]);
        f.query(1, vec![Value::Int(2)]);
        assert_eq!(f.dssp.cache_len(), 2);
        let resp = f.update(0, vec![Value::Int(3)]);
        assert_eq!(resp.invalidated, 2, "blind: every entry invalidated");
        assert_eq!(f.dssp.cache_len(), 0);
    }

    #[test]
    fn statement_strategy_spares_unrelated_instances() {
        let mut f = fixture(StrategyKind::StatementInspection);
        f.query(1, vec![Value::Int(1)]);
        f.query(1, vec![Value::Int(2)]);
        let resp = f.update(0, vec![Value::Int(2)]); // delete toy 2
        assert_eq!(resp.invalidated, 1, "only the toy_id = 2 instance dies");
        // toy 1 entry still served from cache.
        assert!(f.query(1, vec![Value::Int(1)]).hit);
        assert!(!f.query(1, vec![Value::Int(2)]).hit);
    }

    #[test]
    fn template_strategy_invalidates_all_instances_of_affected_templates() {
        let mut f = fixture(StrategyKind::TemplateInspection);
        f.query(1, vec![Value::Int(1)]);
        f.query(1, vec![Value::Int(2)]);
        let resp = f.update(0, vec![Value::Int(3)]);
        assert_eq!(
            resp.invalidated, 2,
            "template level cannot compare parameters"
        );
    }

    #[test]
    fn updated_data_is_re_fetched_fresh() {
        let mut f = fixture(StrategyKind::ViewInspection);
        let before = f.query(1, vec![Value::Int(2)]);
        assert_eq!(before.result.rows, vec![vec![Value::Int(5)]]);
        f.update(0, vec![Value::Int(2)]);
        let after = f.query(1, vec![Value::Int(2)]);
        assert!(!after.hit);
        assert!(after.result.is_empty(), "toy 2 deleted at the master");
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fixture(StrategyKind::ViewInspection);
        f.query(0, vec![Value::str("bear")]);
        f.query(0, vec![Value::str("bear")]);
        f.update(0, vec![Value::Int(9)]);
        let s = f.dssp.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.updates, 1);
    }

    /// A handoff that overflows the receiver's capacity evicts like any
    /// store, and the evictions are counted against their templates.
    #[test]
    fn handoff_evictions_reach_the_counters() {
        let mut donor = fixture(StrategyKind::ViewInspection);
        for id in 1..=3 {
            donor.query(1, vec![Value::Int(id)]);
        }
        let moved = donor.dssp.export_entries_where(|_| true);
        let mut receiver = fixture(StrategyKind::ViewInspection);
        receiver.dssp.cache = ResultCache::with_capacity(Encryptor::for_app("toystore"), 2);
        assert_eq!(receiver.dssp.import_entries(moved), 3);
        assert_eq!(receiver.dssp.cache_len(), 2);
        assert_eq!(receiver.dssp.stats().evictions, 1);
        let metrics = receiver.dssp.metrics();
        assert_eq!(metrics.counters["query_template.1.evicted"], 1);
    }

    #[test]
    fn metrics_track_per_template_counts() {
        let mut f = fixture(StrategyKind::StatementInspection);
        f.query(0, vec![Value::str("bear")]);
        f.query(0, vec![Value::str("bear")]);
        f.query(1, vec![Value::Int(2)]);
        // Deleting toy 2 kills the q1(toy_id=2) entry; statement
        // inspection must also kill the q0(toy_name) entry, since a
        // DELETE by toy_id could remove a matching bear row.
        let resp = f.update(0, vec![Value::Int(2)]);
        let m = f.dssp.metrics();
        let counter = |name: &str| m.counters[name];
        assert_eq!(counter("query_template.0.hits"), 1);
        assert_eq!(counter("query_template.0.misses"), 1);
        assert_eq!(counter("query_template.1.misses"), 1);
        assert_eq!(counter("update_template.0.applied"), 1);
        assert_eq!(counter("query_template.1.invalidated"), 1);
        assert_eq!(
            counter("update_template.0.invalidations"),
            resp.invalidated as u64
        );
        // Headline counters agree with the derived stats snapshot.
        assert_eq!(counter("dssp.queries"), f.dssp.stats().queries);
        // The scan-size histogram saw exactly one invalidation pass.
        assert_eq!(m.histograms["dssp.invalidation_scan_size"].count, 1);
    }

    #[test]
    fn tally_attributes_runtime_invalidations() {
        let mut f = fixture(StrategyKind::TemplateInspection);
        f.query(0, vec![Value::str("bear")]);
        f.query(1, vec![Value::Int(1)]);
        f.update(0, vec![Value::Int(3)]);
        let tally = f.dssp.tally();
        assert_eq!(tally.updates_applied(), [1]);
        // MTIS invalidates every instance of both affected templates.
        assert_eq!(tally.invalidation_counts(), [[1, 1]]);
        // Runtime behaviour stays inside the analysis envelope: nothing
        // invalidated on a pair the IPM proved A = 0 for.
        let ipm = f.dssp.ipm();
        assert!(tally
            .divergence(|u, q| ipm.entry(u, q).all_zero())
            .is_empty());
    }

    #[test]
    fn trace_events_flow_to_sinks() {
        use scs_telemetry::{TraceEvent, TraceEventKind, TraceSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Shared(Rc<RefCell<Vec<TraceEvent>>>);
        impl TraceSink for Shared {
            fn record(&mut self, event: &TraceEvent) {
                self.0.borrow_mut().push(*event);
            }
        }

        let events = Rc::new(RefCell::new(Vec::new()));
        let mut f = fixture(StrategyKind::ViewInspection);
        f.dssp.add_trace_sink(Box::new(Shared(Rc::clone(&events))));
        f.dssp.set_sim_time_micros(42);
        f.query(1, vec![Value::Int(2)]);
        f.query(1, vec![Value::Int(2)]);
        f.update(0, vec![Value::Int(2)]);

        let events = events.borrow();
        let kinds: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "query_miss",
                "query_hit",
                "update_applied",
                "entry_invalidated"
            ]
        );
        assert!(events.iter().all(|e| e.at_micros == 42));
        // Sequence numbers are strictly increasing.
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        match events[3].kind {
            TraceEventKind::EntryInvalidated {
                update_template,
                query_template,
                decision,
                ..
            } => {
                assert_eq!(update_template, 0);
                assert_eq!(query_template, 1);
                assert_eq!(decision, crate::strategy::DecisionPath::View.code());
            }
            other => panic!("expected invalidation event, got {other:?}"),
        }
    }

    #[test]
    fn span_trees_cover_the_request_pipeline() {
        let mut f = fixture(StrategyKind::ViewInspection);
        f.dssp.enable_span_recording(64);
        f.dssp.set_sim_time_micros(500);
        assert!(!f.query(0, vec![Value::str("bear")]).hit); // miss
        assert!(f.query(0, vec![Value::str("bear")]).hit); // hit
        f.update(0, vec![Value::Int(2)]);
        let rec = f.dssp.spans();
        assert!(rec.is_enabled());
        assert_eq!(rec.dropped(), 0);
        let spans = rec.spans();
        let count = |p: SpanPhase| spans.iter().filter(|s| s.phase == p).count();
        assert_eq!(count(SpanPhase::QueryRequest), 2);
        assert_eq!(count(SpanPhase::CacheLookup), 2);
        // One home trip for the query miss, one for the update.
        assert_eq!(count(SpanPhase::HomeTrip), 2);
        assert_eq!(count(SpanPhase::Crypto), 1);
        assert_eq!(count(SpanPhase::UpdateRequest), 1);
        assert_eq!(count(SpanPhase::InvalidationFanout), 1);
        // Every child hangs off a stored root; trees are one level deep.
        for s in spans.iter().filter(|s| !s.parent.is_none()) {
            let parent = spans.iter().find(|p| p.id == s.parent).unwrap();
            assert!(parent.parent.is_none(), "children attach to roots");
            assert!(parent.phase.is_root() || parent.phase == SpanPhase::Recovery);
        }
        assert!(spans.iter().all(|s| s.at_micros == 500));
        // Roots were closed with a measured wall-clock duration.
        assert!(spans
            .iter()
            .filter(|s| s.parent.is_none())
            .all(|s| s.elapsed_nanos > 0));
        // The summary attributes query time to child phases.
        let rows = rec.critical_path();
        let query_row = rows
            .iter()
            .find(|r| r.root == SpanPhase::QueryRequest && r.template == Some(0))
            .unwrap();
        assert_eq!(query_row.count, 2);
        assert_eq!(query_row.phases["cache_lookup"].0, 2);
        assert_eq!(query_row.phases["home_trip"].0, 1);
        assert!(query_row.critical_phase().is_some());
    }

    #[test]
    fn spans_disabled_by_default_and_bounded_when_on() {
        let mut f = fixture(StrategyKind::ViewInspection);
        f.query(0, vec![Value::str("bear")]);
        assert_eq!(f.dssp.spans().recorded(), 0);
        // Tiny capacity: overflow is counted, not stored, and the proxy
        // keeps serving.
        f.dssp.enable_span_recording(2);
        for _ in 0..5 {
            f.query(0, vec![Value::str("bear")]);
        }
        assert_eq!(f.dssp.spans().recorded(), 2);
        assert!(f.dssp.spans().dropped() > 0);
    }

    /// A panic in another thread holding the shared series (a harness
    /// merging curves) must not turn every later traced request into a
    /// panic: the sink keeps counting into the recovered series.
    #[test]
    fn a_poisoned_time_series_does_not_panic_the_serving_path() {
        let mut f = fixture(StrategyKind::ViewInspection);
        let (sink, series) = scs_telemetry::TimeSeriesSink::new(1_000);
        f.dssp.add_trace_sink(Box::new(sink));
        let poisoner = series.clone();
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the series");
        })
        .join();
        assert!(
            joined.is_err() && series.lock().is_err(),
            "series is poisoned"
        );
        assert!(!f.query(0, vec![Value::str("bear")]).hit);
        assert!(f.query(0, vec![Value::str("bear")]).hit);
        let series = series.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(series.counter_total("query_miss"), 1);
        assert_eq!(series.counter_total("query_hit"), 1);
    }

    /// The freshness plane attached at a replica id the log was not sized
    /// for grows to cover it, as the audit plane does: the first miss,
    /// its fill and the hit after it are all stamped.
    #[test]
    fn provenance_attached_at_an_unregistered_replica_stamps() {
        let mut f = fixture(StrategyKind::ViewInspection);
        let prov = scs_telemetry::shared_provenance(1);
        f.dssp.attach_provenance(prov.clone(), 3);
        f.dssp.set_sim_time_micros(10);
        assert!(!f.query(1, vec![Value::Int(2)]).hit);
        f.dssp.set_sim_time_micros(20);
        assert!(f.query(1, vec![Value::Int(2)]).hit);
        let log = prov.lock().unwrap();
        assert_eq!(log.replica_count(), 4);
        assert_eq!(log.replica(3).miss_events().len(), 1);
        assert_eq!(log.replica(3).serves, 1);
        let serve = log.explain_serve(3, 1, 20).expect("the hit is stamped");
        let chain = serve.get("chain").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(
            chain[0].get("step").and_then(|s| s.as_str()),
            Some("stored")
        );
        assert_eq!(chain[0].get("at_micros").and_then(|a| a.as_u64()), Some(10));
    }
}
