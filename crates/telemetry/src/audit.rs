//! The leakage audit plane: meter what the proxy *actually sees*.
//!
//! The freshness plane ([`crate::provenance`]) answers "how stale was the
//! data the DSSP served?"; this module answers the symmetric security
//! question: "how much plaintext did the untrusted DSSP observe while
//! serving it?". Every point where the proxy crosses an encryption
//! boundary — a template id observed at `template` exposure, statement
//! parameters inspected at `stmt`, view rows read at `view` during an
//! invalidation check, a miss fill, or a cache serve — reaches the plane
//! as a `Reveal` trace event chained to the `AuditRequest` root before
//! it, and folds into per-template and per-tenant leakage ledgers:
//! plaintext bytes revealed, distinct parameter values seen, fields
//! exposed.
//!
//! The plane is a pure [`Fold`] attached through [`AuditLog::sink`], and
//! **inert when absent**: a proxy with no trace sink builds no reveal,
//! hashes no value and takes no lock (the same contract as
//! `SpanRecorder` — pinned by the `run_observed == run` style
//! equivalence test in `scs-apps`).
//!
//! Reveal kinds, decision paths, and exposure levels travel as static
//! strings so this crate stays dependency-free; the authoritative
//! taxonomy (which kind is possible at which level, per decision path)
//! lives in `scs_core::exposure::RevealKind`.
//!
//! Journals are bounded by [`crate::EVENT_CAP`]; overflow is *counted*
//! (`dropped_reveals`), never silent, and an optional JSONL journal sink
//! surfaces `write_errors` exactly as the trace sinks do.

use crate::json::Json;
use crate::trace::{Fold, PlaneSink, RevealStamp, TraceEvent, TraceEventKind};
use crate::{lock, push_capped, step};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The audit plane as shared by a proxy fleet: one log, many replicas.
pub type SharedAudit = Arc<Mutex<AuditLog>>;

/// A fresh shared audit log pre-registered for `replicas` replicas.
pub fn shared_audit(replicas: usize) -> SharedAudit {
    Arc::new(Mutex::new(AuditLog::new(replicas)))
}

/// A journaled boundary crossing, attributed to a request root.
#[derive(Debug, Clone)]
pub struct RevealEvent {
    /// Event sequence number (unique, time-ordered).
    pub seq: u64,
    /// The [`RequestRoot`] this reveal is causally attributed to.
    pub request: u64,
    pub replica: usize,
    pub at_micros: u64,
    /// `true` when `template` indexes an update template.
    pub is_update: bool,
    /// Template whose plaintext was revealed (the *entry's* template for
    /// scan-time reveals).
    pub template: usize,
    pub stamp: RevealStamp,
}

/// The root of a reveal chain: one request (query, update, or a remotely
/// delivered invalidation apply) the proxy handled.
#[derive(Debug, Clone)]
pub struct RequestRoot {
    pub seq: u64,
    pub replica: usize,
    pub at_micros: u64,
    pub is_update: bool,
    pub template: usize,
    /// `"query"`, `"update"`, or `"apply"` (a fanout-delivered
    /// invalidation pass with no local client request).
    pub origin: &'static str,
}

/// Per-template leakage ledger. Every counter is monotone along the
/// exposure lattice for a fixed operation stream: raising a level only
/// ever adds reveal kinds (see the taxonomy table in
/// `scs_core::exposure`).
#[derive(Debug, Default, Clone)]
pub struct TemplateLedger {
    /// Template-id observations (requests + scan inspections).
    pub template_ids: u64,
    /// Bytes of template-identifying plaintext read.
    pub template_bytes: u64,
    /// Bytes of parameter/statement plaintext read.
    pub param_bytes: u64,
    /// Distinct parameter values seen in the clear (hashes).
    pub param_values: HashSet<u64>,
    /// View reveals: plaintext results read (serves, fills, view checks).
    pub view_reveals: u64,
    /// Bytes of materialized-view plaintext read.
    pub view_bytes: u64,
    /// Distinct result fields (hashes of column names) exposed in the
    /// clear.
    pub fields: HashSet<u64>,
    /// Total reveal stamps recorded against this template.
    pub reveal_events: u64,
    /// Total plaintext bytes revealed (all kinds).
    pub revealed_bytes: u64,
}

impl TemplateLedger {
    fn apply(&mut self, stamp: &RevealStamp) {
        self.reveal_events += 1;
        self.revealed_bytes += stamp.bytes;
        match stamp.kind {
            "template_id" => {
                self.template_ids += stamp.pairs;
                self.template_bytes += stamp.bytes;
            }
            "params" => {
                self.param_bytes += stamp.bytes;
            }
            "view_rows" => {
                self.view_reveals += stamp.pairs;
                self.view_bytes += stamp.bytes;
            }
            _ => {}
        }
    }

    fn json(&self, template: usize) -> Json {
        Json::obj([
            ("template", template.into()),
            ("reveal_events", self.reveal_events.into()),
            ("revealed_bytes", self.revealed_bytes.into()),
            ("template_ids", self.template_ids.into()),
            ("template_bytes", self.template_bytes.into()),
            ("param_bytes", self.param_bytes.into()),
            ("param_values", self.param_values.len().into()),
            ("view_reveals", self.view_reveals.into()),
            ("view_bytes", self.view_bytes.into()),
            ("fields_exposed", self.fields.len().into()),
        ])
    }
}

/// Per-tenant rollup: total plaintext revealed for one application.
#[derive(Debug, Default, Clone)]
struct TenantLedger {
    reveal_events: u64,
    revealed_bytes: u64,
    param_values: HashSet<u64>,
}

#[derive(Debug, Default, Clone)]
struct ReplicaAudit {
    /// The application this replica serves, set when its sink attaches.
    tenant: String,
    requests: u64,
    events: u64,
    /// The request root this replica's reveals chain to: its latest.
    request: u64,
}

/// The shared leakage audit log (see module docs).
#[derive(Default)]
pub struct AuditLog {
    events: Vec<RevealEvent>,
    roots: Vec<RequestRoot>,
    replicas: Vec<ReplicaAudit>,
    queries: Vec<TemplateLedger>,
    updates: Vec<TemplateLedger>,
    tenants: HashMap<String, TenantLedger>,
    requests_total: u64,
    events_total: u64,
    revealed_bytes_total: u64,
    dropped_reveals: u64,
    dropped_requests: u64,
    /// Optional JSONL journal sink; each reveal event is written as one
    /// line. Failures are counted, never raised.
    journal: Option<Box<dyn Write + Send>>,
    journal_lines: u64,
    write_errors: u64,
}

impl AuditLog {
    pub fn new(replicas: usize) -> AuditLog {
        let mut log = AuditLog::default();
        log.replicas.resize_with(replicas, ReplicaAudit::default);
        log
    }

    /// The plane's attach point for what `replica`, serving `tenant`,
    /// emits (the log grows to cover it).
    pub fn sink(log: &SharedAudit, replica: usize, tenant: &str) -> PlaneSink<AuditLog> {
        lock(log).replica_mut(replica).tenant = tenant.to_string();
        PlaneSink::new(log, replica)
    }

    /// `id`'s per-replica slot; joiners grow the table late.
    fn replica_mut(&mut self, id: usize) -> &mut ReplicaAudit {
        if self.replicas.len() <= id {
            self.replicas.resize_with(id + 1, ReplicaAudit::default);
        }
        &mut self.replicas[id]
    }

    /// The ledger of the tenant `replica` serves.
    fn tenant_mut(&mut self, replica: usize) -> &mut TenantLedger {
        let tenant = self.replica_mut(replica).tenant.clone();
        self.tenants.entry(tenant).or_default()
    }

    /// Attaches a JSONL journal sink: every subsequent reveal event is
    /// also written as one JSON line. Write failures increment
    /// `write_errors` (surfaced in the `leakage` export) and never panic.
    pub fn attach_journal(&mut self, sink: Box<dyn Write + Send>) {
        self.journal = Some(sink);
    }

    /// Opens a request root: the causal anchor `replica`'s reveals
    /// chain back to until its next root.
    fn begin_request(&mut self, replica: usize, e: &TraceEvent) {
        let TraceEventKind::AuditRequest {
            is_update,
            template,
            origin,
        } = e.kind
        else {
            return;
        };
        let seq = self.requests_total;
        self.requests_total += 1;
        let r = self.replica_mut(replica);
        r.requests += 1;
        r.request = seq;
        self.tenant_mut(replica);
        let root = RequestRoot {
            seq,
            replica,
            at_micros: e.at_micros,
            is_update,
            template: template as usize,
            origin,
        };
        push_capped(&mut self.roots, root, &mut self.dropped_requests);
    }

    /// One boundary crossing, chained to `replica`'s open root: the
    /// journal and the per-template / per-tenant ledgers.
    fn reveal(&mut self, replica: usize, e: &TraceEvent) {
        let TraceEventKind::Reveal {
            is_update,
            template,
            stamp,
        } = e.kind
        else {
            return;
        };
        let template = template as usize;
        let seq = self.events_total;
        self.events_total += 1;
        self.revealed_bytes_total += stamp.bytes;
        let r = self.replica_mut(replica);
        r.events += 1;
        let request = r.request;
        self.ledger_mut(is_update, template).apply(&stamp);
        let t = self.tenant_mut(replica);
        t.reveal_events += 1;
        t.revealed_bytes += stamp.bytes;
        let ev = RevealEvent {
            seq,
            request,
            replica,
            at_micros: e.at_micros,
            is_update,
            template,
            stamp,
        };
        if let Some(sink) = self.journal.as_mut() {
            let line = event_json(&ev).render();
            if writeln!(sink, "{line}").is_err() {
                self.write_errors += 1;
            } else {
                self.journal_lines += 1;
            }
        }
        push_capped(&mut self.events, ev, &mut self.dropped_reveals);
    }

    fn ledger_mut(&mut self, is_update: bool, template: usize) -> &mut TemplateLedger {
        let v = match is_update {
            true => &mut self.updates,
            false => &mut self.queries,
        };
        if v.len() <= template {
            v.resize_with(template + 1, TemplateLedger::default);
        }
        &mut v[template]
    }

    /// The journaled reveal events (capped; see `dropped_reveals`).
    pub fn events(&self) -> &[RevealEvent] {
        &self.events
    }

    /// The journaled request roots (capped; see `dropped_requests`).
    pub fn roots(&self) -> &[RequestRoot] {
        &self.roots
    }

    /// Total reveal events recorded (including journal-dropped ones).
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Reveal events the journal cap dropped (counted, never silent).
    pub fn dropped_reveals(&self) -> u64 {
        self.dropped_reveals
    }

    /// Total plaintext bytes revealed across all templates.
    pub fn revealed_bytes(&self) -> u64 {
        self.revealed_bytes_total
    }

    /// Journal-sink write failures (mirrors `Tracer::write_errors`).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// The causal chain of one journaled reveal event:
    /// request → decision path → exposure level → bytes.
    /// `None` when `seq` fell past the cap or was never recorded.
    pub fn explain_reveal(&self, seq: u64) -> Option<Json> {
        let ev = self.events.iter().find(|e| e.seq == seq)?;
        let root = self.roots.iter().find(|r| r.seq == ev.request)?;
        let (at, stamp) = (ev.at_micros, &ev.stamp);
        let request = [
            ("origin", root.origin.into()),
            ("replica", root.replica.into()),
            ("template", root.template.into()),
            ("is_update", root.is_update.into()),
        ];
        let level = [("level", stamp.level.into()), ("kind", stamp.kind.into())];
        let bytes = [("bytes", stamp.bytes.into()), ("pairs", stamp.pairs.into())];
        let chain = vec![
            step("request", root.at_micros, request),
            step("decision_path", at, [("path", stamp.path.into())]),
            step("exposure_level", at, level),
            step("reveal", at, bytes),
        ];
        Some(Json::obj([
            ("kind", "reveal".into()),
            ("seq", ev.seq.into()),
            ("request", ev.request.into()),
            ("replica", ev.replica.into()),
            ("template", ev.template.into()),
            ("is_update", ev.is_update.into()),
            ("at_micros", at.into()),
            ("chain", Json::Arr(chain)),
        ]))
    }

    /// The `leakage` export section: ledgers, journal health, totals.
    pub fn summary_json(&self) -> Json {
        let journal = Json::obj([
            ("active", self.journal.is_some().into()),
            ("lines", self.journal_lines.into()),
            ("write_errors", self.write_errors.into()),
        ]);
        let replicas = self.replicas.iter().enumerate().map(|(id, r)| {
            Json::obj([
                ("replica", id.into()),
                ("requests", r.requests.into()),
                ("reveal_events", r.events.into()),
            ])
        });
        let mut tenants: Vec<(&String, &TenantLedger)> = self.tenants.iter().collect();
        tenants.sort_by_key(|(name, _)| name.as_str());
        let tenants = tenants.into_iter().map(|(name, t)| {
            Json::obj([
                ("tenant", name.clone().into()),
                ("reveal_events", t.reveal_events.into()),
                ("revealed_bytes", t.revealed_bytes.into()),
                ("param_values", t.param_values.len().into()),
            ])
        });
        let ledgers = |v: &[TemplateLedger]| -> Json {
            Json::Arr(v.iter().enumerate().map(|(i, l)| l.json(i)).collect())
        };
        Json::obj([
            ("enabled", true.into()),
            ("requests", self.requests_total.into()),
            ("reveal_events", self.events_total.into()),
            ("revealed_bytes", self.revealed_bytes_total.into()),
            ("dropped_reveals", self.dropped_reveals.into()),
            ("dropped_requests", self.dropped_requests.into()),
            ("journal", journal),
            ("replicas", Json::Arr(replicas.collect())),
            ("tenants", Json::Arr(tenants.collect())),
            ("query_templates", ledgers(&self.queries)),
            ("update_templates", ledgers(&self.updates)),
        ])
    }
}

impl Fold for AuditLog {
    fn fold(&mut self, replica: usize, e: &TraceEvent) {
        match e.kind {
            TraceEventKind::AuditRequest { .. } => self.begin_request(replica, e),
            TraceEventKind::Reveal { .. } => self.reveal(replica, e),
            TraceEventKind::ParamValue {
                is_update,
                template,
                hash,
            } => {
                let ledger = self.ledger_mut(is_update, template as usize);
                ledger.param_values.insert(hash);
                self.tenant_mut(replica).param_values.insert(hash);
            }
            TraceEventKind::FieldExposed { template, hash } => {
                self.ledger_mut(false, template as usize)
                    .fields
                    .insert(hash);
            }
            _ => {}
        }
    }
}

fn event_json(ev: &RevealEvent) -> Json {
    Json::obj([
        ("seq", ev.seq.into()),
        ("request", ev.request.into()),
        ("replica", ev.replica.into()),
        ("at_micros", ev.at_micros.into()),
        ("is_update", ev.is_update.into()),
        ("template", ev.template.into()),
        ("kind", ev.stamp.kind.into()),
        ("path", ev.stamp.path.into()),
        ("level", ev.stamp.level.into()),
        ("bytes", ev.stamp.bytes.into()),
        ("pairs", ev.stamp.pairs.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EVENT_CAP;

    /// Folds `kind` at `at` as `replica`, serving `tenant`, emitted it.
    fn fold(log: &mut AuditLog, replica: usize, tenant: &str, at: u64, kind: TraceEventKind) {
        let e = TraceEvent {
            seq: 0,
            at_micros: at,
            kind,
        };
        log.replica_mut(replica).tenant = tenant.to_string();
        log.fold(replica, &e);
    }

    fn request(is_update: bool, template: u32) -> TraceEventKind {
        TraceEventKind::AuditRequest {
            is_update,
            template,
            origin: if is_update { "update" } else { "query" },
        }
    }

    fn reveal(template: u32, kind: &'static str, bytes: u64) -> TraceEventKind {
        let stamp = RevealStamp {
            kind,
            path: "request",
            level: "view",
            bytes,
            pairs: 1,
        };
        TraceEventKind::Reveal {
            is_update: false,
            template,
            stamp,
        }
    }

    #[test]
    fn ledgers_aggregate_per_template_and_tenant() {
        let mut log = AuditLog::new(1);
        fold(&mut log, 0, "auction", 10, request(false, 2));
        fold(&mut log, 0, "auction", 10, reveal(2, "template_id", 8));
        fold(&mut log, 0, "auction", 10, reveal(2, "params", 5));
        fold(&mut log, 0, "auction", 11, reveal(2, "view_rows", 100));
        for hash in [7, 7, 9] {
            let kind = TraceEventKind::ParamValue {
                is_update: false,
                template: 2,
                hash,
            };
            fold(&mut log, 0, "auction", 10, kind);
        }
        for hash in [1, 2] {
            let kind = TraceEventKind::FieldExposed { template: 2, hash };
            fold(&mut log, 0, "auction", 11, kind);
        }
        let l = &log.queries[2];
        assert_eq!(l.template_ids, 1);
        assert_eq!(l.template_bytes, 8);
        assert_eq!(l.param_bytes, 5);
        assert_eq!(l.param_values.len(), 2);
        assert_eq!(l.view_reveals, 1);
        assert_eq!(l.view_bytes, 100);
        assert_eq!(l.fields.len(), 2);
        assert_eq!(l.revealed_bytes, 113);
        assert_eq!(log.revealed_bytes(), 113);
        let doc = log.summary_json();
        let tenant = doc.get("tenants").unwrap().index(0).unwrap();
        assert_eq!(tenant.get("revealed_bytes").unwrap().as_u64(), Some(113));
        assert_eq!(tenant.get("param_values").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn event_journal_caps_and_counts_overflow() {
        let mut log = AuditLog::new(1);
        fold(&mut log, 0, "t", 0, request(false, 0));
        for i in 0..(EVENT_CAP as u64 + 10) {
            fold(&mut log, 0, "t", i, reveal(0, "view_rows", 1));
        }
        assert_eq!(log.events().len(), EVENT_CAP);
        assert_eq!(log.dropped_reveals(), 10);
        // The ledgers keep full counts past the journal cap.
        assert_eq!(log.events_total(), EVENT_CAP as u64 + 10);
        assert_eq!(log.queries[0].reveal_events, EVENT_CAP as u64 + 10);
    }

    /// A reveal chains to the latest root its replica opened, not to
    /// another replica's.
    #[test]
    fn explain_reveal_chains_request_to_bytes() {
        let mut log = AuditLog::new(2);
        fold(&mut log, 1, "t", 100, request(true, 3));
        fold(&mut log, 0, "t", 101, request(false, 0));
        let stamp = RevealStamp {
            kind: "params",
            path: "statement",
            level: "stmt",
            bytes: 42,
            pairs: 1,
        };
        let kind = TraceEventKind::Reveal {
            is_update: true,
            template: 3,
            stamp,
        };
        fold(&mut log, 1, "t", 105, kind);
        let ev = &log.events()[0];
        assert_eq!(ev.request, log.roots()[0].seq);
        let doc = log.explain_reveal(ev.seq).unwrap();
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        let names: Vec<&str> = chain
            .iter()
            .map(|s| s.get("step").unwrap().as_str().unwrap())
            .collect();
        let expect = ["request", "decision_path", "exposure_level", "reveal"];
        assert_eq!(names, expect);
        // Time-ordered: each step's stamp is >= its predecessor's.
        let times: Vec<u64> = chain
            .iter()
            .map(|s| s.get("at_micros").unwrap().as_u64().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let bytes = chain[3].get("bytes").unwrap().as_u64();
        assert_eq!(bytes, Some(42), "chain terminates in the measured bytes");
    }

    #[test]
    fn journal_sink_counts_lines_and_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut log = AuditLog::new(1);
        log.attach_journal(Box::new(Vec::new()));
        fold(&mut log, 0, "t", 0, request(false, 0));
        fold(&mut log, 0, "t", 0, reveal(0, "view_rows", 1));
        assert_eq!(log.write_errors(), 0);
        let health = log.summary_json();
        let journal = health.get("journal").unwrap();
        assert_eq!(journal.get("lines").unwrap().as_u64(), Some(1));
        assert_eq!(journal.get("active"), Some(&Json::Bool(true)));

        let mut broken = AuditLog::new(1);
        broken.attach_journal(Box::new(Broken));
        fold(&mut broken, 0, "t", 0, request(false, 0));
        fold(&mut broken, 0, "t", 0, reveal(0, "view_rows", 1));
        fold(&mut broken, 0, "t", 1, reveal(0, "view_rows", 1));
        assert_eq!(broken.write_errors(), 2, "failures counted, not raised");
        let health = broken.summary_json();
        let errors = health.get("journal").unwrap().get("write_errors");
        assert_eq!(errors.unwrap().as_u64(), Some(2));
    }

    #[test]
    fn replicas_register_lazily_for_joiners() {
        let mut log = AuditLog::new(1);
        fold(&mut log, 4, "t", 0, request(false, 0));
        fold(&mut log, 4, "t", 0, reveal(0, "template_id", 8));
        let doc = log.summary_json();
        let replicas = doc.get("replicas").unwrap().as_arr().unwrap();
        assert_eq!(replicas.len(), 5);
        assert_eq!(replicas[4].get("reveal_events").unwrap().as_u64(), Some(1));
    }
}
