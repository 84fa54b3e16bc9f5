//! The leakage audit plane: meter what the proxy *actually sees*.
//!
//! The freshness plane ([`crate::provenance`]) answers "how stale was the
//! data the DSSP served?"; this module answers the symmetric security
//! question: "how much plaintext did the untrusted DSSP observe while
//! serving it?". Every point where the proxy crosses an encryption
//! boundary — a template id observed at `template` exposure, statement
//! parameters inspected at `stmt`, view rows read at `view` during an
//! invalidation check, a miss fill, or a cache serve — is stamped here as
//! a [`RevealEvent`] and aggregated into per-template and per-tenant
//! leakage ledgers: plaintext bytes revealed, distinct parameter values
//! seen, fields exposed.
//!
//! The plane is **attachable and inert when absent**: a proxy without an
//! attached `SharedAudit` takes no locks, allocates nothing, and counts
//! nothing on the hot path (the same contract as `SpanRecorder` and the
//! provenance plane — pinned by the `run_observed == run` style
//! equivalence test in `scs-apps`).
//!
//! Reveal kinds, decision paths, and exposure levels travel as static
//! strings so this crate stays dependency-free; the authoritative
//! taxonomy (which kind is possible at which level, per decision path)
//! lives in `scs_core::exposure::RevealKind`.
//!
//! Journals are bounded by [`EVENT_CAP`]; overflow is *counted*
//! (`dropped_reveals`), never silent, and an optional JSONL journal sink
//! surfaces `write_errors` exactly as the trace sinks do.

use crate::json::Json;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The audit plane as shared by a proxy fleet: one log, many replicas.
pub type SharedAudit = Arc<Mutex<AuditLog>>;

/// A fresh shared audit log pre-registered for `replicas` replicas.
pub fn shared_audit(replicas: usize) -> SharedAudit {
    Arc::new(Mutex::new(AuditLog::new(replicas)))
}

/// Cap on each journal (reveal events and request roots). Overflow
/// increments `dropped_reveals` / `dropped_requests` instead of growing
/// without bound.
pub const EVENT_CAP: usize = 1 << 16;

fn push_capped<T>(v: &mut Vec<T>, ev: T, dropped: &mut u64) {
    if v.len() < EVENT_CAP {
        v.push(ev);
    } else {
        *dropped += 1;
    }
}

/// What one encryption-boundary crossing revealed: the taxonomy cell
/// (`kind` × `path` × `level`) plus its measured size. `pairs` counts the
/// aggregated (update, entry) inspections a scan-time stamp covers; a
/// request-plane stamp has `pairs = 1`.
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
    /// Inspected pairs aggregated into this stamp.
    pub pairs: u64,
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
    /// Exposure level of the request's own template.
    pub level: &'static str,
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
    /// Distinct result fields (column names) exposed in the clear.
    pub fields: BTreeSet<String>,
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
    requests: u64,
    events: u64,
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
    next_seq: u64,
    next_request: u64,
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

    /// Ensures `id` has a per-replica slot (joiners register late).
    pub fn register_replica(&mut self, id: usize) {
        if self.replicas.len() <= id {
            self.replicas.resize_with(id + 1, ReplicaAudit::default);
        }
    }

    /// Attaches a JSONL journal sink: every subsequent reveal event is
    /// also written as one JSON line. Write failures increment
    /// `write_errors` (surfaced in the `leakage` export) and never panic.
    pub fn attach_journal(&mut self, sink: Box<dyn Write + Send>) {
        self.journal = Some(sink);
    }

    /// Opens a request root: the causal anchor every reveal of this
    /// request chains back to. Returns the root's sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_request(
        &mut self,
        replica: usize,
        tenant: &str,
        is_update: bool,
        template: usize,
        level: &'static str,
        origin: &'static str,
        at_micros: u64,
    ) -> u64 {
        self.register_replica(replica);
        let seq = self.next_request;
        self.next_request += 1;
        self.requests_total += 1;
        self.replicas[replica].requests += 1;
        self.tenants.entry(tenant.to_string()).or_default();
        push_capped(
            &mut self.roots,
            RequestRoot {
                seq,
                replica,
                at_micros,
                is_update,
                template,
                level,
                origin,
            },
            &mut self.dropped_requests,
        );
        seq
    }

    /// Stamps one boundary crossing, updating the journal and the
    /// per-template / per-tenant ledgers.
    #[allow(clippy::too_many_arguments)]
    pub fn note_reveal(
        &mut self,
        replica: usize,
        request: u64,
        tenant: &str,
        is_update: bool,
        template: usize,
        stamp: RevealStamp,
        at_micros: u64,
    ) {
        self.register_replica(replica);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events_total += 1;
        self.revealed_bytes_total += stamp.bytes;
        self.replicas[replica].events += 1;
        let ledger = self.ledger_mut(is_update, template);
        ledger.apply(&stamp);
        let t = self.tenants.entry(tenant.to_string()).or_default();
        t.reveal_events += 1;
        t.revealed_bytes += stamp.bytes;
        let ev = RevealEvent {
            seq,
            request,
            replica,
            at_micros,
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

    /// Records distinct parameter values seen in the clear (callers pass
    /// stable hashes of the plaintext values).
    pub fn note_param_values(
        &mut self,
        tenant: &str,
        is_update: bool,
        template: usize,
        values: impl IntoIterator<Item = u64>,
    ) {
        let t = self.tenants.entry(tenant.to_string()).or_default();
        let ledger = match is_update {
            true => &mut self.updates,
            false => &mut self.queries,
        };
        if ledger.len() <= template {
            ledger.resize_with(template + 1, TemplateLedger::default);
        }
        for v in values {
            ledger[template].param_values.insert(v);
            t.param_values.insert(v);
        }
    }

    /// Records result fields (column names) exposed in the clear for a
    /// query template.
    pub fn note_fields<S: AsRef<str>>(
        &mut self,
        template: usize,
        fields: impl IntoIterator<Item = S>,
    ) {
        if self.queries.len() <= template {
            self.queries
                .resize_with(template + 1, TemplateLedger::default);
        }
        for f in fields {
            self.queries[template].fields.insert(f.as_ref().to_string());
        }
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

    /// Per-template ledger (query side), if any reveal touched it.
    pub fn query_ledger(&self, template: usize) -> Option<&TemplateLedger> {
        self.queries.get(template)
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

    /// Total request roots opened.
    pub fn requests_total(&self) -> u64 {
        self.requests_total
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
        let chain = vec![
            step(
                "request",
                root.at_micros,
                [
                    ("origin", root.origin.into()),
                    ("replica", root.replica.into()),
                    ("template", root.template.into()),
                    ("is_update", root.is_update.into()),
                ],
            ),
            step(
                "decision_path",
                ev.at_micros,
                [("path", ev.stamp.path.into())],
            ),
            step(
                "exposure_level",
                ev.at_micros,
                [
                    ("level", ev.stamp.level.into()),
                    ("kind", ev.stamp.kind.into()),
                ],
            ),
            step(
                "reveal",
                ev.at_micros,
                [
                    ("bytes", ev.stamp.bytes.into()),
                    ("pairs", ev.stamp.pairs.into()),
                ],
            ),
        ];
        Some(Json::obj([
            ("kind", "reveal".into()),
            ("seq", ev.seq.into()),
            ("request", ev.request.into()),
            ("replica", ev.replica.into()),
            ("template", ev.template.into()),
            ("is_update", ev.is_update.into()),
            ("at_micros", ev.at_micros.into()),
            ("chain", Json::Arr(chain)),
        ]))
    }

    /// Every reveal of one request root, as a single chain (the bin's
    /// demo view): request → [reveal…].
    pub fn explain_request(&self, request: u64) -> Option<Json> {
        let root = self.roots.iter().find(|r| r.seq == request)?;
        let mut chain = vec![step(
            "request",
            root.at_micros,
            [
                ("origin", root.origin.into()),
                ("replica", root.replica.into()),
                ("template", root.template.into()),
                ("level", root.level.into()),
            ],
        )];
        for ev in self.events.iter().filter(|e| e.request == request) {
            chain.push(step(
                "reveal",
                ev.at_micros,
                [
                    ("path", ev.stamp.path.into()),
                    ("level", ev.stamp.level.into()),
                    ("kind", ev.stamp.kind.into()),
                    ("template", ev.template.into()),
                    ("bytes", ev.stamp.bytes.into()),
                    ("pairs", ev.stamp.pairs.into()),
                ],
            ));
        }
        Some(Json::obj([
            ("kind", "request".into()),
            ("request", request.into()),
            ("replica", root.replica.into()),
            ("at_micros", root.at_micros.into()),
            ("chain", Json::Arr(chain)),
        ]))
    }

    /// The `leakage` export section: ledgers, journal health, totals.
    pub fn summary_json(&self) -> Json {
        let mut tenants: Vec<(&String, &TenantLedger)> = self.tenants.iter().collect();
        tenants.sort_by_key(|(name, _)| name.as_str());
        Json::obj([
            ("enabled", true.into()),
            ("requests", self.requests_total.into()),
            ("reveal_events", self.events_total.into()),
            ("revealed_bytes", self.revealed_bytes_total.into()),
            ("dropped_reveals", self.dropped_reveals.into()),
            ("dropped_requests", self.dropped_requests.into()),
            (
                "journal",
                Json::obj([
                    ("active", self.journal.is_some().into()),
                    ("lines", self.journal_lines.into()),
                    ("write_errors", self.write_errors.into()),
                ]),
            ),
            (
                "replicas",
                Json::Arr(
                    self.replicas
                        .iter()
                        .enumerate()
                        .map(|(id, r)| {
                            Json::obj([
                                ("replica", id.into()),
                                ("requests", r.requests.into()),
                                ("reveal_events", r.events.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tenants",
                Json::Arr(
                    tenants
                        .into_iter()
                        .map(|(name, t)| {
                            Json::obj([
                                ("tenant", name.clone().into()),
                                ("reveal_events", t.reveal_events.into()),
                                ("revealed_bytes", t.revealed_bytes.into()),
                                ("param_values", t.param_values.len().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "query_templates",
                Json::Arr(
                    self.queries
                        .iter()
                        .enumerate()
                        .map(|(i, l)| l.json(i))
                        .collect(),
                ),
            ),
            (
                "update_templates",
                Json::Arr(
                    self.updates
                        .iter()
                        .enumerate()
                        .map(|(i, l)| l.json(i))
                        .collect(),
                ),
            ),
        ])
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

fn step<const N: usize>(name: &str, at: u64, fields: [(&'static str, Json); N]) -> Json {
    let mut kv: Vec<(&'static str, Json)> = vec![("step", name.into()), ("at_micros", at.into())];
    kv.extend(fields);
    Json::obj(kv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(kind: &'static str, bytes: u64) -> RevealStamp {
        RevealStamp {
            kind,
            path: "request",
            level: "view",
            bytes,
            pairs: 1,
        }
    }

    #[test]
    fn ledgers_aggregate_per_template_and_tenant() {
        let mut log = AuditLog::new(1);
        let req = log.begin_request(0, "auction", false, 2, "view", "query", 10);
        log.note_reveal(0, req, "auction", false, 2, stamp("template_id", 8), 10);
        log.note_reveal(0, req, "auction", false, 2, stamp("params", 5), 10);
        log.note_reveal(0, req, "auction", false, 2, stamp("view_rows", 100), 11);
        log.note_param_values("auction", false, 2, [7, 7, 9]);
        log.note_fields(2, ["a.x", "a.y"]);
        let l = log.query_ledger(2).unwrap();
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
        let req = log.begin_request(0, "t", false, 0, "view", "query", 0);
        for i in 0..(EVENT_CAP as u64 + 10) {
            log.note_reveal(0, req, "t", false, 0, stamp("view_rows", 1), i);
        }
        assert_eq!(log.events().len(), EVENT_CAP);
        assert_eq!(log.dropped_reveals(), 10);
        // The ledgers keep full counts past the journal cap.
        assert_eq!(log.events_total(), EVENT_CAP as u64 + 10);
        assert_eq!(
            log.query_ledger(0).unwrap().reveal_events,
            EVENT_CAP as u64 + 10
        );
    }

    #[test]
    fn explain_reveal_chains_request_to_bytes() {
        let mut log = AuditLog::new(2);
        let req = log.begin_request(1, "t", true, 3, "stmt", "update", 100);
        log.note_reveal(
            1,
            req,
            "t",
            true,
            3,
            RevealStamp {
                kind: "params",
                path: "statement",
                level: "stmt",
                bytes: 42,
                pairs: 1,
            },
            105,
        );
        let seq = log.events()[0].seq;
        let doc = log.explain_reveal(seq).unwrap();
        let chain = match doc.get("chain").unwrap() {
            Json::Arr(steps) => steps,
            _ => panic!("chain is an array"),
        };
        let names: Vec<&str> = chain
            .iter()
            .map(|s| s.get("step").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            vec!["request", "decision_path", "exposure_level", "reveal"]
        );
        // Time-ordered: each step's stamp is >= its predecessor's.
        let times: Vec<u64> = chain
            .iter()
            .map(|s| s.get("at_micros").unwrap().as_u64().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            chain[3].get("bytes").unwrap().as_u64(),
            Some(42),
            "chain terminates in the measured bytes"
        );
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
        let req = log.begin_request(0, "t", false, 0, "view", "query", 0);
        log.note_reveal(0, req, "t", false, 0, stamp("view_rows", 1), 0);
        assert_eq!(log.write_errors(), 0);
        let health = log.summary_json();
        let journal = health.get("journal").unwrap();
        assert_eq!(journal.get("lines").unwrap().as_u64(), Some(1));
        assert_eq!(journal.get("active"), Some(&Json::Bool(true)));

        let mut broken = AuditLog::new(1);
        broken.attach_journal(Box::new(Broken));
        let req = broken.begin_request(0, "t", false, 0, "view", "query", 0);
        broken.note_reveal(0, req, "t", false, 0, stamp("view_rows", 1), 0);
        broken.note_reveal(0, req, "t", false, 0, stamp("view_rows", 1), 1);
        assert_eq!(broken.write_errors(), 2, "failures counted, not raised");
        let health = broken.summary_json();
        assert_eq!(
            health
                .get("journal")
                .unwrap()
                .get("write_errors")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn replicas_register_lazily_for_joiners() {
        let mut log = AuditLog::new(1);
        let req = log.begin_request(4, "t", false, 0, "blind", "query", 0);
        log.note_reveal(4, req, "t", false, 0, stamp("template_id", 8), 0);
        let doc = log.summary_json();
        let replicas = match doc.get("replicas").unwrap() {
            Json::Arr(r) => r,
            _ => panic!("replica array"),
        };
        assert_eq!(replicas.len(), 5);
        assert_eq!(replicas[4].get("reveal_events").unwrap().as_u64(), Some(1));
    }
}
