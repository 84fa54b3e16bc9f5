//! Per-request causal span trees for the DSSP pipeline.
//!
//! A [`Span`] ties one unit of pipeline work to the request (or
//! invalidation delivery) that caused it: every span carries a parent
//! [`SpanId`], a phase tag ([`SpanPhase`]), the simulation clock at which
//! it happened (`at_micros`), and the *wall-clock* nanoseconds the work
//! took (`elapsed_nanos`). Two clocks on purpose: inside one simulated
//! operation the sim clock does not advance, so causal durations must
//! come from the host clock, while the sim clock places the span on the
//! same time axis as trace events and time-series windows.
//!
//! Recording is opt-in and bounded: a disabled [`SpanRecorder`] costs a
//! branch per call site and never touches [`std::time::Instant`]; an
//! enabled one appends into a pre-sized vector and counts (rather than
//! stores) spans past its capacity. The export is a per-template
//! critical-path summary that attributes each root's wall time to its
//! child phases.

use crate::json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// Identity of one span; `SpanId::NONE` marks a root (no parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The null id: used as the `parent` of root spans.
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// What a span measures. Roots are whole requests (or whole deliveries);
/// children are the pipeline phases the issue's causal model names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Root: one client query through the proxy.
    QueryRequest,
    /// Root: one client update through the proxy.
    UpdateRequest,
    /// Root: delivery of one invalidation notification (the fan-out walk
    /// over the cache, or the recovery it degenerated into).
    InvalidationFanout,
    /// Child of a query root: the cache probe (key construction, lease
    /// check, classification).
    CacheLookup,
    /// Child of a query root: encrypting and storing the fetched result
    /// (a no-op envelope at `View` exposure, real crypto below it).
    Crypto,
    /// Child of a query/update root: the home-server round trip.
    HomeTrip,
    /// Child of a fan-out root (or a root on restart): a recovery flush.
    Recovery,
    /// Root: a fleet routing decision (which replica serves a template).
    Routing,
    /// Root: the fanout layer cutting and shipping one invalidation
    /// batch to every replica pipe.
    FanoutFlush,
    /// Root: one replica applying a delivered invalidation batch (the
    /// batched analogue of [`SpanPhase::InvalidationFanout`]; a gap
    /// hangs its [`SpanPhase::Recovery`] child underneath).
    BatchApply,
}

impl SpanPhase {
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::QueryRequest => "query_request",
            SpanPhase::UpdateRequest => "update_request",
            SpanPhase::InvalidationFanout => "invalidation_fanout",
            SpanPhase::CacheLookup => "cache_lookup",
            SpanPhase::Crypto => "crypto",
            SpanPhase::HomeTrip => "home_trip",
            SpanPhase::Recovery => "recovery",
            SpanPhase::Routing => "routing",
            SpanPhase::FanoutFlush => "fanout_flush",
            SpanPhase::BatchApply => "batch_apply",
        }
    }

    /// Whether this phase starts a span tree.
    pub fn is_root(self) -> bool {
        matches!(
            self,
            SpanPhase::QueryRequest
                | SpanPhase::UpdateRequest
                | SpanPhase::InvalidationFanout
                | SpanPhase::Routing
                | SpanPhase::FanoutFlush
                | SpanPhase::BatchApply
        )
    }
}

/// One recorded span. `template` is the query template for query roots
/// and lookup/crypto children, and the update template for update and
/// fan-out roots; `None` where no template applies (recovery flushes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub phase: SpanPhase,
    pub template: Option<u32>,
    /// Simulation clock when the span was opened (µs).
    pub at_micros: u64,
    /// Host wall-clock duration of the work (ns); 0 while still open.
    pub elapsed_nanos: u64,
}

/// A wall-clock stopwatch handed out by [`SpanRecorder::timer`]; inert
/// (and free) when the recorder is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    fn elapsed_nanos(self) -> u64 {
        match self.0 {
            Some(t) => t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            None => 0,
        }
    }
}

/// Bounded, opt-in span store. Ids are monotone from 1; only the first
/// `capacity` spans are stored, later ones are counted as dropped (their
/// ids stay valid as parents, so a stored child can reference a dropped
/// root and vice versa — the summary simply undercounts, visibly).
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
    enabled: bool,
}

impl SpanRecorder {
    /// A recorder that records nothing (the default state).
    pub fn disabled() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// A recorder storing up to `capacity` spans.
    pub fn enabled(capacity: usize) -> SpanRecorder {
        assert!(capacity > 0, "span recorder needs capacity >= 1");
        SpanRecorder {
            spans: Vec::new(),
            capacity,
            next_id: 0,
            dropped: 0,
            enabled: true,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a stopwatch — `None`-backed (free) when disabled.
    pub fn timer(&self) -> SpanTimer {
        SpanTimer(if self.enabled {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Opens a span (typically a root, closed later via
    /// [`SpanRecorder::close`] so children can be recorded under it).
    pub fn open(
        &mut self,
        at_micros: u64,
        phase: SpanPhase,
        parent: SpanId,
        template: Option<u32>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.next_id += 1;
        let id = SpanId(self.next_id);
        let span = Span {
            id,
            parent,
            phase,
            template,
            at_micros,
            elapsed_nanos: 0,
        };
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Closes `id` with the elapsed time of `timer`. No-op for dropped
    /// or `NONE` ids.
    pub fn close(&mut self, id: SpanId, timer: SpanTimer) {
        if !self.enabled || id.is_none() {
            return;
        }
        // Stored spans are exactly ids 1..=len (storage is a prefix of
        // the id sequence), so the index is direct.
        let idx = (id.0 - 1) as usize;
        if let Some(span) = self.spans.get_mut(idx) {
            span.elapsed_nanos = timer.elapsed_nanos();
        }
    }

    /// Records a complete child span in one call.
    pub fn record_closed(
        &mut self,
        at_micros: u64,
        phase: SpanPhase,
        parent: SpanId,
        template: Option<u32>,
        timer: SpanTimer,
    ) -> SpanId {
        let id = self.open(at_micros, phase, parent, template);
        self.close(id, timer);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans stored (≤ capacity).
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Spans past capacity, counted instead of stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregates spans into per-(root phase, template) rows: how many
    /// roots ran, their total wall time, the wall time attributable to
    /// each child phase, and which phase dominates (the critical path).
    pub fn critical_path(&self) -> Vec<CriticalPathRow> {
        use std::collections::BTreeMap;
        let mut root_of: HashMap<u64, (SpanPhase, Option<u32>)> = HashMap::new();
        let mut rows: BTreeMap<(SpanPhase, Option<u32>), CriticalPathRow> = BTreeMap::new();
        for span in &self.spans {
            if span.parent.is_none() {
                root_of.insert(span.id.as_u64(), (span.phase, span.template));
                let row = rows
                    .entry((span.phase, span.template))
                    .or_insert_with(|| CriticalPathRow::new(span.phase, span.template));
                row.count += 1;
                row.total_nanos += span.elapsed_nanos;
            }
        }
        for span in &self.spans {
            if span.parent.is_none() {
                continue;
            }
            // Children of dropped roots fall outside every row — they are
            // part of the `dropped()` undercount.
            if let Some(&key) = root_of.get(&span.parent.as_u64()) {
                let row = rows
                    .entry(key)
                    .or_insert_with(|| CriticalPathRow::new(key.0, key.1));
                let slot = row.phases.entry(span.phase.name()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += span.elapsed_nanos;
            }
        }
        rows.into_values().collect()
    }

    /// The critical-path summary plus recorder health, as a report
    /// section. Every leaf is deterministic per seed (span and child
    /// *counts*); the wall-clock half is [`SpanRecorder::host_json`].
    pub fn summary_json(&self) -> Json {
        let rows: Vec<Json> = self.critical_path().iter().map(|r| r.to_json()).collect();
        Json::obj([
            ("enabled", self.enabled.into()),
            ("recorded", self.recorded().into()),
            ("dropped", self.dropped().into()),
            ("critical_path", Json::from(rows)),
        ])
    }

    /// The host-timing half of the critical-path rows: wall-clock
    /// nanoseconds per root and child phase, and the dominant phase they
    /// imply. Varies by machine and run, so it is kept out of
    /// [`SpanRecorder::summary_json`] and of any committed report.
    pub fn host_json(&self) -> Json {
        Json::from(
            self.critical_path()
                .iter()
                .map(CriticalPathRow::host_json)
                .collect::<Vec<Json>>(),
        )
    }
}

/// One row of [`SpanRecorder::critical_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathRow {
    pub root: SpanPhase,
    pub template: Option<u32>,
    /// Root spans aggregated into this row.
    pub count: u64,
    /// Total wall time of those roots (ns).
    pub total_nanos: u64,
    /// Per child phase: `(spans, total ns)`.
    pub phases: std::collections::BTreeMap<&'static str, (u64, u64)>,
}

impl CriticalPathRow {
    fn new(root: SpanPhase, template: Option<u32>) -> CriticalPathRow {
        CriticalPathRow {
            root,
            template,
            count: 0,
            total_nanos: 0,
            phases: std::collections::BTreeMap::new(),
        }
    }

    /// The child phase with the largest total wall time, if any child
    /// spans were recorded.
    pub fn critical_phase(&self) -> Option<&'static str> {
        self.phases
            .iter()
            .max_by_key(|(_, &(_, nanos))| nanos)
            .map(|(&name, _)| name)
    }

    /// The deterministic leaves: which rows exist and how many spans
    /// each aggregated.
    pub fn to_json(&self) -> Json {
        let phases = self.phases_json(|count, _| Json::obj([("count", count.into())]));
        Json::obj([
            ("root", self.root.name().into()),
            ("template", self.template.map(|t| t as u64).into()),
            ("count", self.count.into()),
            ("phases", phases),
        ])
    }

    /// The wall-clock leaves of the same row (see
    /// [`SpanRecorder::host_json`]).
    pub fn host_json(&self) -> Json {
        let phases = self.phases_json(|_, nanos| Json::obj([("total_ns", nanos.into())]));
        Json::obj([
            ("root", self.root.name().into()),
            ("template", self.template.map(|t| t as u64).into()),
            ("total_ns", self.total_nanos.into()),
            ("phases", phases),
            ("critical_phase", self.critical_phase().into()),
        ])
    }

    fn phases_json(&self, leaf: impl Fn(u64, u64) -> Json) -> Json {
        Json::Obj(
            self.phases
                .iter()
                .map(|(&name, &(count, nanos))| (name.to_string(), leaf(count, nanos)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = SpanRecorder::disabled();
        let t = rec.timer();
        let root = rec.open(10, SpanPhase::QueryRequest, SpanId::NONE, Some(1));
        assert!(root.is_none());
        rec.record_closed(10, SpanPhase::CacheLookup, root, Some(1), t);
        rec.close(root, t);
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.dropped(), 0);
        assert!(rec.critical_path().is_empty());
    }

    #[test]
    fn spans_form_a_parented_tree() {
        let mut rec = SpanRecorder::enabled(16);
        let rt = rec.timer();
        let root = rec.open(100, SpanPhase::QueryRequest, SpanId::NONE, Some(2));
        let ct = rec.timer();
        let child = rec.record_closed(100, SpanPhase::HomeTrip, root, Some(2), ct);
        rec.close(root, rt);
        assert_eq!(rec.recorded(), 2);
        let spans = rec.spans();
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].parent, SpanId::NONE);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].phase, SpanPhase::HomeTrip);
        assert!(spans.iter().all(|s| s.at_micros == 100));
    }

    #[test]
    fn capacity_overflow_drops_and_counts() {
        let mut rec = SpanRecorder::enabled(2);
        for i in 0..5u32 {
            let t = rec.timer();
            rec.record_closed(i as u64, SpanPhase::QueryRequest, SpanId::NONE, Some(i), t);
        }
        assert_eq!(rec.recorded(), 2);
        assert_eq!(rec.dropped(), 3);
        // Closing a dropped id is a no-op, not a panic.
        let t = rec.timer();
        let id = rec.open(9, SpanPhase::UpdateRequest, SpanId::NONE, None);
        rec.close(id, t);
        assert_eq!(rec.dropped(), 4);
    }

    #[test]
    fn critical_path_attributes_child_time_per_template() {
        let mut rec = SpanRecorder::enabled(64);
        for template in [0u32, 0, 1] {
            let rt = rec.timer();
            let root = rec.open(0, SpanPhase::QueryRequest, SpanId::NONE, Some(template));
            let t = rec.timer();
            rec.record_closed(0, SpanPhase::CacheLookup, root, Some(template), t);
            let t = rec.timer();
            rec.record_closed(0, SpanPhase::HomeTrip, root, Some(template), t);
            rec.close(root, rt);
        }
        let rows = rec.critical_path();
        assert_eq!(rows.len(), 2);
        let row0 = rows.iter().find(|r| r.template == Some(0)).unwrap();
        assert_eq!(row0.count, 2);
        assert_eq!(row0.phases["cache_lookup"].0, 2);
        assert_eq!(row0.phases["home_trip"].0, 2);
        let row1 = rows.iter().find(|r| r.template == Some(1)).unwrap();
        assert_eq!(row1.count, 1);
        // Summary section renders and carries the health counters.
        let doc = rec.summary_json();
        assert_eq!(doc.get("recorded").unwrap().as_u64(), Some(9));
        assert_eq!(doc.get("dropped").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("critical_path").unwrap().as_arr().unwrap().len(), 2);
        // Wall-clock leaves live only in the host half.
        assert!(!doc.render().contains("_ns") && !doc.render().contains("critical_phase"));
        let host = rec.host_json();
        let host_row = host.index(0).unwrap();
        assert!(host_row.get("total_ns").is_some() && host_row.get("count").is_none());
        assert!(host_row.get("critical_phase").unwrap().as_str().is_some());
    }
}
