//! One pass of a workload's stream through its system under test: a closed
//! loop, one client, one thread. Timed passes stamp only `Instant`s; traced
//! passes also record bench-side spans and check every served result
//! against the master.

use crate::sut::{Counters, Sut};
use crate::workloads::{BoundOp, Request};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A stopwatch whose reading can be wound back, so the oracle and the span
/// bookkeeping between two operations never appear on the span timeline.
struct Clock {
    base: Instant,
    hidden: Duration,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            base: Instant::now(),
            hidden: Duration::ZERO,
        }
    }

    fn now_ns(&self) -> u64 {
        (self.base.elapsed() - self.hidden).as_nanos() as u64
    }

    /// Makes the clock read `ns` (an earlier reading) again: everything
    /// since then is hidden. Costs one clock read, which stays visible.
    fn rewind_to(&mut self, ns: u64) {
        self.hidden = self.base.elapsed() - Duration::from_nanos(ns);
    }
}

/// A measure of how fast the host is *during* a pass: a fixed slice of
/// high-IPC integer work (four independent chains and L1 stores), run
/// between requests every [`HOST_PROBE_EVERY_NS`] and kept off the span
/// timeline. This box shares its cores: for seconds at a time a neighbour
/// slows throughput-bound code by up to 40 %, and a slice slows with it
/// (correlation 0.5-0.9 with a pass's time), so timings scaled by the slice
/// time repeat about twice as closely as raw ones (README, "Noise").
pub struct HostProbe {
    table: [u64; 4096],
    chains: [u64; 4],
    total_ns: u64,
    slices: u64,
}

/// Wall time between two host-probe slices (~12 us each: 0.6 % of a pass).
const HOST_PROBE_EVERY_NS: u64 = 2_000_000;

impl HostProbe {
    fn new() -> HostProbe {
        HostProbe {
            table: [0; 4096],
            chains: [1, 2, 3, 4],
            total_ns: 0,
            slices: 0,
        }
    }

    fn slice(&mut self) {
        let [mut a, mut b, mut c, mut d] = self.chains;
        let t = Instant::now();
        for _ in 0..5_000 {
            a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
            b = b.wrapping_mul(2862933555777941757).wrapping_add(3);
            c ^= c << 13;
            c ^= c >> 7;
            c ^= c << 17;
            d = d.wrapping_add(a ^ b).rotate_left(9);
            self.table[(a >> 52) as usize] = self.table[(a >> 52) as usize].wrapping_add(d);
            self.table[(b >> 52) as usize] ^= c;
        }
        black_box(&self.table);
        self.total_ns += t.elapsed().as_nanos() as u64;
        self.slices += 1;
        self.chains = [a, b, c, d];
    }

    /// Mean nanoseconds per slice.
    pub fn slice_ns(&self) -> f64 {
        self.total_ns as f64 / self.slices.max(1) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Request,
    QueryHit,
    QueryMiss,
    Update,
    /// An update the master rejects, answered `Err` as predicted.
    UpdateRejected,
    /// The home tier's busy time inside an op: the `service_nanos()` delta
    /// across the call. Its duration is measured by the program; where
    /// inside the op it fell is not exported, so it is pinned to the op's
    /// start.
    Home,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::QueryHit => "op.query_hit",
            SpanKind::QueryMiss => "op.query_miss",
            SpanKind::Update => "op.update",
            SpanKind::UpdateRejected => "op.update_rejected",
            SpanKind::Home => "home",
        }
    }
}

/// A bench-side span. Ids start at 1; `parent` 0 means none. Spans of
/// one request share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (never below zero). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if s.parent != 0 {
            let p = &mut own[s.parent as usize - 1];
            *p = p.saturating_sub(s.duration());
        }
    }
    own
}

/// Failed operations a pass describes (the first ones); all are counted.
const FAILURES_SHOWN: usize = 5;

/// What a pass measured. Latencies are in nanoseconds, unsorted.
pub struct PassResult {
    pub loop_ns: u64,
    pub ops: u64,
    /// Updates the master rejects and the program answered `Err`, as the
    /// stream predicted. Not failures.
    pub rejected: u64,
    /// Operations whose outcome differed from the stream's prediction (an
    /// `Err` where the master accepts, an `Ok` where it rejects) or
    /// (traced passes) whose result differed from the master's at serve
    /// time.
    pub failed: u64,
    /// Request index, template id, reason and statement text of the
    /// first [`FAILURES_SHOWN`] failed operations.
    pub failures: Vec<String>,
    /// A request runs from its first operation's start to its last one's
    /// end.
    pub request_ns: Vec<u64>,
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    /// Rows the home tier returned on misses.
    pub home_rows: u64,
    /// Order-sensitive digest of every operation's outcome (hit, miss,
    /// applied or rejected; result size, entries invalidated): equal
    /// digests mean a timed pass served what the oracle-checked traced
    /// pass served.
    pub digest: u64,
    pub counters: Counters,
    pub host: HostProbe,
    /// Traced passes only.
    pub spans: Vec<Span>,
}

impl PassResult {
    fn fail(&mut self, request: usize, op: &BoundOp, why: &str) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            let (what, template, text) = match op {
                BoundOp::Query(q) => ("query", q.template_id, q.statement_text()),
                BoundOp::Update(u) | BoundOp::RejectedUpdate(u) => {
                    ("update", u.template_id, u.statement_text())
                }
            };
            self.failures.push(format!(
                "request {request}, {what} template {template} {why}: {text}"
            ));
        }
    }
}

fn mix(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Replays `stream` against `sut`. With `traced`, records spans and runs
/// the oracle (needs a `Sut` built `with_oracle`).
pub fn run_pass(sut: &mut Sut, stream: &[Request], traced: bool) -> PassResult {
    let total_ops: usize = stream.iter().map(|r| r.ops.len()).sum();
    let mut out = PassResult {
        loop_ns: 0,
        ops: 0,
        rejected: 0,
        failed: 0,
        failures: Vec::new(),
        request_ns: Vec::with_capacity(stream.len()),
        hit_ns: Vec::with_capacity(total_ops),
        miss_ns: Vec::with_capacity(total_ops),
        update_ns: Vec::with_capacity(total_ops),
        home_rows: 0,
        digest: 0xcbf2_9ce4_8422_2325,
        counters: sut.counters(),
        host: HostProbe::new(),
        spans: Vec::with_capacity(if traced {
            stream.len() + 2 * total_ops
        } else {
            0
        }),
    };
    let mut clock = Clock::start();
    let mut next_probe = 0;
    // Read again after each op, off the timeline; nothing touches the home
    // tier between requests.
    let mut home_before = if traced { sut.home_nanos() } else { 0 };
    for (rix, request) in stream.iter().enumerate() {
        let request_id = out.spans.len() as u32 + 1;
        if traced {
            out.spans.push(Span {
                id: request_id,
                parent: 0,
                request: rix as u32,
                kind: SpanKind::Request,
                start_ns: 0,
                end_ns: 0,
            });
        }
        let now = clock.now_ns();
        if now >= next_probe {
            out.host.slice();
            clock.rewind_to(now);
            next_probe = now + HOST_PROBE_EVERY_NS;
        }
        let mut request_span = None;
        for op in &request.ops {
            let start = clock.now_ns();
            // Freeing a response is part of serving it, so a timed pass
            // drops it before the end stamp; a traced pass keeps query
            // results for the oracle instead.
            let outcome = match op {
                BoundOp::Query(q) => match sut.query(q) {
                    Ok(resp) => {
                        let rows = resp.result.len() as u64;
                        let kind = if resp.hit {
                            SpanKind::QueryHit
                        } else {
                            SpanKind::QueryMiss
                        };
                        Ok((kind, rows, traced.then_some(resp.result)))
                    }
                    Err(e) => Err(format!("failed ({e})")),
                },
                BoundOp::Update(u) => match sut.update(u) {
                    Ok(resp) => Ok((SpanKind::Update, resp.invalidated as u64, None)),
                    Err(e) => Err(format!("rejected ({e}) though the master accepts it")),
                },
                BoundOp::RejectedUpdate(u) => match sut.update(u) {
                    Err(_) => Ok((SpanKind::UpdateRejected, 0, None)),
                    Ok(_) => Err("accepted though the master rejects it".to_string()),
                },
            };
            let end = clock.now_ns();
            out.ops += 1;
            request_span = Some((request_span.map_or(start, |s: (u64, u64)| s.0), end));
            let (kind, size, result) = match outcome {
                Ok(served) => served,
                Err(why) => {
                    out.fail(rix, op, &why);
                    if traced {
                        home_before = sut.home_nanos();
                    }
                    continue;
                }
            };
            out.digest = mix(out.digest, size << 3 | kind as u64);
            match kind {
                SpanKind::QueryHit => out.hit_ns.push(end - start),
                SpanKind::QueryMiss => {
                    out.home_rows += size;
                    out.miss_ns.push(end - start);
                }
                SpanKind::Update => out.update_ns.push(end - start),
                _ => out.rejected += 1,
            }
            if !traced {
                continue;
            }
            // Oracle and span bookkeeping stay off the span timeline.
            let home_after = sut.home_nanos();
            let home = home_after - home_before;
            home_before = home_after;
            match op {
                BoundOp::Query(q) => {
                    let served = result.as_ref().expect("a traced pass keeps results");
                    if !sut.oracle_accepts(q, served) {
                        out.fail(rix, op, "served a result unlike the master's");
                    }
                }
                BoundOp::Update(u) => sut.oracle_note_update(u),
                BoundOp::RejectedUpdate(_) => {}
            }
            let op_id = out.spans.len() as u32 + 1;
            out.spans.push(Span {
                id: op_id,
                parent: request_id,
                request: rix as u32,
                kind,
                start_ns: start,
                end_ns: end,
            });
            if home > 0 {
                out.spans.push(Span {
                    id: op_id + 1,
                    parent: op_id,
                    request: rix as u32,
                    kind: SpanKind::Home,
                    start_ns: start,
                    // The program's stopwatch and the bench's are read
                    // at different instants; a child never outlasts
                    // its parent on the timeline.
                    end_ns: start + home.min(end - start),
                });
            }
            drop(result);
            clock.rewind_to(end);
        }
        let (request_start, request_end) = request_span.expect("a request has operations");
        out.request_ns.push(request_end - request_start);
        if traced {
            let span = &mut out.spans[request_id as usize - 1];
            span.start_ns = request_start;
            span.end_ns = request_end;
        }
    }
    out.loop_ns = clock.now_ns();
    out.counters = sut.counters();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            kind: SpanKind::Request,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, 0, 100), // request
            span(2, 1, 10, 40), // op
            span(3, 2, 10, 25), // home under op
            span(4, 1, 50, 90), // op
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 15, 15, 40]);
    }

    #[test]
    fn self_time_never_underflows() {
        let spans = [span(1, 0, 0, 10), span(2, 1, 0, 12)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn rewound_clock_hides_what_came_between() {
        let mut clock = Clock::start();
        let before = clock.now_ns();
        std::thread::sleep(Duration::from_millis(20));
        clock.rewind_to(before);
        assert!(clock.hidden >= Duration::from_millis(20));
        assert!(clock.now_ns() >= before);
    }
}
