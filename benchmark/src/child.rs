//! One pass, in a process of its own: set up, run the pass,
//! print what was measured as one JSON object on the last line of stdout.
//! The parent (`orchestrate.rs`) takes medians across a run's passes.

use crate::pass::{run_pass, self_times, PassResult, Span, SpanKind};
use crate::stats::{highest_supported_percentile, percentile_sorted};
use crate::sut::Sut;
use crate::workloads::{build_inputs, gen_stream, WorkloadSpec};
use scs_telemetry::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stamps only; the end-to-end numbers.
    Timed,
    /// As `Timed`, with the program's own span recorder switched on.
    TimedProgramSpans,
    /// Bench-side spans plus the oracle; the in-situ layer numbers.
    Traced,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::TimedProgramSpans => "timed-program-spans",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::TimedProgramSpans, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Microseconds, ascending.
fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean latency in microseconds of one kind of operation; 0 when the pass
/// had none. A mean, not a median: the operations of one kind are a mix of
/// templates whose costs lie far apart (a miss is a 4 us key lookup or a
/// 250 us scan), so their median sits on a step between two templates and
/// jumps with the mix, while the mean moves by as much as the mix does.
fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e3 / ns.len().max(1) as f64
}

/// The exact-repeat counts of a pass: every pass of a (workload, seed)
/// must print the same object.
fn counts_json(r: &PassResult) -> Json {
    let c = &r.counters;
    Json::obj([
        ("ops", r.ops.into()),
        ("requests", r.request_ns.len().into()),
        ("hits", c.stats.hits.into()),
        ("misses", c.stats.misses.into()),
        ("updates", c.stats.updates.into()),
        ("rejected", r.rejected.into()),
        ("invalidations", c.stats.invalidations.into()),
        ("entries_scanned", c.stats.entries_scanned.into()),
        ("evictions", c.stats.evictions.into()),
        ("cache_entries", c.cache_entries.into()),
        ("home_queries", c.home_queries.into()),
        ("home_updates", c.home_updates.into()),
        ("home_rows", r.home_rows.into()),
        ("scatter_queries", c.scatter_queries.into()),
        ("fanout_msgs", c.fanout_msgs.into()),
        // Json numbers are f64: keep the digest's exact low 52 bits.
        ("digest", (r.digest & ((1 << 52) - 1)).into()),
    ])
}

/// The in-situ layer split of a traced pass.
fn layers_json(r: &PassResult) -> Json {
    let own = self_times(&r.spans);
    let mut home_ns = [0u64; 3]; // under [miss, update, rejected update]
    let mut self_ns = [0u64; 4]; // of [hit, miss, update, rejected update]
    let mut covered = 0usize;
    let mut requests = 0usize;
    let mut request_ns = 0u64;
    let mut request_self_ns = 0u64;
    let kind_of = |id: u32| r.spans[id as usize - 1].kind;
    for (s, own_ns) in r.spans.iter().zip(&own) {
        match s.kind {
            SpanKind::Request => {
                // What the request's ops (home children included) do
                // not cover is the bench's own time between them.
                requests += 1;
                request_ns += s.duration();
                request_self_ns += own_ns;
                covered += (*own_ns * 20 <= s.duration()) as usize;
            }
            SpanKind::QueryHit => self_ns[0] += own_ns,
            SpanKind::QueryMiss => self_ns[1] += own_ns,
            SpanKind::Update => self_ns[2] += own_ns,
            SpanKind::UpdateRejected => self_ns[3] += own_ns,
            SpanKind::Home => match kind_of(s.parent) {
                SpanKind::Update => home_ns[1] += s.duration(),
                SpanKind::UpdateRejected => home_ns[2] += s.duration(),
                _ => home_ns[0] += s.duration(),
            },
        }
    }
    let loop_ns = r.loop_ns as f64;
    let per = |total: u64, n: usize| total as f64 / n.max(1) as f64;
    Json::obj([
        (
            "storage.home_share",
            Json::Num(home_ns.iter().sum::<u64>() as f64 / loop_ns),
        ),
        (
            "dssp.proxy.self_share",
            Json::Num(self_ns.iter().sum::<u64>() as f64 / loop_ns),
        ),
        (
            "storage.query_ns",
            Json::Num(per(home_ns[0], r.miss_ns.len())),
        ),
        (
            "storage.update_ns",
            Json::Num(per(home_ns[1], r.update_ns.len())),
        ),
        (
            "dssp.proxy.hit_self_ns",
            Json::Num(per(self_ns[0], r.hit_ns.len())),
        ),
        (
            "dssp.proxy.miss_self_ns",
            Json::Num(per(self_ns[1], r.miss_ns.len())),
        ),
        (
            "dssp.proxy.update_self_ns",
            Json::Num(per(self_ns[2], r.update_ns.len())),
        ),
        (
            "telemetry.span_coverage_ratio",
            Json::Num(1.0 - request_self_ns as f64 / request_ns.max(1) as f64),
        ),
        (
            // Requests whose ops cover at least 95 % of their span.
            "telemetry.requests_covered_ratio",
            Json::Num(covered as f64 / requests.max(1) as f64),
        ),
    ])
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.request,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

/// Runs one repeat and returns its report: timings as this host measured
/// them (the parent scales them by `host.slice_ns`). A traced repeat
/// writes its spans to `spans_out` when given.
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    mode: Mode,
    spans_out: Option<&Path>,
) -> Result<Json, String> {
    let traced = mode == Mode::Traced;

    let t = Instant::now();
    let inputs = build_inputs(spec, seed);
    let stream = gen_stream(spec, &inputs, seed, spec.requests);
    let mut sut = Sut::build(spec.topology, &inputs, traced);
    let setup_s = t.elapsed().as_secs_f64();

    if mode == Mode::TimedProgramSpans {
        sut.enable_program_spans();
    }
    let r = run_pass(&mut sut, &stream, traced);

    let request_us = sorted_us(&r.request_ns);
    let tail_q = highest_supported_percentile(request_us.len()).unwrap_or(0.5);
    let mut fields = vec![
        ("mode", Json::from(mode.name())),
        ("host.slice_ns", Json::Num(r.host.slice_ns())),
        ("setup_s", Json::Num(setup_s)),
        (
            "ops_per_s",
            Json::Num(r.ops as f64 / (r.loop_ns as f64 / 1e9)),
        ),
        ("req_p50_us", Json::Num(percentile_sorted(&request_us, 0.5))),
        (
            "req_p95_us",
            Json::Num(percentile_sorted(&request_us, 0.95)),
        ),
        ("req_tail_q", Json::Num(tail_q)),
        (
            "req_tail_us",
            Json::Num(percentile_sorted(&request_us, tail_q)),
        ),
        ("hit_mean_us", Json::Num(mean_us(&r.hit_ns))),
        ("miss_mean_us", Json::Num(mean_us(&r.miss_ns))),
        ("update_mean_us", Json::Num(mean_us(&r.update_ns))),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
        ("failed", r.failed.into()),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("counts", counts_json(&r)),
    ];
    if traced {
        fields.push(("layers", layers_json(&r)));
        if let Some(path) = spans_out {
            write_spans(path, &r.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(Json::obj(fields))
}
