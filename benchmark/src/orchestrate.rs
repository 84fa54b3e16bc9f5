//! The parent process: schedules fresh child processes (one pass each) in
//! rounds, each round a stream of its own, puts their timings on the
//! reference box's clock, takes medians over the rounds, checks that the
//! passes of one round print the same counts and that the oracle-checked
//! pass agrees with the timed one, runs the sim-time trial and the probes,
//! and assembles each workload's metrics.

use crate::child::Mode;
use crate::metrics::{HostScaled, END_TO_END, HOST_SCALED_LAYERS, PER_LAYER};
use crate::stats::median;
use crate::workloads::{build_inputs, Topology, WorkloadSpec};
use crate::{probes, sut};
use scs_apps::BenchApp;
use scs_telemetry::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A host-probe slice on the reference box (2 cores, the one the README's
/// numbers come from) when it is quiet, in nanoseconds. Scaled timings are
/// what that box would have measured, so they compare between runs on it
/// and not between machines; `results.json` carries the raw medians too.
const REFERENCE_SLICE_NS: f64 = 12_700.0;

/// A repeat whose host probe is this far off its set's median ran on a
/// host too disturbed for scaling to put right, and is rerun. (The probe's
/// own repeat-to-repeat spread on a quiet host is about 4 %.)
const CALIB_TOLERANCE: f64 = 0.10;
const MAX_RETRIES: usize = 3;

/// A median needs at least this many repeats, whatever the time budget.
const MIN_ROUNDS: usize = 3;

/// The workload whose rounds carry a program-spans child each, for
/// `telemetry.spans_on_ratio` (ROADMAP item 5's budget number). The others
/// run one such child, so the key is in every result.
const SPANS_ON_WORKLOAD: &str = "auction_view";

/// Share of request-span time the op spans must cover, and share of
/// requests that must individually be covered that far.
const MIN_SPAN_COVERAGE: f64 = 0.95;

pub struct Plan {
    pub seed: u64,
    /// Seconds of child-process time to spend per workload on rounds.
    pub seconds: f64,
    /// Also run a traced repeat every round, the program-spans repeats and
    /// the probes: everything the per-layer metrics need.
    pub trace: bool,
}

/// The seed of round `round`'s inputs. Every round replays a stream of its
/// own: how long a miss or a request takes differs between seeds by 10 %
/// and more (another database, another mix of templates), so the median
/// over one run's rounds is a median over that many streams and repeats far
/// more closely between `--seed`s than any one stream does. Round 0 is
/// `seed` itself: its counts, spans, sim trial and probes are the ones
/// reported. (53 bits, so a seed survives a JSON number.)
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        return seed;
    }
    // The splitmix64 finaliser.
    let mut z = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// Where a workload's traced pass writes its spans.
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/{workload}.spans.jsonl"))
}

pub struct WorkloadReport {
    pub name: &'static str,
    /// Every metric computed, end-to-end and (with `Plan::trace`) per-layer;
    /// timings host-scaled.
    pub metrics: Vec<(&'static str, f64)>,
    /// The host-scaled end-to-end metrics as this host measured them, and
    /// the median scale (`host.scale`) between the two.
    pub raw: Vec<(&'static str, f64)>,
    /// The exact-repeat counts of one pass.
    pub counts: Json,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Runs round `round`'s pass of `spec` in a process of its own.
fn spawn_child(spec: &WorkloadSpec, plan: &Plan, round: usize, mode: Mode) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        spec.name,
        "--seed",
        &round_seed(plan.seed, round).to_string(),
    ]);
    cmd.args(["--mode", mode.name()]);
    // The spans kept are those of the run's own seed.
    if mode == Mode::Traced && round == 0 {
        cmd.arg("--spans").arg(spans_path(spec.name));
    }
    // `output` waits for the child to end; what it says on stderr shows.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child failed ({})",
            spec.name,
            mode.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{} child printed no report: {e}", spec.name))
}

fn get(report: &Json, key: &str) -> f64 {
    report
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("child report lacks `{key}`"))
}

fn count(report: &Json, key: &str) -> u64 {
    report
        .get("counts")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("child report lacks count `{key}`"))
}

/// How much faster than the reference box this host ran the probe slices
/// during the repeat: what its durations are multiplied by.
fn host_scale(report: &Json) -> f64 {
    REFERENCE_SLICE_NS / get(report, "host.slice_ns")
}

fn median_of(reports: &[Json], key: &str, scaled: HostScaled) -> f64 {
    let values: Vec<f64> = reports
        .iter()
        .map(|r| scaled.apply(get(r, key), host_scale(r)))
        .collect();
    median(&values)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A workload's child reports by mode; index = round, so reports at one
/// index replayed the same stream.
#[derive(Default)]
struct Repeats {
    timed: Vec<Json>,
    traced: Vec<Json>,
    program_spans: Vec<Json>,
    retries: usize,
}

impl Repeats {
    fn all(&self) -> impl Iterator<Item = &Json> {
        self.timed
            .iter()
            .chain(&self.traced)
            .chain(&self.program_spans)
    }
}

/// Replaces timed repeats whose calibration is off the set's median.
fn rerun_disturbed(spec: &WorkloadSpec, plan: &Plan, reps: &mut Repeats) -> Result<(), String> {
    while reps.retries < MAX_RETRIES {
        let calib = median_of(&reps.timed, "host.slice_ns", HostScaled::No);
        let Some(off) = reps
            .timed
            .iter()
            .position(|r| (get(r, "host.slice_ns") / calib - 1.0).abs() > CALIB_TOLERANCE)
        else {
            break;
        };
        let rerun = spawn_child(spec, plan, off, Mode::Timed)?;
        if rerun.get("counts") != reps.timed[off].get("counts") {
            return Err(format!(
                "{}: counts differ between two passes of round {off}'s stream",
                spec.name
            ));
        }
        reps.timed[off] = rerun;
        reps.retries += 1;
    }
    Ok(())
}

/// The input-only probes measured so far, by what they depend on.
type InputProbes = Vec<((BenchApp, u32), probes::Probed)>;

/// Measures `specs`, rounds interleaved round-robin across them, each pass
/// a fresh process, each round a stream of its own ([`round_seed`]).
pub fn measure(
    specs: &[&'static WorkloadSpec],
    plan: &Plan,
) -> Result<Vec<WorkloadReport>, String> {
    let mut repeats: Vec<Repeats> = specs.iter().map(|_| Repeats::default()).collect();
    let phase = Instant::now();
    let budget = plan.seconds * specs.len() as f64;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || phase.elapsed().as_secs_f64() < budget {
        for (spec, reps) in specs.iter().zip(&mut repeats) {
            reps.timed
                .push(spawn_child(spec, plan, rounds, Mode::Timed)?);
            if !plan.trace {
                continue;
            }
            reps.traced
                .push(spawn_child(spec, plan, rounds, Mode::Traced)?);
            if rounds == 0 || spec.name == SPANS_ON_WORKLOAD {
                let child = spawn_child(spec, plan, rounds, Mode::TimedProgramSpans)?;
                reps.program_spans.push(child);
            }
        }
        rounds += 1;
    }
    for (spec, reps) in specs.iter().zip(&mut repeats) {
        rerun_disturbed(spec, plan, reps)?;
        if reps.traced.is_empty() {
            // The oracle pass every run is checked against.
            reps.traced.push(spawn_child(spec, plan, 0, Mode::Traced)?);
        }
    }
    eprintln!(
        "dsspbench: {rounds} rounds of {} workload(s) in {:.1}s",
        specs.len(),
        phase.elapsed().as_secs_f64()
    );
    let mut input_probes = InputProbes::new();
    Ok(specs
        .iter()
        .zip(&repeats)
        .map(|(spec, reps)| assemble(spec, plan, reps, &mut input_probes))
        .collect())
}

/// What must hold of a workload's counts and spans whatever the seed.
fn check_shape(spec: &WorkloadSpec, counts: &Json, layers: &[&Json]) -> Vec<String> {
    let mut problems = Vec::new();
    let positive = |key: &str| counts.get(key).and_then(Json::as_u64).unwrap_or(0) > 0;
    let expectations = [
        (
            "scatter_queries",
            matches!(spec.topology, Topology::Shards(_)),
        ),
        ("fanout_msgs", matches!(spec.topology, Topology::Fleet(_))),
        ("evictions", spec.cache_capacity.is_some()),
    ];
    for (key, expected) in expectations {
        if positive(key) != expected {
            problems.push(format!(
                "count `{key}` is {} although this workload {} it",
                if expected { "zero" } else { "positive" },
                if expected { "exercises" } else { "bypasses" }
            ));
        }
    }
    for key in [
        "telemetry.span_coverage_ratio",
        "telemetry.requests_covered_ratio",
    ] {
        let worst = layers.iter().map(|l| get(l, key)).fold(1.0, f64::min);
        if worst < MIN_SPAN_COVERAGE {
            problems.push(format!(
                "{key} is {worst:.4} in a traced pass, below {MIN_SPAN_COVERAGE}"
            ));
        }
    }
    problems
}

/// What must hold between the workloads of an all-workloads run: the MBS
/// pass spends a larger share of its time in the home tier than the MVIS
/// pass of the same stream.
pub fn contrast_problems(reports: &[WorkloadReport]) -> Vec<String> {
    let share = |name: &str| {
        reports
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.metric("storage.home_share"))
    };
    match (share("auction_blind"), share("auction_view")) {
        (Some(blind), Some(view)) if blind <= view => vec![format!(
            "storage.home_share is {blind:.3} on auction_blind, not above auction_view's {view:.3}"
        )],
        _ => Vec::new(),
    }
}

fn assemble(
    spec: &'static WorkloadSpec,
    plan: &Plan,
    reps: &Repeats,
    input_probes: &mut InputProbes,
) -> WorkloadReport {
    let mut problems = Vec::new();
    let counts = reps.timed[0].get("counts").expect("counts").clone();
    let by_round = [&reps.traced, &reps.program_spans]
        .into_iter()
        .flat_map(|reports| reports.iter().enumerate());
    for (round, r) in by_round {
        let timed = reps.timed[round].get("counts");
        if r.get("counts") != timed {
            problems.push(format!(
                "counts differ between two passes of round {round}'s stream: {} vs {}",
                timed.map(Json::render).unwrap_or_default(),
                r.get("counts").map(Json::render).unwrap_or_default()
            ));
            break;
        }
    }
    // Per pass, the oracle-checked ones included: the worst of them.
    let failed = reps
        .all()
        .map(|r| get(r, "failed") as u64)
        .max()
        .unwrap_or(0);
    if failed > 0 {
        problems.push(format!(
            "{failed} operation(s) of a pass failed or served a result unlike the master's"
        ));
        let described = reps
            .all()
            .filter_map(|r| r.get("failures").and_then(Json::as_arr))
            .find(|f| !f.is_empty());
        for f in described.into_iter().flatten() {
            problems.push(f.as_str().unwrap_or_default().to_string());
        }
    }
    let layers: Vec<&Json> = reps
        .traced
        .iter()
        .map(|r| r.get("layers").expect("traced report has layers"))
        .collect();
    problems.extend(check_shape(spec, &counts, &layers));

    // Every end-to-end metric but the simulated one is a median over the
    // timed children. The last two are for the printed table only: the
    // highest percentile the request sample supports, which on a shared
    // host is mostly the host's interruptions (README, "Noise").
    let measured = END_TO_END
        .iter()
        .filter(|m| m.name != "sim_p90_ms")
        .map(|m| (m.name, m.host_scaled))
        .chain([
            ("req_tail_q", HostScaled::No),
            ("req_tail_us", HostScaled::Time),
        ]);
    let mut metrics = Vec::new();
    let mut raw = vec![(
        "host.scale",
        median(&reps.timed.iter().map(host_scale).collect::<Vec<_>>()),
    )];
    for (name, scaled) in measured {
        metrics.push((name, median_of(&reps.timed, name, scaled)));
        if scaled != HostScaled::No {
            raw.push((name, median_of(&reps.timed, name, HostScaled::No)));
        }
    }

    let phase = Instant::now();
    let sim = sut::sim_trial(
        spec.topology,
        build_inputs(spec, plan.seed),
        spec.app.zipf_exponent(),
        plan.seed,
    );
    let sim_wall = phase.elapsed().as_secs_f64();
    let sim_p90_ms = sim.percentile(0.9).map_or(0.0, |t| t as f64 / 1e3);
    metrics.push(("sim_p90_ms", sim_p90_ms));

    if plan.trace {
        let c = |key| count(&reps.timed[0], key);
        // The traced children's in-situ layer split.
        for (name, ..) in &PER_LAYER {
            if layers[0].get(name).is_none() {
                continue;
            }
            let scaled = if HOST_SCALED_LAYERS.contains(name) {
                HostScaled::Time
            } else {
                HostScaled::No
            };
            let values: Vec<f64> = reps
                .traced
                .iter()
                .zip(&layers)
                .map(|(r, l)| scaled.apply(get(l, name), host_scale(r)))
                .collect();
            metrics.push((name, median(&values)));
        }
        // Of the two passes of one round, which replayed the same stream.
        let rate = |r: &Json| HostScaled::Rate.apply(get(r, "ops_per_s"), host_scale(r));
        let rate_ratio = |reports: &[Json]| {
            let per_round = reports.iter().zip(&reps.timed);
            let ratios: Vec<f64> = per_round.map(|(r, t)| rate(r) / rate(t)).collect();
            median(&ratios)
        };
        metrics.extend([
            // Every `Err` of a pass, predicted or not, and every result
            // the oracle rejected.
            ("failed_ratio", ratio(c("rejected") + failed, c("ops"))),
            (
                "dssp.cache.hit_ratio",
                ratio(c("hits"), c("hits") + c("misses")),
            ),
            ("dssp.cache.entries_final", c("cache_entries") as f64),
            ("dssp.cache.evictions", c("evictions") as f64),
            (
                "dssp.strategy.scanned_per_update",
                ratio(c("entries_scanned"), c("updates")),
            ),
            (
                "dssp.strategy.invalidated_per_update",
                ratio(c("invalidations"), c("updates")),
            ),
            (
                "dssp.strategy.useful_scan_ratio",
                ratio(c("invalidations"), c("entries_scanned")),
            ),
            ("storage.home_queries", c("home_queries") as f64),
            ("storage.home_updates", c("home_updates") as f64),
            ("storage.rows_per_query", ratio(c("home_rows"), c("misses"))),
            (
                "dssp.sharded.scatter_ratio",
                ratio(c("scatter_queries"), c("misses")),
            ),
            (
                "dssp.fleet.fanout_msgs_per_update",
                ratio(c("fanout_msgs"), c("updates")),
            ),
            ("telemetry.trace_overhead_ratio", rate_ratio(&reps.traced)),
            ("telemetry.spans_on_ratio", rate_ratio(&reps.program_spans)),
            (
                "netsim.sim_ops_per_host_s",
                sim.ops_executed as f64 / sim_wall,
            ),
            ("netsim.home_utilization", sim.home_utilization),
            ("netsim.dssp_utilization", sim.dssp_utilization),
            (
                // Per thousand slices, so the unit stays readable.
                "host.calib_ms",
                median_of(&reps.timed, "host.slice_ns", HostScaled::No) / 1e3,
            ),
            ("host.retries", reps.retries as f64),
        ]);
        let phase = Instant::now();
        let key = (spec.app, spec.write_boost);
        if !input_probes.iter().any(|p| p.0 == key) {
            input_probes.push((key, probes::of_inputs(spec, plan.seed)));
        }
        let shared = input_probes.iter().find(|p| p.0 == key).expect("just put");
        metrics.extend(shared.1.iter().copied());
        metrics.extend(probes::of_config(spec, plan.seed));
        eprintln!(
            "dsspbench: {} probes in {:.1}s",
            spec.name,
            phase.elapsed().as_secs_f64()
        );
    }
    eprintln!("dsspbench: {} sim trial in {sim_wall:.1}s", spec.name);

    WorkloadReport {
        name: spec.name,
        metrics,
        raw,
        counts,
        rounds: reps.timed.len(),
        attempted: reps.all().map(|r| count(r, "ops")).sum(),
        failed: reps.all().map(|r| get(r, "failed") as u64).sum(),
        problems,
    }
}

fn metrics_json(
    report: &WorkloadReport,
    names: impl Iterator<Item = (&'static str, &'static str)>,
) -> Json {
    Json::Obj(
        names
            .map(|(name, unit)| {
                let value = report
                    .metric(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                let entry = Json::obj([("value", Json::Num(value)), ("unit", unit.into())]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The contract's result object for one workload: every end-to-end metric
/// without `trace`, every per-layer metric with it.
pub fn result_json(report: &WorkloadReport, trace: bool) -> Json {
    let metrics = if trace {
        metrics_json(report, PER_LAYER.iter().map(|m| (m.0, m.1)))
    } else {
        metrics_json(report, END_TO_END.iter().map(|m| (m.name, m.unit)))
    };
    Json::obj([
        ("correct", report.correct().into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", metrics),
    ])
}

/// Prints every metric of every report by name, with its unit.
pub fn print_table(reports: &[WorkloadReport]) {
    for r in reports {
        println!(
            "\n== {} ({} rounds; round 0's counts {})",
            r.name,
            r.rounds,
            r.counts.render()
        );
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in units {
            if let Some(v) = r.metric(name) {
                println!("{name:<40} {v:>16.4} {unit}");
            }
        }
        let raw: Vec<String> = r.raw.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
        println!("as this host measured them: {}", raw.join(", "));
        if let (Some(q), Some(us)) = (r.metric("req_tail_q"), r.metric("req_tail_us")) {
            println!(
                "request tail: p{} = {us:.1} us, the highest percentile with at least ten of \
                 the pass's requests beyond it",
                q * 100.0
            );
        }
        for p in &r.problems {
            println!("PROBLEM: {p}");
        }
    }
}

/// Compares two sets of the same build: every end-to-end metric within its
/// bound, every count and `sim_p90_ms` exactly. Returns the disagreements.
pub fn selfcheck(first: &[WorkloadReport], second: &[WorkloadReport]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.counts != b.counts {
            out.push(format!("{}: counts differ between sets", a.name));
        }
        for m in &END_TO_END {
            let (x, y) = (a.metric(m.name).unwrap(), b.metric(m.name).unwrap());
            // Which set ran first is arbitrary, so either may be the worse.
            let worse = x.max(y) / x.min(y) - 1.0;
            let exact = m.name == "sim_p90_ms";
            let verdict = if (exact && x != y) || worse > m.bound {
                out.push(format!("{}: {} {x} vs {y}", a.name, m.name));
                "DISAGREE"
            } else {
                "ok"
            };
            println!(
                "{:<22} {:<14} {x:>14.4} {y:>14.4} {:>6.2}% (bound {:.0}%) {verdict}",
                a.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_replay_distinct_streams_and_round_zero_the_seed_itself() {
        let mut seen = std::collections::HashSet::new();
        for seed in 100..110 {
            assert_eq!(round_seed(seed, 0), seed);
            for round in 1..40 {
                let s = round_seed(seed, round);
                assert!(s < 1 << 53);
                assert_eq!(s, round_seed(seed, round));
                assert!(seen.insert(s), "seed {seed} round {round} repeats a stream");
            }
        }
    }
}
