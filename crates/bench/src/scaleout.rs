//! The scale-out probe: **max concurrent users vs. size of one tier**,
//! per invalidation strategy, on the auction benchmark — one sweep body
//! over an [`Axis`] value.
//!
//! * [`PROXIES`] (`scs-bench fleet`, the paper's Fig. 8–10 x-axis): each
//!   point is a fresh [`scs_dssp::ProxyFleet`] of N replicas with private
//!   caches, the home fanning every epoch-stamped invalidation out to
//!   all of them. The trials run in the DSSP-bound cost regime, so
//!   informed strategies — serving mostly from cache — scale with added
//!   replicas, while the blind strategy misses through to the *shared*
//!   home server and stays near-flat.
//! * [`HOME_SHARDS`] (`scs-bench home_shards`): each point is a fresh
//!   [`scs_dssp::ShardedHome`] — the master range/hash-partitioned over
//!   N shards, one home server, WAL and invalidation stream each. The
//!   trials run in the default home-bound regime, so this is the dual
//!   shape: the blind strategy, pinned by the home tier above no matter
//!   how many proxies front it, rises with every added shard, and the
//!   informed strategy merely must not collapse.
//!
//! [`scs_apps::Topology`] carries the tier sizing and the cost regime of
//! each; the acceptance checks below pin exactly those two shapes.
//!
//! Modes: `--smoke` sweeps the two ends of the exposure spectrum at a
//! short fidelity (the committed baseline's configuration); the default
//! and `--full` sweep all four strategies at quick and paper fidelity.

use crate::{outln, Mode, ProbeRun, TextTable};
use scs_apps::{sweep, BenchApp, Fidelity, Topology};
use scs_dssp::{RoutingMode, StrategyKind};
use scs_telemetry::Json;

/// Tier sizes swept per strategy.
pub const COUNTS: [usize; 3] = [1, 2, 4];

/// The canonical probe seed (shared with the committed baseline).
pub const SEED: u64 = 23;

/// The fleet routes by template hash: each template's working set lives
/// on exactly one replica, so the fleet-wide hit rate holds steady as
/// replicas are added (round-robin scatters each working set across
/// every cache, and the extra misses erode exactly the scale-out the
/// probe exists to measure).
pub const ROUTING: RoutingMode = RoutingMode::HashByTemplate;

/// A curve is *near-flat* when its best knee stays within this factor of
/// its worst — the other tier is the binding resource, so growing this
/// one must buy almost nothing.
pub const NEAR_FLAT_FACTOR: f64 = 1.35;

/// One scale-out axis: what is grown, how its curve is named in the
/// report, and the shape the sweep must show.
pub struct Axis {
    /// Probe name, artifact stem and `config` prefix.
    pub name: &'static str,
    /// The report section holding the curve's `points`.
    pub section: &'static str,
    /// The point key (and table column) carrying the tier size.
    pub key: &'static str,
    pub topology: fn(usize) -> Topology,
    /// The strategy bound by the grown tier: its knees must rise
    /// strictly along the axis. First of the smoke pair.
    pub rising: StrategyKind,
    /// The opposite end of the exposure spectrum — second of the smoke
    /// pair — and whether its curve must stay near-flat.
    pub other: StrategyKind,
    pub other_near_flat: bool,
    title: &'static str,
    shape: &'static str,
}

pub const PROXIES: Axis = Axis {
    name: "fleet",
    section: "fleet_curve",
    key: "proxies",
    topology: |n| Topology::Proxies(n, ROUTING),
    rising: StrategyKind::ViewInspection,
    other: StrategyKind::Blind,
    other_near_flat: true,
    title: "Fleet — scalability vs. number of DSSP proxies (auction)",
    shape: "Paper's shape: informed strategies scale out with added proxies;\n\
            MBS stays pinned by the shared home server.",
};

pub const HOME_SHARDS: Axis = Axis {
    name: "home_shards",
    section: "shard_curve",
    key: "shards",
    topology: Topology::HomeShards,
    rising: StrategyKind::Blind,
    other: StrategyKind::ViewInspection,
    other_near_flat: false,
    title: "Home shards — scalability vs. home tier partitioning (auction)",
    shape: "Shape: the blind strategy is home-bound, so sharding the home tier\n\
            raises its knee with every added shard.",
};

/// Trial fidelity for the smoke gate: short windows, coarse resolution,
/// but a user cap high enough that the 4-node knee is not clipped into
/// a tie with the 2-node one.
const SMOKE_FIDELITY: Fidelity = Fidelity {
    duration_secs: 60,
    warmup_secs: 10,
    max_users: 8_192,
    resolution: 128,
};

/// The probe-table entry point: maps `mode` to strategies and fidelity.
pub fn run(axis: &Axis, mode: Mode, seed: Option<u64>) -> ProbeRun {
    let pair = [axis.rising, axis.other];
    let (strategies, fidelity): (&[StrategyKind], Fidelity) = match mode {
        Mode::Smoke => (&pair, SMOKE_FIDELITY),
        Mode::Quick => (&StrategyKind::ALL, Fidelity::quick()),
        Mode::Full => (&StrategyKind::ALL, Fidelity::full()),
    };
    run_with(axis, strategies, fidelity, seed.unwrap_or(SEED))
}

/// Sweeps [`COUNTS`] along `axis` for each strategy, evaluates the
/// scale-out acceptance checks, and assembles entries and text.
pub fn run_with(
    axis: &Axis,
    strategies: &[StrategyKind],
    fidelity: Fidelity,
    seed: u64,
) -> ProbeRun {
    let app = BenchApp::Auction;
    let def = app.def();
    let topologies = COUNTS.map(axis.topology);
    let mut run = ProbeRun {
        entries: Vec::new(),
        failures: Vec::new(),
        text: String::new(),
    };
    let mut table = TextTable::new(&["Strategy", axis.key, "Scalability (users)", "Trials"]);
    outln!(run.text, "{}", axis.title);
    outln!(run.text, "({} swept: {COUNTS:?}; seed {seed})\n", axis.key);

    for &kind in strategies {
        let exposures = kind.exposures(def.updates.len(), def.queries.len());
        let results = sweep(app, &exposures, &topologies, fidelity, seed);
        let knees: Vec<usize> = results.iter().map(|r| r.max_users).collect();
        check_curve(axis, kind, &knees, &mut run.failures);

        let mut points = Vec::new();
        for (n, r) in COUNTS.iter().zip(&results) {
            table.row(&[
                kind.name().to_string(),
                n.to_string(),
                r.max_users.to_string(),
                r.trials.len().to_string(),
            ]);
            points.push(Json::obj([
                (axis.key, (*n as u64).into()),
                ("max_users", (r.max_users as u64).into()),
                ("trials", (r.trials.len() as u64).into()),
            ]));
        }
        // The entry the regression gate diffs: the strategy's curve
        // plus enough context to reproduce it.
        let mut entry = vec![
            ("app", Json::from(app.name())),
            ("config", format!("{}_{}", axis.name, kind.name()).into()),
            ("seed", seed.into()),
        ];
        if let Topology::Proxies(_, routing) = topologies[0] {
            entry.push(("routing", routing.name().into()));
        }
        entry.push((axis.section, Json::obj([("points", Json::Arr(points))])));
        run.entries.push(Json::obj(entry));
    }
    outln!(run.text, "{}", table.render());
    outln!(run.text, "{}", axis.shape);
    run
}

/// The scale-out acceptance checks: the axis's bound strategy must rise
/// strictly with every added node, the opposite end must stay near-flat
/// where the axis says so, and no curve may touch zero.
fn check_curve(axis: &Axis, kind: StrategyKind, knees: &[usize], failures: &mut Vec<String>) {
    let name = kind.name();
    if kind == axis.rising {
        if !knees.windows(2).all(|w| w[0] < w[1]) {
            failures.push(format!(
                "{name}: max users must rise strictly with {}, got {knees:?}",
                axis.key
            ));
        }
    } else if kind == axis.other && axis.other_near_flat {
        let worst = knees.iter().copied().min().unwrap_or(0).max(1);
        let best = knees.iter().copied().max().unwrap_or(0);
        if best as f64 > worst as f64 * NEAR_FLAT_FACTOR {
            failures.push(format!(
                "{name}: expected a near-flat curve, got {knees:?} \
                 (best/worst {:.2} > {NEAR_FLAT_FACTOR})",
                best as f64 / worst as f64
            ));
        }
    } else if knees.contains(&0) {
        // The strategies between (and the unbound end of an axis with no
        // flatness claim) only must not collapse.
        failures.push(format!(
            "{name}: a sweep point collapsed to zero: {knees:?}"
        ));
    }
}
