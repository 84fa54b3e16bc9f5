//! Performance-regression gate: diffs two observatory/telemetry exports
//! and reports every way the candidate run regressed against the
//! baseline.
//!
//! Most detectors are **rows** of [`ROWS`]: a leaf of the report (a
//! dotted path from the entry, or a field of each point of a [`Curve`])
//! compared under one [`Rule`]. Curve points are matched between runs by
//! the curve's key, never by position, and a baseline point with no
//! candidate counterpart trips the curve's `*_point_missing` detector.
//! What is not a leaf comparison stays hand-written:
//!
//! * `entry_missing` — a baseline entry disappeared from the candidate
//!   (`--subset` skips this one, for diffing a candidate that
//!   deliberately re-runs only some baseline entries);
//! * `slo_flip` — any SLO, matched by name, flipping from passed to
//!   failed;
//! * `shard_curve_flattened` — a home-shard curve that rose strictly in
//!   the baseline no longer rising in the candidate (adding shards no
//!   longer buys capacity), which can slip under a percentage threshold
//!   at small shard counts;
//! * `frontier_dominated` — a baseline frontier point that was Pareto
//!   non-dominated becoming strictly dominated in the candidate (the
//!   security/scalability frontier receded);
//! * `goodput_collapse` — any goodput-curve point past the stored
//!   `knee_index` falling below the knee-hold fraction of the knee's
//!   goodput (an absolute check on the candidate, so a collapse is
//!   caught even when the baseline itself regressed).
//!
//! Every compared leaf is a deterministic simulated quantity, so the
//! gate is reproducible across CI hosts. `--self-check` validates the
//! gate itself ([`self_check`]); `--json` additionally prints per-
//! detector verdicts with entry keys to stdout for CI annotations (the
//! human-readable lines always go to stderr).
//!
//! Exit codes: 0 = no regression, 1 = regression (or failed
//! self-check), 2 = usage/IO error (including a report whose
//! `schema_version` is not this build's [`SCHEMA_VERSION`]).

use crate::overload::KNEE_HOLD_FRACTION;
use crate::scaleout::{HOME_SHARDS, PROXIES};
use scs_apps::report::SCHEMA_VERSION;
use scs_telemetry::Json;
use std::collections::BTreeMap;

/// One detector verdict: which entry, which detector, and the
/// human-readable explanation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub key: String,
    pub detector: &'static str,
    pub message: String,
}

impl Finding {
    fn new(key: &str, detector: &'static str, message: String) -> Finding {
        Finding {
            key: key.to_string(),
            detector,
            message,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("entry", self.key.as_str().into()),
            ("detector", self.detector.into()),
            ("message", self.message.as_str().into()),
        ])
    }
}

/// A report section whose `points` are matched between runs by `key`.
pub struct Curve {
    pub section: &'static str,
    pub key: &'static str,
    /// The detector a vanished baseline point trips.
    pub missing: &'static str,
}

#[rustfmt::skip]
pub const CURVES: [Curve; 4] = [
    Curve { section: PROXIES.section,     key: PROXIES.key,     missing: "fleet_point_missing" },
    Curve { section: HOME_SHARDS.section, key: HOME_SHARDS.key, missing: "shard_point_missing" },
    Curve { section: "freshness",         key: "proxies",       missing: "freshness_point_missing" },
    Curve { section: "frontier",          key: "label",         missing: "frontier_point_missing" },
];
const FLEET: &Curve = &CURVES[0];
const SHARD: &Curve = &CURVES[1];
const FRESHNESS: &Curve = &CURVES[2];
const FRONTIER: &Curve = &CURVES[3];

/// How a candidate leaf is judged against the baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Fell more than the threshold below a positive baseline.
    Drop,
    /// Rose more than the threshold above a positive baseline.
    Rise,
    /// A count that rose at all (no threshold: one stale serve or one
    /// lost acked write is a regression).
    CountRose,
    /// A verdict that was true and is now false.
    FlippedFalse,
}

impl Rule {
    fn regressed(self, b: &Json, c: &Json, factor: f64) -> bool {
        let nums = b.as_f64().zip(c.as_f64());
        match self {
            Rule::Drop => nums.is_some_and(|(b, c)| b > 0.0 && c < b * (1.0 - factor)),
            Rule::Rise => nums.is_some_and(|(b, c)| b > 0.0 && c > b * (1.0 + factor)),
            Rule::CountRose => b.as_u64().zip(c.as_u64()).is_some_and(|(b, c)| c > b),
            Rule::FlippedFalse => b.as_bool() == Some(true) && c.as_bool() == Some(false),
        }
    }

    /// The leaf made worse in this rule's own direction, far enough to
    /// trip it at any sane threshold — or `None` where no candidate
    /// value could (a zero baseline under a ratio rule, a verdict that
    /// was already false).
    fn worsen(self, leaf: &Json) -> Option<Json> {
        match (self, leaf) {
            (Rule::Drop, Json::Num(v)) if *v > 0.0 => Some(Json::Num((v * 0.5).floor())),
            (Rule::Rise, Json::Num(v)) if *v > 0.0 => Some(Json::Num(v * 3.0)),
            (Rule::CountRose, Json::Num(v)) => Some(Json::Num(v + 1.0)),
            (Rule::FlippedFalse, Json::Bool(true)) => Some(Json::Bool(false)),
            _ => None,
        }
    }
}

/// One leaf detector: `field` (a dotted path; a numeric segment indexes
/// an array) of the entry — or of each point of `curve` — under `rule`.
pub struct Row {
    pub detector: &'static str,
    pub curve: Option<&'static Curve>,
    pub field: &'static str,
    pub rule: Rule,
}

/// The detector table. What each row guards, beyond its name:
/// `p99_rise` reads the p99 bucket's *upper* bound; the knee rows are
/// the scale-out curves' max users at every tier size the baseline
/// measured (a knee sagging at one size is a regression even if the
/// others hold); `amplification_growth` is fanout bytes per logical
/// update; `handoff_stale_rise` is staleness leaking past the lease
/// across a membership change; `failover_window_rise` is promotion
/// getting slower, in total or at the worst single failover;
/// `leakage_rise` is the proxy seeing more plaintext at the *same*
/// exposure assignment — an encryption-boundary regression — per
/// frontier point and on the audited entries' ledger total.
#[rustfmt::skip]
pub const ROWS: [Row; 19] = [
    Row { detector: "throughput_drop",         curve: None,            field: "sim.throughput_rps",                rule: Rule::Drop },
    Row { detector: "p99_rise",                curve: None,            field: "sim.response.p99_us.1",             rule: Rule::Rise },
    Row { detector: "stale_beyond_lease_rise", curve: None,            field: "stale_beyond_lease",                rule: Rule::CountRose },
    Row { detector: "goodput_drop",            curve: None,            field: "overload.goodput_rps",              rule: Rule::Drop },
    Row { detector: "fleet_knee_drop",         curve: Some(FLEET),     field: "max_users",                         rule: Rule::Drop },
    Row { detector: "shard_knee_drop",         curve: Some(SHARD),     field: "max_users",                         rule: Rule::Drop },
    Row { detector: "propagation_lag_rise",    curve: Some(FRESHNESS), field: "lag_p99_us",                        rule: Rule::Rise },
    Row { detector: "stale_age_shift",         curve: Some(FRESHNESS), field: "stale_age_p99_us",                  rule: Rule::Rise },
    Row { detector: "stale_beyond_lease_rise", curve: Some(FRESHNESS), field: "stale_beyond_lease",                rule: Rule::CountRose },
    Row { detector: "amplification_growth",    curve: Some(FRESHNESS), field: "bytes_per_update",                  rule: Rule::Rise },
    Row { detector: "handoff_stale_rise",      curve: None,            field: "elastic.stale_beyond_lease",        rule: Rule::CountRose },
    Row { detector: "autoscale_slo_flip",      curve: None,            field: "elastic.slo_ok",                    rule: Rule::FlippedFalse },
    Row { detector: "conservation_broken",     curve: None,            field: "elastic.conservation_balanced",     rule: Rule::FlippedFalse },
    Row { detector: "node_seconds_growth",     curve: None,            field: "elastic.node_seconds",              rule: Rule::Rise },
    Row { detector: "failover_window_rise",    curve: None,            field: "failover.unavailable_micros_total", rule: Rule::Rise },
    Row { detector: "failover_window_rise",    curve: None,            field: "failover.worst_window_micros",      rule: Rule::Rise },
    Row { detector: "acked_write_lost",        curve: None,            field: "failover.lost_acked",               rule: Rule::CountRose },
    Row { detector: "leakage_rise",            curve: Some(FRONTIER),  field: "leakage_per_kop",                   rule: Rule::Rise },
    Row { detector: "leakage_rise",            curve: None,            field: "dssp.leakage.revealed_bytes",       rule: Rule::Rise },
];

/// The shape detectors re-read leaves that rows own, so one worsened
/// leaf may legitimately trip them alongside its row.
const SHAPE_DETECTORS: [&str; 2] = ["shard_curve_flattened", "frontier_dominated"];

/// Follows a dotted path from `j`.
fn leaf<'a>(j: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(j, |j, seg| {
        j.get(seg).or_else(|| j.index(seg.parse().ok()?))
    })
}

fn leaf_mut<'a>(j: &'a mut Json, path: &str) -> Option<&'a mut Json> {
    path.split('.')
        .try_fold(j, |j, seg| match (j, seg.parse::<usize>()) {
            (Json::Arr(items), Ok(i)) => items.get_mut(i),
            (Json::Obj(fields), _) => fields.iter_mut().find(|(k, _)| k == seg).map(|(_, v)| v),
            _ => None,
        })
}

fn points<'a>(entry: &'a Json, curve: &Curve) -> &'a [Json] {
    leaf(entry, curve.section)
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// The candidate's point carrying the same key value as `base_point`.
fn counterpart<'a>(cand: &'a Json, curve: &Curve, base_point: &Json) -> Option<&'a Json> {
    let key = base_point.get(curve.key)?;
    points(cand, curve)
        .iter()
        .find(|p| p.get(curve.key) == Some(key))
}

impl Row {
    fn check(&self, key: &str, base: &Json, cand: &Json, factor: f64, out: &mut Vec<Finding>) {
        let mut compare = |at: String, base: &Json, cand: &Json| {
            let (Some(b), Some(c)) = (leaf(base, self.field), leaf(cand, self.field)) else {
                return;
            };
            if self.rule.regressed(b, c, factor) {
                out.push(Finding::new(
                    key,
                    self.detector,
                    format!(
                        "{key}: {}{at} went from {} to {} ({:?})",
                        self.field,
                        b.render(),
                        c.render(),
                        self.rule
                    ),
                ));
            }
        };
        match self.curve {
            None => compare(String::new(), base, cand),
            Some(curve) => {
                for bp in points(base, curve) {
                    if let Some(cp) = counterpart(cand, curve, bp) {
                        let k = bp.get(curve.key).map(Json::render).unwrap_or_default();
                        compare(format!(" at {}={k}", curve.key), bp, cp);
                    }
                }
            }
        }
    }
}

/// A stable identity for one report entry across runs.
pub fn entry_key(entry: &Json) -> String {
    let config = entry.get("config").and_then(Json::as_str).unwrap_or("?");
    match entry.get("app").and_then(Json::as_str) {
        Some(app) => format!("{app}|{config}"),
        None => {
            // Chaos entries have no `app`; seed disambiguates sweeps.
            let seed = entry.get("seed").and_then(Json::as_u64).unwrap_or(0);
            format!("chaos|{config}|{seed}")
        }
    }
}

fn entries(doc: &Json) -> &[Json] {
    doc.get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

fn slo_verdicts(entry: &Json) -> impl Iterator<Item = (&str, bool)> {
    let slos = entry.get("slo").and_then(Json::as_arr).unwrap_or_default();
    slos.iter()
        .filter_map(|r| Some((r.get("name")?.as_str()?, r.get("passed")?.as_bool()?)))
}

fn slo_flip(key: &str, base: &Json, cand: &Json, out: &mut Vec<Finding>) {
    let cand_slos: BTreeMap<&str, bool> = slo_verdicts(cand).collect();
    for (name, passed) in slo_verdicts(base) {
        if passed && cand_slos.get(name) == Some(&false) {
            out.push(Finding::new(
                key,
                "slo_flip",
                format!("{key}: SLO {name} flipped from passed to failed"),
            ));
        }
    }
}

/// A shard curve as `(shards, max users)`, ascending by shard count.
fn shard_knees(entry: &Json) -> Vec<(u64, u64)> {
    let mut knees: Vec<(u64, u64)> = points(entry, SHARD)
        .iter()
        .filter_map(|p| Some((p.get(SHARD.key)?.as_u64()?, p.get("max_users")?.as_u64()?)))
        .collect();
    knees.sort_unstable();
    knees
}

fn shard_curve_flattened(key: &str, base: &Json, cand: &Json, out: &mut Vec<Finding>) {
    let base_knees = shard_knees(base);
    if base_knees.len() < 2 || !base_knees.windows(2).all(|w| w[0].1 < w[1].1) {
        return;
    }
    for w in shard_knees(cand).windows(2) {
        let ((lo_shards, lo_users), (hi_shards, hi_users)) = (w[0], w[1]);
        if hi_users <= lo_users {
            out.push(Finding::new(
                key,
                "shard_curve_flattened",
                format!(
                    "{key}: the shard curve rose strictly in the baseline but flattened: \
                     {hi_shards} shards holds {hi_users} max users, no better than \
                     {lo_users} at {lo_shards}"
                ),
            ));
        }
    }
}

/// `true` when frontier point `b` strictly Pareto-dominates `a`: at
/// least as good on both axes, strictly better on one.
fn point_dominates(b: &Json, a: &Json) -> bool {
    let num = |p: &Json, f: &str| p.get(f).and_then(Json::as_f64);
    let (Some(bl), Some(bu), Some(al), Some(au)) = (
        num(b, "leakage_per_kop"),
        num(b, "max_users"),
        num(a, "leakage_per_kop"),
        num(a, "max_users"),
    ) else {
        return false;
    };
    bl <= al && bu >= au && (bl < al || bu > au)
}

fn frontier_dominated(key: &str, base: &Json, cand: &Json, out: &mut Vec<Finding>) {
    for bp in points(base, FRONTIER) {
        if bp.get("non_dominated").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        // A vanished point is `frontier_point_missing`'s to report.
        let Some(cp) = counterpart(cand, FRONTIER, bp) else {
            continue;
        };
        let by = points(cand, FRONTIER)
            .iter()
            .find(|other| !std::ptr::eq(*other, cp) && point_dominates(other, cp));
        if let Some(by) = by {
            let label = |p: &Json| p.get(FRONTIER.key).map(Json::render).unwrap_or_default();
            out.push(Finding::new(
                key,
                "frontier_dominated",
                format!(
                    "{key}: assignment {} was on the Pareto frontier but is now strictly \
                     dominated by {}",
                    label(cp),
                    label(by)
                ),
            ));
        }
    }
}

fn goodput_collapse(key: &str, entry: &Json, out: &mut Vec<Finding>) {
    let Some(curve) = entry.get("goodput_curve") else {
        return;
    };
    let points = curve
        .get("points")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let knee = curve.get("knee_index").and_then(Json::as_u64).unwrap_or(0) as usize;
    let goodput = |p: &Json| p.get("goodput_rps").and_then(Json::as_f64);
    let Some(knee_goodput) = points.get(knee).and_then(goodput) else {
        return;
    };
    for p in points.iter().skip(knee + 1) {
        let g = goodput(p).unwrap_or(0.0);
        let mult = p.get("multiplier").and_then(Json::as_f64).unwrap_or(0.0);
        if g < knee_goodput * KNEE_HOLD_FRACTION {
            out.push(Finding::new(
                key,
                "goodput_collapse",
                format!(
                    "{key}: goodput collapsed past the knee (x{mult}: {g:.0} rps is below \
                     {:.0}% of the knee's {knee_goodput:.0})",
                    KNEE_HOLD_FRACTION * 100.0
                ),
            ));
        }
    }
}

/// Every way `cand` is worse than `base` beyond the threshold.
pub fn diff(base: &Json, cand: &Json, threshold_pct: f64, subset: bool) -> Vec<Finding> {
    let factor = threshold_pct / 100.0;
    let cand_entries: BTreeMap<String, &Json> =
        entries(cand).iter().map(|e| (entry_key(e), e)).collect();
    let mut out = Vec::new();
    for b in entries(base) {
        let key = entry_key(b);
        let Some(c) = cand_entries.get(&key) else {
            if !subset {
                out.push(Finding::new(
                    &key,
                    "entry_missing",
                    format!("{key}: entry disappeared from the candidate"),
                ));
            }
            continue;
        };
        for curve in &CURVES {
            for bp in points(b, curve) {
                if counterpart(c, curve, bp).is_none() {
                    let k = bp.get(curve.key).map(Json::render).unwrap_or_default();
                    out.push(Finding::new(
                        &key,
                        curve.missing,
                        format!(
                            "{key}: the {}={k} point disappeared from {}",
                            curve.key, curve.section
                        ),
                    ));
                }
            }
        }
        for row in &ROWS {
            row.check(&key, b, c, factor, &mut out);
        }
        slo_flip(&key, b, c, &mut out);
        shard_curve_flattened(&key, b, c, &mut out);
        frontier_dominated(&key, b, c, &mut out);
        goodput_collapse(&key, c, &mut out);
    }
    out
}

/// One synthetic regression of a report — leaves of one entry
/// overwritten, or the entry gone — and the detector that must catch it.
pub struct Degradation {
    pub entry: usize,
    pub detector: &'static str,
    /// The [`ROWS`] index whose leaf this worsens, for a row's edit.
    row: Option<usize>,
    /// `(dotted path from the entry, new value)`; `None`: the entry
    /// vanishes.
    sets: Option<Vec<(String, Json)>>,
}

impl Degradation {
    pub fn apply(&self, entries: &mut Vec<Json>) {
        let Some(sets) = &self.sets else {
            entries.remove(self.entry);
            return;
        };
        for (path, value) in sets {
            let slot = leaf_mut(&mut entries[self.entry], path);
            *slot.expect("the edit was derived from this document") = value.clone();
        }
    }
}

/// Every single-edit synthetic regression `doc` supports: per entry, one
/// vanished point per curve, one per worsenable leaf of every row (a row
/// knows how to worsen its own leaf: `Rule::worsen`), one per
/// hand-written detector's shape, and the entry vanishing.
pub fn degradations(doc: &Json) -> Vec<Degradation> {
    let mut out = Vec::new();
    for (entry, e) in entries(doc).iter().enumerate() {
        let mut push = |detector, row, sets| {
            out.push(Degradation {
                entry,
                detector,
                row,
                sets,
            })
        };
        for curve in &CURVES {
            if let [rest @ .., _] = points(e, curve) {
                let path = format!("{}.points", curve.section);
                push(
                    curve.missing,
                    None,
                    Some(vec![(path, Json::Arr(rest.to_vec()))]),
                );
            }
        }
        for (r, row) in ROWS.iter().enumerate() {
            let holders: Vec<(String, &Json)> = match row.curve {
                None => vec![(String::new(), e)],
                Some(c) => (points(e, c).iter().enumerate())
                    .map(|(n, p)| (format!("{}.points.{n}.", c.section), p))
                    .collect(),
            };
            for (prefix, holder) in holders {
                if let Some(worse) = leaf(holder, row.field).and_then(|v| row.rule.worsen(v)) {
                    let set = (format!("{prefix}{}", row.field), worse);
                    push(row.detector, Some(r), Some(vec![set]));
                }
            }
        }
        let slos = e.get("slo").and_then(Json::as_arr).unwrap_or_default();
        for (n, slo) in slos.iter().enumerate() {
            if slo.get("passed").and_then(Json::as_bool) == Some(true) {
                let set = (format!("slo.{n}.passed"), false.into());
                push("slo_flip", None, Some(vec![set]));
            }
        }
        // Park every shard count at the best knee: nothing drops, but
        // adding shards buys nothing.
        let knees = shard_knees(e);
        if knees.len() >= 2 && knees.windows(2).all(|w| w[0].1 < w[1].1) {
            let best = knees[knees.len() - 1].1;
            let flat = (0..knees.len())
                .map(|n| {
                    (
                        format!("{}.points.{n}.max_users", SHARD.section),
                        best.into(),
                    )
                })
                .collect();
            push("shard_curve_flattened", None, Some(flat));
        }
        // Take the scalability payoff away from the most-exposed
        // non-dominated assignment, so a more secure point dominates it.
        let leak = |p: &Json| p.get("leakage_per_kop").and_then(Json::as_f64);
        let sunk = points(e, FRONTIER)
            .iter()
            .enumerate()
            .filter(|(_, p)| p.get("non_dominated").and_then(Json::as_bool) == Some(true))
            .max_by(|(_, a), (_, b)| leak(a).partial_cmp(&leak(b)).expect("finite leakage"));
        if let Some((n, _)) = sunk {
            let set = (
                format!("{}.points.{n}.max_users", FRONTIER.section),
                0u64.into(),
            );
            push("frontier_dominated", None, Some(vec![set]));
        }
        // Reshape the goodput curve the way real collapse exports look:
        // the knee lands on the pre-collapse peak and every later point
        // craters.
        let curve = leaf(e, "goodput_curve.points").and_then(Json::as_arr);
        if let Some([_, later @ ..]) = curve.filter(|points| points.len() > 1) {
            let mut sets = vec![("goodput_curve.knee_index".to_string(), 0u64.into())];
            for (n, p) in later.iter().enumerate() {
                let g = p.get("goodput_rps").and_then(Json::as_f64).unwrap_or(0.0);
                let path = format!("goodput_curve.points.{}.goodput_rps", n + 1);
                sets.push((path, (g * 0.1).into()));
            }
            push("goodput_collapse", None, Some(sets));
        }
        push("entry_missing", None, None);
    }
    out
}

fn with_entries(doc: &Json, edit: impl FnOnce(&mut Vec<Json>)) -> Json {
    let mut doc = doc.clone();
    if let Some(Json::Arr(entries)) = leaf_mut(&mut doc, "entries") {
        edit(entries);
    }
    doc
}

/// Validates the gate itself against a known-good report:
///
/// * the identity diff is clean, also with every curve's points
///   reversed (points are matched by key, not position);
/// * every row of [`ROWS`], every curve and every hand-written detector
///   matches at least one leaf of the report that could regress — a
///   renamed JSON key cannot silently disable a detector;
/// * each of [`degradations`] alone trips exactly its detector on
///   exactly its entry (a shape detector that re-reads the same leaf
///   may fire beside it, on the same entry).
///
/// Returns the number of single-edit regressions caught.
pub fn self_check(baseline: &Json, threshold_pct: f64) -> Result<usize, String> {
    let list = |found: &[Finding]| -> String {
        found.iter().map(|f| format!("\n  {}", f.message)).collect()
    };
    let reversed = with_entries(baseline, |entries| {
        for e in entries {
            for curve in &CURVES {
                if let Some(Json::Arr(points)) = leaf_mut(e, &format!("{}.points", curve.section)) {
                    points.reverse();
                }
            }
        }
    });
    for (what, same) in [("itself", baseline), ("its curves reversed", &reversed)] {
        let found = diff(baseline, same, threshold_pct, false);
        if !found.is_empty() {
            return Err(format!(
                "the baseline against {what} reported regressions:{}",
                list(&found)
            ));
        }
    }

    let all = degradations(baseline);
    for (r, row) in ROWS.iter().enumerate() {
        if !all.iter().any(|d| d.row == Some(r)) {
            return Err(format!(
                "row {} ({}) matches no leaf of the baseline that could regress",
                row.detector, row.field
            ));
        }
    }
    let hand = [
        "slo_flip",
        "shard_curve_flattened",
        "frontier_dominated",
        "goodput_collapse",
    ];
    for detector in CURVES.iter().map(|c| c.missing).chain(hand) {
        if !all.iter().any(|d| d.detector == detector) {
            return Err(format!("{detector} matches nothing in the baseline"));
        }
    }

    for d in &all {
        let key = entry_key(&entries(baseline)[d.entry]);
        let cand = with_entries(baseline, |entries| d.apply(entries));
        let found = diff(baseline, &cand, threshold_pct, false);
        let hit = found
            .iter()
            .any(|f| f.key == key && f.detector == d.detector);
        let stray = found.iter().any(|f| {
            f.key != key || (f.detector != d.detector && !SHAPE_DETECTORS.contains(&f.detector))
        });
        if !hit || stray {
            return Err(format!(
                "a synthetic {} regression on {key} must trip exactly that detector there, \
                 got:{}",
                d.detector,
                list(&found)
            ));
        }
    }
    Ok(all.len())
}

/// What the `regress` command was asked to do.
pub struct Options {
    pub baseline: String,
    pub candidate: Option<String>,
    pub threshold_pct: f64,
    pub subset: bool,
    pub self_check: bool,
    pub json: bool,
}

/// Reads and parses a report, and refuses one whose `schema_version`
/// differs from this build's: shapes that no longer line up cannot be
/// diffed field by field — fail loudly with the fix.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => Ok(doc),
        Some(v) => Err(format!(
            "{path} carries telemetry schema_version {v}, this build expects \
             {SCHEMA_VERSION}; regenerate the report (e.g. `scs-bench observatory`) with \
             the current tree"
        )),
        None => Err(format!(
            "{path} has no schema_version field; it predates the versioned telemetry \
             schema — regenerate it with the current tree"
        )),
    }
}

/// The `regress` command; returns the process exit code.
pub fn run(opts: &Options) -> i32 {
    gate(opts).unwrap_or_else(|usage| {
        eprintln!("regress: {usage}");
        2
    })
}

fn gate(opts: &Options) -> Result<i32, String> {
    let (baseline_path, threshold_pct) = (&opts.baseline, opts.threshold_pct);
    let baseline = load(baseline_path)?;
    if opts.self_check {
        return Ok(match self_check(&baseline, threshold_pct) {
            Ok(n) => {
                println!(
                    "self-check passed: identity diff clean, {n} single-edit regressions each \
                     tripped exactly their detector"
                );
                0
            }
            Err(e) => {
                eprintln!("self-check FAILED: {e}");
                1
            }
        });
    }
    let candidate_path =
        (opts.candidate.as_ref()).ok_or("--candidate is required (or pass --self-check)")?;
    let candidate = load(candidate_path)?;

    let regressions = diff(&baseline, &candidate, threshold_pct, opts.subset);
    if opts.json {
        let doc = Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("baseline", baseline_path.as_str().into()),
            ("candidate", candidate_path.as_str().into()),
            ("threshold_pct", threshold_pct.into()),
            ("subset", opts.subset.into()),
            ("passed", regressions.is_empty().into()),
            (
                "regressions",
                Json::Arr(regressions.iter().map(Finding::to_json).collect()),
            ),
        ]);
        println!("{}", doc.render_pretty());
    }
    if regressions.is_empty() {
        eprintln!(
            "no regressions: {candidate_path} holds the line against {baseline_path} \
             (threshold {threshold_pct}%)"
        );
        return Ok(0);
    }
    eprintln!(
        "{} regression(s) against {baseline_path}:",
        regressions.len()
    );
    for r in &regressions {
        eprintln!("  REGRESSION [{}] {}", r.detector, r.message);
    }
    Ok(1)
}
