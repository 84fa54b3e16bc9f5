//! The benchmark's metric names, units, directions and regression bounds —
//! the single source `BENCHMARK.json` is checked against (see the test).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a repeat's host-speed scale (`orchestrate::host_scale`) applies to
/// a metric it measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostScaled {
    /// Reported as measured.
    No,
    /// A duration: multiplied by the scale.
    Time,
    /// Work per second: divided by it.
    Rate,
}

impl HostScaled {
    pub fn apply(self, raw: f64, scale: f64) -> f64 {
        match self {
            HostScaled::No => raw,
            HostScaled::Time => raw * scale,
            HostScaled::Rate => raw / scale,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub host_scaled: HostScaled,
}

use crate::workloads::WORKLOADS;
use scs_telemetry::Json;
use Better::{Higher, Lower};

/// What a user of the system sees. Wall-clock bounds sit at the contract's
/// 25 % ceiling: on the shared 2-core reference box ten runs with ten seeds
/// spread 1-6 % in quiet minutes and up to 10 % in noisy ones (README,
/// "Noise"), and a bound wants three times the spread. The per-op-type
/// latencies are means and the request tail is p95, not the medians and the
/// p99 first chosen: a median of a mix of templates sits on a step, and the
/// slowest 1 % of a one-second pass is mostly the host's interruptions.
/// `sim_p90_ms` is exact for a seed but spreads up to 7 % across seeds.
/// `setup_s` is reported as measured: the host probe runs during the pass,
/// after set-up has ended, and says nothing about it.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
        host_scaled: HostScaled::Rate,
    },
    EndToEnd {
        name: "req_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::Time,
    },
    EndToEnd {
        name: "req_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::Time,
    },
    EndToEnd {
        name: "hit_mean_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::Time,
    },
    EndToEnd {
        name: "miss_mean_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::Time,
    },
    EndToEnd {
        name: "update_mean_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::Time,
    },
    EndToEnd {
        name: "sim_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::No,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        host_scaled: HostScaled::No,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        host_scaled: HostScaled::No,
    },
];

/// The in-situ layer timings, host-scaled as times like the end-to-end
/// latencies. Shares, ratios, counts and the isolated probes are not.
pub const HOST_SCALED_LAYERS: [&str; 5] = [
    "storage.query_ns",
    "storage.update_ns",
    "dssp.proxy.hit_self_ns",
    "dssp.proxy.miss_self_ns",
    "dssp.proxy.update_self_ns",
];

/// Single-layer metrics `(name, unit, better)`; no bounds.
pub const PER_LAYER: [(&str, &str, Better); 49] = [
    // In situ, from the traced pass.
    ("storage.home_share", "ratio", Lower),
    ("dssp.proxy.self_share", "ratio", Lower),
    ("storage.query_ns", "ns", Lower),
    ("storage.update_ns", "ns", Lower),
    ("dssp.proxy.hit_self_ns", "ns", Lower),
    ("dssp.proxy.miss_self_ns", "ns", Lower),
    ("dssp.proxy.update_self_ns", "ns", Lower),
    ("telemetry.span_coverage_ratio", "ratio", Higher),
    ("telemetry.requests_covered_ratio", "ratio", Higher),
    // Exact-repeat counts of one pass.
    ("failed_ratio", "ratio", Lower),
    ("dssp.cache.hit_ratio", "ratio", Higher),
    ("dssp.cache.entries_final", "count", Lower),
    ("dssp.cache.evictions", "count", Lower),
    ("dssp.strategy.scanned_per_update", "count", Lower),
    ("dssp.strategy.invalidated_per_update", "count", Lower),
    ("dssp.strategy.useful_scan_ratio", "ratio", Higher),
    ("storage.home_queries", "count", Lower),
    ("storage.home_updates", "count", Lower),
    ("storage.rows_per_query", "count", Lower),
    ("dssp.sharded.scatter_ratio", "ratio", Lower),
    ("dssp.fleet.fanout_msgs_per_update", "count", Lower),
    // Cost of watching.
    ("telemetry.trace_overhead_ratio", "ratio", Higher),
    ("telemetry.spans_on_ratio", "ratio", Higher),
    // The sim-time trial.
    ("netsim.sim_ops_per_host_s", "ops/s", Higher),
    ("netsim.home_utilization", "ratio", Lower),
    ("netsim.dssp_utilization", "ratio", Lower),
    // Host diagnostics.
    ("host.calib_ms", "ms", Lower),
    ("host.retries", "count", Lower),
    // Isolated probes (probes.rs).
    ("sqlkit.parse_ns_per_stmt", "ns", Lower),
    ("sqlkit.bind_ns_per_stmt", "ns", Lower),
    ("sqlkit.text_ns_per_stmt", "ns", Lower),
    ("storage.exec_ns_per_query", "ns", Lower),
    ("storage.apply_ns_per_update", "ns", Lower),
    ("storage.wal.append_ns_per_rec", "ns", Lower),
    ("storage.wal.replay_ns_per_rec", "ns", Lower),
    ("crypto.seal_ns_per_byte", "ns", Lower),
    ("crypto.open_ns_per_byte", "ns", Lower),
    ("dssp.cache.store_view_ns", "ns", Lower),
    ("dssp.cache.store_blind_ns", "ns", Lower),
    ("dssp.cache.lookup_hit_ns", "ns", Lower),
    ("dssp.cache.lookup_miss_ns", "ns", Lower),
    ("dssp.strategy.decide_ns_per_pair", "ns", Lower),
    ("dssp.proxy.apply_batch_ns_per_msg", "ns", Lower),
    ("dssp.fleet.fanout_ns_per_update", "ns", Lower),
    ("dssp.sharded.routed_ns_per_query", "ns", Lower),
    ("dssp.sharded.scatter_ns_per_query", "ns", Lower),
    ("core.characterize_ms", "ms", Lower),
    ("core.reduce_ms", "ms", Lower),
    ("netsim.event_loop_ns_per_op", "ns", Lower),
];

/// `run_seconds` of the manifest, and `--seconds` when not given.
pub const RUN_SECONDS: u64 = 14;

/// `BENCHMARK.json`, generated: `dsspbench manifest > BENCHMARK.json`.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", w.name.into()), ("why", w.why.into())]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", m.name.into()),
            ("unit", m.unit.into()),
            ("better", m.better.name().into()),
            ("bound", m.bound.into()),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        Json::obj([
            ("name", (*name).into()),
            ("unit", (*unit).into()),
            ("better", better.name().into()),
        ])
    });
    Json::obj([
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root must be what `manifest()` prints.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
    }

    #[test]
    fn manifest_stays_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }
}
