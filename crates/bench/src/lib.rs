//! # scs-bench — experiment harness
//!
//! One binary, `scs-bench <command> [--smoke|--full] [--seed N]`; run it
//! with no arguments for the command table, which is generated from
//! [`PROBES`] and the binary's own command rows (the paper's tables and
//! figures — `table2`, `table4`, `table7`, `fig3`, `fig7`, `fig8` — the
//! ablations, `chaos`, `observatory` and `regress`). `DESIGN.md`'s
//! per-experiment index maps each to what it reproduces.
//!
//! A **probe** is one row of [`PROBES`]: a deterministic experiment that
//! returns report entries, violated acceptance checks and its rendered
//! tables ([`ProbeRun`]). `scs-bench <probe>` runs one row, prints its
//! text and writes `artifacts/<name>.json`; `scs-bench observatory` runs
//! every row at [`Mode::Smoke`] and commits the lot to the perf baseline
//! that [`regress`] gates against.
//!
//! Criterion microbenchmarks live under `benches/`.

pub mod ablations;
pub mod chaos;
pub mod elastic;
pub mod failover;
pub mod figures;
pub mod freshness;
pub mod frontier;
pub mod observatory;
pub mod overload;
pub mod regress;
pub mod scaleout;
pub mod tables;

use scs_core::ExposureLevel;
use scs_telemetry::Json;

/// `println!` into a `String`: probe text is returned, not printed.
macro_rules! outln {
    ($dst:expr) => { $dst.push('\n') };
    ($dst:expr, $($arg:tt)*) => {{
        $dst.push_str(&format!($($arg)*));
        $dst.push('\n');
    }};
}
pub(crate) use outln;

/// How big a run the caller asked for — parsed once from `--smoke` /
/// `--full` (neither: `Quick`). Each experiment maps it to its own sizes
/// privately; `Smoke` is always the configuration the committed
/// baseline carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Smoke,
    Quick,
    Full,
}

impl Mode {
    /// Scalability-search fidelity for the paper's figures: `--full`
    /// matches the 10-minute trials, anything else finishes in minutes.
    pub fn search_fidelity(self) -> scs_apps::Fidelity {
        match self {
            Mode::Full => scs_apps::Fidelity::full(),
            Mode::Smoke | Mode::Quick => scs_apps::Fidelity::quick(),
        }
    }
}

/// What one probe run produced.
pub struct ProbeRun {
    /// Report entries, in baseline order (what `regress` diffs).
    pub entries: Vec<Json>,
    /// Violated acceptance checks; empty means the probe passed.
    pub failures: Vec<String>,
    /// The human-readable tables and shape notes.
    pub text: String,
}

/// One row of the probe table.
pub struct Probe {
    /// Subcommand name and artifact stem (`artifacts/<name>.json`).
    pub name: &'static str,
    pub about: &'static str,
    /// Runs the probe; `None` keeps its canonical (baseline) seed.
    pub run: fn(Mode, Option<u64>) -> ProbeRun,
}

/// Every probe, in the order the observatory commits their entries.
pub static PROBES: [Probe; 7] = [
    Probe {
        name: scaleout::PROXIES.name,
        about: "max users vs. number of DSSP proxies (Fig. 8-10 x-axis)",
        run: |mode, seed| scaleout::run(&scaleout::PROXIES, mode, seed),
    },
    Probe {
        name: scaleout::HOME_SHARDS.name,
        about: "max users vs. number of home shards",
        run: |mode, seed| scaleout::run(&scaleout::HOME_SHARDS, mode, seed),
    },
    Probe {
        name: "overload",
        about: "4x spike demo + goodput-vs-offered-load curve past the knee",
        run: overload::run,
    },
    Probe {
        name: "freshness",
        about: "propagation-lag / staleness-age / amplification curves vs. fleet size",
        run: freshness::run,
    },
    Probe {
        name: "elastic",
        about: "flash crowd: autoscaled fleet vs. a bracket of static sizes",
        run: elastic::run,
    },
    Probe {
        name: "failover",
        about: "home-tier crash/promotion: unavailability window, goodput dip, acked-write ledger",
        run: failover::run,
    },
    Probe {
        name: "frontier",
        about: "leakage-vs-max-users Pareto frontier over the exposure lattice",
        run: frontier::run,
    },
];

/// The shared epilogue of every command that exports a report: writes
/// the entries to `path` (`$SCS_TELEMETRY_OUT` overrides it) and turns
/// acceptance failures into the exit status — 2 when the export cannot
/// be written, 1 when any check failed, 0 otherwise.
pub fn finish_run(name: &str, path: &str, entries: Vec<Json>, failures: &[String]) -> i32 {
    match scs_apps::report::write_telemetry(&scs_apps::report::telemetry_report(entries), path) {
        Ok(p) => println!("\n{name} report written to {}", p.display()),
        Err(e) => {
            eprintln!("\nFailed to write {name} report: {e}");
            return 2;
        }
    }
    if !failures.is_empty() {
        eprintln!("\n{} {name} check(s) failed:", failures.len());
        for f in failures {
            eprintln!("  FAIL {f}");
        }
        return 1;
    }
    println!("all {name} acceptance checks passed");
    0
}

/// Appends one line per failed SLO verdict in `entry`.
pub fn slo_failures(entry: &Json, failures: &mut Vec<String>) {
    let label = regress::entry_key(entry);
    let slos = entry.get("slo").and_then(Json::as_arr);
    for r in slos.into_iter().flatten() {
        if r.get("passed").and_then(Json::as_bool) == Some(false) {
            let name = r.get("name").and_then(Json::as_str).unwrap_or("?");
            let detail = r.get("detail").and_then(Json::as_str).unwrap_or("");
            failures.push(format!("{label}: SLO {name} failed ({detail})"));
        }
    }
}

/// Renders a simple fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// An ASCII sparkline of exposure levels (Figure-7 style):
/// `b` = blind, `t` = template, `s` = stmt, `v` = view.
pub fn exposure_strip(levels: &[ExposureLevel]) -> String {
    levels
        .iter()
        .map(|e| match e {
            ExposureLevel::Blind => 'b',
            ExposureLevel::Template => 't',
            ExposureLevel::Stmt => 's',
            ExposureLevel::View => 'v',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_checks_columns() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn strip_renders_levels() {
        use ExposureLevel::*;
        assert_eq!(exposure_strip(&[Blind, Template, Stmt, View]), "btsv");
    }
}
