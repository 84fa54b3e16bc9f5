//! `scs-bench <command> [--smoke|--full] [--seed N] […]` — the one
//! experiment binary. Run it with no arguments for the command table.

use scs_apps::BenchApp;
use scs_bench::{
    ablations, chaos, figures, finish_run, observatory, regress, tables, Mode, ProbeRun, PROBES,
};

/// The one argument grammar: `--flag` booleans and `--key value` pairs
/// the command declares, plus positionals; anything else is a usage
/// error.
struct Flags {
    bools: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(
        argv: &[String],
        bools: &[&str],
        values: &[&str],
        positional: usize,
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            bools: Vec::new(),
            values: Vec::new(),
            positional: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if bools.contains(&arg.as_str()) {
                flags.bools.push(arg.clone());
            } else if values.contains(&arg.as_str()) {
                let value = argv.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else if flags.positional.len() == positional {
                return Err(format!("unexpected argument {arg}"));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    /// The value of `--key`, parsed; a value that does not parse is a
    /// usage error, never a silent default.
    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let raw = self.values.iter().rev().find(|(k, _)| k == key);
        raw.map(|(_, v)| v.parse().map_err(|_| format!("{key}: cannot parse '{v}'")))
            .transpose()
    }

    fn mode(&self) -> Mode {
        match (self.has("--smoke"), self.has("--full")) {
            (true, _) => Mode::Smoke,
            (false, true) => Mode::Full,
            (false, false) => Mode::Quick,
        }
    }
}

/// One non-probe command: the arguments it takes and its body.
struct Command {
    name: &'static str,
    about: &'static str,
    bools: &'static [&'static str],
    values: &'static [&'static str],
    positional: usize,
    run: fn(&Flags) -> Result<i32, String>,
}

const MODE_FLAGS: &[&str] = &["--smoke", "--full"];

const COMMANDS: [Command; 12] = [
    Command {
        name: "chaos",
        about: "fault injection vs. the staleness oracle (artifacts/telemetry.json)",
        bools: MODE_FLAGS,
        values: &["--seed"],
        positional: 0,
        run: |f| {
            let run = chaos::run(f.mode(), f.value("--seed")?);
            Ok(finish_probe("chaos", "artifacts/telemetry.json", run))
        },
    },
    Command {
        name: "observatory",
        about: "every probe at --smoke plus two span-recorded auction runs: the perf baseline",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| Ok(observatory::run()),
    },
    Command {
        name: "regress",
        about: "diffs two reports (CI perf gate): --baseline F [--candidate F] [--threshold-pct N] [--subset] [--self-check] [--json]",
        bools: &["--subset", "--self-check", "--json"],
        values: &["--baseline", "--candidate", "--threshold-pct"],
        positional: 0,
        run: |f| {
            let baseline = f.value("--baseline")?.ok_or("regress needs --baseline <file>")?;
            Ok(regress::run(&regress::Options {
                baseline,
                candidate: f.value("--candidate")?,
                threshold_pct: f.value("--threshold-pct")?.unwrap_or(10.0),
                subset: f.has("--subset"),
                self_check: f.has("--self-check"),
                json: f.has("--json"),
            }))
        },
    },
    Command {
        name: "table2",
        about: "Table 2 — toystore invalidations by information level",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            tables::table2();
            Ok(0)
        },
    },
    Command {
        name: "table4",
        about: "Table 4 — toystore IPM characterization",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            tables::table4();
            Ok(0)
        },
    },
    Command {
        name: "table7",
        about: "Table 7 — IPM characterization counts, three apps",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            tables::table7();
            Ok(0)
        },
    },
    Command {
        name: "fig3",
        about: "Figure 3 — bookstore security-scalability tradeoff",
        bools: MODE_FLAGS,
        values: &[],
        positional: 0,
        run: |f| Ok(figures::fig3(f.mode())),
    },
    Command {
        name: "fig7",
        about: "Figure 7 — exposure levels before/after static analysis",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            figures::fig7();
            Ok(0)
        },
    },
    Command {
        name: "fig8",
        about: "Figure 8 — scalability vs. invalidation strategy",
        bools: MODE_FLAGS,
        values: &[],
        positional: 0,
        run: |f| Ok(figures::fig8(f.mode())),
    },
    Command {
        name: "ablation_ic",
        about: "extension — §4.5 integrity constraints on/off",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            ablations::ablation_ic();
            Ok(0)
        },
    },
    Command {
        name: "ablation_cache",
        about: "extension — finite DSSP cache capacity",
        bools: &[],
        values: &[],
        positional: 0,
        run: |_| {
            ablations::ablation_cache();
            Ok(0)
        },
    },
    Command {
        name: "explain-app",
        about: "per-pair provenance of the static analysis: [auction|bboard|bookstore] [--all]",
        bools: &["--all"],
        values: &[],
        positional: 1,
        run: |f| {
            let app = match f.positional.first().map(String::as_str) {
                None => BenchApp::Bookstore,
                Some(name) => *BenchApp::ALL
                    .iter()
                    .find(|a| a.name() == name)
                    .ok_or(format!("unknown application {name}"))?,
            };
            tables::explain_app(app, f.has("--all"));
            Ok(0)
        },
    },
];

/// "Run one row, print its text, write its artifact."
fn finish_probe(name: &str, path: &str, run: ProbeRun) -> i32 {
    print!("{}", run.text);
    finish_run(name, path, run.entries, &run.failures)
}

fn usage() -> String {
    let mut out =
        String::from("usage: scs-bench <command> [--smoke|--full] [--seed N]\n\nprobes:\n");
    for p in &PROBES {
        out.push_str(&format!("  {:<15} {}\n", p.name, p.about));
    }
    out.push_str("\nother commands:\n");
    for c in &COMMANDS {
        out.push_str(&format!("  {:<15} {}\n", c.name, c.about));
    }
    out
}

/// Runs `name`; `Err` is a usage error (exit 2).
fn dispatch(name: &str, argv: &[String]) -> Result<i32, String> {
    if let Some(p) = PROBES.iter().find(|p| p.name == name) {
        let flags = Flags::parse(argv, MODE_FLAGS, &["--seed"], 0)?;
        let run = (p.run)(flags.mode(), flags.value("--seed")?);
        let path = format!("artifacts/{}.json", p.name);
        return Ok(finish_probe(p.name, &path, run));
    }
    let c = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or(format!("unknown command {name}\n\n{}", usage()))?;
    (c.run)(&Flags::parse(argv, c.bools, c.values, c.positional)?)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.split_first() {
        None => Err(usage()),
        Some((name, rest)) => dispatch(name, rest),
    }
    .unwrap_or_else(|e| {
        eprintln!("scs-bench: {e}");
        2
    });
    std::process::exit(code);
}
