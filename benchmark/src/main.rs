//! `dsspbench` — the repo's wall-clock + sim-time benchmark.
//!
//! * `dsspbench --workload W --seed N --seconds S --trace 0|1` measures one
//!   workload and prints the contract's result object as the last line.
//! * `dsspbench [--seed N] [--seconds S]` measures every workload, prints
//!   every metric by name with its unit, and writes
//!   `benchmark/out/results.json`.
//! * `dsspbench --selfcheck` measures every workload twice and fails unless
//!   the two sets agree within the benchmark's own bounds.
//!
//! `child` is the internal one-repeat subcommand the parent spawns;
//! `manifest` prints `BENCHMARK.json` from the tables in `metrics.rs`.

mod child;
mod metrics;
mod orchestrate;
mod pass;
mod probes;
mod stats;
mod sut;
mod workloads;

use orchestrate::{measure, Plan, WorkloadReport};
use scs_telemetry::Json;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{WorkloadSpec, WORKLOADS};

const DEFAULT_SEED: u64 = 42;

fn usage() -> String {
    format!(
        "usage: dsspbench [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]",
        WORKLOADS.map(|w| w.name).join("|")
    )
}

#[derive(Default)]
struct Args {
    child: bool,
    manifest: bool,
    selfcheck: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    mode: Option<child::Mode>,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "child" => args.child = true,
            "manifest" => args.manifest = true,
            "--selfcheck" => args.selfcheck = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--mode" => {
                let v = value()?;
                args.mode = Some(child::Mode::parse(&v).ok_or(format!("unknown mode `{v}`"))?);
            }
            "--spans" => args.spans = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static WorkloadSpec, String> {
    workloads::find(name).ok_or(format!("unknown workload `{name}`\n{}", usage()))
}

fn write_results(reports: &[WorkloadReport], seed: u64) -> std::io::Result<()> {
    let doc = Json::obj([
        ("seed", seed.into()),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| {
                        let entry = Json::obj([
                            ("end_to_end", orchestrate::result_json(r, false)),
                            // The host-scaled ones as this host measured them.
                            (
                                "end_to_end_raw",
                                Json::obj(r.raw.iter().map(|&(n, v)| (n, Json::Num(v)))),
                            ),
                            ("per_layer", orchestrate::result_json(r, true)),
                            ("counts", r.counts.clone()),
                        ]);
                        (r.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all("benchmark/out")?;
    std::fs::write("benchmark/out/results.json", doc.render_pretty())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if args.manifest {
        print!("{}", metrics::manifest().render_pretty());
        return Ok(true);
    }
    if args.child {
        let spec = find_workload(args.workload.as_deref().ok_or("child needs --workload")?)?;
        let mode = args.mode.ok_or("child needs --mode")?;
        println!(
            "{}",
            child::run(spec, seed, mode, args.spans.as_deref())?.render()
        );
        return Ok(true);
    }
    // One workload gets `run_seconds`; the all-workloads run, whose rounds
    // are a timed and a traced child per workload, gets twice that.
    let run_seconds = metrics::RUN_SECONDS as f64;
    let single = args.workload.is_some() || args.selfcheck;
    let seconds = args.seconds.unwrap_or(if single {
        run_seconds
    } else {
        2.0 * run_seconds
    });
    let all: Vec<&'static WorkloadSpec> = WORKLOADS.iter().collect();
    let started = Instant::now();

    if args.selfcheck {
        let plan = Plan {
            seed,
            seconds,
            trace: false,
        };
        let first = measure(&all, &plan)?;
        let second = measure(&all, &plan)?;
        let disagreements = orchestrate::selfcheck(&first, &second);
        for d in &disagreements {
            println!("DISAGREE {d}");
        }
        let correct = first.iter().chain(&second).all(WorkloadReport::correct);
        println!(
            "selfcheck wall time {:.1}s",
            started.elapsed().as_secs_f64()
        );
        return Ok(correct && disagreements.is_empty());
    }

    if let Some(name) = &args.workload {
        let trace = args.trace.unwrap_or(false);
        let report = measure(
            &[find_workload(name)?],
            &Plan {
                seed,
                seconds,
                trace,
            },
        )?
        .remove(0);
        for p in &report.problems {
            eprintln!("dsspbench: {}: {p}", report.name);
        }
        println!("{}", orchestrate::result_json(&report, trace).render());
        return Ok(report.correct());
    }

    let reports = measure(
        &all,
        &Plan {
            seed,
            seconds,
            trace: true,
        },
    )?;
    orchestrate::print_table(&reports);
    let contrasts = orchestrate::contrast_problems(&reports);
    for p in &contrasts {
        println!("PROBLEM: {p}");
    }
    write_results(&reports, seed).map_err(|e| format!("benchmark/out/results.json: {e}"))?;
    println!("\ntotal wall time {:.1}s", started.elapsed().as_secs_f64());
    Ok(contrasts.is_empty() && reports.iter().all(WorkloadReport::correct))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dsspbench: outputs were not correct");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("dsspbench: {e}");
            ExitCode::from(2)
        }
    }
}
