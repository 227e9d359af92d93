//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <mutex_pair|async_tasks|arena_zipf|sim_check>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --record
//! ```
//!
//! A run prints one line per metric (name, value, unit, samples), then
//! as its last line the JSON summary `{"correct", "attempted", "failed",
//! "metrics"}`, and writes the summary with provenance under
//! `perfbench/results/`. `--record` rewrites `perfbench/reference/exact.json`
//! from the current simulator outputs. Paths are relative to the
//! working directory, which must be the repository root.

use sal_bench::cli::{Cli, Parsed};
use sal_perfbench::{execute, sim_check, Options, RunConfig, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const RESULTS: &str = "perfbench/results";
const REFERENCE: &str = "perfbench/reference/exact.json";

fn cli() -> Cli {
    Cli::new(
        "perfbench",
        "seeded end-to-end and per-layer benchmark of the sal stack",
    )
    .opt(
        "--workload",
        "mutex_pair|async_tasks|arena_zipf|sim_check",
        "which workload",
    )
    .opt("--seed", "n", "input seed")
    .opt("--seconds", "s", "measured seconds, 0.05..=3600")
    .opt(
        "--trace",
        "0|1",
        "1: the traced run, printing the per-layer metrics",
    )
    .flag("--record", "rewrite the exact simulator reference and exit")
}

fn options(p: &Parsed) -> Result<Options, String> {
    let required = |name: &str| p.value(name).ok_or(format!("{name} is required"));
    let workload = required("--workload")?;
    let seconds: f64 = p.get("--seconds")?.ok_or("--seconds is required")?;
    if !(0.05..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 0.05..=3600"));
    }
    Ok(Options {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        run: RunConfig {
            seed: p.get("--seed")?.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: match required("--trace")? {
                "0" => false,
                "1" => true,
                v => return Err(format!("--trace takes 0 or 1, not {v}")),
            },
        },
    })
}

fn record() -> Result<(), String> {
    let exact = sim_check::record()?;
    std::fs::write(REFERENCE, exact.to_json().render() + "\n")
        .map_err(|e| format!("writing {REFERENCE}: {e}"))?;
    println!("wrote {REFERENCE}");
    Ok(())
}

fn main() -> ExitCode {
    let cli = cli();
    let parsed = cli.parse_env_or_exit();
    if parsed.is_set("--record") {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match options(&parsed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli.usage());
            return ExitCode::from(2);
        }
    };
    let report = execute(&options);
    for line in report.lines() {
        println!("{line}");
    }
    let file = Path::new(RESULTS).join(format!(
        "{}-seed{}-trace{}.json",
        options.workload.name(),
        options.run.seed,
        u8::from(options.run.trace)
    ));
    let written = std::fs::create_dir_all(RESULTS)
        .and_then(|()| std::fs::write(&file, report.full_json().render() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{}", report.summary_json().render());
    // A stall may leave workers blocked in the lock; exiting here ends them.
    std::process::exit(0)
}
