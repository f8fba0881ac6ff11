//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of timed closed-loop sessions and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! reports the per-layer ones. Exits non-zero if any session failed or
//! disagreed with its reference. See `README.md`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{faded, figures, replay, Outcome};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "replay-hmmer-addrcheck",
    "replay-gcc-memleak",
    "faded-mixed",
    "figures-cycle",
];

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Working directory for the daemon's socket, relative to the current
/// directory (unix socket paths are short-limited).
const RUN_DIR: &str = "perfbench/.run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(a: &Args) -> Outcome {
    // `setup_s` is an end-to-end metric: a traced run sets up once.
    let setups = if a.trace { 1 } else { SETUPS };
    match a.workload.as_str() {
        "replay-hmmer-addrcheck" => {
            replay::workload("hmmer", "AddrCheck", a.seed, a.seconds, a.trace, setups)
        }
        "replay-gcc-memleak" => {
            replay::workload("gcc", "MemLeak", a.seed, a.seconds, a.trace, setups)
        }
        "faded-mixed" => {
            let dir = Path::new(RUN_DIR);
            std::fs::create_dir_all(dir).expect("the run directory is creatable");
            let out = faded::workload(a.seed, a.seconds, a.trace, setups, dir);
            let _ = std::fs::remove_dir(dir);
            out
        }
        "figures-cycle" => figures::workload(a.seed, a.seconds, a.trace, setups),
        other => unreachable!("workload {other} was validated by parse"),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    println!("{}", out.to_json());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} sessions failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
