//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_boot|sim_crash|kv_read|kv_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is a separate run that times calls into each layer from here and
//! prints the per-layer metrics. Either way the last line of stdout is
//! one JSON object, and the exit code is non-zero if an output check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod kv;
mod loadgen;
mod mesh;
mod procfs;
mod report;
mod sim;
mod stats;

use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The first line of a command's stdout, or `unknown`.
fn probe(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts, printed with every run.
fn stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# host: nproc={cores} rustc=\"{}\" profile={profile} commit={}",
        probe(Command::new("rustc").arg("-V")),
        // Only a repository rooted here: never a parent directory's.
        probe(
            Command::new("git")
                .env("GIT_DIR", ".git")
                .args(["rev-parse", "--short", "HEAD"])
        ),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("sim_boot", false) => Ok(sim::run(sim::SimWorkload::Boot, args.seed, args.seconds)),
        ("sim_boot", true) => Ok(sim::run_traced(sim::SimWorkload::Boot, args.seed)),
        ("sim_crash", false) => Ok(sim::run(sim::SimWorkload::Crash, args.seed, args.seconds)),
        ("sim_crash", true) => Ok(sim::run_traced(sim::SimWorkload::Crash, args.seed)),
        ("kv_read", trace) => kv::run(kv::KvWorkload::read(), args.seed, args.seconds, trace),
        ("kv_write", trace) => kv::run(kv::KvWorkload::write(), args.seed, args.seconds, trace),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.print(args.trace);
    if outcome.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
