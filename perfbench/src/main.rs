//! `karyon-perfbench --workload <kernel|overload|fleet> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload and prints its metrics as
//! the last line of standard output; `karyon-perfbench --calibrate` prints
//! the per-family run costs the `fleet` replication counts derive from.

use std::path::PathBuf;
use std::process::ExitCode;

use karyon_perfbench::bench::{self, Options};
use karyon_perfbench::workload::{Workload, DEFAULT_SEED, FLEET};

/// Wall seconds each family's session gets per `fleet` round.
const FLEET_FAMILY_SECONDS: f64 = 0.1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--calibrate") {
        return calibrate();
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: karyon-perfbench --workload <kernel|overload|fleet> [--seed N] \
                 [--seconds S] [--trace 0|1] | --calibrate"
            );
            return ExitCode::from(2);
        }
    };
    match bench::run(&opts) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("check: {problem}");
            }
            for m in &outcome.metrics {
                println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
            }
            // The complement of `completed_runs_ratio`, for reading only: the
            // result line carries `attempted` and `failed` instead.
            let failed = outcome.failed as f64 / outcome.attempted as f64;
            println!("{:<44} {:>16.6} ratio", "failed_runs_ratio", failed);
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Kernel,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::new(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| bad("kernel, overload or fleet"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a non-negative integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.out_dir = PathBuf::from(".bench_out").join(opts.workload.name());
    Ok(opts)
}

/// Prints each `fleet` family's cost per run in its `fleet` session form
/// beside the replication count that gives it [`FLEET_FAMILY_SECONDS`] per
/// round, and the frozen count.
fn calibrate() -> ExitCode {
    let out_dir = PathBuf::from(".bench_out").join("calibrate");
    match bench::calibrate(&out_dir, FLEET_FAMILY_SECONDS) {
        Ok(costs) => {
            println!("{:<22} {:>12} {:>10} {:>10}", "family", "us/run", "derived", "frozen");
            for ((family, seconds), (_, frozen)) in costs.into_iter().zip(FLEET) {
                let derived = (FLEET_FAMILY_SECONDS / seconds).round().max(1.0);
                println!("{family:<22} {:>12.2} {derived:>10} {frozen:>10}", seconds * 1e6);
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
