//! Command line of the simulator benchmark; see `README.md` beside
//! this package.

mod record;

use std::process::ExitCode;
use std::time::Duration;

use zssd_perfbench::{run_untraced, traced, Workload, DEFAULT_SEED};

/// Measuring time of a run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 40;

const USAGE: &str =
    "usage: zssd-perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
       zssd-perfbench --record
workloads: mail-dvp, trans-dvp, mail-dedup";

/// Parsed command line.
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Record,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    if args == ["--record"] {
        return Ok(Command::Record);
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload: {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run {
        workload,
        seed,
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace,
    })
}

fn main() -> ExitCode {
    // The simulator's crates read `ZSSD_*` knobs (fault injection, for
    // one) from the environment; a stray one in the caller's shell must
    // not change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ZSSD_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Record => record::record(),
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let outcome = if trace {
                traced::run_traced(&workload, seed, 1.0)
            } else {
                run_untraced(&workload, seed, Duration::from_secs(seconds), 1.0)
            };
            println!(
                "workload {} ({}), seed {seed}, {}",
                workload.name,
                workload.system,
                if trace { "traced" } else { "untraced" }
            );
            print!("{}", outcome.describe());
            for failure in &outcome.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
