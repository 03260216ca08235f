//! `perfbench`: the repository's benchmark of the served query path.
//!
//! ```text
//! perfbench --workload <update-mix|strategy-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a workload runs against an in-process
//! `alexander_server::QueryService` over loopback TCP, checks every reply
//! against an oracle that does not use the engine, and prints every
//! end-to-end metric. With `--trace 1` the same seeded operations are
//! replayed in-process, one span around each call into a layer, and the
//! per-layer metrics are printed instead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Every thread of a run, server and clients, runs on one CPU (see
//! [`wire::pin_to_one_cpu`]).

mod data;
mod drive;
mod oracle;
mod pipeline;
mod report;
mod rng;
mod stats;
mod strategy_mix;
mod sweep;
mod trace;
mod update_mix;
mod wire;

use drive::Args;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <update-mix|strategy-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("update-mix", false) => update_mix::run,
        ("update-mix", true) => update_mix::traced,
        ("strategy-mix", false) => strategy_mix::run,
        ("strategy-mix", true) => strategy_mix::traced,
        (w, _) => {
            eprintln!("perfbench: unknown workload `{w}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread starts, so that every thread of the run inherits it.
    let cpu = match wire::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin the run to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads} cpu={cpu}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(out) if out.correct && out.print(&header) => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("perfbench: {header}: the run failed its checks");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {header}: {e}");
            ExitCode::FAILURE
        }
    }
}
