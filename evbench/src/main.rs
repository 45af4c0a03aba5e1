//! `evbench`: the repository's benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and what each layer figure should
//! move.
//!
//! ```text
//! evbench --workload <davis_vote|wire_mix> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it carries the host and sample context.

mod davis;
mod engine;
mod feed;
mod golden;
mod host;
mod layers;
mod probe;
mod report;
mod stats;
mod trace;
mod wire;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory (under the working directory) the traced runs write spans to.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = golden::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Writes a tracer's spans under [`TRACE_DIR`], to a file named after the
/// workload, the seed and `suffix`.
pub fn write_trace(tracer: &trace::Tracer, suffix: &str, outcome: &Outcome) {
    let workload = outcome
        .context
        .get("workload")
        .map(|w| w.trim_matches('"').to_string())
        .unwrap_or_default();
    let seed = outcome.context.get("seed").cloned().unwrap_or_default();
    let path = PathBuf::from(TRACE_DIR).join(format!("{workload}-seed{seed}{suffix}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("evbench: writing {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    outcome.note_str("workload", &args.workload);
    outcome.note("seed", args.seed);
    outcome.note("seconds", args.seconds);
    outcome.note("traced", args.trace);
    outcome.note("nproc", host::nproc());
    outcome.note_str("dispatch", host::dispatch());
    outcome.note_str("revision", &host::revision());
    let ran = match args.workload.as_str() {
        "davis_vote" => davis::run(args.seed, args.seconds, args.trace, &mut outcome),
        "wire_mix" => wire::run(args.seed, args.seconds, args.trace, &mut outcome),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = ran {
        eprintln!("evbench: {e}");
        return ExitCode::FAILURE;
    }
    let attempted = outcome.attempted.max(1) as f64;
    outcome.note("error_rate", outcome.failed as f64 / attempted);
    let line = if args.trace {
        outcome.result_line(PER_LAYER, false)
    } else {
        outcome.result_line(END_TO_END, true)
    };
    match line {
        Ok(line) => {
            println!("{}", outcome.context_line());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("evbench: {e}");
            ExitCode::FAILURE
        }
    }
}
