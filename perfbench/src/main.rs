//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. A traced run
//! also prints its per-layer report and writes its spans to
//! `perfbench-out/trace-<workload>-seed<n>.jsonl`.
//!
//! `perfbench --describe` prints the environment record
//! (`perfbench/ENVIRONMENT.json`).

use std::process::ExitCode;

use perfbench::config::{self, Workload};
use perfbench::stats::{peak_rss_mb, result_json};
use perfbench::{inproc, layers, script, served};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn describe() -> dt_common::Result<String> {
    let mut bytes = Vec::new();
    for w in Workload::ALL {
        let inst = script::instance(w, 1, 0);
        let built = inproc::build(&inst, &inst.load_sql())?;
        bytes.push((w, inproc::master_bytes(&built.stores)));
    }
    Ok(config::describe(|w| {
        bytes.iter().find(|(x, _)| *x == w).map_or(0, |(_, b)| *b)
    }))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        return match describe() {
            Ok(s) => {
                print!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inst = script::instance(
        args.workload,
        args.seed,
        config::script_len(args.workload, args.seconds),
    );
    let outcome = match args.workload {
        Workload::ServedPoint => served::run(&inst, args.trace),
        _ => inproc::run(&inst, args.trace),
    };
    let (setup_s, pass, tracer, data) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        print!("{}", layers::report(&tracer, &data));
        let path = std::path::PathBuf::from("perfbench-out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
        data.per_layer()
    } else {
        println!("{}", pass.samples());
        pass.end_to_end(&setup_s, peak_rss_mb())
    };
    println!(
        "{}",
        result_json(pass.failed == 0, pass.attempted, pass.failed, &metrics)
    );
    ExitCode::SUCCESS
}
