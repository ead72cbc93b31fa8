//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check fails and 2 on bad arguments (without a result).

use std::process::ExitCode;

use perfbench::run::{self, Args};
use perfbench::workloads;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds > 120 {
        return Err(format!("--seconds {} exceeds 120", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {:?}\n{USAGE}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let rep = run::run(&w, &args);
    for line in &rep.lines {
        println!("{line}");
    }
    for p in &rep.problems {
        eprintln!("correctness: {p}");
    }
    println!("{}", rep.json());
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
