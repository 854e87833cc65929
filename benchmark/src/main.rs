//! `cms-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. Exits 1 when an
//! output check failed and 2 on bad arguments.

use cms_benchmark::{parse_args, run, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "workload {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for line in &report.lines {
        println!("{line}");
    }
    for metric in report.catalogue {
        println!(
            "metric {} = {} {}",
            metric.name, report.values[metric.name], metric.unit
        );
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
