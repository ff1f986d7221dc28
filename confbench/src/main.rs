//! `confbench --workload <novel|memo|stream> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric as `name value unit`, then the result as one JSON
//! object on the last line of standard output. Exits non-zero, printing
//! no result, when the arguments are malformed or the run cannot
//! complete.

use std::process::ExitCode;

use confbench::{run, Config, Scale, Workload};

const USAGE: &str =
    "usage: confbench --workload <novel|memo|stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::FULL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("confbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(report) if report.metrics_are_finite() => report,
        Ok(_) => {
            eprintln!("confbench: a metric is not a finite number");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("confbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &report.problems {
        eprintln!("confbench: check failed: {problem}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
