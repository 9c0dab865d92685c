//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <flagship|fourth_d2|atlas> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics and the layer table.

use std::process::ExitCode;

use cppll_perfbench::{run, RunConfig, Workload};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed: {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("--seconds: {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1: {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <flagship|fourth_d2|atlas> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    for line in &result.notes {
        println!("{line}");
    }
    println!("{}", result.json());
    ExitCode::SUCCESS
}
