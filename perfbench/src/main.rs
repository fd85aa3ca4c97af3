//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero when any verdict differs from its
//! reference or the inputs differ from the pinned totals.

use rma_perfbench::{run, Opts, Size, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <large-churn|suite-many> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Opts {
        workload,
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: run failed its correctness checks");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
