//! `almost_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run header and a summary as JSON lines, then the result
//! line last: `{"correct", "attempted", "failed", "metrics"}`. The same
//! three objects (and, traced, a Chrome trace of the spans) are written
//! under `perfbench/out/`. Exits 1 when an output check failed and 2 on
//! bad usage, without a result line.

use almost_perfbench::json::Json;
use almost_perfbench::{chrome_trace, config, run, Options, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("almost_perfbench: {problem}");
    eprintln!(
        "usage: almost_perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: {what}");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            options.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(options)
}

fn main() -> ExitCode {
    if let Some(var) = config::refuse_almost_env() {
        return usage(&format!(
            "{var} is set; the benchmark pins every width and budget itself, unset it"
        ));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let report = match run(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("almost_perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };

    let header = Json::obj([("header", report.header.clone())]).render();
    let summary = Json::obj([("summary", report.summary.clone())]).render();
    let result = report.result_line();
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        options.workload,
        options.seed,
        u8::from(options.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|_| {
            std::fs::write(
                out.join(format!("{stem}.json")),
                format!("{header}\n{summary}\n{result}\n"),
            )
        })
        .and_then(|_| {
            if options.trace {
                std::fs::write(
                    out.join(format!("{stem}.trace.json")),
                    chrome_trace(&report.header, &report.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("almost_perfbench: cannot write {}: {e}", out.display());
    }

    println!("{header}");
    println!("{summary}");
    println!("{result}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
