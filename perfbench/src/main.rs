//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any correctness check fails, 2 on bad
//! arguments.

use std::process::ExitCode;

use legato_perfbench::bench::{self, Plan};
use legato_perfbench::workloads::{Sizes, Workload};

const USAGE: &str = "usage: perfbench --workload <cluster_scale|all_pillars|tenant_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Directory (relative to the working directory) traced runs write
/// their span files to.
const TRACE_DIR: &str = ".perfbench_out";

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
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
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        sizes: Sizes::full(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = bench::run(&plan);
    println!(
        "perfbench {} seed {} ({})",
        plan.workload.name(),
        plan.seed,
        if plan.traced { "traced" } else { "untraced" }
    );
    for note in &summary.notes {
        println!("  {note}");
    }
    for (name, m) in &summary.metrics {
        println!("  {name:<32} {:>20.6} {}", m.value, m.unit);
    }
    for v in &summary.violations {
        println!("  VIOLATION: {v}");
    }
    if let Some(tracer) = &summary.tracer {
        let path = format!(
            "{TRACE_DIR}/trace-{}-seed{}.jsonl",
            plan.workload.name(),
            plan.seed
        );
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, tracer.spans_jsonl()))
        {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    println!("{}", bench::result_json(&summary));
    if summary.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
