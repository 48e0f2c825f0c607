//! `hvc-e2ebench` — runs the benchmark's workloads and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! hvc-e2ebench [--workload gups-manyseg|fork-storm-4c|sweep-fig9|all]
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced operations,
//! `--trace 1` the per-layer metrics of a separate traced run. With
//! `--workload all` (the default) every workload runs both ways in this
//! one process, and metric names are prefixed with the workload. Report
//! files are written to `.bench_out/` in the working directory.

use hvc_e2ebench::{reset_peak_rss, run, Plan, Scale, Summary, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {}, all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Prints a run's metrics and problems in readable form.
fn print_summary(workload: &str, seed: u64, summary: &Summary) {
    for (name, value, unit) in &summary.metrics {
        println!("{workload:<14} {name:<32} {value:>16.6} {unit}");
    }
    if let Some(d) = summary.digest {
        println!("{workload:<14} sim_digest seed={seed} {d:016x}");
    }
    for p in &summary.problems {
        eprintln!("{workload}: FAILED CHECK: {p}");
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hvc-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.seed, Scale::Full, PathBuf::from(".bench_out"));
    let budget = Duration::from_secs_f64(args.seconds);
    eprintln!(
        "hvc-e2ebench: workload={} seed={} seconds={} sweep jobs={} host threads={}",
        args.workload,
        args.seed,
        args.seconds,
        plan.jobs,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut total = Summary::default();
    for &workload in &workloads {
        reset_peak_rss();
        for &traced in &modes {
            let summary = run(workload, &plan, budget, traced);
            print_summary(workload, args.seed, &summary);
            total.attempted += summary.attempted;
            total.failed += summary.failed;
            for (name, value, unit) in summary.metrics {
                let name = if workloads.len() == 1 {
                    name
                } else {
                    format!("{workload}.{name}")
                };
                total.metrics.push((name, value, unit));
            }
        }
    }
    println!("{}", total.json_line());
    ExitCode::SUCCESS
}
