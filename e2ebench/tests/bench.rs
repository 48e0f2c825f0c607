//! The benchmark's own tests, at tiny sizes: the metric catalogue
//! and the default run length match `BENCHMARK.json`, every metric is printed with its unit on
//! every workload, traced and untraced runs simulate the same
//! execution, the window loops match the engines' own run loops, a
//! corrupted output counts as a failed operation, and the held-out seed
//! passes the same checks.

use hvc::core::{SystemConfig, SystemSim};
use hvc::mc::McSim;
use hvc::os::Kernel;
use hvc::runner::json::{self, Value};
use hvc::runner::{params, run_report_value, MC_QUANTUM};
use hvc_e2ebench::{
    check, check_digests, run, run_op, Op, Output, Plan, Scale, Summary, END_TO_END, HELD_OUT_SEED,
    PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::path::PathBuf;
use std::time::Duration;

fn plan(test: &str, seed: u64) -> Plan {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    Plan::new(seed, Scale::Tiny, dir)
}

fn op(test: &str, workload: &str, seed: u64, traced: bool) -> Op {
    run_op(workload, &plan(test, seed), traced).expect("tiny operation runs")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let run_seconds = doc.get("run_seconds").and_then(Value::as_u64);
    assert_eq!(run_seconds, Some(RUN_SECONDS), "the --seconds default");
}

#[test]
fn every_metric_is_printed_with_its_unit_on_every_workload() {
    let doc = benchmark_json();
    for &workload in WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let summary = run(workload, &plan("printed", 1), Duration::ZERO, traced);
            assert_eq!(summary.failed, 0, "{workload}: {:?}", summary.problems);
            let line = json::parse(&summary.json_line()).expect("result line parses");
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let metrics = line.get("metrics").expect("metrics");
            let Value::Object(fields) = metrics else {
                panic!("metrics is not an object")
            };
            let printed: Vec<(String, String)> = fields
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, listed(&doc, key), "{workload} {key}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for &workload in WORKLOADS {
        let summary = run(workload, &plan("nonzero", 1), Duration::ZERO, false);
        for (name, value, _) in &summary.metrics {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_and_untraced_runs_simulate_the_same_execution() {
    for &workload in WORKLOADS {
        let plain = op("digests", workload, 1, false);
        let traced = op("digests", workload, 1, true);
        assert_eq!(plain.unit_digests, traced.unit_digests, "{workload}");
        assert!(plain.spans.spans().is_empty());
        assert!(traced.spans.coverage("op") > 0.8, "{workload}");
    }
}

/// The window loops reproduce `SystemSim::run` and `McSim`'s own
/// warm-up + run-to-completion bit for bit.
#[test]
fn window_loops_match_the_engines_run_loops() {
    let engine = |workload: &str, scheme: &str, cores: usize| {
        let (refs, warm) = (3_000, 1_000);
        let spec = params::workload_by_name(workload, 1 << 30).expect("workload");
        let (scheme_kind, policy) = params::parse_scheme(scheme).expect("scheme");
        let mut kernel = Kernel::new(16 << 30, policy);
        kernel.set_filter_kind(params::parse_filter("bloom").expect("filter"));
        let mut wl = spec.instantiate(&mut kernel, 1).expect("instantiate");
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc::cache::HierarchyConfig::isca2016(cores);
        let sim = SystemSim::new(kernel, config, scheme_kind);
        let report = if cores == 1 {
            let mut sim = sim;
            sim.warm_up(&mut wl, warm);
            sim.run(&mut wl, refs)
        } else {
            let mut mc = McSim::new(sim, MC_QUANTUM);
            mc.warm_up(&mut wl, warm);
            mc.run_to_completion(&mut wl, refs)
        };
        run_report_value(&report, &[], scheme, true).to_compact()
    };
    for (workload, name, scheme, cores) in [
        ("gups-manyseg", "gups", "manyseg", 1),
        ("fork-storm-4c", "fork_storm", "dtlb:1024", 4),
    ] {
        for traced in [false, true] {
            let ours = op("engines", workload, 1, traced);
            let Output::Run { report, .. } = &ours.output else {
                panic!("{workload} is a single run")
            };
            assert_eq!(
                run_report_value(report, &[], scheme, true).to_compact(),
                engine(name, scheme, cores),
                "{workload} traced={traced}"
            );
        }
    }
}

#[test]
fn corrupted_outputs_count_as_failed_operations() {
    // A single run whose report lost a reference.
    let good = op("corrupt", "fork-storm-4c", 1, false);
    let mut bad = good.output.clone();
    if let Output::Run { report, .. } = &mut bad {
        report.refs -= 1;
    }
    let mut summary = Summary::default();
    summary.record(check(&good.output));
    summary.record(check(&bad));
    assert_eq!((summary.attempted, summary.failed), (2, 1));
    let line = json::parse(&summary.json_line()).expect("parses");
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));

    // A per-core slice that no longer sums to the total.
    let mut bad = good.output.clone();
    if let Output::Run { report, .. } = &mut bad {
        report.per_core[2].cycles += 1;
    }
    assert_eq!(check(&bad).failed(), 1);

    // A sweep: one cell's stats changed, then the file truncated.
    let sweep = op("corrupt", "sweep-fig9", 1, false);
    let Output::Sweep { file, cells, refs } = &sweep.output else {
        panic!("sweep output")
    };
    assert_eq!(check(&sweep.output).failed(), 0);
    let mut doc = json::parse(file).expect("sweep file parses");
    if let Value::Object(fields) = &mut doc {
        let cells_field = fields
            .iter_mut()
            .find(|(k, _)| k == "cells")
            .expect("cells");
        if let Value::Array(items) = &mut cells_field.1 {
            if let Value::Object(cell) = &mut items[3] {
                let stats = cell.iter_mut().find(|(k, _)| k == "stats").expect("stats");
                if let Value::Object(stats) = &mut stats.1 {
                    let r = stats.iter_mut().find(|(k, _)| k == "refs").expect("refs");
                    r.1 = Value::UInt(refs + 1);
                }
            }
        }
    }
    let one_bad = Output::Sweep {
        file: doc.to_pretty(),
        cells: *cells,
        refs: *refs,
    };
    let verdict = check(&one_bad);
    assert_eq!((verdict.units, verdict.failed()), (*cells as u64, 1));
    let truncated = Output::Sweep {
        file: file[..file.len() / 2].to_string(),
        cells: *cells,
        refs: *refs,
    };
    assert_eq!(check(&truncated).failed(), *cells as u64);

    // A traced run that simulated something else in one cell.
    let mut other = op("corrupt", "sweep-fig9", 1, true);
    other.unit_digests[5] ^= 1;
    let mut verdict = check(&other.output);
    check_digests(&other, &sweep, &mut verdict);
    assert_eq!(verdict.failed(), 1);
}

#[test]
fn held_out_seed_changes_the_simulation_and_passes_the_checks() {
    for &workload in WORKLOADS {
        let dev = op("held_out", workload, 1, false);
        let held_out = op("held_out", workload, HELD_OUT_SEED, false);
        assert_ne!(dev.digest(), held_out.digest(), "{workload}");
        assert_eq!(check(&held_out.output).failed(), 0, "{workload}");
    }
}
