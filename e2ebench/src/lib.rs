//! End-to-end and per-layer host-time benchmark of the HVC simulator.
//!
//! Three workloads, each a closed loop of whole runs (one operation at a
//! time, the next started only after the last returned):
//!
//! * `gups-manyseg` — one continuous single-core `gups` run (1 GiB
//!   table) under many-segment translation with the Bloom synonym
//!   filter: [`SystemSim::warm_up`] then [`SystemSim::run`];
//! * `fork-storm-4c` — one continuous 4-core `fork_storm` run under the
//!   1024-entry delayed TLB: [`McSim::warm_up`] then
//!   [`McSim::run_to_completion`];
//! * `sweep-fig9` — [`run_sweep`] over the `fig9` preset, then
//!   [`sweep_report`] and an atomic write of the report file, which is
//!   what `hvcsim sweep --preset fig9` does.
//!
//! An operation is timed end to end with tracing off, through the
//! simulator's own run calls. A traced operation instead makes the
//! calls those run loops make — `step_batch` or `McSim::feed` in
//! 64-reference windows, churn, drain, reset, report — and records a
//! span around each (see [`spans`]), from which the per-layer host
//! times are derived; its simulated statistics must hash to the same
//! `sim_digest` as the untraced operation's. Simulated counts come
//! from the returned [`RunReport`]s. `README.md` in this directory maps
//! every metric to its layer and to the end-to-end metric it moves.

pub mod spans;

use hvc::core::{RunReport, SystemConfig, SystemSim};
use hvc::mc::McSim;
use hvc::os::Kernel;
use hvc::runner::json::{self, Value};
use hvc::runner::{
    params, presets, run_report_value, run_sweep, sweep_report, write_atomic, RunOptions,
    MC_QUANTUM,
};
use hvc::types::TraceItem;
use hvc::workloads::{WorkloadInstance, WorkloadSpec};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["gups-manyseg", "fork-storm-4c", "sweep-fig9"];

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("mrefs_per_s", "Mrefs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs on every
/// workload (a layer a workload does not exercise reads 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Host time, from spans around public calls.
    ("os.kernel_new_s", "s"),
    ("workloads.instantiate_s", "s"),
    ("core.new_s", "s"),
    ("workloads.gen_s", "s"),
    ("workloads.gen_ns_per_ref", "ns"),
    ("core.step_s", "s"),
    ("core.step_ns_per_ref", "ns"),
    ("core.step_window_us.p50", "us"),
    ("core.step_window_us.p99", "us"),
    ("core.step_windows", "count"),
    ("os.churn_s", "s"),
    ("mc.feed_quiet_s", "s"),
    ("mc.feed_churn_s", "s"),
    ("mc.feed_window_us.p50", "us"),
    ("mc.feed_window_us.p99", "us"),
    ("mc.feed_windows", "count"),
    ("mc.feed_churn_windows", "count"),
    ("mc.drain_s", "s"),
    ("os.flush_us_per_page", "us"),
    ("core.report_s", "s"),
    ("runner.sweep_s", "s"),
    ("runner.report_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    // Simulated counts of the measured window (exact; summed over
    // cells on sweep-fig9).
    ("filter.lookups", "count"),
    ("filter.candidates", "count"),
    ("filter.false_positives", "count"),
    ("tlb.l1_lookups", "count"),
    ("tlb.l2_lookups", "count"),
    ("tlb.delayed_lookups", "count"),
    ("tlb.delayed_misses", "count"),
    ("tlb.synonym_lookups", "count"),
    ("tlb.synonym_misses", "count"),
    ("segment.sc_lookups", "count"),
    ("segment.index_cache_accesses", "count"),
    ("segment.table_accesses", "count"),
    ("cache.l1d_accesses", "count"),
    ("cache.l1d_misses", "count"),
    ("cache.l2_misses", "count"),
    ("cache.llc_accesses", "count"),
    ("cache.llc_misses", "count"),
    ("cache.coherence_invalidations", "count"),
    ("os.pte_reads", "count"),
    ("os.minor_faults", "count"),
    ("os.flushed_pages", "count"),
    ("os.shootdowns", "count"),
    ("os.shootdown_ipis", "count"),
    ("workloads.churn_batches", "count"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.row_hits", "count"),
    ("core.instructions", "count"),
    ("core.cycles", "count"),
    ("runner.cells", "count"),
    ("runner.report_bytes", "bytes"),
    // Useful outcomes per attempt.
    ("filter.candidate_rate", "ratio"),
    ("tlb.delayed_miss_rate", "ratio"),
    ("cache.llc_miss_rate", "ratio"),
    ("mem.row_hit_rate", "ratio"),
];

/// Seconds one benchmark run measures when `--seconds` is not given:
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// The seed later performance claims are confirmed on: the benchmark
/// was tuned on seeds 1–10, never on this one.
pub const HELD_OUT_SEED: u64 = 7919;

/// References per window handed to `step_batch` / `feed` — the window
/// `SystemSim::run` uses, and the multi-core quantum.
const WINDOW: usize = 64;

/// Run sizes. `Full` is what the benchmark measures; `Tiny` keeps the
/// same calls at sizes the benchmark's own tests can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (the sweep at the preset's own sizes).
    Full,
    /// A few thousand references per run.
    Tiny,
}

impl Scale {
    /// `(measured refs, warm-up refs)` of the two single-run workloads.
    fn single_run(self, workload: &str) -> (usize, usize) {
        match (self, workload) {
            (Scale::Full, "gups-manyseg") => (1_000_000, 500_000),
            (Scale::Full, _) => (100_000, 50_000),
            (Scale::Tiny, _) => (3_000, 1_000),
        }
    }
}

/// Everything one benchmark invocation needs besides the workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload seed (the simulator sees only the inputs it generates).
    pub seed: u64,
    /// Run sizes.
    pub scale: Scale,
    /// Directory the report files are written to.
    pub out_dir: PathBuf,
    /// Sweep worker threads.
    pub jobs: usize,
}

impl Plan {
    /// A plan with the sweep's worker count set to `min(2, host threads)`.
    pub fn new(seed: u64, scale: Scale, out_dir: PathBuf) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Plan {
            seed,
            scale,
            out_dir,
            jobs: threads.min(2),
        }
    }
}

/// The artifacts one operation hands to the output checks.
#[derive(Clone, Debug)]
pub enum Output {
    /// A single run: its report and the report file's bytes.
    Run {
        /// The measured window's report.
        report: Box<RunReport>,
        /// Measured references requested.
        refs: u64,
        /// The report file as written.
        file: String,
    },
    /// A sweep: the report file's bytes.
    Sweep {
        /// The report file as written.
        file: String,
        /// Grid cells expected.
        cells: usize,
        /// Measured references requested per cell.
        refs: u64,
    },
}

/// One finished operation.
#[derive(Debug)]
pub struct Op {
    /// Host seconds from the first call until the report file was written.
    pub wall_s: f64,
    /// Host seconds of set-up: until the first simulated reference for a
    /// single run, the set-up of every grid cell for a sweep.
    pub setup_s: f64,
    /// Measured simulated references.
    pub measured_refs: u64,
    /// FNV-1a hash of each unit's simulated statistics (one unit for a
    /// single run, one per cell for a sweep).
    pub unit_digests: Vec<u64>,
    /// The artifacts the output checks inspect.
    pub output: Output,
    /// Simulated counts of the measured window (`PER_LAYER` names).
    pub counts: Vec<(&'static str, f64)>,
    /// Spans of the operation (empty unless traced).
    pub spans: Recorder,
    /// References generated and stepped by the benchmark's own window
    /// loop, warm-up included (0 where a layer pulls them itself).
    pub driven_refs: u64,
    /// Pages flushed over the whole run, warm-up included.
    pub run_flushed_pages: u64,
}

impl Op {
    /// The operation's `sim_digest`: FNV-1a over its unit digests.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .unit_digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }
}

/// Runs one operation of `workload`, with spans when `traced`.
pub fn run_op(workload: &str, plan: &Plan, traced: bool) -> Result<Op, String> {
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", plan.out_dir.display()))?;
    let rec = Recorder::new(traced);
    match workload {
        "gups-manyseg" => gups_manyseg(plan, rec),
        "fork-storm-4c" => fork_storm_4c(plan, rec),
        "sweep-fig9" => sweep_fig9(plan, rec),
        _ => Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The machine every single run simulates: the paper's configuration
/// with `cores` cores, as `hvcsim --cores` builds it.
fn machine(cores: usize) -> SystemConfig {
    let mut config = SystemConfig::isca2016();
    config.hierarchy = hvc::cache::HierarchyConfig::isca2016(cores);
    config
}

/// Kernel, workload and simulator of a single run, built under spans.
fn build(
    rec: &mut Recorder,
    spec: &WorkloadSpec,
    scheme: &str,
    filter: &str,
    cores: usize,
    seed: u64,
) -> Result<(SystemSim, WorkloadInstance), String> {
    let (scheme, policy) =
        params::parse_scheme(scheme).ok_or_else(|| format!("unknown scheme '{scheme}'"))?;
    let filter =
        params::parse_filter(filter).ok_or_else(|| format!("unknown filter '{filter}'"))?;
    let mut kernel = rec.span("os.kernel_new", || Kernel::new(16 << 30, policy));
    kernel.set_filter_kind(filter);
    let wl = rec
        .span("workloads.instantiate", || {
            spec.instantiate(&mut kernel, seed)
        })
        .map_err(|e| format!("workload setup failed: {e}"))?;
    let sim = rec.span("core.new", || {
        SystemSim::new(kernel, machine(cores), scheme)
    });
    Ok((sim, wl))
}

/// Drives `refs` references through `step_batch` in windows of
/// [`WINDOW`], each ended early when the workload emits a churn batch,
/// which is applied right after its window — the loop `SystemSim::run`
/// runs, with a span around every call. Used by traced operations only.
fn drive(
    rec: &mut Recorder,
    sim: &mut SystemSim,
    wl: &mut WorkloadInstance,
    refs: usize,
    batch: &mut Vec<TraceItem>,
) {
    let mlp = wl.mlp();
    let mut remaining = refs;
    while remaining > 0 {
        batch.clear();
        let churn = rec.span("workloads.gen", || {
            while batch.len() < WINDOW.min(remaining) {
                batch.push(wl.next_item());
                if let Some(ops) = wl.take_churn_ops() {
                    return Some(ops);
                }
            }
            None
        });
        remaining -= batch.len();
        rec.span("core.step", || sim.step_batch(batch, mlp));
        if let Some(ops) = churn {
            rec.span("os.churn", || sim.apply_churn(&ops));
        }
    }
}

/// Churn batches `spec` schedules in the measured window: one per
/// `every` generated items.
fn measured_churns(spec: &WorkloadSpec, warm: usize, refs: usize) -> u64 {
    spec.churn.map_or(0, |c| {
        let every = c.every.max(1);
        ((warm + refs) as u64 / every) - (warm as u64 / every)
    })
}

/// Serializes a single run's report, writes it atomically, and returns
/// the bytes written.
fn write_run_report(
    path: &Path,
    report: &RunReport,
    scheme: &str,
) -> Result<(String, Value), String> {
    let value = run_report_value(report, &[], scheme, true);
    let text = value.to_pretty();
    write_atomic(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((text, value))
}

fn gups_manyseg(plan: &Plan, mut rec: Recorder) -> Result<Op, String> {
    let (refs, warm) = plan.scale.single_run("gups-manyseg");
    let spec = params::workload_by_name("gups", 1 << 30).ok_or("unknown workload 'gups'")?;
    let path = plan.out_dir.join("gups-manyseg.json");

    let t0 = Instant::now();
    rec.begin("op");
    let (mut sim, mut wl) = build(&mut rec, &spec, "manyseg", "bloom", 1, plan.seed)?;
    let setup = t0.elapsed();
    let report = if rec.enabled() {
        let mut batch = Vec::with_capacity(WINDOW);
        drive(&mut rec, &mut sim, &mut wl, warm, &mut batch);
        rec.span("core.reset", || sim.reset_stats());
        drive(&mut rec, &mut sim, &mut wl, refs, &mut batch);
        rec.span("core.report", || sim.report())
    } else {
        sim.warm_up(&mut wl, warm);
        sim.run(&mut wl, refs)
    };
    let (file, value) = rec.span("core.report", || {
        write_run_report(&path, &report, "manyseg")
    })?;
    rec.end();
    let wall = t0.elapsed();

    let churns = measured_churns(&spec, warm, refs);
    Ok(Op {
        wall_s: wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        measured_refs: report.refs,
        unit_digests: vec![fnv1a(value.to_compact().as_bytes())],
        counts: counts(&report, churns, 1, file.len()),
        output: Output::Run {
            report: Box::new(report),
            refs: refs as u64,
            file,
        },
        spans: rec,
        driven_refs: (refs + warm) as u64,
        run_flushed_pages: sim.kernel().stats().flushed_pages,
    })
}

fn fork_storm_4c(plan: &Plan, mut rec: Recorder) -> Result<Op, String> {
    let (refs, warm) = plan.scale.single_run("fork-storm-4c");
    let spec =
        params::workload_by_name("fork_storm", 1 << 30).ok_or("unknown workload 'fork_storm'")?;
    let path = plan.out_dir.join("fork-storm-4c.json");

    let t0 = Instant::now();
    rec.begin("op");
    let (sim, mut wl) = build(&mut rec, &spec, "dtlb:1024", "bloom", 4, plan.seed)?;
    let mut mc = rec.span("mc.new", || McSim::new(sim, MC_QUANTUM));
    let setup = t0.elapsed();
    let report = if rec.enabled() {
        feed(&mut rec, &mut mc, &mut wl, warm);
        rec.span("mc.drain", || mc.drain());
        rec.span("core.reset", || mc.reset_stats());
        feed(&mut rec, &mut mc, &mut wl, refs);
        rec.span("mc.drain", || mc.drain());
        rec.span("core.report", || mc.report())
    } else {
        mc.warm_up(&mut wl, warm);
        mc.run_to_completion(&mut wl, refs)
    };
    let (file, value) = rec.span("core.report", || {
        write_run_report(&path, &report, "dtlb:1024")
    })?;
    rec.end();
    let wall = t0.elapsed();

    // `McSim::feed` pulls the churn batches itself.
    let churns = measured_churns(&spec, warm, refs);
    Ok(Op {
        wall_s: wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        measured_refs: report.refs,
        unit_digests: vec![fnv1a(value.to_compact().as_bytes())],
        counts: counts(&report, churns, 1, file.len()),
        output: Output::Run {
            report: Box::new(report),
            refs: refs as u64,
            file,
        },
        spans: rec,
        driven_refs: 0,
        run_flushed_pages: mc.sim().kernel().stats().flushed_pages,
    })
}

/// Feeds `refs` references to `mc` in [`WINDOW`]-sized calls, each
/// timed and classified as churn or quiet by whether the kernel flushed
/// pages or shot down TLBs during it. Used by traced operations only.
fn feed(rec: &mut Recorder, mc: &mut McSim, wl: &mut WorkloadInstance, refs: usize) {
    let mut remaining = refs;
    while remaining > 0 {
        let n = WINDOW.min(remaining);
        let before = churn_marks(mc);
        rec.span_named(
            || {
                mc.feed(wl, n);
                churn_marks(mc)
            },
            |after| {
                if *after == before {
                    "mc.feed_quiet"
                } else {
                    "mc.feed_churn"
                }
            },
        );
        remaining -= n;
    }
}

fn churn_marks(mc: &McSim) -> (u64, u64) {
    let stats = mc.sim().kernel().stats();
    (stats.flushed_pages, stats.shootdowns)
}

fn sweep_fig9(plan: &Plan, mut rec: Recorder) -> Result<Op, String> {
    let path = plan.out_dir.join("sweep-fig9.json");
    let opts = RunOptions {
        jobs: plan.jobs,
        check: false,
    };

    // Set-up: every cell's kernel, workload and simulator, built the
    // way a sweep cell builds them, timed apart from the sweep.
    let exp = fig9(plan)?;
    let t_setup = Instant::now();
    rec.begin("setup");
    for cell in exp.cells() {
        let spec = params::workload_by_name(&cell.workload, exp.mem)
            .ok_or_else(|| format!("unknown workload '{}'", cell.workload))?;
        build(
            &mut rec,
            &spec,
            &cell.scheme,
            &cell.filter,
            exp.cores,
            cell.seed,
        )?;
    }
    rec.end();
    let setup = t_setup.elapsed();

    let t0 = Instant::now();
    rec.begin("op");
    let exp = rec.span("runner.grid", || fig9(plan))?;
    let outcome = rec.span("runner.sweep", || run_sweep(&exp, &opts))?;
    let (file, doc) = rec.span("runner.report", || {
        let doc = sweep_report(&exp, &opts, &outcome);
        let text = doc.to_pretty();
        write_atomic(&path, &text)
            .map(|()| (text, doc))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    })?;
    rec.end();
    let wall = t0.elapsed();

    let mut total = RunReport::default();
    for r in &outcome.results {
        hvc::types::MergeStats::merge_from(&mut total, &r.report);
    }
    let unit_digests = doc
        .get("cells")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|c| fnv1a(c.to_compact().as_bytes()))
        .collect();
    Ok(Op {
        wall_s: wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        measured_refs: total.refs,
        unit_digests,
        counts: counts(&total, 0, outcome.results.len() as u64, file.len()),
        output: Output::Sweep {
            file,
            cells: exp.cells().len(),
            refs: exp.refs as u64,
        },
        spans: rec,
        driven_refs: 0,
        run_flushed_pages: 0,
    })
}

/// The `fig9` preset grid at this plan's seed (and, at `Tiny` scale,
/// at a few thousand references per cell).
fn fig9(plan: &Plan) -> Result<hvc::runner::Experiment, String> {
    let mut exp = presets::preset("fig9").ok_or("unknown preset 'fig9'")?;
    exp.seeds = vec![plan.seed];
    if plan.scale == Scale::Tiny {
        exp.refs = 2_000;
        exp.warm = 500;
    }
    Ok(exp)
}

/// Host-time metrics that are the summed duration of one span name.
const SPAN_TOTALS: &[(&str, &str)] = &[
    ("os.kernel_new_s", "os.kernel_new"),
    ("workloads.instantiate_s", "workloads.instantiate"),
    ("core.new_s", "core.new"),
    ("workloads.gen_s", "workloads.gen"),
    ("core.step_s", "core.step"),
    ("os.churn_s", "os.churn"),
    ("mc.feed_quiet_s", "mc.feed_quiet"),
    ("mc.feed_churn_s", "mc.feed_churn"),
    ("mc.drain_s", "mc.drain"),
    ("core.report_s", "core.report"),
    ("runner.sweep_s", "runner.sweep"),
    ("runner.report_s", "runner.report"),
];

/// Simulated counts of a measured window.
fn counts(r: &RunReport, churns: u64, cells: u64, report_bytes: usize) -> Vec<(&'static str, f64)> {
    let t = &r.translation;
    let c = &r.cache;
    let l1d_accesses: u64 = c.l1d.iter().map(|l| l.accesses()).sum();
    let l1d_misses: u64 = c.l1d.iter().map(|l| l.misses).sum();
    let l2_misses: u64 = c.l2.iter().map(|l| l.misses).sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let n = |v: u64| v as f64;
    vec![
        ("filter.lookups", n(t.filter_lookups)),
        ("filter.candidates", n(t.filter_candidates)),
        ("filter.false_positives", n(t.false_positives)),
        ("tlb.l1_lookups", n(t.l1_tlb_lookups)),
        ("tlb.l2_lookups", n(t.l2_tlb_lookups)),
        ("tlb.delayed_lookups", n(t.delayed_tlb_lookups)),
        ("tlb.delayed_misses", n(t.delayed_tlb_misses)),
        ("tlb.synonym_lookups", n(t.synonym_tlb_lookups)),
        ("tlb.synonym_misses", n(t.synonym_tlb_misses)),
        ("segment.sc_lookups", n(t.sc_lookups)),
        ("segment.index_cache_accesses", n(t.index_cache_accesses)),
        ("segment.table_accesses", n(t.segment_table_accesses)),
        ("cache.l1d_accesses", n(l1d_accesses)),
        ("cache.l1d_misses", n(l1d_misses)),
        ("cache.l2_misses", n(l2_misses)),
        ("cache.llc_accesses", n(c.llc.accesses())),
        ("cache.llc_misses", n(c.llc.misses)),
        (
            "cache.coherence_invalidations",
            n(c.coherence_invalidations),
        ),
        ("os.pte_reads", n(t.pte_reads)),
        ("os.minor_faults", n(r.minor_faults)),
        ("os.flushed_pages", n(r.os.flushed_pages)),
        ("os.shootdowns", n(r.os.shootdowns)),
        ("os.shootdown_ipis", n(r.os.shootdown_ipis)),
        ("workloads.churn_batches", n(churns)),
        ("mem.dram_reads", n(r.dram.reads)),
        ("mem.dram_writes", n(r.dram.writes)),
        ("mem.row_hits", n(r.dram.row_hits)),
        ("core.instructions", n(r.instructions)),
        ("core.cycles", n(r.cycles)),
        ("runner.cells", n(cells)),
        ("runner.report_bytes", report_bytes as f64),
        (
            "filter.candidate_rate",
            ratio(t.filter_candidates, t.filter_lookups),
        ),
        (
            "tlb.delayed_miss_rate",
            ratio(t.delayed_tlb_misses, t.delayed_tlb_lookups),
        ),
        ("cache.llc_miss_rate", ratio(c.llc.misses, c.llc.accesses())),
        ("mem.row_hit_rate", r.dram.row_hit_rate().unwrap_or(0.0)),
    ]
}

/// Host-time metrics of a traced operation, from its spans.
fn host_metrics(op: &Op) -> Vec<(&'static str, f64)> {
    let rec = &op.spans;
    let per = |seconds: f64, scale: f64, n: u64| {
        if n == 0 {
            0.0
        } else {
            seconds * scale / n as f64
        }
    };
    let step = rec.durations_s("core.step");
    let churn = rec.durations_s("mc.feed_churn");
    let mut feed = rec.durations_s("mc.feed_quiet");
    let churn_windows = churn.len() as f64;
    feed.extend(churn);
    let mut out: Vec<(&'static str, f64)> = SPAN_TOTALS
        .iter()
        .map(|&(metric, span)| (metric, rec.total_s(span)))
        .collect();
    out.extend([
        (
            "workloads.gen_ns_per_ref",
            per(rec.total_s("workloads.gen"), 1e9, op.driven_refs),
        ),
        (
            "core.step_ns_per_ref",
            per(rec.total_s("core.step"), 1e9, op.driven_refs),
        ),
        ("core.step_window_us.p50", percentile(&step, 0.50) * 1e6),
        ("core.step_window_us.p99", percentile(&step, 0.99) * 1e6),
        ("core.step_windows", step.len() as f64),
        ("mc.feed_window_us.p50", percentile(&feed, 0.50) * 1e6),
        ("mc.feed_window_us.p99", percentile(&feed, 0.99) * 1e6),
        ("mc.feed_windows", feed.len() as f64),
        ("mc.feed_churn_windows", churn_windows),
        (
            "os.flush_us_per_page",
            per(rec.total_s("mc.feed_churn"), 1e6, op.run_flushed_pages),
        ),
        ("trace.coverage_frac", rec.coverage("op")),
    ]);
    out
}

/// Nearest-rank percentile of `samples` (0 when empty).
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (mean of the middle pair; 0 when empty).
fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the output checks found in one operation. An operation is one
/// unit for a single run and one unit per cell for a sweep; a unit with
/// any problem counts as one failed operation.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Units checked.
    pub units: u64,
    failed: std::collections::BTreeSet<u64>,
    /// Every problem found.
    pub problems: Vec<String>,
}

impl Verdict {
    /// A verdict over `units` units with no problems yet.
    pub fn new(units: u64) -> Self {
        Verdict {
            units,
            ..Verdict::default()
        }
    }

    /// Records `problem` against unit `unit`, or against every unit (a
    /// unit outside the operation, such as an extra sweep cell, only
    /// adds the problem).
    pub fn fail(&mut self, unit: Option<u64>, problem: String) {
        match unit {
            Some(u) if u < self.units => {
                self.failed.insert(u);
            }
            Some(_) => {}
            None => self.failed.extend(0..self.units),
        }
        self.problems.push(problem);
    }

    /// Units with at least one problem.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// Runs the output checks of one operation.
pub fn check(output: &Output) -> Verdict {
    match output {
        Output::Run { report, refs, file } => {
            let mut v = Verdict::new(1);
            if report.refs != *refs {
                v.fail(
                    None,
                    format!("report.refs {} != requested {refs}", report.refs),
                );
            }
            let instr: u64 = report.per_core.iter().map(|c| c.instructions).sum();
            let cycles: u64 = report.per_core.iter().map(|c| c.cycles).sum();
            if instr != report.instructions || cycles != report.cycles {
                v.fail(
                    None,
                    format!(
                        "per-core sums ({instr} instructions, {cycles} cycles) != totals ({}, {})",
                        report.instructions, report.cycles
                    ),
                );
            }
            match json::parse(file) {
                Ok(doc) if doc.get("refs").and_then(Value::as_u64) == Some(*refs) => {}
                Ok(_) => v.fail(None, format!("report file does not record refs = {refs}")),
                Err(e) => v.fail(None, format!("report file does not parse: {e}")),
            }
            v
        }
        Output::Sweep { file, cells, refs } => {
            let mut v = Verdict::new(*cells as u64);
            let doc = match json::parse(file) {
                Ok(doc) => doc,
                Err(e) => {
                    v.fail(None, format!("sweep report does not parse: {e}"));
                    return v;
                }
            };
            let schema = doc.get("schema").and_then(Value::as_str);
            if schema != Some(hvc::runner::report::SCHEMA) {
                v.fail(None, format!("sweep schema {schema:?}"));
            }
            let got = doc.get("cells").and_then(Value::as_array).unwrap_or(&[]);
            if got.len() != *cells {
                v.fail(
                    None,
                    format!("sweep has {} cells, grid has {cells}", got.len()),
                );
            }
            for (i, cell) in got.iter().enumerate() {
                let r = cell
                    .get("stats")
                    .and_then(|s| s.get("refs"))
                    .and_then(Value::as_u64);
                if r != Some(*refs) {
                    v.fail(
                        Some(i as u64),
                        format!("cell {i}: refs {r:?} != requested {refs}"),
                    );
                }
            }
            v
        }
    }
}

/// Compares `op`'s unit digests with `reference`'s, unit by unit.
pub fn check_digests(op: &Op, reference: &Op, verdict: &mut Verdict) {
    if op.unit_digests.len() != reference.unit_digests.len() {
        verdict.fail(None, "digest count differs from the untraced run".into());
        return;
    }
    for (i, (a, b)) in op
        .unit_digests
        .iter()
        .zip(&reference.unit_digests)
        .enumerate()
    {
        if a != b {
            verdict.fail(
                Some(i as u64),
                format!("unit {i}: sim_digest {a:016x} != {b:016x} of the untraced run"),
            );
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident memory to its current size, so
/// the peak a later run reports covers only what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The result of one benchmark run: operations tallied and metrics
/// taken as medians over them.
#[derive(Debug, Default)]
pub struct Summary {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose outputs failed a check (or that errored).
    pub failed: u64,
    /// Every problem found, for the log.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The untraced operations' `sim_digest`.
    pub digest: Option<u64>,
}

impl Summary {
    /// Counts the units of one checked operation.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += verdict.units;
        self.failed += verdict.failed();
        self.problems.extend(verdict.problems);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_compact()
    }
}

/// Runs operations of `workload` for about `budget` and summarizes them.
///
/// Untraced: end-to-end metrics, medians over the operations. Traced:
/// pairs of an untraced and a traced operation; per-layer metrics are
/// medians over the traced ones, the tracing overhead compares the two
/// sides' median wall times, and each traced digest must equal its
/// untraced partner's. Operations continue while another is expected
/// to finish within the budget; at least one (pair) always runs.
pub fn run(workload: &str, plan: &Plan, budget: Duration, traced: bool) -> Summary {
    let mut summary = Summary::default();
    let mut plain: Vec<Op> = Vec::new();
    let mut with_spans: Vec<Op> = Vec::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    while let Some(op) = attempt(&mut summary, workload, plan, false, plain.first()) {
        plain.push(op);
        if traced {
            let Some(op) = attempt(&mut summary, workload, plan, true, plain.last()) else {
                break;
            };
            with_spans.push(op);
        }
        rounds += 1;
        let elapsed = start.elapsed();
        if elapsed + elapsed / rounds > budget {
            break;
        }
    }
    summary.digest = plain.first().map(Op::digest);
    if plain.is_empty() || (traced && with_spans.is_empty()) {
        return summary;
    }
    if traced {
        summary.metrics = per_layer(&plain, &with_spans);
    } else {
        let wall = median(&plain.iter().map(|o| o.wall_s).collect::<Vec<_>>());
        let setup = median(&plain.iter().map(|o| o.setup_s).collect::<Vec<_>>());
        let rate = median(
            &plain
                .iter()
                .map(|o| o.measured_refs as f64 / o.wall_s / 1e6)
                .collect::<Vec<_>>(),
        );
        let values = [wall, rate, setup, peak_rss_mb()];
        summary.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect();
    }
    summary
}

/// Runs and checks one operation, recording it in `summary`. Its
/// `sim_digest` must equal `reference`'s: the run's first untraced
/// operation (same seed, same simulation) or a traced operation's
/// untraced partner.
fn attempt(
    summary: &mut Summary,
    workload: &str,
    plan: &Plan,
    traced: bool,
    reference: Option<&Op>,
) -> Option<Op> {
    match run_op(workload, plan, traced) {
        Ok(op) => {
            eprintln!(
                "{workload}: {} op: wall {:.4} s, setup {:.4} s",
                if traced { "traced" } else { "untraced" },
                op.wall_s,
                op.setup_s
            );
            let mut verdict = check(&op.output);
            if let Some(r) = reference {
                check_digests(&op, r, &mut verdict);
            }
            summary.record(verdict);
            Some(op)
        }
        Err(e) => {
            let mut verdict = Verdict::new(1);
            verdict.fail(None, e);
            summary.record(verdict);
            None
        }
    }
}

/// Per-layer metrics: host times are medians over the traced
/// operations, simulated counts are the first traced operation's (every
/// operation of a run simulates the same execution), and the tracing
/// overhead compares the median wall times of the two sides.
fn per_layer(plain: &[Op], traced: &[Op]) -> Vec<(String, f64, &'static str)> {
    let host: Vec<Vec<(&'static str, f64)>> = traced.iter().map(host_metrics).collect();
    let wall = |ops: &[Op]| median(&ops.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let overhead = wall(traced) / wall(plain) - 1.0;
    let lookup =
        |m: &[(&'static str, f64)], name: &str| m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_frac" {
                overhead
            } else if let Some(v) = lookup(&traced[0].counts, name) {
                v
            } else {
                median(
                    &host
                        .iter()
                        .filter_map(|m| lookup(m, name))
                        .collect::<Vec<_>>(),
                )
            };
            (name.to_string(), value, unit)
        })
        .collect()
}
