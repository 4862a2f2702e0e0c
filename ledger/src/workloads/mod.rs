//! The four workloads, and what they share when they report.

pub mod build_ingest;
pub mod refine_mc;
pub mod serve_mixed;
pub mod walk_cold;

use crate::env::{peak_rss_mb, RunDir, TMP_ROOT};
use crate::metrics::{median, percentile};
use crate::run::{Phase, RunCfg, RunReport, SetupClock, Workload};
use crate::trace::{span_cost_ns, Tracer};
use std::io;
use std::path::Path;

/// Runs one workload once. Everything it writes lives in one directory
/// under the working directory, removed however the run ends.
pub fn run(cfg: &RunCfg) -> io::Result<RunReport> {
    let dir = RunDir::create(cfg.workload.name(), cfg.seed)?;
    match cfg.workload {
        Workload::RefineMc => refine_mc::run(cfg, &dir),
        Workload::WalkCold => walk_cold::run(cfg, &dir),
        Workload::ServeMixed => serve_mixed::run(cfg, &dir),
        Workload::BuildIngest => build_ingest::run(cfg, &dir),
    }
}

/// What an untraced run reports.
pub struct EndToEnd<'a> {
    pub clocks: &'a [SetupClock],
    pub measured: &'a Phase,
    /// Operations one timed call stands for (8 requests per batch, 32
    /// mutations per transaction).
    pub ops_per_call: usize,
    /// Index + heap bytes of the packed build, and the objects in it.
    pub stored_bytes: u64,
    pub stored_objs: usize,
    /// How many leading operations `answers_fnv` covers: few enough that
    /// every run reaches them, so the hash repeats exactly per seed.
    pub fnv_ops: usize,
}

/// Sets every end-to-end metric. Call right after the measured phase:
/// `peak_rss_mb` is read here, before any checking allocates.
pub fn set_end_to_end(report: &mut RunReport, e: EndToEnd<'_>) -> io::Result<()> {
    let totals: Vec<f64> = e.clocks.iter().map(|c| c.total_s).collect();
    let rates: Vec<f64> = e
        .clocks
        .iter()
        .map(|c| c.built_objs as f64 / c.build_s / 1e3)
        .collect();
    let sorted = e.measured.sorted();
    if sorted.is_empty() {
        return Err(io::Error::other(
            "no operation completed in the measured phase",
        ));
    }
    let m = &mut report.metrics;
    m.set("setup_s", median(&totals));
    m.set("ops_per_s", e.measured.ops_per_s(e.ops_per_call));
    m.set("op_p50_ms", percentile(&sorted, 50.0) as f64 / 1e6);
    m.set("op_p95_ms", percentile(&sorted, 95.0) as f64 / 1e6);
    m.set("build_kobj_per_s", median(&rates));
    m.set(
        "bytes_per_obj",
        e.stored_bytes as f64 / e.stored_objs as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb()?);
    let (fnv, covered) = e.measured.answers_fnv(e.fnv_ops);
    report.note("answers_fnv", format!("{fnv:016x}"));
    report.note("answers_fnv_ops", covered);
    report.note("setup_samples", e.clocks.len());
    report.note("op_latency_samples", sorted.len());
    report.note("measured_wall_s", e.measured.wall_ns as f64 / 1e9);
    Ok(())
}

/// Closes a traced run: what tracing cost, how much of the `roots` spans
/// no child covers, and the trace file itself.
///
/// The cost is the spans recorded times what one span costs to record
/// ([`span_cost_ns`]), as a share of the traced wall clock. Comparing a
/// traced phase's rate with an untraced one's cannot resolve it: this
/// sandbox's speed swings by a fifth for seconds at a time, and tracing
/// costs a fraction of a percent.
pub fn finish_trace(
    cfg: &RunCfg,
    dir: &RunDir,
    report: &mut RunReport,
    tracer: &Tracer,
    roots: &[&str],
    traced: &Phase,
) -> io::Result<()> {
    let spans = tracer.spans().len();
    report.metrics.set(
        "trace.overhead_pct",
        100.0 * span_cost_ns() * spans as f64 / traced.wall_ns.max(1) as f64,
    );
    report
        .metrics
        .set("trace.unattributed_pct", tracer.unattributed_pct(roots));
    report.note("traced_ops", traced.ops());
    report.note("traced_wall_s", traced.wall_ns as f64 / 1e9);
    report.note("spans", spans);

    let name = format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed);
    let path = dir.path().join(&name);
    tracer.write_json(&path, cfg.workload.name(), cfg.seed)?;
    if cfg.keep_trace {
        let kept = Path::new(TMP_ROOT).join(&name);
        std::fs::rename(&path, &kept)?;
        report.note("trace_file", kept.display());
    }
    Ok(())
}
