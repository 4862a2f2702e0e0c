//! Experiment harness shared by the per-figure binaries.
//!
//! Every binary regenerates one table/figure of the paper (Sec 6) and
//! prints the same rows/series the paper reports. Scaling knobs (all via
//! environment variables or `--flags`) let the suite run anywhere from a
//! smoke test to the paper's full cardinalities:
//!
//! * `UTREE_SCALE`   — dataset size factor (default 0.2; `1.0` = paper);
//! * `UTREE_QUERIES` — queries per workload (default 100, as the paper);
//! * `UTREE_N1`      — Monte-Carlo samples per probability computation
//!   (default 20 000; the paper uses 10⁶ — counts are reported separately
//!   so this only rescales CPU seconds, identically for every structure);
//! * `UTREE_IO_MS`   — modelled I/O latency per page access (default
//!   5 ms), used to combine counted I/O with measured CPU into the paper's
//!   "total cost" charts.

use datagen::Workload;
use std::time::Instant;
use utree::{ProbIndex, Query, QueryOptions, QueryStats, RefineMode, UPcrTree, UTree};

/// Scaling knobs (see crate docs).
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Queries per workload.
    pub queries: usize,
    /// Monte-Carlo n₁.
    pub n1: usize,
    /// Modelled I/O latency (milliseconds per page).
    pub io_ms: f64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.2,
            queries: 100,
            n1: 20_000,
            io_ms: 5.0,
        }
    }
}

impl HarnessConfig {
    /// Reads the knobs from the environment; `--full` in `args` forces
    /// `scale = 1.0` (the paper's cardinalities). A `UTREE_*` variable
    /// that is set but not a number ends the process with status 2: a
    /// typo must not silently run the default experiment.
    pub fn from_env() -> Self {
        let lookup = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        let mut cfg = Self::from_vars(lookup).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        });
        if std::env::args().any(|a| a == "--full") {
            cfg.scale = 1.0;
        }
        if std::env::args().any(|a| a == "--smoke") {
            cfg.scale = 0.02;
            cfg.queries = 10;
            cfg.n1 = 2_000;
        }
        cfg
    }

    /// The defaults overridden by whichever `UTREE_*` variables `lookup`
    /// yields; `Err` names the first variable whose value is not a finite,
    /// non-negative number.
    fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let number = |name: &str| match lookup(name) {
            None => Ok(None),
            Some(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(Some(v)),
                _ => Err(format!("{name}={raw:?} is not a non-negative number")),
            },
        };
        let mut cfg = Self::default();
        if let Some(v) = number("UTREE_SCALE")? {
            cfg.scale = v;
        }
        if let Some(v) = number("UTREE_QUERIES")? {
            cfg.queries = v as usize;
        }
        if let Some(v) = number("UTREE_N1")? {
            cfg.n1 = v as usize;
        }
        if let Some(v) = number("UTREE_IO_MS")? {
            cfg.io_ms = v;
        }
        Ok(cfg)
    }

    /// Scaled dataset size.
    pub fn sized(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(500)
    }

    /// The refinement mode used by the experiment binaries.
    pub fn refine_mode(&self) -> RefineMode {
        RefineMode::MonteCarlo {
            n1: self.n1,
            seed: 0x5EED,
        }
    }
}

/// Workload-averaged costs (one row of a paper chart).
#[derive(Debug, Clone, Copy, Default)]
pub struct AvgCost {
    /// Average index node accesses per query (Fig 9/10 I/O panels).
    pub node_accesses: f64,
    /// Average heap page reads per query.
    pub heap_reads: f64,
    /// Average appearance-probability computations per query.
    pub prob_computations: f64,
    /// Percentage of qualifying objects reported without refinement.
    pub directly_reported_pct: f64,
    /// Average measured CPU seconds per query (filter + refinement).
    pub cpu_secs: f64,
    /// Average result cardinality.
    pub results: f64,
    /// Average candidates sent to refinement.
    pub candidates: f64,
}

impl AvgCost {
    /// The paper's "total cost": modelled I/O time + measured CPU time.
    pub fn total_secs(&self, io_ms: f64) -> f64 {
        (self.node_accesses + self.heap_reads) * io_ms / 1000.0 + self.cpu_secs
    }

    fn from_accumulated(acc: &QueryStats, n: usize, validated_sum: u64, results_sum: u64) -> Self {
        let n = n as f64;
        AvgCost {
            node_accesses: acc.node_reads as f64 / n,
            heap_reads: acc.heap_reads as f64 / n,
            prob_computations: acc.prob_computations as f64 / n,
            directly_reported_pct: if results_sum == 0 {
                0.0
            } else {
                100.0 * validated_sum as f64 / results_sum as f64
            },
            cpu_secs: (acc.filter_nanos + acc.refine_nanos) as f64 / 1e9 / n,
            results: acc.results as f64 / n,
            candidates: acc.candidates as f64 / n,
        }
    }
}

/// Runs a workload against any [`ProbIndex`] backend and averages the
/// paper's cost metrics.
pub fn run_workload<const D: usize, I: ProbIndex<D>>(
    index: &I,
    workload: &Workload<D>,
    mode: RefineMode,
) -> AvgCost {
    run_workload_with_options(index, workload, mode, QueryOptions::default())
}

/// [`run_workload`] with ablation switches (the filter-component study;
/// only the U-tree honours them).
pub fn run_workload_with_options<const D: usize, I: ProbIndex<D>>(
    index: &I,
    workload: &Workload<D>,
    mode: RefineMode,
    opts: QueryOptions,
) -> AvgCost {
    let mut acc = QueryStats::default();
    let mut validated = 0u64;
    let mut results = 0u64;
    for q in &workload.queries {
        let outcome = index.execute(&Query::from_prob_range(*q, mode).with_options(opts));
        validated += outcome.stats.validated;
        results += outcome.stats.results;
        acc += &outcome.stats;
    }
    AvgCost::from_accumulated(&acc, workload.len(), validated, results)
}

/// Times a closure in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Builds the U-tree / U-PCR pair with the paper's Sec 6.2 catalogs
/// (U-tree m = 15; U-PCR m = 9 in 2D, m = 10 in 3D — the builder
/// defaults).
pub fn build_pair<const D: usize>(
    objs: &[uncertain_pdf::UncertainObject<D>],
) -> (UTree<D>, UPcrTree<D>) {
    let mut utree = UTree::<D>::builder()
        .build()
        .expect("paper default catalog is valid");
    let mut upcr = UPcrTree::<D>::builder()
        .build()
        .expect("paper default catalog is valid");
    utree.bulk_load(objs);
    upcr.bulk_load(objs);
    (utree, upcr)
}

/// Query centers that follow the data distribution (paper Sec 6).
pub fn centers_of<const D: usize>(
    objs: &[uncertain_pdf::UncertainObject<D>],
) -> Vec<uncertain_geom::Point<D>> {
    objs.iter().map(|o| o.mbr().center()).collect()
}

/// One sweep point of a Fig 9/10-style chart: both structures on the same
/// workload.
pub struct PairCost {
    /// U-tree averages.
    pub utree: AvgCost,
    /// U-PCR averages.
    pub upcr: AvgCost,
}

/// Runs one workload against both structures.
pub fn run_pair<const D: usize>(
    utree: &UTree<D>,
    upcr: &UPcrTree<D>,
    w: &Workload<D>,
    mode: RefineMode,
) -> PairCost {
    PairCost {
        utree: run_workload(utree, w, mode),
        upcr: run_workload(upcr, w, mode),
    }
}

/// Emits the three Fig 9/10 panels (I/O, CPU, total) for one dataset.
pub fn print_fig_panels(
    dataset: &str,
    xlabel: &str,
    xs: &[String],
    costs: &[PairCost],
    io_ms: f64,
) {
    let io_rows: Vec<Vec<String>> = xs
        .iter()
        .zip(costs)
        .map(|(x, c)| {
            vec![
                x.clone(),
                fmt(c.utree.node_accesses),
                fmt(c.upcr.node_accesses),
            ]
        })
        .collect();
    print_table(
        &format!("{dataset}: node accesses vs {xlabel}"),
        &[xlabel, "U-tree", "U-PCR"],
        &io_rows,
    );
    let cpu_rows: Vec<Vec<String>> = xs
        .iter()
        .zip(costs)
        .map(|(x, c)| {
            vec![
                x.clone(),
                fmt(c.utree.prob_computations),
                format!("{:.0}%", c.utree.directly_reported_pct),
                fmt(c.upcr.prob_computations),
                format!("{:.0}%", c.upcr.directly_reported_pct),
            ]
        })
        .collect();
    print_table(
        &format!("{dataset}: # prob. computations (and % of results validated for free)"),
        &[xlabel, "U-tree", "(free%)", "U-PCR", "(free%)"],
        &cpu_rows,
    );
    let total_rows: Vec<Vec<String>> = xs
        .iter()
        .zip(costs)
        .map(|(x, c)| {
            vec![
                x.clone(),
                format!("{:.3}", c.utree.total_secs(io_ms)),
                format!("{:.3}", c.upcr.total_secs(io_ms)),
            ]
        })
        .collect();
    print_table(
        &format!("{dataset}: total cost (sec, modelled I/O @ {io_ms} ms + measured CPU)"),
        &[xlabel, "U-tree", "U-PCR"],
        &total_rows,
    );
}

/// Prints a fixed-width table (the binaries' tabular output).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats bytes as MB with one decimal (Table 1 style).
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.1}M", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::workload;
    use uncertain_geom::Point;

    #[test]
    fn harness_runs_a_tiny_experiment_end_to_end() {
        let objs = datagen::lb_dataset(300, 3);
        let mut tree = UTree::<2>::builder().uniform_catalog(8).build().unwrap();
        tree.bulk_load(&objs);
        let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
        let w = workload(&centers, 800.0, 0.6, 10, 1);
        let cost = run_workload(&tree, &w, RefineMode::reference(1e-6));
        assert!(cost.node_accesses > 0.0);
        assert!(cost.results > 0.0, "queries centred on data must hit");
        assert!(cost.total_secs(5.0) > 0.0);
    }

    #[test]
    fn phase_breakdown_sums_within_wall_clock() {
        // The attributable-speedup contract behind every reported phase share:
        // on a sequential run the filter + refine phase clocks are
        // disjoint slices of the same wall interval, so their sum cannot
        // exceed the batch wall clock, and a Monte-Carlo workload must
        // charge refined samples.
        let objs = datagen::lb_dataset(300, 3);
        let mut tree = UTree::<2>::builder().uniform_catalog(8).build().unwrap();
        tree.bulk_load(&objs);
        let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
        let queries: Vec<Query<2>> = workload(&centers, 800.0, 0.5, 8, 1)
            .queries
            .iter()
            .map(|q| {
                Query::from_prob_range(
                    *q,
                    RefineMode::MonteCarlo {
                        n1: 2_000,
                        seed: 0x5EED,
                    },
                )
            })
            .collect();
        let out = utree::engine::BatchExecutor::run_sequential(&tree, &queries);
        let phases = out.stats.filter_nanos + out.stats.refine_nanos;
        assert!(
            phases <= out.wall_nanos,
            "phase sum {phases} ns exceeds batch wall clock {} ns",
            out.wall_nanos
        );
        assert!(
            out.stats.refined_samples > 0,
            "a Monte-Carlo workload over data-centred queries must refine"
        );
        assert!(
            out.stats.refined_samples <= out.stats.prob_computations * 2_000,
            "{} samples over {} estimates: n1 caps each one",
            out.stats.refined_samples,
            out.stats.prob_computations
        );
    }

    #[test]
    fn scaling_variables_parse_or_name_the_offender() {
        let parse = |vars: &[(&str, &str)]| {
            HarnessConfig::from_vars(|name| {
                let hit = vars.iter().find(|(k, _)| *k == name);
                hit.map(|(_, v)| v.to_string())
            })
        };
        let fields = |c: HarnessConfig| (c.scale, c.queries, c.n1, c.io_ms);
        // Unset: the documented defaults.
        assert_eq!(fields(parse(&[]).unwrap()), (0.2, 100, 20_000, 5.0));
        // Set: each variable reaches its own field, the rest keep defaults.
        let set = [
            ("UTREE_SCALE", "0.1"),
            ("UTREE_QUERIES", "64"),
            ("UTREE_N1", "1e4"),
        ];
        assert_eq!(fields(parse(&set).unwrap()), (0.1, 64, 10_000, 5.0));
        // Garbage: an error naming the variable and the value, never a default.
        for garbage in [
            ("UTREE_SCALE", "0,1"),
            ("UTREE_QUERIES", "many"),
            ("UTREE_N1", ""),
            ("UTREE_IO_MS", "-5"),
            ("UTREE_SCALE", "NaN"),
        ] {
            let err = parse(&[garbage]).unwrap_err();
            assert!(err.contains(garbage.0) && err.contains(garbage.1), "{err}");
        }
    }

    #[test]
    fn config_scaling() {
        let cfg = HarnessConfig {
            scale: 0.1,
            ..Default::default()
        };
        assert_eq!(cfg.sized(53_000), 5_300);
        assert_eq!(cfg.sized(100), 500, "floor keeps smoke runs meaningful");
    }
}
