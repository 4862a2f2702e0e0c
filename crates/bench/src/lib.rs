//! The reproduction of the paper's Sec 6 evaluation, written once.
//!
//! [`report`] runs Table 1, Figs 7–11 and the filter ablation
//! ([`EXPERIMENTS`]) at one of two sizes ([`Preset`]) and returns a
//! markdown report: for every table and figure the paper's number or
//! stated shape beside ours, and one computed `holds` / `diverges (value)`
//! line per claim. The report carries exact counts and values derived from
//! them only — Fig 7's seeded errors, and "total cost" as counts ×
//! [`IO_MS`] and [`PROB_MS`] — so a run repeats byte for byte; measured
//! seconds go to stderr. The `repro` binary prints it,
//! `docs/REPRODUCTION.md` and `docs/reproduction-smoke.md` are its
//! committed output, and `tests/report.rs` keeps the smoke one current.

use datagen::workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::time::Instant;
use uncertain_geom::{Point, Rect};
use uncertain_pdf::{
    appearance_reference, MonteCarlo, ObjectPdf, PreparedPdf, RefineScratch, UncertainObject,
};
use utree::{
    InsertStats, ProbIndex, QueryBuilder, QueryCtx, QueryOptions, QueryStats, Refine, UPcrTree,
    UTree,
};

/// The experiments [`report`] runs, in report order.
pub const EXPERIMENTS: [&str; 7] = [
    "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation",
];
// One runner per name in `EXPERIMENTS`, in the same order.
const RUNS: [fn(&mut Report, &Data); 7] = [table1, fig7, fig8, fig9, fig10, fig11, ablation];

/// Modelled milliseconds per page access in "total cost".
pub const IO_MS: f64 = 5.0;
/// Modelled milliseconds per probability computation in "total cost": the
/// paper's cost of one n₁ = 10⁶ Monte-Carlo estimate (Sec 6.1).
pub const PROB_MS: f64 = 1.3;

/// Seed of the Monte-Carlo refinement in every workload.
const MC_SEED: u64 = 0x5EED;
/// Seed of Fig 7's query regions and estimates.
const FIG7_SEED: u64 = 0xF167;
const PAPER_N: [usize; 3] = [datagen::LB_SIZE, datagen::CA_SIZE, datagen::AIRCRAFT_SIZE];
const DATASETS: [&str; 3] = ["LB", "CA", "Aircraft"];

/// How large a run is; every seed is the same at both sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// 2 % of the paper's cardinalities, 10 queries per workload,
    /// n₁ = 2 000: seconds in release, and what `tests/report.rs` checks.
    Smoke,
    /// The paper's cardinalities ([`datagen::LB_SIZE`],
    /// [`datagen::CA_SIZE`], [`datagen::AIRCRAFT_SIZE`]) and 100 queries
    /// per workload, n₁ = 20 000.
    Paper,
}

/// Runs `which` — one of [`EXPERIMENTS`], or `all` — and returns the
/// report. At [`Preset::Paper`] the header states the run's wall time;
/// nothing else in the report is measured.
pub fn report(preset: Preset, which: &str) -> String {
    let start = Instant::now();
    // n₁ is a cap: a range candidate stops sampling once its decision is
    // certain. The paper's 10⁶ would only cost time, which PROB_MS models.
    let (sizes, queries, n1) = match preset {
        Preset::Smoke => ([1_060, 1_240, 2_000], 10, 2_000),
        Preset::Paper => (PAPER_N, 100, 20_000),
    };
    let [lb, ca, air] = sizes;
    let data = Data {
        queries,
        mode: Refine::monte_carlo(n1, MC_SEED),
        lb: Dataset::new("LB", 0, datagen::lb_dataset(lb, 1)),
        ca: Dataset::new("CA", 1, datagen::ca_dataset(ca, 1)),
        air: Dataset::new("Aircraft", 2, datagen::aircraft_dataset(air, 1)),
    };
    let mut body = Report::default();
    for (name, run) in EXPERIMENTS.iter().zip(RUNS) {
        if which == "all" || which == *name {
            run(&mut body, &data);
        }
    }
    assert!(!body.0.is_empty(), "unknown experiment {which:?}");
    let minutes = start.elapsed().as_secs_f64() / 60.0;
    eprintln!("wall time {minutes:.1} min");

    let (name, flag) = match preset {
        Preset::Smoke => ("smoke", " --smoke"),
        Preset::Paper => ("paper", ""),
    };
    let mut head = format!(
        "# Reproduction of Tao et al., VLDB 2005, Section 6\n\n\
         Output of `cargo run --release -p bench --bin repro -- {which}{flag}`, not edited by \
         hand. The data are `datagen`'s seeded stand-ins for the TIGER files (LB, CA) and \
         the paper's recipe for Aircraft, so sizes and fan-out compare with the paper in \
         absolute terms, I/O and CPU in shape only. Every number below is an exact count \
         or derived from one; measured seconds go to stderr.\n\n\
         | setting | value |\n| --- | --- |\n| preset | `{name}` |\n\
         | objects | LB {lb}, CA {ca}, Aircraft {air} (dataset seed 1) |\n\
         | queries | {queries} per workload, centred on objects |\n\
         | refinement | Monte-Carlo, n₁ ≤ {n1} per computation, seed {MC_SEED:#X} |\n\
         | catalogs | U-tree m = 15; U-PCR m = 9 (2-D), 10 (3-D), as Sec 6.2 |\n\
         | total cost | {IO_MS} ms per page access + {PROB_MS} ms per probability computation |\n"
    );
    if preset == Preset::Paper {
        head += &format!("| wall time | {minutes:.1} min |\n");
    }
    head + &body.0
}

/// The markdown under construction. Every block ends with a blank line
/// but a list of checks, which is what a section follows.
#[derive(Default)]
struct Report(String);

impl Report {
    fn line(&mut self, text: impl AsRef<str>) {
        self.0.push_str(text.as_ref());
        self.0.push('\n');
    }

    fn section(&mut self, title: &str, paper: &str, here: &str) {
        self.line(format!("\n## {title}\n\nPaper: {paper}\n\nHere: {here}\n"));
    }

    fn table(&mut self, header: &[&str], rows: Vec<Vec<String>>) {
        self.line(format!("| {} |", header.join(" | ")));
        self.line(format!("|{}", " --- |".repeat(header.len())));
        for row in rows {
            self.line(format!("| {} |", row.join(" | ")));
        }
        self.line("");
    }

    /// One claim and its verdict: `holds`, or `diverges` with every miss.
    fn check(&mut self, claim: &str, misses: Vec<String>) {
        if misses.is_empty() {
            self.line(format!("- {claim}: holds"));
        } else {
            self.line(format!("- {claim}: diverges ({})", misses.join("; ")));
        }
    }
}

/// A table row: `label`, then `cells`.
fn labelled(label: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Formats a per-query average compactly.
fn fmt(v: f64) -> String {
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

/// `[body(LB), body(CA), body(Aircraft)]` with `ds` bound to each dataset:
/// the body is generic over the dimension, which a closure cannot be.
macro_rules! per_dataset {
    ($data:expr, |$ds:ident| $body:expr) => {
        per_dataset!(@ $data, $ds, $body, lb ca air)
    };
    (@ $data:expr, $ds:ident, $body:expr, $($field:ident)*) => {
        [$({ let $ds = &$data.$field; $body }),*]
    };
}

struct Data {
    /// Queries per workload.
    queries: usize,
    mode: Refine,
    lb: Dataset<2>,
    ca: Dataset<2>,
    air: Dataset<3>,
}

/// One of the paper's datasets, with the U-tree / U-PCR pair that Table 1,
/// Figs 9/10 and the ablation share, built on first use.
struct Dataset<const D: usize> {
    name: &'static str,
    /// Position in [`DATASETS`]; offsets the dataset's workload seeds.
    ordinal: u64,
    objects: Vec<UncertainObject<D>>,
    /// Query centres: workloads follow the data (Sec 6).
    centers: Vec<Point<D>>,
    pair: OnceCell<(UTree<D>, UPcrTree<D>)>,
}

impl<const D: usize> Dataset<D> {
    fn new(name: &'static str, ordinal: u64, objects: Vec<UncertainObject<D>>) -> Self {
        let centers = objects.iter().map(|o| o.mbr().center()).collect();
        let pair = OnceCell::new();
        Self {
            name,
            ordinal,
            objects,
            centers,
            pair,
        }
    }

    /// Both trees, bulk-loaded with the builders' Sec 6.2 catalogs.
    fn pair(&self) -> &(UTree<D>, UPcrTree<D>) {
        self.pair.get_or_init(|| {
            let t0 = Instant::now();
            let mut utree = UTree::<D>::builder().build().expect("paper catalog");
            utree.bulk_load(&self.objects);
            let mut upcr = UPcrTree::<D>::builder().build().expect("paper catalog");
            upcr.bulk_load(&self.objects);
            let secs = t0.elapsed().as_secs_f64();
            eprintln!("{}: U-tree and U-PCR built in {secs:.2} s", self.name);
            (utree, upcr)
        })
    }
}

const COLUMNS: [&str; 4] = ["nodes", "prob.", "free", "cost ms"];

/// The exact counts of some queries on one index, summed. The two phase
/// clocks inside `stats` are measured and reach stderr only.
#[derive(Default)]
struct Row {
    queries: u64,
    stats: QueryStats,
}

impl Row {
    fn per_query(&self, count: u64) -> f64 {
        count as f64 / self.queries as f64
    }

    fn nodes(&self) -> f64 {
        self.per_query(self.stats.node_reads)
    }

    fn computations(&self) -> f64 {
        self.per_query(self.stats.prob_computations)
    }

    /// Share of the results reported without a probability computation.
    fn free_pct(&self) -> f64 {
        100.0 * self.stats.directly_reported_fraction()
    }

    /// The paper's "total cost" per query, from counts alone.
    fn cost_ms(&self) -> f64 {
        self.per_query(self.stats.total_io()) * IO_MS + self.computations() * PROB_MS
    }

    /// Measured filter + refinement CPU per query.
    fn cpu_ms(&self) -> f64 {
        (self.stats.filter_nanos + self.stats.refine_nanos) as f64 / 1e6 / self.queries as f64
    }

    /// The [`COLUMNS`] Figs 9/10 and the ablation print.
    fn cells(&self) -> [String; 4] {
        [
            fmt(self.nodes()),
            fmt(self.computations()),
            format!("{:.0}%", self.free_pct()),
            format!("{:.1}", self.cost_ms()),
        ]
    }
}

/// Runs `queries` on `index`, refining with `mode`.
fn run<const D: usize>(
    index: &impl ProbIndex<D>,
    queries: &[QueryBuilder<D>],
    mode: Refine,
    opts: QueryOptions,
) -> Row {
    let mut ctx = QueryCtx::new();
    let mut row = Row::default();
    for q in queries {
        let out = q
            .refine(mode)
            .options(opts)
            .build()
            .and_then(|query| index.try_execute_with(&query, &mut ctx))
            .expect("a valid workload on an in-memory index");
        row.stats += &out.stats;
        row.queries += 1;
    }
    row
}

fn table1(r: &mut Report, data: &Data) {
    const PAPER: [[f64; 2]; 3] = [[11.9e6, 5.0e6], [14.0e6, 5.9e6], [40.1e6, 14.2e6]];
    r.section(
        "Table 1 — index size",
        "U-PCR 11.9M / 14.0M / 40.1M bytes, U-tree 5.0M / 5.9M / 14.2M on LB / CA / \
         Aircraft: the U-tree is 2.4–2.8× smaller, because an entry holds two CFBs (8d \
         values) instead of m PCRs (2d·m values).",
        "node pages of the bulk-loaded trees. Sizes are linear in N, so a run below the \
         paper's N also shows them scaled up to it.",
    );
    let bytes = per_dataset!(data, |ds| {
        let (utree, upcr) = ds.pair();
        [upcr.index_size_bytes(), utree.index_size_bytes()].map(|b| b as f64)
    });
    let ratio = bytes.map(|[upcr, utree]| upcr / utree);
    let mb = |b: f64| format!("{:.2}M", b / 1e6);
    let times = |x: f64| format!("{x:.2}×");
    let mut rows = vec![
        labelled("U-PCR", bytes.map(|b| mb(b[0]))),
        labelled("U-tree", bytes.map(|b| mb(b[1]))),
        labelled("U-PCR / U-tree", ratio.map(times)),
    ];
    let n = per_dataset!(data, |ds| ds.objects.len());
    if n != PAPER_N {
        for (i, index) in ["U-PCR", "U-tree"].iter().enumerate() {
            let scaled = (0..3).map(|d| bytes[d][i] * PAPER_N[d] as f64 / n[d] as f64);
            rows.push(labelled(format!("{index} at paper N"), scaled.map(mb)));
        }
    }
    rows.push(labelled("paper U-PCR", PAPER.map(|p| mb(p[0]))));
    rows.push(labelled("paper U-tree", PAPER.map(|p| mb(p[1]))));
    rows.push(labelled(
        "paper U-PCR / U-tree",
        PAPER.map(|p| times(p[0] / p[1])),
    ));
    r.table(&["", "LB", "CA", "Aircraft"], rows);
    let misses = |bad: fn(f64) -> bool| {
        let hits = DATASETS.iter().zip(ratio).filter(|&(_, x)| bad(x));
        hits.map(|(d, x)| format!("{d} {}", times(x))).collect()
    };
    r.check(
        "the U-tree is smaller than U-PCR on every dataset",
        misses(|x| x <= 1.0),
    );
    r.check(
        "U-PCR / U-tree is within the paper's 2.4–2.8× (to one decimal)",
        misses(|x| !(2.35..2.85).contains(&x)),
    );
}

const FIG7_N1: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

fn fig7(r: &mut Report, data: &Data) {
    let regions = data.queries.min(40);
    r.section(
        "Figure 7 — Monte-Carlo error against n₁",
        "the workload error of the Monte-Carlo estimate falls as n₁ grows and is about 1 % \
         at n₁ = 10⁶, the value the paper adopts (1.3 ms per computation on its hardware); \
         3-D regions are larger and need more samples for the same error.",
        &format!(
            "{regions} squares (cubes) of side 500 cutting a radius-250 disk (sphere) with a \
             true probability in (0.001, 0.999), drawn from seed {FIG7_SEED:#X}; mean \
             relative error against quadrature. Milliseconds per computation go to stderr."
        ),
    );
    let errors = [mc_errors::<2>(regions), mc_errors::<3>(regions)];
    let label = |i: usize| format!("1e{}", FIG7_N1[i].ilog10());
    let pct = |e: f64| format!("{:.3} %", e * 100.0);
    let rows = (0..4).map(|i| labelled(label(i), errors.map(|e| pct(e[i]))));
    r.table(&["n₁", "2-D error", "3-D error"], rows.collect());
    let dims = ["2-D", "3-D"].into_iter().zip(errors);
    let rising = dims
        .clone()
        .filter(|(_, e)| e.windows(2).any(|w| w[1] >= w[0]));
    r.check(
        "the error falls at every step of n₁, in 2-D and in 3-D",
        rising.map(|(d, _)| d.to_string()).collect(),
    );
    let below = (0..4).filter(|&i| errors[1][i] < errors[0][i]);
    r.check(
        "the 3-D error is at least the 2-D error at every n₁",
        below.map(|i| format!("n₁ {}", label(i))).collect(),
    );
    let above = dims.filter(|(_, e)| e[3] > 0.015);
    r.check(
        "the error at n₁ = 10⁶ is about 1 % or less (≤ 1.5 %)",
        above.map(|(d, e)| format!("{d} {}", pct(e[3]))).collect(),
    );
}

/// Fig 7's mean relative error at each n₁ over `regions` seeded regions
/// around a radius-250 ball (the LB/CA object shape), estimated the way a
/// query refines: the pdf prepared per computation, one scratch reused.
fn mc_errors<const D: usize>(regions: usize) -> [f64; 4] {
    let (c, radius) = (5_000.0, 250.0);
    let pdf = &ObjectPdf::<D>::UniformBall {
        center: Point::new([c; D]),
        radius,
    };
    let mut rng = SmallRng::seed_from_u64(FIG7_SEED);
    let mut cases = Vec::new();
    while cases.len() < regions {
        let lo: [f64; D] = std::array::from_fn(|_| c + rng.gen_range(-radius - 400.0..radius));
        let rq = Rect::new(lo, lo.map(|v| v + 500.0));
        let truth = appearance_reference(pdf, &rq, 1e-6);
        if truth > 1e-3 && truth < 0.999 {
            cases.push((rq, truth));
        }
    }
    let mut scratch = RefineScratch::new();
    FIG7_N1.map(|n1| {
        let mc = MonteCarlo::new(n1);
        let t0 = Instant::now();
        let mut err = 0.0;
        for (rq, truth) in &cases {
            let est = mc.estimate_with(&PreparedPdf::new(pdf), rq, &mut rng, &mut scratch);
            err += ((est - truth) / truth).abs();
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / regions as f64;
        eprintln!("fig7 {D}-D n1 = {n1}: {ms:.4} ms per computation");
        err / regions as f64
    })
}

const FIG8_M: [usize; 7] = [3, 4, 6, 8, 9, 10, 12];

fn fig8(r: &mut Report, data: &Data) {
    let per_point = (data.queries / 10).max(2);
    r.section(
        "Figure 8 — U-PCR catalog size m",
        "U-PCR's query cost falls as its catalog grows (more pruning and validating power) \
         until the loss of fan-out dominates; the optimum is m = 9 on LB and CA and m = 10 \
         on Aircraft.",
        &format!(
            "a U-PCR tree per m with a uniform catalog, 80 workloads at q_s = 500 and p_q = \
             0.11, 0.12, …, 0.90 with {per_point} queries each (seeds 800 + k); total cost per \
             query in ms."
        ),
    );
    let costs = per_dataset!(data, |ds| FIG8_M
        .map(|m| upcr_cost(ds, m, per_point, data.mode)));
    let best = costs.map(|c| FIG8_M[(0..c.len()).fold(0, |b, i| if c[i] < c[b] { i } else { b })]);
    let rows =
        (0..FIG8_M.len()).map(|i| labelled(FIG8_M[i], costs.map(|c| format!("{:.1}", c[i]))));
    let best_row = labelled("best m", best.map(|m| m.to_string()));
    r.table(
        &["m", "LB", "CA", "Aircraft"],
        rows.chain([best_row]).collect(),
    );
    let wrong = (0..3).filter(|&d| best[d] != [9, 9, 10][d]);
    r.check(
        "the cheapest catalog is m = 9 / 9 / 10",
        wrong
            .map(|d| format!("{} m = {}", DATASETS[d], best[d]))
            .collect(),
    );
}

/// Fig 8 on one dataset: total cost per query of a U-PCR tree with an
/// `m`-value uniform catalog.
fn upcr_cost<const D: usize>(ds: &Dataset<D>, m: usize, per_point: usize, mode: Refine) -> f64 {
    let mut tree = UPcrTree::<D>::builder()
        .uniform_catalog(m)
        .build()
        .expect("m >= 3 catalogs are valid");
    tree.bulk_load(&ds.objects);
    let p_q = |k: u64| 0.11 + 0.01 * k as f64;
    let queries: Vec<_> = (0..80)
        .flat_map(|k| workload(&ds.centers, 500.0, p_q(k), per_point, 800 + k).queries)
        .collect();
    let row = run(&tree, &queries, mode, QueryOptions::default());
    eprintln!("fig8 {} m = {m}: CPU {:.3} ms/query", ds.name, row.cpu_ms());
    row.cost_ms()
}

/// Rows of a Fig 9/10 sweep: per dataset, per point, [U-tree, U-PCR].
type Sweep = [Vec<[Row; 2]>; 3];

fn fig9(r: &mut Report, data: &Data) {
    const QS: [f64; 5] = [500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0];
    r.section(
        "Figure 9 — query size q_s (p_q = 0.6)",
        "the U-tree reads fewer nodes than U-PCR in all cases, thanks to its larger fan-out, \
         and both read more as q_s grows; 83–97 % of the 2-D results are reported without \
         integration at q_s ≥ 1000; the U-tree has the lower total cost.",
        "one workload per point, seeds 90 + 100 × dataset + point.",
    );
    let rows = sweep(r, data, "q_s", &QS, |qs| (qs, 0.6), 90);
    r.check(
        "node accesses grow from q_s = 500 to 2500",
        trend(&rows, Row::nodes, |first, last| last > first),
    );
    // The U-tree's rounded share of 2-D results reported free, wherever
    // `bad(q_s, share)`.
    let free = |bad: fn(f64, f64) -> bool| -> Vec<String> {
        let points = (0..2).flat_map(|d| QS.iter().zip(&rows[d]).map(move |(&qs, p)| (d, qs, p)));
        let shares = points.map(|(d, qs, [u, _])| (DATASETS[d], qs, u.free_pct().round()));
        let misses = shares.filter(|&(_, qs, pct)| bad(qs, pct));
        misses
            .map(|(d, qs, pct)| format!("{d} {pct}% at q_s {qs}"))
            .collect()
    };
    r.check(
        "the U-tree reports 83–97 % of the 2-D results without integration at q_s ≥ 1000",
        free(|qs, pct| qs >= 1000.0 && !(83.0..=97.0).contains(&pct)),
    );
    r.check(
        "the U-tree reports some 2-D results without integration at q_s = 500",
        free(|qs, pct| qs == 500.0 && pct == 0.0),
    );
}

fn fig10(r: &mut Report, data: &Data) {
    const PQ: [f64; 5] = [0.3, 0.45, 0.6, 0.75, 0.9];
    r.section(
        "Figure 10 — probability threshold p_q (q_s = 1500)",
        "node accesses fall mildly as p_q grows (stronger subtree pruning); probability \
         computations drop at high p_q; the U-tree reads fewer nodes and has the lower \
         total cost.",
        "one workload per point, seeds 1090 + 100 × dataset + point.",
    );
    let rows = sweep(r, data, "p_q", &PQ, |pq| (1_500.0, pq), 1090);
    r.check(
        "node accesses do not grow from p_q = 0.3 to 0.9",
        trend(&rows, Row::nodes, |first, last| last <= first),
    );
    r.check(
        "probability computations fall from p_q = 0.3 to 0.9",
        trend(&rows, Row::computations, |first, last| last < first),
    );
}

/// Figs 9 and 10: on every dataset's shared pair, one workload per `x` at
/// `point(x) = (q_s, p_q)`; prints a table per dataset and the two claims
/// both figures make.
fn sweep(
    r: &mut Report,
    data: &Data,
    axis: &str,
    xs: &[f64],
    point: fn(f64) -> (f64, f64),
    seed: u64,
) -> Sweep {
    let rows: Sweep = per_dataset!(data, |ds| {
        let (utree, upcr) = ds.pair();
        let points = xs.iter().enumerate().map(|(k, &x)| {
            let ((qs, pq), seed) = (point(x), seed + 100 * ds.ordinal + k as u64);
            let w = workload(&ds.centers, qs, pq, data.queries, seed);
            let (q, mode, on) = (&w.queries, data.mode, QueryOptions::default());
            let rows = [run(utree, q, mode, on), run(upcr, q, mode, on)];
            let [u, p] = rows.each_ref().map(Row::cpu_ms);
            eprintln!("{} {axis} = {x}: CPU {u:.3} / {p:.3} ms/query", ds.name);
            rows
        });
        points.collect()
    });
    for (name, rows) in DATASETS.iter().zip(&rows) {
        r.line(format!("**{name}**, U-tree / U-PCR per query\n"));
        let table = xs.iter().zip(rows).map(|(x, [u, p])| {
            let [u, p] = [u.cells(), p.cells()];
            labelled(x, (0..4).map(|i| format!("{} / {}", u[i], p[i])))
        });
        r.table(&[&[axis][..], &COLUMNS].concat(), table.collect());
    }
    let everywhere = |metric: fn(&Row) -> f64| -> Vec<String> {
        let points = (0..3).flat_map(|d| xs.iter().zip(&rows[d]).map(move |(x, p)| (d, x, p)));
        let misses = points.filter(|(_, _, [u, p])| metric(u) >= metric(p));
        let text =
            |d: usize, x, u, p| format!("{} {axis} {x}: {} vs {}", DATASETS[d], fmt(u), fmt(p));
        misses
            .map(|(d, x, [u, p])| text(d, x, metric(u), metric(p)))
            .collect()
    };
    r.check(
        &format!("the U-tree reads fewer nodes than U-PCR at every {axis}"),
        everywhere(Row::nodes),
    );
    r.check(
        &format!("the U-tree's total cost is below U-PCR's at every {axis}"),
        everywhere(Row::cost_ms),
    );
    rows
}

/// Every dataset and index whose `metric` at the sweep's first and last
/// points fails `holds(first, last)`.
fn trend(rows: &Sweep, metric: fn(&Row) -> f64, holds: fn(f64, f64) -> bool) -> Vec<String> {
    let mut misses = Vec::new();
    for (name, rows) in DATASETS.iter().zip(rows) {
        for (i, index) in ["U-tree", "U-PCR"].iter().enumerate() {
            let (first, last) = (metric(&rows[0][i]), metric(&rows[rows.len() - 1][i]));
            if !holds(first, last) {
                misses.push(format!("{name} {index} {} → {}", fmt(first), fmt(last)));
            }
        }
    }
    misses
}

fn fig11(r: &mut Report, data: &Data) {
    r.section(
        "Figure 11 — update cost",
        "an insertion costs 0.03–0.07 s on 2005 hardware, dominated by I/O, with the simplex \
         and PCR computation a small slice; a deletion costs several times an insertion \
         (condensation and reinsertion).",
        &format!(
            "each dataset inserted one object at a time into an empty U-tree, then every \
             object deleted again; page accesses per object × {IO_MS} ms. CPU goes to stderr."
        ),
    );
    let io = per_dataset!(data, |ds| update_io(ds));
    let rows = DATASETS.iter().zip(io);
    let cells = |[ins, del]: [f64; 2]| [ins, del, del / ins].map(|v| format!("{v:.2}"));
    let table = rows.clone().map(|(d, io)| labelled(d, cells(io)));
    r.table(
        &["dataset", "insert I/O ms", "delete I/O ms", "ratio"],
        table.collect(),
    );
    let cheap = rows.filter(|&(_, [ins, del])| del < 2.0 * ins);
    r.check(
        "a deletion's I/O is several (≥ 2) times an insertion's",
        cheap
            .map(|(d, [ins, del])| format!("{d} {:.2}×", del / ins))
            .collect(),
    );
}

/// Fig 11 on one dataset: I/O ms per insertion, the U-tree built one object
/// at a time, and per deletion, every object removed again.
fn update_io<const D: usize>(ds: &Dataset<D>) -> [f64; 2] {
    let mut tree = UTree::<D>::builder().build().expect("paper catalog");
    let mut ins = InsertStats::default();
    for o in &ds.objects {
        ins += &tree.insert(o);
    }
    tree.reset_io();
    let t0 = Instant::now();
    for o in &ds.objects {
        assert!(tree.delete(o), "object {} must be deletable", o.id);
    }
    let n = ds.objects.len() as f64;
    let ms = |nanos: u128| nanos as f64 / 1e6 / n;
    let (pcr, lp, del) = (
        ms(ins.pcr_nanos),
        ms(ins.lp_nanos),
        ms(t0.elapsed().as_nanos()),
    );
    let name = ds.name;
    eprintln!("fig11 {name}: CPU/object PCR {pcr:.3} + CFB fit {lp:.3} ms, deletion {del:.3} ms");
    [ins.io_reads + ins.io_writes, tree.io_counters()].map(|pages| pages as f64 * IO_MS / n)
}

fn ablation(r: &mut Report, data: &Data) {
    r.section(
        "Ablation — filter components (not in the paper)",
        "Sec 1 and 5 argue each rule earns its place: Observation 4 prunes subtrees that a \
         plain MBR test keeps, validation reports results without integration, and the \
         conventional range search must integrate every object whose MBR meets r_q.",
        "the shared LB U-tree, one workload at q_s = 1500, p_q = 0.6 (seed 4242). All four \
         configurations return the same answers \
         (`tree.rs::ablated_queries_return_identical_results`).",
    );
    let w = workload(&data.lb.centers, 1_500.0, 0.6, data.queries, 4242);
    // Flags: [leaf rules, validation, Observation 4].
    let configs = [
        ("full", [true; 3]),
        ("no-obs4", [true, true, false]),
        ("no-valid", [true, false, true]),
        ("mbr-only", [false; 3]),
    ];
    let rows = configs.map(|(name, [leaf_filter, validation, observation4])| {
        let opts = QueryOptions {
            leaf_filter,
            validation,
            observation4,
        };
        let row = run(&data.lb.pair().0, &w.queries, data.mode, opts);
        eprintln!("ablation {name}: CPU {:.3} ms/query", row.cpu_ms());
        row
    });
    let table = configs
        .iter()
        .zip(&rows)
        .map(|(c, row)| labelled(c.0, row.cells()));
    r.table(&[&["config"][..], &COLUMNS].concat(), table.collect());
    let [full, no_obs4, no_valid, mbr_only] = &rows;
    let saves = [
        ("Observation 4", full.nodes(), no_obs4.nodes()),
        ("validation", full.computations(), no_valid.computations()),
        (
            "leaf rules",
            no_valid.computations(),
            mbr_only.computations(),
        ),
    ];
    let misses = saves.iter().filter(|(_, with, without)| with >= without);
    r.check(
        "each component saves what it targets: Observation 4 node accesses (full < no-obs4), \
         validation and the leaf rules computations (full < no-valid < mbr-only)",
        misses
            .map(|(c, a, b)| format!("{c} {} vs {}", fmt(*a), fmt(*b)))
            .collect(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let queries: Vec<_> = workload(&centers, 800.0, 0.5, 8, 1)
            .queries
            .iter()
            .map(|q| {
                q.refine(Refine::monte_carlo(2_000, 0x5EED))
                    .build()
                    .unwrap()
            })
            .collect();
        let mut ctx = QueryCtx::new();
        let mut stats = QueryStats::default();
        let t0 = Instant::now();
        for q in &queries {
            stats += &tree.execute_with(q, &mut ctx).stats;
        }
        let wall_nanos = t0.elapsed().as_nanos();
        let phases = stats.filter_nanos + stats.refine_nanos;
        assert!(
            phases <= wall_nanos,
            "phase sum {phases} ns exceeds batch wall clock {wall_nanos} ns"
        );
        assert!(
            stats.refined_samples > 0,
            "a Monte-Carlo workload over data-centred queries must refine"
        );
        assert!(
            stats.refined_samples <= stats.prob_computations * 2_000,
            "{} samples over {} estimates: n1 caps each one",
            stats.refined_samples,
            stats.prob_computations
        );
    }
}
