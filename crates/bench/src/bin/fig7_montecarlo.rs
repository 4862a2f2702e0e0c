//! Figure 7: cost of the numerical (Monte-Carlo) evaluation of appearance
//! probabilities — workload relative error and per-computation time as a
//! function of n₁, in 2D and 3D.
//!
//! Paper setup: queries of size q_s = 500 intersecting one object's
//! uncertainty region in different ways; the error of each estimate is
//! measured against the true value; accuracy depends only on the region's
//! area/volume, not the pdf. The paper sweeps n₁ = 10⁴…10⁸ and settles on
//! 10⁶ (≈1% error, 1.3 ms per computation on its hardware).
//!
//! `--full` extends the sweep to 10⁷ (10⁸ only costs time and adds no
//! information about the 1/√n₁ shape).

use bench::{print_table, timed, HarnessConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::{Point, Rect};
use uncertain_pdf::{appearance_reference, MonteCarlo, ObjectPdf, PreparedPdf, RefineScratch};

fn sweep<const D: usize>(pdf: &ObjectPdf<D>, n1s: &[usize], queries: usize) -> Vec<(f64, f64)> {
    // Queries of side 500 at varying offsets from the object's center, so
    // the intersections range from slivers to near-total coverage.
    let mut rng = SmallRng::seed_from_u64(0xF167);
    let mbr = pdf.mbr();
    let c = mbr.center();
    let r = mbr.extent(0) / 2.0;
    let qs = 500.0;
    let mut regions = Vec::new();
    while regions.len() < queries {
        let mut corner = [0.0; D];
        for (i, v) in corner.iter_mut().enumerate() {
            *v = c.coords[i] + rng.gen_range(-r - qs * 0.8..r);
        }
        let mut hi = corner;
        for v in hi.iter_mut() {
            *v += qs;
        }
        let rq = Rect::new(corner, hi);
        let truth = appearance_reference(pdf, &rq, 1e-6);
        if truth > 1e-3 && truth < 0.999 {
            regions.push((rq, truth));
        }
    }

    // The kernel every index refines through (`estimate_with`), called the
    // way a query calls it: the pdf prepared per computation, one scratch
    // reused across all of them.
    let mut scratch = RefineScratch::new();
    n1s.iter()
        .map(|&n1| {
            let mc = MonteCarlo::new(n1);
            let mut err_sum = 0.0;
            let (_, secs) = timed(|| {
                for (rq, truth) in &regions {
                    let prepared = PreparedPdf::new(pdf);
                    let est = mc.estimate_with(&prepared, rq, &mut rng, &mut scratch);
                    err_sum += ((est - truth) / truth).abs();
                }
            });
            (err_sum / regions.len() as f64, secs / regions.len() as f64)
        })
        .collect()
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let mut n1s = vec![1_000, 10_000, 100_000, 1_000_000];
    if std::env::args().any(|a| a == "--full") {
        n1s.push(10_000_000);
    }

    // 2D: a radius-250 disk (the LB/CA object shape).
    let disk: ObjectPdf<2> = ObjectPdf::UniformBall {
        center: Point::new([5_000.0, 5_000.0]),
        radius: 250.0,
    };
    // 3D: a radius-250 sphere (the paper notes 3D regions are "larger",
    // needing higher n₁ for the same error).
    let sphere: ObjectPdf<3> = ObjectPdf::UniformBall {
        center: Point::new([5_000.0, 5_000.0, 5_000.0]),
        radius: 250.0,
    };

    let q = cfg.queries.clamp(10, 40);
    let r2 = sweep(&disk, &n1s, q);
    let r3 = sweep(&sphere, &n1s, q);

    let rows: Vec<Vec<String>> = n1s
        .iter()
        .zip(r2.iter().zip(&r3))
        .map(|(&n1, ((e2, t2), (e3, t3)))| {
            vec![
                format!("1e{}", (n1 as f64).log10().round() as i32),
                format!("{:.3}%", e2 * 100.0),
                format!("{:.3}%", e3 * 100.0),
                format!("{:.4}", t2 * 1e3),
                format!("{:.4}", t3 * 1e3),
            ]
        })
        .collect();
    print_table(
        "Figure 7 — Monte-Carlo cost (workload error & ms/computation)",
        &["n1", "2D err", "3D err", "2D ms", "3D ms"],
        &rows,
    );

    // The paper's two take-aways, checked mechanically:
    let shrink2 = r2.first().unwrap().0 / r2.last().unwrap().0;
    println!(
        "\nerror shrinks {:.0}x across the sweep (expected ~sqrt(n1 ratio) = {:.0}x);",
        shrink2,
        ((*n1s.last().unwrap() as f64) / n1s[0] as f64).sqrt()
    );
    println!(
        "3D error {}≥ 2D error at n1=1e6 (larger uncertainty volume), paper's Sec 6.1 observation",
        if r3.last().unwrap().0 >= r2.last().unwrap().0 * 0.8 {
            ""
        } else {
            "NOT "
        }
    );
}
