//! Quickstart: index a handful of uncertain objects and run prob-range
//! queries through the fluent API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use utree_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A U-catalog is the set of probability values at which the index
    // pre-computes its filters. 10 evenly spaced values is a good default;
    // invalid catalogs surface as typed errors instead of panics.
    let mut tree = UTree::<2>::builder()
        .catalog(UCatalog::uniform(10))
        .build()?;

    // A delivery drone somewhere within 150m of its last report, equally
    // likely anywhere in that disk; a vehicle with a truncated-Gaussian
    // GPS fix; a sensor reading in an error box; and a truly arbitrary
    // histogram pdf leaning north-east.
    let objects = vec![
        UncertainObject::new(
            1,
            ObjectPdf::UniformBall {
                center: Point::new([2_000.0, 3_000.0]),
                radius: 150.0,
            },
        ),
        UncertainObject::new(
            2,
            ObjectPdf::ConGauBall {
                center: Point::new([2_300.0, 3_100.0]),
                radius: 200.0,
                sigma: 100.0,
            },
        ),
        UncertainObject::new(
            3,
            ObjectPdf::UniformBox {
                rect: Rect::new([5_000.0, 5_000.0], [5_400.0, 5_600.0]),
            },
        ),
        UncertainObject::new(
            4,
            ObjectPdf::Histogram(HistogramPdf::from_fn(
                Rect::new([2_100.0, 2_800.0], [2_500.0, 3_200.0]),
                [16, 16],
                |p| (p.coords[0] - 2_100.0) + (p.coords[1] - 2_800.0) + 50.0,
            )),
        ),
    ];
    let load = tree.bulk_load(&objects);
    println!(
        "indexed {} objects ({} page writes, {:.1} µs of CFB fitting)",
        tree.len(),
        load.io_writes,
        load.lp_nanos as f64 / 1e3
    );

    // "Which objects are in the downtown rectangle with >= 80% probability?"
    let downtown = Rect::new([1_800.0, 2_800.0], [2_600.0, 3_300.0]);
    let outcome = Query::range(downtown).threshold(0.8).run(&tree)?;

    println!("\nobjects in downtown with P >= 80%:");
    for m in &outcome {
        match m.provenance {
            Provenance::Validated => {
                println!("  #{:<3} certified by the filter, no integration", m.id)
            }
            // Fewer samples than the refinement budget: decided early, the
            // estimate was far enough from 80% to stop.
            Provenance::Refined { p, samples } => {
                println!("  #{:<3} refined: P = {p:.3} from {samples} samples", m.id)
            }
        }
    }
    println!(
        "cost: {} node accesses, {} probability integrations \
         ({} validated for free, {} pruned for free)",
        outcome.stats.node_reads,
        outcome.stats.prob_computations,
        outcome.stats.validated,
        outcome.stats.pruned
    );

    // Lower the bar to 20% — more objects qualify.
    let relaxed = Query::range(downtown).threshold(0.2).run(&tree)?;
    println!("\nobjects in downtown with P >= 20%: {:?}", relaxed.ids());

    // The index is fully dynamic: objects can leave.
    assert!(tree.delete(&objects[0]));
    let after = Query::range(downtown).threshold(0.2).run(&tree)?;
    println!("after drone 1 left: {:?}", after.ids());
    Ok(())
}
