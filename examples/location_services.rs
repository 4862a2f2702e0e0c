//! Location-based services: the paper's Figure-1 scenario.
//!
//! Moving clients report a position only when they stray more than a
//! distance threshold from their last report, so the server knows each
//! client up to a circular uncertainty region. The canonical query —
//! "retrieve the objects that are currently in the downtown area with a
//! probability no less than 80%" — is a prob-range query.
//!
//! The whole example is written against [`ProbIndex`], so the U-tree and
//! the sequential-scan baseline run through identical code.
//!
//! ```text
//! cargo run --release --example location_services
//! ```

use utree_repro::prelude::*;

/// Answers one downtown query on any backend (this is the point of the
/// trait: the caller neither knows nor cares which structure runs it).
fn downtown_report<I: ProbIndex<2>>(
    index: &I,
    downtown: Rect<2>,
    pq: f64,
) -> Result<QueryOutcome, IndexError> {
    Query::range(downtown).threshold(pq).run(index)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLIENTS: usize = 20_000;
    let threshold = 250.0; // report distance threshold = uncertainty radius

    // Last-reported positions follow an urban cluster distribution.
    let objects = datagen::to_uniform_objects(&datagen::lb_points(CLIENTS, 99), threshold);

    let mut tree = UTree::<2>::builder().uniform_catalog(12).build()?;
    let mut scan = SeqScan::<2>::builder().uniform_catalog(12).build()?;
    tree.bulk_load(&objects);
    scan.bulk_load(&objects);
    println!(
        "indexed {CLIENTS} clients (uncertainty radius {threshold}); \
         U-tree: {} pages, {} levels",
        tree.tree_stats()?.total_nodes(),
        tree.tree_stats()?.nodes_per_level.len()
    );

    // Downtown = a 1.5km square around a busy cluster center.
    let downtown_center = objects[17].mbr().center();
    let downtown = Rect::cube(&downtown_center, 1_500.0);

    for pq in [0.8, 0.5, 0.2] {
        let from_tree = downtown_report(&tree, downtown, pq)?;
        let from_scan = downtown_report(&scan, downtown, pq)?;
        assert_eq!(
            from_tree.sorted_ids(),
            from_scan.sorted_ids(),
            "index and scan must agree"
        );
        println!(
            "P >= {:.0}%: {:4} clients | U-tree: {:4} I/Os, {:3} integrations | \
             seq-scan: {:4} I/Os, {:3} integrations",
            pq * 100.0,
            from_tree.len(),
            from_tree.stats.total_io(),
            from_tree.stats.prob_computations,
            from_scan.stats.total_io(),
            from_scan.stats.prob_computations,
        );
    }

    // Rush hour: hundreds of users ask their own "who is near me?"
    // queries at once. Queries only read the index (`&self`), so worker
    // threads share the *same* tree — no clone, no lock around the index —
    // each with its own `QueryCtx`, and return exactly what a
    // one-at-a-time run would.
    const USERS: usize = 400;
    const WORKERS: usize = 4;
    println!("\nrush hour: {USERS} concurrent user queries on {WORKERS} threads…");
    let user_queries: Vec<Query<2>> = (0..USERS)
        .map(|u| {
            let here = objects[(u * 31) % CLIENTS].mbr().center();
            Query::range(Rect::cube(&here, 2_000.0))
                .threshold(0.5 + 0.4 * ((u % 10) as f64 / 10.0))
                // Interactive serving wants cheap exact quadrature, not
                // the paper's 10⁶-sample estimator.
                .refine(Refine::reference(1e-6))
                .build()
        })
        .collect::<Result<_, _>>()?;
    let t0 = std::time::Instant::now();
    let rush: Vec<QueryOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = user_queries
            .chunks(USERS.div_ceil(WORKERS))
            .map(|mine| {
                let tree = &tree;
                s.spawn(move || {
                    let mut ctx = QueryCtx::new();
                    mine.iter()
                        .map(|q| tree.execute_with(q, &mut ctx))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a rush-hour worker panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut ctx = QueryCtx::new();
    let mut stats = QueryStats::default();
    for (q, got) in user_queries.iter().zip(&rush) {
        let want = tree.execute_with(q, &mut ctx);
        assert_eq!(
            got.matches, want.matches,
            "parallel answers must be byte-identical to sequential"
        );
        assert!(got.stats.same_counts(&want.stats));
        stats += &got.stats;
    }
    println!(
        "{} queries on {WORKERS} threads: {:.0} queries/s, {} node reads, \
         {} integrations, answers identical to the sequential run",
        rush.len(),
        rush.len() as f64 / wall.as_secs_f64(),
        stats.node_reads,
        stats.prob_computations,
    );

    // "k nearest risky assets": a hazard area is declared (a flooded
    // district around downtown) and dispatch wants the ten clients MOST
    // LIKELY to be inside it — a ranking question, not a threshold one.
    // The same PCR machinery that filters range queries yields upper
    // probability bounds, so the tree refines only the contenders while
    // the scan has to integrate every client touching the area.
    // Smaller than any client's uncertainty disc, so every probability is
    // genuinely fractional and the ranking order is earned by refinement.
    let hazard = Rect::cube(&downtown_center, 450.0);
    println!("\nk nearest risky assets: top 10 clients by P(inside hazard zone)…");
    let risky = Query::range(hazard)
        .top(10)
        .refine(Refine::reference(1e-6))
        .run(&tree)?;
    let oracle = Query::range(hazard)
        .top(10)
        .refine(Refine::reference(1e-6))
        .run(&scan)?;
    assert_eq!(
        risky.matches, oracle.matches,
        "bounded ranking and the refine-everything scan must agree"
    );
    for (rank, m) in risky.iter().enumerate() {
        println!("  #{:<2} client {:5}  P = {:.3}", rank + 1, m.id, m.p);
    }
    println!(
        "U-tree ranked them with {:3} integrations ({} candidates bounded away); \
         seq-scan needed {:3}",
        risky.stats.prob_computations,
        risky.stats.candidates - risky.stats.prob_computations,
        oracle.stats.prob_computations,
    );

    // Clients move: each new report is a delete + insert.
    println!("\nsimulating 1000 client movements…");
    let moved: Vec<UncertainObject<2>> = objects
        .iter()
        .take(1000)
        .map(|o| {
            let c = o.mbr().center();
            UncertainObject::new(
                o.id,
                ObjectPdf::UniformBall {
                    center: Point::new([c.coords[0] + 400.0, c.coords[1] - 250.0]),
                    radius: threshold,
                },
            )
        })
        .collect();
    for (old, new) in objects.iter().zip(&moved) {
        assert!(tree.delete(old), "client {} must be deletable", old.id);
        tree.insert(new);
    }
    tree.check_invariants().expect("index stays consistent");
    println!(
        "index still holds {} clients and passes invariants",
        tree.len()
    );
    Ok(())
}
